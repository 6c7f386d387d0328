"""Graph container: parsing, accessors, merging."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from trussmerge import Graph, MergeOutcome, ParseError, canon, merge_all

import oracles as orc
from conftest import deep_snapshot


def kite() -> Graph:
    return Graph.from_edges([(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)])


def test_parse_basic():
    lines = ["# comment", "a b", "", "b c", "a b", "b a", "c c"]
    g = Graph.from_edge_list(lines)
    assert g.node_count == 3
    assert g.edge_count == 2
    assert sorted(g.labeled_edges()) == [("a", "b"), ("b", "c")]


def test_parse_keeps_labels_as_strings():
    g = Graph.from_edge_list(["007 8", "8 9"])
    assert sorted(g.label(v) for v in g.nodes()) == ["007", "8", "9"]


def test_parse_error_reports_line_number():
    with pytest.raises(ParseError, match="line 2"):
        Graph.from_edge_list(["a b", "lonely"])


def two_pass_parse(lines) -> Graph:
    """The edge-list parser as it was: collect label pairs, then build with ``from_edges``."""
    pairs = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) < 2:
            raise ParseError(f"line {lineno}: expected two endpoint labels, got {line!r}")
        if tokens[0] != tokens[1]:
            pairs.append((tokens[0], tokens[1]))
    return Graph.from_edges(pairs)


def _parsed(parse, lines):
    try:
        g = parse(lines)
    except ParseError as err:
        return "error", str(err)
    return list(g._labels.items()), g._ids, g.adj, g.edge_count


def test_one_pass_parser_matches_the_two_pass_one():
    rng = random.Random(16)
    labels = ["a", "b", "c", "007", "7", "x-y", "\u00e9t\u00e9", "#no"]
    shapes = [lambda u, v: f"{u} {v}\n", lambda u, v: f"{u}\t{v}", lambda u, v: f"  {u}  {v} \r\n",
              lambda u, v: f"{u} {v} 1.5 extra", lambda u, v: f"{v} {u}",  # both orientations
              lambda u, v: f"{u} {u}", lambda u, v: "", lambda u, v: "   \t",
              lambda u, v: f"# {u} {v}", lambda u, v: f"   # {u} {v}", lambda u, v: f"\t#{u}"]
    errors = 0
    for _ in range(400):
        lines = [rng.choice(shapes)(*rng.sample(labels, 2)) for _ in range(rng.randint(0, 25))]
        if rng.random() < 0.2:  # a malformed line
            lines.insert(rng.randint(0, len(lines)), rng.choice(["lonely", "  z  \n", "\tq"]))
        want = _parsed(two_pass_parse, lines)
        assert _parsed(Graph.from_edge_list, lines) == want, lines
        errors += want[0] == "error"
    assert errors >= 40


def test_from_edges_keeps_requested_isolated_nodes():
    g = Graph.from_edges([(0, 1), (5, 5)], nodes=range(4))  # the self-loop pair is dropped
    assert (g.node_count, g.edge_count) == (4, 1)
    assert g.degree(g.node_of("3")) == 0


def test_accessors():
    g = kite()
    a, b = g.node_of("1"), g.node_of("2")
    assert g.has_edge(a, b) and g.has_edge(b, a)
    assert g.degree(a) == 3
    assert g.support(a, b) == 2
    assert g.neighbors(g.node_of("4")) == {g.node_of("3")}
    with pytest.raises(ValueError):
        g.neighbors(999)
    with pytest.raises(ValueError):
        g.label(999)
    with pytest.raises(ValueError):
        g.support(a, g.node_of("4"))


def test_edges_sorted_canonical():
    g = kite()
    es = list(g.edges())
    assert es == sorted(es)
    assert all(u < v for u, v in es)


def test_merge_dedupes_and_drops_loops():
    g = Graph.from_edges([(0, 1), (0, 2), (1, 2), (2, 3)])
    m = g.merge(g.node_of("0"), g.node_of("3"))
    assert m.node_count == 3
    assert m.edge_count == 3  # (2,3) collides with (0,2)
    assert g.edge_count == 4  # original untouched


def test_merge_validations():
    g = kite()
    v = g.node_of("0")
    with pytest.raises(ValueError):
        g.merge(v, v)
    with pytest.raises(ValueError):
        g.merge(v, 12345)


def test_merge_all_redirects_collapsed_pairs():
    g = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
    ids = {g.label(v): v for v in g.nodes()}
    out = merge_all(g, [(ids["0"], ids["1"]), (ids["1"], ids["2"]), (ids["0"], ids["2"])])
    assert isinstance(out, MergeOutcome)
    # the second pair resolves 1 -> 0, the third collapses into a no-op
    assert out.applied == ((ids["0"], ids["1"]), (ids["0"], ids["2"]))
    assert out.skipped == ((ids["0"], ids["2"]),)
    assert out.graph.node_count == 2
    assert out.graph.edge_count == 1


@pytest.mark.parametrize("edited", ["original", "copy"])
@pytest.mark.parametrize("edit", ["merge", "add_edge"])
def test_copies_share_sets_but_never_see_each_others_edits(edited, edit):
    g = kite()
    h = g.copy()
    assert all(h.adj[v] is g.adj[v] for v in g.adj)
    a, b = (g, h) if edited == "original" else (h, g)
    before = deep_snapshot(b)
    v0, v3, v4 = (a.node_of(x) for x in "034")
    if edit == "merge":
        a._merge_inplace(v0, v3)
        assert {frozenset(e) for e in a.labeled_edges()} == {frozenset(e) for e in ("01", "02", "12", "04")}
    else:
        a._add_edge(v0, v4)
        assert a.has_edge(v0, v4) and a.edge_count == 7
    assert deep_snapshot(b) == before


def test_round_trip_through_edge_list():
    g = kite()
    again = Graph.from_edge_list(g.to_edge_list())
    assert sorted(again.labeled_edges()) == sorted(g.labeled_edges())


@st.composite
def seeded_graphs(draw):
    n = draw(st.integers(2, 12))
    seed = draw(st.integers(0, 10 ** 6))
    rng = random.Random(seed)
    edges = {(u, v) for u, v in combinations(range(n), 2) if rng.random() < 0.4}
    return Graph.from_edges(edges, nodes=range(n))


@settings(max_examples=60, deadline=None)
@given(seeded_graphs(), st.integers(0, 10 ** 6))
def test_merge_matches_relabeling_oracle(g, seed):
    rng = random.Random(seed)
    nodes = g.nodes()
    v1, v2 = rng.sample(nodes, 2)
    merged = g.merge(v1, v2)
    got = {(g.label(u) if u != v2 else g.label(v1),
            g.label(v) if v != v2 else g.label(v1)) for u, v in merged.edges()}
    want = orc.merge_edges({(g.label(u), g.label(v)) for u, v in g.edges()},
                           g.label(v1), g.label(v2))
    assert {tuple(sorted(e)) for e in got} == want
    assert merged.node_count == g.node_count - 1
    assert merged.edge_count == len(want)
    assert all(u != v for u, v in merged.edges())


def test_canon_orders_endpoints():
    assert canon(5, 3) == (3, 5)
    assert canon(3, 5) == (3, 5)
