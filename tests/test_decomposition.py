"""Truss/core decomposition, cascades, and the fast post-merger size."""

import copy
import random
from collections import Counter
from itertools import combinations, permutations

import pytest

from trussmerge import (Graph, TrussView, core_decompose, k_truss_edges,
                        node_trussness, post_merger_truss_size, shell_edges,
                        truss_decompose, truss_subgraph)

import oracles as orc
from conftest import gnp_edges, random_graph

# two 4-cliques sharing the edge (2,3), a pendant triangle on 5, a tail
A_EDGES = sorted(
    {(u, v) for grp in ([0, 1, 2, 3], [2, 3, 4, 5], [5, 6, 7])
     for u, v in combinations(grp, 2)} | {(7, 8)})

A_TRUSSNESS = {
    (0, 1): 4, (0, 2): 4, (0, 3): 4, (1, 2): 4, (1, 3): 4, (2, 3): 4,
    (2, 4): 4, (2, 5): 4, (3, 4): 4, (3, 5): 4, (4, 5): 4,
    (5, 6): 3, (5, 7): 3, (6, 7): 3, (7, 8): 2,
}


def graph_a() -> Graph:
    return Graph.from_edges(A_EDGES)


def test_frozen_trussness():
    g = graph_a()
    d = truss_decompose(g)
    got = {(g.label(u), g.label(v)): t for (u, v), t in d.edge_trussness.items()}
    want = {(str(u), str(v)): t for (u, v), t in A_TRUSSNESS.items()}
    assert got == want
    assert d.kmax == 4


def test_frozen_truss_and_shell_edges():
    g = graph_a()
    d = truss_decompose(g)
    assert len(k_truss_edges(d, 4)) == 11
    assert len(k_truss_edges(d, 3)) == 14
    label = lambda e: (g.label(e[0]), g.label(e[1]))
    assert {label(e) for e in shell_edges(d, 4)} == {("5", "6"), ("5", "7"), ("6", "7")}
    assert k_truss_edges(d, 5) == set()


def test_frozen_node_trussness():
    g = graph_a()
    t = node_trussness(truss_decompose(g), g)
    want = {"0": 4, "1": 4, "2": 4, "3": 4, "4": 4, "5": 4, "6": 3, "7": 3, "8": 2}
    assert {g.label(v): tv for v, tv in t.items()} == want


def test_frozen_coreness():
    g = graph_a()
    c = core_decompose(g).node_coreness
    want = {"0": 3, "1": 3, "2": 3, "3": 3, "4": 3, "5": 3, "6": 2, "7": 2, "8": 1}
    assert {g.label(v): cv for v, cv in c.items()} == want


def test_degenerate_graphs():
    empty = Graph.from_edges([], nodes=range(3))
    d = truss_decompose(empty)
    assert d.edge_trussness == {} and d.kmax == 2
    assert node_trussness(d, empty) == {v: 2 for v in empty.nodes()}
    one = Graph.from_edges([(0, 1)])
    assert truss_decompose(one).kmax == 2
    tri = Graph.from_edges([(0, 1), (0, 2), (1, 2)])
    dt = truss_decompose(tri)
    assert dt.kmax == 3 and set(dt.edge_trussness.values()) == {3}


def test_matches_peeling_oracle_on_random_graphs(rng):
    for _ in range(50):
        n = rng.randint(2, 14)
        g = random_graph(rng, n, rng.uniform(0.1, 0.7))
        d = truss_decompose(g)
        want_t, want_kmax = orc.truss_decompose_oracle(g.edge_set())
        assert d.edge_trussness == want_t
        assert d.kmax == want_kmax


def test_core_matches_oracle_on_random_graphs(rng):
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 16), rng.uniform(0.1, 0.7))
        got = core_decompose(g).node_coreness
        assert got == orc.coreness_oracle(g.adj)


def test_truss_nesting_and_core_containment(rng):
    for _ in range(25):
        g = random_graph(rng, rng.randint(4, 16), rng.uniform(0.3, 0.7))
        d = truss_decompose(g)
        core = core_decompose(g).node_coreness
        for k in range(3, d.kmax + 1):
            assert k_truss_edges(d, k) <= k_truss_edges(d, k - 1)
            for u, v in k_truss_edges(d, k):
                assert core[u] >= k - 1 and core[v] >= k - 1


def test_truss_subgraph_preserves_labels():
    g = graph_a()
    sub = truss_subgraph(g, truss_decompose(g), 4)
    assert sub.edge_count == 11
    assert sorted(sub.label(v) for v in sub.nodes()) == ["0", "1", "2", "3", "4", "5"]
    assert sub.node_of("4") == g.node_of("4")


def test_view_compute_matches_decomposition(rng):
    for _ in range(30):
        g = random_graph(rng, rng.randint(3, 16), rng.uniform(0.2, 0.8))
        d = truss_decompose(g)
        for k in range(3, 7):
            view = TrussView.compute(g, k)
            tk = k_truss_edges(d, k)
            assert view.tk_size == len(tk)
            assert view.shell == shell_edges(d, k)
            assert view.nodes_km1 == {v for e in k_truss_edges(d, k - 1) for v in e}
            assert view.tk_adj == {v: {w for e in tk if v in e for w in e if w != v}
                                   for e in tk for v in e}
            assert view.sup_tk == {(u, v): len(view.tk_adj[u] & view.tk_adj[v]) for u, v in tk}
            # pos is a valid peel order: each shell edge fell with support below k-2
            left = tk | view.shell
            for e in sorted(view.pos, key=view.pos.get):
                nbrs = lambda x: {w for f in left if x in f for w in f if w != x}
                assert len(nbrs(e[0]) & nbrs(e[1])) < k - 2
                left.remove(e)
            # the level below: G over R, R's supports counted inside R, and the first
            # order a valid peel of G down to R (fewer than k-3 triangles when removed)
            low, r = view.lower, k_truss_edges(d, k - 1)
            assert (low.g, low.k, low.adj_km1, low.tk_adj) == (g, k - 1, g.adj, view.adj_km1)
            assert low.tk_size == len(r) and low.pos.keys() == g.edge_set() - r
            assert low.sup_tk == {(u, v): len(view.adj_km1[u] & view.adj_km1[v]) for u, v in r}
            assert_peel_order(low)
            if k == 3:  # every edge is in the 2-truss
                assert not low.pos and low.tk_size == g.edge_count


def assert_peel_order(view: TrussView) -> None:
    """``pos`` lists the shell edges in an order that peels R down to T_k."""
    left = {v: set(ns) for v, ns in view.adj_km1.items()}
    for x, y in sorted(view.pos, key=view.pos.get):
        assert len(left[x] & left[y]) < view.k - 2
        left[x].discard(y)
        left[y].discard(x)
    assert {v: ns for v, ns in left.items() if ns} == view.tk_adj


def view_fields(v: TrussView) -> tuple:
    """Every field but ``pos``, whose peel order follows the key order of the supports."""
    return v.g, v.k, v.nodes_km1, v.adj_km1, v.tk_size, v.tk_adj, v.sup_tk


def assert_carried(view: TrussView, fresh: TrussView, *context) -> None:
    """Both levels of a carried view equal ``fresh``, each ``pos`` a peel order of the same edges."""
    assert view.lower.adj_km1 is view.g.adj and view.lower.tk_adj is view.adj_km1
    for v, f in ((view, fresh), (view.lower, fresh.lower)):
        assert view_fields(v) == view_fields(f), context
        assert v.pos.keys() == f.pos.keys(), context
        assert_peel_order(v)
        # the shell scan reads pos as a heap: its ranks must rise in iteration order
        assert list(v.pos.values()) == sorted(set(v.pos.values()))


def _merge_pair(rng: random.Random, g: Graph) -> tuple[str, int, int]:
    """A random merge pair of a random shape, in random order."""
    nodes = g.nodes()
    hub = max(nodes, key=lambda v: (len(g.adj[v]), v))
    shapes = {
        "adjacent": list(g.edges()),
        "common neighbours": [(u, v) for u, v in combinations(nodes, 2) if g.adj[u] & g.adj[v]],
        "isolated node": [(u, v) for u, v in combinations(nodes, 2)
                          if not g.adj[u] or not g.adj[v]],
        "hub": [(hub, v) for v in nodes if v != hub] if 2 * len(g.adj[hub]) > len(nodes) else [],
        "any": list(combinations(nodes, 2)),
    }
    shape = rng.choice([name for name, pairs in shapes.items() if pairs])
    v1, v2 = rng.choice(shapes[shape])
    return (shape, v1, v2) if rng.random() < 0.5 else (shape, v2, v1)


def test_carried_view_matches_compute_after_every_merge(rng):
    """TrussView.merge, merge after merge, against compute on the merged graph."""
    shapes = Counter()
    for i in range(300):
        n = rng.randint(2, 16)
        edges = gnp_edges(rng, n, rng.uniform(0.15, 0.9))
        if i % 3 == 0:  # node n is a hub with most nodes in its star, else isolated
            edges |= {(v, n) for v in range(n) if rng.random() < 0.85}
        g = Graph.from_edges(sorted(edges), nodes=range(n + 2))
        k = rng.randint(3, 6)
        view = TrussView.compute(g, k)
        pairs = []
        while g.node_count > 1:
            shape, v1, v2 = _merge_pair(rng, g)
            pairs.append((v1, v2))
            shapes[shape] += 1
            shapes.update(case for case, hit in (
                ("v1 outside R", v1 not in view.nodes_km1), ("v2 outside R", v2 not in view.nodes_km1),
                ("empty T_k", not view.tk_size), ("empty shell", not view.pos)) if hit)
            if rng.random() < 0.5:  # as in a greedy round, the merge commits its pair's evaluation
                shapes["evaluated first"] += 1
                view.truss_size_after_merge(v1, v2)
            view.merge(v1, v2)
            fresh = TrussView.compute(g, k)
            assert_carried(view, fresh, sorted(edges), k, pairs)
            if g.node_count > 1:
                u, w = rng.sample(g.nodes(), 2)
                assert view.truss_size_after_merge(u, w) == fresh.truss_size_after_merge(u, w)
    assert len(shapes) == 10 and min(shapes.values()) >= 40, shapes


def test_bounded_evaluation_is_exact_at_or_above_the_floor(rng):
    """With a floor, a size at or above it is exact; below it, an upper bound still below it."""
    stops = Counter()
    for _ in range(80):
        g = random_graph(rng, rng.randint(3, 16), rng.uniform(0.2, 0.9))
        k = rng.randint(3, 6)
        view = TrussView.compute(g, k)
        before = copy.deepcopy((view_fields(view)[1:], view.pos, g.adj))
        for v1, v2 in rng.sample(list(permutations(g.nodes(), 2)), min(12, g.node_count)):
            exact = view.truss_size_after_merge(v1, v2)
            h = view._merged_truss(v1, v2, floor=g.edge_count + 1)[0]  # |H|: stops after the lift
            for floor in range(h + 2):
                got = view.truss_size_after_merge(v1, v2, floor)
                if exact >= floor:
                    assert got == exact, (sorted(g.edge_set()), k, v1, v2, floor)
                else:
                    assert exact <= got < floor, (sorted(g.edge_set()), k, v1, v2, floor)
                    stops["after the lift" if floor > h else "in the peel"] += 1
            stops["H above T'"] += h > exact
        assert (view_fields(view)[1:], view.pos, g.adj) == before
    assert min(stops.values()) >= 40 and len(stops) == 3, stops


def test_merge_reuses_only_its_own_pairs_evaluation(rng, monkeypatch):
    """A merge after its pair's complete evaluation skips the rerun and equals one that reran.

    The level below has no evaluations to reuse: each merge runs its lift-then-peel once.
    """
    calls = Counter()
    merged_truss = TrussView._merged_truss

    def counted(self, v1, v2, floor=None):
        calls["lower" if self.lower is None else "top", floor is None] += 1
        return merged_truss(self, v1, v2, floor)

    monkeypatch.setattr(TrussView, "_merged_truss", counted)
    merges = 0
    for i in range(150):
        n = rng.randint(3, 16)
        edges = gnp_edges(rng, n, rng.uniform(0.2, 0.9))
        if i % 3 == 0:  # node n is a hub with most nodes in its star
            edges |= {(v, n) for v in range(n) if rng.random() < 0.85}
        g = Graph.from_edges(sorted(edges), nodes=range(n + 1))
        k = rng.randint(3, 6)
        ga, gb = g.copy(), g.copy()
        va, vb = TrussView.compute(ga, k), TrussView.compute(gb, k)
        while ga.node_count > 2:
            _, v1, v2 = _merge_pair(rng, ga)
            va.truss_size_after_merge(v1, v2)
            # a stopped evaluation of another pair leaves the memo alone
            u, w = rng.sample(ga.nodes(), 2)
            va.truss_size_after_merge(u, w, ga.edge_count + 1)
            # vb last evaluated a different pair, often the reversed one
            other = tuple(rng.sample(gb.nodes(), 2))
            vb.truss_size_after_merge(*((v2, v1) if rng.random() < 0.5 or other == (v1, v2) else other))
            calls.clear()
            va.merge(v1, v2)
            assert calls == Counter({("lower", True): 1})
            vb.merge(v1, v2)
            assert calls == Counter({("lower", True): 2, ("top", True): 1})
            merges += 1
            assert va._memo is None and vb._memo is None
            assert view_fields(va)[2:] == view_fields(vb)[2:], (sorted(edges), k)
            for v in (va, vb):
                assert_carried(v, TrussView.compute(v.g, k), sorted(edges), k)
    assert merges >= 300


def test_view_merge_rejects_bad_pairs():
    g = graph_a()
    view = TrussView.compute(g, 4)
    before = copy.deepcopy((view_fields(view)[2:], view.pos, view_fields(view.lower)[2:],
                            view.lower.pos, g.adj))
    for v1, v2 in ((0, 0), (0, 99), (99, 0)):
        with pytest.raises(ValueError):
            view.merge(v1, v2)
    assert (view_fields(view)[2:], view.pos, view_fields(view.lower)[2:], view.lower.pos,
            g.adj) == before


def test_view_rejects_small_k():
    g = graph_a()
    with pytest.raises(ValueError):
        TrussView.compute(g, 2)


def test_frozen_post_merger_sizes():
    g = graph_a()
    ids = {g.label(v): v for v in g.nodes()}
    assert post_merger_truss_size(g, 4, ids["0"], ids["4"]) == 9
    assert post_merger_truss_size(g, 4, ids["0"], ids["5"]) == 9
    assert post_merger_truss_size(g, 3, ids["1"], ids["6"]) == 14
    assert post_merger_truss_size(g, 4, ids["0"], ids["8"]) == 11


def test_post_merger_size_matches_oracle(rng):
    for _ in range(60):
        n = rng.randint(4, 24)
        g = random_graph(rng, n, rng.uniform(0.15, 0.6))
        k = rng.randint(3, 5)
        v1, v2 = rng.sample(g.nodes(), 2)
        got = post_merger_truss_size(g, k, v1, v2)
        want = orc.post_merger_truss_size_oracle(g.edge_set(), k, v1, v2)
        assert got == want, (sorted(g.edge_set()), k, v1, v2)


def test_merge_evaluation_matches_oracle_on_every_pair(rng):
    for _ in range(25):
        n = rng.randint(4, 14)
        g = random_graph(rng, n, rng.uniform(0.3, 0.85))
        edges = g.edge_set()
        for k in (3, 4, 5, 6):
            view = TrussView.compute(g, k)
            for v1, v2 in permutations(g.nodes(), 2):
                want = orc.post_merger_truss_size_oracle(edges, k, v1, v2)
                assert view.truss_size_after_merge(v1, v2) == want, (sorted(edges), k, v1, v2)


# octahedron K(2,2,2) on 0-5 (antipodes 0-1, 2-3, 4-5; every edge in two
# triangles, so all of it is the 4-truss), with 6 hanging off the antipodes
# 0, 1 and 7 off 2, 3: their edges close no triangle
OCTA = [(u, v) for u, v in combinations(range(6), 2) if (u, v) not in {(0, 1), (2, 3), (4, 5)}]
OCTA_HANGING = OCTA + [(0, 6), (1, 6), (2, 7), (3, 7)]
K5_TAIL = [(u, v) for u, v in combinations(range(5), 2)] + [(4, 5), (5, 6)]


def _hub_graph() -> list[tuple[int, int]]:
    rng = random.Random(7)
    edges = set(gnp_edges(rng, 14, 0.45))
    edges |= {(i, 14) for i in range(12)}
    return sorted(edges)


@pytest.mark.parametrize("name, edges, k, v1, v2, case", [
    ("adjacent, both in T_k", A_EDGES, 4, 4, 5, lambda v, s: v.tk_adj[4] >= {5}),
    ("adjacent over a shell edge", A_EDGES, 4, 6, 5, lambda v, s: (5, 6) in v.pos),
    ("v1 outside R", OCTA_HANGING, 4, 6, 4, lambda v, s: 6 not in v.nodes_km1),
    ("v2 outside R", OCTA_HANGING, 4, 4, 7, lambda v, s: 7 not in v.nodes_km1),
    ("both outside R", OCTA_HANGING, 4, 6, 7,
     lambda v, s: not {6, 7} & v.nodes_km1 and s > v.tk_size),
    ("empty T_k", A_EDGES, 5, 1, 4, lambda v, s: v.tk_size == 0 and v.pos),
    ("empty shell", K5_TAIL, 5, 5, 3, lambda v, s: not v.pos and v.tk_size == 10),
    ("identical neighbourhoods", OCTA, 4, 0, 1, lambda v, s: s < v.tk_size),
    ("hub whose star covers most of R", _hub_graph(), 5, 14, 12,
     lambda v, s: len((v.g.adj[14] | v.g.adj[12]) & v.nodes_km1 - {12, 14})
     >= 0.75 * len(v.nodes_km1)),
])
def test_merge_evaluation_named_cases(name, edges, k, v1, v2, case):
    g = Graph.from_edges(edges, nodes=range(max(max(e) for e in edges) + 1))
    view = TrussView.compute(g, k)
    size = view.truss_size_after_merge(v1, v2)
    assert case(view, size), name
    assert size == orc.post_merger_truss_size_oracle(g.edge_set(), k, v1, v2)
    assert view.truss_size_after_merge(v2, v1) == size


def test_merge_evaluation_leaves_view_unchanged(rng):
    g = random_graph(rng, 18, 0.55)
    view = TrussView.compute(g, 5)
    assert view.pos and view.tk_size
    before = copy.deepcopy((view.nodes_km1, view.adj_km1, view.tk_size, view.tk_adj,
                            view.sup_tk, view.pos, g.adj))
    pairs = [tuple(rng.sample(g.nodes(), 2)) for _ in range(50)]
    forward = [view.truss_size_after_merge(v1, v2) for v1, v2 in pairs]
    backward = [view.truss_size_after_merge(v1, v2) for v1, v2 in reversed(pairs)]
    assert forward == backward[::-1]
    assert (view.nodes_km1, view.adj_km1, view.tk_size, view.tk_adj, view.sup_tk,
            view.pos, g.adj) == before
    assert forward == [orc.post_merger_truss_size_oracle(g.edge_set(), 5, v1, v2)
                       for v1, v2 in pairs]


def test_post_merger_size_validations():
    g = graph_a()
    v = g.node_of("0")
    with pytest.raises(ValueError):
        post_merger_truss_size(g, 4, v, v)
    with pytest.raises(ValueError):
        post_merger_truss_size(g, 4, v, 999)
