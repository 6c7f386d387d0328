"""Candidate scoring: Z sets, helped shell edges, pair rankings."""

import math
import random
from itertools import combinations

import numpy as np
import pytest

from trussmerge import (CandidateMerger, ConstraintFilter, Graph, MergerKind,
                        ParseError, build_round_state, canon, find_iim_candidates,
                        find_iom_candidates, haversine_km, iim_score,
                        incident_prospects, load_coordinates, new_inside_neighbors,
                        phse, top_inside_nodes, top_outside_nodes, truss_decompose)

from trussmerge import candidates
from trussmerge.baselines import _ne_candidates, _nt_candidates
from trussmerge.search import Method, RunConfig, _split_candidates

import oracles as orc
from conftest import gnp_edges
from test_decomposition import graph_a

# seeded 12-node graph with one outside node (9) at k=4
B_EDGES = [
    (0, 1), (0, 2), (0, 4), (0, 7), (0, 9), (0, 11), (1, 2), (1, 5), (1, 6),
    (2, 3), (2, 5), (2, 6), (2, 7), (2, 8), (2, 10), (3, 7), (3, 8), (3, 9),
    (4, 5), (4, 8), (4, 11), (5, 10), (6, 7), (6, 10), (7, 8), (8, 10),
]


def graph_b() -> Graph:
    return Graph.from_edges(B_EDGES, nodes=range(12))


def ctx_b():
    return build_round_state(graph_b(), 4)


def test_frozen_partition_b():
    p = ctx_b().partition
    assert p.outside == {9}
    assert p.inside == set(range(12)) - {9}


def test_frozen_z_set():
    assert new_inside_neighbors(ctx_b(), 0, 9) == {3}


def test_frozen_phse():
    assert phse(ctx_b(), 0, 9) == {(0, 2), (0, 7)}


def test_phse_matches_definition_oracle(rng):
    done = 0
    while done < 40:
        n = rng.randint(6, 20)
        g = Graph.from_edges(gnp_edges(rng, n, rng.uniform(0.2, 0.5)), nodes=range(n))
        k = rng.randint(3, 5)
        ctx = build_round_state(g, k)
        p = ctx.partition
        candidates = [(vi, vo) for vo in sorted(p.outside)
                      if p.inside_neighbors[vo] for vi in sorted(p.inside)]
        if not candidates:
            continue
        v1, v2 = rng.choice(candidates)
        got = phse(ctx, v1, v2)
        want = orc.phse_oracle(g.edge_set(), g.nodes(), k, v1, v2)
        assert got == want, (sorted(g.edge_set()), k, v1, v2)
        done += 1


def test_scoring_context_tables_match_sets(rng):
    # rows and adjacencies are read back against the view; prospects and ranking against
    # a fresh decomposition's trussness
    done = 0
    while done < 30:
        n = rng.randint(6, 24)
        g = Graph.from_edges(gnp_edges(rng, n, rng.uniform(0.2, 0.5)), nodes=range(n))
        k = rng.randint(3, 5)
        ctx = build_round_state(g, k)
        p, view = ctx.partition, ctx.view
        if not p.inside:
            continue
        order = ctx.order
        assert order == sorted(p.inside)
        assert [ctx.col[v] for v in order] == list(range(len(order)))
        assert all(ctx.col[v] == -1 for v in p.outside)

        def nodes(row):
            return {order[i] for i in row.nonzero()[0]}

        nodes_all = list(g.nodes())
        for v, row in zip(nodes_all, ctx.rows(nodes_all)):
            assert nodes(row) == p.inside_neighbors[v]
        for v, tk, km1 in zip(order, ctx.rows(order, view.tk_adj), ctx.rows(order, view.adj_km1)):
            assert nodes(tk) == view.tk_adj.get(v, set())
            assert nodes(km1) == view.adj_km1[v]
        for v in order:
            assert set(ctx.shell_neighbors(v)) == view.adj_km1[v] - view.tk_adj.get(v, set())
        assert {(order[a], order[b]) for a, b in zip(*ctx.shell_edges)} == view.shell
        inside_edges = {e for e in g.edge_set() if set(e) <= p.inside}
        assert sorted((order[a], order[b]) for a, b in zip(*ctx.inside_edges)) == sorted(inside_edges)
        tr = truss_decompose(g).edge_trussness
        prospects = {v: {w for w in p.inside_neighbors[v] if tr[canon(v, w)] < k} for v in order}
        assert {v: incident_prospects(ctx, v) for v in order} == prospects
        assert ctx.ranking == sorted(order, key=lambda v: (-len(prospects[v]), v))
        done += 1


@pytest.mark.parametrize("source", [_split_candidates, _ne_candidates, _nt_candidates],
                         ids=["BM", "NE", "NT"])
def test_round_sources_read_inside_neighbourhoods_from_the_graph(rng, source):
    # scoring reads the working graph through the column map: only outside nodes get sets
    done = 0
    while done < 25:
        n = rng.randint(6, 24)
        g = Graph.from_edges(gnp_edges(rng, n, rng.uniform(0.2, 0.5)), nodes=range(n))
        k = rng.randint(3, 5)
        state = build_round_state(g, k)
        if not state.partition.inside:
            continue
        source(RunConfig(k=k, n_i=8, n_o=4, n_c=6), state, random.Random(0), 3)
        assert set(state.partition.inside_neighbors) == state.partition.outside
        done += 1


def test_frozen_iim_scores():
    ctx = ctx_b()
    assert iim_score(ctx, 0, 1) == 1
    assert iim_score(ctx, 0, 2) == 0
    assert iim_score(ctx, 0, 3) == 0
    assert iim_score(ctx, 0, 4) == 2


def test_iim_score_matches_oracle(rng):
    done = 0
    while done < 40:
        n = rng.randint(6, 20)
        g = Graph.from_edges(gnp_edges(rng, n, rng.uniform(0.25, 0.55)), nodes=range(n))
        k = rng.randint(3, 5)
        ctx = build_round_state(g, k)
        if len(ctx.partition.inside) < 2:
            continue
        v1, v2 = rng.sample(sorted(ctx.partition.inside), 2)
        got = iim_score(ctx, min(v1, v2), max(v1, v2))
        want = orc.iim_score_oracle(g.edge_set(), k, min(v1, v2), max(v1, v2))
        assert got == want, (sorted(g.edge_set()), k, v1, v2)
        done += 1


def test_iim_score_validations():
    ctx = ctx_b()
    with pytest.raises(ValueError):
        iim_score(ctx, 0, 0)
    with pytest.raises(ValueError):
        iim_score(ctx, 0, 9)  # 9 is outside
    for fn in (new_inside_neighbors, phse):  # 9 as v_i
        with pytest.raises(ValueError):
            fn(ctx, 9, 0)


def test_frozen_incident_prospects():
    g = graph_a()
    ctx = build_round_state(g, 4)
    ids = {g.label(v): v for v in g.nodes()}
    assert incident_prospects(ctx, ids["5"]) == {ids["6"], ids["7"]}
    assert incident_prospects(ctx, ids["0"]) == set()
    with pytest.raises(ValueError):
        incident_prospects(ctx, ids["8"])


def test_frozen_top_nodes():
    g = graph_a()
    ctx = build_round_state(g, 4)
    lab = g.label
    assert [lab(v) for v in top_inside_nodes(ctx, 5)] == ["5", "6", "7", "0", "1"]
    assert [lab(v) for v in top_outside_nodes(ctx, 3)] == ["8"]


def test_frozen_iom_ranking():
    g = graph_a()
    cands = find_iom_candidates(build_round_state(g, 4), n_i=10, n_o=10, n_c=4)
    named = [(g.label(c.v1), g.label(c.v2), c.score, c.tiebreak) for c in cands]
    # 2, 3 and 4 can route shell edge (5,7) a new triangle through node 7;
    # from 0 the new neighbor 7 touches nothing reachable, so it scores 0
    assert named == [("2", "8", 1, 1), ("3", "8", 1, 1), ("4", "8", 1, 1),
                     ("0", "8", 0, 1)]
    assert all(c.kind is MergerKind.IOM for c in cands)


def test_finders_deterministic_and_capped():
    a = find_iim_candidates(ctx_b(), n_i=8, n_c=5)
    b = find_iim_candidates(ctx_b(), n_i=8, n_c=5)
    assert a == b
    assert len(a) == 5
    keys = [c.sort_key() for c in a]
    assert keys == sorted(keys)
    assert all(c.v1 < c.v2 and c.kind is MergerKind.IIM for c in a)


def test_constraint_filter_rules():
    coords = {1: (0.0, 0.0), 2: (0.0, 1.0)}
    near = ConstraintFilter(coords, 150.0)
    far = ConstraintFilter(coords, 50.0)
    assert near.allows(1, 2)       # ~111 km apart
    assert not far.allows(1, 2)
    assert not near.allows(1, 3)   # missing coordinates


def test_constraint_filter_prunes_candidates():
    g = graph_a()
    coords = {v: (0.0, 0.0) for v in g.nodes()}
    coords[g.node_of("0")] = (40.0, 0.0)  # push node 0 out of range
    cands = find_iom_candidates(build_round_state(g, 4), 10, 10, 3, ConstraintFilter(coords, 100.0))
    assert g.node_of("0") not in {c.v1 for c in cands}


def test_haversine():
    paris, london = (48.8566, 2.3522), (51.5074, -0.1278)
    d = haversine_km(paris, london)
    assert math.isclose(d, haversine_km(london, paris))
    assert 340 < d < 347
    assert haversine_km(paris, paris) == 0.0


def test_load_coordinates():
    got = load_coordinates(["# cities", "a 1.0 2.0", "", "b 3 4", "a 5 6"])
    assert got == {"a": (5.0, 6.0), "b": (3.0, 4.0)}
    with pytest.raises(ParseError, match="line 2"):
        load_coordinates(["a 1 2", "b 3"])
    with pytest.raises(ParseError, match="line 1"):
        load_coordinates(["a one 2"])


def test_finder_scores_match_oracles(rng):
    # the pools take every node, so every pair is scored; a sample of the
    # returned candidates is checked against the slow recount
    done = 0
    while done < 20:
        n = rng.randint(15, 40)
        g = Graph.from_edges(gnp_edges(rng, n, rng.uniform(0.15, 0.45)), nodes=range(n))
        k = rng.randint(3, 6)
        ctx = build_round_state(g, k)
        inside = len(ctx.partition.inside)
        if inside < 2:
            continue
        edges = g.edge_set()
        iim = find_iim_candidates(ctx, n_i=n, n_c=n * n)
        assert len(iim) == inside * (inside - 1) // 2
        for c in rng.sample(iim, min(25, len(iim))):
            assert c.score == orc.iim_score_oracle(edges, k, c.v1, c.v2), (sorted(edges), k, c)
        iom = find_iom_candidates(ctx, n_i=n, n_o=n, n_c=n * n)
        for c in rng.sample(iom, min(25, len(iom))):
            assert c.score == len(orc.phse_oracle(edges, g.nodes(), k, c.v1, c.v2)), \
                (sorted(edges), k, c)
            assert c.tiebreak == len(orc.z_set_oracle(edges, k, c.v1, c.v2)), (sorted(edges), k, c)
        done += 1


def scoring_graph(rng):
    """A random graph with isolated nodes, and maybe a hub or a clique core.

    The hub is adjacent to about 85% of the nodes. The clique core has
    only pendant paths around it, so above k=3 its shell is empty.
    """
    n = rng.randint(8, 18)
    shape = rng.choice(("plain", "hub", "clique"))
    if shape == "clique":
        m = rng.randint(4, 7)
        edges = set(combinations(range(m), 2)) | {(rng.randrange(v), v) for v in range(m, n)}
    else:
        edges = gnp_edges(rng, n, rng.uniform(0.15, 0.5))
    if shape == "hub":
        hub = rng.randrange(n)
        others = rng.sample([v for v in range(n) if v != hub], round(0.85 * (n - 1)))
        edges |= {(min(hub, v), max(hub, v)) for v in others}
    return Graph.from_edges(edges, nodes=range(n + rng.randint(0, 2))), shape


def check_pools_match_oracles(g, k, n_i, n_o, cfilter):
    """Score every pool pair of BM, NE and NT through the products; compare each with the oracles."""
    edges = g.edge_set()
    ctx = build_round_state(g, k)
    big = 10 ** 6
    iim = find_iim_candidates(ctx, n_i, big, cfilter)
    iom = find_iom_candidates(ctx, n_i, n_o, big, cfilter)
    for cands in (iim, iom):
        keys = [c.sort_key() for c in cands]
        assert keys == sorted(keys)
    admits = cfilter.allows if cfilter else lambda u, v: True
    top = ctx.ranking[:n_i]
    outside = top_outside_nodes(ctx, n_o)
    assert {(c.v1, c.v2) for c in iim} == {(min(e), max(e)) for e in combinations(top, 2) if admits(*e)}
    assert {(c.v1, c.v2) for c in iom} == {(u, v) for u in top for v in outside if admits(u, v)}
    for c in iim:
        assert (c.score, c.tiebreak) == (orc.iim_score_oracle(edges, k, c.v1, c.v2), 0), \
            (sorted(edges), k, c)
    for c in iom:
        assert c.score == len(orc.phse_oracle(edges, g.nodes(), k, c.v1, c.v2)), (sorted(edges), k, c)
        assert c.tiebreak == len(orc.z_set_oracle(edges, k, c.v1, c.v2)), (sorted(edges), k, c)
    cfg = RunConfig(k=k, n_i=n_i, n_o=n_o, n_c=big, method=Method.NT, filter=cfilter)
    nt = _nt_candidates(cfg, ctx, random.Random(0), 0)
    assert len(nt) == len(iim) + len(iom)
    for c in nt:
        assert c.score == orc.nt_gain_oracle(edges, k, c.v1, c.v2), (sorted(edges), k, c)
    ne = _ne_candidates(cfg, ctx, random.Random(0), 0)
    assert {(c.v1, c.v2): c.score for c in ne} == {(c.v1, c.v2): c.tiebreak for c in iom}
    return ctx, iim, iom


def test_product_scores_match_oracles_on_every_pool_pair(rng):
    seen = set()
    done = 0
    while done < 40:
        g, shape = scoring_graph(rng)
        k = rng.randint(3, 6)
        ctx = build_round_state(g, k)
        inside = len(ctx.partition.inside)
        if inside < 2:
            continue
        n_i = rng.choice((rng.randint(1, inside), inside + rng.randint(0, 3)))
        cfilter = None
        if done % 3 == 2:
            coords = {v: (rng.uniform(0, 1), rng.uniform(0, 1)) for v in g.nodes() if rng.random() < 0.9}
            cfilter = ConstraintFilter(coords, 80.0)
            seen.add("filter")
        _, iim, iom = check_pools_match_oracles(g, k, n_i, rng.randint(1, 6), cfilter)
        seen |= {shape, "n_i below" if n_i < inside else "n_i at or above"}
        if g.node_count > len(g.adj) or any(not ns for ns in g.adj.values()):
            seen.add("isolated")
        if not ctx.view.pos:
            seen.add("empty shell")
        done += 1
    assert seen >= {"plain", "hub", "clique", "filter", "isolated", "empty shell",
                    "n_i below", "n_i at or above"}, seen


def test_product_scores_exact_in_float64(rng, monkeypatch):
    # the float64 branch gives the same scores as the float32 one and the oracles
    done = 0
    while done < 4:
        g, _ = scoring_graph(rng)
        k = rng.randint(3, 5)
        if len(build_round_state(g, k).partition.inside) < 2:
            continue
        want = check_pools_match_oracles(g, k, g.node_count, g.node_count, None)[1:]
        with monkeypatch.context() as m:
            m.setattr(candidates, "EXACT_F32", 0)
            ctx, *got = check_pools_match_oracles(g, k, g.node_count, g.node_count, None)
            assert ctx.dtype is np.float64
        assert got == list(want)
        done += 1


def test_within_matches_allows_on_every_pair(rng):
    coords = {v: (rng.uniform(-89, 89), rng.uniform(-180, 180)) for v in range(40)}
    coords[40] = (0.0, 0.0)
    coords[41] = (0.0, 1.0)              # about 111 km east of 40
    coords[42] = (-0.0, 179.99999)       # 42 and 43 are nearly antipodal
    coords[43] = (0.0, -0.00001)
    nodes = list(range(46))              # 44 and 45 have no coordinates
    at_edge = haversine_km(coords[40], coords[41])
    thresholds = [0.0, at_edge, haversine_km(coords[3], coords[7]),
                  haversine_km(coords[42], coords[43]), 5000.0, math.inf]
    for t in thresholds:
        f = ConstraintFilter(coords, t)
        got = f.within(nodes, nodes)
        want = [[f.allows(u, v) for v in nodes] for u in nodes]
        assert got.tolist() == want, t
    # numpy's trigonometry can round a last bit away from math's, so place the
    # threshold at exactly the distance of many pairs
    for u, v in rng.sample([(u, v) for u in range(44) for v in range(44)], 300):
        f = ConstraintFilter(coords, haversine_km(coords[u], coords[v]))
        assert f.within([u], nodes).tolist() == [[f.allows(u, w) for w in nodes]], (u, v)
    assert ConstraintFilter(coords, at_edge).within([40], [41]).tolist() == [[True]]
    assert ConstraintFilter(coords, math.nextafter(at_edge, 0)).within([40], [41]).tolist() == [[False]]
    assert ConstraintFilter(coords, 1.0).within([], nodes).shape == (0, 46)
