"""Candidate scoring: Z sets, helped shell edges, pair rankings."""

import math
import random

import pytest

from trussmerge import (CandidateMerger, ConstraintFilter, Graph, MergerKind,
                        ParseError, find_iim_candidates, find_iom_candidates,
                        haversine_km, iim_score, incident_prospects,
                        load_coordinates, new_inside_neighbors, partition_nodes,
                        phse, top_inside_nodes, top_outside_nodes,
                        truss_decompose)

from trussmerge.search import build_round_state

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
    g = graph_b()
    d = truss_decompose(g)
    return g, d, partition_nodes(g, d, 4)


def test_frozen_partition_b():
    g, d, p = ctx_b()
    assert p.outside == {9}
    assert p.inside == set(range(12)) - {9}


def test_frozen_z_set():
    g, d, p = ctx_b()
    assert new_inside_neighbors(g, d, p, 4, 0, 9) == {3}


def test_frozen_phse():
    g, d, p = ctx_b()
    assert phse(g, d, p, 4, 0, 9) == {(0, 2), (0, 7)}


def test_phse_matches_definition_oracle(rng):
    done = 0
    while done < 40:
        n = rng.randint(6, 20)
        g = Graph.from_edges(gnp_edges(rng, n, rng.uniform(0.2, 0.5)), nodes=range(n))
        k = rng.randint(3, 5)
        d = truss_decompose(g)
        p = partition_nodes(g, d, k)
        candidates = [(vi, vo) for vo in sorted(p.outside)
                      if p.inside_neighbors[vo] for vi in sorted(p.inside)]
        if not candidates:
            continue
        v1, v2 = rng.choice(candidates)
        got = phse(g, d, p, k, v1, v2)
        want = orc.phse_oracle(g.edge_set(), g.nodes(), k, v1, v2)
        assert got == want, (sorted(g.edge_set()), k, v1, v2)
        done += 1


def test_scoring_context_tables_match_sets(rng):
    # masks and ranking are read back against the view and the decomposition
    done = 0
    while done < 30:
        n = rng.randint(6, 24)
        g = Graph.from_edges(gnp_edges(rng, n, rng.uniform(0.2, 0.5)), nodes=range(n))
        k = rng.randint(3, 5)
        ctx = build_round_state(g, k)
        p, view = ctx.partition, ctx.view
        if not p.inside:
            continue
        assert set(ctx.bit) == set(ctx.tk) == set(ctx.sh) == p.inside
        assert set(ctx.nb) == set(g.nodes())
        for v in g.nodes():
            assert ctx.nodes(ctx.nb[v]) == p.inside_neighbors[v]
        for v in p.inside:
            tk = view.tk_adj.get(v, set())
            assert ctx.nodes(ctx.tk[v]) == tk
            assert ctx.nodes(ctx.sh[v]) == view.adj_km1[v] - tk
        d = truss_decompose(g)
        want = sorted(p.inside, key=lambda v: (-len(incident_prospects(p, d, g, k, v)), v))
        assert ctx.ranking == want
        done += 1


def test_frozen_iim_scores():
    g, d, p = ctx_b()
    assert iim_score(g, d, p, 4, 0, 1) == 1
    assert iim_score(g, d, p, 4, 0, 2) == 0
    assert iim_score(g, d, p, 4, 0, 3) == 0
    assert iim_score(g, d, p, 4, 0, 4) == 2


def test_iim_score_matches_oracle(rng):
    done = 0
    while done < 40:
        n = rng.randint(6, 20)
        g = Graph.from_edges(gnp_edges(rng, n, rng.uniform(0.25, 0.55)), nodes=range(n))
        k = rng.randint(3, 5)
        d = truss_decompose(g)
        p = partition_nodes(g, d, k)
        if len(p.inside) < 2:
            continue
        v1, v2 = rng.sample(sorted(p.inside), 2)
        got = iim_score(g, d, p, k, min(v1, v2), max(v1, v2))
        want = orc.iim_score_oracle(g.edge_set(), k, min(v1, v2), max(v1, v2))
        assert got == want, (sorted(g.edge_set()), k, v1, v2)
        done += 1


def test_iim_score_validations():
    g, d, p = ctx_b()
    with pytest.raises(ValueError):
        iim_score(g, d, p, 4, 0, 0)
    with pytest.raises(ValueError):
        iim_score(g, d, p, 4, 0, 9)  # 9 is outside


def test_frozen_incident_prospects():
    g = graph_a()
    d = truss_decompose(g)
    p = partition_nodes(g, d, 4)
    ids = {g.label(v): v for v in g.nodes()}
    assert incident_prospects(p, d, g, 4, ids["5"]) == {ids["6"], ids["7"]}
    assert incident_prospects(p, d, g, 4, ids["0"]) == set()
    with pytest.raises(ValueError):
        incident_prospects(p, d, g, 4, ids["8"])


def test_frozen_top_nodes():
    g = graph_a()
    d = truss_decompose(g)
    p = partition_nodes(g, d, 4)
    lab = g.label
    assert [lab(v) for v in top_inside_nodes(p, d, g, 4, 5)] == ["5", "6", "7", "0", "1"]
    assert [lab(v) for v in top_outside_nodes({g.node_of("8")}, p.inside_neighbors, 3)] == ["8"]


def test_frozen_iom_ranking():
    g = graph_a()
    d = truss_decompose(g)
    p = partition_nodes(g, d, 4)
    cands = find_iom_candidates(g, d, p, 4, n_i=10, n_o=10, n_c=4)
    named = [(g.label(c.v1), g.label(c.v2), c.score, c.tiebreak) for c in cands]
    # 2, 3 and 4 can route shell edge (5,7) a new triangle through node 7;
    # from 0 the new neighbor 7 touches nothing reachable, so it scores 0
    assert named == [("2", "8", 1, 1), ("3", "8", 1, 1), ("4", "8", 1, 1),
                     ("0", "8", 0, 1)]
    assert all(c.kind is MergerKind.IOM for c in cands)


def test_finders_need_tables():
    g, d, p = ctx_b()
    with pytest.raises(ValueError):
        find_iom_candidates(g, None, p, 4, 5, 5, 5)
    with pytest.raises(ValueError):
        find_iim_candidates(g, None, p, 4, 5, 5)


def test_finders_deterministic_and_capped():
    g, d, p = ctx_b()
    a = find_iim_candidates(g, d, p, 4, n_i=8, n_c=5)
    b = find_iim_candidates(g, d, p, 4, n_i=8, n_c=5)
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
    d = truss_decompose(g)
    p = partition_nodes(g, d, 4)
    coords = {v: (0.0, 0.0) for v in g.nodes()}
    coords[g.node_of("0")] = (40.0, 0.0)  # push node 0 out of range
    cands = find_iom_candidates(g, d, p, 4, 10, 10, 3,
                                ConstraintFilter(coords, 100.0))
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
        d = truss_decompose(g)
        p = partition_nodes(g, d, k)
        if len(p.inside) < 2:
            continue
        edges = g.edge_set()
        iim = find_iim_candidates(g, d, p, k, n_i=n, n_c=n * n)
        assert len(iim) == len(p.inside) * (len(p.inside) - 1) // 2
        for c in rng.sample(iim, min(25, len(iim))):
            assert c.score == orc.iim_score_oracle(edges, k, c.v1, c.v2), (sorted(edges), k, c)
        iom = find_iom_candidates(g, d, p, k, n_i=n, n_o=n, n_c=n * n)
        for c in rng.sample(iom, min(25, len(iom))):
            assert c.score == len(orc.phse_oracle(edges, g.nodes(), k, c.v1, c.v2)), \
                (sorted(edges), k, c)
            assert c.tiebreak == len(orc.z_set_oracle(edges, k, c.v1, c.v2)), (sorted(edges), k, c)
        done += 1
