"""Reference strategies and constructed instances."""

import random

import pytest

from trussmerge import (FixtureSpec, Graph, Method, RunConfig, baseline_ne,
                        baseline_nt, baseline_rd, brute_force_best_merger,
                        gen_er, hardness_fixture, naive_greedy,
                        nonsubmodularity_witness, objective, set_merge_pairs)
from trussmerge.baselines import _rd_candidates
from trussmerge.search import build_round_state

import oracles as orc
from conftest import gnp_edges
from test_decomposition import A_EDGES, graph_a


def sig(plan):
    return [(s.v1, s.v2, s.size_after) for s in plan.steps]


def test_brute_force_frozen():
    g = graph_a()
    assert brute_force_best_merger(g, 4) == ((0, 6), 12)
    assert brute_force_best_merger(g, 5) == ((0, 1), 0)
    assert brute_force_best_merger(g, 4, pairs=[(0, 8), (1, 8)]) == ((0, 8), 11)


def test_brute_force_guards():
    g = graph_a()
    with pytest.raises(ValueError):
        brute_force_best_merger(g, 2)
    with pytest.raises(ValueError):
        brute_force_best_merger(g, 4, pairs=[])
    big = gen_er(210, 0.02, 0)
    with pytest.raises(ValueError, match="200"):
        brute_force_best_merger(big, 4)


def test_brute_force_matches_oracle(rng):
    for _ in range(20):
        n = rng.randint(5, 14)
        edges = gnp_edges(rng, n, rng.uniform(0.3, 0.6))
        g = Graph.from_edges(edges, nodes=range(n))
        k = rng.randint(3, 5)
        assert brute_force_best_merger(g, k) == orc.best_merger_oracle(edges, range(n), k)


def test_naive_greedy_frozen_trace():
    g = graph_a()
    plan = naive_greedy(g, 4, 2)
    assert plan.initial_size == 11
    assert [(s.v1, s.v2, s.size_after) for s in plan.steps] == [(0, 6, 12), (2, 8, 15)]
    # one fewer node each round, all pairs evaluated
    assert [s.evaluated for s in plan.steps] == [36, 28]
    with pytest.raises(ValueError):
        naive_greedy(g, 4, 0)


def test_rd_seeding():
    g = gen_er(40, 0.25, 5)
    cfg = RunConfig(k=4, b=3, n_c=6, method=Method.RD, seed=1)
    assert sig(baseline_rd(g, cfg)) == sig(baseline_rd(g, cfg))
    other = baseline_rd(g, RunConfig(k=4, b=3, n_c=6, method=Method.RD, seed=2))
    assert sig(baseline_rd(g, cfg)) != sig(other)


def test_rd_pool_respects_pruning():
    # node 9 sees {3, 7} inside (no triangle, stays outside), so node 8
    # with only {7} is dominated
    g = Graph.from_edges(A_EDGES + [(9, 3), (9, 7)], nodes=range(10))
    state = build_round_state(g, 4)
    assert state.pruned == {9}
    cfg = RunConfig(k=4, n_c=36, method=Method.RD)
    cands = _rd_candidates(cfg, state, random.Random(0), 0)
    pairs = {(c.v1, c.v2) for c in cands}
    assert len(pairs) == len(cands) == 36  # 28 inside pairs + 8 * 1 outside
    inside = state.partition.inside
    for c in cands:
        assert c.v1 in inside
        assert c.v2 in inside or c.v2 == 9
    assert all(8 not in p for p in pairs)


def test_ne_skips_rounds_without_outside_nodes():
    g = gen_er(40, 0.25, 5)
    plan = baseline_ne(g, RunConfig(k=4, b=3, n_c=6, method=Method.NE))
    assert plan.steps == ()
    assert plan.skipped_rounds == 3
    assert plan.final_size == plan.initial_size == 120


def test_ne_frozen_trace():
    g = gen_er(40, 0.25, 5)
    plan = baseline_ne(g, RunConfig(k=5, b=3, n_c=6, method=Method.NE))
    assert plan.initial_size == 17
    assert sig(plan) == [(27, 1, 27), (2, 26, 27), (32, 19, 92)]
    assert sig(plan) == sig(baseline_ne(g, RunConfig(k=5, b=3, n_c=6, method=Method.NE)))


def test_nt_frozen_trace():
    g = gen_er(40, 0.25, 5)
    cfg = RunConfig(k=4, b=3, n_c=6, method=Method.NT)
    plan = baseline_nt(g, cfg)
    assert plan.initial_size == 120
    assert sig(plan) == [(16, 32, 146), (16, 25, 163), (8, 14, 170)]
    assert sig(plan) == sig(baseline_nt(g, cfg))


def test_nt_gain_ranking_prefers_triangle_rich_pairs():
    # two K4 blocks sharing nothing; merging across blocks gains nothing,
    # merging the two hub nodes 3 and 4 creates 6 new inside triangles
    edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    edges += [(a, b) for a in range(4, 8) for b in range(a + 1, 8)]
    g = Graph.from_edges(edges, nodes=range(8))
    plan = baseline_nt(g, RunConfig(k=4, b=1, n_c=1, method=Method.NT))
    assert len(plan.steps) == 1
    assert plan.steps[0].v2 - plan.steps[0].v1 == 4  # pairs one node per block


def test_fixture_frozen_counts():
    spec = FixtureSpec(sets=(frozenset({1, 2}), frozenset({2, 3}), frozenset({3, 4})),
                       k=4, d=8)
    g = hardness_fixture(spec)
    assert spec.element_count == 4
    assert (g.node_count, g.edge_count) == (71, 384)
    pairs = set_merge_pairs(g, spec, [1, 3])
    assert [tuple(map(g.label, p)) for p in pairs] == [("s1_1", "s1_2"), ("s3_1", "s3_2")]
    assert objective(g, 4, pairs).size == 352


def test_fixture_k3_has_no_anchor_nodes():
    g = hardness_fixture(FixtureSpec(sets=(frozenset({1}),), k=3, d=2))
    labels = sorted(g.label(v) for v in g.nodes())
    assert labels == ["s1_1", "s1_2", "t1_1_1", "t1_1_2", "t1_2_1", "t1_2_2"]


def test_fixture_validation():
    good = FixtureSpec(sets=(frozenset({1}),), k=4, d=2)
    good.validate()
    with pytest.raises(ValueError):
        FixtureSpec(sets=(frozenset({1}),), k=4, d=0).validate()
    with pytest.raises(ValueError):
        FixtureSpec(sets=(frozenset({1}),), k=2, d=2).validate()
    with pytest.raises(ValueError):
        FixtureSpec(sets=(frozenset({1}),), k=4, d=2, r_count=-1).validate()
    with pytest.raises(ValueError):
        FixtureSpec(sets=(frozenset({0}),), k=4, d=2).validate()


def test_witness_marginal_gains_increase():
    g, x_set, y_set, x = nonsubmodularity_witness(4)
    assert set(x_set) < set(y_set)
    assert x not in y_set
    f = lambda pairs: objective(g, 5, list(pairs)).size
    assert (f(x_set), f(list(x_set) + [x])) == (0, 0)
    assert (f(y_set), f(list(y_set) + [x])) == (36, 72)


def test_witness_below_minimal_d_degenerates():
    g, x_set, y_set, x = nonsubmodularity_witness(3)
    f = lambda pairs: objective(g, 5, list(pairs)).size
    assert f(list(y_set) + [x]) == 0
