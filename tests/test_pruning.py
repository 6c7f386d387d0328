"""Inside/outside partition and maximal-neighborhood pruning."""

import random
from itertools import combinations

from hypothesis import given, settings, strategies as st

from trussmerge import (Graph, gen_er, gen_hk, partition_nodes, prune_outside_maximal,
                        truss_decompose)
from trussmerge.search import build_round_state

import oracles as orc
from test_decomposition import graph_a


def test_partition_on_frozen_graph():
    g = graph_a()
    p = partition_nodes(g, truss_decompose(g), 4)
    assert {g.label(v) for v in p.inside} == {"0", "1", "2", "3", "4", "5", "6", "7"}
    assert {g.label(v) for v in p.outside} == {"8"}
    v8 = g.node_of("8")
    assert p.inside_neighbors[v8] == {g.node_of("7")}
    v5 = g.node_of("5")
    assert p.inside_neighbors[v5] == g.neighbors(v5)  # all of 5's neighbors are inside


def test_prune_drops_dominated_and_empty():
    nbrs = {
        10: {1, 2},
        11: {1, 2, 3},   # dominates 10
        12: set(),       # useless for mergers
        13: {4},
        14: {1, 2, 3},   # duplicate of 11, higher id
    }
    kept = prune_outside_maximal(set(nbrs), nbrs)
    assert kept == {11, 13}


def test_prune_matches_containment_oracle(rng):
    for _ in range(60):
        n_sets = rng.randint(1, 30)
        universe = rng.randint(1, 12)
        nbrs = {i: {e for e in range(universe) if rng.random() < 0.4}
                for i in range(n_sets)}
        kept = prune_outside_maximal(set(nbrs), nbrs)
        want = orc.maximal_sets_oracle({i: frozenset(s) for i, s in nbrs.items()})
        assert kept == want


def test_prune_scales_past_native_word_width(rng):
    # more than 64 candidate sets exercises the wide bit masks
    nbrs = {i: {i // 2, i // 3, 200} for i in range(90)}
    kept = prune_outside_maximal(set(nbrs), nbrs)
    want = orc.maximal_sets_oracle({i: frozenset(s) for i, s in nbrs.items()})
    assert kept == want


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_prune_output_is_a_maximal_antichain(seed):
    rng = random.Random(seed)
    nbrs = {i: {e for e in range(10) if rng.random() < 0.35}
            for i in range(rng.randint(1, 25))}
    kept = prune_outside_maximal(set(nbrs), nbrs)
    assert kept <= set(nbrs)
    for v in kept:
        assert nbrs[v], "kept nodes must have inside neighbors"
    for u, v in combinations(sorted(kept), 2):
        assert not (nbrs[u] <= nbrs[v] or nbrs[v] <= nbrs[u])
    # every dropped nonempty set is covered by some kept set
    for v, s in nbrs.items():
        if v in kept or not s:
            continue
        assert any(s <= nbrs[u] for u in kept)


def test_prune_on_partition(rng):
    for _ in range(20):
        g = Graph.from_edges(
            {(u, v) for u, v in combinations(range(14), 2) if rng.random() < 0.3},
            nodes=range(14))
        d = truss_decompose(g)
        p = partition_nodes(g, d, 4)
        kept = prune_outside_maximal(p.outside, p.inside_neighbors)
        want = orc.maximal_sets_oracle(
            {v: frozenset(p.inside_neighbors[v]) for v in p.outside})
        assert kept == want


def test_partition_inside_matches_round_state():
    # node trussness is 2 for a node with no edge, yet such a node is not in the (k-1)-truss
    cases = [Graph.from_edges([(0, 1), (1, 2), (0, 2)], nodes=range(6)),
             gen_er(40, 0.15, 3), gen_er(30, 0.08, 5), gen_hk(50, 3, 0.6, 2)]
    for g in cases:
        d = truss_decompose(g)
        for k in range(3, 7):
            assert partition_nodes(g, d, k).inside == build_round_state(g, k).partition.inside
