"""Frozen plans on an email-scale graph.

The other frozen traces use 9- to 60-node graphs. This pins the BM, EQ,
NE, NT and RD plans on a ~1k-node, ~15k-edge graph, where candidate
pools are full and scoring shortcuts get exercised at realistic sizes.
"""

import random

import pytest

from trussmerge import Graph, Method, RunConfig, gen_hk, run_method

# powerlaw-cluster backbone plus planted (size, edge probability) communities
COMMUNITIES = ((45, 0.8), (35, 0.85), (30, 0.9))

# (k, method) -> (initial size, [(v1, v2, size after)]) with b=2, seed 1
FROZEN_PLANS = {
    (5, "BM"): (6250, [(2, 37, 6659), (2, 71, 7104)]),
    (5, "EQ"): (6250, [(2, 37, 6659), (2, 71, 7104)]),
    (5, "NE"): (6250, [(98, 802, 6292), (98, 650, 6338)]),
    (5, "NT"): (6250, [(2, 37, 6659), (2, 71, 7104)]),
    (5, "RD"): (6250, [(35, 47, 6371), (123, 339, 6410)]),
    (10, "BM"): (1714, [(32, 667, 1815), (12, 25, 1858)]),
    (10, "EQ"): (1714, [(32, 667, 1815), (12, 25, 1858)]),
    (10, "NE"): (1714, [(11, 33, 1790), (1, 3, 1875)]),
    (10, "NT"): (1714, [(104, 3, 1795), (41, 33, 1841)]),
    (10, "RD"): (1714, [(15, 196, 1727), (26, 37, 1813)]),
}


@pytest.fixture(scope="module")
def email_scale_graph() -> Graph:
    n = 986
    edges = set(gen_hk(n, 14, 0.6, 1).edges())
    rng = random.Random(1)
    for size, p in COMMUNITIES:
        group = rng.sample(range(n), size)
        for i in range(size):
            for j in range(i + 1, size):
                if rng.random() < p:
                    a, b = group[i], group[j]
                    edges.add((min(a, b), max(a, b)))
    return Graph.from_edges(sorted(edges), nodes=range(n))


def test_email_scale_graph_shape(email_scale_graph):
    assert email_scale_graph.node_count == 986
    assert email_scale_graph.edge_count == 15144


@pytest.mark.parametrize("k,method", sorted(FROZEN_PLANS))
def test_frozen_plan_at_scale(email_scale_graph, k, method):
    plan = run_method(email_scale_graph, RunConfig(k=k, b=2, method=Method(method), seed=1))
    initial, steps = FROZEN_PLANS[(k, method)]
    assert plan.initial_size == initial
    assert [(s.v1, s.v2, s.size_after) for s in plan.steps] == steps
    assert plan.skipped_rounds == 0
