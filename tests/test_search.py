"""Greedy search loop: budget split, round accounting, replay exactness."""

import gc
import weakref
from collections import Counter

import pytest

from trussmerge import (ConstraintFilter, Graph, Method, MergerKind, RunConfig, adaptive_search,
                        adaptive_update, gen_er, haversine_km, objective, run_method)
from trussmerge import TrussView, merge_all, search
from trussmerge.candidates import CandidateMerger
from trussmerge.search import MergerPlan, MergerStep, greedy_loop

from conftest import deep_snapshot, gnp_edges, random_graph
from test_decomposition import A_EDGES, assert_carried, graph_a
from test_scale import email_scale_graph  # noqa: F401  (fixture)


def steps_sans_time(plan):
    return [(s.v1, s.v2, s.kind, s.size_after, s.n_io, s.evaluated) for s in plan.steps]


def test_adaptive_update_frozen():
    # step = n_c // b = 1; cap 9, floor 1
    assert adaptive_update(5, MergerKind.IOM, 10, 10) == 6
    assert adaptive_update(5, MergerKind.IIM, 10, 10) == 4
    assert adaptive_update(9, MergerKind.IOM, 10, 10) == 9
    assert adaptive_update(1, MergerKind.IIM, 10, 10) == 1


def test_adaptive_update_never_starves_either_pool(rng):
    # b == 1 never adapts (no rounds remain), so only b >= 2 matters here
    for _ in range(200):
        n_c = rng.randint(2, 40)
        b = rng.randint(2, 20)
        n_io = rng.randint(0, n_c)
        winner = rng.choice([MergerKind.IOM, MergerKind.IIM])
        out = adaptive_update(n_io, winner, n_c, b)
        step = n_c // b
        assert step <= out <= n_c - step
        assert abs(out - min(max(n_io, step), n_c - step)) <= step


def test_bm_with_step_zero_plans_like_eq():
    # b > n_c makes the step n_c // b zero, so BM never moves n_io
    g = gen_er(40, 0.25, 5)
    bm = adaptive_search(g, RunConfig(k=4, b=4, n_c=3, method=Method.BM))
    eq = adaptive_search(g, RunConfig(k=4, b=4, n_c=3, method=Method.EQ))
    assert steps_sans_time(bm) == steps_sans_time(eq)
    assert len(bm.steps) == 4
    assert [s.n_io for s in bm.steps] == [1] * 4


@pytest.mark.parametrize("k,method", [(5, "BM"), (5, "RD"), (10, "BM"), (10, "RD")])
def test_carried_supports_match_recompute_at_scale(email_scale_graph, monkeypatch, k, method):
    views = []
    real = search.build_round_state

    def checked(work, k, carried=None):
        assert (carried is None) == (not views)  # only round 0 computes its view
        state = real(work, k, carried)
        # both carried levels keep their own peel orders of the same shell edges
        assert_carried(state.view, TrussView.compute(work, k))
        views.append(state.view)
        return state

    monkeypatch.setattr(search, "build_round_state", checked)
    plan = run_method(email_scale_graph, RunConfig(k=k, b=3, method=Method(method), seed=1))
    assert len(views) == len(plan.steps) == 3
    assert views[0] is views[1] is views[2]


def test_config_validation():
    RunConfig(k=4).validate()
    with pytest.raises(ValueError):
        RunConfig(k=2).validate()
    with pytest.raises(ValueError):
        RunConfig(k=4, b=0).validate()
    with pytest.raises(ValueError):
        RunConfig(k=4, n_c=0).validate()
    with pytest.raises(ValueError):
        RunConfig(k=4, method="XX")


def test_objective_frozen():
    g = graph_a()
    assert objective(g, 4).size == 11
    assert objective(g, 4, [(0, 6)]).size == 12
    assert objective(g, 5).size == 0
    with pytest.raises(ValueError):
        objective(g, 2)


def test_initial_split_per_method():
    g = graph_a()
    for method, want_n_io in ((Method.BM, 2), (Method.EQ, 2), (Method.II, 0), (Method.IO, 4)):
        plan = adaptive_search(g, RunConfig(k=4, b=1, n_c=4, method=method))
        assert len(plan.steps) == 1
        assert plan.steps[0].n_io == want_n_io
        assert plan.initial_size == 11


def test_frozen_single_round_choices():
    g = graph_a()
    for method in (Method.BM, Method.EQ, Method.II):
        plan = adaptive_search(g, RunConfig(k=4, b=1, n_c=4, method=method))
        s = plan.steps[0]
        assert (s.v1, s.v2, s.kind, s.size_after) == (0, 6, MergerKind.IIM, 12)
    plan = adaptive_search(g, RunConfig(k=4, b=1, n_c=4, method=Method.IO))
    s = plan.steps[0]
    # best inside-outside option keeps the truss flat on this graph
    assert (s.v1, s.v2, s.kind, s.size_after) == (0, 8, MergerKind.IOM, 11)


def test_no_op_guard_stops_early():
    g = graph_a()
    plan = adaptive_search(g, RunConfig(k=5, b=3, n_c=4, allow_no_op=False))
    assert plan.initial_size == 0
    assert plan.steps == ()
    # the pool was non-empty, the loop broke instead of skipping
    assert plan.skipped_rounds == 0
    assert plan.final_size == 0


def test_empty_pool_rounds_are_skipped(monkeypatch):
    calls = []
    real = search.build_round_state
    monkeypatch.setattr(search, "build_round_state", lambda *a: calls.append(a) or real(*a))
    g = Graph.from_edges([e for e in A_EDGES if 8 not in e], nodes=range(8))
    plan = adaptive_search(g, RunConfig(k=4, b=3, n_c=4, method=Method.IO))
    assert plan.steps == ()
    assert plan.skipped_rounds == 3
    assert plan.final_size == plan.initial_size == 11
    # the graph is unchanged after a skip, so the loop stops building rounds
    assert len(calls) == 1


@pytest.mark.parametrize("method", [Method.BM, Method.RD, Method.NT])
def test_greedy_loop_keeps_one_round_state_alive(monkeypatch, method):
    refs = []
    real = search.build_round_state

    def build(*args):
        assert [r() for r in refs] == [None] * len(refs), "a past round's state is still alive"
        state = real(*args)
        refs.append(weakref.ref(state))
        return state

    monkeypatch.setattr(search, "build_round_state", build)
    enabled = gc.isenabled()
    gc.disable()  # a state kept alive by a cycle must fail here every time, not by chance
    try:
        plan = run_method(gen_er(60, 0.2, 3), RunConfig(k=4, b=3, method=method))
    finally:
        if enabled:
            gc.enable()
    assert len(plan.steps) == len(refs) == 3


def test_frozen_adaptation_trace():
    g = gen_er(40, 0.25, 5)
    plan = adaptive_search(g, RunConfig(k=4, b=3, n_c=6, method=Method.BM))
    assert plan.initial_size == 120
    assert [s.size_after for s in plan.steps] == [146, 168, 179]
    assert [s.kind for s in plan.steps] == [MergerKind.IIM] * 3
    # IIM keeps winning, so the inside-outside share shrinks to its floor
    assert [s.n_io for s in plan.steps] == [3, 2, 2]
    assert plan.final_size == 179

    plan_eq = adaptive_search(g, RunConfig(k=4, b=3, n_c=6, method=Method.EQ))
    assert [s.n_io for s in plan_eq.steps] == [3, 3, 3]
    assert [s.size_after for s in plan_eq.steps] == [146, 164, 173]


def test_plan_deterministic():
    g = gen_er(40, 0.25, 5)
    cfg = RunConfig(k=4, b=3, n_c=6, method=Method.BM)
    first = adaptive_search(g, cfg)
    again = adaptive_search(g, cfg)
    assert steps_sans_time(first) == steps_sans_time(again)


def test_replay_matches_measurements(rng):
    done = 0
    while done < 25:
        n = rng.randint(6, 18)
        g = Graph.from_edges(gnp_edges(rng, n, rng.uniform(0.25, 0.5)), nodes=range(n))
        k = rng.randint(3, 5)
        method = rng.choice([Method.BM, Method.EQ, Method.II, Method.IO])
        plan = adaptive_search(g, RunConfig(k=k, b=2, n_c=4, method=method))
        if not plan.steps:
            continue
        pairs = plan.pairs()
        for i, step in enumerate(plan.steps):
            assert objective(g, k, pairs[: i + 1]).size == step.size_after
        assert objective(g, k, pairs).size == plan.final_size
        done += 1


def test_bounded_loop_picks_the_exhaustive_best(rng, monkeypatch):
    """Each round's (pair, kind, size) is the argmin of (-size, v1, v2) over every candidate, exactly evaluated."""
    runs = Counter()
    merged_truss = TrussView._merged_truss

    def counted(self, v1, v2, floor=None):
        runs["evaluations" if self.lower else "lower repairs"] += 1
        return merged_truss(self, v1, v2, floor)

    monkeypatch.setattr(TrussView, "_merged_truss", counted)
    for _ in range(120):
        g = random_graph(rng, rng.randint(3, 16), rng.uniform(0.2, 0.9))
        k = rng.randint(3, 6)
        rounds = []

        def source(cfg, state, r, n_io):
            nodes = state.view.g.nodes()
            if len(nodes) < 2:
                return []
            pairs = [tuple(r.sample(nodes, 2)) for _ in range(r.randint(1, 12))]
            pairs += r.sample(pairs, r.randint(0, len(pairs)))  # repeats, ranked by another kind
            cands = [CandidateMerger(v1, v2, r.choice(list(MergerKind)), 0) for v1, v2 in pairs]
            rounds.append((state.view.g.copy(), cands))
            return cands

        runs["evaluations"] = runs["lower repairs"] = 0
        plan = greedy_loop(g, RunConfig(k=k, b=3, method=Method.RD), source)
        assert runs["evaluations"] == sum(s.evaluated for s in plan.steps)  # the commit reuses the winner's
        # each executed merge repairs the level below once; the last step's is never executed
        assert runs["lower repairs"] == min(len(plan.steps), 2)
        for (h, cands), step in zip(rounds, plan.steps):
            view = TrussView.compute(h, k)
            sizes = [view.truss_size_after_merge(c.v1, c.v2) for c in cands]
            best, size = min(zip(cands, sizes), key=lambda cs: (-cs[1], cs[0].v1, cs[0].v2))
            assert (step.v1, step.v2, step.kind, step.size_after) == (best.v1, best.v2, best.kind, size)
            assert step.evaluated == len(cands)
            runs["ties"] += len({(c.v1, c.v2) for c, s in zip(cands, sizes) if s == size}) > 1
            runs["rounds"] += 1
    assert runs["rounds"] >= 250 and runs["ties"] >= 100, runs


def test_search_does_not_mutate_input():
    # the working copy shares g's neighbor sets, so a merge that edited one in place would show
    g = graph_a()
    before = deep_snapshot(g)
    for method in Method:
        assert run_method(g, RunConfig(k=4, b=2, n_c=4, method=method)).steps, method
        assert deep_snapshot(g) == before, method


@pytest.mark.parametrize("apply", [
    lambda g, pairs: objective(g, 4, pairs),
    lambda g, pairs: merge_all(g, pairs),
    lambda g, pairs: g.merge(*pairs[0]),
], ids=["objective", "merge_all", "Graph.merge"])
def test_merging_callers_do_not_mutate_input(apply):
    g = graph_a()
    before = deep_snapshot(g)
    apply(g, [(0, 6), (1, 2), (0, 3)])
    assert deep_snapshot(g) == before


# a diamond (0, 1, 2, 3 with chord 1-2) and node 4 hanging off 3: at k=4
# merging 4 into 0 makes a K4, no later merge grows it, and each method
# runs out of pairs within a budget of 5
DIAMOND_TAIL = Graph.from_edges([(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)], nodes=range(5))


@pytest.mark.parametrize("method", list(Method))
def test_round_loop_contract_holds_for_every_method(method):
    g, budget = DIAMOND_TAIL, 5
    plan = run_method(g, RunConfig(k=4, b=budget, method=method))
    assert len(plan.steps) + plan.skipped_rounds == budget
    assert plan.skipped_rounds > 0
    # without no-ops the plan is the growing prefix of the same greedy choices
    grows, size = 0, plan.initial_size
    while grows < len(plan.steps) and plan.steps[grows].size_after > size:
        size = plan.steps[grows].size_after
        grows += 1
    strict = run_method(g, RunConfig(k=4, b=budget, method=method, allow_no_op=False))
    assert steps_sans_time(strict) == steps_sans_time(plan)[:grows]
    # node 4 lies about 4450 km from the rest
    coords = {v: (0.0, 0.0) for v in range(4)} | {4: (40.0, 0.0)}
    near = run_method(g, RunConfig(k=4, b=budget, method=method,
                                   filter=ConstraintFilter(coords, 1.0)))
    assert len(near.steps) + near.skipped_rounds == budget
    for s in near.steps:
        assert haversine_km(coords[s.v1], coords[s.v2]) <= 1.0


def test_run_method_dispatch_and_naive_guard():
    g = graph_a()
    plan = run_method(g, RunConfig(k=4, b=1, n_c=4, method=Method.BM))
    assert isinstance(plan, MergerPlan)
    big = gen_er(210, 0.02, 0)
    with pytest.raises(ValueError, match="200"):
        run_method(big, RunConfig(k=3, b=1, method=Method.NAIVE))


def test_plan_helpers():
    empty = MergerPlan(4, 7)
    assert empty.final_size == 7
    assert empty.pairs() == []
    plan = MergerPlan(4, 7, (MergerStep(1, 2, MergerKind.IIM, 9),))
    assert plan.final_size == 9
    assert plan.pairs() == [(1, 2)]
