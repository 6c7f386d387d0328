"""Graph metrics, their oracles, and the merge-vs-metric study helpers."""

import math
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

import trussmerge
from trussmerge import (Graph, MetricId, METRIC_DIRECTION, average_distance,
                        avg_edge_betweenness, avg_local_clustering,
                        avg_vertex_betweenness, betweenness_profile,
                        compute_metrics, correlation_study,
                        effective_resistance_total, evaluate_metric, gen_er,
                        gen_hk, gen_ws, greedy_improve, is_connected,
                        natural_connectivity, pearson_r, spectral_gap,
                        transitivity)

from trussmerge import metrics
from trussmerge.metrics import (MATRIX_FUNCS, METRIC_FUNCS, _adjacency_matrix,
                                _spectral_bounds, best_candidate, candidate_matrices,
                                candidate_scores)

import oracles as orc
from conftest import gnp_edges


def kite() -> Graph:
    return Graph.from_edges([(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)])


def test_frozen_kite_metrics():
    g = kite()
    assert avg_vertex_betweenness(g) == 1.0
    assert avg_edge_betweenness(g) == 2.5
    assert effective_resistance_total(g) == pytest.approx(10.25)
    assert spectral_gap(g) == pytest.approx(1.9174443535723666)
    assert natural_connectivity(g) == pytest.approx(1.2345396227224525)
    assert average_distance(g) == pytest.approx(1.5)
    assert transitivity(g) == pytest.approx(0.6)  # 2 triangles over 10 open wedges
    assert avg_local_clustering(g) == pytest.approx(8 / 15)


def test_frozen_small_graph_metrics():
    p3 = Graph.from_edges([(0, 1), (1, 2)])
    assert effective_resistance_total(p3) == pytest.approx(4.0)
    k4 = Graph.from_edges([(a, b) for a in range(4) for b in range(a + 1, 4)])
    assert spectral_gap(k4) == pytest.approx(4.0)
    k3 = Graph.from_edges([(0, 1), (0, 2), (1, 2)])
    assert natural_connectivity(k3) == pytest.approx(0.9963106677528506)


def test_betweenness_matches_enumeration_oracle(rng):
    for _ in range(15):
        n = rng.randint(4, 14)
        edges = gnp_edges(rng, n, rng.uniform(0.25, 0.6))
        g = Graph.from_edges(edges, nodes=range(n))
        nb, eb = orc.betweenness_oracle(range(n), edges)
        want_vb = sum(nb.values()) / n
        want_eb = sum(eb.values()) / len(edges) if edges else 0.0
        assert avg_vertex_betweenness(g) == pytest.approx(want_vb)
        assert avg_edge_betweenness(g) == pytest.approx(want_eb)


def _nx_graph(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(g.nodes())
    h.add_edges_from(g.edges())
    return h


def _profile_cases(rng):
    yield Graph(), None
    yield Graph.from_edges([], nodes=[0]), None
    yield Graph.from_edges([], nodes=[0, 1]), None
    yield Graph.from_edges([(0, 1)]), None
    yield Graph.from_edges([], nodes=range(5)), [1, 3]
    # two components plus isolated nodes
    yield Graph.from_edges([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)], nodes=range(8)), None
    for _ in range(12):
        n = rng.randint(3, 16)
        g = Graph.from_edges(gnp_edges(rng, n, rng.uniform(0.05, 0.5)), nodes=range(n))
        yield g, None
        yield g, sorted(rng.sample(range(n), rng.randint(1, n)))


def test_betweenness_profile_matches_networkx(rng):
    for g, sources in _profile_cases(rng):
        h = _nx_graph(g)
        if sources is None:
            nb = nx.betweenness_centrality(h, normalized=False)
            eb = nx.edge_betweenness_centrality(h, normalized=False)
        else:
            nodes = list(h)
            nb = nx.betweenness_centrality_subset(h, sources, nodes, normalized=False)
            eb = nx.edge_betweenness_centrality_subset(h, sources, nodes, normalized=False)
        n, m = g.node_count, g.edge_count
        want = (sum(nb.values()) / n if n else 0.0, sum(eb.values()) / m if m else 0.0)
        assert betweenness_profile(g, sources) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_distance_measures_match_networkx(rng):
    for g, _ in _profile_cases(rng):
        h = _nx_graph(g)
        lengths = [d for _, ds in nx.all_pairs_shortest_path_length(h) for d in ds.values() if d]
        want_ad = sum(lengths) / len(lengths) if lengths else 0.0
        assert average_distance(g) == pytest.approx(want_ad, rel=1e-12)
        assert transitivity(g) == pytest.approx(nx.transitivity(h), rel=1e-12)
        want_lc = nx.average_clustering(h) if g.node_count else 0.0
        assert avg_local_clustering(g) == pytest.approx(want_lc, rel=1e-12)
        assert is_connected(g) == (g.node_count <= 1 or nx.is_connected(h))


def _edited_graph(g: Graph, op: str, u: int, v: int) -> Graph:
    if op == "merge":
        return g.merge(u, v)
    h = g.copy()
    h._add_edge(u, v)
    return h


@pytest.mark.parametrize("op", ["merge", "add_edge"])
@pytest.mark.parametrize("n, p, seed", [(9, 0.35, 1), (10, 0.2, 4)])
def test_candidate_matrices_match_graph_edits(op, n, p, seed):
    g = gen_er(n, p, seed)
    nodes = g.nodes()
    seen, a = [], _adjacency_matrix(g)
    for i, j, b in candidate_matrices(a, op):
        u, v = nodes[i], nodes[j]
        seen.append((u, v))
        h = _edited_graph(g, op, u, v)
        assert np.array_equal(b, _adjacency_matrix(h))
        if op == "merge":  # the survivor indexed above the removed node
            assert np.array_equal(metrics._edited(a, "merge", j, i), _adjacency_matrix(g.merge(v, u)))
        for m in MetricId:
            try:
                want = METRIC_FUNCS[m](h)
            except ValueError:
                with pytest.raises(ValueError):
                    MATRIX_FUNCS[m](b)
                continue
            assert MATRIX_FUNCS[m](b) == pytest.approx(want, rel=1e-12, abs=1e-12)
    pairs = list(combinations(nodes, 2))
    if op == "add_edge":
        pairs = [(u, v) for u, v in pairs if not g.has_edge(u, v)]
    assert seen == pairs


def test_greedy_exact_ties_go_to_first_pair():
    # C6 is vertex-transitive, so every best edit has tied rotations; the spectra
    # of rotated matrices may differ in the last bits, so SG and NC ties are near ties
    c6 = Graph.from_edges([(i, (i + 1) % 6) for i in range(6)])
    cases = [(MetricId.VB, "add_edge"), (MetricId.EB, "merge"), (MetricId.AD, "merge")]
    cases += [(m, op) for m in (MetricId.SG, MetricId.NC) for op in ("merge", "add_edge")]
    for metric, op in cases:
        sign = METRIC_DIRECTION[metric]
        values = {}
        for u, v in combinations(c6.nodes(), 2):
            if op == "merge" or not c6.has_edge(u, v):
                values[(u, v)] = METRIC_FUNCS[metric](_edited_graph(c6, op, u, v))
        best = max(values.values(), key=lambda x: sign * x)
        tied = [pair for pair, val in values.items() if val == best]
        near = [pair for pair, val in values.items() if abs(val - best) <= 1e-12 * abs(best)]
        assert len(near) >= 2 and (len(tied) >= 2 or metric in (MetricId.SG, MetricId.NC))
        trace = greedy_improve(c6, metric, op, 1)
        assert trace.rows[1].operation == "{}({},{})".format(op, *tied[0])
        assert trace.rows[1].values[metric.value] == best


def _scoring_cases() -> list[Graph]:
    path = [(0, 1), (1, 2)]
    cases = [Graph.from_edges([], nodes=range(n)) for n in range(4)]
    cases += [Graph.from_edges([(0, 1)]), Graph.from_edges(path),
              Graph.from_edges(path + [(0, 2)]), Graph.from_edges([(0, 1)], nodes=range(3)),
              Graph.from_edges(list(combinations(range(6), 2))),
              Graph.from_edges(path + [(2, 3), (3, 0)], nodes=range(7)),
              Graph.from_edges(path + [(0, 2), (3, 4), (4, 5), (5, 6), (6, 3)]),
              Graph.from_edges([(0, 1), (2, 3)])]
    cases += [gen_er(n, p, seed) for n, p, seed in
              [(8, 0.5, 1), (9, 0.3, 2), (10, 0.2, 3), (11, 0.4, 4), (12, 0.15, 5), (12, 0.6, 6),
               (13, 0.25, 7), (14, 0.1, 8), (15, 0.3, 9), (16, 0.2, 10), (18, 0.12, 11),
               (20, 0.2, 12)]]
    return cases


@pytest.mark.parametrize("op", ["merge", "add_edge"])
@pytest.mark.parametrize("metric", list(MetricId))
def test_candidate_scores_match_candidate_matrices(metric, op):
    for g in _scoring_cases():
        a = _adjacency_matrix(g)
        want = []
        for i, j, b in candidate_matrices(a, op):
            try:
                want.append((i, j, MATRIX_FUNCS[metric](b)))
            except ValueError:
                continue
        got = list(candidate_scores(a, metric, op))
        assert [(i, j) for i, j, _ in got] == [(i, j) for i, j, _ in want]
        values = [v for _, _, v in got]
        if metric is MetricId.ER and op == "add_edge":
            # Sherman-Morrison against a fresh spectrum; VB/EB/AD are exact integers
            assert values == pytest.approx([v for _, _, v in want], rel=1e-9, abs=1e-12)
        else:
            assert values == [v for _, _, v in want]


BOUNDED = [(MetricId.SG, "merge"), (MetricId.SG, "add_edge"), (MetricId.NC, "add_edge")]


def _spectral_cases() -> list[Graph]:
    """``_scoring_cases`` plus larger, disconnected and repeated-eigenvalue graphs."""
    two_k4 = [(u + s, v + s) for s in (0, 4) for u, v in combinations(range(4), 2)]
    # ER(50, 0.1) seeds 100 and 103 give SG merge rounds with 37 and 103 exact scorings
    return _scoring_cases() + [gen_er(50, 0.1, 1), gen_er(50, 0.1, 100), gen_er(50, 0.1, 103),
                               gen_er(30, 0.04, 2), gen_ws(30, 4, 0.2, 3),
                               gen_hk(40, 2, 0.5, 4), Graph.from_edges(two_k4),
                               Graph.from_edges([(i, (i + 1) % 5) for i in range(5)] +
                                                [(i + 5, (i + 1) % 5 + 5) for i in range(5)])]


@pytest.mark.parametrize("metric, op, steps", [
    pytest.param(metric, op, steps, id=f"{metric.value}-{op}{suffix}") for metric, op in BOUNDED
    for steps, suffix in ((None, ""), (4, "-coarse"))])
def test_spectral_bounds_hold_for_every_candidate(monkeypatch, metric, op, steps):
    if steps is not None:  # fewer bisection steps leave a looser bound, which must still hold
        monkeypatch.setattr(metrics, "_STEPS", steps)
    for g in _spectral_cases():
        a = _adjacency_matrix(g)
        if len(a) < 3:
            continue  # best_candidate scans these directly
        ii, jj, ub = _spectral_bounds(a, metric, op)
        exact = list(candidate_scores(a, metric, op))
        assert list(zip(ii.tolist(), jj.tolist())) == [(i, j) for i, j, _ in exact]
        for (_, _, val), bound in zip(exact, ub.tolist()):
            assert not bound < val - 1e-12 * (1.0 + abs(val))


def test_sg_merge_bound_takes_out_the_removed_node(monkeypatch):
    # bounding lambda1 through A + e_i d' + d e_i', which keeps j's edges, left 103 of
    # these 1225 merges to score exactly; the merged matrix's own lambda1 leaves 9
    a = _adjacency_matrix(gen_er(50, 0.1, 103))
    want = max(candidate_scores(a, MetricId.SG, "merge"), key=lambda c: c[2])
    scored = []
    monkeypatch.setitem(MATRIX_FUNCS, MetricId.SG, lambda b: scored.append(b) or metrics._gap(np.linalg.eigvalsh(b)))
    assert best_candidate(a, MetricId.SG, "merge") == want
    assert len(scored) <= 10


def test_sg_addition_bound_scores_few_edits(monkeypatch):
    # 9 of these 1107 absent edges get scored exactly
    a = _adjacency_matrix(gen_er(50, 0.1, 103))
    want = max(candidate_scores(a, MetricId.SG, "add_edge"), key=lambda c: c[2])
    scored = []
    monkeypatch.setitem(MATRIX_FUNCS, MetricId.SG, lambda b: scored.append(b) or metrics._gap(np.linalg.eigvalsh(b)))
    assert best_candidate(a, MetricId.SG, "add_edge") == want
    assert len(scored) <= 10


def _first_best(a: np.ndarray, metric: MetricId, op: str):
    sign, want = METRIC_DIRECTION[metric], None
    for i, j, val in candidate_scores(a, metric, op):
        if want is None or sign * val > sign * want[2]:
            want = (i, j, val)
    return want


@pytest.mark.parametrize("metric, op", [(m, op) for m in (MetricId.VB, MetricId.EB, MetricId.AD)
                                        for op in ("merge", "add_edge")] + [(MetricId.ER, "add_edge")])
def test_closed_forms_never_score_an_edited_matrix(monkeypatch, metric, op):
    # connected, as ER additions need for their closed form
    matrices = [_adjacency_matrix(g) for g in _scoring_cases() + [gen_er(50, 0.1, 103)] if is_connected(g)]
    wants = [_first_best(a, metric, op) for a in matrices]

    def refuse(b):
        raise AssertionError("scored an edited matrix")

    for m in MetricId:
        monkeypatch.setitem(MATRIX_FUNCS, m, refuse)
    assert [best_candidate(a, metric, op) for a in matrices] == wants


@pytest.mark.parametrize("op", ["merge", "add_edge"])
@pytest.mark.parametrize("metric", list(MetricId))
def test_best_candidate_is_the_first_best_score(metric, op):
    spectral = metric in (MetricId.SG, MetricId.NC)
    for g in _spectral_cases() if spectral else _scoring_cases():
        a = _adjacency_matrix(g)
        assert best_candidate(a, metric, op) == _first_best(a, metric, op)


def test_best_candidate_on_degenerate_graphs():
    k6 = _adjacency_matrix(Graph.from_edges(list(combinations(range(6), 2))))
    for metric in (MetricId.SG, MetricId.NC):
        assert best_candidate(k6, metric, "add_edge") is None
        for op in ("merge", "add_edge"):
            assert best_candidate(np.zeros((0, 0)), metric, op) is None
            assert best_candidate(np.zeros((1, 1)), metric, op) is None
            # every edit of an edgeless graph scores the same, so the first pair wins
            for n in (2, 3, 5):
                assert best_candidate(np.zeros((n, n)), metric, op)[:2] == (0, 1)


@pytest.mark.parametrize("metric, op", BOUNDED)
@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_non_finite_bounds_are_scored(monkeypatch, metric, op, bad):
    a = _adjacency_matrix(gen_er(20, 0.2, 7))
    want = max(candidate_scores(a, metric, op), key=lambda c: c[2])

    def spoiled(a, metric, op):
        ii, jj, ub = _spectral_bounds(a, metric, op)
        ub = ub.copy()
        ub[(ii == want[0]) & (jj == want[1])] = bad
        ub[::5] = -np.inf
        return ii, jj, ub

    monkeypatch.setattr(metrics, "_spectral_bounds", spoiled)
    assert best_candidate(a, metric, op) == want


def test_effective_resistance_matches_pinv_oracle(rng):
    done = 0
    while done < 12:
        n = rng.randint(4, 12)
        edges = gnp_edges(rng, n, rng.uniform(0.4, 0.7))
        g = Graph.from_edges(edges, nodes=range(n))
        if not is_connected(g):
            continue
        want = orc.effective_resistance_oracle(range(n), edges)
        assert effective_resistance_total(g) == pytest.approx(want)
        done += 1


def test_effective_resistance_needs_connectivity():
    g = Graph.from_edges([(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="connected"):
        effective_resistance_total(g)
    assert compute_metrics(g)[MetricId.ER] is None
    assert compute_metrics(g)[MetricId.TS] is not None


def test_natural_connectivity_matches_oracle(rng):
    for _ in range(12):
        n = rng.randint(3, 12)
        edges = gnp_edges(rng, n, rng.uniform(0.2, 0.6))
        g = Graph.from_edges(edges, nodes=range(n))
        want = orc.natural_connectivity_oracle(range(n), edges)
        assert natural_connectivity(g) == pytest.approx(want)


def test_natural_connectivity_grows_with_edges(rng):
    for _ in range(10):
        n = rng.randint(4, 10)
        edges = sorted(gnp_edges(rng, n, 0.4))
        missing = [(a, b) for a in range(n) for b in range(a + 1, n)
                   if (a, b) not in set(edges)]
        if not missing:
            continue
        g = Graph.from_edges(edges, nodes=range(n))
        extra = Graph.from_edges(edges + [rng.choice(missing)], nodes=range(n))
        assert natural_connectivity(extra) > natural_connectivity(g)


def test_transitivity_counts_triangles(rng):
    for _ in range(10):
        n = rng.randint(4, 12)
        edges = gnp_edges(rng, n, 0.5)
        g = Graph.from_edges(edges, nodes=range(n))
        open_paths = sum(g.degree(v) * (g.degree(v) - 1) // 2 for v in g.nodes())
        closed = 3 * orc.triangle_count_oracle(set(edges))
        want = closed / open_paths if open_paths else 0.0
        assert transitivity(g) == pytest.approx(want)


def test_source_subsampling_is_seeded():
    g = gen_er(40, 0.15, 2)
    a = betweenness_profile(g, sources=_sample(g, 8, seed=5))
    b = betweenness_profile(g, sources=_sample(g, 8, seed=5))
    assert a == b
    assert avg_vertex_betweenness(g, sources=8, seed=5) == a[0]
    assert avg_edge_betweenness(g, sources=8, seed=5) == a[1]
    # sampling every source degenerates to the exact profile
    assert avg_vertex_betweenness(g, sources=40, seed=1) == pytest.approx(
        avg_vertex_betweenness(g))


def _sample(g, count, seed):
    return sorted(random.Random(seed).sample(sorted(g.adj), count))


def test_degenerate_graphs():
    single = Graph.from_edges([], nodes=[0])
    assert avg_vertex_betweenness(single) == 0.0
    assert avg_edge_betweenness(single) == 0.0
    assert spectral_gap(single) == 0.0
    assert average_distance(single) == 0.0
    assert transitivity(single) == 0.0
    assert avg_local_clustering(single) == 0.0
    assert natural_connectivity(Graph()) == 0.0


def test_pearson_edge_cases():
    assert pearson_r([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
    assert pearson_r([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0)
    assert pearson_r([1.0], [2.0]) is None
    assert pearson_r([1, 1, 1], [2, 3, 4]) is None
    with pytest.raises(ValueError):
        pearson_r([1, 2], [1, 2, 3])


def test_generators_are_seeded():
    g = gen_er(30, 0.2, 7)
    assert (g.node_count, g.edge_count) == (30, 102)
    assert sorted(g.edge_set()) == sorted(gen_er(30, 0.2, 7).edge_set())
    w = gen_ws(30, 4, 0.2, 7)
    assert (w.node_count, w.edge_count) == (30, 60)
    assert sorted(w.edge_set()) == sorted(gen_ws(30, 4, 0.2, 7).edge_set())
    h = gen_hk(30, 3, 0.2, 7)
    assert (h.node_count, h.edge_count) == (30, 81)
    assert sorted(h.edge_set()) == sorted(gen_hk(30, 3, 0.2, 7).edge_set())
    assert sorted(gen_er(30, 0.2, 8).edge_set()) != sorted(g.edge_set())


@pytest.mark.parametrize("n", [0, 1, 2, 9, 50])
@pytest.mark.parametrize("p", [0.0, 0.04, 0.1, 0.5, 0.97, 1.0])
def test_gen_er_draws_the_networkx_graph(n, p):
    for seed in (0, 1, 7, 12345):
        g = gen_er(n, p, seed)
        h = nx.gnp_random_graph(n, p, seed=seed)
        assert g.node_count == n and [g.label(v) for v in g.nodes()] == [str(v) for v in range(n)]
        assert g.edge_set() == {tuple(sorted(e)) for e in h.edges()}


def test_metric_directions_cover_all_metrics():
    assert set(METRIC_DIRECTION) == set(MetricId)
    for m in (MetricId.VB, MetricId.EB, MetricId.ER, MetricId.AD):
        assert METRIC_DIRECTION[m] == -1
    for m in (MetricId.SG, MetricId.NC, MetricId.TS, MetricId.LC):
        assert METRIC_DIRECTION[m] == 1


def test_evaluate_metric_dispatch():
    g = kite()
    assert evaluate_metric(g, MetricId.AD) == pytest.approx(1.5)
    assert evaluate_metric(g, MetricId.TS) == pytest.approx(0.6)


def test_greedy_improve_rows():
    g = gen_er(30, 0.25, 3)
    trace = greedy_improve(g, MetricId.NC, "add_edge", 2)
    assert len(trace.rows) == 3
    assert trace.rows[0].operation == "baseline"
    assert all(r.operation.startswith("add_edge(") for r in trace.rows[1:])
    assert set(trace.rows[0].values) == {m.value for m in MetricId}
    nc = [r.values[MetricId.NC.value] for r in trace.rows]
    assert nc[0] < nc[1] < nc[2]
    baseline_only = greedy_improve(g, MetricId.NC, "add_edge", 0)
    assert len(baseline_only.rows) == 1
    with pytest.raises(ValueError):
        greedy_improve(g, MetricId.NC, "shuffle", 1)


def test_greedy_improve_stops_when_no_candidate_is_defined():
    # one added edge leaves three components connected by at most two, so
    # effective resistance is undefined on every candidate
    g = Graph.from_edges([(0, 1), (2, 3), (4, 5)])
    trace = greedy_improve(g, MetricId.ER, "add_edge", 3)
    assert [r.operation for r in trace.rows] == ["baseline"]


def test_greedy_improve_merge_shrinks_distance():
    g = gen_er(20, 0.2, 4)
    trace = greedy_improve(g, MetricId.AD, "merge", 1)
    ad = [r.values[MetricId.AD.value] for r in trace.rows]
    assert ad[1] < ad[0]
    assert trace.rows[1].operation.startswith("merge(")


def test_correlation_study_frozen():
    g = gen_er(40, 0.25, 5)
    study = correlation_study(g, 4, 3, n_c=6)
    assert [r.truss_size for r in study.rows] == [120, 146, 168, 179]
    assert study.rows[0].operation == "baseline"
    rs = study.pearson_r
    assert set(rs) == {m.value for m in (MetricId.VB, MetricId.EB, MetricId.ER,
                                         MetricId.SG, MetricId.NC)}
    for mid in (MetricId.VB, MetricId.EB, MetricId.ER):
        assert rs[mid.value] < -0.9
    for mid in (MetricId.SG, MetricId.NC):
        assert rs[mid.value] > 0.9


def test_correlation_study_zero_rounds_is_baseline_only():
    g = gen_er(40, 0.25, 5)
    study = correlation_study(g, 4, 0)
    assert len(study.rows) == 1
    assert study.rows[0].operation == "baseline"
    assert study.rows[0].truss_size == 120
    # one point cannot be correlated
    assert all(r is None for r in study.pearson_r.values())


def test_package_import_leaves_networkx_unloaded():
    # only the random-graph generators use networkx, and loading it is most of a start
    src = str(Path(trussmerge.__file__).resolve().parents[1])
    code = "import sys, trussmerge, trussmerge.cli; print('networkx' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out == "False\n"
