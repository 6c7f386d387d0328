"""Robustness measures, random-graph models, and improvement studies.

Eight measures are exposed under short ids: VB/EB (average vertex/edge
betweenness), ER (total effective resistance), SG (spectral gap), NC
(natural connectivity), AD (average distance), TS (transitivity) and LC
(average local clustering). VB, EB, ER and AD improve downward, the
rest upward. ``greedy_improve`` studies how fast merging versus edge
addition moves one measure; ``correlation_study`` tracks how the
measures move while a merger search grows the k-truss.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations
from statistics import StatisticsError, correlation
from typing import Callable, Iterable, Sequence

import networkx as nx
import numpy as np

from .graph import Graph, NodeId
from .search import Method, MergerPlan, RunConfig, adaptive_search, objective


class MetricId(str, Enum):
    VB = "VB"
    EB = "EB"
    ER = "ER"
    SG = "SG"
    NC = "NC"
    AD = "AD"
    TS = "TS"
    LC = "LC"


# +1 means larger is better, -1 means smaller is better
METRIC_DIRECTION: dict[MetricId, int] = {
    MetricId.VB: -1, MetricId.EB: -1, MetricId.ER: -1, MetricId.AD: -1,
    MetricId.SG: 1, MetricId.NC: 1, MetricId.TS: 1, MetricId.LC: 1,
}

CORE_METRICS = (MetricId.VB, MetricId.EB, MetricId.ER, MetricId.SG, MetricId.NC)


def _sample_sources(g: Graph, sources: int | None, seed: int) -> list[NodeId]:
    nodes = g.nodes()
    if sources is None or sources >= len(nodes):
        return nodes
    return sorted(random.Random(seed).sample(nodes, sources))


def betweenness_profile(g: Graph, sources: Sequence[NodeId] | None = None) -> tuple[float, float]:
    """(average vertex, average edge) betweenness in one accumulation.

    Exact Brandes sums over the given sources (all nodes when omitted),
    halved because every unordered pair is seen from both endpoints.
    Unreachable pairs simply contribute no paths. Nodes are re-indexed
    to integers so the hot loops run on flat lists; only the two sums
    are kept because callers only ever consume the averages.
    """
    nodes = g.nodes()
    n = len(nodes)
    m = g.edge_count
    if n == 0:
        return 0.0, 0.0
    pos = {v: i for i, v in enumerate(nodes)}
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in g.edges():
        ui, vi = pos[u], pos[v]
        adj[ui].append(vi)
        adj[vi].append(ui)
    total_nb = 0.0
    total_eb = 0.0
    dist = [-1] * n
    sigma = [0] * n
    delta = [0.0] * n
    preds: list[list[int]] = [[] for _ in range(n)]
    for s in (range(n) if sources is None else (pos[v] for v in sources)):
        stack: list[int] = []
        touched = [s]
        dist[s] = 0
        sigma[s] = 1
        q = deque([s])
        while q:
            v = q.popleft()
            stack.append(v)
            dv1 = dist[v] + 1
            sv = sigma[v]
            for w in adj[v]:
                dw = dist[w]
                if dw < 0:
                    dist[w] = dw = dv1
                    q.append(w)
                    touched.append(w)
                if dw == dv1:
                    sigma[w] += sv
                    preds[w].append(v)
        while stack:
            w = stack.pop()
            dw_delta = delta[w]
            coeff = (1.0 + dw_delta) / sigma[w]
            for v in preds[w]:
                c = sigma[v] * coeff
                total_eb += c
                delta[v] += c
            if w != s:
                total_nb += dw_delta
        for v in touched:
            dist[v] = -1
            sigma[v] = 0
            delta[v] = 0.0
            preds[v].clear()
    return total_nb / 2.0 / n, (total_eb / 2.0 / m) if m else 0.0


def avg_vertex_betweenness(g: Graph, *, sources: int | None = None, seed: int = 0) -> float:
    """Mean exact betweenness over nodes; optionally subsample sources."""
    return betweenness_profile(g, _sample_sources(g, sources, seed) if sources else None)[0]


def avg_edge_betweenness(g: Graph, *, sources: int | None = None, seed: int = 0) -> float:
    """Mean exact betweenness over edges; optionally subsample sources."""
    return betweenness_profile(g, _sample_sources(g, sources, seed) if sources else None)[1]


def _index(g: Graph) -> tuple[list[NodeId], dict[NodeId, int]]:
    nodes = g.nodes()
    return nodes, {v: i for i, v in enumerate(nodes)}


def _adjacency_matrix(g: Graph) -> np.ndarray:
    nodes, pos = _index(g)
    a = np.zeros((len(nodes), len(nodes)))
    for u, v in g.edges():
        a[pos[u], pos[v]] = 1.0
        a[pos[v], pos[u]] = 1.0
    return a


def is_connected(g: Graph) -> bool:
    nodes = g.nodes()
    if len(nodes) <= 1:
        return True
    seen = {nodes[0]}
    q = deque(seen)
    while q:
        v = q.popleft()
        for w in g.adj[v]:
            if w not in seen:
                seen.add(w)
                q.append(w)
    return len(seen) == len(nodes)


def effective_resistance_total(g: Graph) -> float:
    """Kirchhoff total resistance n * sum(1/mu) over nonzero Laplacian spectrum."""
    if not is_connected(g):
        raise ValueError("effective resistance needs a connected graph")
    n = g.node_count
    if n <= 1:
        return 0.0
    a = _adjacency_matrix(g)
    lap = np.diag(a.sum(axis=1)) - a
    mu = np.linalg.eigvalsh(lap)
    return float(n * np.sum(1.0 / mu[1:]))


def spectral_gap(g: Graph) -> float:
    """Difference of the two largest adjacency eigenvalues."""
    if g.node_count < 2:
        return 0.0
    lam = np.linalg.eigvalsh(_adjacency_matrix(g))
    return float(lam[-1] - lam[-2])


def natural_connectivity(g: Graph) -> float:
    """ln of the average of exp(eigenvalue) over the adjacency spectrum."""
    if g.node_count == 0:
        return 0.0
    lam = np.linalg.eigvalsh(_adjacency_matrix(g))
    top = float(lam[-1])
    return top + math.log(float(np.mean(np.exp(lam - top))))


def average_distance(g: Graph) -> float:
    """Mean shortest-path length over reachable pairs within components."""
    total = 0
    pairs = 0
    for s in g.nodes():
        dist = {s: 0}
        q = deque([s])
        while q:
            v = q.popleft()
            for w in g.adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    q.append(w)
        total += sum(dist.values())
        pairs += len(dist) - 1
    return total / pairs if pairs else 0.0


def transitivity(g: Graph) -> float:
    """Closed two-paths over all two-paths (3 triangles per closure)."""
    closed = 0
    for u, v in g.edges():
        closed += len(g.adj[u] & g.adj[v])
    open_paths = sum(d * (d - 1) // 2 for d in (len(ns) for ns in g.adj.values()))
    return closed / open_paths if open_paths else 0.0


def avg_local_clustering(g: Graph) -> float:
    """Mean per-node clustering; nodes of degree < 2 contribute 0."""
    n = g.node_count
    if n == 0:
        return 0.0
    total = 0.0
    for v, nbrs in g.adj.items():
        d = len(nbrs)
        if d < 2:
            continue
        links = sum(len(g.adj[w] & nbrs) for w in nbrs) // 2
        total += 2.0 * links / (d * (d - 1))
    return total / n


METRIC_FUNCS: dict[MetricId, Callable[[Graph], float]] = {
    MetricId.VB: avg_vertex_betweenness,
    MetricId.EB: avg_edge_betweenness,
    MetricId.ER: effective_resistance_total,
    MetricId.SG: spectral_gap,
    MetricId.NC: natural_connectivity,
    MetricId.AD: average_distance,
    MetricId.TS: transitivity,
    MetricId.LC: avg_local_clustering,
}


def evaluate_metric(g: Graph, metric: MetricId | str) -> float:
    return METRIC_FUNCS[MetricId(metric)](g)


def compute_metrics(g: Graph, metrics: Iterable[MetricId] = tuple(MetricId)) -> dict[str, float | None]:
    """All requested measures; incomputable ones come back as None."""
    out: dict[str, float | None] = {}
    for m in metrics:
        try:
            out[m.value] = METRIC_FUNCS[m](g)
        except ValueError:
            out[m.value] = None
    return out


def _check_model(n: int, p: float) -> None:
    if n < 0 or not 0.0 <= p <= 1.0:
        raise ValueError(f"need n >= 0 and p in [0, 1], got n={n}, p={p}")


def gen_er(n: int, p: float, seed: int) -> Graph:
    """Seeded uniform random graph; keeps isolated nodes."""
    _check_model(n, p)
    h = nx.gnp_random_graph(n, p, seed=seed)
    return Graph.from_edges(h.edges(), nodes=range(n))


def gen_ws(n: int, k_nbrs: int, p: float, seed: int) -> Graph:
    """Seeded ring-lattice rewiring model; k_nbrs == n gives the complete graph."""
    _check_model(n, p)
    if not 0 <= k_nbrs <= n:
        raise ValueError(f"k_nbrs must be in [0, n={n}], got {k_nbrs}")
    h = nx.watts_strogatz_graph(n, k_nbrs, p, seed=seed)
    return Graph.from_edges(h.edges(), nodes=range(n))


def gen_hk(n: int, m_attach: int, p: float, seed: int) -> Graph:
    """Seeded preferential attachment with triad closure."""
    _check_model(n, p)
    if not 1 <= m_attach <= n:
        raise ValueError(f"m_attach must be in [1, n={n}], got {m_attach}")
    h = nx.powerlaw_cluster_graph(n, m_attach, p, seed=seed)
    return Graph.from_edges(h.edges(), nodes=range(n))


def pearson_r(xs: Sequence[float], ys: Sequence[float]) -> float | None:
    """Sample correlation; None when undefined (constant input)."""
    if len(xs) != len(ys):
        raise ValueError("series must have equal lengths")
    if len(xs) < 2:
        return None
    try:
        return correlation(list(map(float, xs)), list(map(float, ys)))
    except StatisticsError:
        return None


@dataclass(frozen=True)
class TraceRow:
    """One study round: what was done, where the measures stand."""

    operation: str
    values: dict[str, float | None]
    truss_size: int | None = None


@dataclass(frozen=True)
class StudyTrace:
    rows: tuple[TraceRow, ...]
    pearson_r: dict[str, float | None] = field(default_factory=dict)


def greedy_improve(g: Graph, metric: MetricId | str, op: str, rounds: int,
                   record: Sequence[MetricId] = tuple(MetricId)) -> StudyTrace:
    """Exhaustive greedy on one measure by merging or adding edges.

    Each round evaluates the target measure for every node pair (merge)
    or every absent edge (add_edge), applies the best candidate even if
    it does not improve, and records all requested measures. Candidates
    on which the measure is undefined are skipped.
    """
    metric = MetricId(metric)
    if op not in ("merge", "add_edge"):
        raise ValueError(f"op must be 'merge' or 'add_edge', not {op!r}")
    sign = METRIC_DIRECTION[metric]
    work = g.copy()
    rows = [TraceRow("baseline", compute_metrics(work, record))]
    for _ in range(rounds):
        best = None
        best_val = None
        best_graph = None
        for u, v in combinations(work.nodes(), 2):
            if op == "merge":
                cand = work.merge(u, v)
            else:
                if work.has_edge(u, v):
                    continue
                cand = work.copy()
                cand._add_edge(u, v)
            try:
                val = METRIC_FUNCS[metric](cand)
            except ValueError:
                continue
            if best_val is None or sign * val > sign * best_val:
                best = (u, v)
                best_val = val
                best_graph = cand
        if best is None:
            break
        u, v = best
        label = f"{op}({work.label(u)},{work.label(v)})"
        work = best_graph
        rows.append(TraceRow(label, compute_metrics(work, record)))
    return StudyTrace(tuple(rows))


def correlation_study(g: Graph, k: int, rounds: int, *,
                      n_i: int = 100, n_o: int = 50, n_c: int = 10,
                      method: Method = Method.BM, seed: int = 0, threads: int = 1,
                      betweenness_sources: int | None = None) -> StudyTrace:
    """Track the core measures while the merger search grows the k-truss.

    Runs the search for ``rounds`` mergers (0 records just the baseline
    row), then replays the plan recording VB/EB/ER/SG/NC and the
    measured truss size per step, and correlates each measure series
    against the size series. Betweenness
    may subsample that many sources (fixed seed) to keep large graphs
    tractable; Pearson r is scale-invariant to that choice.
    """
    if rounds == 0:
        plan = MergerPlan(k=k, initial_size=objective(g, k).size)
    else:
        cfg = RunConfig(k=k, b=rounds, n_i=n_i, n_o=n_o, n_c=n_c,
                        method=method, seed=seed, threads=threads)
        plan = adaptive_search(g, cfg)
    work = g.copy()

    def row(label: str, size: int) -> TraceRow:
        srcs = _sample_sources(work, betweenness_sources, seed) if betweenness_sources else None
        vb, eb = betweenness_profile(work, srcs)
        values: dict[str, float | None] = {MetricId.VB.value: vb, MetricId.EB.value: eb}
        try:
            values[MetricId.ER.value] = effective_resistance_total(work)
        except ValueError:
            values[MetricId.ER.value] = None
        values[MetricId.SG.value] = spectral_gap(work)
        values[MetricId.NC.value] = natural_connectivity(work)
        return TraceRow(label, values, size)

    rows = [row("baseline", plan.initial_size)]
    for step in plan.steps:
        label = f"merge({work.label(step.v1)},{work.label(step.v2)})"
        work._merge_inplace(step.v1, step.v2)
        rows.append(row(label, step.size_after))
    sizes = [float(r.truss_size) for r in rows]
    pearson: dict[str, float | None] = {}
    for m in CORE_METRICS:
        ys = [r.values.get(m.value) for r in rows]
        paired = [(x, y) for x, y in zip(sizes, ys) if y is not None]
        if len(paired) < 2:
            pearson[m.value] = None
        else:
            pearson[m.value] = pearson_r([x for x, _ in paired], [y for _, y in paired])
    return StudyTrace(tuple(rows), pearson)
