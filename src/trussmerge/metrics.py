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
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations, count
from statistics import StatisticsError, correlation
from typing import Callable, Iterable, Iterator, Sequence

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


def _sample_rows(n: int, sources: int | None, seed: int) -> list[int] | None:
    # sampling positions draws the same sources as sampling the sorted ids
    if not sources or sources >= n:
        return None
    return sorted(random.Random(seed).sample(range(n), sources))


def _adjacency_matrix(g: Graph) -> np.ndarray:
    """0/1 float matrix with rows and columns in sorted node-id order."""
    pos = {v: i for i, v in enumerate(g.nodes())}
    a = np.zeros((len(pos), len(pos)))
    if g.edge_count:
        u, v = np.array([(pos[x], pos[y]) for x, y in g.edges()]).T
        a[u, v] = a[v, u] = 1.0
    return a


def _distance_sums(a: np.ndarray, rows: Sequence[int] | None = None) -> tuple[int, int]:
    """(sum of d(s, t), number of pairs) over sources s and the t != s they reach.

    A level-synchronous BFS from every source row at once: one 0/1
    float32 product per level, exact because no entry exceeds n.
    """
    n = len(a)
    src = np.arange(n) if rows is None else np.asarray(rows, dtype=np.intp)
    a32 = a.astype(np.float32)
    reached = np.zeros((len(src), n), dtype=bool)
    reached[np.arange(len(src)), src] = True
    frontier = reached
    total = pairs = 0
    for depth in count(1):
        frontier = (frontier.astype(np.float32) @ a32 > 0) & ~reached
        found = int(np.count_nonzero(frontier))
        if not found:
            break
        total += depth * found
        pairs += found
        reached |= frontier
    return total, pairs


def _betweenness(a: np.ndarray, rows: Sequence[int] | None = None) -> tuple[float, float]:
    # a shortest s-t path has d - 1 inner nodes and d edges, so the
    # dependencies of source s sum to sum_t (d(s, t) - 1) over nodes and
    # sum_t d(s, t) over edges; halved, as each pair is seen from both ends
    n, m = len(a), int(a.sum()) // 2
    total, pairs = _distance_sums(a, rows)
    return ((total - pairs) / 2.0 / n) if n else 0.0, (total / 2.0 / m) if m else 0.0


def betweenness_profile(g: Graph, sources: Sequence[NodeId] | None = None) -> tuple[float, float]:
    """(average vertex, average edge) betweenness from BFS distance sums.

    Exact over the given sources (all nodes when omitted); unreachable
    pairs contribute nothing. Only the sums are formed because callers
    only ever consume the averages.
    """
    pos = {v: i for i, v in enumerate(g.nodes())}
    return _betweenness(_adjacency_matrix(g), None if sources is None else [pos[v] for v in sources])


def avg_vertex_betweenness(g: Graph, *, sources: int | None = None, seed: int = 0) -> float:
    """Mean exact betweenness over nodes; optionally subsample sources."""
    return _betweenness(_adjacency_matrix(g), _sample_rows(g.node_count, sources, seed))[0]


def avg_edge_betweenness(g: Graph, *, sources: int | None = None, seed: int = 0) -> float:
    """Mean exact betweenness over edges; optionally subsample sources."""
    return _betweenness(_adjacency_matrix(g), _sample_rows(g.node_count, sources, seed))[1]


def _connected(a: np.ndarray) -> bool:
    return len(a) <= 1 or _distance_sums(a, [0])[1] == len(a) - 1


def is_connected(g: Graph) -> bool:
    return _connected(_adjacency_matrix(g))


def _effective_resistance(a: np.ndarray) -> float:
    if not _connected(a):
        raise ValueError("effective resistance needs a connected graph")
    if len(a) <= 1:
        return 0.0
    mu = np.linalg.eigvalsh(np.diag(a.sum(axis=1)) - a)
    return float(len(a) * np.sum(1.0 / mu[1:]))


def effective_resistance_total(g: Graph) -> float:
    """Kirchhoff total resistance n * sum(1/mu) over nonzero Laplacian spectrum."""
    return _effective_resistance(_adjacency_matrix(g))


def _gap(lam: np.ndarray) -> float:
    return float(lam[-1] - lam[-2]) if len(lam) >= 2 else 0.0


def _natural(lam: np.ndarray) -> float:
    if len(lam) == 0:
        return 0.0
    top = float(lam[-1])
    return top + math.log(float(np.mean(np.exp(lam - top))))


def spectral_gap(g: Graph) -> float:
    """Difference of the two largest adjacency eigenvalues."""
    return _gap(np.linalg.eigvalsh(_adjacency_matrix(g)))


def natural_connectivity(g: Graph) -> float:
    """ln of the average of exp(eigenvalue) over the adjacency spectrum."""
    return _natural(np.linalg.eigvalsh(_adjacency_matrix(g)))


def _average_distance(a: np.ndarray) -> float:
    total, pairs = _distance_sums(a)
    return total / pairs if pairs else 0.0


def average_distance(g: Graph) -> float:
    """Mean shortest-path length over reachable pairs within components."""
    return _average_distance(_adjacency_matrix(g))


def _transitivity(a: np.ndarray) -> float:
    deg = a.sum(axis=1)
    open_paths = float(np.sum(deg * (deg - 1))) / 2
    return float(((a @ a) * a).sum()) / 2 / open_paths if open_paths else 0.0


def transitivity(g: Graph) -> float:
    """Closed two-paths over all two-paths (3 triangles per closure)."""
    return _transitivity(_adjacency_matrix(g))


def _local_clustering(a: np.ndarray) -> float:
    # twice the triangles at each node over its ordered neighbour pairs
    tri, deg = ((a @ a) * a).sum(axis=1), a.sum(axis=1)
    wedges = deg * (deg - 1)
    return float(np.sum(tri[wedges > 0] / wedges[wedges > 0])) / max(len(a), 1)


def avg_local_clustering(g: Graph) -> float:
    """Mean per-node clustering; nodes of degree < 2 contribute 0."""
    return _local_clustering(_adjacency_matrix(g))


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

# the same measures on a sorted-id adjacency matrix
MATRIX_FUNCS: dict[MetricId, Callable[[np.ndarray], float]] = {
    MetricId.VB: lambda a: _betweenness(a)[0],
    MetricId.EB: lambda a: _betweenness(a)[1],
    MetricId.ER: _effective_resistance,
    MetricId.SG: lambda a: _gap(np.linalg.eigvalsh(a)),
    MetricId.NC: lambda a: _natural(np.linalg.eigvalsh(a)),
    MetricId.AD: _average_distance,
    MetricId.TS: _transitivity,
    MetricId.LC: _local_clustering,
}


def evaluate_metric(g: Graph, metric: MetricId | str) -> float:
    return METRIC_FUNCS[MetricId(metric)](g)


def _measures(a: np.ndarray, metrics: Iterable[MetricId],
              rows: Sequence[int] | None = None) -> dict[str, float | None]:
    """Measures of one matrix; VB/EB share a BFS and SG/NC a spectrum."""
    metrics = [MetricId(m) for m in metrics]
    shared: dict[MetricId, float] = {}
    if {MetricId.VB, MetricId.EB} & set(metrics):
        shared[MetricId.VB], shared[MetricId.EB] = _betweenness(a, rows)
    if {MetricId.SG, MetricId.NC} & set(metrics):
        lam = np.linalg.eigvalsh(a)
        shared[MetricId.SG], shared[MetricId.NC] = _gap(lam), _natural(lam)
    out: dict[str, float | None] = {}
    for m in metrics:
        try:
            out[m.value] = shared[m] if m in shared else MATRIX_FUNCS[m](a)
        except ValueError:
            out[m.value] = None
    return out


def compute_metrics(g: Graph, metrics: Iterable[MetricId] = tuple(MetricId)) -> dict[str, float | None]:
    """All requested measures; incomputable ones come back as None."""
    return _measures(_adjacency_matrix(g), metrics)


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


def candidate_matrices(a: np.ndarray, op: str) -> Iterator[tuple[int, int, np.ndarray]]:
    """(i, j, edited matrix) for every merge pair or absent edge, i < j.

    A merge ORs row and column j into i, clears the diagonal and drops
    j: exactly the sorted-id matrix of ``Graph.merge`` on those nodes.
    An addition sets a[i, j] = a[j, i] = 1.
    """
    n = len(a)
    keep = [np.r_[0:j, j + 1:n] for j in range(n)] if op == "merge" else []
    for i, j in combinations(range(n), 2):
        if op == "merge":
            b = a[keep[j]][:, keep[j]]
            row = np.maximum(b[i], a[j, keep[j]])
            row[i] = 0.0
            b[i] = b[:, i] = row
        elif a[i, j]:
            continue
        else:
            b = a.copy()
            b[i, j] = b[j, i] = 1.0
        yield i, j, b


def greedy_improve(g: Graph, metric: MetricId | str, op: str, rounds: int,
                   record: Sequence[MetricId] = tuple(MetricId)) -> StudyTrace:
    """Exhaustive greedy on one measure by merging or adding edges.

    Each round scores the target measure on an edited adjacency matrix
    for every node pair (merge) or every absent edge (add_edge), applies
    the best candidate even if it does not improve, and records all
    requested measures. Candidates on which the measure is undefined are
    skipped; exact ties go to the first pair in ``combinations`` order.
    """
    metric = MetricId(metric)
    if op not in ("merge", "add_edge"):
        raise ValueError(f"op must be 'merge' or 'add_edge', not {op!r}")
    sign = METRIC_DIRECTION[metric]
    score = MATRIX_FUNCS[metric]
    work = g.copy()
    rows = [TraceRow("baseline", compute_metrics(work, record))]
    for _ in range(rounds):
        best = best_val = None
        for i, j, cand in candidate_matrices(_adjacency_matrix(work), op):
            try:
                val = score(cand)
            except ValueError:
                continue
            if best_val is None or sign * val > sign * best_val:
                best = (i, j)
                best_val = val
        if best is None:
            break
        u, v = (work.nodes()[x] for x in best)
        label = f"{op}({work.label(u)},{work.label(v)})"
        if op == "merge":
            work._merge_inplace(u, v)
        else:
            work._add_edge(u, v)
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
    against the size series. Betweenness may subsample that many sources
    (fixed seed) to keep large graphs tractable; Pearson r is
    scale-invariant to that choice.
    """
    if rounds == 0:
        plan = MergerPlan(k=k, initial_size=objective(g, k).size)
    else:
        cfg = RunConfig(k=k, b=rounds, n_i=n_i, n_o=n_o, n_c=n_c,
                        method=method, seed=seed, threads=threads)
        plan = adaptive_search(g, cfg)
    work = g.copy()

    def row(label: str, size: int) -> TraceRow:
        srcs = _sample_rows(work.node_count, betweenness_sources, seed)
        return TraceRow(label, _measures(_adjacency_matrix(work), CORE_METRICS, srcs), size)

    rows = [row("baseline", plan.initial_size)]
    for step in plan.steps:
        label = f"merge({work.label(step.v1)},{work.label(step.v2)})"
        work._merge_inplace(step.v1, step.v2)
        rows.append(row(label, step.size_after))
    sizes = [float(r.truss_size) for r in rows]
    pearson: dict[str, float | None] = {}
    for m in CORE_METRICS:
        paired = [(x, r.values[m.value]) for x, r in zip(sizes, rows) if r.values[m.value] is not None]
        pearson[m.value] = pearson_r(*zip(*paired)) if len(paired) >= 2 else None
    return StudyTrace(tuple(rows), pearson)
