"""Robustness measures, random-graph models, and improvement studies.

Eight measures are exposed under short ids: VB/EB (average vertex/edge
betweenness), ER (total effective resistance), SG (spectral gap), NC
(natural connectivity), AD (average distance), TS (transitivity) and LC
(average local clustering). VB, EB, ER and AD improve downward, the
rest upward. ``greedy_improve`` studies how fast merging versus edge
addition moves one measure, each edit the exhaustive best that
``best_candidate`` finds with closed forms or spectral upper bounds;
``correlation_study`` tracks how the measures move while a merger
search grows the k-truss.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations, count
from statistics import StatisticsError, correlation
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .graph import Graph, NodeId
from .search import MergerPlan, RunConfig, adaptive_search, objective


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


def _distances(a: np.ndarray, rows: Sequence[int] | None = None) -> np.ndarray:
    """Hop distances from the source rows to every node, n where unreachable.

    A level-synchronous BFS from every source row at once: one 0/1
    float32 product per level, exact because no entry exceeds n. The
    narrowest unsigned type that holds 2n + 1 leaves room for one
    min-plus step.
    """
    n = len(a)
    src = np.arange(n) if rows is None else np.asarray(rows, dtype=np.intp)
    a32 = a.astype(np.float32)
    d = np.full((len(src), n), n, dtype=np.min_scalar_type(2 * n + 1))
    d[np.arange(len(src)), src] = 0
    frontier = d == 0
    for depth in count(1):
        frontier = (frontier.astype(np.float32) @ a32 > 0) & (d == n)
        if not frontier.any():
            break
        d[frontier] = depth
    return d


def _reached(d: np.ndarray, axis=None) -> tuple[np.ndarray, np.ndarray]:
    """(sum, count) of the finite entries of distance arrays over ``axis``."""
    near = d < d.shape[-1]
    return np.where(near, d, 0).sum(axis=axis, dtype=np.int64), near.sum(axis=axis, dtype=np.int64)


def _from_sums(metric: MetricId, total: int, pairs: int, n: int, m: int) -> float:
    """VB, EB or AD from the distance sum and count over reachable ordered pairs.

    A shortest s-t path has d - 1 inner nodes and d edges, so the
    dependencies of source s sum to sum_t (d(s, t) - 1) over nodes and
    sum_t d(s, t) over edges; halved, as each pair is seen from both ends.
    """
    if metric is MetricId.VB:
        return (total - pairs) / 2.0 / n if n else 0.0
    if metric is MetricId.EB:
        return total / 2.0 / m if m else 0.0
    return total / pairs if pairs else 0.0


def _betweenness(a: np.ndarray, rows: Sequence[int] | None = None) -> tuple[float, float]:
    d = _distances(a, rows)
    total, found = (int(x) for x in _reached(d))
    n, m, pairs = len(a), int(a.sum()) // 2, found - len(d)
    return (_from_sums(MetricId.VB, total, pairs, n, m), _from_sums(MetricId.EB, total, pairs, n, m))


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
    return len(a) <= 1 or bool((_distances(a, [0]) < len(a)).all())


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
    total, found = (int(x) for x in _reached(_distances(a)))
    return _from_sums(MetricId.AD, total, found - len(a), len(a), 0)


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
    """Seeded G(n, p); keeps isolated nodes.

    Each pair of ``combinations(range(n), 2)``, in order, is an edge when a
    draw of ``random.Random(seed)`` falls below p, as in networkx 3.6.1's
    ``gnp_random_graph``: p = 0 gives no edge, p = 1 every pair.
    """
    _check_model(n, p)
    rng = random.Random(seed)
    return Graph.from_edges([e for e in combinations(range(n), 2) if rng.random() < p], nodes=range(n))


def gen_ws(n: int, k_nbrs: int, p: float, seed: int) -> Graph:
    """Seeded ring-lattice rewiring model; k_nbrs == n gives the complete graph."""
    _check_model(n, p)
    if not 0 <= k_nbrs <= n:
        raise ValueError(f"k_nbrs must be in [0, n={n}], got {k_nbrs}")
    import networkx as nx  # imported here: it is slow to load and only these generators use it
    h = nx.watts_strogatz_graph(n, k_nbrs, p, seed=seed)
    return Graph.from_edges(h.edges(), nodes=range(n))


def gen_hk(n: int, m_attach: int, p: float, seed: int) -> Graph:
    """Seeded preferential attachment with triad closure."""
    _check_model(n, p)
    if not 1 <= m_attach <= n:
        raise ValueError(f"m_attach must be in [1, n={n}], got {m_attach}")
    import networkx as nx
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


def _edited(a: np.ndarray, op: str, i: int, j: int) -> np.ndarray:
    """The matrix after merging j into i, or after adding edge (i, j).

    A merge ORs row and column j into i, clears the diagonal and drops
    j, so i moves to i - 1 if it was above j: exactly the sorted-id
    matrix of ``Graph.merge`` on those nodes. An addition sets
    a[i, j] = a[j, i] = 1.
    """
    if op == "merge":
        keep, s = np.r_[0:j, j + 1:len(a)], i - (i > j)
        b = a[np.ix_(keep, keep)]  # C order: a study matrix in F order read a higher peak RSS
        row = np.maximum(b[s], a[j, keep])
        row[s] = 0.0
        b[s] = b[:, s] = row
    else:
        b = a.copy()
        b[i, j] = b[j, i] = 1.0
    return b


def candidate_matrices(a: np.ndarray, op: str) -> Iterator[tuple[int, int, np.ndarray]]:
    """(i, j, edited matrix) for every merge pair or absent edge, i < j."""
    for i, j in combinations(range(len(a)), 2):
        if op == "merge" or not a[i, j]:
            yield i, j, _edited(a, op, i, j)


# distance entries scored per batch of closed-form candidates
_BATCH = 1 << 16


def _distance_scores(a: np.ndarray, metric: MetricId, op: str) -> Iterator[tuple[int, int, float]]:
    """VB, EB or AD of every candidate edit from one all-pairs distance matrix.

    Adding (i, j) gives d'(s, t) = min(d(s, t), d(s, i) + 1 + d(j, t),
    d(s, j) + 1 + d(i, t)). Merging j into i gives d'(s, t) =
    min(d(s, t), r_s + r_t) with r = min(d(., i), d(., j)), on n - 1
    nodes and m - |N(i) & N(j)| - [i ~ j] edges. Sums stay integers, so
    every value equals the one ``MATRIX_FUNCS`` gives on the edited matrix.
    """
    n, m = len(a), int(a.sum()) // 2
    d = _distances(a)
    pairs_i, pairs_j = np.triu_indices(n, 1)
    if op != "merge":
        absent = a[pairs_i, pairs_j] == 0
        pairs_i, pairs_j = pairs_i[absent], pairs_j[absent]
    common = (a @ a).astype(np.int64)
    step = max(1, _BATCH // max(n * n, 1))
    for lo in range(0, len(pairs_i), step):
        ii, jj = pairs_i[lo:lo + step], pairs_j[lo:lo + step]
        if op == "merge":
            r = np.minimum(d[ii], d[jj])
            total, found = _reached(np.minimum(d, r[:, :, None] + r[:, None, :]), (1, 2))
            # row and column j repeat r (d'(j, t) = r_t): drop them
            r_total, r_found = _reached(r, 1)
            total, pairs = total - 2 * r_total, found - 2 * r_found - n + 2
            nodes, edges = n - 1, m - common[ii, jj] - a[ii, jj].astype(np.int64)
        else:
            via = d[ii][:, :, None] + 1 + d[jj][:, None, :]
            total, found = _reached(np.minimum(d, np.minimum(via, via.transpose(0, 2, 1))), (1, 2))
            pairs, nodes, edges = found - n, n, np.full(len(jj), m + 1)
        for i, j, t, p, e in zip(ii.tolist(), jj.tolist(), total.tolist(), pairs.tolist(), edges.tolist()):
            yield i, j, _from_sums(metric, t, p, nodes, e)


def _resistance_additions(a: np.ndarray) -> Iterator[tuple[int, int, float]]:
    """Kirchhoff index after each absent edge of a connected graph.

    With X = L+ and b = e_i - e_j, Sherman-Morrison gives
    Kf' = n (tr X - b'X^2 b / (1 + b'X b)) (Ghosh, Boyd & Saberi 2008).
    """
    n = len(a)
    x = np.linalg.inv(np.diag(a.sum(axis=1)) - a + 1.0 / n) - 1.0 / n
    x2 = x @ x

    def quad(y: np.ndarray) -> np.ndarray:
        return np.diag(y)[:, None] + np.diag(y)[None, :] - 2 * y

    kf = n * (np.trace(x) - quad(x2) / (1.0 + quad(x)))
    for i, j in combinations(range(n), 2):
        if not a[i, j]:
            yield i, j, float(kf[i, j])


def candidate_scores(a: np.ndarray, metric: MetricId | str, op: str) -> Iterator[tuple[int, int, float]]:
    """(i, j, measure) for each ``candidate_matrices`` edit on which it is defined.

    Same order as ``candidate_matrices``. VB/EB/AD, and ER additions to
    a connected graph, are scored in closed form from one per-call
    matrix; the rest score each edited matrix with ``MATRIX_FUNCS``.
    """
    metric = MetricId(metric)
    if metric in (MetricId.VB, MetricId.EB, MetricId.AD):
        yield from _distance_scores(a, metric, op)
    elif metric is MetricId.ER and op == "add_edge" and len(a) > 1 and _connected(a):
        yield from _resistance_additions(a)
    else:
        for i, j, b in candidate_matrices(a, op):
            try:
                yield i, j, MATRIX_FUNCS[metric](b)
            except ValueError:
                continue


def _spectral_bounds(a: np.ndarray, metric: MetricId, op: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, upper bound on the measure) for every NC or SG edit, from one eigh of a.

    Write the edit as M = A + s (e_i y' + y e_i') with unit y: y = e_j and
    s = 1 for an addition; for a merge j -> i, y = d/|d| and s = |d| with
    d = N(j) - N(i) - {i, j}, and the merged matrix is M less row and
    column j, so its eigenvalues interlace M's. With F = e^A,
    Golden-Thompson bounds tr e^M by tr(F e^P), P = M - A, and e^P = I +
    (cosh s - 1)(e_i e_i' + y y') + sinh s (e_i y' + y e_i'), which bounds
    NC with the mean over n nodes, or n - 1 after a merge. For SG,
    lambda1 is at most lambda1(M), the top root of
    s (P_iy + sqrt(P_ii P_yy)) = 1, P = [e_i y]' (lambda - A)^-1 [e_i y],
    bisected from above. lambda2 is at least the second Ritz value on the
    old top-three eigenvectors (row j zeroed for a merge, so their Gram
    matrix I - qq' is whitened by I + qq' / (g (1 + g)), g^2 = 1 - q'q),
    and at least lambda3(A) after an addition or lambda4(A) after a merge.
    """
    n = len(a)
    w, v = np.linalg.eigh(a)
    ii, jj = np.triu_indices(n, 1)
    if op != "merge":
        ii, jj = ii[a[ii, jj] == 0], jj[a[ii, jj] == 0]
    ex = np.exp(w - w[-1])  # F's spectrum, scaled by e^-lambda1
    floor = w[-3] if op != "merge" else (w[-4] if n >= 4 else -np.inf)
    ub, step = [np.empty(0)], max(1, _BATCH // (16 * n))  # blocks keep the (C, n) temporaries small
    for i, j in ((ii[k:k + step], jj[k:k + step]) for k in range(0, len(ii), step)):
        vi, q = v[i], np.zeros((len(i), 3))
        if op == "merge":
            d = a[j] * (1.0 - a[i])
            d[np.arange(len(i)), i] = 0.0
            dv, s, q = d @ v, np.sqrt(d.sum(axis=1)), v[j, -3:]
        else:
            dv, s = v[j], np.ones(len(i))
        vy = dv / np.maximum(s, 1.0)[:, None]
        terms = np.stack([vi * vi, vy * vy, vi * vy], axis=1)
        if metric is MetricId.NC:
            fii, fyy, fiy = (terms @ ex).T
            tr = ex.sum() + (np.cosh(s) - 1.0) * (fii + fyy) + 2.0 * np.sinh(s) * fiy
            ub.append(w[-1] + np.log(tr / (n - (op == "merge"))))
            continue
        lo, hi = np.full(len(i), w[-1]), w[-1] + s
        with np.errstate(invalid="ignore", divide="ignore"):
            for _ in range(16):  # hi stays above the root, within s / 2^16
                mid = (lo + hi) / 2
                pii, pyy, piy = (terms / (mid[:, None, None] - w)).sum(axis=2).T
                above = s * (piy + np.sqrt(pii * pyy)) > 1.0
                lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
        g2 = 1.0 - (q * q).sum(axis=1)
        g = np.sqrt(np.maximum(g2, 1e-4))
        q_s = q / np.sqrt(g * (1.0 + g))[:, None]
        h = np.eye(3) + q_s[:, :, None] * q_s[:, None]
        x = vi[:, None, -3:] * dv[:, -3:, None] - (q * w[-3:])[:, None] * q[:, :, None]
        ritz = np.linalg.eigvalsh(h @ (np.diag(w[-3:]) + x + x.transpose(0, 2, 1)) @ h)[:, -2]
        ub.append(np.where(g2 < 1e-4, np.inf, hi - np.maximum(ritz, floor)))
    return ii, jj, np.concatenate(ub)


def best_candidate(a: np.ndarray, metric: MetricId | str, op: str) -> tuple[int, int, float] | None:
    """The best ``candidate_scores`` edit as (i, j, value); ties to the first pair, None if none.

    SG and NC edits are scored exactly (``MATRIX_FUNCS`` on the
    edited matrix) in descending order of ``_spectral_bounds`` until the
    next bound falls below the best value found, so the choice is the
    exhaustive one. A non-finite bound always gets scored.
    """
    metric = MetricId(metric)
    if len(a) < 3 or metric not in (MetricId.SG, MetricId.NC):
        sign = METRIC_DIRECTION[metric]
        return max(candidate_scores(a, metric, op), key=lambda c: sign * c[2], default=None)
    ii, jj, ub = _spectral_bounds(a, metric, op)
    ub = np.where(np.isfinite(ub), ub, np.inf)
    best = val = None
    for x in np.argsort(-ub, kind="stable").tolist():
        # the slack covers rounding in the eigendecomposition and the exact spectra
        if best is not None and ub[x] < val - 1e-7 * (1.0 + abs(val)):
            break
        y = MATRIX_FUNCS[metric](_edited(a, op, int(ii[x]), int(jj[x])))
        if best is None or y > val or (y == val and x < best):
            best, val = x, y
    return None if best is None else (int(ii[best]), int(jj[best]), val)


def greedy_improve(g: Graph, metric: MetricId | str, op: str, rounds: int,
                   record: Sequence[MetricId] = tuple(MetricId)) -> StudyTrace:
    """Exhaustive greedy on one measure by merging or adding edges.

    Each round applies the best of every node pair (merge) or every
    absent edge (add_edge) by the target measure, as ``best_candidate``
    finds it, even if it does not improve, and records all requested
    measures. Candidates on which the measure is undefined are skipped;
    exact ties go to the first pair in ``combinations`` order.
    """
    metric = MetricId(metric)
    if op not in ("merge", "add_edge"):
        raise ValueError(f"op must be 'merge' or 'add_edge', not {op!r}")
    a, labels = _adjacency_matrix(g), [g.label(v) for v in g.nodes()]
    rows = [TraceRow("baseline", _measures(a, record))]
    for _ in range(rounds):
        best = best_candidate(a, metric, op)
        if best is None:
            break
        i, j = best[:2]
        label, a = f"{op}({labels[i]},{labels[j]})", _edited(a, op, i, j)
        if op == "merge":
            del labels[j]
        rows.append(TraceRow(label, _measures(a, record)))
    return StudyTrace(tuple(rows))


def correlation_study(g: Graph, k: int, rounds: int, *,
                      n_i: int = 100, n_o: int = 50, n_c: int = 10, seed: int = 0,
                      betweenness_sources: int | None = None) -> StudyTrace:
    """Track the core measures while the merger search grows the k-truss.

    Runs the BM search for ``rounds`` mergers (0 records just the baseline
    row), then replays the plan recording VB/EB/ER/SG/NC and the
    measured truss size per step, and correlates each measure series
    against the size series. Betweenness may subsample that many sources
    (fixed seed) to keep large graphs tractable; Pearson r is
    scale-invariant to that choice.
    """
    if rounds == 0:
        plan = MergerPlan(k=k, initial_size=objective(g, k).size)
    else:
        plan = adaptive_search(g, RunConfig(k=k, b=rounds, n_i=n_i, n_o=n_o, n_c=n_c, seed=seed))
    a, ids = _adjacency_matrix(g), g.nodes()

    def row(label: str, size: int) -> TraceRow:
        srcs = _sample_rows(len(a), betweenness_sources, seed)
        return TraceRow(label, _measures(a, CORE_METRICS, srcs), size)

    rows = [row("baseline", plan.initial_size)]
    for step in plan.steps:
        a = _edited(a, "merge", ids.index(step.v1), ids.index(step.v2))
        ids.remove(step.v2)
        rows.append(row(f"merge({g.label(step.v1)},{g.label(step.v2)})", step.size_after))
    sizes = [float(r.truss_size) for r in rows]
    pearson: dict[str, float | None] = {}
    for m in CORE_METRICS:
        paired = [(x, r.values[m.value]) for x, r in zip(sizes, rows) if r.values[m.value] is not None]
        pearson[m.value] = pearson_r(*zip(*paired)) if len(paired) >= 2 else None
    return StudyTrace(tuple(rows), pearson)
