"""Heuristic scoring and selection of candidate node mergers.

Two merger kinds are generated. Inside-outside mergers (IOM) pull an
outside node onto an inside one and are ranked by how many shell edges
could gain support from the new star edges. Inside-inside mergers (IIM)
are ranked by a reward/penalty score over edge collisions and shell
edges whose support the merge would raise or lower.

Both scores count only changes an actual support recount would see, as
exact integer bilinear forms over 0/1 rows of neighborhoods (column i is
the i-th inside node by id): a pool costs a few matrix products, the
masked products of Kepner & Gilbert, *Graph Algorithms in the Language
of Linear Algebra* (SIAM 2011). Their core is :func:`_cross` over the
shell edges, plus corrections per row and per adjacent pair. Rows are
built when a round first scores, so random sampling never pays for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain

import numpy as np

from .decomposition import TrussView
from .graph import Edge, NodeId, ParseError, canon
from .pruning import NodePartition

EARTH_RADIUS_KM = 6371.0
EXACT_F32 = 2 ** 24  # float32 holds every integer below this exactly
BLOCK = 1 << 14  # entries of one temporary block: 64 kB in float32


class MergerKind(str, Enum):
    IOM = "IOM"
    IIM = "IIM"


@dataclass(frozen=True)
class CandidateMerger:
    """A scored merger proposal; v1 survives the merge."""

    v1: NodeId
    v2: NodeId
    kind: MergerKind | None
    score: int
    tiebreak: int = 0

    def sort_key(self) -> tuple[int, int, int, int]:
        # higher score first, then larger tiebreak, then smallest ids
        return (-self.score, -self.tiebreak, self.v1, self.v2)


def haversine_km(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Great-circle distance between (lat, lon) points in degrees."""
    lat1, lon1 = map(math.radians, a)
    lat2, lon2 = map(math.radians, b)
    s = math.sin((lat2 - lat1) / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin((lon2 - lon1) / 2) ** 2
    return 2 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(s)))


@dataclass(frozen=True)
class ConstraintFilter:
    """Per-pair admission test by great-circle distance.

    A pair is admitted only when both endpoints have coordinates and lie
    within ``threshold_km`` of each other.
    """

    coordinates: dict[NodeId, tuple[float, float]]
    threshold_km: float

    def allows(self, u: NodeId, v: NodeId) -> bool:
        a = self.coordinates.get(u)
        b = self.coordinates.get(v)
        if a is None or b is None:
            return False
        return haversine_km(a, b) <= self.threshold_km

    def within(self, us: list[NodeId], vs: list[NodeId]) -> np.ndarray:
        """``allows(u, v)`` for u in us (rows), v in vs: a numpy haversine per row, near ties rechecked."""
        lat, lon = np.radians([self.coordinates.get(v, (math.nan,) * 2) for v in vs]).reshape(-1, 2).T
        out = np.zeros((len(us), len(vs)), bool)
        for i, u in enumerate(us):
            a, b = map(math.radians, self.coordinates.get(u, (math.nan,) * 2))
            s = np.sin((lat - a) / 2) ** 2 + math.cos(a) * np.cos(lat) * np.sin((lon - b) / 2) ** 2
            d = 2 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(s)))
            out[i] = d <= self.threshold_km
            for j in np.flatnonzero(np.abs(d - self.threshold_km) <= 1e-6 * (d + 1)):
                out[i, j] = self.allows(u, vs[j])
        return out


def load_coordinates(lines) -> dict[str, tuple[float, float]]:
    """Parse ``label lat lon`` lines; later entries win on duplicates."""
    out: dict[str, tuple[float, float]] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) < 3:
            raise ParseError(f"line {lineno}: expected 'label lat lon', got {line!r}")
        try:
            out[tokens[0]] = (float(tokens[1]), float(tokens[2]))
        except ValueError:
            raise ParseError(f"line {lineno}: bad coordinate in {line!r}") from None
    return out


def _int(a: np.ndarray) -> np.ndarray:
    return a.astype(np.int64)


def _cross(x: np.ndarray, y: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Edges (p, q) between x - y and y - x less edges inside x & y, for every pair of rows.

    With x_p the rows' entries at the p ends and P_x = x_p o x_q, blocks of edges
    sum x_p y_q' + x_q y_p' - P_x (y_p + y_q)' - (x_p + x_q) P_y' + P_x P_y' in int64.
    """
    keep = (x.any(0)[p] | x.any(0)[q]) & (y.any(0)[p] | y.any(0)[q])  # edges seeing both row sets
    p, q, xt = p[keep], q[keep], np.ascontiguousarray(x.T)
    yt = xt if y is x else np.ascontiguousarray(y.T)
    out, step = np.zeros((len(x), len(y)), np.int64), max(1, BLOCK // max(1, len(x), len(y)))
    for lo in range(0, len(p), step):
        e, f = p[lo:lo + step], q[lo:lo + step]
        xp, xq, yp, yq = xt[e], xt[f], yt[e], yt[f]
        px, py = xp * xq, yp * yq
        out += _int(xp.T @ (yq - py) + xq.T @ (yp - py) - px.T @ (yp + yq - py))
    return out


@dataclass(eq=False)
class ScoringContext:
    """Everything one search round derives from the working graph.

    Holds the round's truss view, node partition and pruned outside nodes.
    Built on first use: ``order``, the inside nodes by id, whose positions
    are the columns (``col`` maps ids to them, -1 outside); the shell and
    inside edges as column pairs; the ranking. A product of :meth:`rows`
    sums one 0/1 term per column at most, so it is exact in ``dtype``:
    float32 below 2**24 inside nodes, float64 beyond.
    """

    view: TrussView
    partition: NodePartition
    pruned: set[NodeId]

    def node_counts(self) -> tuple[int, int, int]:
        return len(self.partition.inside), len(self.partition.outside), len(self.pruned)

    @cached_property
    def order(self) -> list[NodeId]:
        return sorted(self.partition.inside)

    @cached_property
    def col(self) -> np.ndarray:
        col = np.full(max(self.view.g.adj, default=-1) + 1, -1)
        col[self.order] = np.arange(len(self.order))
        return col

    @cached_property
    def dtype(self) -> type:
        return np.float32 if len(self.order) < EXACT_F32 else np.float64

    def _entries(self, sets: list) -> tuple[np.ndarray, np.ndarray]:
        lens = [len(s) for s in sets]
        flat = np.fromiter(chain.from_iterable(sets), np.intp, sum(lens))
        return np.repeat(np.arange(len(sets)), lens), self.col[flat]

    def rows(self, nodes, adj: dict[NodeId, set[NodeId]] | None = None) -> np.ndarray:
        """0/1 rows of adj[v] over the columns (default: the graph's, that is inside neighbors; absent: empty)."""
        r, c = self._entries([(self.view.g.adj if adj is None else adj).get(v, ()) for v in nodes])
        out = np.zeros((len(nodes), len(self.order)), self.dtype)
        out[r[c >= 0], c[c >= 0]] = 1  # outside neighbors have no column
        return out

    @cached_property
    def shell_edges(self) -> tuple[np.ndarray, np.ndarray]:
        return tuple(self._entries(list(self.view.pos))[1].reshape(-1, 2).T)

    @cached_property
    def inside_edges(self) -> tuple[np.ndarray, np.ndarray]:
        r, c = self._entries([self.view.g.adj[v] for v in self.order])
        return r[r < c], c[r < c]  # an outside neighbor's column -1 is below every row

    def shell_neighbors(self, v: NodeId) -> list[NodeId]:
        return list(self.view.adj_km1.get(v, set()) - self.view.tk_adj.get(v, set()))

    @cached_property
    def ranking(self) -> list[NodeId]:
        """Inside nodes by descending count of non-k-truss inside neighbors, ids breaking ties."""
        adj, out, tk = self.view.g.adj, self.partition.outside, self.view.tk_adj
        return sorted(self.order, key=lambda v: len(tk.get(v, ())) - len(adj[v]) + len(out & adj[v]))

    def iim_scores(self, nodes: list[NodeId]) -> np.ndarray:
        """IIM score of every pair of the given inside nodes, as a symmetric matrix.

        With N1, N2 the inside neighborhoods less v1, v2: -collisions (common
        k-truss neighbors) + gains (shell edges between N1 - N2 and N2 - N1)
        - losses (inside N1 & N2); the cross form, fixed if v1, v2 adjacent.
        """
        c, t, x = self.col[nodes], self.rows(nodes, self.view.tk_adj), self.rows(nodes)
        sh = self.rows(nodes, self.view.adj_km1) - t
        own, deg = _int(x @ sh.T), _int(sh.sum(1))  # own[a, b] = |sh(b) & N(a)|
        fix = _int(t @ t.T) + _int(x[:, c]) * (deg[:, None] - own.T + deg - own - _int(sh[:, c]))
        del t, sh  # only x is needed from here on
        return _cross(x, x, *self.shell_edges) - fix

    def z_sizes(self, inside: list[NodeId], outside: list[NodeId]) -> np.ndarray:
        """|Z| per (inside, outside) pair: |N1| + |N2| - |N1 & N2| - |km1(v1)| - [v1 in N2]."""
        x, y = self.rows(inside), self.rows(outside)
        km1 = np.array([len(self.view.adj_km1.get(v, ())) for v in inside], np.int64).reshape(-1, 1)
        return _int(x.sum(1))[:, None] - km1 + _int(y.sum(1)) - _int(x @ y.T) - _int(y[:, self.col[inside]].T)

    def iom_scores(self, inside: list[NodeId], outside: list[NodeId]) -> tuple[np.ndarray, np.ndarray]:
        """(|PHSE|, |Z|) for merging each outside node onto each inside node.

        A star edge (v1, x), x in u = N2 - N1 - v1, helps shell edges (x, y),
        y in u or N1 (the cross form, plus the edges inside N2, less v1's if
        v1 is in N2), and (v1, w), w adjacent to u (a product per v1).
        """
        c, x, y = self.col[inside], self.rows(inside), self.rows(outside)
        shs = [self.shell_neighbors(v) for v in inside]
        step, reach = max(1, BLOCK // max(1, len(self.order))), np.zeros((len(inside), len(outside)), np.int64)
        for a, sh in enumerate(shs):
            # |N(w) & (N2 - N1)| per shell neighbor w of v1; A[w, v1] = 1 counts v1 in N2 once
            u = (y * (1 - x[a])).T
            for lo in range(0, len(sh), step):
                reach[a] += (self.rows(sh[lo:lo + step]) @ u > y[:, c[a]]).sum(0)
        deg = np.array([len(sh) for sh in shs], np.int64).reshape(-1, 1)
        helped = _cross(x, y, *self.shell_edges) - np.diagonal(_cross(y, y, *self.shell_edges))
        return helped - _int(y[:, c].T) * deg + reach, self.z_sizes(inside, outside)

    def phse_edges(self, v1: NodeId, v2: NodeId) -> tuple[int, int]:
        """(|PHSE|, |Z|) of one pair, read from :meth:`iom_scores`."""
        helped, z = self.iom_scores([v1], [v2])
        return int(helped[0, 0]), int(z[0, 0])


def incident_prospects(ctx: ScoringContext, v: NodeId) -> set[NodeId]:
    """Inside neighbors of v not already its k-truss neighbors."""
    if v not in ctx.partition.inside:
        raise ValueError(f"node {v} is not an inside node")
    return ctx.partition.inside_neighbors[v] - ctx.view.tk_adj.get(v, set())


def top_inside_nodes(ctx: ScoringContext, n_i: int) -> list[NodeId]:
    """Inside nodes by descending incident-prospect count, ids break ties."""
    return ctx.ranking[:n_i]


def top_outside_nodes(ctx: ScoringContext, n_o: int) -> list[NodeId]:
    """Pruned outside nodes by descending inside-degree, ids break ties."""
    nb = ctx.partition.inside_neighbors
    return sorted(ctx.pruned, key=lambda v: (-len(nb[v]), v))[:n_o]


def _star(ctx: ScoringContext, v_i: NodeId, v_o: NodeId) -> tuple[np.ndarray, np.ndarray]:
    """(N1 row, u row), u = N2 - N1 - v_i: the far ends of the star edges the merge adds."""
    if v_i not in ctx.partition.inside:
        raise ValueError(f"node {v_i} is not an inside node")
    x, y = ctx.rows([v_i, v_o])
    y[ctx.col[v_i]] = 0
    return x, y * (1 - x)


def new_inside_neighbors(ctx: ScoringContext, v_i: NodeId, v_o: NodeId) -> set[NodeId]:
    """Nodes the merged node would newly reach inside the (k-1)-truss.

    Z = (inside nbrs of either endpoint) minus v_i and its (k-1)-truss
    edge neighbors; the merge adds the star {(v_i, z) : z in Z}.
    """
    x, u = _star(ctx, v_i, v_o)
    return {ctx.order[i] for i in np.flatnonzero((x + u) * (1 - ctx.rows([v_i], ctx.view.adj_km1)[0]))}


def phse(ctx: ScoringContext, v_i: NodeId, v_o: NodeId) -> set[Edge]:
    """Shell edges whose support rises once the merger's star is added.

    Lists the edges :meth:`ScoringContext.iom_scores` counts: (x, y) with
    x in u and y in u or N1, and (v_i, w) with w adjacent to u.
    """
    x, u = _star(ctx, v_i, v_o)
    (a, b), sh = ctx.shell_edges, ctx.shell_neighbors(v_i)
    hit = u[a] * (x + u)[b] + u[b] * (x + u)[a] > 0
    return {canon(ctx.order[e], ctx.order[f]) for e, f in zip(a[hit], b[hit])} \
        | {canon(v_i, w) for w, n in zip(sh, ctx.rows(sh) @ u) if n > 0}


def iim_score(ctx: ScoringContext, v1: NodeId, v2: NodeId) -> int:
    """Reward/penalty score for merging two inside nodes."""
    if v1 == v2 or not {v1, v2} <= ctx.partition.inside:
        raise ValueError(f"iim_score needs two distinct inside nodes, got {v1} and {v2}")
    return _iim_score(ctx, v1, v2)


def _iim_score(ctx: ScoringContext, v1: NodeId, v2: NodeId) -> int:
    """The IIM score of one pair, read from :meth:`ScoringContext.iim_scores`."""
    return int(ctx.iim_scores([v1, v2])[0, 1])


def best_pairs(kind: MergerKind, rows: list[NodeId], cols: list[NodeId], n_c: int,
               cfilter: ConstraintFilter | None, score: np.ndarray,
               tie: np.ndarray | None = None) -> list[CandidateMerger]:
    """The n_c best admitted (rows[i], cols[j]) by score[i, j], tie[i, j]; IIM: i < j, smaller id first."""
    ok = np.ones(score.shape, bool) if cfilter is None else cfilter.within(rows, cols)
    i, j = np.nonzero(np.triu(ok, 1) if kind is MergerKind.IIM else ok)
    v1, v2 = np.array(rows, np.intp)[i], np.array(cols, np.intp)[j]
    v1, v2 = (np.minimum(v1, v2), np.maximum(v1, v2)) if kind is MergerKind.IIM else (v1, v2)
    s, t = score[i, j], np.zeros(len(i), np.int64) if tie is None else tie[i, j]
    pick = np.lexsort((v2, v1, -t, -s))[:n_c]
    return [CandidateMerger(int(v1[m]), int(v2[m]), kind, int(s[m]), int(t[m])) for m in pick]


def find_iom_candidates(ctx: ScoringContext, n_i: int, n_o: int, n_c: int,
                        cfilter: ConstraintFilter | None = None) -> list[CandidateMerger]:
    """Top n_c inside-outside mergers from the focused node pools, by |PHSE| then |Z|."""
    inside, outside = ctx.ranking[:n_i], top_outside_nodes(ctx, n_o)
    return best_pairs(MergerKind.IOM, inside, outside, n_c, cfilter, *ctx.iom_scores(inside, outside))


def find_iim_candidates(ctx: ScoringContext, n_i: int, n_c: int,
                        cfilter: ConstraintFilter | None = None) -> list[CandidateMerger]:
    """Top n_c inside-inside mergers among the focused inside nodes."""
    top = ctx.ranking[:n_i]
    return best_pairs(MergerKind.IIM, top, top, n_c, cfilter, ctx.iim_scores(top))
