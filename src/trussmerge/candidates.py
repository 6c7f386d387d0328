"""Heuristic scoring and selection of candidate node mergers.

Two merger kinds are generated. Inside-outside mergers (IOM) pull an
outside node onto an inside one and are ranked by how many shell edges
could gain support from the new star edges. Inside-inside mergers (IIM)
are ranked by a reward/penalty score over edge collisions and shell
edges whose support the merge would raise or lower.

Both scores count only changes an actual support recount would see,
and both are popcounts over per-round integer bitsets. Bit i stands for
the i-th inside node in id order; every node gets a mask of its inside
neighbors, and every inside node gets masks of its k-truss, (k-1)-truss
and shell neighbors. The masks are built the first time a round scores, so
rounds that never score (random sampling) never pay for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations
from typing import Iterator, NamedTuple

from .decomposition import TrussDecomposition, TrussView
from .graph import Edge, Graph, NodeId, ParseError, canon
from .pruning import NodePartition, prune_outside_maximal

EARTH_RADIUS_KM = 6371.0


class MergerKind(str, Enum):
    IOM = "IOM"
    IIM = "IIM"


@dataclass(frozen=True)
class CandidateMerger:
    """A scored merger proposal; v1 survives the merge."""

    v1: NodeId
    v2: NodeId
    kind: MergerKind
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
    """Optional per-pair admission test by great-circle distance.

    With no threshold every pair passes. With a threshold, a pair is
    admitted only when both endpoints have coordinates and lie within
    ``threshold_km`` of each other.
    """

    coordinates: dict[NodeId, tuple[float, float]] | None = None
    threshold_km: float | None = None

    def allows(self, u: NodeId, v: NodeId) -> bool:
        if self.threshold_km is None:
            return True
        coords = self.coordinates or {}
        a = coords.get(u)
        b = coords.get(v)
        if a is None or b is None:
            return False
        return haversine_km(a, b) <= self.threshold_km


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


def _bits(m: int) -> Iterator[int]:
    """Positions of the set bits of m, lowest first."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


class NodeMasks(NamedTuple):
    """Integer bitsets over inside-node positions for one round.

    Bit i stands for ``order[i]``, the i-th inside node by id, and
    ``bit`` maps every node back to its bit (0 when outside). ``nb``
    masks each node's inside neighbors; ``tk``, ``km1`` and ``sh`` mask
    its k-truss, (k-1)-truss and shell neighbors.
    """

    order: list[NodeId]
    bit: dict[NodeId, int]
    nb: dict[NodeId, int]
    tk: dict[NodeId, int]
    km1: dict[NodeId, int]
    sh: dict[NodeId, int]

    def nodes(self, m: int) -> set[NodeId]:
        return {self.order[i] for i in _bits(m)}


@dataclass(eq=False)
class ScoringContext:
    """Everything one search round derives from the working graph.

    Holds the round's truss view, node partition and pruned outside
    nodes, and the bitsets all candidate scoring reads, built on first use.
    """

    view: TrussView
    partition: NodePartition
    pruned: set[NodeId]
    _masks: NodeMasks | None = field(default=None, init=False, repr=False)

    def node_counts(self) -> tuple[int, int, int]:
        return len(self.partition.inside), len(self.partition.outside), len(self.pruned)

    @property
    def masks(self) -> NodeMasks:
        """The round's bitsets, built on first use."""
        if self._masks is None:
            p, view = self.partition, self.view
            order = sorted(p.inside)
            bit = dict.fromkeys(p.inside_neighbors, 0)
            bit.update((v, 1 << i) for i, v in enumerate(order))

            def mask(nodes) -> int:
                return sum(map(bit.__getitem__, nodes))  # distinct bits, so sum is OR

            tk = {v: mask(view.tk_adj.get(v, ())) for v in bit}
            km1 = {v: mask(view.adj_km1.get(v, ())) for v in bit}
            nb = {v: mask(ns) for v, ns in p.inside_neighbors.items()}
            self._masks = NodeMasks(order, bit, nb, tk, km1, {v: km1[v] & ~tk[v] for v in bit})
        return self._masks

    def z_mask(self, v1: NodeId, v2: NodeId) -> int:
        """Z: inside neighbors of either node minus v1 and v1's (k-1)-truss neighbors."""
        m = self.masks
        return (m.nb[v1] | m.nb[v2]) & ~(m.km1[v1] | m.bit[v1])

    def phse_edges(self, v1: NodeId, v2: NodeId) -> tuple[int, int]:
        """(|PHSE|, |Z|): helped shell edges and star size for merging v2 onto v1.

        A new star edge (v1, x) raises the support of shell edges (x, y)
        with y new or already a neighbor of v1, and of shell edges (v1, w)
        with w adjacent to x.
        """
        m = self.masks
        z = self.z_mask(v1, v2)
        n1 = m.nb[v1]
        # an edge that already exists cannot raise any support
        new = z & ~n1
        order, nb, sh = m.order, m.nb, m.sh
        helped = twice = reach = 0
        for i in _bits(new):
            x = order[i]
            sx = sh[x]
            helped += (sx & n1).bit_count()
            twice += (sx & new).bit_count()
            reach |= nb[x]
        return helped + twice // 2 + (sh[v1] & reach).bit_count(), z.bit_count()


def _context(g: Graph, d: TrussDecomposition | None, p: NodePartition, k: int,
             ctx: ScoringContext | None = None) -> ScoringContext:
    """The given round context, or one built from (g, p, k) for the (g, d, p, k) wrappers."""
    if ctx is not None:
        return ctx
    if d is None:
        raise ValueError("either a decomposition or a scoring context is required")
    return ScoringContext(TrussView.compute(g, k), p,
                          prune_outside_maximal(p.outside, p.inside_neighbors))


def incident_prospects(p: NodePartition, d: TrussDecomposition, g: Graph, k: int, v: NodeId) -> set[NodeId]:
    """Inside neighbors of v not already its k-truss neighbors."""
    if v not in p.inside:
        raise ValueError(f"node {v} is not an inside node")
    tr = d.edge_trussness
    return {w for w in p.inside_neighbors[v] if tr.get(canon(v, w), 0) < k}


def top_inside_nodes(p: NodePartition, d: TrussDecomposition, g: Graph, k: int, n_i: int) -> list[NodeId]:
    """Inside nodes by descending incident-prospect count, ids break ties."""
    return top_inside_from_ctx(_context(g, d, p, k), n_i)


def top_outside_nodes(pruned: set[NodeId], inside_nbrs: dict[NodeId, set[NodeId]], n_o: int) -> list[NodeId]:
    """Pruned outside nodes by descending inside-degree, ids break ties."""
    scored = sorted((-len(inside_nbrs[v]), v) for v in pruned)
    return [v for _, v in scored[:n_o]]


def new_inside_neighbors(g: Graph, d: TrussDecomposition, p: NodePartition, k: int,
                         v_i: NodeId, v_o: NodeId) -> set[NodeId]:
    """Nodes the merged node would newly reach inside the (k-1)-truss.

    Z = (inside nbrs of either endpoint) minus v_i and its (k-1)-truss
    edge neighbors; the merge adds the star {(v_i, z) : z in Z}.
    """
    ctx = _context(g, d, p, k)
    return ctx.masks.nodes(ctx.z_mask(v_i, v_o))


def phse(g: Graph, d: TrussDecomposition, p: NodePartition, k: int,
         v_i: NodeId, v_o: NodeId) -> set[Edge]:
    """Shell edges whose support rises once the merger's star is added.

    Lists the edges :meth:`ScoringContext.phse_edges` counts.
    """
    ctx = _context(g, d, p, k)
    m = ctx.masks
    new = ctx.z_mask(v_i, v_o) & ~m.nb[v_i]
    out: set[Edge] = set()
    for x in m.nodes(new):
        out.update(canon(x, y) for y in m.nodes(m.sh[x] & (m.nb[v_i] | new)))
        out.update(canon(v_i, w) for w in m.nodes(m.sh[v_i] & m.nb[x]))
    return out


def iim_score(g: Graph, d: TrussDecomposition, p: NodePartition, k: int,
              v1: NodeId, v2: NodeId) -> int:
    """Reward/penalty score for merging two inside nodes."""
    if v1 == v2 or v1 not in p.inside or v2 not in p.inside:
        raise ValueError(f"iim_score needs two distinct inside nodes, got {v1} and {v2}")
    return _iim_score(_context(g, d, p, k), v1, v2)


def _iim_score(ctx: ScoringContext, v1: NodeId, v2: NodeId) -> int:
    """-collisions + gains - losses, from the round's masks.

    With N1 and N2 the inside neighborhoods less v1 and v2, collisions
    are common k-truss neighbors, gains are shell edges between N1 - N2
    and N2 - N1 (they get a brand-new common neighbor), and losses are
    shell edges inside N1 & N2 (two triangles fold into one).
    """
    m = ctx.masks
    sh = m.sh
    n1, n2 = m.nb[v1], m.nb[v2]
    only2 = n2 & ~(n1 | m.bit[v1])
    both = n1 & n2
    # the outer walks use the neighbor sets: faster than peeling mask bits
    s1, s2 = ctx.partition.inside_neighbors[v1], ctx.partition.inside_neighbors[v2]
    only1 = s1 - s2
    only1.discard(v2)
    gains = 0
    for x in only1:
        gains += (sh[x] & only2).bit_count()
    twice = 0
    if both:
        for x in s1 & s2:
            twice += (sh[x] & both).bit_count()
    return gains - twice // 2 - (m.tk[v1] & m.tk[v2]).bit_count()


def top_inside_from_ctx(ctx: ScoringContext, n_i: int) -> list[NodeId]:
    """Inside nodes by descending count of non-k-truss inside neighbors, ids break ties."""
    nb, tk = ctx.masks.nb, ctx.masks.tk
    scored = sorted((-(nb[v] & ~tk[v]).bit_count(), v) for v in ctx.masks.order)
    return [v for _, v in scored[:n_i]]


def iom_pool(ctx: ScoringContext, n_i: int, n_o: int,
             cfilter: ConstraintFilter | None) -> list[tuple[NodeId, NodeId]]:
    """(inside, outside) pairs of the top inside and top pruned outside nodes the filter admits."""
    outside = top_outside_nodes(ctx.pruned, ctx.partition.inside_neighbors, n_o)
    return [(vi, vo) for vi in top_inside_from_ctx(ctx, n_i) for vo in outside
            if cfilter is None or cfilter.allows(vi, vo)]


def iim_pool(ctx: ScoringContext, n_i: int,
             cfilter: ConstraintFilter | None) -> list[tuple[NodeId, NodeId]]:
    """Pairs of top inside nodes, smaller id first, that the filter admits."""
    pairs = ((a, b) if a < b else (b, a) for a, b in combinations(top_inside_from_ctx(ctx, n_i), 2))
    return [(v1, v2) for v1, v2 in pairs if cfilter is None or cfilter.allows(v1, v2)]


def top_candidates(cands: list[CandidateMerger], n_c: int) -> list[CandidateMerger]:
    """The n_c best candidates by :meth:`CandidateMerger.sort_key`."""
    return sorted(cands, key=CandidateMerger.sort_key)[:n_c]


def find_iom_candidates(g: Graph, d: TrussDecomposition | None, p: NodePartition, k: int,
                        n_i: int, n_o: int, n_c: int,
                        cfilter: ConstraintFilter | None = None, *,
                        ctx: ScoringContext | None = None) -> list[CandidateMerger]:
    """Top n_c inside-outside mergers from the focused node pools."""
    ctx = _context(g, d, p, k, ctx)
    # scored by |PHSE|, ties broken by |Z|
    return top_candidates([CandidateMerger(vi, vo, MergerKind.IOM, *ctx.phse_edges(vi, vo))
                           for vi, vo in iom_pool(ctx, n_i, n_o, cfilter)], n_c)


def find_iim_candidates(g: Graph, d: TrussDecomposition | None, p: NodePartition, k: int,
                        n_i: int, n_c: int,
                        cfilter: ConstraintFilter | None = None, *,
                        ctx: ScoringContext | None = None) -> list[CandidateMerger]:
    """Top n_c inside-inside mergers among the focused inside nodes."""
    ctx = _context(g, d, p, k, ctx)
    return top_candidates([CandidateMerger(v1, v2, MergerKind.IIM, _iim_score(ctx, v1, v2))
                           for v1, v2 in iim_pool(ctx, n_i, cfilter)], n_c)
