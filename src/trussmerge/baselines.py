"""Reference strategies and constructed instances.

Holds the exhaustive greedy (every pair, full recomputation), the three
cheap ranking baselines (random sampling, new-edge count, new-triangle
count), a brute-force single-merger oracle kept deliberately independent
of the fast evaluation path, and generators for the element-coverage
gadget graphs used to probe worst-case behavior of the objective.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .candidates import (CandidateMerger, MergerKind, ScoringContext, iim_pool, iom_pool,
                         top_candidates, top_inside_from_ctx)
from .decomposition import truss_decompose
from .graph import Graph, NodeId
# build_round_state is not called here: the tracer in perfbench/tracing.py
# looks it up in this module, as in cli and search, to span round-state builds
from .search import MergerPlan, MergerStep, RunConfig, build_round_state, greedy_loop  # noqa: F401

BRUTE_FORCE_NODE_LIMIT = 200

Pair = tuple[NodeId, NodeId]


def _full_merge_size(g: Graph, k: int, u: NodeId, v: NodeId) -> int:
    # deliberately the slow path: merge, then decompose everything
    d = truss_decompose(g.merge(u, v))
    return sum(1 for t in d.edge_trussness.values() if t >= k)


def brute_force_best_merger(g: Graph, k: int, pairs: Iterable[Pair] | None = None) -> tuple[Pair, int]:
    """Exact best single merger by full recomputation over every pair.

    Ties go to the earliest pair in iteration order (lexicographic when
    enumerating all pairs). Guarded to small graphs; pass ``pairs`` to
    restrict the enumeration to a candidate pool.
    """
    if k < 3:
        raise ValueError("k must be at least 3")
    if g.node_count > BRUTE_FORCE_NODE_LIMIT:
        raise ValueError(f"brute force enumeration is limited to {BRUTE_FORCE_NODE_LIMIT} nodes")
    if pairs is None:
        pairs = combinations(g.nodes(), 2)
    best_pair: Pair | None = None
    best_size = -1
    for u, v in pairs:
        size = _full_merge_size(g, k, u, v)
        if size > best_size:
            best_pair = (u, v)
            best_size = size
    if best_pair is None:
        raise ValueError("need at least one candidate pair")
    return best_pair, best_size


def naive_greedy(g: Graph, k: int, b: int) -> MergerPlan:
    """Greedy over all node pairs with full re-evaluation each round.

    The cost is quadratic in nodes with a full decomposition per pair,
    so this is only usable on small graphs (same guard as the oracle).
    """
    if b < 1:
        raise ValueError("budget must be at least 1")
    d = truss_decompose(g)
    initial = sum(1 for t in d.edge_trussness.values() if t >= k)
    work = g.copy()
    steps: list[MergerStep] = []
    for _ in range(b):
        if work.node_count < 2:
            break
        t0 = time.perf_counter()
        evaluated = work.node_count * (work.node_count - 1) // 2
        (v1, v2), size = brute_force_best_merger(work, k)
        work._merge_inplace(v1, v2)
        steps.append(MergerStep(v1, v2, None, size, 0, evaluated, time.perf_counter() - t0))
    return MergerPlan(k, initial, tuple(steps))


def _baseline_loop(g: Graph, cfg: RunConfig, make_candidates) -> MergerPlan:
    """The shared greedy loop with a baseline's candidate source; ``n_io`` stays 0.

    Every RD, NE and NT run enters here, so a trace spans each one once.
    """
    return greedy_loop(g, cfg, make_candidates)


def _rd_candidates(cfg: RunConfig, state: ScoringContext, rng: random.Random,
                  n_io: int) -> list[CandidateMerger]:
    inside = sorted(state.partition.inside)
    pruned = sorted(state.pruned)
    ni, no = len(inside), len(pruned)
    n_ii = ni * (ni - 1) // 2
    total = n_ii + ni * no

    def decode(i: int) -> tuple[NodeId, NodeId, MergerKind]:
        if i < n_ii:
            a, rem = 0, i
            while rem >= ni - 1 - a:
                rem -= ni - 1 - a
                a += 1
            return inside[a], inside[a + 1 + rem], MergerKind.IIM
        j = i - n_ii
        return inside[j // no], pruned[j % no], MergerKind.IOM

    if total == 0:
        return []
    if cfg.filter is None:
        picks = rng.sample(range(total), min(cfg.n_c, total))
        chosen = [decode(i) for i in picks]
    else:
        allowed = [decode(i) for i in range(total)]
        allowed = [c for c in allowed if cfg.filter.allows(c[0], c[1])]
        if not allowed:
            return []
        chosen = rng.sample(allowed, min(cfg.n_c, len(allowed)))
    return [CandidateMerger(v1, v2, kind, 0) for v1, v2, kind in chosen]


def baseline_rd(g: Graph, cfg: RunConfig) -> MergerPlan:
    """Uniform random candidate pairs from the full merger pools."""
    return _baseline_loop(g, cfg, _rd_candidates)


def _ne_candidates(cfg: RunConfig, state: ScoringContext, rng: random.Random,
                  n_io: int) -> list[CandidateMerger]:
    return top_candidates([CandidateMerger(vi, vo, MergerKind.IOM, state.z_mask(vi, vo).bit_count())
                           for vi, vo in iom_pool(state, cfg.n_i, cfg.n_o, cfg.filter)], cfg.n_c)


def baseline_ne(g: Graph, cfg: RunConfig) -> MergerPlan:
    """Rank inside-outside mergers by how many inside edges they add.

    Inside-inside mergers only ever collapse edges, so they are not
    generated here.
    """
    return _baseline_loop(g, cfg, _ne_candidates)


def _nt_candidates(cfg: RunConfig, state: ScoringContext, rng: random.Random,
                  n_io: int) -> list[CandidateMerger]:
    m = state.masks
    bm, bit, order = m.nb, m.bit, m.order

    def edges_within(mask: int) -> int:
        total = 0
        mm = mask
        while mm:
            low = mm & -mm
            total += (bm[order[low.bit_length() - 1]] & mask).bit_count()
            mm ^= low
        return total // 2

    tri_at = {v: edges_within(bm[v]) for v in top_inside_from_ctx(state, cfg.n_i)}
    out: list[CandidateMerger] = []
    for v1, v2 in iim_pool(state, cfg.n_i, cfg.filter):
        joint = (bm[v1] | bm[v2]) & ~(bit[v1] | bit[v2])
        t12 = (bm[v1] & bm[v2]).bit_count() if v2 in state.partition.inside_neighbors[v1] else 0
        delta = edges_within(joint) - tri_at[v1] - tri_at[v2] + t12
        out.append(CandidateMerger(v1, v2, MergerKind.IIM, delta))
    for v1, v2 in iom_pool(state, cfg.n_i, cfg.n_o, cfg.filter):
        joint = (bm[v1] | bm[v2]) & ~bit[v1]
        out.append(CandidateMerger(v1, v2, MergerKind.IOM, edges_within(joint) - tri_at[v1]))
    return top_candidates(out, cfg.n_c)


def baseline_nt(g: Graph, cfg: RunConfig) -> MergerPlan:
    """Rank candidate pairs by the exact triangle gain among inside nodes.

    The gain is the change in triangles of the graph induced on the
    (k-1)-truss node set once the pair is merged, computed with bitset
    neighborhoods instead of a recount.
    """
    return _baseline_loop(g, cfg, _nt_candidates)


@dataclass(frozen=True)
class FixtureSpec:
    """Element-coverage gadget layout.

    ``sets`` holds 1-based element ids; each element j gets d node pairs
    (two sides) wired side-1 to side-2 across distinct pair indices, each
    set i gets two terminal nodes wired to its elements' sides, and
    ``r_count`` anchor nodes (k-3 when unset) attach to every element
    node. Merging a set's two terminals fuses its elements' sides into
    triangle-rich blocks.
    """

    sets: tuple[frozenset[int], ...]
    k: int
    d: int
    r_count: int | None = None
    t_label: str = "t{j}_{p}_{side}"
    s_label: str = "s{i}_{side}"
    r_label: str = "r{q}"

    @property
    def element_count(self) -> int:
        return max((max(s) for s in self.sets if s), default=0)

    def validate(self) -> None:
        if self.d < 1:
            raise ValueError("d must be at least 1")
        if self.k < 3:
            raise ValueError("k must be at least 3")
        if self.r_count is not None and self.r_count < 0:
            raise ValueError("r_count must be non-negative")
        for s in self.sets:
            for j in s:
                if j < 1:
                    raise ValueError("elements are 1-based ids")


def hardness_fixture(spec: FixtureSpec) -> Graph:
    """Build the gadget graph for an element-coverage instance."""
    spec.validate()
    m = spec.element_count
    d = spec.d
    tlab = spec.t_label.format
    pairs: list[tuple[str, str]] = []
    nodes: list[str] = []
    for j in range(1, m + 1):
        for p in range(1, d + 1):
            nodes.append(tlab(j=j, p=p, side=1))
            nodes.append(tlab(j=j, p=p, side=2))
        for p in range(1, d + 1):
            for q in range(1, d + 1):
                if p != q:
                    pairs.append((tlab(j=j, p=p, side=1), tlab(j=j, p=q, side=2)))
    for i, members in enumerate(spec.sets, start=1):
        s1 = spec.s_label.format(i=i, side=1)
        s2 = spec.s_label.format(i=i, side=2)
        nodes.append(s1)
        nodes.append(s2)
        for j in sorted(members):
            for p in range(1, d + 1):
                pairs.append((s1, tlab(j=j, p=p, side=1)))
                pairs.append((s2, tlab(j=j, p=p, side=2)))
    r_count = spec.k - 3 if spec.r_count is None else spec.r_count
    for q in range(1, r_count + 1):
        r = spec.r_label.format(q=q)
        nodes.append(r)
        for j in range(1, m + 1):
            for p in range(1, d + 1):
                for side in (1, 2):
                    pairs.append((r, tlab(j=j, p=p, side=side)))
    return Graph.from_edges(pairs, nodes=nodes)


def set_merge_pairs(g: Graph, spec: FixtureSpec, indices: Iterable[int]) -> list[Pair]:
    """Node-id pairs (terminal 1, terminal 2) for the chosen set indices."""
    out = []
    for i in indices:
        out.append((g.node_of(spec.s_label.format(i=i, side=1)),
                    g.node_of(spec.s_label.format(i=i, side=2))))
    return out


def nonsubmodularity_witness(d: int = 6) -> tuple[Graph, tuple[Pair, ...], tuple[Pair, ...], Pair]:
    """A concrete instance where the objective's marginal gains increase.

    Three sets over four elements, evaluated at k=5 with a single anchor
    node: an element needs two merged set terminals on top of the anchor
    before its gadget can survive, so the first merger alone achieves
    nothing while the same merger after an overlapping one unlocks a
    whole block. Returns (graph, X, Y, x) with X a single merger, Y two
    overlapping ones, and x a merger disjoint from X. The smallest d for
    which the inequality holds is 4; below that the surviving blocks
    fall apart entirely.
    """
    spec = FixtureSpec(sets=(frozenset({1, 2}), frozenset({2, 3}), frozenset({3, 4})),
                       k=5, d=d, r_count=1)
    g = hardness_fixture(spec)
    s1, s2, s3 = set_merge_pairs(g, spec, (1, 2, 3))
    return g, (s1,), (s1, s2), s3
