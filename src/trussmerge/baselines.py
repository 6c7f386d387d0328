"""Reference strategies and constructed instances.

Holds the candidate sources of the exhaustive greedy (every pair, each
evaluated exactly) and of the three cheap ranking baselines (random
sampling, new-edge count, new-triangle count), a brute-force
single-merger oracle kept deliberately independent of the fast
evaluation path, and generators for the element-coverage gadget graphs
used to probe worst-case behavior of the objective.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from math import isqrt
from typing import Iterable

import numpy as np

from .candidates import (CandidateMerger, MergerKind, ScoringContext, _cross, _int, best_pairs,
                         top_outside_nodes)
# truss_decompose and build_round_state are not called here: perfbench/tracing.py looks
# them up in this module, as in cli and search, to span decompositions and state builds
from .decomposition import truss_decompose  # noqa: F401
from .graph import Graph, NodeId
from .search import Method, MergerPlan, RunConfig, build_round_state, greedy_loop, objective  # noqa: F401

BRUTE_FORCE_NODE_LIMIT = 200

# node labels of the element-coverage gadget
T_LABEL = "t{j}_{p}_{side}"
S_LABEL = "s{i}_{side}"
R_LABEL = "r{q}"

Pair = tuple[NodeId, NodeId]


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
        size = objective(g, k, [(u, v)]).size
        if size > best_size:
            best_pair = (u, v)
            best_size = size
    if best_pair is None:
        raise ValueError("need at least one candidate pair")
    return best_pair, best_size


def _naive_candidates(cfg: RunConfig, state: ScoringContext, rng: random.Random,
                      n_io: int) -> list[CandidateMerger]:
    """Every admitted pair of the working graph; the loop evaluates each one exactly."""
    g = state.view.g
    if g.node_count > BRUTE_FORCE_NODE_LIMIT:
        raise ValueError(f"the exhaustive greedy is limited to {BRUTE_FORCE_NODE_LIMIT} nodes")
    return [CandidateMerger(u, v, None, 0) for u, v in combinations(g.nodes(), 2)
            if cfg.filter is None or cfg.filter.allows(u, v)]


def naive_greedy(g: Graph, k: int, b: int) -> MergerPlan:
    """Greedy over all node pairs, each evaluated exactly (same guard as the oracle)."""
    return _baseline_loop(g, RunConfig(k=k, b=b, method=Method.NAIVE), _naive_candidates)


# the tracer spans every RD, NE, NT and NAIVE run under this name
_baseline_loop = greedy_loop


def _rd_candidates(cfg: RunConfig, state: ScoringContext, rng: random.Random,
                  n_io: int) -> list[CandidateMerger]:
    inside = state.order
    pruned = sorted(state.pruned)
    ni, no = len(inside), len(pruned)
    n_ii = ni * (ni - 1) // 2
    total = n_ii + ni * no

    def decode(i: int) -> tuple[NodeId, NodeId, MergerKind]:
        if i < n_ii:  # row a starts at a*(2ni-a-1)/2: a is the last row starting at or before i
            a = ni - 2 - (isqrt(4 * ni * (ni - 1) - 8 * i - 7) - 1) // 2
            return inside[a], inside[a + 1 + i - a * (2 * ni - a - 1) // 2], MergerKind.IIM
        j = i - n_ii
        return inside[j // no], pruned[j % no], MergerKind.IOM

    if total == 0:
        return []
    if cfg.filter is None:
        picks = rng.sample(range(total), min(cfg.n_c, total))
        chosen = [decode(i) for i in picks]
    else:
        # admitted pairs in decode's order: sample draws alike from a range and from a list
        a, b = np.nonzero(np.triu(cfg.filter.within(inside, inside), 1))
        c, d = np.nonzero(cfg.filter.within(inside, pruned))
        allowed = len(a) + len(c)
        chosen = [(inside[a[i]], inside[b[i]], MergerKind.IIM) if i < len(a)
                  else (inside[c[i - len(a)]], pruned[d[i - len(a)]], MergerKind.IOM)
                  for i in rng.sample(range(allowed), min(cfg.n_c, allowed))]
    return [CandidateMerger(v1, v2, kind, 0) for v1, v2, kind in chosen]


def baseline_rd(g: Graph, cfg: RunConfig) -> MergerPlan:
    """Uniform random candidate pairs from the full merger pools."""
    return _baseline_loop(g, cfg, _rd_candidates)


def _ne_candidates(cfg: RunConfig, state: ScoringContext, rng: random.Random,
                  n_io: int) -> list[CandidateMerger]:
    inside = state.ranking[:cfg.n_i]
    outside = top_outside_nodes(state, cfg.n_o)
    return best_pairs(MergerKind.IOM, inside, outside, cfg.n_c, cfg.filter, state.z_sizes(inside, outside))


def baseline_ne(g: Graph, cfg: RunConfig) -> MergerPlan:
    """Rank inside-outside mergers by how many inside edges they add.

    Inside-inside mergers only ever collapse edges, so they are not
    generated here.
    """
    return _baseline_loop(g, cfg, _ne_candidates)


def _nt_candidates(cfg: RunConfig, state: ScoringContext, rng: random.Random,
                  n_io: int) -> list[CandidateMerger]:
    # with E(S) the inside edges within S, the union's E less the parts' is the inside cross form
    top = state.ranking[:cfg.n_i]
    outside = top_outside_nodes(state, cfg.n_o)
    x, y, c, edges = state.rows(top), state.rows(outside), state.col[top], state.inside_edges
    n1 = _int(x.sum(1))
    # adjacent nodes leave the union with |N1| + |N2| - 1 edges; their |N1 & N2| triangles count once
    iim = _cross(x, x, *edges) - _int(x[:, c]) * (n1[:, None] + n1 - 1 - _int(x @ x.T))
    # v1 leaves the union with its |N1| edges when it is in N2
    iom = _cross(x, y, *edges) - np.diagonal(_cross(y, y, *edges)) - _int(y[:, c].T) * n1[:, None]
    cands = best_pairs(MergerKind.IIM, top, top, cfg.n_c, cfg.filter, iim) \
        + best_pairs(MergerKind.IOM, top, outside, cfg.n_c, cfg.filter, iom)
    return sorted(cands, key=CandidateMerger.sort_key)[:cfg.n_c]


def baseline_nt(g: Graph, cfg: RunConfig) -> MergerPlan:
    """Rank candidate pairs by the exact triangle gain among inside nodes.

    The gain is the change in triangles of the graph induced on the
    (k-1)-truss node set once the pair is merged: edge counts within
    neighborhood unions, scored for a whole pool by the matrix products
    of :mod:`trussmerge.candidates` instead of a recount.
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
    tlab = T_LABEL.format
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
        s1 = S_LABEL.format(i=i, side=1)
        s2 = S_LABEL.format(i=i, side=2)
        nodes.append(s1)
        nodes.append(s2)
        for j in sorted(members):
            for p in range(1, d + 1):
                pairs.append((s1, tlab(j=j, p=p, side=1)))
                pairs.append((s2, tlab(j=j, p=p, side=2)))
    r_count = spec.k - 3 if spec.r_count is None else spec.r_count
    for q in range(1, r_count + 1):
        r = R_LABEL.format(q=q)
        nodes.append(r)
        for j in range(1, m + 1):
            for p in range(1, d + 1):
                for side in (1, 2):
                    pairs.append((r, tlab(j=j, p=p, side=side)))
    return Graph.from_edges(pairs, nodes=nodes)


def set_merge_pairs(g: Graph, indices: Iterable[int]) -> list[Pair]:
    """Node-id pairs (terminal 1, terminal 2) for the chosen set indices."""
    out = []
    for i in indices:
        out.append((g.node_of(S_LABEL.format(i=i, side=1)),
                    g.node_of(S_LABEL.format(i=i, side=2))))
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
    s1, s2, s3 = set_merge_pairs(g, (1, 2, 3))
    return g, (s1,), (s1, s2), s3
