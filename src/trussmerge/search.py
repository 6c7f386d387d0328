"""Budgeted greedy search for node mergers that grow the k-truss.

Every method runs one round loop, :func:`greedy_loop`; only its
candidate source differs. Round 0 peels the working graph to its
(k-1)-truss and k-truss from edge supports; each later round executes
the previous winner and repairs both trusses near the merged node with
the lift-then-peel that evaluates candidates (:meth:`TrussView.merge`).
A round then partitions and prunes nodes, asks the source for candidate
mergers, and picks the best one by exact evaluation, which stops early
for any candidate that provably cannot beat the best so far. BM, EQ, II
and IO share one source, the top inside-outside (IOM) plus the top
inside-inside (IIM) candidates: under BM the split of the per-round
candidate budget between the two kinds adapts toward whichever kind
keeps winning, while EQ, II and IO pin it.
Random sampling, the edge-count and triangle-count rankings, and
NAIVE's every pair are the sources in :mod:`trussmerge.baselines`; all
methods are reachable through :func:`run_method`.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

from .candidates import (CandidateMerger, ConstraintFilter, MergerKind, ScoringContext,
                         find_iim_candidates, find_iom_candidates)
# truss_decompose is not called here: perfbench/tracing.py looks it up in this module
from .decomposition import TrussView, _peel, _supports, truss_decompose  # noqa: F401
from .graph import Graph, NodeId, merge_all
from .pruning import NodePartition, prune_outside_maximal


class Method(str, Enum):
    BM = "BM"          # adaptive split between merger kinds
    EQ = "EQ"          # even split, never adapted
    II = "II"          # inside-inside candidates only
    IO = "IO"          # inside-outside candidates only
    RD = "RD"          # uniform random candidate sampling
    NE = "NE"          # rank by new inside edges
    NT = "NT"          # rank by new inside triangles
    NAIVE = "NAIVE"    # every pair is a candidate


@dataclass(frozen=True)
class RunConfig:
    """Knobs for one maximization run; defaults mirror the study setup."""

    k: int
    b: int = 10
    n_i: int = 100
    n_o: int = 50
    n_c: int = 10
    method: Method = Method.BM
    seed: int = 0
    filter: ConstraintFilter | None = None
    allow_no_op: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "method", Method(self.method))

    def validate(self) -> None:
        if self.k < 3:
            raise ValueError("k must be at least 3")
        if self.b < 1:
            raise ValueError("budget must be at least 1")
        if self.n_c < 1 or self.n_i < 1 or self.n_o < 1:
            raise ValueError("candidate counts must be at least 1")


@dataclass(frozen=True)
class MergerStep:
    """One executed merger: the pair, its kind, and the measured size."""

    v1: NodeId
    v2: NodeId
    kind: MergerKind | None
    size_after: int
    n_io: int = 0
    evaluated: int = 0
    wall_time: float = 0.0


@dataclass(frozen=True)
class MergerPlan:
    """Ordered mergers with sizes as measured, not assumed monotone."""

    k: int
    initial_size: int
    steps: tuple[MergerStep, ...] = ()
    skipped_rounds: int = 0
    # inside, outside and pruned outside node counts of round 0
    node_counts: tuple[int, int, int] | None = None

    @property
    def final_size(self) -> int:
        return self.steps[-1].size_after if self.steps else self.initial_size

    def pairs(self) -> list[tuple[NodeId, NodeId]]:
        return [(s.v1, s.v2) for s in self.steps]


@dataclass(frozen=True)
class ObjectiveValue:
    """k-truss edge count after applying a merger set."""

    size: int


def objective(g: Graph, k: int, pairs: Sequence[tuple[NodeId, NodeId]] = ()) -> ObjectiveValue:
    """Apply the mergers, then peel the merged graph from scratch to its k-truss and count its edges."""
    if k < 3:
        raise ValueError("k must be at least 3")
    adj = merge_all(g, list(pairs)).graph.adj  # the merged copy's own sets, so the peel may mutate them
    sup = _supports(adj)
    _peel(adj, sup, k)
    return ObjectiveValue(len(sup))


def adaptive_update(n_io: int, winner: MergerKind, n_c: int, b: int) -> int:
    """Shift the candidate budget toward the winning merger kind.

    The step is floor(n_c / b); both kinds always keep at least that
    floor so neither pool starves for the rest of the run. When b > n_c
    the step is 0, so BM never moves n_io and plans exactly like EQ.
    """
    step = n_c // b
    if winner is MergerKind.IOM:
        cap = (n_c * (b - 1) + b - 1) // b
        return min(n_io + step, cap)
    return max(n_io - step, step)


def _initial_n_io(cfg: RunConfig) -> int:
    return {Method.II: 0, Method.IO: cfg.n_c}.get(cfg.method, cfg.n_c // 2)


def build_round_state(work: Graph, k: int,
                      carried: tuple[TrussView, NodeId, NodeId] | None = None) -> ScoringContext:
    """The round's ScoringContext (trusses, partition, pruning).

    With ``carried`` = (the previous round's view of ``work``, v1, v2), merges
    v2 into v1 in ``work`` and carries that view across the merge
    (:meth:`TrussView.merge`) instead of computing a new one.
    """
    if carried is None:
        view = TrussView.compute(work, k)
    else:
        view, v1, v2 = carried
        view.merge(v1, v2)
    p = NodePartition.of(work, view.nodes_km1)
    return ScoringContext(view, p, prune_outside_maximal(p.outside, p.inside_neighbors))


# (config, round state, the run's random source, n_io) -> the round's candidates
CandidateSource = Callable[[RunConfig, ScoringContext, random.Random, int], list[CandidateMerger]]


def _split_candidates(cfg: RunConfig, state: ScoringContext, rng: random.Random,
                      n_io: int) -> list[CandidateMerger]:
    """The top n_io IOM plus the top n_c - n_io IIM candidates."""
    cands: list[CandidateMerger] = []
    if n_io > 0:
        cands += find_iom_candidates(state, cfg.n_i, cfg.n_o, n_io, cfg.filter)
    if cfg.n_c - n_io > 0:
        cands += find_iim_candidates(state, cfg.n_i, cfg.n_c - n_io, cfg.filter)
    return cands


def greedy_loop(g: Graph, cfg: RunConfig, source: CandidateSource, n_io: int = 0) -> MergerPlan:
    """Run the budgeted greedy rounds on a copy of g, taking candidates from ``source``.

    ``n_io`` is passed to the source and reported in every step; only BM's
    split source moves it between rounds.
    """
    cfg.validate()
    work = g.copy()
    rng = random.Random(cfg.seed)
    adapt = source is _split_candidates and cfg.method is Method.BM
    initial, counts, skipped, carried = 0, None, 0, None
    steps: list[MergerStep] = []
    for rnd in range(cfg.b):
        t0 = time.perf_counter()
        state = build_round_state(work, cfg.k, carried)
        if rnd == 0:
            initial, counts = state.view.tk_size, state.node_counts()
        cands = source(cfg, state, rng, n_io)
        if not cands:
            # nothing merged, so every later round would see this same graph
            skipped = cfg.b - rnd
            break
        # the largest size wins, equal sizes fall to the smallest pair ids. The pairs
        # with most neighbours go first; an evaluation stops once it cannot win (its
        # floor), so every one that completes is the new best.
        adj, best, best_size = work.adj, None, 0
        for c in sorted(cands, key=lambda c: -len(adj[c.v1] | adj[c.v2])):
            floor = None if best is None else best_size + ((c.v1, c.v2) >= (best.v1, best.v2))
            size = state.view.truss_size_after_merge(c.v1, c.v2, floor)
            if floor is None or size >= floor:
                best, best_size = c, size
        if not cfg.allow_no_op and best_size <= state.view.tk_size:
            break
        carried = (state.view, best.v1, best.v2)  # merged by the next round's build
        del state  # so that two rounds' partitions and caches are never alive together
        steps.append(MergerStep(best.v1, best.v2, best.kind, best_size, n_io,
                                len(cands), time.perf_counter() - t0))
        if adapt:
            n_io = adaptive_update(n_io, best.kind, cfg.n_c, cfg.b)
    return MergerPlan(cfg.k, initial, tuple(steps), skipped, counts)


def adaptive_search(g: Graph, cfg: RunConfig) -> MergerPlan:
    """Run the greedy loop for methods BM, EQ, II and IO."""
    return greedy_loop(g, cfg, _split_candidates, _initial_n_io(cfg))


def run_method(g: Graph, cfg: RunConfig) -> MergerPlan:
    """Dispatch a run to the configured method's implementation."""
    if cfg.method in (Method.BM, Method.EQ, Method.II, Method.IO):
        return adaptive_search(g, cfg)
    from . import baselines

    if cfg.method is Method.RD:
        return baselines.baseline_rd(g, cfg)
    if cfg.method is Method.NE:
        return baselines.baseline_ne(g, cfg)
    if cfg.method is Method.NT:
        return baselines.baseline_nt(g, cfg)
    return baselines._baseline_loop(g, cfg, baselines._naive_candidates)
