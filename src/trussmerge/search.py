"""Budgeted greedy search for node mergers that grow the k-truss.

Every method except the exhaustive NAIVE greedy runs one round loop,
:func:`greedy_loop`; only its candidate source differs. Each round peels
the working graph to its (k-1)-truss and k-truss from edge supports
carried across rounds and updated at each merged pair, partitions and
prunes nodes, asks the source for candidate mergers, evaluates every
candidate exactly, and executes the best one. BM, EQ, II and IO share
one source, the top inside-outside (IOM) plus the top inside-inside
(IIM) candidates: under BM the split of the per-round candidate budget
between the two kinds adapts toward whichever kind keeps winning, while
EQ, II and IO pin it. Random sampling and the edge-count and
triangle-count rankings are the sources in :mod:`trussmerge.baselines`;
all methods are reachable through :func:`run_method`.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

from .candidates import (CandidateMerger, ConstraintFilter, MergerKind, ScoringContext,
                         find_iim_candidates, find_iom_candidates)
from .decomposition import TrussView, _supports, merge_supports, truss_decompose
from .graph import Edge, Graph, NodeId, merge_all
from .pruning import NodePartition, prune_outside_maximal


class Method(str, Enum):
    BM = "BM"          # adaptive split between merger kinds
    EQ = "EQ"          # even split, never adapted
    II = "II"          # inside-inside candidates only
    IO = "IO"          # inside-outside candidates only
    RD = "RD"          # uniform random candidate sampling
    NE = "NE"          # rank by new inside edges
    NT = "NT"          # rank by new inside triangles
    NAIVE = "NAIVE"    # exhaustive full-evaluation greedy


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
    """Apply the mergers, re-decompose, count edges at level k."""
    if k < 3:
        raise ValueError("k must be at least 3")
    merged = merge_all(g, list(pairs)).graph
    d = truss_decompose(merged)
    return ObjectiveValue(sum(1 for t in d.edge_trussness.values() if t >= k))


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


def build_round_state(work: Graph, k: int, sup: dict[Edge, int] | None = None) -> ScoringContext:
    """Recompute trusses, partition and pruning; ``sup`` as in :meth:`TrussView.compute`."""
    view = TrussView.compute(work, k, sup)
    inside = view.nodes_km1
    inside_neighbors = {v: ns & inside for v, ns in work.adj.items()}
    p = NodePartition(inside, set(work.adj) - inside, inside_neighbors)
    return ScoringContext(view, p, prune_outside_maximal(p.outside, p.inside_neighbors))


# (config, round state, the run's random source, n_io) -> the round's candidates
CandidateSource = Callable[[RunConfig, ScoringContext, random.Random, int], list[CandidateMerger]]


def _split_candidates(cfg: RunConfig, state: ScoringContext, rng: random.Random,
                      n_io: int) -> list[CandidateMerger]:
    """The top n_io IOM plus the top n_c - n_io IIM candidates."""
    g, p = state.view.g, state.partition
    cands: list[CandidateMerger] = []
    if n_io > 0:
        cands += find_iom_candidates(g, None, p, cfg.k, cfg.n_i, cfg.n_o, n_io, cfg.filter,
                                     ctx=state)
    if cfg.n_c - n_io > 0:
        cands += find_iim_candidates(g, None, p, cfg.k, cfg.n_i, cfg.n_c - n_io, cfg.filter,
                                     ctx=state)
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
    sup = _supports(work.adj)
    initial, counts, skipped = 0, None, 0
    steps: list[MergerStep] = []
    for rnd in range(cfg.b):
        t0 = time.perf_counter()
        state = build_round_state(work, cfg.k, sup)
        if rnd == 0:
            initial, counts = state.view.tk_size, state.node_counts()
        cands = source(cfg, state, rng, n_io)
        if not cands:
            # nothing merged, so every later round would see this same graph
            skipped = cfg.b - rnd
            break
        sizes = [state.view.truss_size_after_merge(c.v1, c.v2) for c in cands]
        # the largest evaluation wins; equal sizes fall to the smallest pair ids
        best, best_size = min(zip(cands, sizes), key=lambda cs: (-cs[1], cs[0].v1, cs[0].v2))
        if not cfg.allow_no_op and best_size <= state.view.tk_size:
            break
        merge_supports(work, sup, best.v1, best.v2)
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
    cfg.validate()
    if cfg.method in (Method.BM, Method.EQ, Method.II, Method.IO):
        return adaptive_search(g, cfg)
    from . import baselines

    if cfg.method is Method.RD:
        return baselines.baseline_rd(g, cfg)
    if cfg.method is Method.NE:
        return baselines.baseline_ne(g, cfg)
    if cfg.method is Method.NT:
        return baselines.baseline_nt(g, cfg)
    return baselines.naive_greedy(g, cfg.k, cfg.b)
