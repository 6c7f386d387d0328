"""Span recorder that instruments the package from outside.

Each layer entry point is replaced, for the duration of a traced pass,
by a wrapper installed under the name its caller looks up (a module
global, a class attribute or a ``METRIC_FUNCS`` entry); ``uninstall``
puts the originals back. A span holds its name, start, end, parent span
and pass id; spans stay in memory until the run writes them out. A few
hot call sites only bump a counter instead of opening a span.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from pathlib import Path

_CLOCK = time.perf_counter

# per-layer metric -> (layer, the end-to-end metric it should move)
LAYER_MAP = {
    "graph.parse_s": ("graph", "setup_s on every workload"),
    "graph.copy_merge_calls": ("graph", "wall_s on robust-er50"),
    "graph.copy_merge_s": ("graph", "wall_s on robust-er50"),
    "decomposition.decompose_s": ("decomposition", "wall_s on search-k5 (small)"),
    "decomposition.view_calls": ("decomposition", "wall_s on random-k5 (most) and search-k5"),
    "decomposition.view_s": ("decomposition", "wall_s on random-k5 (most) and search-k5"),
    "decomposition.eval_calls": ("decomposition", "wall_s on random-k5 (most) and search-k5"),
    "decomposition.eval_s": ("decomposition", "wall_s on random-k5 (most) and search-k5"),
    "decomposition.eval_improving_ratio": ("decomposition", "none: plan quality, base eval_calls"),
    "pruning.prune_s": ("pruning", "wall_s on search-k5 and random-k5 (small)"),
    "pruning.kept_ratio": ("pruning", "wall_s on search-k5 and random-k5 (small), base pruning.outside_nodes"),
    "pruning.outside_nodes": ("pruning", "none: base of kept_ratio"),
    "candidates.iom_s": ("candidates", "wall_s on search-k5"),
    "candidates.iom_pairs": ("candidates", "wall_s on search-k5"),
    "candidates.iim_s": ("candidates", "wall_s on search-k5"),
    "candidates.iim_pairs": ("candidates", "wall_s on search-k5"),
    "search.state_calls": ("search", "wall_s on every truss workload"),
    "search.state_s": ("search", "wall_s on every truss workload"),
    "search.rounds": ("search", "wall_s on every truss workload"),
    "search.skipped_rounds": ("search", "wall_s on every truss workload"),
    "search.loop_self_s": ("search", "wall_s on every truss workload"),
    "search.truss_gain": ("search", "none: plan quality, must not drop"),
    "baselines.rd_candidates_s": ("baselines", "wall_s on random-k5"),
    "metrics.betweenness_calls": ("metrics", "wall_s on robust-er50"),
    "metrics.betweenness_s": ("metrics", "wall_s on robust-er50"),
    "metrics.spectral_calls": ("metrics", "wall_s on robust-er50"),
    "metrics.spectral_s": ("metrics", "wall_s on robust-er50"),
    "metrics.eigvalsh_calls": ("metrics", "wall_s on robust-er50"),
    "metrics.candidate_graphs": ("metrics", "wall_s on robust-er50"),
    "metrics.other_self_s": ("metrics", "wall_s on robust-er50"),
    "cli.self_s": ("cli", "wall_s on every workload"),
    "trace.wall_s": ("trace", "none: traced pass time"),
    "trace.overhead_s": ("trace", "none: traced minus untraced wall_s"),
    "trace.unattributed_s": ("trace", "none: traced wall_s outside every span"),
}

# span group -> per-layer metric that receives its self time
SELF_TIME = {
    "graph.parse": "graph.parse_s",
    "graph.copy_merge": "graph.copy_merge_s",
    "decomposition.decompose": "decomposition.decompose_s",
    "decomposition.view": "decomposition.view_s",
    "decomposition.eval": "decomposition.eval_s",
    "pruning.prune": "pruning.prune_s",
    "candidates.iom": "candidates.iom_s",
    "candidates.iim": "candidates.iim_s",
    "search.state": "search.state_s",
    "search.loop": "search.loop_self_s",
    "baselines.rd_candidates": "baselines.rd_candidates_s",
    "metrics.betweenness": "metrics.betweenness_s",
    "metrics.spectral": "metrics.spectral_s",
    "metrics.other": "metrics.other_self_s",
    "cli": "cli.self_s",
}

CALLS = {
    "decomposition.view": "decomposition.view_calls",
    "decomposition.eval": "decomposition.eval_calls",
    "search.state": "search.state_calls",
    "metrics.betweenness": "metrics.betweenness_calls",
    "metrics.spectral": "metrics.spectral_calls",
}


class Recorder:
    """In-memory spans and counters for the traced passes of one run."""

    def __init__(self) -> None:
        self.spans: list[list] = []     # [name, group, start, end, parent, pass]
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.pass_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, object, object]] = []

    # -- wrappers --------------------------------------------------------

    def _span(self, name, group, fn, on_return=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, group, 0.0, 0.0, stack[-1] if stack else -1, self.pass_id]
            spans.append(rec)
            stack.append(idx)
            rec[2] = _CLOCK()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = _CLOCK()
                stack.pop()
            if on_return is not None:
                on_return(self.counts[self.pass_id], args, result)
            return result
        return wrapper

    def _counter(self, key, fn):
        def wrapper(*args, **kwargs):
            self.counts[self.pass_id][key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr, make):
        if isinstance(owner, dict):
            orig = owner[attr]
            owner[attr] = make(orig)
        elif isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = make(getattr(owner, attr))
                setattr(owner, attr, classmethod(lambda cls, *a, _w=wrapped, **kw: _w(*a, **kw)))
            else:
                setattr(owner, attr, make(raw))
            orig = raw
        else:
            orig = getattr(owner, attr)
            setattr(owner, attr, make(orig))
        self._saved.append((owner, attr, orig))

    def span_at(self, owner, attr, group, label, on_return=None):
        name = label if isinstance(owner, dict) else f"{label}.{attr}"
        self._patch(owner, attr, lambda fn: self._span(name, group, fn, on_return))

    def count_at(self, owner, attr, key):
        self._patch(owner, attr, lambda fn: self._counter(key, fn))

    def install(self) -> None:
        import numpy as np
        from trussmerge import baselines, candidates, cli, metrics, search
        from trussmerge.decomposition import TrussView
        from trussmerge.graph import Graph

        def on_eval(c, args, size):
            c["eval_improving"] += size > args[0].tk_size

        def on_prune(c, args, kept):
            c["prune_outside"] += len(args[0])
            c["prune_kept"] += len(kept)

        def on_plan(c, args, plan):
            c["rounds"] += len(plan.steps) + plan.skipped_rounds
            c["skipped_rounds"] += plan.skipped_rounds

        self.span_at(cli, "main", "cli", "trussmerge.cli")
        self.span_at(Graph, "from_edge_list", "graph.parse", "trussmerge.graph.Graph")
        for attr in ("merge", "copy"):
            self.span_at(Graph, attr, "graph.copy_merge", "trussmerge.graph.Graph")
        for mod in (cli, search, baselines):
            self.span_at(mod, "truss_decompose", "decomposition.decompose", mod.__name__)
            self.span_at(mod, "build_round_state", "search.state", mod.__name__)
        self.span_at(TrussView, "compute", "decomposition.view", "trussmerge.decomposition.TrussView")
        self.span_at(TrussView, "truss_size_after_merge", "decomposition.eval",
                     "trussmerge.decomposition.TrussView", on_eval)
        self.span_at(search, "prune_outside_maximal", "pruning.prune", "trussmerge.search", on_prune)
        self.span_at(search, "find_iom_candidates", "candidates.iom", "trussmerge.search")
        self.span_at(search, "find_iim_candidates", "candidates.iim", "trussmerge.search")
        self.span_at(search, "adaptive_search", "search.loop", "trussmerge.search", on_plan)
        self.span_at(metrics, "adaptive_search", "search.loop", "trussmerge.metrics", on_plan)
        self.span_at(baselines, "_baseline_loop", "search.loop", "trussmerge.baselines", on_plan)
        self.span_at(baselines, "_rd_candidates", "baselines.rd_candidates", "trussmerge.baselines")
        self.span_at(metrics, "betweenness_profile", "metrics.betweenness", "trussmerge.metrics")
        spectral = ("effective_resistance_total", "spectral_gap", "natural_connectivity")
        for attr in spectral:
            self.span_at(metrics, attr, "metrics.spectral", "trussmerge.metrics")
        # the CLI imported the greedy study into its own namespace
        self.span_at(cli, "greedy_improve", "metrics.other", "trussmerge.cli")
        self.span_at(metrics, "compute_metrics", "metrics.other", "trussmerge.metrics")
        for mid, fn in list(metrics.METRIC_FUNCS.items()):
            group = "metrics.spectral" if fn.__name__ in spectral else "metrics.other"
            self.span_at(metrics.METRIC_FUNCS, mid, group,
                         f"trussmerge.metrics.METRIC_FUNCS[{mid.value}]")
        self.count_at(candidates, "_iim_score", "iim_pairs")
        self.count_at(candidates.ScoringContext, "phse_edges", "iom_pairs")
        self.count_at(np.linalg, "eigvalsh", "eigvalsh_calls")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)

    # -- reporting -------------------------------------------------------

    def pass_metrics(self, pass_id: int, wall: float) -> dict[str, float]:
        """Per-layer self times, counts and ratios of one traced pass."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[5] == pass_id]
        child_time: Counter = Counter()
        for _, s in spans:
            if s[4] >= 0:
                child_time[s[4]] += s[3] - s[2]
        out = {m: 0.0 if m.endswith(("_s", "_ratio")) else 0 for m in LAYER_MAP}
        roots = 0.0
        for i, s in spans:
            _, group, start, end, parent, _ = s
            out[SELF_TIME[group]] += (end - start) - child_time[i]
            if group in CALLS:
                out[CALLS[group]] += 1
            if parent < 0:
                roots += end - start
            parent_group = self.spans[parent][1] if parent >= 0 else None
            if group == "graph.copy_merge" and parent_group != "graph.copy_merge":
                out["graph.copy_merge_calls"] += 1
            # a measure called straight from the greedy loop scores one candidate graph
            if s[0].startswith("trussmerge.metrics.METRIC_FUNCS[") and parent >= 0 \
                    and self.spans[parent][0].endswith(".greedy_improve"):
                out["metrics.candidate_graphs"] += 1
        c = self.counts[pass_id]
        out["candidates.iim_pairs"] = c["iim_pairs"]
        out["candidates.iom_pairs"] = c["iom_pairs"]
        out["metrics.eigvalsh_calls"] = c["eigvalsh_calls"]
        out["search.rounds"] = c["rounds"]
        out["search.skipped_rounds"] = c["skipped_rounds"]
        out["pruning.outside_nodes"] = c["prune_outside"]
        out["pruning.kept_ratio"] = c["prune_kept"] / c["prune_outside"] if c["prune_outside"] else 0.0
        evals = out["decomposition.eval_calls"]
        out["decomposition.eval_improving_ratio"] = c["eval_improving"] / evals if evals else 0.0
        out["trace.wall_s"] = wall
        out["trace.unattributed_s"] = wall - roots
        return out

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for i, (name, group, start, end, parent, pass_id) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "group": group, "start": start,
                                     "end": end, "parent": parent, "pass": pass_id}) + "\n")
