#!/usr/bin/env python3
"""Traced memory peaks of the benchmark's calls on one edge file.

Runs three calls in-process through ``trussmerge.cli.main``, with reports
written to a temporary directory: ``decompose --k 5,10``, BM at k=5 with
budget 3, and RD at k=5 with budget 10. For each it prints the
``tracemalloc`` peak above the call's start, that is, the most memory the
call's own allocations held at once.

For the two maximize calls it then prints the peak of each phase of the
greedy round: round-0 ``TrussView.compute``, the carried
``TrussView.merge``, IOM plus IIM scoring, and exact evaluation
(``TrussView.truss_size_after_merge``), each over all of its calls, and
the peak outside them. ``tracemalloc.reset_peak`` runs at every phase
boundary, so each peak belongs to one phase, and the largest of them is
the call's peak, which the listing names. Last come the allocation sites
(file:line) live right after the exact evaluation that left the most
memory traced. A snapshot holds a copy of every trace, so the sites come
from a second, identical run that takes one snapshot at that evaluation.
Example, from the root of a source checkout:

    PYTHONPATH=src python3 scripts/mem_peak.py graph.txt --top 8
"""

from __future__ import annotations

import argparse
import gc
import tempfile
import tracemalloc
from pathlib import Path

from trussmerge import search
from trussmerge.cli import main as cli_main
from trussmerge.decomposition import TrussView

MB = 1 << 20
CALLS = (
    ("decompose --k 5,10", ["decompose", "--k", "5,10"]),
    ("BM k=5 b=3", ["maximize", "--k", "5", "--budget", "3", "--stable-output"]),
    ("RD k=5 b=10", ["maximize", "--method", "RD", "--k", "5", "--budget", "10", "--stable-output"]),
)
# (phase, owner, attribute): the calls a phase is made of
PHASES = (
    ("compute", TrussView, "compute"),
    ("merge", TrussView, "merge"),
    ("scoring", search, "find_iom_candidates"),
    ("scoring", search, "find_iim_candidates"),
    ("evaluation", TrussView, "truss_size_after_merge"),
)
OTHER = "outside the phases"


class PhasePeaks:
    """The traced peak of each phase, over all of its calls, with the peak reset at every boundary."""

    def __init__(self) -> None:
        self.peaks = {name: 0 for name, _, _ in PHASES} | {OTHER: 0}
        self.calls = dict.fromkeys(self.peaks, 0)
        self.open = [OTHER]

    def close(self) -> None:
        """Credit the peak since the last boundary to the innermost open phase."""
        name = self.open[-1]
        self.peaks[name] = max(self.peaks[name], tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()

    def wrap(self, name: str, fn):
        def wrapped(*args, **kwargs):
            self.close()
            self.open.append(name)
            self.calls[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()
                self.open.pop()
        return wrapped


def traced_run(argv: list[str], snap_at: int | None = None):
    """(peak bytes, PhasePeaks, traced bytes after each evaluation, snapshot after evaluation ``snap_at``)."""
    phases, after, snap = PhasePeaks(), [], None
    saved = [(owner, attr, vars(owner)[attr]) for _, owner, attr in PHASES]
    for name, owner, attr in PHASES:
        fn = phases.wrap(name, getattr(owner, attr))
        if isinstance(vars(owner)[attr], classmethod):
            fn = classmethod(lambda cls, *a, _fn=fn, **kw: _fn(*a, **kw))
        setattr(owner, attr, fn)
    evaluate = TrussView.truss_size_after_merge

    def watched(self, *args, **kwargs):
        nonlocal snap
        size = evaluate(self, *args, **kwargs)
        after.append(tracemalloc.get_traced_memory()[0])
        if len(after) - 1 == snap_at:
            snap = tracemalloc.take_snapshot()
        return size

    gc.collect()
    TrussView.truss_size_after_merge = watched
    tracemalloc.start()
    try:
        if cli_main(argv) != 0:
            raise SystemExit(f"mem_peak: {' '.join(argv)} failed")
        phases.close()
        return max(phases.peaks.values()), phases, after, snap
    finally:
        tracemalloc.stop()
        for owner, attr, raw in saved:
            setattr(owner, attr, raw)


def site(frame) -> str:
    path = Path(frame.filename)
    return f"{path.parent.name}/{path.name}:{frame.lineno}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("edges", help="edge list file")
    ap.add_argument("--top", type=int, default=10, help="allocation sites to list per maximize call")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for name, call in CALLS:
            argv = [call[0], args.edges, *call[1:], "--out", str(Path(tmp) / "out")]
            peak, phases, after, _ = traced_run(argv)
            print(f"{name}: peak {peak / MB:.2f} MB above the call's start", flush=True)
            if call[0] != "maximize":
                continue
            for phase, bytes_ in phases.peaks.items():
                calls = "" if phase == OTHER else f" over {phases.calls[phase]} calls"
                print(f"  {phase}: peak {bytes_ / MB:.2f} MB{calls}")
            print(f"  the call's peak is in {max(phases.peaks, key=phases.peaks.__getitem__)}")
            if not after:
                continue
            at = max(range(len(after)), key=after.__getitem__)
            print(f"  live after evaluation {at + 1} of {len(after)}: {after[at] / MB:.2f} MB; top sites:")
            for stat in traced_run(argv, at)[3].statistics("lineno")[:args.top]:
                print(f"  {stat.size / MB:8.2f} MB {stat.count:7d} blocks  {site(stat.traceback[0])}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
