#!/usr/bin/env python3
"""Traced memory peaks of the benchmark's calls on one edge file.

Runs three calls in-process through ``trussmerge.cli.main``, with reports
written to a temporary directory: ``decompose --k 5,10``, BM at k=5 with
budget 3, and RD at k=5 with budget 10. For each it prints the
``tracemalloc`` peak above the call's start, that is, the most memory the
call's own allocations held at once. For the two maximize calls it also
prints the allocation sites (file:line) live right after the exact
evaluation (``TrussView.truss_size_after_merge``) that left the most
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

from trussmerge.cli import main as cli_main
from trussmerge.decomposition import TrussView

MB = 1 << 20
CALLS = (
    ("decompose --k 5,10", ["decompose", "--k", "5,10"]),
    ("BM k=5 b=3", ["maximize", "--k", "5", "--budget", "3", "--stable-output"]),
    ("RD k=5 b=10", ["maximize", "--method", "RD", "--k", "5", "--budget", "10", "--stable-output"]),
)


def traced_run(argv: list[str], snap_at: int | None = None):
    """(peak bytes, traced bytes after each evaluation, snapshot after evaluation ``snap_at``)."""
    evaluate, after, snap = TrussView.truss_size_after_merge, [], None

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
        return tracemalloc.get_traced_memory()[1], after, snap
    finally:
        tracemalloc.stop()
        TrussView.truss_size_after_merge = evaluate


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
            peak, after, _ = traced_run(argv)
            print(f"{name}: peak {peak / MB:.2f} MB above the call's start", flush=True)
            if not after:
                continue
            at = max(range(len(after)), key=after.__getitem__)
            print(f"  live after evaluation {at + 1} of {len(after)}: {after[at] / MB:.2f} MB; top sites:")
            for stat in traced_run(argv, at)[2].statistics("lineno")[:args.top]:
                print(f"  {stat.size / MB:8.2f} MB {stat.count:7d} blocks  {site(stat.traceback[0])}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
