#!/usr/bin/env python3
"""Time and count ``metrics.best_candidate`` for every robustness measure and edit.

For each (measure, op) pair it prints, over connected ER(50, 0.1)
graphs: the summed minimum-of-``--repeat`` time of one
``best_candidate`` call per graph, the exact scorings (calls into
``MATRIX_FUNCS``) those calls make, and a sha256 of the picks. The
graphs are the benchmark's robust-er50 ones: for each seed N in
``--seeds``, the first five seeds at or after 100 N whose G(50, 0.1) is
connected. BLAS runs on one thread, as in the benchmark. The script
imports whatever ``trussmerge`` is on the path, so an A/B runs it under
each checkout's source in turn, alternating which goes first, and
compares the lines. Example, from the root of a source checkout:

    PYTHONPATH=src python3 scripts/study_scan.py --seeds 1-10 --repeat 5
    PYTHONPATH=../parent/src python3 scripts/study_scan.py --seeds 1-10 --repeat 5
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from itertools import count  # noqa: E402
from pathlib import Path  # noqa: E402

from trussmerge import MetricId, gen_er, is_connected  # noqa: E402
from trussmerge import metrics  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench import parse_seeds  # noqa: E402

GRAPHS_PER_SEED, SEED_STRIDE = 5, 100
OPS = ("merge", "add_edge")


def er_seeds(seeds: list[int]) -> list[int]:
    """The first ``GRAPHS_PER_SEED`` connected G(50, 0.1) seeds at or after 100 N, for each N."""
    out = []
    for n in seeds:
        found = (s for s in count(SEED_STRIDE * n) if is_connected(gen_er(50, 0.1, s)))
        out += [next(found) for _ in range(GRAPHS_PER_SEED)]
    return out


def scan(matrices, metric: MetricId, op: str, repeat: int) -> tuple[float, int, str]:
    """(summed minimum seconds, exact scorings, picks digest) over the matrices."""
    calls, score = [0], metrics.MATRIX_FUNCS[metric]

    def counted(b):
        calls[0] += 1
        return score(b)

    picks, total = [], 0.0
    for a in matrices:
        metrics.MATRIX_FUNCS[metric] = counted
        try:
            picks.append(metrics.best_candidate(a, metric, op))
        finally:
            metrics.MATRIX_FUNCS[metric] = score
        times = []
        for _ in range(repeat):
            start = time.perf_counter()
            metrics.best_candidate(a, metric, op)
            times.append(time.perf_counter() - start)
        total += min(times)
    return total, calls[0], hashlib.sha256(repr(picks).encode()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1-4", help="robust-er50 workload seeds, e.g. 1-10")
    ap.add_argument("--repeat", type=int, default=3, help="timed calls per graph; the minimum counts")
    ap.add_argument("--metrics", default=",".join(m.value for m in MetricId),
                    help="comma-separated measures to scan")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    graphs = er_seeds(parse_seeds(args.seeds))
    matrices = [metrics._adjacency_matrix(gen_er(50, 0.1, s)) for s in graphs]
    print(f"# {len(matrices)} graphs, ER(50, 0.1) seeds {graphs[0]}..{graphs[-1]}; minimum of {args.repeat}")
    print("metric,op,ms,exact_scorings,picks_sha256")
    for metric in (MetricId(m.strip().upper()) for m in args.metrics.split(",")):
        for op in OPS:
            seconds, scored, digest = scan(matrices, metric, op, args.repeat)
            print(f"{metric.value},{op},{seconds * 1e3:.1f},{scored},{digest}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
