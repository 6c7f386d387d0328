#!/usr/bin/env python3
"""Benchmark of record: run ``perfbench/run.py`` over seeds and write ``BENCH_<label>.json``.

Every workload in ``BENCHMARK.json`` runs once per seed with ``--trace 0``
in a fresh process, for the benchmark's ``run_seconds``, then once more
with ``--trace 1`` on seed 1 for its per-layer record. Last, the tier-1
test suite runs once, with its wall seconds, passed/failed counts and
five slowest tests (pytest's ``--durations=5``) recorded. The file
holds the git revision, the size of the package source (its digest,
``src_lines``, the newline count of ``src/trussmerge/*.py`` as ``wc -l``
gives it, and the same count per file as ``src_lines_by_file``), the
machine, every run's end-to-end metrics and their per-workload medians
and quartiles. With
``--baseline DIR`` every run is paired with the same run in another
checkout (for example the parent commit), alternating which side goes
first, and a second file ``BENCH_<baseline-label>.json`` is written for
that side; the first file then also counts the pairs each side won.
Example:

    python3 scripts/bench.py --label new --seeds 1-3 \\
        --baseline ../parent --baseline-label parent
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")
TRACE_SEED = 1
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=5"]


def parse_seeds(text: str) -> list[int]:
    """'1,2,5-7' -> [1, 2, 5, 6, 7]."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def src_lines_by_file(root: Path) -> dict[str, int]:
    """Newline count of each ``src/trussmerge/*.py``, as ``wc -l`` gives it, by file name."""
    return {p.name: p.read_bytes().count(b"\n") for p in sorted((root / "src" / "trussmerge").glob("*.py"))}


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` process; returns its machine record and metric values."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"bench: {' '.join(cmd)} printed no result:\n{proc.stderr}")
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    print(f"{root.name} {workload} seed {seed} trace {trace}: correct={result['correct']} "
          + " ".join(f"{m}={metrics[m]:.3f}" for m in END_TO_END if m in metrics), flush=True)
    return {"machine": info["machine"], "seed": seed, "correct": result["correct"],
            "failed": result["failed"], "attempted": result["attempted"], "metrics": metrics}


def run_tier1(root: Path) -> dict:
    """The tier-1 suite once, with ``src`` on the path: wall seconds and outcome counts."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)}
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=root, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - started
    summary = next((line.strip("= ") for line in reversed(proc.stdout.splitlines())
                    if re.search(r" in [\d.]+s", line)), "")
    counts = {k: int(v) for v, k in re.findall(r"(\d+) (passed|failed|errors?)", summary)}
    slowest = [{"test": test, "phase": phase, "seconds": float(sec)} for sec, phase, test in
               re.findall(r"^([\d.]+)s (call|setup|teardown) +(\S+)$", proc.stdout, re.M)]
    out = {"command": " ".join(["python", *TIER1]), "wall_s": wall, "exit_code": proc.returncode,
           "passed": counts.get("passed", 0), "failed": counts.get("failed", 0),
           "errors": counts.get("errors", counts.get("error", 0)), "summary": summary,
           "slowest": slowest}
    print(f"{root.name} tier-1: {summary} ({wall:.1f} s wall)", flush=True)
    return out


def summarize(root: Path, label: str, runs: dict[str, list[dict]], traced: dict[str, dict],
              tier1: dict, seconds: float, seeds: list[int]) -> dict:
    machine = next(iter(traced.values()))["machine"]
    dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=root,
                           capture_output=True, text=True).stdout.strip() != ""
    by_file = src_lines_by_file(root)
    out = {
        "label": label, "git_revision": machine["git_revision"], "src_uncommitted": dirty,
        "src_sha256_16": machine["src_sha256_16"], "src_lines": sum(by_file.values()),
        "src_lines_by_file": by_file, "nproc": machine["nproc"],
        "cpu_model": machine["cpu_model"], "python": machine["python"],
        "seconds": seconds, "seeds": seeds, "trace_seed": TRACE_SEED,
        "workloads": {}, "tier1": tier1,
    }
    for w, rs in runs.items():
        medians, quartiles = {}, {}
        for m in END_TO_END:
            values = [r["metrics"][m] for r in rs]
            medians[m] = statistics.median(values)
            q = statistics.quantiles(values, n=4)
            quartiles[m] = [q[0], q[2]]
        out["workloads"][w] = {
            "runs": [{"seed": r["seed"], "first": r["first"], "correct": r["correct"],
                      **{m: r["metrics"][m] for m in END_TO_END}} for r in rs],
            "all_correct": all(r["correct"] for r in rs),
            "median": medians, "quartiles": quartiles,
            "traced": {"seed": TRACE_SEED, "correct": traced[w]["correct"],
                       "per_layer": traced[w]["metrics"]},
        }
    return out


def compare(new: dict, base: dict) -> dict:
    """Per workload and metric: pairs won by each side (ties count for neither), and both medians."""
    out = {}
    for w, nw in new["workloads"].items():
        bw = base["workloads"][w]
        row = {}
        for m in END_TO_END:
            pairs = [(b[m], n[m]) for b, n in zip(bw["runs"], nw["runs"])]
            row[m] = {"pairs": len(pairs), "new_lower": sum(n < b for b, n in pairs),
                      "new_higher": sum(n > b for b, n in pairs),
                      "baseline_median": bw["median"][m], "new_median": nw["median"][m],
                      "baseline_quartiles": bw["quartiles"][m]}
        out[w] = row
    out["tier1"] = {"baseline_wall_s": base["tier1"]["wall_s"], "new_wall_s": new["tier1"]["wall_s"]}
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads, seconds = [w["name"] for w in spec["workloads"]], spec["run_seconds"]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-3"))
    ap.add_argument("--baseline", type=Path, help="another source checkout to pair runs with")
    ap.add_argument("--baseline-label")
    args = ap.parse_args(argv)
    if len(args.seeds) < 3:
        ap.error("--seeds needs at least 3 seeds")
    if args.baseline is not None and not args.baseline_label:
        ap.error("--baseline needs --baseline-label")
    sides = [(ROOT, args.label)]
    if args.baseline is not None:
        sides.append((args.baseline.resolve(), args.baseline_label))

    runs = {label: {w: [] for w in workloads} for _, label in sides}
    traced: dict[str, dict] = {label: {} for _, label in sides}
    for w in workloads:
        for i, seed in enumerate(args.seeds):
            order = sides if i % 2 else sides[::-1]
            for j, (root, label) in enumerate(order):
                r = run_once(root, w, seed, seconds, 0)
                r["first"] = j == 0
                runs[label][w].append(r)
        for root, label in (sides if len(args.seeds) % 2 else sides[::-1]):
            traced[label][w] = run_once(root, w, TRACE_SEED, seconds, 1)
    tier1 = {label: run_tier1(root) for root, label in sides[::-1]}

    records = {label: summarize(root, label, runs[label], traced[label], tier1[label], seconds,
                                args.seeds)
               for root, label in sides}
    if args.baseline is not None:
        records[args.label]["baseline"] = args.baseline_label
        records[args.label]["pairs"] = compare(records[args.label], records[args.baseline_label])
    for label, rec in records.items():
        path = ROOT / f"BENCH_{label}.json"
        path.write_text(json.dumps(rec, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    ok = all(r["correct"] for rec in runs.values() for rs in rec.values() for r in rs)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
