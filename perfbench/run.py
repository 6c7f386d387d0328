"""End-to-end and per-layer benchmark for the trussmerge package.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload search-k5 --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one caller in one process: a pass
runs the workload's CLI calls back to back through
``trussmerge.cli.main``, with ``--threads 1``, on inputs generated from
``--seed``. After an untimed warm-up pass, passes repeat until
about ``--seconds`` have been measured. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates plain and traced passes and reports the
per-layer metrics. Every output is checked; the last stdout line is the
JSON result, and the exit code is 1 when any call or check failed.
Spans, outputs and a full result record go to ``perfbench/.runs/``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / ".runs"
SETUP_REPEATS = 5
BLAS_THREADS = 1

# one BLAS thread, the same for every commit, set before numpy is imported;
# no bytecode is written, so set-up compiles the package the same way each time
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def measure_setup(edge_file: Path) -> dict:
    """Median of fresh-process import + parse times, after one untimed run."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(edge_file)]
    samples = []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        if i:
            samples.append(json.loads(proc.stdout))
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def _blas_info() -> dict:
    import ctypes

    import numpy as np
    info = {"threads_env": BLAS_THREADS}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads_runtime"] = fn()
                info["library"] = Path(path).name
                return info
    return info


def provenance() -> dict:
    import networkx
    import numpy
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "networkx": networkx.__version__, "blas": _blas_info(),
        "git_revision": rev, "src_sha256_16": src_hash.hexdigest()[:16],
    }


class Runner:
    """Runs passes of one workload and keeps every output for checking."""

    def __init__(self, prepared) -> None:
        import trussmerge.cli
        self.cli = trussmerge.cli
        self.calls = prepared.calls
        self.first: dict[str, bytes] | None = None
        self.failed: dict[str, int] = {c.name: 0 for c in self.calls}
        self.notes: list[str] = []
        self.attempted = 0

    def run_pass(self) -> float:
        outputs = {}
        start = time.perf_counter()
        for call in self.calls:
            self.attempted += 1
            try:
                rc = self.cli.main(call.argv)
            except SystemExit as exc:  # argparse rejected the command line
                rc = exc.code
            except Exception:  # one failed call must not hide the others
                traceback.print_exc()
                rc = "exception"
            if rc != 0:
                self.failed[call.name] += 1
                self.notes.append(f"{call.name}: exit {rc}")
            outputs[call.name] = call.out.read_bytes() if call.out.exists() else b""
        elapsed = time.perf_counter() - start
        if self.first is None:
            self.first = outputs
        else:
            for name, data in outputs.items():
                if data != self.first[name]:
                    self.failed[name] += 1
                    self.notes.append(f"{name}: output differs from the first pass")
        for call in self.calls:
            call.out.unlink(missing_ok=True)
        return elapsed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "trussmerge" / "__init__.py").is_file() or not spec_path.is_file():
        _fail(f"no trussmerge sources under {SRC} or no BENCHMARK.json; run from a source checkout")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import tracing
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    RUNS.mkdir(exist_ok=True)

    load_before = os.getloadavg()
    prepared = WORKLOADS[args.workload](args.seed, RUNS)
    setup = measure_setup(prepared.parse_input)
    runner = Runner(prepared)
    runner.run_pass()                      # warm-up: imports, BLAS, caches
    recorder = tracing.Recorder() if args.trace else None
    plain, traced, layer_rows = [], [], []
    began = time.perf_counter()
    while True:
        step_began = time.perf_counter()
        plain.append(runner.run_pass())
        if recorder is not None:
            recorder.pass_id += 1
            recorder.install()
            try:
                wall = runner.run_pass()
            finally:
                recorder.uninstall()
            traced.append(wall)
            layer_rows.append(recorder.pass_metrics(recorder.pass_id, wall))
        # stop at the step boundary nearest to --seconds
        now = time.perf_counter()
        if now - began + (now - step_began) / 2 >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    load_after = os.getloadavg()

    try:
        check_errors = prepared.check(runner.first)
    except Exception:  # unreadable output: every call of the run counts as failed
        traceback.print_exc()
        check_errors = {c.name: ["output could not be checked"] for c in prepared.calls}
    for name, errs in check_errors.items():
        if errs:
            # identical outputs in every pass, so every pass of this call failed
            runner.failed[name] = 1 + len(plain) + len(traced)
            runner.notes += [f"{name}: {e}" for e in errs]
    gain = prepared.gain(runner.first) if prepared.gain else 0
    failed = sum(runner.failed.values())

    wall_s = statistics.median(plain)
    if recorder is None:
        values = {"setup_s": setup["setup_s"], "wall_s": wall_s, "peak_rss_mb": peak_rss_mb}
        wanted = spec["end_to_end"]
    else:
        values = {m: statistics.median(row[m] for row in layer_rows) for m in tracing.LAYER_MAP}
        values["search.truss_gain"] = gain
        values["trace.overhead_s"] = statistics.median(traced) - wall_s
        wanted = spec["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "why": next((w["why"] for w in spec["workloads"] if w["name"] == args.workload), None),
        "input": prepared.info, "machine": provenance(),
        "load_before": load_before, "load_after": load_after,
        "setup": setup, "wall_s_samples": plain, "traced_wall_s_samples": traced,
        "truss_gain": gain, "calls_per_pass": [c.argv for c in prepared.calls],
        "attempted": runner.attempted, "failed": failed, "error_rate": failed / runner.attempted,
        "failures": runner.notes, "metrics": metrics,
    }
    if recorder is not None:
        record["layer_map"] = tracing.LAYER_MAP
        self_total = sum(values[m] for m in tracing.SELF_TIME.values())
        record["self_time_shares"] = {m: values[m] / self_total for m in tracing.SELF_TIME.values()
                                      if self_total}
        recorder.write(RUNS / f"spans-{args.workload}-{args.seed}.jsonl")
    (RUNS / f"result-{args.workload}-{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for note in runner.notes:
        print(f"FAILED {note}", file=sys.stderr)
    print(json.dumps({"input": prepared.info, "wall_s_samples": len(plain), "truss_gain": gain,
                      "machine": record["machine"], "load": [load_before, load_after]}))
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
