"""The benchmark-of-record script's helpers, loaded from ``scripts/bench.py``."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_bench():
    spec = importlib.util.spec_from_file_location("bench_script", ROOT / "scripts" / "bench.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_parse_seeds_expands_ranges():
    assert load_bench().parse_seeds("1,3-4") == [1, 3, 4]


def test_src_lines_by_file_sums_to_src_lines():
    machine = {"git_revision": "r", "src_sha256_16": "s", "nproc": 1, "cpu_model": "c", "python": "p"}
    record = load_bench().summarize(ROOT, "t", {}, {"w": {"machine": machine}}, {}, 1.0, [1])
    files = sorted((ROOT / "src" / "trussmerge").glob("*.py"))
    by_file = record["src_lines_by_file"]
    assert sorted(by_file) == [p.name for p in files]
    # counted line by line here, so a last line without its newline is not counted, as in wc -l
    assert by_file == {p.name: sum(line.endswith(b"\n") for line in p.open("rb")) for p in files}
    assert record["src_lines"] == sum(by_file.values())
