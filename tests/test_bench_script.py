"""The benchmark-of-record script's helpers, loaded from ``scripts/bench.py``."""

import importlib.util
from pathlib import Path

from trussmerge import gen_er

ROOT = Path(__file__).resolve().parents[1]


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(f"{name}_script", ROOT / "scripts" / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def load_bench():
    return load_script("bench")


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


def test_mem_peak_reports_three_calls_and_live_sites(tmp_path, capsys):
    g = gen_er(30, 0.4, 1)
    edges = tmp_path / "g.txt"
    edges.write_text("".join(f"{g.label(u)} {g.label(v)}\n" for u, v in g.edges()), encoding="utf-8")
    assert load_script("mem_peak").main([str(edges), "--top", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    peaks = [line for line in out if "above the call's start" in line]
    assert [line.split(":")[0] for line in peaks] == ["decompose --k 5,10", "BM k=5 b=3", "RD k=5 b=10"]
    assert all(float(line.split("peak ")[1].split()[0]) > 0 for line in peaks)
    # BM and RD both evaluate candidates here, so each lists its top three live sites
    assert sum("live after evaluation" in line for line in out) == 2
    assert sum("trussmerge/" in line for line in out) == 6


def test_study_scan_prints_one_line_per_measure_and_op(capsys):
    assert load_script("study_scan").main(["--seeds", "1", "--repeat", "1", "--metrics", "VB,SG"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("# 5 graphs, ER(50, 0.1) seeds 100..106")
    assert out[1] == "metric,op,ms,exact_scorings,picks_sha256"
    rows = [line.split(",") for line in out[2:]]
    assert [(r[0], r[1]) for r in rows] == [("VB", "merge"), ("VB", "add_edge"), ("SG", "merge"), ("SG", "add_edge")]
    # VB has a closed form for both ops; SG scores each edit its bound cannot rule out
    assert [int(r[3]) for r in rows[:2]] == [0, 0] and all(int(r[3]) > 0 for r in rows[2:])
    assert all(float(r[2]) > 0 and len(r[4]) == 64 for r in rows)
