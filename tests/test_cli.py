"""Command-line behavior: formats, error codes, output stability."""

import argparse
import csv
import gc
import hashlib
import io
import json
import random

import pytest

from trussmerge import (FixtureSpec, Graph, Method, RunConfig, TrussView, gen_er,
                        gen_hk, hardness_fixture, nonsubmodularity_witness, objective,
                        run_method)
from trussmerge.cli import main

from test_decomposition import A_EDGES


def write_edges(path, edges):
    path.write_text("".join(f"{u} {v}\n" for u, v in edges), encoding="utf-8")
    return str(path)


@pytest.fixture
def graph_a_file(tmp_path):
    return write_edges(tmp_path / "a.txt", A_EDGES)


@pytest.fixture
def er_file(tmp_path):
    g = gen_er(40, 0.25, 5)
    return write_edges(tmp_path / "er.txt", g.labeled_edges())


def test_decompose_frozen_table(graph_a_file, capsys):
    assert main(["decompose", graph_a_file, "--k", "3,4"]) == 0
    assert capsys.readouterr().out == "k,nodes,edges,kmax\n3,8,14,4\n4,6,11,4\n"


def test_decompose_appends_kmax_row(graph_a_file, capsys):
    assert main(["decompose", graph_a_file, "--k", "3"]) == 0
    assert capsys.readouterr().out == "k,nodes,edges,kmax\n3,8,14,4\n4,6,11,4\n"
    assert main(["decompose", graph_a_file]) == 0
    assert capsys.readouterr().out == "k,nodes,edges,kmax\n4,6,11,4\n"


def test_decompose_empty_file_reports_an_empty_graph(tmp_path, capsys):
    # no edges: every level is empty and kmax stays at its floor of 2
    empty = tmp_path / "empty.txt"
    empty.write_text("# no edges\n\n")
    assert main(["decompose", str(empty)]) == 0
    assert capsys.readouterr().out == "k,nodes,edges,kmax\n2,0,0,2\n"
    assert main(["decompose", str(empty), "--k", "3"]) == 0
    assert capsys.readouterr().out == "k,nodes,edges,kmax\n3,0,0,2\n2,0,0,2\n"


def test_repeated_runs_leave_no_parser_garbage(graph_a_file, tmp_path):
    # a parser is cyclic garbage once dropped (a build leaves some too), so main reuses one
    argv = ["decompose", graph_a_file, "--out", str(tmp_path / "sizes.csv")]
    assert main(argv) == 0
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)  # collected objects stay in gc.garbage to be inspected
    try:
        for _ in range(2):
            assert main(argv) == 0
        gc.collect()
        leaked = sorted({type(o).__name__ for o in gc.garbage
                         if type(o).__module__ == "argparse" or isinstance(o, argparse.ArgumentParser)})
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert leaked == []


@pytest.mark.parametrize("ks", ["-3", "0", "1", "3,0"])
def test_decompose_rejects_k_below_two(graph_a_file, ks, capsys):
    assert main(["decompose", graph_a_file, "--k", ks]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: DOMAIN --k values must be at least 2\n"
    assert captured.out == ""


def test_decompose_edge_trussness_dump(graph_a_file, tmp_path, capsys):
    dump = tmp_path / "t.txt"
    assert main(["decompose", graph_a_file, "--edge-trussness", str(dump)]) == 0
    capsys.readouterr()
    lines = dump.read_text().splitlines()
    assert len(lines) == 15
    assert lines[0] == "0 1 4"
    assert "5 6 3" in lines
    assert lines[-1] == "7 8 2"


def maximize_args(dataset, out, **extra):
    args = ["maximize", dataset, "--k", "4", "--budget", "2", "--nc", "4",
            "--stable-output", "--out", out]
    for flag, value in extra.items():
        args += [f"--{flag.replace('_', '-')}", str(value)]
    return args


def test_maximize_report(graph_a_file, tmp_path):
    out = tmp_path / "report.json"
    assert main(maximize_args(graph_a_file, str(out))) == 0
    report = json.loads(out.read_text())
    assert report["schema_version"] == 1
    assert report["tool"] == {"name": "trussmerge", "version": "0.1.0"}
    assert report["command"] == "maximize"
    assert "threads" not in report["config"]
    assert report["config"]["k"] == 4
    assert report["dataset"]["nodes"] == 9
    assert report["dataset"]["edges"] == 15
    assert report["dataset"]["inside_nodes"] == 8
    assert report["dataset"]["outside_nodes"] == 1
    assert report["dataset"]["pruned_outside_nodes"] == 1
    assert report["dataset"]["truss_sizes"] == {"4": 11}
    plan = report["plan"]
    assert plan["initial_size"] == 11
    assert plan["final_size"] == plan["initial_size"] + plan["increase"]
    assert plan["rounds"][0]["round"] == 1
    assert all(r["wall_time"] == 0.0 for r in plan["rounds"])
    assert report["timings"]["total_seconds"] == 0.0
    # replaying the reported mergers reproduces the reported size
    g = Graph.from_edges(A_EDGES, nodes=range(9))
    pairs = [(g.node_of(r["v1"]), g.node_of(r["v2"])) for r in plan["rounds"]]
    assert objective(g, 4, pairs).size == plan["final_size"]


def test_maximize_stable_output_is_byte_identical(graph_a_file, tmp_path):
    out1, out2, out8 = (tmp_path / n for n in ("r1.json", "r2.json", "r8.json"))
    assert main(maximize_args(graph_a_file, str(out1))) == 0
    assert main(maximize_args(graph_a_file, str(out2))) == 0
    assert main(maximize_args(graph_a_file, str(out8), threads=8)) == 0
    assert out1.read_bytes() == out2.read_bytes() == out8.read_bytes()


@pytest.mark.parametrize("method", ["BM", "EQ", "II", "IO", "RD", "NE", "NT", "NAIVE"])
def test_maximize_builds_one_view_per_round(graph_a_file, tmp_path, monkeypatch, method):
    calls = []
    real = TrussView.compute.__func__
    monkeypatch.setattr(TrussView, "compute",
                        classmethod(lambda cls, g, k, *args, **kwargs:
                                    calls.append(k) or real(cls, g, k, *args, **kwargs)))
    out = tmp_path / "report.json"
    assert main(maximize_args(graph_a_file, str(out), method=method)) == 0
    report = json.loads(out.read_text())
    plan = report["plan"]
    # both rounds build a state (a skipped round too, before finding no candidates),
    # but only round 0 computes a view: the next round carries it across the merge,
    # and the report's node counts come from round 0, not from another build
    assert len(plan["rounds"]) + (plan["skipped_rounds"] > 0) == 2 and len(calls) == 1
    assert (report["dataset"]["inside_nodes"], report["dataset"]["outside_nodes"],
            report["dataset"]["pruned_outside_nodes"]) == (8, 1, 1)


def test_maximize_trace_csv(graph_a_file, tmp_path):
    out = tmp_path / "report.json"
    trace = tmp_path / "trace.csv"
    assert main(maximize_args(graph_a_file, str(out), trace=str(trace))) == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "round,v1,v2,kind,n_io,evaluated,size,wall_time"
    report = json.loads(out.read_text())
    assert len(lines) == 1 + len(report["plan"]["rounds"])
    assert lines[1].startswith("1,0,6,IIM,")


def test_maximize_distance_filter_excludes_far_pairs(graph_a_file, tmp_path):
    coords = tmp_path / "coords.txt"
    rows = ["0 40.0 0.0"] + [f"{v} 0.0 0.0" for v in range(1, 9)]
    coords.write_text("".join(r + "\n" for r in rows), encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(maximize_args(graph_a_file, str(out), coords=str(coords),
                              dist_threshold=1.0)) == 0
    report = json.loads(out.read_text())
    assert report["plan"]["rounds"]
    for r in report["plan"]["rounds"]:
        assert "0" not in (r["v1"], r["v2"])


def test_coordinates_of_unknown_labels_are_ignored(graph_a_file, tmp_path):
    coords = tmp_path / "coords.txt"
    rows = ["0 40.0 0.0"] + [f"{v} 0.0 0.0" for v in range(1, 9)]
    plans = []
    for extra in ([], ["ghost 0.0 0.0", "99 40.0 0.0"]):
        coords.write_text("".join(r + "\n" for r in rows + extra), encoding="utf-8")
        out = tmp_path / "report.json"
        assert main(maximize_args(graph_a_file, str(out), coords=str(coords),
                                  dist_threshold=1.0)) == 0
        plans.append(json.loads(out.read_text())["plan"])
    assert plans[0]["rounds"] and plans[0] == plans[1]


@pytest.mark.parametrize("extra", [
    ["--coords", "COORDS", "--dist-threshold", "-1"],
    ["--coords", "COORDS", "--dist-threshold", "nan"],
    ["--dist-threshold", "1"],
    ["--coords", "COORDS"],
], ids=["negative", "nan", "no-coords", "no-threshold"])
def test_dist_threshold_out_of_domain_is_rejected(graph_a_file, tmp_path, extra, capsys):
    coords = tmp_path / "coords.txt"
    coords.write_text("".join(f"{v} 0.0 0.0\n" for v in range(9)), encoding="utf-8")
    out = tmp_path / "report.json"
    argv = ["maximize", graph_a_file, "--k", "4", "--out", str(out)]
    assert main(argv + [str(coords) if a == "COORDS" else a for a in extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: DOMAIN --dist-threshold")
    assert not out.exists()


# NAIVE at k=4, b=3 (`--stable-output`, run as `maximize g.txt ... --out rep.json
# --trace trace.csv`): digests of the report and the trace CSV from the exhaustive
# greedy's own round loop, before it became a candidate source of the shared one
NAIVE_GRAPHS = {"graph_a": lambda: A_EDGES,
                "hk60": lambda: gen_hk(60, 3, 0.6, 2).labeled_edges()}
NAIVE_SHA256 = {
    "graph_a": ("ed161aca68fe9b94f33224b93ea7f7b42a54054685b7f8ecbf8be23b99ffd06c",
                "11248ffbfafec50a272c540ca7d4e91d7d699c423011c2db56e4e954985841ee"),
    "hk60": ("16766119ffedf2bcfc85b643a9880b341d62c7b13cea76516885d589aac55ee1",
             "f56f62ec1785e44fbef7354af62f76d0016a745555c79324e0c063a8515b59bb"),
}


@pytest.mark.parametrize("name", sorted(NAIVE_GRAPHS))
def test_naive_report_is_frozen(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    write_edges(tmp_path / "g.txt", NAIVE_GRAPHS[name]())
    assert main(["maximize", "g.txt", "--k", "4", "--budget", "3", "--method", "NAIVE",
                 "--stable-output", "--out", "rep.json", "--trace", "trace.csv"]) == 0
    digests = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                    for f in ("rep.json", "trace.csv"))
    assert digests == NAIVE_SHA256[name]


# RD with a distance filter on gen_hk(120, 4, 0.6, 3), k=5, b=5, n_c=6,
# seed 4: the rounds and the report digest of the code that decoded the
# whole pool index by index
FILTERED_RD_ROUNDS = [("38", "44", "IOM", 38), ("101", "12", "IIM", 42), ("7", "117", "IOM", 46),
                      ("4", "94", "IOM", 47), ("7", "43", "IOM", 51)]
FILTERED_RD_SHA256 = "ff046b8ad7e89394307716585e1fb3cdbea500e5975c8c11c69dd162e4a5f2f5"


def test_filtered_rd_report_is_frozen(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_edges(tmp_path / "g.txt", gen_hk(120, 4, 0.6, 3).labeled_edges())
    rng = random.Random(5)
    (tmp_path / "coords.txt").write_text(
        "".join(f"{v} {rng.uniform(0, 1):.4f} {rng.uniform(0, 1):.4f}\n" for v in range(120)),
        encoding="utf-8")
    assert main(["maximize", "g.txt", "--k", "5", "--budget", "5", "--nc", "6", "--method", "RD",
                 "--seed", "4", "--coords", "coords.txt", "--dist-threshold", "40",
                 "--stable-output", "--out", "rep.json"]) == 0
    data = (tmp_path / "rep.json").read_bytes()
    rounds = json.loads(data)["plan"]["rounds"]
    assert [(r["v1"], r["v2"], r["kind"], r["size"]) for r in rounds] == FILTERED_RD_ROUNDS
    assert hashlib.sha256(data).hexdigest() == FILTERED_RD_SHA256


# `robustness-study ... --rounds 2 --seed 1 --out study.csv`: digests of the CSVs
# from the greedy that scored every SG/NC candidate with its own spectrum
ER50 = ["--model", "er", "--n", "50", "--p", "0.1"]
WS40 = ["--model", "ws", "--n", "40", "--k-nbrs", "4", "--p", "0.2"]
HK40 = ["--model", "hk", "--n", "40", "--attach", "2", "--p", "0.5"]
STUDY_SHA256 = {
    ("er", "SG", "merge"): "38bd5fe0303c9d68afd4bcd89fce6ecd7c35dc7236a2630f73e96c00fce3c293",
    ("er", "SG", "add_edge"): "ef197cf603fd324071f168c709cd67b9db3b7f03c5295037847b6bc80dfe4f31",
    ("er", "NC", "merge"): "086f9b6ff06c40ca2891452f9509b2e6d47a35f94b5363e9dec48d8d2358813e",
    ("er", "NC", "add_edge"): "ec0dff7921091fc148a0c8c1a39320214f869c59e2a33323dc4f03981f92c259",
    ("ws", "SG", "merge"): "85eecd3b27b015bef506ce76a63890e8487b46e21bf848d38d0d2017cfe0bdb2",
    ("ws", "NC", "add_edge"): "3c47872889c43ce770b81860167a321b74db652fb24e6747e6847d2c6bf7f8e8",
    ("hk", "SG", "add_edge"): "f0da81efe481a36915d7b13b09f82d9574d6d34f09ef0d9d3484b80b8c0c8b3b",
    ("hk", "NC", "merge"): "093f0bdbdb1a3488513266cfcf8e86038d95051f4839d4229bb2618110d08e77",
    ("er", "VB", "merge"): "51a7c136362cafbd6147f23efb6a2c020fec1ef2073269738f4f9e435ba0c1e2",
    ("er", "VB", "add_edge"): "a889f2fe386126d137c6f33193a89841d74e931bfc00325917b895bb505c416a",
    ("er", "EB", "merge"): "89afdc6ea2d0c1c0420c2ed6c34073bf9eff061444b2c4c9e1519aefad62a10e",
    ("er", "EB", "add_edge"): "a889f2fe386126d137c6f33193a89841d74e931bfc00325917b895bb505c416a",
    ("er", "ER", "merge"): "6434ef9bc462ddb07afea0c1d364611d7b5ede79039166cfb416979179216e81",
    ("er", "ER", "add_edge"): "254528b4d9de102ed9e8b4bee3fcf2465eff7f89da88fcabe42604bc437cff5d",
    ("er", "AD", "merge"): "51a7c136362cafbd6147f23efb6a2c020fec1ef2073269738f4f9e435ba0c1e2",
    ("er", "AD", "add_edge"): "a889f2fe386126d137c6f33193a89841d74e931bfc00325917b895bb505c416a",
    ("er", "TS", "merge"): "45250f912787117d018d511608af2bd978c757ce4fa69881740f99742b2f2bab",
    ("er", "TS", "add_edge"): "47d45f7d091013e9cb82807ca1cbc83f393a24d9d53b38b05ed32a19e64cfce5",
    ("er", "LC", "merge"): "57c4876332273983c0707c0da96c1643d5381a989c5cd285b05dae61ea5e2308",
    ("er", "LC", "add_edge"): "069d1fd127632e0de4853a1f33152456451ab96a3f6f2c7a95a0514c04de76c6",
}


@pytest.mark.parametrize("model, metric, op", sorted(STUDY_SHA256))
def test_robustness_study_output_is_frozen(tmp_path, model, metric, op):
    out = tmp_path / "study.csv"
    flags = {"er": ER50, "ws": WS40, "hk": HK40}[model]
    assert main(["robustness-study", *flags, "--metric", metric, "--op", op,
                 "--rounds", "2", "--seed", "1", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == STUDY_SHA256[(model, metric, op)]


def test_compare_grid(graph_a_file, capsys):
    assert main(["compare", graph_a_file, "--k", "4,5", "--methods", "BM,RD",
                 "--trials", "3", "--budget", "2", "--nc", "4",
                 "--stable-output"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("k,method,trials,initial_size,mean_final_size,"
                        "mean_increase,mean_seconds")
    assert len(lines) == 5
    cells = [line.split(",") for line in lines[1:]]
    assert [(c[0], c[1], c[2]) for c in cells] == [
        ("4", "BM", "1"), ("4", "RD", "3"), ("5", "BM", "1"), ("5", "RD", "3")]
    assert all(c[3] == "11" for c in cells[:2])
    assert all(c[6] == "0" for c in cells)


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_compare_rejects_trials_below_one(graph_a_file, trials, capsys):
    assert main(["compare", graph_a_file, "--k", "4", "--methods", "RD", "--trials", trials]) == 1
    assert capsys.readouterr().err == "error: DOMAIN --trials must be at least 1\n"


@pytest.mark.parametrize("flag, value, error", [
    ("--methods", "", "--methods needs at least one method"),
    ("--methods", " , ", "--methods needs at least one method"),
    ("--methods", "BM,XX", "--methods: unknown method 'XX' (one of BM, EQ, II, IO, RD, NE, NT, NAIVE)"),
    ("--methods", "BM,RD,bm", "--methods: BM is listed twice"),
    ("--k", "", "--k needs at least one value"),
    ("--k", " , ", "--k needs at least one value"),
], ids=["", " , ", "unknown-method", "repeated-method", "k-empty", "k-commas"])
def test_compare_rejects_empty_method_list(graph_a_file, flag, value, error, tmp_path, capsys):
    out = tmp_path / "grid.csv"
    argv = {"--k": "4", "--methods": "RD", flag: value}
    assert main(["compare", graph_a_file, *(x for kv in argv.items() for x in kv), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: DOMAIN {error}\n"
    assert not out.exists()


def test_robustness_study_dataset_mode(er_file, capsys):
    assert main(["robustness-study", "--dataset", er_file, "--k", "4",
                 "--rounds", "3", "--nc", "6"]) == 0
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["round", "operation", "truss_size", "VB", "EB", "ER", "SG", "NC"]
    assert len(rows) == 6
    body = rows[1:5]
    assert [c[2] for c in body] == ["120", "146", "168", "179"]
    assert body[0][1] == "baseline"
    assert all(c[1].startswith("merge(") for c in body[1:])
    tail = rows[5]
    assert tail[1] == "pearson_r"
    assert all(abs(float(x)) >= 0.9 for x in tail[3:])


def test_robustness_study_generator_mode(capsys):
    assert main(["robustness-study", "--model", "er", "--n", "20", "--p", "0.25",
                 "--metric", "NC", "--op", "add_edge", "--rounds", "2",
                 "--seeds", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "seed,round,operation,VB,EB,ER,SG,NC,AD,TS,LC"
    assert len(lines) == 7
    assert lines[1].startswith("0,0,baseline,")
    assert lines[4].startswith("1,0,baseline,")


def test_robustness_study_requires_a_mode(capsys):
    assert main(["robustness-study", "--metric", "NC"]) == 1
    assert capsys.readouterr().err.startswith("error: DOMAIN")
    assert main(["robustness-study", "--dataset", "x.txt"]) == 1
    assert capsys.readouterr().err.startswith("error: DOMAIN")


@pytest.mark.parametrize("extra", [
    ["--model", "ws", "--n", "5", "--k-nbrs", "8"],
    ["--model", "hk", "--n", "3", "--attach", "5"],
    ["--model", "hk", "--p", "1.5"],
    ["--model", "er", "--n", "-3"],
    ["--model", "er", "--p", "1.5"],
    ["--model", "er", "--rounds", "-1"],
    ["--model", "er", "--seeds", "0"],
])
def test_robustness_study_rejects_out_of_domain_models(extra, capsys):
    assert main(["robustness-study", "--metric", "NC", "--op", "merge"] + extra) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: DOMAIN")
    assert "Traceback" not in err


def test_robustness_study_rejects_negative_rounds_in_dataset_mode(er_file, capsys):
    assert main(["robustness-study", "--dataset", er_file, "--k", "4", "--rounds", "-1"]) == 1
    assert capsys.readouterr().err.startswith("error: DOMAIN")


@pytest.mark.parametrize("mode", [["--k", "4"], ["--metric", "NC", "--op", "merge", "--model", "er"]])
def test_robustness_study_rejects_negative_betweenness_sources(er_file, mode, capsys):
    source = ["--dataset", er_file] if "--k" in mode else []
    assert main(["robustness-study", *source, *mode, "--betweenness-sources", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: DOMAIN --betweenness-sources")
    assert "Sample larger" not in err


@pytest.mark.parametrize("dataset, extra, flag", [
    (True, ["--model", "er", "--metric", "SG", "--op", "merge"], "--model"),
    (True, ["--metric", "SG"], "--metric"),
    (True, ["--op", "merge"], "--op"),
    (False, ["--betweenness-sources", "5"], "--betweenness-sources"),
    (False, ["--k", "7"], "--k"),
    (False, ["--ni", "5"], "--ni"),
    (False, ["--no", "5"], "--no"),
    (False, ["--nc", "3"], "--nc"),
], ids=["model", "metric", "op", "betweenness-sources", "k", "ni", "no", "nc"])
def test_robustness_study_rejects_the_other_modes_flags(er_file, tmp_path, dataset, extra, flag, capsys):
    out = tmp_path / "study.csv"
    mode = ["--dataset", er_file, "--k", "3"] if dataset else ["--model", "er", "--metric", "SG", "--op", "merge"]
    assert main(["robustness-study", *mode, *extra, "--rounds", "1", "--out", str(out)]) == 1
    side = "with" if dataset else "without"
    assert capsys.readouterr().err == f"error: DOMAIN {flag} does not apply {side} --dataset\n"
    assert not out.exists()


def test_fixtures_coverage_round_trip(tmp_path, capsys):
    out = tmp_path / "gadget.txt"
    assert main(["fixtures", "coverage", "--sets", "1,2;2,3;3,4", "--k", "4",
                 "--d", "8", "--out", str(out)]) == 0
    capsys.readouterr()
    with open(out, encoding="utf-8") as fh:
        g = Graph.from_edge_list(fh)
    spec = FixtureSpec(sets=(frozenset({1, 2}), frozenset({2, 3}), frozenset({3, 4})),
                       k=4, d=8)
    want = hardness_fixture(spec)
    assert {frozenset(e) for e in g.labeled_edges()} == \
        {frozenset(e) for e in want.labeled_edges()}


def test_fixtures_witness_pairs(tmp_path, capsys):
    out = tmp_path / "witness.txt"
    pairs_out = tmp_path / "pairs.json"
    assert main(["fixtures", "witness", "--d", "4", "--out", str(out),
                 "--pairs-out", str(pairs_out)]) == 0
    capsys.readouterr()
    doc = json.loads(pairs_out.read_text())
    g, xs, ys, extra = nonsubmodularity_witness(4)
    assert doc["k"] == 5 and doc["d"] == 4
    assert doc["X"] == [[g.label(a), g.label(b)] for a, b in xs]
    assert doc["Y"] == [[g.label(a), g.label(b)] for a, b in ys]
    assert doc["x"] == [g.label(extra[0]), g.label(extra[1])]
    assert len(out.read_text().splitlines()) == g.edge_count


def test_missing_file_is_io_error(capsys):
    assert main(["decompose", "/nonexistent/path.txt"]) == 1
    assert capsys.readouterr().err.startswith("error: IO")


def test_malformed_line_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("a b\nonly-one-token\n", encoding="utf-8")
    assert main(["decompose", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("error: PARSE")


@pytest.mark.parametrize("bad", ["edges", "coords"])
def test_parse_error_names_the_coordinates_file(graph_a_file, tmp_path, bad, capsys):
    edges, coords = tmp_path / "bad.txt", tmp_path / "co.txt"
    edges.write_text("a b\nonly-one-token\n", encoding="utf-8")
    coords.write_text("0 0.0 0.0\nb inf 0\n" if bad == "coords" else "0 0.0 0.0\n", encoding="utf-8")
    argv = ["maximize", str(edges) if bad == "edges" else graph_a_file, "--k", "3",
            "--coords", str(coords), "--dist-threshold", "100"]
    assert main(argv) == 1
    assert capsys.readouterr().err == {
        "edges": "error: PARSE line 2: expected two endpoint labels, got 'only-one-token'\n",
        "coords": f"error: PARSE --coords {coords} line 2: not a position (lat in [-90, 90], "
                  "lon in [-180, 180]) in 'b inf 0'\n"}[bad]


def test_bad_domain_values(graph_a_file, capsys):
    assert main(["maximize", graph_a_file, "--k", "4", "--budget", "0"]) == 1
    assert capsys.readouterr().err.startswith("error: DOMAIN")
    assert main(["maximize", graph_a_file, "--k", "2"]) == 1
    assert capsys.readouterr().err.startswith("error: DOMAIN")
    assert main(["fixtures", "coverage", "--sets", ";"]) == 1
    assert capsys.readouterr().err.startswith("error: DOMAIN")
    for sets in ("a", "1,x", "1.5"):
        assert main(["fixtures", "coverage", "--sets", sets]) == 1
        assert capsys.readouterr().err == \
            f"error: DOMAIN --sets: {sets!r} is not a comma-separated list of integers\n"


@pytest.mark.parametrize("argv", [
    ["maximize", "GRAPH", "--k", "4"],
    ["compare", "GRAPH", "--k", "4"],
    ["robustness-study", "--model", "er", "--metric", "NC", "--op", "merge"],
    ["robustness-study", "--dataset", "GRAPH", "--k", "4", "--rounds", "0"],
], ids=["maximize", "compare", "robustness-model", "robustness-dataset"])
@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_below_one_is_rejected(graph_a_file, tmp_path, argv, threads, capsys):
    out = tmp_path / "out.txt"
    argv = [graph_a_file if a == "GRAPH" else a for a in argv]
    assert main(argv + ["--threads", threads, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: DOMAIN --threads must be at least 1\n"
    assert not out.exists()


def test_naive_is_guarded_on_large_graphs(tmp_path, capsys):
    g = gen_er(210, 0.02, 0)
    path = write_edges(tmp_path / "big.txt", g.labeled_edges())
    assert main(["maximize", path, "--k", "3", "--method", "NAIVE"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: DOMAIN") and "200" in err


@pytest.mark.parametrize("text, value", [
    ("true", True), ("false", False), ("yes", True), ("no", False), ("1", True), ("0", False),
    (" False ", False), ("YES", True)])
def test_allow_no_op_accepts_boolean_spellings(graph_a_file, tmp_path, text, value):
    out = tmp_path / "report.json"
    assert main(maximize_args(graph_a_file, str(out), allow_no_op=text)) == 0
    assert json.loads(out.read_text())["config"]["allow_no_op"] is value


@pytest.mark.parametrize("argv", [
    ["maximize", "GRAPH", "--k", "4", "--allow-no-op", "maybe"],
    ["decompose", "GRAPH", "--k", "3,x"],
    ["compare", "GRAPH", "--k", "3,x"],
    ["robustness-study", "--model", "er", "--metric", "NC", "--op", "merge", "--budget", "3"],
    ["robustness-study", "--model", "er", "--metric", "NC", "--op", "merge", "--stable-output"],
], ids=["allow-no-op", "decompose-k", "compare-k", "robustness-budget", "robustness-stable-output"])
def test_bad_flag_values_exit_two(graph_a_file, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([graph_a_file if a == "GRAPH" else a for a in argv])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("error: USAGE")


def test_usage_errors_exit_two(graph_a_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["maximize", graph_a_file, "--k", "4", "--method", "XX"])
    assert exc.value.code == 2
    assert "error: USAGE" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["maximize", graph_a_file])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "trussmerge 0.1.0"
