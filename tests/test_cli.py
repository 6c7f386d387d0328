"""Command-line behavior: formats, error codes, output stability."""

import csv
import io
import json

import pytest

from trussmerge import (FixtureSpec, Graph, Method, RunConfig, TrussView, gen_er,
                        hardness_fixture, nonsubmodularity_witness, objective,
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


@pytest.mark.parametrize("method", ["BM", "EQ", "II", "IO", "RD", "NE", "NT"])
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
    # the report's node counts come from round 0, not from another build;
    # a skipped round still builds its state before finding no candidates
    assert len(calls) == len(plan["rounds"]) + (plan["skipped_rounds"] > 0)
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


def test_bad_domain_values(graph_a_file, capsys):
    assert main(["maximize", graph_a_file, "--k", "4", "--budget", "0"]) == 1
    assert capsys.readouterr().err.startswith("error: DOMAIN")
    assert main(["maximize", graph_a_file, "--k", "2"]) == 1
    assert capsys.readouterr().err.startswith("error: DOMAIN")


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
    assert capsys.readouterr().err.startswith("error: DOMAIN")


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
