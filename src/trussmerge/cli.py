"""Command-line front end: ingestion, dispatch, machine-readable reports.

Subcommands: decompose, maximize, compare, robustness-study, fixtures.
Structured output is JSON (schema-versioned), tabular output is CSV.
All failures print ``error: CODE message`` on stderr and exit nonzero;
codes are USAGE, PARSE, IO and DOMAIN. Node labels stay strings
end-to-end.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from functools import cache
from pathlib import Path
from statistics import mean

from . import __version__
from .baselines import FixtureSpec, hardness_fixture, nonsubmodularity_witness
from .candidates import ConstraintFilter, load_coordinates
from .decomposition import k_truss_edges, truss_decompose
from .graph import Graph, ParseError
from .metrics import (MetricId, correlation_study, gen_er, gen_hk, gen_ws,
                      greedy_improve)
# build_round_state is not called here: perfbench/tracing.py looks it up in this module
from .search import Method, MergerPlan, RunConfig, build_round_state, run_method  # noqa: F401

SCHEMA_VERSION = 1
CSV_METRICS = [m.value for m in MetricId]
CORE_COLUMNS = ["VB", "EB", "ER", "SG", "NC"]


class _Parser(argparse.ArgumentParser):
    # route usage failures through the same error: CODE convention
    def error(self, message):
        self.exit(2, f"error: USAGE {message}\n")


def _bool_flag(text: str) -> bool:
    v = text.strip().lower()
    if v in ("true", "1", "yes"):
        return True
    if v in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true/false, got {text!r}")


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}")


def _parse_sets(text: str) -> tuple[frozenset[int], ...]:
    groups = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        groups.append(frozenset(int(tok) for tok in chunk.split(",") if tok.strip()))
    if not groups:
        raise ValueError("at least one set of elements is required")
    return tuple(groups)


def _load_graph(path: str) -> Graph:
    with open(path, encoding="utf-8") as fh:
        return Graph.from_edge_list(fh)


def _write_text(out: str | None, text: str) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return format(x, ".10g")
    return str(x)


def _constraint_filter(g: Graph, coords_path: str | None, threshold: float | None) -> ConstraintFilter | None:
    if coords_path is None and threshold is None:
        return None
    if not (coords_path and threshold is not None and threshold >= 0):
        # coordinates alone would filter nothing; NaN, a negative radius or
        # no coordinates would reject every pair
        raise ValueError("--dist-threshold and --coords need each other, with a radius >= 0 km")
    by_id: dict[int, tuple[float, float]] = {}
    with open(coords_path, encoding="utf-8") as fh:
        for label, xy in load_coordinates(fh).items():
            try:
                by_id[g.node_of(label)] = xy
            except ValueError:
                continue
    return ConstraintFilter(by_id, threshold)


def _config_echo(cfg: RunConfig, args) -> dict:
    # --threads changes nothing, so it is left out and reports match whatever it was
    return {
        "k": cfg.k, "budget": cfg.b, "ni": cfg.n_i, "no": cfg.n_o, "nc": cfg.n_c,
        "method": cfg.method.value, "seed": cfg.seed,
        "allow_no_op": cfg.allow_no_op,
        "coords": getattr(args, "coords", None),
        "dist_threshold": getattr(args, "dist_threshold", None),
    }


def _plan_json(g: Graph, plan: MergerPlan, stable: bool) -> dict:
    rounds = []
    for i, s in enumerate(plan.steps, start=1):
        rounds.append({
            "round": i,
            "v1": g.label(s.v1),
            "v2": g.label(s.v2),
            "kind": s.kind.value if s.kind is not None else None,
            "n_io": s.n_io,
            "evaluated": s.evaluated,
            "size": s.size_after,
            "wall_time": 0.0 if stable else s.wall_time,
        })
    return {
        "k": plan.k,
        "initial_size": plan.initial_size,
        "final_size": plan.final_size,
        "increase": plan.final_size - plan.initial_size,
        "skipped_rounds": plan.skipped_rounds,
        "rounds": rounds,
    }


def cmd_decompose(args) -> int:
    ks = list(args.k) if args.k else []
    if any(k < 2 for k in ks):
        raise ValueError("--k values must be at least 2")
    g = _load_graph(args.dataset)
    d = truss_decompose(g)
    if d.kmax not in ks:
        ks.append(d.kmax)
    rows = []
    for k in ks:
        edges = k_truss_edges(d, k)
        nodes = {v for e in edges for v in e}
        rows.append([k, len(nodes), len(edges), d.kmax])
    _write_text(args.out, _csv_text(["k", "nodes", "edges", "kmax"], rows))
    if args.edge_trussness:
        lines = [f"{g.label(u)} {g.label(v)} {d.edge_trussness[(u, v)]}\n" for u, v in g.edges()]
        Path(args.edge_trussness).write_text("".join(lines), encoding="utf-8")
    return 0


def cmd_maximize(args) -> int:
    g = _load_graph(args.dataset)
    cfg = RunConfig(k=args.k, b=args.budget, n_i=args.ni, n_o=args.no, n_c=args.nc,
                    method=Method(args.method), seed=args.seed,
                    filter=_constraint_filter(g, args.coords, args.dist_threshold),
                    allow_no_op=args.allow_no_op)
    start = time.perf_counter()
    plan = run_method(g, cfg)
    total = time.perf_counter() - start
    inside, outside, pruned = plan.node_counts
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "trussmerge", "version": __version__},
        "command": "maximize",
        "config": _config_echo(cfg, args),
        "dataset": {
            "path": args.dataset,
            "nodes": g.node_count,
            "edges": g.edge_count,
            "truss_sizes": {str(cfg.k): plan.initial_size},
            "inside_nodes": inside,
            "outside_nodes": outside,
            "pruned_outside_nodes": pruned,
        },
        "plan": _plan_json(g, plan, args.stable_output),
        "timings": {"total_seconds": 0.0 if args.stable_output else total},
    }
    _write_text(args.out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    if args.trace:
        rows = [[r["round"], r["v1"], r["v2"], r["kind"] or "", r["n_io"],
                 r["evaluated"], r["size"], _fmt(r["wall_time"])]
                for r in report["plan"]["rounds"]]
        Path(args.trace).write_text(
            _csv_text(["round", "v1", "v2", "kind", "n_io", "evaluated", "size", "wall_time"], rows),
            encoding="utf-8")
    return 0


def cmd_compare(args) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    methods = [Method(tok.strip().upper()) for tok in args.methods.split(",") if tok.strip()]
    if not methods:
        raise ValueError("--methods needs at least one method")
    if not args.k:
        raise ValueError("--k needs at least one value")
    g = _load_graph(args.dataset)
    rows = []
    for k in args.k:
        for method in methods:
            trials = args.trials if method is Method.RD else 1
            finals, seconds = [], []
            for t in range(trials):
                cfg = RunConfig(k=k, b=args.budget, n_i=args.ni, n_o=args.no,
                                n_c=args.nc, method=method, seed=args.seed + t)
                start = time.perf_counter()
                plan = run_method(g, cfg)
                seconds.append(time.perf_counter() - start)
                finals.append(plan.final_size)
                initial = plan.initial_size
            rows.append([k, method.value, trials, initial,
                         _fmt(mean(finals)), _fmt(mean(finals) - initial),
                         _fmt(0.0 if args.stable_output else mean(seconds))])
    header = ["k", "method", "trials", "initial_size", "mean_final_size",
              "mean_increase", "mean_seconds"]
    _write_text(args.out, _csv_text(header, rows))
    return 0


def cmd_robustness_study(args) -> int:
    if args.rounds < 0:
        raise ValueError("--rounds must be non-negative")
    if args.betweenness_sources is not None and args.betweenness_sources < 0:
        raise ValueError("--betweenness-sources must be non-negative")
    other = ("--model", "--metric", "--op") if args.dataset else ("--k", "--betweenness-sources")
    stray = [f for f in other if getattr(args, f[2:].replace("-", "_")) is not None]  # None: not given
    if stray:
        raise ValueError(f"{stray[0]} does not apply {'with' if args.dataset else 'without'} --dataset")
    if args.dataset:
        if args.k is None:
            raise ValueError("--k is required with --dataset")
        g = _load_graph(args.dataset)
        trace = correlation_study(g, args.k, args.rounds, n_i=args.ni, n_o=args.no, n_c=args.nc,
                                  seed=args.seed, betweenness_sources=args.betweenness_sources)
        rows = []
        for i, row in enumerate(trace.rows):
            rows.append([i, row.operation, row.truss_size] +
                        [_fmt(row.values.get(c)) for c in CORE_COLUMNS])
        rows.append(["", "pearson_r", ""] + [_fmt(trace.pearson_r.get(c)) for c in CORE_COLUMNS])
        _write_text(args.out, _csv_text(["round", "operation", "truss_size"] + CORE_COLUMNS, rows))
        return 0
    if not (args.model and args.metric and args.op):
        raise ValueError("either --dataset or --model/--metric/--op is required")
    if args.seeds < 1:
        raise ValueError("--seeds must be at least 1")
    rows = []
    for s in range(args.seeds):
        seed = args.seed + s
        if args.model == "er":
            g = gen_er(args.n, args.p, seed)
        elif args.model == "ws":
            g = gen_ws(args.n, args.k_nbrs, args.p, seed)
        else:
            g = gen_hk(args.n, args.attach, args.p, seed)
        trace = greedy_improve(g, MetricId(args.metric.upper()), args.op, args.rounds)
        for i, row in enumerate(trace.rows):
            rows.append([seed, i, row.operation] +
                        [_fmt(row.values.get(c)) for c in CSV_METRICS])
    _write_text(args.out, _csv_text(["seed", "round", "operation"] + CSV_METRICS, rows))
    return 0


def cmd_fixtures(args) -> int:
    if args.kind == "coverage":
        spec = FixtureSpec(sets=_parse_sets(args.sets), k=args.k, d=args.d,
                           r_count=args.r_count)
        g = hardness_fixture(spec)
        pairs_doc = None
    else:
        g, xs, ys, extra = nonsubmodularity_witness(args.d)
        pairs_doc = {
            "k": 5,
            "d": args.d,
            "X": [[g.label(a), g.label(b)] for a, b in xs],
            "Y": [[g.label(a), g.label(b)] for a, b in ys],
            "x": [g.label(extra[0]), g.label(extra[1])],
        }
    text = "".join(f"{g.label(u)} {g.label(v)}\n" for u, v in g.edges())
    _write_text(args.out, text)
    if pairs_doc is not None and args.pairs_out:
        Path(args.pairs_out).write_text(
            json.dumps(pairs_doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def _add_run_flags(p: argparse.ArgumentParser, *, budgeted: bool = True) -> None:
    p.add_argument("--ni", type=int, default=100, help="inside pool size")
    p.add_argument("--no", type=int, default=50, help="outside pool size")
    p.add_argument("--nc", type=int, default=10, help="candidates evaluated per round")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1,
                   help="must be >= 1; the search runs on one thread, so speed and results never change")
    p.add_argument("--out", default=None, help="write output here instead of stdout")
    if budgeted:  # robustness-study's length is --rounds, and its CSVs have no wall-clock field
        p.add_argument("--budget", type=int, default=10, help="mergers to apply (b)")
        p.add_argument("--stable-output", action="store_true",
                       help="zero wall-clock fields for byte-comparable output")


@cache  # one parser per process: each build leaves about 450 objects of cyclic garbage
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="trussmerge",
                     description="Grow a k-truss by merging node pairs under a budget.")
    parser.add_argument("--version", action="version", version=f"trussmerge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", parents=[], help="per-k truss sizes and kmax")
    p.add_argument("dataset")
    p.add_argument("--k", type=_int_list, default=None, help="comma-separated k values")
    p.add_argument("--edge-trussness", default=None, help="also dump per-edge trussness here")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("maximize", help="run one maximization method")
    p.add_argument("dataset")
    p.add_argument("--k", type=int, required=True)
    _add_run_flags(p)
    p.add_argument("--method", default="BM", choices=[m.value for m in Method])
    p.add_argument("--coords", default=None, help="coordinate file: label lat lon")
    p.add_argument("--dist-threshold", type=float, default=None, help="merge radius in km")
    p.add_argument("--allow-no-op", type=_bool_flag, default=True,
                   help="false stops early when no candidate grows the truss")
    p.add_argument("--trace", default=None, help="also write a per-round CSV here")
    p.set_defaults(func=cmd_maximize)

    p = sub.add_parser("compare", help="method x k grid of size increases")
    p.add_argument("dataset")
    p.add_argument("--k", type=_int_list, required=True)
    p.add_argument("--methods", default="BM,EQ,II,IO,RD,NE,NT")
    p.add_argument("--trials", type=int, default=5, help="seeds averaged for randomized methods")
    _add_run_flags(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("robustness-study",
                       help="greedy metric studies or truss-size correlation traces")
    p.add_argument("--dataset", default=None, help="correlation mode: track measures along a run")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--betweenness-sources", type=int, default=None,
                   help="subsample this many betweenness sources")
    p.add_argument("--model", choices=["er", "ws", "hk"], default=None)
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--p", type=float, default=0.1)
    p.add_argument("--k-nbrs", type=int, default=4, help="ring-lattice degree (ws)")
    p.add_argument("--attach", type=int, default=2, help="edges per new node (hk)")
    p.add_argument("--metric", default=None, choices=[m.value for m in MetricId])
    p.add_argument("--op", default=None, choices=["merge", "add_edge"])
    p.add_argument("--rounds", type=int, default=3)
    p.add_argument("--seeds", type=int, default=1, help="number of consecutive seeds")
    _add_run_flags(p, budgeted=False)
    p.set_defaults(func=cmd_robustness_study)

    p = sub.add_parser("fixtures", help="emit constructed gadget graphs as edge lists")
    p.add_argument("kind", choices=["coverage", "witness"])
    p.add_argument("--sets", default="1,2;2,3", help="semicolon-separated element lists")
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--d", type=int, default=8, help="node pairs per element")
    p.add_argument("--r-count", type=int, default=None, help="anchor nodes (default k-3)")
    p.add_argument("--pairs-out", default=None, help="witness: write merger pairs JSON here")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_fixtures)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "threads", 1) < 1:
            raise ValueError("--threads must be at least 1")
        return args.func(args)
    except ParseError as exc:
        print(f"error: PARSE {exc}", file=sys.stderr)
    except OSError as exc:
        print(f"error: IO {exc}", file=sys.stderr)
    except ValueError as exc:
        print(f"error: DOMAIN {exc}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
