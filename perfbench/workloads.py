"""The three workloads: the CLI calls of one pass and their output checks.

A workload's pass is a fixed list of ``trussmerge`` command lines, run
in-process through ``trussmerge.cli.main`` exactly as a user would type
them. The checks read only the files those commands write and compare
them with the oracles in :mod:`synth`, with networkx and with numpy;
plan replays also use ``trussmerge.search.objective``, which merges and
decomposes the whole graph instead of taking the fast evaluation path.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import networkx as nx
import numpy as np

import synth

THREADS = ["--threads", "1"]
SEARCH_BUDGET = 3
RD_BUDGET = 10
# one call per measure, both operations on betweenness and on the spectra
ER_CALLS = (("VB", "merge"), ("EB", "add_edge"), ("ER", "add_edge"), ("SG", "merge"),
            ("NC", "add_edge"))
ER_SEED_STRIDE = 100
# CSV reports print 10 significant digits
REL_TOL = 1e-8
ABS_TOL = 1e-8


@dataclass
class Call:
    name: str
    argv: list[str]
    out: Path


@dataclass
class Prepared:
    """Inputs of one workload for one seed, plus how to check its outputs."""

    calls: list[Call]
    parse_input: Path
    info: dict
    # outputs maps call name -> bytes written; check returns errors per call name
    check: Callable[[dict[str, bytes]], dict[str, list[str]]]
    gain: Callable[[dict[str, bytes]], int] | None = None   # summed truss gain of the pass


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _csv_rows(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode())))


# -- syn-email workloads --------------------------------------------------

class EmailInput:
    """The syn-email graph of one seed, written once and described."""

    def __init__(self, seed: int, runs: Path) -> None:
        self.edges = synth.syn_email_edges(seed)
        self.path = runs / f"syn-email-{seed}.txt"
        digest = synth.write_edge_list(self.path, self.edges)
        self.adj = synth.adjacency(self.edges)
        self.truss = synth.edge_trussness(self.adj)
        self.info = {"input": "syn-email", "path": self.path.name, "sha256_16": digest,
                     **synth.graph_stats(self.adj, self.truss)}

    def package_graph(self):
        from trussmerge.graph import Graph
        with self.path.open(encoding="utf-8") as fh:
            return Graph.from_edge_list(fh)

    def replay(self, k: int, initial: int, steps: list[tuple[str, str, int]]) -> list[str]:
        """Check a merger plan's sizes: objective() per round, oracle at both ends."""
        from trussmerge.search import objective
        errors = []
        _, expect_initial = synth.truss_counts(self.truss, k)
        if initial != expect_initial:
            errors.append(f"initial k={k} truss size {initial}, oracle says {expect_initial}")
        g = self.package_graph()
        pairs = [(g.node_of(a), g.node_of(b)) for a, b, _ in steps]
        for i, (_, _, size) in enumerate(steps, start=1):
            full = objective(g, k, pairs[:i]).size
            if size != full:
                errors.append(f"round {i}: reported size {size}, objective() gives {full}")
        if steps:
            adj = self.merged(steps)
            _, final = synth.truss_counts(synth.edge_trussness(adj), k)
            if steps[-1][2] != final:
                errors.append(f"final size {steps[-1][2]}, oracle says {final}")
        return errors

    def merged(self, steps) -> dict[int, set[int]]:
        adj = {v: set(ns) for v, ns in self.adj.items()}
        for a, b, *_ in steps:
            synth.contract(adj, int(a), int(b))
        return adj


def _plan_steps(report: dict) -> list[tuple[str, str, int]]:
    return [(r["v1"], r["v2"], r["size"]) for r in report["plan"]["rounds"]]


def _check_maximize(email: EmailInput, data: bytes, k: int, budget: int) -> list[str]:
    report = json.loads(data)
    plan = report["plan"]
    errors = []
    if report["dataset"]["nodes"] != email.info["nodes"] or \
            report["dataset"]["edges"] != email.info["edges"]:
        errors.append(f"dataset size {report['dataset']} differs from the generated graph")
    if len(plan["rounds"]) + plan["skipped_rounds"] != budget:
        errors.append(f"{len(plan['rounds'])} rounds + {plan['skipped_rounds']} skipped != budget {budget}")
    if report["timings"]["total_seconds"] != 0.0:
        errors.append("stable output carries a wall-clock time")
    errors += email.replay(k, plan["initial_size"], _plan_steps(report))
    return errors


def _maximize_gain(data: bytes) -> int:
    return json.loads(data)["plan"]["increase"]


def prepare_search(seed: int, runs: Path) -> Prepared:
    email = EmailInput(seed, runs)
    dec, mx = runs / "search-decompose.csv", runs / "search-maximize.json"
    calls = [
        Call("decompose", ["decompose", str(email.path), "--k", "5,10", "--out", str(dec)], dec),
        Call("maximize", ["maximize", str(email.path), "--k", "5", "--budget", str(SEARCH_BUDGET),
                          "--stable-output", *THREADS, "--out", str(mx)], mx),
    ]

    def check(outputs):
        errors = {"decompose": [], "maximize": []}
        kmax = email.info["kmax"]
        for row in _csv_rows(outputs["decompose"]):
            k = int(row["k"])
            want = synth.truss_counts(email.truss, k)
            got = (int(row["nodes"]), int(row["edges"]))
            if got != want or int(row["kmax"]) != kmax:
                errors["decompose"].append(f"k={k}: (nodes, edges, kmax) {got + (row['kmax'],)}, "
                                           f"oracle {want + (kmax,)}")
        errors["maximize"] = _check_maximize(email, outputs["maximize"], 5, SEARCH_BUDGET)
        return errors

    return Prepared(calls, email.path, email.info, check,
                    lambda outputs: _maximize_gain(outputs["maximize"]))


def prepare_random(seed: int, runs: Path) -> Prepared:
    email = EmailInput(seed, runs)
    out = runs / "random-maximize.json"
    calls = [Call("maximize-rd", ["maximize", str(email.path), "--k", "5", "--budget", str(RD_BUDGET),
                                  "--method", "RD", "--seed", str(seed), "--stable-output", *THREADS,
                                  "--out", str(out)], out)]

    def check(outputs):
        return {"maximize-rd": _check_maximize(email, outputs["maximize-rd"], 5, RD_BUDGET)}

    return Prepared(calls, email.path, email.info, check,
                    lambda outputs: _maximize_gain(outputs["maximize-rd"]))


def _spectral(adj: dict[int, set[int]]) -> dict[str, float]:
    nodes = sorted(adj)
    pos = {v: i for i, v in enumerate(nodes)}
    a = np.zeros((len(nodes), len(nodes)))
    for u, ns in adj.items():
        for v in ns:
            a[pos[u], pos[v]] = 1.0
    lam = np.linalg.eigvalsh(a)
    mu = np.linalg.eigvalsh(np.diag(a.sum(axis=1)) - a)
    top = float(lam[-1])
    return {"ER": float(len(nodes) * np.sum(1.0 / mu[1:])),
            "SG": float(lam[-1] - lam[-2]),
            "NC": top + math.log(float(np.mean(np.exp(lam - top))))}


def _compare(row: dict, expect: dict[str, float]) -> list[str]:
    errors = []
    for key, want in expect.items():
        got = float(row[key])
        if not _close(got, want):
            errors.append(f"{key}: reported {got!r}, reference {want!r}")
    return errors


# -- criterion-12 workload ------------------------------------------------

def _er_reference(h: nx.Graph) -> dict[str, float]:
    adj = {v: set(h[v]) for v in h}
    out = _spectral(adj)
    out["VB"] = sum(nx.betweenness_centrality(h, normalized=False).values()) / h.number_of_nodes()
    out["EB"] = sum(nx.edge_betweenness_centrality(h, normalized=False).values()) / h.number_of_edges()
    out["AD"] = nx.average_shortest_path_length(h)
    out["TS"] = nx.transitivity(h)
    out["LC"] = nx.average_clustering(h)
    return out


def prepare_er(seed: int, runs: Path) -> Prepared:
    # one graph per call, so the pass time averages over five graphs;
    # workload seeds far apart draw disjoint graph sets
    seeds = synth.er_seeds(ER_SEED_STRIDE * seed, len(ER_CALLS))
    graphs = {s: synth.er_graph(s) for s in seeds}
    path = runs / f"er50-{seeds[0]}.txt"
    synth.write_edge_list(path, sorted(graphs[seeds[0]].edges()))
    digest = hashlib.sha256(repr([sorted(graphs[s].edges()) for s in seeds]).encode()).hexdigest()
    info = {"input": "er50", "er_seeds": seeds,
            "edges": [graphs[s].number_of_edges() for s in seeds], "sha256_16": digest[:16]}
    calls, graph_of = [], {}
    for (m, op), s in zip(ER_CALLS, seeds):
        name = f"{m}-{op}"
        out = runs / f"er-{name}.csv"
        calls.append(Call(name, ["robustness-study", "--model", "er", "--n", str(synth.ER_N),
                                 "--p", str(synth.ER_P), "--rounds", "1", "--metric", m,
                                 "--op", op, "--seed", str(s), *THREADS, "--out", str(out)], out))
        graph_of[name] = graphs[s]

    def check(outputs):
        errors = {}
        for name, g0 in graph_of.items():
            rows = _csv_rows(outputs[name])
            errs = []
            if len(rows) != 2 or rows[0]["operation"] != "baseline":
                errs.append(f"expected a baseline and one greedy row, got {len(rows)} rows")
            else:
                errs += _compare(rows[0], _er_reference(g0))
                op, a, b = re.fullmatch(r"(merge|add_edge)\((\w+),(\w+)\)", rows[1]["operation"]).groups()
                if op == "merge":
                    h = nx.contracted_nodes(g0, int(a), int(b), self_loops=False)
                else:
                    h = g0.copy()
                    h.add_edge(int(a), int(b))
                errs += _compare(rows[1], _er_reference(h))
            errors[name] = errs
        return errors

    return Prepared(calls, path, info, check, None)


WORKLOADS = {
    "search-k5": prepare_search,
    "random-k5": prepare_random,
    "robust-er50": prepare_er,
}
