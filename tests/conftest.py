"""Shared fixtures: seeded rngs, random graphs, dataset loading, and
the acceptance-criteria summary printed at the end of a run."""

from __future__ import annotations

import os
import random
from itertools import combinations
from pathlib import Path

import pytest

from trussmerge import Graph

DATA_ENV = "TRUSSMERGE_DATA"

ACCEPTANCE_RESULTS: list[tuple[int, str, str]] = []


def record_criterion(num: int, desc: str, status: str) -> None:
    ACCEPTANCE_RESULTS.append((num, desc, status))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num, desc, status in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"criterion {num:02d} [{status}] {desc}")


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260814)


def gnp_edges(rng: random.Random, n: int, p: float) -> set[tuple[int, int]]:
    return {(u, v) for u, v in combinations(range(n), 2) if rng.random() < p}


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    return Graph.from_edges(gnp_edges(rng, n, p), nodes=range(n))


def deep_snapshot(g: Graph) -> tuple[dict, dict, dict]:
    """Copies of g's adjacency (down to each neighbor set), label table and id table."""
    return {v: set(ns) for v, ns in g.adj.items()}, dict(g._labels), dict(g._ids)


def data_dir() -> Path:
    env = os.environ.get(DATA_ENV)
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[1] / "data"


def load_dataset_or_fail(name: str) -> Graph:
    path = data_dir() / name
    if not path.exists():
        pytest.fail(
            f"dataset {name} not found at {path}. This environment has no "
            "network access, so the file cannot be downloaded here; on a "
            "connected machine run scripts/fetch_datasets.py (or set "
            f"{DATA_ENV} to a directory holding {name}) and re-run.",
            pytrace=False)
    with path.open(encoding="utf-8") as fh:
        return Graph.from_edge_list(fh)


@pytest.fixture(scope="session")
def email_graph() -> Graph:
    return load_dataset_or_fail("email.txt")
