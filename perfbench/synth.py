"""Seeded benchmark inputs and an independent k-truss oracle.

``syn-email`` stands in for the 986-node email network, which cannot be
fetched offline: a powerlaw-cluster graph plus three planted dense
communities, calibrated to about 15k edges and kmax 21-23. ``er50`` is
a run of consecutive connected G(50, 0.1) graphs, as in the criterion-12
study. Nothing here imports the package under test: the
truss peel below is the oracle the output checks compare against.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

import networkx as nx

EMAIL_NODES = 986
EMAIL_ATTACH = 14
EMAIL_TRIAD_P = 0.6
# (size, edge probability) of each planted community
EMAIL_COMMUNITIES = ((45, 0.8), (35, 0.85), (30, 0.9))
ER_N = 50
ER_P = 0.1


def syn_email_edges(seed: int) -> list[tuple[int, int]]:
    """Sorted canonical edges of the syn-email graph for ``seed``."""
    h = nx.powerlaw_cluster_graph(EMAIL_NODES, EMAIL_ATTACH, EMAIL_TRIAD_P, seed=seed)
    edges = {(min(u, v), max(u, v)) for u, v in h.edges()}
    rng = random.Random(seed)
    for size, p in EMAIL_COMMUNITIES:
        group = rng.sample(range(EMAIL_NODES), size)
        for i in range(size):
            for j in range(i + 1, size):
                if rng.random() < p:
                    a, b = group[i], group[j]
                    edges.add((min(a, b), max(a, b)))
    return sorted(edges)


def er_seeds(start: int, count: int) -> list[int]:
    """The first ``count`` seeds at or after ``start`` whose G(50, 0.1) is connected."""
    seeds = []
    s = start
    while len(seeds) < count:
        if nx.is_connected(er_graph(s)):
            seeds.append(s)
        s += 1
    return seeds


def er_graph(seed: int) -> nx.Graph:
    return nx.gnp_random_graph(ER_N, ER_P, seed=seed)


def write_edge_list(path: Path, edges: list[tuple[int, int]]) -> str:
    """Write ``u v`` lines unless the file already holds them; return a hash."""
    data = "".join(f"{u} {v}\n" for u, v in edges).encode()
    if not path.exists() or path.read_bytes() != data:
        path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()[:16]


def adjacency(edges) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {}
    for u, v in edges:
        if u != v:
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
    return adj


def contract(adj: dict[int, set[int]], v1: int, v2: int) -> None:
    """Merge v2 into v1 in place, dropping self-loops and parallel edges."""
    for w in adj.pop(v2):
        adj[w].discard(v2)
        if w != v1:
            adj[w].add(v1)
            adj[v1].add(w)


def edge_trussness(adj: dict[int, set[int]]) -> dict[tuple[int, int], int]:
    """Trussness of every edge by level-by-level support peeling.

    At level k the surviving graph is the k-truss; edges whose support
    there is at most k-2 cannot be in the (k+1)-truss, so they are
    peeled with trussness k until none is left.
    """
    adj = {v: set(ns) for v, ns in adj.items()}
    sup = {(u, v): len(ns & adj[v]) for u, ns in adj.items() for v in ns if u < v}
    truss: dict[tuple[int, int], int] = {}
    k = 2
    while sup:
        stack = [e for e, s in sup.items() if s <= k - 2]
        while stack:
            e = stack.pop()
            if e not in sup:
                continue
            del sup[e]
            truss[e] = k
            u, v = e
            adj[u].discard(v)
            adj[v].discard(u)
            for w in adj[u] & adj[v]:
                for f in ((min(u, w), max(u, w)), (min(v, w), max(v, w))):
                    sup[f] -= 1
                    if sup[f] <= k - 2:
                        stack.append(f)
        k += 1
    return truss


def truss_counts(truss: dict[tuple[int, int], int], k: int) -> tuple[int, int]:
    """(nodes, edges) of the k-truss."""
    edges = [e for e, t in truss.items() if t >= k]
    return len({v for e in edges for v in e}), len(edges)


def graph_stats(adj: dict[int, set[int]], truss: dict[tuple[int, int], int], ks=(5, 10)) -> dict:
    """Shape figures that pin the generated input, independent of the package."""
    out = {"nodes": len(adj), "edges": len(truss), "kmax": max(truss.values(), default=2)}
    for k in ks:
        out[f"k{k}_inside_nodes"] = truss_counts(truss, k - 1)[0]
        out[f"k{k}_shell_edges"] = sum(1 for t in truss.values() if t == k - 1)
        out[f"k{k}_truss_edges"] = truss_counts(truss, k)[1]
    return out
