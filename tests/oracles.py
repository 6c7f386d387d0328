"""Independent reference implementations used to check the package.

Everything here recomputes results from first principles with the
slowest, most obvious algorithm available (repeated full recounts,
pairwise containment scans, path enumeration, pseudoinverses) and
deliberately shares no code with the package internals beyond the
Graph container's read-only accessors.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations

import networkx as nx
import numpy as np

Edge = tuple[int, int]


def _canon(u, v) -> Edge:
    return (u, v) if u <= v else (v, u)


def peel_k_truss(edges: set[Edge], k: int) -> set[Edge]:
    """Edges of the k-truss by repeated full support recounts."""
    cur = set(edges)
    while True:
        adj: dict[int, set[int]] = defaultdict(set)
        for u, v in cur:
            adj[u].add(v)
            adj[v].add(u)
        drop = {e for e in cur if len(adj[e[0]] & adj[e[1]]) < k - 2}
        if not drop:
            return cur
        cur -= drop


def truss_decompose_oracle(edges: set[Edge]) -> tuple[dict[Edge, int], int]:
    """(edge trussness, kmax) by peeling at every level from scratch."""
    t = {e: 2 for e in edges}
    k = 3
    cur = set(edges)
    while True:
        cur = peel_k_truss(cur, k)
        if not cur:
            return t, k - 1
        for e in cur:
            t[e] = k
        k += 1


def coreness_oracle(adj: dict[int, set[int]]) -> dict[int, int]:
    """Node coreness by repeated minimum-degree deletion per level."""
    cur = {v: set(ns) for v, ns in adj.items()}
    core = {v: 0 for v in adj}
    k = 1
    while cur:
        while True:
            drop = [v for v, ns in cur.items() if len(ns) < k]
            if not drop:
                break
            for v in drop:
                for w in cur[v]:
                    cur[w].discard(v)
                del cur[v]
        for v in cur:
            core[v] = k
        k += 1
    return core


def merge_edges(edges: set[Edge], v1: int, v2: int) -> set[Edge]:
    """Post-merger edge set: v2's endpoints renamed to v1, no loops/dups."""
    out = set()
    for u, v in edges:
        a = v1 if u == v2 else u
        b = v1 if v == v2 else v
        if a != b:
            out.add(_canon(a, b))
    return out


def post_merger_truss_size_oracle(edges: set[Edge], k: int, v1: int, v2: int) -> int:
    return len(peel_k_truss(merge_edges(edges, v1, v2), k))


def node_trussness_oracle(edges: set[Edge], nodes) -> dict[int, int]:
    t, _ = truss_decompose_oracle(edges)
    out = {v: 2 for v in nodes}
    for (u, v), tv in t.items():
        out[u] = max(out[u], tv)
        out[v] = max(out[v], tv)
    return out


def maximal_sets_oracle(nbrs: dict[int, frozenset]) -> set[int]:
    """Antichain by pairwise containment; empty sets dropped, ties keep
    the smallest id."""
    items = [(v, frozenset(s)) for v, s in sorted(nbrs.items()) if s]
    keep = set()
    for v, s in items:
        dominated = False
        for u, t in items:
            if u == v:
                continue
            if s < t or (s == t and u < v):
                dominated = True
                break
        if not dominated:
            keep.add(v)
    return keep


def support(edges: set[Edge], e: Edge) -> int:
    adj: dict[int, set[int]] = defaultdict(set)
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return len(adj[e[0]] & adj[e[1]])


def z_set_oracle(edges: set[Edge], k: int, v1: int, v2: int) -> set[int]:
    """Inside neighbors of either node, minus v1 and its (k-1)-truss
    neighbors: the far ends of the star edges an IOM merger adds."""
    km1 = peel_k_truss(edges, k - 1)
    inside = {v for e in km1 for v in e}
    adj: dict[int, set[int]] = defaultdict(set)
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    km1_nbrs_v1 = {u for e in km1 if v1 in e for u in e if u != v1}
    return ((adj[v1] | adj[v2]) & inside) - km1_nbrs_v1 - {v1}


def phse_oracle(edges: set[Edge], nodes, k: int, v1: int, v2: int) -> set[Edge]:
    """Shell edges whose support grows after adding (v1, z) for z in Z.

    Z is built from inside neighborhoods minus v1's neighbors within the
    (k-1)-truss subgraph and v1 itself; the helped set is found by a
    literal support recount on the augmented edge set.
    """
    km1 = peel_k_truss(edges, k - 1)
    shell = km1 - peel_k_truss(km1, k)
    z = z_set_oracle(edges, k, v1, v2)
    augmented = set(edges) | {_canon(v1, x) for x in z if x != v1}
    return {e for e in shell if support(augmented, e) > support(edges, e)}


def iim_score_oracle(edges: set[Edge], k: int, v1: int, v2: int) -> int:
    """-collisions + shell-support gains - shell-support losses.

    Collisions are common k-truss neighbors. Per shell edge (x, y) not
    touching the pair, the merged node sees a support gain when x and y
    sit in opposite exclusive inside neighborhoods, and a loss when
    both endpoints neighbor both nodes.
    """
    km1 = peel_k_truss(edges, k - 1)
    tk = peel_k_truss(km1, k)
    shell = km1 - tk
    inside = {v for e in km1 for v in e}
    adj: dict[int, set[int]] = defaultdict(set)
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    tk_adj: dict[int, set[int]] = defaultdict(set)
    for u, v in tk:
        tk_adj[u].add(v)
        tk_adj[v].add(u)
    n1 = adj[v1] & inside
    n2 = adj[v2] & inside
    score = -len(tk_adj[v1] & tk_adj[v2])
    for x, y in shell:
        if v1 in (x, y) or v2 in (x, y):
            continue
        in1 = (x in n1, y in n1)
        in2 = (x in n2, y in n2)
        if (in1[0] and not in2[0] and in2[1] and not in1[1]) or \
           (in2[0] and not in1[0] and in1[1] and not in2[1]):
            score += 1
        if in1[0] and in1[1] and in2[0] and in2[1]:
            score -= 1
    return score


def nt_gain_oracle(edges: set[Edge], k: int, v1: int, v2: int) -> int:
    """Triangle gain of the NT baseline, recomputed from neighbor sets.

    With N1 and N2 the inside (node of the (k-1)-truss) neighborhoods
    and E(S) the number of edges with both ends in S, merging v2 onto v1
    scores E(N1 | N2 - {v1}) - E(N1) for an outside v2. For an inside
    v2 it scores E(N1 | N2 - {v1, v2}) - E(N1) - E(N2), plus |N1 & N2|
    when the two are adjacent (the triangles through both were counted
    at each).
    """
    inside = {v for e in peel_k_truss(edges, k - 1) for v in e}
    adj: dict[int, set[int]] = defaultdict(set)
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)

    def within(s: set[int]) -> int:
        return sum(1 for u, v in edges if u in s and v in s)

    n1, n2 = adj[v1] & inside, adj[v2] & inside
    if v2 not in inside:
        return within((n1 | n2) - {v1}) - within(n1)
    common = len(n1 & n2) if v2 in n1 else 0
    return within((n1 | n2) - {v1, v2}) - within(n1) - within(n2) + common


def betweenness_oracle(labels, label_edges) -> tuple[dict, dict]:
    """Per-node and per-edge betweenness by shortest-path enumeration."""
    h = nx.Graph()
    h.add_nodes_from(labels)
    h.add_edges_from(label_edges)
    nb = {v: 0.0 for v in labels}
    eb = {tuple(sorted(e)): 0.0 for e in label_edges}
    for s, t in combinations(sorted(h.nodes), 2):
        if not nx.has_path(h, s, t):
            continue
        paths = list(nx.all_shortest_paths(h, s, t))
        w = 1.0 / len(paths)
        for p in paths:
            for v in p[1:-1]:
                nb[v] += w
            for a, b in zip(p, p[1:]):
                eb[tuple(sorted((a, b)))] += w
    return nb, eb


def effective_resistance_oracle(labels, label_edges) -> float:
    """Sum of pairwise resistances via the Laplacian pseudoinverse."""
    order = sorted(labels)
    pos = {v: i for i, v in enumerate(order)}
    n = len(order)
    lap = np.zeros((n, n))
    for u, v in label_edges:
        i, j = pos[u], pos[v]
        lap[i, j] -= 1
        lap[j, i] -= 1
        lap[i, i] += 1
        lap[j, j] += 1
    plus = np.linalg.pinv(lap)
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            total += plus[i, i] + plus[j, j] - 2 * plus[i, j]
    return float(total)


def natural_connectivity_oracle(labels, label_edges) -> float:
    order = sorted(labels)
    pos = {v: i for i, v in enumerate(order)}
    a = np.zeros((len(order), len(order)))
    for u, v in label_edges:
        a[pos[u], pos[v]] = a[pos[v], pos[u]] = 1.0
    lam = np.linalg.eigvalsh(a)
    return float(np.log(np.mean(np.exp(lam))))


def triangle_count_oracle(edges: set[Edge]) -> int:
    adj: dict[int, set[int]] = defaultdict(set)
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return sum(1 for a, b, c in combinations(sorted(adj), 3)
               if b in adj[a] and c in adj[a] and c in adj[b])


def best_merger_oracle(edges: set[Edge], nodes, k: int, pairs=None):
    """(best pair, best size) by trying every pair with full peeling."""
    node_list = sorted(nodes)
    if pairs is None:
        pairs = list(combinations(node_list, 2))
    best = None
    best_size = -1
    for v1, v2 in pairs:
        size = post_merger_truss_size_oracle(edges, k, v1, v2)
        if size > best_size:
            best = (v1, v2)
            best_size = size
    return best, best_size
