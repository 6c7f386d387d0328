"""Truss and core decomposition, shells, and fast post-merger evaluation.

The k-truss of a graph is the maximal subgraph in which every edge closes
at least k-2 triangles. Edge trussness t(e) is the largest k whose k-truss
contains e (floor 2). ``post_merger_truss_size`` evaluates how large the
k-truss becomes after merging a node pair without rebuilding the whole
graph: only the (k-1)-truss R, with the pair's edges replaced by the
merged node's star (call it R'), can matter.

Evaluation lifts shell edges (R minus the k-truss T_k) in the order ``pos``
in which peeling R removed them, then peels H = T_k + star + lifted. It is
exact: let f be the earliest shell edge of the new k-truss T' left unlifted.
Popped, f would pass the lift test, so it never was: it has no star
triangle (those seed the heap) and no T' triangle with a lifted edge (one
is fresh at its earliest lifted edge, which pushes f). So its k-2 T'
triangles are old, with T_k or later shell edges, and the peel could not
have removed f. Hence T' <= H <= R', and the k-truss of H is T'.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

from .graph import Edge, Graph, NodeId, canon

_EMPTY: frozenset[NodeId] = frozenset()


@dataclass(frozen=True)
class TrussDecomposition:
    """Exact trussness for every edge, plus the largest nonempty level."""

    edge_trussness: dict[Edge, int]
    kmax: int = 2


@dataclass(frozen=True)
class CoreDecomposition:
    """Coreness (degeneracy level) for every node."""

    node_coreness: dict[NodeId, int]


def truss_decompose(g: Graph) -> TrussDecomposition:
    """Peel to the 3-truss, the 4-truss, ...; edges that fall at level k have trussness k-1."""
    adj = {v: set(ns) for v, ns in g.adj.items()}
    sup = _supports(g.adj)
    trussness: dict[Edge, int] = {}
    k = 2
    while sup:
        k += 1
        trussness.update(dict.fromkeys(_peel(adj, sup, k), k - 1))
    return TrussDecomposition({e: trussness[e] for e in g.edges()}, max(k - 1, 2))


def k_truss_edges(d: TrussDecomposition, k: int) -> set[Edge]:
    """Edges of the k-truss: {e : t(e) >= k}."""
    return {e for e, t in d.edge_trussness.items() if t >= k}


def shell_edges(d: TrussDecomposition, k: int) -> set[Edge]:
    """Edges of the (k-1)-truss that fall outside the k-truss."""
    return {e for e, t in d.edge_trussness.items() if t == k - 1}


def node_trussness(d: TrussDecomposition, g: Graph) -> dict[NodeId, int]:
    """Max trussness over incident edges; 2 for nodes with no scored edge."""
    t = {v: 2 for v in g.adj}
    for (u, v), tv in d.edge_trussness.items():
        if tv > t[u]:
            t[u] = tv
        if tv > t[v]:
            t[v] = tv
    return t


def truss_subgraph(g: Graph, d: TrussDecomposition, k: int) -> Graph:
    """Subgraph on the k-truss edges, preserving node ids and labels."""
    sub = Graph()
    for (u, v), t in d.edge_trussness.items():
        if t < k:
            continue
        for x in (u, v):
            if x not in sub.adj:
                sub.adj[x] = set()
                sub._labels[x] = g.label(x)
                sub._ids[sub._labels[x]] = x
        sub.adj[u].add(v)
        sub.adj[v].add(u)
        sub._m += 1
    return sub


def core_decompose(g: Graph) -> CoreDecomposition:
    """Standard degree peeling; deterministic by (degree, node id)."""
    deg = {v: len(ns) for v, ns in g.adj.items()}
    alive = {v: set(ns) for v, ns in g.adj.items()}
    heap = [(d, v) for v, d in deg.items()]
    heapq.heapify(heap)
    coreness: dict[NodeId, int] = {}
    cur = 0
    while heap:
        d, v = heapq.heappop(heap)
        if v in coreness or d != deg[v]:
            continue
        if d > cur:
            cur = d
        coreness[v] = cur
        for w in alive[v]:
            if w not in coreness:
                alive[w].discard(v)
                deg[w] -= 1
                heapq.heappush(heap, (deg[w], w))
    return CoreDecomposition(coreness)


def _supports(adj: dict[NodeId, set[NodeId]]) -> dict[Edge, int]:
    """Triangle count of every edge."""
    return {(u, v): len(ns & adj[v]) for u, ns in adj.items() for v in ns if u < v}


def merge_supports(g: Graph, sup: dict[Edge, int], v1: NodeId, v2: NodeId) -> None:
    """Merge v2 into v1 in place and update ``sup``, the triangle count of every edge.

    Only the pair's edges and the edges inside the merged node's star
    N' = (N1 | N2) - {v1, v2} can change; see :func:`_fix_star`.
    """
    a = g.adj
    n1, n2 = set(a.get(v1, ())), a.get(v2, _EMPTY)
    g._merge_inplace(v1, v2)  # validates the pair before sup changes
    for w in n1:
        del sup[canon(v1, w)]
    for w in n2 - {v1}:
        del sup[canon(v2, w)]
    _fix_star(sup, a[v1], a, n1, n2, v1)


def _fix_star(sup, star: set[NodeId], adj: dict[NodeId, set[NodeId]], n1, n2, v1: NodeId) -> None:
    """Merge v2 into v1 in ``sup``, the supports of ``adj``, inside the new star N'.

    An edge (x, y) of N' gains the triangle through v1 and loses those it had
    through v1 (old neighbours ``n1``) and v2 (``n2``); (v1, x) is recounted.
    """
    for x in star:
        nx = adj.get(x, _EMPTY) & star
        in1, in2 = x in n1, x in n2
        for y in nx:
            if x < y:
                delta = 1 - (in1 and y in n1) - (in2 and y in n2)
                if delta:
                    sup[(x, y)] += delta
        sup[canon(v1, x)] = len(nx)


def _peel(adj: dict[NodeId, set[NodeId]], sup: dict[Edge, int], k: int) -> list[Edge]:
    """Remove edges with support < k-2 until none is left; returns them in removal order.

    Mutates both arguments; ``sup`` keeps the surviving edges. The fixpoint
    is the k-truss of the input graph regardless of removal order. Only the
    edges keyed in ``sup`` itself can start below the threshold, so a
    ``_Lazy`` overlay on k-truss supports need hold only the changed ones.
    """
    below = k - 3
    queue = deque(e for e, s in sup.items() if s <= below)
    peeled: list[Edge] = []
    while queue:
        e = queue.popleft()  # queued once: when first below the threshold
        del sup[e]
        peeled.append(e)
        x, y = e
        ax, ay = adj[x], adj[y]
        ax.discard(y)
        ay.discard(x)
        if len(ay) < len(ax):
            ax, ay = ay, ax
        for w in ax:
            if w in ay:
                for f in ((x, w) if x < w else (w, x), (y, w) if y < w else (w, y)):
                    s = sup[f] - 1
                    sup[f] = s
                    if s == below:
                        queue.append(f)
    return peeled


class _Lazy(dict):
    """A dict that fills a missing key from ``make(key)`` on first read."""

    def __init__(self, make) -> None:
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


@dataclass
class TrussView:
    """Frozen per-(graph, k) state behind fast post-merger evaluation.

    Holds the (k-1)-truss adjacency, the k-truss adjacency with each edge's
    support inside the k-truss, and the position at which peeling the
    (k-1)-truss down to the k-truss removed each shell edge. Build once,
    evaluate many; evaluation never writes into these fields.
    """

    g: Graph
    k: int
    nodes_km1: set[NodeId]
    adj_km1: dict[NodeId, set[NodeId]]
    tk_size: int
    tk_adj: dict[NodeId, set[NodeId]]
    sup_tk: dict[Edge, int]
    pos: dict[Edge, int]

    @property
    def shell(self) -> set[Edge]:
        """Edges of the (k-1)-truss that fall outside the k-truss."""
        return set(self.pos)

    @classmethod
    def compute(cls, g: Graph, k: int, sup: dict[Edge, int] | None = None) -> "TrussView":
        """Peel the graph to its (k-1)-truss, then once more to its k-truss.

        Both peels reach the unique fixpoints the trussness map would give
        but only touch edges that actually fall out. The second peel's
        removal order is the shell edges' ``pos``. A given ``sup`` (every edge's
        triangle count, as kept by :func:`merge_supports`) is copied, not recounted.
        """
        if k < 3:
            raise ValueError("k must be at least 3")
        adj = {v: set(ns) for v, ns in g.adj.items()}
        sup = _supports(g.adj) if sup is None else dict(sup)
        _peel(adj, sup, k - 1)
        adj_km1 = {v: ns for v, ns in adj.items() if ns}
        tk_adj = {v: set(ns) for v, ns in adj_km1.items()}
        shell = _peel(tk_adj, sup, k)
        tk_adj = {v: ns for v, ns in tk_adj.items() if ns}
        pos = {e: i for i, e in enumerate(shell)}
        return cls(g, k, set(adj_km1), adj_km1, len(sup), tk_adj, sup, pos)

    def truss_size_after_merge(self, v1: NodeId, v2: NodeId) -> int:
        """|E(T_k)| of the graph with v2 merged into v1.

        Lifts the shell edges the merge can carry into the new k-truss (see
        the module docstring), then peels the k-truss plus the merged node's
        star plus the lifted edges, holding only the changes in overlays.
        """
        g = self.g
        if v1 == v2:
            raise ValueError("cannot merge a node with itself")
        if v1 not in g.adj or v2 not in g.adj:
            raise ValueError(f"merge endpoints ({v1}, {v2}) must both exist")
        a, tk, pos, thresh = self.adj_km1, self.tk_adj, self.pos, self.k - 2
        star = g.adj[v1] | g.adj[v2]
        star.discard(v1)
        star.discard(v2)
        star &= self.nodes_km1
        # lift pass, in peel order, seeded with the shell edges inside the star: an
        # edge counts a triangle when both other edges are star, k-truss, later
        # shell or already lifted edges. A triangle is fresh at its earliest
        # lifted edge; its later shell edges are pushed from there.
        if len(star) ** 2 < len(pos):  # walk a small star's edges, else scan the shell
            heap = [(pos[e], e) for x in star for y in a[x] & star
                    if x < y and (e := (x, y)) in pos]
            heapq.heapify(heap)
        else:  # pos is in peel order, so this list is already a heap
            heap = [(p, e) for e, p in pos.items() if e[0] in star and e[1] in star]
        seen = {e for _, e in heap}
        lifted: set[Edge] = set()
        lifted_adj: dict[NodeId, set[NodeId]] = {}
        fresh_at: list[tuple[Edge, list[tuple[Edge, Edge]]]] = []
        never = len(pos)
        while heap:
            pe, e = heapq.heappop(heap)
            x, y = e
            count = x in star and y in star
            fresh = []
            for w in a[x] & a[y]:
                if w == v1 or w == v2:
                    continue
                f = (x, w) if x < w else (w, x)
                h = (y, w) if y < w else (w, y)
                pf, ph = pos.get(f, never), pos.get(h, never)
                if pf > pe and ph > pe:
                    fresh.append((f, h))
                elif (pf > pe or f in lifted) and (ph > pe or h in lifted):
                    count += 1
            if count + len(fresh) < thresh:
                continue
            lifted.add(e)
            lifted_adj.setdefault(x, set()).add(y)
            lifted_adj.setdefault(y, set()).add(x)
            fresh_at.append((e, fresh))
            for pair in fresh:
                for f in pair:
                    if f in pos and f not in seen:
                        seen.add(f)
                        heapq.heappush(heap, (pos[f], f))
        # H = T_k without its v1/v2 edges + star + lifted, as overlays on tk and sup_tk
        t1, t2 = tk.get(v1, _EMPTY), tk.get(v2, _EMPTY)
        sup = _Lazy(self.sup_tk.__getitem__)
        sup.update(dict.fromkeys(lifted, 0))
        _fix_star(sup, star, tk, t1, t2, v1)
        for x, lx in lifted_adj.items():  # triangles gained through v1 over lifted edges
            if x in star and (lx := lx & star):
                sup[canon(v1, x)] += len(lx)
                for y in lx:
                    if x < y:
                        sup[(x, y)] += 1
        for e, fresh in fresh_at:  # the other new triangles, once each
            for f, h in fresh:
                if (f in lifted or f not in pos) and (h in lifted or h not in pos):
                    sup[e] += 1
                    sup[f] += 1
                    sup[h] += 1
        def h_adj(x: NodeId) -> set[NodeId]:
            ns = set(tk.get(x, ())).union(lifted_adj.get(x, ())).difference((v1, v2))
            return ns | {v1} if x in star else ns

        adj = _Lazy(h_adj)
        adj[v1] = set(star)
        size = self.tk_size - len(t1) - len(t2) + (v2 in t1) + len(star) + len(lifted)
        return size - len(_peel(adj, sup, self.k))


def post_merger_truss_size(g: Graph, d: TrussDecomposition, k: int, v1: NodeId, v2: NodeId) -> int:
    """k-truss edge count after merging v2 into v1; equals full recompute."""
    return TrussView.compute(g, k).truss_size_after_merge(v1, v2)
