"""Truss and core decomposition, shells, and fast post-merger evaluation.

The k-truss of a graph is the maximal subgraph in which every edge closes
at least k-2 triangles. Edge trussness t(e) is the largest k whose k-truss
contains e (floor 2). ``post_merger_truss_size`` evaluates how large the
k-truss becomes after merging a node pair without rebuilding the whole
graph: only the (k-1)-truss R, with the pair's edges replaced by the
merged node's star (call it R*), can matter.

Evaluation lifts shell edges (R minus the k-truss T_k) in the order ``pos``
in which peeling R removed them, then peels H = T_k + star + lifted. It is
exact: let f be the earliest shell edge of the new k-truss T' left unlifted.
Popped, f would pass the lift test, so it never was: it has no star
triangle (those seed the heap) and no T' triangle with a lifted edge (one
is fresh at its earliest lifted edge, which pushes f). So its k-2 T'
triangles are old, with T_k or later shell edges, and the peel could not
have removed f. Hence T' <= H <= R*, and the k-truss of H is T'.

A greedy round needs a candidate's size only if it reaches the round's
floor, the least size that could still win. |T'| <= |H|, and |H| is known
right after the lift, so a candidate with |H| below the floor stops
there. Every edge set the peel passes through still holds T', so the
peel stops as soon as fewer edges than the floor are left. A stopped
evaluation returns an upper bound below the floor; a size at or above
the floor is exact.

``TrussView.merge`` carries the view across an executed merge, so that it
equals ``compute`` on the merged graph G'. The argument above needs only
a valid peel order from a known superset of the truss, so the view keeps
two levels: R over T_k, and, in ``lower``, G over R, with the first
peel's order and R's supports. At level k-1 the superset is G' itself, so
the same lift-then-peel gives R', and R' edges outside R are lifted
edges. At level k it gives T'. An edge off v1 keeps its triangles but
those through v1 and v2, and gains one through v1 when both its ends are
in N'.

pos' (peel order). An order of the shell R' - T' is a valid peel order
iff every shell edge has at most k-3 forward triangles, whose other two
edges are in T' or later in the order. The kept shell edges, those the
evaluation neither lifted nor peeled, keep their order. V starts as the
other shell edges: the star edges outside T', the edges the peel of H
removed, and the edges new to the superset (``came``: at level k, those
the lower level lifted; none at level k-1). It takes in every kept edge
with more than k-3 forward triangles, counting V as later, until none is
left; V goes last, in the order ``_peel`` removes it from T' + V, whose
k-truss is T' as T' <= T' + V <= R'. So the invariant holds, and V is
peeled in place on T'. As V grows, a kept edge gains forward triangles
only with the edge that joined, so the closure re-checks a superset: each
kept edge sharing a triangle with a joining edge. It need start only next
to ``came`` edges. A kept edge that the lift popped failed its test,
which counted as forward every edge now in T' or V but the ``came``
edges. A kept edge never popped has no star triangle, since those seed
the heap, and no triangle with a lifted edge and a later edge, since a
fresh triangle pushes it. So only a ``came`` edge can give a kept edge
more than k-3 forward triangles.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from itertools import chain, count

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


def _peel(adj: dict[NodeId, set[NodeId]], sup: dict[Edge, int], k: int,
          limit: float = math.inf) -> list[Edge]:
    """Remove edges with support < k-2 until none is left; returns them in removal order.

    Mutates both arguments; ``sup`` keeps the surviving edges. The fixpoint
    is the k-truss of the input graph regardless of removal order. Only the
    edges keyed in ``sup`` itself can start below the threshold, so a
    ``_Lazy`` overlay on k-truss supports need hold only the changed ones.
    An edge's support is read before a neighbouring edge leaves ``adj``, so
    a ``_Lazy`` may also count it in ``adj`` on that first read. The peel
    stops early once it has removed more than ``limit`` edges.
    """
    below = k - 3
    queue = deque(e for e, s in sup.items() if s <= below)
    peeled: list[Edge] = []
    while queue and len(peeled) <= limit:
        e = queue.popleft()  # queued once: when first below the threshold
        del sup[e]
        peeled.append(e)
        x, y = e
        ax, ay = adj[x], adj[y]
        small, big = (ay, ax) if len(ay) < len(ax) else (ax, ay)
        for w in small:  # e is still in adj, so a support first counted here includes it
            if w in big:
                for f in ((x, w) if x < w else (w, x), (y, w) if y < w else (w, y)):
                    s = sup[f] - 1
                    sup[f] = s
                    if s == below:
                        queue.append(f)
        ax.discard(y)
        ay.discard(x)
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
    """Per-(graph, k) state behind fast post-merger evaluation.

    Holds the k-truss adjacency with each edge's support inside the k-truss,
    and each shell edge's rank in an order that peels the (k-1)-truss down to
    the k-truss: ``compute`` numbers its own removal order 0, 1, ...;
    ``merge`` keeps ranks rising in iteration order. ``lower`` holds the same
    one level down. The (k-1)-truss adjacency ``adj_km1`` is the level
    below's k-truss adjacency, or ``g``'s own adjacency on the bottom level.
    Evaluation never writes into these fields; :meth:`merge` carries both
    levels across the merge a greedy round executes, reusing the last
    complete evaluation when it was of the same pair.
    """

    g: Graph
    k: int
    tk_adj: dict[NodeId, set[NodeId]]
    sup_tk: dict[Edge, int]
    pos: dict[Edge, int]
    lower: TrussView | None = field(default=None, repr=False)
    # ((v1, v2), its _merged_truss result) of the last complete evaluation
    _memo: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def adj_km1(self) -> dict[NodeId, set[NodeId]]:
        """The (k-1)-truss adjacency: the level below's k-truss."""
        return self.g.adj if self.lower is None else self.lower.tk_adj

    @property
    def tk_size(self) -> int:
        """Edge count of the k-truss."""
        return len(self.sup_tk)

    @property
    def nodes_km1(self) -> set[NodeId]:
        """Nodes of the (k-1)-truss."""
        return set(self.adj_km1)

    @property
    def shell(self) -> set[Edge]:
        """Edges of the (k-1)-truss that fall outside the k-truss."""
        return set(self.pos)

    @classmethod
    def compute(cls, g: Graph, k: int) -> "TrussView":
        """Peel the graph to its (k-1)-truss, then once more to its k-truss.

        Both peels reach the unique fixpoints the trussness map would give
        but only touch edges that actually fall out. The second peel's
        removal order is the shell edges' ``pos``; the first peel's, with the
        (k-1)-truss supports, makes the ``lower`` view at level k-1.
        """
        if k < 3:
            raise ValueError("k must be at least 3")
        adj = {v: set(ns) for v, ns in g.adj.items()}
        sup = _supports(g.adj)
        first = _peel(adj, sup, k - 1)
        # sets and dicts keep their tables after deletes: each level keeps fresh copies of
        # its survivors, and each working copy goes before the next copy is made
        adj = {v: set(ns) for v, ns in adj.items() if ns}
        lower = cls(g, k - 1, adj, dict(sup), {e: i for i, e in enumerate(first)})
        adj = {v: set(ns) for v, ns in adj.items()}
        shell = _peel(adj, sup, k)
        adj = {v: set(ns) for v, ns in adj.items() if ns}
        return cls(g, k, adj, dict(sup), {e: i for i, e in enumerate(shell)}, lower)

    def truss_size_after_merge(self, v1: NodeId, v2: NodeId, floor: int | None = None) -> int:
        """|E(T_k)| of the graph with v2 merged into v1.

        Given a ``floor``, a size below it is only an upper bound: the
        evaluation stops once the size is known to fall below the floor.
        """
        size, overlays = self._merged_truss(v1, v2, floor)
        if floor is None or size >= floor:
            self._memo = (v1, v2), (size, overlays)
        return size

    def _merged_truss(self, v1: NodeId, v2: NodeId, floor: int | None = None):
        """The k-truss T' of the graph with v2 merged into v1, as overlays on the view.

        Lifts the shell edges the merge can carry into T' (see the module
        docstring), then peels the k-truss plus the merged node's star plus
        the lifted edges, holding only the changes in overlays. Returns
        (|E(T')|, (T' adjacency over ``tk_adj``, T' supports over ``sup_tk``,
        the edges peeled off, the nodes whose adjacency the overlay changes)),
        or an upper bound below ``floor`` and unfinished overlays (None if
        it stopped before the peel).
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
        star &= a.keys()
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
        never = next(reversed(pos.values()), -1) + 1  # above every rank
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
        size = self.tk_size - len(t1) - len(t2) + (v2 in t1) + len(star) + len(lifted)
        if floor is not None and size < floor:
            return size, None
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
        peeled = _peel(adj, sup, self.k, math.inf if floor is None else size - floor)
        return size - len(peeled), (adj, sup, peeled, star.union(lifted_adj))

    def merge(self, v1: NodeId, v2: NodeId) -> None:
        """Merge v2 into v1 in ``g``, and carry both levels of the view.

        Afterwards every field of both levels equals :meth:`compute` on the
        merged graph, with ``pos`` a valid peel order of the same shell
        edges; the module docstring gives the argument. Each level runs one
        lift-then-peel on the unmerged graph, the lower level's gives the
        new (k-1)-truss, and work stays near the merged node's star. Each
        level's pair edges are listed first: the merge changes both supersets.
        """
        memo, self._memo = self._memo, None
        result = memo[1] if memo and memo[0] == (v1, v2) else self._merged_truss(v1, v2)
        low = self.lower
        low_result = low._merged_truss(v1, v2)
        pair, low_pair = ([canon(v, w) for v in (v1, v2) for w in a.get(v, ())]
                          for a in (self.adj_km1, low.adj_km1))
        self.g._merge_inplace(v1, v2)
        lifted, peeled = low._commit(v1, v2, low_result, low_pair, [])
        # adj_km1 is R' now: R edges the lower peel removed left it, its lifted edges joined it
        self._commit(v1, v2, result, pair + peeled, lifted)

    def _commit(self, v1: NodeId, v2: NodeId, result, gone: list[Edge],
                came: list[Edge]) -> tuple[list[Edge], list[Edge]]:
        """Write T' from the pair's ``_merged_truss`` result and repair ``pos``.

        ``adj_km1`` already holds the merged superset. ``gone`` lists the
        pair's old superset edges and the edges that left the superset,
        ``came`` the edges new to it off v1. Returns the shell edges lifted
        into T' and the edges the peel of H removed.
        """
        _, (h_adj, h_sup, h_peeled, h_nodes) = result
        a, tk, st, pos = self.adj_km1, self.tk_adj, self.sup_tk, self.pos
        for x, ns in ((v1, tk.get(v1, ())), (v2, tk.pop(v2, ()))):
            for w in ns:
                st.pop(canon(x, w), None)
        for e in h_peeled:
            st.pop(e, None)
        st.update(h_sup)
        for x in h_nodes.union(h_adj):
            if h_adj[x]:
                tk[x] = h_adj[x]
            else:
                tk.pop(x, None)
        # pos': drop the edges that left the shell; V starts with those new to it
        for e in chain(gone, h_peeled):
            pos.pop(e, None)
        lifted = [e for e in h_sup if pos.pop(e, None) is not None]
        vs = {canon(v1, x) for x in a.get(v1, ()) if x not in tk.get(v1, _EMPTY)}
        vs.update(came, (e for e in h_peeled if e[1] in a.get(e[0], _EMPTY)))
        self._carry_pos(vs, came)
        return lifted, h_peeled

    def _carry_pos(self, vs: set[Edge], came: list[Edge]) -> None:
        """Repair ``pos`` into a peel order of R' down to T'.

        ``pos`` holds the kept shell edges at their old ranks, ``vs`` the
        edges new to the shell, which start V, and ``came`` those of them new
        to the superset. An edge leaves ``pos`` as it joins V.
        """
        a, tk, pos, thr = self.adj_km1, self.tk_adj, self.pos, self.k - 3

        def forward(e: Edge) -> int:  # triangles with T', V or later shell edges
            p, (x, y), n = pos[e], e, 0  # an R' edge outside pos is in T' or V
            for w in a[x] & a[y]:
                n += (pos.get((x, w) if x < w else (w, x), p + 1) > p
                      and pos.get((y, w) if y < w else (w, y), p + 1) > p)
            return n

        def kept_mates(x: NodeId, y: NodeId) -> set[Edge]:  # kept edges in a triangle on (x, y)
            return {f for w in a[x] & a[y]
                    for f in ((x, w) if x < w else (w, x), (y, w) if y < w else (w, y)) if f in pos}

        check = set().union(*(kept_mates(*c) for c in came))
        while check:
            e = check.pop()
            if forward(e) > thr:
                del pos[e]
                vs.add(e)
                check |= kept_mates(*e)
        for x, y in vs:  # V goes last: peeling T' + V in place removes exactly V
            tk.setdefault(x, set()).add(y)
            tk.setdefault(y, set()).add(x)
        vsup = _Lazy(lambda e: math.inf)  # T' edges never leave this peel, so need no count
        vsup.update((e, len(tk[e[0]] & tk[e[1]])) for e in vs)
        pos.update(zip(_peel(tk, vsup, self.k), count(next(reversed(pos.values()), -1) + 1)))
        for x in {x for e in vs for x in e}:  # as compute leaves them: right-sized, none empty
            if tk[x]:
                tk[x] = set(tk[x])
            else:
                del tk[x]


def post_merger_truss_size(g: Graph, k: int, v1: NodeId, v2: NodeId) -> int:
    """k-truss edge count after merging v2 into v1; equals full recompute."""
    return TrussView.compute(g, k).truss_size_after_merge(v1, v2)
