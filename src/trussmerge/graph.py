"""Undirected simple graphs with string labels and node-merge support.

Merging identifies two nodes: the second is removed and its edges are
redirected to the first, dropping any self-loop or parallel edge this
would create. All algorithms in this package operate on these graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

NodeId = int
Edge = tuple[NodeId, NodeId]


class ParseError(ValueError):
    """Malformed input line (edge list or coordinate file)."""


def canon(u: NodeId, v: NodeId) -> Edge:
    """Canonical (min, max) form of an undirected edge."""
    return (u, v) if u < v else (v, u)


class Graph:
    """Simple graph over dense integer node ids with an external label table.

    ``adj`` maps each node id to its neighbor set; callers must treat the
    sets as read-only. Use :meth:`merge` for a pure merge or
    :func:`merge_all` to apply a whole plan.
    """

    __slots__ = ("adj", "_labels", "_ids")

    def __init__(self) -> None:
        self.adj: dict[NodeId, set[NodeId]] = {}
        self._labels: dict[NodeId, str] = {}
        self._ids: dict[str, NodeId] = {}

    # -- construction -------------------------------------------------

    @classmethod
    def from_edge_list(cls, lines: Iterable[str]) -> "Graph":
        """Parse whitespace-separated label pairs, one edge per line.

        Lines starting with ``#`` and blank lines are skipped. Extra
        tokens after the first two are ignored. Duplicate edges and
        self-loops are dropped; nodes appear only through kept edges,
        so the result has no isolated nodes.
        """
        g = cls()
        adj, ids, labels = g.adj, g._ids, g._labels
        for lineno, raw in enumerate(lines, start=1):
            tokens = raw.split(None, 2)
            if not tokens or tokens[0][0] == "#":
                continue
            if len(tokens) < 2:
                raise ParseError(f"line {lineno}: expected two endpoint labels, got {raw.strip()!r}")
            a, b = tokens[0], tokens[1]
            if a == b:
                continue
            if (u := ids.get(a)) is None:
                u = ids[a] = len(ids)
                labels[u], adj[u] = a, set()
            if (v := ids.get(b)) is None:
                v = ids[b] = len(ids)
                labels[v], adj[v] = b, set()
            adj[u].add(v)
            adj[v].add(u)
        return g

    @classmethod
    def from_edges(cls, pairs: Iterable[tuple[object, object]], *, nodes: Iterable[object] = ()) -> "Graph":
        """Build from (label, label) pairs; ``nodes`` forces extra labels in.

        Unlike :meth:`from_edge_list`, labels listed in ``nodes`` are kept
        even when isolated, which the random-model generators rely on.
        """
        g = cls()
        for label in nodes:
            g._intern(str(label))
        for a, b in pairs:
            u, v = str(a), str(b)
            if u == v:
                continue
            g._add_edge(g._intern(u), g._intern(v))
        return g

    def _intern(self, label: str) -> NodeId:
        nid = self._ids.get(label)
        if nid is None:
            nid = len(self._ids)
            self._ids[label] = nid
            self._labels[nid] = label
            self.adj[nid] = set()
        return nid

    def _add_edge(self, u: NodeId, v: NodeId) -> None:
        if u != v:
            self.adj[u].add(v)
            self.adj[v].add(u)

    def copy(self) -> "Graph":
        g = Graph()
        g.adj = {v: set(nbrs) for v, nbrs in self.adj.items()}
        g._labels = dict(self._labels)
        g._ids = dict(self._ids)
        return g

    # -- queries ------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.adj)

    @property
    def edge_count(self) -> int:
        """Half the sum of the degrees, in O(n)."""
        return sum(map(len, self.adj.values())) // 2

    def nodes(self) -> list[NodeId]:
        return sorted(self.adj)

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        return u in self.adj and v in self.adj[u]

    def neighbors(self, v: NodeId) -> set[NodeId]:
        nbrs = self.adj.get(v)
        if nbrs is None:
            raise ValueError(f"unknown node id {v}")
        return nbrs

    def degree(self, v: NodeId) -> int:
        return len(self.neighbors(v))

    def support(self, u: NodeId, v: NodeId) -> int:
        """Number of triangles containing the edge (u, v)."""
        if not self.has_edge(u, v):
            raise ValueError(f"no edge ({u}, {v})")
        return len(self.adj[u] & self.adj[v])

    def edges(self) -> Iterator[Edge]:
        for u in sorted(self.adj):
            for v in sorted(self.adj[u]):
                if u < v:
                    yield (u, v)

    def edge_set(self) -> set[Edge]:
        return {e for e in self.edges()}

    def label(self, v: NodeId) -> str:
        try:
            return self._labels[v]
        except KeyError:
            raise ValueError(f"unknown node id {v}") from None

    def node_of(self, label: str) -> NodeId:
        try:
            return self._ids[label]
        except KeyError:
            raise ValueError(f"unknown node label {label!r}") from None

    def labeled_edges(self) -> list[tuple[str, str]]:
        return [(self._labels[u], self._labels[v]) for u, v in self.edges()]

    def to_edge_list(self) -> list[str]:
        """Canonical (min, max) integer-id pairs, one per line."""
        return [f"{u} {v}" for u, v in self.edges()]

    # -- merging ------------------------------------------------------

    def merge(self, v1: NodeId, v2: NodeId) -> "Graph":
        """Return a new graph with v2 merged into v1 (v1 survives)."""
        g = self.copy()
        g._merge_inplace(v1, v2)
        return g

    def _merge_inplace(self, v1: NodeId, v2: NodeId) -> None:
        adj = self.adj
        if v1 == v2:
            raise ValueError("cannot merge a node with itself")
        if v1 not in adj or v2 not in adj:
            raise ValueError(f"merge endpoints ({v1}, {v2}) must both exist")
        nbrs2 = adj.pop(v2)
        label = self._labels.pop(v2, None)
        if label is not None:
            del self._ids[label]
        a1 = adj[v1]
        a1.discard(v2)
        for w in nbrs2:
            if w == v1:
                continue
            adj[w].discard(v2)
            a1.add(w)
            adj[w].add(v1)


@dataclass(frozen=True)
class MergeOutcome:
    """Result of applying a merger plan in order.

    ``applied`` holds the resolved pairs actually merged (first element
    survives); ``skipped`` holds input pairs whose endpoints had already
    collapsed into the same surviving node by the time they came up.
    """

    graph: Graph
    applied: tuple[Edge, ...]
    skipped: tuple[Edge, ...]


def merge_all(g: Graph, pairs: Sequence[tuple[NodeId, NodeId]]) -> MergeOutcome:
    """Apply pairs in order, redirecting ids through earlier merges.

    Pair endpoints may name nodes that earlier pairs removed; they are
    resolved to the surviving representative first. A chain like
    (a, b), (b, c) therefore folds all three nodes into a.
    """
    work = g.copy()
    rep: dict[NodeId, NodeId] = {}

    def find(x: NodeId) -> NodeId:
        seen = []
        while x in rep:
            seen.append(x)
            x = rep[x]
        for s in seen:
            rep[s] = x
        return x

    applied: list[Edge] = []
    skipped: list[Edge] = []
    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra == rb:
            skipped.append((a, b))
            continue
        work._merge_inplace(ra, rb)
        rep[rb] = ra
        applied.append((ra, rb))
    return MergeOutcome(work, tuple(applied), tuple(skipped))
