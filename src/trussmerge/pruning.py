"""Inside/outside node classification and lossless outside-node pruning.

For a target level k, inside nodes are the nodes of the (k-1)-truss;
everyone else is outside. An outside node is only worth merging for its
neighbors inside the (k-1)-truss, so outside nodes whose inside
neighborhood is contained in another's can be dropped, keeping one
representative per distinct maximal neighborhood.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decomposition import TrussDecomposition, _Lazy, node_trussness
from .graph import Graph, NodeId


@dataclass(frozen=True)
class NodePartition:
    """Inside/outside split plus every node's inside neighborhood, an inside node's built on first read."""

    inside: set[NodeId]
    outside: set[NodeId]
    inside_neighbors: dict[NodeId, set[NodeId]]

    @classmethod
    def of(cls, g: Graph, inside: set[NodeId]) -> "NodePartition":
        """Split g's nodes around ``inside``; outside nodes get their inside neighbors now, others on first read."""
        nbrs = _Lazy(lambda v: g.adj[v] & inside)
        outside = set(g.adj) - inside
        nbrs.update((v, g.adj[v] & inside) for v in outside)
        return cls(inside, outside, nbrs)


def partition_nodes(g: Graph, d: TrussDecomposition, k: int) -> NodePartition:
    """Split nodes by membership in the (k-1)-truss, read from d; a node with no edge is outside."""
    return NodePartition.of(g, {v for v, t in node_trussness(d, g).items() if t >= k - 1 and g.adj[v]})


def prune_outside_maximal(outside: set[NodeId], inside_nbrs: dict[NodeId, set[NodeId]]) -> set[NodeId]:
    """Keep outside nodes whose inside neighborhood is maximal.

    Nodes with empty inside neighborhoods are useless and dropped; nodes
    with identical neighborhoods keep only the lowest-id representative.
    Containment is then tested with integer bitsets: m(u) marks the
    candidates whose neighborhood holds u, and v survives iff the
    intersection of m(u) over its neighborhood is exactly its own bit.
    """
    groups: dict[frozenset[NodeId], NodeId] = {}
    for v in sorted(outside):
        key = frozenset(inside_nbrs[v])
        if key and key not in groups:
            groups[key] = v
    cands = sorted(groups.values())
    bit = {v: 1 << i for i, v in enumerate(cands)}
    member: dict[NodeId, int] = {}
    for v in cands:
        b = bit[v]
        for u in inside_nbrs[v]:
            member[u] = member.get(u, 0) | b
    keep: set[NodeId] = set()
    for v in cands:
        r = -1
        for u in inside_nbrs[v]:
            r &= member[u]
        if r == bit[v]:
            keep.add(v)
    return keep
