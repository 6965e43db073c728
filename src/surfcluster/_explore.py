"""Graph-search helpers shared by the package: one breadth-first explorer and
one union-find.
"""

from __future__ import annotations


def explore(start, moves, key, limit):
    """Breadth-first search from `start`; returns (nodes, keys, edges, complete).

    `moves(node)` yields the node's successors in move order and `key(node)`
    identifies nodes: the first node found under a key represents it. Nodes
    are admitted in FIFO discovery order and numbered by admission; `keys`
    holds their keys in the same order, and `edges` is the sorted list of
    index pairs (i, j), i < j, of distinct nodes joined by a move.

    Truncation: the search ends at the first refused successor, which is
    either a new key while `limit` nodes are held or a move that yields
    None. `complete` is False exactly when something was refused. So a
    search cut by its cap holds the first `limit` nodes of the uncapped one.
    """
    nodes = [start]
    index = {key(start): 0}
    edges = set()
    for i, node in enumerate(nodes):  # the queue: admissions extend it
        for succ in moves(node):
            if succ is None:
                return nodes, list(index), sorted(edges), False
            k = key(succ)
            j = index.get(k)
            if j is None:
                if len(nodes) >= limit:
                    return nodes, list(index), sorted(edges), False
                j = index[k] = len(nodes)
                nodes.append(succ)
            if j != i:
                edges.add((min(i, j), max(i, j)))
    return nodes, list(index), sorted(edges), True


class UnionFind:
    """Disjoint sets over hashable items; an item is a singleton until joined."""

    def __init__(self):
        self.parent = {}

    def find(self, x):
        parent = self.parent
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, x, y):
        self.parent[self.find(x)] = self.find(y)
