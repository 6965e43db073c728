"""Graph-search helpers shared by the package: one breadth-first explorer,
its form for exchange graphs, and one union-find.
"""

from __future__ import annotations

from operator import itemgetter


def explore(start, moves, key, limit, edges=None):
    """Breadth-first search from `start`; returns (nodes, keys, edges, complete).

    `moves(node)` yields the node's successors in move order and `key(node)`
    identifies nodes: the first node found under a key represents it. Nodes
    are admitted in FIFO discovery order and numbered by admission; `keys`
    holds their keys in the same order.

    Edges are recorded only for a caller that passes a set as `edges`: the
    index pairs (i, j), i < j, of distinct nodes joined by a move go into
    it, and it comes back as a sorted list. Without one, `edges` is None, and
    the search builds no pairs.

    Truncation: the search ends at the first refused successor, which is
    either a new key while `limit` nodes are held or a move that yields
    None. `complete` is False exactly when something was refused. So a
    search cut by its cap holds the first `limit` nodes of the uncapped one.
    """
    nodes = [start]
    index = {key(start): 0}

    def result(complete):
        return nodes, list(index), None if edges is None else sorted(edges), complete

    for i, node in enumerate(nodes):  # the queue: admissions extend it
        for succ in moves(node):
            if succ is None:
                return result(False)
            k = key(succ)
            j = index.get(k)
            if j is None:
                if len(nodes) >= limit:
                    return result(False)
                j = index[k] = len(nodes)
                nodes.append(succ)
            if edges is not None and j != i:
                edges.add((min(i, j), max(i, j)))
    return result(True)


def explore_exchange(start, moves, key, limit, edges=None):
    """`explore` over an exchange graph, making each edge's move from one end.

    `moves(node, skip)` yields (successor, r) in move order without the
    labels in `skip`, r being the successor's label for the move back, or
    None for a refused move. `key(node)` returns (key, names): two nodes
    under one key are matched, label for label, by equal names[label].
    `edges` is `explore`'s collector, passed through.

    Moves are involutions that commute with the matching, and whether one is
    refused depends only on where it lands. When a move of X reaches S under
    the key of R, the first node there, R's label named like S's r leads
    back to X, already admitted, so R skips it: `explore`'s return value is
    that of the search that makes every move. A move within its node's own
    key records nothing.
    """
    # key -> (names of its first node, labels of it whose move is already an
    # edge); made at that node's arrival, popped when it is expanded
    back = {}

    def expand(item):
        node, here = item
        _, skip = back.pop(here, (None, ()))
        for move in moves(node, skip):
            if move is not None:  # None ends the search
                succ, r = move
                k, names = key(succ)
                if k != here:
                    first, done = back.get(k) or back.setdefault(k, (names, set()))
                    done.add(first.index(names[r]))
                move = succ, k
            yield move

    items, keys, edges, complete = explore((start, key(start)[0]), expand, itemgetter(1), limit, edges)
    return [node for node, _ in items], keys, edges, complete


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
