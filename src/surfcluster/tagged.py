"""Tagged triangulations over combinatorial maps.

A tagged triangulation is stored as its associated ordinary triangulation
(the map of plain arcs, with a self-folded triangle wherever a puncture has
signature 0) plus the per-puncture signature. At a signature-0 puncture the
fold arc's label carries the plain radius and the enclosing loop's label the
notched one; flips re-normalize to this convention, so equal tagged
triangulations have equal representations.
"""

from __future__ import annotations

from collections import namedtuple

from . import trimap
from ._explore import explore_exchange
from .mutation import ExchangeMatrix
from .trimap import IdealTriangulation, _flip_table, _folds, signed_adjacency


class ArcNotPresent(ValueError):
    pass


PLAIN = 1
NOTCHED = -1


# signatures: (puncture vertex, signature) sorted
class TaggedTriangulation(namedtuple("TaggedTriangulation", "base signatures")):
    __slots__ = ()

    def sig(self, v: int) -> int:
        return dict(self.signatures)[v]

    @property
    def num_arcs(self) -> int:
        return self.base.num_arcs


def tag_with(T0: IdealTriangulation, signs: dict[int, int] | None = None) -> TaggedTriangulation:
    """Tag an ordinary triangulation under the given sign choice.

    Loops cutting once-punctured monogons become notched radii; punctures
    assigned -1 get all their tags toggled. Signature-0 punctures keep the
    fold label on the plain radius whatever the sign there says.
    """
    signs = signs or {}
    enclosed = T0.enclosed_punctures()
    sig = []
    for v in T0.punctures():
        if v in enclosed:
            sig.append((v, 0))
        else:
            sig.append((v, PLAIN if signs.get(v, 1) >= 0 else NOTCHED))
    return TaggedTriangulation(T0, tuple(sorted(sig)))


def b_matrix(T: TaggedTriangulation) -> ExchangeMatrix:
    return signed_adjacency(T.base)


def tagged_flip(T: TaggedTriangulation, k: int) -> TaggedTriangulation:
    """Flip the tagged arc labeled k; the unique other completion wins.

    Relies on the storage convention: T.base has a self-folded triangle
    exactly at the signature-0 punctures, its fold carrying the plain
    radius's label and its loop the notched radius's, and every arc end at
    a puncture of signature s = +-1 is tagged s.

    Map level: flip k itself, except that a plain radius (the fold, whose
    two slots lie in one triangle) flips through its loop. The completion's
    tags at a puncture follow the tags the other arcs keep there: s at a
    puncture of signature s = +-1; at a signature-0 puncture NOTCHED if k is
    its plain radius, else PLAIN (only the plain radius or both radii
    remain). Fold and loop labels are swapped wherever that sign is NOTCHED,
    to restore the convention. Both relabelings are applied to the flipped
    slot table in one pass (`_flip_slots`) before it is validated, once.
    """
    base = T.base
    if not base.is_arc(k):
        raise ArcNotPresent(f"{k} is not an arc of this tagged triangulation")
    edges, verts, signatures = _flip_slots(base.edges, base.verts, T.signatures, k)
    return TaggedTriangulation(IdealTriangulation(base.surface, edges, verts), signatures)


def _flip_slots(edges, verts, signatures, k: int):
    """(edges, verts, signatures) of `tagged_flip` of arc k, from the same
    three of T; not validated."""
    signs = {v: s or PLAIN for v, s in signatures}
    flip_edge = k
    a = edges.index(k)
    p = a - a % 3
    if edges.index(k, a + 1) < p + 3:  # k is the plain radius of a self-folded triangle
        _, flip_edge, corner = next(_folds(edges[p:p + 3]))
        signs[verts[p + corner]] = NOTCHED

    edges, verts = _flip_table(edges, verts, flip_edge)
    # the new diagonal must carry k; the surviving old fold becomes the loop's label
    perm = {flip_edge: k, k: flip_edge} if flip_edge != k else {}
    enclosed = set()
    for fold, loop, corner in _folds(edges):
        v = verts[corner]
        enclosed.add(v)
        if signs[v] == NOTCHED:  # fold and loop trade their final labels
            perm[fold], perm[loop] = perm.get(loop, loop), perm.get(fold, fold)
    if perm:
        edges = [perm.get(e, e) for e in edges]
    return edges, verts, tuple(sorted((v, 0 if v in enclosed else signs[v]) for v in signs))


def canonical_key(T: TaggedTriangulation) -> tuple:
    return trimap.canonical_key(T.base, extra=T.signatures)


# keys: canonical_key of each node, as the search computed it
class FlipGraph(namedtuple("FlipGraph", "nodes edges truncated keys")):
    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "vertices": [repr(key) for key in self.keys],
            "edges": [list(e) for e in self.edges],
            "truncated": self.truncated,
        }

    def to_dot(self) -> str:
        lines = ["graph tagged_flips {"]
        for i, T in enumerate(self.nodes):
            sig = " ".join(f"{v}:{s:+d}" for v, s in T.signatures)
            lines.append(f'  n{i} [label="{i} {sig}"];')
        for i, j in self.edges:
            lines.append(f"  n{i} -- n{j};")
        lines.append("}")
        return "\n".join(lines)


def exchange_graph_bfs(T0: TaggedTriangulation, max_nodes: int = 1000) -> FlipGraph:
    """BFS over tagged flips, deduplicating by canonical map encoding.

    The encoding quotients by arc relabeling with vertices and boundary
    segments pinned; on surfaces with infinitely many arcs this identifies
    triangulations related by mapping classes, which is what makes the
    search finite there. Truncation follows `_explore.explore`.

    Each edge is flipped from one end only (`_explore.explore_exchange`):
    the flip is an involution and commutes with relabeling, and the key
    numbering matches two maps under one key arc for arc.

    The search flips and keys raw (edges, verts, signatures) tables
    (`_flip_slots`, `trimap._table_key`). After it, `T0` and each later
    admitted table become the nodes, built once each through the validating
    constructor; a table under a key already held is never built. That
    loses no check: equal keys are equal full serializations, signatures
    included, so such a table is an arc relabeling (triangles reordered and
    rotated) of the node admitted under its key, and `validate`'s checks do
    not change under relabeling. A broken flip is caught when the search
    ends, by the build's `InvalidTriangulation`; on a punctured surface,
    flipping the broken table further may first raise inside `_flip_slots`.
    """
    if max_nodes < 1:
        raise ValueError("max_nodes must be positive")
    base = T0.base
    surface, n, c = base.surface, base.num_arcs, base.num_boundary

    def moves(t, skip):
        return ((_flip_slots(*t, k), k) for k in range(n) if k not in skip)

    tables, keys, edges, complete = explore_exchange(
        (base.edges, base.verts, T0.signatures), moves,
        lambda t: trimap._table_key(t[0], t[1], n, c, t[2]), max_nodes, edges=set())
    nodes = [T0] + [TaggedTriangulation(IdealTriangulation(surface, e, v), sigs) for e, v, sigs in tables[1:]]
    return FlipGraph(tuple(nodes), tuple(edges), not complete, tuple(keys))
