"""Tagged triangulations over combinatorial maps.

A tagged triangulation is stored as its associated ordinary triangulation
(the map of plain arcs, with a self-folded triangle wherever a puncture has
signature 0) plus the per-puncture signature. At a signature-0 puncture the
fold arc's label carries the plain radius and the enclosing loop's label the
notched one; flips re-normalize to this convention, so equal tagged
triangulations have equal representations.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from . import trimap
from ._explore import explore
from .mutation import ExchangeMatrix
from .trimap import IdealTriangulation, Triangle, _flipped_triangles, signed_adjacency


class ArcNotPresent(ValueError):
    pass


PLAIN = 1
NOTCHED = -1


@dataclass(frozen=True)
class TaggedTriangulation:
    base: IdealTriangulation
    signatures: tuple[tuple[int, int], ...]  # (puncture vertex, signature) sorted

    def sig(self, v: int) -> int:
        return dict(self.signatures)[v]

    @property
    def num_arcs(self) -> int:
        return self.base.num_arcs

    def to_json(self) -> dict:
        data = self.base.to_json()
        data["signature"] = {str(v): s for v, s in self.signatures}
        return data


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


def untag(T: TaggedTriangulation) -> IdealTriangulation:
    """The ordinary triangulation underlying T (its plain-arc companion)."""
    return T.base


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
    triangle list before it is validated, once.
    """
    base = T.base
    if not base.is_arc(k):
        raise ArcNotPresent(f"{k} is not an arc of this tagged triangulation")
    signs = {v: s or PLAIN for v, s in T.signatures}
    flip_edge = k
    slots = base.arc_slots(k)
    (t1, _), (t2, _) = slots
    if t1 == t2:  # k is the plain radius of a self-folded triangle
        tri = base.triangles[t1]
        _, flip_edge, corner = tri.fold_data()
        signs[tri.vertices[corner]] = NOTCHED
        slots = None  # the loop's slots, which _flipped_triangles finds

    tris = _flipped_triangles(base, flip_edge, slots)
    # the new diagonal must carry k; the surviving old fold becomes the loop's label
    perm = {flip_edge: k, k: flip_edge} if flip_edge != k else {}
    enclosed = set()
    for tri in tris:
        fd = tri.fold_data()
        if fd is not None:
            fold, loop, corner = fd
            v = tri.vertices[corner]
            enclosed.add(v)
            if signs[v] == NOTCHED:  # fold and loop trade their final labels
                perm[fold], perm[loop] = perm.get(loop, loop), perm.get(fold, fold)
    if perm:
        tris = [Triangle(t.vertices, tuple(perm.get(e, e) for e in t.edges)) for t in tris]
    M2 = IdealTriangulation(base.surface, tris, base.num_arcs, base.num_boundary, base.puncture_flags)
    sig2 = tuple(sorted((v, 0 if v in enclosed else signs[v]) for v in signs))
    return TaggedTriangulation(M2, sig2)


def canonical_key(T: TaggedTriangulation) -> tuple:
    return trimap.canonical_key(T.base, extra=T.signatures)


@dataclass(frozen=True)
class FlipGraph:
    nodes: tuple[TaggedTriangulation, ...]
    edges: tuple[tuple[int, int], ...]
    truncated: bool
    keys: tuple[tuple, ...]  # canonical_key of each node, as the search computed it

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

    Each edge is flipped from one end only. Flipping arc k of node X gives S,
    and the key numbering matches S arc for arc with R, the first node under
    its key. The arc of R that has k's number is recorded, and R skips it
    when expanded. The flip is an involution and commutes with relabeling,
    so that skipped flip lands on X, already admitted, and would only re-add
    the edge X-R: nodes, keys, edges and truncation are those of the search
    that makes every flip. A flip into the node's own key is never skipped.
    """
    if max_nodes < 1:
        raise ValueError("max_nodes must be positive")
    reps = {}  # key -> arcs of its first node, listed by number
    back = {}  # key -> arcs of that first node whose flip is already an edge

    def node(T):
        key, number = trimap._numbered_key(T.base, T.signatures)
        arcs = reps.get(key)
        if arcs is None:
            arcs = reps[key] = tuple(sorted(number, key=number.get))
        return (T, key, arcs), number

    def moves(item):
        T, key, _ = item
        skip = back.pop(key, ())
        for k in range(T.num_arcs):
            if k in skip:
                continue
            succ, number = node(tagged_flip(T, k))
            _, key2, arcs2 = succ
            if key2 != key:
                back.setdefault(key2, set()).add(arcs2[number[k]])
            yield succ

    items, keys, edges, complete = explore(node(T0)[0], moves, itemgetter(1), max_nodes)
    return FlipGraph(tuple(T for T, _, _ in items), tuple(edges), not complete, tuple(keys))
