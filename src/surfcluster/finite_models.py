"""Explicit tagged-arc models for the two finite families.

Polygon(m): an unpunctured m-gon with vertices 0..m-1 counterclockwise;
arcs are chords between non-adjacent vertices. PuncturedPolygon(m): an
m-gon with one central puncture; arcs are plain/notched radii plus chords
carrying a bit for which side of the puncture they pass. Arc identity is
global here, so compatibility, intersection numbers and cluster counts
are closed-form.
"""

from __future__ import annotations

import math
from collections import namedtuple

from ._explore import explore
from .mutation import ExchangeMatrix, from_edges, mutate


class ExcludedModel(ValueError):
    pass


class Model(namedtuple("Model", "kind m")):
    """kind is "polygon" or "punctured", m the number of boundary vertices;
    both are checked on construction."""

    __slots__ = ()

    def __new__(cls, kind: str, m: int):
        if kind == "polygon":
            if m < 4:
                raise ExcludedModel("polygon model needs at least 4 boundary vertices")
        elif kind == "punctured":
            if m < 3:
                raise ExcludedModel("punctured polygon model needs at least 3 boundary vertices")
        else:
            raise ExcludedModel(f"unknown model kind {kind!r}")
        return tuple.__new__(cls, (kind, m))

    @property
    def rank(self) -> int:
        return self.m - 3 if self.kind == "polygon" else self.m


PLAIN = 1
NOTCHED = -1

# chord side flags: which region (walking counterclockwise from i to j, or
# from j to i) contains the puncture
CCW = "ccw"
CW = "cw"


# kind: "chord" | "radius"; side: chords in the punctured model; tag: radii,
# PLAIN or NOTCHED
class ModelArc(namedtuple("ModelArc", "model kind i j side tag", defaults=(-1, "", 0))):
    __slots__ = ()

    def __str__(self):
        if self.kind == "radius":
            return f"r{self.i}{'x' if self.tag == NOTCHED else ''}"
        if self.side:
            return f"c{self.i}-{self.j}({self.side})"
        return f"c{self.i}-{self.j}"


def _ccw_between(m: int, i: int, j: int) -> tuple[int, ...]:
    """Vertices strictly between i and j walking counterclockwise."""
    out = []
    v = (i + 1) % m
    while v != j:
        out.append(v)
        v = (v + 1) % m
    return tuple(out)


def chord(model: Model, i: int, j: int, side: str = "") -> ModelArc:
    m = model.m
    if not (0 <= i < m and 0 <= j < m) or i == j:
        raise ValueError("chord endpoints must be distinct boundary vertices")
    if model.kind == "polygon":
        if (j - i) % m in (1, m - 1):
            raise ValueError("adjacent boundary vertices bound no chord")
        if side:
            raise ValueError("polygon chords carry no puncture side")
        i, j = min(i, j), max(i, j)
        return ModelArc(model, "chord", i, j)
    if side not in (CCW, CW):
        raise ValueError("punctured-model chords need side 'ccw' or 'cw'")
    # normalize so side is measured from the smaller endpoint
    if i > j:
        i, j = j, i
        side = CCW if side == CW else CW
    puncture_free = _ccw_between(m, j, i) if side == CCW else _ccw_between(m, i, j)
    if not puncture_free:
        raise ValueError("chord would cut off an unpunctured digon")
    return ModelArc(model, "chord", i, j, side)


def radius(model: Model, i: int, tag: int = PLAIN) -> ModelArc:
    if model.kind != "punctured":
        raise ValueError("radii exist only in the punctured model")
    if not 0 <= i < model.m:
        raise ValueError("radius endpoint out of range")
    if tag not in (PLAIN, NOTCHED):
        raise ValueError("tag must be plain or notched")
    return ModelArc(model, "radius", i, tag=tag)


def enumerate_tagged_arcs(model: Model) -> tuple[ModelArc, ...]:
    """All tagged arcs of the model, duplicate-free and sorted."""
    m = model.m
    arcs = []
    if model.kind == "polygon":
        for i in range(m):
            for j in range(i + 2, m):
                if (j - i) % m == m - 1:
                    continue
                arcs.append(chord(model, i, j))
    else:
        for i in range(m):
            arcs.append(radius(model, i, PLAIN))
            arcs.append(radius(model, i, NOTCHED))
        for i in range(m):
            for j in range(i + 1, m):
                for side in (CCW, CW):
                    try:
                        arcs.append(chord(model, i, j, side))
                    except ValueError:
                        pass
    return tuple(sorted(set(arcs)))


def _cup(arc: ModelArc) -> tuple[int, ...]:
    """Boundary vertices strictly inside the puncture-free side of a chord."""
    m = arc.model.m
    if arc.side == CCW:
        return _ccw_between(m, arc.j, arc.i)
    return _ccw_between(m, arc.i, arc.j)


def _crossing_number(a: ModelArc, b: ModelArc) -> int:
    """Minimal transverse crossings of the untagged arcs."""
    m = a.model.m
    if a.model.kind == "polygon":
        # strict cyclic interleaving of the endpoint pairs
        inside = _ccw_between(m, a.i, a.j)
        x = b.i in inside
        y = b.j in inside
        shared = {a.i, a.j} & {b.i, b.j}
        return 1 if (x != y and not shared) else 0
    if a.kind == "radius" and b.kind == "radius":
        return 0
    if a.kind == "radius" or b.kind == "radius":
        r, c = (a, b) if a.kind == "radius" else (b, a)
        if r.i in (c.i, c.j):
            return 0
        return 1 if r.i in _cup(c) else 0
    ea = {a.i, a.j}
    eb = {b.i, b.j}
    cup_a, cup_b = _cup(a), _cup(b)
    return min(sum(1 for v in eb if v in cup_a), sum(1 for v in ea if v in cup_b))


def _untagged_same(a: ModelArc, b: ModelArc) -> bool:
    if a.kind != b.kind:
        return False
    if a.kind == "radius":
        return a.i == b.i
    return (a.i, a.j, a.side) == (b.i, b.j, b.side)


def _tag_mismatches(a: ModelArc, b: ModelArc) -> int:
    """Ends of b at endpoints of a carrying the opposite tag (the D term)."""
    if a.model.kind == "polygon":
        return 0
    count = 0
    if b.kind == "radius":  # b's end at the puncture
        if a.kind == "radius" and b.tag != a.tag:
            count += 1
    # boundary ends are always plain, matching every plain boundary end of a
    return count


def intersection_number(a: ModelArc, b: ModelArc) -> int:
    """The pairing (a|b) = A + B + C + D; B = 0 in these loop-free models."""
    if a.model != b.model:
        raise ValueError("arcs live in different models")
    A = _crossing_number(a, b)
    C = -1 if _untagged_same(a, b) else 0
    D = _tag_mismatches(a, b)
    return A + C + D


def compatible(a: ModelArc, b: ModelArc) -> bool:
    """Tagged compatibility: untagged disjointness plus the tag rules."""
    if a.model != b.model:
        raise ValueError("arcs live in different models")
    if a == b:
        return True
    if _crossing_number(a, b) != 0:
        return False
    if _untagged_same(a, b):
        # boundary ends agree, so at least one end always matches
        return True
    if a.model.kind == "punctured" and a.kind == "radius" and b.kind == "radius":
        return a.tag == b.tag  # shared puncture endpoint
    return True


# the most clusters `enumerate_clusters` lists. Polygon m=14 has 208,012 and
# punctured m=10 136,136 (~11 s and ~6 s through the CLI on a 2-vCPU VM);
# polygon m=15 (742,900) and punctured m=11 (520,676) are refused before any
# arc is enumerated
CLUSTER_CEILING = 250_000


def enumerate_clusters(model: Model):
    """All maximal compatible sets (each of size rank) plus the flip graph.

    Returns (clusters, edges): clusters is a sorted tuple of sorted
    arc-tuples, edges joins clusters sharing all but one arc. The clusters
    are listed by a depth-first walk over the compatible sets grown in arc
    index order; the arcs are sorted, so they come out sorted. Each arc of a
    cluster flips in exactly one way, so each rank - 1 subset of a cluster
    (a facet) lies in exactly two clusters, which is asserted; the edges are
    read off the facets. A model with more than CLUSTER_CEILING clusters
    raises ValueError, counted in closed form before any arc is enumerated.
    """
    n, m = model.rank, model.m
    # the count grows with m, so walking m up from the smallest model stops
    # after a few small counts however large m is
    for s in range(3, m + 1):  # the Catalan number C(s - 2), or (3s - 2) / s * C(2s - 2, s - 1) for D_s
        count = (math.comb(2 * s - 4, s - 2) // (s - 1) if model.kind == "polygon"
                 else (3 * s - 2) * math.comb(2 * s - 2, s - 1) // s)
        if count > CLUSTER_CEILING:
            raise ValueError(f"the {model.kind} model with m={m} has more than {CLUSTER_CEILING} clusters")
    arcs = enumerate_tagged_arcs(model)
    # later[i]: the arcs of higher index compatible with arc i, as a bitmask
    later = [sum(1 << j for j in range(i + 1, len(arcs)) if compatible(a, arcs[j])) for i, a in enumerate(arcs)]
    clusters = []

    def walk(chosen, candidates):  # candidates: later arcs compatible with all chosen
        if len(chosen) == n:
            # purity: a candidate left would make a compatible set of rank + 1
            if candidates:
                raise AssertionError("compatible set larger than the rank")
            clusters.append(chosen)
            return
        while candidates.bit_count() >= n - len(chosen):  # else too few to reach the rank
            i = (candidates & -candidates).bit_length() - 1
            candidates ^= 1 << i
            walk(chosen + (arcs[i],), candidates & later[i])

    walk((), (1 << len(arcs)) - 1)
    facets: dict[tuple[ModelArc, ...], list[int]] = {}
    for ci, cl in enumerate(clusters):
        for i in range(n):
            facets.setdefault(cl[:i] + cl[i + 1:], []).append(ci)
    if any(len(pair) != 2 for pair in facets.values()):
        raise AssertionError("a facet does not lie in exactly two clusters")
    return tuple(clusters), tuple(sorted(tuple(pair) for pair in facets.values()))


# ---------------------------------------------------------------------------
# root seeds for the exchange of this model


def root_cluster(model: Model) -> tuple[ModelArc, ...]:
    """Fan triangulation (polygon) or all-plain radius wheel (punctured)."""
    if model.kind == "polygon":
        return tuple(chord(model, 0, i) for i in range(2, model.m - 1))
    return tuple(radius(model, i, PLAIN) for i in range(model.m))


def root_matrix(model: Model) -> ExchangeMatrix:
    """Signed adjacency matrix of the root cluster, rows in its arc order."""
    m = model.m
    if model.kind == "polygon":  # fan triangles pair consecutive diagonals
        return from_edges(m - 3, [(t, t + 1) for t in range(m - 4)])
    return from_edges(m, [(i, (i + 1) % m) for i in range(m)])  # a wheel


def exchange_matrices(model: Model, clusters=None, edges=None):
    """Exchange matrix for every cluster, propagated from the root by
    matrix mutation along flip-graph edges.

    Returns a dict cluster -> (arc order, ExchangeMatrix) whose rows follow
    the arc order. That is propagation order, not the cluster's sorted
    order: the root's sorted arcs, each flip putting the new arc where the
    old one was. Propagation along different paths must agree up to
    reordering, which is asserted.
    """
    if clusters is None or edges is None:
        clusters, edges = enumerate_clusters(model)
    adj: dict[tuple[ModelArc, ...], list[tuple[ModelArc, ...]]] = {}
    for i, j in edges:
        adj.setdefault(clusters[i], []).append(clusters[j])
        adj.setdefault(clusters[j], []).append(clusters[i])

    def moves(node):
        order, B = node
        for cl in adj.get(tuple(sorted(order)), ()):
            (old,) = set(order).difference(cl)
            (new,) = set(cl).difference(order)
            yield tuple(new if a == old else a for a in order), mutate(B, order.index(old))

    def key(node):
        # the cluster with its matrix in sorted arc order, so a path that
        # reaches a cluster with another matrix makes a second key for it
        order, B = node
        perm = sorted(range(len(order)), key=order.__getitem__)
        return tuple(sorted(order)), tuple(tuple(B.rows[i][j] for j in perm) for i in perm)

    root = (root_cluster(model), root_matrix(model))
    nodes, keys, _, complete = explore(root, moves, key, len(clusters))
    if not complete or len({cl for cl, _ in keys}) < len(nodes):
        raise AssertionError("flip-graph matrix propagation is path-dependent")
    if len(nodes) < len(clusters):
        raise AssertionError("flip graph is not connected")
    return {cl: node for (cl, _), node in zip(keys, nodes)}
