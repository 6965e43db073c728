"""Ideal triangulations as oriented combinatorial maps.

A triangulation is its surface and its slot table. Slot 3t + i is side i of
triangle t and also its corner i, where that side starts: `edges[s]` is the
side's edge and `verts[s]` the corner's vertex, counterclockwise, so side i
runs from corner i to corner i+1. Edge ids 0..n-1 are arcs (each in exactly
two slots, traversed in opposite directions), ids n..n+c-1 are boundary
segments (one slot each). Self-folded triangles put the same arc in two of
their own slots.

From corner s, crossing side s into the arc's other slot p and taking the
slot after p (side (i' + 1) mod 3 of the same triangle) turns about the same
vertex. Link rule: the corners at each vertex form one orbit of this turn, a
cycle at a puncture and, at a boundary vertex, a path from a corner entered
across a boundary slot to a boundary slot.

The surface fixes the arc count (its rank), the boundary segment count and
the vertex count (its marked points). The validator enforces id ranges, slot
counts, opposite traversal and the link rule, reads the punctures off the
link walk (the vertices whose orbit is a cycle) and compares the boundary
components, walked segment by segment, with the surface's; every
constructor and flip runs it. The Euler count needs no check of its own:
with 3F = 2n + c slots, the rank and the vertex count give
V - E + F = 2 - 2g - b, so with b checked the genus is the surface's.
`from_json` also checks what outside JSON states against the gluing: the
counts and the puncture list.

Builders (`initial_triangulation`, `blocks.surface_from_decomposition`)
produce side lists only; `_from_sides` reads the vertices, punctures and
surface off the gluing.
"""

from __future__ import annotations

from ._explore import UnionFind, explore
from .mutation import QUIVER_MAX_N, ExchangeMatrix, _is_int_list, _require_fields, from_edges
from .surface import MarkedSurface, validate_surface


class UnknownArc(ValueError):
    pass


class NotFlippable(ValueError):
    pass


class InvalidTriangulation(ValueError):
    pass


class IdealTriangulation:
    """Immutable triangulated marked surface stored as its slot table;
    flips return new values."""

    def __init__(self, surface: MarkedSurface, edges, verts):
        self.surface = surface
        self.edges = tuple(edges)
        self.verts = tuple(verts)
        self.num_arcs = surface.rank
        self.num_boundary = surface.boundary_points
        self._normal = None
        self.validate()  # sets puncture_flags

    # -- basic queries ----------------------------------------------------

    def is_arc(self, e: int) -> bool:
        return 0 <= e < self.num_arcs

    def arcs(self):
        return range(self.num_arcs)

    def punctures(self):
        return [v for v, f in enumerate(self.puncture_flags) if f]

    def fold_map(self) -> dict[int, int]:
        """fold arc -> enclosing loop, for every self-folded triangle."""
        return {fold: loop for fold, loop, _ in _folds(self.edges)}

    def enclosed_punctures(self) -> dict[int, tuple[int, int]]:
        """puncture vertex -> (fold arc, loop edge) for self-folded triangles."""
        return {self.verts[s]: (fold, loop) for fold, loop, s in _folds(self.edges)}

    # -- validation --------------------------------------------------------

    def validate(self):
        """Check the map against its surface and set `puncture_flags`."""
        n, c = self.num_arcs, self.num_boundary
        V = c + self.surface.punctures
        edges, verts = self.edges, self.verts
        if len(verts) != len(edges):
            raise InvalidTriangulation(f"{len(edges)} edge slots but {len(verts)} vertex slots")
        if sorted(edges) != sorted([*range(n), *range(n + c)]):  # arcs twice, segments once
            for e in edges:
                if not 0 <= e < n + c:
                    raise InvalidTriangulation(f"edge id {e} out of range")
            e = next(e for e in range(n + c) if edges.count(e) != (2 if e < n else 1))
            kind = "arc" if e < n else "boundary segment"
            raise InvalidTriangulation(f"{kind} {e} occupies {edges.count(e)} slots")
        used = set(verts)
        if used != set(range(V)):
            bad = used.difference(range(V))
            if bad:
                raise InvalidTriangulation(f"vertex id {min(bad)} out of range")
            raise InvalidTriangulation(f"vertex {min(set(range(V)) - used)} has no corners")

        # Link rule: one orbit walk per vertex. The c paths (one per boundary
        # slot) go first; once each sits at its own boundary vertex, all
        # V - p = c of those are taken, so a cycle found later at a boundary
        # vertex is a second orbit there. A step that leaves its vertex
        # crossed an arc not traversed in opposite directions. The p cycles
        # left over are the punctures.
        partner = _partners(edges, n)
        flags = [None] * V  # True for a cycle, False for a path
        done = [False] * len(verts)
        starts = [b + 1 if b % 3 < 2 else b - 2 for b, p in enumerate(partner) if p < 0]
        for c0 in starts + list(range(len(verts))):
            if done[c0]:
                continue
            v = verts[c0]
            if flags[v] is not None:
                raise InvalidTriangulation(f"link of vertex {v} has more than one orbit")
            flags[v] = True
            cur = c0
            while True:
                done[cur] = True
                p = partner[cur]
                if p < 0:  # the end of a path
                    flags[v] = False
                    break
                cur = p + 1 if p % 3 < 2 else p - 2
                if verts[cur] != v:
                    raise InvalidTriangulation(f"arc {edges[p]} is not traversed in opposite directions")
                if cur == c0:  # the end of a cycle
                    break
        boundary, s = _boundary(edges, verts, n), self.surface
        if boundary != s.boundary:
            glued = MarkedSurface(s.genus + (s.num_boundary - len(boundary)) // 2, boundary, s.punctures)
            raise InvalidTriangulation(f"the gluing is {glued}, not {s}")
        self.puncture_flags = tuple(flags)

    # -- equality up to representation ------------------------------------

    def normal_form(self):
        """(surface, triangles): each triangle's (edges, vertices) at its least
        rotation, the triangles sorted."""
        if self._normal is None:
            E, V = self.edges, self.verts
            tris = sorted(min((E[p + r:p + 3] + E[p:p + r], V[p + r:p + 3] + V[p:p + r]) for r in range(3))
                          for p in range(0, len(E), 3))
            self._normal = (self.surface, tuple(tris))
        return self._normal

    def __eq__(self, other):
        return isinstance(other, IdealTriangulation) and self.normal_form() == other.normal_form()

    def __hash__(self):
        return hash(self.normal_form())

    def relabel_arcs(self, perm: dict[int, int]) -> "IdealTriangulation":
        """New triangulation with arc e renamed perm.get(e, e)."""
        n = self.num_arcs
        return IdealTriangulation(self.surface, [perm.get(e, e) if e < n else e for e in self.edges],
                                  self.verts)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        E, V = self.edges, self.verts
        return {
            "surface": self.surface.to_json(),
            "triangles": [{"v": list(V[p:p + 3]), "e": list(E[p:p + 3])} for p in range(0, len(E), 3)],
            "arcs": self.num_arcs,
            "boundary_segments": self.num_boundary,
            "punctures": self.punctures(),
        }

    @staticmethod
    def from_json(data: dict) -> "IdealTriangulation":
        """Read outside JSON: a non-empty triangle list, integer ids and counts.

        The counts and the puncture list (none when absent) must be those of
        the gluing, and the constructor checks the gluing against the surface."""
        shape = ('{"surface": {...}, "triangles": [{"v": [integers], "e": [integers]}, ...], '
                 '"arcs": integer, "boundary_segments": integer} with an optional "punctures": [integers]')
        _require_fields(data, ("surface", "triangles", "arcs", "boundary_segments"), shape)
        raw, punctures = data["triangles"], data.get("punctures", [])
        for t in raw if type(raw) is list else ():
            if type(t) is dict:
                _require_fields(t, ("v", "e"), shape)
        surf = MarkedSurface.from_json(data["surface"])
        n, c = data["arcs"], data["boundary_segments"]
        if not (type(raw) is list and raw and _is_int_list([n, c]) and _is_int_list(punctures)
                and all(type(t) is dict and _is_int_list(t["v"]) and _is_int_list(t["e"]) for t in raw)):
            raise InvalidTriangulation("expected a non-empty list of triangles {v, e} and counts "
                                       "and ids that are JSON integers")
        if n != surf.rank:
            raise InvalidTriangulation(f"{n} arcs but surface rank is {surf.rank}")
        if c != surf.boundary_points:
            raise InvalidTriangulation("boundary segment count must equal marked boundary points")
        for t in raw:
            if len(t["v"]) != 3 or len(t["e"]) != 3:
                raise InvalidTriangulation(f"triangle {t} needs three vertices and three edges")
        T = IdealTriangulation(surf, [e for t in raw for e in t["e"]], [v for t in raw for v in t["v"]])
        if punctures != T.punctures():
            raise InvalidTriangulation(f"puncture list {punctures} is not the gluing's {T.punctures()}")
        return T


# ---------------------------------------------------------------------------
# construction


class _Builder:
    """Mutable build state: each triangle's side edges; edge ids are
    relabeled canonically on finish and the rest is read off the gluing."""

    def __init__(self):
        self.sides: list[list[int]] = []
        self.boundary_component: dict[int, int] = {}
        self._next_edge = 0

    def new_edge(self, component: int | None = None) -> int:
        """A new arc, or a boundary segment of the given component."""
        e = self._next_edge
        self._next_edge += 1
        if component is not None:
            self.boundary_component[e] = component
        return e

    def subdivide(self, t: int):
        """Insert a puncture inside triangle t (one triangle -> three)."""
        e0, e1, e2 = self.sides[t]
        ru, rv, rw = self.new_edge(), self.new_edge(), self.new_edge()
        self.sides[t] = [e0, rv, ru]
        self.sides += [[e1, rw, rv], [e2, ru, rw]]

    def split_boundary(self, component: int):
        """Add one marked point on the given boundary component."""
        t, i = next((t, i) for t, edges in enumerate(self.sides)
                    for i, e in enumerate(edges) if self.boundary_component.get(e) == component)
        edges = self.sides[t]
        f, g = edges[(i + 1) % 3], edges[(i + 2) % 3]
        s1, s2, d = self.new_edge(component), self.new_edge(component), self.new_edge()
        self.sides[t] = [s1, d, g]
        self.sides.append([s2, f, d])

    def finish(self) -> IdealTriangulation:
        """Arcs, then boundary segments, numbered by first appearance."""
        order = sorted(dict.fromkeys(e for edges in self.sides for e in edges),
                       key=lambda e: e in self.boundary_component)  # stable: arcs first
        emap = {e: i for i, e in enumerate(order)}
        n = sum(e not in self.boundary_component for e in order)
        return _from_sides([[emap[e] for e in edges] for edges in self.sides], n)


def _from_sides(sides, n: int) -> IdealTriangulation:
    """The triangulation glued from its triangles' side lists.

    sides[t] lists the edges of triangle t counterclockwise: arcs 0..n-1 in
    two slots each, boundary segments n, n + 1, ... in one. The gluing fixes
    the rest. Corners join by the link rule into vertices, numbered by first
    corner; a puncture starts no boundary segment; boundary components join
    segments end to start; the Euler count gives the genus.
    """
    edges = [e for tri in sides for e in tri]
    c = len(edges) - 2 * n
    if sorted(edges) != sorted([*range(n), *range(n + c)]):
        raise InvalidTriangulation("each arc must fill two slots and each boundary segment one")
    corners = UnionFind()
    for s, p in enumerate(_partners(edges, n)):
        if p >= 0:
            corners.union(s, p + 1 if p % 3 < 2 else p - 2)
    vid: dict[int, int] = {}
    verts = [vid.setdefault(corners.find(s), len(vid)) for s in range(len(edges))]
    boundary = _boundary(edges, verts, n)
    genus2 = 2 - len(boundary) - (len(vid) - (n + c) + len(sides))
    if genus2 % 2:
        raise InvalidTriangulation("the gluing has an odd Euler count")
    surface = validate_surface(genus2 // 2, boundary, len(vid) - sum(boundary))
    return IdealTriangulation(surface, edges, verts)


def _boundary(edges, verts, n: int) -> tuple[int, ...]:
    """Segment counts of the boundary components, largest first.

    Segment slot s runs from verts[s] to the corner of the next slot in its
    triangle; the segments join end to start."""
    ends = {verts[s]: verts[s + 1 if s % 3 < 2 else s - 2] for s, e in enumerate(edges) if e >= n}
    sizes = []
    while ends:
        v, k = next(iter(ends)), 0
        while v in ends:
            v, k = ends.pop(v), k + 1
        sizes.append(k)
    return tuple(sorted(sizes, reverse=True))


def _wheel(bld: _Builder, c: int):
    """Once-punctured c-gon: all boundary vertices joined to the puncture."""
    sides = [bld.new_edge(0) for _ in range(c)]
    radii = [bld.new_edge() for _ in range(c)]
    bld.sides += [[sides[i], radii[(i + 1) % c], radii[i]] for i in range(c)]


def _glued_polygon(bld: _Builder, word: list[tuple[str, object]]):
    """Fan-triangulated polygon with side identifications.

    Side i of the boundary word runs from corner i to corner i+1. A side
    ("free", comp) becomes a boundary segment of component comp; the two
    sides ("glue", name) of one name become one arc, the second a reversed
    copy of the first.
    """
    K = len(word)
    if K < 3:
        raise InvalidTriangulation("polygon template needs at least 3 sides")
    side_edge: list[int] = []
    first: dict[object, int] = {}
    for kind, datum in word:
        if kind == "free":
            side_edge.append(bld.new_edge(datum))
        elif datum in first:
            side_edge.append(first[datum])
        else:
            first[datum] = bld.new_edge()
            side_edge.append(first[datum])

    # spoke[j] joins corner 0 to corner j + 1: the first side, the fan's
    # diagonals, then the last side
    spoke = [side_edge[0]] + [bld.new_edge() for _ in range(2, K - 1)] + [side_edge[K - 1]]
    bld.sides += [[spoke[i - 1], side_edge[i], spoke[i]] for i in range(1, K - 1)]


def initial_triangulation(s: MarkedSurface) -> IdealTriangulation:
    """A deterministic triangulation of s without self-folded triangles.

    Template: a wheel for once-punctured polygons, the boundary of a
    tetrahedron for spheres, and otherwise a fan-triangulated polygon whose
    boundary word is c free sides (unpunctured c-gons) or encodes handles
    and boundary components, each with one marked point; remaining
    punctures enter by triangle subdivision and extra marked points by
    boundary splits; a rank above QUIVER_MAX_N is refused first.
    """
    if s.rank > QUIVER_MAX_N:
        raise ValueError(f"a triangulation is built for at most {QUIVER_MAX_N} arcs, got rank {s.rank}")
    bld = _Builder()
    g, b, cs = s.genus, s.num_boundary, s.boundary

    if b == 0 and g == 0:
        # boundary of a tetrahedron: a 4-punctured sphere
        eid = {pair: bld.new_edge() for pair in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]}

        def E(x, y):
            return eid[(min(x, y), max(x, y))]

        faces = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]
        bld.sides = [[E(x, y), E(y, z), E(z, x)] for x, y, z in faces]
        template_punctures = 4
    elif g == 0 and b == 1 and s.punctures:
        _wheel(bld, cs[0])
        template_punctures = 1
    elif g == 0 and b == 1:
        _glued_polygon(bld, [("free", 0)] * cs[0])
        template_punctures = 0
    else:
        # a b a' b' per handle, a tether t f t' per extra boundary component,
        # then one free side for component 0; all corners meet at one
        # puncture when there is no boundary
        word = [("glue", (x, h)) for h in range(g) for x in "abab"]
        for comp in range(1, b):
            word += [("glue", ("t", comp)), ("free", comp), ("glue", ("t", comp))]
        _glued_polygon(bld, word + [("free", 0)] * min(b, 1))
        template_punctures = int(b == 0)
        # component j currently has one marked point; add the rest
        for comp, cj in enumerate(cs):
            for _ in range(cj - 1):
                bld.split_boundary(comp)

    for _ in range(s.punctures - template_punctures):
        target = None
        for t, edges in enumerate(bld.sides):
            if len(set(edges)) < 3:  # clear self-folded intermediates first
                target = t
                break
        if target is None:
            target = len(bld.sides) - 1
        bld.subdivide(target)

    tri = bld.finish()
    if tri.surface != s:
        raise InvalidTriangulation(f"template built {tri.surface}, not {s}")
    if tri.fold_map():
        raise InvalidTriangulation("initial triangulation must avoid self-folded triangles")
    return tri


# ---------------------------------------------------------------------------
# flips


def is_flippable(T: IdealTriangulation, k: int) -> bool:
    """False exactly when k is the fold of a self-folded triangle."""
    if not T.is_arc(k):
        raise UnknownArc(f"{k} is not an arc of this triangulation")
    a = T.edges.index(k)
    return a // 3 != T.edges.index(k, a + 1) // 3


def flip(T: IdealTriangulation, k: int) -> IdealTriangulation:
    """Replace arc k by the other diagonal of its quadrilateral.

    Slot-level rewiring, so repeated side ids (loops, identified sides,
    newly created self-folded triangles) need no special cases. The new arc
    reuses id k.
    """
    if not T.is_arc(k):
        raise UnknownArc(f"{k} is not an arc of this triangulation")
    return IdealTriangulation(T.surface, *_flip_table(T.edges, T.verts, k))


def _flip_table(edges, verts, k: int) -> tuple[list[int], list[int]]:
    """Copies of the slot table with arc k flipped, not yet validated.

    From k's first slot a, its triangle has corners A, B, C and sides k, x,
    y; from its second slot b, the other has corners B, A, D and sides k, z,
    w. They become (C, A, D) with sides (y, z, k) and (D, B, C) with sides
    (w, x, k)."""
    a = edges.index(k)
    b = edges.index(k, a + 1)
    p, q = a - a % 3, b - b % 3
    if p == q:
        raise NotFlippable(f"arc {k} is the fold of a self-folded triangle")
    a1, b1 = p + (a + 1) % 3, q + (b + 1) % 3
    a2, b2 = p + (a + 2) % 3, q + (b + 2) % 3
    A, B, C, D = verts[a], verts[a1], verts[a2], verts[b2]
    x, y, z, w = edges[a1], edges[a2], edges[b1], edges[b2]
    edges, verts = list(edges), list(verts)
    edges[p:p + 3], verts[p:p + 3] = (y, z, k), (C, A, D)
    edges[q:q + 3], verts[q:q + 3] = (w, x, k), (D, B, C)
    return edges, verts


def _folds(edges):
    """(fold, loop, enclosed corner slot) for each self-folded triangle of a
    slot table: the fold fills two slots of its triangle, the loop the
    third, and the enclosed puncture is the corner between the fold's two
    sides."""
    for p in range(0, len(edges), 3):
        x, y, z = edges[p:p + 3]
        if x == y:
            yield x, z, p + 1
        elif y == z:
            yield y, x, p + 2
        elif z == x:
            yield z, y, p


# ---------------------------------------------------------------------------
# signed adjacency


def signed_adjacency(T: IdealTriangulation) -> ExchangeMatrix:
    """Signed adjacency matrix B(T), summed over non-self-folded triangles.

    Fold arcs contribute through their enclosing loop; entries land in
    {0, +-1, +-2} and B is skew-symmetric.
    """
    n = T.num_arcs
    fold = T.fold_map()
    # pre[e] lists the arcs a side e stands for: an arc that is not folded
    # stands for itself, and a loop also for the arc folded inside it.
    # Boundary segments are no key, so they add no arrow.
    pre: dict[int, list[int]] = {}
    for a in range(n):
        pre.setdefault(fold.get(a, a), []).append(a)
    arrows = []
    E = T.edges
    for p in range(0, len(E), 3):
        x, y, z = E[p:p + 3]
        if x == y or y == z or z == x:  # self-folded
            continue
        for u, v in ((x, y), (y, z), (z, x)):  # arrows from v's arcs to u's
            for a in pre.get(u, ()):
                for bb in pre.get(v, ()):
                    arrows.append((bb, a))
    return from_edges(n, arrows)


# ---------------------------------------------------------------------------
# canonical keys and flip-graph search


def _partners(edges, n: int) -> list[int]:
    """partner[s] is the other slot of arc edges[s] (edge ids below n), or
    -1 for a boundary slot."""
    partner = [-1] * len(edges)
    first = {}
    for s, e in enumerate(edges):
        if e < n:
            o = first.pop(e, None)
            if o is None:
                first[e] = s
            else:
                partner[o], partner[s] = s, o
    return partner


def canonical_key(T: IdealTriangulation, extra=()) -> tuple:
    """Canonical encoding up to arc relabeling (vertices and boundary fixed).

    A serialization walks the triangles breadth-first from a start slot,
    reading each triangle counterclockwise from the slot it was entered by
    and crossing arcs in that order. Each slot contributes its edge code and
    the vertex it starts at: arcs are numbered 0, 1, ... in order of first
    sight, boundary segments keep their ids (which are >= num_arcs). Extra
    data (e.g. tag signatures) is appended verbatim.

    Starts depend only on pinned ids: on a surface with boundary the one
    slot of boundary segment num_arcs; on a closed surface every corner at
    vertex 0 (always a puncture there), taking the least serialization.
    The walk reaches every triangle (the surface is connected), so equal
    serializations from two starts identify the two maps by an isomorphism
    that fixes every vertex and boundary id and renames arcs; conversely
    such a renaming carries each start set onto the other's. So keys agree
    exactly when one triangulation is an arc relabeling of the other.
    """
    return _table_key(T.edges, T.verts, T.num_arcs, T.num_boundary, extra)[0]


def _table_key(edges, verts, n: int, c: int, extra=()) -> tuple[tuple, list[int]]:
    """(canonical_key, number) of a slot table with n arcs and c boundary
    segments; number[a] is arc a's number in the winning serialization (the
    first start on ties), so arcs numbered alike match two maps with equal
    keys, arc for arc. The tagged search keys its raw flipped tables here."""
    partner = _partners(edges, n)
    if c:
        starts = [edges.index(n)]
    else:
        starts = [s for s, v in enumerate(verts) if v == 0]

    best = None
    for s0 in starts:
        arcnum = [-1] * n
        seen = 0
        out = []
        visited = [False] * (len(edges) // 3)
        visited[s0 // 3] = True
        queue = [s0]
        for s in queue:  # admissions extend the queue
            r = s % 3
            for sl in (s, s - r + (r + 1) % 3, s - r + (r + 2) % 3):
                e = edges[sl]
                if e < n:
                    if arcnum[e] < 0:
                        arcnum[e] = seen
                        seen += 1
                    out.append(arcnum[e])
                    t2 = partner[sl] // 3
                    if not visited[t2]:
                        visited[t2] = True
                        queue.append(partner[sl])
                else:
                    out.append(e)
                out.append(verts[sl])
        cand = tuple(out)
        if best is None or cand < best:
            best, number = cand, arcnum
    return (best, tuple(extra)), number


def flip_graph_bfs(T0: IdealTriangulation, max_nodes: int = 1000, labeled: bool = True):
    """BFS over ordinary flips.

    labeled=True explores distinct labeled triangulations (used for flip vs
    mutation checks); labeled=False identifies arc relabelings via
    canonical_key, matching the semantics of the tagged search.

    Returns (nodes, edges, truncated): nodes are triangulations in discovery
    order, edges are index pairs. Truncation follows `_explore.explore`.
    """
    def moves(T):
        return (flip(T, k) for k in T.arcs() if is_flippable(T, k))

    key = IdealTriangulation.normal_form if labeled else canonical_key
    nodes, _, edges, complete = explore(T0, moves, key, max_nodes, edges=set())
    return nodes, edges, not complete
