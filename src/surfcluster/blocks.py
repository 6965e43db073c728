"""Block decompositions of exchange matrices (the surface criterion).

A matrix is a signed adjacency matrix of some triangulated surface exactly
when its quiver assembles from the five elementary blocks by gluing outlets
pairwise, with opposite parallel edges cancelling. `decompose` searches for
a witness; `surface_from_decomposition` rebuilds a triangulated surface
realizing it.

Degenerate extension: a vertex with no incident edges may stay bare (it is
realized by a lone arc in a square patch); the literal five-block gluing
cannot produce a single isolated vertex although e.g. the unpunctured
square's matrix [0] demands one.
"""

from __future__ import annotations

import itertools
from collections import Counter, namedtuple

from ._explore import UnionFind
from .mutation import ExchangeMatrix, _is_int_list, _require_fields
from .surface import MarkedSurface
from .trimap import IdealTriangulation, _from_sides

# block-local structure: vertex count, outlet set, directed edges
BLOCK_SPECS: dict[str, tuple[int, frozenset, tuple[tuple[int, int], ...]]] = {
    "I": (2, frozenset({0, 1}), ((0, 1),)),
    "II": (3, frozenset({0, 1, 2}), ((0, 1), (1, 2), (2, 0))),
    "IIIa": (3, frozenset({2}), ((0, 2), (1, 2))),
    "IIIb": (3, frozenset({2}), ((2, 0), (2, 1))),
    "IV": (4, frozenset({0, 1}), ((0, 2), (2, 1), (0, 3), (3, 1), (1, 0))),
    "V": (5, frozenset({0}), ((0, 1), (0, 2), (3, 0), (4, 0), (1, 3), (1, 4), (2, 3), (2, 4))),
}

_KIND_ORDER = tuple(BLOCK_SPECS)


# vertices: block-local index -> matrix vertex
BlockPlacement = namedtuple("BlockPlacement", "kind vertices")


class BlockDecomposition(namedtuple("BlockDecomposition", "n blocks bare", defaults=((),))):
    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "blocks": [{"kind": b.kind, "vertices": list(b.vertices)} for b in self.blocks],
            "bare": list(self.bare),
        }

    @staticmethod
    def from_json(data: dict) -> "BlockDecomposition":
        """Read outside JSON: an integer n >= 0, blocks {kind, vertices} of a
        known kind, and integer vertex ids."""
        shape = '{"n": integer, "blocks": [{"kind": kind, "vertices": [integers]}, ...], "bare": [integers]}'
        _require_fields(data, ("n", "blocks"), shape)
        n, raw, bare = data["n"], data["blocks"], data.get("bare", [])
        for b in raw if type(raw) is list else ():
            if type(b) is dict:
                _require_fields(b, ("kind", "vertices"), shape)
        if not (type(n) is int and n >= 0 and type(raw) is list and _is_int_list(bare)
                and all(type(b) is dict and b["kind"] in _KIND_ORDER
                        and _is_int_list(b["vertices"]) for b in raw)):
            raise ValueError("expected an integer n >= 0, a list of blocks {kind, vertices} of the "
                             f"kinds {', '.join(_KIND_ORDER)}, and vertex ids that are JSON integers")
        blocks = tuple(BlockPlacement(b["kind"], tuple(b["vertices"])) for b in raw)
        return BlockDecomposition(n, blocks, tuple(bare))


def assemble_matrix(d: BlockDecomposition) -> ExchangeMatrix:
    """Net signed adjacency of the assembled graph (with cancellation)."""
    rows = [[0] * d.n for _ in range(d.n)]
    for pl in d.blocks:
        _, _, edges = BLOCK_SPECS[pl.kind]
        for a, b in edges:
            u, v = pl.vertices[a], pl.vertices[b]
            rows[u][v] += 1
            rows[v][u] -= 1
    return ExchangeMatrix.from_rows(rows)


def _usage_roles(d: BlockDecomposition):
    roles: dict[int, list[bool]] = {}
    for pl in d.blocks:
        size, outlets, _ = BLOCK_SPECS[pl.kind]
        if len(pl.vertices) != size:
            raise ValueError(f"block {pl.kind} needs {size} vertices, got {len(pl.vertices)}")
        if len(set(pl.vertices)) != size:
            raise ValueError("block vertices must be distinct")
        for local, v in enumerate(pl.vertices):
            roles.setdefault(v, []).append(local in outlets)
    return roles


def validate_decomposition(d: BlockDecomposition):
    roles = _usage_roles(d)
    if len(set(d.bare)) != len(d.bare):
        raise ValueError("bare vertices must be distinct")
    for v, lst in roles.items():
        if len(lst) > 2:
            raise ValueError(f"vertex {v} lies in {len(lst)} blocks")
        if len(lst) == 2 and not all(lst):
            raise ValueError(f"vertex {v} glues a non-outlet")
        if v in d.bare:
            raise ValueError(f"bare vertex {v} is also covered by a block")
    covered = set(roles) | set(d.bare)
    if len(covered) != d.n or not all(0 <= v < d.n for v in covered):
        raise ValueError("blocks and bare vertices must cover every index")
    # pre-cancellation graph must be connected (bare-only components allowed
    # solely when nothing else exists)
    if _component_count(d.n, d.blocks) > 1:
        raise ValueError("assembled graph is disconnected")


def _component_count(n: int, placements) -> int:
    """Connected components of vertices 0..n-1 joined within each block."""
    uf = UnionFind()
    for pl in placements:
        for b in pl.vertices[1:]:
            uf.union(pl.vertices[0], b)
    return len({uf.find(v) for v in range(n)})


# ---------------------------------------------------------------------------
# decision procedure


class BudgetExhausted(RuntimeError):
    """The block search made more calls than its budget allows: undecided."""


# the most `_Search._search` calls one block search may make
SEARCH_BUDGET = 2_000_000


# Twin locals: swapping each pair maps the block's edges and outlets onto
# themselves (the pairs never share an edge). A placement and its swapped copy
# leave the same residuals, loads and roles on the same vertex set, so the
# search places only the copy with vertices[i] < vertices[j]: the
# lexicographically least tuple of its orbit, since the pairs of V are
# disjoint and sort independently. II's rotation, an automorphism but not a
# swap, is left out.
_TWINS: dict[str, tuple[tuple[int, int], ...]] = {
    "IIIa": ((0, 1),),
    "IIIb": ((0, 1),),
    "IV": ((2, 3),),
    "V": ((1, 2), (3, 4)),
}


def _plan(kind: str, a: int, b: int):
    """How to complete a block whose edge (a, b) carries the demanded arrow.

    The free locals come in a fixed order, most constrained first: the one
    with the most block edges into the locals already placed, ties to the
    lowest index. Each step is (local, outlet flag, the local's block
    (out-degree, in-degree), the block edges it closes as (other local,
    whether the edge leaves the new local), its placed twin or -1, and
    whether the new vertex must exceed that twin's)."""
    size, outlets, edges = BLOCK_SPECS[kind]
    deg = [(sum(p == w for p, _ in edges), sum(q == w for _, q in edges)) for w in range(size)]
    placed = [a, b]
    steps = []
    while len(placed) < size:
        def anchored(w):
            return sum(1 for p, q in edges if (p == w and q in placed) or (q == w and p in placed))

        w = max((w for w in range(size) if w not in placed), key=anchored)
        closes = tuple((q, True) for p, q in edges if p == w and q in placed) \
            + tuple((p, False) for p, q in edges if q == w and p in placed)
        twin, above = -1, False
        for i, j in _TWINS.get(kind, ()):
            if w in (i, j) and (i + j - w) in placed:
                twin, above = i + j - w, w == j
        steps.append((w, w in outlets, deg[w], closes, twin, above))
        placed.append(w)
    return kind, size, a, b, a in outlets, b in outlets, deg[a], deg[b], tuple(steps)


# one plan per (block kind, start edge)
_PLANS = tuple(_plan(kind, a, b) for kind in _KIND_ORDER for a, b in BLOCK_SPECS[kind][2])


class _Search:
    """Backtracking state. res[u][v] is B[u, v] minus the net number of placed
    arrows u -> v, and load[u][v] counts the placed arrows between u and v in
    either direction. Opposite arrows cancel and a pair carries at most two
    arrows, so a pair can still be finished exactly when |res| + load <= 2.

    Each call picks one demanded arrow u -> v (a positive residual) and tries,
    in the order of the key (gain, kind, vertices), every single block
    placement that puts an arrow on u -> v and leaves each of its pairs
    finishable. `_PLANS` precompiles the enumeration: per block kind and
    start edge (a, b) with a -> u and b -> v, a fixed order for the other
    locals and the block edges each one closes, so a candidate vertex is
    checked only against those edges. Candidates come from two lists built
    once per call, the vertices usable as an outlet and as a non-outlet.

    Only the least copy of each `_TWINS` orbit is tried. The copies have the
    same gain and kind, so the least comes first in the key order; the others
    would start from the same residuals, loads and roles, and the same block
    vertex sets for the connectivity check, so their searches retrace the
    failed one's (with at least as many memo entries). Skipping them leaves
    every witness unchanged and only lowers the call count, so budget
    exhaustion can only become rarer. A placement carries u -> v through
    exactly one block edge, so none is produced twice.

    Each vertex is also checked against its remaining demand before it joins
    a candidate (`fits`, on u and v before a plan starts and on every vertex
    `_complete` enumerates). A block edge at x moves dout[x] or din[x] by
    exactly one, so a vertex that fails `fits` leaves, once placed, a
    nonempty `positive` and a child call that returns None at
    `_degree_feasible`, before it reads or writes the failure memo. Dropping
    such candidates leaves the try order, the memo and every witness
    unchanged and only lowers the call count. `fits` is necessary, not
    sufficient, so `_search` still runs `_degree_feasible`.

    `_add` keeps the demands incrementally: the set `positive` of pairs with
    a positive residual, and per vertex the sum of its positive residuals
    going out (`dout`) and coming in (`din`).
    """

    def __init__(self, B: ExchangeMatrix):
        n = self.n = B.n
        self.res = [list(row) for row in B.rows]
        self.load = [[0] * n for _ in range(n)]
        self.usage: list[list[bool]] = [[] for _ in range(n)]  # outlet flag per role
        self.blocks: list[BlockPlacement] = []
        self.calls = 0
        self.failed: set = set()
        self.positive = {(u, v) for u, row in enumerate(B.rows) for v, r in enumerate(row) if r > 0}
        self.dout = [sum(r for r in row if r > 0) for row in B.rows]
        self.din = [sum(-r for r in row if r < 0) for row in B.rows]

    def demands(self):
        return [(self.res[u][v], u, v) for u, v in self.positive]

    def can_use(self, v, as_outlet):
        roles = self.usage[v]
        return not roles or (len(roles) == 1 and roles[0] and as_outlet)

    def fits(self, x, outlet, deg):
        """Whether x, taking a block role of outlet flag `outlet` and block
        degree deg = (out, in), can still pass `_degree_feasible`. A role
        that leaves x no free role must clear its demand, so its edges must
        match dout[x] and din[x] exactly; a fresh outlet keeps one role of at
        most two arrows each way."""
        deg_out, deg_in = deg
        if outlet and not self.usage[x]:
            return self.dout[x] <= deg_out + 2 and self.din[x] <= deg_in + 2
        return self.dout[x] == deg_out and self.din[x] == deg_in

    def _add(self, pl: BlockPlacement, sign: int):
        res, load, dout, din, positive = self.res, self.load, self.dout, self.din, self.positive
        for a, b in BLOCK_SPECS[pl.kind][2]:
            u, v = pl.vertices[a], pl.vertices[b]
            load[u][v] += sign
            load[v][u] += sign
            # res stays skew-symmetric: the pair's positive residual sits on
            # (u, v) or (v, u) by the sign of res[u][v]
            old = res[u][v]
            new = res[u][v] = old - sign
            res[v][u] = -new
            if old > 0:
                dout[u] -= old
                din[v] -= old
                positive.discard((u, v))
            elif old < 0:
                dout[v] += old
                din[u] += old
                positive.discard((v, u))
            if new > 0:
                dout[u] += new
                din[v] += new
                positive.add((u, v))
            elif new < 0:
                dout[v] -= new
                din[u] -= new
                positive.add((v, u))

    def place(self, pl: BlockPlacement):
        outlets = BLOCK_SPECS[pl.kind][1]
        for local, v in enumerate(pl.vertices):
            self.usage[v].append(local in outlets)
        self._add(pl, 1)
        self.blocks.append(pl)

    def unplace(self, pl: BlockPlacement):
        for v in pl.vertices:
            self.usage[v].pop()
        self._add(pl, -1)
        self.blocks.pop()

    def placements_covering(self, u, v):
        """Sort keys (gain, kind, vertices) of the single-block placements
        that put an arrow u -> v, leave every pair finishable and whose
        vertices all pass `fits`, one per twin orbit, in the order the search
        tries them. gain is minus the number of the block's arrows that land
        on a positive residual."""
        res, load = self.res, self.load
        # a block puts at most one arrow on a pair of its vertices, and one
        # more arrow p -> q leaves the pair finishable when |res - 1| + load
        # <= 1, which under |res| + load <= 2 reads res >= load
        if res[u][v] < load[u][v]:
            return []
        candidates = tuple([x for x in range(self.n) if self.can_use(x, as_outlet)]
                           for as_outlet in (False, True))
        gain = -1 if res[u][v] > 0 else 0
        out: list = []
        fits = self.fits
        for kind, size, a, b, a_outlet, b_outlet, a_deg, b_deg, steps in _PLANS:
            if (self.can_use(u, a_outlet) and self.can_use(v, b_outlet)
                    and fits(u, a_outlet, a_deg) and fits(v, b_outlet, b_deg)):
                assign = [-1] * size
                assign[a], assign[b] = u, v
                if steps:
                    self._complete(kind, steps, 0, assign, gain, candidates, out)
                else:
                    out.append((gain, kind, tuple(assign)))
        out.sort()
        return out

    def _complete(self, kind, steps, i, assign, gain, candidates, out):
        w, outlet, deg, closes, twin, above = steps[i]
        last = i + 1 == len(steps)
        res, load, fits = self.res, self.load, self.fits
        low, high = -1, self.n
        if twin >= 0:
            if above:
                low = assign[twin]
            else:
                high = assign[twin]
        for x in candidates[outlet]:
            if x <= low or x in assign:
                continue
            if x >= high:
                break
            if not fits(x, outlet, deg):
                continue
            g = gain
            for o, outgoing in closes:
                p, q = (x, assign[o]) if outgoing else (assign[o], x)
                r = res[p][q]
                if r < load[p][q]:  # the pair test of placements_covering
                    break
                if r > 0:
                    g -= 1
            else:
                assign[w] = x
                if last:
                    out.append((g, kind, tuple(assign)))
                else:
                    self._complete(kind, steps, i + 1, assign, g, candidates, out)
        assign[w] = -1

    # -- search driver ------------------------------------------------------

    def _state_key(self):
        return (tuple(map(tuple, self.res)), tuple(map(tuple, self.load)),
                tuple(tuple(sorted(r)) for r in self.usage))

    def _degree_feasible(self):
        # remaining star of each vertex must fit in its free block roles:
        # one role carries at most 2 outgoing and 2 incoming edges
        for v, roles in enumerate(self.usage):
            dout, din = self.dout[v], self.din[v]
            if not dout and not din:
                continue
            free = 0 if (roles and not all(roles)) else 2 - len(roles)
            if free == 0:
                return False
            if dout > 2 * free or din > 2 * free:
                return False
        return True

    def _pick_demand(self, demands):
        # saturate partially covered vertices first: their remaining star
        # must fit into a single role, which prunes hard
        def score(t):
            r, u, v = t
            partial = max(len(self.usage[u]), len(self.usage[v]))
            return (-partial, -r, u, v)

        return min(demands, key=score)

    def _search(self):
        self.calls += 1
        if self.calls > SEARCH_BUDGET:
            raise BudgetExhausted(f"block search budget of {SEARCH_BUDGET} calls exhausted")
        if not self.positive:
            return self._close_up()
        if not self._degree_feasible():
            return None
        key = self._state_key()
        if key in self.failed:
            return None
        _, u, v = self._pick_demand(self.demands())
        for _, kind, vertices in self.placements_covering(u, v):
            pl = BlockPlacement(kind, vertices)
            self.place(pl)
            found = self._search()
            if found is not None:
                return found
            self.unplace(pl)
        self.failed.add(key)
        return None

    def _close_up(self):
        # all residuals vanished, so an uncovered vertex has no edges; such
        # vertices pair up through cancelling I+I blocks (only untouched
        # vertices can host both usages of such a pair), a lone leftover stays
        # bare, and the pre-cancellation graph must form exactly one component
        free = [v for v in range(self.n) if not self.usage[v]]
        joins: list[BlockPlacement] = []
        while len(free) >= 2:
            u = free.pop(0)
            v = free.pop(0)
            joins.append(BlockPlacement("I", (u, v)))
            joins.append(BlockPlacement("I", (v, u)))
        bare = tuple(free)

        placements = tuple(self.blocks) + tuple(joins)
        if _component_count(self.n, placements) != 1:
            return None
        return BlockDecomposition(self.n, placements, bare)


def decompose(B: ExchangeMatrix) -> BlockDecomposition | None:
    """Find a block decomposition witnessing B = B(T), or None.

    Entries outside {0, +-1, +-2} fail immediately. The witness, when it
    exists, assembles (after cancelling opposite pairs) to exactly B. A search
    that makes more than `SEARCH_BUDGET` calls raises BudgetExhausted: undecided.
    """
    if not B.entries_bounded_by(2):
        return None
    d = _Search(B)._search()
    if d is None:
        return None
    validate_decomposition(d)
    if assemble_matrix(d).rows != B.rows:
        raise AssertionError("assembled matrix differs from input")
    return d


# ---------------------------------------------------------------------------
# surface reconstruction


# each block's triangulated piece: side lists of block-local vertices, None
# for a fresh boundary segment
_PIECES = {
    "I": ((1, 0, None),),  # (e1, e0, boundary), so the arrow runs 0 -> 1
    "II": ((0, 2, 1),),
    "IIIa": ((None, 2, 0), (0, 1, 1)),  # vertices (loop, radius, outlet)
    "IIIb": ((2, None, 0), (0, 1, 1)),
    "IV": ((0, 1, 2), (2, 3, 3)),  # (outlet, outlet, loop, radius)
    "V": ((0, 3, 1), (1, 2, 2), (3, 4, 4)),  # (outlet, loop, radius, loop, radius)
}


def surface_from_decomposition(d: BlockDecomposition) -> tuple[MarkedSurface, IdealTriangulation]:
    """Glue the blocks' triangulated pieces along matched outlets.

    Unmatched outlets receive an extra triangle with two boundary sides;
    bare vertices become the diagonal of a square patch. Arc i of the result
    is matrix vertex i; the signed adjacency of the result equals the
    assembled matrix exactly. Boundary segments are numbered n, n + 1, ...
    in the order the pieces, patches and caps create them.
    """
    validate_decomposition(d)
    n = d.n
    bnd = itertools.count(n)
    sides = [tuple(next(bnd) if i is None else pl.vertices[i] for i in tri)
             for pl in d.blocks for tri in _PIECES[pl.kind]]
    for v in d.bare:
        sides += [(next(bnd), next(bnd), v), (v, next(bnd), next(bnd))]
    slots = Counter(e for tri in sides for e in tri)
    sides += [(v, next(bnd), next(bnd)) for v in range(n) if slots[v] == 1]
    T = _from_sides(sides, n)
    return T.surface, T
