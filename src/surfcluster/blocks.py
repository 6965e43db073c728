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

from dataclasses import dataclass

from ._explore import UnionFind
from .mutation import ExchangeMatrix
from .surface import MarkedSurface, validate_surface
from .trimap import IdealTriangulation, Triangle

# block-local structure: vertex count, outlet set, directed edges
BLOCK_SPECS: dict[str, tuple[int, frozenset, tuple[tuple[int, int], ...]]] = {
    "I": (2, frozenset({0, 1}), ((0, 1),)),
    "II": (3, frozenset({0, 1, 2}), ((0, 1), (1, 2), (2, 0))),
    "IIIa": (3, frozenset({2}), ((0, 2), (1, 2))),
    "IIIb": (3, frozenset({2}), ((2, 0), (2, 1))),
    "IV": (4, frozenset({0, 1}), ((0, 2), (2, 1), (0, 3), (3, 1), (1, 0))),
    "V": (5, frozenset({0}), ((0, 1), (0, 2), (3, 0), (4, 0), (1, 3), (1, 4), (2, 3), (2, 4))),
}

_KIND_ORDER = ("I", "II", "IIIa", "IIIb", "IV", "V")


@dataclass(frozen=True)
class BlockPlacement:
    kind: str
    vertices: tuple[int, ...]  # block-local index -> matrix vertex

    def outlet_vertices(self):
        _, outlets, _ = BLOCK_SPECS[self.kind]
        return tuple(self.vertices[i] for i in sorted(outlets))


@dataclass(frozen=True)
class BlockDecomposition:
    n: int
    blocks: tuple[BlockPlacement, ...]
    bare: tuple[int, ...] = ()

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "blocks": [{"kind": b.kind, "vertices": list(b.vertices)} for b in self.blocks],
            "bare": list(self.bare),
        }

    @staticmethod
    def from_json(data: dict) -> "BlockDecomposition":
        return BlockDecomposition(
            n=int(data["n"]),
            blocks=tuple(BlockPlacement(b["kind"], tuple(b["vertices"])) for b in data["blocks"]),
            bare=tuple(data.get("bare", ())),
        )


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
        if len(set(pl.vertices)) != size:
            raise ValueError("block vertices must be distinct")
        for local, v in enumerate(pl.vertices):
            roles.setdefault(v, []).append(local in outlets)
    return roles


def validate_decomposition(d: BlockDecomposition):
    roles = _usage_roles(d)
    for v, lst in roles.items():
        if len(lst) > 2:
            raise ValueError(f"vertex {v} lies in {len(lst)} blocks")
        if len(lst) == 2 and not all(lst):
            raise ValueError(f"vertex {v} glues a non-outlet")
        if v in d.bare:
            raise ValueError(f"bare vertex {v} is also covered by a block")
    covered = set(roles) | set(d.bare)
    if covered != set(range(d.n)):
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


def _pair_feasible(f: int, g: int, t: int) -> bool:
    # final (f', g') >= (f, g) with f' - g' = t, f' + g' <= 2
    finals = {2: [(2, 0)], 1: [(1, 0)], 0: [(0, 0), (1, 1)], -1: [(0, 1)], -2: [(0, 2)]}
    return any(f <= ff and g <= gg for ff, gg in finals[t])


class _Search:
    def __init__(self, B: ExchangeMatrix):
        self.B = B
        self.n = B.n
        self.arrows: dict[tuple[int, int], int] = {}
        self.usage: dict[int, list[bool]] = {}
        self.blocks: list[BlockPlacement] = []
        self.calls = 0
        self.failed: set = set()

    def residual(self, u, v):
        f = self.arrows.get((u, v), 0)
        g = self.arrows.get((v, u), 0)
        return self.B[u, v] - (f - g)

    def demands(self):
        out = []
        for u in range(self.n):
            for v in range(self.n):
                if u != v:
                    r = self.residual(u, v)
                    if r > 0:
                        out.append((r, u, v))
        return out

    def can_use(self, v, as_outlet):
        lst = self.usage.get(v, [])
        if len(lst) >= 2:
            return False
        if lst and not (all(lst) and as_outlet):
            return False
        return True

    def place(self, pl: BlockPlacement):
        _, outlets, edges = BLOCK_SPECS[pl.kind]
        for local, v in enumerate(pl.vertices):
            self.usage.setdefault(v, []).append(local in outlets)
        for a, b in edges:
            key = (pl.vertices[a], pl.vertices[b])
            self.arrows[key] = self.arrows.get(key, 0) + 1
        self.blocks.append(pl)

    def unplace(self, pl: BlockPlacement):
        _, outlets, edges = BLOCK_SPECS[pl.kind]
        for v in pl.vertices:
            self.usage[v].pop()
            if not self.usage[v]:
                del self.usage[v]
        for a, b in edges:
            key = (pl.vertices[a], pl.vertices[b])
            self.arrows[key] -= 1
            if not self.arrows[key]:
                del self.arrows[key]
        self.blocks.pop()

    def placements_covering(self, u, v):
        """All single-block placements contributing an arrow u -> v."""
        out = []
        seen = set()
        for kind in _KIND_ORDER:
            size, outlets, edges = BLOCK_SPECS[kind]
            for (a, b) in edges:
                assign = {a: u, b: v}
                if not (self.can_use(u, a in outlets) and self.can_use(v, b in outlets)):
                    continue
                if self._edges_feasible_partial(edges, assign):
                    self._complete(kind, size, outlets, edges, assign, out, seen)
        return out

    def _complete(self, kind, size, outlets, edges, assign, out, seen):
        # every assignment reaching here has passed _edges_feasible_partial
        free = [w for w in range(size) if w not in assign]
        if not free:
            pl = BlockPlacement(kind, tuple(assign[i] for i in range(size)))
            if pl not in seen:
                seen.add(pl)
                out.append(pl)
            return
        # most-constrained first: free vertex with most block edges into the
        # assigned part
        def anchored(w):
            return sum(1 for a, b in edges if (a == w and b in assign) or (b == w and a in assign))

        w = max(free, key=anchored)
        used = set(assign.values())
        for x in range(self.n):
            if x in used:
                continue
            if not self.can_use(x, w in outlets):
                continue
            assign[w] = x
            if self._edges_feasible_partial(edges, assign):
                self._complete(kind, size, outlets, edges, assign, out, seen)
            del assign[w]

    def _edges_feasible_partial(self, edges, assign):
        # block edges between assigned vertices must leave every pair
        # completable; with all vertices assigned this checks the placement
        add: dict[tuple[int, int], int] = {}
        for a, b in edges:
            if a in assign and b in assign:
                key = (assign[a], assign[b])
                add[key] = add.get(key, 0) + 1
        for (u, v), extra in add.items():
            f = self.arrows.get((u, v), 0) + extra
            g = self.arrows.get((v, u), 0)
            if not _pair_feasible(f, g, self.B[u, v]):
                return False
        return True

    # -- search driver ------------------------------------------------------

    def _state_key(self):
        return (tuple(sorted(self.arrows.items())),
                tuple(sorted((v, tuple(sorted(r))) for v, r in self.usage.items())))

    def _degree_feasible(self, demands):
        # remaining star of each vertex must fit in its free block roles:
        # one role carries at most 2 outgoing and 2 incoming edges
        dout = [0] * self.n
        din = [0] * self.n
        for r, u, v in demands:
            dout[u] += r
            din[v] += r
        for v in range(self.n):
            if not dout[v] and not din[v]:
                continue
            roles = self.usage.get(v, ())
            free = 0 if (roles and not all(roles)) else 2 - len(roles)
            if free == 0:
                return False
            if dout[v] > 2 * free or din[v] > 2 * free:
                return False
        return True

    def _pick_demand(self, demands):
        # saturate partially covered vertices first: their remaining star
        # must fit into a single role, which prunes hard
        def score(t):
            r, u, v = t
            partial = max(len(self.usage.get(u, ())), len(self.usage.get(v, ())))
            return (-partial, -r, u, v)

        return min(demands, key=score)

    def _search(self, budget):
        self.calls += 1
        if self.calls > budget:
            raise RuntimeError("block search budget exhausted")
        demands = self.demands()
        if not demands:
            return self._close_up()
        if not self._degree_feasible(demands):
            return None
        key = self._state_key()
        if key in self.failed:
            return None
        _, u, v = self._pick_demand(demands)
        placements = self.placements_covering(u, v)

        def helps(pl):
            _, _, edges = BLOCK_SPECS[pl.kind]
            gain = 0
            for a, b in edges:
                if self.residual(pl.vertices[a], pl.vertices[b]) > 0:
                    gain -= 1
            return (gain, pl.kind, pl.vertices)

        placements.sort(key=helps)
        for pl in placements:
            self.place(pl)
            found = self._search(budget)
            if found is not None:
                return found
            self.unplace(pl)
        self.failed.add(key)
        return None

    def _close_up(self):
        # all residuals vanished; cover isolated vertices, then the
        # pre-cancellation graph must come out connected
        covered = set(self.usage)
        uncovered = [v for v in range(self.n) if v not in covered]
        if any(any(self.B[v, w] for w in range(self.n)) for v in uncovered):
            return None  # an edge-bearing vertex escaped coverage: dead end

        # isolated vertices pair up through cancelling I+I blocks (only
        # untouched vertices can host both usages of such a pair); a lone
        # leftover stays bare
        joins: list[BlockPlacement] = []
        free = list(uncovered)
        while len(free) >= 2:
            u = free.pop(0)
            v = free.pop(0)
            joins.append(BlockPlacement("I", (u, v)))
            joins.append(BlockPlacement("I", (v, u)))
        bare = tuple(free)

        placements = tuple(self.blocks) + tuple(joins)
        if _component_count(self.n, placements) > 1:
            return None
        return BlockDecomposition(self.n, placements, bare)


def decompose(B: ExchangeMatrix, budget: int = 2_000_000) -> BlockDecomposition | None:
    """Find a block decomposition witnessing B = B(T), or None.

    Entries outside {0, +-1, +-2} fail immediately. The witness, when it
    exists, assembles (after cancelling opposite pairs) to exactly B.
    """
    if not B.entries_bounded_by(2):
        return None
    d = _Search(B)._search(budget)
    if d is None:
        return None
    validate_decomposition(d)
    if assemble_matrix(d).rows != B.rows:
        raise AssertionError("assembled matrix differs from input")
    return d


# ---------------------------------------------------------------------------
# surface reconstruction


class _Assembler:
    def __init__(self):
        self.triangles: list[tuple[list[int], list[int]]] = []
        self.corners = UnionFind()  # vertices identified by gluing
        self._next_vertex = 0
        self._next_edge = 0
        self.edge_kind: dict[int, str] = {}
        self.arc_slots: dict[int, list[tuple[int, int, int, int]]] = {}

    def new_vertex(self):
        v = self._next_vertex
        self._next_vertex += 1
        return v

    def boundary_edge(self):
        e = self._next_edge
        self._next_edge += 1
        self.edge_kind[e] = "boundary"
        return e

    def arc_edge(self, gamma_vertex):
        # arcs are keyed directly by matrix vertex; reserve ids below 0 risk:
        # use a tagged key instead
        return ("arc", gamma_vertex)

    def add_triangle(self, verts, edges):
        t = len(self.triangles)
        self.triangles.append((list(verts), list(edges)))
        for i, e in enumerate(edges):
            if isinstance(e, tuple):
                self.arc_slots.setdefault(e[1], []).append((t, i, verts[i], verts[(i + 1) % 3]))
        return t


def _instantiate_piece(asm: _Assembler, pl: BlockPlacement):
    g = pl.vertices
    if pl.kind == "I":
        u, w, z = asm.new_vertex(), asm.new_vertex(), asm.new_vertex()
        # ccw sides (e1, e0, boundary) so the quiver arrow runs 0 -> 1
        asm.add_triangle([u, w, z], [asm.arc_edge(g[1]), asm.arc_edge(g[0]), asm.boundary_edge()])
    elif pl.kind == "II":
        u, w, z = asm.new_vertex(), asm.new_vertex(), asm.new_vertex()
        asm.add_triangle([u, w, z], [asm.arc_edge(g[0]), asm.arc_edge(g[2]), asm.arc_edge(g[1])])
    elif pl.kind in ("IIIa", "IIIb"):
        u, w, z = asm.new_vertex(), asm.new_vertex(), asm.new_vertex()
        loop = asm.arc_edge(g[0])
        rad = asm.arc_edge(g[1])
        t_arc = asm.arc_edge(g[2])
        if pl.kind == "IIIa":
            sides = [asm.boundary_edge(), t_arc, loop]  # arrows loop->t, rad->t
        else:
            sides = [t_arc, asm.boundary_edge(), loop]  # arrows t->loop, t->rad
        asm.add_triangle([u, w, u], sides)
        asm.add_triangle([u, u, z], [loop, rad, rad])
    elif pl.kind == "IV":
        u, w, z = asm.new_vertex(), asm.new_vertex(), asm.new_vertex()
        o1, o2 = asm.arc_edge(g[0]), asm.arc_edge(g[1])
        loop, rad = asm.arc_edge(g[2]), asm.arc_edge(g[3])
        asm.add_triangle([u, w, u], [o1, o2, loop])
        asm.add_triangle([u, u, z], [loop, rad, rad])
    elif pl.kind == "V":
        u = asm.new_vertex()
        z1, z2 = asm.new_vertex(), asm.new_vertex()
        O = asm.arc_edge(g[0])
        l1, r1 = asm.arc_edge(g[1]), asm.arc_edge(g[2])
        l2, r2 = asm.arc_edge(g[3]), asm.arc_edge(g[4])
        asm.add_triangle([u, u, u], [O, l2, l1])
        asm.add_triangle([u, u, z1], [l1, r1, r1])
        asm.add_triangle([u, u, z2], [l2, r2, r2])
    else:
        raise ValueError(f"unknown block kind {pl.kind}")


def surface_from_decomposition(d: BlockDecomposition) -> tuple[MarkedSurface, IdealTriangulation]:
    """Glue the blocks' triangulated pieces along matched outlets.

    Unmatched outlets receive an extra triangle with two boundary sides;
    bare vertices become the diagonal of a square patch. Arc i of the result
    is matrix vertex i; the signed adjacency of the result equals the
    assembled matrix exactly.
    """
    validate_decomposition(d)
    asm = _Assembler()
    for pl in d.blocks:
        _instantiate_piece(asm, pl)
    for v in d.bare:
        a, b, c, e = asm.new_vertex(), asm.new_vertex(), asm.new_vertex(), asm.new_vertex()
        arc = asm.arc_edge(v)
        asm.add_triangle([a, b, c], [asm.boundary_edge(), asm.boundary_edge(), arc])
        asm.add_triangle([a, c, e], [arc, asm.boundary_edge(), asm.boundary_edge()])

    for gv, slots in sorted(asm.arc_slots.items()):
        if len(slots) == 1:
            t, i, a, b = slots[0]
            z = asm.new_vertex()
            asm.add_triangle([b, a, z],
                             [asm.arc_edge(gv), asm.boundary_edge(), asm.boundary_edge()])
        elif len(slots) == 2:
            (_, _, a1, b1), (_, _, a2, b2) = slots
            asm.corners.union(a1, b2)
            asm.corners.union(b1, a2)
        else:
            raise ValueError(f"arc {gv} would have {len(slots)} slots")

    # resolve vertices
    classes: dict[int, int] = {}
    flags: list[bool] = []
    tri_out: list[Triangle] = []
    boundary_ids: dict[int, int] = {}
    n = d.n
    bcount = sum(1 for e, k in asm.edge_kind.items() if k == "boundary")

    def vid(v):
        r = asm.corners.find(v)
        if r not in classes:
            classes[r] = len(classes)
            flags.append(True)
        return classes[r]

    def eid(e):
        if isinstance(e, tuple):
            return e[1]
        if e not in boundary_ids:
            boundary_ids[e] = n + len(boundary_ids)
        return boundary_ids[e]

    raw = []
    for verts, edges in asm.triangles:
        vv = tuple(vid(v) for v in verts)
        ee = tuple(eid(e) for e in edges)
        raw.append((vv, ee))
        for i, e in enumerate(edges):
            if not isinstance(e, tuple):
                flags[vv[i]] = False
                flags[vv[(i + 1) % 3]] = False
    tri_out = [Triangle(vv, ee) for vv, ee in raw]

    # boundary components and their marked-point counts
    succ = {}
    for vv, ee in raw:
        for i, e in enumerate(ee):
            if e >= n:
                succ[e] = (vv[i], vv[(i + 1) % 3])
    by_start: dict[int, list[int]] = {}
    for e, (a, b) in succ.items():
        by_start.setdefault(a, []).append(e)
    comp_counts = []
    seen_edges = set()
    for e0 in sorted(succ):
        if e0 in seen_edges:
            continue
        count = 0
        e = e0
        while e not in seen_edges:
            seen_edges.add(e)
            count += 1
            _, b = succ[e]
            nxts = [x for x in by_start.get(b, []) if x not in seen_edges]
            if not nxts:
                break
            e = nxts[0]
        comp_counts.append(count)
    assert sum(comp_counts) == bcount

    V = len(classes)
    E = n + bcount
    F = len(tri_out)
    chi = V - E + F
    b = len(comp_counts)
    genus2 = 2 - b - chi
    if genus2 % 2:
        raise ValueError("assembled surface has inconsistent Euler characteristic")
    g = genus2 // 2
    p = sum(1 for f in flags if f)
    surf = validate_surface(genus=g, boundary=comp_counts, punctures=p)
    T = IdealTriangulation(surf, tri_out, n, bcount, flags)
    return surf, T
