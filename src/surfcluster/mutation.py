"""Skew-symmetric exchange matrices and their mutation combinatorics.

Provides the matrix type shared by the whole package, matrix mutation,
fraction-free integer rank, canonical forms up to simultaneous row/column
permutation, mutation-class enumeration, a catalog of named quivers, and
mutation-type recognition from block witnesses, else by a search from the
input toward the catalog's exceptional quivers.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple
from operator import add, attrgetter, itemgetter, neg

from ._explore import explore, explore_exchange


class IndexOutOfRange(ValueError):
    pass


class DimensionTooLarge(ValueError):
    pass


class BadSpec(ValueError):
    pass


# Mutation-class search treats entries beyond this magnitude as runaway
# growth and reports truncation instead of continuing.
ENTRY_CEILING = 10 ** 9
# canonical_form refuses matrices larger than this.
CANONICAL_MAX_N = 64
# quiver_from_json refuses more vertices than this, before the n x n matrix
# is allocated.
QUIVER_MAX_N = 1000


class ExchangeMatrix(namedtuple("ExchangeMatrix", "rows")):
    """Skew-symmetric integer matrix; row/column i is labeled by index i.
    The rows are checked on construction."""

    __slots__ = ()

    def __new__(cls, rows: tuple[tuple[int, ...], ...]):
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise ValueError("matrix must be square")
        for i in range(n):
            if rows[i][i] != 0:
                raise ValueError("diagonal entries must vanish")
            for j in range(i + 1, n):
                if rows[i][j] != -rows[j][i]:
                    raise ValueError("matrix must be skew-symmetric")
        return tuple.__new__(cls, (rows,))

    @property
    def n(self) -> int:
        return len(self.rows)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    @classmethod
    def _trusted(cls, rows: tuple[tuple[int, ...], ...]) -> "ExchangeMatrix":
        """Wrap rows already known to be square and skew-symmetric, without
        the check of __new__."""
        return tuple.__new__(cls, (rows,))

    @staticmethod
    def from_rows(rows) -> "ExchangeMatrix":
        return ExchangeMatrix(tuple(tuple(int(x) for x in row) for row in rows))

    def to_json(self) -> dict:
        return {"n": self.n, "rows": [list(row) for row in self.rows]}

    @staticmethod
    def from_json(data: dict) -> "ExchangeMatrix":
        """Read outside JSON: rows of integers, and n (if given) an integer."""
        _require_fields(data, ("rows",), '{"rows": [[integers], ...]} with an optional integer "n"')
        rows = data["rows"]
        if type(rows) is not list or not all(_is_int_list(row) for row in rows):
            raise ValueError("rows must be a list of lists of integers")
        if "n" in data and (type(data["n"]) is not int or data["n"] != len(rows)):
            raise ValueError("declared dimension does not match rows")
        return ExchangeMatrix.from_rows(rows)

    def entries_bounded_by(self, bound: int) -> bool:
        rows = self.rows
        return not rows or (max(map(max, rows)) <= bound and min(map(min, rows)) >= -bound)


def zero_matrix(n: int) -> ExchangeMatrix:
    return ExchangeMatrix.from_rows([[0] * n for _ in range(n)])


def from_edges(n: int, edges) -> ExchangeMatrix:
    """Build B from quiver edges (i, j, w), w arrows i -> j, or (i, j) for one."""
    rows = [[0] * n for _ in range(n)]
    for edge in edges:
        if len(edge) == 2:
            i, j = edge
            w = 1
        else:
            i, j, w = edge
        rows[i][j] += w
        rows[j][i] -= w
    return ExchangeMatrix.from_rows(rows)


def quiver_from_json(data: dict) -> ExchangeMatrix:
    """Read outside JSON: an integer n, 0 <= n <= QUIVER_MAX_N, and integer
    edges [i, j] or [i, j, w], 0 <= i, j < n, i != j."""
    _require_fields(data, ("n", "edges"), 'a quiver {"n": integer, "edges": [[i, j] or [i, j, w], ...]}')
    n, edges = data["n"], data["edges"]
    if type(n) is not int or n < 0 or type(edges) is not list:
        raise ValueError("a quiver needs an integer n >= 0 and a list of edges")
    if n > QUIVER_MAX_N:
        raise ValueError(f"a quiver has at most {QUIVER_MAX_N} vertices, got n = {n}")
    for edge in edges:
        if not (_is_int_list(edge) and len(edge) in (2, 3) and 0 <= edge[0] < n and 0 <= edge[1] < n):
            raise ValueError(f"quiver edge must be [i, j] or [i, j, w] of integers with 0 <= i, j < {n}, "
                             f"got {edge!r}")
        if edge[0] == edge[1]:
            raise ValueError(f"quiver edge must join two distinct vertices, got the loop {edge!r}")
    return from_edges(n, edges)


def _require_fields(data: dict, fields, shape: str):
    """Reject outside JSON that lacks one of `fields`, naming it and `shape`."""
    for field in fields:
        if field not in data:
            raise ValueError(f"missing field {field!r}: expected {shape}")


def _is_int_list(values) -> bool:
    """True for a JSON list of integers (booleans are not integers here)."""
    return type(values) is list and all(type(x) is int for x in values)


def mutate(B: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """Matrix mutation in direction k."""
    n = B.n
    if not 0 <= k < n:
        raise IndexOutOfRange(f"mutation index {k} out of range for n={n}")
    # b'_ij = b_ij + (|b_ik| b_kj + b_ik |b_kj|) / 2 off row and column k,
    # that is b_ij + |b_ik| times the positive (b_ik > 0) or negative
    # (b_ik < 0) part of b_kj, so a row with b_ik = 0 stays as it is; row
    # and column k change sign. The result is skew-symmetric by construction.
    # A row with |b_ik| = 1, the common case, adds the part as it is.
    row_k = B.rows[k]
    plus = [x if x > 0 else 0 for x in row_k]
    minus = [x if x < 0 else 0 for x in row_k]
    rows = []
    for i, row in enumerate(B.rows):
        c = row[k]
        if i == k:
            row = tuple(map(neg, row))
        elif c:
            part = plus if c > 0 else minus
            if c == 1 or c == -1:
                new = list(map(add, row, part))
            else:
                a = abs(c)
                new = [x + a * y for x, y in zip(row, part)]
            new[k] = -c
            row = tuple(new)
        rows.append(row)
    return ExchangeMatrix._trusted(tuple(rows))


def rank(B: ExchangeMatrix) -> int:
    """Integer rank via fraction-free (Bareiss) elimination."""
    m = [list(row) for row in B.rows]
    n = B.n
    r = 0
    prev = 1
    col = 0
    for col in range(n):
        piv = None
        for i in range(r, n):
            if m[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, n):
            for j in range(col + 1, n):
                m[i][j] = (m[r][col] * m[i][j] - m[i][col] * m[r][j]) // prev
            m[i][col] = 0
        prev = m[r][col]
        r += 1
    return r


def corank(B: ExchangeMatrix) -> int:
    return B.n - rank(B)


# ---------------------------------------------------------------------------
# canonical form under simultaneous row/column permutation


def _refine(rows, colors):
    """Refine the vertex coloring `colors` of the skew-symmetric `rows`.

    Each pass gives every vertex the rank of its signature: its color, then
    the sorted multiset of pairs (color of u, entry toward u) over all u.
    Passes repeat until one splits no cell, and the colors come back
    numbered 0.. in signature order. Canonical forms depend on these exact
    colors, so the work is cut only where no color can change:
    - a signature is ranked by its color first, so each cell takes the next
      numbers in color order. A cell of one vertex gets one number whatever
      its multiset, which is therefore computed only in larger cells;
    - the pair (c, x) is coded as c * width + x with width > 2 max |x|,
      which orders as the pairs do, negative colors included, so a multiset
      is a sorted tuple of ints;
    - a discrete coloring cannot split, so it is returned without a pass
      that would confirm it.
    """
    n = len(rows)
    width = 2 * max(map(max, rows), default=0) + 1  # max |x|: the rows are skew
    by_color = {}
    for v, c in enumerate(colors):
        by_color.setdefault(c, []).append(v)
    cells = [by_color[c] for c in sorted(by_color)]
    while True:
        colors = [0] * n
        for c, cell in enumerate(cells):
            for v in cell:
                colors[v] = c
        if len(cells) == n:
            return colors
        coded = [c * width for c in colors]
        split = []
        for cell in cells:
            if len(cell) == 1:
                split.append(cell)
                continue
            parts = {}
            for v in cell:
                parts.setdefault(tuple(sorted(map(add, coded, rows[v]))), []).append(v)
            split += (parts[s] for s in sorted(parts))
        if len(split) == len(cells):
            return colors
        cells = split


def _permuted_rows(rows, perm):
    # perm[i] = original index placed at position i; at least two of them,
    # so the getter returns tuples
    get = itemgetter(*perm)
    return tuple(get(rows[v]) for v in perm)


def canonical_labeling(B: ExchangeMatrix) -> tuple[ExchangeMatrix, tuple[int, ...]]:
    """Canonical representative of B's orbit under simultaneous permutation,
    with the labeling that reaches it: (form, order), where order[i] is the
    index of B placed at position i, so form[i, j] = B[order[i], order[j]].

    Iterated partition refinement on (color, entry) multisets, then
    depth-first individualization over the remaining cells, keeping the
    lexicographically least permuted matrix; `order` is taken from the first
    leaf that reaches it. `_refine` skips only work that cannot change a
    color, so the search visits the same nodes in the same order, and at a
    discrete coloring (colors 0..n-1) the leaf's labeling is its inverse.
    """
    n = B.n
    if n > CANONICAL_MAX_N:
        raise DimensionTooLarge(f"n={n} exceeds canonical-form bound {CANONICAL_MAX_N}")
    rows = B.rows
    if n <= 1 or not any(map(any, rows)):
        return B, tuple(range(n))

    def twins(v, w):
        # transposing v and w is an automorphism
        if rows[v][w] != rows[w][v]:
            return False
        return all(rows[v][u] == rows[w][u] for u in range(n) if u not in (v, w))

    colors = _refine(rows, [0] * n)
    best = [None, None]

    def search(colors):
        k = max(colors) + 1
        if k == n:
            perm = [0] * n
            for v, c in enumerate(colors):
                perm[c] = v
            cand = _permuted_rows(rows, perm)
            if best[0] is None or cand < best[0]:
                best[:] = cand, perm
            return
        cells = [[] for _ in range(k)]
        for v, c in enumerate(colors):
            cells[c].append(v)
        branch = next(cell for cell in cells if len(cell) > 1)
        chosen = []
        for v in branch:
            # siblings swappable by an automorphism yield identical subtrees
            if any(twins(v, w) for w in chosen):
                continue
            chosen.append(v)
            nxt = [c * 2 for c in colors]
            nxt[v] -= 1
            search(_refine(rows, nxt))

    search(colors)
    return ExchangeMatrix._trusted(best[0]), tuple(best[1])  # a permuted skew-symmetric matrix


def canonical_form(B: ExchangeMatrix) -> ExchangeMatrix:
    """Canonical representative of B's orbit under simultaneous permutation
    (the form of `canonical_labeling`)."""
    return canonical_labeling(B)[0]


class MutationClass(namedtuple("MutationClass", "matrices complete limit")):
    """Canonical representatives of a mutation class, with completion status."""

    __slots__ = ()

    @property
    def size(self) -> int:
        return len(self.matrices)


def mutation_class(B: ExchangeMatrix, max_size: int = 10000) -> MutationClass:
    """Enumerate B's mutation class up to simultaneous permutation by BFS.

    The search expands canonical forms; a mutation with an entry beyond
    ENTRY_CEILING ends it incomplete, as does the size cap (see
    `_explore.explore`). Each edge is mutated from one end only (see
    `_mutations`).
    """
    if max_size < 1:
        raise ValueError("max_size must be positive")

    nodes, _, _, complete = explore_exchange(
        canonical_form(B), lambda M, skip: _mutations(M, ENTRY_CEILING, skip), _key, max_size)
    return MutationClass(matrices=tuple(sorted(nodes, key=attrgetter("rows"))), complete=complete, limit=max_size)


def _mutations(M: ExchangeMatrix, bound: int, skip):
    """The moves of `_explore.explore_exchange` from the canonical form M, in
    index order without `skip`: (C, order.index(k)) for the canonical
    labeling (C, order) of M's mutation at k, or None when that mutation has
    an entry beyond `bound`.

    A skipped move is never None: nodes other than the start are within
    `bound`, and a start beyond it meets None in its own expansion (mutating
    at either end of an entry keeps its magnitude), so the search ends
    before any other node is expanded.
    """
    for k in range(M.n):
        if k in skip:
            continue
        Mk = mutate(M, k)
        if not Mk.entries_bounded_by(bound):
            yield None
            continue
        C, order = canonical_labeling(Mk)
        yield C, order.index(k)


def _key(M: ExchangeMatrix):
    # a canonical form is its own frame: each label names itself
    return M.rows, range(M.n)


# ---------------------------------------------------------------------------
# named quivers


def _tree_from_arms(arm_lengths) -> ExchangeMatrix:
    # star-shaped tree: a center with arms of the given edge counts,
    # every edge oriented away from the center
    edges = []
    idx = 1
    for arm in arm_lengths:
        prev = 0
        for _ in range(arm):
            edges.append((prev, idx))
            prev = idx
            idx += 1
    return from_edges(idx, edges)


def _bipartition(B: ExchangeMatrix) -> list[int]:
    """Side +-1 of each vertex; each component's least vertex is on side 1."""
    n = B.n

    def moves(node):  # a neighbour takes the other side
        v, c = node
        return ((w, -c) for w in range(n) if B[v, w])

    color = [None] * n
    for s in range(n):
        if color[s] is None:
            for v, c in explore((s, 1), moves, itemgetter(0), n)[0]:
                color[v] = c
    if any(B[v, w] and color[v] == color[w] for v in range(n) for w in range(n)):
        raise BadSpec("diagram is not bipartite")
    return color


def quiver_product(B1: ExchangeMatrix, B2: ExchangeMatrix) -> ExchangeMatrix:
    """Square product of two bipartite diagrams: every unit square of the
    vertex grid becomes an oriented 4-cycle."""
    s1, s2 = _bipartition(B1), _bipartition(B2)
    n1, n2 = B1.n, B2.n

    def vid(u, v):
        return u * n2 + v

    edges = []
    for u in range(n1):
        for u2 in range(n1):
            if B1[u, u2] != 0 and s1[u] == 1:  # undirected edge, + side first
                for v in range(n2):
                    if s2[v] == 1:
                        edges.append((vid(u, v), vid(u2, v)))
                    else:
                        edges.append((vid(u2, v), vid(u, v)))
    for v in range(n2):
        for v2 in range(n2):
            if B2[v, v2] != 0 and s2[v] == 1:
                for u in range(n1):
                    if s1[u] == 1:
                        edges.append((vid(u, v2), vid(u, v)))
                    else:
                        edges.append((vid(u, v), vid(u, v2)))
    return from_edges(n1 * n2, edges)


def _extended_affine_e(k: int) -> ExchangeMatrix:
    # two rows joined by a doubled edge pair (A, B) plus a tail; every
    # triangle oriented, tree edges oriented outward
    if k == 6:
        tail, bottom, top = 2, 2, 2  # beyond A resp. B
    elif k == 7:
        tail, bottom, top = 1, 3, 3
    elif k == 8:
        tail, bottom, top = 1, 2, 5
    else:
        raise BadSpec("extended affine type must be E6, E7 or E8")
    # vertices: 0=A, 1=B, tail chain, bottom chain off A, top chain off B
    edges = [(0, 1, 2)]
    idx = 2
    for length in (tail, bottom, top):
        for t in range(length):
            if t == 0:
                # a chain head closes two oriented triangles with the double edge
                edges += [(1, idx), (idx, 0)]
            else:
                edges.append((idx - 1, idx))
            idx += 1
    return from_edges(idx, edges)


def _gamma2(n1: int, n2: int) -> ExchangeMatrix:
    if n1 < 1 or n2 < 1:
        raise BadSpec("Gamma2 parameters must be positive")
    # a-chain a1..a_{n1}, doubled pair (a_{n1}, bL), b-chain b_{n2+1}..b_1,
    # then a plain fork b0, b0'
    n = n1 + n2 + 3
    a = list(range(n1))            # a_1 .. a_{n1}
    bL = n1                        # partner of a_{n1} across the double edge
    b = list(range(n1 + 1, n1 + 1 + n2))  # b_{n2} .. b_1
    f1, f2 = n - 2, n - 1
    X = a[-1]
    edges = [(X, bL, 2)]
    if n1 >= 2:
        edges += [(bL, a[-2]), (a[-2], X)]
        edges += [(a[i], a[i + 1]) for i in range(n1 - 2)]
    edges += [(bL, b[0]), (b[0], X)]
    edges += [(b[i], b[i + 1]) for i in range(n2 - 1)]
    last = b[-1]
    edges += [(last, f1), (last, f2)]
    return from_edges(n, edges)


def _gamma3(n1: int, n2: int, n3: int) -> ExchangeMatrix:
    if min(n1, n2, n3) < 1:
        raise BadSpec("Gamma3 parameters must be positive")
    n = n1 + n2 + n3 + 3
    a = list(range(n1))
    Y1 = n1
    b = list(range(n1 + 1, n1 + 1 + n2 + 1))  # b_{n2+1} .. b_1
    X2 = n1 + n2 + 2
    Y2 = n1 + n2 + 3
    c = list(range(n1 + n2 + 4, n))  # c_{n3-1} .. c_1
    X1 = a[-1]
    edges = [(X1, Y1, 2)]
    if n1 >= 2:
        edges += [(Y1, a[-2]), (a[-2], X1)]
        edges += [(a[i], a[i + 1]) for i in range(n1 - 2)]
    edges += [(Y1, b[0]), (b[0], X1)]
    edges += [(b[i], b[i + 1]) for i in range(len(b) - 1)]
    b1 = b[-1]
    edges += [(X2, Y2, 2), (Y2, b1), (b1, X2)]
    if n3 >= 2:
        edges += [(Y2, c[0]), (c[0], X2)]
        edges += [(c[i], c[i + 1]) for i in range(len(c) - 1)]
    return from_edges(n, edges)


def _octahedron() -> ExchangeMatrix:
    # signed adjacencies of the tetrahedral triangulation of a 4-punctured
    # sphere: arcs are tetrahedron edges, each coherently oriented face
    # contributes an oriented triangle
    eidx = {}
    for i, pair in enumerate(itertools.combinations(range(4), 2)):
        eidx[pair] = i
    faces = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]
    edges = []
    for (x, y, z) in faces:
        sides = [eidx[tuple(sorted((x, y)))], eidx[tuple(sorted((y, z)))], eidx[tuple(sorted((z, x)))]]
        for t in range(3):
            edges.append((sides[t], sides[(t + 1) % 3]))
    return from_edges(6, edges)


def make_quiver(kind: str, *params: int) -> ExchangeMatrix:
    """Construct a named quiver from the catalog.

    Kinds: A(n), D(n), E(6|7|8), AffineA(n1,n2), AffineD(n), AffineE(6|7|8),
    ExtAffE(6|7|8), Gamma2(n1,n2), Gamma3(n1,n2,n3), Grid(k,l), Octahedron.
    """
    try:
        if kind == "A":
            (n,) = params
            if n < 1:
                raise BadSpec("A(n) needs n >= 1")
            return _tree_from_arms([n - 1])
        if kind == "D":
            (n,) = params
            if n < 4:
                raise BadSpec("D(n) needs n >= 4")
            return _tree_from_arms([1, 1, n - 3])
        if kind == "E":
            (n,) = params
            arms = {6: [1, 2, 2], 7: [1, 2, 3], 8: [1, 2, 4]}
            if n not in arms:
                raise BadSpec("E(n) needs n in {6,7,8}")
            return _tree_from_arms(arms[n])
        if kind == "AffineA":
            n1, n2 = params
            if n1 < n2 or n2 < 1:
                raise BadSpec("AffineA(n1,n2) needs n1 >= n2 >= 1")
            n = n1 + n2
            if n == 2:
                return from_edges(2, [(0, 1, 2)])
            edges = [(i, (i + 1) % n) for i in range(n1)]
            edges += [((i + 1) % n, i) for i in range(n1, n)]
            return from_edges(n, edges)
        if kind == "AffineD":
            (n,) = params
            if n < 4:
                raise BadSpec("AffineD(n) needs n >= 4")
            return _affine_d(n)
        if kind == "AffineE":
            (n,) = params
            arms = {6: [2, 2, 2], 7: [1, 3, 3], 8: [1, 2, 5]}
            if n not in arms:
                raise BadSpec("AffineE(n) needs n in {6,7,8}")
            return _tree_from_arms(arms[n])
        if kind == "ExtAffE":
            (n,) = params
            return _extended_affine_e(n)
        if kind == "Gamma2":
            n1, n2 = params
            return _gamma2(n1, n2)
        if kind == "Gamma3":
            n1, n2, n3 = params
            return _gamma3(n1, n2, n3)
        if kind == "Grid":
            k, l = params
            if k < 2 or l < 2:
                raise BadSpec("Grid(k,l) needs k,l >= 2")
            return quiver_product(_tree_from_arms([k - 2]), _tree_from_arms([l - 2]))
        if kind == "Octahedron":
            if params:
                raise BadSpec("Octahedron takes no parameters")
            return _octahedron()
    except ValueError as exc:
        if isinstance(exc, BadSpec):
            raise
        raise BadSpec(str(exc)) from exc
    raise BadSpec(f"unknown quiver kind {kind!r}")


def _affine_d(n: int) -> ExchangeMatrix:
    # affine D_n diagram: n+1 vertices, forked at both ends
    edges = [(0, 2), (1, 2)]
    prev = 2
    for v in range(3, n - 1):
        edges.append((prev, v))
        prev = v
    edges += [(prev, n - 1), (prev, n)]
    return from_edges(n + 1, edges)


# ---------------------------------------------------------------------------
# type recognition

# Sizes of the exceptional mutation classes, up to simultaneous permutation;
# every member of these classes has all entries in -2..2.
_CLASS_ENTRY_BOUND = 2
_CLASS_SIZES = {
    ("E", 6): 67, ("E", 7): 416, ("E", 8): 1574,
    ("AffineE", 6): 132, ("AffineE", 7): 1080, ("AffineE", 8): 7560,
    ("ExtAffE", 6): 49, ("ExtAffE", 7): 506, ("ExtAffE", 8): 5739,
}


def _candidates(n: int):
    """The exceptional catalog types with n vertices: E, AffineE, ExtAffE."""
    return [(kind, k) for kind, k in (("E", n), ("AffineE", n - 1), ("ExtAffE", n - 2)) if k in (6, 7, 8)]


@functools.cache
def _catalog(n: int):
    """(tag, rank, canonical rows) of each candidate with n vertices.

    These are catalog constants, built once per process on the first call
    for n (not at import); no input of `recognize_type` is kept.
    """
    table = []
    for tag in _candidates(n):
        Q = make_quiver(*tag)
        table.append((tag, rank(Q), canonical_form(Q).rows))
    return tuple(table)


def recognize_type(B: ExchangeMatrix) -> str:
    """Name B's mutation type, such as "A(3)", "AffineA(2,1)" or "ExtAffE(6)".

    A block decomposition witnesses a surface, whose growth class names the
    type; exponential growth and A1 x A1 are "Unknown". Without one, B is of
    no catalog type unless it lies in the class c of an exceptional type E,
    AffineE or ExtAffE with B's number of vertices (Felikson-Shapiro-Tumarkin).
    Rank is a mutation invariant (Berenstein-Fomin-Zelevinsky, Cluster
    algebras III, Lemma 3.2), so only the candidates of B's rank are kept.
    A breadth-first search from canonical_form(B) stops at the first key of
    a kept candidate's catalog quiver. The answer is proven: each c is
    finite, of size s(c) (`_CLASS_SIZES`), and all entries of its members
    lie in -2..2. So if B ~ c, the search sees no entry beyond 2 and meets
    the key of c's catalog quiver before it admits s(c) nodes. An entry
    beyond 2, no kept candidate, a complete search without a hit, or more
    than max s(c) nodes over the kept candidates therefore means "Unknown".
    The search computes each edge from one end (see `_mutations`) with the
    nodes and keys of the search that makes every mutation, so the bound
    holds for it too.
    Raises `blocks.BudgetExhausted` when the block search is undecided.
    """
    # imported here to break the import cycle blocks -> mutation
    from . import blocks, surface

    d = blocks.decompose(B)
    if d is not None:
        s, _ = blocks.surface_from_decomposition(d)
        return surface.catalog_type(surface.classify(s).growth)
    if not B.entries_bounded_by(_CLASS_ENTRY_BOUND):
        return "Unknown"
    r = rank(B)
    kept = [(tag, rows) for tag, q_rank, rows in _catalog(B.n) if q_rank == r]
    if not kept:
        return "Unknown"
    known = {rows: f"{kind}({k})" for (kind, k), rows in kept}
    hit = []

    def moves(M, skip):
        for move in _mutations(M, _CLASS_ENTRY_BOUND, skip):
            if move is not None and move[0].rows in known:
                hit.append(known[move[0].rows])
                move = None
            yield move  # None ends the search

    start = canonical_form(B)
    if start.rows in known:
        return known[start.rows]
    explore_exchange(start, moves, _key, max(_CLASS_SIZES[tag] for tag, _ in kept))
    return hit[0] if hit else "Unknown"
