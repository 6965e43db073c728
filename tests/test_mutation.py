import hashlib
import itertools
import json
import random

import pytest

from conftest import quiver_edges, same_without_edges
from surfcluster import mutation as mu
from surfcluster._explore import explore


def rand_skew(rng, n, bound=3):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.randint(-bound, bound)
            rows[i][j] = v
            rows[j][i] = -v
    return mu.ExchangeMatrix.from_rows(rows)


def relabel(B, rng):
    perm = list(range(B.n))
    rng.shuffle(perm)
    return mu.ExchangeMatrix.from_rows([[B[perm[i], perm[j]] for j in range(B.n)] for i in range(B.n)])


def test_matrix_validation():
    with pytest.raises(ValueError):
        mu.ExchangeMatrix.from_rows([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        mu.ExchangeMatrix.from_rows([[1]])
    with pytest.raises(ValueError, match="missing field 'rows'"):
        mu.ExchangeMatrix.from_json({"n": 2})


def test_mutate_examples():
    B = mu.ExchangeMatrix.from_rows([[0, 2], [-2, 0]])
    assert mu.mutate(B, 0).rows == ((0, -2), (2, 0))
    torus = mu.ExchangeMatrix.from_rows([[0, 2, -2], [-2, 0, 2], [2, -2, 0]])
    for k in range(3):
        assert mu.mutate(torus, k).rows == tuple(tuple(-x for x in row) for row in torus.rows)
    with pytest.raises(mu.IndexOutOfRange):
        mu.mutate(B, 2)


def test_mutation_involutive_random():
    rng = random.Random(7)
    for _ in range(200):
        B = rand_skew(rng, rng.randint(2, 8))
        k = rng.randrange(B.n)
        assert mu.mutate(mu.mutate(B, k), k).rows == B.rows


def test_mutate_matches_textbook_formula():
    # b'_ij = -b_ij on row and column k, else
    # b_ij + (|b_ik| b_kj + b_ik |b_kj|) / 2 (Fomin-Zelevinsky)
    def textbook(b, k):
        n = len(b)
        return tuple(tuple(-b[i][j] if k in (i, j)
                           else b[i][j] + (abs(b[i][k]) * b[k][j] + b[i][k] * abs(b[k][j])) // 2
                           for j in range(n)) for i in range(n))

    rng = random.Random(31)
    for _ in range(300):
        B = rand_skew(rng, rng.randint(1, 7))
        for k in range(B.n):
            M = mu.mutate(B, k)
            assert M.rows == textbook(B.rows, k)
            assert mu.ExchangeMatrix.from_rows(M.rows) == M  # skew-symmetric
            assert mu.mutate(M, k) == B


def test_rank_bareiss():
    B = mu.ExchangeMatrix.from_rows([[0, 2, -2], [-2, 0, 2], [2, -2, 0]])
    assert mu.rank(B) == 2 and mu.corank(B) == 1
    assert mu.rank(mu.zero_matrix(5)) == 0
    rng = random.Random(3)
    for _ in range(50):
        B = rand_skew(rng, rng.randint(2, 6))
        assert mu.rank(B) % 2 == 0  # skew-symmetric rank is even
        k = rng.randrange(B.n)
        assert mu.rank(mu.mutate(B, k)) == mu.rank(B)


def test_canonical_form_orbit_oracle():
    rng = random.Random(11)
    mats = [rand_skew(rng, rng.randint(2, 6)) for _ in range(20)]

    def orbit_key(A):
        n = A.n
        return min(tuple(tuple(A.rows[p[i]][p[j]] for j in range(n)) for i in range(n))
                   for p in itertools.permutations(range(n)))

    for A in mats:
        n = A.n
        perm = list(range(n))
        rng.shuffle(perm)
        P = mu.ExchangeMatrix.from_rows([[A.rows[perm[i]][perm[j]] for j in range(n)]
                                         for i in range(n)])
        assert mu.canonical_form(A).rows == mu.canonical_form(P).rows
        assert orbit_key(mu.canonical_form(A)) == orbit_key(A)
    for A in mats:
        for B in mats:
            if A.n == B.n:
                assert (mu.canonical_form(A).rows == mu.canonical_form(B).rows) == \
                    (orbit_key(A) == orbit_key(B))


def test_refine_matches_reference():
    # the plain refinement: rank each vertex's (color, sorted (color, entry)
    # pairs) signature and repeat until no color changes; canonical forms
    # depend on the exact colors, not only on the partition
    def reference(rows, colors):
        n = len(rows)
        while True:
            sig = [(colors[i], tuple(sorted((colors[j], rows[i][j]) for j in range(n)))) for i in range(n)]
            order = sorted(set(sig))
            new = [order.index(x) for x in sig]
            if new == colors:
                return colors
            colors = new

    rng = random.Random(13)
    for _ in range(300):
        B = rand_skew(rng, rng.randint(1, 9), rng.choice((1, 2)))
        colors = [rng.randrange(3) * 2 for _ in range(B.n)]
        for start in ([0] * B.n, colors):
            assert mu._refine(B.rows, start) == reference(B.rows, start)


def plain_refine(rows, colors):
    """The brute-force refinement of `test_refine_matches_reference`."""
    n = len(rows)
    while True:
        sig = [(colors[i], tuple(sorted((colors[j], rows[i][j]) for j in range(n)))) for i in range(n)]
        order = sorted(set(sig))
        new = [order.index(x) for x in sig]
        if new == colors:
            return colors
        colors = new


def test_refine_matches_reference_on_search_colorings():
    # the colorings canonical_labeling refines: individualized ones (2c, and
    # 2c - 1 for the chosen vertex, down to -1), one to three levels deep;
    # discrete starts and random ones with negative colors; and entries up to
    # ENTRY_CEILING, where the pairs are coded as ints
    rng = random.Random(29)
    big = mu.ENTRY_CEILING
    mats = [rand_skew(rng, rng.randint(0, 9), rng.choice((1, 2))) for _ in range(150)]
    mats += [rand_skew(rng, rng.randint(2, 7), big) for _ in range(10)]
    for _ in range(60):  # entries -2..2 with +-2 made big, so that cells still split
        B = rand_skew(rng, rng.randint(2, 8), 2)
        made_big = {2: rng.choice((big, big - 1))}
        made_big[-2] = -made_big[2]
        mats.append(mu.from_edges(B.n, [(i, j, made_big.get(B[i, j], B[i, j]))
                                        for i, j in itertools.combinations(range(B.n), 2)]))
    mats += [mu.from_edges(4, [(0, 1, big), (1, 2, big), (2, 3, -big), (3, 0, big - 1)]),
             mu.from_edges(3, [(0, 1, big), (1, 2, -big)]), mu.zero_matrix(5)]
    for B in mats:
        n = B.n
        colors = plain_refine(B.rows, [0] * n)
        for _ in range(3):
            cells = [c for c in set(colors) if colors.count(c) > 1]
            if not cells:
                break
            c = rng.choice(cells)
            v = rng.choice([v for v in range(n) if colors[v] == c])
            start = [2 * x for x in colors]
            start[v] -= 1
            colors = mu._refine(B.rows, start)
            assert colors == plain_refine(B.rows, start)
        perm = list(range(n))
        rng.shuffle(perm)
        coarse = [rng.randrange(-1, 3) for _ in range(n)]
        for start in (perm, [2 * c - (c == 0) for c in perm], [-5 * c for c in perm], coarse):
            assert mu._refine(B.rows, start) == plain_refine(B.rows, start)


def test_entries_bounded_by_matches_the_plain_check():
    rng = random.Random(41)
    mats = [rand_skew(rng, rng.randint(0, 7), rng.choice((0, 1, 2, 3))) for _ in range(200)]
    mats += [mu.zero_matrix(0), mu.zero_matrix(1), mu.zero_matrix(3),
             mu.from_edges(2, [(0, 1, mu.ENTRY_CEILING)]), mu.from_edges(3, [(2, 0, mu.ENTRY_CEILING + 1)])]
    for B in mats:
        for bound in (-1, 0, 1, 2, 3, mu.ENTRY_CEILING):
            assert B.entries_bounded_by(bound) == all(abs(x) <= bound for row in B.rows for x in row)


def test_canonical_form_idempotent_and_discrete():
    B = mu.make_quiver("Gamma2", 2, 1)
    C = mu.canonical_form(B)
    assert mu.canonical_form(C).rows == C.rows
    # all-distinct rows refine without branching; zero matrix shortcuts
    assert mu.canonical_form(mu.zero_matrix(6)).rows == mu.zero_matrix(6).rows


def test_affine_a_classes_disjoint():
    c22 = mu.mutation_class(mu.make_quiver("AffineA", 2, 2), 1000)
    c31 = mu.mutation_class(mu.make_quiver("AffineA", 3, 1), 1000)
    assert c22.complete and c31.complete
    assert mu.canonical_form(mu.make_quiver("AffineA", 2, 2)).rows != \
        mu.canonical_form(mu.make_quiver("AffineA", 3, 1)).rows
    assert not ({m.rows for m in c22.matrices} & {m.rows for m in c31.matrices})


def test_mutation_class_a2_single_class():
    cls = mu.mutation_class(mu.make_quiver("A", 2), 100)
    assert cls.complete and cls.size == 1


def test_mutation_class_triple_edge_truncates():
    tr = mu.from_edges(3, [(0, 1, 3), (1, 2, 3)])
    cls = mu.mutation_class(tr, 60)
    assert not cls.complete


def test_capped_mutation_class_is_a_subset():
    full = mu.mutation_class(mu.make_quiver("E", 6))
    assert full.complete and full.size == 67
    for cap in (1, 10, 66):
        cls = mu.mutation_class(mu.make_quiver("E", 6), cap)
        assert not cls.complete and cls.size == cap
        assert {m.rows for m in cls.matrices} <= {m.rows for m in full.matrices}


def test_make_quiver_shapes():
    assert mu.make_quiver("A", 3).n == 3
    assert mu.make_quiver("D", 4).n == 4
    assert mu.make_quiver("E", 8).n == 8
    assert mu.make_quiver("AffineA", 3, 1).n == 4
    assert mu.make_quiver("AffineA", 1, 1).rows == ((0, 2), (-2, 0))
    assert mu.make_quiver("AffineD", 4).n == 5
    assert mu.make_quiver("AffineE", 6).n == 7
    assert mu.make_quiver("ExtAffE", 6).n == 8
    assert mu.make_quiver("ExtAffE", 7).n == 9
    assert mu.make_quiver("ExtAffE", 8).n == 10
    assert mu.make_quiver("Gamma2", 2, 1).n == 6
    assert mu.make_quiver("Gamma3", 1, 1, 1).n == 6
    assert mu.make_quiver("Grid", 3, 3).n == 4
    octa = mu.make_quiver("Octahedron")
    assert octa.n == 6
    assert all(sum(1 for x in row if x) == 4 for row in octa.rows)


@pytest.mark.parametrize("spec", [
    ("A", 0), ("Nope", 3), ("D", 3), ("E", 5), ("AffineA", 1, 2), ("AffineD", 3), ("AffineE", 9),
    ("ExtAffE", 5), ("Gamma2", 0, 1), ("Gamma3", 1, 1, 0), ("Grid", 1, 3), ("Octahedron", 1),
    ("A", 1, 2),
], ids=lambda spec: "-".join(map(str, spec)))
def test_make_quiver_rejects(spec):
    with pytest.raises(mu.BadSpec):
        mu.make_quiver(*spec)


def test_grid_33_is_oriented_4_cycle():
    B = mu.make_quiver("Grid", 3, 3)
    outdeg = [sum(1 for x in row if x > 0) for row in B.rows]
    indeg = [sum(1 for x in row if x < 0) for row in B.rows]
    assert outdeg == [1, 1, 1, 1] and indeg == [1, 1, 1, 1]


def test_grid_rows_pinned():
    grid = [[list(r) for r in mu.make_quiver("Grid", k, l).rows] for k in range(2, 6) for l in range(2, 6)]
    assert grid[5] == [[0, -1, 1, 0], [1, 0, 0, -1], [-1, 0, 0, 1], [0, 1, -1, 0]]  # Grid(3,3)
    digest = hashlib.sha256(json.dumps(grid).encode()).hexdigest()
    assert digest == "66d7e39c6be70746f4a3b5016eb4379219e1e546dac65cc518afdf8345e23165"


def test_catalog_rows_pinned():
    # every kind at small parameters; Gamma3(1,1,2) and (2,2,2) take the
    # n3 >= 2 branch of its builder
    specs = (
        [("A", n) for n in range(1, 6)] + [("D", n) for n in range(4, 7)]
        + [("E", n) for n in (6, 7, 8)]
        + [("AffineA", 1, 1), ("AffineA", 2, 1), ("AffineA", 2, 2), ("AffineA", 3, 1)]
        + [("AffineD", n) for n in (4, 5, 6)] + [("AffineE", n) for n in (6, 7, 8)]
        + [("ExtAffE", n) for n in (6, 7, 8)]
        + [("Gamma2", 1, 1), ("Gamma2", 2, 1), ("Gamma2", 1, 2)]
        + [("Gamma3", 1, 1, 1), ("Gamma3", 1, 1, 2), ("Gamma3", 2, 2, 2)]
        + [("Grid", 2, 2), ("Grid", 2, 3), ("Grid", 3, 3), ("Octahedron",)]
    )
    rows = [[list(r) for r in mu.make_quiver(*spec).rows] for spec in specs]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "2bcabeaf54c25100c7cc70e3da8b160e077f3a71f9fb2da92d67e61a0dba2de1"


def test_quiver_product_rejects_an_odd_cycle():
    triangle = mu.from_edges(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(mu.BadSpec, match="diagram is not bipartite"):
        mu.quiver_product(triangle, mu.make_quiver("A", 2))


def test_recognize_type_basics():
    assert mu.recognize_type(mu.make_quiver("A", 3)) == "A(3)"
    tri = mu.from_edges(3, [(0, 1), (1, 2), (2, 0)])
    assert mu.recognize_type(tri) == "A(3)"
    cyc4 = mu.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert mu.recognize_type(cyc4) == "D(4)"
    assert mu.recognize_type(mu.make_quiver("AffineA", 3, 1)) == "AffineA(3,1)"
    assert mu.recognize_type(mu.make_quiver("Gamma2", 1, 1)) == "Gamma2(1,1)"
    assert mu.recognize_type(mu.make_quiver("Gamma3", 1, 1, 2)) == "Gamma3(2,1,1)"
    big = mu.from_edges(3, [(0, 1, 3)])
    assert mu.recognize_type(big) == "Unknown"


def test_quiver_json_roundtrip():
    B = mu.make_quiver("AffineA", 2, 2)
    data = {"n": B.n, "edges": [list(e) for e in quiver_edges(B)]}
    assert mu.quiver_from_json(data).rows == B.rows
    assert mu.ExchangeMatrix.from_json(B.to_json()).rows == B.rows


def _surfaces_of_rank(n):
    """Every valid surface with 6g + 3b + 3p + c - 6 = n."""
    from surfcluster import surface as sf

    for g in range(n // 6 + 2):
        for b in range((n + 6 - 6 * g) // 3 + 1):
            for p in range((n + 6 - 6 * g - 3 * b) // 3 + 1):
                c = n + 6 - 6 * g - 3 * b - 3 * p
                for boundary in itertools.combinations_with_replacement(range(1, c + 1), b):
                    if sum(boundary) != c:
                        continue
                    try:
                        yield sf.validate_surface(g, boundary, p)
                    except ValueError:  # excluded or without marked points
                        pass


def test_recognize_matches_surface_classification():
    # every surface of rank 1-7: a polynomial-growth surface's matrix lies in
    # the complete class of the catalog quiver its family names, and
    # recognize_type names that family; exponential growth is "Unknown"
    from surfcluster import surface as sf, trimap as tm

    seen = 0
    for n in range(1, 8):
        for s in _surfaces_of_rank(n):
            B = tm.signed_adjacency(tm.initial_triangulation(s))
            growth = sf.classify(s).growth
            tag = sf.catalog_type(growth)
            if growth.family == "Exponential":
                assert tag == "Unknown"
            elif tag != "Unknown":  # A1 x A1 has no catalog quiver
                kind, _, params = tag[:-1].partition("(")
                cls = mu.mutation_class(mu.make_quiver(kind, *map(int, params.split(","))))
                assert cls.complete and mu.canonical_form(B) in cls.matrices, s
            assert mu.recognize_type(B) == tag, s
            seen += 1
    assert seen == 44


EXCEPTIONAL_CLASS_SIZES = [
    ("E", 6, 67), ("E", 7, 416), ("E", 8, 1574), ("AffineE", 6, 132), ("AffineE", 7, 1080),
    ("ExtAffE", 6, 49), ("ExtAffE", 7, 506),
    pytest.param("AffineE", 8, 7560, marks=pytest.mark.slow),
    pytest.param("ExtAffE", 8, 5739, marks=pytest.mark.slow),
]


@pytest.mark.parametrize("kind, k, size", EXCEPTIONAL_CLASS_SIZES)
def test_recognize_exceptional_types(kind, k, size):
    # the facts recognize_type's proof rests on: each exceptional class is
    # finite with its tabled size, and every member's entries lie in -2..2
    B = mu.make_quiver(kind, k)
    cls = mu.mutation_class(B)
    assert cls.complete and cls.size == size == mu._CLASS_SIZES[kind, k]
    assert all(M.entries_bounded_by(2) for M in cls.matrices)
    rng = random.Random(k)
    M = mu.mutate(mu.mutate(B, rng.randrange(B.n)), rng.randrange(B.n))
    for A in (B, relabel(M, rng)):
        assert mu.recognize_type(A) == f"{kind}({k})"


def test_class_size_table_is_the_nine_exceptional_types():
    tags = {tuple(getattr(p, "values", p)[:2]) for p in EXCEPTIONAL_CLASS_SIZES}
    assert tags == set(mu._CLASS_SIZES)
    assert all(tag in mu._CLASS_SIZES for n in range(1, 12) for tag in mu._candidates(n))


REFEREE_TAGS = [("E", 6), ("E", 7), ("AffineE", 6), ("ExtAffE", 6)]


@pytest.fixture(scope="module")
def referee_classes():
    return {tag: mu.mutation_class(mu.make_quiver(*tag)) for tag in REFEREE_TAGS}


@pytest.mark.parametrize("kind, k", [
    ("E", 6),
    pytest.param("E", 7, marks=pytest.mark.slow),
    ("AffineE", 6),
    ("ExtAffE", 6),
])
def test_recognize_every_member(kind, k, referee_classes):
    # each member searches on its own: no input or search result is kept
    # between calls, only the per-size catalog table (`mutation._catalog`)
    for M in referee_classes[kind, k].matrices:
        assert mu.recognize_type(M) == f"{kind}({k})"


def test_recognize_relabeled_members(referee_classes):
    rng = random.Random(2006)
    for (kind, k), cls in referee_classes.items():
        for M in rng.sample(cls.matrices, 12):
            assert mu.recognize_type(relabel(M, rng)) == f"{kind}({k})"


def test_recognize_random_matrices_against_class_membership():
    # random trees on 6-8 vertices, with at most one more edge and a rare
    # weight 2, so some are mutation-finite; each answer is checked against
    # plain membership in every complete exceptional class of that size
    classes = {}
    rng = random.Random(67)
    answers = []
    for _ in range(40):
        n = rng.randint(6, 8)
        pairs = [(rng.randrange(j), j) for j in range(1, n)]
        pairs += rng.sample(list(itertools.combinations(range(n), 2)), rng.randint(0, 1))
        B = mu.from_edges(n, [(i, j, rng.choice((1, -1) * 9 + (2, -2))) for i, j in pairs])
        got = mu.recognize_type(B)
        answers.append(got)
        key = mu.canonical_form(B).rows
        for kind, k in mu._candidates(n):
            if (kind, k) not in classes:
                classes[kind, k] = {M.rows for M in mu.mutation_class(mu.make_quiver(kind, k)).matrices}
            assert (key in classes[kind, k]) == (got == f"{kind}({k})"), B.rows
    assert "Unknown" in answers
    assert any(tag.startswith(("E(", "AffineE(", "ExtAffE(")) for tag in answers)


def test_recognize_mutation_infinite_with_small_entries():
    # the tree T(3,3,4) has entries in -1..1, is not a surface, and has the
    # size of E(8), AffineE(7) and ExtAffE(6); eleven mutations reach an
    # entry 3, so it is mutation-infinite
    B = mu._tree_from_arms([2, 2, 3])
    assert B.n == 8 and B.entries_bounded_by(1)
    M = B
    for k in (1, 3, 0, 2, 4, 5, 0, 1, 3, 6, 0):
        M = mu.mutate(M, k)
    assert not M.entries_bounded_by(2)
    assert mu.recognize_type(B) == "Unknown"


def test_recognize_refuses_a_class_beyond_its_size(monkeypatch):
    # with E(6) tabled at one member, a search that must admit more nodes to
    # reach the catalog quiver proves nothing and answers "Unknown"
    B = mu.make_quiver("E", 6)
    far = mu.mutate(mu.mutate(mu.mutate(B, 2), 1), 3)
    assert mu.recognize_type(far) == "E(6)"
    monkeypatch.setitem(mu._CLASS_SIZES, ("E", 6), 1)
    assert mu.recognize_type(B) == "E(6)"
    assert mu.recognize_type(far) == "Unknown"


def test_recognize_drops_candidates_of_another_rank(monkeypatch):
    # T(2,3,7) and T(2,5,5) have rank 10 and ExtAffE(8), the one candidate on
    # 10 vertices, rank 8: no search is needed to answer "Unknown"
    def no_search(*args):
        raise AssertionError("searched")

    monkeypatch.setattr(mu, "explore_exchange", no_search)
    ext = mu.make_quiver("ExtAffE", 8)
    for arms in ([1, 2, 6], [1, 4, 4]):
        B = mu._tree_from_arms(arms)
        assert (B.n, mu.rank(B), mu.rank(ext)) == (10, 10, 8)
        assert mu.recognize_type(B) == "Unknown"
    # a candidate of B's rank is still searched for
    with pytest.raises(AssertionError, match="searched"):
        mu.recognize_type(mu._tree_from_arms([2, 2, 3]))


def test_recognize_builds_the_catalog_once(monkeypatch):
    # the first call at n = 8 builds the candidates' quivers, ranks and forms;
    # a second call that reaches the search builds no catalog quiver
    B = mu._tree_from_arms([2, 2, 3])
    mu._catalog.cache_clear()
    built = []
    make_quiver = mu.make_quiver
    monkeypatch.setattr(mu, "make_quiver", lambda *tag: built.append(tag) or make_quiver(*tag))
    assert mu.recognize_type(B) == "Unknown"
    assert built == [("E", 8), ("AffineE", 7), ("ExtAffE", 6)]
    assert mu.recognize_type(B) == "Unknown"
    assert len(built) == 3


def test_canonical_labeling_reaches_the_form():
    rng = random.Random(17)
    mats = [rand_skew(rng, rng.randint(0, 9), rng.choice((1, 2, 3))) for _ in range(200)]
    mats += [mu.zero_matrix(4), mu.make_quiver("A", 1), mu.make_quiver("Octahedron"), mu.make_quiver("E", 8)]
    for B in mats:
        form, order = mu.canonical_labeling(B)
        assert sorted(order) == list(range(B.n))
        assert form.rows == tuple(tuple(B[i, j] for j in order) for i in order)
        assert form.rows == mu.canonical_form(B).rows == mu.canonical_labeling(relabel(B, rng))[0].rows


def disjoint_union(*parts):
    n = sum(B.n for B in parts)
    rows = [[0] * n for _ in range(n)]
    at = 0
    for B in parts:
        for i, row in enumerate(B.rows):
            rows[at + i][at:at + B.n] = row
        at += B.n
    return mu.ExchangeMatrix.from_rows(rows)


def test_canonical_labeling_pinned():
    # forms and orders recorded with the refinement that ranked every
    # vertex's signature on every pass: each member of three classes mutated
    # at every index and relabeled, highly symmetric matrices on which the
    # search branches deeply, and the smallest sizes
    rng = random.Random(2014)
    battery = []
    for B in (mu.make_quiver("E", 6), mu.make_quiver("E", 7), _b_t0((0, [4], 2))):
        for M in mu.mutation_class(B).matrices:
            battery += [relabel(mu.mutate(M, k), rng) for k in range(M.n)]
    a2 = mu.make_quiver("A", 2)
    cycle = mu.from_edges(3, [(0, 1), (1, 2), (2, 0)])
    battery += [disjoint_union(*[a2] * c) for c in range(1, 6)]
    battery += [disjoint_union(cycle, cycle, cycle), mu._tree_from_arms([2] * 6)]
    battery += [mu.zero_matrix(0), mu.zero_matrix(1), mu.zero_matrix(2), a2]
    assert len(battery) == 4347
    labelings = [[form.rows, order] for form, order in map(mu.canonical_labeling, battery)]
    digest = hashlib.sha256(json.dumps(labelings).encode()).hexdigest()
    assert digest == "f970846f493a947e9b3e4545a270a14dfac22c31c945a539e9303f025866b7be"


def all_moves(M, bound):
    """`mu._mutations` without the one-end rule, as `explore` moves: every
    mutation of every node."""
    for k in range(M.n):
        Mk = mu.mutate(M, k)
        yield mu.canonical_form(Mk) if Mk.entries_bounded_by(bound) else None


def class_search(B, cap, search, moves, key):
    nodes, keys, edges, complete = search(mu.canonical_form(B), moves, key, cap, edges=set())
    return [M.rows for M in nodes], keys, edges, complete


def every_move_exchange(start, moves, key, limit):
    """`explore_exchange` without the one-end rule: plain `explore` over the
    same moves, none skipped."""
    return explore(start, lambda node: (move and move[0] for move in moves(node, ())),
                   lambda node: key(node)[0], limit)


BIG = 31623  # BIG ** 2 is beyond ENTRY_CEILING; mutating the start at 2 cancels it
CLASS_ORACLE_CASES = (
    [("E", (6,), cap) for cap in (1, 10, 66, 10000)]
    + [("D", (5,), cap) for cap in (1, 7, 20, 10000)]
    + [("AffineA", (3, 2), cap) for cap in (1, 9, 40, 10000)]
    + [("Octahedron", (), cap) for cap in (1, 3, 10000)]
)
CLASS_ORACLE_MATRICES = (
    [(mu.make_quiver(kind, *params), cap, f"{kind}{','.join(map(str, params))}-cap{cap}")
     for kind, params, cap in CLASS_ORACLE_CASES]
    + [(mu.from_edges(3, [(0, 1, 3), (1, 2, 3)]), cap, f"triple-edge-cap{cap}") for cap in (20, 60)]
    + [(mu.from_edges(3, [(1, 0, BIG ** 2), (0, 2, BIG), (2, 1, BIG)]), 60, "start-beyond-ceiling")]
)


@pytest.mark.parametrize("B, cap", [c[:2] for c in CLASS_ORACLE_MATRICES], ids=[c[2] for c in CLASS_ORACLE_MATRICES])
def test_one_end_class_search_matches_all_moves_search(B, cap):
    # the same nodes in the same order, keys, edges and completion
    one_end = class_search(B, cap, mu.explore_exchange,
                           lambda M, skip: mu._mutations(M, mu.ENTRY_CEILING, skip), mu._key)
    assert one_end == class_search(B, cap, explore, lambda M: all_moves(M, mu.ENTRY_CEILING), lambda M: M.rows)
    cls = mu.mutation_class(B, cap)
    assert ([M.rows for M in cls.matrices], cls.complete) == (sorted(one_end[0]), one_end[3])


@pytest.mark.parametrize("B, cap", [c[:2] for c in CLASS_ORACLE_MATRICES], ids=[c[2] for c in CLASS_ORACLE_MATRICES])
def test_class_searches_without_edges(B, cap):
    # a collector changes no node, key or completion of the one-end class
    # search or of the all-moves one
    start = mu.canonical_form(B)
    same_without_edges(mu.explore_exchange, start, lambda M, skip: mu._mutations(M, mu.ENTRY_CEILING, skip),
                       mu._key, cap)
    same_without_edges(explore, start, lambda M: all_moves(M, mu.ENTRY_CEILING), lambda M: M.rows, cap)


def test_one_end_search_matches_all_moves_on_random_trees(monkeypatch):
    # random trees on 6-8 vertices with at most one more edge and a rare
    # weight 2: capped classes and recognition answers against the search
    # that makes every mutation
    rng = random.Random(2012)
    trees = []
    for _ in range(60):
        n = rng.randint(6, 8)
        pairs = [(rng.randrange(j), j) for j in range(1, n)]
        pairs += rng.sample(list(itertools.combinations(range(n), 2)), rng.randint(0, 1))
        trees.append(mu.from_edges(n, [(i, j, rng.choice((1, -1) * 9 + (2, -2))) for i, j in pairs]))
    one_end = [(mu.mutation_class(B, 300), mu.recognize_type(B)) for B in trees]
    monkeypatch.setattr(mu, "explore_exchange", every_move_exchange)
    assert one_end == [(mu.mutation_class(B, 300), mu.recognize_type(B)) for B in trees]
    assert {got for _, got in one_end} > {"Unknown"}


def _b_t0(desc):
    from surfcluster import surface as sf, trimap as tm

    return tm.signed_adjacency(tm.initial_triangulation(sf.validate_surface(*desc)))


@pytest.mark.parametrize("search, mutations", [
    (lambda: mu.mutation_class(mu.make_quiver("E", 6)).size, (67, 216)),
    (lambda: mu.mutation_class(_b_t0((0, [4], 2))).size, (146, 611)),
    (lambda: mu.mutation_class(mu.make_quiver("E", 7)).size, (416, 1457)),
    (lambda: mu.recognize_type(mu._tree_from_arms([2, 2, 3])), ("Unknown", 5415)),
], ids=["E6", "(0,[4],2)", "E7", "T(3,3,4)"])
def test_one_end_search_mutation_counts(search, mutations, monkeypatch):
    # the all-moves searches make 402, 1022, 2912 and 9594 mutations
    calls = []
    mutate = mu.mutate
    monkeypatch.setattr(mu, "mutate", lambda B, k: calls.append(k) or mutate(B, k))
    assert (search(), len(calls)) == mutations
