import random

import pytest

from conftest import same_without_edges
from surfcluster import cluster as cl, mutation as mu
from surfcluster._explore import explore


A2 = mu.ExchangeMatrix.from_rows([[0, 1], [-1, 0]])


def test_laurent_arithmetic():
    x = cl.LaurentPoly.variable(2, 0)
    y = cl.LaurentPoly.variable(2, 1)
    one = cl.LaurentPoly.constant(2, 1)
    p = (x + y) * (x + y)
    assert p.terms[(2, 0)] == 1 and p.terms[(1, 1)] == 2
    assert (p - p).terms == {}
    assert (x ** 3).terms == {(3, 0): 1}
    q = (one + y).div_exact(one + y)
    assert q == one
    with pytest.raises(cl.NonLaurentResult):
        (x + y).div_exact(x + y + one)
    with pytest.raises(cl.ZeroElement):
        cl.LaurentPoly.constant(2, 0).min_exponents()


def test_mixed_variable_counts_raise():
    x2 = cl.LaurentPoly.variable(2, 0)
    x3 = cl.LaurentPoly.variable(3, 2)
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
               lambda a, b: a.div_exact(b)):
        with pytest.raises(ValueError):
            op(x2, x3)
        with pytest.raises(ValueError):
            op(x3, x2)
    with pytest.raises(ValueError):
        cl.LaurentPoly(2, {(1, 2, 3): 1})
    with pytest.raises(ValueError):
        cl.LaurentPoly.monomial(3, (1, 2))


def test_pow_multiplies_only_as_needed(monkeypatch):
    x = cl.LaurentPoly.variable(3, 0)
    y = cl.LaurentPoly.variable(3, 1)
    p = x + y + cl.LaurentPoly.monomial(3, (0, -1, 2), -2)
    products = [cl.LaurentPoly.constant(3, 1)]
    for _ in range(5):
        products.append(products[-1] * p)
    for k, expected in enumerate(products):
        assert p ** k == expected
    calls = []
    mul = cl.LaurentPoly.__mul__
    monkeypatch.setattr(cl.LaurentPoly, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    assert p ** 1 == p
    assert len(calls) <= 1


def test_exponent_range_is_guarded():
    W = cl.EXPONENT_BITS
    top, bottom = 2 ** (W - 1) - 1, -2 ** (W - 1)
    mono = cl.LaurentPoly.monomial
    assert (mono(2, (top, 0)) * mono(2, (0, top))).terms == {(top, top): 1}
    assert (mono(2, (bottom, 3)) * mono(2, (0, bottom))).terms == {(bottom, bottom + 3): 1}
    assert (mono(2, (top, bottom)) + mono(2, (bottom, top))).min_exponents() == (bottom, bottom)
    for a, b in [((top, 0), (1, 0)), ((0, top), (0, 1)), ((5, top), (-5, 1)),
                 ((bottom, 0), (-1, 0)), ((0, bottom), (0, -1)), ((0, bottom), (1, -1))]:
        with pytest.raises(OverflowError):
            mono(2, a) * mono(2, b)
        with pytest.raises(OverflowError):
            mono(2, a).shifted(b)
    with pytest.raises(OverflowError):
        cl.LaurentPoly.variable(1, 0) ** (2 ** W)
    with pytest.raises(OverflowError):
        mono(1, (top + 1,))
    with pytest.raises(OverflowError):
        mono(1, (bottom,)).div_exact(mono(1, (1,)))


def test_div_exact_at_the_edge_of_the_range():
    W = cl.EXPONENT_BITS
    top, bottom = 2 ** (W - 1) - 1, -2 ** (W - 1)
    mono = cl.LaurentPoly.monomial
    one = cl.LaurentPoly.constant(2, 1)
    x0, x1 = cl.LaurentPoly.variable(2, 0), cl.LaurentPoly.variable(2, 1)
    for p, q in [(mono(2, (0, top)), x0 + x1),
                 (mono(2, (bottom, 0)) * (x1 + one), x0 + one),
                 (mono(2, (top, bottom)), mono(2, (bottom, top)) + mono(2, (bottom, top - 1))),
                 (mono(2, (bottom, top)), x1 + one)]:
        with pytest.raises(cl.NonLaurentResult):
            p.div_exact(q)
    assert (mono(2, (top, 0)) * (x1 + one)).div_exact(x1 + one) == mono(2, (top, 0))
    assert mono(2, (top, -1)).div_exact(mono(2, (top - 1, bottom))) == mono(2, (1, top))
    with pytest.raises(OverflowError):
        mono(2, (top, 0)).div_exact(mono(2, (top, bottom)))


def test_div_exact_laurent_shifts():
    x = cl.LaurentPoly.variable(2, 0)
    y = cl.LaurentPoly.variable(2, 1)
    one = cl.LaurentPoly.constant(2, 1)
    z = (one + y).div_exact(x)  # (1 + x1)/x0
    assert z.terms == {(-1, 1): 1, (-1, 0): 1}
    assert z * x == one + y


def test_seed_mutation_a2():
    s = cl.Seed.initial(A2)
    s1 = cl.mutate_seed(s, 0)
    x1 = cl.LaurentPoly.variable(2, 1)
    one = cl.LaurentPoly.constant(2, 1)
    assert s1.cluster[0] == (one + x1).div_exact(cl.LaurentPoly.variable(2, 0))
    s2 = cl.mutate_seed(s1, 0)
    assert s2.cluster == s.cluster and s2.matrix.rows == s.matrix.rows


def test_a2_period_five_up_to_position():
    s = cl.Seed.initial(A2)
    cur = s
    for i in range(5):
        cur = cl.mutate_seed(cur, i % 2)
    assert set(cur.cluster) == set(s.cluster)
    assert cur.cluster != s.cluster
    for i in range(5, 10):
        cur = cl.mutate_seed(cur, i % 2)
    assert cur.cluster == s.cluster


def test_denominator_vectors():
    s = cl.Seed.initial(A2)
    assert cl.denominator_vector(s.cluster[0]) == (-1, 0)
    assert cl.denominator_vector(cl.LaurentPoly.constant(2, 1)) == (0, 0)
    deep = cl.mutate_seed(cl.mutate_seed(s, 0), 1).cluster[1]
    assert cl.denominator_vector(deep) == (1, 1)


@pytest.mark.parametrize("B,total", [
    (A2, 5),
    (mu.make_quiver("A", 3), 9),
    (mu.from_edges(3, [(0, 1), (1, 2), (2, 0)]), 9),   # punctured-triangle matrix
    (mu.make_quiver("D", 4), 16),
])
def test_variable_counts_and_distinct_denominators(B, total):
    census = cl.all_cluster_variables(B, 2000)
    assert census.complete
    assert len(census.variables) == total
    dvecs = {cl.denominator_vector(v) for v in census.variables}
    assert len(dvecs) == total


def test_infinite_type_truncates():
    kron = mu.ExchangeMatrix.from_rows([[0, 2], [-2, 0]])
    census = cl.all_cluster_variables(kron, 20)
    assert not census.complete
    assert len(census.variables) >= 20


@pytest.fixture(scope="module")
def e6_census():
    return cl.all_cluster_variables(mu.make_quiver("E", 6), 2000)


def test_e6_census(e6_census):
    assert e6_census.complete and e6_census.seeds_seen == 833
    assert len(e6_census.variables) == 42
    assert len({cl.denominator_vector(v) for v in e6_census.variables}) == 42


def test_capped_census_is_a_subset(e6_census):
    d4 = mu.make_quiver("D", 4)
    d4_census = cl.all_cluster_variables(d4, 2000)
    assert d4_census.complete and d4_census.seeds_seen == 50
    for B, full, caps in [(d4, d4_census, (1, 10, 49)),
                          (mu.make_quiver("E", 6), e6_census, (1, 100, 832))]:
        for cap in caps:
            census = cl.all_cluster_variables(B, cap)
            assert not census.complete and census.seeds_seen == cap
            assert set(census.variables) <= set(full.variables)


def relabeled(B, seed):
    perm = list(range(B.n))
    random.Random(seed).shuffle(perm)
    return mu.ExchangeMatrix.from_rows([[B.rows[i][j] for j in perm] for i in perm])


# two infinite-type matrices, so every cap truncates
KRONECKER = mu.ExchangeMatrix.from_rows([[0, 2], [-2, 0]])
DOUBLED_PATH = mu.ExchangeMatrix.from_rows([[0, 1, 0], [-1, 0, 2], [0, -2, 0]])


@pytest.mark.parametrize("B", [
    mu.make_quiver("A", 3), mu.make_quiver("D", 4), mu.make_quiver("E", 6),
    relabeled(mu.make_quiver("D", 6), 6), relabeled(mu.make_quiver("A", 7), 7),
    KRONECKER, DOUBLED_PATH,
])
def test_census_without_the_parent_move_keeps_the_search(monkeypatch, B):
    # interning, the exchange memo, the lazy matrix and making each exchange
    # from one end change no admitted seed, its order, its matrix, the edges
    # or the variables
    def every_move(s):
        return (cl.mutate_seed(s, k) for k in range(B.n))

    searches = []
    search = cl.explore_exchange
    monkeypatch.setattr(cl, "explore_exchange", lambda *args: searches.append(search(*args, edges=set())) or searches[-1])
    for cap in {KRONECKER: (5, 12, 20), DOUBLED_PATH: (5, 10, 16)}.get(B, (3, 10, 40, 200, 2000)):
        seeds, _, edges, complete = explore(cl.Seed.initial(B), every_move, cl.Seed.dedup_key, cap, edges=set())
        census = cl.all_cluster_variables(B, cap)
        nodes, _, census_edges, _ = searches[-1]
        assert [m if k is None else mu.mutate(m, k) for _, m, k in nodes] == [s.matrix for s in seeds]
        assert census_edges == edges
        assert (census.seeds_seen, census.complete) == (len(seeds), complete)
        expected = sorted({p for s in seeds for p in s.cluster}, key=cl.LaurentPoly._packed_key)
        assert census.variables == tuple(expected)


@pytest.mark.parametrize("B, cap", [
    (mu.make_quiver("D", 6), 2000), (mu.make_quiver("A", 7), 2000), (KRONECKER, 12),
], ids=["D6", "A7", "Kronecker-cap12"])
def test_census_search_builds_no_edges(monkeypatch, B, cap):
    # the census asks its search for no edges; a collector would change no
    # node, key or completion of that search or of the all-moves one
    def every_move(s):
        return (cl.mutate_seed(s, k) for k in range(B.n))

    searches = []
    search = cl.explore_exchange

    def recorded(*args):
        searches.append((args, search(*args)))
        return searches[-1][1]

    monkeypatch.setattr(cl, "explore_exchange", recorded)
    cl.all_cluster_variables(B, cap)
    (args, (_, _, edges, _)), = searches
    assert edges is None
    same_without_edges(search, *args)
    same_without_edges(explore, cl.Seed.initial(B), every_move, cl.Seed.dedup_key, cap)


@pytest.mark.parametrize("B,divisions,seeds", [
    (mu.make_quiver("D", 6), 324, 672),
    (mu.make_quiver("A", 7), 210, 1430),
])
def test_census_divides_once_per_exchange(monkeypatch, B, divisions, seeds):
    calls = []
    div = cl.LaurentPoly.div_exact
    monkeypatch.setattr(cl.LaurentPoly, "div_exact", lambda p, q: calls.append(1) or div(p, q))
    census = cl.all_cluster_variables(B, 2000)
    assert census.complete and census.seeds_seen == seeds
    assert len(calls) == divisions < seeds


def test_e7_census(monkeypatch):
    calls = []
    div = cl.LaurentPoly.div_exact
    monkeypatch.setattr(cl.LaurentPoly, "div_exact", lambda p, q: calls.append(1) or div(p, q))
    census = cl.all_cluster_variables(mu.make_quiver("E", 7), 5000)
    assert census.complete and census.seeds_seen == 4160 and len(calls) == 1329
    assert len(census.variables) == 70
    assert len({cl.denominator_vector(v) for v in census.variables}) == 70


@pytest.mark.parametrize("B", [mu.make_quiver("A", 3), mu.make_quiver("D", 4),
                               mu.make_quiver("E", 6)])
def test_mutate_seed_is_an_involution(B):
    # the census makes each exchange from one end because of this identity
    rng = random.Random(B.n)
    seed = cl.Seed.initial(B)
    for _ in range(15):
        k = rng.randrange(B.n)
        child = cl.mutate_seed(seed, k)
        back = cl.mutate_seed(child, k)
        assert back.cluster == seed.cluster and back.matrix.rows == seed.matrix.rows
        assert back == seed
        seed = child


def test_tropical_matches_symbolic_along_random_paths():
    rng = random.Random(5)
    for B in [A2, mu.make_quiver("A", 3), mu.from_edges(3, [(0, 1), (1, 2), (2, 0)]),
              mu.make_quiver("D", 4)]:
        n = B.n
        seed = cl.Seed.initial(B)
        D = cl.initial_denominator_vectors(n)
        Bc = B
        for _ in range(12):
            k = rng.randrange(n)
            seed = cl.mutate_seed(seed, k)
            D = cl.tropical_mutate(D, Bc, k)
            Bc = mu.mutate(Bc, k)
            assert Bc.rows == seed.matrix.rows
            for i in range(n):
                assert cl.denominator_vector(seed.cluster[i]) == D[i]


def test_seed_determined_by_cluster():
    # within a finite-type BFS no two distinct seeds share a cluster multiset
    frontier = [cl.Seed.initial(mu.make_quiver("D", 4))]
    seen = {frontier[0].dedup_key(): frontier[0].matrix.rows}
    while frontier:
        nxt = []
        for s in frontier:
            for k in range(4):
                s2 = cl.mutate_seed(s, k)
                key = s2.dedup_key()
                if key not in seen:
                    seen[key] = s2.matrix.rows
                    nxt.append(s2)
                else:
                    prev = seen[key]
                    assert mu.canonical_form(mu.ExchangeMatrix(prev)).rows == \
                        mu.canonical_form(s2.matrix).rows
        frontier = nxt
    assert len(seen) == 50


def test_laurent_arithmetic_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(11)

    def random_poly(nvars):
        terms = {tuple(rng.randint(-3, 3) for _ in range(nvars)): rng.randint(-5, 5)
                 for _ in range(rng.randint(1, 4))}
        return cl.LaurentPoly(nvars, terms) or cl.LaurentPoly.constant(nvars, rng.choice((-1, 1)))

    def expr(p, gens):
        return sympy.Add(*(c * sympy.Mul(*(x ** e for x, e in zip(gens, exp)))
                           for exp, c in p.terms.items()))

    def polynomial(p, gens):
        # x^-min * p, the polynomial the division algorithm works on
        return expr(p.shifted([-e for e in p.min_exponents()]), gens)

    inexact = 0
    for trial in range(120):
        nvars = 1 + trial % 5
        gens = sympy.symbols(f"x0:{nvars}")
        p, q = random_poly(nvars), random_poly(nvars)
        assert p.min_exponents() == tuple(min(e[i] for e in p.terms) for i in range(nvars))
        assert sympy.expand(expr(p + q, gens) - expr(p, gens) - expr(q, gens)) == 0
        assert sympy.expand(expr(p * q, gens) - expr(p, gens) * expr(q, gens)) == 0
        assert (p * q).div_exact(q) == p
        quotient, remainder = sympy.div(polynomial(p, gens), polynomial(q, gens), *gens)
        if remainder != 0 or not all(c.is_integer for c in sympy.Poly(quotient, *gens).coeffs()):
            inexact += remainder != 0
            with pytest.raises(cl.NonLaurentResult):
                p.div_exact(q)
        else:
            assert sympy.expand(expr(p.div_exact(q), gens) * expr(q, gens) - expr(p, gens)) == 0
    assert inexact > 50
