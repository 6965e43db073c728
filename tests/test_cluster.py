import random

import pytest

from surfcluster import cluster as cl, mutation as mu


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


def test_capped_census_is_a_subset():
    d4 = mu.make_quiver("D", 4)
    full = cl.all_cluster_variables(d4, 2000)
    assert full.complete and full.seeds_seen == 50
    for cap in (1, 10, 49):
        census = cl.all_cluster_variables(d4, cap)
        assert not census.complete and census.seeds_seen == cap
        assert set(census.variables) <= set(full.variables)


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
