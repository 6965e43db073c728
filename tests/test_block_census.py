"""Census oracle for the block criterion.

By Fomin-Shapiro-Thurston the signed adjacency matrices of the tagged
triangulations of a surface S form one mutation class, so the surface
matrices of size n are the union of the mutation classes of B(T0(S)) over
the finitely many S with 6g + 3b + 3p + c - 6 = n. The census below is built
from surfaces, initial triangulations and mutation alone; `blocks.decompose`
is only the function under test.
"""

import itertools

import pytest

from surfcluster import mutation as mu, surface as sf, trimap as tm
from surfcluster.blocks import decompose


def _parts(total, count, largest):
    """Non-increasing tuples of `count` positive integers summing to `total`."""
    if count == 0:
        if total == 0:
            yield ()
        return
    for first in range(min(total - count + 1, largest), 0, -1):
        for rest in _parts(total - first, count - 1, first):
            yield (first,) + rest


def surfaces_of_rank(n):
    found = []
    for g in range(n // 6 + 2):
        for b in range((n + 6) // 3 + 1):
            for p in range((n + 6) // 3 + 1):
                c = n + 6 - 6 * g - 3 * b - 3 * p
                if c < b or (b == 0 and c != 0):
                    continue
                for boundary in _parts(c, b, c):
                    try:
                        found.append(sf.validate_surface(g, boundary, p))
                    except (sf.ExcludedSurface, sf.EmptyMarking):
                        pass
    return found


def census(n):
    forms = set()
    for s in surfaces_of_rank(n):
        cls = mu.mutation_class(tm.signed_adjacency(tm.initial_triangulation(s)))
        assert cls.complete, s
        forms.update(cls.matrices)
    return forms


def canonical_forms(n, values):
    """One canonical form per relabeling orbit of the skew-symmetric n x n
    matrices with entries above the diagonal drawn from `values`."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    perms = list(itertools.permutations(range(n)))
    seen = set()
    forms = []
    for upper in itertools.product(values, repeat=len(pairs)):
        if upper in seen:
            continue
        rows = [[0] * n for _ in range(n)]
        for (i, j), x in zip(pairs, upper):
            rows[i][j], rows[j][i] = x, -x
        seen.update(tuple(rows[p[i]][p[j]] for i, j in pairs) for p in perms)
        forms.append(mu.canonical_form(mu.ExchangeMatrix.from_rows(rows)))
    return forms


def test_surface_enumeration_small_ranks():
    assert sorted((s.genus, s.boundary, s.punctures) for s in surfaces_of_rank(1)) == [(0, (4,), 0)]
    assert sorted((s.genus, s.boundary, s.punctures) for s in surfaces_of_rank(2)) == [
        (0, (1, 1), 0), (0, (2,), 1), (0, (5,), 0)]
    assert sf.validate_surface(1, [], 1) in surfaces_of_rank(3)  # the once-punctured torus


# 1,306 orbits in all, 114 of them surface matrices; the 16 census members at
# n = 5 with an entry +-2 are checked by the positive test below
@pytest.mark.parametrize("n, values, forms, surface_forms", [
    (1, range(-2, 3), 1, 1),
    (2, range(-2, 3), 3, 3),
    (3, range(-2, 3), 25, 7),
    (4, range(-2, 3), 695, 22),
    (5, (-1, 0, 1), 582, 81),
])
def test_block_criterion_matches_census(n, values, forms, surface_forms):
    surface_matrices = census(n)
    candidates = canonical_forms(n, values)
    assert len(candidates) == forms
    disagree = [C.rows for C in candidates if (decompose(C) is not None) != (C in surface_matrices)]
    assert disagree == []
    assert sum(C in surface_matrices for C in candidates) == surface_forms


@pytest.mark.parametrize("n, size", [(1, 1), (2, 3), (3, 7), (4, 22), (5, 97), (6, 356), (7, 1342)])
def test_every_census_matrix_decomposes(n, size):
    surface_matrices = census(n)
    assert len(surface_matrices) == size
    assert [C.rows for C in surface_matrices if decompose(C) is None] == []
