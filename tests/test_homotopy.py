"""The homotopy type of the cluster complex, computed where it is finite.

The faces of the cluster complex of a polygon or a once-punctured polygon are
the subsets of its clusters (`finite_models.enumerate_clusters`). Reduced
Betti numbers come from the ranks of the simplicial boundary matrices over
GF(2^31 - 1), the empty face included, and must be those of the sphere
S^(n-1) that `surface.classify` names, n being the rank.

Not checked: every other surface has infinitely many tagged arcs, so its
complex is not computed here. There the paper's theorem (a closed surface
with p punctures gives S^(p-1), any other surface a contractible complex)
stays stated, as `surface.classify` states it.
"""

import itertools

import pytest

from surfcluster import finite_models as fm, surface as sf

P = 2 ** 31 - 1


def faces_by_dimension(model):
    """Every face of every cluster as a sorted tuple of arc indices, grouped
    by dimension; index 0 holds the empty face (dimension -1)."""
    arcs = {a: i for i, a in enumerate(fm.enumerate_tagged_arcs(model))}
    clusters, _ = fm.enumerate_clusters(model)
    faces = set()
    for cluster in clusters:
        vertices = sorted(arcs[a] for a in cluster)
        for r in range(len(vertices) + 1):
            faces.update(itertools.combinations(vertices, r))
    levels = [[] for _ in range(model.rank + 1)]
    for face in faces:
        levels[len(face)].append(face)
    return [sorted(level) for level in levels]


def rank_mod_p(rows):
    """Rank over GF(P) of sparse rows {column: value}, by elimination on the
    least column."""
    pivots = {}
    for row in rows:
        row = {c: v % P for c, v in row.items() if v % P}
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                inv = pow(row[col], P - 2, P)
                pivots[col] = {c: v * inv % P for c, v in row.items()}
                break
            f = row[col]
            for c, v in pivot.items():
                x = (row.get(c, 0) - f * v) % P
                if x:
                    row[c] = x
                else:
                    del row[c]
    return len(pivots)


def reduced_betti(levels):
    """Reduced Betti numbers of dimensions -1 .. len(levels) - 2."""
    index = [{face: j for j, face in enumerate(level)} for level in levels]
    # ranks[d]: rank of the boundary from the faces with d + 1 vertices
    ranks = [0]
    for d in range(1, len(levels)):
        ranks.append(rank_mod_p(
            {index[d - 1][face[:i] + face[i + 1:]]: (-1) ** i for i in range(d)}
            for face in levels[d]))
    ranks.append(0)
    return [len(levels[d]) - ranks[d] - ranks[d + 1] for d in range(len(levels))]


def test_rank_mod_p_small_cases():
    assert rank_mod_p([]) == 0
    assert rank_mod_p([{0: 1, 1: 1}, {0: 2, 1: 2}, {1: P}]) == 1
    assert rank_mod_p([{0: 1, 1: -1}, {1: 1, 2: -1}, {0: 1, 2: -1}]) == 2


def test_reduced_betti_of_small_complexes():
    # the boundary of a triangle is S^1; the full triangle is contractible
    circle = [[()], [(0,), (1,), (2,)], [(0, 1), (0, 2), (1, 2)]]
    assert reduced_betti(circle) == [0, 0, 1]
    assert reduced_betti(circle + [[(0, 1, 2)]]) == [0, 0, 0, 0]
    # two points: S^0
    assert reduced_betti([[()], [(0,), (1,)]]) == [0, 1]


@pytest.mark.parametrize("kind, m", [
    *[("polygon", m) for m in range(4, 10)],    # A1 .. A6
    *[("punctured", m) for m in range(3, 7)],   # D3 .. D6
])
def test_finite_cluster_complex_is_a_sphere(kind, m):
    model = fm.Model(kind, m)
    descriptor = (0, [m], 0 if kind == "polygon" else 1)
    n = model.rank
    levels = faces_by_dimension(model)
    assert len(levels[1]) == len(fm.enumerate_tagged_arcs(model))  # every arc is a vertex
    expected = [0] * (n + 1)
    expected[n] = 1  # reduced homology of S^(n-1), listed from dimension -1
    assert reduced_betti(levels) == expected
    assert sf.classify(sf.validate_surface(*descriptor)).homotopy == sf.Homotopy("sphere", n - 1)
