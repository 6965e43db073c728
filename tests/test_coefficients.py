"""The cluster complex does not depend on the coefficients, computed where it
is finite.

Principal coefficients: the extended matrix [B; I] is written as the
skew-symmetric 2n x 2n matrix [[B, -I], [I, 0]] whose last n variables, the
y's, are frozen (never mutated). Matrix mutation at k < n then changes the
columns of [B; I] as extended-matrix mutation does, and the exchange relation
at k runs over all 2n rows, so `cluster.mutate_seed` applies the exchange
relation with principal coefficients. The seed search is `_explore.explore`,
deduplicated by the multiset of the n mutable variables.

For a polygon and a once-punctured polygon, starting from the model's root
matrix, the principal-coefficient census, the coefficient-free census and the
clusters of `finite_models.enumerate_clusters` must have the same numbers of
nodes and edges, and setting y = 1 must map the principal seeds one to one
onto the coefficient-free seeds, edge for edge.

On surfaces of infinite type both censuses run under one cap, and y = 1 must
send principal seed i to coefficient-free seed i, with equal edge lists.
"""

import pytest

from surfcluster import cluster as cl, finite_models as fm, mutation as mu, surface as sf, trimap as tm
from surfcluster._explore import explore


def principal_matrix(B):
    n = B.n
    rows = [list(row) + [-int(i == j) for j in range(n)] for i, row in enumerate(B.rows)]
    rows += [[int(i == j) for j in range(n)] + [0] * n for i in range(n)]
    return mu.ExchangeMatrix.from_rows(rows)


def mutable_key(cluster, n):
    return tuple(sorted(p.key() for p in cluster[:n]))


def at_y_equal_one(p, n):
    """p with its last variables (the y's) set to 1, in the first n."""
    terms = {}
    for exp, c in p.terms.items():
        terms[exp[:n]] = terms.get(exp[:n], 0) + c
    return cl.LaurentPoly(n, terms)


def census(B, n, limit=1000):
    """(seeds, edges, complete) of the seed search over the first n directions."""
    seeds, _, edges, complete = explore(
        cl.Seed.initial(B), lambda s: (cl.mutate_seed(s, k) for k in range(n)),
        lambda s: mutable_key(s.cluster, n), limit, edges=set())
    return seeds, edges, complete


@pytest.mark.parametrize("kind, m, nodes, edges", [
    ("polygon", 6, 14, 21),     # A3
    ("punctured", 4, 50, 100),  # D4
    ("polygon", 8, 132, 330),   # A5
    ("punctured", 5, 182, 455), # D5
])
def test_cluster_complex_does_not_depend_on_coefficients(kind, m, nodes, edges):
    model = fm.Model(kind, m)
    B = fm.root_matrix(model)
    n = B.n
    clusters, cluster_edges = fm.enumerate_clusters(model)
    free_seeds, free_edges, free_complete = census(B, n)
    seeds, principal_edges, complete = census(principal_matrix(B), n)
    assert complete and free_complete
    assert (len(clusters), len(cluster_edges)) == (nodes, edges)
    assert (len(free_seeds), len(free_edges)) == (nodes, edges)
    assert (len(seeds), len(principal_edges)) == (nodes, edges)
    assert any(any(exp[n:]) for s in seeds for p in s.cluster[:n] for exp in p.terms)  # y's occur

    # y = 1 sends principal seed i to coefficient-free seed image[i]
    free_index = {mutable_key(s.cluster, n): j for j, s in enumerate(free_seeds)}
    image = [free_index[mutable_key([at_y_equal_one(p, n) for p in s.cluster[:n]], n)] for s in seeds]
    assert sorted(image) == list(range(nodes))
    assert sorted((min(image[i], image[j]), max(image[i], image[j]))
                  for i, j in principal_edges) == free_edges


# surfaces of infinite type and the census cap; the annulus (0,[2,1],0) is
# left out, as its variables grow along the Dehn twist (200 seeds take minutes)
@pytest.mark.parametrize("desc, cap", [
    ((0, [2, 1], 1), 200), ((0, [1, 1, 1], 0), 200), ((0, [2], 2), 200),
    ((1, [1], 0), 150), ((0, [], 4), 150),
], ids=lambda v: str(v).replace(" ", ""))
def test_capped_census_does_not_depend_on_coefficients(desc, cap):
    B = tm.signed_adjacency(tm.initial_triangulation(sf.validate_surface(*desc)))
    n = B.n
    free_seeds, free_edges, free_complete = census(B, n, cap)
    seeds, principal_edges, complete = census(principal_matrix(B), n, cap)
    assert not complete and not free_complete
    assert len(seeds) == len(free_seeds) == cap
    assert any(any(exp[n:]) for s in seeds for p in s.cluster[:n] for exp in p.terms)  # y's occur
    assert [mutable_key([at_y_equal_one(p, n) for p in s.cluster[:n]], n) for s in seeds] == \
        [mutable_key(s.cluster, n) for s in free_seeds]
    assert principal_edges == free_edges
