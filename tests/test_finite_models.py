import hashlib
import json

import pytest

from surfcluster import finite_models as fm


P5 = fm.Model("polygon", 5)
P6 = fm.Model("polygon", 6)
PP3 = fm.Model("punctured", 3)
PP4 = fm.Model("punctured", 4)


def test_model_bounds():
    with pytest.raises(fm.ExcludedModel):
        fm.Model("polygon", 3)
    with pytest.raises(fm.ExcludedModel):
        fm.Model("punctured", 2)
    with pytest.raises(fm.ExcludedModel):
        fm.Model("torus", 3)


@pytest.mark.parametrize("model,count", [
    (P6, 9),            # n(n+3)/2, n = 3
    (PP3, 9),           # n^2 with n = 3: 3 chords + 6 tagged radii
    (PP4, 16),
    (fm.Model("polygon", 7), 14),
    (fm.Model("punctured", 5), 25),
])
def test_arc_counts(model, count):
    arcs = fm.enumerate_tagged_arcs(model)
    assert len(arcs) == count
    assert len(set(arcs)) == count


def test_punctured_triangle_arc_split():
    arcs = fm.enumerate_tagged_arcs(PP3)
    radii = [a for a in arcs if a.kind == "radius"]
    chords = [a for a in arcs if a.kind == "chord"]
    assert len(radii) == 6 and len(chords) == 3


def test_chord_validity_rules():
    with pytest.raises(ValueError):
        fm.chord(P6, 0, 1)  # adjacent in an unpunctured polygon
    # adjacent endpoints in the punctured model: puncture on the short side only
    c = fm.chord(PP4, 0, 1, fm.CCW)
    assert c.side == fm.CCW
    with pytest.raises(ValueError):
        fm.chord(PP4, 0, 1, fm.CW)
    with pytest.raises(ValueError):
        fm.chord(P6, 2, 2)


def test_compatibility_examples():
    r1p = fm.radius(PP4, 1, fm.PLAIN)
    r1n = fm.radius(PP4, 1, fm.NOTCHED)
    r2n = fm.radius(PP4, 2, fm.NOTCHED)
    assert fm.compatible(r1p, r1n)
    assert not fm.compatible(r1p, r2n)
    assert fm.compatible(r1n, r2n)
    a = fm.chord(P6, 0, 2)
    b = fm.chord(P6, 1, 3)
    assert not fm.compatible(a, b)
    assert fm.compatible(a, fm.chord(P6, 0, 3))


def test_intersection_examples():
    r1p = fm.radius(PP4, 1, fm.PLAIN)
    r1n = fm.radius(PP4, 1, fm.NOTCHED)
    assert fm.intersection_number(r1p, r1p) == -1
    assert fm.intersection_number(r1p, r1n) == 0
    assert fm.intersection_number(fm.chord(P6, 0, 2), fm.chord(P6, 1, 3)) == 1
    assert fm.intersection_number(fm.chord(P6, 0, 2), fm.chord(P6, 1, 4)) == 1
    assert fm.intersection_number(fm.chord(P6, 0, 2), fm.chord(P6, 3, 5)) == 0


def test_intersection_symmetric_and_nonnegative_off_diagonal():
    for model in [P6, PP3, PP4]:
        arcs = fm.enumerate_tagged_arcs(model)
        for a in arcs:
            for b in arcs:
                v = fm.intersection_number(a, b)
                assert v == fm.intersection_number(b, a)
                if a != b:
                    assert v >= 0
                else:
                    assert v == -1


def test_zero_intersection_vs_compatibility():
    # (a|b) = 0 with distinct untagged versions forces compatibility here
    for model in [PP3, PP4]:
        arcs = fm.enumerate_tagged_arcs(model)
        for a in arcs:
            for b in arcs:
                if a != b and fm.intersection_number(a, b) == 0:
                    assert fm.compatible(a, b)
                if fm.compatible(a, b) and a != b:
                    assert fm.intersection_number(a, b) == 0


@pytest.mark.parametrize("model,count,degree", [
    (P5, 5, 2),
    (P6, 14, 3),
    (PP3, 14, 3),
    (PP4, 50, 4),
])
def test_cluster_counts(model, count, degree):
    clusters, edges = fm.enumerate_clusters(model)
    assert len(clusters) == count
    assert all(len(c) == model.rank for c in clusters)
    degs = {}
    for i, j in edges:
        degs[i] = degs.get(i, 0) + 1
        degs[j] = degs.get(j, 0) + 1
    assert set(degs.values()) == {degree}
    # connected dual graph
    adj = {}
    for i, j in edges:
        adj.setdefault(i, set()).add(j)
        adj.setdefault(j, set()).add(i)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    assert len(seen) == len(clusters)


def test_purity_all_maximal_sets_have_rank_size():
    import networkx as nx

    for model in [P5, P6, PP3, PP4]:
        arcs = fm.enumerate_tagged_arcs(model)
        G = nx.Graph()
        G.add_nodes_from(range(len(arcs)))
        for i, a in enumerate(arcs):
            for j in range(i + 1, len(arcs)):
                if fm.compatible(a, arcs[j]):
                    G.add_edge(i, j)
        sizes = {len(c) for c in nx.find_cliques(G)}
        assert sizes == {model.rank}


def test_flag_property_matches_tagged_graph():
    import networkx as nx

    from surfcluster import surface as sf, tagged as tg, trimap as tm

    for model, desc in [(P5, (0, [5], 0)), (PP3, (0, [3], 1)), (P6, (0, [6], 0))]:
        clusters, edges = fm.enumerate_clusters(model)
        G1 = nx.Graph(list(edges))
        G1.add_nodes_from(range(len(clusters)))
        s = sf.validate_surface(*desc)
        flips = tg.exchange_graph_bfs(tg.tag_with(tm.initial_triangulation(s)), max_nodes=200)
        G2 = nx.Graph([tuple(e) for e in flips.edges])
        G2.add_nodes_from(range(len(flips.nodes)))
        assert nx.is_isomorphic(G1, G2)


@pytest.mark.parametrize("model, desc, num_nodes, num_edges", [
    (PP4, (0, [4], 1), 50, 100),
    (fm.Model("punctured", 5), (0, [5], 1), 182, 455),
    (fm.Model("polygon", 7), (0, [7], 0), 42, 84),
    (fm.Model("polygon", 8), (0, [8], 0), 132, 330),
])
def test_tagged_graph_counts_match_model(model, desc, num_nodes, num_edges):
    # the exchange graph is the dual graph of the tagged arc complex; the
    # punctured cases flip through signature-0 punctures
    from surfcluster import surface as sf, tagged as tg, trimap as tm

    clusters, edges = fm.enumerate_clusters(model)
    assert (len(clusters), len(edges)) == (num_nodes, num_edges)
    s = sf.validate_surface(*desc)
    flips = tg.exchange_graph_bfs(tg.tag_with(tm.initial_triangulation(s)), max_nodes=1000)
    assert (len(flips.nodes), len(flips.edges), flips.truncated) == (num_nodes, num_edges, False)


def test_root_cluster_is_a_cluster():
    for model in [P5, P6, PP3, PP4]:
        clusters, _ = fm.enumerate_clusters(model)
        root = tuple(sorted(fm.root_cluster(model)))
        assert root in clusters


def test_exchange_matrices_pinned():
    # every cluster's arc order and matrix, in propagation order; the root
    # cluster is already sorted, so its order is the root matrix's
    models = [fm.Model("polygon", m) for m in range(4, 10)] + [fm.Model("punctured", m) for m in range(3, 7)]
    out = []
    for model in models:
        root = fm.root_cluster(model)
        assert root == tuple(sorted(root))
        labeled = fm.exchange_matrices(model)
        assert next(iter(labeled.items())) == (root, (root, fm.root_matrix(model)))
        out.append([[[str(a) for a in cl], [str(a) for a in order], [list(r) for r in B.rows]]
                    for cl, (order, B) in labeled.items()])
    digest = hashlib.sha256(json.dumps(out).encode()).hexdigest()
    assert digest == "5b88d255989dd4f8168bfd02d89be83a7acfe86bd4cfd6746f0baf6dd83d6698"


def test_exchange_matrices_asserts(monkeypatch):
    clusters, edges = fm.enumerate_clusters(P5)
    with pytest.raises(AssertionError, match="flip graph is not connected"):
        fm.exchange_matrices(P5, clusters, edges[:1])
    mutate, calls = fm.mutate, []

    def flaky_mutate(B, k):  # negates every second result
        calls.append(k)
        M = mutate(B, k)
        return M if len(calls) % 2 else fm.ExchangeMatrix.from_rows([[-x for x in row] for row in M.rows])

    monkeypatch.setattr(fm, "mutate", flaky_mutate)
    with pytest.raises(AssertionError, match="path-dependent"):
        fm.exchange_matrices(P5, clusters, edges)


def test_arc_json_roundtrip():
    for arc in fm.enumerate_tagged_arcs(PP4):
        assert fm.ModelArc.from_json(arc.to_json()) == arc
