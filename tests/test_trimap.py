import hashlib
import json

import pytest
from conftest import BATTERY

from surfcluster import blocks as bl, mutation as mu, surface as sf, tagged as tg, trimap as tm


def build(desc):
    s = sf.validate_surface(*desc)
    return s, tm.initial_triangulation(s)


def test_pentagon_fan():
    s, T = build((0, [5], 0))
    assert T.num_arcs == 2
    assert len(T.edges) == 3 * 3
    assert not T.fold_map()


def test_once_punctured_triangle_wheel():
    s, T = build((0, [3], 1))
    assert T.num_arcs == 3
    assert len(T.edges) == 3 * 3
    assert dict(tg.tag_with(T).signatures) == {v: 1 for v in T.punctures()}


def test_annulus_11_matrix():
    s, T = build((0, [1, 1], 0))
    assert T.num_arcs == 2
    assert len(T.edges) == 2 * 3
    assert tm.signed_adjacency(T).rows == ((0, 2), (-2, 0))


def test_torus_matrix_up_to_relabeling():
    s, T = build((1, [], 1))
    target = mu.ExchangeMatrix.from_rows([[0, 2, -2], [-2, 0, 2], [2, -2, 0]])
    assert mu.canonical_form(tm.signed_adjacency(T)).rows == mu.canonical_form(target).rows


@pytest.mark.parametrize("desc", [
    (0, [5], 0), (0, [3], 1), (0, [1, 1], 0), (1, [], 1), (0, [], 4),
    (0, [2], 1), (1, [2], 0), (0, [2, 1], 1), (2, [], 1), (0, [1], 2),
])
def test_initial_triangulation_valid_no_self_folded(desc):
    s, T = build(desc)
    assert T.num_arcs == s.rank
    assert not T.fold_map()
    T.validate()


def test_flip_involution_and_arc_count():
    for desc in [(0, [5], 0), (0, [3], 1), (1, [], 1), (0, [], 4)]:
        s, T = build(desc)
        for k in T.arcs():
            if not tm.is_flippable(T, k):
                continue
            T2 = tm.flip(T, k)
            assert T2.num_arcs == T.num_arcs
            T2.validate()
            assert tm.flip(T2, k) == T


def test_fold_not_flippable_loop_is():
    s, T = build((0, [3], 1))
    nodes, _, _ = tm.flip_graph_bfs(T, max_nodes=20)
    folded = next(n for n in nodes if n.fold_map())
    fold, loop = next(iter(folded.enclosed_punctures().values()))
    assert not tm.is_flippable(folded, fold)
    assert tm.is_flippable(folded, loop)
    with pytest.raises(tm.NotFlippable):
        tm.flip(folded, fold)
    with pytest.raises(tm.UnknownArc):
        tm.is_flippable(T, 99)


def test_signature_zero_inside_self_folded():
    s, T = build((0, [3], 1))
    nodes, _, _ = tm.flip_graph_bfs(T, max_nodes=20)
    folded = next(n for n in nodes if n.fold_map())
    sig = dict(tg.tag_with(folded).signatures)
    assert sorted(sig.values()) == [0]


def test_twice_punctured_monogon_signature():
    s, T = build((0, [1], 2))
    nodes, _, _ = tm.flip_graph_bfs(T, max_nodes=60)
    # the nested triangulation has exactly one enclosed puncture
    nested = [n for n in nodes if len(n.fold_map()) == 1]
    assert nested
    assert sorted(dict(tg.tag_with(nested[0]).signatures).values()) == [0, 1]


def test_pentagon_five_cycle():
    s, T = build((0, [5], 0))
    cur = T
    for k in [0, 1, 0, 1, 0]:
        cur = tm.flip(cur, k)
    assert cur.relabel_arcs({0: 1, 1: 0}) == T
    nodes, edges, trunc = tm.flip_graph_bfs(T, max_nodes=100, labeled=False)
    assert len(nodes) == 5 and len(edges) == 5 and not trunc


def test_capped_flip_graph_is_a_prefix():
    s, T = build((0, [3], 1))
    for labeled in (True, False):
        full, _, trunc = tm.flip_graph_bfs(T, max_nodes=1000, labeled=labeled)
        assert not trunc and len(full) > 5
        for cap in (1, 5, len(full) - 1, len(full)):
            nodes, _, trunc = tm.flip_graph_bfs(T, max_nodes=cap, labeled=labeled)
            assert [n.to_json() for n in nodes] == [n.to_json() for n in full[:cap]]
            assert trunc is (cap < len(full))


def test_flip_mutation_commutation(battery_triangulations):
    for desc, (s, nodes) in battery_triangulations.items():
        for T in nodes[:12]:
            B = tm.signed_adjacency(T)
            assert B.entries_bounded_by(2)
            for k in T.arcs():
                if tm.is_flippable(T, k):
                    assert tm.signed_adjacency(tm.flip(T, k)).rows == mu.mutate(B, k).rows


def test_json_roundtrip():
    s, T = build((0, [2, 1], 1))
    T2 = tm.IdealTriangulation.from_json(T.to_json())
    assert T2 == T


def test_exceptional_four_punctured_sphere_reachable():
    # the triangulation gluing three self-folded triangles onto a central one
    s, T = build((0, [], 4))
    nodes, _, trunc = tm.flip_graph_bfs(T, max_nodes=400, labeled=False)
    assert any(len(n.fold_map()) == 3 for n in nodes)


PENTAGON = [((0, 1, 2), (2, 3, 0)), ((0, 2, 3), (0, 4, 1)), ((0, 3, 4), (1, 5, 6))]  # (0,[5],0): 2 arcs
WHEEL = [((0, 1, 2), (3, 0, 1)), ((1, 3, 2), (4, 2, 0)), ((3, 0, 2), (5, 1, 2))]  # (0,[3],1): puncture 2
TETRAHEDRON = [((0, 1, 2), (0, 1, 2)), ((0, 2, 3), (2, 3, 4)), ((0, 3, 1), (4, 5, 0)), ((1, 3, 2), (5, 3, 1))]
ANNULUS = [((0, 1, 1), (0, 4, 1)), ((0, 2, 1), (5, 2, 0)), ((3, 0, 1), (6, 1, 3)), ((2, 3, 1), (7, 3, 2))]  # (0,[3,1],0)


def _with(tris, t, vertices=None, edges=None):
    out = list(tris)
    out[t] = (vertices or tris[t][0], edges or tris[t][1])
    return out


@pytest.mark.parametrize("desc, tris, n, c, flags, match", [
    # the first four disagree with the gluing only in what the JSON states
    ((0, [5], 0), PENTAGON, 3, 5, [False] * 5, "surface rank"),
    ((0, [5], 0), PENTAGON, 2, 4, [False] * 5, "boundary segment count"),
    ((0, [2, 2], 0), ANNULUS, 4, 4, [False] * 4, "the gluing is"),
    ((0, [5], 0), PENTAGON, 2, 5, [True] + [False] * 4, "puncture list"),
    ((0, [5], 0), _with(PENTAGON, 0, edges=(2, 3, -1)), 2, 5, [False] * 5, "edge id -1 out of range"),
    ((0, [5], 0), _with(PENTAGON, 0, edges=(2, 3, 7)), 2, 5, [False] * 5, "edge id 7 out of range"),
    ((0, [5], 0), _with(PENTAGON, 0, vertices=(0, 1, 5)), 2, 5, [False] * 5, "vertex id 5 out of range"),
    ((0, [5], 0), _with(PENTAGON, 1, edges=(1, 4, 1)), 2, 5, [False] * 5, "arc 0 occupies 1 slots"),
    ((0, [5], 0), _with(PENTAGON, 1, edges=(0, 4, 0)), 2, 5, [False] * 5, "arc 0 occupies 3 slots"),
    ((0, [5], 0), _with(PENTAGON, 0, edges=(2, 4, 0)), 2, 5, [False] * 5, "segment 3 occupies 0 slots"),
    ((0, [5], 0), _with(PENTAGON, 1, edges=(0, 3, 1)), 2, 5, [False] * 5, "segment 3 occupies 2 slots"),
    ((0, [5], 0), _with(PENTAGON, 0, (0, 2, 1), (0, 3, 2)), 2, 5, [False] * 5, "opposite directions"),
    # boundary vertex 3 listed as the puncture; the gluing's is 2
    ((0, [3], 1), WHEEL, 3, 3, [False, False, False, True], "puncture list"),
    ((0, [5], 0), _with(PENTAGON, 2, vertices=(0, 3, 3)), 2, 5, [False] * 5, "vertex 4 has no corners"),
    # vertices 0, 1 and 2, 3 merged: the counts of the twice-punctured torus,
    # which has rank 6 too, but each puncture has two cycles
    ((1, [], 2), [([v // 2 for v in vs], es) for vs, es in TETRAHEDRON], 6, 0, [True, True],
     "more than one orbit"),
    ((0, [5], 0), _with(PENTAGON, 0, (0, 1, 2, 0), (2, 3, 0, 2)), 2, 5, [False] * 5, "three vertices"),
    ((0, [5], 0), _with(PENTAGON, 0, (0, 1), (2, 3)), 2, 5, [False] * 5, "three vertices"),
])
def test_validate_rejects(desc, tris, n, c, flags, match):
    # one check per case, each map one edit away from a valid one, read as
    # JSON with n arcs, c boundary segments and the flagged punctures
    data = {"surface": dict(zip(("genus", "boundary", "punctures"), desc)),
            "triangles": [{"v": list(vs), "e": list(es)} for vs, es in tris],
            "arcs": n, "boundary_segments": c, "punctures": [v for v, f in enumerate(flags) if f]}
    with pytest.raises(tm.InvalidTriangulation, match=match):
        tm.IdealTriangulation.from_json(data)


def test_validate_rejection_bases_are_valid():
    for desc, tris, flags in [((0, [5], 0), PENTAGON, [False] * 5),
                              ((0, [3, 1], 0), ANNULUS, [False] * 4),
                              ((0, [3], 1), WHEEL, [False, False, True, False]),
                              ((0, [], 4), TETRAHEDRON, [True] * 4)]:
        s = sf.validate_surface(*desc)
        T = tm.IdealTriangulation(s, [e for _, es in tris for e in es], [v for vs, _ in tris for v in vs])
        assert T == tm.initial_triangulation(s)
        assert T.puncture_flags == tuple(flags)
        assert tm.IdealTriangulation.from_json(T.to_json()) == T


def test_builders_output_pinned():
    # the exact JSON, vertex and edge numbering included, of the initial
    # triangulations and of the surfaces rebuilt from their block
    # decompositions; no other test pins the numbering
    out = []
    for desc in BATTERY:
        T0 = tm.initial_triangulation(sf.validate_surface(*desc))
        _, T1 = bl.surface_from_decomposition(bl.decompose(tm.signed_adjacency(T0)))
        out.append([T0.to_json(), T1.to_json()])
    digest = hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()
    assert digest == "e11600820b8891118e6505ceadf3f5c4320122c8b6683c12ab34f19bc3839f90"


def test_map_outputs_pinned():
    # the exact JSON of every single flip of the initial triangulations, and
    # the JSON and DOT export of a capped tagged search from each
    out = []
    for desc in BATTERY:
        T0 = tm.initial_triangulation(sf.validate_surface(*desc))
        out.append([tm.flip(T0, k).to_json() for k in T0.arcs() if tm.is_flippable(T0, k)])
        G = tg.exchange_graph_bfs(tg.tag_with(T0), max_nodes=60)
        out.append([G.to_json(), G.to_dot()])
    digest = hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()
    assert digest == "a17193c30091c47e243497d5bdad78241cf110457db7555e44af9253802b5004"


def test_constructor_checks_the_boundary():
    # the (0,[3,1],0) annulus triangles stated as the (0,[2,2],0) annulus:
    # the same counts, arcs, vertices and punctures, other boundary components
    edges = [e for _, es in ANNULUS for e in es]
    verts = [v for vs, _ in ANNULUS for v in vs]
    T = tm.IdealTriangulation(sf.validate_surface(0, [3, 1], 0), edges, verts)
    assert T.surface.boundary == (3, 1)
    with pytest.raises(tm.InvalidTriangulation, match=r"the gluing is .*\(3, 1\).*, not .*\(2, 2\)"):
        tm.IdealTriangulation(sf.validate_surface(0, [2, 2], 0), edges, verts)


def test_from_sides_round_trip(battery_triangulations):
    for desc, (s, nodes) in battery_triangulations.items():
        for i, T in enumerate(nodes):
            R = tm._from_sides([T.edges[p:p + 3] for p in range(0, len(T.edges), 3)], T.num_arcs)
            assert R.surface == s and len(R.punctures()) == s.punctures
            assert tm.signed_adjacency(R).rows == tm.signed_adjacency(T).rows
            if i == 0:
                assert R.to_json() == T.to_json()


@pytest.mark.parametrize("sides, n", [
    ([(2, 3, 0), (0, 4, 0), (1, 5, 6)], 2),  # arc 0 fills three slots
    ([(2, 3, 0), (0, 4, 1), (1, 5, 6)], 3),  # arc 2 fills one slot
    ([(2, 3, 0), (0, 4, 1), (1, 5, 5)], 2),  # segment 5 fills two slots
])
def test_from_sides_rejects_slot_counts(sides, n):
    with pytest.raises(tm.InvalidTriangulation, match="two slots"):
        tm._from_sides(sides, n)
