import itertools
import random

import pytest

from conftest import BATTERY, same_without_edges
from surfcluster import cluster as cl, mutation as mu, surface as sf, tagged as tg, trimap as tm
from surfcluster._explore import explore


def start(desc):
    s = sf.validate_surface(*desc)
    return tg.tag_with(tm.initial_triangulation(s))


def graph(desc, max_nodes=200):
    return tg.exchange_graph_bfs(start(desc), max_nodes=max_nodes)


def degrees(G):
    d = {}
    for i, j in G.edges:
        d[i] = d.get(i, 0) + 1
        d[j] = d.get(j, 0) + 1
    return d


def test_digon_four_cycle():
    G = graph((0, [2], 1))
    assert len(G.nodes) == 4 and not G.truncated
    assert set(degrees(G).values()) == {2}
    assert len(G.edges) == 4


def test_punctured_triangle_fourteen():
    G = graph((0, [3], 1))
    assert len(G.nodes) == 14 and not G.truncated
    assert set(degrees(G).values()) == {3}


def test_tag_with_eps_toggles():
    s = sf.validate_surface(0, [2], 1)
    T0 = tm.initial_triangulation(s)
    (a,) = T0.punctures()
    plain = tg.tag_with(T0)
    notched = tg.tag_with(T0, {a: -1})
    assert plain.base == notched.base
    assert plain.sig(a) == 1 and notched.sig(a) == -1


def test_tag_untag_roundtrip():
    G = graph((0, [3], 1))
    for node in G.nodes:
        opts = [(v, [1, -1] if s == 0 else [s]) for v, s in node.signatures]
        for combo in itertools.product(*[o[1] for o in opts]):
            signs = {opts[i][0]: combo[i] for i in range(len(opts))}
            back = tg.tag_with(node.base, signs)
            assert back.base == node.base and back.signatures == node.signatures


def test_untag_b_matrix_consistent():
    G = graph((0, [3], 1))
    for node in G.nodes:
        assert tg.b_matrix(node).rows == tm.signed_adjacency(node.base).rows


def test_tagged_flip_involution():
    # exact on representations, labels and signatures included: the one-end
    # rule of exchange_graph_bfs rests on this
    for desc, cap in [((0, [2], 1), 40), ((0, [3], 1), 40), ((1, [], 1), 40), ((0, [6], 1), 700),
                      ((0, [], 4), 300), ((0, [], 5), 300), ((1, [], 2), 300), ((0, [1], 2), 300),
                      ((0, [1, 1], 1), 300), ((1, [1], 1), 300)]:
        G = graph(desc, max_nodes=cap)
        signs = {s for T in G.nodes for _, s in T.signatures}
        assert signs == ({1} if desc == (1, [], 1) else {-1, 0, 1})
        for node in G.nodes:
            for k in range(node.num_arcs):
                T2 = tg.tagged_flip(node, k)
                T3 = tg.tagged_flip(T2, k)
                assert T3.base == node.base and T3.signatures == node.signatures
                assert not (T2.base == node.base and T2.signatures == node.signatures)


def test_tagged_flip_unknown_arc():
    T = start((0, [2], 1))
    with pytest.raises(tg.ArcNotPresent):
        tg.tagged_flip(T, 5)


def test_fold_reader_on_every_rotation():
    # outside JSON may state a self-folded triangle at any rotation, so its
    # fold can fill slots 0 and 1, 1 and 2, or 2 and 0
    folded = [T for T in graph((0, [2], 2)).nodes if T.base.fold_map()]
    assert folded
    for T in folded:
        data = T.base.to_json()
        for t, tri in enumerate(data["triangles"]):
            if len(set(tri["e"])) == 3:
                continue
            for r in (1, 2):
                turned = dict(data, triangles=list(data["triangles"]))
                turned["triangles"][t] = {"v": tri["v"][r:] + tri["v"][:r], "e": tri["e"][r:] + tri["e"][:r]}
                R = tg.TaggedTriangulation(tm.IdealTriangulation.from_json(turned), T.signatures)
                assert R.base.fold_map() == T.base.fold_map()
                assert R.base.enclosed_punctures() == T.base.enclosed_punctures()
                assert tg.b_matrix(R).rows == tg.b_matrix(T).rows
                assert tg.canonical_key(R) == tg.canonical_key(T)
                for k in range(T.num_arcs):
                    assert tg.canonical_key(tg.tagged_flip(R, k)) == tg.canonical_key(tg.tagged_flip(T, k))


def test_b_matrix_commutation():
    for desc in [(0, [2], 1), (0, [3], 1), (0, [1], 2), (0, [2, 1], 1)]:
        G = graph(desc, max_nodes=30)
        for node in G.nodes:
            B = tg.b_matrix(node)
            for k in range(node.num_arcs):
                assert tg.b_matrix(tg.tagged_flip(node, k)).rows == mu.mutate(B, k).rows


def test_signature_changes_through_zero_only():
    for desc in [(0, [3], 1), (0, [1], 2), (0, [], 4)]:
        G = graph(desc, max_nodes=50)
        for node in G.nodes:
            for k in range(node.num_arcs):
                T2 = tg.tagged_flip(node, k)
                for v, s1 in node.signatures:
                    assert s1 * T2.sig(v) >= 0


def test_r2_cycles():
    checked = 0
    for desc in [(0, [3], 1), (0, [2], 1), (0, [1, 1], 0), (0, [], 4)]:
        G = graph(desc, max_nodes=20)
        for node in G.nodes:
            B = tg.b_matrix(node)
            n = node.num_arcs
            for i in range(n):
                for j in range(i + 1, n):
                    if abs(B[i, j]) > 1:
                        continue
                    length = 4 if B[i, j] == 0 else 5
                    cur = node
                    for k in ([i, j] * 3)[:length]:
                        cur = tg.tagged_flip(cur, k)
                    if length == 5:
                        cur = tg.TaggedTriangulation(cur.base.relabel_arcs({i: j, j: i}), cur.signatures)
                    assert cur.base == node.base and cur.signatures == node.signatures
                    checked += 1
    assert checked >= 200


def test_torus_two_components():
    s = sf.validate_surface(1, [], 1)
    T0 = tm.initial_triangulation(s)
    G = tg.exchange_graph_bfs(tg.tag_with(T0), max_nodes=500)
    assert not G.truncated
    assert all(sig == 1 for node in G.nodes for _, sig in node.signatures)
    (a,) = T0.punctures()
    Gn = tg.exchange_graph_bfs(tg.tag_with(T0, {a: -1}), max_nodes=500)
    assert all(sig == -1 for node in Gn.nodes for _, sig in node.signatures)
    assert len(Gn.nodes) == len(G.nodes)


def test_flips_keep_the_punctures(battery_triangulations):
    # flips keep every vertex, so each node's punctures, which the link walk
    # derives, are those of its start
    for s, nodes in battery_triangulations.values():
        assert all(T.punctures() == nodes[0].punctures() for T in nodes)
    T0 = tm.initial_triangulation(sf.validate_surface(0, [1], 3))
    G = tg.exchange_graph_bfs(tg.tag_with(T0, {v: -1 for v in T0.punctures()[:2]}), max_nodes=300)
    assert {sig for T in G.nodes for _, sig in T.signatures} == {-1, 0, 1}
    for T in G.nodes:
        assert T.base.punctures() == T0.punctures() == [v for v, _ in T.signatures]


def test_twice_punctured_monogon_all_strata():
    G = graph((0, [1], 2), max_nodes=400)
    assert not G.truncated
    strata = {tuple(sorted(s for _, s in node.signatures)) for node in G.nodes}
    assert strata == {(-1, -1), (-1, 0), (-1, 1), (0, 0), (0, 1), (1, 1)}


def test_bfs_truncation_flag():
    G = graph((0, [4], 1), max_nodes=5)
    assert G.truncated and len(G.nodes) == 5


def test_graph_exports():
    G = graph((0, [2], 1))
    data = G.to_json()
    assert data["truncated"] is False
    assert len(data["vertices"]) == 4
    assert sorted(tuple(e) for e in data["edges"]) == list(G.edges)
    dot = G.to_dot()
    assert dot.startswith("graph") and dot.count("--") == 4


def test_capped_bfs_is_a_prefix():
    full = graph((0, [3], 1))
    for cap in (1, 5, 13, 14):
        G = graph((0, [3], 1), max_nodes=cap)
        assert [tg.canonical_key(T) for T in G.nodes] == \
            [tg.canonical_key(T) for T in full.nodes[:cap]]
        assert G.truncated is (cap < 14)


@pytest.mark.parametrize("desc", [(0, [3], 1), (0, [2], 2), (0, [1, 1], 1), (1, [], 2), (0, [], 4)])
def test_key_equality_is_arc_relabeling(desc):
    # brute force over all arc permutations: keys agree exactly when one
    # triangulation is an arc relabeling of the other (boundary start on the
    # bordered surfaces, vertex-0 corners on the closed ones)
    s = sf.validate_surface(*desc)
    T0 = tm.initial_triangulation(s)
    perms = list(itertools.permutations(range(s.rank)))
    rng = random.Random(0)

    def relabeled(M, perm):
        return M.relabel_arcs(dict(enumerate(perm)))

    def shuffled(M, perm):
        # the same relabeling stored with triangles reordered and rotated
        R = relabeled(M, perm)
        tris = []
        for p in range(0, len(R.edges), 3):
            r = rng.randrange(3)
            tris.append((R.edges[p + r:p + 3] + R.edges[p:p + r], R.verts[p + r:p + 3] + R.verts[p:p + r]))
        rng.shuffle(tris)
        return tm.IdealTriangulation(M.surface, [e for es, _ in tris for e in es],
                                     [v for _, vs in tris for v in vs])

    def table_key(M, extra=()):
        return tm._table_key(M.edges, M.verts, M.num_arcs, M.num_boundary, extra)

    def check(nodes, key, parts, form, relabel):
        # the pool holds every node and one random relabeling of it, so both
        # outcomes of the comparison occur
        orbits = [{form(T, p) for p in perms} for T in nodes] * 2
        pool = nodes + [relabel(T, rng.choice(perms)) for T in nodes]
        numbered = [table_key(*parts(T)) for T in pool]
        assert [k for k, _ in numbered] == [key(T) for T in pool]
        identity = range(s.rank)
        for i, T in enumerate(pool):
            for j, U in enumerate(pool):
                equal = numbered[i][0] == numbered[j][0]
                assert equal is (form(U, identity) in orbits[i])
                if equal:  # the arcs numbered alike match T onto U
                    arc_of = {m: a for a, m in enumerate(numbered[j][1])}
                    assert form(T, [arc_of[numbered[i][1][a]] for a in identity]) == form(U, identity)

    cap = 10 if s.rank == 6 else 30
    labeled, _, _ = tm.flip_graph_bfs(T0, max_nodes=cap)
    check(labeled, tm.canonical_key, lambda M: (M,), lambda T, p: relabeled(T, p).normal_form(), shuffled)

    tagged = list(tg.exchange_graph_bfs(tg.tag_with(T0), max_nodes=cap).nodes)
    check(tagged, tg.canonical_key, lambda T: (T.base, T.signatures),
          lambda T, p: (relabeled(T.base, p).normal_form(), T.signatures),
          lambda T, p: tg.TaggedTriangulation(shuffled(T.base, p), T.signatures))


def test_tagged_flip_validates_once(monkeypatch):
    G = graph((0, [1], 2))
    assert {s for T in G.nodes for _, s in T.signatures} == {-1, 0, 1}
    calls = []
    validate = tm.IdealTriangulation.validate
    monkeypatch.setattr(tm.IdealTriangulation, "validate", lambda self: calls.append(1) or validate(self))
    for T in G.nodes:
        for k in range(T.num_arcs):
            before = len(calls)
            tg.tagged_flip(T, k)
            assert len(calls) == before + 1


def test_export_reuses_search_keys(monkeypatch):
    G = graph((0, [1], 2))
    expected = [repr(tg.canonical_key(T)) for T in G.nodes]

    def no_key(*args, **kwargs):
        raise AssertionError("to_json recomputed a canonical key")

    monkeypatch.setattr(tm, "canonical_key", no_key)
    assert G.to_json()["vertices"] == expected


def all_moves_search(T0, cap):
    """The tagged search without the one-end rule: every flip of every node."""
    def moves(T):
        return (tg.tagged_flip(T, k) for k in range(T.num_arcs))

    nodes, keys, edges, complete = explore(T0, moves, tg.canonical_key, cap, edges=set())
    return nodes, keys, edges, not complete


def walked(desc, seed):
    # the start moved by a seeded walk of 2 * rank tagged flips
    T = start(desc)
    rng = random.Random(seed)
    for _ in range(2 * T.num_arcs):
        T = tg.tagged_flip(T, rng.randrange(T.num_arcs))
    return T


def name(desc):
    return str(desc).replace(" ", "")


ORACLE_CASES = (
    [(start(desc), 60, name(desc)) for desc in BATTERY]
    + [(start(desc), cap, f"{name(desc)}-full") for desc, cap in [((0, [6], 1), 1000), ((0, [], 5), 600),
                                                                   ((1, [], 2), 1000)]]
    + [(walked(desc, 7), cap, f"{name(desc)}-walked") for desc, cap in [((0, [6], 1), 1000), ((0, [], 5), 600),
                                                                         ((1, [], 2), 1000)]]
    + [(start((0, [3], 1)), cap, f"(0,[3],1)-cap{cap}") for cap in (1, 5, 13, 14)]
)


@pytest.mark.parametrize("T0, cap", [c[:2] for c in ORACLE_CASES], ids=[c[2] for c in ORACLE_CASES])
def test_one_end_search_matches_all_moves_search(T0, cap):
    nodes, keys, edges, truncated = all_moves_search(T0, cap)
    G = tg.exchange_graph_bfs(T0, max_nodes=cap)
    assert [(T.base.normal_form(), T.signatures) for T in G.nodes] == \
        [(T.base.normal_form(), T.signatures) for T in nodes]
    assert list(G.keys) == keys
    assert list(G.edges) == edges
    assert G.truncated is truncated


@pytest.mark.parametrize("T0, cap", [c[:2] for c in ORACLE_CASES], ids=[c[2] for c in ORACLE_CASES])
def test_tagged_searches_without_edges(T0, cap, monkeypatch):
    # the search of `exchange_graph_bfs`, captured, and the all-moves search
    # give the same nodes, keys and completion with and without a collector
    searches = []
    search = tg.explore_exchange
    monkeypatch.setattr(tg, "explore_exchange", lambda *args, **kw: searches.append(args) or search(*args, **kw))
    tg.exchange_graph_bfs(T0, max_nodes=cap)
    (args,) = searches
    same_without_edges(search, *args)
    same_without_edges(explore, T0, lambda T: (tg.tagged_flip(T, k) for k in range(T.num_arcs)),
                       tg.canonical_key, cap)


@pytest.mark.parametrize("desc, cap, counts", [
    ((0, [6], 1), 1000, (672, 2016, 2016)),
    ((0, [], 5), 600, (600, 1188, 1212)),
    ((1, [], 2), 1000, (32, 32, 144)),
    ((0, [3], 1), 1000, (14, 21, 21)),
])
def test_one_end_search_flip_counts(desc, cap, counts, monkeypatch):
    # (nodes, edges, tagged flips): the complete D6 search flips each edge once
    flips = []
    flip = tg._flip_slots
    monkeypatch.setattr(tg, "_flip_slots",
                        lambda edges, verts, sigs, k: flips.append(k) or flip(edges, verts, sigs, k))
    G = graph(desc, max_nodes=cap)
    assert (len(G.nodes), len(G.edges), len(flips)) == counts


@pytest.mark.parametrize("desc, cap", [
    ((1, [], 2), 300), ((0, [], 4), 300), ((0, [], 5), 200), ((2, [], 1), 60), ((1, [1], 0), 300),
    ((0, [2], 2), 300), ((0, [1], 3), 300), ((0, [2, 2], 0), 200), ((0, [2, 1], 1), 300),
    ((0, [1, 1, 1], 0), 300),
], ids=lambda v: str(v).replace(" ", ""))
def test_cluster_determines_tagged_triangulation(desc, cap):
    # a joint search over (seed, tagged triangulation) nodes: both parts take
    # move k, and nodes are keyed by the cluster. The matrix of every map is
    # its seed's, and a map that reaches a known cluster is the
    # representative's map once its arcs are renamed by the variable they
    # carry. The converse is not asserted: on infinite types mapping classes
    # give different clusters equal map keys.
    reps = {}
    rearrivals = []

    def key(node):
        seed, T = node
        assert tg.b_matrix(T) == seed.matrix
        cluster_key = seed.dedup_key()
        rep_seed, R = reps.setdefault(cluster_key, node)
        if R is not T:
            position = {x: a for a, x in enumerate(rep_seed.cluster)}
            match = {a: position[x] for a, x in enumerate(seed.cluster)}
            assert T.base.relabel_arcs(match) == R.base and T.signatures == R.signatures
            rearrivals.append(match)
        return cluster_key

    def moves(node):
        seed, T = node
        return ((cl.mutate_seed(seed, k), tg.tagged_flip(T, k)) for k in range(T.num_arcs))

    T0 = start(desc)
    nodes, _, _, complete = explore((cl.Seed.initial(tg.b_matrix(T0)), T0), moves, key, cap)
    assert len(nodes) == cap and not complete and rearrivals


@pytest.mark.parametrize("desc, cap, nodes", [
    ((0, [6], 1), 1000, 672), ((0, [], 5), 600, 600), ((1, [], 2), 1000, 32), ((0, [3], 1), 1000, 14),
])
def test_search_validates_each_node_once(desc, cap, nodes, monkeypatch):
    # the start is validated when it is built and every other admitted node
    # once, when the search has ended; flips that land on a held key build
    # nothing
    calls = []
    validate = tm.IdealTriangulation.validate
    monkeypatch.setattr(tm.IdealTriangulation, "validate", lambda self: calls.append(1) or validate(self))
    G = graph(desc, max_nodes=cap)
    assert len(G.nodes) == len(calls) == nodes


def test_broken_flip_surfaces(monkeypatch):
    # a slot-level flip that swaps two vertex entries breaks the link rule,
    # and the search raises instead of returning the broken node
    T0 = start((0, [6], 0))
    flip_table = tg._flip_table

    def broken(edges, verts, k):
        edges, verts = flip_table(edges, verts, k)
        verts[0], verts[1] = verts[1], verts[0]
        return edges, verts

    monkeypatch.setattr(tg, "_flip_table", broken)
    with pytest.raises(tm.InvalidTriangulation):
        tg.exchange_graph_bfs(T0, max_nodes=100)
