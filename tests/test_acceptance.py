"""Acceptance criteria, one test per criterion, each exact (no tolerances).

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Items marked slow take minutes; deselect with -m 'not slow'.
"""

import itertools
import random

import pytest

from surfcluster import (
    blocks as bl,
    cluster as cl,
    finite_models as fm,
    mutation as mu,
    surface as sf,
    tagged as tg,
    trimap as tm,
)
from conftest import BATTERY, BATTERY_SLOW, quiver_edges


def _report(num, text):
    print(f"criterion {num}: PASS - {text}")


def rand_skew(rng, n, bound=3):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.randint(-bound, bound)
            rows[i][j] = v
            rows[j][i] = -v
    return mu.ExchangeMatrix.from_rows(rows)


def test_criterion_1_involution_and_rank():
    rng = random.Random(20260808)
    for _ in range(1000):
        B = rand_skew(rng, rng.randint(2, 8))
        k = rng.randrange(B.n)
        Bk = mu.mutate(B, k)
        assert mu.mutate(Bk, k).rows == B.rows
        assert mu.rank(Bk) == mu.rank(B)
    _report(1, "1000 random matrices: mutation involutive, rank preserved")


def _battery_check(descs, nodes_per_surface):
    flips = 0
    for desc in descs:
        s = sf.validate_surface(*desc)
        T0 = tm.initial_triangulation(s)
        nodes, _, _ = tm.flip_graph_bfs(T0, max_nodes=nodes_per_surface)
        for T in nodes:
            B = tm.signed_adjacency(T)
            assert B.entries_bounded_by(2)
            for k in T.arcs():
                if tm.is_flippable(T, k):
                    assert tm.signed_adjacency(tm.flip(T, k)).rows == mu.mutate(B, k).rows
                    flips += 1
            assert mu.corank(B) == s.punctures + sum(1 for c in s.boundary if c % 2 == 0)
    return flips


def test_criterion_2_and_3_flip_mutation_and_corank():
    assert len(BATTERY) >= 20
    flips = _battery_check(BATTERY, 200)
    _report(2, f"B(flip(T,k)) = mu_k(B(T)) exactly across {flips} flips, entries in {{0,+-1,+-2}}")
    _report(3, "corank(B(T)) = punctures + even boundary components on every node")


@pytest.mark.slow
def test_criterion_2_and_3_slow_battery():
    flips = _battery_check(BATTERY_SLOW, 200)
    _report(2, f"slow battery: {flips} flips checked")


def test_criterion_4_known_matrices():
    ann = tm.initial_triangulation(sf.validate_surface(0, [1, 1], 0))
    assert tm.signed_adjacency(ann).rows == ((0, 2), (-2, 0))

    torus = tm.initial_triangulation(sf.validate_surface(1, [], 1))
    target = mu.ExchangeMatrix.from_rows([[0, 2, -2], [-2, 0, 2], [2, -2, 0]])
    assert mu.canonical_form(tm.signed_adjacency(torus)).rows == mu.canonical_form(target).rows

    # both twice-punctured-monogon matrices are realized by reachable
    # triangulations
    fig8 = [
        mu.ExchangeMatrix.from_rows([[0, 0, 1, -1], [0, 0, 1, -1], [-1, -1, 0, 0], [1, 1, 0, 0]]),
        mu.ExchangeMatrix.from_rows([[0, 0, -1, -1], [0, 0, -1, -1], [1, 1, 0, 0], [1, 1, 0, 0]]),
    ]
    T0 = tm.initial_triangulation(sf.validate_surface(0, [1], 2))
    nodes, _, _ = tm.flip_graph_bfs(T0, max_nodes=60, labeled=False)
    seen = {mu.canonical_form(tm.signed_adjacency(T)).rows for T in nodes}
    for M in fig8:
        assert mu.canonical_form(M).rows in seen

    # the four once-punctured-triangle forms
    forms = [
        [[0, 1, -1], [-1, 0, 1], [1, -1, 0]],
        [[0, 1, 0], [-1, 0, 1], [0, -1, 0]],
        [[0, 1, 0], [-1, 0, -1], [0, 1, 0]],
        [[0, -1, 0], [1, 0, 1], [0, -1, 0]],
    ]
    T0 = tm.initial_triangulation(sf.validate_surface(0, [3], 1))
    nodes, _, _ = tm.flip_graph_bfs(T0, max_nodes=40, labeled=False)
    seen = {mu.canonical_form(tm.signed_adjacency(T)).rows for T in nodes}
    for rows in forms:
        assert mu.canonical_form(mu.ExchangeMatrix.from_rows(rows)).rows in seen
    _report(4, "A~(1,1), torus, both twice-punctured-monogon and all four D3 matrices realized")


def test_criterion_5_counts():
    pent = tm.initial_triangulation(sf.validate_surface(0, [5], 0))
    nodes, edges, trunc = tm.flip_graph_bfs(pent, max_nodes=50, labeled=False)
    assert (len(nodes), len(edges), trunc) == (5, 5, False)

    ptri = tm.initial_triangulation(sf.validate_surface(0, [3], 1))
    nodes, _, trunc = tm.flip_graph_bfs(ptri, max_nodes=50, labeled=False)
    assert len(nodes) == 10 and not trunc

    G = tg.exchange_graph_bfs(tg.tag_with(ptri), max_nodes=100)
    degs = {}
    for i, j in G.edges:
        degs[i] = degs.get(i, 0) + 1
        degs[j] = degs.get(j, 0) + 1
    assert len(G.nodes) == 14 and set(degs.values()) == {3} and not G.truncated

    dig = tm.initial_triangulation(sf.validate_surface(0, [2], 1))
    Gd = tg.exchange_graph_bfs(tg.tag_with(dig), max_nodes=50)
    assert len(Gd.nodes) == 4 and len(Gd.edges) == 4
    onodes, oedges, _ = tm.flip_graph_bfs(dig, max_nodes=50, labeled=False)
    assert len(onodes) == 3 and sorted(oedges) == [(0, 1), (0, 2)]

    hex_clusters, _ = fm.enumerate_clusters(fm.Model("polygon", 6))
    assert len(hex_clusters) == 14

    assert len(fm.enumerate_tagged_arcs(fm.Model("polygon", 6))) == 9
    assert len(fm.enumerate_tagged_arcs(fm.Model("punctured", 3))) == 9
    assert len(fm.enumerate_tagged_arcs(fm.Model("punctured", 4))) == 16
    _report(5, "pentagon 5-cycle; 10 ideal / 14 tagged; digon 4-cycle vs path; counts 14, 9, 9, 16")


def test_criterion_6_pseudomanifold_and_r2():
    # two completions per codimension-1 face: the flip of every arc exists,
    # differs from the start, and flipping back returns it; in the finite
    # graphs each face is one edge, so edge counts equal rank * nodes / 2
    for desc, nodes_expected in [((0, [5], 0), 5), ((0, [3], 1), 14), ((0, [2], 1), 4)]:
        s = sf.validate_surface(*desc)
        G = tg.exchange_graph_bfs(tg.tag_with(tm.initial_triangulation(s)), max_nodes=100)
        assert len(G.nodes) == nodes_expected
        assert len(G.edges) == s.rank * nodes_expected // 2
        for node in G.nodes:
            for k in range(node.num_arcs):
                other = tg.tagged_flip(node, k)
                assert not (other.base == node.base and other.signatures == node.signatures)
                back = tg.tagged_flip(other, k)
                assert back.base == node.base and back.signatures == node.signatures

    sampled = 0
    for desc in [(0, [3], 1), (0, [2], 1), (0, [1, 1], 0), (0, [], 4), (0, [2, 1], 0)]:
        G = tg.exchange_graph_bfs(tg.tag_with(tm.initial_triangulation(sf.validate_surface(*desc))),
                                  max_nodes=15)
        for node in G.nodes:
            B = tg.b_matrix(node)
            for i in range(node.num_arcs):
                for j in range(i + 1, node.num_arcs):
                    if abs(B[i, j]) > 1:
                        continue
                    length = 4 if B[i, j] == 0 else 5
                    cur = node
                    for k in ([i, j] * 3)[:length]:
                        cur = tg.tagged_flip(cur, k)
                    if length == 5:
                        cur = tg.TaggedTriangulation(cur.base.relabel_arcs({i: j, j: i}), cur.signatures)
                    assert cur.base == node.base and cur.signatures == node.signatures
                    sampled += 1
    assert sampled >= 200
    _report(6, f"two completions everywhere; {sampled} R2 cycles closed in exactly 4 or 5 flips")


def test_criterion_7_torus_stratification():
    T0 = tm.initial_triangulation(sf.validate_surface(1, [], 1))
    G = tg.exchange_graph_bfs(tg.tag_with(T0), max_nodes=500)
    assert not G.truncated
    assert all(s == 1 for node in G.nodes for _, s in node.signatures)
    _report(7, "once-punctured torus: all-plain component never reaches a notched tag")


def _three_way_survey(model):
    clusters, edges = fm.enumerate_clusters(model)
    labeled = fm.exchange_matrices(model, clusters, edges)
    adj = {}
    for i, j in edges:
        adj.setdefault(i, []).append(j)
        adj.setdefault(j, []).append(i)
    pos = {c: i for i, c in enumerate(clusters)}
    n = model.rank
    checked = 0
    for root in clusters:
        order_root, B_root = labeled[root]
        seeds = {pos[root]: (order_root, cl.Seed.initial(B_root))}
        polys = dict(zip(order_root, seeds[pos[root]][1].cluster))
        trop = {pos[root]: (cl.initial_denominator_vectors(n), B_root)}
        tvecs = dict(zip(order_root, cl.initial_denominator_vectors(n)))
        queue = [pos[root]]
        qi = 0
        while qi < len(queue):
            ci = queue[qi]
            qi += 1
            order_i, seed_i = seeds[ci]
            D_i, Bt_i = trop[ci]
            for cj in adj.get(ci, ()):
                arcs_j = clusters[cj]
                (old,) = set(order_i) - set(arcs_j)
                (new,) = set(arcs_j) - set(order_i)
                k = order_i.index(old)
                order_j = tuple(new if a == old else a for a in order_i)
                seed_j = cl.mutate_seed(seed_i, k)
                D_j = cl.tropical_mutate(D_i, Bt_i, k)
                if cj in seeds:
                    prev_order, prev_seed = seeds[cj]
                    for a in order_j:
                        assert prev_seed.cluster[prev_order.index(a)] == \
                            seed_j.cluster[order_j.index(a)]
                    continue
                seeds[cj] = (order_j, seed_j)
                trop[cj] = (D_j, mu.mutate(Bt_i, k))
                queue.append(cj)
                p_new = seed_j.cluster[k]
                if new in polys:
                    assert polys[new] == p_new
                polys[new] = p_new
                tvecs[new] = D_j[k]
        assert len(seeds) == len(clusters)
        for beta, p in polys.items():
            dv = cl.denominator_vector(p)
            iv = tuple(fm.intersection_number(alpha, beta) for alpha in order_root)
            assert dv == iv == tvecs[beta], (str(beta), dv, iv, tvecs[beta])
            checked += 1
    return checked


def test_criterion_8_denominators_small_models():
    total = 0
    for model in [fm.Model("polygon", 5), fm.Model("polygon", 6), fm.Model("punctured", 3)]:
        total += _three_way_survey(model)
    _report(8, f"d-vectors = intersection numbers = tropical recurrence ({total} triples, small models)")


@pytest.mark.slow
def test_criterion_8_denominators_punctured_square():
    total = _three_way_survey(fm.Model("punctured", 4))
    _report(8, f"punctured square exhaustive: {total} (T, beta) pairs agree three ways")


def test_criterion_9_laurent_and_counts():
    # criterion 8's surveys already force every division to be exact; here
    # the censuses per type, with denominator vectors pairwise distinct
    expected = {
        "A2": (mu.ExchangeMatrix.from_rows([[0, 1], [-1, 0]]), 5),
        "A3": (mu.make_quiver("A", 3), 9),
        "D3": (mu.from_edges(3, [(0, 1), (1, 2), (2, 0)]), 9),
        "D4": (mu.make_quiver("D", 4), 16),
    }
    for name, (B, total) in expected.items():
        census = cl.all_cluster_variables(B, 2000)
        assert census.complete, name
        assert len(census.variables) == total, name
        dvs = {cl.denominator_vector(v) for v in census.variables}
        assert len(dvs) == total, name
    _report(9, "Laurent phenomenon held in every division; totals 5, 9, 9, 16 with distinct d-vectors")


def test_criterion_10_block_criterion(battery_triangulations):
    count = 0
    for desc, (s, nodes) in battery_triangulations.items():
        for T in nodes[:2]:
            B = tm.signed_adjacency(T)
            d = bl.decompose(B)
            assert d is not None, desc
            _, T2 = bl.surface_from_decomposition(d)
            assert tm.signed_adjacency(T2).rows == B.rows
            count += 1

    e6edges = [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)]
    for signs in itertools.product([1, -1], repeat=5):
        edges = [(a, b) if s > 0 else (b, a) for (a, b), s in zip(e6edges, signs)]
        assert bl.decompose(mu.from_edges(6, edges)) is None

    a22 = mu.make_quiver("AffineA", 2, 2)
    four = bl.BlockDecomposition(
        4, tuple(bl.BlockPlacement("I", (i, j)) for i, j, _ in quiver_edges(a22)))
    bl.validate_decomposition(four)
    assert bl.assemble_matrix(four).rows == a22.rows
    assert bl.decompose(a22) is not None

    octa = mu.make_quiver("Octahedron")
    d = bl.decompose(octa)
    assert sorted(p.kind for p in d.blocks) == ["II", "II", "II", "II"]
    _report(10, f"{count} battery matrices decomposed with exact round-trips; "
                "32/32 E6 orientations rejected; A~(2,2) and octahedron witnesses verified")


@pytest.mark.slow
def test_criterion_10_slow_battery():
    count = 0
    for desc in BATTERY_SLOW:
        s = sf.validate_surface(*desc)
        T = tm.initial_triangulation(s)
        B = tm.signed_adjacency(T)
        d = bl.decompose(B)
        assert d is not None, desc
        _, T2 = bl.surface_from_decomposition(d)
        assert tm.signed_adjacency(T2).rows == B.rows
        count += 1
    _report(10, f"slow battery: {count} large matrices decomposed with exact round-trips")


def test_criterion_11_type_recognition():
    for n in (4, 5):
        for n1 in range(n + 1):
            n2 = n - n1
            edges = [(i, (i + 1) % n) for i in range(n1)]
            edges += [((i + 1) % n, i) for i in range(n1, n)]
            B = mu.from_edges(n, edges)
            got = mu.recognize_type(B)
            if n1 in (0, n):
                assert got == f"D({n})", (n, n1, got)
            else:
                hi, lo = max(n1, n2), min(n1, n2)
                assert got == f"AffineA({hi},{lo})", (n, n1, got)

    c22 = mu.mutation_class(mu.make_quiver("AffineA", 2, 2), 1000)
    c31 = mu.mutation_class(mu.make_quiver("AffineA", 3, 1), 1000)
    assert not ({m.rows for m in c22.matrices} & {m.rows for m in c31.matrices})

    assert mu.recognize_type(mu.make_quiver("Grid", 3, 3)) == "D(4)"
    _report(11, "cycle orientations recognized per the unordered-pair rule; Grid(3,3) is type D4")


@pytest.mark.slow
def test_criterion_11_slow_extended_affine():
    cls = mu.mutation_class(mu.make_quiver("ExtAffE", 6), max_size=60000)
    assert cls.complete, "extended affine E6 class should be finite"
    a2d4 = mu.quiver_product(mu.make_quiver("A", 2), mu.make_quiver("D", 4))
    assert mu.canonical_form(a2d4).rows in {m.rows for m in cls.matrices}
    _report(11, f"A2 x D4 lies in the extended affine E6 class (size {cls.size}, finite)")


def test_criterion_12_growth_and_homotopy():
    table = [
        ((0, [6], 0), "A(3)", "S^2"),
        ((0, [4], 0), "A(1)", "S^0"),
        ((0, [3], 1), "D(3)", "S^2"),
        ((0, [2, 1], 0), "AffineA(2,1)", "contractible"),
        ((0, [1], 2), "AffineD(3)", "contractible"),
        ((0, [2, 1], 1), "Gamma2(2,1)", "contractible"),
        ((0, [1, 1, 1], 0), "Gamma3(1,1,1)", "contractible"),
        ((1, [], 1), "Exponential", "S^0"),
        ((0, [], 4), "Exponential", "S^3"),
        ((1, [], 3), "Exponential", "S^2"),
        ((1, [1], 0), "Exponential", "contractible"),
    ]
    for desc, growth, homotopy in table:
        c = sf.classify(sf.validate_surface(*desc))
        assert str(c.growth) == growth, desc
        assert str(c.homotopy) == homotopy, desc
    _report(12, "growth families and homotopy trichotomy reproduced on the table")
