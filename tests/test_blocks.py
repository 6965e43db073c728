import bisect
import itertools
import random
import tracemalloc

import pytest

from conftest import quiver_edges, recursion_headroom
from surfcluster import blocks as bl, mutation as mu, surface as sf, trimap as tm


# ---------------------------------------------------------------------------
# independent brute-force oracle: enumerate block multisets and gluings
# directly from the definition, with only hard validity filters

ORACLE_BLOCKS = {
    "I": (2, {0, 1}, [(0, 1)]),
    "II": (3, {0, 1, 2}, [(0, 1), (1, 2), (2, 0)]),
    "IIIa": (3, {2}, [(0, 2), (1, 2)]),
    "IIIb": (3, {2}, [(2, 0), (2, 1)]),
    "IV": (4, {0, 1}, [(0, 2), (2, 1), (0, 3), (3, 1), (1, 0)]),
    "V": (5, {0}, [(0, 1), (0, 2), (3, 0), (4, 0), (1, 3), (1, 4), (2, 3), (2, 4)]),
}


# the non-identity automorphisms of each block: permutations sigma of its
# local vertices (i goes to sigma[i]) that keep its edges and its outlets. A
# vertex tuple and its image verts[sigma[.]] place the same arrows with the
# same roles, so the oracle tries only the least tuple of each orbit.
ORACLE_AUTOMORPHISMS = {
    "I": [],
    "II": [(1, 2, 0), (2, 0, 1)],
    "IIIa": [(1, 0, 2)],
    "IIIb": [(1, 0, 2)],
    "IV": [(0, 1, 3, 2)],
    "V": [(0, 2, 1, 3, 4), (0, 1, 2, 4, 3), (0, 2, 1, 4, 3)],
}

# the arrow counts (u -> v, v -> u) that a pair with entry b_uv may end
# with; none has more than two arrows
ORACLE_FINALS = {2: [(2, 0)], 1: [(1, 0)], 0: [(0, 0), (1, 1)], -1: [(0, 1)], -2: [(0, 2)]}


def oracle_decomposable(B: mu.ExchangeMatrix) -> bool:
    n = B.n
    if not B.entries_bounded_by(2):
        return False

    target = {}
    for u in range(n):
        for v in range(n):
            if u != v:
                target[(u, v)] = B[u, v]
    # the partial gluing, changed in place: arrow counts, the outlet flag of
    # each role a vertex plays, and the placed blocks in order
    arrows = dict.fromkeys(target, 0)
    usage = {}
    placed = []

    def pair_ok(u, v):
        f, g = arrows[(u, v)], arrows[(v, u)]
        return any(f <= ff and g <= gg for ff, gg in ORACLE_FINALS[target[(u, v)]])

    def connected(blocks_used):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for verts in blocks_used:
            for w in verts[1:]:
                parent[find(verts[0])] = find(w)
        return len({find(v) for v in range(n)}) == 1

    # per block: the orbit-least vertex tuples in lex order, each with the
    # pairs its edges fill and whether each local vertex is an outlet
    candidates = {
        kind: [(verts, [(verts[a], verts[b]) for a, b in edges],
                [local in outlets for local in range(size)])
               for verts in itertools.permutations(range(n), size)
               if all(tuple(verts[i] for i in sigma) > verts for sigma in ORACLE_AUTOMORPHISMS[kind])]
        for kind, (size, outlets, edges) in ORACLE_BLOCKS.items()
    }

    def rec():
        if all(arrows[(u, v)] - arrows[(v, u)] == target[(u, v)]
               for u in range(n) for v in range(u + 1, n)):
            free = [v for v in range(n) if v not in usage]
            if all(target[(v, w)] == 0 for v in free for w in range(n) if w != v):
                joins = []
                rest = list(free)
                while len(rest) >= 2:
                    a, b = rest.pop(0), rest.pop(0)
                    joins.append((a, b))
                if connected([vv for _, vv in placed] + joins):
                    return True
        if len(placed) >= n:
            return False
        # place one more block in every legal way (lexicographically bounded
        # by the previous block to kill permutations of the multiset); only
        # the pairs the new block touches can stop being completable
        for kind, tuples in candidates.items():
            start = 0
            if placed:
                if kind < placed[-1][0]:
                    continue
                if kind == placed[-1][0]:
                    start = bisect.bisect_left(tuples, (placed[-1][1],))
            for verts, pairs, is_outlet in itertools.islice(tuples, start, None):
                ok = True
                for local, v in enumerate(verts):
                    roles = usage.get(v, [])
                    if len(roles) >= 2 or (roles and not (all(roles) and is_outlet[local])):
                        ok = False
                        break
                if not ok:
                    continue
                for key in pairs:
                    arrows[key] += 1
                found = False
                if all(pair_ok(u, v) for u, v in pairs):
                    for v, outlet in zip(verts, is_outlet):
                        usage.setdefault(v, []).append(outlet)
                    placed.append((kind, verts))
                    found = rec()
                    placed.pop()
                    for v in verts:
                        usage[v].pop()
                        if not usage[v]:
                            del usage[v]
                for key in pairs:
                    arrows[key] -= 1
                if found:
                    return True
        return False

    return rec()


# ---------------------------------------------------------------------------


def test_block_catalog_matches_module():
    for kind, (size, outlets, edges) in ORACLE_BLOCKS.items():
        msize, moutlets, medges = bl.BLOCK_SPECS[kind]
        assert msize == size and set(moutlets) == outlets
        assert sorted(medges) == sorted(edges)


def test_oracle_automorphisms_are_the_block_symmetries():
    for kind, (size, outlets, edges) in ORACLE_BLOCKS.items():
        symmetries = [sigma for sigma in itertools.permutations(range(size))
                      if {(sigma[a], sigma[b]) for a, b in edges} == set(edges)
                      and {sigma[o] for o in outlets} == outlets]
        identity = tuple(range(size))
        assert sorted(ORACLE_AUTOMORPHISMS[kind]) == [sigma for sigma in symmetries if sigma != identity]


def test_assemble_and_validate():
    d = bl.BlockDecomposition(2, (bl.BlockPlacement("I", (0, 1)),))
    bl.validate_decomposition(d)
    assert bl.assemble_matrix(d).rows == ((0, 1), (-1, 0))
    with pytest.raises(ValueError):
        bl.validate_decomposition(bl.BlockDecomposition(2, (bl.BlockPlacement("I", (0, 0)),)))
    # gluing at a non-outlet is rejected
    bad = bl.BlockDecomposition(
        4,
        (bl.BlockPlacement("IIIa", (0, 1, 2)), bl.BlockPlacement("IIIa", (0, 3, 2))),
    )
    with pytest.raises(ValueError):
        bl.validate_decomposition(bad)
    # two type-I blocks on disjoint vertex pairs leave the graph disconnected
    apart = bl.BlockDecomposition(
        4,
        (bl.BlockPlacement("I", (0, 1)), bl.BlockPlacement("I", (2, 3))),
    )
    with pytest.raises(ValueError, match="disconnected"):
        bl.validate_decomposition(apart)


def test_atilde22_witnesses():
    a22 = mu.make_quiver("AffineA", 2, 2)
    d = bl.decompose(a22)
    assert d is not None
    assert bl.assemble_matrix(d).rows == a22.rows
    # the alternative four-type-I witness assembles correctly too
    edges = quiver_edges(a22)
    four = bl.BlockDecomposition(4, tuple(bl.BlockPlacement("I", (i, j)) for i, j, _ in edges))
    bl.validate_decomposition(four)
    assert bl.assemble_matrix(four).rows == a22.rows


def test_octahedron_four_type_ii():
    octa = mu.make_quiver("Octahedron")
    d = bl.decompose(octa)
    assert d is not None
    assert sorted(p.kind for p in d.blocks) == ["II", "II", "II", "II"]
    surf, T = bl.surface_from_decomposition(d)
    assert surf == sf.validate_surface(0, [], 4)
    assert tm.signed_adjacency(T).rows == octa.rows


def test_e6_not_decomposable_all_orientations():
    e6edges = [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)]
    for signs in itertools.product([1, -1], repeat=5):
        edges = [(a, b) if s > 0 else (b, a) for (a, b), s in zip(e6edges, signs)]
        assert bl.decompose(mu.from_edges(6, edges)) is None


def test_entries_out_of_range_rejected():
    assert bl.decompose(mu.from_edges(2, [(0, 1, 3)])) is None


def test_degenerate_cases():
    d = bl.decompose(mu.ExchangeMatrix.from_rows([[0]]))
    assert d is not None and d.bare == (0,)
    surf, T = bl.surface_from_decomposition(d)
    assert surf == sf.validate_surface(0, [4], 0)
    d2 = bl.decompose(mu.zero_matrix(2))
    assert d2 is not None and len(d2.blocks) == 2
    surf2, T2 = bl.surface_from_decomposition(d2)
    assert surf2 == sf.validate_surface(0, [2], 1)
    assert tm.signed_adjacency(T2).rows == mu.zero_matrix(2).rows


def test_single_block_surfaces():
    expected = {
        "I": (0, (5,), 0),
        "II": (0, (6,), 0),
        "IIIa": (0, (3,), 1),
        "IIIb": (0, (3,), 1),
        "IV": (0, (4,), 1),
        "V": (0, (2,), 2),
    }
    for kind, (size, _, _) in bl.BLOCK_SPECS.items():
        d = bl.BlockDecomposition(size, (bl.BlockPlacement(kind, tuple(range(size))),))
        A = bl.assemble_matrix(d)
        surf, T = bl.surface_from_decomposition(d)
        g, boundary, p = expected[kind]
        assert (surf.genus, surf.boundary, surf.punctures) == (g, boundary, p)
        assert tm.signed_adjacency(T).rows == A.rows


def test_battery_round_trip(battery_triangulations):
    # B(T) fixes the surface except where two surfaces share matrices
    # (surface._CARTAN_NOTES): D3 = A3 and AffineD(3) = AffineA(2,2)
    coincident = {sf.validate_surface(0, [3], 1): sf.validate_surface(0, [6], 0),
                  sf.validate_surface(0, [1], 2): sf.validate_surface(0, [2, 2], 0)}
    for desc, (s, nodes) in battery_triangulations.items():
        for T in nodes[:2]:
            B = tm.signed_adjacency(T)
            d = bl.decompose(B)
            assert d is not None, desc
            surf2, T2 = bl.surface_from_decomposition(d)
            assert tm.signed_adjacency(T2).rows == B.rows, desc
            assert surf2 in (s, coincident.get(s)), desc


def test_oracle_agreement_small():
    cases = [
        mu.ExchangeMatrix.from_rows([[0]]),
        mu.zero_matrix(2),
        mu.make_quiver("A", 2),
        mu.make_quiver("A", 3),
        mu.from_edges(3, [(0, 1), (1, 2), (2, 0)]),
        mu.ExchangeMatrix.from_rows([[0, 2], [-2, 0]]),
        mu.make_quiver("AffineA", 2, 2),
        mu.make_quiver("AffineA", 3, 1),
        mu.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
        mu.make_quiver("D", 4),
    ]
    rng = random.Random(2)
    while len(cases) < 24:
        n = rng.randint(2, 4)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = rng.choice([-2, -1, -1, 0, 0, 1, 1, 2])
                rows[i][j] = v
                rows[j][i] = -v
        cases.append(mu.ExchangeMatrix.from_rows(rows))
    for B in cases:
        got = bl.decompose(B) is not None
        want = oracle_decomposable(B)
        assert got == want, B.rows


@pytest.mark.slow
def test_oracle_agreement_n5_n6():
    rng = random.Random(9)
    cases = [mu.make_quiver("Octahedron")]
    e6 = mu.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])
    cases.append(e6)
    for _ in range(6):
        n = rng.choice([5, 5, 6])
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = rng.choice([-1, 0, 0, 0, 1, 1])
                rows[i][j] = v
                rows[j][i] = -v
        cases.append(mu.ExchangeMatrix.from_rows(rows))
    for B in cases:
        assert (bl.decompose(B) is not None) == oracle_decomposable(B), B.rows


def test_decomposition_json_roundtrip():
    d = bl.decompose(mu.make_quiver("AffineA", 2, 2))
    d2 = bl.BlockDecomposition.from_json(d.to_json())
    assert d2 == d


def test_random_assemblies_round_trip(monkeypatch):
    # build random multi-block gluings; their matrices must decompose within
    # 500000 search calls and rebuild into surfaces with the same signed
    # adjacencies
    monkeypatch.setattr(bl, "SEARCH_BUDGET", 500000)
    rng = random.Random(99)
    kinds = list(bl.BLOCK_SPECS)
    checked = 0
    for _ in range(40):
        placements = []
        usage = {}
        next_v = 0
        for _ in range(rng.randint(2, 4)):
            kind = rng.choice(kinds)
            size, outlets, _ = bl.BLOCK_SPECS[kind]
            verts = []
            for local in range(size):
                cands = [v for v, roles in usage.items()
                         if len(roles) == 1 and roles[0] and local in outlets and v not in verts]
                if cands and rng.random() < 0.5:
                    v = rng.choice(cands)
                else:
                    v = next_v
                    next_v += 1
                verts.append(v)
                usage.setdefault(v, []).append(local in outlets)
            placements.append(bl.BlockPlacement(kind, tuple(verts)))
        d = bl.BlockDecomposition(next_v, tuple(placements))
        try:
            bl.validate_decomposition(d)
        except ValueError:
            continue  # random gluing came out disconnected
        B = bl.assemble_matrix(d)
        d2 = bl.decompose(B)
        assert d2 is not None, B.rows
        _, T = bl.surface_from_decomposition(d2)
        assert tm.signed_adjacency(T).rows == B.rows
        checked += 1
    assert checked >= 10


# ---------------------------------------------------------------------------
# candidate enumeration of the search


def _orbit(kind, verts):
    """verts under every combination of the kind's twin swaps."""
    out = {tuple(verts)}
    for i, j in bl._TWINS.get(kind, ()):
        for t in list(out):
            s = list(t)
            s[i], s[j] = s[j], s[i]
            out.add(tuple(s))
    return out


def test_twins_are_block_automorphisms():
    for kind, pairs in bl._TWINS.items():
        size, outlets, edges = bl.BLOCK_SPECS[kind]
        for i, j in pairs:
            swap = list(range(size))
            swap[i], swap[j] = j, i
            assert {(swap[a], swap[b]) for a, b in edges} == set(edges), (kind, i, j)
            assert {swap[a] for a in outlets} == set(outlets), (kind, i, j)


def _brute_covering(state):
    """(u, v) -> sorted (gain, kind, vertices) of the placements that put an
    arrow u -> v, straight from the definition, one per twin orbit."""
    n, res, load = state.n, state.res, state.load
    found = {}
    for kind, (size, outlets, edges) in bl.BLOCK_SPECS.items():
        for verts in itertools.permutations(range(n), size):
            if not all(state.can_use(x, local in outlets) for local, x in enumerate(verts)):
                continue
            if any(abs(res[verts[a]][verts[b]] - 1) + load[verts[a]][verts[b]] + 1 > 2 for a, b in edges):
                continue
            if verts != min(_orbit(kind, verts)):
                continue
            gain = -sum(1 for a, b in edges if res[verts[a]][verts[b]] > 0)
            for a, b in edges:
                found.setdefault((verts[a], verts[b]), []).append((gain, kind, verts))
    return {uv: sorted(keys) for uv, keys in found.items()}


def test_placements_covering_matches_brute_force():
    rng = random.Random(17)
    dropped = 0
    for _ in range(30):
        n = rng.randint(2, 7)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = rng.choice([-2, -1, -1, 0, 0, 0, 1, 1, 2])
                rows[i][j], rows[j][i] = v, -v
        state = bl._Search(mu.ExchangeMatrix.from_rows(rows))
        # a partial state: up to three placements that the search would try
        for _ in range(rng.randint(0, 3)):
            demands = state.demands()
            if not demands:
                break
            _, u, v = rng.choice(demands)
            keys = state.placements_covering(u, v)
            if not keys:
                break
            _, kind, verts = rng.choice(keys)
            state.place(bl.BlockPlacement(kind, verts))
        brute = _brute_covering(state)
        for u in range(n):
            for v in range(n):
                if u == v:
                    continue
                keys = state.placements_covering(u, v)
                expected = brute.get((u, v), [])
                # an ordered sublist of the brute-force list ...
                it = iter(expected)
                assert all(key in it for key in keys), (rows, u, v)
                # ... that drops only placements the degree test rejects
                kept = set(keys)
                for key in expected:
                    if key not in kept:
                        pl = bl.BlockPlacement(*key[1:])
                        state.place(pl)
                        assert state.positive and not state._degree_feasible(), (rows, key)
                        state.unplace(pl)
                        dropped += 1
                # no two automorphic copies in one list
                orbits = [frozenset(_orbit(kind, verts)) for _, kind, verts in keys]
                assert len(set(zip((k for _, k, _ in keys), orbits))) == len(keys)
    assert dropped


def _bt0(genus, boundary, punctures):
    return tm.signed_adjacency(tm.initial_triangulation(sf.validate_surface(genus, boundary, punctures)))


@pytest.mark.parametrize("B, decomposable, calls", [
    (_bt0(1, [2, 2], 2), True, 13),
    (_bt0(2, [4, 4, 4], 3), True, 29),
    (mu.make_quiver("E", 6), False, 10),
], ids=["(1,[2,2],2)", "(2,[4,4,4],3)", "E6"])
def test_search_call_counts(B, decomposable, calls, monkeypatch):
    # candidates failing the degree prefilter are never placed, so nearly
    # every call places a block that the search keeps or backtracks from
    monkeypatch.setattr(bl, "SEARCH_BUDGET", 10_000)
    state = bl._Search(B)
    assert (state._search() is not None) == decomposable
    assert state.calls == calls


def test_search_memory_does_not_grow_with_depth():
    # a chain places one block per recursion level; a state key (two n x n
    # tables) held in every frame made the peak grow as depth * n^2
    B = mu.make_quiver("A", 200)
    tracemalloc.start()
    try:
        assert bl.decompose(B) is not None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_search_out_of_depth_is_undecided():
    B = mu.make_quiver("A", 300)
    with recursion_headroom(150), pytest.raises(bl.BudgetExhausted, match="recursion depth"):
        bl.decompose(B)
