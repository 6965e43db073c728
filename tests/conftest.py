import contextlib
import sys
import traceback

import pytest

# battery of validated surfaces (g <= 2, b <= 3, p <= 3, c_i <= 4) used by
# the flip/mutation, corank and block-criterion checks
BATTERY = [
    (0, [4], 0), (0, [4], 1), (0, [4], 2),
    (0, [2], 1), (0, [3], 1), (0, [2], 2), (0, [1], 2), (0, [1], 3),
    (0, [1, 1], 0), (0, [2, 1], 0), (0, [4, 4], 0), (0, [3, 2], 1),
    (0, [1, 1, 1], 0), (0, [4, 2, 1], 0),
    (1, [], 1), (1, [], 2), (1, [], 3), (1, [1], 0), (1, [2], 1),
    (2, [], 1), (2, [1], 0),
]

# larger members exercised under the slow marker
BATTERY_SLOW = [
    (0, [4], 3), (0, [2, 2], 2), (1, [1, 1], 1), (2, [3], 2),
    (0, [3, 3, 3], 3), (2, [4, 4, 4], 3),
]


def same_without_edges(search, *args):
    """Run a search of `_explore` with and without an edges collector: the
    nodes, keys and completion agree, and only the collector gets edges."""
    plain = search(*args)
    collected = search(*args, edges=set())
    assert plain[2] is None and collected[2] == sorted(set(collected[2]))
    assert (plain[0], plain[1], plain[3]) == (collected[0], collected[1], collected[3])


def quiver_edges(B):
    """Positive-entry arrow list (i, j, w) of an exchange matrix, sorted."""
    out = []
    for i in range(B.n):
        for j in range(B.n):
            if B[i, j] > 0:
                out.append((i, j, B[i, j]))
    return out


@contextlib.contextmanager
def recursion_headroom(frames):
    """Lower the recursion limit to the current stack depth plus `frames`,
    and restore it on exit."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(sum(1 for _ in traceback.walk_stack(None)) + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(saved)


@pytest.fixture(scope="session")
def battery_triangulations():
    """descriptor -> (surface, list of triangulations reached by flips)."""
    from surfcluster import surface as sf, trimap as tm

    cache = {}
    for desc in BATTERY:
        s = sf.validate_surface(*desc)
        T0 = tm.initial_triangulation(s)
        nodes, _, _ = tm.flip_graph_bfs(T0, max_nodes=60)
        cache[tuple(map(str, desc))] = (s, nodes)
    return cache
