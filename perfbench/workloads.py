"""The four workloads: seeded inputs, job lists and exact output checks.

Each workload is a fixed job list. The seed relabels the inputs (a random
simultaneous index permutation of every input matrix, and the tagged-flip
walk that moves a search's start) and never changes the expected answers.
Everything seeded happens in set-up; a pass sees only the generated inputs.

One operation is one CLI call, or for tagged-bfs one search with its export.
An operation fails when it raises, exits with a code other than the expected
one (0, or 1 for a rejection) or gives no verdict; it is wrong when its output
differs from the known answer. Either way the pass goes on.
"""

from __future__ import annotations

import io
import json
import random
from math import comb

# tagged exchange-graph searches:
# (surface, node cap, expected nodes, expected edges or None, truncated)
TAGGED_JOBS = (
    ((0, (6,), 1), 100_000, 672, 2016, False),   # D6: the cluster count, complete
    ((0, (), 5), 600, 600, None, True),           # closed surface, capped
    ((1, (), 2), 100_000, 32, 32, False),         # closed torus, complete
)
# B(T0) of the twice-punctured square: mutation class 146, type AffineD(6)
CLASS_SURFACE = (0, (4,), 2)
# block criterion at n = 16, 18, 20
LARGE_SURFACES = ((1, (2, 2), 2), (2, (3,), 2), (2, (2,), 3))
# Laurent seed censuses: D_n has n^2 variables and (3n-2)/n C(2n-2, n-1)
# seeds, A_n has n(n+3)/2 variables and Catalan(n+1) seeds
SEED_CENSUS = (
    ("D", 6, 6 * 6, (3 * 6 - 2) * comb(10, 5) // 6),
    ("A", 7, 7 * 10 // 2, comb(16, 8) // 9),
)
SEED_LIMIT = 2000


class Wrong(Exception):
    """The program's output differs from the known answer."""


class Failed(Exception):
    """The operation gave no usable answer: an error, a budget, an exit code."""


def descriptor(desc) -> dict:
    genus, boundary, punctures = desc
    return {"genus": genus, "boundary": sorted(boundary, reverse=True), "punctures": punctures}


def relabel(rows, perm) -> list[list[int]]:
    n = len(perm)
    return [[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


def shuffled(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def matrix_arg(rows) -> str:
    return json.dumps({"n": len(rows), "rows": rows})


def expect_ok(rc, data):
    if rc != 0:
        raise Wrong(f"rejected: {data}")


class Pass:
    """One pass over a job list: times each operation, then checks it.

    Operations are timed with the clock of `sampler` (a speed.Sampler), which
    leaves its probes out; `start` and `end` let the sampler scale them later.
    """

    def __init__(self, sc, sampler):
        self.sc = sc
        self.sampler = sampler
        self.ops: list[dict] = []
        self.bytes_out = 0
        self.bfs_nodes = 0
        self.bfs_edges = 0
        self.verdicts = {"found": 0, "rejected": 0, "undecided": 0}

    def _record(self, label, start, end, status, detail=""):
        seconds = None if start is None else end - start
        self.ops.append({"label": label, "s": seconds, "start": start, "end": end,
                         "status": status, "detail": detail})

    def skip(self, label, reason):
        self._record(label, None, None, "failed", f"not run: {reason}")

    def run(self, label, work, check):
        """Time `work()`, then `check(result)` outside the timed region.

        `check` returns what later jobs need, or raises Wrong or Failed.
        Returns None when the operation did not pass.
        """
        clock = self.sampler.clock
        t0 = clock()
        try:
            result = work()
        except Exception as exc:  # any error of the program is a failed operation
            self._record(label, t0, clock(), "failed", f"{type(exc).__name__}: {exc}")
            return None
        t1 = clock()
        try:
            value = check(result)
        except Failed as exc:
            self._record(label, t0, t1, "failed", str(exc))
            return None
        except Exception as exc:  # Wrong, or output without the fields the check reads
            self._record(label, t0, t1, "wrong", f"{type(exc).__name__}: {exc}")
            return None
        self._record(label, t0, t1, "ok")
        return value

    def cli(self, label, argv, check):
        """Run `surfcluster <argv>` in-process; `check(rc, data)` gets the parsed output."""
        cli = self.sc.cli

        def work():
            out = io.StringIO()
            try:
                rc = cli.main(argv, out)
            except SystemExit as exc:  # argparse reports bad usage this way
                rc = exc.code
            return rc, out.getvalue()

        def parse(result):
            rc, text = result
            self.bytes_out += len(text.encode())
            if rc not in (0, 1):
                raise Failed(f"exit code {rc}")
            try:
                data = json.loads(text)
            except json.JSONDecodeError as exc:
                raise Wrong(f"output is not JSON: {exc}") from None
            return check(rc, data)

        return self.run(label, work, parse)

    def decide(self, label, matrix, expect_found):
        """`is-surface-matrix`; returns the decomposition when one is found."""

        def check(rc, data):
            if rc == 0 and "decomposition" in data:
                verdict = "found"
            elif rc == 1 and data.get("error") == "not-block-decomposable":
                verdict = "rejected"
            else:
                raise Failed(f"no verdict: exit {rc}, {data}")
            self.verdicts[verdict] += 1
            if (verdict == "found") != expect_found:
                raise Wrong(f"{verdict}, expected {'found' if expect_found else 'rejected'}")
            return data.get("decomposition")

        found = self.cli(label, ["is-surface-matrix", matrix], check)
        if self.ops[-1]["status"] == "failed":
            self.verdicts["undecided"] += 1
        return found


# ---------------------------------------------------------------------------
# tagged-bfs: three tagged exchange-graph searches, each with the CLI's export


def setup_tagged_bfs(sc, rng):
    jobs = []
    for desc, cap, nodes, edges, truncated in TAGGED_JOBS:
        s = sc.validate_surface(*desc)
        start = sc.tag_with(sc.initial_triangulation(s))
        for _ in range(2 * s.rank):
            start = sc.tagged_flip(start, rng.randrange(start.num_arcs))
        jobs.append((desc, start, cap, nodes, edges, truncated))
    return jobs


def run_tagged_bfs(p: Pass, jobs):
    sc = p.sc
    for desc, start, cap, nodes, edges, truncated in jobs:
        # the CLI cannot take a start, so the search is called directly and
        # its export goes through the CLI's own output path
        def work(start=start, cap=cap):
            graph = sc.tagged.exchange_graph_bfs(start, max_nodes=cap)
            out = io.StringIO()
            sc.cli._emit(graph.to_json(), out)
            return len(graph.nodes), len(graph.edges), graph.truncated, out.getvalue()

        def check(result, nodes=nodes, edges=edges, truncated=truncated):
            n_nodes, n_edges, cut, text = result
            p.bytes_out += len(text.encode())
            p.bfs_nodes += n_nodes
            p.bfs_edges += n_edges
            data = json.loads(text)
            keys = data["vertices"]
            if len(keys) != n_nodes or len(set(keys)) != n_nodes:
                raise Wrong("exported vertex keys are not one distinct key per node")
            if len(data["edges"]) != n_edges or data["truncated"] is not cut:
                raise Wrong("export differs from the search result")
            if not all(0 <= a < b < n_nodes for a, b in data["edges"]):
                raise Wrong("edge endpoints out of range")
            if n_nodes != nodes or cut is not truncated:
                raise Wrong(f"{n_nodes} nodes, truncated={cut}; expected {nodes}, {truncated}")
            if edges is not None and n_edges != edges:
                raise Wrong(f"{n_edges} edges, expected {edges}")

        p.run(f"tagged-bfs {desc}", work, check)


# ---------------------------------------------------------------------------
# class-census: mutation classes, the block criterion on every member, types


def setup_class_census(sc, rng):
    b1 = sc.signed_adjacency(sc.initial_triangulation(sc.validate_surface(*CLASS_SURFACE)))
    e6 = sc.make_quiver("E", 6)
    e7 = sc.make_quiver("E", 7)

    def arg(m):
        return matrix_arg(relabel(m.rows, shuffled(rng, m.n)))

    classes = (("B(T0)", arg(b1), 146, True), ("E6", arg(e6), 67, False))
    types = (("E7", arg(e7), "E(7)"), ("B(T0)", arg(b1), "AffineD(6)"))
    return classes, types


def run_class_census(p: Pass, inputs):
    classes, types = inputs
    for name, matrix, size, surface_type in classes:
        def check(rc, data, size=size):
            expect_ok(rc, data)
            reps = data["representatives"]
            if data["size"] != size or len(reps) != size or data["complete"] is not True:
                raise Wrong(f"class of {data['size']} (complete={data['complete']}), expected {size}")
            return reps

        reps = p.cli(f"mutation-class {name}", ["mutation-class", "--matrix", matrix, "--full"], check)
        for i in range(size):
            label = f"is-surface-matrix {name} #{i}"
            if reps is None:
                p.skip(label, "no mutation class")
            else:
                p.decide(label, json.dumps(reps[i]), surface_type)
    for name, matrix, tag in types:
        def check(rc, data, tag=tag):
            expect_ok(rc, data)
            if data["type"] != tag:
                raise Wrong(f"type {data['type']}, expected {tag}")

        p.cli(f"recognize-type {name}", ["recognize-type", "--matrix", matrix], check)


# ---------------------------------------------------------------------------
# block-large: b-matrix, the block criterion and reassembly at n = 16..20


def setup_block_large(sc, rng):
    jobs = []
    for desc in LARGE_SURFACES:
        b = sc.signed_adjacency(sc.initial_triangulation(sc.validate_surface(*desc)))
        rows = [list(r) for r in b.rows]
        jobs.append((desc, json.dumps(descriptor(desc)), rows, relabel(rows, shuffled(rng, b.n))))
    return jobs


def run_block_large(p: Pass, jobs):
    for desc, surface, rows, relabeled in jobs:
        def check_b(rc, data, rows=rows):
            expect_ok(rc, data)
            if data["rows"] != rows:
                raise Wrong("b-matrix differs from B(T0)")

        def check_assembly(rc, data, desc=desc, relabeled=relabeled):
            expect_ok(rc, data)
            if data["matrix"]["rows"] != relabeled:
                raise Wrong("assembled matrix differs from the input")
            if data["surface"] != descriptor(desc):
                raise Wrong(f"assembled surface {data['surface']}, expected {descriptor(desc)}")

        p.cli(f"b-matrix {desc}", ["b-matrix", "--surface", surface], check_b)
        found = p.decide(f"is-surface-matrix {desc}", matrix_arg(relabeled), True)
        if found is None:
            p.skip(f"block-assemble {desc}", "no decomposition")
        else:
            p.cli(f"block-assemble {desc}", ["block-assemble", json.dumps(found)], check_assembly)


# ---------------------------------------------------------------------------
# seed-census: every cluster variable of D6 and A7 as exact Laurent polynomials


def setup_seed_census(sc, rng):
    jobs = []
    for kind, n, variables, seeds in SEED_CENSUS:
        m = sc.make_quiver(kind, n)
        jobs.append((f"{kind}{n}", matrix_arg(relabel(m.rows, shuffled(rng, n))), variables, seeds))
    return jobs


def run_seed_census(p: Pass, jobs):
    for name, matrix, variables, seeds in jobs:
        def check(rc, data, variables=variables, seeds=seeds):
            expect_ok(rc, data)
            if data["count"] != variables or len(data["variables"]) != variables:
                raise Wrong(f"{data['count']} variables, expected {variables}")
            if data["seeds_seen"] != seeds or data["complete"] is not True:
                raise Wrong(f"{data['seeds_seen']} seeds (complete={data['complete']}), expected {seeds}")
            vectors = {tuple(v) for v in data["denominator_vectors"]}
            if len(vectors) != variables or len(data["denominator_vectors"]) != variables:
                raise Wrong("denominator vectors are not pairwise distinct")

        p.cli(f"cluster-vars {name}",
              ["cluster-vars", "--matrix", matrix, "--limit", str(SEED_LIMIT)], check)


WORKLOADS = {
    "tagged-bfs": (setup_tagged_bfs, run_tagged_bfs),
    "class-census": (setup_class_census, run_class_census),
    "block-large": (setup_block_large, run_block_large),
    "seed-census": (setup_seed_census, run_seed_census),
}
