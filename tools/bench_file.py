"""Write BENCH_<pr>.json: the benchmark on a parent commit and on HEAD.

    python3 tools/bench_file.py --pr N --parent REV [--seed S]

Run from anywhere inside a git checkout whose tracked files match HEAD.
Both sides are unpacked the same way, `git archive REV` and `git archive
HEAD` into two sibling temporary directories, each with HEAD's perfbench/,
so both run the same harness from the same kind of directory. For each
workload of BENCHMARK.json, perfbench/run.py runs on the parent and then on
HEAD, back to back, on seed 7 for 6 s, the settings of every BENCH file.
The last two lines of each run (the detail line, with the commit, the
source digest, Python and nproc, and the summary line) are written, parsed,
to BENCH_<pr>.json at the root of the checkout as
runs.parent|change.<workload>.{detail, summary}.

With --seed S, each workload then runs PAIRS = 10 more pairs on seed S
from the same two directories, the parent first in even pairs and the
change first in odd ones. A claim needs those ten pairs on a seed other
than 7 that was not used while building or sizing the change. For each
end-to-end metric of BENCHMARK.json, pairs.workloads.<workload>.<metric>
holds the samples of each side, their medians and quartiles, and how many
pairs the change won (`pair_summary`).
BENCHMARK.json gives each metric's direction; its bounds are not applied.

Exits 1, writing nothing, if a tracked file differs from HEAD or a run
fails, is not `correct` or has failed operations.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
SECONDS = 6
PAIRS = 10


def unpack(rev: str, dest: Path) -> None:
    """`rev`'s tree in `dest` with HEAD's perfbench/ copied in."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        raise SystemExit(f"bench_file: git archive {rev} failed")
    shutil.rmtree(dest / "perfbench", ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", dest / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    # run.py reads the commit from .git/HEAD, which an archive lacks
    (dest / ".git").mkdir()
    (dest / ".git" / "HEAD").write_text(sha + "\n")


def run(checkout: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"bench_file: {workload} in {checkout} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    result = {"detail": json.loads(lines[-2]), "summary": json.loads(lines[-1])}
    summary = result["summary"]
    print(f"{checkout.name} {workload} seed {seed}: correct={summary['correct']} "
          f"failed={summary['failed']} wall_s={summary['metrics']['wall_s']['value']:.4f}", file=sys.stderr)
    return result


def bad(result: dict) -> bool:
    return result["summary"]["correct"] is not True or bool(result["summary"]["failed"])


def pair_summary(parent: list, change: list, better: str) -> dict:
    """Pair i is (parent[i], change[i]); `better` is "lower" or "higher".

    The change wins a pair when its sample is strictly better; a tie counts
    for neither side. Quartiles are the inclusive first and third of
    statistics.quantiles, as perfbench/run.py takes percentiles. The gain is
    beyond the parent's IQR when the change's median is better than the
    parent's by more than the parent's interquartile range."""
    sign = 1 if better == "lower" else -1
    medians = {"parent": statistics.median(parent), "change": statistics.median(change)}
    quartiles = {side: statistics.quantiles(samples, n=4, method="inclusive")[::2]
                 for side, samples in (("parent", parent), ("change", change))}
    q1, q3 = quartiles["parent"]
    return {
        "parent": parent,
        "change": change,
        "median": medians,
        "quartiles": quartiles,
        "change_won": sum(sign * (p - c) > 0 for p, c in zip(parent, change)),
        "ties": sum(p == c for p, c in zip(parent, change)),
        "beyond_parent_iqr": sign * (medians["parent"] - medians["change"]) > q3 - q1,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--parent", required=True, help="the parent commit (any git revision)")
    ap.add_argument("--seed", type=int, help=f"run {PAIRS} alternating pairs per workload on this seed")
    args = ap.parse_args()
    if subprocess.run(["git", "diff", "--quiet", "HEAD"], cwd=ROOT).returncode != 0:
        print("bench_file: tracked files differ from HEAD; commit them first", file=sys.stderr)
        return 1

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    runs = {"parent": {}, "change": {}}
    paired = {w: [] for w in workloads}   # per workload, one {side: result} per pair
    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        checkouts = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        for side, rev in (("parent", args.parent), ("change", "HEAD")):
            checkouts[side].mkdir()
            unpack(rev, checkouts[side])
        for workload in workloads:
            for side, checkout in checkouts.items():
                runs[side][workload] = run(checkout, workload, SEED)
        for workload in workloads if args.seed is not None else ():
            for i in range(PAIRS):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                paired[workload].append({side: run(checkouts[side], workload, args.seed) for side in order})

    failed = [f"{side} {workload}" for side, by_workload in runs.items()
              for workload, result in by_workload.items() if bad(result)]
    failed += [f"{side} {workload} pair {i}" for workload, pairs in paired.items()
               for i, pair in enumerate(pairs) for side, result in pair.items() if bad(result)]
    if failed:
        print("bench_file: not correct or with failed operations: " + ", ".join(failed), file=sys.stderr)
        return 1
    bench = {
        "command": f"python3 perfbench/run.py --workload W --seed {SEED} --seconds {SECONDS} "
                   "(last two lines, parsed)",
        "host": f"{len(os.sched_getaffinity(0))} usable CPUs, {platform.system()} {platform.machine()}, "
                f"Python {platform.python_version()}; parent and change unpacked side by side from git "
                f"archive and run back to back per workload, {datetime.date.today().isoformat()}",
        "runs": runs,
    }
    if args.seed is not None:
        def samples(pairs, side, metric):
            return [pair[side]["summary"]["metrics"][metric]["value"] for pair in pairs]

        bench["pairs"] = {
            "command": f"python3 perfbench/run.py --workload W --seed {args.seed} --seconds {SECONDS}, "
                       f"{PAIRS} pairs per workload after the single runs, the parent first in even pairs",
            "workloads": {workload: {m["name"]: pair_summary(samples(pairs, "parent", m["name"]),
                                                             samples(pairs, "change", m["name"]), m["better"])
                                     for m in benchmark["end_to_end"]}
                          for workload, pairs in paired.items()},
        }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
