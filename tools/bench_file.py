"""Write BENCH_<pr>.json: the benchmark on a parent commit and on HEAD.

    python3 tools/bench_file.py --pr N --parent REV

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
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
SECONDS = 6


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


def run(checkout: Path, workload: str) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"bench_file: {workload} in {checkout} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return {"detail": json.loads(lines[-2]), "summary": json.loads(lines[-1])}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--parent", required=True, help="the parent commit (any git revision)")
    args = ap.parse_args()
    if subprocess.run(["git", "diff", "--quiet", "HEAD"], cwd=ROOT).returncode != 0:
        print("bench_file: tracked files differ from HEAD; commit them first", file=sys.stderr)
        return 1

    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    runs = {"parent": {}, "change": {}}
    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        checkouts = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        for side, rev in (("parent", args.parent), ("change", "HEAD")):
            checkouts[side].mkdir()
            unpack(rev, checkouts[side])
        for workload in workloads:
            for side, checkout in checkouts.items():
                runs[side][workload] = result = run(checkout, workload)
                summary = result["summary"]
                print(f"{side} {workload}: correct={summary['correct']} failed={summary['failed']} "
                      f"wall_s={summary['metrics']['wall_s']['value']:.4f}", file=sys.stderr)

    bad = [f"{side} {workload}" for side, by_workload in runs.items()
           for workload, result in by_workload.items()
           if result["summary"]["correct"] is not True or result["summary"]["failed"]]
    if bad:
        print("bench_file: not correct or with failed operations: " + ", ".join(bad), file=sys.stderr)
        return 1
    bench = {
        "command": f"python3 perfbench/run.py --workload W --seed {SEED} --seconds {SECONDS} "
                   "(last two lines, parsed)",
        "host": f"{len(os.sched_getaffinity(0))} usable CPUs, {platform.system()} {platform.machine()}, "
                f"Python {platform.python_version()}; parent and change unpacked side by side from git "
                f"archive and run back to back per workload, {datetime.date.today().isoformat()}",
        "runs": runs,
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
