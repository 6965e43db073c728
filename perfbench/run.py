"""surfcluster benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from src/.
Repetitions run one at a time, each in a fresh interpreter (worker.py), for
about --seconds seconds. A fresh interpreter per pass matters because module
state such as mutation's class cache would otherwise make later passes
cheaper than any CLI user's call.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced passes and reports the per-layer metrics and the tracing overhead.
Times are at the reference speed of speed.py.
The last line of standard output is one JSON object; the line before it
records the environment and the raw samples, which are also written under
.bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

import speed
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
SETUP_SAMPLES = 15     # set-up is timed in every child; extra set-up-only children top it up
RUN_LIMIT_S = 170      # a run must end within 180 s, children included


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("SURFCLUSTER_") and k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    # a bytecode cache of the benchmark's own, kept even when the caller turns
    # caching off: set-up imports compiled modules, as from an installed package
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    return env


def commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else ref[5:]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "surfcluster").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Runner:
    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.start = monotonic()
        self.env = child_env()
        self.records: list[dict] = []
        self.lost: list[str] = []    # repetitions that gave no record
        self.lost_passes = 0

    def elapsed(self) -> float:
        return monotonic() - self.start

    def child(self, mode: str, spans_path: Path | None = None) -> dict | None:
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode]
        if spans_path is not None:
            cmd += ["--spans", str(spans_path)]
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(1.0, RUN_LIMIT_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            return self._lose(mode, "timed out")
        if proc.returncode != 0:
            return self._lose(mode, f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        if Path(record["source"]).resolve().parent != SRC / "surfcluster":
            raise SystemExit(f"perfbench: surfcluster was imported from {record['source']}, not {SRC}")
        record["mode"] = mode
        self.records.append(record)
        return record

    def _lose(self, mode: str, why: str) -> None:
        self.lost.append(f"{mode}: {why}")
        self.lost_passes += mode != "setup"

    def repeat(self, modes: tuple[str, ...]) -> None:
        """Run rounds of `modes` while another round fits into --seconds."""
        rounds = 0
        while True:
            for mode in modes:
                spans_path = None
                if mode == "traced":
                    spans_path = OUT / f"spans-{self.workload}-seed{self.seed}-{rounds}.json"
                if self.child(mode, spans_path) is None:
                    return
            rounds += 1
            if self.elapsed() * (rounds + 1) / rounds > self.seconds:
                return

    def passes(self, mode: str) -> list[dict]:
        return [r for r in self.records if r["mode"] == mode]


def quantile(values, q: int) -> float:
    """The q-th percentile, interpolated between the order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(runner: Runner) -> dict:
    passes = runner.passes("pass")
    while len(runner.records) < SETUP_SAMPLES and runner.elapsed() < RUN_LIMIT_S / 2:
        if runner.child("setup") is None:
            break
    # a call's latency is its median over the passes; percentiles are taken
    # over the workload's calls, so they do not depend on the pass count
    by_call: dict[str, list[float]] = {}
    for rec in passes:
        for op in rec["ops"]:
            if op["s"] is not None:
                by_call.setdefault(op["label"], []).append(op["ref_s"])
    calls = [statistics.median(v) * 1000 for v in by_call.values()]
    return {
        "wall_s": (statistics.median(r["ref_wall_s"] for r in passes), "s"),
        "setup_s": (statistics.median(r["ref_setup_s"] for r in runner.records), "s"),
        "peak_rss_mib": (statistics.median(r["peak_rss_mib"] for r in passes), "MiB"),
        "call_p50_ms": (quantile(calls, 50), "ms"),
        "call_p90_ms": (quantile(calls, 90), "ms"),
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "frac"
    return "B" if name.endswith("bytes_out") else "count"


def per_layer(runner: Runner) -> dict:
    traced = runner.passes("traced")
    untraced = runner.passes("pass")
    metrics = {}
    for name in traced[0]["layers"]:
        metrics[name] = (statistics.median(r["layers"][name] for r in traced), layer_unit(name))
    overhead = (statistics.median(r["ref_wall_s"] for r in traced)
                / statistics.median(r["ref_wall_s"] for r in untraced) - 1)
    metrics["trace.overhead_frac"] = (overhead, "frac")
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be positive")
    if not (SRC / "surfcluster" / "__init__.py").is_file():
        print(f"perfbench: no surfcluster sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)

    runner = Runner(args.workload, args.seed, args.seconds)
    runner.repeat(("pass", "traced") if args.trace else ("pass",))
    if not runner.passes("pass") or (args.trace and not runner.passes("traced")):
        print("perfbench: no pass completed:\n" + "\n".join(runner.lost), file=sys.stderr)
        return 1
    metrics = per_layer(runner) if args.trace else end_to_end(runner)

    passes = [r for r in runner.records if "ops" in r]
    ops = [op for r in passes for op in r["ops"]]
    ops_per_pass = len(passes[0]["ops"])
    attempted = len(ops) + ops_per_pass * runner.lost_passes
    failed = sum(op["status"] != "ok" for op in ops) + ops_per_pass * runner.lost_passes
    if not args.trace:
        metrics["ok_frac"] = (1 - failed / attempted, "frac")
    summary = {
        "correct": not any(op["status"] == "wrong" for op in ops),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "commit": commit(),
        "source_sha256": source_digest(), "nproc": len(os.sched_getaffinity(0)),
        "reference_probe_s": speed.REFERENCE_S,
        "passes": [{k: r[k] for k in ("mode", "wall_s", "ref_wall_s", "probe_s", "setup_s",
                                      "ref_setup_s", "peak_rss_mib")} for r in passes],
        "setup_samples": [[r["setup_s"], r["ref_setup_s"]] for r in runner.records],
        "calls_per_pass": ops_per_pass,
        "problems": [f"{op['label']}: {op['status']}: {op['detail']}"
                     for op in ops if op["status"] != "ok"] + runner.lost,
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"summary": summary, "detail": detail}, indent=1))
    print(json.dumps({"perfbench": detail}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
