"""One repetition of a workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|pass|traced [--spans PATH]

Times the import of surfcluster plus the seeded set-up, then (unless the mode
is `setup`) runs one pass over the job list, checking every output. In mode
`traced` the pass runs under the span tracer, whose spans are written to
--spans afterwards. Every time is recorded as measured and scaled to the
reference speed of speed.py (`ref_` fields). The last line of standard output
is the repetition's record as JSON. run.py starts this script; it is not a
user entry point.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import spans
import speed
import workloads


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass", "traced"), required=True)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args()
    setup, run_pass = workloads.WORKLOADS[args.workload]

    for _ in range(speed.EDGE_PROBES):  # the first runs of a loop are unspecialised
        speed.probe_seconds()
    probes = [speed.probe_seconds() for _ in range(speed.EDGE_PROBES)]
    t0 = perf_counter()
    sc = importlib.import_module("surfcluster")
    importlib.import_module("surfcluster.cli")
    inputs = setup(sc, random.Random(f"{args.workload}/{args.seed}"))
    setup_s = perf_counter() - t0
    probes += [speed.probe_seconds() for _ in range(speed.EDGE_PROBES)]
    record = {"setup_s": setup_s, "ref_setup_s": speed.scale(setup_s, probes),
              "source": sc.__file__}
    if args.mode == "setup":
        print(json.dumps(record))
        return 0

    sampler = speed.Sampler()
    p = workloads.Pass(sc, sampler)
    if args.mode == "traced":
        # spans use the sampler's clock too, so no probe lands in a span
        with sampler, spans.Tracer(clock_ns=sampler.clock_ns) as tracer:
            run_pass(p, inputs)
    else:
        with sampler:
            run_pass(p, inputs)
    timed = [op for op in p.ops if op["s"] is not None]
    for op in timed:
        op["ref_s"] = sampler.scale(op["s"], op["start"], op["end"])
    record.update(
        wall_s=sum(op["s"] for op in timed),
        ref_wall_s=sum(op["ref_s"] for op in timed),
        probe_s=statistics.median(x for _, x in sampler.samples),
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        ops=p.ops,
    )
    if args.mode == "traced":
        bench = {"bytes_out": p.bytes_out, "bfs_nodes": p.bfs_nodes,
                 "bfs_edges": p.bfs_edges, "verdicts": p.verdicts}
        # layer times move to the reference speed by the pass's own factor
        factor = record["ref_wall_s"] / record["wall_s"]
        layers = spans.layer_metrics(tracer.spans, bench)
        record["layers"] = {name: v * factor if name.endswith("_s") else v
                            for name, v in layers.items()}
        if args.spans is not None:
            tracer.write(args.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
