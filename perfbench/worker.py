"""One workload pass in a fresh process, as run.py starts it.

    python3 perfbench/worker.py --workload tables --seed 1 --trace 0

Prints "ready" once the package is imported and the inputs are generated
(set-up ends there), then one JSON line with the pass's measurements.
A traced pass also writes its spans to out/<workload>-seed<seed>.spans.jsonl
in this directory.
Every pass starts with the package's caches cold, as a CLI user's does.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"  # where a traced pass writes its spans


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="exit after set-up, so run.py can time set-up alone")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import inputs
    import tracing
    import workloads

    data = inputs.GENERATORS[args.workload](args.seed)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    p = workloads.Pass()
    run = workloads.RUNNERS[args.workload]
    t0, c0 = time.perf_counter(), time.process_time()
    if tracer is None:
        run(data, p)
    else:
        with tracer.span("bench", "pass") as root:
            run(data, p)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "latencies_s": p.latencies,
        "attempted": p.attempted,
        "failed": p.failed,
        "capped": p.capped,
        "notes": p.notes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"], result["accounting"] = tracer.metrics(root)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
