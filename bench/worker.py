"""One benchmark round in a fresh interpreter (started by run.py).

Draws the round's ops from the seed, prints ``ready`` and the CPU time
spent so far once they are built, runs the ops one after the other, timing
each, then checks every answer outside the timing.  The last line of
stdout is a JSON object with the latencies, peak resident memory, the
failures and, when traced, the per-layer metrics.

Times are CPU time of this process.  The client is one thread doing pure
computation, so its CPU time is its wall time less the time the machine
gave the processor to others; wall times are reported too, for reference.

    python3 bench/worker.py --workload NAME --seed N --round R --trace 0|1 --store DIR
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
from pathlib import Path
from time import perf_counter, process_time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--store", type=Path, required=True)
    args = ap.parse_args()

    import workloads

    workload = workloads.WORKLOADS[args.workload](args.store)
    ops = workload.generate(random.Random(f"{args.workload}/{args.seed}/{args.round}"))
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    print(f"ready {process_time()}", flush=True)

    if tracer:
        tracer.active = True
    latencies, settled = [], []
    wall = perf_counter()
    for op in ops:
        t0 = process_time()
        try:
            answer, error = workload.run(op), None
        except Exception as exc:  # a raising op is a failed op, not a crashed run
            answer, error = None, f"{type(exc).__name__}: {exc}"
        latencies.append(process_time() - t0)
        settled.append((workload.settle(op, answer), None) if error is None else (None, error))
    wall = perf_counter() - wall
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = {}
    if tracer:
        tracer.active = False
        layers = tracer.metrics()
        layers["sweep.store_bytes"] = (sum(f.stat().st_size for f in args.store.rglob("*") if f.is_file()),
                                       "bytes")

    t_check = perf_counter()
    failures = []
    for op, (answer, error) in zip(ops, settled):
        if error is None:
            try:
                error = workload.check(op, answer)
            except Exception as exc:  # a check that cannot run counts the op as failed
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append(error)

    print(json.dumps({"latencies": latencies, "rss_mb": rss_mb, "failed": len(failures),
                      "failures": failures[:5], "wall_s": wall, "check_s": perf_counter() - t_check,
                      "layers": layers}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
