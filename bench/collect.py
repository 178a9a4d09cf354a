"""Run the benchmark over several seeds and summarise the spread.

    python3 bench/collect.py --workloads all --seeds 1-10 [--trace 0|1] [--out FILE]

Runs ``bench/run.py`` once per workload and seed, one run at a time, with
the ``run_seconds`` of ``BENCHMARK.json``.  For each metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the distance between the quartiles as a share of the median, next
to the metric's bound.  It also checks that each run reports exactly the
metrics ``BENCHMARK.json`` lists.  ``--out`` writes every run and the
summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else None}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="all", help="comma list of workload names, or all")
    ap.add_argument("--seeds", default="1-10", help="lo-hi or a comma list")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]] if args.workloads == "all" else args.workloads.split(",")
    declared = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}
    seeds = _seeds(args.seeds)
    report = {"seconds": spec["run_seconds"], "trace": args.trace, "seeds": seeds, "workloads": {}}
    ok = True
    for name in names:
        runs, meta = [], None
        for seed in seeds:
            result, comments = run_once(name, seed, spec["run_seconds"], args.trace)
            meta = next((json.loads(c[len("# meta "):]) for c in comments if c.startswith("# meta ")), meta)
            if set(result["metrics"]) != set(declared):
                print(f"{name} seed {seed}: metrics differ from BENCHMARK.json: "
                      f"{sorted(set(result['metrics']) ^ set(declared))}")
                ok = False
            if not result["correct"]:
                print(f"{name} seed {seed}: {result['failed']} of {result['attempted']} ops failed")
                ok = False
            runs.append({"seed": seed, **result})
        summary = {}
        print(f"{name}")
        for metric, decl in declared.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            if None in values:
                summary[metric] = {"absent": True}
                continue
            s = summarise(values)
            s["unit"] = decl["unit"]
            summary[metric] = s
            bound = decl.get("bound")
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            note = "" if bound is None else f"  bound {bound}"
            if bound is not None and metric != "setup_s" and s["spread"] is not None and s["spread"] > bound:
                note += "  SPREAD OVER BOUND"
                ok = False
            print(f"  {metric:<45} median {s['median']:14.5g} {decl['unit']:<6} q1 {s['q1']:12.5g} "
                  f"q3 {s['q3']:12.5g}  spread {spread}{note}")
        report["workloads"][name] = {"meta": meta, "summary": summary, "runs": runs}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
