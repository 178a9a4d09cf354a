"""The scrollcohom benchmark.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source tree (``src/scrollcohom`` beside ``bench/``).
A run repeats rounds for about S seconds.  Each round is a fresh
interpreter (``bench/worker.py``), so every cache starts cold, as it does
for a CLI call or a new script.  Load comes from one closed-loop client:
one process, one thread, each op issued when the previous one returned.

With ``--trace 0`` the run reports the end-to-end metrics:

* ``setup_s``: spawn to first op ready (interpreter start, import, input
  generation), the median over the run's rounds;
* ``ops_per_s``: ops completed per second of op time, median over rounds;
* ``op_p50_ms``, ``op_p90_ms``: per-op latency over all rounds' ops;
* ``peak_rss_mb``: the child's peak resident memory, median over rounds.

Times are the child's CPU time (see worker.py): on a shared virtual
machine the wall clock also counts the time the host hands the processor
to other guests, which moves it by a quarter from minute to minute.  The
wall-clock figures are printed alongside.

The share of failed ops (``failed_frac``: raised, or failed its check) is
printed with the sample count; it is 0 on a correct tree, so the result
line carries it as ``failed`` out of ``attempted`` instead of as a metric.

With ``--trace 1`` rounds alternate untraced and traced on the same inputs;
the run reports the per-layer metrics of ``bench/tracer.py`` (median over
traced rounds) and the tracing overhead, untraced over traced ops/s.

Every line but the last starts with ``#``; the last is the JSON result.
The environment of each round is fixed: ``PYTHONHASHSEED=0``,
``SCROLLCOHOM_CACHE`` unset, and a fresh sweep store under ``.bench_tmp/``
that is removed after the round.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
NAMES = ("split-catalog", "omega-engine", "line-highdeg", "cli-session")
HARD_LIMIT_S = 150  # a run ends well inside the 180 s a caller allows


class RoundError(RuntimeError):
    pass


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("SCROLLCOHOM_CACHE", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_round(name: str, seed: int, rnd: int, traced: bool, tmp_root: Path, timeout: float) -> dict:
    store = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=tmp_root))
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", name, "--seed", str(seed),
           "--round", str(rnd), "--trace", str(int(traced)), "--store", str(store)]
    try:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_child_env(), cwd=store, text=True)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            first = proc.stdout.readline().split()
            setup_wall_s = perf_counter() - t0
            rest, _ = proc.communicate()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if proc.returncode != 0 or first[:1] != ["ready"] or not rest.strip():
            raise RoundError(f"{name} round {rnd} exited {proc.returncode} without a result")
        result = json.loads(rest.strip().splitlines()[-1])
    finally:
        shutil.rmtree(store, ignore_errors=True)
    result["setup_s"] = float(first[1])
    result["setup_wall_s"] = setup_wall_s
    return result


def _ops_per_s(rounds) -> float:
    return statistics.median(len(r["latencies"]) / sum(r["latencies"]) for r in rounds)


def _median_layers(rounds) -> dict:
    out = {}
    for name, (_, unit) in rounds[0]["layers"].items():
        values = [r["layers"][name][0] for r in rounds]
        out[name] = {"value": None if None in values else statistics.median(values), "unit": unit}
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    start = perf_counter()
    plain, traced = [], []
    rnd = 0
    try:
        while True:
            left = HARD_LIMIT_S - (perf_counter() - start)
            plain.append(run_round(name, seed, rnd, False, tmp_root, left))
            if trace:
                traced.append(run_round(name, seed, rnd, True, tmp_root, HARD_LIMIT_S - (perf_counter() - start)))
            rnd += 1
            elapsed = perf_counter() - start
            # stop before a further round would run past the time asked for
            if elapsed + elapsed / rnd > seconds:
                break
    finally:
        if not any(tmp_root.iterdir()):
            tmp_root.rmdir()

    rounds = plain + traced
    attempted = sum(len(r["latencies"]) for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    lat_ms = sorted(1000 * x for r in plain for x in r["latencies"])
    attempted_plain = len(lat_ms)
    cuts = statistics.quantiles(lat_ms, n=10)
    e2e = {
        "setup_s": (statistics.median(r["setup_s"] for r in plain), "s"),
        "ops_per_s": (_ops_per_s(plain), "1/s"),
        "op_p50_ms": (cuts[4], "ms"),
        "op_p90_ms": (cuts[8], "ms"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in plain), "MB"),
    }
    if trace:
        metrics = _median_layers(traced)
        traced_rate = _ops_per_s(traced)
        metrics["trace.ops_per_s"] = {"value": traced_rate, "unit": "1/s"}
        metrics["trace.overhead_ratio"] = {"value": e2e["ops_per_s"][0] / traced_rate, "unit": "ratio"}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}

    print(f"# workload {name}  seed {seed}  rounds {len(plain)}{' + %d traced' % len(traced) if trace else ''}"
          f"  op samples {len(lat_ms)} ({len(lat_ms) - sum(1 for x in lat_ms if x <= cuts[8])} beyond p90)")
    for k, (v, u) in e2e.items():
        print(f"#   {k:<12} {v:12.4f} {u}")
    print(f"#   {'failed_frac':<12} {failed / attempted:12.4f}  ({failed} of {attempted} ops)")
    print(f"#   wall clock: setup {statistics.median(r['setup_wall_s'] for r in plain):.4f} s, "
          f"{attempted_plain / sum(r['wall_s'] for r in plain):.4f} ops/s; per round "
          f"{statistics.median(r['wall_s'] for r in plain):.3f} s of ops, "
          f"{statistics.median(r['check_s'] for r in plain):.3f} s of checks (medians)")
    for r in rounds:
        for msg in r["failures"]:
            print(f"#   failure: {msg}")
    print("# meta " + json.dumps(_meta(name, seed, seconds, trace), sort_keys=True))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def _commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "scrollcohom").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _meta(name, seed, seconds, trace) -> dict:
    return {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "commit": _commit(), "src_sha256": _src_digest(),
            "python": platform.python_version(), "implementation": platform.python_implementation(),
            "platform": platform.platform(), "cpu": _cpu_model(), "cpus": os.cpu_count()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 0 < args.seconds <= HARD_LIMIT_S / 2:
        ap.error(f"--seconds must be in (0, {HARD_LIMIT_S // 2}]")
    if not (SRC / "scrollcohom" / "__init__.py").is_file():
        print(f"error: no scrollcohom sources under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(SRC, quiet=1)
    names = NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except RoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
