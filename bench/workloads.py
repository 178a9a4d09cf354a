"""The four benchmark workloads.

Each workload draws one round of operations (ops) from a seeded
``random.Random``, runs them one at a time through the library's public
functions, and checks every answer afterwards by an independent route.
Every round has the same composition (scrolls, criteria, ranks, degrees);
the seed varies the inputs inside it only as far as that leaves the cost
of a round unchanged, so the figures stay steady from seed to seed.  Each
class says how.

A workload object has

* ``generate(rng)`` -> list of ops (plain tuples built from library values);
* ``run(op)`` -> the answer, timed by the caller;
* ``settle(op, answer)`` -> what ``check`` needs, called outside the timing;
* ``check(op, settled)`` -> ``None`` when correct, else a short message.

``WORKLOADS[name](store)`` builds one; ``store`` is an empty directory
the workload may write to.  bench/README.md says which layers each
workload loads and which it bypasses.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
from pathlib import Path

from scrollcohom import (DivClass, SheafSpec, bundle_cohom, character_cohom, check_theorem,
                         ground_truth_classify, line_cohom, make_scroll, normalize_twist, sheaf_cohom,
                         sheaf_h)
from scrollcohom.cli import main as cli_main
from scrollcohom.cohomology import SplitBundle, euler_char

BOX2 = [(p, q) for p in range(-2, 3) for q in range(-2, 3)]


def _reversed_equal(t1, t2) -> bool:
    return tuple(t1) == tuple(reversed(t2))


class Workload:
    def __init__(self, store: Path):
        self.store = store

    def settle(self, op, answer):
        return answer


class SplitCatalog(Workload):
    """check_theorem on seeded split bundles, the traffic of the catalog
    acceptance criteria.  Every (scroll, criterion) pair gets the same
    number of bundles of each rank 1..3; classes are uniform in [-2,2]^2."""

    name = "split-catalog"
    per_stratum = 100

    scrolls = (make_scroll(1, 1, [1, 2]), make_scroll(1, 2, [1, 1, 2]), make_scroll(2, 1, [1, 3]))
    # the paper's vanishing conditions, by label: the degree k of the group
    # a witness reports, from the condition's index tuple
    degree_of = {
        "a": lambda x, idx: x.n + idx[0],
        "b": lambda x, idx: idx[0] + idx[1],
        "c": lambda x, idx: idx[0] + 1,
        "d": lambda x, idx: idx[0],
    }
    ground_truth_key = {"2.1": "pure_h", "c2.5": "pure_h", "2.2": "ohf", "c2.6": "ohf"}

    def generate(self, rng):
        ops = []
        for x in self.scrolls:
            theorems = ("2.1", "2.2", "c2.5", "c2.6") if x.m == 1 else ("2.1", "2.2")
            for theorem in theorems:
                for rank in (1, 2, 3):
                    for _ in range(self.per_stratum):
                        spec = SheafSpec.from_split([rng.choice(BOX2) for _ in range(rank)])
                        ops.append((x, spec, theorem))
        rng.shuffle(ops)
        return ops

    def run(self, op):
        x, spec, theorem = op
        return check_theorem(x, spec, theorem)

    def check(self, op, report):
        x, spec, theorem = op
        want = ground_truth_classify(spec.split)[self.ground_truth_key[theorem]]
        if report.verdict != want:
            return f"{theorem} verdict {report.verdict} on {spec.describe()}, expected {want}"
        if report.witnesses:
            w = report.witnesses[0]
            target = spec.dual(x) if w.side == "dual" else spec
            k = self.degree_of[w.condition](x, w.indices)
            h = sheaf_h(x, target, k, w.twist)
            if w.value == 0 or h != w.value:
                return f"{theorem} witness {w.to_json()} re-evaluates to {h}"
        return None


class OmegaEngine(Workload):
    """sheaf_cohom on twisted cotangent powers Omega^i(T), scanning the box
    T in [-2,2]^2 row by row for each scroll and 0 < i < n, then the two
    Omega-backed splitting checks the paper singles out.

    The seed re-twists each scroll's defining bundle by O(w), w in 0..2,
    rewriting the box in the new basis (scrollcohom.normalize_twist), and
    shuffles the order of the scans.  Re-twisting leaves the monomials, and
    so the work, unchanged, and scans of different (m, n) share no cache
    entry, so every seed costs the same.  Within a scan, later twists reuse
    the profiles of earlier ones, as they do for a researcher scanning a box.
    """

    name = "omega-engine"

    scrolls = (make_scroll(1, 2, [1, 1, 2]), make_scroll(2, 2, [1, 1, 2]), make_scroll(1, 3, [1, 1, 1, 2]),
               make_scroll(2, 3, [1, 1, 1, 1]), make_scroll(1, 4, [1, 1, 1, 1, 2]))
    split_22 = (make_scroll(2, 2, [1, 2, 3]), SheafSpec.from_omega(1, DivClass(2, -2)), "2.2")
    split_23 = (make_scroll(1, 3, [1, 1, 1, 1]), SheafSpec.from_omega(2, DivClass(3, -3)), "2.3")

    def generate(self, rng):
        scans = []
        for base in self.scrolls:
            x, tmap = normalize_twist(base, rng.randint(0, 2))
            for i in range(1, x.n):
                scans.append([("cohom", x, SheafSpec.from_omega(i, tmap.apply(DivClass(p, q))))
                              for p, q in BOX2])
        rng.shuffle(scans)
        ops = [op for scan in scans for op in scan]
        ops.append(("split",) + self.split_22)
        ops.append(("split",) + self.split_23)
        return ops

    def run(self, op):
        if op[0] == "cohom":
            _, x, spec = op
            return sheaf_cohom(x, spec)
        _, x, spec, theorem = op
        return check_theorem(x, spec, theorem)

    @staticmethod
    def _chi_from_resolution(x, i, t):
        """Euler characteristic of Omega^i(T) from the right resolution
        (+)_{|I|=s} O<-s, a_I>, s = i..0, placed in degrees i-s."""
        chi = 0
        for s in range(i + 1):
            sign = -1 if (i - s) % 2 else 1
            for sub in itertools.combinations(x.a, s):
                chi += sign * euler_char(x, t + DivClass(-s, sum(sub)))
        return chi

    def check(self, op, answer):
        if op[0] == "cohom":
            _, x, spec = op
            chi = sum(h if k % 2 == 0 else -h for k, h in enumerate(answer))
            want = self._chi_from_resolution(x, spec.omega_i, spec.omega_twist)
            if chi != want:
                return f"chi of {spec.describe()} on {x} is {chi}, resolution gives {want}"
            return None
        _, x, spec, theorem = op
        if theorem == "2.2" and answer.verdict is not False:
            return "2.2 on Omega^1(2,-2) must fail"
        if theorem == "2.3" and answer.conclusion != "Omega^2<3,-3>":
            return f"2.3 on Omega^2(3,-3) concluded {answer.conclusion}"
        return None


class LineHighdeg(Workload):
    """line_cohom and bundle_cohom far from the origin, on fiber dimensions
    3 and 4: one line query at each |p| from 10 to the shape's top level,
    the sign alternating, and two-summand bundles at the middle degree.
    Every query is on a scroll of its own, so none shares a cache entry with
    another; q runs over [-8,8].

    The set of queries is fixed and the seed only orders it.  A query's cost
    depends on its exact integers, not just its degree: on the signs of the
    base twists plus q, and on how many of them CPython keeps as cached
    small ints.  Drawing the twists swung a run by 7% from seed to seed."""

    name = "line-highdeg"

    # (m, n, top level); the O(p^n) cost caps the level on n = 4
    shapes = ((1, 3, 45), (2, 3, 45), (1, 4, 30))
    oracle_checks = 3  # character-oracle checks per round, on the cheapest queries

    def generate(self, rng):
        ops = []
        for m, n, top in self.shapes:
            # every |p| from 10 to the top once, the sign alternating, so
            # that the costs spread evenly instead of in clusters
            degrees = [level if level % 2 == 0 else -level for level in range(10, top + 1)]
            mid = (10 + top) // 2
            bundles = [mid, -mid]
            bases = itertools.combinations_with_replacement(range(1, 7), n + 1)
            qs = itertools.cycle(range(-8, 9))
            for k, (a, p) in enumerate(zip(bases, degrees + bundles)):
                x = make_scroll(m, n, a)
                if k < len(degrees):
                    ops.append(("line", x, DivClass(p, next(qs))))
                else:
                    ops.append(("bundle", x, SplitBundle((DivClass(p, next(qs)), DivClass(p, next(qs))))))
        rng.shuffle(ops)
        cheapest = sorted((abs(op[2].p), k) for k, op in enumerate(ops) if op[0] == "line")
        oracle = {k for _, k in cheapest[:self.oracle_checks]}
        return [op + (k in oracle,) for k, op in enumerate(ops)]

    def run(self, op):
        kind, x, arg, _ = op
        if kind == "line":
            return line_cohom(x, arg)
        return bundle_cohom(x, arg)

    def check(self, op, answer):
        kind, x, arg, oracle = op
        kx = x.canonical_class()
        if kind == "line":
            dual = line_cohom(x, kx - arg)
        else:
            dual = bundle_cohom(x, arg.dual(), kx)
        if not _reversed_equal(answer, dual):
            return f"Serre duality fails for {kind} {arg} on {x}: {answer} vs {dual}"
        if oracle and tuple(answer) != character_cohom(x, arg):
            return f"character oracle disagrees for {arg} on {x}: closed form {answer}"
        return None


class CliSession(Workload):
    """A researcher's shell session: cli.main on reg, pqreg, msreg, compare,
    table and sweep argvs, stdout captured.  The light commands run on small
    random scrolls and split sheaves.  The sweeps follow a fixed plan over
    overlapping scroll families against one fresh store, so early sweeps
    write records that later sweeps read; the tenth and the last sweep
    repeat the second verbatim.  The seed places the sweeps among the light
    commands.  A sweep costs a hundred light commands, so a drawn plan
    would swing the figures from seed to seed."""

    name = "cli-session"

    light_per_command = 14
    # (m values, n values, a_max, ops); a_min is 1
    sweep_plan = (
        ([1], [1], 2, "reg,compare"),
        ([1], [1], 3, "reg,compare"),
        ([1], [1, 2], 2, "cohom"),
        ([1], [2], 2, "cohom,reg"),
        ([2], [1], 2, "compare"),
        ([1, 2], [1], 2, "compare,reg"),
        ([1], [1, 2], 3, "reg"),
        ([1], [1], 3, "cohom"),
        ([1], [2], 2, "compare"),
        ([1], [1], 3, "reg,compare"),
    )

    def __init__(self, store: Path):
        super().__init__(store)
        self.csv_seen: dict[str, str] = {}

    @staticmethod
    def _scroll(rng, semipositive):
        m, n = rng.choice(((1, 1), (1, 2), (2, 1)))
        lo = 0 if semipositive else -1
        a = sorted(rng.randint(lo, 3) for _ in range(n + 1))
        return json.dumps({"m": m, "n": n, "a": a})

    @staticmethod
    def _sheaf(rng):
        rank = rng.randint(1, 2)
        return json.dumps({"split": [[rng.randint(-1, 1), rng.randint(-1, 1)] for _ in range(rank)]})

    def generate(self, rng):
        ops = []
        for command in ("reg", "pqreg", "msreg", "compare", "table"):
            for _ in range(self.light_per_command):
                # msreg and compare need H nef, so a semipositive scroll
                argv = [command, "--scroll", self._scroll(rng, command in ("msreg", "compare")),
                        "--sheaf", self._sheaf(rng)]
                if command in ("pqreg", "msreg"):
                    argv.append(f"--at={rng.randint(-2, 2)},{rng.randint(-2, 2)}")
                elif command in ("compare", "table"):
                    argv += ["--pbox=-2:2", "--qbox=-2:2"]
                if command == "table" and rng.random() < 0.5:
                    argv += ["--fmt", "json"]
                ops.append(("cli", argv))
        rng.shuffle(ops)
        sweeps = [["sweep", "--family", json.dumps({"m": ms, "n": ns, "a_min": 1, "a_max": a_max}),
                   "--ops", sweep_ops, "--pbox=-2:2", "--qbox=-2:2", "--out", str(self.store)]
                  for ms, ns, a_max, sweep_ops in self.sweep_plan]
        sweeps.append(list(sweeps[1]))
        # spread the sweeps through the session in plan order
        total = len(ops) + len(sweeps)
        slots = set(rng.sample(range(total), len(sweeps)))
        light, sweeps = iter(ops), iter(sweeps)
        return [("cli", next(sweeps)) if k in slots else next(light) for k in range(total)]

    def run(self, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli_main(op[1])
        return rc, out.getvalue(), err.getvalue()

    def settle(self, op, answer):
        argv = op[1]
        csv_text = None
        if argv[0] == "sweep" and answer[0] == 0:
            csv_text = (self.store / "summary.csv").read_text()
        return answer + (csv_text,)

    def check(self, op, settled):
        argv = op[1]
        rc, stdout, stderr, csv_text = settled
        if rc != 0:
            return f"{argv[0]} exited {rc}: {stderr.strip()[:200]}"
        if argv[0] == "table" and "--fmt" not in argv:
            rows = list(csv.reader(io.StringIO(stdout)))
            if rows[0][:2] != ["p", "q"] or len(rows) != 26:
                return "table CSV does not have a header and 25 rows"
            return None
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return f"{argv[0]} printed unparsable JSON: {exc}"
        if argv[0] == "compare" and payload.get("ok") is not True:
            return f"compare reported ok={payload.get('ok')}"
        if argv[0] == "sweep":
            key = json.dumps(argv[1:-1])
            first = self.csv_seen.setdefault(key, csv_text)
            if first != csv_text:
                return "a repeated sweep family gave a different CSV"
        return None


WORKLOADS = {w.name: w for w in (SplitCatalog, OmegaEngine, LineHighdeg, CliSession)}

