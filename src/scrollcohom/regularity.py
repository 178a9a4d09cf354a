"""Castelnuovo-Mumford style regularity on scrolls.

A sheaf E is (p,q)-regular when, writing P = p*H + q*F,

  (a)  h^{n+j}(E(P)<-n, c-j-1>) = 0   for 0 <= j <= m, except (n,j) = (0,0)
  (b)  h^{i+j}(E(P)<-i, i-j>)   = 0   for 0 <= j <= m, 0 <= i < n,
                                      except (i,j) = (0,0)

For m = 0 this is the classical notion on projective space, and for n = 0 a
regularity over Veronese embeddings.  Reg(E) is the least p with E
(p,0)-regular; on positive scrolls regularity is preserved by nonnegative
twists, which justifies finding Reg by a downward scan from a provably
regular twist.

The multigraded notion with respect to the nef pair {H, F} asks instead for
h^{i+j}(E(P)<-i, -j>) = 0 for all i, j >= 0 with (i,j) != (0,0); degrees
above dim X vanish identically, so the check truncates at i+j <= n+m.
Multigraded regularity implies (p,q)-regularity but not conversely.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scroll import DivClass, Scroll
from .sheaves import SheafSpec, sheaf_h
from .windows import Cond, cond_t_intervals

INF = float("inf")


@dataclass(frozen=True)
class Failure:
    label: str
    degree: int
    i: int
    j: int
    twist: DivClass
    value: int

    def to_json(self) -> dict:
        return {"condition": self.label, "degree": self.degree, "i": self.i,
                "j": self.j, "twist": self.twist.to_json(), "h": self.value}


@dataclass(frozen=True)
class RegularityReport:
    kind: str
    target: tuple[int, int]
    verdict: bool
    failures: tuple[Failure, ...]

    def to_json(self) -> dict:
        return {"kind": self.kind, "target": list(self.target), "verdict": self.verdict,
                "failures": [f.to_json() for f in self.failures]}


def pq_conditions(x: Scroll) -> list[Cond]:
    conds = []
    for j in range(x.m + 1):
        if (x.n, j) == (0, 0):
            continue
        conds.append(Cond("a", x.n + j, -x.n, x.c - j - 1, idx=(x.n, j)))
    for j in range(x.m + 1):
        for i in range(x.n):
            if (i, j) == (0, 0):
                continue
            conds.append(Cond("b", i + j, -i, i - j, idx=(i, j)))
    return conds


def rns_pq_conditions(x: Scroll) -> list[Cond]:
    """The m = 1 restatement: (a) top pair, (b) j = 1 column, (c) j = 0 row."""
    if x.m != 1:
        raise ValueError("the rational normal scroll form needs base dimension 1")
    conds = [Cond("a", x.n + 1, -x.n, x.c - 2, idx=(x.n, 1))]
    if x.n > 0:
        conds.append(Cond("a", x.n, -x.n, x.c - 1, idx=(x.n, 0)))
    for i in range(x.n):
        conds.append(Cond("b", i + 1, -i, i - 1, idx=(i, 1)))
    for i in range(1, x.n):
        conds.append(Cond("c", i, -i, i, idx=(i, 0)))
    return conds


def ms_conditions(x: Scroll) -> list[Cond]:
    conds = []
    for total in range(1, x.dim + 1):
        for i in range(total + 1):
            j = total - i
            conds.append(Cond("ms", total, -i, -j, idx=(i, j)))
    return conds


def _run_conditions(x: Scroll, spec: SheafSpec, conds, p: int, q: int, kind: str) -> RegularityReport:
    failures = []
    for cond in conds:
        h = sheaf_h(x, spec, cond.k, DivClass(p + cond.dp, q + cond.dq))
        if h:
            i, j = cond.idx
            failures.append(Failure(cond.label, cond.k, i, j, DivClass(p + cond.dp, q + cond.dq), h))
    failures.sort(key=lambda f: (f.i, f.j, f.label))
    return RegularityReport(kind, (p, q), not failures, tuple(failures))


def is_pq_regular(x: Scroll, spec: SheafSpec, p: int, q: int) -> RegularityReport:
    return _run_conditions(x, spec, pq_conditions(x), p, q, "pq")


def rns_is_pq_regular(x: Scroll, spec: SheafSpec, p: int, q: int) -> RegularityReport:
    return _run_conditions(x, spec, rns_pq_conditions(x), p, q, "rns-pq")


def is_ms_regular(x: Scroll, spec: SheafSpec, p: int, q: int) -> RegularityReport:
    """Multigraded regularity with respect to {H, F}; needs both nef."""
    if not x.is_semipositive:
        raise ValueError("multigraded regularity needs a semipositive scroll (H nef)")
    return _run_conditions(x, spec, ms_conditions(x), p, q, "ms")


@dataclass(frozen=True)
class RegResult:
    value: int | None
    monotone_verified: bool
    scan: tuple[int, int]
    flags: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {"reg": self.value, "monotone_verified": self.monotone_verified,
                "scan": list(self.scan), "flags": list(self.flags)}


def reg_detail(x: Scroll, spec: SheafSpec, scan: tuple[int, int] | None = None) -> RegResult:
    """Least p with E (p,0)-regular.

    On a positive scroll the scan window is derived from the closed-form
    nonvanishing ranges of the regularity conditions, every twist above it
    is provably regular, and monotonicity of regular twists makes the
    downward scan exact.  On a non-positive scroll without an explicit scan
    range this is the one default policy, used by the library, the CLI and
    the sweep: scan p in +-3(dim+2) and flag the result as
    monotonicity-unverified.
    """
    if scan is None and not x.is_positive:
        res = reg_detail(x, spec, (-3 * (x.dim + 2), 3 * (x.dim + 2)))
        return RegResult(res.value, False, res.scan, res.flags + ("default-scan-on-non-positive-scroll",))
    conds = pq_conditions(x)
    if scan is None:
        finite = []
        any_interval = False
        for ivs in cond_t_intervals(x, spec, conds):
            for lo, hi in ivs:
                any_interval = True
                if hi != INF:
                    finite.append(hi)
                if lo != -INF:
                    finite.append(lo)
        if not any_interval:
            return RegResult(None, True, (0, 0), ("no-condition-can-fail",))
        # some regular twist exists; monotonicity on positive scrolls makes
        # the regular set an up-set, so any verified start is sound
        start = int(max(finite)) + 1 if finite else 1
        bump = 1
        while not is_pq_regular(x, spec, start, 0).verdict:
            start += bump
            bump *= 2
            if bump > 4096:
                raise RuntimeError("no regular twist found; scroll/sheaf outside supported range")
        floor = min(int(min(finite)) if finite else 0, start) - 4 * (x.dim + 2) - 16
        p = start
        while p - 1 >= floor and is_pq_regular(x, spec, p - 1, 0).verdict:
            p -= 1
        if p - 1 >= floor:
            return RegResult(p, True, (p - 1, start))
        raise RuntimeError("downward regularity scan did not terminate inside the sound window")
    lo, hi = scan
    verdicts = {p: is_pq_regular(x, spec, p, 0).verdict for p in range(lo, hi + 1)}
    value = None
    for p in range(lo, hi + 1):
        if verdicts[p] and all(verdicts[r] for r in range(p, hi + 1)):
            value = p
            break
    monotone = all(verdicts[p + 1] for p in range(lo, hi) if verdicts[p])
    return RegResult(value, monotone, (lo, hi), ("explicit-scan",))


def reg(x: Scroll, spec: SheafSpec, scan: tuple[int, int] | None = None) -> int | None:
    """Reg(E) as a bare integer.  Raises on a non-positive scroll without an
    explicit scan range, where the default scan leaves monotonicity unverified."""
    if scan is None and not x.is_positive:
        raise ValueError("need an explicit scan range on a non-positive scroll")
    return reg_detail(x, spec, scan).value


@dataclass(frozen=True)
class ComparePoint:
    p: int
    q: int
    ms: bool
    pq: bool


@dataclass(frozen=True)
class CompareReport:
    points: tuple[ComparePoint, ...]
    separations: tuple[tuple[int, int], ...]  # ms false, pq true
    violations: tuple[tuple[int, int], ...]   # ms true, pq false (must be empty)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {"points": [[c.p, c.q, c.ms, c.pq] for c in self.points],
                "separations": [list(s) for s in self.separations],
                "violations": [list(v) for v in self.violations],
                "ok": self.ok}


def compare_regularities(x: Scroll, spec: SheafSpec, pbox: tuple[int, int], qbox: tuple[int, int]) -> CompareReport:
    """Grid comparison of multigraded vs (p,q)-regularity.  Multigraded
    implies (p,q); any (true, false) point is recorded as a violation."""
    points, seps, bad = [], [], []
    for p in range(pbox[0], pbox[1] + 1):
        for q in range(qbox[0], qbox[1] + 1):
            ms = is_ms_regular(x, spec, p, q).verdict
            pq = is_pq_regular(x, spec, p, q).verdict
            points.append(ComparePoint(p, q, ms, pq))
            if ms and not pq:
                bad.append((p, q))
            if pq and not ms:
                seps.append((p, q))
    return CompareReport(tuple(points), tuple(seps), tuple(bad))
