"""Castelnuovo-Mumford style regularity on scrolls.

A sheaf E is (p,q)-regular when, writing P = p*H + q*F,

  (a)  h^{n+j}(E(P)<-n, c-j-1>) = 0   for 0 <= j <= m, except (n,j) = (0,0)
  (b)  h^{i+j}(E(P)<-i, i-j>)   = 0   for 0 <= j <= m, 0 <= i < n,
                                      except (i,j) = (0,0)

For m = 0 this is the classical notion on projective space, and for n = 0 a
regularity over Veronese embeddings.  Reg(E) is the least p with E
(r,0)-regular for every r >= p.  On every scroll the p where E is not
(p,0)-regular are the union of the conditions' exact nonvanishing
intervals, clipped to a scan range if one is given, so Reg is one more than
its supremum, and whether regular twists form an up-set (always so on
positive scrolls, where regularity is preserved by nonnegative twists) is
read off the same union.  A compare grid is decided so too, row q by row q.

The multigraded notion with respect to the nef pair {H, F} asks instead for
h^{i+j}(E(P)<-i, -j>) = 0 for all i, j >= 0 with (i,j) != (0,0); degrees
above dim X vanish identically, so the check truncates at i+j <= n+m.
Multigraded regularity implies (p,q)-regularity, except when H = 0, but
not conversely.
"""

from __future__ import annotations

from typing import NamedTuple

from .scroll import DivClass, Scroll
from .sheaves import SheafSpec, sheaf_h
from .windows import INF, Cond, h_intervals


class Failure(NamedTuple):
    label: str
    degree: int
    i: int
    j: int
    twist: DivClass
    value: int

    def to_json(self) -> dict:
        return {"condition": self.label, "degree": self.degree, "i": self.i,
                "j": self.j, "twist": self.twist.to_json(), "h": self.value}


class RegularityReport(NamedTuple):
    kind: str
    target: tuple[int, int]
    verdict: bool
    failures: tuple[Failure, ...]

    def to_json(self) -> dict:
        return {"kind": self.kind, "target": list(self.target), "verdict": self.verdict,
                "failures": [f.to_json() for f in self.failures]}


# Most table cells one condition family may read: its size times dim+1, as
# each condition reads a cohomology table of dim+1 ints, which the
# sheaf_cohom cache keeps.  With O on P(O(1)+O(2)) over P^M (CPython 3.11.7,
# 2 vCPUs): msreg at (0,0) read 5,252 conditions x 102 cells (5.4*10^5) in
# 1.6 s CPU at M = 100 and 11,627 x 152 (1.8*10^6) in 7.0 s at M = 150,
# pqreg 4,001 x 2,002 (8.0*10^6) in 1.0 s and 145 MB peak at M = 2000, and at
# M = 10^5 pqreg ran out of memory.  Every regularity family of the tests,
# verify and the benchmark is under 10^3 cells.  The splitting criteria size
# their families here too; the largest of the tests, the 2.3 hypotheses at
# n = 14, is bounded by 1.4*10^5 cells.
FAMILY_CELL_BUDGET = 6 * 10**5


def check_family(x: Scroll, size: int, what: str):
    """Refuse a family of `size` conditions on x, before it is built, when
    its tables would pass FAMILY_CELL_BUDGET cells."""
    cells = size * (x.dim + 1)
    if cells > FAMILY_CELL_BUDGET:
        raise ValueError(f"{size} {what} of {x.dim + 1} table cells each need {cells} cells, "
                         f"over the budget of {FAMILY_CELL_BUDGET}")


def pq_conditions(x: Scroll) -> list[Cond]:
    check_family(x, (x.m + 1) * (x.n + 1) - 1, "(p,q)-regularity conditions")
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


def ms_conditions(x: Scroll) -> list[Cond]:
    check_family(x, (x.dim + 1) * (x.dim + 2) // 2 - 1, "multigraded regularity conditions")
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
    """The m = 1 restatement: (a) top pair, (b) j = 1 column, (c) j = 0 row,
    the pq conditions with the j = 0 row of (b) relabelled."""
    if x.m != 1:
        raise ValueError("the rational normal scroll form needs base dimension 1")
    conds = [c._replace(label="c") if c.label == "b" and c.idx[1] == 0 else c for c in pq_conditions(x)]
    return _run_conditions(x, spec, conds, p, q, "rns-pq")


def _require_semipositive(x: Scroll):
    if not x.is_semipositive:
        raise ValueError("multigraded regularity needs a semipositive scroll (H nef)")


def ms_implies_pq(x: Scroll) -> bool:
    """The precondition of :func:`compare_regularities`: H and F nef (a
    semipositive scroll) and H != 0.  H = 0 exactly when n = 0 and a = (0,);
    there condition (a) reads the ms (0, j) group twisted by (c - 1)F, which
    is not nef, and multigraded regularity does not imply (p,q)."""
    return x.is_semipositive and (x.n, x.c) != (0, 0)


def is_ms_regular(x: Scroll, spec: SheafSpec, p: int, q: int) -> RegularityReport:
    """Multigraded regularity with respect to {H, F}; needs both nef."""
    _require_semipositive(x)
    return _run_conditions(x, spec, ms_conditions(x), p, q, "ms")


class RegResult(NamedTuple):
    value: int | None
    monotone_verified: bool
    scan: tuple[int, int]
    flags: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {"reg": self.value, "monotone_verified": self.monotone_verified,
                "scan": list(self.scan), "flags": list(self.flags)}


def _failing(x: Scroll, spec: SheafSpec, conds, q: int) -> list:
    """The p at which some condition is nonzero at (p, q), exactly, as
    sorted, disjoint, non-adjacent intervals (ends may be infinite)."""
    out = []
    for lo, hi in sorted(iv for c in conds for iv in h_intervals(x, spec, c.k, c.dp, q + c.dq)):
        if out and lo <= out[-1][1] + 1:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def reg_detail(x: Scroll, spec: SheafSpec, scan: tuple[int, int] | None = None) -> RegResult:
    """Reg(E): the least p with E (r,0)-regular for every r >= p.

    Exact on every scroll, within a scan range [lo, hi] or all of Z.  The p
    where E is not (p,0)-regular are the union U of the pq-conditions'
    intervals (:func:`scrollcohom.windows.h_intervals`) clipped to the range,
    so the work does not grow with it.  Reg is lo when U is empty, None when
    U reaches hi, else 1 + sup U; ``monotone_verified`` says whether U is a
    down-set of the range (always so on a positive scroll).  ``scan`` is the
    range (flag ``explicit-scan``), else [Reg-1, Reg], or (0, 0) when Reg is
    None (flag ``no-condition-can-fail`` or ``irregular-for-all-large-p``).
    """
    lo, hi = scan or (-INF, INF)
    bad = [(max(a, lo), min(b, hi)) for a, b in _failing(x, spec, pq_conditions(x), 0) if a <= hi and b >= lo]
    monotone = all(a == lo for a, _ in bad)
    value = lo if not bad else None if bad[-1][1] == hi else int(bad[-1][1]) + 1
    if scan is not None:
        return RegResult(value, monotone, (lo, hi), ("explicit-scan",))
    if bad and value is not None:
        return RegResult(value, monotone, (value - 1, value))
    return RegResult(None, monotone, (0, 0), ("irregular-for-all-large-p" if bad else "no-condition-can-fail",))


def reg(x: Scroll, spec: SheafSpec) -> int | None:
    """Reg(E) over all of Z as a bare integer, or None: the value of
    :func:`reg_detail`, which is the one entry for a scan range."""
    return reg_detail(x, spec).value


class ComparePoint(NamedTuple):
    p: int
    q: int
    ms: bool
    pq: bool


class CompareReport(NamedTuple):
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
    implies (p,q); any (true, false) point is recorded as a violation.
    Each row q is read off the exact intervals where some ms or pq
    condition is nonzero; is_ms_regular and is_pq_regular are the
    pointwise reports of the same cells.  Needs :func:`ms_implies_pq`."""
    _require_semipositive(x)
    if not ms_implies_pq(x):
        raise ValueError("compare needs H != 0; on P(O(0)) over P^m (n = 0) multigraded "
                         "regularity does not imply (p,q)-regularity")
    families = (ms_conditions(x), pq_conditions(x))
    rows = {q: [_failing(x, spec, conds, q) for conds in families] for q in range(qbox[0], qbox[1] + 1)}
    points, seps, bad = [], [], []
    for p in range(pbox[0], pbox[1] + 1):
        for q in range(qbox[0], qbox[1] + 1):
            ms, pq = (not any(lo <= p <= hi for lo, hi in ivs) for ivs in rows[q])
            points.append(ComparePoint(p, q, ms, pq))
            if ms and not pq:
                bad.append((p, q))
            if pq and not ms:
                seps.append((p, q))
    return CompareReport(tuple(points), tuple(seps), tuple(bad))
