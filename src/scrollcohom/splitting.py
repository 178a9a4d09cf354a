"""Cohomological splitting criteria on positive scrolls with m, n > 0.

:func:`check_theorem` is the one entry to all six: three criteria, each
deciding a hypothesis list of vanishing conditions against a catalog sheaf,
and their m = 1 forms.

* pure-H ("2.1"): E splits as a sum of O(t_i H) if and only if, for every
  integer t, h^{n+j}(E<t, c-j-1>) = 0 for 0 <= j < m and
  h^{i+j}(E<t, i-j>) = 0 for 0 <= j <= m, 0 <= i < n, (i,j) != (0,0).

* O/O(F)/O(H-F) sums ("2.2"): E is a sum of twists t_i*H of O, O(F) and
  O(H-F) if and only if conditions (a)-(d) below hold for every integer t;
  (d) runs over nonempty subsets I of the twists, deduplicated by the value
  a_I since only (|I|, a_I) enters.

* indecomposable regular ("2.3"): for indecomposable E with Reg(E) = 0
  satisfying hypothesis list (a)-(e) at fixed twists, E is O, O(F), O(H-F)
  or a normalized cotangent power Omega^i<i+1, -(i+1)>.  The checker
  measures Reg, evaluates the hypotheses, and classifies which of the four
  detector groups fires on E's own cohomology:

      (i)   h^{n+m}(E<-(n+1), c-m-1>) != 0   ->  O
      (ii)  h^n(E<-(n+1), c-1>)       != 0   ->  O(F)
      (iii) h^m(E<-1, -m>)            != 0   ->  O(H-F)
      (iv)  h^{i+m}(E<-(i+1), i-m>)   != 0   ->  Omega^i<i+1, -(i+1)>

  The first equality of hypothesis (b) is evaluated for 1 <= j <= m-1: at
  j = m it would coincide with the (iii)/(iv) detectors themselves and no
  bundle could ever reach those conclusions.

The m = 1 forms ("c2.5", "c2.6", "c2.7") need base dimension 1 and read
the general lists: "c2.5" scans the 2.1 conditions as they are, and "c2.6"
and "c2.7" are 2.2 and 2.3 without their (c) conditions (c1/c2 in 2.3).

'For every integer t' is decided per piece.  Every condition of 2.1, 2.2,
c2.5 and c2.6 is an h^k of E or E^dual, h^k is additive over E's pieces
Omega^i(p, q), and twisting a piece by p*H shifts its t-axis by -p on E and
by +p on E^dual.  So a report is the sum of shifted per-piece tables, each
depending only on (scroll, criterion, i, q) and cached: one interval pass,
:func:`scrollcohom.windows.window_pass`, on Omega^i(0, q) gives each
condition's own t-intervals, exactly the twists where it is nonzero, and
each side's hull; each condition is evaluated only inside its intervals, so
every evaluation is nonzero (:func:`_condition_scan`, the one scan loop).
Witnesses at equal (t, condition) add, and the window, which is reported,
is the hull of the shifted hulls.  :func:`_scan_window`, the same scan run
directly on the whole sheaf and assembled on its own, is the reference that
verify checks the composed reports against.  Condition families, the 2.3
hypotheses and case detectors too, are built once per scroll; each table
build and each 2.3/c2.7 check builds E^dual at most once
(:func:`scrollcohom.windows.side_lookup`).  The test suite re-checks all
conditions at the window margins and compares the result with a scan of
every condition at every t.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import NamedTuple

from .cohomology import SplitBundle, subset_sums, subset_value_bounds
from .regularity import RegResult, check_family, reg_detail
from .scroll import DivClass, Scroll
from .sheaves import SheafSpec
from .windows import Cond, eval_cond, hull, side_lookup, window_pass

THEOREM_IDS = ("2.1", "2.2", "2.3", "c2.5", "c2.6", "c2.7")


class Witness(NamedTuple):
    condition: str
    t: int | None
    indices: tuple
    twist: DivClass
    side: str
    value: int

    def to_json(self) -> dict:
        return {"condition": self.condition, "t": self.t, "indices": list(self.indices),
                "twist": self.twist.to_json(), "side": self.side, "h": self.value}


class CaseFired(NamedTuple):
    case: str
    i: int | None
    value: int
    conclusion: str


class SplittingReport(NamedTuple):
    theorem: str
    verdict: bool
    witnesses: tuple[Witness, ...]
    window: tuple[int, int] | None = None
    reg: RegResult | None = None
    precondition_failures: tuple[str, ...] = ()
    fired: tuple[CaseFired, ...] = ()
    conclusion: str | None = None

    def to_json(self) -> dict:
        out = {"theorem": self.theorem, "verdict": self.verdict,
               "witnesses": [w.to_json() for w in self.witnesses]}
        if self.window is not None:
            out["window"] = list(self.window)
        if self.reg is not None:
            out["reg"] = self.reg.to_json()
        if self.precondition_failures:
            out["precondition_failures"] = list(self.precondition_failures)
        if self.fired:
            out["cases"] = [{"case": c.case, "i": c.i, "h": c.value, "conclusion": c.conclusion}
                            for c in self.fired]
            out["conclusion"] = self.conclusion
        return out


def _witnesses(conds, found) -> tuple[Witness, ...]:
    """The witnesses ((t, j), h), h != 0, of the conditions conds[j], in the
    order found; t is None for a hypothesis at fixed twists."""
    out = []
    for (t, j), h in found:
        cond = conds[j]
        out.append(Witness(cond.label, t, cond.idx, DivClass((t or 0) + cond.dp, cond.dq),
                           "dual" if cond.dual else "E", h))
    return tuple(out)


def subset_values(x: Scroll) -> list[tuple[int, int]]:
    """Distinct (|I|, a_I) over subsets I of the twist indices with
    1 <= |I| <= n (the range the subset-indexed conditions quantify over),
    sorted, read off the subset-sum histograms."""
    sums = subset_sums(x)
    return [(r, a_i) for r in range(1, x.n + 1) for a_i, _ in sums[r]]


def pure_h_conditions(x: Scroll) -> list[Cond]:
    check_family(x, x.m + (x.m + 1) * x.n - 1, "pure-H splitting conditions")
    conds = [Cond("a", x.n + j, 0, x.c - j - 1, idx=(j,)) for j in range(x.m)]
    for j in range(x.m + 1):
        for i in range(x.n):
            if (i, j) != (0, 0):
                conds.append(Cond("b", i + j, 0, i - j, idx=(i, j)))
    return conds


def ohf_conditions(x: Scroll) -> list[Cond]:
    """The pure-H conditions without (a) j = 0 and (b) (0, m), then (c)
    and the (d) pair per (|I|, a_I)."""
    values = sum(subset_value_bounds(x.a, x.n)[1:])
    # (a) m-1, (b) (m+1)n-2, (c) m, and (d) two per (|I|, a_I)
    check_family(x, 2 * x.m + (x.m + 1) * x.n - 3 + 2 * values, "O/O(F)/O(H-F) splitting conditions")
    conds = [c for c in pure_h_conditions(x) if (c.label, c.idx) not in (("a", (0,)), ("b", (0, x.m)))]
    for j in range(x.m):
        conds.append(Cond("c", j + 1, 0, -j, dual=True, idx=(j,)))
    for r, a_i in subset_values(x):
        conds.append(Cond("d", r, 0, a_i - 1, idx=(r, a_i)))
        conds.append(Cond("d", r, 0, a_i - 1, dual=True, idx=(r, a_i)))
    return conds


def rns_ohf_conditions(x: Scroll) -> list[Cond]:
    return [c for c in ohf_conditions(x) if c.label != "c"]


def indecomposable_hypotheses(x: Scroll) -> list[Cond]:
    v = subset_value_bounds(x.a, x.n)
    subset_indexed = (2 * sum(v[1:x.n + 1])  # d1, d2
                      + sum(v[s] * (x.n - s) for s in range(1, x.n))  # e1: |I| = s for i >= s
                      + sum(v[s] * (x.n + 1 - s) for s in range(2, x.n + 1)))  # e2: |I| = s for i <= n+1-s
    # (a) and (b1) (m-1)(n+1), (b2) mn, (c1) and (c2) 2m
    check_family(x, (x.m - 1) * (x.n + 1) + x.m * x.n + 2 * x.m + subset_indexed,
                 "indecomposable-criterion hypotheses")
    conds = []
    for j in range(1, x.m):
        conds.append(Cond("a", x.n + j, -(x.n + 1), x.c - j - 1, idx=(j,)))
    for j in range(1, x.m):  # first equality of (b); j = m is the detector row
        for i in range(x.n):
            conds.append(Cond("b1", i + j, -(i + 1), i - j, idx=(i, j)))
    for j in range(1, x.m + 1):
        for i in range(x.n):
            conds.append(Cond("b2", i + j, -(i + 1), i - j + 1, idx=(i, j)))
    for j in range(x.m):
        conds.append(Cond("c1", j + 1, 0, -j, dual=True, idx=(j,)))
        conds.append(Cond("c2", j + 1, -1, -j, idx=(j,)))
    for r, a_i in subset_values(x):
        conds.append(Cond("d1", r, -r, a_i - 1, idx=(r, a_i)))
        conds.append(Cond("d2", r, -r + 1, a_i - 1, dual=True, idx=(r, a_i)))
    sums = subset_sums(x)
    for i in range(1, x.n):
        for k in range(1, i + 1):
            for a_i, _ in sums[1 - k + i]:
                conds.append(Cond("e1", k, -k, k + 1 - a_i, idx=(i, k, a_i)))
        for k in range(1, x.n - i + 1):
            for a_i, _ in sums[k + 1]:
                conds.append(Cond("e2", k, -(k - 1), a_i - i - 1, dual=True, idx=(i, k, a_i)))
    return conds


def _condition_scan(x: Scroll, spec: SheafSpec, conds) -> tuple[dict, dict]:
    """The scan of a condition family on spec: (hulls, values), keyed like
    :func:`scrollcohom.windows.side_lookup` by ``Cond.dual``, where hulls[dual]
    is the side's :func:`window_pass` hull and values[dual] lists the nonzero
    (t, j, h^k(side<t + dp, dq>)) of the conditions conds[j] that read the
    side, evaluated only inside their intervals, sorted by (t, j)."""
    sides = side_lookup(x, spec, conds)
    hulls, intervals = window_pass(x, spec, conds, sides)
    values = {dual: [] for dual in sides}
    for t, j in sorted({(t, j) for j, ivs in enumerate(intervals) for a, b in ivs for t in range(a, b + 1)}):
        h = eval_cond(x, spec, conds[j], t, sides)
        if h:
            values[conds[j].dual].append((t, j, h))
    return hulls, values


def _scan_window(x: Scroll, spec: SheafSpec, conds: list[Cond], theorem: str) -> SplittingReport:
    """The direct scan of a whole sheaf, which verify checks
    :func:`check_theorem`'s composed reports against."""
    hulls, values = _condition_scan(x, spec, conds)
    witnesses = _witnesses(conds, sorted(((t, j), h) for side in values.values() for t, j, h in side))
    return SplittingReport(theorem, not witnesses, witnesses, window=hull(hulls.values()))


def _detectors(x: Scroll) -> list[tuple[str, int | None, str, Cond]]:
    dets = [
        ("i", None, "O", Cond("case", x.dim, -(x.n + 1), x.c - x.m - 1)),
        ("ii", None, "O(F)", Cond("case", x.n, -(x.n + 1), x.c - 1)),
        ("iii", None, "O(H-F)", Cond("case", x.m, -1, -x.m)),
    ]
    for i in range(1, x.n):
        dets.append(("iv", i, f"Omega^{i}<{i + 1},-{i + 1}>", Cond("case", i + x.m, -(i + 1), i - x.m)))
    return dets


# each criterion's condition family, and the 2.3/c2.7 case detectors
_FAMILIES = {"2.1": pure_h_conditions, "2.2": ohf_conditions, "2.3": indecomposable_hypotheses,
             "c2.5": pure_h_conditions, "c2.6": rns_ohf_conditions,
             "c2.7": lambda x: [c for c in indecomposable_hypotheses(x) if c.label not in ("c1", "c2")],
             "cases": _detectors}


@lru_cache(maxsize=64)
def _family(x: Scroll, which: str) -> tuple:
    """_FAMILIES[which] on x, built once per scroll.  A family over its
    budget raises on every call, since exceptions are not cached."""
    return tuple(_FAMILIES[which](x))


@lru_cache(maxsize=1024)
def _piece_table(x: Scroll, theorem: str, i: int, q: int) -> tuple:
    """:func:`_condition_scan` of criterion `theorem` on the one-piece sheaf
    Omega^i(0, q): per side it reads, (dual, hull, values)."""
    hulls, values = _condition_scan(x, SheafSpec(((i, DivClass(0, q)),)), _family(x, theorem))
    return tuple((dual, hulls[dual], tuple(values[dual])) for dual in hulls)


def _composed_scan(x: Scroll, spec: SheafSpec, theorem: str) -> SplittingReport:
    """:func:`_scan_window`'s report, summed from :func:`_piece_table`s.

    h^k is additive over the pieces Omega^i(p, q) of E, and twisting a piece
    by p*H shifts its table by -p on E and by +p on E^dual (whose piece is
    twisted by -p*H).  So a witness's h is the sum of the shifted piece
    values at its (t, j), and the window is the hull of the shifted hulls.
    """
    conds = _family(x, theorem)
    ends, sums = [], {}
    for i, twist in spec.pieces:
        for dual, (lo, hi), values in _piece_table(x, theorem, i, twist.q):
            shift = twist.p if dual else -twist.p
            ends.append((lo + shift, hi + shift))
            for t, j, h in values:
                sums[t + shift, j] = sums.get((t + shift, j), 0) + h
    witnesses = _witnesses(conds, sorted(sums.items()))
    return SplittingReport(theorem, not witnesses, witnesses, window=hull(ends))


def _classify(x: Scroll, spec: SheafSpec) -> tuple[tuple[CaseFired, ...], str | None]:
    fired = []
    for case, i, conclusion, cond in _family(x, "cases"):
        h = eval_cond(x, spec, cond)
        if h:
            fired.append(CaseFired(case, i, h, conclusion))
    conclusion = fired[0].conclusion if len(fired) == 1 else None
    return tuple(fired), conclusion


def _indecomposable_check(x: Scroll, spec: SheafSpec, theorem: str) -> SplittingReport:
    """Hypotheses and case classification for indecomposable regular bundles;
    c2.7 drops the c1/c2 hypotheses.

    Reg(E) is measured, never assumed; a nonzero value is reported as a
    precondition failure and the hypotheses and case split are still
    evaluated for inspection.
    """
    hypotheses = _family(x, theorem)  # sized before Reg does any work
    reg_res = reg_detail(x, spec)
    pre = ()
    if reg_res.value != 0:
        pre = (f"Reg(E) = {reg_res.value}, hypothesis needs 0",)
    sides = side_lookup(x, spec, hypotheses)
    values = ((j, eval_cond(x, spec, cond, 0, sides)) for j, cond in enumerate(hypotheses))
    witnesses = _witnesses(hypotheses, [((None, j), h) for j, h in values if h])
    fired, conclusion = _classify(x, spec)
    return SplittingReport(theorem, not witnesses and not pre, witnesses,
                           reg=reg_res, precondition_failures=pre,
                           fired=fired, conclusion=conclusion)


def check_theorem(x: Scroll, spec: SheafSpec, which: str) -> SplittingReport:
    """Run criterion `which`, one of THEOREM_IDS, on E = spec.

    The criterion id, the m = 1 requirement of the c-forms and the scroll
    are checked here, once each; 2.1, 2.2, c2.5 and c2.6 then compose their
    scan over every t from per-piece tables, and 2.3 and c2.7 run the
    indecomposable check.
    """
    if which not in THEOREM_IDS:
        raise ValueError(f"unknown criterion {which!r}; expected one of {THEOREM_IDS}")
    if which.startswith("c") and x.m != 1:
        raise ValueError("the rational normal scroll criteria need base dimension 1")
    if not (x.is_positive and x.m > 0 and x.n > 0):
        raise ValueError("splitting criteria need a positive scroll with m, n > 0")
    if which in ("2.3", "c2.7"):
        return _indecomposable_check(x, spec, which)
    return _composed_scan(x, spec, which)


def ground_truth_classify(e: SplitBundle) -> dict[str, bool]:
    """Membership of a split bundle in the two conclusion classes, read off
    the summand multiset: pure-H means every summand is a multiple of H;
    the O/O(F)/O(H-F) class allows each summand its own t*H twist, so it is
    exactly 'every F-coefficient lies in {-1, 0, 1}'."""
    return {
        "pure_h": all(s.q == 0 for s in e.summands),
        "ohf": all(s.q in (-1, 0, 1) for s in e.summands),
    }
