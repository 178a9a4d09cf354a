"""Cohomological splitting criteria on positive scrolls with m, n > 0.

Three criteria are implemented, each deciding a hypothesis list of
vanishing conditions against a catalog sheaf:

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

The m = 1 special forms read the general lists: "c2.5" scans the 2.1
conditions as they are, and "c2.6" and "c2.7" are 2.2 and 2.3 without
their (c) conditions (c1/c2 in 2.3).

'For every integer t' is decided by one interval pass per check,
:func:`scrollcohom.windows.window_pass`: it gives each condition's own
t-intervals, exactly the twists where the condition is nonzero, for split
sheaves and Omega^i(T) alike, and the window, the hull of those same
intervals (and of the anchors), which is reported.  Each condition is
evaluated only at the twists inside its intervals, so every evaluation is a
witness.  The test suite re-checks all conditions at the window margins and
compares the result with a scan of every condition at every t.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cohomology import SplitBundle, subset_sums
from .regularity import RegResult, reg_detail
from .scroll import DivClass, Scroll
from .sheaves import SheafSpec
from .windows import Cond, eval_cond, window_pass

THEOREM_IDS = ("2.1", "2.2", "2.3", "c2.5", "c2.6", "c2.7")


@dataclass(frozen=True)
class Witness:
    condition: str
    t: int | None
    indices: tuple
    twist: DivClass
    side: str
    value: int

    def to_json(self) -> dict:
        return {"condition": self.condition, "t": self.t, "indices": list(self.indices),
                "twist": self.twist.to_json(), "side": self.side, "h": self.value}


@dataclass(frozen=True)
class CaseFired:
    case: str
    i: int | None
    value: int
    conclusion: str


@dataclass(frozen=True)
class SplittingReport:
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


def subset_values(x: Scroll) -> list[tuple[int, int]]:
    """Distinct (|I|, a_I) over subsets I of the twist indices with
    1 <= |I| <= n (the range the subset-indexed conditions quantify over),
    sorted, read off the subset-sum histograms."""
    sums = subset_sums(x)
    return [(r, a_i) for r in range(1, x.n + 1) for a_i, _ in sums[r]]


def _require_splitting_scroll(x: Scroll):
    if not (x.is_positive and x.m > 0 and x.n > 0):
        raise ValueError("splitting criteria need a positive scroll with m, n > 0")


def pure_h_conditions(x: Scroll) -> list[Cond]:
    conds = [Cond("a", x.n + j, 0, x.c - j - 1, idx=(j,)) for j in range(x.m)]
    for j in range(x.m + 1):
        for i in range(x.n):
            if (i, j) != (0, 0):
                conds.append(Cond("b", i + j, 0, i - j, idx=(i, j)))
    return conds


def ohf_conditions(x: Scroll) -> list[Cond]:
    conds = [Cond("a", x.n + j, 0, x.c - j - 1, idx=(j,)) for j in range(1, x.m)]
    for j in range(x.m + 1):
        for i in range(x.n):
            if (i, j) not in ((0, 0), (0, x.m)):
                conds.append(Cond("b", i + j, 0, i - j, idx=(i, j)))
    for j in range(x.m):
        conds.append(Cond("c", j + 1, 0, -j, dual=True, idx=(j,)))
    for r, a_i in subset_values(x):
        conds.append(Cond("d", r, 0, a_i - 1, idx=(r, a_i)))
        conds.append(Cond("d", r, 0, a_i - 1, dual=True, idx=(r, a_i)))
    return conds


def rns_ohf_conditions(x: Scroll) -> list[Cond]:
    return [c for c in ohf_conditions(x) if c.label != "c"]


def indecomposable_hypotheses(x: Scroll) -> list[Cond]:
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


def _scan_window(x: Scroll, spec: SheafSpec, conds: list[Cond], theorem: str) -> SplittingReport:
    window, intervals = window_pass(x, spec, conds)
    todo = {(t, i) for i, ivs in enumerate(intervals) for a, b in ivs for t in range(a, b + 1)}
    witnesses = []
    for t, i in sorted(todo):
        cond = conds[i]
        h = eval_cond(x, spec, cond, t)
        if h:
            witnesses.append(Witness(cond.label, t, cond.idx,
                                     DivClass(t + cond.dp, cond.dq),
                                     "dual" if cond.dual else "E", h))
    return SplittingReport(theorem, not witnesses, tuple(witnesses), window=window)


def check_pure_h(x: Scroll, spec: SheafSpec) -> SplittingReport:
    """Does E satisfy the cohomological characterization of (+) O(t_i H)?"""
    _require_splitting_scroll(x)
    return _scan_window(x, spec, pure_h_conditions(x), "2.1")


def check_ohf(x: Scroll, spec: SheafSpec) -> SplittingReport:
    """Does E satisfy the characterization of sums of twisted O, O(F), O(H-F)?"""
    _require_splitting_scroll(x)
    return _scan_window(x, spec, ohf_conditions(x), "2.2")


_CASE_CONCLUSIONS = {"i": "O", "ii": "O(F)", "iii": "O(H-F)"}


def _detectors(x: Scroll) -> list[tuple[str, int | None, Cond]]:
    dets = [
        ("i", None, Cond("case", x.dim, -(x.n + 1), x.c - x.m - 1)),
        ("ii", None, Cond("case", x.n, -(x.n + 1), x.c - 1)),
        ("iii", None, Cond("case", x.m, -1, -x.m)),
    ]
    for i in range(1, x.n):
        dets.append(("iv", i, Cond("case", i + x.m, -(i + 1), i - x.m)))
    return dets


def _classify(x: Scroll, spec: SheafSpec) -> tuple[tuple[CaseFired, ...], str | None]:
    fired = []
    for case, i, cond in _detectors(x):
        h = eval_cond(x, spec, cond)
        if h:
            conclusion = _CASE_CONCLUSIONS[case] if case in _CASE_CONCLUSIONS else f"Omega^{i}<{i + 1},-{i + 1}>"
            fired.append(CaseFired(case, i, h, conclusion))
    conclusion = fired[0].conclusion if len(fired) == 1 else None
    return tuple(fired), conclusion


def check_indecomposable(x: Scroll, spec: SheafSpec, rns: bool = False) -> SplittingReport:
    """Hypotheses and case classification for indecomposable regular bundles.

    Reg(E) is measured, never assumed; a nonzero value is reported as a
    precondition failure and the hypotheses and case split are still
    evaluated for inspection.
    """
    _require_splitting_scroll(x)
    theorem = "c2.7" if rns else "2.3"
    if rns and x.m != 1:
        raise ValueError("the rational normal scroll form needs base dimension 1")
    reg_res = reg_detail(x, spec)
    pre = ()
    if reg_res.value != 0:
        pre = (f"Reg(E) = {reg_res.value}, hypothesis needs 0",)
    witnesses = []
    for cond in indecomposable_hypotheses(x):
        if rns and cond.label in ("c1", "c2"):
            continue
        h = eval_cond(x, spec, cond)
        if h:
            witnesses.append(Witness(cond.label, None, cond.idx,
                                     DivClass(cond.dp, cond.dq),
                                     "dual" if cond.dual else "E", h))
    fired, conclusion = _classify(x, spec)
    return SplittingReport(theorem, not witnesses and not pre, tuple(witnesses),
                           reg=reg_res, precondition_failures=pre,
                           fired=fired, conclusion=conclusion)


def check_rns(x: Scroll, spec: SheafSpec, which: str) -> SplittingReport:
    """The m = 1 forms of the three criteria."""
    if x.m != 1:
        raise ValueError("the rational normal scroll criteria need base dimension 1")
    _require_splitting_scroll(x)
    if which == "c2.5":
        return _scan_window(x, spec, pure_h_conditions(x), "c2.5")
    if which == "c2.6":
        return _scan_window(x, spec, rns_ohf_conditions(x), "c2.6")
    if which == "c2.7":
        return check_indecomposable(x, spec, rns=True)
    raise ValueError(f"unknown criterion {which!r}; expected one of c2.5, c2.6, c2.7")


def check_theorem(x: Scroll, spec: SheafSpec, which: str) -> SplittingReport:
    if which == "2.1":
        return check_pure_h(x, spec)
    if which == "2.2":
        return check_ohf(x, spec)
    if which == "2.3":
        return check_indecomposable(x, spec)
    if which in ("c2.5", "c2.6", "c2.7"):
        return check_rns(x, spec, which)
    raise ValueError(f"unknown criterion {which!r}; expected one of {THEOREM_IDS}")


def ground_truth_classify(e: SplitBundle) -> dict[str, bool]:
    """Membership of a split bundle in the two conclusion classes, read off
    the summand multiset: pure-H means every summand is a multiple of H;
    the O/O(F)/O(H-F) class allows each summand its own t*H twist, so it is
    exactly 'every F-coefficient lies in {-1, 0, 1}'."""
    return {
        "pure_h": all(s.q == 0 for s in e.summands),
        "ohf": all(s.q in (-1, 0, 1) for s in e.summands),
    }
