import itertools

import pytest

from scrollcohom import (DivClass, SheafSpec, check_theorem, ground_truth_classify, make_scroll,
                         nonvanishing_window, sheaf_h)
from scrollcohom.cohomology import SplitBundle
from scrollcohom.splitting import (SplittingReport, Witness, indecomposable_hypotheses, ohf_conditions,
                                   pure_h_conditions, rns_ohf_conditions)
from scrollcohom.windows import eval_cond

X12 = make_scroll(1, 1, [1, 2])
X112 = make_scroll(1, 2, [1, 1, 2])
Y = make_scroll(1, 3, [1, 1, 1, 1])


def test_pure_h_accepts_h_splits():
    assert check_theorem(X12, SheafSpec.from_split([(0, 0), (2, 0)]), "2.1").verdict
    assert check_theorem(X112, SheafSpec.from_split([(-1, 0), (0, 0), (3, 0)]), "2.1").verdict


def test_pure_h_rejects_with_witness():
    rep = check_theorem(X12, SheafSpec.from_split([(0, 1)]), "2.1")
    assert not rep.verdict
    w = rep.witnesses[0]
    assert (w.condition, w.t, tuple(w.indices), w.twist) == ("a", -2, (0,), DivClass(-2, 2))
    assert w.value == 1
    # the witness re-evaluates to a nonzero dimension
    assert sheaf_h(X12, SheafSpec.from_split([(0, 1)]), X12.n + w.indices[0], w.twist) == 1


def test_pure_h_rejects_cotangent_twist():
    spec = SheafSpec.from_omega(1, DivClass(2, -2))
    rep = check_theorem(Y, spec, "2.1")
    assert not rep.verdict and rep.witnesses
    for w in rep.witnesses:
        k = Y.n + w.indices[0] if w.condition == "a" else sum(w.indices)
        target = spec.dual(Y) if w.side == "dual" else spec
        assert sheaf_h(Y, target, k, w.twist) == w.value


def test_ohf_catalog_cases():
    assert check_theorem(X12, SheafSpec.from_split([(0, 0), (0, 1), (1, -1)]), "2.2").verdict
    assert not check_theorem(X12, SheafSpec.from_split([(0, 2)]), "2.2").verdict
    assert check_theorem(X12, SheafSpec.from_split([(1, 0), (0, 0)]), "2.2").verdict


def test_ground_truth_classify():
    assert ground_truth_classify(SplitBundle((DivClass(0, 0), DivClass(2, 0)))) == \
        {"pure_h": True, "ohf": True}
    assert ground_truth_classify(SplitBundle((DivClass(0, 1), DivClass(1, -1), DivClass(3, 0)))) == \
        {"pure_h": False, "ohf": True}
    assert ground_truth_classify(SplitBundle((DivClass(0, 2),))) == \
        {"pure_h": False, "ohf": False}


def test_indecomposable_line_bundle_cases():
    for summands, case, conclusion in ([(0, 0)], "i", "O"), ([(0, 1)], "ii", "O(F)"), ([(1, -1)], "iii", "O(H-F)"):
        rep = check_theorem(X12, SheafSpec.from_split(summands), "2.3")
        assert rep.verdict and rep.reg.value == 0
        assert [(c.case, c.conclusion) for c in rep.fired] == [(case, conclusion)]
        assert rep.conclusion == conclusion


def test_indecomposable_cotangent_case():
    rep = check_theorem(Y, SheafSpec.from_omega(2, DivClass(3, -3)), "2.3")
    assert rep.reg.value == 0
    assert not rep.precondition_failures
    assert rep.verdict, [w.to_json() for w in rep.witnesses]
    assert [(c.case, c.i) for c in rep.fired] == [("iv", 2)]
    assert rep.conclusion == "Omega^2<3,-3>"


def test_indecomposable_reports_bad_reg():
    rep = check_theorem(X12, SheafSpec.from_split([(-2, 0)]), "2.3")
    assert not rep.verdict
    assert rep.reg.value == 2
    assert rep.precondition_failures


def test_rns_checkers_match_general():
    for x in (X12, X112):
        for summands in ([(0, 0)], [(0, 1)], [(1, -1), (2, 0)], [(0, 2)], [(-1, -1), (0, 0)]):
            e = SheafSpec.from_split(summands)
            assert check_theorem(x, e, "c2.5").verdict == check_theorem(x, e, "2.1").verdict
            assert check_theorem(x, e, "c2.6").verdict == check_theorem(x, e, "2.2").verdict
            g, r = check_theorem(x, e, "2.3"), check_theorem(x, e, "c2.7")
            assert g.verdict == r.verdict
            assert [(c.case, c.i) for c in g.fired] == [(c.case, c.i) for c in r.fired]


def test_rns_examples():
    x = X112
    assert check_theorem(x, SheafSpec.from_split([(0, 0), (3, 0)]), "c2.5").verdict
    assert not check_theorem(x, SheafSpec.from_split([(1, -1)]), "c2.5").verdict
    assert check_theorem(x, SheafSpec.from_split([(1, -1)]), "c2.6").verdict


def test_preconditions():
    with pytest.raises(ValueError):
        check_theorem(make_scroll(1, 1, [0, 2]), SheafSpec.from_split([(0, 0)]), "2.1")
    with pytest.raises(ValueError):
        check_theorem(make_scroll(0, 2, [1, 1, 1]), SheafSpec.from_split([(0, 0)]), "2.1")
    with pytest.raises(ValueError):
        check_theorem(make_scroll(2, 1, [1, 3]), SheafSpec.from_split([(0, 0)]), "c2.5")
    with pytest.raises(ValueError):
        check_theorem(X12, SheafSpec.from_split([(0, 0)]), "9.9")


def test_check_theorem_dispatch():
    assert check_theorem(X12, SheafSpec.from_split([(0, 0)]), "2.1").verdict
    assert check_theorem(X12, SheafSpec.from_split([(0, 0)]), "c2.6").verdict
    assert check_theorem(X12, SheafSpec.from_split([(0, 0)]), "2.3").conclusion == "O"


# -- the interval scan against a scan of every condition at every t ---------

SCAN_CONDITIONS = {"2.1": pure_h_conditions, "2.2": ohf_conditions,
                   "c2.5": pure_h_conditions, "c2.6": rns_ohf_conditions}
BOX = [(p, q) for p in range(-2, 3) for q in range(-2, 3)]
SPLIT_SCROLLS = (X12, make_scroll(1, 1, [1, 1]), make_scroll(2, 1, [1, 3]))


def _scan_theorems(x):
    return [th for th in SCAN_CONDITIONS if x.m == 1 or not th.startswith("c")]


def _full_window_scan(x, spec, theorem):
    """The reference: every condition at every t of the window."""
    conds = SCAN_CONDITIONS[theorem](x)
    lo, hi = nonvanishing_window(x, spec, conds)
    witnesses = [Witness(c.label, t, c.idx, DivClass(t + c.dp, c.dq), "dual" if c.dual else "E", h)
                 for t in range(lo, hi + 1) for c in conds for h in [eval_cond(x, spec, c, t)] if h]
    return SplittingReport(theorem, not witnesses, tuple(witnesses), window=(lo, hi)).to_json()


def _split_specs(box):
    return [SheafSpec.from_split(summands)
            for r in (1, 2) for summands in itertools.combinations_with_replacement(box, r)]


def _omega_specs(x, twists):
    return [SheafSpec.from_omega(i, DivClass(*t)) for i in range(x.n + 1) for t in twists]


# The full [-2,2]^2 grid of Omega twists on P(O(1)+O(2)+O(3)) over P^2 takes about
# two minutes under the reference scan (Omega^1(-2, q) alone about 10 s each), so
# that scroll runs three twists; P(O(1)+O(1)+O(2)) over P^1 runs the full grid.
X123 = make_scroll(2, 2, [1, 2, 3])
SCAN_CATALOG = [(x, _split_specs(BOX)) for x in SPLIT_SCROLLS] + [
    (X112, _omega_specs(X112, BOX)), (X123, _omega_specs(X123, [(0, 0), (1, -1), (2, -2)]))]


@pytest.mark.parametrize("x, specs", SCAN_CATALOG,
                         ids=[f"{x}-{'omega' if specs[0].spelled_omega else 'split'}" for x, specs in SCAN_CATALOG])
def test_interval_scan_matches_full_window_scan(x, specs):
    for spec in specs:
        for theorem in _scan_theorems(x):
            assert check_theorem(x, spec, theorem).to_json() == _full_window_scan(x, spec, theorem), \
                (spec.describe(), theorem)


def test_split_scan_evaluates_only_witnesses(monkeypatch):
    # exact intervals on every piece: a piece table evaluates each condition
    # only where it is nonzero, and a repeated check reads cached tables only
    from scrollcohom import splitting

    splitting._family.cache_clear()
    splitting._piece_table.cache_clear()
    values = []

    def counting_eval(*args):
        values.append(eval_cond(*args))
        return values[-1]

    monkeypatch.setattr(splitting, "eval_cond", counting_eval)
    some_witness = evaluated = False
    cases = list(itertools.product(SPLIT_SCROLLS, _split_specs(BOX)))
    cases += [(x, spec) for x in (X112, X123, Y) for spec in _omega_specs(x, BOX[::2])]
    for x, spec in cases:
        for theorem in _scan_theorems(x):
            values.clear()
            report = check_theorem(x, spec, theorem)
            assert all(values), (str(x), spec.describe(), theorem)
            evaluated = evaluated or bool(values)
            values.clear()
            assert check_theorem(x, spec, theorem) == report and not values
            some_witness = some_witness or bool(report.witnesses)
    assert some_witness and evaluated


def test_split_check_builds_the_dual_once(monkeypatch):
    # one side lookup per piece table: E^dual is built at most once per
    # table build, shared by the table's window pass and every dual-side
    # evaluation, and a warm scan builds none; the 2.3/c2.7 hypothesis loop
    # (which reads E^dual in c1, d2 and e2) builds it at most once per check
    from scrollcohom import splitting

    splitting._family.cache_clear()
    splitting._piece_table.cache_clear()
    dual = SheafSpec.dual
    calls = []

    def counting_dual(self, x):
        # the lru_cache counts a miss before it runs the build, so this is
        # the ordinal of the table build in progress
        calls.append(splitting._piece_table.cache_info().misses)
        return dual(self, x)

    monkeypatch.setattr(SheafSpec, "dual", counting_dual)
    dual_witnesses = 0
    cases = [(x, spec, _scan_theorems(x) + ["2.3"] + ["c2.7"] * (x.m == 1))
             for x, spec in itertools.product(SPLIT_SCROLLS, _split_specs(BOX))]
    # 4,670 E^dual builds in one 2.3 check when each dual hypothesis built its own
    cases.append((make_scroll(1, 14, range(1, 16)), SheafSpec.from_split([(0, 0), (1, 0)]), ["2.3", "c2.7"]))
    for x, spec, theorems in cases:
        for theorem in theorems:
            calls.clear()
            before = splitting._piece_table.cache_info().misses
            report = check_theorem(x, spec, theorem)
            if theorem in ("2.3", "c2.7"):
                assert len(calls) <= 1, (str(x), spec.describe(), theorem, len(calls))
            else:
                assert all(build > before for build in calls), (str(x), spec.describe(), theorem)
                assert len(set(calls)) == len(calls), (str(x), spec.describe(), theorem, calls)
                calls.clear()
                check_theorem(x, spec, theorem)
                assert not calls, (str(x), spec.describe(), theorem)
            dual_witnesses += sum(w.side == "dual" for w in report.witnesses)
    assert dual_witnesses


def test_indecomposable_checks_build_their_families_once(monkeypatch):
    # 2.3 and c2.7 read their hypotheses and the case detectors from the
    # per-scroll family cache, as the scans read theirs
    from scrollcohom import splitting

    builds = []
    for which in ("2.3", "c2.7", "cases"):
        monkeypatch.setitem(splitting._FAMILIES, which,
                            lambda x, which=which, build=splitting._FAMILIES[which]: builds.append(which) or build(x))
    splitting._family.cache_clear()
    for spec in _split_specs(BOX)[:50]:
        for theorem in ("2.3", "c2.7"):
            check_theorem(X12, spec, theorem)
    splitting._family.cache_clear()
    assert sorted(builds) == ["2.3", "c2.7", "cases"]


@pytest.mark.parametrize("m, n", [(1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (1, 4), (2, 5)])
def test_family_budget_counts_the_splitting_family(m, n, monkeypatch):
    # the size each criterion checks against the budget, before it builds its
    # family, is the family's size on equal and consecutive twists, where the
    # a_I of each size fill the integers between their least and greatest,
    # and never below it on spread twists; pure-H has no a_I and is always
    # exact.  The first call is the builder's own: ohf_conditions calls
    # pure_h_conditions, which checks again
    sizes = []
    monkeypatch.setattr("scrollcohom.splitting.check_family", lambda x, size, what: sizes.append(size))
    equal, consecutive = [1] * (n + 1), range(1, n + 2)
    spread = ([1 + 2 * (k // 2) for k in range(n + 1)], [k * k + 1 for k in range(n + 1)])  # (1,1,3,3), (1,2,5,10)
    for twists, exact in [(equal, True), (consecutive, True)] + [(a, False) for a in spread]:
        x = make_scroll(m, n, twists)
        for build in (pure_h_conditions, ohf_conditions, indecomposable_hypotheses):
            sizes.clear()
            family = build(x)
            if exact or build is pure_h_conditions:
                assert sizes[0] == len(family), (str(x), build.__name__)
            else:
                assert sizes[0] >= len(family), (str(x), build.__name__)


def test_subset_values_match_enumeration():
    from scrollcohom.cohomology import subset_sums
    from scrollcohom.splitting import subset_values

    for x in (X12, Y, make_scroll(2, 4, [-1, 0, 0, 2, 5]), make_scroll(1, 5, [1, 1, 2, 3, 5, 8])):
        subsets = [sub for r in range(x.n + 2) for sub in itertools.combinations(x.a, r)]
        want = sorted({(len(sub), sum(sub)) for sub in subsets if 1 <= len(sub) <= x.n})
        assert subset_values(x) == want
        sums = subset_sums(x)
        assert len(sums) == x.n + 2
        for r, hist in enumerate(sums):
            counts = {}
            for sub in itertools.combinations(x.a, r):
                counts[sum(sub)] = counts.get(sum(sub), 0) + 1
            assert hist == tuple(sorted(counts.items()))


def test_indecomposable_check_is_polynomial_in_the_fiber():
    # n = 14: the subset-indexed conditions come from per-size subset-sum
    # histograms, not from a walk over all 2^15 subsets per (i, k)
    import time

    x = make_scroll(1, 14, range(1, 16))
    t0 = time.process_time()
    rep = check_theorem(x, SheafSpec.from_split([(0, 0), (1, 0)]), "2.3")
    assert time.process_time() - t0 < 2.0
    # O + O(H) has Reg 0, fails only the subset-indexed (e) hypotheses, and
    # its own cohomology fires the O detector
    assert rep.reg.value == 0 and not rep.verdict and rep.conclusion == "O"
    assert len(rep.witnesses) == 610 and {w.condition for w in rep.witnesses} == {"e1", "e2"}
