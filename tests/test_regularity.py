import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scrollcohom import (DivClass, SheafSpec, compare_regularities, is_ms_regular, is_pq_regular,
                         make_scroll, reg, reg_detail, rns_is_pq_regular)
from scrollcohom.regularity import _failing, ms_conditions, ms_implies_pq, pq_conditions
from scrollcohom.verify import classical_pn_regular, pointwise_reg
from scrollcohom.windows import INF

X12 = make_scroll(1, 1, [1, 2])
F2 = make_scroll(1, 1, [0, 2])
O = SheafSpec.from_split([(0, 0)])


def test_structure_sheaf_regular():
    assert is_pq_regular(X12, O, 0, 0).verdict
    assert is_pq_regular(F2, O, 0, 0).verdict


def test_structure_sheaf_not_minus_one_regular():
    rep = is_pq_regular(X12, O, -1, 0)
    assert not rep.verdict
    assert [(f.label, f.degree, f.twist.to_json(), f.value) for f in rep.failures] == \
        [("a", 2, [-2, 1], 1)]


def test_reg_of_line_bundles():
    for x in (X12, make_scroll(1, 2, [1, 1, 2]), make_scroll(2, 1, [1, 3])):
        assert reg(x, SheafSpec.from_split([(0, 0)])) == 0
        assert reg(x, SheafSpec.from_split([(0, 1)])) == 0
        assert reg(x, SheafSpec.from_split([(1, -1)])) == 0
    assert reg(X12, SheafSpec.from_split([(-2, 0)])) == 2


def test_reg_exact_on_non_positive():
    # on F2 the p where O is not (p,0)-regular are exactly (-inf, -1], a
    # down-set, so Reg = 0 with monotonicity proven
    assert reg(F2, O) == 0
    res = reg_detail(F2, O)
    assert (res.value, res.monotone_verified, res.scan, res.flags) == (0, True, (-1, 0), ())
    res = reg_detail(F2, O, (-3, 3))
    assert res.value == 0 and "explicit-scan" in res.flags


def test_reg_none_when_irregular_for_all_large_p():
    # h^1(O(P*H - 2F)) != 0 for every P >= 0 on F2, and the (b) condition
    # (i, j) = (0, 1) reads h^1(E<p, -1>) for E = O(0, -1)
    e = SheafSpec.from_split([(0, -1)])
    res = reg_detail(F2, e)
    assert res.value is None and res.flags == ("irregular-for-all-large-p",) and res.scan == (0, 0)
    assert not any(is_pq_regular(F2, e, p, 0).verdict for p in range(0, 30))
    assert reg_detail(F2, e, (-40, 40)).value is None


def test_ms_regularity_hirzebruch_separation():
    assert is_pq_regular(F2, O, 0, 0).verdict
    rep = is_ms_regular(F2, O, 0, 0)
    assert not rep.verdict
    assert any(f.degree == 2 and f.twist == DivClass(-2, 0) and f.value == 1 for f in rep.failures)


def test_ms_regularity_product_case():
    # on P^1 x P^1 presented with trivial twists the structure sheaf is
    # multigraded regular; presented with twists (1,1) it is not, because
    # H becomes the (1,1) class and O(-2H) has h^2 = 1
    assert is_ms_regular(make_scroll(1, 1, [0, 0]), O, 0, 0).verdict
    rep = is_ms_regular(make_scroll(1, 1, [1, 1]), O, 0, 0)
    assert not rep.verdict and any(f.twist == DivClass(-2, 0) for f in rep.failures)


def test_ms_needs_semipositive():
    with pytest.raises(ValueError):
        is_ms_regular(make_scroll(1, 1, [-1, 2]), O, 0, 0)


def test_compare_regularities():
    rep = compare_regularities(F2, O, (-2, 2), (-2, 2))
    assert rep.ok
    assert (0, 0) in rep.separations
    rep = compare_regularities(X12, O, (-2, 2), (-2, 2))
    assert rep.ok


def test_canonical_twist_fails_both():
    for x in (X12, make_scroll(1, 2, [1, 1, 2])):
        k = SheafSpec.from_split([x.canonical_class().to_json()])
        assert not is_pq_regular(x, k, 0, 0).verdict
        assert not is_ms_regular(x, k, 0, 0).verdict


def test_rns_form_matches_definition():
    for x in (X12, make_scroll(1, 2, [1, 2, 2])):
        for summands in ([(0, 0)], [(0, -1)], [(1, -1)], [(-2, 1)]):
            e = SheafSpec.from_split(summands)
            for p in range(-2, 3):
                for q in range(-2, 3):
                    assert rns_is_pq_regular(x, e, p, q).verdict == is_pq_regular(x, e, p, q).verdict


def test_rns_examples():
    x = make_scroll(1, 2, [1, 2, 2])
    assert rns_is_pq_regular(x, O, 0, 0).verdict
    rep = rns_is_pq_regular(x, SheafSpec.from_split([(0, -1)]), 0, 0)
    assert not rep.verdict
    assert any(f.degree == 1 and (f.i, f.j) == (0, 1) for f in rep.failures)


def test_rns_needs_m1():
    with pytest.raises(ValueError):
        rns_is_pq_regular(make_scroll(2, 1, [1, 3]), O, 0, 0)


def test_m0_reduces_to_classical():
    for n in (1, 2, 3):
        x = make_scroll(0, n, [0] * (n + 1))
        for twists in ([0], [0, -2], [1, 3], [-1], [2, -3]):
            e = SheafSpec.from_split([(d, 0) for d in twists])
            for p in range(-4, 5):
                assert is_pq_regular(x, e, p, 0).verdict == classical_pn_regular(n, twists, p)


def test_veronese_case():
    x = make_scroll(2, 0, [2])
    assert reg_detail(x, O).value == 0
    assert is_pq_regular(x, O, 0, 0).verdict
    assert not is_pq_regular(x, O, -1, 0).verdict


def test_failure_ordering_is_stable():
    rep = is_pq_regular(make_scroll(2, 2, [1, 1, 1]), SheafSpec.from_split([(-4, 0), (-3, -2)]), 0, 0)
    order = [(f.i, f.j) for f in rep.failures]
    assert order == sorted(order)


def test_omega_regularity_measured():
    y = make_scroll(1, 3, [1, 1, 1, 1])
    assert reg(y, SheafSpec.from_omega(2, DivClass(3, -3))) == 0
    assert reg(y, SheafSpec.from_omega(1, DivClass(2, -2))) == 0


REG_SCROLLS = (X12, make_scroll(1, 2, [1, 1, 2]), make_scroll(2, 2, [1, 2, 3]), make_scroll(0, 2, [1, 1, 2]),
               make_scroll(2, 0, [2]))


def _reg_specs(x):
    specs = [SheafSpec.from_split(s) for s in ([(0, 0)], [(0, 1), (1, -1)], [(-2, 1)], [(1, 3), (-1, -2)])]
    return specs + [SheafSpec.from_omega(i, DivClass(p, q)) for i in range(x.n + 1)
                    for p, q in ((0, 0), (2, -2), (-1, 1), (3, 1))]


def test_reg_matches_explicit_scan_oracle():
    # Reg read off the intervals against checking every p of a wide scan
    for x in REG_SCROLLS:
        for spec in _reg_specs(x):
            res = reg_detail(x, spec)
            v = res.value
            assert res.monotone_verified and res.scan == (v - 1, v) and not res.flags
            assert pointwise_reg(x, spec, v - x.dim - 3, v + x.dim + 3) == (v, True), (x, spec.describe())


def test_reg_detail_makes_no_regularity_scan(monkeypatch):
    # on a positive scroll Reg comes from the intervals alone
    from scrollcohom import regularity

    def refuse(*args):
        raise AssertionError("reg_detail scanned is_pq_regular")

    monkeypatch.setattr(regularity, "is_pq_regular", refuse)
    for x in REG_SCROLLS:
        for spec in _reg_specs(x):
            assert reg_detail(x, spec).value is not None


def test_explicit_scan_makes_no_regularity_scan(monkeypatch):
    # a scan range only clips the intervals, so its width costs nothing
    from scrollcohom import regularity

    def refuse(*args):
        raise AssertionError("reg_detail evaluated a condition pointwise")

    monkeypatch.setattr(regularity, "is_pq_regular", refuse)
    monkeypatch.setattr(regularity, "sheaf_h", refuse)
    for x in REG_SCROLLS + (F2,):
        for spec in _reg_specs(x):
            res = reg_detail(x, spec, (-10**9, 10**9))
            assert (res.value, res.scan, res.flags) == (reg(x, spec), (-10**9, 10**9), ("explicit-scan",))


def _sheaf(draw, n):
    if draw(st.booleans()):
        pairs = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
        return SheafSpec.from_split(draw(st.lists(pairs, min_size=1, max_size=2)))
    return SheafSpec.from_omega(draw(st.integers(0, n)), DivClass(draw(st.integers(-2, 2)), draw(st.integers(-2, 2))))


@st.composite
def _scroll_and_sheaf(draw, a_lo, positive_allowed=True):
    m = draw(st.integers(0, 2))
    n = draw(st.integers(0 if m else 1, 2))
    a = draw(st.lists(st.integers(a_lo, 3), min_size=n + 1, max_size=n + 1))
    if not positive_allowed:
        a[0] = draw(st.integers(a_lo, 0))
    return make_scroll(m, n, a), _sheaf(draw, n)


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(_scroll_and_sheaf(0), st.integers(-4, 2), st.integers(-4, 2))
def test_compare_grid_matches_pointwise_reports(case, p0, q0):
    # the grid read off intervals against the pointwise reports, cell by cell,
    # on semipositive scrolls including a_0 = 0
    x, spec = case
    pbox, qbox = (p0, p0 + 3), (q0, q0 + 3)
    if not ms_implies_pq(x):  # H = 0: compare refuses
        with pytest.raises(ValueError, match="H != 0"):
            compare_regularities(x, spec, pbox, qbox)
        return
    rep = compare_regularities(x, spec, pbox, qbox)
    want = [(p, q, is_ms_regular(x, spec, p, q).verdict, is_pq_regular(x, spec, p, q).verdict)
            for p in range(pbox[0], pbox[1] + 1) for q in range(qbox[0], qbox[1] + 1)]
    assert [(c.p, c.q, c.ms, c.pq) for c in rep.points] == want
    assert rep.violations == tuple((p, q) for p, q, ms, pq in want if ms and not pq)


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(_scroll_and_sheaf(-2, positive_allowed=False))
def test_reg_exact_matches_wide_scan_on_non_positive(case):
    # exact Reg against checking every p of (-40, 40) wherever all finite ends
    # of the irregular set lie inside the scan, bounded above or not
    x, spec = case
    exact = reg_detail(x, spec)
    ends = [e for iv in _failing(x, spec, pq_conditions(x), 0) for e in iv if abs(e) != INF]
    if not all(-39 <= e <= 39 for e in ends):
        return
    want = -40 if "no-condition-can-fail" in exact.flags else exact.value
    assert pointwise_reg(x, spec, -40, 40) == (want, exact.monotone_verified)


@st.composite
def _scan_case(draw):
    # a range left of, right of or straddling the finite ends of the
    # irregular set, or starting near one of them, which can put lo in a gap
    # between two pieces; width 0 gives lo == hi
    x, spec = draw(_scroll_and_sheaf(-2))
    ends = sorted({e for iv in _failing(x, spec, pq_conditions(x), 0) for e in iv if abs(e) != INF}) or [0]
    width = draw(st.integers(0, 6))
    shape = draw(st.sampled_from(("near", "left", "right", "straddle")))
    if shape == "near":
        lo = draw(st.sampled_from(ends)) + draw(st.integers(-3, 3))
        hi = lo + width
    elif shape == "left":
        hi = ends[0] - draw(st.integers(1, 4))
        lo = hi - width
    elif shape == "right":
        lo = ends[-1] + draw(st.integers(1, 4))
        hi = lo + width
    else:
        lo, hi = ends[0] - draw(st.integers(0, 4)), ends[-1] + draw(st.integers(0, 4))
    return x, spec, lo, hi


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_scan_case())
def test_explicit_scan_matches_pointwise_reg(case):
    # the clipped intervals against checking every p of the range, on
    # positive and non-positive scrolls, split and Omega sheaves
    x, spec, lo, hi = case
    res = reg_detail(x, spec, (lo, hi))
    assert (res.scan, res.flags) == ((lo, hi), ("explicit-scan",))
    assert (res.value, res.monotone_verified) == pointwise_reg(x, spec, lo, hi)


def test_compare_refuses_non_semipositive():
    with pytest.raises(ValueError):
        compare_regularities(make_scroll(1, 1, [-1, 2]), O, (0, 0), (0, 0))


@pytest.mark.parametrize("m, n", [(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (2, 3), (4, 2)])
def test_family_budget_counts_the_family(m, n, monkeypatch):
    # the size the budget is checked against is the size of the family built
    x = make_scroll(m, n, [1] * (n + 1))
    for build in (pq_conditions, ms_conditions):
        size = len(build(x))
        with monkeypatch.context() as patch:
            patch.setattr("scrollcohom.regularity.FAMILY_CELL_BUDGET", size * (x.dim + 1))
            build(x)
            patch.setattr("scrollcohom.regularity.FAMILY_CELL_BUDGET", size * (x.dim + 1) - 1)
            with pytest.raises(ValueError, match=f"^{size} .* over the budget of {size * (x.dim + 1) - 1}$"):
                build(x)
