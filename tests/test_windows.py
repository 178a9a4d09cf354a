import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scrollcohom import Cond, DivClass, SheafSpec, line_cohom, make_scroll, nonvanishing_window, omega_cohom
from scrollcohom.splitting import ohf_conditions, pure_h_conditions
from scrollcohom.windows import INF, eval_cond, h_intervals, omega_h_intervals

X12 = make_scroll(1, 1, [1, 2])


def _inside(ivs, lo=-15, hi=15) -> set:
    return {p for p in range(lo, hi + 1) if any(a <= p <= b for a, b in ivs)}


def test_line_h_interval_shapes():
    # line bundles are the i = 0 case: sections appear from 0 on, top
    # cohomology ends at -2 for q = 0
    assert omega_h_intervals(X12, 0, 0, 0) == ((0, INF),)
    assert omega_h_intervals(X12, 0, 2, 0) == ((-INF, -2),)
    # h^1 of (t, 3) lives exactly at t = -2 on this scroll
    assert omega_h_intervals(X12, 0, 1, 3) == ((-2, -2),)
    assert omega_h_intervals(X12, 0, 1, 5) == ((-4, -2),)


def test_line_h_interval_is_sharp_hull():
    for k in range(X12.dim + 1):
        for q in range(-6, 7):
            ivs = omega_h_intervals(X12, 0, k, q)
            assert len(ivs) <= 1  # one interval per degree when m = n = 1
            nonzero = [p for p in range(-15, 16) if line_cohom(X12, DivClass(p, q))[k]]
            for p in nonzero:
                assert any(lo <= p <= hi for lo, hi in ivs)


@pytest.mark.parametrize("x", [X12, make_scroll(1, 1, [1, 1]), make_scroll(2, 2, [1, 2, 3]),
                               make_scroll(2, 1, [1, 3]), make_scroll(0, 2, [1, 1, 1]),
                               make_scroll(2, 0, [2])], ids=str)
def test_line_h_interval_is_exact(x):
    # every P inside the intervals is nonzero, not only every nonzero P inside
    # the hull: the "for every t" scan evaluates split sheaves only inside these
    for k in range(x.dim + 1):
        for q in range(-6, 7):
            ivs = omega_h_intervals(x, 0, k, q)
            nonzero = {p for p in range(-15, 16) if line_cohom(x, DivClass(p, q))[k]}
            assert _inside(ivs) == nonzero, (k, q, ivs)


NON_POSITIVE = [make_scroll(1, 1, [0, 2]), make_scroll(1, 1, [-1, 2]), make_scroll(1, 2, [-1, 0, 1]),
                make_scroll(2, 1, [0, 0]), make_scroll(0, 2, [-1, 0, 0]), make_scroll(1, 0, [-1]),
                make_scroll(2, 2, [-1, -1, 3]), make_scroll(1, 1, [-2, -1])]


def test_intervals_exact_on_non_positive_scrolls():
    # a_0 in {-1, 0}, and all twists negative: the rays hold for every sign
    for x in NON_POSITIVE:
        for i in range(x.n + 1):
            for k in range(x.dim + 1):
                for q in range(-6, 7):
                    ivs = omega_h_intervals(x, i, k, q)
                    nonzero = {p for p in range(-15, 16) if omega_cohom(x, i, DivClass(p, q))[k]}
                    assert _inside(ivs) == nonzero, (x, i, k, q, ivs)


def test_intervals_can_be_unbounded_in_middle_degrees():
    # on F2 = P(O + O(2)) over P^1, h^1(O(P*H - 2F)) != 0 for every P >= 0
    f2 = make_scroll(1, 1, [0, 2])
    assert omega_h_intervals(f2, 0, 1, -2) == ((0, INF),)
    assert all(line_cohom(f2, DivClass(p, -2))[1] for p in range(0, 30))


@st.composite
def _scroll_and_row(draw):
    m = draw(st.integers(0, 2))
    n = draw(st.integers(0 if m else 1, 3))
    a = draw(st.lists(st.integers(-3, 3), min_size=n + 1, max_size=n + 1))
    x = make_scroll(m, n, a)
    return x, draw(st.integers(0, n)), draw(st.integers(-6, 6))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_scroll_and_row())
def test_intervals_match_cohomology_on_both_signs(case):
    # twists of both signs: every p of the box lies in the intervals iff its
    # group is nonzero, for line bundles and Omega^i alike
    x, i, q = case
    tables = {p: omega_cohom(x, i, DivClass(p, q)) for p in range(-14, 15)}
    for k in range(x.dim + 1):
        assert _inside(omega_h_intervals(x, i, k, q), -14, 14) == {p for p in tables if tables[p][k]}, k


def test_window_contains_interesting_twists():
    lo, hi = nonvanishing_window(X12, SheafSpec.from_split([(0, 0)]), pure_h_conditions(X12))
    assert lo <= -2 and hi >= 0
    lo, hi = nonvanishing_window(X12, SheafSpec.from_split([(0, 1)]), pure_h_conditions(X12))
    assert lo <= -2 <= hi  # the failure witness t = -2 is inside


@pytest.mark.parametrize("summands", [[(0, 0)], [(0, 1)], [(1, -1), (0, 2)], [(-2, 1)]])
def test_window_margins_vanish(summands):
    spec = SheafSpec.from_split(summands)
    for conds in (pure_h_conditions(X12), ohf_conditions(X12)):
        lo, hi = nonvanishing_window(X12, spec, conds)
        for t in (lo - 1, lo - 2, hi + 1, hi + 2):
            assert all(eval_cond(X12, spec, cond, t) == 0 for cond in conds)


def test_window_margins_vanish_omega():
    y = make_scroll(1, 3, [1, 1, 1, 1])
    spec = SheafSpec.from_omega(1, DivClass(2, -2))
    conds = pure_h_conditions(y)
    lo, hi = nonvanishing_window(y, spec, conds)
    for t in (lo - 1, lo - 2, hi + 1, hi + 2):
        assert all(eval_cond(y, spec, cond, t) == 0 for cond in conds)


@pytest.mark.parametrize("twist", [(-2, 1), (-1, 2), (0, 1)], ids=str)
def test_window_margins_vanish_where_serre_duality_bounds(twist):
    # Omega^2 here has 2.1 conditions whose lowest witness lies below the
    # anchors; the exact intervals reach it, so it is the window's lower end
    x = make_scroll(2, 2, [1, 2, 3])
    spec = SheafSpec.from_omega(2, DivClass(*twist))
    conds = pure_h_conditions(x)
    lo, hi = nonvanishing_window(x, spec, conds)
    assert any(eval_cond(x, spec, cond, lo) for cond in conds)
    for t in (lo - 1, lo - 2, hi + 1, hi + 2):
        assert all(eval_cond(x, spec, cond, t) == 0 for cond in conds)


@pytest.mark.parametrize("x", [X12, make_scroll(1, 1, [1, 1]), make_scroll(2, 2, [1, 2, 3]),
                               make_scroll(1, 3, [1, 1, 2, 2]), make_scroll(3, 1, [2, 3]),
                               make_scroll(0, 2, [1, 1, 1]), make_scroll(0, 3, [1, 2, 2, 3]),
                               make_scroll(2, 0, [2]), make_scroll(1, 0, [3])], ids=str)
def test_omega_h_intervals_are_exact(x):
    # the union of the pieces is exactly where omega_cohom is nonzero, in
    # every degree, including m = 0 and n = 0 where degrees coincide
    for i in range(x.n + 1):
        for k in range(x.dim + 1):
            for q in range(-7, 8):
                ivs = omega_h_intervals(x, i, k, q)
                inside = _inside(ivs)
                nonzero = {p for p in range(-15, 16) if omega_cohom(x, i, DivClass(p, q))[k]}
                assert inside == nonzero, (i, k, q, ivs)


def test_h_intervals_shift_by_twist_and_condition():
    x = make_scroll(1, 2, [1, 1, 2])
    for i in range(x.n + 1):
        spec = SheafSpec.from_omega(i, DivClass(2, -1))
        for k in range(1, x.dim):
            ivs = h_intervals(x, spec, k, -1, 3)
            for t in range(-12, 13):
                inside = any(lo <= t <= hi for lo, hi in ivs)
                assert inside == bool(eval_cond(x, spec, Cond("z", k, -1, 3), t)), (i, k, t)
    with pytest.raises(ValueError):
        omega_h_intervals(x, x.n + 1, 1, 0)


@pytest.mark.parametrize("twist", [(0, 0), (-2, 2), (1, 2), (0, -3), (2, -1)], ids=str)
def test_omega_zero_window_is_the_line_bundle_window(twist):
    # Omega^0(T) is the line bundle O(T), and so is Omega^n(T + (n+1)H - cF):
    # one interval function gives all three spellings, and their duals, the
    # same intervals, so the same window; one sum over the pieces gives them
    # the same cohomology, and so the same report from every scan criterion.
    from scrollcohom import check_theorem, sheaf_cohom
    from scrollcohom.splitting import indecomposable_hypotheses
    from scrollcohom.windows import window_pass

    for x in (X12, make_scroll(2, 2, [1, 1, 2]), make_scroll(1, 2, [1, 2, 3])):
        line = SheafSpec.from_split([twist])
        spellings = (SheafSpec.from_omega(0, DivClass(*twist)),
                     SheafSpec.from_omega(x.n, DivClass(*twist) + DivClass(x.n + 1, -x.c)))
        for conds in (pure_h_conditions(x), ohf_conditions(x), indecomposable_hypotheses(x)):
            for omega in spellings:
                assert window_pass(x, omega, conds) == window_pass(x, line, conds)
        theorems = ("2.1", "2.2", "c2.5", "c2.6") if x.m == 1 else ("2.1", "2.2")
        for omega in spellings:
            for p in range(-3, 4):
                for q in range(-3, 4):
                    assert sheaf_cohom(x, omega, DivClass(p, q)) == sheaf_cohom(x, line, DivClass(p, q))
            for theorem in theorems:
                assert check_theorem(x, omega, theorem).to_json() == check_theorem(x, line, theorem).to_json()
