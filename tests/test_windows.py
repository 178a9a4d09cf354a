import pytest

from scrollcohom import DivClass, SheafSpec, make_scroll, nonvanishing_window
from scrollcohom.splitting import ohf_conditions, pure_h_conditions
from scrollcohom.windows import eval_cond, line_h_interval

X12 = make_scroll(1, 1, [1, 2])


def test_line_h_interval_shapes():
    # sections appear from 0 on, top cohomology ends at -2 for q = 0
    assert line_h_interval(X12, 0, 0) == (0, float("inf"))
    assert line_h_interval(X12, 2, 0) == (-float("inf"), -2)
    # h^1 of (t, 3) lives exactly at t = -2 on this scroll
    assert line_h_interval(X12, 1, 3) == (-2, -2)
    assert line_h_interval(X12, 1, 5) == (-4, -2)


def test_line_h_interval_is_sharp_hull():
    from scrollcohom import line_cohom

    for k in range(X12.dim + 1):
        for q in range(-6, 7):
            iv = line_h_interval(X12, k, q)
            nonzero = [p for p in range(-15, 16) if line_cohom(X12, DivClass(p, q))[k]]
            if iv is None:
                assert not nonzero
            else:
                for p in nonzero:
                    assert iv[0] <= p <= iv[1]


@pytest.mark.parametrize("x", [X12, make_scroll(1, 1, [1, 1]), make_scroll(2, 2, [1, 2, 3]),
                               make_scroll(2, 1, [1, 3]), make_scroll(0, 2, [1, 1, 1]),
                               make_scroll(2, 0, [2])], ids=str)
def test_line_h_interval_is_exact(x):
    # every P inside the interval is nonzero, not only every nonzero P inside the
    # hull: the "for every t" scan evaluates split sheaves only inside these
    from scrollcohom import line_cohom

    for k in range(x.dim + 1):
        for q in range(-6, 7):
            iv = line_h_interval(x, k, q)
            inside = {p for p in range(-15, 16) if iv is not None and iv[0] <= p <= iv[1]}
            nonzero = {p for p in range(-15, 16) if line_cohom(x, DivClass(p, q))[k]}
            assert inside == nonzero, (k, q, iv)


def test_non_positive_scroll_rejected():
    with pytest.raises(ValueError):
        line_h_interval(make_scroll(1, 1, [0, 2]), 0, 0)


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
    # Omega^2 here has 2.1 conditions whose resolution intervals are
    # half-infinite; only their Serre-dual bound puts the lowest witness
    # inside the window, the anchors do not reach it
    x = make_scroll(2, 2, [1, 2, 3])
    spec = SheafSpec.from_omega(2, DivClass(*twist))
    conds = pure_h_conditions(x)
    lo, hi = nonvanishing_window(x, spec, conds)
    assert any(eval_cond(x, spec, cond, lo) for cond in conds)
    for t in (lo - 1, lo - 2, hi + 1, hi + 2):
        assert all(eval_cond(x, spec, cond, t) == 0 for cond in conds)
