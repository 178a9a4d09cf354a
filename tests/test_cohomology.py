import time
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scrollcohom import (DivClass, SplitBundle, bundle_cohom, euler_char, is_globally_generated,
                         line_cohom, make_scroll, mult_map_rank, normalize_twist, omega_cohom, pm_cohom,
                         sym_twists)
from scrollcohom import cohomology
from scrollcohom.characters import weak_compositions
from scrollcohom.cohomology import choose
from scrollcohom.complexes import cotangent_resolution_left, cotangent_resolution_right, hypercohom
from scrollcohom.verify import hook_twists

X12 = make_scroll(1, 1, [1, 2])
F2 = make_scroll(1, 1, [0, 2])


@pytest.mark.parametrize("m,d,want", [(2, 2, (6, 0)), (1, -1, (0, 0)), (1, -2, (0, 1)),
                                      (0, 3, (1, 0)), (0, -1, (0, 1)), (3, -4, (0, 1))])
def test_pm_cohom(m, d, want):
    assert pm_cohom(m, d) == want


def test_choose_edge_cases():
    assert choose(4, 2) == 6
    assert choose(3, 0) == 1
    assert choose(2, 5) == 0
    assert choose(-1, 2) == 0  # no generalized binomials here; counts only


def test_sym_twists():
    assert sym_twists(X12, 2) == ((2, 1), (3, 1), (4, 1))
    assert sym_twists(X12, 0) == ((0, 1),)
    assert sym_twists(make_scroll(1, 2, [1, 1, 2]), 1) == ((1, 2), (2, 1))
    assert sym_twists(make_scroll(1, 3, [1, 1, 1, 1]), 4) == ((4, choose(4 + 3, 3)),)
    # packed-field widths: a count of exactly 256 (past one byte), 2^16 + 1
    # (past two) and C(106, 6) > 2^30 (CPython's digit size)
    assert sym_twists(make_scroll(1, 1, [2, 2]), 255) == ((510, 256),)
    assert sym_twists(make_scroll(1, 1, [3, 3]), 2**16) == ((3 * 2**16, 2**16 + 1),)
    assert sym_twists(make_scroll(1, 6, [1] * 7), 100) == ((100, choose(106, 6)),)
    with pytest.raises(ValueError):
        sym_twists(X12, -1)


def test_sym_twists_budget(monkeypatch):
    # Sym^10 on O(1)+O(2): 11 rows of at most 10*(2-1)+1 cells; the check
    # runs before any row is built (uncached, through __wrapped__)
    monkeypatch.setattr(cohomology, "SYM_CELL_BUDGET", 11 * 11)
    assert cohomology.sym_twists.__wrapped__(X12, 10) == tuple((t, 1) for t in range(10, 21))
    monkeypatch.setattr(cohomology, "SYM_CELL_BUDGET", 11 * 11 - 1)
    with pytest.raises(ValueError, match="budget"):
        cohomology.sym_twists.__wrapped__(X12, 10)


def test_sym_twists_budget_counts_bytes(monkeypatch):
    # Sym^255 on O(1)+O(2): 256 * 256 cells, and C(256, 1) = 256 needs 2-byte fields
    monkeypatch.setattr(cohomology, "SYM_CELL_BUDGET", 256 * 256 * 2)
    assert cohomology.sym_twists.__wrapped__(X12, 255) == tuple((t, 1) for t in range(255, 511))
    monkeypatch.setattr(cohomology, "SYM_CELL_BUDGET", 256 * 256 * 2 - 1)
    with pytest.raises(ValueError, match="budget"):
        cohomology.sym_twists.__wrapped__(X12, 255)



def test_step_budget_counts_every_sym_row(monkeypatch):
    # n*K steps for a line bundle's short side, (i+1)*n*K for the i+1 rows of
    # Omega^i(pH), K the parts that fit below the cut N.  On O(1)+O(2)^3 over
    # P^1 at p = 40 the h^m side is the shorter one, with N = K = -40-q-2,
    # while h^0 needs 80+q.  The subset sums and moments of a hook take steps
    # of their own, 16 at i = 1 (two subset sums, two moments), counted when
    # the moments are built: a cached vector takes none
    y = make_scroll(1, 3, [1, 2, 2, 2])
    line, hook = _line_by_pm_cohom(y, DivClass(40, -56)), _omega_by_pm_cohom(y, 1, DivClass(40, -49))
    flat = {p: _omega_by_pm_cohom(y, 1, DivClass(p, 0)) for p in (40, 41)}
    cohomology._moments.cache_clear()
    monkeypatch.setattr(cohomology, "SYM_STEP_BUDGET", 42)
    assert cohomology.line_cohom.__wrapped__(y, DivClass(40, -56)) == line
    with pytest.raises(ValueError, match="^Sym\\^40 on this scroll needs up to 45 dynamic-program steps"):
        cohomology.line_cohom.__wrapped__(y, DivClass(40, -57))
    assert omega_cohom(y, 1, DivClass(40, -49)) == hook
    with pytest.raises(ValueError, match="needs up to 48 dynamic-program steps, over the budget of 42$"):
        omega_cohom(y, 1, DivClass(40, -50))
    monkeypatch.setattr(cohomology, "SYM_STEP_BUDGET", 15)
    assert omega_cohom(y, 1, DivClass(40, 0)) == flat[40]
    with pytest.raises(ValueError, match="^Omega\\^1 on this scroll needs up to 16 subset-sum and moment steps"):
        omega_cohom(y, 1, DivClass(41, 0))
    monkeypatch.setattr(cohomology, "SYM_STEP_BUDGET", 16)
    assert omega_cohom(y, 1, DivClass(41, 0)) == flat[41]


def test_work_budget_counts_steps_times_row_bytes(monkeypatch):
    # the h^1 side of O(40H - 56F) on O(1)+O(2)^3 over P^1: 3*14 steps on
    # rows cut to N_m + 1 = 15 fields of w bytes
    y, d = make_scroll(1, 3, [1, 2, 2, 2]), DivClass(40, -56)
    want, w = _line_by_pm_cohom(y, d), cohomology._row_width((0, 1, 1, 1), 0, 40, 14, 1)
    monkeypatch.setattr(cohomology, "SYM_WORK_BUDGET", 42 * 15 * w)
    assert cohomology.line_cohom.__wrapped__(y, d) == want
    monkeypatch.setattr(cohomology, "SYM_WORK_BUDGET", 42 * 15 * w - 1)
    with pytest.raises(ValueError, match=f"^Sym\\^40 on this scroll needs 42 dynamic-program steps on rows of "
                                         f"{15 * w} bytes, over the budget of {42 * 15 * w - 1} bytes shifted$"):
        cohomology.line_cohom.__wrapped__(y, d)


def test_sym_twists_wide_fields_across_twists():
    # a = (0^6, 1): the count at twist t is C(100 - t + 5, 5), the total
    # C(106, 6) > 2^30, so neighbouring fields of many sizes sit side by side
    x = make_scroll(1, 6, [0] * 6 + [1])
    hist = sym_twists(x, 100)
    assert hist == tuple((t, choose(105 - t, 5)) for t in range(101))
    assert sum(mult for _, mult in hist) == choose(106, 6) > 2**30


@st.composite
def scrolls(draw):
    m = draw(st.integers(0, 2))
    n = draw(st.integers(0 if m else 1, 3))
    return make_scroll(m, n, draw(st.lists(st.integers(-4, 5), min_size=n + 1, max_size=n + 1)))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(x=scrolls(), k=st.integers(0, 8))
@example(x=make_scroll(0, 2, [-1, 0, 3]), k=5)  # m = 0, a negative twist
@example(x=make_scroll(2, 0, [-3]), k=8)  # n = 0
@example(x=make_scroll(1, 3, [2, 2, 2, 5]), k=7)  # repeated twists
@example(x=make_scroll(1, 2, [-4, -4, -1]), k=6)  # all twists negative
@example(x=make_scroll(1, 1, [2, 2]), k=255)  # a count of 256, past one byte
def test_sym_twists_matches_enumeration(x, k):
    hist = sym_twists(x, k)
    want = Counter(sum(aj * bj for aj, bj in zip(x.a, beta)) for beta in weak_compositions(k, x.n + 1))
    assert dict(hist) == want
    assert all(t1 < t2 for (t1, _), (t2, _) in zip(hist, hist[1:]))
    assert sum(mult for _, mult in hist) == choose(k + x.n, x.n)


def test_line_cohom_high_degree():
    # Sym^300 of O(1)^5 (resp. O(0)^5) is C(304, 4) copies of one line bundle;
    # listing the compositions would take C(304, 4) ~ 3.5e8 steps
    x = make_scroll(1, 4, [1] * 5)
    assert line_cohom(x, DivClass(300, 0)) == (choose(304, 4) * 301, 0, 0, 0, 0, 0)
    x = make_scroll(2, 4, [0] * 5)
    assert line_cohom(x, DivClass(300, 5)) == (choose(304, 4) * choose(7, 2),) + (0,) * 6
    x = make_scroll(1, 4, [1, 2, 3, 5, 8])
    for p in (120, -125):
        d = x.divclass(p, -7)
        t1, t2 = line_cohom(x, d), line_cohom(x, x.serre_dual_twist(d))
        assert any(t1) and all(t1[i] == t2[x.dim - i] for i in range(x.dim + 1))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(x=scrolls(), p=st.integers(0, 40), q=st.integers(-60, 60))
def test_closed_form_matches_the_kernel(x, p, q):
    # chi plus the shorter side, whichever side that is, against the
    # histogram summed term by term
    d = DivClass(p, q)
    assert cohomology.line_cohom.__wrapped__(x, d) == _line_by_pm_cohom(x, d)


@pytest.mark.parametrize("p", [1, 3])
def test_closed_form_on_a_wide_base_stops_at_min_m_p(p):
    # the series runs to min(m, p), not to m = 3000; the queries have an
    # empty side (N_m < 0 for q = 0 and -3000-p, N_0 < 0 for -3001-2p)
    x = make_scroll(3000, 1, [1, 2])
    for q in (0, -3000 - p, -3001 - 2 * p):
        d = DivClass(p, q)
        t0 = time.process_time()
        got = cohomology.line_cohom.__wrapped__(x, d)
        assert time.process_time() - t0 < 0.1
        assert got == _line_by_pm_cohom(x, d), q


def test_series_budgets(monkeypatch):
    # on P(O(1)+O(2)) over P^3, the series to K = 3: 4 rows of S+1 = 4 fields,
    # each coefficient at most C(4, 1) C(3, 1) = 12, so 1-byte fields; n*K = 3 steps
    x = make_scroll(3, 1, [1, 2])
    monkeypatch.setattr(cohomology, "SERIES_BYTE_BUDGET", 16)
    monkeypatch.setattr(cohomology, "SERIES_STEP_BUDGET", 3)
    assert cohomology._series.__wrapped__(x, 3) == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    monkeypatch.setattr(cohomology, "SERIES_BYTE_BUDGET", 15)
    with pytest.raises(ValueError, match="^the series h_K\\(v\\) for K <= 3 on this scroll needs at least 16 "
                                         "table bytes, over the budget of 15$"):
        cohomology._series.__wrapped__(x, 3)
    monkeypatch.setattr(cohomology, "SERIES_STEP_BUDGET", 2)
    with pytest.raises(ValueError, match="needs up to 3 dynamic-program steps, over the budget of 2$"):
        cohomology._series.__wrapped__(x, 3)


def _line_by_pm_cohom(x, d):
    # the histogram sum written out term by term with pm_cohom
    table = [0] * (x.dim + 1)
    if d.p >= 0:
        twists, shift, lo, hi = sym_twists(x, d.p), d.q, 0, x.m
    elif d.p < -x.n:
        twists, shift, lo, hi = sym_twists(x, -d.p - x.n - 1), x.c - d.q - 1 - x.m, x.dim, x.n
    else:
        return tuple(table)
    for t, mult in twists:
        h0, hm = pm_cohom(x.m, t + shift)
        table[lo] += mult * h0
        table[hi] += mult * hm
    return tuple(table)


@pytest.mark.parametrize("x", [X12, make_scroll(0, 2, [-1, 0, 3]), make_scroll(2, 0, [-3]),
                               make_scroll(0, 1, [2, 2]), make_scroll(1, 2, [-4, -2, 1]),
                               make_scroll(3, 1, [0, 2])])
def test_line_cohom_matches_pm_cohom_sum(x):
    for p in range(-x.n - 5, 7):
        for q in range(-9, 10):
            d = DivClass(p, q)
            assert line_cohom(x, d) == _line_by_pm_cohom(x, d), (x, d)


def _omega_by_pm_cohom(x, i, d):
    # the hook histogram (a dict convolution) summed term by term with pm_cohom
    table = [0] * (x.dim + 1)
    for t, mult in hook_twists(x, i, d.p).items():
        h0, hm = pm_cohom(x.m, t + d.q)
        table[0] += mult * h0
        table[x.m] += mult * hm
    return tuple(table)


@st.composite
def band_edge_queries(draw):
    # q within 3 of an edge of the band where the pushforward's twists
    # change sign: p*a_0 + q = -m-1 (h^m starts) or p*a_n + q = 0 (h^0 starts)
    m = draw(st.integers(0, 3))
    n = draw(st.integers(0 if m else 1, 4))
    x = make_scroll(m, n, draw(st.lists(st.integers(-4, 5), min_size=n + 1, max_size=n + 1)))
    p = draw(st.integers(0, 60))
    edge = draw(st.sampled_from((-p * x.a[0] - m - 1, -p * x.a[-1])))
    return x, p, edge + draw(st.integers(-3, 3)), draw(st.integers(0, n)), draw(st.booleans())


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(query=band_edge_queries())
@example(query=(make_scroll(0, 2, [-1, 0, 3]), 40, 3, 2, True))  # m = 0, negative twist
@example(query=(make_scroll(1, 1, [2, 2]), 255, -512, 1, False))  # a count of 256, past one byte
@example(query=(make_scroll(2, 1, [3, 3]), 2**16, -3 * 2**16 - 3, 1, True))  # past two bytes
@example(query=(make_scroll(1, 6, [1] * 7), 100, -102, 3, False))  # C(106, 6) > 2^30
@example(query=(make_scroll(3, 4, [-4, -1, 0, 2, 5]), 60, -62, 4, True))  # sums past four bytes
# exactly at the cuts, N_m = -e-m-1 in {-1, 0} and N_0 = p*a_n + q in {-1, 0}
@example(query=(make_scroll(3, 2, [1, 2, 4]), 5, -8, 1, False))  # N_m = -1: h^m empty
@example(query=(make_scroll(3, 2, [1, 2, 4]), 5, -9, 1, True))  # N_m = 0
@example(query=(make_scroll(3, 2, [1, 2, 4]), 5, -21, 2, True))  # N_0 = -1: h^0 empty
@example(query=(make_scroll(3, 2, [1, 2, 4]), 5, -20, 2, False))  # N_0 = 0
@example(query=(make_scroll(0, 2, [-1, 0, 3]), 7, 7, 1, True))  # m = 0, e = 0
@example(query=(make_scroll(0, 2, [-1, 0, 3]), 7, 6, 1, False))  # m = 0, e = -1
@example(query=(make_scroll(0, 2, [-1, 0, 3]), 7, -22, 2, False))  # m = 0, p*a_n + q = -1
@example(query=(make_scroll(0, 2, [-1, 0, 3]), 7, -21, 2, True))  # m = 0, p*a_n + q = 0
def test_packed_sums_match_written_out_references(query):
    # chi plus the shorter side against the histograms summed term by
    # term, on both sides of each edge and on the Serre-dual side
    x, p, q, i, dual = query
    d = DivClass(-p - x.n - 1, x.c - q - 1 - x.m) if dual else DivClass(p, q)
    assert line_cohom(x, d) == _line_by_pm_cohom(x, d)
    if 0 < i < p:
        assert omega_cohom(x, i, DivClass(p, q)) == _omega_by_pm_cohom(x, i, DivClass(p, q))


@st.composite
def cut_queries(draw):
    # q within 3 of N_m = 0 (h^m starts), of N_0 = 0 (h^0 starts) or of the
    # tie N_m = N_0, where the shorter side changes from h^m to h^0
    m = draw(st.integers(0, 3))
    n = draw(st.integers(0 if m else 1, 4))
    x = make_scroll(m, n, draw(st.lists(st.integers(-4, 5), min_size=n + 1, max_size=n + 1)))
    p = draw(st.integers(0, 60))
    cut = draw(st.sampled_from((-p * x.a[0] - m - 1, -p * x.a[-1], (-p * (x.a[0] + x.a[-1]) - m - 1) // 2)))
    return x, DivClass(p, cut + draw(st.integers(-3, 3))), draw(st.integers(0, n)), draw(st.integers(-3, 3))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(query=cut_queries())
@example(query=(make_scroll(1, 2, [1, 1, 2]), DivClass(8, -13), 1, 3))  # the tie N_m = N_0 = 3
@example(query=(make_scroll(2, 2, [-1, 0, 3]), DivClass(9, -24), 1, -3))  # h^0 side, N_0 = 3 < N_m = 30
def test_tables_are_invariant_under_retwisting(query):
    # O(w) (x) V gives the same scroll with H' = H + wF, so every table is
    # the same in the new basis, while N_m and N_0 move with the twists
    x, d, i, w = query
    xw, tmap = normalize_twist(x, w)
    assert line_cohom(xw, tmap.apply(d)) == line_cohom(x, d)
    assert omega_cohom(xw, i, tmap.apply(d)) == omega_cohom(x, i, d)


def test_second_routes_skip_the_base_sum(monkeypatch):
    # the character oracle and hypercohomology check line_cohom and
    # omega_cohom, so neither may share their chi, its moments and series,
    # or the short side and its scan
    from scrollcohom.characters import character_cohom
    from scrollcohom.complexes import single_term_complex

    def forbid(name):
        def forbidden(*args, **kwargs):
            raise AssertionError(f"a second route reached cohomology.{name}")
        monkeypatch.setattr(cohomology, name, forbidden)

    for name in ("_base_sum", "_moments", "_series", "_series_width", "_short_side", "_scan", "_mirror"):
        forbid(name)
    for p in (-4, -1, 0, 2):
        for q in (-4, 1):
            d = DivClass(p, q)
            assert character_cohom(X12, d) == hypercohom(X12, single_term_complex(X12, d))
    for i in (0, 1):
        t = DivClass(3, -2)
        assert (hypercohom(X12, cotangent_resolution_left(X12, i).twist(t))
                == hypercohom(X12, cotangent_resolution_right(X12, i).twist(t)))
    # production takes one path on either side of each cut, lines and hooks alike
    for q in (-5, -4, -3, 1):
        with pytest.raises(AssertionError, match="second route reached cohomology._base_sum"):
            line_cohom.__wrapped__(X12, DivClass(2, q))
        with pytest.raises(AssertionError, match="second route reached cohomology._base_sum"):
            omega_cohom(X12, 1, DivClass(3, q))


def test_line_cohom_frozen_values():
    assert line_cohom(X12, DivClass(0, 0)) == (1, 0, 0)
    assert line_cohom(F2, DivClass(-2, 0)) == (0, 0, 1)
    # displayed value: h^{n+m}(O(-H)<-n, c-1-m>) = 1, total twist (-2, 1) here
    assert line_cohom(X12, DivClass(-2, 1)) == (0, 0, 1)
    assert line_cohom(X12, DivClass(-3, 1)) == (0, 0, 5)
    assert line_cohom(X12, DivClass(-1, 5)) == (0, 0, 0)  # -n <= p < 0 vanishes


def test_line_cohom_table_support():
    for x in (X12, make_scroll(2, 1, [1, 3]), make_scroll(2, 2, [1, 1, 1])):
        allowed = {0, x.m, x.n, x.dim}
        for p in range(-5, 6):
            for q in range(-5, 6):
                t = line_cohom(x, DivClass(p, q))
                assert len(t) == x.dim + 1
                assert all(h == 0 for i, h in enumerate(t) if i not in allowed)


def test_bundle_cohom():
    e = SplitBundle((DivClass(0, 0),))
    assert bundle_cohom(X12, e) == line_cohom(X12, DivClass(0, 0))
    # witness used by the splitting tests: O(F) twisted to total class (-2,3)
    e = SplitBundle((DivClass(0, 1),))
    assert bundle_cohom(X12, e, DivClass(-2, 2)) == (0, 1, 0)
    e = SplitBundle((DivClass(0, 0), DivClass(1, 0)))
    assert bundle_cohom(X12, e) == (6, 0, 0)  # 1 + (2 + 3) sections


def test_split_bundle_invariants():
    with pytest.raises(ValueError):
        SplitBundle(())
    e = SplitBundle((DivClass(1, 0), DivClass(0, 0)))
    assert e.summands == (DivClass(0, 0), DivClass(1, 0))
    assert e.dual().summands == (DivClass(-1, 0), DivClass(0, 0))


@pytest.mark.parametrize("d,want", [((0, 0), 1), ((-1, 0), 0)])
def test_euler_char(d, want):
    assert euler_char(X12, DivClass(*d)) == want


def test_euler_char_hirzebruch():
    assert euler_char(F2, DivClass(-2, 0)) == 1


@pytest.mark.parametrize("x,d,want", [
    (X12, (1, -1), True),
    (X12, (0, -1), False),
    (F2, (1, 0), True),
    (F2, (1, -1), False),
    (X12, (-1, 5), False),
])
def test_is_globally_generated(x, d, want):
    assert is_globally_generated(x, DivClass(*d)) is want


def test_mult_map_rank():
    e = SplitBundle((DivClass(0, 0),))
    assert mult_map_rank(X12, e, DivClass(0, 1)) == (2, 2)
    assert mult_map_rank(X12, e, DivClass(1, 0)) == (5, 5)
    assert mult_map_rank(X12, SplitBundle((DivClass(0, -1),)), DivClass(0, 1)) == (0, 1)
    with pytest.raises(ValueError):
        mult_map_rank(X12, e, DivClass(1, 1))


def test_mult_map_rank_budget():
    # the binomial bound refuses the call before any monomial is listed
    import time

    t0 = time.process_time()
    with pytest.raises(ValueError, match="budget"):
        mult_map_rank(X12, SplitBundle((DivClass(3000, 0),)), DivClass(0, 1))
    assert time.process_time() - t0 < 0.1
    assert mult_map_rank(X12, SplitBundle((DivClass(60, 0),)), DivClass(0, 1)) == (5612, 5612)


def test_serre_duality_box():
    for x in (X12, F2, make_scroll(1, 2, [1, 1, 2]), make_scroll(0, 2, [0, 0, 0]),
              make_scroll(2, 0, [2]), make_scroll(1, 1, [-1, 2])):
        for p in range(-6, 7):
            for q in range(-6, 7):
                d = x.divclass(p, q)
                t1 = line_cohom(x, d)
                t2 = line_cohom(x, x.serre_dual_twist(d))
                assert all(t1[i] == t2[x.dim - i] for i in range(x.dim + 1)), (x, d)


@st.composite
def omega_queries(draw):
    m = draw(st.integers(0, 2))
    n = draw(st.integers(1, 3))
    x = make_scroll(m, n, draw(st.lists(st.integers(-1, 2), min_size=n + 1, max_size=n + 1)))
    i = draw(st.integers(0, n))
    return x, i, DivClass(draw(st.integers(-n - 3, n + 3)), draw(st.integers(-2, 2)))


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(query=omega_queries())
@example(query=(make_scroll(0, 3, [0, 0, 0, 0]), 2, DivClass(-4, 1)))  # m = 0, p < i - n
@example(query=(make_scroll(1, 2, [-1, 0, 2]), 1, DivClass(0, -2)))  # non-positive, p = 0
@example(query=(make_scroll(2, 3, [1, 1, 2, 2]), 2, DivClass(4, -5)))  # p > i, h^m side
@example(query=(make_scroll(1, 3, [-1, -1, 2, 2]), 3, DivClass(-6, 2)))  # i = n, dual of Omega^0
def test_omega_closed_form_matches_both_resolutions(query):
    x, i, t = query
    tab = omega_cohom(x, i, t)
    assert hypercohom(x, cotangent_resolution_left(x, i).twist(t)) == tab
    assert hypercohom(x, cotangent_resolution_right(x, i).twist(t)) == tab
    dual = omega_cohom(x, x.n - i, DivClass(-t.p, -t.q - x.m - 1))
    assert tab == dual[::-1]


def test_omega_closed_form_on_a_large_fiber():
    # n = 6: the resolutions have 64 summands and take tens of seconds
    import time

    x = make_scroll(1, 6, [1, 1, 1, 1, 1, 1, 2])
    t0 = time.process_time()
    tab = omega_cohom(x, 3, DivClass(7, -1))
    assert time.process_time() - t0 < 0.5
    assert tab == (19200,) + (0,) * 7


def test_omega_closed_form_calls_no_engine(monkeypatch):
    # production Omega cohomology reads histograms only: no complex, no
    # character enumeration, no rank computation
    from scrollcohom import characters, complexes, linalg

    def forbidden(*args, **kwargs):
        raise AssertionError("omega_cohom reached a second-route engine")

    for module, name in ((complexes, "hypercohom"), (complexes, "rank_int"), (linalg, "rank_int"),
                         (complexes, "enumerate_contributing"), (characters, "enumerate_contributing"),
                         (characters, "_character_counts"), (characters, "character_cohom")):
        monkeypatch.setattr(module, name, forbidden)
    x = make_scroll(2, 3, [1, 1, 2, 3])
    for i in range(x.n + 1):
        for p in range(-6, 7):
            omega_cohom(x, i, DivClass(p, -1))
