import pytest

from scrollcohom import (DivClass, SheafSpec, compare_regularities, is_ms_regular, is_pq_regular,
                         make_scroll, reg, reg_detail, rns_is_pq_regular)
from scrollcohom.verify import _classical_pn_regular

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


def test_reg_needs_scan_on_non_positive():
    with pytest.raises(ValueError):
        reg(F2, O)
    res = reg_detail(F2, O, (-3, 3))
    assert res.value == 0 and "explicit-scan" in res.flags


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
                assert is_pq_regular(x, e, p, 0).verdict == _classical_pn_regular(n, twists, p)


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


def test_reg_detail_builds_the_pieces_once(monkeypatch):
    # one build of E's pieces for all (p,q)-regularity conditions, not one
    # per condition; at most two (E and its dual) per call
    from scrollcohom import windows

    calls = []
    real = windows._spec_pieces

    def counted(x, spec):
        calls.append(spec)
        return real(x, spec)

    monkeypatch.setattr(windows, "_spec_pieces", counted)
    for x in (X12, make_scroll(1, 2, [1, 1, 2]), make_scroll(2, 2, [1, 2, 3])):
        specs = [O, SheafSpec.from_split([(0, 1), (1, -1)])]
        specs += [SheafSpec.from_omega(i, DivClass(p, -p)) for i in range(x.n + 1) for p in (0, 2)]
        for spec in specs:
            calls.clear()
            res = reg_detail(x, spec)
            assert res.value is not None
            assert 1 <= len(calls) <= 2, (x, spec.describe(), len(calls))
