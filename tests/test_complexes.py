import pytest

from scrollcohom import DivClass, euler_char, hypercohom, line_cohom, make_scroll, omega_cohom
from scrollcohom.complexes import (MonomialComplex, cotangent_resolution_left,
                                   cotangent_resolution_right, euler_complex, exterior_complex,
                                   koszul_pullback, koszul_pullback_spliced, per_key_dims,
                                   _contributing_keys, single_term_complex, validate_complex)
from scrollcohom.cohomology import choose, zero_table

X12 = make_scroll(1, 1, [1, 2])
X112 = make_scroll(1, 2, [1, 1, 2])
X13 = make_scroll(2, 1, [1, 3])
SCROLLS = (X12, X112, X13, make_scroll(1, 1, [0, 2]), make_scroll(2, 2, [1, 1, 1]))


def test_euler_complex_shape():
    c = euler_complex(X12)
    assert [s.cls for s in c.terms[0]] == [DivClass(0, 1), DivClass(0, 2)]
    assert [s.cls for s in c.terms[1]] == [DivClass(1, 0)]
    entries = c.diffs[0]
    # column of fiber coordinates, degrees (1,-1) and (1,-2)
    monomial_classes = sorted(DivClass(1, 0) - s.cls for s in c.terms[0])
    assert monomial_classes == [DivClass(1, -2), DivClass(1, -1)]
    assert len(entries) == 2 and all(sign == 1 for _, _, sign, _ in entries)
    assert validate_complex(c) == []


def test_euler_needs_fiber():
    with pytest.raises(ValueError):
        euler_complex(make_scroll(2, 0, [2]))


def test_koszul_pullback_term_sizes():
    c = koszul_pullback(X13)
    assert [len(t) for t in c.terms] == [choose(3, j) for j in (3, 2, 1, 0)]


def test_exterior_leftmost_term():
    c = exterior_complex(X112)
    assert c.terms[0][0].cls == DivClass(-2, 4)


def test_builders_validate():
    # a four-variable base block and a negative twist, through both blocks
    for x in SCROLLS + (make_scroll(3, 1, [-1, 2]), make_scroll(3, 3, [1, 1, 2, 3])):
        for build in (euler_complex, exterior_complex, koszul_pullback, koszul_pullback_spliced):
            assert validate_complex(build(x)) == [], build.__name__
        for i in range(x.n + 1):
            assert validate_complex(cotangent_resolution_left(x, i)) == []
            assert validate_complex(cotangent_resolution_right(x, i)) == []


def test_validate_catches_corruption():
    c = euler_complex(X12)
    src, tgt, sign, expo = c.diffs[0][0]
    bad_expo = MonomialComplex(c.x, c.start_pos, c.terms, ((
        (src, tgt, sign, expo[:-1] + (expo[-1] + 1,)),) + c.diffs[0][1:],))
    assert any("mismatch" in p for p in validate_complex(bad_expo))
    two = exterior_complex(X112)
    src, tgt, sign, expo = two.diffs[0][0]
    corrupted = MonomialComplex(two.x, two.start_pos, two.terms,
                                (((src, tgt, -sign, expo),) + two.diffs[0][1:],) + two.diffs[1:])
    assert any("d o d" in p for p in validate_complex(corrupted))


def test_exact_complexes_have_zero_hypercohomology():
    for x in SCROLLS:
        assert hypercohom(x, koszul_pullback(x)) == zero_table(x)
        assert hypercohom(x, koszul_pullback_spliced(x)) == zero_table(x)
        assert hypercohom(x, exterior_complex(x)) == zero_table(x)


def test_single_term_matches_line_cohom():
    for x in (X12, X13):
        for p in range(-5, 6):
            for q in range(-5, 6):
                d = DivClass(p, q)
                assert hypercohom(x, single_term_complex(x, d)) == line_cohom(x, d)


def test_euler_complex_presents_twisted_cotangent():
    for x in (X12, make_scroll(1, 1, [0, 2]), X13):
        assert hypercohom(x, euler_complex(x)) == line_cohom(x, DivClass(-1, x.c))
        assert hypercohom(x, euler_complex(x).twist(DivClass(-1, 0))) == line_cohom(x, DivClass(-2, x.c))


def test_omega_zero_is_structure_sheaf():
    for x in (X12, X112):
        for p in range(-3, 4):
            t = DivClass(p, 1)
            assert omega_cohom(x, 0, t) == line_cohom(x, t)


def test_omega_rank_one_case():
    x = make_scroll(1, 1, [1, 1])
    assert omega_cohom(x, 1, DivClass(0, 0)) == (0, 1, 0)
    for x in (X12, X13):
        for p in range(-3, 4):
            for q in range(-3, 4):
                t = DivClass(p, q)
                assert omega_cohom(x, 1, t) == line_cohom(x, t + DivClass(-2, x.c))


def test_omega_route_agreement_and_duality():
    for x in (X112, make_scroll(1, 3, [1, 1, 1, 1])):
        for i in range(x.n + 1):
            for p in range(-2, 3):
                for q in range(-2, 3):
                    t = DivClass(p, q)
                    tab = hypercohom(x, cotangent_resolution_left(x, i).twist(t))
                    assert hypercohom(x, cotangent_resolution_right(x, i).twist(t)) == tab
                    assert omega_cohom(x, i, t) == tab
                    dual = omega_cohom(x, x.n - i, DivClass(-t.p, -t.q - x.m - 1))
                    assert all(tab[k] == dual[x.dim - k] for k in range(x.dim + 1))


def test_omega_routes_agree_on_benchmark_scrolls():
    # the omega-engine benchmark's scrolls, the only n = 4 case among them;
    # the two resolutions are the second route to the closed form
    for x in (make_scroll(1, 2, [1, 1, 2]), make_scroll(2, 2, [1, 1, 2]), make_scroll(1, 3, [1, 1, 1, 2]),
              make_scroll(2, 3, [1, 1, 1, 1]), make_scroll(1, 4, [1, 1, 1, 1, 2])):
        for i in range(1, x.n):
            for p in range(-2, 3):
                for q in range(-2, 3):
                    t = DivClass(p, q)
                    left = hypercohom(x, cotangent_resolution_left(x, i).twist(t))
                    assert hypercohom(x, cotangent_resolution_right(x, i).twist(t)) == left, (x, i, t)
                    assert omega_cohom(x, i, t) == left, (x, i, t)


def test_omega_euler_characteristic():
    for x in (X112, X13):
        for i in range(x.n + 1):
            for p in range(-2, 3):
                t = DivClass(p, -p + 1)
                tab = omega_cohom(x, i, t)
                chi = sum(h if k % 2 == 0 else -h for k, h in enumerate(tab))
                c = cotangent_resolution_right(x, i).twist(t)
                chi_terms = 0
                for pos, term in zip(c.positions, c.terms):
                    s = sum(euler_char(x, sm.cls) for sm in term)
                    chi_terms += s if pos % 2 == 0 else -s
                assert chi == chi_terms


def test_omega_index_range():
    with pytest.raises(ValueError):
        omega_cohom(X12, 2, DivClass(0, 0))
    with pytest.raises(ValueError):
        cotangent_resolution_left(X12, -1)


def test_excluded_character_classes_are_acyclic():
    c = cotangent_resolution_left(X12, 1)
    keys = _contributing_keys(c)
    # shift a few contributing classes by principal directions out of the set
    gens = [(-1, 1, 0, 0), (1, 0, -1, 1)]  # x1/x0 and x0^(a1-a0) * y1/y0
    probes = []
    for key in sorted(keys)[:8]:
        for g in gens:
            cand = tuple(k + d for k, d in zip(key, g))
            if cand not in keys:
                probes.append(cand)
    assert probes, "expected some excluded classes near the contributing set"
    for key in probes:
        assert per_key_dims(c, key) == {}


def test_acceptance_case_value():
    # the case detector input for the normalized second cotangent power
    y = make_scroll(1, 3, [1, 1, 1, 1])
    assert omega_cohom(y, 2, DivClass(0, -2)) == (0, 0, 0, 1, 0)


def test_complex_json_dump():
    c = euler_complex(X12)
    data = c.to_json()
    assert data["scroll"] == {"m": 1, "n": 1, "a": [1, 2]}
    assert data["positions"] == [0, 1]
    assert [s["class"] for s in data["terms"][0]] == [[0, 1], [0, 2]]
    assert all(set(e) == {"src", "tgt", "sign", "monomial"} for e in data["diffs"][0])
    import json

    json.dumps(data)  # serializable
