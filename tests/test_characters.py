import itertools

import pytest

from scrollcohom import Character, DivClass, character_cohom, enumerate_contributing, line_cohom, make_scroll
from scrollcohom.characters import valid_rows, weak_compositions

X12 = make_scroll(1, 1, [1, 2])
F2 = make_scroll(1, 1, [0, 2])


def test_weak_compositions():
    assert list(weak_compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert list(weak_compositions(0, 3)) == [(0, 0, 0)]
    assert list(weak_compositions(-1, 2)) == []
    assert len(list(weak_compositions(5, 3))) == 21
    # against the lexicographic filter of a product, over every small shape
    for total in range(-2, 9):
        for parts in range(6):
            want = [c for c in itertools.product(range(max(total + 1, 0)), repeat=parts) if sum(c) == total]
            assert list(weak_compositions(total, parts)) == want, (total, parts)


def test_degree_map():
    ch = Character((2, 0), (1, 1))
    assert ch.degree(X12) == DivClass(2, 2 - 3)


def test_structure_sheaf_single_character():
    chars = enumerate_contributing(X12, DivClass(0, 0), 0)
    assert [c.to_json() for c in chars] == [{"alpha": [0, 0], "beta": [0, 0]}]


def test_hirzebruch_top_character():
    chars = enumerate_contributing(F2, DivClass(-2, 0), 2)
    assert [(c.alpha, c.beta) for c in chars] == [((-1, -1), (-1, -1))]


def test_middle_range_is_empty():
    for row in valid_rows(X12):
        assert enumerate_contributing(X12, DivClass(-1, 5), row) == []


def test_invalid_row_rejected():
    with pytest.raises(ValueError):
        enumerate_contributing(X12, DivClass(0, 0), 3)


def test_character_cohom_frozen_values():
    assert character_cohom(X12, DivClass(0, 0)) == (1, 0, 0)
    # displayed value lands at total twist (-2, 1); the (-3, 1) class has h^2 = 5
    assert character_cohom(X12, DivClass(-2, 1)) == (0, 0, 1)
    assert character_cohom(X12, DivClass(-3, 1)) == (0, 0, 5)
    assert character_cohom(X12, DivClass(0, -2)) == (0, 1, 0)


def test_rows_degenerate_scrolls():
    assert valid_rows(make_scroll(0, 2, [0, 0, 0])) == (0, 2)
    assert valid_rows(make_scroll(2, 0, [2])) == (0, 2)
    assert valid_rows(make_scroll(1, 1, [1, 2])) == (0, 1, 2)
    assert valid_rows(make_scroll(2, 1, [1, 3])) == (0, 1, 2, 3)


def test_listing_is_sorted_and_degree_correct():
    for row in valid_rows(X12):
        chars = enumerate_contributing(X12, DivClass(2, -3), row)
        assert chars == sorted(chars, key=lambda c: (c.beta, c.alpha))
        assert all(c.degree(X12) == DivClass(2, -3) for c in chars)


def test_agreement_with_closed_form_box():
    scrolls = (X12, F2, make_scroll(1, 2, [1, 1, 2]), make_scroll(2, 1, [1, 3]),
               make_scroll(0, 2, [0, 0, 0]), make_scroll(2, 0, [2]), make_scroll(1, 1, [-1, 1]))
    for x in scrolls:
        for p in range(-6, 7):
            for q in range(-6, 7):
                d = DivClass(p, q)
                assert character_cohom(x, d) == line_cohom(x, d), (x, d)
