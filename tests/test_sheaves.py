"""A catalog sheaf is one thing: the sorted tuple of its pieces Omega^i(T),
with i = 0 a line bundle, and the spelling it was given in."""

import pytest

from scrollcohom import DivClass, SheafSpec, sheaf_cohom
from scrollcohom.verify import FAMILY

BOX = [DivClass(p, q) for p in range(-3, 4) for q in range(-3, 4)]
SPLITS = ([(0, 0)], [(0, 1), (1, -1)], [(1, 0), (-2, 1), (0, 0)], [(1, 1), (1, 1)])
TWISTS = (DivClass(0, 0), DivClass(2, -1), DivClass(-1, 3))


def _tables(x, spec):
    return [sheaf_cohom(x, spec, t) for t in BOX]


@pytest.mark.parametrize("x", [x for x in FAMILY if x.n >= 1], ids=str)
def test_double_dual_is_the_sheaf(x):
    for spec in map(SheafSpec.from_split, SPLITS):
        back = spec.dual(x).dual(x)
        assert back == spec
        assert _tables(x, back) == _tables(x, spec)
    for i in range(x.n + 1):
        for t in TWISTS:
            spec = SheafSpec.from_omega(i, t)
            back = spec.dual(x).dual(x)
            assert _tables(x, back) == _tables(x, spec), (i, t)
            if 0 < i < x.n:
                assert back == spec
            else:
                # Omega^0(T) = O(T) and Omega^n(T) = O(T - (n+1)H + cF) come
                # back in the line-bundle spelling
                line = t if i == 0 else t - DivClass(x.n + 1, -x.c)
                assert back == SheafSpec.from_split([(line.p, line.q)])


def test_dual_is_piecewise():
    x = FAMILY[1]  # P(O(1)+O(1)+O(2)) over P^1, c = 4
    spec = SheafSpec.from_split([(1, -1), (0, 2)])
    assert spec.dual(x).pieces == ((0, DivClass(-1, 1)), (0, DivClass(0, -2)))
    assert SheafSpec.from_omega(1, DivClass(2, -1)).dual(x) == SheafSpec.from_omega(1, DivClass(1, -3))
    with pytest.raises(ValueError, match="index 3 out of range"):
        SheafSpec.from_omega(3, DivClass(0, 0)).dual(x)


@pytest.mark.parametrize("data", [
    {"split": [[0, 0]]}, {"split": [[0, 2], [1, -1], [1, -1]]},
    {"omega": {"i": 0, "twist": [1, -1]}}, {"omega": {"i": 2, "twist": [3, -3]}},
], ids=str)
def test_json_round_trip(data):
    spec = SheafSpec.from_json(data)
    assert spec.to_json() == data
    assert SheafSpec.from_json(spec.to_json()) == spec


def test_pieces_are_sorted_and_keep_the_spelling():
    spec = SheafSpec.from_json({"split": [[1, -1], [0, 2]]})
    assert spec.pieces == ((0, DivClass(0, 2)), (0, DivClass(1, -1)))
    assert spec.to_json() == {"split": [[0, 2], [1, -1]]}
    assert SheafSpec.from_json(spec.to_json()) == spec
    line, omega = SheafSpec.from_split([(1, -1)]), SheafSpec.from_omega(0, DivClass(1, -1))
    assert line.pieces == omega.pieces and line != omega
    assert (line.describe(), omega.describe()) == ("O(1,-1)", "Omega^0(1,-1)")
    assert (line.split.summands, omega.split) == ((DivClass(1, -1),), None)
    assert (line.omega_i, omega.omega_i, omega.omega_twist) == (None, 0, DivClass(1, -1))
    with pytest.raises(ValueError, match="at least one summand"):
        SheafSpec.from_json({"split": []})
