"""Classical values of the Bott formula, the reference that verify's bott
suite checks the cotangent power tables against (directly on projective
space, and through Kuenneth on product scrolls).
"""

from scrollcohom.verify import bott_h


def test_bott_base_cases():
    assert bott_h(2, 1, 0, 1) == 1        # h^1(Omega^1) on P^2
    assert bott_h(2, 0, 3, 0) == 10       # h^0(O(3)) on P^2
    assert bott_h(2, 2, 0, 2) == 1        # h^2(K) on P^2
    assert bott_h(3, 1, 1, 0) == 0        # Omega^1(1) on P^3 has no sections
    assert bott_h(3, 1, 2, 0) == 6        # 16 sections of O(1)^4 minus 10 of O(2)
    assert bott_h(2, 1, -3, 2) == 8       # Serre dual of h^0 of the tangent bundle
