"""Brute-force line bundle cohomology by torus character enumeration.

The total coordinate ring of a scroll has base variables x_0..x_m of class F
and fiber variables y_0..y_n of class H - a_j*F.  A Laurent monomial
x^alpha * y^beta has class (|beta|, |alpha| - sum_j a_j*beta_j), and its
contribution to cohomology is decided purely by the sign pattern of its
exponents:

    degree 0      alpha >= 0 and beta >= 0          (a regular section)
    degree m      alpha <= -1 (all) and beta >= 0
    degree n      alpha >= 0 and beta <= -1 (all)
    degree n+m    alpha <= -1 and beta <= -1

Mixed-sign exponent vectors contribute nothing.  When m = 0 or n = 0 (or
m = n) several rows land on the same cohomological degree and their counts
add.  This is the standard chart-by-chart computation for a product-type
fan, and it serves as the independent oracle for the closed forms in
:mod:`scrollcohom.cohomology`: the two must agree exactly, and the test
suite checks that they do over large twist boxes.

Enumeration is finite for every (class, row): rows with beta >= 0 fix
|beta| = p, rows with beta <= -1 fix |beta| = p <= -(n+1), and alpha is
then pinned by the class equation.

The same monomial listings give the ranks of section multiplication maps
(:func:`mult_map_rank`), which the verify suites compare with the closed
forms.  No production module imports this one.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .cohomology import SplitBundle, monomial_count
from .scroll import ZERO, DivClass, Scroll


class Character(NamedTuple):
    """Exponent vector of a Laurent monomial x^alpha * y^beta."""

    alpha: tuple[int, ...]
    beta: tuple[int, ...]

    def degree(self, x: Scroll) -> DivClass:
        return DivClass(sum(self.beta), sum(self.alpha) - sum(aj * bj for aj, bj in zip(x.a, self.beta)))

    def to_json(self) -> dict:
        return {"alpha": list(self.alpha), "beta": list(self.beta)}


def weak_compositions(total: int, parts: int):
    """Yield tuples of `parts` nonnegative integers summing to `total`,
    in lexicographically increasing order.

    Iterative, so any number of parts works: the successor of a tuple adds
    one to the rightmost entry with a nonzero tail after it, zeroes that
    tail and puts the tail's sum, less one, in the last entry."""
    if total < 0 or (parts == 0 and total > 0):
        return
    comp = [0] * parts
    if parts:
        comp[-1] = total
    while True:
        yield tuple(comp)
        tail = 0
        for k in range(parts - 2, -1, -1):
            tail += comp[k + 1]
            if tail:
                break
        else:
            return
        comp[k] += 1
        comp[k + 1:] = [0] * (parts - k - 2) + [tail - 1]


def _bump(vec: tuple[int, ...], i: int) -> tuple[int, ...]:
    return vec[:i] + (vec[i] + 1,) + vec[i + 1:]


def mult_map_rank(x: Scroll, e: SplitBundle, by: DivClass) -> tuple[int, int]:
    """Rank and target dimension of a section multiplication map.

    by = (0,1): H^0(E) (x) H^0(O(F)) -> H^0(E(F)), multiplication by the
    base variables.  by = (1,0): (+)_k H^0(E(a_k F)) -> H^0(E(H)),
    multiplication by the fiber variables.  Products of basis monomials are
    monomials, so the image dimension is the number of distinct products.
    Raises ValueError, before listing anything, when the monomials to list
    could exceed the character oracle's budget.
    """
    by = DivClass(by.p, by.q)
    if by == DivClass(0, 1):
        shifts = (ZERO,)
    elif by == DivClass(1, 0):
        shifts = tuple(DivClass(0, ak) for ak in x.a)
    else:
        raise ValueError("multiplication is supported for twists (0,1) and (1,0) only")
    bound = sum(_sign_class_bound(x, s + by, False, False)
                + sum(_sign_class_bound(x, s + sh, False, False) for sh in shifts) for s in e.summands)
    if bound > ORACLE_BUDGET:
        raise ValueError(f"multiplication by {by.to_json()} would list up to {bound} monomials, "
                         f"over the budget of {ORACLE_BUDGET}")
    rank = 0
    target = 0
    for s in e.summands:
        target += len(_enumerate_sign_class(x, s + by, False, False))
        products = set()
        if by == DivClass(0, 1):
            for ch in _enumerate_sign_class(x, s, False, False):
                for i in range(x.m + 1):
                    products.add((ch.beta, _bump(ch.alpha, i)))
        else:
            for k, sh in enumerate(shifts):
                for ch in _enumerate_sign_class(x, s + sh, False, False):
                    products.add((_bump(ch.beta, k), ch.alpha))
        rank += len(products)
    return rank, target


# the four sign classes: (alpha negative?, beta negative?)
_SIGN_CLASSES = ((False, False), (True, False), (False, True), (True, True))


def _class_row(x: Scroll, alpha_neg: bool, beta_neg: bool) -> int:
    return (x.m if alpha_neg else 0) + (x.n if beta_neg else 0)


def valid_rows(x: Scroll) -> tuple[int, ...]:
    return tuple(sorted({_class_row(x, an, bn) for an, bn in _SIGN_CLASSES}))


# Most exponent vectors one sign class may list, by :func:`_sign_class_bound`
# before enumerating; larger twists are refused instead of hanging.  Near it
# (74,482 characters on P(O(1)+O(2)) over P^1) a listing took 0.16 s and 18 MB
# on a 2-vCPU Xeon, CPython 3.11; the benchmark's oracle checks stay under 4,004.
ORACLE_BUDGET = 10**5


def _sign_class_bound(x: Scroll, d: DivClass, alpha_neg: bool, beta_neg: bool) -> int:
    """Upper bound on the betas plus characters one sign class lists, from
    binomial counts alone: C(r+n, n) betas with |beta| (or |-1-beta|) = r,
    each with at most as many alphas as the extreme class equation allows."""
    p, q = d.p, d.q
    if beta_neg:
        r = -p - (x.n + 1)
        s_lo, s_hi = q - x.c - x.a[-1] * r, q - x.c - x.a[0] * r
    else:
        r = p
        s_lo, s_hi = q + x.a[0] * p, q + x.a[-1] * p
    alphas = monomial_count(x.m, -s_lo - (x.m + 1)) if alpha_neg else monomial_count(x.m, s_hi)
    return monomial_count(x.n, r) * (1 + alphas)


def _enumerate_sign_class(x: Scroll, d: DivClass, alpha_neg: bool, beta_neg: bool):
    bound = _sign_class_bound(x, d, alpha_neg, beta_neg)
    if bound > ORACLE_BUDGET:
        raise ValueError(f"the character oracle would list up to {bound} exponent vectors for {d.to_json()} "
                         f"on {x}, over the budget of {ORACLE_BUDGET}")
    p, q = d.p, d.q
    if beta_neg:
        # beta = -1 - beta' entrywise, so |beta| = p forces |beta'| = -p-(n+1)
        betas = [tuple(-1 - b for b in comp) for comp in weak_compositions(-p - (x.n + 1), x.n + 1)]
    else:
        betas = list(weak_compositions(p, x.n + 1))
    out = []
    for beta in betas:
        s = q + sum(aj * bj for aj, bj in zip(x.a, beta))
        if alpha_neg:
            alphas = [tuple(-1 - a for a in comp) for comp in weak_compositions(-s - (x.m + 1), x.m + 1)]
        else:
            alphas = list(weak_compositions(s, x.m + 1))
        out.extend(Character(alpha, beta) for alpha in alphas)
    return out


def enumerate_contributing(x: Scroll, d: DivClass, row: int) -> list[Character]:
    """All characters of class `d` contributing to cohomological degree `row`.

    `row` must be one of the degrees where a line bundle can have cohomology
    at all ({0, m, n, n+m}); when several sign classes share the degree the
    union is returned, sorted by (beta, alpha).
    """
    if row not in valid_rows(x):
        raise ValueError(f"row {row} is not one of the contributing degrees {valid_rows(x)}")
    found = []
    for alpha_neg, beta_neg in _SIGN_CLASSES:
        if _class_row(x, alpha_neg, beta_neg) == row:
            found.extend(_enumerate_sign_class(x, d, alpha_neg, beta_neg))
    found.sort(key=lambda ch: (ch.beta, ch.alpha))
    return found


@lru_cache(maxsize=2**14)
def _character_counts(x: Scroll, d: DivClass) -> tuple[int, ...]:
    table = [0] * (x.dim + 1)
    for alpha_neg, beta_neg in _SIGN_CLASSES:
        row = _class_row(x, alpha_neg, beta_neg)
        table[row] += len(_enumerate_sign_class(x, d, alpha_neg, beta_neg))
    return tuple(table)


def character_cohom(x: Scroll, d: DivClass) -> tuple[int, ...]:
    """Full cohomology table of O(d) by counting contributing characters."""
    return _character_counts(x, d)
