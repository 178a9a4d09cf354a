"""Sound finite windows for 'for every integer t' vanishing conditions.

For a line bundle on a positive scroll, the set of H-twists where a fixed
cohomological degree is nonzero is an explicit interval (possibly empty or
half-infinite):

    degree 0      [max(0, ceil(-q/a_n)), +inf)
    degree m      [0, floor((-m-1-q)/a_0)]
    degree n      [-n-1-A, -n-1]  with  A = floor((-m-1-b)/a_0), b = c-q-1-m
    degree n+m    (-inf, -n-1-max(0, ceil(-b/a_n))]

When m = n, degree m needs q <= -m-1 and degree n needs q >= c, so each set
above is exactly one interval.

Splitting criteria only quantify conditions in middle degrees, so per
summand every condition has a finite nonvanishing interval.  A check makes
one pass, :func:`window_pass`: it builds the pieces of E and E^dual once and
lists each condition's intervals.  Their union is exactly where the
condition is nonzero for a split sheaf (h^k of a sum adds nonnegative terms)
and a superset of it for a cotangent twist, whose pieces are the distinct
right-resolution terms read off ``subset_sums``, position as slack.  The
window is the hull of those intervals and of each piece's section/top
cohomology transition (the anchors); outside it every condition vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cohomology import check_omega_index, subset_sums
from .scroll import DivClass, Scroll
from .sheaves import SheafSpec, sheaf_h

INF = float("inf")


@dataclass(frozen=True)
class Cond:
    """One vanishing requirement h^k((E or its dual)<t + dp, dq>) = 0."""

    label: str
    k: int
    dp: int
    dq: int
    dual: bool = False
    idx: tuple = ()


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def line_h_interval(x: Scroll, k: int, q: int):
    """{P : h^k(O(P*H + q*F)) != 0} as an interval, or None when empty.

    The set is exactly this interval (see the module docstring for m = n).
    Requires a positive scroll so the middle-degree pieces are finite.
    """
    if not x.is_positive:
        raise ValueError("nonvanishing intervals are only finite on positive scrolls")
    pieces = []
    if x.m == 0:
        if k == 0:
            pieces.append((0, INF))
        if k == x.n:
            pieces.append((-INF, -x.n - 1))
    elif x.n == 0:
        c = x.c
        if k == 0:
            pieces.append((_ceil_div(-q, c), INF))
        if k == x.m:
            pieces.append((-INF, (-x.m - 1 - q) // c))
    else:
        a0, an = x.a[0], x.a[-1]
        if k == 0:
            pieces.append((max(0, _ceil_div(-q, an)), INF))
        if k == x.m:
            hi = (-x.m - 1 - q) // a0
            if hi >= 0:
                pieces.append((0, hi))
        if k == x.n:
            b = x.c - q - 1 - x.m
            amax = (-x.m - 1 - b) // a0
            if amax >= 0:
                pieces.append((-x.n - 1 - amax, -x.n - 1))
        if k == x.dim:
            b = x.c - q - 1 - x.m
            pieces.append((-INF, -x.n - 1 - max(0, _ceil_div(-b, an))))
    if not pieces:
        return None
    return min(p[0] for p in pieces), max(p[1] for p in pieces)


def _spec_pieces(x: Scroll, spec: SheafSpec):
    """(position, line bundle class) pieces bounding the sheaf's cohomology:
    the summands of a split bundle; for Omega^i(T) the distinct terms
    O<T.p - s, T.q + a_I> (|I| = s <= i) of its right resolution, at i - s."""
    if spec.kind == "split":
        return [(0, s) for s in spec.split.summands]
    i, t = spec.omega_i, spec.omega_twist
    check_omega_index(x, i)
    return [(i - s, DivClass(t.p - s, t.q + a)) for s in range(i + 1) for a, _ in subset_sums(x)[s]]


def _intervals(x: Scroll, pieces, k: int, dp: int, dq: int) -> list[tuple[float, float]]:
    """Per piece (pos, cls): the t-interval where degree k - pos of
    cls<t + dp, dq> is nonzero."""
    out = []
    for pos, cls in pieces:
        if 0 <= k - pos <= x.dim:
            iv = line_h_interval(x, k - pos, cls.q + dq)
            if iv is not None:
                out.append((iv[0] - cls.p - dp, iv[1] - cls.p - dp))
    return out


def _side_pieces(x: Scroll, spec: SheafSpec, sides) -> dict:
    """The pieces of E (side False) and of E^dual (side True), each side
    asked for built once."""
    return {side: _spec_pieces(x, spec.dual(x) if side else spec) for side in sides}


def _cond_intervals(x: Scroll, pieces: dict, conds: list[Cond]) -> list:
    return [_intervals(x, pieces[cond.dual], cond.k, cond.dp, cond.dq) for cond in conds]


def cond_t_intervals(x: Scroll, spec: SheafSpec, conds: list[Cond]) -> list:
    """Per condition, the t-intervals outside of which it surely vanishes:
    intervals[i] belongs to conds[i].

    Per piece (a summand, or a resolution term at homological position pos)
    a condition's group can be nonzero only where degree k - pos of the
    piece is, so the union of these intervals contains the true
    nonvanishing set; for a split sheaf (all pieces at pos = 0, adding
    nonnegative terms) it equals that set.  The pieces of each side the
    conditions read are built once for the whole list.
    """
    return _cond_intervals(x, _side_pieces(x, spec, {cond.dual for cond in conds}), conds)


def window_pass(x: Scroll, spec: SheafSpec, conds: list[Cond]) -> tuple[tuple[int, int], list]:
    """One pass over a condition family: ((t_lo, t_hi), intervals), where
    intervals is :func:`cond_t_intervals` of conds and every condition
    vanishes for all t outside the window [t_lo, t_hi].

    The pieces of E and E^dual are built once.  The window is the hull of
    each condition's intervals and of the anchors.  A half-infinite hull
    (a piece with k - pos = 0 or dim) is cut by Serre duality:
    h^k(S<t+dp, dq>) = h^{dim-k}(S^dual<K - (t+dp, dq)>), whose intervals
    run in the opposite t-direction, so the intersection is finite.
    Raises on non-positive scrolls or if a condition stays unbounded.
    """
    pieces = _side_pieces(x, spec, (False, True))
    intervals = _cond_intervals(x, pieces, conds)
    hulls = []
    kx = x.canonical_class()
    for cond, ivs in zip(conds, intervals):
        if not ivs:
            continue
        lo, hi = min(iv[0] for iv in ivs), max(iv[1] for iv in ivs)
        if lo == -INF or hi == INF:
            # the Serre-dual intervals, reflected t -> -t
            dual = _intervals(x, pieces[not cond.dual], x.dim - cond.k, kx.p - cond.dp, kx.q - cond.dq)
            if not dual:
                continue
            lo, hi = max(lo, -max(iv[1] for iv in dual)), min(hi, -min(iv[0] for iv in dual))
            if lo > hi:
                continue
            if lo == -INF or hi == INF:
                raise ValueError(f"no finite bound for condition {cond}")
        hulls.append((lo, hi))
    # anchors: each piece's section/top cohomology transition, so the window
    # covers the twists where the sheaf itself lives
    for side in (False, True) if any(c.dual for c in conds) else (False,):
        slack = max(abs(pos) for pos, _ in pieces[side])
        for _, cls in pieces[side]:
            hulls.append((line_h_interval(x, x.dim, cls.q)[1] - cls.p - slack,
                          line_h_interval(x, 0, cls.q)[0] - cls.p + slack))
    return (int(min(h[0] for h in hulls)), int(max(h[1] for h in hulls))), intervals


def nonvanishing_window(x: Scroll, spec: SheafSpec, conds: list[Cond]) -> tuple[int, int]:
    """Finite [t_lo, t_hi] such that every condition in the family vanishes
    for all t outside: the window half of :func:`window_pass`."""
    return window_pass(x, spec, conds)[0]


def eval_cond(x: Scroll, spec: SheafSpec, cond: Cond, t: int = 0) -> int:
    target = spec.dual(x) if cond.dual else spec
    return sheaf_h(x, target, cond.k, DivClass(t + cond.dp, cond.dq))
