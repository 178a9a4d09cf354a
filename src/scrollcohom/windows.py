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
summand every condition has a finite nonvanishing interval;
:func:`cond_t_intervals` lists them per condition.  Their union is exactly
where the condition is nonzero for a split sheaf (h^k of a sum adds
nonnegative terms) and a superset of it for a cotangent twist (whose
intervals come from its resolution terms).  The window is their hull over
all conditions; outside it every condition vanishes identically.  Sheaves
presented by complexes are bounded per term with the homological shift as
slack.  The window additionally hulls in each summand's section/top
cohomology transition range so that it always covers the twists where the
sheaf itself lives.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    the summands themselves for a split bundle, the terms of the right
    resolution (with their homological positions) for a cotangent twist."""
    if spec.kind == "split":
        return [(0, s) for s in spec.split.summands]
    from .complexes import cotangent_resolution_right

    c = cotangent_resolution_right(x, spec.omega_i).twist(spec.omega_twist)
    return [(pos, sm.cls) for pos, term in zip(c.positions, c.terms) for sm in term]


def cond_t_intervals(x: Scroll, spec: SheafSpec, cond: Cond) -> list[tuple[float, float]]:
    """t-intervals outside of which the condition surely vanishes.

    Per piece (a summand, or a resolution term at homological position pos)
    the condition's group can be nonzero only where degree k - pos of the
    piece is, so the union of these intervals contains the true
    nonvanishing set; for a split sheaf (all pieces at pos = 0, adding
    nonnegative terms) it equals that set.  For complex-backed sheaves the
    pieces with k - pos = 0 are half-infinite; :func:`cond_t_interval`
    intersects with the Serre-dual bound to recover a finite window.
    """
    target = spec.dual(x) if cond.dual else spec
    out = []
    for pos, cls in _spec_pieces(x, target):
        k = cond.k - pos
        if not 0 <= k <= x.dim:
            continue
        iv = line_h_interval(x, k, cls.q + cond.dq)
        if iv is not None:
            out.append((iv[0] - cls.p - cond.dp, iv[1] - cls.p - cond.dp))
    return out


def _hull(ivs) -> tuple[float, float] | None:
    if not ivs:
        return None
    return min(iv[0] for iv in ivs), max(iv[1] for iv in ivs)


def cond_t_interval(x: Scroll, spec: SheafSpec, cond: Cond) -> tuple[int, int] | None:
    """Finite hull of the t-set where the condition can be nonzero, or None
    when it vanishes identically.

    h^k(S<t+dp, dq>) = h^{dim-k}(S_dual <K - (t+dp, dq)>) by Serre duality,
    and the dual-side bound runs in the opposite t-direction, so the
    intersection of the two piecewise bounds is always finite.
    """
    target = spec.dual(x) if cond.dual else spec
    hull = _hull(cond_t_intervals(x, spec, cond))
    if hull is None:
        return None
    lo, hi = hull
    if lo == -INF or hi == INF:
        k_dual = x.dim - cond.k
        kx = x.canonical_class()
        dual_ivs = []
        for pos, cls in _spec_pieces(x, target.dual(x)):
            k = k_dual - pos
            if not 0 <= k <= x.dim:
                continue
            iv = line_h_interval(x, k, cls.q + kx.q - cond.dq)
            if iv is not None:
                # piece H-coefficient is cls.p + kx.p - dp - t, decreasing in t
                shift = cls.p + kx.p - cond.dp
                dual_ivs.append((shift - iv[1], shift - iv[0]))
        dual_hull = _hull(dual_ivs)
        if dual_hull is None:
            return None
        lo, hi = max(lo, dual_hull[0]), min(hi, dual_hull[1])
        if lo > hi:
            return None
    if lo == -INF or hi == INF:
        raise ValueError(f"no finite bound for condition {cond}")
    return int(lo), int(hi)


def _anchors(x: Scroll, spec: SheafSpec, with_dual: bool) -> list[tuple[float, float]]:
    out = []
    specs = [spec, spec.dual(x)] if with_dual else [spec]
    for sp in specs:
        pieces = _spec_pieces(x, sp)
        slack = max(abs(pos) for pos, _ in pieces) if sp.kind == "omega" else 0
        for _, cls in pieces:
            lo_iv = line_h_interval(x, x.dim, cls.q)
            hi_iv = line_h_interval(x, 0, cls.q)
            out.append((lo_iv[1] - cls.p - slack, hi_iv[0] - cls.p + slack))
    return out


def nonvanishing_window(x: Scroll, spec: SheafSpec, conds: list[Cond]) -> tuple[int, int]:
    """Finite [t_lo, t_hi] such that every condition in the family vanishes
    for all t outside.  Raises on non-positive scrolls or if some condition
    has an unbounded nonvanishing range (a degree 0 or n+m condition)."""
    ivs = []
    with_dual = any(c.dual for c in conds)
    for cond in conds:
        iv = cond_t_interval(x, spec, cond)
        if iv is not None:
            ivs.append(iv)
    ivs.extend(_anchors(x, spec, with_dual))
    lo = min(iv[0] for iv in ivs)
    hi = max(iv[1] for iv in ivs)
    if lo == -INF or hi == INF:
        raise ValueError("condition family has an unbounded nonvanishing range")
    return int(lo), int(hi)


def eval_cond(x: Scroll, spec: SheafSpec, cond: Cond, t: int = 0) -> int:
    target = spec.dual(x) if cond.dual else spec
    return sheaf_h(x, target, cond.k, DivClass(t + cond.dp, cond.dq))
