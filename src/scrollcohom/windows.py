"""Exact nonvanishing intervals and finite windows for 'for every integer t' conditions.

For a line bundle on a positive scroll, the set of H-twists where a fixed
cohomological degree is nonzero is an explicit interval (possibly empty or
half-infinite):

    degree 0      [max(0, ceil(-q/a_n)), +inf)
    degree m      [0, floor((-m-1-q)/a_0)]
    degree n      [-n-1-A, -n-1]  with  A = floor((-m-1-b)/a_0), b = c-q-1-m
    degree n+m    (-inf, -n-1-max(0, ceil(-b/a_n))]

When m = n, degree m needs q <= -m-1 and degree n needs q >= c, so each set
above is exactly one interval.  When m = 0 or n = 0 two rows name the same
degree and their pieces adjoin, so the hull of the pieces is exact.

For Omega^i(T) each degree is nonzero on a union of explicit intervals as
well, read off the three regions of Bott's formula on the fibre
(:func:`omega_h_intervals`).  :func:`h_intervals` gives, for either sheaf
kind, exactly the set of t where h^k(E<t + dp, dq>) != 0.

Splitting criteria only quantify conditions in middle degrees, where both
kinds' intervals are finite.  A check makes one pass, :func:`window_pass`:
it lists each condition's intervals on E or E^dual, and the window, their
hull together with the sheaf's section/top cohomology transitions (the
anchors); outside it every condition vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cohomology import check_omega_index
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

    The set is exactly this interval (see the module docstring where
    degrees coincide).
    Requires a positive scroll so the middle-degree pieces are finite.
    """
    if not x.is_positive:
        raise ValueError("nonvanishing intervals are only finite on positive scrolls")
    pieces = []
    a0, an = x.a[0], x.a[-1]
    if k == 0:
        pieces.append((max(0, _ceil_div(-q, an)), INF))
    if k == x.m:
        hi = (-x.m - 1 - q) // a0
        if hi >= 0:
            pieces.append((0, hi))
    b = x.c - q - 1 - x.m
    if k == x.n:
        amax = (-x.m - 1 - b) // a0
        if amax >= 0:
            pieces.append((-x.n - 1 - amax, -x.n - 1))
    if k == x.dim:
        pieces.append((-INF, -x.n - 1 - max(0, _ceil_div(-b, an))))
    if not pieces:
        return None
    return min(p[0] for p in pieces), max(p[1] for p in pieces)


def _hook_intervals(x: Scroll, i: int, k: int, q: int) -> list:
    """{P > i : h^k(Omega^i<P, q>) != 0}.  pi_* Omega^i(PH) is split with top
    twist (P-i)a_n + a_{n-i} + ... + a_{n-1} and bottom twist
    (P-i)a_0 + a_1 + ... + a_i, each of multiplicity 1, so degree 0 needs
    top + q >= 0 and degree m needs bottom + q <= -m-1."""
    out = []
    if k == 0:
        top = sum(x.a[x.n - i:x.n])
        out.append((i + max(1, _ceil_div(-q - top, x.a[-1])), INF))
    if k == x.m:
        hi = i + (-x.m - 1 - q - sum(x.a[1:i + 1])) // x.a[0]
        if hi > i:
            out.append((i + 1, hi))
    return out


def omega_h_intervals(x: Scroll, i: int, k: int, q: int) -> list:
    """{P : h^k(Omega^i<P, q>) != 0} as a list of intervals whose union is
    exactly that set, read off the three regions of ``omega_cohom``: P > i
    (:func:`_hook_intervals`), P = 0 (degree i for q >= 0, degree i+m for
    q <= -m-1) and P < i-n, the P > n-i part of Omega^{n-i} at -q-m-1 and
    degree dim-k, reflected by P -> -P.  Where two degrees coincide (m = 0,
    i = m, ...) the list holds the pieces of both.  Requires a positive
    scroll."""
    if not x.is_positive:
        raise ValueError("nonvanishing intervals are only finite on positive scrolls")
    check_omega_index(x, i)
    out = _hook_intervals(x, i, k, q)
    if (k == i and q >= 0) or (k == i + x.m and q <= -x.m - 1):
        out.append((0, 0))
    out += [(-hi, -lo) for lo, hi in _hook_intervals(x, x.n - i, x.dim - k, -q - x.m - 1)]
    return out


def h_intervals(x: Scroll, spec: SheafSpec, k: int, dp: int, dq: int) -> list:
    """The t with h^k(spec<t + dp, dq>) != 0, exactly, as a list of
    intervals: one per summand of a split sheaf (:func:`line_h_interval`),
    the pieces of :func:`omega_h_intervals` for Omega^i(T)."""
    if spec.kind == "split":
        out = []
        for s in spec.split.summands:
            iv = line_h_interval(x, k, s.q + dq)
            if iv is not None:
                out.append((iv[0] - s.p - dp, iv[1] - s.p - dp))
        return out
    t = spec.omega_twist
    return [(lo - t.p - dp, hi - t.p - dp) for lo, hi in omega_h_intervals(x, spec.omega_i, k, t.q + dq)]


def window_pass(x: Scroll, spec: SheafSpec, conds: list[Cond]) -> tuple[tuple[int, int], list]:
    """One pass over a condition family: ((t_lo, t_hi), intervals), where
    intervals[j] is :func:`h_intervals` of conds[j] on E or E^dual.

    Every condition vanishes outside its own intervals, so also outside the
    window, the hull of all intervals and of the anchors: the lowest end of
    the degree-dim intervals and the highest start of the degree-0 intervals
    of E and, when some condition reads it, of E^dual.  E^dual is built
    once.  Raises if a condition is nonzero for unboundedly many t.
    """
    sides = {False: spec}
    if any(cond.dual for cond in conds):
        sides[True] = spec.dual(x)
    intervals = [h_intervals(x, sides[cond.dual], cond.k, cond.dp, cond.dq) for cond in conds]
    for cond, ivs in zip(conds, intervals):
        if any(lo == -INF or hi == INF for lo, hi in ivs):
            raise ValueError(f"no finite bound for condition {cond}")
    hulls = [iv for ivs in intervals for iv in ivs]
    for side in sides.values():
        hulls.append((min(iv[1] for iv in h_intervals(x, side, x.dim, 0, 0)),
                      max(iv[0] for iv in h_intervals(x, side, 0, 0, 0))))
    return (int(min(h[0] for h in hulls)), int(max(h[1] for h in hulls))), intervals


def nonvanishing_window(x: Scroll, spec: SheafSpec, conds: list[Cond]) -> tuple[int, int]:
    """Finite [t_lo, t_hi] such that every condition in the family vanishes
    for all t outside: the window half of :func:`window_pass`."""
    return window_pass(x, spec, conds)[0]


def eval_cond(x: Scroll, spec: SheafSpec, cond: Cond, t: int = 0) -> int:
    target = spec.dual(x) if cond.dual else spec
    return sheaf_h(x, target, cond.k, DivClass(t + cond.dp, cond.dq))
