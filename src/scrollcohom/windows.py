"""Exact nonvanishing intervals and finite windows for 'for every integer t' conditions.

For Omega^i<P, q> on any scroll (any sign of a_0, 0 <= i <= n; i = 0 is
the line bundle O(P*H + q*F)) the set of P where h^k is nonzero is a union
of explicit intervals, some possibly half-infinite, read off the three
regions of Bott's formula on the fibre (:func:`omega_h_intervals`):

    P > i (and P = 0 when i = 0)   pi_* Omega^i(PH) is split; degree 0 needs
                                   its top twist + q >= 0, degree m its
                                   bottom twist + q <= -m-1.  Both twists are
                                   linear in P, so each is a ray in P.
    P = 0 < i                      degree i for q >= 0, i+m for q <= -m-1
    P < i - n                      the first region of Omega^{n-i} at
                                   -q-m-1 and degree dim-k, reflected

:func:`h_intervals` gives exactly the set of t where h^k(E<t + dp, dq>)
!= 0, as the union over E's pieces Omega^i(T); regularity reads its unions.

Splitting criteria only quantify conditions in middle degrees, where on a
positive scroll every piece's intervals are finite.  A scan builds E^dual
once, when some condition reads it (:func:`side_lookup`), and makes one pass,
:func:`window_pass`: it lists each condition's intervals on E or E^dual,
and each side's hull, that of the intervals its conditions read together
with its section/top cohomology transitions (the anchors).  Outside the
window, the hull of the hulls, every condition vanishes.  Twisting a piece
by p*H shifts its intervals, and so its hulls, by -p on E and by +p on
E^dual: :mod:`scrollcohom.splitting` composes a sheaf's report from
per-piece tables that way.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .cohomology import check_omega_index
from .scroll import DivClass, Scroll
from .sheaves import SheafSpec, sheaf_h

INF = float("inf")


class Cond(NamedTuple):
    """One vanishing requirement h^k((E or its dual)<t + dp, dq>) = 0."""

    label: str
    k: int
    dp: int
    dq: int
    dual: bool = False
    idx: tuple = ()


def _ray(s: int, u: int, first: int):
    """{K >= first : K*s + u >= 0} as an interval, or None when empty; s may
    have any sign."""
    if s > 0:
        return max(first, -(u // s)), INF
    if s == 0:
        return (first, INF) if u >= 0 else None
    hi = u // -s
    return (first, hi) if hi >= first else None


def _hook_intervals(x: Scroll, i: int, k: int, q: int, first: int = 1) -> list:
    """{P >= i + first : h^k(Omega^i<P, q>) != 0} for first = 1, or first = 0
    when i = 0.  There pi_* Omega^i(PH) is split (Sym^P V for i = 0) with
    top twist (P-i)a_n + a_{n-i} + ... + a_{n-1} and bottom twist
    (P-i)a_0 + a_1 + ... + a_i, so degree 0 needs top + q >= 0 and degree m
    needs bottom + q <= -m-1: rays in K = P - i."""
    rays = []
    if k == 0:
        rays.append(_ray(x.a[-1], q + sum(x.a[x.n - i:x.n]), first))
    if k == x.m:
        rays.append(_ray(-x.a[0], -x.m - 1 - q - sum(x.a[1:i + 1]), first))
    return [(i + lo, i + hi) for lo, hi in filter(None, rays)]


@lru_cache(maxsize=2**14)
def omega_h_intervals(x: Scroll, i: int, k: int, q: int) -> tuple:
    """{P : h^k(Omega^i<P, q>) != 0} as intervals whose union is exactly that
    set, on any scroll, read off the three regions of ``omega_cohom``: the
    hook part (:func:`_hook_intervals`), P = 0 for i > 0 (degree i for
    q >= 0, degree i+m for q <= -m-1) and P < i-n, the hook part of
    Omega^{n-i} at -q-m-1 and degree dim-k, reflected by P -> -P.
    Omega^0 = O gives line bundles.  Where two degrees coincide (m = 0,
    i = m, ...) the pieces of both are listed."""
    check_omega_index(x, i)
    out = _hook_intervals(x, i, k, q, 0 if i == 0 else 1)
    if i > 0 and ((k == i and q >= 0) or (k == i + x.m and q <= -x.m - 1)):
        out.append((0, 0))
    out += [(-hi, -lo) for lo, hi in _hook_intervals(x, x.n - i, x.dim - k, -q - x.m - 1)]
    return tuple(out)


def h_intervals(x: Scroll, spec: SheafSpec, k: int, dp: int, dq: int) -> list:
    """The t with h^k(spec<t + dp, dq>) != 0, exactly, as a list of
    intervals: those of :func:`omega_h_intervals` for each piece of spec.
    Omega^n(T) with n > 0 is the line bundle O(T - (n+1)H + cF) and is read
    as one here, where n is known, so all spellings of a line bundle agree."""
    pairs = [(0, t + DivClass(-(x.n + 1), x.c)) if i == x.n > 0 else (i, t) for i, t in spec.pieces]
    return [(lo - t.p - dp, hi - t.p - dp) for i, t in pairs
            for lo, hi in omega_h_intervals(x, i, k, t.q + dq)]


def side_lookup(x: Scroll, spec: SheafSpec, conds: list[Cond]) -> dict[bool, SheafSpec]:
    """The sheaves a condition family reads, keyed by ``Cond.dual``: E, and
    E^dual when some condition reads it, built once for the whole family."""
    out = {False: spec}
    if any(cond.dual for cond in conds):
        out[True] = spec.dual(x)
    return out


def window_pass(x: Scroll, spec: SheafSpec, conds: list[Cond], sides=None) -> tuple[dict[bool, tuple[int, int]], list]:
    """One pass over a condition family: (hulls, intervals), where
    intervals[j] is :func:`h_intervals` of conds[j] on E or E^dual, and
    hulls maps each side of the family's :func:`side_lookup` (built here
    when not given), keyed like it by ``Cond.dual``, to the :func:`hull` of
    the intervals of the conditions that read that side and of the side's
    anchors: the lowest end of its degree-dim intervals and the highest
    start of its degree-0 intervals.

    Every condition vanishes outside its own intervals, so also outside the
    window, the hull of the hulls.  Raises if a condition is nonzero for
    unboundedly many t.
    """
    sides = sides or side_lookup(x, spec, conds)
    intervals = [h_intervals(x, sides[cond.dual], cond.k, cond.dp, cond.dq) for cond in conds]
    for cond, ivs in zip(conds, intervals):
        if any(lo == -INF or hi == INF for lo, hi in ivs):
            raise ValueError(f"no finite bound for condition {cond}")
    hulls = {}
    for dual, side in sides.items():
        spans = [iv for cond, ivs in zip(conds, intervals) if cond.dual == dual for iv in ivs]
        spans.append((min(iv[1] for iv in h_intervals(x, side, x.dim, 0, 0)),
                      max(iv[0] for iv in h_intervals(x, side, 0, 0, 0))))
        hulls[dual] = hull(spans)
    return hulls, intervals


def hull(spans) -> tuple[int, int]:
    """The least (lo, hi), as ints, that contains every (lo, hi) of spans."""
    los, his = zip(*spans)
    return int(min(los)), int(max(his))


def nonvanishing_window(x: Scroll, spec: SheafSpec, conds: list[Cond]) -> tuple[int, int]:
    """Finite [t_lo, t_hi] such that every condition in the family vanishes
    for all t outside: the hull of :func:`window_pass`'s hulls."""
    return hull(window_pass(x, spec, conds)[0].values())


def eval_cond(x: Scroll, spec: SheafSpec, cond: Cond, t: int = 0, sides=None) -> int:
    """h^k((E or E^dual)<t + dp, dq>) for E = spec; sides is the family's
    :func:`side_lookup`, so that E^dual is not built again for each condition."""
    target = (sides or side_lookup(x, spec, [cond]))[cond.dual]
    return sheaf_h(x, target, cond.k, DivClass(t + cond.dp, cond.dq))
