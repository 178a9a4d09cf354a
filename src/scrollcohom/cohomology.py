"""Closed-form cohomology of line bundles, split bundles and twisted
relative cotangent powers on a scroll.

The pushforward of O(pH + qF) to the base is Sym^p(V)(q) when p >= 0, a sum
of line bundles O(t + q), one per weak composition of p.  Cohomology therefore
sits in degrees 0 and m for p >= 0, vanishes for -n <= p < 0, and for p < -n
is computed by relative duality from Sym^{-p-n-1}(V)(c-q-1-m), landing in
degrees n and n+m.  Line cohomology sums h^0 and h^m of O(t + q) on P^m
over a histogram of the twists t, counted without listing the compositions
by a dynamic program whose rows are packed into big integers, one field per
twist: O(n p) big-integer shift-adds.

Omega^i(pH + qF), the i-th exterior power of the relative cotangent bundle,
is read off Bott's formula on the fibre P^n: its pushforward lives in one
degree (0 for p > i, i for p = 0, n for p < i - n), and is again a sum of
line bundles whose twists are counted by the same histograms, together with
the subset sums a_I of :func:`subset_sums`.  Tables are plain tuples of
length n+m+1.

All dimension arithmetic is unbounded-integer exact; binomials come from
:func:`math.comb`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .scroll import ZERO, DivClass, Scroll


def choose(n: int, k: int) -> int:
    """C(n, k) for n, k >= 0 (0 outside that range)."""
    if k < 0 or n < 0 or k > n:
        return 0
    return comb(n, k)


def monomial_count(m: int, d: int) -> int:
    """Number of degree-d monomials in m+1 variables: C(d+m, m) for d >= 0."""
    return choose(d + m, m) if d >= 0 else 0


def pm_cohom(m: int, d: int) -> tuple[int, int]:
    """(h^0, h^m) of O(d) on P^m.  For m = 0 both land at degree 0 and the
    caller adds them there; exactly one of the two is 1 in that case."""
    if m < 0:
        raise ValueError("base dimension must be nonnegative")
    return monomial_count(m, d), monomial_count(m, -d - 1 - m)


def _base_sum(m: int, hist, d: int) -> tuple[int, int]:
    """(h^0, h^m) on P^m summed over a twist histogram: sum of mult * pm_cohom(m, t + d)
    over the pairs (t, mult), with the two binomials inlined.  For m = 0 both
    values belong to degree 0, as in :func:`pm_cohom`."""
    h0 = hm = 0
    for t, mult in hist:
        u = t + d
        if u >= 0:
            h0 += mult * comb(u + m, m)
        elif u <= -m - 1:
            hm += mult * comb(-u - 1, m)
    return h0, hm


# Most bytes the sym_twists table may take: (k+1) * (k*(a_n - a_0) + 1) cells
# (k+1 rows, none longer than the last) times the field width w >= 1, so too
# many cells are refused before w is computed.  Near the budget the process
# peaked at 58 MB resident for n = 4 and 73 MB for n = 12 and 24 (64-bit
# CPython 3.11, 15 MB after import), where a cell count let n = 24 reach
# 244 MB.  Every query of the tests, verify and the benchmark is < 5*10^5 B.
SYM_CELL_BUDGET = 6 * 10**7


@lru_cache(maxsize=1024)
def sym_twists(x: Scroll, k: int) -> tuple[tuple[int, int], ...]:
    """Histogram of the base twists of Sym^k(V): sorted pairs (t, mult), mult
    counting the weak compositions beta of k with beta . a = t, i.e. the
    coefficient of u^k z^t in prod_j 1/(1 - u z^{a_j}).

    Each row of the dynamic program is one integer holding a polynomial in z
    (Kronecker substitution): field s, w bytes wide, is the count for twist
    l*a_0 + s.  No count exceeds C(k+n, n), which fits in w bytes, so fields
    never carry and adding a variable is one shift-add per row: O(n k)
    big-integer shift-adds on rows of at most k*(a_n - a_0)+1 fields.
    Raises ValueError when the table would exceed SYM_CELL_BUDGET bytes."""
    if k < 0:
        raise ValueError("symmetric power index must be nonnegative")
    a0 = x.a[0]
    length = k * (x.a[-1] - a0) + 1
    cells = (k + 1) * length
    w = (comb(k + x.n, x.n).bit_length() + 8) // 8 if cells <= SYM_CELL_BUDGET else 1
    if cells * w > SYM_CELL_BUDGET:
        raise ValueError(f"Sym^{k} on this scroll needs at least {cells * w} table bytes, "
                         f"over the budget of {SYM_CELL_BUDGET}")
    # rows[l], field s: compositions of l over the variables so far with twist l*a_0 + s
    rows = [1] * (k + 1)
    for aj in x.a[1:]:
        shift = 8 * w * (aj - a0)
        for l in range(1, k + 1):
            rows[l] += rows[l - 1] << shift
    raw = rows[k].to_bytes(length * w, "little")
    from_bytes = int.from_bytes
    fields = (from_bytes(raw[i:i + w], "little") for i in range(0, length * w, w))
    return tuple((t, c) for t, c in enumerate(fields, k * a0) if c)


@lru_cache(maxsize=1024)
def subset_sums(x: Scroll) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per size s = 0..n+1, the histogram of a_I over the subsets I of the
    twist indices with |I| = s: sorted pairs (a_I, count), the base twists
    of the exterior power Lambda^s(V).  A dynamic program over the twists,
    adding a_j to the subsets of each size met so far; no subset is listed."""
    rows: list[dict[int, int]] = [{0: 1}] + [{} for _ in x.a]
    for j, aj in enumerate(x.a):
        for s in range(j + 1, 0, -1):
            row = rows[s]
            for v, c in rows[s - 1].items():
                row[v + aj] = row.get(v + aj, 0) + c
    return tuple(tuple(sorted(row.items())) for row in rows)


def zero_table(x: Scroll) -> tuple[int, ...]:
    return (0,) * (x.dim + 1)


def add_tables(t1, t2) -> tuple[int, ...]:
    return tuple(a + b for a, b in zip(t1, t2))


@lru_cache(maxsize=2**14)
def line_cohom(x: Scroll, d: DivClass) -> tuple[int, ...]:
    """Cohomology table (h^0, ..., h^{n+m}) of O(d.p * H + d.q * F).  For
    p < -n it is the reversed table of the Serre-dual class
    (-p-n-1, c-q-1-m), as in :func:`omega_cohom`."""
    p, q = d.p, d.q
    dual = p < -x.n
    if dual:
        p, q = -p - x.n - 1, x.c - q - 1 - x.m
    table = [0] * (x.dim + 1)
    if p >= 0:
        h0, hm = _base_sum(x.m, sym_twists(x, p), q)
        table[0] += h0
        table[x.m] += hm
    return tuple(table[::-1] if dual else table)


def check_omega_index(x: Scroll, i: int):
    if not 0 <= i <= x.n:
        raise ValueError(f"cotangent power index {i} out of range 0..{x.n}")


def _hook_twists(x: Scroll, i: int, p: int) -> dict[int, int]:
    """Twist histogram of pi_* Omega^i(pH) for p > i, the alternating sum
    sum_{s<=i} (-1)^{i-s} Lambda^s(V) (x) Sym^{p-s}(V) of its resolution by
    pushforwards.  The bundle is a Schur functor of the split V, so it is
    split itself and every multiplicity is nonnegative."""
    hist: dict[int, int] = {}
    for s in range(i + 1):
        sign = -1 if (i - s) % 2 else 1
        sym = sym_twists(x, p - s)
        for u, cu in subset_sums(x)[s]:
            for v, cv in sym:
                hist[u + v] = hist.get(u + v, 0) + sign * cu * cv
    return hist


def omega_cohom(x: Scroll, i: int, t: DivClass) -> tuple[int, ...]:
    """Cohomology table of Omega^i(T), the i-th exterior power of the
    relative cotangent bundle twisted by T = pH + qF.  Omega^0 is the
    structure sheaf.

    By Bott's formula on the fibre P^n, R pi_* Omega^i(pH) is one sheaf in
    one degree, and Leray reads the table off the base:

    * p > i: pi_* Omega^i(pH) in degree 0, a sum of line bundles O(u) with
      the histogram of :func:`_hook_twists`; h^0 and h^m are sums of
      h^0 and h^m of O(u + q) on P^m, as in :func:`line_cohom`;
    * p = 0: R^i pi_* Omega^i = O, so h^i = h^0(P^m, O(q)) and
      h^{i+m} = h^m(P^m, O(q));
    * p < i - n: Serre duality, the reversed table of Omega^{n-i} twisted
      by (-p, -q-m-1), which is the dual twist plus K and falls in the
      p > i case;
    * otherwise every group vanishes.

    For m = 0 both values of P^0 land in degree 0, as in :func:`pm_cohom`.
    The hypercohomology of both resolutions (``complexes``) is the second
    route; verify's koszul and bott suites and the tests compare the two.
    """
    check_omega_index(x, i)
    if i == 0:
        return line_cohom(x, t)
    p, q = t.p, t.q
    if p < i - x.n:
        return omega_cohom(x, x.n - i, DivClass(-p, -q - x.m - 1))[::-1]
    table = [0] * (x.dim + 1)
    if p == 0:
        h0, hm = pm_cohom(x.m, q)
        table[i] += h0
        table[i + x.m] += hm
    elif p > i:
        h0, hm = _base_sum(x.m, _hook_twists(x, i, p).items(), q)
        table[0] += h0
        table[x.m] += hm
    return tuple(table)


def euler_char(x: Scroll, d: DivClass) -> int:
    return sum(h if i % 2 == 0 else -h for i, h in enumerate(line_cohom(x, d)))


def is_globally_generated(x: Scroll, d: DivClass) -> bool:
    """O(pH+qF) is globally generated iff p >= 0 and every twist of the
    pushforward Sym^p(V)(q) is nonnegative, i.e. p*a_0 + q >= 0."""
    d = x.normalize_class(d)
    return d.p >= 0 and d.p * x.a[0] + d.q >= 0


@dataclass(frozen=True)
class SplitBundle:
    """A finite direct sum of line bundles, stored as a sorted multiset."""

    summands: tuple[DivClass, ...]

    def __post_init__(self):
        if not self.summands:
            raise ValueError("a split bundle needs at least one summand")
        object.__setattr__(self, "summands", tuple(sorted(self.summands)))

    @property
    def rank(self) -> int:
        return len(self.summands)

    def twist(self, t: DivClass) -> "SplitBundle":
        return SplitBundle(tuple(s + t for s in self.summands))

    def dual(self) -> "SplitBundle":
        return SplitBundle(tuple(-s for s in self.summands))

    def to_json(self) -> dict:
        return {"split": [s.to_json() for s in self.summands]}

    @staticmethod
    def from_json(data) -> "SplitBundle":
        return SplitBundle(tuple(DivClass.from_json(s) for s in data))


def bundle_cohom(x: Scroll, e: SplitBundle, t: DivClass = ZERO) -> tuple[int, ...]:
    """Entrywise sum of line cohomology over the summands, twisted by t."""
    table = zero_table(x)
    for s in e.summands:
        table = add_tables(table, line_cohom(x, s + t))
    return table
