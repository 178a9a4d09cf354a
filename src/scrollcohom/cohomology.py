"""Cohomology of line bundles, split bundles and twisted relative cotangent
powers on a scroll, by one rule: chi plus the shorter side.

The pushforward of O(pH + qF) to the base is Sym^p(V)(q) when p >= 0, a sum
of line bundles O(e + D) on P^m, one per weak composition beta of p, with
e = p*a_0 + q and D = sum_j beta_j (a_j - a_0).  Cohomology therefore sits
in degrees 0 and m for p >= 0, vanishes for -n <= p < 0, and for p < -n is
computed by relative duality from Sym^{-p-n-1}(V)(c-q-1-m), landing in
degrees n and n+m.  For p > i, pi_* Omega^i(pH) (Bott's formula on the
fibre P^n) is such a sum too, the hook sum_{s<=i} (-1)^{i-s} Lambda^s(V)
(x) Sym^{p-s}(V), and is answered alike.

chi = h^0 + (-1)^m h^m = sum_D c_D C(e + D + m, m) is, by Vandermonde with
the generalized binomial, sum_{r<=m} C(e+m, m-r) M_r, where M_r =
sum_D c_D C(D, r) are the binomial moments of the twist histogram (from
the triangle of :func:`_series`, and :func:`_moments` for a hook).  h^m
reads the fields D <= N_m = -e-m-1, each giving C(N_m - D + m, m); h^0
reads the same form up to N_0 = p*a_n + q on the reflected twists
a_n - a_j (:func:`_mirror`).  Only the side with the smaller N is
computed, and the other comes from chi; a side with N < 0 is empty.  The side is a packed row cut to N+1 fields
(:func:`_sym_row`), one field per D (Kronecker substitution), whose m+1
rounds of prefix sums by doubling leave it in the top field
(:func:`_scan`): no Python loop runs over the fields.

Tables are plain tuples of length n+m+1.  All dimension arithmetic is
unbounded-integer exact; binomials come from :func:`math.comb`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from math import comb
from operator import mul

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


# Budgets, each checked before the work it bounds.  Most bytes one packed
# table of a short side may take: (K+1) rows of N+1 cells, N the side's cut
# and K its most parts on nonzero gaps, times the field width w >= 1.  Near
# the budget a line query on P^1 peaked at 55 MB resident for n = 4 and
# 75 MB for n = 12 and 24 (64-bit CPython 3.11, 15 MB after import), where
# a cell count let n = 24 reach 244 MB.
SYM_CELL_BUDGET = 6 * 10**7

# Most steps one query may take: big-integer shift-adds of the Sym rows,
# (number of nonzero gaps)*K per row and i+1 rows for Omega^i(pH), or the
# subset sums and moments of a hook (:func:`_moments`).
SYM_STEP_BUDGET = 4 * 10**6

# Most bytes the shift-adds of one query's Sym rows may move, steps times
# row bytes (top+1)*w.  On P(O(1)+O(2)^{10000}) over P^1 (CPython 3.11.7,
# 2 vCPUs) O(402H - 604F), 2*10^6 steps on rows of 201 fields of 308 bytes,
# took 33 s CPU, and O(402H - 439F), just under this budget, 1.1 s.
SYM_WORK_BUDGET = 4 * 10**9

# Most bytes and steps, n*K products of a row by a packed v_j, of the
# triangle of :func:`_series`, K = min(m, p).
SERIES_BYTE_BUDGET = SYM_CELL_BUDGET
SERIES_STEP_BUDGET = SYM_STEP_BUDGET


def _gbinom(y: int, m: int, count: int) -> list[int]:
    """The generalized binomials C(y, m - r) for r < count, where
    C(y, k) = y(y-1)...(y-k+1)/k! = (-1)^k C(k-y-1, k) for y < 0."""
    if y >= 0:
        return [comb(y, k) for k in range(m, m - count, -1)]
    return [(-1) ** k * comb(k - y - 1, k) for k in range(m, m - count, -1)]


@lru_cache(maxsize=1024)
def _mirror(x: Scroll) -> Scroll:
    """The scroll with twists -a_j: its gaps are x's reflected ones a_n - a_j,
    and its subset sums of size s are -a_I, so s*a_n - a_I in gap terms."""
    return Scroll(x.m, x.n, tuple(-aj for aj in x.a))


def _row_width(gaps: tuple[int, ...], i: int, p: int, top: int, m: int) -> int:
    """Field width in bytes for the rows Sym^{p-s}, s <= i, of :func:`_sym_row`
    cut to top+1 fields: after m+1 rounds of prefix sums a field is at most
    the mass sum_s C(n+1, s) C(p-s+n, n) times C(top+m, m) (m = 0 sizes the
    bare histogram).  Raises ValueError past SYM_STEP_BUDGET steps or
    SYM_CELL_BUDGET bytes, both checked before any binomial, or past
    SYM_WORK_BUDGET bytes shifted; outside the cached :func:`_sym_row`."""
    n, z = len(gaps) - 1, gaps.count(0)
    parts = min(p, top // gaps[z]) if z <= n else 0
    steps = (i + 1) * (n + 1 - z) * parts
    if steps > SYM_STEP_BUDGET:
        raise ValueError(f"Sym^{p} on this scroll needs up to {steps} dynamic-program steps, "
                         f"over the budget of {SYM_STEP_BUDGET}")
    cells, w = (parts + 1) * (top + 1), 1
    if cells <= SYM_CELL_BUDGET:
        mass = sum(comb(n + 1, s) * comb(p - s + n, n) for s in range(i + 1))
        w = ((mass * comb(top + m, m)).bit_length() + 8) // 8
        if cells * w <= SYM_CELL_BUDGET:
            if steps * (top + 1) * w > SYM_WORK_BUDGET:
                raise ValueError(f"Sym^{p} on this scroll needs {steps} dynamic-program steps on rows of "
                                 f"{(top + 1) * w} bytes, over the budget of {SYM_WORK_BUDGET} bytes shifted")
            return w
    raise ValueError(f"Sym^{p} on this scroll needs at least {cells * w} table bytes, "
                     f"over the budget of {SYM_CELL_BUDGET}")


@lru_cache(maxsize=1024)
def _sym_row(gaps: tuple[int, ...], k: int, top: int, w: int) -> int:
    """Fields 0..top of the histogram of D = beta . gaps over the weak
    compositions beta of k, packed in one integer (Kronecker substitution):
    field D, w bytes wide, counts the beta with that D.  gaps is sorted and
    starts with z >= 1 zeros.  A beta whose parts on the nonzero gaps sum
    to l has D >= l*g, g the least nonzero gap, so only l <= K =
    min(k, top // g) reach the cut: the dynamic program over the nonzero
    gaps builds rows[l], their compositions of l, one shift-add per row and
    gap, each cut back to top+1 fields, and the zero gaps take the other
    k - l parts in C(k-l+z-1, z-1) ways.  The caller sizes w with
    :func:`_row_width`."""
    z = gaps.count(0)
    f, parts = 8 * w, min(k, top // gaps[z]) if z < len(gaps) else 0
    mask = (1 << f * (top + 1)) - 1
    rows = [1] + [0] * parts
    for g in gaps[z:]:
        shift = f * g
        for l in range(1, parts + 1):
            rows[l] += rows[l - 1] << shift & mask
    return sum(comb(k - l + z - 1, z - 1) * row for l, row in enumerate(rows))


def _series_width(x: Scroll, top: int, S: int) -> int:
    """Field width in bytes for the rows K = 0..top of :func:`_series`, S+1
    fields each.  [y^s] h_K(v) is at most C(K+n-1, n-1) C(K*d_n, s), the
    count of monomials of degree K times the coefficient of (1+y)^{K d_n},
    so at most C(top+n, n) C(span, k) with span = top*d_n and
    k = min(S, span // 2).  Raises ValueError past SERIES_STEP_BUDGET steps
    or SERIES_BYTE_BUDGET bytes, checked first against the floor
    C(span, k) >= max(2, span // k)^k, so that no big binomial is computed
    for a table that is refused anyway."""
    if x.n * top > SERIES_STEP_BUDGET:
        raise ValueError(f"the series h_K(v) for K <= {top} on this scroll needs up to {x.n * top} "
                         f"dynamic-program steps, over the budget of {SERIES_STEP_BUDGET}")
    span = top * (x.a[-1] - x.a[0])
    k = min(S, span // 2)
    cells = (top + 1) * (S + 1)
    w = (k * max(1, (span // k).bit_length() - 1) + 8) // 8 if k else 1
    if cells * w <= SERIES_BYTE_BUDGET:
        w = ((comb(top + x.n, x.n) * comb(span, k)).bit_length() + 8) // 8
        if cells * w <= SERIES_BYTE_BUDGET:
            return w
    raise ValueError(f"the series h_K(v) for K <= {top} on this scroll needs at least {cells * w} table bytes, "
                     f"over the budget of {SERIES_BYTE_BUDGET}")


@lru_cache(maxsize=1024)
def _series(x: Scroll, top: int) -> tuple[tuple[int, ...], ...]:
    """The triangle [y^s] h_K(v) for K = 0..min(top, S) and s = 0..S, with
    S = min(m, top*(a_n - a_0)), h_K the complete homogeneous symmetric
    polynomial in v_j = (1+y)^{a_j - a_0} - 1.  Terms with K > top or s > S
    never reach :func:`_base_sum` at min(m, p) = top, and K > s vanishes
    since each v_j is divisible by y.

    The dynamic program of :func:`_sym_row`, with each row packed in y, one
    field per power: adding v_j is rows[K] += rows[K-1] * v_j for K = 1..top,
    each product cut back to S+1 fields.  Every coefficient is nonnegative
    and fits its field (:func:`_series_width`), so fields at or below y^S
    never carry, and what the cut drops cannot reach them."""
    a0 = x.a[0]
    S = min(x.m, top * (x.a[-1] - a0))
    top = min(top, S)
    if not top:
        return ((1,),)  # h_0 = 1, and no power of y survives
    w = _series_width(x, top, S)
    f, size = 8 * w, (S + 1) * w
    mask = (1 << 8 * size) - 1
    rows, ks = [1] + [0] * top, range(1, top + 1)
    d, v = 0, 0
    for aj in x.a[1:]:
        if aj - a0 != d:  # twists are sorted, so equal d_j come together
            d, v = aj - a0, 0
            for s in range(min(d, S), 0, -1):  # v_j packed by Horner's rule
                v = (v + comb(d, s)) << f
        if v:
            for k in ks:
                rows[k] += rows[k - 1] * v & mask
    from_bytes, cuts = int.from_bytes, range(0, size, w)
    unpacked = [(1,) + (0,) * S]
    for row in rows[1:]:
        raw = row.to_bytes(size, "little")
        unpacked.append(tuple([from_bytes(raw[i:i + w], "little") for i in cuts]))
    return tuple(unpacked)


@lru_cache(maxsize=1024)
def sym_twists(x: Scroll, k: int) -> tuple[tuple[int, int], ...]:
    """Histogram of the base twists of Sym^k(V): sorted pairs (t, mult), mult
    counting the weak compositions beta of k with beta . a = t.  The
    unpacked view of the full-length :func:`_sym_row` with fields just wide
    enough for C(k+n, n), the most any count can be.  Production reads the
    packed rows of short sides; this view serves the reference routes.
    Raises ValueError when the table would exceed SYM_CELL_BUDGET bytes."""
    if k < 0:
        raise ValueError("symmetric power index must be nonnegative")
    gaps = tuple(aj - x.a[0] for aj in x.a)
    top = k * gaps[-1]
    w = _row_width(gaps, 0, k, top, 0)
    raw = _sym_row(gaps, k, top, w).to_bytes((top + 1) * w, "little")
    from_bytes = int.from_bytes
    fields = (from_bytes(raw[i:i + w], "little") for i in range(0, (top + 1) * w, w))
    return tuple((t, c) for t, c in enumerate(fields, k * x.a[0]) if c)


def _scan(m: int, row: int, f: int, count: int) -> int:
    """sum_j c_j C(count-1-j+m, m) over the fields c_j of row, f bits wide
    and count in number.  Each of m+1 rounds takes prefix sums by doubling,
    X += X << s for s = f, 2f, 4f, ..., after which the top field holds
    sum_j c_j C(count-1-j+r, r) at round r+1."""
    span = count * f
    mask = (1 << span) - 1
    for _ in range(m + 1):
        s = f
        while s < span:
            row += row << s
            s <<= 1
        row &= mask
    return row >> (span - f)


@lru_cache(maxsize=1024)
def subset_sums(x: Scroll, top: int | None = None) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per size s = 0..top (default n+1, every size), the histogram of a_I
    over the subsets I of the twist indices with |I| = s: sorted pairs
    (a_I, count), the base twists of the exterior power Lambda^s(V).  A
    dynamic program over the twists, adding a_j to the subsets of each size
    up to top met so far; no subset is listed, and no larger size is built."""
    top = x.n + 1 if top is None else top
    rows: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(top)]
    for j, aj in enumerate(x.a):
        for s in range(min(j + 1, top), 0, -1):
            row = rows[s]
            for v, c in rows[s - 1].items():
                row[v + aj] = row.get(v + aj, 0) + c
    return tuple(tuple(sorted(row.items())) for row in rows)


@lru_cache(maxsize=1024)
def _moments(x: Scroll, i: int, p: int) -> tuple[int, ...]:
    """The binomial moments M_r, r = 0..min(m, p*(a_n - a_0)), of the hook
    pi_* Omega^i(pH), p > i, in D = t - p*a_0.  Sym^k(V) has the moments
    U_r(k) = sum_K C(k+n, n+K) [y^r] h_K(v) (:func:`_series`), a subset sum
    g = a_I - s*a_0 shifts D by g, and C(g + D, r) = sum_j C(g, j) C(D, r-j),
    so M_r = sum_s (-1)^{i-s} sum_g c_g sum_j C(g, j) U_{r-j}(p-s).

    Raises ValueError past SYM_STEP_BUDGET steps, checked before the subset
    sums run: the size-s sums take at most min(C(n+1, s), s*d + 1) values,
    d = a_n - a_0, met once per twist and read here min(L, s*d + 1) times,
    each read followed by L = len(M) products.  A cached vector takes none."""
    n, a0, d = x.n, x.a[0], x.a[-1] - x.a[0]
    out = [0] * (min(x.m, p * d) + 1)
    steps, sizes = 0, [1]  # sizes[k] = C(n+1, k), capped past the budget
    for s in range(1, i + 1):
        k = min(s, n + 1 - s)
        if k == len(sizes):
            sizes.append(min(sizes[-1] * (n + 2 - k) // k, SYM_STEP_BUDGET + 1))
        size, reads = min(sizes[k], s * d + 1), min(len(out), s * d + 1)
        steps += (n + 1) * size + reads * (size + len(out))
    if steps > SYM_STEP_BUDGET:
        raise ValueError(f"Omega^{i} on this scroll needs up to {steps} subset-sum and moment steps, "
                         f"over the budget of {SYM_STEP_BUDGET}")
    rows = _series(x, min(x.m, p))  # C(p-s+n, n+K) = 0 past K = p-s
    for s, sums in enumerate(subset_sums(x, i)):
        weights = [comb(p - s + n, n + K) for K in range(len(rows))]
        sign, sym = -1 if (i - s) % 2 else 1, [sum(map(mul, weights, col)) for col in zip(*rows)]
        for j in range(min(len(out), s * d + 1)):  # C(g, j) = 0 for j > g
            shift = sign * sum(c * comb(u - s * a0, j) for u, c in sums)
            for r, v in enumerate(sym[:len(out) - j], j):
                out[r] += shift * v
    return tuple(out)


def _short_side(y: Scroll, i: int, p: int, top: int) -> int:
    """sum_D c_D C(top - D + m, m) over the fields D <= top of the twist
    histogram of pi_* Omega^i(pH) on y, in D = t - p*a_0 (Sym^p for i = 0):
    h^m of the sum when top = -p*a_0 - q - m - 1.  The hook's packed row is
    the alternating sum over s <= i of the Sym^{p-s} row times the subset
    sums a_I - s*a_0 packed, each product cut to top+1 fields.  The bundle
    is a Schur functor of the split V, so every multiplicity is
    nonnegative: the positive and the negative terms are added apart and
    subtracted once, which never borrows, and the cut keeps that."""
    a0, gaps = y.a[0], tuple(aj - y.a[0] for aj in y.a)
    w = _row_width(gaps, i, p, top, y.m)
    f = 8 * w
    mask = (1 << f * (top + 1)) - 1
    signed = [0, 0]
    for s, sums in enumerate(subset_sums(y, i)):
        packed = sum(c << f * (u - s * a0) for u, c in sums if u - s * a0 <= top)
        signed[(i - s) % 2] += packed * _sym_row(gaps, p - s, top, w) & mask
    return _scan(y.m, signed[0] - signed[1], f, top + 1)


def _base_sum(x: Scroll, i: int, p: int, q: int) -> tuple[int, int]:
    """(h^0, h^m) on P^m of pi_* Omega^i(pH)(q), a sum of line bundles, for
    p > i, or Sym^p(V)(q) for i = 0 and p >= 0: chi from the moments, and
    the shorter side, h^m up to N_m = -e-m-1 or h^0 up to N_0 = p*a_n + q on
    the mirror, the other from chi.  For m = 0 both values belong to degree
    0, as in :func:`pm_cohom`."""
    m, n, e = x.m, x.n, p * x.a[0] + q
    if i:  # first: the hook's moments check the subset sums the side reads
        weights, rows = (1,), (_moments(x, i, p),)
    else:  # U_r = sum_K C(p+n, n+K) [y^r] h_K(v), as in :func:`_moments`
        rows = _series(x, min(m, p))
        weights = map(comb, repeat(p + n), range(n, n + len(rows)))
    col, chi = _gbinom(e + m, m, len(rows[0])), 0
    for k, row in zip(weights, rows):  # chi = sum_r col[r] M_r, M = sum_K weights[K] rows[K]
        chi += k * sum(map(mul, col, row))
    sign = -1 if m % 2 else 1
    low, high = -e - m - 1, p * x.a[-1] + q
    if low <= high:
        hm = _short_side(x, i, p, low) if low >= 0 else 0
        return chi - sign * hm, hm
    h0 = _short_side(_mirror(x), i, p, high) if high >= 0 else 0
    return h0, sign * (chi - h0)


def zero_table(x: Scroll) -> tuple[int, ...]:
    return (0,) * (x.dim + 1)


def add_tables(t1, t2) -> tuple[int, ...]:
    return tuple(a + b for a, b in zip(t1, t2))


@lru_cache(maxsize=2**14)
def line_cohom(x: Scroll, d: DivClass) -> tuple[int, ...]:
    """Cohomology table (h^0, ..., h^{n+m}) of O(d.p * H + d.q * F).  For
    p < -n it is the reversed table of the Serre-dual class
    (-p-n-1, c-q-1-m), as in :func:`omega_cohom`; for p >= 0 it is
    :func:`_base_sum` of Sym^p(V)(q)."""
    p, q = d.p, d.q
    dual = p < -x.n
    if dual:
        p, q = -p - x.n - 1, x.c - q - 1 - x.m
    table = [0] * (x.dim + 1)
    if p >= 0:
        h0, hm = _base_sum(x, 0, p, q)
        table[0] += h0
        table[x.m] += hm
    return tuple(table[::-1] if dual else table)


def check_omega_index(x: Scroll, i: int):
    if not 0 <= i <= x.n:
        raise ValueError(f"cotangent power index {i} out of range 0..{x.n}")


def omega_cohom(x: Scroll, i: int, t: DivClass) -> tuple[int, ...]:
    """Cohomology table of Omega^i(T), the i-th exterior power of the
    relative cotangent bundle twisted by T = pH + qF.  Omega^0 is the
    structure sheaf.

    By Bott's formula on the fibre P^n, R pi_* Omega^i(pH) is one sheaf in
    one degree, and Leray reads the table off the base:

    * p > i: pi_* Omega^i(pH) in degree 0, a sum of line bundles O(u), the
      hook sum_{s<=i} (-1)^{i-s} Lambda^s(V) (x) Sym^{p-s}(V); h^0 and h^m
      of its twist by q come from :func:`_base_sum`, as in
      :func:`line_cohom`;
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
        h0, hm = _base_sum(x, i, p, q)
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

    def dual(self) -> "SplitBundle":
        return SplitBundle(tuple(-s for s in self.summands))


def bundle_cohom(x: Scroll, e: SplitBundle, t: DivClass = ZERO) -> tuple[int, ...]:
    """Entrywise sum of line cohomology over the summands, twisted by t."""
    table = zero_table(x)
    for s in e.summands:
        table = add_tables(table, line_cohom(x, s + t))
    return table
