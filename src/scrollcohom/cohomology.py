"""Closed-form cohomology of line bundles, split bundles and twisted
relative cotangent powers on a scroll.

The pushforward of O(pH + qF) to the base is Sym^p(V)(q) when p >= 0, a sum
of line bundles O(t + q), one per weak composition of p.  Cohomology therefore
sits in degrees 0 and m for p >= 0, vanishes for -n <= p < 0, and for p < -n
is computed by relative duality from Sym^{-p-n-1}(V)(c-q-1-m), landing in
degrees n and n+m.

Outside the mixed band the sum is a polynomial in p and costs no
dynamic program over p.  With e = p*a_0 + q and d_j = a_j - a_0, every
twist t + q lies in [e, p*a_n + q].  If e >= -m, every summand has
h^0 = C(t+q+m, m) and h^m = 0; if p*a_n + q <= -1, every summand has h^0 = 0
and h^m = (-1)^m C(t+q+m, m), a generalized binomial.  Either way the sum is
P = sum_beta C(e + m + sum_j beta_j d_j, m), and Vandermonde together with
sum_{|beta|=p} prod_j C(beta_j, k_j) = C(p+n, n+sum_j k_j) gives

    P = sum_{s<=m} C(e+m, m-s) sum_K C(p+n, n+K) [y^s] h_K(v),

h_K the complete homogeneous symmetric polynomial in v_j = (1+y)^{d_j} - 1.
Since each v_j is divisible by y, only K <= min(m, p) and s <= m count, so
the triangle [y^s] h_K(v) (:func:`_series`) depends on the scroll and
min(m, p) only, and is cached.

Inside the band, where the twists straddle [-m, -1], the histogram of the
twists t is counted, without listing the compositions, by a dynamic
program whose rows are packed into big integers, one field per twist
(Kronecker substitution): O(n p) big-integer shift-adds.  h^0 and h^m of
the sum are read off that packed row directly: after shifting away (or
masking off) the fields whose twist lies on the wrong side, m+1 rounds of
suffix (or prefix) sums by doubling, X += X >> s for s = f, 2f, 4f, ...,
leave sum_i c_i C(i+r, r) in one end field after round r+1, and
Vandermonde's identity turns these m+1 numbers into the sum of the
binomials C(t+q+m, m) (or C(-t-q-1, m)).  The fields are wide enough that
no partial sum carries, so no Python loop runs over the fields.

Omega^i(pH + qF), the i-th exterior power of the relative cotangent bundle,
is read off Bott's formula on the fibre P^n: its pushforward lives in one
degree (0 for p > i, i for p = 0, n for p < i - n), and is again a sum of
line bundles.  For p > i its packed row is an alternating sum of packed
Sym^{p-s} rows times the packed subset sums a_I of :func:`subset_sums`, one
big-integer product each, read off by the same kernel.  Tables are plain
tuples of length n+m+1.

All dimension arithmetic is unbounded-integer exact; binomials come from
:func:`math.comb`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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


# The Sym budgets below bound the packed kernel, which runs only for line
# queries inside the mixed band and for the hook rows of Omega^i; the series
# of the closed form outside the band has its own, SERIES_*_BUDGET.
#
# Most bytes one packed Sym^k table may take: (k+1) * (k*(a_n - a_0) + 1)
# cells (k+1 rows, none longer than the last) times the field width w >= 1.
# Near the budget a line query on P^1 peaked at 55 MB resident for n = 4
# and 75 MB for n = 12 and 24 (64-bit CPython 3.11, 15 MB after import),
# where a cell count let n = 24 reach 244 MB.  Every in-band query and hook
# of the tests, verify and the benchmark is < 6*10^5 B.
SYM_CELL_BUDGET = 6 * 10**7

# Most dynamic-program steps, one big-integer shift-add each, the Sym rows of
# one query may take: n*k for Sym^k, so n*p for an in-band line query and at
# most (i+1)*n*p for the rows Sym^{p-i}..Sym^p of Omega^i(pH).  Where
# a_n = a_0 a row is one field, so the cell budget passes any k and the
# steps are the cost: on P(O(1)^{n+1}) over P^1 (CPython 3.11.7, 2 vCPUs)
# the Sym^p row took 2*10^6 steps (n = 2000, p = 1000) in 0.5 s CPU and
# 4*10^6 (n = 200, p = 20000) in 1.0 s, and Omega^1000(1001H) at n = 2000,
# 2*10^9 steps, did not answer in 30 s.
SYM_STEP_BUDGET = 4 * 10**6

# Most bytes the packed triangle of :func:`_series` may take, (K+1) rows of
# S+1 fields times a field width wide enough for every coefficient, and most
# steps, n*K products of a row by a packed v_j, where K = min(m, p).  At one
# query its rows, fields, field width and steps never exceed those of the
# kernel's Sym^p table, so with the kernel's budgets it refuses no query
# the kernel would answer.
SERIES_BYTE_BUDGET = SYM_CELL_BUDGET
SERIES_STEP_BUDGET = SYM_STEP_BUDGET


def _row_width(x: Scroll, k: int, mass: int, m: int, rows: int = 1) -> int:
    """Field width in bytes for packed rows of Sym^k length, L = k*(a_n - a_0)
    + 1 fields, holding `mass` summands in all, so that no field carries
    through m+1 rounds of prefix or suffix sums: after round r+1 no field
    exceeds mass * C(L-1+r, r).  m = 0 also sizes the bare histogram.
    Raises ValueError when a table of k+1 such rows would exceed
    SYM_CELL_BUDGET bytes, or when building `rows` tables up to Sym^k
    would exceed SYM_STEP_BUDGET steps.  Kept out of the cached
    :func:`_sym_row`, so that a row cached under one budget is still
    checked against another."""
    length = k * (x.a[-1] - x.a[0]) + 1
    cells = (k + 1) * length
    w = ((mass * comb(length - 1 + m, m)).bit_length() + 8) // 8
    if cells * w > SYM_CELL_BUDGET:
        raise ValueError(f"Sym^{k} on this scroll needs at least {cells * w} table bytes, "
                         f"over the budget of {SYM_CELL_BUDGET}")
    if rows * x.n * k > SYM_STEP_BUDGET:
        raise ValueError(f"Sym^{k} on this scroll needs up to {rows * x.n * k} dynamic-program steps, "
                         f"over the budget of {SYM_STEP_BUDGET}")
    return w


@lru_cache(maxsize=1024)
def _sym_row(x: Scroll, k: int, w: int) -> int:
    """The twist histogram of Sym^k(V) packed in one integer (Kronecker
    substitution): field j, w bytes wide, counts the weak compositions beta
    of k with beta . a = k*a_0 + j, i.e. the coefficient of u^k z^{k a_0 + j}
    in prod_j 1/(1 - u z^{a_j}).  Each row of the dynamic program is one such
    integer, so adding a variable is one shift-add per row: O(n k)
    big-integer shift-adds.  The caller sizes w with :func:`_row_width`."""
    a0 = x.a[0]
    # rows[l], field s: compositions of l over the variables so far with twist l*a_0 + s
    rows = [1] * (k + 1)
    for aj in x.a[1:]:
        shift = 8 * w * (aj - a0)
        for l in range(1, k + 1):
            rows[l] += rows[l - 1] << shift
    return rows[k]


def _series_width(x: Scroll, top: int, S: int) -> int:
    """Field width in bytes for the rows K = 0..top of :func:`_series`, S+1
    fields each.  [y^s] h_K(v) is at most C(K+n-1, n-1) C(K*d_n, s), the
    count of monomials of degree K times the coefficient of (1+y)^{K d_n},
    so at most C(top+n, n) C(span, k) with span = top*d_n and
    k = min(S, span // 2).  Raises ValueError when building the rows would
    take more than SERIES_STEP_BUDGET steps, or the rows more than
    SERIES_BYTE_BUDGET bytes, checked first against the floor
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
    never reach :func:`_closed_form` at min(m, p) = top, and K > s
    vanishes since each v_j is divisible by y.

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


def _closed_form(x: Scroll, p: int, e: int) -> tuple[int, int]:
    """(h^0, h^m) outside the mixed band, for p >= 0 and e = p*a_0 + q: the
    sum over the weak compositions beta of p of C(e + m + D, m),
    D = sum_j beta_j (a_j - a_0), is

        P = sum_s C(e+m, m-s) U_s,  U_s = sum_K C(p+n, n+K) [y^s] h_K(v).

    It is h^0 when e >= -m.  When p*a_n + q <= -1 it is (-1)^m h^m, with
    C(e+m, m-s) the generalized binomial (-1)^{m-s} C(-e-1-s, m-s), so
    h^m = sum_s (-1)^s C(-e-1-s, m-s) U_s.  See the module docstring."""
    m, n = x.m, x.n
    rows = _series(x, min(m, p))
    if e >= -m:
        col = [comb(e + m, j) for j in range(m, m - len(rows[0]), -1)]
    else:
        col = [(-1) ** s * comb(-e - 1 - s, m - s) for s in range(len(rows[0]))]
    total = comb(p + n, n) * col[0]  # h_0 = 1
    for k in range(1, len(rows)):
        total += comb(p + n, n + k) * sum(map(mul, col, rows[k]))
    return (total, 0) if e >= -m else (0, total)


@lru_cache(maxsize=1024)
def sym_twists(x: Scroll, k: int) -> tuple[tuple[int, int], ...]:
    """Histogram of the base twists of Sym^k(V): sorted pairs (t, mult), mult
    counting the weak compositions beta of k with beta . a = t.  The
    unpacked view of :func:`_sym_row` with fields just wide enough for
    C(k+n, n), the most any count can be.  Production reads the packed row;
    this view serves the reference routes.
    Raises ValueError when the table would exceed SYM_CELL_BUDGET bytes."""
    if k < 0:
        raise ValueError("symmetric power index must be nonnegative")
    w = _row_width(x, k, comb(k + x.n, x.n), 0)
    length = k * (x.a[-1] - x.a[0]) + 1
    raw = _sym_row(x, k, w).to_bytes(length * w, "little")
    from_bytes = int.from_bytes
    fields = (from_bytes(raw[i:i + w], "little") for i in range(0, length * w, w))
    return tuple((t, c) for t, c in enumerate(fields, k * x.a[0]) if c)


def _scan(m: int, row: int, f: int, count: int, e: int, up: bool) -> int:
    """sum_i c_i C(i+e+m, m) over the fields c_i of row, f bits wide and
    count in number, with i counted from field 0 or, when up, from the top
    field count-1 down.  Each of m+1 rounds takes suffix (or, up, prefix)
    sums by doubling; after round r+1 the end field holds
    T_r = sum_i c_i C(i+r, r), and Vandermonde,
    C(i+e+m, m) = sum_r C(e-1+m-r, m-r) C(i+r, r), combines them (for
    e = 0 only r = m counts)."""
    span = count * f
    total = 0
    for r in range(m + 1):
        s = f
        while s < span:
            row += (row << s) if up else (row >> s)
            s <<= 1
        if up:
            row &= (1 << span) - 1
            t = row >> (span - f)
        else:
            t = row & ((1 << f) - 1)
        total += t if r == m else comb(e - 1 + m - r, m - r) * t
    return total


def _packed_base_sum(m: int, row: int, w: int, e: int) -> tuple[int, int]:
    """(h^0, h^m) on P^m summed over a packed twist histogram: field j of
    row, w bytes wide, counts summands O(e + j).  For m = 0 both values
    belong to degree 0, as in :func:`pm_cohom`.

    h^0 = sum c_j C(e+j+m, m) over j >= -e: the fields below -e are shifted
    away and the rest scanned from field 0.  h^m = sum c_j C(N-j+m, m) over
    j <= N = -e-m-1: the fields above N are masked away and the rest scanned
    from the top.  A few shift-adds on the whole row per round and no loop
    over fields; w must come from :func:`_row_width` at this m."""
    f = 8 * w
    count = -(-row.bit_length() // f)  # fields up to the last nonzero one
    h0 = hm = 0
    low = max(-e, 0)
    if low < count:
        h0 = _scan(m, row >> low * f, f, count - low, max(e, 0), False)
    top = min(-e - m - 1, count - 1)
    if top >= 0:
        hm = _scan(m, row & ((1 << (top + 1) * f) - 1), f, top + 1, -e - m - 1 - top, True)
    return h0, hm


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


def zero_table(x: Scroll) -> tuple[int, ...]:
    return (0,) * (x.dim + 1)


def add_tables(t1, t2) -> tuple[int, ...]:
    return tuple(a + b for a, b in zip(t1, t2))


@lru_cache(maxsize=2**14)
def line_cohom(x: Scroll, d: DivClass) -> tuple[int, ...]:
    """Cohomology table (h^0, ..., h^{n+m}) of O(d.p * H + d.q * F).  For
    p < -n it is the reversed table of the Serre-dual class
    (-p-n-1, c-q-1-m), as in :func:`omega_cohom`.  For p >= 0 the closed
    form :func:`_closed_form` answers outside the mixed band, where the
    twists t + q all lie at or above -m or all at or below -1; the packed
    kernel answers inside it."""
    p, q = d.p, d.q
    dual = p < -x.n
    if dual:
        p, q = -p - x.n - 1, x.c - q - 1 - x.m
    table = [0] * (x.dim + 1)
    if p >= 0:
        e = p * x.a[0] + q
        if e >= -x.m or p * x.a[-1] + q <= -1:
            h0, hm = _closed_form(x, p, e)
        else:  # the mixed band
            w = _row_width(x, p, comb(p + x.n, x.n), x.m)
            h0, hm = _packed_base_sum(x.m, _sym_row(x, p, w), w, e)
        table[0] += h0
        table[x.m] += hm
    return tuple(table[::-1] if dual else table)


def check_omega_index(x: Scroll, i: int):
    if not 0 <= i <= x.n:
        raise ValueError(f"cotangent power index {i} out of range 0..{x.n}")


@lru_cache(maxsize=1024)
def _hook_row(x: Scroll, i: int, p: int) -> tuple[int, int]:
    """Twist histogram of pi_* Omega^i(pH) for p > i, packed as in
    :func:`_sym_row` with field j at twist p*a_0 + j, and its field width in
    bytes, sized for :func:`_packed_base_sum`.  It is the alternating sum
    sum_{s<=i} (-1)^{i-s} Lambda^s(V) (x) Sym^{p-s}(V) of its resolution by
    pushforwards; each product is one multiplication of the Sym^{p-s} row by
    U_s, the subset sums of size s packed from offset s*a_0.  The bundle is
    a Schur functor of the split V, so it is split itself and every
    multiplicity is nonnegative: the positive and the negative terms are
    added apart and subtracted once, which never borrows."""
    n, a0 = x.n, x.a[0]
    w = _row_width(x, p, sum(comb(n + 1, s) * comb(p - s + n, n) for s in range(i + 1)), x.m, i + 1)
    f = 8 * w
    signed = [0, 0]
    for s, sums in enumerate(subset_sums(x, i)):
        packed = sum(c << f * (u - s * a0) for u, c in sums)
        signed[(i - s) % 2] += packed * _sym_row(x, p - s, w)
    return signed[0] - signed[1], w


def omega_cohom(x: Scroll, i: int, t: DivClass) -> tuple[int, ...]:
    """Cohomology table of Omega^i(T), the i-th exterior power of the
    relative cotangent bundle twisted by T = pH + qF.  Omega^0 is the
    structure sheaf.

    By Bott's formula on the fibre P^n, R pi_* Omega^i(pH) is one sheaf in
    one degree, and Leray reads the table off the base:

    * p > i: pi_* Omega^i(pH) in degree 0, a sum of line bundles O(u) with
      the histogram of :func:`_hook_row`; h^0 and h^m are sums of
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
        row, w = _hook_row(x, i, p)
        h0, hm = _packed_base_sum(x.m, row, w, p * x.a[0] + q)
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
