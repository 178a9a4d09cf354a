"""Executable property suites.

Each suite re-checks the invariants the library is built on, over moderate
boxes of a fixed scroll family, and reports one pass/fail line per named
property.  The CLI `verify` subcommand drives these; the test suite runs
the same checks (and the acceptance tests run larger boxes).

The reference formulas the tests share live here under public names
(:func:`bott_h`, :func:`classical_pn_regular`, :func:`hook_twists`,
:func:`kuenneth_table`, :func:`pointwise_reg`, :func:`regular_split_samples`).
Every check is one :func:`_agree` over its case list: a route and a
reference, or for a property the value expected on every case
(:func:`_always`).  No production module imports this one.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .characters import character_cohom, mult_map_rank
from .cohomology import (add_tables, choose, euler_char, is_globally_generated, line_cohom,
                         omega_cohom, subset_sums, sym_twists, zero_table)
from .complexes import (_contributing_keys, cotangent_resolution_left, cotangent_resolution_right,
                        euler_complex, exterior_complex, hypercohom, koszul_pullback,
                        koszul_pullback_spliced, per_key_dims, single_term_complex,
                        validate_complex)
from .regularity import (compare_regularities, is_ms_regular, is_pq_regular, reg_detail,
                         rns_is_pq_regular)
from .scroll import DivClass, Scroll, make_scroll, normalize_twist
from .sheaves import SheafSpec, sheaf_cohom, sheaf_h
from .splitting import (_FAMILIES, _scan_window, check_theorem, ground_truth_classify, ohf_conditions,
                        pure_h_conditions)
from .windows import eval_cond, omega_h_intervals

FAMILY = (
    make_scroll(1, 1, [1, 2]),
    make_scroll(1, 2, [1, 1, 2]),
    make_scroll(2, 1, [1, 3]),
    make_scroll(2, 2, [1, 1, 1]),
    make_scroll(1, 1, [0, 2]),
    make_scroll(0, 2, [0, 0, 0]),
    make_scroll(2, 0, [2]),
)

POSITIVE_FAMILY = tuple(x for x in FAMILY if x.is_positive and x.n > 0)


class CheckResult(NamedTuple):
    suite: str
    label: str
    ok: bool
    detail: str = ""


def _box(lo: int, hi: int):
    return [(p, q) for p in range(lo, hi + 1) for q in range(lo, hi + 1)]


def _classes(scrolls, lo: int, hi: int) -> list:
    return [(x, DivClass(p, q)) for x in scrolls for p, q in _box(lo, hi)]


def _omega_cases(boxes) -> list:
    """(x, i, T) for each (scroll, box of (p, q)) pair, i = 0..n and T in the box."""
    return [(x, i, DivClass(p, q)) for x, box in boxes for i in range(x.n + 1) for p, q in box]


def _agree(suite: str, label: str, cases, route, reference) -> CheckResult:
    """The check that route(*case) == reference(*case) on every case, with
    one failure (case, got, want) per disagreement.  An empty case list
    fails, so a filter slip cannot make the check pass vacuously.  A route
    or reference that raises fails this check alone, at its first such
    case, and the suite's other checks still run."""
    cases, bad = list(cases), []
    for case in cases:
        try:
            got, want = route(*case), reference(*case)
        except Exception as exc:
            return CheckResult(suite, label, False, f"raised on {case}: {type(exc).__name__}: {exc}")
        if got != want:
            bad.append((case, got, want))
    if not cases:
        return CheckResult(suite, label, False, "no cases")
    return CheckResult(suite, label, not bad, f"{len(bad)} failures; first: {bad[0]}" if bad else "")


def _always(value):
    """The reference of a property check: value on every case."""
    return lambda *case: value


def _regular_samples() -> list:
    """(x, E) for each positive scroll of FAMILY and each of its :func:`regular_split_samples`."""
    return [(x, e) for x in POSITIVE_FAMILY for e in regular_split_samples(x)]


# -- scroll-core -----------------------------------------------------------

def suite_scroll() -> list[CheckResult]:
    def round_trip(x, w, d):
        tmap = normalize_twist(x, w)[1]
        return tmap.invert(tmap.apply(d))

    def retwisted(x, w, d):
        xw, tmap = normalize_twist(x, w)
        return line_cohom(xw, tmap.apply(d))

    def twisted(lo, hi):
        return [(x, w, DivClass(p, q)) for x in FAMILY for w in (-1, 1, 2) for p, q in _box(lo, hi)]

    return [
        _agree("scroll-core", "serre-dual-involution",
               [(x, x.divclass(p, q)) for x in FAMILY for p, q in _box(-4, 4)],
               lambda x, d: x.serre_dual_twist(x.serre_dual_twist(d)), lambda x, d: d),
        _agree("scroll-core", "twist-map-inverse", twisted(-3, 3), round_trip, lambda x, w, d: d),
        _agree("scroll-core", "twist-map-cohomology-invariance", twisted(-4, 4),
               lambda x, w, d: line_cohom(x, d), retwisted),
    ]


# -- closed forms ----------------------------------------------------------

def hook_twists(x: Scroll, i: int, p: int) -> dict[int, int]:
    """Twist histogram of pi_* Omega^i(pH) for p > i, written out as the
    alternating sum sum_{s<=i} (-1)^{i-s} Lambda^s(V) (x) Sym^{p-s}(V): a
    dict convolution of :func:`subset_sums` with :func:`sym_twists`."""
    hist: dict[int, int] = {}
    for s in range(i + 1):
        sign = -1 if (i - s) % 2 else 1
        for u, cu in subset_sums(x)[s]:
            for v, cv in sym_twists(x, p - s):
                hist[u + v] = hist.get(u + v, 0) + sign * cu * cv
    return hist


def suite_closed_form() -> list[CheckResult]:
    def gen_binom(top: int, k: int) -> int:
        val = 1
        for i in range(k):
            val *= top - i
        for i in range(1, k + 1):
            val //= i
        return val

    def expanded(x: Scroll, hist, q: int) -> tuple[int, ...]:
        # each term's C(t+q+m, m) goes to h^0 for t + q >= 0 and, times
        # (-1)^m, to h^m below (it vanishes in between)
        table = list(zero_table(x))
        for t, mult in hist:
            val = mult * gen_binom(t + q + x.m, x.m)
            if t + q >= 0:
                table[0] += val
            else:
                table[x.m] += (-1) ** x.m * val
        return tuple(table)

    def packed(x: Scroll, i: int, d: DivClass) -> tuple[int, ...]:
        return omega_cohom(x, i, d) if i else line_cohom(x, d)

    def histogram(x: Scroll, i: int, d: DivClass) -> tuple[int, ...]:
        return expanded(x, hook_twists(x, i, d.p).items() if i else sym_twists(x, d.p), d.q)

    def corank(x: Scroll, e: SheafSpec, by: DivClass) -> int:
        rank, target = mult_map_rank(x, e.split, by)
        return target - rank

    e1 = SheafSpec.from_split([(0, 0), (1, -1)])
    e2 = SheafSpec.from_split([(-2, 1)])
    both = SheafSpec(e1.pieces + e2.pieces)
    samples = _regular_samples()
    return [
        _agree("closed-form", "table-support", _classes(FAMILY, -6, 6),
               lambda x, d: [i for i, h in enumerate(line_cohom(x, d)) if h and i not in (0, x.m, x.n, x.dim)],
               _always([])),
        _agree("closed-form", "serre-duality",
               [(x, x.divclass(p, q)) for x in FAMILY for p, q in _box(-6, 6)],
               line_cohom, lambda x, d: line_cohom(x, x.serre_dual_twist(d))[::-1]),
        # all of FAMILY is semipositive; middle vanishing needs that
        _agree("closed-form", "middle-vanishing-semipositive",
               [(x, d) for x, d in _classes(FAMILY, -6, 6)
                if (d.p >= 0 and d.q >= -x.m) or (d.p < -x.n and d.q < x.c)],
               lambda x, d: line_cohom(x, d)[1:x.dim], lambda x, d: (0,) * (x.dim - 1)),
        _agree("closed-form", "euler-characteristic-polynomial",
               [(x, DivClass(p, q)) for x in FAMILY for p in range(0, 5) for q in range(-6, 7)],
               euler_char, lambda x, d: sum(mult * gen_binom(t + d.q + x.m, x.m)
                                            for t, mult in sym_twists(x, d.p))),
        # i = 0, the line bundle, at every p; Omega^i where its hook applies, 0 < i < p
        _agree("closed-form", "packed-sum-matches-histogram",
               [(x, i, DivClass(p, q)) for x in FAMILY for q in range(-30, 31) for p in range(0, 13)
                for i in range(x.n + 1) if i == 0 or i < p],
               packed, histogram),
        _agree("closed-form", "bundle-additivity", _classes(FAMILY, -2, 2),
               lambda x, t: sheaf_cohom(x, both, t),
               lambda x, t: add_tables(sheaf_cohom(x, e1, t), sheaf_cohom(x, e2, t))),
        _agree("closed-form", "regular-implies-globally-generated",
               [(x, s) for x, e in samples for _, s in e.pieces], is_globally_generated, _always(True)),
        _agree("closed-form", "regular-multiplication-surjective",
               [(x, e, by) for x, e in samples for by in (DivClass(0, 1), DivClass(1, 0))], corank, _always(0)),
    ]


def regular_split_samples(x: Scroll) -> list[SheafSpec]:
    """Small catalog of split bundles that are regular on x."""
    candidates = [
        [(0, 0)], [(0, 1)], [(1, -1)], [(1, 0)], [(0, 0), (0, 1)],
        [(1, -1), (0, 2)], [(2, -1)], [(0, 0), (1, -1), (0, 1)],
    ]
    out = []
    for summands in candidates:
        spec = SheafSpec.from_split(summands)
        if is_pq_regular(x, spec, 0, 0).verdict:
            out.append(spec)
    return out


# -- oracle ----------------------------------------------------------------

def suite_oracle() -> list[CheckResult]:
    return [_agree("oracle", "closed-form-agreement", _classes(FAMILY, -6, 6), line_cohom, character_cohom)]


# -- complexes and hypercohomology ----------------------------------------

@lru_cache(maxsize=4096)
def _omega_tables(x: Scroll, i: int, t: DivClass) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """H^*(Omega^i(T)) from the left and from the right resolution, the
    second route to omega_cohom's closed form; cached, since the koszul and
    bott suites read the same boxes more than once."""
    return tuple(hypercohom(x, build(x, i).twist(t))
                 for build in (cotangent_resolution_left, cotangent_resolution_right))


def suite_koszul() -> list[CheckResult]:
    fam = [x for x in FAMILY if x.n >= 1]

    def chi(x: Scroll, i: int, t: DivClass) -> int:
        return sum(h if k % 2 == 0 else -h for k, h in enumerate(omega_cohom(x, i, t)))

    def resolution_chi(x: Scroll, i: int, t: DivClass) -> int:
        c = cotangent_resolution_right(x, i).twist(t)
        return sum((1 if pos % 2 == 0 else -1) * sum(euler_char(x, sm.cls) for sm in term)
                   for pos, term in zip(c.positions, c.terms))

    left = {x: {t: cotangent_resolution_left(x, 1).twist(t) for t in (DivClass(p, q) for p, q in _box(-2, 2))}
            for x in fam[:2]}

    def steps(x: Scroll) -> list:
        """The lattice steps that keep a character's class: x_{i+1}/x_i and
        x_0^(a_{j+1}-a_j) y_{j+1}/y_j, each way."""
        out = []
        for lo, shift in [(i, 0) for i in range(x.m)] + [(x.m + 1 + j, x.a[j + 1] - x.a[j]) for j in range(x.n)]:
            g = [0] * (x.m + x.n + 2)
            g[0] += shift
            g[lo] -= 1
            g[lo + 1] += 1
            out += [tuple(g), tuple(-v for v in g)]
        return out

    def probes() -> list:
        """(x, t, key) for the left resolution of Omega^1 twisted by each t
        in [-2, 2]^2, on the first two scrolls, and each class at or one
        lattice step off a key contributing at some twist on x that does not
        contribute at t.  A key the listing drops is caught as a nonzero
        probe; pooling the twists reaches a dropped row of characters, which
        lies at least two steps from every other row."""
        out = []
        for x, twisted in left.items():
            keyed = {t: _contributing_keys(c) for t, c in twisted.items()}
            pool = set().union(*keyed.values())
            near = pool | {tuple(k + d for k, d in zip(key, g)) for key in pool for g in steps(x)}
            out += [(x, t, key) for t, keys in keyed.items() for key in sorted(near - keys)]
        return out

    omegas = _omega_cases((x, _box(-2, 2)) for x in fam)
    return [
        _agree("koszul", "builders-validate",
               [(x, build) for x in fam
                for build in (euler_complex, exterior_complex, koszul_pullback, koszul_pullback_spliced)],
               lambda x, build: validate_complex(build(x)), _always([])),
        _agree("koszul", "exact-complexes-acyclic",
               [(x, build) for x in fam for build in (exterior_complex, koszul_pullback, koszul_pullback_spliced)],
               lambda x, build: hypercohom(x, build(x)), lambda x, build: zero_table(x)),
        _agree("koszul", "single-term-matches-line", _classes(FAMILY, -4, 4),
               lambda x, d: hypercohom(x, single_term_complex(x, d)), line_cohom),
        _agree("koszul", "euler-presents-relative-cotangent", [(x,) for x in fam if x.n == 1],
               lambda x: hypercohom(x, euler_complex(x)), lambda x: line_cohom(x, DivClass(-1, x.c))),
        _agree("koszul", "resolution-route-agreement", omegas,
               _omega_tables, lambda x, i, t: (omega_cohom(x, i, t),) * 2),
        _agree("koszul", "rank-one-cotangent-is-line-bundle",
               _classes([x for x in fam if x.n == 1], -3, 3), lambda x, t: _omega_tables(x, 1, t),
               lambda x, t: (line_cohom(x, t + DivClass(-2, x.c)),) * 2),
        # the top exterior power is the relative canonical line bundle
        _agree("koszul", "top-cotangent-is-relative-canonical", _classes(fam, -2, 2),
               lambda x, t: _omega_tables(x, x.n, t),
               lambda x, t: (line_cohom(x, t + DivClass(-(x.n + 1), x.c)),) * 2),
        _agree("koszul", "cotangent-duality", omegas, omega_cohom,
               lambda x, i, t: omega_cohom(x, x.n - i, DivClass(-t.p, -t.q - x.m - 1))[::-1]),
        _agree("koszul", "hyper-euler-characteristic",
               [(x, i, DivClass(p, 1 - p)) for x in fam for i in range(x.n + 1) for p in range(-2, 3)],
               chi, resolution_chi),
        _agree("koszul", "excluded-classes-acyclic", probes(),
               lambda x, t, key: per_key_dims(left[x][t], key), _always({})),
    ]


def bott_h(n: int, p: int, k: int, q: int) -> int:
    """Classical dimensions h^q(P^n, Omega^p(k))."""
    if q == 0 and k > p:
        return choose(k + n - p, k) * choose(k - 1, p)
    if k == 0 and q == p and 0 <= p <= n:
        return 1
    if q == n and k < p - n:
        return choose(-k + p, -k) * choose(-k - 1, n - p)
    return 0


def kuenneth_table(x: Scroll, i: int, t: DivClass) -> tuple[int, ...]:
    """H^*(Omega^i(T)) on a product scroll, all twists 1, where X = P^n x P^m:
    O(pH+qF) has bidegree (p, p+q) and Omega^i(pH+qF) is
    Omega^i_{P^n}(p) boxtimes O_{P^m}(p+q), so Kuenneth sums products of
    :func:`bott_h` tables of the two factors."""
    return tuple(sum(bott_h(x.n, i, t.p, u) * bott_h(x.m, 0, t.p + t.q, k - u) for u in range(k + 1))
                 for k in range(x.dim + 1))


def _projective_space(n: int) -> Scroll:
    return make_scroll(0, n, [0] * (n + 1))


PRODUCT_SCROLLS = (make_scroll(1, 1, [1, 1]), make_scroll(2, 2, [1, 1, 1]), make_scroll(1, 3, [1, 1, 1, 1]))


def suite_bott() -> list[CheckResult]:
    """Cotangent power tables against the classical closed form: directly on
    projective space (m = 0 scrolls), and through the Kuenneth decomposition
    on product scrolls, where the relative cotangent bundle is the pullback
    of the cotangent bundle of the fiber factor.  Both resolutions and
    omega_cohom's closed form are checked, and the closed form and the
    nonvanishing intervals of :func:`omega_h_intervals` are compared with
    both resolutions on the koszul and bott boxes."""
    def tables(x, i, t):
        return _omega_tables(x, i, t) + (omega_cohom(x, i, t),)

    spaces = [(x, [(d, 0) for d in range(-2 * x.n - 2, 2 * x.n + 3)])
              for x in map(_projective_space, (1, 2, 3))]
    products = [(x, _box(-3, 3)) for x in PRODUCT_SCROLLS]
    # the koszul suite's boxes, and the two above
    omegas = _omega_cases([(x, _box(-2, 2)) for x in FAMILY if x.n >= 1] + spaces + products)
    return [
        _agree("bott", "projective-space-cotangent-tables", _omega_cases(spaces), tables,
               lambda x, i, t: (tuple(bott_h(x.n, i, t.p, k) for k in range(x.n + 1)),) * 3),
        _agree("bott", "product-scroll-kuenneth-cotangent-tables", _omega_cases(products), tables,
               lambda x, i, t: (kuenneth_table(x, i, t),) * 3),
        _agree("bott", "closed-form-matches-both-resolutions", omegas,
               _omega_tables, lambda x, i, t: (omega_cohom(x, i, t),) * 2),
        _agree("bott", "omega-intervals-match-resolutions",
               [(x, i, t, k) for x, i, t in omegas for k in range(x.dim + 1)],
               lambda x, i, t, k: tuple(bool(h[k]) for h in _omega_tables(x, i, t)),
               lambda x, i, t, k: (any(lo <= t.p <= hi for lo, hi in omega_h_intervals(x, i, k, t.q)),) * 2),
    ]


# -- regularity ------------------------------------------------------------

def classical_pn_regular(n: int, twists, p: int) -> bool:
    """Whether O(d_1)+...+O(d_r) on P^n is p-regular, for twists d_j."""
    return all(bott_h(n, 0, d + p - i, i) == 0 for d in twists for i in range(1, n + 1))


def pointwise_reg(x: Scroll, spec: SheafSpec, lo: int, hi: int) -> tuple[int | None, bool]:
    """Reg over [lo, hi] from :func:`is_pq_regular` at every p of it, and whether
    the regular p form an up-set of the range: the reference for ``reg_detail``
    with a scan range.  Reg is one more than the last irregular p, None when that is hi."""
    verdicts = {p: is_pq_regular(x, spec, p, 0).verdict for p in range(lo, hi + 1)}
    last_bad = max((p for p, ok in verdicts.items() if not ok), default=lo - 1)
    return (last_bad + 1 if last_bad < hi else None), all(verdicts[p + 1] for p in range(lo, hi) if verdicts[p])


def suite_regularity() -> list[CheckResult]:
    def on_pn(n, twists, p):
        return is_pq_regular(_projective_space(n), SheafSpec.from_split([(d, 0) for d in twists]), p, 0).verdict

    def pq_regular(*case) -> bool:
        return is_pq_regular(*case).verdict

    def scans() -> list:
        """(x, E, (start, hi), v) for Reg over [start, hi], where the window
        [lo, hi] is Reg +- (dim + 3) about Reg = v unscanned (about 0 when v is
        None) and start is lo or a regular p after an irregular one with an
        irregular one to come; v is kept at start = lo only."""
        out = []
        # FAMILY is semipositive, where the irregular p form a down-set; on
        # P(O(-1)+O(1)) over P^1 they are (-inf, -1] and [1, inf) for O, so a
        # range may also start in a gap
        for x in FAMILY + (make_scroll(1, 1, [-1, 1]),):
            for summands in ([(0, 0)], [(0, 1)], [(1, -1)], [(-2, 0)], [(0, -1)], [(1, 1), (0, 0)]):
                e = SheafSpec.from_split(summands)
                v = reg_detail(x, e).value
                lo, hi = (v or 0) - x.dim - 3, (v or 0) + x.dim + 3
                ok = [is_pq_regular(x, e, p, 0).verdict for p in range(lo, hi + 1)]
                gaps = [lo + k for k in range(1, len(ok)) if ok[k] and not ok[k - 1] and not all(ok[k:])]
                out += [(x, e, (start, hi), v if start == lo else None) for start in [lo] + gaps]
        return out

    def scanned(x: Scroll, e: SheafSpec, scan: tuple[int, int], unscanned: int | None) -> tuple:
        res = reg_detail(x, e, scan)
        return res.value, res.monotone_verified, unscanned

    def pointwise(x: Scroll, e: SheafSpec, scan: tuple[int, int], unscanned: int | None) -> tuple:
        # the unscanned Reg, where it is kept and not None, is the Reg over the window
        value, monotone = pointwise_reg(x, e, *scan)
        return value, monotone, None if unscanned is None else value

    # c = n+1 on a positive scroll forces a = (1,...,1), the product case
    products = [x for x in FAMILY if x.is_positive and x.c == x.n + 1 and x.n > 0 and x.m > 0]
    samples = _regular_samples()
    o_and_of = (SheafSpec.from_split([(0, 0)]), SheafSpec.from_split([(0, 1)]))
    return [
        _agree("regularity", "projective-space-reduction",
               [(n, twists, p) for n in (1, 2, 3) for twists in ([0], [0, -2], [1, 3], [-1])
                for p in range(-3, 4)], on_pn, classical_pn_regular),
        _agree("regularity", "product-space-kuenneth", _classes(products, -4, 4),
               line_cohom, lambda x, t: kuenneth_table(x, 0, t)),
        _agree("regularity", "regular-positive-twist-top-vanishing",
               [(x, e, x.dim, DivClass(a - x.n, x.c - 1 - x.m + b)) for x, e in samples for a, b in _box(0, 3)],
               sheaf_h, _always(0)),
        _agree("regularity", "regular-implies-0q-regular",
               [(x, e, 0, q) for x, e in samples for q in range(0, 4)], pq_regular, _always(True)),
        _agree("regularity", "regular-implies-pq-regular",
               [(x, e, p, q) for x, e in samples for p, q in _box(0, 3)], pq_regular, _always(True)),
        _agree("regularity", "scan-monotonicity", scans(), scanned, pointwise),
        _agree("regularity", "ms-implies-pq", [(x, e) for x in FAMILY for e in o_and_of],
               lambda x, e: compare_regularities(x, e, (-2, 2), (-2, 2)).violations, _always(())),
        # h^i(E(p + mu1 - lam1, q + mu2 - lam2)) = 0 for ms-regular (p, q), 0 <= mu <= 2 and lam1 + lam2 = i
        _agree("regularity", "ms-twist-vanishing-lemma",
               [(x, e, i, DivClass(p + mu1 - lam1, q + mu2 - (i - lam1)))
                for x in FAMILY if x.is_semipositive for e in o_and_of
                for p, q in _box(0, 2) if is_ms_regular(x, e, p, q).verdict
                for mu1, mu2 in _box(0, 2) for i in range(1, x.dim + 1) for lam1 in range(i + 1)],
               sheaf_h, _always(0)),
        _agree("regularity", "rational-normal-scroll-form-agrees",
               [(x, SheafSpec.from_split(summands), p, q) for x in FAMILY if x.m == 1
                for summands in ([(0, 0)], [(0, 1)], [(1, -1)], [(0, -1)], [(-2, 1)])
                for p, q in _box(-2, 2)],
               lambda *case: rns_is_pq_regular(*case).verdict, pq_regular),
    ]


# -- splitting -------------------------------------------------------------

def _small_split_catalog(box: int, max_rank: int):
    import itertools

    classes = [(p, q) for p in range(-box, box + 1) for q in range(-box, box + 1)]
    for rank in range(1, max_rank + 1):
        for combo in itertools.combinations_with_replacement(classes, rank):
            yield combo


def suite_splitting() -> list[CheckResult]:
    scrolls = (make_scroll(1, 1, [1, 2]), make_scroll(1, 2, [1, 1, 2]))
    catalog = [(x, e) for x in scrolls for e in map(SheafSpec.from_split, _small_split_catalog(1, 2))]

    def margins() -> list:
        """(x, E, cond, t) for every condition of 2.1 and of 2.2 at the two
        twists either side of that criterion's window."""
        out = []
        for x in scrolls:
            for e in map(SheafSpec.from_split, ([(0, 0)], [(0, 1)], [(1, -1), (2, 0)], [(0, 2)])):
                for conds, theorem in ((pure_h_conditions(x), "2.1"), (ohf_conditions(x), "2.2")):
                    lo, hi = check_theorem(x, e, theorem).window
                    out += [(x, e, cond, t) for t in (lo - 1, lo - 2, hi + 1, hi + 2) for cond in conds]
        return out

    def composed() -> list:
        """(x, E, criterion) for the catalog's sheaves of two pieces and for
        Omega^i(T) + O(T'), 0 < i <= n, each with its dual, under every scan
        criterion (every one applies, since m = 1)."""
        out = []
        for x in scrolls:
            sheaves = [e for y, e in catalog if y is x and len(e.pieces) > 1]
            sheaves += [SheafSpec(((i, DivClass(*s)), (0, DivClass(*t)))) for i in range(1, x.n + 1)
                        for s in ((0, 0), (2, -1), (-1, 1)) for t in ((0, 0), (1, 1), (-2, 0))]
            out += [(x, f, theorem) for e in sheaves for f in (e, e.dual(x))
                    for theorem in ("2.1", "2.2", "c2.5", "c2.6")]
        return out

    def classified(x: Scroll, e: SheafSpec, fired: list) -> tuple:
        rep = check_theorem(x, e, "2.3")
        return rep.verdict, rep.reg.value, [(c.case, c.i, c.conclusion) for c in rep.fired]

    x12, y = make_scroll(1, 1, [1, 2]), make_scroll(1, 3, [1, 1, 1, 1])
    return [
        _agree("splitting", "catalog-ground-truth",
               [(x, e, theorem, cls) for x, e in catalog for theorem, cls in (("2.1", "pure_h"), ("2.2", "ohf"))],
               lambda x, e, theorem, cls: check_theorem(x, e, theorem).verdict,
               lambda x, e, theorem, cls: ground_truth_classify(e.split)[cls]),
        _agree("splitting", "window-margins-vanish", margins(), eval_cond, _always(0)),
        _agree("splitting", "rational-normal-scroll-equivalence",
               [(x, e, general, form) for x, e in catalog for general, form in (("2.1", "c2.5"), ("2.2", "c2.6"))],
               lambda x, e, general, form: check_theorem(x, e, form).verdict,
               lambda x, e, general, form: check_theorem(x, e, general).verdict),
        # each sheaf is regular, passes the hypotheses and fires exactly its own case
        _agree("splitting", "indecomposable-case-classification",
               [(x12, SheafSpec.from_split([(0, 0)]), [("i", None, "O")]),
                (x12, SheafSpec.from_split([(0, 1)]), [("ii", None, "O(F)")]),
                (x12, SheafSpec.from_split([(1, -1)]), [("iii", None, "O(H-F)")]),
                (y, SheafSpec.from_omega(2, DivClass(3, -3)), [("iv", 2, "Omega^2<3,-3>")])],
               classified, lambda x, e, fired: (True, 0, fired)),
        # the report summed from shifted per-piece tables against a direct scan
        _agree("splitting", "summand-composition", composed(),
               lambda x, e, theorem: check_theorem(x, e, theorem).to_json(),
               lambda x, e, theorem: _scan_window(x, e, _FAMILIES[theorem](x), theorem).to_json()),
    ]


SUITES = {
    "scroll-core": suite_scroll,
    "closed-form": suite_closed_form,
    "oracle": suite_oracle,
    "koszul": suite_koszul,
    "bott": suite_bott,
    "regularity": suite_regularity,
    "splitting": suite_splitting,
}


def run_suites(names=None) -> list[CheckResult]:
    """Run the named suites (all by default).  A suite that raises outside
    its checks, say while it builds a case list, is recorded as one failed
    'suite-raised' check and the rest still run."""
    results = []
    for name in names or SUITES:
        try:
            results.extend(SUITES[name]())
        except Exception as exc:  # one broken check must not hide the others
            results.append(CheckResult(name, "suite-raised", False, f"{type(exc).__name__}: {exc}"))
    return results
