"""Executable property suites.

Each suite re-checks the invariants the library is built on, over moderate
boxes of a fixed scroll family, and reports one pass/fail line per named
property.  The CLI `verify` subcommand drives these; the test suite runs
the same checks (and the acceptance tests run larger boxes).

The reference formulas the tests share live here under public names
(:func:`bott_h`, :func:`classical_pn_regular`, :func:`hook_twists`,
:func:`kuenneth_table`, :func:`pointwise_reg`, :func:`regular_split_samples`).
A check that compares two routes is one :func:`_agree` over its case list.
No production module imports this one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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
from .splitting import check_theorem, ground_truth_classify, ohf_conditions, pure_h_conditions
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


@dataclass(frozen=True)
class CheckResult:
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


def _result(suite, label, failures, detail=""):
    if failures:
        detail = f"{len(failures)} failures; first: {failures[0]}"
    return CheckResult(suite, label, not failures, detail)


def _agree(suite: str, label: str, cases, route, reference) -> CheckResult:
    """The check that route(*case) == reference(*case) on every case, with
    one failure (case, got, want) per disagreement.  An empty case list
    fails, so a filter slip cannot make the check pass vacuously."""
    cases, bad = list(cases), []
    for case in cases:
        got, want = route(*case), reference(*case)
        if got != want:
            bad.append((case, got, want))
    return _result(suite, label, bad) if cases else CheckResult(suite, label, False, "no cases")


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
    out = []
    bad = []
    for x in FAMILY:
        support = {0, x.m, x.n, x.dim}
        for p, q in _box(-6, 6):
            t = line_cohom(x, DivClass(p, q))
            if any(h and i not in support for i, h in enumerate(t)):
                bad.append((x, (p, q), t))
    out.append(_result("closed-form", "table-support", bad))

    out.append(_agree("closed-form", "serre-duality",
                      [(x, x.divclass(p, q)) for x in FAMILY for p, q in _box(-6, 6)],
                      line_cohom, lambda x, d: line_cohom(x, x.serre_dual_twist(d))[::-1]))

    bad = []
    for x in FAMILY:  # all semipositive; middle vanishing needs that
        for p, q in _box(-6, 6):
            t = line_cohom(x, DivClass(p, q))
            middle = any(t[i] for i in range(1, x.dim) if i not in (0, x.dim))
            if p >= 0 and q >= -x.m and middle:
                bad.append((x, (p, q), t))
            if p < -x.n and q < x.c and middle:
                bad.append((x, (p, q), t))
    out.append(_result("closed-form", "middle-vanishing-semipositive", bad))

    def gen_binom(top: int, k: int) -> int:
        val = 1
        for i in range(k):
            val *= top - i
        for i in range(1, k + 1):
            val //= i
        return val

    out.append(_agree("closed-form", "euler-characteristic-polynomial",
                      [(x, DivClass(p, q)) for x in FAMILY for p in range(0, 5) for q in range(-6, 7)],
                      euler_char, lambda x, d: sum(mult * gen_binom(t + d.q + x.m, x.m)
                                                   for t, mult in sym_twists(x, d.p))))

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

    bad = []
    for x in FAMILY:
        for q in range(-30, 31):
            for p in range(0, 13):
                if line_cohom(x, DivClass(p, q)) != expanded(x, sym_twists(x, p), q):
                    bad.append((x, "line", (p, q)))
                for i in range(1, min(p, x.n + 1)):
                    if omega_cohom(x, i, DivClass(p, q)) != expanded(x, hook_twists(x, i, p).items(), q):
                        bad.append((x, f"omega^{i}", (p, q)))
    out.append(_result("closed-form", "packed-sum-matches-histogram", bad))

    e1 = SheafSpec.from_split([(0, 0), (1, -1)])
    e2 = SheafSpec.from_split([(-2, 1)])
    both = SheafSpec(e1.pieces + e2.pieces)
    out.append(_agree("closed-form", "bundle-additivity", _classes(FAMILY, -2, 2),
                      lambda x, t: sheaf_cohom(x, both, t),
                      lambda x, t: add_tables(sheaf_cohom(x, e1, t), sheaf_cohom(x, e2, t))))

    bad = []
    for x in POSITIVE_FAMILY:
        for e in regular_split_samples(x):
            for _, s in e.pieces:
                if not is_globally_generated(x, s):
                    bad.append((x, e.describe(), s))
    out.append(_result("closed-form", "regular-implies-globally-generated", bad))

    bad = []
    for x in POSITIVE_FAMILY:
        for e in regular_split_samples(x):
            for by in (DivClass(0, 1), DivClass(1, 0)):
                rank, target = mult_map_rank(x, e.split, by)
                if rank != target:
                    bad.append((x, e.describe(), by, rank, target))
    out.append(_result("closed-form", "regular-multiplication-surjective", bad))
    return out


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
    out = []
    fam = [x for x in FAMILY if x.n >= 1]
    bad = []
    for x in fam:
        for build in (euler_complex, exterior_complex, koszul_pullback, koszul_pullback_spliced):
            c = build(x)
            probs = validate_complex(c)
            if probs:
                bad.append((x, build.__name__, probs[0]))
    out.append(_result("koszul", "builders-validate", bad))

    bad = []
    for x in fam:
        for build in (exterior_complex, koszul_pullback, koszul_pullback_spliced):
            if hypercohom(x, build(x)) != zero_table(x):
                bad.append((x, build.__name__))
    out.append(_result("koszul", "exact-complexes-acyclic", bad))

    out.append(_agree("koszul", "single-term-matches-line", _classes(FAMILY, -4, 4),
                      lambda x, d: hypercohom(x, single_term_complex(x, d)), line_cohom))

    bad = []
    for x in fam:
        if x.n != 1:
            continue
        got = hypercohom(x, euler_complex(x))
        want = line_cohom(x, DivClass(-1, x.c))
        if got != want:
            bad.append((x, got, want))
    out.append(_result("koszul", "euler-presents-relative-cotangent", bad))

    omegas = _omega_cases((x, _box(-2, 2)) for x in fam)
    out.append(_agree("koszul", "resolution-route-agreement", omegas,
                      _omega_tables, lambda x, i, t: (omega_cohom(x, i, t),) * 2))
    out.append(_agree("koszul", "rank-one-cotangent-is-line-bundle",
                      _classes([x for x in fam if x.n == 1], -3, 3), lambda x, t: _omega_tables(x, 1, t),
                      lambda x, t: (line_cohom(x, t + DivClass(-2, x.c)),) * 2))
    # the top exterior power is the relative canonical line bundle
    out.append(_agree("koszul", "top-cotangent-is-relative-canonical", _classes(fam, -2, 2),
                      lambda x, t: _omega_tables(x, x.n, t),
                      lambda x, t: (line_cohom(x, t + DivClass(-(x.n + 1), x.c)),) * 2))
    out.append(_agree("koszul", "cotangent-duality", omegas, omega_cohom,
                      lambda x, i, t: omega_cohom(x, x.n - i, DivClass(-t.p, -t.q - x.m - 1))[::-1]))

    bad = []
    for x in fam:
        for i in range(x.n + 1):
            for p in range(-2, 3):
                t = DivClass(p, 1 - p)
                tab = omega_cohom(x, i, t)
                chi = sum(h if k % 2 == 0 else -h for k, h in enumerate(tab))
                c = cotangent_resolution_right(x, i).twist(t)
                chi2 = 0
                for pos, term in zip(c.positions, c.terms):
                    s = sum(euler_char(x, sm.cls) for sm in term)
                    chi2 += s if pos % 2 == 0 else -s
                if chi != chi2:
                    bad.append((x, i, t, chi, chi2))
    out.append(_result("koszul", "hyper-euler-characteristic", bad))

    bad = []
    for x in fam[:2]:
        c = cotangent_resolution_left(x, 1)
        keys = _contributing_keys(c)
        gens = []
        if x.m >= 1:
            g = [0] * (x.m + x.n + 2)
            g[0] -= 1
            g[1] += 1
            gens.append(tuple(g))
        if x.n >= 1:
            g = [0] * (x.m + x.n + 2)
            g[x.m + 1] -= 1
            g[x.m + 2] += 1
            g[0] += x.a[1] - x.a[0]
            gens.append(tuple(g))
        probes = set()
        for key in sorted(keys)[:6]:
            for g in gens:
                for sgn in (1, -1):
                    cand = tuple(k + sgn * gi for k, gi in zip(key, g))
                    if cand not in keys:
                        probes.add(cand)
        for key in sorted(probes)[:12]:
            dims = per_key_dims(c, key)
            if dims:
                bad.append((x, key, dims))
    out.append(_result("koszul", "excluded-classes-acyclic", bad))
    return out


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
    out = [
        _agree("bott", "projective-space-cotangent-tables", _omega_cases(spaces), tables,
               lambda x, i, t: (tuple(bott_h(x.n, i, t.p, k) for k in range(x.n + 1)),) * 3),
        _agree("bott", "product-scroll-kuenneth-cotangent-tables", _omega_cases(products), tables,
               lambda x, i, t: (kuenneth_table(x, i, t),) * 3),
    ]

    boxes = [(x, _box(-2, 2)) for x in FAMILY if x.n >= 1] + spaces + products  # the koszul suite's, and the above
    bad, bad_intervals = [], []
    for x, box in boxes:
        for i in range(x.n + 1):
            for p, q in box:
                t = DivClass(p, q)
                left, right = _omega_tables(x, i, t)
                closed = omega_cohom(x, i, t)
                if not closed == left == right:
                    bad.append((x, i, t, closed, left, right))
                for k in range(x.dim + 1):
                    inside = any(lo <= p <= hi for lo, hi in omega_h_intervals(x, i, k, q))
                    if not inside == bool(left[k]) == bool(right[k]):
                        bad_intervals.append((x, i, t, k, inside, left, right))
    out.append(_result("bott", "closed-form-matches-both-resolutions", bad))
    out.append(_result("bott", "omega-intervals-match-resolutions", bad_intervals))
    return out


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

    out = [_agree("regularity", "projective-space-reduction",
                  [(n, twists, p) for n in (1, 2, 3) for twists in ([0], [0, -2], [1, 3], [-1])
                   for p in range(-3, 4)], on_pn, classical_pn_regular)]
    # c = n+1 on a positive scroll forces a = (1,...,1), the product case
    products = [x for x in FAMILY if x.is_positive and x.c == x.n + 1 and x.n > 0 and x.m > 0]
    out.append(_agree("regularity", "product-space-kuenneth", _classes(products, -4, 4),
                      line_cohom, lambda x, t: kuenneth_table(x, 0, t)))

    bad = []
    for x in POSITIVE_FAMILY:
        for e in regular_split_samples(x):
            for a in range(0, 4):
                for b in range(0, 4):
                    h = sheaf_h(x, e, x.dim, DivClass(a - x.n, x.c - 1 - x.m + b))
                    if h:
                        bad.append((x, e.describe(), a, b, h))
    out.append(_result("regularity", "regular-positive-twist-top-vanishing", bad))

    bad = []
    for x in POSITIVE_FAMILY:
        for e in regular_split_samples(x):
            for q in range(0, 4):
                if not is_pq_regular(x, e, 0, q).verdict:
                    bad.append((x, e.describe(), q))
    out.append(_result("regularity", "regular-implies-0q-regular", bad))

    bad = []
    for x in POSITIVE_FAMILY:
        for e in regular_split_samples(x):
            for p in range(0, 4):
                for q in range(0, 4):
                    if not is_pq_regular(x, e, p, q).verdict:
                        bad.append((x, e.describe(), p, q))
    out.append(_result("regularity", "regular-implies-pq-regular", bad))

    bad = []
    # FAMILY is semipositive, where the irregular p form a down-set; on
    # P(O(-1)+O(1)) over P^1 they are (-inf, -1] and [1, inf) for O, so a
    # range may also start in a gap: at a regular p after an irregular one,
    # with an irregular one to come
    for x in FAMILY + (make_scroll(1, 1, [-1, 1]),):
        for summands in ([(0, 0)], [(0, 1)], [(1, -1)], [(-2, 0)], [(0, -1)], [(1, 1), (0, 0)]):
            e = SheafSpec.from_split(summands)
            v = reg_detail(x, e).value
            lo, hi = (v or 0) - x.dim - 3, (v or 0) + x.dim + 3
            ok = [is_pq_regular(x, e, p, 0).verdict for p in range(lo, hi + 1)]
            gaps = [lo + k for k in range(1, len(ok)) if ok[k] and not ok[k - 1] and not all(ok[k:])]
            for start in [lo] + gaps:
                res, want = reg_detail(x, e, (start, hi)), pointwise_reg(x, e, start, hi)
                if (res.value, res.monotone_verified) != want or (start == lo and v is not None and v != want[0]):
                    bad.append((x, e.describe(), (start, hi), res, want))
    out.append(_result("regularity", "scan-monotonicity", bad))

    bad = []
    for x in FAMILY:
        for e in (SheafSpec.from_split([(0, 0)]), SheafSpec.from_split([(0, 1)])):
            cr = compare_regularities(x, e, (-2, 2), (-2, 2))
            if not cr.ok:
                bad.append((x, e.describe(), cr.violations))
    out.append(_result("regularity", "ms-implies-pq", bad))

    bad = []
    for x in FAMILY:
        if not x.is_semipositive:
            continue
        for e in (SheafSpec.from_split([(0, 0)]), SheafSpec.from_split([(0, 1)])):
            for p, q in _box(0, 2):
                if not is_ms_regular(x, e, p, q).verdict:
                    continue
                for mu1 in range(3):
                    for mu2 in range(3):
                        for i in range(1, x.dim + 1):
                            for lam1 in range(i + 1):
                                lam2 = i - lam1
                                h = sheaf_h(x, e, i, DivClass(p + mu1 - lam1, q + mu2 - lam2))
                                if h:
                                    bad.append((x, e.describe(), (p, q), (mu1, mu2), (lam1, lam2), h))
    out.append(_result("regularity", "ms-twist-vanishing-lemma", bad))

    out.append(_agree("regularity", "rational-normal-scroll-form-agrees",
                      [(x, SheafSpec.from_split(summands), p, q) for x in FAMILY if x.m == 1
                       for summands in ([(0, 0)], [(0, 1)], [(1, -1)], [(0, -1)], [(-2, 1)])
                       for p, q in _box(-2, 2)],
                      lambda *case: rns_is_pq_regular(*case).verdict,
                      lambda *case: is_pq_regular(*case).verdict))
    return out


# -- splitting -------------------------------------------------------------

def _small_split_catalog(box: int, max_rank: int):
    import itertools

    classes = [(p, q) for p in range(-box, box + 1) for q in range(-box, box + 1)]
    for rank in range(1, max_rank + 1):
        for combo in itertools.combinations_with_replacement(classes, rank):
            yield combo


def suite_splitting() -> list[CheckResult]:
    out = []
    scrolls = (make_scroll(1, 1, [1, 2]), make_scroll(1, 2, [1, 1, 2]))
    bad = []
    for x in scrolls:
        for combo in _small_split_catalog(1, 2):
            e = SheafSpec.from_split(combo)
            truth = ground_truth_classify(e.split)
            if check_theorem(x, e, "2.1").verdict != truth["pure_h"]:
                bad.append((x, combo, "pure_h"))
            if check_theorem(x, e, "2.2").verdict != truth["ohf"]:
                bad.append((x, combo, "ohf"))
    out.append(_result("splitting", "catalog-ground-truth", bad))

    bad = []
    for x in scrolls:
        for combo in ([(0, 0)], [(0, 1)], [(1, -1), (2, 0)], [(0, 2)]):
            e = SheafSpec.from_split(combo)
            for conds, rep in ((pure_h_conditions(x), check_theorem(x, e, "2.1")),
                               (ohf_conditions(x), check_theorem(x, e, "2.2"))):
                lo, hi = rep.window
                for t in (lo - 1, lo - 2, hi + 1, hi + 2):
                    for cond in conds:
                        if eval_cond(x, e, cond, t):
                            bad.append((x, combo, cond.label, t))
    out.append(_result("splitting", "window-margins-vanish", bad))

    out.append(_agree("splitting", "rational-normal-scroll-equivalence",
                      [(x, e, general, form) for x in scrolls
                       for e in map(SheafSpec.from_split, _small_split_catalog(1, 2))
                       for general, form in (("2.1", "c2.5"), ("2.2", "c2.6"))],
                      lambda x, e, general, form: check_theorem(x, e, form).verdict,
                      lambda x, e, general, form: check_theorem(x, e, general).verdict))

    bad = []
    x = make_scroll(1, 1, [1, 2])
    for summands, case, conclusion in ([(0, 0)], "i", "O"), ([(0, 1)], "ii", "O(F)"), ([(1, -1)], "iii", "O(H-F)"):
        rep = check_theorem(x, SheafSpec.from_split(summands), "2.3")
        fired = [(c.case, c.conclusion) for c in rep.fired]
        if not rep.verdict or fired != [(case, conclusion)]:
            bad.append((summands, rep.verdict, fired))
    y = make_scroll(1, 3, [1, 1, 1, 1])
    rep = check_theorem(y, SheafSpec.from_omega(2, DivClass(3, -3)), "2.3")
    if not (rep.reg.value == 0 and rep.verdict and [(c.case, c.i) for c in rep.fired] == [("iv", 2)]):
        bad.append(("omega", rep.reg.value, rep.verdict, rep.fired))
    out.append(_result("splitting", "indecomposable-case-classification", bad))
    return out


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
    """Run the named suites (all by default).  A suite that raises is
    recorded as one failed 'suite-raised' check and the rest still run."""
    results = []
    for name in names or SUITES:
        try:
            results.extend(SUITES[name]())
        except Exception as exc:  # one broken check must not hide the others
            results.append(CheckResult(name, "suite-raised", False, f"{type(exc).__name__}: {exc}"))
    return results
