"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import itertools
import time

from scrollcohom import (DivClass, SheafSpec, character_cohom, check_indecomposable, check_ohf,
                         check_pure_h, check_rns, compare_regularities,
                         is_ms_regular, is_pq_regular, line_cohom, make_scroll, mult_map_rank,
                         omega_cohom, reg, rns_is_pq_regular, sheaf_h)
from scrollcohom.cohomology import is_globally_generated, zero_table
from scrollcohom.complexes import cotangent_resolution_left, cotangent_resolution_right, hypercohom, koszul_pullback
from scrollcohom.cohomology import euler_char
from scrollcohom.verify import FAMILY, POSITIVE_FAMILY, regular_split_samples

SPLIT_SCROLLS = (make_scroll(1, 1, [1, 2]), make_scroll(1, 2, [1, 1, 2]))

O = SheafSpec.from_split([(0, 0)])


def _report(num, label, bad, t0, limit=None):
    elapsed = time.time() - t0
    status = "PASS" if not bad else "FAIL"
    print(f"ACCEPTANCE {num:02d} {status} [{elapsed:.1f}s] {label}"
          + (f"  first failure: {bad[0]}" if bad else ""))
    assert not bad, f"criterion {num}: {len(bad)} failures, first: {bad[0]}"
    if limit is not None:
        assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.1f}s)"


def test_criterion_01_oracle_equivalence():
    t0 = time.time()
    bad = []
    for x in FAMILY:
        for p in range(-8, 9):
            for q in range(-8, 9):
                d = DivClass(p, q)
                if line_cohom(x, d) != character_cohom(x, d):
                    bad.append((x, d))
    _report(1, "closed form equals character oracle on [-8,8]^2", bad, t0, limit=60)


def test_criterion_02_serre_duality():
    t0 = time.time()
    bad = []
    for x in FAMILY:
        for p in range(-8, 9):
            for q in range(-8, 9):
                d = x.divclass(p, q)
                t1 = line_cohom(x, d)
                t2 = line_cohom(x, x.serre_dual_twist(d))
                if any(t1[i] != t2[x.dim - i] for i in range(x.dim + 1)):
                    bad.append((x, d))
    _report(2, "Serre duality h^i(D) = h^{n+m-i}(K-D) on [-8,8]^2", bad, t0)


def test_criterion_03_displayed_values():
    t0 = time.time()
    bad = []
    for x in POSITIVE_FAMILY:
        n, m, c = x.n, x.m, x.c
        checks = [
            (x.dim, DivClass(-1 - n, c - 1 - m)),  # O(-H)<-n, c-1-m>
            (n, DivClass(-1 - n, c)),              # O(-H+F)<-n, c-1>
            (m, DivClass(0, -1 - m)),              # O(-F)(-mF)
        ]
        for k, d in checks:
            if line_cohom(x, d)[k] != 1:
                bad.append((x, k, d, line_cohom(x, d)))
    _report(3, "displayed one-dimensional groups reproduce exactly", bad, t0)


def test_criterion_04_reg_zero_for_generators():
    t0 = time.time()
    bad = []
    for x in POSITIVE_FAMILY:
        for summands in ([(0, 0)], [(0, 1)], [(1, -1)]):
            e = SheafSpec.from_split(summands)
            if reg(x, e) != 0:
                bad.append((x, summands, reg(x, e)))
            if not is_pq_regular(x, e, 0, 0).verdict:
                bad.append((x, summands, "not regular at (0,0)"))
            rep = is_pq_regular(x, e, -1, 0)
            if rep.verdict or not rep.failures:
                bad.append((x, summands, "(-1,0) should fail with witnesses"))
    _report(4, "Reg(O) = Reg(O(F)) = Reg(O(H-F)) = 0 with (-1,0) witnesses", bad, t0)


def test_criterion_05_hirzebruch_separation():
    t0 = time.time()
    f2 = make_scroll(1, 1, [0, 2])
    bad = []
    if not is_pq_regular(f2, O, 0, 0).verdict:
        bad.append("pq-regular expected")
    rep = is_ms_regular(f2, O, 0, 0)
    if rep.verdict:
        bad.append("multigraded-regular not expected")
    if not any(f.degree == 2 and f.twist == DivClass(-2, 0) and f.value == 1 for f in rep.failures):
        bad.append(f"missing witness h^2(O(-2H)) = 1: {[f.to_json() for f in rep.failures]}")
    _report(5, "regular but not multigraded-regular on the Hirzebruch surface", bad, t0)


def test_criterion_06_ms_implies_pq_sweep():
    t0 = time.time()
    bad = []
    for x in FAMILY:
        if not x.is_semipositive:
            continue
        bundles = [O, SheafSpec.from_split([(0, 1)]), SheafSpec.from_split([(1, -1)]),
                   SheafSpec.from_split([x.canonical_class().to_json()])]
        for e in bundles:
            rep = compare_regularities(x, e, (-3, 3), (-3, 3))
            if not rep.ok:
                bad.append((x, e.describe(), rep.violations))
    _report(6, "no multigraded-regular point fails (p,q)-regularity on [-3,3]^2", bad, t0, limit=120)


def test_criterion_07_hypercohomology_engine():
    t0 = time.time()
    bad = []
    scrolls = [x for x in FAMILY if x.n >= 1] + [make_scroll(1, 3, [1, 1, 1, 1])]
    for x in scrolls:
        if hypercohom(x, koszul_pullback(x)) != zero_table(x):
            bad.append((x, "koszul pullback not acyclic"))
    for x in scrolls:
        if not (x.n <= 3 and x.m <= 2):
            continue
        for i in range(1, x.n + 1):
            for p in range(-3, 4):
                for q in range(-3, 4):
                    t = DivClass(p, q)
                    tab = hypercohom(x, cotangent_resolution_left(x, i).twist(t))
                    if hypercohom(x, cotangent_resolution_right(x, i).twist(t)) != tab:
                        bad.append((x, i, t, "two routes"))
                        continue
                    if x.n == 1:
                        if tab != line_cohom(x, t + DivClass(-2, x.c)):
                            bad.append((x, i, t, "rank-one closed form"))
                    dual = omega_cohom(x, x.n - i, DivClass(-t.p, -t.q - x.m - 1))
                    if any(tab[k] != dual[x.dim - k] for k in range(x.dim + 1)):
                        bad.append((x, i, t, "duality"))
                    chi = sum(h if k % 2 == 0 else -h for k, h in enumerate(tab))
                    c = cotangent_resolution_right(x, i).twist(t)
                    chi_terms = 0
                    for pos, term in zip(c.positions, c.terms):
                        s = sum(euler_char(x, sm.cls) for sm in term)
                        chi_terms += s if pos % 2 == 0 else -s
                    if chi != chi_terms:
                        bad.append((x, i, t, "euler characteristic"))
    _report(7, "hypercohomology engine: acyclic, two routes, duality, euler", bad, t0, limit=300)


def _split_catalog(box=2, max_rank=3):
    classes = [(p, q) for p in range(-box, box + 1) for q in range(-box, box + 1)]
    for rank in range(1, max_rank + 1):
        yield from itertools.combinations_with_replacement(classes, rank)


def test_criterion_08_pure_h_biconditional():
    t0 = time.time()
    bad = []
    for x in SPLIT_SCROLLS:
        for combo in _split_catalog():
            e = SheafSpec.from_split(combo)
            rep = check_pure_h(x, e)
            want = all(q == 0 for _, q in combo)
            if rep.verdict != want:
                bad.append((x, combo, rep.verdict))
            elif not rep.verdict:
                w = rep.witnesses[0]
                k = x.n + w.indices[0] if w.condition == "a" else sum(w.indices)
                if sheaf_h(x, e, k, w.twist) != w.value or w.value == 0:
                    bad.append((x, combo, "witness does not re-evaluate"))
    _report(8, "pure-H splitting biconditional over the split catalog", bad, t0, limit=120)


def test_criterion_09_ohf_ground_truth():
    t0 = time.time()
    bad = []
    for x in SPLIT_SCROLLS:
        for combo in _split_catalog():
            e = SheafSpec.from_split(combo)
            want = all(q in (-1, 0, 1) for _, q in combo)
            if check_ohf(x, e).verdict != want:
                bad.append((x, combo))
    _report(9, "O/O(F)/O(H-F) splitting matches ground truth over the catalog", bad, t0)


def test_criterion_10_indecomposable_cases():
    t0 = time.time()
    bad = []
    x = make_scroll(1, 1, [1, 2])
    for summands, case, conclusion in ([(0, 0)], "i", "O"), ([(0, 1)], "ii", "O(F)"), ([(1, -1)], "iii", "O(H-F)"):
        rep = check_indecomposable(x, SheafSpec.from_split(summands))
        if not rep.verdict or [(c.case, c.conclusion) for c in rep.fired] != [(case, conclusion)]:
            bad.append((summands, rep.to_json()))
    y = make_scroll(1, 3, [1, 1, 1, 1])
    rep = check_indecomposable(y, SheafSpec.from_omega(2, DivClass(3, -3)))
    if rep.reg.value is None:
        bad.append("Reg was not measured")
    if rep.witnesses or rep.precondition_failures:
        # hypothesis failures must be reported, not crash; but for this bundle
        # they are all expected to hold
        bad.append(("unexpected hypothesis failures", [w.to_json() for w in rep.witnesses],
                    rep.precondition_failures))
    if [(c.case, c.i) for c in rep.fired] != [("iv", 2)]:
        bad.append(("case (iv) with i = 2 expected", rep.to_json()))
    _report(10, "indecomposable case engine fires (i)-(iv) correctly", bad, t0)


def test_criterion_11_rns_equivalence():
    t0 = time.time()
    bad = []
    for x in SPLIT_SCROLLS:
        for combo in _split_catalog():
            e = SheafSpec.from_split(combo)
            if check_rns(x, e, "c2.5").verdict != check_pure_h(x, e).verdict:
                bad.append((x, combo, "c2.5"))
            if check_rns(x, e, "c2.6").verdict != check_ohf(x, e).verdict:
                bad.append((x, combo, "c2.6"))
        for combo in _split_catalog(box=1, max_rank=2):
            e = SheafSpec.from_split(combo)
            g, r = check_indecomposable(x, e), check_rns(x, e, "c2.7")
            if (g.verdict, [(c.case, c.i) for c in g.fired]) != (r.verdict, [(c.case, c.i) for c in r.fired]):
                bad.append((x, combo, "c2.7"))
            for p in (-1, 0, 1):
                for q in (-1, 0, 1):
                    if rns_is_pq_regular(x, e, p, q).verdict != is_pq_regular(x, e, p, q).verdict:
                        bad.append((x, combo, "rns-pq", (p, q)))
    _report(11, "m = 1 special forms agree with the general checkers", bad, t0)


def test_criterion_12_positivity_lemmas():
    t0 = time.time()
    bad = []
    for x in POSITIVE_FAMILY:
        for e in regular_split_samples(x):
            for a in range(5):
                for b in range(5):
                    if sheaf_h(x, e, x.dim, DivClass(a - x.n, x.c - 1 - x.m + b)):
                        bad.append((x, e.describe(), "top-vanishing", a, b))
            for q in range(5):
                if not is_pq_regular(x, e, 0, q).verdict:
                    bad.append((x, e.describe(), "(0,q)", q))
            for p in range(5):
                for q in range(5):
                    if not is_pq_regular(x, e, p, q).verdict:
                        bad.append((x, e.describe(), "(p,q)", p, q))
            for s in e.split.summands:
                if not is_globally_generated(x, s):
                    bad.append((x, e.describe(), "global generation", s))
            for by in (DivClass(0, 1), DivClass(1, 0)):
                rank, target = mult_map_rank(x, e.split, by)
                if rank != target:
                    bad.append((x, e.describe(), "multiplication", by, rank, target))
    _report(12, "positivity consequences of regularity hold with bound 4", bad, t0)
