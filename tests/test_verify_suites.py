"""The property suites behind the `verify` subcommand must all pass."""

import pytest

from scrollcohom.verify import SUITES, _agree, run_suites

CHECKS = [
    ("scroll-core", "serre-dual-involution"),
    ("scroll-core", "twist-map-inverse"),
    ("scroll-core", "twist-map-cohomology-invariance"),
    ("closed-form", "table-support"),
    ("closed-form", "serre-duality"),
    ("closed-form", "middle-vanishing-semipositive"),
    ("closed-form", "euler-characteristic-polynomial"),
    ("closed-form", "packed-sum-matches-histogram"),
    ("closed-form", "bundle-additivity"),
    ("closed-form", "regular-implies-globally-generated"),
    ("closed-form", "regular-multiplication-surjective"),
    ("oracle", "closed-form-agreement"),
    ("koszul", "builders-validate"),
    ("koszul", "exact-complexes-acyclic"),
    ("koszul", "single-term-matches-line"),
    ("koszul", "euler-presents-relative-cotangent"),
    ("koszul", "resolution-route-agreement"),
    ("koszul", "rank-one-cotangent-is-line-bundle"),
    ("koszul", "top-cotangent-is-relative-canonical"),
    ("koszul", "cotangent-duality"),
    ("koszul", "hyper-euler-characteristic"),
    ("koszul", "excluded-classes-acyclic"),
    ("bott", "projective-space-cotangent-tables"),
    ("bott", "product-scroll-kuenneth-cotangent-tables"),
    ("bott", "closed-form-matches-both-resolutions"),
    ("bott", "omega-intervals-match-resolutions"),
    ("regularity", "projective-space-reduction"),
    ("regularity", "product-space-kuenneth"),
    ("regularity", "regular-positive-twist-top-vanishing"),
    ("regularity", "regular-implies-0q-regular"),
    ("regularity", "regular-implies-pq-regular"),
    ("regularity", "scan-monotonicity"),
    ("regularity", "ms-implies-pq"),
    ("regularity", "ms-twist-vanishing-lemma"),
    ("regularity", "rational-normal-scroll-form-agrees"),
    ("splitting", "catalog-ground-truth"),
    ("splitting", "window-margins-vanish"),
    ("splitting", "rational-normal-scroll-equivalence"),
    ("splitting", "indecomposable-case-classification"),
    ("splitting", "summand-composition"),
]


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes(name):
    results = SUITES[name]()
    failing = [r for r in results if not r.ok]
    assert not failing, [(r.label, r.detail) for r in failing]


def test_checks_are_pinned_in_order():
    assert [(r.suite, r.label) for r in run_suites()] == CHECKS


def test_agree_fails_on_no_cases():
    res = _agree("s", "empty", [], lambda x: x, lambda x: x)
    assert (res.ok, res.detail) == (False, "no cases")
    assert not _agree("s", "filtered", (c for c in [(1,)] if c[0] > 1), lambda x: x, lambda x: x).ok


def test_agree_reports_case_got_want():
    res = _agree("s", "square", [(1,), (2,), (3,), (4,)], lambda x: x * x, lambda x: 2 * x)
    assert not res.ok
    assert res.detail == "3 failures; first: ((1,), 1, 2)"
    assert _agree("s", "same", [(1, 2), (3, 4)], lambda a, b: a + b, lambda a, b: b + a).ok
