"""verify's checks catch faults put in place of the names they read.

koszul/excluded-classes-acyclic catches a contributing-key listing that
drops keys.  Each fault is a copy of ``complexes._contributing_keys`` that
reads only some rows, or only some characters of each row.  A listing that
drops a key with nonzero hypercohomology must fail the check, and one that
lists nothing leaves no probe, which fails as "no cases".

closed-form/packed-sum-matches-histogram catches a fault on the production
path of line and Omega^i cohomology, chi plus the shorter side: a sign
flipped in the generalized binomial of chi, the h^0 side read from the
unreflected gaps, a short row cut one field short, or packed fields one
byte narrower than their bound.

splitting/summand-composition catches a fault in the report composed from
per-piece tables: the dual side shifted the wrong way, or the values of
two pieces at one (t, condition) overwritten instead of summed.
"""

import importlib
import operator
import pkgutil
from math import comb

import pytest

import scrollcohom
from scrollcohom import cohomology, splitting, verify
from scrollcohom.characters import enumerate_contributing, valid_rows
from scrollcohom.windows import hull


def _listing(rows, chars):
    def keys(c):
        out = set()
        for term in c.terms:
            for s in term:
                for row in rows(valid_rows(c.x)):
                    for ch in chars(enumerate_contributing(c.x, s.cls, row)):
                        out.add(tuple(e - r for e, r in zip(ch.alpha + ch.beta, s.rep)))
        return out
    return keys


def _all(seq):
    return seq


FAULTS = {
    "rows[1:]": _listing(lambda rows: rows[1:], _all),
    "rows[:-1]": _listing(lambda rows: rows[:-1], _all),
    "rows[::2]": _listing(lambda rows: rows[::2], _all),
    "every other character": _listing(_all, lambda chars: chars[::2]),
    "first row only": _listing(lambda rows: rows[:1], _all),
}


def _excluded_check(monkeypatch, listing):
    monkeypatch.setattr(verify, "_contributing_keys", listing)
    [result] = [r for r in verify.suite_koszul() if r.label == "excluded-classes-acyclic"]
    return result


def test_the_full_listing_passes(monkeypatch):
    assert _excluded_check(monkeypatch, _listing(_all, _all)).ok


@pytest.mark.parametrize("fault", FAULTS)
def test_a_listing_that_drops_keys_fails(monkeypatch, fault):
    result = _excluded_check(monkeypatch, FAULTS[fault])
    assert not result.ok
    assert result.detail.split(";")[0].endswith("failures")


def test_a_listing_with_no_keys_leaves_no_cases(monkeypatch):
    result = _excluded_check(monkeypatch, _listing(lambda rows: rows[:0], _all))
    assert (result.ok, result.detail) == (False, "no cases")


_sym_row, _fit = cohomology._sym_row, cohomology._fit

PATH_FAULTS = {
    "generalized binomial without its sign":
        ("_gbinom", lambda y, m, count: [comb(y, m - r) if y >= 0 else comb(m - r - y - 1, m - r)
                                         for r in range(count)]),
    "h^0 side on the unreflected gaps": ("_mirror", lambda x: x),
    # full-length rows, which the reference's sym_twists reads, stay whole
    "short row cut one field short":
        ("_sym_row", lambda gaps, k, top, w: _sym_row(gaps, k, top - (top < k * gaps[-1]), w)),
    "width one byte short": ("_fit", lambda *args: max(1, _fit(*args) - 1)),
}


@pytest.fixture
def cold_caches():
    """Every lru cache of the package emptied before and after, so that no
    table computed with a fault outlives it, or one without it hides it."""
    def clear():
        for info in pkgutil.iter_modules(scrollcohom.__path__):
            module = importlib.import_module(f"scrollcohom.{info.name}")
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)) and value.__module__ == module.__name__:
                    value.cache_clear()
    clear()
    yield
    clear()


def _histogram_check():
    [result] = [r for r in verify.suite_closed_form() if r.label == "packed-sum-matches-histogram"]
    return result


def test_the_production_path_passes(cold_caches):
    assert _histogram_check().ok


@pytest.mark.parametrize("fault", PATH_FAULTS)
def test_a_fault_on_the_production_path_fails(monkeypatch, cold_caches, fault):
    name, faulty = PATH_FAULTS[fault]
    monkeypatch.setattr(cohomology, name, faulty)
    result = _histogram_check()
    assert not result.ok
    assert result.detail.split(";")[0].endswith("failures")


def _composed(sign, merge):
    """splitting._composed_scan with the dual side's shift times sign, and
    the values at equal (t, j) merged by merge(value so far, h)."""
    def scan(x, spec, theorem):
        conds = splitting._family(x, theorem)
        ends, sums = [], {}
        for i, twist in spec.pieces:
            for dual, (lo, hi), values in splitting._piece_table(x, theorem, i, twist.q):
                shift = sign * twist.p if dual else -twist.p
                ends.append((lo + shift, hi + shift))
                for t, j, h in values:
                    sums[t + shift, j] = merge(sums.get((t + shift, j), 0), h)
        witnesses = splitting._witnesses(conds, sorted(sums.items()))
        return splitting.SplittingReport(theorem, not witnesses, witnesses, window=hull(ends))
    return scan


COMPOSITION_FAULTS = {
    "dual side's shift sign flipped": _composed(-1, operator.add),
    "values at equal (t, j) overwritten": _composed(1, lambda so_far, h: h),
}


def _composition_check(monkeypatch, composed):
    monkeypatch.setattr(splitting, "_composed_scan", composed)
    [result] = [r for r in verify.suite_splitting() if r.label == "summand-composition"]
    return result


def test_the_faithful_composition_passes(monkeypatch):
    assert _composition_check(monkeypatch, _composed(1, operator.add)).ok


@pytest.mark.parametrize("fault", COMPOSITION_FAULTS)
def test_a_fault_in_the_composition_fails(monkeypatch, fault):
    result = _composition_check(monkeypatch, COMPOSITION_FAULTS[fault])
    assert not result.ok
    assert result.detail.split(";")[0].endswith("failures")
