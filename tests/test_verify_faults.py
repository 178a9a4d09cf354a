"""verify's checks catch faults put in place of the names they read.

koszul/excluded-classes-acyclic catches a contributing-key listing that
drops keys.  Each fault is a copy of ``complexes._contributing_keys`` that
reads only some rows, or only some characters of each row.  A listing that
drops a key with nonzero hypercohomology must fail the check, and one that
lists nothing leaves no probe, which fails as "no cases".

closed-form/packed-sum-matches-histogram catches a fault on the production
path of line and Omega^i cohomology, chi plus the shorter side: a sign
flipped in the generalized binomial of chi, the h^0 side read from the
unreflected gaps, or a short row cut one field short.
"""

import importlib
import pkgutil
from math import comb

import pytest

import scrollcohom
from scrollcohom import cohomology, verify
from scrollcohom.characters import enumerate_contributing, valid_rows


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


_sym_row = cohomology._sym_row

PATH_FAULTS = {
    "generalized binomial without its sign":
        ("_gbinom", lambda y, m, count: [comb(y, m - r) if y >= 0 else comb(m - r - y - 1, m - r)
                                         for r in range(count)]),
    "h^0 side on the unreflected gaps": ("_mirror", lambda x: x),
    # full-length rows, which the reference's sym_twists reads, stay whole
    "short row cut one field short":
        ("_sym_row", lambda gaps, k, top, w: _sym_row(gaps, k, top - (top < k * gaps[-1]), w)),
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
