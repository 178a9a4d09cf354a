"""verify's koszul/excluded-classes-acyclic catches a contributing-key listing
that drops keys.

Each fault is a copy of ``complexes._contributing_keys`` that reads only some
rows, or only some characters of each row, put in place of the name the
check reads.  A listing that drops a key with nonzero hypercohomology must
fail the check, and one that lists nothing leaves no probe, which fails as
"no cases".
"""

import pytest

from scrollcohom import verify
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
