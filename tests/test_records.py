"""The records the engines build keep their text, hash, immutability and JSON.

Every verify failure detail and error message prints these records, and set
and dict order follows their hash, so CLI and verify output depend on all
three.  Each sample is built from all its field values in order.
"""

import inspect

import pytest

from scrollcohom import DivClass, SheafSpec, make_scroll
from scrollcohom.characters import Character
from scrollcohom.complexes import MonomialComplex, Summand
from scrollcohom.regularity import (CompareReport, ComparePoint, Failure, RegResult, RegularityReport,
                                    is_pq_regular, rns_is_pq_regular)
from scrollcohom.splitting import CaseFired, SplittingReport, Witness
from scrollcohom.verify import CheckResult
from scrollcohom.windows import Cond

X = make_scroll(1, 1, [1, 2])
WITNESS = ("d", -5, (2, 3), DivClass(-5, 2), "dual", 1)
FIRED = ("iv", 1, 2, "Omega^1<2,-2>")
REG = (1, True, (0, 1), ())
FAILURE = ("b", 1, 1, 0, DivClass(-1, 1), 3)
POINT = (0, 1, False, True)
SUMMAND = (DivClass(1, -1), (0, 0, 1, 0))

# (type, field values, repr, to_json or None)
SAMPLES = [
    (Cond, ("c", 1, 0, 0, True, (0,)),
     "Cond(label='c', k=1, dp=0, dq=0, dual=True, idx=(0,))", None),
    (Witness, WITNESS,
     "Witness(condition='d', t=-5, indices=(2, 3), twist=DivClass(p=-5, q=2), side='dual', value=1)",
     {"condition": "d", "t": -5, "indices": [2, 3], "twist": [-5, 2], "side": "dual", "h": 1}),
    (CaseFired, FIRED, "CaseFired(case='iv', i=1, value=2, conclusion='Omega^1<2,-2>')", None),
    (SplittingReport, ("2.3", False, (Witness(*WITNESS),), None, RegResult(*REG),
                       ("Reg(E) = 1, hypothesis needs 0",), (CaseFired(*FIRED),), "Omega^1<2,-2>"),
     "SplittingReport(theorem='2.3', verdict=False, witnesses=(Witness(condition='d', t=-5, indices=(2, 3), "
     "twist=DivClass(p=-5, q=2), side='dual', value=1),), window=None, reg=RegResult(value=1, "
     "monotone_verified=True, scan=(0, 1), flags=()), precondition_failures=('Reg(E) = 1, hypothesis needs 0',), "
     "fired=(CaseFired(case='iv', i=1, value=2, conclusion='Omega^1<2,-2>'),), conclusion='Omega^1<2,-2>')",
     {"theorem": "2.3", "verdict": False,
      "witnesses": [{"condition": "d", "t": -5, "indices": [2, 3], "twist": [-5, 2], "side": "dual", "h": 1}],
      "reg": {"reg": 1, "monotone_verified": True, "scan": [0, 1], "flags": []},
      "precondition_failures": ["Reg(E) = 1, hypothesis needs 0"],
      "cases": [{"case": "iv", "i": 1, "h": 2, "conclusion": "Omega^1<2,-2>"}],
      "conclusion": "Omega^1<2,-2>"}),
    (Failure, FAILURE, "Failure(label='b', degree=1, i=1, j=0, twist=DivClass(p=-1, q=1), value=3)",
     {"condition": "b", "degree": 1, "i": 1, "j": 0, "twist": [-1, 1], "h": 3}),
    (RegularityReport, ("pq", (-1, 0), False, (Failure(*FAILURE),)),
     "RegularityReport(kind='pq', target=(-1, 0), verdict=False, failures=(Failure(label='b', degree=1, i=1, "
     "j=0, twist=DivClass(p=-1, q=1), value=3),))",
     {"kind": "pq", "target": [-1, 0], "verdict": False,
      "failures": [{"condition": "b", "degree": 1, "i": 1, "j": 0, "twist": [-1, 1], "h": 3}]}),
    (RegResult, REG, "RegResult(value=1, monotone_verified=True, scan=(0, 1), flags=())",
     {"reg": 1, "monotone_verified": True, "scan": [0, 1], "flags": []}),
    (ComparePoint, POINT, "ComparePoint(p=0, q=1, ms=False, pq=True)", None),
    (CompareReport, ((ComparePoint(*POINT),), ((0, 1),), ()),
     "CompareReport(points=(ComparePoint(p=0, q=1, ms=False, pq=True),), separations=((0, 1),), violations=())",
     {"points": [[0, 1, False, True]], "separations": [[0, 1]], "violations": [], "ok": True}),
    (Character, ((1, 0), (0, 2)), "Character(alpha=(1, 0), beta=(0, 2))", {"alpha": [1, 0], "beta": [0, 2]}),
    (Summand, SUMMAND, "Summand(cls=DivClass(p=1, q=-1), rep=(0, 0, 1, 0))", None),
    (MonomialComplex, (X, 0, ((Summand(*SUMMAND),), ()), (((0, 0, 1, (1, 0, 0, 0)),),)),
     "MonomialComplex(x=Scroll(m=1, n=1, a=(1, 2)), start_pos=0, terms=((Summand(cls=DivClass(p=1, q=-1), "
     "rep=(0, 0, 1, 0)),), ()), diffs=(((0, 0, 1, (1, 0, 0, 0)),),))",
     {"scroll": {"m": 1, "n": 1, "a": [1, 2]}, "positions": [0, 1],
      "terms": [[{"class": [1, -1], "rep": [0, 0, 1, 0]}], []],
      "diffs": [[{"src": 0, "tgt": 0, "sign": 1, "monomial": [1, 0, 0, 0]}]]}),
    (CheckResult, ("koszul", "excluded-classes-acyclic", False, "no cases"),
     "CheckResult(suite='koszul', label='excluded-classes-acyclic', ok=False, detail='no cases')", None),
]


@pytest.mark.parametrize("cls, values, text, payload", SAMPLES, ids=[s[0].__name__ for s in SAMPLES])
def test_record_text_hash_immutability_and_json(cls, values, text, payload):
    r = cls(*values)
    assert repr(r) == text
    assert hash(r) == hash(values)
    for name in inspect.signature(cls).parameters:
        with pytest.raises(AttributeError):
            setattr(r, name, None)
    if payload is not None:
        assert r.to_json() == payload


def test_rns_form_relabels_the_j0_row_of_b():
    x = make_scroll(1, 2, [1, 1, 2])
    o = SheafSpec.from_split([(0, 0)])
    pq, rns = is_pq_regular(x, o, 1, -3), rns_is_pq_regular(x, o, 1, -3)
    assert [(f.label, f.i, f.j) for f in pq.failures] == [("b", 0, 1), ("b", 1, 0)]
    assert [(f.label, f.i, f.j) for f in rns.failures] == [("b", 0, 1), ("c", 1, 0)]
    assert [f.value for f in rns.failures] == [f.value for f in pq.failures]
