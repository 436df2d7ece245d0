"""The immutable value types: construction, immutability, copies, and the
repr, equality and hashing their users see."""

import copy
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import qfj

PAIRING = qfj.OrderedPairing(((1, 2),))

# (type, positional fields, repr, equality: "value" by fields or "identity")
CASES = [
    (qfj.QParam, (Fraction(1, 2),), "QParam(value=Fraction(1, 2))", "value"),
    (qfj.QPolynomial, ((Fraction(1), Fraction(0), Fraction(2)),),
     "QPolynomial(1 + 2q^2)", "value"),
    (qfj.TruncationPolicy, (64, "exact"),
     "TruncationPolicy(max_terms=64, mode='exact')", "value"),
    (qfj.QuadratureResult, (Fraction(1, 3), 0, Fraction(0)),
     "QuadratureResult(value=Fraction(1, 3), terms_used=0, residual=Fraction(0, 1))",
     "value"),
    (qfj.NormalizationResult, (None, 2.5, "interchanged_sum", 40),
     "NormalizationResult(surd_value=None, float_value=2.5, method='interchanged_sum', "
     "terms_used=40)", "value"),
    (qfj.LambdaTable, ({(0, 0): Fraction(1)}, 0, 0),
     "LambdaTable(values={(0, 0): Fraction(1, 1)}, max_c=0, max_d=0)", "identity"),
    (qfj.OrderedPairing, (((1, 2),),), "OrderedPairing(pairs=((1, 2),))", "value"),
    (qfj.GraphEncoding, (1, 0, 0, (), PAIRING),
     "GraphEncoding(c=1, dprime=0, k=0, sigma=(), flag_pairing=OrderedPairing(pairs=((1, 2),)))",
     "value"),
    (qfj.CheckResult, ("x", True, "d"), "CheckResult(name='x', passed=True, detail='d')",
     "value"),
]
IDS = [case[0].__name__ for case in CASES]
FIELDS = {
    qfj.QParam: ("value",), qfj.QPolynomial: ("coefficients",),
    qfj.TruncationPolicy: ("max_terms", "mode"),
    qfj.QuadratureResult: ("value", "terms_used", "residual"),
    qfj.NormalizationResult: ("surd_value", "float_value", "method", "terms_used"),
    qfj.LambdaTable: ("values", "max_c", "max_d"),
    qfj.OrderedPairing: ("pairs",),
    qfj.GraphEncoding: ("c", "dprime", "k", "sigma", "flag_pairing"),
    qfj.CheckResult: ("name", "passed", "detail"),
}


@pytest.mark.parametrize("cls, args, text, equality", CASES, ids=IDS)
def test_repr_equality_and_hash(cls, args, text, equality):
    value, twin = cls(*args), cls(*args)
    assert repr(value) == text
    if equality == "identity":
        assert value != twin and value == value
        assert hash(value) == object.__hash__(value)
        return
    assert value == twin and not value != twin
    fields = FIELDS[cls]
    own = value.coefficients if cls is qfj.QPolynomial else tuple(
        getattr(value, name) for name in fields)
    assert hash(value) == hash(twin) == hash(own)


@pytest.mark.parametrize("cls, args, text, equality", CASES, ids=IDS)
def test_keyword_construction(cls, args, text, equality):
    assert repr(cls(**dict(zip(FIELDS[cls], args)))) == text


@pytest.mark.parametrize("cls, args, text, equality", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, args, text, equality):
    value = cls(*args)
    for name in FIELDS[cls]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == text


@pytest.mark.parametrize("round_trip", [
    copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value)),
], ids=["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize("cls, args, text, equality", CASES, ids=IDS)
def test_copies_are_equal_values(round_trip, cls, args, text, equality):
    value = cls(*args)
    restored = round_trip(value)
    assert type(restored) is cls and repr(restored) == text
    if equality == "value":
        assert restored == value and hash(restored) == hash(value)
    with pytest.raises(AttributeError):
        setattr(restored, FIELDS[cls][0], None)


def test_cached_views_survive_a_round_trip():
    q = qfj.QParam(Fraction(3, 4))
    assert q.squared == qfj.QParam(Fraction(9, 16))
    restored = pickle.loads(pickle.dumps(q))
    assert restored == q and restored.squared == q.squared and restored.as_float == 0.75


def test_star_import_resolves_every_exported_name():
    # a name left in __all__ after its object is gone breaks `from qfj import *`
    code = ("import qfj\nfrom qfj import *\n"
            "print([name for name in qfj.__all__ if name not in globals()])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
