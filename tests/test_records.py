"""The nine result types are immutable records: construction, equality,
hashing, repr, immutability and copying are pinned here, as is the
import footprint of the package."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import bpskit
from bpskit import (
    BpsVector,
    GgtcReport,
    K3PairsSeries,
    KkvTable,
    LaurentPoly,
    NodalCurve,
    PairsSeries,
    SignedCheckReport,
    SingularityGerm,
    TruncSeries,
)
from bpskit.bps import IdentityCheck

OK = IdentityCheck(True)

# (class, positional arguments, the same as keywords, pinned repr)
CASES = [
    (BpsVector, (1, (1, -1)), {"g": 1, "n": (1, -1)}, "BpsVector(g=1, n=(1, -1))"),
    (PairsSeries, (TruncSeries(0, [-1, 1, -2], 2), 1),
     {"series": TruncSeries(0, [-1, 1, -2], 2), "g": 1},
     "PairsSeries(series=TruncSeries(-1 + 1*q + -2*q^2 + O(q^3)), g=1)"),
    (IdentityCheck, (False, 3), {"passed": False, "first_fail_exponent": 3},
     "IdentityCheck(passed=False, first_fail_exponent=3)"),
    (IdentityCheck, (True,), {"passed": True},
     "IdentityCheck(passed=True, first_fail_exponent=None)"),
    (GgtcReport, (True, OK, OK, OK, 4, 1),
     {"passed": True, "identity_g0": OK, "identity_gg": OK, "identity_0": OK,
      "checked_order": 4, "n0": 1},
     "GgtcReport(passed=True, identity_g0=IdentityCheck(passed=True, first_fail_exponent=None), "
     "identity_gg=IdentityCheck(passed=True, first_fail_exponent=None), "
     "identity_0=IdentityCheck(passed=True, first_fail_exponent=None), checked_order=4, n0=1)"),
    (NodalCurve, (1, 1, {frozenset(): 4, frozenset({0}): 7}),
     {"g": 1, "r": 1, "chi": {frozenset(): 4, frozenset({0}): 7}},
     "NodalCurve(g=1, r=1, chi={frozenset(): 4, frozenset({0}): 7})"),
    (SingularityGerm, (1, 0, TruncSeries(0, [1, 1, 2, 3], 3)),
     {"delta": 1, "mu": 0, "q_euler": TruncSeries(0, [1, 1, 2, 3], 3)},
     "SingularityGerm(delta=1, mu=0, q_euler=TruncSeries(1 + 1*q + 2*q^2 + 3*q^3 + O(q^4)))"),
    (KkvTable, (1, {(0, 0): 1, (0, 1): 24, (1, 1): -2}),
     {"h_max": 1, "rows": {(0, 0): 1, (0, 1): 24, (1, 1): -2}},
     "KkvTable(h_max=1, rows={(0, 0): 1, (0, 1): 24, (1, 1): -2})"),
    (K3PairsSeries, ((LaurentPoly({1: 1, 2: 2}),), 2),
     {"rows": (LaurentPoly({1: 1, 2: 2}),), "y_order": 2},
     "K3PairsSeries(rows=(LaurentPoly(1*z + 2*z^2),), y_order=2)"),
    (SignedCheckReport, (False, (1, 2), 3, 5),
     {"passed": False, "first_mismatch": (1, 2), "h_max": 3, "y_order": 5},
     "SignedCheckReport(passed=False, first_mismatch=(1, 2), h_max=3, y_order=5)"),
]
IDS = [f"{cls.__name__}-{i}" for i, (cls, *_rest) in enumerate(CASES)]
UNHASHABLE = (KkvTable, NodalCurve)  # they hold a dict


@pytest.mark.parametrize("cls,args,kwargs,text", CASES, ids=IDS)
def test_keyword_and_positional_agree(cls, args, kwargs, text):
    a, b = cls(*args), cls(**kwargs)
    assert type(a) is type(b) is cls
    assert a == b and not a != b
    assert repr(a) == repr(b) == text


@pytest.mark.parametrize("cls,args,kwargs,text", CASES, ids=IDS)
def test_values_of_other_types_differ(cls, args, kwargs, text):
    v = cls(*args)
    assert v != args
    for other_cls, other_args, _kw, _text in CASES:
        if other_cls is not cls:
            assert v != other_cls(*other_args)


@pytest.mark.parametrize("cls,args,kwargs,text", CASES, ids=IDS)
def test_fields_cannot_be_set_or_deleted(cls, args, kwargs, text):
    v = cls(*args)
    for name, value in kwargs.items():
        with pytest.raises(AttributeError):
            setattr(v, name, value)
        with pytest.raises(AttributeError):
            delattr(v, name)
        assert getattr(v, name) == value
    with pytest.raises(AttributeError):
        v.extra = 1
    assert repr(v) == text


@pytest.mark.parametrize("cls,args,kwargs,text", CASES, ids=IDS)
def test_hash(cls, args, kwargs, text):
    a, b = cls(*args), cls(**kwargs)
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1


@pytest.mark.parametrize("cls,args,kwargs,text", CASES, ids=IDS)
def test_pickle_and_copy_round_trip(cls, args, kwargs, text):
    v = cls(*args)
    for w in (pickle.loads(pickle.dumps(v)), copy.copy(v), copy.deepcopy(v)):
        assert type(w) is cls
        assert w == v
        assert repr(w) == text


@pytest.mark.parametrize("call", [
    lambda: BpsVector(1),
    lambda: BpsVector(1, (1, 2), 3),
    lambda: BpsVector(1, (1, 2), g=1),
    lambda: BpsVector(g=1, n=(1, 2), m=3),
    lambda: IdentityCheck(),
    lambda: SignedCheckReport(True, None, 3),
], ids=["missing", "extra-positional", "duplicate", "unknown-keyword", "missing-all",
        "missing-last"])
def test_bad_arguments_are_type_errors(call):
    with pytest.raises(TypeError):
        call()


@pytest.mark.parametrize("call,field", [
    (lambda: PairsSeries([1, 2], 3), "series"),
    (lambda: GgtcReport(1.5, 2, 3, 4, 5.0, True), "passed"),
    (lambda: GgtcReport(True, OK, 2, OK, 4, 1), "identity_gg"),
    (lambda: GgtcReport(True, OK, OK, OK, 4.0, 1), "checked_order"),
    (lambda: GgtcReport(True, OK, OK, OK, 4, None), "n0"),
    (lambda: IdentityCheck(1), "passed"),
    (lambda: IdentityCheck(False, 3.0), "first_fail_exponent"),
    (lambda: SignedCheckReport(None, None, 3, 5), "passed"),
    (lambda: SignedCheckReport(False, [1, 2], 3, 5), "first_mismatch"),
    (lambda: SignedCheckReport(False, (1, True), 3, 5), "first_mismatch"),
    (lambda: SignedCheckReport(True, None, 3.0, 5), "h_max"),
    (lambda: SignedCheckReport(True, None, 3, "5"), "y_order"),
], ids=["pairs-series", "ggtc-passed", "ggtc-identity", "ggtc-order", "ggtc-n0",
        "identity-passed", "identity-exponent", "signed-passed", "signed-list",
        "signed-entry", "signed-h_max", "signed-y_order"])
def test_a_bad_field_fails_at_construction(call, field):
    # at construction, not later with an AttributeError in bps_decompose or to_json
    with pytest.raises(TypeError, match=f"^{field}"):
        call()


def test_repr_past_the_digit_cap():
    big = 10 ** 5000
    digits = "1" + "0" * 5000
    assert repr(BpsVector(1, (big, 1))) == f"BpsVector(g=1, n=({digits}, 1))"
    assert repr(KkvTable(0, {(0, 0): big})) == f"KkvTable(h_max=0, rows={{(0, 0): {digits}}})"
    assert repr(IdentityCheck(False, big)) == (f"IdentityCheck(passed=False, "
                                               f"first_fail_exponent={digits})")
    assert repr(SignedCheckReport(False, (big,), 1, 2)) == (
        f"SignedCheckReport(passed=False, first_mismatch=({digits},), h_max=1, y_order=2)")


def test_checks_still_run_on_construction():
    with pytest.raises(ValueError):
        BpsVector(g=2, n=(1, 2))
    with pytest.raises(ValueError):
        PairsSeries(TruncSeries(0, [1], 0), -1)
    with pytest.raises(ValueError):
        NodalCurve(1, 1, {frozenset(): 1})
    with pytest.raises(ValueError):
        SingularityGerm(delta=1, mu=0, q_euler=TruncSeries(0, [2, 1], 1))
    curve = NodalCurve(1, 1, {(): 4, (0,): 7})
    assert curve.chi == {frozenset(): 4, frozenset({0}): 7}


def test_import_loads_no_dataclasses_inspect_or_typing():
    src = str(Path(bpskit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, bpskit, bpskit.cli; "
            "print(sorted(m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"
