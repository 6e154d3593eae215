"""Strict integer ingress: every JSON reader takes an integer slot only as a
JSON int or a decimal string, and round-trips what `to_json` writes."""

import io
import json
from decimal import Decimal

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from bpskit import (
    BpsVector,
    InputError,
    KkvTable,
    LaurentPoly,
    NodalCurve,
    PairsSeries,
    SingularityGerm,
    TruncSeries,
)
from bpskit.cli import _series_csv, run
from bpskit.series import _json_int

BAD = [1.9, 2.0, -3.0, True, False, None, [1], {"a": 1},
       "1.5", " 12", "12 ", "1_000", "+5", "", "-", "--1", "1-2", "0x10", "1e3",
       "١٢", "１２", "²"]


def _series(**kw):
    obj = {"min_exp": 0, "order": 2, "coeffs": ["1", "2", "3"]}
    obj.update(kw)
    return obj


def _coeffs(bad):
    return {"coeffs": ["1", bad, "3"]}


def _kkv(**kw):
    row = {"g": 0, "h": 0, "r": "1"}
    row.update(kw)
    return {"h_max": 0, "rows": [row]}


# (reader, builder of an otherwise valid object holding the bad value,
# whether the slot is a JSON object key and so can only hold a string)
SLOTS = {
    "laurent-coeff": (LaurentPoly.from_json, lambda b: {"terms": {"1": b}}, False),
    "laurent-exponent": (LaurentPoly.from_json, lambda b: {"terms": {b: "1"}}, True),
    "series-min_exp": (TruncSeries.from_json, lambda b: _series(min_exp=b), False),
    "series-order": (TruncSeries.from_json, lambda b: _series(order=b), False),
    "series-coeff": (TruncSeries.from_json, lambda b: _series(**_coeffs(b)), False),
    "bps-g": (BpsVector.from_json, lambda b: {"g": b, "n": [1, 2]}, False),
    "bps-n": (BpsVector.from_json, lambda b: {"g": 1, "n": [1, b]}, False),
    "pairs-g": (PairsSeries.from_json, lambda b: {"g": b, "series": _series()}, False),
    "pairs-coeff": (PairsSeries.from_json,
                    lambda b: {"g": 1, "series": _series(**_coeffs(b))}, False),
    "nodal-g": (NodalCurve.from_json, lambda b: {"g": b, "r": 0, "chi": {"": 1}}, False),
    "nodal-r": (NodalCurve.from_json, lambda b: {"g": 1, "r": b, "chi": {"": 1, "0": 2}},
                False),
    "nodal-chi": (NodalCurve.from_json, lambda b: {"g": 1, "r": 1, "chi": {"": 1, "0": b}},
                  False),
    "nodal-node": (NodalCurve.from_json, lambda b: {"g": 1, "r": 1, "chi": {"": 1, b: 2}}, True),
    "germ-delta": (SingularityGerm.from_json,
                   lambda b: {"delta": b, "mu": 0, "q_euler": _series()}, False),
    "germ-mu": (SingularityGerm.from_json,
                lambda b: {"delta": 1, "mu": b, "q_euler": _series()}, False),
    "germ-coeff": (SingularityGerm.from_json,
                   lambda b: {"delta": 1, "mu": 0, "q_euler": _series(**_coeffs(b))}, False),
    "kkv-h_max": (KkvTable.from_json, lambda b: {"h_max": b, "rows": []}, False),
    "kkv-g": (KkvTable.from_json, lambda b: _kkv(g=b), False),
    "kkv-h": (KkvTable.from_json, lambda b: _kkv(h=b), False),
    "kkv-r": (KkvTable.from_json, lambda b: _kkv(r=b), False),
}


@pytest.mark.parametrize("bad", BAD, ids=[repr(b) for b in BAD])
@pytest.mark.parametrize("slot", sorted(SLOTS))
def test_reader_rejects_non_integer(slot, bad):
    reader, build, key = SLOTS[slot]
    if key and not isinstance(bad, str):
        bad = json.dumps(bad)  # what a JSON object key holding it would read as
    with pytest.raises(InputError):
        reader(build(bad))


@pytest.mark.parametrize("slot", sorted(SLOTS))
def test_error_quotes_a_bounded_value(slot):
    reader, build, _key = SLOTS[slot]
    bad = "7" * 500 + "x"
    with pytest.raises(InputError) as info:
        reader(build(bad))
    assert len(str(info.value)) < 150


def test_integer_lists_must_be_arrays():
    with pytest.raises(InputError):
        TruncSeries.from_json({"min_exp": 0, "order": 2, "coeffs": "123"})
    with pytest.raises(InputError):
        BpsVector.from_json({"g": 1, "n": "12"})


def test_decimal_strings_and_json_ints_are_read():
    got = TruncSeries.from_json({"min_exp": "-1", "order": 1, "coeffs": [1, "-2", "003"]})
    assert got == TruncSeries(-1, [1, -2, 3], 1)
    assert BpsVector.from_json({"g": "1", "n": ["-0", 10 ** 50]}) == BpsVector(1, (0, 10 ** 50))
    assert LaurentPoly.from_json({"terms": {"-3": -4, "2": "0"}}) == LaurentPoly({-3: -4})


BIG = 3 ** 2000  # 955 digits


@pytest.mark.parametrize("value", [
    LaurentPoly({-2: BIG, 0: -1, 5: 3}),
    LaurentPoly(),
    TruncSeries(-3, [1, 0, -BIG, 4], 0),
    TruncSeries.zero(4),
    BpsVector(2, (BIG, -1, 0)),
    PairsSeries(TruncSeries(-1, [1, 2, 1, 0, -BIG], 3), 2),
    NodalCurve(2, 2, {frozenset(): 4, frozenset({0}): -BIG, frozenset({1}): 7,
                      frozenset({0, 1}): 1}),
    SingularityGerm(1, 0, TruncSeries(0, [1, 1, 2, BIG], 3)),
    KkvTable(1, {(0, 0): 1, (0, 1): BIG, (1, 1): -2}),
], ids=lambda v: type(v).__name__)
def test_to_json_round_trips(value):
    text = json.dumps(value.to_json(), sort_keys=True)
    assert type(value).from_json(json.loads(text)) == value


# -- integers past CPython's 4300-digit int <-> str limit ---------------------

# about 10^4290 to 10^5100, so some coefficients fall under the limit
huge = st.builds(lambda head, k, tail: head * 10 ** k + tail,
                 st.integers(-10 ** 6, 10 ** 6), st.integers(4284, 5094),
                 st.integers(0, 10 ** 6))


@given(st.lists(huge, max_size=6), st.integers(-3, 3))
@settings(max_examples=40, deadline=None)
def test_huge_series_round_trips(coeffs, lo):
    value = TruncSeries(lo, coeffs)
    text = json.dumps(value.to_json())
    assert TruncSeries.from_json(json.loads(text)) == value


@given(st.dictionaries(st.integers(-5, 5), huge, max_size=5))
@settings(max_examples=40, deadline=None)
def test_huge_laurent_poly_round_trips(terms):
    value = LaurentPoly(terms)
    text = json.dumps(value.to_json())
    assert LaurentPoly.from_json(json.loads(text)) == value


@given(st.lists(huge, min_size=3, max_size=3))
@settings(max_examples=40, deadline=None)
def test_huge_kkv_table_round_trips(values):
    value = KkvTable(1, dict(zip([(0, 0), (0, 1), (1, 1)], values)))
    text = json.dumps(value.to_json())
    assert KkvTable.from_json(json.loads(text)) == value


HUGE = 7 * 10 ** 4600 - 1  # 4601 digits


PAST_LIMIT = ["-" + "9" * 4500, "0" * 5000 + "12", "1" + "0" * 4400]


@pytest.mark.parametrize("text", PAST_LIMIT, ids=["negative", "leading-zeros", "power"])
def test_json_int_past_the_limit(text):
    assert Decimal(_json_int(text)) == Decimal(text)


@pytest.mark.parametrize("slot", ["laurent-coeff", "series-coeff", "pairs-coeff",
                                  "germ-coeff", "kkv-r"])
@pytest.mark.parametrize("text", PAST_LIMIT, ids=["negative", "leading-zeros", "power"])
def test_readers_take_decimal_strings_past_the_limit(slot, text):
    reader, build, _key = SLOTS[slot]
    value = reader(build(text))
    again = json.loads(json.dumps(value.to_json()))
    assert type(value).from_json(again) == value


def test_csv_writers_past_the_limit(capsys):
    _series_csv(TruncSeries(0, [HUGE, -HUGE, 1]), "-")
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "n,coeff" and rows[3] == "2,1"
    assert Decimal(rows[1].split(",")[1]) == Decimal(HUGE)
    assert Decimal(rows[2].split(",")[1]) == Decimal(-HUGE)
    out = io.StringIO()
    KkvTable(0, {(0, 0): -HUGE}).write_csv(out)
    head, row = out.getvalue().splitlines()
    assert head == "g,h,r_gh" and Decimal(row.split(",")[2]) == Decimal(-HUGE)


def _decompose(capsys, monkeypatch, doc):
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    code = run(["bps", "decompose", "--g", "1"])
    cap = capsys.readouterr()
    return code, cap.out, cap.err


@pytest.mark.parametrize("tail", [",1,2", ",0,0"], ids=["rejected", "decomposed"])
def test_json_numbers_past_the_limit_read_as_their_strings(capsys, monkeypatch, tail):
    big = "1" * 5000
    as_number = _decompose(capsys, monkeypatch, f'{{"min_exp":0,"order":2,"coeffs":[{big}{tail}]}}')
    as_string = _decompose(capsys, monkeypatch, f'{{"min_exp":0,"order":2,"coeffs":["{big}"{tail}]}}')
    assert as_number == as_string
    if tail == ",1,2":
        assert as_number[0] == 1 and "residual" in as_number[2]
    else:  # q^0 is the genus-1 basis element of r = 1
        assert as_number[0] == 0 and f"\n    {big}\n" in as_number[1]


def test_invalid_json_after_a_number_past_the_limit(capsys, monkeypatch):
    code, out, err = _decompose(capsys, monkeypatch, '{"coeffs":[' + "1" * 5000 + ",}")
    assert code == 2 and out == "" and "invalid JSON" in err
