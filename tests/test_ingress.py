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


@pytest.mark.parametrize("bad, quoted", [((1, 2), "(1, 2)"), ({1: 2}, "{1: 2}"),
                                         ((10 ** 5000,), "a tuple")],
                         ids=["tuple", "int-key", "tuple-past-the-cap"])
def test_a_value_no_json_spells_is_quoted_by_its_repr(bad, quoted):
    # only a library caller passes such a value; its repr past the cap fails
    with pytest.raises(InputError) as info:
        TruncSeries.from_json({"min_exp": bad, "order": 1, "coeffs": []})
    assert str(info.value) == f"min_exp must be an integer or a decimal string, not {quoted}"


def test_integer_lists_must_be_arrays():
    with pytest.raises(InputError, match="^the coefficient list must be a JSON array$"):
        TruncSeries.from_json({"min_exp": 0, "order": 2, "coeffs": "123"})
    with pytest.raises(InputError, match="^the n entry list must be a JSON array$"):
        BpsVector.from_json({"g": 1, "n": "12"})


@pytest.mark.parametrize("reader,doc,message", [
    (LaurentPoly.from_json, {"terms": {"1": 2, "01": 3}},
     "bad Laurent polynomial JSON: exponent 1 is named by two keys"),
    (LaurentPoly.from_json, {"terms": {"0": 2, "-0": 3}},
     "bad Laurent polynomial JSON: exponent 0 is named by two keys"),
    (KkvTable.from_json, {"h_max": 0, "rows": [_kkv(r=1)["rows"][0], _kkv(r=5)["rows"][0]]},
     "bad table JSON: (g, h) = (0, 0) is named by two rows"),
    (KkvTable.from_json, {"h_max": 1, "rows": [_kkv(g=1, h="1")["rows"][0],
                                               _kkv(g="01", h=1)["rows"][0]]},
     "bad table JSON: (g, h) = (1, 1) is named by two rows"),
], ids=["laurent-01", "laurent-minus-0", "kkv-rows", "kkv-spellings"])
def test_keys_naming_one_slot_are_malformed(reader, doc, message):
    # the last value once won; json.loads itself merges byte-identical keys
    with pytest.raises(InputError) as info:
        reader(doc)
    assert str(info.value) == message


# -- the one rule for reading a JSON object: series._fields ------------------

# (reader, the name its errors carry, a valid document)
OBJECTS = {
    "series": (TruncSeries.from_json, "series", _series()),
    "bps": (BpsVector.from_json, "BPS vector", {"g": 1, "n": [1, 2]}),
    "pairs": (PairsSeries.from_json, "pairs-series", {"series": _series(), "g": 1}),
    "nodal": (NodalCurve.from_json, "nodal-curve", {"g": 1, "r": 1, "chi": {"": 1, "0": 2}}),
    "germ": (SingularityGerm.from_json, "singularity-germ",
             {"delta": 1, "mu": 0, "q_euler": _series()}),
    "kkv": (KkvTable.from_json, "table", _kkv()),
    "laurent": (LaurentPoly.from_json, "Laurent polynomial", {"terms": {"-1": 2, "0": 1}}),
}


def _shape_cases():
    for slot, (reader, what, doc) in OBJECTS.items():
        for bad in ([1], "x", 7, None, True):
            yield pytest.param(reader, bad,
                               f"bad {what} JSON: expected an object, not {json.dumps(bad)}",
                               id=f"{slot}-{json.dumps(bad)}")
        for name in doc:
            less = {k: v for k, v in doc.items() if k != name}
            yield pytest.param(reader, less, f"bad {what} JSON: {name!r}", id=f"{slot}-no-{name}")
    yield pytest.param(NodalCurve.from_json, {"g": 1, "r": 1, "chi": [1]},
                       "bad nodal-curve JSON: chi must be an object, not [1]", id="nodal-chi-array")
    yield pytest.param(KkvTable.from_json, {"h_max": 0, "rows": {"g": 0}},
                       'bad table JSON: rows must be an array, not {"g": 0}', id="kkv-rows-object")
    yield pytest.param(LaurentPoly.from_json, {"terms": [["0", 1]]},
                       'bad Laurent polynomial JSON: terms must be an object, not [["0", 1]]',
                       id="laurent-terms-array")
    yield pytest.param(KkvTable.from_json, {"h_max": 0, "rows": [[0, 0, 1]]},
                       "bad table row JSON: expected an object, not [0, 0, 1]", id="kkv-row-array")
    for name in ("g", "h", "r"):
        row = {k: v for k, v in _kkv()["rows"][0].items() if k != name}
        yield pytest.param(KkvTable.from_json, {"h_max": 0, "rows": [row]},
                           f"bad table row JSON: {name!r}", id=f"kkv-row-no-{name}")


@pytest.mark.parametrize("slot", sorted(OBJECTS))
def test_object_table_documents_are_valid(slot):
    reader, _what, doc = OBJECTS[slot]
    value = reader(doc)
    assert reader(value.to_json()) == value


@pytest.mark.parametrize("reader,doc,message", _shape_cases())
def test_a_document_of_the_wrong_shape_is_named(reader, doc, message):
    with pytest.raises(InputError) as info:
        reader(doc)
    text = str(info.value)
    assert text == message
    assert not any(s in text for s in ("indices must be", "has no attribute", "not subscriptable"))


def _planted(*args, **kwargs):
    raise TypeError("planted reader fault")


# (reader slot, a decoder that reader calls)
DECODERS = [("series", "bpskit.series._json_ints"), ("pairs", "bpskit.series._json_ints"),
            ("germ", "bpskit.series._json_ints"), ("bps", "bpskit.bps._json_ints"),
            ("nodal", "bpskit.curves._json_int"), ("kkv", "bpskit.k3._json_int"),
            ("laurent", "bpskit.series._json_int")]


@pytest.mark.parametrize("slot,decoder", DECODERS, ids=[s for s, _d in DECODERS])
def test_a_decoder_bug_is_not_malformed_input(monkeypatch, slot, decoder):
    reader, _what, doc = OBJECTS[slot]
    monkeypatch.setattr(decoder, _planted)
    with pytest.raises(TypeError, match="^planted reader fault$"):
        reader(doc)


@pytest.mark.parametrize("slot", sorted(set(OBJECTS) - {"series", "laurent"}))  # no _check
def test_a_check_bug_is_not_malformed_input(monkeypatch, slot):
    reader, _what, doc = OBJECTS[slot]
    monkeypatch.setattr(reader.__self__, "_check", _planted)
    with pytest.raises(TypeError, match="^planted reader fault$"):
        reader(doc)


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


def test_a_reader_bug_exits_70_with_its_traceback(capsys, monkeypatch):
    monkeypatch.setattr("bpskit.series._json_ints", _planted)
    code, out, err = _decompose(capsys, monkeypatch, json.dumps(_series()))
    assert (code, out) == (70, "")
    assert "Traceback" in err and err.endswith("TypeError: planted reader fault\n")
