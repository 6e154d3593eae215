"""The CLI's JSON writers: the bytes of json.dump(sort_keys=True, indent=2),
for integers of any size, from the one-piece writer of every dict document
and from the two K3 records that stream themselves row by row."""

import io
import json
import subprocess
import sys

from hypothesis import given, settings
import hypothesis.strategies as st

from bpskit import K3PairsSeries, KkvTable, LaurentPoly, ky_series
from bpskit.cli import _json_text
from bpskit.k3 import _kkv_table
from bpskit.series import _big_str

# every code point, lone surrogates and control characters included
text = st.text(st.characters(exclude_categories=()), max_size=12)
scalars = st.none() | st.booleans() | st.integers() | text
trees = st.recursive(
    scalars,
    lambda kids: (st.lists(kids, max_size=5)
                  | st.lists(text, max_size=5)
                  | st.dictionaries(text, kids, max_size=5)),
    max_leaves=40,
)


def _written(obj) -> str:
    return _json_text(obj, "\n")


@given(trees)
@settings(max_examples=400)
def test_writer_writes_json_bytes(tree):
    assert _written(tree) == json.dumps(tree, sort_keys=True, indent=2)


def test_writer_edge_shapes():
    for tree in ({}, [], "", 0, None, {"a": []}, {"a": {}}, [[[]]], [["x", "y"], []],
                 {"rows": [{"terms": {"10": "1", "9": "-2"}}, {}]},
                 {"b": [1, "x", None, True, False, {"k": [[1], []]}]}):
        assert _written(tree) == json.dumps(tree, sort_keys=True, indent=2)


# ints past CPython's 4300-digit int -> str cap
huge = st.builds(lambda k, r, neg: (-1) ** neg * (10 ** k + r),
                 st.integers(4300, 4400), st.integers(0, 10 ** 30), st.booleans())


@given(st.lists(huge, min_size=1, max_size=3), st.lists(st.integers(), max_size=3), st.data())
@settings(max_examples=30, deadline=None)
def test_numbers_past_the_digit_cap(big, small, data):
    # the tree with each huge int in place of a marker string, so that
    # json.dumps writes everything else
    marks = [f"<{i}>" for i in range(len(big))]
    values = data.draw(st.permutations([*marks, *small]))
    tree = {"rows": [{"n": values}], "g": marks[0]}
    want = json.dumps(tree, sort_keys=True, indent=2)
    for mark, x in zip(marks, big):
        want = want.replace(json.dumps(mark), _big_str(x))
    actual = {"rows": [{"n": [big[marks.index(v)] if v in marks else v for v in values]}],
              "g": big[0]}
    assert _written(actual) == want


def test_cli_writes_a_vector_entry_past_the_digit_cap():
    chi = 10 ** 4500
    proc = subprocess.run(
        [sys.executable, "-m", "bpskit", "curve", "nonsingular", "--g", "1",
         "--chi", "1" + "0" * 4500, "--order", "2"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        obj = json.loads(proc.stdout)
    finally:
        sys.set_int_max_str_digits(old)
    # a genus-1 curve contributes n_1 = -chi and nothing else
    assert obj["vector"] == {"g": 1, "n": [0, -chi]}
    assert obj["series"]["coeffs"][0] == _big_str(-chi)
    assert proc.stdout.endswith("}\n")


# The two large K3 records write their own JSON: the bytes of
# json.dumps(record.to_json(), sort_keys=True, indent=2).

def _self_written(record) -> str:
    f = io.StringIO()
    record.write_json(f)
    return f.getvalue()


@given(st.integers(0, 12), st.integers(1, 80))
@settings(max_examples=60, deadline=None)
def test_ky_series_writes_json_bytes(h_max, y_order):
    r = ky_series(h_max, y_order)
    assert _self_written(r) == json.dumps(r.to_json(), sort_keys=True, indent=2)


# sparse rows, negative exponents, zero coefficients (dropped, so a row of
# zeros is the empty LaurentPoly) and records with no rows at all
laurent_rows = st.builds(LaurentPoly, st.dictionaries(st.integers(-150, 150),
                                                      st.integers(-10 ** 25, 10 ** 25)
                                                      | st.just(0), max_size=12))


@given(st.lists(laurent_rows | st.just(LaurentPoly()), max_size=6), st.integers(-5, 10 ** 6))
@settings(max_examples=200, deadline=None)
def test_hand_built_pair_series_writes_json_bytes(rows, y_order):
    r = K3PairsSeries(tuple(rows), y_order)
    assert _self_written(r) == json.dumps(r.to_json(), sort_keys=True, indent=2)


@given(st.integers(0, 40))
@settings(max_examples=41, deadline=None)
def test_kkv_table_writes_json_bytes(h_max):
    t = _kkv_table(h_max)
    assert _self_written(t) == json.dumps(t.to_json(), sort_keys=True, indent=2)


@given(st.dictionaries(st.tuples(st.integers(0, 30), st.integers(0, 30)), st.integers(),
                       max_size=20), st.integers(0, 30))
@settings(max_examples=100, deadline=None)
def test_hand_built_kkv_table_writes_json_bytes(rows, h_max):
    t = KkvTable(h_max, rows)
    assert _self_written(t) == json.dumps(t.to_json(), sort_keys=True, indent=2)


def test_kkv_table_written_in_chunks():
    # 4096 rows a write: a table of 3 chunks joins them with single commas
    t = KkvTable(127, {(g, h): g - h for h in range(128) for g in range(h + 1)})
    assert len(t.rows) > 2 * 4096
    assert _self_written(t) == json.dumps(t.to_json(), sort_keys=True, indent=2)


def test_records_write_numbers_past_the_digit_cap():
    big = -(10 ** 4400 + 7)
    t = KkvTable(1, {(0, 0): 1, (0, 1): big, (1, 1): -2})
    text = _written(t.to_json())
    assert _self_written(t) == text
    assert _big_str(big) in text
    r = K3PairsSeries((LaurentPoly({1: 1, 2: big}), LaurentPoly({0: 2, -1: big})), 2)
    assert _self_written(r) == _written(r.to_json())
