"""The CLI's JSON writer: the bytes of json.dump(sort_keys=True, indent=2),
for integers of any size."""

import io
import json
import subprocess
import sys

from hypothesis import given, settings
import hypothesis.strategies as st

from bpskit.cli import _write_json
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
    f = io.StringIO()
    _write_json(obj, f)
    return f.getvalue()


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
