"""Fuzz of every verb that reads JSON: any JSON value, and any single-leaf
mutation of a valid document, exits 0, 1, 2 or 3.  Exit 70 is a bug, and
its traceback is the failure message."""

import contextlib
import copy
import io
import json
import sys
from functools import reduce
from operator import getitem
from unittest import mock

import hypothesis.strategies as st
from hypothesis import example, given, settings

from bpskit import BpsVector, bps_recompose
from bpskit.cli import run
from bpskit.series import _big_str

# Integers under these keys set the amount of work (curve nodal --order 4
# with g = 100000 is a 10^5-term window of huge binomials), so they stay
# within CAP; every other integer may be any size, past the int <-> str
# digit cap too.
CAP = 40
SIZED = {"g", "delta", "mu", "order"}
BIG = "1" + "0" * 4400
KEYS = ["g", "r", "n", "chi", "series", "min_exp", "order", "coeffs", "delta", "mu",
        "q_euler", "", "0", "0,1"]

PAIRS = bps_recompose(BpsVector(2, (3, -1, 4)), 8).to_json()
HILB = {"min_exp": 0, "order": 5, "coeffs": ["1", "1", "2", "3", "4", "5"]}  # n = (1, 1)
NODAL = [{"g": 1, "r": 1, "chi": {"": 4, "0": 7}},
         {"g": 3, "r": 2, "chi": {"": 1, "0": -2, "1": 3, "0,1": 5}}]
GERMS = [{"delta": 1, "mu": 0,
          "q_euler": {"min_exp": 0, "order": 8, "coeffs": ["1", "1", "2", "3", "4", "5", "6",
                                                           "7", "8"]}},
         {"delta": 0, "mu": 0, "q_euler": {"min_exp": 0, "order": 8, "coeffs": [1] + [0] * 8}}]


def _ints(sized):
    small = st.integers(-CAP, CAP)
    if sized:
        return small | small.map(str)
    return small | st.integers() | st.integers().map(str) | st.sampled_from([BIG, "-" + BIG])


def _json_values(sized):
    """Any JSON value, its arrays at most 5 long (a duplicated entry keeps
    every array under 120); integers within CAP when sized."""
    scalars = (st.none() | st.booleans() | st.floats(allow_nan=False, allow_infinity=False)
               | st.text(max_size=8) | _ints(sized))
    keys = st.sampled_from(KEYS) | st.text(max_size=4)
    return st.recursive(scalars, lambda kids: st.lists(kids, max_size=5)
                        | st.dictionaries(keys, kids, max_size=5), max_leaves=12)


JSON_VALUES = {sized: _json_values(sized) for sized in (False, True)}
LEAVES = {sized: _ints(sized) | JSON_VALUES[sized] for sized in (False, True)}  # ints half the time


@st.composite
def mutants(draw, doc):
    """doc with one leaf replaced by another JSON value, one array entry
    dropped or duplicated, or one series window [min_exp, order] moved by
    any amount, its length kept."""
    doc = copy.deepcopy(doc)
    leaves, entries, windows = [], [], []

    def walk(node, path):
        if type(node) is dict and "min_exp" in node and "order" in node:
            windows.append(node)
        for k, v in node.items() if type(node) is dict else enumerate(node):
            if type(node) is list:
                entries.append(path + (k,))
            if type(v) in (dict, list) and v:
                walk(v, path + (k,))
            else:
                leaves.append(path + (k,))

    walk(doc, ())
    hows = ["replace", "drop", "duplicate"] if entries else ["replace"]
    how = draw(st.sampled_from(hows + ["shift"] * 3 if windows else hows))
    if how == "shift":
        window = draw(st.sampled_from(windows))
        by = draw(st.integers() | st.sampled_from([10 ** 4400, -10 ** 4400]))  # BIG
        for k in ("min_exp", "order"):
            window[k] = _big_str(int(window[k]) + by)
        return doc
    path = draw(st.sampled_from(leaves if how == "replace" else entries))
    parent, k = reduce(getitem, path[:-1], doc), path[-1]
    if how == "replace":
        parent[k] = draw(LEAVES[k in SIZED])
    elif how == "drop":
        del parent[k]
    else:
        parent.insert(k, parent[k])
    return doc


def _exit(argv, doc) -> int:
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(json.dumps(doc))), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    err = err.getvalue()
    assert code in (0, 1, 2, 3), f"exit {code}:\n{err}"
    if code in (2, 3):
        assert err.startswith("error: ") and err.count("\n") == 1, err
    return code


def _fuzz(argv, docs, found=()):
    """A test of argv on any JSON value and on mutants of docs; found are
    inputs that once exited 70."""

    @settings(max_examples=300, deadline=None)
    @given(doc=JSON_VALUES[True] | st.sampled_from(docs).flatmap(mutants))
    def test(doc):
        _exit(argv, doc)

    for doc in found:
        test = example(doc=doc)(test)
    return test


def _with(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = reduce(getitem, path[:-1], doc)
    parent[path[-1]] = value
    return doc


RESIDUAL_PAST_THE_CAP = _with(PAIRS, ("series", "coeffs", 5), BIG)  # NotBpsForm's message
WINDOW_PAST_THE_CAP = _with(PAIRS, ("series", "min_exp"), "-" + BIG)  # the window message
NODES_PAST_THE_CAP = _with(NODAL[0], ("r",), BIG)  # r > g
NODE_LABEL_PAST_THE_CAP = {"g": 1, "r": 1, "chi": {"": 4, BIG: 7}}  # a node outside 0..r-1
MU_PAST_THE_CAP = _with(GERMS[0], ("mu",), BIG)  # MilnorMismatch, before any work
WINDOW_BELOW = {"min_exp": "-" + BIG, "order": "-" + BIG, "coeffs": [1]}  # too short a window
WINDOW_ABOVE = {"min_exp": BIG, "order": BIG, "coeffs": [1]}  # a peel over 10^4400 zeros
GENUS_PAST_THE_CAP = {"g": BIG, "r": "2" + BIG[1:], "chi": {"": 1}}  # r > g
NODES_PAST_THE_CAP_TOO = {"g": BIG, "r": BIG, "chi": {"": 1}}  # 2^r subsets

test_bps_decompose = _fuzz(["bps", "decompose"], [PAIRS, PAIRS["series"]],
                           [RESIDUAL_PAST_THE_CAP, WINDOW_PAST_THE_CAP, WINDOW_BELOW])
test_bps_decompose_g = _fuzz(["bps", "decompose", "--g", "2"], [PAIRS, PAIRS["series"]],
                             [RESIDUAL_PAST_THE_CAP, WINDOW_ABOVE])
test_bps_validate = _fuzz(["bps", "validate"], [PAIRS, PAIRS["series"]], [WINDOW_BELOW])
test_bps_validate_g = _fuzz(["bps", "validate", "--g", "2"], [PAIRS, PAIRS["series"]],
                            [WINDOW_ABOVE])
test_hilb_decompose = _fuzz(["hilb", "decompose", "--g", "1"], [HILB],
                            [_with(HILB, ("coeffs", 3), BIG), WINDOW_BELOW, WINDOW_ABOVE])
test_curve_nodal = _fuzz(["curve", "nodal"], NODAL,
                         [NODES_PAST_THE_CAP, NODE_LABEL_PAST_THE_CAP, GENUS_PAST_THE_CAP,
                          NODES_PAST_THE_CAP_TOO])
test_curve_nodal_order = _fuzz(["curve", "nodal", "--order", "6"], NODAL)
test_curve_qseries = _fuzz(["curve", "qseries"], GERMS)
test_curve_stratify = _fuzz(["curve", "stratify", "--g", "1", "--euler0", "0", "--order", "6"],
                            GERMS, [MU_PAST_THE_CAP])


def test_valid_documents_exit_0():
    for argv, docs in [(["bps", "decompose"], [PAIRS, PAIRS["series"]]),
                       (["bps", "validate", "--g", "2"], [PAIRS, PAIRS["series"]]),
                       (["hilb", "decompose", "--g", "1"], [HILB]),
                       (["curve", "nodal", "--order", "6"], NODAL),
                       (["curve", "qseries"], GERMS),
                       (["curve", "stratify", "--g", "1", "--euler0", "0", "--order", "6"],
                        GERMS)]:
        for doc in docs:
            assert _exit(argv, doc) == 0, (argv, doc)
