"""End-to-end CLI coverage: every verb, the exit-code contract, and
byte-determinism of the JSON output."""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import threading
import time
from decimal import Decimal

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from bpskit import BpsVector, InputError, __version__, bps_recompose, eta_power
from bpskit import cli as cli_module
from bpskit.cli import build_parser, run

NODE_GERM = {
    "delta": 1,
    "mu": 0,
    "q_euler": {
        "min_exp": 0,
        "order": 8,
        "coeffs": ["1", "1", "2", "3", "4", "5", "6", "7", "8"],
    },
}

ELLIPTIC_NODAL = {"g": 1, "r": 1, "chi": {"": 4, "0": 7}}


def series_json(min_exp, coeffs):
    return {
        "min_exp": min_exp,
        "order": min_exp + len(coeffs) - 1,
        "coeffs": [str(c) for c in coeffs],
    }


def cli(capsys, *argv):
    code = run(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def cli_json(capsys, *argv):
    code, out, err = cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestBpsVerbs:
    def test_recompose_decompose_roundtrip(self, capsys, tmp_path):
        f1 = tmp_path / "pairs.json"
        f2 = tmp_path / "vector.json"
        code, _, _ = cli(capsys, "bps", "recompose", "--g", "2", "--n", "3,-1,4",
                         "--order", "9", "--out", str(f1))
        assert code == 0
        code, _, _ = cli(capsys, "bps", "decompose", "--in", str(f1), "--out", str(f2))
        assert code == 0
        assert json.loads(f2.read_text()) == {"g": 2, "n": [3, -1, 4]}

    def test_recompose_default_window(self, capsys):
        obj = cli_json(capsys, "bps", "recompose", "--g", "3", "--n", "0,0,0,1")
        assert obj["series"]["order"] == 18

    def test_decompose_bare_series_infers_genus(self, capsys, monkeypatch):
        payload = json.dumps(series_json(-1, [1, 2, 1, 0, 0, 0, 0]))
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        obj = cli_json(capsys, "bps", "decompose")
        assert obj == {"g": 2, "n": [0, 0, 1]}

    def test_decompose_rejects_non_bps_polynomial(self, capsys, monkeypatch):
        payload = json.dumps(series_json(0, [1, 1, 0, 0, 0]))
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        code, _, err = cli(capsys, "bps", "decompose")
        assert code == 1 and "residual" in err

    def test_decompose_pairs_document_without_genus(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"series": series_json(0, [1, 2])})))
        code, out, err = cli(capsys, "bps", "decompose")
        assert (code, out, err) == (2, "", "error: bad pairs-series JSON: 'g'\n")

    def test_validate_pass(self, capsys, tmp_path):
        f1 = tmp_path / "pairs.json"
        cli(capsys, "bps", "recompose", "--g", "1", "--n", "1,-1", "--out", str(f1))
        code, out, _ = cli(capsys, "bps", "validate", "--in", str(f1))
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_validate_fail_names_identity(self, capsys, monkeypatch):
        payload = json.dumps(series_json(0, [1, 1, 0, 0, 0]))
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        code, out, err = cli(capsys, "bps", "validate")
        assert code == 1
        assert json.loads(out)["pass"] is False
        assert "identity_g0" in err and "q^2" in err

    def test_validate_fail_lists_every_failed_identity(self, capsys, monkeypatch):
        payload = json.dumps({"g": 3, "series": series_json(-3, [1, 0, 1, 3, 5, 7, 9, 11])})
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        code, out, err = cli(capsys, "bps", "validate")
        assert code == 1 and json.loads(out)["pass"] is False
        assert err == ("identity_0 fails first at q^-3\n"
                       "identity_gg fails first at q^2\n"
                       "identity_g0 fails first at q^3\n")

    def test_bad_multiplicity_string(self, capsys):
        code, _, err = cli(capsys, "bps", "recompose", "--g", "1", "--n", "1;2")
        assert code == 2 and "comma-separated" in err


class TestHilbVerb:
    def test_decompose(self, capsys, monkeypatch):
        payload = json.dumps(series_json(0, [1, 1, 2, 3, 4, 5]))
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        obj = cli_json(capsys, "hilb", "decompose", "--g", "1")
        assert obj == {"g": 1, "n": [1, 1]}

    def test_short_window_is_a_precondition_failure(self, capsys, monkeypatch):
        payload = json.dumps(series_json(0, [1, 0]))
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        code, _, _ = cli(capsys, "hilb", "decompose", "--g", "2")
        assert code == 3


class TestCurveVerbs:
    def test_nonsingular(self, capsys):
        obj = cli_json(capsys, "curve", "nonsingular", "--g", "2", "--chi", "5",
                       "--order", "6")
        assert obj["vector"] == {"g": 2, "n": [0, 0, 5]}
        assert obj["series"]["min_exp"] == -1

    def test_nodal_vector_only(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(ELLIPTIC_NODAL)))
        obj = cli_json(capsys, "curve", "nodal")
        assert obj == {"vector": {"g": 1, "n": [7, -4]}}

    def test_nodal_with_series(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(ELLIPTIC_NODAL)))
        obj = cli_json(capsys, "curve", "nodal", "--order", "5")
        assert obj["series"]["coeffs"][0] == "-4"
        f1 = tmp_path / "pairs.json"
        f1.write_text(json.dumps({"g": 1, "series": obj["series"]}))
        roundtrip = cli_json(capsys, "bps", "decompose", "--in", str(f1))
        assert roundtrip == obj["vector"]

    @pytest.mark.parametrize("chi, message", [
        ({"": 1, "0": 2, "00": 3}, "error: subset [0] is named by two keys\n"),
        ({"": 1, "0": 2, "-0": 3}, "error: subset [0] is named by two keys\n"),
        ({"": 1, "0": 2, "0,0": 3}, "error: subset [0, 0] names a node twice\n"),
    ], ids=["00", "-0", "0,0"])
    def test_nodal_keys_naming_one_subset_are_malformed(self, capsys, monkeypatch, chi, message):
        doc = {"g": 2, "r": 1, "chi": chi}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        assert cli(capsys, "curve", "nodal") == (2, "", message)

    def test_qseries(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(NODE_GERM)))
        assert cli_json(capsys, "curve", "qseries") == {"n": [-1, 1]}

    def test_stratify(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(NODE_GERM)))
        obj = cli_json(capsys, "curve", "stratify", "--g", "1", "--euler0", "0",
                       "--order", "6")
        assert obj["g"] == 1
        assert obj["series"]["coeffs"][:3] == ["1", "-1", "2"]

    def test_qseries_on_a_large_negative_mu(self, capsys, monkeypatch):
        # 2 delta + mu = -199998 once nested as many running sums and crashed
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({**NODE_GERM, "mu": -200000})))
        code, out, err = cli(capsys, "curve", "qseries")
        assert (code, out) == (1, "")
        assert err == ("error: residual coefficient 19999900000 at q^2 is not generated by "
                       "the delta = 1 punctual basis\n")

    def test_stratify_on_a_large_euler_characteristic(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({**NODE_GERM, "mu": -2000000})))
        t0 = time.perf_counter()
        obj = cli_json(capsys, "curve", "stratify", "--g", "1", "--euler0", "2000000",
                       "--order", "6")
        assert time.perf_counter() - t0 < 1.0
        assert obj["series"]["coeffs"][:3] == ["1", "-2000001", "2000003000002"]

    def test_stratify_milnor_mismatch(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(NODE_GERM)))
        code, _, err = cli(capsys, "curve", "stratify", "--g", "1", "--euler0", "1",
                           "--order", "5")
        assert code == 3 and "mu" in err

    def test_stratify_order_below_the_base_exponent(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(NODE_GERM)))
        code, out, err = cli(capsys, "curve", "stratify", "--g", "2", "--euler0", "-2",
                             "--order", "-2")
        assert (code, out) == (3, "")
        assert "order -2 is below the base exponent -1" in err


class TestK3Verbs:
    def test_yz_csv(self, capsys):
        code, out, _ = cli(capsys, "k3", "yz", "--hmax", "4", "--format", "csv")
        assert code == 0
        assert out == "h,r_0h\n0,1\n1,24\n2,324\n3,3200\n4,25650\n"

    def test_yz_json(self, capsys):
        obj = cli_json(capsys, "k3", "yz", "--hmax", "3")
        assert obj["coeffs"] == ["1", "24", "324", "3200"]

    def test_ky(self, capsys):
        obj = cli_json(capsys, "k3", "ky", "--hmax", "1", "--yorder", "4")
        assert obj["rows"][1]["terms"] == {
            "0": "2", "1": "24", "2": "48", "3": "72", "4": "96",
        }

    def test_kkv_csv(self, capsys):
        code, out, _ = cli(capsys, "k3", "kkv", "--hmax", "1", "--format", "csv")
        assert code == 0
        assert out == "g,h,r_gh\n0,0,1\n0,1,24\n1,1,-2\n"

    def test_kkv_json(self, capsys):
        obj = cli_json(capsys, "k3", "kkv", "--hmax", "2")
        assert {"g": 2, "h": 2, "r": "3"} in obj["rows"]

    def test_signed_check(self, capsys):
        obj = cli_json(capsys, "k3", "signed-check", "--hmax", "2", "--yorder", "6")
        assert obj["pass"] is True

    def test_signed_check_mismatch_exits_1(self, capsys, monkeypatch):
        check = cli_module.signed_conversion_check
        monkeypatch.setattr("bpskit.cli.signed_conversion_check",
                            lambda h_max, y_order: check(h_max, y_order, tamper=(1, 1, 2)))
        code, out, err = cli(capsys, "k3", "signed-check", "--hmax", "2", "--yorder", "6")
        assert code == 1 and json.loads(out)["first_mismatch"] == [1, 1]
        assert err == "signed conversion fails first at y^1 q^1\n"


class TestSeriesVerbs:
    def test_eta_pentagonal(self, capsys):
        obj = cli_json(capsys, "series", "eta", "--order", "12", "--exponent", "1")
        assert obj["coeffs"] == ["1", "-1", "-1", "0", "0", "1", "0", "1",
                                 "0", "0", "0", "0", "-1"]

    def test_eta_partition_csv(self, capsys):
        code, out, _ = cli(capsys, "series", "eta", "--order", "5",
                           "--exponent", "-1", "--format", "csv")
        assert code == 0
        assert out == "n,coeff\n0,1\n1,1\n2,2\n3,3\n4,5\n5,7\n"


class TestExitCodes:
    def test_malformed_json_is_input_error(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("{not json"))
        code, _, err = cli(capsys, "bps", "decompose")
        assert code == 2 and "invalid JSON" in err

    def test_missing_file_is_input_error(self, capsys, tmp_path):
        code, _, _ = cli(capsys, "bps", "decompose", "--in", str(tmp_path / "no.json"))
        assert code == 2

    def test_input_that_is_not_utf8_is_input_error(self, capsys, monkeypatch, tmp_path):
        doc = json.dumps(series_json(0, [1, 2])).encode() + b"\xff"
        path = tmp_path / "bad.json"
        path.write_bytes(doc)
        code, out, err = cli(capsys, "bps", "decompose", "--in", str(path))
        assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(doc), encoding="utf-8"))
        code, out, err = cli(capsys, "bps", "decompose")
        assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1

    def test_closed_stdin_is_input_error(self):
        # a process started without fd 0 has sys.stdin None
        proc = _bpskit("bps", "decompose", capture_output=True, text=True,
                       preexec_fn=lambda: os.close(0))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: cannot read -: stdin is closed\n"

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = cli(capsys, "k3", "yz", "--hmax", "2", "--frmt", "csv")
        assert code == 2

    def test_version(self, capsys):
        code, out, _ = cli(capsys, "--version")
        assert code == 0 and out == "bpskit 0.1.0\n"

    def test_float_or_bool_coefficient_is_input_error(self, capsys, monkeypatch):
        payload = json.dumps({"min_exp": 0, "order": 2, "coeffs": [1.9, 2, True]})
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        code, out, err = cli(capsys, "bps", "decompose", "--g", "1")
        assert code == 2 and out == "" and "1.9" in err

    def test_short_window_is_precondition_error(self, capsys):
        code, _, _ = cli(capsys, "bps", "recompose", "--g", "0", "--n", "5",
                         "--order", "0")
        assert code == 3

    def test_internal_error_is_software_error(self, capsys, monkeypatch):
        def broken(e, order):
            raise ArithmeticError("planted engine fault")

        monkeypatch.setattr("bpskit.cli.eta_power", broken)
        code, _, err = cli(capsys, "series", "eta", "--order", "10")
        assert code == 70
        assert "Traceback" in err and "planted engine fault" in err

    def test_bare_value_error_is_software_error(self, capsys, monkeypatch):
        # malformed input raises InputError; any other ValueError is a bug
        def broken(args):
            raise ValueError("planted verb fault")

        _fn, flags = cli_module._VERBS["series", "eta"]
        monkeypatch.setitem(cli_module._VERBS, ("series", "eta"), (broken, flags))
        code, out, err = cli(capsys, "series", "eta", "--order", "10")
        assert (code, out) == (70, "")
        assert "Traceback" in err and "ValueError: planted verb fault" in err

    def test_input_error_is_a_value_error(self):
        assert isinstance(InputError("x"), ValueError)
        with pytest.raises(ValueError, match="order must be non-negative"):
            eta_power(1, -1)


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (("series", "eta", "--order", "1200", "--exponent", "-24"),
             "48bcb427db624378f27c480046d7a5a404f73d71730a9700ed59ad7a29add4e5"),
            (("k3", "yz", "--hmax", "800", "--format", "csv"),
             "830690dc7f9cced38eb79dad28baea6bdcf7785e6e4f9363c1d0c5a01ffe6736"),
            (("k3", "kkv", "--hmax", "60"),
             "5067b32b6a020201c4d63d65441be409ca140d217b17dbd86c2cc392455eae18"),
            (("k3", "kkv", "--hmax", "59", "--format", "csv"),
             "a399b1b7977b0ece122f5f4547e8b3fc70b400bf1c5a070d638e6b87eef85c6e"),
            (("k3", "ky", "--hmax", "40", "--yorder", "600"),
             "94d3d488a58dec6f29505c386b19c6e1c1c5b596e34188a82b8ed60b17d3de44"),
            (("k3", "signed-check", "--hmax", "30", "--yorder", "300"),
             "4e4808d8d6ea17d256ebe614a2ceb1694688ec3fd88da65f8a893a260216b1c4"),
        ],
    )
    def test_pinned_output_bytes(self, capsys, argv, digest):
        # digests recorded from the factor-at-a-time product engine
        code, out, _ = cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_identical_runs_identical_bytes(self, capsys):
        _, out1, _ = cli(capsys, "k3", "kkv", "--hmax", "3")
        _, out2, _ = cli(capsys, "k3", "kkv", "--hmax", "3")
        assert out1 == out2

    def test_output_is_canonical_json(self, capsys):
        _, out, _ = cli(capsys, "k3", "ky", "--hmax", "2", "--yorder", "5")
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def _assert_canonical(out):
    """out is json.dumps(sort_keys=True, indent=2) of itself, read with the
    int <-> str digit cap lifted."""
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
    finally:
        sys.set_int_max_str_digits(cap)


PAIRS_G2 = bps_recompose(BpsVector(2, (3, -1, 4)), 9).to_json()
NOT_BPS = series_json(0, [1, 1, 0, 0, 0])
# every verb that writes a dict, passing and failing: (exit code, argv, stdin)
DICT_VERBS = [
    (0, ("bps", "recompose", "--g", "2", "--n", "3,-1,4", "--order", "9"), None),
    (0, ("bps", "decompose"), PAIRS_G2),
    (0, ("bps", "validate"), PAIRS_G2),
    (1, ("bps", "validate"), NOT_BPS),
    (0, ("hilb", "decompose", "--g", "1"), series_json(0, [1, 1, 2, 3, 4, 5])),
    (0, ("curve", "nonsingular", "--g", "2", "--chi", "5", "--order", "6"), None),
    (0, ("curve", "nodal"), ELLIPTIC_NODAL),
    (0, ("curve", "nodal", "--order", "5"), ELLIPTIC_NODAL),
    (0, ("curve", "qseries"), NODE_GERM),
    (0, ("curve", "stratify", "--g", "1", "--euler0", "0", "--order", "6"), NODE_GERM),
    (0, ("k3", "yz", "--hmax", "12"), None),
    (0, ("k3", "signed-check", "--hmax", "3", "--yorder", "8"), None),
    (0, ("series", "eta", "--order", "40", "--exponent", "-24", "--format", "json"), None),
]


@pytest.mark.parametrize("want, argv, doc", DICT_VERBS,
                         ids=[" ".join(argv) + f" -> {want}" for want, argv, _doc in DICT_VERBS])
def test_dict_documents_are_canonical_bytes(capsys, monkeypatch, want, argv, doc):
    if doc is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out, err = cli(capsys, *argv)
    assert code == want, err
    _assert_canonical(out)


def test_dict_documents_past_the_digit_cap_are_canonical_bytes(capsys, tmp_path):
    big = "-" + "7" * 4400
    pairs = tmp_path / "pairs.json"
    code, _, err = cli(capsys, "bps", "recompose", "--g", "1", f"--n={big},2", "--out", str(pairs))
    assert code == 0, err
    _assert_canonical(pairs.read_text())
    code, out, err = cli(capsys, "bps", "decompose", "--in", str(pairs))
    assert code == 0, err
    _assert_canonical(out)  # JSON numbers past the cap
    assert out.startswith('{\n  "g": 1,\n  "n": [\n    ' + big + ",\n    2\n  ]")


# Out-of-range arguments that the engines reject with InputError; run()
# must report each as malformed input: exit 2, one error line.
OUT_OF_RANGE = [
    ("k3", "ky", "--hmax", "-1", "--yorder", "5"),
    ("k3", "kkv", "--hmax", "-1"),
    ("series", "eta", "--order", "-1"),
    ("bps", "recompose", "--g", "1", "--n", "1"),
    ("hilb", "decompose", "--g", "-1"),
    ("curve", "nonsingular", "--g", "-1", "--chi", "1"),
    ("k3", "yz", "--hmax", "-1"),
    ("k3", "signed-check", "--hmax", "-1", "--yorder", "5"),
    ("k3", "ky", "--hmax", "2", "--yorder", "-1"),
    ("bps", "decompose", "--g", "-1"),
    ("bps", "validate", "--g", "-1"),
    ("curve", "stratify", "--g", "-1", "--euler0", "0"),
    ("curve", "stratify", "--g", "-1", "--euler0", "4"),
    ("curve", "stratify", "--g", "-1", "--euler0", "4", "--order", "3"),
]


@pytest.mark.parametrize("argv", OUT_OF_RANGE, ids=" ".join)
def test_out_of_range_arguments_exit_2(capsys, monkeypatch, argv):
    doc = NODE_GERM if argv[0] == "curve" else series_json(0, [1, 2, 3, 4])
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out, err = cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


# Integer flags past CPython's int <-> str digit cap: an error message that
# names the number prints it in full instead of failing on it (exit 70).
BIG = "1" + "0" * 4400
PAST_THE_CAP = [
    (3, ("bps", "recompose", "--g", BIG, "--n", "1")),
    (3, ("bps", "recompose", "--g", "1", "--n", "1,2", "--order", "-" + BIG)),
    (2, ("bps", "decompose", "--g", "-" + BIG)),
    (3, ("bps", "decompose", "--g", BIG)),
    (2, ("bps", "validate", "--g", "-" + BIG)),
    (3, ("hilb", "decompose", "--g", BIG)),
    (3, ("curve", "nonsingular", "--g", "1", "--chi", "1", "--order", "-" + BIG)),
    (3, ("curve", "nodal", "--order", "-" + BIG)),
    (3, ("curve", "stratify", "--g", BIG, "--euler0", "0")),
    (3, ("curve", "stratify", "--g", "1", "--euler0", "0", "--order", BIG)),
    (3, ("curve", "stratify", "--g", "1", "--euler0", "0", "--order", "-" + BIG)),
    (3, ("curve", "stratify", "--g", "1", "--euler0", BIG)),  # MilnorMismatch names e_smooth
]


@pytest.mark.parametrize("want, argv", PAST_THE_CAP,
                         ids=[" ".join(argv).replace(BIG, "BIG") for _want, argv in PAST_THE_CAP])
def test_flags_past_the_digit_cap(capsys, monkeypatch, want, argv):
    doc = {"nodal": ELLIPTIC_NODAL, "stratify": NODE_GERM}.get(argv[1], series_json(0, [1]))
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    cap = sys.get_int_max_str_digits()
    code, out, err = cli(capsys, *argv)
    assert (code, out) == (want, ""), err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert sys.get_int_max_str_digits() == cap  # run() leaves the interpreter's cap alone


def test_validate_names_a_failing_exponent_past_the_digit_cap(capsys, monkeypatch):
    # q^BIG, its window ends written as JSON numbers: identity_g0 fails at q^BIG
    doc = '{"min_exp": %s, "order": %s, "coeffs": ["1"]}' % (BIG, BIG)
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    code, out, err = cli(capsys, "bps", "validate", "--g", "1")
    assert code == 1
    assert err == f"identity_g0 fails first at q^{BIG}\n"
    assert f'"first_fail_exponent": {BIG},\n' in out


def test_a_list_past_the_digit_cap_for_an_integer_is_malformed_input(capsys, monkeypatch):
    # the message names the type: the list's repr would need str() of its entry
    monkeypatch.setattr("sys.stdin", io.StringIO('{"min_exp": [%s], "order": 1, "coeffs": []}' % BIG))
    code, out, err = cli(capsys, "bps", "decompose", "--g", "1")
    assert (code, out) == (2, "")
    assert err == "error: min_exp must be an integer or a decimal string, not a list\n"


def test_overlapping_runs_leave_the_digit_cap_alone(monkeypatch):
    # the calls run in this order: 1 enters its command, 2 enters, 1 returns, 2 returns
    entered = [threading.Event(), threading.Event()]
    first_returned = threading.Event()

    def command(args):
        entered[args.hmax].set()
        assert (first_returned if args.hmax else entered[1]).wait(10)

    monkeypatch.setitem(cli_module._VERBS, ("k3", "yz"), (command, cli_module._VERBS["k3", "yz"][1]))
    codes = [None, None]
    calls = [threading.Thread(target=lambda i=i: codes.__setitem__(
        i, run(["k3", "yz", "--hmax", str(i)]))) for i in (0, 1)]
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        calls[0].start()
        assert entered[0].wait(10)
        calls[1].start()
        calls[0].join(10)
        first_returned.set()
        calls[1].join(10)
        assert codes == [0, 0]
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(cap)


# Counts and windows past sys.maxsize, longer than any list: exit 3 with one
# error line, before any loop or allocation over the window.  These exited
# 70 (OverflowError) or ran the pentagonal loop for hours.
HUGE = str(10 ** 20)
PAST_MAXSIZE = [
    ("bps", "recompose", "--g", "1", "--n", "1,2", "--order", HUGE),
    ("bps", "decompose", "--g", HUGE),
    ("hilb", "decompose", "--g", HUGE),
    ("curve", "nonsingular", "--g", HUGE, "--chi", "1"),
    ("curve", "nonsingular", "--g", "1", "--chi", "1", "--order", HUGE),
    ("curve", "nodal", "--order", HUGE),
    ("curve", "stratify", "--g", HUGE, "--euler0", "0"),
    ("k3", "ky", "--hmax", "2", "--yorder", HUGE),
    ("k3", "ky", "--hmax", HUGE, "--yorder", "5"),
    ("k3", "signed-check", "--hmax", "2", "--yorder", HUGE),
    ("k3", "signed-check", "--hmax", HUGE, "--yorder", "5"),
    ("k3", "yz", "--hmax", HUGE),
    ("k3", "kkv", "--hmax", HUGE),
    ("series", "eta", "--order", HUGE),
]


@pytest.mark.parametrize("argv", PAST_MAXSIZE, ids=lambda argv: " ".join(argv).replace(HUGE, "HUGE"))
def test_windows_past_maxsize_exit_3(capsys, monkeypatch, argv):
    doc = {"nodal": ELLIPTIC_NODAL, "stratify": NODE_GERM}.get(argv[1], series_json(0, [1, 2, 3]))
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out, err = cli(capsys, *argv)
    assert (code, out) == (3, ""), err
    assert err.startswith("error: ") and err.count("\n") == 1 and "sys.maxsize" in err


class TestProcessExit:
    """main() ends the process with os._exit; each run is a real process,
    since os._exit would end pytest itself."""

    def test_out_file_is_complete(self, capsys, tmp_path):
        argv = ("k3", "ky", "--hmax", "30", "--yorder", "400")
        target = tmp_path / "ky.json"
        proc = _bpskit(*argv, "--out", str(target), capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
        code, out, _ = cli(capsys, *argv)
        assert code == 0 and target.read_text() == out

    def test_piped_stdout_is_complete(self, capsys):
        argv = ("k3", "kkv", "--hmax", "40")
        proc = _bpskit(*argv, capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        code, out, _ = cli(capsys, *argv)
        assert code == 0 and proc.stdout == out and len(out) > 8192  # past one stdout buffer

    def test_version(self, capsys):
        proc = _bpskit("--version", capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == cli(capsys, "--version")[:2]

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_flush_after_run_into_a_pipe_without_a_reader(self, unbuffered):
        # buffered, --version leaves its line in stdout's buffer and the
        # flush in main() fails; unbuffered, the write itself fails
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        r, w = os.pipe()
        os.close(r)
        try:
            proc = _bpskit("--version", stdout=w, stderr=subprocess.PIPE, text=True, env=env)
        finally:
            os.close(w)
        assert proc.returncode == 74
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr

    def test_error_line_and_status(self):
        proc = _bpskit("series", "eta", "--order", "-1", capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: order must be non-negative\n"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bpskit", "k3", "yz", "--hmax", "3"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["coeffs"] == ["1", "24", "324", "3200"]


# every integer flag of every verb, with the other flags the verb requires
INT_FLAGS = [
    (("bps", "recompose"), {"--g": "1", "--n": "1,2"}, ("--g", "--order")),
    (("bps", "decompose"), {}, ("--g",)),
    (("bps", "validate"), {}, ("--g",)),
    (("hilb", "decompose"), {"--g": "1"}, ("--g",)),
    (("curve", "nonsingular"), {"--g": "1", "--chi": "1"}, ("--g", "--chi", "--order")),
    (("curve", "nodal"), {}, ("--order",)),
    (("curve", "stratify"), {"--g": "1", "--euler0": "0"}, ("--g", "--euler0", "--order")),
    (("k3", "ky"), {"--hmax": "1", "--yorder": "1"}, ("--hmax", "--yorder")),
    (("k3", "kkv"), {"--hmax": "1"}, ("--hmax",)),
    (("k3", "yz"), {"--hmax": "1"}, ("--hmax",)),
    (("k3", "signed-check"), {"--hmax": "1", "--yorder": "1"}, ("--hmax", "--yorder")),
    (("series", "eta"), {"--order": "1"}, ("--order", "--exponent")),
]
INT_CASES = [(verb, req, flag) for verb, req, flags in INT_FLAGS for flag in flags]


def _argv(verb, required, flag, value):
    args = dict(required)
    args[flag] = value
    return [*verb, *(t for kv in args.items() for t in kv)]


class TestIntegerFlags:
    def test_table_names_every_typed_flag(self):
        typed = set()
        for verb, (_fn, flags) in cli_module._VERBS.items():
            for flag, (kind, _default) in flags.items():
                if kind is not str and type(kind) is not tuple:  # not a string, not choices
                    assert kind is cli_module._integer
                    typed.add((verb, flag))
        assert typed == {(verb, flag) for verb, _req, flag in INT_CASES}

    @pytest.mark.parametrize("bad", [" 1", "1_0", "+1", "\uff11", "1.0"])
    @pytest.mark.parametrize("verb, required, flag", INT_CASES)
    def test_rejects_what_int_would_coerce(self, capsys, verb, required, flag, bad):
        code, out, err = cli(capsys, *_argv(verb, required, flag, bad))
        assert code == 2 and out == ""
        assert "expected an integer" in err and flag in err

    @pytest.mark.parametrize("good, value", [("12", 12), ("-3", -3)])
    @pytest.mark.parametrize("verb, required, flag", INT_CASES)
    def test_parses_decimal_integers(self, verb, required, flag, good, value):
        args = build_parser().parse_args(_argv(verb, required, flag, good))
        assert getattr(args, flag.lstrip("-")) == value

    def test_underscored_hmax_is_a_usage_error(self, capsys):
        code, out, _ = cli(capsys, "k3", "yz", "--hmax", " 1_0", "--format", "csv")
        assert code == 2 and out == ""

    def test_multiplicities_follow_the_same_rule(self, capsys):
        code, _, err = cli(capsys, "bps", "recompose", "--g", "1", "--n", "1,+2")
        assert code == 2 and "comma-separated" in err


def _bpskit(*argv, **kw):
    return subprocess.run([sys.executable, "-m", "bpskit", *argv], timeout=60, **kw)


class TestOutputFailures:
    def _assert_io_error(self, code, err):
        assert code == 74
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err and "Exception ignored" not in err

    def test_reader_closing_the_pipe(self):
        # bpskit k3 yz --hmax 2000 --format csv | head -1: about 300 kB, more
        # than a pipe holds, so the writer is still writing when head exits
        proc = subprocess.Popen(
            [sys.executable, "-m", "bpskit", "k3", "yz", "--hmax", "2000", "--format", "csv"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        assert proc.stdout.readline() == "h,r_0h\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        self._assert_io_error(proc.wait(timeout=60), err)

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_reader_closing_the_pipe_mid_write(self, unbuffered):
        # the reader goes while the writer is blocked inside its one write of
        # the rows: the kernel returns the part written, which a text layer
        # straight over the file (PYTHONUNBUFFERED) takes for the whole write
        # unless a buffered writer sits between them
        import array
        import fcntl
        import termios

        proc = subprocess.Popen(
            [sys.executable, "-m", "bpskit", "k3", "yz", "--hmax", "2000", "--format", "csv"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONUNBUFFERED=unbuffered),  # "" leaves it unset
        )
        fd = proc.stdout.fileno()
        capacity = fcntl.fcntl(fd, fcntl.F_GETPIPE_SZ)
        assert 4 * capacity < 297950, "the output would not fill the pipe many times over"
        assert os.read(fd, 7) == b"h,r_0h\n"
        pending = array.array("i", [0])
        while pending[0] < capacity // 2 and proc.poll() is None:  # until the rows flow
            time.sleep(0.01)
            fcntl.ioctl(fd, termios.FIONREAD, pending)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        self._assert_io_error(proc.wait(timeout=60), err)

    def test_pipe_without_a_reader(self):
        # the short output fails at the final flush, still inside run()
        r, w = os.pipe()
        os.close(r)
        try:
            proc = _bpskit("k3", "yz", "--hmax", "3", stdout=w, stderr=subprocess.PIPE,
                           text=True)
        finally:
            os.close(w)
        self._assert_io_error(proc.returncode, proc.stderr)

    @pytest.mark.parametrize("argv", [("--version",), ("k3", "yz", "--hmax", "3")], ids=" ".join)
    def test_no_stdout(self, argv):
        # a process started without fd 1 has sys.stdout None
        proc = _bpskit(*argv, stderr=subprocess.PIPE, text=True, preexec_fn=lambda: os.close(1))
        self._assert_io_error(proc.returncode, proc.stderr)
        assert proc.stderr == "error: stdout is closed\n"

    def test_missing_output_directory(self, tmp_path):
        target = tmp_path / "missing" / "x.json"
        proc = _bpskit("k3", "yz", "--hmax", "3", "--out", str(target),
                       capture_output=True, text=True)
        self._assert_io_error(proc.returncode, proc.stderr)
        assert proc.stdout == "" and str(target) in proc.stderr


def test_coefficients_past_the_digit_limit(capsys):
    # (1+q)^15998 q^-7999 through q^0: the middle binomials have 4,800 digits
    obj = cli_json(capsys, "curve", "nonsingular", "--g", "8000", "--chi", "1", "--order", "0")
    coeffs = obj["series"]["coeffs"]
    assert (obj["series"]["min_exp"], obj["series"]["order"]) == (-7999, 0)
    assert max(map(len, coeffs)) > 4300
    want = [1]  # C(15998, k) by the exact ratio; math.comb for all 8000 takes seconds
    for k in range(7999):
        want.append(want[-1] * (15998 - k) // (k + 1))
    assert all(want[k] == math.comb(15998, k) for k in [*range(0, 8000, 250), 7999])
    # Decimal reads and compares integers without the int <-> str digit limit
    assert [Decimal(c) for c in coeffs] == [Decimal(v) for v in want]


# -- the grammar against argparse --------------------------------------------


def _argparse_oracle():
    """The argparse tree of the same verb table: the grammar the table
    parser must keep."""
    ap = argparse.ArgumentParser(prog="bpskit")
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    groups = ap.add_subparsers(dest="group", required=True)
    verbs = {}
    for (group, verb), (fn, flags) in cli_module._VERBS.items():
        if group not in verbs:
            verbs[group] = groups.add_parser(group).add_subparsers(dest="verb", required=True)
        p = verbs[group].add_parser(verb)
        for flag, (kind, default) in flags.items():
            kw = {"choices": kind} if type(kind) is tuple else {"type": kind}
            if default is cli_module._REQUIRED:
                kw["required"] = True
            else:
                kw["default"] = default
            p.add_argument(flag, dest="infile" if flag == "--in" else flag[2:], **kw)
        p.set_defaults(fn=fn)
    return ap


ORACLE = _argparse_oracle()
VERBS_OF = {}
for _group, _verb in cli_module._VERBS:
    VERBS_OF.setdefault(_group, []).append(_verb)
# flag values: integers, '-', texts that look like options or negative
# numbers, texts that _integer rejects, and --format choices.  The oracle
# is the argparse of the running Python, so texts whose reading has moved
# between argparse releases (--, and a '-' and a digit followed by more
# than a number, such as -1,2) are left out.
VALUES = ["0", "7", "12", "-3", "0", "7", "-", "", " 1", "1_0", "+1", "１", "1.0", "-1.5",
          "x", "json", "csv", "xml", "out.json", "-x", "1,2", "--in", "a b"]


@st.composite
def command_lines(draw):
    group = draw(st.sampled_from([*VERBS_OF, "bogus"]))
    verb = draw(st.sampled_from([*VERBS_OF.get(group, ()), "bogus"]))
    flags = list(cli_module._VERBS.get((group, verb), (None, {}))[1])
    names = [*flags, *flags, *flags, "--help", "--frmt", "-x", "-h"]
    tail = []
    for _ in range(draw(st.integers(0, 7))):
        name = draw(st.sampled_from(names))
        if name.startswith("--"):  # the full name or a prefix, unique or not
            name = name[:draw(st.integers(3, len(name)))]
        value = draw(st.sampled_from(VALUES))
        glue = draw(st.sampled_from(["next", "next", "=", "none"]))
        tail += [name, value] if glue == "next" else [name + "=" + value] if glue == "=" else [name]
    head = draw(st.sampled_from([[]] * 6 + [["--version"], ["-h"], ["--frmt"], ["--ver"]]))
    kept = draw(st.sampled_from([2] * 8 + [0, 1]))  # sometimes no verb, or no group
    return [*head, *[group, verb][:kept], *tail]


def _outcome(parse, argv):
    """(the namespace as a dict, or the exit code; stdout; stderr) of parse(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None)
@given(argv=command_lines())
@example(argv=["series", "eta", "--ord=6", "--exp", "-1", "--form", "csv"])  # prefixes and =
@example(argv=["k3", "yz", "--hmax", "3", "--hmax", "-4"])  # the last of a repeated flag wins
@example(argv=["bps", "recompose", "--g", "1", "--n", "-1"])  # a negative number is a value
@example(argv=["bps", "recompose", "--g", "1", "--n=-1,2"])
@example(argv=["curve", "nodal", "--in", "-", "--out", "-"])
@example(argv=["k3", "yz", "--h", "3"])  # --help or --hmax
@example(argv=["k3", "ky", "--hmax", "2"])  # --yorder missing
@example(argv=["k3", "kkv", "--hmax", "2", "--format", "xml"])
@example(argv=["k3", "kkv", "--hmax", "2", "extra"])
@example(argv=["k3", "kkv", "--hmax", "x"])
@example(argv=["k3", "bogus"])
@example(argv=[])
def test_parser_matches_argparse(argv):
    want, want_out, _ = _outcome(ORACLE.parse_args, argv)
    got, out, err = _outcome(build_parser().parse_args, argv)
    assert got == want
    if want == 2:  # rejected: nothing on stdout, a usage line and an error line
        assert out == ""
        assert err.startswith("usage: bpskit") and err.count("\n") == 2, err
        assert ": error: " in err.splitlines()[1]
    elif want == 0:  # --version prints argparse's line, -h a help page
        assert out == want_out if want_out.startswith("bpskit ") else out.startswith("usage: bpskit")


@pytest.mark.parametrize("argv", [("series", "eta", "--order", "30", "--format", "csv"),
                                  ("k3", "kkv", "--hmax", "5")], ids=" ".join)
def test_verb_loads_no_argparse_csv_or_json(argv):
    script = ("import sys; before = set(sys.modules); from bpskit.cli import run; "
              f"code = run({list(argv)!r}); sys.stdout.flush(); "
              "print(code, sorted({'argparse', 'csv', 'json'} & set(sys.modules) - before), "
              "file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60)
    assert proc.stderr == "0 []\n"
