"""End-to-end CLI coverage: every verb, the exit-code contract, and
byte-determinism of the JSON output."""

import argparse
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from decimal import Decimal

import pytest

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

    def test_qseries(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(NODE_GERM)))
        assert cli_json(capsys, "curve", "qseries") == {"n": [-1, 1]}

    def test_stratify(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(NODE_GERM)))
        obj = cli_json(capsys, "curve", "stratify", "--g", "1", "--euler0", "0",
                       "--order", "6")
        assert obj["g"] == 1
        assert obj["series"]["coeffs"][:3] == ["1", "-1", "2"]

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
        for group in build_parser()._actions:
            if not isinstance(group, argparse._SubParsersAction):
                continue
            for gname, gparser in group.choices.items():
                for verbs in gparser._actions:
                    if not isinstance(verbs, argparse._SubParsersAction):
                        continue
                    for vname, vparser in verbs.choices.items():
                        for action in vparser._actions:
                            if action.type is not None:
                                assert action.type is cli_module._integer
                                typed.add(((gname, vname), action.option_strings[0]))
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
