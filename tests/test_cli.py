"""End-to-end CLI coverage: every verb, the exit-code contract, and
byte-determinism of the JSON output."""

import hashlib
import io
import json
import subprocess
import sys

import pytest

from bpskit.cli import run

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
