"""Tests of the benchmark itself: seeded inputs, output checks and the
metric names it prints.  Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import csv
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def M():
    return run.load_bpskit(ROOT / "src")


def small_jobs():
    return [
        workloads._job("series_eta", ["series", "eta", "--order", "40", "--exponent", "-24"],
                       e=-24, order=40, fmt="json"),
        workloads._job("series_eta", ["series", "eta", "--order", "30", "--exponent", "24",
                                      "--format", "csv"], e=24, order=30, fmt="csv"),
        workloads._job("k3_yz", ["k3", "yz", "--hmax", "25", "--format", "csv"],
                       e=-24, order=25, fmt="csv"),
        workloads._job("k3_kkv", ["k3", "kkv", "--hmax", "8"], h_max=8, fmt="json"),
        workloads._job("k3_kkv", ["k3", "kkv", "--hmax", "7", "--format", "csv"], h_max=7, fmt="csv"),
        workloads._job("k3_ky", ["k3", "ky", "--hmax", "6", "--yorder", "30"], h_max=6, y_order=30),
        workloads._job("k3_signed-check", ["k3", "signed-check", "--hmax", "5", "--yorder", "20"],
                       h_max=5, y_order=20),
    ]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert workloads.inputs_bytes(workload, 7) == workloads.inputs_bytes(workload, 7)
    assert workloads.inputs_bytes(workload, 7) != workloads.inputs_bytes(workload, 8)


def test_batch_mix_has_fixed_shares():
    reqs = workloads.bps_batch_requests(3)
    assert len(reqs) == 2000
    planted = [r["planted"] for r in reqs if r["planted"]]
    assert planted.count("huge") == planted.count("float") == 10
    not_form = [r for r in reqs if isinstance(r["expect"], workloads.Reject) and not r["planted"]]
    invalid_reports = [r for r in reqs if r["op"] == "validate"
                       and r["expect"]["pass"] is False]
    assert len(not_form) + len(invalid_reports) == 200


def test_oracles_against_known_values():
    assert oracles.eta_power(-24, 3) == [1, 24, 324, 3200]
    assert oracles.eta_power(1, 7) == [1, -1, -1, 0, 0, 1, 0, 1]  # Euler's pentagonal series
    n = 10 ** 5000 + 12345
    assert oracles.big_int(oracles.big_str(-n)) == -n
    with pytest.raises(ValueError):
        oracles.big_int("12a")


def bump_json_coeff(text):
    obj = json.loads(text)
    if "coeffs" in obj:
        obj["coeffs"][len(obj["coeffs"]) // 2] = str(int(obj["coeffs"][len(obj["coeffs"]) // 2]) + 1)
    elif "rows" in obj and "terms" in obj["rows"][-1]:
        terms = obj["rows"][-1]["terms"]
        key = sorted(terms, key=int)[len(terms) // 2]
        terms[key] = str(int(terms[key]) + 1)
    elif "rows" in obj:
        row = obj["rows"][len(obj["rows"]) // 2]
        row["r"] = str(int(row["r"]) + 1)
    else:
        obj["first_mismatch"] = [1, 1]
    return json.dumps(obj)


def bump_csv_coeff(text):
    rows = list(csv.reader(io.StringIO(text)))
    rows[len(rows) // 2][-1] = str(int(rows[len(rows) // 2][-1]) + 1)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def test_cli_output_with_one_bumped_coefficient_fails(M):
    jobs = small_jobs()
    oracle = workloads.CliOracle(jobs)
    tally = run.Tally()
    for job in jobs:
        _ns, code, out, err = run.run_cli_inprocess(M, job["argv"])
        assert oracle.check(job, code, out, err) is None, job["argv"]
        bumped = bump_csv_coeff(out) if job["params"].get("fmt") == "csv" else bump_json_coeff(out)
        problem = oracle.check(job, code, bumped, err)
        assert problem is not None, job["argv"]
        tally.record(1, problem)
    assert tally.failed == len(jobs)


def test_batch_output_with_one_bumped_coefficient_fails(M):
    ops = workloads.batch_ops(M)
    checked = set()
    for req in workloads.bps_batch_requests(5)[:300]:
        if req["planted"] or isinstance(req["expect"], workloads.Reject):
            continue
        _ns, outcome = run.timed_request(ops, req)
        assert workloads.check_request(req, outcome) is None, req["op"]
        obj = json.loads(outcome[1])
        target = obj.get("series", obj)
        if "coeffs" in target and target["coeffs"]:
            target["coeffs"][-1] = str(int(target["coeffs"][-1]) + 1)
        elif "n" in target:
            target["n"][-1] = int(target["n"][-1]) + 1
        else:
            continue
        assert workloads.check_request(req, ("ok", json.dumps(obj))) is not None, req["op"]
        checked.add(req["op"])
    assert checked >= {"recompose", "decompose", "hilbert", "nodal", "qseries", "stratify",
                       "mul", "inverse"}


def test_planted_rejection_must_be_the_right_error(M):
    req = {"expect": workloads.Reject("NotBpsForm", 4), "planted": None}
    assert workloads.check_request(req, ("ok", "{}")) is not None
    assert workloads.check_request(req, ("raise", M.pkg.NotBpsForm("x", exponent=3))) is not None
    assert workloads.check_request(req, ("raise", M.pkg.NotBpsForm("x", exponent=4))) is None


def test_planted_huge_requests_expect_the_exact_answer(M):
    # With the digit limit lifted, the code as written answers these
    # correctly, which shows the oracle's expected values are right.
    ops = workloads.batch_ops(M)
    huge = [r for r in workloads.bps_batch_requests(4) if r["planted"] == "huge"]
    assert {r["op"] for r in huge} == {"recompose", "mul"}
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        outcomes = [run.timed_request(ops, r)[1] for r in huge]
    finally:
        sys.set_int_max_str_digits(limit)
    for req, outcome in zip(huge, outcomes):
        assert workloads.check_request(req, outcome) is None, req["op"]
        out = json.loads(outcome[1])
        coeffs = (out["series"] if req["op"] == "recompose" else out)["coeffs"]
        assert max(len(c) for c in coeffs) > 4300


def declared(kind):
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


def printed(metrics):
    return {k: u for k, (_v, u) in metrics.items()}


def test_printed_metric_names_match_benchmark_json(M, tmp_path):
    src = ROOT / "src"
    spawner = run.Spawner(src, tmp_path)
    run.warm_up(spawner, src)
    jobs = small_jobs()[:2]
    oracle = workloads.CliOracle(jobs)
    reqs = workloads.bps_batch_requests(2)[:40]

    tally, setup, rss, _n = run.measure_cli(spawner, run.Pace(), jobs, oracle, 0)
    assert len(setup) == run.SETUP_SPAWNS
    assert printed(run.end_to_end(tally, setup, rss)) == declared("end_to_end")
    tally, setup, rss, _n = run.measure_batch(M, spawner, run.Pace(), reqs, 0)
    assert printed(run.end_to_end(tally, setup, rss)) == declared("end_to_end")

    tally, tr, extra = run.trace_cli(M, spawner, jobs, oracle, src, tmp_path)
    assert tally.failed == 0
    assert printed(run.per_layer(tr, extra)) == declared("per_layer")
    tally, tr, extra = run.trace_batch(M, spawner, reqs, src, tmp_path)
    assert tally.failed == 0
    layer = run.per_layer(tr, extra)
    assert printed(layer) == declared("per_layer")
    # every op's time is attributed to some layer
    assert layer["trace.unattributed_frac"][0] < 0.2


def test_traced_counts_do_not_depend_on_the_turns(M, tmp_path, monkeypatch):
    src = ROOT / "src"
    spawner = run.Spawner(src, tmp_path)
    reqs = workloads.bps_batch_requests(2)[:60]
    counts = []
    for block in (len(reqs), 7):
        monkeypatch.setattr(run, "OVERHEAD_BLOCK", block)
        _tally, tr, extra = run.trace_batch(M, spawner, reqs, src, tmp_path)
        counts.append({k: v for k, (v, unit) in run.per_layer(tr, extra).items()
                       if unit in ("count", "bits")})
    assert counts[0] == counts[1]
    assert counts[0]["kernels.mul_trunc.coeff_mults"] > 0


def test_pace_scales_by_the_median_reading_of_a_stretch(monkeypatch):
    ticks = iter([0, 3e6, 10e6, 11e6, 20e6, 22e6])  # readings of 3, 1 and 2 ms
    monkeypatch.setattr(run, "CLOCK", lambda: next(ticks))
    pace = run.Pace()
    pace.probe()
    pace.probe()
    assert pace.scale() == pytest.approx(run.REF_MS / 2)
    assert pace.readings == [] and pace.medians_ms == [pytest.approx(2.0)]
    tally = run.Tally()
    for ns in (1e6, 2e6, 3e6):
        tally.record(ns, None)
    tally.end_pass(0.5)
    assert tally.passes["p50_ms"] == [pytest.approx(1.0)]
    assert tally.passes["ops_per_s"] == [pytest.approx(1000.0)]
