"""bpskit benchmark: seeded workloads, end-to-end metrics, traced layers.

    python3 perfbench/run.py --workload eta-tower --seed 1 --seconds 40 --trace 0

Run it from the root of a bpskit checkout; it measures the package in
./src, never an installed copy.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones, measured untraced and
scaled to the machine's pace (see Pace); with --trace 1 they are the
per-layer ones from a traced run.  Details go to
perfbench/out/.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
import workloads  # noqa: E402
from tracer import CLOCK  # noqa: E402

WARMUP_SPAWNS = 3  # discarded, so that bytecode is cached before timing
SETUP_SPAWNS = 15
TRACED_SETUP_SPAWNS = 5
OVERHEAD_BLOCK = 50  # bps-batch requests per turn of the untraced and traced passes
SETUP_CODE = "import bpskit.cli; bpskit.cli.build_parser()"
VERBS = ("series_eta", "k3_yz", "k3_kkv", "k3_ky", "k3_signed-check")
LAYERS = ("proc", "import", "cli", "series", "kernels", "bps", "curves", "k3", "trace")
# Variables that change how every Python process runs, dropped so that
# children run the way a user's shell would run them: bytecode is cached
# and stdout is block-buffered.
DROPPED_ENV = ("PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED")
# The pace reference: JSON round trips of a fixed series document, its
# coefficients parsed to ints and squared into a dict.  It is the kind of
# work bpskit does around its kernels, imports nothing from bpskit, and
# takes about 1 ms on the baseline machine in its usual phase.
REF_DOC = {"lo": -3, "coeffs": [str((-3) ** k) for k in range(60)], "meta": {"g": 7, "name": "x"}}
REF_ROUNDS = 20
REF_MS = 1.0
PROBE_GAP_S = 0.02  # between pace readings while a child runs
PROBE_EVERY = 200  # bps-batch requests between pace readings


class SetupError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


# -- the program under test --------------------------------------------------


def load_bpskit(src: Path):
    """Import bpskit from src and return its modules."""
    if not (src / "bpskit" / "__init__.py").is_file():
        raise SetupError(f"no bpskit package under {src}")
    sys.path.insert(0, str(src))
    import bpskit
    import bpskit.bps
    import bpskit.cli
    import bpskit.curves
    import bpskit.series

    check_under(bpskit.__file__, src)
    return types.SimpleNamespace(pkg=bpskit, bps=bpskit.bps, cli=bpskit.cli,
                                 curves=bpskit.curves, series=bpskit.series)


def check_under(path: str, src: Path):
    if not Path(path).resolve().is_relative_to(src.resolve()):
        raise SetupError(f"bpskit was imported from {path}, not from {src}")


def git_sha(root: Path) -> str | None:
    """HEAD of the git checkout at root; None if root is not one."""
    if not (root / ".git").exists():  # don't let git find an enclosing repository
        return None
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    except OSError:
        return None
    return r.stdout.strip() if r.returncode == 0 else None


class Spawner:
    """Runs one child at a time with stdout and stderr sent to files, and
    reads its peak memory from os.wait4."""

    def __init__(self, src: Path, out_dir: Path):
        env = {k: v for k, v in os.environ.items() if k not in DROPPED_ENV}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        self.env = env
        self.out_path = out_dir / "child.stdout"
        self.err_path = out_dir / "child.stderr"

    def run(self, args: list[str], while_waiting=None) -> dict:
        """Run one child to its end.  While it runs, call while_waiting
        every PROBE_GAP_S seconds, if given; the child's exit is seen
        as soon as the call in progress returns."""
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            start = CLOCK()
            proc = subprocess.Popen([sys.executable, *args], stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err, env=self.env)
            exited = os.pidfd_open(proc.pid)
            try:
                while not select.select([exited], [], [], PROBE_GAP_S)[0]:
                    if while_waiting:
                        while_waiting()
            finally:
                os.close(exited)
            end = CLOCK()
            _pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"start": start, "end": end, "code": proc.returncode,
                "rss_kb": usage.ru_maxrss, "out": self.out_path.read_bytes(),
                "err": self.err_path.read_text(errors="replace")}


def warm_up(spawner: Spawner, src: Path):
    """Discarded spawns that check the child imports bpskit from src and
    leave its bytecode cached."""
    for _ in range(WARMUP_SPAWNS):
        r = spawner.run(["-c", "import bpskit.cli; print(bpskit.__file__)"])
        if r["code"] != 0:
            raise SetupError(f"child cannot import bpskit: {r['err'][-300:]}")
        check_under(r["out"].decode().strip(), src)


def reference() -> str:
    for _ in range(REF_ROUNDS):
        doc = json.loads(json.dumps(REF_DOC))
        squares = {i: int(c) ** 2 for i, c in enumerate(doc["coeffs"])}
        total = str(sum(squares.values()))
    return total


class Pace:
    """How fast the machine runs right now, from a fixed reference task.

    The shared host has slow and fast phases, from under a second to
    minutes, that slow every process alike, the program and the
    benchmark included.  Short readings of the reference, taken in this
    process while a child runs on the other core or between in-process
    requests, track them.  A timed stretch is scaled by REF_MS over the
    median reading taken during it and just after it.  So the end-to-end
    timings are in ms of a machine on which the reference takes REF_MS,
    and a change to bpskit moves them by the same share as it moves the
    raw times.
    """

    def __init__(self):
        self.readings = []  # ns, since the last scale()
        self.medians_ms = []  # one per stretch, for the run's record

    def probe(self):
        start = CLOCK()
        reference()
        self.readings.append(CLOCK() - start)

    def scale(self) -> float:
        """End a stretch: take one more reading and return its factor."""
        self.probe()
        median = statistics.median(self.readings)
        self.readings.clear()
        self.medians_ms.append(median / 1e6)
        return REF_MS * 1e6 / median


class SetupProbes:
    """Pace-scaled spawn-to-exit seconds of importing the CLI and
    building its parser.

    The probes are spread evenly over a run rather than made in one burst,
    so their median sees the same machine conditions as the workload.
    """

    def __init__(self, spawner: Spawner, pace: Pace, seconds: float):
        self.spawner, self.pace = spawner, pace
        self.interval = seconds * 1e9 / SETUP_SPAWNS
        self.due = CLOCK()
        self.times = []

    def _probe(self):
        r = self.spawner.run(["-c", SETUP_CODE], self.pace.probe)
        if r["code"] != 0:
            raise SetupError(f"setup probe failed: {r['err'][-300:]}")
        self.times.append((r["end"] - r["start"]) * self.pace.scale() / 1e9)

    def maybe(self):
        """Probe if one is due; call between ops."""
        if len(self.times) < SETUP_SPAWNS and CLOCK() >= self.due:
            self._probe()
            self.due += self.interval

    def finish(self) -> list[float]:
        while len(self.times) < SETUP_SPAWNS:
            self._probe()
        return self.times


# -- bookkeeping -------------------------------------------------------------


class Tally:
    """Outcomes and latencies of the ops of a run, reduced pass by pass."""

    def __init__(self):
        self.latency_ns = []  # samples of the current pass
        self.pass_ok = 0
        self.passes = {"ops_per_s": [], "p50_ms": [], "p99_ms": []}
        self.attempted = self.ok = self.failed = self.planted_missed = 0
        self.problems = []
        self.job_ms = None  # CLI runs: each job's latencies, pass by pass

    def record(self, ns: int, problem: str | None, planted=None, label=""):
        self.latency_ns.append(ns)
        self.attempted += 1
        if problem is None:
            self.ok += 1
            self.pass_ok += 1
            return
        if planted:
            self.planted_missed += 1
        else:
            self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{label}{' [planted ' + planted + ']' if planted else ''}: {problem}")

    def end_pass(self, scale: float = 1.0):
        """Reduce the samples since the last call, times scale, to
        throughput and latency percentiles; a run reports the mean over
        these reductions.

        bps-batch reduces each pass of 2000 requests, so the benchmark's
        own memory stays flat however many ops a run makes and peak_rss_mb
        measures the program rather than a sample store.  The mean over its
        hundred or so passes weighs the machine's fast and slow phases by
        their share of the run, where a median over passes would take one
        side and flip between runs.
        """
        lat_ms = [ns * scale / 1e6 for ns in self.latency_ns]
        self._reduce(lat_ms, lat_ms)

    def end_run(self, jobs_per_pass: int):
        """Reduce a CLI run, whose samples are whole passes over one job
        list.  ops_per_s is over all the jobs run.  The percentiles are
        over the jobs of the list, each at its median over the run's
        passes: a CLI run has only 28 to 70 samples, too few for its own
        p99, and one slow sample would move its p50 between two jobs.
        """
        lat_ms = [ns / 1e6 for ns in self.latency_ns]
        self.job_ms = [lat_ms[j::jobs_per_pass] for j in range(jobs_per_pass)]
        self._reduce(lat_ms, [statistics.median(v) for v in self.job_ms])

    def _reduce(self, lat_ms, typical_ms):
        self.passes["ops_per_s"].append(self.pass_ok / (sum(lat_ms) / 1e3))
        self.passes["p50_ms"].append(statistics.median(typical_ms))
        self.passes["p99_ms"].append(
            statistics.quantiles(typical_ms, n=100, method="inclusive")[98])
        self.latency_ns.clear()
        self.pass_ok = 0


def run_cli_inprocess(M, argv):
    """cli.run in this process; returns (ns, code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = CLOCK()
        code = M.cli.run(argv)
        end = CLOCK()
    return end - start, code, out.getvalue(), err.getvalue()


def run_request(fns, text, tr=None):
    """One bps-batch request: JSON in, op, JSON out."""
    decode, compute, encode = fns
    if tr is None:
        return json.dumps(encode(compute(decode(json.loads(text)))), sort_keys=True)
    with tr.span("cli.ingress"):
        args = decode(json.loads(text))
    result = compute(args)
    with tr.span("cli.egress"):
        return json.dumps(encode(result), sort_keys=True)


def timed_request(ops, req, tr=None):
    start = CLOCK()
    try:
        outcome = ("ok", run_request(ops[req["op"]], req["text"], tr))
    except Exception as exc:  # any failure of the op is an outcome to check
        outcome = ("raise", exc)
    return CLOCK() - start, outcome


# -- untraced runs: end-to-end metrics ---------------------------------------


def passes(seconds: float, one_pass):
    """Run whole passes while the next one is projected to end within the
    budget; always at least one."""
    start, done = CLOCK(), 0
    while True:
        one_pass()
        done += 1
        elapsed = CLOCK() - start
        if elapsed + elapsed / done > seconds * 1e9:
            return done


def measure_cli(spawner, pace, jobs, oracle, seconds):
    tally, rss, probes = Tally(), [0], SetupProbes(spawner, pace, seconds)

    def one_pass():
        for job in jobs:
            probes.maybe()
            r = spawner.run(["-m", "bpskit", *job["argv"]], pace.probe)
            ns = (r["end"] - r["start"]) * pace.scale()
            rss[0] = max(rss[0], r["rss_kb"])
            problem = oracle.check(job, r["code"], r["out"].decode(), r["err"])
            tally.record(ns, problem, label=" ".join(job["argv"]))

    n = passes(seconds, one_pass)
    tally.end_run(len(jobs))
    return tally, probes.finish(), rss[0] / 1024, n


def measure_batch(M, spawner, pace, reqs, seconds):
    tally, ops, probes = Tally(), workloads.batch_ops(M), SetupProbes(spawner, pace, seconds)

    def one_pass():
        probes.maybe()
        for i, req in enumerate(reqs):
            if i % PROBE_EVERY == 0:
                pace.probe()
            ns, outcome = timed_request(ops, req)
            tally.record(ns, workloads.check_request(req, outcome), req["planted"], req["op"])
        tally.end_pass(pace.scale())

    n = passes(seconds, one_pass)
    return tally, probes.finish(), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, n


def end_to_end(tally, setup, rss_mb):
    per_pass = {k: statistics.fmean(v) for k, v in tally.passes.items()}
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (per_pass["ops_per_s"], "1/s"),
        "op_p50_ms": (per_pass["p50_ms"], "ms"),
        "op_p99_ms": (per_pass["p99_ms"], "ms"),
        "ok_frac": (tally.ok / tally.attempted, "frac"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


# -- traced runs: per-layer metrics ------------------------------------------


def traced_spawn(spawner, tr, args, span_file, src):
    """Spawn child.py under a root span and graft its spans onto it."""
    root = tr.open("op")
    r = spawner.run([str(BENCH / "child.py"), str(span_file), *args])
    tr.close(root)
    first, last = span_file.read_text().splitlines()
    rec, t_written = json.loads(first), int(last)
    check_under(rec["bpskit_file"], src)
    if not r["start"] <= rec["t_start"] <= t_written <= r["end"]:
        raise SetupError("child and parent clocks disagree")
    tr.add("proc.interp_start", r["start"], rec["t_start"], root)
    offset = len(tr.spans)
    for name, start, end, parent, _op in rec["spans"]:
        tr.add(name, start, end, root if parent < 0 else parent + offset)
    tr.add("trace.write", rec["t_done"], t_written, root)
    tr.add("proc.exit", t_written, r["end"], root)
    for k, v in rec["mults"].items():
        tr.mults[k] = tr.mults.get(k, 0) + v
    tr.max_bits = max(tr.max_bits, rec["max_bits"])
    tr.missing = sorted(set(tr.missing) | set(rec["missing"]))
    return r


def trace_setup(spawner, tr, span_file, src):
    for _ in range(TRACED_SETUP_SPAWNS):
        tr.op += 1
        r = traced_spawn(spawner, tr, ["--setup"], span_file, src)
        if r["code"] != 0:
            raise SetupError(f"traced setup probe failed: {r['err'][-300:]}")


def trace_cli(M, spawner, jobs, oracle, src, out_dir):
    """One pass of each: untraced and traced spawns, untraced and traced
    in-process cli.run.  Layer times come from the traced spawns.  The
    four runs of a job follow each other, so that the machine's slow and
    fast phases hit them alike."""
    tally, tr = Tally(), tracer.Tracer()
    inner = tracer.Tracer()  # its spans only measure the tracing overhead
    span_file = out_dir / "child.spans"
    trace_setup(spawner, tr, span_file, src)
    wall, inproc, inproc_traced, egress_bytes = {}, {}, {}, 0
    for i, job in enumerate(jobs):
        label = " ".join(job["argv"])
        r = spawner.run(["-m", "bpskit", *job["argv"]])
        wall[i] = r["end"] - r["start"]
        tally.record(wall[i], oracle.check(job, r["code"], r["out"].decode(), r["err"]), label=label)
        ns, code, out, err = run_cli_inprocess(M, job["argv"])
        inproc[i] = ns
        tally.record(ns, oracle.check(job, code, out, err), label=label)
        inner.install()
        try:
            ns, code, out, err = run_cli_inprocess(M, job["argv"])
        finally:
            inner.uninstall()
        inner.finish_op()
        inproc_traced[i] = ns
        tally.record(ns, oracle.check(job, code, out, err), label=label)
        tr.op += 1
        r = traced_spawn(spawner, tr, job["argv"], span_file, src)
        egress_bytes += len(r["out"])
        tally.record(r["end"] - r["start"], oracle.check(job, r["code"], r["out"].decode(), r["err"]),
                     label=label)
    verbs = {}
    for i, job in enumerate(jobs):
        verbs.setdefault(job["verb"], []).append(wall[i])
    extra = {
        "cli.egress_bytes": (egress_bytes, "bytes"),
        "cli.spawn_overhead_s": (sum(wall[i] - inproc[i] for i in wall) / 1e9, "s"),
        "bps.rejected": (0, "count"),
        "trace.overhead_frac": (sum(inproc_traced.values()) / sum(inproc.values()) - 1, "frac"),
    }
    for verb in VERBS:
        extra[f"cli.verb.{verb}.p50_ms"] = (statistics.median(verbs[verb]) / 1e6 if verb in verbs
                                           else 0.0, "ms")
    return tally, tr, extra


def trace_batch(M, spawner, reqs, src, out_dir):
    """Untraced and traced in-process passes, plus traced setup spawns.
    The passes take turns of OVERHEAD_BLOCK requests, so that the
    machine's slow and fast phases hit both alike."""
    tally, tr = Tally(), tracer.Tracer()
    trace_setup(spawner, tr, out_dir / "child.spans", src)
    ops = workloads.batch_ops(M)
    plain = traced = egress_bytes = rejected = 0
    for lo in range(0, len(reqs), OVERHEAD_BLOCK):
        block = reqs[lo:lo + OVERHEAD_BLOCK]
        for req in block:
            ns, outcome = timed_request(ops, req)
            plain += ns
            tally.record(ns, workloads.check_request(req, outcome), req["planted"], req["op"])
        tr.install()
        try:
            for req in block:
                tr.op += 1
                root = tr.open("op")
                ns, outcome = timed_request(ops, req, tr)
                tr.close(root)
                tr.finish_op()
                traced += ns
                kind, value = outcome
                if kind == "ok":
                    egress_bytes += len(value)
                if req["op"] in ("decompose", "validate", "hilbert") and (
                        type(value).__name__ == "NotBpsForm"
                        or kind == "ok" and json.loads(value).get("pass") is False):
                    rejected += 1
                tally.record(ns, workloads.check_request(req, outcome), req["planted"], req["op"])
        finally:
            tr.uninstall()
    extra = {
        "cli.egress_bytes": (egress_bytes, "bytes"),
        "cli.spawn_overhead_s": (0.0, "s"),
        "bps.rejected": (rejected, "count"),
        "trace.overhead_frac": (traced / plain - 1, "frac"),
    }
    for verb in VERBS:
        extra[f"cli.verb.{verb}.p50_ms"] = (0.0, "ms")
    return tally, tr, extra


# Spans reported as <name>_s; those in COUNTED also as <name>.calls.
SPAN_METRICS = (
    "proc.interp_start", "proc.exit", "import.bpskit",
    "cli.build_parser", "cli.parse_args", "cli.ingress", "cli.egress",
    "series.eta_power", "series.trunc_mul", "series.inverse", "series.binom_pow",
    "k3.kkv_product", "k3.kkv_decompose", "k3.ky_series", "k3.signed_check", "k3.yau_zaslow",
    "bps.recompose", "bps.decompose", "bps.validate", "bps.hilbert_decompose",
    "curves.nodal", "curves.qseries", "curves.stratify",
)
COUNTED = ("series.eta_power", "series.trunc_mul", "series.inverse", "series.binom_pow")


def per_layer(tr, extra):
    st = tracer.self_times(tr.spans)
    m = {}
    for span in SPAN_METRICS:
        ns, calls = st.get(span, (0, 0))
        m[span + "_s"] = (ns / 1e9, "s")
        if span in COUNTED:
            m[span + ".calls"] = (calls, "count")
    for kname in tracer.KERNELS:
        if f"bpskit.kernels.{kname}" in tr.missing:
            continue
        ns, calls = st.get("kernels." + kname, (0, 0))
        m[f"kernels.{kname}.calls"] = (calls, "count")
        m[f"kernels.{kname}.s"] = (ns / 1e9, "s")
        m[f"kernels.{kname}.coeff_mults"] = (tr.mults.get(kname, 0), "count")
    m["kernels.max_coeff_bits"] = (tr.max_bits, "bits")
    by_layer = dict.fromkeys(LAYERS, 0)
    for name, (ns, _calls) in st.items():
        layer = name.split(".", 1)[0]
        if layer in by_layer:
            by_layer[layer] += ns
    for layer, ns in by_layer.items():
        m[f"layer.{layer}_s"] = (ns / 1e9, "s")
    job_ns = sum(s[2] - s[1] for s in tr.spans if s[0] == "op")
    m["trace.job_s"] = (job_ns / 1e9, "s")
    m["trace.unattributed_frac"] = (st.get("op", (0, 0))[0] / job_ns, "frac")
    m.update(extra)
    return m


# -- entry point -------------------------------------------------------------


def environment(M, root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "kernel_backend": getattr(M.pkg, "kernel_backend", None),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": git_sha(root),
        "int_max_str_digits": sys.get_int_max_str_digits(),
    }


def benchmark(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    src = root / "src"
    M = load_bpskit(src)
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    spawner = Spawner(src, out_dir)
    warm_up(spawner, src)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(M, root)}
    pace = None if trace else Pace()
    if workload == "bps-batch":
        reqs = workloads.bps_batch_requests(seed)
        if trace:
            tally, tr, extra = trace_batch(M, spawner, reqs, src, out_dir)
        else:
            tally, setup, rss_mb, n = measure_batch(M, spawner, pace, reqs, seconds)
    else:
        jobs = workloads.cli_jobs(workload, seed)
        oracle = workloads.CliOracle(jobs)
        if trace:
            tally, tr, extra = trace_cli(M, spawner, jobs, oracle, src, out_dir)
        else:
            tally, setup, rss_mb, n = measure_cli(spawner, pace, jobs, oracle, seconds)
    if trace:
        metrics = per_layer(tr, extra)
        record["missing_targets"] = tr.missing
        record["spans"] = tr.spans
    else:
        metrics = end_to_end(tally, setup, rss_mb)
        record["passes"] = n
        record["setup_s"] = setup
        record["per_pass"] = tally.passes
        record["pace_ms"] = pace.medians_ms
        record["job_ms"] = tally.job_ms
    record.update(attempted=tally.attempted, failed=tally.failed,
                  planted_missed=tally.planted_missed, problems=tally.problems,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    name = f"{workload}-seed{seed}-trace{int(trace)}.json"
    (out_dir / name).write_text(json.dumps(record))
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="time budget of an untraced run; a traced run makes one pass per variant")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        rec = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), Path.cwd())
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for p in rec["problems"]:
        print(f"perfbench: {p}", file=sys.stderr)
    print("perfbench: " + json.dumps({k: rec[k] for k in ("workload", "seed", "environment")}))
    print(json.dumps({"correct": rec["failed"] == 0, "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": rec["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
