"""Seeded inputs and output checks for the three benchmark workloads.

eta-tower and k3-tables are lists of CLI argument vectors; bps-batch is a
list of JSON requests for the library.  The same seed always gives the
same inputs.  Sizes sit on a fixed grid with a small seeded jitter, so
every seed does about the same amount of work and runs can be compared
across seeds.
"""

from __future__ import annotations

import csv
import io
import json
import random

import oracles as orc

WORKLOADS = ("eta-tower", "k3-tables", "bps-batch")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# -- CLI workloads -----------------------------------------------------------


def _job(verb: str, argv: list[str], **params) -> dict:
    return {"verb": verb, "argv": argv, "params": params}


def eta_tower_jobs(seed: int) -> list[dict]:
    """`series eta` for every exponent at orders near 400, 800 and 1200,
    plus `k3 yz` twice near 800.

    At each base order the seed deals the offsets -6, -2, 2, 6 and two
    JSON and two CSV outputs out to the four exponents, so the total work
    hardly depends on the seed.  Six of the fourteen jobs sit near order
    800, so a run's median latency falls inside that cluster rather than
    between two differently sized jobs.
    """
    rng = _rng("eta-tower", seed)
    jobs = []
    for base in (400, 800, 1200):
        deal = zip((-24, -20, -1, 24), rng.sample((-6, -2, 2, 6), 4),
                   rng.sample(("json", "json", "csv", "csv"), 4))
        for e, off, fmt in deal:
            n = base + off
            jobs.append(_job("series_eta", ["series", "eta", "--order", str(n), "--exponent",
                                            str(e), "--format", fmt], e=e, order=n, fmt=fmt))
    for off, fmt in zip(rng.sample(range(-4, 5), 2), ("json", "csv")):
        n = 800 + off
        jobs.append(_job("k3_yz", ["k3", "yz", "--hmax", str(n), "--format", fmt],
                         e=-24, order=n, fmt=fmt))
    rng.shuffle(jobs)
    return jobs


def k3_tables_jobs(seed: int) -> list[dict]:
    """`k3 kkv` in both formats at h_max one either side of 31, 40, 50 and
    59; `k3 ky` at h_max 20, 30, 40 and `k3 signed-check` at 15, 22, 30,
    with y-orders near ten times those.

    The seed decides which format gets the larger h_max and jitters the
    y-orders by a few per cent of a job's cost at most, so the work per
    pass hardly depends on the seed.
    """
    rng = _rng("k3-tables", seed)
    jobs = []
    for base in (31, 40, 50, 59):
        for fmt, h in zip(rng.sample(("json", "csv"), 2), (base - 1, base + 1)):
            jobs.append(_job("k3_kkv", ["k3", "kkv", "--hmax", str(h), "--format", fmt],
                             h_max=h, fmt=fmt))
    for h, yb in ((20, 200), (30, 400), (40, 600)):
        y = yb + rng.randint(-5, 5)
        jobs.append(_job("k3_ky", ["k3", "ky", "--hmax", str(h), "--yorder", str(y)],
                         h_max=h, y_order=y))
    for h, yb in ((15, 150), (22, 225), (30, 300)):
        y = yb + rng.randint(-5, 5)
        jobs.append(_job("k3_signed-check",
                         ["k3", "signed-check", "--hmax", str(h), "--yorder", str(y)],
                         h_max=h, y_order=y))
    rng.shuffle(jobs)
    return jobs


class CliOracle:
    """Expected values for a list of CLI jobs, computed once per run."""

    def __init__(self, jobs: list[dict]):
        tops: dict[int, int] = {}
        h_top = 0
        for job in jobs:
            p = job["params"]
            if "e" in p:
                tops[p["e"]] = max(tops.get(p["e"], 0), p["order"])
            if "h_max" in p:
                h_top = max(h_top, p["h_max"])
        self.eta = {e: orc.eta_power(e, top) for e, top in tops.items()}
        self.spec = orc.kkv_specialisations(h_top)

    def check(self, job: dict, code: int, out: str, err: str) -> str | None:
        """Return why the job's output is wrong, or None when it is right."""
        if code != 0:
            return f"exit code {code}: {err.strip()[-200:]}"
        if "Traceback" in err:
            return "traceback on stderr"
        try:
            return getattr(self, "_" + job["verb"].replace("-", "_"))(job["params"], out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"

    def _series(self, p, out, head):
        want = self.eta[p["e"]][: p["order"] + 1]
        if p["fmt"] == "csv":
            rows = list(csv.reader(io.StringIO(out)))
            if rows[0] != list(head):
                return f"csv header {rows[0]}"
            got = {int(n): int(c) for n, c in rows[1:]}
            order = max(got)
        else:
            obj = json.loads(out)
            lo, order = obj["min_exp"], obj["order"]
            if len(obj["coeffs"]) != order - lo + 1:
                return f"{len(obj['coeffs'])} coefficients for window [{lo}, {order}]"
            got = {lo + i: orc.as_int(c) for i, c in enumerate(obj["coeffs"])}
        if order != p["order"] or min(got) < 0:
            return f"window [{min(got)}, {order}], expected [0, {p['order']}]"
        for n, c in enumerate(want):
            if got.get(n, 0) != c:
                return f"q^{n}: got {got.get(n, 0)}, expected {c}"
        return None

    def _series_eta(self, p, out):
        return self._series(p, out, ("n", "coeff"))

    def _k3_yz(self, p, out):
        return self._series(p, out, ("h", "r_0h"))

    def _k3_kkv(self, p, out):
        if p["fmt"] == "csv":
            rows = list(csv.reader(io.StringIO(out)))
            if rows[0] != ["g", "h", "r_gh"]:
                return f"csv header {rows[0]}"
            table = {(int(g), int(h)): int(r) for g, h, r in rows[1:]}
        else:
            obj = json.loads(out)
            if obj["h_max"] != p["h_max"]:
                return f"h_max {obj['h_max']}"
            table = {(r["g"], r["h"]): orc.as_int(r["r"]) for r in obj["rows"]}
        return orc.check_kkv_table(table, p["h_max"], self.spec)

    def _k3_ky(self, p, out):
        obj = json.loads(out)
        if (obj["h_max"], obj["y_order"]) != (p["h_max"], p["y_order"]):
            return f"window ({obj['h_max']}, {obj['y_order']})"
        rows = [{int(n): orc.as_int(c) for n, c in r["terms"].items()} for r in obj["rows"]]
        return orc.check_ky_rows(rows, p["h_max"], p["y_order"], self.spec)

    def _k3_signed_check(self, p, out):
        obj = json.loads(out)
        want = {"pass": True, "first_mismatch": None, "h_max": p["h_max"], "y_order": p["y_order"]}
        got = {k: obj.get(k) for k in want}
        return None if got == want else f"report {got}"


# -- bps-batch ---------------------------------------------------------------

# Requests per pass, by operation.  Every op gets the same count, which
# assumes nothing about how the API is used: this mix is a design choice,
# not a measurement.  200 of the 1980 legitimate requests (10%) are valid
# series that are not in BPS form and must be rejected, 50 for each op that
# can reject; 10 + 10 (0.5% each) carry planted defects, listed in PLANTED.
BATCH_MIX = dict.fromkeys(
    ("recompose", "decompose", "validate", "hilbert", "nodal", "qseries", "stratify", "mul",
     "inverse"), 220)
NON_FORM = dict.fromkeys(("decompose", "validate", "hilbert", "qseries"), 50)
PLANTED = {
    "huge": ("recompose", "mul") * 5,
    "float": ("decompose", "recompose", "mul") * 3 + ("decompose",),
}


class Reject:
    """An expected rejection: the exception class name, and for NotBpsForm
    the exponent the residual is first seen at."""

    def __init__(self, error: str, exponent: int | None = None):
        self.error, self.exponent = error, exponent


def _series_json(lo, order, coeffs, enc=str):
    lo, order, cs = orc.normalise(lo, order, coeffs)
    return {"min_exp": lo, "order": order, "coeffs": [enc(c) for c in cs]}


def _expect_series(lo, order, coeffs):
    lo, order, cs = orc.normalise(lo, order, coeffs)
    return {"min_exp": lo, "order": order, "coeffs": cs}


class _BatchGen:
    def __init__(self, rng: random.Random):
        self.rng = rng

    def big(self, digits_max=40):
        r = self.rng
        return r.choice((1, -1)) * r.randrange(10 ** r.randint(0, digits_max))

    # Genus and order are uniform over a small grid (31 genera, 3 orders
    # each), a design choice like BATCH_MIX.  With 2000 requests a pass,
    # each (genus, order) pair recurs about 20 times.

    def genus(self):
        return self.rng.randint(0, 30)

    def order(self, g):
        return g + self.rng.choice((3, 8, 15))

    def vector(self, g):
        return [self.big() for _ in range(g + 1)]

    def perturb(self, coeffs, lo, e):
        out = list(coeffs)
        out[e - lo] += self.rng.choice((1, -1)) * self.rng.randint(1, 10 ** 6)
        return out

    # Each builder returns (request object, expected outcome).

    def recompose(self, bad):
        g = self.genus()
        n, order = self.vector(g), self.order(g)
        return ({"vector": {"g": g, "n": n}, "order": order},
                {"g": g, "series": _expect_series(*orc.recompose(n, order))})

    def decompose(self, bad):
        g = self.genus()
        n, order = self.vector(g), self.order(g)
        lo, _, cs = orc.recompose(n, order)
        if bad:
            e = self.rng.randint(2, order)
            cs = self.perturb(cs, lo, e)
            return {"g": g, "series": _series_json(lo, order, cs)}, Reject("NotBpsForm", e)
        return {"g": g, "series": _series_json(lo, order, cs)}, {"g": g, "n": n}

    def validate(self, bad):
        g = self.genus()
        n, order = self.vector(g), self.order(g)
        lo, _, cs = orc.recompose(n, order)
        if bad:
            cs = self.perturb(cs, lo, self.rng.randint(2, order))
        return ({"g": g, "series": _series_json(lo, order, cs)},
                orc.ggtc_report(lo, order, cs, g, n[0]))

    def hilbert(self, bad):
        g = self.genus()
        n, order = self.vector(g), self.order(g)
        lo, _, cs = orc.hilbert(n, order)
        req = {"g": g, "series": _series_json(lo, order, cs)}
        if bad:
            e = self.rng.randint(g + 1, order)
            req["series"] = _series_json(lo, order, self.perturb(cs, lo, e))
            return req, Reject("NotBpsForm", e)
        return req, {"g": g, "n": n}

    def nodal(self, bad):
        r = self.rng
        g = self.genus()
        nodes = r.randint(0, min(g, 4))
        subsets = [tuple(i for i in range(nodes) if mask >> i & 1) for mask in range(2 ** nodes)]
        chi = {s: self.big(12) for s in subsets}
        order = self.order(g)
        vec = orc.nodal_vector(g, chi)
        curve = {"g": g, "r": nodes, "chi": {",".join(map(str, s)): v for s, v in chi.items()}}
        return ({"curve": curve, "order": order},
                {"vector": {"g": g, "n": vec},
                 "series": _expect_series(*orc.recompose(vec, order))})

    def germ(self):
        """delta, mu and punctual multiplicities with n_delta = 1, so the
        punctual series starts with constant term 1."""
        r = self.rng
        d, mu = r.randint(0, 5), r.randint(0, 3)
        return d, mu, [self.big(8) for _ in range(d)] + [1]

    def qseries(self, bad):
        d, mu, n = self.germ()
        order = d + 1 + self.rng.choice((2, 6, 12))
        q_euler = orc.negate_q(orc.punctual_signed(n, mu, order))
        if bad:
            e = self.rng.randint(d + 1, order)
            q_euler = self.perturb(q_euler, 0, e)
            expect = Reject("NotBpsForm", e)
        else:
            expect = {"n": n}
        return {"delta": d, "mu": mu, "q_euler": _series_json(0, order, q_euler)}, expect

    def stratify(self, bad):
        g = self.genus()
        order = self.order(g)
        d, mu, n = self.germ()
        # the punctual series must reach q^(order + g - 1)
        gorder = max(order + g - 1, d) + self.rng.randint(0, 3)
        signed = orc.punctual_signed(n, mu, gorder)
        euler0 = 2 - 2 * g - mu
        shifted = orc.normalise(1 - g, gorder + 1 - g, signed)
        binom = (0, order - 1 + g, orc.one_plus_pow(-euler0, order - 1 + g))
        req = {"germ": {"delta": d, "mu": mu,
                        "q_euler": _series_json(0, gorder, orc.negate_q(signed))},
               "euler0": euler0, "g": g, "order": order}
        return req, {"g": g, "series": _expect_series(*orc.mul(shifted, binom))}

    def mul(self, bad):
        r = self.rng
        a = (r.randint(-5, 5), r.randint(1, 40))
        b = (r.randint(-5, 5), r.randint(1, 40))
        sa = [self.big(20) or 1 for _ in range(a[1])]
        sb = [self.big(20) or 1 for _ in range(b[1])]
        A = (a[0], a[0] + a[1] - 1, sa)
        B = (b[0], b[0] + b[1] - 1, sb)
        return ({"a": _series_json(*A), "b": _series_json(*B)},
                _expect_series(*orc.mul(orc.normalise(*A), orc.normalise(*B))))

    def inverse(self, bad):
        r = self.rng
        v, length = r.randint(-3, 3), r.randint(1, 30)
        cs = [r.choice((1, -1))] + [self.big(3) for _ in range(length - 1)]
        top = v + length - 1
        order = r.randint(-v, top - 2 * v)  # the window the inverse certifies
        A = (v, top, cs)
        return ({"a": _series_json(*A), "order": order},
                _expect_series(*orc.inverse(orc.normalise(*A), order)))

    # Planted defects.  Huge requests are valid and must be answered; they
    # carry one coefficient of 4400 to 4600 digits as a decimal string.
    # Float requests hold a float or bool where an integer belongs and
    # must be rejected as malformed input.

    def huge_digits(self):
        r = self.rng
        k = r.randint(4400, 4600)
        return str(r.randint(1, 9)) + "".join(r.choice("0123456789") for _ in range(k - 1))

    def planted(self, kind, op):
        r = self.rng
        if kind == "huge":
            s = self.huge_digits()
            if op == "recompose":
                g = r.randint(1, 4)
                n = self.vector(g)
                n[1] = orc.big_int(s)
                order = g + 15
                req = {"vector": {"g": g, "n": [s if i == 1 else v for i, v in enumerate(n)]},
                       "order": order}
                return req, {"g": g, "series": _expect_series(*orc.recompose(n, order))}
            lo = r.randint(-3, 3)
            sa = [self.big(10) or 1 for _ in range(r.randint(3, 12))]
            sa[r.randrange(len(sa))] = orc.big_int(s)
            A = (lo, lo + len(sa) - 1, sa)
            # c + O(q^len): the product is c times a, huge coefficient included
            B = (0, len(sa) - 1, [r.choice((2, -3, 5))] + [0] * (len(sa) - 1))
            return ({"a": _series_json(*A, enc=orc.big_str), "b": _series_json(*B)},
                    _expect_series(*orc.mul(A, B)))
        bad = r.choice((2.0, 1.5, -3.0, True, False))
        req, _ = getattr(self, op)(False)
        if op == "recompose":
            req["vector"]["n"][r.randrange(len(req["vector"]["n"]))] = bad
        elif op == "decompose":
            cs = req["series"]["coeffs"]
            cs[r.randrange(len(cs))] = bad
        else:
            cs = req["a"]["coeffs"]
            cs[r.randrange(len(cs))] = bad
        return req, Reject("InputError")


def bps_batch_requests(seed: int) -> list[dict]:
    """One pass of the bps-batch stream: op name, request text, expected
    outcome, and which planted defect it carries (None for legitimate)."""
    rng = _rng("bps-batch", seed)
    gen = _BatchGen(rng)
    plan = []
    for op, count in BATCH_MIX.items():
        bad = NON_FORM.get(op, 0)
        plan += [(op, i < bad, None) for i in range(count)]
    for kind, ops in PLANTED.items():
        plan += [(op, False, kind) for op in ops]
    rng.shuffle(plan)
    out = []
    for op, bad, kind in plan:
        req, expect = gen.planted(kind, op) if kind else getattr(gen, op)(bad)
        text = json.dumps(req, sort_keys=True)
        out.append({"op": op, "text": text, "expect": expect, "planted": kind})
    return out


def same(got, want) -> bool:
    """Compare an output JSON value with an oracle value.  Integers may be
    written as JSON numbers or decimal strings; objects need only carry the
    keys the oracle names."""
    if isinstance(want, bool) or want is None:
        return got is want
    if isinstance(want, int):
        try:
            return orc.as_int(got) == want
        except (TypeError, ValueError):
            return False
    if isinstance(want, dict):
        return isinstance(got, dict) and all(k in got and same(got[k], v) for k, v in want.items())
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(same(a, b) for a, b in zip(got, want)))
    return got == want


def check_request(req: dict, outcome) -> str | None:
    """outcome is ("ok", output text) or ("raise", exception)."""
    want = req["expect"]
    kind, value = outcome
    if isinstance(want, Reject):
        if kind != "raise":
            return f"accepted, expected {want.error}"
        names = {c.__name__ for c in type(value).__mro__}
        if want.error not in names:
            return f"raised {type(value).__name__}: {value}, expected {want.error}"
        if want.exponent is not None and getattr(value, "exponent", None) != want.exponent:
            return f"rejected at q^{getattr(value, 'exponent', None)}, expected q^{want.exponent}"
        return None
    if kind != "ok":
        return f"raised {type(value).__name__}: {str(value)[:200]}"
    if not same(json.loads(value), want):
        return "output differs from the oracle"
    return None


def batch_ops(M):
    """Per op: decode the request object (ingress), run it, and encode the
    result (egress).  M holds the bpskit modules; names are looked up on
    each call so that tracing wrappers take effect."""

    def pairs(o):
        return M.bps.PairsSeries.from_json(o)

    def germ(o):
        return M.curves.SingularityGerm.from_json(o)

    def series(o):
        return M.series.TruncSeries.from_json(o)

    def to_json(r):
        return r.to_json()

    return {
        "recompose": (lambda o: (M.bps.BpsVector.from_json(o["vector"]), o["order"]),
                      lambda a: M.bps.bps_recompose(*a), to_json),
        "decompose": (pairs, lambda a: M.bps.bps_decompose(a), to_json),
        "validate": (pairs, lambda a: M.bps.validate_ggtc(a), to_json),
        "hilbert": (lambda o: (series(o["series"]), o["g"]),
                    lambda a: M.bps.hilbert_decompose(*a), to_json),
        "nodal": (lambda o: (M.curves.NodalCurve.from_json(o["curve"]), o["order"]),
                  lambda a: (M.curves.nodal_contribution(a[0]),
                             M.curves.nodal_pairs_series(a[0], a[1])),
                  lambda r: {"vector": r[0].to_json(), "series": r[1].series.to_json()}),
        "qseries": (germ, lambda a: M.curves.q_series_decompose(a), lambda r: {"n": r}),
        "stratify": (lambda o: (germ(o["germ"]), o["euler0"], o["g"], o["order"]),
                     lambda a: M.curves.stratify_pairs_series(*a), to_json),
        "mul": (lambda o: (series(o["a"]), series(o["b"])), lambda a: a[0] * a[1], to_json),
        "inverse": (lambda o: (series(o["a"]), o["order"]), lambda a: a[0].inverse(a[1]),
                    to_json),
    }


def inputs_bytes(workload: str, seed: int) -> bytes:
    """Everything the program receives for one pass, as bytes."""
    if workload == "bps-batch":
        items = [[r["op"], r["text"]] for r in bps_batch_requests(seed)]
    else:
        items = [j["argv"] for j in cli_jobs(workload, seed)]
    return json.dumps(items).encode()


def cli_jobs(workload: str, seed: int) -> list[dict]:
    return {"eta-tower": eta_tower_jobs, "k3-tables": k3_tables_jobs}[workload](seed)
