"""The closed-form N of validate_ggtc, the genus strata of
nodal_pairs_series and the packed (1+q)^E product of
stratify_pairs_series, each checked against the route it replaced
(kept in conftest.py) and pinned by the digest of a fixed sweep."""

import hashlib
import json
import random

from hypothesis import example, given, settings
import hypothesis.strategies as st

from bpskit import (
    BpsVector,
    NodalCurve,
    PairsSeries,
    SingularityGerm,
    TruncSeries,
    bps_recompose,
    nodal_contribution,
    nodal_pairs_series,
    stratify_pairs_series,
    subsets_of_nodes,
    validate_ggtc,
)
from bpskit.bps import _pairs_peel
from bpskit.curves import _times_one_plus_q_pow

from conftest import (
    binom_pow_product,
    nodal_pairs_series_by_subset,
    validate_ggtc_by_peel,
)


def _outcome(fn, *args):
    """A JSON-ready record of a call: its result, or its exception type,
    message and exponent."""
    try:
        out = fn(*args)
    except Exception as exc:  # every outcome is part of the record
        return ["raise", type(exc).__name__, str(exc), getattr(exc, "exponent", None)]
    return ["ok", out]


def _validate(Z):
    report = validate_ggtc(Z)
    return [report.to_json(), report.n0]


def _big(rng, digits):
    return rng.choice((1, -1)) * rng.randrange(10 ** rng.randint(0, digits))


def sweep() -> list:
    """Outcomes of the three functions over a fixed pseudo-random corpus:
    BPS-form and arbitrary pairs series, short windows, nodal curves with up
    to five nodes, and germs whose Milnor number matches or does not."""
    rng = random.Random(20071127)
    out = []
    for g in range(13):
        for _ in range(12):
            order = rng.randint(-g - 1, g + 12)
            if rng.random() < 0.5 and order >= 1 - g:
                n = [_big(rng, 30) for _ in range(g + 1)]
                series = bps_recompose(BpsVector(g, tuple(n)), order).series
                if rng.random() < 0.4 and not series.is_zero:
                    cs = series.coeff_list()
                    cs[rng.randrange(len(cs))] += rng.choice((1, -1))
                    series = TruncSeries(series.min_exp, cs, order)
            else:
                lo = rng.randint(-g - 3, min(order + 1, 2))
                series = TruncSeries(lo, [_big(rng, 8) for _ in range(order - lo + 1)], order)
            out.append(["validate", g, series.to_json(), _outcome(_validate, PairsSeries(series, g))])
    for r in range(6):
        for _ in range(10):
            g = r + rng.randint(0, 6)
            chi = {S: _big(rng, 12) if rng.random() < 0.9 else 0 for S in subsets_of_nodes(r)}
            curve = NodalCurve(g, r, chi)
            order = rng.randint(-g - 1, g + 15)
            out.append(["nodal", curve.to_json(), order, _outcome(
                lambda c, o: nodal_pairs_series(c, o).to_json(), curve, order)])
    for _ in range(120):
        d, mu, g = rng.randint(0, 4), rng.randint(0, 3), rng.randint(0, 6)
        gorder = rng.randint(0, 20)
        q_euler = TruncSeries(0, [1] + [_big(rng, 10) for _ in range(gorder)], gorder)
        germ = SingularityGerm(d, mu, q_euler)
        e_smooth = 2 - 2 * g - mu + (rng.choice((-1, 1)) if rng.random() < 0.1 else 0)
        order = rng.randint(-g, gorder + 2 - g)
        out.append(["stratify", germ.to_json(), e_smooth, g, order, _outcome(
            lambda *a: stratify_pairs_series(*a).to_json(), germ, e_smooth, g, order)])
    return out


def test_sweep_digest():
    # the digest of the replaced routes (the peel-based validate_ggtc, the
    # per-subset nodal loop, the schoolbook (1+q)^E product), except that a
    # stratify window below q^(1-g) raises InsufficientWindow; re-record it
    # only after diffing the sweep() JSON of both sides
    text = json.dumps(sweep(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SWEEP_SHA256


SWEEP_SHA256 = "26c38f954833233fe99d2bb02365e4c64dd3f377a6f5e0f650200b76166d53d9"


def _same_outcome(new, old, *args):
    """Both routes return equal values, or raise the same type and message."""
    try:
        want = old(*args)
    except Exception as exc:  # the oracle's exception is the expected outcome
        try:
            new(*args)
        except type(exc) as got:
            assert str(got) == str(exc)
            return None
        raise AssertionError(f"expected {type(exc).__name__}: {exc}")
    got = new(*args)
    assert got == want
    return got


big60 = st.one_of(st.just(0), st.integers(-10 ** 60, 10 ** 60))


@st.composite
def pairs_series(draw):
    """A genus-g pairs series: in BPS form (possibly perturbed at one
    exponent) or arbitrary, with its window starting below 1 - g."""
    g = draw(st.integers(0, 40))
    if draw(st.booleans()):
        order = draw(st.integers(1 - g, g + 12))
        n = draw(st.lists(big60, min_size=g + 1, max_size=g + 1))
        series = bps_recompose(BpsVector(g, tuple(n)), order).series
        lo = draw(st.integers(-g - 4, 1 - g))
        cs = [0] * (series.min_exp - lo) + series.coeff_list()
        if draw(st.booleans()):
            i = draw(st.integers(0, len(cs) - 1))
            cs[i] += draw(st.integers(-10 ** 60, 10 ** 60).filter(bool))
        return PairsSeries(TruncSeries(lo, cs, order), g)
    lo = draw(st.integers(-g - 4, 1 - g))
    order = draw(st.integers(lo - 1, g + 12))
    cs = draw(st.lists(big60, min_size=order - lo + 1, max_size=order - lo + 1))
    return PairsSeries(TruncSeries(lo, cs, order), g)


@given(pairs_series())
@settings(max_examples=300, deadline=None)
@example(PairsSeries(TruncSeries(-1, [0, 0, 0], 1), 2))
@example(PairsSeries(TruncSeries(-3, [5, 0, 0, 0, 7], 1), 0))
@example(PairsSeries(TruncSeries(-1, [4, 0, 9], 1), 1))
def test_validate_ggtc_matches_the_peel(Z):
    report = _same_outcome(validate_ggtc, validate_ggtc_by_peel, Z)
    if report is not None:
        assert report.n0 == _pairs_peel(Z.series, Z.g)[0][0]


@st.composite
def nodal_cases(draw):
    r = draw(st.integers(0, 6))
    g = draw(st.integers(r, r + 8))
    weight = st.one_of(st.just(0), st.integers(-10 ** 12, 10 ** 12))
    chi = {S: draw(weight) for S in subsets_of_nodes(r)}
    return NodalCurve(g, r, chi), draw(st.integers(-g - 2, g + 20))


@given(nodal_cases())
@settings(max_examples=200, deadline=None)
def test_nodal_pairs_series_matches_the_subset_loop(case):
    curve, order = case
    got = _same_outcome(nodal_pairs_series, nodal_pairs_series_by_subset, curve, order)
    if got is not None:
        assert got == bps_recompose(nodal_contribution(curve), order)


@st.composite
def packed_cases(draw):
    """(a, e, n): windows of 0 to 400, coefficients up to about 10^300,
    and all-zero or one-term inputs; a may be shorter or longer than n."""
    e, n = draw(st.integers(-40, 200)), draw(st.integers(0, 400))
    rnd = draw(st.randoms(use_true_random=False))
    bound = 10 ** draw(st.integers(0, 300))
    a = [0] * draw(st.integers(0, n + 3))
    shape = draw(st.sampled_from(("dense", "zero", "one-term")))
    if shape == "dense":
        a = [rnd.randint(-bound, bound) for _ in a]
    elif shape == "one-term" and a:
        a[rnd.randrange(len(a))] = rnd.choice((1, -1)) * rnd.randint(1, bound)
    return a, e, n


@given(packed_cases())
@settings(max_examples=60, deadline=None)
@example(([], 5, 0))
@example(([0] * 7, -3, 7))
@example(([1], -40, 400))
@example(([-(10 ** 300)] * 400, 200, 400))
@example(([10 ** 300] * 400, -40, 400))
def test_packed_product_matches_the_schoolbook_product(case):
    a, e, n = case
    assert _times_one_plus_q_pow(a, e, n) == binom_pow_product(a, e, n)


def test_stratify_multiplies_the_signed_punctual_series():
    # the ordinary node on a genus-2 curve: mu = 0, so e_smooth = -2
    germ = SingularityGerm(1, 0, TruncSeries(0, [1, 1, 2, 3, 4, 5, 6, 7], 7))
    got = stratify_pairs_series(germ, -2, 2, 5).series
    assert (got.min_exp, got.order) == (-1, 5)
    assert got.coeff_list() == binom_pow_product([1, -1, 2, -3, 4, -5, 6], 2, 7)
