"""The closed-form N of validate_ggtc, nodal_pairs_series as the
recomposition of nodal_contribution, the (1 + s q)^p multiply of
series._times_binom and the basis sum and peel on the symmetric half
P(u), each checked against the route it replaced (kept in conftest.py)
and pinned by the digest of a fixed sweep."""

import hashlib
import json
import random

from hypothesis import example, given, settings
import hypothesis.strategies as st

from bpskit import (
    BpsVector,
    NodalCurve,
    NotBpsForm,
    PairsSeries,
    SingularityGerm,
    TruncSeries,
    bps_decompose,
    bps_recompose,
    hilbert_decompose,
    nodal_contribution,
    nodal_pairs_series,
    stratify_pairs_series,
    subsets_of_nodes,
    validate_ggtc,
)
from bpskit.bps import _basis_peel, _basis_sum
from bpskit.series import _times_binom

from conftest import (
    basis_peel_by_rows,
    basis_sum_by_rows,
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
    exponent) or arbitrary, with its window starting below 1 - g, or above
    q^g when arbitrary."""
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
    lo = draw(st.integers(-g - 4, 1 - g) | st.integers(g, g + 8))
    order = draw(st.integers(lo - 1, max(lo, g) + 12))
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
        assert report.n0 == _basis_peel(Z.series, Z.g, 1, 1, -2)[0][0]


@st.composite
def nodal_cases(draw):
    r = draw(st.integers(0, 6))
    g = draw(st.integers(r, r + 8))
    weight = st.one_of(st.just(0), st.integers(-10 ** 12, 10 ** 12))
    chi = {S: draw(weight) for S in subsets_of_nodes(r)}
    return NodalCurve(g, r, chi), draw(st.integers(-g - 2, g + 20))


def _nodal(g, *weights):
    """The nodal curve of genus g whose subsets, smallest first, carry weights."""
    r = (len(weights) - 1).bit_length()
    return NodalCurve(g, r, dict(zip(subsets_of_nodes(r), weights)))


@given(nodal_cases())
@settings(max_examples=200, deadline=None)
@example((_nodal(3, 7), 9))  # r = 0: the nonsingular curve
@example((_nodal(2, 1, -2, 3, 5), 9))  # g = r: n_0 != 0, and B_0 = q (1+q)^-2 never ends
@example((_nodal(3, 1, -2, 3, 5), -2))  # order = 1 - g: the window is q^(1-g) alone
@example((_nodal(3, 1, -2, 3, 5), -3))  # order = -g: below the base exponent
@example((_nodal(3, 4, 2, -2, 5), 7))  # the h = 2 stratum weighs 2 - 2 = 0
def test_nodal_pairs_series_matches_the_subset_loop(case):
    curve, order = case
    got = _same_outcome(nodal_pairs_series, nodal_pairs_series_by_subset, curve, order)
    if got is not None and order >= 1:  # the peel reads the vector back off the series
        assert bps_decompose(got) == nodal_contribution(curve)


@st.composite
def packed_cases(draw):
    """(a, p, s, n): p on both sides of the passes/packed cutover and of
    n, windows of 0 to 400, coefficients up to about 10^300, and all-zero
    or one-term inputs; a may be shorter or longer than n."""
    p = draw(st.integers(-40, 40) | st.integers(-40, 200))
    s, n = draw(st.sampled_from((1, -1))), draw(st.integers(0, 400))
    rnd = draw(st.randoms(use_true_random=False))
    bound = 10 ** draw(st.integers(0, 300))
    a = [0] * draw(st.integers(0, n + 3))
    shape = draw(st.sampled_from(("dense", "zero", "one-term")))
    if shape == "dense":
        a = [rnd.randint(-bound, bound) for _ in a]
    elif shape == "one-term" and a:
        a[rnd.randrange(len(a))] = rnd.choice((1, -1)) * rnd.randint(1, bound)
    return a, p, s, n


@given(packed_cases())
@settings(max_examples=60, deadline=None)
@example(([], 5, 1, 0))
@example(([0] * 7, -3, 1, 7))
@example(([1], -40, 1, 400))
@example(([-(10 ** 300)] * 400, 200, 1, 400))
@example(([10 ** 300] * 400, -40, 1, 400))
@example(([-(10 ** 300)] * 9, 30000, 1, 9))
@example(([1, -1, 2, -3, 4, -5, 6, -7, 8], -2 * 10 ** 5, 1, 9))
@example(([3, -1, 4, 1, -5, 9, -2], 10 ** 30, -1, 7))
@example(([2, 7, -1, 8, -2, 8], -(10 ** 30), 1, 6))
@example(([5, -3], -(10 ** 30), -1, 12))
@example(([7, -7] * 15, 25, -1, 30))
def test_packed_product_matches_the_schoolbook_product(case):
    a, p, s, n = case
    assert _times_binom((a + [0] * n)[:n], p, s) == binom_pow_product(a, p, n, s)


def test_stratify_multiplies_the_signed_punctual_series():
    # the ordinary node on a genus-2 curve: mu = 0, so e_smooth = -2
    germ = SingularityGerm(1, 0, TruncSeries(0, [1, 1, 2, 3, 4, 5, 6, 7], 7))
    got = stratify_pairs_series(germ, -2, 2, 5).series
    assert (got.min_exp, got.order) == (-1, 5)
    assert got.coeff_list() == binom_pow_product([1, -1, 2, -3, 4, -5, 6], 2, 7)


@st.composite
def basis_cases(draw):
    """((c, s, m), top, n, order, Z) for the pairs, Hilbert, punctual and
    KKV bases: a sum window that may end below c - top (an empty sum), and
    a peel input reaching x^c that starts below, at or above c - top (or
    above x^c), in the span (possibly perturbed at one exponent) or
    arbitrary."""
    basis = draw(st.sampled_from(("pairs", "hilbert", "punctual", "kkv")))
    top = draw(st.integers(0, 8 if basis == "punctual" else 40))
    c, s, m = {"pairs": (1, 1, -2), "hilbert": (top, -1, -2), "kkv": (0, -1, 0),
               "punctual": (top, 1, -2 * top - draw(st.integers(0, 6)))}[basis]
    n = draw(st.lists(big60, min_size=top + 1, max_size=top + 1))
    order = draw(st.integers(c - top - 3, c + 20))
    lo = draw(st.integers(c - top - 4, c - top + 4) | st.integers(c - 1, c + 8))
    peel_order = draw(st.integers(max(c, lo - 1), c + 20))
    if draw(st.booleans()):
        z = basis_sum_by_rows(n, peel_order, c, s, m)
        cs = [0] * (z.min_exp - lo) + z.coeff_list() if z.min_exp >= lo else None
        if cs is None:
            lo, cs = z.min_exp, z.coeff_list()
        if cs and draw(st.booleans()):
            cs[draw(st.integers(0, len(cs) - 1))] += draw(
                st.integers(-10 ** 60, 10 ** 60).filter(bool))
    else:
        cs = draw(st.lists(big60, min_size=peel_order - lo + 1, max_size=peel_order - lo + 1))
    return (c, s, m), top, n, order, TruncSeries(lo, cs, peel_order)


def _decompose_by_rows(Z, top, c, s, m, basis):
    n, first = basis_peel_by_rows(Z, top, c, s, m)
    if first:
        raise NotBpsForm(f"residual coefficient {first[1]} at q^{first[0]} is not "
                         f"generated by the {basis} basis", exponent=first[0],
                         coefficient=first[1])
    return BpsVector(top, tuple(n))


@given(basis_cases())
@settings(max_examples=400, deadline=None)
@example(((1, 1, -2), 0, [7], -2, TruncSeries(2, [], 1)))
@example(((3, -1, -2), 3, [1, 2, 3, 4], -1, TruncSeries(-2, [5, 0, 0, 0, 0, 0, 0], 4)))
@example(((2, 1, -10), 2, [0, 0, 1], 0, TruncSeries(0, [1, 0, 1, 9], 3)))
@example(((0, -1, 0), 2, [1, 0, 0], 2, TruncSeries(-2, [1, 2, 3, 4, 5], 2)))
# top = 1, one pass of the peel's loop, for each basis: in the span and off it
@example(((1, 1, -2), 1, [3, -5], 2, basis_sum_by_rows([3, -5], 4, 1, 1, -2)))
@example(((1, -1, -2), 1, [2, 7], 3, basis_sum_by_rows([2, 7], 4, 1, -1, -2)))
@example(((1, 1, -5), 1, [4, -1], 2, TruncSeries(0, [1, -1, 2, -3, 5], 4)))
@example(((0, -1, 0), 1, [6, 1], 1, TruncSeries(-1, [1, 4, 1, 0], 2)))
# top = 40, past the largest genus of perfbench's bps-batch
@example(((1, 1, -2), 40, [(-1) ** r * (r + 1) * 10 ** (2 * r) for r in range(41)], 55,
          basis_sum_by_rows([(-1) ** r * (r + 1) * 10 ** (2 * r) for r in range(41)], 55,
                            1, 1, -2)))
@example(((0, -1, 0), 40, [7] * 41, 40, TruncSeries(-40, list(range(1, 82)), 40)))
def test_basis_sum_and_peel_match_the_rows(case):
    (c, s, m), top, n, order, Z = case
    assert _basis_sum(n, order, c, s, m) == basis_sum_by_rows(n, order, c, s, m)
    assert _basis_peel(Z, top, c, s, m) == basis_peel_by_rows(Z, top, c, s, m)
    if (c, s, m) == (1, 1, -2):
        basis, decompose = f"genus-{top}", lambda Z, g: bps_decompose(PairsSeries(Z, g))
    elif (c, s, m) == (top, -1, -2) and Z.order > c:
        basis, decompose = f"genus-{top} Hilbert", hilbert_decompose
    else:
        return
    try:
        want = _decompose_by_rows(Z, top, c, s, m, basis)
    except NotBpsForm as exc:
        try:
            decompose(Z, top)
        except NotBpsForm as got:
            assert ((str(got), got.exponent, got.coefficient)
                    == (str(exc), exc.exponent, exc.coefficient))
        else:
            raise AssertionError(f"expected NotBpsForm: {exc}")
    else:
        assert decompose(Z, top) == want
