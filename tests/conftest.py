"""Shared oracles and strategies for the test suite."""

import hypothesis.strategies as st
from bpskit import TruncSeries


def naive_mul(a: TruncSeries, b: TruncSeries) -> TruncSeries:
    """Window-aware product by explicit double loop, written independently
    of the kernel convolution."""
    lo = a.min_exp + b.min_exp
    hi = min(a.order + b.min_exp, b.order + a.min_exp)
    out = {}
    for i in range(a.min_exp, a.order + 1):
        ai = a.coeff(i)
        if not ai:
            continue
        for j in range(b.min_exp, b.order + 1):
            if lo <= i + j <= hi:
                out[i + j] = out.get(i + j, 0) + ai * b.coeff(j)
    return TruncSeries(lo, [out.get(e, 0) for e in range(lo, hi + 1)], hi)


def eta_power_sigma(e: int, order: int) -> list[int]:
    """Coefficients of prod (1 - q^n)^e through q^order from the divisor-sum
    recurrence n a_n = -e sum_{k=1..n} sigma(k) a_(n-k), written
    independently of the pentagonal series and Miller's recurrence."""
    sigma = [0] * (order + 1)
    for d in range(1, order + 1):
        for m in range(d, order + 1, d):
            sigma[m] += d
    a = [1] + [0] * order
    for n in range(1, order + 1):
        a[n], r = divmod(-e * sum(sigma[k] * a[n - k] for k in range(1, n + 1)), n)
        assert r == 0
    return a


@st.composite
def trunc_series(draw, min_exp=st.integers(-5, 5), size=st.integers(0, 9),
                 coeff=st.integers(-9, 9)):
    lo = draw(min_exp)
    k = draw(size)
    return TruncSeries(lo, draw(st.lists(coeff, min_size=k, max_size=k)))


@st.composite
def unit_series(draw, size=st.integers(1, 9)):
    """Series with lowest nonzero coefficient +1 or -1."""
    lo = draw(st.integers(-4, 4))
    k = draw(size)
    tail = draw(st.lists(st.integers(-9, 9), min_size=k - 1, max_size=k - 1))
    return TruncSeries(lo, [draw(st.sampled_from([1, -1]))] + tail)


laurent_terms = st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=6)
