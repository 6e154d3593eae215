"""Shared oracles and strategies for the test suite."""

from itertools import product

import hypothesis.strategies as st
from bpskit import (
    GgtcReport,
    NodalCurve,
    PairsSeries,
    TruncSeries,
    binom_pow,
    sym_euler,
)
from bpskit.bps import IdentityCheck
from bpskit.series import _add_binom_row, _within


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


def kkv_columns(h_max: int, g_max: int) -> list[list[int]]:
    """Columns [t^g] of E^-18 F^-2 for g <= g_max through q^h_max, with
    t = z - 2 + z^-1, written independently of the theta engine.

    (1 - z q^n)(1 - z^-1 q^n) = (1 - q^n)^2 - t q^n, so E^-18 F^-2 =
    E^-24 prod_n (1 - u_n)^-2 with u_n = t q^n (1 - q^n)^-2, and
    (1 - u)^-2 = sum_k (k + 1) u^k.  E^-24 comes from the divisor-sum
    recurrence; each u_n^k from k shifts by n and 2k stride-n running sums.
    """
    cols = [eta_power_sigma(-24, h_max)] + [[0] * (h_max + 1) for _ in range(g_max)]
    for n in range(1, h_max + 1):
        for j in range(g_max, -1, -1):  # from the top: column j is still the old one
            v = cols[j]
            for k in range(1, min(g_max - j, h_max // n) + 1):
                v = [0] * n + v[:-n]
                for _ in range(2):
                    for i in range(n * k + n, h_max + 1):
                        v[i] += v[i - n]
                cols[j + k] = [a + (k + 1) * x for a, x in zip(cols[j + k], v)]
    return cols


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


# -- the routes the batch functions replaced, kept as oracles ----------------


def basis_sum_by_rows(n, order: int, c: int, s: int, m: int) -> TruncSeries:
    """bps._basis_sum with one binomial row per genus across the whole
    window, the route the symmetric half P(u) replaced."""
    lo = min(c - len(n) + 1, order + 1)
    acc = [0] * (order - lo + 1)
    for r, nr in enumerate(n):
        if nr:
            _add_binom_row(acc, c - r - lo, nr, 2 * r + m, s)
    return TruncSeries._raw(lo, acc, order)


def basis_peel_by_rows(series: TruncSeries, top: int, c: int, s: int, m: int):
    """bps._basis_peel by subtracting each element across the whole window
    and scanning the dense residual, the route the symmetric half replaced.
    Returns (n, first) like the peel."""
    base = min(series.min_exp, c - top)
    res = [0] * (series.order - base + 1)
    res[series.min_exp - base:] = series.coeff_list()
    n = [0] * (top + 1)
    for r in range(top, -1, -1):
        i = c - r - base
        nr = n[r] = res[i]
        if nr:
            _add_binom_row(res, i, -nr, 2 * r + m, s)
    first = next(((base + i, v) for i, v in enumerate(res) if v), None)
    return n, first


def validate_ggtc_by_peel(Z: PairsSeries) -> GgtcReport:
    """validate_ggtc with N read off the full triangular peel, the route
    the closed form N = P_1 - P_(-1) replaced."""
    s, g = Z.series, Z.g
    _within(1, s.order, f"genus-{g} validation")
    N = basis_peel_by_rows(s, g, 1, 1, -2)[0][0]

    fail_0 = None
    for e, c in s.items():
        if e > -g:
            break
        if c:
            fail_0 = e
            break

    fail_gg = None
    for m in range(1, min(g - 1, s.order) + 1):
        if s.coeff(m) - s.coeff(-m) != (-1) ** (m - 1) * m * N:
            fail_gg = m
            break

    fail_g0 = None
    for m in range(g, s.order + 1):
        if s.coeff(m) != (-1) ** (m - 1) * m * N:
            fail_g0 = m
            break

    return GgtcReport(
        fail_0 is None and fail_gg is None and fail_g0 is None,
        IdentityCheck(fail_g0 is None, fail_g0),
        IdentityCheck(fail_gg is None, fail_gg),
        IdentityCheck(fail_0 is None, fail_0),
        s.order,
        N,
    )


def nodal_pairs_series_by_subset(curve: NodalCurve, order: int) -> PairsSeries:
    """nodal_pairs_series with one sym_euler row per node subset: an
    oracle that shares no code with the pairs-basis sum."""
    g = curve.g
    _within(1 - g, order, f"a genus-{g} pairs series")
    lo = 1 - g
    acc = [0] * (order - lo + 1)
    for S, v in curve.chi.items():
        if not v:
            continue
        h = g - len(S)
        e = 2 - 2 * h
        for m in range(1 - h, order + 1):
            k = m - 1 + h
            t = sym_euler(e, k)
            if t:
                acc[m - lo] += v * t if m % 2 else -v * t
    return PairsSeries(TruncSeries(lo, acc, order), g)


def binom_pow_product(a: list, e: int, n: int, s: int = 1) -> list:
    """The first n coefficients of a (1 + s q)^e as the schoolbook product
    `shifted * binom_pow(e, "plus" or "minus", ...)`."""
    if n <= 0:
        return []
    shifted = TruncSeries(0, (list(a) + [0] * n)[:n], n - 1)
    out = shifted * binom_pow(e, "plus" if s > 0 else "minus", n - 1)
    return [out.coeff(j) for j in range(n)]


def semimodule_counts(p: int, q: int, order: int) -> list[int]:
    """Euler characteristics of the punctual Hilbert schemes of y^p = x^q
    (coprime p, q) through length `order`, by counting their torus-fixed
    points: the monomial ideals of C[[t^p, t^q]], i.e. the subsets D of
    the semigroup G = <p, q> with D + G inside D, by colength #(G - D).

    D is fixed by its least element s_r in each residue class r mod p, as
    D + p lies in D.  The least element of G in the class of b q is b q
    (0 <= b < p), so s_r = b q + p k_b with k_b >= 0 and colength sum k_b.
    D + q lies in D exactly when s_((r+q) mod p) <= s_r + q for every r.
    """
    counts = [0] * (order + 1)
    for ks in product(range(order + 1), repeat=p):
        if sum(ks) > order:
            continue
        start = {b * q % p: b * q + p * k for b, k in enumerate(ks)}
        if all(start[(r + q) % p] <= start[r] + q for r in start):
            counts[sum(ks)] += 1
    return counts
