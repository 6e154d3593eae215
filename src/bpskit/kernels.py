"""Kernels for dense exact-integer series arithmetic.

Coefficients are Python ints throughout, so precision is unbounded.
`mul_trunc` and `inverse_unit` do not test each term for zero: the
series they see are mostly dense, so the test costs on every term and
rarely skips one.  `mul_trunc` skips only a zero a_i, which drops a
whole row of products and keeps a sparse left operand such as
`TruncSeries.one(n)` linear.
`mul_sparse_unit_inplace` has no caller; it stays while the benchmark
declares its per-layer metrics.
"""


def mul_trunc(a, b, n):
    """First n coefficients of the convolution of coefficient sequences a and b."""
    out = [0] * n
    nb = len(b)
    for i, ai in enumerate(a[:n]):
        if not ai:
            continue
        for j in range(min(nb, n - i)):
            out[i + j] += ai * b[j]
    return out


def inverse_unit(c, n):
    """First n coefficients of 1/c where c[0] is +1 or -1.

    Entries of c beyond index n-1 cannot influence the result, and entries
    missing from a short c are treated as zero.
    """
    if n <= 0:
        return []
    lead = c[0]
    d = [0] * n
    d[0] = lead
    nc = len(c)
    for m in range(1, n):
        s = sum([c[j] * d[m - j] for j in range(1, min(m, nc - 1) + 1)])
        d[m] = -s if lead == 1 else s
    return d


def mul_sparse_unit_inplace(acc, offsets, coeffs):
    """Multiply acc in place by 1 + sum_i coeffs[i] * x**offsets[i].

    Offsets must be ascending and >= 1; entries of the product beyond
    len(acc) - 1 are discarded.
    """
    for j in range(len(acc) - 1, 0, -1):
        s = acc[j]
        for p, ci in zip(offsets, coeffs):
            if p > j:
                break
            src = acc[j - p]
            if src:
                s += ci * src
        acc[j] = s


def axpy_shift(dst, src, shift, c, lo, hi):
    """dst[i + shift] += c * src[i] for lo <= i <= hi."""
    for i in range(lo, hi + 1):
        v = src[i]
        if v:
            dst[i + shift] += c * v
