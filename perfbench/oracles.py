"""Independent oracles for the benchmark's output checks.

Nothing here imports bpskit.  Every expected value is derived from the
defining formula by the most direct method, so a fault in the engine
under test cannot also hide in its oracle.

Series are passed around as (lo, order, coeffs) triples: coeffs[i] is
the coefficient of q^(lo + i) and the window [lo, order] is exact.
"""

from __future__ import annotations

from math import comb

# CPython 3.11 limits int <-> str conversion to 4300 digits.  The chunked
# helpers below stay under that limit, so the benchmark can build and read
# coefficients of any size without changing the interpreter-wide setting
# that the in-process workload shares with the code under test.
_CHUNK = 4000
_BASE = 10 ** _CHUNK


def big_str(n: int) -> str:
    """Decimal string of any int, never converting more than 4000 digits at once."""
    if -_BASE < n < _BASE:
        return str(n)
    sign, n = ("-", -n) if n < 0 else ("", n)
    parts = []
    while n:
        n, r = divmod(n, _BASE)
        parts.append(r)
    head = str(parts.pop())
    return sign + head + "".join(str(p).zfill(_CHUNK) for p in reversed(parts))


def big_int(s: str) -> int:
    """Inverse of big_str; rejects anything that is not a decimal integer."""
    if not isinstance(s, str):
        raise TypeError(f"expected a decimal string, got {type(s).__name__}")
    body = s[1:] if s[:1] == "-" else s
    if not body.isdigit() or not body.isascii():
        raise ValueError(f"not a decimal integer: {s[:40]!r}")
    n = 0
    for i in range(0, len(body), _CHUNK):
        piece = body[i:i + _CHUNK]
        n = n * 10 ** len(piece) + int(piece)
    return -n if s[:1] == "-" else n


def as_int(x) -> int:
    """A JSON integer field, written either as a number or a decimal string."""
    if isinstance(x, bool):
        raise TypeError("bool is not an integer field")
    if isinstance(x, int):
        return x
    return big_int(x)


# -- univariate products -----------------------------------------------------


def sigma_table(top: int) -> list[int]:
    """sigma(k), the sum of divisors of k, for 0 <= k <= top (sigma(0) = 0)."""
    s = [0] * (top + 1)
    for d in range(1, top + 1):
        for m in range(d, top + 1, d):
            s[m] += d
    return s


def eta_power(e: int, top: int) -> list[int]:
    """prod (1 - q^n)^e through q^top by the sigma recurrence

        n a_n = -e sum_{k=1..n} sigma(k) a_{n-k},

    which follows from the logarithmic derivative of the product.
    """
    sig = sigma_table(top)
    a = [1] + [0] * top
    for n in range(1, top + 1):
        acc = 0
        for k in range(1, n + 1):
            acc += sig[k] * a[n - k]
        q, r = divmod(-e * acc, n)
        if r:
            raise ArithmeticError(f"sigma recurrence left remainder {r} at n = {n}")
        a[n] = q
    return a


def product_series(factors, top: int) -> list[int]:
    """prod_{n>=1} prod_{(m, c, e)} (1 - c q^(m n))^e through q^top.

    Each factor is expanded by the generalised binomial series and folded
    in by a plain truncated convolution.
    """
    acc = [1] + [0] * top
    for n in range(1, top + 1):
        for m, c, e in factors:
            step = m * n
            if step > top:
                continue
            terms = [(k * step, binom_general(e, k) * (-c) ** k)
                     for k in range(0, top // step + 1)]
            out = [0] * (top + 1)
            for i, v in enumerate(acc):
                if v:
                    for off, t in terms:
                        if i + off > top:
                            break
                        out[i + off] += v * t
            acc = out
    return acc


def binom_general(e: int, k: int) -> int:
    """Coefficient of x^k in (1 + x)^e for any integer e."""
    if e >= 0:
        return comb(e, k)
    return (-1) ** k * comb(-e + k - 1, k)


def one_plus_pow(e: int, top: int) -> list[int]:
    """(1 + q)^e through q^top."""
    return [binom_general(e, k) for k in range(top + 1)]


# -- series arithmetic -------------------------------------------------------


def normalise(lo: int, order: int, coeffs) -> tuple[int, int, list[int]]:
    """Strip leading zeros the way a stored series does: min_exp becomes the
    first nonzero exponent, or order + 1 for the zero series."""
    coeffs = list(coeffs)
    lead = 0
    while lead < len(coeffs) and not coeffs[lead]:
        lead += 1
    return lo + lead, order, coeffs[lead:]


def mul(a, b):
    """Window-aware product of two normalised series."""
    (alo, aord, ac), (blo, bord, bc) = a, b
    lo = alo + blo
    order = min(aord + blo, bord + alo)
    out = [0] * max(0, order - lo + 1)
    for i, x in enumerate(ac):
        for j, y in enumerate(bc):
            if i + j < len(out):
                out[i + j] += x * y
    return normalise(lo, order, out)


def inverse(a, order: int):
    """1/a through q^order for a normalised series with unit leading term,
    solving a * b = 1 coefficient by coefficient."""
    lo, _aord, ac = a
    n = order + lo + 1
    b = [0] * n
    for m in range(n):
        acc = sum(ac[j] * b[m - j] for j in range(1, min(m, len(ac) - 1) + 1))
        b[m] = ((1 if m == 0 else 0) - acc) * ac[0]  # ac[0] is +1 or -1, its own inverse
    return normalise(-lo, order, b)


# -- the BPS basis -----------------------------------------------------------


def pairs_element(r: int, lo: int, order: int) -> list[int]:
    """B_0 = q (1+q)^-2, B_r = q^(1-r) (1+q)^(2r-2), dense over [lo, order]."""
    out = [0] * (order - lo + 1)
    if r == 0:
        for k in range(1, order + 1):
            out[k - lo] = (-1) ** (k - 1) * k
    else:
        for k in range(2 * r - 1):
            e = 1 - r + k
            if e <= order:
                out[e - lo] = comb(2 * r - 2, k)
    return out


def recompose(n: list[int], order: int) -> tuple[int, int, list[int]]:
    """sum_r n_r B_r on [1 - g, order]."""
    g = len(n) - 1
    lo = 1 - g
    acc = [0] * (order - lo + 1)
    for r, nr in enumerate(n):
        if nr:
            for i, c in enumerate(pairs_element(r, lo, order)):
                acc[i] += nr * c
    return lo, order, acc


def hilbert(n: list[int], order: int) -> tuple[int, int, list[int]]:
    """sum_r n_r q^(g-r) (1-q)^(2r-2) on [0, order]."""
    g = len(n) - 1
    acc = [0] * (order + 1)
    for r, nr in enumerate(n):
        if not nr:
            continue
        for k in range(order - (g - r) + 1):
            acc[g - r + k] += nr * (-1) ** k * binom_general(2 * r - 2, k)
    return 0, order, acc


def punctual_signed(n: list[int], mu: int, order: int) -> list[int]:
    """sum_r n_r q^(delta-r) (1+q)^(2r - 2 delta - mu) on [0, order]."""
    d = len(n) - 1
    acc = [0] * (order + 1)
    for r, nr in enumerate(n):
        if nr:
            for k, c in enumerate(one_plus_pow(2 * r - 2 * d - mu, order - (d - r))):
                acc[d - r + k] += nr * c
    return acc


def negate_q(coeffs: list[int]) -> list[int]:
    """q -> -q for a series starting at q^0."""
    return [(-c if i % 2 else c) for i, c in enumerate(coeffs)]


def ggtc_report(lo: int, order: int, coeffs: list[int], g: int, n0: int) -> dict:
    """The three identities of a genus-g pairs series, checked directly
    against the candidate degree-zero count n0."""

    def p(m):
        return coeffs[m - lo] if lo <= m <= order else 0

    def first(ms, ok):
        return next((m for m in ms if not ok(m)), None)

    f0 = first(range(lo, -g + 1), lambda m: p(m) == 0)
    fgg = first(range(1, min(g - 1, order) + 1),
                lambda m: p(m) - p(-m) == (-1) ** (m - 1) * m * n0)
    fg0 = first(range(g, order + 1), lambda m: p(m) == (-1) ** (m - 1) * m * n0)
    checks = {"identity_0": f0, "identity_gg": fgg, "identity_g0": fg0}
    out = {k: {"pass": v is None, "first_fail_exponent": v} for k, v in checks.items()}
    out["pass"] = all(v is None for v in checks.values())
    out["checked_order"] = order
    return out


def nodal_vector(g: int, chi: dict) -> list[int]:
    """n_h = (-1)^h * (sum of chi over node subsets of size g - h)."""
    n = [0] * (g + 1)
    for subset, v in chi.items():
        n[g - len(subset)] += v
    return [(-1) ** h * v for h, v in enumerate(n)]


# -- the K3 pipeline ---------------------------------------------------------

# prod (1-q^n)^-20 (1 - z q^n)^-2 (1 - q^n / z)^-2 evaluated at z = 1, -1, i
# and a primitive cube root of unity; each is a product of univariate
# factors (m, c, e) standing for (1 - c q^(m n))^e.  The genus kernel
# K = z - 2 + 1/z takes the values 0, -4, -2, -3 there.
KKV_SPECIALISATIONS = {
    0: [(1, 1, -24)],
    -4: [(1, 1, -20), (1, -1, -4)],
    -2: [(1, 1, -20), (2, -1, -2)],
    -3: [(1, 1, -20), (3, 1, -2), (1, 1, 2)],
}


def kkv_specialisations(h_max: int) -> dict[int, list[int]]:
    """Coefficients through q^h_max of the KKV product at each kernel value."""
    return {k: product_series(f, h_max) for k, f in KKV_SPECIALISATIONS.items()}


def check_kkv_table(rows: dict, h_max: int, spec: dict) -> str | None:
    """Check a genus table {(g, h): r_gh}; return the first problem or None.

    Every q^h coefficient of the product equals sum_g (-1)^g r_gh K^g, so
    at each kernel value K the row sum must match the specialised product.
    K = 0 is the genus-0 row against prod (1-q^n)^-24, and the top genus
    must follow r_hh = (-1)^h (h + 1).
    """
    want_keys = {(g, h) for h in range(h_max + 1) for g in range(h + 1)}
    if set(rows) != want_keys:
        return f"table keys differ from 0 <= g <= h <= {h_max}"
    for h in range(h_max + 1):
        if rows[(h, h)] != (-1) ** h * (h + 1):
            return f"r_({h},{h}) = {rows[(h, h)]}, expected {(-1) ** h * (h + 1)}"
        for kval, series in spec.items():
            got = sum((-1) ** g * rows[(g, h)] * kval ** g for g in range(h + 1))
            if got != series[h]:
                return f"q^{h}: kernel value {kval} gives {got}, expected {series[h]}"
    return None


def check_ky_rows(rows: list[dict], h_max: int, y_order: int, spec: dict) -> str | None:
    """Check pair-count rows {n: coeff} of y (1-y)^-2 * KKV product.

    The second difference d = (1-y)^2 * row must be y P_h(y) with P_h the
    q^h coefficient of the product: supported on [1-h, 1+h], symmetric
    about y^1, and summing to P_h at y = 1, -1 and i, i.e. the
    specialisations at kernel values 0, -4 and -2.
    """
    if len(rows) != h_max + 1:
        return f"expected {h_max + 1} rows, got {len(rows)}"
    for h, row in enumerate(rows):
        if any(n < 1 - h or n > y_order for n in row):
            return f"row {h} has a term outside [{1 - h}, {y_order}]"
        d = {}
        for n in range(1 - h, y_order + 1):
            v = row.get(n, 0) - 2 * row.get(n - 1, 0) + row.get(n - 2, 0)
            if v:
                d[n] = v
        if any(n > 1 + h for n in d):
            return f"row {h}: second difference reaches y^{max(d)} beyond y^{1 + h}"
        if any(d.get(2 - n, 0) != v for n, v in d.items()):
            return f"row {h}: second difference is not symmetric about y^1"
        if sum(d.values()) != spec[0][h]:
            return f"row {h}: second difference sums to {sum(d.values())}, expected {spec[0][h]}"
        at_minus_one = sum(v if n % 2 == 0 else -v for n, v in d.items())
        if at_minus_one != -spec[-4][h]:
            return f"row {h}: value at y = -1 is {at_minus_one}, expected {-spec[-4][h]}"
        # y P_h(y) at y = i: real part from even n, imaginary from odd n
        re = sum(v * (1 if n % 4 == 0 else -1) for n, v in d.items() if n % 2 == 0)
        im = sum(v * (1 if n % 4 == 1 else -1) for n, v in d.items() if n % 2)
        if (re, im) != (0, spec[-2][h]):
            return f"row {h}: value at y = i is {re}+{im}i, expected {spec[-2][h]}i"
    return None
