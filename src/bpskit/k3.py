"""Primitive-class K3 pipeline.

Three routes into the same numbers: the pair-count double series in
(q, y), the symmetric product whose coefficients decompose over the
genus kernels (z^(1/2) - z^(-1/2))^(2g), and the genus-zero row, which
is the classical 1 / Delta count of rational curves.

The two-variable products run on one theta engine.  With
E = prod (1-q^n) and F = prod (1-q^n)(1-c z q^n)(1-c z^-1 q^n), c = +1
or -1, the product behind the pair counts is E^-18 F^-2.  By the Jacobi
triple product F is nonzero only at q^(m(m-1)/2), where its row is
(-1)^(m-1) sum_{|j|<m} (c z)^j, so J.C.P. Miller's power recurrence
computes F^-2 from O(sqrt(h)) rows per q-degree.  Each row is held as
one Python int with b bits a slot (Kronecker substitution; Harvey,
arXiv:0712.4046), so a row times a row is one big-int multiply.  The
same code run with b = 0 evaluates every row at z = 1; those sums bound
every coefficient, fix b and check each unpacked row.

The genus table comes from the same engine on rows in
t = z - 2 + z^-1, where r_(g,h) = (-1)^g [t^g q^h]: no peel runs.
`kkv_decompose` remains the public peel for an arbitrary product.
The pair counts and the alternating product of the signed check are
the z-rows times y (1-y)^-2 and y (1+y)^-2, which is a shift and two
running sums.
"""

from __future__ import annotations

import csv
from math import comb

from .bps import _basis_peel
from .errors import AsymmetricInput, InputError, InsufficientWindow
from .series import (BiSeries, LaurentPoly, TruncSeries, _int_strs, _json_int, _Record, _unpack,
                     eta_power)

# (1 - q^n)^-20 (1 - z q^n)^-2 (1 - z^-1 q^n)^-2, the product behind both
# the pair counts and the genus decomposition; `product_family` expands
# it factor by factor, the theta engine below from the triple product.
KKV_FACTORS = ((0, -20), (1, -2), (-1, -2))


def _theta_packed(h_max: int, c: int, t: bool, b: int) -> list[int]:
    """Rows P_h of E^-18 F^-2 for h <= h_max, each packed into one int.

    With t false, slot h + j (b bits each) of P_h holds [z^j] P_h; with
    t true (c = +1 only) slot g holds [t^g] P_h for t = z - 2 + z^-1.
    With b = 0 each row is its value at z = 1 (at t = 1 when t is true).
    """
    # (k, F_k, shift): F_k a_(n-k) << shift carries its z^0 slot at n
    f = []
    m = 2
    while (k := m * (m - 1) // 2) <= h_max:
        r = m - 1
        if t:
            # sum_{|j|<=r} z^j = sum_i (2r+1)/(r+i+1) C(r+i+1, 2i+1) t^i, and
            # (2r+1)/(r+i+1) C(r+i+1, 2i+1) = C(r+i+1, 2i+1) + C(r+i, 2i+1)
            row = sum((comb(r + i + 1, 2 * i + 1) + comb(r + i, 2 * i + 1)) << (b * i)
                      for i in range(r + 1))
            shift = 0
        else:
            row = sum((-1 if c < 0 and j % 2 else 1) << (b * (r + j))
                      for j in range(-r, r + 1))
            shift = b * (k - r)
        f.append((k, row if m % 2 else -row, shift))
        m += 1
    # Miller's recurrence for a = F^-2: n a_n = sum_k (-k - n) F_k a_(n-k)
    a = [1]
    for n in range(1, h_max + 1):
        s = sum([(-k - n) * fk * a[n - k] << shift for k, fk, shift in f if k <= n])
        an, rem = divmod(s, n)
        if rem:
            raise ArithmeticError(
                f"theta engine: Miller's recurrence left remainder {rem} at q^{n}"
            )
        a.append(an)
    e = eta_power(-18, h_max).coeff_list()
    step = 0 if t else b  # z-rows: a_(h-j) carries its z^0 slot at h - j
    return [sum([e[j] * a[h - j] << (step * j) for j in range(h + 1)])
            for h in range(h_max + 1)]


def _unpack_rows(packed: list[int], sums: list[int], nbytes: int, signed: bool,
                 t: bool) -> list[list[int]]:
    """Slot lists of packed rows with nbytes bytes a slot (series._unpack).

    Row h has h + 1 slots in t, 2h + 1 in z.  The absolute values of each
    row must sum to its b = 0 value in sums, with no bits left above the
    top slot, or ArithmeticError names the row.  An unsigned row that
    overflowed a slot always fails: each carry lowers the slot sum by
    2^b - 1.
    """
    rows = []
    for h, (p, want) in enumerate(zip(packed, sums)):
        row, above = _unpack(p, h + 1 if t else 2 * h + 1, nbytes, signed)
        got = sum(map(abs, row))
        if got != want or above:
            raise ArithmeticError(
                f"theta engine: q^{h} row does not fit {8 * nbytes}-bit slots: unpacked "
                f"|coefficients| sum to {got}, the b = 0 run gives {want}"
            )
        rows.append(row)
    return rows


def _theta_rows(h_max: int, c: int = 1, t: bool = False) -> list[list[int]]:
    """Dense rows of E^-18 F^-2: over z^-h .. z^h, or t^0 .. t^h if t.

    Every coefficient at c = +1 is >= 0 (in t too, since
    (1 - z q^n)(1 - z^-1 q^n) = (1 - q^n)^2 - t q^n), and c = -1 only
    flips signs, so a row's b = 0 value bounds each of its coefficients.
    """
    sums = _theta_packed(h_max, 1, t, 0)
    nbytes = (max(sums).bit_length() + (c < 0) + 7) // 8
    return _unpack_rows(_theta_packed(h_max, c, t, 8 * nbytes), sums, nbytes, c < 0, t)


def _kkv_table(h_max: int) -> "KkvTable":
    """Genus table r_(g,h) = (-1)^g [t^g q^h] E^-18 F^-2 through q^h_max."""
    if h_max < 0:
        raise ValueError("h_max must be non-negative")
    rows = {}
    for h, row in enumerate(_theta_rows(h_max, t=True)):
        for g, v in enumerate(row):
            rows[(g, h)] = -v if g % 2 else v
    return KkvTable(h_max, rows)


def _ky_rows(h_max: int, y_order: int, c: int) -> tuple[LaurentPoly, ...]:
    """Rows of y (1 - c y)^-2 prod (1-q^n)^-20 (1 - c y q^n)^-2 (1 - c y^-1 q^n)^-2,
    each exact on y-exponents [1-h, y_order]."""
    out = []
    for h, row in enumerate(_theta_rows(h_max, c)):
        size = y_order + h  # y-exponents -h .. y_order - 1, before the shift by y
        dense = (row + [0] * size)[:size]
        for _ in range(2):  # divide by (1 - c y) twice
            acc = 0
            for i, v in enumerate(dense):
                acc = v + c * acc
                dense[i] = acc
        out.append(LaurentPoly._raw({i + 1 - h: v for i, v in enumerate(dense) if v}))
    return tuple(out)


class KkvTable(_Record):
    """Signed genus-h counts r_(g,h) for 0 <= g <= h <= h_max."""

    __slots__ = ("h_max", "rows")
    h_max: int
    rows: dict

    def value(self, g: int, h: int) -> int:
        if not 0 <= g <= h <= self.h_max:
            raise KeyError(f"(g, h) = ({g}, {h}) lies outside 0 <= g <= h <= {self.h_max}")
        return self.rows[(g, h)]

    def genus_row(self, g: int) -> list[int]:
        """Counts r_(g,h) for h = g .. h_max."""
        return [self.rows[(g, h)] for h in range(g, self.h_max + 1)]

    def sorted_items(self):
        return sorted(self.rows.items(), key=lambda kv: (kv[0][1], kv[0][0]))

    def to_json(self) -> dict:
        items = self.sorted_items()
        values = _int_strs([v for _gh, v in items])
        return {
            "h_max": self.h_max,
            "rows": [{"g": g, "h": h, "r": r} for ((g, h), _v), r in zip(items, values)],
        }

    @classmethod
    def from_json(cls, obj) -> "KkvTable":
        try:
            rows = {(_json_int(r["g"], "g"), _json_int(r["h"], "h")): _json_int(r["r"])
                    for r in obj["rows"]}
            return cls(_json_int(obj["h_max"], "h_max"), rows)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad table JSON: {exc}") from None

    def write_csv(self, stream):
        w = csv.writer(stream, lineterminator="\n")
        w.writerow(["g", "h", "r_gh"])
        items = self.sorted_items()
        values = _int_strs([v for _gh, v in items])
        w.writerows([g, h, r] for ((g, h), _v), r in zip(items, values))


class K3PairsSeries(_Record):
    """Euler characteristics of K3 pair moduli: the coefficient of y^n q^h
    is exact for every 1 - h <= n <= y_order, h <= h_max."""

    __slots__ = ("rows", "y_order")
    rows: tuple
    y_order: int

    @property
    def h_max(self) -> int:
        return len(self.rows) - 1

    def coeff(self, h: int) -> LaurentPoly:
        if not 0 <= h <= self.h_max:
            raise InsufficientWindow(f"q^{h} lies outside the exact window [0, {self.h_max}]")
        return self.rows[h]

    def pair_euler(self, n: int, h: int) -> int:
        """Coefficient of y^n q^h."""
        if n > self.y_order:
            raise InsufficientWindow(f"y^{n} lies beyond the exact window (y_order {self.y_order})")
        return self.coeff(h).coeff(n)

    def to_json(self) -> dict:
        return {
            "h_max": self.h_max,
            "y_order": self.y_order,
            "rows": [p.to_json() for p in self.rows],
        }


def ky_series(h_max: int, y_order: int) -> K3PairsSeries:
    """Double series of pair-moduli Euler characteristics for primitive
    classes of square 2h - 2 on a K3 surface.

    Equals y (1-y)^-2 prod_{n>=1} (1-q^n)^-20 (1-y q^n)^-2 (1-y^-1 q^n)^-2;
    the q^0 row is y (1-y)^-2 itself.
    """
    if h_max < 0:
        raise ValueError("h_max must be non-negative")
    if y_order < 1:
        raise ValueError("y_order must be at least 1")
    return K3PairsSeries(_ky_rows(h_max, y_order, 1), y_order)


def kkv_product(h_max: int) -> BiSeries:
    """prod_{n>=1} (1-q^n)^-20 (1-z q^n)^-2 (1-z^-1 q^n)^-2 through q^h_max."""
    if h_max < 0:
        raise ValueError("h_max must be non-negative")
    return BiSeries(LaurentPoly._raw({j - h: v for j, v in enumerate(row) if v})
                    for h, row in enumerate(_theta_rows(h_max)))


def kkv_decompose(B: BiSeries) -> KkvTable:
    """Peel each q^h coefficient over the genus kernels (z - 2 + z^-1)^g.

    The coefficient must be symmetric under z <-> z^-1 with support in
    [-h, h] (AsymmetricInput otherwise); the peel runs from the top genus
    down and always terminates exactly, because the kernels
    z^-g (1-z)^(2g), g = 0..h, are symmetric and unitriangular on that
    lattice, so a residual that vanishes at exponents <= 0 vanishes.
    """
    h_max = B.order_q
    rows = {}
    for h in range(h_max + 1):
        p = B.coeff(h)
        if not p.is_symmetric():
            raise AsymmetricInput(f"q^{h} coefficient is not z <-> z^-1 symmetric")
        if p and p.max_exp > h:
            raise AsymmetricInput(
                f"q^{h} coefficient has z-support up to {p.max_exp}, beyond [{-h}, {h}]"
            )
        dense = TruncSeries._raw(-h, [p.coeff(e) for e in range(-h, h + 1)], h)
        n = _basis_peel(dense, h, 0, -1, 0)[0]
        for g in range(h, -1, -1):
            rows[(g, h)] = -n[g] if g % 2 else n[g]
    return KkvTable(h_max, rows)


def yau_zaslow(h_max: int) -> TruncSeries:
    """Rational-curve counts in primitive classes: prod (1-q^n)^-24."""
    if h_max < 0:
        raise ValueError("h_max must be non-negative")
    return eta_power(-24, h_max)


class SignedCheckReport(_Record):
    """Outcome of the signed conversion identity between the pair counts
    and the alternating product form."""

    __slots__ = ("passed", "first_mismatch", "h_max", "y_order")
    passed: bool
    first_mismatch: tuple[int, int] | None
    h_max: int
    y_order: int

    def to_json(self) -> dict:
        return {
            "pass": self.passed,
            "first_mismatch": list(self.first_mismatch) if self.first_mismatch else None,
            "h_max": self.h_max,
            "y_order": self.y_order,
        }


def signed_conversion_check(h_max: int, y_order: int, tamper=None) -> SignedCheckReport:
    """Verify that pair counts with the sign (-1)^(n-1) on y^n q^h equal the
    independent expansion of

        y (1+y)^-2 prod (1-q^n)^-20 (1+y q^n)^-2 (1+y^-1 q^n)^-2.

    tamper, if given, is (h, n, delta): the unsigned count at y^n q^h is
    bumped by delta before signing, so a single-coefficient fault is
    guaranteed to be reported as that (h, n).
    """
    ky = ky_series(h_max, y_order)
    alt = _ky_rows(h_max, y_order, -1)
    first = None
    for h in range(h_max + 1):
        got = dict(ky.rows[h].items())
        if tamper and tamper[0] == h:
            got[tamper[1]] = got.get(tamper[1], 0) + tamper[2]
        want = alt[h]
        for n in range(1 - h, y_order + 1):
            c = got.get(n, 0)
            if (c if n % 2 else -c) != want.coeff(n):
                first = (h, n)
                break
        if first is not None:
            break
    return SignedCheckReport(first is None, first, h_max, y_order)
