"""Primitive-class K3 pipeline.

Three routes into the same numbers: the pair-count double series in
(q, y), the symmetric product whose coefficients decompose over the
genus kernels (z^(1/2) - z^(-1/2))^(2g), and the genus-zero row, which
is the classical 1 / Delta count of rational curves.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

from . import kernels
from .bps import _basis_peel
from .errors import AsymmetricInput, InputError, InsufficientWindow
from .series import BiSeries, LaurentPoly, TruncSeries, _expand_product, eta_power

# (1 - q^n)^-20 (1 - z q^n)^-2 (1 - z^-1 q^n)^-2, the engine behind both
# the pair counts and the genus decomposition.
KKV_FACTORS = ((0, -20), (1, -2), (-1, -2))


@dataclass(frozen=True)
class KkvTable:
    """Signed genus-h counts r_(g,h) for 0 <= g <= h <= h_max."""

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
        return {
            "h_max": self.h_max,
            "rows": [
                {"g": g, "h": h, "r": str(v)} for (g, h), v in self.sorted_items()
            ],
        }

    @classmethod
    def from_json(cls, obj) -> "KkvTable":
        try:
            rows = {(int(r["g"]), int(r["h"])): int(r["r"]) for r in obj["rows"]}
            return cls(int(obj["h_max"]), rows)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad table JSON: {exc}") from None

    def write_csv(self, stream):
        w = csv.writer(stream, lineterminator="\n")
        w.writerow(["g", "h", "r_gh"])
        for (g, h), v in self.sorted_items():
            w.writerow([g, h, v])


@dataclass(frozen=True)
class K3PairsSeries:
    """Euler characteristics of K3 pair moduli: the coefficient of y^n q^h
    is exact for every 1 - h <= n <= y_order, h <= h_max."""

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


def _pair_rows(prefactor: list[int], factors3, h_max: int, y_order: int):
    """Rows of prefactor(y) * prod (1 - c y^a q^n)^e, each exact on
    y-exponents [1-h, y_order]."""
    prod = _expand_product(factors3, h_max)
    rows = []
    for h in range(h_max + 1):
        p = prod.coeff(h)
        dense = [p.coeff(e) for e in range(-h, h + 1)]
        conv = kernels.mul_trunc(dense, prefactor, y_order + h + 1)
        rows.append(LaurentPoly({i - h: c for i, c in enumerate(conv) if c}))
    return tuple(rows)


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
    pref = list(range(y_order + h_max + 1))  # y (1-y)^-2 = sum k y^k
    rows = _pair_rows(pref, [(a, e, 1) for a, e in KKV_FACTORS], h_max, y_order)
    return K3PairsSeries(rows, y_order)


def kkv_product(h_max: int) -> BiSeries:
    """prod_{n>=1} (1-q^n)^-20 (1-z q^n)^-2 (1-z^-1 q^n)^-2 through q^h_max."""
    if h_max < 0:
        raise ValueError("h_max must be non-negative")
    return _expand_product([(a, e, 1) for a, e in KKV_FACTORS], h_max)


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


@dataclass(frozen=True)
class SignedCheckReport:
    """Outcome of the signed conversion identity between the pair counts
    and the alternating product form."""

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
    signed_rows = []
    for h in range(h_max + 1):
        terms = dict(ky.rows[h].items())
        if tamper and tamper[0] == h:
            terms[tamper[1]] = terms.get(tamper[1], 0) + tamper[2]
        signed_rows.append(
            LaurentPoly({n: (c if n % 2 else -c) for n, c in terms.items()})
        )

    pref = [(-k if k % 2 == 0 else k) for k in range(y_order + h_max + 1)]  # y (1+y)^-2
    alt = _pair_rows(pref, [(0, -20, 1), (1, -2, -1), (-1, -2, -1)], h_max, y_order)

    first = None
    for h in range(h_max + 1):
        if first is not None:
            break
        got, want = signed_rows[h], alt[h]
        for n in range(1 - h, y_order + 1):
            if got.coeff(n) != want.coeff(n):
                first = (h, n)
                break
    return SignedCheckReport(first is None, first, h_max, y_order)
