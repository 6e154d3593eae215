"""Local BPS contributions of individual curves.

Covers nonsingular curves, curves with any number of nodes (via Euler
characteristics of pair moduli restricted to the partial normalisations),
and planar singularity germs described by the Euler characteristics of
their punctual quotient schemes.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import combinations
from math import comb

from .bps import BpsVector, PairsSeries, _basis_peel, _reject_residual, pairs_basis_element
from .errors import InputError, InsufficientWindow, MilnorMismatch
from .series import (TruncSeries, _add_binom_row, _as_int, _json_int, _pack, _Record, _unpack,
                     q_negate)


def sym_euler(e: int, k: int) -> int:
    """Euler characteristic of the k-th symmetric product of a space with
    Euler characteristic e: the q^k coefficient of (1 - q)^(-e)."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if e > 0:
        return comb(e + k - 1, k)
    return (-1) ** k * comb(-e, k)


class NodalCurve(_Record):
    """A genus-g curve with r nodes, labelled 0 .. r-1.

    chi maps each subset S of nodes to the Euler characteristic weight of
    the partial normalisation at S; all 2^r subsets must be present.
    """

    __slots__ = ("g", "r", "chi")
    g: int
    r: int
    chi: Mapping[frozenset, int]

    def _check(self):
        if self.g < 0 or self.r < 0:
            raise ValueError("g and r must be non-negative")
        if self.r > self.g:
            raise ValueError(f"r = {self.r} nodes need genus >= {self.r}, got g = {self.g}")
        norm = {}
        for S, v in self.chi.items():
            S = frozenset(_as_int(i, "node") for i in S)
            if any(i < 0 or i >= self.r for i in S):
                raise ValueError(f"subset {sorted(S)} names a node outside 0..{self.r - 1}")
            norm[S] = _as_int(v, "weight")
        if len(norm) != 2 ** self.r:
            raise ValueError(
                f"need weights for all {2 ** self.r} node subsets, got {len(norm)}"
            )
        object.__setattr__(self, "chi", norm)

    def to_json(self) -> dict:
        enc = {",".join(str(i) for i in sorted(S)): v for S, v in self.chi.items()}
        return {"g": self.g, "r": self.r, "chi": enc}

    @classmethod
    def from_json(cls, obj) -> "NodalCurve":
        try:
            g, r = _json_int(obj["g"], "g"), _json_int(obj["r"], "r")
            chi = {}
            for key, v in obj["chi"].items():
                S = frozenset(_json_int(t, "node") for t in key.split(",")) if key else frozenset()
                chi[S] = _json_int(v, "weight")
            return cls(g, r, chi)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise InputError(f"bad nodal-curve JSON: {exc}") from None


class SingularityGerm(_Record):
    """A planar germ with delta invariant, Milnor number and the generating
    series of Euler characteristics of its punctual quotient schemes."""

    __slots__ = ("delta", "mu", "q_euler")
    delta: int
    mu: int
    q_euler: TruncSeries

    def _check(self):
        if self.delta < 0:
            raise ValueError("delta must be non-negative")
        if self.q_euler.min_exp != 0 or self.q_euler.coeff(0) != 1:
            raise ValueError("the punctual series must start with constant term 1")

    def to_json(self) -> dict:
        return {"delta": self.delta, "mu": self.mu, "q_euler": self.q_euler.to_json()}

    @classmethod
    def from_json(cls, obj) -> "SingularityGerm":
        try:
            return cls(_json_int(obj["delta"], "delta"), _json_int(obj["mu"], "mu"),
                       TruncSeries.from_json(obj["q_euler"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad singularity-germ JSON: {exc}") from None


def node_germ(order: int) -> SingularityGerm:
    """The ordinary node: delta = 1, mu = 0, punctual Euler numbers 1, 1, 2, 3, ..."""
    coeffs = [1] + list(range(1, order + 1))
    return SingularityGerm(1, 0, TruncSeries(0, coeffs, order))


def smooth_germ(order: int) -> SingularityGerm:
    """A smooth point: delta = 0, mu = 0, punctual series 1."""
    return SingularityGerm(0, 0, TruncSeries.from_terms({0: 1}, order=order))


def milnor_from_geometry(g: int, e_smooth: int) -> int:
    """Milnor number forced by genus g and the Euler characteristic of the
    curve's smooth locus when the germ is the curve's only singularity."""
    return (2 - 2 * g) - e_smooth


def nonsingular_contribution(g: int, chi: int, order: int) -> tuple[BpsVector, PairsSeries]:
    """Contribution of a nonsingular genus-g curve with pair-moduli weight chi.

    Only the top genus contributes: n_g = (-1)^g chi, with pairs series
    (-1)^g chi q^(1-g) (1+q)^(2g-2).
    """
    if g < 0:
        raise ValueError("g must be non-negative")
    if order < 1 - g:
        raise InsufficientWindow(f"order {order} is below the base exponent {1 - g}")
    top = (-1) ** g * chi
    n = [0] * (g + 1)
    n[g] = top
    series = pairs_basis_element(g, order).scale(top) if top else TruncSeries.zero(order)
    return BpsVector(g, tuple(n)), PairsSeries(series, g)


def nodal_contribution(curve: NodalCurve) -> BpsVector:
    """BPS multiplicities of a nodal curve.

    Each node subset S contributes at genus h = g - |S| with sign (-1)^h:
    n_h = (-1)^h sum of chi over the subsets of that size.  Entries vanish
    outside [g - r, g].
    """
    g = curve.g
    n = [0] * (g + 1)
    for S, v in curve.chi.items():
        n[g - len(S)] += v
    return BpsVector(g, tuple((-1) ** h * v for h, v in enumerate(n)))


def nodal_pairs_series(curve: NodalCurve, order: int) -> PairsSeries:
    """Pairs series of a nodal curve, built stratum by stratum.

    Each partial normalisation of genus h = g - |S| contributes
    sum_m (-1)^(m-1) chi_S e(Sym^(m-1+h)) q^m where the symmetric products
    are those of a space with Euler characteristic e = 2 - 2h.  A subset
    enters only through |S|, so the weights are first summed into the
    strata |S| = 0 .. r, and each stratum adds its row once.  As
    (-1)^k e(Sym^k) = C(-e, k), the row is (-1)^h chi q^(1-h) (1+q)^(2h-2),
    one binomial row: for h >= 1 it ends at q^(h-1), for h = 0 it runs to
    the window's end.  That is O(2^r + r * order) work.
    This is an independent route to the same answer as nodal_contribution
    followed by recomposition.
    """
    g = curve.g
    if order < 1 - g:
        raise InsufficientWindow(f"order {order} is below the base exponent {1 - g}")
    strata = [0] * (curve.r + 1)
    for S, v in curve.chi.items():
        strata[len(S)] += v
    acc = [0] * (order + g)  # q^(1-g) .. q^order
    for size, v in enumerate(strata):
        h = g - size  # the row is (-1)^h v q^(1-h) (1+q)^(2h-2), from acc[size]
        if v:
            _add_binom_row(acc, size, -v if h % 2 else v, 2 * h - 2, 1)
    return PairsSeries(TruncSeries._raw(1 - g, acc, order), g)


def q_series_decompose(germ: SingularityGerm) -> list[int]:
    """Multiplicities n_0 .. n_delta of a germ's signed punctual series over
    the basis q^(delta-r) (1+q)^(2r - 2 delta - mu).

    The peel runs down from the constant term (r = delta).  The window must
    reach q^(delta+1), i.e. carry delta + 2 coefficients.
    """
    d, mu = germ.delta, germ.mu
    signed = q_negate(germ.q_euler)
    order = signed.order
    if order < d + 1:
        raise InsufficientWindow(
            f"delta = {d} needs {d + 2} exact coefficients (through q^{d + 1}); "
            f"window stops at q^{order}"
        )
    n, res, base = _basis_peel(signed, d, d, 1, -2 * d - mu)
    _reject_residual(res, base, f"delta = {d} punctual")
    return n


def _times_one_plus_q_pow(a: list, e: int, n: int) -> list:
    """The first n coefficients of a (1+q)^e, for any integer e.

    Kronecker substitution (Harvey, arXiv:0712.4046): q -> 2^b maps
    Z[q]/(q^n) to Z/2^(bn) as a ring map, so the product is the packed a
    times (1 + 2^b)^e modulo 2^(bn), which exists for e < 0 too since
    1 + 2^b is odd.  Slot width: every output coefficient obeys

        |[q^j] a (1+q)^e| <= max|a| sum_(k<n) |C(e, k)| <= max|a| 2^(|e|+n),

    the sum being at most 2^e for e >= 0 and C(n-1-e, n-1) < 2^(n-1-e)
    for e < 0.  b is the bit length of that bound plus one sign bit,
    rounded up to whole bytes, the layout of series._pack and _unpack.
    """
    if n <= 0:
        return []
    a = a[:n] + [0] * (n - len(a))
    bits = max(map(abs, a)).bit_length() + (e if e >= 0 else n - 1 - e) + 1
    nbytes = (bits + 7) // 8
    b = 8 * nbytes
    if e >= 0:
        x = pow(1 + (1 << b), e, 1 << (b * n))
    else:
        # pow(1 + 2**b, e, 2**(b*n)) would invert and then reduce by a
        # full-size division per step; the binomial row is O(n)
        row = [0] * n
        _add_binom_row(row, 0, 1, e, 1)
        x = _pack(row, nbytes)
    return _unpack(_pack(a, nbytes) * x, n, nbytes, True)[0]


def stratify_pairs_series(germ: SingularityGerm, e_smooth: int, g: int,
                          order: int) -> PairsSeries:
    """Pairs series of a genus-g curve whose only singularity is the germ,
    with smooth locus of Euler characteristic e_smooth.

    The series is (signed punctual series) * q^(1-g) * (1+q)^(-e_smooth),
    one packed product.  The germ's Milnor number must satisfy
    mu = (2 - 2g) - e_smooth.
    """
    expected = milnor_from_geometry(g, e_smooth)
    if germ.mu != expected:
        raise MilnorMismatch(
            f"mu = {germ.mu} but genus {g} with smooth-locus Euler characteristic "
            f"{e_smooth} forces mu = {expected}"
        )
    signed = q_negate(germ.q_euler)
    if signed.order + (1 - g) < order:
        raise InsufficientWindow(
            f"pairs series to q^{order} needs the punctual series exact through "
            f"q^{order + g - 1}; window stops at q^{signed.order}"
        )
    if order < 1 - g:
        raise InsufficientWindow(f"order {order} is below the base exponent {1 - g}")
    # the signed series is dense from its constant term 1
    out = _times_one_plus_q_pow(signed.coeff_list(), -e_smooth, order + g)
    return PairsSeries(TruncSeries._raw(1 - g, out, order), g)


def subsets_of_nodes(r: int):
    """All subsets of {0, .., r-1}, smallest first; handy for building chi maps."""
    for size in range(r + 1):
        yield from (frozenset(c) for c in combinations(range(r), size))
