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

from .bps import BpsVector, PairsSeries, _basis_peel, _reach_base, _reject_residual, pairs_basis_element
from .errors import InputError, InsufficientWindow, MilnorMismatch
from .series import (TruncSeries, _add_binom_row, _as_int, _int_str, _int_strs, _json_int,
                     _Record, _times_binom, _within, q_negate)


def sym_euler(e: int, k: int) -> int:
    """Euler characteristic of the k-th symmetric product of a space with
    Euler characteristic e: the q^k coefficient of (1 - q)^(-e)."""
    k = _as_int(k, "k", 0)
    if _as_int(e, "e") > 0:
        return comb(e + k - 1, k)
    return (-1) ** k * comb(-e, k)


class NodalCurve(_Record):
    """A genus-g curve with r nodes, labelled 0 .. r-1.

    chi maps each subset S of nodes to the Euler characteristic weight of
    the partial normalisation at S, as a mapping or as (S, weight) pairs;
    each of the 2^r subsets must be named exactly once.
    """

    __slots__ = ("g", "r", "chi")
    g: int
    r: int
    chi: Mapping[frozenset, int]

    def _check(self):
        _as_int(self.g, "g", 0)
        _as_int(self.r, "r", 0)
        if self.r > self.g:
            raise InputError(f"r = {self.r} nodes need genus >= {self.r}, got g = {self.g}")
        norm = {}
        for key, v in self.chi.items() if isinstance(self.chi, Mapping) else self.chi:
            nodes = [_as_int(i, "node") for i in key]
            S = frozenset(nodes)
            fault = (f"names a node outside 0..{self.r - 1}"
                     if S and not 0 <= min(S) <= max(S) < self.r
                     else "names a node twice" if len(S) != len(nodes)
                     else "is named by two keys" if S in norm else None)
            if fault:
                raise InputError(f"subset [{', '.join(_int_strs(sorted(nodes)))}] {fault}")
            norm[S] = _as_int(v, "weight")
        if len(norm).bit_length() != self.r + 1 or len(norm) != 2 ** self.r:  # r may be huge
            raise InputError(f"need weights for all 2^{self.r} node subsets, got {len(norm)}")
        object.__setattr__(self, "chi", norm)

    def to_json(self) -> dict:
        enc = {",".join(str(i) for i in sorted(S)): v for S, v in self.chi.items()}
        return {"g": self.g, "r": self.r, "chi": enc}

    @classmethod
    def from_json(cls, obj) -> "NodalCurve":
        try:
            g, r = _json_int(obj["g"], "g"), _json_int(obj["r"], "r")
            chi = [([_json_int(t, "node") for t in key.split(",")] if key else [],
                    _json_int(v, "weight")) for key, v in obj["chi"].items()]
            return cls(g, r, chi)
        except (KeyError, TypeError, AttributeError) as exc:
            raise InputError(f"bad nodal-curve JSON: {exc}") from None


class SingularityGerm(_Record):
    """A planar germ with delta invariant, mu = 1 - (Milnor number) (see
    milnor_from_geometry) and the generating series of Euler
    characteristics of its punctual quotient schemes."""

    __slots__ = ("delta", "mu", "q_euler")
    delta: int
    mu: int
    q_euler: TruncSeries

    def _check(self):
        _as_int(self.delta, "delta", 0)
        _as_int(self.mu, "mu")
        if self.q_euler.min_exp != 0 or self.q_euler.coeff(0) != 1:
            raise InputError("the punctual series must start with constant term 1")

    def to_json(self) -> dict:
        return {"delta": self.delta, "mu": self.mu, "q_euler": self.q_euler.to_json()}

    @classmethod
    def from_json(cls, obj) -> "SingularityGerm":
        try:
            return cls(_json_int(obj["delta"], "delta"), _json_int(obj["mu"], "mu"),
                       TruncSeries.from_json(obj["q_euler"]))
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad singularity-germ JSON: {exc}") from None


def node_germ(order: int) -> SingularityGerm:
    """The ordinary node: delta = 1, mu = 0 (its Milnor number is 1), punctual
    Euler numbers 1, 1, 2, 3, ..."""
    coeffs = [1] + list(range(1, _as_int(order, "order", 0) + 1))
    return SingularityGerm(1, 0, TruncSeries(0, coeffs, order))


def smooth_germ(order: int) -> SingularityGerm:
    """A smooth point as no point at all: delta = 0, mu = 0, punctual series 1
    (as a point of its own, mu = 1 and 1 / (1 - q) give the same pairs series)."""
    return SingularityGerm(0, 0, TruncSeries.from_terms({0: 1}, order=_as_int(order, "order", 0)))


def milnor_from_geometry(g: int, e_smooth: int) -> int:
    """The germ's mu forced by genus g and the Euler characteristic of the
    curve's smooth locus when the germ is the curve's only singularity.

    It is not the Milnor number M: as e(C) = 2 - 2g + M, it is 1 - M, which
    is b - 2 delta for a germ with b branches (0 for the node, -1 for the cusp).
    """
    return (2 - 2 * _as_int(g, "g")) - _as_int(e_smooth, "e_smooth")


def nonsingular_contribution(g: int, chi: int, order: int) -> tuple[BpsVector, PairsSeries]:
    """Contribution of a nonsingular genus-g curve with pair-moduli weight chi.

    Only the top genus contributes: n_g = (-1)^g chi, with pairs series
    (-1)^g chi q^(1-g) (1+q)^(2g-2).
    """
    g = _as_int(g, "g", 0)
    _reach_base(order, g)
    top = (-1) ** g * _as_int(chi, "chi")
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
    return BpsVector._raw(g, tuple((-1) ** h * v for h, v in enumerate(n)))


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
    width = _reach_base(order, g)
    strata = [0] * (curve.r + 1)
    for S, v in curve.chi.items():
        strata[len(S)] += v
    acc = [0] * width  # q^(1-g) .. q^order
    for size, v in enumerate(strata):
        h = g - size  # the row is (-1)^h v q^(1-h) (1+q)^(2h-2), from acc[size]
        if v:
            _add_binom_row(acc, size, -v if h % 2 else v, 2 * h - 2, 1)
    return PairsSeries._raw(TruncSeries._raw(1 - g, acc, order), g)


def q_series_decompose(germ: SingularityGerm) -> list[int]:
    """Multiplicities n_0 .. n_delta of a germ's signed punctual series over
    the basis q^(delta-r) (1+q)^(2r - 2 delta - mu).

    The peel runs down from the constant term (r = delta).  The window must
    reach q^(delta+1), i.e. carry delta + 2 coefficients.
    """
    d, mu = germ.delta, germ.mu
    signed = q_negate(germ.q_euler)
    _within(d + 1, signed.order, f"delta = {d} punctual decomposition")
    n, first = _basis_peel(signed, d, d, 1, -2 * d - mu)
    _reject_residual(first, f"delta = {d} punctual")
    return n


def stratify_pairs_series(germ: SingularityGerm, e_smooth: int, g: int,
                          order: int) -> PairsSeries:
    """Pairs series of a genus-g curve whose only singularity is the germ,
    with smooth locus of Euler characteristic e_smooth.

    The series is (signed punctual series) * q^(1-g) * (1+q)^(-e_smooth),
    one series._times_binom.  The germ's mu must be milnor_from_geometry(g,
    e_smooth) = (2 - 2g) - e_smooth.
    """
    g = _as_int(g, "g", 0)
    expected = milnor_from_geometry(g, e_smooth)
    if germ.mu != expected:
        raise MilnorMismatch(
            f"mu = {_int_str(germ.mu)} but genus {g} with smooth-locus Euler characteristic "
            f"{_int_str(e_smooth)} forces mu = {_int_str(expected)}"
        )
    width = _reach_base(order, g)
    signed = q_negate(germ.q_euler)
    if signed.order + (1 - g) < order:
        raise InsufficientWindow(
            f"pairs series to q^{_int_str(order)} needs the punctual series exact through "
            f"q^{_int_str(order + g - 1)}; window stops at q^{_int_str(signed.order)}"
        )
    out = _times_binom(signed._span(0, width - 1), -e_smooth, 1)
    return PairsSeries._raw(TruncSeries._raw(1 - g, out, order), g)


def subsets_of_nodes(r: int):
    """All subsets of {0, .., r-1}, smallest first; handy for building chi maps."""
    r = _as_int(r, "r", 0)
    return (frozenset(c) for size in range(r + 1) for c in combinations(range(r), size))
