"""Change of basis between stable-pairs series and integer BPS vectors.

Every basis the package decomposes over has one shape: element r is

    x^(c - r) (1 + s x)^(2r + m),    r = 0 .. top,

with lowest exponent c - r and unit leading coefficient:

    basis     variable  c      s    m              element r
    pairs     q         1      +1   -2             q^(1-r) (1+q)^(2r-2)
    Hilbert   q         g      -1   -2             q^(g-r) (1-q)^(2r-2)
    punctual  q         delta  +1   -2 delta - mu  q^(delta-r) (1+q)^(2r-2delta-mu)
    KKV       z         0      -1   0              z^(-r) (1-z)^(2r) = (z-2+z^-1)^r

The pairs basis carries the BPS multiplicities n_0 .. n_g of a genus-g
pairs series; the Hilbert basis decomposes Hilbert-scheme generating
series; the punctual basis is read on the q-negated punctual series of a
planar germ; the KKV kernels turn the K3 product into r_(g,h) = (-1)^g n_g.

As (1 + s x)^2 = x u with u = x^-1 + 2s + x, element r is x^c (1 + s x)^m u^r:
the span is x^c (1 + s x)^m P(u), where P(u) = sum n_r u^r is symmetric under
x <-> 1/x, so its low half, on [x^-top, x^0], determines it.  The sum builds that
half from rows of r + 1 terms (`series._add_binom_row`), mirrors it and multiplies
by (1 + s x)^m.  The peel reads Z on [x^(c-top), order] in one TruncSeries._span,
zeros below its lowest term, reads P off Y = x^-c (1 + s x)^-m Z and runs Horner's
rule backwards: n_0 is P where u = 0, and (P - n_0) / u is symmetric again.  On
the half, that quotient is the double prefix sum d less its last entry, and n_r
is read off d too: its last two entries differ by the half's sum.  As
(1 + s x)^m starts with 1, the residual's lowest term is Z's below x^(c-top), or
else the first nonzero Y_j - Y_-j (0 < j <= top) or Y_j (j > top), at x^(c+j).

The module also validates the three defining identities of the pairs
basis.
"""

from __future__ import annotations

from itertools import accumulate
from operator import neg, sub

from .errors import InputError, InsufficientWindow, NotBpsForm
from .series import (TruncSeries, _add_binom_row, _as_int, _as_type, _fields, _int_str,
                     _json_int, _json_ints, _Record, _times_binom, _within)


class BpsVector(_Record):
    """Integer multiplicities n_0 .. n_g, lowest genus first."""

    __slots__ = ("g", "n")
    g: int
    n: tuple[int, ...]

    def _check(self):
        _as_int(self.g, "g", 0)
        object.__setattr__(self, "n", tuple(map(_as_int, self.n)))
        if len(self.n) != self.g + 1:
            raise InputError(f"genus {self.g} needs {self.g + 1} entries, got {len(self.n)}")

    def __getitem__(self, r: int) -> int:
        if _as_int(r, "r") < 0:
            raise IndexError("r must be non-negative")
        return self.n[r]

    def to_json(self) -> dict:
        return {"g": self.g, "n": list(self.n)}

    @classmethod
    def from_json(cls, obj) -> "BpsVector":
        g, n = _fields(obj, "BPS vector", "g", "n")
        return cls(_json_int(g, "g"), _json_ints(n, "n entry"))


class PairsSeries(_Record):
    """A truncated pairs series together with its declared genus."""

    __slots__ = ("series", "g")
    series: TruncSeries
    g: int

    def _check(self):
        _as_type(self.series, TruncSeries, "series")
        _as_int(self.g, "g", 0)

    def to_json(self) -> dict:
        return {"g": self.g, "series": self.series.to_json()}

    @classmethod
    def from_json(cls, obj) -> "PairsSeries":
        series, g = _fields(obj, "pairs-series", "series", "g")
        return cls(TruncSeries.from_json(series), _json_int(g, "g"))


_PAIRS = (1, 1, -2)  # (c, s, m) of the pairs basis


def _basis_sum(n, order: int, c: int, s: int, m: int) -> TruncSeries:
    """sum n_r x^(c-r) (1 + s x)^(2r+m) over r = 0 .. top = len(n) - 1,
    exact on [c - top, order]: x^c (1 + s x)^m P(u) with P(u) = sum n_r u^r."""
    top = len(n) - 1
    lo = min(c - top, _as_int(order, "order") + 1)
    width = _as_int(order - lo + 1, "window length", 0)
    half = [0] * (top + 1)  # P at x^-top .. x^0: u^r contributes r + 1 terms
    for r, nr in enumerate(n):
        if nr:
            _add_binom_row(half, top - r, nr, 2 * r, s)
    p = (half + half[-2::-1] + [0] * width)[:width]  # P at x^j is P at x^-j
    return TruncSeries._raw(lo, _times_binom(p, m, s), order)


def _basis_peel(series: TruncSeries, top: int, c: int, s: int, m: int):
    """Peel n_top .. n_0 over x^(c-r) (1 + s x)^(2r+m) off the series.

    Returns (n, first): first is the lowest (exponent, coefficient) of the
    residual Z - sum n_r x^(c-r) (1 + s x)^(2r+m), or None when the peel
    closes.  The window must reach c.
    """
    lo = series.min_exp
    if lo > c:  # nothing at or below x^c: every n_r is 0 and the series is the residual
        return [0] * (top + 1), None if series.is_zero else (lo, series.coeff(lo))
    y = _times_binom(series._span(c - top, series.order), -m, s)  # Y over [-top, order - c]
    p = y[:top + 1]  # P(u) must equal Y on [-top, 0]
    if s > 0:  # x -> -x turns u into -(x^-1 - 2 + x): n_r comes out as (-1)^r n_r
        p[-2::-2] = map(neg, p[-2::-2])
    n = []
    # n_r is P at x = 1, where u = 0: 2 sum(p) - p[-1], and sum(p) = d[-1] - d[-2].  Then
    # P <- (P - n_r) / u is d less d[-1], the only entry subtracting n_r from p[-1] would change
    for _ in range(top):
        d = list(accumulate(accumulate(p)))
        n.append(2 * (d[-1] - d[-2]) - p[-1])
        d.pop()
        p = d
    n.append(p[0])
    if s > 0:
        n[1::2] = map(neg, n[1::2])
    hi = y[top + 1:]  # above x^0, Y - P with P_j = Y_-j
    d = list(map(sub, hi, y[top - 1::-1] if top else ())) + hi[top:]
    if lo < c - top:  # the lowest term lies below every basis element
        return n, (lo, series.coeff(lo))
    j = next((j for j, v in enumerate(d) if v), None)
    return n, None if j is None else (c + 1 + j, d[j])


def _reject_residual(first, basis: str) -> None:
    """Raise NotBpsForm at the residual's lowest term, if the peel left one."""
    if first:
        e, c = first
        raise NotBpsForm(f"residual coefficient {_int_str(c)} at q^{_int_str(e)} is not generated "
                         f"by the {basis} basis", exponent=e, coefficient=c)


def _reach_base(order: int, g: int) -> int:
    """The length order + g of the window [1 - g, order]; InsufficientWindow
    when order lies below the base exponent 1 - g."""
    if _as_int(order, "order") < 1 - g:
        raise InsufficientWindow(f"order {_int_str(order)} is below the base exponent {1 - g}")
    return _as_int(order + g, "window length", 0)


def pairs_basis_element(r: int, order: int) -> TruncSeries:
    """B_r = q^(1-r) (1+q)^(2r-2) truncated to `order`; B_0 = q (1+q)^-2."""
    return _basis_sum((0,) * _as_int(r, "r", 0) + (1,), order, *_PAIRS)


def bps_recompose(v: BpsVector, order: int) -> PairsSeries:
    """Sum n_r * B_r, exact on the window [1 - g, order]."""
    _reach_base(order, v.g)
    return PairsSeries._raw(_basis_sum(v.n, order, *_PAIRS), v.g)


def _need_q1(series: TruncSeries, g: int) -> None:
    if series.order < 1:
        raise InsufficientWindow(
            f"decomposition to genus {g} needs the window to reach q^1 "
            f"(order is {_int_str(series.order)}); {g + 1} leading coefficients are required"
        )


def bps_decompose(Z: PairsSeries) -> BpsVector:
    """Recover the unique BPS vector whose recomposition matches Z exactly.

    Raises NotBpsForm if any residual coefficient survives the peel, and
    InsufficientWindow if the window stops short of q^1.
    """
    _need_q1(Z.series, Z.g)
    n, first = _basis_peel(Z.series, Z.g, *_PAIRS)
    _reject_residual(first, f"genus-{Z.g}")
    return BpsVector._raw(Z.g, tuple(n))


class IdentityCheck(_Record):
    """Outcome of one defining identity over the checked window."""

    __slots__ = ("passed", "first_fail_exponent")
    _defaults = {"first_fail_exponent": None}
    passed: bool
    first_fail_exponent: int | None

    def _check(self):
        _as_type(self.passed, bool, "passed")
        if self.first_fail_exponent is not None:
            _as_int(self.first_fail_exponent, "first_fail_exponent")
        if self.passed != (self.first_fail_exponent is None):
            raise InputError("passed must be True exactly when first_fail_exponent is None")

    def to_json(self) -> dict:
        return {"pass": self.passed, "first_fail_exponent": self.first_fail_exponent}


class GgtcReport(_Record):
    """Results of the three defining identities of the pairs basis.

    n0 is the candidate count n_0 the triangular peel would find (read in
    closed form, see validate_ggtc); the identities are checked against it
    on every exponent the window certifies.
    """

    __slots__ = ("passed", "identity_g0", "identity_gg", "identity_0", "checked_order", "n0")
    passed: bool
    identity_g0: IdentityCheck
    identity_gg: IdentityCheck
    identity_0: IdentityCheck
    checked_order: int
    n0: int

    def _check(self):
        _as_type(self.passed, bool, "passed")
        checks = [_as_type(getattr(self, name), IdentityCheck, name)
                  for name in ("identity_g0", "identity_gg", "identity_0")]
        _as_int(self.checked_order, "checked_order"), _as_int(self.n0, "n0")
        if self.passed != all(check.passed for check in checks):
            raise InputError("passed must be True exactly when identity_g0, identity_gg and "
                             "identity_0 all passed")

    def to_json(self) -> dict:
        return {
            "pass": self.passed,
            "identity_g0": self.identity_g0.to_json(),
            "identity_gg": self.identity_gg.to_json(),
            "identity_0": self.identity_0.to_json(),
            "checked_order": self.checked_order,
        }


def validate_ggtc(Z: PairsSeries) -> GgtcReport:
    """Check the three identities that characterise genus-g pairs series.

    N is the degree-zero count n_0 that the triangular peel would find,
    whether or not the peel closes.  It has a closed form: N = P_1 - P_(-1)
    for g >= 2 and N = P_1 for g <= 1.  Proof: each B_r = (q^(-1/2) +
    q^(1/2))^(2r-2) with r >= 1 is symmetric under q <-> 1/q, so peeling it
    leaves P_1 - P_(-1) unchanged, and the peel reads n_0 at q^1 after the
    r = 2 step has cleared q^(-1) (for g <= 1 nothing is peeled at q^(-1),
    and B_1 = 1 has no q^1 term); B_0 = q (1+q)^-2 then has [q^1] = 1.

    The identities are:

    * identity_0:  P_n = 0 for n <= -g;
    * identity_gg: P_n - P_(-n) = (-1)^(n-1) n N for 0 < n < g;
    * identity_g0: P_n = (-1)^(n-1) n N for g <= n <= order.

    The report never raises on failure; a window not reaching q^1 raises
    InsufficientWindow.
    """
    s, g = Z.series, Z.g
    _need_q1(s, g)
    lo, order = s.min_exp, s.order
    top = min(g - 1, order)  # identity_gg runs over 0 < n <= top
    if lo > max(g, 1):  # nothing at or below q^g: N = 0, and identity_g0 fails at q^lo
        N, fail_0, fail_gg, fail_g0 = 0, None, None, None if s.is_zero else lo
    else:
        z = max(top, 1)
        P = s._span(-z, order)  # P[z + n] is P_n on [-z, order]
        N = P[z + 1] - P[z - 1] if g >= 2 else P[z + 1]

        fail_0 = lo if lo <= -g else None  # lo is the lowest nonzero exponent
        fail_gg = next((m for m in range(1, top + 1)
                        if P[z + m] - P[z - m] != (m * N if m % 2 else -m * N)), None)
        fail_g0 = next((m for m in range(g, order + 1)
                        if P[z + m] != (m * N if m % 2 else -m * N)), None)
    return GgtcReport._raw(
        fail_0 is None and fail_gg is None and fail_g0 is None,
        IdentityCheck._raw(fail_g0 is None, fail_g0),
        IdentityCheck._raw(fail_gg is None, fail_gg),
        IdentityCheck._raw(fail_0 is None, fail_0),
        order,
        N,
    )


def hilbert_basis_element(r: int, g: int, order: int) -> TruncSeries:
    """q^(g-r) (1-q)^(2r-2) truncated to `order`."""
    return _basis_sum((0,) * _as_int(r, "r", 0) + (1,), order, _as_int(g, "g", 0), -1, -2)


def hilbert_decompose(H: TruncSeries, g: int) -> BpsVector:
    """Decompose a Hilbert-scheme generating series over q^(g-r)(1-q)^(2r-2).

    The element of index r has lowest exponent g - r with unit leading
    coefficient, so the peel starts at q^0 with r = g.  The window must
    reach q^(g+1); any surviving residual raises NotBpsForm.
    """
    g = _as_int(g, "g", 0)
    _within(g + 1, H.order, f"genus-{g} Hilbert decomposition")
    n, first = _basis_peel(H, g, g, -1, -2)
    _reject_residual(first, f"genus-{g} Hilbert")
    return BpsVector._raw(g, tuple(n))
