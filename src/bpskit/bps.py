"""Change of basis between stable-pairs series and integer BPS vectors.

Every basis the package decomposes over has one shape: element r is

    x^(c - r) (1 + s x)^(2r + m),    r = 0 .. top,

with lowest exponent c - r and unit leading coefficient.  A series in the
span is therefore recovered by one triangular peel that runs the elements
from r = top down to 0, and rebuilt by the same table run forwards:

    basis     variable  c      s    m              element r
    pairs     q         1      +1   -2             q^(1-r) (1+q)^(2r-2)
    Hilbert   q         g      -1   -2             q^(g-r) (1-q)^(2r-2)
    punctual  q         delta  +1   -2 delta - mu  q^(delta-r) (1+q)^(2r-2delta-mu)
    KKV       z         0      -1   0              z^(-r) (1-z)^(2r) = (z-2+z^-1)^r

The pairs basis carries the BPS multiplicities n_0 .. n_g of a genus-g
pairs series; the Hilbert basis decomposes Hilbert-scheme generating
series; the punctual basis is read on the q-negated punctual series of a
planar germ; the KKV kernels turn the K3 product into r_(g,h) = (-1)^g n_g.

Each element is one binomial row, `series._add_binom_row`, which
`binom_pow`, `product_family` and the curve contributions share.  A
negative power 2r + m is an infinite series that the row's exact
recurrence expands up to the window's end, so the r = 0 elements
B_0 = q (1+q)^-2 and q^g (1-q)^-2 = sum (k+1) q^(g+k) are no special case.
The module also validates the three defining identities of the pairs
basis.
"""

from __future__ import annotations

from .errors import InputError, InsufficientWindow, NotBpsForm
from .series import TruncSeries, _add_binom_row, _as_int, _json_int, _json_ints, _Record


class BpsVector(_Record):
    """Integer multiplicities n_0 .. n_g, lowest genus first."""

    __slots__ = ("g", "n")
    g: int
    n: tuple[int, ...]

    def _check(self):
        if self.g < 0:
            raise ValueError("g must be non-negative")
        object.__setattr__(self, "n", tuple(_as_int(v) for v in self.n))
        if len(self.n) != self.g + 1:
            raise ValueError(f"genus {self.g} needs {self.g + 1} entries, got {len(self.n)}")

    def __getitem__(self, r: int) -> int:
        return self.n[r]

    def to_json(self) -> dict:
        return {"g": self.g, "n": list(self.n)}

    @classmethod
    def from_json(cls, obj) -> "BpsVector":
        try:
            return cls(_json_int(obj["g"], "g"), _json_ints(obj["n"], "n entry"))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad BPS vector JSON: {exc}") from None


class PairsSeries(_Record):
    """A truncated pairs series together with its declared genus."""

    __slots__ = ("series", "g")
    series: TruncSeries
    g: int

    def _check(self):
        if self.g < 0:
            raise ValueError("g must be non-negative")

    def to_json(self) -> dict:
        return {"g": self.g, "series": self.series.to_json()}

    @classmethod
    def from_json(cls, obj) -> "PairsSeries":
        try:
            return cls(TruncSeries.from_json(obj["series"]), _json_int(obj["g"], "g"))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad pairs-series JSON: {exc}") from None


_PAIRS = (1, 1, -2)  # (c, s, m) of the pairs basis


def _basis_sum(n, order: int, c: int, s: int, m: int) -> TruncSeries:
    """sum n_r x^(c-r) (1 + s x)^(2r+m) over r = 0 .. top = len(n) - 1,
    exact on [c - top, order]."""
    lo = min(c - len(n) + 1, order + 1)
    acc = [0] * (order - lo + 1)
    for r, nr in enumerate(n):
        if nr:
            _add_binom_row(acc, c - r - lo, nr, 2 * r + m, s)
    return TruncSeries._raw(lo, acc, order)


def _basis_peel(series: TruncSeries, top: int, c: int, s: int, m: int):
    """Peel n_top .. n_0 over x^(c-r) (1 + s x)^(2r+m) off the series.

    Returns (n, residual, base): the residual is dense over [base, order],
    where base = min(series.min_exp, c - top).  The window must reach c.
    """
    base = min(series.min_exp, c - top)
    res = [0] * (series.order - base + 1)
    res[series.min_exp - base:] = series.coeff_list()
    n = [0] * (top + 1)
    for r in range(top, -1, -1):
        i = c - r - base
        nr = n[r] = res[i]
        if nr:
            _add_binom_row(res, i, -nr, 2 * r + m, s)
    return n, res, base


def _reject_residual(res: list, base: int, basis: str) -> None:
    """Raise NotBpsForm at the lowest exponent the peel left nonzero."""
    for i, c in enumerate(res):
        if c:
            raise NotBpsForm(
                f"residual coefficient {c} at q^{base + i} is not generated "
                f"by the {basis} basis",
                exponent=base + i,
            )


def pairs_basis_element(r: int, order: int) -> TruncSeries:
    """B_r = q^(1-r) (1+q)^(2r-2) truncated to `order`; B_0 = q (1+q)^-2."""
    if r < 0:
        raise ValueError("r must be non-negative")
    return _basis_sum((0,) * r + (1,), order, *_PAIRS)


def bps_recompose(v: BpsVector, order: int) -> PairsSeries:
    """Sum n_r * B_r, exact on the window [1 - g, order]."""
    g = v.g
    if order < 1 - g:
        raise InsufficientWindow(f"order {order} is below the base exponent {1 - g}")
    return PairsSeries(_basis_sum(v.n, order, *_PAIRS), g)


def _need_q1(series: TruncSeries, g: int) -> None:
    if series.order < 1:
        raise InsufficientWindow(
            f"decomposition to genus {g} needs the window to reach q^1 "
            f"(order is {series.order}); {g + 1} leading coefficients are required"
        )


def _pairs_peel(series: TruncSeries, g: int):
    """Peel of n_g .. n_0 over the pairs basis; callers decide what to do
    with a nonzero residual."""
    _need_q1(series, g)
    return _basis_peel(series, g, *_PAIRS)


def bps_decompose(Z: PairsSeries) -> BpsVector:
    """Recover the unique BPS vector whose recomposition matches Z exactly.

    Raises NotBpsForm if any residual coefficient survives the peel, and
    InsufficientWindow if the window stops short of q^1.
    """
    n, res, base = _pairs_peel(Z.series, Z.g)
    _reject_residual(res, base, f"genus-{Z.g}")
    return BpsVector(Z.g, tuple(n))


class IdentityCheck(_Record):
    """Outcome of one defining identity over the checked window."""

    __slots__ = ("passed", "first_fail_exponent")
    _defaults = {"first_fail_exponent": None}
    passed: bool
    first_fail_exponent: int | None

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
    base = min(lo, -max(top, 1))
    P = [0] * (lo - base) + s.coeff_list()  # P[z + n] is P_n on [base, order]
    z = -base
    N = P[z + 1] - P[z - 1] if g >= 2 else P[z + 1]

    fail_0 = lo if lo <= -g else None  # lo is the lowest nonzero exponent
    fail_gg = next((m for m in range(1, top + 1)
                    if P[z + m] - P[z - m] != (m * N if m % 2 else -m * N)), None)
    fail_g0 = next((m for m in range(g, order + 1)
                    if P[z + m] != (m * N if m % 2 else -m * N)), None)
    return GgtcReport(
        fail_0 is None and fail_gg is None and fail_g0 is None,
        IdentityCheck(fail_g0 is None, fail_g0),
        IdentityCheck(fail_gg is None, fail_gg),
        IdentityCheck(fail_0 is None, fail_0),
        order,
        N,
    )


def hilbert_basis_element(r: int, g: int, order: int) -> TruncSeries:
    """q^(g-r) (1-q)^(2r-2) truncated to `order`."""
    if r < 0:
        raise ValueError("r must be non-negative")
    if g < 0:
        raise ValueError("g must be non-negative")
    return _basis_sum((0,) * r + (1,), order, g, -1, -2)


def hilbert_decompose(H: TruncSeries, g: int) -> BpsVector:
    """Decompose a Hilbert-scheme generating series over q^(g-r)(1-q)^(2r-2).

    The element of index r has lowest exponent g - r with unit leading
    coefficient, so the peel starts at q^0 with r = g.  The window must
    reach q^(g+1); any surviving residual raises NotBpsForm.
    """
    if g < 0:
        raise ValueError("g must be non-negative")
    if H.order < g + 1:
        raise InsufficientWindow(
            f"genus-{g} Hilbert decomposition needs the window to reach q^{g + 1} "
            f"(order is {H.order})"
        )
    n, res, base = _basis_peel(H, g, g, -1, -2)
    _reject_residual(res, base, f"genus-{g} Hilbert")
    return BpsVector(g, tuple(n))
