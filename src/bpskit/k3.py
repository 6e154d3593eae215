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
row's value at z = 1 bounds every coefficient, fixes b and checks each
unpacked row: at z = 1, F = E^3, so a z-row's |coefficients| sum to the
Yau-Zaslow count [q^h] E^-24.  Every z-row is also z <-> z^-1 symmetric,
and at c = -1 sums to [q^h] E^-16 E(q^2)^-4; `_theta_rows` checks each.

The genus table comes from the same engine on rows in
t = z - 2 + z^-1, where r_(g,h) = (-1)^g [t^g q^h]: no peel runs.  Its
slot bound is the same code run with b = 0 (at t = 1), and its t^0 slot
is the value at z = 1, so the genus-0 column is checked against E^-24.
`kkv_decompose`, the public peel of any product, shares `_genus_table`.
The pair counts and the alternating product of the signed check are
the z-rows times y (1-y)^-2 and y (1+y)^-2, which is a shift and two
running sums.
"""

from __future__ import annotations

from itertools import repeat
from math import comb
from operator import neg

from .bps import _basis_peel
from .errors import AsymmetricInput, InputError
from .series import (BiSeries, LaurentPoly, TruncSeries, _as_int, _as_type, _fields, _int_str,
                     _int_strs, _json_int, _quote, _Record, _times_binom, _unpack, _write_csv,
                     _write_lines, _within, eta_power)

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


def _fail(h: int, fails: str, found: str, got: int, source: str, want: int):
    """Raise the theta engine's error: row h fails a gate, holding got, not want."""
    raise ArithmeticError(f"theta engine: q^{h} row {fails}: {found} {_int_str(got)}, "
                          f"{source} {_int_str(want)}")


def _unpack_rows(packed: list[int], sums: list[int], nbytes: int, signed: bool,
                 t: bool, identity: bool = False) -> list[list[int]]:
    """Slot lists of packed rows with nbytes bytes a slot (series._unpack).

    Row h has h + 1 slots in t, 2h + 1 in z.  It must pass the slot-sum
    gate of _theta_rows against sums[h] (the b = 0 run, or with identity
    the z = 1 values [q^h] E^-24) with no bits left above the top slot.
    An unsigned row that overflowed a slot always fails: each carry
    lowers the slot sum by 2^b - 1.
    """
    rows = []
    for h, (p, want) in enumerate(zip(packed, sums)):
        row, above = _unpack(p, h + 1 if t else 2 * h + 1, nbytes, signed)
        got = sum(map(abs, row))
        if got != want or above:
            _fail(h, "fails the z = 1 identity sum_j [z^j q^h] E^-18 F^-2 = [q^h] E^-24"
                  if identity else f"does not fit {8 * nbytes}-bit slots",
                  "unpacked |coefficients| sum to", got,
                  f"[q^{h}] E^-24 is" if identity else "the b = 0 run gives", want)
        rows.append(row)
    return rows


def _theta_rows(h_max: int, c: int = 1, t: bool = False) -> list[list[int]]:
    """Dense rows of E^-18 F^-2: over z^-h .. z^h, or t^0 .. t^h if t.

    Every coefficient at c = +1 is >= 0 (in t too, since
    (1 - z q^n)(1 - z^-1 q^n) = (1 - q^n)^2 - t q^n), and c = -1 only
    flips signs, so a row's value at z = 1 (at t = 1 if t) bounds each of
    its coefficients.  Row h passes four gates or ArithmeticError names it
    with the values found and expected: its |coefficients| sum to that
    value (E^-24 in z, the b = 0 run in t), in _unpack_rows; in t, its t^0
    slot equals [q^h] E^-24; in z, it equals its mirror image (z <-> z^-1),
    which catches the slot swaps that keep each sum; at c = -1, its signed
    sum equals [q^h] E^-16 E(q^2)^-4.  The last three run in one pass over
    the rows, so the lowest row that fails one of them is named.
    """
    yz = eta_power(-24, h_max).coeff_list()
    sums = _theta_packed(h_max, 1, t, 0) if t else yz
    nbytes = (max(sums).bit_length() + (c < 0) + 7) // 8
    rows = _unpack_rows(_theta_packed(h_max, c, t, 8 * nbytes), sums, nbytes, c < 0, t,
                        identity=not t)
    if c < 0:  # at z = 1, F = E(q^2)^2 / E
        e16, e4 = eta_power(-16, h_max).coeff_list(), eta_power(-4, h_max // 2).coeff_list()
    for h, row in enumerate(rows):
        if t and row[0] != yz[h]:
            _fail(h, "fails the genus-0 identity [t^0 q^h] E^-18 F^-2 = [q^h] E^-24",
                  "its t^0 slot holds", row[0], f"[q^{h}] E^-24 is", yz[h])
        if not t and row != row[::-1]:
            j = next(j for j in range(h) if row[j] != row[-1 - j])
            _fail(h, "fails the mirror identity [z^j q^h] E^-18 F^-2 = [z^-j q^h] E^-18 F^-2",
                  f"z^{j - h} holds", row[j], f"z^{h - j} holds", row[-1 - j])
        if c < 0 and sum(row) != (want := sum([e16[h - 2 * k] * e4[k]
                                               for k in range(h // 2 + 1)])):
            _fail(h, "fails the c = -1 identity sum_j [z^j q^h] E^-18 F^-2 = "
                  "[q^h] E^-16 E(q^2)^-4", "its slots sum to", sum(row),
                  f"[q^{h}] E^-16 E(q^2)^-4 is", want)
    return rows


def _genus_table(vectors: list) -> "KkvTable":
    """The table r_(g,h) = (-1)^g n_g, in (h, g) order, of genus vectors n_0 .. n_h, h = 0, 1, .."""
    rows = {}
    for h, n in enumerate(vectors):
        n[1::2] = map(neg, n[1::2])
        rows.update(zip(zip(range(h + 1), repeat(h)), n))
    return KkvTable._raw(len(vectors) - 1, rows)


def _kkv_table(h_max: int) -> "KkvTable":
    """Genus table r_(g,h) = (-1)^g [t^g q^h] E^-18 F^-2 through q^h_max."""
    return _genus_table(_theta_rows(_as_int(h_max, "h_max", 0), t=True))


def _ky_dense(h_max: int, y_order: int, c: int) -> list[list[int]]:
    """Rows of y (1 - c y)^-2 prod (1-q^n)^-20 (1 - c y q^n)^-2 (1 - c y^-1 q^n)^-2,
    row h as the list of its coefficients at y^(1-h) .. y^y_order."""
    out = []
    for h, row in enumerate(_theta_rows(h_max, c)):
        size = y_order + h  # y-exponents -h .. y_order - 1, before the shift by y
        out.append(_times_binom(row[:size] + [0] * (size - len(row)), -2, -c))
    return out


def _ky_rows(h_max: int, y_order: int, c: int) -> tuple[LaurentPoly, ...]:
    """The rows of _ky_dense as Laurent polynomials in y."""
    return tuple(LaurentPoly._dense(1 - h, row) for h, row in enumerate(_ky_dense(h_max, y_order, c)))


class KkvTable(_Record):
    """Signed genus-h counts r_(g,h) for 0 <= g <= h <= h_max."""

    __slots__ = ("h_max", "rows")
    h_max: int
    rows: dict

    def _check(self):
        _as_int(self.h_max, "h_max", 0)
        rows = self.rows
        if not isinstance(rows, dict):
            raise TypeError(f"KkvTable rows must be a dict, not {type(rows).__name__}")
        for key, r in rows.items():
            if type(key) is not tuple or len(key) != 2:
                raise TypeError("KkvTable keys must be (g, h) pairs of ints")
            _as_int(key[0], "g"), _as_int(key[1], "h"), _as_int(r, "r")

    def value(self, g: int, h: int) -> int:
        g, h = _as_int(g, "g"), _as_int(h, "h")
        if not 0 <= g <= h <= self.h_max:
            raise KeyError(f"(g, h) = ({_int_str(g)}, {_int_str(h)}) lies outside "
                           f"0 <= g <= h <= {self.h_max}")
        return self._at(g, h)

    def genus_row(self, g: int) -> list[int]:
        """Counts r_(g,h) for h = g .. h_max."""
        if not 0 <= _as_int(g, "g") <= self.h_max:
            raise KeyError(f"g = {_int_str(g)} lies outside 0 <= g <= {self.h_max}")
        return [self._at(g, h) for h in range(g, self.h_max + 1)]

    def _at(self, g: int, h: int) -> int:
        """r_(g,h) of an in-range (g, h), which a hand-built table may lack."""
        try:
            return self.rows[(g, h)]
        except KeyError:
            raise KeyError(f"(g, h) = ({_int_str(g)}, {_int_str(h)}) has no entry in the "
                           "table") from None

    def sorted_items(self):
        return sorted(self.rows.items(), key=lambda kv: (kv[0][1], kv[0][0]))

    def _text_rows(self) -> list:
        """(g, h, the text of r_(g,h)) in (h, g) order."""
        items = self.sorted_items()
        values = _int_strs([v for _gh, v in items])
        return [(g, h, r) for ((g, h), _v), r in zip(items, values)]

    def to_json(self) -> dict:
        return {
            "h_max": self.h_max,
            "rows": [{"g": g, "h": h, "r": r} for g, h, r in self._text_rows()],
        }

    def write_json(self, stream):
        """Write the bytes of json.dump(self.to_json(), stream,
        sort_keys=True, indent=2), 4096 rows per write."""
        stream.write('{\n  "h_max": %s,\n  "rows": [' % _int_str(self.h_max))
        _write_lines(stream, '\n    {\n      "g": %s,\n      "h": %s,\n      "r": "%s"\n    }',
                     self._text_rows(), ",")
        stream.write("\n  ]\n}" if self.rows else "]\n}")

    @classmethod
    def from_json(cls, obj) -> "KkvTable":
        h_max, rows = _fields(obj, "table", "h_max", "rows")
        if not isinstance(rows, list):
            raise InputError(f"bad table JSON: rows must be an array, not {_quote(rows)}")
        table = {}
        for row in rows:
            g, h, r = _fields(row, "table row", "g", "h", "r")
            gh = _json_int(g, "g"), _json_int(h, "h")
            if gh in table:
                raise InputError(f"bad table JSON: (g, h) = ({', '.join(_int_strs(gh))}) is named "
                                 "by two rows")
            table[gh] = _json_int(r)
        return cls(_json_int(h_max, "h_max"), table)

    def write_csv(self, stream):
        _write_csv(stream, ("g", "h", "r_gh"), self._text_rows())


class K3PairsSeries(_Record):
    """Euler characteristics of K3 pair moduli: the coefficient of y^n q^h
    is exact for every 1 - h <= n <= y_order, h <= h_max."""

    __slots__ = ("rows", "y_order")
    rows: tuple
    y_order: int

    def _check(self):
        _as_int(self.y_order, "y_order")
        object.__setattr__(self, "rows", tuple(self.rows))
        for p in self.rows:
            if not isinstance(p, LaurentPoly):
                raise TypeError("K3PairsSeries rows must be LaurentPoly values")

    @property
    def h_max(self) -> int:
        return len(self.rows) - 1

    def coeff(self, h: int) -> LaurentPoly:
        return self.rows[_within(h, self.h_max, "a row", 0)]

    def pair_euler(self, n: int, h: int) -> int:
        """Coefficient of y^n q^h."""
        return self.coeff(h).coeff(_within(n, self.y_order, "a pair count", var="y"))

    def to_json(self) -> dict:
        return {
            "h_max": self.h_max,
            "y_order": self.y_order,
            "rows": [p.to_json() for p in self.rows],
        }

    def write_json(self, stream):
        """Write the bytes of json.dump(self.to_json(), stream,
        sort_keys=True, indent=2), one row per write.

        A row's terms go out in the order of their keys' text.  That order
        and each key's text are fixed once per document; a row then picks
        its own exponents from the order and formats its values in one
        string-format call.
        """
        rows = self.rows
        order = sorted(set().union(*[p._terms for p in rows]), key=_int_str)
        text = {n: '\n        "%s": "%%s",' % _int_str(n) for n in order}
        stream.write('{\n  "h_max": %s,\n  "rows": [' % _int_str(self.h_max))
        sep = "\n    "
        for p in rows:
            terms = p._terms
            keys = list(filter(terms.__contains__, order))
            form = "".join(map(text.__getitem__, keys))[:-1]  # without its last ','
            values = tuple(map(terms.__getitem__, keys))
            try:
                body = form % values
            except ValueError:  # a number past the int -> str digit cap
                body = form % tuple(_int_strs(values))
            stream.write(sep + ('{\n      "terms": {' + body + '\n      }\n    }' if keys
                                else '{\n      "terms": {}\n    }'))
            sep = ",\n    "
        stream.write(("\n  ]" if rows else "]") + ',\n  "y_order": %s\n}' % _int_str(self.y_order))


def ky_series(h_max: int, y_order: int) -> K3PairsSeries:
    """Double series of pair-moduli Euler characteristics for primitive
    classes of square 2h - 2 on a K3 surface.

    Equals y (1-y)^-2 prod_{n>=1} (1-q^n)^-20 (1-y q^n)^-2 (1-y^-1 q^n)^-2;
    the q^0 row is y (1-y)^-2 itself.
    """
    h_max, y_order = _as_int(h_max, "h_max", 0), _as_int(y_order, "y_order", 1)
    return K3PairsSeries._raw(_ky_rows(h_max, y_order, 1), y_order)


def kkv_product(h_max: int) -> BiSeries:
    """prod_{n>=1} (1-q^n)^-20 (1-z q^n)^-2 (1-z^-1 q^n)^-2 through q^h_max."""
    rows = _theta_rows(_as_int(h_max, "h_max", 0))
    return BiSeries(LaurentPoly._dense(-h, row) for h, row in enumerate(rows))


def kkv_decompose(B: BiSeries) -> KkvTable:
    """Peel each q^h coefficient over the genus kernels (z - 2 + z^-1)^g.

    The coefficient must be symmetric under z <-> z^-1 with support in
    [-h, h] (AsymmetricInput otherwise); the peel runs from the top genus
    down and always terminates exactly, because the kernels
    z^-g (1-z)^(2g), g = 0..h, are symmetric and unitriangular on that
    lattice, so a residual that vanishes at exponents <= 0 vanishes.
    """
    vectors = []
    for h in range(_as_int(B.order_q, "h_max", 0) + 1):  # an empty B has order_q = -1
        p = B.coeff(h)
        if not p.is_symmetric():
            raise AsymmetricInput(f"q^{h} coefficient is not z <-> z^-1 symmetric")
        if p and p.max_exp > h:
            raise AsymmetricInput(f"q^{h} coefficient has z-support up to "
                                  f"{_int_str(p.max_exp)}, beyond [{-h}, {h}]")
        vectors.append(_basis_peel(TruncSeries._raw(-h, p._span(-h, h), h), h, 0, -1, 0)[0])
    return _genus_table(vectors)


def yau_zaslow(h_max: int) -> TruncSeries:
    """Rational-curve counts in primitive classes: prod (1-q^n)^-24."""
    return eta_power(-24, _as_int(h_max, "h_max", 0))


class SignedCheckReport(_Record):
    """Outcome of the signed conversion identity between the pair counts
    and the alternating product form."""

    __slots__ = ("passed", "first_mismatch", "h_max", "y_order")
    passed: bool
    first_mismatch: tuple[int, int] | None
    h_max: int
    y_order: int

    def _check(self):
        _as_type(self.passed, bool, "passed")
        if self.first_mismatch is not None:
            for x in _as_type(self.first_mismatch, tuple, "first_mismatch"):
                _as_int(x, "first_mismatch entry")
        _as_int(self.h_max, "h_max"), _as_int(self.y_order, "y_order")
        if self.passed != (self.first_mismatch is None):
            raise InputError("passed must be True exactly when first_mismatch is None")

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
    guaranteed to be reported as that (h, n); outside the window
    1 - h <= n <= y_order, h <= h_max it changes nothing.
    """
    h_max, y_order = _as_int(h_max, "h_max", 0), _as_int(y_order, "y_order", 1)
    first = None
    for h, (got, want) in enumerate(zip(_ky_dense(h_max, y_order, 1),
                                        _ky_dense(h_max, y_order, -1))):
        if tamper and tamper[0] == h and 1 - h <= tamper[1] <= y_order:
            got[tamper[1] + h - 1] += tamper[2]
        s = (h + 1) % 2  # the slots of even n, where (-1)^(n-1) is -1
        got[s::2] = map(neg, got[s::2])
        if got != want:
            i = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
            first = (h, i + 1 - h)
            break
    return SignedCheckReport(first is None, first, h_max, y_order)
