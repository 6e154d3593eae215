"""Exact formal-series engine.

Three value types, all immutable, all over arbitrary-precision integers:

* LaurentPoly -- finite-support Laurent polynomial in one variable.
* TruncSeries -- Laurent series in q known exactly on a tracked window
  of exponents [min_exp, order].  Coefficients below min_exp are zero
  (min_exp bounds the valuation) and coefficients above order are
  unknown and never reported.
* BiSeries -- series in q up to a fixed order whose coefficients are
  Laurent polynomials in a second variable.

Every operation derives the largest output window its inputs certify,
so a reported coefficient is always exact.
"""

from __future__ import annotations

import sys
from collections import Counter
from collections.abc import Iterable, Mapping
from itertools import accumulate, islice, repeat
from operator import add, neg, sub

from . import kernels
from .errors import EmptyWindow, InputError, InsufficientWindow, NonUnitLeading, PreconditionError


def _as_int(x, what="coefficient", least=None):
    """x if it is an int, not a bool (TypeError otherwise).  Given least, x
    counts something or sizes a window: below least it raises InputError,
    and past sys.maxsize, longer than any list, PreconditionError."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"{what} must be an int, not {type(x).__name__}")
    if least is not None:
        if x < least:
            raise InputError(f"{what} must be " + (f"at least {least}" if least else "non-negative"))
        if x > sys.maxsize:
            raise PreconditionError(f"{what} {_int_str(x)} is past sys.maxsize: no list is that long")
    return x


def _as_type(x, cls, what):
    """x if it is a cls; TypeError naming what otherwise."""
    if not isinstance(x, cls):
        raise TypeError(f"{what} must be {cls.__name__}, not {type(x).__name__}")
    return x


def _within(n, hi, what, lo=None, var="q"):
    """n, an int by _as_int, when var^n lies in the exact window [lo, hi]
    (no lower end without lo); InsufficientWindow names what needs it
    otherwise."""
    n = _as_int(n, "exponent")
    if n > hi or lo is not None and n < lo:
        window = (f"order is {_int_str(hi)}" if lo is None
                  else f"window is [{_int_str(lo)}, {_int_str(hi)}]")
        raise InsufficientWindow(f"{what} needs the window to reach {var}^{_int_str(n)} ({window})")
    return n


# CPython caps int <-> str conversion at sys.get_int_max_str_digits()
# digits (4300 by default).  The converters below split a longer number
# into pieces under the cap; they run only after str() or int() raised.


def _big_int(text: str) -> int:
    """int(text) for a string of an optional '-' and ASCII digits, of any
    length."""
    step = sys.get_int_max_str_digits()
    powers = {}

    def conv(s):
        if len(s) <= step:
            return int(s)
        k = len(s) // 2
        if k not in powers:
            powers[k] = 10 ** k
        return conv(s[:-k]) * powers[k] + conv(s[-k:])

    return -conv(text[1:]) if text[:1] == "-" else conv(text)


def _big_str(x: int) -> str:
    """str(x) for an int of any size."""
    step = sys.get_int_max_str_digits()

    def conv(v, width):  # v >= 0, zero-padded to width digits
        k = v.bit_length() * 30103 // 100000 + 1  # at least the digit count
        if k <= step:
            return str(v).zfill(width)
        k //= 2
        hi, lo = divmod(v, 10 ** k)
        return conv(hi, width - k) + conv(lo, k)

    return "-" + conv(-x, 0) if x < 0 else conv(x, 0)


def _int_str(x: int) -> str:
    try:
        return str(x)
    except ValueError:
        return _big_str(x)


try:  # the C escaper that json.encoder binds, without importing json
    from _json import encode_basestring_ascii as _esc
except ImportError:  # a Python built without the _json accelerator
    from json.encoder import encode_basestring_ascii as _esc


def _json_text(obj, pad: str) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) of any value json.loads
    returns (dicts with str keys, lists, str, int, float, bool and None),
    for ints of any size; pad is the newline and indent of obj's line."""
    t = type(obj)
    if t is str:
        return _esc(obj)
    if t is int:
        return _int_str(obj)
    if obj is None or t is bool:
        return "null" if obj is None else "true" if obj else "false"
    if t is dict:
        if not obj:
            return "{}"
        inner = pad + "  "
        body = [_esc(k) + ": " + _json_text(obj[k], inner) for k in sorted(obj)]
        return "{" + inner + ("," + inner).join(body) + pad + "}"
    if t is list:
        if not obj:
            return "[]"
        inner = pad + "  "
        try:
            body = list(map(_esc, obj))  # a list of str, one C call
        except TypeError:
            body = [_json_text(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(body) + pad + "]"
    if t is float:  # bpskit writes none, but a bad input value may be one
        text = repr(obj)
        return {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}.get(text, text)
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _int_strs(xs) -> list:
    """[str(x) for x in xs], for ints of any size; xs is a sequence, walked
    twice when it holds a number past the digit cap."""
    try:
        return list(map(str, xs))
    except ValueError:
        return [_int_str(x) for x in xs]


def _terms_text(items, var: str) -> str:
    """The (exponent, coefficient) pairs items as the terms c, c*var and
    c*var^e joined by ' + ', or '0' when there are none."""
    return " + ".join([_int_str(c) if e == 0 else f"{_int_str(c)}*{var}" if e == 1
                       else f"{_int_str(c)}*{var}^{_int_str(e)}" for e, c in items]) or "0"


def _write_csv(stream, head, rows):
    """Write head and rows (tuples of str, or of ints under the digit cap)
    as comma-separated lines, 4096 rows per write: the bytes of
    csv.writer(stream, lineterminator="\n"), since fields of digits and
    '-' need no quoting."""
    stream.write(",".join(head) + "\n")
    _write_lines(stream, ",".join(["%s"] * len(head)) + "\n", rows)


def _write_lines(stream, line, rows, sep=""):
    """Write line % row for each row, joined by sep, 4096 rows per write."""
    rows = iter(rows)
    first = ""
    while lines := [line % row for row in islice(rows, 4096)]:
        stream.write(first + sep.join(lines))
        first = sep


def _json_int(x, what="coefficient"):
    """An integer read from JSON: a JSON int (not a bool) or a string of an
    optional '-' and ASCII digits, of any length.  Anything else raises
    InputError."""
    if type(x) is int:
        return x
    if type(x) is str:
        digits = x[1:] if x[:1] == "-" else x
        if digits.isdigit() and digits.isascii():
            try:
                return int(x)
            except ValueError:  # past the digit cap
                return _big_int(x)
    raise InputError(f"{what} must be an integer or a decimal string, not {_quote(x)}")


def _quote(x) -> str:
    """x as one line of JSON, cut to 40 characters, to name a bad input
    value; its repr when x is no JSON value or nests too deep to write,
    and its type when that repr fails."""
    try:  # an escaped str holds no newline: each one starts an indent
        text = "".join(map(str.lstrip, _json_text(x, "\n").replace(",\n", ", \n").split("\n")))
    except (TypeError, RecursionError):
        try:
            text = repr(x)
        except (ValueError, RecursionError):  # a tuple holding an int past the digit cap, say
            text = "a " + type(x).__name__
    return text if len(text) <= 40 else text[:37] + "..."


def _fields(obj, what: str, *names) -> list:
    """The values of names in the JSON object obj, in order; InputError
    naming what when obj is not an object or lacks one of them."""
    if not isinstance(obj, dict):
        raise InputError(f"bad {what} JSON: expected an object, not {_quote(obj)}")
    try:
        return [obj[name] for name in names]
    except KeyError as exc:  # the first missing name
        raise InputError(f"bad {what} JSON: {exc}") from None


def _json_ints(xs, what="coefficient") -> list:
    """_json_int over a JSON array, checked in bulk, several times cheaper
    than a call per entry.  When the strings hold only ASCII digits and
    '-' (bytes.isdigit is ASCII-only), int() accepts exactly the shape
    -?[0-9]+ and rejects the rest."""
    if type(xs) is not list:
        raise InputError(f"the {what} list must be a JSON array")
    kinds = set(map(type, xs))
    if kinds <= {int, str}:
        text = "".join([x for x in xs if type(x) is str] if int in kinds else xs)
        if not text or text.isascii() and text.encode().replace(b"-", b"").isdigit():
            try:
                return list(map(int, xs))
            except ValueError:
                pass
    return [_json_int(x, what) for x in xs]  # raises, naming the first bad entry


def _add_binom_row(acc: list, i: int, coef: int, p: int, s: int) -> None:
    """acc[i + k] += coef * C(p, k) s^k: coef times (1 + s x)^p placed at
    index i, through the end of acc (or through k = p when p >= 0).

    C(p, k) comes from the exact ratio C(p, k-1) (p-k+1) / k, so p may be
    any integer; nothing is written when i lies past the end of acc.
    """
    top = len(acc) - 1 - i
    if top < 0:
        return
    if 0 <= p < top:
        top = p
    acc[i] += coef
    b = coef
    for k in range(1, top + 1):
        b = b * ((p - k + 1) * s) // k
        acc[i + k] += b


_PACKED_FROM = 16  # from this |p| on _times_binom packs: past the p > 0 break-even


def _times_binom(a: list, p: int, s: int) -> list:
    """a (1 + s x)^p truncated to len(a), consuming a, for any integer p and
    s = +1 or -1.  Below |p| = _PACKED_FROM: p passes of a_k + s a_(k-1),
    or -p running sums, the odd slots flipped before and after for s = +1
    ((1 + x)^-1 is (1 - x)^-1 with x -> -x).  From there on, one Kronecker
    product (Harvey, arXiv:0712.4046): x -> 2^b maps Z[x]/(x^n) to Z/2^(bn)
    as a ring map, so the product is the packed a times (1 + s 2^b)^p: the
    power itself for 0 < p < n, else the packed row C(p, k) s^k, k < n
    (pow(1 + s 2^b, p, 2^(bn)) would divide at full size per step).  Slot
    width: every output coefficient obeys

        |[x^j] a (1 + s x)^p| <= max|a| sum_(k<n) |C(p, k)| <= max|a| 2^t,

    the sum being at most 2^p and (p+1)^(n-1) (C(p, k) <= C(n-1, k) p^k) for
    p > 0, and C(n-1-p, n-1), below 2^(n-1-p) and (n-p)^(n-1), for p < 0.
    b is t plus the bit length of max|a| plus one sign bit, rounded up to
    whole bytes, the layout of _pack and _unpack.
    """
    if -_PACKED_FROM < p < _PACKED_FROM:
        for _ in range(p):
            a[1:] = map(add if s > 0 else sub, a[1:], a)
        if p < 0 and s > 0:
            a[1::2] = map(neg, a[1::2])
        for _ in range(-p):
            a = accumulate(a)
        a = list(a)
        if p < 0 and s > 0:
            a[1::2] = map(neg, a[1::2])
        return a
    n = len(a)
    if not n:
        return a
    t = (min(p, (n - 1) * (p + 1).bit_length()) if p > 0
         else min(n - 1 - p, (n - 1) * (n - p).bit_length()))
    nbytes = (max(map(abs, a)).bit_length() + t + 8) // 8
    if 0 < p < n:
        x = (1 + s * (1 << 8 * nbytes)) ** p
    else:
        row = [0] * n
        _add_binom_row(row, 0, 1, p, s)
        x = _pack(row, nbytes)
    return _unpack(_pack(a, nbytes) * x, n, nbytes, True)[0]


# Kronecker substitution (Harvey, arXiv:0712.4046) holds a list of n
# integers as one int, sum v_k 2^(bk), with b = 8 * nbytes bits a slot.
# A signed slot holds a value in [-2^(b-1), 2^(b-1)); biasing every slot
# by 2^(b-1) makes each biased slot non-negative, so one int.to_bytes
# reads them all.


def _slot_bias(n: int, nbytes: int) -> int:
    return int.from_bytes((bytes(nbytes - 1) + b"\x80") * n, "little")


def _pack(values: list, nbytes: int) -> int:
    """sum v_k 2^(bk) over the values, each in [-2^(b-1), 2^(b-1))."""
    half = 1 << (8 * nbytes - 1)
    raw = b"".join([(v + half).to_bytes(nbytes, "little") for v in values])
    return int.from_bytes(raw, "little") - _slot_bias(len(values), nbytes)


def _unpack(p: int, n: int, nbytes: int, signed: bool) -> tuple[list, int]:
    """The n slots of a packed int and the bits left above the top slot.

    Signed slots read as values in [-2^(b-1), 2^(b-1)), unsigned ones in
    [0, 2^b).  An unsigned slot that overflowed carried into the next, so
    it shows as a nonzero remainder above or a lower slot sum.
    """
    b = 8 * nbytes
    half = 1 << (b - 1) if signed else 0
    if signed:
        p += _slot_bias(n, nbytes)
    raw = (p & ((1 << (b * n)) - 1)).to_bytes(nbytes * n, "little")
    slots = [int.from_bytes(raw[i:i + nbytes], "little") - half
             for i in range(0, nbytes * n, nbytes)]
    return slots, p >> (b * n)


def _repr(x) -> str:
    """repr(x), also where an int past the digit cap stands alone or in a
    tuple or dict."""
    try:
        return repr(x)
    except ValueError:
        if isinstance(x, int):
            return _big_str(x)
        if isinstance(x, tuple):
            return "(" + ", ".join(map(_repr, x)) + ("," if len(x) == 1 else "") + ")"
        if isinstance(x, dict):
            return "{" + ", ".join(f"{_repr(k)}: {_repr(v)}" for k, v in x.items()) + "}"
        raise


_setattr = object.__setattr__  # binds a field past _Record.__setattr__


class _Record:
    """Immutable record: the base of the package's result types.

    A subclass names its fields in __slots__, may give defaults in
    _defaults, and may validate or normalise the bound fields in _check
    (normalising through object.__setattr__).  Fields bind positionally or
    by keyword; equality (same type only) and hashing go by the field
    tuple, so a record holding a dict is unhashable.  Only records the
    library builds from its own arithmetic skip _check, through _raw; the
    constructor and every from_json run it.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        for name, value in zip(names, args):
            _setattr(self, name, value)
        self._check()

    @classmethod
    def _raw(cls, *values):
        """The record of values, in field order, taken as is."""
        rec = cls.__new__(cls)
        for name, value in zip(cls.__slots__, values):
            _setattr(rec, name, value)
        return rec

    @classmethod
    def _bind(cls, args, kwargs) -> list:
        names = cls.__slots__
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} positional arguments "
                            f"but {len(args)} were given")
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls._defaults:
                values.append(cls._defaults[name])
            else:
                raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
        if kwargs:
            name = next(iter(kwargs))
            how = "multiple values for" if name in names else "an unexpected keyword"
            raise TypeError(f"{cls.__name__}() got {how} argument {name!r}")
        return values

    def _check(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={_repr(getattr(self, name))}" for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class LaurentPoly:
    """Finite-support Laurent polynomial with integer coefficients.

    Zero coefficients are never stored, so equality is plain term-map
    equality.  _raw is the one place that drops them: every constructor
    and operation hands its term map to _raw.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] | None = None):
        data: dict[int, int] = {}
        for e, c in terms.items() if isinstance(terms, Mapping) else terms or ():
            c = _as_int(c)
            e = _as_int(e, "exponent")
            data[e] = data.get(e, 0) + c
        self._terms = self._raw(data)._terms

    @classmethod
    def _raw(cls, data: dict[int, int]) -> "LaurentPoly":
        """The polynomial of the term map data (int keys and values), taken
        as is unless it holds a zero coefficient."""
        if 0 in data.values():
            data = {e: c for e, c in data.items() if c}
        p = cls.__new__(cls)
        p._terms = data
        return p

    @classmethod
    def _dense(cls, lo: int, coeffs) -> "LaurentPoly":
        """The polynomial sum coeffs[i] x^(lo + i)."""
        return cls._raw(dict(zip(range(lo, lo + len(coeffs)), coeffs)))

    def _span(self, lo: int, hi: int) -> list:
        """The coefficients of x^lo .. x^hi, the read-side twin of _dense."""
        return list(map(self._terms.get, range(lo, hi + 1), repeat(0)))

    def coeff(self, e: int) -> int:
        return self._terms.get(_as_int(e, "exponent"), 0)

    def items(self):
        """Terms as (exponent, coefficient) pairs in increasing exponent order."""
        return sorted(self._terms.items())

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._terms))

    @property
    def min_exp(self) -> int | None:
        return min(self._terms) if self._terms else None

    @property
    def max_exp(self) -> int | None:
        return max(self._terms) if self._terms else None

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __neg__(self):
        return LaurentPoly._raw({e: -c for e, c in self._terms.items()})

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        data = dict(self._terms)
        for e, c in other._terms.items():
            data[e] = data.get(e, 0) + c
        return LaurentPoly._raw(data)

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        data: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                data[e] = data.get(e, 0) + c1 * c2
        return LaurentPoly._raw(data)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, k: int):
        k = _as_int(k, "power", 0)
        out = LaurentPoly({0: 1})
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def scale(self, c: int) -> "LaurentPoly":
        c = _as_int(c)
        return LaurentPoly._raw({e: c * v for e, v in self._terms.items()})

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by the k-th power of the variable."""
        k = _as_int(k, "shift")
        return LaurentPoly._raw({e + k: c for e, c in self._terms.items()})

    def involution(self) -> "LaurentPoly":
        """Substitute the variable by its reciprocal."""
        return LaurentPoly._raw({-e: c for e, c in self._terms.items()})

    def is_symmetric(self) -> bool:
        """True when invariant under the variable <-> reciprocal involution."""
        return all(self._terms.get(-e, 0) == c for e, c in self._terms.items())

    def eval_at_one(self) -> int:
        return sum(self._terms.values())

    def __repr__(self):
        return f"LaurentPoly({_terms_text(self.items(), 'z')})"

    def to_json(self) -> dict:
        es = sorted(self._terms)
        return {"terms": dict(zip(_int_strs(es), _int_strs([self._terms[e] for e in es])))}

    @classmethod
    def from_json(cls, obj) -> "LaurentPoly":
        terms, = _fields(obj, "Laurent polynomial", "terms")
        if not isinstance(terms, dict):
            raise InputError("bad Laurent polynomial JSON: terms must be an object, "
                             f"not {_quote(terms)}")
        out = {_json_int(k, "exponent"): _json_int(v) for k, v in terms.items()}
        if len(out) != len(terms):  # "1" and "01", or "0" and "-0"
            e = Counter(map(_json_int, terms)).most_common(1)[0][0]
            raise InputError(f"bad Laurent polynomial JSON: exponent {_int_str(e)} is named "
                             "by two keys")
        return cls._raw(out)


class TruncSeries:
    """Laurent series in q, exact on the exponent window [min_exp, order].

    The stored coefficient array is dense over the window with no leading
    zeros; an all-zero series is stored with an empty array and
    min_exp == order + 1.  order == min_exp - 1 is legal and means the
    window determines no coefficient.
    """

    __slots__ = ("_min", "_order", "_coeffs")

    def __init__(self, min_exp: int, coeffs, order: int | None = None):
        coeffs = [_as_int(c) for c in coeffs]
        min_exp = _as_int(min_exp, "min_exp")
        order = min_exp + len(coeffs) - 1 if order is None else _as_int(order, "order")
        s = self._window(min_exp, coeffs, order)
        self._min, self._order, self._coeffs = s._min, s._order, s._coeffs

    @classmethod
    def _window(cls, min_exp: int, coeffs: list, order: int) -> "TruncSeries":
        """_raw, after InputError unless coeffs fill [min_exp, order]."""
        if len(coeffs) != order - min_exp + 1:
            raise InputError(f"window [{_int_str(min_exp)}, {_int_str(order)}] needs "
                             f"{_int_str(order - min_exp + 1)} coefficients, got {len(coeffs)}")
        return cls._raw(min_exp, coeffs, order)

    @classmethod
    def _raw(cls, min_exp: int, coeffs: list, order: int) -> "TruncSeries":
        lead = 0
        while lead < len(coeffs) and not coeffs[lead]:
            lead += 1
        s = cls.__new__(cls)
        s._min = min_exp + lead
        s._order = order
        s._coeffs = tuple(coeffs[lead:])
        return s

    @classmethod
    def from_terms(cls, terms: Mapping[int, int], order: int | None = None,
                   min_exp: int | None = None) -> "TruncSeries":
        """Series whose complete list of nonzero terms up to `order` is given.

        The caller asserts exactness: exponents not listed are zero on the
        whole window.
        """
        p = LaurentPoly(terms)
        if order is None and not p:
            raise InputError("an all-zero series needs an explicit order")
        order = p.max_exp if order is None else _as_int(order, "order")
        if p and (top := p.max_exp) > order:
            raise InputError(f"term at exponent {_int_str(top)} lies above order {_int_str(order)}")
        lo = p.min_exp if p else order + 1
        if min_exp is not None:
            lo = min(lo, _as_int(min_exp, "min_exp"))
        _as_int(order - lo + 1, "window length", 0)
        return cls._raw(lo, p._span(lo, order), order)

    @classmethod
    def zero(cls, order: int) -> "TruncSeries":
        return cls(order + 1, [], order)

    @classmethod
    def one(cls, order: int) -> "TruncSeries":
        return cls.from_terms({0: 1}, order=order)

    @property
    def min_exp(self) -> int:
        return self._min

    @property
    def order(self) -> int:
        return self._order

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def _span(self, lo: int, hi: int) -> list:
        """The coefficients of q^lo .. q^hi, zeros below min_exp: the one dense
        read of a window, the read-side twin of _raw.  hi must not exceed order."""
        i, j = lo - self._min, hi + 1 - self._min
        if i >= 0:
            return list(self._coeffs[i:j])
        return [0] * min(-i, hi - lo + 1) + list(self._coeffs[:max(j, 0)])

    def coeff(self, n: int) -> int:
        """Exact coefficient of q**n; n may lie anywhere at or below order."""
        if _within(n, self._order, "a coefficient") < self._min:
            return 0
        return self._coeffs[n - self._min]

    def __getitem__(self, n: int) -> int:
        return self.coeff(n)

    def coeff_list(self) -> list[int]:
        """Dense coefficients over [min_exp, order]."""
        return list(self._coeffs)

    def items(self):
        """Nonzero (exponent, coefficient) pairs in increasing exponent order."""
        return [(self._min + i, c) for i, c in enumerate(self._coeffs) if c]

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (self._min, self._order, self._coeffs) == (other._min, other._order, other._coeffs)

    def __hash__(self):
        return hash((self._min, self._order, self._coeffs))

    def __neg__(self):
        return TruncSeries._raw(self._min, [-c for c in self._coeffs], self._order)

    def __add__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        lo = min(self._min, other._min)
        order = min(self._order, other._order)
        return TruncSeries._raw(lo, list(map(add, self._span(lo, order), other._span(lo, order))),
                                order)

    def __sub__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        lo = self._min + other._min
        order = min(self._order + other._min, other._order + self._min)
        out = kernels.mul_trunc(self._coeffs, other._coeffs, order - lo + 1)
        return TruncSeries._raw(lo, out, order)

    def scale(self, c: int) -> "TruncSeries":
        c = _as_int(c)
        return TruncSeries._raw(self._min, [c * v for v in self._coeffs], self._order)

    def shift(self, k: int) -> "TruncSeries":
        """Multiply by q**k."""
        k = _as_int(k, "shift")
        s = TruncSeries.__new__(TruncSeries)
        s._min = self._min + k
        s._order = self._order + k
        s._coeffs = self._coeffs
        return s

    def truncate(self, order: int) -> "TruncSeries":
        """Forget coefficients above `order` (which must not exceed self.order)."""
        lo = min(self._min, _within(order, self._order, "truncation") + 1)
        return TruncSeries._raw(lo, self._span(lo, order), order)

    def negate_q(self) -> "TruncSeries":
        """Substitute q -> -q."""
        out = list(self._coeffs)
        s = (self._min + 1) % 2  # the slots of odd exponent
        out[s::2] = map(neg, out[s::2])
        return TruncSeries._raw(self._min, out, self._order)

    def inverse(self, order: int) -> "TruncSeries":
        """Multiplicative inverse, exact through q**order.

        Needs a lowest nonzero coefficient of +1 or -1.  With valuation v,
        an input exact to q**o certifies the inverse only through
        q**(o - 2v); asking beyond that raises InsufficientWindow.
        """
        order = _as_int(order, "order")
        if not self._coeffs:
            raise NonUnitLeading("the zero series has no multiplicative inverse")
        lead = self._coeffs[0]
        if lead not in (1, -1):
            raise NonUnitLeading(f"leading coefficient must be +1 or -1 to invert exactly, "
                                 f"got {_int_str(lead)}")
        v = self._min
        provable = self._order - 2 * v
        if order > provable:
            raise InsufficientWindow(f"inverse is certified only through q^{_int_str(provable)}; "
                                     f"q^{_int_str(order)} needs the input exact through "
                                     f"q^{_int_str(order + 2 * v)}")
        if order < -v:
            raise InsufficientWindow(f"requested order {_int_str(order)} lies below the "
                                     f"inverse's leading exponent {_int_str(-v)}")
        out = kernels.inverse_unit(self._coeffs, order + v + 1)
        return TruncSeries._raw(-v, out, order)

    def __repr__(self):
        items = self.items()
        body = _terms_text(items[:6], "q") + (" + ..." if len(items) > 6 else "")
        return f"TruncSeries({body} + O(q^{_int_str(self._order + 1)}))"

    def to_json(self) -> dict:
        return {
            "min_exp": self._min,
            "order": self._order,
            "coeffs": _int_strs(self._coeffs),
        }

    @classmethod
    def from_json(cls, obj) -> "TruncSeries":
        lo, order, coeffs = _fields(obj, "series", "min_exp", "order", "coeffs")
        lo, order = _json_int(lo, "min_exp"), _json_int(order, "order")
        return cls._window(lo, _json_ints(coeffs), order)


class BiSeries:
    """Series in q to a fixed order, with Laurent-polynomial coefficients."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[LaurentPoly]):
        rows = tuple(rows)
        for r in rows:
            if not isinstance(r, LaurentPoly):
                raise TypeError("BiSeries rows must be LaurentPoly values")
        self._rows = rows

    @property
    def order_q(self) -> int:
        return len(self._rows) - 1

    def coeff(self, h: int) -> LaurentPoly:
        return self._rows[_within(h, self.order_q, "a row", 0)]

    def rows(self) -> tuple[LaurentPoly, ...]:
        return self._rows

    def __eq__(self, other):
        if not isinstance(other, BiSeries):
            return NotImplemented
        return self._rows == other._rows

    def __repr__(self):
        return f"BiSeries(order_q={self.order_q})"

    def to_json(self) -> dict:
        return {"order_q": self.order_q, "rows": [r.to_json() for r in self._rows]}


# -- operation layer ---------------------------------------------------------


def lp_arith(a: LaurentPoly, b: LaurentPoly, op: str) -> LaurentPoly:
    """Add or multiply Laurent polynomials; op is 'add' or 'mul'."""
    if op == "add":
        return a + b
    if op == "mul":
        return a * b
    raise InputError(f"op must be 'add' or 'mul', not {op!r}")


def series_arith(a: TruncSeries, b: TruncSeries, op: str) -> TruncSeries:
    """Windowed add or multiply; raises EmptyWindow when the result
    determines no coefficient."""
    if op == "add":
        out, floor = a + b, min(a.min_exp, b.min_exp)
    elif op == "mul":
        out, floor = a * b, a.min_exp + b.min_exp
    else:
        raise InputError(f"op must be 'add' or 'mul', not {op!r}")
    if out.order < floor:
        raise EmptyWindow(f"operands certify no coefficient of the {op} result "
                          f"(window collapses at q^{_int_str(out.order + 1)})")
    return out


def series_inverse(a: TruncSeries, order: int) -> TruncSeries:
    """Multiplicative inverse of a, exact through q**order."""
    return a.inverse(order)


def binom_pow(e: int, sign: str, order: int) -> TruncSeries:
    """(1 + q)**e when sign is 'plus', (1 - q)**e when sign is 'minus'.

    Exact on [0, order] for any integer e.
    """
    e = _as_int(e, "exponent")
    if sign not in ("plus", "minus"):
        raise InputError(f"sign must be 'plus' or 'minus', not {sign!r}")
    cs = [0] * (_as_int(order, "order", 0) + 1)
    _add_binom_row(cs, 0, 1, e, 1 if sign == "plus" else -1)
    return TruncSeries._raw(0, cs, order)


def q_negate(a: TruncSeries) -> TruncSeries:
    """Substitute q -> -q."""
    return a.negate_q()


def involution_check(p: LaurentPoly) -> bool:
    """True when p is invariant under the variable <-> reciprocal involution."""
    return p.is_symmetric()


def _expand_product(factors3, order_q: int) -> BiSeries:
    """Expand prod_{n=1..order_q} prod_{(a,e,c)} (1 - c z^a q^n)^e through q**order_q.

    c may be any integer.  The q^h coefficient has z-support within
    [-A*h, A*h] where A = max|a|.
    """
    order_q = _as_int(order_q, "order_q", 0)
    factors3 = [
        (_as_int(a, "z-exponent"), _as_int(e, "exponent"), _as_int(c, "factor coefficient"))
        for a, e, c in factors3
    ]
    amax = max((abs(a) for a, _e, _c in factors3), default=0)
    width = _as_int(2 * amax * order_q + 1, "z-window length", 0)
    center = amax * order_q
    rows = [[0] * width for _ in range(order_q + 1)]
    rows[0][center] = 1
    for n in range(1, order_q + 1):
        top = order_q // n
        for a, e, c in factors3:
            base = [0] * (top + 1)  # (1 - c x)^e
            _add_binom_row(base, 0, 1, e, -c)
            # in place, highest q-row first: row h gains c_k * z^(a k) * row (h - n k)
            for h in range(order_q, 0, -1):
                for k in range(1, h // n + 1):
                    ck = base[k]
                    if not ck:
                        continue
                    hsrc = h - n * k
                    half = amax * hsrc
                    kernels.axpy_shift(rows[h], rows[hsrc], a * k, ck,
                                       center - half, center + half)
    return BiSeries(LaurentPoly._dense(-center, row) for row in rows)


def product_family(factors, order_q: int) -> BiSeries:
    """Expand prod_{n>=1} prod_{(a,e)} (1 - z^a q^n)^e exactly through q**order_q.

    factors is an iterable of (a, e) pairs: z-exponent and integer power.
    """
    return _expand_product([(a, e, 1) for a, e in factors], order_q)


def eta_power(e: int, order: int) -> TruncSeries:
    """prod_{n>=1} (1 - q^n)**e, exact on [0, order].

    Euler's pentagonal theorem gives f = prod (1 - q^n) as
    sum_m (-1)^m q^(m(3m-1)/2) over all integers m: O(sqrt(order)) terms,
    each +1 or -1.  J.C.P. Miller's power recurrence (Knuth, TAOCP
    vol. 2, sec. 4.7) then gives a = f**e from

        n a_n = sum_{k>=1, f_k != 0} ((e+1) k - n) f_k a_(n-k),

    so a_n costs O(sqrt(n)) and the whole series O(order**1.5).  The
    terms sit in one list, ascending in k, with the sign f_k folded into
    each, so a_n is one sum over the terms with k <= n.  Every division
    by n is exact; a remainder raises ArithmeticError.
    """
    e = _as_int(e, "exponent")
    order = _as_int(order, "order", 0)
    f = []  # (k, f_k (e+1) k, f_k) for each k >= 1 with f_k != 0
    m = 1
    while (k := m * (3 * m - 1) // 2) <= order:
        fk = -1 if m % 2 else 1
        f.append((k, fk * (e + 1) * k, fk))
        if k + m <= order:
            f.append((k + m, fk * (e + 1) * (k + m), fk))
        m += 1
    a = [1] + [0] * order
    i = 0
    for n in range(1, order + 1):
        while i < len(f) and f[i][0] <= n:
            i += 1
        s = sum([(w - fk * n) * a[n - k] for k, w, fk in f[:i]])
        a[n], r = divmod(s, n)
        if r:
            raise ArithmeticError(
                f"eta_power({_int_str(e)}, {order}): Miller's recurrence left remainder "
                f"{r} at q^{n}"
            )
    return TruncSeries._raw(0, a, order)
