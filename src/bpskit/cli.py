"""Command-line interface.

Exit codes: 0 success; 1 a validation or identity failure (the input is
well-formed but the mathematics rejects it); 2 malformed input; 3 a
precondition failure such as a window that is too short; 70 an internal
error (a bug), reported with its traceback; 74 the output could not be
written (a closed pipe, a missing directory), reported in one line.

All JSON output has the bytes of json.dumps(obj, sort_keys=True,
indent=2), for integers of any size, so identical inputs give
byte-identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import __version__
from .bps import BpsVector, PairsSeries, bps_decompose, bps_recompose, hilbert_decompose, validate_ggtc
from .curves import (
    NodalCurve,
    SingularityGerm,
    nodal_contribution,
    nodal_pairs_series,
    nonsingular_contribution,
    q_series_decompose,
    stratify_pairs_series,
)
from .errors import InputError, PreconditionError, ValidationError
from .k3 import _kkv_table, ky_series, signed_conversion_check, yau_zaslow
from .series import TruncSeries, _big_int, _int_str, _int_strs, _json_int, eta_power


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _read_json(path: str):
    text = _read_text(path)
    try:
        try:
            return json.loads(text)
        except json.JSONDecodeError:
            raise
        except ValueError:  # a JSON number past the int <-> str digit cap
            return json.loads(text, parse_int=_big_int)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from None


class _Out:
    def __init__(self, path: str):
        self.path = path

    def __enter__(self):
        if self.path == "-":
            self.f = sys.stdout
        else:
            self.f = open(self.path, "w", encoding="utf-8")
        return self.f

    def __exit__(self, *exc):
        if self.f is sys.stdout:
            self.f.flush()  # a closed pipe fails here, inside run()
        else:
            self.f.close()


_esc = json.encoder.encode_basestring_ascii


def _json_text(obj, pad: str) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) of a tree of dicts with
    str keys, lists, str, int, bool and None, for ints of any size; pad is
    the newline and indent of obj's own line."""
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
        body = []
        for k in sorted(obj):
            v = obj[k]
            tv = type(v)  # str and int values inline: most rows hold only those
            body.append(_esc(k) + ": " + (_esc(v) if tv is str else _int_str(v) if tv is int
                                          else _json_text(v, inner)))
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
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _write_json(obj, f, pad: str = "\n", depth: int = 2):
    """Write the bytes of json.dump(obj, f, sort_keys=True, indent=2).

    The top `depth` container levels go out one element at a time, so the
    whole document is never held as one string; below them, and for a
    list of str at any depth, a value is built as one string.
    """
    t = type(obj)
    if not (depth and obj and (t is dict or t is list and {*map(type, obj)} != {str})):
        f.write(_json_text(obj, pad))
        return
    inner = pad + "  "
    sep = ("{" if t is dict else "[") + inner
    for k in sorted(obj) if t is dict else range(len(obj)):
        f.write(sep + _esc(k) + ": " if t is dict else sep)
        _write_json(obj[k], f, inner, depth - 1)
        sep = "," + inner
    f.write(pad + ("}" if t is dict else "]"))


def _emit_json(obj, out: str):
    with _Out(out) as f:
        _write_json(obj, f)
        f.write("\n")


def _series_csv(series: TruncSeries, out: str, head=("n", "coeff")):
    with _Out(out) as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(head)
        w.writerows(zip(range(series.min_exp, series.order + 1),
                        _int_strs(series.coeff_list())))


def _load_pairs(args) -> PairsSeries:
    obj = _read_json(args.infile)
    if isinstance(obj, dict) and "series" in obj:
        pairs = PairsSeries.from_json(obj)
        g = args.g if args.g is not None else pairs.g
        return PairsSeries(pairs.series, g)
    series = TruncSeries.from_json(obj)
    g = args.g if args.g is not None else 1 - series.min_exp
    if g < 0:
        raise InputError(
            f"genus inferred from min_exp {series.min_exp} is negative; pass --g"
        )
    return PairsSeries(series, g)


def _cmd_bps_recompose(args):
    try:
        entries = tuple(_json_int(t) for t in args.n.split(","))
    except InputError:
        raise InputError(f"--n must be comma-separated integers, got {args.n!r}") from None
    v = BpsVector(args.g, entries)
    order = args.order if args.order is not None else args.g + 15
    _emit_json(bps_recompose(v, order).to_json(), args.out)
    return 0


def _cmd_bps_decompose(args):
    _emit_json(bps_decompose(_load_pairs(args)).to_json(), args.out)
    return 0


def _cmd_bps_validate(args):
    report = validate_ggtc(_load_pairs(args))
    _emit_json(report.to_json(), args.out)
    if not report.passed:
        for name in ("identity_0", "identity_gg", "identity_g0"):
            check = getattr(report, name)
            if not check.passed:
                print(
                    f"{name} fails first at q^{check.first_fail_exponent}",
                    file=sys.stderr,
                )
        return 1
    return 0


def _cmd_hilb_decompose(args):
    series = TruncSeries.from_json(_read_json(args.infile))
    _emit_json(hilbert_decompose(series, args.g).to_json(), args.out)
    return 0


def _cmd_curve_nonsingular(args):
    order = args.order if args.order is not None else args.g + 15
    v, pairs = nonsingular_contribution(args.g, args.chi, order)
    _emit_json({"vector": v.to_json(), "series": pairs.series.to_json()}, args.out)
    return 0


def _cmd_curve_nodal(args):
    curve = NodalCurve.from_json(_read_json(args.infile))
    v = nodal_contribution(curve)
    out = {"vector": v.to_json()}
    if args.order is not None:
        out["series"] = nodal_pairs_series(curve, args.order).series.to_json()
    _emit_json(out, args.out)
    return 0


def _cmd_curve_qseries(args):
    germ = SingularityGerm.from_json(_read_json(args.infile))
    _emit_json({"n": q_series_decompose(germ)}, args.out)
    return 0


def _cmd_curve_stratify(args):
    germ = SingularityGerm.from_json(_read_json(args.infile))
    order = args.order if args.order is not None else args.g + 15
    pairs = stratify_pairs_series(germ, args.euler0, args.g, order)
    _emit_json(pairs.to_json(), args.out)
    return 0


def _cmd_k3_ky(args):
    _emit_json(ky_series(args.hmax, args.yorder).to_json(), args.out)
    return 0


def _cmd_k3_kkv(args):
    table = _kkv_table(args.hmax)
    if args.format == "csv":
        with _Out(args.out) as f:
            table.write_csv(f)
    else:
        _emit_json(table.to_json(), args.out)
    return 0


def _cmd_k3_yz(args):
    series = yau_zaslow(args.hmax)
    if args.format == "csv":
        _series_csv(series, args.out, head=("h", "r_0h"))
    else:
        _emit_json(series.to_json(), args.out)
    return 0


def _cmd_k3_signed_check(args):
    report = signed_conversion_check(args.hmax, args.yorder)
    _emit_json(report.to_json(), args.out)
    if not report.passed:
        h, n = report.first_mismatch
        print(f"signed conversion fails first at y^{n} q^{h}", file=sys.stderr)
        return 1
    return 0


def _cmd_series_eta(args):
    series = eta_power(args.exponent, args.order)
    if args.format == "csv":
        _series_csv(series, args.out)
    else:
        _emit_json(series.to_json(), args.out)
    return 0


def _integer(text: str) -> int:
    """argparse type of every integer flag: the JSON readers' rule, an
    optional '-' and ASCII digits."""
    try:
        return _json_int(text)
    except InputError:
        raise argparse.ArgumentTypeError(
            f"expected an integer (an optional '-' and ASCII digits), got {text!r}"
        ) from None


def _add_io(p, fmt=False):
    p.add_argument("--in", dest="infile", default="-", help="input path, - for stdin")
    p.add_argument("--out", default="-", help="output path, - for stdout")
    if fmt:
        p.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bpskit", description=__doc__.splitlines()[0])
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    groups = ap.add_subparsers(dest="group", required=True)

    bps = groups.add_parser("bps", help="BPS basis transform").add_subparsers(
        dest="verb", required=True
    )
    p = bps.add_parser("recompose", help="vector -> pairs series")
    p.add_argument("--g", type=_integer, required=True)
    p.add_argument("--n", required=True, help="comma-separated n_0..n_g")
    p.add_argument("--order", type=_integer, default=None)
    _add_io(p)
    p.set_defaults(fn=_cmd_bps_recompose)
    for verb, fn in (("decompose", _cmd_bps_decompose), ("validate", _cmd_bps_validate)):
        p = bps.add_parser(verb)
        p.add_argument("--g", type=_integer, default=None)
        _add_io(p)
        p.set_defaults(fn=fn)

    hilb = groups.add_parser("hilb", help="Hilbert-series decomposition").add_subparsers(
        dest="verb", required=True
    )
    p = hilb.add_parser("decompose")
    p.add_argument("--g", type=_integer, required=True)
    _add_io(p)
    p.set_defaults(fn=_cmd_hilb_decompose)

    curve = groups.add_parser("curve", help="local curve contributions").add_subparsers(
        dest="verb", required=True
    )
    p = curve.add_parser("nonsingular")
    p.add_argument("--g", type=_integer, required=True)
    p.add_argument("--chi", type=_integer, required=True)
    p.add_argument("--order", type=_integer, default=None)
    _add_io(p)
    p.set_defaults(fn=_cmd_curve_nonsingular)
    p = curve.add_parser("nodal")
    p.add_argument("--order", type=_integer, default=None, help="also emit the pairs series")
    _add_io(p)
    p.set_defaults(fn=_cmd_curve_nodal)
    p = curve.add_parser("qseries")
    _add_io(p)
    p.set_defaults(fn=_cmd_curve_qseries)
    p = curve.add_parser("stratify")
    p.add_argument("--g", type=_integer, required=True)
    p.add_argument("--euler0", type=_integer, required=True,
                   help="Euler characteristic of the smooth locus")
    p.add_argument("--order", type=_integer, default=None)
    _add_io(p)
    p.set_defaults(fn=_cmd_curve_stratify)

    k3 = groups.add_parser("k3", help="primitive-class K3 pipeline").add_subparsers(
        dest="verb", required=True
    )
    p = k3.add_parser("ky")
    p.add_argument("--hmax", type=_integer, required=True)
    p.add_argument("--yorder", type=_integer, required=True)
    _add_io(p)
    p.set_defaults(fn=_cmd_k3_ky)
    p = k3.add_parser("kkv")
    p.add_argument("--hmax", type=_integer, required=True)
    _add_io(p, fmt=True)
    p.set_defaults(fn=_cmd_k3_kkv)
    p = k3.add_parser("yz")
    p.add_argument("--hmax", type=_integer, required=True)
    _add_io(p, fmt=True)
    p.set_defaults(fn=_cmd_k3_yz)
    p = k3.add_parser("signed-check")
    p.add_argument("--hmax", type=_integer, required=True)
    p.add_argument("--yorder", type=_integer, required=True)
    _add_io(p)
    p.set_defaults(fn=_cmd_k3_signed_check)

    series = groups.add_parser("series", help="series utilities").add_subparsers(
        dest="verb", required=True
    )
    p = series.add_parser("eta", help="prod (1 - q^n)^exponent")
    p.add_argument("--order", type=_integer, required=True)
    p.add_argument("--exponent", type=_integer, default=-24)
    _add_io(p, fmt=True)
    p.set_defaults(fn=_cmd_series_eta)

    return ap


def run(argv=None) -> int:
    """Parse argv and execute; returns the exit code instead of raising."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.fn(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # the output (or stdin) failed, not bpskit
        return _io_error(exc)
    except Exception:
        import traceback  # only on this path: it adds to every start-up otherwise

        traceback.print_exc()
        return 70  # EX_SOFTWARE


def _io_error(exc: OSError) -> int:
    """Report a failed read or write in one line; the exit code."""
    if isinstance(exc, BrokenPipeError):
        _drop_stdout()
    print(f"error: {exc}", file=sys.stderr)
    return 74  # EX_IOERR


def _drop_stdout():
    """Point a stdout whose reader has gone at os.devnull, so that the
    flush at exit does not raise a second BrokenPipeError."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main():
    """The console script and `python -m bpskit`: run(), flush, then end
    the process without tearing the interpreter down.  _Out has closed
    any --out file, and bpskit registers no atexit handler."""
    code = run()
    try:
        if sys.stdout is not None:  # None when the process started without fd 1
            sys.stdout.flush()
    except OSError as exc:  # output run() left buffered, such as --version's
        code = _io_error(exc)
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        pass  # nowhere left to report it
    os._exit(code)
