"""Command-line interface.

Exit codes: 0 success; 1 a validation or identity failure (the input is
well-formed but the mathematics rejects it); 2 malformed input; 3 a
precondition failure such as a window that is too short; 70 an internal
error (a bug), reported with its traceback; 74 the output could not be
written (a closed pipe, a missing directory), reported in one line.

All JSON output has the bytes of json.dumps(obj, sort_keys=True,
indent=2), for integers of any size, so identical inputs give
byte-identical bytes.  The two large K3 records stream those bytes row
by row; every other document is small and is written in one piece.

The command line is `bpskit GROUP VERB --flag value ...`, read from the
table _VERBS by the rules argparse would apply to it: `--flag=value` too,
any unique prefix of a flag, the last of a repeated flag, a negative
number as a value, and -h at every level.  A line argparse would reject
exits 2 with a usage line and an error line.
"""

from __future__ import annotations

import io
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
from .series import TruncSeries, _int_str, _int_strs, _json_int, _write_csv, eta_power


def _read_text(path: str) -> str:
    try:
        if path == "-":
            if sys.stdin is None:  # the process started without fd 0
                raise OSError("stdin is closed")
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as exc:  # unreadable, or not UTF-8
        raise InputError(f"cannot read {path}: {exc}") from None


def _read_json(path: str):
    import json  # here, so that a verb that reads no JSON never loads the package

    text = _read_text(path)
    try:
        return json.loads(text, parse_int=_json_int)  # numbers of any length
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from None


def _stdout():
    """sys.stdout; an OSError when the process started without fd 1."""
    if sys.stdout is None:
        raise OSError("stdout is closed")
    return sys.stdout


class _Out:
    def __init__(self, path: str):
        self.path = path

    def __enter__(self):
        if self.path == "-":
            self.f = _stdout()
        else:
            self.f = open(self.path, "w", encoding="utf-8")
        return self.f

    def __exit__(self, *exc):
        if self.f is sys.stdout:
            self.f.flush()  # a closed pipe fails here, inside run()
        else:
            self.f.close()


try:  # the C escaper that json.encoder binds, without importing json
    from _json import encode_basestring_ascii as _esc
except ImportError:  # a Python built without the _json accelerator
    from json.encoder import encode_basestring_ascii as _esc


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
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _emit_json(obj, out: str):
    """Write obj, a dict or a record with its own write_json, and a newline."""
    with _Out(out) as f:
        if type(obj) is dict:
            f.write(_json_text(obj, "\n"))
        else:
            obj.write_json(f)
        f.write("\n")


def _series_csv(series: TruncSeries, out: str, head=("n", "coeff")):
    with _Out(out) as f:
        _write_csv(f, head, zip(range(series.min_exp, series.order + 1),
                                _int_strs(series.coeff_list())))


def _load_pairs(args) -> PairsSeries:
    obj = _read_json(args.infile)
    if isinstance(obj, dict) and "series" in obj:
        pairs = PairsSeries.from_json(obj)
        series, g = pairs.series, pairs.g
    else:
        series = TruncSeries.from_json(obj)
        g = 1 - series.min_exp
    if args.g is not None:
        g = args.g  # PairsSeries rejects a negative genus
    elif g < 0:
        raise InputError(f"genus inferred from min_exp {_int_str(series.min_exp)} is negative; "
                         "pass --g")
    return PairsSeries(series, g)


def _order(args) -> int:
    """--order, or a window to q^(g+15) when it is not given."""
    return args.order if args.order is not None else args.g + 15


def _emit_series(series: TruncSeries, args, head):
    if args.format == "csv":
        _series_csv(series, args.out, head)
    else:
        _emit_json(series.to_json(), args.out)


def _cmd_bps_recompose(args):
    """multiplicities to pairs series"""
    try:
        entries = tuple(_json_int(t) for t in args.n.split(","))
    except InputError:
        raise InputError(f"--n must be comma-separated integers, got {args.n!r}") from None
    v = BpsVector(args.g, entries)
    _emit_json(bps_recompose(v, _order(args)).to_json(), args.out)


def _cmd_bps_decompose(args):
    """pairs series to multiplicities; exact, rejects non-members"""
    _emit_json(bps_decompose(_load_pairs(args)).to_json(), args.out)


def _cmd_bps_validate(args):
    """check the three defining identities, exit 1 on failure"""
    report = validate_ggtc(_load_pairs(args))
    _emit_json(report.to_json(), args.out)
    for name in ("identity_0", "identity_gg", "identity_g0"):
        check = getattr(report, name)
        if not check.passed:
            print(f"{name} fails first at q^{_int_str(check.first_fail_exponent)}", file=sys.stderr)
    if not report.passed:
        return 1


def _cmd_hilb_decompose(args):
    """Hilbert-series decomposition over q^(g-r)(1-q)^(2r-2)"""
    series = TruncSeries.from_json(_read_json(args.infile))
    _emit_json(hilbert_decompose(series, args.g).to_json(), args.out)


def _cmd_curve_nonsingular(args):
    """top-genus contribution of a nonsingular curve"""
    v, pairs = nonsingular_contribution(args.g, args.chi, _order(args))
    _emit_json({"vector": v.to_json(), "series": pairs.series.to_json()}, args.out)


def _cmd_curve_nodal(args):
    """BPS vector of a nodal curve, optionally with its series"""
    curve = NodalCurve.from_json(_read_json(args.infile))
    v = nodal_contribution(curve)
    out = {"vector": v.to_json()}
    if args.order is not None:
        out["series"] = nodal_pairs_series(curve, args.order).series.to_json()
    _emit_json(out, args.out)


def _cmd_curve_qseries(args):
    """germ multiplicities from punctual Euler numbers"""
    germ = SingularityGerm.from_json(_read_json(args.infile))
    _emit_json({"n": q_series_decompose(germ)}, args.out)


def _cmd_curve_stratify(args):
    """pairs series of a curve with one singular point"""
    germ = SingularityGerm.from_json(_read_json(args.infile))
    pairs = stratify_pairs_series(germ, args.euler0, args.g, _order(args))
    _emit_json(pairs.to_json(), args.out)


def _cmd_k3_ky(args):
    """pair-count double series rows"""
    _emit_json(ky_series(args.hmax, args.yorder), args.out)


def _cmd_k3_kkv(args):
    """genus-count table r_(g,h)"""
    table = _kkv_table(args.hmax)
    if args.format == "csv":
        with _Out(args.out) as f:
            table.write_csv(f)
    else:
        _emit_json(table, args.out)


def _cmd_k3_yz(args):
    """rational-curve counts"""
    _emit_series(yau_zaslow(args.hmax), args, head=("h", "r_0h"))


def _cmd_k3_signed_check(args):
    """signed conversion identity, exit 1 on mismatch"""
    report = signed_conversion_check(args.hmax, args.yorder)
    _emit_json(report.to_json(), args.out)
    if not report.passed:
        h, n = report.first_mismatch
        print(f"signed conversion fails first at y^{n} q^{h}", file=sys.stderr)
        return 1


def _cmd_series_eta(args):
    """prod (1 - q^n)^exponent"""
    _emit_series(eta_power(args.exponent, args.order), args, head=("n", "coeff"))


def _integer(text: str) -> int:
    """Type of every integer flag: the JSON readers' rule, an optional '-'
    and ASCII digits."""
    try:
        return _json_int(text)
    except InputError:
        raise ValueError(
            f"expected an integer (an optional '-' and ASCII digits), got {text!r}"
        ) from None


_REQUIRED = object()  # the default of a flag that must be given
_IO = {"--in": (str, "-"), "--out": (str, "-")}
_FMT = {**_IO, "--format": (("json", "csv"), "json")}

# (group, verb) -> (command, {flag: (type, default)}).  The type is
# _integer, str or a tuple of choices.  Every flag takes one value, kept
# under its name without the dashes (--in under infile).
_VERBS = {
    ("bps", "recompose"): (_cmd_bps_recompose, {
        "--g": (_integer, _REQUIRED), "--n": (str, _REQUIRED), "--order": (_integer, None), **_IO}),
    ("bps", "decompose"): (_cmd_bps_decompose, {"--g": (_integer, None), **_IO}),
    ("bps", "validate"): (_cmd_bps_validate, {"--g": (_integer, None), **_IO}),
    ("hilb", "decompose"): (_cmd_hilb_decompose, {"--g": (_integer, _REQUIRED), **_IO}),
    ("curve", "nonsingular"): (_cmd_curve_nonsingular, {
        "--g": (_integer, _REQUIRED), "--chi": (_integer, _REQUIRED),
        "--order": (_integer, None), **_IO}),
    ("curve", "nodal"): (_cmd_curve_nodal, {"--order": (_integer, None), **_IO}),
    ("curve", "qseries"): (_cmd_curve_qseries, _IO),
    ("curve", "stratify"): (_cmd_curve_stratify, {
        "--g": (_integer, _REQUIRED), "--euler0": (_integer, _REQUIRED),
        "--order": (_integer, None), **_IO}),
    ("k3", "ky"): (_cmd_k3_ky, {
        "--hmax": (_integer, _REQUIRED), "--yorder": (_integer, _REQUIRED), **_IO}),
    ("k3", "kkv"): (_cmd_k3_kkv, {"--hmax": (_integer, _REQUIRED), **_FMT}),
    ("k3", "yz"): (_cmd_k3_yz, {"--hmax": (_integer, _REQUIRED), **_FMT}),
    ("k3", "signed-check"): (_cmd_k3_signed_check, {
        "--hmax": (_integer, _REQUIRED), "--yorder": (_integer, _REQUIRED), **_IO}),
    ("series", "eta"): (_cmd_series_eta, {
        "--order": (_integer, _REQUIRED), "--exponent": (_integer, -24), **_FMT}),
}
_GROUPS = {"bps": "BPS basis transform", "hilb": "Hilbert-series decomposition",
           "curve": "local curve contributions", "k3": "primitive-class K3 pipeline",
           "series": "series utilities"}
_HELP = ("-h", "--help")


class _Usage(Exception):
    """A command line the grammar rejects: exit 2."""


class _Shown(Exception):
    """-h or --version, its one argument, ends the parse: exit 0."""


class _Args:
    """A parsed command line: fn, group, verb and one attribute per flag."""

    def __init__(self, **kw):
        self.__dict__.update(kw)


def _dest(flag: str) -> str:
    return "infile" if flag == "--in" else flag[2:]


def _meta(flag: str, kind) -> str:
    return "{" + ",".join(kind) + "}" if type(kind) is tuple else _dest(flag).upper()


def _option(tok: str, names):
    """How argparse reads tok in a parser with these option names: None for
    a value, else (name, the text glued to it or None), with name None for
    an unknown option.  A prefix of two names is a usage error."""
    if tok[:1] != "-" or tok == "-":
        return None
    if tok in names:
        return tok, None
    head, eq, text = tok.partition("=")
    if eq and head in names:
        return head, text
    if tok[1] == "-":  # --name: any unique prefix, before an '='
        hits = [n for n in names if n.startswith(head)]
        text = text if eq else None
    else:  # -h takes the rest of the token as its text
        hits = ["-h"] if tok[1] == "h" else []
        text = tok[2:]
    if len(hits) > 1:
        raise _Usage(f"ambiguous option: {tok} could match {', '.join(hits)}")
    if hits:
        return hits[0], text
    # argparse's -\d+$ or -\d*\.\d+$, where $ may precede a final newline
    whole, dot, frac = tok[1:].removesuffix("\n").partition(".")
    if (frac.isdecimal() and (not whole or whole.isdecimal()) if dot else whole.isdecimal()):
        return None  # a negative number is a value
    return None if " " in tok else (None, None)


def _choice(text, what: str, choices):
    """text if it is one of choices; a usage error if not, or if None."""
    if text is None:
        raise _Usage(f"the following arguments are required: {what}")
    if text not in choices:
        raise _Usage(f"argument {what}: invalid choice: {text!r} (choose from "
                     + ", ".join(map(repr, choices)) + ")")
    return text


def _scan(args, names, flags, values, extras, sub: bool) -> int:
    """One parser's pass over args, in argparse's order: -h and --version
    end the parse; a flag's value, after '=' or as the next token, goes
    into values; unknown options go to extras.  With sub, the first free
    value names the subcommand and its index is returned (len(args) if
    there is none); otherwise free values go to extras.  Every token after
    '--' is a value, and '--' itself is one where a subcommand is due, an
    unknown option elsewhere."""
    cut = args.index("--") if "--" in args else len(args)
    kinds = [_option(t, names) for t in args[:cut]]
    if cut < len(args):
        kinds += [None if sub else (None, None)] + [None] * (len(args) - cut - 1)
    i = 0
    while i < len(args):
        kind = kinds[i]
        i += 1
        if kind is None and sub:
            return i - 1
        name, text = kind or (None, None)
        if name is None:
            extras.append(args[i - 1])
        elif name in flags:
            if text is None:
                if i == len(args) or kinds[i] is not None:
                    raise _Usage(f"argument {name}: expected one argument")
                text = args[i]
                i += 1
            kind = flags[name][0]
            try:
                values[_dest(name)] = _choice(text, name, kind) if type(kind) is tuple else kind(text)
            except ValueError as exc:
                raise _Usage(f"argument {name}: {exc}") from None
        elif text is None or name == "-h" and text and not text.strip("h"):  # -hh is -h -h
            raise _Shown(name)
        else:
            raise _Usage(f"argument {name}: ignored explicit argument {text!r}")
    return len(args)


def _usage(group=None, verb=None) -> str:
    if verb:
        return f"bpskit {group} {verb} [-h] " + " ".join(
            f"{f} {_meta(f, t)}" if d is _REQUIRED else f"[{f} {_meta(f, t)}]"
            for f, (t, d) in _VERBS[group, verb][1].items())
    if group:
        return f"bpskit {group} [-h] {{{','.join(v for g, v in _VERBS if g == group)}}} ..."
    return f"bpskit [-h] [--version] {{{','.join(_GROUPS)}}} ..."


def _page(group=None, verb=None) -> str:
    """The help of bpskit, of a group or of a verb."""
    if verb:
        fn, flags = _VERBS[group, verb]
        about, rows = fn.__doc__, [
            (f"{f} {_meta(f, t)}",
             "required" if d is _REQUIRED else "optional" if d is None else f"default: {d}")
            for f, (t, d) in flags.items()]
    elif group:
        about = _GROUPS[group]
        rows = [(v, fn.__doc__) for (g, v), (fn, _flags) in _VERBS.items() if g == group]
    else:
        about = __doc__.splitlines()[0]
        rows = [("--version", "show the version and exit"), *_GROUPS.items()]
    rows = [("-h, --help", "show this help and exit"), *rows]
    width = 2 + max(len(name) for name, _text in rows)
    return f"usage: {_usage(group, verb)}\n\n{about}\n\n" + "".join(
        f"  {name:<{width}}{text}\n" for name, text in rows)


class _Parser:
    """The command-line grammar of _VERBS.  parse_args is an ordinary
    attribute, so a caller may wrap it."""

    def parse_args(self, argv=None) -> _Args:
        """The namespace of argv (default sys.argv[1:]).  -h at any level
        and --version write to stdout and raise SystemExit(0); a rejected
        command line writes a usage line and an error line to stderr and
        raises SystemExit(2)."""
        argv = sys.argv[1:] if argv is None else list(argv)
        values, extras = {}, []
        group = verb = None
        try:
            i = _scan(argv, (*_HELP, "--version"), {}, values, extras, True)
            group = _choice(argv[i] if i < len(argv) else None, "group", _GROUPS)
            args = argv[i + 1:]
            i = _scan(args, _HELP, {}, values, extras, True)
            verb = _choice(args[i] if i < len(args) else None, "verb",
                           [v for g, v in _VERBS if g == group])
            fn, flags = _VERBS[group, verb]
            _scan(args[i + 1:], (*_HELP, *flags), flags, values, extras, False)
            missing = [f for f, (_t, d) in flags.items()
                       if d is _REQUIRED and _dest(f) not in values]
            if missing:
                raise _Usage("the following arguments are required: " + ", ".join(missing))
            if extras:
                raise _Usage("unrecognized arguments: " + " ".join(extras))
        except _Shown as exc:
            shown = _page(group, verb) if exc.args[0] in _HELP else f"bpskit {__version__}\n"
            _stdout().write(shown)
            raise SystemExit(0) from None
        except _Usage as exc:
            prog = " ".join(filter(None, ("bpskit", group, verb)))
            sys.stderr.write(f"usage: {_usage(group, verb)}\n{prog}: error: {exc}\n")
            raise SystemExit(2) from None
        ns = {_dest(f): d for f, (_t, d) in flags.items()}
        ns.update(values)
        return _Args(fn=fn, group=group, verb=verb, **ns)


def build_parser() -> _Parser:
    return _Parser()


def run(argv=None) -> int:
    """Parse argv and execute; returns the exit code instead of raising.
    A command returns 1 when the mathematics rejects its input and nothing
    otherwise, which is exit 0; the three error classes carry exit codes 1,
    2 and 3 as exit_code, a failed read or write exits 74 and a bug 70.
    The interpreter's int <-> str digit cap is left as it is: the library
    reads, writes and names integers of any size under it."""
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args) or 0
    except SystemExit as exc:  # -h, --version or a rejected command line
        return exc.code
    except (ValidationError, InputError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # the output failed, not bpskit
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
    out = sys.stdout
    if type(getattr(out, "buffer", None)) is io.FileIO:  # python -u: a text layer on the
        # file takes a partial write (the reader gone mid-write) for a whole one and exits 0
        sys.stdout = io.TextIOWrapper(io.BufferedWriter(out.buffer), out.encoding, out.errors)
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
