"""Spans around the calls into each bpskit module, recorded from outside.

A Tracer replaces the public functions of the bpskit modules (and the
four kernels) with wrappers that record a span per call: name, start,
end, parent span and op id, kept in memory.  Span names start with their
layer: proc, import, cli, series, kernels, bps, curves, k3, and trace
for the tracer's own bookkeeping.  A layer's self time is the time its
spans cover minus the time covered by their child spans.

This module imports nothing beyond the standard library's sys and time,
so loading it in a traced child does not pre-import anything that
`import bpskit` would otherwise pay for.
"""

import sys
import time

CLOCK = time.perf_counter_ns

# Module-level functions: (module, attribute, span name).  Each is patched
# in every bpskit namespace that holds it, so internal calls are traced too.
FUNCTIONS = (
    ("bpskit.series", "eta_power", "series.eta_power"),
    ("bpskit.series", "binom_pow", "series.binom_pow"),
    ("bpskit.bps", "bps_recompose", "bps.recompose"),
    ("bpskit.bps", "bps_decompose", "bps.decompose"),
    ("bpskit.bps", "validate_ggtc", "bps.validate"),
    ("bpskit.bps", "hilbert_decompose", "bps.hilbert_decompose"),
    ("bpskit.curves", "nodal_contribution", "curves.nodal"),
    ("bpskit.curves", "nodal_pairs_series", "curves.nodal"),
    ("bpskit.curves", "q_series_decompose", "curves.qseries"),
    ("bpskit.curves", "stratify_pairs_series", "curves.stratify"),
    ("bpskit.k3", "kkv_product", "k3.kkv_product"),
    ("bpskit.k3", "kkv_decompose", "k3.kkv_decompose"),
    ("bpskit.k3", "ky_series", "k3.ky_series"),
    ("bpskit.k3", "signed_conversion_check", "k3.signed_check"),
    ("bpskit.k3", "yau_zaslow", "k3.yau_zaslow"),
    ("bpskit.cli", "build_parser", "cli.build_parser"),
    ("bpskit.cli", "_read_json", "cli.ingress"),
    ("bpskit.cli", "_emit_json", "cli.egress"),
    ("bpskit.cli", "_series_csv", "cli.egress"),
)

# Methods and classmethods: (module, class, attribute, span name).
METHODS = (
    ("bpskit.series", "TruncSeries", "__mul__", "series.trunc_mul"),
    ("bpskit.series", "TruncSeries", "inverse", "series.inverse"),
    ("bpskit.series", "TruncSeries", "from_json", "cli.ingress"),
    ("bpskit.series", "TruncSeries", "to_json", "cli.egress"),
    ("bpskit.bps", "BpsVector", "from_json", "cli.ingress"),
    ("bpskit.bps", "BpsVector", "to_json", "cli.egress"),
    ("bpskit.bps", "PairsSeries", "from_json", "cli.ingress"),
    ("bpskit.bps", "PairsSeries", "to_json", "cli.egress"),
    ("bpskit.bps", "GgtcReport", "to_json", "cli.egress"),
    ("bpskit.curves", "NodalCurve", "from_json", "cli.ingress"),
    ("bpskit.curves", "SingularityGerm", "from_json", "cli.ingress"),
    ("bpskit.k3", "K3PairsSeries", "to_json", "cli.egress"),
    ("bpskit.k3", "KkvTable", "to_json", "cli.egress"),
    ("bpskit.k3", "KkvTable", "write_csv", "cli.egress"),
    ("bpskit.k3", "SignedCheckReport", "to_json", "cli.egress"),
)


# Coefficient multiplications each kernel performs, computed from its
# argument lengths and offsets as a schoolbook bound (zero skips ignored).

def _mults_mul_trunc(a, b, n):
    m, nb = min(len(a), n), len(b)
    full = max(0, min(m, n - nb + 1))  # rows i with n - i >= nb
    rest = m - full
    return full * nb + rest * n - rest * (full + m - 1) // 2


def _mults_inverse_unit(c, n):
    top = len(c) - 1
    if n <= 1 or top <= 0:
        return 0
    k = min(n - 1, top)
    return k * (k + 1) // 2 + (n - 1 - k) * top


def _mults_mul_sparse(acc, offsets, coeffs):
    size = len(acc)
    return sum(size - p for p in offsets[: len(coeffs)] if p < size)


def _mults_axpy(dst, src, shift, c, lo, hi):
    return hi - lo + 1 if c and hi >= lo else 0


# kernel name -> (multiplication count, index of the argument the kernel
# writes in place, or None when it returns its output)
KERNELS = {
    "mul_trunc": (_mults_mul_trunc, None),
    "inverse_unit": (_mults_inverse_unit, None),
    "mul_sparse_unit_inplace": (_mults_mul_sparse, 0),
    "axpy_shift": (_mults_axpy, 0),
}


class Tracer:
    """Spans of one process, plus kernel counters."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index, op id]
        self.stack = [-1]
        self.op = 0
        self.mults = {}
        self.max_bits = 0
        self.missing = []  # targets not found in this version of bpskit
        self._written = {}  # id -> list a kernel produced during the current op
        self._undo = []

    def open(self, name):
        idx = len(self.spans)
        self.spans.append([name, CLOCK(), 0, self.stack[-1], self.op])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = CLOCK()
        self.stack.pop()

    def span(self, name):
        """Context manager for a span around a block of the caller's code."""
        return _Span(self, name)

    def add(self, name, start, end, parent=-1):
        """Record a span measured elsewhere, such as across a process boundary."""
        self.spans.append([name, start, end, parent, self.op])
        return len(self.spans) - 1

    def wrap(self, fn, name):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1], self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = CLOCK()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = CLOCK()
                stack.pop()

        return traced

    def _wrap_kernel(self, fn, kname, mults, out_arg):
        # wrap() inlined: kernels are called tens of thousands of times per job
        spans, stack, counts, written = self.spans, self.stack, self.mults, self._written
        name = "kernels." + kname
        counts.setdefault(kname, 0)  # a tracer may be installed more than once

        def kernel(*args):
            span = [name, 0, 0, stack[-1], self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = CLOCK()
            try:
                result = fn(*args)
            finally:
                span[2] = CLOCK()
                stack.pop()
            counts[kname] += mults(*args)
            target = result if out_arg is None else args[out_arg]
            written[id(target)] = target
            return result

        return kernel

    def _wrap_build_parser(self, fn, name):
        traced = self.wrap(fn, name)

        def build_parser(*args, **kwargs):
            parser = traced(*args, **kwargs)
            parser.parse_args = self.wrap(parser.parse_args, "cli.parse_args")
            return parser

        return build_parser

    def finish_op(self):
        """Fold the largest coefficient a kernel produced into max_bits.
        Call between ops, outside any timed span."""
        for values in self._written.values():
            if values:
                top = max(abs(max(values)), abs(min(values)))
                self.max_bits = max(self.max_bits, top.bit_length())
        self._written.clear()

    def install(self):
        mods = {n: m for n, m in sys.modules.items()
                if m is not None and (n == "bpskit" or n.startswith("bpskit."))}
        for modname, attr, name in FUNCTIONS:
            orig = getattr(mods.get(modname), attr, None)
            if orig is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapper = (self._wrap_build_parser if attr == "build_parser" else self.wrap)(orig, name)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, orig))
        for modname, clsname, attr, name in METHODS:
            owner = getattr(mods.get(modname), clsname, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(f"{modname}.{clsname}.{attr}")
                continue
            if isinstance(raw, classmethod):
                wrapper = classmethod(self.wrap(raw.__func__, name))
            else:
                wrapper = self.wrap(raw, name)
            setattr(owner, attr, wrapper)
            self._undo.append((owner, attr, raw))
        kernels = mods.get("bpskit.kernels")
        for kname, (mults, out_arg) in KERNELS.items():
            orig = getattr(kernels, kname, None)
            if orig is None:  # a kernel that no longer exists reports no metrics
                self.missing.append(f"bpskit.kernels.{kname}")
                continue
            setattr(kernels, kname, self._wrap_kernel(orig, kname, mults, out_arg))
            self._undo.append((kernels, kname, orig))
        self.missing = sorted(set(self.missing))  # a tracer may be installed more than once

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


class _Span:
    __slots__ = ("tracer", "name", "idx")

    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.idx = self.tracer.open(self.name)

    def __exit__(self, *exc):
        self.tracer.close(self.idx)


def self_times(spans):
    """Per span name: (total self time in ns, number of spans)."""
    covered = [0] * len(spans)
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = {}
    for i, (name, start, end, _parent, _op) in enumerate(spans):
        total, calls = out.get(name, (0, 0))
        out[name] = (total + (end - start) - covered[i], calls + 1)
    return out
