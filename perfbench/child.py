"""Traced stand-in for `python -m bpskit`, spawned by the benchmark.

    python child.py SPAN_FILE ARGS...     run the CLI on ARGS
    python child.py SPAN_FILE --setup     import bpskit.cli and build the parser

The first statement records when the interpreter reached user code.  The
child then imports bpskit under an import span, installs the tracer and
runs the CLI.  Its spans go to SPAN_FILE as one JSON line, followed by a
second line holding the time the write finished, so that the parent can
split what happens after the CLI returns into span writing and process
exit.
"""

import time

T_START = time.perf_counter_ns()

import sys  # noqa: E402

import tracer  # noqa: E402


def main():
    span_file, argv = sys.argv[1], sys.argv[2:]
    tr = tracer.Tracer()
    tr.add("trace.setup", T_START, tracer.CLOCK())
    i = tr.open("import.bpskit")
    import bpskit.cli
    tr.close(i)
    i = tr.open("trace.setup")
    tr.install()
    tr.close(i)
    if argv == ["--setup"]:
        bpskit.cli.build_parser()
        code = 0
    else:
        code = bpskit.cli.run(argv)
    sys.stdout.flush()
    t_done = tracer.CLOCK()
    tr.finish_op()
    import json

    record = {"t_start": T_START, "t_done": t_done, "code": code, "spans": tr.spans,
              "mults": tr.mults, "max_bits": tr.max_bits, "missing": tr.missing,
              "bpskit_file": bpskit.__file__,
              "backend": getattr(bpskit, "kernel_backend", None)}
    with open(span_file, "w") as f:
        f.write(json.dumps(record) + "\n")
    with open(span_file, "a") as f:
        f.write(f"{tracer.CLOCK()}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
