"""The examples in README.md are true.

The ```python examples run as doctests, in order in one namespace, as a
reader would type them into one session: later blocks use names imported
by earlier ones.  Each `$ bpskit ...` line of the ```sh blocks runs in a
shell, with `bpskit` standing for `python -m bpskit`, and its stdout must
equal the lines that follow it; a last line of `...` compares only the
lines before it.
"""

import doctest
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import bpskit

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert blocks
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner()
    globs, out = {}, []
    for i, block in enumerate(blocks):
        test = parser.get_doctest(block, globs, f"README.md python block {i}", str(README), 0)
        assert test.examples, f"python block {i} holds no example"
        runner.run(test, out=out.append, clear_globs=False)
        globs = test.globs  # get_doctest copied them
    assert runner.failures == 0, "".join(out)


def _shell_examples():
    """(command, expected stdout lines) for each `$ ` line that runs bpskit."""
    out = []
    for block in re.findall(r"^```sh\n(.*?)^```$", README.read_text(), re.M | re.S):
        for chunk in re.split(r"^(?=\$ )", block, flags=re.M):
            if chunk.startswith("$ ") and "bpskit" in chunk.splitlines()[0]:
                command, *lines = chunk.splitlines()
                out.append((command[2:], lines))
    return out


EXAMPLES = _shell_examples()


def test_readme_has_shell_examples():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("command,lines", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_shell_example(command, lines):
    exe = f"{shlex.quote(sys.executable)} -m bpskit"
    command = re.sub(r"(^|\|\s*)bpskit\b", lambda m: m.group(1) + exe, command)
    src = str(Path(bpskit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(command, shell=True, env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    got = proc.stdout.splitlines()
    if lines and lines[-1] == "...":
        lines = lines[:-1]
        got = got[:len(lines)]
    assert got == lines
