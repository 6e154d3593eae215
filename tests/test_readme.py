"""The ```python examples in README.md run as doctests.

The blocks are run in order in one namespace, as a reader would type
them into one session: later blocks use names imported by earlier ones.
"""

import doctest
import re
from pathlib import Path

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
