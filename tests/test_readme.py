"""The README's python examples run as doctests.

`python -m doctest README.md` would read each closing fence as expected
output, so each ```python block is run on its own.
"""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_are_doctests():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    parser, runner = doctest.DocTestParser(), doctest.DocTestRunner()
    for i, block in enumerate(blocks):
        test = parser.get_doctest(block, {}, f"README.md python block {i + 1}", str(README), 0)
        assert test.examples, test.name
        runner.run(test)  # prints each failing example
    assert runner.summarize(verbose=False).failed == 0
