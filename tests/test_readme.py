"""The Library block of README.md runs as a doctest."""

import doctest
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_block_runs():
    # Only the block's body is parsed: doctest would read the closing
    # fence as the expected output of the last example.
    block = re.search(r"^## Library\n\n```python\n(.*?)^```", README.read_text(),
                      re.DOTALL | re.MULTILINE).group(1)
    test = doctest.DocTestParser().get_doctest(block, {}, "README Library", str(README), 0)
    result = doctest.DocTestRunner().run(test)
    assert result.attempted >= 9 and not result.failed
