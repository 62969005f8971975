"""The Library block of README.md runs as a doctest."""

import doctest
import pathlib
import re

from mldeg import checks
from mldeg.checks import build_suite, suite_names, task_label

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_block_runs():
    # Only the block's body is parsed: doctest would read the closing
    # fence as the expected output of the last example.
    block = re.search(r"^## Library\n\n```python\n(.*?)^```", README.read_text(),
                      re.DOTALL | re.MULTILINE).group(1)
    test = doctest.DocTestParser().get_doctest(block, {}, "README Library", str(README), 0)
    result = doctest.DocTestRunner().run(test)
    assert result.attempted >= 9 and not result.failed


def _suite_table():
    """(suite names, cap read or None, its default) per row of the
    README's table of suites and caps."""
    rows = re.search(r"^\| suite \| reads \|.*\n\|[-|]+\|\n((?:\|.*\n)+)", README.read_text(),
                     re.MULTILINE).group(1)
    for row in rows.splitlines():
        names, reads, default = [cell.strip() for cell in row.strip("|").split("|")][:3]
        cap = None if reads == "neither" else reads.strip("`").lstrip("-").replace("-", "_")
        yield re.findall(r"`([\w-]+)`", names), cap, default


def test_suite_table_matches_the_builders():
    # The table is the caps' documentation: each row's default must be
    # what the suite takes with no cap, and the cap it does not read
    # must change nothing.
    def labels(name, **caps):
        return [task_label(t) for t in build_suite(name, **caps)]

    covered = []
    for names, cap, default in _suite_table():
        assert cap in (None, "nmax", "sum_max"), cap
        assert (default == "") == (cap is None), (names, default)
        for name in names:
            covered.append(name)
            base = labels(name)
            if cap is not None:
                assert labels(name, **{cap: int(default)}) == base, name
            for ignored in {"nmax", "sum_max"} - {cap}:
                for value in (0, 1, 4):
                    assert labels(name, **{ignored: value}) == base, (name, ignored, value)
    assert sorted(covered) == sorted(set(suite_names()) - {"all"})


def test_task_names_are_check_functions():
    # Each backticked *_line name is a task function of mldeg.checks, so
    # a task renamed there cannot keep its old name here.
    names = set(re.findall(r"`(\w+_line)`", README.read_text()))
    missing = sorted(name for name in names if not callable(getattr(checks, name, None)))
    assert names and missing == []
