"""The README's library quick tour runs as written."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted == 10
    assert result.failed == 0
