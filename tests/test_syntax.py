"""The package parses as the oldest Python that pyproject.toml admits."""

import ast
import glob
import os

import pytest

import graphck

# only the syntax is checked: running the suite needs numpy, which an
# interpreter of the oldest version may not have
OLDEST = (3, 10)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCES = sorted(glob.glob(os.path.join(os.path.dirname(graphck.__file__), "*.py")))


def test_pyproject_admits_the_oldest_version_and_every_module_is_found():
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as fh:
        assert 'requires-python = ">=3.10"' in fh.read()
    assert {"abelian.py", "cli.py", "ktheory.py"} <= {os.path.basename(p) for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=os.path.basename)
def test_module_parses_with_the_oldest_supported_grammar(path):
    with open(path, encoding="utf-8") as fh:
        ast.parse(fh.read(), filename=path, feature_version=OLDEST)


def test_the_oldest_grammar_refuses_later_syntax():
    # an except* clause (Python 3.11) is what the check exists to catch
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=OLDEST)
