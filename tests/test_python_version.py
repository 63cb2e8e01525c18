import ast
import re
from pathlib import Path

import pytest

import bitfit

ROOT = Path(__file__).resolve().parent.parent


def test_sources_parse_as_python_3_10():
    """``pyproject.toml`` says ``requires-python = ">=3.10"``: every ``.py``
    file under ``src/``, ``tests/`` and ``bench/`` must parse in 3.10's
    grammar.

    This checks syntax only.  A library API added after 3.10 (a module, a
    function, a keyword argument) parses fine and is not caught here; only
    a run under 3.10 catches that.
    """
    # the check has teeth: ``except*`` arrived in 3.11
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=(3, 10))
    sources = sorted(path for folder in ("src", "tests", "bench")
                     for path in (ROOT / folder).rglob("*.py"))
    assert len(sources) > 10
    for path in sources:
        ast.parse(path.read_text("utf-8"), str(path), feature_version=(3, 10))


def test_package_version_is_the_pyproject_one():
    # 3.10 has no tomllib, so the one version line is found by a regex
    text = (ROOT / "pyproject.toml").read_text("utf-8")
    versions = re.findall(r'^version = "([^"]*)"$', text, re.MULTILINE)
    assert versions == [bitfit.__version__]
