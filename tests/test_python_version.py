"""Every module of the package and every script parses as Python 3.10.

``pyproject.toml`` and the README promise Python >= 3.10, and the tests
run on whatever interpreter is at hand.  This stdlib ``ast`` check stands
in for a 3.10 run: ``ast.parse(..., feature_version=(3, 10))`` refuses
grammar added later, such as ``except*`` (3.11) or generic parameter
lists (3.12).  It checks grammar only, not library calls added after
3.10.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
OLDEST = (3, 10)
SCANNED = sorted(
    p for d in ("src/gapower", "scripts") for p in (ROOT / d).glob("*.py")
)


def test_oldest_version_is_the_promised_one():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    promised = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.M)
    assert tuple(map(int, promised.groups())) == OLDEST


@pytest.mark.parametrize("source", [
    "try:\n    pass\nexcept* ValueError:\n    pass\n",
    "def f[T](x: T) -> T:\n    return x\n",
])
def test_check_refuses_later_grammar(source):
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=OLDEST)


@pytest.mark.parametrize("path", SCANNED, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_the_oldest_supported_python(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=OLDEST)
