"""No module imports a name it never uses.

No linter ships with the project, so this stdlib ``ast`` scan stands in
for one over ``src/gapower/``, ``tests/`` and ``scripts/``.  A
module-level import binds a name; the name counts as used when any
``Name`` node in the module reads it (attribute chains such as
``np.linalg`` start with one).  ``__init__.py`` is exempt because its
imports are the package's public surface, and ``from __future__``
imports bind nothing.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCANNED = sorted(
    p
    for d in ("src/gapower", "tests", "scripts")
    for p in (ROOT / d).glob("*.py")
    if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, bound name) of each module-level import the module never reads."""
    tree = ast.parse(source)
    bound: list[tuple[int, str]] = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound.append((node.lineno, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound.append((node.lineno, alias.asname or alias.name))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in bound if name not in used]


def test_scanner_finds_an_unused_import():
    src = "import os\nimport numpy as np\nfrom a import b, c\nprint(np.pi, c)\n"
    assert unused_imports(src) == [(1, "os"), (3, "b")]


@pytest.mark.parametrize("path", SCANNED, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
