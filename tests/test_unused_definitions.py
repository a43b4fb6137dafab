"""No definition in the package goes unread.

A companion to ``test_unused_imports.py``, with the same stdlib ``ast``
stand-in for a linter.  Each module-level function, class and constant
of ``src/gapower/``, and each method whose name is not a dunder, must be
read somewhere in ``src/`` or ``scripts/`` outside its own definition.
Reads in ``tests/`` do not count, so no API grows that only the tests
use.  A read is a ``Name`` load, an attribute access or a
``from ... import`` of the name.  Re-exporting a name from
``__init__.py`` does not count as a read either.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gapower"
READERS = sorted(
    p for d in ("src/gapower", "scripts") for p in (ROOT / d).glob("*.py")
)


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(tree: ast.Module) -> list[tuple[str, int, int]]:
    """(name, first line, last line) of each module-level function, class
    and constant, and of each non-dunder method."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            out.extend(
                (item.name, item.lineno, item.end_lineno)
                for item in node.body
                if isinstance(item, ast.FunctionDef) and not _dunder(item.name)
            )
        targets = (
            node.targets if isinstance(node, ast.Assign)
            else [node.target] if isinstance(node, ast.AnnAssign) else []
        )
        out.extend(
            (t.id, node.lineno, node.end_lineno)
            for t in targets
            if isinstance(t, ast.Name) and not _dunder(t.id)
        )
    return out


def reads(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of every name the module reads."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            out.extend((alias.name, node.lineno) for alias in node.names)
    return out


def unused_definitions(path: Path, sources: dict[Path, str]) -> list[tuple[int, str]]:
    """(line, name) of each definition in ``path`` that no source in
    ``sources`` reads outside the definition's own lines."""
    own = ast.parse(sources[path])
    elsewhere = {
        name
        for p, text in sources.items()
        if p != path and p.name != "__init__.py"
        for name, _ in reads(ast.parse(text))
    }
    local = reads(own)
    out = []
    for name, first, last in definitions(own):
        used = name in elsewhere or any(
            n == name and not first <= line <= last for n, line in local
        )
        if not used:
            out.append((first, name))
    return out


def test_scanner_finds_an_unused_definition():
    a, b = Path("a.py"), Path("b.py")
    sources = {
        a: "X = 1\nY = 2\n\n\ndef f():\n    return f\n\n\n"
           "class C:\n    def m(self):\n        return self.n()\n\n"
           "    def n(self):\n        return Y\n",
        b: "from a import X\n",
    }
    assert unused_definitions(a, sources) == [(5, "f"), (9, "C"), (10, "m")]


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: str(p.relative_to(ROOT)),
)
def test_no_unused_definitions(path):
    sources = {p: p.read_text(encoding="utf-8") for p in READERS}
    assert unused_definitions(path, sources) == []
