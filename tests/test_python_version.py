"""Every module of the package and every script parses as Python 3.10.

``pyproject.toml`` and the README promise Python >= 3.10, and the tests
run on whatever interpreter is at hand.  This stdlib ``ast`` check stands
in for a 3.10 run: ``ast.parse(..., feature_version=(3, 10))`` refuses
grammar added later, such as ``except*`` (3.11) or generic parameter
lists (3.12).  It checks grammar only, not library calls added after
3.10.  One library change is checked too: from 3.12 the builtin ``sum``
adds floats with compensation, so a package result summed by it would
carry different bits on different versions; no package module calls it.

One design rule rides along on the same ``ast`` walk: only ``phasor.py``
maps per-entry arrays (DC, then the layout's orders) to coefficient
slots, so no other package module spreads an array over slot pairs
(``np.repeat(x, 2)``), views slots as pairs (``.reshape(-1, 2)``),
slices every other slot (a constant step of 2) or tells odd slots from
even ones (``x % 2``, where only a length's parity, ``len(x) % 2``, is
let through).
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
PACKAGE = sorted((ROOT / "src/gapower").glob("*.py"))


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


def builtin_sum_calls(tree: ast.AST) -> list[int]:
    """Line numbers of the calls to the builtin ``sum`` in ``tree``."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "sum"
    ]


def test_sum_check_finds_the_builtin_only():
    source = "x = sum(v * v for v in y)\nz = np.sum(y) + math.fsum(y)\nw = sum(y, 0.0)\n"
    assert builtin_sum_calls(ast.parse(source)) == [1, 3]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_package_calls_no_builtin_sum(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert builtin_sum_calls(tree) == []


def _constant(node: ast.AST):
    """The value of a literal number or tuple of numbers, else None."""
    try:
        return ast.literal_eval(node)
    except ValueError:
        return None


def _is_len_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "len"
    )


def slot_indexing(tree: ast.AST) -> list[int]:
    """Sorted line numbers of ``np.repeat(x, 2)`` (or ``x.repeat(2)``),
    ``.reshape(-1, 2)``, slices with a constant step of +-2 and ``x % 2``
    (unless ``x`` is a ``len(...)`` call) in ``tree``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Slice) and node.step is not None:
            found = _constant(node.step) in (2, -2)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
            found = _constant(node.right) in (2, -2) and not _is_len_call(node.left)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            args = [*node.args, *(k.value for k in node.keywords)]
            shape = tuple(_constant(a) for a in args)
            found = (
                node.func.attr == "repeat" and 2 in shape
                or node.func.attr == "reshape" and shape in ((-1, 2), ((-1, 2),))
            )
        else:
            continue
        if found:
            lines.append(node.lineno)
    return sorted(lines)


def test_slot_check_finds_slot_indexing_only():
    source = (
        "a = np.repeat(g, 2)[1:] + np.repeat(g, repeats=2) + g.repeat(2)\n"
        "b = x.reshape(-1, 2) + x.reshape((-1, 2))\n"
        "c = y[1::2] + y[::-2]\n"
        "d = np.repeat(g, 3) + x.reshape(2, -1) + x.reshape(n, 2)\n"
        "e = y[::k] + y[1:2] + y[2 * j + 1::2 * k] + x.reshape(-1)\n"
        "f = (lo % 2 == 0) | (a[:, 0] % 2 == 1) | ((k + 1) % -2)\n"
        "h = len(blocks) % 2 + n % 3 + n // 2 + k % m\n"
    )
    assert slot_indexing(ast.parse(source)) == [1, 1, 1, 2, 2, 3, 3, 6, 6, 6]


@pytest.mark.parametrize(
    "path",
    [p for p in PACKAGE if p.name != "phasor.py"],
    ids=lambda p: str(p.relative_to(ROOT)),
)
def test_only_phasor_maps_entries_to_slots(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert slot_indexing(tree) == []
