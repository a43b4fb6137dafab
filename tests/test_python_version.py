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

A third rule keeps one float formatter in ``cli.py``: only ``_numbers``
applies a ``%`` float conversion (``%e``, ``%f``, ``%g``) to numbers, and
no f-string, ``format()`` call or ``str.format`` template in the module
uses a float format spec, so every printed float goes through the
renderer's ``%.6g`` rule.

A fourth rule keeps the package's hands off the garbage collector: its
one use of ``gc`` is the ``gc.freeze()`` that ``cli.main`` makes once per
process.  Every other ``gc`` call, such as ``gc.collect``,
``gc.get_objects`` or ``gc.get_freeze_count``, walks the heap, and would
cost each call it sits in.
"""

from __future__ import annotations

import ast
import re
import string
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


CLI = ROOT / "src/gapower/cli.py"
PERCENT_FLOAT = re.compile(r"%[-+ #0]*(\d+|\*)?(\.(\d+|\*))?[eEfFgG]")
FLOAT_SPEC = re.compile(r"[eEfFgG%]$")


def _strings(node: ast.AST) -> list[str]:
    """The string literals in ``node``."""
    return [
        n.value for n in ast.walk(node)
        if isinstance(n, ast.Constant) and isinstance(n.value, str)
    ]


def _float_specs(node: ast.AST) -> bool:
    """Whether ``node`` formats with a float format spec: an f-string
    field, ``format(x, spec)`` or a literal ``"...".format(...)``."""
    if isinstance(node, ast.FormattedValue) and node.format_spec is not None:
        return bool(FLOAT_SPEC.search("".join(_strings(node.format_spec))))
    if not isinstance(node, ast.Call):
        return False
    if isinstance(node.func, ast.Name) and node.func.id == "format":
        return len(node.args) > 1 and any(map(FLOAT_SPEC.search, _strings(node.args[1])))
    if (
        isinstance(node.func, ast.Attribute)
        and node.func.attr == "format"
        and isinstance(node.func.value, ast.Constant)
        and isinstance(node.func.value.value, str)
    ):
        fields = string.Formatter().parse(node.func.value.value)
        return any(spec and FLOAT_SPEC.search(spec) for _, _, spec, _ in fields)
    return False


def float_formatting(tree: ast.AST) -> list[int]:
    """Sorted line numbers of float formatting in ``tree``: a ``%`` whose
    left operand holds a literal with a float conversion, outside a
    function named ``_numbers``, and anywhere a float format spec."""
    lines = []

    def visit(node: ast.AST, inside: bool) -> None:
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod) and not inside:
            if any(map(PERCENT_FLOAT.search, _strings(node.left))):
                lines.append(node.lineno)
        if _float_specs(node):
            lines.append(node.lineno)
        inside = inside or isinstance(node, ast.FunctionDef) and node.name == "_numbers"
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, False)
    return sorted(lines)


def test_float_check_finds_float_formatting_only():
    source = (
        'a = "%.6g" % x + ("%-14.3e," * 2) % y + "%5.1f%%" % z\n'
        'b = "e+%02d" % k + "e-%d" % k + "%s %r" % (s, t) + row % x\n'
        'c = f"{x:.3f}" + f"{n:d}" + f"{s}" + f"{x!r:>{w}}" + f"{p:.1%}"\n'
        'd = format(x, ".2e") + format(n, "d") + format(s)\n'
        'e = "{:g}".format(x) + "{0} {1:>4}".format(x, y) + "{:d}".format(n)\n'
        'def _numbers(x, whole, json):\n'
        '    return "%16.6g" % x + row % x\n'
        'def _g6(values):\n'
        '    return "%.6g" % values + f"{values:g}"\n'
    )
    assert float_formatting(ast.parse(source)) == [1, 1, 1, 3, 3, 4, 5, 9, 9]


def test_cli_formats_floats_only_in_numbers():
    tree = ast.parse(CLI.read_text(encoding="utf-8"), str(CLI))
    assert float_formatting(tree) == []


def test_float_check_fails_on_a_planted_percent_format():
    source = CLI.read_text(encoding="utf-8")
    planted = source + '\n\ndef _planted(x):\n    return "%.6g" % x\n'
    assert float_formatting(ast.parse(planted)) == [source.count("\n") + 4]


def gc_uses(tree: ast.AST) -> list[tuple[int, str]]:
    """Sorted ``(line, name)`` of every use of the ``gc`` module in
    ``tree``: an attribute of a name ``import gc`` binds (under any
    alias) and each name ``from gc import`` takes."""
    aliases = {
        a.asname or a.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for a in node.names if a.name == "gc"
    }
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "gc":
            uses += [(node.lineno, a.name) for a in node.names]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            uses.append((node.lineno, node.attr))
    return sorted(uses)


def test_gc_check_finds_every_use_of_gc():
    source = (
        "import gc\nimport gc as g\nfrom gc import collect as c, get_objects\n"
        "gc.freeze()\ng.collect()\nx = gc.get_freeze_count\n"
        "c()\nnp.gc.collect() + y.collect()\n"
    )
    assert gc_uses(ast.parse(source)) == [
        (3, "collect"), (3, "get_objects"), (4, "freeze"), (5, "collect"),
        (6, "get_freeze_count"),
    ]


def test_package_uses_gc_only_to_freeze_once():
    uses = [
        (path.name, name)
        for path in PACKAGE
        for _, name in gc_uses(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    ]
    assert uses == [("cli.py", "freeze")]


def test_gc_check_fails_on_a_planted_call():
    source = CLI.read_text(encoding="utf-8")
    planted = source + "\n\ndef _planted():\n    return gc.get_freeze_count()\n"
    assert (source.count("\n") + 4, "get_freeze_count") in gc_uses(ast.parse(planted))


WRITE_MODES = set("wax+")


def _is_stdout_write(node: ast.AST) -> bool:
    """Whether ``node`` is a call of ``sys.stdout.write``."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "write"
        and isinstance(node.func.value, ast.Attribute)
        and node.func.value.attr == "stdout"
        and isinstance(node.func.value.value, ast.Name)
        and node.func.value.value.id == "sys"
    )


def text_writes(tree: ast.AST) -> list[int]:
    """Sorted line numbers of text output in ``tree``: an ``open`` call
    whose mode writes but is not binary, or is not a literal, and a
    ``.decode(...)`` call outside the argument of ``sys.stdout.write``."""
    lines = []

    def visit(node: ast.AST, inside: bool) -> None:
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "open":
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            mode = modes[0] if modes else ast.Constant("r")
            mode = mode.value if isinstance(mode, ast.Constant) else None
            if not isinstance(mode, str) or (WRITE_MODES & set(mode) and "b" not in mode):
                lines.append(node.lineno)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "decode"
            and not inside
        ):
            lines.append(node.lineno)
        inside = inside or _is_stdout_write(node)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, False)
    return sorted(lines)


def test_text_check_finds_text_writes_only():
    source = (
        'open(p).close() + open(p, "rb") + open(p, "r", encoding="utf-8")\n'
        'open(p, "w") + open(p, mode="a") + open(p, "x", encoding="ascii")\n'
        'open(p, "r+") + open(p, "wb") + open(p, mode="ab") + open(p, "r+b")\n'
        'open(p, mode) + fh.open(p, "w") + os.open(p, flags)\n'
        'sys.stdout.write(chunk.decode()) + sys.stderr.write(chunk.decode())\n'
        'text = chunk.decode("ascii") + codecs.decode(chunk) + chunk.encode()\n'
    )
    assert text_writes(ast.parse(source)) == [2, 2, 2, 3, 4, 5, 6, 6]


def test_cli_writes_bytes_and_decodes_only_for_stdout():
    tree = ast.parse(CLI.read_text(encoding="utf-8"), str(CLI))
    assert text_writes(tree) == []


def test_text_check_fails_on_a_planted_text_write():
    source = CLI.read_text(encoding="utf-8")
    planted = source + (
        '\n\ndef _planted(chunks, out):\n'
        '    with open(out, "w", encoding="utf-8") as fh:\n'
        '        fh.writelines(chunk.decode() for chunk in chunks)\n'
    )
    end = source.count("\n")
    assert text_writes(ast.parse(planted)) == [end + 4, end + 5]
