"""The public examples still run: the README "Library quick start" block
prints what its comments say, ``scripts/solve_demo.py`` prints the bytes
recorded in ``tests/golden/solve_demo.txt``, and the recording
``scripts/synth_recording.py`` writes analyzes to
``tests/golden/analyze_bench.table``."""

from __future__ import annotations

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

from gapower.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _quick_start() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Library quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _comment_pattern(comment: str) -> str:
    """Regex for a ``# value`` comment: ``...`` stands for the digits or
    entries left out, and a trailing unit is not printed."""
    text = re.sub(r"\s+(VA|W|VAr|A)$", "", comment.strip())
    return ".*?".join(re.escape(part) for part in text.split("..."))


def test_readme_quick_start_prints_its_comments():
    code = _quick_start()
    stated = [
        line.split("#", 1)[1]
        for line in code.splitlines()
        if line.startswith("print(") and "#" in line
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(stated) == len(printed) == 4
    for comment, line in zip(stated, printed):
        assert re.fullmatch(_comment_pattern(comment), line), (comment, line)


def _run_script(name: str, *args: str) -> str:
    """stdout of ``scripts/<name>`` run with the package on its path."""
    env = dict(os.environ)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, check=True,
    )
    return proc.stdout


def test_solve_demo_output_is_unchanged():
    want = (ROOT / "tests" / "golden" / "solve_demo.txt").read_text(encoding="utf-8")
    assert _run_script("solve_demo.py") == want


def test_synth_recording_analyzes_to_the_bench_golden(tmp_path):
    recording = tmp_path / "bench.csv"
    _run_script("synth_recording.py", str(recording))
    out = tmp_path / "bench.table"
    rc = main(["analyze", "--input", str(recording), "--fundamental", "50",
               "--orders", "9", "--format", "table", "--out", str(out)])
    assert rc == 0
    want = (ROOT / "tests" / "golden" / "analyze_bench.table").read_bytes()
    assert out.read_bytes() == want
