"""tools/check_names.py, the name checks CI runs: clean on this repository, and
each rule finds what it is there to find."""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CHECKED = ("src/sleeplog", "tests", "perfbench", "tools")


def check(root: Path, rule: str) -> subprocess.CompletedProcess:
    """`tools/check_names.py rule` over the files CI gives it, run from `root`."""
    files = [p.relative_to(root).as_posix() for d in CHECKED for p in sorted((root / d).glob("*.py"))]
    return subprocess.run([sys.executable, "tools/check_names.py", rule, *files], cwd=root,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("rule", ["unused-imports", "unread-private"])
def test_the_repository_passes(rule):
    done = check(ROOT, rule)
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")


def test_a_dead_helper_and_an_unused_import_are_each_named(tmp_path):
    for d in CHECKED:
        (tmp_path / d).mkdir(parents=True)
        for path in (ROOT / d).glob("*.py"):
            shutil.copy(path, tmp_path / d)
    stats = tmp_path / "src/sleeplog/stats.py"
    helper_line = len(stats.read_text().splitlines()) + 3
    with open(stats, "a", encoding="utf-8") as handle:
        handle.write("\n\ndef _dead_helper(value):\n    return value\n")
    svg = tmp_path / "src/sleeplog/svg.py"
    svg.write_text("import textwrap\n" + svg.read_text())

    imports, private = check(tmp_path, "unused-imports"), check(tmp_path, "unread-private")
    assert (imports.returncode, imports.stdout) == (1, "src/sleeplog/svg.py:1: textwrap\n")
    assert (private.returncode, private.stdout) == (
        1, f"src/sleeplog/stats.py:{helper_line}: _dead_helper\n")
