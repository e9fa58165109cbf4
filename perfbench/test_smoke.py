"""Smoke test for the benchmark itself, at toy scale.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]

import run  # noqa: E402
from workloads import Workload  # noqa: E402

TOY_RUN_ALL = Workload("toy-run-all", {"n_users": 12}, per_stage=False)
TOY_STAGES = Workload("toy-stages", {"n_users": 12}, per_stage=True)


def declared(kind: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


@pytest.mark.parametrize(
    "workload, trace, kind",
    [(TOY_STAGES, False, "end_to_end"), (TOY_RUN_ALL, True, "per_layer")],
)
def test_every_declared_metric_is_printed_with_its_unit(workload, trace, kind):
    units = declared(kind)
    lines, result = run.run(ROOT, workload, 7, 0.0, trace, units)

    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    printed = {line.split()[0]: line.split()[2] for line in lines if line.split()[0] in units}
    assert printed == units
    json.dumps(result)  # the result line must serialize as plain JSON


def test_corrupted_output_fails_its_pass(tmp_path):
    bench = run.Bench(ROOT, TOY_RUN_ALL, 7, str(tmp_path))
    bench.setup(1)

    clean = bench.run_pass(0, traced=False)
    bench.check(clean)
    assert clean.problems == [] and clean.failed == 0

    corrupt = bench.run_pass(1, traced=False)
    report = os.path.join(corrupt.out, "report", "clock.svg")
    with open(report, "a", encoding="utf-8") as handle:
        handle.write("<!-- edited -->\n")
    bench.check(corrupt)
    assert any("clock.svg digest mismatch" in p for p in corrupt.problems)
    assert corrupt.failed == len(corrupt.children)
    assert corrupt.tree != clean.tree


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "d400", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
