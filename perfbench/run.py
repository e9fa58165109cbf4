"""End-to-end and per-layer benchmark for the sleeplog pipeline.

Usage, from the repository root:

    python3 perfbench/run.py --workload d400 --seed 7 --seconds 25 --trace 0

The benchmark synthesizes the workload's corpus with ``sleeplog.synth`` in
its own process (the set-up, timed three times), then runs passes of the
workload's ``python -m sleeplog`` commands one at a time, from this single
process, until the next pass would overrun ``--seconds``.  At least one pass
always runs.  A pass is one closed-loop client: a command starts only when
the previous one has exited.  After each pass, outside the timed region,
``gate.py`` checks its outputs.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
prints its per-layer metrics instead: it alternates untraced passes with
traced ones, which run the same commands in-process through
``sleeplog.cli.main`` with spans recorded around each cross-module call
(``trace_child.py``, ``spans.py``), and then times the kernels in
``kernels.py``.

Children run sealed: every ``SLEEPLOG_*`` variable is removed, the hash
seed is fixed, no bytecode is cached, the working directory and geocode cache are inside a fresh
temporary directory under ``.perfbench_work/`` and ``src/`` is the only
import path added.  This process imports no sleeplog code and holds no
corpus data, so it stays smaller than every child it measures.  The last
line of output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field

from workloads import STAGES, WORKLOADS, Workload, invocations

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3


@dataclass
class Child:
    wall: float
    cpu: float
    rss_mb: float
    rc: int


@dataclass
class Pass:
    out: str
    traced: bool
    children: list[Child]
    wall: float
    problems: list[str] = field(default_factory=list)
    tree: str = ""
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        """Every command of a pass whose outputs fail the gate counts as failed."""
        return len(self.children) if self.problems else 0


def sealed_env(src: str) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("SLEEPLOG_")}
    env["PYTHONPATH"] = src
    env["PYTHONHASHSEED"] = "0"
    # Every child compiles sleeplog from source, whatever the caller's setting.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(argv: list[str], cwd: str, env: dict[str, str], stdout: str, stderr: str) -> Child:
    """Run argv to completion; wall time, user+sys CPU and peak RSS of that process alone."""
    with open(stdout, "ab") as out, open(stderr, "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


def median(values) -> float:
    return statistics.median(list(values))


class Bench:
    """One workload's inputs and passes inside a private work directory."""

    def __init__(self, root: str, workload: Workload, seed: int, work: str) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.env = sealed_env(os.path.join(root, "src"))
        self.data = os.path.join(work, "data")
        self.corpus = os.path.join(self.data, "corpus.jsonl")
        self.timelines = os.path.join(self.data, "timelines.jsonl")
        self.log = os.path.join(work, "children.log")
        self.setups: list[tuple[float, dict]] = []
        self.corpus_lines = 0

    def _tool(self, script: str, *args: str) -> tuple[Child, dict | None]:
        """Run one of the benchmark's own scripts; its JSON report, or None when it failed."""
        report = os.path.join(self.work, "report.json")
        if os.path.exists(report):
            os.remove(report)
        child = run_child([sys.executable, os.path.join(HERE, script), *args],
                          self.work, self.env, report, self.log)
        if child.rc != 0:
            return child, None
        with open(report, "r", encoding="utf-8") as handle:
            return child, json.load(handle)

    def setup(self, repeats: int) -> None:
        spec = json.dumps(asdict(self.workload))
        for _ in range(repeats):
            child, report = self._tool("setup_corpus.py", spec, str(self.seed), self.data)
            if report is None:
                raise RuntimeError(f"set-up exited {child.rc}; see {self.log}")
            self.setups.append((child.wall, report))
        with open(self.corpus, "rb") as handle:
            self.corpus_lines = sum(1 for line in handle if line.strip())

    def run_pass(self, index: int, traced: bool) -> Pass:
        """Run the workload's commands once; the timed region is this call alone."""
        pass_dir = os.path.join(self.work, f"pass{index}")
        out = os.path.join(pass_dir, "out")
        os.makedirs(pass_dir)
        argvs = invocations(
            self.workload, self.corpus, self.timelines, out, os.path.join(pass_dir, "geo_cache.json")
        )
        children = []
        t0 = time.perf_counter()
        for i, argv in enumerate(argvs):
            if traced:
                cmd = [sys.executable, os.path.join(HERE, "trace_child.py"),
                       os.path.join(pass_dir, f"spans{i}.pickle"), *argv]
            else:
                cmd = [sys.executable, "-m", "sleeplog", *argv]
            children.append(run_child(cmd, pass_dir, self.env, self.log, self.log))
        return Pass(out, traced, children, time.perf_counter() - t0)

    def check(self, p: Pass) -> None:
        """Gate the pass's outputs and sum its spans, then delete its directory."""
        pass_dir = os.path.dirname(p.out)
        job = {
            "out": p.out,
            "exit_codes": [c.rc for c in p.children],
            "truth": os.path.join(self.data, "truth.jsonl"),
            "spans": [os.path.join(pass_dir, f"spans{i}.pickle")
                      for i in range(len(p.children))] if p.traced else [],
        }
        child, report = self._tool("gate.py", json.dumps(job))
        if report is None:
            p.problems = [f"gate exited {child.rc}"]
        else:
            p.problems, p.tree, p.layers = report["problems"], report["tree"], report["layers"]
        if p.layers:
            covered = sum(p.layers[f"cli.{stage}.wall_s"] for stage in STAGES)
            p.layers["trace.uncovered_s"] = p.wall - covered
        shutil.rmtree(pass_dir)

    def kernels(self) -> tuple[dict[str, float], list[str]]:
        child, report = self._tool("kernels.py", self.corpus, self.timelines)
        if report is None:
            return {}, [f"kernel pass exited {child.rc}"]
        return report, []


def run_passes(bench: Bench, seconds: float, traced: bool) -> list[Pass]:
    """Untraced passes, or untraced/traced pairs, until the next would overrun `seconds`."""
    passes: list[Pass] = []
    kinds = (False, True) if traced else (False,)
    while True:
        round_wall = 0.0
        for kind in kinds:
            p = bench.run_pass(len(passes), kind)
            bench.check(p)
            passes.append(p)
            round_wall += p.wall
        if sum(p.wall for p in passes) + round_wall > seconds:
            return passes


def end_to_end(bench: Bench, passes: list[Pass]) -> dict[str, float]:
    return {
        "wall_s": median(p.wall for p in passes),
        "tweets_per_s": median(bench.corpus_lines / p.wall for p in passes),
        "cpu_s": median(sum(c.cpu for c in p.children) for p in passes),
        "peak_rss_mb": median(max(c.rss_mb for c in p.children) for p in passes),
        "setup_s": median(wall for wall, _ in bench.setups),
    }


def per_layer(bench: Bench, passes: list[Pass], kernel: dict[str, float]) -> dict[str, float]:
    traced = [p for p in passes if p.layers]
    if not traced:
        return {}
    metrics = {name: median(p.layers[name] for p in traced) for name in traced[0].layers}
    untraced = [p.wall for p in passes if not p.traced]
    metrics["trace.overhead_s"] = median(p.wall for p in traced) - median(untraced)
    for key in ("synth.generate.s", "synth.write_corpus.s"):
        metrics[key] = median(report[key] for _, report in bench.setups)
    metrics.update(kernel)
    return metrics


def git_commit(root: str) -> str:
    env = dict(os.environ, GIT_DIR=os.path.join(root, ".git"))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run(root: str, workload: Workload, seed: int, seconds: float, trace: bool,
        declared: dict[str, str]) -> tuple[list[str], dict]:
    """Run one benchmark; returns the report lines and the result object."""
    scratch = os.path.join(root, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch)
    try:
        bench = Bench(root, workload, seed, work)
        bench.setup(1 if trace else SETUP_REPEATS)
        passes = run_passes(bench, seconds, trace)
        kernel, kernel_problems = bench.kernels() if trace else ({}, [])
        log_tail = ""
        if kernel_problems or any(p.problems for p in passes):
            with open(bench.log, "r", encoding="utf-8", errors="replace") as handle:
                log_tail = "".join(handle.readlines()[-20:])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in passes[1:]:
        if p.tree != passes[0].tree and not p.problems:
            p.problems.append(f"output tree differs from the first pass's {passes[0].tree}")
    metrics = per_layer(bench, passes, kernel) if trace else end_to_end(bench, passes)
    missing = sorted(set(declared) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {', '.join(missing)}")

    attempted = sum(len(p.children) for p in passes) + (1 if trace else 0)
    failed = sum(p.failed for p in passes) + (1 if kernel_problems else 0)
    lines = [
        f"workload {workload.name}: seed {seed}, synth seed {bench.setups[0][1]['synth_seed']}, "
        f"{bench.corpus_lines} corpus tweets",
        f"machine: python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}, "
        f"{platform.machine()}, commit {git_commit(root)}",
    ]
    for i, p in enumerate(passes):
        kind = "traced" if p.traced else "untraced"
        lines.append(f"pass {i + 1} ({kind}): {p.wall:.3f} s over {len(p.children)} commands, "
                     f"output tree sha256 {p.tree}")
        lines += [f"  FAILED: {problem}" for problem in p.problems]
    lines += [f"  FAILED: {problem}" for problem in kernel_problems]
    if log_tail:
        lines += ["last lines the children wrote:", log_tail.rstrip("\n")]
    lines.append(f"{'failure_rate':<44} {failed / attempted:.6g} ratio ({failed} of {attempted})")
    lines += [f"{name:<44} {metrics[name]:.6g} {unit}" for name, unit in declared.items()]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }
    return lines, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the sleeplog pipeline.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "sleeplog", "cli.py")) or not os.path.isfile(spec_path):
        print("error: run from the repository root: src/sleeplog and BENCHMARK.json are needed",
              file=sys.stderr)
        return 2
    with open(spec_path, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    lines, result = run(root, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), declared)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
