"""Generate one workload's corpus, timelines and ground truth.

Usage: python3 perfbench/setup_corpus.py WORKLOAD_JSON SEED OUT_DIR

Prints one JSON object: the synth seed chosen and the seconds spent in
``synth.generate`` and ``synth.write_corpus``.  The benchmark times the
whole process as its set-up time.

Seeds change which tweets are drawn, not how much work a pass does: the
synth seed is the first candidate, starting with SEED itself, whose planned
log count and pre-sleep scan size are within a few percent of the reference
seed's.  Runs with different seeds therefore measure the same amount of work.
"""

from __future__ import annotations

import json
import random
import sys
import time

from sleeplog import synth
from workloads import Workload

# `sleeplog synth --synth-users 400 --seed 7` is the d400 corpus of the
# roadmap's first timings; it is its own reference and is always kept.
REFERENCE_SEED = 7
LOG_TOLERANCE = 0.01
SCAN_TOLERANCE = 0.02
MAX_CANDIDATES = 100_000


def planned_load(config: synth.SynthConfig) -> tuple[float, float]:
    """(valid logs, pre-sleep scan steps) that a corpus from `config` will hold.

    A user's scan is nights x timeline length; the timeline holds a planted
    pre-sleep tweet per night with the user's probability plus background
    chatter.
    """
    users = synth._build_users(config)
    logs = sum(u.n_logs for u in users)
    scan = sum(
        u.n_logs * (u.n_logs * u.presleep_pi + config.timeline_background_mean) for u in users
    )
    return logs, scan


def synth_config(workload: Workload, seed: int) -> synth.SynthConfig:
    fields = dict(workload.synth)
    if "logs_per_user_range" in fields:
        fields["logs_per_user_range"] = tuple(fields["logs_per_user_range"])
    ref_logs, ref_scan = planned_load(synth.SynthConfig(seed=REFERENCE_SEED, **fields))
    draws = random.Random(seed)
    candidate = seed
    for _ in range(MAX_CANDIDATES):
        config = synth.SynthConfig(seed=candidate, **fields)
        logs, scan = planned_load(config)
        if abs(logs / ref_logs - 1) <= LOG_TOLERANCE and abs(scan / ref_scan - 1) <= SCAN_TOLERANCE:
            return config
        candidate = draws.randrange(2**31)
    raise RuntimeError(f"no seed within tolerance of the reference load for {workload.name}")


def main(argv: list[str]) -> int:
    workload = Workload(**json.loads(argv[0]))
    config = synth_config(workload, int(argv[1]))
    t0 = time.perf_counter()
    result = synth.generate(config)
    t1 = time.perf_counter()
    synth.write_corpus(result, argv[2])
    t2 = time.perf_counter()
    print(json.dumps({
        "synth_seed": config.seed,
        "synth.generate.s": t1 - t0,
        "synth.write_corpus.s": t2 - t1,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
