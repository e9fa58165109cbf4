"""Benchmark workloads: which corpus each one synthesizes and which commands it runs.

Every workload's corpus comes from ``sleeplog.synth`` (see setup_corpus.py)
and every command runs with offline geocoding.
"""

from __future__ import annotations

from dataclasses import dataclass

STAGES = ("ingest", "parse", "filter", "geo", "analyze", "report", "funnel")


@dataclass(frozen=True)
class Workload:
    name: str
    synth: dict  # SynthConfig fields other than the seed
    per_stage: bool  # True: one subcommand per stage; False: run-all --timelines


D400_SYNTH = {"n_users": 400}

WORKLOADS = {
    w.name: w
    for w in (
        # The roadmap's reference corpus, shaped like the paper's: every stage carries load.
        Workload("d400", D400_SYNTH, per_stage=False),
        # The same tweet count from 40 users at 10x per-user volume: the
        # O(nights x timeline) pre-sleep scan takes a far larger share.
        Workload(
            "heavy10x",
            {
                "n_users": 40,
                "logs_per_user_range": (10, 6330),
                "days": 600,
                "timeline_background_mean": 20.0,
            },
            per_stage=False,
        ),
        # d400 one stage per process: every stage re-reads and re-validates
        # its input files, and without timelines the pre-sleep scan does no work.
        Workload("stages", D400_SYNTH, per_stage=True),
    )
}


def invocations(workload: Workload, corpus: str, timelines: str, out: str, cache: str) -> list[list[str]]:
    """The sleeplog argv lists of one pass, in order."""
    common = ["--out", out, "--geo-offline", "--geo-cache", cache]
    if not workload.per_stage:
        return [["run-all", corpus, "--timelines", timelines, *common]]
    argvs = [["ingest", corpus, *common]] + [[stage, *common] for stage in STAGES[1:]]
    # Re-running parse is left out: a second parse entry breaks the ledger chain.
    for floor in ("10", "20"):
        argvs += [[stage, *common, "--min-logs-per-user", floor] for stage in ("analyze", "report")]
    return argvs
