"""Correctness gate for one benchmark pass, run outside the timed region.

Usage: python3 perfbench/gate.py JOB_JSON

JOB_JSON holds the pass's output directory ("out"), the exit code of each
of its commands ("exit_codes"), the corpus's ground truth ("truth") and the
span files of a traced pass ("spans", empty when untraced).  Prints one JSON
object: the problems found, the output tree's sha256 and, for a traced
pass, its per-layer metrics.

A pass is correct when every sleeplog invocation exited 0, the ledger's
chain holds and ``funnel.csv`` repeats it, every manifest digest matches the
file on disk, and ``synth.score`` finds precision = recall = 1.0 for valid
logs and for every injected rejection reason.  The gate runs in its own
process so that run.py stays small: a child's peak RSS as the
kernel reports it is never below its parent's RSS when it was started.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import sys

import spans
from sleeplog.grammar import SleepLog
from sleeplog.records import PipelineLedger
from sleeplog.synth import score
from workloads import STAGES


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def file_digests(root: str) -> dict[str, str]:
    """sha256 of every file under root, keyed by sorted relative posix path."""
    digests = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            digests[os.path.relpath(path, root).replace(os.sep, "/")] = sha256_file(path)
    return dict(sorted(digests.items()))


def tree_sha256(digests: dict[str, str]) -> str:
    """One digest over every file's relative path and contents."""
    return hashlib.sha256("".join(f"{rel}\0{d}\n" for rel, d in digests.items()).encode()).hexdigest()


def read_truth(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _read_stamped_csv(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        if not handle.readline().startswith("#"):
            raise ValueError(f"{os.path.basename(path)} lacks its settings line")
        return list(csv.DictReader(handle))


def _check_ledger(out: str) -> list[str]:
    with open(os.path.join(out, "ledger.json"), "r", encoding="utf-8") as handle:
        ledger = PipelineLedger.from_json(handle.read())
    ledger.validate_chain()
    funnel = [
        (r["stage"], int(r["tweets_in"]), int(r["tweets_kept"]), int(r["users_kept"]))
        for r in _read_stamped_csv(os.path.join(out, "funnel.csv"))
    ]
    expected = [(s.name, s.input, s.kept, s.distinct_users_kept) for s in ledger.stages]
    return [] if funnel == expected else ["funnel.csv does not match ledger.json"]


def _check_manifests(out: str, digests: dict[str, str]) -> list[str]:
    """Each manifest digest against the file of that name on disk.

    Manifests key files by basename, so an entry matches when any file of
    that name in the tree has the digest.  An entry is skipped when a later
    stage's manifest lists the same name as an output: that stage rewrote
    the file (every stage rewrites ledger.json).
    """
    by_name: dict[str, set[str]] = {}
    for rel, digest in digests.items():
        by_name.setdefault(rel.rsplit("/", 1)[-1], set()).add(digest)
    manifests = []
    for stage in STAGES:
        path = os.path.join(out, f"manifest_{stage}.json")
        if not os.path.exists(path):
            return [f"manifest_{stage}.json is missing"]
        with open(path, "r", encoding="utf-8") as handle:
            manifests.append(json.load(handle))
    problems = []
    for i, doc in enumerate(manifests):
        rewritten = {name for later in manifests[i + 1:] for name in later["outputs"]}
        for name, digest in (*doc["inputs"].items(), *doc["outputs"].items()):
            if name in rewritten or (name not in by_name and name in doc["inputs"]):
                continue  # rewritten later, or an input from outside the tree
            if digest not in by_name.get(name, ()):
                problems.append(f"manifest_{doc['command']}.json: {name} digest mismatch")
    return problems


def _check_score(out: str, truth: list[dict]) -> list[str]:
    with open(os.path.join(out, "filtered.jsonl"), "r", encoding="utf-8") as handle:
        kept = [SleepLog.from_record(json.loads(line)) for line in handle if line.strip()]
    rejected = {}
    for stage in ("ingest", "parse", "filter"):
        for row in _read_stamped_csv(os.path.join(out, f"{stage}_rejects.csv")):
            rejected[row["tweet_id"]] = row["reason"]
    report = score(truth, kept, rejected)
    problems = []
    for label, pr in (("valid", report.valid), *report.per_reason.items()):
        if pr.precision != 1.0 or pr.recall != 1.0:
            problems.append(f"score {label}: precision {pr.precision:.6f} recall {pr.recall:.6f}")
    return problems


def check_pass(out: str, exit_codes: list[int], truth: list[dict], digests: dict[str, str]) -> list[str]:
    """Problems found in one pass's output tree; empty when it is correct."""
    problems = [f"invocation {i + 1} exited {rc}" for i, rc in enumerate(exit_codes) if rc != 0]
    if problems:
        return problems
    checks = {
        "ledger": lambda: _check_ledger(out),
        "manifests": lambda: _check_manifests(out, digests),
        "score": lambda: _check_score(out, truth),
    }
    for name, check in checks.items():
        try:
            problems += check()
        except (OSError, ValueError, KeyError, TypeError, AssertionError) as exc:
            problems.append(f"{name}: {exc}")
    return problems


def main(argv: list[str]) -> int:
    job = json.loads(argv[0])
    digests = file_digests(job["out"])
    problems = check_pass(job["out"], job["exit_codes"], read_truth(job["truth"]), digests)
    tree = tree_sha256(digests)
    layers: dict[str, float] = {}
    if job["spans"] and not problems:
        totals = spans.Totals()
        for path in job["spans"]:
            totals.add_file(path)
        try:
            layers = spans.layer_metrics(totals)
        except ValueError as exc:
            problems.append(f"spans: {exc}")
    print(json.dumps({"problems": problems, "tree": tree, "layers": layers}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
