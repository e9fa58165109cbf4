"""Kernel timings for the calls every stage leans on, fed from workload data.

Usage: python3 perfbench/kernels.py CORPUS_JSONL TIMELINES_JSONL

Times ``parse_tweet`` per outcome, the ``RawTweet`` and ``SleepLog`` record
round-trips, ``mann_whitney_u`` at an exact and an approximate size, and
``presleep_probability`` on the workload's heaviest user.  Every timed call
is checked against its expected result.  Prints one JSON object of metrics;
exits 1 when a check fails.
"""

from __future__ import annotations

import dataclasses
import json
import re
import statistics
import sys
import time

from sleeplog.analytics import by_user, presleep_probability
from sleeplog.grammar import SleepLog, parse_tweet
from sleeplog.pipeline import filter_logs
from sleeplog.records import RawTweet, parse_timestamp
from sleeplog.stats import MwuMethod, mann_whitney_u

from spans import PARSE_OUTCOMES, parse_outcome

REPEATS = 5
SAMPLE = 400
ROUND_TRIP_SAMPLE = 4000
PRESLEEP_BUDGET_S = 1.0
_START_MINUTES = re.compile(r"( from [0-9]{1,2}[:.])[0-9]{2}")


class KernelCheckError(Exception):
    pass


def _per_call_us(fn, items, repeats: int = REPEATS) -> float:
    """Median over `repeats` sweeps of the mean microseconds per fn(item)."""
    sweeps = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for item in items:
            fn(item)
        sweeps.append((time.perf_counter() - t0) / len(items))
    return 1e6 * statistics.median(sweeps)


def _mutate_unparseable(tweet: RawTweet) -> RawTweet:
    """Start minutes out of range: 'from 23:02' becomes 'from 23:99'."""
    return dataclasses.replace(tweet, text=_START_MINUTES.sub(r"\g<1>99", tweet.text, count=1))


def _mutate_missing(tweet: RawTweet) -> RawTweet:
    """Drop the from/to clause: 'sleeping for 7:10 #sleep_as_android'."""
    head = tweet.text.split(" from ", 1)[0]
    return dataclasses.replace(tweet, text=head + " #sleep_as_android")


def parse_kernels(tweets: list[RawTweet], outcomes: list[str]) -> dict[str, float]:
    groups: dict[str, list[RawTweet]] = {}
    for tweet, outcome in zip(tweets, outcomes):
        groups.setdefault(outcome, []).append(tweet)
    valid = [t for o, ts in groups.items() if "-" in o for t in ts[:SAMPLE // 6]]
    groups["UNPARSEABLE_TIME"] = [_mutate_unparseable(t) for t in valid]
    groups["MISSING_FIELDS"] = [_mutate_missing(t) for t in valid]

    metrics = {}
    for outcome in (*PARSE_OUTCOMES, "UNPARSEABLE_TIME", "MISSING_FIELDS"):
        sample = groups.get(outcome, [])[:SAMPLE]
        if not sample:
            raise KernelCheckError(f"no {outcome} tweets to time")
        wrong = [t.tweet_id for t in sample if parse_outcome(parse_tweet(t)) != outcome]
        if wrong:
            raise KernelCheckError(f"{len(wrong)} {outcome} tweets parse otherwise, e.g. {wrong[0]}")
        metrics[f"kernel.parse_tweet.us.{outcome}"] = _per_call_us(parse_tweet, sample)
    return metrics


def round_trip_kernels(docs: list[dict], tweets: list[RawTweet], logs: list[SleepLog]) -> dict[str, float]:
    docs, tweets = docs[:ROUND_TRIP_SAMPLE], tweets[:ROUND_TRIP_SAMPLE]
    records = [log.to_record() for log in logs[:ROUND_TRIP_SAMPLE]]
    if [RawTweet.from_record(json.loads(t.to_json())) for t in tweets] != tweets:
        raise KernelCheckError("RawTweet JSON round-trip changed a tweet")
    if [SleepLog.from_record(r) for r in records] != logs[:ROUND_TRIP_SAMPLE]:
        raise KernelCheckError("SleepLog record round-trip changed a log")
    return {
        "kernel.RawTweet.from_record.us": _per_call_us(RawTweet.from_record, docs),
        "kernel.RawTweet.to_json.us": _per_call_us(RawTweet.to_json, tweets),
        "kernel.SleepLog.from_record.us": _per_call_us(SleepLog.from_record, records),
        "kernel.SleepLog.to_record.us": _per_call_us(SleepLog.to_record, logs[:ROUND_TRIP_SAMPLE]),
    }


def mwu_kernels(logs: list[SleepLog]) -> dict[str, float]:
    """Exact: the first 40 distinct durations split 20/20 (n1*n2 = 400, tie-free).

    Approximate: the durations of the first 1000 logs split in half, with ties.
    """
    distinct = list(dict.fromkeys(log.duration_minutes for log in logs))[:40]
    if len(distinct) < 40:
        raise KernelCheckError(f"only {len(distinct)} distinct durations for the exact case")
    durations = [log.duration_minutes for log in logs[:1000]]
    half = len(durations) // 2
    cases = {
        "exact": (distinct[:20], distinct[20:], MwuMethod.EXACT),
        "approx": (durations[:half], durations[half:], MwuMethod.NORMAL_APPROX),
    }
    metrics = {}
    for name, (a, b, method) in cases.items():
        t0 = time.perf_counter()
        result = mann_whitney_u(a, b)
        first = time.perf_counter() - t0
        if result.method is not method:
            raise KernelCheckError(f"mann_whitney_u {name} case ran as {result.method.value}")
        # The first call in a process pays for any table the method builds.
        metrics[f"kernel.mann_whitney_u.{name}_first_us"] = 1e6 * first
        metrics[f"kernel.mann_whitney_u.{name}_us"] = _per_call_us(
            lambda _: mann_whitney_u(a, b), range(20)
        )
    return metrics


def presleep_kernel(logs: list[SleepLog], timelines: dict[str, list]) -> dict[str, float]:
    """presleep_probability on the user with the most nights x timeline tweets."""
    grouped = by_user(logs)
    user = max(
        (u for u in grouped if u in timelines),
        key=lambda u: (len(grouped[u]) * len(timelines[u]), u),
    )
    expected = presleep_probability(grouped[user], timelines[user])
    if expected is None or not 0.0 < expected <= 1.0:
        raise KernelCheckError(f"presleep_probability for {user} gave {expected}")
    times = []
    start = time.perf_counter()
    while not times or (time.perf_counter() - start < PRESLEEP_BUDGET_S and len(times) < REPEATS):
        t0 = time.perf_counter()
        if presleep_probability(grouped[user], timelines[user]) != expected:
            raise KernelCheckError("presleep_probability is not repeatable")
        times.append(time.perf_counter() - t0)
    return {"kernel.presleep_probability.heaviest_ms": 1e3 * statistics.median(times)}


def main(argv: list[str]) -> int:
    with open(argv[0], "r", encoding="utf-8") as handle:
        docs = [json.loads(line) for line in handle if line.strip()]
    timelines: dict[str, list] = {}
    with open(argv[1], "r", encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                doc = json.loads(line)
                timelines.setdefault(doc["user_id"], []).append(parse_timestamp(doc["created_at"]))
    tweets = [RawTweet.from_record(doc) for doc in docs]
    parsed = [parse_tweet(t) for t in tweets]
    logs, _ = filter_logs(p for p in parsed if isinstance(p, SleepLog))
    try:
        metrics = parse_kernels(tweets, [parse_outcome(p) for p in parsed])
        metrics.update(round_trip_kernels(docs, tweets, logs))
        metrics.update(mwu_kernels(logs))
        metrics.update(presleep_kernel(logs, timelines))
    except KernelCheckError as exc:
        print(f"kernel check failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
