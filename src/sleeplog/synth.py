"""Synthetic tweet corpora with planted ground truth.

Every tweet the generator emits is labeled: either a valid sleep log with
its true fields, or an injected invalid (spam, non-English digits, an
implausible duration, a duplicate) with the rejection reason the pipeline
is expected to produce.  Known effects are planted behind the text so the
full pipeline can be scored end to end.

Randomness: MT19937 (random.Random).  Every user gets independent
substreams derived as sha256(seed/label/index), so corpora are reproducible
across platforms and insensitive to generation order.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field, asdict
from datetime import date, datetime, time, timedelta, timezone
from functools import partial
from operator import attrgetter
from typing import NamedTuple

from .analytics import START_WINDOW, START_WINDOW_HOURS
from .grammar import SleepLog, sleeplog_text
from .records import RawTweet, RejectReason, _opt_int, _opt_str, _quoted, instant_text

# Countries with their timezone pool (name, fixed UTC offset seconds) and
# the interface language the profile claims.
ZONES_BY_COUNTRY: dict[str, list[tuple[str, int]]] = {
    "JP": [("Asia/Tokyo", 32400)],
    "US": [
        ("America/New_York", -18000),
        ("America/Chicago", -21600),
        ("America/Denver", -25200),
        ("America/Los_Angeles", -28800),
    ],
    "RU": [("Europe/Moscow", 10800)],
    "GB": [("Europe/London", 0)],
    "DE": [("Europe/Berlin", 3600)],
    "FR": [("Europe/Paris", 3600)],
    "BR": [("America/Sao_Paulo", -10800)],
    "AU": [("Australia/Sydney", 36000)],
    "KR": [("Asia/Seoul", 32400)],
    "NL": [("Europe/Amsterdam", 3600)],
    "IN": [("Asia/Kolkata", 19800)],
}

LANG_BY_COUNTRY = {
    "JP": "ja", "US": "en", "RU": "ru", "GB": "en", "DE": "de", "FR": "fr",
    "BR": "pt", "AU": "en", "KR": "ko", "NL": "nl", "IN": "en",
}

OTHER_POOL = ("DE", "FR", "BR", "AU", "KR", "NL", "IN")

_SPAM_TEMPLATES = (
    "Best sleep tracker I have tried, get it now #sleep_as_android ({k})",
    "My review of every sleep app this year #sleep_as_android post {k}",
    "This alarm keeps surprising me #sleep_as_android take {k}",
    "Deals deals deals on phone gadgets {k} #sleep_as_android",
)

_TIMELINE_TEMPLATES = (
    "late night thoughts, take {k}",
    "can't put this book down ({k})",
    "one more episode... ({k})",
    "long day, finally home ({k})",
)

# Start-of-sleep window used for the planted clock share.
WINDOW_LO, WINDOW_HI = START_WINDOW
DAY_MINUTES = 1440

# The population every corpus is drawn from.
# Day 0 of the corpus, in each user's local time.
CORPUS_START = date(2015, 10, 1)
_EPOCH = datetime.combine(CORPUS_START, time())
# Country shares; "other" draws uniformly from OTHER_POOL.
COUNTRY_MIX = {"JP": 0.44, "US": 0.14, "RU": 0.07, "GB": 0.04, "other": 0.31}
# Within-window start sub-range per country (minutes; wraps past 1440).
START_PROFILE = {"JP": (1410, WINDOW_HI), "US": (WINDOW_LO, 1530)}
# Per-country means ("*" for the rest), then the spread between users and
# between one user's nights.
DURATION_MEAN_BY_COUNTRY = {"JP": 337.0, "US": 388.0, "*": 370.0}
DURATION_USER_SD = 25.0
DURATION_LOG_SD = 35.0
DEEP_MEAN_BY_COUNTRY = {"JP": 52.0, "US": 44.0, "*": 46.0}
DEEP_USER_SD = 6.0
DEEP_LOG_SD = 10.0
NOTATION_MIX = {
    "H24:COLON": 0.40,
    "H24:DOT": 0.12,
    "H12_AMPM:COLON": 0.15,
    "H12_AMPM:DOT": 0.08,
    "H12_DOTTED_AMPM:COLON": 0.15,
    "H12_DOTTED_AMPM:DOT": 0.10,
}
# Each user's chance of a timeline tweet before a night's sleep is drawn from here.
PRESLEEP_PROB_RANGE = (0.05, 0.95)


@dataclass
class SynthConfig:
    """What a corpus varies; the population it is drawn from is fixed above."""

    seed: int = 20151024
    n_users: int = 100
    logs_per_user_range: tuple[int, int] = (1, 633)
    days: int = 60
    timeline_background_mean: float = 2.0
    deep_absent_rate: float = 0.05
    injection_rates: dict[str, float] = field(
        default_factory=lambda: {
            "spam": 0.02,
            "non_english": 0.02,
            "too_short": 0.01,
            "too_long": 0.01,
            "duplicate": 0.01,
        }
    )

    # Planted effects.
    start_window_share: float = 0.77       # share of sleep starts in [22:00, 03:00)
    presleep_quality_delta: float = -5.0   # deep-sleep pp at prob=1 vs prob=0

    def run_id(self) -> str:
        canonical = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _substream(seed: int, label: str, index: int) -> random.Random:
    digest = hashlib.sha256(f"{seed}/{label}/{index}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _gauss(rng: random.Random) -> float:
    # Box-Muller on top of .random() keeps the stream portable.
    u1 = 1.0 - rng.random()
    u2 = rng.random()
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def _log_uniform_int(rng: random.Random, lo: int, hi: int) -> int:
    value = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    return min(hi, max(lo, round(value)))


def _poisson(rng: random.Random, lam: float) -> int:
    threshold = math.exp(-lam)
    k, p = 0, 1.0
    while True:
        p *= rng.random()
        if p <= threshold:
            return k
        k += 1


def _weighted(rng: random.Random, weights: dict[str, float]) -> str:
    total = math.fsum(weights.values())
    x = rng.random() * total
    acc = 0.0
    for key, w in weights.items():
        acc += w
        if x < acc:
            return key
    return key  # float fringe


@dataclass
class _User:
    index: int
    user_id: str
    country: str
    zone: str
    offset_seconds: int
    n_logs: int
    statuses_count: int
    age_days: int
    friends_count: int
    presleep_pi: float
    duration_mean: float
    deep_mean: float


@dataclass
class SynthResult:
    tweets: list[RawTweet]
    timelines: list[RawTweet]
    truth: list[dict]
    manifest: dict


def _pick_mean(table: dict[str, float], country: str) -> float:
    return table.get(country, table["*"])


def generate(config: SynthConfig) -> SynthResult:
    """Build a corpus, its user timelines, and per-tweet ground truth."""
    tweets: list[RawTweet] = []
    timelines: list[RawTweet] = []
    truth: list[dict] = []
    counts = Counter(valid=0)
    rates = config.injection_rates
    spam_counter = 0

    def emit(
        tweet: RawTweet, kind: str, reason: RejectReason | None, true_fields: dict | None = None
    ) -> None:
        """Add a corpus tweet and its ground truth: valid when there is no reason to reject it."""
        tweets.append(tweet)
        truth.append({
            "tweet_id": tweet.tweet_id,
            "label": "valid" if reason is None else "invalid",
            "reason": None if reason is None else reason.value,
            "true_fields": true_fields,
        })
        counts[kind] += 1

    for user in _build_users(config):
        rng = _substream(config.seed, "logs", user.index)
        emitted_texts: set[str] = set()
        profile = _profile(user)
        serial = 0

        def next_tweet(text: str, at: datetime) -> RawTweet:
            """The user's next corpus tweet; every kind shares the id serial."""
            nonlocal serial
            serial += 1
            return RawTweet(f"t{user.index:05d}x{serial:04d}", text, at, *profile)

        def timeline(tweet_id: str, k: int, local: datetime) -> None:
            """Add a timeline tweet of the user's, unrelated to sleep, posted at `local` time."""
            text = _TIMELINE_TEMPLATES[k % len(_TIMELINE_TEMPLATES)].format(k=k)
            at = _to_utc(local, user.offset_seconds)
            timelines.append(RawTweet(tweet_id, text, at, *profile))

        night = partial(_night, config, user)
        for _ in range(user.n_logs):
            log = _draw_log(config, user, rng, emitted_texts, night)
            emit(next_tweet(log.text, log.posted), "valid", None, {
                "user_id": user.user_id,
                "country": user.country,
                "start_local": instant_text(log.start_local),
                "end_local": instant_text(log.end_local),
                "duration_minutes": log.duration,
                "deep_sleep_pct": log.deep,
                "notation": log.notation,
                "separator": log.separator,
            })

            # Pre-sleep timeline tweet for this night.
            if rng.random() < user.presleep_pi:
                before = timedelta(minutes=rng.randint(10, 110))
                timeline(f"m{user.index:05d}x{serial:04d}", serial, log.start_local - before)

            # Injections ride along with the valid stream at fixed rates.
            if rng.random() < rates.get("duplicate", 0.0):
                dup_at = log.posted + timedelta(minutes=rng.randint(1, 2880))
                emit(next_tweet(log.text, dup_at), "duplicate", RejectReason.DUPLICATE_CONTENT)
            if rng.random() < rates.get("non_english", 0.0):
                plain = _draw_log(config, user, rng, emitted_texts, night)
                n_text = _fullwidth_digits(plain.text)
                emitted_texts.add(n_text)
                emit(next_tweet(n_text, plain.posted), "non_english",
                     RejectReason.NON_ENGLISH_NOTATION)
            if rng.random() < rates.get("too_short", 0.0):
                short = _draw_log(config, user, rng, emitted_texts, _extreme(10, 119))
                emit(next_tweet(short.text, short.posted), "too_short", RejectReason.TOO_SHORT)
            if rng.random() < rates.get("too_long", 0.0):
                long = _draw_log(config, user, rng, emitted_texts, _extreme(721, 1380))
                emit(next_tweet(long.text, long.posted), "too_long", RejectReason.TOO_LONG)
            if rng.random() < rates.get("spam", 0.0):
                spam_counter += 1
                k = spam_counter % 5
                spam = RawTweet(
                    tweet_id=f"sp{spam_counter:06d}",
                    text=_SPAM_TEMPLATES[spam_counter % len(_SPAM_TEMPLATES)].format(k=spam_counter),
                    created_at=log.posted + timedelta(minutes=rng.randint(-600, 600)),
                    user_id=f"s{k:03d}",
                    screen_name=f"deals{k:03d}",
                    interface_lang="en",
                    bio="offers and opinions",
                    friends_count=13,
                    followers_count=7,
                    statuses_count=99999,
                )
                emit(spam, "spam", RejectReason.NOT_SLEEP_LOG)

        # Background timeline chatter, unrelated to sleep.
        bg_rng = _substream(config.seed, "background", user.index)
        for b in range(_poisson(bg_rng, config.timeline_background_mean)):
            day = bg_rng.randint(0, config.days - 1)
            local = _local(day * DAY_MINUTES + bg_rng.randint(0, DAY_MINUTES - 1))
            timeline(f"b{user.index:05d}x{b:04d}", 1000 + b, local)

    by_time = attrgetter("created_at", "tweet_id")
    tweets.sort(key=by_time)
    timelines.sort(key=by_time)
    counts["tweets_total"] = len(tweets)

    run_id = config.run_id()
    manifest = {
        "run_id": run_id,
        "config": asdict(config),
        "counts": dict(sorted(counts.items())),
        "planted": {
            "start_window_share": config.start_window_share,
            "duration_mean_by_country": dict(DURATION_MEAN_BY_COUNTRY),
            "presleep_quality_delta": config.presleep_quality_delta,
        },
    }
    truth_meta = {"record": "meta", "run_id": run_id}
    return SynthResult(tweets, timelines, [truth_meta] + truth, manifest)


def _build_users(config: SynthConfig) -> list[_User]:
    users = []
    for i in range(config.n_users):
        rng = _substream(config.seed, "user", i)
        bucket = _weighted(rng, COUNTRY_MIX)
        country = bucket if bucket != "other" else OTHER_POOL[int(rng.random() * len(OTHER_POOL)) % len(OTHER_POOL)]
        zone, offset = ZONES_BY_COUNTRY[country][int(rng.random() * len(ZONES_BY_COUNTRY[country])) % len(ZONES_BY_COUNTRY[country])]
        lo, hi = config.logs_per_user_range
        users.append(
            _User(
                index=i,
                user_id=f"u{i:05d}",
                country=country,
                zone=zone,
                offset_seconds=offset,
                n_logs=_log_uniform_int(rng, lo, hi),
                statuses_count=_log_uniform_int(rng, 50, 50_000),
                age_days=rng.randint(300, 2000),
                friends_count=_log_uniform_int(rng, 10, 5_000),
                presleep_pi=rng.uniform(*PRESLEEP_PROB_RANGE),
                duration_mean=_pick_mean(DURATION_MEAN_BY_COUNTRY, country)
                + _gauss(rng) * DURATION_USER_SD,
                deep_mean=_pick_mean(DEEP_MEAN_BY_COUNTRY, country)
                + _gauss(rng) * DEEP_USER_SD,
            )
        )
    for user in users:
        user.deep_mean += config.presleep_quality_delta * user.presleep_pi
    return users


class _Log(NamedTuple):
    """A drawn log: its text, when it was posted (UTC), its local start and end, and its draws."""

    text: str
    posted: datetime
    start_local: datetime
    end_local: datetime
    duration: int
    deep: int | None
    notation: str
    separator: str


def _draw_log(
    config: SynthConfig,
    user: _User,
    rng: random.Random,
    emitted_texts: set[str],
    draw: Callable[[random.Random], tuple],
) -> _Log:
    """A log whose text the user has not tweeted yet; its text is added to `emitted_texts`.

    Each try draws a day, then `draw(rng)` draws what the kind of log varies: start minute,
    duration, deep sleep % (None when absent) and "NOTATION:SEPARATOR".
    """
    for _ in range(200):
        day = rng.randint(0, config.days - 1)
        minute, duration, deep, notation_key = draw(rng)
        notation, separator = notation_key.split(":")
        start = day * DAY_MINUTES + minute
        end = start + duration
        text = sleeplog_text(
            notation, separator, start % DAY_MINUTES, end % DAY_MINUTES, duration, deep
        )
        if text not in emitted_texts:
            emitted_texts.add(text)
            # The app tweets a log 0 to 10 minutes after the wake-up.
            posted = _to_utc(_local(end + rng.randint(0, 10)), user.offset_seconds)
            return _Log(
                text, posted, _local(start), _local(end), duration, deep, notation, separator
            )
    raise RuntimeError("could not draw a unique log fingerprint after 200 tries")


def _night(config: SynthConfig, user: _User, rng: random.Random) -> tuple:
    """The draws of a valid night: the planted start window, duration and deep sleep."""
    window = START_PROFILE.get(user.country, (WINDOW_LO, WINDOW_HI))
    if rng.random() < config.start_window_share:
        minute = rng.randint(window[0], window[1] - 1)
    else:
        minute = rng.randint(3 * 60, WINDOW_LO - 1)

    duration = int(round(user.duration_mean + _gauss(rng) * DURATION_LOG_SD))
    duration = max(125, min(715, duration))

    if rng.random() < config.deep_absent_rate:
        deep = None
    else:
        deep = int(round(user.deep_mean + _gauss(rng) * DEEP_LOG_SD))
        deep = max(0, min(100, deep))
    return minute, duration, deep, _weighted(rng, NOTATION_MIX)


def _extreme(lo: int, hi: int) -> Callable[[random.Random], tuple]:
    """The draws of a grammatical log lasting `lo` to `hi` minutes, a duration filter rejects."""
    return lambda rng: (
        rng.randint(0, DAY_MINUTES - 1), rng.randint(lo, hi), rng.randint(20, 70), "H24:COLON"
    )


def _fullwidth_digits(text: str) -> str:
    return "".join(chr(ord(c) + 0xFEE0) if "0" <= c <= "9" else c for c in text)


def _local(minute: int) -> datetime:
    """Naive local time `minute` minutes after the corpus's first midnight."""
    return _EPOCH + timedelta(minutes=minute)


def _to_utc(local: datetime, offset_seconds: int) -> datetime:
    """The instant naive `local` names at a fixed UTC offset."""
    return (local - timedelta(seconds=offset_seconds)).replace(tzinfo=timezone.utc)


def _profile(user: _User) -> tuple:
    """The RawTweet fields after `created_at` that every tweet of `user` carries."""
    account_created = datetime.combine(
        CORPUS_START - timedelta(days=user.age_days), time(12, 0), tzinfo=timezone.utc
    )
    return (
        user.user_id,
        f"sleeper_{user.index:05d}",
        None,  # location_text
        user.zone,
        user.offset_seconds,
        LANG_BY_COUNTRY[user.country],
        None,  # bio
        user.friends_count,
        user.friends_count // 2,
        user.statuses_count,
        account_created,
    )


def write_corpus(result: SynthResult, out_dir: str) -> dict[str, str]:
    """Write corpus.jsonl, timelines.jsonl, truth.jsonl, synth_manifest.json."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "corpus": os.path.join(out_dir, "corpus.jsonl"),
        "timelines": os.path.join(out_dir, "timelines.jsonl"),
        "truth": os.path.join(out_dir, "truth.jsonl"),
        "manifest": os.path.join(out_dir, "synth_manifest.json"),
    }
    for key, lines in (
        ("corpus", (tweet.to_json() for tweet in result.tweets)),
        ("timelines", (tweet.to_json() for tweet in result.timelines)),
        ("truth", map(_truth_line, result.truth)),
    ):
        with open(paths[key], "w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line + "\n")
    with open(paths["manifest"], "w", encoding="utf-8") as handle:
        json.dump(result.manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return paths


def _truth_line(doc: dict) -> str:
    """`json.dumps(doc, ensure_ascii=True)` for the meta line or a tweet's record of `generate`."""
    if "record" in doc:
        return f'{{"record": {_quoted(doc["record"])}, "run_id": {_quoted(doc["run_id"])}}}'
    true = doc["true_fields"]
    if true is not None:
        true = (
            f'{{"user_id": {_quoted(true["user_id"])}, "country": {_quoted(true["country"])}, '
            f'"start_local": {_quoted(true["start_local"])}, '
            f'"end_local": {_quoted(true["end_local"])}, '
            f'"duration_minutes": {true["duration_minutes"]}, '
            f'"deep_sleep_pct": {_opt_int(true["deep_sleep_pct"])}, '
            f'"notation": {_quoted(true["notation"])}, "separator": {_quoted(true["separator"])}}}'
        )
    return (
        f'{{"tweet_id": {_quoted(doc["tweet_id"])}, "label": {_quoted(doc["label"])}, '
        f'"reason": {_opt_str(doc["reason"])}, "true_fields": {"null" if true is None else true}}}'
    )


# --- Scoring ------------------------------------------------------------------

@dataclass(frozen=True)
class PrecisionRecall:
    precision: float
    recall: float
    n_predicted: int
    n_truth: int


@dataclass
class ScoreReport:
    per_reason: dict[str, PrecisionRecall]
    valid: PrecisionRecall
    per_notation_recall: dict[str, float]
    recovered: dict[str, dict]


def _pr(predicted: set[str], actual: set[str]) -> PrecisionRecall:
    hit = len(predicted & actual)
    return PrecisionRecall(
        precision=hit / len(predicted) if predicted else 1.0,
        recall=hit / len(actual) if actual else 1.0,
        n_predicted=len(predicted),
        n_truth=len(actual),
    )


def score(
    truth_records: list[dict],
    kept_logs: list[SleepLog],
    rejected: dict[str, str],
    planted: dict | None = None,
    pipeline_run_id: str | None = None,
) -> ScoreReport:
    """Compare pipeline decisions against ground truth.

    rejected maps tweet_id -> reason string across all stages.  Any pipeline
    id unknown to the truth set means the corpus and the run do not belong
    together and is fatal, as is a pipeline_run_id other than the run id on
    the truth's meta line.
    """
    truth_by_id: dict[str, dict] = {}
    for record in truth_records:
        if record.get("record") != "meta":
            truth_by_id[record["tweet_id"]] = record
        elif pipeline_run_id is not None and record.get("run_id") != pipeline_run_id:
            raise ValueError(
                f"run id mismatch: truth {record.get('run_id')} vs pipeline {pipeline_run_id}"
            )

    kept_ids = {log.tweet_id for log in kept_logs}
    for tweet_id in list(kept_ids) + list(rejected):
        if tweet_id not in truth_by_id:
            raise ValueError(f"pipeline tweet {tweet_id!r} is not in the ground truth")

    reasons = sorted(
        {r["reason"] for r in truth_by_id.values() if r["reason"]} | set(rejected.values())
    )
    per_reason = {}
    for reason in reasons:
        predicted = {tid for tid, r in rejected.items() if r == reason}
        actual = {tid for tid, r in truth_by_id.items() if r["reason"] == reason}
        per_reason[reason] = _pr(predicted, actual)

    valid_truth = {tid for tid, r in truth_by_id.items() if r["label"] == "valid"}
    valid = _pr(kept_ids, valid_truth)

    notation = {
        tid: "{notation}:{separator}".format(**truth_by_id[tid]["true_fields"])
        for tid in valid_truth
    }
    totals = Counter(notation.values())
    hits = Counter(notation[tid] for tid in valid_truth & kept_ids)
    per_notation = {key: hits[key] / totals[key] for key in sorted(totals)}

    recovered: dict[str, dict] = {}
    if kept_logs:
        in_window = sum(log.start_civil.hour in START_WINDOW_HOURS for log in kept_logs)
        share = in_window / len(kept_logs)
        entry = {"recovered": share}
        if planted and "start_window_share" in planted:
            entry["planted"] = planted["start_window_share"]
            entry["abs_error"] = abs(share - planted["start_window_share"])
        recovered["start_window_share"] = entry

        by_country: dict[str, list[int]] = {}
        for log in kept_logs:
            record = truth_by_id[log.tweet_id]
            if record["true_fields"]:
                by_country.setdefault(record["true_fields"]["country"], []).append(
                    log.duration_minutes
                )
        planted_means = (planted or {}).get("duration_mean_by_country", {})
        for country in sorted(by_country):
            values = by_country[country]
            entry = {"recovered": sum(values) / len(values), "n_logs": len(values)}
            if country in planted_means:
                entry["planted"] = planted_means[country]
                entry["abs_error"] = abs(entry["recovered"] - planted_means[country])
            recovered[f"duration_mean:{country}"] = entry

    return ScoreReport(
        per_reason=per_reason,
        valid=valid,
        per_notation_recall=per_notation,
        recovered=recovered,
    )
