"""Per-user aggregation and cohort analyses over parsed sleep logs."""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import asdict, dataclass, field
from datetime import datetime, timedelta
from typing import ClassVar, Iterable, Sequence

from .geo import CountryResolution, ResolutionMethod
from .grammar import SleepLog
from .records import RawTweet
from .stats import (
    CorrelationResult,
    DegenerateSampleError,
    TestResult,
    hour_histogram,
    log2_bin,
    LOG2_BIN_LABELS,
    mann_whitney_u,
    pearson,
    quartile_split,
    QUARTILE_LABELS,
)


class CohortError(ValueError):
    """A cohort required by an analysis is empty or too small."""


@dataclass
class UserRecord:
    user_id: str
    n_logs: int
    avg_duration_minutes: float
    avg_deep_sleep_pct: float | None
    country: str | None = None
    country_method: str | None = None
    tweets_per_day: float | None = None
    friends_count: int | None = None
    presleep_tweet_prob: float | None = None


@dataclass(frozen=True)
class DatasetSummary:
    n_logs: int
    n_users: int
    overall_mean_duration: float
    mean_of_user_means_duration: float
    overall_mean_deep: float | None
    mean_of_user_means_deep: float | None

    def to_record(self) -> dict:
        return dict(self.__dict__.items())


@dataclass
class CohortReport:
    """Uniform shape for every grouping analysis.

    group_values hold the raw per-unit metric for each group, in display
    order; the order, sizes and means are derived from them.  matrix (when
    present) is a figure-ready table with labeled rows and columns.
    """

    grouping: str
    group_values: dict[str, list[float]]
    tests: dict[str, TestResult] = field(default_factory=dict)
    matrix: list[list[float]] | None = None
    matrix_row_labels: list[str] | None = None
    matrix_col_labels: list[str] | None = None
    notes: dict[str, str] = field(default_factory=dict)

    @property
    def group_order(self) -> list[str]:
        return list(self.group_values)

    @property
    def group_sizes(self) -> dict[str, int]:
        return {g: len(vs) for g, vs in self.group_values.items()}

    @property
    def group_means(self) -> dict[str, float | None]:
        return {g: math.fsum(vs) / len(vs) if vs else None for g, vs in self.group_values.items()}

    def to_record(self) -> dict:
        return {
            "grouping": self.grouping,
            "group_order": self.group_order,
            "group_sizes": self.group_sizes,
            "group_means": self.group_means,
            "tests": {k: t.to_record() for k, t in self.tests.items()},
            "matrix": self.matrix,
            "matrix_row_labels": self.matrix_row_labels,
            "matrix_col_labels": self.matrix_col_labels,
            "notes": self.notes,
        }


def by_user(logs: Iterable[SleepLog]) -> dict[str, list[SleepLog]]:
    grouped: dict[str, list[SleepLog]] = {}
    for log in logs:
        grouped.setdefault(log.user_id, []).append(log)
    return grouped


def tweets_per_day(profile: RawTweet) -> float | None:
    """Lifetime tweet rate: statuses_count over account age in days.

    Age is measured at the user's last observed tweet and floored at one day
    so brand-new accounts do not explode the rate.
    """
    if profile.statuses_count is None or profile.account_created_at is None:
        return None
    age_days = (profile.created_at - profile.account_created_at).total_seconds() / 86400.0
    return profile.statuses_count / max(1.0, age_days)


def per_user_aggregates(
    logs: Sequence[SleepLog],
    resolutions: dict[str, CountryResolution] | None = None,
    profiles: dict[str, RawTweet] | None = None,
) -> list[UserRecord]:
    """Collapse logs to one record per user, in user id order."""
    resolutions = resolutions or {}
    profiles = profiles or {}
    grouped = by_user(logs)
    users: list[UserRecord] = []
    for user_id in sorted(grouped):
        user_logs = grouped[user_id]
        durations = [l.duration_minutes for l in user_logs]
        deeps = [l.deep_sleep_pct for l in user_logs if l.deep_sleep_pct is not None]
        resolution = resolutions.get(user_id)
        profile = profiles.get(user_id)
        users.append(
            UserRecord(
                user_id=user_id,
                n_logs=len(user_logs),
                avg_duration_minutes=sum(durations) / len(durations),
                avg_deep_sleep_pct=sum(deeps) / len(deeps) if deeps else None,
                country=resolution.country if resolution else None,
                country_method=(
                    resolution.method.value
                    if resolution and resolution.method is not ResolutionMethod.UNRESOLVED
                    else None
                ),
                tweets_per_day=tweets_per_day(profile) if profile else None,
                friends_count=profile.friends_count if profile else None,
            )
        )
    return users


def dataset_summary(logs: Sequence[SleepLog], users: Sequence[UserRecord]) -> DatasetSummary:
    """Corpus-level means of `logs` and of the per-user records built from them.

    The overall mean weights every log equally; the mean of user means
    weights every user equally.  Both are reported because heavy loggers
    pull them apart.
    """
    all_durations = [l.duration_minutes for l in logs]
    all_deeps = [l.deep_sleep_pct for l in logs if l.deep_sleep_pct is not None]
    user_deep_means = [u.avg_deep_sleep_pct for u in users if u.avg_deep_sleep_pct is not None]
    return DatasetSummary(
        n_logs=len(logs),
        n_users=len(users),
        overall_mean_duration=(sum(all_durations) / len(all_durations)) if logs else 0.0,
        mean_of_user_means_duration=(
            math.fsum(u.avg_duration_minutes for u in users) / len(users) if users else 0.0
        ),
        overall_mean_deep=(sum(all_deeps) / len(all_deeps)) if all_deeps else None,
        mean_of_user_means_deep=(
            math.fsum(user_deep_means) / len(user_deep_means) if user_deep_means else None
        ),
    )


def filter_min_logs(users: Sequence[UserRecord], min_logs: int = 5) -> list[UserRecord]:
    return [u for u in users if u.n_logs >= min_logs]


# --- Clock-of-day structure -------------------------------------------------

# The usual start of sleep, [22:00, 03:00), in minutes of the day; past 1440 wraps
# into the next day.  `synth` plants starts in it and scores their recovery.
START_WINDOW = (22 * 60, 27 * 60)
START_WINDOW_HOURS = tuple(h % 24 for h in range(START_WINDOW[0] // 60, START_WINDOW[1] // 60))
END_WINDOW_WIDE = (5, 6, 7, 8, 9)        # [05:00, 10:00)
END_WINDOW_PEAK = (6,)                   # [06:00, 07:00)


@dataclass(frozen=True)
class SleepClockReport:
    start_hist: list[float]
    end_hist: list[float]
    start_share_22_03: float
    end_share_05_10: float
    end_share_06_07: float
    n_logs: int

    def to_record(self) -> dict:
        return dict(self.__dict__.items())


def sleep_clock(logs: Sequence[SleepLog]) -> SleepClockReport:
    """Normalized start/end hour-of-day distributions plus window shares."""
    start_hist = hour_histogram(l.start_civil for l in logs)
    end_hist = hour_histogram(l.end_civil for l in logs)
    return SleepClockReport(
        start_hist=start_hist,
        end_hist=end_hist,
        start_share_22_03=math.fsum(start_hist[h] for h in START_WINDOW_HOURS),
        end_share_05_10=math.fsum(end_hist[h] for h in END_WINDOW_WIDE),
        end_share_06_07=math.fsum(end_hist[h] for h in END_WINDOW_PEAK),
        n_logs=len(logs),
    )


# --- Country comparison ------------------------------------------------------

def _metric_value(user: UserRecord, metric: str) -> float | None:
    if metric == "duration":
        return user.avg_duration_minutes
    if metric == "deep_sleep":
        return user.avg_deep_sleep_pct
    raise ValueError(f"unknown metric: {metric!r}")


def country_compare(
    users: Sequence[UserRecord],
    country_a: str,
    country_b: str | None = None,
    metric: str = "duration",
) -> CohortReport:
    """Compare per-user averages between one country and another (or the rest).

    country_b=None compares against every other resolved country.
    """
    group_a: list[float] = []
    group_b: list[float] = []
    for user in users:
        if user.country is None:
            continue
        value = _metric_value(user, metric)
        if value is None:
            continue
        if user.country == country_a:
            group_a.append(value)
        elif country_b is None or user.country == country_b:
            group_b.append(value)
    label_b = country_b if country_b is not None else "rest"
    if len(group_a) < 2:
        raise CohortError(f"cohort {country_a!r} has {len(group_a)} users; need >= 2")
    if len(group_b) < 2:
        raise CohortError(f"cohort {label_b!r} has {len(group_b)} users; need >= 2")
    test = mann_whitney_u(group_a, group_b)
    return CohortReport(
        grouping=f"country:{country_a}-vs-{label_b}:{metric}",
        group_values={country_a: group_a, label_b: group_b},
        tests={metric: test},
    )


# --- Start-time bins ---------------------------------------------------------

START_BIN_LABELS = (
    "00-03", "03-06", "06-09", "09-12", "12-15", "15-18", "18-21", "21-24",
)
EVENING_BIN = "18-21"
POST_MIDNIGHT_BIN = "00-03"
_DURATION_HIST_HOURS = 14  # duration histogram columns: [0,1), ..., [13,14)


def start_bin_label(moment) -> str:
    return START_BIN_LABELS[moment.hour // 3]


def duration_by_start_bin(logs: Sequence[SleepLog]) -> CohortReport:
    """Duration and deep-sleep structure across eight 3-hour start bins."""
    # The logs' own ints, not float copies: sums, means and ranks come out the same.
    durations: dict[str, list[int]] = {label: [] for label in START_BIN_LABELS}
    deeps: dict[str, list[int]] = {label: [] for label in START_BIN_LABELS}
    for log in logs:
        label = start_bin_label(log.start_civil)
        durations[label].append(log.duration_minutes)
        if log.deep_sleep_pct is not None:
            deeps[label].append(log.deep_sleep_pct)

    matrix = []
    for label in START_BIN_LABELS:
        row = [0.0] * _DURATION_HIST_HOURS
        for value in durations[label]:
            row[min(value // 60, _DURATION_HIST_HOURS - 1)] += 1
        total = math.fsum(row)
        matrix.append([v / total for v in row] if total else row)

    tests: dict[str, TestResult] = {}
    notes: dict[str, str] = {}
    for name, pools in (("duration", durations), ("deep_sleep", deeps)):
        evening = pools[EVENING_BIN]
        post_midnight = pools[POST_MIDNIGHT_BIN]
        if evening and post_midnight:
            tests[name] = mann_whitney_u(evening, post_midnight)
        else:
            notes[name] = (
                f"test skipped: bins {EVENING_BIN} and {POST_MIDNIGHT_BIN} hold "
                f"{len(evening)} and {len(post_midnight)} logs"
            )

    return CohortReport(
        grouping="start-bin",
        group_values=durations,
        tests=tests,
        matrix=matrix,
        matrix_row_labels=list(START_BIN_LABELS),
        matrix_col_labels=[f"{h}h" for h in range(_DURATION_HIST_HOURS)],
        notes=notes,
    )


# --- Wake-up heatmap ---------------------------------------------------------

DAY_LABELS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
WEEKEND_ROWS = (5, 6)


@dataclass(frozen=True)
class WakeHeatmap:
    counts: list[list[int]]          # 7 x 24, rows Monday..Sunday
    row_normalized: list[list[float]]
    row_labels: ClassVar[tuple[str, ...]] = DAY_LABELS
    weekend_rows: ClassVar[tuple[int, ...]] = WEEKEND_ROWS

    def to_record(self) -> dict:
        return {**asdict(self), "row_labels": list(DAY_LABELS), "weekend_rows": list(WEEKEND_ROWS)}


def wake_heatmap(logs: Sequence[SleepLog]) -> WakeHeatmap:
    """Day-of-week x hour wake-up counts; every log must be anchored."""
    counts = [[0] * 24 for _ in range(7)]
    for log in logs:
        if log.end_local is None:
            raise ValueError(f"log {log.tweet_id} is not anchored")
        counts[log.end_local.weekday()][log.end_local.hour] += 1
    normalized = []
    for row in counts:
        total = sum(row)
        normalized.append([v / total for v in row] if total else [0.0] * 24)
    return WakeHeatmap(counts=counts, row_normalized=normalized)


# --- Pre-sleep timeline activity ----------------------------------------------

@dataclass
class PresleepReport:
    correlation: CorrelationResult | None
    cohort: CohortReport | None
    window_minutes: int
    denominator: str
    n_users: int
    notes: dict[str, str] = field(default_factory=dict)

    def to_record(self) -> dict:
        return {
            "correlation": self.correlation.to_record() if self.correlation else None,
            "cohort": self.cohort.to_record() if self.cohort else None,
            "window_minutes": self.window_minutes,
            "denominator": self.denominator,
            "n_users": self.n_users,
            "notes": self.notes,
        }


def presleep_probability(
    user_logs: Sequence[SleepLog],
    timeline: Sequence[datetime],
    window_minutes: int = 120,
    denominator: str = "night",
) -> float | None:
    """Share of nights (or days) with a tweet in the window before sleep."""
    anchored = [l for l in user_logs if l.anchored]
    if not anchored:
        return None
    instants = sorted(timeline)
    window = timedelta(minutes=window_minutes)

    def has_presleep(log: SleepLog) -> bool:
        # first instant at or after the window's start; a hit if it precedes sleep
        try:
            i = bisect_left(instants, log.start_utc - window)
        except OverflowError:  # the window reaches before 0001-01-01: it starts at the first tweet
            i = 0
        return i < len(instants) and instants[i] < log.start_utc

    if denominator == "night":
        hits = sum(1 for log in anchored if has_presleep(log))
        return hits / len(anchored)
    if denominator == "day":
        dates, hit_dates = set(), set()
        for log in anchored:
            day = log.start_local.date()
            dates.add(day)
            if has_presleep(log):
                hit_dates.add(day)
        return len(hit_dates) / len(dates)
    raise ValueError(f"unknown denominator: {denominator!r}")


def presleep_activity(
    logs: Sequence[SleepLog],
    timelines: dict[str, Sequence[datetime]],
    window_minutes: int = 120,
    denominator: str = "night",
) -> dict[str, float]:
    """Each user's pre-sleep probability, by user id.

    Users without any timeline coverage, anchored log or deep-sleep value get
    none: `presleep_report` relates a probability to the user's mean deep sleep.
    """
    probs: dict[str, float] = {}
    for user_id, user_logs in by_user(logs).items():
        if user_id not in timelines:
            continue  # zero timeline coverage
        if all(l.deep_sleep_pct is None for l in user_logs):
            continue
        prob = presleep_probability(user_logs, timelines[user_id], window_minutes, denominator)
        if prob is not None:
            probs[user_id] = prob
    return probs


def presleep_report(
    users: Sequence[UserRecord], window_minutes: int, denominator: str
) -> PresleepReport:
    """Correlate pre-sleep probability with mean deep sleep over the users that carry both.

    The correlation and the top-vs-bottom quartile test are reported as not
    computable when the probabilities carry no variation.
    """
    related = sorted(
        (u for u in users if u.presleep_tweet_prob is not None and u.avg_deep_sleep_pct is not None),
        key=lambda u: u.user_id,
    )
    probs = [u.presleep_tweet_prob for u in related]
    notes: dict[str, str] = {}
    correlation = None
    cohort = None
    if len(related) >= 3:
        try:
            correlation = pearson(probs, [u.avg_deep_sleep_pct for u in related])
        except DegenerateSampleError as exc:
            notes["correlation"] = f"not computable: {exc}"
    else:
        notes["correlation"] = f"not computable: only {len(related)} users"

    varied = len(set(probs)) > 1
    if len(related) >= 4 and varied:
        quartiles = quartile_split({u.user_id: u.presleep_tweet_prob for u in related})
        groups = {
            q: [u.avg_deep_sleep_pct for u in related if quartiles[u.user_id] == q]
            for q in QUARTILE_LABELS
        }
        top, bottom = groups["Q4"], groups["Q1"]
        if top and bottom:
            cohort = CohortReport(
                grouping="presleep-prob-quartile:deep_sleep",
                group_values=groups,
                tests={"deep_sleep_top_vs_bottom": mann_whitney_u(top, bottom)},
            )
        else:
            notes["cohort"] = "not computable: empty extreme quartile"
    elif not varied:
        notes["cohort"] = "not computable: probabilities carry no variation"
    else:
        notes["cohort"] = f"not computable: only {len(related)} users"

    return PresleepReport(
        correlation=correlation,
        cohort=cohort,
        window_minutes=window_minutes,
        denominator=denominator,
        n_users=len(related),
        notes=notes,
    )


# --- Activity cohorts ----------------------------------------------------------

def activity_cohorts(
    users: Sequence[UserRecord],
    logs: Sequence[SleepLog],
    country: str | None = None,
) -> CohortReport:
    """Quartiles of lifetime tweet rate vs sleep timing and duration."""
    eligible = [
        u for u in users
        if u.tweets_per_day is not None and (country is None or u.country == country)
    ]
    if len(eligible) < 4:
        raise CohortError(
            f"need >= 4 users with a tweet rate{' in ' + country if country else ''}, "
            f"got {len(eligible)}"
        )
    rates = {u.user_id: u.tweets_per_day for u in eligible}
    quartiles = quartile_split(rates)
    bin_counts = {label: [0.0] * len(START_BIN_LABELS) for label in QUARTILE_LABELS}
    for log in logs:
        label = quartiles.get(log.user_id)
        if label is not None:
            bin_counts[label][log.start_civil.hour // 3] += 1

    matrix = []
    values: dict[str, list[float]] = {}
    for label, counts in bin_counts.items():
        values[label] = [u.avg_duration_minutes for u in eligible if quartiles[u.user_id] == label]
        total = math.fsum(counts)
        matrix.append([c / total for c in counts] if total else counts)

    tests: dict[str, TestResult] = {}
    notes: dict[str, str] = {}
    if values["Q4"] and values["Q1"]:
        tests["duration_top_vs_bottom"] = mann_whitney_u(values["Q4"], values["Q1"])
    else:
        notes["duration_top_vs_bottom"] = "not computable: empty extreme quartile"

    scope = f":{country}" if country else ""
    return CohortReport(
        grouping=f"tweet-rate-quartile{scope}",
        group_values=values,
        tests=tests,
        matrix=matrix,
        matrix_row_labels=list(QUARTILE_LABELS),
        matrix_col_labels=list(START_BIN_LABELS),
        notes=notes,
    )


# --- Friends median split -------------------------------------------------------

def friends_split(users: Sequence[UserRecord]) -> CohortReport:
    """Median split on friends_count (ties go low) vs average duration."""
    eligible = [u for u in users if u.friends_count is not None]
    if len(eligible) < 4:
        raise CohortError(f"need >= 4 users with friends_count, got {len(eligible)}")
    counts = sorted(u.friends_count for u in eligible)
    median = counts[math.ceil(len(counts) / 2) - 1]
    low = [u.avg_duration_minutes for u in eligible if u.friends_count <= median]
    high = [u.avg_duration_minutes for u in eligible if u.friends_count > median]

    tests: dict[str, TestResult] = {}
    notes: dict[str, str] = {}
    if low and high:
        tests["duration_low_vs_high"] = mann_whitney_u(low, high)
    else:
        notes["duration_low_vs_high"] = (
            "not computable: degenerate split (constant friends_count)"
        )
    return CohortReport(
        grouping=f"friends-median-split(median={median})",
        group_values={"low": low, "high": high},
        tests=tests,
        notes=notes,
    )


# --- Logging-frequency table ------------------------------------------------------

@dataclass(frozen=True)
class FrequencyRow:
    bin_label: str
    n_users: int
    percent: int


def frequency_table(users: Sequence[UserRecord]) -> list[FrequencyRow]:
    """Users per power-of-two bucket of log count, with integer percentages."""
    counts = Counter(log2_bin(user.n_logs) for user in users)
    return [
        FrequencyRow(label, counts[label], round(100 * counts[label] / len(users)))
        for label in LOG2_BIN_LABELS
        if label in counts
    ]
