"""Spans recorded around sleeplog's cross-module calls, and their per-layer totals.

``install`` replaces the public functions that ``cli`` and ``analytics`` call
across module boundaries with wrappers that record one span per call: its
name, start, end and the span that was open when it began.  Spans live in
flat arrays in memory and are written once, when the traced command ends.
Span names are ``<layer>.<function>``, where the layer is the sleeplog
module the function belongs to.

A span's self time is its duration minus the durations of its direct
children, so every second of a traced command is counted once, in the
innermost span that was open.
"""

from __future__ import annotations

import pickle
from array import array
from collections import defaultdict
from time import perf_counter

from sleeplog.grammar import SleepLog
from sleeplog.stats import MwuMethod
from workloads import STAGES

LAYERS = ("cli", "records", "grammar", "pipeline", "geo", "analytics", "stats", "svg")

PARSE_OUTCOMES = (
    "H24-COLON", "H24-DOT",
    "H12_AMPM-COLON", "H12_AMPM-DOT",
    "H12_DOTTED_AMPM-COLON", "H12_DOTTED_AMPM-DOT",
    "NOT_SLEEP_LOG", "NON_ENGLISH_NOTATION",
)

_COHORTS = ("country_compare", "activity_cohorts", "friends_split")
_ANALYTICS = (
    "per_user_aggregates", "latest_profiles", "duration_by_start_bin", "wake_heatmap",
    "presleep_activity", "sleep_clock", "frequency_table", "filter_min_logs",
) + _COHORTS
_RENDERERS = ("render_histogram", "render_heatmap", "render_grouped_bars")


def parse_outcome(outcome) -> str:
    """`H24-COLON`-style notation for a SleepLog, the reason for a Rejection."""
    if isinstance(outcome, SleepLog):
        return f"{outcome.notation.value}-{outcome.separator.value}"
    return outcome.reason.value


class Recorder:
    """Spans as parallel arrays, plus labels and counters taken at the same calls."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.labels: dict[int, str] = {}
        self.counters: dict[str, int] = defaultdict(int)
        self._open = [-1]

    def wrap(self, name: str, fn, observe=None):
        """`fn` with a span named `name` around every call.

        `observe(recorder, result)` may return a label for the span.
        """
        nid = len(self.names)
        self.names.append(name)
        ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        open_spans, labels = self._open, self.labels

        def traced(*args, **kwargs):
            idx = len(starts)
            ids.append(nid)
            parents.append(open_spans[-1])
            ends.append(0.0)
            open_spans.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                open_spans.pop()
            if observe is not None:
                label = observe(self, result)
                if label is not None:
                    labels[idx] = label
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "wb") as handle:
            pickle.dump(
                {
                    "names": self.names,
                    "name_id": self.name_id,
                    "parent": self.parent,
                    "start": self.start,
                    "end": self.end,
                    "labels": self.labels,
                    "counters": dict(self.counters),
                },
                handle,
                protocol=pickle.HIGHEST_PROTOCOL,
            )


def _observe_filter(recorder: Recorder, result) -> None:
    kept, rejected = result
    recorder.counters["pipeline.filter.in"] += len(kept) + len(rejected)
    recorder.counters["pipeline.filter.kept"] += len(kept)


def _observe_geo(recorder: Recorder, result) -> None:
    recorder.counters["geo.users"] += len(result)
    recorder.counters["geo.resolved"] += sum(1 for r in result.values() if r.country is not None)


def _observe_mwu(recorder: Recorder, result) -> str | None:
    return "exact" if result.method is MwuMethod.EXACT else None


def install(recorder: Recorder) -> None:
    """Wrap the functions named in the module docstring, in place."""
    from sleeplog import analytics, cli, grammar, records

    def patch(module, attr: str, name: str, observe=None) -> None:
        setattr(module, attr, recorder.wrap(name, getattr(module, attr), observe))

    for stage in STAGES:
        patch(cli, f"do_{stage}", f"cli.{stage}")
    patch(cli, "ingest_file", "records.ingest_file")
    patch(cli, "dedupe", "records.dedupe")
    patch(cli, "parse_tweet", "grammar.parse_tweet", lambda _, r: parse_outcome(r))
    patch(cli, "filter_logs", "pipeline.filter_logs", _observe_filter)
    patch(cli, "resolve_users", "geo.resolve_users", _observe_geo)
    for fn in _ANALYTICS:
        patch(cli, fn, f"analytics.{fn}")
    for fn in _RENDERERS:
        patch(cli, fn, f"svg.{fn}")
    patch(analytics, "presleep_probability", "analytics.presleep_probability")
    patch(analytics, "mann_whitney_u", "stats.mann_whitney_u", _observe_mwu)
    patch(analytics, "pearson", "stats.pearson")

    # Record methods are looked up on the class at every call site.
    for cls, layer in ((records.RawTweet, "records"), (grammar.SleepLog, "grammar")):
        from_record = recorder.wrap(f"{layer}.{cls.__name__}.from_record", cls.from_record)
        cls.from_record = staticmethod(from_record)
    records.RawTweet.to_json = recorder.wrap("records.RawTweet.to_json", records.RawTweet.to_json)
    grammar.SleepLog.to_record = recorder.wrap(
        "grammar.SleepLog.to_record", grammar.SleepLog.to_record
    )


class Totals:
    """Per-name call counts, inclusive and self seconds, summed over trace files."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.label_calls: dict[tuple[str, str], int] = defaultdict(int)
        self.label_total: dict[tuple[str, str], float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)

    def add_file(self, path: str) -> None:
        with open(path, "rb") as handle:
            doc = pickle.load(handle)
        names, name_id, parent = doc["names"], doc["name_id"], doc["parent"]
        duration = [e - s for s, e in zip(doc["start"], doc["end"])]
        child = [0.0] * len(duration)
        for idx, p in enumerate(parent):
            if p >= 0:
                child[p] += duration[idx]
        for idx, nid in enumerate(name_id):
            name = names[nid]
            self.calls[name] += 1
            self.total[name] += duration[idx]
            self.self_time[name] += duration[idx] - child[idx]
        for idx, label in doc["labels"].items():
            key = (names[name_id[idx]], label)
            self.label_calls[key] += 1
            self.label_total[key] += duration[idx]
        for key, value in doc["counters"].items():
            self.counters[key] += value

    def sum_total(self, names) -> float:
        return sum(self.total[n] for n in names)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Totals) -> dict[str, float]:
    """The benchmark's per-layer metrics for one traced pass."""
    m: dict[str, float] = {}
    for stage in STAGES:
        m[f"cli.{stage}.wall_s"] = t.total[f"cli.{stage}"]
        m[f"cli.{stage}.self_s"] = t.self_time[f"cli.{stage}"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in t.self_time.items() if k.split(".", 1)[0] == layer)
    for name in ("records.RawTweet.from_record", "records.RawTweet.to_json",
                 "grammar.SleepLog.from_record", "grammar.SleepLog.to_record",
                 "grammar.parse_tweet", "analytics.presleep_probability",
                 "stats.mann_whitney_u"):
        m[f"{name}.calls"] = t.calls[name]
        m[f"{name}.s"] = t.total[name]
    for name in ("records.ingest_file", "records.dedupe", "analytics.presleep_activity",
                 "analytics.per_user_aggregates", "analytics.latest_profiles",
                 "analytics.duration_by_start_bin", "analytics.wake_heatmap",
                 "stats.pearson", "pipeline.filter_logs", "geo.resolve_users"):
        m[f"{name}.s"] = t.total[name]
    m["analytics.cohorts.s"] = t.sum_total(f"analytics.{fn}" for fn in _COHORTS)
    m["svg.render.s"] = t.sum_total(f"svg.{fn}" for fn in _RENDERERS)
    m["stats.mann_whitney_u.exact_calls"] = t.label_calls[("stats.mann_whitney_u", "exact")]

    parse = "grammar.parse_tweet"
    kept = sum(t.label_calls[(parse, o)] for o in PARSE_OUTCOMES if "-" in o)
    m["grammar.parse.kept_ratio"] = _ratio(kept, t.calls[parse])
    for outcome in PARSE_OUTCOMES:
        key = (parse, outcome)
        if not t.label_calls[key]:
            raise ValueError(f"traced pass saw no {outcome} tweets")
        m[f"grammar.parse_tweet.us.{outcome}"] = 1e6 * t.label_total[key] / t.label_calls[key]
    c = t.counters
    m["pipeline.filter.kept_ratio"] = _ratio(c["pipeline.filter.kept"], c["pipeline.filter.in"])
    m["geo.resolved_ratio"] = _ratio(c["geo.resolved"], c["geo.users"])
    return m
