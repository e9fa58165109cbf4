"""Command-line pipeline driver.

Each stage is a function over in-memory records that also writes its
outputs as plain files.  Each subcommand runs one stage on the files an
earlier stage wrote, so stages can be re-run, diffed, and audited
independently; run-all hands the records from stage to stage in memory:

    ingest  corpus.jsonl      -> tweets.jsonl + profiles.jsonl + ledger.json
    parse   tweets.jsonl      -> logs.jsonl
    filter  logs.jsonl        -> filtered.jsonl
    geo     profiles.jsonl    -> countries.csv
    analyze filtered.jsonl + profiles.jsonl + countries.csv (+ timelines)
                              -> analysis/
    report  analysis/         -> report/*.svg
    funnel  ledger.json       -> funnel.csv
    synth                     -> corpus.jsonl + timelines.jsonl + truth.jsonl
    run-all                   -> everything above in order

A file argument left out is its file above, under --out (`_COMMANDS` says which).

profiles.jsonl holds each user's latest tweet, whose profile fields are all
geo and analyze use; given tweets.jsonl instead, they keep the same tweets.
run-all and parse let go of each tweet once it is parsed.

Every stage writes a manifest holding sha256 digests of its inputs and
outputs plus the effective settings; no timestamps, so byte-identical
inputs always produce byte-identical outputs.  A JSON Lines input is digested
through the handle it is decoded from.  One that a stage wrote (`_WRITERS`),
with the digest its manifest beside it lists, is built without re-checking
each record: the stage that wrote it checked them.

Exit codes: 0 success, 1 operational failure (bad paths, broken data),
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import itertools
import json
import os
import sys
from datetime import datetime
from types import SimpleNamespace
from typing import Iterable, Iterator

from . import __version__
from .config import ConfigError, SETTINGS, config_stamp, load_file, resolve
from .analytics import (
    CohortError,
    UserRecord,
    activity_cohorts,
    country_compare,
    dataset_summary,
    filter_min_logs,
    frequency_table,
    friends_split,
    per_user_aggregates,
    presleep_activity,
    presleep_report,
    duration_by_start_bin,
    sleep_clock,
    wake_heatmap,
)
from .geo import CountryResolution, GeocodeClient, resolve_users
from .grammar import Rejection, SleepLog, parse_tweet, written_log
from .pipeline import FilterConfig, filter_logs
from .records import (
    PipelineLedger,
    RawTweet,
    _shared,
    dedupe,
    ingest_file,
    latest_profiles,
    parse_timestamp,
    utf8_line,
    written_tweet,
)
from .svg import render_grouped_bars, render_heatmap, render_histogram


# --- Small file helpers --------------------------------------------------------

def _sha256(path: str, handle=None) -> str:
    """Digest of a file, read from the start or from where binary `handle`, open on it,
    stands; a pipe would give the empty stream's."""
    if not os.path.isfile(path):
        raise ValueError(f"{path}: not a regular file, so the manifest cannot digest it")
    digest = hashlib.sha256()
    with open(path, "rb") if handle is None else contextlib.nullcontext(handle) as handle:
        # In 64 KiB chunks: reading 1 MiB at a time raised run-all's peak RSS by ~1 MB.
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _prune(out_dir: str, sub_dir: str, written: Iterable[str]) -> None:
    """Delete each file under `out_dir/sub_dir` that is not in `written` (paths
    under `out_dir`) or another stage's temp file, and each directory below it
    that this leaves empty."""
    keep = {os.path.join(out_dir, rel) for rel in written}
    root = os.path.join(out_dir, sub_dir)
    for dirpath, _, filenames in os.walk(root, topdown=False):
        for name in filenames:
            path = os.path.join(dirpath, name)
            if path not in keep and not name.endswith(".tmp"):
                os.remove(path)
        if dirpath != root and not os.listdir(dirpath):
            os.rmdir(dirpath)


def _read_json_object(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict):
        raise ValueError(f"must hold a JSON object, got {type(doc).__name__}")
    return doc


_BAD_INPUT = (  # what a stage input raises that its reader cannot use; one located error
    AssertionError,  # a ledger whose counts do not chain
    AttributeError,  # a JSON value of the wrong type where a string is used, such as a label
    KeyError,  # a missing field
    OverflowError,  # a number too large to convert or to draw
    RecursionError,  # JSON nested too deep to decode
    TypeError,  # a field of the wrong JSON type
    ValueError,  # a value out of range, bad JSON, or a byte that is not UTF-8
)


def _bad_input(where: str, exc: Exception) -> ValueError:
    detail = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
    return ValueError(f"{where}: {detail}")


def _utf8_lines(path: str, handle) -> Iterator[str]:
    """The lines of `handle`, opened with `errors="surrogateescape"`; a byte that is
    not UTF-8 is a ValueError that names its line."""
    for lineno, line in enumerate(handle, start=1):
        try:
            yield utf8_line(line)
        except _BAD_INPUT as exc:
            raise _bad_input(f"{path}:{lineno}", exc) from None


def _read_csv(path: str, columns: list[str], build) -> list:
    """`build(row)` for each row after the optional settings comment and a header that
    holds every one of `columns`; a row with more or fewer fields than the header, or
    one `build` refuses, names its line."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as handle:
        lines = _utf8_lines(path, handle)
        first = next(lines, "")
        skipped = first.startswith("#")
        reader = csv.DictReader(lines if skipped else itertools.chain([first], lines))
        built = []
        try:
            if missing := [c for c in columns if c not in (reader.fieldnames or ())]:
                raise _bad_input(f"{path}:{skipped + 1}", KeyError(missing[0]))
            for row in reader:
                try:  # DictReader files a missing field as None, and extra ones under None
                    if None in row or None in row.values():
                        raise ValueError(
                            f"row does not have its header's {len(reader.fieldnames)} fields")
                    built.append(build(row))
                except _BAD_INPUT as exc:
                    raise _bad_input(f"{path}:{reader.line_num + skipped}", exc) from None
            return built
        except csv.Error as exc:  # a row the reader cannot split, such as an overlong field
            # `reader.line_num` counts rows read whole; its own reader's counts the failing line too.
            raise _bad_input(f"{path}:{reader.reader.line_num + skipped}", exc) from None


# The files stages write from checked records, each by the stage whose manifest lists it.
_WRITERS = {"tweets.jsonl": "ingest", "profiles.jsonl": "ingest", "logs.jsonl": "parse",
            "filtered.jsonl": "filter"}
_read_digests: dict[str, str] = {}  # by path, each file `_each_jsonl` read, for the manifest


def _vouched(path: str, digest: str) -> bool:
    """Whether the manifest beside `path` of its writer, at this version, lists `digest`."""
    name = os.path.basename(path)
    writer = _WRITERS.get(name)
    if writer is None:
        return False
    try:
        doc = _read_json_object(os.path.join(os.path.dirname(path), f"manifest_{writer}.json"))
        return (doc["command"], doc["tool_version"], doc["outputs"][name]) == (
            writer, __version__, digest)
    except (OSError, *_BAD_INPUT):
        return False


def _each_jsonl(path: str, build, written=None) -> Iterator:
    """`build(record)` for each non-blank line of a JSON Lines file, as the file is read;
    a bad record names its line.  The file is digested through the same handle first, so
    its manifest entry names the bytes decoded; if `_vouched` says a stage wrote them,
    `written`, when given, builds the records instead, without checking them."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        _read_digests[path] = digest = _sha256(path, handle.buffer)
        handle.seek(0)
        if written is not None and _vouched(path, digest):
            build = written
        try:
            for lineno, line in enumerate(handle, start=1):
                if line.strip():
                    yield build(json.loads(utf8_line(line)))
        except _BAD_INPUT as exc:
            raise _bad_input(f"{path}:{lineno}", exc) from None


def _read_jsonl(path: str, build, written=None) -> list:
    return list(_each_jsonl(path, build, written))


def _drained(tweets: list[RawTweet]) -> Iterator[RawTweet]:
    """The tweets of `tweets` in order, each slot cleared as its tweet is handed
    out, so the list keeps no tweet its consumer has finished with."""
    for i, tweet in enumerate(tweets):
        tweets[i] = None
        yield tweet


def _read_profiles(path: str) -> dict[str, RawTweet]:
    """Each user's latest tweet in `path`, a `profiles.jsonl` or a whole `tweets.jsonl`."""
    return latest_profiles(_each_jsonl(path, RawTweet.from_record, written_tweet))


def _kept_lines(path: str, logs: list[SleepLog], kept: list[SleepLog]) -> Iterator[str]:
    """The lines of `path` behind `kept`, in file order, each ending in a newline.

    `logs` holds one record per non-blank line of `path`, as `_read_jsonl`
    reads them, and `kept` is an ordered subsequence of `logs`.  Lines stream
    from disk; none is held past its own write.
    """
    wanted = iter(kept)
    want = next(wanted, None)
    n = 0
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            if n < len(logs) and logs[n] is want:
                yield line if line.endswith("\n") else line + "\n"
                want = next(wanted, None)
            n += 1
    if n != len(logs):
        raise ValueError(f"{path}: holds {n} log lines, but {len(logs)} logs were read from it")


def _read_countries(path: str) -> dict[str, CountryResolution]:
    def build(row: dict) -> CountryResolution:
        blanks = {"country": row["country"] or None, "query_text": row["query_text"] or None}
        return CountryResolution.from_record({**row, **blanks})
    return {r.user_id: r for r in _read_csv(path, _COUNTRY_HEADER, build)}


def _timeline_entry(doc: dict) -> tuple[str, datetime]:
    user_id = doc["user_id"]
    if not isinstance(user_id, str) or not user_id:
        raise ValueError(f"user_id must be a non-empty string, got {user_id!r}")
    return _shared(user_id), parse_timestamp(doc["created_at"])


def _read_timelines(path: str) -> dict[str, list[datetime]]:
    # Grouped as the lines stream in, user ids shared: collecting every line's entry
    # first raised run-all's peak RSS by ~0.8 MB on d400.
    timelines: dict[str, list[datetime]] = {}
    for user_id, instant in _each_jsonl(path, _timeline_entry):
        timelines.setdefault(user_id, []).append(instant)
    return timelines


def _load_ledger(out_dir: str) -> PipelineLedger:
    path = os.path.join(out_dir, "ledger.json")
    if not os.path.exists(path):
        return PipelineLedger()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return PipelineLedger.from_json(handle.read())
    except _BAD_INPUT as exc:
        raise _bad_input(path, exc) from None


# --- Stage outputs -------------------------------------------------------------

def _jsonl(records) -> Iterator[str]:
    """One `to_json()` line per record, produced as the file is written."""
    for record in records:
        yield record.to_json() + "\n"


def _csv(stamp: str, header: list[str], rows: list[list]) -> Iterator[str]:
    """One settings comment line, then RFC 4180 fields with LF endings."""
    # `writerow` returns what its file's `write` returns: here, the line itself.
    line = csv.writer(SimpleNamespace(write=lambda text: text), lineterminator="\n").writerow
    yield f"# sleeplog-config: {stamp}\n"
    yield line(header)
    for row in rows:
        yield line(["" if v is None else v for v in row])


def _json(doc: object) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _publish(
    out_dir: str, command: str, inputs: list[str], stamp: str, outputs: dict[str, Iterable[str]]
) -> None:
    """Write a stage's files, then `manifest_<command>.json` over exactly those files.

    `outputs` maps a path under `out_dir` to the file's text: a string or an
    iterable of string chunks.  Every file, the manifest last, is written to
    `<path>.<pid>.tmp`, named for this process so that a stage running beside it
    neither digests nor deletes it; the temp files replace their targets only once
    all are written.  A failed write leaves the previous files and no temp file of its own.
    """
    files = {os.path.join(out_dir, rel): text for rel, text in outputs.items()}
    written = list(files)
    tmp = f".{os.getpid()}.tmp"

    def manifest() -> Iterator[str]:  # drawn last, when every file in `written` is complete
        yield _json({
            "command": command,
            "tool_version": __version__,
            "settings": stamp,
            "inputs": {os.path.basename(p): _read_digests.pop(p, None) or _sha256(p)
                       for p in inputs},
            "outputs": {os.path.basename(p): _sha256(p + tmp) for p in written},
        })

    files[os.path.join(out_dir, f"manifest_{command}.json")] = manifest()
    try:
        for path, text in files.items():
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path + tmp, "w", encoding="utf-8", newline="") as handle:
                handle.writelines([text] if isinstance(text, str) else text)
        for path in files:
            os.replace(path + tmp, path)
    except BaseException:
        for path in files:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path + tmp)
        raise


# --- Stage implementations -----------------------------------------------------

def do_ingest(
    input_path: str, out_dir: str, settings: dict
) -> tuple[str, list[RawTweet], dict[str, RawTweet]]:
    """The kept tweets, and each user's latest of them by user id."""
    ledger = PipelineLedger()
    tweets, bad_lines = ingest_file(input_path)
    ledger.account("ingest", tweets, (r.reason for r in bad_lines))
    tweets, dupes = dedupe(tweets)
    ledger.account("dedupe", tweets, (r.reason for r in dupes))
    profiles = latest_profiles(tweets)

    stamp = config_stamp(settings)
    header = ["stage", "position", "reason", "tweet_id", "detail"]
    rows = [["ingest", r.line_number, r.reason.value, r.tweet_id, r.detail] for r in bad_lines]
    rows += [["dedupe", r.line_number, r.reason.value, r.tweet_id, r.detail] for r in dupes]
    _publish(out_dir, "ingest", [input_path], stamp, {
        "tweets.jsonl": _jsonl(tweets),
        "profiles.jsonl": _jsonl(profiles.values()),
        "ingest_rejects.csv": _csv(stamp, header, rows),
        "ledger.json": ledger.to_json() + "\n",
    })
    message = (
        f"ingest: kept {len(tweets)} tweets "
        f"({len(bad_lines)} malformed, {len(dupes)} duplicates)"
    )
    return message, tweets, profiles


def do_parse(
    tweets: Iterable[RawTweet], tweets_path: str, out_dir: str, settings: dict
) -> tuple[str, list[SleepLog]]:
    """Sleep logs from `tweets`, read once; only each rejected tweet's id is kept."""
    kept: list[SleepLog] = []
    rejected: list[tuple[str, Rejection]] = []
    for tweet in tweets:
        outcome = parse_tweet(tweet, settings["slack_minutes"])
        if isinstance(outcome, Rejection):
            rejected.append((tweet.tweet_id, outcome))
        else:
            kept.append(outcome)

    ledger = _load_ledger(out_dir)
    ledger.account("parse", kept, (r.reason for _, r in rejected))

    stamp = config_stamp(settings)
    rows = [[tweet_id, r.reason.value, *(r.span or (None, None))] for tweet_id, r in rejected]
    _publish(out_dir, "parse", [tweets_path], stamp, {
        "logs.jsonl": _jsonl(kept),
        "parse_rejects.csv": _csv(stamp, ["tweet_id", "reason", "span_lo", "span_hi"], rows),
        "ledger.json": ledger.to_json() + "\n",
    })
    return f"parse: kept {len(kept)} logs, rejected {len(rejected)}", kept


def do_filter(
    logs: list[SleepLog], logs_path: str, out_dir: str, settings: dict
) -> tuple[str, list[SleepLog]]:
    """Plausible logs; `logs` are the records of `logs_path`, whose kept lines are copied."""
    config = FilterConfig(
        min_duration_minutes=settings["min_duration_minutes"],
        max_duration_minutes=settings["max_duration_minutes"],
        require_deep_sleep=settings["require_deep_sleep"],
        require_anchor=settings["require_anchor"],
    )
    ledger = _load_ledger(out_dir)
    kept, rejected = filter_logs(logs, config)
    ledger.account("filter", kept, (r.reason for r in rejected))

    stamp = config_stamp(settings)
    rows = [[r.tweet_id, r.reason.value] for r in rejected]
    _publish(out_dir, "filter", [logs_path], stamp, {
        "filtered.jsonl": _kept_lines(logs_path, logs, kept),
        "filter_rejects.csv": _csv(stamp, ["tweet_id", "reason"], rows),
        "ledger.json": ledger.to_json() + "\n",
    })
    return f"filter: kept {len(kept)} of {len(logs)} logs", kept


def do_geo(
    profiles: dict[str, RawTweet], profiles_path: str, out_dir: str, settings: dict
) -> tuple[str, dict[str, CountryResolution]]:
    """Each user's country, from `profiles`, their latest tweets by user id."""
    client = GeocodeClient(
        base_url=settings["geo_base_url"],
        cache_path=settings["geo_cache"],
        offline=settings["geo_offline"],
    )
    resolutions = resolve_users(profiles, client)  # sorted by user id

    stamp = config_stamp(settings)
    rows = [[r.user_id, r.country, r.method.value, r.query_text] for r in resolutions.values()]
    countries = _csv(stamp, _COUNTRY_HEADER, rows)
    _publish(out_dir, "geo", [profiles_path], stamp, {"countries.csv": countries})

    resolved = sum(1 for r in resolutions.values() if r.country is not None)
    mode = "offline" if settings["geo_offline"] else "online"
    return f"geo: resolved {resolved} of {len(resolutions)} users ({mode})", resolutions


_USER_HEADER = [
    "user_id", "n_logs", "avg_duration_minutes", "avg_deep_sleep_pct",
    "country", "country_method", "tweets_per_day", "friends_count",
    "presleep_tweet_prob",
]
_COUNTRY_HEADER = ["user_id", "country", "method", "query_text"]


def _cohort_or_note(fn, *args, **kwargs) -> dict:
    try:
        return {"report": fn(*args, **kwargs).to_record()}
    except CohortError as exc:
        return {"note": f"not computable: {exc}"}


def _wake_doc(logs: list[SleepLog]) -> dict:
    anchored = [l for l in logs if l.anchored]
    doc = {"n_unanchored_excluded": len(logs) - len(anchored)}
    if anchored:
        doc["heatmap"] = wake_heatmap(anchored).to_record()
    else:
        doc["note"] = "not computable: no anchored logs"
    return doc


def _analysis_bundle(
    bundle_dir: str,
    stamp: str,
    logs: list[SleepLog],
    users: list[UserRecord],
    presleep: tuple[int, str] | None,
) -> dict[str, Iterable[str]]:
    """The bundle of `logs` and their `users`, as `{path under --out: text}`; given timelines,
    `presleep` is `(window_minutes, denominator)` and users carry `presleep_tweet_prob`."""
    users_rows = [[getattr(u, k) for k in _USER_HEADER] for u in users]
    bundle = {
        "users.csv": _csv(stamp, _USER_HEADER, users_rows),
        "frequency.csv": _csv(
            stamp, ["bin_label", "n_users", "percent"],
            [[row.bin_label, row.n_users, row.percent] for row in frequency_table(users)],
        ),
        "summary.json": _json({
            "summary": dataset_summary(logs, users).to_record(),
            "clock": sleep_clock(logs).to_record(),
            "settings": stamp,
        }),
        "start_bins.json": _json(duration_by_start_bin(logs).to_record()),
        "wake_heatmap.json": _json(_wake_doc(logs)),
        "country_duration.json": _json({
            "duration": _cohort_or_note(country_compare, users, "JP", "US", "duration"),
            "deep_sleep": _cohort_or_note(country_compare, users, "JP", "US", "deep_sleep"),
        }),
        "activity.json": _json(_cohort_or_note(activity_cohorts, users, logs)),
        "friends.json": _json(_cohort_or_note(friends_split, users)),
    }
    if presleep is not None:
        bundle["presleep.json"] = _json(presleep_report(users, *presleep).to_record())
    return {os.path.join(bundle_dir, name): text for name, text in bundle.items()}


def do_analyze(
    logs: list[SleepLog],
    profiles: dict[str, RawTweet],
    resolutions: dict[str, CountryResolution],
    timelines: dict[str, list[datetime]] | None,
    inputs: list[str],
    out_dir: str,
    settings: dict,
) -> str:
    """Analysis bundles over filtered logs; `inputs` are the files behind them, logs first.

    `<out_dir>/analysis/` is replaced whole.  Per-user values (aggregates and,
    given timelines, pre-sleep probabilities) are derived once.  The robustness
    bundle is built the same way from those of the users with at least
    `min_logs_per_user` logs, so no timeline is scanned twice.
    """
    if not logs:
        raise ValueError(f"no logs to analyze in {inputs[0]}")
    users = per_user_aggregates(logs, resolutions, profiles)
    presleep = None
    if timelines is not None:
        presleep = (settings["presleep_window_minutes"], settings["presleep_denominator"])
        probabilities = presleep_activity(logs, timelines, *presleep)
        for user in users:
            user.presleep_tweet_prob = probabilities.get(user.user_id)
    stamp = config_stamp(settings)
    outputs = _analysis_bundle("analysis", stamp, logs, users, presleep)

    # Robustness subset: drop casual users, keep everyone else's values.
    min_logs = settings["min_logs_per_user"]
    steady_users = filter_min_logs(users, min_logs)
    if steady_users:
        steady_ids = {u.user_id for u in steady_users}
        steady_logs = [l for l in logs if l.user_id in steady_ids]
        outputs.update(_analysis_bundle(
            os.path.join("analysis", "robustness"), stamp, steady_logs, steady_users, presleep,
        ))

    _publish(out_dir, "analyze", inputs, stamp, outputs)
    _prune(out_dir, "analysis", outputs)  # only once the new files are in place
    return (
        f"analyze: {len(logs)} logs over {len(users)} users; "
        f"robustness subset (>= {min_logs} logs) holds {len(steady_users)} users"
    )


_HOURS = [f"{h:02d}" for h in range(24)]


def _numbers(values, name: str):
    """`values`, a chart's numbers or rows of them, named `name` in an error.

    JSON true and false are refused: arithmetic would draw them as 1 and 0.
    """
    for i, value in enumerate(values):
        if type(value) is list:
            _numbers(value, f"{name}[{i}]")
        elif type(value) is bool:
            raise ValueError(f"{name}[{i}] must be a number, got {json.dumps(value)}")
    return values

# (chart, analysis file, draw).  A lambda looks its renderer up by name when the
# chart is drawn, so a patched renderer is honoured; None means nothing to plot.
_CHARTS = (
    ("clock.svg", "summary.json", lambda doc: render_grouped_bars(
        _HOURS,
        {"fall asleep": _numbers(doc["clock"]["start_hist"], "clock.start_hist"),
         "wake up": _numbers(doc["clock"]["end_hist"], "clock.end_hist")},
        "Sleep clock: share of logs per hour",
    )),
    ("frequency.svg", "frequency.csv", lambda bars: render_histogram(
        [n_users for _, n_users in bars],
        [label for label, _ in bars],
        "Users per log-count bucket",
    )),
    ("start_bins.svg", "start_bins.json", lambda doc: render_heatmap(
        _numbers(doc["matrix"], "matrix"),
        doc["matrix_row_labels"],
        doc["matrix_col_labels"],
        "Duration distribution by start-of-sleep bin",
    )),
    ("wake_heatmap.svg", "wake_heatmap.json", lambda doc: render_heatmap(
        _numbers(doc["heatmap"]["row_normalized"], "heatmap.row_normalized"),
        doc["heatmap"]["row_labels"],
        _HOURS,
        "Wake-up time by day of week",
    ) if "heatmap" in doc else None),
)


def _frequency_bar(row: dict) -> tuple[str, float]:
    """A frequency.csv row's bin label and `n_users`, which must be a non-negative integer."""
    if not (row["n_users"].isascii() and row["n_users"].isdigit()):
        raise ValueError(f"n_users must be a non-negative integer, got {row['n_users']!r}")
    return row["bin_label"], float(int(row["n_users"]))


def do_report(out_dir: str, settings: dict) -> str:
    """Charts drawn from `<out_dir>/analysis/`; `<out_dir>/report/` is replaced whole."""
    analysis_dir = os.path.join(out_dir, "analysis")
    report_dir = os.path.join(out_dir, "report")
    stamp = config_stamp(settings)
    inputs = [os.path.join(analysis_dir, source) for _, source, _ in _CHARTS]
    # Outside the handler below, which would name the file twice: _read_csv names its own lines.
    bars = _read_csv(
        os.path.join(analysis_dir, "frequency.csv"), ["bin_label", "n_users"], _frequency_bar)
    charts = {}
    for (chart, _, draw), path in zip(_CHARTS, inputs):
        try:
            svg = draw(bars if path.endswith(".csv") else _read_json_object(path))
        except _BAD_INPUT as exc:
            raise _bad_input(path, exc) from None
        if svg is not None:
            charts[os.path.join("report", chart)] = svg
    _publish(out_dir, "report", inputs, stamp, charts)
    _prune(out_dir, "report", charts)  # only once the new charts are in place
    return f"report: wrote {len(charts)} charts to {report_dir}"


def do_funnel(out_dir: str, settings: dict) -> str:
    """One row per ledger stage; a stage whose input is not the previous stage's kept is fatal."""
    ledger_path = os.path.join(out_dir, "ledger.json")
    ledger = _load_ledger(out_dir)
    if not ledger.stages:
        raise ValueError(f"no ledger stages recorded in {ledger_path}")
    try:
        ledger.validate_chain()
    except _BAD_INPUT as exc:
        raise _bad_input(ledger_path, exc) from None
    rows = [[s.name, s.input, s.kept, s.distinct_users_kept] for s in ledger.stages]
    stamp = config_stamp(settings)
    header = ["stage", "tweets_in", "tweets_kept", "users_kept"]
    _publish(out_dir, "funnel", [ledger_path], stamp, {"funnel.csv": _csv(stamp, header, rows)})
    lines = [f"{'stage':<10} {'in':>8} {'kept':>8} {'users':>8}"]
    for name, tweets_in, kept, users in rows:
        lines.append(f"{name:<10} {tweets_in:>8} {kept:>8} {users:>8}")
    return "\n".join(lines)


def do_synth(out_dir: str, settings: dict) -> str:
    from .synth import SynthConfig, generate, write_corpus  # only this subcommand needs it

    config = SynthConfig(seed=settings["seed"], n_users=settings["synth_users"])
    result = generate(config)
    paths = write_corpus(result, out_dir)
    counts = result.manifest["counts"]
    return (
        f"synth: run {result.manifest['run_id']}; "
        f"{counts['tweets_total']} tweets ({counts['valid']} valid) -> {paths['corpus']}"
    )


def do_run_all(input_path: str, out_dir: str, settings: dict, timelines_path: str | None) -> str:
    """Every stage in order, each handing its records to the next in memory; only
    each user's latest tweet, all that `geo` and `analyze` use, outlives `parse`."""
    paths = _default_inputs(out_dir)
    ingested, tweets, profiles = do_ingest(input_path, out_dir, settings)
    parsed, logs = do_parse(_drained(tweets), paths["parse"]["input"], out_dir, settings)
    filtered, logs = do_filter(logs, paths["filter"]["input"], out_dir, settings)
    located, resolutions = do_geo(profiles, paths["geo"]["input"], out_dir, settings)
    inputs = [path for path in (*paths["analyze"].values(), timelines_path) if path]
    timelines = _read_timelines(timelines_path) if timelines_path else None
    analyzed = do_analyze(logs, profiles, resolutions, timelines, inputs, out_dir, settings)
    reported, funnel = do_report(out_dir, settings), do_funnel(out_dir, settings)
    return "\n".join([ingested, parsed, filtered, located, analyzed, reported, funnel])


# --- Argument wiring -----------------------------------------------------------

# How argparse reads each kind of setting; a str setting is kept as given.
_SETTING_FLAGS = {bool: {"action": argparse.BooleanOptionalAction}, int: {"type": int}}


def _add_setting_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="key=value settings file")
    for setting in SETTINGS:
        parser.add_argument(
            "--" + setting.name.replace("_", "-"), dest=setting.name, default=None,
            help=setting.help, **_SETTING_FLAGS.get(type(setting.default), {}),
        )


def _settings_from_args(args: argparse.Namespace) -> dict:
    file_values = load_file(args.config) if args.config else None
    return resolve(file_values, {s.name: getattr(args, s.name) for s in SETTINGS})


def _analyze_files(args: argparse.Namespace, settings: dict) -> str:
    countries = args.countries
    if "countries" in args.omitted and not os.path.exists(countries):
        countries = None  # only the default may be absent
    return do_analyze(
        _read_jsonl(args.logs, SleepLog.from_record, written_log),
        _read_profiles(args.tweets),
        _read_countries(countries) if countries else {},
        _read_timelines(args.timelines) if args.timelines else None,
        [path for path in (args.logs, args.tweets, countries, args.timelines) if path],
        args.out, settings,
    )


# Each subcommand: (help, {file argument: the file under --out it reads when omitted, or
# None for no default}, run(args, settings)).  A lambda looks its stage up by name when it
# runs, so a patched stage is honoured.
_COMMANDS = {
    "ingest": ("read raw JSONL, validate, deduplicate", {"input": None},
               lambda a, s: do_ingest(a.input, a.out, s)[0]),
    "parse": ("extract sleep logs from tweets", {"input": "tweets.jsonl"},
              lambda a, s: do_parse(
                  _drained(_read_jsonl(a.input, RawTweet.from_record, written_tweet)),
                  a.input, a.out, s)[0]),
    "filter": ("drop implausible durations", {"input": "logs.jsonl"},
               lambda a, s: do_filter(_read_jsonl(a.input, SleepLog.from_record, written_log),
                                      a.input, a.out, s)[0]),
    "geo": ("resolve users to countries", {"input": "profiles.jsonl"},
            lambda a, s: do_geo(_read_profiles(a.input), a.input, a.out, s)[0]),
    "analyze": ("aggregate users, cohorts, and clocks",
                {"--logs": "filtered.jsonl", "--tweets": "profiles.jsonl",
                 "--countries": "countries.csv", "--timelines": None},
                _analyze_files),
    "report": ("render SVG charts from analysis outputs", {}, lambda a, s: do_report(a.out, s)),
    "funnel": ("summarize per-stage keep/reject counts", {}, lambda a, s: do_funnel(a.out, s)),
    "synth": ("generate a labeled synthetic corpus", {}, lambda a, s: do_synth(a.out, s)),
    "run-all": ("run every stage in order", {"input": None, "--timelines": None},
                lambda a, s: do_run_all(a.input, a.out, s, a.timelines)),
}
_NO_DEFAULT_HELP = {"input": "raw tweet JSONL file", "--timelines": "user timeline JSONL"}


def _default_inputs(out_dir: str) -> dict[str, dict[str, str]]:
    """Per subcommand, the path under `out_dir` of each file argument that has a default."""
    return {
        command: {arg.lstrip("-"): os.path.join(out_dir, f) for arg, f in files.items() if f}
        for command, (_, files, _) in _COMMANDS.items()
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sleeplog",
        description="Collect, parse, and analyze app-generated sleep-log tweets.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, files, run) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--out", default=".", help="output directory (default: .)")
        _add_setting_flags(p)
        for arg, name in files.items():
            p.add_argument(  # an input that has a default may be left out
                arg, nargs="?" if name and not arg.startswith("-") else None,
                help=f"(default: <out>/{name})" if name else _NO_DEFAULT_HELP[arg],
            )
        p.set_defaults(func=run)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _read_digests.clear()  # what an earlier command in this process read is no input here
    defaults = _default_inputs(args.out)[args.command]
    args.omitted = {dest for dest in defaults if not getattr(args, dest)}
    vars(args).update({dest: defaults[dest] for dest in args.omitted})
    try:
        settings = _settings_from_args(args)
        message = args.func(args, settings)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, AssertionError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if message:
        try:
            print(message, flush=True)
        except BrokenPipeError:
            # Nobody reads stdout any more (`| head -1`), but the stage is complete.  Point
            # stdout at os.devnull so that the flush at exit cannot raise again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main())
