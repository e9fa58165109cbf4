"""Command-line pipeline driver.

Each stage is a function over in-memory records that also writes its
outputs as plain files.  Each subcommand runs one stage on the files an
earlier stage wrote, so stages can be re-run, diffed, and audited
independently; run-all hands the records from stage to stage in memory:

    ingest  corpus.jsonl      -> tweets.jsonl + ledger.json
    parse   tweets.jsonl      -> logs.jsonl
    filter  logs.jsonl        -> filtered.jsonl
    geo     tweets.jsonl      -> countries.csv
    analyze (standard files)  -> analysis/
    report  analysis/         -> report/*.svg
    funnel  ledger.json       -> funnel.csv
    synth                     -> corpus.jsonl + timelines.jsonl + truth.jsonl
    run-all                   -> everything above in order

Every stage writes a manifest holding sha256 digests of its inputs and
outputs plus the effective settings; no timestamps, so byte-identical
inputs always produce byte-identical outputs.

Exit codes: 0 success, 1 operational failure (bad paths, broken data),
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from datetime import datetime

from . import __version__
from .config import ConfigError, SETTINGS, config_stamp, load_file, resolve
from .analytics import (
    CohortError,
    activity_cohorts,
    country_compare,
    filter_min_logs,
    frequency_table,
    friends_split,
    per_user_aggregates,
    presleep_activity,
    duration_by_start_bin,
    sleep_clock,
    wake_heatmap,
)
from .geo import CountryResolution, GeocodeClient, GeocodeError, GeocoderConfig, resolve_users
from .grammar import AnchorPolicy, Rejection, SleepLog, parse_tweet
from .pipeline import FilterConfig, filter_logs, summarize_funnel
from .records import (
    IngestError,
    PipelineLedger,
    RawTweet,
    dedupe,
    ingest_file,
    latest_profiles,
    parse_timestamp,
)
from .svg import render_grouped_bars, render_heatmap, render_histogram
from .synth import SynthConfig, generate, write_corpus


# --- Small file helpers --------------------------------------------------------

def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_json(path: str, obj: object) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _write_csv(path: str, stamp: str, header: list[str], rows: list[list]) -> None:
    """RFC 4180 fields with LF endings, preceded by one settings comment line."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(f"# sleeplog-config: {stamp}\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None else v for v in row])


def _read_csv(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        first = handle.readline()
        if not first.startswith("#"):
            handle.seek(0)
        return list(csv.DictReader(handle))


def _manifest(out_dir: str, command: str, inputs: dict, outputs: list[str], stamp: str) -> str:
    doc = {
        "command": command,
        "tool_version": __version__,
        "settings": stamp,
        "inputs": {os.path.basename(p): _sha256(p) for p in inputs},
        "outputs": {os.path.basename(p): _sha256(p) for p in outputs},
    }
    path = os.path.join(out_dir, f"manifest_{command.replace('-', '_')}.json")
    _write_json(path, doc)
    return path


def _read_tweets(path: str) -> list[RawTweet]:
    tweets = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                tweets.append(RawTweet.from_record(json.loads(line)))
    return tweets


def _read_logs(path: str) -> list[SleepLog]:
    logs = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                logs.append(SleepLog.from_record(json.loads(line)))
    return logs


def _write_logs(path: str, logs: list[SleepLog]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for log in logs:
            handle.write(json.dumps(log.to_record(), ensure_ascii=True, sort_keys=True) + "\n")


def _read_countries(path: str) -> dict[str, CountryResolution]:
    out: dict[str, CountryResolution] = {}
    for row in _read_csv(path):
        out[row["user_id"]] = CountryResolution.from_record(
            {
                "user_id": row["user_id"],
                "country": row["country"] or None,
                "method": row["method"],
                "query_text": row["query_text"] or None,
            }
        )
    return out


def _read_timelines(path: str) -> dict[str, list[datetime]]:
    timelines: dict[str, list[datetime]] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            doc = json.loads(line)
            timelines.setdefault(doc["user_id"], []).append(
                parse_timestamp(doc["created_at"])
            )
    return timelines


def _ledger_path(out_dir: str) -> str:
    return os.path.join(out_dir, "ledger.json")


def _load_ledger(out_dir: str) -> PipelineLedger:
    path = _ledger_path(out_dir)
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            return PipelineLedger.from_json(handle.read())
    return PipelineLedger()


def _save_ledger(out_dir: str, ledger: PipelineLedger) -> str:
    path = _ledger_path(out_dir)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(ledger.to_json() + "\n")
    return path


# --- Stage implementations -----------------------------------------------------

def do_ingest(input_path: str, out_dir: str, settings: dict) -> tuple[str, list[RawTweet]]:
    os.makedirs(out_dir, exist_ok=True)
    ledger = PipelineLedger()
    tweets, bad_lines = ingest_file(input_path, ledger)
    tweets, dupes = dedupe(tweets, ledger)

    tweets_path = os.path.join(out_dir, "tweets.jsonl")
    with open(tweets_path, "w", encoding="utf-8") as handle:
        for tweet in tweets:
            handle.write(tweet.to_json() + "\n")

    stamp = config_stamp(settings)
    rejects_path = os.path.join(out_dir, "ingest_rejects.csv")
    rows = [["ingest", r.line_number, r.reason.value, r.tweet_id, r.detail] for r in bad_lines]
    rows += [["dedupe", r.line_number, r.reason.value, r.tweet_id, r.detail] for r in dupes]
    _write_csv(rejects_path, stamp, ["stage", "position", "reason", "tweet_id", "detail"], rows)

    ledger_path = _save_ledger(out_dir, ledger)
    _manifest(out_dir, "ingest", [input_path], [tweets_path, rejects_path, ledger_path], stamp)
    message = (
        f"ingest: kept {len(tweets)} tweets "
        f"({len(bad_lines)} malformed, {len(dupes)} duplicates)"
    )
    return message, tweets


def do_parse(
    tweets: list[RawTweet], tweets_path: str, out_dir: str, settings: dict
) -> tuple[str, list[SleepLog]]:
    os.makedirs(out_dir, exist_ok=True)
    policy = AnchorPolicy(slack_minutes=settings["slack_minutes"])
    kept: list[SleepLog] = []
    reject_rows: list[list] = []
    reasons: dict[str, int] = {}
    for tweet in tweets:
        outcome = parse_tweet(tweet, policy)
        if isinstance(outcome, Rejection):
            reasons[outcome.reason.value] = reasons.get(outcome.reason.value, 0) + 1
            span = outcome.span or (None, None)
            reject_rows.append([tweet.tweet_id, outcome.reason.value, span[0], span[1]])
        else:
            kept.append(outcome)

    ledger = _load_ledger(out_dir)
    ledger.record("parse", len(tweets), len(kept), reasons, len({l.user_id for l in kept}))

    logs_path = os.path.join(out_dir, "logs.jsonl")
    _write_logs(logs_path, kept)
    stamp = config_stamp(settings)
    rejects_path = os.path.join(out_dir, "parse_rejects.csv")
    _write_csv(rejects_path, stamp, ["tweet_id", "reason", "span_lo", "span_hi"], reject_rows)
    ledger_path = _save_ledger(out_dir, ledger)
    _manifest(out_dir, "parse", [tweets_path], [logs_path, rejects_path, ledger_path], stamp)
    return f"parse: kept {len(kept)} logs, rejected {len(reject_rows)}", kept


def do_filter(
    logs: list[SleepLog], logs_path: str, out_dir: str, settings: dict
) -> tuple[str, list[SleepLog]]:
    os.makedirs(out_dir, exist_ok=True)
    config = FilterConfig(
        min_duration_minutes=settings["min_duration_minutes"],
        max_duration_minutes=settings["max_duration_minutes"],
        require_deep_sleep=settings["require_deep_sleep"],
        require_anchor=settings["require_anchor"],
    )
    ledger = _load_ledger(out_dir)
    kept, rejected = filter_logs(logs, config, ledger)

    filtered_path = os.path.join(out_dir, "filtered.jsonl")
    _write_logs(filtered_path, kept)
    stamp = config_stamp(settings)
    rejects_path = os.path.join(out_dir, "filter_rejects.csv")
    _write_csv(
        rejects_path, stamp, ["tweet_id", "reason"],
        [[r.tweet_id, r.reason.value] for r in rejected],
    )
    ledger_path = _save_ledger(out_dir, ledger)
    _manifest(out_dir, "filter", [logs_path], [filtered_path, rejects_path, ledger_path], stamp)
    return f"filter: kept {len(kept)} of {len(logs)} logs", kept


def do_geo(
    tweets: list[RawTweet], tweets_path: str, out_dir: str, settings: dict
) -> tuple[str, dict[str, CountryResolution]]:
    os.makedirs(out_dir, exist_ok=True)
    client = GeocodeClient(
        config=GeocoderConfig(base_url=settings["geo_base_url"]),
        cache_path=settings["geo_cache"],
        offline=settings["geo_offline"],
    )
    resolutions = resolve_users(tweets, client)

    stamp = config_stamp(settings)
    countries_path = os.path.join(out_dir, "countries.csv")
    rows = [
        [r.user_id, r.country, r.method.value, r.query_text]
        for r in (resolutions[u] for u in sorted(resolutions))
    ]
    _write_csv(countries_path, stamp, ["user_id", "country", "method", "query_text"], rows)
    _manifest(out_dir, "geo", [tweets_path], [countries_path], stamp)

    resolved = sum(1 for r in resolutions.values() if r.country is not None)
    mode = "offline" if settings["geo_offline"] else "online"
    return f"geo: resolved {resolved} of {len(resolutions)} users ({mode})", resolutions


def _user_rows(users) -> list[list]:
    return [
        [
            u.user_id, u.n_logs, u.avg_duration_minutes, u.avg_deep_sleep_pct,
            u.country, u.country_method, u.tweets_per_day, u.friends_count,
            u.presleep_tweet_prob,
        ]
        for u in users
    ]


_USER_HEADER = [
    "user_id", "n_logs", "avg_duration_minutes", "avg_deep_sleep_pct",
    "country", "country_method", "tweets_per_day", "friends_count",
    "presleep_tweet_prob",
]


def _cohort_or_note(fn, *args, **kwargs) -> dict:
    try:
        return {"report": fn(*args, **kwargs).to_record()}
    except CohortError as exc:
        return {"note": f"not computable: {exc}"}


def _analysis_bundle(
    out_dir: str,
    stamp: str,
    logs: list[SleepLog],
    users,
    summary,
    settings: dict,
    timelines: dict | None,
) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    outputs = []

    clock = sleep_clock(logs)
    summary_path = os.path.join(out_dir, "summary.json")
    _write_json(
        summary_path,
        {"summary": summary.to_record(), "clock": clock.to_record(), "settings": stamp},
    )
    outputs.append(summary_path)

    presleep = None
    if timelines is not None:
        presleep = presleep_activity(
            logs,
            timelines,
            window_minutes=settings["presleep_window_minutes"],
            denominator=settings["presleep_denominator"],
        )
        by_id = {u.user_id: u for u in users}
        for user_id, prob in presleep.probabilities.items():
            if user_id in by_id:
                by_id[user_id].presleep_tweet_prob = prob

    users_path = os.path.join(out_dir, "users.csv")
    _write_csv(users_path, stamp, _USER_HEADER, _user_rows(users))
    outputs.append(users_path)

    freq_path = os.path.join(out_dir, "frequency.csv")
    _write_csv(
        freq_path, stamp, ["bin_label", "n_users", "percent"],
        [[row.bin_label, row.n_users, row.percent] for row in frequency_table(users)],
    )
    outputs.append(freq_path)

    bins_path = os.path.join(out_dir, "start_bins.json")
    _write_json(bins_path, duration_by_start_bin(logs).to_record())
    outputs.append(bins_path)

    anchored = [l for l in logs if l.anchored]
    heatmap_path = os.path.join(out_dir, "wake_heatmap.json")
    heatmap_doc = {"n_unanchored_excluded": len(logs) - len(anchored)}
    if anchored:
        heatmap_doc["heatmap"] = wake_heatmap(anchored).to_record()
    else:
        heatmap_doc["note"] = "not computable: no anchored logs"
    _write_json(heatmap_path, heatmap_doc)
    outputs.append(heatmap_path)

    country_path = os.path.join(out_dir, "country_duration.json")
    _write_json(
        country_path,
        {
            "duration": _cohort_or_note(country_compare, users, "JP", "US", "duration"),
            "deep_sleep": _cohort_or_note(country_compare, users, "JP", "US", "deep_sleep"),
        },
    )
    outputs.append(country_path)

    activity_path = os.path.join(out_dir, "activity.json")
    _write_json(activity_path, _cohort_or_note(activity_cohorts, users, logs))
    outputs.append(activity_path)

    friends_path = os.path.join(out_dir, "friends.json")
    _write_json(friends_path, _cohort_or_note(friends_split, users))
    outputs.append(friends_path)

    if presleep is not None:
        presleep_path = os.path.join(out_dir, "presleep.json")
        _write_json(presleep_path, presleep.to_record())
        outputs.append(presleep_path)

    return outputs


def do_analyze(
    logs: list[SleepLog],
    profiles: dict[str, RawTweet],
    resolutions: dict[str, CountryResolution],
    timelines: dict[str, list[datetime]] | None,
    inputs: list[str],
    out_dir: str,
    settings: dict,
) -> str:
    """Analysis bundles over filtered logs; `inputs` are the files behind them, logs first."""
    if not logs:
        raise ValueError(f"no logs to analyze in {inputs[0]}")
    users, summary = per_user_aggregates(logs, resolutions, profiles)
    stamp = config_stamp(settings)
    analysis_dir = os.path.join(out_dir, "analysis")
    outputs = _analysis_bundle(analysis_dir, stamp, logs, users, summary, settings, timelines)

    # Robustness re-run: drop casual users, keep everything else identical.
    min_logs = settings["min_logs_per_user"]
    steady_users = filter_min_logs(users, min_logs)
    steady_ids = {u.user_id for u in steady_users}
    steady_logs = [l for l in logs if l.user_id in steady_ids]
    if steady_logs:
        _, steady_summary = per_user_aggregates(steady_logs, resolutions, profiles)
        outputs += _analysis_bundle(
            os.path.join(analysis_dir, "robustness"),
            stamp,
            steady_logs,
            steady_users,
            steady_summary,
            settings,
            timelines,
        )

    _manifest(out_dir, "analyze", inputs, outputs, stamp)
    return (
        f"analyze: {summary.n_logs} logs over {summary.n_users} users; "
        f"robustness subset (>= {min_logs} logs) holds {len(steady_users)} users"
    )


def do_report(out_dir: str, settings: dict) -> str:
    analysis_dir = os.path.join(out_dir, "analysis")
    report_dir = os.path.join(out_dir, "report")
    os.makedirs(report_dir, exist_ok=True)
    stamp = config_stamp(settings)
    outputs = []
    inputs = []

    summary_path = os.path.join(analysis_dir, "summary.json")
    with open(summary_path, "r", encoding="utf-8") as handle:
        clock = json.load(handle)["clock"]
    inputs.append(summary_path)
    hours = [f"{h:02d}" for h in range(24)]
    clock_svg = os.path.join(report_dir, "clock.svg")
    with open(clock_svg, "w", encoding="utf-8") as handle:
        handle.write(
            render_grouped_bars(
                hours,
                {"fall asleep": clock["start_hist"], "wake up": clock["end_hist"]},
                "Sleep clock: share of logs per hour",
            )
        )
    outputs.append(clock_svg)

    freq_path = os.path.join(analysis_dir, "frequency.csv")
    rows = _read_csv(freq_path)
    inputs.append(freq_path)
    freq_svg = os.path.join(report_dir, "frequency.svg")
    with open(freq_svg, "w", encoding="utf-8") as handle:
        handle.write(
            render_histogram(
                [float(r["n_users"]) for r in rows],
                [r["bin_label"] for r in rows],
                "Users per log-count bucket",
            )
        )
    outputs.append(freq_svg)

    bins_path = os.path.join(analysis_dir, "start_bins.json")
    with open(bins_path, "r", encoding="utf-8") as handle:
        bins_doc = json.load(handle)
    inputs.append(bins_path)
    bins_svg = os.path.join(report_dir, "start_bins.svg")
    with open(bins_svg, "w", encoding="utf-8") as handle:
        handle.write(
            render_heatmap(
                bins_doc["matrix"],
                bins_doc["matrix_row_labels"],
                bins_doc["matrix_col_labels"],
                "Duration distribution by start-of-sleep bin",
            )
        )
    outputs.append(bins_svg)

    heatmap_path = os.path.join(analysis_dir, "wake_heatmap.json")
    with open(heatmap_path, "r", encoding="utf-8") as handle:
        heatmap_doc = json.load(handle)
    inputs.append(heatmap_path)
    if "heatmap" in heatmap_doc:
        wake_svg = os.path.join(report_dir, "wake_heatmap.svg")
        with open(wake_svg, "w", encoding="utf-8") as handle:
            handle.write(
                render_heatmap(
                    heatmap_doc["heatmap"]["row_normalized"],
                    heatmap_doc["heatmap"]["row_labels"],
                    hours,
                    "Wake-up time by day of week",
                )
            )
        outputs.append(wake_svg)

    _manifest(out_dir, "report", inputs, outputs, stamp)
    return f"report: wrote {len(outputs)} charts to {report_dir}"


def do_funnel(out_dir: str, settings: dict) -> str:
    ledger = _load_ledger(out_dir)
    if not ledger.stages:
        raise ValueError(f"no ledger stages recorded in {_ledger_path(out_dir)}")
    rows = summarize_funnel(ledger)
    stamp = config_stamp(settings)
    funnel_path = os.path.join(out_dir, "funnel.csv")
    _write_csv(
        funnel_path, stamp, ["stage", "tweets_in", "tweets_kept", "users_kept"],
        [[r.stage, r.tweets_in, r.tweets_kept, r.users_kept] for r in rows],
    )
    _manifest(out_dir, "funnel", [_ledger_path(out_dir)], [funnel_path], stamp)
    lines = [f"{'stage':<10} {'in':>8} {'kept':>8} {'users':>8}"]
    for r in rows:
        lines.append(f"{r.stage:<10} {r.tweets_in:>8} {r.tweets_kept:>8} {r.users_kept:>8}")
    return "\n".join(lines)


def do_synth(out_dir: str, settings: dict) -> str:
    config = SynthConfig(seed=settings["seed"], n_users=settings["synth_users"])
    result = generate(config)
    paths = write_corpus(result, out_dir)
    counts = result.manifest["counts"]
    return (
        f"synth: run {result.manifest['run_id']}; "
        f"{counts['tweets_total']} tweets ({counts['valid']} valid) -> {paths['corpus']}"
    )


def do_run_all(input_path: str, out_dir: str, settings: dict, timelines_path: str | None) -> str:
    """Every stage in order, each handing its records to the next in memory."""
    tweets_path = os.path.join(out_dir, "tweets.jsonl")
    ingested, tweets = do_ingest(input_path, out_dir, settings)
    parsed, logs = do_parse(tweets, tweets_path, out_dir, settings)
    filtered, logs = do_filter(logs, os.path.join(out_dir, "logs.jsonl"), out_dir, settings)
    located, resolutions = do_geo(tweets, tweets_path, out_dir, settings)
    inputs = [os.path.join(out_dir, "filtered.jsonl"), tweets_path]
    inputs.append(os.path.join(out_dir, "countries.csv"))
    timelines = None
    if timelines_path:
        timelines = _read_timelines(timelines_path)
        inputs.append(timelines_path)
    messages = [
        ingested,
        parsed,
        filtered,
        located,
        do_analyze(logs, latest_profiles(tweets), resolutions, timelines, inputs, out_dir, settings),
        do_report(out_dir, settings),
        do_funnel(out_dir, settings),
    ]
    return "\n".join(messages)


# --- Argument wiring -----------------------------------------------------------

def _add_setting_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="key=value settings file")
    for setting in SETTINGS:
        flag = "--" + setting.name.replace("_", "-")
        if setting.kind == "bool":
            parser.add_argument(
                flag, dest=setting.name, action=argparse.BooleanOptionalAction,
                default=None, help=setting.help,
            )
        else:
            kind = int if setting.kind == "int" else (float if setting.kind == "float" else str)
            parser.add_argument(
                flag, dest=setting.name, type=kind, default=None, help=setting.help,
            )


def _settings_from_args(args: argparse.Namespace) -> dict:
    file_values = load_file(args.config) if args.config else None
    flags = {s.name: getattr(args, s.name) for s in SETTINGS if hasattr(args, s.name)}
    return resolve(file_values, None, flags)


def _on_file(stage, reader, default_name: str):
    """A subcommand that reads one stage's input file and runs the stage on it."""
    def run(args: argparse.Namespace, settings: dict) -> str:
        path = args.input or os.path.join(args.out, default_name)
        return stage(reader(path), path, args.out, settings)[0]
    return run


def _analyze_files(args: argparse.Namespace, settings: dict) -> str:
    logs_path = args.logs or os.path.join(args.out, "filtered.jsonl")
    tweets_path = args.tweets or os.path.join(args.out, "tweets.jsonl")
    countries_path = args.countries or os.path.join(args.out, "countries.csv")
    logs, profiles = _read_logs(logs_path), latest_profiles(_read_tweets(tweets_path))
    inputs = [logs_path, tweets_path]
    resolutions = {}
    if os.path.exists(countries_path):
        resolutions = _read_countries(countries_path)
        inputs.append(countries_path)
    timelines = None
    if args.timelines:
        timelines = _read_timelines(args.timelines)
        inputs.append(args.timelines)
    return do_analyze(logs, profiles, resolutions, timelines, inputs, args.out, settings)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sleeplog",
        description="Collect, parse, and analyze app-generated sleep-log tweets.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def stage(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", default=".", help="output directory (default: .)")
        _add_setting_flags(p)
        return p

    p = stage("ingest", "read raw JSONL, validate, deduplicate")
    p.add_argument("input", help="raw tweet JSONL file")
    p.set_defaults(func=lambda a, s: do_ingest(a.input, a.out, s)[0])

    p = stage("parse", "extract sleep logs from tweets.jsonl")
    p.add_argument("input", nargs="?", default=None, help="tweets JSONL (default: <out>/tweets.jsonl)")
    p.set_defaults(func=_on_file(do_parse, _read_tweets, "tweets.jsonl"))

    p = stage("filter", "drop implausible durations")
    p.add_argument("input", nargs="?", default=None, help="logs JSONL (default: <out>/logs.jsonl)")
    p.set_defaults(func=_on_file(do_filter, _read_logs, "logs.jsonl"))

    p = stage("geo", "resolve users to countries")
    p.add_argument("input", nargs="?", default=None, help="tweets JSONL (default: <out>/tweets.jsonl)")
    p.set_defaults(func=_on_file(do_geo, _read_tweets, "tweets.jsonl"))

    p = stage("analyze", "aggregate users, cohorts, and clocks")
    p.add_argument("--logs", default=None, help="filtered logs JSONL")
    p.add_argument("--tweets", default=None, help="tweets JSONL for profiles")
    p.add_argument("--countries", default=None, help="countries CSV")
    p.add_argument("--timelines", default=None, help="user timeline JSONL")
    p.set_defaults(func=_analyze_files)

    p = stage("report", "render SVG charts from analysis outputs")
    p.set_defaults(func=lambda a, s: do_report(a.out, s))

    p = stage("funnel", "summarize per-stage keep/reject counts")
    p.set_defaults(func=lambda a, s: do_funnel(a.out, s))

    p = stage("synth", "generate a labeled synthetic corpus")
    p.set_defaults(func=lambda a, s: do_synth(a.out, s))

    p = stage("run-all", "run every stage in order")
    p.add_argument("input", help="raw tweet JSONL file")
    p.add_argument("--timelines", default=None, help="user timeline JSONL")
    p.set_defaults(func=lambda a, s: do_run_all(a.input, a.out, s, a.timelines))

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings = _settings_from_args(args)
        message = args.func(args, settings)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (IngestError, GeocodeError, OSError, ValueError, AssertionError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if message:
        print(message)
    return 0


if __name__ == "__main__":
    sys.exit(main())
