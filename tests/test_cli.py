"""End-to-end checks for the command-line driver.

Everything runs through main() with an argv list instead of a subprocess,
so monkeypatching and tmp_path behave normally and failures show real
tracebacks.  Only the checks of what a process does at its edges (its imports,
its stdin and stdout) start a fresh interpreter.
"""

from __future__ import annotations

import contextlib
import csv
import errno
import gc
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from collections.abc import Callable
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import sleeplog
from sleeplog import analytics, cli
from sleeplog.config import SETTINGS
from sleeplog.grammar import SleepLog
from sleeplog.records import PipelineLedger, RawTweet, dedupe, ingest, latest_profiles
from sleeplog.synth import score


def tree_hashes(root: Path) -> dict[str, str]:
    """sha256 of every file under root, keyed by relative posix path."""
    out: dict[str, str] = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[path.relative_to(root).as_posix()] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
    return out


def read_stamped_csv(path: Path) -> tuple[str, list[dict]]:
    """Return (comment line, rows) of a CSV written by the tool."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        stamp = handle.readline().rstrip("\n")
        rows = list(csv.DictReader(handle))
    return stamp, rows


def run_all_into(out: Path, corpus_dir: Path, cache: Path, extra: list[str] | None = None) -> int:
    argv = [
        "run-all",
        str(corpus_dir / "corpus.jsonl"),
        "--out",
        str(out),
        "--timelines",
        str(corpus_dir / "timelines.jsonl"),
        "--geo-offline",
        "--geo-cache",
        str(cache),
    ]
    return cli.main(argv + (extra or []))


def stages_into(out: Path, corpus_dir: Path, cache: Path, extra: list[str] | None = None) -> None:
    """The run-all pipeline, one subcommand per stage."""
    common = ["--out", str(out), "--geo-offline", "--geo-cache", str(cache)] + (extra or [])
    for argv in (
        ["ingest", str(corpus_dir / "corpus.jsonl")],
        ["parse"],
        ["filter"],
        ["geo"],
        ["analyze", "--timelines", str(corpus_dir / "timelines.jsonl")],
        ["report"],
        ["funnel"],
    ):
        assert cli.main(argv + common) == 0, argv


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory) -> Path:
    d = tmp_path_factory.mktemp("synth")
    assert cli.main(["synth", "--out", str(d), "--synth-users", "14", "--seed", "77"]) == 0
    return d


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, corpus_dir) -> Path:
    out = tmp_path_factory.mktemp("run")
    cache = tmp_path_factory.mktemp("cache") / "geo_cache.json"
    assert run_all_into(out, corpus_dir, cache) == 0
    return out


# --- synth subcommand ---------------------------------------------------------

def test_synth_writes_the_four_corpus_files(corpus_dir):
    for name in ("corpus.jsonl", "timelines.jsonl", "truth.jsonl", "synth_manifest.json"):
        assert (corpus_dir / name).exists(), name
    first = json.loads((corpus_dir / "truth.jsonl").read_text().splitlines()[0])
    assert first["record"] == "meta"


def test_synth_stdout_reports_counts(tmp_path, capsys):
    assert cli.main(["synth", "--out", str(tmp_path), "--synth-users", "6", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "synth: run" in out
    assert "tweets" in out


def test_synth_seed_changes_output(tmp_path, corpus_dir):
    assert cli.main(["synth", "--out", str(tmp_path), "--synth-users", "14", "--seed", "78"]) == 0
    a = hashlib.sha256((corpus_dir / "corpus.jsonl").read_bytes()).hexdigest()
    b = hashlib.sha256((tmp_path / "corpus.jsonl").read_bytes()).hexdigest()
    assert a != b
    run_a = json.loads((corpus_dir / "synth_manifest.json").read_text())["run_id"]
    run_b = json.loads((tmp_path / "synth_manifest.json").read_text())["run_id"]
    assert run_a != run_b


# --- run-all happy path -------------------------------------------------------

EXPECTED_FILES = [
    "tweets.jsonl",
    "profiles.jsonl",
    "logs.jsonl",
    "filtered.jsonl",
    "countries.csv",
    "ingest_rejects.csv",
    "parse_rejects.csv",
    "filter_rejects.csv",
    "ledger.json",
    "funnel.csv",
    "analysis/summary.json",
    "analysis/users.csv",
    "analysis/frequency.csv",
    "analysis/start_bins.json",
    "analysis/wake_heatmap.json",
    "analysis/country_duration.json",
    "analysis/activity.json",
    "analysis/friends.json",
    "analysis/presleep.json",
    "analysis/robustness/summary.json",
    "report/clock.svg",
    "report/frequency.svg",
    "report/start_bins.svg",
    "manifest_ingest.json",
    "manifest_parse.json",
    "manifest_filter.json",
    "manifest_geo.json",
    "manifest_analyze.json",
    "manifest_report.json",
    "manifest_funnel.json",
]


def test_run_all_writes_every_expected_file(run_dir):
    missing = [name for name in EXPECTED_FILES if not (run_dir / name).exists()]
    assert missing == []


def test_run_all_heatmap_chart_tracks_analysis(run_dir):
    doc = json.loads((run_dir / "analysis" / "wake_heatmap.json").read_text())
    assert ("heatmap" in doc) == (run_dir / "report" / "wake_heatmap.svg").exists()


def test_funnel_stages_chain_without_loss(run_dir):
    _, rows = read_stamped_csv(run_dir / "funnel.csv")
    assert [r["stage"] for r in rows] == ["ingest", "dedupe", "parse", "filter"]
    for prev, cur in zip(rows, rows[1:]):
        assert int(cur["tweets_in"]) == int(prev["tweets_kept"])
    for r in rows:
        assert int(r["tweets_kept"]) <= int(r["tweets_in"])
        assert int(r["users_kept"]) <= int(r["tweets_kept"])


# sha256 of run-all's accounting outputs for the module corpus (synth, 14 users,
# seed 77, default settings); these files hold only integers and strings.
PINNED_ACCOUNTING = {
    "ledger.json": "0a921bcf58bdb9c7e53ee241359576f4f9464605f0c418747958c42e04e4cf4e",
    "funnel.csv": "feb815c160ff61d034648982539e5c49023305e6b9932424188425a13883f6b6",
    "ingest_rejects.csv": "56d3f01d4732da587c81732bd2af6f2d7a1a33d5a99f12ab65a6cd4786c4da6a",
    "parse_rejects.csv": "4587f13c527bd2077bf6a178a1363ed167e891196bdd95f8d2aaea5b55d36d4e",
    "filter_rejects.csv": "6656de7eaf9f039bd2ba3921fd38738ff6ea66ec924b07c462c0a33a29c7cbaa",
    "logs.jsonl": "fa58fda615964f95ad6878c8a5437bd28f81a12ab068005183161a511c49efd6",
    "filtered.jsonl": "c2624f18d3a097ab8704d6193d63db834c16a2cac1a3cd011a1b15f34b35b574",
}


def test_accounting_outputs_are_pinned(run_dir):
    hashes = {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
              for name in PINNED_ACCOUNTING}
    assert hashes == PINNED_ACCOUNTING


def test_ledger_file_balances_each_stage(run_dir):
    ledger = PipelineLedger.from_json((run_dir / "ledger.json").read_text())
    assert [s.name for s in ledger.stages] == ["ingest", "dedupe", "parse", "filter"]
    for stage in ledger.stages:
        assert stage.input - stage.kept == sum(stage.rejected_by_reason.values())


def test_manifest_hashes_match_files_on_disk(run_dir):
    def sha(path: Path) -> str:
        return hashlib.sha256(path.read_bytes()).hexdigest()

    funnel = json.loads((run_dir / "manifest_funnel.json").read_text())
    assert funnel["outputs"]["funnel.csv"] == sha(run_dir / "funnel.csv")
    assert funnel["inputs"]["ledger.json"] == sha(run_dir / "ledger.json")

    report = json.loads((run_dir / "manifest_report.json").read_text())
    for name, digest in report["outputs"].items():
        assert digest == sha(run_dir / "report" / name), name
    for name, digest in report["inputs"].items():
        assert digest == sha(run_dir / "analysis" / name), name

    ingest = json.loads((run_dir / "manifest_ingest.json").read_text())
    assert ingest["outputs"]["tweets.jsonl"] == sha(run_dir / "tweets.jsonl")


def test_manifests_share_structure_and_settings(run_dir):
    stamps = set()
    for path in run_dir.glob("manifest_*.json"):
        doc = json.loads(path.read_text())
        assert set(doc) == {"command", "tool_version", "settings", "inputs", "outputs"}
        stamps.add(doc["settings"])
    assert len(stamps) == 1


def test_csv_files_carry_the_settings_stamp(run_dir):
    for rel in ("funnel.csv", "analysis/users.csv", "countries.csv"):
        stamp, _ = read_stamped_csv(run_dir / rel)
        assert stamp.startswith("# sleeplog-config: "), rel
        assert "min_duration_minutes=120" in stamp
        assert "workers=" not in stamp


def test_report_charts_are_valid_xml(run_dir):
    charts = list((run_dir / "report").glob("*.svg"))
    assert len(charts) >= 3
    for path in charts:
        root = ET.fromstring(path.read_text())
        assert root.tag.endswith("svg")


def test_users_csv_has_expected_columns(run_dir):
    _, rows = read_stamped_csv(run_dir / "analysis" / "users.csv")
    assert rows
    assert list(rows[0]) == [
        "user_id", "n_logs", "avg_duration_minutes", "avg_deep_sleep_pct",
        "country", "country_method", "tweets_per_day", "friends_count",
        "presleep_tweet_prob",
    ]
    assert any(r["presleep_tweet_prob"] != "" for r in rows)


def test_countries_csv_uses_known_methods(run_dir):
    _, rows = read_stamped_csv(run_dir / "countries.csv")
    methods = {r["method"] for r in rows}
    assert methods <= {"TIMEZONE", "GEOCODED_LOCATION", "LANGUAGE_PROXY", "UNRESOLVED"}
    assert rows == sorted(rows, key=lambda r: r["user_id"])


def test_analyze_without_timelines_skips_presleep(tmp_path, run_dir):
    rc = cli.main(
        [
            "analyze",
            "--out", str(tmp_path),
            "--logs", str(run_dir / "filtered.jsonl"),
            "--tweets", str(run_dir / "tweets.jsonl"),
            "--countries", str(run_dir / "countries.csv"),
        ]
    )
    assert rc == 0
    assert not (tmp_path / "analysis" / "presleep.json").exists()
    _, rows = read_stamped_csv(tmp_path / "analysis" / "users.csv")
    assert all(r["presleep_tweet_prob"] == "" for r in rows)


# --- one pass over per-user values --------------------------------------------

def analyze_with_timelines(out: Path, run_dir: Path, corpus_dir: Path) -> int:
    return cli.main(
        [
            "analyze",
            "--out", str(out),
            "--logs", str(run_dir / "filtered.jsonl"),
            "--tweets", str(run_dir / "tweets.jsonl"),
            "--countries", str(run_dir / "countries.csv"),
            "--timelines", str(corpus_dir / "timelines.jsonl"),
        ]
    )


def test_analyze_scans_each_timeline_once(tmp_path, run_dir, corpus_dir, monkeypatch):
    scanned: list[str] = []
    original = analytics.presleep_probability

    def counting(user_logs, timeline, *args, **kwargs):
        scanned.append(user_logs[0].user_id)
        return original(user_logs, timeline, *args, **kwargs)

    monkeypatch.setattr(analytics, "presleep_probability", counting)
    assert analyze_with_timelines(tmp_path, run_dir, corpus_dir) == 0
    logs = cli._read_jsonl(str(run_dir / "filtered.jsonl"), SleepLog.from_record)
    timelines = cli._read_timelines(str(corpus_dir / "timelines.jsonl"))
    covered = {l.user_id for l in logs} & set(timelines)
    assert (tmp_path / "analysis" / "robustness" / "presleep.json").exists()
    assert sorted(scanned) == sorted(covered)


@pytest.mark.parametrize("floor", [5, 10])
@pytest.mark.parametrize("timelines", [False, True])
def test_robustness_bundle_equals_a_fresh_analysis_of_the_subset(
    tmp_path, run_dir, corpus_dir, floor, timelines
):
    """analysis/robustness/ is, byte for byte, what analyze writes over the steady users' lines."""
    lines = (run_dir / "filtered.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    counts: dict[str, int] = {}
    for line in lines:
        user_id = json.loads(line)["user_id"]
        counts[user_id] = counts.get(user_id, 0) + 1
    steady = {u for u, n in counts.items() if n >= floor}
    assert 0 < len(steady) < len(counts)
    subset = tmp_path / "steady.jsonl"
    subset.write_text("".join(l for l in lines if json.loads(l)["user_id"] in steady), "utf-8")

    def analysis_of(logs: Path, out: Path) -> Path:
        argv = ["analyze", "--out", str(out), "--logs", str(logs),
                "--tweets", str(run_dir / "profiles.jsonl"),
                "--countries", str(run_dir / "countries.csv"),
                "--min-logs-per-user", str(floor)]
        assert cli.main(argv + ["--timelines", str(corpus_dir / "timelines.jsonl")] * timelines) == 0
        return out / "analysis"

    robustness = analysis_of(run_dir / "filtered.jsonl", tmp_path / "all") / "robustness"
    fresh = analysis_of(subset, tmp_path / "steady")
    written = {p.name: p.read_bytes() for p in robustness.iterdir()}
    assert written == {p.name: p.read_bytes() for p in fresh.iterdir() if p.is_file()}
    assert ("presleep.json" in written) is timelines


# --- re-running analyze and report --------------------------------------------

def copy_of(run_dir: Path, tmp_path: Path) -> Path:
    out = tmp_path / "out"
    shutil.copytree(run_dir, out)
    return out


def names_under(root: Path) -> set[str]:
    """Basenames of every file under root, as manifests key them."""
    return {path.name for path in root.rglob("*") if path.is_file()}


def test_analyze_without_timelines_leaves_no_earlier_presleep_file(tmp_path, run_dir):
    out = copy_of(run_dir, tmp_path)
    assert (out / "analysis" / "robustness" / "presleep.json").exists()
    assert cli.main(["analyze", "--out", str(out)]) == 0
    assert not (out / "analysis" / "presleep.json").exists()
    assert not (out / "analysis" / "robustness" / "presleep.json").exists()
    manifest = json.loads((out / "manifest_analyze.json").read_text())
    assert names_under(out / "analysis") == set(manifest["outputs"])


def test_analyze_with_no_steady_user_leaves_no_earlier_robustness_bundle(tmp_path, run_dir):
    out = copy_of(run_dir, tmp_path)
    assert (out / "analysis" / "robustness").is_dir()
    assert cli.main(["analyze", "--out", str(out), "--min-logs-per-user", "1000"]) == 0
    assert not (out / "analysis" / "robustness").exists()


def test_report_without_a_heatmap_leaves_no_earlier_wake_chart(tmp_path, run_dir):
    out = copy_of(run_dir, tmp_path)
    assert (out / "report" / "wake_heatmap.svg").exists()
    unanchored = tmp_path / "unanchored.jsonl"
    with open(unanchored, "w", encoding="utf-8") as handle:
        for line in (run_dir / "filtered.jsonl").read_text().splitlines():
            doc = json.loads(line)
            doc.update(start_local=None, end_local=None, start_utc=None, end_utc=None)
            handle.write(json.dumps(doc) + "\n")
    assert cli.main(["analyze", "--out", str(out), "--logs", str(unanchored)]) == 0
    assert cli.main(["report", "--out", str(out)]) == 0
    assert not (out / "report" / "wake_heatmap.svg").exists()
    manifest = json.loads((out / "manifest_report.json").read_text())
    assert names_under(out / "report") == set(manifest["outputs"])


def test_failed_report_keeps_the_earlier_charts(tmp_path, run_dir, capsys):
    out = copy_of(run_dir, tmp_path)
    before = tree_hashes(out / "report")
    assert "wake_heatmap.svg" in before
    (out / "analysis" / "wake_heatmap.json").unlink()
    assert cli.main(["report", "--out", str(out)]) == 1
    assert "wake_heatmap.json" in capsys.readouterr().err
    assert tree_hashes(out / "report") == before


def _summary_without_clock(analysis: Path) -> tuple[Path, str]:
    path = analysis / "summary.json"
    doc = json.loads(path.read_text())
    del doc["clock"]
    path.write_text(json.dumps(doc))
    return path, "missing field 'clock'"


def _frequency_without_n_users(analysis: Path) -> tuple[str, str]:
    path = analysis / "frequency.csv"
    stamp, rows = read_stamped_csv(path)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(stamp + "\n")
        writer = csv.DictWriter(handle, ["bin_label", "percent"], extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
    return f"{path}:2", "missing field 'n_users'"  # located at the header, after the comment


def _frequency_with_n_users(value: str, detail: str):
    """A frequency.csv whose first row (line 3) has `n_users` `value`."""
    def make(analysis: Path) -> tuple[str, str]:
        path = analysis / "frequency.csv"
        stamp, rows = read_stamped_csv(path)
        rows[0]["n_users"] = value
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(stamp + "\n")
            writer = csv.DictWriter(handle, list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        return f"{path}:3", detail
    return make


def _frequency_with_its_last_row_cut(fields: int):
    """A frequency.csv that ends after the first `fields` fields of its last row."""
    def make(analysis: Path) -> tuple[str, str]:
        path = analysis / "frequency.csv"
        lines = path.read_text().splitlines()
        lines[-1] = ",".join(lines[-1].split(",")[:fields])
        path.write_text("\n".join(lines))
        return f"{path}:{len(lines)}", "row does not have its header's 3 fields"
    return make


def _frequency_empty(analysis: Path) -> tuple[str, str]:
    path = analysis / "frequency.csv"
    path.write_bytes(b"")
    return f"{path}:1", "missing field 'bin_label'"


def _start_bins_not_json(analysis: Path) -> tuple[Path, str]:
    path = analysis / "start_bins.json"
    path.write_text("start bins\n")
    return path, "Expecting value: line 1 column 1 (char 0)"


def _wake_heatmap_a_list(analysis: Path) -> tuple[Path, str]:
    path = analysis / "wake_heatmap.json"
    path.write_text('{"heatmap": []}\n')
    return path, "list indices must be integers or slices, not str"


def _wake_heatmap_not_an_object(analysis: Path) -> tuple[Path, str]:
    path = analysis / "wake_heatmap.json"
    path.write_text("[]\n")
    return path, "must hold a JSON object, got list"


def _start_bins_nested_too_deep(analysis: Path) -> tuple[Path, str]:
    path = analysis / "start_bins.json"
    path.write_text(NESTED)
    return path, _nested_json_detail()


def _start_bins_with_an_integer_row_label(analysis: Path) -> tuple[Path, str]:
    path = analysis / "start_bins.json"
    doc = json.loads(path.read_text())
    doc["matrix_row_labels"][0] = 0
    path.write_text(json.dumps(doc))
    return path, "'int' object has no attribute 'replace'"


def _summary_with_a_huge_clock_value(analysis: Path) -> tuple[Path, str]:
    path = analysis / "summary.json"
    doc = json.loads(path.read_text())
    doc["clock"]["start_hist"][0] = int("9" * 400)
    path.write_text(json.dumps(doc))
    return path, "int too large to convert to float"


def _with_booleans(name: str, values: Callable[[dict], list], detail: str):
    """Set the first two values `values(doc)` of `name` draws to JSON true and false."""
    def break_analysis(analysis: Path) -> tuple[Path, str]:
        path = analysis / name
        doc = json.loads(path.read_text())
        values(doc)[:2] = [True, False]
        path.write_text(json.dumps(doc))
        return path, detail
    return break_analysis


@pytest.mark.parametrize("break_analysis", [
    _summary_without_clock, _frequency_without_n_users, _start_bins_not_json, _wake_heatmap_a_list,
    _wake_heatmap_not_an_object, _start_bins_nested_too_deep, _start_bins_with_an_integer_row_label,
    _summary_with_a_huge_clock_value, _frequency_empty,
    *(pytest.param(_frequency_with_n_users(value, detail), id=f"n_users-{case}")
      for case, value, detail in [
          ("inf", "inf", "n_users must be a non-negative integer, got 'inf'"),
          ("negative", "-5", "n_users must be a non-negative integer, got '-5'"),
          ("exponent", "1e3", "n_users must be a non-negative integer, got '1e3'"),
          ("400-digits", "9" * 400, "int too large to convert to float"),
      ]),
    pytest.param(_frequency_with_its_last_row_cut(1), id="n_users-row-cut-to-one-field"),
    pytest.param(_frequency_with_its_last_row_cut(2), id="percent-row-cut-to-two-fields"),
    *(pytest.param(_with_booleans(name, values, detail), id=f"booleans-in-{name}")
      for name, values, detail in [
          ("summary.json", lambda doc: doc["clock"]["start_hist"],
           "clock.start_hist[0] must be a number, got true"),
          ("start_bins.json", lambda doc: doc["matrix"][1],
           "matrix[1][0] must be a number, got true"),
          ("wake_heatmap.json", lambda doc: doc["heatmap"]["row_normalized"][6],
           "heatmap.row_normalized[6][0] must be a number, got true"),
      ]),
])
def test_report_on_a_malformed_analysis_file_is_a_located_error(
    tmp_path, run_dir, capsys, break_analysis
):
    out = copy_of(run_dir, tmp_path)
    before = tree_hashes(out / "report")
    manifest = (out / "manifest_report.json").read_bytes()
    path, detail = break_analysis(out / "analysis")
    assert cli.main(["report", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {path}: {detail}\n"
    assert tree_hashes(out / "report") == before
    assert (out / "manifest_report.json").read_bytes() == manifest


def _disk_full() -> OSError:
    return OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_failed_write_replaces_none_of_the_stage_files(tmp_path, run_dir, monkeypatch, capsys):
    out = copy_of(run_dir, tmp_path)
    names = ("filtered.jsonl", "filter_rejects.csv", "ledger.json", "manifest_filter.json")
    before = {name: (out / name).read_bytes() for name in names}
    copy_lines = cli._kept_lines

    def lines_until_the_disk_fills(*args):
        for n, line in enumerate(copy_lines(*args), start=1):
            if n == 100:
                raise _disk_full()
            yield line

    monkeypatch.setattr(cli, "_kept_lines", lines_until_the_disk_fills)
    assert cli.main(["filter", "--out", str(out)]) == 1
    assert os.strerror(errno.ENOSPC) in capsys.readouterr().err
    assert {name: (out / name).read_bytes() for name in names} == before
    assert not list(out.rglob("*.tmp"))


def fill_the_disk_on_the_last_file(monkeypatch) -> None:
    """`_publish` fails once the last file it is given is written, before its manifest."""
    publish = cli._publish

    def publish_until_the_disk_fills(out_dir, command, inputs, stamp, outputs):
        *_, last = outputs

        def then_fail(text):
            yield from [text] if isinstance(text, str) else text
            raise _disk_full()

        return publish(out_dir, command, inputs, stamp, {**outputs, last: then_fail(outputs[last])})

    monkeypatch.setattr(cli, "_publish", publish_until_the_disk_fills)


@pytest.mark.parametrize("stage, directory", [("analyze", "analysis"), ("report", "report")])
def test_failed_write_keeps_the_earlier_directory(
    tmp_path, run_dir, monkeypatch, capsys, stage, directory
):
    out = copy_of(run_dir, tmp_path)
    before = tree_hashes(out / directory)
    manifest = (out / f"manifest_{stage}.json").read_bytes()
    fill_the_disk_on_the_last_file(monkeypatch)
    assert cli.main([stage, "--out", str(out)]) == 1
    assert os.strerror(errno.ENOSPC) in capsys.readouterr().err
    assert tree_hashes(out / directory) == before
    assert (out / f"manifest_{stage}.json").read_bytes() == manifest
    assert not list(out.rglob("*.tmp"))


# --- filter copies the lines it keeps ------------------------------------------

def test_filtered_lines_are_the_kept_lines_of_the_logs_file(run_dir):
    _, rejects = read_stamped_csv(run_dir / "filter_rejects.csv")
    dropped = {r["tweet_id"] for r in rejects}
    assert dropped
    lines = (run_dir / "logs.jsonl").read_bytes().splitlines(keepends=True)
    kept = [line for line in lines if json.loads(line)["tweet_id"] not in dropped]
    assert (run_dir / "filtered.jsonl").read_bytes() == b"".join(kept)


def test_filter_copies_hand_edited_lines_verbatim(tmp_path, run_dir):
    lines = (run_dir / "logs.jsonl").read_text().splitlines(keepends=True)
    docs = [json.loads(line) for line in lines]

    def plausible(doc: dict) -> bool:
        return 120 <= doc["duration_minutes"] <= 720

    last = max(i for i, doc in enumerate(docs) if plausible(doc))
    lines, docs = lines[:last + 1], docs[:last + 1]
    first = next(i for i, doc in enumerate(docs) if plausible(doc))
    assert first < last
    canonical = tmp_path / "canonical" / "logs.jsonl"
    canonical.parent.mkdir()
    canonical.write_text("".join(lines))

    reordered = json.dumps(dict(reversed(docs[first].items())), separators=(" ,  ", " : "))
    unterminated = lines[last].rstrip("\n")
    edited_lines = [*lines[:first], reordered + "\n", "  \n", *lines[first + 1:last], unterminated]
    edited = tmp_path / "edited" / "logs.jsonl"
    edited.parent.mkdir()
    edited.write_text("".join(edited_lines))

    for path in (canonical, edited):
        assert cli.main(["filter", str(path), "--out", str(path.parent)]) == 0
    expected = [line if line.endswith("\n") else line + "\n"
                for line in edited_lines if line.strip() and plausible(json.loads(line))]
    assert (edited.parent / "filtered.jsonl").read_text() == "".join(expected)
    assert reordered + "\n" in expected and expected[-1] == unterminated + "\n"

    def filter_entry(out: Path):
        ledger = PipelineLedger.from_json((out / "ledger.json").read_text())
        return [stage for stage in ledger.stages if stage.name == "filter"]

    assert filter_entry(edited.parent) == filter_entry(canonical.parent) != []
    argv = ["analyze", "--out", str(edited.parent), "--tweets", str(run_dir / "tweets.jsonl")]
    assert cli.main(argv) == 0


def test_logs_file_that_changes_after_it_is_read_is_an_error(tmp_path, run_dir, monkeypatch, capsys):
    logs = tmp_path / "logs.jsonl"
    shutil.copy(run_dir / "logs.jsonl", logs)
    n = len(logs.read_text().splitlines())
    read = cli._read_jsonl

    def read_then_append(path, *builders):
        records = read(path, *builders)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(logs.read_text().splitlines(keepends=True)[0])
        return records

    monkeypatch.setattr(cli, "_read_jsonl", read_then_append)
    out = tmp_path / "out"
    assert cli.main(["filter", str(logs), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {logs}: holds {n + 1} log lines, but {n} logs were read from it\n"
    )
    assert not out.exists() or not list(out.iterdir())


# --- determinism --------------------------------------------------------------

def test_repeat_runs_are_byte_identical(tmp_path, corpus_dir, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_all_into(a, corpus_dir, tmp_path / "cache_a.json") == 0
    assert run_all_into(b, corpus_dir, tmp_path / "cache_b.json") == 0
    assert tree_hashes(a) == tree_hashes(b)
    out = capsys.readouterr().out
    assert "ingest: kept" in out
    assert "parse: kept" in out


def test_stage_by_stage_matches_run_all(tmp_path, corpus_dir, run_dir):
    stages_into(tmp_path / "s", corpus_dir, tmp_path / "cache_s.json")
    assert tree_hashes(tmp_path / "s") == tree_hashes(run_dir)


def test_day_denominator_gives_the_same_tree_stage_by_stage(tmp_path, corpus_dir):
    day = ["--presleep-denominator", "day"]
    assert run_all_into(tmp_path / "all", corpus_dir, tmp_path / "cache_a.json", day) == 0
    stages_into(tmp_path / "s", corpus_dir, tmp_path / "cache_s.json", day)
    assert tree_hashes(tmp_path / "s") == tree_hashes(tmp_path / "all")
    presleep = json.loads((tmp_path / "all" / "analysis" / "presleep.json").read_text())
    assert presleep["denominator"] == "day"


def live_tweets() -> int:
    """How many `RawTweet`s are still reachable."""
    gc.collect()
    return sum(type(o) is RawTweet for o in gc.get_objects())


def counting_live_tweets(monkeypatch, name: str) -> list[int]:
    """Patch `cli.<name>` to note `live_tweets()` on each call; the notes, as made."""
    counts, real = [], getattr(cli, name)

    def counted(*args, **kwargs):
        counts.append(live_tweets())
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, counted)
    return counts


def test_run_all_holds_only_the_latest_profiles_after_parse(tmp_path, corpus_dir, monkeypatch):
    counts = counting_live_tweets(monkeypatch, "do_filter")
    before = live_tweets()
    assert run_all_into(tmp_path / "out", corpus_dir, tmp_path / "cache.json") == 0
    with open(tmp_path / "out" / "tweets.jsonl", encoding="utf-8") as handle:
        users = {json.loads(line)["user_id"] for line in handle}
    assert len(counts) == 1
    assert counts[0] - before <= len(users)


def test_parse_lets_go_of_each_tweet_once_it_is_parsed(tmp_path, run_dir, monkeypatch):
    counts = counting_live_tweets(monkeypatch, "_load_ledger")  # do_parse's, after its loop
    out = copy_of(run_dir, tmp_path)
    before = live_tweets()
    # --geo-offline, as run_dir was made, so that the settings stamps match.
    assert cli.main(["parse", "--out", str(out), "--geo-offline"]) == 0
    assert len(counts) == 1
    assert counts[0] - before <= 1
    for name in ("logs.jsonl", "parse_rejects.csv"):
        assert (out / name).read_bytes() == (run_dir / name).read_bytes()


def test_rerun_stage_keeps_the_ledger_chain(tmp_path, corpus_dir):
    funnels = []
    for name, parses in (("once", 1), ("twice", 2)):
        out = str(tmp_path / name)
        assert cli.main(["ingest", str(corpus_dir / "corpus.jsonl"), "--out", out]) == 0
        for _ in range(parses):
            assert cli.main(["parse", "--out", out]) == 0
        assert cli.main(["funnel", "--out", out]) == 0
        funnels.append((tmp_path / name / "funnel.csv").read_bytes())
    assert funnels[0] == funnels[1]
    stages = json.loads((tmp_path / "twice" / "ledger.json").read_text())["stages"]
    assert [s["name"] for s in stages] == ["ingest", "dedupe", "parse"]


def test_geo_rerun_is_byte_identical(tmp_path, run_dir):
    first, second = tmp_path / "g1", tmp_path / "g2"
    for out in (first, second):
        rc = cli.main(
            [
                "geo",
                str(run_dir / "tweets.jsonl"),
                "--out", str(out),
                "--geo-offline",
                "--geo-cache", str(tmp_path / "cache.json"),
            ]
        )
        assert rc == 0
    assert tree_hashes(first) == tree_hashes(second)


# --- the analysis depends on the tweet set, not on the corpus's line order -----

def scored_run(corpus_dir: Path, out: Path):
    """`synth.score` of the run-all tree `out` against the truth of `corpus_dir`."""
    rejected = {}
    for name in ("ingest_rejects.csv", "parse_rejects.csv", "filter_rejects.csv"):
        _, rows = read_stamped_csv(out / name)
        rejected.update({row["tweet_id"]: row["reason"] for row in rows if row["tweet_id"]})
    kept = cli._read_jsonl(str(out / "filtered.jsonl"), SleepLog.from_record)
    truth = [json.loads(line) for line in (corpus_dir / "truth.jsonl").read_text().splitlines()]
    return score(truth, kept, rejected)


@pytest.fixture(scope="module", params=["reversed", "shuffled"])
def reordered_run(request, tmp_path_factory, corpus_dir) -> Path:
    """run-all over the corpus of `corpus_dir` with its lines in another order."""
    lines = (corpus_dir / "corpus.jsonl").read_text().splitlines(keepends=True)
    if request.param == "reversed":
        lines.reverse()
    else:
        random.Random(5).shuffle(lines)
    d = tmp_path_factory.mktemp(request.param)
    (d / "corpus.jsonl").write_text("".join(lines))
    shutil.copy(corpus_dir / "timelines.jsonl", d)
    assert run_all_into(d / "out", d, d / "cache.json") == 0
    return d / "out"


def test_a_reordered_corpus_scores_every_reason_perfectly(corpus_dir, run_dir, reordered_run):
    for out in (run_dir, reordered_run):
        report = scored_run(corpus_dir, out)
        assert report.per_reason["DUPLICATE_CONTENT"].n_truth > 0
        for name, pr in [("valid", report.valid), *report.per_reason.items()]:
            assert (name, pr.precision, pr.recall) == (name, 1.0, 1.0)


def test_a_reordered_corpus_gives_the_same_analysis(run_dir, reordered_run):
    for tree in ("analysis", "report"):
        expected = tree_hashes(run_dir / tree)
        assert expected and tree_hashes(reordered_run / tree) == expected, tree
    assert (reordered_run / "countries.csv").read_bytes() == (run_dir / "countries.csv").read_bytes()


def test_a_corpus_read_twice_moves_only_the_accounting_files(tmp_path, corpus_dir, run_dir):
    text = (corpus_dir / "corpus.jsonl").read_text()
    (tmp_path / "corpus.jsonl").write_text(text + text)
    shutil.copy(corpus_dir / "timelines.jsonl", tmp_path)
    assert run_all_into(tmp_path / "out", tmp_path, tmp_path / "cache.json") == 0
    once, twice = tree_hashes(run_dir), tree_hashes(tmp_path / "out")
    assert twice.keys() == once.keys()
    assert {name for name in once if twice[name] != once[name]} == {
        "ingest_rejects.csv", "ledger.json", "funnel.csv",
        "manifest_ingest.json", "manifest_parse.json", "manifest_filter.json",
        "manifest_funnel.json",
    }


# --- the subcommand table -----------------------------------------------------

SUBCOMMANDS = ("ingest", "parse", "filter", "geo", "analyze", "report", "funnel", "synth", "run-all")


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_help_names_the_default_of_each_input(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main([command, "--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    for arg, name in cli._COMMANDS[command][1].items():
        assert arg in out
        if name is not None:
            assert f"<out>/{name}" in out, arg


def test_the_module_docstring_names_each_default_input():
    lines = cli.__doc__.splitlines()
    for command, (_, files, _) in cli._COMMANDS.items():
        line = next(line for line in lines if line.startswith(f"    {command} "))
        for name in filter(None, files.values()):
            assert name in line.split("->")[0], (command, name)


def test_stage_functions_are_looked_up_when_they_run(tmp_path, corpus_dir, monkeypatch):
    # A stage tracer patches `cli.do_<stage>` after `sleeplog.cli` is imported, so
    # no subcommand may hold on to the function it found at import time.
    calls = dict.fromkeys(("ingest", "parse", "filter", "geo", "analyze", "report", "funnel"), 0)
    for stage in calls:
        def counted(*args, stage=stage, real=getattr(cli, f"do_{stage}"), **kwargs):
            calls[stage] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(cli, f"do_{stage}", counted)
    stages_into(tmp_path / "stages", corpus_dir, tmp_path / "cache.json")
    assert set(calls.values()) == {1}, calls
    assert run_all_into(tmp_path / "all", corpus_dir, tmp_path / "cache.json") == 0
    assert set(calls.values()) == {2}, calls


# --- settings precedence through the CLI --------------------------------------

def test_environment_moves_no_byte(tmp_path, run_dir, monkeypatch):
    def filter_into(out: Path) -> dict[str, str]:
        assert cli.main(["filter", str(run_dir / "logs.jsonl"), "--out", str(out)]) == 0
        return tree_hashes(out)

    plain = filter_into(tmp_path / "plain")
    # A setting's name, and a misspelt one: neither is a source of settings.
    monkeypatch.setenv("SLEEPLOG_MIN_DURATION_MINUTES", "600")
    monkeypatch.setenv("SLEEPLOG_SLAK_MINUTES", "3")
    assert filter_into(tmp_path / "env") == plain
    assert "filtered.jsonl" in plain


def test_config_file_is_read(tmp_path, run_dir):
    cfg = tmp_path / "settings.cfg"
    cfg.write_text("min_duration_minutes = 300  # strict night\n")
    rc = cli.main(
        ["filter", str(run_dir / "logs.jsonl"), "--out", str(tmp_path), "--config", str(cfg)]
    )
    assert rc == 0
    stamp, _ = read_stamped_csv(tmp_path / "filter_rejects.csv")
    assert "min_duration_minutes=300" in stamp


# --- failure modes ------------------------------------------------------------

def test_missing_input_file_exits_1(tmp_path, capsys):
    rc = cli.main(["ingest", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_analyze_on_empty_directory_exits_1(tmp_path, capsys):
    assert cli.main(["analyze", "--out", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_funnel_without_ledger_exits_1(tmp_path, capsys):
    assert cli.main(["funnel", "--out", str(tmp_path)]) == 1
    assert "no ledger stages" in capsys.readouterr().err


def _edit_first(src: Path, dst: Path, edit) -> None:
    """Copy a JSON Lines file with its first record replaced by `edit(record)`."""
    lines = src.read_text().splitlines()
    dst.write_text("\n".join([json.dumps(edit(json.loads(lines[0])))] + lines[1:]) + "\n")


def _drop_field(src: Path, dst: Path, field: str) -> None:
    """Copy a JSON Lines file with `field` removed from its first record."""
    _edit_first(src, dst, lambda doc: {k: v for k, v in doc.items() if k != field})


def _timeline_without_user_id(tmp_path, run_dir, corpus_dir):
    bad = tmp_path / "timelines.jsonl"
    _drop_field(corpus_dir / "timelines.jsonl", bad, "user_id")
    argv = ["analyze", "--logs", str(run_dir / "filtered.jsonl"),
            "--tweets", str(run_dir / "tweets.jsonl"), "--timelines", str(bad)]
    return argv, f"{bad}:1: missing field 'user_id'"


def _timeline_with(value):
    """An `analyze --timelines` run whose first timeline tweet has `user_id` `value`."""
    def make(tmp_path, run_dir, corpus_dir):
        bad = tmp_path / "timelines.jsonl"
        _edit_first(corpus_dir / "timelines.jsonl", bad, _set("user_id", value))
        argv = ["analyze", "--logs", str(run_dir / "filtered.jsonl"),
                "--tweets", str(run_dir / "tweets.jsonl"), "--timelines", str(bad)]
        return argv, f"{bad}:1: user_id must be a non-empty string, got {value!r}"
    return make


def _analyzed_log_with_a_huge_duration(tmp_path, run_dir, corpus_dir):
    bad = tmp_path / "filtered.jsonl"
    _edit_first(run_dir / "filtered.jsonl", bad, _set("duration_minutes", 10**400))
    argv = ["analyze", "--logs", str(bad), "--tweets", str(run_dir / "tweets.jsonl")]
    return argv, f"{bad}:1: duration_minutes must be at most 1439, got {10**400}"


def _analyzed_log_without_notation(tmp_path, run_dir, corpus_dir):
    bad = tmp_path / "filtered.jsonl"
    _drop_field(run_dir / "filtered.jsonl", bad, "notation")
    argv = ["analyze", "--logs", str(bad), "--tweets", str(run_dir / "tweets.jsonl")]
    return argv, f"{bad}:1: missing field 'notation'"


def _filtered_log_without_notation(tmp_path, run_dir, corpus_dir):
    bad = tmp_path / "logs.jsonl"
    _drop_field(run_dir / "logs.jsonl", bad, "notation")
    return ["filter", str(bad)], f"{bad}:1: missing field 'notation'"


def _countries_without_method(tmp_path, run_dir, corpus_dir):
    bad = tmp_path / "countries.csv"
    with open(run_dir / "countries.csv", newline="") as src, open(bad, "w", newline="") as dst:
        writer = csv.writer(dst, lineterminator="\n")
        for row in csv.reader(src):
            writer.writerow(row if row[0].startswith("#") else row[:2] + row[3:])
    argv = ["analyze", "--logs", str(run_dir / "filtered.jsonl"),
            "--tweets", str(run_dir / "tweets.jsonl"), "--countries", str(bad)]
    return argv, f"{bad}:2: missing field 'method'"


def _countries_cut(cut, located: str):
    """An `analyze` run on `countries.csv` cut by `cut`; `located` follows its path."""
    def make(tmp_path, run_dir, corpus_dir):
        bad = tmp_path / "countries.csv"
        bad.write_bytes(cut((run_dir / "countries.csv").read_bytes()))
        argv = ["analyze", "--logs", str(run_dir / "filtered.jsonl"),
                "--tweets", str(run_dir / "tweets.jsonl"), "--countries", str(bad)]
        return argv, f"{bad}:{located}"
    return make


def _on_the_first_row(edit):
    """`edit` applied to the first row of a countries.csv, its line 3."""
    def cut(text: bytes) -> bytes:
        lines = text.split(b"\n")
        lines[2] = edit(lines[2])
        return b"\n".join(lines)
    return cut


_CUT_COUNTRIES = [
    pytest.param(_countries_cut(lambda text: b"", "1: missing field 'user_id'"),
                 id="zero-byte-countries"),
    pytest.param(_countries_cut(lambda text: text[:text.index(b"country")],
                                "2: missing field 'country'"), id="countries-cut-before-country"),
    pytest.param(_countries_cut(lambda text: text[:text.index(b",query_text")],
                                "2: missing field 'query_text'"),
                 id="countries-cut-before-query-text"),
    pytest.param(_countries_cut(_on_the_first_row(lambda row: row.rsplit(b",", 1)[0]),
                                "3: row does not have its header's 4 fields"),
                 id="countries-row-cut-short"),
    pytest.param(_countries_cut(_on_the_first_row(lambda row: row + b",extra"),
                                "3: row does not have its header's 4 fields"),
                 id="countries-row-with-an-extra-field"),
]


def _ledger_stage_without_input(tmp_path, run_dir, corpus_dir):
    bad = tmp_path / "ledger.json"
    doc = json.loads((run_dir / "ledger.json").read_text())
    del doc["stages"][1]["input"]
    bad.write_text(json.dumps(doc))
    return ["funnel"], f"{bad}: missing field 'input'"


def _ledger_stage_that_does_not_balance(tmp_path, run_dir, corpus_dir):
    bad = tmp_path / "ledger.json"
    doc = json.loads((run_dir / "ledger.json").read_text())
    stage = doc["stages"][0]
    stage["input"] += 1
    bad.write_text(json.dumps(doc))
    return ["funnel"], (
        f"{bad}: ledger stage 'ingest': input {stage['input']} != kept {stage['kept']} "
        f"+ rejected {sum(stage['rejected_by_reason'].values())}"
    )


def _ledger_stage_with_non_integer_counts(tmp_path, run_dir, corpus_dir):
    bad = tmp_path / "ledger.json"
    bad.write_text(json.dumps({"stages": [{
        "name": "ingest", "input": True, "kept": 1,
        "rejected_by_reason": {}, "distinct_users_kept": 1.5,
    }]}))
    return ["funnel"], f"{bad}: ledger stage 'ingest': input must be a non-negative integer, got true"


def _ledger_nested_too_deep(tmp_path, run_dir, corpus_dir):
    bad = tmp_path / "ledger.json"
    bad.write_text(NESTED)
    return ["funnel"], f"{bad}: {_nested_json_detail()}"


def _ledger_stage_listed_twice(tmp_path, run_dir, corpus_dir):
    bad = tmp_path / "ledger.json"
    doc = json.loads((run_dir / "ledger.json").read_text())
    doc["stages"].append(doc["stages"][0])
    bad.write_text(json.dumps(doc))
    return ["funnel"], f"{bad}: ledger stage 'ingest': listed more than once"


def _ledger_stage_with_more_users_than_kept(tmp_path, run_dir, corpus_dir):
    bad = tmp_path / "ledger.json"
    doc = json.loads((run_dir / "ledger.json").read_text())
    stage = doc["stages"][0]
    stage["distinct_users_kept"] = stage["kept"] + 1
    bad.write_text(json.dumps(doc))
    return ["funnel"], (
        f"{bad}: ledger stage 'ingest': distinct_users_kept {stage['kept'] + 1} > kept {stage['kept']}"
    )


def _log_with(edit, message: str):
    """A `filter` run on logs.jsonl whose first record is `edit(record)`."""
    def make(tmp_path, run_dir, corpus_dir):
        bad = tmp_path / "logs.jsonl"
        _edit_first(run_dir / "logs.jsonl", bad, edit)
        return ["filter", str(bad)], f"{bad}:1: {message}"
    return make


def _set(field: str, value):
    return lambda doc: {**doc, field: value}


PARTLY_ANCHORED = "the four instants must be all present or all null"


_MISTYPED_LOGS = [
    pytest.param(_log_with(_set("duration_minutes", 420.5),
                           "duration_minutes must be a positive integer, got 420.5"),
                 id="fractional-duration"),
    pytest.param(_log_with(_set("duration_minutes", 1440),
                           "duration_minutes must be at most 1439, got 1440"),
                 id="day-long-duration"),
    pytest.param(_log_with(_set("deep_sleep_pct", 33.3),
                           "deep_sleep_pct must be an integer in [0, 100] or null, got 33.3"),
                 id="fractional-deep-sleep"),
    pytest.param(_log_with(_set("deep_sleep_pct", True),
                           "deep_sleep_pct must be an integer in [0, 100] or null, got True"),
                 id="boolean-deep-sleep"),
    pytest.param(_log_with(_set("duration_inconsistent", "no"),
                           "duration_inconsistent must be true or false, got 'no'"),
                 id="string-inconsistent-flag"),
    pytest.param(_log_with(_set("duration_inconsistent", True),
                           "duration_inconsistent must be false: 05:14 to 10:04 is 290 minutes,"
                           " and duration_minutes is 290"),
                 id="flag-set-on-a-consistent-log"),
    pytest.param(_log_with(_set("duration_minutes", 200),
                           "duration_inconsistent must be true: 05:14 to 10:04 is 290 minutes,"
                           " and duration_minutes is 200"),
                 id="duration-moved-under-a-clear-flag"),
    pytest.param(_log_with(_set("tweet_id", 12345), "tweet_id must be a non-empty string, got 12345"),
                 id="integer-tweet-id"),
    pytest.param(_log_with(_set("user_id", ["u1"]), "user_id must be a non-empty string, got ['u1']"),
                 id="list-user-id"),
    pytest.param(_log_with(lambda doc: [doc["tweet_id"]], "log record must be a JSON object, got list"),
                 id="log-not-an-object"),
    pytest.param(_log_with(_set("start_civil", "7:5"), "start_civil must be HH:MM, got '7:5'"),
                 id="unpadded-civil-time"),
    pytest.param(_log_with(_set("end_local", ""),
                           "end_local must be YYYY-MM-DDTHH:MM:SS or null, got ''"),
                 id="empty-local-instant"),
    pytest.param(_log_with(_set("start_local", "2015-10-01 03:36"),
                           "start_local must be YYYY-MM-DDTHH:MM:SS or null, got '2015-10-01 03:36'"),
                 id="space-separated-local-instant"),
    pytest.param(_log_with(_set("start_local", "2015-10-01T03:36:00+09:00"),
                           "start_local must be YYYY-MM-DDTHH:MM:SS or null, "
                           "got '2015-10-01T03:36:00+09:00'"),
                 id="local-instant-with-offset"),
    pytest.param(_log_with(_set("end_utc", "2015-10-01T01:04:00"),
                           "end_utc must be YYYY-MM-DDTHH:MM:SS+00:00 or null, got '2015-10-01T01:04:00'"),
                 id="utc-instant-without-offset"),
    pytest.param(_log_with(_set("start_utc", "2015-09-30T20:14:00Z"),
                           "start_utc must be YYYY-MM-DDTHH:MM:SS+00:00 or null, "
                           "got '2015-09-30T20:14:00Z'"),
                 id="utc-instant-with-zulu"),
    pytest.param(_log_with(_set("start_civil", "24:00"),
                           "start_civil out of range (hour must be in 0..23), got '24:00'"),
                 id="civil-hour-out-of-range"),
    pytest.param(_log_with(_set("start_local", "2015-13-01T03:36:00"),
                           "start_local out of range (month must be in 1..12), got '2015-13-01T03:36:00'"),
                 id="local-month-out-of-range"),
    pytest.param(_log_with(_set("start_local", None), PARTLY_ANCHORED), id="partly-anchored-log"),
]


def _presleep_log_without_start_local(tmp_path, run_dir, corpus_dir):
    # The day denominator reads start_local; the pre-sleep window reads start_utc.
    bad = tmp_path / "filtered.jsonl"
    _edit_first(run_dir / "filtered.jsonl", bad, _set("start_local", None))
    argv = ["analyze", "--logs", str(bad), "--tweets", str(run_dir / "tweets.jsonl"),
            "--timelines", str(corpus_dir / "timelines.jsonl"), "--presleep-denominator", "day"]
    return argv, f"{bad}:1: {PARTLY_ANCHORED}"


def _analyzed_log_without_end_local(tmp_path, run_dir, corpus_dir):
    bad = tmp_path / "filtered.jsonl"
    _edit_first(run_dir / "filtered.jsonl", bad, _set("end_local", None))
    argv = ["analyze", "--logs", str(bad), "--tweets", str(run_dir / "tweets.jsonl")]
    return argv, f"{bad}:1: {PARTLY_ANCHORED}"


CONTRADICTING_END = "2001-01-01T00:00:00"  # before the log's own start


def _contradicting_local_instants(src: Path, bad: Path) -> str:
    """Copy `src` with its first log's end_local set before its start; the error for that line."""
    _edit_first(src, bad, _set("end_local", CONTRADICTING_END))
    doc = json.loads(bad.read_text().splitlines()[0])
    return (
        f"{bad}:1: start_local and end_local must be at start_civil {doc['start_civil']} and the"
        f" next end_civil {doc['end_civil']} after it, got {doc['start_local']} and {CONTRADICTING_END}"
    )


def _filtered_log_ending_before_it_starts(tmp_path, run_dir, corpus_dir):
    bad = tmp_path / "logs.jsonl"
    return ["filter", str(bad)], _contradicting_local_instants(run_dir / "logs.jsonl", bad)


def _analyzed_log_ending_before_it_starts(tmp_path, run_dir, corpus_dir):
    # The wake-up heatmap reads end_local, so it would count this log's wake-up at 2001-01-01 00:00.
    bad = tmp_path / "filtered.jsonl"
    located = _contradicting_local_instants(run_dir / "filtered.jsonl", bad)
    argv = ["analyze", "--logs", str(bad), "--tweets", str(run_dir / "tweets.jsonl"),
            "--timelines", str(corpus_dir / "timelines.jsonl")]
    return argv, located


def _presleep_log_with_naive_utc(tmp_path, run_dir, corpus_dir):
    # Pre-sleep analysis compares log instants with aware timeline instants.
    bad = tmp_path / "filtered.jsonl"
    _edit_first(run_dir / "filtered.jsonl", bad,
                lambda doc: {**doc, "start_utc": doc["start_utc"][:19], "end_utc": doc["end_utc"][:19]})
    start_utc = json.loads(bad.read_text().splitlines()[0])["start_utc"]
    argv = ["analyze", "--logs", str(bad), "--tweets", str(run_dir / "tweets.jsonl"),
            "--timelines", str(corpus_dir / "timelines.jsonl")]
    return argv, f"{bad}:1: start_utc must be YYYY-MM-DDTHH:MM:SS+00:00 or null, got {start_utc!r}"


def _tweet_with_empty_account_created_at(tmp_path, run_dir, corpus_dir):
    bad = tmp_path / "tweets.jsonl"
    _edit_first(run_dir / "tweets.jsonl", bad, _set("account_created_at", ""))
    return ["parse", str(bad)], f"{bad}:1: account_created_at must be a timestamp string or null, got ''"


def _tweet_with_a_day_long_offset(tmp_path, run_dir, corpus_dir):
    bad = tmp_path / "tweets.jsonl"
    _edit_first(run_dir / "tweets.jsonl", bad, _set("utc_offset_seconds", 86400))
    return ["parse", str(bad)], f"{bad}:1: utc_offset_seconds must be in (-86400, 86400), got 86400"


def _tweet_with_a_huge_statuses_count(tmp_path, run_dir, corpus_dir):
    bad = tmp_path / "tweets.jsonl"
    _edit_first(run_dir / "tweets.jsonl", bad, _set("statuses_count", int("9" * 400)))
    return ["geo", str(bad)], f"{bad}:1: statuses_count must be below 2**63, got {'9' * 400}"


def _tweet_with_a_byte_that_is_not_utf8(tmp_path, run_dir, corpus_dir):
    bad = tmp_path / "tweets.jsonl"
    first, rest = (run_dir / "tweets.jsonl").read_bytes().split(b"\n", 1)
    first = first.replace(b'"text": "', b'"text": "\xff', 1)
    bad.write_bytes(first + b"\n" + rest)
    return ["parse", str(bad)], f"{bad}:1: not valid UTF-8: byte 0xff at char {first.index(0xFF)}"


def _countries_with_a_byte_that_is_not_utf8(tmp_path, run_dir, corpus_dir):
    bad = tmp_path / "countries.csv"
    lines = (run_dir / "countries.csv").read_bytes().split(b"\n")
    lines[3] = lines[3][:2] + b"\xff" + lines[3][2:]
    bad.write_bytes(b"\n".join(lines))
    argv = ["analyze", "--logs", str(run_dir / "filtered.jsonl"),
            "--tweets", str(run_dir / "tweets.jsonl"), "--countries", str(bad)]
    return argv, f"{bad}:4: not valid UTF-8: byte 0xff at char 2"


def _countries_with_an_overlong_field(tmp_path, run_dir, corpus_dir):
    bad = tmp_path / "countries.csv"
    lines = (run_dir / "countries.csv").read_text().split("\n")
    lines[3] += "x" * (csv.field_size_limit() + 1)
    bad.write_text("\n".join(lines))
    argv = ["analyze", "--logs", str(run_dir / "filtered.jsonl"),
            "--tweets", str(run_dir / "tweets.jsonl"), "--countries", str(bad)]
    return argv, f"{bad}:4: field larger than field limit ({csv.field_size_limit()})"


def _ledger_ending_in_a_byte_that_is_not_utf8(tmp_path, run_dir, corpus_dir):
    bad = tmp_path / "ledger.json"
    text = (run_dir / "ledger.json").read_bytes()
    bad.write_bytes(text + b"\xff")
    return ["funnel"], (
        f"{bad}: 'utf-8' codec can't decode byte 0xff in position {len(text)}: invalid start byte"
    )


@pytest.mark.parametrize(
    "make_bad_input",
    [_timeline_without_user_id, pytest.param(_timeline_with(["u1"]), id="list-timeline-user"),
     pytest.param(_timeline_with(42), id="number-timeline-user"),
     _analyzed_log_with_a_huge_duration, _analyzed_log_without_notation,
     _filtered_log_without_notation,
     _countries_without_method, _ledger_stage_without_input, _ledger_stage_that_does_not_balance,
     _ledger_stage_with_non_integer_counts, _ledger_stage_listed_twice, _ledger_nested_too_deep,
     _ledger_stage_with_more_users_than_kept, *_MISTYPED_LOGS, _presleep_log_with_naive_utc,
     _presleep_log_without_start_local, _analyzed_log_without_end_local,
     _filtered_log_ending_before_it_starts, _analyzed_log_ending_before_it_starts,
     _tweet_with_empty_account_created_at, _tweet_with_a_day_long_offset,
     _tweet_with_a_huge_statuses_count, _tweet_with_a_byte_that_is_not_utf8,
     _countries_with_a_byte_that_is_not_utf8, _countries_with_an_overlong_field,
     _ledger_ending_in_a_byte_that_is_not_utf8, *_CUT_COUNTRIES],
)
def test_malformed_stage_input_is_a_located_error(
    tmp_path, run_dir, corpus_dir, capsys, make_bad_input
):
    argv, located = make_bad_input(tmp_path, run_dir, corpus_dir)
    assert cli.main(argv + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {located}\n"
    assert "Traceback" not in err


def test_a_huge_count_on_a_users_latest_tweet_is_a_malformed_corpus_line(tmp_path, corpus_dir):
    lines = (corpus_dir / "corpus.jsonl").read_text().splitlines()
    tweets, _ = dedupe(ingest(lines)[0])
    latest = next(t for t in latest_profiles(tweets).values() if t.account_created_at is not None)
    lineno = 1 + next(n for n, line in enumerate(lines)
                      if json.loads(line).get("tweet_id") == latest.tweet_id)
    bad = tmp_path / "corpus.jsonl"
    _with_line(corpus_dir / "corpus.jsonl", bad, lineno,
               _json_edit("statuses_count", int("9" * 400)))
    assert cli.main(["run-all", str(bad)] + _offline(tmp_path)) == 0
    _, rows = read_stamped_csv(tmp_path / "out" / "ingest_rejects.csv")
    assert {"stage": "ingest", "position": str(lineno), "reason": "MALFORMED_JSON",
            "tweet_id": latest.tweet_id,
            "detail": f"statuses_count must be below 2**63, got {'9' * 400}"} in rows


def _no_users_latest_line(tweets: Path) -> int:
    """The number of a line past the middle of `tweets` whose tweet is not its user's latest."""
    lines = tweets.read_text().splitlines()
    latest = latest_profiles(RawTweet.from_record(json.loads(line)) for line in lines)
    winners = {tweet.tweet_id for tweet in latest.values()}
    return 1 + next(n for n in range(len(lines) // 2, len(lines))
                    if json.loads(lines[n])["tweet_id"] not in winners)


def _with_line(src: Path, dst: Path, lineno: int, edit) -> None:
    """Copy `src` with its line `lineno` replaced by `edit(line as bytes)`."""
    lines = src.read_bytes().split(b"\n")
    lines[lineno - 1] = edit(lines[lineno - 1])
    dst.write_bytes(b"\n".join(lines))


def _json_edit(field: str, value):
    return lambda line: json.dumps({**json.loads(line), field: value}).encode()


def _offline(tmp_path: Path) -> list[str]:
    return ["--out", str(tmp_path / "out"), "--geo-offline", "--geo-cache", str(tmp_path / "gc.json")]


@pytest.mark.parametrize("edit, message", [
    (_json_edit("account_created_at", ""),
     "account_created_at must be a timestamp string or null, got ''"),
    (_json_edit("utc_offset_seconds", 86400),
     "utc_offset_seconds must be in (-86400, 86400), got 86400"),
    (lambda line: line.replace(b'"text": "', b'"text": "\xff', 1),
     "not valid UTF-8: byte 0xff at char "),
], ids=["empty-account-created-at", "day-long-offset", "byte-that-is-not-utf8"])
def test_a_bad_tweet_that_is_no_users_latest_stops_geo_and_analyze(
    tmp_path, run_dir, capsys, edit, message
):
    bad = tmp_path / "tweets.jsonl"
    lineno = _no_users_latest_line(run_dir / "tweets.jsonl")
    _with_line(run_dir / "tweets.jsonl", bad, lineno, edit)
    errors = []
    for argv in (["parse", str(bad)], ["geo", str(bad)],
                 ["analyze", "--logs", str(run_dir / "filtered.jsonl"), "--tweets", str(bad)]):
        assert cli.main(argv + _offline(tmp_path)) == 1, argv
        errors.append(capsys.readouterr().err)
    assert errors[0].startswith(f"error: {bad}:{lineno}: {message}")
    assert errors == [errors[0]] * 3


# The JSON types each tweet field may hold; the first five fields are required.
_TWEET_FIELD_TYPES = {
    **dict.fromkeys(("tweet_id", "text", "created_at", "user_id", "screen_name"), {"string"}),
    **dict.fromkeys(("location_text", "time_zone", "interface_lang", "bio",
                     "account_created_at"), {"string", "null"}),
    **dict.fromkeys(("utc_offset_seconds", "friends_count", "followers_count",
                     "statuses_count"), {"integer", "null"}),
}
# The JSON types each field of a log line may hold; every field is required.
_LOG_FIELD_TYPES = {
    **dict.fromkeys(("tweet_id", "user_id", "start_civil", "end_civil", "notation", "separator"),
                    {"string"}),
    **dict.fromkeys(("start_local", "end_local", "start_utc", "end_utc"), {"string", "null"}),
    "duration_minutes": {"integer"},
    "deep_sleep_pct": {"integer", "null"},
    "duration_inconsistent": {"boolean"},
}
_NUMBER = {"integer", "float"}
_JSON_OF_TYPE = {"null": "null", "boolean": "true", "integer": "7", "float": "1.5",
                 "string": '"x"', "array": "[1]", "object": '{"a": 1}'}
_MARK = "\0value\0"


def _fields(types: dict) -> dict:
    return {(field,): json_types for field, json_types in types.items()}


_LEDGER_COUNT = {"integer"}
_REQUIRED_TWEET_FIELDS = [(f,) for f, types in _TWEET_FIELD_TYPES.items() if "null" not in types]
_TIMELINE_FIELD_TYPES = {"user_id": {"string"}, "created_at": {"string"}}


# Each stage input the fuzz test breaks: the stages that read it (see `_run_stage`), the JSON
# types of the values they read (by path; "*" is every index of a list or key of an object),
# and the paths that must be present.  A CSV file's types are by column, and the columns its
# readers use must be present.  A config file is broken by `_mutated_config`.  `ingest` counts
# a broken corpus line as a reject and goes on (`_assert_ingest_counts_one_reject`).
_BROKEN_INPUTS = {
    "corpus.jsonl": (("ingest",), _fields(_TWEET_FIELD_TYPES), _REQUIRED_TWEET_FIELDS),
    "tweets.jsonl": (("parse",), _fields(_TWEET_FIELD_TYPES), _REQUIRED_TWEET_FIELDS),
    "profiles.jsonl": (("geo", "analyze"), _fields(_TWEET_FIELD_TYPES), _REQUIRED_TWEET_FIELDS),
    "timelines.jsonl": (("analyze --timelines",), _fields(_TIMELINE_FIELD_TYPES),
                        list(_fields(_TIMELINE_FIELD_TYPES))),
    "ledger.json": (
        ("parse", "filter", "funnel"),
        {("stages",): {"array"}, ("stages", "*", "name"): {"string"},
         ("stages", "*", "input"): _LEDGER_COUNT, ("stages", "*", "kept"): _LEDGER_COUNT,
         ("stages", "*", "distinct_users_kept"): _LEDGER_COUNT,
         ("stages", "*", "rejected_by_reason"): {"object"},
         ("stages", "*", "rejected_by_reason", "*"): _LEDGER_COUNT},
        [("stages",)] + [("stages", "*", f) for f in
                         ("name", "input", "kept", "distinct_users_kept", "rejected_by_reason")]),
    "countries.csv": (("analyze",), {"method": {"string"}},
                      ["user_id", "country", "method", "query_text"]),
    "analysis/frequency.csv": (("report",), {"n_users": {"integer"}}, ["bin_label", "n_users"]),
    "logs.jsonl": (("filter",), _fields(_LOG_FIELD_TYPES), list(_fields(_LOG_FIELD_TYPES))),
    "filtered.jsonl": (("analyze",), _fields(_LOG_FIELD_TYPES), list(_fields(_LOG_FIELD_TYPES))),
    "geo_cache.json": (("geo --geo-cache",), {("*",): {"string", "null"}}, []),
    "sleeplog.conf": (("filter --config", "report --config"), None, None),
    "analysis/summary.json": (
        ("report",), {("clock", "start_hist", "*"): _NUMBER, ("clock", "end_hist", "*"): _NUMBER},
        [("clock",), ("clock", "start_hist"), ("clock", "end_hist")]),
    "analysis/start_bins.json": (
        ("report",), {("matrix", "*", "*"): _NUMBER, ("matrix_row_labels", "*"): {"string"},
                      ("matrix_col_labels", "*"): {"string"}},
        [("matrix",), ("matrix_row_labels",), ("matrix_col_labels",)]),
    "analysis/wake_heatmap.json": (
        ("report",), {("heatmap", "row_normalized", "*", "*"): _NUMBER,
                      ("heatmap", "row_labels", "*"): {"string"}},
        [("heatmap", "row_normalized"), ("heatmap", "row_labels")]),
}


def _at(doc, path: tuple):
    for key in path:
        doc = doc[key]
    return doc


def _every(value) -> list:
    """The keys of an object, or the indexes of a list."""
    return list(value) if isinstance(value, dict) else list(range(len(value)))


def _paths(doc, pattern: tuple) -> list[tuple]:
    """The paths into `doc` that `pattern` names; "*" stands for every index of a list
    and every key of an object."""
    paths = [()]
    for key in pattern:
        paths = [path + (k,) for path in paths
                 for k in (_every(_at(doc, path)) if key == "*" else [key])]
    return paths


def _with_value(doc, path: tuple, text: str) -> bytes:
    """`doc` as JSON, with the value at `path` written as the JSON text `text`."""
    _at(doc, path[:-1])[path[-1]] = _MARK
    return json.dumps(doc).replace(json.dumps(_MARK), text).encode()


def _mutated(text: bytes, data, types: dict, required: list) -> bytes:
    """`text`, one JSON object, broken in one way that no reader may accept."""
    doc = json.loads(text)
    values = [(path, json_types) for pattern, json_types in types.items()
              for path in _paths(doc, pattern)]
    choices = {  # the values each kind of break may change
        "retype": [(path, wrong) for path, json_types in values
                   for wrong in _JSON_OF_TYPE if wrong not in json_types],
        "label": [(path, wrong) for path, json_types in values if json_types == {"string"}
                  for wrong in _JSON_OF_TYPE if wrong != "string"],
        "nest": [path for path, _ in values],
        "digits": [path for path, json_types in values if "integer" not in json_types],
        "huge": [path for path, json_types in values if "integer" in json_types],
    }
    kind = data.draw(st.sampled_from(["drop"] * bool(required) + ["byte", "truncate", "array"]
                                     + [k for k, paths in choices.items() if paths]), label="kind")
    if kind == "byte":
        at = data.draw(st.integers(0, len(text)), label="at")
        return text[:at] + b"\xff" + text[at:]
    if kind == "truncate":
        return text[:data.draw(st.integers(1, len(text) - 1), label="keep")]
    if kind == "array":
        return json.dumps(list(doc.values())).encode()
    if kind == "drop":
        present = [path for pattern in required for path in _paths(doc, pattern)]
        path = data.draw(st.sampled_from(present), label="path")
        del _at(doc, path[:-1])[path[-1]]
        return json.dumps(doc).encode()
    path = data.draw(st.sampled_from(choices[kind]), label="path")
    if kind in ("retype", "label"):
        path, wrong = path
        return _with_value(doc, path, _JSON_OF_TYPE[wrong])
    if kind == "nest":
        return _with_value(doc, path, "[" * 10_000 + "]" * 10_000)
    if kind == "digits":  # an integer too long to decode, where an integer is the wrong type anyway
        return _with_value(doc, path, "9" * 5_000)
    sign = data.draw(st.sampled_from(["", "-"]), label="sign")  # a 400-digit integer either way
    return _with_value(doc, path, sign + "9" * 400)


def _csv_text(comment: str, rows: list[list[str]]) -> bytes:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return (comment + "\n" + out.getvalue()).encode()


def _mutated_csv(text: bytes, data, types: dict, columns: list) -> tuple[bytes, int]:
    """`text`, a settings comment and a CSV table, broken in one way that no reader may
    accept, and the line its reader must name: a value by its row, a header by line 2."""
    comment, table = text.decode().split("\n", 1)
    header, *rows = csv.reader(io.StringIO(table))
    kinds = ["byte", "truncate", "drop", "width", "retype", "nest"]
    kinds += ["huge"] if any("integer" in t for t in types.values()) else ["digits"]
    kind = data.draw(st.sampled_from(kinds), label="kind")
    if kind == "byte":
        lines = text.split(b"\n")
        lineno = data.draw(st.integers(1, len(lines) - 1), label="lineno")  # the last is empty
        line = lines[lineno - 1]
        at = data.draw(st.integers(0, len(line)), label="at")
        lines[lineno - 1] = line[:at] + b"\xff" + line[at:]
        return b"\n".join(lines), lineno
    if kind == "truncate":  # inside the header, before the end of a column its readers use
        line = ",".join(header)
        last = max(len(",".join(header[:header.index(c) + 1])) for c in columns)
        keep = data.draw(st.integers(0, last - 1), label="keep")
        return (comment + "\n" + line[:keep]).encode(), 2
    if kind == "drop":
        i = header.index(data.draw(st.sampled_from(columns), label="column"))
        return _csv_text(comment, [r[:i] + r[i + 1:] for r in [header, *rows]]), 2
    row = data.draw(st.integers(0, len(rows) - 1), label="row")
    if kind == "width":  # a row with fewer fields than the header, or more
        width = data.draw(st.sampled_from(
            [n for n in range(1, len(header) + 2) if n != len(header)]), label="width")
        rows[row] = (rows[row] + ["x"])[:width]
        return _csv_text(comment, [header, *rows]), row + 3
    column = data.draw(st.sampled_from(sorted(types)), label="column")
    if kind == "retype":
        value = data.draw(st.sampled_from(
            [_JSON_OF_TYPE[t] for t in _JSON_OF_TYPE if t not in types[column]]), label="value")
    elif kind == "nest":
        value = "[" * 10_000 + "]" * 10_000
    elif kind == "digits":
        value = "9" * 5_000
    else:
        value = data.draw(st.sampled_from(["", "-"]), label="sign") + "9" * 400
    rows[row][header.index(column)] = value
    return _csv_text(comment, [header, *rows]), row + 3


# The inputs no stage writes, as the fuzz test starts from them: a geo cache, and a config
# file that sets every setting to its default.
_UNWRITTEN_INPUTS = {
    "geo_cache.json": b'{"Atlantis": null, "Berlin": "DE", "Tokyo": "JP"}\n',
    "sleeplog.conf": ("# every setting at its default\n" + "".join(
        f"{s.name} = {str(s.default).lower() if type(s.default) is bool else s.default}\n"
        for s in SETTINGS
    )).encode(),
}


def _mutated_config(text: bytes, data) -> tuple[bytes, int]:
    """`text`, a config file, broken in one way that no reader may accept, and its line number."""
    lines = text.split(b"\n")  # the last is empty
    kind = data.draw(st.sampled_from(["byte", "unknown", "no-equals", "retype"]), label="kind")
    if kind == "byte":
        lineno = data.draw(st.integers(1, len(lines) - 1), label="lineno")
        line = lines[lineno - 1]
        at = data.draw(st.integers(0, len(line)), label="at")
        lines[lineno - 1] = line[:at] + b"\xff" + line[at:]
    elif kind == "unknown":
        lineno = data.draw(st.integers(1, len(lines)), label="lineno")
        lines.insert(lineno - 1, b"verbosity = 3")
    elif kind == "no-equals":  # line 1 is the comment
        lineno = data.draw(st.integers(2, len(lines) - 1), label="lineno")
        lines[lineno - 1] = lines[lineno - 1].replace(b"=", b"")
    else:  # an int or bool setting given a value of another type
        lineno = data.draw(st.sampled_from(
            [n for n, s in enumerate(SETTINGS, start=2) if type(s.default) is not str]), label="lineno")
        setting = SETTINGS[lineno - 2]
        wrong = data.draw(st.sampled_from(
            ["abc", "1.5", "", "5 minutes"] if type(setting.default) is int
            else ["maybe", "2", "", "on off"]), label="value")
        lines[lineno - 1] = f"{setting.name} = {wrong}".encode()
    return b"\n".join(lines), lineno


def _run_stage(stage: str, out: Path, path: Path, cache: str) -> tuple[int, str]:
    """`main`'s exit code and stderr for `stage` run offline on the file `path`.

    A stage that ends in an option, and `ingest`, whose input has no default, take `path`
    there; any other stage reads it as its default under `out`.
    """
    command, *options = stage.split()
    argv = [command, "--out", str(out), "--geo-offline", "--geo-cache", cache, *options]
    argv += [str(path)] if options or command == "ingest" else []
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return code, err.getvalue()


def _assert_ingest_counts_one_reject(run_dir: Path, out: Path, lineno: int, cache: str) -> None:
    """`ingest` of `out`'s corpus, whose line `lineno` is broken, skips that line alone:
    it exits 0, lists the line as malformed, and keeps one tweet fewer than `run_dir`."""
    exit_code, err = _run_stage("ingest", out, out / "corpus.jsonl", cache)
    assert (exit_code, err) == (0, "")
    _, rows = read_stamped_csv(out / "ingest_rejects.csv")
    assert [(r["position"], r["reason"]) for r in rows if r["stage"] == "ingest"] == [
        (str(lineno), "MALFORMED_JSON")
    ]

    def ingest_kept(root: Path) -> int:
        stages = json.loads((root / "ledger.json").read_text())["stages"]
        return next(s["kept"] for s in stages if s["name"] == "ingest")

    assert ingest_kept(out) == ingest_kept(run_dir) - 1


@pytest.mark.parametrize("name", sorted(_BROKEN_INPUTS))
@settings(deadline=None, max_examples=8)
@given(data=st.data())
def test_a_broken_stage_input_is_one_located_error_from_every_reader(
    run_dir, corpus_dir, name, data
):
    stages, types, required = _BROKEN_INPUTS[name]
    text = _UNWRITTEN_INPUTS.get(name) or (
        run_dir / name if (run_dir / name).exists() else corpus_dir / name).read_bytes()
    if name.endswith(".conf"):
        text, lineno = _mutated_config(text, data)
        where = f":{lineno}"
    elif name.endswith(".csv"):
        text, lineno = _mutated_csv(text, data, types, required)
        where = f":{lineno}"
    elif name.endswith(".jsonl"):  # break one line
        lines = text.split(b"\n")
        lineno = data.draw(st.integers(1, len(lines) - 1), label="lineno")  # the last is empty
        lines[lineno - 1] = _mutated(lines[lineno - 1], data, types, required)
        text, where = b"\n".join(lines), f":{lineno}"
    else:
        text, where = _mutated(text.rstrip(b"\n"), data, types, required) + b"\n", ""
    # A config file is read before any stage runs: a usage error.
    code, prefix = (2, "config error") if name.endswith(".conf") else (1, "error")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        shutil.copytree(run_dir, out)
        (out / name).write_bytes(text)
        if name == "corpus.jsonl":
            _assert_ingest_counts_one_reject(run_dir, out, lineno, os.path.join(tmp, "gc.json"))
            return
        before = tree_hashes(out)
        errors = []
        for stage in stages:
            exit_code, err = _run_stage(stage, out, out / name, os.path.join(tmp, "gc.json"))
            assert exit_code == code, stage
            errors.append(err)
        assert errors == [errors[0]] * len(stages)
        assert errors[0].startswith(f"{prefix}: {out / name}{where}: ")
        assert errors[0].count("\n") == 1 and errors[0].endswith("\n")
        assert "Traceback" not in errors[0]
        assert tree_hashes(out) == before
        assert not list(out.rglob("*.tmp"))


# Each stage input that CRLF line ends must not change, and the stages that read it (see
# `_run_stage`).  Blank and whitespace-only lines must not change one either, but in a CSV
# file they are rows.
_SPACED_INPUTS = {
    "corpus.jsonl": ("ingest",),
    "tweets.jsonl": ("parse",),
    "profiles.jsonl": ("geo", "analyze"),
    "logs.jsonl": ("filter",),
    "filtered.jsonl": ("analyze",),
    "timelines.jsonl": ("analyze --timelines",),
    "ledger.json": ("parse", "filter", "funnel"),
    "countries.csv": ("analyze",),
    "analysis/frequency.csv": ("report",),
}


def _crlf(text: bytes) -> bytes:
    return text.replace(b"\n", b"\r\n")


def _blank_lines(text: bytes) -> bytes:
    """`text` with an empty line after its first line and a whitespace-only one before its last."""
    lines = text.split(b"\n")  # the last is empty
    return b"\n".join(lines[:1] + [b""] + lines[1:-2] + [b" \t "] + lines[-2:])


def _without_input_digests(hashes: dict[str, str], out: Path) -> dict[str, object]:
    """`hashes`, each manifest's digest replaced by the manifest without its input digests."""
    return {rel: {k: v for k, v in json.loads((out / rel).read_text()).items() if k != "inputs"}
            if rel.startswith("manifest_") else digest for rel, digest in hashes.items()}


@pytest.mark.parametrize("name, mutate", [
    pytest.param(name, mutate, id=f"{name}-{mutate.__name__.strip('_')}")
    for name in _SPACED_INPUTS for mutate in (_crlf, _blank_lines)
    if mutate is _crlf or not name.endswith(".csv")
])
def test_crlf_and_blank_lines_in_a_stage_input_move_no_output_byte(
    tmp_path, run_dir, corpus_dir, name, mutate
):
    text = (run_dir / name if (run_dir / name).exists() else corpus_dir / name).read_bytes()
    assert mutate(text) != text
    plain, spaced = tmp_path / "plain", tmp_path / "spaced"
    for out in (plain, spaced):
        shutil.copytree(run_dir, out)
    cache = str(tmp_path / "gc.json")
    for stage in _SPACED_INPUTS[name]:  # each stage reads the input as given, not as rewritten
        for out, given_text in ((plain, text), (spaced, mutate(text))):
            (out / name).write_bytes(given_text)
            assert _run_stage(stage, out, out / name, cache) == (0, ""), stage
        trees = [_without_input_digests(tree_hashes(out), out) for out in (plain, spaced)]
        if (spaced / name).read_bytes() == mutate(text):  # an input the stage does not rewrite
            for tree in trees:
                del tree[name]
        assert trees[0] == trees[1], stage


NESTED = "[" * 100_000 + "]" * 100_000  # a JSON value too deep for the decoder


def _nested_json_detail() -> str:
    with pytest.raises(RecursionError) as caught:
        json.loads(NESTED)
    return str(caught.value)


@pytest.mark.parametrize("stage", ["parse", "geo", "analyze --timelines"])
def test_json_nested_too_deep_is_a_located_error(tmp_path, run_dir, corpus_dir, capsys, stage):
    src = corpus_dir / "timelines.jsonl" if stage == "analyze --timelines" else run_dir / "tweets.jsonl"
    bad = tmp_path / src.name
    _with_line(src, bad, 2, lambda line: NESTED.encode())
    argv = {
        "parse": ["parse", str(bad)],
        "geo": ["geo", str(bad)],
        "analyze --timelines": ["analyze", "--logs", str(run_dir / "filtered.jsonl"),
                                "--tweets", str(run_dir / "tweets.jsonl"), "--timelines", str(bad)],
    }[stage]
    assert cli.main(argv + _offline(tmp_path)) == 1
    assert capsys.readouterr().err == f"error: {bad}:2: {_nested_json_detail()}\n"


def test_ingest_counts_json_nested_too_deep_as_malformed(tmp_path, corpus_dir):
    bad = tmp_path / "corpus.jsonl"
    _with_line(corpus_dir / "corpus.jsonl", bad, 2, lambda line: NESTED.encode())
    assert cli.main(["ingest", str(bad)] + _offline(tmp_path)) == 0
    _, rows = read_stamped_csv(tmp_path / "out" / "ingest_rejects.csv")
    assert {"stage": "ingest", "position": "2", "reason": "MALFORMED_JSON", "tweet_id": "",
            "detail": _nested_json_detail()} in rows


# Three users, and instants few enough that created_at ties are common.  Each instant
# is written as UTC ISO 8601, as ISO 8601 at +09:00, or in the classic tweet form.
_INSTANTS = [datetime(2015, 10, d, h, tzinfo=timezone.utc) for d in (1, 2) for h in (0, 23)]
_WRITTEN = (
    lambda dt: dt.isoformat(),
    lambda dt: dt.astimezone(timezone(timedelta(hours=9))).isoformat(),
    lambda dt: dt.strftime("%a %b %d %H:%M:%S %z %Y"),
)


@settings(deadline=None, max_examples=80)
@given(
    st.lists(st.tuples(st.sampled_from(["u1", "u2", "u3"]), st.sampled_from(_INSTANTS),
                       st.sampled_from(_WRITTEN), st.booleans()), min_size=1, max_size=14),
    st.randoms(use_true_random=False),
)
def test_profiles_file_holds_what_latest_profiles_keeps(tweets, rng):
    lines = []
    for n, (user_id, instant, written, blank_after) in enumerate(tweets):
        lines.append(json.dumps({
            "tweet_id": f"t{n}", "text": f"tweet {n}", "created_at": written(instant),
            "user_id": user_id, "screen_name": f"name{n}", "friends_count": n,
        }))
        if blank_after:
            lines.append("  ")
    rng.shuffle(lines)
    with tempfile.TemporaryDirectory() as tmp:
        corpus = os.path.join(tmp, "corpus.jsonl")
        with open(corpus, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        assert cli.main(["ingest", corpus, "--out", tmp]) == 0
        every_tweet = cli._read_jsonl(os.path.join(tmp, "tweets.jsonl"), RawTweet.from_record)
        latest = latest_profiles(every_tweet)
        with open(os.path.join(tmp, "profiles.jsonl"), encoding="utf-8") as handle:
            assert handle.read() == "".join(tweet.to_json() + "\n" for tweet in latest.values())
        for name in ("profiles.jsonl", "tweets.jsonl"):
            assert list(cli._read_profiles(os.path.join(tmp, name)).items()) == list(latest.items())


def test_geo_and_analyze_on_all_tweets_write_what_they_write_from_profiles(
    tmp_path, run_dir, corpus_dir
):
    out = tmp_path / "out"
    shutil.copytree(run_dir, out)
    tweets = str(out / "tweets.jsonl")
    common = ["--out", str(out), "--geo-offline", "--geo-cache", str(tmp_path / "gc.json")]
    assert cli.main(["geo", tweets] + common) == 0
    assert cli.main(["analyze", "--tweets", tweets,
                     "--timelines", str(corpus_dir / "timelines.jsonl")] + common) == 0
    written, expected = tree_hashes(out), tree_hashes(run_dir)
    changed = {name for name in expected if written[name] != expected[name]}
    assert set(written) == set(expected)
    assert changed == {"manifest_geo.json", "manifest_analyze.json"}
    for command in ("geo", "analyze"):
        inputs = json.loads((out / f"manifest_{command}.json").read_text())["inputs"]
        assert "tweets.jsonl" in inputs and "profiles.jsonl" not in inputs


SLEEP_TEXT = (
    "Sleep as Android: I was sleeping for 7:10 from 23:02 to 6:12 with 21% deep sleep"
    " #sleep_as_android"
)


@pytest.mark.parametrize("created_at, offset", [
    ("0001-01-01T00:20:00+05:00", None),  # before year 1 once in UTC
    ("2015-10-24T06:20:00Z", 86400),  # an offset `datetime.timezone` refuses
    ("0001-01-01T00:20:00Z", -18000),  # local time before year 1
    ("9999-12-31T23:59:00Z", 0),  # wake-up cutoff after year 9999
])
def test_no_single_raw_tweet_stops_run_all(tmp_path, corpus_dir, created_at, offset):
    def edit(doc: dict) -> dict:
        return {**doc, "text": SLEEP_TEXT, "created_at": created_at, "utc_offset_seconds": offset}

    _edit_first(corpus_dir / "corpus.jsonl", tmp_path / "corpus.jsonl", edit)
    shutil.copy(corpus_dir / "timelines.jsonl", tmp_path)
    assert run_all_into(tmp_path / "out", tmp_path, tmp_path / "cache.json") == 0


def test_missing_explicit_countries_file_exits_1(tmp_path, run_dir, capsys):
    missing = tmp_path / "no_such.csv"
    rc = cli.main(
        ["analyze", "--out", str(tmp_path), "--logs", str(run_dir / "filtered.jsonl"),
         "--tweets", str(run_dir / "tweets.jsonl"), "--countries", str(missing)]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(missing) in err
    assert "Traceback" not in err
    assert not (tmp_path / "manifest_analyze.json").exists()


@pytest.mark.parametrize(
    "cache_text",
    ['{\n"Berlin": "DE",\n', '["x"]', '{"Berlin": 5}', "[" * 100_000 + "]" * 100_000],
    ids=["truncated", "not-an-object", "non-string-code", "nested-too-deep"],
)
def test_corrupt_geo_cache_is_a_located_error(tmp_path, run_dir, capsys, cache_text):
    cache = tmp_path / "geo_cache.json"
    cache.write_text(cache_text)
    rc = cli.main(["geo", str(run_dir / "tweets.jsonl"), "--out", str(tmp_path),
                   "--geo-offline", "--geo-cache", str(cache)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cache}: ")
    assert "Traceback" not in err
    assert cache.read_text() == cache_text


def test_negative_presleep_window_exits_2(tmp_path, run_dir, corpus_dir, capsys):
    rc = cli.main(
        ["analyze", "--out", str(tmp_path), "--logs", str(run_dir / "filtered.jsonl"),
         "--tweets", str(run_dir / "tweets.jsonl"),
         "--timelines", str(corpus_dir / "timelines.jsonl"),
         "--presleep-window-minutes", "-30"]
    )
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "analysis").exists()


def test_presleep_window_past_datetimes_span_exits_2(tmp_path, run_dir, corpus_dir, capsys):
    rc = cli.main(
        ["analyze", "--out", str(tmp_path), "--logs", str(run_dir / "filtered.jsonl"),
         "--tweets", str(run_dir / "tweets.jsonl"),
         "--timelines", str(corpus_dir / "timelines.jsonl"),
         "--presleep-window-minutes", "100000000000000"]
    )
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error: need presleep_window_minutes <=")
    assert not (tmp_path / "analysis").exists()


def test_config_file_byte_that_is_not_utf8_exits_2(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"# r\xe9glages\nslack_minutes = 5\n")
    assert cli.main(["funnel", "--out", str(tmp_path), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {cfg}:1: not valid UTF-8: byte 0xe9 at char 3\n"


def test_bad_config_file_value_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("slack_minutes = zero\n")
    assert cli.main(["funnel", "--out", str(tmp_path), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {cfg}:1: bad value for slack_minutes: 'zero' (expected int)\n"


def test_missing_config_file_exits_2(tmp_path, capsys):
    rc = cli.main(["funnel", "--out", str(tmp_path), "--config", str(tmp_path / "gone.cfg")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_inconsistent_duration_window_exits_2(tmp_path, capsys):
    rc = cli.main(["funnel", "--out", str(tmp_path), "--min-duration-minutes", "800"])
    assert rc == 2
    assert "min_duration_minutes" in capsys.readouterr().err


def test_non_numeric_flag_exits_2_via_argparse(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["synth", "--out", str(tmp_path), "--synth-users", "lots"])
    assert excinfo.value.code == 2


def test_unknown_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["synth", "--out", str(tmp_path), "--frobnicate"])
    assert excinfo.value.code == 2


def test_version_flag_exits_0(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--version"])
    assert excinfo.value.code == 0
    assert "sleeplog" in capsys.readouterr().out


def _child_env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sleeplog.__file__)))
    return {**os.environ, "PYTHONPATH": src}


def _sleeplog(argv: list[str], **kwargs) -> subprocess.CompletedProcess:
    """`python -m sleeplog argv` in a fresh interpreter, on this checkout's package."""
    return subprocess.run([sys.executable, "-m", "sleeplog", *argv], env=_child_env(),
                          capture_output=True, timeout=120, **kwargs)


def test_a_closed_stdout_ends_a_finished_stage_quietly(tmp_path, run_dir, corpus_dir):
    # As in `sleeplog run-all ... | head -1`: the reader is gone before the stage prints.
    out = tmp_path / "out"
    argv = [sys.executable, "-m", "sleeplog", "run-all", str(corpus_dir / "corpus.jsonl"),
            "--timelines", str(corpus_dir / "timelines.jsonl"), *_offline(tmp_path)]
    with subprocess.Popen(argv, env=_child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as child:
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait(timeout=120) == 0, err
    assert err == b""
    assert tree_hashes(out) == tree_hashes(run_dir)


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_a_piped_stage_input_is_refused_and_a_redirected_file_is_digested(tmp_path, run_dir):
    out = tmp_path / "out"
    tweets = run_dir / "tweets.jsonl"
    argv = ["parse", "/dev/stdin", "--out", str(out)]
    piped = _sleeplog(argv, input=tweets.read_bytes())
    assert piped.returncode == 1
    assert piped.stderr.decode().startswith("error: /dev/stdin: not a regular file")
    assert not out.exists() or not list(out.iterdir())

    with open(tweets, "rb") as handle:
        redirected = _sleeplog(argv, stdin=handle)
    assert redirected.returncode == 0, redirected.stderr
    manifest = json.loads((out / "manifest_parse.json").read_text())
    assert manifest["inputs"] == {"stdin": hashlib.sha256(tweets.read_bytes()).hexdigest()}


def test_the_readme_library_snippet_runs_in_development_mode(tmp_path, corpus_dir):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    before, _, rest = section.partition("```python\n")
    assert "\n## " not in before, "the Library use section has no python block"
    snippet = rest.split("\n```", 1)[0]
    (tmp_path / "data").mkdir()
    # A line that is not UTF-8: the snippet must count it as malformed, not stop on it.
    corpus = (corpus_dir / "corpus.jsonl").read_bytes() + b'{"text": "\xff"}\n'
    (tmp_path / "data" / "corpus.jsonl").write_bytes(corpus)
    done = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", snippet],
                          cwd=tmp_path, env=_child_env(), capture_output=True, text=True,
                          timeout=120)
    assert (done.returncode, done.stderr) == (0, "")  # a leaked file warns on stderr
    assert int(done.stdout.split()[0]) > 0


def test_importing_the_cli_loads_no_synth_or_http_modules():
    # A fresh interpreter: this test process has imported everything already.
    probe = ("import sys, sleeplog.cli; "
             "print(sorted({'urllib.request', 'http.client', 'sleeplog.synth'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", probe], env=_child_env(), capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


# --- the trusted hand-off: a stage input its writer's manifest vouches for --------

def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def counting_checks(monkeypatch) -> dict[str, int]:
    """Patch both checked constructors to count their calls; the counts, as made."""
    counts = {"SleepLog": 0, "RawTweet": 0}
    for cls in (SleepLog, RawTweet):
        def counted(doc, name=cls.__name__, real=cls.from_record):
            counts[name] += 1
            return real(doc)
        monkeypatch.setattr(cls, "from_record", staticmethod(counted))
    return counts


def non_blank_lines(path: Path) -> int:
    return sum(1 for line in path.read_bytes().splitlines() if line.strip())


def redigest(out: Path, command: str, name: str) -> None:
    """List `name`'s bytes on disk in `manifest_<command>.json`, as its writer would have."""
    path = out / f"manifest_{command}.json"
    doc = json.loads(path.read_text())
    doc["outputs"][name] = sha256_of(out / name)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def edit_one_byte(path: Path) -> None:
    """Change the last digit of the first line's tweet id: still a valid line."""
    text = path.read_bytes()
    at = text.index(b'"tweet_id": "') + len(b'"tweet_id": "')
    at = text.index(b'"', at) - 1
    digit = b"1" if text[at:at + 1] != b"1" else b"2"
    path.write_bytes(text[:at] + digit + text[at + 1:])


def test_an_untouched_tree_is_read_without_checking_a_line(
    tmp_path, run_dir, corpus_dir, monkeypatch
):
    out = copy_of(run_dir, tmp_path)
    counts = counting_checks(monkeypatch)
    timelines = ["--timelines", str(corpus_dir / "timelines.jsonl")]
    for stage in (["parse"], ["filter"], ["geo"], ["analyze", *timelines]):
        assert cli.main([*stage, "--out", str(out), "--geo-offline",
                         "--geo-cache", str(tmp_path / "gc.json")]) == 0, stage
    assert counts == {"SleepLog": 0, "RawTweet": 0}
    assert tree_hashes(out) == tree_hashes(run_dir)

    edit_one_byte(out / "logs.jsonl")
    assert cli.main(["filter", "--out", str(out), "--geo-offline"]) == 0
    assert counts == {"SleepLog": non_blank_lines(out / "logs.jsonl"), "RawTweet": 0}
    counts["SleepLog"] = 0
    edit_one_byte(out / "filtered.jsonl")
    edit_one_byte(out / "profiles.jsonl")
    assert cli.main(["analyze", "--out", str(out), "--geo-offline"]) == 0
    assert counts == {"SleepLog": non_blank_lines(out / "filtered.jsonl"),
                      "RawTweet": non_blank_lines(out / "profiles.jsonl")}


def test_each_input_is_digested_once_through_the_handle_it_is_read_from(
    tmp_path, run_dir, monkeypatch
):
    out = copy_of(run_dir, tmp_path)
    digested, real = [], cli._sha256

    def counted(path, *handle):
        digested.append((os.path.basename(path), bool(handle)))
        return real(path, *handle)

    monkeypatch.setattr(cli, "_sha256", counted)
    assert cli.main(["filter", "--out", str(out), "--geo-offline"]) == 0
    assert cli.main(["analyze", "--out", str(out), "--geo-offline"]) == 0
    read = [name for name in ("logs.jsonl", "filtered.jsonl", "profiles.jsonl")
            for entry in digested if entry[0] == name]
    assert read == ["logs.jsonl", "filtered.jsonl", "profiles.jsonl"]
    assert {entry for entry in digested if entry[0] in read} == {(name, True) for name in read}


def _without_manifest(out: Path) -> None:
    (out / "manifest_parse.json").unlink()


def _edit_manifest(**fields):
    def edit(out: Path) -> None:
        path = out / "manifest_parse.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), **fields}))
    return edit


def _crlf(out: Path) -> None:
    path = out / "logs.jsonl"
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))


@pytest.mark.parametrize("untrust", [
    _without_manifest,
    _edit_manifest(tool_version="0.0.0"),
    _edit_manifest(command="filter"),  # the wrong writer's manifest
    lambda out: edit_one_byte(out / "logs.jsonl"),
    _crlf,
], ids=["no-manifest", "other-version", "wrong-writer", "one-byte-edit", "crlf-copy"])
def test_an_input_its_manifest_does_not_vouch_for_is_checked(
    tmp_path, run_dir, monkeypatch, untrust
):
    out = copy_of(run_dir, tmp_path)
    untrust(out)
    counts = counting_checks(monkeypatch)
    assert cli.main(["filter", "--out", str(out), "--geo-offline"]) == 0
    assert counts["SleepLog"] == non_blank_lines(run_dir / "logs.jsonl")
    manifest = json.loads((out / "manifest_filter.json").read_text())
    assert manifest["inputs"] == {"logs.jsonl": sha256_of(out / "logs.jsonl")}


def _contradicting_flag(out: Path) -> tuple[int, str]:
    """Flip the third line's `duration_inconsistent`; its number and the refusal's text."""
    lines = (out / "logs.jsonl").read_text().splitlines(keepends=True)
    doc = json.loads(lines[2])
    flag = doc["duration_inconsistent"]
    lines[2] = json.dumps({**doc, "duration_inconsistent": not flag}, sort_keys=True) + "\n"
    (out / "logs.jsonl").write_text("".join(lines))
    return 3, f"duration_inconsistent must be {json.dumps(flag)}: "


def test_a_hand_edited_bad_line_is_one_located_error(tmp_path, run_dir, capsys):
    out = copy_of(run_dir, tmp_path)
    lineno, message = _contradicting_flag(out)
    assert cli.main(["filter", "--out", str(out), "--geo-offline"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out / 'logs.jsonl'}:{lineno}: {message}")
    assert err.count("\n") == 1


def test_a_hand_edited_line_under_a_redigested_manifest_is_taken_as_written(tmp_path, run_dir):
    # The trust boundary: a manifest vouches for bytes, not for who wrote them.
    out = copy_of(run_dir, tmp_path)
    lineno, _ = _contradicting_flag(out)
    redigest(out, "parse", "logs.jsonl")
    assert cli.main(["filter", "--out", str(out), "--min-duration-minutes", "1",
                     "--max-duration-minutes", "1439"]) == 0
    edited = (out / "logs.jsonl").read_text().splitlines(keepends=True)[lineno - 1]
    assert edited in (out / "filtered.jsonl").read_text()


# --- temp files are named per process ----------------------------------------

def test_a_stage_leaves_another_process_temp_files_alone(tmp_path, run_dir, corpus_dir):
    out = copy_of(run_dir, tmp_path)
    foreign = [out / "filter_rejects.csv.tmp", out / "analysis" / "robustness" / "users.csv.1.tmp"]
    for path in foreign:
        path.write_bytes(b"another process is writing this\n")
    assert cli.main(["filter", "--out", str(out), "--geo-offline"]) == 0
    manifest = json.loads((out / "manifest_filter.json").read_text())
    assert manifest["outputs"] == {name: sha256_of(out / name) for name in manifest["outputs"]}
    assert cli.main(["analyze", "--out", str(out), "--geo-offline",
                     "--timelines", str(corpus_dir / "timelines.jsonl")]) == 0
    for path in foreign:
        assert path.read_bytes() == b"another process is writing this\n"
    assert tree_hashes(out) == {
        **tree_hashes(run_dir),
        **{path.relative_to(out).as_posix(): sha256_of(path) for path in foreign},
    }


def test_two_analyze_processes_on_one_tree_each_write_whole_files(tmp_path, run_dir):
    floors = ("5", "10")
    alone = {}
    for floor in floors:  # what each writes on its own
        out = tmp_path / f"alone{floor}"
        shutil.copytree(run_dir, out)
        assert cli.main(["analyze", "--out", str(out), "--geo-offline",
                         "--min-logs-per-user", floor]) == 0
        alone[floor] = tree_hashes(out)
        assert any(name.startswith("analysis/robustness/") for name in alone[floor])
    assert alone["5"] != alone["10"]
    out = copy_of(run_dir, tmp_path)
    argvs = [[sys.executable, "-m", "sleeplog", "analyze", "--out", str(out),
              "--geo-offline", "--min-logs-per-user", floor] for floor in floors]
    children = [subprocess.Popen(argv, env=_child_env(), stdout=subprocess.DEVNULL,
                                 stderr=subprocess.PIPE) for argv in argvs]
    errors = [child.communicate(timeout=120)[1] for child in children]
    assert [child.returncode for child in children] == [0, 0], errors
    assert errors == [b"", b""]
    written = tree_hashes(out)
    assert set(written) == set(alone["5"]) == set(alone["10"])
    for name, digest in written.items():
        assert digest in (alone["5"][name], alone["10"][name]), name


# --- re-running a stage and everything after it ------------------------------

_RERUN_STAGES = ("ingest", "parse", "filter", "geo", "analyze", "report", "funnel")


@settings(deadline=None, max_examples=5)
@given(
    seed=st.integers(0, 2**16),
    users=st.integers(2, 4),
    first=st.sampled_from(_RERUN_STAGES),
    flags=st.fixed_dictionaries({
        "--min-duration-minutes": st.integers(30, 300),
        "--max-duration-minutes": st.integers(600, 1000),
        "--slack-minutes": st.integers(0, 30),
        "--min-logs-per-user": st.integers(1, 20),
        "--presleep-window-minutes": st.integers(30, 240),
        "--presleep-denominator": st.sampled_from(["night", "day"]),
        "--require-deep-sleep": st.sampled_from(["--require-deep-sleep", "--no-require-deep-sleep"]),
        "--require-anchor": st.sampled_from(["--require-anchor", "--no-require-anchor"]),
    }),
)
def test_rerunning_a_stage_and_every_later_one_writes_what_run_all_writes(
    seed, users, first, flags
):
    settings_argv = []
    for flag, value in flags.items():
        settings_argv += [value] if isinstance(value, str) and value.startswith("--") else [
            flag, str(value)]
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus"
        assert cli.main(["synth", "--out", str(corpus), "--synth-users", str(users),
                         "--seed", str(seed)]) == 0
        fresh, rerun = Path(tmp) / "fresh", Path(tmp) / "rerun"
        # Settings that leave no log to analyze stop run-all: nothing to compare.
        assume(run_all_into(fresh, corpus, Path(tmp) / "gc.json", settings_argv) == 0)
        assert run_all_into(rerun, corpus, Path(tmp) / "gc.json", settings_argv) == 0
        common = ["--out", str(rerun), "--geo-offline", "--geo-cache", str(Path(tmp) / "gc.json")]
        arguments = {"ingest": [str(corpus / "corpus.jsonl")],
                     "analyze": ["--timelines", str(corpus / "timelines.jsonl")]}
        for stage in _RERUN_STAGES[_RERUN_STAGES.index(first):]:
            argv = [stage, *arguments.get(stage, []), *common, *settings_argv]
            assert cli.main(argv) == 0, argv
        assert tree_hashes(rerun) == tree_hashes(fresh)
