"""Synthetic corpus generation: determinism, labeling, end-to-end scoring."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sleeplog import synth
from sleeplog.grammar import parse_tweet, Rejection, SleepLog
from sleeplog.pipeline import FilterConfig, filter_logs
from sleeplog.records import RawTweet, dedupe, ingest
from sleeplog.synth import (
    SynthConfig,
    generate,
    score,
    write_corpus,
)


def small_config(**overrides) -> SynthConfig:
    base = dict(n_users=25, logs_per_user_range=(2, 40), days=30)
    base.update(overrides)
    return SynthConfig(**base)


# Every injection kind on, often enough to show up in a small corpus.
ALL_KINDS = {k: 0.04 for k in ("spam", "non_english", "too_short", "too_long", "duplicate")}


def _pinned_digests(config: SynthConfig, tmp_path) -> dict[str, str]:
    """sha256 of the written corpus, timelines and truth; truth after its meta line."""
    paths = write_corpus(generate(config), str(tmp_path))
    digests = {}
    for key in ("corpus", "timelines", "truth"):
        data = Path(paths[key]).read_bytes()
        if key == "truth":
            data = data.split(b"\n", 1)[1]
        digests[key] = hashlib.sha256(data).hexdigest()
    return digests


def run_pipeline(result):
    """Library-level ingest -> dedupe -> parse -> filter over a SynthResult."""
    lines = [tweet.to_json() for tweet in result.tweets]
    tweets, ingest_rejects = ingest(lines)
    tweets, dupe_rejects = dedupe(tweets)
    kept_logs: list[SleepLog] = []
    rejected: dict[str, str] = {r.tweet_id: r.reason.value
                                for r in ingest_rejects + dupe_rejects if r.tweet_id}
    for tweet in tweets:
        outcome = parse_tweet(tweet)
        if isinstance(outcome, Rejection):
            rejected[tweet.tweet_id] = outcome.reason.value
        else:
            kept_logs.append(outcome)
    kept_logs, filtered = filter_logs(kept_logs, FilterConfig())
    for out in filtered:
        rejected[out.tweet_id] = out.reason.value
    return kept_logs, rejected


class TestDeterminism:
    def test_same_config_same_corpus(self):
        a = generate(small_config())
        b = generate(small_config())
        assert a.tweets == b.tweets
        assert a.timelines == b.timelines
        assert a.truth == b.truth
        assert a.manifest == b.manifest

    def test_different_seed_different_corpus(self):
        a = generate(small_config())
        b = generate(small_config(seed=7))
        assert a.tweets != b.tweets
        assert a.manifest["run_id"] != b.manifest["run_id"]

    def test_run_id_depends_on_every_knob(self):
        assert small_config().run_id() != small_config(start_window_share=0.5).run_id()

    def test_written_files_byte_identical(self, tmp_path):
        write_corpus(generate(small_config()), str(tmp_path / "a"))
        write_corpus(generate(small_config()), str(tmp_path / "b"))
        for name in ("corpus.jsonl", "timelines.jsonl", "truth.jsonl", "synth_manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_corpus_bytes_are_pinned(self, tmp_path):
        # The benchmark's corpora come from this generator, so a change that
        # moves its bytes must show here.  truth.jsonl is pinned after its
        # meta line, which carries the config hash.  Every injection kind is on.
        assert _pinned_digests(small_config(injection_rates=ALL_KINDS), tmp_path) == {
            "corpus": "3100852c614ff68dc090ebe324da5a686237e3d3fd43de9fec00399ba7fb1a2e",
            "timelines": "48ee5b383002822508afeeced2298881e81b956ee3b0ac2cd8b72b428e470b7a",
            "truth": "e50ce9ccf3e03dbea4532203075cf0cd35458ee09c1177b8a43cc7ea4ce5e153",
        }

    def test_heavy_corpus_bytes_are_pinned(self, tmp_path):
        # Shaped like the heavy10x benchmark: few users, hundreds of nights
        # each over 600 days (the calendar crosses two year ends), and a busy
        # timeline.
        config = SynthConfig(
            n_users=6,
            logs_per_user_range=(10, 400),
            days=600,
            timeline_background_mean=20.0,
            injection_rates=ALL_KINDS,
        )
        assert _pinned_digests(config, tmp_path) == {
            "corpus": "6be95ae730a86c38144335e6164428ea131eb60340d13568c1b58d18a889f8f1",
            "timelines": "75c3eded4b40ab711de3d19e91f9e5367ee5279800e5e204b4d2317e714b23df",
            "truth": "4fc9d8a0cb81713ee356b5d1c06f6d314a6c8db4361403ef0f57dc1ef6296593",
        }


@pytest.fixture(scope="module")
def result():
    return generate(small_config(injection_rates=ALL_KINDS))


class TestCorpusShape:

    def test_truth_covers_exactly_the_corpus(self, result):
        truth_ids = {r["tweet_id"] for r in result.truth if r.get("record") != "meta"}
        corpus_ids = {tweet.tweet_id for tweet in result.tweets}
        assert truth_ids == corpus_ids

    def test_truth_meta_line_first(self, result):
        assert result.truth[0] == {"record": "meta", "run_id": result.manifest["run_id"]}

    def test_tweets_sorted_by_time_then_id(self, result):
        keys = [(tweet.created_at, tweet.tweet_id) for tweet in result.tweets]
        assert keys == sorted(keys)

    def test_corpus_records_ingest_cleanly(self, result, tmp_path):
        # Every written tweet line reads back as the RawTweet it was written
        # from, spam's null profile fields and fullwidth digits included.
        paths = write_corpus(result, str(tmp_path))
        for key, tweets in (("corpus", result.tweets), ("timelines", result.timelines)):
            lines = Path(paths[key]).read_text(encoding="utf-8").splitlines()
            assert [RawTweet.from_record(json.loads(line)) for line in lines] == tweets

    def test_duplicate_labels_match_repeated_texts(self, result):
        dup_ids = {r["tweet_id"] for r in result.truth
                   if r.get("reason") == "DUPLICATE_CONTENT"}
        by_user: dict[str, list[RawTweet]] = {}
        for tweet in result.tweets:
            by_user.setdefault(tweet.user_id, []).append(tweet)
        for user_id, tweets in by_user.items():
            texts = [t.text for t in tweets]
            n_repeats = len(texts) - len(set(texts))
            n_labeled = sum(1 for t in tweets if t.tweet_id in dup_ids)
            assert n_repeats == n_labeled, user_id

    def test_all_notation_variants_generated(self, result):
        seen = {
            f"{r['true_fields']['notation']}:{r['true_fields']['separator']}"
            for r in result.truth
            if r.get("label") == "valid"
        }
        assert seen == {
            "H24:COLON", "H24:DOT",
            "H12_AMPM:COLON", "H12_AMPM:DOT",
            "H12_DOTTED_AMPM:COLON", "H12_DOTTED_AMPM:DOT",
        }

    def test_every_injection_kind_appears(self, result):
        reasons = {r["reason"] for r in result.truth if r.get("label") == "invalid"}
        assert reasons == {
            "NOT_SLEEP_LOG", "NON_ENGLISH_NOTATION", "DUPLICATE_CONTENT",
            "TOO_SHORT", "TOO_LONG",
        }

    def test_manifest_counts_are_consistent(self, result):
        counts = result.manifest["counts"]
        assert counts["tweets_total"] == len(result.tweets)
        labeled = sum(v for k, v in counts.items() if k != "tweets_total")
        assert labeled == len(result.tweets)

    def test_timeline_tweets_are_chatter(self, result):
        assert result.timelines, "expected timeline tweets at default rates"
        for tweet in result.timelines:
            assert not tweet.text.startswith("Sleep as Android:")
            assert tweet.tweet_id[0] in "mb"

    def test_country_mix_roughly_honored(self):
        result = generate(small_config(n_users=300, logs_per_user_range=(1, 2)))
        countries: dict[str, str] = {}
        for record in result.truth:
            if record.get("label") == "valid":
                fields = record["true_fields"]
                countries[fields["user_id"]] = fields["country"]
        shares = {c: sum(1 for v in countries.values() if v == c) / len(countries)
                  for c in set(countries.values())}
        assert shares["JP"] == pytest.approx(0.44, abs=0.08)
        assert shares["US"] == pytest.approx(0.14, abs=0.06)


@pytest.fixture(scope="module")
def scored():
    result = generate(small_config(n_users=40))
    kept, rejected = run_pipeline(result)
    report = score(result.truth, kept, rejected,
                   planted=result.manifest["planted"])
    return result, report


class TestScoring:

    def test_perfect_precision_recall(self, scored):
        _, report = scored
        assert report.valid.precision == 1.0
        assert report.valid.recall == 1.0
        for reason, pr in report.per_reason.items():
            assert pr.precision == 1.0, reason
            assert pr.recall == 1.0, reason

    def test_notation_recall_all_variants(self, scored):
        _, report = scored
        assert len(report.per_notation_recall) == 6
        assert all(v == 1.0 for v in report.per_notation_recall.values())

    def test_recovered_start_window_share(self, scored):
        _, report = scored
        entry = report.recovered["start_window_share"]
        assert entry["planted"] == 0.77
        assert entry["abs_error"] < 0.06

    def test_recovered_duration_means(self, scored):
        _, report = scored
        for country in ("JP", "US"):
            entry = report.recovered[f"duration_mean:{country}"]
            assert abs(entry["recovered"] - entry["planted"]) < 20.0

    def test_foreign_tweet_id_is_fatal(self, scored):
        result, _ = scored
        with pytest.raises(ValueError, match="not in the ground truth"):
            score(result.truth, [], {"zzz999": "NOT_SLEEP_LOG"})

    def test_run_id_mismatch_is_fatal(self, scored):
        result, _ = scored
        score(result.truth, [], {}, pipeline_run_id=small_config(n_users=40).run_id())
        other_run = small_config(n_users=40, seed=1).run_id()
        with pytest.raises(ValueError, match=f"run id mismatch: truth .* vs pipeline {other_run}"):
            score(result.truth, [], {}, pipeline_run_id=other_run)

    def test_meta_run_id_checked_against_pipeline(self, scored):
        result, _ = scored
        with pytest.raises(ValueError, match="run id mismatch"):
            score(result.truth, [], {}, pipeline_run_id="not-the-run")


class TestWrittenCorpus:
    def test_written_files_parse_and_align(self, tmp_path):
        result = generate(small_config())
        paths = write_corpus(result, str(tmp_path))
        corpus_lines = Path(paths["corpus"]).read_text().splitlines()
        assert len(corpus_lines) == len(result.tweets)
        assert corpus_lines[0] == result.tweets[0].to_json()
        manifest = json.loads(Path(paths["manifest"]).read_text())
        assert manifest["run_id"] == result.manifest["run_id"]
        truth_lines = Path(paths["truth"]).read_text().splitlines()
        assert json.loads(truth_lines[0])["record"] == "meta"

    def test_zero_injection_config_yields_pure_corpus(self):
        config = small_config(
            injection_rates={k: 0.0 for k in
                             ("spam", "non_english", "too_short", "too_long", "duplicate")},
            deep_absent_rate=0.0,
        )
        result = generate(config)
        assert all(r.get("label") == "valid" for r in result.truth
                   if r.get("record") != "meta")
        kept, rejected = run_pipeline(result)
        assert rejected == {}
        assert len(kept) == result.manifest["counts"]["valid"]


# Text that JSON must escape: quotes, backslashes, control and non-BMP
# characters, lone surrogates, next to anything else Unicode holds.
TEXT = st.text(st.one_of(
    st.sampled_from('"\\/\x00\x1f\x7f\u2028\U0001f634'),
    st.characters(exclude_categories=()),
))


@st.composite
def truth_records(draw) -> dict:
    """A record shaped like one `generate` puts in `truth`, or its meta line, holding any
    strings and integers, and None wherever `generate` may write null."""
    if draw(st.booleans()):
        return {"record": "meta", "run_id": draw(TEXT)}
    true_fields = None if draw(st.booleans()) else {
        "user_id": draw(TEXT),
        "country": draw(TEXT),
        "start_local": draw(TEXT),
        "end_local": draw(TEXT),
        "duration_minutes": draw(st.integers()),
        "deep_sleep_pct": draw(st.none() | st.integers()),
        "notation": draw(TEXT),
        "separator": draw(TEXT),
    }
    return {
        "tweet_id": draw(TEXT),
        "label": draw(st.sampled_from(["valid", "invalid"]) | TEXT),
        "reason": draw(st.none() | TEXT),
        "true_fields": true_fields,
    }


class TestTruthEncoder:
    def test_same_bytes_as_json_dumps_for_every_generated_record(self, result):
        for doc in result.truth:
            assert synth._truth_line(doc) == json.dumps(doc, ensure_ascii=True)

    @settings(deadline=None)
    @given(truth_records())
    def test_same_bytes_as_json_dumps_for_any_values(self, doc):
        assert synth._truth_line(doc) == json.dumps(doc, ensure_ascii=True)
