"""Duration-window filtering and funnel accounting."""

from __future__ import annotations

from datetime import datetime, time, timedelta, timezone

import pytest

from sleeplog.grammar import Separator, SleepLog, TimeNotation
from sleeplog.pipeline import FilterConfig, FilteredOut, filter_logs
from sleeplog.records import PipelineLedger, RejectReason


def log_with(duration: int, *, deep: int | None = 40, anchored: bool = False,
             tweet_id: str = "t1", user_id: str = "u1") -> SleepLog:
    start_local = end_local = start_utc = end_utc = None
    if anchored:  # 23:02 to 06:12 is 430 minutes, whatever `duration` states
        end_local = datetime(2015, 10, 24, 6, 12)
        start_local = end_local - timedelta(minutes=430)
        start_utc = start_local.replace(tzinfo=timezone.utc)
        end_utc = end_local.replace(tzinfo=timezone.utc)
    return SleepLog(
        tweet_id=tweet_id, user_id=user_id,
        start_civil=time(23, 2), end_civil=time(6, 12),
        duration_minutes=duration, deep_sleep_pct=deep,
        notation=TimeNotation.H24, separator=Separator.COLON,
        start_local=start_local, end_local=end_local,
        start_utc=start_utc, end_utc=end_utc,
    )


class TestFilterBoundaries:
    @pytest.mark.parametrize("duration, is_kept", [
        (119, False), (120, True), (121, True),
        (419, True), (719, True), (720, True), (721, False),
    ])
    def test_window_is_inclusive(self, duration, is_kept):
        kept, _ = filter_logs([log_with(duration)], FilterConfig())
        assert (len(kept) == 1) is is_kept

    def test_reason_below_window(self):
        _, rejected = filter_logs([log_with(30)], FilterConfig())
        assert rejected == [FilteredOut("t1", RejectReason.TOO_SHORT)]

    def test_reason_above_window(self):
        _, rejected = filter_logs([log_with(900)], FilterConfig())
        assert rejected[0].reason is RejectReason.TOO_LONG

    def test_custom_window(self):
        cfg = FilterConfig(min_duration_minutes=60, max_duration_minutes=600)
        kept, _ = filter_logs([log_with(61), log_with(599)], cfg)
        assert len(kept) == 2

    def test_default_config_when_omitted(self):
        kept, rejected = filter_logs([log_with(119), log_with(120)])
        assert len(kept) == 1 and len(rejected) == 1


class TestRequireFlags:
    def test_missing_deep_sleep_rejected_when_required(self):
        cfg = FilterConfig(require_deep_sleep=True)
        _, rejected = filter_logs([log_with(400, deep=None)], cfg)
        assert rejected[0].reason is RejectReason.MISSING_DEEP_SLEEP

    def test_missing_deep_sleep_kept_by_default(self):
        kept, _ = filter_logs([log_with(400, deep=None)], FilterConfig())
        assert len(kept) == 1

    def test_unanchored_rejected_when_required(self):
        cfg = FilterConfig(require_anchor=True)
        _, rejected = filter_logs([log_with(400, anchored=False)], cfg)
        assert rejected[0].reason is RejectReason.ANCHOR_UNRESOLVED

    def test_anchored_passes_require_anchor(self):
        cfg = FilterConfig(require_anchor=True)
        kept, _ = filter_logs([log_with(400, anchored=True)], cfg)
        assert len(kept) == 1

    def test_duration_reason_takes_precedence(self):
        cfg = FilterConfig(require_deep_sleep=True, require_anchor=True)
        _, rejected = filter_logs([log_with(30, deep=None)], cfg)
        assert rejected[0].reason is RejectReason.TOO_SHORT

    def test_deep_sleep_precedes_anchor(self):
        cfg = FilterConfig(require_deep_sleep=True, require_anchor=True)
        _, rejected = filter_logs([log_with(400, deep=None, anchored=False)], cfg)
        assert rejected[0].reason is RejectReason.MISSING_DEEP_SLEEP


class TestFilterBookkeeping:
    def test_ledger_stage_conservation(self):
        logs = [log_with(d, tweet_id=f"t{i}") for i, d in enumerate([30, 400, 900, 500])]
        ledger = PipelineLedger()
        kept, rejected = filter_logs(logs, FilterConfig())
        ledger.account("filter", kept, (r.reason for r in rejected))
        (entry,) = ledger.stages
        assert entry.name == "filter"
        assert entry.input == 4
        assert entry.kept == len(kept) == 2
        assert entry.rejected_by_reason == {"TOO_SHORT": 1, "TOO_LONG": 1}

    def test_distinct_users_counts_kept_only(self):
        logs = [
            log_with(400, tweet_id="t1", user_id="alice"),
            log_with(30, tweet_id="t2", user_id="bob"),
            log_with(500, tweet_id="t3", user_id="alice"),
        ]
        ledger = PipelineLedger()
        kept, rejected = filter_logs(logs, FilterConfig())
        ledger.account("filter", kept, (r.reason for r in rejected))
        assert ledger.stages[0].distinct_users_kept == 1

    def test_no_ledger_write_when_omitted(self):
        kept, rejected = filter_logs([log_with(400)], FilterConfig())
        assert len(kept) == 1 and rejected == []

    def test_invalid_window_raises(self):
        with pytest.raises(ValueError):
            FilterConfig(min_duration_minutes=500, max_duration_minutes=400)

    def test_nonpositive_minimum_raises(self):
        with pytest.raises(ValueError):
            FilterConfig(min_duration_minutes=0)


class TestFunnel:
    def ledger(self) -> PipelineLedger:
        ledger = PipelineLedger()
        ledger.record("ingest", 10, 9, {"MALFORMED_JSON": 1}, 4)
        ledger.record("parse", 9, 6, {"NOT_SLEEP_LOG": 2, "UNPARSEABLE_TIME": 1}, 3)
        ledger.record("filter", 6, 5, {"TOO_SHORT": 1}, 3)
        return ledger

    def test_rows_one_per_stage_in_order(self):
        ledger = self.ledger()
        ledger.validate_chain()
        rows = ledger.stages
        assert [r.name for r in rows] == ["ingest", "parse", "filter"]
        assert [r.input for r in rows] == [10, 9, 6]
        assert [r.kept for r in rows] == [9, 6, 5]
        assert [r.distinct_users_kept for r in rows] == [4, 3, 3]

    def test_broken_chain_rejected(self):
        ledger = self.ledger()
        ledger.record("extra", 99, 99, {}, 1)
        with pytest.raises(AssertionError):
            ledger.validate_chain()

    def test_unbalanced_stage_rejected_at_record_time(self):
        ledger = PipelineLedger()
        with pytest.raises(AssertionError):
            ledger.record("ingest", 10, 9, {}, 1)
