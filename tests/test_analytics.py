"""Cohort analyses over hand-built logs with known planted structure."""

from __future__ import annotations

import itertools
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings, strategies as st

from sleeplog.analytics import (
    DAY_LABELS,
    EVENING_BIN,
    POST_MIDNIGHT_BIN,
    START_BIN_LABELS,
    CohortError,
    UserRecord,
    activity_cohorts,
    by_user,
    country_compare,
    dataset_summary,
    duration_by_start_bin,
    filter_min_logs,
    frequency_table,
    friends_split,
    per_user_aggregates,
    presleep_activity,
    presleep_probability,
    presleep_report,
    sleep_clock,
    start_bin_label,
    tweets_per_day,
    wake_heatmap,
)
from sleeplog.geo import CountryResolution, ResolutionMethod
from sleeplog.grammar import Separator, SleepLog, TimeNotation
from sleeplog.records import latest_profiles

_ids = iter(range(1, 100000))


def mk_log(user_id: str, start_local: datetime, duration: int,
           deep: int | None = 40, anchored: bool = True) -> SleepLog:
    end_local = start_local + timedelta(minutes=duration)
    return SleepLog(
        tweet_id=f"t{next(_ids):05d}",
        user_id=user_id,
        start_civil=start_local.time(),
        end_civil=end_local.time(),
        duration_minutes=duration,
        deep_sleep_pct=deep,
        notation=TimeNotation.H24,
        separator=Separator.COLON,
        start_local=start_local if anchored else None,
        end_local=end_local if anchored else None,
        start_utc=start_local.replace(tzinfo=timezone.utc) if anchored else None,
        end_utc=end_local.replace(tzinfo=timezone.utc) if anchored else None,
    )


def mk_user(user_id: str, duration: float = 400.0, deep: float | None = 45.0,
            **kw) -> UserRecord:
    return UserRecord(
        user_id=user_id, n_logs=kw.pop("n_logs", 10),
        avg_duration_minutes=duration, avg_deep_sleep_pct=deep, **kw,
    )


NIGHT = datetime(2015, 10, 23, 23, 0)


class TestPerUserAggregates:
    def test_hand_case(self, make_tweet):
        logs = [
            mk_log("u1", NIGHT, 400, deep=50),
            mk_log("u1", NIGHT + timedelta(days=1), 440, deep=None),
            mk_log("u2", NIGHT, 300, deep=30),
        ]
        resolutions = {"u1": CountryResolution("u1", "JP", ResolutionMethod.TIMEZONE)}
        profile = make_tweet(
            user_id="u1", statuses_count=1000,
            account_created_at=datetime(2015, 7, 16, 6, 20, tzinfo=timezone.utc),
        )  # exactly 100 days before the default created_at
        users, summary = per_user_aggregates(logs, resolutions, {"u1": profile})

        assert [u.user_id for u in users] == ["u1", "u2"]
        u1, u2 = users
        assert u1.n_logs == 2
        assert u1.avg_duration_minutes == 420.0
        assert u1.avg_deep_sleep_pct == 50.0  # the deep-less log drops out
        assert u1.country == "JP"
        assert u1.country_method == "TIMEZONE"
        assert u1.tweets_per_day == pytest.approx(10.0)
        assert u1.friends_count == 120
        assert u2.country is None and u2.tweets_per_day is None

        assert summary.n_logs == 3 and summary.n_users == 2
        assert summary.overall_mean_duration == pytest.approx(380.0)
        assert summary.mean_of_user_means_duration == pytest.approx(360.0)
        assert summary.overall_mean_deep == pytest.approx(40.0)
        assert summary.mean_of_user_means_deep == pytest.approx(40.0)

    def test_mean_of_user_means_is_exactly_rounded(self):
        users = [mk_user("a", 1e16), mk_user("b", 1.0), mk_user("c", -1e16)]
        for order in itertools.permutations(users):
            mean = dataset_summary([], order).mean_of_user_means_duration
            assert repr(mean) == "0.3333333333333333"

    @settings(deadline=None)
    @given(
        logs=st.lists(st.tuples(st.integers(1, 1439), st.none() | st.integers(0, 100)), max_size=6),
        users=st.lists(st.tuples(st.floats(0, 1e16), st.none() | st.floats(0, 100)),
                       min_size=1, max_size=6),
        data=st.data(),
    )
    def test_summary_ignores_the_order_of_logs_and_users(self, logs, users, data):
        def summary(logs, users):
            return dataset_summary(
                [mk_log("u", NIGHT, duration, deep) for duration, deep in logs],
                [mk_user(f"u{i}", duration, deep) for i, (duration, deep) in enumerate(users)],
            )

        shuffled = summary(data.draw(st.permutations(logs)), data.draw(st.permutations(users)))
        assert repr(shuffled) == repr(summary(logs, users))

    def test_empty_corpus(self):
        users, summary = per_user_aggregates([])
        assert users == [] and summary.n_logs == 0
        assert summary.overall_mean_deep is None

    def test_min_logs_threshold_inclusive(self):
        users = [mk_user("a", n_logs=4), mk_user("b", n_logs=5), mk_user("c", n_logs=6)]
        assert [u.user_id for u in filter_min_logs(users, 5)] == ["b", "c"]

    def test_by_user_groups_in_order(self):
        logs = [mk_log("b", NIGHT, 400), mk_log("a", NIGHT, 300), mk_log("b", NIGHT, 500)]
        grouped = by_user(logs)
        assert [l.duration_minutes for l in grouped["b"]] == [400, 500]

    def test_latest_profile_wins(self, make_tweet):
        old = make_tweet(user_id="u", created_at=datetime(2015, 10, 1, tzinfo=timezone.utc))
        new = make_tweet(user_id="u", created_at=datetime(2015, 10, 9, tzinfo=timezone.utc))
        assert latest_profiles([old, new])["u"] is new

    def test_tweets_per_day_floors_age_at_one_day(self, make_tweet):
        profile = make_tweet(
            statuses_count=50,
            created_at=datetime(2015, 10, 24, 8, tzinfo=timezone.utc),
            account_created_at=datetime(2015, 10, 24, 6, tzinfo=timezone.utc),
        )
        assert tweets_per_day(profile) == 50.0

    def test_tweets_per_day_missing_fields(self, make_tweet):
        assert tweets_per_day(make_tweet(statuses_count=None)) is None
        assert tweets_per_day(make_tweet(account_created_at=None)) is None


class TestSleepClock:
    def test_hand_case(self):
        logs = [
            mk_log("u", datetime(2015, 10, 23, 23, 10), 420),   # ends 06:10
            mk_log("u", datetime(2015, 10, 24, 23, 50), 430),   # ends 07:00
            mk_log("u", datetime(2015, 10, 26, 1, 0), 370),     # ends 07:10
            mk_log("u", datetime(2015, 10, 27, 12, 0), 480),    # ends 20:00
        ]
        clock = sleep_clock(logs)
        assert clock.n_logs == 4
        assert clock.start_hist[23] == pytest.approx(0.5)
        assert sum(clock.start_hist) == pytest.approx(1.0)
        assert clock.start_share_22_03 == pytest.approx(0.75)
        assert clock.end_share_05_10 == pytest.approx(0.75)
        assert clock.end_share_06_07 == pytest.approx(0.25)

    def test_empty(self):
        clock = sleep_clock([])
        assert clock.start_hist == [0.0] * 24
        assert clock.start_share_22_03 == 0.0


class TestCountryCompare:
    def users(self):
        jp = [mk_user(f"jp{i}", duration=330.0 + i, deep=52.0 - i * 0.1, country="JP")
              for i in range(12)]
        us = [mk_user(f"us{i}", duration=385.0 + i, deep=44.0 + i * 0.1, country="US")
              for i in range(12)]
        ca = [mk_user(f"ca{i}", duration=360.0 + i, country="CA") for i in range(3)]
        br = [mk_user("br0", duration=350.0, country="BR")]
        nowhere = [mk_user("x0", duration=999.0)]  # unresolved, never grouped
        return jp + us + ca + br + nowhere

    def test_two_country_duration(self):
        report = country_compare(self.users(), "JP", "US", metric="duration")
        assert report.group_order == ["JP", "US"]
        assert report.group_sizes == {"JP": 12, "US": 12}
        assert report.group_means["JP"] < report.group_means["US"]
        test = report.tests["duration"]
        assert test.p_two_sided < 0.001
        assert test.mean_diff == pytest.approx(-55.0)

    def test_rest_of_world_comparison(self):
        report = country_compare(self.users(), "JP", None, metric="duration")
        assert report.group_order == ["JP", "rest"]
        assert report.group_sizes["rest"] == 16  # US + CA + BR, not the unresolved user

    def test_deep_sleep_metric(self):
        report = country_compare(self.users(), "JP", "US", metric="deep_sleep")
        assert report.group_means["JP"] > report.group_means["US"]

    def test_deep_metric_skips_users_without_deep(self):
        users = self.users() + [mk_user("jp99", deep=None, country="JP")]
        report = country_compare(users, "JP", "US", metric="deep_sleep")
        assert report.group_sizes["JP"] == 12

    def test_small_cohort_raises(self):
        with pytest.raises(CohortError, match="'BR'"):
            country_compare(self.users(), "BR", "JP")
        with pytest.raises(CohortError):
            country_compare(self.users(), "JP", "BR")

    def test_unknown_metric_raises(self):
        with pytest.raises(ValueError):
            country_compare(self.users(), "JP", "US", metric="snoring")

    def test_population_property(self):
        report = country_compare(self.users(), "JP", "US")
        assert sum(report.group_sizes.values()) == 24


class TestDurationByStartBin:
    def logs(self):
        out = []
        for i in range(8):
            out.append(mk_log("e", datetime(2015, 10, 20 + i % 3, 19, 0), 480 + i))
            out.append(mk_log("p", datetime(2015, 10, 20 + i % 3, 0, 30), 360 + i))
        out.append(mk_log("n", datetime(2015, 10, 21, 23, 0), 400))
        return out

    def test_bin_labeling(self):
        assert start_bin_label(datetime(2015, 1, 1, 0, 0)) == "00-03"
        assert start_bin_label(datetime(2015, 1, 1, 2, 59)) == "00-03"
        assert start_bin_label(datetime(2015, 1, 1, 18, 0)) == "18-21"
        assert start_bin_label(datetime(2015, 1, 1, 23, 59)) == "21-24"

    def test_group_structure(self):
        report = duration_by_start_bin(self.logs())
        assert report.group_order == list(START_BIN_LABELS)
        assert report.group_sizes[EVENING_BIN] == 8
        assert report.group_sizes[POST_MIDNIGHT_BIN] == 8
        assert report.group_sizes["21-24"] == 1
        assert report.group_sizes["09-12"] == 0
        assert report.group_means["09-12"] is None

    def test_matrix_is_row_normalized_histogram(self):
        report = duration_by_start_bin(self.logs())
        assert len(report.matrix) == 8
        assert all(len(row) == 14 for row in report.matrix)
        evening_row = report.matrix[START_BIN_LABELS.index(EVENING_BIN)]
        assert evening_row[8] == pytest.approx(1.0)  # 480..487 min is hour 8
        assert sum(evening_row) == pytest.approx(1.0)
        empty_row = report.matrix[START_BIN_LABELS.index("09-12")]
        assert empty_row == [0.0] * 14

    def test_duration_histogram_saturates_at_last_column(self):
        report = duration_by_start_bin([mk_log("u", datetime(2015, 10, 20, 19, 0), 900)])
        evening_row = report.matrix[START_BIN_LABELS.index(EVENING_BIN)]
        assert evening_row[13] == pytest.approx(1.0)

    def test_evening_vs_post_midnight_test(self):
        report = duration_by_start_bin(self.logs())
        test = report.tests["duration"]
        assert test.mean_diff > 100
        assert test.p_two_sided < 0.01
        assert "deep_sleep" in report.tests

    def test_missing_bins_noted_not_crashed(self):
        report = duration_by_start_bin([mk_log("u", datetime(2015, 10, 20, 19, 0), 480)])
        assert "duration" not in report.tests
        assert "deep_sleep" in report.notes


class TestWakeHeatmap:
    def test_counts_and_normalization(self):
        logs = [
            mk_log("u", datetime(2015, 10, 18, 22, 0), 480),  # ends Mon 06:00
            mk_log("u", datetime(2015, 10, 19, 22, 0), 480),  # ends Tue 06:00
            mk_log("u", datetime(2015, 10, 19, 23, 0), 600),  # ends Tue 09:00
            mk_log("u", datetime(2015, 10, 24, 1, 0), 480),   # ends Sat 09:00
        ]
        heat = wake_heatmap(logs)
        assert heat.counts[0][6] == 1    # Monday 06
        assert heat.counts[1][6] == 1    # Tuesday 06
        assert heat.counts[1][9] == 1
        assert heat.counts[5][9] == 1    # Saturday 09
        assert heat.row_normalized[1][6] == pytest.approx(0.5)
        assert heat.row_normalized[2] == [0.0] * 24
        assert heat.row_labels == DAY_LABELS
        assert heat.weekend_rows == (5, 6)

    def test_unanchored_log_is_fatal(self):
        with pytest.raises(ValueError, match="not anchored"):
            wake_heatmap([mk_log("u", NIGHT, 400, anchored=False)])

    def test_weekend_shift_shows_in_rows(self):
        logs = []
        for day in (19, 20, 21, 22, 23):      # Mon..Fri wakes at 06:00
            logs.append(mk_log("u", datetime(2015, 10, day - 1, 22, 0), 480))
        for day in (24, 25):                  # Sat, Sun wake at 07:30
            logs.append(mk_log("u", datetime(2015, 10, day - 1, 23, 30), 480))
        heat = wake_heatmap(logs)
        weekday_peak = max(range(24), key=lambda h: heat.counts[0][h])
        saturday_peak = max(range(24), key=lambda h: heat.counts[5][h])
        assert weekday_peak == 6 and saturday_peak == 7


class TestPresleepProbability:
    def nights(self):
        return [
            mk_log("u", datetime(2015, 10, 23, 23, 0), 420),
            mk_log("u", datetime(2015, 10, 24, 23, 0), 420),
        ]

    def instant(self, *args):
        return datetime(*args, tzinfo=timezone.utc)

    def test_share_of_nights(self):
        timeline = [self.instant(2015, 10, 23, 22, 30)]
        assert presleep_probability(self.nights(), timeline) == pytest.approx(0.5)

    def test_window_boundaries(self):
        at_window_edge = [self.instant(2015, 10, 23, 21, 0)]   # exactly start-120
        assert presleep_probability(self.nights(), at_window_edge) == pytest.approx(0.5)
        at_start = [self.instant(2015, 10, 23, 23, 0)]         # exactly the start
        assert presleep_probability(self.nights(), at_start) == pytest.approx(0.0)

    def test_custom_window(self):
        timeline = [self.instant(2015, 10, 23, 20, 0)]  # 3 h before
        assert presleep_probability(self.nights(), timeline, window_minutes=120) == 0.0
        assert presleep_probability(self.nights(), timeline, window_minutes=200) == 0.5

    def test_day_denominator_collapses_same_date(self):
        logs = [
            mk_log("u", datetime(2015, 10, 24, 1, 0), 300),    # starts 10-24 night
            mk_log("u", datetime(2015, 10, 24, 23, 30), 420),  # same calendar date
        ]
        timeline = [self.instant(2015, 10, 24, 22, 0)]
        assert presleep_probability(logs, timeline, denominator="night") == pytest.approx(0.5)
        assert presleep_probability(logs, timeline, denominator="day") == pytest.approx(1.0)

    def test_window_reaching_before_year_one_starts_at_the_first_tweet(self):
        logs = [mk_log("u", datetime(1, 1, day, 0, 30), 420) for day in (1, 2)]
        timeline = [self.instant(1, 1, 1, 0, 0), self.instant(1, 1, 1, 0, 30)]
        assert presleep_probability(logs, timeline) == pytest.approx(0.5)
        assert presleep_probability(logs, timeline, window_minutes=10**9) == pytest.approx(1.0)

    def test_unanchored_logs_do_not_count(self):
        logs = self.nights() + [mk_log("u", NIGHT, 400, anchored=False)]
        timeline = [self.instant(2015, 10, 23, 22, 30)]
        assert presleep_probability(logs, timeline) == pytest.approx(0.5)

    def test_no_anchored_logs_is_none(self):
        assert presleep_probability([mk_log("u", NIGHT, 400, anchored=False)], []) is None

    def test_unknown_denominator_raises(self):
        with pytest.raises(ValueError):
            presleep_probability(self.nights(), [], denominator="week")

    @staticmethod
    def linear_reference(logs, timeline, window_minutes, denominator):
        """The definition itself: scan the whole timeline for every night."""
        anchored = [l for l in logs if l.anchored]
        if not anchored:
            return None
        window = timedelta(minutes=window_minutes)

        def hit(log):
            return any(log.start_utc - window <= t < log.start_utc for t in timeline)

        if denominator == "night":
            return sum(1 for l in anchored if hit(l)) / len(anchored)
        dates = {l.start_local.date() for l in anchored}
        hit_dates = {l.start_local.date() for l in anchored if hit(l)}
        return len(hit_dates) / len(dates)

    @settings(max_examples=300, deadline=None)
    @given(
        nights=st.lists(
            st.tuples(st.integers(0, 14 * 24 * 60), st.booleans()), min_size=1, max_size=8
        ),
        utc_offset_hours=st.integers(-12, 14),
        window_minutes=st.integers(1, 300),
        denominator=st.sampled_from(["night", "day"]),
        data=st.data(),
    )
    def test_matches_a_linear_scan(self, nights, utc_offset_hours, window_minutes,
                                   denominator, data):
        origin = datetime(2015, 10, 20)
        offset = timedelta(hours=utc_offset_hours)
        logs = []
        for start_minute, anchored in nights:
            log = mk_log("u", origin + timedelta(minutes=start_minute), 420, anchored=anchored)
            if anchored:  # local clock = UTC + offset, so local dates can differ
                log = replace(log, start_utc=log.start_utc - offset,
                              end_utc=log.end_utc - offset)
            logs.append(log)
        window = timedelta(minutes=window_minutes)
        second = timedelta(seconds=1)
        edges = []
        for log in logs:
            if log.anchored:
                lo = log.start_utc - window
                edges += [lo - second, lo, lo + second, log.start_utc - second, log.start_utc]
        anywhere = st.integers(-300, 15 * 24 * 60).map(
            lambda m: origin.replace(tzinfo=timezone.utc) + timedelta(minutes=m)
        )
        point = st.one_of(st.sampled_from(edges), anywhere) if edges else anywhere
        # drawn in any order, with repeats: the function must not assume a sorted timeline
        timeline = data.draw(st.lists(point, max_size=30))
        timeline += data.draw(st.lists(st.sampled_from(timeline), max_size=5)) if timeline else []
        got = presleep_probability(logs, timeline, window_minutes, denominator)
        assert got == self.linear_reference(logs, timeline, window_minutes, denominator)


class TestPresleepActivity:
    def planted(self):
        """40 users; tweeting-before-sleep share rises, deep sleep falls."""
        logs, timelines = [], {}
        for i in range(40):
            uid = f"u{i:02d}"
            hits = i % 5  # 0..4 presleep nights out of 4 -> prob 0, .25, .5, .75, 1
            prob = hits / 4.0
            deep = round(55.0 - 10.0 * prob) + (i % 7) - 3
            timeline = []
            for night in range(4):
                start = datetime(2015, 10, 20 + night, 23, 0)
                logs.append(mk_log(uid, start, 420, deep=deep))
                if night < hits:
                    timeline.append(start.replace(tzinfo=timezone.utc) - timedelta(minutes=30))
            timelines[uid] = timeline
        return logs, timelines

    def test_negative_association_recovered(self):
        logs, timelines = self.planted()
        report = presleep_activity(logs, timelines)
        assert report.n_users == 40
        assert report.correlation is not None
        assert report.correlation.r < -0.5
        assert report.correlation.p_two_sided < 0.05
        cohort = report.cohort
        assert cohort is not None
        assert cohort.group_means["Q4"] < cohort.group_means["Q1"]
        assert cohort.tests["deep_sleep_top_vs_bottom"].p_two_sided < 0.05

    def test_probabilities_reported_per_user(self):
        logs, timelines = self.planted()
        report = presleep_activity(logs, timelines)
        assert report.probabilities["u00"] == pytest.approx(0.0)
        assert report.probabilities["u04"] == pytest.approx(1.0)

    def test_users_without_timeline_coverage_excluded(self):
        logs, timelines = self.planted()
        del timelines["u00"]
        report = presleep_activity(logs, timelines)
        assert report.n_users == 39
        assert "u00" not in report.probabilities

    def test_constant_probabilities_noted(self):
        logs = [mk_log(f"u{i}", NIGHT, 420, deep=40 + i) for i in range(6)]
        timelines = {f"u{i}": [] for i in range(6)}
        report = presleep_activity(logs, timelines)
        assert report.correlation is None
        assert "correlation" in report.notes
        assert report.cohort is None
        assert "no variation" in report.notes["cohort"]

    def test_too_few_users_noted(self):
        logs = [mk_log("u0", NIGHT, 420), mk_log("u1", NIGHT, 420)]
        report = presleep_activity(logs, {"u0": [], "u1": []})
        assert report.correlation is None and report.cohort is None

    @settings(deadline=None)
    @given(
        users=st.lists(st.tuples(st.integers(0, 8).map(lambda hits: hits / 8), st.floats(0, 100)),
                       min_size=1, max_size=16),
        data=st.data(),
    )
    def test_report_ignores_the_order_of_the_users(self, users, data):
        def record(order):
            probs = {f"u{i}": users[i][0] for i in order}
            deeps = {f"u{i}": users[i][1] for i in order}
            return presleep_report(probs, deeps, 120, "night").to_record()

        order = data.draw(st.permutations(range(len(users))))
        assert repr(record(order)) == repr(record(range(len(users))))


class TestActivityCohorts:
    def planted(self):
        users, logs = [], []
        for i in range(16):
            uid = f"u{i:02d}"
            top = i >= 12
            users.append(mk_user(
                uid,
                duration=(440.0 if top else 400.0) + i * 0.5,
                tweets_per_day=float(i + 1),
            ))
            start = datetime(2015, 10, 20, 1, 0) if top else datetime(2015, 10, 20, 22, 30)
            if top or i < 4:
                logs.append(mk_log(uid, start, 420))
        return users, logs

    def test_duration_gap_detected(self):
        users, logs = self.planted()
        report = activity_cohorts(users, logs)
        assert report.group_sizes == {"Q1": 4, "Q2": 4, "Q3": 4, "Q4": 4}
        test = report.tests["duration_top_vs_bottom"]
        assert test.mean_diff > 30
        assert test.p_two_sided < 0.05

    def test_start_bin_matrix_rows(self):
        users, logs = self.planted()
        report = activity_cohorts(users, logs)
        assert report.matrix_col_labels == list(START_BIN_LABELS)
        q1_row, q4_row = report.matrix[0], report.matrix[3]
        assert q1_row[7] == pytest.approx(1.0)   # 22:30 starts
        assert q4_row[0] == pytest.approx(1.0)   # 01:00 starts
        assert report.matrix[1] == [0.0] * 8     # no logs for mid quartiles

    def test_country_scoped_rerun(self):
        users, logs = self.planted()
        for u in users[:8]:
            u.country = "JP"
        report = activity_cohorts(users, logs, country="JP")
        assert sum(report.group_sizes.values()) == 8
        assert report.grouping.endswith(":JP")

    def test_users_without_rate_excluded(self):
        users, logs = self.planted()
        users.append(mk_user("norate", tweets_per_day=None))
        report = activity_cohorts(users, logs)
        assert sum(report.group_sizes.values()) == 16

    def test_too_few_users_raises(self):
        users = [mk_user(f"u{i}", tweets_per_day=float(i)) for i in range(3)]
        with pytest.raises(CohortError):
            activity_cohorts(users, [])


class TestFriendsSplit:
    def test_median_and_groups(self):
        users = [
            mk_user("a", duration=400.0, friends_count=1),
            mk_user("b", duration=402.0, friends_count=2),
            mk_user("c", duration=441.0, friends_count=3),
            mk_user("d", duration=443.0, friends_count=4),
        ]
        report = friends_split(users)
        assert "median=2" in report.grouping
        assert report.group_sizes == {"low": 2, "high": 2}
        assert report.group_means["low"] == pytest.approx(401.0)
        assert report.group_means["high"] == pytest.approx(442.0)
        assert report.tests["duration_low_vs_high"].mean_diff == pytest.approx(-41.0)

    def test_median_ties_go_low(self):
        users = [mk_user(c, friends_count=n) for c, n in
                 [("a", 5), ("b", 5), ("c", 5), ("d", 9)]]
        report = friends_split(users)
        assert report.group_sizes == {"low": 3, "high": 1}

    def test_constant_friends_noted(self):
        users = [mk_user(f"u{i}", duration=400.0 + i, friends_count=7) for i in range(5)]
        report = friends_split(users)
        assert report.tests == {}
        assert "degenerate split" in report.notes["duration_low_vs_high"]

    def test_missing_counts_excluded(self):
        users = [mk_user(f"u{i}", friends_count=i + 1) for i in range(4)]
        users.append(mk_user("nofriends", friends_count=None))
        assert sum(friends_split(users).group_sizes.values()) == 4

    def test_too_few_raises(self):
        with pytest.raises(CohortError):
            friends_split([mk_user("a", friends_count=1)])


class TestFrequencyTable:
    def test_buckets_and_percentages(self):
        users = [mk_user(f"u{i}", n_logs=n) for i, n in enumerate([1, 1, 2, 5, 300])]
        rows = frequency_table(users)
        assert [(r.bin_label, r.n_users, r.percent) for r in rows] == [
            ("1", 2, 40), ("2-3", 1, 20), ("4-7", 1, 20), ("256+", 1, 20),
        ]

    def test_bucket_order_follows_scale(self):
        users = [mk_user(f"u{i}", n_logs=n) for i, n in enumerate([200, 3, 50])]
        rows = frequency_table(users)
        assert [r.bin_label for r in rows] == ["2-3", "32-63", "128-255"]

    def test_empty(self):
        assert frequency_table([]) == []
