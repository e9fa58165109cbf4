"""Sleep-log grammar: parsing, formatting, rejection reasons, date anchoring.

parse_tweet is regex-driven, so the reference implementation here is a
deliberately different token-scanning parser; agreement between the two on
generated texts is the main correctness argument.
"""

from __future__ import annotations

import dataclasses
import json
import random
from datetime import datetime, time, timedelta, timezone
from zoneinfo import ZoneInfo

import pytest
from hypothesis import given, settings, strategies as st

from sleeplog import grammar
from sleeplog.grammar import (
    Rejection,
    Separator,
    SleepLog,
    TimeNotation,
    anchor_dates,
    parse_tweet,
    recomputed_duration,
    sleeplog_text,
    written_log,
)
from sleeplog.records import RawTweet, RejectReason

PREFIX = "Sleep as Android: "


# --- Independent oracle parser ---------------------------------------------------

def _oracle_time(token: str, meridiem: str | None) -> time | None:
    for sep in (":", "."):
        if sep in token:
            hh, _, mm = token.partition(sep)
            break
    else:
        return None
    if not (hh.isdigit() and mm.isdigit() and len(mm) == 2 and 1 <= len(hh) <= 2):
        return None
    hour, minute = int(hh), int(mm)
    if minute > 59:
        return None
    if meridiem is not None:
        if hour > 12:
            return None
        hour = hour % 12 + (12 if meridiem.lower().replace(".", "") == "pm" else 0)
    elif hour > 23:
        return None
    return time(hour, minute)


def oracle_parse(text: str) -> dict | None:
    """Token-scanning reference parse; returns fields or None when invalid."""
    if not text.startswith(PREFIX) or "sleeping for " not in text:
        return None
    tail = text.split("sleeping for ", 1)[1]
    if " from " not in tail:
        return None
    dur_tok, _, rest = tail.partition(" from ")
    if " to " not in rest:
        return None
    start_part, _, rest = rest.partition(" to ")
    deep = None
    if " with " in rest and "% deep sleep" in rest:
        end_part, _, deep_tail = rest.partition(" with ")
        deep_tok = deep_tail.split("% deep sleep", 1)[0]
        if deep_tok.isdigit():
            if int(deep_tok) > 100:
                return None
            deep = int(deep_tok)
        # A non-numeric "with ...% deep sleep" tail is not the deep clause at
        # all, just trailing junk; the log still parses without deep sleep.
    else:
        end_part = rest.split(" #", 1)[0].split(" with ", 1)[0]

    def split_meridiem(part: str) -> tuple[str, str | None]:
        tokens = part.split(" ")
        if len(tokens) >= 2 and tokens[1] in ("AM", "PM", "am", "pm", "a.m.", "p.m."):
            return tokens[0], tokens[1]
        return tokens[0], None

    start_tok, start_mer = split_meridiem(start_part)
    end_tok, end_mer = split_meridiem(end_part.strip())
    if (start_mer is None) != (end_mer is None):
        return None
    start = _oracle_time(start_tok, start_mer)
    end = _oracle_time(end_tok, end_mer)
    dur = _oracle_time(dur_tok, None)
    if start is None or end is None or dur is None:
        return None
    duration = dur.hour * 60 + dur.minute
    if duration == 0:
        return None
    return {
        "start": start,
        "end": end,
        "duration": duration,
        "deep": deep,
        "h24": start_mer is None,
    }


def text_of(log: SleepLog) -> str:
    """The canonical tweet text that `parse_tweet` must read back as `log`."""
    start, end = log.start_civil, log.end_civil
    return sleeplog_text(
        log.notation.value, log.separator.value, start.hour * 60 + start.minute,
        end.hour * 60 + end.minute, log.duration_minutes, log.deep_sleep_pct,
    )


def random_log(rng: random.Random, tweet_id: str = "t", user_id: str = "u") -> SleepLog:
    start = time(rng.randrange(24), rng.randrange(60))
    end = time(rng.randrange(24), rng.randrange(60))
    # Stated durations live in 1..1439 (duration hour field is 0-23); equal
    # start/end recomputes to 1440, which no tweet text can state.
    if rng.random() < 0.7 and start != end:
        stated = recomputed_duration(start, end)
    else:
        stated = rng.randrange(1, 1440)
    deep = rng.choice([None, rng.randrange(0, 101)])
    return SleepLog(
        tweet_id=tweet_id,
        user_id=user_id,
        start_civil=start,
        end_civil=end,
        duration_minutes=stated,
        deep_sleep_pct=deep,
        notation=rng.choice(list(TimeNotation)),
        separator=rng.choice(list(Separator)),
    )


class TestAgainstOracle:
    def test_oracle_agrees_on_generated_corpus(self, make_tweet):
        rng = random.Random(99)
        for i in range(2000):
            log = random_log(rng)
            tweet = make_tweet(text=text_of(log))
            parsed = parse_tweet(tweet)
            reference = oracle_parse(tweet.text)
            assert isinstance(parsed, SleepLog), tweet.text
            assert reference is not None, tweet.text
            assert parsed.start_civil == reference["start"]
            assert parsed.end_civil == reference["end"]
            assert parsed.duration_minutes == reference["duration"]
            assert parsed.deep_sleep_pct == reference["deep"]
            assert (parsed.notation is TimeNotation.H24) == reference["h24"]

    def test_oracle_agrees_on_rejection_of_mangled_texts(self, make_tweet):
        rng = random.Random(7)
        mangled = 0
        for _ in range(500):
            text = text_of(random_log(rng))
            pos = rng.randrange(len(PREFIX), len(text))
            if not text[pos].isdigit():
                continue
            # Blow away one time digit with a letter: both parsers must reject.
            text = text[:pos] + "Q" + text[pos + 1:]
            outcome = parse_tweet(make_tweet(text=text))
            if isinstance(outcome, Rejection):
                assert oracle_parse(text) is None or outcome.reason in (
                    RejectReason.UNPARSEABLE_TIME,
                )
                mangled += 1
            else:
                # A digit inside a 2-digit hour can degrade to a valid 1-digit
                # hour; then both parsers must agree on the fields.
                ref = oracle_parse(text)
                assert ref is not None
                assert outcome.start_civil == ref["start"]
        assert mangled > 50


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(
        start_h=st.integers(0, 23), start_m=st.integers(0, 59),
        end_h=st.integers(0, 23), end_m=st.integers(0, 59),
        stated=st.integers(1, 1439),
        deep=st.one_of(st.none(), st.integers(0, 100)),
        notation=st.sampled_from(list(TimeNotation)),
        separator=st.sampled_from(list(Separator)),
    )
    def test_parse_inverts_format(self, start_h, start_m, end_h, end_m,
                                  stated, deep, notation, separator):
        start, end = time(start_h, start_m), time(end_h, end_m)
        log = SleepLog(
            tweet_id="t1", user_id="u1",
            start_civil=start, end_civil=end,
            duration_minutes=stated, deep_sleep_pct=deep,
            notation=notation, separator=separator,
        )
        from sleeplog.records import RawTweet
        tweet = RawTweet(
            tweet_id="t1", text=text_of(log),
            created_at=datetime(2015, 10, 24, 6, tzinfo=timezone.utc),
            user_id="u1", screen_name="s",
        )
        assert parse_tweet(tweet) == log

    def test_explicit_notation_override(self):
        text = sleeplog_text("H12_DOTTED_AMPM", "DOT", 23 * 60 + 40, 5 * 60 + 53, 373, 21)
        assert "11.40 p.m." in text and "5.53 a.m." in text and "6.13" in text


class TestNotationVariants:
    CASES = [
        ("7:10 from 23:02 to 6:12", time(23, 2), time(6, 12), TimeNotation.H24, Separator.COLON),
        ("7.10 from 23.02 to 6.12", time(23, 2), time(6, 12), TimeNotation.H24, Separator.DOT),
        ("7:10 from 11:02 PM to 6:12 AM", time(23, 2), time(6, 12), TimeNotation.H12_AMPM, Separator.COLON),
        ("7.10 from 11.02 PM to 6.12 AM", time(23, 2), time(6, 12), TimeNotation.H12_AMPM, Separator.DOT),
        ("7:10 from 11:02 p.m. to 6:12 a.m.", time(23, 2), time(6, 12), TimeNotation.H12_DOTTED_AMPM, Separator.COLON),
        ("7.10 from 11.02 p.m. to 6.12 a.m.", time(23, 2), time(6, 12), TimeNotation.H12_DOTTED_AMPM, Separator.DOT),
    ]

    @pytest.mark.parametrize("clause, start, end, notation, separator", CASES)
    def test_variant(self, make_tweet, clause, start, end, notation, separator):
        tweet = make_tweet(text=f"{PREFIX}I was sleeping for {clause} #sleep_as_android")
        log = parse_tweet(tweet)
        assert isinstance(log, SleepLog)
        assert (log.start_civil, log.end_civil) == (start, end)
        assert log.notation is notation and log.separator is separator

    def test_midnight_noon_twelve_oclock(self, make_tweet):
        log = parse_tweet(make_tweet(
            text=f"{PREFIX}sleeping for 12:00 from 12:30 AM to 12:30 PM"
        ))
        assert log.start_civil == time(0, 30)
        assert log.end_civil == time(12, 30)

    def test_lowercase_meridiem(self, make_tweet):
        log = parse_tweet(make_tweet(text=f"{PREFIX}sleeping for 8:00 from 10:00 pm to 6:00 am"))
        assert isinstance(log, SleepLog)
        assert log.start_civil == time(22, 0)

    def test_junk_between_prefix_and_template(self, make_tweet):
        log = parse_tweet(make_tweet(
            text=f"{PREFIX}Oh wow I was sleeping for 6:00 from 1:00 to 7:00 today #sleep_as_android"
        ))
        assert isinstance(log, SleepLog)
        assert log.duration_minutes == 360


class TestRejections:
    def reason(self, make_tweet, text: str) -> Rejection:
        outcome = parse_tweet(make_tweet(text=text))
        assert isinstance(outcome, Rejection), f"unexpectedly parsed: {text}"
        return outcome

    def test_missing_prefix(self, make_tweet):
        r = self.reason(make_tweet, "I was sleeping for 7:10 from 23:02 to 6:12")
        assert r.reason is RejectReason.NOT_SLEEP_LOG

    def test_prefix_without_template(self, make_tweet):
        r = self.reason(make_tweet, f"{PREFIX}best alarm app ever #sleep_as_android")
        assert r.reason is RejectReason.NOT_SLEEP_LOG

    def test_fullwidth_digits(self, make_tweet):
        text = f"{PREFIX}I was sleeping for 7:10 from ２３:０２ to 6:12 #sleep_as_android"
        r = self.reason(make_tweet, text)
        assert r.reason is RejectReason.NON_ENGLISH_NOTATION
        lo, hi = r.span
        assert "２３" in text[lo:hi] or "０２" in text[lo:hi]

    def test_fullwidth_separator_and_digits(self, make_tweet):
        text = f"{PREFIX}sleeping for 7:10 from ７：０２ to 6:12"
        r = self.reason(make_tweet, text)
        assert r.reason is RejectReason.NON_ENGLISH_NOTATION

    def test_non_ascii_meridiem(self, make_tweet):
        text = f"{PREFIX}sleeping for 7:10 from 11:02 午後 to 6:12 午前"
        r = self.reason(make_tweet, text)
        assert r.reason is RejectReason.NON_ENGLISH_NOTATION

    def test_non_english_beats_unparseable(self, make_tweet):
        # Fullwidth digits AND an out-of-range minute: notation wins.
        text = f"{PREFIX}sleeping for 7:10 from ２３:０２ to 6:72"
        r = self.reason(make_tweet, text)
        assert r.reason is RejectReason.NON_ENGLISH_NOTATION

    def test_hour_out_of_range(self, make_tweet):
        text = f"{PREFIX}sleeping for 7:10 from 25:02 to 6:12"
        r = self.reason(make_tweet, text)
        assert r.reason is RejectReason.UNPARSEABLE_TIME
        lo, hi = r.span
        assert text[lo:hi] == "25"

    def test_minute_out_of_range(self, make_tweet):
        r = self.reason(make_tweet, f"{PREFIX}sleeping for 7:10 from 23:02 to 6:72")
        assert r.reason is RejectReason.UNPARSEABLE_TIME

    def test_meridiem_hour_above_twelve(self, make_tweet):
        r = self.reason(make_tweet, f"{PREFIX}sleeping for 7:10 from 23:02 PM to 6:12 AM")
        assert r.reason is RejectReason.UNPARSEABLE_TIME

    def test_meridiem_on_one_endpoint_only(self, make_tweet):
        r = self.reason(make_tweet, f"{PREFIX}sleeping for 7:10 from 11:02 PM to 6:12")
        assert r.reason is RejectReason.UNPARSEABLE_TIME

    def test_zero_duration(self, make_tweet):
        r = self.reason(make_tweet, f"{PREFIX}sleeping for 0:00 from 23:02 to 6:12")
        assert r.reason is RejectReason.UNPARSEABLE_TIME

    def test_deep_sleep_above_100(self, make_tweet):
        r = self.reason(
            make_tweet, f"{PREFIX}sleeping for 7:10 from 23:02 to 6:12 with 150% deep sleep"
        )
        assert r.reason is RejectReason.UNPARSEABLE_TIME

    def test_word_duration_token(self, make_tweet):
        r = self.reason(make_tweet, f"{PREFIX}sleeping for seven hours from 23:02 to 6:12")
        assert r.reason is RejectReason.UNPARSEABLE_TIME

    def test_missing_from_to_clause(self, make_tweet):
        r = self.reason(make_tweet, f"{PREFIX}sleeping for 7:10 #sleep_as_android")
        assert r.reason is RejectReason.MISSING_FIELDS

    def test_missing_duration_and_times(self, make_tweet):
        r = self.reason(make_tweet, f"{PREFIX}sleeping for  from  to  #sleep_as_android")
        assert r.reason is RejectReason.MISSING_FIELDS

    def test_span_is_within_text(self, make_tweet):
        text = f"{PREFIX}sleeping for 7:10 from 99:00 to 6:12"
        r = self.reason(make_tweet, text)
        lo, hi = r.span
        assert 0 <= lo < hi <= len(text)


class TestDurationConsistency:
    def test_consistent_flag_false(self, make_tweet):
        log = parse_tweet(make_tweet(text=f"{PREFIX}sleeping for 7:10 from 23:02 to 6:12"))
        assert log.duration_inconsistent is False

    def test_off_by_one_tolerated(self, make_tweet):
        log = parse_tweet(make_tweet(text=f"{PREFIX}sleeping for 7:09 from 23:02 to 6:12"))
        assert log.duration_inconsistent is False

    def test_off_by_two_flagged(self, make_tweet):
        log = parse_tweet(make_tweet(text=f"{PREFIX}sleeping for 7:08 from 23:02 to 6:12"))
        assert log.duration_inconsistent is True

    def test_recomputed_equal_times_is_full_day(self):
        assert recomputed_duration(time(6, 0), time(6, 0)) == 1440

    def test_recomputed_wraps_midnight(self):
        assert recomputed_duration(time(23, 30), time(6, 30)) == 420


# --- Date anchoring ---------------------------------------------------------------

def oracle_anchor(start_civil, end_civil, tweet_local, slack_minutes):
    """Brute-force: scan day by day for the latest candidates.

    Raises OverflowError when the cutoff, or every candidate, leaves datetime's range.
    """
    cutoff = tweet_local + timedelta(minutes=slack_minutes)
    end = _latest(end_civil, cutoff.date(), lambda candidate: candidate <= cutoff)
    start = _latest(start_civil, end.date(), lambda candidate: candidate < end)
    return start, end


def _latest(civil, day, fits):
    best = None
    for back in range(-2, 4):
        try:
            candidate = datetime.combine(day - timedelta(days=back), civil)
        except OverflowError:
            continue
        if fits(candidate) and (best is None or candidate > best):
            best = candidate
    if best is None:
        raise OverflowError("no candidate within datetime's range")
    return best


def oracle_instants(tweet, start_civil, end_civil, slack_minutes):
    """The four instants by the conversion that whole-minute anchoring replaced:
    `astimezone` to the tweet's local time, the brute-force anchor, then
    `replace(tzinfo=tz).astimezone(utc)`.  All None when a date leaves datetime's
    range, or when a spring-forward gap leaves the sleep no length in UTC.
    """
    offset = tweet.utc_offset_seconds
    tz = ZoneInfo(tweet.time_zone) if offset is None else timezone(timedelta(seconds=offset))
    try:
        tweet_local = tweet.created_at.astimezone(tz).replace(tzinfo=None)
        start_local, end_local = oracle_anchor(start_civil, end_civil, tweet_local, slack_minutes)
        start_utc = start_local.replace(tzinfo=tz).astimezone(timezone.utc)
        end_utc = end_local.replace(tzinfo=tz).astimezone(timezone.utc)
    except OverflowError:
        return None, None, None, None
    if end_utc <= start_utc:
        return None, None, None, None
    return start_local, end_local, start_utc, end_utc


SLACKS = [0, 15, 120, 1440, 2000]

# UTC instants of the 2015 clock changes: Sydney's spring-forward and fall-back,
# then the EU's and the US Mountain zone's, each pair in the same order.
DST_2015 = {
    "Australia/Sydney": [datetime(2015, 10, 3, 16), datetime(2015, 4, 4, 16)],
    "Europe/Paris": [datetime(2015, 3, 29, 1), datetime(2015, 10, 25, 1)],
    "America/Denver": [datetime(2015, 3, 8, 9), datetime(2015, 11, 1, 8)],
}

# Civil minutes from anywhere in the day, or from 01:00-02:59 local, where the
# gaps and folds of DST_2015 lie.
CIVIL_MINUTES = st.integers(0, 1439) | st.integers(60, 179)
SUB_MINUTE = st.tuples(st.integers(0, 59), st.integers(0, 999_999)).map(
    lambda sm: timedelta(seconds=sm[0], microseconds=sm[1])
)


@st.composite
def anchoring_cases(draw, kind):
    """(created_at, utc_offset_seconds, time_zone) for one kind of anchoring input."""
    offset = zone = None
    if kind == "fixed_offset":
        offset = draw(st.sampled_from([3601, -12345, 0, 32400, -25200, 86399, -86399]))
        created = draw(st.datetimes(datetime(2015, 1, 1), datetime(2016, 1, 1)))
    elif kind == "dst_2015":
        zone = draw(st.sampled_from(sorted(DST_2015)))
        change = draw(st.sampled_from(DST_2015[zone]))
        created = change + timedelta(minutes=draw(st.integers(-12 * 60, 36 * 60)))
    elif kind == "amsterdam_before_1937":  # offsets of +00:19:32 and +01:19:32
        zone = "Europe/Amsterdam"
        created = draw(st.datetimes(datetime(1920, 1, 1), datetime(1937, 1, 1)))
    else:  # range_edges
        if draw(st.booleans()):
            offset = draw(st.sampled_from([0, 3601, -12345, 50400, -43200]))
        else:
            zone = draw(st.sampled_from(sorted(DST_2015)))
        day = draw(st.sampled_from([datetime(1, 1, 1), datetime(9999, 12, 31)]))
        created = day + timedelta(minutes=draw(st.integers(0, 1438)))
    created = (created + draw(SUB_MINUTE)).replace(tzinfo=timezone.utc)
    return created, offset, zone


class TestAnchoring:
    @pytest.mark.parametrize("slack", SLACKS)
    def test_matches_brute_force_grid(self, slack):
        rng = random.Random(slack)
        for _ in range(400):
            tweet_local = datetime(
                2015, 10, rng.randrange(1, 29), rng.randrange(24), rng.randrange(60),
                rng.randrange(60), rng.choice([0, rng.randrange(1_000_000)]),
            )
            # Half the wake-ups fall in the cutoff's own minute or one either side of it,
            # and a tenth of the starts equal the wake-up, a whole day before it.
            near = tweet_local + timedelta(minutes=slack + rng.randrange(-1, 2))
            end = rng.choice([time(near.hour, near.minute), time(rng.randrange(24), rng.randrange(60))])
            start = end if rng.random() < 0.1 else time(rng.randrange(24), rng.randrange(60))
            got = anchor_dates(start, end, tweet_local, slack)
            assert got == oracle_anchor(start, end, tweet_local, slack)

    @pytest.mark.parametrize("kind", ["fixed_offset", "dst_2015", "amsterdam_before_1937",
                                      "range_edges"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_instants_match_the_astimezone_formula(self, kind, data):
        created, offset, zone = data.draw(anchoring_cases(kind))
        start, end = data.draw(CIVIL_MINUTES), data.draw(CIVIL_MINUTES)
        slack = data.draw(st.sampled_from(SLACKS))
        text = (f"{PREFIX}I was sleeping for 7:10 from {start // 60}:{start % 60:02d} "
                f"to {end // 60}:{end % 60:02d} #sleep_as_android")
        tweet = RawTweet("t1", text, created, "u1", "sleeper", time_zone=zone,
                         utc_offset_seconds=offset)
        log = parse_tweet(tweet, slack_minutes=slack)
        expected = oracle_instants(tweet, log.start_civil, log.end_civil, slack)
        assert (log.start_local, log.end_local, log.start_utc, log.end_utc) == expected
        if expected[3] is not None:  # same instants, and tagged UTC
            assert log.start_utc.tzinfo is timezone.utc and log.end_utc.tzinfo is timezone.utc

    def test_wake_just_after_tweet_uses_slack(self):
        # Stated end 06:12, tweet at 06:05: within 15 min slack, same morning.
        start, end = anchor_dates(time(23, 2), time(6, 12), datetime(2015, 10, 24, 6, 5))
        assert end == datetime(2015, 10, 24, 6, 12)
        assert start == datetime(2015, 10, 23, 23, 2)

    def test_wake_beyond_slack_goes_to_previous_day(self):
        start, end = anchor_dates(time(23, 2), time(6, 30), datetime(2015, 10, 24, 6, 5))
        assert end == datetime(2015, 10, 23, 6, 30)

    def test_same_day_sleep(self):
        start, end = anchor_dates(time(1, 0), time(8, 0), datetime(2015, 10, 24, 8, 1))
        assert start == datetime(2015, 10, 24, 1, 0)
        assert end == datetime(2015, 10, 24, 8, 0)

    def test_instants_from_utc_offset(self, make_tweet):
        tweet = make_tweet(
            created_at=datetime(2015, 10, 23, 21, 20, tzinfo=timezone.utc),  # 06:20 JST
            utc_offset_seconds=32400,
        )
        log = parse_tweet(tweet)
        assert log.anchored
        assert log.end_local == datetime(2015, 10, 24, 6, 12)
        assert log.end_utc == datetime(2015, 10, 23, 21, 12, tzinfo=timezone.utc)
        assert (log.end_utc - log.start_utc) == timedelta(minutes=430)

    def test_instants_from_zone_name(self, make_tweet):
        tweet = make_tweet(
            created_at=datetime(2015, 10, 23, 21, 20, tzinfo=timezone.utc),
            time_zone="Asia/Tokyo",
        )
        log = parse_tweet(tweet)
        assert log.anchored
        assert log.end_local == datetime(2015, 10, 24, 6, 12)

    def test_unknown_zone_leaves_unanchored(self, make_tweet):
        log = parse_tweet(make_tweet(time_zone="Middle/Nowhere"))
        assert isinstance(log, SleepLog) and not log.anchored

    def test_no_zone_info_leaves_unanchored(self, make_tweet):
        log = parse_tweet(make_tweet())
        assert not log.anchored
        assert log.start_civil == time(23, 2)

    def test_custom_slack_policy(self, make_tweet):
        tweet = make_tweet(
            created_at=datetime(2015, 10, 24, 6, 0, tzinfo=timezone.utc),
            utc_offset_seconds=0,
            text=f"{PREFIX}sleeping for 7:10 from 23:02 to 6:12",
        )
        wide = parse_tweet(tweet, slack_minutes=30)
        assert wide.end_local == datetime(2015, 10, 24, 6, 12)
        tight = parse_tweet(tweet, slack_minutes=5)
        assert tight.end_local == datetime(2015, 10, 23, 6, 12)

    @pytest.mark.parametrize("created_at, offset", [
        (datetime(1, 1, 1, 0, 20, tzinfo=timezone.utc), -18000),  # local time before year 1
        (datetime(9999, 12, 31, 23, 59, tzinfo=timezone.utc), 0),  # cutoff after year 9999
        (datetime(1, 1, 1, 5, 0, tzinfo=timezone.utc), 0),  # wake-up before year 1
    ])
    def test_dates_outside_datetime_range_leave_unanchored(self, make_tweet, created_at, offset):
        log = parse_tweet(make_tweet(created_at=created_at, utc_offset_seconds=offset))
        assert isinstance(log, SleepLog) and not log.anchored
        assert (log.start_local, log.end_local, log.end_utc) == (None, None, None)

    def test_dst_fall_back_still_anchors(self, make_tweet):
        # US DST ended 2015-11-01 02:00; wake times around it must not crash.
        tweet = make_tweet(
            created_at=datetime(2015, 11, 1, 11, 30, tzinfo=timezone.utc),
            time_zone="America/New_York",
            text=f"{PREFIX}sleeping for 8:00 from 22:30 to 6:30",
        )
        log = parse_tweet(tweet)
        assert log.anchored
        assert log.end_local.time() == time(6, 30)

    def test_sleep_inside_a_dst_gap_leaves_unanchored(self, make_tweet):
        # Denver skipped 02:00-03:00 on 2015-03-08: both ends map to 09:00 UTC.
        tweet = make_tweet(
            created_at=datetime(2015, 3, 8, 9, 5, tzinfo=timezone.utc),
            time_zone="America/Denver",
            text=f"{PREFIX}sleeping for 1:00 from 2:00 to 3:00",
        )
        log = parse_tweet(tweet)
        assert isinstance(log, SleepLog) and not log.anchored
        assert (log.start_local, log.end_local, log.end_utc) == (None, None, None)


# --- Record codec ------------------------------------------------------------------

# Ids that JSON must escape: quotes, backslashes, control and non-BMP characters,
# lone surrogates, next to anything else Unicode holds.
IDS = st.text(
    st.one_of(st.sampled_from('"\\\x00\x1f\U0001f634'), st.characters(exclude_categories=())),
    min_size=1,
)


# Instants in the shapes stages write: local ones naive and UTC ones in UTC,
# both to the second.  `SleepLog.from_record` accepts no others.
STAGE_LOCAL = st.datetimes(max_value=datetime(9000, 1, 1)).map(lambda dt: dt.replace(microsecond=0))
STAGE_UTC = STAGE_LOCAL.map(lambda dt: dt.replace(tzinfo=timezone.utc))


@st.composite
def sleep_logs(draw, local=STAGE_LOCAL, utc=STAGE_UTC,
               gaps=st.integers(1, 2 * 86400).map(lambda s: timedelta(seconds=s))) -> SleepLog:
    start_local = end_local = start_utc = end_utc = None
    start_civil, end_civil = draw(st.times()), draw(st.times())
    if draw(st.booleans()):  # anchored: all four instants, or none
        # The local pair as anchoring writes it: at start_civil, and the next end_civil after.
        start_local = draw(local).replace(second=0)
        start_civil, end_civil = start_local.time(), end_civil.replace(second=0, microsecond=0)
        end_local = start_local + timedelta(minutes=recomputed_duration(start_civil, end_civil))
        start_utc = draw(utc)
        end_utc = start_utc + draw(gaps)
    return SleepLog(
        tweet_id=draw(IDS),
        user_id=draw(IDS),
        start_civil=start_civil,
        end_civil=end_civil,
        duration_minutes=draw(st.integers(min_value=1, max_value=1439)),
        deep_sleep_pct=draw(st.none() | st.integers(0, 100)),
        notation=draw(st.sampled_from(list(TimeNotation))),
        separator=draw(st.sampled_from(list(Separator))),
        start_local=start_local,
        end_local=end_local,
        start_utc=start_utc,
        end_utc=end_utc,
    )


def dict_based_json(log: SleepLog) -> str:
    return json.dumps(log.to_record(), ensure_ascii=True, sort_keys=True)


class TestRecordTypes:
    def test_frozen_slotted_replaceable_and_compared_by_value(self, make_tweet):
        tweet = make_tweet(utc_offset_seconds=0)
        for record in (tweet, parse_tweet(tweet)):
            assert not hasattr(record, "__dict__")
            with pytest.raises(dataclasses.FrozenInstanceError):
                record.tweet_id = "other"
            copy = dataclasses.replace(record)
            assert copy == record and copy is not record
            assert dataclasses.replace(record, tweet_id="other") != record


class TestRecordCodec:
    @settings(deadline=None)
    @given(
        sleep_logs(),
        st.sampled_from(["tweet_id", "user_id", "duration_minutes", "deep_sleep_pct"]),
        st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), IDS, st.lists(IDS)),
    )
    def test_to_json_is_the_sorted_dict_form_for_every_accepted_value(self, log, name, value):
        assert log.to_json() == dict_based_json(log)
        try:
            log = dataclasses.replace(log, **{name: value})
        except ValueError:
            return
        assert log.to_json() == dict_based_json(log)

    @settings(deadline=None)
    @given(sleep_logs())
    def test_decoding_a_line_writes_it_back_byte_for_byte(self, log):
        line = log.to_json()
        assert SleepLog.from_record(json.loads(line)).to_json() == line

    @settings(deadline=None)
    @given(sleep_logs())
    def test_a_written_line_builds_unchecked_the_log_from_record_builds(self, log):
        line = log.to_json()
        written, checked = written_log(json.loads(line)), SleepLog.from_record(json.loads(line))
        assert type(written) is SleepLog and written == checked
        assert [type(getattr(written, name)) for name in SleepLog.__slots__] == [
            type(getattr(checked, name)) for name in SleepLog.__slots__]
        assert written.to_json() == line

    @settings(deadline=None)
    @given(sleep_logs())
    def test_a_flag_that_contradicts_the_clock_times_is_refused(self, log):
        flag = log.duration_inconsistent
        doc = {**log.to_record(), "duration_inconsistent": not flag}
        message = (f"^duration_inconsistent must be {json.dumps(flag)}: {log.start_civil:%H:%M} "
                   f"to {log.end_civil:%H:%M} is ")
        with pytest.raises(ValueError, match=message):
            SleepLog.from_record(doc)

    @pytest.mark.parametrize("name, value", [
        ("start_local", datetime(2015, 10, 23, 23, 2, tzinfo=timezone.utc)),
        ("end_local", datetime(2015, 10, 24, 6, 12, 0, 500)),
        ("start_utc", datetime(2015, 10, 23, 23, 2, tzinfo=timezone(timedelta(hours=9)))),
        ("start_utc", datetime(2015, 10, 23, 23, 2)),
        ("end_utc", datetime(2015, 10, 24, 6, 12, 0, 500, tzinfo=timezone.utc)),
        ("end_local", "2015-10-24T06:12:00"),
    ])
    def test_constructor_refuses_instants_from_record_refuses(self, make_tweet, name, value):
        log = parse_tweet(make_tweet(utc_offset_seconds=0))
        assert log.anchored
        with pytest.raises(ValueError, match=name):
            dataclasses.replace(log, **{name: value})

    @pytest.mark.parametrize("start_shift, end_shift", [
        (timedelta(minutes=1), timedelta(minutes=1)),  # both off their civil times
        (timedelta(seconds=1), timedelta(seconds=1)),
        (timedelta(0), timedelta(days=1)),  # end_local a day past the next end_civil
        (timedelta(0), -timedelta(days=1)),  # end_local before start_local
    ])
    def test_local_instants_must_fall_where_anchoring_puts_them(
        self, make_tweet, start_shift, end_shift
    ):
        log = parse_tweet(make_tweet(utc_offset_seconds=0))
        assert log.anchored
        with pytest.raises(ValueError, match="^start_local and end_local must be at start_civil"):
            dataclasses.replace(log, start_local=log.start_local + start_shift,
                                end_local=log.end_local + end_shift)
        # A whole night moved by a day agrees with its clock times: no zone to check UTC against.
        day = timedelta(days=1)
        dataclasses.replace(log, start_local=log.start_local + day, end_local=log.end_local + day)

    def test_durations_stop_at_the_longest_a_log_can_state(self, make_tweet):
        log = parse_tweet(make_tweet(text="Sleep as Android: I was sleeping for 23:59 from 0:00 "
                                          "to 23:59 with 21% deep sleep #sleep_as_android"))
        assert log.duration_minutes == 1439
        for duration in (1440, 10**400):
            message = f"^duration_minutes must be at most 1439, got {duration}$"
            with pytest.raises(ValueError, match=message):
                SleepLog.from_record({**log.to_record(), "duration_minutes": duration})


def _decoded_by_parsing(doc: dict) -> SleepLog:
    """`SleepLog.from_record` as it was before its table lookups: every civil time
    shape-checked and parsed, every enum called."""
    def civil(name: str) -> time:
        return grammar._decode(doc[name], name, grammar._HHMM, "HH:MM", time.fromisoformat)

    return SleepLog(
        doc["tweet_id"], doc["user_id"], civil("start_civil"), civil("end_civil"),
        doc["duration_minutes"], doc["deep_sleep_pct"],
        TimeNotation(doc["notation"]), Separator(doc["separator"]),
        grammar._instant(doc, "start_local", False), grammar._instant(doc, "end_local", False),
        grammar._instant(doc, "start_utc", True), grammar._instant(doc, "end_utc", True),
    )


def _derived_flag(doc: dict) -> bool:
    """The `duration_inconsistent` that `doc`'s civil times and duration give, where they
    decode; any other record is refused before its flag is read."""
    try:
        start, end = time.fromisoformat(doc["start_civil"]), time.fromisoformat(doc["end_civil"])
        return abs(recomputed_duration(start, end) - doc["duration_minutes"]) > 1
    except (TypeError, ValueError):
        return False


def _outcome(decode, doc: dict):
    """What `decode(doc)` gives: the log, or its exception's type and message."""
    try:
        return decode(doc)
    except Exception as exc:  # the type is compared too
        return type(exc), str(exc)


_EDGE_VALUES = ["24:00", "7:5", "07:05 ", "", "H24", "h24", "COLON", "23:60", "０７:０５",
                None, 7, 7.5, True, ["07:05"], {"07:05": 1}]
_ALL_HHMM = [f"{m // 60:02d}:{m % 60:02d}" for m in range(1440)]


class TestTableDecode:
    BASE = SleepLog("t1", "u1", time(23, 2), time(6, 12), 430, 21, TimeNotation.H24,
                    Separator.COLON).to_record()

    @pytest.mark.parametrize("name, values", [
        ("start_civil", _ALL_HHMM + _EDGE_VALUES),
        ("end_civil", _ALL_HHMM + _EDGE_VALUES),
        ("notation", [m.value for m in TimeNotation] + _EDGE_VALUES),
        ("separator", [m.value for m in Separator] + _EDGE_VALUES),
        ("duration_minutes", list(range(-2, 1442)) + [10**400, 430.0] + _EDGE_VALUES),
        ("user_id", ["u1", "u2"] + _EDGE_VALUES),
    ])
    def test_same_log_or_message_as_parsing(self, name, values):
        for value in values:
            doc = {**self.BASE, name: value}
            doc["duration_inconsistent"] = _derived_flag(doc)
            expected = _outcome(_decoded_by_parsing, doc)
            assert _outcome(SleepLog.from_record, doc) == expected, value
            if isinstance(expected, SleepLog):
                assert SleepLog.from_record(doc).to_json() == expected.to_json()

    def test_logs_share_their_user_id_and_duration(self, make_tweet):
        # Fresh equal objects per line, as `json.loads` gives them.
        first, second = (SleepLog.from_record(json.loads(json.dumps(self.BASE))) for _ in range(2))
        assert first.user_id is second.user_id
        assert first.duration_minutes is second.duration_minutes
        parsed = parse_tweet(make_tweet(text="Sleep as Android: I was sleeping for 7:10 from 23:02 "
                                             "to 6:12 with 21% deep sleep #sleep_as_android"))
        assert parsed.duration_minutes is first.duration_minutes
