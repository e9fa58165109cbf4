"""Ingestion, deduplication, and ledger accounting."""

from __future__ import annotations

import dataclasses
import json
from datetime import date, datetime, timedelta, timezone
from zoneinfo import ZoneInfo

import pytest
from hypothesis import given, settings, strategies as st

from sleeplog import records
from sleeplog.records import (
    PipelineLedger,
    RawTweet,
    RejectReason,
    dedupe,
    ingest,
    ingest_file,
    instant_text,
    parse_timestamp,
    written_tweet,
)


def record(tweet_id="t1", user_id="u1", text="hello", **extra) -> dict:
    doc = {
        "tweet_id": tweet_id,
        "user_id": user_id,
        "text": text,
        "created_at": "2015-10-24T06:00:00+00:00",
        "screen_name": "someone",
    }
    doc.update(extra)
    return doc


def line(**kwargs) -> str:
    return json.dumps(record(**kwargs))


class TestParseTimestamp:
    def test_iso(self):
        assert parse_timestamp("2015-10-24T06:00:00+00:00") == datetime(
            2015, 10, 24, 6, tzinfo=timezone.utc
        )

    def test_iso_zulu(self):
        assert parse_timestamp("2015-10-24T06:00:00Z").tzinfo == timezone.utc

    def test_classic_tweet_format(self):
        dt = parse_timestamp("Sat Oct 24 05:31:08 +0000 2015")
        assert (dt.year, dt.hour, dt.second) == (2015, 5, 8)

    def test_offset_converted_to_utc(self):
        dt = parse_timestamp("2015-10-24T09:00:00+09:00")
        assert dt == datetime(2015, 10, 24, 0, tzinfo=timezone.utc)

    def test_naive_treated_as_utc(self):
        assert parse_timestamp("2015-10-24T06:00:00").tzinfo == timezone.utc

    def test_garbage_raises(self):
        with pytest.raises(ValueError):
            parse_timestamp("yesterday-ish")


class TestRawTweet:
    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            RawTweet.from_record(record(friends_count=-1))

    def test_bool_count_rejected(self):
        with pytest.raises(ValueError):
            RawTweet.from_record(record(friends_count=True))

    @pytest.mark.parametrize("name", ["friends_count", "followers_count", "statuses_count"])
    def test_counts_stop_below_2_to_the_63(self, name):
        assert getattr(RawTweet.from_record(record(**{name: 2**63 - 1})), name) == 2**63 - 1
        for count in (2**63, int("9" * 400)):
            with pytest.raises(ValueError, match=rf"^{name} must be below 2\*\*63, got {count}$"):
                RawTweet.from_record(record(**{name: count}))

    def test_json_round_trip(self):
        tweet = RawTweet.from_record(record(utc_offset_seconds=32400))
        again = RawTweet.from_record(json.loads(tweet.to_json()))
        assert again == tweet

    @pytest.mark.parametrize("name", ["created_at", "account_created_at"])
    def test_a_naive_instant_is_refused(self, make_tweet, name):
        # Written without an offset, it would not compare with an aware one in dedupe.
        with pytest.raises(ValueError, match="^created_at and account_created_at must carry a UTC offset$"):
            make_tweet(**{name: datetime(2015, 10, 24, 6)})
        aware = make_tweet(**{name: datetime(2015, 10, 24, 6, tzinfo=timezone(timedelta(hours=9)))})
        assert RawTweet.from_record(json.loads(aware.to_json())) == aware

    def test_missing_required_field(self):
        doc = record()
        del doc["screen_name"]
        with pytest.raises(ValueError):
            RawTweet.from_record(doc)


# Text that JSON must escape: quotes, backslashes, control and non-BMP
# characters, lone surrogates, next to anything else Unicode holds.
TEXT = st.text(st.one_of(
    st.sampled_from('"\\/\x00\x1f\x7f\u2028\U0001f634'),
    st.characters(exclude_categories=()),
))
OFFSETS = st.timedeltas(min_value=timedelta(hours=-23, minutes=-59), max_value=timedelta(hours=23, minutes=59))
AWARE_INSTANTS = st.datetimes(timezones=st.one_of(st.just(timezone.utc), st.builds(timezone, OFFSETS)))
INSTANTS = st.datetimes() | AWARE_INSTANTS  # naive too, which RawTweet refuses
ANY_VALUE = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), TEXT, INSTANTS, st.lists(st.integers()),
)


@st.composite
def raw_tweets(draw) -> RawTweet:
    counts = st.one_of(st.none(), st.integers(min_value=0, max_value=2**63 - 1))
    return RawTweet(
        tweet_id=draw(TEXT.filter(bool)),
        text=draw(TEXT.filter(bool)),
        created_at=draw(AWARE_INSTANTS),
        user_id=draw(TEXT.filter(bool)),
        screen_name=draw(TEXT.filter(bool)),
        location_text=draw(st.none() | TEXT),
        time_zone=draw(st.none() | TEXT),
        utc_offset_seconds=draw(st.none() | st.integers(-86399, 86399)),
        interface_lang=draw(st.none() | TEXT),
        bio=draw(st.none() | TEXT),
        friends_count=draw(counts),
        followers_count=draw(counts),
        statuses_count=draw(counts),
        account_created_at=draw(st.none() | AWARE_INSTANTS),
    )


def dict_based_json(tweet: RawTweet) -> str:
    """The dict-building encoder that RawTweet.to_json replaced, kept as the reference."""
    doc = {}
    for f in dataclasses.fields(tweet):
        value = getattr(tweet, f.name)
        if isinstance(value, datetime):
            value = value.isoformat()
        doc[f.name] = value
    return json.dumps(doc, ensure_ascii=True)


class TestRawTweetEncoder:
    @settings(deadline=None)
    @given(raw_tweets(), st.sampled_from([f.name for f in dataclasses.fields(RawTweet)]), ANY_VALUE)
    def test_same_bytes_as_dict_based_encoder_for_every_accepted_value(self, tweet, name, value):
        assert tweet.to_json() == dict_based_json(tweet)
        try:
            tweet = dataclasses.replace(tweet, **{name: value})
        except ValueError:
            return
        assert tweet.to_json() == dict_based_json(tweet)

    @pytest.mark.parametrize(
        "name, value",
        [("friends_count", True), ("statuses_count", 1.0), ("utc_offset_seconds", "3600"),
         ("utc_offset_seconds", 86400), ("utc_offset_seconds", -86400),
         ("bio", 5), ("tweet_id", ""), ("user_id", ["u1"]), ("created_at", "2015-10-24"),
         ("account_created_at", 0)],
    )
    def test_constructor_rejects_what_from_record_rejects(self, make_tweet, name, value):
        with pytest.raises(ValueError):
            make_tweet(**{name: value})

    @settings(deadline=None)
    @given(raw_tweets())
    def test_decodes_to_itself_when_instants_are_utc(self, tweet):
        utc = {
            f: getattr(tweet, f).replace(tzinfo=timezone.utc)
            for f in ("created_at", "account_created_at") if getattr(tweet, f) is not None
        }
        tweet = dataclasses.replace(tweet, **utc)
        assert RawTweet.from_record(json.loads(tweet.to_json())) == tweet

    @settings(deadline=None)
    @given(raw_tweets())
    def test_a_written_line_builds_unchecked_the_tweet_from_record_builds(self, tweet):
        try:  # the line ingest writes for this tweet: its instants in UTC
            line = RawTweet.from_record(json.loads(tweet.to_json())).to_json()
        except ValueError:  # an instant that leaves datetime's range once in UTC
            return
        written, checked = written_tweet(json.loads(line)), RawTweet.from_record(json.loads(line))
        assert type(written) is RawTweet and written == checked
        for name in ("created_at", "account_created_at"):
            instants = getattr(written, name), getattr(checked, name)
            assert instants[0] is None or instants[0].tzinfo is instants[1].tzinfo is timezone.utc
        assert written.to_json() == line


ZONES = [None, timezone.utc, timezone(timedelta(seconds=3601)), timezone(timedelta(hours=-5)),
         ZoneInfo("UTC")]


class TestInstantText:
    @settings(deadline=None, max_examples=500)
    @given(st.datetimes(timezones=st.sampled_from(ZONES)), st.booleans())
    def test_same_text_as_isoformat(self, moment, whole_second):
        if whole_second:
            moment = moment.replace(microsecond=0)
        assert instant_text(moment) == moment.isoformat()

    @pytest.mark.parametrize("zone", ZONES)
    @pytest.mark.parametrize(
        "moment", [datetime.min, datetime.max, datetime.max.replace(microsecond=0)]
    )
    def test_same_text_as_isoformat_at_both_ends_of_the_range(self, moment, zone):
        moment = moment.replace(tzinfo=zone)
        assert instant_text(moment) == moment.isoformat()

    def test_day_cache_is_bounded(self):
        first = date(2000, 1, 1).toordinal()
        for ordinal in range(first, first + records._MEMO_SIZE + 10):
            assert instant_text(datetime.fromordinal(ordinal)).endswith("T00:00:00")
        assert len(records._DAY_TEXT) <= records._MEMO_SIZE


class TestSharedProfileValues:
    def test_one_users_tweets_share_their_profile_values(self):
        # An offset beyond 256, which CPython's small-int cache does not share already.
        profile = {"bio": "sleeps a lot", "time_zone": "Berlin", "utc_offset_seconds": -25200,
                   "account_created_at": "2013-01-01T00:00:00+00:00"}
        (first, second), _ = ingest([line(tweet_id="t1", text="a", **profile),
                                     line(tweet_id="t2", text="b", **profile)])
        assert first.user_id is second.user_id
        assert first.screen_name is second.screen_name
        assert first.bio is second.bio and first.time_zone is second.time_zone
        assert first.account_created_at is second.account_created_at
        assert first.utc_offset_seconds == -25200
        assert first.utc_offset_seconds is second.utc_offset_seconds

    def test_counts_stay_out_of_the_int_memo(self):
        # A count can be new on every tweet; memo entries for those would share nothing.
        records._shared_int.cache_clear()
        ingest([line(tweet_id=f"t{n}", text=f"{n}", friends_count=1000 + n,
                     followers_count=2000 + n, statuses_count=3000 + n) for n in range(50)])
        assert records._shared_int.cache_info().currsize == 0

    @pytest.mark.parametrize("field, value, message", [
        ("user_id", 1, "missing or empty field: user_id"),
        ("screen_name", ["someone"], "missing or empty field: screen_name"),
        ("bio", True, "field bio must be a string"),
        ("interface_lang", {"code": "en"}, "field interface_lang must be a string"),
    ])
    def test_a_mistyped_profile_value_keeps_its_message(self, field, value, message):
        _, rejected = ingest([line(**{field: value})])
        assert rejected[0].detail == message

    def test_the_memo_is_bounded(self):
        for n in range(records._MEMO_SIZE + 10):
            records._shared(f"value {n}")
        info = records._shared_text.cache_info()
        assert info.currsize <= info.maxsize == records._MEMO_SIZE

    @pytest.mark.parametrize("value", [True, 1.0])
    def test_an_offset_equal_to_a_shared_int_is_still_refused(self, value):
        # True == 1.0 == 1, so only exact ints may reach the memo.
        assert RawTweet.from_record(record(utc_offset_seconds=1)).utc_offset_seconds == 1
        _, rejected = ingest([line(utc_offset_seconds=value)])
        assert rejected[0].detail == "field utc_offset_seconds must be an integer"

    def test_the_int_memo_is_bounded_and_leaves_shared_strings_shared(self):
        text = records._shared("".join(["a shared ", "string"]))
        for n in range(records._MEMO_SIZE + 10):
            records._shared(10**6 + n)
        info = records._shared_int.cache_info()
        assert info.currsize <= info.maxsize == records._MEMO_SIZE
        again = "".join(["a shared ", "string"])
        assert again is not text and records._shared(again) is text


class TestIngest:
    def test_valid_lines_kept_in_order(self):
        kept, rejected = ingest([line(tweet_id="a"), line(tweet_id="b")])
        assert [t.tweet_id for t in kept] == ["a", "b"]
        assert rejected == []

    def test_blank_lines_not_counted(self):
        ledger = PipelineLedger()
        kept, rejected = ingest([line(), "", "   \n", line(tweet_id="t2")])
        ledger.account("ingest", kept, (r.reason for r in rejected))
        assert ledger.stages[0].input == 2
        assert len(kept) == 2

    def test_malformed_json_rejected_not_fatal(self):
        kept, rejected = ingest(["{nope", line()])
        assert len(kept) == 1
        assert rejected[0].reason is RejectReason.MALFORMED_JSON
        assert rejected[0].line_number == 1

    def test_json_nested_too_deep_is_a_malformed_line(self):
        kept, rejected = ingest(["[" * 100_000 + "]" * 100_000, line()])
        assert len(kept) == 1
        assert (rejected[0].line_number, rejected[0].reason) == (1, RejectReason.MALFORMED_JSON)

    def test_bad_timestamp_rejected_with_salvaged_id(self):
        kept, rejected = ingest([line(tweet_id="broken", created_at="not a time")])
        assert kept == []
        assert rejected[0].tweet_id == "broken"

    @pytest.mark.parametrize("field, value", [
        ("created_at", "0001-01-01T00:20:00+05:00"),
        ("utc_offset_seconds", 86400),
    ])
    def test_value_no_stage_can_use_is_a_malformed_line(self, field, value):
        kept, rejected = ingest([line(tweet_id="odd", **{field: value}), line()])
        assert len(kept) == 1
        assert (rejected[0].reason, rejected[0].tweet_id) == (RejectReason.MALFORMED_JSON, "odd")

    @pytest.mark.parametrize("value", ["", 0, False, [], {}])
    def test_account_created_at_is_null_or_a_timestamp(self, value):
        kept, rejected = ingest([line(tweet_id="odd", account_created_at=value)])
        assert kept == []
        assert (rejected[0].reason, rejected[0].tweet_id) == (RejectReason.MALFORMED_JSON, "odd")

    def test_ledger_conservation(self):
        ledger = PipelineLedger()
        kept, rejected = ingest([line(), "{", line(tweet_id="x", friends_count=-3)])
        ledger.account("ingest", kept, (r.reason for r in rejected))
        stage = ledger.stages[0]
        assert stage.input == 3
        assert stage.kept == 1
        assert stage.rejected_by_reason == {"MALFORMED_JSON": 2}

    def test_unreadable_file_is_fatal(self, tmp_path):
        with pytest.raises(OSError):
            ingest_file(str(tmp_path / "nope.jsonl"))

    def test_line_that_is_not_utf8_is_a_malformed_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        bad = line(tweet_id="odd").encode().replace(b"hello", b"hel\xfflo")
        path.write_bytes(b"\n".join([line(tweet_id="a").encode(), bad, line(tweet_id="b").encode()]))
        kept, rejected = ingest_file(str(path))
        assert [t.tweet_id for t in kept] == ["a", "b"]
        assert [(r.line_number, r.reason) for r in rejected] == [(2, RejectReason.MALFORMED_JSON)]
        at = bad.index(b"\xff")
        assert rejected[0].detail == f"not valid UTF-8: byte 0xff at char {at}"

    def test_non_ascii_utf8_line_is_kept(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps(record(text="おやすみ"), ensure_ascii=False), encoding="utf-8")
        kept, rejected = ingest_file(str(path))
        assert [t.text for t in kept] == ["おやすみ"]
        assert rejected == []

    @given(
        st.lists(
            st.one_of(
                st.integers(0, 10_000).map(lambda i: line(tweet_id=f"t{i}")),
                st.sampled_from(["{bad", "[]", '{"tweet_id": 3}', "null", ""]),
            ),
            max_size=30,
        )
    )
    def test_every_line_kept_or_rejected(self, lines):
        ledger = PipelineLedger()
        kept, rejected = ingest(lines)
        ledger.account("ingest", kept, (r.reason for r in rejected))
        nonblank = sum(1 for l in lines if l.strip())
        assert len(kept) + len(rejected) == nonblank
        ledger.validate_chain()


class TestDedupe:
    def tweets(self, *specs):
        return [RawTweet.from_record(record(**s)) for s in specs]

    def test_repeated_id_rejected_first_kept(self):
        kept, rejected = dedupe(
            self.tweets({"tweet_id": "a", "text": "x"}, {"tweet_id": "a", "text": "y"})
        )
        assert len(kept) == 1 and kept[0].text == "x"
        assert rejected[0].reason is RejectReason.DUPLICATE_ID

    def test_same_text_same_user_new_id_is_content_duplicate(self):
        kept, rejected = dedupe(
            self.tweets({"tweet_id": "a", "text": "x"}, {"tweet_id": "b", "text": "x"})
        )
        assert len(kept) == 1
        assert rejected[0].reason is RejectReason.DUPLICATE_CONTENT
        assert rejected[0].tweet_id == "b"

    def test_same_text_different_user_kept(self):
        kept, rejected = dedupe(
            self.tweets(
                {"tweet_id": "a", "text": "x", "user_id": "u1"},
                {"tweet_id": "b", "text": "x", "user_id": "u2"},
            )
        )
        assert len(kept) == 2 and rejected == []

    def test_id_rule_precedes_content_rule(self):
        kept, rejected = dedupe(
            self.tweets({"tweet_id": "a", "text": "x"}, {"tweet_id": "a", "text": "x"})
        )
        assert rejected[0].reason is RejectReason.DUPLICATE_ID

    def test_earliest_content_copy_is_kept_wherever_it_stands(self):
        late, early = "2015-10-25T06:00:00+00:00", "2015-10-24T06:00:00+00:00"
        kept, rejected = dedupe(self.tweets(
            {"tweet_id": "a", "text": "x", "created_at": late},
            {"tweet_id": "b", "text": "y"},
            {"tweet_id": "c", "text": "x", "created_at": early},
            {"tweet_id": "d", "text": "y"},
        ))
        assert [t.tweet_id for t in kept] == ["b", "c"]  # input order
        assert [(r.line_number, r.reason, r.tweet_id) for r in rejected] == [
            (1, RejectReason.DUPLICATE_CONTENT, "a"),  # position order
            (4, RejectReason.DUPLICATE_CONTENT, "d"),  # a tie goes to the earlier line
        ]

    def test_a_replaced_copy_keeps_its_id_taken(self):
        late, early = "2015-10-25T06:00:00+00:00", "2015-10-24T06:00:00+00:00"
        kept, rejected = dedupe(self.tweets(
            {"tweet_id": "a", "text": "x", "created_at": late},
            {"tweet_id": "b", "text": "x", "created_at": early},
            {"tweet_id": "a", "text": "x", "created_at": late},
        ))
        assert [t.tweet_id for t in kept] == ["b"]
        assert [r.reason for r in rejected] == [
            RejectReason.DUPLICATE_CONTENT, RejectReason.DUPLICATE_ID
        ]

    def test_content_check_can_be_disabled(self):
        kept, _ = dedupe(
            self.tweets({"tweet_id": "a", "text": "x"}, {"tweet_id": "b", "text": "x"}),
            by_content=False,
        )
        assert len(kept) == 2

    def test_id_check_can_be_disabled(self):
        kept, rejected = dedupe(
            self.tweets({"tweet_id": "a", "text": "x"}, {"tweet_id": "a", "text": "y"}),
            by_id=False,
        )
        assert len(kept) == 2 and rejected == []

    def test_a_text_two_users_share_keeps_each_users_earliest_copy(self):
        late, early = "2015-10-25T06:00:00+00:00", "2015-10-24T06:00:00+00:00"
        kept, rejected = dedupe(self.tweets(
            {"tweet_id": "a", "text": "x", "user_id": "u1"},
            {"tweet_id": "b", "text": "x", "user_id": "u2", "created_at": late},
            {"tweet_id": "c", "text": "x", "user_id": "u1", "created_at": late},
            {"tweet_id": "d", "text": "x", "user_id": "u2", "created_at": early},
            {"tweet_id": "e", "text": "x", "user_id": "u2", "created_at": late},
        ))
        assert [t.tweet_id for t in kept] == ["a", "d"]
        assert [(r.line_number, r.tweet_id) for r in rejected] == [
            (2, "b"), (3, "c"), (5, "e")
        ]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.sampled_from("abcdef"), st.sampled_from(["u1", "u2", "u3"]),
                           st.sampled_from("xyz"), st.integers(0, 3)), max_size=14),
        st.booleans(), st.booleans(),
    )
    def test_same_outcome_as_one_key_per_user_and_text(self, specs, by_id, by_content):
        tweets = self.tweets(*(
            {"tweet_id": i, "user_id": u, "text": x, "created_at": f"2015-10-2{day}T06:00:00+00:00"}
            for i, u, x, day in specs
        ))
        # The rules with one (user_id, text) key per kept copy, replaced copies dropped last.
        seen, first_copy, kept, rejected, replaced = set(), {}, [], [], set()
        for position, tweet in enumerate(tweets, start=1):
            if by_id and tweet.tweet_id in seen:
                rejected.append((position, RejectReason.DUPLICATE_ID, tweet.tweet_id))
                continue
            first = first_copy.get((tweet.user_id, tweet.text)) if by_content else None
            if first is not None:
                if first[1].created_at <= tweet.created_at:
                    rejected.append((position, RejectReason.DUPLICATE_CONTENT, tweet.tweet_id))
                    continue
                replaced.add(first[0])
            seen.add(tweet.tweet_id)
            first_copy[tweet.user_id, tweet.text] = (position, tweet)
            kept.append((position, tweet))
        rejected += [(p, RejectReason.DUPLICATE_CONTENT, t.tweet_id) for p, t in kept if p in replaced]
        got_kept, got_rejected = dedupe(tweets, by_id=by_id, by_content=by_content)
        assert got_kept == [t for p, t in kept if p not in replaced]
        assert [(r.line_number, r.reason, r.tweet_id) for r in got_rejected] == sorted(rejected)


class TestLedger:
    def test_stage_conservation_enforced(self):
        ledger = PipelineLedger()
        with pytest.raises(AssertionError):
            ledger.record("bogus", 10, 8, {"X": 1}, 5)

    def test_chain_mismatch_detected(self):
        ledger = PipelineLedger()
        ledger.record("a", 10, 8, {"X": 2}, 5)
        ledger.record("b", 7, 7, {}, 5)
        with pytest.raises(AssertionError):
            ledger.validate_chain()

    def test_rerecorded_stage_replaces_itself_and_drops_later_stages(self):
        ledger = PipelineLedger()
        ledger.record("a", 10, 8, {"X": 2}, 5)
        ledger.record("b", 8, 6, {"Y": 2}, 4)
        ledger.record("c", 6, 6, {}, 4)
        ledger.record("b", 8, 7, {"Y": 1}, 4)
        assert [(s.name, s.kept) for s in ledger.stages] == [("a", 8), ("b", 7)]
        ledger.validate_chain()

    def test_json_round_trip(self):
        ledger = PipelineLedger()
        ledger.record("a", 10, 8, {"X": 2}, 5)
        ledger.record("b", 8, 8, {}, 5)
        again = PipelineLedger.from_json(ledger.to_json())
        assert again.stages == ledger.stages
