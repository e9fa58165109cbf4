"""Core record types, JSONL ingestion, and duplicate removal.

Everything downstream (parsing, filtering, analytics) consumes the types
defined here.  The PipelineLedger derives every stage's counts from what the
stage kept and why it rejected the rest; its chain check (each stage's input
is the previous stage's kept) catches a record that a stage silently dropped.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from enum import Enum
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quoted  # JSON string literal, ASCII only
from typing import Iterable


class RejectReason(Enum):
    MALFORMED_JSON = "MALFORMED_JSON"
    DUPLICATE_ID = "DUPLICATE_ID"
    DUPLICATE_CONTENT = "DUPLICATE_CONTENT"
    NOT_SLEEP_LOG = "NOT_SLEEP_LOG"
    NON_ENGLISH_NOTATION = "NON_ENGLISH_NOTATION"
    UNPARSEABLE_TIME = "UNPARSEABLE_TIME"
    MISSING_FIELDS = "MISSING_FIELDS"
    TOO_SHORT = "TOO_SHORT"
    TOO_LONG = "TOO_LONG"
    MISSING_DEEP_SLEEP = "MISSING_DEEP_SLEEP"
    ANCHOR_UNRESOLVED = "ANCHOR_UNRESOLVED"


# Timestamps arrive either as ISO 8601 or in the classic tweet form
# "Sat Oct 24 05:31:08 +0000 2015".
_CLASSIC_FORMAT = "%a %b %d %H:%M:%S %z %Y"


def parse_timestamp(raw: str) -> datetime:
    """Parse a timestamp string to an aware UTC datetime."""
    if not isinstance(raw, str) or not raw.strip():
        raise ValueError(f"empty timestamp: {raw!r}")
    text = raw.strip()
    try:
        dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError:
        try:
            dt = datetime.strptime(text, _CLASSIC_FORMAT)
        except ValueError:
            raise ValueError(f"unparseable timestamp: {raw!r}") from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    try:
        return dt.astimezone(timezone.utc)
    except OverflowError:  # e.g. 0001-01-01T00:20:00+05:00
        raise ValueError(f"timestamp out of range in UTC: {raw!r}") from None


# Instants are written from tables: one "HH:MM" per minute of the day, one ":SS"
# per second, and one "YYYY-MM-DDT" per day, cached by ordinal and cleared when full.
_HHMM_TEXT = [f"{m // 60:02d}:{m % 60:02d}" for m in range(1440)]
_SS_TEXT = [f":{s:02d}" for s in range(60)]
_DAY_TEXT: dict[int, str] = {}
_MEMO_SIZE = 65536


def instant_text(moment: datetime) -> str:
    """`moment.isoformat()`; whole-second instants, naive or in `timezone.utc`, come from tables."""
    tz = moment.tzinfo
    if moment.microsecond or not (tz is None or tz is timezone.utc) or type(moment) is not datetime:
        return moment.isoformat()
    ordinal = moment.toordinal()
    day = _DAY_TEXT.get(ordinal)
    if day is None:
        if len(_DAY_TEXT) >= _MEMO_SIZE:
            _DAY_TEXT.clear()
        day = _DAY_TEXT[ordinal] = f"{moment.year:04d}-{moment.month:02d}-{moment.day:02d}T"
    text = day + _HHMM_TEXT[moment.hour * 60 + moment.minute] + _SS_TEXT[moment.second]
    return text if tz is None else text + "+00:00"


# One object per distinct profile string, UTC offset and account-creation text:
# a user's tweets repeat them, and a corpus holds a few dozen offsets.  Bounded,
# unlike `sys.intern`.  Integers have their own memo, so they cannot evict shared
# strings.  Counts are not shared: a `statuses_count` can be new on every tweet.
_shared_text = lru_cache(maxsize=_MEMO_SIZE)(lambda value: value)
_shared_int = lru_cache(maxsize=_MEMO_SIZE)(lambda value: value)
_account_instant = lru_cache(maxsize=_MEMO_SIZE)(parse_timestamp)


def _shared(value):
    """`value`, or the first equal string or integer seen.  Only exact `str`s and
    `int`s reach the memos, so a mistyped value (a list, `True`, `1.0`) is refused
    with its own message: as `True == 1.0 == 1`, a memo could swap one for another."""
    kind = type(value)
    if kind is str:
        return _shared_text(value)
    return _shared_int(value) if kind is int else value


@dataclass(frozen=True, slots=True)
class RawTweet:
    """One tweet as ingested, with the profile fields we rely on later."""

    tweet_id: str
    text: str
    created_at: datetime  # aware, UTC
    user_id: str
    screen_name: str
    location_text: str | None = None
    time_zone: str | None = None
    utc_offset_seconds: int | None = None
    interface_lang: str | None = None
    bio: str | None = None
    friends_count: int | None = None
    followers_count: int | None = None
    statuses_count: int | None = None
    account_created_at: datetime | None = None

    def __post_init__(self) -> None:
        """Raises ValueError for the first field that fails, in field order."""
        # Exact types, so that to_json writes every value as json.dumps would.
        # One check per field, not a loop over names: this runs for every tweet read.
        if not isinstance(self.tweet_id, str) or not self.tweet_id:
            raise ValueError("missing or empty field: tweet_id")
        if not isinstance(self.text, str) or not self.text:
            raise ValueError("missing or empty field: text")
        if not isinstance(self.user_id, str) or not self.user_id:
            raise ValueError("missing or empty field: user_id")
        if not isinstance(self.screen_name, str) or not self.screen_name:
            raise ValueError("missing or empty field: screen_name")
        if self.location_text is not None and not isinstance(self.location_text, str):
            raise ValueError("field location_text must be a string")
        if self.time_zone is not None and not isinstance(self.time_zone, str):
            raise ValueError("field time_zone must be a string")
        if self.interface_lang is not None and not isinstance(self.interface_lang, str):
            raise ValueError("field interface_lang must be a string")
        if self.bio is not None and not isinstance(self.bio, str):
            raise ValueError("field bio must be a string")
        offset, friends = self.utc_offset_seconds, self.friends_count
        followers, statuses = self.followers_count, self.statuses_count
        if offset is not None and type(offset) is not int:
            raise ValueError("field utc_offset_seconds must be an integer")
        if friends is not None and type(friends) is not int:
            raise ValueError("field friends_count must be an integer")
        if followers is not None and type(followers) is not int:
            raise ValueError("field followers_count must be an integer")
        if statuses is not None and type(statuses) is not int:
            raise ValueError("field statuses_count must be an integer")
        if friends is not None and not 0 <= friends < 2**63:
            raise ValueError(_count_error("friends_count", friends))
        if followers is not None and not 0 <= followers < 2**63:
            raise ValueError(_count_error("followers_count", followers))
        if statuses is not None and not 0 <= statuses < 2**63:
            raise ValueError(_count_error("statuses_count", statuses))
        if offset is not None and not -86400 < offset < 86400:  # what `datetime.timezone` takes
            raise ValueError(f"utc_offset_seconds must be in (-86400, 86400), got {offset}")
        created_at, account = self.created_at, self.account_created_at
        if not isinstance(created_at, datetime) or not (
            account is None or isinstance(account, datetime)
        ):
            raise ValueError("created_at and account_created_at must be datetimes")
        # A naive instant would be written without an offset and could not be
        # compared with an aware one (`dedupe`, `latest_profiles`).
        if created_at.utcoffset() is None or (account is not None and account.utcoffset() is None):
            raise ValueError("created_at and account_created_at must carry a UTC offset")

    def to_json(self) -> str:
        """One `tweets.jsonl` line: the fields in declaration order, instants in ISO 8601."""
        account = self.account_created_at
        account = "null" if account is None else f'"{instant_text(account)}"'
        return (
            f'{{"tweet_id": {_quoted(self.tweet_id)}, "text": {_quoted(self.text)}, '
            f'"created_at": "{instant_text(self.created_at)}", '
            f'"user_id": {_quoted(self.user_id)}, "screen_name": {_quoted(self.screen_name)}, '
            f'"location_text": {_opt_str(self.location_text)}, '
            f'"time_zone": {_opt_str(self.time_zone)}, '
            f'"utc_offset_seconds": {_opt_int(self.utc_offset_seconds)}, '
            f'"interface_lang": {_opt_str(self.interface_lang)}, '
            f'"bio": {_opt_str(self.bio)}, '
            f'"friends_count": {_opt_int(self.friends_count)}, '
            f'"followers_count": {_opt_int(self.followers_count)}, '
            f'"statuses_count": {_opt_int(self.statuses_count)}, '
            f'"account_created_at": {account}}}'
        )

    @classmethod
    def from_record(cls, doc: dict) -> "RawTweet":
        """Build from a decoded JSON object, timestamps parsed and profile values
        shared; raises ValueError when invalid."""
        if not isinstance(doc, dict):
            raise ValueError("tweet record must be a JSON object")
        get = doc.get
        created_raw = get("created_at")
        if not isinstance(created_raw, str) or not created_raw:
            raise ValueError("missing or empty field: created_at")
        account_raw = get("account_created_at")
        if account_raw is not None and (not isinstance(account_raw, str) or not account_raw):
            raise ValueError(
                f"account_created_at must be a timestamp string or null, got {account_raw!r}"
            )
        return cls(
            get("tweet_id"), get("text"), parse_timestamp(created_raw),
            _shared(get("user_id")), _shared(get("screen_name")), _shared(get("location_text")),
            _shared(get("time_zone")), _shared(get("utc_offset_seconds")),
            _shared(get("interface_lang")), _shared(get("bio")), get("friends_count"),
            get("followers_count"), get("statuses_count"),
            None if account_raw is None else _account_instant(account_raw),
        )


def _count_error(name: str, value: int) -> str:
    """Why `value` is no count: Twitter stores its counts as signed 64-bit integers."""
    return f"{name} must be {'non-negative' if value < 0 else 'below 2**63'}, got {value}"


def _opt_str(value: str | None) -> str:
    return "null" if value is None else _quoted(value)


def _opt_int(value: int | None) -> str:
    return "null" if value is None else str(value)


def latest_profiles(tweets: Iterable[RawTweet]) -> dict[str, RawTweet]:
    """Most recent tweet per user; its embedded profile fields win."""
    latest: dict[str, RawTweet] = {}
    for tweet in tweets:
        current = latest.get(tweet.user_id)
        if current is None or tweet.created_at > current.created_at:
            latest[tweet.user_id] = tweet
    return latest


@dataclass
class StageEntry:
    """Exact accounting for one pipeline stage."""

    name: str
    input: int
    kept: int
    rejected_by_reason: dict[str, int]
    distinct_users_kept: int

    def rejected_total(self) -> int:
        return sum(self.rejected_by_reason.values())

    def validate(self) -> None:
        if self.input != self.kept + self.rejected_total():
            raise AssertionError(
                f"ledger stage {self.name!r}: input {self.input} != kept "
                f"{self.kept} + rejected {self.rejected_total()}"
            )
        if self.distinct_users_kept > self.kept:
            raise AssertionError(
                f"ledger stage {self.name!r}: distinct_users_kept {self.distinct_users_kept} "
                f"> kept {self.kept}"
            )


class PipelineLedger:
    """Ordered per-stage counts; every input is kept or rejected, never lost.

    Re-recording a stage replaces its entry and drops every later one.
    """

    def __init__(self) -> None:
        self.stages: list[StageEntry] = []

    def record(
        self,
        name: str,
        input_count: int,
        kept: int,
        rejected_by_reason: dict[str, int],
        distinct_users_kept: int,
    ) -> None:
        entry = StageEntry(
            name=name,
            input=input_count,
            kept=kept,
            rejected_by_reason=dict(rejected_by_reason),
            distinct_users_kept=distinct_users_kept,
        )
        entry.validate()
        names = [s.name for s in self.stages]
        if name in names:
            del self.stages[names.index(name):]
        self.stages.append(entry)

    def account(self, name: str, kept: list, reasons: Iterable[RejectReason]) -> None:
        """Record a stage from the records it kept and one reason per record it rejected.

        Input is kept plus rejected; users are the distinct `user_id`s kept.
        """
        counts = Counter(reason.value for reason in reasons)
        users = len({r.user_id for r in kept})
        self.record(name, len(kept) + sum(counts.values()), len(kept), counts, users)

    def validate_chain(self) -> None:
        """Per-stage conservation plus kept[k] == input[k+1] between stages."""
        for entry in self.stages:
            entry.validate()
        for prev, nxt in zip(self.stages, self.stages[1:]):
            if prev.kept != nxt.input:
                raise AssertionError(
                    f"ledger chain broken: {prev.name!r} kept {prev.kept} but "
                    f"{nxt.name!r} saw input {nxt.input}"
                )

    def to_json(self) -> str:
        return json.dumps({"stages": [asdict(s) for s in self.stages]}, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PipelineLedger":
        """Rebuild a saved ledger; counts must be non-negative integers that balance.

        Each stage may appear once: `record` would take a repeat for a re-run
        and silently drop the stages in between.
        """
        ledger = cls()
        for s in json.loads(text)["stages"]:
            name, reasons = s["name"], s["rejected_by_reason"]
            if not isinstance(name, str) or not isinstance(reasons, dict):
                raise ValueError(f"ledger stage {name!r}: needs a string name and a reason object")
            if any(entry.name == name for entry in ledger.stages):
                raise ValueError(f"ledger stage {name!r}: listed more than once")
            ledger.record(
                name,
                _count(name, "input", s["input"]),
                _count(name, "kept", s["kept"]),
                {reason: _count(name, reason, n) for reason, n in reasons.items()},
                _count(name, "distinct_users_kept", s["distinct_users_kept"]),
            )
        return ledger


def _count(stage: str, what: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(
            f"ledger stage {stage!r}: {what} must be a non-negative integer, "
            f"got {json.dumps(value)}"
        )
    return value


@dataclass(frozen=True)
class RejectedLine:
    """A rejected input, with enough context to audit the decision."""

    line_number: int
    reason: RejectReason
    tweet_id: str | None = None
    detail: str | None = None


def utf8_line(line: str) -> str:
    """`line`, read with `errors="surrogateescape"`; a byte that is not UTF-8 is a ValueError."""
    if not line.isascii():
        try:
            line.encode("utf-8")
        except UnicodeEncodeError as exc:
            byte = ord(line[exc.start]) & 0xFF  # surrogateescape maps byte b to U+DC00 + b
            raise ValueError(f"not valid UTF-8: byte 0x{byte:02x} at char {exc.start}") from None
    return line


def ingest(lines: Iterable[str]) -> tuple[list[RawTweet], list[RejectedLine]]:
    """Parse JSON Lines into RawTweets, preserving input order.

    A malformed line (bytes that are not UTF-8, bad JSON or JSON nested too
    deep to decode, missing required field, bad timestamp) is counted under
    MALFORMED_JSON and skipped; it never aborts the run.
    """
    kept: list[RawTweet] = []
    rejected: list[RejectedLine] = []
    for line_number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        doc = None
        try:
            doc = json.loads(utf8_line(line))
            tweet = RawTweet.from_record(doc)
        except (RecursionError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
            tweet_id = None
            if isinstance(doc, dict):
                raw_id = doc.get("tweet_id")
                tweet_id = raw_id if isinstance(raw_id, str) else None
            rejected.append(
                RejectedLine(line_number, RejectReason.MALFORMED_JSON, tweet_id, str(exc))
            )
            continue
        kept.append(tweet)
    return kept, rejected


def ingest_file(path: str) -> tuple[list[RawTweet], list[RejectedLine]]:
    """Ingest from a file path; an unreadable file is fatal (OSError)."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        return ingest(handle)


def dedupe(
    tweets: Iterable[RawTweet],
    by_id: bool = True,
    by_content: bool = True,
) -> tuple[list[RawTweet], list[RejectedLine]]:
    """Drop repeated tweets; the kept ones stay in input order.

    Two independent rules, each optional: a repeated tweet_id is rejected as
    DUPLICATE_ID; a repeat of (user_id, byte-identical text) under a fresh id,
    as DUPLICATE_CONTENT.  The id rule is checked first.  Of the copies of one
    content, the one with the earliest `created_at` is kept, ties going to the
    earlier line, so which copy is kept does not depend on the corpus's line
    order.  Rejections are in position order.
    """
    seen_ids: dict[str, None] = {}  # smaller than a set of the same ids, at every size
    # Content is keyed by text; a text another user's kept copy holds, by (user_id, text).
    kept_copy: dict[str, RawTweet] = {}
    shared_text: dict[tuple[str, str], RawTweet] = {}
    kept: list[RawTweet] = []
    rejected: list[RejectedLine] = []
    replaced: set[int] = set()  # id() of each kept copy that an earlier copy replaced
    for position, tweet in enumerate(tweets, start=1):
        if by_id and tweet.tweet_id in seen_ids:
            rejected.append(
                RejectedLine(position, RejectReason.DUPLICATE_ID, tweet.tweet_id)
            )
            continue
        first = kept_copy.get(tweet.text) if by_content else None
        if first is not None and first.user_id != tweet.user_id:
            first = shared_text.get((tweet.user_id, tweet.text))
        if first is not None:
            if first.created_at <= tweet.created_at:
                rejected.append(
                    RejectedLine(position, RejectReason.DUPLICATE_CONTENT, tweet.tweet_id)
                )
                continue
            replaced.add(id(first))
        seen_ids[tweet.tweet_id] = None
        if kept_copy.setdefault(tweet.text, tweet).user_id == tweet.user_id:
            kept_copy[tweet.text] = tweet
        else:
            shared_text[tweet.user_id, tweet.text] = tweet
        kept.append(tweet)
    if not replaced:
        return kept, rejected
    # Every position is held once by `kept` or `rejected`, so the kept tweets' positions
    # are the ones no rejection holds, in order.
    taken = {r.line_number for r in rejected}
    positions = (p for p in range(1, len(kept) + len(taken) + 1) if p not in taken)
    still_kept = []
    for tweet, position in zip(kept, positions):
        if id(tweet) in replaced:
            rejected.append(RejectedLine(position, RejectReason.DUPLICATE_CONTENT, tweet.tweet_id))
        else:
            still_kept.append(tweet)
    rejected.sort(key=lambda r: r.line_number)
    return still_kept, rejected
