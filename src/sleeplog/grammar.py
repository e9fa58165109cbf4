"""Parsing and formatting of app-generated sleep-log tweets.

The tracked tweets follow one rigid template with a handful of notation
variants (24-hour vs 12-hour clocks, ':' vs '.' separators, plain vs dotted
meridiems).  parse_tweet recognizes exactly that template; everything else is
rejected with a specific reason so the funnel stays auditable.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from datetime import datetime, time, timedelta, timezone
from enum import Enum
from functools import cache
from json.encoder import encode_basestring_ascii
from zoneinfo import ZoneInfo

from .records import _HHMM_TEXT, RawTweet, RejectReason, _shared, instant_text

PREFIX = "Sleep as Android: "

_ZERO = timedelta(0)
_DAY = timedelta(days=1)
# Anchoring counts whole minutes from datetime.min, 0001-01-01 00:00 (ordinal day 1).
_MINUTE = timedelta(minutes=1)
_NAIVE_MIN = datetime.min
_UTC_MIN = datetime.min.replace(tzinfo=timezone.utc)
_LAST_DAY = datetime.max.toordinal()
# One shared civil `time`, and one shared duration `int`, per minute of the day.
_CIVIL = [time(m // 60, m % 60) for m in range(1440)]
_MINUTES = list(range(1440))

# Minutes of slack allowed between a stated wake-up time and the tweet's
# local timestamp: the app can post a minute or two before the stated end
# once rounding is involved.
DEFAULT_SLACK_MINUTES = 15


class TimeNotation(Enum):
    H24 = "H24"
    H12_AMPM = "H12_AMPM"
    H12_DOTTED_AMPM = "H12_DOTTED_AMPM"


class Separator(Enum):
    COLON = "COLON"
    DOT = "DOT"


# How the text writes each `Separator` and each 12-hour notation's morning and afternoon.
_SEP_CHAR = {"COLON": ":", "DOT": "."}
_MERIDIEM_TEXT = {"H12_AMPM": (" AM", " PM"), "H12_DOTTED_AMPM": (" a.m.", " p.m.")}

_PM_MERIDIEMS = {"PM", "pm", "p.m."}
_DOTTED_MERIDIEMS = {"a.m.", "p.m."}


def _body(meridiem: str) -> re.Pattern:
    """The body grammar, applied after the fixed prefix, for one meridiem pattern:

        junk* "sleeping for" DUR "from" TIME "to" TIME ["with" INT "% deep sleep"] rest*
    """

    def time_group(prefix: str) -> str:
        return (
            rf"(?P<{prefix}h>[0-9]{{1,2}})(?P<{prefix}sep>[:.])(?P<{prefix}m>[0-9]{{2}})"
            rf"(?: ?(?P<{prefix}mer>{meridiem}))?"
        )

    return re.compile(
        r"(?s)^.*?sleeping for "
        r"(?P<dh>[0-9]{1,2})(?P<dsep>[:.])(?P<dm>[0-9]{2})"
        r" from " + time_group("s") + r" to " + time_group("e") +
        r"(?: with (?P<deep>[0-9]{1,3})% deep sleep)?"
        r".*$"
    )


_STRICT_BODY = _body(r"(?:AM|PM|am|pm|a\.m\.|p\.m\.)")

# Permissive variant used only for diagnosis once the strict pass fails:
# a meridiem may be any short token (so non-English markers are caught), but
# never one of the structural words.
_LOOSE_BODY = _body(r"(?!to\b|with\b|from\b)[^\s]{1,6}")

# Fullwidth/alternate punctuation that shows up around non-ASCII digits.
_PUNCT_MAP = {"：": ":", "．": ".", "％": "%", "　": " "}


@dataclass(frozen=True)
class Rejection:
    reason: RejectReason
    span: tuple[int, int] | None = None


@dataclass(frozen=True, slots=True)
class SleepLog:
    """One parsed sleep record.

    Civil times always exist; local/UTC instants are filled in only when the
    tweet carried enough timezone information to anchor dates.
    """

    tweet_id: str
    user_id: str
    start_civil: time
    end_civil: time
    duration_minutes: int
    deep_sleep_pct: int | None
    notation: TimeNotation
    separator: Separator
    start_local: datetime | None = None
    end_local: datetime | None = None
    start_utc: datetime | None = None
    end_utc: datetime | None = None
    duration_inconsistent: bool = False

    def __post_init__(self) -> None:
        # Exact types, so that to_json writes every value as json.dumps would.
        tweet_id, user_id = self.tweet_id, self.user_id
        if not isinstance(tweet_id, str) or not tweet_id:
            raise ValueError(f"tweet_id must be a non-empty string, got {tweet_id!r}")
        if not isinstance(user_id, str) or not user_id:
            raise ValueError(f"user_id must be a non-empty string, got {user_id!r}")
        duration, pct = self.duration_minutes, self.deep_sleep_pct
        if type(duration) is not int or duration <= 0:
            raise ValueError(f"duration_minutes must be a positive integer, got {duration!r}")
        if duration > 1439:  # 23:59, the longest duration a log can state
            raise ValueError(f"duration_minutes must be at most 1439, got {duration}")
        if pct is not None and (type(pct) is not int or not 0 <= pct <= 100):
            raise ValueError(f"deep_sleep_pct must be an integer in [0, 100] or null, got {pct!r}")
        if type(self.duration_inconsistent) is not bool:
            raise ValueError(
                f"duration_inconsistent must be true or false, got {self.duration_inconsistent!r}"
            )
        # The instants `from_record` reads back: local ones naive, UTC ones in UTC, to the second.
        # One check per field, not a loop over (name, value) pairs: this runs for every log built.
        start_local, end_local = self.start_local, self.end_local
        if start_local is not None and (
            not isinstance(start_local, datetime) or start_local.microsecond
            or start_local.tzinfo is not None
        ):
            _refuse_instant("start_local", "naive", start_local)
        if end_local is not None and (
            not isinstance(end_local, datetime) or end_local.microsecond
            or end_local.tzinfo is not None
        ):
            _refuse_instant("end_local", "naive", end_local)
        start_utc, end_utc = self.start_utc, self.end_utc
        if start_utc is not None and (
            not isinstance(start_utc, datetime) or start_utc.microsecond
            or start_utc.utcoffset() != _ZERO
        ):
            _refuse_instant("start_utc", "UTC", start_utc)
        if end_utc is not None and (
            not isinstance(end_utc, datetime) or end_utc.microsecond
            or end_utc.utcoffset() != _ZERO
        ):
            _refuse_instant("end_utc", "UTC", end_utc)
        # Anchoring sets all four instants or none, and a reader of one relies on the others.
        if not (start_local is None) == (end_local is None) == (start_utc is None) == (end_utc is None):
            raise ValueError("the four instants must be all present or all null")
        if start_utc is not None and end_utc <= start_utc:
            raise ValueError("sleep end must be strictly after sleep start")
        # As anchoring writes them: start_local at start_civil, end_local at the next end_civil.
        start, end = self.start_civil, self.end_civil
        if start_local is not None and (start_local.time() != start or end_local.time() != end
                                        or not _ZERO < end_local - start_local <= _DAY):
            raise ValueError(
                f"start_local and end_local must be at start_civil {start:%H:%M} and the next"
                f" end_civil {end:%H:%M} after it, got {start_local.isoformat()} and"
                f" {end_local.isoformat()}"
            )

    @property
    def anchored(self) -> bool:
        return self.start_utc is not None

    def to_record(self) -> dict:
        """The dict form; `to_json` writes the same object as one JSON line."""
        return {
            "tweet_id": self.tweet_id,
            "user_id": self.user_id,
            "start_civil": self.start_civil.strftime("%H:%M"),
            "end_civil": self.end_civil.strftime("%H:%M"),
            "duration_minutes": self.duration_minutes,
            "deep_sleep_pct": self.deep_sleep_pct,
            "notation": self.notation.value,
            "separator": self.separator.value,
            "start_local": None if self.start_local is None else self.start_local.isoformat(),
            "end_local": None if self.end_local is None else self.end_local.isoformat(),
            "start_utc": None if self.start_utc is None else self.start_utc.isoformat(),
            "end_utc": None if self.end_utc is None else self.end_utc.isoformat(),
            "duration_inconsistent": self.duration_inconsistent,
        }

    def to_json(self) -> str:
        """`json.dumps(self.to_record(), ensure_ascii=True, sort_keys=True)`, without the dict."""
        pct, start, end = self.deep_sleep_pct, self.start_civil, self.end_civil
        start_local = "null" if self.start_local is None else f'"{instant_text(self.start_local)}"'
        end_local = "null" if self.end_local is None else f'"{instant_text(self.end_local)}"'
        start_utc = "null" if self.start_utc is None else f'"{instant_text(self.start_utc)}"'
        end_utc = "null" if self.end_utc is None else f'"{instant_text(self.end_utc)}"'
        # `_value_`, not the `value` property: this runs for every log written.
        return (
            f'{{"deep_sleep_pct": {"null" if pct is None else pct}, '
            f'"duration_inconsistent": {"true" if self.duration_inconsistent else "false"}, '
            f'"duration_minutes": {self.duration_minutes}, '
            f'"end_civil": "{_HHMM_TEXT[end.hour * 60 + end.minute]}", '
            f'"end_local": {end_local}, '
            f'"end_utc": {end_utc}, '
            f'"notation": "{self.notation._value_}", '
            f'"separator": "{self.separator._value_}", '
            f'"start_civil": "{_HHMM_TEXT[start.hour * 60 + start.minute]}", '
            f'"start_local": {start_local}, '
            f'"start_utc": {start_utc}, '
            f'"tweet_id": {encode_basestring_ascii(self.tweet_id)}, '
            f'"user_id": {encode_basestring_ascii(self.user_id)}}}'
        )

    @classmethod
    def from_record(cls, doc: dict) -> "SleepLog":
        """Build from a decoded `logs.jsonl` object.

        Times and instants must have the shapes that stages write: civil times
        `HH:MM`, local instants naive `YYYY-MM-DDTHH:MM:SS`, UTC instants the
        same plus `+00:00`, and an absent instant `null`.  Raises KeyError for
        a missing field and ValueError for any other value (see `__post_init__`).
        """
        if not isinstance(doc, dict):
            raise ValueError(f"log record must be a JSON object, got {type(doc).__name__}")
        return cls(
            doc["tweet_id"],
            _shared(doc["user_id"]),
            _civil(doc, "start_civil"),
            _civil(doc, "end_civil"),
            _duration(doc["duration_minutes"]),
            doc["deep_sleep_pct"],
            _member(_NOTATIONS, doc["notation"], TimeNotation),
            _member(_SEPARATORS, doc["separator"], Separator),
            _instant(doc, "start_local", False),
            _instant(doc, "end_local", False),
            _instant(doc, "start_utc", True),
            _instant(doc, "end_utc", True),
            doc["duration_inconsistent"],
        )


ParseOutcome = SleepLog | Rejection


def _duration(raw):
    """The shared `int` for an exact `int` in 0..1439; any other value passes
    through, for `__post_init__` to refuse with its own message."""
    return _MINUTES[raw] if type(raw) is int and 0 <= raw < 1440 else raw


def _refuse_instant(name: str, kind: str, value) -> None:
    raise ValueError(f"{name} must be a whole-second {kind} datetime or None, got {value!r}")


# Shape checks, not `fromisoformat` alone: it accepts far more than stages
# write, and more on Python 3.11 than on 3.10.
_HHMM = re.compile(r"\d\d:\d\d", re.ASCII).fullmatch
_LOCAL = re.compile(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d", re.ASCII).fullmatch
_UTC = re.compile(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00", re.ASCII).fullmatch


# What `_civil` and `_member` look a written value up in before they decode it.
_CIVIL_OF = dict(zip(_HHMM_TEXT, _CIVIL))
_NOTATIONS = {member.value: member for member in TimeNotation}
_SEPARATORS = {member.value: member for member in Separator}


def _member(table: dict, raw, decode):
    """`table[raw]` for a string key of `table`; any other value gets `decode(raw)`'s answer."""
    value = table.get(raw) if type(raw) is str else None
    return decode(raw) if value is None else value


def _civil(doc: dict, name: str) -> time:
    raw = doc[name]
    civil = _CIVIL_OF.get(raw) if type(raw) is str else None
    return _decode(raw, name, _HHMM, "HH:MM", time.fromisoformat) if civil is None else civil


def _instant(doc: dict, name: str, utc: bool) -> datetime | None:
    raw = doc[name]
    if raw is None:
        return None
    if utc:
        return _decode(raw, name, _UTC, "YYYY-MM-DDTHH:MM:SS+00:00 or null", datetime.fromisoformat)
    return _decode(raw, name, _LOCAL, "YYYY-MM-DDTHH:MM:SS or null", datetime.fromisoformat)


def _decode(raw, name: str, shape, form: str, decode):
    """`decode(raw)` for a string of `shape`; any other value, or one out of range, names `name`."""
    if not isinstance(raw, str) or shape(raw) is None:
        raise ValueError(f"{name} must be {form}, got {raw!r}")
    try:
        return decode(raw)
    except ValueError as exc:
        raise ValueError(f"{name} out of range ({exc}), got {raw!r}") from None


def recomputed_duration(start: time, end: time) -> int:
    """Minutes from start to the next occurrence of end (equal times -> 24h)."""
    start_m = start.hour * 60 + start.minute
    end_m = end.hour * 60 + end.minute
    return (end_m - start_m - 1) % 1440 + 1


def anchor_dates(
    start_civil: time,
    end_civil: time,
    tweet_time_local: datetime,
    slack_minutes: int = DEFAULT_SLACK_MINUTES,
) -> tuple[datetime, datetime]:
    """Resolve civil times to local dates around the tweet's local timestamp.

    The wake-up is the most recent occurrence of end_civil at or before the
    tweet time plus slack; the sleep start is the most recent occurrence of
    start_civil strictly before that, recomputed_duration minutes earlier.
    Both are naive wall times in whole minutes, counted from the wall-clock
    fields of tweet_time_local (its tzinfo is not read); a UTC instant is the
    local one minus the zone's offset at that wall time.  Raises OverflowError
    when a date leaves datetime's range.
    """
    t = tweet_time_local
    cutoff = (t.toordinal() - 1) * 1440 + t.hour * 60 + t.minute + slack_minutes
    if cutoff >= _LAST_DAY * 1440:
        raise OverflowError("the anchoring cutoff is after year 9999")
    # The latest minute of the day m at or before minute c is (c - m) mod 1440 before c.
    end = cutoff - (cutoff - end_civil.hour * 60 - end_civil.minute) % 1440
    start = end - 1 - (end - 1 - start_civil.hour * 60 - start_civil.minute) % 1440
    return _NAIVE_MIN + _MINUTE * start, _NAIVE_MIN + _MINUTE * end


# One `timezone` per fixed UTC offset in seconds, built the first time a tweet
# carries it; `RawTweet` admits only offsets in (-86400, 86400), so it stays bounded.
_FIXED_ZONES: dict[int, timezone] = {}


def user_tzinfo(tweet: RawTweet):
    """Timezone for local-time math: explicit offset first, else IANA name."""
    seconds = tweet.utc_offset_seconds
    if seconds is not None:
        zone = _FIXED_ZONES.get(seconds)
        if zone is None:
            zone = _FIXED_ZONES[seconds] = timezone(timedelta(seconds=seconds))
        return zone
    if tweet.time_zone:
        try:
            return ZoneInfo(tweet.time_zone)
        except (KeyError, ValueError):
            return None
    return None


def parse_tweet(tweet: RawTweet, slack_minutes: int = DEFAULT_SLACK_MINUTES) -> ParseOutcome:
    """Parse one tweet into a SleepLog, or a Rejection explaining why not.

    slack_minutes is the clock skew allowed when anchoring dates (anchor_dates).
    Rejection reasons are checked in a fixed precedence: a missing prefix or
    template marker trumps everything (NOT_SLEEP_LOG); non-ASCII digits or
    meridiem tokens inside the time fields come next (NON_ENGLISH_NOTATION);
    then malformed time fields (UNPARSEABLE_TIME); finally an absent
    from/to clause (MISSING_FIELDS).
    """
    text = tweet.text
    if not text.startswith(PREFIX):
        return Rejection(RejectReason.NOT_SLEEP_LOG)
    body = text[len(PREFIX):]
    offset = len(PREFIX)
    if "sleeping for " not in body:
        return Rejection(RejectReason.NOT_SLEEP_LOG)

    match = _STRICT_BODY.match(body)
    if match is not None:
        return _build_log(tweet, match, offset, slack_minutes)

    # Strict pass failed.  Normalize non-ASCII digits and retry to decide
    # whether the failure is about notation rather than structure.
    translated = _ascii_fold(body)
    if translated != body:
        alt = _STRICT_BODY.match(translated) or _LOOSE_BODY.match(translated)
        if alt is not None:
            span = _non_ascii_span(body, alt, offset)
            if span is not None:
                return Rejection(RejectReason.NON_ENGLISH_NOTATION, span)

    loose = _LOOSE_BODY.match(body)
    if loose is not None:
        span = _non_ascii_span(body, loose, offset)
        if span is not None:
            return Rejection(RejectReason.NON_ENGLISH_NOTATION, span)
        return Rejection(RejectReason.UNPARSEABLE_TIME, _clause_span(body, offset))

    after = body.split("sleeping for ", 1)[1]
    padded = " " + after
    from_at = padded.find(" from ")
    if from_at != -1 and " to " in padded[from_at + len(" from "):]:
        if padded[1:from_at].strip():
            return Rejection(RejectReason.UNPARSEABLE_TIME, _clause_span(body, offset))
    return Rejection(RejectReason.MISSING_FIELDS)


def _ascii_fold(body: str) -> str:
    out = []
    for ch in body:
        if not ch.isascii() and ch.isdigit():
            out.append(str(unicodedata.digit(ch)))
        else:
            out.append(_PUNCT_MAP.get(ch, ch))
    return "".join(out)


_FIELD_GROUPS = ("dh", "dm", "sh", "sm", "smer", "eh", "em", "emer", "deep")


def _non_ascii_span(original: str, match: re.Match, offset: int) -> tuple[int, int] | None:
    """Span (in full-text coordinates) of the first time field holding non-ASCII."""
    for group in _FIELD_GROUPS:
        lo, hi = match.span(group)
        if lo == -1:
            continue
        segment = original[lo:hi]
        if any(not c.isascii() for c in segment):
            return (offset + lo, offset + hi)
    return None


def _clause_span(body: str, offset: int) -> tuple[int, int]:
    lo = body.find("sleeping for ")
    return (offset + lo, offset + len(body))


def _build_log(
    tweet: RawTweet, match: re.Match, offset: int, slack_minutes: int
) -> ParseOutcome:
    dur_h, _, dur_m, start_h, start_sep, start_m, start_mer, end_h, _, end_m, end_mer, deep_raw = (
        match.groups()
    )
    dur_h, dur_m = int(dur_h), int(dur_m)
    if dur_h > 23 or dur_m > 59:
        return _unparseable(match, offset, "dm" if dur_m > 59 else "dh")
    stated = _MINUTES[dur_h * 60 + dur_m]
    if stated == 0:
        return _unparseable(match, offset, "dh")

    start = _minute_of_day(start_h, start_m, start_mer)
    if type(start) is str:
        return _unparseable(match, offset, "s" + start)
    end = _minute_of_day(end_h, end_m, end_mer)
    if type(end) is str:
        return _unparseable(match, offset, "e" + end)

    # A meridiem on only one endpoint leaves the other ambiguous.
    if (start_mer is None) != (end_mer is None):
        return _unparseable(match, offset, "emer" if end_mer is None else "smer")

    deep = None
    if deep_raw is not None:
        deep = int(deep_raw)
        if deep > 100:
            return _unparseable(match, offset, "deep")

    if start_mer is None:
        notation = TimeNotation.H24
    elif start_mer in _DOTTED_MERIDIEMS or end_mer in _DOTTED_MERIDIEMS:
        notation = TimeNotation.H12_DOTTED_AMPM
    else:
        notation = TimeNotation.H12_AMPM
    separator = Separator.COLON if start_sep == ":" else Separator.DOT

    start_civil, end_civil = _CIVIL[start], _CIVIL[end]
    inconsistent = abs(recomputed_duration(start_civil, end_civil) - stated) > 1

    start_local = end_local = start_utc = end_utc = None
    tz = user_tzinfo(tweet)
    if tz is not None:
        try:
            start_local, end_local = anchor_dates(
                start_civil, end_civil, tweet.created_at.astimezone(tz), slack_minutes
            )
            # local - utcoffset(local), tagged UTC: the fold=0 instant, fixed or IANA zone.
            start_utc = _UTC_MIN + (start_local - _NAIVE_MIN - tz.utcoffset(start_local))
            end_utc = _UTC_MIN + (end_local - _NAIVE_MIN - tz.utcoffset(end_local))
        except OverflowError:
            end_utc = None
        # Unanchored when a date leaves datetime's range, or when a spring-forward gap
        # swallows the whole sleep (02:00-03:00 on the night clocks jump from 02:00 to 03:00).
        if end_utc is None or end_utc <= start_utc:
            start_local = end_local = start_utc = end_utc = None

    return SleepLog(
        tweet.tweet_id, tweet.user_id, start_civil, end_civil, stated, deep, notation, separator,
        start_local, end_local, start_utc, end_utc, inconsistent,
    )


def _unparseable(match: re.Match, offset: int, group: str) -> Rejection:
    lo, hi = match.span(group)
    return Rejection(RejectReason.UNPARSEABLE_TIME, (offset + lo, offset + hi))


def _minute_of_day(hour: str, minute: str, meridiem: str | None) -> int | str:
    """The minute of the day one endpoint names, or its group at fault: "h" or "m"."""
    hour, minute = int(hour), int(minute)
    if minute > 59:
        return "m"
    if hour > (23 if meridiem is None else 12):
        return "h"
    if meridiem is not None:
        hour = hour % 12 + (12 if meridiem in _PM_MERIDIEMS else 0)
    return hour * 60 + minute


def sleeplog_text(
    notation: str, separator: str, start: int, end: int, duration: int, deep: int | None
) -> str:
    """The canonical tweet text of a log given by `TimeNotation` and `Separator` values,
    minutes of the day and duration minutes; the deep-sleep clause is elided when `deep` is None.
    """
    clock = _clock_texts(notation, separator)
    # A duration under a day reads like a 24-hour clock time: "7:05" is 425 minutes.
    dur = _clock_texts("H24", separator)[duration]
    deep_clause = "" if deep is None else f" with {deep}% deep sleep"
    return (
        f"{PREFIX}I was sleeping for {dur} from {clock[start]} to {clock[end]}{deep_clause}"
        " #sleep_as_android"
    )


@cache
def _clock_texts(notation: str, separator: str) -> tuple[str, ...]:
    """How one notation and separator write each minute of the day."""
    sep = _SEP_CHAR[separator]
    if notation == "H24":
        return tuple(f"{m // 60}{sep}{m % 60:02d}" for m in range(1440))
    am, pm = _MERIDIEM_TEXT[notation]
    return tuple(
        f"{m // 60 % 12 or 12}{sep}{m % 60:02d}{am if m < 720 else pm}" for m in range(1440)
    )
