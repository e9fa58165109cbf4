"""Collection, parsing, and analysis of app-generated sleep-log tweets."""

__version__ = "0.1.0"

from .records import PipelineLedger, RawTweet, RejectReason, dedupe, ingest
from .grammar import SleepLog, TimeNotation, Separator, format_sleeplog, parse_tweet
from .pipeline import FilterConfig, filter_logs

__all__ = [
    "__version__",
    "PipelineLedger",
    "RawTweet",
    "RejectReason",
    "SleepLog",
    "TimeNotation",
    "Separator",
    "FilterConfig",
    "dedupe",
    "ingest",
    "format_sleeplog",
    "parse_tweet",
    "filter_logs",
]
