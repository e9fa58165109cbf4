"""Duration filtering."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .grammar import SleepLog
from .records import RejectReason


@dataclass(frozen=True)
class FilterConfig:
    """Bounds are inclusive: a log is kept when min <= duration <= max."""

    min_duration_minutes: int = 120
    max_duration_minutes: int = 720
    require_deep_sleep: bool = False
    require_anchor: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.min_duration_minutes < self.max_duration_minutes:
            raise ValueError(
                "need 0 < min_duration_minutes < max_duration_minutes, got "
                f"{self.min_duration_minutes}..{self.max_duration_minutes}"
            )


@dataclass(frozen=True)
class FilteredOut:
    tweet_id: str
    reason: RejectReason


def filter_logs(
    logs: Iterable[SleepLog],
    config: FilterConfig | None = None,
) -> tuple[list[SleepLog], list[FilteredOut]]:
    """Keep plausible sleep records; each rejection carries one reason."""
    config = config or FilterConfig()
    kept: list[SleepLog] = []
    rejected: list[FilteredOut] = []
    for log in logs:
        if log.duration_minutes < config.min_duration_minutes:
            rejected.append(FilteredOut(log.tweet_id, RejectReason.TOO_SHORT))
        elif log.duration_minutes > config.max_duration_minutes:
            rejected.append(FilteredOut(log.tweet_id, RejectReason.TOO_LONG))
        elif config.require_deep_sleep and log.deep_sleep_pct is None:
            rejected.append(FilteredOut(log.tweet_id, RejectReason.MISSING_DEEP_SLEEP))
        elif config.require_anchor and not log.anchored:
            rejected.append(FilteredOut(log.tweet_id, RejectReason.ANCHOR_UNRESOLVED))
        else:
            kept.append(log)
    return kept, rejected
