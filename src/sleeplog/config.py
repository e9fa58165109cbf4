"""Runtime settings.

One flat namespace of typed keys.  Precedence, highest first:
command-line flag, config file line, built-in default.  Config files
are plain "key = value" lines; '#' starts a comment, blank lines are
ignored.  Unknown keys are an error anywhere, not a warning.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Mapping

from .records import utf8_line


class ConfigError(ValueError):
    """Bad key, bad value, or unreadable config file."""


@dataclass(frozen=True)
class Setting:
    name: str
    default: object  # an int, bool or str: its type is the setting's type
    help: str
    stamped: bool = True  # False: operational only, never changes output content


SETTINGS: tuple[Setting, ...] = (
    Setting("min_duration_minutes", 120, "shortest believable sleep, minutes"),
    Setting("max_duration_minutes", 720, "longest believable sleep, minutes"),
    Setting("require_deep_sleep", False, "drop logs without a deep-sleep field"),
    Setting("require_anchor", False, "drop logs without resolved dates"),
    Setting("slack_minutes", 15, "allowed clock skew when anchoring dates"),
    Setting("min_logs_per_user", 5, "per-user floor for the robustness bundle"),
    Setting("geo_offline", False, "never touch the network when resolving countries"),
    Setting("geo_cache", "geo_cache.json",
            "geocode cache path, relative to the working directory (not --out)", stamped=False),
    Setting("geo_base_url", "https://nominatim.openstreetmap.org/search", "geocoder endpoint"),
    Setting("seed", 20151024, "corpus generator seed"),
    Setting("synth_users", 100, "corpus generator user count"),
    Setting("presleep_window_minutes", 120, "pre-sleep activity window, minutes"),
    Setting("presleep_denominator", "night", "presleep probability denominator: night or day"),
)

_BY_NAME = {s.name: s for s in SETTINGS}

# Below these a setting has no meaning: an empty or negative window, a floor
# that keeps users with no logs, a negative clock skew, a corpus of no users.
_LOWER_BOUNDS = {
    "presleep_window_minutes": 1, "min_logs_per_user": 1, "slack_minutes": 0, "synth_users": 1,
}
# From any sleep start, a longer pre-sleep window would open before 0001-01-01,
# so it would count the same tweets as this one does.
_LONGEST_WINDOW_MINUTES = (datetime.max - datetime.min) // timedelta(minutes=1)

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def parse_value(setting: Setting, raw: str) -> object:
    raw = raw.strip()
    kind = type(setting.default)
    try:
        if kind is int:
            return int(raw)
        if kind is bool:
            low = raw.lower()
            if low in _TRUE:
                return True
            if low in _FALSE:
                return False
            raise ValueError(raw)
        return raw
    except ValueError:
        raise ConfigError(f"bad value for {setting.name}: {raw!r} (expected {kind.__name__})") from None


def load_file(path: str) -> dict[str, str]:
    """Raw key -> value strings from a config file; an error names the file and line."""
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
            for lineno, line in enumerate(handle, start=1):
                try:
                    stripped = utf8_line(line).split("#", 1)[0].strip()
                    if not stripped:
                        continue
                    if "=" not in stripped:
                        raise ConfigError(f"expected key=value, got {stripped!r}")
                    key, _, value = stripped.partition("=")
                    key = key.strip()
                    if key not in _BY_NAME:
                        raise ConfigError(f"unknown setting {key!r}")
                    parse_value(_BY_NAME[key], value)  # checked where its line is known
                except ValueError as exc:  # ConfigError is one
                    raise ConfigError(f"{path}:{lineno}: {exc}") from None
                values[key] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def resolve(
    file_values: Mapping[str, str] | None = None,
    flag_values: Mapping[str, object] | None = None,
) -> dict[str, object]:
    """Effective typed settings after applying precedence."""
    out: dict[str, object] = {s.name: s.default for s in SETTINGS}
    for name, raw in (file_values or {}).items():
        out[name] = parse_value(_BY_NAME[name], raw)
    for name, value in (flag_values or {}).items():
        if name not in _BY_NAME:
            raise ConfigError(f"unknown setting {name!r}")
        if value is not None:
            out[name] = value
    if out["presleep_denominator"] not in ("night", "day"):
        raise ConfigError("presleep_denominator must be 'night' or 'day'")
    if not 0 < out["min_duration_minutes"] < out["max_duration_minutes"]:
        raise ConfigError("need 0 < min_duration_minutes < max_duration_minutes")
    for name, floor in _LOWER_BOUNDS.items():
        if out[name] < floor:
            raise ConfigError(f"need {name} >= {floor}, got {out[name]}")
    if out["presleep_window_minutes"] > _LONGEST_WINDOW_MINUTES:
        raise ConfigError(
            f"need presleep_window_minutes <= {_LONGEST_WINDOW_MINUTES} (datetime's whole span),"
            f" got {out['presleep_window_minutes']}"
        )
    return out


def config_stamp(resolved: Mapping[str, object]) -> str:
    """Canonical one-line rendering, embedded in CSV headers and manifests.

    Operational settings (the geocode cache path) are left out: where the
    cache lives must not change the bytes of any output.
    """
    pairs = []
    for name in sorted(resolved):
        setting = _BY_NAME.get(name)
        if setting is not None and not setting.stamped:
            continue
        value = resolved[name]
        if isinstance(value, bool):
            value = "true" if value else "false"
        pairs.append(f"{name}={value}")
    return " ".join(pairs)
