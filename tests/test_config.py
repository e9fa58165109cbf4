"""Settings: flag over config file over default, typing, validation, the output stamp."""

from __future__ import annotations

import dataclasses
import inspect
import re

import pytest

from sleeplog.analytics import filter_min_logs, presleep_activity, presleep_probability
from sleeplog.config import (
    SETTINGS,
    ConfigError,
    Setting,
    config_stamp,
    load_file,
    parse_value,
    resolve,
)
from sleeplog.grammar import anchor_dates, parse_tweet
from sleeplog.pipeline import FilterConfig

INT_SETTING = Setting("min_duration_minutes", 120, "")
BOOL_SETTING = Setting("require_deep_sleep", False, "")


class TestParseValue:
    @pytest.mark.parametrize("raw, expected", [("120", 120), (" 5 ", 5), ("-3", -3)])
    def test_int(self, raw, expected):
        assert parse_value(INT_SETTING, raw) == expected

    @pytest.mark.parametrize("raw", ["1", "true", "YES", "On"])
    def test_bool_true(self, raw):
        assert parse_value(BOOL_SETTING, raw) is True

    @pytest.mark.parametrize("raw", ["0", "false", "No", "OFF"])
    def test_bool_false(self, raw):
        assert parse_value(BOOL_SETTING, raw) is False

    def test_bad_int_raises(self):
        with pytest.raises(ConfigError, match="min_duration_minutes"):
            parse_value(INT_SETTING, "soon")

    def test_bad_bool_raises(self):
        with pytest.raises(ConfigError):
            parse_value(BOOL_SETTING, "maybe")

    def test_str_passes_through(self):
        setting = Setting("geo_cache", "x", "")
        assert parse_value(setting, " cache.json ") == "cache.json"


class TestLoadFile:
    def write(self, tmp_path, text):
        path = tmp_path / "sleeplog.conf"
        path.write_text(text)
        return str(path)

    def test_key_value_lines(self, tmp_path):
        path = self.write(tmp_path, "min_duration_minutes = 60\nslack_minutes=4\n")
        assert load_file(path) == {"min_duration_minutes": "60", "slack_minutes": "4"}

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = self.write(tmp_path, "\n# a comment\nseed = 9  # trailing\n\n")
        assert load_file(path) == {"seed": "9"}

    def test_unknown_key_is_error(self, tmp_path):
        path = self.write(tmp_path, "verbosity = 3\n")
        with pytest.raises(ConfigError, match="unknown setting"):
            load_file(path)

    def test_missing_equals_is_error(self, tmp_path):
        path = self.write(tmp_path, "just some words\n")
        with pytest.raises(ConfigError, match="key=value"):
            load_file(path)

    @pytest.mark.parametrize("line, kind", [("slack_minutes = abc", "int"),
                                            ("geo_offline = maybe", "bool")])
    def test_value_of_the_wrong_type_names_file_and_line(self, tmp_path, line, kind):
        path = self.write(tmp_path, f"seed = 9\n{line}\n")
        name, _, value = line.partition(" = ")
        message = f"{path}:2: bad value for {name}: {value!r} (expected {kind})"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_file(path)

    def test_byte_that_is_not_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "sleeplog.conf"
        path.write_bytes(b"seed = 9\n# caf\xe9 settings\n")
        message = f"{path}:2: not valid UTF-8: byte 0xe9 at char 5"
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_file(str(path))

    def test_unreadable_file_is_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_file(str(tmp_path / "absent.conf"))


class TestResolve:
    def test_defaults(self):
        resolved = resolve()
        assert resolved["min_duration_minutes"] == 120
        assert resolved["max_duration_minutes"] == 720
        assert resolved["slack_minutes"] == 15
        assert resolved["geo_offline"] is False

    def test_file_beats_default(self):
        resolved = resolve(file_values={"slack_minutes": "30"})
        assert resolved["slack_minutes"] == 30

    def test_flag_beats_file(self):
        resolved = resolve(
            file_values={"slack_minutes": "30"},
            flag_values={"slack_minutes": 60},
        )
        assert resolved["slack_minutes"] == 60

    def test_none_flag_means_not_given(self):
        resolved = resolve(file_values={"slack_minutes": "45"},
                           flag_values={"slack_minutes": None})
        assert resolved["slack_minutes"] == 45

    def test_unknown_flag_raises(self):
        with pytest.raises(ConfigError):
            resolve(flag_values={"volume": 11})

    def test_invalid_window_raises(self):
        with pytest.raises(ConfigError, match="min_duration"):
            resolve(flag_values={"min_duration_minutes": 900})

    def test_bad_denominator_raises(self):
        with pytest.raises(ConfigError, match="denominator"):
            resolve(flag_values={"presleep_denominator": "week"})

    @pytest.mark.parametrize(
        "name, value",
        [("presleep_window_minutes", 0), ("presleep_window_minutes", -30),
         ("min_logs_per_user", 0), ("slack_minutes", -1), ("synth_users", -3)],
    )
    def test_value_below_its_floor_raises(self, name, value):
        with pytest.raises(ConfigError, match=name):
            resolve(flag_values={name: value})

    @pytest.mark.parametrize(
        "name, value",
        [("presleep_window_minutes", 1), ("min_logs_per_user", 1), ("slack_minutes", 0),
         ("synth_users", 1)],
    )
    def test_value_at_its_floor_is_accepted(self, name, value):
        assert resolve(flag_values={name: value})[name] == value

    def test_window_up_to_datetimes_whole_span_is_accepted(self):
        span = 5_258_964_959  # whole minutes from datetime.min to datetime.max
        flags = {"presleep_window_minutes": span}
        assert resolve(flag_values=flags)["presleep_window_minutes"] == span
        with pytest.raises(ConfigError, match=f"presleep_window_minutes <= {span}"):
            resolve(flag_values={"presleep_window_minutes": span + 1})


class TestStamp:
    def test_sorted_and_lowercase_bools(self):
        stamp = config_stamp(resolve())
        assert "geo_offline=false" in stamp
        keys = [pair.split("=")[0] for pair in stamp.split(" ")]
        assert keys == sorted(keys)

    def test_geo_cache_never_in_stamp(self):
        here = config_stamp(resolve(flag_values={"geo_cache": "a.json"}))
        there = config_stamp(resolve(flag_values={"geo_cache": "elsewhere/b.json"}))
        assert here == there
        assert "geo_cache" not in here

    def test_stamp_reflects_value_changes(self):
        base = config_stamp(resolve())
        changed = config_stamp(resolve(flag_values={"slack_minutes": 45}))
        assert base != changed
        assert "slack_minutes=45" in changed

    def test_every_stamped_setting_present(self):
        stamp = config_stamp(resolve())
        for setting in SETTINGS:
            assert (f"{setting.name}=" in stamp) is setting.stamped


class TestLibraryDefaults:
    """A library caller who passes nothing gets what a run with no settings gets."""

    DEFAULTS = {s.name: s.default for s in SETTINGS}

    @pytest.mark.parametrize(
        "function, parameter, setting",
        [(parse_tweet, "slack_minutes", "slack_minutes"),
         (anchor_dates, "slack_minutes", "slack_minutes"),
         (presleep_probability, "window_minutes", "presleep_window_minutes"),
         (presleep_probability, "denominator", "presleep_denominator"),
         (presleep_activity, "window_minutes", "presleep_window_minutes"),
         (presleep_activity, "denominator", "presleep_denominator"),
         (filter_min_logs, "min_logs", "min_logs_per_user")],
    )
    def test_parameter_default_is_the_settings_default(self, function, parameter, setting):
        assert inspect.signature(function).parameters[parameter].default == self.DEFAULTS[setting]

    def test_filter_config_defaults_are_the_settings_defaults(self):
        fields = {f.name: f.default for f in dataclasses.fields(FilterConfig)}
        assert fields == {
            name: self.DEFAULTS[name]
            for name in ("min_duration_minutes", "max_duration_minutes",
                         "require_deep_sleep", "require_anchor")
        }
