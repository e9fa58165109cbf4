"""Country resolution: lookup tables, geocoding client, precedence rules."""

from __future__ import annotations

import json
from datetime import datetime, timezone

import pytest

from sleeplog.geo import (
    _BACKOFF_SECONDS,
    _MAX_RETRIES,
    _MIN_INTERVAL_SECONDS,
    CountryResolution,
    GeocodeClient,
    ResolutionMethod,
    language_country_table,
    normalize_language,
    resolve_country,
    resolve_users,
    zone_country_table,
)


def client_with(transport_cls, clock, answers=None, failures=0, cache_path=None):
    """A client over a fixture transport; it paces itself on `clock`, never for real."""
    fetch = transport_cls(answers=answers, failures=failures)
    client = GeocodeClient(
        "https://geo.test/search",
        cache_path=cache_path,
        fetch=fetch,
        sleep=clock.sleep,
        monotonic=clock.monotonic,
    )
    return client, fetch


class TestTables:
    def test_iana_zone_lookups(self):
        table = zone_country_table()
        assert table["Asia/Tokyo"] == "JP"
        assert table["America/New_York"] == "US"
        assert table["Europe/Moscow"] == "RU"

    def test_descriptive_zone_labels(self):
        table = zone_country_table()
        assert table["Eastern Time (US & Canada)"] == "US"
        assert table["Tokyo"] == "JP"

    def test_multi_country_zones_absent(self):
        table = zone_country_table()
        assert "UTC" not in table
        assert "Europe/Zurich" in table  # CH-only is fine

    def test_language_lookups(self):
        table = language_country_table()
        assert table["ja"] == "JP"
        assert table["ko"] == "KR"
        # Languages spread over many countries must not be guessed.
        for shared in ("en", "es", "pt", "de", "fr", "zh", "ar"):
            assert shared not in table

    @pytest.mark.parametrize("tag, expected", [
        ("ja", "ja"), ("ja-JP", "ja"), ("EN-us", "en"), ("  ru ", "ru"),
    ])
    def test_normalize_language(self, tag, expected):
        assert normalize_language(tag) == expected


class TestResolutionPrecedence:
    def test_timezone_wins(self, make_tweet, transport, fake_clock):
        client, fetch = client_with(transport, fake_clock, answers={"Paris": "FR"})
        tweet = make_tweet(time_zone="Asia/Tokyo", location_text="Paris",
                           interface_lang="ru")
        got = resolve_country(tweet, client)
        assert got.country == "JP"
        assert got.method is ResolutionMethod.TIMEZONE
        assert fetch.calls == []

    def test_location_when_zone_unknown(self, make_tweet, transport, fake_clock):
        client, fetch = client_with(transport, fake_clock, answers={"Paris, France": "FR"})
        tweet = make_tweet(time_zone="Galactic/Center",
                           location_text="Paris, France", interface_lang="ru")
        got = resolve_country(tweet, client)
        assert got.country == "FR"
        assert got.method is ResolutionMethod.GEOCODED_LOCATION
        assert got.query_text == "Paris, France"

    def test_language_as_last_resort(self, make_tweet, transport, fake_clock):
        client, _ = client_with(transport, fake_clock, answers={})
        tweet = make_tweet(location_text="the moon", interface_lang="ja-JP")
        got = resolve_country(tweet, client)
        assert got.country == "JP"
        assert got.method is ResolutionMethod.LANGUAGE_PROXY

    def test_unresolved_when_no_signal(self, make_tweet):
        got = resolve_country(make_tweet(interface_lang="en"))
        assert got.country is None
        assert got.method is ResolutionMethod.UNRESOLVED

    def test_no_client_skips_geocoding(self, make_tweet):
        got = resolve_country(make_tweet(location_text="Paris, France"))
        assert got.method is ResolutionMethod.UNRESOLVED

    def test_blank_location_not_queried(self, make_tweet, transport, fake_clock):
        client, fetch = client_with(transport, fake_clock)
        resolve_country(make_tweet(location_text="   "), client)
        assert fetch.calls == []

    def test_resolution_record_round_trip(self):
        doc = {"user_id": "u1", "country": "JP", "method": "TIMEZONE", "query_text": None}
        res = CountryResolution("u1", "JP", ResolutionMethod.TIMEZONE)
        assert CountryResolution.from_record(doc) == res

    def test_resolution_invariant(self):
        with pytest.raises(ValueError):
            CountryResolution("u1", None, ResolutionMethod.TIMEZONE)
        with pytest.raises(ValueError):
            CountryResolution("u1", "JP", ResolutionMethod.UNRESOLVED)


class TestGeocodeClient:
    def test_lookup_parses_country(self, transport, fake_clock):
        client, fetch = client_with(transport, fake_clock, answers={"Berlin": "DE"})
        assert client.lookup("Berlin") == "DE"
        assert fetch.calls == ["Berlin"]

    def test_cache_hit_skips_network(self, transport, fake_clock):
        client, fetch = client_with(transport, fake_clock, answers={"Berlin": "DE"})
        for _ in range(3):
            assert client.lookup("Berlin") == "DE"
        assert fetch.calls == ["Berlin"]

    def test_negative_answer_is_cached(self, transport, fake_clock):
        client, fetch = client_with(transport, fake_clock, answers={"nowhere": None})
        assert client.lookup("nowhere") is None
        assert client.lookup("nowhere") is None
        assert fetch.calls == ["nowhere"]

    def test_cache_persists_across_clients(self, transport, fake_clock, tmp_path):
        cache = str(tmp_path / "geo_cache.json")
        first, fetch1 = client_with(transport, fake_clock, answers={"Berlin": "DE"},
                                    cache_path=cache)
        assert first.lookup("Berlin") == "DE"
        second, fetch2 = client_with(transport, fake_clock, answers={"Berlin": "DE"},
                                     cache_path=cache)
        assert second.lookup("Berlin") == "DE"
        assert fetch1.calls == ["Berlin"]
        assert fetch2.calls == []

    def test_cache_file_is_plain_json(self, transport, fake_clock, tmp_path):
        cache = str(tmp_path / "geo_cache.json")
        client, _ = client_with(transport, fake_clock, answers={"Berlin": "DE", "nowhere": None},
                                cache_path=cache)
        client.lookup("Berlin")
        client.lookup("nowhere")
        stored = json.loads((tmp_path / "geo_cache.json").read_text())
        assert stored == {"Berlin": "DE", "nowhere": None}

    def test_offline_never_touches_network(self, transport, fake_clock, tmp_path):
        cache = str(tmp_path / "geo_cache.json")
        (tmp_path / "geo_cache.json").write_text(json.dumps({"Berlin": "DE"}))
        fetch = transport(answers={"Berlin": "DE", "Paris": "FR"})
        client = GeocodeClient("https://geo.test/search", cache_path=cache, offline=True,
                               fetch=fetch, sleep=fake_clock.sleep,
                               monotonic=fake_clock.monotonic)
        assert client.lookup("Berlin") == "DE"   # cache still works
        assert client.lookup("Paris") is None    # miss, no network
        assert fetch.calls == []

    def test_empty_query_rejected(self, transport, fake_clock):
        client, _ = client_with(transport, fake_clock)
        with pytest.raises(ValueError):
            client.lookup("   ")

    def test_country_code_uppercased(self, transport, fake_clock):
        client, _ = client_with(transport, fake_clock, answers={"Berlin": "de"})
        assert client.lookup("Berlin") == "DE"

    def test_http_error_status_is_definitive_none(self, transport, fake_clock):
        # A 404 body is an answer (nothing found), cached as None.
        client, fetch = client_with(transport, fake_clock, answers={})
        assert client.lookup("gibberish") is None
        assert client.lookup("gibberish") is None
        # 404 is outside 2xx, so the client retried before giving up.
        assert fetch.calls == ["gibberish"] * (_MAX_RETRIES + 1)


class TestRetriesAndThrottle:
    def test_transient_failure_retries_then_gives_up(self, transport, fake_clock):
        client, fetch = client_with(transport, fake_clock, answers={"Berlin": "DE"},
                                    failures=99)
        assert client.lookup("Berlin") is None
        assert len(fetch.calls) == 1 + _MAX_RETRIES

    def test_failure_not_reasked_same_run(self, transport, fake_clock):
        client, fetch = client_with(transport, fake_clock, answers={"Berlin": "DE"},
                                    failures=99)
        client.lookup("Berlin")
        client.lookup("Berlin")
        assert len(fetch.calls) == 1 + _MAX_RETRIES  # second lookup adds no calls

    def test_failure_not_cached_to_disk(self, transport, fake_clock, tmp_path):
        cache = str(tmp_path / "cache.json")
        broken, _ = client_with(transport, fake_clock, answers={"Berlin": "DE"}, failures=99,
                                cache_path=cache)
        assert broken.lookup("Berlin") is None
        healed, fetch = client_with(transport, fake_clock, answers={"Berlin": "DE"},
                                    cache_path=cache)
        assert healed.lookup("Berlin") == "DE"
        assert fetch.calls == ["Berlin"]

    def test_recovery_after_transient_failures(self, transport, fake_clock):
        client, fetch = client_with(transport, fake_clock, answers={"Berlin": "DE"},
                                    failures=_MAX_RETRIES)
        assert client.lookup("Berlin") == "DE"
        assert len(fetch.calls) == 1 + _MAX_RETRIES

    def test_backoff_doubles(self, transport, fake_clock):
        client, _ = client_with(transport, fake_clock, answers={}, failures=99)
        client.lookup("Berlin")
        # The first backoff is shorter than the interval, so the throttle
        # sleeps out the rest of it; the doubled backoff covers the interval.
        assert _BACKOFF_SECONDS < _MIN_INTERVAL_SECONDS <= 2 * _BACKOFF_SECONDS
        assert fake_clock.sleeps == [
            _BACKOFF_SECONDS, _MIN_INTERVAL_SECONDS - _BACKOFF_SECONDS, 2 * _BACKOFF_SECONDS,
        ]

    def test_min_interval_enforced_between_queries(self, transport, fake_clock):
        client, _ = client_with(transport, fake_clock, answers={"a": "DE", "b": "FR"})
        client.lookup("a")
        client.lookup("b")
        # No time passed between the calls except our own sleeps.
        assert fake_clock.sleeps == [_MIN_INTERVAL_SECONDS]

    def test_no_throttle_needed_when_time_elapsed(self, transport, fake_clock):
        client, _ = client_with(transport, fake_clock, answers={"a": "DE", "b": "FR"})
        client.lookup("a")
        fake_clock.now += _MIN_INTERVAL_SECONDS
        client.lookup("b")
        assert fake_clock.sleeps == []


class TestResolveUsers:
    def test_latest_profile_wins(self, make_tweet):
        older = make_tweet(user_id="u9", time_zone="Asia/Tokyo",
                           created_at=datetime(2015, 10, 1, tzinfo=timezone.utc))
        newer = make_tweet(user_id="u9", time_zone="America/Chicago",
                           created_at=datetime(2015, 10, 20, tzinfo=timezone.utc))
        got = resolve_users([older, newer])
        assert got["u9"].country == "US"

    def test_one_entry_per_user(self, make_tweet):
        tweets = [
            make_tweet(user_id="a", time_zone="Asia/Tokyo"),
            make_tweet(user_id="b", time_zone="Europe/London"),
            make_tweet(user_id="a", time_zone="Asia/Tokyo"),
        ]
        got = resolve_users(tweets)
        assert set(got) == {"a", "b"}
        assert got["b"].country == "GB"

    def test_unresolvable_users_still_reported(self, make_tweet):
        got = resolve_users([make_tweet(user_id="x")])
        assert got["x"].method is ResolutionMethod.UNRESOLVED
