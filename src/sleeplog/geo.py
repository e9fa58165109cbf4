"""Country resolution: timezone tables, reverse geocoding, language fallback.

Resolution never fails a record; a user we cannot place is UNRESOLVED and
simply drops out of per-country analyses.  The geocoding client keeps a
persistent on-disk cache (negative answers included) so re-runs of a corpus
do not touch the network at all.
"""

from __future__ import annotations

import csv
import functools
import json
import os
import threading
import time as _time
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from typing import Callable

from .records import RawTweet


class ResolutionMethod(Enum):
    TIMEZONE = "TIMEZONE"
    GEOCODED_LOCATION = "GEOCODED_LOCATION"
    LANGUAGE_PROXY = "LANGUAGE_PROXY"
    UNRESOLVED = "UNRESOLVED"


@dataclass(frozen=True)
class CountryResolution:
    user_id: str
    country: str | None
    method: ResolutionMethod
    query_text: str | None = None

    def __post_init__(self) -> None:
        has_country = self.country is not None
        if has_country == (self.method is ResolutionMethod.UNRESOLVED):
            raise ValueError("country must be present exactly when method resolves")

    @classmethod
    def from_record(cls, doc: dict) -> "CountryResolution":
        return cls(
            user_id=doc["user_id"],
            country=doc["country"],
            method=ResolutionMethod(doc["method"]),
            query_text=doc.get("query_text"),
        )


@functools.cache
def _load_table(name: str) -> dict[str, str]:
    table: dict[str, str] = {}
    with resources.files("sleeplog.data").joinpath(name).open(
        "r", encoding="utf-8", newline=""
    ) as handle:
        for row in csv.reader(handle):
            if not row or row[0].startswith("#"):
                continue
            table[row[0]] = row[1]
    return table


def zone_country_table() -> dict[str, str]:
    """Timezone name -> country, for zones lying in exactly one country."""
    return _load_table("zone_country.csv")


def language_country_table() -> dict[str, str]:
    """Interface language -> country, for languages dominant in one country."""
    return _load_table("lang_country.csv")


_FAILED = object()  # transient failure after retries; not a cacheable answer


# The request and answer shape of a Nominatim-style search API.
_QUERY_PARAM = "q"
_EXTRA_PARAMS = {"format": "jsonv2", "limit": "1", "addressdetails": "1"}
_TIMEOUT_SECONDS = 10.0
_MIN_INTERVAL_SECONDS = 1.0  # Nominatim's usage policy: at most one request a second
_MAX_RETRIES = 2
_BACKOFF_SECONDS = 0.5


def _default_fetch(url: str, params: dict[str, str], timeout: float) -> tuple[int, str]:
    import requests

    response = requests.get(
        url, params=params, timeout=timeout, headers={"User-Agent": "sleeplog/0.1"}
    )
    return response.status_code, response.text


def _load_cache(path: str) -> dict[str, str | None]:
    """Read the cache's query -> country code (or null) map; a malformed file names itself."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            cache = json.load(handle)
        except (RecursionError, ValueError) as exc:  # malformed, too deep or undecodable
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(cache, dict) or not all(
        v is None or isinstance(v, str) for v in cache.values()
    ):
        raise ValueError(f"{path}: geo cache must be a JSON object of country codes or null")
    return cache


class GeocodeClient:
    """Rate-limited, caching lookup of free-text locations to country codes.

    The cache file maps query -> ISO country code or null; null entries are
    real answers ("the service found nothing") and are never re-asked.
    Transient failures are only remembered for the current run.  In offline
    mode the network is never touched: cache hits resolve, everything else
    misses.
    """

    def __init__(
        self,
        base_url: str,
        cache_path: str | None = None,
        offline: bool = False,
        fetch: Callable[[str, dict, float], tuple[int, str]] | None = None,
        sleep: Callable[[float], None] = _time.sleep,
        monotonic: Callable[[], float] = _time.monotonic,
    ) -> None:
        self.base_url = base_url
        self.cache_path = cache_path
        self.offline = offline
        self._fetch = fetch or _default_fetch
        self._sleep = sleep
        self._monotonic = monotonic
        self._lock = threading.Lock()
        self._last_request: float | None = None
        self._run_failures: set[str] = set()
        self._cache: dict[str, str | None] = {}
        if cache_path and os.path.exists(cache_path):
            self._cache = _load_cache(cache_path)

    def _save_cache(self) -> None:
        if not self.cache_path:
            return
        tmp = self.cache_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self._cache, handle, sort_keys=True, indent=0)
        os.replace(tmp, self.cache_path)

    def _throttle(self) -> None:
        if self._last_request is None:
            return
        elapsed = self._monotonic() - self._last_request
        remaining = _MIN_INTERVAL_SECONDS - elapsed
        if remaining > 0:
            self._sleep(remaining)

    def lookup(self, query: str) -> str | None:
        """Country code for a location string, or None when unknown."""
        if not query or not query.strip():
            raise ValueError("lookup requires a non-empty query")
        query = query.strip()
        with self._lock:
            if query in self._cache:
                return self._cache[query]
            if self.offline or query in self._run_failures:
                return None
            result = self._lookup_remote(query)
            if result is not _FAILED:
                self._cache[query] = result
                self._save_cache()
                return result
            self._run_failures.add(query)
            return None

    def _lookup_remote(self, query: str):
        params = {**_EXTRA_PARAMS, _QUERY_PARAM: query}
        delay = _BACKOFF_SECONDS
        for attempt in range(_MAX_RETRIES + 1):
            self._throttle()
            self._last_request = self._monotonic()
            try:
                status, body = self._fetch(self.base_url, params, _TIMEOUT_SECONDS)
                if 200 <= status < 300:
                    doc = json.loads(body)  # the first place's address.country_code
                    place = doc[0] if isinstance(doc, list) and doc else None
                    address = place.get("address") if isinstance(place, dict) else None
                    value = address.get("country_code") if isinstance(address, dict) else None
                    if isinstance(value, str) and value.strip():
                        return value.strip().upper()
                    return None  # definitive: service answered, no country
            except Exception:
                pass
            if attempt < _MAX_RETRIES:
                self._sleep(delay)
                delay *= 2
        return _FAILED


def normalize_language(tag: str) -> str:
    """Primary subtag of a BCP-47 language tag, lowercased (ja-JP -> ja)."""
    return tag.strip().lower().split("-")[0]


def resolve_country(tweet: RawTweet, client: GeocodeClient | None = None) -> CountryResolution:
    """Resolve a user's country, trying the strongest signal first.

    Order: unambiguous timezone, then geocoded profile location, then an
    unambiguous interface language.  Anything else is UNRESOLVED.
    """
    if tweet.time_zone:
        country = zone_country_table().get(tweet.time_zone.strip())
        if country:
            return CountryResolution(
                user_id=tweet.user_id,
                country=country,
                method=ResolutionMethod.TIMEZONE,
            )

    location = (tweet.location_text or "").strip()
    if location and client is not None:
        country = client.lookup(location)
        if country:
            return CountryResolution(
                user_id=tweet.user_id,
                country=country,
                method=ResolutionMethod.GEOCODED_LOCATION,
                query_text=location,
            )

    if tweet.interface_lang:
        country = language_country_table().get(normalize_language(tweet.interface_lang))
        if country:
            return CountryResolution(
                user_id=tweet.user_id,
                country=country,
                method=ResolutionMethod.LANGUAGE_PROXY,
            )

    return CountryResolution(
        user_id=tweet.user_id, country=None, method=ResolutionMethod.UNRESOLVED
    )


def resolve_users(
    profiles: dict[str, RawTweet], client: GeocodeClient | None = None
) -> dict[str, CountryResolution]:
    """One resolution per user, in user id order, from `profiles`: each user's most
    recent tweet by user id, as `latest_profiles` gives them."""
    return {
        user_id: resolve_country(profile, client)
        for user_id, profile in sorted(profiles.items())
    }
