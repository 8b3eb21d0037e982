"""Offline place resolution with a persistent cache and plausibility checks.

Both extraction paths call this module with the same gazetteer and the same
cache file, so coordinate behavior can never differ between them. The
gazetteer is a local line-oriented file; there is no network geocoder and no
fuzzy matching. Every query outcome, including a miss, is cached so a warm
second run touches the gazetteer zero times.

Plausibility is a coarse sanity check, not a guarantee: coordinates must be
non-null, not at the (0, 0) null island, and inside the expected region's
bounding box (the min/max extent of that region's gazetteer entries plus a
fixed margin).
"""

from __future__ import annotations

import json
import re
import threading
from pathlib import Path
from typing import Any, Callable, Mapping, NamedTuple

from casepipe.config import ConfigError, read_jsonl
from casepipe.schema import LAT_RANGE, LON_RANGE

WarnFn = Callable[[str, str], None]

DEFAULT_BOX_MARGIN = 0.25
_ZERO_EPS = 1e-6
_TOKEN_RE = re.compile(r"[0-9a-z]+")
_POSTAL_TOKEN_RE = re.compile(r"^\d{5}$")

RegionBoxes = Mapping[str, tuple[float, float, float, float]]
# A cached outcome: a match's (lat, lon, matched_place), or for a miss the
# ambiguous_place message, or None.
CacheValue = tuple[float, float, str] | str | None


def normalize_place(raw: str) -> str:
    """Canonical query key: casefold, punctuation to separators, "|"-joined."""
    tokens = _TOKEN_RE.findall(raw.casefold())
    if not tokens:
        raise ValueError(f"empty place query: {raw!r}")
    return "|".join(tokens)


class _GazetteerFields(NamedTuple):
    place: str
    region: str
    postal_codes: tuple[str, ...]
    lat: float
    lon: float
    # The region's short code ("VA"), read as the region wherever one is.
    region_code: str | None = None


class GazetteerEntry(_GazetteerFields):
    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> GazetteerEntry:
        self = super().__new__(cls, *args, **kwargs)
        if not (LAT_RANGE[0] <= self.lat <= LAT_RANGE[1]):
            raise ValueError(f"latitude out of range for {self.place!r}: {self.lat}")
        if not (LON_RANGE[0] <= self.lon <= LON_RANGE[1]):
            raise ValueError(f"longitude out of range for {self.place!r}: {self.lon}")
        return self


class _QueryFields(NamedTuple):
    normalized_key: str
    bias_region: str | None = None


class GeocodeQuery(_QueryFields):
    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> GeocodeQuery:
        self = super().__new__(cls, *args, **kwargs)
        if not self.normalized_key:
            raise ValueError("normalized_key must be non-empty")
        return self


class _ResultFields(NamedTuple):
    lat: float | None
    lon: float | None
    matched_place: str | None
    cache_hit: bool
    plausible: bool | None


class GeocodeResult(_ResultFields):
    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> GeocodeResult:
        self = super().__new__(cls, *args, **kwargs)
        coords = [self.lat is None, self.lon is None, self.matched_place is None]
        if len(set(coords)) != 1:
            raise ValueError("lat, lon, and matched_place must be null together")
        if (self.plausible is None) != (self.lat is None):
            raise ValueError("plausible must be set exactly when coordinates are")
        return self

    @property
    def matched(self) -> bool:
        return self.lat is not None


class Gazetteer:
    """In-memory place table with postal, place+region, and place indices.

    It counts nothing: ``geocode`` resolves exactly on a cache miss, so a
    run's gazetteer lookups are its geocode cache's misses.
    """

    def __init__(self, entries: list[GazetteerEntry]):
        if not entries:
            raise ConfigError("gazetteer has no entries")
        self.entries = tuple(entries)
        self._by_postal: dict[str, list[GazetteerEntry]] = {}
        self._by_place_region: dict[tuple[str, str], GazetteerEntry] = {}
        self._by_place: dict[str, list[GazetteerEntry]] = {}
        # Each region code's key -> its region's key.
        self._code_regions: dict[str, str] = {}
        for entry in entries:
            place_key = normalize_place(entry.place)
            region_key = normalize_place(entry.region)
            keys = {region_key}
            if entry.region_code:
                code_key = normalize_place(entry.region_code)
                if self._code_regions.setdefault(code_key, region_key) != region_key:
                    raise ConfigError(f"region code {entry.region_code!r} names two regions")
                keys.add(code_key)
            for key in keys:
                if (place_key, key) in self._by_place_region:
                    raise ConfigError(f"duplicate gazetteer entry: {entry.place}, {entry.region}")
                self._by_place_region[place_key, key] = entry
            self._by_place.setdefault(place_key, []).append(entry)
            for code in entry.postal_codes:
                self._by_postal.setdefault(code, []).append(entry)
        # Keyed by every region and region code, so it is also the region
        # set _split_region needs.
        self.default_boxes = self.region_boxes()

    @classmethod
    def load(cls, path: str | Path) -> "Gazetteer":
        entries = []
        for row in read_jsonl(path):
            try:
                entries.append(
                    GazetteerEntry(
                        place=row["place"],
                        region=row["region"],
                        postal_codes=tuple(row.get("postal_codes", [])),
                        lat=float(row["lat"]),
                        lon=float(row["lon"]),
                        region_code=row.get("region_code"),
                    )
                )
            except KeyError as exc:
                raise ConfigError(f"{path}: gazetteer row missing {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{path}: bad gazetteer row: {exc}") from exc
        return cls(entries)

    def region_boxes(self) -> dict[str, tuple[float, float, float, float]]:
        """Bounding box per region key: (lat_min, lat_max, lon_min, lon_max),
        the extent of the region's entries widened by ``DEFAULT_BOX_MARGIN``.
        A region code's key has its region's box."""
        margin = DEFAULT_BOX_MARGIN
        inf = float("inf")
        empty = (inf, -inf, inf, -inf)
        boxes: dict[str, tuple[float, float, float, float]] = {}
        for entry in self.entries:
            key = normalize_place(entry.region)
            lat_min, lat_max, lon_min, lon_max = boxes.get(key, empty)
            boxes[key] = (
                min(lat_min, entry.lat - margin),
                max(lat_max, entry.lat + margin),
                min(lon_min, entry.lon - margin),
                max(lon_max, entry.lon + margin),
            )
        for code_key, region_key in self._code_regions.items():
            boxes[code_key] = boxes[region_key]
        return boxes

    def resolve(
        self,
        normalized_key: str,
        bias_region: str | None,
        on_warning: WarnFn | None = None,
    ) -> GazetteerEntry | None:
        """Match order: postal code, place+in-string region, bias region, unique
        place. A region may be named by its code."""
        warn = on_warning if on_warning is not None else (lambda code, msg: None)
        tokens = normalized_key.split("|")

        for token in tokens:
            if _POSTAL_TOKEN_RE.match(token):
                hits = self._by_postal.get(token, [])
                if len(hits) == 1:
                    return hits[0]
                if len(hits) > 1:
                    warn("ambiguous_place", f"postal code {token} maps to several places")
                    return None

        place_key, region_key = self._split_region(tokens)
        if region_key is not None:
            entry = self._by_place_region.get((place_key, region_key))
            if entry is not None:
                return entry

        if bias_region is not None:
            bias_key = normalize_place(bias_region)
            entry = self._by_place_region.get((place_key, bias_key))
            if entry is not None:
                return entry

        hits = self._by_place.get(place_key, [])
        if len(hits) == 1:
            return hits[0]
        if len(hits) > 1:
            warn(
                "ambiguous_place",
                f"{place_key!r} exists in several regions and no region was given",
            )
        return None

    def _split_region(self, tokens: list[str]) -> tuple[str, str | None]:
        """Split trailing region tokens off a query, if a known region matches."""
        plain = [t for t in tokens if not _POSTAL_TOKEN_RE.match(t)]
        for cut in range(1, len(plain)):
            suffix = "|".join(plain[cut:])
            if suffix in self.default_boxes:
                return "|".join(plain[:cut]), suffix
        return "|".join(plain), None


class GeocodeCache:
    """Persistent key -> (lat, lon, matched_place) map with negative entries.

    A negative entry is ``None``, or the message of the ``ambiguous_place``
    warning when the place is in several regions, so a hit warns as the
    miss did. The file is append-only JSONL; reloading replays it in order so
    the last write for a key wins, and a negative row without ``ambiguous``
    reads as a plain negative. Missing files mean an empty cache.

    On a ``journaling_copy``, ``journal`` is a list (else None) to which
    each lookup ``geocode`` makes appends its key and value, for
    ``replay_lookup`` to count against the cache the copy was made from.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._data: dict[str, CacheValue] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.journal: list[tuple[str, CacheValue]] | None = None
        if self.path is not None and self.path.is_file():
            for row in read_jsonl(self.path):
                key = row.get("key")
                if key is None:
                    raise ConfigError(f"{self.path}: cache row without key")
                if row.get("lat") is None:
                    self._data[key] = row.get("ambiguous")
                    continue
                try:
                    self._data[key] = (float(row["lat"]), float(row["lon"]), row["matched_place"])
                except KeyError as exc:
                    raise ConfigError(f"{self.path}: cache row missing {exc}") from exc
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"{self.path}: bad cache row: {exc}") from exc

    def __len__(self) -> int:
        return len(self._data)

    def journaling_copy(self) -> GeocodeCache:
        """A copy that writes no file and journals every lookup."""
        copy = GeocodeCache()
        copy._data, copy.journal = dict(self._data), []
        return copy

    def lookup(self, key: str) -> tuple[bool, CacheValue]:
        """(present, value) for a key; counts the hit or miss."""
        with self._lock:
            if key in self._data:
                self.hits += 1
                return True, self._data[key]
            self.misses += 1
            return False, None

    def put(self, key: str, value: CacheValue) -> None:
        with self._lock:
            self._data[key] = value
            if self.path is None:
                return
            if isinstance(value, tuple):
                row = {"key": key, "lat": value[0], "lon": value[1], "matched_place": value[2]}
            else:
                row = {"key": key, "lat": None, "lon": None, "matched_place": None}
                if value is not None:
                    row["ambiguous"] = value
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a", encoding="utf-8", newline="\n") as fh:
                fh.write(json.dumps(row, ensure_ascii=False))
                fh.write("\n")


def plausible_coords(
    lat: float,
    lon: float,
    expected_region: str | None,
    region_boxes: RegionBoxes,
) -> bool:
    """Non-zero coordinates that fall inside the expected region's box."""
    if abs(lat) <= _ZERO_EPS and abs(lon) <= _ZERO_EPS:
        return False
    if expected_region is None:
        return True
    box = region_boxes.get(normalize_place(expected_region))
    if box is None:
        return False
    lat_min, lat_max, lon_min, lon_max = box
    return lat_min <= lat <= lat_max and lon_min <= lon <= lon_max


def _cache_key(query: GeocodeQuery) -> str:
    if query.bias_region is None:
        return query.normalized_key
    return f"{query.normalized_key}@{normalize_place(query.bias_region)}"


def geocode(
    query: GeocodeQuery,
    gazetteer: Gazetteer,
    cache: GeocodeCache,
    on_warning: WarnFn | None = None,
) -> GeocodeResult:
    """Resolve one query, consulting and feeding the cache."""
    key = _cache_key(query)
    present, value = cache.lookup(key)
    if not present:
        notes: list[str] = []
        entry = gazetteer.resolve(
            query.normalized_key, query.bias_region, lambda code, message: notes.append(message)
        )
        value = (entry.lat, entry.lon, entry.place) if entry else (notes[0] if notes else None)
        cache.put(key, value)
    if cache.journal is not None:
        cache.journal.append((key, value))
    if isinstance(value, tuple):
        lat, lon, place = value
        plausible = plausible_coords(lat, lon, query.bias_region, gazetteer.default_boxes)
        return GeocodeResult(lat, lon, place, cache_hit=present, plausible=plausible)
    if value is not None and on_warning is not None:
        on_warning("ambiguous_place", value)
    return GeocodeResult(None, None, None, cache_hit=present, plausible=None)


def replay_lookup(key: str, value: CacheValue, cache: GeocodeCache) -> None:
    """Count a lookup of ``key`` that resolved to ``value`` in another cache,
    such as a journaling copy of ``cache``, as ``geocode`` counts one here:
    a hit if the key is cached, else a miss and a put of ``value``."""
    if not cache.lookup(key)[0]:
        cache.put(key, value)


def apply_geocode(
    leaves: dict,
    gazetteer: Gazetteer,
    cache: GeocodeCache,
    on_warning: WarnFn | None = None,
) -> tuple[tuple[str, CacheValue], ...]:
    """Fill the spatial coordinates of a record's leaf map in place, when a
    place is known, and return the ``(key, value)`` lookups a journaling
    cache recorded. A leaf the map lacks reads as null.

    Records that already carry coordinates bypass resolution entirely and are
    marked source_provided. Records with no usable place text are left
    untouched (method stays "none", coordinates stay null). A record whose
    method stays "none" though it names a last_seen_location, city or postal
    code warns ``geocode_no_match``, unless its place was ambiguous. The
    lookups are cleared from the journal; a cache without one gives ``()``.
    """
    warned: list[str] = []

    def note(code: str, message: str) -> None:
        warned.append(code)
        if on_warning is not None:
            on_warning(code, message)

    get = leaves.get
    if get("spatial.lat") is not None and get("spatial.lon") is not None:
        if get("spatial.geocode_method") in (None, "none"):
            leaves["spatial.geocode_method"] = "source_provided"
        return ()

    state = get("spatial.state")
    raw_place = get("spatial.last_seen_location")
    if raw_place is None:
        parts = (get("spatial.city"), state, get("spatial.postal_code"))
        raw_place = " ".join(p for p in parts if p)
    if raw_place and _TOKEN_RE.search(raw_place.casefold()):
        query = GeocodeQuery(normalize_place(raw_place), bias_region=state)
        result = geocode(query, gazetteer, cache, note)
        if result.matched:
            leaves["spatial.lat"] = result.lat
            leaves["spatial.lon"] = result.lon
            leaves["spatial.geocode_method"] = "gazetteer"
            leaves["spatial.geocode_plausible"] = result.plausible
    if not warned and get("spatial.geocode_method") == "none" and any(
        get(k) for k in ("spatial.last_seen_location", "spatial.city", "spatial.postal_code")
    ):
        note("geocode_no_match", "no gazetteer match for the record's place text")
    lookups = tuple(cache.journal or ())
    if lookups:
        cache.journal.clear()
    return lookups


__all__ = [
    "DEFAULT_BOX_MARGIN",
    "Gazetteer",
    "GazetteerEntry",
    "GeocodeCache",
    "GeocodeQuery",
    "GeocodeResult",
    "apply_geocode",
    "geocode",
    "normalize_place",
    "plausible_coords",
    "replay_lookup",
]
