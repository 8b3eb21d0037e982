"""Offline place resolution with a persistent cache and plausibility checks.

Both extraction paths call this module with the same gazetteer and the same
cache file, so coordinate behavior can never differ between them. The
gazetteer is a local line-oriented file; there is no network geocoder and no
fuzzy matching. Every query outcome, including a miss, is cached so a warm
second run touches the gazetteer zero times.

A record is geocoded in one step, ``apply_geocode``, against a plain dict of
cache key -> outcome (a copy of the run cache's ``outcomes``), which it
feeds on a miss; it returns the lookup it made, which ``replay_lookup``
counts and persists in the run's ``GeocodeCache``.

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
_PLACE_LEAVES = (
    "spatial.last_seen_location",
    "spatial.city",
    "spatial.state",
    "spatial.postal_code",
)

RegionBoxes = Mapping[str, tuple[float, float, float, float]]
# A cached outcome: a match's (lat, lon, matched_place), or for a miss the
# ambiguous_place message, or None.
CacheValue = tuple[float, float, str] | str | None


def _place_key(raw: str) -> str:
    """``normalize_place``'s key, "" for text with no letter or digit."""
    return "|".join(_TOKEN_RE.findall(raw.casefold()))


def normalize_place(raw: str) -> str:
    """Canonical query key: casefold, punctuation to separators, "|"-joined."""
    key = _place_key(raw)
    if not key:
        raise ValueError(f"empty place query: {raw!r}")
    return key


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


class Gazetteer:
    """In-memory place table with postal, place+region, and place indices.

    It counts nothing: ``apply_geocode`` resolves exactly on a cache miss,
    so a run's gazetteer lookups are its geocode cache's misses.
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

    def resolve(self, place_key: str, bias_region: str | None) -> CacheValue:
        """The outcome the cache keeps for a normalized place key: a match's
        ``(lat, lon, place)``, else the ``ambiguous_place`` message when the
        key names several places, else None. ``bias_region`` is a region's
        normalized key, or None. Match order: postal code, place+in-string
        region, bias region, unique place. A region may be named by its
        code."""
        tokens = place_key.split("|")

        for token in tokens:
            if _POSTAL_TOKEN_RE.match(token):
                hits = self._by_postal.get(token, [])
                if len(hits) == 1:
                    return hits[0].lat, hits[0].lon, hits[0].place
                if len(hits) > 1:
                    return f"postal code {token} maps to several places"

        place, region = self._split_region(tokens)
        # (place, None) is in no index, so a missing region matches nothing.
        for key in (region, bias_region):
            entry = self._by_place_region.get((place, key))
            if entry is not None:
                return entry.lat, entry.lon, entry.place

        hits = self._by_place.get(place, [])
        if len(hits) == 1:
            return hits[0].lat, hits[0].lon, hits[0].place
        if len(hits) > 1:
            return f"{place!r} exists in several regions and no region was given"
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

    Records are geocoded against a copy of its ``outcomes``; it counts and
    persists only the lookups ``replay_lookup`` hands it.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._data: dict[str, CacheValue] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
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

    def outcomes(self) -> dict[str, CacheValue]:
        """A copy of the cached outcomes, key -> value, counting nothing."""
        with self._lock:
            return dict(self._data)

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


def replay_lookup(key: str, value: CacheValue, cache: GeocodeCache) -> None:
    """Count a lookup of ``key`` that resolved to ``value`` against a copy of
    ``cache``'s outcomes, as one made here would count: a hit if the key is
    cached, else a miss and a put of ``value``."""
    if not cache.lookup(key)[0]:
        cache.put(key, value)


def apply_geocode(
    leaves: dict,
    gazetteer: Gazetteer,
    known: dict[str, CacheValue],
    on_warning: WarnFn | None = None,
) -> tuple[tuple[str, CacheValue], ...]:
    """Fill the spatial coordinates of a record's leaf map in place, when a
    place is known, and return the ``(key, outcome)`` lookup made, or ``()``
    when none was. ``known`` maps cache keys to outcomes; a key it lacks is
    resolved through the gazetteer and added. A leaf the map lacks, or a
    place leaf that is not a string, reads as null.

    Records that already carry coordinates bypass resolution entirely and are
    marked source_provided. Records with no usable place text are left
    untouched (method stays "none", coordinates stay null). The state, when
    it has a letter or digit, biases the match, is part of the cache key and
    names the region the coordinates must fall in. A place in several
    regions warns ``ambiguous_place``, on a hit as on a miss. A record whose
    method stays "none" though it names a last_seen_location, city or postal
    code warns ``geocode_no_match``, unless its place was ambiguous.
    """
    get = leaves.get
    if get("spatial.lat") is not None and get("spatial.lon") is not None:
        if get("spatial.geocode_method") in (None, "none"):
            leaves["spatial.geocode_method"] = "source_provided"
        return ()

    # A place leaf that is not a string reads as null.
    location, city, state, postal = (
        value if isinstance(value, str) else None for value in map(get, _PLACE_LEAVES)
    )
    place = location if location is not None else " ".join(p for p in (city, state, postal) if p)
    place_key = _place_key(place)
    lookups: tuple[tuple[str, CacheValue], ...] = ()
    outcome: CacheValue = None
    if place_key:
        bias = _place_key(state or "") or None
        key = f"{place_key}@{bias}" if bias else place_key
        if key in known:
            outcome = known[key]
        else:
            outcome = known[key] = gazetteer.resolve(place_key, bias)
        lookups = ((key, outcome),)
        if isinstance(outcome, tuple):
            lat, lon, _ = outcome
            leaves["spatial.lat"] = lat
            leaves["spatial.lon"] = lon
            leaves["spatial.geocode_method"] = "gazetteer"
            leaves["spatial.geocode_plausible"] = plausible_coords(
                lat, lon, bias, gazetteer.default_boxes
            )
    if on_warning is not None:
        if isinstance(outcome, str):
            on_warning("ambiguous_place", outcome)
        elif get("spatial.geocode_method") == "none" and (location or city or postal):
            on_warning("geocode_no_match", "no gazetteer match for the record's place text")
    return lookups


__all__ = [
    "DEFAULT_BOX_MARGIN",
    "Gazetteer",
    "GazetteerEntry",
    "GeocodeCache",
    "apply_geocode",
    "normalize_place",
    "plausible_coords",
    "replay_lookup",
]
