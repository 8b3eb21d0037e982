"""Equivalence of the one-step geocoder with the layered lookup it replaces.

``apply_geocode`` geocodes a record against a plain dict of cache key ->
outcome, copied from the run cache's ``outcomes``, and returns its one
lookup, which ``replay_lookup`` counts and persists in the run's cache. The
form it replaces built a query object, looked its key up in a copy of the
run cache that journaled every lookup, resolved a miss through a gazetteer
that reported an ambiguity through a callback, built a result object, and
handed the journal back after each record. Over a cold and a warm cache,
both must give the same leaves, warnings in order and lookups, and leave
the run's cache with the same counts and the cache file with the same
bytes. The replaced form is kept in this file as the oracle; place values
are strings here, which is all it could geocode without raising.
"""

from __future__ import annotations

import re
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from casepipe.config import bundled_path, read_jsonl
from casepipe.geocode import (
    Gazetteer,
    GazetteerEntry,
    GeocodeCache,
    apply_geocode,
    normalize_place,
    plausible_coords,
    replay_lookup,
)

_TOKEN_RE = re.compile(r"[0-9a-z]+")
_POSTAL_TOKEN_RE = re.compile(r"^\d{5}$")

# The bundled places, plus a postal code that two places share and a place
# of two words, so that every match rule and both ambiguities are reached.
_EXTRA_ROWS = [
    {"place": "Milford", "region": "Delaware", "region_code": "DE",
     "postal_codes": ["19963"], "lat": 38.913, "lon": -75.428},
    {"place": "Glen Burnie", "region": "Maryland", "region_code": "MD",
     "postal_codes": ["19963", "21060"], "lat": 39.163, "lon": -76.625},
]
GAZETTEER = Gazetteer(
    [
        GazetteerEntry(
            place=row["place"],
            region=row["region"],
            postal_codes=tuple(row["postal_codes"]),
            lat=row["lat"],
            lon=row["lon"],
            region_code=row["region_code"],
        )
        for row in read_jsonl(bundled_path("gazetteer.jsonl")) + _EXTRA_ROWS
    ]
)


# -- the replaced form, as the oracle ---------------------------------------


class _LoggingCopy:
    """A copy of a run cache's outcomes that writes no file and logs each
    lookup made against it, as ``(key, value)``."""

    def __init__(self, cache: GeocodeCache):
        self._data = dict(cache._data)
        self.log: list = []

    def lookup(self, key):
        if key in self._data:
            return True, self._data[key]
        return False, None

    def put(self, key, value):
        self._data[key] = value


def _oracle_resolve(gazetteer, normalized_key, bias_region, on_warning):
    tokens = normalized_key.split("|")
    for token in tokens:
        if _POSTAL_TOKEN_RE.match(token):
            hits = gazetteer._by_postal.get(token, [])
            if len(hits) == 1:
                return hits[0]
            if len(hits) > 1:
                on_warning("ambiguous_place", f"postal code {token} maps to several places")
                return None
    place_key, region_key = gazetteer._split_region(tokens)
    if region_key is not None:
        entry = gazetteer._by_place_region.get((place_key, region_key))
        if entry is not None:
            return entry
    if bias_region is not None:
        entry = gazetteer._by_place_region.get((place_key, normalize_place(bias_region)))
        if entry is not None:
            return entry
    hits = gazetteer._by_place.get(place_key, [])
    if len(hits) == 1:
        return hits[0]
    if len(hits) > 1:
        on_warning(
            "ambiguous_place",
            f"{place_key!r} exists in several regions and no region was given",
        )
    return None


def _oracle_lookup(normalized_key, bias_region, gazetteer, cache, on_warning):
    """``(lat, lon, plausible)`` of a match, else None."""
    key = normalized_key
    if bias_region is not None:
        key = f"{normalized_key}@{normalize_place(bias_region)}"
    present, value = cache.lookup(key)
    if not present:
        notes: list[str] = []
        entry = _oracle_resolve(
            gazetteer, normalized_key, bias_region, lambda code, message: notes.append(message)
        )
        value = (entry.lat, entry.lon, entry.place) if entry else (notes[0] if notes else None)
        cache.put(key, value)
    cache.log.append((key, value))
    if isinstance(value, tuple):
        lat, lon, _ = value
        return lat, lon, plausible_coords(lat, lon, bias_region, gazetteer.default_boxes)
    if value is not None:
        on_warning("ambiguous_place", value)
    return None


def _oracle_apply(leaves, gazetteer, cache, on_warning):
    warned: list[str] = []

    def note(code, message):
        warned.append(code)
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
        match = _oracle_lookup(normalize_place(raw_place), state, gazetteer, cache, note)
        if match is not None:
            leaves["spatial.lat"], leaves["spatial.lon"] = match[:2]
            leaves["spatial.geocode_method"] = "gazetteer"
            leaves["spatial.geocode_plausible"] = match[2]
    if not warned and get("spatial.geocode_method") == "none" and any(
        get(k) for k in ("spatial.last_seen_location", "spatial.city", "spatial.postal_code")
    ):
        note("geocode_no_match", "no gazetteer match for the record's place text")
    lookups = tuple(cache.log)
    cache.log.clear()
    return lookups


# -- runs ----------------------------------------------------------------


def _run(records, cache_path: Path, oracle: bool):
    """Geocode copies of ``records`` in order as a run does, against a copy
    of the cache at ``cache_path``, replaying each record's lookups into it.
    Returns each record's (leaves, warnings, lookups), the cache's counts
    and size, and the cache file's bytes."""
    cache = GeocodeCache(cache_path)
    known = _LoggingCopy(cache) if oracle else cache.outcomes()
    step = _oracle_apply if oracle else apply_geocode
    out = []
    for record in records:
        leaves, warnings = dict(record), []
        lookups = step(leaves, GAZETTEER, known, lambda code, msg: warnings.append((code, msg)))
        for key, value in lookups:
            replay_lookup(key, value, cache)
        out.append((leaves, warnings, lookups))
    data = cache_path.read_bytes() if cache_path.exists() else None
    return out, (cache.hits, cache.misses, len(cache)), data


def _both(cold, warm):
    """The cold run and then the warm run, of each form, on its own file."""
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for oracle in (True, False):
            path = Path(tmp) / f"cache_{oracle}.jsonl"
            results.append((_run(cold, path, oracle), _run(warm, path, oracle)))
    return results


# -- strategies ------------------------------------------------------------

_REGION_WORDS = sorted(
    {e.region for e in GAZETTEER.entries} | {e.region_code for e in GAZETTEER.entries}
)
_WORDS = sorted(
    {e.place for e in GAZETTEER.entries}
    | {code for e in GAZETTEER.entries for code in e.postal_codes}
    | set(_REGION_WORDS)
    | {"Springfield", "Atlantis", "99999", "1990", "St.", "x", "--", "", "Glen", "Burnie"}
)
_word = st.sampled_from(_WORDS) | st.sampled_from(_WORDS).map(str.upper)
_text = st.lists(
    st.tuples(_word, st.sampled_from([" ", ", ", "/", "-", ""])), max_size=4
).map(lambda parts: "".join(word + sep for word, sep in parts)) | st.tuples(
    st.sampled_from(sorted({e.place for e in GAZETTEER.entries})), st.sampled_from(_REGION_WORDS)
).map(", ".join)
# The replaced form raised on a state with no letter or digit.
_state = (st.sampled_from(_REGION_WORDS) | _text).filter(
    lambda text: _TOKEN_RE.search(text.casefold())
)
_leaf_maps = st.fixed_dictionaries(
    {},
    optional={
        "spatial.last_seen_location": st.none() | _text,
        "spatial.city": st.none() | _text,
        "spatial.state": st.none() | _state,
        "spatial.postal_code": st.none() | st.sampled_from(_WORDS),
        "spatial.geocode_method": st.sampled_from(["none", "gazetteer", "source_provided"]),
        "spatial.lat": st.none() | st.just(38.0),
        "spatial.lon": st.none() | st.just(-77.0),
    },
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_leaf_maps, max_size=10), st.lists(_leaf_maps, max_size=10))
@example(
    [
        {"spatial.city": "Ashford", "spatial.geocode_method": "none"},
        {"spatial.postal_code": "19963", "spatial.geocode_method": "none"},
        {"spatial.last_seen_location": "Glen Burnie, MD", "spatial.state": "Virginia"},
        {"spatial.city": "Ashford", "spatial.state": "md"},
        {"spatial.last_seen_location": "Ashford, VA", "spatial.state": "Maryland"},
        {"spatial.last_seen_location": "--", "spatial.geocode_method": "none"},
    ],
    [{"spatial.city": "Ashford", "spatial.geocode_method": "none"}],
)
def test_a_run_geocodes_as_the_layered_lookup_did(cold, warm):
    (old_cold, old_warm), (new_cold, new_warm) = _both(cold, warm + cold)
    assert new_cold == old_cold
    assert new_warm == old_warm


def test_the_example_reaches_every_outcome():
    # The explicit example above hits, misses, matches, both ambiguities
    # and the no-token place, so the property is not vacuous on it.
    cold = [
        {"spatial.city": "Ashford", "spatial.geocode_method": "none"},
        {"spatial.postal_code": "19963", "spatial.geocode_method": "none"},
        {"spatial.last_seen_location": "Glen Burnie, MD", "spatial.state": "Virginia"},
        {"spatial.city": "Springfield", "spatial.geocode_method": "none"},
        {"spatial.last_seen_location": "--", "spatial.geocode_method": "none"},
    ]
    (old_cold, old_warm), (new_cold, new_warm) = _both(cold, cold)
    assert new_cold == old_cold and new_warm == old_warm
    records, counts, data = new_cold
    assert [warnings[0][0] if warnings else None for _, warnings, _ in records] == [
        "ambiguous_place",
        "ambiguous_place",
        None,
        "geocode_no_match",
        "geocode_no_match",
    ]
    assert records[2][0]["spatial.geocode_method"] == "gazetteer"
    assert counts == (0, 4, 4) and data.count(b"\n") == 4
    assert new_warm[1] == (4, 0, 4) and new_warm[2] == data
