"""Tests for offline place resolution, caching, and plausibility checks."""

import json

import pytest

from casepipe.config import ConfigError, write_jsonl
from casepipe.geocode import (
    DEFAULT_BOX_MARGIN,
    Gazetteer,
    GeocodeCache,
    GeocodeQuery,
    GeocodeResult,
    apply_geocode,
    geocode,
    normalize_place,
    plausible_coords,
    replay_lookup,
)
from casepipe.schema import assemble_record, default_schema, record_leaves, resolve_path

SCHEMA = default_schema()

GAZETTEER_ROWS = [
    {"place": "Culpeper", "region": "Virginia", "postal_codes": ["22701"], "lat": 38.47, "lon": -77.996},
    {"place": "Norfolk", "region": "Virginia", "postal_codes": ["23501"], "lat": 36.85, "lon": -76.285},
    {"place": "Ashford", "region": "Virginia", "postal_codes": ["24599"], "lat": 37.9, "lon": -78.5},
    {"place": "Baltimore", "region": "Maryland", "postal_codes": ["21201"], "lat": 39.29, "lon": -76.612},
    {"place": "Ashford", "region": "Maryland", "postal_codes": ["21771"], "lat": 39.4, "lon": -76.9},
    {"place": "Dover", "region": "Delaware", "postal_codes": ["19901"], "lat": 39.158, "lon": -75.524},
]


@pytest.fixture
def gazetteer(tmp_path):
    path = tmp_path / "gazetteer.jsonl"
    write_jsonl(path, GAZETTEER_ROWS)
    return Gazetteer.load(path)


@pytest.fixture
def cache(tmp_path):
    return GeocodeCache(tmp_path / "geocode_cache.jsonl")


def count_resolves(gazetteer: Gazetteer) -> list[int]:
    """Wrap this gazetteer's ``resolve`` so that each call adds one to the
    single count in the list returned."""
    calls = [0]
    resolve = gazetteer.resolve

    def counting(*args, **kwargs):
        calls[0] += 1
        return resolve(*args, **kwargs)

    gazetteer.resolve = counting
    return calls


def collect_warnings():
    seen = []
    return seen, lambda code, msg: seen.append(code)


class TestNormalizePlace:
    def test_city_state_zip(self):
        assert normalize_place("Culpeper,  Virginia 22701") == "culpeper|virginia|22701"

    def test_case_folds(self):
        assert normalize_place("NORFOLK, Virginia") == "norfolk|virginia"

    def test_punctuation_becomes_separator(self):
        assert normalize_place("St. Mary's / Annex") == "st|mary|s|annex"

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            normalize_place("   ")


class TestGazetteer:
    def test_load_counts_entries(self, gazetteer):
        assert len(gazetteer.entries) == len(GAZETTEER_ROWS)

    def test_rejects_bad_latitude(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_jsonl(path, [{"place": "X", "region": "Y", "postal_codes": [], "lat": 95.0, "lon": 0.0}])
        with pytest.raises(ValueError):
            Gazetteer.load(path)

    def test_a_region_code_naming_two_regions_is_rejected(self, tmp_path):
        path = tmp_path / "codes.jsonl"
        rows = [dict(GAZETTEER_ROWS[0], region_code="VA"), dict(GAZETTEER_ROWS[3], region_code="VA")]
        write_jsonl(path, rows)
        with pytest.raises(ConfigError, match="region code 'VA' names two regions"):
            Gazetteer.load(path)

    def test_region_boxes_use_margin(self, gazetteer):
        # Virginia entries span lat 36.85..38.47 and lon -78.5..-76.285.
        boxes = gazetteer.region_boxes()
        lat_min, lat_max, lon_min, lon_max = boxes["virginia"]
        assert lat_min == pytest.approx(36.85 - DEFAULT_BOX_MARGIN)
        assert lat_max == pytest.approx(38.47 + DEFAULT_BOX_MARGIN)
        assert lon_min == pytest.approx(-78.5 - DEFAULT_BOX_MARGIN)
        assert lon_max == pytest.approx(-76.285 + DEFAULT_BOX_MARGIN)


class TestGeocode:
    def test_postal_code_match(self, gazetteer, cache):
        result = geocode(GeocodeQuery("culpeper|virginia|22701"), gazetteer, cache)
        assert (result.lat, result.lon) == (38.47, -77.996)
        assert result.matched_place == "Culpeper"
        assert result.cache_hit is False
        assert result.plausible is True

    def test_place_and_region_match(self, gazetteer, cache):
        result = geocode(GeocodeQuery("ashford|maryland"), gazetteer, cache)
        assert (result.lat, result.lon) == (39.4, -76.9)

    def test_bias_region_resolves_ambiguity(self, gazetteer, cache):
        result = geocode(
            GeocodeQuery("ashford", bias_region="Virginia"), gazetteer, cache
        )
        assert (result.lat, result.lon) == (37.9, -78.5)

    def test_unique_place_without_region(self, gazetteer, cache):
        result = geocode(GeocodeQuery("baltimore"), gazetteer, cache)
        assert (result.lat, result.lon) == (39.29, -76.612)

    def test_ambiguous_place_warns_and_misses(self, gazetteer, cache):
        seen, warn = collect_warnings()
        result = geocode(GeocodeQuery("ashford"), gazetteer, cache, on_warning=warn)
        assert result.lat is None and result.lon is None
        assert result.matched_place is None
        assert result.plausible is None
        assert "ambiguous_place" in seen

    def test_unknown_place_cached_negative(self, gazetteer, cache):
        first = geocode(GeocodeQuery("atlantis"), gazetteer, cache)
        assert first.lat is None and first.cache_hit is False
        second = geocode(GeocodeQuery("atlantis"), gazetteer, cache)
        assert second.cache_hit is True
        assert second.lat is None

    def test_cache_hit_equals_first_result(self, gazetteer, cache):
        query = GeocodeQuery("culpeper|virginia|22701")
        first = geocode(query, gazetteer, cache)
        second = geocode(query, gazetteer, cache)
        assert second.cache_hit is True
        assert (second.lat, second.lon, second.matched_place) == (
            first.lat,
            first.lon,
            first.matched_place,
        )

    def test_warm_cache_performs_zero_lookups(self, gazetteer, cache):
        queries = [
            GeocodeQuery("culpeper|virginia|22701"),
            GeocodeQuery("dover", bias_region="Delaware"),
            GeocodeQuery("nowhere|at|all"),
        ]
        resolves = count_resolves(gazetteer)
        for q in queries:
            geocode(q, gazetteer, cache)
        assert resolves == [len(queries)]
        for q in queries:
            result = geocode(q, gazetteer, cache)
            assert result.cache_hit is True
        assert resolves == [len(queries)]

    def test_bias_is_part_of_cache_key(self, gazetteer, cache):
        miss = geocode(GeocodeQuery("ashford"), gazetteer, cache)
        assert miss.lat is None
        biased = geocode(GeocodeQuery("ashford", bias_region="Maryland"), gazetteer, cache)
        assert biased.cache_hit is False
        assert (biased.lat, biased.lon) == (39.4, -76.9)

    def test_cache_survives_reload(self, tmp_path, gazetteer, cache):
        geocode(GeocodeQuery("norfolk|virginia"), gazetteer, cache)
        reloaded = GeocodeCache(cache.path)
        fresh_gazetteer = Gazetteer.load(tmp_path / "gazetteer.jsonl")
        resolves = count_resolves(fresh_gazetteer)
        result = geocode(GeocodeQuery("norfolk|virginia"), fresh_gazetteer, reloaded)
        assert result.cache_hit is True
        assert resolves == [0]


class TestPlausibility:
    def test_fixture_place_in_own_region(self, gazetteer):
        boxes = gazetteer.region_boxes()
        assert plausible_coords(38.47, -77.996, "Virginia", boxes) is True

    def test_origin_is_never_plausible(self, gazetteer):
        boxes = gazetteer.region_boxes()
        assert plausible_coords(0.0, 0.0, None, boxes) is False
        assert plausible_coords(0.0, 0.0, "Virginia", boxes) is False

    def test_wrong_region_box(self, gazetteer):
        # Culpeper's longitude is west of the Maryland box.
        boxes = gazetteer.region_boxes()
        assert plausible_coords(38.47, -77.996, "Maryland", boxes) is False

    def test_no_expected_region_accepts_nonzero(self, gazetteer):
        assert plausible_coords(38.47, -77.996, None, gazetteer.region_boxes()) is True

    def test_unknown_region_rejected(self, gazetteer):
        boxes = gazetteer.region_boxes()
        assert plausible_coords(38.47, -77.996, "Atlantis", boxes) is False

    def test_result_invariants_enforced(self):
        with pytest.raises(ValueError):
            GeocodeResult(lat=1.0, lon=None, matched_place="X", cache_hit=False, plausible=True)
        with pytest.raises(ValueError):
            GeocodeResult(lat=1.0, lon=1.0, matched_place="X", cache_hit=False, plausible=None)


class TestCacheFile:
    def test_round_trip_and_negative(self, tmp_path):
        cache = GeocodeCache(tmp_path / "c.jsonl")
        cache.put("k1", (1.5, -2.5, "Somewhere"))
        cache.put("k2", None)
        again = GeocodeCache(tmp_path / "c.jsonl")
        assert again.lookup("k1") == (True, (1.5, -2.5, "Somewhere"))
        assert again.lookup("k2") == (True, None)
        assert again.lookup("k3") == (False, None)

    def test_replay_last_writer_wins(self, tmp_path):
        path = tmp_path / "c.jsonl"
        cache = GeocodeCache(path)
        cache.put("k", None)
        cache.put("k", (3.0, 4.0, "Later"))
        again = GeocodeCache(path)
        assert again.lookup("k") == (True, (3.0, 4.0, "Later"))

    def test_an_ambiguity_is_kept_with_its_negative_entry(self, tmp_path, gazetteer):
        path = tmp_path / "c.jsonl"
        resolves = count_resolves(gazetteer)
        cold_seen, cold_warn = collect_warnings()
        geocode(GeocodeQuery("ashford"), gazetteer, GeocodeCache(path), on_warning=cold_warn)
        assert cold_seen == ["ambiguous_place"]
        assert resolves == [1]
        row = json.loads(path.read_text(encoding="utf-8"))
        assert row["lat"] is None and "several regions" in row["ambiguous"]
        for cache in (GeocodeCache(path), GeocodeCache(path)):
            seen, warn = collect_warnings()
            for _ in range(2):
                result = geocode(GeocodeQuery("ashford"), gazetteer, cache, on_warning=warn)
                assert result.cache_hit is True and result.lat is None
            assert seen == ["ambiguous_place", "ambiguous_place"]
        assert resolves == [1]

    def test_a_negative_row_without_an_ambiguity_is_a_plain_negative(self, tmp_path, gazetteer):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"key": "ashford", "lat": null, "lon": null, "matched_place": null}\n',
            encoding="utf-8",
        )
        seen, warn = collect_warnings()
        result = geocode(GeocodeQuery("ashford"), gazetteer, GeocodeCache(path), on_warning=warn)
        assert result.cache_hit is True and result.lat is None
        assert seen == []

    def test_hit_and_miss_counters(self, tmp_path):
        cache = GeocodeCache(tmp_path / "c.jsonl")
        cache.put("k", (1.0, 2.0, "P"))
        cache.lookup("k")
        cache.lookup("absent")
        assert cache.hits == 1
        assert cache.misses == 1

    def test_a_journaling_copy_writes_nothing_and_replays_as_a_lookup_here(
        self, tmp_path, gazetteer
    ):
        path = tmp_path / "c.jsonl"
        cache = GeocodeCache(path)
        cache.put("norfolk|virginia", (36.85, -76.285, "Norfolk"))
        before = path.read_bytes()
        copy = cache.journaling_copy()
        for key in ("norfolk|virginia", "dover"):
            geocode(GeocodeQuery(key), gazetteer, copy)
        assert path.read_bytes() == before and len(cache) == 1
        assert copy.journal == [
            ("norfolk|virginia", (36.85, -76.285, "Norfolk")),
            ("dover", (39.158, -75.524, "Dover")),
        ]
        for key, value in copy.journal:
            replay_lookup(key, value, cache)
        assert (cache.hits, cache.misses) == (1, 1)
        assert GeocodeCache(path).lookup("dover") == (True, (39.158, -75.524, "Dover"))

    def test_file_is_line_oriented_json(self, tmp_path):
        path = tmp_path / "c.jsonl"
        cache = GeocodeCache(path)
        cache.put("k", (1.0, 2.0, "P"))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1
        row = json.loads(lines[0])
        assert row["key"] == "k"


class TestApplyGeocode:
    def record_with(self, **values):
        base = {
            "case_id": "CASE-1",
            "provenance.source_label": "missing_persons_registry",
            "provenance.extraction_path": "rule",
            "spatial.geocode_method": "none",
        }
        base.update(values)
        # The record's leaf map, every leaf given, as the pipeline geocodes it.
        return record_leaves(assemble_record(base, SCHEMA), SCHEMA)

    def test_fills_coordinates_and_method(self, gazetteer, cache):
        record = self.record_with(
            **{
                "spatial.last_seen_location": "Culpeper, Virginia 22701",
                "spatial.city": "Culpeper",
                "spatial.state": "Virginia",
                "spatial.postal_code": "22701",
            }
        )
        apply_geocode(record, gazetteer, cache)
        assert resolve_path(record, "spatial.lat") == 38.47
        assert resolve_path(record, "spatial.lon") == -77.996
        assert resolve_path(record, "spatial.geocode_method") == "gazetteer"
        assert resolve_path(record, "spatial.geocode_plausible") is True

    def test_city_state_used_when_no_location_string(self, gazetteer, cache):
        record = self.record_with(
            **{"spatial.city": "Dover", "spatial.state": "Delaware"}
        )
        apply_geocode(record, gazetteer, cache)
        assert resolve_path(record, "spatial.lat") == 39.158

    def test_no_place_leaves_record_alone(self, gazetteer, cache):
        record = self.record_with()
        apply_geocode(record, gazetteer, cache)
        assert resolve_path(record, "spatial.lat") is None
        assert resolve_path(record, "spatial.geocode_method") == "none"
        assert resolve_path(record, "spatial.geocode_plausible") is None

    def test_ambiguous_place_leaves_nulls(self, gazetteer, cache):
        seen, warn = collect_warnings()
        record = self.record_with(**{"spatial.city": "Ashford"})
        apply_geocode(record, gazetteer, cache, on_warning=warn)
        assert resolve_path(record, "spatial.lat") is None
        assert "ambiguous_place" in seen

    def test_state_bias_applies(self, gazetteer, cache):
        record = self.record_with(
            **{"spatial.city": "Ashford", "spatial.state": "Maryland"}
        )
        apply_geocode(record, gazetteer, cache)
        assert resolve_path(record, "spatial.lat") == 39.4
        assert resolve_path(record, "spatial.geocode_plausible") is True

    def test_existing_coordinates_bypass(self, gazetteer, cache):
        record = self.record_with(
            **{"spatial.lat": 10.0, "spatial.lon": 20.0, "spatial.city": "Culpeper"}
        )
        resolves = count_resolves(gazetteer)
        apply_geocode(record, gazetteer, cache)
        assert resolve_path(record, "spatial.lat") == 10.0
        assert resolve_path(record, "spatial.geocode_method") == "source_provided"
        assert resolves == [0]


    # apply_geocode owns its outcome: the warnings it decides and the
    # lookups a journaling cache recorded in the call.

    def test_the_lookups_are_the_calls_journal_entries_then_cleared(self, gazetteer, cache):
        copy = cache.journaling_copy()
        record = self.record_with(**{"spatial.city": "Dover", "spatial.state": "Delaware"})
        looked_up = apply_geocode(record, gazetteer, copy)
        assert looked_up == (("dover|delaware@delaware", (39.158, -75.524, "Dover")),)
        assert copy.journal == []
        again = apply_geocode(self.record_with(**{"spatial.city": "Dover"}), gazetteer, copy)
        assert again == (("dover", (39.158, -75.524, "Dover")),)
        assert copy.journal == []

    def test_a_cache_that_does_not_journal_gives_no_lookups(self, gazetteer, cache):
        record = self.record_with(**{"spatial.city": "Dover"})
        assert apply_geocode(record, gazetteer, cache) == ()
        assert resolve_path(record, "spatial.geocode_method") == "gazetteer"

    @pytest.mark.parametrize(
        "spatial",
        [{"spatial.city": "Springfield"}, {"spatial.postal_code": "99999"}],
    )
    def test_unmatched_place_text_warns_no_match(self, gazetteer, cache, spatial):
        seen, warn = collect_warnings()
        record = self.record_with(**spatial)
        assert len(apply_geocode(record, gazetteer, cache.journaling_copy(), warn)) == 1
        assert seen == ["geocode_no_match"]
        assert resolve_path(record, "spatial.geocode_method") == "none"

    def test_place_text_without_a_token_warns_no_match_and_looks_nothing_up(
        self, gazetteer, cache
    ):
        seen, warn = collect_warnings()
        record = self.record_with(**{"spatial.last_seen_location": "--"})
        assert apply_geocode(record, gazetteer, cache.journaling_copy(), warn) == ()
        assert seen == ["geocode_no_match"]

    def test_an_ambiguous_place_warns_only_of_the_ambiguity(self, gazetteer, cache):
        seen, warn = collect_warnings()
        record = self.record_with(**{"spatial.city": "Ashford"})
        looked_up = apply_geocode(record, gazetteer, cache.journaling_copy(), warn)
        message = "'ashford' exists in several regions and no region was given"
        assert looked_up == (("ashford", message),)
        assert seen == ["ambiguous_place"]

    @pytest.mark.parametrize(
        "spatial, lookups",
        [
            ({}, ()),
            ({"spatial.state": "Ohio"}, (("ohio@ohio", None),)),
            ({"spatial.lat": 10.0, "spatial.lon": 20.0, "spatial.city": "Springfield"}, ()),
        ],
        ids=["no_place_text", "a_state_alone", "source_provided"],
    )
    def test_no_warning_without_place_text_or_with_source_coordinates(
        self, gazetteer, cache, spatial, lookups
    ):
        seen, warn = collect_warnings()
        record = self.record_with(**spatial)
        assert apply_geocode(record, gazetteer, cache.journaling_copy(), warn) == lookups
        assert seen == []


class TestBundledGazetteer:
    def test_fixture_loads_and_has_frozen_places(self):
        from casepipe.config import bundled_path

        gaz = Gazetteer.load(bundled_path("gazetteer.jsonl"))
        culpeper = [e for e in gaz.entries if e.place == "Culpeper"]
        assert len(culpeper) == 1
        assert (culpeper[0].lat, culpeper[0].lon) == (38.47, -77.996)
        regions = {e.region for e in gaz.entries}
        assert regions == {"Virginia", "Maryland", "Delaware"}
        ambiguous = [e for e in gaz.entries if e.place == "Ashford"]
        assert len(ambiguous) == 2


class TestPartialSpatialSection:
    """A leaf map may lack spatial leaves; apply_geocode reads a missing one
    as null."""

    @pytest.fixture
    def bundled(self):
        from casepipe.config import bundled_path

        return Gazetteer.load(bundled_path("gazetteer.jsonl"))

    @pytest.mark.parametrize(
        "spatial",
        [
            {"city": "Richmond", "state": "Virginia"},
            {"last_seen_location": "Richmond, Virginia"},
            {"city": "Richmond"},
        ],
    )
    def test_a_partial_section_geocodes(self, bundled, spatial):
        record = {f"spatial.{key}": value for key, value in spatial.items()}
        apply_geocode(record, bundled, GeocodeCache())
        assert (record["spatial.lat"], record["spatial.lon"]) == (37.541, -77.436)
        assert record["spatial.geocode_method"] == "gazetteer"
        assert record["spatial.geocode_plausible"] is True

    @pytest.mark.parametrize(
        "spatial",
        [{"city": "Richmond", "state": "VA"}, {"last_seen_location": "Richmond, VA"}],
    )
    def test_a_partial_section_with_a_state_code_is_read(self, bundled, spatial):
        # Each gazetteer row carries its region's code, so "VA" names
        # Virginia as a trailing region token, as a bias region, and as the
        # region whose box the coordinates must fall in.
        record = {f"spatial.{key}": value for key, value in spatial.items()}
        apply_geocode(record, bundled, GeocodeCache())
        assert (record["spatial.lat"], record["spatial.lon"]) == (37.541, -77.436)
        assert record["spatial.geocode_method"] == "gazetteer"
        assert record["spatial.geocode_plausible"] is True
