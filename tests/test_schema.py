from __future__ import annotations

import copy

import pytest
from hypothesis import given
from hypothesis import strategies as st

from casepipe import schema as schema_module
from casepipe.config import ConfigError, bundled_path
from casepipe.schema import (
    ABSENT,
    ISO_TIMESTAMP,
    PathSyntaxError,
    SchemaDefinition,
    SchemaEntry,
    assemble_record,
    default_schema,
    flatten_leaves,
    parse_iso_timestamp,
    resolve_path,
    validate,
)


_SCHEMA = default_schema()


@pytest.fixture(scope="module")
def schema():
    return _SCHEMA


def minimal_valid_record(schema) -> dict:
    values = {
        "case_id": "MP100001",
        "provenance.source_label": "test_source",
        "provenance.extraction_path": "rule",
    }
    return assemble_record(values, schema)


def full_record(schema) -> dict:
    values = {
        "case_id": "MP102335",
        "demographic.name": "Avery Holloway",
        "demographic.sex": "female",
        "demographic.age_years": 15,
        "demographic.height_min_cm": 142,
        "demographic.height_max_cm": 152,
        "demographic.weight_min_kg": 45,
        "demographic.weight_max_kg": 54,
        "demographic.race_ethnicity": "White / Caucasian",
        "spatial.last_seen_location": "Culpeper, Virginia 22701",
        "spatial.city": "Culpeper",
        "spatial.county": "Culpeper County",
        "spatial.state": "Virginia",
        "spatial.postal_code": "22701",
        "spatial.lat": 38.47,
        "spatial.lon": -77.996,
        "spatial.geocode_method": "gazetteer",
        "spatial.geocode_plausible": True,
        "temporal.last_seen_ts": "2023-07-01",
        "temporal.reported_missing_ts": "2023-07-03",
        "temporal.timezone": "-05:00",
        "narrative_osint.circumstances": "Last seen leaving home on foot.",
        "narrative_osint.movement_cues": ["Maryland", "Delaware"],
        "outcome.status": "missing",
        "provenance.source_label": "missing_persons_registry",
        "provenance.source_family": "registry_form",
        "provenance.extraction_path": "rule",
        "provenance.engine_used": "plaintext",
        "provenance.document_id": "MP102335",
        "provenance.field_origins": {"demographic.name": [0, 40, 54]},
        "provenance.ingest_ts": "2024-01-01T00:00:00+00:00",
        "provenance.repair_count": 0,
        "provenance.warnings_count": 0,
    }
    return assemble_record(values, schema)


class TestDefinition:
    def test_entries_sorted_and_unique(self, schema):
        paths = [e.field_path for e in schema.entries]
        assert paths == sorted(paths)
        assert len(paths) == len(set(paths))

    def test_sections_present(self, schema):
        assert schema.section_paths()[:1] == ["demographic"]
        assert set(schema.section_paths()) == {
            "demographic",
            "spatial",
            "temporal",
            "narrative_osint",
            "outcome",
            "provenance",
            "provenance.field_origins",
        }

    def test_required_set(self, schema):
        assert set(schema.required_paths()) == {
            "case_id",
            "demographic",
            "spatial",
            "temporal",
            "narrative_osint",
            "outcome",
            "provenance",
            "provenance.source_label",
            "provenance.extraction_path",
        }

    def test_round_trip_through_records(self, schema):
        assert SchemaDefinition.from_records(schema.to_records()) == schema

    def test_save_load_round_trip(self, schema, tmp_path):
        path = tmp_path / "schema.jsonl"
        schema.save(path)
        assert SchemaDefinition.load(path) == schema
        # Serialization is bit-stable.
        first = path.read_bytes()
        schema.save(path)
        assert path.read_bytes() == first

    def test_duplicate_entry_rejected(self):
        entries = (
            SchemaEntry("case_id", "string"),
            SchemaEntry("case_id", "string"),
        )
        with pytest.raises(ConfigError):
            SchemaDefinition(entries)

    def test_orphan_child_rejected(self):
        with pytest.raises(ConfigError):
            SchemaDefinition((SchemaEntry("nowhere.name", "string"),))

    def test_bad_range_rejected(self):
        with pytest.raises(ConfigError):
            SchemaEntry("case_id", "integer", numeric_range=(10, 5))

    def test_without_prefix(self, schema):
        slim = schema.without_prefix("provenance")
        assert not any(p.startswith("provenance") for p in slim.leaf_paths())
        assert "case_id" in slim.leaf_paths()


class TestResolvePath:
    def test_section_field(self, schema):
        record = full_record(schema)
        assert resolve_path(record, "demographic.name") == "Avery Holloway"

    def test_list_index(self, schema):
        record = full_record(schema)
        assert resolve_path(record, "narrative_osint.movement_cues.1") == "Delaware"

    def test_absent_path(self, schema):
        record = full_record(schema)
        assert resolve_path(record, "demographic.shoe_size") is ABSENT
        assert resolve_path(record, "narrative_osint.movement_cues.9") is ABSENT

    def test_null_is_not_absent(self, schema):
        record = full_record(schema)
        assert resolve_path(record, "outcome.status_ts") is None

    def test_dotted_map_keys(self, schema):
        record = full_record(schema)
        path = "provenance.field_origins.demographic.name.1"
        assert resolve_path(record, path) == 40

    @pytest.mark.parametrize("path", ["", ".", "a..b", "a.", ".a", "a b.c"])
    def test_malformed_path(self, path):
        with pytest.raises(PathSyntaxError):
            resolve_path({}, path)


class TestTimestampParsing:
    def test_date(self):
        parsed = parse_iso_timestamp("2023-07-01")
        assert parsed is not None and parsed[1] == "date"

    def test_datetime_with_offset(self):
        parsed = parse_iso_timestamp("2023-07-01T14:30:00-04:00")
        assert parsed is not None and parsed[1] == "datetime"

    def test_zulu_suffix(self):
        parsed = parse_iso_timestamp("2023-07-01T14:30:00Z")
        assert parsed is not None and parsed[1] == "datetime"

    @pytest.mark.parametrize("raw", ["07/01/2023", "2023-13-01", "July 1, 2023", ""])
    def test_rejects_non_iso(self, raw):
        assert parse_iso_timestamp(raw) is None


class TestValidate:
    def test_minimal_record_valid(self, schema):
        report = validate(minimal_valid_record(schema), schema)
        assert report.valid, report.violations

    def test_full_record_valid(self, schema):
        report = validate(full_record(schema), schema)
        assert report.valid, report.violations

    def test_missing_required_section(self, schema):
        record = minimal_valid_record(schema)
        del record["demographic"]
        report = validate(record, schema)
        assert report.codes() == [("demographic", "missing_required")]

    def test_wrong_type(self, schema):
        record = minimal_valid_record(schema)
        record["demographic"]["age_years"] = "fifteen"
        report = validate(record, schema)
        assert report.codes() == [("demographic.age_years", "wrong_type")]

    def test_out_of_range(self, schema):
        record = full_record(schema)
        record["spatial"]["lat"] = 200.0
        report = validate(record, schema)
        assert report.codes() == [("spatial.lat", "out_of_range")]

    def test_bad_enum(self, schema):
        record = minimal_valid_record(schema)
        record["demographic"]["sex"] = "f"
        report = validate(record, schema)
        assert report.codes() == [("demographic.sex", "bad_enum")]

    def test_bad_pattern(self, schema):
        record = minimal_valid_record(schema)
        record["temporal"]["timezone"] = "later"
        report = validate(record, schema)
        assert report.codes() == [("temporal.timezone", "bad_pattern")]

    def test_bad_timestamp(self, schema):
        record = minimal_valid_record(schema)
        record["temporal"]["last_seen_ts"] = "13/45/2020"
        report = validate(record, schema)
        assert report.codes() == [("temporal.last_seen_ts", "bad_timestamp")]

    def test_unknown_key(self, schema):
        record = minimal_valid_record(schema)
        record["zodiac_sign"] = "libra"
        report = validate(record, schema)
        assert report.codes() == [("zodiac_sign", "unknown_key")]

    def test_nested_unknown_key(self, schema):
        record = minimal_valid_record(schema)
        record["demographic"]["nickname"] = "Ave"
        report = validate(record, schema)
        assert report.codes() == [("demographic.nickname", "unknown_key")]

    def test_min_exceeds_max(self, schema):
        record = minimal_valid_record(schema)
        record["demographic"]["height_min_cm"] = 180
        record["demographic"]["height_max_cm"] = 150
        report = validate(record, schema)
        assert ("demographic.height_min_cm", "out_of_range") in report.codes()

    def test_lat_without_lon(self, schema):
        record = minimal_valid_record(schema)
        record["spatial"]["lat"] = 38.0
        record["spatial"]["geocode_method"] = "gazetteer"
        report = validate(record, schema)
        assert report.codes() == [("spatial.lon", "out_of_range")]

    def test_geocode_method_none_with_coords(self, schema):
        record = minimal_valid_record(schema)
        record["spatial"]["lat"] = 38.0
        record["spatial"]["lon"] = -77.0
        record["spatial"]["geocode_method"] = "none"
        report = validate(record, schema)
        assert report.codes() == [("spatial.geocode_method", "out_of_range")]

    def test_reported_before_last_seen(self, schema):
        record = minimal_valid_record(schema)
        record["temporal"]["last_seen_ts"] = "2023-07-05T10:00:00"
        record["temporal"]["reported_missing_ts"] = "2023-07-01T10:00:00"
        report = validate(record, schema)
        assert report.codes() == [("temporal.reported_missing_ts", "out_of_range")]

    def test_date_only_ordering_not_enforced(self, schema):
        record = minimal_valid_record(schema)
        record["temporal"]["last_seen_ts"] = "2023-07-05"
        record["temporal"]["reported_missing_ts"] = "2023-07-01"
        assert validate(record, schema).valid

    def test_rule_path_repair_count(self, schema):
        record = minimal_valid_record(schema)
        record["provenance"]["repair_count"] = 2
        report = validate(record, schema)
        assert report.codes() == [("provenance.repair_count", "out_of_range")]

    def test_bool_is_not_integer(self, schema):
        record = minimal_valid_record(schema)
        record["demographic"]["age_years"] = True
        report = validate(record, schema)
        assert report.codes() == [("demographic.age_years", "wrong_type")]

    def test_integer_accepted_for_decimal(self, schema):
        record = minimal_valid_record(schema)
        record["spatial"]["lat"] = 38
        record["spatial"]["lon"] = -77
        record["spatial"]["geocode_method"] = "gazetteer"
        assert validate(record, schema).valid

    def test_empty_movement_cue(self, schema):
        record = minimal_valid_record(schema)
        record["narrative_osint"]["movement_cues"] = ["Maryland", "  "]
        report = validate(record, schema)
        assert report.codes() == [("narrative_osint.movement_cues.1", "bad_pattern")]

    def test_bad_origin_key(self, schema):
        record = minimal_valid_record(schema)
        record["provenance"]["field_origins"] = {"made.up.path": [0, 1, 2]}
        report = validate(record, schema)
        assert report.codes() == [
            ("provenance.field_origins.made.up.path", "unknown_key")
        ]

    def test_bad_origin_triple(self, schema):
        record = minimal_valid_record(schema)
        record["provenance"]["field_origins"] = {"demographic.name": [0, 1]}
        report = validate(record, schema)
        assert report.codes() == [
            ("provenance.field_origins.demographic.name", "wrong_type")
        ]

    def test_reports_all_violations_ordered(self, schema):
        record = minimal_valid_record(schema)
        del record["outcome"]
        record["demographic"]["sex"] = "f"
        record["zzz"] = 1
        report = validate(record, schema)
        codes = report.codes()
        assert ("outcome", "missing_required") in codes
        assert ("demographic.sex", "bad_enum") in codes
        assert ("zzz", "unknown_key") in codes
        assert codes == sorted(codes)

    def test_validation_is_pure(self, schema):
        record = full_record(schema)
        record["spatial"]["lat"] = 999.0
        before = copy.deepcopy(record)
        first = validate(record, schema)
        second = validate(record, schema)
        assert record == before
        assert first == second

    @given(
        st.dictionaries(
            st.sampled_from(["case_id", "demographic", "spatial", "junk", "temporal"]),
            st.one_of(
                st.none(),
                st.text(max_size=8),
                st.integers(),
                st.dictionaries(st.text(max_size=4), st.integers(), max_size=3),
            ),
            max_size=5,
        )
    )
    def test_never_raises_on_arbitrary_candidates(self, candidate):
        report = validate(candidate, _SCHEMA)
        assert isinstance(report.valid, bool)


class TestCompiledPlan:
    def test_plan_is_built_on_first_validate(self, tmp_path):
        _SCHEMA.save(tmp_path / "schema.jsonl")
        loaded = SchemaDefinition.load(tmp_path / "schema.jsonl")
        assert "_validation_plan" not in loaded.__dict__
        assert validate(minimal_valid_record(loaded), loaded).valid
        assert "_validation_plan" in loaded.__dict__

    def test_each_schema_uses_its_own_plan(self, schema):
        narrow = schema.without_prefix("outcome")
        record = minimal_valid_record(schema)
        assert validate(record, schema).valid
        assert validate(record, narrow).codes() == [("outcome", "unknown_key")]
        assert validate(record, schema).valid
        assert schema._validation_plan is not narrow._validation_plan

    def test_cross_field_rules_need_their_paths(self, schema):
        # lat without lon breaks the pairing rule only where the schema
        # defines both; elsewhere the dotted key is just unknown.
        narrow = schema.without_prefix("spatial")
        record = minimal_valid_record(narrow)
        record["spatial.lat"] = 10.0
        assert validate(record, narrow).codes() == [("spatial.lat", "unknown_key")]
        record = minimal_valid_record(schema)
        record["spatial"]["lat"] = 10.0
        assert validate(record, schema).codes() == [("spatial.lon", "out_of_range")]


_AGE = (0, 120)
_TZ = r"^(?:UTC|[+-](?:0\d|1[0-4]):[0-5]\d|[A-Za-z]+(?:[_-][A-Za-z]+)*(?:/[A-Za-z0-9_.+-]+)+)$"
_E = SchemaEntry
#: The record shape the bundled schema file must define, written out by hand.
_EXPECTED_ENTRIES = (
    _E("case_id", "string", required=True, pattern=r"\S"),
    _E("demographic", "section", required=True),
    _E("demographic.name", "string"),
    _E("demographic.sex", "enum", enum_values=("female", "male", "unknown")),
    _E("demographic.age_years", "integer", numeric_range=_AGE),
    _E("demographic.age_min", "integer", numeric_range=_AGE),
    _E("demographic.age_max", "integer", numeric_range=_AGE),
    _E("demographic.height_min_cm", "integer", numeric_range=(30, 250)),
    _E("demographic.height_max_cm", "integer", numeric_range=(30, 250)),
    _E("demographic.weight_min_kg", "integer", numeric_range=(1, 400)),
    _E("demographic.weight_max_kg", "integer", numeric_range=(1, 400)),
    _E("demographic.race_ethnicity", "string"),
    _E("spatial", "section", required=True),
    _E("spatial.last_seen_location", "string"),
    _E("spatial.city", "string"),
    _E("spatial.county", "string"),
    _E("spatial.state", "string"),
    _E("spatial.postal_code", "string", pattern=r"^\d{5}(?:-\d{4})?$"),
    _E("spatial.lat", "decimal", numeric_range=(-90.0, 90.0)),
    _E("spatial.lon", "decimal", numeric_range=(-180.0, 180.0)),
    _E("spatial.geocode_method", "enum", enum_values=("source_provided", "gazetteer", "none")),
    _E("spatial.geocode_plausible", "boolean"),
    _E("temporal", "section", required=True),
    _E("temporal.last_seen_ts", "string", pattern=ISO_TIMESTAMP),
    _E("temporal.reported_missing_ts", "string", pattern=ISO_TIMESTAMP),
    _E("temporal.timezone", "string", pattern=_TZ),
    _E("narrative_osint", "section", required=True),
    _E("narrative_osint.circumstances", "string"),
    _E("narrative_osint.clothing_description", "string"),
    _E("narrative_osint.distinctive_features", "string"),
    _E("narrative_osint.movement_cues", "list", pattern=r"^\S(?:.*\S)?$"),
    _E("outcome", "section", required=True),
    _E("outcome.status", "enum", enum_values=("missing", "located", "deceased", "unknown")),
    _E("outcome.status_ts", "string", pattern=ISO_TIMESTAMP),
    _E("provenance", "section", required=True),
    _E("provenance.source_label", "string", required=True, pattern=r"\S"),
    _E(
        "provenance.source_family",
        "enum",
        enum_values=("registry_form", "bulletin", "narrative_profile", "unknown"),
    ),
    _E("provenance.extraction_path", "enum", required=True, enum_values=("rule", "llm")),
    _E("provenance.engine_used", "enum", enum_values=("layout", "basic", "ocr", "plaintext")),
    _E("provenance.document_id", "string"),
    _E("provenance.field_origins", "section", pattern=r"^[A-Za-z0-9_]+(?:\.[A-Za-z0-9_]+)*$"),
    _E("provenance.ingest_ts", "string", pattern=ISO_TIMESTAMP),
    _E("provenance.repair_count", "integer", numeric_range=(0, None)),
    _E("provenance.warnings_count", "integer", numeric_range=(0, None)),
)


class TestBundledSchema:
    def test_file_defines_the_expected_entries(self):
        expected = SchemaDefinition(_EXPECTED_ENTRIES)
        loaded = SchemaDefinition.load(bundled_path("schema.jsonl"))
        assert loaded.entries == expected.entries
        assert loaded.records_text == expected.records_text
        assert bundled_path("schema.jsonl").read_text(encoding="utf-8") == (
            expected.records_text + "\n"
        )

    def test_default_schema_is_loaded_once_and_pins_the_module_constants(self):
        schema = default_schema()
        assert default_schema() is schema
        assert schema == SchemaDefinition.load(bundled_path("schema.jsonl"))
        entry = schema.entry
        assert schema_module.SEX_VALUES == entry("demographic.sex").enum_values
        assert schema_module.STATUS_VALUES == entry("outcome.status").enum_values
        assert schema_module.SOURCE_FAMILIES == entry("provenance.source_family").enum_values
        for bound in ("min", "max"):
            assert (
                schema_module.HEIGHT_RANGE_CM
                == entry(f"demographic.height_{bound}_cm").numeric_range
            )
            assert (
                schema_module.WEIGHT_RANGE_KG
                == entry(f"demographic.weight_{bound}_kg").numeric_range
            )
        assert schema_module.LAT_RANGE == entry("spatial.lat").numeric_range
        assert schema_module.LON_RANGE == entry("spatial.lon").numeric_range


class TestAssembleAndFlatten:
    def test_all_sections_present(self, schema):
        record = minimal_valid_record(schema)
        for section in (
            "demographic",
            "spatial",
            "temporal",
            "narrative_osint",
            "outcome",
            "provenance",
        ):
            assert isinstance(record[section], dict)

    def test_key_order_is_schema_order(self, schema):
        record = full_record(schema)
        assert list(record) == [
            "case_id",
            "demographic",
            "narrative_osint",
            "outcome",
            "provenance",
            "spatial",
            "temporal",
        ]
        assert list(record["demographic"])[0] == "age_max"

    def test_flatten_leaves_lists(self, schema):
        record = full_record(schema)
        leaves = flatten_leaves(record)
        assert leaves["narrative_osint.movement_cues.0"] == "Maryland"
        assert leaves["provenance.field_origins.demographic.name.2"] == 54
