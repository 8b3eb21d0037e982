from __future__ import annotations

from datetime import datetime
from decimal import ROUND_HALF_UP, Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casepipe.harmonize import (
    MappingTable,
    harmonize,
    identity_table,
    load_mapping_dir,
    normalize_height,
    normalize_timestamp,
    normalize_weight,
    parse_place_parts,
)
from casepipe.rules import DraftRecord, FieldCandidate
from casepipe.schema import assemble_record, default_schema, flatten_leaves

SCHEMA = default_schema()


def decimal_in_to_cm(inches: int) -> int:
    """Independent oracle: inches to whole centimeters, half-up."""
    cm = Decimal(inches) * Decimal("2.54")
    return int(cm.quantize(Decimal("1"), rounding=ROUND_HALF_UP))


def decimal_lb_to_kg(pounds: int) -> int:
    """Independent oracle: pounds to whole kilograms, half-up."""
    kg = Decimal(pounds) * Decimal("0.45359237")
    return int(kg.quantize(Decimal("1"), rounding=ROUND_HALF_UP))


class TestHeightOracle:
    """Frozen conversions, verified against decimal arithmetic."""

    def test_oracle_values(self):
        # 4'8" = 56 in, 5'0" = 60 in, 5'2" = 62 in
        assert decimal_in_to_cm(56) == 142
        assert decimal_in_to_cm(60) == 152
        assert decimal_in_to_cm(62) == 157

    def test_range(self):
        assert normalize_height("4'8\" - 5'0\"") == (142, 152)

    def test_single(self):
        assert normalize_height("5'0\"") == (152, 152)

    def test_matches_oracle_across_span(self):
        for feet in range(2, 8):
            for inches in range(0, 12):
                total = feet * 12 + inches
                expected = decimal_in_to_cm(total)
                raw = f"{feet}'{inches}\""
                assert normalize_height(raw) == (expected, expected), raw

    def test_range_with_to(self):
        assert normalize_height("4'8\" to 5'0\"") == (142, 152)

    @pytest.mark.parametrize("raw", ["tall", "", "5 somethings", "9'9\" - 2'0\""])
    def test_unparseable_or_inverted(self, raw):
        assert normalize_height(raw) is None

    def test_implausible_rejected(self):
        # 0'6" = 15 cm, below the plausibility floor.
        assert normalize_height("0'6\"") is None


class TestWeightOracle:
    def test_oracle_values(self):
        assert decimal_lb_to_kg(100) == 45
        assert decimal_lb_to_kg(120) == 54
        assert decimal_lb_to_kg(110) == 50

    def test_range(self):
        assert normalize_weight("100 - 120 lbs") == (45, 54)

    def test_single(self):
        assert normalize_weight("110 lbs") == (50, 50)

    def test_caps_and_variants(self):
        assert normalize_weight("110 LBS") == (50, 50)
        assert normalize_weight("110 pounds") == (50, 50)

    def test_matches_oracle_across_span(self):
        for pounds in range(60, 320, 7):
            expected = decimal_lb_to_kg(pounds)
            assert normalize_weight(f"{pounds} lbs") == (expected, expected)

    def test_zero_pounds_rejected(self):
        assert normalize_weight("0 lbs") is None

    @pytest.mark.parametrize("raw", ["heavy", "", "lbs", "120"])
    def test_unparseable(self, raw):
        assert normalize_weight(raw) is None


def _strptime_oracle(raw):
    """The month-name branch of normalize_timestamp as it was: strptime in
    the C locale, three formats in turn."""
    text = raw.strip()
    for fmt in ("%B %d, %Y", "%b %d, %Y", "%B %d %Y"):
        try:
            return datetime.strptime(text, fmt).date().isoformat(), "date"
        except ValueError:
            continue
    return None


_MONTH_TOKENS = (
    "January", "jan", "MAY", "may", "June", "JUN", "july", "Aug", "AUGUST",
    "Sept", "sep", "September", "Oct", "december", "DEC", "feb", "February",
    "Auguſt", "ſep", "Aprİl", "ApRiL", "ıan", "Nov.", "Mar ch",
)
_SPACES = (" ", " ", " ", " ", "", "  ", "\t", "\u00a0", "\u2003", "\x1c", "\n", " \t ")
_DAYS = ("1", "5", "05", "09", "10", "19", "29", "30", "31", "32", "0", "00", " 5",
         "1\u0663", "\u0663", "123", "3 ")
_YEARS = ("2023", "2024", "1900", "0000", "0001", "9999", "\u0662\u0660\u0662\u0664",
          "202", "20231", "23")


@st.composite
def _month_dates(draw):
    parts = [
        draw(st.sampled_from(("", "", " "))),
        draw(st.sampled_from(_MONTH_TOKENS) | st.text("abcdejmnoprsuyJMAS", max_size=9)),
        draw(st.sampled_from(_SPACES)),
        draw(st.sampled_from(_DAYS)),
        draw(st.sampled_from(("", ",", ",", ",,", " ,"))),
        draw(st.sampled_from(_SPACES)),
        draw(st.sampled_from(_YEARS)),
        draw(st.sampled_from(("", "", "", "x", " ", ".", "1"))),
    ]
    return "".join(parts)


class TestTimestamps:
    def test_us_date(self):
        assert normalize_timestamp("07/01/2023") == ("2023-07-01", "date")

    def test_month_name(self):
        assert normalize_timestamp("July 1, 2023") == ("2023-07-01", "date")

    def test_iso_date_passthrough(self):
        assert normalize_timestamp("2023-07-01") == ("2023-07-01", "date")

    def test_iso_datetime_with_offset_unchanged(self):
        raw = "2023-07-01T14:30:00-04:00"
        assert normalize_timestamp(raw) == (raw, "datetime")

    def test_naive_datetime_gets_default_offset(self):
        got = normalize_timestamp("2023-07-01T14:30:00", tz_default="-04:00")
        assert got == ("2023-07-01T14:30:00-04:00", "datetime")

    def test_date_stays_date_even_with_default_tz(self):
        assert normalize_timestamp("07/01/2023", tz_default="-04:00") == (
            "2023-07-01",
            "date",
        )

    def test_named_zone_not_inlined(self):
        got = normalize_timestamp("2023-07-01T14:30:00", tz_default="America/New_York")
        assert got == ("2023-07-01T14:30:00", "datetime")

    @pytest.mark.parametrize("raw", ["13/45/2020", "sometime in July", "", "99/99/99"])
    def test_unparseable(self, raw):
        assert normalize_timestamp(raw) is None

    def test_invalid_calendar_date(self):
        assert normalize_timestamp("02/30/2023") is None

    @pytest.mark.parametrize(
        "raw, iso",
        [
            ("Sep 5, 2023", "2023-09-05"),
            ("SEPTEMBER  05 2023", "2023-09-05"),
            ("may\t 31, 2023", "2023-05-31"),
            ("February 29, 2024", "2024-02-29"),
            ("February 29, 2023", None),
            ("Sep 5 2023", None),  # the comma is optional after full names only
            ("Sept 5, 2023", None),
            ("July 1, 20231", None),
            ("July 1, 0000", None),
            ("Aug\u00a01, \u0662\u0660\u0662\u0663", "2023-08-01"),
            ("Auguſt 1, 2023", None),  # matches only through case folding
        ],
    )
    def test_month_name_forms(self, raw, iso):
        assert normalize_timestamp(raw) == (None if iso is None else (iso, "date"))

    @settings(max_examples=1500, deadline=None)
    @given(_month_dates())
    def test_month_names_read_as_strptime_reads_them(self, raw):
        assert normalize_timestamp(raw) == _strptime_oracle(raw)


class TestPlaceParts:
    def test_city_state_zip(self):
        assert parse_place_parts("Culpeper, Virginia 22701") == (
            "Culpeper",
            "Virginia",
            "22701",
        )

    def test_city_state(self):
        assert parse_place_parts("Norfolk, Virginia") == ("Norfolk", "Virginia", None)

    def test_unsplittable(self):
        assert parse_place_parts("near Route 1") == (None, None, None)


def make_draft(values: dict[str, str], label="missing_persons_registry") -> DraftRecord:
    candidates = {}
    for i, (path, raw) in enumerate(values.items()):
        candidates[path] = FieldCandidate(path, raw, f"p{i}", i * 10, i * 10 + len(raw))
    return DraftRecord(source_label=label, segment_index=0, candidates=candidates)


def raw_values(draft: DraftRecord) -> dict[str, str]:
    """The flat map harmonize takes from the rule path: each key's raw text."""
    return {key: candidate.raw_value for key, candidate in draft.candidates.items()}


REGISTRY_TABLE = MappingTable(
    source_label="missing_persons_registry",
    tz_default="-05:00",
    rows={
        "demographic.name": ("demographic.name", "none"),
        "demographic.sex": ("demographic.sex", "sex_enum"),
        "demographic.age": ("demographic.age_years", "none"),
        "demographic.height": ("demographic.height_min_cm", "height"),
        "demographic.weight": ("demographic.weight_min_kg", "weight"),
        "spatial.place": ("spatial.city", "place_parts"),
        "spatial.county": ("spatial.county", "none"),
        "temporal.last_seen_ts": ("temporal.last_seen_ts", "timestamp"),
        "temporal.reported_missing_ts": ("temporal.reported_missing_ts", "timestamp"),
        "narrative_osint.circumstances": ("narrative_osint.circumstances", "none"),
        "narrative_osint.movement_cues": ("narrative_osint.movement_cues", "cue_list"),
        "outcome.status": ("outcome.status", "status_enum"),
    },
)


class TestHarmonizeDraft:
    def test_registry_draft(self):
        draft = make_draft(
            {
                "demographic.name": "Avery Holloway",
                "demographic.sex": "Female",
                "demographic.age": "15",
                "demographic.height": "4'8\" - 5'0\"",
                "demographic.weight": "100 - 120 lbs",
                "spatial.place": "Culpeper, Virginia 22701",
                "temporal.last_seen_ts": "07/01/2023",
                "outcome.status": "Missing",
            }
        )
        result = harmonize(raw_values(draft), REGISTRY_TABLE, SCHEMA)
        rec = assemble_record(result.record, SCHEMA)
        assert rec["demographic"]["name"] == "Avery Holloway"
        assert rec["demographic"]["sex"] == "female"
        assert rec["demographic"]["age_years"] == 15
        assert rec["demographic"]["height_min_cm"] == 142
        assert rec["demographic"]["height_max_cm"] == 152
        assert rec["demographic"]["weight_min_kg"] == 45
        assert rec["demographic"]["weight_max_kg"] == 54
        assert rec["spatial"]["city"] == "Culpeper"
        assert rec["spatial"]["state"] == "Virginia"
        assert rec["spatial"]["postal_code"] == "22701"
        assert rec["spatial"]["last_seen_location"] == "Culpeper, Virginia 22701"
        assert rec["temporal"]["last_seen_ts"] == "2023-07-01"
        assert rec["temporal"]["timezone"] == "-05:00"
        assert rec["outcome"]["status"] == "missing"

    def test_all_sections_materialized(self):
        result = harmonize(raw_values(make_draft({})), REGISTRY_TABLE, SCHEMA)
        record = assemble_record(result.record, SCHEMA)
        for section in (
            "demographic",
            "spatial",
            "temporal",
            "narrative_osint",
            "outcome",
            "provenance",
        ):
            assert section in record

    def test_defaults(self):
        leaves = harmonize(raw_values(make_draft({})), REGISTRY_TABLE, SCHEMA).record
        rec = assemble_record(leaves, SCHEMA)
        assert rec["outcome"]["status"] == "missing"
        assert rec["narrative_osint"]["movement_cues"] == []
        assert rec["spatial"]["geocode_method"] == "none"
        assert rec["demographic"]["sex"] == "unknown"

    def test_timezone_only_set_with_timestamps(self):
        leaves = harmonize(raw_values(make_draft({})), REGISTRY_TABLE, SCHEMA).record
        rec = assemble_record(leaves, SCHEMA)
        assert rec["temporal"]["timezone"] is None

    def test_transform_failure_nulls_field_with_warning(self):
        warnings = []
        draft = make_draft({"temporal.last_seen_ts": "sometime last summer"})
        result = harmonize(
            raw_values(draft), REGISTRY_TABLE, SCHEMA, on_warning=lambda c, m: warnings.append(c)
        )
        assert assemble_record(result.record, SCHEMA)["temporal"]["last_seen_ts"] is None
        assert "unparseable_timestamp" in warnings

    def test_unmapped_key_dropped_with_reason(self):
        warnings = []
        draft = make_draft({"demographic.shoe_size": "11"})
        harmonize(
            raw_values(draft),
            REGISTRY_TABLE,
            SCHEMA,
            on_warning=lambda c, m: warnings.append((c, m)),
        )
        assert ("unmapped_key", "no mapping for 'demographic.shoe_size'; value dropped") in warnings

    def test_movement_cues_grouped(self):
        draft = make_draft({})
        draft.candidates["narrative_osint.movement_cues.0"] = FieldCandidate(
            "narrative_osint.movement_cues.0", "Maryland", "cue", 0, 8
        )
        draft.candidates["narrative_osint.movement_cues.1"] = FieldCandidate(
            "narrative_osint.movement_cues.1", "Delaware", "cue", 10, 18
        )
        leaves = harmonize(raw_values(draft), REGISTRY_TABLE, SCHEMA).record
        rec = assemble_record(leaves, SCHEMA)
        assert rec["narrative_osint"]["movement_cues"] == ["Maryland", "Delaware"]

    def test_key_trace_links_targets_to_sources(self):
        draft = make_draft({"demographic.height": "5'0\""})
        result = harmonize(raw_values(draft), REGISTRY_TABLE, SCHEMA)
        trace = dict(
            (target, source) for source, target in result.key_trace
        )
        assert trace["demographic.height_min_cm"] == "demographic.height"
        assert trace["demographic.height_max_cm"] == "demographic.height"

    def test_applied_transforms_recorded(self):
        draft = make_draft({"demographic.sex": "FEMALE"})
        result = harmonize(raw_values(draft), REGISTRY_TABLE, SCHEMA)
        assert assemble_record(result.record, SCHEMA)["demographic"]["sex"] == "female"


class TestHarmonizeCandidate:
    """The model path hands harmonize a nested candidate, not a draft."""

    def test_identity_with_transforms(self):
        candidate = {
            "case_id": "MP1",
            "demographic": {"name": "Avery Holloway", "sex": "Female"},
            "temporal": {"last_seen_ts": "07/01/2023"},
            "outcome": {"status": "MISSING"},
        }
        table = identity_table(SCHEMA, tz_default="-05:00")
        leaves = harmonize(flatten_leaves(candidate), table, SCHEMA).record
        rec = assemble_record(leaves, SCHEMA)
        assert rec["demographic"]["sex"] == "female"
        assert rec["temporal"]["last_seen_ts"] == "2023-07-01"
        assert rec["temporal"]["timezone"] == "-05:00"
        assert rec["outcome"]["status"] == "missing"

    def test_idempotent_on_canonical_records(self):
        candidate = {
            "case_id": "MP1",
            "demographic": {"name": "Avery Holloway", "sex": "female", "age_years": 15},
            "spatial": {"city": "Culpeper", "state": "Virginia"},
            "temporal": {"last_seen_ts": "2023-07-01", "timezone": "-05:00"},
            "narrative_osint": {"movement_cues": ["Maryland"]},
            "outcome": {"status": "missing"},
        }
        table = identity_table(SCHEMA, tz_default="-05:00")
        once = harmonize(flatten_leaves(candidate), table, SCHEMA).record
        once = assemble_record(once, SCHEMA)
        twice = harmonize(flatten_leaves(once), table, SCHEMA).record
        twice = assemble_record(twice, SCHEMA)
        assert once == twice

    def test_an_empty_answer_is_null_before_any_transform(self):
        # "" reads as None: no transform sees it, so none warns, and no
        # key trace points at it.
        candidate = {
            "demographic": {"name": "", "sex": "", "age_years": ""},
            "temporal": {"last_seen_ts": ""},
            "outcome": {"status": ""},
        }
        warnings = []
        result = harmonize(
            flatten_leaves(candidate),
            identity_table(SCHEMA, tz_default="-05:00"),
            SCHEMA,
            on_warning=lambda c, m: warnings.append(c),
        )
        rec = assemble_record(result.record, SCHEMA)
        assert rec["demographic"]["name"] is None
        assert rec["demographic"]["age_years"] is None
        assert rec["temporal"]["last_seen_ts"] is None
        assert rec["temporal"]["timezone"] is None
        assert rec["demographic"]["sex"] == "unknown"
        assert rec["outcome"]["status"] == "missing"
        assert warnings == []
        assert result.key_trace == ()

    def test_numeric_strings_coerced(self):
        candidate = {"demographic": {"age_years": "15"}, "spatial": {"lat": "38.47"}}
        table = identity_table(SCHEMA)
        leaves = harmonize(flatten_leaves(candidate), table, SCHEMA).record
        rec = assemble_record(leaves, SCHEMA)
        assert rec["demographic"]["age_years"] == 15
        assert rec["spatial"]["lat"] == 38.47


class TestMappingFiles:
    def test_load_mapping_dir(self, tmp_path):
        mapping_dir = tmp_path / "mappings"
        mapping_dir.mkdir()
        (mapping_dir / "some_source.jsonl").write_text(
            '{"meta": {"tz_default": "-05:00"}}\n'
            '{"source_key": "demographic.name", "target_path": "demographic.name",'
            ' "transform": "none"}\n',
            encoding="utf-8",
        )
        tables = load_mapping_dir(mapping_dir, SCHEMA)
        assert "some_source" in tables
        assert tables["some_source"].tz_default == "-05:00"

    def test_identity_mappings_cover_content_leaves(self):
        table = identity_table(SCHEMA)
        assert "demographic.name" in table.rows
        assert "provenance.source_label" not in table.rows
