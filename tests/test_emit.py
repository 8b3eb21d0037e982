"""Tests for output serialization: JSONL, flat CSV, and the warning log."""

import ast
import csv
import json
from pathlib import Path

import pytest
from hypothesis import given, settings

from casepipe import emit
from casepipe.emit import (
    SEVERITIES,
    STAGES,
    WARNING_CODES,
    WarningLog,
    column_order,
    flatten_record,
    unflatten_row,
    write_records_csv,
    write_records_jsonl,
)
from casepipe.schema import assemble_record, default_schema, resolve_path, validate
from recordgen import records

SCHEMA = default_schema()


def make_record(**values):
    base = {
        "case_id": "CASE-00001",
        "provenance.source_label": "missing_persons_registry",
        "provenance.extraction_path": "rule",
    }
    base.update(values)
    return assemble_record(base, SCHEMA)


class TestWriteJsonl:
    def test_one_line_per_record(self, tmp_path):
        path = tmp_path / "cases.jsonl"
        recs = [make_record(case_id=f"CASE-{i}") for i in range(3)]
        assert write_records_jsonl(path, recs) == 3
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3

    def test_empty_list_empty_file(self, tmp_path):
        path = tmp_path / "cases.jsonl"
        assert write_records_jsonl(path, []) == 0
        assert path.read_text(encoding="utf-8") == ""

    def test_embedded_newline_stays_one_line(self, tmp_path):
        path = tmp_path / "cases.jsonl"
        rec = make_record(**{"narrative_osint.circumstances": "line one\nline two"})
        write_records_jsonl(path, [rec])
        raw = path.read_bytes().decode("utf-8")
        assert raw.count("\n") == 1
        parsed = json.loads(raw)
        assert resolve_path(parsed, "narrative_osint.circumstances") == "line one\nline two"

    def test_key_order_is_canonical(self, tmp_path):
        path = tmp_path / "cases.jsonl"
        # Build a record with scrambled key order on purpose.
        scrambled = json.loads(
            json.dumps(make_record()), object_pairs_hook=lambda kv: dict(reversed(kv))
        )
        write_records_jsonl(path, [scrambled])
        first = json.loads(path.read_text(encoding="utf-8"))
        assert list(first) == [
            "case_id",
            "demographic",
            "narrative_osint",
            "outcome",
            "provenance",
            "spatial",
            "temporal",
        ]
        assert list(first["temporal"]) == ["last_seen_ts", "reported_missing_ts", "timezone"]

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "cases.jsonl"
        write_records_jsonl(path, [make_record(), make_record()])
        assert b"\r" not in path.read_bytes()


class TestFlatten:
    def test_scalar_columns(self):
        rec = make_record(
            **{
                "spatial.lat": 38.47,
                "spatial.lon": -77.996,
                "demographic.age_years": 15,
                "spatial.geocode_plausible": True,
            }
        )
        row = flatten_record(rec, SCHEMA)
        assert row["spatial.lat"] == "38.47"
        assert row["spatial.lon"] == "-77.996"
        assert row["demographic.age_years"] == "15"
        assert row["spatial.geocode_plausible"] == "true"

    def test_list_elements_are_indexed(self):
        rec = make_record(
            **{"narrative_osint.movement_cues": ["Maryland", "Delaware"]}
        )
        row = flatten_record(rec, SCHEMA)
        assert row["narrative_osint.movement_cues.0"] == "Maryland"
        assert row["narrative_osint.movement_cues.1"] == "Delaware"

    def test_null_becomes_empty_string(self):
        row = flatten_record(make_record(), SCHEMA)
        assert row["demographic.name"] == ""

    def test_empty_list_emits_no_columns(self):
        row = flatten_record(make_record(), SCHEMA)
        assert not [c for c in row if c.startswith("narrative_osint.movement_cues.")]

    def test_origin_spans_flatten_with_dotted_keys(self):
        rec = make_record(
            **{"provenance.field_origins": {"demographic.name": [0, 10, 22]}}
        )
        row = flatten_record(rec, SCHEMA)
        assert row["provenance.field_origins.demographic.name.0"] == "0"
        assert row["provenance.field_origins.demographic.name.1"] == "10"
        assert row["provenance.field_origins.demographic.name.2"] == "22"


class TestColumnOrder:
    def test_schema_order_then_list_index(self):
        cols = {
            "narrative_osint.movement_cues.1",
            "narrative_osint.movement_cues.0",
            "narrative_osint.movement_cues.10",
            "case_id",
            "demographic.name",
            "spatial.lat",
        }
        ordered = column_order(cols, SCHEMA)
        assert ordered.index("case_id") == 0
        assert ordered.index("demographic.name") < ordered.index(
            "narrative_osint.movement_cues.0"
        )
        c0 = ordered.index("narrative_osint.movement_cues.0")
        assert ordered[c0 + 1] == "narrative_osint.movement_cues.1"
        assert ordered[c0 + 2] == "narrative_osint.movement_cues.10"
        assert ordered.index("spatial.lat") > ordered.index("narrative_osint.movement_cues.10")


class TestUnflatten:
    def test_round_trip_simple(self):
        rec = make_record(
            **{
                "demographic.name": "Jane Roe",
                "demographic.age_years": 15,
                "spatial.lat": 38.47,
                "spatial.lon": -77.996,
                "spatial.geocode_method": "gazetteer",
                "spatial.geocode_plausible": True,
                "narrative_osint.movement_cues": ["Maryland", "Delaware"],
                "provenance.field_origins": {"demographic.name": [0, 10, 22]},
            }
        )
        row = flatten_record(rec, SCHEMA)
        assert unflatten_row(row, SCHEMA) == rec

    def test_unknown_column_surfaces_unknown_key(self):
        row = flatten_record(make_record(), SCHEMA)
        row["demographic.zodiac_sign"] = "libra"
        candidate = unflatten_row(row, SCHEMA)
        report = validate(candidate, SCHEMA)
        assert ("demographic.zodiac_sign", "unknown_key") in [
            (v.field_path, v.code) for v in report.violations
        ]

    def test_empty_numeric_column_is_null(self):
        row = flatten_record(make_record(**{"demographic.age_years": 15}), SCHEMA)
        row["demographic.age_years"] = ""
        candidate = unflatten_row(row, SCHEMA)
        assert resolve_path(candidate, "demographic.age_years") is None

    def test_bad_numeric_text_kept_for_validator(self):
        row = flatten_record(make_record(), SCHEMA)
        row["demographic.age_years"] = "fifteen"
        candidate = unflatten_row(row, SCHEMA)
        report = validate(candidate, SCHEMA)
        assert ("demographic.age_years", "wrong_type") in [
            (v.field_path, v.code) for v in report.violations
        ]

    @settings(max_examples=60, deadline=None)
    @given(records())
    def test_round_trip_lossless(self, rec):
        row = flatten_record(rec, SCHEMA)
        rebuilt = unflatten_row(row, SCHEMA)
        assert rebuilt == rec

    @settings(max_examples=30, deadline=None)
    @given(records())
    def test_generated_records_validate(self, rec):
        report = validate(rec, SCHEMA)
        assert report.valid, report.codes()


class TestWriteCsv:
    def test_header_union_and_fill(self, tmp_path):
        path = tmp_path / "cases.csv"
        with_cues = make_record(
            **{"narrative_osint.movement_cues": ["Maryland"], "demographic.age_years": 9}
        )
        without = make_record(case_id="CASE-00002")
        assert write_records_csv(path, [with_cues, without], SCHEMA) == 2
        with path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["narrative_osint.movement_cues.0"] == "Maryland"
        assert rows[1]["narrative_osint.movement_cues.0"] == ""
        assert rows[0]["demographic.age_years"] == "9"

    def test_quoting_round_trips(self, tmp_path):
        path = tmp_path / "cases.csv"
        tricky = 'said "wait", then\nleft'
        rec = make_record(**{"narrative_osint.circumstances": tricky})
        write_records_csv(path, [rec], SCHEMA)
        with path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["narrative_osint.circumstances"] == tricky

    def test_lf_only_line_endings(self, tmp_path):
        path = tmp_path / "cases.csv"
        write_records_csv(path, [make_record()], SCHEMA)
        assert b"\r" not in path.read_bytes()

    def test_case_ids_match_jsonl_order(self, tmp_path):
        recs = [make_record(case_id=f"CASE-{i:03d}") for i in (3, 1, 2)]
        write_records_jsonl(tmp_path / "c.jsonl", recs)
        write_records_csv(tmp_path / "c.csv", recs, SCHEMA)
        jsonl_ids = [
            json.loads(line)["case_id"]
            for line in (tmp_path / "c.jsonl").read_text(encoding="utf-8").splitlines()
        ]
        with (tmp_path / "c.csv").open(newline="", encoding="utf-8") as fh:
            csv_ids = [row["case_id"] for row in csv.DictReader(fh)]
        assert jsonl_ids == csv_ids


TS ="2025-01-15T09:30:00+00:00"


class TestWarningLog:
    def test_entry_count_matches_calls(self):
        log = WarningLog(TS)
        for _ in range(4):
            log.log(
                document_id="doc-001",
                stage="parse",
                severity="warning",
                code="duplicate_field_match",
                message="x",
            )
        assert len(log.entries) == 4

    def test_rejects_unknown_code(self):
        log = WarningLog(TS)
        with pytest.raises(ValueError):
            log.log(
                document_id="d", stage="parse", severity="warning", code="nope", message="x"
            )

    def test_rejects_unknown_stage_and_severity(self):
        log = WarningLog(TS)
        with pytest.raises(ValueError):
            log.log(
                document_id="d",
                stage="cooking",
                severity="warning",
                code="duplicate_field_match",
                message="x",
            )
        with pytest.raises(ValueError):
            log.log(
                document_id="d",
                stage="parse",
                severity="fatal",
                code="duplicate_field_match",
                message="x",
            )

    def test_every_entry_carries_the_log_ts(self):
        log = WarningLog(TS)
        for document_id in ("doc-002", "doc-003"):
            log.log(
                document_id=document_id,
                case_id="CASE-7",
                stage="geocode",
                severity="warning",
                code="ambiguous_place",
                message="two regions",
            )
        assert [entry.ts for entry in log.entries] == [TS, TS]
        entry = log.entries[0]
        assert entry.case_id == "CASE-7"
        assert entry.stage == "geocode"

    def test_save_is_sorted_and_complete(self, tmp_path):
        log = WarningLog(TS)
        log.log(document_id="doc-b", stage="parse", severity="warning",
                code="duplicate_field_match", message="later doc")
        log.log(document_id="doc-a", stage="validate", severity="warning",
                code="validation_violation", message="earlier doc")
        out = tmp_path / "warnings.jsonl"
        assert log.save(out) == 2
        rows = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
        assert [r["document_id"] for r in rows] == ["doc-a", "doc-b"]

    def test_counts_by_severity(self):
        log = WarningLog(TS)
        log.log(document_id="d", stage="repair", severity="error",
                code="repair_exhausted", message="x")
        log.log(document_id="d", stage="parse", severity="warning",
                code="duplicate_field_match", message="x")
        assert log.counts_by_severity() == {"warning": 1, "error": 1}

    def test_registry_is_documented(self):
        assert all(isinstance(desc, str) and desc for desc in WARNING_CODES.values())
        assert set(STAGES) == {
            "extract", "detect", "parse", "sanitize", "harmonize",
            "geocode", "validate", "repair", "emit",
        }
        assert set(SEVERITIES) == {"info", "warning", "error"}

    def test_every_registered_code_is_emitted_somewhere(self):
        """Each code appears as a string literal outside the registry itself."""
        registry_nodes: set[int] = set()
        literals: set[str] = set()
        for path in Path(emit.__file__).parent.glob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Assign)
                    and any(
                        isinstance(t, ast.Name) and t.id == "WARNING_CODES"
                        for t in node.targets
                    )
                ):
                    registry_nodes.update(id(n) for n in ast.walk(node.value))
            literals.update(
                node.value
                for node in ast.walk(tree)
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in registry_nodes
            )
        assert registry_nodes, "WARNING_CODES registry not found"
        assert sorted(set(WARNING_CODES) - literals) == []
