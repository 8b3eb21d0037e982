"""Label-rule parsing, exercised against the bundled rule sets."""

import json

import pytest

from casepipe.config import ConfigError, bundled_path
from casepipe.extract import CaseSegment, prenormalize
from casepipe.geocode import Gazetteer, apply_geocode
from casepipe.harmonize import harmonize, load_mapping_dir
from casepipe.rules import (
    END_SENTINEL,
    FAMILY_BULLETIN,
    FAMILY_NARRATIVE,
    FAMILY_REGISTRY,
    LabelRule,
    dispatch,
    extract_movement_cues,
    load_ruleset,
    load_rulesets,
    strip_sentinel,
)
from casepipe.schema import assemble_record, default_schema
from casepipe.sources import DetectionResult, detect_source, load_signatures

RULESETS = load_rulesets(bundled_path("rulesets"))
SIGNATURES = load_signatures(bundled_path("signatures.jsonl"))
SCHEMA = default_schema()
MAPPINGS = load_mapping_dir(bundled_path("mappings"), SCHEMA)

REGISTRY_CIRCUMSTANCES = (
    "Avery Quill was last seen leaving the public library in the late "
    "evening. She did not arrive home and has not contacted family since."
)

REGISTRY_DOC = f"""MISSING PERSONS REGISTRY
Registry Case Number: MPR-2023-9001

Full Name: Avery Quill
Sex: Female
Age at Disappearance: 15
Height: 5'2" - 5'4"
Weight: 110 lbs
Race / Ethnicity: White
Date of Last Contact: 06/14/2023
Date Reported Missing: 06/15/2023
Last Seen Location: Culpeper, Virginia 22701
County: Culpeper County
Case Status: Missing

Circumstances of Disappearance:
{REGISTRY_CIRCUMSTANCES}

{END_SENTINEL}
%%CASE-GOLD:aGk=%%
"""

BULLETIN_DOC = f"""MISSING PERSON BULLETIN
Bulletin No: PB-2023-0456

MISSING: Avery Quill (F, 15)
LAST SEEN: 06/14/2023 near Culpeper, Virginia
HEIGHT/WEIGHT: 5'2" / 110 lbs
WEARING: blue hooded sweatshirt, jeans
CONTACT: Hartwell County Sheriff's Office

{END_SENTINEL}
"""

NARRATIVE_PROSE = (
    "Avery Quill, 15, was last seen on June 14, 2023 in Richmond, Virginia. "
    "She was wearing a blue hooded sweatshirt. Avery is believed to be en "
    "route to Maryland or Delaware. Anyone with information should contact "
    "the county tip line."
)

NARRATIVE_DOC = f"""CASE PROFILE: Avery Quill
Case Reference: CP-2023-0789

{NARRATIVE_PROSE}

Status: Missing

{END_SENTINEL}
"""


def segment(text: str) -> CaseSegment:
    return CaseSegment(segment_index=0, text=text, char_start=0, char_end=len(text))


def parse(text: str, family: str, label: str, on_warning=None):
    """``dispatch``'s ``(raw, spans)`` for ``text`` detected as ``label`` of
    ``family``, so the family's own rules run."""
    return dispatch(DetectionResult(label, family, (), 2), segment(text), RULESETS, on_warning)


@pytest.fixture()
def warnings_list():
    collected = []

    def warn(code, message):
        collected.append((code, message))

    warn.collected = collected
    return warn


class TestFixtureHygiene:
    @pytest.mark.parametrize("doc", [REGISTRY_DOC, BULLETIN_DOC, NARRATIVE_DOC])
    def test_fixtures_are_already_normalized(self, doc):
        assert prenormalize(doc) == doc.rstrip("\n") + "\n" or prenormalize(doc) == doc.rstrip("\n")


class TestLabelRule:
    def test_unknown_scope_rejected(self):
        with pytest.raises(ConfigError):
            LabelRule("x", "a.b", "(v)", scope="paragraph")

    def test_bad_regex_rejected(self):
        with pytest.raises(ConfigError):
            LabelRule("x", "a.b", "(unclosed", scope="line")

    @pytest.mark.parametrize("pattern", ["no groups", "(two)(groups)"])
    def test_exactly_one_capture_group(self, pattern):
        with pytest.raises(ConfigError):
            LabelRule("x", "a.b", pattern, scope="line")


class TestLoaders:
    def test_bundled_rulesets_cover_every_family(self):
        assert set(RULESETS) == {FAMILY_REGISTRY, FAMILY_BULLETIN, FAMILY_NARRATIVE}
        for family, rules in RULESETS.items():
            assert rules, family

    def test_duplicate_pattern_id_rejected(self, tmp_path):
        row = {"pattern_id": "dup", "field_path": "a.b", "pattern": "(x)", "scope": "line"}
        path = tmp_path / "rules.jsonl"
        path.write_text(json.dumps(row) + "\n" + json.dumps(row) + "\n")
        with pytest.raises(ConfigError, match="duplicate pattern_id"):
            load_ruleset(path)

    def test_empty_ruleset_rejected(self, tmp_path):
        path = tmp_path / "rules.jsonl"
        path.write_text("")
        with pytest.raises(ConfigError, match="no rules"):
            load_ruleset(path)

    def test_missing_family_file_rejected(self, tmp_path):
        row = {"pattern_id": "p", "field_path": "a.b", "pattern": "(x)", "scope": "line"}
        (tmp_path / f"{FAMILY_REGISTRY}.jsonl").write_text(json.dumps(row) + "\n")
        with pytest.raises(ConfigError, match="missing ruleset"):
            load_rulesets(tmp_path)


class TestStripSentinel:
    def test_removes_sentinel_and_tail(self):
        stripped = strip_sentinel(REGISTRY_DOC)
        assert END_SENTINEL not in stripped
        assert "%%CASE-GOLD:" not in stripped
        assert stripped.endswith(REGISTRY_CIRCUMSTANCES + "\n\n")

    def test_no_sentinel_is_identity(self):
        assert strip_sentinel("plain text") == "plain text"


class TestRegistryParsing:
    EXPECTED = {
        "demographic.name": "Avery Quill",
        "demographic.sex": "Female",
        "demographic.age": "15",
        "demographic.height": "5'2\" - 5'4\"",
        "demographic.weight": "110 lbs",
        "demographic.race": "White",
        "temporal.last_seen_ts": "06/14/2023",
        "temporal.reported_missing_ts": "06/15/2023",
        "spatial.place": "Culpeper, Virginia 22701",
        "spatial.county": "Culpeper County",
        "outcome.status": "Missing",
        "narrative_osint.circumstances": REGISTRY_CIRCUMSTANCES,
    }

    def test_all_labeled_fields_captured(self):
        raw, _ = parse(REGISTRY_DOC, FAMILY_REGISTRY, "missing_persons_registry")
        assert raw == self.EXPECTED

    def test_spans_point_at_source_text(self):
        raw, spans = parse(REGISTRY_DOC, FAMILY_REGISTRY, "missing_persons_registry")
        assert list(spans) == list(raw)
        for path, value in raw.items():
            index, start, end = spans[path]
            assert index == 0
            assert REGISTRY_DOC[start:end] == value

    def test_first_match_wins_with_warning(self, warnings_list):
        doubled = REGISTRY_DOC.replace(
            "Race / Ethnicity: White", "Race / Ethnicity: White\nSex: Male"
        )
        raw, _ = parse(doubled, FAMILY_REGISTRY, "missing_persons_registry", warnings_list)
        assert raw["demographic.sex"] == "Female"
        codes = [code for code, _ in warnings_list.collected]
        assert codes == ["duplicate_field_match"]

    def test_sentinel_tail_never_parsed(self):
        tail = REGISTRY_DOC + "Full Name: Someone Else\n"
        raw, _ = parse(tail, FAMILY_REGISTRY, "missing_persons_registry")
        assert raw["demographic.name"] == "Avery Quill"


class TestBulletinParsing:
    EXPECTED = {
        "person.name": "Avery Quill",
        "person.sex_code": "F",
        "person.age": "15",
        "event.when": "06/14/2023",
        "event.where": "Culpeper, Virginia",
        "person.height": "5'2\"",
        "person.weight": "110 lbs",
        "person.wearing": "blue hooded sweatshirt, jeans",
    }

    def test_all_labeled_fields_captured(self):
        raw, _ = parse(BULLETIN_DOC, FAMILY_BULLETIN, "police_bulletin")
        assert raw == self.EXPECTED

    def test_spans_point_at_source_text(self):
        raw, spans = parse(BULLETIN_DOC, FAMILY_BULLETIN, "police_bulletin")
        assert list(spans) == list(raw)
        for path, value in raw.items():
            assert BULLETIN_DOC[slice(*spans[path][1:])] == value


class TestNarrativeParsing:
    def test_label_fields_captured(self):
        raw, _ = dispatch(
            detect_source(NARRATIVE_DOC, SIGNATURES), segment(NARRATIVE_DOC), RULESETS
        )
        assert raw == {
            "subject.name": "Avery Quill",
            "subject.age": "15",
            "event.date_text": "June 14, 2023",
            "event.place_text": "Richmond, Virginia",
            "subject.wearing": "a blue hooded sweatshirt",
            "outcome.status": "Missing",
            "narrative_osint.circumstances": NARRATIVE_PROSE,
            "narrative_osint.movement_cues.0": "Maryland",
            "narrative_osint.movement_cues.1": "Delaware",
        }

    def test_cue_spans_point_at_source_text(self):
        raw, spans = dispatch(
            detect_source(NARRATIVE_DOC, SIGNATURES), segment(NARRATIVE_DOC), RULESETS
        )
        for path in ("narrative_osint.movement_cues.0", "narrative_osint.movement_cues.1"):
            index, start, end = spans[path]
            stripped = strip_sentinel(NARRATIVE_DOC)
            assert index == 0
            assert stripped[start:end] == raw[path]


class TestMovementCues:
    def test_or_separated_places_split(self):
        text = "He is believed to be en route to Maryland or Delaware."
        cues = extract_movement_cues(text)
        assert [place for place, _, _ in cues] == ["Maryland", "Delaware"]
        assert [text[start:end] for _, start, end in cues] == ["Maryland", "Delaware"]

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("She was headed toward Baltimore that night.", ["Baltimore"]),
            ("Possibly traveling to Ocean City with a friend.", ["Ocean City"]),
            ("He kept heading to Norfolk, Richmond and Fairfax.", ["Norfolk", "Richmond", "Fairfax"]),
            ("No travel mentioned anywhere.", []),
        ],
    )
    def test_cue_phrasings(self, text, expected):
        assert [place for place, _, _ in extract_movement_cues(text)] == expected

    def test_sentence_period_stripped_but_abbreviation_kept(self):
        assert extract_movement_cues("en route to Delaware.") == [("Delaware", 12, 20)]
        assert extract_movement_cues("headed to Washington D.C.") == [("Washington D.C.", 10, 25)]

    def test_repeated_place_deduplicated(self):
        cues = extract_movement_cues(
            "She was en route to Baltimore. Later reported headed toward Baltimore."
        )
        assert [place for place, _, _ in cues] == ["Baltimore"]


class TestDispatch:
    @pytest.mark.parametrize(
        "doc,label,family",
        [
            (REGISTRY_DOC, "missing_persons_registry", FAMILY_REGISTRY),
            (BULLETIN_DOC, "police_bulletin", FAMILY_BULLETIN),
            (NARRATIVE_DOC, "case_profile_site", FAMILY_NARRATIVE),
        ],
    )
    def test_bundled_signatures_route_each_family(self, doc, label, family):
        detection = detect_source(doc, SIGNATURES)
        assert detection.source_label == label
        assert detection.family == family
        raw, spans = dispatch(detection, segment(doc), RULESETS)
        # The family's own rules ran: every field path is one of theirs.
        paths = {rule.field_path for rule in RULESETS[family]}
        assert raw and set(raw) <= paths | {
            f"narrative_osint.movement_cues.{i}" for i in range(len(raw))
        }
        assert list(spans) == list(raw)

    def test_unknown_source_falls_back_to_registry_rules(self, warnings_list):
        text = "HANDWRITTEN NOTE\nFull Name: Avery Quill\nnothing else here\n"
        detection = detect_source(text, SIGNATURES)
        assert detection.is_unknown
        raw, _ = dispatch(detection, segment(text), RULESETS, warnings_list)
        assert detection.source_label == "unknown"
        assert raw == {"demographic.name": "Avery Quill"}
        codes = [code for code, _ in warnings_list.collected]
        assert codes == ["unknown_source_fallback"]


class TestRulePathEndToEnd:
    """Draft -> harmonize -> geocode, using only bundled configuration."""

    def geocoded(self, doc, label):
        detection = detect_source(doc, SIGNATURES)
        assert detection.source_label == label
        raw, _ = dispatch(detection, segment(doc), RULESETS)
        leaves = harmonize(raw, MAPPINGS[label], SCHEMA).record
        gazetteer = Gazetteer.load(bundled_path("gazetteer.jsonl"))
        apply_geocode(leaves, gazetteer, {})
        return assemble_record(leaves, SCHEMA)

    def test_registry_document(self):
        record = self.geocoded(REGISTRY_DOC, "missing_persons_registry")
        assert record["demographic"] == {
            "age_max": None,
            "age_min": None,
            "age_years": 15,
            "height_max_cm": 163,
            "height_min_cm": 157,
            "name": "Avery Quill",
            "race_ethnicity": "White",
            "sex": "female",
            "weight_max_kg": 50,
            "weight_min_kg": 50,
        }
        assert record["spatial"]["city"] == "Culpeper"
        assert record["spatial"]["state"] == "Virginia"
        assert record["spatial"]["postal_code"] == "22701"
        assert record["spatial"]["county"] == "Culpeper County"
        assert record["spatial"]["last_seen_location"] == "Culpeper, Virginia 22701"
        assert record["spatial"]["lat"] == pytest.approx(38.47)
        assert record["spatial"]["lon"] == pytest.approx(-77.996)
        assert record["spatial"]["geocode_method"] == "gazetteer"
        assert record["spatial"]["geocode_plausible"] is True
        assert record["temporal"] == {
            "last_seen_ts": "2023-06-14",
            "reported_missing_ts": "2023-06-15",
            "timezone": "-05:00",
        }
        assert record["narrative_osint"]["circumstances"] == REGISTRY_CIRCUMSTANCES
        assert record["narrative_osint"]["movement_cues"] == []
        assert record["outcome"]["status"] == "missing"

    def test_bulletin_document(self):
        record = self.geocoded(BULLETIN_DOC, "police_bulletin")
        assert record["demographic"]["name"] == "Avery Quill"
        assert record["demographic"]["sex"] == "female"
        assert record["demographic"]["age_years"] == 15
        assert record["demographic"]["height_min_cm"] == 157
        assert record["demographic"]["height_max_cm"] == 157
        assert record["demographic"]["weight_min_kg"] == 50
        assert record["demographic"]["weight_max_kg"] == 50
        assert record["narrative_osint"]["clothing_description"] == "blue hooded sweatshirt, jeans"
        assert record["spatial"]["city"] == "Culpeper"
        assert record["spatial"]["state"] == "Virginia"
        assert record["spatial"]["postal_code"] is None
        assert record["spatial"]["lat"] == pytest.approx(38.47)
        assert record["spatial"]["geocode_method"] == "gazetteer"
        assert record["temporal"]["last_seen_ts"] == "2023-06-14"
        assert record["temporal"]["timezone"] == "-05:00"
        # No status label in the bulletin shape; the default applies.
        assert record["outcome"]["status"] == "missing"

    def test_narrative_document(self):
        record = self.geocoded(NARRATIVE_DOC, "case_profile_site")
        assert record["demographic"]["name"] == "Avery Quill"
        assert record["demographic"]["age_years"] == 15
        assert record["demographic"]["sex"] == "unknown"
        assert record["spatial"]["city"] == "Richmond"
        assert record["spatial"]["state"] == "Virginia"
        assert record["spatial"]["lat"] == pytest.approx(37.541)
        assert record["spatial"]["lon"] == pytest.approx(-77.436)
        assert record["spatial"]["geocode_plausible"] is True
        assert record["temporal"]["last_seen_ts"] == "2023-06-14"
        assert record["narrative_osint"]["circumstances"] == NARRATIVE_PROSE
        assert record["narrative_osint"]["movement_cues"] == ["Maryland", "Delaware"]
        assert record["narrative_osint"]["clothing_description"] == "a blue hooded sweatshirt"
        assert record["outcome"]["status"] == "missing"
