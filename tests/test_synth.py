"""Synthetic corpus generation: determinism, gold validity, recoverability."""

import hashlib

import pytest

from casepipe.config import ConfigError, bundled_path, read_jsonl
from casepipe.extract import CaseSegment, prenormalize
from casepipe.geocode import Gazetteer, GeocodeCache, apply_geocode
from casepipe.harmonize import harmonize, load_mapping_dir
from casepipe.llm import read_gold_marker
from casepipe.rules import (
    FAMILY_BULLETIN,
    FAMILY_NARRATIVE,
    FAMILY_REGISTRY,
    dispatch,
    load_rulesets,
)
from casepipe.schema import assemble_record, default_schema, flatten_leaves, validate
from casepipe.sources import detect_source, load_signatures
from casepipe.synth import FAMILY_LABELS, SynthesisSpec, synthesize, write_corpus

SCHEMA = default_schema()
SIGNATURES = load_signatures(bundled_path("signatures.jsonl"))
RULESETS = load_rulesets(bundled_path("rulesets"))
MAPPINGS = load_mapping_dir(bundled_path("mappings"), SCHEMA)
GAZETTEER = Gazetteer.load(bundled_path("gazetteer.jsonl"))

ALL_FAMILIES = {FAMILY_REGISTRY: 5, FAMILY_BULLETIN: 5, FAMILY_NARRATIVE: 5}


def rule_parse(case):
    """Run the deterministic path the way the pipeline would."""
    text = prenormalize(case.document_text)
    detection = detect_source(text, SIGNATURES)
    draft = dispatch(detection, CaseSegment(0, text, 0, len(text)), RULESETS)
    raw = {key: candidate.raw_value for key, candidate in draft.candidates.items()}
    leaves = harmonize(raw, MAPPINGS[detection.source_label], SCHEMA).record
    apply_geocode(leaves, GAZETTEER, GeocodeCache())
    leaves["case_id"] = f"{case.document_id}#s0"
    return detection, assemble_record(leaves, SCHEMA)


def content_paths(record):
    return {
        path: value
        for path, value in flatten_leaves(record).items()
        if not path.startswith("provenance")
    }


def tree_digest(root):
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


class TestSpecValidation:
    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigError, match="unknown family"):
            SynthesisSpec(seed=1, count_per_family={"memo": 3})

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigError, match="count"):
            SynthesisSpec(seed=1, count_per_family={FAMILY_BULLETIN: -1})

    @pytest.mark.parametrize("knob", ["narrative_cue_rate", "label_dropout_rate"])
    @pytest.mark.parametrize("rate", [-0.1, 1.01])
    def test_rates_bounded(self, knob, rate):
        with pytest.raises(ConfigError, match=knob):
            SynthesisSpec(seed=1, count_per_family={}, **{knob: rate})


class TestDeterminism:
    def test_same_spec_same_cases(self):
        spec = SynthesisSpec(seed=42, count_per_family=ALL_FAMILIES, label_dropout_rate=0.3)
        first = synthesize(spec)
        second = synthesize(spec)
        assert [(c.document_id, c.document_text, c.gold) for c in first] == [
            (c.document_id, c.document_text, c.gold) for c in second
        ]

    def test_same_spec_same_bytes_on_disk(self, tmp_path):
        spec = SynthesisSpec(seed=5, count_per_family=ALL_FAMILIES, narrative_cue_rate=0.5)
        write_corpus(spec, tmp_path / "one")
        write_corpus(spec, tmp_path / "two")
        assert tree_digest(tmp_path / "one") == tree_digest(tmp_path / "two")

    def test_family_iteration_ignores_dict_order(self, tmp_path):
        counts_a = {FAMILY_REGISTRY: 3, FAMILY_BULLETIN: 3}
        counts_b = {FAMILY_BULLETIN: 3, FAMILY_REGISTRY: 3}
        write_corpus(SynthesisSpec(seed=9, count_per_family=counts_a), tmp_path / "a")
        write_corpus(SynthesisSpec(seed=9, count_per_family=counts_b), tmp_path / "b")
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")

    @pytest.mark.parametrize(
        "dropout, digest",
        [
            (0.0, "0a3beb469a6012c307ebd8e0f58fcee8c1442287fec6bdf9b73b701206ccd7fb"),
            (0.5, "c4f3379eef6eb6d1504141efb6718e2f3ff0ae3048e0e0595538fb9b29d16e4c"),
        ],
    )
    def test_corpus_bytes_are_pinned(self, tmp_path, dropout, digest):
        # The benchmark's corpora come from write_corpus; a change to what
        # it writes for a given spec must be made on purpose.
        spec = SynthesisSpec(seed=7, count_per_family=ALL_FAMILIES, label_dropout_rate=dropout)
        write_corpus(spec, tmp_path)
        assert tree_digest(tmp_path) == digest

    def test_different_seed_different_corpus(self):
        texts = lambda seed: [
            c.document_text
            for c in synthesize(SynthesisSpec(seed=seed, count_per_family=ALL_FAMILIES))
        ]
        assert texts(7) != texts(8)


class TestGoldRecords:
    CASES = synthesize(SynthesisSpec(seed=13, count_per_family=ALL_FAMILIES, narrative_cue_rate=1.0))

    def test_every_gold_validates(self):
        for case in self.CASES:
            report = validate(case.gold, SCHEMA)
            assert report.valid, (case.document_id, report.codes())

    def test_case_ids_follow_document_ids(self):
        ids = [case.gold["case_id"] for case in self.CASES]
        assert ids == [f"{case.document_id}#s0" for case in self.CASES]
        assert len(set(ids)) == len(ids)

    def test_coordinates_come_from_the_gazetteer(self):
        rows = {
            (row["place"], row["region"]): (row["lat"], row["lon"])
            for row in read_jsonl(bundled_path("gazetteer.jsonl"))
        }
        for case in self.CASES:
            spatial = case.gold["spatial"]
            assert rows[(spatial["city"], spatial["state"])] == (
                spatial["lat"],
                spatial["lon"],
            )
            assert spatial["geocode_method"] == "gazetteer"
            assert spatial["geocode_plausible"] is True

    def test_family_field_shapes(self):
        by_family = {}
        for case in self.CASES:
            by_family.setdefault(case.family, []).append(case.gold)
        for gold in by_family[FAMILY_REGISTRY]:
            assert gold["spatial"]["postal_code"]
            assert gold["spatial"]["county"]
            assert gold["temporal"]["reported_missing_ts"]
            assert gold["narrative_osint"]["circumstances"]
        for gold in by_family[FAMILY_BULLETIN]:
            assert gold["narrative_osint"]["clothing_description"]
            assert gold["spatial"]["county"] is None
            assert gold["outcome"]["status"] == "missing"
        for gold in by_family[FAMILY_NARRATIVE]:
            assert gold["demographic"]["sex"] == "unknown"
            assert gold["narrative_osint"]["circumstances"]

    def test_provenance_labels_match_family(self):
        for case in self.CASES:
            assert case.gold["provenance"]["source_label"] == FAMILY_LABELS[case.family]
            assert case.gold["provenance"]["source_family"] == case.family
            assert case.gold["provenance"]["document_id"] == case.document_id


class TestGoldMarker:
    CASES = synthesize(SynthesisSpec(seed=21, count_per_family=ALL_FAMILIES))

    def test_marker_decodes_to_content_gold(self):
        for case in self.CASES:
            payload = read_gold_marker(case.document_text)
            assert payload is not None, case.document_id
            assert "provenance" not in payload
            assert payload["case_id"] is None
            assert payload["spatial"]["lat"] is None
            assert payload["spatial"]["geocode_method"] is None
            assert payload["temporal"]["timezone"] is None
            gold_flat = flatten_leaves(case.gold)
            for path, value in flatten_leaves(payload).items():
                if value is None or value == []:
                    continue
                assert gold_flat[path] == value, (case.document_id, path)

    def test_marker_survives_prenormalize(self):
        case = self.CASES[0]
        assert read_gold_marker(prenormalize(case.document_text)) == read_gold_marker(
            case.document_text
        )


class TestRulePathRecovery:
    @pytest.mark.parametrize("seed", [7, 11])
    def test_zero_dropout_recovers_every_content_field(self, seed):
        cases = synthesize(
            SynthesisSpec(seed=seed, count_per_family=ALL_FAMILIES, narrative_cue_rate=0.6)
        )
        for case in cases:
            detection, record = rule_parse(case)
            assert detection.source_label == case.source_label
            assert content_paths(record) == content_paths(case.gold), case.document_id

    def test_full_dropout_hides_fields_from_rules_only(self):
        spec = SynthesisSpec(
            seed=31,
            count_per_family={FAMILY_REGISTRY: 4, FAMILY_BULLETIN: 4},
            label_dropout_rate=1.0,
        )
        for case in synthesize(spec):
            assert "Full Name:" not in case.document_text
            assert "MISSING:" not in case.document_text
            _, record = rule_parse(case)
            assert record["demographic"]["name"] is None
            assert case.gold["demographic"]["name"]
            # The facts stay readable in prose for a human or a model.
            assert case.gold["demographic"]["name"] in case.document_text
            assert str(case.gold["demographic"]["age_years"]) in case.document_text

    def test_dropout_leaves_gold_and_marker_intact(self):
        counts = {FAMILY_NARRATIVE: 6}
        plain = synthesize(SynthesisSpec(seed=17, count_per_family=counts))
        dropped = synthesize(
            SynthesisSpec(seed=17, count_per_family=counts, label_dropout_rate=1.0)
        )
        for before, after in zip(plain, dropped):
            # Prose wording shifts with dropout, so the narrative paragraph
            # differs, but every structured fact stays the same.
            for section in ("demographic", "spatial", "temporal", "outcome"):
                assert before.gold[section] == after.gold[section]
            payload = read_gold_marker(after.document_text)
            assert payload["demographic"] == after.gold["demographic"]


class TestCueRate:
    def test_rate_one_gives_every_narrative_a_cue(self):
        cases = synthesize(
            SynthesisSpec(
                seed=3, count_per_family={FAMILY_NARRATIVE: 8}, narrative_cue_rate=1.0
            )
        )
        for case in cases:
            assert case.cue_present
            assert case.gold["narrative_osint"]["movement_cues"]
            _, record = rule_parse(case)
            assert (
                record["narrative_osint"]["movement_cues"]
                == case.gold["narrative_osint"]["movement_cues"]
            )

    def test_rate_zero_gives_none(self):
        cases = synthesize(
            SynthesisSpec(
                seed=3, count_per_family=ALL_FAMILIES, narrative_cue_rate=0.0
            )
        )
        for case in cases:
            assert not case.cue_present
            assert case.gold["narrative_osint"]["movement_cues"] == []

    def test_only_narratives_carry_cues(self):
        cases = synthesize(
            SynthesisSpec(
                seed=5,
                count_per_family={FAMILY_REGISTRY: 5, FAMILY_BULLETIN: 5},
                narrative_cue_rate=1.0,
            )
        )
        for case in cases:
            assert not case.cue_present
            assert case.gold["narrative_osint"]["movement_cues"] == []


class TestWriteCorpus:
    def test_layout_and_counts(self, tmp_path):
        spec = SynthesisSpec(seed=2, count_per_family=ALL_FAMILIES)
        cases = write_corpus(spec, tmp_path)
        docs = sorted((tmp_path / "docs").glob("*.txt"))
        assert len(docs) == len(cases) == 15
        gold_rows = list(read_jsonl(tmp_path / "gold.jsonl"))
        assert gold_rows == [case.gold for case in cases]
        manifest = list(read_jsonl(tmp_path / "manifest.jsonl"))
        assert [row["document_id"] for row in manifest] == [c.document_id for c in cases]
        for row in manifest:
            assert (tmp_path / row["file"]).is_file()
            assert row["seed"] == 2
            assert row["family"] in ALL_FAMILIES
            assert row["source_label"] == FAMILY_LABELS[row["family"]]

    def test_documents_match_returned_cases(self, tmp_path):
        spec = SynthesisSpec(seed=4, count_per_family={FAMILY_BULLETIN: 3})
        cases = write_corpus(spec, tmp_path)
        for case in cases:
            on_disk = (tmp_path / "docs" / f"{case.document_id}.txt").read_text(
                encoding="utf-8"
            )
            assert on_disk == case.document_text
