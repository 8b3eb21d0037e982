"""Metrics tests.

The precision/recall/F1 and accuracy numbers are checked two ways: frozen
hand-worked examples with exact expected values, and a brute-force oracle in
this file that re-implements slot enumeration from scratch (its own path
digging, its own canonicalization, its own comparators) so any disagreement
points at a real bug rather than shared code.
"""

import copy
import math
import re
from datetime import date, datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casepipe.config import ConfigError
from casepipe.metrics import (
    DEFAULT_KEY_FIELDS,
    AlignmentResult,
    GoldSide,
    MatchRule,
    MetricsReport,
    align,
    build_report,
    completeness,
    default_match_rules,
    f1_score,
    field_prf,
    format_report,
    geocode_rates,
    get_path,
    is_nullish,
    repair_stats,
    runtime_stats,
    scored_paths,
    slot_counts,
    structured_field_accuracy,
    structured_paths,
    values_match,
)
from casepipe.schema import default_schema
from recordgen import records

SCHEMA = default_schema()
RULES = default_match_rules(SCHEMA)
SCORED = scored_paths(SCHEMA)
STRUCTURED = structured_paths(SCHEMA)

EXPECTED_SCORED = {
    "case_id",
    "demographic.name",
    "demographic.sex",
    "demographic.age_years",
    "demographic.age_min",
    "demographic.age_max",
    "demographic.height_min_cm",
    "demographic.height_max_cm",
    "demographic.weight_min_kg",
    "demographic.weight_max_kg",
    "demographic.race_ethnicity",
    "spatial.last_seen_location",
    "spatial.city",
    "spatial.county",
    "spatial.state",
    "spatial.postal_code",
    "spatial.lat",
    "spatial.lon",
    "spatial.geocode_method",
    "spatial.geocode_plausible",
    "temporal.last_seen_ts",
    "temporal.reported_missing_ts",
    "temporal.timezone",
    "narrative_osint.circumstances",
    "narrative_osint.movement_cues",
    "outcome.status",
    "outcome.status_ts",
}


class TestScoredSets:
    def test_scored_paths_exact_content(self):
        assert set(SCORED) == EXPECTED_SCORED

    def test_structured_drops_only_the_narrative(self):
        assert set(STRUCTURED) == EXPECTED_SCORED - {"narrative_osint.circumstances"}

    def test_no_provenance_and_no_prose_appearance_fields(self):
        assert not any(p.startswith("provenance.") for p in SCORED)
        assert "narrative_osint.clothing_description" not in SCORED
        assert "narrative_osint.distinctive_features" not in SCORED

    def test_default_rules_cover_exactly_the_scored_set(self):
        assert set(RULES) == set(SCORED)

    def test_default_comparator_assignment(self):
        assert RULES["temporal.last_seen_ts"].comparator == "timestamp_eq"
        assert RULES["temporal.reported_missing_ts"].comparator == "timestamp_eq"
        assert RULES["outcome.status_ts"].comparator == "timestamp_eq"
        assert RULES["narrative_osint.movement_cues"].comparator == "set_eq"
        assert RULES["demographic.age_years"].comparator == "numeric_eq"
        assert RULES["spatial.lat"].comparator == "numeric_eq"
        assert RULES["spatial.geocode_plausible"].comparator == "numeric_eq"
        assert RULES["demographic.name"].comparator == "exact_canonical"
        assert RULES["outcome.status"].comparator == "exact_canonical"

    def test_unknown_comparator_rejected(self):
        with pytest.raises(ConfigError):
            MatchRule("demographic.name", "fuzzy")


class TestNullishAndPaths:
    @pytest.mark.parametrize("value", [None, "", [], {}])
    def test_nullish(self, value):
        assert is_nullish(value)

    @pytest.mark.parametrize("value", [0, 0.0, False, "x", [0], {"a": 1}])
    def test_not_nullish(self, value):
        assert not is_nullish(value)

    def test_get_path_missing_levels(self):
        record = {"demographic": {"name": "A"}}
        assert get_path(record, "demographic.name") == "A"
        assert get_path(record, "demographic.age_years") is None
        assert get_path(record, "spatial.city") is None
        assert get_path({"demographic": "oops"}, "demographic.name") is None


class TestComparators:
    def _match(self, comparator, a, b):
        return values_match(MatchRule("x", comparator), a, b)

    def test_exact_canonical_folds_case_and_whitespace(self):
        assert self._match("exact_canonical", "Avery  Quill ", "avery quill")
        assert not self._match("exact_canonical", "Avery Quill", "Avery Quilt")

    def test_numeric_accepts_int_float_and_digit_strings(self):
        assert self._match("numeric_eq", 157, 157.0)
        assert self._match("numeric_eq", "157", 157)
        assert self._match("numeric_eq", True, 1)
        assert not self._match("numeric_eq", 157, 158)
        assert not self._match("numeric_eq", "abc", 157)
        assert self._match("numeric_eq", "abc", "abc")

    def test_timestamp_date_vs_datetime_compares_dates(self):
        assert self._match("timestamp_eq", "2023-06-14", "2023-06-14T09:30:00-05:00")
        assert self._match("timestamp_eq", "2023-06-14T23:59:00-05:00", "2023-06-14")
        assert not self._match("timestamp_eq", "2023-06-14", "2023-06-15T00:00:00-05:00")

    def test_timestamp_datetime_pair_is_exact(self):
        assert self._match(
            "timestamp_eq", "2023-06-14T09:30:00-05:00", "2023-06-14T09:30-05:00"
        )
        assert not self._match(
            "timestamp_eq", "2023-06-14T09:30:00-05:00", "2023-06-14T09:31:00-05:00"
        )

    def test_timestamp_equivalent_offsets_match(self):
        assert self._match(
            "timestamp_eq", "2023-06-14T14:30:00+00:00", "2023-06-14T09:30:00-05:00"
        )

    def test_timestamp_naive_never_matches_aware(self):
        assert not self._match(
            "timestamp_eq", "2023-06-14T09:30:00", "2023-06-14T09:30:00-05:00"
        )

    def test_timestamp_unparseable_falls_back_to_text(self):
        assert self._match("timestamp_eq", "mid June  2023", "mid june 2023")
        assert not self._match("timestamp_eq", "mid June 2023", "2023-06-14")

    def test_set_ignores_order_and_case(self):
        assert self._match("set_eq", ["Maryland", "Delaware"], ["delaware", "MARYLAND"])
        assert not self._match("set_eq", ["Maryland"], ["Maryland", "Delaware"])

    def test_set_accepts_scalar_as_singleton(self):
        assert self._match("set_eq", "Maryland", ["maryland"])


class TestAlign:
    def test_pairs_follow_gold_order_and_unmatched_split(self):
        gold = [{"case_id": "b"}, {"case_id": "a"}, {"case_id": "c"}]
        parsed = [{"case_id": "a"}, {"case_id": "b"}, {"case_id": "z"}]
        result = align(parsed, gold)
        assert [g["case_id"] for _, g in result.pairs] == ["b", "a"]
        assert [p["case_id"] for p, _ in result.pairs] == ["b", "a"]
        assert result.unmatched_parsed_ids == ("z",)
        assert result.unmatched_gold_ids == ("c",)

    def test_duplicate_case_id_raises(self):
        with pytest.raises(ValueError, match="duplicate case_id"):
            align([{"case_id": "a"}, {"case_id": "a"}], [])
        with pytest.raises(ValueError, match="gold"):
            align([], [{"case_id": "a"}, {"case_id": "a"}])

    def test_missing_case_id_is_unmatched_not_an_error(self):
        result = align([{"demographic": {"name": "x"}}], [{"case_id": "a"}])
        assert result.pairs == ()
        assert len(result.unmatched_parsed) == 1
        assert result.unmatched_gold_ids == ("a",)

    def test_alignment_copies_records(self):
        parsed = [{"case_id": "a"}]
        result = align(parsed, [{"case_id": "a"}])
        result.pairs[0][0]["case_id"] = "mutated"
        assert parsed[0]["case_id"] == "a"


class TestWorkedExample:
    """One aligned pair arranged to hit every slot outcome exactly once.

    Slot inventory: case_id and name agree (2 correct), age disagrees
    (1 mismatch), city is parsed-only (1 spurious), status is gold-only
    (1 missing), and every other scored slot is empty on both sides.
    """

    GOLD = {
        "case_id": "X-1",
        "demographic": {"name": "Avery Quill", "age_years": 16},
        "outcome": {"status": "missing"},
    }
    PARSED = {
        "case_id": "X-1",
        "demographic": {"name": "avery  quill", "age_years": 15},
        "spatial": {"city": "Richmond"},
    }

    def test_slot_counts(self):
        alignment = align([self.PARSED], [self.GOLD])
        assert slot_counts(alignment, RULES) == (2, 2, 2)

    def test_prf_is_exactly_half(self):
        alignment = align([self.PARSED], [self.GOLD])
        precision, recall, f1 = field_prf(alignment, RULES)
        assert precision == 0.5
        assert recall == 0.5
        assert f1 == 0.5

    def test_structured_accuracy_over_gold_slots(self):
        alignment = align([self.PARSED], [self.GOLD])
        # Gold-populated structured slots: case_id, name, age, status.
        assert structured_field_accuracy(alignment, RULES, STRUCTURED) == 0.5


class TestFieldPrfEdges:
    def test_empty_inputs_are_all_zero(self):
        alignment = align([], [])
        assert field_prf(alignment, RULES) == (0.0, 0.0, 0.0)

    def test_unmatched_gold_counts_every_populated_slot_as_missed(self):
        gold = {"case_id": "g", "demographic": {"name": "A", "age_years": 9}}
        alignment = align([], [gold])
        assert slot_counts(alignment, RULES) == (0, 0, 3)
        assert field_prf(alignment, RULES) == (0.0, 0.0, 0.0)

    def test_unmatched_parsed_counts_every_populated_slot_as_spurious(self):
        parsed = {"case_id": "p", "spatial": {"city": "Dover"}}
        alignment = align([parsed], [])
        assert slot_counts(alignment, RULES) == (0, 2, 0)

    def test_unscored_fields_never_enter_the_counts(self):
        gold = {
            "case_id": "g",
            "narrative_osint": {"clothing_description": "red coat"},
            "provenance": {"source_label": "police_bulletin"},
        }
        parsed = {
            "case_id": "g",
            "narrative_osint": {"clothing_description": "totally different"},
            "provenance": {"source_label": "case_profile_site"},
        }
        alignment = align([parsed], [gold])
        assert slot_counts(alignment, RULES) == (1, 0, 0)

    def test_f1_score_vacuous(self):
        assert f1_score(0.0, 0.0) == 0.0
        assert f1_score(1.0, 0.5) == pytest.approx(2 / 3)


class TestStructuredAccuracy:
    def test_unmatched_gold_inflates_denominator(self):
        gold_matched = {"case_id": "a", "demographic": {"age_years": 5}}
        gold_missed = {"case_id": "b", "demographic": {"age_years": 7}}
        parsed = {"case_id": "a", "demographic": {"age_years": 5}}
        alignment = align([parsed], [gold_matched, gold_missed])
        # Matched: case_id + age for "a". Denominator adds case_id + age of "b".
        assert structured_field_accuracy(alignment, RULES, STRUCTURED) == 0.5

    def test_zero_slots_warns_and_returns_zero(self):
        warnings = []
        value = structured_field_accuracy(
            align([], []), RULES, STRUCTURED, lambda c, m: warnings.append(c)
        )
        assert value == 0.0
        assert warnings == ["degenerate_metric"]

    def test_missing_rule_for_requested_path_is_a_config_error(self):
        with pytest.raises(ConfigError, match="no match rule"):
            structured_field_accuracy(align([], []), {}, ("demographic.name",))


class TestCompleteness:
    def test_fraction_over_record_field_grid(self):
        recs = [
            {
                "demographic": {"name": "A"},
                "spatial": {"city": "Dover"},
                "temporal": {"last_seen_ts": "2023-06-14"},
                "outcome": {"status": "missing"},
            },
            {"demographic": {"name": "B"}, "outcome": {"status": None}},
        ]
        overall, by_field = completeness(recs, DEFAULT_KEY_FIELDS)
        assert overall == 5 / 8
        assert by_field == {
            "demographic.name": 1.0,
            "spatial.city": 0.5,
            "temporal.last_seen_ts": 0.5,
            "outcome.status": 0.5,
        }

    def test_empty_sample_warns(self):
        warnings = []
        overall, by_field = completeness([], DEFAULT_KEY_FIELDS, lambda c, m: warnings.append(c))
        assert overall == 0.0
        assert set(by_field) == set(DEFAULT_KEY_FIELDS)
        assert warnings == ["degenerate_metric"]

    def test_empty_string_and_empty_list_count_as_absent(self):
        recs = [{"demographic": {"name": ""}, "narrative_osint": {"movement_cues": []}}]
        overall, by_field = completeness(
            recs, ("demographic.name", "narrative_osint.movement_cues")
        )
        assert overall == 0.0


class TestGeocodeRates:
    @staticmethod
    def _rec(method, lat=None, lon=None, plausible=None):
        return {
            "spatial": {
                "geocode_method": method,
                "lat": lat,
                "lon": lon,
                "geocode_plausible": plausible,
            }
        }

    def test_ten_attempted_nine_plausible(self):
        recs = [
            self._rec("gazetteer", 38.0 + i, -77.0, plausible=(i != 0))
            for i in range(10)
        ]
        assert geocode_rates(recs) == (1.0, 0.9)

    def test_source_provided_leaves_the_success_denominator(self):
        recs = [
            self._rec("source_provided", 38.0, -77.0, True),
            self._rec("gazetteer", 39.0, -76.0, True),
            self._rec("none"),
        ]
        success, plausible = geocode_rates(recs)
        assert success == 0.5
        assert plausible == 1.0

    def test_all_source_provided_is_vacuous_success(self):
        recs = [self._rec("source_provided", 38.0, -77.0, True)]
        assert geocode_rates(recs) == (1.0, 1.0)

    def test_no_coordinates_warns_on_plausibility(self):
        warnings = []
        success, plausible = geocode_rates(
            [self._rec("none")], lambda c, m: warnings.append(c)
        )
        assert success == 0.0
        assert plausible == 0.0
        assert warnings == ["degenerate_metric"]


class TestRepairStats:
    def test_rates_from_run_log(self):
        log = [
            {"pre_valid": True, "post_valid": True, "attempts": 0},
            {"pre_valid": True, "post_valid": True, "attempts": 0},
            {"pre_valid": True, "post_valid": True, "attempts": 0},
            {"pre_valid": True, "post_valid": True, "attempts": 0},
            {"pre_valid": False, "post_valid": True, "attempts": 1},
        ]
        pre, post, repaired = repair_stats(log)
        assert pre == 0.8
        assert post == 1.0
        assert repaired == 0.2

    def test_unrepairable_record_lowers_post_rate(self):
        log = [
            {"pre_valid": False, "post_valid": False, "attempts": 2},
            {"pre_valid": True, "post_valid": True, "attempts": 0},
        ]
        assert repair_stats(log) == (0.5, 0.5, 0.5)

    def test_empty_log_is_vacuously_clean(self):
        warnings = []
        assert repair_stats([], lambda c, m: warnings.append(c)) == (1.0, 1.0, 0.0)
        assert warnings == ["degenerate_metric"]


class TestRuntimeStats:
    def test_mean_and_nearest_rank_p95(self):
        values = [float(i) for i in range(1, 101)]
        mean, p95 = runtime_stats(values)
        assert mean == 50.5
        assert p95 == 95.0

    def test_small_samples(self):
        assert runtime_stats([3.0]) == (3.0, 3.0)
        mean, p95 = runtime_stats([1.0, 2.0])
        assert mean == 1.5
        assert p95 == 2.0

    def test_order_does_not_matter(self):
        assert runtime_stats([5.0, 1.0, 3.0]) == runtime_stats([1.0, 3.0, 5.0])

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError):
            runtime_stats([])


# ---------------------------------------------------------------------------
# Brute-force oracle


def _oracle_dig(record, path):
    node = record
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def _oracle_null(value):
    return value is None or value == "" or value == [] or value == {}


def _oracle_text(value):
    return re.sub(r"\s+", " ", str(value)).strip().casefold()


def _oracle_ts(value):
    text = str(value).strip()
    try:
        if len(text) == 10:
            return date.fromisoformat(text), "date"
        if text.endswith(("Z", "z")):
            text = text[:-1] + "+00:00"
        return datetime.fromisoformat(text), "datetime"
    except ValueError:
        return None


def _oracle_match(comparator, a, b):
    if comparator == "numeric_eq":
        try:
            return float(a) == float(b)
        except (TypeError, ValueError):
            return a == b
    if comparator == "timestamp_eq":
        pa, pb = _oracle_ts(a), _oracle_ts(b)
        if pa is None or pb is None:
            return _oracle_text(a) == _oracle_text(b)
        (va, ka), (vb, kb) = pa, pb
        if ka == "date" or kb == "date":
            da = va.date() if isinstance(va, datetime) else va
            db = vb.date() if isinstance(vb, datetime) else vb
            return da == db
        if (va.tzinfo is None) != (vb.tzinfo is None):
            return False
        return va == vb
    if comparator == "set_eq":
        la = a if isinstance(a, list) else [a]
        lb = b if isinstance(b, list) else [b]
        return {_oracle_text(x) for x in la} == {_oracle_text(x) for x in lb}
    return _oracle_text(a) == _oracle_text(b)


def oracle_counts(parsed, gold, rules):
    gold_by_id = {r["case_id"]: r for r in gold}
    parsed_by_id = {r["case_id"]: r for r in parsed}
    tp = fp = fn = 0
    acc_hits = acc_slots = 0
    for path, rule in rules.items():
        structured = path != "narrative_osint.circumstances"
        for case_id, gold_record in gold_by_id.items():
            gv = _oracle_dig(gold_record, path)
            gold_has = not _oracle_null(gv)
            if case_id in parsed_by_id:
                pv = _oracle_dig(parsed_by_id[case_id], path)
                parsed_has = not _oracle_null(pv)
                hit = (
                    parsed_has
                    and gold_has
                    and _oracle_match(rule.comparator, pv, gv)
                )
                if hit:
                    tp += 1
                elif parsed_has and gold_has:
                    fp += 1
                    fn += 1
                elif parsed_has:
                    fp += 1
                elif gold_has:
                    fn += 1
            else:
                if gold_has:
                    fn += 1
                hit = False
            if structured and gold_has:
                acc_slots += 1
                if case_id in parsed_by_id and hit:
                    acc_hits += 1
        for case_id, parsed_record in parsed_by_id.items():
            if case_id in gold_by_id:
                continue
            if not _oracle_null(_oracle_dig(parsed_record, path)):
                fp += 1
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    accuracy = acc_hits / acc_slots if acc_slots else 0.0
    return precision, recall, f1, accuracy


def _set_deep(record, path, value):
    parts = path.split(".")
    node = record
    for part in parts[:-1]:
        node = node.setdefault(part, {})
    node[parts[-1]] = value


def _mutated(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value + 0.25
    if isinstance(value, list):
        return list(value) + ["Erewhon"]
    if value is None:
        return "conjured"
    return f"{value} zz"


_PERTURBABLE = tuple(p for p in SCORED if p != "case_id")


@st.composite
def evaluation_sets(draw):
    golds = {r["case_id"]: r for r in draw(st.lists(records(), min_size=1, max_size=5))}
    golds = list(golds.values())
    parsed = []
    for gold_record in golds:
        fate = draw(st.sampled_from(("exact", "perturb", "perturb", "drop")))
        if fate == "drop":
            continue
        candidate = copy.deepcopy(gold_record)
        if fate == "perturb":
            paths = draw(
                st.lists(st.sampled_from(_PERTURBABLE), max_size=4, unique=True)
            )
            for path in paths:
                if draw(st.booleans()):
                    _set_deep(candidate, path, None)
                else:
                    _set_deep(candidate, path, _mutated(get_path(gold_record, path)))
        parsed.append(candidate)
    if draw(st.booleans()):
        stray = draw(records())
        if stray["case_id"] not in {g["case_id"] for g in golds}:
            parsed.append(stray)
    return parsed, golds


class TestOracleEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(evaluation_sets())
    def test_prf_and_accuracy_agree_with_brute_force(self, sets):
        parsed, gold = sets
        alignment = align(parsed, gold)
        precision, recall, f1 = field_prf(alignment, RULES)
        accuracy = structured_field_accuracy(alignment, RULES, STRUCTURED)
        o_precision, o_recall, o_f1, o_accuracy = oracle_counts(parsed, gold, RULES)
        assert math.isclose(precision, o_precision, abs_tol=1e-12)
        assert math.isclose(recall, o_recall, abs_tol=1e-12)
        assert math.isclose(f1, o_f1, abs_tol=1e-12)
        assert math.isclose(accuracy, o_accuracy, abs_tol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(records(), min_size=1, max_size=4))
    def test_identical_sides_score_perfectly(self, golds):
        golds = list({r["case_id"]: r for r in golds}.values())
        alignment = align(copy.deepcopy(golds), golds)
        precision, recall, f1 = field_prf(alignment, RULES)
        assert precision == 1.0
        assert recall == 1.0
        assert f1 == 1.0
        assert structured_field_accuracy(alignment, RULES, STRUCTURED) == 1.0


class TestBuildReport:
    def _inputs(self):
        gold = [
            {
                "case_id": "a",
                "demographic": {"name": "Avery"},
                "spatial": {
                    "city": "Dover",
                    "lat": 39.158,
                    "lon": -75.524,
                    "geocode_method": "gazetteer",
                    "geocode_plausible": True,
                },
                "temporal": {"last_seen_ts": "2023-06-14"},
                "outcome": {"status": "missing"},
            },
            {"case_id": "b", "demographic": {"name": "Blair"}},
        ]
        parsed = copy.deepcopy(gold)
        parsed[1]["demographic"]["name"] = None
        log = [
            {"pre_valid": True, "post_valid": True, "attempts": 0},
            {"pre_valid": False, "post_valid": True, "attempts": 1},
        ]
        return parsed, gold, log

    def test_report_fields(self):
        parsed, gold, log = self._inputs()
        report = build_report(
            parsed, GoldSide(gold, SCHEMA), run_log=log, runtimes=[0.2, 0.4, 0.3, 0.1]
        )
        assert report.record_count == 2
        # Gold slots: "a" has 9 populated scored fields (case_id, name, city,
        # lat, lon, method, plausible, last_seen_ts, status), "b" has 2; the
        # parsed side misses just Blair's name.
        assert report.precision == 1.0
        assert report.recall == 10 / 11
        assert report.f1 == f1_score(1.0, 10 / 11)
        assert report.structured_field_accuracy == 10 / 11
        # Parsed "a" fills all four key fields; parsed "b" fills none (its
        # name was nulled above).
        assert report.completeness_overall == 0.5
        assert report.geocode_success_rate == 0.5
        assert report.geocode_plausible_rate == 1.0
        assert report.pre_pass_rate == 0.5
        assert report.post_pass_rate == 1.0
        assert report.repair_rate == 0.5
        assert report.runtime_mean_s == pytest.approx(0.25)
        assert report.runtime_p95_s == 0.4

    def test_inputs_are_not_mutated(self):
        parsed, gold, log = self._inputs()
        snapshot = copy.deepcopy((parsed, gold, log))
        build_report(parsed, GoldSide(gold, SCHEMA), run_log=log, runtimes=[0.1])
        assert (parsed, gold, log) == snapshot

    def test_missing_runtimes_warn_and_zero(self):
        parsed, gold, log = self._inputs()
        codes = []
        report = build_report(
            parsed,
            GoldSide(gold, SCHEMA),
            run_log=log,
            on_warning=lambda c, m: codes.append(c),
        )
        assert report.runtime_mean_s == 0.0
        assert report.runtime_p95_s == 0.0
        assert codes == ["degenerate_metric"]

    def test_as_dict_round_trip_keys(self):
        parsed, gold, log = self._inputs()
        report = build_report(parsed, GoldSide(gold, SCHEMA), run_log=log, runtimes=[0.1])
        data = report._asdict()
        assert data["f1"] == report.f1
        assert data["completeness_by_field"]["demographic.name"] == 0.5
        assert data["record_count"] == 2

    def test_f1_identity_is_enforced(self):
        with pytest.raises(ValueError, match="f1"):
            MetricsReport(
                precision=1.0,
                recall=1.0,
                f1=0.5,
                structured_field_accuracy=1.0,
                completeness_overall=1.0,
                completeness_by_field={},
                geocode_success_rate=1.0,
                geocode_plausible_rate=1.0,
                pre_pass_rate=1.0,
                post_pass_rate=1.0,
                repair_rate=0.0,
                runtime_mean_s=0.1,
                runtime_p95_s=0.1,
                record_count=1,
            )

    def test_out_of_range_rate_is_rejected(self):
        with pytest.raises(ValueError, match="precision"):
            MetricsReport(
                precision=1.2,
                recall=1.0,
                f1=f1_score(1.2, 1.0),
                structured_field_accuracy=1.0,
                completeness_overall=1.0,
                completeness_by_field={},
                geocode_success_rate=1.0,
                geocode_plausible_rate=1.0,
                pre_pass_rate=1.0,
                post_pass_rate=1.0,
                repair_rate=0.0,
                runtime_mean_s=0.1,
                runtime_p95_s=0.1,
                record_count=1,
            )


class TestFormatReport:
    def test_table_contains_both_columns_and_digest(self):
        parsed = [{"case_id": "a", "demographic": {"name": "A"}}]
        gold = [{"case_id": "a", "demographic": {"name": "A"}}]
        report = build_report(parsed, GoldSide(gold, SCHEMA), runtimes=[0.1])
        text = format_report({"rule": report, "llm": report}, "beefcafe")
        assert "run config digest: beefcafe" in text
        lines = text.splitlines()
        header = next(l for l in lines if "rule" in l and "llm" in l)
        assert header.index("rule") < header.index("llm")
        assert any(l.startswith("f1") for l in lines)
        assert any(l.startswith("repair_rate") for l in lines)
        assert any("completeness[demographic.name]" in l for l in lines)
        assert text.endswith("\n")

    def test_every_scalar_metric_appears(self):
        parsed = [{"case_id": "a"}]
        report = build_report(parsed, GoldSide(parsed, SCHEMA), runtimes=[0.1])
        text = format_report({"only": report}, "00")
        for name in (
            "precision",
            "recall",
            "structured_field_accuracy",
            "completeness_overall",
            "geocode_success_rate",
            "geocode_plausible_rate",
            "pre_pass_rate",
            "post_pass_rate",
            "runtime_mean_s",
            "runtime_p95_s",
            "record_count",
        ):
            assert any(line.startswith(name) for line in text.splitlines()), name
