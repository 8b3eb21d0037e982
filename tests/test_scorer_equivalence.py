"""Equivalence of the one-pass scorer with the walks it replaces.

slot_counts and structured_field_accuracy once walked the gold-aligned slots
separately, each looking every value up with get_path and comparing it with
values_match; completeness and geocode_rates walked the parsed records again,
once per key field and per geocode test. Those loops are kept here as the
oracle. The one-pass tally must give the same counts, the same accuracy, the
same coverage rates and the same report, warnings included, on record sets
that also hold unmatched and anonymous records, sections that are not
mappings, empty values, and rules for paths the schema does not have.

The gold side is prepared once, when its ``metrics.GoldSide`` is built, and
build_report scores each path's records in one pass against it; the text and
timestamp comparators answer equal plain strings at once. One side scored
against two parsed sets must still equal two fresh oracle reports; equal
strings, ``"nan"`` in a numeric slot and str subclasses must compare as the
slow path does; repeated ids must raise as ``align`` does.
"""

import copy
import json
import weakref
from collections import abc

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from casepipe import metrics
from casepipe.config import ConfigError
from casepipe.metrics import (
    COMPARATOR_NUMERIC,
    COMPARATOR_SET,
    COMPARATOR_TIMESTAMP,
    COMPARATORS,
    DEFAULT_KEY_FIELDS,
    GoldSide,
    MatchRule,
    MetricsReport,
    align,
    build_report,
    completeness,
    default_match_rules,
    f1_score,
    field_prf,
    geocode_rates,
    repair_stats,
    runtime_stats,
    scored_paths,
    slot_counts,
    structured_field_accuracy,
    structured_paths,
)
from casepipe.schema import default_schema
from recordgen import records

SCHEMA = default_schema()
RULES = default_match_rules(SCHEMA)
STRUCTURED = structured_paths(SCHEMA)
# Paths no schema field has: one segment, three segments under a real
# section, and three segments through a leaf that is normally a string.
EXTRA_PATHS = ("zz", "demographic.extra.deep", "spatial.city.name")
VALUE_PATHS = tuple(p for p in scored_paths(SCHEMA) if p != "case_id") + EXTRA_PATHS
HEADS = sorted({p.split(".")[0] for p in VALUE_PATHS})


# ---------------------------------------------------------------------------
# The two walks the tally replaces, as they were


def _oracle_get_path(record, path):
    node = record
    for segment in path.split("."):
        if type(node) is not dict and not isinstance(node, abc.Mapping):
            return None
        node = node.get(segment)
    return node


def _oracle_is_nullish(value):
    if value is None or value == "":
        return True
    return isinstance(value, (list, dict)) and not value


def _oracle_values_match(rule, parsed_value, gold_value):
    if rule.comparator == COMPARATOR_NUMERIC:
        return metrics._numbers_equal(parsed_value, gold_value)
    if rule.comparator == COMPARATOR_TIMESTAMP:
        return metrics._timestamps_equal(parsed_value, gold_value)
    if rule.comparator == COMPARATOR_SET:
        return metrics._sets_equal(parsed_value, gold_value)
    return metrics._canonical_text(parsed_value) == metrics._canonical_text(gold_value)


def oracle_slot_counts(alignment, rules):
    paths = sorted(rules)
    tp = fp = fn = 0
    for parsed_record, gold_record in alignment.pairs:
        for path in paths:
            parsed_value = _oracle_get_path(parsed_record, path)
            gold_value = _oracle_get_path(gold_record, path)
            parsed_null = _oracle_is_nullish(parsed_value)
            gold_null = _oracle_is_nullish(gold_value)
            if parsed_null and gold_null:
                continue
            if parsed_null:
                fn += 1
            elif gold_null:
                fp += 1
            elif _oracle_values_match(rules[path], parsed_value, gold_value):
                tp += 1
            else:
                fp += 1
                fn += 1
    for gold_record in alignment.unmatched_gold:
        fn += sum(
            1 for p in paths if not _oracle_is_nullish(_oracle_get_path(gold_record, p))
        )
    for parsed_record in alignment.unmatched_parsed:
        fp += sum(
            1 for p in paths if not _oracle_is_nullish(_oracle_get_path(parsed_record, p))
        )
    return tp, fp, fn


def oracle_structured_field_accuracy(alignment, rules, paths, on_warning=None):
    slots = matches = 0
    for parsed_record, gold_record in alignment.pairs:
        for path in paths:
            gold_value = _oracle_get_path(gold_record, path)
            if _oracle_is_nullish(gold_value):
                continue
            slots += 1
            parsed_value = _oracle_get_path(parsed_record, path)
            if not _oracle_is_nullish(parsed_value) and _oracle_values_match(
                rules[path], parsed_value, gold_value
            ):
                matches += 1
    for gold_record in alignment.unmatched_gold:
        slots += sum(
            1 for p in paths if not _oracle_is_nullish(_oracle_get_path(gold_record, p))
        )
    if slots == 0:
        if on_warning is not None:
            on_warning("degenerate_metric", "no gold-populated structured slots")
        return 0.0
    return matches / slots


def oracle_completeness(records, key_fields, on_warning=None):
    records = list(records)
    if not records or not key_fields:
        if on_warning is not None:
            on_warning("degenerate_metric", "completeness over an empty sample")
        return 0.0, {field: 0.0 for field in key_fields}
    by_field = {}
    populated_total = 0
    for field in key_fields:
        populated = sum(
            1 for r in records if not _oracle_is_nullish(_oracle_get_path(r, field))
        )
        populated_total += populated
        by_field[field] = populated / len(records)
    overall = populated_total / (len(records) * len(key_fields))
    return overall, by_field


def oracle_geocode_rates(records, on_warning=None):
    records = list(records)
    get = _oracle_get_path
    needing = [r for r in records if get(r, "spatial.geocode_method") != "source_provided"]
    having_coords = [
        r
        for r in records
        if get(r, "spatial.lat") is not None and get(r, "spatial.lon") is not None
    ]
    if needing:
        resolved = sum(
            1
            for r in needing
            if get(r, "spatial.lat") is not None and get(r, "spatial.lon") is not None
        )
        success = resolved / len(needing)
    else:
        success = 1.0
    if having_coords:
        plausible = sum(
            1 for r in having_coords if get(r, "spatial.geocode_plausible") is True
        ) / len(having_coords)
    else:
        if on_warning is not None:
            on_warning("degenerate_metric", "no records carry coordinates")
        plausible = 0.0
    return success, plausible


def oracle_report(
    parsed, gold, rules, run_log, runtimes, on_warning, key_fields=DEFAULT_KEY_FIELDS
):
    parsed = [dict(r) for r in parsed]
    alignment = align(parsed, gold)
    tp, fp, fn = oracle_slot_counts(alignment, rules)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    accuracy = oracle_structured_field_accuracy(alignment, rules, STRUCTURED, on_warning)
    overall, by_field = oracle_completeness(parsed, key_fields, on_warning)
    success, plausible = oracle_geocode_rates(parsed, on_warning)
    pre, post, repaired = repair_stats(run_log, on_warning)
    if runtimes:
        mean_s, p95_s = runtime_stats(runtimes)
    else:
        on_warning("degenerate_metric", "no runtime samples recorded")
        mean_s = p95_s = 0.0
    return MetricsReport(
        precision=precision,
        recall=recall,
        f1=f1_score(precision, recall),
        structured_field_accuracy=accuracy,
        completeness_overall=overall,
        completeness_by_field=by_field,
        geocode_success_rate=success,
        geocode_plausible_rate=plausible,
        pre_pass_rate=pre,
        post_pass_rate=post,
        repair_rate=repaired,
        runtime_mean_s=mean_s,
        runtime_p95_s=p95_s,
        record_count=len(parsed),
    )


# ---------------------------------------------------------------------------
# Record sets

_TEXT = st.text(alphabet="aAbB \t-:0123456789", max_size=8)
_TIMESTAMPS = st.sampled_from(
    (
        "2023-06-14",
        "2023-06-14T10:00:00Z",
        "2023-06-14T05:00:00-05:00",
        "2023-06-14T10:00:00",
        "June 14",
    )
)
_EMPTY = st.sampled_from((None, "", [], {}))
_LEAF = st.one_of(
    _EMPTY,
    _TEXT,
    _TIMESTAMPS,
    st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=False, width=16),
    st.booleans(),
    st.lists(_TEXT, max_size=3),
    st.dictionaries(st.sampled_from(("name", "deep")), _TEXT, max_size=2),
)
# What a whole section can be when it is not the mapping the schema expects.
_NOT_A_SECTION = st.sampled_from(("", "Dover", [], ["Dover"], {}, None, 3))
_CASE_IDS = st.sampled_from(("A", "B", "C", "D", ""))


def _set_deep(record, path, value):
    *parents, leaf = path.split(".")
    node = record
    for part in parents:
        child = node.get(part)
        if not isinstance(child, dict):
            child = node[part] = {}
        node = child
    node[leaf] = value


@st.composite
def messy_records(draw, case_id=None):
    record = {}
    case_id = case_id if case_id is not None else draw(st.none() | _CASE_IDS)
    if case_id is not None:
        record["case_id"] = case_id
    for path in draw(st.lists(st.sampled_from(VALUE_PATHS), max_size=10)):
        _set_deep(record, path, draw(_LEAF))
    for head in draw(st.lists(st.sampled_from(HEADS), max_size=2)):
        record[head] = draw(_NOT_A_SECTION)
    return record


def _unique_ids(side):
    """Drop repeated case_ids, which align rejects; anonymous records stay."""
    seen = set()
    kept = []
    for record in side:
        case_id = record.get("case_id")
        if case_id is not None:
            if case_id in seen:
                continue
            seen.add(case_id)
        kept.append(record)
    return kept


@st.composite
def scoring_sets(draw):
    gold = _unique_ids(draw(st.lists(records() | messy_records(), max_size=5)))
    return _parsed_for(draw, gold), gold


@st.composite
def two_parsed_sets(draw):
    """One gold set and two parsed sets drawn against it, as an evaluation
    scores the rule and llm paths against one gold file."""
    parsed, gold = draw(scoring_sets())
    return parsed, _parsed_for(draw, gold), gold


def _parsed_for(draw, gold):
    """Parsed records drawn against ``gold``: copies, perturbed copies,
    messy records under a gold id, dropped ids and strays."""
    parsed = []
    for gold_record in gold:
        fate = draw(st.sampled_from(("copy", "perturb", "messy", "drop")))
        if fate == "drop":
            continue
        if fate == "messy":
            parsed.append(draw(messy_records(case_id=gold_record.get("case_id"))))
            continue
        candidate = copy.deepcopy(gold_record)
        if fate == "perturb":
            for path in draw(st.lists(st.sampled_from(VALUE_PATHS), max_size=4)):
                _set_deep(candidate, path, draw(_LEAF))
        parsed.append(candidate)
    parsed += draw(st.lists(messy_records(), max_size=2))
    return _unique_ids(parsed)


@st.composite
def custom_rules(draw):
    """Rules for a subset of the schema's paths plus some it does not have."""
    paths = draw(
        st.lists(st.sampled_from(tuple(RULES) + EXTRA_PATHS), min_size=1, unique=True)
    )
    return {p: MatchRule(p, draw(st.sampled_from(COMPARATORS))) for p in paths}


# ---------------------------------------------------------------------------
# The tally against the oracle


@settings(max_examples=150, deadline=None)
@given(scoring_sets(), custom_rules() | st.just(RULES))
def test_slot_counts_match_the_oracle(sets, rules):
    alignment = align(*sets)
    assert slot_counts(alignment, rules) == oracle_slot_counts(alignment, rules)


@settings(max_examples=150, deadline=None)
@given(scoring_sets(), custom_rules(), st.data())
def test_structured_accuracy_matches_the_oracle(sets, rules, data):
    # A subset of the rules' paths, repeats allowed: a repeated path counts
    # its slots once per appearance, as the old walk did.
    paths = data.draw(st.lists(st.sampled_from(sorted(rules)), max_size=8))
    alignment = align(*sets)
    warned, oracle_warned = [], []
    accuracy = structured_field_accuracy(
        alignment, rules, paths, lambda c, m: warned.append((c, m))
    )
    expected = oracle_structured_field_accuracy(
        alignment, rules, paths, lambda c, m: oracle_warned.append((c, m))
    )
    assert accuracy == expected
    assert warned == oracle_warned


@settings(max_examples=50, deadline=None)
@given(scoring_sets(), custom_rules())
def test_field_prf_matches_the_oracle_counts(sets, rules):
    alignment = align(*sets)
    tp, fp, fn = oracle_slot_counts(alignment, rules)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    assert field_prf(alignment, rules) == (
        precision,
        recall,
        f1_score(precision, recall),
    )


_RUN_LOGS = st.lists(
    st.fixed_dictionaries(
        {
            "pre_valid": st.booleans(),
            "post_valid": st.booleans(),
            "attempts": st.integers(0, 2),
        }
    ),
    max_size=3,
)


# Key fields: defaults, paths the schema lacks, a path through a leaf, and
# repeats, which count once per appearance in the overall rate.
_KEY_FIELDS = st.just(DEFAULT_KEY_FIELDS) | st.lists(
    st.sampled_from(DEFAULT_KEY_FIELDS + EXTRA_PATHS + ("spatial.lat", "case_id")),
    max_size=5,
)


@settings(max_examples=100, deadline=None)
@given(scoring_sets(), _RUN_LOGS, st.lists(st.floats(0, 2), max_size=3))
def test_build_report_matches_the_oracle(sets, run_log, runtimes):
    # build_report scores with the schema's default rules and key fields;
    # other rules are checked on slot_counts and structured_field_accuracy,
    # other key fields on completeness.
    parsed, gold = sets
    warned, oracle_warned = [], []
    report = build_report(
        parsed,
        GoldSide(gold, SCHEMA),
        run_log=run_log,
        runtimes=runtimes,
        on_warning=lambda c, m: warned.append((c, m)),
    )
    expected = oracle_report(
        parsed, gold, RULES, run_log, runtimes, lambda c, m: oracle_warned.append((c, m))
    )
    assert json.dumps(report._asdict(), sort_keys=True) == json.dumps(
        expected._asdict(), sort_keys=True
    )
    assert warned == oracle_warned


_GEO_VALUES = st.sampled_from((None, "", 0, 0.0, 39.1, True, False, "none", "source_provided"))


@st.composite
def geocoded_records(draw):
    """Records whose spatial section is missing, not a mapping, or a mapping
    holding any mix of the four fields geocode_rates reads."""
    record = draw(messy_records())
    if draw(st.booleans()):
        record["spatial"] = draw(
            _NOT_A_SECTION
            | st.fixed_dictionaries(
                {},
                optional={
                    name: _GEO_VALUES
                    for name in ("lat", "lon", "geocode_method", "geocode_plausible")
                },
            )
        )
    return record


@settings(max_examples=150, deadline=None)
@given(st.lists(geocoded_records() | records(), max_size=6), _KEY_FIELDS)
def test_coverage_matches_the_oracle(parsed, key_fields):
    warned, oracle_warned = [], []
    assert completeness(parsed, key_fields, lambda c, m: warned.append(m)) == (
        oracle_completeness(parsed, key_fields, lambda c, m: oracle_warned.append(m))
    )
    assert geocode_rates(parsed, lambda c, m: warned.append(m)) == oracle_geocode_rates(
        parsed, lambda c, m: oracle_warned.append(m)
    )
    assert warned == oracle_warned


@settings(max_examples=25, deadline=None)
@given(scoring_sets())
def test_default_rules_report_matches_the_oracle(sets):
    parsed, gold = sets
    report = build_report(parsed, GoldSide(gold, SCHEMA), runtimes=[0.1])
    expected = oracle_report(parsed, gold, RULES, (), [0.1], lambda c, m: None)
    assert report._asdict() == expected._asdict()


def test_every_slot_is_compared_at_most_once(monkeypatch):
    gold = [
        {
            "case_id": "A",
            "demographic": {"name": "Avery", "age_years": 30},
            "spatial": {"city": "Dover"},
        }
    ]
    parsed = [
        {
            "case_id": "A",
            "demographic": {"name": "avery", "age_years": 31},
            "spatial": {"city": None},
        }
    ]
    calls = []
    comparators = {
        name: (lambda fn: lambda a, b: calls.append((a, b)) or fn(a, b))(fn)
        for name, fn in metrics._COMPARATOR_FNS.items()
    }
    monkeypatch.setattr(metrics, "_COMPARATOR_FNS", comparators)
    report = build_report(parsed, GoldSide(gold, SCHEMA))
    # case_id, name and age are populated on both sides: three comparisons,
    # though each slot is scored for both F1 and structured accuracy.
    assert sorted(calls, key=repr) == sorted(
        [("A", "A"), ("avery", "Avery"), (31, 30)], key=repr
    )
    assert (report.precision, report.recall) == (2 / 3, 2 / 4)
    assert report.structured_field_accuracy == 2 / 4


# ---------------------------------------------------------------------------
# One gold side for several paths


@settings(max_examples=100, deadline=None)
@given(two_parsed_sets())
def test_one_gold_side_scores_like_fresh_oracle_reports(sets):
    first, second, gold = sets
    side = GoldSide(gold, SCHEMA)
    for parsed in (first, second):
        warned, oracle_warned = [], []
        report = build_report(
            parsed,
            side,
            runtimes=[0.1],
            on_warning=lambda c, m: warned.append((c, m)),
        )
        expected = oracle_report(
            parsed, gold, RULES, (), [0.1], lambda c, m: oracle_warned.append((c, m))
        )
        assert json.dumps(report._asdict(), sort_keys=True) == json.dumps(
            expected._asdict(), sort_keys=True
        )
        assert warned == oracle_warned


class _Record(dict):
    """A dict that a weak reference can point at."""


def test_a_prepared_gold_side_holds_no_gold_record():
    gold = [_Record(case_id="A", demographic={"name": "Avery"}), _Record(spatial={})]
    refs = [weakref.ref(record) for record in gold]
    side = GoldSide(gold, SCHEMA)
    del gold
    # The side keeps only the value rows it built from the records.
    assert [ref() for ref in refs] == [None, None]
    first = build_report([{"case_id": "A", "demographic": {"name": "avery"}}], side)
    second = build_report([{"case_id": "A"}], side)
    assert (first.precision, first.recall) == (1.0, 1.0)
    assert (second.precision, second.recall) == (1.0, 0.5)


def test_a_gold_side_scores_the_paths_of_its_schema():
    gold = [{"case_id": "A", "narrative_osint": {"circumstances": "left on foot"}}]
    parsed = [{"case_id": "A", "narrative_osint": {"circumstances": "took a bus"}}]
    full = build_report(parsed, GoldSide(gold, SCHEMA), runtimes=[0.1])
    narrower = SCHEMA.without_prefix("narrative_osint")
    narrow = build_report(parsed, GoldSide(gold, narrower), runtimes=[0.1])
    # The circumstances mismatch counts only where the schema scores it.
    assert (full.precision, full.recall) == (0.5, 0.5)
    assert (narrow.precision, narrow.recall) == (1.0, 1.0)


# ---------------------------------------------------------------------------
# Equal strings


class _Alias(str):
    """A str whose str() is other text: the comparators read str(value)."""

    def __str__(self):
        return "alias"


_TEXTS = st.text(alphabet="aA \t-:0123456789TZ+", max_size=25)


@settings(max_examples=200, deadline=None)
@given(_TEXTS | _TIMESTAMPS)
def test_equal_plain_strings_compare_as_the_slow_path_does(text):
    # A str subclass skips the early return and takes the slow path.
    slow = type("Slow", (str,), {})
    for compare in (metrics._texts_equal, metrics._timestamps_equal):
        assert compare(text, text) is True
        assert compare(slow(text), slow(text)) is True
    assert metrics._sets_equal([text, text], [text]) is True


def test_equal_strings_in_text_timestamp_and_set_slots_count_as_matches():
    record = {
        "case_id": "A",
        "demographic": {"name": "Avery  Stone"},
        "outcome": {"status_ts": "2023-06-14T10:00:00"},
        "temporal": {"last_seen_ts": "June 14", "reported_missing_ts": "2023-06-14"},
        "narrative_osint": {"movement_cues": ["bus", "Bus", "train"]},
    }
    report = build_report([record], GoldSide([copy.deepcopy(record)], SCHEMA), runtimes=[0.1])
    expected = oracle_report([record], [record], RULES, (), [0.1], lambda c, m: None)
    assert report._asdict() == expected._asdict()
    assert (report.precision, report.recall) == (1.0, 1.0)


def test_equal_nan_strings_in_a_numeric_slot_still_mismatch():
    assert metrics._numbers_equal("nan", "nan") is False
    assert metrics._numbers_equal("NaN", "NaN") is False
    gold = [{"case_id": "A", "demographic": {"age_years": "nan", "age_min": "NaN"}}]
    parsed = copy.deepcopy(gold)
    report = build_report(parsed, GoldSide(gold, SCHEMA), runtimes=[0.1])
    expected = oracle_report(parsed, gold, RULES, (), [0.1], lambda c, m: None)
    assert report._asdict() == expected._asdict()
    # case_id matches; both ages are a false positive and a false negative.
    assert (report.precision, report.recall) == (1 / 3, 1 / 3)


def test_a_str_subclass_takes_the_slow_path():
    # Equal as str, but str() of the alias is other text.
    assert _Alias("x") == "x"
    assert metrics._texts_equal(_Alias("x"), "x") is False
    assert metrics._texts_equal("x", _Alias("x")) is False
    assert metrics._timestamps_equal(_Alias("2023-06-14"), "2023-06-14") is False
    assert metrics._texts_equal(_Alias("x"), _Alias("y")) is True
    gold = [{"case_id": "A", "demographic": {"name": "x"}}]
    parsed = [{"case_id": "A", "demographic": {"name": _Alias("x")}}]
    report = build_report(parsed, GoldSide(gold, SCHEMA), runtimes=[0.1])
    expected = oracle_report(parsed, gold, RULES, (), [0.1], lambda c, m: None)
    assert report._asdict() == expected._asdict()
    assert report.precision == 1 / 2


# ---------------------------------------------------------------------------
# Repeated ids


def _raised(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


@pytest.mark.parametrize("case_id", ["A", 7, ""])
def test_a_repeated_id_raises_as_align_does(case_id):
    twice = [{"case_id": case_id}, {"case_id": case_id}]
    once = [{"case_id": case_id}]
    parsed_error = _raised(align, twice, once)
    assert parsed_error == f"duplicate case_id {case_id!r} in parsed records"
    assert _raised(build_report, twice, GoldSide(once, SCHEMA)) == parsed_error
    gold_error = _raised(align, once, twice)
    assert gold_error == f"duplicate case_id {case_id!r} in gold records"
    # A repeated gold id fails when the side is built, before any report.
    assert _raised(GoldSide, twice, SCHEMA) == gold_error


@pytest.mark.parametrize("case_id", ["A", ["x"]])
def test_align_gold_side_and_report_refuse_an_id_alike(case_id):
    # A repeated id, or a list one, on either side: every entry raises the
    # same ConfigError with the same message.
    bad = [{"case_id": case_id}, {"case_id": case_id}]
    problem = "unhashable" if isinstance(case_id, list) else "duplicate"

    def refused(fn, *args):
        with pytest.raises(ConfigError) as info:
            fn(*args)
        return str(info.value)

    parsed_error = f"{problem} case_id {case_id!r} in parsed records"
    assert refused(align, bad, []) == parsed_error
    assert refused(build_report, bad, GoldSide([], SCHEMA)) == parsed_error
    gold_error = f"{problem} case_id {case_id!r} in gold records"
    assert refused(align, [], bad) == gold_error
    assert refused(GoldSide, bad, SCHEMA) == gold_error
