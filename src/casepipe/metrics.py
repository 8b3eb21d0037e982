"""Run quality metrics: gold-aligned field agreement, coverage, and rates.

Everything here is a pure function of its inputs. Degenerate inputs (no
records, no slots, no samples) get a defined value plus a warning through the
caller's callback instead of a crash, so a thin evaluation run still produces
a complete report. The one exception is runtime_stats, where an empty sample
is a caller bug and raises.

Matching semantics: strings are compared case-folded with whitespace runs
collapsed, numerics numerically, timestamps at the coarser of the two stated
precisions, and movement cues as order-insensitive sets. A value mismatch on
a slot where both sides are populated counts as a false positive and a false
negative at once.

An evaluation scores every path against one ``GoldSide``: the gold records'
values are extracted once, when the side is built, under the schema's default
match rules, and each path's records are then scored in one pass against them
(``build_report``, whose completeness counts ``DEFAULT_KEY_FIELDS``). One
join pairs parsed records with gold rows (``_join``); the scores of an
``AlignmentResult`` join its records again through it.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter, abc
from datetime import date, datetime
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

from casepipe.config import ConfigError
from casepipe.schema import (
    ISO_TIMESTAMP,
    KIND_BOOLEAN,
    KIND_DECIMAL,
    KIND_INTEGER,
    KIND_LIST,
    KIND_SECTION,
    SchemaDefinition,
    parse_iso_timestamp,
)

WarnFn = Callable[[str, str], None]

COMPARATOR_EXACT = "exact_canonical"
COMPARATOR_NUMERIC = "numeric_eq"
COMPARATOR_TIMESTAMP = "timestamp_eq"
COMPARATOR_SET = "set_eq"
COMPARATORS = (
    COMPARATOR_EXACT,
    COMPARATOR_NUMERIC,
    COMPARATOR_TIMESTAMP,
    COMPARATOR_SET,
)

# Free-prose appearance fields carry no stable answer to score against.
# The circumstances narrative stays scored: capturing it is part of the job.
_UNSCORED_PROSE = (
    "narrative_osint.clothing_description",
    "narrative_osint.distinctive_features",
)

DEFAULT_KEY_FIELDS = (
    "demographic.name",
    "spatial.city",
    "temporal.last_seen_ts",
    "outcome.status",
)


class _RuleFields(NamedTuple):
    field_path: str
    comparator: str


class MatchRule(_RuleFields):
    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> MatchRule:
        self = super().__new__(cls, *args, **kwargs)
        if self.comparator not in COMPARATORS:
            raise ConfigError(
                f"{self.field_path}: unknown comparator {self.comparator!r}"
            )
        return self


class AlignmentResult(NamedTuple):
    """Case-id join of parsed records against gold records."""

    pairs: tuple[tuple[dict, dict], ...]
    unmatched_parsed: tuple[dict, ...]
    unmatched_gold: tuple[dict, ...]

    @property
    def unmatched_parsed_ids(self) -> tuple[Any, ...]:
        return tuple(r.get("case_id") for r in self.unmatched_parsed)

    @property
    def unmatched_gold_ids(self) -> tuple[Any, ...]:
        return tuple(r.get("case_id") for r in self.unmatched_gold)


def is_nullish(value: Any) -> bool:
    """None, empty text, and empty containers all mean "no answer"."""
    if value is None or value == "":
        return True
    return isinstance(value, (list, dict)) and not value


def get_path(record: Mapping[str, Any] | None, path: str) -> Any:
    return _lookup(record, path.split("."))


def _lookup(node: Any, segments: Sequence[str]) -> Any:
    """get_path over a pre-split path."""
    for segment in segments:
        # The exact-type test spares plain dicts typing's slow isinstance.
        if type(node) is not dict and not isinstance(node, abc.Mapping):
            return None
        node = node.get(segment)
    return node


def scored_paths(schema: SchemaDefinition) -> tuple[str, ...]:
    return tuple(
        entry.field_path
        for entry in schema.entries
        if entry.kind != KIND_SECTION
        and not entry.field_path.startswith("provenance.")
        and entry.field_path not in _UNSCORED_PROSE
    )


def structured_paths(schema: SchemaDefinition) -> tuple[str, ...]:
    return tuple(
        p for p in scored_paths(schema) if p != "narrative_osint.circumstances"
    )


def default_match_rules(schema: SchemaDefinition) -> dict[str, MatchRule]:
    scored = set(scored_paths(schema))
    rules = {}
    for entry in schema.entries:
        if entry.field_path not in scored:
            continue
        if entry.pattern == ISO_TIMESTAMP:
            comparator = COMPARATOR_TIMESTAMP
        elif entry.kind == KIND_LIST:
            comparator = COMPARATOR_SET
        elif entry.kind in (KIND_INTEGER, KIND_DECIMAL, KIND_BOOLEAN):
            comparator = COMPARATOR_NUMERIC
        else:
            comparator = COMPARATOR_EXACT
        rules[entry.field_path] = MatchRule(entry.field_path, comparator)
    return rules


# ---------------------------------------------------------------------------
# Value comparison


def _canonical_text(value: Any) -> str:
    return " ".join(str(value).split()).casefold()


def _numbers_equal(a: Any, b: Any) -> bool:
    try:
        return float(a) == float(b)
    except (TypeError, ValueError):
        return a == b


def _as_date(value: date | datetime) -> date:
    return value.date() if isinstance(value, datetime) else value


def _timestamps_equal(a: Any, b: Any) -> bool:
    # Two equal plain strings parse alike, or fall back to equal text.
    if a.__class__ is str and b.__class__ is str and a == b:
        return True
    parsed_a = parse_iso_timestamp(str(a).strip())
    parsed_b = parse_iso_timestamp(str(b).strip())
    if parsed_a is None or parsed_b is None:
        return _canonical_text(a) == _canonical_text(b)
    value_a, precision_a = parsed_a
    value_b, precision_b = parsed_b
    if precision_a == "date" or precision_b == "date":
        return _as_date(value_a) == _as_date(value_b)
    if (value_a.tzinfo is None) != (value_b.tzinfo is None):
        return False
    return value_a == value_b


def _sets_equal(a: Any, b: Any) -> bool:
    list_a = a if isinstance(a, list) else [a]
    list_b = b if isinstance(b, list) else [b]
    return {_canonical_text(x) for x in list_a} == {_canonical_text(x) for x in list_b}


def _texts_equal(a: Any, b: Any) -> bool:
    if a.__class__ is str and b.__class__ is str and a == b:
        return True
    return _canonical_text(a) == _canonical_text(b)


_COMPARATOR_FNS: dict[str, Callable[[Any, Any], bool]] = {
    COMPARATOR_EXACT: _texts_equal,
    COMPARATOR_NUMERIC: _numbers_equal,
    COMPARATOR_TIMESTAMP: _timestamps_equal,
    COMPARATOR_SET: _sets_equal,
}


def values_match(rule: MatchRule, parsed_value: Any, gold_value: Any) -> bool:
    return _COMPARATOR_FNS[rule.comparator](parsed_value, gold_value)


# ---------------------------------------------------------------------------
# Alignment


def _index(
    records: Iterable[Mapping[str, Any]], side: str, value: Callable[[Mapping], Any]
) -> tuple[dict[Any, Any], list[Any]]:
    """``value`` of each of the ``side`` records, keyed by its ``case_id``,
    and of the records without one, in order. A repeated or unhashable id
    is a ConfigError (``_check_new_id``)."""
    by_id: dict[Any, Any] = {}
    anonymous = []
    for record in records:
        case_id = record.get("case_id")
        if case_id is None:
            anonymous.append(value(record))
        else:
            _check_new_id(case_id, by_id, side)
            by_id[case_id] = value(record)
    return by_id, anonymous


def _check_new_id(case_id: Any, seen: abc.Container, side: str) -> None:
    """Refuse, as a ConfigError, a ``case_id`` already ``seen`` among the
    ``side`` records, or one that cannot be looked up, such as a list."""
    try:
        repeated = case_id in seen
    except TypeError:
        raise ConfigError(f"unhashable case_id {case_id!r} in {side} records") from None
    if repeated:
        raise ConfigError(f"duplicate case_id {case_id!r} in {side} records")


def align(
    parsed: Iterable[Mapping[str, Any]], gold: Iterable[Mapping[str, Any]]
) -> AlignmentResult:
    """Join copies of the parsed records to the gold records on exact
    case_id, the pairs in gold order."""
    parsed_by_id, parsed_anonymous = _index(parsed, "parsed", dict)
    gold_by_id, gold_anonymous = _index(gold, "gold", dict)
    pairs, unmatched_gold = [], []
    for case_id, gold_record in gold_by_id.items():
        parsed_record = parsed_by_id.pop(case_id, None)
        if parsed_record is None:
            unmatched_gold.append(gold_record)
        else:
            pairs.append((parsed_record, gold_record))
    return AlignmentResult(
        pairs=tuple(pairs),
        unmatched_parsed=(*parsed_by_id.values(), *parsed_anonymous),
        unmatched_gold=(*unmatched_gold, *gold_anonymous),
    )


# ---------------------------------------------------------------------------
# Field-level precision / recall


def _require_rules(rules: Mapping[str, MatchRule], paths: Sequence[str]) -> None:
    missing = [p for p in paths if p not in rules]
    if missing:
        raise ConfigError(f"no match rule for scored fields: {', '.join(missing)}")


class _ScoringPlan:
    """Each rule's path pre-split, with its comparator looked up once.

    Paths are grouped by their first segment, so a record's section is looked
    up once for all the fields under it; ``checks`` follows the order in which
    ``values`` yields them. A group whose paths all end one segment below the
    section also keeps those leaf names, read in one ``map`` when the section
    is a plain dict. A check's weight counts how often its path appears among
    the structured paths, so one walk over the slots yields both the field
    counts and the structured accuracy.
    """

    __slots__ = ("groups", "checks")

    def __init__(
        self, rules: Mapping[str, MatchRule], structured: Sequence[str] = ()
    ) -> None:
        weights = Counter(structured)
        groups: dict[str, list] = {}
        for path, rule in rules.items():
            head, *tail = path.split(".")
            check = (_COMPARATOR_FNS[rule.comparator], weights[path])
            groups.setdefault(head, []).append((tuple(tail), check))
        self.groups = []
        for head, leaves in groups.items():
            tails = [tail for tail, _ in leaves]
            names = [tail[0] for tail in tails if len(tail) == 1]
            if len(names) < len(tails):
                names = None
            self.groups.append((head, tails, names))
        self.checks = [check for leaves in groups.values() for _, check in leaves]

    def values(self, record: Mapping[str, Any]) -> list[Any]:
        """The record's value at each path, None wherever it is nullish."""
        row: list[Any] = []
        for head, tails, names in self.groups:
            section = record.get(head)
            if names is not None and type(section) is dict:
                row += map(section.get, names)
                continue
            for tail in tails:
                # get_path, inlined: this loop visits every slot.
                node = section
                for segment in tail:
                    if type(node) is not dict and not isinstance(node, abc.Mapping):
                        node = None
                        break
                    node = node.get(segment)
                row.append(node)
        # is_nullish; of JSON values, only a falsy one can be nullish.
        return [
            None
            if not value and (value == "" or isinstance(value, (list, dict)))
            else value
            for value in row
        ]


class _Tally:
    """Slot counts, added up one parsed record at a time.

    A record is counted against its gold row (see ``_ScoringPlan.values``),
    or against none when no gold record has its id; a gold row that no
    record matched is counted on its own. Each slot populated on both sides
    is compared once, and the plan's weights turn the same walk into the
    structured accuracy.
    """

    __slots__ = ("plan", "tp", "fp", "fn", "slots", "matches")

    def __init__(self, plan: _ScoringPlan) -> None:
        self.plan = plan
        self.tp = self.fp = self.fn = self.slots = self.matches = 0

    def add(self, parsed_record: Mapping[str, Any], gold_row: list[Any] | None) -> None:
        parsed_row = self.plan.values(parsed_record)
        if gold_row is None:
            self.fp += sum(1 for value in parsed_row if value is not None)
            return
        tp = fp = fn = slots = matches = 0
        for parsed_value, gold_value, (compare, weight) in zip(
            parsed_row, gold_row, self.plan.checks
        ):
            if gold_value is None:
                if parsed_value is not None:
                    fp += 1
                continue
            slots += weight
            if parsed_value is None:
                fn += 1
            elif compare(parsed_value, gold_value):
                tp += 1
                matches += weight
            else:
                fp += 1
                fn += 1
        self.tp += tp
        self.fp += fp
        self.fn += fn
        self.slots += slots
        self.matches += matches

    def miss(self, gold_row: list[Any]) -> None:
        for gold_value, (_, weight) in zip(gold_row, self.plan.checks):
            if gold_value is not None:
                self.fn += 1
                self.slots += weight


def _join(
    parsed: Iterable[Mapping[str, Any]],
    plan: _ScoringPlan,
    rows: Mapping[Any, list[Any]],
    anonymous: Iterable[list[Any]],
    coverage: _Coverage | None = None,
) -> _Tally:
    """The one join of parsed records to gold, tallied.

    The parsed records are walked once, in order and without copies: each
    is counted into ``coverage``, if given, checked for a repeated or
    unhashable ``case_id`` (``_check_new_id``) and tallied against the gold
    row of its id in ``rows``, or as unmatched when there is none. Gold rows
    that no record matched, and the ``anonymous`` ones, count as missed.
    """
    tally = _Tally(plan)
    seen = set()
    for record in parsed:
        if coverage is not None:
            coverage.add(record)
        case_id = record.get("case_id")
        if case_id is not None:
            _check_new_id(case_id, seen, "parsed")
            seen.add(case_id)
        tally.add(record, rows.get(case_id))
    for case_id, row in rows.items():
        if case_id not in seen:
            tally.miss(row)
    for row in anonymous:
        tally.miss(row)
    return tally


def _tally_alignment(alignment: AlignmentResult, plan: _ScoringPlan) -> _Tally:
    """An alignment's records, joined again through ``_join``."""
    gold = [record for _, record in alignment.pairs] + list(alignment.unmatched_gold)
    parsed = [record for record, _ in alignment.pairs] + list(alignment.unmatched_parsed)
    return _join(parsed, plan, *_index(gold, "gold", plan.values))


def slot_counts(
    alignment: AlignmentResult, rules: Mapping[str, MatchRule]
) -> tuple[int, int, int]:
    """(true positives, false positives, false negatives) over all slots."""
    tally = _tally_alignment(alignment, _ScoringPlan(rules))
    return tally.tp, tally.fp, tally.fn


def f1_score(precision: float, recall: float) -> float:
    if precision + recall <= 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def _prf(tally: _Tally) -> tuple[float, float, float]:
    tp, fp, fn = tally.tp, tally.fp, tally.fn
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return precision, recall, f1_score(precision, recall)


def _accuracy(tally: _Tally, on_warning: WarnFn | None) -> float:
    if tally.slots == 0:
        if on_warning is not None:
            on_warning("degenerate_metric", "no gold-populated structured slots")
        return 0.0
    return tally.matches / tally.slots


def field_prf(
    alignment: AlignmentResult, rules: Mapping[str, MatchRule]
) -> tuple[float, float, float]:
    """Micro-averaged precision, recall, and F1 over every scored slot."""
    return _prf(_tally_alignment(alignment, _ScoringPlan(rules)))


def structured_field_accuracy(
    alignment: AlignmentResult,
    rules: Mapping[str, MatchRule],
    paths: Sequence[str],
    on_warning: WarnFn | None = None,
) -> float:
    """Share of gold-populated structured slots the parsed side got right."""
    _require_rules(rules, paths)
    plan = _ScoringPlan({path: rules[path] for path in paths}, paths)
    return _accuracy(_tally_alignment(alignment, plan), on_warning)


# ---------------------------------------------------------------------------
# Coverage and rate metrics


class _Coverage:
    """Completeness and geocode counts, added up one parsed record at a time."""

    __slots__ = (
        "key_fields",
        "key_paths",
        "records",
        "populated",
        "needing",
        "resolved",
        "with_coords",
        "plausible",
    )

    def __init__(self, key_fields: Sequence[str]) -> None:
        self.key_fields = tuple(key_fields)
        self.key_paths = [tuple(field.split(".")) for field in self.key_fields]
        self.records = 0
        self.populated = [0] * len(self.key_fields)
        self.needing = self.resolved = self.with_coords = self.plausible = 0

    def add(self, record: Mapping[str, Any]) -> None:
        self.records += 1
        populated = self.populated
        for i, segments in enumerate(self.key_paths):
            if not is_nullish(_lookup(record, segments)):
                populated[i] += 1
        # get_path(record, "spatial.<name>") for the four names, with the
        # section looked up once.
        spatial = _lookup(record, ("spatial",))
        if type(spatial) is not dict and not isinstance(spatial, abc.Mapping):
            spatial = {}
        has_coords = spatial.get("lat") is not None and spatial.get("lon") is not None
        if spatial.get("geocode_method") != "source_provided":
            self.needing += 1
            self.resolved += has_coords
        if has_coords:
            self.with_coords += 1
            self.plausible += spatial.get("geocode_plausible") is True

    def completeness(self, on_warning: WarnFn | None) -> tuple[float, dict[str, float]]:
        count = self.records
        if not count or not self.key_fields:
            if on_warning is not None:
                on_warning("degenerate_metric", "completeness over an empty sample")
            return 0.0, {field: 0.0 for field in self.key_fields}
        by_field = {field: n / count for field, n in zip(self.key_fields, self.populated)}
        overall = sum(self.populated) / (count * len(self.key_fields))
        return overall, by_field

    def geocode_rates(self, on_warning: WarnFn | None) -> tuple[float, float]:
        success = self.resolved / self.needing if self.needing else 1.0
        if self.with_coords:
            plausible = self.plausible / self.with_coords
        else:
            if on_warning is not None:
                on_warning("degenerate_metric", "no records carry coordinates")
            plausible = 0.0
        return success, plausible


def _coverage(records: Iterable[Mapping[str, Any]], key_fields: Sequence[str]) -> _Coverage:
    coverage = _Coverage(key_fields)
    for record in records:
        coverage.add(record)
    return coverage


def completeness(
    records: Iterable[Mapping[str, Any]],
    key_fields: Sequence[str] = DEFAULT_KEY_FIELDS,
    on_warning: WarnFn | None = None,
) -> tuple[float, dict[str, float]]:
    """Fraction of (record, key field) slots that carry an answer."""
    return _coverage(records, key_fields).completeness(on_warning)


def geocode_rates(
    records: Iterable[Mapping[str, Any]],
    on_warning: WarnFn | None = None,
) -> tuple[float, float]:
    """(success among records needing geocoding, plausibility among coords)."""
    return _coverage(records, ()).geocode_rates(on_warning)


def repair_stats(
    run_log: Iterable[Mapping[str, Any]],
    on_warning: WarnFn | None = None,
) -> tuple[float, float, float]:
    """(pre-repair pass rate, post-repair pass rate, repair attempt rate)."""
    entries = list(run_log)
    if not entries:
        if on_warning is not None:
            on_warning("degenerate_metric", "repair stats over an empty run log")
        return 1.0, 1.0, 0.0
    count = len(entries)
    pre = sum(1 for e in entries if e["pre_valid"]) / count
    post = sum(1 for e in entries if e["post_valid"]) / count
    repaired = sum(1 for e in entries if e["attempts"] >= 1) / count
    return pre, post, repaired


def runtime_stats(per_record_seconds: Iterable[float]) -> tuple[float, float]:
    """(mean, nearest-rank 95th percentile) of per-record runtimes."""
    values = sorted(float(v) for v in per_record_seconds)
    if not values:
        raise ValueError("runtime_stats needs a non-empty sample")
    rank = max(1, math.ceil(0.95 * len(values)))
    return statistics.fmean(values), values[rank - 1]


# ---------------------------------------------------------------------------
# Report assembly


class _ReportFields(NamedTuple):
    precision: float
    recall: float
    f1: float
    structured_field_accuracy: float
    completeness_overall: float
    completeness_by_field: Mapping[str, float]
    geocode_success_rate: float
    geocode_plausible_rate: float
    pre_pass_rate: float
    post_pass_rate: float
    repair_rate: float
    runtime_mean_s: float
    runtime_p95_s: float
    record_count: int


# The report fields that are not one number; of the others, all but the
# runtime_* fields are rates in [0, 1].
_NOT_SCALAR = ("completeness_by_field", "record_count")


class MetricsReport(_ReportFields):
    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> MetricsReport:
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            if name in _NOT_SCALAR or name.startswith("runtime_"):
                continue
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} out of range: {value}")
        if self.f1 != f1_score(self.precision, self.recall):
            raise ValueError("f1 does not match its precision/recall")
        return self


class GoldSide:
    """The gold records of one evaluation, prepared once for every path:
    each record's value row under the schema's default match rules, indexed
    by ``_index`` as it is read. The side keeps the rows, not the records."""

    __slots__ = ("plan", "rows", "anonymous")

    def __init__(
        self, records: Iterable[Mapping[str, Any]], schema: SchemaDefinition
    ) -> None:
        self.plan = _ScoringPlan(default_match_rules(schema), structured_paths(schema))
        self.rows, self.anonymous = _index(records, "gold", self.plan.values)


def build_report(
    parsed: Iterable[Mapping[str, Any]],
    gold: GoldSide,
    *,
    run_log: Iterable[Mapping[str, Any]] = (),
    runtimes: Iterable[float] = (),
    on_warning: WarnFn | None = None,
) -> MetricsReport:
    """Score one path's parsed records against the gold side, joined by
    ``_join``, which also counts them into coverage."""
    coverage = _Coverage(DEFAULT_KEY_FIELDS)
    tally = _join(parsed, gold.plan, gold.rows, gold.anonymous, coverage)
    precision, recall, f1 = _prf(tally)
    accuracy = _accuracy(tally, on_warning)
    overall, by_field = coverage.completeness(on_warning)
    success, plausible = coverage.geocode_rates(on_warning)
    pre, post, repaired = repair_stats(run_log, on_warning)
    runtime_values = list(runtimes)
    if runtime_values:
        mean_s, p95_s = runtime_stats(runtime_values)
    else:
        if on_warning is not None:
            on_warning("degenerate_metric", "no runtime samples recorded")
        mean_s = p95_s = 0.0
    return MetricsReport(
        precision=precision,
        recall=recall,
        f1=f1,
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
        record_count=coverage.records,
    )


def format_report(reports: Mapping[str, MetricsReport], config_digest: str) -> str:
    """Aligned side-by-side table, one column per labeled report."""
    labels = list(reports)
    rows: list[tuple[str, list[str]]] = []

    def add(name: str, values: list[Any], fmt: str = "{:.4f}") -> None:
        rows.append((name, [fmt.format(v) for v in values]))

    for field in _ReportFields._fields:
        if field not in _NOT_SCALAR:
            add(field, [getattr(reports[label], field) for label in labels])
    add("record_count", [reports[label].record_count for label in labels], "{}")
    key_fields = sorted(
        {f for label in labels for f in reports[label].completeness_by_field}
    )
    for field in key_fields:
        add(
            f"completeness[{field}]",
            [reports[label].completeness_by_field.get(field, 0.0) for label in labels],
        )

    name_width = max(len("metric"), max(len(name) for name, _ in rows))
    widths = [
        max(len(label), max(len(values[i]) for _, values in rows))
        for i, label in enumerate(labels)
    ]
    lines = [f"run config digest: {config_digest}", ""]
    header = "  ".join(
        ["metric".ljust(name_width)] + [l.rjust(w) for l, w in zip(labels, widths)]
    )
    lines.append(header)
    lines.append("-" * len(header))
    for name, values in rows:
        lines.append(
            "  ".join(
                [name.ljust(name_width)]
                + [v.rjust(w) for v, w in zip(values, widths)]
            )
        )
    return "\n".join(lines) + "\n"
