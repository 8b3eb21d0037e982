"""Equivalence of the rule path's pruned and compiled walks with the plain
per-call forms they replace.

``detect_source`` stops searching a signature's markers once it can no
longer qualify or win; ``dispatch`` strips the end sentinel and splits the
lines once per segment, and a line rule with a literal prefix searches only
the lines that start with it; ``harmonize`` runs a plan compiled once per
mapping table; the CSV cell flattener writes lists and maps of scalars in
place; the JSONL and CSV writers write the text a RecordBuffer encoded when
each record's leaf map was added (``RecordBuffer.add``).
Each must give exactly what the plain walk gives: the same detection, the
same draft candidates in the same order, the same harmonized record, trace
and warnings in order, the same cells, the same bytes. The plain versions
are kept in this file as oracles.
"""

from __future__ import annotations

import csv
import math
import re
from operator import itemgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from casepipe import emit
from casepipe import rules as rules_module
from casepipe.config import ConfigError, bundled_path
from casepipe.extract import CaseSegment
from casepipe.harmonize import (
    TRANSFORM_CUES,
    TRANSFORM_HEIGHT,
    TRANSFORM_NONE,
    TRANSFORM_PLACE,
    TRANSFORM_SEX,
    TRANSFORM_STATUS,
    TRANSFORM_TIMESTAMP,
    TRANSFORM_WEIGHT,
    HarmonizedRecord,
    MappingTable,
    _apply_defaults,
    _coerce,
    _cue_values,
    _sex_value,
    _status_value,
    harmonize,
    identity_table,
    load_mapping_dir,
    normalize_height,
    normalize_timestamp,
    normalize_weight,
    parse_place_parts,
)
from casepipe.rules import (
    END_SENTINEL,
    FAMILY_BULLETIN,
    FAMILY_NARRATIVE,
    FAMILY_REGISTRY,
    SCOPE_DOCUMENT,
    SCOPE_LINE,
    SCOPE_SECTION,
    DraftRecord,
    FieldCandidate,
    LabelRule,
    apply_rules,
    dispatch,
    extract_movement_cues,
    load_rulesets,
    strip_sentinel,
)
from casepipe.schema import (
    LeafMap,
    assemble_record,
    default_schema,
    flatten_leaves,
    record_leaves,
)
from casepipe.sources import (
    UNKNOWN_DETECTION,
    DetectionResult,
    SourceSignature,
    detect_source,
    load_signatures,
)
from recordgen import records

SCHEMA = default_schema()
NO_DEMOGRAPHIC = SCHEMA.without_prefix("demographic")
SIGNATURES = load_signatures(bundled_path("signatures.jsonl"))
RULESETS = load_rulesets(bundled_path("rulesets"))
MAPPINGS = load_mapping_dir(bundled_path("mappings"), SCHEMA)


def _outcome(fn, *args, **kwargs):
    """What a call returns, or the type and text of what it raises."""
    try:
        return ("ok", fn(*args, **kwargs))
    except (ConfigError, KeyError, TypeError, ValueError) as exc:
        return ("raised", type(exc), str(exc))


# ---------------------------------------------------------------------------
# Source detection


def _oracle_detect(text, signatures):
    best = None
    best_result = None
    for sig in signatures:
        hits = sig.match(text)
        score = len(hits)
        if score < sig.min_markers:
            continue
        rank = (-score, sig.priority, sig.source_label)
        if best is None or rank < best:
            best = rank
            best_result = DetectionResult(sig.source_label, sig.family, tuple(hits), score)
    return best_result if best_result is not None else UNKNOWN_DETECTION


_WORDS = ("alpha", "Beta", "gamma", "delta", "eps")
_MARKERS = ("^alpha", "beta", r"\bgamma\b", "delta$", "^eps:", "alpha beta", "zeta")


@st.composite
def signatures(draw):
    count = draw(st.integers(0, 5))
    sigs = []
    for _ in range(count):
        markers = tuple(draw(st.lists(st.sampled_from(_MARKERS), min_size=1, max_size=4)))
        sigs.append(
            SourceSignature(
                # Few labels and priorities, so ties and even duplicate
                # (priority, label) pairs come up.
                source_label=draw(st.sampled_from(("s1", "s2", "s3"))),
                family=draw(st.sampled_from((FAMILY_REGISTRY, FAMILY_BULLETIN, FAMILY_NARRATIVE))),
                markers=markers,
                min_markers=draw(st.integers(1, len(markers))),
                priority=draw(st.sampled_from((10, 20, 20))),
                case_sensitive=draw(st.booleans()),
            )
        )
    return sigs


_DOC_TEXTS = st.lists(
    st.sampled_from(_WORDS + ("eps:", "\n", " ", "alpha beta", "ALPHA")), max_size=12
).map("".join)


@settings(max_examples=400, deadline=None)
@given(signatures(), _DOC_TEXTS, st.randoms(use_true_random=False))
def test_detect_matches_full_search(sigs, text, rng):
    assert detect_source(text, sigs) == _oracle_detect(text, sigs)
    shuffled = list(sigs)
    rng.shuffle(shuffled)
    assert detect_source(text, shuffled) == _oracle_detect(text, shuffled)
    assert detect_source(text, iter(shuffled)) == _oracle_detect(text, shuffled)


class _CountingPattern:
    """A compiled marker that records the label of each search."""

    def __init__(self, pattern, label, searched):
        self.pattern, self.label, self.searched = pattern, label, searched

    def search(self, text):
        self.searched.append(self.label)
        return self.pattern.search(text)


def test_detect_prunes_signatures_that_cannot_win(monkeypatch):
    searched = []
    for sig in SIGNATURES:
        counting = tuple(_CountingPattern(p, sig.source_label, searched) for p in sig._compiled)
        monkeypatch.setitem(sig.__dict__, "_compiled", counting)
    registry, bulletin, narrative = SIGNATURES
    text = "MISSING PERSONS REGISTRY\nRegistry Case Number: 1\nCircumstances of Disappearance:\n"
    result = detect_source(text, SIGNATURES)
    assert result.source_label == registry.source_label and result.score == 3
    # No other signature can score above 3, and each ranks after the
    # registry form on a tie, so none of their markers is searched.
    assert searched == [registry.source_label] * 3
    searched.clear()
    # Reversed, the narrative profile and then the bulletin each miss their
    # first two markers, after which the third cannot make them qualify.
    reversed_result = detect_source(text, SIGNATURES[::-1])
    assert searched == [narrative.source_label] * 2 + [bulletin.source_label] * 2 + [
        registry.source_label
    ] * 3
    assert reversed_result == result == _oracle_detect(text, SIGNATURES)


@pytest.mark.parametrize("doc", ["registry", "bulletin", "narrative", "none"])
def test_detect_on_each_bundled_family(doc):
    texts = {
        "registry": "MISSING PERSONS REGISTRY\nRegistry Case Number: 7\n",
        "bulletin": "MISSING PERSON BULLETIN\nBulletin No: 4\nLAST SEEN: 1/2/2023\n",
        "narrative": "CASE PROFILE: Ann\nAnn was last seen in Dover.\n",
        "none": "nothing to see",
    }
    for order in (SIGNATURES, SIGNATURES[::-1]):
        assert detect_source(texts[doc], order) == _oracle_detect(texts[doc], order)


# ---------------------------------------------------------------------------
# Rule dispatch


def _oracle_iter_matches(rule, text):
    if rule.scope == SCOPE_LINE:
        offset = 0
        for line in text.split("\n"):
            m = rule.compiled.search(line)
            if m is not None:
                yield m, offset
            offset += len(line) + 1
    else:
        for m in rule.compiled.finditer(text):
            yield m, 0


def _oracle_apply_rules(segment, rules, source_label, on_warning=None):
    text = strip_sentinel(segment.text)
    draft = DraftRecord(source_label=source_label, segment_index=segment.segment_index)
    for rule in rules:
        for m, offset in _oracle_iter_matches(rule, text):
            raw = m.group(1)
            if raw is None or not raw.strip():
                continue
            start, end = offset + m.start(1), offset + m.end(1)
            existing = draft.candidates.get(rule.field_path)
            if existing is not None:
                if on_warning is not None:
                    on_warning(
                        "duplicate_field_match",
                        f"{rule.field_path}: rule {rule.pattern_id} matched again at "
                        f"offset {start}; keeping value from {existing.pattern_id}",
                    )
                continue
            draft.candidates[rule.field_path] = FieldCandidate(
                field_path=rule.field_path,
                raw_value=raw.strip(),
                pattern_id=rule.pattern_id,
                char_start=start,
                char_end=end,
            )
    return draft


def _oracle_dispatch(detection, segment, rulesets, on_warning=None):
    family = detection.family
    if family in (FAMILY_REGISTRY, FAMILY_BULLETIN, FAMILY_NARRATIVE):
        rules = rulesets.get(family)
        if rules is None:
            raise ConfigError(f"no ruleset configured for family {family!r}")
    else:
        if on_warning is not None:
            on_warning(
                "unknown_source_fallback",
                f"source {detection.source_label!r} has no family; using generic "
                "registry rules",
            )
        rules = rulesets.get(FAMILY_REGISTRY, ())
    draft = _oracle_apply_rules(segment, rules, detection.source_label, on_warning)
    if family == FAMILY_NARRATIVE:
        for candidate in extract_movement_cues(strip_sentinel(segment.text)):
            draft.candidates[candidate.field_path] = candidate
    return draft


# Extra rules: every scope, an optional group that can be None, a blank
# capture, a pattern that can match an empty line, and a field path shared
# with a bundled rule so duplicate_field_match fires.
_EXTRA_RULES = [
    LabelRule("x_opt", "extra.opt", r"^Sex:(\s*X)?", SCOPE_LINE),
    LabelRule("x_blank", "extra.blank", r"^Height:(\s*)", SCOPE_LINE),
    LabelRule("x_empty_line", "extra.empty", r"^()$", SCOPE_LINE),
    LabelRule("x_section", "demographic.name", r"^Name block:\s*\n(.+?)\n\n", SCOPE_SECTION),
    LabelRule("x_doc", "extra.doc", r"(\d{5})", SCOPE_DOCUMENT),
    LabelRule("x_again", "demographic.sex", r"Sex:\s*(\w+)", SCOPE_DOCUMENT),
]

_LINES = (
    "MISSING PERSONS REGISTRY",
    "Full Name: Jane Doe",
    "Full Name: Second Name",
    "Sex: F",
    "Sex:",
    "Sex: X",
    "Height: 5' 6\"",
    "Height:   ",
    "Age at Disappearance: 14",
    "Last Seen Location: Dover, DE 19901",
    "Case Status: missing",
    "Circumstances of Disappearance:",
    "She left home after school.",
    "Name block:",
    "MISSING: John Roe (M, 12)",
    "LAST SEEN: 1/2/2023 near Salem, OR",
    "HEIGHT/WEIGHT: 4'8\" / 90 lbs",
    "CASE PROFILE: Ann Lee",
    "Ann Lee, 15, was last seen on June 1, 2023 in Dover, Delaware. She was wearing a red coat.",
    "He is believed to be en route to Maryland or Delaware.",
    "Status: located",
    END_SENTINEL,
    "gold marker after the sentinel",
    "",
    "\r",
    "  ",
)


@st.composite
def segment_texts(draw):
    lines = draw(st.lists(st.sampled_from(_LINES), max_size=14))
    newline = draw(st.sampled_from(("\n", "\r\n", "\n\n\n")))
    text = newline.join(lines)
    if draw(st.booleans()):
        text += "\n"
    if draw(st.booleans()):
        # The sentinel in the middle of a line, not only on its own.
        cut = draw(st.integers(0, len(text)))
        text = text[:cut] + END_SENTINEL + text[cut:]
    return text


_DETECTIONS = st.sampled_from(
    [
        DetectionResult("missing_persons_registry", FAMILY_REGISTRY, (), 2),
        DetectionResult("police_bulletin", FAMILY_BULLETIN, (), 2),
        DetectionResult("case_profile_site", FAMILY_NARRATIVE, (), 2),
        UNKNOWN_DETECTION,
    ]
)
_RULESETS = st.sampled_from(
    [
        RULESETS,
        {family: rules + _EXTRA_RULES for family, rules in RULESETS.items()},
        {family: _EXTRA_RULES[::-1] for family in RULESETS},
        {FAMILY_BULLETIN: RULESETS[FAMILY_BULLETIN]},
    ]
)


def _draft_state(outcome):
    if outcome[0] != "ok":
        return outcome
    draft = outcome[1]
    return draft.source_label, draft.segment_index, list(draft.candidates.items())


@settings(max_examples=400, deadline=None)
@given(segment_texts(), _DETECTIONS, _RULESETS, st.integers(0, 3))
def test_dispatch_matches_per_rule_split(text, detection, rulesets, index):
    segment = CaseSegment(index, text, 0, len(text))
    warned, oracle_warned = [], []
    new = _outcome(dispatch, detection, segment, rulesets, lambda c, m: warned.append((c, m)))
    old = _outcome(
        _oracle_dispatch, detection, segment, rulesets, lambda c, m: oracle_warned.append((c, m))
    )
    assert _draft_state(new) == _draft_state(old)
    assert warned == oracle_warned


def test_cues_after_the_sentinel_are_not_read():
    text = "CASE PROFILE: Ann\nen route to Salem\n" + END_SENTINEL + " en route to Dover\n"
    segment = CaseSegment(0, text, 0, len(text))
    detection = DetectionResult("case_profile_site", FAMILY_NARRATIVE, (), 2)
    draft = dispatch(detection, segment, RULESETS)
    assert [c.raw_value for c in draft.candidates.values() if c.pattern_id == "movement_cue"] == [
        "Salem"
    ]
    assert _draft_state(("ok", draft)) == _draft_state(
        ("ok", _oracle_dispatch(detection, segment, RULESETS))
    )


@settings(max_examples=200, deadline=None)
@given(segment_texts(), st.sampled_from(sorted(RULESETS)), st.booleans())
def test_apply_rules_matches_per_rule_split(text, family, extra):
    rules = RULESETS[family] + (_EXTRA_RULES if extra else [])
    segment = CaseSegment(1, text, 0, len(text))
    warned, oracle_warned = [], []
    new = apply_rules(segment, rules, "label", lambda c, m: warned.append((c, m)))
    old = _oracle_apply_rules(segment, rules, "label", lambda c, m: oracle_warned.append((c, m)))
    assert _draft_state(("ok", new)) == _draft_state(("ok", old))
    assert warned == oracle_warned
    assert apply_rules(segment, rules, "label").candidates == old.candidates


def _parent_apply(text, rules, source_label, segment_index, on_warning):
    """``rules._apply`` before line rules were indexed by literal prefix:
    every line-scope rule searches every line."""
    lines = []
    offset = 0
    for line in text.split("\n"):
        lines.append((line, offset))
        offset += len(line) + 1
    draft = DraftRecord(source_label=source_label, segment_index=segment_index)
    candidates = draft.candidates
    for rule in rules:
        compiled = rule.compiled
        if rule.scope == SCOPE_LINE:
            search = compiled.search
            matches = []
            for line, offset in lines:
                m = search(line)
                if m is not None:
                    matches.append((m, offset))
        else:
            matches = [(m, 0) for m in compiled.finditer(text)]
        for m, offset in matches:
            raw = m.group(1)
            if raw is None or not raw.strip():
                continue
            start, end = offset + m.start(1), offset + m.end(1)
            existing = candidates.get(rule.field_path)
            if existing is not None:
                if on_warning is not None:
                    on_warning(
                        "duplicate_field_match",
                        f"{rule.field_path}: rule {rule.pattern_id} matched again at "
                        f"offset {start}; keeping value from {existing.pattern_id}",
                    )
                continue
            candidates[rule.field_path] = FieldCandidate(
                field_path=rule.field_path,
                raw_value=raw.strip(),
                pattern_id=rule.pattern_id,
                char_start=start,
                char_end=end,
            )
    return draft


# Line rules over the prefix reader's edge cases, with the prefix each one
# gets; two share a field path so duplicate_field_match fires.
_PREFIX_RULES = [
    (LabelRule("p_plain", "p.one", r"^ab(.*)"), "ab"),
    (LabelRule("p_alt", "p.alt", r"^ab(.)|c"), ""),
    (LabelRule("p_star", "p.one", r"^ab*(.*)"), "a"),
    (LabelRule("p_count", "p.count", r"^ab{2}(.*)"), "a"),
    (LabelRule("p_opt", "p.opt", r"^ab?(c.*)"), "a"),
    (LabelRule("p_plus", "p.plus", r"^Ab+(.)"), "A"),
    (LabelRule("p_escape", "p.escape", r"^a\.b(.*)"), "a"),
    (LabelRule("p_class", "p.class", r"^[ab]b(.*)"), ""),
    (LabelRule("p_digit", "p.digit", r"^\d(.+)"), ""),
    (LabelRule("p_nocase", "p.nocase", r"(?i)^ab(.*)"), ""),
    (LabelRule("p_empty", "p.empty", r"^(.+)$"), ""),
    (LabelRule("p_loose", "p.loose", r"b\.(.)"), ""),
    (LabelRule("p_space", "p.space", r"^a b:\s*(\S+)"), "a b:"),
    (LabelRule("p_dot", "p.dot", r"^A.(.)"), "A"),
]


def test_literal_prefixes():
    assert [rule.prefix for rule, _ in _PREFIX_RULES] == [want for _, want in _PREFIX_RULES]


def test_every_bundled_line_rule_but_nar_circ_has_a_prefix():
    lacking = [
        rule.pattern_id
        for rules in RULESETS.values()
        for rule in rules
        if rule.scope == SCOPE_LINE and not rule.prefix
    ]
    assert lacking == ["nar_circ"]


_PREFIX_LINES = st.text(alphabet=st.sampled_from("abAB.c1 :x"), max_size=8)


@settings(max_examples=500, deadline=None)
@given(
    st.lists(_PREFIX_LINES, max_size=10),
    st.lists(st.sampled_from([rule for rule, _ in _PREFIX_RULES]), max_size=8),
    st.booleans(),
)
def test_apply_matches_searching_every_line(lines, rules, bundled):
    text = "\n".join(lines)
    if bundled:
        rules = RULESETS[FAMILY_REGISTRY] + rules
    warned, oracle_warned = [], []
    new = rules_module._apply(text, rules, "label", 2, lambda c, m: warned.append((c, m)))
    old = _parent_apply(text, rules, "label", 2, lambda c, m: oracle_warned.append((c, m)))
    assert _draft_state(("ok", new)) == _draft_state(("ok", old))
    assert warned == oracle_warned


# ---------------------------------------------------------------------------
# Harmonization

_INDEXED_KEY_RE = re.compile(r"^(.+)\.(\d+)$")


def _oracle_sibling(path):
    return path.replace("_min_", "_max_")


def _oracle_apply_transform(transform, raw, target, tz_default, warn):
    if transform == TRANSFORM_TIMESTAMP:
        result = normalize_timestamp(raw, tz_default) if isinstance(raw, str) else None
        if result is None:
            warn("unparseable_timestamp", f"{target}: cannot read {raw!r}")
            return {target: None}
        return {target: result[0]}
    if transform == TRANSFORM_HEIGHT:
        pair = normalize_height(raw)
        if pair is None:
            warn("unparseable_height", f"{target}: cannot read {raw!r}")
            return {target: None, _oracle_sibling(target): None}
        return {target: pair[0], _oracle_sibling(target): pair[1]}
    if transform == TRANSFORM_WEIGHT:
        pair = normalize_weight(raw)
        if pair is None:
            warn("unparseable_weight", f"{target}: cannot read {raw!r}")
            return {target: None, _oracle_sibling(target): None}
        return {target: pair[0], _oracle_sibling(target): pair[1]}
    if transform == TRANSFORM_SEX:
        value = _sex_value(raw) if isinstance(raw, str) else None
        if value is None:
            warn("bad_enum_value", f"{target}: cannot read {raw!r}")
        return {target: value}
    if transform == TRANSFORM_STATUS:
        value = _status_value(raw) if isinstance(raw, str) else None
        if value is None:
            warn("bad_enum_value", f"{target}: cannot read {raw!r}")
        return {target: value}
    if transform == TRANSFORM_PLACE:
        if not isinstance(raw, str) or not raw.strip():
            return {}
        city, state, postal = parse_place_parts(raw)
        out = {"spatial.last_seen_location": raw.strip()}
        if city is not None:
            out["spatial.city"] = city
            out["spatial.state"] = state
            if postal is not None:
                out["spatial.postal_code"] = postal
        return out
    if transform == TRANSFORM_CUES:
        return {target: _cue_values(raw)}
    return {target: raw}


def _oracle_flatten_input(source):
    flat = flatten_leaves(dict(source))
    grouped = {}
    lists = {}
    for key, value in flat.items():
        m = _INDEXED_KEY_RE.match(key)
        if m is not None:
            lists.setdefault(m.group(1), []).append((int(m.group(2)), value))
        else:
            grouped[key] = value
    for base, items in lists.items():
        grouped[base] = [value for _, value in sorted(items, key=lambda kv: kv[0])]
    return grouped


def _oracle_harmonize(source, mappings, schema, *, on_warning=None):
    warn = on_warning if on_warning is not None else (lambda code, msg: None)
    flat = _oracle_flatten_input(source)
    values = {}
    trace = []
    for source_key in sorted(flat):
        raw = flat[source_key]
        row = mappings.rows.get(source_key)
        if row is None:
            if raw in (None, "", [], {}):
                continue
            warn("unmapped_key", f"no mapping for {source_key!r}; value dropped")
            continue
        target, transform = row
        if raw is None or raw == "":
            values.setdefault(target, None)
            continue
        outputs = _oracle_apply_transform(transform, raw, target, mappings.tz_default, warn)
        for out_path, out_value in outputs.items():
            entry = schema.entry(out_path)
            if entry is not None and transform in (TRANSFORM_NONE,):
                out_value = _coerce(out_value, entry.kind, out_path, warn)
            if out_path in values and values[out_path] is not None:
                if out_value is not None and out_value != values[out_path]:
                    warn(
                        "duplicate_target",
                        f"{out_path}: already set; ignoring value from {source_key!r}",
                    )
                continue
            values[out_path] = out_value
            trace.append((source_key, out_path))
    _apply_defaults(values, mappings.tz_default)
    return HarmonizedRecord(LeafMap(values), tuple(trace))


# A hand-built table: two keys onto one target, a height target whose sibling
# is itself, a numeric target under each transform that must not coerce, an
# indexed source key, and a transform name no loader accepts.
ODD_TABLE = MappingTable(
    source_label="odd",
    rows={
        "a": ("demographic.age_years", TRANSFORM_NONE),
        "b": ("demographic.age_years", TRANSFORM_NONE),
        "lat": ("spatial.lat", TRANSFORM_NONE),
        "h": ("demographic.age_years", TRANSFORM_HEIGHT),
        "h2": ("demographic.height_min_cm", TRANSFORM_HEIGHT),
        "w": ("demographic.weight_min_kg", TRANSFORM_WEIGHT),
        "t": ("temporal.last_seen_ts", TRANSFORM_TIMESTAMP),
        "t2": ("temporal.last_seen_ts", TRANSFORM_TIMESTAMP),
        "p": ("spatial.city", TRANSFORM_PLACE),
        "s": ("demographic.sex", TRANSFORM_SEX),
        "st": ("outcome.status", TRANSFORM_STATUS),
        "c": ("narrative_osint.movement_cues", TRANSFORM_CUES),
        "c.1": ("demographic.name", TRANSFORM_NONE),
        "weird": ("demographic.age_min", "no_such_transform"),
        "n": ("demographic.age_max", TRANSFORM_STATUS),
    },
    tz_default="America/New_York",
)
TABLES = dict(MAPPINGS)
TABLES["odd"] = ODD_TABLE
TABLES["identity"] = identity_table(SCHEMA, tz_default="-05:00")
TABLES["identity_utc"] = identity_table(SCHEMA, tz_default=None)

_RAWS = st.one_of(
    st.sampled_from(
        [
            "Jane Doe",
            "  padded  ",
            "",
            " ",
            "F",
            "m",
            "x",
            "Missing",
            "lost",
            "14",
            " 14 ",
            "+3",
            "14.0",
            "abc",
            "5' 6\"",
            "5'4\" - 5'8\"",
            "9' 0\"",
            "150 lbs",
            "120 to 130 pounds",
            "2000 lbs",
            "1/2/2023",
            "13/40/2023",
            "June 1, 2023",
            "2023-06-01T10:00:00",
            "2023-06-01",
            "Dover, DE 19901",
            "Dover, Delaware",
            "Dover",
        ]
    ),
    st.text(max_size=5),
)
_KEYS = st.sampled_from(
    sorted({key for table in TABLES.values() for key in table.rows})
    + [
        "narrative_osint.movement_cues.0",
        "narrative_osint.movement_cues.1",
        "narrative_osint.movement_cues.10",
        "narrative_osint.movement_cues.01",
        "narrative_osint.movement_cues.1\n",
        "narrative_osint.movement_cues.١",
        "narrative_osint.movement_cues.²",
        "c.0",
        "c.1",
        "a.b\n.1",
        ".1",
        "1",
        "unmapped.key",
        "unmapped.key.2",
        "person.name",
    ]
)


# Raw values each transform reads, well-formed and not, so that failing
# transforms and keys sharing a target meet often.
_RAWS_FOR = {
    TRANSFORM_NONE: ("14", " 14 ", "+3", "14.0", "1e3", "abc", "Jane Doe", ""),
    TRANSFORM_TIMESTAMP: ("1/2/2023", "13/40/2023", "June 1, 2023", "2023-06-01T10:00:00", "soon"),
    TRANSFORM_HEIGHT: ("5' 6\"", "5'4\" - 5'8\"", "5'8\" - 5'4\"", "9' 0\"", "tall"),
    TRANSFORM_WEIGHT: ("150 lbs", "120 to 130 pounds", "2000 lbs", "heavy"),
    TRANSFORM_SEX: ("F", "m", "x"),
    TRANSFORM_STATUS: ("Missing", "lost"),
    TRANSFORM_PLACE: ("Dover, DE 19901", "Dover, Delaware", "Dover", " "),
    TRANSFORM_CUES: ("Dover", " "),
}


@st.composite
def drafts(draw, table):
    """A draft's raw values, as the rule path hands them to harmonize:
    mostly the table's own keys, each with a value its transform reads."""
    keys = st.sampled_from(sorted(table.rows)) | _KEYS
    draft = {}
    for key in draw(st.lists(keys, max_size=10)):
        transform = table.rows[key][1] if key in table.rows else None
        draft[key] = draw(st.sampled_from(_RAWS_FOR.get(transform, ("x",))) | _RAWS)
    return draft


def _raw_values(draft):
    """The flat map harmonize takes from a DraftRecord: each key's raw text."""
    return {key: candidate.raw_value for key, candidate in draft.candidates.items()}


_NESTED_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 300)
    | st.floats(allow_nan=True)
    | _RAWS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(("name", "0", "1", "lat", "age_years")), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def model_candidates(draw):
    """Nested candidates as the model path hands them over: canonical
    sections, list fields, nested empties and keys outside the schema."""
    candidate = {}
    for key in draw(st.lists(_KEYS | st.sampled_from(sorted(SCHEMA.leaf_paths())), max_size=8)):
        head, _, rest = key.partition(".")
        if rest and draw(st.booleans()):
            candidate.setdefault(head, {})
            if isinstance(candidate[head], dict):
                candidate[head][rest] = draw(_NESTED_VALUES)
                continue
        candidate[key] = draw(_NESTED_VALUES)
    return candidate


def _same_harmonized(source, table, schema):
    warned, oracle_warned = [], []
    new = _outcome(harmonize, source, table, schema, on_warning=lambda c, m: warned.append((c, m)))
    old = _outcome(
        _oracle_harmonize,
        source,
        table,
        schema,
        on_warning=lambda c, m: oracle_warned.append((c, m)),
    )
    # repr keeps the record's key order, and a NaN reads equal to a NaN.
    assert repr(new) == repr(old)
    assert warned == oracle_warned


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(sorted(TABLES)), st.sampled_from([SCHEMA, NO_DEMOGRAPHIC]), st.data())
def test_harmonize_draft_matches_per_key_dispatch(name, schema, data):
    _same_harmonized(data.draw(drafts(TABLES[name])), TABLES[name], schema)


@settings(max_examples=300, deadline=None)
@given(model_candidates(), st.sampled_from(["identity", "identity_utc", "odd"]))
def test_harmonize_candidate_matches_per_key_dispatch(candidate, name):
    # The model path hands harmonize its candidate's leaves.
    _same_harmonized(flatten_leaves(candidate), TABLES[name], SCHEMA)


def test_plan_follows_the_schema_it_is_given():
    # One table against two schemas in turn: age_years is coerced only where
    # the schema defines it.
    draft = {"a": "14"}
    for schema in (SCHEMA, NO_DEMOGRAPHIC, SCHEMA):
        _same_harmonized(draft, ODD_TABLE, schema)
    record = assemble_record(harmonize(draft, ODD_TABLE, SCHEMA).record, SCHEMA)
    assert record["demographic"]["age_years"] == 14


@pytest.mark.parametrize(
    "candidates",
    [
        # A height range onto a target that is its own sibling keeps the max.
        {"h": "5'4\" - 5'8\""},
        {"h": "tall"},
        # A second key onto a filled target: a conflicting value warns, a
        # failed transform (None) does not, an equal value does not.
        {"t": "1/2/2023", "t2": "soon"},
        {"t": "1/2/2023", "t2": "2023-01-02"},
        {"a": "14", "b": "15", "h": "5' 6\""},
        {"a": "abc", "b": "15"},
        # An indexed key that is also a row of its own, and its list.
        {"c.1": "Dover", "c.0": "Salem", "c": "Kent"},
        {"weird": "7", "n": "lost", "lat": "1e3"},
    ],
)
def test_odd_table_handpicked(candidates):
    _same_harmonized(dict(candidates), ODD_TABLE, SCHEMA)


def test_harmonize_end_to_end_drafts():
    """Drafts the bundled rules make from bundled-family texts."""
    texts = [
        "\n".join(_LINES[:13]),
        "\n".join(_LINES[14:17]),
        "\n".join(_LINES[17:21]),
    ]
    for text in texts:
        segment = CaseSegment(0, text, 0, len(text))
        detection = detect_source(text, SIGNATURES)
        draft = dispatch(detection, segment, RULESETS)
        table = MAPPINGS.get(detection.source_label) or MAPPINGS["unknown"]
        _same_harmonized(_raw_values(draft), table, SCHEMA)


# ---------------------------------------------------------------------------
# CSV cells


def _oracle_cells(record):
    cells = {}
    for key, section in record.items():
        prefix = str(key)
        if isinstance(section, dict) and section and prefix:
            fields = [(f"{prefix}.{name}", value) for name, value in section.items()]
        else:
            fields = [(prefix, section)]
        for path, value in fields:
            if value is None:
                cells[path] = ""
            elif value.__class__ is str:
                cells[path] = value
            elif not isinstance(value, (list, dict)):
                cells[path] = emit._format_cell(value)
            else:
                for leaf_path, leaf in flatten_leaves(value, path).items():
                    if isinstance(leaf, (list, dict)) and not leaf:
                        cells.pop(leaf_path, None)
                    else:
                        cells[leaf_path] = emit._format_cell(leaf)
    return cells


class _Text(str):
    """A str subclass: formatted through str(), not kept as is."""


_CELL_KEYS = st.sampled_from(("a", "b", "a.b", "", "0", "1")) | st.sampled_from(
    (0, 1, True, None, 1.5)
)
_CELL_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=True),
    st.sampled_from(("", "x", "a,b", _Text("t"), math.inf)),
)
_CELL_VALUES = st.recursive(
    _CELL_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_CELL_KEYS, inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=400, deadline=None)
@given(st.dictionaries(_CELL_KEYS, _CELL_VALUES, max_size=4))
def test_cells_match_flatten_leaves_per_value(record):
    new, old = emit._cells(record), _oracle_cells(record)
    assert new == old


@pytest.mark.parametrize(
    "record",
    [
        {"provenance": {"field_origins": {"demographic.name": [0, 3, 9]}, "x": []}},
        {"narrative_osint": {"movement_cues": ["Dover", "Salem"]}},
        {"narrative_osint": {"movement_cues": []}, "narrative_osint.movement_cues": ["x"]},
        {"narrative_osint.movement_cues.0": "x", "narrative_osint": {"movement_cues": []}},
        {"s": {"m": {"k": [[], {}, [None, True, 1.0]], 2: {}}}},
        {"": [1, [2, []]], 0: {"": {"": 5}}},
    ],
)
def test_cells_handpicked(record):
    assert emit._cells(record) == _oracle_cells(record)
    assert list(emit._cells(record)) == list(_oracle_cells(record))


# ---------------------------------------------------------------------------
# Buffered writers


def _oracle_write_jsonl(path, records):
    """write_records_jsonl over a list of record dicts, as it was."""
    count = 0
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for record in records:
            fh.write(emit.canonical_json(record))
            fh.write("\n")
            count += 1
    return count


def _oracle_write_csv(path, records, schema):
    """write_records_csv over a list of record dicts, as it was."""
    flat_rows = [emit._cells(record) for record in records]
    columns = set()
    for row in flat_rows:
        columns.update(row)
    ordered = emit.column_order(columns, schema)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(ordered)
        for row in flat_rows:
            writer.writerow([row.get(column, "") for column in ordered])
    return len(flat_rows)


_JSON_KEYS = st.sampled_from(("a", "b", "a.b", "", "0", "1", "né"))
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3000),
    st.floats(),
    st.sampled_from(("", "x", " pad ", "a,b", 'say "hi"\nbye', "Zoë", "東京")),
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_JSON_KEYS, inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _emitted_record(draw):
    """A schema-valid record or a bare one, with odd keys and values on top
    and a case_id whose segment numbers sort as text."""
    record = draw(records()) if draw(st.booleans()) else {}
    record.update(draw(st.dictionaries(_JSON_KEYS, _JSON_VALUES, max_size=3)))
    if record.get("provenance") and draw(st.booleans()):
        record["provenance"]["field_origins"] = draw(
            st.dictionaries(_JSON_KEYS, st.lists(st.integers(0, 999), max_size=3), max_size=3)
        )
    record["case_id"] = draw(st.sampled_from(("x#s10", "x#s2", "x#s1", "y#s0", "é#s3")))
    return record


@settings(max_examples=200, deadline=None)
@given(st.lists(_emitted_record(), max_size=6))
@example(
    [
        {"case_id": "x#s2", "narrative_osint": {"movement_cues": []},
         "narrative_osint.movement_cues": ["x"]},
        {"case_id": "x#s10", "narrative_osint.movement_cues.0": "y",
         "narrative_osint": {"movement_cues": []}},
        {"case_id": "x#s1", "s": {"m": {"k": [[], {}, [None, True, 1.0]], "2": {}}},
         "provenance": {"field_origins": {"demographic.name": [0, 3, 9]}, "x": []}},
    ]
)
def test_buffered_writers_match_the_dict_list_writers(tmp_path_factory, rows):
    tmp = tmp_path_factory.mktemp("emit")
    # What a run adds to a buffer: each record's leaf map, which the dict
    # list holds nested.
    leaf_maps = [record_leaves(record, SCHEMA) for record in rows]
    nested = [assemble_record(leaves, SCHEMA) for leaves in leaf_maps]
    ordered = sorted(nested, key=itemgetter("case_id"))
    assert _oracle_write_jsonl(tmp / "old.jsonl", ordered) == len(rows)
    assert _oracle_write_csv(tmp / "old.csv", ordered, SCHEMA) == len(rows)
    buffer = emit.RecordBuffer(SCHEMA)
    for leaves in leaf_maps:
        buffer.add(leaves)
        # The buffer keeps the record's text, not the record.
        leaves.clear()
    buffer.sort()
    assert emit.write_records_jsonl(tmp / "new.jsonl", buffer) == len(rows)
    assert emit.write_records_csv(tmp / "new.csv", buffer, SCHEMA) == len(rows)
    assert (tmp / "new.jsonl").read_bytes() == (tmp / "old.jsonl").read_bytes()
    assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()
