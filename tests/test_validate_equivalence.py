"""Equivalence of the compiled schema walks with the recursive forms they replace.

``validate`` walks a plan compiled once per schema; ``assemble_record``,
``sanitize_candidate`` and the CSV cell flattener use pre-split paths and
per-section entry maps. Each must give exactly what the plain per-call walk
gives: the same report (validity, paths, codes, messages and their order),
the same record, the same warnings, the same cells. The plain versions are
kept in this file as oracles.
"""

from __future__ import annotations

import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casepipe import emit, llm
from casepipe.schema import (
    ABSENT,
    ISO_TIMESTAMP,
    KIND_BOOLEAN,
    KIND_DECIMAL,
    KIND_ENUM,
    KIND_INTEGER,
    KIND_LIST,
    KIND_SECTION,
    KIND_STRING,
    OUT_OF_RANGE,
    UNKNOWN_KEY,
    WRONG_TYPE,
    BAD_ENUM,
    BAD_PATTERN,
    BAD_TIMESTAMP,
    MISSING_REQUIRED,
    SchemaDefinition,
    SchemaEntry,
    ValidationReport,
    ValidationViolation,
    _resolve,
    assemble_record,
    default_schema,
    flatten_leaves,
    parse_iso_timestamp,
    validate,
)
from recordgen import records

DEFAULT = default_schema()
NO_OUTCOME = DEFAULT.without_prefix("outcome")
# Three levels of sections, a required leaf three segments deep, an open map
# with dotted keys, a list whose pattern is the timestamp sentinel (matched as
# a plain regex there), fields with an empty pattern, and numeric names that a
# non-string key (1) spells.
CUSTOM = SchemaDefinition(
    (
        SchemaEntry("case_id", KIND_STRING, required=True, pattern=r"\S"),
        SchemaEntry("1", KIND_BOOLEAN),
        SchemaEntry("a.1", KIND_STRING, pattern="^x"),
        SchemaEntry("a", KIND_SECTION, required=True),
        SchemaEntry("a.b", KIND_SECTION, required=True),
        SchemaEntry("a.b.c", KIND_INTEGER, required=True, numeric_range=(0, 10)),
        SchemaEntry("a.b.d", KIND_ENUM, enum_values=("x", "y")),
        SchemaEntry("a.b.tags", KIND_LIST, pattern=ISO_TIMESTAMP),
        SchemaEntry("a.b.blank", KIND_LIST, pattern=""),
        SchemaEntry("a.when", KIND_STRING, pattern=ISO_TIMESTAMP),
        SchemaEntry("a.flag", KIND_BOOLEAN),
        SchemaEntry("a.any", KIND_STRING, pattern=""),
        SchemaEntry("a.m", KIND_SECTION, pattern=r"^[a-z]+(?:\.[a-z]+)*$"),
        SchemaEntry("z", KIND_DECIMAL, numeric_range=(None, 5)),
        SchemaEntry("n", KIND_INTEGER),
    )
)
SCHEMAS = {"default": DEFAULT, "without_outcome": NO_OUTCOME, "custom": CUSTOM}


# ---------------------------------------------------------------------------
# Oracle: the recursive walk, looking every path up by its full string


def _oracle_validate(candidate, schema):
    violations = []

    def add(path, code, message):
        violations.append(ValidationViolation(path, code, message))

    if not isinstance(candidate, dict):
        add("", WRONG_TYPE, "record must be an object")
        return ValidationReport(False, tuple(violations))

    for path in schema.required_paths():
        value = _resolve(candidate, path.split("."))
        if value is ABSENT or value is None:
            add(path, MISSING_REQUIRED, "required field is missing or null")

    for key, value in candidate.items():
        if not schema.has_path(str(key)):
            add(str(key), UNKNOWN_KEY, "key is not defined by the schema")
        else:
            _oracle_node(str(key), value, schema, add)

    _oracle_cross_field(candidate, add, schema)

    ordered = tuple(sorted(violations, key=lambda v: (v.field_path, v.code)))
    return ValidationReport(not ordered, ordered)


def _oracle_node(path, value, schema, add):
    entry = schema.entry(path)
    if entry.kind == KIND_SECTION:
        if value is None:
            return
        if not isinstance(value, dict):
            add(path, WRONG_TYPE, "section must be an object")
            return
        if entry.pattern is not None:
            key_re = re.compile(entry.pattern or "")
            for key, item in value.items():
                item_path = f"{path}.{key}"
                if not isinstance(key, str) or not key_re.search(key):
                    add(item_path, BAD_PATTERN, "map key is not a well-formed field path")
                    continue
                if not schema.has_path(key) or schema.entry(key).kind == KIND_SECTION:
                    add(item_path, UNKNOWN_KEY, "map key does not name a schema field")
                    continue
                ok = (
                    isinstance(item, list)
                    and len(item) == 3
                    and all(type(v) is int and v >= 0 for v in item)
                )
                if not ok:
                    add(item_path, WRONG_TYPE, "origin must be [segment_index, char_start, char_end]")
            return
        for key, child_value in value.items():
            child_path = f"{path}.{key}"
            if not schema.has_path(child_path):
                add(child_path, UNKNOWN_KEY, "key is not defined by the schema")
            else:
                _oracle_node(child_path, child_value, schema, add)
        return
    _oracle_leaf(path, value, entry, add)


def _oracle_leaf(path, value, entry, add):
    if value is None:
        return
    kind = entry.kind
    if kind == KIND_STRING:
        if not isinstance(value, str):
            add(path, WRONG_TYPE, f"expected string, got {type(value).__name__}")
            return
        if entry.pattern == ISO_TIMESTAMP:
            if parse_iso_timestamp(value) is None:
                add(path, BAD_TIMESTAMP, "not an ISO-8601 date or datetime")
        elif entry.pattern is not None:
            if not re.search(entry.pattern, value):
                add(path, BAD_PATTERN, "value does not match the field pattern")
    elif kind == KIND_INTEGER:
        if type(value) is not int:
            add(path, WRONG_TYPE, f"expected integer, got {type(value).__name__}")
            return
        _oracle_range(path, value, entry, add)
    elif kind == KIND_DECIMAL:
        if type(value) not in (int, float):
            add(path, WRONG_TYPE, f"expected number, got {type(value).__name__}")
            return
        _oracle_range(path, value, entry, add)
    elif kind == KIND_BOOLEAN:
        if type(value) is not bool:
            add(path, WRONG_TYPE, f"expected boolean, got {type(value).__name__}")
    elif kind == KIND_ENUM:
        if not isinstance(value, str):
            add(path, WRONG_TYPE, f"expected string, got {type(value).__name__}")
        elif value not in (entry.enum_values or ()):
            allowed = ", ".join(entry.enum_values or ())
            add(path, BAD_ENUM, f"value {value!r} not one of: {allowed}")
    elif kind == KIND_LIST:
        if not isinstance(value, list):
            add(path, WRONG_TYPE, f"expected list, got {type(value).__name__}")
            return
        for i, element in enumerate(value):
            element_path = f"{path}.{i}"
            if not isinstance(element, str):
                add(element_path, WRONG_TYPE, "list entries must be strings")
            elif entry.pattern and not re.search(entry.pattern, element):
                add(element_path, BAD_PATTERN, "list entry is empty or untrimmed")


def _oracle_range(path, value, entry, add):
    if entry.numeric_range is None:
        return
    lo, hi = entry.numeric_range
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        add(path, OUT_OF_RANGE, f"value {value} outside [{lo}, {hi}]")


_MINMAX_PAIRS = (
    ("demographic.age_min", "demographic.age_max"),
    ("demographic.height_min_cm", "demographic.height_max_cm"),
    ("demographic.weight_min_kg", "demographic.weight_max_kg"),
)


def _oracle_cross_field(candidate, add, schema):
    """The hard-coded rules; a rule is skipped when the schema lacks one of
    the paths it reads, which on the default schema skips none."""

    def get(path):
        value = _resolve(candidate, path.split("."))
        return None if value is ABSENT else value

    def defined(*paths):
        return all(schema.has_path(path) for path in paths)

    for min_path, max_path in _MINMAX_PAIRS:
        lo, hi = get(min_path), get(max_path)
        if defined(min_path, max_path) and type(lo) is int and type(hi) is int and lo > hi:
            add(min_path, OUT_OF_RANGE, f"minimum {lo} exceeds maximum {hi}")

    lat, lon = get("spatial.lat"), get("spatial.lon")
    if defined("spatial.lat", "spatial.lon") and (lat is None) != (lon is None):
        path = "spatial.lat" if lat is None else "spatial.lon"
        add(path, OUT_OF_RANGE, "lat and lon must both be set or both be null")

    method = get("spatial.geocode_method")
    if (
        defined("spatial.geocode_method", "spatial.lat")
        and method == "none"
        and isinstance(lat, (int, float))
        and not isinstance(lat, bool)
    ):
        add("spatial.geocode_method", OUT_OF_RANGE, "geocode_method is none but coordinates are set")

    last_seen = get("temporal.last_seen_ts")
    reported = get("temporal.reported_missing_ts")
    if (
        defined("temporal.last_seen_ts", "temporal.reported_missing_ts")
        and isinstance(last_seen, str)
        and isinstance(reported, str)
    ):
        a = parse_iso_timestamp(last_seen)
        b = parse_iso_timestamp(reported)
        if a and b and a[1] == "datetime" and b[1] == "datetime":
            da, db = a[0], b[0]
            comparable = (da.tzinfo is None) == (db.tzinfo is None)
            if comparable and da > db:
                add(
                    "temporal.reported_missing_ts",
                    OUT_OF_RANGE,
                    "reported_missing_ts precedes last_seen_ts",
                )

    if (
        defined("provenance.extraction_path", "provenance.repair_count")
        and get("provenance.extraction_path") == "rule"
    ):
        repair_count = get("provenance.repair_count")
        if type(repair_count) is int and repair_count != 0:
            add("provenance.repair_count", OUT_OF_RANGE, "rule-path records must have repair_count 0")


# ---------------------------------------------------------------------------
# Candidate generation


def _key_pool(schema):
    """Full paths, every relative suffix, section names and malformed keys."""
    keys = set()
    for path in (e.field_path for e in schema.entries):
        parts = path.split(".")
        keys.update(".".join(parts[i:]) for i in range(len(parts)))
        keys.add(path + ".extra")
    keys.update(
        [
            "nickname",
            "",
            " ",
            "bad key",
            "a..b",
            ".lead",
            "0",
            "demographic.nickname",
            "field_origins.demographic.name",
            "spatial.lat",
            "spatial.lon",
            "demographic.age_min",
            "demographic.age_max",
        ]
    )
    return sorted(keys)


_NON_STR_KEYS = st.sampled_from([0, 1, -1, True, None, 1.5, ("a",)])

_SCALARS = st.one_of(
    st.sampled_from(
        [
            None,
            True,
            False,
            0,
            -1,
            -91,
            -181,
            1,
            5,
            10,
            11,
            120,
            121,
            30,
            250,
            400,
            0.0,
            -90.0,
            90.0,
            90.5,
            -180.0,
            180.0,
            -180.5,
            5.0,
            5.5,
            math.nan,
            math.inf,
            -math.inf,
            "",
            " ",
            "x",
            "y",
            " x",
            "x ",
            "12345",
            "12345-6789",
            "1234",
            "missing",
            "rule",
            "llm",
            "none",
            "gazetteer",
            "female",
            "UTC",
            "+05:30",
            "America/New_York",
            "2024-01-02",
            "2024-01-02T03:04:05",
            "2024-01-02T03:04:05Z",
            "2024-01-01T00:00:00-05:00",
            "2023-12-31T23:00:00",
            "<iso8601>",
            "not a date",
            "demographic.name",
            "a.b.c",
        ]
    ),
    st.integers(-5, 500),
    st.floats(allow_nan=True),
    st.text(max_size=4),
)
# Origin triples: well-formed, negative, bool, float, short and long.
_ORIGINS = st.lists(
    st.sampled_from([0, 1, 7, -1, True, False, 2.0, None, "1"]), min_size=0, max_size=4
)


def _values(keys):
    return st.recursive(
        _SCALARS | _ORIGINS,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.sampled_from(keys) | _NON_STR_KEYS, inner, max_size=3),
        max_leaves=6,
    )


def _dicts_in(node, found):
    if isinstance(node, dict):
        found.append(node)
        for value in node.values():
            _dicts_in(value, found)
    elif isinstance(node, list):
        for value in node:
            _dicts_in(value, found)
    return found


@st.composite
def _candidates(draw, schema):
    keys = _key_pool(schema)
    if schema is DEFAULT or schema is NO_OUTCOME:
        base = draw(st.sampled_from(["record", "record", "empty"]))
        candidate = draw(records()) if base == "record" else {}
        if base == "record" and schema is NO_OUTCOME and draw(st.booleans()):
            candidate.pop("outcome")
    else:
        candidate = assemble_record(
            {"case_id": "C1", "a.b.c": draw(st.integers(-2, 12))}, schema
        )
    values = _values(keys)
    for _ in range(draw(st.integers(0, 6))):
        targets = _dicts_in(candidate, [])
        target = draw(st.sampled_from(targets))
        key = draw(st.sampled_from(keys) | _NON_STR_KEYS)
        target[key] = draw(values)
    return candidate


def _same_report(candidate, schema):
    new = validate(candidate, schema)
    old = _oracle_validate(candidate, schema)
    assert new.valid == old.valid
    assert list(new.violations) == list(old.violations)
    return new


# ---------------------------------------------------------------------------
# validate


@pytest.mark.parametrize("name", sorted(SCHEMAS))
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_validate_matches_recursive_walk(name, data):
    schema = SCHEMAS[name]
    _same_report(data.draw(_candidates(schema)), schema)


@pytest.mark.parametrize("candidate", [None, [], "record", 3, [{"case_id": "x"}]])
def test_non_object_candidate(candidate):
    for schema in SCHEMAS.values():
        _same_report(candidate, schema)


@settings(max_examples=200, deadline=None)
@given(records())
def test_valid_records_stay_valid(record):
    assert _same_report(record, DEFAULT).valid


def _record(**sections):
    record = assemble_record(
        {
            "case_id": "C1",
            "provenance.source_label": "s",
            "provenance.extraction_path": "rule",
        },
        DEFAULT,
    )
    for section, fields in sections.items():
        record[section].update(fields)
    return record


def test_leaf_and_cross_field_tie_keep_discovery_order():
    record = _record(demographic={"age_min": 130, "age_max": 5})
    report = _same_report(record, DEFAULT)
    at_min = [v.message for v in report.violations if v.field_path == "demographic.age_min"]
    assert at_min == ["value 130 outside [0, 120]", "minimum 130 exceeds maximum 5"]


@pytest.mark.parametrize(
    "candidate",
    [
        # Dotted keys at the top level and inside sections resolve like nesting.
        {"case_id": "C", "demographic.age_min": 130, "demographic": {"age_max": 5}},
        {"demographic.age_min": 9, "demographic.age_max": 3, "spatial.lat": 1.0},
        {"provenance": {"field_origins.demographic.name": [0, 1, 2], "source_label": " "}},
        {"spatial": None, "spatial.lat": 1.0, "spatial.lon": None},
        # Present-but-wrong sections hide the dotted top-level key.
        {"spatial": [1.0], "spatial.lat": 1.0},
        {"spatial": "lat", "spatial.lat": 1.0, "spatial.lon": 2.0},
        {"demographic": {"age_min": 5}, "demographic.age_min": None},
        {"demographic": {1: "x", None: 2, True: 3, ("a",): 4, "": 5}},
        {1: "x", None: None, "": 0},
        {
            "provenance": {
                "field_origins": {
                    "demographic": [0, 1, 2],
                    "bad key": [0, 1, 2],
                    "demographic.nickname": [0, 1, 2],
                    "demographic.name": [0, -1, 2],
                    "spatial.lat": [True, 1, 2],
                    "spatial.lon": [0, 1],
                    "case_id": None,
                    7: [0, 1, 2],
                }
            }
        },
        {"narrative_osint": {"movement_cues": ["ok", 1, None, "", " x", "x "]}},
        {"demographic": {"age_years": True, "age_min": 0, "age_max": 120}},
        {"demographic": {"age_years": -1, "height_min_cm": 251, "weight_max_kg": 0}},
        {"spatial": {"lat": math.nan, "lon": -180.0, "geocode_method": "none"}},
        {"spatial": {"lat": 90.0, "lon": 180.5}},
        {"spatial": {"lat": -91, "lon": 181}, "z": 6, "n": True},
        {"spatial": {"lat": False, "lon": 1, "geocode_method": "none"}},
        {
            "temporal": {
                "last_seen_ts": "2024-01-02T03:04:05",
                "reported_missing_ts": "2024-01-01T00:00:00",
                "timezone": "Mars/Olympus Mons",
            }
        },
        {"provenance": {"extraction_path": "rule", "repair_count": 2, "warnings_count": -1}},
    ],
)
def test_handpicked_candidates(candidate):
    for schema in SCHEMAS.values():
        _same_report(candidate, schema)


def test_custom_three_level_schema():
    record = assemble_record({"case_id": "C", "a.b.c": 11}, CUSTOM)
    record["a"]["b.d"] = "q"
    record["a"]["b"]["tags"] = ["<iso8601>", "2024-01-02", 3]
    record["a"]["b"]["blank"] = ["", 1]
    record["a"]["m"] = {"x.y": [0, 0, 0], "a.b.c": [0, 0, 0], "a.b": [0, 0, 0]}
    record["a.b.c"] = -1
    record["z"] = 5.5
    report = _same_report(record, CUSTOM)
    assert ("a.b.d", BAD_ENUM) in report.codes()
    assert ("a.b.tags.1", BAD_PATTERN) in report.codes()
    assert ("a.m.a.b", UNKNOWN_KEY) in report.codes()
    del record["a"]["b"]["c"]
    _same_report(record, CUSTOM)


def _oracle_open_map_check(path, key_search, leaves):
    """The open-map check as it was: each key tested against the pattern,
    then the leaves, then its origin triple, element by element."""

    def check(value, out):
        if not isinstance(value, dict):
            out.append(ValidationViolation(path, WRONG_TYPE, "section must be an object"))
            return
        for key, item in value.items():
            if not isinstance(key, str) or not key_search(key):
                code, message = BAD_PATTERN, "map key is not a well-formed field path"
            elif key not in leaves:
                code, message = UNKNOWN_KEY, "map key does not name a schema field"
            elif (
                isinstance(item, list)
                and len(item) == 3
                and all(type(v) is int and v >= 0 for v in item)
            ):
                continue
            else:
                code, message = WRONG_TYPE, "origin must be [segment_index, char_start, char_end]"
            out.append(ValidationViolation(f"{path}.{key}", code, message))

    return check


_OPEN_MAPS = [
    (DEFAULT, "provenance.field_origins"),
    (NO_OUTCOME, "provenance.field_origins"),
    (CUSTOM, "a.m"),
]


def _map_keys(schema):
    """Leaves (some the pattern refuses), pattern matches naming no leaf,
    malformed paths and keys that are not strings."""
    return st.sampled_from(
        sorted(schema.leaf_paths())
        + ["demographic.nickname", "x.y", "nickname", "a.b.c.d", "Demographic.Name"]
        + ["", " ", "a..b", ".lead", "bad key", "a-b", "é"]
    ) | _NON_STR_KEYS | st.builds(type("_Key", (str,), {}), st.sampled_from(["a.b.c", "x"]))


_ORIGIN_VALUES = st.one_of(
    st.lists(st.integers(0, 9), min_size=3, max_size=3),
    st.lists(st.integers(-2, 9) | st.booleans() | st.floats(0, 9) | st.none(), max_size=4),
    st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(0, 9)),
    st.sampled_from([None, "0,1,2", {}, 3, [[0], 1, 2]]),
)


@pytest.mark.parametrize("schema, path", _OPEN_MAPS, ids=["default", "without_outcome", "custom"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_open_map_check_matches_the_old_closure(schema, path, data):
    entry = schema.entry(path)
    leaves = frozenset(schema.leaf_paths())
    old = _oracle_open_map_check(path, re.compile(entry.pattern).search, leaves)
    new = schema._validation_plan[0][path]
    value = data.draw(
        st.dictionaries(_map_keys(schema), _ORIGIN_VALUES, max_size=6)
        | st.sampled_from([None, [], "x", 0])
    )
    if value is None:
        return  # validate never checks a null section
    found, expected = [], []
    new(value, found)
    old(value, expected)
    assert found == expected
    # A whole record, reported in order, with the map in its place.
    record = assemble_record({"case_id": "C1"}, schema)
    parent, _, name = path.rpartition(".")
    record[parent][name] = value
    _same_report(record, schema)


# ---------------------------------------------------------------------------
# assemble_record


def _oracle_assemble(values, schema):
    record = {}
    creation = sorted(schema.entries, key=lambda e: (e.field_path.count("."), e.field_path))
    for entry in creation:
        parts = entry.field_path.split(".")
        parent = record
        for part in parts[:-1]:
            parent = parent[part]
        name = parts[-1]
        if entry.kind == KIND_SECTION:
            if entry.pattern is not None:
                given = values.get(entry.field_path) or {}
                parent[name] = {k: given[k] for k in sorted(given)}
            else:
                parent[name] = {}
        elif entry.kind == KIND_LIST:
            value = values.get(entry.field_path)
            parent[name] = list(value) if value else []
        else:
            parent[name] = values.get(entry.field_path)
    return record


def _outcome(fn, *args):
    try:
        return "ok", repr(fn(*args))
    except Exception as exc:  # both sides must fail alike
        return "error", type(exc).__name__


@pytest.mark.parametrize("name", sorted(SCHEMAS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_assemble_record_matches_walk(name, data):
    schema = SCHEMAS[name]
    keys = _key_pool(schema)
    open_maps = [e.field_path for e in schema.entries if e.kind == KIND_SECTION and e.pattern]
    values = data.draw(
        st.dictionaries(
            st.sampled_from(keys),
            _values(keys),
            max_size=8,
        )
    )
    for path in open_maps:
        if data.draw(st.booleans()):
            values[path] = data.draw(
                st.dictionaries(st.sampled_from(keys), _ORIGINS, max_size=4)
            )
    assert _outcome(assemble_record, values, schema) == _outcome(
        _oracle_assemble, values, schema
    )


# ---------------------------------------------------------------------------
# sanitize_candidate


def _oracle_clean(obj, prefix, schema, warn):
    out = {}
    for key, value in obj.items():
        path = f"{prefix}.{key}" if prefix else str(key)
        entry = schema.entry(path)
        if entry is None:
            warn("unknown_key_dropped", f"{path} is not in the schema")
            continue
        if entry.kind == KIND_SECTION:
            if entry.pattern is None and isinstance(value, dict):
                out[key] = _oracle_clean(value, path, schema, warn)
            else:
                out[key] = value
        elif entry.kind == KIND_LIST:
            if value is None or isinstance(value, list):
                out[key] = value
            else:
                out[key] = [value]
        elif entry.kind in (KIND_INTEGER, KIND_DECIMAL) and isinstance(value, str):
            out[key] = llm._coerce_number(value, entry.kind)
        else:
            out[key] = value
    return out


def _same_sanitized(candidate, schema):
    # Keys of a parsed backend response are strings: non-string keys are
    # stringified or skipped on the way to JSON.
    text = json.dumps(candidate, default=str, allow_nan=True, skipkeys=True)
    warnings, expected = [], []
    parsed = llm.sanitize_candidate(
        f"Here it is:\n{text}\n", schema, lambda code, msg: warnings.append((code, msg))
    )
    cleaned = _oracle_clean(
        json.loads(text), "", schema, lambda code, msg: expected.append((code, msg))
    )
    assert repr(parsed) == repr(cleaned)
    assert warnings == expected


_NUMERIC_TEXT = st.sampled_from(["12", " 7 ", "+3", "-4", "1.5", "1e3", "x", "", "nan"])


@pytest.mark.parametrize("name", sorted(SCHEMAS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_sanitize_matches_full_path_lookup(name, data):
    schema = SCHEMAS[name]
    candidate = data.draw(_candidates(schema))
    for target in _dicts_in(candidate, []):
        for key in list(target)[:2]:
            if data.draw(st.booleans()):
                target[key] = data.draw(_NUMERIC_TEXT)
    _same_sanitized(candidate, schema)


@pytest.mark.parametrize(
    "candidate",
    [
        {"a.b": {"c": "3", "x": 1, "d": "y"}, "a": {"b": {"c": " 4 "}, "b.tags": "t", 1: "x"}},
        {"a": {"b.c": "7", "b": None, "m": {"x": [0, 1, 2]}}, 1: True, "z": "2.5", "n": "+1"},
        {"b": {}, "a.b.c": "x", "a.m": {}, "a.nope": 1},
    ],
)
def test_sanitize_handpicked(candidate):
    _same_sanitized(candidate, CUSTOM)


# ---------------------------------------------------------------------------
# CSV cells


def _oracle_cells(record):
    cells = {}
    for path, value in flatten_leaves(dict(record)).items():
        if isinstance(value, (list, dict)) and not value:
            continue
        cells[path] = emit._format_cell(value)
    return cells


def _paths_distinct(node):
    """True when no two leaves flatten onto one path: every key is a
    non-empty string without a dot."""
    if isinstance(node, dict):
        return all(
            type(key) is str and key and "." not in key and _paths_distinct(value)
            for key, value in node.items()
        )
    if isinstance(node, list):
        return all(_paths_distinct(value) for value in node)
    return True


def _same_cells(record):
    new, old = emit._cells(record), _oracle_cells(record)
    assert new == old
    if _paths_distinct(record):
        assert list(new) == list(old)


@pytest.mark.parametrize("name", sorted(SCHEMAS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_cells_match_flatten_leaves(name, data):
    _same_cells(data.draw(_candidates(SCHEMAS[name])))


@pytest.mark.parametrize(
    "record",
    [
        {},
        {"": {"a": 1}, "b": {"": [1, []]}},
        {"a.b": 5, "a": {"b": []}},
        {"a": {"b": []}, "a.b": 5},
        {"a": {"b": {}}, "a.b": {"c": 1}},
        {"a": {"b": 1, "b.c": 2}, 0: {1: None}, "x": [[], {}, [None]]},
        {"s": {"f": 1.5, "t": True, "n": None, "z": False, "i": 0, "e": ""}},
    ],
)
def test_cells_handpicked(record):
    _same_cells(record)
