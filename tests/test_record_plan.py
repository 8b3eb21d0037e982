"""A record's leaf map, encoded and validated without nesting it.

A pipeline record stays flat, as its ``schema.LeafMap``, from harmonize to
the buffer. ``emit.RecordBuffer.add`` encodes one in one walk of the
schema's record plan (``_encoded``): that walk must give exactly the JSON
line ``canonical_json`` writes of the record ``assemble_record`` nests it
into, and exactly ``emit._cells``'s cells of that record, in ``_cells``'s
order (``test_encode_row`` adds the leaf maps the plan does not cover, which
take those reference walks). ``validate`` checks a leaf map with the same compiled
checks it walks a nested record with, and must report the same of a record
and of its leaf map (``record_leaves``).
"""

from __future__ import annotations

import math
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casepipe import emit
from casepipe.schema import (
    PLAN_LIST,
    PLAN_MAP,
    LeafMap,
    SchemaDefinition,
    SchemaEntry,
    assemble_record,
    default_schema,
    record_leaves,
    validate,
)
from recordgen import records
from test_validate_equivalence import CUSTOM

DEFAULT = default_schema()
SCHEMAS = {"default": DEFAULT, "custom": CUSTOM}

_TEXT = st.text(
    st.sampled_from(['"', "\\", "\x00", "\x08", "\x1f", "\n", "\t", " ", "\U0001f600"])
    | st.sampled_from(["a", "é", "%", "s", "/", "\x7f", "東", "\u2028"])
    | st.characters(),
    max_size=6,
)
_SCALARS = st.one_of(
    _TEXT,
    st.none(),
    st.booleans(),
    st.integers(-(10**20), 10**20),
    st.sampled_from([-0.0, 0.0, 1e16, 1e-7, 38.47, -77.996, math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True),
)
# Field-origin keys, drawn in no particular order; some sort before others
# only by a character that ``.`` or a digit outranks.
_MAP_KEYS = st.sampled_from(
    ["demographic.name", "a.b.c", "a-b", "a.b", "", "z", "A", "é", "x%s", 'q"', "1"]
)


def _value(kind: int):
    if kind == PLAN_LIST:
        return st.none() | st.lists(_SCALARS, max_size=4)
    if kind == PLAN_MAP:
        return st.none() | st.dictionaries(
            _MAP_KEYS, st.lists(st.integers(0, 9999) | _SCALARS, max_size=4), max_size=5
        )
    return _SCALARS


@st.composite
def leaf_maps(draw, schema: SchemaDefinition) -> LeafMap:
    """A leaf map of ``schema``: each plan leaf given or left out."""
    leaves = LeafMap()
    for path, kind, _ in schema.record_plan[0]:
        if draw(st.booleans()) or path == "case_id":
            leaves[path] = draw(_value(kind))
    return leaves


def _reference(leaves, schema):
    record = assemble_record(leaves, schema)
    return emit.canonical_json(record), tuple(chain.from_iterable(emit._cells(record).items()))


def _check(buffer: emit.RecordBuffer, leaves) -> None:
    """``add`` keeps the reference line and cells, in the reference order,
    through the plan walk where it covers ``leaves``."""
    line, cells = _reference(leaves, buffer.schema)
    buffer.add(leaves)
    case_id, kept_line, kept_cells = buffer.rows[-1]
    assert case_id is leaves.get("case_id")
    assert kept_line == line
    assert kept_cells == cells
    assert all(type(text) is str for text in kept_cells)


@pytest.mark.parametrize("name", sorted(SCHEMAS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_the_plan_walk_gives_the_reference_line_and_cells(name, data):
    schema = SCHEMAS[name]
    buffer = emit.RecordBuffer(schema)
    for leaves in data.draw(st.lists(leaf_maps(schema), min_size=1, max_size=4)):
        assert buffer._encoded(leaves) is not None
        _check(buffer, leaves)
        # A fresh buffer makes the same row.
        fresh = emit.RecordBuffer(schema)
        fresh.add(leaves)
        assert fresh.rows == buffer.rows[-1:]


@settings(max_examples=100, deadline=None)
@given(st.lists(records(), min_size=1, max_size=4))
def test_pipeline_records_take_the_plan_walk(rows):
    buffer = emit.RecordBuffer(DEFAULT)
    for record in rows:
        leaves = record_leaves(record, DEFAULT)
        assert assemble_record(leaves, DEFAULT) == record
        assert buffer._encoded(leaves) is not None
        _check(buffer, leaves)
        assert buffer.rows[-1][1] == emit.canonical_json(record)


def test_a_schema_with_an_entry_below_an_open_map_takes_the_reference():
    schema = SchemaDefinition(
        (
            SchemaEntry("case_id", "string"),
            SchemaEntry("m", "section", pattern="^[a-z]+$"),
            SchemaEntry("m.x", "integer"),
        )
    )
    assert schema.record_plan[1] is None
    buffer = emit.RecordBuffer(schema)
    _check(buffer, {"case_id": "c", "m": {"b": [1], "a": [2]}, "m.x": 3})
    assert buffer._encoded({"case_id": "c"}) is None


# ---------------------------------------------------------------------------
# validate: a record and its leaf map

_ANY = st.one_of(
    _SCALARS,
    st.sampled_from(
        [
            -1, 0, 5, 121, 251, 401, 90.5, -180.5, "missing", "located", "nope", "rule",
            "llm", "none", "gazetteer", "female", "UTC", "Mars/Olympus Mons", "12345",
            "1234", "2024-01-02", "2024-01-02T03:04:05", "2024-01-01T00:00:00",
            "not a date", " x", "", [], ["ok", 1, None, ""], [0, 1, 2], {},
            {"demographic.name": [0, 1, 2], "bad key": [0, 1], "spatial.lat": [True, 1, 2]},
        ]
    ),
)


def _same_report(record, schema):
    leaves = record_leaves(record, schema)
    report = validate(record, schema)
    assert validate(leaves, schema) == report
    # What a leaf map lacks reads as null.
    given = LeafMap((path, value) for path, value in leaves.items() if value is not None)
    assert validate(given, schema) == report
    return report


@pytest.mark.parametrize("name", sorted(SCHEMAS))
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_validate_reports_a_record_and_its_leaf_map_alike(name, data):
    schema = SCHEMAS[name]
    if schema is DEFAULT:
        record = data.draw(records())
    else:
        record = assemble_record(data.draw(leaf_maps(schema)), schema)
    # Change or drop some leaves in place; every section stays a dict.
    for path, _, parts in data.draw(
        st.lists(st.sampled_from(schema.record_plan[0]), max_size=6, unique=True)
    ):
        node = record
        for part in parts[:-1]:
            node = node[part]
        if data.draw(st.booleans()):
            node[parts[-1]] = data.draw(_ANY)
        else:
            node.pop(parts[-1], None)
    _same_report(record, schema)


def test_a_leaf_and_a_cross_field_rule_report_one_path_in_order():
    record = assemble_record(
        {
            "case_id": "C1",
            "demographic.age_min": 130,
            "demographic.age_max": 5,
            "provenance.source_label": "s",
            "provenance.extraction_path": "rule",
            "provenance.repair_count": 1,
        },
        DEFAULT,
    )
    report = _same_report(record, DEFAULT)
    assert [(v.field_path, v.message) for v in report.violations] == [
        ("demographic.age_min", "value 130 outside [0, 120]"),
        ("demographic.age_min", "minimum 130 exceeds maximum 5"),
        ("provenance.repair_count", "rule-path records must have repair_count 0"),
    ]


def test_a_leaf_map_leaves_out_keys_outside_the_schema_as_assemble_record_does():
    # harmonize fills outcome.status whatever the schema; a schema without
    # the outcome section leaves it out of the record, and so of the report.
    schema = DEFAULT.without_prefix("outcome")
    leaves = LeafMap(
        {
            "case_id": "C1",
            "provenance.source_label": "s",
            "provenance.extraction_path": "rule",
            "outcome.status": "nope",
            "demographic.nickname": 5,
        }
    )
    report = validate(leaves, schema)
    assert report == validate(assemble_record(leaves, schema), schema)
    assert report.valid
