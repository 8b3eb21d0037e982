"""``emit.RecordBuffer.add`` takes a row's CSV cells from the record plan.

A buffer takes each record as its leaf map and builds the row's flat
``(column, text, ...)`` tuple in one walk of the schema's record plan
(``_encoded``), naming each cell by its leaf's path and each list element
and field origin by a column the buffer makes once; a leaf map the plan
does not cover (a dict or list where a scalar goes, a subclass, nested
lists, maps holding anything but lists of scalars, non-string map keys) is
nested by ``assemble_record`` and takes ``emit._cells``, the reference kept
for it. Either way the cells must be the ones the oracles of
``test_validate_equivalence`` (``flatten_leaves``) and
``test_rulepath_equivalence`` (per value) give of the record the leaf map
nests into, and where the plan covers it, exactly ``_cells``'s, in its
order. The columns the buffer makes are its own, so runs in one process do
not grow them.
"""

from __future__ import annotations

import gc
import math
from itertools import chain
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casepipe import cli, emit
from casepipe.schema import assemble_record, default_schema, record_leaves
from casepipe.synth import FAMILY_LABELS, SynthesisSpec, write_corpus
from recordgen import records
from test_rulepath_equivalence import _CELL_VALUES, _Text, _emitted_record
from test_rulepath_equivalence import _oracle_cells as _per_value_cells
from test_validate_equivalence import SCHEMAS, _candidates
from test_validate_equivalence import _oracle_cells as _leaf_cells

INGEST = "2025-01-15T09:30:00+00:00"
SCHEMA = default_schema()


def _reference(record) -> tuple:
    return tuple(chain.from_iterable(emit._cells(record).items()))


def _added(buffer: emit.RecordBuffer, leaves) -> tuple:
    """The cells of the row ``buffer.add`` keeps for ``leaves``. The JSON
    line of a leaf map the plan does not cover is made with ``repr`` here,
    so that one holding a dict whose keys JSON cannot sort, such as ``{0:
    ..., "a": ...}``, is added too; the written lines are compared in
    ``test_rulepath_equivalence`` and ``test_record_plan``."""
    with mock.patch.object(emit, "canonical_json", repr):
        buffer.add(leaves)
    return buffer.rows[-1][2]


def _column_names(buffer: emit.RecordBuffer) -> int:
    """How many column names the buffer holds: those of list elements and
    field origins, the plan's own being the schema's."""
    return sum(map(len, buffer._columns.values()))


def _check(leaf_maps, oracle, schema=SCHEMA) -> None:
    """Each leaf map's cells from one buffer, and from a fresh one, against
    ``oracle`` of the record it nests into; where the plan covers it,
    against ``_cells``."""
    buffer = emit.RecordBuffer(schema)
    for leaves in leaf_maps:
        try:
            record = assemble_record(leaves, schema)
        except (TypeError, LookupError) as exc:  # an open map it cannot sort or index
            with pytest.raises(type(exc)):
                buffer.add(leaves)
            continue
        cells = _added(buffer, leaves)
        assert _added(emit.RecordBuffer(schema), leaves) == cells
        assert dict(zip(cells[::2], cells[1::2])) == oracle(record)
        assert all(type(text) is str for text in cells)
        if buffer._encoded(leaves) is not None:
            assert cells == _reference(record)
            # No column twice: the plan names each leaf once.
            assert len(set(cells[::2])) == len(cells) // 2


@pytest.mark.parametrize("name", sorted(SCHEMAS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_cells_match_the_leaf_oracle(name, data):
    schema = SCHEMAS[name]
    candidates = data.draw(st.lists(_candidates(schema), max_size=3))
    _check([record_leaves(candidate, schema) for candidate in candidates], _leaf_cells, schema)


# Every leaf but the field origins, whose map assemble_record sorts: a value
# drawn for it with keys that do not sort would fail there first.
_LEAVES = st.sampled_from(
    [path for path, _, _ in SCHEMA.record_plan[0] if path != "provenance.field_origins"]
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.dictionaries(_LEAVES, _CELL_VALUES, max_size=4), max_size=3))
def test_cells_match_the_per_value_oracle(rows):
    _check(rows, _per_value_cells)


@settings(max_examples=200, deadline=None)
@given(st.lists(_emitted_record(), max_size=4))
def test_emitted_records_match_both_oracles(rows):
    leaf_maps = [record_leaves(record, SCHEMA) for record in rows]
    _check(leaf_maps, _per_value_cells)
    _check(leaf_maps, _leaf_cells)


_TRIPLES = st.lists(st.integers(0, 5000), min_size=3, max_size=3)
_ORIGIN_KEYS = st.sampled_from(
    ("demographic.name", "spatial.city", "temporal.last_seen_ts", "a..b", "", "x.0")
)


@settings(max_examples=200, deadline=None)
@given(st.lists(records(), min_size=1, max_size=4), st.data())
def test_pipeline_records_take_the_table(rows, data):
    for record in rows:
        record["provenance"]["field_origins"] = data.draw(
            st.dictionaries(_ORIGIN_KEYS, _TRIPLES, max_size=4)
        )
    leaf_maps = [record_leaves(record, SCHEMA) for record in rows]
    buffer = emit.RecordBuffer(SCHEMA)
    for leaves in leaf_maps:
        assert buffer._encoded(leaves) is not None
        # What a run keeps: the row its path's buffer adds.
        assert _added(buffer, leaves) == _reference(assemble_record(leaves, SCHEMA))
    _check(leaf_maps, _leaf_cells)
    _check(leaf_maps, _per_value_cells)


@pytest.mark.parametrize(
    "record, covered",
    [
        ({}, True),
        ({"case_id": "x", "narrative_osint.movement_cues": "", "provenance.field_origins": []},
         True),
        ({"narrative_osint.movement_cues": [], "provenance.field_origins": {}}, True),
        (
            {
                "spatial.geocode_plausible": True,
                "demographic.name": False,
                "spatial.lat": 1.5,
                "demographic.age_years": -0,
                "spatial.lon": math.nan,
            },
            True,
        ),
        # Keys outside the plan are left out, as assemble_record leaves them.
        ({"spatial.lat": math.inf, "demographic.name": None, "spatial.city": "", "case_id": 2.5,
          True: "x", "s.x": [[1]], "demographic": {"name": 1}}, True),
        ({"narrative_osint.movement_cues": [None, True, 2.0, -0.0, 10**16, "u"]}, True),
        ({"provenance.field_origins": {"a.b": [0, 1, 2], "": [1], "a": [3, 4, 5, 6]}}, True),
        ({"provenance.field_origins": {"k": [True, -1, 1.5], "j": ["1", None], "e": []}}, True),
        # Not covered: each takes _cells.
        ({"demographic.name": _Text("t")}, False),
        ({"narrative_osint.movement_cues": [_Text("u"), None, True, 2.0]}, False),
        ({"provenance.field_origins": {"j": ["1", None, _Text("2")]}}, False),
        ({"provenance.field_origins": {"k": "text"}}, False),
        ({"provenance.field_origins": {0: [1, 2, 3]}}, False),
        ({"provenance.field_origins": {"k.0": [1], "k": [[2]]}}, False),
        ({"narrative_osint.movement_cues": [["nested"]]}, False),
        ({"narrative_osint.movement_cues": [{}]}, False),
        ({"narrative_osint.movement_cues": ("a", "b")}, False),
        ({"provenance.field_origins": {"k": [{"a": 1}]}}, False),
        ({"demographic.name": [1, 2]}, False),
        ({"demographic.name": {"k": {"x": 1}}}, False),
        ({"case_id": {0: {1: None}, "0": {"1": "x"}}}, False),
        ({"demographic.age_years": (1, 2)}, False),
        ({"provenance.field_origins": [["k", [1]]]}, False),
        ({"narrative_osint.movement_cues": {"a": 1}}, False),
    ],
)
def test_handpicked_records(record, covered):
    # Each ``record`` is a leaf map, the buffer's way in.
    assert (emit.RecordBuffer(SCHEMA)._encoded(record) is not None) is covered
    _check([record], _leaf_cells)
    _check([record], _per_value_cells)


def test_a_longer_list_extends_the_columns_it_made():
    buffer = emit.RecordBuffer(SCHEMA)
    short = {"narrative_osint.movement_cues": ["a"], "provenance.field_origins": {"k": [1]}}
    long = {
        "narrative_osint.movement_cues": ["a", "b", "c"],
        "provenance.field_origins": {"k": [1, 2, 3]},
    }
    for leaves in (short, long, short):
        assert buffer._encoded(leaves) is not None
        assert _added(buffer, leaves) == _reference(assemble_record(leaves, SCHEMA))


def test_the_columns_are_shared_across_rows():
    buffer = emit.RecordBuffer(SCHEMA)
    first, second = (
        {"demographic.name": str(n), "provenance.field_origins": {"k.x": [n, 1, 2]}}
        for n in (1, 2)
    )
    a, b = _added(buffer, first), _added(buffer, second)
    assert all(x is y for x, y in zip(a[::2], b[::2]))
    # provenance.field_origins.k.x.0 to .2; the leaves' columns are the plan's.
    assert _column_names(buffer) == 3


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    counts = {family: 2 for family in sorted(FAMILY_LABELS)}
    write_corpus(SynthesisSpec(seed=5, count_per_family=counts, label_dropout_rate=0.5), root)
    return root / "docs"


@pytest.mark.parametrize("paths", ["rule", "both"])
def test_runs_in_one_process_leave_no_table_behind(docs, tmp_path, monkeypatch, paths):
    # In-process, so every buffer a run makes is made, and freed, here.
    monkeypatch.setattr(cli, "_reads_ahead", lambda files: False)
    made: list[int] = []
    freed: list[int] = []

    class Recorded(emit.RecordBuffer):
        __slots__ = ()

        def __init__(self, schema) -> None:
            super().__init__(schema)
            made.append(1)

        def __del__(self) -> None:
            freed.append(_column_names(self))

    monkeypatch.setattr(emit, "RecordBuffer", Recorded)
    sizes = []
    for run in range(6):
        before = len(freed)
        cli.run(
            cli.RunConfig(
                input_dir=docs, output_dir=tmp_path / str(run), paths_enabled=paths,
                backend="dropout_oracle", ingest_ts=INGEST,
            )
        )
        gc.collect()
        # Every buffer the run made is gone, its columns with it, once it
        # has returned.
        assert len(freed) == len(made)
        sizes.append(sorted(freed[before:]))
    # Each run made its buffers afresh, and they held the same columns.
    assert max(sizes[0]) > 0 and sizes.count(sizes[0]) == len(sizes)
