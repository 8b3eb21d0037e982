"""``emit.RecordBuffer.add`` takes a row's CSV cells from the buffer's columns.

A buffer names each column once and builds a row's flat ``(column, text,
...)`` tuple from its columns (``_named_cells``); a record they do not
cover (dotted, empty or non-string keys, nested lists, maps holding
anything but non-empty lists) takes ``emit._cells``, the reference kept for
it. Either way the cells must be the ones the oracles of
``test_validate_equivalence`` (``flatten_leaves``) and
``test_rulepath_equivalence`` (per value) give, and where the columns cover
a record, exactly ``_cells``'s, in its order. The columns are the buffer's,
so runs in one process do not grow them.
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
from casepipe.synth import FAMILY_LABELS, SynthesisSpec, write_corpus
from recordgen import records
from test_rulepath_equivalence import _CELL_KEYS, _CELL_VALUES, _Text, _emitted_record
from test_rulepath_equivalence import _oracle_cells as _per_value_cells
from test_validate_equivalence import SCHEMAS, _candidates
from test_validate_equivalence import _oracle_cells as _leaf_cells

INGEST = "2025-01-15T09:30:00+00:00"


def _reference(record) -> tuple:
    return tuple(chain.from_iterable(emit._cells(record).items()))


def _added(buffer: emit.RecordBuffer, record) -> tuple:
    """The cells of the row ``buffer.add`` keeps for ``record``. Its JSON
    line is made with ``repr`` here, so that a record whose keys JSON cannot
    sort, such as ``{0: ..., "a": ...}``, is added too; the written lines
    are compared in ``test_rulepath_equivalence``."""
    with mock.patch.object(emit, "canonical_json", repr):
        buffer.add(record)
    return buffer.rows[-1][2]


def _column_names(buffer: emit.RecordBuffer) -> int:
    """How many column names the buffer holds."""
    return (
        sum(map(len, buffer._fields.values()))
        + sum(map(len, buffer._items.values()))
        + sum(len(columns) for keys in buffer._maps.values() for columns in keys.values())
    )


def _check(records_, oracle) -> None:
    """Each record's cells from one buffer, and from a fresh one, against
    ``oracle``; where the columns cover a record, against ``_cells``."""
    buffer = emit.RecordBuffer()
    for record in records_:
        cells = _added(buffer, record)
        assert _added(emit.RecordBuffer(), record) == cells
        assert dict(zip(cells[::2], cells[1::2])) == oracle(record)
        assert all(type(text) is str for text in cells)
        if buffer._named_cells(record) is not None:
            assert cells == _reference(record)
            # No column twice: the columns cover only records whose every
            # column names one leaf.
            assert len(set(cells[::2])) == len(cells) // 2


@pytest.mark.parametrize("name", sorted(SCHEMAS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_cells_match_the_leaf_oracle(name, data):
    candidates = data.draw(st.lists(_candidates(SCHEMAS[name]), max_size=3))
    _check(candidates, _leaf_cells)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.dictionaries(_CELL_KEYS, _CELL_VALUES, max_size=4), max_size=3))
def test_cells_match_the_per_value_oracle(rows):
    _check(rows, _per_value_cells)


@settings(max_examples=200, deadline=None)
@given(st.lists(_emitted_record(), max_size=4))
def test_emitted_records_match_both_oracles(rows):
    _check(rows, _per_value_cells)
    _check(rows, _leaf_cells)


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
    buffer = emit.RecordBuffer()
    for record in rows:
        assert buffer._named_cells(record) is not None
        # What a run keeps: the row its path's buffer adds.
        assert _added(buffer, record) == _reference(record)
    _check(rows, _leaf_cells)
    _check(rows, _per_value_cells)


@pytest.mark.parametrize(
    "record, covered",
    [
        ({}, True),
        ({"case_id": "x", "s": {}}, True),
        ({"s": {"cues": [], "m": {}}}, True),
        ({"s": {"t": True, "f": False, "x": 1.5, "i": -0, "nan": math.nan}}, True),
        ({"s": {"inf": math.inf, "n": None, "e": ""}, "top": 2.5}, True),
        ({"s": {"text": _Text("t"), "cues": [_Text("u"), None, True, 2.0]}}, True),
        ({"s": {"m": {"a.b": [0, 1, 2], "": [1], "a": [3, 4, 5, 6]}}}, True),
        ({"s": {"m": {"k": [True, -1, 1.5], "j": ["1", None, _Text("2")]}}}, True),
        # Not covered: each takes _cells.
        ({"a.b": 5, "a": {"b": []}}, False),
        ({"a": {"b": []}, "a.b": 5}, False),
        ({"a": {"b.c": 1, "b": {"c": [2]}}}, False),
        ({"": {"a": 1}}, False),
        ({0: {1: None}, "0": {"1": "x"}}, False),
        ({"s": {1: "x"}}, False),
        ({True: "x"}, False),
        ({"s": {"m": {"k": []}}}, False),
        ({"s": {"m": {"k": "text"}}}, False),
        ({"s": {"m": {0: [1, 2, 3]}}}, False),
        ({"s": {"m": {"k.0": [1], "k": [[2]]}}}, False),
        ({"s": {"cues": [["nested"]]}}, False),
        ({"s": {"cues": [{}]}}, False),
        ({"s": {"m": {"k": [{"a": 1}]}}}, False),
        ({"list": [1, 2]}, False),
        ({"s": {"deep": {"k": {"x": 1}}}}, False),
    ],
)
def test_handpicked_records(record, covered):
    assert (emit.RecordBuffer()._named_cells(record) is not None) is covered
    _check([record], _leaf_cells)
    _check([record], _per_value_cells)


def test_a_longer_list_extends_the_columns_it_made():
    buffer = emit.RecordBuffer()
    short = {"s": {"cues": ["a"], "m": {"k": [1]}}}
    long = {"s": {"cues": ["a", "b", "c"], "m": {"k": [1, 2, 3]}}}
    for record in (short, long, short):
        assert buffer._named_cells(record) is not None
        assert _added(buffer, record) == _reference(record)


def test_the_columns_are_shared_across_rows():
    buffer = emit.RecordBuffer()
    first, second = ({"s": {"a": str(n), "m": {"k.x": [n, 1, 2]}}} for n in (1, 2))
    a, b = _added(buffer, first), _added(buffer, second)
    assert all(x is y for x, y in zip(a[::2], b[::2]))
    assert _column_names(buffer) == 6  # s, s.a, s.m and s.m.k.x.0 to s.m.k.x.2


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

        def __init__(self) -> None:
            super().__init__()
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
