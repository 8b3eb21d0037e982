"""Output artifacts: canonical JSONL, flattened CSV, and the warning log.

Both files produced by a run carry the same records in the same order; the
CSV is a lossless flattening of the JSONL under the schema (dot-path columns,
lists indexed numerically, empty string for null). Key order in JSON output
is the schema's canonical order, which by construction is plain lexicographic
order at every nesting level. A run hands each record to a RecordBuffer as
it finishes: the buffer keeps the record's output text, not the record.
The ``write_records_*`` writers stream that text to disk, in whichever
process keeps the buffer; they are the only way a run's records are written.

Warnings never interrupt a run. Every call appends exactly one entry (no
deduplication) and its code must come from the WARNING_CODES registry below;
every entry carries the run's one timestamp, the log's ``ts``. The log is
held in memory and written once, in a stable order, at the end.
"""

from __future__ import annotations

import csv
import json
import threading
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Any, Iterable, Mapping, NamedTuple

from casepipe.schema import (
    KIND_INTEGER,
    KIND_LIST,
    KIND_SECTION,
    SchemaDefinition,
    assemble_record,
)

STAGES = (
    "extract",
    "detect",
    "parse",
    "sanitize",
    "harmonize",
    "geocode",
    "validate",
    "repair",
    "emit",
)
SEVERITIES = ("info", "warning", "error")

# Registry of every warning code the pipeline can emit. log() rejects codes
# not listed here, so a typo fails loudly in tests instead of silently
# fragmenting the log vocabulary.
WARNING_CODES = {
    "low_quality_text": "document text is below the quality floor; used as read",
    "extraction_failed": "the document could not be read or is binary; it was skipped",
    "encoding_fallback": "the document is not UTF-8; it was decoded as cp1252",
    "unknown_source": "no source signature reached the marker threshold",
    "unknown_source_fallback": "unknown source routed to the fallback rule set",
    "duplicate_field_match": "a later rule match for an already-filled field was ignored",
    "candidate_parse_error": "no structured object found in a backend response",
    "unknown_key_dropped": "candidate carried a key outside the schema",
    "backend_error": "backend call failed after retries",
    "unmapped_key": "draft key had no mapping row and was dropped",
    "unparseable_timestamp": "timestamp text could not be normalized",
    "unparseable_height": "height text could not be normalized",
    "unparseable_weight": "weight text could not be normalized",
    "bad_enum_value": "value outside the field's allowed set",
    "uncoercible_value": "value could not be coerced to the field's type",
    "duplicate_target": "two source keys mapped onto one already-filled field",
    "ambiguous_place": "place name exists in several regions; no match recorded",
    "geocode_no_match": "place not found in the gazetteer",
    "validation_violation": "a schema violation on an emitted record",
    "repair_exhausted": "record still invalid after the repair attempt limit",
    "repair_attempt_failed": "a repair-tier backend call failed",
    "non_minimal_edit_reverted": "a repair touched fields outside the cited violations",
    "record_withheld": "an invalid record was withheld from output",
}


# ---------------------------------------------------------------------------
# JSONL


def canonical_json(record: Mapping[str, Any]) -> str:
    return json.dumps(record, ensure_ascii=False, sort_keys=True)


def encode_row(record: Mapping[str, Any]) -> tuple[Any, str, tuple[str, ...]]:
    """A record's row, as a ``RecordBuffer`` keeps it: its ``case_id``, its
    canonical JSON line, and its CSV cells (``_cells``) as one flat tuple of
    column, text pairs. It is plain data, which ``marshal`` carries."""
    cells = tuple(chain.from_iterable(_cells(record).items()))
    return record.get("case_id"), canonical_json(record), cells


class RecordBuffer:
    """Finished records held as their output text, in the order added.

    ``add`` encodes a record at once into its row (``encode_row``), and
    ``append`` keeps a row encoded elsewhere, such as in a forked child.
    Column names and texts are shared through one table per buffer, so the
    buffer holds each distinct one, such as a column name or a field-origin
    offset, once. The record itself is not kept.
    """

    __slots__ = ("rows", "_strings")

    def __init__(self, records: Iterable[Mapping[str, Any]] = ()) -> None:
        self.rows: list[tuple[Any, str, tuple[str, ...]]] = []
        self._strings: dict[str, str] = {}
        for record in records:
            self.add(record)

    def add(self, record: Mapping[str, Any]) -> None:
        self.append(encode_row(record))

    def append(self, row: tuple[Any, str, tuple[str, ...]]) -> None:
        case_id, line, cells = row
        shared = tuple(map(self._strings.setdefault, cells, cells))
        self.rows.append((case_id, line, shared))

    @property
    def columns(self) -> dict[str, None]:
        """Every column any row has."""
        return dict.fromkeys(chain.from_iterable(cells[::2] for _, _, cells in self.rows))

    def sort(self) -> None:
        """Order the rows by case_id."""
        self.rows.sort(key=itemgetter(0))


def _buffered(records: RecordBuffer | Iterable[Mapping[str, Any]]) -> RecordBuffer:
    return records if isinstance(records, RecordBuffer) else RecordBuffer(records)


def write_records_jsonl(
    path: str | Path, records: RecordBuffer | Iterable[Mapping[str, Any]]
) -> int:
    """One canonical JSON object per line, UTF-8, LF. Returns the line count."""
    rows = _buffered(records).rows
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for _, line, _ in rows:
            fh.write(line)
            fh.write("\n")
    return len(rows)


# ---------------------------------------------------------------------------
# Flat CSV


def _format_cell(value: Any) -> str:
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def flatten_record(record: Mapping[str, Any], schema: SchemaDefinition) -> dict[str, str]:
    """Dot-path columns for one record, in canonical column order.

    Nulls become empty strings; empty lists and maps produce no columns at
    all (their absence is what marks them empty on the way back in).
    """
    cells = _cells(record)
    return {column: cells[column] for column in column_order(cells, schema)}


def _cells(record: Mapping[str, Any]) -> dict[str, str]:
    """flatten_record's cells: the leaves of flatten_leaves, formatted.

    Strings, nulls and integers directly inside a section are formatted in
    place, and so are those inside a list or map there (movement cues, field
    origins and their triples); only other values and deeper nesting go
    through _put_cells. An empty list or dict has no cell, and clears one
    that an earlier key flattened onto the same path.
    """
    cells: dict[str, str] = {}
    for key, section in record.items():
        prefix = str(key)
        if isinstance(section, dict) and section and prefix:
            for name, value in section.items():
                path = f"{prefix}.{name}"
                cls = value.__class__
                if cls is str:
                    cells[path] = value
                elif value is None:
                    cells[path] = ""
                elif cls is int:
                    cells[path] = str(value)
                else:
                    _put_cells(cells, path, value)
        else:
            _put_cells(cells, prefix, section)
    return cells


def _put_cells(cells: dict[str, str], path: str, value: Any) -> None:
    """Write ``value``'s leaves under ``path``, named as flatten_leaves names
    them (a child of the empty path is named by its key alone)."""
    if not isinstance(value, (list, dict)):
        cells[path] = _format_cell(value)
        return
    if not value:
        cells.pop(path, None)
        return
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for name, item in items:
        item_path = f"{path}.{name}" if path else str(name)
        cls = item.__class__
        if cls is str:
            cells[item_path] = item
        elif cls is int:
            cells[item_path] = str(item)
        elif cls is list and item and item_path:
            for index, leaf in enumerate(item):
                if leaf.__class__ is int:
                    cells[f"{item_path}.{index}"] = str(leaf)
                else:
                    _put_cells(cells, f"{item_path}.{index}", leaf)
        else:
            _put_cells(cells, item_path, item)


def column_order(columns: Iterable[str], schema: SchemaDefinition) -> list[str]:
    """Order columns by schema position, then numerically within lists."""
    anchor_index = {e.field_path: i for i, e in enumerate(schema.entries)}

    def natural(segment: str) -> tuple:
        if segment.isdigit():
            return (0, int(segment), "")
        return (1, 0, segment)

    def key(column: str) -> tuple:
        parts = column.split(".")
        for take in range(len(parts), 0, -1):
            candidate = ".".join(parts[:take])
            if candidate in anchor_index:
                suffix = tuple(natural(s) for s in parts[take:])
                return (anchor_index[candidate], suffix, column)
        return (len(anchor_index), (), column)

    return sorted(columns, key=key)


def _coerce_cell(raw: str, kind: str) -> Any:
    """Parse a CSV cell by schema kind; unparseable text is kept verbatim so
    the validator can point at it instead of it silently becoming null."""
    if kind == KIND_INTEGER:
        try:
            return int(raw)
        except ValueError:
            return raw
    if kind == "decimal":
        try:
            return float(raw)
        except ValueError:
            return raw
    if kind == "boolean":
        if raw == "true":
            return True
        if raw == "false":
            return False
        return raw
    return raw


def unflatten_row(row: Mapping[str, str], schema: SchemaDefinition) -> dict[str, Any]:
    """Inverse of flatten_record under the schema's typing.

    Empty cells become nulls (or stay out of lists/maps). Unknown columns are
    grafted into the candidate at their dotted position so validation can
    flag them rather than them vanishing.
    """
    values: dict[str, Any] = {}
    lists: dict[str, list[tuple[int, str]]] = {}
    maps: dict[str, dict[str, list[tuple[int, Any]]]] = {}
    unknown: list[tuple[str, str]] = []
    open_maps = [
        e.field_path
        for e in schema.entries
        if e.kind == KIND_SECTION and e.pattern is not None
    ]

    for column, raw in row.items():
        if raw == "":
            continue
        entry = schema.entry(column)
        if entry is not None and entry.kind not in (KIND_SECTION, KIND_LIST):
            values[column] = _coerce_cell(raw, entry.kind)
            continue
        base, sep, last = column.rpartition(".")
        if sep and last.isdigit():
            base_entry = schema.entry(base)
            if base_entry is not None and base_entry.kind == KIND_LIST:
                lists.setdefault(base, []).append((int(last), raw))
                continue
            section = next(
                (s for s in open_maps if base.startswith(s + ".")), None
            )
            if section is not None:
                map_key = base[len(section) + 1 :]
                maps.setdefault(section, {}).setdefault(map_key, []).append(
                    (int(last), _coerce_cell(raw, KIND_INTEGER))
                )
                continue
        unknown.append((column, raw))

    for base, items in lists.items():
        values[base] = [value for _, value in sorted(items)]
    for section, keymap in maps.items():
        values[section] = {
            key: [value for _, value in sorted(items)]
            for key, items in keymap.items()
        }

    record = assemble_record(values, schema)
    for column, raw in unknown:
        _graft(record, column.split("."), raw)
    return record


def _graft(record: dict, segments: list[str], value: str) -> None:
    node = record
    for segment in segments[:-1]:
        child = node.get(segment)
        if not isinstance(child, dict):
            child = {}
            node[segment] = child
        node = child
    node[segments[-1]] = value


def write_records_csv(
    path: str | Path,
    records: RecordBuffer | Iterable[Mapping[str, Any]],
    schema: SchemaDefinition,
) -> int:
    """All records as one CSV with union columns in canonical order."""
    buffer = _buffered(records)
    ordered = column_order(buffer.columns, schema)
    position = {column: index for index, column in enumerate(ordered)}
    blank = [""] * len(ordered)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(ordered)
        for _, _, cells in buffer.rows:
            line = blank.copy()
            pairs = iter(cells)
            for column, text in zip(pairs, pairs):
                line[position[column]] = text
            writer.writerow(line)
    return len(buffer.rows)


# ---------------------------------------------------------------------------
# Warning log


class WarningLogEntry(NamedTuple):
    document_id: str
    case_id: str | None
    stage: str
    severity: str
    code: str
    message: str
    ts: str


class WarningLog:
    """Append-only, thread-safe warning collector; every entry is stamped
    with ``ts``, the run's timestamp."""

    def __init__(self, ts: str):
        self.ts = ts
        self._entries: list[WarningLogEntry] = []
        self._lock = threading.Lock()

    @property
    def entries(self) -> tuple[WarningLogEntry, ...]:
        return tuple(self._entries)

    def log(
        self,
        *,
        document_id: str,
        stage: str,
        severity: str,
        code: str,
        message: str,
        case_id: str | None = None,
    ) -> WarningLogEntry:
        if stage not in STAGES:
            raise ValueError(f"unknown warning stage: {stage!r}")
        if severity not in SEVERITIES:
            raise ValueError(f"unknown warning severity: {severity!r}")
        if code not in WARNING_CODES:
            raise ValueError(f"unknown warning code: {code!r}")
        entry = WarningLogEntry(
            document_id=document_id,
            case_id=case_id,
            stage=stage,
            severity=severity,
            code=code,
            message=message,
            ts=self.ts,
        )
        with self._lock:
            self._entries.append(entry)
        return entry

    def counts_by_severity(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for entry in self._entries:
            counts[entry.severity] = counts.get(entry.severity, 0) + 1
        return counts

    def save(self, path: str | Path) -> int:
        """Write all entries sorted by a stable key (not arrival order), so
        concurrent runs produce identical files."""
        ordered = sorted(
            self._entries,
            key=lambda e: (e.document_id, e.case_id or "", e.stage, e.code, e.message),
        )
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8", newline="\n") as fh:
            for entry in ordered:
                fh.write(json.dumps(entry._asdict(), ensure_ascii=False))
                fh.write("\n")
        return len(ordered)
