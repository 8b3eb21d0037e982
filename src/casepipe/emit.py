"""Output artifacts: canonical JSONL, flattened CSV, and the warning log.

Both files produced by a run carry the same records in the same order; the
CSV is a lossless flattening of the JSONL under the schema (dot-path columns,
lists indexed numerically, empty string for null). Key order in JSON output
is the schema's canonical order, which by construction is plain lexicographic
order at every nesting level. A run adds each record, as its leaf map, to
its path's RecordBuffer where it finishes it (``RecordBuffer.add``, the one
way into a buffer), which encodes the record at once by the schema's
record plan, the JSON line and the CSV cells in one walk, and keeps its
output text, not the record. ``_cells``, the formatted leaves of
``schema.flatten_leaves``, takes a record the plan does not cover, and is
the reference the plan walk is tested against. The ``write_records_*``
writers stream a buffer's text to disk, in the process that keeps it; they
are the only way records are written.

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
    PLAN_LIST,
    PLAN_SCALAR,
    SchemaDefinition,
    assemble_record,
    flatten_leaves,
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
    "unmapped_key": "source key had no mapping row and was dropped",
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


# A str's JSON text as ``canonical_json`` writes it (``ensure_ascii`` off).
_encode_str = json.encoder.encode_basestring


class RecordBuffer:
    """Finished records held as their output text, in the order added.

    ``add``, the one way in, takes a record as its leaf map, encodes it at
    once and keeps its row, not the record: its ``case_id``, its canonical
    JSON line, and the cells ``_cells`` gives of the record it nests into,
    as one flat tuple of column, text pairs in that order. Both come from
    one walk of the schema's record plan (``_encoded``), which fills the
    JSON line's template and names each cell by its leaf's path. A leaf map
    the plan does not cover, with a value no pipeline record holds, such as
    a dict where a scalar goes, is nested by ``assemble_record`` and takes
    ``canonical_json`` and ``_cells`` instead. Texts, and the columns of
    list elements and field origins, are shared through the buffer's dicts,
    so it holds each distinct one, such as a field-origin offset, once.
    """

    __slots__ = ("schema", "rows", "_strings", "_ints", "_columns")

    def __init__(self, schema: SchemaDefinition) -> None:
        self.schema = schema
        self.rows: list[tuple[Any, str, tuple[str, ...]]] = []
        self._strings: dict[str, str] = {}
        self._ints: dict[int, str] = {}
        # A list's path, or an open map's path and key -> its elements' columns.
        self._columns: dict[str, tuple[str, ...]] = {}

    def add(self, leaves: Mapping[str, Any]) -> None:
        """Encode the record whose leaf map is ``leaves`` and keep its row."""
        row = self._encoded(leaves)
        if row is None:
            record = assemble_record(leaves, self.schema)
            cells = tuple(chain.from_iterable(_cells(record).items()))
            row = canonical_json(record), tuple(map(self._strings.setdefault, cells, cells))
        self.rows.append((leaves.get("case_id"), *row))

    def sort(self) -> None:
        """Order the rows by case_id."""
        self.rows.sort(key=itemgetter(0))

    def _encoded(self, leaves: Mapping[str, Any]) -> tuple[str, tuple[str, ...]] | None:
        """The JSON line and cells of ``leaves`` from the record plan; None
        for a leaf map it does not cover: one holding other than a str, int,
        float, bool or None at a scalar, a list of them at a list, or a map
        of str keys to lists of them at an open map, each of exact type, or
        whose schema has no JSON template."""
        steps, template = self.schema.record_plan
        if template is None:
            return None
        get, share = leaves.get, self._strings.setdefault
        texts: list[str] = []
        cells: list[str] = []
        for path, kind, _ in steps:
            value = get(path)
            if kind == PLAN_SCALAR:
                if value.__class__ is str:
                    json_text, text = _encode_str(value), value
                elif value is None:
                    json_text, text = "null", ""
                else:
                    scalar = _scalar(value)
                    if scalar is None:
                        return None
                    json_text, text = scalar
                texts.append(json_text)
                cells.append(path)
                cells.append(share(text, text))
            elif not value:  # as assemble_record makes it: [] or {}
                texts.append("[]" if kind == PLAN_LIST else "{}")
            elif kind == PLAN_LIST:
                json_text = self._listed(path, value, cells)
                if json_text is None:
                    return None
                texts.append(json_text)
            else:
                if value.__class__ is not dict or not all(k.__class__ is str for k in value):
                    return None
                pairs = []
                for key in sorted(value):
                    json_text = self._listed(f"{path}.{key}", value[key], cells)
                    if json_text is None:
                        return None
                    pairs.append(f"{_encode_str(key)}: {json_text}")
                texts.append("{" + ", ".join(pairs) + "}")
        return template % tuple(texts), tuple(cells)

    def _listed(self, stem: str, values: Any, cells: list[str]) -> str | None:
        """A list of scalars' JSON text, adding each element's cell under
        ``stem``; None, having added some, for anything else. An int's
        text, such as a field-origin offset, is made once."""
        if values.__class__ is not list:
            return None
        columns = self._columns.get(stem, ())
        if len(columns) < len(values):
            columns = self._columns[stem] = _indexed(stem, len(values))
        ints, share = self._ints, self._strings.setdefault
        texts = []
        for column, value in zip(columns, values):
            if value.__class__ is int:
                json_text = text = ints.get(value)
                if text is None:
                    json_text = text = ints[value] = int.__repr__(value)
            else:
                scalar = _scalar(value)
                if scalar is None:
                    return None
                json_text, text = scalar[0], share(scalar[1], scalar[1])
            texts.append(json_text)
            cells.append(column)
            cells.append(text)
        return "[" + ", ".join(texts) + "]"


# JSON's spelling of the floats that repr spells "nan", "inf" and "-inf".
_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _scalar(value: Any) -> tuple[str, str] | None:
    """A scalar's JSON text and cell text, as ``canonical_json`` and
    ``_format_cell`` give them; None for any other value, or a subclass."""
    cls = value.__class__
    if cls is str:
        return _encode_str(value), value
    if cls is int:
        text = int.__repr__(value)
        return text, text
    if value is None:
        return "null", ""
    if cls is bool:
        return ("true", "true") if value else ("false", "false")
    if cls is float:
        text = float.__repr__(value)
        return _JSON_FLOATS.get(text, text), text
    return None


def _indexed(stem: str, count: int) -> tuple[str, ...]:
    """The columns of a list's first ``count`` elements under ``stem``."""
    return tuple(f"{stem}.{index}" for index in range(count))


def write_records_jsonl(path: str | Path, buffer: RecordBuffer) -> int:
    """One canonical JSON object per line, UTF-8, LF. Returns the line count."""
    rows = buffer.rows
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
    """flatten_record's cells: the leaves of flatten_leaves, formatted. An
    empty list or dict has no cell."""
    return {
        path: _format_cell(value)
        for path, value in flatten_leaves(record).items()
        if not isinstance(value, (list, dict))
    }


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


def write_records_csv(path: str | Path, buffer: RecordBuffer, schema: SchemaDefinition) -> int:
    """All records as one CSV with union columns in canonical order."""
    columns = dict.fromkeys(chain.from_iterable(cells[::2] for _, _, cells in buffer.rows))
    ordered = column_order(columns, schema)
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
