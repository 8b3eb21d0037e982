"""Harmonization: map per-source keys onto the canonical record shape.

Inputs arrive as flat ``{source key: raw value}`` maps: the rule path's
draft keys and the raw text its rules matched, or a model candidate's leaves
as ``flatten_leaves`` names them. Each key is renamed through the source's
mapping table and its value transformed into the record's leaf map, which is
what comes out. Missingness stays explicit: nothing here invents a fact, an
empty answer is null, and a value that fails its transform becomes null with
a warning rather than aborting the record.

Each mapping table compiles a plan on first use, and again only when a call
brings a different schema. For every source key it holds the target path,
the transform function, the max-side sibling path and the integer or decimal
kind a pass-through value is coerced to, so a call looks each key up once and
builds no per-output dict.

Unit conversions use exact integer arithmetic (half-up rounding) so results
do not drift with float representation: inches x 2.54 -> whole centimeters,
pounds x 0.45359237 -> whole kilograms.
"""

from __future__ import annotations

import re
from datetime import datetime
from pathlib import Path
from typing import Any, Callable, Mapping, NamedTuple

from casepipe.config import ConfigError, read_jsonl
from casepipe.schema import (
    HEIGHT_RANGE_CM,
    KIND_DECIMAL,
    KIND_INTEGER,
    KIND_LIST,
    KIND_SECTION,
    SEX_VALUES,
    STATUS_VALUES,
    WEIGHT_RANGE_KG,
    LeafMap,
    SchemaDefinition,
    parse_iso_timestamp,
)

WarnFn = Callable[[str, str], None]

TRANSFORM_NONE = "none"
TRANSFORM_TIMESTAMP = "timestamp"
TRANSFORM_HEIGHT = "height"
TRANSFORM_WEIGHT = "weight"
TRANSFORM_SEX = "sex_enum"
TRANSFORM_STATUS = "status_enum"
TRANSFORM_PLACE = "place_parts"
TRANSFORM_CUES = "cue_list"
TRANSFORMS = (
    TRANSFORM_NONE,
    TRANSFORM_TIMESTAMP,
    TRANSFORM_HEIGHT,
    TRANSFORM_WEIGHT,
    TRANSFORM_SEX,
    TRANSFORM_STATUS,
    TRANSFORM_PLACE,
    TRANSFORM_CUES,
)

_TS_PATHS = ("temporal.last_seen_ts", "temporal.reported_missing_ts", "outcome.status_ts")
_OFFSET_RE = re.compile(r"^[+-]\d{2}:\d{2}$")
_US_DATE_RE = re.compile(r"^(\d{1,2})/(\d{1,2})/(\d{4})$")

# Month numbers by lowercased name, as datetime.strptime's %B (full names)
# and %b (abbreviations) read them in the C locale, the only one casepipe
# runs in (it never calls setlocale).
_MONTHS = (
    "january", "february", "march", "april", "may", "june",
    "july", "august", "september", "october", "november", "december",
)
_FULL_MONTHS = {name: number for number, name in enumerate(_MONTHS, 1)}
_ANY_MONTHS = {name[:3]: number for name, number in _FULL_MONTHS.items()} | _FULL_MONTHS

# The formats "%B %d, %Y", "%b %d, %Y" and "%B %d %Y" in one pass, spaced as
# strptime spaces them (\s+ for each space), with its day forms, four digits
# for the year and nothing left over. strptime's month is a name that the
# text up to the first space equals but for case; that holds exactly when
# the text lowercased is the name (a name matched only through case folding,
# as "Auguſt" is, is not in strptime's table either).
_LONG_DATE_RE = re.compile(r"(\S+)\s+(3[0-1]|[1-2]\d|0[1-9]|[1-9]| [1-9])(,?)\s+(\d\d\d\d)")

_HEIGHT_TOKEN_RE = re.compile(r"(\d+)\s*'\s*(\d{1,2})\s*(?:\"|'')?")
_WEIGHT_RE = re.compile(
    r"^(\d+)(?:\s*(?:-|to)\s*(\d+))?\s*(?:lbs?\.?|pounds)$", re.IGNORECASE
)
_PLACE_RE = re.compile(
    r"^([^,]+?),\s*([A-Za-z][A-Za-z .'-]*?)(?:\s+(\d{5}(?:-\d{4})?))?$"
)
_INT_RE = re.compile(r"^[+-]?\d+$")
_INDEXED_KEY_RE = re.compile(r"^(.+)\.(\d+)$")

_SEX_ALIASES = {"f": "female", "m": "male", "u": "unknown"}


class MappingTable:
    """Key mappings for one source: draft key -> (target path, transform)."""

    def __init__(
        self,
        source_label: str,
        rows: Mapping[str, tuple[str, str]],
        tz_default: str | None = None,
    ) -> None:
        self.source_label = source_label
        self.rows = rows
        self.tz_default = tz_default
        self._plan: tuple[SchemaDefinition, dict[str, _Step]] | None = None

    def plan(self, schema: SchemaDefinition) -> dict[str, _Step]:
        """Each row compiled against ``schema``; built on first use and kept
        for the last schema given. Racing threads build equal plans."""
        cached = self._plan
        if cached is None or cached[0] is not schema:
            cached = self._plan = (schema, _compile_plan(self, schema))
        return cached[1]


class HarmonizedRecord(NamedTuple):
    record: LeafMap
    key_trace: tuple[tuple[str, str], ...]


def load_mapping_table(
    path: str | Path, source_label: str, schema: SchemaDefinition
) -> MappingTable:
    """The mapping table in ``path``. Its ``tz_default`` is stamped into
    temporal.timezone, so it must pass ``schema``'s check of that field."""
    rows: dict[str, tuple[str, str]] = {}
    tz_default = None
    for rec in read_jsonl(path):
        if "meta" in rec:
            meta = rec["meta"]
            if not isinstance(meta, dict):
                raise ConfigError(f"{path}: meta must be an object, not {meta!r}")
            tz_default = meta.get("tz_default")
            if not isinstance(tz_default, (str, type(None))):
                raise ConfigError(f"{path}: tz_default must be a string, not {tz_default!r}")
            continue
        source_key = rec.get("source_key")
        target_path = rec.get("target_path")
        transform = rec.get("transform", TRANSFORM_NONE)
        if not all(isinstance(key, str) and key for key in (source_key, target_path)):
            raise ConfigError(f"{path}: mapping row needs source_key and target_path")
        if transform not in TRANSFORMS:
            raise ConfigError(f"{path}: unknown transform {transform!r}")
        if source_key in rows:
            raise ConfigError(f"{path}: duplicate source_key {source_key!r}")
        rows[source_key] = (target_path, transform)
    if not rows:
        raise ConfigError(f"no mapping rows in {path}")
    if tz_default is not None:
        violations = schema.field_violations("temporal.timezone", tz_default)
        if violations:
            message = f"{path}: tz_default {tz_default!r} fails temporal.timezone"
            raise ConfigError(f"{message}: {violations[0].message}")
    return MappingTable(source_label=source_label, rows=rows, tz_default=tz_default)


def load_mapping_dir(directory: str | Path, schema: SchemaDefinition) -> dict[str, MappingTable]:
    """Load ``<source_label>.jsonl`` mapping tables from a directory, each
    checked against ``schema``."""
    directory = Path(directory)
    tables = {}
    for path in sorted(directory.glob("*.jsonl")):
        label = path.stem
        tables[label] = load_mapping_table(path, label, schema)
    if not tables:
        raise ConfigError(f"no mapping tables in {directory}")
    return tables


def identity_table(schema: SchemaDefinition, tz_default: str | None = None) -> MappingTable:
    """Canonical-path passthrough for model candidates, with type transforms."""
    rows: dict[str, tuple[str, str]] = {}
    for entry in schema.entries:
        path = entry.field_path
        if entry.kind == KIND_SECTION or path.startswith("provenance"):
            continue
        if path in _TS_PATHS:
            transform = TRANSFORM_TIMESTAMP
        elif path == "demographic.sex":
            transform = TRANSFORM_SEX
        elif path == "outcome.status":
            transform = TRANSFORM_STATUS
        elif entry.kind == KIND_LIST:
            transform = TRANSFORM_CUES
        else:
            transform = TRANSFORM_NONE
        rows[path] = (path, transform)
    return MappingTable(source_label="identity", rows=rows, tz_default=tz_default)


# ---------------------------------------------------------------------------
# Value transforms


def _in_to_cm(inches: int) -> int:
    return (inches * 254 + 50) // 100


def _lb_to_kg(pounds: int) -> int:
    return (pounds * 45359237 + 50_000_000) // 100_000_000


def normalize_height(raw: str) -> tuple[int, int] | None:
    """Feet-and-inches text (single value or range) to whole centimeters.

    Returns (min_cm, max_cm), or None when the text cannot be read or the
    result falls outside plausible human bounds.
    """
    if not isinstance(raw, str):
        return None
    tokens = _HEIGHT_TOKEN_RE.findall(raw)
    if len(tokens) == 1:
        feet, inches = (int(x) for x in tokens[0])
        value = _in_to_cm(feet * 12 + inches)
        pair = (value, value)
    elif len(tokens) == 2:
        values = [_in_to_cm(int(f) * 12 + int(i)) for f, i in tokens]
        pair = (values[0], values[1])
    else:
        return None
    lo, hi = HEIGHT_RANGE_CM
    if pair[0] > pair[1] or pair[0] < lo or pair[1] > hi:
        return None
    return pair


def normalize_weight(raw: str) -> tuple[int, int] | None:
    """Pounds text (single value or range) to whole kilograms."""
    if not isinstance(raw, str):
        return None
    m = _WEIGHT_RE.match(raw.strip())
    if m is None:
        return None
    first = _lb_to_kg(int(m.group(1)))
    second = _lb_to_kg(int(m.group(2))) if m.group(2) else first
    pair = (first, second)
    lo, hi = WEIGHT_RANGE_KG
    if pair[0] > pair[1] or pair[0] < lo or pair[1] > hi:
        return None
    return pair


def normalize_timestamp(raw: str, tz_default: str | None = None) -> tuple[str, str] | None:
    """Normalize a source timestamp to ISO-8601 without shifting the clock.

    Returns (iso_text, precision) where precision is "date" or "datetime".
    Date-only inputs stay date-only. A naive datetime gets ``tz_default``
    appended only when the default is an offset string; named zones are
    context the temporal.timezone field carries instead.
    """
    if not isinstance(raw, str):
        return None
    text = raw.strip()
    if not text:
        return None
    parsed = parse_iso_timestamp(text)
    if parsed is not None:
        value, precision = parsed
        if precision == "date":
            return value.isoformat(), precision
        iso = value.isoformat()
        if value.tzinfo is None and tz_default and _OFFSET_RE.match(tz_default):
            iso += tz_default
        return iso, precision
    m = _US_DATE_RE.match(text)
    if m is not None:
        month, day, year = (int(x) for x in m.groups())
        try:
            return datetime(year, month, day).date().isoformat(), "date"
        except ValueError:
            return None
    m = _LONG_DATE_RE.fullmatch(text)
    if m is None:
        return None
    name, day, comma, year = m.groups()
    # Only a full month name may go without the comma.
    month = (_ANY_MONTHS if comma else _FULL_MONTHS).get(name.lower())
    if month is None:
        return None
    try:
        return datetime(int(year), month, int(day)).date().isoformat(), "date"
    except ValueError:
        return None


def parse_place_parts(raw: str) -> tuple[str | None, str | None, str | None]:
    """Split "City, State [ZIP]" into parts; anything else returns all None."""
    if not isinstance(raw, str):
        return (None, None, None)
    m = _PLACE_RE.match(raw.strip())
    if m is None:
        return (None, None, None)
    city, state, postal = m.groups()
    return (city.strip(), state.strip(), postal)


def _sex_value(raw: str) -> str | None:
    token = raw.strip().casefold()
    if token in SEX_VALUES:
        return token
    return _SEX_ALIASES.get(token)


def _status_value(raw: str) -> str | None:
    token = raw.strip().casefold()
    return token if token in STATUS_VALUES else None


def _cue_values(raw: Any) -> list[str]:
    items = raw if isinstance(raw, list) else [raw]
    return [item.strip() for item in items if isinstance(item, str) and item.strip()]


# ---------------------------------------------------------------------------
# Harmonization core
#
# Each transform takes (raw, target, sibling, tz_default, warn) and returns
# its outputs as (path, value) pairs. ``sibling`` is the max-side path that
# height and weight also fill; it is None when it would equal ``target``.


def _sibling(path: str) -> str:
    return path.replace("_min_", "_max_")


def _range_outputs(normalize: Callable[[Any], tuple[int, int] | None], code: str):
    def outputs(raw, target, sibling, tz_default, warn):
        pair = normalize(raw)
        if pair is None:
            warn(code, f"{target}: cannot read {raw!r}")
            pair = (None, None)
        if sibling is None:
            return ((target, pair[1]),)
        return ((target, pair[0]), (sibling, pair[1]))

    return outputs


def _enum_outputs(read: Callable[[str], str | None]):
    def outputs(raw, target, sibling, tz_default, warn):
        value = read(raw) if isinstance(raw, str) else None
        if value is None:
            warn("bad_enum_value", f"{target}: cannot read {raw!r}")
        return ((target, value),)

    return outputs


def _timestamp_outputs(raw, target, sibling, tz_default, warn):
    result = normalize_timestamp(raw, tz_default) if isinstance(raw, str) else None
    if result is None:
        warn("unparseable_timestamp", f"{target}: cannot read {raw!r}")
        return ((target, None),)
    return ((target, result[0]),)


def _place_outputs(raw, target, sibling, tz_default, warn):
    if not isinstance(raw, str) or not raw.strip():
        return ()
    city, state, postal = parse_place_parts(raw)
    location = ("spatial.last_seen_location", raw.strip())
    if city is None:
        return (location,)
    if postal is None:
        return (location, ("spatial.city", city), ("spatial.state", state))
    return (
        location,
        ("spatial.city", city),
        ("spatial.state", state),
        ("spatial.postal_code", postal),
    )


def _cue_outputs(raw, target, sibling, tz_default, warn):
    return ((target, _cue_values(raw)),)


# None marks "none", which the harmonize loop runs inline with its coercion.
# A name not listed here, which only a hand-built table can carry, passes the
# raw value through inline too, but uncoerced.
_TRANSFORM_FNS: dict[str, Callable[..., tuple[tuple[str, Any], ...]] | None] = {
    TRANSFORM_NONE: None,
    TRANSFORM_TIMESTAMP: _timestamp_outputs,
    TRANSFORM_HEIGHT: _range_outputs(normalize_height, "unparseable_height"),
    TRANSFORM_WEIGHT: _range_outputs(normalize_weight, "unparseable_weight"),
    TRANSFORM_SEX: _enum_outputs(_sex_value),
    TRANSFORM_STATUS: _enum_outputs(_status_value),
    TRANSFORM_PLACE: _place_outputs,
    TRANSFORM_CUES: _cue_outputs,
}

# One mapping row, compiled: (target, transform function or None, sibling
# path or None, integer/decimal kind to coerce to or None).
_Step = tuple[str, Any, str | None, str | None]


def _compile_plan(mappings: MappingTable, schema: SchemaDefinition) -> dict[str, _Step]:
    plan: dict[str, _Step] = {}
    for source_key, (target, transform) in mappings.rows.items():
        sibling: str | None = _sibling(target)
        if sibling == target:
            sibling = None
        coerce_kind = None
        if transform == TRANSFORM_NONE:
            entry = schema.entry(target)
            if entry is not None and entry.kind in (KIND_INTEGER, KIND_DECIMAL):
                coerce_kind = entry.kind
        plan[source_key] = (target, _TRANSFORM_FNS.get(transform), sibling, coerce_kind)
    return plan


def _coerce(value: Any, kind: str, path: str, warn: WarnFn) -> Any:
    if value is None:
        return None
    if kind == KIND_INTEGER:
        if type(value) is int:
            return value
        if isinstance(value, str) and _INT_RE.match(value.strip()):
            return int(value.strip())
        if isinstance(value, float) and value.is_integer():
            return int(value)
        warn("uncoercible_value", f"{path}: cannot coerce {value!r} to integer")
        return None
    if kind == KIND_DECIMAL:
        if type(value) in (int, float):
            return value
        if isinstance(value, str):
            try:
                return float(value.strip())
            except ValueError:
                pass
        warn("uncoercible_value", f"{path}: cannot coerce {value!r} to number")
        return None
    return value


def _group_lists(flat: Mapping[str, Any]) -> dict[str, Any]:
    """``flat`` with its indexed keys (list elements) grouped back into
    ordered lists. Only a key ending in a digit, or in a newline that ``$``
    may stand before, can be one, so the pattern runs on those alone."""
    grouped: dict[str, Any] = {}
    lists: dict[str, list[tuple[int, Any]]] = {}
    for key, value in flat.items():
        last = key[-1:]
        m = _INDEXED_KEY_RE.match(key) if last.isdecimal() or last == "\n" else None
        if m is not None:
            lists.setdefault(m.group(1), []).append((int(m.group(2)), value))
        else:
            grouped[key] = value
    for base, items in lists.items():
        grouped[base] = [value for _, value in sorted(items, key=lambda kv: kv[0])]
    return grouped


def harmonize(
    source: Mapping[str, Any],
    mappings: MappingTable,
    schema: SchemaDefinition,
    *,
    on_warning: WarnFn | None = None,
) -> HarmonizedRecord:
    """Produce a canonical record candidate's ``LeafMap`` from draft or
    model output.

    ``source`` is flat, ``{source key: raw value}``; a list comes in as
    indexed keys (``path.0``), grouped back here. A raw ``""`` is null, as
    ``None`` is, and no transform sees it.

    Defaults fill fields whose absence has a defined meaning (status
    missing, sex unknown, no movement cues, no geocode); the other leaves
    stay absent, and so null. ``assemble_record(record, schema)`` nests the
    result's ``record`` with every section present. The result carries a
    source-key -> target-path trace so provenance can follow renames.
    """
    warn: WarnFn = on_warning if on_warning is not None else (lambda code, msg: None)
    plan = mappings.plan(schema)
    tz_default = mappings.tz_default
    flat = _group_lists(source)
    values = LeafMap()
    trace: list[tuple[str, str]] = []

    for source_key in sorted(flat):
        raw = flat[source_key]
        step = plan.get(source_key)
        if step is None:
            if raw in (None, "", [], {}):
                continue
            warn("unmapped_key", f"no mapping for {source_key!r}; value dropped")
            continue
        target, outputs_of, sibling, coerce_kind = step
        if raw is None or raw == "":
            values.setdefault(target, None)
            continue
        if outputs_of is None:
            if coerce_kind is not None:
                raw = _coerce(raw, coerce_kind, target, warn)
            outputs: tuple[tuple[str, Any], ...] = ((target, raw),)
        else:
            outputs = outputs_of(raw, target, sibling, tz_default, warn)
        for out_path, out_value in outputs:
            current = values.get(out_path)
            if current is not None:
                if out_value is not None and out_value != current:
                    warn(
                        "duplicate_target",
                        f"{out_path}: already set; ignoring value from {source_key!r}",
                    )
                continue
            values[out_path] = out_value
            trace.append((source_key, out_path))

    _apply_defaults(values, tz_default)
    return HarmonizedRecord(record=values, key_trace=tuple(trace))


def _apply_defaults(values: dict[str, Any], tz_default: str | None) -> None:
    if values.get("outcome.status") is None:
        values["outcome.status"] = "missing"
    if values.get("demographic.sex") is None:
        values["demographic.sex"] = "unknown"
    if not values.get("narrative_osint.movement_cues"):
        values["narrative_osint.movement_cues"] = []
    if values.get("spatial.geocode_method") is None:
        values["spatial.geocode_method"] = "none"
    if values.get("temporal.timezone") is None and tz_default:
        if any(values.get(path) for path in _TS_PATHS):
            values["temporal.timezone"] = tz_default
