"""Case record schema: definition, path resolution, and validation.

The schema is data, not code. The record shape is defined once, in the
bundled ``data/schema.jsonl``; ``default_schema()`` loads it on first use
and shares it. Any file in that format can stand in for it, so deployments
can evolve the record shape without touching the validator. Only the
cross-field consistency rules live here in code, and each runs only where
the schema defines every path it reads. This module alone knows the file's
row format; everything else reads ``SchemaDefinition.entries``.

A record is a nested dict of plain JSON types. Fields are addressed by dot
paths ("demographic.name", "narrative_osint.movement_cues.0"). Missingness is
explicit: a populated record carries all six sections as keys even when every
field inside is null. A pipeline record is kept flat, as its ``LeafMap``,
until it is written; ``assemble_record`` nests one, ``record_leaves`` takes
one back from a nested record.

Validation reports every violation it finds (it never stops at the first) and
is pure: the candidate is not modified, and validating twice gives the same
report. It walks a plan compiled once per schema, on the first validate: one
check per field path with its pattern compiled, and for each section a map
from every descendant's relative path to its check, so a dotted key is
checked as the field it spells, and a leaf map's leaves are checked alike.
assemble_record and the llm path's sanitizer likewise use steps and entry
maps built once per schema.
"""

from __future__ import annotations

import json
import re
from datetime import date, datetime
from functools import cache, cached_property, partial
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, NamedTuple

from casepipe.config import ConfigError, bundled_path, read_jsonl, write_jsonl

# Field kinds a schema entry may declare.
KIND_STRING = "string"
KIND_INTEGER = "integer"
KIND_DECIMAL = "decimal"
KIND_BOOLEAN = "boolean"
KIND_ENUM = "enum"
KIND_LIST = "list"
KIND_SECTION = "section"
_KINDS = (
    KIND_STRING,
    KIND_INTEGER,
    KIND_DECIMAL,
    KIND_BOOLEAN,
    KIND_ENUM,
    KIND_LIST,
    KIND_SECTION,
)

# Violation codes, the full closed set.
MISSING_REQUIRED = "missing_required"
WRONG_TYPE = "wrong_type"
OUT_OF_RANGE = "out_of_range"
BAD_ENUM = "bad_enum"
BAD_PATTERN = "bad_pattern"
BAD_TIMESTAMP = "bad_timestamp"
UNKNOWN_KEY = "unknown_key"
VIOLATION_CODES = (
    MISSING_REQUIRED,
    WRONG_TYPE,
    OUT_OF_RANGE,
    BAD_ENUM,
    BAD_PATTERN,
    BAD_TIMESTAMP,
    UNKNOWN_KEY,
)

# Sentinel pattern value marking a string field as an ISO-8601 timestamp.
# Timestamp fields get the bad_timestamp code instead of bad_pattern.
ISO_TIMESTAMP = "<iso8601>"

# Values other modules check against without a schema at hand. Each equals
# its entry's enum_values or range in data/schema.jsonl; a test pins them.
HEIGHT_RANGE_CM = (30, 250)
WEIGHT_RANGE_KG = (1, 400)
LAT_RANGE = (-90.0, 90.0)
LON_RANGE = (-180.0, 180.0)
SEX_VALUES = ("female", "male", "unknown")
STATUS_VALUES = ("missing", "located", "deceased", "unknown")
SOURCE_FAMILIES = ("registry_form", "bulletin", "narrative_profile", "unknown")

_PATH_RE = re.compile(r"^[^.\s]+(?:\.[^.\s]+)*$")

# assemble_record's step kind for a section with a key pattern (an open map).
_OPEN_MAP = "open_map"

# The kinds of a record plan's leaves: a scalar, a list, an open map.
PLAN_SCALAR, PLAN_LIST, PLAN_MAP = 0, 1, 2


class PathSyntaxError(ValueError):
    """A dot path is syntactically malformed (empty segment or whitespace)."""


class _Absent:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - repr only
        return "<absent>"


#: Returned by resolve_path when the path does not exist in the record.
#: Distinct from None, which is a stored null.
ABSENT = _Absent()


class _EntryFields(NamedTuple):
    field_path: str
    kind: str
    required: bool = False
    enum_values: tuple[str, ...] | None = None
    numeric_range: tuple[float | None, float | None] | None = None
    pattern: str | None = None


class SchemaEntry(_EntryFields):
    """One field (or section) of the record shape.

    pattern semantics: a regular expression applied with re.search to string
    values, or to each element of a list field. The sentinel value
    ISO_TIMESTAMP marks the field as an ISO-8601 date or datetime instead.
    On a section entry, a pattern marks the section as an open map: keys must
    match the pattern and name schema leaf fields; values are origin triples
    (segment_index, char_start, char_end).
    """

    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> SchemaEntry:
        self = super().__new__(cls, *args, **kwargs)
        if not _PATH_RE.match(self.field_path):
            raise ConfigError(f"bad field path: {self.field_path!r}")
        if self.kind not in _KINDS:
            raise ConfigError(f"{self.field_path}: unknown kind {self.kind!r}")
        if self.kind == KIND_ENUM and not self.enum_values:
            raise ConfigError(f"{self.field_path}: enum entry needs enum_values")
        if self.numeric_range is not None:
            lo, hi = self.numeric_range
            if lo is not None and hi is not None and lo > hi:
                raise ConfigError(f"{self.field_path}: range min exceeds max")
        if self.pattern is not None and self.pattern != ISO_TIMESTAMP:
            try:
                re.compile(self.pattern)
            except re.error as exc:
                raise ConfigError(f"{self.field_path}: bad pattern: {exc}") from exc
        return self


class LeafMap(dict):
    """A record in its flat form, ``{leaf path: value}``, lists and open maps
    whole, sections implied; a leaf it lacks is null."""

    __slots__ = ()


class ValidationViolation(NamedTuple):
    field_path: str
    code: str
    message: str


class ValidationReport(NamedTuple):
    valid: bool
    violations: tuple[ValidationViolation, ...]

    def codes(self) -> list[tuple[str, str]]:
        return [(v.field_path, v.code) for v in self.violations]


class SchemaDefinition:
    """An ordered, immutable set of schema entries.

    Entries are normalized to lexicographic field-path order; that same order
    is the canonical key order for every serialization of records built
    against the schema, and the byte order of the schema file itself. Two
    definitions with equal entries are equal.
    """

    def __init__(self, entries: Iterable[SchemaEntry] = ()) -> None:
        ordered = tuple(sorted(entries, key=attrgetter("field_path")))
        by_path: dict[str, SchemaEntry] = {}
        for entry in ordered:
            if entry.field_path in by_path:
                raise ConfigError(f"duplicate schema entry: {entry.field_path}")
            by_path[entry.field_path] = entry
        for entry in ordered:
            parent = _parent_path(entry.field_path)
            if parent is None:
                continue
            parent_entry = by_path.get(parent)
            if parent_entry is None or parent_entry.kind != KIND_SECTION:
                raise ConfigError(
                    f"{entry.field_path}: parent {parent!r} is not a section"
                )
        self.entries = ordered
        self._by_path = by_path

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SchemaDefinition):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    # -- lookup helpers -----------------------------------------------------

    def entry(self, path: str) -> SchemaEntry | None:
        return self._by_path.get(path)

    def field_violations(self, path: str, value: Any) -> list[ValidationViolation]:
        """What ``validate`` reports of a non-null ``value`` at the leaf
        ``path`` alone; nothing where the schema has no such leaf."""
        entry = self._by_path.get(path)
        out: list[ValidationViolation] = []
        if entry is not None and entry.kind != KIND_SECTION:
            _leaf_check(entry)(value, out)
        return out

    def has_path(self, path: str) -> bool:
        return path in self._by_path

    def leaf_paths(self) -> list[str]:
        return [e.field_path for e in self.entries if e.kind != KIND_SECTION]

    def section_paths(self) -> list[str]:
        return [e.field_path for e in self.entries if e.kind == KIND_SECTION]

    def required_paths(self) -> list[str]:
        return [e.field_path for e in self.entries if e.required]

    def without_prefix(self, prefix: str) -> "SchemaDefinition":
        """A copy with the named top-level field and its children removed."""
        keep = tuple(
            e
            for e in self.entries
            if e.field_path != prefix and not e.field_path.startswith(prefix + ".")
        )
        return SchemaDefinition(keep)

    # -- serialization ------------------------------------------------------

    def to_records(self) -> list[dict[str, Any]]:
        records = []
        for e in self.entries:
            records.append(
                {
                    "field_path": e.field_path,
                    "kind": e.kind,
                    "required": e.required,
                    "enum_values": list(e.enum_values) if e.enum_values else None,
                    "range": list(e.numeric_range) if e.numeric_range else None,
                    "pattern": e.pattern,
                }
            )
        return records

    def save(self, path: str | Path) -> None:
        write_jsonl(path, self.to_records())

    @cached_property
    def records_text(self) -> str:
        """The rows ``save`` writes, joined by newlines, rendered once."""
        return "\n".join(json.dumps(row, ensure_ascii=False) for row in self.to_records())

    # -- compiled walks -----------------------------------------------------
    # Built on first use, then fixed for the schema's lifetime, so a run that
    # validates nothing compiles nothing. Two threads racing to build one
    # build equal values, and either may be kept.

    @cached_property
    def descendants(self) -> dict[str, dict[str, SchemaEntry]]:
        """The entries below each section, keyed by path relative to it.

        The record root is the section ``""``. Dotted relative keys ("b.c"
        under "a") are listed too, so looking a record's key up here finds
        exactly the entry its joined full path names.
        """
        below: dict[str, dict[str, SchemaEntry]] = {"": dict(self._by_path)}
        for entry in self.entries:
            if entry.kind == KIND_SECTION:
                below[entry.field_path] = {}
        for entry in self.entries:
            parts = entry.field_path.split(".")
            for i in range(1, len(parts)):
                below[".".join(parts[:i])][".".join(parts[i:])] = entry
        return below

    @cached_property
    def _creation_plan(self) -> tuple[tuple[str, str, str, str], ...]:
        """assemble_record's steps, every section before its children:
        (parent path, name, field path, kind or _OPEN_MAP)."""
        steps = []
        for entry in sorted(self.entries, key=lambda e: (e.field_path.count("."), e.field_path)):
            parent, _, name = entry.field_path.rpartition(".")
            open_map = entry.kind == KIND_SECTION and entry.pattern is not None
            kind = _OPEN_MAP if open_map else entry.kind
            steps.append((parent, name, entry.field_path, kind))
        return tuple(steps)

    @cached_property
    def _validation_plan(
        self,
    ) -> tuple[dict[str, _Check], tuple[str, ...], tuple[_Rule, ...], tuple[str, ...]]:
        """validate's checks by full path, the required paths, the
        cross-field rules whose paths this schema defines, and the required
        paths a leaf map can lack, its scalars."""
        cross_field = tuple(
            rule
            for paths, rule in _CROSS_FIELD_RULES
            if all(path in self._by_path for path in paths)
        )
        scalars = tuple(
            e.field_path for e in self.entries if e.required and e.kind not in _WHOLE_KINDS
        )
        return _compile_checks(self), tuple(self.required_paths()), cross_field, scalars

    @cached_property
    def record_plan(self) -> tuple[tuple[tuple[str, int, tuple[str, ...]], ...], str | None]:
        """A record's leaves, ``(path, kind, path segments)``, in the order
        of its JSON line and CSV cells: depth first, each section's keys
        sorted, as ``canonical_json`` sorts and ``assemble_record`` inserts
        them. With them, the JSON line's text around their values, as a
        ``%`` template with one ``%s`` per leaf; None for a schema with an
        entry below an open map, which ``assemble_record`` puts in the map.
        """
        children: dict[str, list[SchemaEntry]] = {}
        for entry in self.entries:
            children.setdefault(_parent_path(entry.field_path) or "", []).append(entry)
        steps: list[tuple[str, int, tuple[str, ...]]] = []
        text: list[str] = ["{"]
        below_a_map = False

        def walk(section: str) -> None:
            nonlocal below_a_map
            below = sorted(children.get(section, ()), key=lambda e: e.field_path.split(".")[-1])
            for index, entry in enumerate(below):
                parts = tuple(entry.field_path.split("."))
                key = json.dumps(parts[-1], ensure_ascii=False).replace("%", "%%")
                text.append(f"{', ' if index else ''}{key}: ")
                if entry.kind == KIND_SECTION and entry.pattern is None:
                    text.append("{")
                    walk(entry.field_path)
                    text.append("}")
                    continue
                kind = PLAN_LIST if entry.kind == KIND_LIST else PLAN_SCALAR
                if entry.kind == KIND_SECTION:
                    kind = PLAN_MAP
                steps.append((entry.field_path, kind, parts))
                text.append("%s")
                if entry.field_path in children:
                    below_a_map = True
                    walk(entry.field_path)

        walk("")
        text.append("}")
        return tuple(steps), None if below_a_map else "".join(text)

    @classmethod
    def from_records(cls, records: Iterable[Mapping[str, Any]]) -> "SchemaDefinition":
        entries = []
        for rec in records:
            try:
                entries.append(
                    SchemaEntry(
                        field_path=rec["field_path"],
                        kind=rec["kind"],
                        required=bool(rec.get("required", False)),
                        enum_values=(
                            tuple(rec["enum_values"]) if rec.get("enum_values") else None
                        ),
                        numeric_range=(
                            tuple(rec["range"]) if rec.get("range") else None
                        ),
                        pattern=rec.get("pattern"),
                    )
                )
            except KeyError as exc:
                raise ConfigError(f"schema record missing key {exc}") from exc
        return cls(tuple(entries))

    @classmethod
    def load(cls, path: str | Path) -> "SchemaDefinition":
        records = read_jsonl(path)
        try:
            return cls.from_records(records)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: bad schema row: {exc}") from exc


def _parent_path(path: str) -> str | None:
    if "." not in path:
        return None
    return path.rsplit(".", 1)[0]


@cache
def default_schema() -> SchemaDefinition:
    """The canonical case record shape: the bundled ``data/schema.jsonl``,
    loaded on the first call and shared by every later one."""
    return SchemaDefinition.load(bundled_path("schema.jsonl"))


# ---------------------------------------------------------------------------
# Path resolution


def split_path(path: str) -> list[str]:
    if not isinstance(path, str) or not _PATH_RE.match(path):
        raise PathSyntaxError(f"malformed field path: {path!r}")
    return path.split(".")


def resolve_path(record: Any, path: str) -> Any:
    """Resolve a dot path against a nested record.

    Returns the stored value (which may be None) or ABSENT when the path does
    not exist. Map keys that themselves contain dots (field origin keys) are
    matched greedily by trying progressively longer joins of the remaining
    segments. List segments must be decimal indices.
    """
    segments = split_path(path)
    return _resolve(record, segments)


def _resolve(node: Any, segments: list[str]) -> Any:
    if not segments:
        return node
    head, rest = segments[0], segments[1:]
    if isinstance(node, dict):
        if head in node:
            return _resolve(node[head], rest)
        # Dotted keys: try joining more segments into a single key.
        for take in range(1, len(rest) + 1):
            joined = ".".join([head] + rest[:take])
            if joined in node:
                return _resolve(node[joined], rest[take:])
        return ABSENT
    if isinstance(node, list):
        if not head.isdigit():
            return ABSENT
        index = int(head)
        if index >= len(node):
            return ABSENT
        return _resolve(node[index], rest)
    return ABSENT


def set_path(record: dict, path: str, value: Any) -> None:
    """Set a leaf value on a nested record, creating sections as needed.

    Only dict segments are created; a numeric segment indexes an existing
    list (list elements cannot be created here).
    """
    segments = split_path(path)
    node: Any = record
    for i, segment in enumerate(segments[:-1]):
        if isinstance(node, list) and segment.isdigit():
            node = node[int(segment)]
            continue
        if not isinstance(node, dict):
            raise PathSyntaxError(f"cannot descend into {'.'.join(segments[:i + 1])!r}")
        if segment not in node or not isinstance(node[segment], (dict, list)):
            node[segment] = {}
        node = node[segment]
    last = segments[-1]
    if isinstance(node, list) and last.isdigit():
        node[int(last)] = value
    elif isinstance(node, dict):
        node[last] = value
    else:
        raise PathSyntaxError(f"cannot set {path!r}")


def flatten_leaves(candidate: Any, prefix: str = "") -> dict[str, Any]:
    """All leaf values of a nested record keyed by dot path.

    Lists expand to numeric segments; empty dicts and lists are themselves
    leaves (there is nothing below them).
    """
    out: dict[str, Any] = {}
    _flatten_into(out, candidate, prefix)
    return out


def _flatten_into(out: dict[str, Any], candidate: Any, prefix: str) -> None:
    if isinstance(candidate, dict) and candidate:
        for key, value in candidate.items():
            _flatten_into(out, value, f"{prefix}.{key}" if prefix else str(key))
    elif isinstance(candidate, list) and candidate:
        for i, value in enumerate(candidate):
            _flatten_into(out, value, f"{prefix}.{i}" if prefix else str(i))
    else:
        out[prefix] = candidate


def record_leaves(record: Mapping[str, Any], schema: SchemaDefinition) -> LeafMap:
    """The leaf map of a nested record: each leaf of the record plan, null
    where the record lacks it or a section on its way."""
    leaves = LeafMap()
    for path, _, parts in schema.record_plan[0]:
        node: Any = record
        for part in parts:
            node = node.get(part) if node.__class__ is dict else None
        leaves[path] = node
    return leaves


def assemble_record(values: Mapping[str, Any], schema: SchemaDefinition) -> dict[str, Any]:
    """Build a nested record in canonical schema key order.

    ``values`` maps leaf dot paths (list fields may be given whole) to values.
    Every schema section and leaf appears in the output; leaves missing from
    ``values`` come out null, list fields come out empty, open-map sections
    come out as sorted dicts.
    """
    record: dict[str, Any] = {}
    sections: dict[str, dict[str, Any]] = {"": record}
    for parent, name, path, kind in schema._creation_plan:
        if kind == KIND_SECTION:
            sections[path] = sections[parent][name] = {}
        elif kind == _OPEN_MAP:
            given = values.get(path) or {}
            sections[path] = sections[parent][name] = {k: given[k] for k in sorted(given)}
        elif kind == KIND_LIST:
            value = values.get(path)
            sections[parent][name] = list(value) if value else []
        else:
            sections[parent][name] = values.get(path)
    return record


# ---------------------------------------------------------------------------
# Validation


def parse_iso_timestamp(value: str) -> tuple[date | datetime, str] | None:
    """Parse an ISO-8601 date or datetime. Returns (parsed, precision) or None."""
    if not isinstance(value, str) or not value:
        return None
    text = value.strip()
    if len(text) == 10:
        try:
            return date.fromisoformat(text), "date"
        except ValueError:
            return None
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        return datetime.fromisoformat(text), "datetime"
    except ValueError:
        return None


_Check = Callable[[Any, list], None]
# A cross-field rule: it reads the record's values through a lookup by path.
_Rule = Callable[[Callable[[str], Any], list], None]
# Entry kinds assemble_record always makes, so a leaf map cannot lack one:
# sections, open maps among them, and lists.
_WHOLE_KINDS = (KIND_SECTION, KIND_LIST)
_UNKNOWN_KEY_MESSAGE = "key is not defined by the schema"
_NOT_AN_OBJECT = "section must be an object"
_VALID = ValidationReport(True, ())
_REPORT_ORDER = attrgetter("field_path", "code")


def validate(candidate: Any, schema: SchemaDefinition) -> ValidationReport:
    """Check a candidate record against the schema, reporting all violations.

    The schema is strict: keys with no schema entry are unknown_key
    violations. Cross-field consistency rules (min/max pairs, lat/lon
    pairing, timestamp ordering, rule-path repair count) report out_of_range
    at the offending path; a rule runs only where the schema defines every
    path it reads. Violations come back ordered by (field_path, code);
    ties keep the order they were found in: required fields, then keys in
    dict order, then cross-field rules.

    A ``LeafMap`` takes the same walk: each key goes to the check of its
    full path, a nested section's through its section's check and a leaf
    map's leaf straight to its own, and the required and cross-field rules
    read its leaves by path. It is the record ``assemble_record`` makes of
    it, so only a scalar leaf of it can be missing, and a key outside the
    schema is left out, not unknown.
    """
    checks, required, cross_field, scalars = schema._validation_plan
    flat = candidate.__class__ is LeafMap
    if flat:
        get, required = candidate.get, scalars
    elif isinstance(candidate, dict):
        get = partial(_lookup, candidate)
    else:
        return ValidationReport(
            False, (ValidationViolation("", WRONG_TYPE, "record must be an object"),)
        )
    out: list[ValidationViolation] = []
    for path in required:
        if get(path) is None:
            out.append(
                ValidationViolation(path, MISSING_REQUIRED, "required field is missing or null")
            )
    for key, value in candidate.items():
        path = key if key.__class__ is str else str(key)
        check = checks.get(path)
        if check is None:
            if not flat:
                out.append(ValidationViolation(path, UNKNOWN_KEY, _UNKNOWN_KEY_MESSAGE))
        elif value is not None:
            # Required sections are reported by the missing-required pass.
            check(value, out)
    for rule in cross_field:
        rule(get, out)
    if not out:
        return _VALID
    out.sort(key=_REPORT_ORDER)
    return ValidationReport(False, tuple(out))


def _lookup(candidate: dict, path: str) -> Any:
    """``resolve_path(candidate, path)`` for a literal path, None when absent.

    One- and two-segment paths, which are all the default schema's required
    and cross-field paths, are looked up directly: a present head hides a
    dotted key spelling the whole path, as it does in _resolve.
    """
    head, dot, tail = path.partition(".")
    if not dot:
        return candidate.get(path)
    if "." in tail:
        value = _resolve(candidate, path.split("."))
    elif head in candidate:
        node = candidate[head]
        if isinstance(node, dict):
            return node.get(tail)
        value = _resolve(node, [tail])
    else:
        return candidate.get(path)
    return None if value is ABSENT else value


def _compile_checks(schema: SchemaDefinition) -> dict[str, _Check]:
    """One check per schema path; each takes a non-null value and appends the
    violations it finds. A section's check resolves its keys through a map
    of every descendant path relative to it, so a dotted key is checked as
    the field its joined full path names."""
    checks: dict[str, _Check] = {}
    children_of: dict[str, dict[str, _Check]] = {}
    leaves = frozenset(schema.leaf_paths())
    for entry in schema.entries:
        path = entry.field_path
        if entry.kind != KIND_SECTION:
            checks[path] = _leaf_check(entry)
        elif entry.pattern is not None:
            checks[path] = _open_map_check(path, re.compile(entry.pattern).search, leaves)
        else:
            children_of[path] = {}
            checks[path] = _section_check(path, children_of[path], checks)
    for section, children in children_of.items():
        below = schema.descendants[section]
        children.update((rel, checks[entry.field_path]) for rel, entry in below.items())
    return checks


def _section_check(path: str, children: dict[str, _Check], checks: dict[str, _Check]) -> _Check:
    def check(value: Any, out: list) -> None:
        if not isinstance(value, dict):
            out.append(ValidationViolation(path, WRONG_TYPE, _NOT_AN_OBJECT))
            return
        for key, child in value.items():
            if key.__class__ is str:
                check_child = children.get(key)
            else:
                check_child = checks.get(f"{path}.{key}")
            if check_child is None:
                out.append(ValidationViolation(f"{path}.{key}", UNKNOWN_KEY, _UNKNOWN_KEY_MESSAGE))
            elif child is not None:
                check_child(child, out)

    return check


def _open_map_check(path: str, key_search, leaves: frozenset[str]) -> _Check:
    # The keys that pass both key tests: schema leaves the pattern matches.
    named = frozenset(leaf for leaf in leaves if key_search(leaf))

    def check(value: Any, out: list) -> None:
        if not isinstance(value, dict):
            out.append(ValidationViolation(path, WRONG_TYPE, _NOT_AN_OBJECT))
            return
        for key, item in value.items():
            if key in named:
                if isinstance(item, list) and len(item) == 3:
                    a, b, c = item
                    if (
                        type(a) is int and a >= 0
                        and type(b) is int and b >= 0
                        and type(c) is int and c >= 0
                    ):
                        continue
                code, message = WRONG_TYPE, "origin must be [segment_index, char_start, char_end]"
            elif not isinstance(key, str) or not key_search(key):
                code, message = BAD_PATTERN, "map key is not a well-formed field path"
            else:
                code, message = UNKNOWN_KEY, "map key does not name a schema field"
            out.append(ValidationViolation(f"{path}.{key}", code, message))

    return check


def _leaf_check(entry: SchemaEntry) -> _Check:
    path, kind, pattern = entry.field_path, entry.kind, entry.pattern
    lo, hi = entry.numeric_range or (None, None)

    def flag(code: str, message: str, at: str = path) -> ValidationViolation:
        return ValidationViolation(at, code, message)

    def wrong_type(expected: str, value: Any) -> ValidationViolation:
        return flag(WRONG_TYPE, f"expected {expected}, got {type(value).__name__}")

    if kind == KIND_STRING:
        if pattern == ISO_TIMESTAMP:

            def check(value: Any, out: list) -> None:
                if not isinstance(value, str):
                    out.append(wrong_type("string", value))
                elif parse_iso_timestamp(value) is None:
                    out.append(flag(BAD_TIMESTAMP, "not an ISO-8601 date or datetime"))

        elif pattern is not None:
            search = re.compile(pattern).search

            def check(value: Any, out: list) -> None:
                if not isinstance(value, str):
                    out.append(wrong_type("string", value))
                elif not search(value):
                    out.append(flag(BAD_PATTERN, "value does not match the field pattern"))

        else:

            def check(value: Any, out: list) -> None:
                if not isinstance(value, str):
                    out.append(wrong_type("string", value))

    elif kind == KIND_INTEGER or kind == KIND_DECIMAL:
        # type() rather than isinstance: a bool is not a number here.
        if kind == KIND_INTEGER:
            numeric, expected = (int,), "integer"
        else:
            numeric, expected = (int, float), "number"

        def check(value: Any, out: list) -> None:
            if type(value) not in numeric:
                out.append(wrong_type(expected, value))
            elif (lo is not None and value < lo) or (hi is not None and value > hi):
                out.append(flag(OUT_OF_RANGE, f"value {value} outside [{lo}, {hi}]"))

    elif kind == KIND_BOOLEAN:

        def check(value: Any, out: list) -> None:
            if type(value) is not bool:
                out.append(wrong_type("boolean", value))

    elif kind == KIND_ENUM:
        allowed = entry.enum_values or ()
        listed = ", ".join(allowed)

        def check(value: Any, out: list) -> None:
            if not isinstance(value, str):
                out.append(wrong_type("string", value))
            elif value not in allowed:
                out.append(flag(BAD_ENUM, f"value {value!r} not one of: {listed}"))

    else:  # KIND_LIST; an empty pattern checks nothing
        element_search = re.compile(pattern).search if pattern else None

        def check(value: Any, out: list) -> None:
            if not isinstance(value, list):
                out.append(wrong_type("list", value))
                return
            for i, element in enumerate(value):
                if not isinstance(element, str):
                    out.append(flag(WRONG_TYPE, "list entries must be strings", f"{path}.{i}"))
                elif element_search is not None and not element_search(element):
                    out.append(flag(BAD_PATTERN, "list entry is empty or untrimmed", f"{path}.{i}"))

    return check


def _out_of_range(out: list, path: str, message: str) -> None:
    out.append(ValidationViolation(path, OUT_OF_RANGE, message))


def _min_not_above_max(min_path: str, max_path: str) -> _Rule:
    def rule(get: Callable[[str], Any], out: list) -> None:
        lo, hi = get(min_path), get(max_path)
        if type(lo) is int and type(hi) is int and lo > hi:
            _out_of_range(out, min_path, f"minimum {lo} exceeds maximum {hi}")

    return rule


def _lat_lon_paired(get: Callable[[str], Any], out: list) -> None:
    lat, lon = get("spatial.lat"), get("spatial.lon")
    if (lat is None) != (lon is None):
        path = "spatial.lat" if lat is None else "spatial.lon"
        _out_of_range(out, path, "lat and lon must both be set or both be null")


def _no_coordinates_without_geocode(get: Callable[[str], Any], out: list) -> None:
    if get("spatial.geocode_method") == "none":
        lat = get("spatial.lat")
        if isinstance(lat, (int, float)) and not isinstance(lat, bool):
            _out_of_range(
                out, "spatial.geocode_method", "geocode_method is none but coordinates are set"
            )


def _reported_after_last_seen(get: Callable[[str], Any], out: list) -> None:
    last_seen = get("temporal.last_seen_ts")
    reported = get("temporal.reported_missing_ts")
    if isinstance(last_seen, str) and isinstance(reported, str):
        a = parse_iso_timestamp(last_seen)
        b = parse_iso_timestamp(reported)
        if a and b and a[1] == "datetime" and b[1] == "datetime":
            da, db = a[0], b[0]
            comparable = (da.tzinfo is None) == (db.tzinfo is None)  # type: ignore[union-attr]
            if comparable and da > db:
                _out_of_range(
                    out, "temporal.reported_missing_ts", "reported_missing_ts precedes last_seen_ts"
                )


def _rule_path_unrepaired(get: Callable[[str], Any], out: list) -> None:
    if get("provenance.extraction_path") == "rule":
        repair_count = get("provenance.repair_count")
        if type(repair_count) is int and repair_count != 0:
            _out_of_range(
                out, "provenance.repair_count", "rule-path records must have repair_count 0"
            )


# Cross-field consistency rules, in the order validate runs them, each with
# the paths it reads. A schema that lacks any of a rule's paths drops the rule.
_CROSS_FIELD_RULES: tuple[tuple[tuple[str, ...], _Rule], ...] = (
    *(
        ((lo, hi), _min_not_above_max(lo, hi))
        for lo, hi in (
            ("demographic.age_min", "demographic.age_max"),
            ("demographic.height_min_cm", "demographic.height_max_cm"),
            ("demographic.weight_min_kg", "demographic.weight_max_kg"),
        )
    ),
    (("spatial.lat", "spatial.lon"), _lat_lon_paired),
    (("spatial.geocode_method", "spatial.lat"), _no_coordinates_without_geocode),
    (("temporal.last_seen_ts", "temporal.reported_missing_ts"), _reported_after_last_seen),
    (("provenance.extraction_path", "provenance.repair_count"), _rule_path_unrepaired),
)
