"""Equivalence of the hot-path implementations with the simpler forms they replace.

Each fast path here must give exactly what the plain version gives: the same
alphanumeric count, the same first object, the same CSV bytes, the same leaf
order, the same repair merge and warnings. The plain versions are kept in
this file as oracles. The last test covers the llm path, which trusts
repair_loop's final validation instead of validating each record again
before emitting it.
"""

import csv
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casepipe.cli import RunConfig, run
from casepipe.emit import RecordBuffer, column_order, flatten_record, write_records_csv
from casepipe.extract import _text_quality
from casepipe.llm import CandidateParseError, _edit_allowed, _first_object, _merge_minimal
from casepipe.schema import (
    assemble_record,
    default_schema,
    flatten_leaves,
    record_leaves,
    validate,
)
from casepipe.synth import FAMILY_LABELS, SynthesisSpec, write_corpus
from recordgen import records

SCHEMA = default_schema()


# ---------------------------------------------------------------------------
# Text quality


@given(st.text() | st.text(alphabet=st.characters(max_codepoint=127)))
def test_text_quality_counts_like_isalnum(text):
    chars, ratio = _text_quality(text)
    assert chars == len(text)
    if text:
        assert ratio == sum(1 for ch in text if ch.isalnum()) / len(text)
    else:
        assert ratio == 0.0


def test_text_quality_non_ascii_alnum():
    # U+00E9 and U+0663 (Arabic-Indic three) are alphanumeric, U+00A0 is not.
    assert _text_quality("\u00e9\u0663\u00a0a") == (4, 0.75)


# ---------------------------------------------------------------------------
# First object in a backend response


def _scanner_first_object(text):
    """Character scanner: balance braces outside strings, then parse the slice."""
    start = text.find("{")
    while start != -1:
        depth = 0
        in_string = False
        escaped = False
        for i in range(start, len(text)):
            ch = text[i]
            if in_string:
                if escaped:
                    escaped = False
                elif ch == "\\":
                    escaped = True
                elif ch == '"':
                    in_string = False
            elif ch == '"':
                in_string = True
            elif ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    try:
                        parsed = json.loads(text[start : i + 1])
                    except json.JSONDecodeError:
                        break
                    if isinstance(parsed, dict):
                        return parsed
                    break
        start = text.find("{", start + 1)
    raise CandidateParseError("no structured object found in response")


_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(alphabet='{}[]"\\:,ab \né'),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(alphabet='{}"\\ab', max_size=4), inner, max_size=3),
    max_leaves=8,
)
_fragments = st.one_of(
    st.text(alphabet="Here is the record: ```json\n", max_size=12),
    st.dictionaries(st.text(max_size=4), _json_values, max_size=3).map(json.dumps),
    st.lists(_json_values, max_size=3).map(json.dumps),
    st.sampled_from(
        ['{"a": 1', '{"a": "}"', "{", "}", '"', "\\", '"\\"{"', "{{", '{"a": }', '{"x": [1, 2}']
    ),
)


def _outcome(fn, text):
    try:
        return "ok", json.dumps(fn(text))
    except CandidateParseError:
        return "error", None


@settings(max_examples=300)
@given(st.lists(_fragments, max_size=5).map("".join))
def test_first_object_matches_scanner(text):
    assert _outcome(_first_object, text) == _outcome(_scanner_first_object, text)


@pytest.mark.parametrize(
    "text",
    [
        'prose {"a": "brace } in string", "b": {"c": [1, {"d": 2}]}} tail {"e": 3}',
        '{"a": "escaped \\" quote {"} then {"b": 1}',
        '{"unbalanced": [ {"x": 1}',
        '[{"in": "array"}] after',
        '{bad} {"good": true}',
        "no braces at all",
        "",
    ],
)
def test_first_object_matches_scanner_examples(text):
    assert _outcome(_first_object, text) == _outcome(_scanner_first_object, text)


# ---------------------------------------------------------------------------
# CSV emit


@st.composite
def _leaves_with_extras(draw):
    leaves = record_leaves(draw(records()), SCHEMA)
    # Rows of one file differ in their list columns; keys outside the
    # plan are left out, as assemble_record leaves them out.
    if draw(st.booleans()):
        leaves["zz_extra"] = draw(st.sampled_from(["x", "", None]))
    if draw(st.booleans()):
        leaves["demographic.nickname"] = ["a", "b"][: draw(st.integers(0, 2))]
    leaves["narrative_osint.movement_cues"] = ["Dover", "Salem", "Kent"][: draw(st.integers(0, 3))]
    return leaves


def _reference_csv(rows):
    flat_rows = [flatten_record(record, SCHEMA) for record in rows]
    ordered = column_order({column for row in flat_rows for column in row}, SCHEMA)
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(ordered)
    for row in flat_rows:
        writer.writerow([row.get(column, "") for column in ordered])
    return out.getvalue().encode("utf-8")


@settings(max_examples=60, deadline=None)
@given(st.lists(_leaves_with_extras(), max_size=6))
def test_csv_bytes_match_per_row_reference(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv") / "cases.csv"
    buffer = RecordBuffer(SCHEMA)
    for leaves in rows:
        buffer.add(leaves)
    assert write_records_csv(path, buffer, SCHEMA) == len(rows)
    assert path.read_bytes() == _reference_csv([assemble_record(leaves, SCHEMA) for leaves in rows])


# ---------------------------------------------------------------------------
# Leaf flattening


def _merging_flatten(candidate, prefix=""):
    """Recursive flattening that merges a new dict at every level."""
    out = {}
    if isinstance(candidate, dict) and candidate:
        for key, value in candidate.items():
            sub = f"{prefix}.{key}" if prefix else str(key)
            out.update(_merging_flatten(value, sub))
    elif isinstance(candidate, list) and candidate:
        for i, value in enumerate(candidate):
            sub = f"{prefix}.{i}" if prefix else str(i)
            out.update(_merging_flatten(value, sub))
    else:
        out[prefix] = candidate
    return out


_nested = st.recursive(
    st.none() | st.integers() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    # Keys like "a.b" and "" collide with nested paths, so later writes
    # overwrite earlier leaves and order depends on first insertion.
    | st.dictionaries(st.sampled_from(["a", "b", "a.b", "0", "", "b.0"]), inner, max_size=4),
    max_leaves=12,
)


@given(_nested)
def test_flatten_leaves_order_unchanged(candidate):
    assert list(flatten_leaves(candidate).items()) == list(
        _merging_flatten(candidate).items()
    )


# ---------------------------------------------------------------------------
# Repair merge


def _walking_merge(old, new, cited, warn, prefix=""):
    """The merge that walks equal dicts too, key by key."""
    if isinstance(old, dict) and isinstance(new, dict):
        out = {}
        keys = list(old.keys()) + [k for k in new.keys() if k not in old]
        for key in keys:
            path = f"{prefix}.{key}" if prefix else str(key)
            if key in old and key in new:
                out[key] = _walking_merge(old[key], new[key], cited, warn, path)
            elif key in old:
                if _edit_allowed(path, cited):
                    continue
                warn("non_minimal_edit_reverted", f"{path}: removal reverted")
                out[key] = old[key]
            else:
                if _edit_allowed(path, cited):
                    out[key] = new[key]
                else:
                    warn("non_minimal_edit_reverted", f"{path}: addition dropped")
        return out
    if old == new:
        return new
    if _edit_allowed(prefix, cited):
        return new
    warn("non_minimal_edit_reverted", f"{prefix}: unrelated change reverted")
    return old


_MERGE_KEYS = ["a", "b", "c", "a.b"]
_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 2)
    | st.floats(-2, 2, allow_nan=False)
    | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(st.sampled_from(_MERGE_KEYS), inner, max_size=3),
    max_leaves=10,
)
_json_dicts = st.dictionaries(st.sampled_from(_MERGE_KEYS), _json_values, max_size=3)


@st.composite
def _edited(draw, value):
    """``value`` re-parsed, with some of its dict entries changed, removed
    or added, so many subtrees stay equal but are not the same objects."""
    if not isinstance(value, dict):
        return draw(st.just(value) | _json_values)
    out = {}
    for key, item in value.items():
        choice = draw(st.sampled_from(["keep", "keep", "edit", "drop"]))
        if choice != "drop":
            out[key] = draw(_edited(item)) if choice == "edit" else item
    for key in draw(st.lists(st.sampled_from(_MERGE_KEYS), max_size=1)):
        out.setdefault(key, draw(_json_values))
    return json.loads(json.dumps(out))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_merge_minimal_matches_the_walking_merge(data):
    old = data.draw(_json_dicts)
    new = data.draw(_edited(old) | _json_dicts)
    cited = data.draw(st.lists(st.sampled_from(["a", "b", "a.b", "c.a", "b.c.a"]), max_size=2))
    warned, oracle_warned = [], []
    merged = _merge_minimal(old, new, cited, lambda c, m: warned.append((c, m)))
    expected = _walking_merge(old, new, cited, lambda c, m: oracle_warned.append((c, m)))
    assert warned == oracle_warned
    assert merged == expected


# ---------------------------------------------------------------------------
# llm records are emitted only when valid


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    write_corpus(
        SynthesisSpec(seed=11, count_per_family={f: 3 for f in sorted(FAMILY_LABELS)}),
        root,
    )
    return root


@pytest.mark.parametrize("backend", ["invalid_then_fix", "never_fix"])
@pytest.mark.parametrize("attempts", [1, 2])
def test_every_emitted_llm_record_validates(corpus, tmp_path, backend, attempts):
    summary = run(
        RunConfig(
            input_dir=corpus / "docs",
            output_dir=tmp_path,
            paths_enabled="llm",
            backend=backend,
            backend_params={"inject_every": "2"},
            max_repair_attempts=attempts,
            ingest_ts="2025-01-15T09:30:00+00:00",
        )
    )
    lines = (tmp_path / "cases_llm.jsonl").read_text(encoding="utf-8").splitlines()
    emitted = [json.loads(line) for line in lines]
    for record in emitted:
        assert validate(record, SCHEMA).valid, record["case_id"]
    log = summary.repair_log["llm"]
    passed = sorted(row["case_id"] for row in log if row["post_valid"])
    assert passed == [record["case_id"] for record in emitted]
    repaired = [row for row in log if row["attempts"] > 0]
    assert repaired, "the backend corrupted no extraction"
    if backend == "never_fix":
        assert len(emitted) == summary.segments - len(repaired)
    else:
        assert len(emitted) == summary.segments
        assert all(
            record["provenance"]["repair_count"] in (0, 1) for record in emitted
        )
