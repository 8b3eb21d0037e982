"""Deterministic rule-based field extraction.

Each source family has a rule set: label rules that lift one field out of the
segment text with exactly one capture group. Three scopes control how the
pattern is applied:

* ``line``     - the pattern runs against each line in turn,
* ``section``  - the pattern runs once against the whole segment with
                 MULTILINE and DOTALL, so a capture can span a titled block,
* ``document`` - like section but without DOTALL (single-line captures
                 anywhere in the segment).

For a given field path the first match wins; later matches are dropped and
reported through the warning callback. Every candidate keeps the character
span of its capture within the segment so provenance can point back at the
evidence verbatim. A trailing end-of-document sentinel (used by the synthetic
corpus to park ground truth) is stripped before any pattern runs; a run
hands dispatch content the sentinel was already cut from. Dispatch splits
the lines once per segment; every line-scope rule and the movement-cue pass
share that text.

A pattern that opens with ``^`` and has no ``|`` starts every match with a
literal prefix read from its text (``LabelRule.prefix``). A line-scope
rule with one searches only the lines that start with it, found through the
segment's lines bucketed by first character, so the searches per segment
follow the lines a rule can match, not rules times lines.

Narrative movement cues ("en route to Maryland or Delaware") are not label
rules: a fixed cue pattern finds destination phrases in prose and fans the
place list out into indexed candidates. Only explicit cue phrasing counts;
nothing is inferred.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple

from casepipe.config import ConfigError, read_jsonl
from casepipe.extract import END_SENTINEL, CaseSegment
from casepipe.sources import DetectionResult

FAMILY_REGISTRY = "registry_form"
FAMILY_BULLETIN = "bulletin"
FAMILY_NARRATIVE = "narrative_profile"
RULE_FAMILIES = (FAMILY_REGISTRY, FAMILY_BULLETIN, FAMILY_NARRATIVE)

SCOPE_LINE = "line"
SCOPE_SECTION = "section"
SCOPE_DOCUMENT = "document"
_SCOPES = (SCOPE_LINE, SCOPE_SECTION, SCOPE_DOCUMENT)

# Explicit movement cue phrasing. The capture extends across "or"/"and"
# separated place names so one sentence can carry several destinations.
# A place word only carries periods as a dotted abbreviation ("D.C."), so a
# sentence-ending period stays outside the capture and the capitalized word
# opening the next sentence cannot be mistaken for a continuation.
_PLACE_WORD = r"(?:[A-Z]\.(?:[A-Z]\.)+|[A-Z][A-Za-z'-]*)"
_PLACE = rf"{_PLACE_WORD}(?: {_PLACE_WORD})*"
CUE_PATTERN = re.compile(
    r"\b(?:en route to|headed (?:to|toward|for)|heading (?:to|toward)|"
    r"travel(?:ing|ling) (?:to|toward))\s+"
    rf"({_PLACE}(?:(?:,| or| and)\s+{_PLACE})*)"
)
_CUE_SPLIT_RE = re.compile(r",\s*|\s+or\s+|\s+and\s+")

WarnFn = Callable[[str, str], None]

_REGEX_META = frozenset(".^$*+?{}[]\\|()")
_QUANTIFIERS = frozenset("*+?{")


def _literal_prefix(pattern: str, flags: int) -> str:
    """Literal text that every match of ``pattern`` starts with at a line
    start, or ``""`` when none is read.

    Only a pattern that opens with ``^`` and has no ``|`` has one: the
    characters after the ``^`` up to the first regex metacharacter, less
    the last of them when a quantifier follows. ``flags`` are the compiled
    pattern's; under IGNORECASE or VERBOSE (which Python 3.10 still lets an
    inline flag set mid-pattern) the text is not matched literally, so
    there is none.
    """
    if not pattern.startswith("^") or "|" in pattern:
        return ""
    if flags & (re.IGNORECASE | re.VERBOSE):
        return ""
    end = 1
    while end < len(pattern) and pattern[end] not in _REGEX_META:
        end += 1
    if end < len(pattern) and pattern[end] in _QUANTIFIERS:
        end -= 1
    return pattern[1:end]


class LabelRule:
    """One capture pattern for one field, compiled and checked at
    construction; ``prefix`` is the literal start of every match at a line
    start ("" for none)."""

    def __init__(
        self, pattern_id: str, field_path: str, pattern: str, scope: str = SCOPE_LINE
    ) -> None:
        if scope not in _SCOPES:
            raise ConfigError(f"{pattern_id}: unknown scope {scope!r}")
        flags = re.MULTILINE | (re.DOTALL if scope == SCOPE_SECTION else 0)
        try:
            compiled = re.compile(pattern, flags)
        except re.error as exc:
            raise ConfigError(f"{pattern_id}: bad pattern: {exc}") from exc
        if compiled.groups != 1:
            raise ConfigError(f"{pattern_id}: pattern must have exactly one capture group")
        self.pattern_id = pattern_id
        self.field_path = field_path
        self.pattern = pattern
        self.scope = scope
        self.compiled = compiled
        self.prefix = _literal_prefix(pattern, compiled.flags)


class FieldCandidate(NamedTuple):
    field_path: str
    raw_value: str
    pattern_id: str
    char_start: int
    char_end: int


class DraftRecord:
    """The candidates one segment's rules produced, keyed by field path."""

    def __init__(
        self,
        source_label: str,
        segment_index: int,
        candidates: dict[str, FieldCandidate] | None = None,
    ) -> None:
        self.source_label = source_label
        self.segment_index = segment_index
        self.candidates = {} if candidates is None else candidates


def load_ruleset(path: str | Path) -> list[LabelRule]:
    rules = []
    ids = set()
    for rec in read_jsonl(path):
        try:
            rule = LabelRule(
                pattern_id=rec.get("pattern_id", ""),
                field_path=rec.get("field_path", ""),
                pattern=rec.get("pattern", ""),
                scope=rec.get("scope", SCOPE_LINE),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: bad rule row: {exc}") from exc
        if rule.pattern_id in ids:
            raise ConfigError(f"duplicate pattern_id {rule.pattern_id!r} in {path}")
        ids.add(rule.pattern_id)
        rules.append(rule)
    if not rules:
        raise ConfigError(f"no rules in {path}")
    return rules


def load_rulesets(directory: str | Path) -> dict[str, list[LabelRule]]:
    """Load ``<family>.jsonl`` rule sets for every known family."""
    directory = Path(directory)
    rulesets = {}
    for family in RULE_FAMILIES:
        path = directory / f"{family}.jsonl"
        if not path.is_file():
            raise ConfigError(f"missing ruleset for family {family}: {path}")
        rulesets[family] = load_ruleset(path)
    return rulesets


def strip_sentinel(text: str) -> str:
    """Drop the end-of-document sentinel and anything after it."""
    index = text.find(END_SENTINEL)
    return text if index < 0 else text[:index]


def apply_rules(
    segment: CaseSegment,
    rules: Iterable[LabelRule],
    source_label: str,
    on_warning: WarnFn | None = None,
) -> DraftRecord:
    """Run label rules over a segment; first match per field path wins."""
    text = strip_sentinel(segment.text)
    return _apply(text, rules, source_label, segment.segment_index, on_warning)


def _apply(
    text: str,
    rules: Iterable[LabelRule],
    source_label: str,
    segment_index: int,
    on_warning: WarnFn | None,
) -> DraftRecord:
    """apply_rules on sentinel-free text, split into lines once for every
    line-scope rule; a rule with a literal prefix searches only the lines
    that start with it."""
    lines = []
    by_first: dict[str, list[tuple[str, int]]] = {}
    offset = 0
    for line in text.split("\n"):
        entry = (line, offset)
        lines.append(entry)
        if line:
            by_first.setdefault(line[0], []).append(entry)
        offset += len(line) + 1
    draft = DraftRecord(source_label=source_label, segment_index=segment_index)
    candidates = draft.candidates
    for rule in rules:
        compiled = rule.compiled
        if rule.scope == SCOPE_LINE:
            search = compiled.search
            prefix = rule.prefix
            matches = []
            for line, offset in by_first.get(prefix[0], ()) if prefix else lines:
                if line.startswith(prefix):
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


def extract_movement_cues(
    text: str, base_index: int = 0
) -> list[FieldCandidate]:
    """Find explicit movement cue phrases and split out each destination."""
    candidates = []
    position = base_index
    seen: set[str] = set()
    for m in CUE_PATTERN.finditer(text):
        capture = m.group(1)
        cursor = 0
        for part in _CUE_SPLIT_RE.split(capture):
            place = part.strip()
            if not place:
                continue
            rel = capture.find(part, cursor)
            cursor = rel + len(part)
            key = place.casefold()
            if key in seen:
                continue
            seen.add(key)
            start = m.start(1) + rel
            candidates.append(
                FieldCandidate(
                    field_path=f"narrative_osint.movement_cues.{position}",
                    raw_value=place,
                    pattern_id="movement_cue",
                    char_start=start,
                    char_end=start + len(part),
                )
            )
            position += 1
    return candidates


def dispatch(
    detection: DetectionResult,
    segment: CaseSegment,
    rulesets: Mapping[str, Iterable[LabelRule]],
    on_warning: WarnFn | None = None,
) -> DraftRecord:
    """Run a segment's family rules; narrative profiles add movement cues.

    Unknown sources fall back to the registry-form rules (the most generic
    label shape) and say so through the warning callback.
    """
    family = detection.family
    if family in RULE_FAMILIES:
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
    text = strip_sentinel(segment.text)
    draft = _apply(text, rules, detection.source_label, segment.segment_index, on_warning)
    if family == FAMILY_NARRATIVE:
        for candidate in extract_movement_cues(text):
            draft.candidates[candidate.field_path] = candidate
    return draft
