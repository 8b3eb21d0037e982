"""Source detection: decide which publisher family a document came from.

A signature is a labeled bag of marker regexes. A signature qualifies when at
least ``min_markers`` distinct markers hit; among qualifying signatures the
highest distinct-marker count wins, with ties broken by lower priority value
and then lexicographic label so detection is deterministic. No qualifying
signature means the source is unknown; downstream routing decides what to do
with that (model path when enabled, generic rules with a warning otherwise).

Detection searches only while a signature can still win. Before a signature
is searched, the score it needs is fixed: ``min_markers``, raised to the best
score so far when its (priority, label) ranks ahead of the best on a tie, or
to one more than that otherwise. The search stops at the first miss after
which the markers left cannot reach that score. Any signature that could win
is searched in full, so the result and its hits do not depend on the pruning
or on the order of the signatures.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterable, NamedTuple

from casepipe.config import ConfigError, read_jsonl
from casepipe.schema import SOURCE_FAMILIES

UNKNOWN_LABEL = "unknown"
UNKNOWN_FAMILY = "unknown"

DEFAULT_MIN_MARKERS = 2


class SourceSignature:
    """A labeled bag of marker regexes, compiled and checked at construction."""

    def __init__(
        self,
        source_label: str,
        family: str,
        markers: tuple[str, ...],
        min_markers: int = DEFAULT_MIN_MARKERS,
        priority: int = 100,
        case_sensitive: bool = False,
    ) -> None:
        if not source_label or source_label == UNKNOWN_LABEL:
            raise ConfigError(f"bad signature label {source_label!r}")
        if family not in SOURCE_FAMILIES or family == UNKNOWN_FAMILY:
            raise ConfigError(f"{source_label}: bad family {family!r}")
        if not markers:
            raise ConfigError(f"{source_label}: signature has no markers")
        if not 1 <= min_markers <= len(markers):
            raise ConfigError(f"{source_label}: min_markers must be in 1..{len(markers)}")
        flags = (0 if case_sensitive else re.IGNORECASE) | re.MULTILINE
        compiled = []
        for marker in markers:
            try:
                compiled.append(re.compile(marker, flags))
            except re.error as exc:
                raise ConfigError(f"{source_label}: bad marker {marker!r}: {exc}") from exc
        self.source_label = source_label
        self.family = family
        self.markers = markers
        self.min_markers = min_markers
        self.priority = priority
        self.case_sensitive = case_sensitive
        self._compiled = tuple(compiled)

    def match(self, text: str) -> list[tuple[int, int]]:
        """Distinct markers that hit: (marker index, offset of first hit)."""
        hits = []
        for index, pattern in enumerate(self._compiled):
            m = pattern.search(text)
            if m is not None:
                hits.append((index, m.start()))
        return hits


class DetectionResult(NamedTuple):
    source_label: str
    family: str
    matched_markers: tuple[tuple[int, int], ...]
    score: int

    @property
    def is_unknown(self) -> bool:
        return self.source_label == UNKNOWN_LABEL


UNKNOWN_DETECTION = DetectionResult(UNKNOWN_LABEL, UNKNOWN_FAMILY, (), 0)


def load_signatures(path: str | Path) -> list[SourceSignature]:
    signatures = []
    labels = set()
    for rec in read_jsonl(path):
        try:
            sig = SourceSignature(
                source_label=rec.get("source_label", ""),
                family=rec.get("family", ""),
                markers=tuple(rec.get("markers", ())),
                min_markers=int(rec.get("min_markers", DEFAULT_MIN_MARKERS)),
                priority=int(rec.get("priority", 100)),
                case_sensitive=bool(rec.get("case_sensitive", False)),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: bad signature row: {exc}") from exc
        if sig.source_label in labels:
            raise ConfigError(f"duplicate signature label {sig.source_label!r}")
        labels.add(sig.source_label)
        signatures.append(sig)
    if not signatures:
        raise ConfigError(f"no signatures in {path}")
    return signatures


def detect_source(text: str, signatures: Iterable[SourceSignature]) -> DetectionResult:
    """Pick the best-matching signature for a piece of document text,
    searching each only while it can still win (see the module docstring)."""
    best: tuple[int, int, str] | None = None
    best_result: DetectionResult | None = None
    for sig in signatures:
        patterns = sig._compiled
        # The score needed to qualify and to rank ahead of the best so far;
        # a tie on score goes to the lower (priority, label).
        need = sig.min_markers
        if best is not None:
            beats_on_tie = (sig.priority, sig.source_label) < best[1:]
            need = max(need, -best[0] if beats_on_tie else 1 - best[0])
        left = len(patterns)
        if left < need:
            continue
        hits = []
        for index, pattern in enumerate(patterns):
            m = pattern.search(text)
            left -= 1
            if m is not None:
                hits.append((index, m.start()))
            elif len(hits) + left < need:
                break
        else:
            score = len(hits)
            best = (-score, sig.priority, sig.source_label)
            best_result = DetectionResult(
                source_label=sig.source_label,
                family=sig.family,
                matched_markers=tuple(hits),
                score=score,
            )
    return best_result if best_result is not None else UNKNOWN_DETECTION
