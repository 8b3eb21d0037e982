"""Document text acquisition: engine cascade, pre-normalization, case splitting.

Extraction engines are external commands configured per deployment; nothing
here links against a PDF or OCR library. An engine command template names
``{input}`` (the document path) and optionally ``{output}`` (a temp file the
command writes); without ``{output}`` the engine's stdout is captured. The
built-in ``plaintext`` engine just reads the file.

Engines run strictly in chain order and the cascade stops at the first result
that clears the quality thresholds. When nothing clears them the best-scoring
result is returned anyway and the caller is told via ``quality_ok=False`` so
it can log a warning. Every attempt lands in the engine call log.
"""

from __future__ import annotations

import re
import shlex
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from casepipe.config import ConfigError, read_jsonl, write_jsonl
from casepipe.schema import ENGINES

DEFAULT_QUALITY_MIN_CHARS = 64
DEFAULT_QUALITY_MIN_ALNUM = 0.3

ENGINE_PLAINTEXT = "plaintext"
ENGINE_OCR = "ocr"

OUTCOME_PASS = "pass"
OUTCOME_BELOW_QUALITY = "below_quality"
OUTCOME_ERROR = "error"
OUTCOME_TIMEOUT = "timeout"


class ExtractionFailure(RuntimeError):
    """Every engine in the chain errored or timed out; nothing was produced."""

    def __init__(self, document_id: str, causes: dict[str, str]):
        self.document_id = document_id
        self.causes = causes
        detail = "; ".join(f"{k}: {v}" for k, v in causes.items())
        super().__init__(f"all engines failed for {document_id}: {detail}")


@dataclass(frozen=True)
class EngineSpec:
    engine: str
    command_template: str | None = None
    timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ConfigError(f"unknown engine {self.engine!r}")
        if self.engine == ENGINE_PLAINTEXT:
            return
        if not self.command_template or "{input}" not in self.command_template:
            raise ConfigError(
                f"engine {self.engine}: command template must contain {{input}}"
            )


@dataclass(frozen=True)
class SourceDocument:
    document_id: str
    path: Path
    declared_kind: str  # "pdf" | "plaintext"


@dataclass(frozen=True)
class ExtractedText:
    document_id: str
    engine_used: str
    text: str
    char_count: int
    alnum_ratio: float
    quality_ok: bool


@dataclass(frozen=True)
class CaseSegment:
    segment_index: int
    text: str
    char_start: int
    char_end: int


class EngineCallLog:
    """Thread-safe append-only log of engine invocations."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: list[dict[str, Any]] = []

    def record(self, document_id: str, engine: str, outcome: str, millis: int) -> None:
        entry = {
            "document_id": document_id,
            "engine": engine,
            "outcome": outcome,
            "millis": millis,
        }
        with self._lock:
            self._entries.append(entry)

    def entries(self) -> list[dict[str, Any]]:
        with self._lock:
            return list(self._entries)

    def engines_for(self, document_id: str) -> list[str]:
        return [e["engine"] for e in self.entries() if e["document_id"] == document_id]

    def save(self, path: str | Path) -> int:
        return write_jsonl(path, self.entries())


def load_engine_chain(path: str | Path) -> list[EngineSpec]:
    specs = []
    for rec in read_jsonl(path):
        specs.append(
            EngineSpec(
                engine=rec.get("engine", ""),
                command_template=rec.get("command"),
                timeout_s=float(rec.get("timeout_s", 30.0)),
            )
        )
    validate_chain(specs)
    return specs


def validate_chain(chain: list[EngineSpec]) -> None:
    if not chain:
        raise ConfigError("engine chain is empty")
    engines = [spec.engine for spec in chain]
    if len(set(engines)) != len(engines):
        raise ConfigError("engine chain repeats an engine")
    if ENGINE_OCR in engines and engines[-1] != ENGINE_OCR:
        raise ConfigError("ocr engine must be last in the chain")


_ASCII_ALNUM = bytes(c for c in range(128) if chr(c).isalnum())


def _text_quality(text: str) -> tuple[int, float]:
    chars = len(text)
    if chars == 0:
        return 0, 0.0
    if text.isascii():
        # Deleting the alphanumerics leaves everything else.
        alnum = chars - len(text.encode("ascii").translate(None, _ASCII_ALNUM))
    else:
        alnum = sum(map(str.isalnum, text))
    return chars, alnum / chars


def _run_engine(spec: EngineSpec, doc: SourceDocument) -> str:
    if spec.engine == ENGINE_PLAINTEXT:
        return doc.path.read_text(encoding="utf-8", errors="replace")
    assert spec.command_template is not None
    tokens = shlex.split(spec.command_template)
    if "{output}" in spec.command_template:
        with tempfile.NamedTemporaryFile(
            mode="w+", suffix=".txt", delete=False, encoding="utf-8"
        ) as out:
            out_path = Path(out.name)
        try:
            argv = [
                t.replace("{input}", str(doc.path)).replace("{output}", str(out_path))
                for t in tokens
            ]
            proc = subprocess.run(
                argv, capture_output=True, timeout=spec.timeout_s, check=False
            )
            if proc.returncode != 0:
                stderr = proc.stderr.decode("utf-8", "replace").strip()[:200]
                raise RuntimeError(f"exit {proc.returncode}: {stderr}")
            return out_path.read_text(encoding="utf-8", errors="replace")
        finally:
            out_path.unlink(missing_ok=True)
    argv = [t.replace("{input}", str(doc.path)) for t in tokens]
    proc = subprocess.run(argv, capture_output=True, timeout=spec.timeout_s, check=False)
    if proc.returncode != 0:
        stderr = proc.stderr.decode("utf-8", "replace").strip()[:200]
        raise RuntimeError(f"exit {proc.returncode}: {stderr}")
    return proc.stdout.decode("utf-8", "replace")


def extract_text(
    doc: SourceDocument,
    chain: list[EngineSpec],
    *,
    quality_min_chars: int = DEFAULT_QUALITY_MIN_CHARS,
    quality_min_alnum: float = DEFAULT_QUALITY_MIN_ALNUM,
    call_log: EngineCallLog | None = None,
) -> ExtractedText:
    """Run the engine cascade and return the first quality-passing result.

    Falls back to the best-scoring result (most alphanumeric content) with
    ``quality_ok=False`` when no engine clears the thresholds. Raises
    ExtractionFailure when every engine errors or times out.
    """
    validate_chain(chain)
    causes: dict[str, str] = {}
    best: ExtractedText | None = None
    best_score = -1.0
    for spec in chain:
        started = time.monotonic()
        try:
            text = _run_engine(spec, doc)
        except subprocess.TimeoutExpired:
            _log(call_log, doc, spec, OUTCOME_TIMEOUT, started)
            causes[spec.engine] = f"timeout after {spec.timeout_s}s"
            continue
        except (OSError, RuntimeError) as exc:
            _log(call_log, doc, spec, OUTCOME_ERROR, started)
            causes[spec.engine] = str(exc)
            continue
        chars, ratio = _text_quality(text)
        passed = chars >= quality_min_chars and ratio >= quality_min_alnum
        _log(call_log, doc, spec, OUTCOME_PASS if passed else OUTCOME_BELOW_QUALITY, started)
        result = ExtractedText(
            document_id=doc.document_id,
            engine_used=spec.engine,
            text=text,
            char_count=chars,
            alnum_ratio=ratio,
            quality_ok=passed,
        )
        if passed:
            return result
        score = chars * ratio
        if score > best_score:
            best, best_score = result, score
    if best is not None:
        return best
    raise ExtractionFailure(doc.document_id, causes)


def _log(log: EngineCallLog | None, doc, spec, outcome: str, started: float) -> None:
    if log is not None:
        log.record(doc.document_id, spec.engine, outcome, int((time.monotonic() - started) * 1000))


# ---------------------------------------------------------------------------
# Pre-normalization

_CONTROL_RE = re.compile(r"[\x00-\x08\x0b-\x1f\x7f-\x9f]")
_HSPACE_RE = re.compile(r"[^\S\n]+")


def prenormalize(text: str) -> str:
    """Normalize raw extracted text. Idempotent.

    Line endings become LF, control characters other than LF are removed,
    runs of horizontal whitespace collapse to one space, every line is
    trimmed, and runs of three or more blank lines collapse to a single
    blank line.
    """
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    text = _CONTROL_RE.sub("", text)
    text = _HSPACE_RE.sub(" ", text)
    lines = [line.strip() for line in text.split("\n")]
    out: list[str] = []
    blanks = 0
    pending: list[str] = []
    for line in lines:
        if line == "":
            blanks += 1
            pending.append(line)
            continue
        if blanks >= 3:
            out.append("")
        else:
            out.extend(pending)
        pending = []
        blanks = 0
        out.append(line)
    if blanks >= 3:
        out.append("")
    else:
        out.extend(pending)
    return "\n".join(out)


# ---------------------------------------------------------------------------
# Case splitting

DEFAULT_SPLIT_PATTERNS = (r"(?m)^CASE\s*#\s*\d+",)


def split_cases(text: str, header_patterns: list[str] | tuple[str, ...]) -> list[CaseSegment]:
    """Split document text into per-case segments at header matches.

    A new segment starts at each header match; any preamble before the first
    match is folded into the first segment. Segments are non-overlapping, in
    document order, and jointly cover the text exactly. Text with no matches
    (or empty text) yields a single segment spanning the whole input.
    """
    compiled = []
    for pattern in header_patterns:
        try:
            compiled.append(re.compile(pattern, re.MULTILINE))
        except re.error as exc:
            raise ConfigError(f"bad split pattern {pattern!r}: {exc}") from exc
    offsets: set[int] = set()
    for pattern in compiled:
        for match in pattern.finditer(text):
            offsets.add(match.start())
    boundaries = sorted(offsets)
    if not boundaries:
        starts = [0]
    else:
        # The preamble belongs with the first case.
        starts = [0] + boundaries[1:]
    segments = []
    for index, start in enumerate(starts):
        end = starts[index + 1] if index + 1 < len(starts) else len(text)
        segments.append(CaseSegment(index, text[start:end], start, end))
    return segments
