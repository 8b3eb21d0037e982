"""Document text acquisition: plain-text read, pre-normalization, trailer
cut, case splitting.

Documents are text files, decoded as strict UTF-8, less a leading
byte-order mark, or, when that fails, as cp1252 (only its five undefined
bytes become U+FFFD); ``fallback_offset`` then names the first byte UTF-8
could not decode, so the caller can log it.
Line endings become LF, as a text-mode read makes them. A file holding a NUL
byte is binary, not text, and raises ExtractionFailure, as a file that
cannot be read at all does. A read that yields too little text, or text
that is mostly not alphanumeric, is still returned, with
``quality_ok=False`` so the caller can log a warning. The quality score is
taken on the text as read, trailer included.

Everything from the first end sentinel on is a trailer, not document
content (the synthetic corpus parks its ground truth there). ``cut_trailer``
normalizes only the content, so the work of normalizing, splitting and
detecting scales with the content; the trailer is handed back unnormalized
for the one consumer that needs it, the llm prompt.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Callable, NamedTuple

ENGINE_PLAINTEXT = "plaintext"

QUALITY_MIN_CHARS = 64
QUALITY_MIN_ALNUM = 0.3

# Everything from this marker on is not document content.
END_SENTINEL = "----- END CASE DOCUMENT -----"


class ExtractionFailure(RuntimeError):
    """The document could not be read; nothing was produced."""

    def __init__(self, document_id: str, cause: str):
        self.document_id = document_id
        super().__init__(f"could not read {document_id}: {cause}")


class SourceDocument(NamedTuple):
    document_id: str
    path: Path


class ExtractedText(NamedTuple):
    document_id: str
    engine_used: str
    text: str
    char_count: int
    alnum_ratio: float
    quality_ok: bool
    # Offset of the first byte that is not UTF-8, when decoded as cp1252.
    fallback_offset: int | None = None


class CaseSegment(NamedTuple):
    segment_index: int
    text: str
    char_start: int
    char_end: int


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


def extract_text(doc: SourceDocument) -> ExtractedText:
    """Read the document as text and score it against the quality floor."""
    try:
        raw = doc.path.read_bytes()
    except OSError as exc:
        raise ExtractionFailure(doc.document_id, str(exc)) from exc
    nul = raw.find(b"\0")
    if nul >= 0:
        raise ExtractionFailure(doc.document_id, f"binary file, NUL byte at {nul}")
    fallback_offset = None
    try:
        text = raw.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        fallback_offset = exc.start
        text = raw.decode("cp1252", errors="replace")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    chars, ratio = _text_quality(text)
    return ExtractedText(
        document_id=doc.document_id,
        engine_used=ENGINE_PLAINTEXT,
        text=text,
        char_count=chars,
        alnum_ratio=ratio,
        quality_ok=chars >= QUALITY_MIN_CHARS and ratio >= QUALITY_MIN_ALNUM,
        fallback_offset=fallback_offset,
    )


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


def cut_trailer(
    text: str, normalize: Callable[[str], str] = prenormalize
) -> tuple[str, str]:
    """Split raw text at its first end sentinel into (content, trailer).

    ``content`` is ``prenormalize(text)`` up to its first ``END_SENTINEL``
    (all of it when there is none), and ``content + prenormalize(trailer)``
    is ``prenormalize(text)``. Only the text up to the end of the first raw
    sentinel's line is normalized, in one call: normalization works line by
    line, and a run of blank lines ends at the sentinel's line, which is not
    blank. The trailer is that normalized text from its first sentinel on,
    plus the lines below the raw sentinel's line as they were read.

    A sentinel that only normalization reveals (tabs, doubled spaces or
    control characters inside it) has no raw match; without one the whole
    text is normalized and cut. A sentinel that turns up in the normalized
    lines above the raw one is cut at too. ``normalize`` is the
    prenormalize function to call, so a caller can pass the name it traces.
    """
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    found = text.find(END_SENTINEL)
    end = text.find("\n", found) if found >= 0 else -1
    if end < 0:
        end = len(text)
    head = normalize(text[:end])
    cut = head.find(END_SENTINEL)
    if cut < 0:
        return head, ""
    return head[:cut], head[cut:] + text[end:]


# ---------------------------------------------------------------------------
# Case splitting

_CASE_HEADER_RE = re.compile(r"^CASE\s*#\s*\d+", re.MULTILINE)


def split_cases(text: str) -> list[CaseSegment]:
    """Split document text into per-case segments at ``CASE #<n>`` headers.

    A new segment starts at each header match; any preamble before the first
    match is folded into the first segment. Segments are non-overlapping, in
    document order, and jointly cover the text exactly. Text with no matches
    (or empty text) yields a single segment spanning the whole input.
    """
    boundaries = [match.start() for match in _CASE_HEADER_RE.finditer(text)]
    # The preamble belongs with the first case.
    starts = [0] + boundaries[1:]
    segments = []
    for index, start in enumerate(starts):
        end = starts[index + 1] if index + 1 < len(starts) else len(text)
        segments.append(CaseSegment(index, text[start:end], start, end))
    return segments
