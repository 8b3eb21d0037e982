"""Model-assisted extraction: prompts, backend plumbing, sanitization, repair.

The backend is pluggable. Production use goes through WireBackend, which
posts {request_id, tier, prompt_text} to an HTTP endpoint named by
environment variables; every test path uses one of the shipped doubles
(oracle, dropout oracle, invalid-then-fix, never-fix), which read the gold
marker that the synthetic corpus embeds after the end-of-document sentinel.

The repair loop is a bounded safeguard, not a rewriter: each iteration sends
the validator's violations back with the current record and accepts changes
only at cited paths (plus their ancestors and descendants). Any other edit
is reverted and logged.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import re
import threading
import time
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from casepipe.config import ConfigError
from casepipe.emit import canonical_json
from casepipe.schema import (
    ABSENT,
    KIND_DECIMAL,
    KIND_INTEGER,
    KIND_LIST,
    KIND_SECTION,
    PathSyntaxError,
    SchemaDefinition,
    ValidationViolation,
    default_schema,
    resolve_path,
    set_path,
    validate,
)

WarnFn = Callable[[str, str], None]

DEFAULT_BUDGET_CHARS = 24000
DEFAULT_MAX_REPAIR_ATTEMPTS = 2
DEFAULT_TIMEOUT_S = 60.0
# Lines under these headers survive budget truncation first.
PRIORITY_HEADERS = ("Circumstances",)
# The output size every extraction prompt asks for.
MAX_OUTPUT_HINT = 4096

TIER_EXTRACT = "extract"
TIER_REPAIR = "repair"
_TIERS = (TIER_EXTRACT, TIER_REPAIR)

_INT_RE = re.compile(r"^[+-]?\d+$")

EXTRACT_INSTRUCTION = (
    "Extract one missing-person case record from the document below. "
    "Respond with exactly one JSON object and nothing else. Use only the "
    "field paths defined in the schema; set a field to null when the "
    "document does not state it. Never invent facts."
)
REPAIR_INSTRUCTION = (
    "The record below fails validation. Return the corrected record as one "
    "JSON object. Change only the fields named in the violations; do not "
    "add information, and leave every other field exactly as it is."
)


class BackendError(Exception):
    """Base class for backend call failures."""


class BackendTimeout(BackendError):
    pass


class BackendTransportError(BackendError):
    pass


class EmptyResponseError(BackendError):
    pass


class CandidateParseError(ValueError):
    """No well-formed object could be recovered from a backend response."""


# ---------------------------------------------------------------------------
# Prompts


class ExtractionPrompt(NamedTuple):
    """Every extraction prompt carries the same instruction and output hint;
    only the schema and the document text vary."""

    schema_text: str
    document_text: str

    def render(self) -> str:
        return (
            f"{EXTRACT_INSTRUCTION}\n"
            f"Keep the output under {MAX_OUTPUT_HINT} characters.\n\n"
            f"## SCHEMA\n{self.schema_text}\n\n"
            f"## DOCUMENT\n{self.document_text}\n\n"
            "## OUTPUT\n"
        )


class _RepairFields(NamedTuple):
    current_record_text: str
    violation_messages: tuple[str, ...]


class RepairPrompt(_RepairFields):
    """Every repair prompt carries the same instruction."""

    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> RepairPrompt:
        self = super().__new__(cls, *args, **kwargs)
        if not self.violation_messages:
            raise ValueError("a repair prompt needs at least one violation")
        return self

    def render(self) -> str:
        listed = "\n".join(f"- {m}" for m in self.violation_messages)
        return (
            f"{REPAIR_INSTRUCTION}\n\n"
            f"## VIOLATIONS\n{listed}\n\n"
            f"## RECORD\n{self.current_record_text}\n\n"
            "## OUTPUT\n"
        )


class _RequestFields(NamedTuple):
    prompt: ExtractionPrompt | RepairPrompt
    tier: str
    timeout_s: float
    request_id: str


class BackendRequest(_RequestFields):
    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> BackendRequest:
        self = super().__new__(cls, *args, **kwargs)
        if self.tier not in _TIERS:
            raise ValueError(f"unknown backend tier: {self.tier!r}")
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        return self


class RepairOutcome(NamedTuple):
    record: dict[str, Any]
    attempts: int
    passed: bool


def truncate_for_budget(
    text: str, budget_chars: int, priority_headers: Sequence[str] = ()
) -> str:
    """Fit text into a character budget, privileging labeled priority blocks.

    A priority block starts at a line whose stripped form begins with one of
    the headers (case-insensitive) and runs until the next blank line. Kept
    content is the priority blocks first, then a head prefix, cut exactly at
    the budget.
    """
    if budget_chars <= 0:
        raise ValueError("budget_chars must be positive")
    if len(text) <= budget_chars:
        return text
    lines = text.split("\n")
    headers = tuple(h.casefold() for h in priority_headers)
    priority: list[int] = []
    in_block = False
    for i, line in enumerate(lines):
        stripped = line.strip()
        if stripped and any(stripped.casefold().startswith(h) for h in headers):
            in_block = True
        elif not stripped:
            in_block = False
        if in_block:
            priority.append(i)
    chosen = set(priority)
    ordered = priority + [i for i in range(len(lines)) if i not in chosen]

    out: list[str] = []
    used = 0
    for index in ordered:
        line = lines[index]
        separator = 1 if out else 0
        room = budget_chars - used - separator
        if room <= 0:
            break
        piece = line[:room]
        out.append(piece)
        used += separator + len(piece)
        if len(piece) < len(line):
            break
    return "\n".join(out)


def build_extraction_prompt(
    text: str,
    schema: SchemaDefinition,
    budget_chars: int = DEFAULT_BUDGET_CHARS,
) -> ExtractionPrompt:
    return ExtractionPrompt(
        schema_text=schema.records_text,
        document_text=truncate_for_budget(text, budget_chars, PRIORITY_HEADERS),
    )


def build_repair_prompt(
    record: dict[str, Any], violations: Sequence[ValidationViolation]
) -> RepairPrompt:
    messages = tuple(f"{v.field_path}: {v.code}: {v.message}" for v in violations)
    return RepairPrompt(
        current_record_text=canonical_json(record), violation_messages=messages
    )


# ---------------------------------------------------------------------------
# Backend call plumbing


def call_backend(
    request: BackendRequest,
    backend: Any,
    sleep: Callable[[float], None] = time.sleep,
) -> str:
    """One backend exchange with bounded retries on transport failures; the
    response text. The caller times the exchange."""
    for attempt in range(3):
        try:
            text = backend.generate(request)
        except BackendTransportError:
            if attempt == 2:
                raise
            sleep(0.05 * (2**attempt))
            continue
        if not text or not text.strip():
            raise EmptyResponseError(f"{request.request_id}: backend returned no text")
        return text
    raise BackendTransportError(f"{request.request_id}: retries exhausted")


# ---------------------------------------------------------------------------
# Candidate sanitization


_DECODER = json.JSONDecoder()


def _first_object(text: str) -> dict[str, Any]:
    """The first ``{`` at which a whole JSON object parses; prose around it
    and unparseable brace runs before it are skipped."""
    start = text.find("{")
    while start != -1:
        try:
            return _DECODER.raw_decode(text, start)[0]
        except json.JSONDecodeError:
            start = text.find("{", start + 1)
    raise CandidateParseError("no structured object found in response")


def _coerce_number(raw: str, kind: str) -> Any:
    token = raw.strip()
    if kind == KIND_INTEGER and _INT_RE.match(token):
        return int(token)
    if kind == KIND_DECIMAL:
        try:
            return float(token)
        except ValueError:
            pass
    return raw


def _clean_section(
    obj: dict[str, Any], prefix: str, schema: SchemaDefinition, warn: WarnFn
) -> dict[str, Any]:
    out: dict[str, Any] = {}
    # Keys come from parsed JSON, so they are strings.
    below = schema.descendants[prefix]
    for key, value in obj.items():
        entry = below.get(key)
        if entry is None:
            path = f"{prefix}.{key}" if prefix else key
            warn("unknown_key_dropped", f"{path} is not in the schema")
            continue
        if entry.kind == KIND_SECTION:
            if entry.pattern is None and isinstance(value, dict):
                out[key] = _clean_section(value, entry.field_path, schema, warn)
            else:
                out[key] = value
        elif entry.kind == KIND_LIST:
            if value is None or isinstance(value, list):
                out[key] = value
            else:
                out[key] = [value]
        elif entry.kind in (KIND_INTEGER, KIND_DECIMAL) and isinstance(value, str):
            out[key] = _coerce_number(value, entry.kind)
        else:
            out[key] = value
    return out


def sanitize_candidate(
    response_text: str,
    schema: SchemaDefinition,
    on_warning: WarnFn | None = None,
) -> dict[str, Any]:
    """Recover a schema-shaped candidate from raw backend output.

    Strips wrapper prose and fences around the first balanced object, drops
    keys the schema does not know (each one logged), and coerces numeric
    strings in numeric positions. Values are never invented; anything
    doubtful is left in place for the validator to flag.
    """
    warn: WarnFn = on_warning if on_warning is not None else (lambda code, msg: None)
    parsed = _first_object(response_text)
    return _clean_section(parsed, "", schema, warn)


# ---------------------------------------------------------------------------
# Repair loop


def _edit_allowed(path: str, cited: Sequence[str]) -> bool:
    for c in cited:
        if path == c or path.startswith(c + ".") or c.startswith(path + "."):
            return True
    return False


def _merge_minimal(
    old: Any, new: Any, cited: Sequence[str], warn: WarnFn, prefix: str = ""
) -> Any:
    if isinstance(old, dict) and isinstance(new, dict):
        if old == new:
            # Nothing below differs, so nothing is logged or reverted.
            return new
        out: dict[str, Any] = {}
        keys = list(old.keys()) + [k for k in new.keys() if k not in old]
        for key in keys:
            path = f"{prefix}.{key}" if prefix else str(key)
            if key in old and key in new:
                out[key] = _merge_minimal(old[key], new[key], cited, warn, path)
            elif key in old:
                if _edit_allowed(path, cited):
                    continue  # deletion of a cited field is a legitimate fix
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


def repair_loop(
    record: dict[str, Any],
    schema: SchemaDefinition,
    exchange: Callable[[BackendRequest], str],
    max_attempts: int = DEFAULT_MAX_REPAIR_ATTEMPTS,
    on_warning: WarnFn | None = None,
    request_prefix: str = "repair",
) -> RepairOutcome:
    """Validator-guided, minimal-edit repair with a hard attempt bound.

    ``exchange`` is the only route to a backend: each attempt's request goes
    through it and it returns the response text, so a caller sends repairs
    wherever its other exchanges go. A ``BackendError`` it raises fails that
    attempt.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be at least 1")
    warn: WarnFn = on_warning if on_warning is not None else (lambda code, msg: None)
    report = validate(record, schema)
    if report.valid:
        return RepairOutcome(record=record, attempts=0, passed=True)

    current = record
    for attempt in range(1, max_attempts + 1):
        prompt = build_repair_prompt(current, report.violations)
        request = BackendRequest(
            prompt=prompt,
            tier=TIER_REPAIR,
            timeout_s=DEFAULT_TIMEOUT_S,
            request_id=f"{request_prefix}:{attempt}",
        )
        try:
            candidate = sanitize_candidate(exchange(request), schema, on_warning)
        except (BackendError, CandidateParseError) as exc:
            warn("repair_attempt_failed", f"attempt {attempt}: {exc}")
            continue
        cited = [v.field_path for v in report.violations]
        current = _merge_minimal(current, candidate, cited, warn)
        report = validate(current, schema)
        if report.valid:
            return RepairOutcome(record=current, attempts=attempt, passed=True)
    return RepairOutcome(record=current, attempts=max_attempts, passed=False)


# ---------------------------------------------------------------------------
# Gold marker codec (the synthetic corpus embeds, only test doubles read)

GOLD_MARKER_PREFIX = "%%CASE-GOLD:"
_GOLD_MARKER_RE = re.compile(r"%%CASE-GOLD:([A-Za-z0-9+/=]+)%%")


def encode_gold_marker(record: dict[str, Any]) -> str:
    payload = base64.b64encode(canonical_json(record).encode("utf-8")).decode("ascii")
    return f"{GOLD_MARKER_PREFIX}{payload}%%"


def _marker_payload(text: str) -> str | None:
    match = _GOLD_MARKER_RE.search(text)
    return match.group(1) if match else None


def read_gold_marker(text: str) -> dict[str, Any] | None:
    payload = _marker_payload(text)
    if payload is None:
        return None
    return json.loads(base64.b64decode(payload).decode("utf-8"))


# ---------------------------------------------------------------------------
# Backends


class _CountingBackend:
    """Base backend with a thread-safe per-tier call counter.

    ``waits_on_io`` says whether ``generate`` waits on something outside
    the process; only then can exchanges overlap usefully, so only then
    does a run send them to threads.
    """

    waits_on_io = False

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._calls: dict[str, int] = {}

    def call_count(self, tier: str | None = None) -> int:
        with self._lock:
            if tier is None:
                return sum(self._calls.values())
            return self._calls.get(tier, 0)

    def generate(self, request: BackendRequest) -> str:
        with self._lock:
            self._calls[request.tier] = self._calls.get(request.tier, 0) + 1
        return self._generate(request)

    def _generate(self, request: BackendRequest) -> str:
        raise NotImplementedError


class OracleBackend(_CountingBackend):
    """Returns the embedded gold record verbatim; repairs are no-ops."""

    def _generate(self, request: BackendRequest) -> str:
        if request.tier == TIER_REPAIR:
            return request.prompt.current_record_text
        gold = read_gold_marker(request.prompt.document_text)
        return canonical_json(gold) if gold is not None else "{}"


class DropoutOracleBackend(_CountingBackend):
    """Oracle that deterministically omits each populated field.

    Whether a leaf is dropped depends only on (seed, document payload, field
    path), so a corpus run is reproducible while different documents lose
    different fields.
    """

    def __init__(self, rate: float, seed: int):
        super().__init__()
        if not 0.0 <= rate <= 1.0:
            raise ValueError("dropout rate must be within [0, 1]")
        self.rate = rate
        self.seed = seed
        self._schema = default_schema()

    def _drop(self, anchor: str, path: str) -> bool:
        digest = hashlib.md5(f"{self.seed}:{anchor}:{path}".encode("utf-8")).hexdigest()
        return int(digest[:12], 16) / float(16**12) < self.rate

    def _generate(self, request: BackendRequest) -> str:
        if request.tier == TIER_REPAIR:
            return request.prompt.current_record_text
        text = request.prompt.document_text
        anchor = _marker_payload(text)
        if anchor is None:
            return "{}"
        # read_gold_marker parses afresh, so the record is this call's own.
        record = read_gold_marker(text)
        for entry in self._schema.entries:
            path = entry.field_path
            if entry.kind == KIND_SECTION or path.startswith("provenance"):
                continue
            value = resolve_path(record, path)
            if value is ABSENT or value is None or value == []:
                continue
            if self._drop(anchor, path):
                set_path(record, path, [] if entry.kind == KIND_LIST else None)
        return canonical_json(record)


class InvalidThenFixBackend(_CountingBackend):
    """Corrupts every n-th extraction; repairs by nulling the cited paths.

    The corruption (age_years = 999) is schema-invalid but harmless, and the
    fix is the minimal legal edit, so pre/post pass rates and the repair rate
    come out exact. Which extractions are corrupted follows the order calls
    arrive in; a run calls this in-process double inline, in document
    order, so the choice is the same at any ``--max-in-flight``.
    """

    def __init__(self, inject_every: int = 5):
        super().__init__()
        if inject_every < 1:
            raise ValueError("inject_every must be at least 1")
        self.inject_every = inject_every
        self._extract_calls = 0
        self._counter_lock = threading.Lock()

    def _corrupt_due(self) -> bool:
        with self._counter_lock:
            self._extract_calls += 1
            return self._extract_calls % self.inject_every == 0

    def _generate(self, request: BackendRequest) -> str:
        if request.tier == TIER_REPAIR:
            return self._repair(request)
        # read_gold_marker parses afresh, so the record is this call's own.
        gold = read_gold_marker(request.prompt.document_text)
        record = gold if gold is not None else {}
        if self._corrupt_due():
            set_path(record, "demographic.age_years", 999)
        return canonical_json(record)

    def _repair(self, request: BackendRequest) -> str:
        record = json.loads(request.prompt.current_record_text)
        for message in request.prompt.violation_messages:
            path = message.split(":", 1)[0].strip()
            try:
                set_path(record, path, None)
            except PathSyntaxError:
                continue
        return canonical_json(record)


class NeverFixBackend(InvalidThenFixBackend):
    """Same corruption pattern, but repair responses change nothing."""

    def _repair(self, request: BackendRequest) -> str:
        return request.prompt.current_record_text


class WireBackend(_CountingBackend):
    """HTTP backend configured entirely through environment variables.

    CASEPIPE_BACKEND_URL names the endpoint; CASEPIPE_BACKEND_TOKEN, when
    set, is sent as a bearer token. The exchange is one POST of
    {request_id, tier, prompt_text} answered by {"text": ...}.
    """

    waits_on_io = True

    def __init__(self) -> None:
        super().__init__()
        url = os.environ.get("CASEPIPE_BACKEND_URL")
        if not url:
            raise ConfigError("wire backend needs CASEPIPE_BACKEND_URL")
        self.url = url
        self.token = os.environ.get("CASEPIPE_BACKEND_TOKEN")

    def _generate(self, request: BackendRequest) -> str:
        import urllib.error  # deferred: only this backend needs HTTP
        import urllib.request

        payload = json.dumps(
            {
                "request_id": request.request_id,
                "tier": request.tier,
                "prompt_text": request.prompt.render(),
            }
        ).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        http_request = urllib.request.Request(self.url, data=payload, headers=headers)
        try:
            with urllib.request.urlopen(http_request, timeout=request.timeout_s) as resp:
                body = json.loads(resp.read().decode("utf-8"))
        except TimeoutError as exc:
            raise BackendTimeout(str(exc)) from exc
        except (urllib.error.URLError, OSError, ValueError) as exc:
            if isinstance(exc, urllib.error.HTTPError):
                exc.close()  # it holds the error response and its socket
            raise BackendTransportError(str(exc)) from exc
        if not isinstance(body, dict) or "text" not in body:
            raise BackendTransportError("response body lacks a text field")
        return body["text"]


_Factory = Callable[[dict[str, Any]], _CountingBackend]

# Each backend by name, with its factory and the params it reads. Every
# backend also accepts ``seed``, which a run always passes.
BACKENDS: dict[str, tuple[_Factory, tuple[str, ...]]] = {
    "oracle": (lambda params: OracleBackend(), ()),
    "dropout_oracle": (
        lambda params: DropoutOracleBackend(
            rate=float(params.get("rate", 0.1)), seed=int(params.get("seed", 0))
        ),
        ("rate",),
    ),
    "invalid_then_fix": (
        lambda params: InvalidThenFixBackend(
            inject_every=int(params.get("inject_every", 5))
        ),
        ("inject_every",),
    ),
    "never_fix": (
        lambda params: NeverFixBackend(inject_every=int(params.get("inject_every", 5))),
        ("inject_every",),
    ),
    "wire": (lambda params: WireBackend(), ()),
}


def check_backend_params(name: str, params: Mapping[str, Any]) -> None:
    """Raise a ConfigError for an unknown backend or a param it does not read."""
    entry = BACKENDS.get(name)
    if entry is None:
        known = ", ".join(sorted(BACKENDS))
        raise ConfigError(f"unknown backend {name!r} (known: {known})")
    known_keys = sorted({"seed", *entry[1]})
    for key in sorted(params):
        if key not in known_keys:
            raise ConfigError(
                f"backend {name!r}: unknown param {key!r} "
                f"(known: {', '.join(known_keys)})"
            )


def make_backend(name: str, params: dict[str, Any] | None = None) -> _CountingBackend:
    """Build a backend; a param it does not read is a ConfigError."""
    params = params or {}
    check_backend_params(name, params)
    try:
        return BACKENDS[name][0](params)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"backend {name!r}: {exc}") from exc
