"""Command line front end: run the pipeline, build corpora, score outputs.

``casepipe run`` drives the full flow for a directory of plain-text case
documents: extract, cut the trailer from the first end sentinel on and
prenormalize the content, split, detect the source, then push each segment
through the rule path and/or the model path, with shared harmonization,
geocoding, validation, and emission. Only content reaches split, detection
and the rules; the trailer, normalized, rides only in the last segment's
llm prompt, where the test double backends read the gold marker.
``casepipe synth`` writes a synthetic corpus, and ``casepipe eval`` scores a
finished run against a gold file.

Outputs land in the run's output directory: cases_rule.jsonl/csv and
cases_llm.jsonl/csv (per enabled path), warnings.jsonl, run_summary.json,
and, when a gold file is given, metrics_<path>.json plus report.txt. Until
they are written, a run's records, repair-log rows and runtime samples
accumulate per path on the pipeline, in its ``outputs``, with the segment
count beside them; ``run`` sorts each by case_id as it writes it. Each
record is encoded into its path's ``emit.RecordBuffer`` when it is finished,
so a run holds every record as its output text, not as a dict.

Each document has a read half (extract, cut, split, detect and the rule
path's draft), which returns plain data, and a finish half that runs in
document order on the calling thread: warnings, stamp, geocode, validate,
the record buffers and every backend call, of which only the exchanges of a
backend that waits on I/O (``wire``) leave it, at most --max-in-flight at
once, repairs included. Where ``_reads_ahead`` allows, a forked child reads
the documents ahead of the calling thread, with the same bytes out. The
in-process test doubles are called inline, so with them, as on the rule
path alone, a run starts no thread.

Records are emitted sorted by case_id and the warning log is saved in a
stable order, so for a fixed --ingest-ts a run is byte-reproducible at any
--max-in-flight: the in-process doubles see their calls in document order
every time, and over ``wire`` it holds whenever each answer depends only on
its request.
"""

from __future__ import annotations

import hashlib
import json
import marshal
import os
import sys
import threading
from collections import deque
from datetime import datetime, timezone
from operator import itemgetter
from pathlib import Path
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping, NamedTuple, Sequence

from casepipe import emit
from casepipe.config import ConfigError, bundled_path, iter_jsonl
from casepipe.extract import (
    ExtractionFailure,
    SourceDocument,
    cut_trailer,
    extract_text,
    prenormalize,
    split_cases,
)
from casepipe.geocode import Gazetteer, GeocodeCache, apply_geocode
from casepipe.harmonize import MappingTable, harmonize, identity_table, load_mapping_dir
from casepipe.llm import (
    DEFAULT_BUDGET_CHARS,
    DEFAULT_MAX_REPAIR_ATTEMPTS,
    DEFAULT_TIMEOUT_S,
    TIER_EXTRACT,
    BackendError,
    BackendRequest,
    CandidateParseError,
    build_extraction_prompt,
    call_backend,
    make_backend,
    repair_loop,
    sanitize_candidate,
)
from casepipe.rules import DraftRecord, dispatch, load_rulesets
from casepipe.schema import SchemaDefinition, default_schema, parse_iso_timestamp, validate
from casepipe.sources import UNKNOWN_LABEL, DetectionResult, detect_source, load_signatures

if TYPE_CHECKING:
    import argparse

    from casepipe import metrics

    # A backend exchange's response text, or the failure it ended in, and
    # the seconds it took where it ran.
    _Exchanged = tuple[str | BackendError, float]
    _Exchange = Callable[[BackendRequest], _Exchanged]

PATH_CHOICES = ("rule", "llm", "both")
BACKEND_CHOICES = ("wire", "oracle", "dropout_oracle", "invalid_then_fix", "never_fix")

RULE_CASES_NAME = "cases_rule"
LLM_CASES_NAME = "cases_llm"
# Each extraction path and the stem of its cases_* files.
_PATHS = (("rule", RULE_CASES_NAME), ("llm", LLM_CASES_NAME))


class _ConfigFields(NamedTuple):
    input_dir: Path
    output_dir: Path
    paths_enabled: str = "both"
    schema_path: Path | None = None
    signatures_path: Path | None = None
    rulesets_dir: Path | None = None
    mappings_dir: Path | None = None
    gazetteer_path: Path | None = None
    cache_path: Path | None = None
    backend: str = "oracle"
    backend_params: Mapping[str, Any] | None = None
    budget_chars: int = DEFAULT_BUDGET_CHARS
    max_repair_attempts: int = DEFAULT_MAX_REPAIR_ATTEMPTS
    max_in_flight: int = 1
    gold_path: Path | None = None
    seed: int | None = None
    ingest_ts: str | None = None


class RunConfig(_ConfigFields):
    """Everything one pipeline run needs, resolved and checkable up front."""

    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> RunConfig:
        self = super().__new__(cls, *args, **kwargs)
        if self.paths_enabled not in PATH_CHOICES:
            raise ConfigError(f"paths_enabled must be one of {PATH_CHOICES}")
        if self.backend not in BACKEND_CHOICES:
            raise ConfigError(f"backend must be one of {BACKEND_CHOICES}")
        if self.budget_chars < 1:
            raise ConfigError("budget_chars must be positive")
        if self.max_repair_attempts < 1:
            raise ConfigError("max_repair_attempts must be at least 1")
        if self.max_in_flight < 1:
            raise ConfigError("max_in_flight must be at least 1")
        if self.ingest_ts is not None and parse_iso_timestamp(self.ingest_ts) is None:
            raise ConfigError(f"ingest_ts is not an ISO timestamp: {self.ingest_ts!r}")
        return self

    def resolved_schema_path(self) -> Path:
        return self.schema_path or bundled_path("schema.jsonl")

    def resolved_signatures_path(self) -> Path:
        return self.signatures_path or bundled_path("signatures.jsonl")

    def resolved_rulesets_dir(self) -> Path:
        return self.rulesets_dir or bundled_path("rulesets")

    def resolved_mappings_dir(self) -> Path:
        return self.mappings_dir or bundled_path("mappings")

    def resolved_gazetteer_path(self) -> Path:
        return self.gazetteer_path or bundled_path("gazetteer.jsonl")

    def check_paths(self) -> None:
        if not self.input_dir.is_dir():
            raise ConfigError(f"input_dir does not exist: {self.input_dir}")
        for label, path in (
            ("schema", self.resolved_schema_path()),
            ("signatures", self.resolved_signatures_path()),
            ("gazetteer", self.resolved_gazetteer_path()),
        ):
            if not path.is_file():
                raise ConfigError(f"{label} file does not exist: {path}")
        for label, directory in (
            ("rulesets", self.resolved_rulesets_dir()),
            ("mappings", self.resolved_mappings_dir()),
        ):
            if not directory.is_dir():
                raise ConfigError(f"{label} directory does not exist: {directory}")
        if self.gold_path is not None and not self.gold_path.is_file():
            raise ConfigError(f"gold file does not exist: {self.gold_path}")

    def digest(self) -> str:
        """A hash of what determines the run's records.

        Bundled resources are recorded by name and explicit paths as given,
        so one configuration digests alike in every checkout; where the
        outputs go is not part of it.
        """

        def resource(given: Path | None, name: str) -> str:
            return str(given) if given is not None else f"bundled:{name}"

        payload = {
            "input_dir": str(self.input_dir),
            "paths_enabled": self.paths_enabled,
            "schema_path": resource(self.schema_path, "schema.jsonl"),
            "signatures_path": resource(self.signatures_path, "signatures.jsonl"),
            "rulesets_dir": resource(self.rulesets_dir, "rulesets"),
            "mappings_dir": resource(self.mappings_dir, "mappings"),
            "gazetteer_path": resource(self.gazetteer_path, "gazetteer.jsonl"),
            "cache_path": str(self.cache_path) if self.cache_path else None,
            "backend": self.backend,
            "backend_params": dict(self.backend_params or {}),
            "budget_chars": self.budget_chars,
            "max_repair_attempts": self.max_repair_attempts,
            "max_in_flight": self.max_in_flight,
            "gold_path": str(self.gold_path) if self.gold_path else None,
            "seed": self.seed,
        }
        blob = json.dumps(payload, sort_keys=True, ensure_ascii=False)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


class RunSummary(NamedTuple):
    documents_in: int
    segments: int
    records_out_rule: int
    records_out_llm: int
    warnings_by_severity: dict[str, int]
    runtime: dict[str, dict[str, Any]]
    repair_log: dict[str, list[dict[str, Any]]]
    backend_calls: dict[str, int]
    geocode_cache: dict[str, int]
    gazetteer_lookups: int
    config_digest: str


class _PathOutput(NamedTuple):
    """What one path produced over a run, in no particular order."""

    records: emit.RecordBuffer
    log: list[dict]
    runtimes: list[tuple[str, float]]


class _LlmJob(NamedTuple):
    """One segment's llm-path record between its request and its finish."""

    document_id: str
    case_id: str
    detection: DetectionResult
    engine: str
    request: BackendRequest
    build_s: float


# Extraction requests submitted ahead of the record being finished, per
# backend slot: enough that a freed slot finds the next request queued.
_LOOKAHEAD = 2


def _load_schema(path: Path | None) -> SchemaDefinition:
    """The schema file at ``path``; without one, the shared bundled schema."""
    return default_schema() if path is None else SchemaDefinition.load(path)


class _Pipeline:
    """Loaded resources plus the per-document and per-segment steps."""

    def __init__(self, config: RunConfig):
        config.check_paths()
        self.config = config
        self.enabled = {
            label for label, _ in _PATHS if config.paths_enabled in (label, "both")
        }
        self.schema = _load_schema(config.schema_path)
        self.signatures = load_signatures(config.resolved_signatures_path())
        # Only the rule path reads rules; check_paths has checked the directory.
        self.rulesets = (
            load_rulesets(config.resolved_rulesets_dir()) if "rule" in self.enabled else {}
        )
        self.mappings = load_mapping_dir(config.resolved_mappings_dir())
        if UNKNOWN_LABEL not in self.mappings:
            raise ConfigError(
                f"mappings directory lacks a table for {UNKNOWN_LABEL!r} sources"
            )
        for signature in self.signatures:
            if signature.source_label not in self.mappings:
                raise ConfigError(
                    f"no mapping table for source {signature.source_label!r}"
                )
        self.gazetteer = Gazetteer.load(config.resolved_gazetteer_path())
        self.cache = GeocodeCache(config.cache_path)
        self.backend = None
        if "llm" in self.enabled:
            params = dict(config.backend_params or {})
            if config.seed is not None:
                params.setdefault("seed", config.seed)
            self.backend = make_backend(config.backend, params)
        self.ingest_ts = config.ingest_ts or datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        )
        self.warning_log = emit.WarningLog(self.ingest_ts)
        self._identity_tables: dict[str | None, MappingTable] = {}
        self.segments = 0
        self.outputs = {
            label: _PathOutput(emit.RecordBuffer(), [], []) for label, _ in _PATHS
        }

    # -- helpers ----------------------------------------------------------

    def _identity_for(self, source_label: str) -> MappingTable:
        mapping = self.mappings.get(source_label) or self.mappings[UNKNOWN_LABEL]
        tz_default = mapping.tz_default
        table = self._identity_tables.get(tz_default)
        if table is None:
            table = identity_table(self.schema, tz_default=tz_default)
            self._identity_tables[tz_default] = table
        return table

    def _sink(
        self, document_id: str, case_id: str | None
    ) -> tuple[Callable[[str], Callable[[str, str], None]], Callable[[], int]]:
        """Per-case warning adapter that also counts what it forwarded."""
        count = [0]

        def for_stage(stage: str, severity: str = "warning"):
            def _warn(code: str, message: str) -> None:
                count[0] += 1
                self.warning_log.log(
                    document_id=document_id,
                    case_id=case_id,
                    stage=stage,
                    severity=severity,
                    code=code,
                    message=message,
                )

            return _warn

        return for_stage, lambda: count[0]

    def _stamp(
        self,
        record: dict,
        *,
        case_id: str,
        detection,
        engine_used: str,
        document_id: str,
        extraction_path: str,
        field_origins: dict[str, list[int]],
    ) -> None:
        record["case_id"] = case_id
        prov = record.setdefault("provenance", {})
        prov["source_label"] = detection.source_label
        prov["source_family"] = detection.family
        prov["extraction_path"] = extraction_path
        prov["engine_used"] = engine_used
        prov["document_id"] = document_id
        prov["ingest_ts"] = self.ingest_ts
        prov["repair_count"] = 0
        prov["field_origins"] = field_origins

    def _geocode_and_count(self, record: dict, warn_geocode) -> None:
        apply_geocode(record, self.gazetteer, self.cache, on_warning=warn_geocode)
        spatial = record.get("spatial", {})
        has_place_text = any(
            spatial.get(k) for k in ("last_seen_location", "city", "postal_code")
        )
        if spatial.get("geocode_method") == "none" and has_place_text:
            warn_geocode(
                "geocode_no_match",
                "no gazetteer match for the record's place text",
            )

    # -- per-segment paths -------------------------------------------------

    def _draft_rule(self, segment, detection) -> tuple:
        """The read half of a segment's rule path: the harmonized record, its
        field origins, its parse and harmonize warnings as ``(stage, code,
        message)``, and the seconds taken."""
        started = perf_counter()
        warnings: list[tuple[str, str, str]] = []

        def for_stage(stage: str) -> Callable[[str, str], None]:
            return lambda code, message: warnings.append((stage, code, message))

        draft: DraftRecord = dispatch(
            detection, segment, self.rulesets, on_warning=for_stage("parse")
        )
        harmonized = harmonize(
            draft,
            self.mappings.get(detection.source_label) or self.mappings[UNKNOWN_LABEL],
            self.schema,
            on_warning=for_stage("harmonize"),
        )
        origins: dict[str, list[int]] = {}
        for source_key, target_path in harmonized.key_trace:
            candidate = draft.candidates.get(source_key)
            if candidate is not None:
                origins[target_path] = [
                    segment.segment_index,
                    candidate.char_start,
                    candidate.char_end,
                ]
        return harmonized.record, origins, warnings, perf_counter() - started

    def _finish_rule(
        self, document_id: str, case_id: str, detection, engine: str, draft: tuple
    ) -> None:
        started = perf_counter()
        record, origins, warnings, drafted_s = draft
        for_stage, warned = self._sink(document_id, case_id)
        for stage, code, message in warnings:
            for_stage(stage)(code, message)
        self._stamp(
            record,
            case_id=case_id,
            detection=detection,
            engine_used=engine,
            document_id=document_id,
            extraction_path="rule",
            field_origins=origins,
        )
        self._geocode_and_count(record, for_stage("geocode"))
        record["provenance"]["warnings_count"] = warned()
        report = validate(record, self.schema)
        if not report.valid:
            warn = for_stage("validate")
            for violation in report.violations:
                warn(
                    "validation_violation",
                    f"{violation.field_path}: {violation.code}: {violation.message}",
                )
        output = self.outputs["rule"]
        output.records.add(record)
        output.log.append(
            {
                "case_id": case_id,
                "pre_valid": report.valid,
                "post_valid": report.valid,
                "attempts": 0,
            }
        )
        output.runtimes.append((case_id, drafted_s + perf_counter() - started))

    def _llm_request(
        self, document_id: str, text: str, detection, case_id: str, engine: str
    ) -> _LlmJob:
        started = perf_counter()
        prompt = build_extraction_prompt(
            text, self.schema, budget_chars=self.config.budget_chars
        )
        request = BackendRequest(
            prompt=prompt,
            tier=TIER_EXTRACT,
            timeout_s=DEFAULT_TIMEOUT_S,
            request_id=f"{case_id}:extract",
        )
        return _LlmJob(
            document_id, case_id, detection, engine, request, perf_counter() - started
        )

    def _finish_llm(
        self, job: _LlmJob, extracted: _Exchanged, exchange: _Exchange
    ) -> None:
        """Finish a record from its extraction exchange, sending each repair
        exchange through ``exchange``.

        The record's runtime is its own stages plus its own exchanges; time
        its exchanges spent queued behind other records' is not counted.
        """
        started = perf_counter()
        response, spent = extracted
        waited = 0.0
        case_id, output = job.case_id, self.outputs["llm"]
        for_stage, warned = self._sink(job.document_id, case_id)

        def repair_exchange(request: BackendRequest) -> str:
            nonlocal spent, waited
            asked = perf_counter()
            outcome, seconds = exchange(request)
            waited += perf_counter() - asked
            spent += seconds
            if isinstance(outcome, BackendError):
                raise outcome
            return outcome

        def done() -> None:
            own = job.build_s + spent + perf_counter() - started - waited
            output.runtimes.append((case_id, own))

        if isinstance(response, BackendError):
            for_stage("parse", "error")("backend_error", str(response))
            return done()
        try:
            candidate = sanitize_candidate(
                response, self.schema, on_warning=for_stage("sanitize")
            )
        except CandidateParseError as exc:
            for_stage("sanitize", "error")("candidate_parse_error", str(exc))
            return done()
        harmonized = harmonize(
            candidate,
            self._identity_for(job.detection.source_label),
            self.schema,
            on_warning=for_stage("harmonize"),
        )
        record = harmonized.record
        self._stamp(
            record,
            case_id=case_id,
            detection=job.detection,
            engine_used=job.engine,
            document_id=job.document_id,
            extraction_path="llm",
            field_origins={},
        )
        self._geocode_and_count(record, for_stage("geocode"))
        record["provenance"]["warnings_count"] = warned()
        outcome = repair_loop(
            record,
            self.schema,
            repair_exchange,
            max_attempts=self.config.max_repair_attempts,
            on_warning=for_stage("repair"),
            request_prefix=f"{case_id}:repair",
        )
        pre_valid = outcome.attempts == 0 and outcome.passed
        record = outcome.record
        # repair_loop validated the record; no rule rejects a non-negative
        # repair_count on an llm-path record, so it needs no second pass.
        record["provenance"]["repair_count"] = outcome.attempts
        post_valid = outcome.passed
        output.log.append(
            {
                "case_id": case_id,
                "pre_valid": pre_valid,
                "post_valid": post_valid,
                "attempts": outcome.attempts,
            }
        )
        if post_valid:
            output.records.add(record)
        else:
            if outcome.attempts > 0:
                for_stage("repair", "error")(
                    "repair_exhausted",
                    f"still invalid after {outcome.attempts} repair attempts",
                )
            for_stage("emit", "error")(
                "record_withheld", "record failed validation and was not emitted"
            )
        done()

    # -- per-document ------------------------------------------------------

    def _read(self, path: Path) -> tuple:
        """The read half of one document, as plain data ``marshal`` carries:
        ``(document_id, engine_used, warnings, segments)``. Each warning is
        an extract stage ``(severity, code, message)``; each segment is
        ``(case_id, detection tuple, _draft_rule's draft or None, llm text or
        None)``. Split and detection see the content only; the trailer is
        normalized only for the llm path, and only the last text carries it."""
        document_id = path.stem
        try:
            extracted = extract_text(SourceDocument(document_id=document_id, path=path))
        except ExtractionFailure as exc:
            return document_id, "", (("error", "extraction_failed", str(exc)),), ()
        warnings = []
        if extracted.fallback_offset is not None:
            message = f"not UTF-8 at byte {extracted.fallback_offset}; decoded as cp1252"
            warnings.append(("warning", "encoding_fallback", message))
        if not extracted.quality_ok:
            quality = f"{extracted.char_count} chars, alnum ratio {extracted.alnum_ratio:.2f}"
            warnings.append(("warning", "low_quality_text", f"best effort text: {quality}"))
        # ``prenormalize`` is passed by this module's name, which tracing
        # patches.
        content, trailer = cut_trailer(extracted.text, prenormalize)
        segments = split_cases(content)
        llm = "llm" in self.enabled
        if llm and trailer:
            trailer = prenormalize(trailer)
        last = segments[-1]
        read = []
        for segment in segments:
            detection = detect_source(segment.text, self.signatures)
            draft = self._draft_rule(segment, detection) if "rule" in self.enabled else None
            text = None
            if llm:
                text = segment.text + trailer if segment is last else segment.text
            case_id = f"{document_id}#s{segment.segment_index}"
            read.append((case_id, tuple(detection), draft, text))
        return document_id, extracted.engine_used, warnings, read

    def _finish_document(self, read: tuple) -> Iterator[_LlmJob]:
        """The finish half of a document ``_read`` read: log its warnings,
        finish each rule record, and yield each segment's llm request."""
        document_id, engine, warnings, segments = read
        for severity, code, message in warnings:
            self.warning_log.log(
                document_id=document_id,
                stage="extract",
                severity=severity,
                code=code,
                message=message,
            )
        self.segments += len(segments)
        for case_id, detection, draft, text in segments:
            detection = DetectionResult(*detection)
            if detection.source_label == UNKNOWN_LABEL:
                self.warning_log.log(
                    document_id=document_id,
                    case_id=case_id,
                    stage="detect",
                    severity="warning",
                    code="unknown_source",
                    message="no signature reached its marker threshold",
                )
            if draft is not None:
                self._finish_rule(document_id, case_id, detection, engine, draft)
            if text is not None:
                yield self._llm_request(document_id, text, detection, case_id, engine)

    def process(self, files: Sequence[Path]) -> None:
        """Run every document, in order, adding what each path produces to
        its entry in ``outputs`` and each document's segments to
        ``segments``.

        Documents are read by ``_read`` and finished on the calling thread.
        Only backend exchanges leave it, and only for a backend that waits
        on I/O: they go to ``max_in_flight`` threads, extraction requests up
        to ``_LOOKAHEAD`` × ``max_in_flight`` segments ahead of the record
        being finished. Any other backend is called inline, and then a
        forked child may read the documents (``_read_in_child``); it is
        reaped before this returns or raises. An empty run starts no thread
        and no process.
        """
        backend = self.backend
        pooled = bool(files) and backend is not None and backend.waits_on_io
        if not pooled and _reads_ahead(files):
            reads = _read_in_child(self._read, files)
        else:
            reads = (self._read(path) for path in files)
        jobs = (job for read in reads for job in self._finish_document(read))
        try:
            if not pooled:

                def inline(request: BackendRequest) -> _Exchanged:
                    return _exchange(request, backend)

                for job in jobs:
                    self._finish_llm(job, inline(job.request), inline)
                return

            from concurrent.futures import ThreadPoolExecutor  # deferred: cold starts skip it

            in_flight = self.config.max_in_flight
            with ThreadPoolExecutor(max_workers=in_flight) as pool:

                def pooled_exchange(request: BackendRequest) -> _Exchanged:
                    return pool.submit(_exchange, request, backend).result()

                window: deque = deque()
                for job in jobs:
                    window.append((job, pool.submit(_exchange, job.request, backend)))
                    if len(window) > _LOOKAHEAD * in_flight:
                        job, future = window.popleft()
                        self._finish_llm(job, future.result(), pooled_exchange)
                while window:
                    job, future = window.popleft()
                    self._finish_llm(job, future.result(), pooled_exchange)
        finally:
            reads.close()


def _reads_ahead(files: Sequence[Path]) -> bool:
    """Whether a forked child should read ``files``: only if there is one, a
    second CPU is usable, and no other thread runs whose locks a fork could
    copy held."""
    if not files or not hasattr(os, "fork") or threading.active_count() != 1:
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) >= 2
    return (os.cpu_count() or 1) >= 2


# Bytes of the length that prefixes each marshal frame on a reader's pipe,
# and of the buffer frames are read into, a Linux pipe's default capacity.
_FRAME_HEADER = 8
_FRAME_BUFFER = 1 << 16


def _read_in_child(read: Callable[[Path], tuple], files: Sequence[Path]) -> Iterator[tuple]:
    """``read`` of each file, computed by a child forked on the first
    ``next`` and sent back one frame per file. A failure there arrives as an
    error frame and is raised here, a ``ConfigError`` as one and anything
    else as a ``RuntimeError`` with the child's traceback. Closing the
    generator kills the child if it runs, reaps it, and closes the pipe."""
    fd_in, fd_out = os.pipe()
    with open(fd_in, "rb") as pipe, open(fd_out, "wb") as out:
        pid = os.fork()
        if pid == 0:
            pipe.close()
            _serve_reads(read, files, out)
        out.close()
        running, received = True, 0
        try:
            # Every frame is read into one buffer, so that reading allocates
            # nothing per document; a fresh bytes object per frame left the
            # caller's heap fragmented and its peak RSS about 0.8 MB higher.
            buffer = bytearray(_FRAME_BUFFER)
            while header := pipe.read(_FRAME_HEADER):
                size = int.from_bytes(header, "little")
                if size > len(buffer):
                    buffer = bytearray(size)
                frame = memoryview(buffer)[:size]
                if len(header) < _FRAME_HEADER or pipe.readinto(frame) < size:
                    break  # the child ended mid-frame
                item = marshal.loads(frame)
                if type(item) is list:  # an error frame: [is a ConfigError, text]
                    if item[0]:
                        raise ConfigError(item[1])
                    raise RuntimeError(f"reading documents failed in the child:\n{item[1]}")
                received += 1
                yield item
            _, status = os.waitpid(pid, 0)
            running = False
            if received != len(files):
                raise RuntimeError(
                    f"the document reader ended after {received} of {len(files)} "
                    f"documents (wait status {status})"
                )
        finally:
            if running and os.waitpid(pid, os.WNOHANG)[0] == 0:
                import signal  # deferred: only a reader stopped early is killed

                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _serve_reads(read: Callable[[Path], tuple], files: Sequence[Path], pipe) -> None:
    """The forked child: send ``read`` of each file, or the failure that
    stopped it, down ``pipe``, then leave through ``os._exit``, which runs
    none of the parent's exit handlers or finalizers."""
    status = 1
    try:
        with pipe:

            def send(item: Any) -> None:
                frame = marshal.dumps(item)
                pipe.write(len(frame).to_bytes(_FRAME_HEADER, "little") + frame)
                pipe.flush()

            try:
                for path in files:
                    send(read(path))
            except ConfigError as exc:
                send([True, str(exc)])
            except Exception:
                import traceback  # deferred: only a failed reader formats one

                send([False, traceback.format_exc()])
        status = 0
    finally:
        os._exit(status)


def _exchange(request: BackendRequest, backend) -> _Exchanged:
    """One backend exchange's response text and the seconds it took where it
    ran; a failure is returned, for the calling thread to log."""
    started = perf_counter()
    try:
        outcome: str | BackendError = call_backend(request, backend)
    except BackendError as exc:
        outcome = exc
    return outcome, perf_counter() - started


def _runtime_block(samples: list[tuple[str, float]]) -> dict[str, Any]:
    ordered = [seconds for _, seconds in sorted(samples, key=lambda kv: kv[0])]
    block: dict[str, Any] = {"samples": ordered}
    if ordered:
        from casepipe import metrics  # deferred: an empty run never scores

        mean_s, p95_s = metrics.runtime_stats(ordered)
        block["mean_s"] = mean_s
        block["p95_s"] = p95_s
    else:
        block["mean_s"] = None
        block["p95_s"] = None
    return block


def run(config: RunConfig) -> RunSummary:
    """Process every document under the config and write all run artifacts."""
    pipeline = _Pipeline(config)
    files = sorted(config.input_dir.glob("*.txt"))
    pipeline.process(files)

    output_dir = config.output_dir
    output_dir.mkdir(parents=True, exist_ok=True)
    outputs, by_case_id = pipeline.outputs, itemgetter("case_id")
    records_out = dict.fromkeys(outputs, 0)
    for label, stem in _PATHS:
        if label in pipeline.enabled:
            records = outputs[label].records
            records.sort()
            records_out[label] = emit.write_records_jsonl(
                output_dir / f"{stem}.jsonl", records
            )
            emit.write_records_csv(output_dir / f"{stem}.csv", records, pipeline.schema)
    pipeline.warning_log.save(output_dir / "warnings.jsonl")

    backend = pipeline.backend
    summary = RunSummary(
        documents_in=len(files),
        segments=pipeline.segments,
        records_out_rule=records_out["rule"],
        records_out_llm=records_out["llm"],
        warnings_by_severity=pipeline.warning_log.counts_by_severity(),
        runtime={label: _runtime_block(out.runtimes) for label, out in outputs.items()},
        repair_log={label: sorted(out.log, key=by_case_id) for label, out in outputs.items()},
        backend_calls={
            "extract": backend.call_count("extract") if backend else 0,
            "repair": backend.call_count("repair") if backend else 0,
        },
        geocode_cache={
            "hits": pipeline.cache.hits,
            "misses": pipeline.cache.misses,
            "entries": len(pipeline.cache),
        },
        gazetteer_lookups=pipeline.gazetteer.lookup_count,
        config_digest=config.digest(),
    )
    summary_path = output_dir / "run_summary.json"
    summary_path.write_text(
        json.dumps(summary._asdict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return summary


# ---------------------------------------------------------------------------
# Evaluation


def evaluate_outputs(
    output_dir: Path,
    gold_path: Path,
    schema: SchemaDefinition,
    config_digest: str = "unrecorded",
    on_warning: metrics.WarnFn | None = None,
) -> dict[str, metrics.MetricsReport]:
    """Score each path's emitted JSONL against gold; write reports + table.

    A path whose ``cases_*.jsonl`` is missing is not scored; with none at
    all this is a ConfigError, raised before the gold file is parsed. The
    gold file is then read once into one ``metrics.GoldSide``, which every
    path's ``metrics.build_report`` call gets, so each gold record's values
    are extracted once, before any path is scored. Both files stream: each
    line is parsed as it is scored, and no list of records is built.
    """
    from casepipe import metrics  # deferred: cold starts skip the scorer

    if not gold_path.is_file():
        raise ConfigError(f"gold file does not exist: {gold_path}")
    found = [(label, output_dir / f"{stem}.jsonl") for label, stem in _PATHS]
    found = [(label, path) for label, path in found if path.is_file()]
    if not found:
        raise ConfigError(f"no cases_*.jsonl files to evaluate in {output_dir}")
    gold = metrics.GoldSide(iter_jsonl(gold_path), schema)
    summary: dict[str, Any] = {}
    summary_path = output_dir / "run_summary.json"
    if summary_path.is_file():
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        config_digest = summary.get("config_digest", config_digest)
    reports: dict[str, metrics.MetricsReport] = {}
    for label, cases_path in found:
        run_log = summary.get("repair_log", {}).get(label, [])
        runtimes = summary.get("runtime", {}).get(label, {}).get("samples", [])
        report = metrics.build_report(
            iter_jsonl(cases_path),
            gold,
            run_log=run_log,
            runtimes=runtimes,
            on_warning=on_warning,
        )
        reports[label] = report
        (output_dir / f"metrics_{label}.json").write_text(
            json.dumps(report._asdict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    table = metrics.format_report(reports, config_digest)
    (output_dir / "report.txt").write_text(table, encoding="utf-8")
    return reports


def evaluate(config: RunConfig) -> dict[str, metrics.MetricsReport]:
    if config.gold_path is None:
        raise ConfigError("evaluation needs a gold file (--gold)")
    return evaluate_outputs(
        config.output_dir,
        config.gold_path,
        _load_schema(config.schema_path),
        config_digest=config.digest(),
        on_warning=_print_eval_warning,
    )


def _print_eval_warning(code: str, message: str) -> None:
    print(f"eval: {code}: {message}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Argument parsing


def _parse_params(pairs: Sequence[str]) -> dict[str, str]:
    params: dict[str, str] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ConfigError(f"backend param must look like key=value: {pair!r}")
        params[key] = value
    return params


def _build_parser() -> argparse.ArgumentParser:
    import argparse  # deferred: a library run never parses arguments

    parser = argparse.ArgumentParser(
        prog="casepipe",
        description="Dual-path case document extraction pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="process a directory of .txt documents")
    run_p.add_argument("--input", required=True, type=Path, help="document directory")
    run_p.add_argument("--output", required=True, type=Path, help="output directory")
    run_p.add_argument("--paths", choices=PATH_CHOICES, default="both")
    run_p.add_argument("--schema", type=Path, default=None)
    run_p.add_argument("--signatures", type=Path, default=None)
    run_p.add_argument("--rulesets", type=Path, default=None)
    run_p.add_argument("--mappings", type=Path, default=None)
    run_p.add_argument("--gazetteer", type=Path, default=None)
    run_p.add_argument("--cache", type=Path, default=None, help="geocode cache file")
    run_p.add_argument("--backend", choices=BACKEND_CHOICES, default="oracle")
    run_p.add_argument(
        "--backend-param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="backend knob, repeatable (e.g. rate=0.1)",
    )
    run_p.add_argument("--budget-chars", type=int, default=DEFAULT_BUDGET_CHARS)
    run_p.add_argument(
        "--max-repair-attempts", type=int, default=DEFAULT_MAX_REPAIR_ATTEMPTS
    )
    run_p.add_argument("--max-in-flight", type=int, default=1)
    run_p.add_argument("--gold", type=Path, default=None, help="evaluate after the run")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument(
        "--ingest-ts",
        default=None,
        help="fixed provenance timestamp for byte-reproducible runs",
    )

    synth_p = sub.add_parser("synth", help="write a synthetic corpus")
    synth_p.add_argument("--out", required=True, type=Path)
    synth_p.add_argument("--seed", type=int, default=0)
    synth_p.add_argument("--count", type=int, default=5, help="documents per family")
    synth_p.add_argument(
        "--families", default=None, help="comma-separated families to generate (default: all)"
    )
    synth_p.add_argument("--cue-rate", type=float, default=0.7)
    synth_p.add_argument("--dropout", type=float, default=0.0)

    eval_p = sub.add_parser("eval", help="score run outputs against a gold file")
    eval_p.add_argument("--output", required=True, type=Path, help="run output dir")
    eval_p.add_argument("--gold", required=True, type=Path)
    eval_p.add_argument("--schema", type=Path, default=None)
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    config = RunConfig(
        input_dir=args.input,
        output_dir=args.output,
        paths_enabled=args.paths,
        schema_path=args.schema,
        signatures_path=args.signatures,
        rulesets_dir=args.rulesets,
        mappings_dir=args.mappings,
        gazetteer_path=args.gazetteer,
        cache_path=args.cache,
        backend=args.backend,
        backend_params=_parse_params(args.backend_param),
        budget_chars=args.budget_chars,
        max_repair_attempts=args.max_repair_attempts,
        max_in_flight=args.max_in_flight,
        gold_path=args.gold,
        seed=args.seed,
        ingest_ts=args.ingest_ts,
    )
    summary = run(config)
    print(f"documents in:      {summary.documents_in}")
    print(f"segments:          {summary.segments}")
    print(f"records out (rule): {summary.records_out_rule}")
    print(f"records out (llm):  {summary.records_out_llm}")
    print(f"warnings:          {summary.warnings_by_severity or '{}'}")
    print(f"summary file:      {config.output_dir / 'run_summary.json'}")
    if config.gold_path is not None:
        evaluate(config)
        print(f"report file:       {config.output_dir / 'report.txt'}")
        print((config.output_dir / "report.txt").read_text(encoding="utf-8"))
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    # Imported here: run and eval never need the generator.
    from casepipe.synth import FAMILY_LABELS, SynthesisSpec, write_corpus

    families = sorted(FAMILY_LABELS) if args.families is None else args.families.split(",")
    families = [f.strip() for f in families if f.strip()]
    spec = SynthesisSpec(
        seed=args.seed,
        count_per_family={family: args.count for family in families},
        narrative_cue_rate=args.cue_rate,
        label_dropout_rate=args.dropout,
    )
    cases = write_corpus(spec, args.out)
    print(f"wrote {len(cases)} documents to {args.out}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    schema = _load_schema(args.schema)
    evaluate_outputs(args.output, args.gold, schema, on_warning=_print_eval_warning)
    print((args.output / "report.txt").read_text(encoding="utf-8"))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "synth": _cmd_synth, "eval": _cmd_eval}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"casepipe: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
