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
and, when a gold file is given, metrics_<path>.json plus report.txt; the
gold file is read before the first document, so one that cannot be scored
against stops the run before it writes anything. Until they are written, a
run's records, repair-log rows and runtime samples accumulate per path on
the pipeline, in its ``outputs``, with the segment count beside them, in
the process that finished the records. A record stays flat while it is
finished, as its ``schema.LeafMap``, and is added to its path's
``emit.RecordBuffer`` where it is finished (``_keep``), which encodes it at
once, so a run holds every record as its output text, not as a dict.
``run`` writes every file to a staging directory inside the output
directory, each path's files sorted by case_id in the process that kept
its rows (``write_cases``), and then publishes them together by
``os.replace``: a failed run publishes none. As it publishes, it removes
what an earlier run left there of casepipe's own files that it did not
write itself: the cases_* files of a path it did not run, and the
metrics_*.json files and report.txt, which only its own scoring writes
again; so ``eval`` never scores a stale path. A ``""`` in a model answer,
extraction or repair, is null, as its empty CSV cell reads back.

Each document has a read half (``_read``: extract, cut, split, detect and
the rule path's parse, each field path's raw text and span), which returns
plain data, each segment's identity built once there as one
``(document_id, case_id, source_label, family)`` tuple that goes whole to
accept, and a finish half that runs in document order on the calling
thread: warnings, the llm record buffer, the geocode cache's counts and
file, and every backend call, of which only the exchanges of a backend that
waits on I/O (``wire``) leave it, at most --max-in-flight at once, repairs
included. What ``_read`` does depends only on the enabled paths: with both,
it also finishes each rule record (harmonize, stamp, geocode, validate)
and keeps it, encoded, which the calling thread does on the rule path
alone. Which process reads depends only on the platform: where
``_reads_ahead`` allows, a forked child reads ahead, with the same bytes
out, kept off the caller's CPU (``_place``). After the last document the
reader hands back once what it kept (``_hand_back``): on a both-path run it
writes the rule files to staging itself and returns the rule record count,
repair-log rows and runtimes, while the calling thread writes the llm
files.
Records are geocoded against a plain dict copy of the run cache's outcomes,
which writes no file; ``apply_geocode`` fills it on a miss and hands back
its one lookup with its own warnings, and each record's warnings and lookups
reach one accept step (``_accept``) on the calling thread as plain data,
which logs the warnings and replays the lookups into the run's cache in
document order. Every
warning is ``(stage, severity, code, message)`` and is logged there, with
its record, or for extract and detect warnings its document.
The in-process test doubles are called inline, so with them, as on the rule
path alone, a run starts no thread.

Scoring (``_score``, behind ``eval`` and ``run --gold``) reads the gold
side once; where both paths are scored and ``_reads_ahead`` allows a child
to read the rule path's cases file, a forked child scores the rule path
while the calling thread scores the llm path, with the same reports and
warnings out as when the calling thread scores both in turn.

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
import shutil
import sys
import threading
from collections import deque
from itertools import islice
from datetime import datetime, timezone
from operator import itemgetter
from pathlib import Path
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping, NamedTuple, Sequence

from casepipe import emit
from casepipe.config import ConfigError, bundled_path, iter_jsonl
from casepipe.extract import (
    ENGINE_PLAINTEXT,
    ExtractionFailure,
    SourceDocument,
    cut_trailer,
    extract_text,
    prenormalize,
    split_cases,
)
from casepipe.geocode import Gazetteer, GeocodeCache, apply_geocode, replay_lookup
from casepipe.harmonize import harmonize, identity_table, load_mapping_dir
from casepipe.llm import (
    BACKENDS,
    DEFAULT_BUDGET_CHARS,
    DEFAULT_MAX_REPAIR_ATTEMPTS,
    DEFAULT_TIMEOUT_S,
    TIER_EXTRACT,
    BackendError,
    BackendRequest,
    CandidateParseError,
    build_extraction_prompt,
    call_backend,
    check_backend_params,
    make_backend,
    repair_loop,
    sanitize_candidate,
)
from casepipe.rules import dispatch, load_rulesets
from casepipe.schema import (
    LeafMap,
    SchemaDefinition,
    assemble_record,
    default_schema,
    flatten_leaves,
    parse_iso_timestamp,
    record_leaves,
    validate,
)
from casepipe.sources import UNKNOWN_LABEL, detect_source, load_signatures

if TYPE_CHECKING:
    import argparse

    from casepipe import metrics

    # A backend exchange's response text, or the failure it ended in, and
    # the seconds it took where it ran.
    _Exchanged = tuple[str | BackendError, float]
    _Exchange = Callable[[BackendRequest], _Exchanged]

PATH_CHOICES = ("rule", "llm", "both")
BACKEND_CHOICES = tuple(BACKENDS)

RULE_CASES_NAME = "cases_rule"
LLM_CASES_NAME = "cases_llm"
# Each extraction path and the stem of its cases_* files.
_PATHS = (("rule", RULE_CASES_NAME), ("llm", LLM_CASES_NAME))
# casepipe's own files in an output directory that a run may leave
# unwritten: the cases_* files of a path it does not run, and the reports,
# which only scoring writes. A run removes those it did not write as it
# publishes its own.
_ARTIFACTS = frozenset(
    [f"{stem}.{kind}" for _, stem in _PATHS for kind in ("jsonl", "csv")]
    + [f"metrics_{label}.json" for label, _ in _PATHS]
    + ["report.txt"]
)
# The directory inside the output directory that a run writes its files to;
# each keeps its final name there until the run publishes it.
_STAGING = ".casepipe-staging"


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


# Each field that may name a bundled resource, and the resource's name under
# the package data, in the order ``check_paths`` checks them.
_BUNDLED = {
    "schema_path": "schema.jsonl",
    "signatures_path": "signatures.jsonl",
    "gazetteer_path": "gazetteer.jsonl",
    "rulesets_dir": "rulesets",
    "mappings_dir": "mappings",
}


# The fields only the llm path reads.
_LLM_ONLY = (
    "backend", "backend_params", "budget_chars", "max_repair_attempts", "max_in_flight", "seed"
)


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

    def resolved(self, field: str) -> Path:
        """The path a bundled resource's field names, or the bundled one."""
        return getattr(self, field) or bundled_path(_BUNDLED[field])

    def resolved_schema_path(self) -> Path:
        return self.resolved("schema_path")

    def check_paths(self) -> None:
        if not self.input_dir.is_dir():
            raise ConfigError(f"input_dir does not exist: {self.input_dir}")
        # The output directory, or the nearest of its parents that exists.
        found = next((p for p in (self.output_dir, *self.output_dir.parents) if p.exists()), None)
        if found is not None and not found.is_dir():
            raise ConfigError(f"output path is not a directory: {found}")
        for field in _BUNDLED:
            label, _, kind = field.rpartition("_")
            path = self.resolved(field)
            if kind == "path" and not path.is_file():
                raise ConfigError(f"{label} file does not exist: {path}")
            if kind == "dir" and not path.is_dir():
                raise ConfigError(f"{label} directory does not exist: {path}")
        if self.gold_path is not None and not self.gold_path.is_file():
            raise ConfigError(f"gold file does not exist: {self.gold_path}")

    def digest(self) -> str:
        """A hash of what determines the run's records: every field but
        where the outputs go and the provenance clock, and on a rule-only
        run, the fields only the llm path reads.

        Bundled resources are recorded by name and explicit paths as given,
        so one configuration digests alike in every checkout.
        """
        payload = self._asdict()
        payload["backend_params"] = dict(self.backend_params or {})
        del payload["output_dir"], payload["ingest_ts"]
        if self.paths_enabled == "rule":
            for field in _LLM_ONLY:
                del payload[field]
        for field, name in _BUNDLED.items():
            if payload[field] is None:
                payload[field] = f"bundled:{name}"
        blob = json.dumps(payload, sort_keys=True, ensure_ascii=False, default=str)
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


# A segment's identity from read to accept: (document_id, case_id,
# source_label, family). A plain tuple, which ``marshal`` carries.
_Segment = tuple[str, str, str, str]


class _LlmJob(NamedTuple):
    """One segment's llm-path record between its request and its finish."""

    segment: _Segment
    request: BackendRequest
    build_s: float


# A warning from any stage, as it goes to the log: (stage, severity, code,
# message).
_Warning = tuple[str, str, str, str]
# Logged for a segment no signature matched; not in its warnings_count.
_UNKNOWN_SOURCE = (
    ("detect", "warning", "unknown_source", "no signature reached its marker threshold"),
)


def _collect(warnings: list[_Warning], stage: str) -> Callable[[str, str], None]:
    """An ``on_warning`` callback that adds each warning to ``warnings``."""
    return lambda code, message: warnings.append((stage, "warning", code, message))


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
        self.signatures = load_signatures(config.resolved("signatures_path"))
        # Only the rule path reads rules; check_paths has checked the directory.
        self.rulesets = (
            load_rulesets(config.resolved("rulesets_dir")) if "rule" in self.enabled else {}
        )
        mappings = load_mapping_dir(config.resolved("mappings_dir"), self.schema)
        if UNKNOWN_LABEL not in mappings:
            raise ConfigError(
                f"mappings directory lacks a table for {UNKNOWN_LABEL!r} sources"
            )
        for signature in self.signatures:
            if signature.source_label not in mappings:
                raise ConfigError(
                    f"no mapping table for source {signature.source_label!r}"
                )
        # Each source's (mapping table, identity table); one identity per tz_default.
        identities = {
            tz: identity_table(self.schema, tz_default=tz)
            for tz in {table.tz_default for table in mappings.values()}
        }
        self.tables = {
            label: (table, identities[table.tz_default]) for label, table in mappings.items()
        }
        self.gazetteer = Gazetteer.load(config.resolved("gazetteer_path"))
        self.cache = GeocodeCache(config.cache_path)
        # What records are geocoded against, in whichever process finishes
        # them; only ``_accept`` feeds the run's cache, replaying the lookups.
        self.lookup_cache = self.cache.outcomes()
        params = dict(config.backend_params or {})
        if config.seed is not None:
            params.setdefault("seed", config.seed)
        # A rule-only run builds no backend, but refuses a param it would not read.
        check_backend_params(config.backend, params)
        self.backend = make_backend(config.backend, params) if "llm" in self.enabled else None
        self.ingest_ts = config.ingest_ts or datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        )
        self.warning_log = emit.WarningLog(self.ingest_ts)
        self.staging = config.output_dir / _STAGING
        self.segments = 0
        self.outputs = {
            label: _PathOutput(emit.RecordBuffer(self.schema), [], []) for label, _ in _PATHS
        }

    # -- helpers ----------------------------------------------------------

    def _log(self, document_id: str, case_id: str | None, warnings: Sequence[_Warning]) -> None:
        for stage, severity, code, message in warnings:
            self.warning_log.log(
                document_id=document_id,
                case_id=case_id,
                stage=stage,
                severity=severity,
                code=code,
                message=message,
            )

    def _stamp(
        self, leaves: LeafMap, warnings: list[_Warning], segment: _Segment, path: str,
        origins: dict,
    ) -> tuple:
        """Stamp the record's case_id and provenance leaves from ``segment``,
        its extraction ``path`` and its field ``origins``, geocode it,
        adding the geocode warnings to ``warnings``, and set its
        warnings_count to their number then. Returns ``apply_geocode``'s
        lookups."""
        leaves["case_id"] = segment[1]
        leaves["provenance.source_label"], leaves["provenance.source_family"] = segment[2:]
        leaves["provenance.extraction_path"] = path
        leaves["provenance.engine_used"] = ENGINE_PLAINTEXT
        leaves["provenance.document_id"] = segment[0]
        leaves["provenance.ingest_ts"] = self.ingest_ts
        leaves["provenance.repair_count"] = 0
        leaves["provenance.field_origins"] = origins
        lookups = apply_geocode(
            leaves, self.gazetteer, self.lookup_cache, on_warning=_collect(warnings, "geocode")
        )
        leaves["provenance.warnings_count"] = len(warnings)
        return lookups

    # -- per-segment paths -------------------------------------------------

    def _finish_rule(self, segment: _Segment, parsed: tuple) -> tuple:
        """The rest of a rule record after its parse, in whichever process
        runs it: harmonize the raw values into the record's leaf map, each
        field's origin being its source key's span, stamp, geocode and
        validate it, and keep it, its log row and its runtime, which counts
        the parse too, there (``_keep``). That is the calling thread on a
        rule-only run and the reader on a both-path run. Returns, as plain
        data ``marshal`` carries, what ``_accept`` needs: ``(warnings,
        lookups)``."""
        started = perf_counter()
        raw, spans, warnings, parsed_s = parsed
        harmonized = harmonize(
            raw,
            self.tables[segment[2]][0],
            self.schema,
            on_warning=_collect(warnings, "harmonize"),
        )
        trace = harmonized.key_trace
        origins = {target: spans[key] for key, target in trace if key in spans}
        leaves = harmonized.record
        lookups = self._stamp(leaves, warnings, segment, "rule", origins)
        report = validate(leaves, self.schema)
        for violation in report.violations:
            message = f"{violation.field_path}: {violation.code}: {violation.message}"
            warnings.append(("validate", "warning", "validation_violation", message))
        log = {
            "case_id": segment[1],
            "pre_valid": report.valid,
            "post_valid": report.valid,
            "attempts": 0,
        }
        self._keep("rule", segment[1], leaves, log, started - parsed_s)
        return warnings, lookups

    def _accept(self, segment: _Segment, warnings: list[_Warning], lookups: Sequence) -> None:
        """The accept step of either path's record, on the calling thread and
        in document order: log its warnings and replay its geocode lookups
        into the run's cache. The record was kept where it was finished
        (``_keep``); on a both-path run that is the reader, which keeps
        every rule record and writes them itself (``_hand_back``)."""
        self._log(segment[0], segment[1], warnings)
        for key, value in lookups:
            replay_lookup(key, value, self.cache)

    def _keep(
        self, label: str, case_id: str, leaves: LeafMap | None, log: dict | None, since: float
    ) -> None:
        """Keep a finished record in its path's ``outputs``: add its leaf map
        to the path's buffer, which encodes it (``None`` for a withheld
        record), and keep its log row (``None`` when no record was parsed)
        and its runtime, the seconds from the ``perf_counter`` reading
        ``since`` to the end of the encode."""
        output = self.outputs[label]
        if leaves is not None:
            output.records.add(leaves)
        if log is not None:
            output.log.append(log)
        output.runtimes.append((case_id, perf_counter() - since))

    def _llm_request(self, segment: _Segment, text: str) -> _LlmJob:
        started = perf_counter()
        prompt = build_extraction_prompt(
            text, self.schema, budget_chars=self.config.budget_chars
        )
        request = BackendRequest(
            prompt=prompt,
            tier=TIER_EXTRACT,
            timeout_s=DEFAULT_TIMEOUT_S,
            request_id=f"{segment[1]}:extract",
        )
        return _LlmJob(segment, request, perf_counter() - started)

    def _finish_llm(
        self, job: _LlmJob, extracted: _Exchanged, exchange: _Exchange
    ) -> None:
        """Finish a record from its extraction exchange, sending each repair
        exchange through ``exchange``, keep it (``_keep``) and accept it.

        The record's runtime is its own stages plus its own exchanges; time
        its exchanges spent queued behind other records' is not counted.
        """
        started = perf_counter()
        response, spent = extracted
        waited = 0.0
        case_id = job.segment[1]
        warnings: list[_Warning] = []
        lookups: tuple = ()

        def repair_exchange(request: BackendRequest) -> str:
            nonlocal spent, waited
            asked = perf_counter()
            outcome, seconds = exchange(request)
            waited += perf_counter() - asked
            spent += seconds
            if isinstance(outcome, BackendError):
                raise outcome
            return outcome

        def accept(leaves: LeafMap | None = None, log: dict | None = None) -> None:
            self._keep("llm", case_id, leaves, log, started + waited - job.build_s - spent)
            self._accept(job.segment, warnings, lookups)

        if isinstance(response, BackendError):
            warnings.append(("parse", "error", "backend_error", str(response)))
            return accept()
        try:
            candidate = sanitize_candidate(
                response, self.schema, on_warning=_collect(warnings, "sanitize")
            )
        except CandidateParseError as exc:
            warnings.append(("sanitize", "error", "candidate_parse_error", str(exc)))
            return accept()
        leaves = harmonize(
            flatten_leaves(candidate),
            self.tables[job.segment[2]][1],
            self.schema,
            on_warning=_collect(warnings, "harmonize"),
        ).record
        lookups = self._stamp(leaves, warnings, job.segment, "llm", {})
        outcome = repair_loop(
            assemble_record(leaves, self.schema),
            self.schema,
            repair_exchange,
            max_attempts=self.config.max_repair_attempts,
            on_warning=_collect(warnings, "repair"),
            request_prefix=f"{case_id}:repair",
        )
        log = {
            "case_id": case_id,
            "pre_valid": outcome.attempts == 0 and outcome.passed,
            "post_valid": outcome.passed,
            "attempts": outcome.attempts,
        }
        if outcome.passed:
            # Every leaf, null where a repair dropped one. repair_loop
            # validated the record; no rule rejects a non-negative
            # repair_count on an llm-path record, so it needs no second pass.
            leaves = record_leaves(outcome.record, self.schema)
            leaves["provenance.repair_count"] = outcome.attempts
            return accept(leaves, log)
        if outcome.attempts > 0:
            message = f"still invalid after {outcome.attempts} repair attempts"
            warnings.append(("repair", "error", "repair_exhausted", message))
        message = "record failed validation and was not emitted"
        warnings.append(("emit", "error", "record_withheld", message))
        accept(None, log)

    # -- per-document ------------------------------------------------------

    def _read(self, path: Path) -> tuple:
        """The read half of one document, as plain data ``marshal`` carries:
        ``(document_id, warnings, [(segment, rule, llm text or None), ...])``,
        the warnings being the extract stage's and each ``segment`` the
        ``(document_id, case_id, source_label, family)`` that goes whole to
        accept. ``rule`` is None without the rule path, with it alone the
        segment's parse, ``(raw, spans, warnings, seconds)``: ``dispatch``'s
        two maps, its warnings and the seconds it took, which the caller's
        ``_finish_rule`` harmonizes and finishes, and with both paths the
        ``(warnings, lookups)`` of the record ``_finish_rule`` finished from
        them here, whose row it kept. Split and detection see the content
        only; the trailer is normalized only for the llm path, and only the
        last text carries it."""
        document_id = path.stem
        try:
            extracted = extract_text(SourceDocument(document_id=document_id, path=path))
        except ExtractionFailure as exc:
            return document_id, (("extract", "error", "extraction_failed", str(exc)),), ()
        warnings = []
        if extracted.fallback_offset is not None:
            message = f"not UTF-8 at byte {extracted.fallback_offset}; decoded as cp1252"
            warnings.append(("extract", "warning", "encoding_fallback", message))
        if not extracted.quality_ok:
            quality = f"{extracted.char_count} chars, alnum ratio {extracted.alnum_ratio:.2f}"
            message = f"best effort text: {quality}"
            warnings.append(("extract", "warning", "low_quality_text", message))
        # ``prenormalize`` is passed by this module's name, which tracing
        # patches.
        content, trailer = cut_trailer(extracted.text, prenormalize)
        cases = split_cases(content)
        llm = "llm" in self.enabled
        if llm and trailer:
            trailer = prenormalize(trailer)
        last = cases[-1]
        read = []
        for case in cases:
            detection = detect_source(case.text, self.signatures)
            case_id = f"{document_id}#s{case.segment_index}"
            segment = (document_id, case_id, detection.source_label, detection.family)
            rule = text = None
            if "rule" in self.enabled:
                started, parsed = perf_counter(), []
                raw, spans = dispatch(detection, case, self.rulesets, _collect(parsed, "parse"))
                rule = raw, spans, parsed, perf_counter() - started
                if llm:
                    rule = self._finish_rule(segment, rule)
            if llm:
                text = case.text + trailer if case is last else case.text
            read.append((segment, rule, text))
        return document_id, warnings, read

    def _finish_document(self, read: tuple) -> Iterator[_LlmJob]:
        """The finish half of a document ``_read`` read: log its warnings,
        and for each segment log an unknown source, accept the rule record,
        finishing it first on a rule-only run, and yield the llm request."""
        document_id, warnings, segments = read
        self._log(document_id, None, warnings)
        self.segments += len(segments)
        for segment, rule, text in segments:
            if segment[2] == UNKNOWN_LABEL:
                self._log(document_id, segment[1], _UNKNOWN_SOURCE)
            if rule is not None:
                if text is None:  # the rule path alone: ``rule`` is a parse
                    rule = self._finish_rule(segment, rule)
                self._accept(segment, *rule)
            if text is not None:
                yield self._llm_request(segment, text)

    def _reads(self, files: Sequence[Path]) -> Iterator[tuple]:
        """The reader: ``_read`` of each file, then its ``_hand_back``."""
        for path in files:
            yield self._read(path)
        yield self._hand_back()

    def _hand_back(self) -> tuple | None:
        """What the reader returns after the last document: on a both-path
        run, it writes the rule rows its read half kept to cases_rule.* in
        staging (``write_cases``) and returns ``(records out, log rows,
        runtimes)``; else None, the rule path's rows, if any, being the
        caller's own."""
        if self.config.paths_enabled != "both":
            return None
        _, log, runtimes = self.outputs["rule"]
        return self.write_cases("rule", RULE_CASES_NAME), log, runtimes

    def write_cases(self, label: str, stem: str) -> int:
        """Write the rows ``label``'s path kept, sorted by case_id, to its
        cases_* files in the staging directory. Returns the records out."""
        records = self.outputs[label].records
        records.sort()
        count = emit.write_records_jsonl(self.staging / f"{stem}.jsonl", records)
        emit.write_records_csv(self.staging / f"{stem}.csv", records, self.schema)
        return count

    def process(self, files: Sequence[Path]) -> dict[str, int]:
        """Run every document, in order, adding what each path produces to
        its entry in ``outputs`` and each document's segments to
        ``segments``, and write each path's cases_* files to staging.
        Returns the records out of each enabled path.

        Documents are read by ``_reads``: where ``_reads_ahead`` allows, in
        a child forked before the first document and before any thread
        starts (``_in_child``), else on the calling thread, which finishes
        them. Only backend exchanges leave it, and only for a backend that
        waits on I/O: they go to ``max_in_flight`` threads, extraction
        requests up to ``_LOOKAHEAD`` × ``max_in_flight`` segments ahead of
        the record being finished. Any other backend is called inline. The
        calling thread writes the files of the paths whose rows it kept
        before it takes the reader's hand-back, so that on a forked
        both-path run its llm files are written while the reader writes the
        rule files. A child is reaped before this returns or raises. An
        empty run starts no thread and no process.
        """
        backend = self.backend
        pooled = bool(files) and backend is not None and backend.waits_on_io

        def ended(received: int) -> str:
            unsent = ", before its hand-back" if received == len(files) else ""
            return f"the document reader ended after {received} of {len(files)} documents{unsent}"

        if _reads_ahead(files):
            reads = _in_child(
                lambda: self._reads(files), len(files) + 1, "reading documents", ended
            )
        else:
            reads = self._reads(files)
        jobs = (job for read in islice(reads, len(files)) for job in self._finish_document(read))
        try:
            if not pooled:

                def inline(request: BackendRequest) -> _Exchanged:
                    return _exchange(request, backend)

                for job in jobs:
                    self._finish_llm(job, inline(job.request), inline)
            else:
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
            # The calling thread's own rows: on a both-path run the reader
            # keeps the rule path's and writes them itself (``_hand_back``).
            both = self.config.paths_enabled == "both"
            records_out = {
                label: self.write_cases(label, stem)
                for label, stem in _PATHS
                if label in self.enabled and not (both and label == "rule")
            }
            # The reader's last frame; taking it runs the reader to its end.
            (handed,) = reads
        finally:
            reads.close()
        if handed is not None:
            count, log, runtimes = handed
            self.outputs["rule"] = _PathOutput(emit.RecordBuffer(self.schema), log, runtimes)
            records_out["rule"] = count
        return records_out


def _reads_ahead(files: Sequence[Path]) -> bool:
    """Whether a forked child should read ``files`` beside the calling
    thread, whatever the run's paths and backend: a run's documents, or an
    evaluation's rule-path cases file. Only if there is one, a second CPU is
    usable, and no other thread runs (a ``wire`` run's pool starts its
    threads after the fork)."""
    if not files or not hasattr(os, "fork") or threading.active_count() != 1:
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) >= 2
    return (os.cpu_count() or 1) >= 2


# Bytes of the length that prefixes each marshal frame on a child's pipe,
# and of the buffer frames are read into, a Linux pipe's default capacity.
_FRAME_HEADER = 8
_FRAME_BUFFER = 1 << 16


def _in_child(
    produce: Callable[[], Iterator[Any]], due: int, task: str, ended: Callable[[int], str]
) -> Iterator[Any]:
    """The ``due`` items ``produce()`` yields, computed by a child forked
    now and sent back one frame per item, so that the caller can do work of
    its own before it takes the first (``_child_frames``)."""
    frames = _child_frames(produce, due, task, ended)
    next(frames)  # forks
    return frames


def _child_frames(
    produce: Callable[[], Iterator[Any]], due: int, task: str, ended: Callable[[int], str]
) -> Iterator[Any]:
    """Fork a child that sends each item of ``produce()``, never a list, as
    one marshal frame (``_serve``), yield None once it runs, then each item
    it sent. A file the child writes, such as the rule files a both-path
    run's hand-back writes to staging, is closed before the frame that
    follows it is sent. A failure there arrives as an error frame, a list,
    and is raised here, a ``ConfigError`` as one and anything else as a
    ``RuntimeError`` that names the ``task`` and carries the child's
    traceback; a child that ends before its ``due`` items is a
    ``RuntimeError`` that ``ended(items received)`` describes. Closing the
    generator kills the child if it runs, reaps it, and closes the pipe, so
    nothing the child writes lands once it has returned or raised."""
    fd_in, fd_out = os.pipe()
    with open(fd_in, "rb") as pipe, open(fd_out, "wb") as out:
        beside = _cpus_beside()
        pid = os.fork()
        if pid == 0:
            pipe.close()
            _place(0, beside)
            _serve(produce(), out)
        _place(pid, beside)
        out.close()
        running, received = True, 0
        try:
            yield None
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
                    raise RuntimeError(f"{task} failed in the child:\n{item[1]}")
                received += 1
                yield item
            _, status = os.waitpid(pid, 0)
            running = False
            if received < due:
                raise RuntimeError(f"{ended(received)} (wait status {status})")
        finally:
            if running and os.waitpid(pid, os.WNOHANG)[0] == 0:
                import signal  # deferred: only a child stopped early is killed

                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _cpus_beside() -> set[int] | None:
    """The usable CPUs but the one the caller runs on, where that can be
    read (``/proc/self/stat``) and CPU affinity can be set; else None."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    try:
        with open("/proc/self/stat", "rb") as stat:
            # The processor field, the 37th after the parenthesized name.
            cpu = int(stat.read().rpartition(b")")[2].split()[36])
    except (OSError, ValueError, IndexError):
        return None
    return os.sched_getaffinity(0) - {cpu} or None


def _place(pid: int, cpus: set[int] | None) -> None:
    """Keep a forked child (``pid``, 0 for itself) on ``cpus``, off its
    parent's CPU. Where the kernel does not balance load between CPUs, as
    in a cpuset whose ``sched_load_balance`` is 0, a child otherwise stays
    on its parent's CPU, and the two take turns on it however many CPUs are
    usable. Both call this after the fork, since either may run first: a
    child that waits for its parent's time slice to end starts late, and a
    parent that waits for its child's runs late."""
    if cpus is not None:
        try:
            os.sched_setaffinity(pid, cpus)
        except OSError:
            pass  # the child has ended


def _serve(items: Iterator[Any], pipe) -> None:
    """The forked child: send each of ``items``, or the failure that stopped
    them, down ``pipe``, then leave through ``os._exit``, which runs none of
    the parent's exit handlers or finalizers."""
    status = 1
    try:
        with pipe:

            def send(item: Any) -> None:
                frame = marshal.dumps(item)
                pipe.write(len(frame).to_bytes(_FRAME_HEADER, "little") + frame)
                pipe.flush()

            try:
                for item in items:
                    send(item)
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


def _input_files(input_dir: Path) -> list[Path]:
    """``sorted(input_dir.glob("*.txt"))``, sorted by name: for the paths
    of one directory that is pathlib's own order, without comparing them
    as paths, which took most of the listing's time."""
    return sorted(input_dir.glob("*.txt"), key=lambda path: os.path.normcase(path.name))


def run(config: RunConfig) -> RunSummary:
    """Process every document under the config and publish all run artifacts
    together: each is written to the staging directory and moved into the
    output directory by ``os.replace`` once all are written. A run that
    fails removes what it staged and publishes nothing, and removes the
    output directory, and any parent of it, that it created, if empty. One
    that publishes removes each of casepipe's own files (``_ARTIFACTS``)
    that it did not write and an earlier run left there.

    The inputs are the ``*.txt`` entries of the input directory
    (``_input_files``), read in name order. A gold file is read before the
    first document, so one that cannot be scored against fails the run
    before anything is written, and the published outputs are scored
    against it, as ``evaluate`` does."""
    pipeline = _Pipeline(config)
    gold = None if config.gold_path is None else _gold(config.gold_path, pipeline.schema)
    files = _input_files(config.input_dir)
    staging, outputs, by_case_id = pipeline.staging, pipeline.outputs, itemgetter("case_id")
    shutil.rmtree(staging, ignore_errors=True)  # what a killed run left there
    output_dir = config.output_dir
    # The directories the mkdir below creates, the deepest first.
    created = [path for path in (output_dir, *output_dir.parents) if not path.exists()]
    staging.mkdir(parents=True)
    try:
        records_out = pipeline.process(files)
        pipeline.warning_log.save(staging / "warnings.jsonl")
        backend = pipeline.backend
        summary = RunSummary(
            documents_in=len(files),
            segments=pipeline.segments,
            records_out_rule=records_out.get("rule", 0),
            records_out_llm=records_out.get("llm", 0),
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
            gazetteer_lookups=pipeline.cache.misses,
            config_digest=config.digest(),
        )
        (staging / "run_summary.json").write_text(
            json.dumps(summary._asdict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        for path in created:
            try:
                path.rmdir()
            except OSError:  # not empty: something else was put there
                break
        raise
    # What an earlier run into this directory left and this run did not
    # write goes as this run publishes: a cases_* file of a path it did not
    # run, and every report, which its own scoring writes again.
    staged = sorted(staging.iterdir())
    for name in _ARTIFACTS.difference(path.name for path in staged):
        (output_dir / name).unlink(missing_ok=True)
    for path in staged:
        os.replace(path, output_dir / path.name)
    staging.rmdir()
    if gold is not None:
        found = [(label, output_dir / f"{stem}.jsonl") for label, stem in _PATHS]
        found = [(label, path) for label, path in found if label in pipeline.enabled]
        _score(output_dir, found, gold, summary.config_digest, _print_eval_warning)
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
    gold file is then read once into one ``metrics.GoldSide`` (``_gold``),
    which every path is scored against (``_score``), the two paths side by
    side where a forked child may score one.
    """
    if not gold_path.is_file():
        raise ConfigError(f"gold file does not exist: {gold_path}")
    found = [(label, output_dir / f"{stem}.jsonl") for label, stem in _PATHS]
    found = [(label, path) for label, path in found if path.is_file()]
    if not found:
        raise ConfigError(f"no cases_*.jsonl files to evaluate in {output_dir}")
    return _score(output_dir, found, _gold(gold_path, schema), config_digest, on_warning)


def _gold(gold_path: Path, schema: SchemaDefinition) -> metrics.GoldSide:
    from casepipe import metrics  # deferred: cold starts skip the scorer

    return metrics.GoldSide(iter_jsonl(gold_path), schema)


def _score(
    output_dir: Path,
    found: list[tuple[str, Path]],
    gold: metrics.GoldSide,
    config_digest: str,
    on_warning: metrics.WarnFn | None,
) -> dict[str, metrics.MetricsReport]:
    """Score each ``(label, cases file)`` found against ``gold``, with the
    run's logs from ``run_summary.json`` if there is one (``_run_summary``,
    read before any path is scored), then write the reports. Each cases
    file streams: each line is parsed as it is scored.

    Where scoring runs depends only on the paths found and the platform.
    With both paths found, where ``_reads_ahead`` allows a child to read the
    rule path's file, a child forked once the gold side and the summary are
    read scores the rule path while the calling thread scores the llm path
    (``_score_beside``); otherwise the calling thread scores each path in
    turn. The reports and ``on_warning``'s calls are the same either way,
    the rule path's first, and so is the failure raised: the rule path's
    before the llm path's. No report is written unless every path was
    scored."""
    from casepipe import metrics  # deferred: cold starts skip the scorer

    summary = _run_summary(output_dir / "run_summary.json")
    config_digest = summary.get("config_digest", config_digest)

    def report(label: str, cases_path: Path, warn: metrics.WarnFn | None) -> metrics.MetricsReport:
        return metrics.build_report(
            iter_jsonl(cases_path),
            gold,
            run_log=summary.get("repair_log", {}).get(label, []),
            runtimes=summary.get("runtime", {}).get(label, {}).get("samples", []),
            on_warning=warn,
        )

    if len(found) == 2 and _reads_ahead([found[0][1]]):
        reports = _score_beside(report, found, on_warning)
    else:
        reports = {label: report(label, cases_path, on_warning) for label, cases_path in found}
    for label, scored in reports.items():
        (output_dir / f"metrics_{label}.json").write_text(
            json.dumps(scored._asdict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    table = metrics.format_report(reports, config_digest)
    (output_dir / "report.txt").write_text(table, encoding="utf-8")
    return reports


def _run_summary(path: Path) -> dict[str, Any]:
    """The run summary at ``path``, or {} without one. One that is not a
    JSON object whose ``repair_log`` rows and ``runtime`` samples, where
    present, have the types ``run`` writes them with is a ConfigError."""
    if not path.is_file():
        return {}
    try:
        summary = json.loads(path.read_text(encoding="utf-8"))
    except (RecursionError, ValueError) as exc:  # not JSON, nested too deep, or not UTF-8
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    try:
        rows = [row for log in summary.get("repair_log", {}).values() for row in log]
        samples = [v for block in summary.get("runtime", {}).values() for v in block["samples"]]
        shaped = all(
            (type(row["pre_valid"]), type(row["post_valid"]), type(row["attempts"]))
            == (bool, bool, int)
            for row in rows
        ) and all(type(v) in (int, float) for v in samples)
    except (AttributeError, KeyError, TypeError):  # a value of the wrong kind
        shaped = False
    if not shaped:
        raise ConfigError(f"{path}: not a run summary in the shape run writes")
    return summary


def _score_beside(
    report: Callable[[str, Path, metrics.WarnFn | None], metrics.MetricsReport],
    found: list[tuple[str, Path]],
    on_warning: metrics.WarnFn | None,
) -> dict[str, metrics.MetricsReport]:
    """``report`` of the rule path, in a forked child (``_in_child``) that
    sends back the report's fields and its warnings in one frame, beside
    ``report`` of the llm path on the calling thread. The warnings go to
    ``on_warning`` once both are scored, the rule path's first; a failure
    of the rule path is raised before one of the llm path."""
    from casepipe import metrics  # deferred: cold starts skip the scorer

    (rule, rule_path), (llm, llm_path) = found

    def rule_report() -> Iterator[tuple]:
        warned: list[tuple[str, str]] = []
        scored = report(rule, rule_path, lambda *warning: warned.append(warning))
        yield tuple(scored), warned

    child = _in_child(
        rule_report, 1, "scoring the rule path", lambda _: "the rule path's scorer ended early"
    )
    warned: list[tuple[str, str]] = []
    failed: Exception | None = None
    try:
        try:
            llm_report = report(llm, llm_path, lambda *warning: warned.append(warning))
        except Exception as exc:
            failed = exc
        # The child's one frame; a failure of the rule path is raised here.
        ((fields, rule_warned),) = child
    finally:
        child.close()
    if on_warning is not None:
        for code, message in rule_warned + warned:
            on_warning(code, message)
    if failed is not None:
        raise failed
    return {rule: metrics.MetricsReport(*fields), llm: llm_report}


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

    # Each run flag sets its RunConfig field only when given, so every
    # default is the field's.
    run_p = sub.add_parser(
        "run",
        help="process a directory of .txt documents",
        argument_default=argparse.SUPPRESS,
    )
    add = run_p.add_argument
    add("--input", dest="input_dir", required=True, type=Path, help="document directory")
    add("--output", dest="output_dir", required=True, type=Path, help="output directory")
    add("--paths", dest="paths_enabled", choices=PATH_CHOICES)
    add("--schema", dest="schema_path", type=Path)
    add("--signatures", dest="signatures_path", type=Path)
    add("--rulesets", dest="rulesets_dir", type=Path)
    add("--mappings", dest="mappings_dir", type=Path)
    add("--gazetteer", dest="gazetteer_path", type=Path)
    add("--cache", dest="cache_path", type=Path, help="geocode cache file")
    add("--backend", choices=BACKEND_CHOICES)
    add(
        "--backend-param",
        dest="backend_params",
        action="append",
        metavar="KEY=VALUE",
        help="backend knob, repeatable (e.g. rate=0.1)",
    )
    add("--budget-chars", type=int)
    add("--max-repair-attempts", type=int)
    add("--max-in-flight", type=int)
    add("--gold", dest="gold_path", type=Path, help="evaluate after the run")
    add("--seed", type=int)
    add("--ingest-ts", help="fixed provenance timestamp for byte-reproducible runs")

    # The rate flags likewise leave their defaults to SynthesisSpec.
    synth_p = sub.add_parser("synth", help="write a synthetic corpus")
    synth_p.add_argument("--out", required=True, type=Path)
    synth_p.add_argument("--seed", type=int, default=0)
    synth_p.add_argument("--count", type=int, default=5, help="documents per family")
    synth_p.add_argument(
        "--families", default=None, help="comma-separated families to generate (default: all)"
    )
    for flag, field in (("--cue-rate", "narrative_cue_rate"), ("--dropout", "label_dropout_rate")):
        synth_p.add_argument(flag, dest=field, type=float, default=argparse.SUPPRESS)

    eval_p = sub.add_parser("eval", help="score run outputs against a gold file")
    eval_p.add_argument("--output", required=True, type=Path, help="run output dir")
    eval_p.add_argument("--gold", required=True, type=Path)
    eval_p.add_argument("--schema", type=Path, default=None)
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    fields = vars(args)
    del fields["command"]
    if "backend_params" in fields:
        fields["backend_params"] = _parse_params(fields["backend_params"])
    config = RunConfig(**fields)
    summary = run(config)
    print(f"documents in:      {summary.documents_in}")
    print(f"segments:          {summary.segments}")
    print(f"records out (rule): {summary.records_out_rule}")
    print(f"records out (llm):  {summary.records_out_llm}")
    print(f"warnings:          {summary.warnings_by_severity or '{}'}")
    print(f"summary file:      {config.output_dir / 'run_summary.json'}")
    if config.gold_path is not None:
        print(f"report file:       {config.output_dir / 'report.txt'}")
        print((config.output_dir / "report.txt").read_text(encoding="utf-8"))
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    # Imported here: run and eval never need the generator.
    from casepipe.synth import FAMILY_LABELS, SynthesisSpec, write_corpus

    families = sorted(FAMILY_LABELS) if args.families is None else args.families.split(",")
    families = [f.strip() for f in families if f.strip()]
    rates = {name: value for name, value in vars(args).items() if name.endswith("_rate")}
    spec = SynthesisSpec(
        seed=args.seed, count_per_family={family: args.count for family in families}, **rates
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
