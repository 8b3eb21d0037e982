"""Outside-in span tracing of casepipe's layers.

The benchmark never edits the package. It replaces public functions at the
names their callers look them up (``casepipe.cli.<fn>``, the ``casepipe.llm``
globals that ``repair_loop`` calls, the ``emit`` writers and
``metrics.build_report``) with wrappers that record one span per call.

Each thread keeps its own span stack, so a span's parent is always the call
that encloses it on the same thread; with a shared stack, spans from two
pool threads would nest in each other and self times would go negative.
Spans are kept in memory and written once, after the run.
"""

from __future__ import annotations

import json
import math
import threading
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator


class Span:
    __slots__ = ("name", "start", "end", "parent", "doc", "info")

    def __init__(self, name: str, parent: "Span | None", doc: str | None):
        self.name = name
        self.parent = parent
        self.doc = doc
        self.start = self.end = 0.0
        self.info: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from any number of threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None, getattr(self._local, "doc", None))
        stack.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        observe: Callable[[tuple, Any], Any] | None = None,
        doc_of: Callable[[tuple], str] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` with a span around each call.

        ``observe(args, result)`` runs after the span closes and its return
        value is kept as the span's ``info``. ``doc_of(args)`` names the
        document the calling thread works on from this call onwards.
        """

        def traced(*args: Any, **kwargs: Any) -> Any:
            if doc_of is not None:
                self._local.doc = doc_of(args)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if observe is not None:
                span.info = observe(args, result)
            return result

        return traced

    def save(self, path: Path) -> None:
        ids = {id(span): index for index, span in enumerate(self.spans)}
        with path.open("w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                row = {
                    "id": index,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": ids.get(id(span.parent)),
                    "doc": span.doc,
                }
                fh.write(json.dumps(row) + "\n")


def _file_bytes(args: tuple, result: Any) -> int:
    return Path(args[0]).stat().st_size


@contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Patch every traced name for the duration of the block."""
    from casepipe import cli, emit, llm, metrics
    from casepipe.sources import UNKNOWN_LABEL

    wrap = tracer.wrap
    validate = wrap("schema.validate", cli.validate)
    call_backend = wrap(
        "llm.call_backend", cli.call_backend, observe=lambda args, r: args[0].tier
    )
    sanitize = wrap("llm.sanitize_candidate", cli.sanitize_candidate)
    original_make_backend = cli.make_backend

    def make_backend(name: str, params: dict | None = None) -> Any:
        backend = original_make_backend(name, params)
        backend.generate = wrap("llm.generate", backend.generate)
        return backend

    patches: list[tuple[Any, str, Any]] = [
        (cli, "extract_text", wrap(
            "extract.extract_text", cli.extract_text,
            doc_of=lambda args: args[0].document_id,
        )),
        (cli, "prenormalize", wrap("extract.prenormalize", cli.prenormalize)),
        (cli, "split_cases", wrap("extract.split_cases", cli.split_cases)),
        (cli, "detect_source", wrap(
            "sources.detect_source", cli.detect_source,
            observe=lambda args, r: r.source_label == UNKNOWN_LABEL,
        )),
        (cli, "dispatch", wrap("rules.dispatch", cli.dispatch)),
        (cli, "harmonize", wrap("harmonize.harmonize", cli.harmonize)),
        (cli, "apply_geocode", wrap("geocode.apply_geocode", cli.apply_geocode)),
        (cli, "validate", validate),
        (llm, "validate", validate),
        (cli, "build_extraction_prompt", wrap(
            "llm.build_extraction_prompt", cli.build_extraction_prompt,
            observe=lambda args, r: len(r.render()),
        )),
        (llm, "build_repair_prompt", wrap(
            "llm.build_repair_prompt", llm.build_repair_prompt,
            observe=lambda args, r: len(r.render()),
        )),
        (cli, "call_backend", call_backend),
        (llm, "call_backend", call_backend),
        (cli, "sanitize_candidate", sanitize),
        (llm, "sanitize_candidate", sanitize),
        (cli, "repair_loop", wrap(
            "llm.repair_loop", cli.repair_loop,
            observe=lambda args, r: (r.attempts, r.passed),
        )),
        (cli, "make_backend", make_backend),
        (emit, "write_records_jsonl", wrap(
            "emit.write_records_jsonl", emit.write_records_jsonl, observe=_file_bytes,
        )),
        (emit, "write_records_csv", wrap(
            "emit.write_records_csv", emit.write_records_csv, observe=_file_bytes,
        )),
        (emit.WarningLog, "save", wrap(
            "emit.WarningLog.save", emit.WarningLog.save,
            observe=lambda args, r: Path(args[1]).stat().st_size,
        )),
        (metrics, "build_report", wrap(
            "metrics.build_report", metrics.build_report,
            observe=lambda args, r: r.record_count,
        )),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    for owner, attr, replacement in patches:
        setattr(owner, attr, replacement)
    try:
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# From spans to per-layer metrics


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total = 0.0
    end = -math.inf
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


def self_times(spans: list[Span], root: Span) -> dict[int, float]:
    """Duration minus the part of it that child spans cover, per span.

    Spans opened on pool threads have no parent on their own stack; they
    are children of ``root``, the span around the whole run.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span is root:
            continue
        parent = span.parent
        if parent is None and root.start <= span.start and span.end <= root.end:
            parent = root
        if parent is not None:
            children.setdefault(id(parent), []).append((span.start, span.end))
    return {
        id(span): span.duration - _covered(children.get(id(span), []))
        for span in spans
    }


def _nearest_rank(ordered: list[float], q: float) -> float:
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def layer_metrics(
    tracer: Tracer,
    run_span: Span,
    summary: Any,
    output_dir: Path,
    paths_enabled: int,
) -> dict[str, float]:
    """Per-layer metrics of one traced ``cli.run`` plus its evaluation."""
    own = self_times(tracer.spans, run_span)
    by_name: dict[str, list[Span]] = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)

    def spans(name: str) -> list[Span]:
        return by_name.get(name, [])

    def self_s(*names: str) -> float:
        return sum(own[id(span)] for name in names for span in spans(name))

    def info_sum(*names: str) -> float:
        return sum(span.info for name in names for span in spans(name))

    backend = spans("llm.call_backend")
    backend_ms = sorted(span.duration * 1000.0 for span in backend)
    backend_s = sum(span.duration for span in backend)
    repairs = [span.info for span in spans("llm.repair_loop")]
    entered = [passed for attempts, passed in repairs if attempts > 0]
    validates = len(spans("schema.validate"))
    records_due = summary.segments * paths_enabled
    lookups = summary.geocode_cache["hits"] + summary.geocode_cache["misses"]
    return {
        "extract.calls": len(spans("extract.extract_text")),
        "extract.self_s": self_s("extract.extract_text"),
        "extract.normalize_s": self_s("extract.prenormalize"),
        "extract.split_s": self_s("extract.split_cases"),
        "sources.self_s": self_s("sources.detect_source"),
        "sources.unknown": info_sum("sources.detect_source"),
        "rules.self_s": self_s("rules.dispatch"),
        "harmonize.calls": len(spans("harmonize.harmonize")),
        "harmonize.self_s": self_s("harmonize.harmonize"),
        "geocode.self_s": self_s("geocode.apply_geocode"),
        "geocode.cache_hit_ratio": summary.geocode_cache["hits"] / lookups if lookups else 0.0,
        "geocode.gazetteer_lookups": summary.gazetteer_lookups,
        "schema.validate_calls": validates,
        "schema.validate_s": self_s("schema.validate"),
        "schema.validate_per_record": validates / records_due if records_due else 0.0,
        "llm.prompt_s": self_s("llm.build_extraction_prompt", "llm.build_repair_prompt"),
        "llm.prompt_chars": info_sum("llm.build_extraction_prompt", "llm.build_repair_prompt"),
        "llm.sanitize_s": self_s("llm.sanitize_candidate"),
        "llm.repair_s": self_s("llm.repair_loop"),
        "llm.backend_calls_extract": sum(1 for span in backend if span.info == "extract"),
        "llm.backend_calls_repair": sum(1 for span in backend if span.info == "repair"),
        "llm.backend_retries": len(spans("llm.generate")) - len(backend),
        "llm.backend_s": backend_s,
        "llm.backend_p50_ms": _nearest_rank(backend_ms, 0.50),
        "llm.backend_p99_ms": _nearest_rank(backend_ms, 0.99),
        "llm.backend_inflight_mean": backend_s / run_span.duration,
        "llm.repair_passed_ratio": sum(entered) / len(entered) if entered else 0.0,
        "emit.jsonl_s": self_s("emit.write_records_jsonl"),
        "emit.csv_s": self_s("emit.write_records_csv"),
        "emit.warnings_s": self_s("emit.WarningLog.save"),
        "emit.bytes": info_sum(
            "emit.write_records_jsonl", "emit.write_records_csv", "emit.WarningLog.save"
        ),
        "emit.summary_bytes": (output_dir / "run_summary.json").stat().st_size,
        "metrics.report_s": self_s("metrics.build_report"),
        "metrics.records_scored": info_sum("metrics.build_report"),
        "cli.self_s": own[id(run_span)],
    }
