"""Run one workload's repetitions in a process of their own.

Usage: python3 worker.py SPEC_JSON RESULT_JSON

The spec names the package source, the corpus, the run config and how many
seconds to measure. The process runs only this workload, so its peak RSS is
the workload's. Every repetition is ``cli.run`` then ``cli.evaluate_outputs``
on the same output directory; only those two calls are timed. With tracing
on, untraced and traced repetitions alternate so that the tracing overhead
compares like with like.

After each repetition, outside the timed calls, one cold start runs in a
fresh interpreter (``coldstart.py``) and then the reference kernel runs
once, so each repetition and each cold start lies between two kernel
timings that say how fast the host ran at the time.
"""

from __future__ import annotations

import hashlib
import json
import re
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing

CASES_GLOBS = ("cases_*.jsonl", "cases_*.csv")
COLDSTART = Path(__file__).resolve().parent / "coldstart.py"
_TOKEN_RE = re.compile(r"[A-Za-z]+|\d+")


def reference_kernel_s() -> float:
    """Seconds of fixed interpreter work that never touches casepipe: dicts,
    string formatting, a JSON round trip and a regex scan, the kinds of work
    the pipeline does. Small batches keep it below the workload's peak RSS."""
    started = perf_counter()
    for _ in range(10):
        rows = [
            {"id": i, "name": f"case {i} last seen near {i % 97} Main St", "tags": [str(j) for j in range(6)]}
            for i in range(2000)
        ]
        decoded = json.loads(json.dumps(rows, sort_keys=True))
        sum(len(_TOKEN_RE.findall(row["name"])) for row in decoded)
    return perf_counter() - started


def _hashes(output_dir: Path) -> dict[str, str]:
    found = sorted(p for pattern in CASES_GLOBS for p in output_dir.glob(pattern))
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in found}


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    from casepipe import cli

    config = cli.RunConfig(
        input_dir=Path(spec["docs"]),
        output_dir=Path(spec["out"]),
        **spec["config"],
    )
    gold = Path(spec["gold"])
    schema = cli.SchemaDefinition.load(config.resolved_schema_path())
    paths_enabled = 2 if config.paths_enabled == "both" else 1

    last_tracer = None

    def repetition(traced: bool) -> dict:
        nonlocal last_tracer
        if not traced:
            started = perf_counter()
            summary = cli.run(config)
            run_s = perf_counter() - started
            started = perf_counter()
            cli.evaluate_outputs(config.output_dir, gold, schema)
            eval_s = perf_counter() - started
            layers = None
        else:
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                with tracer.span("cli.run") as run_span:
                    summary = cli.run(config)
                with tracer.span("cli.evaluate_outputs") as eval_span:
                    cli.evaluate_outputs(config.output_dir, gold, schema)
            run_s, eval_s = run_span.duration, eval_span.duration
            layers = tracing.layer_metrics(
                tracer, run_span, summary, config.output_dir, paths_enabled
            )
            last_tracer = tracer
        return {
            "traced": traced,
            "run_s": run_s,
            "eval_s": eval_s,
            "documents_in": summary.documents_in,
            "segments": summary.segments,
            "records_out": summary.records_out_rule + summary.records_out_llm,
            "records_due": summary.segments * paths_enabled,
            "backend_calls": sum(summary.backend_calls.values()),
            # Every extraction and every repair attempt is one logical
            # call; backend calls beyond those are transport retries.
            "backend_retries": sum(summary.backend_calls.values())
            - (summary.segments if config.paths_enabled != "rule" else 0)
            - sum(row["attempts"] for row in summary.repair_log["llm"]),
            "hashes": _hashes(config.output_dir),
            "layers": layers,
        }

    # One untimed repetition first: imports, bytecode and the page cache
    # warm up here, not inside the first measured repetition.
    warmup = repetition(False)
    reps: list[dict] = []
    setup_s: list[float] = []
    kernel_s = [reference_kernel_s()]
    began = perf_counter()
    while perf_counter() - began < spec["seconds"] or len(reps) < spec["min_reps"]:
        reps.append(repetition(spec["trace"] and len(reps) % 2 == 1))
        cold = subprocess.run(
            [sys.executable, str(COLDSTART), spec["setup"]],
            stdout=subprocess.PIPE,
            text=True,
            timeout=60,
            check=True,
        )
        setup_s.append(float(cold.stdout))
        kernel_s.append(reference_kernel_s())

    result = {
        "warmup": warmup,
        "reps": reps,
        "setup_s": setup_s,
        "kernel_s": kernel_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if last_tracer is not None:
        last_tracer.save(Path(spec["spans"]))
        # Each traced repetition against the untraced one just before it,
        # so that both ran in the same spell of host speed.
        result["trace_overhead_s"] = statistics.median(
            traced["run_s"] - plain["run_s"] for plain, traced in zip(reps[::2], reps[1::2])
        )
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
