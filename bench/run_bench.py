"""casepipe benchmark: one workload per call, end-to-end or traced.

Usage, from the repository root:

    python3 bench/run_bench.py --workload dual_repair --seed 7 --seconds 30 --trace 0

The corpus is synthesized from ``--seed`` with ``casepipe.synth``; the
package is imported from ``src/`` next to this directory. The measured
repetitions run in a worker process of their own (``worker.py``), set-up
time is taken from fresh interpreters (``coldstart.py``) that the worker
starts between repetitions, and the ``wire`` workload's model backend is a
loopback HTTP server in another process (``wire_server.py``).

``--trace 0`` prints the end-to-end metrics, with timings scaled to a
reference host speed by a kernel the worker times around each repetition;
``--trace 1`` prints the per-layer metrics of a traced run (``tracing.py``).
Either way the outputs are checked; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}, and the exit code
is 0 only when every check passed. See README.md for why each workload
exists.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import urllib.request
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
WORK = BENCH_DIR / ".work"

INGEST_TS = "2025-01-15T09:30:00+00:00"
# Seconds of worker.reference_kernel_s on the 2-core host, 2.0 GHz, in its
# fast spells; timings are reported at that host speed (see README.md).
KERNEL_REF_S = 0.15
MIN_REPS = 3
CHILD_TIMEOUT_S = 150
WITHHELD_CODES = ("record_withheld", "backend_error", "candidate_parse_error")
LOOPBACK = "127.0.0.1,localhost"


@dataclass(frozen=True)
class Workload:
    paths: str
    dropout: float
    per_family: int
    max_in_flight: int
    backend: str = "oracle"
    backend_params: dict = field(default_factory=dict)
    server_delay_ms: float = 0.0


WORKLOADS = {
    "rule_labeled": Workload(paths="rule", dropout=0.0, per_family=200, max_in_flight=1),
    "dual_repair": Workload(
        paths="both",
        dropout=0.5,
        per_family=150,
        max_in_flight=1,
        backend="invalid_then_fix",
        backend_params={"inject_every": "1"},
    ),
    "wire_inflight": Workload(
        paths="llm",
        dropout=0.5,
        per_family=100,
        max_in_flight=2,
        backend="wire",
        server_delay_ms=5.0,
    ),
}

END_TO_END_UNITS = {
    "docs_per_s": "docs/s",
    "eval_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "f1": "ratio",
    "emitted_ratio": "ratio",
}

PER_LAYER_UNITS = {
    "extract.calls": "count",
    "extract.self_s": "s",
    "extract.normalize_s": "s",
    "extract.split_s": "s",
    "sources.self_s": "s",
    "sources.unknown": "count",
    "rules.self_s": "s",
    "harmonize.calls": "count",
    "harmonize.self_s": "s",
    "geocode.self_s": "s",
    "geocode.cache_hit_ratio": "ratio",
    "geocode.gazetteer_lookups": "count",
    "schema.validate_calls": "count",
    "schema.validate_s": "s",
    "schema.validate_per_record": "count",
    "llm.prompt_s": "s",
    "llm.prompt_chars": "chars",
    "llm.sanitize_s": "s",
    "llm.repair_s": "s",
    "llm.backend_calls_extract": "count",
    "llm.backend_calls_repair": "count",
    "llm.backend_retries": "count",
    "llm.backend_s": "s",
    "llm.backend_p50_ms": "ms",
    "llm.backend_p99_ms": "ms",
    "llm.backend_inflight_mean": "count",
    "llm.repair_passed_ratio": "ratio",
    "emit.jsonl_s": "s",
    "emit.csv_s": "s",
    "emit.warnings_s": "s",
    "emit.bytes": "bytes",
    "emit.summary_bytes": "bytes",
    "metrics.report_s": "s",
    "metrics.records_scored": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def _child_env(backend_url: str | None) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("CASEPIPE_BACKEND_URL", None)
    if backend_url is not None:
        env["CASEPIPE_BACKEND_URL"] = backend_url
        env["NO_PROXY"] = env["no_proxy"] = LOOPBACK
    return env


def run_worker(spec: Path, result: Path, env: dict[str, str]) -> None:
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), str(spec), str(result)],
        env=env,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )


def _write_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


@contextmanager
def wire_server(delay_ms: float, threads: int) -> Iterator[str]:
    """Run the loopback backend; yields its base URL and always stops it."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "wire_server.py"), str(delay_ms), str(threads)],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "PORT":
            raise RuntimeError("loopback backend did not report its port")
        yield f"http://127.0.0.1:{int(line[1])}/"
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def served_count(base_url: str) -> int:
    opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
    with opener.open(base_url + "stats", timeout=10) as resp:
        return json.loads(resp.read().decode("utf-8"))["served"]


def check_outputs(out: Path, workload: Workload) -> tuple[list[str], dict[str, float]]:
    """Checks on the files the last repetition left; returns failures and
    the micro F1 of each enabled path."""
    from casepipe.config import bundled_path, read_jsonl
    from casepipe.schema import SchemaDefinition, validate

    failures = []
    schema = SchemaDefinition.load(bundled_path("schema.jsonl"))
    summary = json.loads((out / "run_summary.json").read_text(encoding="utf-8"))
    withheld = sum(
        1 for row in read_jsonl(out / "warnings.jsonl") if row["code"] in WITHHELD_CODES
    )
    paths = ("rule", "llm") if workload.paths == "both" else (workload.paths,)
    f1 = {}
    for path in paths:
        records = read_jsonl(out / f"cases_{path}.jsonl")
        invalid = sum(1 for record in records if not validate(record, schema).valid)
        if invalid:
            failures.append(f"{path}: {invalid} emitted records fail schema.validate")
        held = withheld if path == "llm" else 0
        if len(records) + held != summary["segments"]:
            failures.append(
                f"{path}: {len(records)} emitted + {held} withheld != "
                f"{summary['segments']} segments"
            )
        report = json.loads((out / f"metrics_{path}.json").read_text(encoding="utf-8"))
        f1[path] = report["f1"]
    return failures, f1


def paper_claims(name: str, f1: dict[str, float]) -> list[str]:
    """The paper's two claims, each on the workload built to show it."""
    if name == "rule_labeled" and not f1["rule"] >= 0.95:
        return [f"f1_rule {f1['rule']} < 0.95 on labeled forms"]
    if name == "dual_repair" and not f1["llm"] > f1["rule"]:
        return [f"f1_llm {f1['llm']} <= f1_rule {f1['rule']} under label dropout"]
    return []


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if not (SRC / "casepipe" / "cli.py").is_file():
        print(f"run_bench: no casepipe package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from casepipe.synth import FAMILY_LABELS, SynthesisSpec, write_corpus

    name = args.workload
    workload = WORKLOADS[name]
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    (work / "empty").mkdir(parents=True)
    write_corpus(
        SynthesisSpec(
            seed=args.seed,
            count_per_family={family: workload.per_family for family in sorted(FAMILY_LABELS)},
            label_dropout_rate=workload.dropout,
        ),
        work / "corpus",
    )
    config = {
        "paths_enabled": workload.paths,
        "backend": workload.backend,
        "backend_params": workload.backend_params,
        "max_in_flight": workload.max_in_flight,
        "seed": args.seed,
        "ingest_ts": INGEST_TS,
    }
    setup_spec = _write_json(
        work / "setup.json",
        {
            "src": str(SRC),
            "empty_docs": str(work / "empty"),
            "setup_out": str(work / "setup_out"),
            "config": config,
        },
    )
    worker_spec = _write_json(
        work / "worker.json",
        {
            "src": str(SRC),
            "docs": str(work / "corpus" / "docs"),
            "gold": str(work / "corpus" / "gold.jsonl"),
            "out": str(work / "out"),
            "spans": str(work / "spans.jsonl"),
            "setup": str(setup_spec),
            "config": config,
            "seconds": args.seconds,
            "min_reps": MIN_REPS,
            "trace": bool(args.trace),
        },
    )
    result_path = work / "result.json"
    served = None
    if workload.backend == "wire":
        with wire_server(workload.server_delay_ms, workload.max_in_flight) as url:
            run_worker(worker_spec, result_path, _child_env(url))
            served = served_count(url)
    else:
        run_worker(worker_spec, result_path, _child_env(None))
    result = json.loads(result_path.read_text(encoding="utf-8"))

    reps = result["reps"]
    measured = [r for r in reps if not r["traced"]]
    failures, f1 = check_outputs(work / "out", workload)
    failures += paper_claims(name, f1)
    reference = result["warmup"]["hashes"]
    if any(rep["hashes"] != reference for rep in reps):
        failures.append("cases_* files differ between repetitions of one seed")
    backend_calls = sum(r["backend_calls"] for r in [result["warmup"], *reps])
    if served is not None and served != backend_calls:
        failures.append(f"loopback backend served {served} of {backend_calls} calls")

    attempted = sum(r["records_due"] for r in reps)
    emitted = sum(r["records_out"] for r in reps)
    retries = sum(r["backend_retries"] for r in reps)
    print(f"workload {name} seed {args.seed}: {len(reps)} repetitions "
          f"({len(measured)} untraced), {reps[0]['documents_in']} documents each")
    print("cli.run seconds per repetition:", " ".join(f"{r['run_s']:.3f}" for r in reps))
    for file_name, digest in sorted(reference.items()):
        print(f"sha256 {file_name} {digest}")
    for path, value in sorted(f1.items()):
        print(f"f1_{path} = {value} ratio")
    print(f"failed_ratio = {1 - emitted / attempted} ratio")
    print(f"backend_retries = {retries} count")

    if args.trace:
        traced = [r["layers"] for r in reps if r["traced"]]
        negative = sorted({
            metric
            for layers in traced
            for metric, value in layers.items()
            if metric.endswith("_s") and value < 0
        })
        if negative:
            failures.append(f"negative self time in {', '.join(negative)}")
        metrics = {
            metric: statistics.median_low(layers[metric] for layers in traced)
            for metric in PER_LAYER_UNITS
            if metric != "trace.overhead_s"
        }
        metrics["trace.overhead_s"] = result["trace_overhead_s"]
        units = PER_LAYER_UNITS
    else:
        # Repetition i ran between kernel timings i and i + 1; their mean
        # over KERNEL_REF_S is how much slower than reference the host ran.
        kernel = result["kernel_s"]
        slowdown = [(kernel[i] + kernel[i + 1]) / 2 / KERNEL_REF_S for i in range(len(reps))]
        pairs = [(r, slow) for r, slow in zip(reps, slowdown) if not r["traced"]]
        raw = {
            "docs_per_s": statistics.median(r["documents_in"] / r["run_s"] for r in measured),
            "eval_s": statistics.median(r["eval_s"] for r in measured),
            "setup_s": statistics.median(result["setup_s"]),
        }
        for metric, value in raw.items():
            print(f"unscaled {metric} = {value} {END_TO_END_UNITS[metric]}")
        print(f"host slowdown = {statistics.median(slowdown)} (median)")
        metrics = {
            "docs_per_s": statistics.median(r["documents_in"] / r["run_s"] * slow for r, slow in pairs),
            "eval_s": statistics.median(r["eval_s"] / slow for r, slow in pairs),
            "setup_s": statistics.median(t / slow for t, slow in zip(result["setup_s"], slowdown)),
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
            "f1": statistics.fmean(f1.values()),
            "emitted_ratio": emitted / attempted,
        }
        units = END_TO_END_UNITS
    for metric, value in metrics.items():
        print(f"{metric} = {value} {units[metric]}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": attempted - emitted,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
