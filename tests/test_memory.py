"""Memory a run and its evaluation hold per record.

A run keeps each finished record as its output text (the JSONL line and
compact CSV cells), and evaluation streams both files it reads, so the peak
of either grows by a few kilobytes per record. tracemalloc takes each peak
over two corpora of one seed, 40 and 120 documents per family at label
dropout 0.5. The peak's growth divided by the record count's growth is the
cost per record; fixed costs, such as loaded resources, cancel out. A
warm-up run first fills the first-use caches and lazy imports, which would
otherwise count against the smaller corpus only. Each corpus is then
measured twice and the smaller growth kept, for the run and the evaluation
alike: a one-off allocation, such as a resize of the interpreter's table of
interned strings (about 400 KiB), lands in one window or another depending
on what ran before, and would otherwise read as a cost per record.
"""

import gc
import tracemalloc

import pytest

from casepipe import cli
from casepipe.cli import RunConfig, evaluate_outputs, run
from casepipe.config import read_jsonl
from casepipe.schema import default_schema
from casepipe.synth import FAMILY_LABELS, SynthesisSpec, write_corpus

INGEST = "2025-01-15T09:30:00+00:00"
SCHEMA = default_schema()
KB = 1024
# Per emitted record for a run, per gold record for its evaluation. Holding
# every record as a dict as well, as a run once did, costs 8-11 KB per
# record, and reading both files into lists costs 8-15 KB per gold record.
RUN_BOUND = 6 * KB
EVAL_BOUND = 4 * KB


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    roots = []
    for count in (40, 120):
        root = tmp_path_factory.mktemp(f"corpus{count}")
        spec = SynthesisSpec(
            seed=3,
            count_per_family={family: count for family in sorted(FAMILY_LABELS)},
            label_dropout_rate=0.5,
        )
        write_corpus(spec, root)
        roots.append(root)
    return roots


def _peak_growth(fn):
    """fn's result and how far above its starting point memory peaked."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def _measure(root, out, paths, backend, params):
    config = RunConfig(
        input_dir=root / "docs",
        output_dir=out,
        paths_enabled=paths,
        backend=backend,
        backend_params=params,
        ingest_ts=INGEST,
    )
    summary, run_growth = _peak_growth(lambda: run(config))
    gold = root / "gold.jsonl"
    _, eval_growth = _peak_growth(lambda: evaluate_outputs(out, gold, SCHEMA))
    records = summary.records_out_rule + summary.records_out_llm
    return records, len(read_jsonl(gold)), run_growth, eval_growth


def _least(root, out, paths, backend, params):
    """``_measure`` twice over one corpus, keeping the smaller growth of the
    run and of the evaluation each."""
    first = _measure(root, out / "1", paths, backend, params)
    second = _measure(root, out / "2", paths, backend, params)
    assert first[:2] == second[:2]
    return (*first[:2], min(first[2], second[2]), min(first[3], second[3]))


@pytest.mark.parametrize("forked", [True, False], ids=["forked", "in-process"])
@pytest.mark.parametrize(
    "paths, backend, params",
    [
        ("rule", "oracle", {}),
        ("llm", "oracle", {}),
        ("both", "invalid_then_fix", {"inject_every": "1"}),
    ],
    ids=["rule", "llm", "both-repair"],
)
def test_memory_grows_by_a_few_kilobytes_per_record(
    corpora, tmp_path, monkeypatch, paths, backend, params, forked
):
    # Read in a forked child, the parent holds only what it receives: each
    # document's frame and, on a both-path run, whose rule files the child
    # writes, the rule path's log rows and runtimes; read in-process, the
    # bound covers the reader's allocations and its rule rows as well.
    monkeypatch.setattr(cli, "_reads_ahead", lambda files: forked and bool(files))
    small, large = corpora
    _measure(small, tmp_path / "warm", paths, backend, params)
    records_s, gold_s, run_s, eval_s = _least(small, tmp_path / "s", paths, backend, params)
    records_l, gold_l, run_l, eval_l = _least(large, tmp_path / "l", paths, backend, params)
    per_record = (run_l - run_s) / (records_l - records_s)
    per_gold = (eval_l - eval_s) / (gold_l - gold_s)
    assert per_record <= RUN_BOUND, f"run: {per_record / KB:.1f} KB per record"
    assert per_gold <= EVAL_BOUND, f"eval: {per_gold / KB:.1f} KB per gold record"
