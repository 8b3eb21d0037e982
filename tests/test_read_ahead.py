"""Where documents are read does not change what a run writes.

``cli._Pipeline.process`` reads documents (extract, split, detect and the
rule path's draft and harmonize) either on the calling thread or in a forked
child one document ahead, which ``cli._reads_ahead`` decides. The tests here
force each placement and compare the bytes, and check that the child never
outlives the run, whether it ends, fails in the child or fails in the
parent.
"""

from __future__ import annotations

import os
import threading
import warnings
from pathlib import Path

import pytest

from casepipe import cli
from casepipe.config import ConfigError
from casepipe.synth import FAMILY_LABELS, SynthesisSpec, write_corpus
from test_golden_outputs import CONFIGS, GOLDEN, output_hashes, summary_hash

INGEST = "2025-01-15T09:30:00+00:00"
PLACEMENTS = {"forked": lambda files: bool(files), "in_process": lambda files: False}

HOSTILE = {
    "empty.txt": b"",
    "binary.txt": b"Full Name: Jo\x00hn\n" * 8,
    "memo.txt": (
        "Internal memo about an unrelated administrative matter.\n"
        "Full Name: José\n"
        "Several more sentences of filler so the quality floor is met.\n"
    ).encode("cp1252"),
    "two_cases.txt": (
        "MISSING PERSONS REGISTRY\n"
        "CASE #1\n"
        "Full Name: Avery Quill\n"
        "Registry Case Number: R-1\n"
        "CASE #2\n"
        "Full Name: Rowan Marsh\n"
        "Registry Case Number: R-2\n"
        "Filler sentences, so that the content meets the quality floor.\n"
    ).encode("utf-8"),
    "unknown.txt": (
        "Minutes of the parish council, spring session. The hall roof is to "
        "be repaired before the summer fair, and the budget was approved.\n"
    ).encode("utf-8"),
}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("corpus")
    spec = SynthesisSpec(
        seed=4,
        count_per_family={family: 4 for family in sorted(FAMILY_LABELS)},
        label_dropout_rate=0.5,
    )
    write_corpus(spec, root)
    for name, data in HOSTILE.items():
        (root / "docs" / name).write_bytes(data)
    return root / "docs"


def _place(monkeypatch, placement: str) -> list[int]:
    """Force ``placement`` and count the forks the parent makes."""
    monkeypatch.setattr(cli, "_reads_ahead", PLACEMENTS[placement])
    forks: list[int] = []
    fork = os.fork

    def counting_fork() -> int:
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def _config(docs: Path, out: Path, **overrides) -> cli.RunConfig:
    settings = {"input_dir": docs, "output_dir": out, "ingest_ts": INGEST, "seed": 4}
    settings.update(overrides)
    return cli.RunConfig(**settings)


def _output_bytes(out: Path) -> dict[str, bytes | str]:
    files = sorted(out.glob("cases_*")) + [out / "warnings.jsonl"]
    found: dict[str, bytes | str] = {path.name: path.read_bytes() for path in files}
    found["run_summary.json"] = summary_hash(out / "run_summary.json")
    return found


def _assert_no_child() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("backend", ["invalid_then_fix", "never_fix", "dropout_oracle"])
@pytest.mark.parametrize("paths", ["rule", "both"])
def test_both_placements_write_the_same_bytes(
    corpus, tmp_path, monkeypatch, paths, backend
):
    params = {} if backend == "dropout_oracle" else {"inject_every": "2"}
    outputs = {}
    for placement in PLACEMENTS:
        forks = _place(monkeypatch, placement)
        out = tmp_path / placement
        config = _config(
            corpus, out, paths_enabled=paths, backend=backend, backend_params=params
        )
        summary = cli.run(config)
        assert len(forks) == (placement == "forked")
        assert summary.documents_in == len(list(corpus.glob("*.txt")))
        outputs[placement] = _output_bytes(out)
        _assert_no_child()
    forked, in_process = outputs["forked"], outputs["in_process"]
    assert forked.keys() == in_process.keys()
    for name in forked:
        assert forked[name] == in_process[name], name
    # The hostile files log a warning from each stage the child runs, so the
    # warning log pins what the caller replays.
    for code in (
        b"extraction_failed",
        b"encoding_fallback",
        b"low_quality_text",
        b'"unknown_source"',
        b"unknown_source_fallback",
    ):
        assert code in forked["warnings.jsonl"], code


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("name", CONFIGS)
def test_the_golden_configs_match_in_either_placement(monkeypatch, name, placement):
    _place(monkeypatch, placement)
    assert output_hashes(name) == GOLDEN[name]


def _small_docs(tmp_path: Path, count: int) -> Path:
    root = tmp_path / "corpus"
    counts = {family: count for family in sorted(FAMILY_LABELS)}
    write_corpus(SynthesisSpec(seed=2, count_per_family=counts), root)
    return root / "docs"


def test_a_failure_in_the_child_surfaces_with_its_message(tmp_path, monkeypatch):
    _place(monkeypatch, "forked")

    def broken(*args, **kwargs):
        raise ValueError("the rules could not be dispatched")

    monkeypatch.setattr(cli, "dispatch", broken)
    docs = _small_docs(tmp_path, 2)
    with pytest.raises(RuntimeError, match="the rules could not be dispatched") as raised:
        cli.run(_config(docs, tmp_path / "out", paths_enabled="rule"))
    assert "ValueError" in str(raised.value)
    _assert_no_child()


def test_a_config_error_in_the_child_stays_a_config_error(tmp_path, monkeypatch):
    _place(monkeypatch, "forked")

    def unconfigured(*args, **kwargs):
        raise ConfigError("no ruleset configured for family 'x'")

    monkeypatch.setattr(cli, "dispatch", unconfigured)
    with pytest.raises(ConfigError, match="no ruleset configured for family 'x'"):
        cli.run(_config(_small_docs(tmp_path, 1), tmp_path / "out", paths_enabled="rule"))
    _assert_no_child()


def test_a_child_that_dies_mid_run_is_an_error(tmp_path, monkeypatch):
    _place(monkeypatch, "forked")
    real_dispatch = cli.dispatch
    calls = [0]

    def dying(*args, **kwargs):
        calls[0] += 1
        if calls[0] == 3:
            os._exit(3)
        return real_dispatch(*args, **kwargs)

    monkeypatch.setattr(cli, "dispatch", dying)
    with pytest.raises(RuntimeError, match="ended after 2 of 6 documents"):
        cli.run(_config(_small_docs(tmp_path, 2), tmp_path / "out", paths_enabled="rule"))
    _assert_no_child()


def test_a_failure_in_the_parent_leaves_no_child(tmp_path, monkeypatch):
    _place(monkeypatch, "forked")
    calls = [0]
    real_validate = cli.validate

    def failing(*args, **kwargs):
        calls[0] += 1
        if calls[0] == 3:
            raise KeyError("parent-side failure")
        return real_validate(*args, **kwargs)

    monkeypatch.setattr(cli, "validate", failing)
    # Enough documents that the child is still reading, or blocked on a full
    # pipe, when the parent fails.
    docs = _small_docs(tmp_path, 40)
    with pytest.raises(KeyError, match="parent-side failure"):
        cli.run(_config(docs, tmp_path / "out", paths_enabled="rule"))
    _assert_no_child()


def test_an_empty_directory_forks_nothing(tmp_path, monkeypatch):
    def refuse() -> int:
        raise AssertionError("an empty run forked")

    monkeypatch.setattr(os, "fork", refuse)
    (tmp_path / "docs").mkdir()
    summary = cli.run(_config(tmp_path / "docs", tmp_path / "out"))
    assert summary.documents_in == 0


def test_a_caller_with_a_live_thread_reads_in_process(tmp_path, monkeypatch):
    def refuse() -> int:
        raise AssertionError("a run forked beside a live thread")

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    docs = _small_docs(tmp_path, 1)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, args=(30,))
    thread.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            summary = cli.run(_config(docs, tmp_path / "out", paths_enabled="rule"))
    finally:
        stop.set()
        thread.join(timeout=30)
    assert not thread.is_alive()
    assert summary.records_out_rule == summary.segments > 0


@pytest.mark.parametrize("cpus, reads_ahead", [({0}, False), ({0, 1}, True)])
def test_the_child_needs_two_usable_cpus(tmp_path, monkeypatch, cpus, reads_ahead):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    files = [tmp_path / "a.txt"]
    assert cli._reads_ahead(files) is (reads_ahead and hasattr(os, "fork"))
    assert cli._reads_ahead([]) is False

