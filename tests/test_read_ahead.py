"""Where documents are read does not change what a run writes.

``cli._Pipeline.process`` reads documents (extract, split, detect and the
rule path's draft and harmonize) either on the calling thread or in a forked
child one document ahead, which ``cli._reads_ahead`` decides, whatever the
paths and backend. On a both-path run ``_read`` also finishes each rule
record, in either process, against a copy of the geocode cache, and keeps
its row there; the caller replays its warnings and lookups in document
order, and after the last document the reader writes the rule files to the
run's staging directory itself, which ``run`` publishes with the caller's
own. The tests here force each placement and compare the bytes, the geocode
cache's file and counters included, check that the fork happens while the
caller runs one thread, a ``wire`` run's included, that the child never
outlives the run, whether it ends, fails in the child or fails in the
parent, and that a run that fails publishes no file.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path
from typing import Iterator

import pytest

from casepipe import cli, emit, geocode
from casepipe.config import ConfigError
from casepipe.extract import END_SENTINEL
from casepipe.llm import encode_gold_marker
from casepipe.schema import default_schema
from casepipe.synth import FAMILY_LABELS, SynthesisSpec, write_corpus
from test_golden_outputs import CONFIGS, GOLDEN, output_hashes, summary_hash

INGEST = "2025-01-15T09:30:00+00:00"
SCHEMA = default_schema()
PLACEMENTS = {"forked": lambda files: bool(files), "in_process": lambda files: False}
# The real decision, kept before any test replaces it.
READS_AHEAD = cli._reads_ahead
# The benchmark's loopback model backend: the oracle's answers over HTTP.
WIRE_SERVER = Path(__file__).resolve().parents[1] / "bench" / "wire_server.py"


def _bulletin(number: int, last_seen: str | None, gold: dict | None = None) -> bytes:
    lines = [
        "MISSING PERSON BULLETIN",
        f"Bulletin No: PB-2024-{number:04d}",
        "",
        "MISSING: Avery Quill (F, 30)",
    ]
    if last_seen is not None:
        lines.append(f"LAST SEEN: 03/07/2023 near {last_seen}")
    lines.append("WEARING: a green coat")
    if gold is not None:
        lines += [END_SENTINEL, encode_gold_marker(gold)]
    return ("\n".join(lines) + "\n").encode("utf-8")


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
    # One ambiguous place (an Ashford in Virginia and in Maryland) in two
    # documents: the child resolves it once, then finds it in its cache.
    "ashford_1.txt": _bulletin(1, "Ashford"),
    "ashford_2.txt": _bulletin(2, "Ashford"),
    # The first one's rule record geocodes Dover and its llm record then
    # Ashford, Maryland, from the marker, which the rule parser misses; so
    # the cache file pins the order of the two. The second's rule record
    # finds Ashford, Maryland in the caller's cache but not in the child's.
    "ashford_md_1.txt": _bulletin(
        3,
        "Dover",
        {
            "demographic": {"name": "Avery Quill"},
            "spatial": {
                "city": "Ashford",
                "last_seen_location": "Ashford, Maryland",
                "state": "Maryland",
            },
        },
    ),
    "ashford_md_2.txt": _bulletin(4, "Ashford, Maryland"),
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
    """Force ``placement`` and list, for each fork the parent makes, the
    number of threads that ran when it forked."""
    monkeypatch.setattr(cli, "_reads_ahead", PLACEMENTS[placement])
    forks: list[int] = []
    fork = os.fork

    def counting_fork() -> int:
        forks.append(threading.active_count())
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


def _forbid_cache_writes_in_a_child(monkeypatch) -> None:
    """Make a put that would append to a cache file fail in any process but
    this one; in the reader's child the failure reaches the caller."""
    parent, put = os.getpid(), geocode.GeocodeCache.put

    def guarded(self, key, value):
        if self.path is not None and os.getpid() != parent:
            raise AssertionError(f"the child appended {key!r} to the cache file")
        put(self, key, value)

    monkeypatch.setattr(geocode.GeocodeCache, "put", guarded)


@pytest.mark.parametrize("backend", ["invalid_then_fix", "dropout_oracle"])
def test_both_placements_keep_the_cache_file_alike_cold_and_warm(
    corpus, tmp_path, monkeypatch, backend
):
    _forbid_cache_writes_in_a_child(monkeypatch)
    params = {} if backend == "dropout_oracle" else {"inject_every": "2"}
    outputs, caches = {}, {}
    for placement in PLACEMENTS:
        forks = _place(monkeypatch, placement)
        cache = tmp_path / placement / "geocode.jsonl"
        for run in ("cold", "warm"):
            out = tmp_path / placement / run
            config = _config(
                corpus, out, backend=backend, backend_params=params, cache_path=cache
            )
            summary = cli.run(config)
            outputs[placement, run] = _output_bytes(out)
            caches[placement, run] = cache.read_bytes()
            _assert_no_child()
            if run == "warm":
                assert summary.geocode_cache["misses"] == summary.gazetteer_lookups == 0
        assert len(forks) == 2 * (placement == "forked")
        # A warm run finds every place in the cache, so it appends nothing.
        assert caches[placement, "warm"] == caches[placement, "cold"]
    for run in ("cold", "warm"):
        assert caches["forked", run] == caches["in_process", run], run
        forked, in_process = outputs["forked", run], outputs["in_process", run]
        assert forked.keys() == in_process.keys()
        for name in forked:
            assert forked[name] == in_process[name], (run, name)
    cold = outputs["forked", "cold"]
    assert cold["warnings.jsonl"].count(b'"ambiguous_place"') == 2
    lines = caches["forked", "cold"].splitlines()
    first = [json.loads(line)["key"] for line in lines].index
    assert first("dover") + 1 == first("ashford|maryland@maryland")


def _rule_files(out: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(out.glob("cases_rule.*"))}


def test_a_forked_both_path_run_leaves_the_rule_files_to_the_reader(
    corpus, tmp_path, monkeypatch
):
    # Installed before the fork, so the child inherits it, but only the
    # caller's own calls reach this list.
    written: list[str] = []
    for name in ("write_records_jsonl", "write_records_csv"):

        def recording(path, *args, _write=getattr(emit, name)):
            written.append(Path(path).name)
            return _write(path, *args)

        monkeypatch.setattr(emit, name, recording)
    outputs = {}
    for placement in PLACEMENTS:
        forks = _place(monkeypatch, placement)
        written.clear()
        out = tmp_path / placement
        summary = cli.run(_config(corpus, out, backend="dropout_oracle"))
        assert len(forks) == (placement == "forked")
        if placement == "forked":
            assert sorted(written) == ["cases_llm.csv", "cases_llm.jsonl"]
        lines = (out / "cases_rule.jsonl").read_bytes().splitlines()
        assert summary.records_out_rule == len(lines) > 0
        outputs[placement] = _rule_files(out)
        _assert_no_child()
    assert outputs["forked"] == outputs["in_process"]
    assert sorted(outputs["forked"]) == ["cases_rule.csv", "cases_rule.jsonl"]


def test_a_failure_while_the_reader_renders_leaves_no_file(tmp_path, monkeypatch):
    _place(monkeypatch, "forked")

    def broken(*args, **kwargs):
        raise ValueError("the rule rows could not be rendered")

    monkeypatch.setattr(emit, "write_records_csv", broken)
    docs, out = _small_docs(tmp_path, 1), tmp_path / "out"
    with pytest.raises(RuntimeError, match="the rule rows could not be rendered") as raised:
        cli.run(_config(docs, out, backend="dropout_oracle"))
    assert "ValueError" in str(raised.value)
    assert "Traceback" in str(raised.value)
    _assert_no_child()
    assert not list(out.glob("cases_*"))


@pytest.mark.parametrize("placement", PLACEMENTS)
def test_a_failure_while_the_caller_writes_publishes_nothing(tmp_path, monkeypatch, placement):
    docs = _small_docs(tmp_path, 1)
    fresh, earlier = tmp_path / "fresh", tmp_path / "earlier"
    cli.run(_config(docs, earlier, backend="dropout_oracle"))
    before = {path.name: path.read_bytes() for path in earlier.iterdir()}
    _place(monkeypatch, placement)
    write = emit.write_records_csv

    def failing(path, *args):
        if Path(path).name == "cases_llm.csv":
            raise OSError("no room for cases_llm.csv")
        return write(path, *args)

    monkeypatch.setattr(emit, "write_records_csv", failing)
    # Another clock, so that any file these runs published would differ.
    later = "2026-02-01T00:00:00+00:00"
    for out in (fresh, earlier):
        with pytest.raises(OSError, match="no room for cases_llm.csv"):
            cli.run(_config(docs, out, backend="dropout_oracle", ingest_ts=later))
        _assert_no_child()
    assert not list(fresh.glob("cases_*"))
    for name in ("warnings.jsonl", "run_summary.json", cli._STAGING):
        assert not (fresh / name).exists(), name
    assert {path.name: path.read_bytes() for path in earlier.iterdir()} == before


@pytest.mark.parametrize("placement", PLACEMENTS)
def test_a_failed_run_removes_the_output_directory_it_made(tmp_path, monkeypatch, placement):
    docs = _small_docs(tmp_path, 1)
    earlier = tmp_path / "earlier"
    cli.run(_config(docs, earlier, backend="dropout_oracle"))
    before = {path.name: path.read_bytes() for path in earlier.iterdir()}
    kept = tmp_path / "kept"
    kept.mkdir()
    _place(monkeypatch, placement)

    write = emit.write_records_csv

    def failing(path, *args):
        if Path(path).name == "cases_llm.csv":
            raise OSError("no room for cases_llm.csv")
        return write(path, *args)

    monkeypatch.setattr(emit, "write_records_csv", failing)
    later = "2026-02-01T00:00:00+00:00"
    # A fresh directory and its fresh parent go; existing ones stay as they were.
    for out in (tmp_path / "fresh" / "out", kept, earlier):
        with pytest.raises(OSError, match="no room for cases_llm.csv"):
            cli.run(_config(docs, out, backend="dropout_oracle", ingest_ts=later))
        _assert_no_child()
    assert not (tmp_path / "fresh").exists()
    assert kept.is_dir() and not list(kept.iterdir())
    assert {path.name: path.read_bytes() for path in earlier.iterdir()} == before


def test_a_failed_run_keeps_a_directory_it_made_if_another_file_is_there(
    tmp_path, monkeypatch
):
    _place(monkeypatch, "in_process")
    out = tmp_path / "fresh"
    write = emit.write_records_csv

    def failing(path, *args):
        (out / "notes.txt").write_text("left by someone else", encoding="utf-8")
        raise OSError("no room")

    monkeypatch.setattr(emit, "write_records_csv", failing)
    with pytest.raises(OSError, match="no room"):
        cli.run(_config(_small_docs(tmp_path, 1), out, paths_enabled="rule"))
    monkeypatch.setattr(emit, "write_records_csv", write)
    assert [path.name for path in out.iterdir()] == ["notes.txt"]


def _received_frames(monkeypatch) -> list:
    """Record every frame the caller receives from the reader, the
    documents' and the hand-back: installed before the fork, but only the
    caller's own calls reach the list."""
    received: list = []
    loads = cli.marshal.loads

    class Marshal:
        dumps = staticmethod(cli.marshal.dumps)

        @staticmethod
        def loads(frame):
            item = loads(frame)
            received.append(item)
            return item

    monkeypatch.setattr(cli, "marshal", Marshal)
    return received


def _strings(item) -> Iterator[str]:
    """Every string in a frame, keys included."""
    if type(item) is str:
        yield item
    elif type(item) in (tuple, list):
        for element in item:
            yield from _strings(element)
    elif type(item) is dict:
        for key, value in item.items():
            yield from _strings(key)
            yield from _strings(value)


def test_a_rule_only_runs_reader_hands_over_unassembled_values(corpus, tmp_path, monkeypatch):
    leaves = set(SCHEMA.leaf_paths())
    outputs = {}
    for placement in PLACEMENTS:
        forks = _place(monkeypatch, placement)
        frames = _received_frames(monkeypatch)
        out = tmp_path / placement
        summary = cli.run(_config(corpus, out, paths_enabled="rule"))
        assert len(forks) == (placement == "forked")
        if placement == "forked":
            # One frame per document, then a hand-back of nothing.
            assert len(frames) == summary.documents_in + 1 and frames[-1] is None
            received = [rule for _, _, segments in frames[:-1] for _, rule, _ in segments]
            # One parse per segment: dispatch's raw text and the span of
            # each draft key, which the caller harmonizes; no harmonized
            # value, which may be a number, a list or a map, and no JSON
            # line crosses the pipe.
            assert len(received) == summary.segments > 0
            for raw, spans, warnings, seconds in received:
                assert set(raw) == set(spans)
                assert all(type(value) is str for value in raw.values())
                for span in spans.values():
                    assert type(span) is list and len(span) == 3
                    assert all(type(offset) is int for offset in span)
                # The caller adds its own stages' warnings to the list.
                assert type(warnings) is list
                assert type(seconds) is float
            # Some draft keys are not leaves: the reader has not renamed them.
            assert any(not set(raw) <= leaves for raw, _, _, _ in received)
            assert sum(bool(raw) for raw, _, _, _ in received) > len(received) // 2
            assert not any('"case_id"' in text for text in _strings(frames))
        outputs[placement] = _rule_files(out)
        _assert_no_child()
    _assert_alike(outputs)
    # A both-path run writes the same rule files, where the reader finishes
    # the rule records, in either placement.
    for placement in PLACEMENTS:
        _place(monkeypatch, placement)
        frames = _received_frames(monkeypatch)
        out = tmp_path / f"both_{placement}"
        summary = cli.run(_config(corpus, out, backend="dropout_oracle"))
        assert _rule_files(out) == outputs["forked"], placement
        if placement == "forked":
            # The reader keeps and writes the rule records: each segment's
            # rule entry is what accept needs, (warnings, lookups), and the
            # hand-back is (records out, log rows, runtimes). No row, cell
            # or JSON line crosses the pipe.
            assert len(frames) == summary.documents_in + 1
            rules = [rule for _, _, segments in frames[:-1] for _, rule, _ in segments]
            assert len(rules) == summary.segments > 0
            for warnings, lookups in rules:
                assert all(len(warning) == 4 for warning in warnings)
                assert all(type(key) is str for key, _ in lookups)
            count, log, runtimes = frames[-1]
            assert count == summary.records_out_rule > 0
            assert len(log) == len(runtimes) == summary.segments
            assert all(set(row) == {"case_id", "pre_valid", "post_valid", "attempts"} for row in log)
            assert all(type(case_id) is str for case_id, _ in runtimes)
            assert all(type(seconds) is float for _, seconds in runtimes)
            assert not any('"case_id"' in text for text in _strings(frames))
        _assert_no_child()


def test_empty_and_binary_files_write_the_same_rule_files_in_either_placement(
    tmp_path, monkeypatch
):
    docs = tmp_path / "docs"
    docs.mkdir()
    for name in ("empty.txt", "binary.txt"):
        (docs / name).write_bytes(HOSTILE[name])
    outputs = {}
    for placement in PLACEMENTS:
        forks = _place(monkeypatch, placement)
        out = tmp_path / placement
        summary = cli.run(_config(docs, out, backend="dropout_oracle"))
        assert len(forks) == (placement == "forked")
        lines = (out / "cases_rule.jsonl").read_bytes().splitlines()
        assert summary.records_out_rule == len(lines)
        outputs[placement] = _rule_files(out)
        _assert_no_child()
    assert outputs["forked"] == outputs["in_process"]
    assert sorted(outputs["forked"]) == ["cases_rule.csv", "cases_rule.jsonl"]


def _assert_alike(outputs: dict) -> None:
    forked, in_process = outputs["forked"], outputs["in_process"]
    assert forked.keys() == in_process.keys()
    for name in forked:
        assert forked[name] == in_process[name], name


@pytest.mark.parametrize("backend", ["invalid_then_fix", "never_fix", "dropout_oracle"])
def test_an_llm_only_run_writes_the_same_bytes_in_either_placement(
    corpus, tmp_path, monkeypatch, backend
):
    params = {} if backend == "dropout_oracle" else {"inject_every": "2"}
    outputs = {}
    for placement in PLACEMENTS:
        forks = _place(monkeypatch, placement)
        out = tmp_path / placement
        config = _config(
            corpus, out, paths_enabled="llm", backend=backend, backend_params=params
        )
        summary = cli.run(config)
        assert forks == ([1] if placement == "forked" else [])
        assert summary.records_out_rule == 0 < summary.records_out_llm
        outputs[placement] = _output_bytes(out)
        _assert_no_child()
    _assert_alike(outputs)


@pytest.fixture
def wire_url():
    """The loopback backend in a process of its own, so that a run's caller
    has no thread but its own; it answers at once, two requests at a time.
    The server is a child of this process too, so a test using it checks
    only that the reader's child was reaped."""
    server = subprocess.Popen(
        [sys.executable, str(WIRE_SERVER), "0", "2"], stdout=subprocess.PIPE, text=True
    )
    try:
        line = server.stdout.readline().split()
        assert len(line) == 2 and line[0] == "PORT", line
        yield f"http://127.0.0.1:{int(line[1])}/"
    finally:
        server.terminate()
        server.wait(timeout=10)
        server.stdout.close()


@pytest.mark.parametrize("in_flight", [1, 2])
@pytest.mark.parametrize("paths", ["llm", "both"])
def test_a_wire_run_forks_before_its_pool_starts_and_writes_the_same_bytes(
    corpus, wire_url, tmp_path, monkeypatch, paths, in_flight
):
    monkeypatch.setenv("CASEPIPE_BACKEND_URL", wire_url)
    monkeypatch.setenv("NO_PROXY", "127.0.0.1,localhost")
    monkeypatch.setenv("no_proxy", "127.0.0.1,localhost")
    # Two usable CPUs, so that the real decision forks on any host.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    outputs = {}
    for placement in PLACEMENTS:
        forks = _place(monkeypatch, placement)
        if placement == "forked":
            monkeypatch.setattr(cli, "_reads_ahead", READS_AHEAD)
        readers: list[int] = []
        fork = os.fork

        def recording_fork() -> int:
            pid = fork()
            if pid:
                readers.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recording_fork)
        out = tmp_path / placement
        config = _config(
            corpus, out, paths_enabled=paths, backend="wire", max_in_flight=in_flight
        )
        summary = cli.run(config)
        # The pool starts its threads at its first exchange, after the fork.
        assert forks == ([1] if placement == "forked" else [])
        assert summary.records_out_llm > 0
        assert summary.backend_calls["extract"] == summary.segments
        outputs[placement] = _output_bytes(out)
        for pid in readers:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
    _assert_alike(outputs)


@pytest.mark.parametrize("paths", ["rule", "llm", "both"])
@pytest.mark.parametrize("placement", PLACEMENTS)
def test_gazetteer_lookups_are_the_cache_misses_cold_and_warm(
    corpus, tmp_path, monkeypatch, placement, paths
):
    _place(monkeypatch, placement)
    cache = tmp_path / "geocode.jsonl"
    for run in ("cold", "warm"):
        rows = len(cache.read_bytes().splitlines()) if cache.is_file() else 0
        config = _config(
            corpus, tmp_path / run, paths_enabled=paths, backend="dropout_oracle",
            cache_path=cache,
        )
        summary = cli.run(config)
        misses = summary.geocode_cache["misses"]
        assert summary.gazetteer_lookups == misses
        # Each miss appends its outcome to the cache file; a warm run finds
        # every place there.
        assert len(cache.read_bytes().splitlines()) - rows == misses
        assert (misses > 0) is (run == "cold")
        _assert_no_child()


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


def test_a_child_that_dies_before_its_hand_back_is_an_error(tmp_path, monkeypatch):
    _place(monkeypatch, "forked")
    monkeypatch.setattr(emit, "write_records_jsonl", lambda path, records: os._exit(3))
    docs, out = _small_docs(tmp_path, 2), tmp_path / "out"
    with pytest.raises(RuntimeError, match="ended after 6 of 6 documents, before its hand-back"):
        cli.run(_config(docs, out, backend="dropout_oracle"))
    _assert_no_child()
    assert not list(out.glob("cases_*"))


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

