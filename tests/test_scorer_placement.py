"""Where the two paths are scored does not change what an evaluation writes.

``cli._score`` scores both paths' cases files either one after the other on
the calling thread, or, where ``cli._reads_ahead`` allows, the rule path in
a forked child beside the llm path on the calling thread. The tests here
force each placement through that one predicate and compare the metrics
files, the report and the eval warnings on stderr, for ``eval`` and for
``run --gold``; they check that a repeated ``case_id`` on either path, or
both, fails alike with no report written, that a failure in the child
reaches the caller, and that no child outlives the evaluation.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

import pytest

from casepipe import cli, metrics

INGEST = "2025-01-15T09:30:00+00:00"
PLACEMENTS = {"forked": lambda files: bool(files), "in_process": lambda files: False}
REPORTS = ("metrics_llm.json", "metrics_rule.json", "report.txt")


def _place(monkeypatch, placement: str) -> list[int]:
    """Force ``placement`` and list the pid of each fork the parent makes."""
    monkeypatch.setattr(cli, "_reads_ahead", PLACEMENTS[placement])
    forks: list[int] = []
    fork = os.fork

    def counting_fork() -> int:
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def _assert_no_child() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _reports(out: Path) -> dict[str, bytes]:
    return {name: (out / name).read_bytes() for name in REPORTS if (out / name).exists()}


def _eval(out: Path, gold: Path, capsys) -> tuple[int, str]:
    capsys.readouterr()
    code = cli.main(["eval", "--output", str(out), "--gold", str(gold)])
    return code, capsys.readouterr().err


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("corpus")
    argv = ["synth", "--out", str(root), "--seed", "3", "--count", "4", "--dropout", "0.5"]
    assert cli.main(argv) == 0
    return root


@pytest.mark.parametrize("backend", ["invalid_then_fix", "never_fix"])
@pytest.mark.parametrize("run_placement", PLACEMENTS)
def test_both_placements_score_a_run_alike(
    corpus, tmp_path, monkeypatch, capsys, backend, run_placement
):
    # The runtime samples differ from run to run, so one run's outputs are
    # scored by the run itself and by an eval in each placement.
    forks = _place(monkeypatch, run_placement)
    out = tmp_path / "run"
    argv = ["run", "--input", str(corpus / "docs"), "--output", str(out)]
    argv += ["--backend", backend, "--backend-param", "inject_every=2", "--ingest-ts", INGEST]
    capsys.readouterr()
    assert cli.main(argv + ["--gold", str(corpus / "gold.jsonl")]) == 0
    written, warned = {"run": _reports(out)}, {"run": capsys.readouterr().err}
    # The reader, then the scorer.
    assert len(forks) == 2 * (run_placement == "forked")
    _assert_no_child()
    for placement in PLACEMENTS:
        forks = _place(monkeypatch, placement)
        copy = tmp_path / placement
        copy.mkdir()
        for path in [*out.glob("cases_*"), out / "run_summary.json"]:
            shutil.copy(path, copy)
        code, warned[placement] = _eval(copy, corpus / "gold.jsonl", capsys)
        assert code == 0
        assert len(forks) == (placement == "forked")
        _assert_no_child()
        written[placement] = _reports(copy)
    assert sorted(written["run"]) == sorted(REPORTS)
    for placement in PLACEMENTS:
        assert written[placement] == written["run"], placement
        assert warned[placement] == warned["run"], placement


def _cases(out: Path, name: str, ids: list) -> None:
    records = ({"case_id": each, "demographic": {"name": f"Person {each}"}} for each in ids)
    text = "".join(json.dumps(record) + "\n" for record in records)
    (out / f"{name}.jsonl").write_text(text, encoding="utf-8")


def _hand_built(root: Path, rule_ids: list, llm_ids: list) -> tuple[Path, Path]:
    out = root / "out"
    out.mkdir(parents=True)
    _cases(root, "gold", ["a", "b", "c"])
    _cases(out, "cases_rule", rule_ids)
    _cases(out, "cases_llm", llm_ids)
    return out, root / "gold.jsonl"


def test_both_placements_score_hand_built_cases_alike(tmp_path, monkeypatch, capsys):
    written, warned = {}, {}
    for placement in PLACEMENTS:
        forks = _place(monkeypatch, placement)
        # No run_summary.json: each path warns that it has no run log and
        # no runtime samples, so the order of the two paths' warnings shows.
        out, gold = _hand_built(tmp_path / placement, ["a", "b"], ["a", "c", "z"])
        code, warned[placement] = _eval(out, gold, capsys)
        assert code == 0
        assert len(forks) == (placement == "forked")
        _assert_no_child()
        written[placement] = _reports(out)
    assert sorted(written["forked"]) == sorted(REPORTS)
    assert written["forked"] == written["in_process"]
    assert warned["forked"] == warned["in_process"]
    lines = warned["forked"].splitlines()
    assert lines and all(line.startswith("eval: degenerate_metric: ") for line in lines)
    # The same warnings from each path, the rule path's first.
    assert lines[: len(lines) // 2] == lines[len(lines) // 2 :]


@pytest.mark.parametrize("repeated", ["rule", "llm", "both"])
def test_a_repeated_case_id_fails_alike_in_both_placements(
    tmp_path, monkeypatch, capsys, repeated
):
    errors = {}
    for placement in PLACEMENTS:
        forks = _place(monkeypatch, placement)
        rule_ids = ["a", "b", "a"] if repeated in ("rule", "both") else ["a", "b"]
        llm_ids = ["c", "c"] if repeated in ("llm", "both") else ["c"]
        out, gold = _hand_built(tmp_path / placement, rule_ids, llm_ids)
        code, errors[placement] = _eval(out, gold, capsys)
        assert code == 2
        assert len(forks) == (placement == "forked")
        _assert_no_child()
        assert _reports(out) == {}
    assert errors["forked"] == errors["in_process"]
    # The rule path's failure comes first.
    expected = "'a'" if repeated != "llm" else "'c'"
    last = errors["forked"].splitlines()[-1]
    assert last == f"casepipe: duplicate case_id {expected} in parsed records"


def test_a_failure_in_the_scorers_child_surfaces_with_its_traceback(tmp_path, monkeypatch):
    forks = _place(monkeypatch, "forked")
    parent, build_report = os.getpid(), metrics.build_report

    def broken(*args, **kwargs):
        if os.getpid() != parent:
            raise ValueError("the rule path could not be scored")
        return build_report(*args, **kwargs)

    monkeypatch.setattr(metrics, "build_report", broken)
    out, gold = _hand_built(tmp_path, ["a"], ["b"])
    with pytest.raises(RuntimeError, match="the rule path could not be scored") as raised:
        cli.evaluate_outputs(out, gold, cli.default_schema())
    assert "scoring the rule path failed in the child" in str(raised.value)
    assert "Traceback" in str(raised.value)
    assert len(forks) == 1
    _assert_no_child()
    assert _reports(out) == {}


def test_a_scorers_child_that_dies_is_an_error(tmp_path, monkeypatch):
    _place(monkeypatch, "forked")
    parent, build_report = os.getpid(), metrics.build_report

    def dying(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(3)
        return build_report(*args, **kwargs)

    monkeypatch.setattr(metrics, "build_report", dying)
    out, gold = _hand_built(tmp_path, ["a"], ["b"])
    with pytest.raises(RuntimeError, match="the rule path's scorer ended early"):
        cli.evaluate_outputs(out, gold, cli.default_schema())
    _assert_no_child()
    assert _reports(out) == {}


def test_one_path_is_scored_on_the_calling_thread(tmp_path, monkeypatch, capsys):
    forks = _place(monkeypatch, "forked")
    out, gold = _hand_built(tmp_path, ["a"], ["b"])
    (out / "cases_llm.jsonl").unlink()
    assert _eval(out, gold, capsys)[0] == 0
    assert forks == []
    assert sorted(_reports(out)) == ["metrics_rule.json", "report.txt"]
