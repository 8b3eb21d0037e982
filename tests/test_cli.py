"""End-to-end CLI tests over synthetic corpora.

Everything here runs the real pipeline on real files in tmp dirs; the only
test double is the backend, which is one of the deterministic built-ins.
A fixed --ingest-ts pins every emitted timestamp so byte comparisons work.
"""

import gc
import json
import os
import pickle
import re
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from casepipe import cli
from casepipe.cli import RunConfig, evaluate_outputs, run
from casepipe.config import ConfigError, bundled_path, read_jsonl
from casepipe.extract import END_SENTINEL, prenormalize, split_cases
from casepipe.llm import build_extraction_prompt, encode_gold_marker
from casepipe.schema import default_schema, validate
from casepipe.synth import FAMILY_LABELS, SynthesisSpec, write_corpus

INGEST = "2025-01-15T09:30:00+00:00"
SCHEMA = default_schema()


def _write_corpus(root: Path, seed: int, count: int, families=None) -> Path:
    families = families or sorted(FAMILY_LABELS)
    spec = SynthesisSpec(seed=seed, count_per_family={f: count for f in families})
    write_corpus(spec, root)
    return root


@pytest.fixture(scope="module")
def mixed_corpus(tmp_path_factory) -> Path:
    return _write_corpus(tmp_path_factory.mktemp("mixed"), seed=5, count=2)


@pytest.fixture(scope="module")
def registry_corpus(tmp_path_factory) -> Path:
    return _write_corpus(
        tmp_path_factory.mktemp("registry"), seed=13, count=6, families=["registry_form"]
    )


def _config(corpus: Path, out: Path, **overrides) -> RunConfig:
    settings = {
        "input_dir": corpus / "docs",
        "output_dir": out,
        "backend": "oracle",
        "ingest_ts": INGEST,
    }
    settings.update(overrides)
    return RunConfig(**settings)


def _read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


class TestRunConfig:
    def test_rejects_bad_enum_fields(self, tmp_path):
        with pytest.raises(ConfigError, match="paths_enabled"):
            RunConfig(input_dir=tmp_path, output_dir=tmp_path, paths_enabled="fast")
        with pytest.raises(ConfigError, match="backend"):
            RunConfig(input_dir=tmp_path, output_dir=tmp_path, backend="gpt")

    def test_rejects_nonpositive_limits(self, tmp_path):
        with pytest.raises(ConfigError, match="budget_chars"):
            RunConfig(input_dir=tmp_path, output_dir=tmp_path, budget_chars=0)
        with pytest.raises(ConfigError, match="max_repair_attempts"):
            RunConfig(input_dir=tmp_path, output_dir=tmp_path, max_repair_attempts=0)
        with pytest.raises(ConfigError, match="max_in_flight"):
            RunConfig(input_dir=tmp_path, output_dir=tmp_path, max_in_flight=0)

    def test_rejects_unparseable_ingest_ts(self, tmp_path):
        with pytest.raises(ConfigError, match="ingest_ts"):
            RunConfig(input_dir=tmp_path, output_dir=tmp_path, ingest_ts="yesterday")

    def test_check_paths_requires_inputs(self, tmp_path):
        config = RunConfig(input_dir=tmp_path / "absent", output_dir=tmp_path / "out")
        with pytest.raises(ConfigError, match="input_dir"):
            config.check_paths()
        config = RunConfig(
            input_dir=tmp_path,
            output_dir=tmp_path / "out",
            gold_path=tmp_path / "gold.jsonl",
        )
        with pytest.raises(ConfigError, match="gold"):
            config.check_paths()

    def test_digest_tracks_configuration(self, tmp_path):
        a = RunConfig(input_dir=tmp_path, output_dir=tmp_path / "out")
        b = RunConfig(input_dir=tmp_path, output_dir=tmp_path / "out")
        c = RunConfig(input_dir=tmp_path, output_dir=tmp_path / "out", seed=3)
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()

    def test_digest_ignores_output_dir_and_bundled_location(self, tmp_path, monkeypatch):
        a = RunConfig(input_dir=tmp_path, output_dir=tmp_path / "out")
        b = RunConfig(input_dir=tmp_path, output_dir=tmp_path / "elsewhere")
        digest = a.digest()
        assert b.digest() == digest
        monkeypatch.setattr(cli, "bundled_path", lambda *parts: tmp_path.joinpath("moved", *parts))
        assert a.resolved_schema_path() == tmp_path / "moved" / "schema.jsonl"
        assert a.digest() == digest
        explicit = RunConfig(
            input_dir=tmp_path, output_dir=tmp_path / "out", schema_path=tmp_path / "s.jsonl"
        )
        assert explicit.digest() != digest
        rule_only = RunConfig(input_dir=tmp_path, output_dir=tmp_path / "out", paths_enabled="rule")
        assert rule_only.digest() != digest

    def test_a_pickled_config_keeps_its_digest(self, tmp_path):
        # Configs are sent to worker processes as pickles.
        config = RunConfig(
            input_dir=tmp_path,
            output_dir=tmp_path / "out",
            paths_enabled="llm",
            backend="invalid_then_fix",
            backend_params={"inject_every": "2"},
            max_in_flight=2,
            seed=7,
            ingest_ts=INGEST,
        )
        copy = pickle.loads(pickle.dumps(config))
        assert type(copy) is RunConfig
        assert copy == config
        assert copy.digest() == config.digest()
        plain = RunConfig(input_dir=tmp_path, output_dir=tmp_path / "out")
        assert pickle.loads(pickle.dumps(plain)).digest() == plain.digest()
        assert RunConfig(tmp_path, tmp_path / "out", backend_params={}).digest() == plain.digest()

    def test_backend_param_parsing(self):
        assert cli._parse_params(["rate=0.1", "seed=7"]) == {"rate": "0.1", "seed": "7"}
        with pytest.raises(ConfigError, match="key=value"):
            cli._parse_params(["rate"])


# Each run flag besides --input and --output, a value for it, the RunConfig
# field it sets, and the value that field then holds.
RUN_FLAGS = [
    ("--paths", "llm", "paths_enabled", "llm"),
    ("--schema", "/s.jsonl", "schema_path", Path("/s.jsonl")),
    ("--signatures", "/sig.jsonl", "signatures_path", Path("/sig.jsonl")),
    ("--rulesets", "/r", "rulesets_dir", Path("/r")),
    ("--mappings", "/m", "mappings_dir", Path("/m")),
    ("--gazetteer", "/gaz.jsonl", "gazetteer_path", Path("/gaz.jsonl")),
    ("--cache", "/c.jsonl", "cache_path", Path("/c.jsonl")),
    ("--backend", "never_fix", "backend", "never_fix"),
    ("--backend-param", "rate=0.2", "backend_params", {"rate": "0.2"}),
    ("--budget-chars", "99", "budget_chars", 99),
    ("--max-repair-attempts", "3", "max_repair_attempts", 3),
    ("--max-in-flight", "4", "max_in_flight", 4),
    ("--gold", "/gold.jsonl", "gold_path", Path("/gold.jsonl")),
    ("--seed", "11", "seed", 11),
    ("--ingest-ts", INGEST, "ingest_ts", INGEST),
]
# A value other than the default for every RunConfig field.
CHANGED_FIELDS = [
    ("input_dir", Path("/y")),
    ("output_dir", Path("/p")),
    *((field, value) for _, _, field, value in RUN_FLAGS),
]


class _Captured(Exception):
    pass


def _parsed_config(monkeypatch, *flags: str) -> RunConfig:
    """The RunConfig ``main`` builds from ``run --input /x --output /o`` and
    ``flags``, caught where ``run`` would get it."""

    def capture(config):
        raise _Captured(config)

    monkeypatch.setattr(cli, "run", capture)
    with pytest.raises(_Captured) as caught:
        cli.main(["run", "--input", "/x", "--output", "/o", *flags])
    return caught.value.args[0]


class TestFrontEnd:
    def test_defaults_are_the_run_configs(self, monkeypatch):
        config = _parsed_config(monkeypatch)
        assert type(config) is RunConfig
        assert config == RunConfig(Path("/x"), Path("/o"))

    @pytest.mark.parametrize(
        "flag, given, field, value", RUN_FLAGS, ids=[flag for flag, *_ in RUN_FLAGS]
    )
    def test_a_flag_sets_its_field_alone(self, monkeypatch, flag, given, field, value):
        config = _parsed_config(monkeypatch, flag, given)
        assert config == RunConfig(Path("/x"), Path("/o"), **{field: value})

    def test_repeated_backend_params_collect(self, monkeypatch):
        config = _parsed_config(
            monkeypatch, "--backend-param", "rate=0.2", "--backend-param", "seed=3"
        )
        assert config.backend_params == {"rate": "0.2", "seed": "3"}

    def test_every_flag_and_field_is_covered(self):
        run_parser = cli._build_parser()._subparsers._group_actions[0].choices["run"]
        flags = {s for action in run_parser._actions for s in action.option_strings}
        assert flags - {"-h", "--help", "--input", "--output"} == {f for f, *_ in RUN_FLAGS}
        assert [field for field, _ in CHANGED_FIELDS] == list(RunConfig._fields)

    @pytest.mark.parametrize("field, value", CHANGED_FIELDS, ids=[f for f, _ in CHANGED_FIELDS])
    def test_every_field_but_the_output_dir_and_clock_changes_the_digest(self, field, value):
        default = RunConfig(Path("/x"), Path("/o"))
        changed = RunConfig(**{**default._asdict(), field: value})
        assert (changed.digest() != default.digest()) == (field not in ("output_dir", "ingest_ts"))

    def test_digests_are_pinned(self):
        assert RunConfig(Path("/x"), Path("/o")).digest() == "0433142d5545487d"
        config = RunConfig(
            Path("/x"),
            Path("/o"),
            paths_enabled="llm",
            backend="invalid_then_fix",
            backend_params={"inject_every": "2"},
            max_in_flight=2,
            seed=7,
            ingest_ts="2025-01-01T00:00:00+00:00",
            schema_path=Path("/s.jsonl"),
            cache_path=Path("/c"),
            gold_path=Path("/g"),
        )
        assert config.digest() == "5c6dd454915d93b4"

    def test_a_rule_only_run_refuses_a_param_its_backend_would_not_read(self, tmp_path, capsys):
        flags = ["--paths", "rule", "--backend", "never_fix", "--backend-param", "bogus=1"]
        assert cli.main(["run", "--input", str(tmp_path), "--output", str(tmp_path / "o"), *flags]) == 2
        assert "unknown param 'bogus'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_a_rule_only_run_builds_no_backend(self, tmp_path, monkeypatch):
        monkeypatch.delenv("CASEPIPE_BACKEND_URL", raising=False)
        flags = ["--paths", "rule", "--backend", "wire"]
        assert cli.main(["run", "--input", str(tmp_path), "--output", str(tmp_path / "o"), *flags]) == 0

    def test_a_rule_only_digest_leaves_out_the_llm_only_fields(self):
        config = RunConfig(
            Path("/x"),
            Path("/o"),
            paths_enabled="rule",
            backend="never_fix",
            backend_params={"inject_every": "3"},
            budget_chars=99,
            max_repair_attempts=3,
            max_in_flight=4,
            seed=11,
        )
        assert config.digest() == RunConfig(Path("/x"), Path("/o"), paths_enabled="rule").digest()


@pytest.fixture(scope="module")
def finished(mixed_corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("both")
    summary = run(_config(mixed_corpus, out))
    return out, summary


class TestRunOutputs:
    def test_counts_match_emitted_files(self, finished):
        out, summary = finished
        rule = _read_jsonl(out / "cases_rule.jsonl")
        llm = _read_jsonl(out / "cases_llm.jsonl")
        assert summary.documents_in == 6
        assert summary.segments == 6
        assert summary.records_out_rule == len(rule) == 6
        assert summary.records_out_llm == len(llm) == 6

    def test_case_id_sets_are_equal_across_paths(self, finished):
        out, _ = finished
        rule_ids = {r["case_id"] for r in _read_jsonl(out / "cases_rule.jsonl")}
        llm_ids = {r["case_id"] for r in _read_jsonl(out / "cases_llm.jsonl")}
        assert rule_ids == llm_ids

    def test_records_are_sorted_and_valid(self, finished):
        out, _ = finished
        for name in ("cases_rule.jsonl", "cases_llm.jsonl"):
            records = _read_jsonl(out / name)
            ids = [r["case_id"] for r in records]
            assert ids == sorted(ids)
            for record in records:
                assert validate(record, SCHEMA).valid, (name, record["case_id"])

    def test_provenance_matches_the_producing_path(self, finished):
        out, _ = finished
        for record in _read_jsonl(out / "cases_rule.jsonl"):
            prov = record["provenance"]
            assert prov["extraction_path"] == "rule"
            assert prov["repair_count"] == 0
            assert prov["ingest_ts"] == INGEST
            assert prov["engine_used"] == "plaintext"
            assert prov["field_origins"]
        for record in _read_jsonl(out / "cases_llm.jsonl"):
            assert record["provenance"]["extraction_path"] == "llm"

    def test_csv_row_counts_match(self, finished):
        out, summary = finished
        rule_rows = (out / "cases_rule.csv").read_text(encoding="utf-8").splitlines()
        assert len(rule_rows) - 1 == summary.records_out_rule

    def test_zero_dropout_run_has_no_error_warnings(self, finished):
        _, summary = finished
        assert summary.warnings_by_severity.get("error", 0) == 0

    def test_summary_file_round_trips(self, finished):
        out, summary = finished
        on_disk = json.loads((out / "run_summary.json").read_text(encoding="utf-8"))
        assert on_disk == summary._asdict()
        assert on_disk["backend_calls"]["extract"] == 6

    def test_runtime_blocks_have_stats(self, finished):
        _, summary = finished
        for path_name in ("rule", "llm"):
            block = summary.runtime[path_name]
            assert len(block["samples"]) == 6
            assert block["mean_s"] > 0
            assert block["p95_s"] >= block["mean_s"]


class TestRuleOnlyRun:
    def test_no_backend_calls_and_no_llm_files(self, mixed_corpus, tmp_path):
        summary = run(_config(mixed_corpus, tmp_path, paths_enabled="rule"))
        assert summary.backend_calls == {"extract": 0, "repair": 0}
        assert summary.records_out_llm == 0
        assert not (tmp_path / "cases_llm.jsonl").exists()
        assert (tmp_path / "cases_rule.jsonl").exists()

    def test_a_killed_runs_staged_file_is_not_published(self, mixed_corpus, tmp_path):
        staging = tmp_path / cli._STAGING
        staging.mkdir()
        (staging / "cases_llm.jsonl").write_text('{"case_id": "stale"}\n', encoding="utf-8")
        run(_config(mixed_corpus, tmp_path, paths_enabled="rule"))
        published = sorted(path.name for path in tmp_path.iterdir())
        assert published == [
            "cases_rule.csv", "cases_rule.jsonl", "run_summary.json", "warnings.jsonl"
        ]

    def test_rule_path_records_all_valid(self, registry_corpus, tmp_path):
        summary = run(_config(registry_corpus, tmp_path, paths_enabled="rule"))
        log = summary.repair_log["rule"]
        assert len(log) == 6
        assert all(row["pre_valid"] and row["attempts"] == 0 for row in log)


class TestLlmFailureHandling:
    def test_never_fix_withholds_and_logs_errors(self, registry_corpus, tmp_path):
        summary = run(
            _config(
                registry_corpus,
                tmp_path,
                paths_enabled="llm",
                backend="never_fix",
                backend_params={"inject_every": "3"},
            )
        )
        log = summary.repair_log["llm"]
        withheld = {row["case_id"] for row in log if not row["post_valid"]}
        assert len(withheld) == 2  # every third of six extractions corrupted
        emitted = {r["case_id"] for r in _read_jsonl(tmp_path / "cases_llm.jsonl")}
        assert not withheld & emitted
        assert summary.records_out_llm == 4
        errors = [
            w
            for w in _read_jsonl(tmp_path / "warnings.jsonl")
            if w["severity"] == "error"
        ]
        assert {w["code"] for w in errors} == {"repair_exhausted", "record_withheld"}
        assert {w["case_id"] for w in errors} == withheld

    def test_invalid_then_fix_repairs_everything(self, registry_corpus, tmp_path):
        summary = run(
            _config(
                registry_corpus,
                tmp_path,
                paths_enabled="llm",
                backend="invalid_then_fix",
                backend_params={"inject_every": "3"},
            )
        )
        log = summary.repair_log["llm"]
        assert sum(1 for row in log if not row["pre_valid"]) == 2
        assert all(row["post_valid"] for row in log)
        assert summary.records_out_llm == 6
        repaired = [
            r
            for r in _read_jsonl(tmp_path / "cases_llm.jsonl")
            if r["provenance"]["repair_count"] > 0
        ]
        assert len(repaired) == 2
        # The injected fault nulls out under repair; everything else survives.
        for record in repaired:
            assert record["demographic"]["age_years"] is None
            assert record["demographic"]["name"] is not None

    def test_warnings_count_holds_the_sanitize_harmonize_and_geocode_warnings(
        self, tmp_path
    ):
        gold = {
            "case_id": "b-1#s0",
            "demographic": {"name": "Avery Quill", "nickname": "Ave"},
            "temporal": {"last_seen_ts": "sometime last spring"},
            "spatial": {"city": "Nowhereville"},
        }
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "b-1.txt").write_text(
            "MISSING PERSON BULLETIN\n"
            "MISSING: Avery Quill (F, 30)\n"
            "WEARING: a green coat\n"
            "Filler so the quality floor is met by this text.\n"
            f"{END_SENTINEL}\n{encode_gold_marker(gold)}\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        argv = ["run", "--input", str(docs), "--output", str(out), "--ingest-ts", INGEST]
        assert cli.main(argv + ["--paths", "llm", "--backend", "oracle"]) == 0
        [record] = _read_jsonl(out / "cases_llm.jsonl")
        # Detection's unknown_source is logged but not counted.
        assert record["provenance"]["warnings_count"] == 3
        logged = [
            (row["case_id"], row["stage"], row["severity"], row["code"])
            for row in _read_jsonl(out / "warnings.jsonl")
        ]
        assert sorted(logged) == [
            ("b-1#s0", "detect", "warning", "unknown_source"),
            ("b-1#s0", "geocode", "warning", "geocode_no_match"),
            ("b-1#s0", "harmonize", "warning", "unparseable_timestamp"),
            ("b-1#s0", "sanitize", "warning", "unknown_key_dropped"),
        ]


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self, mixed_corpus, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run(_config(mixed_corpus, out_a))
        run(_config(mixed_corpus, out_b))
        for name in (
            "cases_rule.jsonl",
            "cases_rule.csv",
            "cases_llm.jsonl",
            "cases_llm.csv",
            "warnings.jsonl",
        ):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_worker_count_does_not_change_rule_output(self, mixed_corpus, tmp_path):
        out_a, out_b = tmp_path / "w1", tmp_path / "w4"
        run(_config(mixed_corpus, out_a, paths_enabled="rule", max_in_flight=1))
        run(_config(mixed_corpus, out_b, paths_enabled="rule", max_in_flight=4))
        for name in ("cases_rule.jsonl", "cases_rule.csv", "warnings.jsonl"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


class TestGeocodeCacheAcrossRuns:
    def test_second_run_is_all_hits(self, mixed_corpus, tmp_path):
        cache = tmp_path / "geo.cache"
        out_a, out_b = tmp_path / "cold", tmp_path / "warm"
        cold = run(_config(mixed_corpus, out_a, cache_path=cache))
        warm = run(_config(mixed_corpus, out_b, cache_path=cache))
        assert cold.geocode_cache["misses"] > 0
        assert warm.geocode_cache["misses"] == 0
        assert warm.geocode_cache["hits"] > 0
        assert warm.gazetteer_lookups == 0
        for name in ("cases_rule.jsonl", "cases_llm.jsonl", "warnings.jsonl"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_an_ambiguous_place_warns_on_every_record_cold_or_warm(self, tmp_path):
        # The bundled gazetteer has an Ashford in Virginia and in Maryland.
        docs = tmp_path / "docs"
        docs.mkdir()
        for index in (1, 2):
            (docs / f"b-{index}.txt").write_text(
                "MISSING PERSON BULLETIN\n"
                f"Bulletin No: PB-2023-000{index}\n\n"
                "MISSING: Avery Quill (F, 30)\n"
                "LAST SEEN: 03/07/2023 near Ashford\n"
                "WEARING: a green coat\n",
                encoding="utf-8",
            )
        cache = tmp_path / "c.jsonl"
        for name in ("cold", "warm"):
            out = tmp_path / name
            summary = run(
                RunConfig(
                    input_dir=docs,
                    output_dir=out,
                    paths_enabled="rule",
                    cache_path=cache,
                    ingest_ts=INGEST,
                )
            )
            assert summary.gazetteer_lookups == (name == "cold")
            geocode = [
                (row["case_id"], row["code"])
                for row in _read_jsonl(out / "warnings.jsonl")
                if row["stage"] == "geocode"
            ]
            # The place was found, in several regions, so it is ambiguous and
            # not also unmatched.
            assert geocode == [("b-1#s0", "ambiguous_place"), ("b-2#s0", "ambiguous_place")]
            for record in _read_jsonl(out / "cases_rule.jsonl"):
                assert record["provenance"]["warnings_count"] == 1
        assert (tmp_path / "cold" / "warnings.jsonl").read_bytes() == (
            tmp_path / "warm" / "warnings.jsonl"
        ).read_bytes()


class TestUnknownSource:
    def test_unlabeled_document_falls_back(self, tmp_path):
        doc_dir = tmp_path / "docs"
        doc_dir.mkdir()
        (doc_dir / "stray-note.txt").write_text(
            "Internal memo about an unrelated administrative matter.\n"
            "Full Name: Case Handler\n"
            "Several more sentences of filler so the quality floor is met.\n",
            encoding="utf-8",
        )
        summary = run(
            RunConfig(
                input_dir=doc_dir,
                output_dir=tmp_path / "out",
                paths_enabled="rule",
                ingest_ts=INGEST,
            )
        )
        assert summary.records_out_rule == 1
        [record] = _read_jsonl(tmp_path / "out" / "cases_rule.jsonl")
        assert record["provenance"]["source_label"] == "unknown"
        assert record["demographic"]["name"] == "Case Handler"
        codes = {w["code"] for w in _read_jsonl(tmp_path / "out" / "warnings.jsonl")}
        assert "unknown_source" in codes
        assert "unknown_source_fallback" in codes

    def test_non_txt_files_are_ignored(self, tmp_path):
        doc_dir = tmp_path / "docs"
        doc_dir.mkdir()
        (doc_dir / "notes.md").write_text("not a case document", encoding="utf-8")
        summary = run(
            RunConfig(
                input_dir=doc_dir, output_dir=tmp_path / "out", ingest_ts=INGEST
            )
        )
        assert summary.documents_in == 0
        assert summary.segments == 0

    def test_the_inputs_are_what_pathlib_globs(self, tmp_path):
        doc_dir = tmp_path / "docs"
        doc_dir.mkdir()
        for name in ("b.txt", "a.txt", ".hidden.txt", ".txt", "A.txt", "UPPER.TXT", "x.txt.md"):
            (doc_dir / name).write_text("Full Name: Avery Quill\n", encoding="utf-8")
        (doc_dir / "x.txt").mkdir()
        (doc_dir / "link.txt").symlink_to(doc_dir / "a.txt")
        (doc_dir / "dangling.txt").symlink_to(doc_dir / "missing")
        (doc_dir / "é.txt").write_text("", encoding="utf-8")
        listed = cli._input_files(doc_dir)
        assert listed == sorted(doc_dir.glob("*.txt"))
        assert [path.name for path in listed] == [
            ".hidden.txt", ".txt", "A.txt", "a.txt", "b.txt", "dangling.txt",
            "link.txt", "x.txt", "é.txt",
        ]
        relative = Path(os.path.relpath(doc_dir))
        assert cli._input_files(relative) == sorted(relative.glob("*.txt"))


class TestTrailer:
    """Everything from the first end sentinel on is a trailer: split,
    detection and the rules never see it, and only the last segment's llm
    prompt carries it, normalized."""

    HEAD = (
        "MISSING PERSONS REGISTRY\n"
        "CASE #1\n"
        "Full Name: Avery Quill\n"
        "Filler sentences, so that the content alone meets the quality floor.\n"
    )

    @staticmethod
    def _run(tmp_path: Path, text: str, paths: str) -> cli.RunSummary:
        doc_dir = tmp_path / "docs"
        doc_dir.mkdir()
        (doc_dir / "doc.txt").write_text(text, encoding="utf-8")
        return run(
            RunConfig(
                input_dir=doc_dir,
                output_dir=tmp_path / "out",
                paths_enabled=paths,
                ingest_ts=INGEST,
            )
        )

    @pytest.mark.parametrize("paths", ["rule", "llm"])
    def test_a_case_header_after_the_sentinel_starts_no_segment(self, tmp_path, paths):
        text = (
            self.HEAD
            + "Registry Case Number: R-1\n"
            + END_SENTINEL
            + "\nCASE #2\nFull Name: Bob Trailer\n"
        )
        summary = self._run(tmp_path, text, paths)
        assert summary.segments == 1
        assert summary.backend_calls["extract"] == (1 if paths == "llm" else 0)
        out = tmp_path / "out"
        records = _read_jsonl(out / f"cases_{paths}.jsonl")
        assert [r["case_id"] for r in records] == ["doc#s0"] * len(records)
        assert "Bob Trailer" not in (out / f"cases_{paths}.jsonl").read_text(encoding="utf-8")
        if paths == "rule":
            assert records[0]["demographic"]["name"] == "Avery Quill"
            assert records[0]["provenance"]["source_label"] == "missing_persons_registry"
            assert not (out / "warnings.jsonl").read_text(encoding="utf-8")

    def test_a_marker_only_in_the_trailer_does_not_count(self, tmp_path):
        # One registry marker in the content, a second only after the sentinel.
        text = self.HEAD + END_SENTINEL + "\nRegistry Case Number: R-1\n"
        self._run(tmp_path, text, "rule")
        [record] = _read_jsonl(tmp_path / "out" / "cases_rule.jsonl")
        assert record["provenance"]["source_label"] == "unknown"
        codes = [w["code"] for w in _read_jsonl(tmp_path / "out" / "warnings.jsonl")]
        assert codes.count("unknown_source") == 1

    def test_the_rule_path_never_normalizes_the_trailer(self, tmp_path, monkeypatch):
        # Read in-process, so that the recording sees the reader's calls.
        monkeypatch.setattr(cli, "_reads_ahead", lambda files: False)
        seen = []

        def recording(text):
            seen.append(text)
            return prenormalize(text)

        monkeypatch.setattr(cli, "prenormalize", recording)
        self._run(tmp_path, self.HEAD + END_SENTINEL + "\nafter the end\n", "rule")
        assert seen and not any("after the end" in text for text in seen)

    def test_the_last_prompt_is_its_segment_and_the_normalized_trailer(
        self, tmp_path, monkeypatch
    ):
        raw = (
            self.HEAD
            + "CASE #2\r\nFull Name:\t\tRowan  Marsh\r\n\n\n\n\n"
            + "  "
            + END_SENTINEL
            + "  \r\n\t%%CASE-GOLD:e30=%%\x01\n"
        )
        prompts = []

        def recording(text, *args, **kwargs):
            prompts.append(text)
            return build_extraction_prompt(text, *args, **kwargs)

        monkeypatch.setattr(cli, "build_extraction_prompt", recording)
        self._run(tmp_path, raw, "llm")
        # What a run sent before the trailer was cut: each segment of the
        # whole normalized text, the last one running to its end.
        whole = split_cases(prenormalize(raw))
        assert prompts == [segment.text for segment in whole]
        assert len(prompts) == 2
        assert END_SENTINEL not in prompts[0]
        assert prompts[1].endswith(END_SENTINEL + "\n%%CASE-GOLD:e30=%%\n")


class TestExtractWarnings:
    def test_short_and_unreadable_documents(self, mixed_corpus, tmp_path):
        doc_dir = tmp_path / "docs"
        shutil.copytree(mixed_corpus / "docs", doc_dir)
        (doc_dir / "short.txt").write_text("hello", encoding="utf-8")
        (doc_dir / "broken.txt").mkdir()  # matches *.txt but cannot be read
        summary = run(_config(tmp_path, tmp_path / "out", paths_enabled="rule"))
        assert summary.documents_in == 8
        # The six corpus documents plus short's one; broken adds none.
        assert summary.segments == 7
        case_ids = {r["case_id"] for r in _read_jsonl(tmp_path / "out" / "cases_rule.jsonl")}
        assert "short#s0" in case_ids
        assert not any(case_id.startswith("broken#") for case_id in case_ids)
        extract_rows = [
            w for w in _read_jsonl(tmp_path / "out" / "warnings.jsonl")
            if w["stage"] == "extract"
        ]
        by_doc = {w["document_id"]: w for w in extract_rows}
        assert len(extract_rows) == len(by_doc) == 2
        assert by_doc["short"]["code"] == "low_quality_text"
        assert by_doc["short"]["severity"] == "warning"
        assert by_doc["broken"]["code"] == "extraction_failed"
        assert by_doc["broken"]["severity"] == "error"
        assert by_doc["broken"]["message"].startswith("could not read broken: ")


class TestHostileInput:
    MEMO = (
        "Internal memo about an unrelated administrative matter.\n"
        "Full Name: José\n"
        "Several more sentences of filler so the quality floor is met.\n"
    )

    def _run(self, tmp_path, files: dict[str, bytes], paths_enabled: str):
        doc_dir = tmp_path / "docs"
        doc_dir.mkdir()
        for name, data in files.items():
            (doc_dir / name).write_bytes(data)
        out = tmp_path / "out"
        summary = run(_config(tmp_path, out, paths_enabled=paths_enabled))
        return summary, out, _read_jsonl(out / "warnings.jsonl")

    def test_a_binary_file_is_skipped_on_both_paths(self, tmp_path):
        summary, out, warnings = self._run(
            tmp_path, {"blob.txt": b"Full Name: Jo\x00hn\n" * 8}, "both"
        )
        assert summary.documents_in == 1
        assert summary.segments == 0
        assert summary.records_out_rule == summary.records_out_llm == 0
        assert sum(summary.backend_calls.values()) == 0
        assert (out / "cases_rule.jsonl").read_bytes() == b""
        assert (out / "cases_llm.jsonl").read_bytes() == b""
        [warning] = warnings
        assert (warning["code"], warning["stage"], warning["severity"]) == (
            "extraction_failed",
            "extract",
            "error",
        )
        assert warning["message"] == "could not read blob: binary file, NUL byte at 13"

    def test_a_cp1252_document_is_decoded_as_cp1252(self, tmp_path):
        _, out, warnings = self._run(
            tmp_path, {"memo.txt": self.MEMO.encode("cp1252")}, "rule"
        )
        [record] = _read_jsonl(out / "cases_rule.jsonl")
        assert record["demographic"]["name"] == "José"
        fallbacks = [w for w in warnings if w["code"] == "encoding_fallback"]
        offset = self.MEMO.encode("cp1252").index(b"\xe9")
        assert [(w["document_id"], w["stage"], w["severity"]) for w in fallbacks] == [
            ("memo", "extract", "warning")
        ]
        assert f"byte {offset}" in fallbacks[0]["message"]

    def test_a_utf8_document_logs_no_fallback(self, tmp_path):
        _, out, warnings = self._run(
            tmp_path, {"memo.txt": self.MEMO.encode("utf-8")}, "rule"
        )
        [record] = _read_jsonl(out / "cases_rule.jsonl")
        assert record["demographic"]["name"] == "José"
        assert not [w for w in warnings if w["code"] == "encoding_fallback"]

    def test_a_byte_order_mark_does_not_hide_the_first_label(self, tmp_path):
        registry = (
            "Full Name: Avery Quill\n"
            "MISSING PERSONS REGISTRY\n"
            "Registry Case Number: R-1\n"
            "Filler sentences, so that the content alone meets the quality floor.\n"
        ).encode("utf-8")
        files = {"plain.txt": registry, "bom.txt": b"\xef\xbb\xbf" + registry}
        _, out, warnings = self._run(tmp_path, files, "rule")
        names = {
            r["case_id"]: r["demographic"]["name"]
            for r in _read_jsonl(out / "cases_rule.jsonl")
        }
        assert names == {"bom#s0": "Avery Quill", "plain#s0": "Avery Quill"}
        assert not warnings


class TestColdStart:
    def test_empty_run_does_not_load_the_scorer(self, tmp_path):
        (tmp_path / "docs").mkdir()
        script = (
            "import sys\n"
            "from pathlib import Path\n"
            "from casepipe import cli\n"
            "cli.run(cli.RunConfig(input_dir=Path(sys.argv[1]), output_dir=Path(sys.argv[2])))\n"
            "print([m for m in ('casepipe.metrics', 'subprocess', 'shlex') if m in sys.modules])\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        loaded = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "docs"), str(tmp_path / "out")],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
            check=True,
        ).stdout
        assert loaded.strip() == "[]"


    def test_run_and_eval_load_no_generated_code_or_parser(self, tmp_path):
        corpus = _write_corpus(tmp_path / "corpus", seed=3, count=1, families=["registry_form"])
        script = (
            "import sys\n"
            "from pathlib import Path\n"
            "from casepipe import cli\n"
            "corpus, out = Path(sys.argv[1]), Path(sys.argv[2])\n"
            "cli.run(cli.RunConfig(input_dir=corpus / 'docs', output_dir=out,\n"
            "    backend='invalid_then_fix', backend_params={'inject_every': '1'}))\n"
            "cli.evaluate_outputs(out, corpus / 'gold.jsonl', cli.default_schema())\n"
            "assert (out / 'metrics_rule.json').is_file() and (out / 'metrics_llm.json').is_file()\n"
            "print([m for m in ('dataclasses', 'inspect', 'argparse') if m in sys.modules])\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        loaded = subprocess.run(
            [sys.executable, "-c", script, str(corpus), str(tmp_path / "out")],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
            check=True,
        ).stdout
        assert loaded.strip() == "[]"


class TestRulesets:
    """Only the rule path reads rules, so only it loads them."""

    @pytest.mark.parametrize("paths, loaded", [("llm", False), ("rule", True), ("both", True)])
    def test_rulesets_load_only_for_the_rule_path(self, tmp_path, monkeypatch, paths, loaded):
        class Loaded(Exception):
            pass

        def refuse(directory):
            raise Loaded(directory)

        monkeypatch.setattr(cli, "load_rulesets", refuse)
        (tmp_path / "docs").mkdir()
        config = _config(tmp_path, tmp_path / "out", paths_enabled=paths)
        if loaded:
            with pytest.raises(Loaded):
                run(config)
        else:
            assert run(config).documents_in == 0

    def test_an_llm_run_still_checks_the_rulesets_directory(self, tmp_path):
        (tmp_path / "docs").mkdir()
        config = _config(
            tmp_path, tmp_path / "out", paths_enabled="llm", rulesets_dir=tmp_path / "absent"
        )
        with pytest.raises(ConfigError, match="rulesets directory does not exist"):
            run(config)


class TestPipelineLifetime:
    def test_a_finished_run_frees_its_pipeline_without_the_collector(
        self, mixed_corpus, tmp_path, monkeypatch
    ):
        pipelines = weakref.WeakSet()
        init = cli._Pipeline.__init__

        def tracked_init(self, config):
            init(self, config)
            pipelines.add(self)

        monkeypatch.setattr(cli._Pipeline, "__init__", tracked_init)
        gc.disable()
        try:
            run(_config(mixed_corpus, tmp_path))
            assert len(pipelines) == 0
        finally:
            gc.enable()


class TestEvaluation:
    def test_run_then_evaluate_zero_dropout(self, mixed_corpus, tmp_path):
        config = _config(mixed_corpus, tmp_path, gold_path=mixed_corpus / "gold.jsonl")
        run(config)
        reports = cli.evaluate(config)
        assert set(reports) == {"rule", "llm"}
        for report in reports.values():
            assert report.f1 == 1.0
            assert report.structured_field_accuracy == 1.0
            assert report.geocode_plausible_rate == 1.0
        table = (tmp_path / "report.txt").read_text(encoding="utf-8")
        assert f"run config digest: {config.digest()}" in table
        assert (tmp_path / "metrics_rule.json").is_file()
        assert (tmp_path / "metrics_llm.json").is_file()
        on_disk = json.loads((tmp_path / "metrics_llm.json").read_text())
        assert on_disk["f1"] == 1.0

    def test_evaluate_uses_the_run_logs(self, registry_corpus, tmp_path):
        config = _config(
            registry_corpus,
            tmp_path,
            paths_enabled="llm",
            backend="invalid_then_fix",
            backend_params={"inject_every": "3"},
            gold_path=registry_corpus / "gold.jsonl",
        )
        run(config)
        reports = cli.evaluate(config)
        report = reports["llm"]
        assert report.pre_pass_rate == pytest.approx(4 / 6)
        assert report.post_pass_rate == 1.0
        assert report.repair_rate == pytest.approx(2 / 6)
        assert report.runtime_mean_s > 0

    def test_evaluate_without_gold_is_a_config_error(self, mixed_corpus, tmp_path):
        config = _config(mixed_corpus, tmp_path)
        with pytest.raises(ConfigError, match="gold"):
            cli.evaluate(config)

    def test_evaluate_empty_output_dir_fails(self, tmp_path):
        gold = tmp_path / "gold.jsonl"
        gold.write_text('{"case_id": "x"}\n', encoding="utf-8")
        with pytest.raises(ConfigError, match="cases_"):
            evaluate_outputs(tmp_path, gold, SCHEMA)

    def test_missing_cases_files_are_reported_before_the_gold_is_parsed(self, tmp_path):
        gold = tmp_path / "gold.jsonl"
        gold.write_text('{"case_id": "x"}\n{"case_id": "x"}\n', encoding="utf-8")
        with pytest.raises(ConfigError, match="cases_"):
            evaluate_outputs(tmp_path, gold, SCHEMA)

    def test_a_repeated_gold_id_fails_once_cases_are_found(self, tmp_path):
        gold = tmp_path / "gold.jsonl"
        gold.write_text('{"case_id": "x"}\n{"case_id": "x"}\n', encoding="utf-8")
        (tmp_path / "cases_rule.jsonl").write_text('{"case_id": "x"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="^duplicate case_id 'x' in gold records$"):
            evaluate_outputs(tmp_path, gold, SCHEMA)
        assert not (tmp_path / "report.txt").exists()

    def test_a_repeated_parsed_id_fails_as_a_repeated_gold_id_does(self, tmp_path):
        gold = tmp_path / "gold.jsonl"
        gold.write_text('{"case_id": "x"}\n', encoding="utf-8")
        (tmp_path / "cases_rule.jsonl").write_text(
            '{"case_id": "x"}\n{"case_id": "x"}\n{"case_id": "y"}\n', encoding="utf-8"
        )
        with pytest.raises(ValueError, match="^duplicate case_id 'x' in parsed records$"):
            evaluate_outputs(tmp_path, gold, SCHEMA)
        assert not (tmp_path / "report.txt").exists()

    def test_a_malformed_cases_line_names_its_file_and_line(self, tmp_path):
        gold = tmp_path / "gold.jsonl"
        gold.write_text('{"case_id": "x"}\n', encoding="utf-8")
        (tmp_path / "cases_rule.jsonl").write_text('{"case_id": "x"}\n', encoding="utf-8")
        cases = tmp_path / "cases_llm.jsonl"
        cases.write_text('{"case_id": "x"}\n\n{"case_id": \n', encoding="utf-8")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(cases))}:3: not valid JSON"):
            evaluate_outputs(tmp_path, gold, SCHEMA)
        assert not (tmp_path / "report.txt").exists()

    def test_files_that_start_with_a_byte_order_mark_are_read(self, tmp_path):
        bom = b"\xef\xbb\xbf"
        (tmp_path / "gold.jsonl").write_bytes(bom + b'{"case_id": "a"}\n')
        (tmp_path / "cases_rule.jsonl").write_bytes(bom + b'{"case_id": "a"}\n')
        reports = evaluate_outputs(tmp_path, tmp_path / "gold.jsonl", SCHEMA)
        assert reports["rule"].record_count == 1
        assert read_jsonl(tmp_path / "gold.jsonl") == [{"case_id": "a"}]


# A row each loader cannot convert: the flag, the bundled resource it
# replaces, the file inside it that gets the row (None: the resource is the
# file), and the row.
MALFORMED_CONFIG_ROWS = {
    "gazetteer_lat_range": (
        "--gazetteer", "gazetteer.jsonl", None,
        {"place": "Farview", "region": "Virginia", "lat": 95.0, "lon": -77.0},
    ),
    "gazetteer_lat_text": (
        "--gazetteer", "gazetteer.jsonl", None,
        {"place": "Farview", "region": "Virginia", "lat": "north", "lon": -77.0},
    ),
    "signatures_min_markers": (
        "--signatures", "signatures.jsonl", None,
        {"source_label": "extra_site", "family": "bulletin", "markers": ["^A", "^B"],
         "min_markers": "two"},
    ),
    "mappings_meta": ("--mappings", "mappings", "police_bulletin.jsonl", {"meta": "EST"}),
    "mappings_tz_default": (
        "--mappings", "mappings", "police_bulletin.jsonl", {"meta": {"tz_default": "EST"}}
    ),
    "rulesets_pattern": (
        "--rulesets", "rulesets", "bulletin.jsonl",
        {"pattern_id": "bul_extra", "field_path": "person.extra", "pattern": 5},
    ),
    "schema_range": (
        "--schema", "schema.jsonl", None,
        {"field_path": "demographic.shoe_size", "kind": "integer", "range": 5},
    ),
    # No cache file is bundled, so this one starts from an empty file.
    "cache_lat_without_lon": (
        "--cache", "geocode_cache.jsonl", None, {"key": "richmond|virginia", "lat": 37.5}
    ),
    "cache_lat_text": (
        "--cache", "geocode_cache.jsonl", None,
        {"key": "richmond|virginia", "lat": "north", "lon": -77.4, "matched_place": "Richmond"},
    ),
}


class TestMainEntry:
    def test_full_command_line_flow(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        code = cli.main(
            ["synth", "--out", str(corpus), "--seed", "3", "--count", "1"]
        )
        assert code == 0
        code = cli.main(
            [
                "run",
                "--input",
                str(corpus / "docs"),
                "--output",
                str(tmp_path / "out"),
                "--ingest-ts",
                INGEST,
                "--gold",
                str(corpus / "gold.jsonl"),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "records out (rule): 3" in printed
        assert "run config digest:" in printed
        code = cli.main(
            [
                "eval",
                "--output",
                str(tmp_path / "out"),
                "--gold",
                str(corpus / "gold.jsonl"),
            ]
        )
        assert code == 0

    def test_startup_error_exits_nonzero(self, tmp_path, capsys):
        code = cli.main(
            ["run", "--input", str(tmp_path / "nope"), "--output", str(tmp_path / "o")]
        )
        assert code == 2
        assert "input_dir" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, resource, member, row",
        MALFORMED_CONFIG_ROWS.values(),
        ids=MALFORMED_CONFIG_ROWS.keys(),
    )
    def test_a_malformed_config_row_exits_naming_its_file(
        self, tmp_path, capsys, flag, resource, member, row
    ):
        given = tmp_path / resource
        if member is None:
            if bundled_path(resource).is_file():
                shutil.copy(bundled_path(resource), given)
            edited = given
        else:
            shutil.copytree(bundled_path(resource), given)
            edited = given / member
        with edited.open("a", encoding="utf-8") as fh:
            # The leading newline keeps the row off a last line with no LF.
            fh.write("\n" + json.dumps(row) + "\n")
        (tmp_path / "docs").mkdir()
        argv = ["run", "--input", str(tmp_path / "docs"), "--output", str(tmp_path / "o")]
        assert cli.main(argv + [flag, str(given)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("casepipe: ")
        assert str(edited) in err

    def test_bad_backend_param_exits_nonzero(self, tmp_path, capsys):
        (tmp_path / "docs").mkdir()
        code = cli.main(
            [
                "run",
                "--input",
                str(tmp_path / "docs"),
                "--output",
                str(tmp_path / "o"),
                "--backend-param",
                "oops",
            ]
        )
        assert code == 2
        assert "key=value" in capsys.readouterr().err

    def test_unknown_backend_param_exits_with_a_message(self, tmp_path, capsys):
        (tmp_path / "docs").mkdir()
        argv = ["run", "--input", str(tmp_path / "docs"), "--output", str(tmp_path / "o")]
        code = cli.main(argv + ["--backend", "dropout_oracle", "--backend-param", "rte=0.5"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("casepipe: backend 'dropout_oracle': unknown param 'rte'")
        assert "Traceback" not in err

    def test_bad_backend_param_value_exits_with_a_message(self, tmp_path, capsys):
        (tmp_path / "docs").mkdir()
        argv = ["run", "--input", str(tmp_path / "docs"), "--output", str(tmp_path / "o")]
        code = cli.main(argv + ["--backend", "dropout_oracle", "--backend-param", "rate=abc"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("casepipe: backend 'dropout_oracle': ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "gold, cases, message",
        [
            (['{"case_id": "x"}', '{"case_id": "x"}'], ['{"case_id": "x"}'],
             "duplicate case_id 'x' in gold records"),
            (['{"case_id": "x"}'], ['{"case_id": "x"}', '{"case_id": "x"}'],
             "duplicate case_id 'x' in parsed records"),
            (['{"case_id": ["x"]}'], ['{"case_id": "x"}'],
             "unhashable case_id ['x'] in gold records"),
            (['{"case_id": "x"}'], ['{"case_id": {"x": 1}}'],
             "unhashable case_id {'x': 1} in parsed records"),
        ],
        ids=["repeated_gold", "repeated_parsed", "list_gold", "object_parsed"],
    )
    def test_eval_exits_2_on_a_repeated_or_unhashable_case_id(
        self, tmp_path, capsys, gold, cases, message
    ):
        (tmp_path / "gold.jsonl").write_text("\n".join(gold) + "\n", encoding="utf-8")
        (tmp_path / "cases_rule.jsonl").write_text("\n".join(cases) + "\n", encoding="utf-8")
        argv = ["eval", "--output", str(tmp_path), "--gold", str(tmp_path / "gold.jsonl")]
        code = cli.main(argv)
        assert code == 2
        assert capsys.readouterr().err == f"casepipe: {message}\n"
        assert not (tmp_path / "report.txt").exists()

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda line: line + line, "duplicate case_id 'x' in gold records"),
            (lambda line: line.replace('"x"', '["x"]'),
             "unhashable case_id ['x'] in gold records"),
        ],
        ids=["repeated", "list"],
    )
    def test_run_with_gold_exits_2_on_a_repeated_or_unhashable_gold_id(
        self, mixed_corpus, tmp_path, capsys, change, message
    ):
        first = (mixed_corpus / "gold.jsonl").read_text(encoding="utf-8").splitlines()[0]
        case_id = json.loads(first)["case_id"]
        line = first.replace(json.dumps(case_id), '"x"') + "\n"
        gold = tmp_path / "gold.jsonl"
        gold.write_text(change(line), encoding="utf-8")
        argv = ["run", "--input", str(mixed_corpus / "docs"), "--output", str(tmp_path / "o")]
        code = cli.main(argv + ["--ingest-ts", INGEST, "--gold", str(gold)])
        assert code == 2
        assert capsys.readouterr().err == f"casepipe: {message}\n"
        # The gold file is read before the first document: the run wrote
        # nothing, no cases_*, warnings.jsonl or run_summary.json.
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("below", [False, True], ids=["itself", "a_parent"])
    def test_an_output_path_that_is_a_file_exits_2(
        self, mixed_corpus, tmp_path, capsys, monkeypatch, below
    ):
        taken = tmp_path / "taken"
        taken.write_bytes(b"not a directory\n")
        output = taken / "out" if below else taken

        def loaded(path):
            raise AssertionError("a resource loaded before the output path was checked")

        monkeypatch.setattr(cli, "_load_schema", loaded)
        argv = ["run", "--input", str(mixed_corpus / "docs"), "--output", str(output)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"casepipe: output path is not a directory: {taken}\n"
        assert taken.read_bytes() == b"not a directory\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["taken"]
