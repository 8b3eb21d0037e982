"""Tests for the model-assisted extraction path: prompts, backend plumbing,
candidate sanitization, the bounded repair loop, and the shipped test doubles.
"""

import csv
import json

import pytest

from casepipe import cli
from casepipe.config import ConfigError
from casepipe.emit import canonical_json, flatten_record, unflatten_row
from casepipe.llm import (
    BackendError,
    BackendRequest,
    BackendTimeout,
    BackendTransportError,
    CandidateParseError,
    DropoutOracleBackend,
    EmptyResponseError,
    ExtractionPrompt,
    InvalidThenFixBackend,
    NeverFixBackend,
    OracleBackend,
    RepairPrompt,
    WireBackend,
    build_extraction_prompt,
    build_repair_prompt,
    call_backend,
    encode_gold_marker,
    make_backend,
    read_gold_marker,
    repair_loop,
    sanitize_candidate,
    truncate_for_budget,
)
from casepipe.rules import END_SENTINEL
from casepipe.schema import assemble_record, default_schema, resolve_path, validate

SCHEMA = default_schema()


def make_record(**values):
    base = {
        "case_id": "CASE-00001",
        "demographic.name": "Avery Quill",
        "demographic.age_years": 15,
        "provenance.source_label": "case_profile_site",
        "provenance.extraction_path": "llm",
    }
    base.update(values)
    return assemble_record(base, SCHEMA)


def gold_document(gold, body="A person was reported missing in Culpeper.\n"):
    return f"{body}{END_SENTINEL}\n{encode_gold_marker(gold)}\n"


def collect_warnings():
    seen = []
    return seen, lambda code, msg: seen.append(code)


class ScriptedBackend:
    """Replays a fixed list of outputs; an Exception instance raises."""

    def __init__(self, outputs):
        self.outputs = list(outputs)
        self.requests = []

    def generate(self, request):
        self.requests.append(request)
        out = self.outputs.pop(0)
        if isinstance(out, Exception):
            raise out
        if callable(out):
            return out(request)
        return out


class TestTruncate:
    def test_fits_unchanged(self):
        assert truncate_for_budget("x" * 100, 500) == "x" * 100

    def test_head_cut_exact(self):
        assert truncate_for_budget("abcdefghijKLM", 10) == "abcdefghij"

    def test_priority_lines_survive(self):
        filler = "\n".join(f"filler line number {i}" for i in range(200))
        block = (
            "Circumstances of Disappearance:\n"
            "She left home heading north on foot.\n"
            "Her phone last pinged near the river.\n"
        )
        text = filler + "\n" + block + "\n" + "tail " * 200
        result = truncate_for_budget(text, 200, priority_headers=("Circumstances",))
        assert len(result) <= 200
        assert result.startswith("Circumstances of Disappearance:")
        assert "heading north" in result

    def test_bad_budget_raises(self):
        with pytest.raises(ValueError):
            truncate_for_budget("abc", 0)


class TestPrompts:
    def test_extraction_prompt_embeds_schema_and_text(self):
        prompt = build_extraction_prompt("Body text here.", SCHEMA)
        rendered = prompt.render()
        assert "Body text here." in rendered
        assert "demographic.age_years" in prompt.schema_text
        assert "## DOCUMENT" in rendered

    def test_oversize_document_is_truncated(self):
        prompt = build_extraction_prompt("z" * 50_000, SCHEMA, budget_chars=1000)
        assert len(prompt.document_text) <= 1000

    def test_repair_prompt_requires_violations(self):
        with pytest.raises(ValueError):
            RepairPrompt(current_record_text="{}", violation_messages=())


class TestCallBackend:
    def request(self, prompt_text="doc"):
        return BackendRequest(
            prompt=build_extraction_prompt(prompt_text, SCHEMA),
            tier="extract",
            timeout_s=5.0,
            request_id="req-1",
        )

    def test_success(self):
        backend = ScriptedBackend(['{"case_id": "X"}'])
        assert call_backend(self.request(), backend) == '{"case_id": "X"}'

    def test_latency_reflects_backend_time(self):
        # A run times each exchange in ``cli._exchange``, the one clock
        # around a backend call.
        import time

        class Slow:
            def generate(self, request):
                time.sleep(0.05)
                return "{}"

        text, seconds = cli._exchange(self.request(), Slow())
        assert text == "{}"
        assert 0.03 <= seconds <= 2.0

    def test_exchange_returns_a_backend_failure_as_a_value(self):
        backend = ScriptedBackend([BackendTimeout("too slow")])
        outcome, seconds = cli._exchange(self.request(), backend)
        assert isinstance(outcome, BackendError)
        assert str(outcome) == "too slow"
        assert seconds >= 0

    def test_transport_retries_then_succeeds(self):
        delays = []
        backend = ScriptedBackend(
            [BackendTransportError("down"), BackendTransportError("down"), "{}"]
        )
        assert call_backend(self.request(), backend, sleep=delays.append) == "{}"
        assert len(backend.requests) == 3
        assert len(delays) == 2
        assert delays[1] > delays[0]

    def test_transport_exhaustion_raises(self):
        backend = ScriptedBackend([BackendTransportError("down")] * 3)
        with pytest.raises(BackendTransportError):
            call_backend(self.request(), backend, sleep=lambda s: None)
        assert len(backend.requests) == 3

    def test_timeout_not_retried(self):
        backend = ScriptedBackend([BackendTimeout("too slow")])
        with pytest.raises(BackendTimeout):
            call_backend(self.request(), backend, sleep=lambda s: None)
        assert len(backend.requests) == 1

    def test_empty_response_is_an_error(self):
        backend = ScriptedBackend(["   \n"])
        with pytest.raises(EmptyResponseError):
            call_backend(self.request(), backend, sleep=lambda s: None)


class TestSanitize:
    def test_wrapper_prose_stripped(self):
        text = 'Here is the record: {"case_id": "CASE-9"} hope that helps!'
        assert sanitize_candidate(text, SCHEMA) == {"case_id": "CASE-9"}

    def test_code_fences_stripped(self):
        text = '```json\n{"case_id": "CASE-9"}\n```'
        assert sanitize_candidate(text, SCHEMA) == {"case_id": "CASE-9"}

    def test_refusal_raises_parse_error(self):
        with pytest.raises(CandidateParseError):
            sanitize_candidate("I cannot help with that.", SCHEMA)

    def test_unknown_keys_dropped_with_warning(self):
        seen, warn = collect_warnings()
        candidate = sanitize_candidate(
            '{"demographic": {"zodiac_sign": "libra", "name": "A"}}',
            SCHEMA,
            on_warning=warn,
        )
        assert candidate == {"demographic": {"name": "A"}}
        assert seen == ["unknown_key_dropped"]

    def test_numeric_strings_coerced(self):
        candidate = sanitize_candidate(
            '{"demographic": {"age_years": "15"}, "spatial": {"lat": "38.47"}}',
            SCHEMA,
        )
        assert candidate["demographic"]["age_years"] == 15
        assert candidate["spatial"]["lat"] == 38.47

    def test_non_numeric_string_left_for_validator(self):
        candidate = sanitize_candidate(
            '{"demographic": {"age_years": "fifteen"}}', SCHEMA
        )
        assert candidate["demographic"]["age_years"] == "fifteen"

    def test_scalar_for_list_is_wrapped(self):
        candidate = sanitize_candidate(
            '{"narrative_osint": {"movement_cues": "Maryland"}}', SCHEMA
        )
        assert candidate["narrative_osint"]["movement_cues"] == ["Maryland"]

    def test_wrong_shape_section_kept_for_validator(self):
        candidate = sanitize_candidate('{"demographic": "oops"}', SCHEMA)
        assert candidate == {"demographic": "oops"}

    def test_first_balanced_object_wins(self):
        text = 'a {"case_id": "X"} b {"case_id": "Y"}'
        assert sanitize_candidate(text, SCHEMA) == {"case_id": "X"}

    def test_braces_inside_strings_handled(self):
        text = '{"demographic": {"name": "A {weird} name"}}'
        candidate = sanitize_candidate(text, SCHEMA)
        assert candidate["demographic"]["name"] == "A {weird} name"


class TestGoldMarker:
    def test_round_trip(self):
        gold = make_record()
        marker = encode_gold_marker(gold)
        assert read_gold_marker(f"before\n{marker}\nafter") == gold

    def test_absent_returns_none(self):
        assert read_gold_marker("no marker here") is None

    def test_marker_is_single_line(self):
        marker = encode_gold_marker(make_record())
        assert "\n" not in marker


class TestOracleBackend:
    def test_reads_gold_from_prompt(self):
        gold = make_record()
        backend = OracleBackend()
        prompt = build_extraction_prompt(gold_document(gold), SCHEMA)
        request = BackendRequest(prompt=prompt, tier="extract", timeout_s=5.0, request_id="r")
        text = backend.generate(request)
        assert sanitize_candidate(text, SCHEMA) == gold

    def test_no_marker_yields_empty_object(self):
        backend = OracleBackend()
        prompt = build_extraction_prompt("plain document", SCHEMA)
        request = BackendRequest(prompt=prompt, tier="extract", timeout_s=5.0, request_id="r")
        assert json.loads(backend.generate(request)) == {}

    def test_counts_calls_by_tier(self):
        gold = make_record()
        backend = OracleBackend()
        prompt = build_extraction_prompt(gold_document(gold), SCHEMA)
        for i in range(3):
            backend.generate(
                BackendRequest(prompt=prompt, tier="extract", timeout_s=5.0, request_id=str(i))
            )
        assert backend.call_count("extract") == 3
        assert backend.call_count() == 3


class TestDropoutOracle:
    def test_zero_rate_matches_oracle(self):
        gold = make_record()
        backend = DropoutOracleBackend(rate=0.0, seed=7)
        prompt = build_extraction_prompt(gold_document(gold), SCHEMA)
        request = BackendRequest(prompt=prompt, tier="extract", timeout_s=5.0, request_id="r")
        assert sanitize_candidate(backend.generate(request), SCHEMA) == gold

    def test_full_rate_drops_every_leaf(self):
        gold = make_record()
        backend = DropoutOracleBackend(rate=1.0, seed=7)
        prompt = build_extraction_prompt(gold_document(gold), SCHEMA)
        request = BackendRequest(prompt=prompt, tier="extract", timeout_s=5.0, request_id="r")
        candidate = sanitize_candidate(backend.generate(request), SCHEMA)
        assert resolve_path(candidate, "demographic.name") is None
        assert resolve_path(candidate, "demographic.age_years") is None

    def test_deterministic_per_seed(self):
        gold = make_record()
        prompt = build_extraction_prompt(gold_document(gold), SCHEMA)
        request = BackendRequest(prompt=prompt, tier="extract", timeout_s=5.0, request_id="r")
        a = DropoutOracleBackend(rate=0.5, seed=11).generate(request)
        b = DropoutOracleBackend(rate=0.5, seed=11).generate(request)
        assert a == b

    def test_rate_bounds_checked(self):
        with pytest.raises(ValueError):
            DropoutOracleBackend(rate=1.5, seed=1)


class TestInvalidThenFix:
    def extract_request(self, gold):
        prompt = build_extraction_prompt(gold_document(gold), SCHEMA)
        return BackendRequest(prompt=prompt, tier="extract", timeout_s=5.0, request_id="r")

    def test_every_nth_extract_is_corrupted(self):
        gold = make_record()
        backend = InvalidThenFixBackend(inject_every=5)
        corrupted = []
        for i in range(10):
            candidate = sanitize_candidate(
                backend.generate(self.extract_request(gold)), SCHEMA
            )
            if resolve_path(candidate, "demographic.age_years") == 999:
                corrupted.append(i + 1)
        assert corrupted == [5, 10]

    def test_repair_nulls_cited_paths_only(self):
        record = make_record(**{"demographic.age_years": 999})
        prompt = build_repair_prompt(record, validate(record, SCHEMA).violations)
        request = BackendRequest(prompt=prompt, tier="repair", timeout_s=5.0, request_id="r")
        backend = InvalidThenFixBackend()
        fixed = sanitize_candidate(backend.generate(request), SCHEMA)
        assert resolve_path(fixed, "demographic.age_years") is None
        assert resolve_path(fixed, "demographic.name") == "Avery Quill"


class TestMakeBackend:
    def test_known_names(self):
        # Exact types: NeverFixBackend subclasses InvalidThenFixBackend.
        assert type(make_backend("oracle")) is OracleBackend
        assert type(make_backend("dropout_oracle", {"rate": 0.1, "seed": 3})) is DropoutOracleBackend
        assert type(make_backend("invalid_then_fix")) is InvalidThenFixBackend
        assert type(make_backend("never_fix")) is NeverFixBackend

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            make_backend("gpt-x")

    @pytest.mark.parametrize(
        "name, params",
        [
            ("dropout_oracle", {"rate": "abc"}),
            ("dropout_oracle", {"rate": "2"}),
            ("dropout_oracle", {"seed": "x"}),
            ("invalid_then_fix", {"inject_every": "0"}),
            ("never_fix", {"inject_every": "many"}),
        ],
    )
    def test_bad_params_are_config_errors_naming_the_backend(self, name, params):
        with pytest.raises(ConfigError, match=f"backend {name!r}: "):
            make_backend(name, params)

    @pytest.mark.parametrize(
        "name, params, known",
        [
            ("dropout_oracle", {"rte": "0.5"}, "rate, seed"),
            ("oracle", {"rate": "0.5"}, "seed"),
            ("invalid_then_fix", {"inject_every": "2", "every": "2"}, "inject_every, seed"),
            ("never_fix", {"rate": "1"}, "inject_every, seed"),
            ("wire", {"url": "http://localhost/"}, "seed"),
        ],
    )
    def test_unknown_params_are_config_errors(self, name, params, known):
        [unknown] = [key for key in params if key not in known.split(", ")]
        message = f"^backend {name!r}: unknown param {unknown!r} \\(known: {known}\\)$"
        with pytest.raises(ConfigError, match=message):
            make_backend(name, params)

    @pytest.mark.parametrize(
        "name, params",
        [
            ("oracle", {"seed": 7}),
            ("dropout_oracle", {"rate": "0.5", "seed": "7"}),
            ("invalid_then_fix", {"inject_every": "1", "seed": 7}),
            ("never_fix", {"inject_every": "3", "seed": 7}),
        ],
    )
    def test_declared_params_and_seed_are_accepted(self, name, params):
        kinds = {
            "oracle": OracleBackend,
            "dropout_oracle": DropoutOracleBackend,
            "invalid_then_fix": InvalidThenFixBackend,
            "never_fix": NeverFixBackend,
        }
        assert type(make_backend(name, params)) is kinds[name]

    def test_wire_requires_endpoint(self, monkeypatch):
        monkeypatch.delenv("CASEPIPE_BACKEND_URL", raising=False)
        with pytest.raises(ConfigError, match="^wire backend needs CASEPIPE_BACKEND_URL$"):
            make_backend("wire")

    def test_wire_reads_env(self, monkeypatch):
        monkeypatch.setenv("CASEPIPE_BACKEND_URL", "http://localhost:9999/generate")
        assert type(make_backend("wire")) is WireBackend


def exchange_with(backend):
    """``repair_loop``'s exchange for one backend, retrying without waiting."""
    return lambda request: call_backend(request, backend, sleep=lambda s: None)


class TestRepairLoop:
    def test_valid_record_passes_untouched(self):
        record = make_record()
        outcome = repair_loop(record, SCHEMA, exchange_with(OracleBackend()), max_attempts=2)
        assert outcome.passed is True
        assert outcome.attempts == 0
        assert outcome.record == record

    def test_single_attempt_fix(self):
        record = make_record(**{"demographic.age_years": 999})
        outcome = repair_loop(
            record, SCHEMA, exchange_with(InvalidThenFixBackend()), max_attempts=2
        )
        assert outcome.passed is True
        assert outcome.attempts == 1
        assert resolve_path(outcome.record, "demographic.age_years") is None
        assert validate(outcome.record, SCHEMA).valid

    def test_never_fix_exhausts(self):
        seen, warn = collect_warnings()
        record = make_record(**{"demographic.age_years": 999})
        outcome = repair_loop(
            record, SCHEMA, exchange_with(NeverFixBackend()), max_attempts=2, on_warning=warn
        )
        assert outcome.passed is False
        assert outcome.attempts == 2
        assert resolve_path(outcome.record, "demographic.age_years") == 999

    def test_unrelated_edits_reverted(self):
        seen, warn = collect_warnings()
        record = make_record(**{"demographic.age_years": 999})

        def sneaky_fix(request):
            current = json.loads(request.prompt.current_record_text)
            current["demographic"]["age_years"] = None
            current["demographic"]["name"] = "HACKED"
            return canonical_json(current)

        backend = ScriptedBackend([sneaky_fix])
        outcome = repair_loop(
            record, SCHEMA, exchange_with(backend), max_attempts=1, on_warning=warn
        )
        assert outcome.passed is True
        assert resolve_path(outcome.record, "demographic.name") == "Avery Quill"
        assert "non_minimal_edit_reverted" in seen

    def test_missing_section_can_be_inserted(self):
        record = make_record()
        del record["outcome"]

        def insert_outcome(request):
            current = json.loads(request.prompt.current_record_text)
            current["outcome"] = {"status": "unknown"}
            return canonical_json(current)

        backend = ScriptedBackend([insert_outcome])
        outcome = repair_loop(record, SCHEMA, exchange_with(backend), max_attempts=2)
        assert outcome.passed is True
        assert outcome.attempts == 1
        assert resolve_path(outcome.record, "outcome.status") == "unknown"
        assert resolve_path(outcome.record, "demographic.name") == "Avery Quill"

    def test_backend_failure_counts_as_attempt(self):
        seen, warn = collect_warnings()
        record = make_record(**{"demographic.age_years": 999})
        backend = ScriptedBackend(
            [BackendTransportError("down")] * 6  # 3 transport tries per attempt
        )
        outcome = repair_loop(
            record, SCHEMA, exchange_with(backend), max_attempts=2, on_warning=warn
        )
        assert outcome.passed is False
        assert outcome.attempts == 2
        assert seen.count("repair_attempt_failed") == 2


class TestRepairedRecordOutput:
    def test_a_repair_that_drops_the_cited_leaf_emits_it_as_null(self, tmp_path, monkeypatch):
        # The extraction answers age_years 999; the repair answers the
        # record without the key, which is a legitimate fix of a cited field.
        def drop_age(request):
            current = json.loads(request.prompt.current_record_text)
            del current["demographic"]["age_years"]
            return canonical_json(current)

        class Scripted(ScriptedBackend):
            waits_on_io = False

            def call_count(self, tier):
                return sum(request.tier == tier for request in self.requests)

        answer = canonical_json(make_record(**{"demographic.age_years": 999}))
        backend = Scripted([answer, drop_age])
        monkeypatch.setattr(cli, "make_backend", lambda name, params: backend)
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "doc.txt").write_text("A person was reported missing in Culpeper.\n")
        out = tmp_path / "out"
        config = cli.RunConfig(
            input_dir=docs, output_dir=out, paths_enabled="llm", ingest_ts="2025-01-15T09:30:00Z"
        )
        summary = cli.run(config)
        assert summary.repair_log["llm"][0]["attempts"] == 1
        (line,) = (out / "cases_llm.jsonl").read_text(encoding="utf-8").splitlines()
        record = json.loads(line)
        # Missingness is explicit: the dropped leaf is there, null.
        assert "age_years" in record["demographic"]
        assert record["demographic"]["age_years"] is None
        assert record["demographic"]["name"] == "Avery Quill"
        with (out / "cases_llm.csv").open(newline="", encoding="utf-8") as fh:
            (row,) = csv.DictReader(fh)
        assert unflatten_row(row, SCHEMA) == record
        assert unflatten_row(flatten_record(record, SCHEMA), SCHEMA) == record


class TestEmptyAnswer:
    def test_an_empty_answer_is_emitted_as_null_and_warns_nothing(self, tmp_path, monkeypatch):
        # A "" name passes validate, but an empty CSV cell reads back as
        # null, so the JSONL record must carry null too; and no transform
        # may read a "" as a bad value.
        assert validate(make_record(**{"demographic.name": ""}), SCHEMA).valid
        answer = make_record(
            **{"demographic.name": "", "demographic.sex": "", "temporal.last_seen_ts": ""}
        )

        class Scripted(ScriptedBackend):
            waits_on_io = False

            def call_count(self, tier):
                return sum(request.tier == tier for request in self.requests)

        backend = Scripted([canonical_json(answer)])
        monkeypatch.setattr(cli, "make_backend", lambda name, params: backend)
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "doc.txt").write_text("A person was reported missing in Culpeper.\n")
        out = tmp_path / "out"
        config = cli.RunConfig(
            input_dir=docs, output_dir=out, paths_enabled="llm", ingest_ts="2025-01-15T09:30:00Z"
        )
        summary = cli.run(config)
        assert summary.repair_log["llm"][0]["pre_valid"]
        (line,) = (out / "cases_llm.jsonl").read_text(encoding="utf-8").splitlines()
        record = json.loads(line)
        assert record["demographic"]["name"] is None
        assert record["demographic"]["sex"] == "unknown"
        assert record["temporal"]["last_seen_ts"] is None
        assert record["demographic"]["age_years"] == 15
        with (out / "cases_llm.csv").open(newline="", encoding="utf-8") as fh:
            (row,) = csv.DictReader(fh)
        assert unflatten_row(row, SCHEMA) == record
        codes = [
            json.loads(entry)["code"]
            for entry in (out / "warnings.jsonl").read_text(encoding="utf-8").splitlines()
        ]
        assert not {"bad_enum_value", "unparseable_timestamp", "uncoercible_value"} & set(codes)

    def test_a_repair_answer_of_empty_is_emitted_as_null(self, tmp_path, monkeypatch):
        # The extraction answers the name as 123, which validate cites; the
        # repair answers it as "", which is null, as an extraction's "" is.
        def empty_name(request):
            current = json.loads(request.prompt.current_record_text)
            current["demographic"]["name"] = ""
            return canonical_json(current)

        class Scripted(ScriptedBackend):
            waits_on_io = False

            def call_count(self, tier):
                return sum(request.tier == tier for request in self.requests)

        answer = canonical_json(make_record(**{"demographic.name": 123}))
        backend = Scripted([answer, empty_name])
        monkeypatch.setattr(cli, "make_backend", lambda name, params: backend)
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "doc.txt").write_text("A person was reported missing in Culpeper.\n")
        out = tmp_path / "out"
        config = cli.RunConfig(
            input_dir=docs, output_dir=out, paths_enabled="llm", ingest_ts="2025-01-15T09:30:00Z"
        )
        summary = cli.run(config)
        (log,) = summary.repair_log["llm"]
        assert (log["attempts"], log["post_valid"]) == (1, True)
        (line,) = (out / "cases_llm.jsonl").read_text(encoding="utf-8").splitlines()
        record = json.loads(line)
        assert "name" in record["demographic"]
        assert record["demographic"]["name"] is None
        with (out / "cases_llm.csv").open(newline="", encoding="utf-8") as fh:
            (row,) = csv.DictReader(fh)
        assert unflatten_row(row, SCHEMA) == record
