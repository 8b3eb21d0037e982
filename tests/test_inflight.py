"""Backend exchanges in flight: what ``--max-in-flight`` bounds and keeps.

Documents run on the calling thread in document order; only exchanges with
a backend that waits on I/O go to ``max_in_flight`` threads. These tests pin
the bound (repairs included), byte-identical outputs at any in-flight value,
per-record runtimes that leave out queueing, the ``wire`` backend's faults
through the pool, and that nothing starts a thread when no backend waits.
"""

import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from casepipe import cli, emit
from casepipe.cli import RunConfig, run
from casepipe.llm import InvalidThenFixBackend, read_gold_marker
from casepipe.synth import FAMILY_LABELS, SynthesisSpec, write_corpus

INGEST = "2025-01-15T09:30:00+00:00"
OUTPUT_FILES = ("cases_llm.jsonl", "cases_llm.csv", "warnings.jsonl")


def _corpus(root: Path, seed: int, count: int, dropout: float = 0.0) -> Path:
    spec = SynthesisSpec(
        seed=seed,
        count_per_family={family: count for family in sorted(FAMILY_LABELS)},
        label_dropout_rate=dropout,
    )
    write_corpus(spec, root)
    return root / "docs"


def _config(docs: Path, out: Path, **overrides) -> RunConfig:
    settings = {
        "input_dir": docs,
        "output_dir": out,
        "paths_enabled": "llm",
        "ingest_ts": INGEST,
    }
    settings.update(overrides)
    return RunConfig(**settings)


def _outputs(out: Path) -> dict[str, bytes]:
    return {name: (out / name).read_bytes() for name in OUTPUT_FILES}


@pytest.fixture(scope="module")
def dropout_docs(tmp_path_factory) -> Path:
    return _corpus(tmp_path_factory.mktemp("dropout"), seed=3, count=20, dropout=0.5)


@pytest.fixture(scope="module")
def small_docs(tmp_path_factory) -> Path:
    return _corpus(tmp_path_factory.mktemp("small"), seed=11, count=3)


class TestDeterminismAtAnyInFlight:
    @pytest.mark.parametrize("backend", ["invalid_then_fix", "never_fix"])
    def test_corrupting_doubles_give_the_same_bytes(self, dropout_docs, tmp_path, backend):
        outputs = {}
        for in_flight in (1, 2, 4):
            out = tmp_path / f"in{in_flight}"
            run(
                _config(
                    dropout_docs,
                    out,
                    backend=backend,
                    backend_params={"inject_every": "5"},
                    max_in_flight=in_flight,
                )
            )
            outputs[in_flight] = _outputs(out)
        assert outputs[2] == outputs[1]
        assert outputs[4] == outputs[1]


class WaitingBackend(InvalidThenFixBackend):
    """Sleeps in every call, as a remote model would, and records the peak
    number of calls in progress at once; every extraction is corrupted, so
    every record also makes one repair call."""

    label = "waiting"
    waits_on_io = True

    def __init__(self, delay_s: float):
        super().__init__(inject_every=1)
        self.delay_s = delay_s
        self.active = 0
        self.peak = 0
        self.requests: list[str] = []
        self._gate = threading.Lock()

    def generate(self, request):
        with self._gate:
            self.active += 1
            self.peak = max(self.peak, self.active)
            self.requests.append(request.request_id)
        try:
            time.sleep(self.delay_s)
            return super().generate(request)
        finally:
            with self._gate:
                self.active -= 1


DELAY_S = 0.03


@pytest.fixture(scope="module")
def waiting_runs(small_docs, tmp_path_factory):
    """One run per in-flight value with a fresh WaitingBackend each; a
    short switch interval makes a lost update to a call counter likely."""
    runs = {}
    patch = pytest.MonkeyPatch()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for in_flight in (1, 2, 4):
            backend = WaitingBackend(DELAY_S)
            patch.setattr(cli, "make_backend", lambda name, params, b=backend: b)
            out = tmp_path_factory.mktemp(f"waiting{in_flight}")
            summary = run(_config(small_docs, out, max_in_flight=in_flight))
            runs[in_flight] = (backend, summary, out)
    finally:
        sys.setswitchinterval(interval)
        patch.undo()
    return runs


class TestInFlightBound:
    def test_peak_is_bounded_and_reached(self, waiting_runs):
        for in_flight, (backend, summary, _) in waiting_runs.items():
            assert summary.documents_in >= 8
            assert backend.peak == in_flight, in_flight

    def test_repairs_happen_and_are_counted(self, waiting_runs):
        for backend, summary, _ in waiting_runs.values():
            assert summary.backend_calls["repair"] == summary.segments
            assert summary.backend_calls["extract"] == summary.segments
            assert sum(summary.backend_calls.values()) == len(backend.requests)
            assert sorted(backend.requests) == sorted(set(backend.requests))

    def test_outputs_equal_one_in_flight(self, waiting_runs):
        one = _outputs(waiting_runs[1][2])
        assert json.loads(one["cases_llm.jsonl"].splitlines()[0])
        for in_flight in (2, 4):
            assert _outputs(waiting_runs[in_flight][2]) == one, in_flight

    def test_runtime_counts_only_the_records_own_work(self, waiting_runs):
        # Two exchanges per record (extract, repair) of DELAY_S each. With
        # eight extractions queued ahead at 4 in flight, a runtime counting
        # queue time would sit at three delays or more.
        for in_flight, (_, summary, _) in waiting_runs.items():
            samples = summary.runtime["llm"]["samples"]
            assert len(samples) == summary.segments
            assert min(samples) >= 2 * DELAY_S, in_flight
            assert summary.runtime["llm"]["mean_s"] < 2.5 * DELAY_S, in_flight


class _FaultHandler(BaseHTTPRequestHandler):
    """Answers by the document a request names: ``fail500-*`` gets a 500,
    ``notext-*`` a body without ``text``, ``emptytext-*`` an empty
    ``text``, ``truncjson-*`` a 200 whose JSON body is cut off halfway,
    ``slow-*`` nothing until the fixture ends (past the client's timeout),
    anything else the gold record from the prompt's marker. Every answer
    comes after a 5 ms delay."""

    def do_POST(self) -> None:
        length = int(self.headers.get("Content-Length", "0"))
        payload = json.loads(self.rfile.read(length).decode("utf-8"))
        request_id = payload["request_id"]
        with self.server.lock:
            self.server.seen[request_id] = self.server.seen.get(request_id, 0) + 1
        time.sleep(0.005)
        if request_id.startswith("slow-"):
            self.server.released.wait(10)
            return
        if request_id.startswith("fail500-"):
            self.send_error(500)
            return
        if request_id.startswith("notext-"):
            body = {"answer": "{}"}
        elif request_id.startswith("emptytext-"):
            body = {"text": ""}
        else:
            body = {"text": json.dumps(read_gold_marker(payload["prompt_text"]))}
        data = json.dumps(body).encode("utf-8")
        if request_id.startswith("truncjson-"):
            data = data[: len(data) // 2]
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format, *args) -> None:
        pass


@pytest.fixture
def fault_server(monkeypatch):
    server = ThreadingHTTPServer(("127.0.0.1", 0), _FaultHandler)
    server.daemon_threads = True
    server.lock = threading.Lock()
    server.seen = {}
    server.released = threading.Event()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    monkeypatch.setenv("CASEPIPE_BACKEND_URL", f"http://127.0.0.1:{server.server_port}/")
    monkeypatch.setenv("NO_PROXY", "127.0.0.1,localhost")
    monkeypatch.setenv("no_proxy", "127.0.0.1,localhost")
    try:
        yield server
    finally:
        server.released.set()
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


class TestWireFaultsThroughThePool:
    def test_faults_are_retried_and_logged_on_the_calling_thread(
        self, small_docs, fault_server, tmp_path, monkeypatch
    ):
        docs = tmp_path / "docs"
        docs.mkdir()
        originals = sorted(small_docs.glob("*.txt"))[:7]
        names = [
            "good-a", "fail500-b", "good-c", "notext-d", "emptytext-e", "truncjson-f", "slow-g"
        ]
        for source, name in zip(originals, names):
            (docs / f"{name}.txt").write_bytes(source.read_bytes())

        logged_on = set()
        original_log = emit.WarningLog.log

        def log(self, **fields):
            logged_on.add(threading.get_ident())
            return original_log(self, **fields)

        monkeypatch.setattr(emit.WarningLog, "log", log)
        monkeypatch.setattr(cli, "DEFAULT_TIMEOUT_S", 0.5)
        runs = {}
        for in_flight in (1, 2):
            fault_server.seen.clear()
            out = tmp_path / f"in{in_flight}"
            summary = run(_config(docs, out, backend="wire", max_in_flight=in_flight))
            runs[in_flight] = (summary, dict(fault_server.seen), out)

        assert logged_on == {threading.get_ident()}
        assert _outputs(runs[2][2]) == _outputs(runs[1][2])
        summary, seen, out = runs[2]
        assert seen["fail500-b#s0:extract"] == 3
        assert seen["notext-d#s0:extract"] == 3
        assert seen["emptytext-e#s0:extract"] == 1
        assert seen["truncjson-f#s0:extract"] == 3
        assert seen["slow-g#s0:extract"] == 1  # a timeout is not retried
        assert seen["good-a#s0:extract"] == seen["good-c#s0:extract"] == 1
        assert sum(summary.backend_calls.values()) == sum(seen.values())

        logged = (out / "warnings.jsonl").read_text(encoding="utf-8").splitlines()
        errors = [w for w in map(json.loads, logged) if w["severity"] == "error"]
        assert [(w["case_id"], w["code"], w["severity"]) for w in errors] == [
            ("emptytext-e#s0", "backend_error", "error"),
            ("fail500-b#s0", "backend_error", "error"),
            ("notext-d#s0", "backend_error", "error"),
            ("slow-g#s0", "backend_error", "error"),
            ("truncjson-f#s0", "backend_error", "error"),
        ]
        by_case = {w["case_id"]: w["message"] for w in errors}
        assert "500" in by_case["fail500-b#s0"]
        assert by_case["notext-d#s0"] == "response body lacks a text field"
        assert by_case["emptytext-e#s0"].endswith("backend returned no text")
        assert by_case["slow-g#s0"] == "timed out"
        withheld = sum(
            1 for w in errors if w["code"] in ("backend_error", "record_withheld")
        )
        assert summary.records_out_llm + withheld == summary.segments == 7


class TestNoThreadsWhereNoneCanHelp:
    @pytest.mark.parametrize(
        "overrides",
        [{"paths_enabled": "rule"}, {"paths_enabled": "both", "backend": "oracle"}],
        ids=["rule", "oracle"],
    )
    def test_runs_complete_without_a_thread_pool(
        self, small_docs, tmp_path, monkeypatch, overrides
    ):
        import concurrent.futures

        def refuse(*args, **kwargs):
            raise AssertionError("no backend waits, so no thread pool is needed")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
        summary = run(_config(small_docs, tmp_path, max_in_flight=4, **overrides))
        assert summary.segments > 0
        assert summary.records_out_rule + summary.records_out_llm > 0
