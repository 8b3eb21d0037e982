"""Output bytes pinned for a fixed corpus under the benchmark's three configs.

The corpus is ``casepipe synth --seed 1 --count 20 --dropout 0.5`` (60
documents). It runs as the benchmark's ``rule_labeled`` (rule path),
``dual_repair`` (both paths, ``invalid_then_fix`` corrupting every
extraction) and ``wire_inflight`` (llm path over HTTP to a loopback backend
that answers like ``oracle``, 2 in flight) configurations, and as
``never_fix`` (both paths, every third extraction corrupted and never
repaired), the one that logs warnings. Each run's output is then scored
against the corpus ``gold.jsonl`` with ``cli.evaluate_outputs``. The sha256
of every ``cases_*`` file, of ``warnings.jsonl``, of ``run_summary.json``,
of every ``metrics_*.json`` and of ``report.txt`` is compared with the
values below. What varies from run to run is left out of the hash:

- in the summary, the timings in each ``runtime`` block (``samples``,
  ``mean_s``, ``p95_s``) and ``config_digest``, which hashes the temporary
  input directory's path;
- in each ``metrics_*.json``, ``runtime_mean_s`` and ``runtime_p95_s``;
- in ``report.txt``, the ``run config digest:`` line and the two runtime
  rows.

The two JSON files must still be the canonical dump of what is left. A
change meant to keep outputs byte-identical leaves the values alone; one
that changes outputs on purpose updates them and says why.

The file needs no pytest, so the same bytes can be checked on interpreters
that lack it::

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import re
import sys
import tempfile
import threading
from contextlib import contextmanager, redirect_stdout
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from io import StringIO
from pathlib import Path
from typing import Iterator

from casepipe import cli
from casepipe.schema import default_schema

INGEST = "2025-01-15T09:30:00+00:00"
SEED = 1

CONFIGS = {
    "rule_labeled": {"paths_enabled": "rule", "backend": "oracle"},
    "dual_repair": {
        "paths_enabled": "both",
        "backend": "invalid_then_fix",
        "backend_params": {"inject_every": "1"},
    },
    "wire_inflight": {"paths_enabled": "llm", "backend": "wire", "max_in_flight": 2},
    "never_fix": {
        "paths_enabled": "both",
        "backend": "never_fix",
        "backend_params": {"inject_every": "3"},
    },
}

# This corpus logs no warnings under the three benchmark configs.
_EMPTY = hashlib.sha256(b"").hexdigest()
GOLDEN = {
    "rule_labeled": {
        "cases_rule.csv": "f5344c89fa7d41807fe9eb38a6f8ac38d193ea2075bcd8dfcb608fd789d09d3a",
        "cases_rule.jsonl": "532684a664062fdde7f618405de10c1cbddedea5857ce16d8f8d9f0b7b95b57a",
        "warnings.jsonl": _EMPTY,
        "run_summary.json": "11e9d8be42f5050cc75b9776d8c4ce8631616c5485ae7c7bc139507ee795a1fb",
        "metrics_rule.json": "7b34be7d7e54135b12e2e652cb363b9342c9e66e0f1a5339eeabaf1e0a9f402a",
        "report.txt": "59903a7518bf86ab99aa5556b3cd9c512919d5716418e830fc04f956d98cafd6",
    },
    "dual_repair": {
        "cases_llm.csv": "89385a3dfdcaae83093b59044997c2dff170ad497173e96c5e70773ee4f9718d",
        "cases_llm.jsonl": "4385f72c7e02fa39eec703272e9adfea7a7291a786fa9808126a67b3bd8f72a9",
        "cases_rule.csv": "f5344c89fa7d41807fe9eb38a6f8ac38d193ea2075bcd8dfcb608fd789d09d3a",
        "cases_rule.jsonl": "532684a664062fdde7f618405de10c1cbddedea5857ce16d8f8d9f0b7b95b57a",
        "warnings.jsonl": _EMPTY,
        "run_summary.json": "7759ff0c03715ff3b0d7d88b0cc329c347b3b60483f06415f7c6b4bc76a7bf73",
        "metrics_llm.json": "3376c026d6abc871618c9714461053da50bddbefc04f4387350a127975ed107d",
        "metrics_rule.json": "7b34be7d7e54135b12e2e652cb363b9342c9e66e0f1a5339eeabaf1e0a9f402a",
        "report.txt": "b59aada34c253aa4ed66c72efe8651f780d064bd674aac420ae4f2ce941d35f5",
    },
    "wire_inflight": {
        "cases_llm.csv": "0fe03c25b34f542c564c72e0701dc5c0919189e3f23ff8c5dae9c3d2e32f5af7",
        "cases_llm.jsonl": "e60e4a20e66bed2052f74eee49b581ed3f590c7c481d967bb425842cff0f5779",
        "warnings.jsonl": _EMPTY,
        "run_summary.json": "14b67b37c6a26d2e958ef64dd42136ba407f124773f412486415c9b0abb8ebd1",
        "metrics_llm.json": "3b9d023cc97ed499ecc233173f20ece0270f931523496234e0c63b0eac564791",
        "report.txt": "cbc961aa53f9a35b3935f8ec9ed2013cfea2b6d59722d4ecab833d47c8f63077",
    },
    # 40 warnings: repair_exhausted and record_withheld for each of the 20
    # corrupted extractions.
    "never_fix": {
        "cases_llm.csv": "b21dbec6adffe70c472d4535287d041816dfe86f122c8fe2d8a9affeab6e4c3b",
        "cases_llm.jsonl": "c2513cca00cf146395f6cb43cac620d26172a4b3a9a575b9a3f1681551efe9f5",
        "cases_rule.csv": "f5344c89fa7d41807fe9eb38a6f8ac38d193ea2075bcd8dfcb608fd789d09d3a",
        "cases_rule.jsonl": "532684a664062fdde7f618405de10c1cbddedea5857ce16d8f8d9f0b7b95b57a",
        "warnings.jsonl": "e410f1e5db2ab373e242b31534d0629bb8cdaa84ef49eeb010778265a60c2745",
        "run_summary.json": "721de85e9449556969047964d498081444a12932ec83e20487b786b241821c9c",
        "metrics_llm.json": "f065d24842383fba4481cd6083447ca1633e652fa1a1180f791c792cc4e18f54",
        "metrics_rule.json": "7b34be7d7e54135b12e2e652cb363b9342c9e66e0f1a5339eeabaf1e0a9f402a",
        "report.txt": "c7512cad92ef21070130040e82c36e5621104743f3d90fc2f51434870a443aac",
    },
}

_GOLD_MARKER_RE = re.compile(r"%%CASE-GOLD:([A-Za-z0-9+/=]+)%%")
_RECORD_RE = re.compile(r"\n## RECORD\n(.*)\n\n## OUTPUT\n", re.DOTALL)


class _OracleHandler(BaseHTTPRequestHandler):
    """Answers an extraction with the document's gold record and a repair
    with the record it was sent, as the benchmark's loopback server does."""

    def do_POST(self) -> None:
        length = int(self.headers.get("Content-Length", "0"))
        payload = json.loads(self.rfile.read(length).decode("utf-8"))
        prompt = payload["prompt_text"]
        if payload["tier"] == "repair":
            match = _RECORD_RE.search(prompt)
            text = match.group(1) if match else "{}"
        else:
            match = _GOLD_MARKER_RE.search(prompt)
            text = base64.b64decode(match.group(1)).decode("utf-8") if match else "{}"
        body = json.dumps({"text": text}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:
        pass


@contextmanager
def _oracle_server() -> Iterator[None]:
    """A loopback oracle, with the ``wire`` backend pointed at it."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), _OracleHandler)
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    names = ("CASEPIPE_BACKEND_URL", "NO_PROXY", "no_proxy")
    saved = {name: os.environ.get(name) for name in names}
    os.environ["CASEPIPE_BACKEND_URL"] = f"http://127.0.0.1:{server.server_port}/"
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        server.shutdown()
        server.server_close()
        thread.join()


SUMMARY_NAME = "run_summary.json"
REPORT_NAME = "report.txt"
_RUNTIME_STATS = ("samples", "mean_s", "p95_s")
_REPORT_RUNTIMES = ("runtime_mean_s", "runtime_p95_s")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _canonical(path: Path) -> dict:
    """The JSON object in ``path``, which must be its canonical dump."""
    text = path.read_text(encoding="utf-8")
    loaded = json.loads(text)
    assert text == json.dumps(loaded, indent=2, sort_keys=True) + "\n"
    return loaded


def summary_hash(path: Path) -> str:
    """sha256 of a run summary without its timings and config digest."""
    summary = _canonical(path)
    del summary["config_digest"]
    for block in summary["runtime"].values():
        for key in _RUNTIME_STATS:
            del block[key]
    return _sha256(json.dumps(summary, indent=2, sort_keys=True) + "\n")


def metrics_hash(path: Path) -> str:
    """sha256 of one path's metrics without its runtime figures."""
    report = _canonical(path)
    for key in _REPORT_RUNTIMES:
        del report[key]
    return _sha256(json.dumps(report, indent=2, sort_keys=True) + "\n")


def report_hash(path: Path) -> str:
    """sha256 of the report table without its digest line and runtime rows."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    assert lines[0].startswith("run config digest: ")
    kept = [
        line for line in lines[1:] if not line.startswith(_REPORT_RUNTIMES)
    ]
    assert len(kept) == len(lines) - 1 - len(_REPORT_RUNTIMES)
    return _sha256("".join(kept))


def output_hashes(name: str) -> dict[str, str]:
    """sha256 of each ``cases_*`` file, ``warnings.jsonl`` and the pinned
    parts of ``run_summary.json``, each ``metrics_*.json`` and
    ``report.txt`` of one config."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        argv = ["synth", "--seed", str(SEED), "--count", "20", "--dropout", "0.5"]
        with redirect_stdout(StringIO()):
            assert cli.main([*argv, "--out", str(root / "corpus")]) == 0
        config = cli.RunConfig(
            input_dir=root / "corpus" / "docs",
            output_dir=root / "out",
            seed=SEED,
            ingest_ts=INGEST,
            **CONFIGS[name],
        )
        if config.backend == "wire":
            with _oracle_server():
                cli.run(config)
        else:
            cli.run(config)
        files = sorted(config.output_dir.glob("cases_*")) + [
            config.output_dir / "warnings.jsonl"
        ]
        hashes = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in files
        }
        hashes[SUMMARY_NAME] = summary_hash(config.output_dir / SUMMARY_NAME)
        cli.evaluate_outputs(
            config.output_dir, root / "corpus" / "gold.jsonl", default_schema()
        )
        for path in sorted(config.output_dir.glob("metrics_*.json")):
            hashes[path.name] = metrics_hash(path)
        hashes[REPORT_NAME] = report_hash(config.output_dir / REPORT_NAME)
        return hashes


def test_rule_labeled_bytes() -> None:
    assert output_hashes("rule_labeled") == GOLDEN["rule_labeled"]


def test_dual_repair_bytes() -> None:
    assert output_hashes("dual_repair") == GOLDEN["dual_repair"]


def test_wire_inflight_bytes() -> None:
    assert output_hashes("wire_inflight") == GOLDEN["wire_inflight"]


def test_never_fix_bytes() -> None:
    assert output_hashes("never_fix") == GOLDEN["never_fix"]


def main() -> int:
    failed = 0
    for name in CONFIGS:
        got = output_hashes(name)
        for file_name in sorted(set(got) | set(GOLDEN[name])):
            want = GOLDEN[name].get(file_name)
            ok = got.get(file_name) == want
            failed += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {name} {file_name} {got.get(file_name)}")
    print(f"python {sys.version.split()[0]}: {'all match' if not failed else f'{failed} differ'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
