"""The benchmark's outside-in tracing patches casepipe's public names.

``bench/tracing.py`` is imported by its path, as the benchmark's worker
imports it, and not edited. Entering ``tracing.installed`` looks up every
name it traces, so a traced name that the package no longer has fails here;
leaving it must put every patched attribute back.
"""

import importlib.util
from pathlib import Path

from casepipe import cli, emit, llm, metrics

TRACING_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _attributes():
    owners = (cli, emit, llm, metrics, emit.WarningLog)
    return {
        (owner.__name__, name): value
        for owner in owners
        for name, value in vars(owner).items()
    }


def test_installed_tracing_restores_every_patched_attribute():
    tracing = _load_tracing()
    before = _attributes()
    with tracing.installed(tracing.Tracer()):
        during = _attributes()
    after = _attributes()
    patched = [key for key in before if during[key] is not before[key]]
    assert ("casepipe.cli", "split_cases") in patched
    assert ("casepipe.metrics", "build_report") in patched
    assert ("WarningLog", "save") in patched
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
