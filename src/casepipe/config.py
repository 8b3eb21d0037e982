"""Shared line-oriented config format and error types.

Every config artifact in this project (schema, source signatures, rule sets,
key mappings, gazetteer, caches, logs) uses the same format family: UTF-8
text, one JSON object per line, LF line endings. The format is trivially
diffable, append-safe, and needs no parser beyond the stdlib.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path
from typing import Any, Iterable, Iterator


class ConfigError(ValueError):
    """A config file is missing, malformed, or fails its load-time checks."""


def bundled_path(*parts: str) -> Path:
    """Path of a data file shipped inside the package."""
    root = resources.files("casepipe") / "data"
    for part in parts:
        root = root / part
    return Path(str(root))


def iter_jsonl(path: str | Path) -> Iterator[dict[str, Any]]:
    """Yield one JSON object per line, reading as it goes. Blank lines are
    ignored, and so is a byte-order mark at the start of the file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    with path.open("r", encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise ConfigError(f"{path}:{lineno}: expected a JSON object")
            yield obj


def read_jsonl(path: str | Path) -> list[dict[str, Any]]:
    """Every object ``iter_jsonl`` yields, read at once."""
    return list(iter_jsonl(path))


def write_jsonl(path: str | Path, records: Iterable[dict[str, Any]]) -> int:
    """Write records one JSON object per line (UTF-8, LF). Returns the count."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False))
            fh.write("\n")
            count += 1
    return count

