"""Small shared file helpers: atomic text writes and UTF-8, JSON and JSON-lines reads."""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from typing import Iterator

from .errors import DataError


def atomic_write_text(path, text: str) -> None:
    """Write through a sibling temp file plus rename, so readers never see partial output."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@contextmanager
def open_text(path):
    """Open a file for reading as UTF-8; a byte that does not decode is a DataError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from None


def load_json(path):
    """Parse a whole JSON file; undecodable bytes or invalid JSON are a DataError naming the file."""
    with open_text(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: invalid JSON ({exc})") from None


def iter_jsonl(path) -> Iterator[tuple[int, dict]]:
    """Yield (line_number, record) for every non-blank line of a JSON-lines file."""
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{lineno}: invalid JSON ({exc})") from None
            if not isinstance(obj, dict):
                raise DataError(f"{path}:{lineno}: expected a JSON object per line")
            yield lineno, obj


def dump_jsonl(records) -> str:
    return "".join(json.dumps(record) + "\n" for record in records)
