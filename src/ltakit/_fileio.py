"""Small shared file helpers: atomic text writes, UTF-8 and JSON reads, and float texts."""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from typing import Iterable

import numpy as np

from .errors import DataError


def atomic_write_text(path, text: str | Iterable[str]) -> None:
    """Write `text`, or its chunks in order, through a sibling temp file plus rename,
    so readers never see partial output. The file gets a plain `open()`'s mode for a
    new file (0o666 less the umask), not the temp file's 0o600."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            if isinstance(text, str):
                fh.write(text)
            else:
                fh.writelines(text)
        # The umask is read by setting it; 0o077 for that instant makes any file
        # another thread creates then tighter than intended, never looser.
        umask = os.umask(0o077)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
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
        text = fh.read()
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an int past the digit limit, or deep nesting
        raise DataError(f"{path}: invalid JSON ({exc})") from None


def float_texts(values) -> np.ndarray:
    """Each value cast to float64 and written as `json.dumps` writes it, as an object array of
    `values`' shape. Each distinct bit pattern (-0.0 is not 0.0) is formatted once, by one
    `json.dumps` call, so an array of few distinct values costs little more than its lookup."""
    values = np.asarray(values, np.float64)
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    texts = np.array(json.dumps(bits.view(np.float64).tolist())[1:-1].split(", "), dtype=object)
    return texts[inverse.reshape(values.shape)]  # numpy < 2 returns the inverse flat
