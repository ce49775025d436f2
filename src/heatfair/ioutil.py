"""File helpers shared across modules: atomic writes, JSON in and out."""

from __future__ import annotations

import json
import os
import tempfile


def atomic_write_text(path: str, text: str) -> None:
    """Write via a sibling temp file so readers never see partial output."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_json(path: str, error: type[Exception]):
    """The document in path; text that is not JSON raises error."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # bad JSON, or an int past the digit limit
            raise error(f"{path}: not valid JSON ({exc})") from exc


def write_json(path: str, doc) -> None:
    """doc as indented JSON plus a newline, written atomically."""
    atomic_write_text(path, json.dumps(doc, indent=2) + "\n")
