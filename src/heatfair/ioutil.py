"""File helpers shared across modules: atomic writes, JSON in and out,
the one rule for CSV text, and the one check of a number, or an array
of numbers, read from outside."""

from __future__ import annotations

import json
import numbers
import operator
import os
import re
from collections.abc import Iterable

import numpy as np


def atomic_write_text(path: str, text: str | Iterable[str]) -> None:
    """Write text, one str or blocks of it in turn, via a sibling temp
    file so readers never see partial output. The file gets the mode a
    plain open() gives: 0o666 less the umask. A failed write raises an
    OSError that names path, not the temp file, which is removed."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f"tmp{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.writelines([text] if isinstance(text, str) else text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


def read_json(path: str, error: type[Exception]):
    """The document in path, a UTF-8 byte-order mark skipped; text that
    is not JSON raises error."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # bad JSON, or an int past the digit limit
            raise error(f"{path}: not valid JSON ({exc})") from exc


def write_json(path: str, doc) -> None:
    """doc as indented JSON plus a newline, written atomically."""
    atomic_write_text(path, json.dumps(doc, indent=2) + "\n")


_CSV_QUOTED = re.compile('[,"\r\n]')


def csv_text(rows) -> str:
    """rows of fields as CSV lines, each ended by "\n". A field is its
    str (for a float, the shortest text that reads back to it); one that
    holds a comma, a double quote, a CR or an LF is wrapped in double
    quotes with each quote inside doubled, as RFC 4180 has it."""
    def field(value) -> str:
        text = str(value)
        return '"' + text.replace('"', '""') + '"' if _CSV_QUOTED.search(text) else text
    return "".join(",".join(map(field, row)) + "\n" for row in rows)


def integral(kind: type) -> bool:
    """Whether values of kind count as integers: Python's and numpy's,
    never a bool."""
    return issubclass(kind, numbers.Integral) and not issubclass(kind, bool)


def shown(value) -> str:
    """value as JSON (true, null, "0.5", [0.5]), or its repr where JSON
    cannot show it; never raises."""
    for render in (json.dumps, repr):
        try:
            return render(value)
        except Exception:  # not JSON, or a repr that fails
            pass
    return f"a value of type {type(value).__name__}"


def number(value, what: str, error, integer: bool = False, least: int | None = None):
    """value as an int (integer) or a float: an integer, or for a number
    also a real such as a float, never a bool. Anything else, or an
    integer past the float range where a number is due, raises
    error(f"{what} must be an integer|a number, got {shown(value)}"), and
    an integer below least raises error(f"{what} must be >= {least}, got {value}")."""
    kind = type(value)
    try:
        if integral(kind) and integer:
            value = operator.index(value)
            if least is None or value >= least:
                return value
            raise error(f"{what} must be >= {least}, got {value}")
        if not integer and issubclass(kind, numbers.Real) and kind is not bool:
            return float(value)
    except OverflowError:  # an integer past the float range
        pass
    raise error(f"{what} must be {'an integer' if integer else 'a number'}, got {shown(value)}")


def number_array(values, what: str, error) -> np.ndarray:
    """values as a new read-only float array, read from integers or
    floats, never from bools or text: any other array raises
    error(f"{what} must be numbers, got an array of {dtype}")."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iuf":
        raise error(f"{what} must be numbers, got an array of {arr.dtype}")
    arr = arr.astype(float)
    arr.flags.writeable = False
    return arr
