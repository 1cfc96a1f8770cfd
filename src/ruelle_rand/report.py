"""Deterministic report serialization.

JSON numbers carry 17 significant digits so every float survives a
serialize/parse round trip bit-for-bit; keys are emitted sorted. The
stdlib json encoder cannot pin float formatting, hence the small emitter
here. Non-finite numbers are a hard error: a healthy run never produces
them, and a report must not hide one that did. Every file a run writes
goes through `open_output`.
"""

from __future__ import annotations

import contextlib
import datetime
import itertools
import json
import os
import stat

SCHEMA_VERSION = "2"


def format_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite number in report: {x}")
    return format(x, ".17g")


def _emit(obj, out: list[str]) -> None:
    if isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            if i:
                out.append(",")
            out.append(json.dumps(key, ensure_ascii=False))
            out.append(":")
            _emit(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} in a report")


def dumps(obj) -> str:
    out: list[str] = []
    _emit(obj, out)
    return "".join(out)


def build_manifest(subcommand: str, config: dict, version: str,
                   outputs: list[str]) -> dict:
    return {
        "subcommand": subcommand,
        "config": config,
        "version": version,
        "timestamp": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "outputs": list(outputs),
    }


def dumps_envelope(manifest: dict, report: dict) -> str:
    return dumps({"schema_version": SCHEMA_VERSION, "manifest": manifest,
                  "report": report}) + "\n"


@contextlib.contextmanager
def open_output(path: str):
    """Text file (UTF-8, no newline translation) that rewrites ``path`` in
    place: the one way a run writes a file.

    The file is opened without O_TRUNC and, on exit (also by exception),
    cut at the end of what was written. Truncating a file that holds data
    to zero makes ext4 (``auto_da_alloc``) start writeback on close, and the
    next run's truncating open then waits tens of milliseconds for it; an
    in-place rewrite waits for nothing. Only regular files are cut, so
    character devices (``/dev/null``) and pipes still work. Nothing is
    fsync'd: after a crash the file may hold old and new bytes.
    """
    def no_truncate(p, _flags):
        return os.open(p, os.O_WRONLY | os.O_CREAT, 0o666)

    with open(path, "w", encoding="utf-8", newline="",
              opener=no_truncate) as fh:
        try:
            yield fh
        finally:
            fh.flush()
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                os.ftruncate(fh.fileno(), fh.buffer.tell())


# %-format of each cell type write_csv takes; format_float's digits
_CELL_FORMATS = {float: "%.17g", int: "%d", str: "%s"}


def write_csv(path: str, header: list[str], rows) -> None:
    """CSV of int, float and str cells: floats at 17 significant digits,
    the rest verbatim. Cells are never quoted, so a cell holding a comma,
    quote or line break is refused, as is a row not as wide as the header.

    Each row is one %-format, picked by its cells' types, and rows go out
    4096 at a time. A chunk whose text holds "inf" or "nan" is redone cell
    by cell, so format_float's ValueError on a non-finite float comes once
    the rows before it are written.
    """
    formats = {}

    def line(row) -> str:
        types = tuple(map(type, row))
        if types not in formats:
            formats[types] = ",".join(_CELL_FORMATS[t] for t in types) + "\n"
        return formats[types] % tuple(row)

    def lines(chunk) -> str:
        text = "".join(map(line, chunk))
        if (text.count(",") != len(chunk) * (len(header) - 1) or '"' in text
                or text.count("\n") != len(chunk) or "\r" in text):
            raise ValueError("CSV cell would need quoting")
        return text

    with open_output(path) as fh:
        fh.write(lines([header]))
        rows = iter(rows)
        while chunk := list(itertools.islice(rows, 4096)):
            text = lines(chunk)
            if "inf" in text or "nan" in text:
                for row in chunk:
                    fh.write(",".join(format_float(v) if type(v) is float
                                      else str(v) for v in row) + "\n")
            else:
                fh.write(text)


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    import csv

    with open(path, newline="", encoding="utf-8") as fh:
        r = csv.reader(fh)
        try:
            header = next(r)
        except StopIteration:
            raise ValueError(f"empty CSV: {path}") from None
        return header, [row for row in r]
