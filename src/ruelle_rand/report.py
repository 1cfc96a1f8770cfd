"""Deterministic report serialization.

JSON numbers carry 17 significant digits so every float survives a
serialize/parse round trip bit-for-bit; keys are emitted sorted. The
stdlib json encoder cannot pin float formatting, hence the small emitter
here. Non-finite numbers are a hard error: a healthy run never produces
them, and a report must not hide one that did.
"""

from __future__ import annotations

import datetime
import importlib.resources
import json

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


def envelope(manifest: dict, report: dict) -> dict:
    return {"schema_version": SCHEMA_VERSION, "manifest": manifest,
            "report": report}


def dumps_envelope(manifest: dict, report: dict) -> str:
    return dumps(envelope(manifest, report)) + "\n"


def schema_text() -> str:
    """The JSON schema shipped with the package."""
    return (importlib.resources.files("ruelle_rand") / "schema"
            / "report.schema.json").read_text(encoding="utf-8")


def write_csv(path: str, header: list[str], rows) -> None:
    """CSV with floats at 17 significant digits, ints verbatim."""
    import csv  # only the runs that write or read a CSV load it

    def cell(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            return format_float(v)
        return str(v)

    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([cell(v) for v in row])


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    import csv

    with open(path, newline="", encoding="utf-8") as fh:
        r = csv.reader(fh)
        try:
            header = next(r)
        except StopIteration:
            raise ValueError(f"empty CSV: {path}") from None
        return header, [row for row in r]
