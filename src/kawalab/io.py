"""Atomic, deterministic artifact emission (CSV, JSON, manifests)."""

import json
import math
import os
import tempfile

import numpy as np

__all__ = ["atomic_write_text", "write_json", "write_csv", "write_manifest"]

SCHEMA_VERSION = 1


def atomic_write_text(path, text):
    """Write via a temp file in the target directory plus rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _jsonify(obj):
    """Plain JSON values; a non-finite float becomes None (``null``)."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def write_json(path, payload):
    body = dict(payload)
    body.setdefault("schema_version", SCHEMA_VERSION)
    atomic_write_text(path, json.dumps(_jsonify(body), indent=2, sort_keys=True,
                                        allow_nan=False) + "\n")


def _format_cell(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (np.integer,)):
        return str(int(v))
    return str(v)


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format_cell(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_manifest(path, command, resolved):
    lines = [f"command = {command}", f"schema_version = {SCHEMA_VERSION}"]
    for key in sorted(resolved):
        lines.append(f"{key} = {resolved[key]}")
    atomic_write_text(path, "\n".join(lines) + "\n")
