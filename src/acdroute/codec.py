"""One JSON codec for every record type, driven by the dataclass fields.

``encode`` writes a dataclass's fields in declaration order. ``decode`` checks
each JSON value against its field's type hint, so malformed input fails with
a one-line ``ValueError`` naming its path, never a ``KeyError``/``TypeError``.
A class may define ``_decode_defaults(data, path)`` to fill aliases and defaults
that depend on other keys into the raw JSON object before it is checked.
``load_json`` is the one reader of a JSON input file, and its errors name the
file; ``json_text`` is the one layout of a JSON output file.
"""

from __future__ import annotations

import dataclasses
import json
import reprlib
import sys
import typing
from datetime import datetime
from pathlib import Path
from typing import Any, Union

from .domain import format_ts, parse_digits, parse_ts

_JSON_NAMES = {bool: "a boolean", int: "an integer", str: "a string"}


def encode(value: Any) -> Any:
    """JSON-ready copy of ``value``: dataclasses become objects, tuples
    lists, datetimes timestamps; mapping keys become strings, sorted by the
    original key, so integer vendor ids sort numerically."""
    if dataclasses.is_dataclass(value):
        return {f.name: encode(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, datetime):
        return format_ts(value)
    if isinstance(value, (tuple, list)):
        return [encode(item) for item in value]
    if isinstance(value, dict):
        return {str(key): encode(item) for key, item in sorted(value.items())}
    return value


def decode(kind: Any, data: Any, path: str = "$") -> Any:
    """Build a value of type ``kind`` from parsed JSON ``data``."""
    if dataclasses.is_dataclass(kind):
        return _decode_object(kind, data, path)
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is Union:  # Optional[X]
        return None if data is None else decode(args[0], data, path)
    if origin in (tuple, list):
        if not isinstance(data, list):
            raise _mismatch(path, "a list", data)
        if origin is tuple and len(data) != len(args):
            raise ValueError(f"{path}: expected {len(args)} items, got {len(data)}")
        kinds = args if origin is tuple else args * len(data)
        return origin(
            decode(k, item, f"{path}[{i}]") for i, (k, item) in enumerate(zip(kinds, data))
        )
    if origin is dict:
        if not isinstance(data, dict):
            raise _mismatch(path, "an object", data)
        return {_decode_key(args[0], key, path): decode(args[1], item, f"{path}.{key}")
                for key, item in data.items()}
    if kind is datetime:
        if not isinstance(data, str):
            raise _mismatch(path, "a timestamp string", data)
        try:
            return parse_ts(data)
        except ValueError:
            raise ValueError(f"{path}: bad timestamp {data!r}") from None
    if kind is float:
        if isinstance(data, bool) or not isinstance(data, (int, float)):
            raise _mismatch(path, "a number", data)
        if not abs(data) <= sys.float_info.max:  # NaN, infinities, ints beyond float range
            raise _mismatch(path, "a finite number", data)
        return float(data)
    if type(data) is not kind:
        raise _mismatch(path, _JSON_NAMES[kind], data)
    return data


def json_text(payload: Any) -> str:
    """The text of a JSON output file holding ``payload``."""
    return json.dumps(payload, indent=2) + "\n"


def load_json(kind: Any, path: Path) -> Any:
    """Build a value of type ``kind`` from the JSON file at ``path``. A file
    that is not UTF-8, not JSON, nested deeper than the parser goes, or not
    a ``kind`` is a one-line ``ValueError`` that names it."""
    try:
        return decode(kind, json.loads(Path(path).read_text(encoding="utf-8")))
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _decode_object(cls: Any, data: Any, path: str) -> Any:
    if not isinstance(data, dict):
        raise _mismatch(path, "an object", data)
    if hasattr(cls, "_decode_defaults"):
        data = cls._decode_defaults(dict(data), path)
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(fields)
    if unknown:
        raise ValueError(f"{path}: unknown fields {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    values = {}
    for name, spec in fields.items():
        if name in data:
            values[name] = decode(hints[name], data[name], f"{path}.{name}")
        elif spec.default is dataclasses.MISSING and spec.default_factory is dataclasses.MISSING:
            raise ValueError(f"{path}: missing field {name!r}")
    return cls(**values)


def _decode_key(kind: Any, key: str, path: str) -> Any:
    if kind is int:
        try:
            return parse_digits(key, "key")
        except ValueError:
            raise ValueError(f"{path}: key {key!r} is not an integer") from None
    return key


def _mismatch(path: str, want: str, data: Any) -> ValueError:
    return ValueError(f"{path}: expected {want}, got {reprlib.repr(data)}")
