"""The JSON file format: every hwnas file is read and written through here.

Nets, LUTs, cost models and their profile records, checkpoints, search and
device configs, arch files and run manifests share these readers. Every
file hwnas writes, JSON or not, goes through `write_text`, which makes the
file's missing folders at write time. Text that is not UTF-8, invalid JSON,
a top level that is not an object, a missing or wrongly typed field and a
malformed array each end in a `ParseError` naming the file. A JSON number is
an int or a float, never a bool, and must be finite as a float.

Every numeric setting passes `check_number`, finite first and then its bound:
dataclasses declare bounds on their fields (`bounded`, `check_fields`), and
the CLI builds its numeric flag types from it.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import sys
import typing
from pathlib import Path

import numpy as np

from .errors import ParseError

_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string",
               bool: "true or false", list: "a list", dict: "an object",
               type(None): "null"}

_REQUIRED = object()
_type_hints = functools.cache(typing.get_type_hints)  # a net file decodes each op through it


def read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"not UTF-8 text: {e}", path)


def loads_object(text: str, where) -> dict:
    """Parse JSON text whose top level must be an object."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}", where)
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object", where)
    return doc


def read_object(path) -> dict:
    return loads_object(read_text(path), path)


def write_text(path, text: str) -> None:
    """Write `text` as UTF-8, making the missing folders of `path` first."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def write_object(path, doc, indent=None) -> None:
    """Write `doc` as JSON; an indented file ends in a newline, a compact one does not."""
    text = json.dumps(doc, indent=indent)
    write_text(path, text + "\n" if indent else text)


def _has_type(value, kind) -> bool:
    if kind is float:  # any finite number; NaN fails the comparison
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
    if kind is int:
        return type(value) is int
    return isinstance(value, kind)


def field(doc: dict, name: str, types, where, default=_REQUIRED):
    """`doc[name]`, which must have one of `types` (a type or a tuple of them).

    A missing field is an error unless a `default` is given.
    """
    if name not in doc:
        if default is _REQUIRED:
            raise ParseError(f"missing field {name!r}", where)
        return default
    value = doc[name]
    types = types if isinstance(types, tuple) else (types,)
    if not any(_has_type(value, t) for t in types):
        expected = " or ".join(_TYPE_NAMES[t] for t in types)
        raise ParseError(f"field {name!r} must be {expected}, got {value!r:.80}", where)
    return value


def numbers(value, where) -> np.ndarray:
    """A JSON list of finite numbers as a 1-D float64 array."""
    try:
        arr = np.array(value) if isinstance(value, list) else None
    except ValueError:  # ragged nesting
        arr = None
    if (arr is None or arr.ndim != 1 or arr.dtype.kind not in "iuf"
            or not np.isfinite(arr).all()):
        raise ParseError(f"must be a list of finite numbers, got {value!r:.80}", where)
    return arr.astype(np.float64, copy=False)


def array_to_json(a: np.ndarray) -> dict:
    return {"dims": list(a.shape), "data": a.reshape(-1).tolist()}


def array_from_json(entry, shape, where) -> np.ndarray:
    """Inverse of `array_to_json` for an array that must have `shape`."""
    if not isinstance(entry, dict):
        raise ParseError("array must be an object with 'dims' and 'data'", where)
    if field(entry, "dims", list, where) != list(shape):
        raise ParseError(f"dims must be {list(shape)}, got {entry['dims']!r:.80}", where)
    data = numbers(field(entry, "data", list, where), where)
    if data.size != math.prod(shape):
        raise ParseError(f"data must hold {math.prod(shape)} numbers, got {data.size}", where)
    return data.reshape(shape)


def from_fields(cls, doc: dict, where):
    """`cls(**doc)` for a dataclass read from a file.

    A value of a field annotated int, float, str or bool must have that JSON
    type; an unknown, missing or out-of-range field (a `TypeError` or
    `ValueError` from the constructor) is a `ParseError`.
    """
    hints = _type_hints(cls)
    for name in doc:
        if hints.get(name) in (int, float, str, bool):
            field(doc, name, hints[name], where)
    try:
        return cls(**doc)
    except (TypeError, ValueError) as e:
        raise ParseError(str(e), where)


def check_number(value, bound: str, name: str = "value", error=ValueError):
    """`value` if it is finite and meets `bound` ("> 0", ">= 1", ...); else `error`."""
    op, low = bound.split()
    finite = isinstance(value, int) or math.isfinite(value)  # isfinite overflows past 1e308
    if not (finite and (value > float(low) if op == ">" else value >= float(low))):
        raise error(f"{name} must be finite and {bound}, got {value!r}")
    return value


def bounded(bound: str, default=dataclasses.MISSING):
    """A dataclass field whose value `check_fields` holds to `bound`."""
    return dataclasses.field(default=default, metadata={"bound": bound})


def check_fields(obj) -> None:
    """`check_number` on every field of dataclass `obj` declared with `bounded`."""
    for f in dataclasses.fields(obj):
        if "bound" in f.metadata:
            check_number(getattr(obj, f.name), f.metadata["bound"], f.name)
