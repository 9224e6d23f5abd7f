"""From input file to checked value. Every reader decodes and shape-checks its
documents here, so a malformed file raises MalformedHeader (a DataError)
naming the kind of document and the key at fault.

Types are Python types: ``str``, ``int`` (a bool is not an int), ``float``
(any JSON number, NaN and Infinity included), ``bool``, ``list``, ``dict``,
``None`` for null, or a tuple of them.
"""

from __future__ import annotations

import json
import math
import typing
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, MalformedHeader, ShortRead


def utf8(blob: bytes, kind: str) -> str:
    try:
        return blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedHeader(f"{kind}: not UTF-8 text ({exc})") from None


def float64s(blob: bytes, offset: int, shape: tuple) -> np.ndarray:
    """The little-endian float64 payload filling `blob` from `offset` to its
    end, as a new array of `shape`; ShortRead if it is short, DimensionMismatch
    if bytes trail it."""
    have, need = len(blob) - offset, 8 * math.prod(shape)
    if have < need:
        raise ShortRead(f"payload has {have} bytes, header implies {need}")
    if have > need:
        raise DimensionMismatch(f"{have - need} trailing bytes after payload")
    return np.frombuffer(blob, dtype="<f8", offset=offset).reshape(shape).copy()


def read(path, kind: str) -> str:
    return utf8(Path(path).read_bytes(), f"{kind} {path}")


def loads(text: str, kind: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedHeader(f"{kind}: not JSON ({exc})") from None


def read_json(path, kind: str):
    return loads(read(path, kind), f"{kind} {path}")


def _is(value, t) -> bool:
    if isinstance(value, bool) and t in (int, float):
        return False
    return isinstance(value, (int, float) if t is float else t)


def check(value, kind: str, key, types):
    """`value` if it has one of `types`; `key` names it in the error."""
    types = [type(None) if t is None else t
             for t in (types if isinstance(types, tuple) else (types,))]
    if any(_is(value, t) for t in types):
        return value
    where = kind if key is None else f"{kind}: {key!r}"
    want = " or ".join("null" if t is type(None) else t.__name__ for t in types)
    raise MalformedHeader(f"{where} must be {want}, not {type(value).__name__}")


def fields(doc, kind: str, required: dict | None = None,
           optional: dict | None = None, closed: bool = False) -> dict:
    """The keys of JSON object `doc` named in `required` (all present) or
    `optional`, each checked against its type. A `closed` object may hold no
    other key."""
    check(doc, kind, None, dict)
    types = {**(required or {}), **(optional or {})}
    for key in required or {}:
        if key not in doc:
            raise MalformedHeader(f"{kind}: missing key {key!r}")
    if closed and set(doc) - set(types):
        raise MalformedHeader(f"{kind}: unknown keys {sorted(set(doc) - set(types))}")
    return {k: check(v, kind, k, types[k]) for k, v in doc.items() if k in types}


def record(cls, doc, kind: str):
    """The flat dataclass `cls` from a closed JSON object of some of its
    fields, each checked against the field's annotation."""
    types = {k: typing.get_args(t) or t for k, t in typing.get_type_hints(cls).items()}
    return cls(**fields(doc, kind, optional=types, closed=True))


def array(value, kind: str, key: str, shape: tuple, dtype=float) -> np.ndarray:
    """A finite numeric array of `shape` (None matches any length) from a
    JSON list; ``dtype=int`` admits integers only."""
    try:
        arr = np.array(value)
    except ValueError:  # ragged nesting
        arr = np.array(None)
    if (arr.dtype.kind not in ("iu" if dtype is int else "iuf")
            or arr.ndim != len(shape)
            or any(n is not None and n != m for n, m in zip(shape, arr.shape))
            or not np.all(np.isfinite(arr))):
        dims = ", ".join("n" if n is None else str(n) for n in shape)
        raise MalformedHeader(f"{kind}: {key!r} must be a finite numeric array of shape ({dims})")
    return arr.astype(dtype)
