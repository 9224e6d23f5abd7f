"""From input file to checked value. Every reader decodes and shape-checks its
documents here, so a malformed file raises MalformedHeader (a DataError)
naming the kind of document and the key at fault.

Series, planar and chain files share one framing, written by `write_framed`
and split by `read_framed`: a magic line naming the kind and version, one
UTF-8 JSON metadata line with sorted keys, then a raw little-endian float64
body of exactly the shape the metadata implies and no byte after it. The
loaders of these files and of the JSON map, tessellation and model-spec
files are wrapped in `names_path`, so each error names the file once.

Types are Python types: ``str``, ``int`` (a bool is not an int), ``float``
(any JSON number, NaN and Infinity included), ``bool``, ``list``, ``dict``,
``None`` for null, or a tuple of them. `nonneg_int` is the one rule for a
seed or a count, and `finite_real` for a real-valued setting, which a caller
and a file share. `reals` is the one rule for an array a caller passes, and
`array` for one a file holds; the two share their test of what is a number
and what fits a shape.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import typing
from pathlib import Path

import numpy as np

from .errors import DataError, DimensionMismatch, MalformedHeader, ShortRead


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


# A file whose first line starts with a retired version of its kind is
# refused with a message naming that version; nothing after it is read.
RETIRED = {
    b"STVAR-CHAIN v1": "the retired text chain format; refit",
    b"STVAR-SERIES v1": "the retired series format with a JSON sidecar; rerun the stage that "
                        "wrote it",
    b"STVAR-PLANAR v1": "the retired text planar format; rerun the stage that wrote it",
}


def names_path(load):
    """`load(path)` with each DataError it raises ending in the path."""
    @functools.wraps(load)
    def wrapper(path):
        try:
            return load(path)
        except DataError as exc:
            exc.args = (f"{exc} (in {path})",)
            raise
    return wrapper


def write_framed(path, magic: bytes, meta: dict, body: np.ndarray) -> None:
    head = magic + b"\n" + json.dumps(meta, sort_keys=True).encode("utf-8") + b"\n"
    Path(path).write_bytes(head + np.ascontiguousarray(body, "<f8").tobytes())


def read_framed(path, magic: bytes, kind: str) -> tuple:
    """(metadata, file bytes, offset of the body) of a framed file whose first
    line is `magic`; `kind` names the metadata line in errors. The body is
    for `float64s`."""
    blob = Path(path).read_bytes()
    end1 = blob.find(b"\n")
    line = (blob if end1 < 0 else blob[:end1]).strip()
    if line != magic:
        version = b" ".join(line.split()[:2])
        if version in RETIRED and version.split()[0] == magic.split()[0]:
            raise MalformedHeader(f"{version.decode()} is {RETIRED[version]} "
                                  f"to write {magic.decode()}")
        raise MalformedHeader(f"expected {magic.decode()!r} on the first line")
    end2 = blob.find(b"\n", end1 + 1)
    if end2 < 0:
        raise MalformedHeader(f"{kind}: missing metadata line")
    return loads(utf8(blob[end1 + 1 : end2], kind), kind), blob, end2 + 1


def loads(text: str, kind: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedHeader(f"{kind}: not JSON ({exc})") from None


def read_json(path, kind: str):
    """The JSON document in file `path`; `kind` names it in errors."""
    return loads(utf8(Path(path).read_bytes(), kind), kind)


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


def nonneg_int(value, name: str) -> int:
    """`value` as a Python int, refused unless it is a non-negative integer
    (a numpy integer is one, a bool is not): the rule for a seed, which
    numpy's generators need, and for a count, whether a caller or a file
    gives it."""
    if not (_is(value, int) or isinstance(value, np.integer)) or value < 0:
        raise DataError(f"{name} must be a non-negative integer, got {value!r}")
    return int(value)


def finite_real(value, name: str) -> float:
    """`value` as a Python float, refused unless it is a finite real number
    (a numpy number is one, a bool or a string is not): the rule for a
    real-valued setting, checked before its range."""
    real = _is(value, float) or isinstance(value, (np.integer, np.floating))
    try:
        if real and math.isfinite(value):
            return float(value)
    except OverflowError:  # an int past the float range
        pass
    raise DataError(f"{name} must be a finite real number, got {value!r}")


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


# String annotations are compiled on every get_type_hints call; a class's
# hints never change.
_type_hints = functools.cache(typing.get_type_hints)


def record(cls, doc, kind: str):
    """The flat dataclass `cls` from a closed JSON object of its fields, each
    checked against the field's annotation; a field without a default must be
    present. A ``tuple[T, ...]`` field is a JSON list of T."""
    hints = _type_hints(cls)
    items = {k: typing.get_args(t)[0] for k, t in hints.items() if typing.get_origin(t) is tuple}
    types = {k: list if k in items else typing.get_args(t) or t for k, t in hints.items()}
    required = {f.name: types[f.name] for f in dataclasses.fields(cls)
                if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING}
    doc = fields(doc, kind, required, types, closed=True)
    for k in items.keys() & doc.keys():
        doc[k] = tuple(check(v, kind, k, items[k]) for v in doc[k])
    return cls(**doc)


def _holds_bool(nested, depth: int) -> bool:
    """Whether a list nested `depth` deep holds a bool among its entries."""
    for _ in range(depth - 1):
        nested = itertools.chain.from_iterable(nested)
    return not {bool, np.bool_}.isdisjoint(map(type, nested))


def _numbers(value, kinds: str) -> np.ndarray | None:
    """`value` as an array of numbers whose dtype kind is one of `kinds`, an
    array that is one as it is; None for text, a bool or a ragged nesting.
    numpy reads a bool among numbers as 1 or 0, so nested lists are searched
    for one."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        return None
    if arr.size and (arr.dtype.kind not in kinds or arr.ndim and not isinstance(value, np.ndarray)
                     and _holds_bool(value, arr.ndim)):
        return None
    return arr


def _fits(arr: np.ndarray, shape: tuple) -> bool:
    return arr.ndim == len(shape) and all(n is None or n == m for n, m in zip(shape, arr.shape))


def _dims(shape: tuple) -> str:
    return "(" + ", ".join("n" if n is None else str(n) for n in shape) + ")"


def array(value, kind: str, key: str, shape: tuple, dtype=float) -> np.ndarray:
    """A finite numeric array of `shape` (None matches any length) from a
    JSON list; ``dtype=int`` admits integers only. A JSON true or false is
    not a number."""
    arr = _numbers(value, "iu" if dtype is int else "iuf")
    if arr is None or not _fits(arr, shape) or not np.isfinite(arr).all():
        raise MalformedHeader(f"{kind}: {key!r} must be a finite numeric array of shape "
                              f"{_dims(shape)}")
    return arr.astype(dtype)


def reals(value, name: str, shape: tuple | None) -> np.ndarray:
    """`value` as a float array of `shape` (None matches any length, and a
    shape of None any shape): the rule for an array a library caller passes.
    Text, a bool or a ragged nesting is a DataError, another shape a
    DimensionMismatch, and a NaN or an infinity a DataError naming the first
    row that holds one. An array of floats is taken as it is, uncopied."""
    arr = _numbers(value, "iuf")
    if arr is None:
        raise DataError(f"{name} must be an array of real numbers")
    if shape is not None and not _fits(arr, shape):
        raise DimensionMismatch(f"{name} must have shape {_dims(shape)}, got {arr.shape}")
    arr = arr.astype(float, copy=False)
    finite = np.isfinite(arr)
    if not finite.all():
        row = np.argmin(finite.reshape(len(arr), -1).all(axis=1)) if arr.ndim else 0
        raise DataError(f"{name} row {row} (row 0 is the first) is not finite")
    return arr
