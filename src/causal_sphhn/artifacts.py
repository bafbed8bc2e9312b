"""The one module that touches the filesystem.

Every artifact of the pipeline is written atomically: into
``path + ".tmp"``, then moved onto ``path`` with ``os.replace``, so a
reader never sees half a file, and a failed write removes the temp file.
A failed read raises ``ParseError`` and a failed write
``ContractViolation``, each naming the path.  The loaders check
what they read with ``check_fields``, which owns the document's shape.  Its
one rule: a schema lists every key a document may hold, so a missing key, a
key the schema does not list and a value of the wrong type each raise
``ParseError`` naming the key, and each loader checks its whole file in one
call.  Ranges are the business of the object the fields build.

Arrays are stored in the NumPy ``.npy`` format (NEP 1).  ``write_npy``
returns the SHA-256 of the bytes it wrote, and ``read_npy`` loads only
bytes with that digest, so the JSON document that records it covers the
array too.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import math
import os
import types
import typing
from contextlib import contextmanager, suppress

import numpy as np

from .errors import ContractViolation, ParseError


def check_fields(schema, doc, where: str = "") -> dict:
    """``doc`` with each value checked against its key's type in ``schema``.

    ``schema`` is a dict of types, or a dataclass whose field hints give the
    types, and it lists every key ``doc`` may hold: a key it does not list is
    refused, at every level.  ``doc`` must have every key of a dict schema,
    and every field of a dataclass without a default.  A float takes an int,
    stored as a float; no other type takes a value of another type, so an int
    rejects a bool.  A ``tuple[...]``, of fixed length or with ``...``, or a
    ``list[...]`` takes a JSON list of typed entries, so ``list[{...}]`` takes
    a list of objects of one schema; a nested schema takes an object; a union
    such as ``dict | None`` takes a value of one of its types.  A failure
    raises ``ParseError`` naming the dotted key, prefixed by ``where``.
    """
    if type(doc) is not dict:
        raise ParseError(f"{where or 'document'} must be an object, not {type(doc).__name__}")
    prefix = f"{where}." if where else ""
    if type(schema) is dict:
        hints, optional = schema, ()
    else:
        hints = typing.get_type_hints(schema)
        optional = {f.name for f in dataclasses.fields(schema) if f.default is not dataclasses.MISSING}
    if not doc.keys() <= hints.keys():
        unknown = sorted(doc.keys() - hints.keys())
        raise ParseError(f"unknown field(s) {', '.join(prefix + k for k in unknown)}")
    out = dict(doc)
    for key, want in hints.items():
        if key not in doc:
            if key not in optional:
                raise ParseError(f"missing field {prefix}{key}")
        # A value of exactly its type, the common case, skips the general check.
        elif type(doc[key]) is not want:
            out[key] = _typed(want, doc[key], prefix + key)
    return out


def _typed(want, value, key: str):
    if type(want) is types.GenericAlias:  # tuple[...] or list[...]
        if type(value) not in (list, tuple):
            raise ParseError(f"{key} must be a list, got {value!r}")
        origin, args = want.__origin__, want.__args__
        if origin is list or args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ParseError(f"{key} must have {len(args)} entries, got {value!r}")
        return origin(v if type(v) is a else _typed(a, v, f"{key}[{i}]") for i, (a, v) in enumerate(zip(args, value)))
    if type(want) is dict or dataclasses.is_dataclass(want):
        return check_fields(want, value, key)
    kinds = want.__args__ if type(want) is types.UnionType else (int, float) if want is float else (want,)
    if type(value) not in kinds:
        raise ParseError(f"{key} must be {getattr(want, '__name__', want)}, got {value!r}")
    return float(value) if want is float else value


def read_json(path: str) -> dict:
    """The JSON object stored at ``path``."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    except ValueError as exc:  # invalid JSON, or bytes that are not UTF-8
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be a JSON object, not {type(doc).__name__}")
    return doc


@contextmanager
def atomic_write(path: str, binary: bool = False):
    """A text (or binary) handle whose contents replace ``path`` when the block ends.

    On any failure once the temp file is open, the temp file is removed and
    ``path`` is left as it was.
    """
    tmp = path + ".tmp"
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        fh = open(tmp, "wb" if binary else "w", encoding=None if binary else "utf-8")
        try:
            with fh:
                yield fh
            os.replace(tmp, path)
        except BaseException:
            with suppress(OSError):  # the failure that got here is the one to report
                os.remove(tmp)
            raise
    except OSError as exc:
        raise ContractViolation(f"{path}: cannot write: {exc}") from exc


def write_json(path: str, doc, indent: int | None = None) -> None:
    # json.dumps encodes in C when indent is None; json.dump always runs the Python encoder.
    text = json.dumps(doc, indent=indent)
    with atomic_write(path) as fh:
        fh.write(text)


def write_npy(path: str, array: np.ndarray) -> str:
    """Write ``array`` as ``.npy`` and return the SHA-256 of the bytes written.

    The bytes are those ``np.save`` writes for ``np.ascontiguousarray(array)``:
    the format's header, then the array's own buffer, with no copy between.
    """
    array = np.ascontiguousarray(array)
    body = array.reshape(-1).view(np.uint8)  # an object array raises here, before any file is made
    head = io.BytesIO()
    np.lib.format.write_array_header_1_0(head, np.lib.format.header_data_from_array_1_0(array))
    digest = hashlib.sha256()
    with atomic_write(path, binary=True) as fh:
        for part in (head.getbuffer(), body):
            fh.write(part)
            digest.update(part)
    return digest.hexdigest()


def read_npy(path: str, sha256: str) -> np.ndarray:
    """The array stored at ``path``, whose bytes must have SHA-256 ``sha256``.

    The array is read in place: the header is parsed, the array allocated
    from it, and the data read straight into its buffer.  The bytes are read
    once; the digest is checked on them and the same bytes are parsed, so a
    block swapped between the two steps cannot load.  A file whose data is
    not exactly the size the header's shape and dtype give, or whose dtype
    holds Python objects, does not load.
    """
    try:
        with open(path, "rb") as fh:
            head = fh.read(10)  # the magic string, the format version and the header's length
            try:
                version = np.lib.format.read_magic(io.BytesIO(head))
                if version != (1, 0):  # the version write_npy writes
                    raise ValueError(f"unsupported .npy version {version}")
                head += fh.read(int.from_bytes(head[8:], "little"))
                shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(io.BytesIO(head[8:]))
            except ValueError as exc:  # not .npy, or a truncated or malformed header
                raise ParseError(f"{path}: not a loadable .npy array: {exc}") from exc
            if dtype.hasobject:
                raise ParseError(f"{path}: not a loadable .npy array: dtype {dtype} holds Python objects")
            size = math.prod(shape) * dtype.itemsize
            stored = os.fstat(fh.fileno()).st_size - len(head)
            if stored != size or min(shape, default=0) < 0:
                raise ParseError(f"{path}: {stored} bytes of data, but the header's shape {shape} needs {size}")
            array = np.empty(shape, dtype, order="F" if fortran_order else "C")
            body = array.reshape(-1, order="A").view(np.uint8)
            if fh.readinto(body) != size or fh.read(1):
                raise ParseError(f"{path}: the file changed while it was read")
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    digest = hashlib.sha256(head)
    digest.update(body)
    if digest.hexdigest() != sha256:
        raise ParseError(f"{path}: SHA-256 {digest.hexdigest()[:12]}... does not match the recorded {sha256[:12]}...")
    return array


def file_digest(path: str) -> str:
    """SHA-256 of the bytes at ``path``."""
    h = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    return h.hexdigest()


def doc_digest(doc) -> str:
    """SHA-256 of ``doc`` as JSON with sorted keys, independent of key order."""
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
