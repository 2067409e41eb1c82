"""The binary codec of both model files: envelope, primitives, shared header.

Envelope, all little-endian:

    magic (4 bytes) | version u32 | payload | crc32(payload) u32

Both model kinds share a header block inside their payloads:

    charset   u32 count, then the characters (index order) as one UTF-32-LE run:
              one u32 code point each, surrogates included
    labels    u32 count, then per label a string: u16 byte length, UTF-8 bytes

An array is a u64 item count, then the items, little-endian; a sized
array is a u8 item size (1, 2, 4 or 8), then an array of unsigned integers
of that size.

`LIDN` v4 (n-gram model, `ngram.py`; its table's arrays as the model holds them;
`ngram.load` reads no other version):

    n u32 | alpha f64 | header
    1 array of u32 widths: the symbols each level covers, summing to n, the last 1
    1 array of i64 keys per width: the levels of the table, without their sentinels
    3 sized arrays, each in its narrowest type: offsets | cols | counts (the table's rows)

`LIDC` v2 (conv+BiLSTM checkpoint, `clstm.py`, which reads no other version; the
config record holds `ClstmConfig`'s fields in declaration order, a tuple as its
items; each parameter's shape follows from the config, charset size and label count):

    11 u32: seq_len, charset_dim (the cap), conv_features, 3 conv kernels, 3 pools,
            lstm_hidden, dense_units
    5 f64:  dropout_rate, lr, beta1, beta2, eps
    2 u32:  epochs, batch_size | seed i64 | header
    each parameter's float64 values, C order, in `clstm._param_shapes` order

Sorting makes identical models serialize to identical bytes. Every read is
bounds-checked, so truncation surfaces as a `ModelIOError` mid-record or as
a checksum mismatch; `read_model` also turns malformed contents under a
valid checksum into `ModelIOError`, and names the file in each. Writers go
through a temp file plus atomic rename so a failed run never leaves a
partial artifact behind.
"""

from __future__ import annotations

import io
import os
import struct
import tempfile
import zlib
from pathlib import Path
from typing import Callable, TypeVar

import numpy as np

from .corpus import Charset, Label
from .errors import ChecksumError, ConfigError, ModelIOError, VersionError

T = TypeVar("T")


def record(fmt: str) -> struct.Struct:
    """A little-endian, unpadded struct of `fmt` fields."""
    return struct.Struct("<" + fmt)


U8 = record("B")
U16 = record("H")
U32 = record("I")
U64 = record("Q")
F64 = record("d")

_MAGIC_LEN = 4
_MIN_SIZE = _MAGIC_LEN + 2 * U32.size  # magic, version, crc32


def atomic_write_bytes(path: str | Path, *chunks: bytes | memoryview) -> None:
    """Write `chunks`, one after another, to `path` via a same-directory temp
    file and rename."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_envelope(path: str | Path, magic: bytes, version: int, payload: bytes | memoryview) -> None:
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    atomic_write_bytes(path, magic, U32.pack(version), payload, U32.pack(crc))


def peek_magic(path: str | Path) -> bytes:
    """Return the 4-byte magic of a container file without validating it."""
    with open(path, "rb") as fh:
        magic = fh.read(_MAGIC_LEN)
    if len(magic) != _MAGIC_LEN:
        raise ModelIOError(f"{path}: too short to be a model file")
    return magic


def read_envelope(path: str | Path, magic: bytes, version: int) -> memoryview:
    """Validate a container file of the one version read and return its payload."""
    data = Path(path).read_bytes()
    if len(data) < _MIN_SIZE:
        raise ModelIOError(f"{path}: truncated file ({len(data)} bytes)")
    if data[:_MAGIC_LEN] != magic:
        raise ModelIOError(
            f"{path}: bad magic {data[:_MAGIC_LEN]!r}, expected {magic!r}"
        )
    (stored,) = U32.unpack_from(data, _MAGIC_LEN)
    if stored != version:
        raise VersionError(f"{path}: unsupported format version {stored}; supported versions: {version}")
    payload = memoryview(data)[_MAGIC_LEN + U32.size : -U32.size]  # a view: no copy
    (stored_crc,) = U32.unpack_from(data, len(data) - U32.size)
    actual_crc = zlib.crc32(payload) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        raise ChecksumError(
            f"{path}: checksum mismatch (stored {stored_crc:#010x}, computed {actual_crc:#010x})"
        )
    return payload


class Writer:
    """Builds a payload field by field."""

    def __init__(self) -> None:
        self._buf = io.BytesIO()
        self.raw = self._buf.write  # appends bytes; bound once, as loops call it per record

    def put(self, st: struct.Struct, *values) -> None:
        self.raw(st.pack(*values))

    def array(self, values: np.ndarray, dtype: str) -> None:
        """`values` as an array of little-endian `dtype` items."""
        self.put(U64, len(values))
        self.raw(values.astype(dtype, copy=False))

    def uints(self, values: np.ndarray) -> None:
        """An unsigned integer array in its own item size: a u8 size tag, then the array."""
        self.put(U8, values.itemsize)
        self.array(values, f"<u{values.itemsize}")

    def string(self, text: str) -> None:
        data = text.encode("utf-8")
        self.put(U16, len(data))
        self.raw(data)

    def header(self, charset: Charset, labels: tuple[Label, ...]) -> None:
        self.put(U32, len(charset.chars))
        self.raw("".join(charset.chars).encode("utf-32-le", "surrogatepass"))
        self.put(U32, len(labels))
        for label in labels:
            self.string(label.code)

    def save(self, path: str | Path, magic: bytes, version: int) -> None:
        write_envelope(path, magic, version, self._buf.getbuffer())  # a view: no copy of the payload


class Reader:
    """Bounds-checked reads from a payload; running past its end is a ModelIOError."""

    def __init__(self, payload: bytes | memoryview) -> None:
        self.payload = memoryview(payload)  # reads slice it without copying
        self.offset = 0

    def _advance(self, size: int) -> int:
        start = self.offset
        if start + size > len(self.payload):
            raise ModelIOError("payload ends mid-record")
        self.offset = start + size
        return start

    def unpack(self, st: struct.Struct) -> tuple:
        return st.unpack_from(self.payload, self._advance(st.size))

    def value(self, st: struct.Struct):
        return st.unpack_from(self.payload, self._advance(st.size))[0]

    def read(self, size: int) -> memoryview:
        start = self._advance(size)
        return self.payload[start : self.offset]

    def items(self, dtype: str, count: int) -> np.ndarray:
        """`count` items of little-endian `dtype`: a read-only view of the payload."""
        return np.frombuffer(self.read(count * np.dtype(dtype).itemsize), dtype)

    def array(self, dtype: str) -> np.ndarray:
        """An array written by `Writer.array`."""
        return self.items(dtype, self.value(U64))

    def uints(self) -> np.ndarray:
        """An array written by `Writer.uints`."""
        size = self.value(U8)
        if size not in (1, 2, 4, 8):
            raise ModelIOError(f"an item size of {size} bytes")
        return self.array(f"<u{size}")

    def string(self) -> str:
        return str(self.read(self.value(U16)), "utf-8")

    def header(self) -> tuple[Charset, tuple[Label, ...]]:
        charset = Charset(tuple(str(self.read(4 * self.value(U32)), "utf-32-le", "surrogatepass")))
        labels = tuple(Label(self.string()) for _ in range(self.value(U32)))
        if len(set(labels)) != len(labels):
            raise ModelIOError("duplicate label in payload")
        return charset, labels


def read_model(path: str | Path, magic: bytes, version: int, parse: Callable[[Reader], T]) -> T:
    """Open a model file of `version` and run `parse` over its whole payload.

    A valid checksum does not make the contents valid: undecodable strings,
    bad labels or out-of-range config values become ModelIOError too. Every
    ModelIOError of the parse is prefixed here, and only here, with the path.
    """
    payload = read_envelope(path, magic, version)
    reader = Reader(payload)
    try:
        model = parse(reader)
        if reader.offset != len(payload):
            raise ModelIOError(f"{len(payload) - reader.offset} trailing bytes in payload")
    except ModelIOError as exc:
        exc.args = (f"{path}: {exc}",)
        raise
    except (ValueError, OverflowError, ConfigError) as exc:
        raise ModelIOError(f"{path}: malformed payload: {exc}") from exc
    return model
