"""PLAIN codec: raw little-endian values, Arrow-layout variable binary.

Primitive semantics mirror the reference's PLAIN decode
(`/root/reference/src/Parquet/Stream/Reader.hs:190-209`): INT64 = 8-byte LE
(`:202-204`); our engine generalizes to every fixed-width physical type.
For BYTE_ARRAY the reference uses u32-LE length prefixes per value
(`:195-201`); our on-disk layout instead stores the Arrow offsets vector +
contiguous data (decode is zero-copy into an Arrow array; the
length-prefixed reference layout is what the kernel Parquet reader and
writer use, `sources/parquet_pages.py`, `sources/parquet_writer.py`).
"""

from __future__ import annotations

import numpy as np

from .intpack import decode_int, encode_int
from .varint import decode_varint, encode_varint


def encode_plain_fixed(values: np.ndarray) -> bytes:
    """Raw little-endian bytes of a fixed-width numpy array."""
    return np.ascontiguousarray(values).tobytes()


def decode_plain_fixed(data: bytes, np_dtype, n: int, pos: int = 0) -> tuple[np.ndarray, int]:
    np_dtype = np.dtype(np_dtype)
    arr = np.frombuffer(data, dtype=np_dtype, count=n, offset=pos)
    return arr, pos + n * np_dtype.itemsize


def encode_binary(lengths: np.ndarray, data: bytes | np.ndarray) -> bytes:
    """Variable-length binary payload: FOR-encoded lengths + raw data bytes.

    ``lengths`` are per-value byte lengths (nulls must be 0); ``data`` is the
    concatenated value bytes. Lengths (not offsets) are stored because they
    are small, run- and dict-friendly ints; offsets are rebuilt by cumsum."""
    data = bytes(data) if isinstance(data, (bytearray, memoryview)) else data
    raw = data.tobytes() if isinstance(data, np.ndarray) else data
    enc_lens = encode_int(np.ascontiguousarray(lengths, dtype=np.int64))
    return encode_varint(len(enc_lens)) + enc_lens + encode_varint(len(raw)) + raw


def decode_binary(data: bytes, pos: int = 0) -> tuple[np.ndarray, bytes, int]:
    """Returns (lengths int64 array, raw data bytes, new_pos)."""
    lens_len, pos = decode_varint(data, pos)
    lengths, used = decode_int(data, np.int64, pos)
    if used - pos != lens_len:
        raise ValueError("binary lengths section size mismatch")
    pos = used
    data_len, pos = decode_varint(data, pos)
    raw = data[pos : pos + data_len]
    return lengths, raw, pos + data_len

