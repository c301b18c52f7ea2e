"""Integer FOR (frame-of-reference) payloads.

    varint zigzag(reference) | u8 delta_width | columnar-hybrid stream

The frame reference is ``min(values)``; the deltas go through the columnar
RLE/bit-packed hybrid, whose run rule decides which equal-value runs
become RLE runs.  Codec ids RLE (2) and BITPACK (3) name this same
payload as older encoders wrote it with other run thresholds; they are
decode-only now, and :func:`decode_int` reads all three, because the
hybrid decoder does not depend on where the runs were cut.

The reference engine decodes dict-index/level streams with exactly these run
semantics (`/root/reference/src/Parquet/Decoder.hs:119-135`); subtraction of
a frame reference is our extension mandated by the north rule (no reference
counterpart). Signed / overflowing ranges are handled with two's-complement
wraparound arithmetic in uint64, so e.g. int64 columns spanning more than
2**63 still round-trip exactly.
"""

from __future__ import annotations

import numpy as np

from .bitpack import bit_width_of
from .hybrid_columnar import decode_hybrid_columnar, encode_hybrid_columnar
from .varint import decode_varint, encode_varint, zigzag_decode, zigzag_encode


def _wrap_deltas(values: np.ndarray, ref: int) -> np.ndarray:
    """(values - ref) with two's-complement wraparound, as unsigned.
    When ref == 0 this returns a VIEW of the input (no copy — a full
    pass over a 100M-value token column costs real wall time); callers
    must not mutate the result."""
    if values.dtype.kind == "i":
        u = values.view(values.dtype.str.replace("i", "u"))
    else:
        u = values
    if ref == 0:
        return u
    return u - u.dtype.type(ref & ((1 << (8 * u.dtype.itemsize)) - 1))


def encode_int(values: np.ndarray) -> bytes:
    """Encode an integer array (any signed/unsigned width) to a FOR
    payload. ``values`` must be a 1-D contiguous numpy integer array."""
    n = len(values)
    if n == 0:
        return encode_varint(0) + encode_hybrid_columnar(values.astype(np.uint32), 0)
    ref = int(values.min())
    deltas = _wrap_deltas(np.ascontiguousarray(values), ref)
    width = bit_width_of(int(deltas.max()))
    return encode_varint(zigzag_encode(ref)) + encode_hybrid_columnar(deltas, width)


def decode_int(data: bytes, np_dtype, pos: int = 0) -> tuple[np.ndarray, int]:
    """Decode a FOR/RLE/BP payload back to ``np_dtype`` (the original numpy
    dtype of the column's physical values)."""
    np_dtype = np.dtype(np_dtype)
    zz, pos = decode_varint(data, pos)
    ref = zigzag_decode(zz)
    # peek width to size the working dtype
    work = np.uint64 if np_dtype.itemsize > 4 else np.uint32
    deltas, pos = decode_hybrid_columnar(data, pos, dtype=work)
    if len(deltas) == 0:
        return np.empty(0, dtype=np_dtype), pos
    mask = (1 << (8 * np_dtype.itemsize)) - 1
    out = deltas.astype(np.uint64 if np_dtype.itemsize == 8 else work, copy=False)
    out = out + out.dtype.type(ref & mask)  # wraparound add
    if np_dtype.itemsize == out.dtype.itemsize:
        return out.view(np_dtype), pos
    # narrow to the physical width then reinterpret sign
    narrowed = out.astype({1: np.uint8, 2: np.uint16, 4: np.uint32}[np_dtype.itemsize])
    return narrowed.view(np_dtype), pos
