"""Vectorized bit-packing kernels.

Little-endian (Parquet RLE/BP-hybrid style) packing semantics are pinned by
the reference golden vectors:

- ``decode_bple(b"\\x88\\xc6\\xfa", width=3, groups=1) -> [0..7]``
  (`/root/reference/tests/unit/Parquet/Decoder/Spec.hs:17-19`, impl
  `/root/reference/src/Parquet/Decoder.hs:83-99`): value *i* occupies bits
  ``[i*w, (i+1)*w)`` of the little-endian bitstream (bit 0 = LSB of byte 0).
- Big-endian (deprecated BIT_PACKED levels, `Decoder.hs:54-80`): value bits
  are MSB-first in a big-endian bitstream; the encoding carries its own
  varint header ``(groups << 1) | 1`` (`Spec.hs:36-40`).

All kernels are numpy-vectorized and dtype-native: a uint32 input is packed
without widening to 64-bit (tokens are int32 — halving memory traffic on
the hot path). Byte-aligned widths (8/16/24/...) never expand to a bit
matrix: 1, 2 and 4 bytes narrow or widen with one ``astype``, other byte
counts take a strided byte slice.

Packing expands values to a bit matrix and packs it, in bounded chunks so
peak memory stays ~tens of MB regardless of array size. Unpacking uses the
group-of-8 layout (Lemire & Boytsov, "Decoding billions of integers per
second through vectorization"): 8 values of ``width`` bits are exactly
``width`` bytes, so value *j* of every group sits at the same byte and bit
offset, and each of the 8 output columns is one strided word load, shift
and mask over all groups, written straight into the target dtype. Payloads
too small to amortize the eight column passes use the bit matrix instead.
"""

from __future__ import annotations

import numpy as np

from .varint import decode_varint, encode_varint

# Chunk size (in values) for the packing bit matrix.
_CHUNK = 1 << 22
# Unpack payloads below this many bits use the bit matrix: the strided
# kernel's eight column passes cost more than the matrix at this size.
_SMALL_BITS = 8192


def _as_unsigned(values: np.ndarray, width: int) -> np.ndarray:
    """View/cast to the smallest unsigned dtype that holds ``width`` bits,
    without changing the bit patterns of the values."""
    if width > 32:
        target = np.uint64
    elif values.dtype.itemsize <= 4:
        target = np.uint32
    else:
        # already 8-byte; keep as uint64 view (no copy)
        target = np.uint64
    if values.dtype == target:
        return np.ascontiguousarray(values)
    if values.dtype.itemsize == np.dtype(target).itemsize:
        return np.ascontiguousarray(values).view(target)
    return np.ascontiguousarray(values).astype(target)


def pack_bits_le(values: np.ndarray, width: int) -> bytes:
    """Pack the low ``width`` bits of each of ``values`` (higher bits are
    ignored, so callers need no mask copy) into a little-endian
    bitstream. ``len(values)`` must be a multiple of 8. width in [0, 64].

    A byte-aligned width is the low ``width // 8`` bytes of each value:
    the values themselves when that is the itemsize, one narrowing
    ``astype`` for 1, 2 or 4 bytes, a strided byte slice otherwise."""
    n = len(values)
    if width == 0 or n == 0:
        return b""
    if n % 8:
        raise ValueError("pack_bits_le needs a multiple of 8 values")
    values = np.ascontiguousarray(values)
    if width > 8 * values.dtype.itemsize:
        values = values.astype(np.uint64)
    itemsize = values.dtype.itemsize
    if width % 8 == 0:
        nb = width // 8
        u = values.view(f"<u{itemsize}")
        if nb == itemsize:
            return u.tobytes()
        if nb in (1, 2, 4):
            return u.astype(f"<u{nb}").tobytes()
        return u.view(np.uint8).reshape(n, itemsize)[:, :nb].tobytes()
    out = []
    for s in range(0, n, _CHUNK):
        chunk = values[s : s + _CHUNK]
        bits = np.unpackbits(
            chunk.view(np.uint8).reshape(-1, itemsize), axis=1, bitorder="little", count=width
        )
        out.append(np.packbits(bits.reshape(-1), bitorder="little").tobytes())
    return b"".join(out)


def unpack_bits_le(
    data: bytes, width: int, n_values: int, pos: int = 0, dtype=np.uint64
) -> tuple[np.ndarray, int]:
    """Inverse of :func:`pack_bits_le`. Returns (array of ``dtype``, new_pos).

    Byte-aligned widths are a byte copy (widened by one ``astype`` when
    1, 2 or 4 bytes are narrower than ``dtype``); a payload of fewer than
    ``_SMALL_BITS`` bits goes through the bit matrix, whose cost grows
    with the bit count but has no per-column overhead; larger payloads
    take the group-of-8 strided kernel (:func:`_unpack_strided`)."""
    dtype = np.dtype(dtype)
    if width > dtype.itemsize * 8:
        raise ValueError(f"width {width} does not fit dtype {dtype}")
    if width == 0:
        return np.zeros(n_values, dtype=dtype), pos
    if n_values % 8:
        raise ValueError("unpack_bits_le needs a multiple of 8 values")
    nbytes = (n_values * width) // 8
    raw = np.frombuffer(data, dtype=np.uint8, count=nbytes, offset=pos)
    itemsize = dtype.itemsize
    if width % 8 == 0:
        nb = width // 8
        if nb == itemsize:
            return raw.view(dtype).copy(), pos + nbytes
        if nb in (1, 2, 4):
            wide = raw.view(f"<u{nb}").astype(f"<u{itemsize}")
            return wide.view(dtype), pos + nbytes
        padded = np.zeros((n_values, itemsize), dtype=np.uint8)
        padded[:, :nb] = raw.reshape(n_values, nb)
        return padded.view(dtype).reshape(n_values), pos + nbytes
    if n_values * width < _SMALL_BITS:
        bits = np.unpackbits(raw, bitorder="little").reshape(n_values, width)
        row_bytes = np.packbits(bits, axis=1, bitorder="little")
        widened = np.zeros((n_values, itemsize), dtype=np.uint8)
        widened[:, : row_bytes.shape[1]] = row_bytes
        return widened.view(dtype).reshape(n_values), pos + nbytes
    src = np.zeros(nbytes + 8, dtype=np.uint8)  # a word load may read 8 bytes past the payload
    src[:nbytes] = raw
    return _unpack_strided(src, width, n_values, dtype), pos + nbytes


def _unpack_strided(src: np.ndarray, width: int, n_values: int, dtype: np.dtype) -> np.ndarray:
    """Group-of-8 strided unpack (Lemire & Boytsov's layout): a group of 8
    values is exactly ``width`` bytes, so value *j* of every group starts
    at the same byte ``(j*width) >> 3`` and bit ``(j*width) & 7``.  Each
    of the 8 output columns is one strided little-endian word load over
    all groups, a shift and a mask, written straight into ``dtype``.  A
    value that spans 9 bytes (width > 56 at a non-zero shift) ORs in the
    9th byte.  ``src`` holds the payload plus at least 8 readable bytes."""
    groups = n_values // 8
    udt = np.dtype(f"<u{dtype.itemsize}")
    out = np.empty((groups, 8), dtype=udt)
    mask = udt.type((1 << width) - 1)
    for j in range(8):
        bit = j * width
        byte, shift = bit >> 3, bit & 7
        wdt = udt if shift + width <= 8 * udt.itemsize else np.dtype("<u8")
        col = out[:, j]
        word = np.ndarray(groups, wdt, src, byte, (width,))
        np.right_shift(word, wdt.type(shift), out=col, casting="unsafe")
        if shift + width > 64:
            top = np.ndarray(groups, np.uint8, src, byte + 8, (width,))
            np.bitwise_or(col, top.astype(udt) << udt.type(64 - shift), out=col)
        np.bitwise_and(col, mask, out=col)
    return out.reshape(n_values).view(dtype)


def decode_bple(data: bytes, width: int, scaled_run_len: int, pos: int = 0) -> tuple[np.ndarray, int]:
    """Reference ``decodeBPLE`` (`/root/reference/src/Parquet/Decoder.hs:83-99`):
    decode ``8 * scaled_run_len`` values of ``width`` bits, LSB-first."""
    return unpack_bits_le(data, width, 8 * scaled_run_len, pos)


def encode_bpbe(values: np.ndarray, width: int) -> bytes:
    """Big-endian bit-packing with its own varint header (deprecated
    BIT_PACKED level encoding, `/root/reference/src/Parquet/Decoder.hs:54-80`)."""
    n = len(values)
    if n % 8:
        raise ValueError("encode_bpbe needs a multiple of 8 values")
    groups = n // 8
    header = encode_varint((groups << 1) | 1)
    if width == 0 or n == 0:
        return header
    values = np.ascontiguousarray(values, dtype=np.uint64)
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    bits = ((values[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)
    return header + np.packbits(bits.reshape(-1), bitorder="big").tobytes()


def decode_bpbe(data: bytes, width: int, pos: int = 0) -> tuple[np.ndarray, int]:
    """Reference ``decodeBPBE`` (`/root/reference/src/Parquet/Decoder.hs:54-80`):
    reads varint header, ``run_len = header >> 1`` groups of 8 values,
    MSB-first bit order."""
    header, pos = decode_varint(data, pos)
    groups = header >> 1
    n_values = 8 * groups
    if width == 0:
        return np.zeros(n_values, dtype=np.uint64), pos
    nbytes = (n_values * width) // 8
    raw = np.frombuffer(data, dtype=np.uint8, count=nbytes, offset=pos)
    bits = np.unpackbits(raw, bitorder="big")
    weights = (np.uint64(1) << np.arange(width - 1, -1, -1, dtype=np.uint64)).astype(np.uint64)
    vals = bits.reshape(-1, width).astype(np.uint64) @ weights
    return vals, pos + nbytes


def take_bytes_le(data: bytes, n: int, pos: int = 0) -> tuple[int, int]:
    """Reference ``takeBytesLe`` (`/root/reference/src/Parquet/Decoder.hs:35-40`):
    assemble ``n`` bytes little-endian into an int. Golden:
    ``[136,198,250] -> 16434824`` (`Spec.hs:46-52`)."""
    if pos + n > len(data):
        raise ValueError("truncated take_bytes_le")
    return int.from_bytes(data[pos : pos + n], "little"), pos + n


def take_bytes_be(data: bytes, n: int, pos: int = 0) -> tuple[int, int]:
    """Reference ``takeBytesBe`` (`/root/reference/src/Parquet/Decoder.hs:43-51`)."""
    if pos + n > len(data):
        raise ValueError("truncated take_bytes_be")
    return int.from_bytes(data[pos : pos + n], "big"), pos + n


def bit_width_of(max_value: int) -> int:
    """Bit width needed for values in [0, max_value]; 0 -> 0.

    Matches reference ``maxLevelToBitWidth``
    (`/root/reference/src/Parquet/Stream/Reader.hs:67-70`)."""
    return int(max_value).bit_length()
