"""PFOR: patched frame-of-reference (FOR + exception patching).

Public-knowledge design after Zukowski, Heman, Nes & Boncz, "Super-Scalar
RAM-CPU Cache Compression" (ICDE 2006): subtract the frame reference, pick a
base bit width covering most deltas, bit-pack the low ``base_width`` bits of
every value, and *patch* the few exceptions (deltas needing more bits) from
two side arrays (positions-as-gaps + high bits). Ideal for zipf-skewed
token ids where max >> p99: plain FOR must pay bit_width(max) for every
value, PFOR pays ~bit_width(p99). No reference counterpart (north-rule
extension codec).

Payload layout::

    varint zigzag(reference) | u8 base_width | u8 flags(unused)
    varint n | base bits (pack_bits_le, n padded to 8)
    varint n_exc | [gaps: varint len + FOR payload]
                   [highs: varint len + FOR payload]

Base-width selection is exact (histogram of delta bit-lengths via
clip+bincount) and deterministic.
"""

from __future__ import annotations

import numpy as np

from .bitpack import bit_width_of, pack_bits_le, unpack_bits_le
from .intpack import _wrap_deltas, decode_int, encode_int
from .varint import decode_varint, encode_varint, zigzag_decode, zigzag_encode

# estimated cost in bytes of one exception (position gap + high bits)
_EXC_COST = 3.0


def _bit_lengths(deltas: np.ndarray) -> np.ndarray:
    """Exact per-value bit length, vectorized (log2 is unsafe at powers of
    two > 2**53; we correct with a shift test)."""
    d = deltas.astype(np.uint64, copy=False)
    nz = d > 0
    bl = np.zeros(len(d), dtype=np.uint8)
    if nz.any():
        f = np.log2(d[nz].astype(np.float64))
        approx = f.astype(np.uint8) + 1
        # correct off-by-one at boundaries: value must be < 2**bl and
        # >= 2**(bl-1). All shifts are clamped to <= 63 (shift-by-width is
        # undefined; numpy's result is platform-dependent): a shift that
        # would be 64 means the value provably fits (approx == 64 is the
        # max true bit length), handled by masking the comparison instead.
        v = d[nz]
        s_up = np.minimum(approx, 63).astype(np.uint64)
        too_small = (approx < 64) & ((v >> s_up) > 0)
        approx = approx + too_small.astype(np.uint8)
        # float log2 of values near 2**64 rounds up to exactly 64.0 -> 65
        approx = np.minimum(approx, 64)
        s_down = (approx - 1).astype(np.uint64)  # <= 63 after the clamp
        too_big = (v >> s_down) == 0
        approx = approx - too_big.astype(np.uint8)
        bl[nz] = approx
    return bl


def choose_base_width(deltas: np.ndarray) -> tuple[int, int]:
    """(best base width, predicted payload bytes)."""
    n = len(deltas)
    bl = _bit_lengths(deltas)
    hist = np.bincount(bl, minlength=65).astype(np.int64)
    exc_above = n - np.cumsum(hist)  # exc_above[w] = #values with bit length > w
    widths = np.arange(65, dtype=np.int64)
    costs = n * widths / 8 + exc_above * _EXC_COST
    w = int(np.argmin(costs))
    return w, int(costs[w])


def estimate_pfor(sample: np.ndarray, n: int) -> int:
    """Predicted total bytes for PFOR on a column of ``n`` values given a
    sample (selector hook)."""
    if len(sample) == 0:
        return 16
    ref = int(sample.min())
    deltas = _wrap_deltas(np.ascontiguousarray(sample), ref)
    _, cost = choose_base_width(deltas)
    return int(cost * (n / max(1, len(sample)))) + 16


def encode_pfor(values: np.ndarray) -> bytes:
    n = len(values)
    if n == 0:
        return encode_varint(0) + bytes([0, 0]) + encode_varint(0) + encode_varint(0)
    values = np.ascontiguousarray(values)
    ref = int(values.min())
    deltas = _wrap_deltas(values, ref)
    # width selection from a stride sample (deterministic; a slightly
    # suboptimal width only costs bytes, never correctness). ~128k values
    # give a stable bit-length histogram; sampling 1M was ~25% of encode
    # wall for zero width-choice benefit.
    sample = deltas[:: max(1, n // (1 << 17))]
    w, _ = choose_base_width(sample)
    wbits = 8 * deltas.dtype.itemsize
    if w >= wbits:
        w = wbits
        base = deltas
        exc_pos = np.empty(0, dtype=np.int64)
        exc_high = np.empty(0, dtype=np.uint64)
    else:
        high = deltas >> deltas.dtype.type(w)
        exc_pos = np.flatnonzero(high)
        exc_high = high[exc_pos].astype(np.uint64)
        base = None  # built lazily: byte-aligned widths never need it
    pad = (-n) % 8
    if w % 8 == 0 and w > 0:
        # byte-aligned width: the low w//8 little-endian bytes of each
        # delta ARE the packed stream — no mask copy, no pad concatenate
        # (both were full passes over the column)
        nb = w // 8
        it = deltas.dtype.itemsize
        u8 = np.ascontiguousarray(deltas).view(np.uint8).reshape(n, it)
        base_bits = (u8.tobytes() if nb == it
                     else u8[:, :nb].tobytes()) + b"\x00" * (pad * nb)
    else:
        if base is None:
            # native-dtype mask (no widening: memory traffic matters)
            base = deltas & deltas.dtype.type((1 << w) - 1)
        # pad only the <8-value tail: concatenating the pad onto the
        # full column would copy the whole array again
        n_full = n - (n % 8)
        base_bits = pack_bits_le(base[:n_full], w)
        if n_full < n:
            tail = np.zeros(8, dtype=base.dtype)
            tail[: n - n_full] = base[n_full:]
            base_bits += pack_bits_le(tail, w)
    parts = [
        encode_varint(zigzag_encode(ref)),
        bytes([w, 0]),
        encode_varint(n),
        base_bits,
        encode_varint(len(exc_pos)),
    ]
    if len(exc_pos):
        gaps = np.diff(exc_pos, prepend=0).astype(np.int64)
        g = encode_int(gaps)
        h = encode_int(exc_high.astype(np.int64, copy=False).view(np.int64))
        parts += [encode_varint(len(g)), g, encode_varint(len(h)), h]
    return b"".join(parts)


def decode_pfor(data: bytes, np_dtype, pos: int = 0) -> tuple[np.ndarray, int]:
    np_dtype = np.dtype(np_dtype)
    zz, pos = decode_varint(data, pos)
    ref = zigzag_decode(zz)
    w = data[pos]
    pos += 2
    n, pos = decode_varint(data, pos)
    if n == 0:
        _, pos = decode_varint(data, pos)
        return np.empty(0, dtype=np_dtype), pos
    npad = n + ((-n) % 8)
    base, pos = unpack_bits_le(data, w, npad, pos, dtype=np.uint64)
    base = base[:n]
    n_exc, pos = decode_varint(data, pos)
    if n_exc:
        glen, pos = decode_varint(data, pos)
        gaps, used = decode_int(data, np.int64, pos)
        pos = used
        hlen, pos = decode_varint(data, pos)
        highs, used = decode_int(data, np.int64, pos)
        pos = used
        exc_pos = np.cumsum(gaps)
        base[exc_pos] |= highs.view(np.uint64) << np.uint64(w)
    mask = (1 << (8 * np_dtype.itemsize)) - 1
    out64 = base + np.uint64(ref & mask)
    if np_dtype.itemsize == 8:
        return out64.view(np_dtype), pos
    narrowed = out64.astype({1: np.uint8, 2: np.uint16, 4: np.uint32}[np_dtype.itemsize])
    return narrowed.view(np_dtype), pos
