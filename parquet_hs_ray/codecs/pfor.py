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

Base-width selection is exact and deterministic: a histogram of delta
bit lengths (``frexp`` exponents for deltas of at most 32 bits, exact
below 2**53; ``log2`` with a shift correction for 64-bit deltas) and a
bincount.  Encode finds exceptions with one compare and a gather and
hands the unmasked deltas to ``pack_bits_le``, which packs their low
bits.  Decode works in the column's own unsigned dtype: the base bits
unpack straight into it and the patch and reference add happen in
place, never through a 64-bit copy.
"""

from __future__ import annotations

import numpy as np

from .bitpack import pack_bits_le, unpack_bits_le
from .intpack import _wrap_deltas, decode_int, encode_int
from .varint import decode_varint, encode_varint, zigzag_decode, zigzag_encode

# estimated cost in bytes of one exception (position gap + high bits)
_EXC_COST = 3.0


def _bit_lengths(deltas: np.ndarray) -> np.ndarray:
    """Exact per-value bit length (uint8), vectorized.

    Unsigned values of at most 32 bits take ``frexp``'s exponent, which
    is the bit length of any integer below 2**53 (every one is exactly a
    float64).  Wider values take ``log2``, which rounds near powers of
    two above 2**53, corrected by a shift test."""
    if deltas.dtype.kind == "u" and deltas.dtype.itemsize <= 4:
        return np.frexp(deltas.astype(np.float64))[1].astype(np.uint8)
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
    w = min(w, 8 * deltas.dtype.itemsize)
    # exceptions: one compare and a gather of their high bits (a full
    # ``deltas >> w`` array would be one more pass over the column)
    exc_pos = np.flatnonzero(deltas > deltas.dtype.type((1 << w) - 1))
    exc_high = deltas[exc_pos] >> deltas.dtype.type(w)
    # pack_bits_le packs the low w bits of each delta: no mask copy. Pad
    # only the <8-value tail: concatenating the pad onto the full column
    # would copy the whole array again
    n_full = n - (n % 8)
    base_bits = pack_bits_le(deltas[:n_full], w)
    if n_full < n:
        tail = np.zeros(8, dtype=deltas.dtype)
        tail[: n - n_full] = deltas[n_full:]
        base_bits += pack_bits_le(tail, w)
    parts = [
        encode_varint(zigzag_encode(ref)),
        bytes([w, 0]),
        encode_varint(n),
        base_bits,
        encode_varint(len(exc_pos)),
    ]
    if len(exc_pos):
        # encode_int writes the same bytes for the same values in any
        # dtype, so the side streams stay narrow: gaps in uint32, highs in
        # the column's width. 8-byte highs keep their int64 view: at base
        # width 0 a high can pass 2**63, where uint64 would change the bytes
        gaps = np.empty(len(exc_pos), dtype=np.uint32 if n < 1 << 32 else np.int64)
        gaps[0] = exc_pos[0]
        np.subtract(exc_pos[1:], exc_pos[:-1], out=gaps[1:], casting="unsafe")
        if exc_high.dtype.itemsize == 8:
            exc_high = exc_high.view(np.int64)
        g = encode_int(gaps)
        h = encode_int(exc_high)
        parts += [encode_varint(len(g)), g, encode_varint(len(h)), h]
    return b"".join(parts)


def decode_pfor(data: bytes, np_dtype, pos: int = 0) -> tuple[np.ndarray, int]:
    """Decode a PFOR payload into ``np_dtype``.  Works in the column's
    own unsigned dtype throughout: the base bits unpack straight into
    it, and the exception patch and the reference add happen in place
    there, whose wraparound equals the encoder's.  Exception data that
    would patch a row outside the column, or one row twice, raises
    ``ValueError``."""
    np_dtype = np.dtype(np_dtype)
    udt = np.dtype(f"<u{np_dtype.itemsize}")
    zz, pos = decode_varint(data, pos)
    ref = zigzag_decode(zz)
    w = data[pos]
    pos += 2
    n, pos = decode_varint(data, pos)
    if n == 0:
        _, pos = decode_varint(data, pos)
        return np.empty(0, dtype=np_dtype), pos
    npad = n + ((-n) % 8)
    out, pos = unpack_bits_le(data, w, npad, pos, dtype=udt)
    out = out[:n]
    n_exc, pos = decode_varint(data, pos)
    if n_exc:
        at = pos
        if w >= 8 * udt.itemsize:
            raise ValueError(f"PFOR: {n_exc} exceptions at full base width {w} "
                             f"(byte {at})")
        _, pos = decode_varint(data, pos)
        gaps, pos = decode_int(data, np.int64, pos)
        _, pos = decode_varint(data, pos)
        highs, pos = decode_int(data, np.int64, pos)
        if len(gaps) != n_exc or len(highs) != n_exc:
            raise ValueError(f"PFOR: {n_exc} exceptions but {len(gaps)} gaps and "
                             f"{len(highs)} high parts (byte {at})")
        if (gaps[1:] <= 0).any():
            raise ValueError(f"PFOR: exception positions not increasing (byte {at})")
        exc_pos = np.cumsum(gaps)
        # every position, not the last alone: a wrapped int64 sum can end in range
        bad = exc_pos[(exc_pos < 0) | (exc_pos >= n)]
        if len(bad):
            raise ValueError(f"PFOR: exception position {bad[0]} outside "
                             f"{n} values (byte {at})")
        out[exc_pos] |= highs.astype(udt) << udt.type(w)
    out += udt.type(ref & ((1 << (8 * udt.itemsize)) - 1))
    return out.view(np_dtype), pos
