"""Columnar RLE/bit-packed hybrid — the engine's hot-path run container.

Same *run semantics* as the Parquet RLE/BP hybrid the reference decodes
(`/root/reference/src/Parquet/Decoder.hs:119-135`): a sequence of runs, each
either an RLE run (value repeated ``len`` times) or a bit-packed span
(8-aligned, ``width``-bit LSB-first values), placed by the one run rule
both encoders share, :func:`long_runs`. The difference is layout: the
parquet-style stream in :mod:`.rle_hybrid` interleaves varint headers with
payloads (sequential decode, Python cost per run); this container stores the
three streams *separately* so both encode and decode are single-pass
numpy kernels with zero per-run Python cost:

    varint n_values | u8 width | varint n_words
    words:    (2k+1) * u32 little-endian  —  [bp0, rle0, bp1, rle1, ..., bp_k]
              bp word  = (span_len << 1) | 1   (span_len multiple of 8; may be 0)
              rle word = (run_len  << 1)
    rle_vals: k * ceil(width/8) bytes, little-endian each
    bp_bytes: ceil8(sum span_len) * width / 8 bytes  (one contiguous
              LSB-first bitstream; spans are byte-exact sub-slices because
              every non-terminal span is 8-aligned — same invariant the
              parquet hybrid relies on)

Byte-level reference parity is carried by the golden-vector kernels in
:mod:`.rle_hybrid`/:mod:`.bitpack`; this container is value-level equivalent
(SURVEY.md §7 hard-part (i): value-level parity, byte-level only for golden
vectors).
"""

from __future__ import annotations

import numpy as np

from .bitpack import _as_unsigned, pack_bits_le, unpack_bits_le
from .varint import decode_varint, encode_varint

# shortest equal-value run emitted as an RLE run, in this container and
# in the Parquet stream of :mod:`.rle_hybrid`; above 7, so the
# 8-alignment steal of :func:`long_runs` never empties a run, and at
# least 16, so its no-run test over 8-aligned blocks is exact
RLE_MIN_RUN = 16


def long_runs(values: np.ndarray, neq: np.ndarray | None = None
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The run rule of both RLE/bit-packed layouts: where the RLE runs go.

    ``values`` splits into maximal equal-value runs; each run of at least
    ``RLE_MIN_RUN`` values becomes an RLE run and everything between two
    of them one bit-packed span.  Returns, per RLE run, the length of the
    bit-packed span before it and the run's ``[start, end)``.  Every such
    span is 8-aligned by stealing up to 7 values from the head of the run
    that follows (stolen values equal the run value, so they pack
    losslessly); the values after the last run form the terminal span,
    which is not aligned.  ``neq`` is ``values[1:] != values[:-1]`` when
    the caller already has it.

    A run of ``RLE_MIN_RUN`` (>= 16) values has at least 15 equal
    adjacent pairs, so it covers a whole 8-aligned block of 8 equal
    pairs, a zero word of ``neq``: with no such word (one compare per
    8 pairs) there is no run to search for."""
    if neq is None:
        neq = values[1:] != values[:-1]
    if neq[:len(neq) // 8 * 8].view(np.uint64).all():
        none = np.zeros(0, dtype=np.int64)
        return none, none, none
    boundaries = np.flatnonzero(neq) + 1
    starts = np.concatenate([np.zeros(1, dtype=np.int64), boundaries])
    ends = np.concatenate([boundaries, np.asarray([len(values)], dtype=np.int64)])
    long_mask = ends - starts >= RLE_MIN_RUN
    s_long, e_long = starts[long_mask], ends[long_mask]
    span = s_long - np.concatenate([np.zeros(1, dtype=np.int64), e_long[:-1]])
    steal = (-span) % 8
    return span + steal, s_long + steal, e_long


def _ragged_indices(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenated [s, s+len) ranges: the standard repeat/cumsum trick."""
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(lens, dtype=np.int64)[:-1]])
    return np.repeat(starts.astype(np.int64) - offsets, lens) + np.arange(total, dtype=np.int64)


def encode_hybrid_columnar(values: np.ndarray, width: int) -> bytes:
    """Encode ``values`` (non-negative ints < 2**width) — fully vectorized.

    RLE runs are placed by :func:`long_runs`; a column with few repeats
    skips the run search and becomes one bit-packed span."""
    n = len(values)
    header = encode_varint(n) + bytes([width])
    if n == 0:
        return header + encode_varint(0)
    values = _as_unsigned(values, width)
    nb = (width + 7) // 8
    if width == 0:
        # single RLE word covering everything, no value bytes, no bp bytes
        words = np.asarray([n << 1], dtype="<u4")
        return header + encode_varint(1) + words.tobytes()

    # cheap pre-check: if almost every adjacent pair differs, no run can
    # reach RLE_MIN_RUN often enough to matter — take the single-BP-span
    # path without allocating the O(n) int64 run-boundary arrays
    neq = values[1:] != values[:-1]
    n_repeats = n - 1 - int(np.count_nonzero(neq))
    if n_repeats < max(RLE_MIN_RUN, n // 32):
        words = np.asarray([(n << 1) | 1], dtype="<u4")
        pad = (-n) % 8
        padded = np.concatenate([values, np.zeros(pad, dtype=values.dtype)]) if pad else values
        return header + encode_varint(1) + words.tobytes() + pack_bits_le(padded, width)

    bp_spans, rle_starts, rle_ends = long_runs(values, neq)
    k = len(rle_starts)

    # segment lengths bp0, rle0, bp1, ..., bp_k; the terminal bp span
    # may be 0 and unaligned
    seg_lens = np.empty(2 * k + 1, dtype=np.int64)
    seg_lens[0:-1:2] = bp_spans
    seg_lens[1::2] = rle_ends - rle_starts
    seg_lens[-1] = n - (int(rle_ends[-1]) if k else 0)
    words = (seg_lens << 1).astype("<u4")
    words[0::2] |= 1

    if k:
        rle_vals = np.ascontiguousarray(values[rle_starts])
        rle_bytes = rle_vals.view(np.uint8).reshape(k, values.dtype.itemsize)[:, :nb].tobytes()
        is_bp = np.zeros(2 * k + 1, dtype=bool)
        is_bp[0::2] = True
        bp_vals = values[np.repeat(is_bp, seg_lens)]
    else:
        rle_bytes = b""
        bp_vals = values

    pad = (-len(bp_vals)) % 8
    if pad:
        bp_vals = np.concatenate([bp_vals, np.zeros(pad, dtype=bp_vals.dtype)])
    bp_bytes = pack_bits_le(bp_vals, width)
    return b"".join([header, encode_varint(len(words)), words.tobytes(), rle_bytes, bp_bytes])


def decode_hybrid_columnar(data: bytes, pos: int = 0, dtype=np.uint32) -> tuple[np.ndarray, int]:
    """Inverse of :func:`encode_hybrid_columnar` — fully vectorized."""
    dtype = np.dtype(dtype)
    n, pos = decode_varint(data, pos)
    width = data[pos]
    pos += 1
    n_words, pos = decode_varint(data, pos)
    if n == 0:
        return np.empty(0, dtype=dtype), pos
    words = np.frombuffer(data, dtype="<u4", count=n_words, offset=pos)
    pos += 4 * n_words
    if width == 0:
        return np.zeros(n, dtype=dtype), pos

    nb = (width + 7) // 8
    bp_spans = (words[0::2] >> 1).astype(np.int64)  # k+1 entries incl. terminal
    rle_lens = (words[1::2] >> 1).astype(np.int64)
    k = len(rle_lens)

    # RLE values: k fixed-width little-endian slots
    if k:
        raw = np.frombuffer(data, dtype=np.uint8, count=k * nb, offset=pos)
        pos += k * nb
        widened = np.zeros((k, dtype.itemsize), dtype=np.uint8)
        widened[:, :nb] = raw.reshape(k, nb)
        rle_vals = widened.view(dtype).reshape(k)
    else:
        rle_vals = np.empty(0, dtype=dtype)

    bp_total = int(bp_spans.sum())
    bp_padded = bp_total + ((-bp_total) % 8)
    bp_decoded, pos = unpack_bits_le(data, width, bp_padded, pos, dtype=dtype)

    if k == 0:
        return bp_decoded[:n], pos

    # interleaved segment layout: bp0, rle0, bp1, rle1, ..., bp_k
    seg_lens = np.empty(2 * k + 1, dtype=np.int64)
    seg_lens[0::2] = bp_spans
    seg_lens[1::2] = rle_lens
    seg_offsets = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(seg_lens)[:-1]])

    out = np.empty(n, dtype=dtype)
    bp_dest = _ragged_indices(seg_offsets[0::2], seg_lens[0::2])
    out[bp_dest] = bp_decoded[: len(bp_dest)]
    rle_dest = _ragged_indices(seg_offsets[1::2], seg_lens[1::2])
    out[rle_dest] = np.repeat(rle_vals, rle_lens)
    return out, pos
