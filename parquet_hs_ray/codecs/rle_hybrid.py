"""Parquet-style RLE / bit-packed hybrid runs (vectorized).

Semantics pinned by the reference:

- one RLE run = varint header ``run_len << 1`` + the repeated value in
  ``ceil(width / 8)`` little-endian bytes
  (`/root/reference/src/Parquet/Decoder.hs:102-116`; golden vector
  `tests/unit/Parquet/Decoder/Spec.hs:42-44`).
- one bit-packed run = varint header ``(groups << 1) | 1`` + ``groups``
  groups of 8 values packed LSB-first (`Decoder.hs:83-99, 119-135`).
- the reference's ``decodeRLEBPHybrid`` decodes exactly ONE run per page
  (`Decoder.hs:119-135`, no loop) — a reference quirk. Our decoder
  implements the full spec-correct multi-run loop (a strict superset; the
  reference's golden vectors are single-run so parity holds), and our
  encoder may emit multi-run streams.

Encoder (the reference has none): :func:`encode_hybrid` takes its run
layout from :func:`.hybrid_columnar.long_runs`, the one run rule it
shares with the blob store's columnar hybrid — runs of at least
``RLE_MIN_RUN`` equal values become RLE runs, the values between them one
bit-packed span, 8-aligned by stealing up to 7 values from the head of
the following run.  Every span is gathered into one array and packed by
ONE :func:`pack_bits_le` call; the payload is cut at ``groups * width``
byte offsets, so the Python loop (over the RLE runs only) just joins
headers, run values and payload slices.  The terminal span is
zero-padded and the decoder truncates it via ``n_values``.  Values are
encoded in their own integer dtype (no widening copy): the bytes depend
only on the values and ``width``.
"""

from __future__ import annotations

import numpy as np

from .bitpack import pack_bits_le, unpack_bits_le
from .hybrid_columnar import _ragged_indices, long_runs
from .varint import decode_varint, encode_varint


def _fixed_width_bytes(width: int) -> int:
    """ceil(width/8) — reference `Decoder.hs:110-111`."""
    return (width + 7) // 8


def decode_rle_run(data: bytes, width: int, run_len: int, pos: int = 0) -> tuple[np.ndarray, int]:
    """Reference ``decodeRLE`` (`Decoder.hs:102-116`): read one value in
    ``ceil(width/8)`` LE bytes, replicate ``run_len`` times."""
    nb = _fixed_width_bytes(width)
    value = int.from_bytes(data[pos : pos + nb], "little")
    return np.full(run_len, value, dtype=np.uint64), pos + nb


def encode_hybrid(values: np.ndarray, width: int) -> bytes:
    """Encode ``values`` (non-negative, < 2**width, any integer dtype) as
    a multi-run RLE/bit-packed hybrid stream."""
    n = len(values)
    if n == 0:
        return b""
    if width == 0:
        # all values are zero; a single RLE run with a zero-byte value
        return encode_varint(n << 1)
    nb = _fixed_width_bytes(width)
    bp_lens, starts, ends = long_runs(values)
    # one bit-packed span before each RLE run, then the terminal span
    span_from = np.concatenate([np.zeros(1, np.int64), ends])
    span_lens = np.append(bp_lens, n - span_from[-1])
    span = values if len(ends) == 0 else values[_ragged_indices(span_from, span_lens)]
    pad = (-len(span)) % 8
    if pad:
        span = np.concatenate([span, np.zeros(pad, dtype=span.dtype)])
    payload = pack_bits_le(span, width)
    groups = ((span_lens + 7) // 8).tolist()
    parts: list[bytes] = []
    cut = 0
    for g, run, value in zip(groups, (ends - starts).tolist(), values[starts].tolist()):
        if g:
            parts += (encode_varint((g << 1) | 1), payload[cut:cut + g * width])
            cut += g * width
        parts += (encode_varint(run << 1), value.to_bytes(nb, "little"))
    if groups[-1]:
        parts += (encode_varint((groups[-1] << 1) | 1), payload[cut:])
    return b"".join(parts)


def decode_hybrid(
    data: bytes, width: int, n_values: int, pos: int = 0, dtype=np.uint64
) -> tuple[np.ndarray, int]:
    """Decode a multi-run RLE/BP hybrid stream of exactly ``n_values``
    values. Spec-correct superset of reference ``decodeRLEBPHybrid``
    (`Decoder.hs:119-135`); the final bit-packed group's zero padding is
    truncated (matching the reference's ``take num_values``).

    One Python walk reads the run headers: RLE runs fill by slice
    assignment, bit-packed runs only record their payload span.  The
    spans are then joined and unpacked in ONE :func:`unpack_bits_le`
    call at the stream's width and scattered into place, so a level
    stream with a bit-packed group at every row boundary costs one
    unpack, not one per group.  A run whose bytes pass the end of
    ``data`` raises ``ValueError`` naming the byte offset."""
    out = np.empty(n_values, dtype=dtype)
    filled = 0
    nb = _fixed_width_bytes(width)
    end = len(data)
    bp_out: list[int] = []  # per bit-packed run: first output slot,
    bp_in: list[int] = []  # payload byte offset,
    bp_groups: list[int] = []  # and groups of 8 values
    while filled < n_values:
        header, pos = decode_varint(data, pos)
        if header & 1:
            groups = header >> 1
            nbytes = groups * width
            if nbytes > end - pos:
                raise ValueError(
                    f"RLE/BP hybrid stream: bit-packed run at byte {pos} needs "
                    f"{nbytes} payload bytes, {end - pos} remain")
            bp_out.append(filled)
            bp_in.append(pos)
            bp_groups.append(groups)
            filled = min(filled + 8 * groups, n_values)
            pos += nbytes
        else:
            run = header >> 1
            if nb > end - pos:
                raise ValueError(
                    f"RLE/BP hybrid stream: RLE run value at byte {pos} needs "
                    f"{nb} bytes, {end - pos} remain")
            value = int.from_bytes(data[pos : pos + nb], "little")
            pos += nb
            if run > n_values - filled:
                raise ValueError("RLE run overruns n_values")
            out[filled : filled + run] = value
            filled += run
    if len(bp_out) == 1:
        vals, _ = unpack_bits_le(data, width, 8 * bp_groups[0], bp_in[0], dtype=out.dtype)
        take = min(len(vals), n_values - bp_out[0])
        out[bp_out[0] : bp_out[0] + take] = vals[:take]
    elif bp_out:
        payload = b"".join(data[p : p + g * width] for p, g in zip(bp_in, bp_groups))
        vals, _ = unpack_bits_le(payload, width, 8 * sum(bp_groups), 0, dtype=out.dtype)
        starts = np.asarray(bp_out, dtype=np.int64)
        lens = 8 * np.asarray(bp_groups, dtype=np.int64)
        lens[-1] = min(lens[-1], n_values - starts[-1])  # only the last run truncates
        out[_ragged_indices(starts, lens)] = vals[: int(lens.sum())]
    return out, pos


def decode_hybrid_single_run(data: bytes, width: int, n_values: int, pos: int = 0) -> tuple[np.ndarray, int]:
    """Bit-exact port of the reference's single-run ``decodeRLEBPHybrid``
    (`/root/reference/src/Parquet/Decoder.hs:119-135`): reads varint header,
    decodes ONE run (RLE or BP), truncates BP output to ``n_values``."""
    header, pos = decode_varint(data, pos)
    if header & 1:
        vals, pos = unpack_bits_le(data, width, 8 * (header >> 1), pos)
        return vals[:n_values], pos
    run = header >> 1
    vals, pos = decode_rle_run(data, width, run, pos)
    return vals, pos
