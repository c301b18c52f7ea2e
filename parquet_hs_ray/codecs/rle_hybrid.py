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
the following run.  The terminal span is zero-padded and the decoder
truncates it via ``n_values``.  The Python-level loop is over the RLE
runs only, so short-run data costs O(1) Python operations regardless of
size.
"""

from __future__ import annotations

import numpy as np

from .bitpack import _as_unsigned, pack_bits_le, unpack_bits_le
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
    """Encode ``values`` (non-negative, < 2**width) as a multi-run
    RLE/bit-packed hybrid stream."""
    n = len(values)
    if n == 0:
        return b""
    values = _as_unsigned(values, width)
    nb = _fixed_width_bytes(width)
    if width == 0:
        # all values are zero; a single RLE run with a zero-byte value
        return encode_varint(n << 1)

    parts: list[bytes] = []

    def emit_rle(value: int, run: int) -> None:
        parts.append(encode_varint(run << 1))
        parts.append(int(value).to_bytes(nb, "little"))

    def emit_bp(span: np.ndarray, terminal: bool) -> None:
        m = len(span)
        if m == 0:
            return
        pad = (-m) % 8
        if pad:
            if not terminal:
                raise AssertionError("non-terminal bit-packed span must be 8-aligned")
            span = np.concatenate([span, np.zeros(pad, dtype=span.dtype)])
        groups = len(span) // 8
        parts.append(encode_varint((groups << 1) | 1))
        parts.append(pack_bits_le(span, width))

    pos = 0
    for bp_len, s, e in zip(*(a.tolist() for a in long_runs(values))):
        emit_bp(values[pos:pos + bp_len], terminal=False)
        emit_rle(int(values[s]), e - s)
        pos = e
    emit_bp(values[pos:], terminal=True)
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


def encode_rle_only(values: np.ndarray, width: int) -> bytes:
    """Pure-RLE stream (every maximal run becomes an RLE run). Best for
    constant / long-run columns; decodable by :func:`decode_hybrid`."""
    n = len(values)
    if n == 0:
        return b""
    values = _as_unsigned(values, width)
    if width == 0:
        return encode_varint(n << 1)
    nb = _fixed_width_bytes(width)
    boundaries = np.flatnonzero(values[1:] != values[:-1]) + 1
    starts = np.concatenate([np.zeros(1, dtype=np.int64), boundaries])
    ends = np.concatenate([boundaries, np.asarray([n], dtype=np.int64)])
    run_vals = values[starts]
    run_lens = ends - starts
    parts = []
    for v, r in zip(run_vals.tolist(), run_lens.tolist()):
        parts.append(encode_varint(r << 1))
        parts.append(int(v).to_bytes(nb, "little"))
    return b"".join(parts)
