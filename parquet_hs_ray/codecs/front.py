"""FRONT codec: incremental (front) coding for variable-length binary —
the idea behind Parquet's DELTA_BYTE_ARRAY encoding (prefix lengths +
suffixes; reference models only PLAIN/dict BYTE_ARRAY,
/root/reference/src/Parquet/Stream/Reader.hs:205-209): each value stores
the byte length of its common prefix with the PREVIOUS value and only
the remaining suffix bytes.  Sorted or clustered string columns (ids,
paths, URLs, date-strings) collapse to a few bytes per row.

Both directions are fully vectorized over padded byte matrices — no
per-row Python — and both process the column in ROW CHUNKS whose
matrix working set is bounded (``_CHUNK_BYTES``), with each chunk's
width set by ITS OWN longest value: one 4 KB outlier in a column of
12-byte ids widens only its own chunk instead of inflating an
n x max_len matrix (the naive layout is O(n * global_max) memory and
time).  Chunks carry a one-row overlap (encode: the previous value for
the boundary lcp; decode: the previous RECONSTRUCTED value, which owns
every inherited column).

- encode: scatter fill, adjacent-row ``==`` compare, per-row ``cumprod``
  prefix run, ragged suffix gather;
- decode: suffix scatter + per-COLUMN inheritance — for column j the
  authoritative byte of row i lives in the nearest row r <= i with
  ``prefix_len[r] <= j`` (it wrote its own byte there), found with one
  ``np.maximum.accumulate`` per column.

Layout: ``varint(n)`` + FOR-encoded prefix lens + FOR-encoded suffix
lens + ``varint(raw_len)`` + suffix bytes.
"""

from __future__ import annotations

import numpy as np

from .intpack import decode_int, encode_int
from .varint import decode_varint, encode_varint

#: hard cap on a single value's length: past this the padded-matrix
#: kernels stop being reasonable and the codec is refused — the
#: selector never picks FRONT above it.
MAX_VALUE_LEN = 4096

#: matrix working-set budget per row chunk (rows x chunk_max_len bytes)
_CHUNK_BYTES = 1 << 24

_CHUNK_ROWS = 1 << 16


def _iter_chunks(lens: np.ndarray):
    """Yield (start, end, width) row chunks with end-start > 0 and
    (end-start) * width <= _CHUNK_BYTES (width = chunk's own max len;
    a single row is always allowed — MAX_VALUE_LEN bounds its width)."""
    n = len(lens)
    s = 0
    while s < n:
        e = min(n, s + _CHUNK_ROWS)
        while True:
            w = int(lens[s:e].max()) if e > s else 0
            if w == 0 or (e - s) * w <= _CHUNK_BYTES or e == s + 1:
                break
            e = s + max(1, (e - s) // 2)
        yield s, e, w
        s = e


def _fill_matrix(m: np.ndarray, row0: int, lens: np.ndarray,
                 starts: np.ndarray, flat: np.ndarray, width: int) -> None:
    """Scatter each row's first min(len, width) bytes into matrix rows
    ``row0..`` (rows longer than width are clipped — callers only ever
    need the first ``width`` bytes for comparisons)."""
    cl = np.minimum(lens, width)
    total = int(cl.sum())
    if not total:
        return
    rows = row0 + np.repeat(np.arange(len(cl), dtype=np.int64), cl)
    cols = (np.arange(total, dtype=np.int64)
            - np.repeat(np.cumsum(cl) - cl, cl))
    m[rows, cols] = flat[cols + np.repeat(starts, cl)]


def front_prefix_lens(lens: np.ndarray, raw: bytes | np.ndarray
                      ) -> np.ndarray:
    """Common-prefix length of each value with its predecessor (first
    value: 0).  Shared by the encoder and the selector's trial."""
    n = len(lens)
    lens = np.ascontiguousarray(lens, dtype=np.int64)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    flat = np.frombuffer(raw, dtype=np.uint8) if isinstance(
        raw, (bytes, bytearray, memoryview)) else raw.astype(np.uint8)
    starts = np.cumsum(lens) - lens
    out = np.zeros(n, dtype=np.int64)
    for s, e, w in _iter_chunks(lens):
        if w == 0:
            continue
        lo = s - 1 if s > 0 else s  # overlap row for the boundary pair
        m = np.zeros((e - lo, w), dtype=np.uint8)
        _fill_matrix(m, 0, lens[lo:e], starts[lo:e], flat, w)
        eq = m[1:] == m[:-1]
        run = (np.cumprod(eq, axis=1, dtype=np.uint8).sum(axis=1)
               .astype(np.int64))
        lcp = np.minimum(run, np.minimum(lens[lo + 1:e], lens[lo:e - 1]))
        out[lo + 1:e] = lcp
    return out


def encode_front(lens: np.ndarray, raw: bytes | np.ndarray) -> bytes:
    """Front-code a ragged binary column (nulls must be length 0)."""
    lens = np.ascontiguousarray(lens, dtype=np.int64)
    n = len(lens)
    max_len = int(lens.max()) if n else 0
    if max_len > MAX_VALUE_LEN:
        raise ValueError(
            f"front coding caps value length at {MAX_VALUE_LEN} bytes, "
            f"got {max_len}")
    flat = np.frombuffer(raw, dtype=np.uint8) if isinstance(
        raw, (bytes, bytearray, memoryview)) else raw.astype(np.uint8)
    plens = front_prefix_lens(lens, flat)
    slens = lens - plens
    starts = (np.cumsum(lens) - lens) + plens
    idx = (np.arange(int(slens.sum()), dtype=np.int64)
           - np.repeat(np.cumsum(slens) - slens, slens)
           + np.repeat(starts, slens)) if n else np.zeros(0, np.int64)
    sfx = flat[idx].tobytes()
    enc_p = encode_int(plens)
    enc_s = encode_int(slens)
    return (encode_varint(n)
            + encode_varint(len(enc_p)) + enc_p
            + encode_varint(len(enc_s)) + enc_s
            + encode_varint(len(sfx)) + sfx)


def decode_front(data: bytes, pos: int = 0
                 ) -> tuple[np.ndarray, bytes, int]:
    """Inverse of :func:`encode_front`: returns (lens, raw bytes, pos)."""
    n, pos = decode_varint(data, pos)
    p_len, pos = decode_varint(data, pos)
    plens, used = decode_int(data, np.int64, pos)
    if used - pos != p_len:
        raise ValueError("front prefix-lens section size mismatch")
    pos = used
    s_len, pos = decode_varint(data, pos)
    slens, used = decode_int(data, np.int64, pos)
    if used - pos != s_len:
        raise ValueError("front suffix-lens section size mismatch")
    pos = used
    raw_len, pos = decode_varint(data, pos)
    sfx = np.frombuffer(data[pos:pos + raw_len], dtype=np.uint8)
    pos += raw_len
    if len(plens) != n or len(slens) != n:
        raise ValueError("front length sections row-count mismatch")
    if n == 0:
        return np.zeros(0, dtype=np.int64), b"", pos
    if (slens < 0).any():
        raise ValueError("front suffix lens must be non-negative")
    if len(sfx) != int(slens.sum()):
        raise ValueError("front suffix byte count mismatch")
    lens = plens + slens
    if plens[0] != 0 or (plens[1:] > lens[:-1]).any() or (plens < 0).any():
        raise ValueError("front prefix lens violate the chain invariant")
    if int(lens.max()) > MAX_VALUE_LEN:
        raise ValueError("front value length exceeds codec cap")

    out = np.empty(int(lens.sum()), dtype=np.uint8)
    out_starts = np.cumsum(lens) - lens
    s_starts = np.cumsum(slens) - slens
    prev = np.zeros(0, dtype=np.uint8)  # previous RECONSTRUCTED value
    for s, e, w in _iter_chunks(lens):
        if w == 0:
            continue
        k = e - s
        m = np.zeros((k + 1, w), dtype=np.uint8)
        m[0, :min(len(prev), w)] = prev[:w]
        # suffix bytes for rows s..e at columns [plens, lens)
        cs = slens[s:e]
        rows = 1 + np.repeat(np.arange(k, dtype=np.int64), cs)
        cols = (np.arange(int(cs.sum()), dtype=np.int64)
                - np.repeat(np.cumsum(cs) - cs, cs)
                + np.repeat(plens[s:e], cs))
        m[rows, cols] = sfx[s_starts[s]:s_starts[s] + int(cs.sum())]
        # inherit: per column j, nearest row above with plens <= j wrote
        # its own byte there; the overlap row 0 (plens -1 -> always owns)
        pl = np.concatenate([[-1], plens[s:e]])
        ridx = np.arange(k + 1, dtype=np.int64)
        for j in range(w):
            owners = np.maximum.accumulate(np.where(pl <= j, ridx, -1))
            col = m[:, j]
            col[:] = col[owners]
        ls = lens[s:e]
        gather = (np.arange(int(ls.sum()), dtype=np.int64)
                  - np.repeat(np.cumsum(ls) - ls, ls)
                  + np.repeat((1 + np.arange(k, dtype=np.int64)) * w, ls))
        out[out_starts[s]:out_starts[s] + int(ls.sum())] = \
            m.reshape(-1)[gather]
        prev = m[k, :lens[e - 1]]
    return lens, out.tobytes(), pos
