"""Encoded-block format: recursive Arrow-array frames inside a table blob.

Our analogue of the reference's column-chunk/page model
(`/root/reference/src/Parquet/Types/ColumnChunk.hs:33-49`,
`Types/PageHeader.hs:63-73`): one *blob* per partition holds one frame per
column; a frame is a length-delimited section tree (validity, codec payload,
child frames), every section length-prefixed like
`PageHeader.uncompressed_page_size` (`Types/PageHeader.hs:65`). Instead of
repetition/definition levels we use Arrow's equivalents — validity bitmaps
and list offsets (SURVEY.md §1.2): max_def/max_rep level logic
(`/root/reference/src/Parquet/Stream/Reader.hs:286-306`) collapses to
nesting of LIST frames, and `construct_dict_values`' "nulls consume no
index" rule (`Stream/Reader.hs:163-182`) is preserved structurally — null
slots are zero-filled *before* encoding so indices/values align 1:1 with
slots and validity masks them back out on decode.

Frame node layout::

    u8 kind           (0=fixed primitive, 1=variable binary, 2=list, 3=bool)
    varint n
    varint null_count
    [ceil(n/8) validity bytes, Arrow LSB-first, iff null_count > 0]
    kind 0/3: u8 codec_id | varint payload_len | payload
    kind 1:   u8 codec_id | varint payload_len | payload
    kind 2:   u8 codec_id | varint payload_len | lengths payload | child frame

Table blob layout::

    b"PHR1" | u16 version | u32 schema_len | schema IPC bytes
    varint n_rows | varint n_cols
    per column: varint name_len | name | varint frame_len | frame

Column pruning at decode = skipping frames by ``frame_len`` (the analogue of
seeking by `ColumnChunk.file_offset`, `/root/reference/src/Parquet/Reader.hs:714-733`).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .codecs.hybrid_columnar import (
    _ragged_indices,
    decode_hybrid_columnar,
    encode_hybrid_columnar,
)
from .codecs.bitpack import bit_width_of
from .codecs.intpack import decode_int, encode_int
from .codecs.plain import decode_binary, decode_plain_fixed, encode_binary, encode_plain_fixed
from .codecs.varint import decode_varint, encode_varint
from .codecs.delta import decode_delta, encode_delta
from .codecs.pfor import decode_pfor, encode_pfor
from .selector import (
    ALP,
    ALPRD,
    BITPACK,
    CODEC_NAMES,
    DELTA,
    DICT,
    FOR,
    FRONT,
    FSST,
    PFOR,
    PLAIN,
    RLE,
    ColumnStats,
    select_binary_codec,
    select_float_codec,
    select_int_codec,
)
from .codecs import alp as alp_codec
from .codecs import front as front_codec
from .codecs import fsst as fsst_codec


def _front_trial_ratio(lens: np.ndarray, raw: bytes) -> "float | None":
    """Measured suffix-bytes ratio of front coding on contiguous row
    WINDOWS spread through the column (adjacent-value locality is what
    the codec exploits, so windows must be consecutive rows — and they
    must cover the whole column, not just the head: a sorted head
    followed by a shuffled tail would otherwise mis-sell FRONT).
    Each window's first row contributes prefix 0 (conservative).
    Returns None when the column is too small/large to bother."""
    n = len(lens)
    if n < 8 or not len(raw) or int(lens.max()) > front_codec.MAX_VALUE_LEN:
        return None
    flat = np.frombuffer(raw, dtype=np.uint8)
    offs = np.cumsum(lens)
    n_win, win = 8, 256
    if n <= n_win * win:
        spans = [(0, n)]
    else:
        step = n // n_win
        spans = [(i * step, i * step + win) for i in range(n_win)]
    pre = tot = 0
    for s, e in spans:
        lo = int(offs[s - 1]) if s else 0
        hi = int(offs[e - 1])
        if hi == lo:
            continue
        pre += int(front_codec.front_prefix_lens(
            lens[s:e], flat[lo:hi]).sum())
        tot += hi - lo
    return 1.0 - pre / tot if tot else None

MAGIC = b"PHR1"
VERSION = 1

_KIND_FIXED, _KIND_BINARY, _KIND_LIST, _KIND_BOOL = 0, 1, 2, 3
_KIND_STRUCT, _KIND_FSL, _KIND_NULL = 4, 5, 6


def _phys_dtype(t: pa.DataType) -> np.dtype:
    """Numpy dtype of the physical (storage) values of a fixed-width type."""
    if pa.types.is_timestamp(t) or pa.types.is_time64(t) or pa.types.is_duration(t) or pa.types.is_date64(t):
        return np.dtype(np.int64)
    if pa.types.is_date32(t) or pa.types.is_time32(t):
        return np.dtype(np.int32)
    return np.dtype(t.to_pandas_dtype())


def _is_int_like(t: pa.DataType) -> bool:
    return (
        pa.types.is_integer(t)
        or pa.types.is_timestamp(t)
        or pa.types.is_date(t)
        or pa.types.is_time(t)
        or pa.types.is_duration(t)
    )


def _validity_np(arr: pa.Array) -> np.ndarray:
    return pc.is_valid(arr).to_numpy(zero_copy_only=False)


def _fixed_values_np(arr: pa.Array, valid: np.ndarray | None) -> np.ndarray:
    """Physical values of a fixed-width array, null slots zeroed."""
    dt = _phys_dtype(arr.type)
    buf = arr.buffers()[1]
    vals = np.frombuffer(buf, dtype=dt, count=len(arr), offset=arr.offset * dt.itemsize)
    if valid is not None:
        vals = vals.copy()
        vals[~valid] = 0
    return vals


def _binary_parts(arr: pa.Array, valid: np.ndarray | None) -> tuple[np.ndarray, bytes]:
    """(lengths int64 with nulls as 0, contiguous data bytes) of a
    string/binary array — vectorized, offset- and gap-safe."""
    n = len(arr)
    off_dt = np.int64 if (pa.types.is_large_string(arr.type) or pa.types.is_large_binary(arr.type)) else np.int32
    offs = np.frombuffer(arr.buffers()[1], dtype=off_dt, count=n + 1, offset=arr.offset * np.dtype(off_dt).itemsize)
    lens = (offs[1:] - offs[:-1]).astype(np.int64)
    if valid is not None:
        lens = lens.copy()
        lens[~valid] = 0
    data_buf = arr.buffers()[2]
    data_np = np.frombuffer(data_buf, dtype=np.uint8) if data_buf is not None else np.empty(0, np.uint8)
    start, end = int(offs[0]), int(offs[-1])
    total = int(lens.sum())
    if total == end - start:
        raw = data_np[start:end].tobytes()
    else:  # null slots with non-zero extents: gather only live bytes
        idx = _ragged_indices(offs[:-1].astype(np.int64), lens)
        raw = data_np[idx].tobytes()
    return lens, raw


def _sample_binary(lens: np.ndarray, raw: bytes, max_vals: int = 512) -> list[bytes]:
    n = len(lens)
    if n == 0:
        return []
    stride = max(1, n // max_vals)
    offs = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(lens)])
    out = []
    for i in range(0, n, stride):
        out.append(raw[offs[i] : offs[i + 1]])
        if len(out) >= max_vals:
            break
    return out


def _dict_encode_np(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hash-based dictionary encode (order of first appearance) via Arrow —
    O(n), unlike np.unique's argsort."""
    denc = pc.dictionary_encode(pa.array(vals))
    uniq = denc.dictionary.to_numpy(zero_copy_only=False).astype(vals.dtype, copy=False)
    inv = denc.indices.to_numpy(zero_copy_only=False).astype(np.uint32)
    return uniq, inv


def _encode_dict_payload(vals: np.ndarray) -> bytes:
    """Numeric DICT payload: varint cardinality, varint dictionary byte
    length, the plain dictionary, then hybrid-packed indexes."""
    uniq, inv = _dict_encode_np(vals)
    width = bit_width_of(len(uniq) - 1) if len(uniq) > 1 else 0
    return (
        encode_varint(len(uniq))
        + encode_varint(uniq.nbytes)
        + encode_plain_fixed(uniq)
        + encode_hybrid_columnar(inv, width)
    )


def _decode_dict_payload(data: bytes, pos: int, dt: np.dtype) -> tuple[np.ndarray, int]:
    card, pos = decode_varint(data, pos)
    nbytes, pos = decode_varint(data, pos)
    uniq = np.frombuffer(data, dtype=dt, count=card, offset=pos)
    pos += nbytes
    inv, pos = decode_hybrid_columnar(data, pos, dtype=np.uint32)
    return uniq[inv], pos


def _encode_int_payload(vals: np.ndarray, codec: int) -> bytes:
    if codec == PLAIN:
        return encode_plain_fixed(vals)
    if codec == PFOR:
        return encode_pfor(vals)
    if codec == DELTA:
        return encode_delta(vals)
    if codec == DICT:
        return _encode_dict_payload(vals)
    if codec == FOR:
        return encode_int(vals)
    raise ValueError(f"codec {CODEC_NAMES.get(codec, codec)} cannot encode integers")


def _decode_int_payload(data: bytes, pos: int, codec: int, dt: np.dtype, n: int) -> tuple[np.ndarray, int]:
    if codec == PLAIN:
        vals, pos = decode_plain_fixed(data, dt, n, pos)
        return vals, pos
    if codec == PFOR:
        return decode_pfor(data, dt, pos)
    if codec == DELTA:
        return decode_delta(data, dt, pos)
    if codec == DICT:
        return _decode_dict_payload(data, pos, dt)
    return decode_int(data, dt, pos)


def encode_array(arr: pa.Array | pa.ChunkedArray, codec_override: int | None = None) -> tuple[bytes, ColumnStats]:
    """Encode one Arrow array into a frame. Returns (frame bytes, stats).

    ``codec_override`` forces one codec id.  RLE and BITPACK are
    decode-only: blobs may hold them, the encoder writes FOR instead."""
    if codec_override in (RLE, BITPACK):
        raise ValueError(f"codec {CODEC_NAMES[codec_override]} is decode-only")
    parts: list = []
    stats = _frame_parts(arr, codec_override, parts)
    return b"".join(parts), stats


def _frame_parts(arr: pa.Array | pa.ChunkedArray, codec_override: int | None,
                 parts: list) -> ColumnStats:
    """Append the frame of ``arr`` to ``parts`` as its sections, child
    frames inline, so a whole column tree is joined once."""
    if isinstance(arr, pa.ChunkedArray):
        # one chunk is taken as is: combine_chunks() would copy it
        arr = arr.chunk(0) if arr.num_chunks == 1 else arr.combine_chunks()
    n = len(arr)
    nc = arr.null_count
    t = arr.type
    if pa.types.is_null(t):
        # all-null typeless column (a common inference artifact): nothing
        # but the row count on the wire (nc encoded as 0 — nullness is
        # implied by the kind, and NullArray has no validity buffer)
        parts.append(bytes([_KIND_NULL]) + encode_varint(n) + encode_varint(0))
        st = ColumnStats(codec="null")
        st.n, st.null_count = n, n
        return st
    if pa.types.is_map(t):
        # a map is list<struct<key,value>> on the wire; encode through the
        # list+struct machinery, decode_array casts back by schema type
        as_list = arr.cast(pa.list_(pa.struct([pa.field("key", t.key_type),
                                               pa.field("value", t.item_type)])))
        return _frame_parts(as_list, codec_override, parts)
    valid = _validity_np(arr) if nc else None
    at = len(parts)
    parts.append(b"")  # the head, written once the kind is known

    def finish(kind: int, stats: ColumnStats) -> ColumnStats:
        head = bytearray([kind])
        head.extend(encode_varint(n))
        head.extend(encode_varint(nc))
        if nc:
            head.extend(np.packbits(valid, bitorder="little").tobytes())
        parts[at] = head
        stats.n = n
        stats.null_count = nc
        return stats

    def payload_parts(codec: int, payload: bytes) -> None:
        parts.append(bytes([codec]))
        parts.append(encode_varint(len(payload)))
        parts.append(payload)

    if pa.types.is_list(t) or pa.types.is_large_list(t):
        lens = pc.list_value_length(arr)
        lens_np = lens.to_numpy(zero_copy_only=False)
        lens_np = np.nan_to_num(lens_np, nan=0).astype(np.int64) if lens_np.dtype.kind == "f" else lens_np.astype(np.int64)
        if valid is not None:
            lens_np = lens_np.copy()
            lens_np[~valid] = 0
        off_dt = np.int64 if pa.types.is_large_list(t) else np.int32
        offs = np.frombuffer(arr.buffers()[1], dtype=off_dt, count=n + 1, offset=arr.offset * np.dtype(off_dt).itemsize)
        total = int(lens_np.sum())
        child_all = arr.values
        if total == int(offs[-1]) - int(offs[0]):
            child = child_all.slice(int(offs[0]), total)
        else:  # gaps under null slots: gather live child elements
            idx = _ragged_indices(offs[:-1].astype(np.int64), lens_np)
            child = child_all.take(pa.array(idx))
        payload_parts(FOR, encode_int(lens_np))
        child_stats = _frame_parts(child, codec_override, parts)
        stats = ColumnStats(codec=f"list<{child_stats.codec}>")
        stats.predicted = child_stats.predicted
        stats.card_est = child_stats.card_est
        stats.mean_run_est = child_stats.mean_run_est
        stats.min, stats.max = child_stats.min, child_stats.max
        return finish(_KIND_LIST, stats)

    if pa.types.is_struct(t):
        # recursive per-field frames; the reference parses the full nested
        # type universe (Types/Enums.hs:45-109) — we encode it
        child_codecs = [_frame_parts(arr.field(i), codec_override, parts).codec
                        for i in range(t.num_fields)]
        return finish(_KIND_STRUCT, ColumnStats(codec=f"struct<{','.join(child_codecs)}>"))

    if pa.types.is_fixed_size_list(t):
        sz = t.list_size
        child = arr.values.slice(arr.offset * sz, n * sz)
        child_stats = _frame_parts(child, codec_override, parts)
        stats = ColumnStats(codec=f"fsl<{child_stats.codec}>")
        stats.min, stats.max = child_stats.min, child_stats.max
        return finish(_KIND_FSL, stats)

    if pa.types.is_boolean(t):
        vals = arr.cast(pa.uint8())
        vals_np = _fixed_values_np(vals, valid)
        codec, stats = select_int_codec(vals_np) if codec_override is None else (codec_override, ColumnStats(codec=CODEC_NAMES[codec_override]))
        payload_parts(codec, _encode_int_payload(vals_np, codec))
        return finish(_KIND_BOOL, stats)

    if pa.types.is_string(t) or pa.types.is_binary(t) or pa.types.is_large_string(t) or pa.types.is_large_binary(t):
        lens_np, raw = _binary_parts(arr, valid)
        sample = _sample_binary(lens_np, raw)  # the selector's and FSST's one sample
        if codec_override is None:
            codec, stats = select_binary_codec(
                lens_np, len(raw), sample,
                front_ratio=_front_trial_ratio(lens_np, raw))
        else:
            codec, stats = codec_override, ColumnStats(codec=CODEC_NAMES[codec_override])
        if codec == DICT:
            filled = arr if nc == 0 else pc.fill_null(arr, "" if pa.types.is_string(t) or pa.types.is_large_string(t) else b"")
            denc = pc.dictionary_encode(filled)
            dvals = denc.dictionary
            didx = denc.indices.to_numpy(zero_copy_only=False).astype(np.uint32)
            dlens, draw = _binary_parts(dvals, None)
            width = bit_width_of(len(dvals) - 1) if len(dvals) > 1 else 0
            payload = (
                encode_varint(len(dvals))
                + encode_binary(dlens, draw)
                + encode_hybrid_columnar(didx, width)
            )
        elif codec == FSST:
            payload = fsst_codec.encode_fsst(
                lens_np, raw, fsst_codec.table_for_sample(tuple(sample)))
        elif codec == FRONT:
            payload = front_codec.encode_front(lens_np, raw)
        else:
            codec = PLAIN
            payload = encode_binary(lens_np, raw)
        # string min/max over VALID values (pc.min_max skips nulls) so
        # equality/range predicates on string columns can prune via the
        # manifest — binary payloads stay statless (not JSON-safe)
        if (pa.types.is_string(t) or pa.types.is_large_string(t)) and nc < n:
            mm = pc.min_max(arr)
            stats.min = mm["min"].as_py()
            stats.max = mm["max"].as_py()
        payload_parts(codec, payload)
        return finish(_KIND_BINARY, stats)

    # fixed-width primitives
    vals_np = _fixed_values_np(arr, valid)
    if codec_override is not None:
        codec, stats = codec_override, ColumnStats(codec=CODEC_NAMES[codec_override])
    elif _is_int_like(t):
        codec, stats = select_int_codec(vals_np)
    else:
        codec, stats = select_float_codec(vals_np)
    if nc and codec_override is None:
        # the selector saw zero-FILLED null slots (format invariant) so
        # its min/max include the fill sentinel — tighten the manifest
        # stats to the VALID values only (pruning stays exact; a wider
        # range only made it conservative)
        if nc == n:
            stats.min = stats.max = None
        else:
            vv = vals_np[valid]
            mn, mx = vv.min().item(), vv.max().item()
            # NaN stats are not JSON-serializable and prune nothing
            stats.min = None if mn != mn else mn
            stats.max = None if mx != mx else mx
    if vals_np.dtype.kind == "f" and codec not in (PLAIN, DICT, ALP, ALPRD):
        codec = PLAIN
    payload = (
        _encode_int_payload(vals_np, codec)
        if vals_np.dtype.kind in "iu"
        else _encode_float_payload(vals_np, codec)
    )
    payload_parts(codec, payload)
    return finish(_KIND_FIXED, stats)


def _encode_float_payload(vals: np.ndarray, codec: int) -> bytes:
    if codec == ALP:
        # classic ALP: decimal head + scaled ints fed back through the
        # integer codec family (FOR/PFOR/DELTA/bit-pack all apply)
        head, ints = alp_codec.encode_split(vals)
        inner, _ = select_int_codec(ints)
        payload = _encode_int_payload(ints, inner)
        return head + bytes([inner]) + encode_varint(len(payload)) + payload
    if codec == ALPRD:
        return alp_codec.encode_rd(vals)
    if codec == DICT:
        return _encode_dict_payload(vals)
    return encode_plain_fixed(vals)


def _decode_float_payload(data: bytes, pos: int, codec: int, dt: np.dtype, n: int) -> tuple[np.ndarray, int]:
    if codec == ALP:
        e, f, exc_pos, exc_vals, pos = alp_codec.decode_head(data, pos, dt)
        inner = data[pos]
        pos += 1
        _plen, pos = decode_varint(data, pos)
        ints, pos = _decode_int_payload(data, pos, inner, np.dtype(np.int64), n)
        return alp_codec.reconstruct(ints, e, f, exc_pos, exc_vals, dt), pos
    if codec == ALPRD:
        return alp_codec.decode_rd(data, pos, dt, n)
    if codec == DICT:
        return _decode_dict_payload(data, pos, dt)
    return decode_plain_fixed(data, dt, n, pos)


def decode_array(data: bytes, pos: int, t: pa.DataType) -> tuple[pa.Array, int]:
    """Decode one frame back into an Arrow array of type ``t``."""
    if pa.types.is_map(t):
        lt = pa.list_(pa.struct([pa.field("key", t.key_type, nullable=False),
                                 pa.field("value", t.item_type)]))
        tmp, pos = decode_array(data, pos, lt)
        # no cast kernel list->map exists; the physical layouts are identical
        arr = pa.Array.from_buffers(t, len(tmp), [tmp.buffers()[0], tmp.buffers()[1]],
                                    null_count=tmp.null_count, children=[tmp.values])
        return arr, pos
    kind = data[pos]
    pos += 1
    n, pos = decode_varint(data, pos)
    nc, pos = decode_varint(data, pos)
    validity_buf = None
    if nc:
        nbytes = (n + 7) // 8
        validity_buf = pa.py_buffer(data[pos : pos + nbytes])
        pos += nbytes

    if kind == _KIND_LIST:
        codec = data[pos]
        pos += 1
        plen, pos = decode_varint(data, pos)
        lens_np, used = decode_int(data, np.int64, pos)
        if used - pos != plen:
            raise ValueError("list lengths payload size mismatch")
        pos = used
        child, pos = decode_array(data, pos, t.value_type)
        off_dt = np.int64 if pa.types.is_large_list(t) else np.int32
        offs = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(lens_np)]).astype(off_dt)
        arr = pa.Array.from_buffers(
            t, n, [validity_buf, pa.py_buffer(offs)], null_count=nc, children=[child]
        )
        return arr, pos

    if kind == _KIND_NULL:
        return pa.nulls(n), pos

    if kind == _KIND_STRUCT:
        children = []
        for f in t:
            child, pos = decode_array(data, pos, f.type)
            children.append(child)
        arr = pa.Array.from_buffers(t, n, [validity_buf], null_count=nc, children=children)
        return arr, pos

    if kind == _KIND_FSL:
        child, pos = decode_array(data, pos, t.value_type)
        arr = pa.Array.from_buffers(t, n, [validity_buf], null_count=nc, children=[child])
        return arr, pos

    codec = data[pos]
    pos += 1
    plen, pos = decode_varint(data, pos)
    end = pos + plen

    if kind == _KIND_BINARY:
        if codec == DICT:
            card, pos = decode_varint(data, pos)
            dlens, draw, pos = decode_binary(data, pos)
            inv, pos = decode_hybrid_columnar(data, pos, dtype=np.uint32)
            doffs = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(dlens)])
            starts = doffs[:-1]
            idx = _ragged_indices(starts[inv], dlens[inv])
            data_np = np.frombuffer(draw, dtype=np.uint8) if draw else np.empty(0, np.uint8)
            out_raw = data_np[idx]
            out_lens = dlens[inv]
        elif codec == FSST:
            out_lens, out_bytes, pos = fsst_codec.decode_fsst(data, pos)
            out_raw = np.frombuffer(out_bytes, dtype=np.uint8)
        elif codec == FRONT:
            out_lens, out_bytes, pos = front_codec.decode_front(data, pos)
            out_raw = np.frombuffer(out_bytes, dtype=np.uint8)
        else:
            out_lens, raw, pos = decode_binary(data, pos)
            out_raw = np.frombuffer(raw, dtype=np.uint8) if raw else np.empty(0, np.uint8)
        if pos != end:
            raise ValueError(f"binary frame payload size mismatch: {pos} != {end}")
        big = pa.types.is_large_string(t) or pa.types.is_large_binary(t)
        off_dt = np.int64 if big else np.int32
        offs = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(out_lens)]).astype(off_dt)
        arr = pa.Array.from_buffers(
            t, n, [validity_buf, pa.py_buffer(offs), pa.py_buffer(np.ascontiguousarray(out_raw))], null_count=nc
        )
        return arr, pos

    # fixed / bool
    dt = np.dtype(np.uint8) if kind == _KIND_BOOL else _phys_dtype(t)
    if dt.kind in "iu":
        vals, pos = _decode_int_payload(data, pos, codec, dt, n)
    else:
        vals, pos = _decode_float_payload(data, pos, codec, dt, n)
    if pos != end:
        raise ValueError(f"frame payload size mismatch: {pos} != {end}")
    if kind == _KIND_BOOL:
        bitmap = np.packbits(vals.astype(bool), bitorder="little")
        arr = pa.Array.from_buffers(pa.bool_(), n, [validity_buf, pa.py_buffer(bitmap)], null_count=nc)
        return arr, pos
    arr = pa.Array.from_buffers(
        t, n, [validity_buf, pa.py_buffer(np.ascontiguousarray(vals))], null_count=nc
    )
    return arr, pos


def encode_table(table: pa.Table) -> tuple[bytes, dict[str, ColumnStats]]:
    """Encode a table into one blob. Returns (blob, {col: stats})."""
    from .memtune import ensure_process_tuned

    ensure_process_tuned()
    schema_bytes = table.schema.serialize().to_pybytes()
    parts = [MAGIC, VERSION.to_bytes(2, "little"), len(schema_bytes).to_bytes(4, "little"), schema_bytes]
    parts.append(encode_varint(table.num_rows))
    parts.append(encode_varint(table.num_columns))
    stats: dict[str, ColumnStats] = {}
    for name in table.column_names:
        frame, st = encode_array(table[name])
        nb = name.encode()
        parts.append(encode_varint(len(nb)))
        parts.append(nb)
        parts.append(encode_varint(len(frame)))
        parts.append(frame)
        stats[name] = st
    return b"".join(parts), stats


def blob_schema(blob: bytes) -> pa.Schema:
    """Read the Arrow schema embedded in a blob's header without decoding
    any column frame (the schema is length-prefixed right after the magic)."""
    if blob[:4] != MAGIC:
        raise ValueError("bad magic")
    schema_len = int.from_bytes(blob[6:10], "little")
    return pa.ipc.read_schema(pa.py_buffer(blob[10 : 10 + schema_len]))


def blob_num_rows(blob: bytes) -> int:
    """Row count from a blob's header, without decoding any column frame
    (the varint right after the schema)."""
    if blob[:4] != MAGIC:
        raise ValueError("bad magic")
    return decode_varint(blob, 10 + int.from_bytes(blob[6:10], "little"))[0]


def decode_table(blob: bytes, columns: list[str] | None = None) -> pa.Table:
    """Decode a blob back to an Arrow table; ``columns`` prunes frames
    without decoding them (length-delimited skip). Unknown names in
    ``columns`` raise ``KeyError`` early (from the embedded schema) rather
    than silently yielding a table missing those columns."""
    from .memtune import ensure_process_tuned

    ensure_process_tuned()
    if blob[:4] != MAGIC:
        raise ValueError("bad magic")
    pos = 4 + 2
    schema_len = int.from_bytes(blob[6:10], "little")
    pos = 10
    schema = pa.ipc.read_schema(pa.py_buffer(blob[pos : pos + schema_len]))
    pos += schema_len
    if columns is not None:
        unknown = [c for c in columns if c not in schema.names]
        if unknown:
            raise KeyError(
                f"unknown columns {unknown!r}; blob schema has {schema.names!r}"
            )
    n_rows, pos = decode_varint(blob, pos)
    n_cols, pos = decode_varint(blob, pos)
    names, arrays = [], []
    for _ in range(n_cols):
        nlen, pos = decode_varint(blob, pos)
        name = blob[pos : pos + nlen].decode()
        pos += nlen
        flen, pos = decode_varint(blob, pos)
        if columns is not None and name not in columns:
            pos += flen
            continue
        arr, used = decode_array(blob, pos, schema.field(name).type)
        if used - pos != flen:
            raise ValueError(f"frame length mismatch for {name}")
        pos = used
        names.append(name)
        arrays.append(arr)
    return pa.table(arrays, names=names)
