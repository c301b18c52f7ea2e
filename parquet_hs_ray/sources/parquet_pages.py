"""Minimal real-Parquet page decoder — the reference-parity path.

Re-implements, on top of our bit-level kernels, exactly the slice of the
Parquet format the reference decodes (and nothing more), so that the
reference's committed golden file decodes bit-identically through OUR
kernels:

- thrift compact-protocol struct reader for ``PageHeader`` /
  ``DataPageHeader`` / ``DictionaryPageHeader`` — the analogue of
  ``decodeConduit`` (`/root/reference/src/Parquet/Stream/Reader.hs:380-393`)
  over the structs in `/root/reference/src/Parquet/Types/PageHeader.hs:23-73`.
  Column-chunk location comes from our own thrift footer parser
  (`parquet_footer.py`; the reference's `readMetadata`,
  `Reader.hs:197-213`).
- page loop per column chunk: dictionary page then data pages
  (`readPage`, `Stream/Reader.hs:340-372`; unlike the reference's
  single-data-page quirk at `:364-367` we loop).
- level decode: RLE levels = u32-LE length prefix + RLE/BP hybrid runs
  (`decodeLevel`, `Stream/Reader.hs:264-282`), bit width from the max
  level (`maxLevelToBitWidth`, `:67-70`).
- values: PLAIN INT64 / BYTE_ARRAY (`decodeValue`, `:190-209`) and
  PLAIN_DICTIONARY (1-byte bit width + hybrid indexes, `:148-155`);
  nulls consume no index (`construct_dict_values`, `:163-182`).
- record assembly to Arrow from rep/def levels — the Dremel inverse
  (`generateInstructions`/`mkInstructions`, `/root/reference/src/Parquet/
  Reader.hs:369-537`) generalized to vectorized offset/validity
  construction over ARBITRARY schema trees (`_construct_node`): lists,
  large lists, structs, maps and any interleaving — strictly more than
  the reference's list fixture.

Scope STARTED as the reference's — PLAIN / PLAIN_DICTIONARY, INT64 /
BYTE_ARRAY leaves — and is now a strict superset on every axis the
reference errors on:

- compression: SNAPPY / GZIP / ZSTD / BROTLI / LZ4_RAW pages
  decompress via pyarrow's bundled codecs, and the deprecated
  Hadoop-framed LZ4 (codec id 5) via `_HadoopLz4Codec` with
  parquet-cpp's raw-block fallback (the reference rejects everything
  but UNCOMPRESSED, `validateCompression`, Stream/Reader.hs:316-322,
  but enumerates all of these ids, `Enums.hs:34-42`).
- physical types: ALL of them — INT32 / FLOAT / DOUBLE / BOOLEAN,
  FIXED_LEN_BYTE_ARRAY (decimal128 big-endian two's-complement,
  fixed-size binary, float16) and deprecated INT96 timestamps
  (Julian-day + nanos-of-day → epoch ns), where the reference errors
  with "Don't know how to decode value of type ... yet"
  (Stream/Reader.hs:205-209).
- value encodings: DELTA_BINARY_PACKED / DELTA_LENGTH_BYTE_ARRAY /
  DELTA_BYTE_ARRAY (declared in the reference's enum universe,
  Types/Enums.hs:70-79, never implemented there), BYTE_STREAM_SPLIT
  (fixed-width AND FLBA), and boolean RLE value pages.
- record shapes: nested struct trees, list<struct>, struct<list>, maps
  and deeper interleavings assemble through the general Dremel inverse
  (fuzzed vs pyarrow); the reference's machinery handles only its own
  3-level list fixture.
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa

from ..codecs.bitpack import unpack_bits_le
from ..codecs.rle_hybrid import decode_hybrid
from ..codecs.varint import decode_varint, zigzag_decode

# thrift compact type ids
_CT_STOP = 0


def _read_compact_struct(buf: bytes, pos: int, what: str = "struct"
                         ) -> tuple[dict[int, object], int]:
    """Decode one thrift compact struct into {field_id: value}: the one
    thrift reader of page headers, footers, page indexes and Bloom
    headers.  Bad input — truncated, or a type outside the compact
    protocol — raises ``ValueError`` naming ``what`` and the struct's
    byte offset."""
    try:
        return _compact_struct(buf, pos)
    except (IndexError, ValueError) as e:
        why = "truncated" if isinstance(e, IndexError) else str(e)
        raise ValueError(
            f"thrift {what} at byte {pos} of {len(buf)}: {why}") from None


def _compact_struct(buf: bytes, pos: int) -> tuple[dict[int, object], int]:
    """The recursive walk behind :func:`_read_compact_struct`."""
    fields: dict[int, object] = {}
    last_id = 0
    while True:
        byte = buf[pos]
        pos += 1
        if byte == _CT_STOP:
            return fields, pos
        delta = byte >> 4
        ctype = byte & 0x0F
        if delta:
            fid = last_id + delta
        else:
            zz, pos = decode_varint(buf, pos)
            fid = zigzag_decode(zz)
        last_id = fid
        if ctype in (1, 2):  # BOOLEAN_TRUE / BOOLEAN_FALSE
            fields[fid] = ctype == 1
        elif ctype == 3:  # BYTE: one raw signed byte, NOT a varint
            fields[fid] = int.from_bytes(buf[pos:pos + 1], "little",
                                         signed=True)
            pos += 1
        elif ctype in (4, 5, 6):  # I16, I32, I64
            zz, pos = decode_varint(buf, pos)
            fields[fid] = zigzag_decode(zz)
        elif ctype == 8:  # BINARY
            ln, pos = decode_varint(buf, pos)
            fields[fid] = buf[pos : pos + ln]
            pos += ln
        elif ctype == 9:  # LIST (footer structs: schema/row_groups/...)
            fields[fid], pos = _read_compact_list(buf, pos)
        elif ctype == 12:  # STRUCT
            fields[fid], pos = _compact_struct(buf, pos)
        else:
            raise ValueError(f"unsupported thrift compact type {ctype} (field {fid})")


def _read_compact_list(buf: bytes, pos: int) -> tuple[list, int]:
    """Thrift compact list: header byte (size<<4 | elem_type, size 0xF
    means varint size follows), then the elements."""
    header = buf[pos]
    pos += 1
    n = header >> 4
    etype = header & 0x0F
    if n == 0xF:
        n, pos = decode_varint(buf, pos)
    out = []
    for _ in range(n):
        if etype in (1, 2):  # bool list elements carry a full byte
            out.append(buf[pos] == 1)
            pos += 1
        elif etype == 3:  # BYTE elements are raw bytes
            out.append(int.from_bytes(buf[pos:pos + 1], "little",
                                      signed=True))
            pos += 1
        elif etype in (4, 5, 6):
            zz, pos = decode_varint(buf, pos)
            out.append(zigzag_decode(zz))
        elif etype == 8:
            ln, pos = decode_varint(buf, pos)
            out.append(buf[pos : pos + ln])
            pos += ln
        elif etype == 9:
            v, pos = _read_compact_list(buf, pos)
            out.append(v)
        elif etype == 12:
            v, pos = _compact_struct(buf, pos)
            out.append(v)
        else:
            raise ValueError(f"unsupported thrift list element type {etype}")
    return out, pos


_PAGE_DATA, _PAGE_INDEX, _PAGE_DICT, _PAGE_DATA_V2 = 0, 1, 2, 3
_ENC_PLAIN, _ENC_PLAIN_DICT, _ENC_RLE, _ENC_BIT_PACKED = 0, 2, 3, 4
_ENC_RLE_DICT = 8  # same data-page wire format as PLAIN_DICTIONARY
_ENC_DELTA_BP, _ENC_DELTA_LEN_BA, _ENC_DELTA_BA = 5, 6, 7
_ENC_BYTE_STREAM_SPLIT = 9


def _level_dtype(max_level: int) -> np.dtype:
    """The narrowest dtype a level stream decodes into: assembly compares
    and scans 1-byte levels for any schema nested under 255 levels."""
    return np.dtype(np.uint8 if max_level < 256 else np.uint16)


def _decode_levels(buf: bytes, pos: int, n: int, max_level: int,
                   encoding: int = _ENC_RLE) -> tuple[np.ndarray, int]:
    """Level stream: absent (max_level==0) -> zeros (`fill_level_default`,
    Stream/Reader.hs:122-125); else a u32-LE length prefix followed by the
    header-declared encoding — RLE/BP hybrid runs or deprecated BIT_PACKED
    (big-endian groups-of-8, `decodeLevel`, Stream/Reader.hs:264-282; the
    D4 kernel). Unknown level encodings raise, mirroring the reference.
    Levels come back as ``_level_dtype(max_level)``."""
    dtype = _level_dtype(max_level)
    if max_level == 0:
        return np.zeros(n, dtype=dtype), pos
    width = int(max_level).bit_length()
    ln = int.from_bytes(buf[pos : pos + 4], "little")
    pos += 4
    if encoding == _ENC_RLE:
        vals, used = decode_hybrid(buf, width, n, pos, dtype=dtype)
    elif encoding == _ENC_BIT_PACKED:
        from ..codecs.bitpack import decode_bpbe

        vals, used = decode_bpbe(buf, width, pos)
        vals = vals[:n].astype(dtype)  # groups of 8 may overshoot num_values
    else:
        raise ValueError(
            f"unsupported level encoding {encoding} (only RLE and BIT_PACKED, "
            "Stream/Reader.hs:282)"
        )
    if used - pos > ln:
        raise ValueError("level stream overran its length prefix")
    return vals, pos + ln


class ByteArrayValues:
    """Columnar BYTE_ARRAY values: per-value lengths + one contiguous byte
    buffer (never a Python list of bytes). Dictionary gather and Arrow
    construction are single ragged gathers / zero-copy buffer builds."""

    __slots__ = ("lens", "data")

    def __init__(self, lens: np.ndarray, data: np.ndarray):
        self.lens = lens
        self.data = data

    def __len__(self) -> int:
        return len(self.lens)

    def take(self, idx: np.ndarray) -> "ByteArrayValues":
        from ..codecs.hybrid_columnar import _ragged_indices

        offs = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(self.lens)])
        idx = np.asarray(idx, dtype=np.int64)
        lens = self.lens[idx]
        return ByteArrayValues(lens, self.data[_ragged_indices(offs[idx], lens)])

    @staticmethod
    def concat(parts: list["ByteArrayValues"]) -> "ByteArrayValues":
        return ByteArrayValues(
            np.concatenate([p.lens for p in parts]),
            np.concatenate([p.data for p in parts]),
        )

    def to_arrow(self, t: pa.DataType) -> pa.Array:
        n = len(self.lens)
        data = np.ascontiguousarray(self.data)
        if pa.types.is_fixed_size_binary(t):
            return pa.Array.from_buffers(t, n, [None, pa.py_buffer(data)])
        if pa.types.is_decimal128(t):
            # Parquet FLBA *and* variable-length BYTE_ARRAY decimals are
            # big-endian two's-complement (BYTE_ARRAY carriers may use a
            # different minimal width per value — parquet-java/Avro do);
            # Arrow decimal128 storage is 16-byte little-endian.
            # Ragged byte-reverse + sign-extend, all vectorized.
            lens = self.lens.astype(np.int64)
            if n and lens.max() > 16:
                raise ValueError(
                    f"decimal byte width {int(lens.max())} > 16")
            out = np.zeros((n, 16), dtype=np.uint8)
            if n:
                offs = np.concatenate([np.zeros(1, np.int64),
                                       np.cumsum(lens)])
                total = int(offs[-1])
                row = np.repeat(np.arange(n), lens)
                within = np.arange(total) - np.repeat(offs[:-1], lens)
                out[row, np.repeat(lens, lens) - 1 - within] = data[:total]
                neg = np.zeros(n, dtype=bool)
                nz = lens > 0
                neg[nz] = data[offs[:-1][nz]] >= 0x80
                ext = (np.arange(16)[None, :] >= lens[:, None]) & neg[:, None]
                out[ext] = 0xFF
            return pa.Array.from_buffers(t, n, [None, pa.py_buffer(out)])
        if pa.types.is_float16(t):
            # float16 logical type = FLBA(2), little-endian IEEE half
            return pa.array(data.view("<f2"), type=t)
        big = pa.types.is_large_string(t) or pa.types.is_large_binary(t)
        off_dt = np.int64 if big else np.int32
        offsets = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(self.lens)]).astype(off_dt)
        return pa.Array.from_buffers(
            t, n,
            [None, pa.py_buffer(offsets), pa.py_buffer(data)],
        )

    def tolist(self) -> list[bytes]:
        offs = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(self.lens)])
        raw = self.data.tobytes()
        return [raw[offs[i] : offs[i + 1]] for i in range(len(self.lens))]


# PLAIN fixed-width physical types -> (numpy little-endian dtype, bytes).
# The reference only decodes INT64/BYTE_ARRAY and errors on the rest
# ("Don't know how to decode value of type ... yet",
# /root/reference/src/Parquet/Stream/Reader.hs:205-209); supporting the
# remaining primitive widths is a strict superset — real parquet is full
# of INT32/FLOAT/DOUBLE/BOOLEAN columns.
_PLAIN_FIXED = {"INT64": ("<i8", 8), "INT32": ("<i4", 4),
                "FLOAT": ("<f4", 4), "DOUBLE": ("<f8", 8)}


def _decode_plain_values(buf: bytes, pos: int, n: int, physical: str,
                         type_length: int = 0):
    if physical in _PLAIN_FIXED:
        dt, w = _PLAIN_FIXED[physical]
        vals = np.frombuffer(buf, dtype=dt, count=n, offset=pos)
        return vals, pos + w * n
    if physical == "FIXED_LEN_BYTE_ARRAY":
        # Constant-width byte arrays (decimal128 / float16 / UUID carriers):
        # one contiguous slab, widths from the schema's type_length
        if type_length <= 0:
            raise ValueError("FIXED_LEN_BYTE_ARRAY needs a type_length")
        nb = n * type_length
        data = np.frombuffer(buf, dtype=np.uint8, count=nb, offset=pos).copy()
        return ByteArrayValues(np.full(n, type_length, dtype=np.int64),
                               data), pos + nb
    if physical == "INT96":
        # Deprecated 12-byte timestamps (legacy Spark/Impala): 8 bytes
        # little-endian nanos-of-day + 4 bytes little-endian Julian day.
        # Converted here to epoch nanoseconds (what pyarrow reads them as).
        nb = n * 12
        mat = np.frombuffer(buf, dtype=np.uint8, count=nb,
                            offset=pos).reshape(n, 12)
        nanos = np.ascontiguousarray(mat[:, :8]).view("<u8").reshape(n)
        jday = np.ascontiguousarray(mat[:, 8:12]).view("<u4").reshape(n)
        ns = ((jday.astype(np.int64) - 2440588) * 86_400_000_000_000
              + nanos.astype(np.int64))
        return ns, pos + nb
    if physical == "BOOLEAN":
        # PLAIN booleans are bit-packed LSB-first, one bit per value
        nbytes = (n + 7) // 8
        raw = np.frombuffer(buf, dtype=np.uint8, count=nbytes, offset=pos)
        bits = np.unpackbits(raw, bitorder="little")[:n]
        return bits.astype(bool), pos + nbytes
    if physical == "BYTE_ARRAY":
        # boundary scan is inherently sequential in Parquet v1 (each length
        # prefix positions the next); the loop does only that scan — payload
        # movement is one vectorized ragged gather afterwards
        lens = np.empty(n, dtype=np.int64)
        starts = np.empty(n, dtype=np.int64)
        u32 = int.from_bytes
        for i in range(n):
            ln = u32(buf[pos : pos + 4], "little")
            starts[i] = pos + 4
            lens[i] = ln
            pos += 4 + ln
        from ..codecs.hybrid_columnar import _ragged_indices

        data = np.frombuffer(buf, dtype=np.uint8)
        return ByteArrayValues(lens, data[_ragged_indices(starts, lens)]), pos
    raise ValueError(
        f"unsupported physical type {physical} (INT32/INT64/FLOAT/DOUBLE/"
        "BOOLEAN/BYTE_ARRAY/FIXED_LEN_BYTE_ARRAY/INT96)")


def _decode_delta_binary_packed(buf: bytes, pos: int, n: int
                                ) -> tuple[np.ndarray, int]:
    """DELTA_BINARY_PACKED (parquet-format Encodings.md): ULEB128 header
    (block_size, miniblocks_per_block, total_count, zigzag first_value),
    then per block a zigzag min_delta + one bit-width byte per miniblock
    + LSB-bit-packed deltas.  The reference declares the enum
    (`/root/reference/src/Parquet/Types/Enums.hs:70-79`) but never
    implements it — this decode is a strict superset.  Vectorized: one
    Python walk reads the block headers and skips the payloads; the
    miniblocks of each distinct bit width unpack in ONE
    ``unpack_bits_le`` call, ``min_delta`` adds per miniblock and the
    prefix sum is one ``np.cumsum``."""
    from ..codecs.hybrid_columnar import _ragged_indices
    from ..codecs.varint import decode_varint, zigzag_decode

    block_size, pos = decode_varint(buf, pos)
    n_mini, pos = decode_varint(buf, pos)
    total, pos = decode_varint(buf, pos)
    zz, pos = decode_varint(buf, pos)
    first = zigzag_decode(zz)
    if total < n:
        raise ValueError(
            f"delta stream declares {total} values, page needs {n}")
    per_mini = block_size // n_mini if n_mini else 0
    if per_mini <= 0 or per_mini % 8:
        raise ValueError("miniblock size must be a positive multiple of 8")
    widths = bytearray()  # per present miniblock: its bit width,
    starts, min_deltas = [], []  # payload offset and block's min_delta
    remaining = total - 1
    while remaining > 0:
        zz, pos = decode_varint(buf, pos)
        min_delta = zigzag_decode(zz)
        # trailing miniblocks of the last block are ABSENT once all
        # values are produced (writers may also emit them; the
        # count-derived cut matches both)
        present = min(n_mini, -(-remaining // per_mini))
        ws = buf[pos:pos + present]
        at, pos = pos, pos + n_mini
        for w in ws:
            starts.append(pos)
            pos += w * per_mini // 8
        if len(ws) < present or pos > len(buf):
            raise ValueError(
                f"DELTA_BINARY_PACKED block at byte {at} overruns the "
                f"{len(buf)}-byte page")
        widths += ws
        min_deltas += [min_delta] * present
        remaining -= present * per_mini
    if not starts:
        out = np.array([first] if total else [], dtype=np.int64)
        return out[:n], pos
    w = np.frombuffer(bytes(widths), dtype=np.uint8).astype(np.int64)
    nbytes = w * per_mini // 8
    starts = np.asarray(starts, dtype=np.int64)
    raw = np.frombuffer(buf, dtype=np.uint8)
    deltas = np.empty((len(w), per_mini), dtype=np.uint64)
    for width in np.unique(w).tolist():
        sel = np.flatnonzero(w == width)
        payload = raw[_ragged_indices(starts[sel], nbytes[sel])]
        vals, _ = unpack_bits_le(payload, width, per_mini * len(sel),
                                 dtype=np.uint64)
        deltas[sel] = vals.reshape(len(sel), per_mini)
    d = deltas.view(np.int64) + np.asarray(min_deltas, np.int64)[:, None]
    d = d.reshape(-1)[:total - 1]
    out = np.empty(total, dtype=np.int64)
    out[0] = first
    np.cumsum(d, out=out[1:])
    out[1:] += first
    return out[:n], pos


def _decode_delta_length_byte_array(buf: bytes, pos: int, n: int
                                    ) -> tuple["ByteArrayValues", int]:
    """DELTA_LENGTH_BYTE_ARRAY: lengths as DELTA_BINARY_PACKED, then the
    concatenated value bytes."""
    lens, pos = _decode_delta_binary_packed(buf, pos, n)
    total = int(lens.sum())
    data = np.frombuffer(buf, dtype=np.uint8, count=total, offset=pos)
    return ByteArrayValues(lens.astype(np.int64), data.copy()), pos + total


def _decode_delta_byte_array(buf: bytes, pos: int, n: int
                             ) -> tuple["ByteArrayValues", int]:
    """DELTA_BYTE_ARRAY (incremental/front coding): per-value prefix
    lengths (DELTA_BINARY_PACKED) + suffixes (DELTA_LENGTH_BYTE_ARRAY).
    Reconstruction walks values once; suffix payloads move via slices,
    mirroring the FRONT codec's decode shape (codecs/front.py)."""
    prefix_lens, pos = _decode_delta_binary_packed(buf, pos, n)
    suffixes, pos = _decode_delta_length_byte_array(buf, pos, n)
    suf = suffixes.tolist()
    out: list[bytes] = []
    prev = b""
    for i in range(n):
        v = prev[: int(prefix_lens[i])] + suf[i]
        out.append(v)
        prev = v
    lens = np.asarray([len(v) for v in out], dtype=np.int64)
    data = np.frombuffer(b"".join(out), dtype=np.uint8)
    return ByteArrayValues(lens, data.copy()), pos


# page-codec map: one-shot formats with a direct pyarrow block codec.
# LZ4_RAW (codec id 7) is the plain LZ4 block format; legacy LZ4 (id 5)
# is the Hadoop block framing handled by _HadoopLz4Codec below.  The
# reference rejects EVERYTHING but UNCOMPRESSED (validateCompression,
# Stream/Reader.hs:316-322); supporting real codecs is a strict superset.
_PAGE_CODECS = {"SNAPPY": "snappy", "GZIP": "gzip", "ZSTD": "zstd",
                "BROTLI": "brotli", "LZ4_RAW": "lz4_raw"}


class _HadoopLz4Codec:
    """Parquet's deprecated LZ4 (codec id 5): Hadoop block framing —
    repeated ``[u32 BE uncompressed][u32 BE compressed][lz4 block]``
    frames — with parquet-cpp's compatibility fallback of treating the
    whole buffer as ONE plain LZ4 block when the framing does not parse
    (some historical writers emitted raw blocks under codec id 5).
    Mimics the two-method ``pa.Codec`` surface the page loop uses.

    NOT pyarrow's ``lz4`` codec, which is the LZ4 *frame* format and
    reads neither parquet variant."""

    def __init__(self):
        self._raw = pa.Codec("lz4_raw")

    def decompress(self, data, expected: int):
        data = bytes(data)
        out = self._try_hadoop(data, expected)
        if out is None:  # raw-block fallback
            out = self._raw.decompress(data, expected).to_pybytes()
        return pa.py_buffer(out)

    def _try_hadoop(self, data: bytes, expected: int):
        import struct as _st

        parts, pos, total = [], 0, 0
        while pos < len(data):
            if pos + 8 > len(data):
                return None
            n_out, n_comp = _st.unpack_from(">II", data, pos)
            pos += 8
            if pos + n_comp > len(data) or total + n_out > expected:
                return None
            try:
                parts.append(self._raw.decompress(
                    data[pos:pos + n_comp], n_out).to_pybytes())
            except Exception:
                return None
            pos += n_comp
            total += n_out
        if total != expected:
            return None
        return b"".join(parts)

    def compress(self, data):
        import struct as _st

        body = self._raw.compress(bytes(data)).to_pybytes()
        return pa.py_buffer(
            _st.pack(">II", len(bytes(data)), len(body)) + body)


def _page_codec(compression: str):
    """pa.Codec (or equivalent) for a parquet column-chunk compression,
    None for UNCOMPRESSED; unknown/unavailable codecs raise (never
    garbage)."""
    if compression == "UNCOMPRESSED":
        return None
    if compression == "LZ4":
        if not pa.Codec.is_available("lz4_raw"):
            raise ValueError("unsupported compression LZ4")
        return _HadoopLz4Codec()
    name = _PAGE_CODECS.get(compression)
    if name is None or not pa.Codec.is_available(name):
        raise ValueError(f"unsupported compression {compression}")
    return pa.Codec(name)


def _read_range(path: str, start: int, length: int,
                filesystem=None) -> bytes:
    """One ranged read of ``length`` bytes at ``start`` — plain seek on
    local paths, a single ranged GET through any pyarrow filesystem
    (e.g. `state/httpfs.py`) otherwise: the reference's
    ``remoteParquetFile`` access pattern (`Reader.hs:223-248`)."""
    if filesystem is None and "://" not in path:
        with open(path, "rb") as fh:
            fh.seek(start)
            return fh.read(length)
    from ..state import fsio

    fs, p = fsio.resolve(path, filesystem)
    with fs.open_input_file(p) as fh:
        fh.seek(start)
        return fh.read(length)


def _decode_levels_v2(buf: bytes, pos: int, byte_len: int, n: int,
                      max_level: int) -> tuple[np.ndarray, int]:
    """V2 level stream: NO u32 length prefix (the byte length lives in
    DataPageHeaderV2 fields 5/6), always RLE/BP hybrid, and absent
    entirely (byte_len 0) when max_level == 0."""
    dtype = _level_dtype(max_level)
    if max_level == 0:
        return np.zeros(n, dtype=dtype), pos + byte_len
    width = int(max_level).bit_length()
    vals, used = decode_hybrid(buf, width, n, pos, dtype=dtype)
    if used - pos > byte_len:
        raise ValueError("v2 level stream overran its declared byte length")
    return vals, pos + byte_len


def _read_page(chunk: bytes, pos: int, codec) -> tuple[dict, bytes, int]:
    """The page at ``chunk[pos:]`` -> (header, body, next pos).  Checks
    the page's stored CRC-32 (PageHeader field 4: our writer always
    stores one, pyarrow under ``write_page_checksum=True``) over the
    stored body and raises on mismatch; a page without one passes.
    V1 data and dictionary pages come back decompressed — v2 pages
    compress only their values section, which the caller handles."""
    header, pos = _read_compact_struct(chunk, pos, "PageHeader")
    ptype, page_len = header[1], header[3]  # compressed_page_size
    body = chunk[pos : pos + page_len]
    if 4 in header and zlib.crc32(body) != header[4] & 0xFFFFFFFF:
        raise ValueError(
            f"page CRC-32 mismatch (page type {ptype}, "
            f"{page_len} stored bytes) — corrupt page")
    if codec is not None and ptype in (_PAGE_DICT, _PAGE_DATA):
        body = codec.decompress(body, header[2]).to_pybytes()
    return header, body, pos + page_len


def decode_column_chunk_pages(chunk: bytes, n_total: int, physical: str,
                              max_rep: int, max_def: int, codec=None,
                              type_length: int = 0):
    """Page loop over one column chunk's raw bytes -> (rep, def, values).
    Every page that stores a CRC-32 is checked before it decodes
    (`_read_page`).
    V1 level encodings come from the DataPageHeader
    (definition_level_encoding = field 3, repetition_level_encoding =
    field 4 of parquet-format's thrift DataPageHeader) — RLE or the
    deprecated BIT_PACKED, per `decodeLevel` (Stream/Reader.hs:264-282).

    DataPageHeaderV2 (PageHeader field 8) is ALSO handled — rep then def
    levels with header-declared byte lengths and no u32 prefixes, then
    values — a strict superset of the reference, which declares the
    struct but never implements its page path
    (`/root/reference/src/Parquet/Types/PageHeader.hs:33-43`)."""
    pos = 0
    dictionary = None
    reps, defs, values = [], [], []
    seen = 0
    while seen < n_total:
        header, body, pos = _read_page(chunk, pos, codec)
        ptype = header[1]
        if ptype == _PAGE_DICT:
            dph = header[7]
            dictionary, _ = _decode_plain_values(body, 0, dph[1], physical,
                                                 type_length)
            continue
        if ptype == _PAGE_DATA:
            dph = header[5]
            n_vals, enc = dph[1], dph[2]
            def_enc = dph.get(3, _ENC_RLE)
            rep_enc = dph.get(4, _ENC_RLE)
            p = 0
            rep, p = _decode_levels(body, p, n_vals, max_rep, rep_enc)
            dfl, p = _decode_levels(body, p, n_vals, max_def, def_enc)
        elif ptype == _PAGE_DATA_V2:
            dph = header[8]
            n_vals, enc = dph[1], dph[4]
            def_len, rep_len = dph[5], dph[6]
            # V2 keeps the level streams UNCOMPRESSED at the front; only
            # the values section compresses, gated by is_compressed
            # (field 7, default true)
            if codec is not None and dph.get(7, True):
                lv = rep_len + def_len
                body = (body[:lv]
                        + codec.decompress(body[lv:],
                                           header[2] - lv).to_pybytes())
            p = 0
            rep, p = _decode_levels_v2(body, p, rep_len, n_vals, max_rep)
            dfl, p = _decode_levels_v2(body, p, def_len, n_vals, max_def)
        else:
            raise ValueError(f"unsupported page type {ptype}")
        n_present = int(np.count_nonzero(dfl == max_def))
        if enc == _ENC_PLAIN:
            vals, p = _decode_plain_values(body, p, n_present, physical,
                                           type_length)
        elif enc == _ENC_DELTA_BP:
            if physical not in ("INT32", "INT64"):
                raise ValueError(
                    f"DELTA_BINARY_PACKED on non-integer type {physical}")
            vals, p = _decode_delta_binary_packed(body, p, n_present)
            if physical == "INT32":
                vals = vals.astype(np.int32)
        elif enc == _ENC_DELTA_LEN_BA:
            if physical != "BYTE_ARRAY":
                raise ValueError(
                    f"DELTA_LENGTH_BYTE_ARRAY on type {physical}")
            vals, p = _decode_delta_length_byte_array(body, p, n_present)
        elif enc == _ENC_DELTA_BA:
            if physical != "BYTE_ARRAY":
                raise ValueError(f"DELTA_BYTE_ARRAY on type {physical}")
            vals, p = _decode_delta_byte_array(body, p, n_present)
        elif enc == _ENC_RLE and physical == "BOOLEAN":
            # RLE as a VALUE encoding is defined for booleans only
            # (data page v2 writes them this way): u32 byte length then
            # the RLE/BP hybrid at bit-width 1
            rle_len = int.from_bytes(body[p:p + 4], "little")
            bits, used = decode_hybrid(body, 1, n_present, p + 4,
                                       dtype=np.uint8)
            if used - (p + 4) > rle_len:
                raise ValueError("boolean RLE stream overran its length")
            vals = bits.astype(bool)
            p += 4 + rle_len
        elif enc == _ENC_BYTE_STREAM_SPLIT:
            # BYTE_STREAM_SPLIT (parquet-format Encodings.md): the values
            # section is W byte-streams of n bytes each (stream j holds
            # byte j of every value) — transpose back and reinterpret.
            # Defined for fixed-width types; pyarrow writes it for
            # FLOAT/DOUBLE (and INT32/INT64 since format 2.11)
            if physical == "FIXED_LEN_BYTE_ARRAY" and type_length > 0:
                dt, w = None, type_length
            elif physical in _PLAIN_FIXED:
                dt, w = _PLAIN_FIXED[physical]
            else:
                raise ValueError(
                    f"BYTE_STREAM_SPLIT on non-fixed-width type {physical}")
            nb = n_present * w
            mat = np.frombuffer(body, dtype=np.uint8, count=nb,
                                offset=p).reshape(w, n_present)
            flat = np.ascontiguousarray(mat.T).reshape(-1)
            if dt is None:
                vals = ByteArrayValues(
                    np.full(n_present, w, dtype=np.int64), flat)
            else:
                vals = flat.view(dt)
            p += nb
        elif enc in (_ENC_PLAIN_DICT, _ENC_RLE_DICT):
            if dictionary is None:
                raise ValueError("PLAIN_DICTIONARY page without dictionary page")
            width = body[p]
            p += 1
            if width > 32:  # dictionaries hold < 2**31 entries
                raise ValueError(f"dictionary index bit width {width} > 32")
            idx, p = decode_hybrid(body, width, n_present, p,
                                   dtype=np.uint32)
            if isinstance(dictionary, ByteArrayValues):
                vals = dictionary.take(idx)
            else:
                vals = dictionary[idx]
        else:
            raise ValueError(f"unsupported value encoding {enc}")
        reps.append(rep)
        defs.append(dfl)
        values.append(vals)
        seen += n_vals
    rep = (np.concatenate(reps) if reps
           else np.empty(0, _level_dtype(max_rep)))
    dfl = (np.concatenate(defs) if defs
           else np.empty(0, _level_dtype(max_def)))
    if values and isinstance(values[0], ByteArrayValues):
        vals = ByteArrayValues.concat(values)
    else:
        vals = np.concatenate(values) if values else np.empty(0, "<i8")
    return rep, dfl, vals


def _leaf_values_to_arrow(values, t: pa.DataType) -> pa.Array:
    """Present-only leaf values -> Arrow array of the leaf's arrow type."""
    if isinstance(values, ByteArrayValues):
        return values.to_arrow(t)
    if (pa.types.is_unsigned_integer(t) and isinstance(values, np.ndarray)
            and values.dtype.kind == "i"):
        # UINT_* logical types store wrapped two's-complement in the
        # signed physical type: reinterpret, don't range-check
        v = np.ascontiguousarray(values.astype(np.int64)).view(np.uint64)
        if t.bit_width < 64:
            v = v & np.uint64((1 << t.bit_width) - 1)
        return pa.array(v.astype({8: np.uint8, 16: np.uint16,
                                  32: np.uint32, 64: np.uint64}[
                                      t.bit_width]), t)
    if (pa.types.is_decimal128(t) and isinstance(values, np.ndarray)
            and np.issubdtype(values.dtype, np.integer)):
        # INT32/INT64-backed parquet decimals (duckdb/Spark store
        # precision<=9 / <=18 this way): the ints are UNSCALED —
        # pa.array(ints, decimal) would multiply by 10^scale, so build
        # the 16-byte little-endian storage directly.
        v = np.ascontiguousarray(values.astype("<i8"))
        out = np.zeros((len(v), 16), dtype=np.uint8)
        out[:, :8] = v.view(np.uint8).reshape(len(v), 8)
        out[v < 0, 8:] = 0xFF
        return pa.Array.from_buffers(t, len(v), [None, pa.py_buffer(out)])
    if isinstance(values, np.ndarray) and values.dtype == _storage_dtype(t):
        return pa.array(values, type=t)
    return pa.array(values if isinstance(values, list) else values.tolist(), t)


def _storage_dtype(t: pa.DataType) -> "np.dtype | None":
    """The ndarray dtype Arrow stores type ``t`` as — an ndarray of it
    converts without boxing each value; None for types without one."""
    if (pa.types.is_integer(t) or pa.types.is_floating(t)
            or pa.types.is_boolean(t)):
        return np.dtype(t.to_pandas_dtype())
    if pa.types.is_temporal(t) and t.bit_width in (32, 64):
        return np.dtype(f"<i{t.bit_width // 8}")
    return None


def _leaf_count(t: pa.DataType) -> int:
    """Number of parquet leaf columns under an arrow type."""
    if pa.types.is_struct(t):
        return sum(_leaf_count(f.type) for f in t)
    if pa.types.is_list(t) or pa.types.is_large_list(t):
        return _leaf_count(t.value_type)
    if pa.types.is_map(t):
        return _leaf_count(t.key_type) + _leaf_count(t.item_type)
    return 1


def _construct_node(t: pa.DataType, nullable: bool, r: int, d_slot: int,
                    d_par: int, leaves: list) -> pa.Array:
    """General Dremel inverse over one schema-tree node.

    ``leaves`` is the depth-first list of this subtree's parquet leaf
    streams, each ``(rep, def, values, max_def)`` (rep/def unsigned level
    arrays over the whole stream; values present-only).  ``r`` is the node's
    repetition level; ``d_slot`` the definition level at which a stream
    position materializes a SLOT of this node (for struct children this
    equals the struct's own d_slot — Arrow struct children carry an
    entry even under a null struct); ``d_par`` the definition level
    meaning "every optional ancestor is present".  Semantics (the
    generalization of the reference's `mkInstructions`,
    `/root/reference/src/Parquet/Reader.hs:461-537`, which only handles
    its list fixture):

    - a stream position is a *slot* of this node iff ``rep <= r`` (it
      starts a new instance at this level) and ``def >= d_slot``;
    - the node is non-null at a slot iff ``def >= d_def`` where
      ``d_def = d_par + 1`` for optional nodes (``= d_par`` if required);
    - a list/map has an element iff ``def >= d_def + 1`` (the repeated
      group's own +1), and element slots carry ``rep = r + 1`` — unlike
      struct children, element slots exist only where the list reaches;
    - a leaf value exists iff ``def == max_def``, consumed in stream
      order.

    Everything is vectorized (flatnonzero / searchsorted); no
    per-record interpreter.  Supports arbitrary interleavings of
    structs, lists, large_lists and maps over any supported leaf type.
    """
    rep0, dfl0 = leaves[0][0], leaves[0][1]
    slots = np.flatnonzero((rep0 <= r) & (dfl0 >= d_slot))
    slot_def = dfl0[slots]
    d_def = d_par + (1 if nullable else 0)
    valid = slot_def >= d_def if nullable else None
    mask = (pa.array(~valid)
            if valid is not None and not valid.all() else None)

    if pa.types.is_struct(t):
        children, cursor = [], 0
        for child in t:
            k = _leaf_count(child.type)
            children.append(_construct_node(child.type, child.nullable, r,
                                            d_slot, d_def,
                                            leaves[cursor:cursor + k]))
            cursor += k
        return pa.StructArray.from_arrays(children, fields=list(t),
                                          mask=mask)

    if (pa.types.is_list(t) or pa.types.is_large_list(t)
            or pa.types.is_map(t)):
        if pa.types.is_map(t):
            entries = pa.struct([t.key_field, t.item_field])
            child = _construct_node(entries, False, r + 1, d_def + 1,
                                    d_def + 1, leaves)
        else:
            vf = t.value_field
            child = _construct_node(vf.type, vf.nullable, r + 1, d_def + 1,
                                    d_def + 1, leaves)
        child_slots = np.flatnonzero((rep0 <= r + 1) & (dfl0 >= d_def + 1))
        # a child slot belongs to the last slot at or before it, so slot
        # i's offset is the number of child slots before it: one binary
        # search per slot into the (far longer) child slots
        if len(child_slots) and (not len(slots)
                                 or child_slots[0] < slots[0]):
            raise ValueError(f"{t} element before the stream's first slot")
        off_np = np.append(np.searchsorted(child_slots, slots),
                           len(child_slots))
        if pa.types.is_map(t):
            # null maps via offsets-with-nulls (MapArray has no mask=):
            # a null at offsets[i] marks entry i null (i < n)
            if valid is not None and not valid.all():
                offs = pa.array(off_np.astype(np.int32),
                                mask=np.concatenate([~valid, [False]]))
            else:
                offs = pa.array(off_np.astype(np.int32), pa.int32())
            return pa.MapArray.from_arrays(offs, child.field(0),
                                           child.field(1), type=t)
        off_dt = np.int64 if pa.types.is_large_list(t) else np.int32
        off_t = pa.int64() if pa.types.is_large_list(t) else pa.int32()
        cls = (pa.LargeListArray if pa.types.is_large_list(t)
               else pa.ListArray)
        # type=t keeps the file's value-field name/nullability (e.g.
        # "element: int64 not null") — required for struct parents
        return cls.from_arrays(pa.array(off_np.astype(off_dt), off_t),
                               child, type=t, mask=mask)

    if pa.types.is_fixed_size_list(t):
        raise NotImplementedError(
            "fixed_size_list columns are not supported by the kernel page "
            "path (use the engine's pyarrow read)")

    _, _, values, max_def = leaves[0]  # structure already read via rep0/dfl0
    if max_def != d_def:
        raise ValueError(
            f"def-level mismatch at leaf {t}: schema walk gives {d_def}, "
            f"footer says {max_def}")
    arr = _leaf_values_to_arrow(values, t)
    present = slot_def == max_def
    taken = int(np.count_nonzero(present))
    n = len(slots)
    if taken == n:
        return arr
    idx = np.full(n, -1, dtype=np.int64)
    idx[present] = np.arange(taken)
    return arr.take(pa.array(idx, mask=idx < 0))


def assemble_record_tree(field: pa.Field, leaves: list,
                         n_records: int) -> pa.Array:
    """Assemble one top-level column from its DFS-ordered leaf streams."""
    out = _construct_node(field.type, field.nullable, 0, 0, 0, leaves)
    assert len(out) == n_records, (field.name, len(out), n_records)
    return out


def read_chunk_dictionary(path: str, km, rg: int, ci: int,
                          filesystem=None):
    """Decode ONLY one column chunk's dictionary page (the region
    ``[dictionary_page_offset, data_page_offset)`` — one small ranged
    read, no data pages touched), or None when the chunk has no
    dictionary.  Returns the plain-decoded dictionary values
    (np array or ByteArrayValues).  A page that fails its CRC also
    answers None, so the row group is kept and its decode raises."""
    cc = km.row_groups[rg].columns[ci]
    start = cc.dictionary_page_offset
    if not start:
        return None
    length = cc.data_page_offset - start
    if length <= 0:
        return None
    leaf = km.leaves[ci]
    raw = _read_range(path, start, length, filesystem)
    try:
        header, body, _ = _read_page(raw, 0, _page_codec(cc.codec))
        if header[1] != _PAGE_DICT:
            return None
        vals, _ = _decode_plain_values(body, 0, header[7][1],
                                       leaf.physical, leaf.type_length)
        return vals
    except (ValueError, KeyError, IndexError):
        return None


def _dict_contains(vals, probe, physical: str) -> bool:
    """Is ``probe`` in the decoded dictionary?  Unjudgeable
    combinations answer True (keep — pruning must be one-sided)."""
    if isinstance(vals, ByteArrayValues):
        if isinstance(probe, str):
            b = probe.encode()
        elif isinstance(probe, (bytes, bytearray)):
            b = bytes(probe)
        else:
            return True
        data = vals.data.tobytes()
        off = 0
        for ln in vals.lens:
            ln = int(ln)
            if ln == len(b) and data[off:off + ln] == b:
                return True
            off += ln
        return False
    if isinstance(probe, bool) or not isinstance(
            probe, (int, float, np.integer, np.floating)):
        return True
    arr = np.asarray(vals)
    if arr.dtype.kind not in "iuf":
        return True
    with np.errstate(over="ignore", invalid="ignore"):
        return bool((arr == probe).any())


# dictionary pages larger than this are never read for pruning
MAX_PRUNE_DICT_BYTES = 4 << 20


def prune_row_groups_by_dict(km, preds: list, path: str,
                             filesystem=None,
                             candidates: "list[int] | None" = None
                             ) -> list[int]:
    """Dictionary-membership pruning (parquet-mr's "dictionary
    filtering"): drop a row group when every member a membership
    predicate needs (``==``, ``in``; `predicates.members`) is absent
    from the chunk's dictionary page — valid ONLY when the
    footer's PageEncodingStats (ColumnMetaData field 13, which our
    writer and pyarrow both emit) PROVE every data page is
    dict-encoded (a plain-fallback page could hold values outside the
    dictionary).  One small ranged read per probed chunk; chunks with
    dictionaries larger than ``MAX_PRUNE_DICT_BYTES`` are skipped.
    One-sided: anything unprovable keeps the row group.  Complements
    bloom filters — this works on files from ANY writer (pyarrow,
    DuckDB, parquet-mr) with no opt-in at write time."""
    from .. import predicates as P

    leaves = P.leaf_index(km.schema)
    eq = [(leaves[c][0], P.members(op, v)) for c, op, v in preds
          if c in leaves and P.members(op, v) is not None]
    rgs = range(len(km.row_groups)) if candidates is None else candidates
    if not eq:
        return list(rgs)
    keep = []
    for rg in rgs:
        ok = True
        for ci, probes in eq:
            cc = km.row_groups[rg].columns[ci]
            es = cc.encoding_stats
            if es is None or not cc.dictionary_page_offset:
                continue
            data_pages = [(enc, cnt) for pt, enc, cnt in es
                          if pt in (_PAGE_DATA, _PAGE_DATA_V2)]
            if not data_pages or any(
                    enc not in (_ENC_PLAIN_DICT, _ENC_RLE_DICT)
                    for enc, cnt in data_pages if cnt > 0):
                continue
            if cc.data_page_offset - cc.dictionary_page_offset > \
                    MAX_PRUNE_DICT_BYTES:
                continue
            vals = read_chunk_dictionary(path, km, rg, ci, filesystem)
            if vals is None:
                continue
            if not any(_dict_contains(vals, pr, km.leaves[ci].physical)
                       for pr in probes):
                ok = False
                break
        if ok:
            keep.append(rg)
    return keep


def prune_row_groups_by_stats(meta, preds: list) -> list[int]:
    """Row groups that MAY satisfy every ``(column, op, value)``
    predicate, judged from pyarrow's view of the footer statistics —
    the independent oracle the kernel pruner
    (``parquet_footer.prune_row_groups_by_stats_kernels``) is tested
    against.  Missing stats keep the row group; flat top-level columns
    only (`predicates.leaf_index`)."""
    from .. import predicates as P

    leaves = P.leaf_index(meta.schema.to_arrow_schema())
    kept = []
    for rg in range(meta.num_row_groups):
        ok = True
        for col, op, val in preds:
            if col not in leaves:
                continue  # nested/unknown column: cannot prune on it
            st = meta.row_group(rg).column(leaves[col][0]).statistics
            if st is None:
                continue
            lo, hi = (st.min, st.max) if st.has_min_max else (None, None)
            nulls = st.null_count if st.has_null_count else None
            if not P.may_match(op, val, lo, hi, nulls,
                               meta.row_group(rg).num_rows):
                ok = False
                break
        if ok:
            kept.append(rg)
    return kept


def _projection(km, columns: "list[str] | None") -> list:
    """``(name, field, leaf indices)`` per selected top-level column, in
    schema order.  Footer leaves are contiguous in depth-first schema
    order, so each top-level field owns the next ``_leaf_count(type)``
    leaf indices — no name parsing (column names may themselves contain
    dots)."""
    schema = km.schema
    if columns is not None:
        missing = set(columns) - set(schema.names)
        if missing:
            raise KeyError(f"columns not in schema: {sorted(missing)}")
    out = []
    next_leaf = 0
    for name in schema.names:
        field = schema.field(name)
        k = _leaf_count(field.type)
        idxs = list(range(next_leaf, next_leaf + k))
        next_leaf += k
        if columns is not None and name not in columns:
            continue
        if idxs and idxs[-1] >= len(km.leaves):
            raise ValueError(
                f"column {name}: arrow type {field.type} implies leaves "
                f"{idxs} but the footer has only {len(km.leaves)}")
        out.append((name, field, idxs))
    return out


def _table(cols: dict, columns: "list[str] | None", n_rows: int
           ) -> pa.Table:
    """The decoded ``cols`` in ``columns`` order; a 0-column projection
    keeps the row count, matching ``pq.read_table(columns=[])``."""
    if columns is None:
        return pa.table(cols)
    if not columns:
        return pa.table({"__n": pa.nulls(n_rows)}).drop_columns(["__n"])
    return pa.table({c: cols[c] for c in columns})


def read_row_group_page_pruned(path: str, km, rg: int, ranges: list,
                               columns: list[str] | None = None,
                               filesystem=None) -> pa.Table:
    """Decode row group ``rg`` through our kernels — the one row-group
    decoder.  ``ranges`` are half-open row ranges (from
    ``prune_pages_by_index``); ``[(0, num_rows)]`` is the plain
    whole-row-group read, which reads each selected leaf's chunk in one
    ranged read and never touches the page index.

    Otherwise, per selected column and range: the OffsetIndex locates
    the run of pages covering the range; one ranged read fetches the
    dictionary page (if any) plus that contiguous page run; the page
    loop decodes the spliced bytes and the assembled rows slice to the
    exact range.  Row-aligned leaves (max_rep == 0, one level entry per
    row — what our writer paginates) decode page-granular; nested or
    unindexed leaves decode their whole chunk once and slice, which is
    exact because ranges are row ranges.  ``km`` is our parsed footer
    — pyarrow's Python API does not expose the index offsets."""
    from .parquet_footer import parse_offset_index

    n_rows = km.row_groups[rg].num_rows
    whole = [tuple(r) for r in ranges] == [(0, n_rows)]
    if not whole:
        for a, b in ranges:
            if not (0 <= a < b <= n_rows):
                raise ValueError(f"bad row range ({a}, {b}) for a row "
                                 f"group of {n_rows} rows")
    fields = _projection(km, columns)

    def offset_index(ci: int):
        cc = km.row_groups[rg].columns[ci]
        return (None if cc.offset_index_offset is None
                else parse_offset_index(_read_range(
                    path, cc.offset_index_offset, cc.offset_index_length,
                    filesystem)))

    def decode(ci: int, raw: bytes, n_values: int):
        """Leaf ``ci``'s (rep, def, values, max_def) from its raw pages."""
        leaf, cc = km.leaves[ci], km.row_groups[rg].columns[ci]
        rep, dfl, vals = decode_column_chunk_pages(
            raw, n_values, leaf.physical, leaf.max_rep, leaf.max_def,
            codec=_page_codec(cc.codec), type_length=leaf.type_length)
        return rep, dfl, vals, leaf.max_def

    def decode_chunk(ci: int):
        cc = km.row_groups[rg].columns[ci]
        # falsy-or, not is-None: older parquet-mr/Impala write
        # dictionary_page_offset=0 for "no dictionary page"
        start = cc.dictionary_page_offset or cc.data_page_offset
        return decode(ci, _read_range(path, start, cc.total_compressed_size,
                                      filesystem), cc.num_values)

    def decode_run(ci: int, oidx, a: int, b: int):
        """(leaf streams of rows [ra, rb) covering [a, b), ra)."""
        cc = km.row_groups[rg].columns[ci]
        dict_span = (b"" if not cc.dictionary_page_offset else
                     _read_range(path, cc.dictionary_page_offset,
                                 cc.data_page_offset
                                 - cc.dictionary_page_offset,
                                 filesystem))
        first_rows = [p.first_row_index for p in oidx]
        import bisect

        p0 = bisect.bisect_right(first_rows, a) - 1
        p1 = bisect.bisect_left(first_rows, b, lo=p0) - 1
        if p1 < p0:
            p1 = p0
        ra = first_rows[p0]
        rb = first_rows[p1 + 1] if p1 + 1 < len(oidx) else n_rows
        span = _read_range(
            path, oidx[p0].offset,
            oidx[p1].offset + oidx[p1].compressed_page_size
            - oidx[p0].offset, filesystem)
        return decode(ci, dict_span + span, rb - ra), ra

    cols = {}
    for name, field, idxs in fields:
        leaf = km.leaves[idxs[0]] if len(idxs) == 1 else None
        # page-granular only when the one leaf is row-aligned AND indexed
        oidx = (offset_index(idxs[0]) if not whole and leaf is not None
                and leaf.max_rep == 0 and leaf.max_def <= 1 else None)
        if not ranges:
            parts = [pa.array([], type=field.type)]
        elif oidx is not None:
            parts = []
            for a, b in ranges:
                leaves, ra = decode_run(idxs[0], oidx, a, b)
                arr = assemble_record_tree(field, [leaves],
                                           leaves[0].shape[0])
                parts.append(arr.slice(a - ra, b - a))
        else:
            arr = assemble_record_tree(
                field, [decode_chunk(ci) for ci in idxs], n_rows)
            parts = [arr] if whole else [arr.slice(a, b - a)
                                         for a, b in ranges]
        cols[name] = pa.concat_arrays(parts) if len(parts) > 1 else parts[0]
    return _table(cols, columns, sum(b - a for a, b in ranges))


def read_parquet_via_kernels(path: str,
                             columns: list[str] | None = None,
                             row_groups: list[int] | None = None,
                             filesystem=None, km=None) -> pa.Table:
    """Decode a whole parquet file through our kernels only: thrift
    footer (`parquet_footer.py`), thrift page reader, bit-level value
    kernels and general record assembly — no pyarrow anywhere on the
    path (large_list canonicalizes to list; parquet cannot express the
    difference).  Each row group decodes through
    ``read_row_group_page_pruned`` with its whole-row-group range, and
    each column concatenates to one chunk.

    ``columns`` prunes at the column-chunk level — unselected leaves'
    pages are never read or decoded (scan pruning, same contract as
    ``pq.read_table(columns=...)``).  ``row_groups`` restricts decode
    to the listed row groups (pair with
    ``prune_row_groups_by_stats_kernels``).  ``km`` reuses an
    already-parsed `KernelFileMetaData` so callers that pre-read the
    footer (pruning) parse it once.

    ``filesystem`` (any pyarrow FileSystem) makes footer and chunk
    reads ranged GETs through it — the reference's
    ``remoteParquetFile`` pattern.

    Every page's stored CRC-32 is checked (`_read_page`); pages
    without one pass."""
    if km is None:
        from .parquet_footer import read_footer_via_kernels

        km = read_footer_via_kernels(path, filesystem=filesystem)
    rgs = range(len(km.row_groups)) if row_groups is None else row_groups
    parts = [read_row_group_page_pruned(
        path, km, rg, [(0, km.row_groups[rg].num_rows)], columns=columns,
        filesystem=filesystem) for rg in rgs]
    if not parts:  # zero-row-group file (pyarrow writes these)
        return _table({name: pa.array([], type=field.type)
                       for name, field, _ in _projection(km, columns)},
                      columns, 0)
    if len(parts) == 1:
        return parts[0]
    if columns is not None and not columns:
        return _table({}, columns, sum(t.num_rows for t in parts))
    return pa.concat_tables(parts).combine_chunks()
