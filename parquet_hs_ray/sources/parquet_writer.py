"""Minimal standard-Parquet WRITER through our own kernels.

The encode twin of `parquet_pages.py`: thrift compact-protocol struct
writing (PageHeader / DataPageHeader / SchemaElement / ColumnMetaData /
RowGroup / FileMetaData), Dremel *shredding* (values + validity →
rep/def level streams, the inverse of `_construct_node`), RLE/BP-hybrid
level encoding via the shared ``encode_hybrid`` kernel, and PLAIN value
encoding — producing files that pyarrow, DuckDB and our own kernel
reader all read back bit-identically (asserted in tests).

The reference is decode-only (its encoder surface stops at
``encodeVarint``, `/root/reference/src/Parquet/Decoder.hs`); a writer is
a strict superset that makes the kernel path bidirectional.

Scope (correctness-first; the engine's production sinks are
``Dataset.write_parquet`` and the kernel datasink in `kernel_sink.py`):
arbitrary nestings of struct / list / large_list / map over the
primitive leaf types plus timestamp/date32 logical types (the same
shapes the kernel reader's general record assembly decodes); PLAIN /
PLAIN_DICTIONARY values, with opt-in ``encodings="auto"`` per-chunk
selection of DELTA_BINARY_PACKED (ints) and BYTE_STREAM_SPLIT
(floats); RLE levels; CRC-32 page checksums (PageHeader field 4,
always written); UNCOMPRESSED / SNAPPY / GZIP / ZSTD / LZ4 /
LZ4_RAW page
compression; multiple row groups.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..codecs.rle_hybrid import encode_hybrid
from ..codecs.varint import encode_varint, zigzag_encode
from .parquet_footer import _CODEC, _PHYSICAL
from .parquet_pages import (_ENC_BYTE_STREAM_SPLIT, _ENC_DELTA_BP, _ENC_PLAIN,
                            _ENC_PLAIN_DICT, _ENC_RLE, _ENC_RLE_DICT,
                            _page_codec)

# thrift compact type ids
_CT_BOOL_TRUE = 1
_CT_BOOL_FALSE = 2
_CT_I32 = 5
_CT_I64 = 6
_CT_BINARY = 8
_CT_LIST = 9
_CT_STRUCT = 12

# parquet physical type ids and the compressions this writer emits, by
# name — the reader's tables inverted
_PT = {name: pid for pid, name in _PHYSICAL.items()}
_CODECS = {name: cid for cid, name in _CODEC.items()
           if name not in ("LZO", "BROTLI")}
_CONVERTED_UTF8, _CONVERTED_MAP, _CONVERTED_LIST = 0, 1, 3
# dtype of the shredded rep/def level arrays: a level is at most the
# nesting depth, which the recursive shredder keeps far below 2**15
_LEVEL = np.int16


def _crc32_signed(*parts: bytes) -> int:
    """CRC-32 of a page's stored bytes as parquet's signed i32
    (PageHeader field 4 — computed on the page body exactly as written:
    compressed data, and for v2 pages the uncompressed level streams
    followed by the compressed values section)."""
    import zlib

    c = 0
    for p in parts:
        c = zlib.crc32(p, c)
    return c - (1 << 32) if c >= (1 << 31) else c


class _Struct:
    """Thrift compact-protocol struct writer (field-id delta headers)."""

    def __init__(self):
        self._fields: list[tuple[int, int, bytes]] = []

    def i32(self, fid: int, v: int) -> "_Struct":
        self._fields.append(
            (fid, _CT_I32, encode_varint(zigzag_encode(int(v)))))
        return self

    def bool_(self, fid: int, v: bool) -> "_Struct":
        # compact-protocol booleans live in the field header itself
        self._fields.append((fid, _CT_BOOL_TRUE if v else _CT_BOOL_FALSE,
                             b""))
        return self

    def i64(self, fid: int, v: int) -> "_Struct":
        self._fields.append(
            (fid, _CT_I64, encode_varint(zigzag_encode(int(v)))))
        return self

    def binary(self, fid: int, v: bytes | str) -> "_Struct":
        b = v.encode() if isinstance(v, str) else v
        self._fields.append((fid, _CT_BINARY, encode_varint(len(b)) + b))
        return self

    def struct(self, fid: int, s: "_Struct") -> "_Struct":
        self._fields.append((fid, _CT_STRUCT, s.tobytes()))
        return self

    def list_i32(self, fid: int, vals: list[int]) -> "_Struct":
        self._fields.append((fid, _CT_LIST,
                             _list_header(len(vals), _CT_I32)
                             + b"".join(encode_varint(zigzag_encode(v))
                                        for v in vals)))
        return self

    def list_binary(self, fid: int, vals: "list[str | bytes]") -> "_Struct":
        bs = [v.encode() if isinstance(v, str) else v for v in vals]
        body = b"".join(encode_varint(len(b)) + b for b in bs)
        self._fields.append((fid, _CT_LIST,
                             _list_header(len(vals), _CT_BINARY) + body))
        return self

    def list_bool(self, fid: int, vals: list[bool]) -> "_Struct":
        # compact-protocol bool LIST elements are one byte each (1/2)
        body = bytes(1 if v else 2 for v in vals)
        self._fields.append((fid, _CT_LIST,
                             _list_header(len(vals), _CT_BOOL_TRUE) + body))
        return self

    def list_i64(self, fid: int, vals: list[int]) -> "_Struct":
        self._fields.append((fid, _CT_LIST,
                             _list_header(len(vals), _CT_I64)
                             + b"".join(encode_varint(zigzag_encode(v))
                                        for v in vals)))
        return self

    def list_struct(self, fid: int, vals: list["_Struct"]) -> "_Struct":
        body = b"".join(s.tobytes() for s in vals)
        self._fields.append((fid, _CT_LIST,
                             _list_header(len(vals), _CT_STRUCT) + body))
        return self

    def tobytes(self) -> bytes:
        out = bytearray()
        last = 0
        for fid, ctype, payload in sorted(self._fields):
            delta = fid - last
            if 1 <= delta <= 15:
                out.append((delta << 4) | ctype)
            else:
                out.append(ctype)
                out += encode_varint(zigzag_encode(fid))
            out += payload
            last = fid
        out.append(0)  # STOP
        return bytes(out)


def _list_header(n: int, elem_ctype: int) -> bytes:
    if n < 15:
        return bytes([(n << 4) | elem_ctype])
    return bytes([0xF0 | elem_ctype]) + encode_varint(n)


def _decimal_flba_len(precision: int) -> int:
    """Minimal FLBA byte length holding ``precision`` decimal digits in
    two's-complement (what pyarrow/parquet-java write; DuckDB rejects
    over-wide carriers)."""
    return ((10 ** precision - 1).bit_length() + 1 + 7) // 8


def _physical(t: pa.DataType) -> str:
    if pa.types.is_int64(t):
        return "INT64"
    if pa.types.is_int32(t):
        return "INT32"
    if pa.types.is_float64(t):
        return "DOUBLE"
    if pa.types.is_float32(t):
        return "FLOAT"
    if pa.types.is_boolean(t):
        return "BOOLEAN"
    if pa.types.is_string(t) or pa.types.is_binary(t):
        return "BYTE_ARRAY"
    if pa.types.is_timestamp(t):
        if t.unit not in ("ms", "us", "ns") or t.tz not in (None, "UTC"):
            raise NotImplementedError(
                f"kernel parquet writer: timestamp {t} (parquet has no "
                "seconds unit; non-UTC zones need schema metadata)")
        return "INT64"
    if pa.types.is_date32(t):
        return "INT32"
    if pa.types.is_decimal128(t):
        if t.scale < 0 or t.scale > t.precision:
            # Arrow permits negative scale; the parquet DECIMAL logical
            # type does not — a file written with one has an invalid
            # footer no standard reader can open
            raise NotImplementedError(
                f"kernel parquet writer: decimal {t} (parquet DECIMAL "
                "requires 0 <= scale <= precision)")
        return "FIXED_LEN_BYTE_ARRAY"  # big-endian two's-complement
    raise NotImplementedError(f"kernel parquet writer: leaf type {t}")


def _storage_cast(arr: pa.Array) -> pa.Array:
    """Logical-typed leaves -> their parquet physical storage ints."""
    t = arr.type
    if pa.types.is_timestamp(t):
        return arr.cast(pa.int64())
    if pa.types.is_date32(t):
        return arr.cast(pa.int32())
    return arr


def _plain_encode(arr: pa.Array, physical: str,
                  type_length: int = 0) -> bytes:
    """PLAIN values for the non-null elements of ``arr``, in order."""
    arr = arr.drop_null()
    if physical == "FIXED_LEN_BYTE_ARRAY":
        # decimal128: Arrow 16-byte little-endian storage -> parquet
        # FLBA big-endian two's-complement; one row-wise byte flip,
        # then keep only the low type_length bytes (the high bytes are
        # sign extension for values that fit the declared precision)
        n = len(arr)
        if n == 0:
            return b""
        mat = np.frombuffer(arr.buffers()[1], np.uint8, n * 16,
                            offset=arr.offset * 16).reshape(n, 16)
        return np.ascontiguousarray(
            mat[:, ::-1][:, 16 - type_length:]).tobytes()
    if physical == "BOOLEAN":
        v = arr.to_numpy(zero_copy_only=False).astype(bool)
        return np.packbits(v, bitorder="little").tobytes()
    if physical == "BYTE_ARRAY":
        a = arr.cast(pa.binary()) if not pa.types.is_binary(arr.type) else arr
        if isinstance(a, pa.ChunkedArray):
            a = a.combine_chunks()
        n = len(a)
        if n == 0:
            return b""
        # u32-LE length prefix per value, built from the Arrow offsets
        # and data buffers — offsets are monotone into one shared data
        # buffer, so the payload bytes are already the desired
        # concatenation: one boolean-mask interleave, no per-value loop
        off = np.frombuffer(a.buffers()[1], np.int32, n + 1,
                            offset=a.offset * 4).astype(np.int64)
        lens = np.diff(off)
        total = int(4 * n + lens.sum())
        out = np.empty(total, np.uint8)
        dst = np.cumsum(lens + 4) - (lens + 4)  # start of each record
        hdr = (dst[:, None] + np.arange(4)).ravel()
        out[hdr] = lens.astype("<u4").view(np.uint8).reshape(n, 4).ravel()
        if total > 4 * n:
            mask = np.ones(total, bool)
            mask[hdr] = False
            data = np.frombuffer(a.buffers()[2], np.uint8)
            out[mask] = data[off[0]:off[-1]]
        return out.tobytes()
    dt = {"INT64": "<i8", "INT32": "<i4",
          "DOUBLE": "<f8", "FLOAT": "<f4"}[physical]
    return np.ascontiguousarray(
        arr.to_numpy(zero_copy_only=False)).astype(dt).tobytes()


def _plain_size(arr: pa.Array, physical: str,
                type_length: int = 0) -> int:
    """Byte size the PLAIN encoding of ``arr`` would take (no encode)."""
    n = len(arr) - arr.null_count
    if physical == "BOOLEAN":
        return (n + 7) // 8
    if physical == "FIXED_LEN_BYTE_ARRAY":
        return type_length * n
    if physical == "BYTE_ARRAY":
        a = arr.drop_null()
        a = a.cast(pa.binary()) if not pa.types.is_binary(a.type) else a
        import pyarrow.compute as pc

        return 4 * n + int(pc.sum(pc.binary_length(a)).as_py() or 0)
    return n * {"INT64": 8, "DOUBLE": 8, "INT32": 4, "FLOAT": 4}[physical]


def _dict_encode(arr: pa.Array, physical: str):
    """Classic PLAIN_DICTIONARY chunk: (dict-page PLAIN values, Arrow's
    int32 index codes in non-null order, index bit width, dictionary size),
    or None when the type/cardinality makes a dictionary pointless.
    The caller encodes codes (or per-page slices of them) with
    ``_dict_index_body``."""
    if physical in ("BOOLEAN", "FIXED_LEN_BYTE_ARRAY"):
        return None
    vals = arr.drop_null()
    if len(vals) == 0:
        return None
    denc = vals.dictionary_encode()
    dictionary = denc.dictionary
    if len(dictionary) > max(1, len(vals) // 2) or len(dictionary) > 65536:
        return None  # high cardinality: dictionary would not pay
    idx = np.asarray(denc.indices)
    width = max(1, int(len(dictionary) - 1).bit_length())
    return (_plain_encode(dictionary, physical), idx, width,
            len(dictionary))


def _dict_index_body(idx: np.ndarray, width: int) -> bytes:
    """Dictionary data-page body: 1-byte bit width + hybrid indices."""
    return bytes([width]) + encode_hybrid(idx, width)


def _delta_bp_encode(vals: np.ndarray, bits: int = 64,
                     max_bytes: int | None = None) -> bytes | None:
    """DELTA_BINARY_PACKED (parquet-format Encodings.md): block 256 /
    8 miniblocks of 32.  The inverse of the reader's
    ``_decode_delta_binary_packed`` (`parquet_pages.py`); delta
    arithmetic wraps at the PHYSICAL width (``bits``: 32 for INT32, 64
    for INT64) — readers accumulate in that width, and a 64-bit delta
    stream over int32 values emits >32-bit miniblocks that pyarrow
    rejects.  All n_mini width bytes are emitted per block; miniblock
    payloads past the final value are omitted (both allowed by the
    spec).  ``max_bytes`` aborts with None once the stream exceeds it
    (the caller is about to lose a size comparison anyway)."""
    from ..codecs.bitpack import pack_bits_le

    n = len(vals)
    if bits == 32:
        v32 = vals.astype(np.int32)
        first = int(v32[0]) if n else 0
        with np.errstate(over="ignore"):
            deltas = (v32[1:].view(np.uint32)
                      - v32[:-1].view(np.uint32)).view(
                          np.int32).astype(np.int64)
    else:
        v = vals.astype(np.int64)
        first = int(v[0]) if n else 0
        with np.errstate(over="ignore"):
            deltas = (v[1:].view(np.uint64)
                      - v[:-1].view(np.uint64)).view(np.int64)
    out = bytearray(encode_varint(256) + encode_varint(8)
                    + encode_varint(n)
                    + encode_varint(zigzag_encode(first)))
    if n <= 1:
        return bytes(out)
    for bs in range(0, len(deltas), 256):
        block = deltas[bs:bs + 256]
        min_delta = int(block.min())
        with np.errstate(over="ignore"):
            adj = (block.view(np.uint64)
                   - np.uint64(min_delta & 0xFFFFFFFFFFFFFFFF))
        out += encode_varint(zigzag_encode(min_delta))
        widths = bytearray(8)
        bodies = []
        for mi in range(8):
            mb = adj[mi * 32:(mi + 1) * 32]
            if len(mb) == 0:
                break  # trailing miniblocks: width byte 0, no payload
            w = int(mb.max()).bit_length()
            widths[mi] = w
            if len(mb) < 32:
                mb = np.concatenate([mb, np.zeros(32 - len(mb),
                                                  np.uint64)])
            bodies.append(pack_bits_le(mb, w))
        out += widths
        for b in bodies:
            out += b
        if max_bytes is not None and len(out) > max_bytes:
            return None  # already bigger than the alternative encoding
    return bytes(out)


def _bss_encode(arr: pa.Array, physical: str) -> bytes:
    """BYTE_STREAM_SPLIT: byte plane j of every value, planes
    concatenated — a pure permutation of PLAIN (pays only under page
    compression)."""
    dt = {"INT64": "<i8", "INT32": "<i4",
          "DOUBLE": "<f8", "FLOAT": "<f4"}[physical]
    v = np.ascontiguousarray(
        arr.drop_null().to_numpy(zero_copy_only=False)).astype(dt)
    n = len(v)
    if n == 0:
        return b""
    mat = v.view(np.uint8).reshape(n, v.dtype.itemsize)
    return np.ascontiguousarray(mat.T).tobytes()


# statistics truncation bound for BYTE_ARRAY (parquet-cpp uses the
# same 64-byte default): footers must stay O(columns), not O(value
# length) — a document-length string as a chunk min would otherwise
# embed whole in the footer AND once per page in the ColumnIndex
_STAT_TRUNC = 64


def _minmax_bytes(arr: pa.Array, physical: str):
    """TYPE_ORDER-encoded (min, max) bytes for the types with
    unambiguous orderings, or None (floats are skipped — NaN
    semantics).  Shared by the chunk Statistics struct and the
    per-page ColumnIndex.

    Long BYTE_ARRAY values truncate: min to a 64-byte prefix (any
    prefix is a valid lower bound in unsigned lexicographic order),
    max to a 64-byte prefix with its last non-0xFF byte incremented
    (a strict upper bound); an all-0xFF prefix cannot produce an
    upper bound, so the pair is dropped (readers then skip pruning —
    one-sided, never wrong)."""
    import pyarrow.compute as pc

    if physical not in ("INT32", "INT64", "BYTE_ARRAY") or \
            len(arr) - arr.null_count == 0:
        return None
    mn, mx = pc.min(arr).as_py(), pc.max(arr).as_py()
    if physical == "BYTE_ARRAY":
        lo = mn.encode() if isinstance(mn, str) else mn
        hi = mx.encode() if isinstance(mx, str) else mx
        if len(lo) > _STAT_TRUNC:
            lo = lo[:_STAT_TRUNC]
        if len(hi) > _STAT_TRUNC:
            t = bytearray(hi[:_STAT_TRUNC])
            while t and t[-1] == 0xFF:
                t.pop()
            if not t:
                return None
            t[-1] += 1
            hi = bytes(t)
    else:
        w = 4 if physical == "INT32" else 8
        lo = int(mn).to_bytes(w, "little", signed=True)
        hi = int(mx).to_bytes(w, "little", signed=True)
    return lo, hi


def _statistics(arr: pa.Array, physical: str, n_values: int):
    """Statistics struct (min_value/max_value/null_count) for the types
    with unambiguous orderings; floats are skipped (NaN semantics)."""
    null_count = n_values - (len(arr) - arr.null_count)
    st = _Struct().i64(3, null_count)
    mm = _minmax_bytes(arr, physical)
    if mm is not None:
        st.binary(5, mm[1]).binary(6, mm[0])
    return st


def _level_stream(levels: np.ndarray, max_level: int) -> bytes:
    """RLE/BP hybrid level runs (none when ``max_level`` is 0): a v2
    page's level section as is; v1 prefixes its u32-LE byte length."""
    if not max_level:
        return b""
    return encode_hybrid(levels, int(max_level).bit_length())


def _is_listish(t: pa.DataType) -> bool:
    return (pa.types.is_list(t) or pa.types.is_large_list(t)
            or pa.types.is_map(t))


def _splice_placeholders(streams, miss_mask: np.ndarray,
                         miss_rep: np.ndarray, miss_def: np.ndarray,
                         r: int):
    """Insert one (rep, def, no-value) placeholder entry per masked slot
    into each leaf stream, in slot order.

    ``miss_mask`` is over the node's slots; present slots each own a run
    of entries in every leaf stream whose first entry is the only one
    with ``rep <= r`` (deeper repetition carries ``rep > r``) — so run
    starts are one ``flatnonzero`` and the placeholder for missing slot
    j lands before the run of the next present slot.  Vectorized; the
    inverse of the reader's slot selection in ``_construct_node``.
    """
    if not miss_mask.any():
        return streams
    # number of present slots strictly before each missing slot
    before = np.cumsum(~miss_mask)[miss_mask]
    out = []
    for rep, dfl, values in streams:
        starts = np.append(np.flatnonzero(rep <= r), len(rep))
        pos = starts[before]
        out.append((np.insert(rep, pos, miss_rep),
                    np.insert(dfl, pos, miss_def), values))
    return out


def _shred_node(arr: pa.Array, t: pa.DataType, nullable: bool, r: int,
                d_par: int, rep_in: np.ndarray):
    """General Dremel shredding of one schema-tree node — the exact
    inverse of the reader's ``_construct_node``
    (`parquet_pages.py`): returns the DFS-ordered list of this
    subtree's leaf streams, each ``(rep, def, values)`` with values
    keeping their nulls (encoders drop them).

    ``rep_in`` carries the repetition level of each slot (decided by
    ancestors); ``d_par`` is the definition level meaning "every
    optional/repeated ancestor is present"; this node adds one def
    level if optional (``d_def = d_par + 1``) and, for lists/maps, one
    more for element presence (child ``d_par = d_def + 1`` at
    ``rep = r + 1``).  Null structs and null/empty lists do not
    descend: they splice a single placeholder entry per slot into every
    child leaf stream.  Vectorized throughout.
    """
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    d_def = d_par + (1 if nullable else 0)
    if arr.null_count and not nullable:
        raise ValueError(f"nulls in a required column of type {t}")

    if pa.types.is_struct(t):
        valid_pa = arr.is_valid()
        valid = np.asarray(valid_pa, dtype=bool)
        all_valid = bool(valid.all())
        if not all_valid and rep_in is None:
            rep_in = np.zeros(len(arr), _LEVEL)
        child_rep = rep_in if all_valid else rep_in[valid]
        streams = []
        for i, f in enumerate(t):
            child = arr.field(i)
            if not all_valid:
                child = child.filter(valid_pa)
            streams.extend(_shred_node(child, f.type, f.nullable, r,
                                       d_def, child_rep))
        miss = ~valid
        return _splice_placeholders(
            streams, miss, None if rep_in is None else rep_in[miss],
            np.full(int(miss.sum()), d_par, _LEVEL), r)

    if _is_listish(t):
        import pyarrow.compute as pc

        if pa.types.is_map(t):
            # normalize to list<struct<key, value>>: identical offsets
            # and children, and the list kernels below apply uniformly
            kv = pa.struct([t.key_field, t.item_field])
            arr = arr.cast(pa.list_(pa.field("key_value", kv,
                                             nullable=False)))
            t = arr.type
        if rep_in is None:
            rep_in = np.zeros(len(arr), _LEVEL)
        valid = np.asarray(arr.is_valid(), dtype=bool)
        counts = np.asarray(pc.fill_null(pc.list_value_length(arr), 0),
                            dtype=np.int64)
        flat = pc.list_flatten(arr)  # valid lists' elements, in order
        has = counts > 0
        n_child = int(counts.sum())
        child_rep = np.full(n_child, r + 1, _LEVEL)
        if has.any():
            starts = np.concatenate([[0], np.cumsum(counts[has])[:-1]])
            child_rep[starts] = rep_in[has]
        ct, cn = t.value_field.type, t.value_field.nullable
        streams = _shred_node(flat, ct, cn, r + 1, d_def + 1, child_rep)
        miss = ~has  # null or empty: no element entries
        miss_def = np.where(valid[miss], d_def, d_par)
        return _splice_placeholders(streams, miss, rep_in[miss],
                                    miss_def.astype(_LEVEL), r)

    if not (pa.types.is_nested(t) or pa.types.is_dictionary(t)):
        if d_def == 0:
            dfl = None  # required all the way down: no def stream
        elif arr.null_count:
            dfl = np.where(np.asarray(arr.is_valid(), bool), d_def,
                           d_par).astype(_LEVEL)
        else:
            dfl = np.full(len(arr), d_def, _LEVEL)
        return [(rep_in, dfl, arr)]
    raise NotImplementedError(f"kernel parquet writer: node type {t}")


def _shred_field(arr, field: pa.Field):
    """Shred one top-level column into DFS leaf streams.

    ``rep_in=None`` means "all zeros": flat columns never materialize a
    repetition array (max_rep 0 drops it anyway); the struct/list
    branches materialize it lazily the first time they index it."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    return _shred_node(arr, field.type, field.nullable, 0, 0, None)


def _schema_element_tree(name: str, t: pa.DataType, repetition: int,
                         leaves: list, r: int = 0, d: int = 0,
                         path: tuple = ()) -> list[_Struct]:
    """DFS SchemaElement list for one field (repetition: 0 required /
    1 optional), appending each leaf's metadata (path_in_schema,
    physical, max_rep, max_def, type_length) to ``leaves`` in the exact
    order ``_shred_node`` emits streams.  ``r``/``d`` are the enclosing
    repetition and definition levels."""
    d += repetition  # an optional node adds one definition level
    path += (name,)
    if pa.types.is_struct(t):
        els = [_Struct().i32(3, repetition).binary(4, name).i32(5, len(t))]
        for f in t:
            els += _schema_element_tree(f.name, f.type, int(f.nullable),
                                        leaves, r, d, path)
        return els
    if pa.types.is_map(t):
        els = [_Struct().i32(3, repetition).binary(4, name)
               .i32(5, 1).i32(6, _CONVERTED_MAP),
               _Struct().i32(3, 2).binary(4, "key_value").i32(5, 2)]
        kv = path + ("key_value",)
        els += _schema_element_tree("key", t.key_field.type, 0, leaves,
                                    r + 1, d + 1, kv)
        els += _schema_element_tree("value", t.item_field.type,
                                    int(t.item_field.nullable), leaves,
                                    r + 1, d + 1, kv)
        return els
    if _is_listish(t):
        vf = t.value_field
        return ([_Struct().i32(3, repetition).binary(4, name)
                 .i32(5, 1).i32(6, _CONVERTED_LIST),
                 _Struct().i32(3, 2).binary(4, "list").i32(5, 1)]
                + _schema_element_tree("element", vf.type, int(vf.nullable),
                                       leaves, r + 1, d + 1,
                                       path + ("list",)))
    physical = _physical(t)
    type_length = (_decimal_flba_len(t.precision)
                   if pa.types.is_decimal128(t) else 0)
    leaves.append({"path": list(path), "physical": physical, "max_rep": r,
                   "max_def": d, "type_length": type_length})
    e = _Struct().i32(1, _PT[physical]).i32(3, repetition).binary(4, name)
    if type_length:
        # minimal FLBA + DECIMAL converted/logical types
        e.i32(2, type_length)
        e.i32(6, 5).i32(7, t.scale).i32(8, t.precision)
        dec = _Struct().i32(1, t.scale).i32(2, t.precision)
        e.struct(10, _Struct().struct(5, dec))
    elif pa.types.is_string(t):
        e.i32(6, _CONVERTED_UTF8)
    elif pa.types.is_timestamp(t):
        # ConvertedType (ms/us only; ns has none) + LogicalType
        # TIMESTAMP for all units so modern readers get the unit exactly
        if t.unit == "ms":
            e.i32(6, 9)   # TIMESTAMP_MILLIS
        elif t.unit == "us":
            e.i32(6, 10)  # TIMESTAMP_MICROS
        unit_fid = {"ms": 1, "us": 2, "ns": 3}[t.unit]  # TimeUnit union
        ts = (_Struct().bool_(1, t.tz == "UTC")
              .struct(2, _Struct().struct(unit_fid, _Struct())))
        e.struct(10, _Struct().struct(8, ts))  # LogicalType.TIMESTAMP
    elif pa.types.is_date32(t):
        e.i32(6, 6)  # DATE
        e.struct(10, _Struct().struct(6, _Struct()))  # LogicalType.DATE
    return [e]


def _write_column_chunk(out: bytearray, col_chunks: list, leaf: pa.Array,
                        rep: np.ndarray, dfl: np.ndarray, lm: dict,
                        codec, compression: str,
                        use_dictionary: bool,
                        encodings_mode: str = "classic",
                        page_version: str = "1.0",
                        data_page_rows: int | None = None,
                        bloom_fpp: float | None = None) -> int:
    """Emit one leaf's pages into ``out`` and a chunk record (meta
    struct + per-page locations/stats for the page index) into
    ``col_chunks``; returns the chunk's uncompressed byte size.

    ``encodings_mode="auto"`` extends the per-chunk codec selection
    beyond dict-vs-plain: DELTA_BINARY_PACKED for int chunks when it
    measures smaller than PLAIN, BYTE_STREAM_SPLIT for float chunks
    under page compression (a permutation of PLAIN that compresses
    better).  ``page_version="2.0"`` emits DataPageHeaderV2 pages:
    level streams stay UNCOMPRESSED at the page front with their byte
    lengths in the header (no u32 prefixes), only the values section
    compresses.

    ``data_page_rows`` splits ROW-ALIGNED leaves (max_rep == 0 and one
    leaf entry per level entry — every top-level flat column) into
    multiple data pages of that many rows, each starting on a record
    boundary, so the ColumnIndex/OffsetIndex the footer emits can
    prune at PAGE granularity (parquet-format PageIndex.md; the
    reference parses the offsets, `/root/reference/src/Parquet/Types/
    ColumnChunk.hs:19-30`).  Nested leaves keep one page per chunk."""
    physical, max_rep, max_def = lm["physical"], lm["max_rep"], lm["max_def"]
    leaf = _storage_cast(leaf)
    n_values = len(dfl) if dfl is not None else len(leaf)
    type_length = lm.get("type_length", 0)

    # page split: row-aligned leaves only (one leaf entry per level
    # entry, no repetition) — every page starts on a record boundary
    paginate = (data_page_rows is not None and max_rep == 0
                and len(leaf) == n_values
                and n_values > int(data_page_rows))
    if paginate:
        step = int(data_page_rows)
        bounds = [(a, min(a + step, n_values))
                  for a in range(0, n_values, step)]
    else:
        bounds = [(0, n_values)]

    # dictionary attempt: classic PLAIN_DICTIONARY (dict page +
    # 1-byte-width hybrid indices per data page) when the dict page
    # plus the index bodies written shrink the chunk; PLAIN otherwise
    dict_blob = None
    if use_dictionary:
        enc = _dict_encode(leaf, physical)
        if enc is not None:
            dict_plain, dict_idx, dict_width, n_dict = enc
            cuts = []
            if len(bounds) > 1:
                # a page's index slice ends at its non-null prefix count
                nn = np.cumsum(~leaf.is_null().to_numpy(zero_copy_only=False))
                cuts = nn[[b - 1 for _, b in bounds[:-1]]]
            index_bodies = [_dict_index_body(i, dict_width)
                            for i in np.split(dict_idx, cuts)]
            if (len(dict_plain) + sum(map(len, index_bodies))
                    < _plain_size(leaf, physical)):
                dict_blob = (dict_plain, index_bodies)
    value_enc = None
    if dict_blob is not None:
        value_enc = _ENC_PLAIN_DICT
    elif encodings_mode == "auto":
        if physical in ("INT32", "INT64") and len(leaf):
            vals = leaf.drop_null().to_numpy(zero_copy_only=False)
            delta = _delta_bp_encode(
                np.asarray(vals, np.int64),
                bits=32 if physical == "INT32" else 64,
                max_bytes=_plain_size(leaf, physical) - 1)
            if delta is not None:
                value_enc = _ENC_DELTA_BP
        elif physical in ("FLOAT", "DOUBLE") and codec is not None:
            value_enc = _ENC_BYTE_STREAM_SPLIT
    if value_enc is None:
        value_enc = _ENC_PLAIN
    if dict_blob is not None and page_version == "2.0":
        # the spec deprecates PLAIN_DICTIONARY for v2 data pages: the
        # dict page declares PLAIN, the data page RLE_DICTIONARY
        value_enc = _ENC_RLE_DICT
        encodings = [_ENC_PLAIN, _ENC_RLE_DICT, _ENC_RLE]
    else:
        encodings = [value_enc, _ENC_RLE]

    def page_value_body(page: int, leaf_pg: pa.Array) -> bytes:
        if dict_blob is not None:
            return dict_blob[1][page]
        if value_enc == _ENC_DELTA_BP:
            v = leaf_pg.drop_null().to_numpy(zero_copy_only=False)
            return _delta_bp_encode(
                np.asarray(v, np.int64),
                bits=32 if physical == "INT32" else 64)
        if value_enc == _ENC_BYTE_STREAM_SPLIT:
            return _bss_encode(leaf_pg, physical)
        return _plain_encode(leaf_pg, physical, type_length)

    first_offset = len(out)
    dict_page_offset = None
    uncomp_total = comp_total = 0

    def emit(header: _Struct, raw_len: int, *parts: bytes) -> None:
        nonlocal uncomp_total, comp_total
        hb = header.tobytes()
        out.extend(hb)
        for p in parts:
            out.extend(p)
        uncomp_total += len(hb) + raw_len
        comp_total += len(hb) + sum(len(p) for p in parts)

    if dict_blob is not None:
        # dictionary pages keep the v1 layout under both page versions
        body = dict_blob[0]
        comp = codec.compress(body).to_pybytes() if codec else body
        denc = _ENC_PLAIN if page_version == "2.0" else _ENC_PLAIN_DICT
        dphd = _Struct().i32(1, n_dict).i32(2, denc)
        dict_page_offset = len(out)
        emit(_Struct().i32(1, 2).i32(2, len(body)).i32(3, len(comp))
             .i32(4, _crc32_signed(comp)).struct(7, dphd), len(body), comp)

    data_page_offset = len(out)
    pages = []  # per page: location + stats for the page index
    for page, (a, b) in enumerate(bounds):
        leaf_pg = leaf if len(bounds) == 1 else leaf.slice(a, b - a)
        rep_pg = rep if len(bounds) == 1 else None  # paginate => no rep
        dfl_pg = (dfl if len(bounds) == 1
                  else (dfl[a:b] if dfl is not None else None))
        n_vals_pg = b - a
        value_body = page_value_body(page, leaf_pg)
        page_off = len(out)
        rep_b = _level_stream(rep_pg, max_rep)
        def_b = _level_stream(dfl_pg, max_def)
        if page_version == "2.0":
            vals_comp = (codec.compress(value_body).to_pybytes()
                         if codec else value_body)
            num_rows = (int((rep_pg == 0).sum()) if max_rep
                        else n_vals_pg)
            num_nulls = n_vals_pg - (len(leaf_pg) - leaf_pg.null_count)
            dph2 = (_Struct().i32(1, n_vals_pg).i32(2, num_nulls)
                    .i32(3, num_rows).i32(4, value_enc)
                    .i32(5, len(def_b)).i32(6, len(rep_b))
                    .bool_(7, codec is not None))
            uncomp = len(rep_b) + len(def_b) + len(value_body)
            emit(_Struct().i32(1, 3).i32(2, uncomp)
                 .i32(3, len(rep_b) + len(def_b) + len(vals_comp))
                 .i32(4, _crc32_signed(rep_b, def_b, vals_comp))
                 .struct(8, dph2), uncomp, rep_b, def_b, vals_comp)
        else:
            body = b"".join([len(lv).to_bytes(4, "little") + lv
                             for lv, m in ((rep_b, max_rep), (def_b, max_def))
                             if m] + [value_body])
            comp = codec.compress(body).to_pybytes() if codec else body
            dph = (_Struct().i32(1, n_vals_pg).i32(2, value_enc)
                   .i32(3, _ENC_RLE).i32(4, _ENC_RLE))
            emit(_Struct().i32(1, 0).i32(2, len(body)).i32(3, len(comp))
                 .i32(4, _crc32_signed(comp)).struct(5, dph), len(body),
                 comp)
        n_nonnull = len(leaf_pg) - leaf_pg.null_count
        pages.append({
            "offset": page_off,
            "size": len(out) - page_off,  # header included, per spec
            "first_row": a if max_rep == 0 else 0,
            "mm": _minmax_bytes(leaf_pg, physical),
            "nulls": n_vals_pg - n_nonnull,
            "null_page": n_nonnull == 0,
        })

    meta = (_Struct().i32(1, _PT[physical])
            .list_i32(2, encodings)
            .list_binary(3, lm["path"])
            .i32(4, _CODECS[compression])
            .i64(5, n_values)
            .i64(6, uncomp_total)
            .i64(7, comp_total)
            .i64(9, data_page_offset))
    if dict_page_offset is not None:
        meta.i64(11, dict_page_offset)
    st = _statistics(leaf, physical, n_values)
    if st is not None:
        meta.struct(12, st)
    # PageEncodingStats (ColumnMetaData field 13): per-page-type
    # encoding counts — lets readers PROVE "every data page is
    # dict-encoded" and prune equality predicates by dictionary
    # membership alone (parquet-mr's dictionary filtering)
    enc_stats = []
    if dict_blob is not None:
        enc_stats.append(_Struct().i32(1, 2).i32(2, denc).i32(3, 1))
    enc_stats.append(_Struct()
                     .i32(1, 3 if page_version == "2.0" else 0)
                     .i32(2, value_enc).i32(3, len(bounds)))
    meta.list_struct(13, enc_stats)
    rec = {"first_offset": first_offset, "meta": meta,
           "pages": pages,
           "index_ok": all(p["mm"] is not None
                           or p["null_page"]
                           for p in pages)}
    if bloom_fpp is not None:
        from .bloom import hash_plain_values

        rec["bloom"] = (np.unique(hash_plain_values(leaf, physical)),
                        bloom_fpp)
    col_chunks.append(rec)
    return uncomp_total


def check_options(compression: str, encodings: str,
                  page_version: str) -> str:
    """Validate the writer's options; returns the compression's parquet
    name (``NONE`` and any case are accepted)."""
    name = compression.upper()
    name = "UNCOMPRESSED" if name == "NONE" else name
    if name not in _CODECS:
        raise ValueError(f"unsupported compression {compression}")
    if encodings not in ("classic", "auto"):
        raise ValueError(
            f"encodings must be 'classic' or 'auto', got {encodings!r}")
    if page_version not in ("1.0", "2.0"):
        raise ValueError(
            f"page_version must be '1.0' or '2.0', got {page_version!r}")
    return name


def write_parquet_via_kernels(table: pa.Table, path: str,
                              compression: str = "UNCOMPRESSED",
                              row_group_size: int = 1 << 20,
                              use_dictionary: bool = True,
                              encodings: str = "classic",
                              page_version: str = "1.0",
                              data_page_rows: int | None = None,
                              bloom_filters=None) -> dict:
    """Write ``table`` as standard Parquet through our kernels.

    ``bloom_filters``: list of flat top-level column names (or a
    ``{name: fpp}`` dict) to emit split-block bloom filters for — see
    ``encode_parquet_bytes``.  Returns a small stats dict
    ({rows, row_groups, bytes})."""
    blob = encode_parquet_bytes(table, compression=compression,
                                row_group_size=row_group_size,
                                use_dictionary=use_dictionary,
                                encodings=encodings,
                                page_version=page_version,
                                data_page_rows=data_page_rows,
                                bloom_filters=bloom_filters)
    with open(path, "wb") as fh:
        fh.write(blob)
    return {"rows": table.num_rows,
            "row_groups": max(1, -(-table.num_rows // row_group_size)),
            "bytes": len(blob)}


def encode_parquet_bytes(table: pa.Table,
                         compression: str = "UNCOMPRESSED",
                         row_group_size: int = 1 << 20,
                         use_dictionary: bool = True,
                         encodings: str = "classic",
                         page_version: str = "1.0",
                         data_page_rows: int | None = None,
                         bloom_filters=None) -> bytearray:
    """Encode ``table`` as a standard Parquet file image through our
    kernels (thrift footer, Dremel shredding, RLE levels, PLAIN /
    PLAIN_DICTIONARY values).  Returns the bytearray itself —
    no defensive copy; file.write / fsio.write_atomic take it as-is.

    ``data_page_rows`` splits row-aligned (flat) column chunks into
    data pages of that many rows.  The parquet PageIndex structures are
    always written after the row groups: per-chunk OffsetIndex (page
    locations + first row), and ColumnIndex (per-page min/max/null
    counts, parquet-format PageIndex.md) whenever every page has
    computable statistics — so readers can prune at page granularity
    without touching the pages.  Without ``data_page_rows`` chunks stay
    one page each (the index is then row-group-equivalent but still
    spec-complete).

    ``bloom_filters`` (list of flat top-level column names, or a
    ``{name: fpp}`` dict, default fpp 0.01) emits a split-block bloom
    filter per column chunk (parquet-format BloomFilter.md; XXH64 over
    plain encodings — `bloom.py`), stored after the page indexes and
    referenced from ColumnMetaData fields 14/15, for point-lookup
    row-group pruning on unsorted high-cardinality columns where
    min/max statistics prune nothing.  Supported on INT32/INT64/FLOAT/
    DOUBLE/BYTE_ARRAY flat columns; anything else raises up front."""
    compression = check_options(compression, encodings, page_version)
    codec = _page_codec(compression)
    table = table.combine_chunks()
    schema_els = [_Struct().binary(4, "schema").i32(5, len(table.schema))]
    field_metas: list[list[dict]] = []
    for f in table.schema:
        field_metas.append([])
        schema_els += _schema_element_tree(f.name, f.type, int(f.nullable),
                                           field_metas[-1])

    bloom_spec: dict[str, float] = {}
    if bloom_filters:
        bloom_spec = (dict(bloom_filters)
                      if isinstance(bloom_filters, dict)
                      else {c: 0.01 for c in bloom_filters})
        flat = {f.name for f, m in zip(table.schema, field_metas)
                if len(m) == 1 and len(m[0]["path"]) == 1}
        bad = set(bloom_spec) - flat
        if bad:
            raise ValueError(
                f"bloom_filters must name flat top-level columns; "
                f"not flat/present: {sorted(bad)}")

    out = bytearray(b"PAR1")
    rg_records: list[tuple[list[dict], int, int]] = []
    for start in range(0, max(table.num_rows, 1), row_group_size):
        chunk = table.slice(start, row_group_size)
        if chunk.num_rows == 0 and start > 0:
            break
        col_chunks: list[dict] = []
        total_uncomp = 0
        for ci, field in enumerate(table.schema):
            arr = chunk.column(ci).combine_chunks()
            streams = _shred_field(arr, field)
            metas = field_metas[ci]
            if len(streams) != len(metas):  # schema/shred divergence
                raise RuntimeError(
                    f"leaf stream count mismatch for {field.name}: "
                    f"{len(streams)} streams vs {len(metas)} leaves")
            for (rep, dfl, leaf), lm in zip(streams, metas):
                fpp = (bloom_spec.get(lm["path"][0])
                       if len(lm["path"]) == 1 else None)
                total_uncomp += _write_column_chunk(
                    out, col_chunks, leaf, rep, dfl, lm, codec,
                    compression, use_dictionary, encodings, page_version,
                    data_page_rows, bloom_fpp=fpp)
        rg_records.append((col_chunks, total_uncomp, chunk.num_rows))
        if table.num_rows == 0:
            break

    # PageIndex structures (parquet-format PageIndex.md): all
    # ColumnIndexes, then all OffsetIndexes, between the last page and
    # the footer — readers locate them via ColumnChunk fields 4-7
    for col_chunks, _, _ in rg_records:
        for rec in col_chunks:
            if not rec["index_ok"]:
                continue
            pgs = rec["pages"]
            ci_struct = (_Struct()
                         .list_bool(1, [p["null_page"] for p in pgs])
                         .list_binary(2, [b"" if p["mm"] is None
                                          else p["mm"][0]
                                          for p in pgs])
                         .list_binary(3, [b"" if p["mm"] is None
                                          else p["mm"][1]
                                          for p in pgs])
                         .i32(4, 0)  # BoundaryOrder.UNORDERED
                         .list_i64(5, [p["nulls"] for p in pgs]))
            blob = ci_struct.tobytes()
            rec["column_index"] = (len(out), len(blob))
            out += blob
    for col_chunks, _, _ in rg_records:
        for rec in col_chunks:
            locs = [_Struct().i64(1, p["offset"])
                    .i32(2, p["size"]).i64(3, p["first_row"])
                    for p in rec["pages"]]
            blob = _Struct().list_struct(1, locs).tobytes()
            rec["offset_index"] = (len(out), len(blob))
            out += blob

    # split-block bloom filters, one per opted-in column chunk, after
    # the page indexes; ColumnMetaData fields 14/15 point at each
    if bloom_spec:
        from .bloom import SplitBlockBloom, encode_bloom_blob

        for col_chunks, _, _ in rg_records:
            for rec in col_chunks:
                if "bloom" not in rec:
                    continue
                hashes, fpp = rec["bloom"]
                f = SplitBlockBloom.for_ndv(len(hashes), fpp)
                f.add_hashes(hashes)
                blob = encode_bloom_blob(f)
                rec["meta"].i64(14, len(out)).i32(15, len(blob))
                out += blob

    row_groups: list[_Struct] = []
    for col_chunks, total_uncomp, n_rows in rg_records:
        cc_structs = []
        for rec in col_chunks:
            s = (_Struct().i64(2, rec["first_offset"])
                 .struct(3, rec["meta"])
                 .i64(4, rec["offset_index"][0])
                 .i32(5, rec["offset_index"][1]))
            if "column_index" in rec:
                s.i64(6, rec["column_index"][0])
                s.i32(7, rec["column_index"][1])
            cc_structs.append(s)
        # RowGroup.total_byte_size is the UNCOMPRESSED data size per the
        # parquet spec (readers use it to budget decode memory)
        row_groups.append(_Struct().list_struct(1, cc_structs)
                          .i64(2, total_uncomp).i64(3, n_rows))

    # column_orders: TYPE_ORDER for every leaf — without it readers
    # (pyarrow included) ignore min_value/max_value statistics
    n_leaves = sum(len(m) for m in field_metas)
    type_order = _Struct().struct(1, _Struct())  # ColumnOrder union
    footer = (_Struct().i32(1, 1)
              .list_struct(2, schema_els)
              .i64(3, table.num_rows)
              .list_struct(4, row_groups)
              .binary(6, "parquet_hs_ray kernel writer")
              .list_struct(7, [type_order] * n_leaves)).tobytes()
    out += footer
    out += len(footer).to_bytes(4, "little")
    out += b"PAR1"
    return out
