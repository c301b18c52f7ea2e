"""Kernel parquet FOOTER parser — no pyarrow metadata anywhere.

Parses the thrift compact-protocol ``FileMetaData`` at the file tail
(PAR1 magic, u32-LE footer length) with the same `_read_compact_struct`
machinery the page reader uses, rebuilds the Arrow schema from the
``SchemaElement`` tree (converted + logical types: UTF8, LIST, MAP,
TIMESTAMP, DATE, DECIMAL), and computes per-leaf max rep/def levels by
walking repetitions along each path — the reference's ``readMetadata``
+ ``calcMaxEncodingLevels`` (`/root/reference/src/Parquet/Reader.hs:
197-213`, `Stream/Reader.hs:286-306`) without delegating either to
pyarrow.  With this, `read_parquet_via_kernels` is
fully self-hosted: footer, pages, levels, values and record assembly
are all our kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import pyarrow as pa

from .parquet_pages import _read_compact_struct

# SchemaElement.repetition_type
_REQUIRED, _OPTIONAL, _REPEATED = 0, 1, 2
_PHYSICAL = {0: "BOOLEAN", 1: "INT32", 2: "INT64", 3: "INT96",
             4: "FLOAT", 5: "DOUBLE", 6: "BYTE_ARRAY",
             7: "FIXED_LEN_BYTE_ARRAY"}
_CODEC = {0: "UNCOMPRESSED", 1: "SNAPPY", 2: "GZIP", 3: "LZO",
          4: "BROTLI", 5: "LZ4", 6: "ZSTD", 7: "LZ4_RAW"}
# ConvertedType values we map
_CONV_UTF8, _CONV_MAP, _CONV_MAP_KV, _CONV_LIST, _CONV_DECIMAL = \
    0, 1, 2, 3, 5
_CONV_DATE, _CONV_TS_MILLIS, _CONV_TS_MICROS = 6, 9, 10


@dataclass
class LeafInfo:
    """One parquet leaf column, footer order."""
    path: str                 # dotted path_in_schema
    physical: str
    max_rep: int
    max_def: int
    type_length: int = 0


@dataclass
class StatsInfo:
    """Raw chunk ``Statistics`` (parquet.thrift): ``min_value`` /
    ``max_value`` are the spec's TYPE_ORDER-comparable encodings (plain
    little-endian ints/floats, raw bytes for BYTE_ARRAY, big-endian
    two's-complement for decimal FLBA); decode with
    :func:`decode_stat_value`.  The deprecated signed-order ``min`` /
    ``max`` (fields 1/2) are accepted as a fallback ONLY for types
    where both orderings agree (see ``parse_footer``).  The reference
    models the same struct (`/root/reference/src/Parquet/Types/
    Primitives.hs:79-87`)."""
    min_raw: bytes | None = None
    max_raw: bytes | None = None
    null_count: int | None = None
    deprecated_order: bool = False  # values came from fields 1/2


@dataclass
class ChunkInfo:
    """One column chunk inside a row group."""
    codec: str
    num_values: int
    data_page_offset: int
    dictionary_page_offset: int | None
    total_compressed_size: int
    statistics: StatsInfo | None = None
    offset_index_offset: int | None = None
    offset_index_length: int | None = None
    column_index_offset: int | None = None
    column_index_length: int | None = None
    bloom_filter_offset: int | None = None   # ColumnMetaData field 14
    bloom_filter_length: int | None = None   # ColumnMetaData field 15
    # PageEncodingStats (field 13): (page_type, encoding, count)
    encoding_stats: "list[tuple[int, int, int]] | None" = None


@dataclass
class RowGroupInfo:
    num_rows: int
    total_byte_size: int
    columns: list[ChunkInfo] = field(default_factory=list)


@dataclass
class KernelFileMetaData:
    num_rows: int
    created_by: str
    schema: pa.Schema
    leaves: list[LeafInfo]
    row_groups: list[RowGroupInfo]


def _leaf_arrow_type(el: dict) -> pa.DataType:
    """Arrow type of one primitive SchemaElement."""
    phys = _PHYSICAL[el[1]]
    conv = el.get(6)
    logical = el.get(10) or {}
    # LogicalType union field ids (parquet.thrift): 1 STRING, 2 MAP,
    # 3 LIST, 4 ENUM, 5 DECIMAL, 6 DATE, 7 TIME, 8 TIMESTAMP,
    # 10 INTEGER, 12 JSON, 13 BSON, 15 FLOAT16
    if conv == _CONV_DECIMAL or 5 in logical:
        dec = logical.get(5, {})
        scale = dec.get(1, el.get(7, 0))
        precision = dec.get(2, el.get(8, 0))
        return pa.decimal128(precision, scale)
    if 8 in logical:  # TIMESTAMP
        ts = logical[8]
        unit = {1: "ms", 2: "us", 3: "ns"}[next(iter(ts.get(2, {1: {}})))]
        return pa.timestamp(unit, tz="UTC" if ts.get(1) else None)
    if conv == _CONV_TS_MILLIS:
        return pa.timestamp("ms")
    if conv == _CONV_TS_MICROS:
        return pa.timestamp("us")
    if conv == _CONV_DATE or 6 in logical:
        return pa.date32()
    if 7 in logical:  # TIME {1: isAdjustedToUTC, 2: TimeUnit union}
        unit = {1: "ms", 2: "us", 3: "ns"}[
            next(iter(logical[7].get(2, {1: {}})))]
        return pa.time32(unit) if unit == "ms" else pa.time64(unit)
    if conv == 7:  # TIME_MILLIS
        return pa.time32("ms")
    if conv == 8:  # TIME_MICROS
        return pa.time64("us")
    if 10 in logical:  # INTEGER {1: bitWidth, 2: isSigned}
        bits = logical[10].get(1, 32)
        signed = logical[10].get(2, True)
        return {(8, True): pa.int8(), (16, True): pa.int16(),
                (32, True): pa.int32(), (64, True): pa.int64(),
                (8, False): pa.uint8(), (16, False): pa.uint16(),
                (32, False): pa.uint32(), (64, False): pa.uint64()}[
                    (bits, signed)]
    if conv is not None and 11 <= conv <= 18:
        # ConvertedType UINT_8..UINT_64 (11-14), INT_8..INT_64 (15-18)
        return [pa.uint8(), pa.uint16(), pa.uint32(), pa.uint64(),
                pa.int8(), pa.int16(), pa.int32(),
                pa.int64()][conv - 11]
    if 15 in logical:  # FLOAT16 (FLBA(2))
        return pa.float16()
    if phys == "BYTE_ARRAY":
        if (conv in (_CONV_UTF8, 4, 19) or 1 in logical or 4 in logical
                or 12 in logical):  # UTF8 / ENUM / JSON
            return pa.string()
        return pa.binary()  # raw, BSON included
    if conv is not None and conv not in (_CONV_UTF8, 20):
        # anything still annotated and unhandled (INTERVAL, ...) must
        # not silently fall back to the raw physical type
        raise NotImplementedError(
            f"kernel footer: converted type {conv} on {phys}")
    if phys == "FIXED_LEN_BYTE_ARRAY":
        return pa.binary(el.get(2, 0))
    if phys == "INT96":
        return pa.timestamp("ns")
    return {"BOOLEAN": pa.bool_(), "INT32": pa.int32(),
            "INT64": pa.int64(), "FLOAT": pa.float32(),
            "DOUBLE": pa.float64()}[phys]


def _build_node(els: list[dict], i: int, r: int, d: int,
                leaves: list[LeafInfo], prefix: tuple
                ) -> tuple[pa.Field, int]:
    """Rebuild one schema-tree node from the flat DFS SchemaElement
    list; returns (arrow field, next element index).  Tracks rep/def
    levels along the walk (``calcMaxEncodingLevels``): OPTIONAL adds a
    def level, REPEATED adds one rep AND one def level."""
    el = els[i]
    name = el[4].decode()
    repetition = el.get(3, _REQUIRED)
    nullable = repetition == _OPTIONAL
    r2 = r + (1 if repetition == _REPEATED else 0)
    d2 = d + (0 if repetition == _REQUIRED else 1)
    n_children = el.get(5, 0)
    if not n_children:
        t = _leaf_arrow_type(el)
        leaves.append(LeafInfo(
            path=".".join(prefix + (name,)), physical=_PHYSICAL[el[1]],
            max_rep=r2, max_def=d2,
            type_length=el.get(2, 0) or 0))
        return pa.field(name, t, nullable=nullable), i + 1

    conv = el.get(6)
    logical = el.get(10) or {}
    if conv == _CONV_LIST or 3 in logical:
        mid = els[i + 1]
        mid_name = mid[4].decode()
        # parquet-format LogicalTypes.md backward-compat rules: the
        # repeated node IS the element (2-level list) when it is a
        # leaf, has != 1 child, or is named "array" / "<name>_tuple"
        three_level = (mid.get(3) == _REPEATED and mid.get(5, 0) == 1
                       and mid_name != "array"
                       and not mid_name.endswith("_tuple"))
        if three_level:
            elem, nxt = _build_node(els, i + 2, r2 + 1, d2 + 1, leaves,
                                    prefix + (name, mid_name))
            return pa.field(name, pa.list_(elem), nullable=nullable), nxt
        # 2-level legacy list: the repeated node itself is the element
        elem, nxt = _build_node(els, i + 1, r2, d2, leaves,
                                prefix + (name,))
        return pa.field(
            name, pa.list_(elem.with_nullable(False)),
            nullable=nullable), nxt
    if conv in (_CONV_MAP, _CONV_MAP_KV) or 2 in logical:
        kv = els[i + 1]  # repeated key_value group
        if kv.get(5, 0) != 2:
            raise NotImplementedError(
                f"kernel footer: map group {name!r} with "
                f"{kv.get(5, 0)} key_value children (key-only maps "
                "are not supported)")
        kvp = prefix + (name, kv[4].decode())
        key, j = _build_node(els, i + 2, r2 + 1, d2 + 1, leaves, kvp)
        val, nxt = _build_node(els, j, r2 + 1, d2 + 1, leaves, kvp)
        return pa.field(
            name, pa.map_(key.with_nullable(False), val),
            nullable=nullable), nxt

    # plain struct (or legacy repeated group: expose as struct field —
    # the shapes our writer/reader produce never hit that form)
    children = []
    j = i + 1
    for _ in range(n_children):
        ch, j = _build_node(els, j, r2, d2, leaves, prefix + (name,))
        children.append(ch)
    return pa.field(name, pa.struct(children), nullable=nullable), j


def parse_footer(blob: bytes) -> KernelFileMetaData:
    """Parse a raw FileMetaData thrift blob.  Encrypted files are
    refused: field 8 (``encryption_algorithm``) marks a plaintext footer
    over encrypted column chunks (parquet-format Encryption.md)."""
    meta, _ = _read_compact_struct(blob, 0, "FileMetaData")
    if 8 in meta:
        raise ValueError(
            "encrypted parquet unsupported: FileMetaData carries "
            "encryption_algorithm (plaintext-footer mode)")
    missing = [name for fid, name in ((2, "schema"), (3, "num_rows"))
               if fid not in meta]
    if missing:
        raise ValueError(
            f"FileMetaData missing required field(s) {missing}")
    els = meta[2]
    root_children = els[0].get(5, 0)
    fields = []
    leaves: list[LeafInfo] = []
    i = 1
    for _ in range(root_children):
        f, i = _build_node(els, i, 0, 0, leaves, ())
        fields.append(f)
    row_groups = []
    for rg in meta.get(4, []):
        cols = []
        for cc in rg[1]:
            cm = cc.get(3)
            if cm is None:
                # ColumnChunk.meta_data is optional: some writers park
                # it in a separate file via file_path/file_offset
                raise NotImplementedError(
                    "kernel footer: column chunk without inline "
                    "meta_data (external file_path metadata)")
            st = cm.get(12)
            stats = None
            if st is not None:
                # prefer the TYPE_ORDER min_value/max_value (5/6); the
                # deprecated min/max (2/1) used SIGNED ordering, so they
                # are only trusted where both orderings agree (see
                # decode_stat_value's callers)
                stats = StatsInfo(
                    min_raw=st.get(6, st.get(2)),
                    max_raw=st.get(5, st.get(1)),
                    null_count=st.get(3),
                    deprecated_order=6 not in st and 5 not in st)
            cols.append(ChunkInfo(
                codec=_CODEC[cm[4]], num_values=cm[5],
                data_page_offset=cm[9],
                dictionary_page_offset=cm.get(11),
                total_compressed_size=cm[7],
                statistics=stats,
                offset_index_offset=cc.get(4),
                offset_index_length=cc.get(5),
                column_index_offset=cc.get(6),
                column_index_length=cc.get(7),
                bloom_filter_offset=cm.get(14),
                bloom_filter_length=cm.get(15),
                encoding_stats=(
                    [(e.get(1, 0), e.get(2, 0), e.get(3, 0))
                     for e in cm[13]] if 13 in cm else None)))
        row_groups.append(RowGroupInfo(num_rows=rg[3],
                                       total_byte_size=rg[2],
                                       columns=cols))
    return KernelFileMetaData(
        num_rows=meta[3],
        created_by=(meta.get(6) or b"").decode(errors="replace"),
        schema=pa.schema(fields), leaves=leaves, row_groups=row_groups)


def decode_stat_value(raw: bytes, physical: str, typ: pa.DataType,
                      type_length: int = 0):
    """Decode one TYPE_ORDER-encoded statistics value (parquet.thrift
    ``min_value``/``max_value``) to a comparable Python value, or None
    when the type has no unambiguous decode (pruning then skips it)."""
    import datetime
    import decimal
    import struct

    if raw is None:
        return None
    try:
        if pa.types.is_decimal(typ):
            unscaled = int.from_bytes(raw, "big", signed=True)
            return decimal.Decimal(unscaled).scaleb(-typ.scale)
        if physical == "BOOLEAN":
            return bool(raw[0]) if raw else None
        if physical in ("INT32", "INT64"):
            signed = not (pa.types.is_unsigned_integer(typ))
            v = int.from_bytes(raw, "little", signed=signed)
            if pa.types.is_date32(typ):
                return (datetime.date(1970, 1, 1)
                        + datetime.timedelta(days=v))
            if pa.types.is_timestamp(typ):
                unit = {"s": 1_000_000_000, "ms": 1_000_000,
                        "us": 1_000, "ns": 1}[typ.unit]
                if (v * unit) % 1000:
                    # sub-microsecond precision would truncate, and a
                    # truncated MAX could wrongly prune a matching row
                    # group — skip pruning instead
                    return None
                ts = datetime.datetime(1970, 1, 1) + \
                    datetime.timedelta(microseconds=v * unit // 1000)
                if typ.tz is not None:
                    ts = ts.replace(tzinfo=datetime.timezone.utc)
                return ts
            if pa.types.is_time(typ):
                return None  # rarely predicated on; skip pruning
            return v
        if physical == "FLOAT":
            return struct.unpack("<f", raw)[0]
        if physical == "DOUBLE":
            return struct.unpack("<d", raw)[0]
        if physical == "BYTE_ARRAY":
            return raw.decode() if pa.types.is_string(typ) else bytes(raw)
        if physical == "FIXED_LEN_BYTE_ARRAY":
            if pa.types.is_float16(typ):
                return struct.unpack("<e", raw)[0]
            return bytes(raw)
    except (ValueError, OverflowError, struct.error):
        return None
    return None  # INT96 and anything else: no pruning


# deprecated (signed-order) min/max agree with TYPE_ORDER only here
_DEPRECATED_ORDER_OK = ("INT32", "INT64", "FLOAT", "DOUBLE", "BOOLEAN")


def _stat_bounds(min_raw, max_raw, leaf, typ) -> tuple:
    """Decoded (lo, hi) of a min/max pair; (None, None) when either is
    missing or undecodable."""
    if min_raw is None or max_raw is None:
        return None, None
    lo = decode_stat_value(min_raw, leaf.physical, typ, leaf.type_length)
    hi = decode_stat_value(max_raw, leaf.physical, typ, leaf.type_length)
    return (None, None) if lo is None or hi is None else (lo, hi)


def prune_row_groups_by_stats_kernels(km: KernelFileMetaData,
                                      preds: list) -> list[int]:
    """Row groups that MAY satisfy every ``(column, op, value)``
    predicate, judged from OUR footer parser's chunk statistics — min/max
    and null counts through `predicates.may_match`, zero pyarrow
    metadata anywhere (``parquet_pages.prune_row_groups_by_stats`` is
    the pyarrow-metadata oracle for it).  Flat top-level columns only
    (`predicates.leaf_index`); missing or undecodable stats keep the
    row group."""
    from .. import predicates as P

    leaves = P.leaf_index(km.schema)
    kept = []
    for rg_i, rg in enumerate(km.row_groups):
        ok = True
        for col, op, val in preds:
            if col not in leaves:
                continue  # nested/unknown column: cannot prune on it
            li, typ = leaves[col]
            leaf = km.leaves[li]
            st = rg.columns[li].statistics
            if st is None:
                continue
            lo = hi = None
            if not st.deprecated_order or (
                    leaf.physical in _DEPRECATED_ORDER_OK
                    and not pa.types.is_unsigned_integer(typ)):
                lo, hi = _stat_bounds(st.min_raw, st.max_raw, leaf, typ)
            if not P.may_match(op, val, lo, hi, st.null_count, rg.num_rows):
                ok = False
                break
        if ok:
            kept.append(rg_i)
    return kept


@dataclass
class PageLocation:
    """OffsetIndex entry (parquet.thrift PageLocation)."""
    offset: int
    compressed_page_size: int  # header included, per spec
    first_row_index: int


@dataclass
class ColumnIndexInfo:
    """ColumnIndex (parquet.thrift): per-page null flags, TYPE_ORDER
    min/max encodings and null counts."""
    null_pages: list
    min_values: list
    max_values: list
    boundary_order: int = 0
    null_counts: list | None = None


def parse_offset_index(blob: bytes) -> list[PageLocation]:
    """Thrift compact OffsetIndex -> page locations."""
    s, _ = _read_compact_struct(blob, 0, "OffsetIndex")
    return [PageLocation(offset=p[1], compressed_page_size=p[2],
                         first_row_index=p[3]) for p in s[1]]


def parse_column_index(blob: bytes) -> ColumnIndexInfo:
    """Thrift compact ColumnIndex -> per-page statistics."""
    s, _ = _read_compact_struct(blob, 0, "ColumnIndex")
    return ColumnIndexInfo(null_pages=s[1], min_values=s[2],
                           max_values=s[3], boundary_order=s.get(4, 0),
                           null_counts=s.get(5))


def _merge_ranges(ranges: list) -> list:
    """Sorted disjoint union of half-open [a, b) row ranges."""
    out = []
    for a, b in sorted(ranges):
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


def _intersect_ranges(x: list, y: list) -> list:
    """Intersection of two sorted disjoint half-open range lists."""
    out, i, j = [], 0, 0
    while i < len(x) and j < len(y):
        a = max(x[i][0], y[j][0])
        b = min(x[i][1], y[j][1])
        if a < b:
            out.append((a, b))
        if x[i][1] <= y[j][1]:
            i += 1
        else:
            j += 1
    return out


def prune_pages_by_index(km: KernelFileMetaData, path: str, rg: int,
                         preds: list, filesystem=None) -> list | None:
    """PAGE-granular pruning: candidate row ranges of row group ``rg``
    that MAY satisfy every ``(column, op, value)`` predicate, judged
    from the chunk ColumnIndex/OffsetIndex structures (parquet-format
    PageIndex.md; the reference parses the same ColumnChunk offsets,
    `/root/reference/src/Parquet/Types/ColumnChunk.hs:19-30`).

    Returns a sorted disjoint list of half-open row ranges, or None
    when no predicate column carries a usable page index OR the index
    cannot rule out any rows — callers then fall back to whole-row-
    group decode.  Each page is judged by `predicates.may_match` on its
    min/max and null count: an all-null page can match only
    ``is_null``, and a page with no nulls cannot match it.
    Undecodable/missing stats keep a page."""
    from .. import predicates as P
    from .parquet_pages import _read_range

    leaves = P.leaf_index(km.schema)
    n_rows = km.row_groups[rg].num_rows
    result = None  # None = "all rows" until a usable index narrows it
    for col, op, val in preds:
        if col not in leaves:
            continue
        li, typ = leaves[col]
        leaf = km.leaves[li]
        cc = km.row_groups[rg].columns[li]
        if cc.column_index_offset is None or cc.offset_index_offset is None:
            continue
        cidx = parse_column_index(_read_range(
            path, cc.column_index_offset, cc.column_index_length,
            filesystem))
        oidx = parse_offset_index(_read_range(
            path, cc.offset_index_offset, cc.offset_index_length,
            filesystem))
        if len(cidx.null_pages) != len(oidx):
            continue  # malformed index: do not prune on it
        kept = []
        for i, loc in enumerate(oidx):
            row_a = loc.first_row_index
            row_b = (oidx[i + 1].first_row_index if i + 1 < len(oidx)
                     else n_rows)
            if cidx.null_pages[i]:
                lo = hi = None
                nulls = row_b - row_a
            else:
                lo, hi = _stat_bounds(cidx.min_values[i],
                                      cidx.max_values[i], leaf, typ)
                nulls = (cidx.null_counts[i] if cidx.null_counts
                         and len(cidx.null_counts) == len(oidx) else None)
            if P.may_match(op, val, lo, hi, nulls, row_b - row_a):
                kept.append((row_a, row_b))
        kept = _merge_ranges(kept)
        result = kept if result is None else _intersect_ranges(result,
                                                               kept)
    if result is None or result == [(0, n_rows)]:
        return None
    return result


def read_footer_via_kernels(path: str,
                            filesystem=None) -> KernelFileMetaData:
    """Read + parse a parquet file's footer through our kernels only:
    tail magic, u32-LE length, thrift compact FileMetaData.  Encrypted
    parquet (``PARE`` tail magic, or an ``encryption_algorithm`` in a
    plaintext footer) raises ``ValueError``.

    ``filesystem`` (any ``pyarrow.fs.FileSystem``, e.g. the HTTP-range
    filesystem in `state/httpfs.py`) makes this two ranged reads —
    8-byte tail, then the footer blob — the reference's
    ``remoteParquetFile`` access pattern
    (`/root/reference/src/Parquet/Reader.hs:223-248`)."""
    if filesystem is None and "://" not in path:
        import os

        size = os.path.getsize(path)
        fh = open(path, "rb")
    else:
        from ..state import fsio

        fs, p = fsio.resolve(path, filesystem)
        fh, size = fs.open_input_file(p), None
    with fh:
        size = fh.size() if size is None else size
        if size < 12:
            raise ValueError(f"{path}: too small to be parquet")
        fh.seek(size - 8)
        tail = fh.read(8)
        if tail[4:] == b"PARE":
            raise ValueError(
                f"{path}: encrypted parquet unsupported (PARE "
                "encrypted-footer mode)")
        if tail[4:] != b"PAR1":
            raise ValueError(f"{path}: missing PAR1 tail magic")
        flen = int.from_bytes(tail[:4], "little")
        if flen + 12 > size:
            raise ValueError(f"{path}: footer length {flen} overruns file")
        fh.seek(size - 8 - flen)
        blob = fh.read(flen)
    return parse_footer(blob)
