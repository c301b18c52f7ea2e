"""Kernel parquet WRITER: files we write must read back bit-identical
through THREE independent readers — pyarrow, DuckDB, and our own kernel
page reader (tests/test_format.py covers the reader side)."""

from hypothesis import given, settings
from hypothesis import strategies as st

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from parquet_hs_ray.sources.parquet_pages import read_parquet_via_kernels
from parquet_hs_ray.sources.parquet_writer import write_parquet_via_kernels


def _roundtrip(tbl: pa.Table, tmpdir, compression="UNCOMPRESSED",
               row_group_size=1 << 20):
    import os

    path = os.path.join(str(tmpdir), "t.parquet")
    write_parquet_via_kernels(tbl, path, compression=compression,
                              row_group_size=row_group_size)
    readers = [("pyarrow", pq.read_table(path)),
               ("kernels", read_parquet_via_kernels(path))]
    if compression != "LZ4":  # duckdb rejects the deprecated Hadoop
        readers.append(("duckdb", duckdb.sql(  # framing (id 5) outright
            f"SELECT * FROM read_parquet('{path}')").arrow()))
    for tag, back in readers:
        # list element names canonicalize to parquet's "element"; cast
        # back for comparison (nullability itself is preserved)
        assert back.cast(tbl.schema).equals(tbl), (tag, compression)


def test_writer_all_types_with_nulls(tmp_path):
    tbl = pa.table({
        "doc_id": pa.array(["d1", "d2", None, "d4"]),
        "tokens": pa.array([[1, 2, 3], [], None, [7, None, 9]],
                           pa.list_(pa.int32())),
        "n_tok": pa.array([3, 0, None, 3], pa.int32()),
        "f64": pa.array([1.5, None, 2.5, 3.5]),
        "f32": pa.array(np.array([1, 2, 3, 4], np.float32)),
        "b": pa.array([True, False, None, True]),
        "bin": pa.array([b"\x00\xff", b"", None, b"xyz"], pa.binary()),
        "req": pa.array([10, 20, 30, 40], pa.int64()),
    })
    sch = tbl.schema.set(7, pa.field("req", pa.int64(), nullable=False))
    tbl = tbl.cast(sch)
    for comp in ("UNCOMPRESSED", "SNAPPY", "GZIP", "ZSTD", "LZ4",
                 "LZ4_RAW"):
        _roundtrip(tbl, tmp_path, compression=comp)


def test_lz4_both_variants(tmp_path):
    """Both parquet LZ4s: codec id 7 (LZ4_RAW, plain blocks) and the
    deprecated id 5 (Hadoop ``[u32 BE out][u32 BE comp][block]``
    framing).  pyarrow's writer emits id 7 but its Python metadata
    labels it "LZ4" (and labels true id 5 "UNKNOWN"); the kernel reader
    takes the true id from our own footer parser."""
    import os

    tbl = pa.table({"x": pa.array(np.arange(20000) % 321),
                    "s": pa.array([f"v{i % 97}" for i in range(20000)]),
                    "f": pa.array(np.arange(20000) * 0.5)})
    # ours -> three readers, multiple row groups, both page versions
    for comp in ("LZ4", "LZ4_RAW"):
        _roundtrip(tbl, tmp_path, compression=comp, row_group_size=7000)
        p = os.path.join(str(tmp_path), "v2.parquet")
        write_parquet_via_kernels(tbl, p, compression=comp,
                                  page_version="2.0")
        assert read_parquet_via_kernels(p).equals(tbl)
        assert pq.read_table(p).equals(tbl)
    # our id-5 file, which pyarrow's metadata labels UNKNOWN
    p5 = os.path.join(str(tmp_path), "id5.parquet")
    write_parquet_via_kernels(tbl, p5, compression="LZ4")
    assert (pq.ParquetFile(p5).metadata.row_group(0).column(0)
            .compression == "UNKNOWN")
    assert read_parquet_via_kernels(p5).equals(tbl)
    # pyarrow-written lz4 (true id 7)
    ppa = os.path.join(str(tmp_path), "pa.parquet")
    pq.write_table(tbl, ppa, compression="lz4")
    assert read_parquet_via_kernels(ppa).equals(tbl)


def test_long_string_stats_truncate(tmp_path):
    """BYTE_ARRAY min/max truncate to 64 bytes (min = prefix, max =
    prefix with last byte incremented — still a valid bound pair), so
    document-length strings never bloat the footer or ColumnIndex;
    pruning on the truncated bounds stays correct for every reader."""
    import os

    from parquet_hs_ray.sources.parquet_footer import (
        prune_row_groups_by_stats_kernels, read_footer_via_kernels)

    rows = ["a" * 10 + f"{i:05d}" + "x" * 200 for i in range(3000)] + \
           ["z" * 70 + f"{i:05d}" for i in range(3000)]
    t = pa.table({"s": pa.array(rows), "i": pa.array(range(6000))})
    p = os.path.join(str(tmp_path), "trunc.parquet")
    write_parquet_via_kernels(t, p, compression="SNAPPY",
                              row_group_size=3000)
    km = read_footer_via_kernels(p)
    for rg in km.row_groups:
        st = rg.columns[0].statistics
        assert len(st.min_raw) <= 64 and len(st.max_raw) <= 65
    assert pq.read_table(p).equals(t)
    assert read_parquet_via_kernels(p).equals(t)
    assert prune_row_groups_by_stats_kernels(km, [("s", ">=", "z")]) == [1]
    assert prune_row_groups_by_stats_kernels(km, [("s", "<=", "b")]) == [0]
    # pyarrow's own row-group filtering honors the truncated bounds
    import pyarrow.dataset as pads

    assert pads.dataset(p).to_table(
        filter=(pads.field("s") >= "z")).num_rows == 3000
    # the all-0xFF-prefix edge drops the pair instead of writing a
    # wrong bound
    from parquet_hs_ray.sources.parquet_writer import _minmax_bytes

    assert _minmax_bytes(pa.array([b"\xff" * 80]), "BYTE_ARRAY") is None
    lo, hi = _minmax_bytes(pa.array([b"a" * 90, b"b" * 90]),
                           "BYTE_ARRAY")
    assert lo == b"a" * 64 and hi == b"b" * 63 + b"c"


def test_page_crc_checksums(tmp_path):
    """The writer stores CRC-32 on every page (PageHeader field 4);
    pyarrow's opt-in verification accepts our files, our reader (which
    always checks stored CRCs) accepts pyarrow's, and a flipped byte
    raises instead of decoding garbage."""
    import os

    tbl = pa.table({"x": pa.array(np.arange(30000) % 777),
                    "s": pa.array([f"v{i % 131}" for i in range(30000)])})
    for pv in ("1.0", "2.0"):
        p = os.path.join(str(tmp_path), f"crc_{pv}.parquet")
        write_parquet_via_kernels(tbl, p, compression="SNAPPY",
                                  page_version=pv, row_group_size=9000)
        assert pq.read_table(p, page_checksum_verification=True).equals(tbl)
        assert read_parquet_via_kernels(p).equals(tbl)
    ppa = os.path.join(str(tmp_path), "pa.parquet")
    pq.write_table(tbl, ppa, write_page_checksum=True)
    assert read_parquet_via_kernels(ppa).equals(tbl)
    # flip one byte mid-pages: the read raises
    pc = os.path.join(str(tmp_path), "corrupt.parquet")
    write_parquet_via_kernels(tbl, pc, compression="UNCOMPRESSED")
    data = bytearray(open(pc, "rb").read())
    data[4000] ^= 0xFF
    open(pc, "wb").write(bytes(data))
    with pytest.raises(ValueError, match="CRC-32 mismatch"):
        read_parquet_via_kernels(pc)


def _flip_last_body_byte(path: str, page_offset: int) -> None:
    """Flip the last stored byte of the page at ``page_offset`` — a
    value byte, never a header byte."""
    from parquet_hs_ray.sources.parquet_pages import _read_compact_struct

    data = bytearray(open(path, "rb").read())
    header, body_at = _read_compact_struct(bytes(data), page_offset)
    assert 4 in header  # the writer stored a CRC for this page
    data[body_at + header[3] - 1] ^= 0x01
    open(path, "wb").write(bytes(data))


def test_page_crc_mismatch_raises_on_every_kernel_read(tmp_path,
                                                       ray_session):
    """One flipped value byte in a CRC-carrying UNCOMPRESSED file must
    raise from both kernel decoders and the distributed read, on a full
    scan and on a page-pruned lookup — never return wrong rows.  A
    corrupt dictionary page keeps its row group (pruning stays
    one-sided) and the decode then raises."""
    import os

    from parquet_hs_ray.sources.kernel_sink import read_parquet_kernels
    from parquet_hs_ray.sources.parquet_footer import (
        prune_pages_by_index, read_footer_via_kernels)
    from parquet_hs_ray.sources.parquet_pages import (
        prune_row_groups_by_dict, read_row_group_page_pruned)

    n = 4000
    tbl = pa.table({"k": pa.array(np.arange(n, dtype=np.int64)),
                    "v": pa.array(np.arange(n, dtype=np.int64) * 7919)})
    p = os.path.join(str(tmp_path), "plain.parquet")
    write_parquet_via_kernels(tbl, p, compression="UNCOMPRESSED",
                              row_group_size=n, data_page_rows=500,
                              use_dictionary=False)
    assert read_parquet_via_kernels(p).equals(tbl)
    km = read_footer_via_kernels(p)
    _flip_last_body_byte(p, km.row_groups[0].columns[1].data_page_offset)
    preds = [("k", "<=", 10)]
    ranges = prune_pages_by_index(km, p, 0, preds)
    assert ranges is not None and ranges[0][0] == 0
    with pytest.raises(ValueError, match="CRC-32 mismatch"):
        read_parquet_via_kernels(p)
    for rr in ([(0, n)], ranges):
        with pytest.raises(ValueError, match="CRC-32 mismatch"):
            read_row_group_page_pruned(p, km, 0, rr)
    for kw in ({}, {"columns": ["v"], "predicate": preds}):
        with pytest.raises(Exception, match="CRC-32 mismatch"):
            read_parquet_kernels(p, **kw).materialize()

    pd_ = os.path.join(str(tmp_path), "dict.parquet")
    write_parquet_via_kernels(
        pa.table({"s": pa.array([f"s{i % 50:03d}" for i in range(n)])}),
        pd_, compression="UNCOMPRESSED", row_group_size=n)
    km = read_footer_via_kernels(pd_)
    _flip_last_body_byte(pd_,
                         km.row_groups[0].columns[0].dictionary_page_offset)
    absent = [("s", "==", "s0105")]  # inside min/max, not in the dict
    assert prune_row_groups_by_dict(km, absent, pd_) == [0]
    with pytest.raises(Exception, match="CRC-32 mismatch"):
        read_parquet_kernels(pd_, predicate=absent).materialize()


def test_hadoop_lz4_raw_block_fallback():
    """A plain LZ4 block under codec id 5 (historical writers) must
    decompress through the Hadoop codec's raw fallback, and framed data
    through the framed path; garbage must raise, not return bytes."""
    from parquet_hs_ray.sources.parquet_pages import _HadoopLz4Codec

    codec = _HadoopLz4Codec()
    raw = bytes(range(256)) * 64
    plain_block = pa.Codec("lz4_raw").compress(raw).to_pybytes()
    assert codec.decompress(plain_block, len(raw)).to_pybytes() == raw
    framed = codec.compress(raw).to_pybytes()
    assert framed[:4] == len(raw).to_bytes(4, "big")
    assert codec.decompress(framed, len(raw)).to_pybytes() == raw
    with pytest.raises(Exception):
        codec.decompress(b"\xff\xfe\xfd" * 10, 64)


def test_writer_multi_row_group_and_empty(tmp_path):
    big = pa.table({"x": pa.array(np.arange(50000)),
                    "s": pa.array([f"v{i % 97}" for i in range(50000)])})
    _roundtrip(big, tmp_path, compression="SNAPPY", row_group_size=13000)
    _roundtrip(big.slice(0, 0), tmp_path)


def test_writer_required_null_raises(tmp_path):
    import os

    # bypass pyarrow's own cast validation: declare non-nullable in the
    # schema while the data carries a null
    tbl = pa.Table.from_arrays(
        [pa.array([1, None])],
        schema=pa.schema([pa.field("x", pa.int64(), nullable=False)]))
    with pytest.raises(ValueError):
        write_parquet_via_kernels(tbl, os.path.join(str(tmp_path),
                                                    "x.parquet"))


def test_writer_unsupported_type_raises(tmp_path):
    import os

    # duration stays outside the supported leaf universe
    tbl = pa.table({"d": pa.array([1], pa.duration("s"))})
    with pytest.raises(NotImplementedError):
        write_parquet_via_kernels(tbl, os.path.join(str(tmp_path),
                                                    "x.parquet"))


def test_writer_decimal128(tmp_path):
    """decimal128 leaves write as minimal-length FLBA big-endian
    two's-complement (DuckDB rejects over-wide carriers) with DECIMAL
    converted + logical types, across precisions and inside lists."""
    from decimal import Decimal

    import os

    t = pa.table({"d": pa.array(
        [Decimal("123.45"), None, Decimal("-99999.99"),
         Decimal("0.01")], pa.decimal128(10, 2))})
    _roundtrip(t, tmp_path)
    _roundtrip(t, tmp_path, compression="SNAPPY")
    _roundtrip(pa.table({"big": pa.array(
        [Decimal(str(-(10 ** 30))), Decimal("0"), None],
        pa.decimal128(38, 0))}), tmp_path, compression="ZSTD")
    _roundtrip(pa.table({"ld": pa.array(
        [[Decimal("1.5"), None], None, []],
        pa.list_(pa.decimal128(5, 1)))}), tmp_path)
    _roundtrip(pa.table({
        "p1": pa.array([Decimal("5"), Decimal("-9")],
                       pa.decimal128(1, 0)),
        "p3": pa.array([Decimal("-99.9"), Decimal("99.9")],
                       pa.decimal128(3, 1))}), tmp_path)
    # the declared FLBA length is minimal, matching pyarrow's layout
    p = os.path.join(str(tmp_path), "t.parquet")
    write_parquet_via_kernels(t, p)
    assert "fixed_len_byte_array(5)" in str(pq.ParquetFile(p).schema)


def test_writer_nested_shapes(tmp_path):
    """General Dremel shredding: struct / map / list-of-struct /
    struct-of-list / list-of-list / deep map nesting, with nulls at
    every level, back through all three readers."""
    inner = pa.struct([("x", pa.int32()), ("y", pa.list_(pa.string()))])
    tables = {
        "struct": pa.table({"s": pa.array(
            [{"a": 1, "b": "x"}, None, {"a": None, "b": "y"}],
            pa.struct([("a", pa.int64()), ("b", pa.string())]))}),
        "map": pa.table({"m": pa.array(
            [[("k1", 1), ("k2", 2)], None, []],
            pa.map_(pa.string(), pa.int64()))}),
        "list_struct": pa.table({"ls": pa.array(
            [[{"a": 1}, None, {"a": 3}], None, []],
            pa.list_(pa.struct([("a", pa.int64())])))}),
        "struct_list": pa.table({"sl": pa.array(
            [{"v": [1, 2]}, {"v": None}, None],
            pa.struct([("v", pa.list_(pa.int32()))]))}),
        "list_list": pa.table({"ll": pa.array(
            [[[1, 2], [], None], [], None, [[5]]],
            pa.list_(pa.list_(pa.int64())))}),
        "deep": pa.table({"deep": pa.array(
            [[("a", [{"x": 1, "y": ["p", None]}, None])], None,
             [("b", [])]],
            pa.map_(pa.string(), pa.list_(inner)))}),
        "large_list": pa.table({"L": pa.array(
            [[1, 2], None, []], pa.large_list(pa.int64()))}),
    }
    for i, (tag, tbl) in enumerate(tables.items()):
        comp = ("UNCOMPRESSED", "SNAPPY", "ZSTD")[i % 3]
        _roundtrip(tbl, tmp_path, compression=comp)


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=15, deadline=None)
def test_writer_nested_fuzz_three_readers(seed):
    """Randomized list<struct<int64, list<string>>> tables with nulls
    at every level, written by our kernels, read back by pyarrow,
    DuckDB and our kernel reader."""
    import os
    import tempfile

    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 60))

    def maybe(p, v):
        return None if rng.random() < p else v

    t = pa.list_(pa.struct([("a", pa.int64()),
                            ("ys", pa.list_(pa.string()))]))
    rows = [maybe(0.2, [
        maybe(0.2, {"a": maybe(0.3, int(rng.integers(-99, 99))),
                    "ys": maybe(0.3, [maybe(0.3, f"s{int(x)}")
                                      for x in rng.integers(
                                          0, 9, int(rng.integers(0, 4)))])})
        for _ in range(int(rng.integers(0, 4)))]) for _ in range(n)]
    tbl = pa.table({"c": pa.array(rows, t),
                    "k": pa.array(rng.integers(0, 9, n))})
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.parquet")
        write_parquet_via_kernels(tbl, path, compression="SNAPPY",
                                  row_group_size=17)
        for tag, back in (
            ("pyarrow", pq.read_table(path)),
            ("duckdb", duckdb.sql(
                f"SELECT * FROM read_parquet('{path}')").arrow()),
            ("kernels", read_parquet_via_kernels(path)),
        ):
            assert back.cast(tbl.schema).equals(tbl), (tag, n)


@given(st.integers(min_value=0, max_value=10**9),
       st.sampled_from(["UNCOMPRESSED", "SNAPPY"]))
@settings(max_examples=20, deadline=None)
def test_writer_fuzz_three_readers(seed, compression):
    import os
    import tempfile

    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 200))

    def mask():
        return rng.random(n) < rng.choice([0.0, 0.25])

    tbl = pa.table({
        "i64": pa.array(rng.integers(-2**60, 2**60, n), mask=mask()),
        "i32": pa.array(rng.integers(-2**30, 2**30, n).astype(np.int32),
                        mask=mask()),
        "f64": pa.array(rng.normal(0, 1e6, n), mask=mask()),
        "s": pa.array([None if m else f"s{int(v)}" * int(v % 4)
                       for v, m in zip(rng.integers(0, 99, n), mask())],
                      pa.string()),
        "lt": pa.array([None if m else
                        [None if rng.random() < 0.2 else int(x)
                         for x in rng.integers(0, 9,
                                               int(rng.integers(0, 5)))]
                        for m in mask()], pa.list_(pa.int64())),
        "bo": pa.array(rng.integers(0, 2, n).astype(bool), mask=mask()),
    })
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.parquet")
        write_parquet_via_kernels(tbl, path, compression=compression,
                                  row_group_size=64)
        for tag, back in (
            ("pyarrow", pq.read_table(path)),
            ("duckdb", duckdb.sql(
                f"SELECT * FROM read_parquet('{path}')").arrow()),
            ("kernels", read_parquet_via_kernels(path)),
        ):
            assert back.cast(tbl.schema).equals(tbl), (tag, n)


def test_writer_testdata_tables(tmp_path):
    """Real testdata tables (scalar-only schemas + the embeddings list
    table) through the writer and all three readers."""
    for name in ("nation", "supplier", "embeddings", "documents",
                 "events"):
        tbl = pq.read_table(f"/root/testdata/sf0.001/{name}.parquet")
        tbl = tbl.replace_schema_metadata(None)
        _roundtrip(tbl, tmp_path, compression="SNAPPY")


def test_writer_timestamp_and_date(tmp_path):
    """Timestamps (ms/us/ns, naive and UTC) and date32 write as
    INT64/INT32 with TIMESTAMP/DATE logical types and roundtrip
    through all three readers; unsupported units/zones raise."""
    import datetime as dt
    import os

    ts = [dt.datetime(2024, 1, 1, 12, 0, 0, 123456), None,
          dt.datetime(1969, 12, 31, 23, 59, 59)]
    for unit in ("ms", "us", "ns"):
        _roundtrip(pa.table({"t": pa.array(ts, pa.timestamp(unit))}),
                   tmp_path)
    _roundtrip(pa.table({"t": pa.array(ts, pa.timestamp("us",
                                                        tz="UTC"))}),
               tmp_path, compression="ZSTD")
    _roundtrip(pa.table({"d": pa.array(
        [dt.date(2024, 2, 29), None, dt.date(1970, 1, 1)],
        pa.date32())}), tmp_path)
    _roundtrip(pa.table({"lt": pa.array(
        [[dt.datetime(2024, 1, 1)], None, []],
        pa.list_(pa.timestamp("us")))}), tmp_path, compression="SNAPPY")
    for bad in (pa.timestamp("s"),
                pa.timestamp("us", tz="America/New_York")):
        with pytest.raises(NotImplementedError):
            write_parquet_via_kernels(
                pa.table({"t": pa.array([], bad)}),
                os.path.join(str(tmp_path), "bad.parquet"))


def test_writer_dictionary_and_statistics(tmp_path):
    """Dictionary pages kick in when they shrink the chunk (classic
    PLAIN_DICTIONARY: dict page + 1-byte-width hybrid indices), and
    min_value/max_value/null_count statistics are written with
    column_orders so other readers trust them."""
    import os

    n = 20000
    tbl = pa.table({
        "cat": pa.array([f"c{i % 7}" for i in range(n)]),
        "k": pa.array(np.arange(n) % 13),
        "lt": pa.array([[i % 5] * (i % 3) for i in range(n)],
                       pa.list_(pa.int64())),
    })
    pd_path = os.path.join(str(tmp_path), "d.parquet")
    pp_path = os.path.join(str(tmp_path), "p.parquet")
    s_dict = write_parquet_via_kernels(tbl, pd_path, use_dictionary=True)
    s_plain = write_parquet_via_kernels(tbl, pp_path, use_dictionary=False)
    assert s_dict["bytes"] < s_plain["bytes"] / 5  # low-card: dict pays
    for p in (pd_path, pp_path):
        assert pq.read_table(p).cast(tbl.schema).equals(tbl)
        assert duckdb.sql(
            f"SELECT * FROM read_parquet('{p}')").arrow().cast(
                tbl.schema).equals(tbl)
        assert read_parquet_via_kernels(p).cast(tbl.schema).equals(tbl)
    meta = pq.ParquetFile(pd_path).metadata.row_group(0)
    c0 = meta.column(0)
    assert "PLAIN_DICTIONARY" in c0.encodings
    assert c0.dictionary_page_offset is not None
    assert (c0.statistics.min, c0.statistics.max) == ("c0", "c6")
    c2 = meta.column(2)
    assert (c2.statistics.min, c2.statistics.max) == (0, 4)
    assert c2.statistics.null_count == 6667  # empty-list placeholders


def test_writer_auto_encodings(tmp_path):
    """encodings='auto' per-chunk selection: DELTA_BINARY_PACKED wins
    on near-sorted ints (and only when it measures smaller), and
    BYTE_STREAM_SPLIT is used for floats under page compression —
    files stay readable by all three readers."""
    import os

    rng = np.random.default_rng(3)
    n = 4000
    tbl = pa.table({
        "sorted_id": pa.array(np.cumsum(rng.integers(0, 5, n))),
        "rand64": pa.array(rng.integers(-2**62, 2**62, n)),
        "i32seq": pa.array((np.arange(n) * 3).astype(np.int32),
                           mask=rng.random(n) < 0.1),
        "f64": pa.array(rng.normal(0, 1, n)),
        "lt": pa.array([[i, i + 1] for i in range(n)],
                       pa.list_(pa.int64())),
    })
    pauto = os.path.join(str(tmp_path), "auto.parquet")
    pcls = os.path.join(str(tmp_path), "classic.parquet")
    sa = write_parquet_via_kernels(tbl, pauto, compression="SNAPPY",
                                   use_dictionary=False,
                                   encodings="auto")
    sc = write_parquet_via_kernels(tbl, pcls, compression="SNAPPY",
                                   use_dictionary=False)
    assert sa["bytes"] < sc["bytes"]  # delta columns must pay here
    for tag, back in (
        ("pyarrow", pq.read_table(pauto)),
        ("duckdb", duckdb.sql(
            f"SELECT * FROM read_parquet('{pauto}')").arrow()),
        ("kernels", read_parquet_via_kernels(pauto)),
    ):
        assert back.cast(tbl.schema).equals(tbl), tag
    meta = pq.ParquetFile(pauto).metadata.row_group(0)
    encs = {meta.column(i).path_in_schema: set(meta.column(i).encodings)
            for i in range(meta.num_columns)}
    assert "DELTA_BINARY_PACKED" in encs["sorted_id"]
    assert "DELTA_BINARY_PACKED" in encs["i32seq"]
    assert "DELTA_BINARY_PACKED" in encs["lt.list.element"]
    assert "BYTE_STREAM_SPLIT" in encs["f64"]
    assert "PLAIN" in encs["rand64"]  # delta would not shrink it


def test_writer_delta_int32_wraparound(tmp_path):
    """INT32 delta streams must wrap at 32 bits: a 64-bit delta over
    int32 extremes emits >32-bit miniblocks pyarrow rejects and DuckDB
    silently mis-reads."""
    import os

    n = 300
    v = np.zeros(n, np.int32)
    v[150] = -2**31
    v[151] = 2**31 - 1
    tbl = pa.table({"x": pa.array(v)})
    p = os.path.join(str(tmp_path), "w.parquet")
    write_parquet_via_kernels(tbl, p, use_dictionary=False,
                              encodings="auto")
    meta = pq.ParquetFile(p).metadata.row_group(0)
    assert "DELTA_BINARY_PACKED" in meta.column(0).encodings
    for tag, back in (
        ("pyarrow", pq.read_table(p)),
        ("duckdb", duckdb.sql(
            f"SELECT * FROM read_parquet('{p}')").arrow()),
        ("kernels", read_parquet_via_kernels(p)),
    ):
        assert back.cast(tbl.schema).equals(tbl), tag


def test_writer_decimal_negative_scale_raises(tmp_path):
    """Arrow allows decimal128(5, -2); the parquet DECIMAL logical type
    does not — the writer must refuse instead of emitting a footer no
    reader can open."""
    from decimal import Decimal

    import os

    tbl = pa.table({"d": pa.array([Decimal("100")],
                                  pa.decimal128(5, -2))})
    with pytest.raises(NotImplementedError):
        write_parquet_via_kernels(tbl, os.path.join(str(tmp_path),
                                                    "x.parquet"))


def test_kernel_sink_rejects_bad_modes_before_cleanup(tmp_path):
    """A typo'd encodings/compression must fail at sink construction,
    not after on_write_start has destroyed the destination."""
    from parquet_hs_ray.sources.kernel_sink import KernelParquetDatasink

    with pytest.raises(ValueError):
        KernelParquetDatasink(str(tmp_path), encodings="delta")
    with pytest.raises(ValueError):
        KernelParquetDatasink(str(tmp_path), compression="LZO")
    # LZ4 / LZ4_RAW are supported sink compressions now
    KernelParquetDatasink(str(tmp_path), compression="LZ4_RAW")


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=20, deadline=None)
def test_writer_delta_fuzz(seed):
    """DELTA_BINARY_PACKED at block/miniblock boundaries, wild
    wraparound deltas, nulls — three-reader equality."""
    import os
    import tempfile

    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 600))
    kind = int(rng.integers(0, 4))
    if kind == 0:
        v = np.cumsum(rng.integers(0, 9, n))
    elif kind == 1:
        v = rng.integers(-2**63, 2**63, n, dtype=np.int64)
    elif kind == 2:
        v = rng.integers(-50, 50, n)
    else:  # int32 full range: wraparound deltas at the 32-bit width
        v = rng.integers(-2**31, 2**31, n, dtype=np.int64).astype(
            np.int32)
    tbl = pa.table({"x": pa.array(v, mask=rng.random(n) < 0.2)})
    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "t.parquet")
        write_parquet_via_kernels(tbl, p, use_dictionary=False,
                                  encodings="auto", row_group_size=97)
        for tag, back in (
            ("pyarrow", pq.read_table(p)),
            ("duckdb", duckdb.sql(
                f"SELECT * FROM read_parquet('{p}')").arrow()),
            ("kernels", read_parquet_via_kernels(p)),
        ):
            assert back.cast(tbl.schema).equals(tbl), (tag, n, kind)


def test_writer_data_page_v2(tmp_path):
    """page_version='2.0' emits DataPageHeaderV2 pages (uncompressed
    level streams with header byte lengths, values-only compression) —
    readable by all three readers across types/nesting/compression."""
    import os

    rng = np.random.default_rng(5)
    n = 3000
    tbl = pa.table({
        "i": pa.array(rng.integers(0, 10**12, n),
                      mask=rng.random(n) < 0.1),
        "s": pa.array([None if rng.random() < 0.1 else f"s{i % 7}"
                       for i in range(n)]),
        "f": pa.array(rng.normal(0, 1, n)),
        "lt": pa.array([None if rng.random() < 0.2 else
                        [int(x) for x in
                         rng.integers(0, 9, int(rng.integers(0, 4)))]
                        for _ in range(n)], pa.list_(pa.int64())),
    })
    for comp in ("UNCOMPRESSED", "SNAPPY"):
        p = os.path.join(str(tmp_path), "v2.parquet")
        write_parquet_via_kernels(tbl, p, compression=comp,
                                  page_version="2.0",
                                  row_group_size=1100)
        for tag, back in (
            ("pyarrow", pq.read_table(p)),
            ("duckdb", duckdb.sql(
                f"SELECT * FROM read_parquet('{p}')").arrow()),
            ("kernels", read_parquet_via_kernels(p)),
        ):
            assert back.cast(tbl.schema).equals(tbl), (tag, comp)
    # v2 dictionary chunks must declare RLE_DICTIONARY (the spec
    # deprecates PLAIN_DICTIONARY in v2 data pages)
    meta = pq.ParquetFile(p).metadata.row_group(0)
    s_encs = set(meta.column(1).encodings)
    assert "RLE_DICTIONARY" in s_encs and "PLAIN_DICTIONARY" not in s_encs
    # v2 + auto encodings together, all three readers
    p = os.path.join(str(tmp_path), "v2a.parquet")
    write_parquet_via_kernels(tbl, p, compression="ZSTD",
                              page_version="2.0", encodings="auto",
                              use_dictionary=False)
    for tag, back in (
        ("pyarrow", pq.read_table(p)),
        ("duckdb", duckdb.sql(
            f"SELECT * FROM read_parquet('{p}')").arrow()),
        ("kernels", read_parquet_via_kernels(p)),
    ):
        assert back.cast(tbl.schema).equals(tbl), tag
    with pytest.raises(ValueError):
        write_parquet_via_kernels(tbl, p, page_version="3.0")


def test_writer_empty_table_with_list_column(tmp_path):
    """0-row tables must write (and read back) for every supported
    shape, including list columns — the empty-list row-start indexing
    regression (the ``has.any()`` guard in ``_shred_node``'s list
    branch)."""
    tbl = pa.table({
        "tokens": pa.array([], pa.list_(pa.int64())),
        "doc_id": pa.array([], pa.string()),
        "n": pa.array([], pa.int32()),
    })
    _roundtrip(tbl, tmp_path)
    _roundtrip(tbl, tmp_path, compression="ZSTD")


def test_writer_total_byte_size_is_uncompressed(tmp_path):
    """RowGroup.total_byte_size is the UNCOMPRESSED data size per the
    parquet spec, not the compressed size."""
    import os

    rng = np.random.default_rng(11)
    tbl = pa.table({
        "v": pa.array(rng.integers(0, 1 << 40, 4000)),
        "s": pa.array([f"payload-{i % 37}-{'x' * (i % 11)}"
                       for i in range(4000)]),
    })
    path = os.path.join(str(tmp_path), "t.parquet")
    write_parquet_via_kernels(tbl, path, compression="ZSTD",
                              use_dictionary=False)
    rg = pq.ParquetFile(path).metadata.row_group(0)
    comp = sum(rg.column(i).total_compressed_size
               for i in range(rg.num_columns))
    unc = sum(rg.column(i).total_uncompressed_size
              for i in range(rg.num_columns))
    assert comp < unc  # ZSTD actually compressed something
    assert rg.total_byte_size == unc
