"""Distributed kernel-parquet sink: Dataset.write_datasink through our
own write kernels, committed manifest, and the fully self-hosted
decode->kernel-parquet export path."""

import json
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import duckdb

from parquet_hs_ray.sources.kernel_sink import (
    MANIFEST_NAME, read_parquet_kernels, read_sink_manifest,
    write_parquet_kernels)
from parquet_hs_ray.sources.parquet_pages import read_parquet_via_kernels

SF = "/root/testdata/sf0.001"


def _canon(t: pa.Table, schema: pa.Schema, keys: list[str]) -> pa.Table:
    """Cast to ``schema`` and sort by ``keys``, ties broken on every
    other column, so equality never depends on block order (the keys
    need not be unique: lineitem repeats (l_orderkey, l_linenumber))."""
    order = keys + [c for c in schema.names if c not in keys]
    return t.cast(schema).sort_by([(k, "ascending") for k in order])


def test_kernel_sink_roundtrip(ray_session, tmp_path):
    import ray

    src = pq.read_table(f"{SF}/lineitem.parquet").replace_schema_metadata(
        None)
    out = str(tmp_path / "sink")
    ds = ray.data.read_parquet(f"{SF}/lineitem.parquet").repartition(4)
    manifest = write_parquet_kernels(ds, out, compression="SNAPPY")
    assert manifest["rows"] == src.num_rows
    assert len(manifest["files"]) >= 1
    assert manifest == read_sink_manifest(out)

    keys = ["l_orderkey", "l_linenumber"]
    want = _canon(src, src.schema, keys)
    # pyarrow dataset discovery must skip the _-prefixed manifest
    assert _canon(pq.read_table(out), src.schema, keys).equals(want)
    back = duckdb.sql(
        f"SELECT * FROM read_parquet('{out}/*.parquet')").arrow()
    assert _canon(back, src.schema, keys).equals(want)
    parts = [read_parquet_via_kernels(os.path.join(out, r["file"]))
             for r in manifest["files"]]
    ours = pa.concat_tables(p.cast(src.schema) for p in parts)
    assert _canon(ours, src.schema, keys).equals(want)


def test_kernel_sink_manifest_commit_semantics(ray_session, tmp_path):
    """No manifest => not committed; a fresh write invalidates a stale
    one before writing."""
    import ray

    out = str(tmp_path / "sink2")
    with pytest.raises(FileNotFoundError):
        read_sink_manifest(out + "-missing")
    ds = ray.data.range(100).map_batches(
        lambda b: {"x": b["id"]}, batch_format="numpy")
    m1 = write_parquet_kernels(ds, out)
    assert m1["rows"] == 100
    # marker content is valid JSON listing each file exactly once
    with open(os.path.join(out, MANIFEST_NAME)) as fh:
        j = json.load(fh)
    names = [r["file"] for r in j["files"]]
    assert len(names) == len(set(names))
    # rewrite into the same dir commits a fresh manifest AND removes
    # stale part files from the previous (wider) write, so glob readers
    # never double-count
    m2 = write_parquet_kernels(ds.repartition(2), out)
    assert m2["rows"] == 100
    on_disk = sorted(f for f in os.listdir(out)
                     if f.startswith("part-") and f.endswith(".parquet"))
    assert on_disk == sorted(r["file"] for r in m2["files"])
    back = duckdb.sql(
        f"SELECT count(*) c, sum(x) s FROM read_parquet('{out}/*.parquet')"
    ).fetchone()
    assert back == (100, sum(range(100)))


def test_kernel_read_dataset(ray_session, tmp_path):
    """Distributed kernel READ: sink a table, read the directory back
    through per-file kernel decode tasks, with column pruning."""
    import ray

    from parquet_hs_ray.sources.kernel_sink import read_parquet_kernels

    src = pq.read_table(f"{SF}/lineitem.parquet").replace_schema_metadata(
        None)
    out = str(tmp_path / "kr")
    write_parquet_kernels(
        ray.data.read_parquet(f"{SF}/lineitem.parquet").repartition(3),
        out, encodings="auto", page_version="2.0")
    keys = ["l_orderkey", "l_linenumber"]
    full = pa.concat_tables(
        [ray.get(r) for r in read_parquet_kernels(out).to_arrow_refs()])
    assert _canon(full, src.schema, keys).equals(_canon(src, src.schema,
                                                        keys))
    pruned = pa.concat_tables([ray.get(r) for r in read_parquet_kernels(
        out, columns=["l_quantity", "l_orderkey"]).to_arrow_refs()])
    assert pruned.schema.names == ["l_quantity", "l_orderkey"]
    assert pruned.num_rows == src.num_rows
    with pytest.raises(FileNotFoundError):
        read_parquet_kernels(str(tmp_path / "nope"))
    # typo'd column fails fast on the DRIVER, not as a RayTaskError
    with pytest.raises(KeyError):
        read_parquet_kernels(out, columns=["not_a_column"])
    # columns=[] preserves the row count (pq.read_table contract)
    from parquet_hs_ray.sources.parquet_pages import \
        read_parquet_via_kernels

    f0 = [n for n in sorted(os.listdir(out))
          if n.endswith(".parquet")][0]
    t0 = read_parquet_via_kernels(os.path.join(out, f0), columns=[])
    assert t0.num_columns == 0
    assert t0.num_rows == pq.read_metadata(
        os.path.join(out, f0)).num_rows
    # zero-row-group files (pyarrow writes these for empty tables)
    pempty = str(tmp_path / "zero_rg.parquet")
    pq.write_table(src.slice(0, 0), pempty)
    z = read_parquet_via_kernels(pempty)
    assert z.num_rows == 0 and z.schema.names == src.schema.names


def test_kernel_read_predicate_pushdown(ray_session, tmp_path):
    """Row groups whose footer min/max provably cannot match are never
    decoded; the exact filter then applies to the survivors."""
    import pyarrow.compute as pc
    import ray

    from parquet_hs_ray.sources.kernel_sink import read_parquet_kernels
    from parquet_hs_ray.sources.parquet_pages import (
        prune_row_groups_by_stats)

    src = f"{SF}/lineitem.parquet"
    srct = pq.read_table(src).replace_schema_metadata(None)
    out = str(tmp_path / "pred")
    write_parquet_kernels(
        ray.data.read_parquet(src).sort("l_orderkey").repartition(2),
        out, encodings="auto", row_group_size=500)
    # stats really prune: a selective range keeps a strict subset
    f0 = [n for n in sorted(os.listdir(out))
          if n.endswith(".parquet")][0]
    meta = pq.read_metadata(os.path.join(out, f0))
    kept = prune_row_groups_by_stats(meta,
                                     [("l_orderkey", "<=", 2000)])
    assert 0 < len(kept) <= meta.num_row_groups
    # exact semantics vs pyarrow filter, with projection
    got = pa.concat_tables([ray.get(r) for r in read_parquet_kernels(
        out, columns=["l_orderkey", "l_quantity"],
        predicate=("l_orderkey", "<=", 2000)).to_arrow_refs()])
    want = srct.filter(
        pc.less_equal(srct["l_orderkey"], 2000)).select(
            ["l_orderkey", "l_quantity"])
    k = [("l_orderkey", "ascending"), ("l_quantity", "ascending")]
    assert got.sort_by(k).equals(want.cast(got.schema).sort_by(k))
    # AND predicates, no projection
    got2 = pa.concat_tables([ray.get(r) for r in read_parquet_kernels(
        out, predicate=[("l_orderkey", ">", 3000),
                        ("l_linenumber", "==", 1)]).to_arrow_refs()])
    want2 = srct.filter(pc.and_(pc.greater(srct["l_orderkey"], 3000),
                                pc.equal(srct["l_linenumber"], 1)))
    assert got2.num_rows == want2.num_rows
    # nothing matches: 0 rows, right schema
    got3 = pa.concat_tables([ray.get(r) for r in read_parquet_kernels(
        out, columns=["l_quantity"],
        predicate=("l_orderkey", "<", -5)).to_arrow_refs()])
    assert got3.num_rows == 0 and got3.schema.names == ["l_quantity"]
    with pytest.raises(KeyError):
        read_parquet_kernels(out, predicate=("nope", "==", 1))
    with pytest.raises(ValueError):
        read_parquet_kernels(out, predicate=("l_orderkey", "<="))
    with pytest.raises(ValueError):  # SQL-style '=' typo fails fast
        read_parquet_kernels(out, predicate=("l_orderkey", "=", 1))


def test_prune_stats_nested_leaf_never_shadows(tmp_path):
    """A nested leaf sharing a flat column's bare name (s.x vs x) must
    not drive that column's pruning — wrong stats would silently drop
    matching rows."""
    from parquet_hs_ray.sources.parquet_pages import (
        prune_row_groups_by_stats)
    from parquet_hs_ray.sources.parquet_writer import (
        write_parquet_via_kernels)

    tbl = pa.table({
        "x": pa.array([1, 2, 3]),
        "s": pa.array([{"x": 100}, {"x": 200}, {"x": 300}],
                      pa.struct([("x", pa.int64())])),
    })
    p = os.path.join(str(tmp_path), "shadow.parquet")
    write_parquet_via_kernels(tbl, p)
    meta = pq.read_metadata(p)
    # flat x has min 1: the row group MUST survive x < 5 (the shadow
    # bug checked s.x's stats, min 100, and dropped it)
    assert prune_row_groups_by_stats(meta, [("x", "<", 5)]) == [0]
    # a nested leaf addressed by dotted path never prunes (predicates
    # on nested columns are rejected upstream; pruning must stay
    # conservative here)
    assert prune_row_groups_by_stats(meta, [("s.x", "<", 5)]) == [0]

    # the inverse collision: a FLAT column literally named "s.x" whose
    # dotted name equals a nested leaf's path_in_schema — it must prune
    # on ITS OWN stats, whichever side of the nested leaf it sits in
    # footer order (keying by path_in_schema let the later leaf win and
    # pruned every row group for ("s.x", "<=", 3), returning zero rows)
    for decl in ({"s.x": pa.array([1, 2, 3]),
                  "s": pa.array([{"x": 100}] * 3,
                                pa.struct([("x", pa.int64())]))},
                 {"s": pa.array([{"x": 100}] * 3,
                                pa.struct([("x", pa.int64())])),
                  "s.x": pa.array([1, 2, 3])}):
        p2 = os.path.join(str(tmp_path), "collide.parquet")
        write_parquet_via_kernels(pa.table(decl), p2)
        m2 = pq.read_metadata(p2)
        assert prune_row_groups_by_stats(m2, [("s.x", "<=", 3)]) == [0]
        assert prune_row_groups_by_stats(m2, [("s.x", ">", 50)]) == []


def test_kernel_read_commit_semantics(ray_session, tmp_path):
    """A sink dir whose manifest vanished (aborted write) refuses to
    read; a committed EMPTY write reads back as a 0-row dataset."""
    import ray

    from parquet_hs_ray.sources.kernel_sink import (
        MANIFEST_NAME, read_parquet_kernels)

    out = str(tmp_path / "aborted")
    ds = ray.data.range(50).map_batches(lambda b: {"x": b["id"]},
                                        batch_format="numpy")
    write_parquet_kernels(ds, out)
    os.remove(os.path.join(out, MANIFEST_NAME))  # simulate crash window
    with pytest.raises(FileNotFoundError):
        read_parquet_kernels(out)
    # committed empty write
    eout = str(tmp_path / "empty")
    empty = ray.data.from_items([{"x": 1}]).filter(lambda r: False)
    m = write_parquet_kernels(empty, eout)
    assert m["rows"] == 0 and m["files"] == []
    back = read_parquet_kernels(eout)
    assert back.count() == 0
    # a PLAIN parquet directory (no manifest, not sink-shaped) still reads
    pdir = str(tmp_path / "plaindir")
    os.makedirs(pdir)
    tbl = pa.table({"a": [1, 2, 3]})
    pq.write_table(tbl, os.path.join(pdir, "f0.parquet"))
    got = pa.concat_tables(
        [ray.get(r) for r in read_parquet_kernels(pdir).to_arrow_refs()])
    assert got.equals(tbl)


def test_cli_transcode(ray_session, tmp_path, capsys):
    """cli transcode: any parquet in, kernel-written standard parquet
    out (must not tear down the caller's Ray session)."""
    import ray

    from parquet_hs_ray.cli import main

    out = str(tmp_path / "trc")
    rc = main(["transcode", "--input", f"{SF}/supplier.parquet",
               "--out", out, "--partitions", "2",
               "--page-version", "2.0"])
    assert rc == 0 and ray.is_initialized()
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    src = pq.read_table(f"{SF}/supplier.parquet").replace_schema_metadata(
        None)
    assert res["rows"] == src.num_rows
    back = pq.read_table(out)
    assert _canon(back, src.schema, ["s_suppkey"]).equals(
        _canon(src, src.schema, ["s_suppkey"]))


def test_decode_to_parquet_kernel_writer(ray_session, tmp_path):
    """decode_to_parquet(writer='kernels'): the store decodes and lands
    as kernel-written parquet, byte-readable by pyarrow and equal to
    the pyarrow-writer export."""
    from parquet_hs_ray.pipelines.encode_job import (
        decode_to_parquet, encode_dataset)

    store = str(tmp_path / "store")
    encode_dataset(f"{SF}/lineitem.parquet", store, token_col="l_quantity",
                   token_budget=200_000)
    d_pa = str(tmp_path / "out_pa")
    d_kn = str(tmp_path / "out_kn")
    decode_to_parquet(store, d_pa)
    res = decode_to_parquet(store, d_kn, writer="kernels")
    assert res["written"] >= 1
    a = pq.read_table(d_pa)
    b = pq.read_table(d_kn)
    keys = ["l_orderkey", "l_linenumber"]
    assert _canon(b, a.schema, keys).equals(_canon(a, a.schema, keys))
    with pytest.raises(ValueError):
        decode_to_parquet(store, d_kn, writer="nope")


# ---------------------------------------------------------------------------
# VERDICT r4 #1/#2/#3: row-group-granular distributed read, fully
# self-hosted pruned reads, and remote-filesystem
# kernel reads (remoteParquetFile parity, Reader.hs:223-248).
# ---------------------------------------------------------------------------

def test_kernel_read_row_group_granularity(ray_session, tmp_path):
    """One multi-row-group FILE fans out across the CPU slots — one read
    task per slot (4 in ``ray_session``), never more than there are row
    groups — so a single huge file never decodes in a single task."""
    from parquet_hs_ray.sources.kernel_sink import read_parquet_kernels

    src = pq.read_table(f"{SF}/lineitem.parquet").replace_schema_metadata(
        None)
    p = str(tmp_path / "one_file.parquet")
    pq.write_table(src, p, row_group_size=1000, store_schema=False)
    n_rgs = pq.read_metadata(p).num_row_groups
    assert n_rgs > 4
    ds = read_parquet_kernels(p).materialize()
    assert ds.num_blocks() == min(n_rgs, 4)
    got = pa.Table.from_batches(
        ds.to_arrow_refs() and
        [b for ref in ds.to_arrow_refs()
         for b in __import__("ray").get(ref).to_batches()])
    keys = ["l_orderkey", "l_linenumber"]
    assert _canon(got, src.schema, keys).equals(
        _canon(src, src.schema, keys))


def test_kernel_read_pruned_selfhosted(ray_session, tmp_path):
    """Predicate pushdown with zero pyarrow anywhere on a PRUNED read —
    our thrift footer statistics drive the pruning, which keeps exactly
    the row groups pyarrow's statistics keep, and the result equals the
    exact answer."""
    import ray

    from parquet_hs_ray.sources.kernel_sink import read_parquet_kernels
    from parquet_hs_ray.sources.parquet_pages import (
        prune_row_groups_by_stats)

    src = pq.read_table(f"{SF}/orders.parquet").replace_schema_metadata(
        None)
    srt = src.sort_by("o_orderkey")
    p = str(tmp_path / "orders_sorted.parquet")
    pq.write_table(srt, p, row_group_size=250, store_schema=False)
    cut = srt["o_orderkey"][400].as_py()  # ~2 of 6 row groups survive
    pred = ("o_orderkey", "<=", cut)
    want = srt.filter(
        pa.compute.less_equal(srt["o_orderkey"], cut)).select(
            ["o_orderkey", "o_totalprice"])

    ds = read_parquet_kernels(
        p, columns=["o_orderkey", "o_totalprice"],
        predicate=pred).materialize()
    # pruning is real: fewer decode tasks than total row groups
    assert ds.num_blocks() < pq.read_metadata(p).num_row_groups
    # ... and agrees with pyarrow's statistics, one block per survivor
    assert ds.num_blocks() == len(prune_row_groups_by_stats(
        pq.read_metadata(p), [pred]))
    t = pa.concat_tables(ray.get(ds.to_arrow_refs())).sort_by("o_orderkey")
    assert t.cast(want.schema).equals(want.sort_by("o_orderkey"))


def test_kernel_read_is_one_lazy_execution(ray_session, tmp_path,
                                           monkeypatch):
    """The read plans on the driver and returns a lazy dataset: no Ray
    Data execution runs before the dataset is consumed, and consuming
    it runs exactly one.  ``footer`` accepts only the kernel engine."""
    from ray.data._internal.execution import streaming_executor as se

    from parquet_hs_ray.sources.kernel_sink import read_parquet_kernels

    runs = []
    execute = se.StreamingExecutor.execute

    def counting(self, *a, **k):
        runs.append(1)
        return execute(self, *a, **k)

    monkeypatch.setattr(se.StreamingExecutor, "execute", counting)
    p = str(tmp_path / "lazy.parquet")
    pq.write_table(pa.table({"x": list(range(100))}), p, row_group_size=10)
    for kw, n in (({}, 100), ({"predicate": ("x", "<=", 25)}, 26),
                  ({"columns": ["x"], "predicate": ("x", ">", 999)}, 0)):
        ds = read_parquet_kernels(p, **kw)
        assert runs == [], kw
        assert len(ds.take_all()) == n, kw
        assert len(runs) == 1, kw
        runs.clear()
    with pytest.raises(ValueError, match="footer"):
        read_parquet_kernels(p, footer="pyarrow")


def test_kernel_read_all_pruned_keeps_schema(ray_session, tmp_path):
    """A predicate matching nothing returns 0 rows WITH the projected
    schema, taken from the footer the driver parsed while planning."""
    from parquet_hs_ray.sources.kernel_sink import read_parquet_kernels

    p = str(tmp_path / "t.parquet")
    pq.write_table(pa.table({"x": [1, 2, 3], "y": ["a", "b", "c"]}), p,
                   store_schema=False)
    ds = read_parquet_kernels(p, columns=["y"], predicate=("x", ">", 99))
    t = ds.materialize()
    assert t.count() == 0
    assert t.schema().names == ["y"]


def test_kernel_read_over_http_is_ranged(ray_session, tmp_path):
    """Distributed kernel read over the HTTP-range filesystem: footer
    parse, row-group enumeration and chunk decode all happen through
    ranged GETs — never a whole-file download."""
    import ray
    from test_fsio import _start_range_server

    from parquet_hs_ray.sources.kernel_sink import read_parquet_kernels
    from parquet_hs_ray.state.httpfs import http_range_filesystem

    root = str(tmp_path / "srv")
    os.makedirs(root)
    src = pq.read_table(f"{SF}/nation.parquet").replace_schema_metadata(
        None)
    pq.write_table(src, f"{root}/nation.parquet", row_group_size=10,
                   store_schema=False)
    srv, port, stats = _start_range_server(root)
    try:
        fs = http_range_filesystem(f"http://127.0.0.1:{port}")
        ds = read_parquet_kernels("nation.parquet",
                                  filesystem=fs).materialize()
        t = pa.concat_tables(ray.get(ds.to_arrow_refs()))
        assert _canon(t, src.schema, ["n_nationkey"]).equals(
            _canon(src, src.schema, ["n_nationkey"]))
        assert stats["range_gets"] > 0
        assert stats["full_gets"] == 0
    finally:
        srv.shutdown()


def test_distributed_read_verify_crc(tmp_path, ray_session):
    """The distributed read checks stored page CRCs on its full, pruned
    and page-pruned paths; a corrupted part file fails the read loudly
    instead of decoding garbage (the specific error depends on whether
    the flipped byte lands in a page header or page body)."""
    import glob

    import ray

    src = f"{SF}/lineitem.parquet"
    d = str(tmp_path / "crc_sink")
    write_parquet_kernels(ray.data.read_parquet(src).repartition(2), d,
                          compression="SNAPPY", data_page_rows=512)
    assert read_parquet_kernels(d).count() == 6000
    want = pq.read_table(src).filter(
        pa.compute.less_equal(pa.compute.field("l_orderkey"), 500))
    assert read_parquet_kernels(
        d, predicate=("l_orderkey", "<=", 500)).count() == want.num_rows
    f = sorted(glob.glob(d + "/*.parquet"))[0]
    blob = bytearray(open(f, "rb").read())
    blob[6000] ^= 0xFF
    open(f, "wb").write(bytes(blob))
    with pytest.raises(Exception):
        read_parquet_kernels(d).materialize()


# ---------------------------------------------------------------------------
# Read-task fan-out: min(surviving row groups, CPU slots) tasks, each
# streaming a contiguous run one row group at a time with its files'
# footers bound in.  Ray-free: every task is called in-process.
# ---------------------------------------------------------------------------

def test_read_tasks_split_work_into_runs(tmp_path, monkeypatch):
    """``get_read_tasks(p)`` cuts the plan's ``work`` into
    ``min(p, len(work))`` contiguous runs of near-equal length, each
    task carrying its run's footers, bytes and files."""
    from parquet_hs_ray.sources import kernel_sink
    from parquet_hs_ray.sources.kernel_sink import (
        KernelParquetDatasource, plan_read)
    from parquet_hs_ray.sources.parquet_writer import (
        write_parquet_via_kernels)

    files = [f"f{i}.parquet" for i in range(3)]
    kms = {f: f"km-of-{f}" for f in files}
    work = [(f, rg, 100 * i + rg) for i, f in enumerate(files)
            for rg in range(5)]
    nbytes = {(f, rg): b for f, rg, b in work}

    def fake_decode(path, km, rg, columns, preds, filesystem):
        assert km == kms[path]  # the task's own footer, never re-read
        return pa.table({"path": [path], "rg": [rg]})

    monkeypatch.setattr(kernel_sink, "_decode_row_group", fake_decode)
    src = KernelParquetDatasource(work, kms, None, None, [], None)
    for p in (1, 2, 4, 15, 64):
        tasks = src.get_read_tasks(p)
        assert len(tasks) == min(p, 15), p
        runs = [[(t["path"][0].as_py(), t["rg"][0].as_py()) for t in task()]
                for task in tasks]
        assert [x for run in runs for x in run] == [
            (f, rg) for f, rg, _ in work], p
        lens = [len(run) for run in runs]
        assert max(lens) - min(lens) <= 1, (p, lens)
        for task, run in zip(tasks, runs):
            assert task.metadata.size_bytes == sum(nbytes[x] for x in run)
            assert task.metadata.input_files == list(
                dict.fromkeys(f for f, _ in run))

    empty = pa.table({"y": pa.array([], pa.string())})
    (task,) = KernelParquetDatasource([], {}, empty, ["y"], [],
                                      None).get_read_tasks(4)
    assert list(task()) == [empty]

    # a real 3-row-group kernel-written file: one task, one table per
    # row group, rows equal to pyarrow's
    monkeypatch.undo()
    p = str(tmp_path / "three.parquet")
    src_t = pa.table({"x": list(range(30)),
                      "s": [f"v{i % 7}" for i in range(30)]})
    write_parquet_via_kernels(src_t, p, row_group_size=10)
    (task,) = plan_read(p).get_read_tasks(1)
    got = list(task())
    assert len(got) == 3
    assert pa.concat_tables(got).equals(pq.read_table(p))


def test_read_tasks_never_read_footers(tmp_path):
    """The driver parses every footer while planning; the decode tasks
    use the footers bound into them and never read a file's 8-byte
    footer tail, on full and page-pruned reads alike."""
    import collections

    import fsspec
    import pyarrow.fs as pafs

    from parquet_hs_ray.sources.kernel_sink import plan_read
    from parquet_hs_ray.sources.parquet_writer import (
        write_parquet_via_kernels)

    class _TailCountingFile:
        def __init__(self, fh, size, on_tail):
            self._fh, self._size, self._on_tail = fh, size, on_tail

        def read(self, n=-1):
            pos = self._fh.tell()
            if n < 0 or pos + n > self._size - 8:
                self._on_tail()
            return self._fh.read(n)

        def __getattr__(self, name):
            return getattr(self._fh, name)

    class _TailCountingHandler(pafs.FSSpecHandler):
        """Local files; counts reads touching each file's last 8 bytes."""

        def __init__(self):
            super().__init__(fsspec.filesystem("file"))
            self.tail_reads = collections.Counter()

        def open_input_file(self, path):
            def on_tail():
                self.tail_reads[path] += 1

            fh = _TailCountingFile(self.fs.open(path, mode="rb"),
                                   os.path.getsize(path), on_tail)
            return pa.PythonFile(fh, mode="r")

    d = tmp_path / "dir"
    d.mkdir()
    tables = []
    for i in range(2):
        t = pa.table({"k": list(range(100 * i, 100 * i + 100)),
                      "s": [f"v{j % 5}" for j in range(100)]})
        write_parquet_via_kernels(t, str(d / f"f{i}.parquet"),
                                  row_group_size=25, data_page_rows=5)
        tables.append(t)
    src_t = pa.concat_tables(tables)
    handler = _TailCountingHandler()
    fs = pafs.PyFileSystem(handler)
    for kw, want in (({}, src_t),
                     ({"predicate": ("k", "between", (30, 33))},
                      src_t.slice(30, 4)),
                     ({"columns": ["s"], "predicate": ("k", ">=", 190)},
                      src_t.slice(190).select(["s"]))):
        handler.tail_reads.clear()
        source = plan_read(str(d), filesystem=fs, **kw)
        assert sorted(handler.tail_reads.values()) == [1, 1], kw
        handler.tail_reads.clear()
        got = [t for task in source.get_read_tasks(3) for t in task()]
        assert not handler.tail_reads, (kw, handler.tail_reads)
        assert pa.concat_tables(got).equals(want), kw


def _task_indices(manifest: dict) -> set[int]:
    """The write-task index of each committed ``part-<task>-<seq>``."""
    return {int(r["file"].split("-")[1]) for r in manifest["files"]}


def test_materialized_write_runs_one_task_per_cpu_slot(ray_session,
                                                       tmp_path,
                                                       monkeypatch):
    """A ``from_arrow`` of 8 tables is written by at most
    ``task_count(8)`` tasks in one execution, one file per block; each
    file is the kernel image of its block, in block order, and the
    manifest records the task count.  On one CPU slot it is one task."""
    import ray
    from ray.data._internal.execution import streaming_executor as se

    from parquet_hs_ray import plan
    from parquet_hs_ray.sources.parquet_writer import encode_parquet_bytes

    runs = []
    execute = se.StreamingExecutor.execute

    def counting(self, *a, **k):
        runs.append(1)
        return execute(self, *a, **k)

    monkeypatch.setattr(se.StreamingExecutor, "execute", counting)
    tables = [pa.table({"x": pa.array(range(k * 50, k * 50 + 50), pa.int64()),
                        "s": [f"t{k}-{i % 5}" for i in range(50)]})
              for k in range(8)]
    for slots, out in ((None, "wide"), (1, "one")):
        if slots is not None:
            monkeypatch.setattr(plan, "cpu_slots", lambda: slots)
        runs.clear()
        m = write_parquet_kernels(ray.data.from_arrow(tables),
                                  str(tmp_path / out))
        assert len(runs) == 1, out  # the metadata reads start no execution
        tasks = _task_indices(m)
        assert len(m["files"]) == 8 and m["rows"] == 400
        assert m["write_tasks"] == len(tasks)
        assert len(tasks) <= plan.task_count(8)
        if slots == 1:
            assert len(tasks) == 1
        for r, t in zip(m["files"], tables):
            with open(tmp_path / out / r["file"], "rb") as fh:
                assert fh.read() == encode_parquet_bytes(
                    t, compression="SNAPPY")
        back = read_parquet_kernels(str(tmp_path / out)).take_all()
        assert pa.Table.from_pylist(back).sort_by("x").equals(
            pa.concat_tables(tables))


def test_lazy_write_runs_one_task_per_block(ray_session, tmp_path):
    """A lazy input streams: each block is its own write task, so no task
    waits for a share of the whole stream."""
    import ray

    ds = ray.data.range(800, override_num_blocks=8).map_batches(
        lambda b: {"x": b["id"]}, batch_format="numpy")
    m = write_parquet_kernels(ds, str(tmp_path / "lazy"))
    assert m["rows"] == 800 and len(m["files"]) == 8
    assert len(_task_indices(m)) == 8 == m["write_tasks"]


def test_materialized_empty_write_commits_empty_manifest(ray_session,
                                                          tmp_path):
    import ray

    out = str(tmp_path / "empty")
    m = write_parquet_kernels(
        ray.data.from_arrow(pa.table({"x": pa.array([], pa.int64())})), out)
    assert (m["files"], m["rows"], m["bytes"]) == ([], 0, 0)
    assert m == read_sink_manifest(out)
    assert read_parquet_kernels(out).count() == 0
