"""Distributed Parquet sink built on our own write kernels.

``KernelParquetDatasink`` plugs ``encode_parquet_bytes`` (thrift footer,
Dremel shredding, RLE levels, PLAIN / PLAIN_DICTIONARY pages —
`parquet_writer.py`) into Ray Data's ``Dataset.write_datasink`` write
operator, so a streaming pipeline can land standard Parquet without
pyarrow's writer anywhere on the path: one file per non-empty block
(``part-<task>-<seq>.parquet``), each written atomically
(write-then-rename via ``fsio.write_atomic``), plus a committed
``_kernel_manifest.json`` listing every file with row/byte counts —
consumers treat a directory without the manifest as an aborted write.

The reference is decode-only (`/root/reference/src/Parquet/Decoder.hs`
stops at ``encodeVarint``); a distributed sink is the strict-superset
write half, shaped for the brief's "resumable output: partitioned
Parquet, never one giant file".

Scale notes: blocks stream through write tasks with backpressure (no
driver materialization); each task holds only its current block plus
the encoded image. File count == non-empty block count, controlled
upstream with ``repartition`` / block size. A materialized input
(``from_arrow``, ``from_pandas``, ``.materialize()``) is written by at
most ``plan.task_count(blocks)`` tasks, each over a run of its blocks;
a lazy input streams one block per task.
"""

from __future__ import annotations

import functools
import json
import os
from typing import Iterable

from ray.data import Datasink, Datasource, ReadTask, read_datasource
from ray.data.block import BlockMetadata
from ray.data._internal.execution.interfaces import TaskContext
from ray.data.dataset import MaterializedDataset

from .. import predicates as P
from ..plan import task_count
from ..state import fsio
from .parquet_writer import check_options, encode_parquet_bytes

MANIFEST_NAME = "_kernel_manifest.json"


class KernelParquetDatasink(Datasink):
    """Write a Dataset as standard Parquet through our kernels."""

    def __init__(self, path: str, compression: str = "SNAPPY",
                 row_group_size: int = 1 << 20,
                 use_dictionary: bool = True, encodings: str = "classic",
                 page_version: str = "1.0", filesystem=None,
                 data_page_rows: int | None = None,
                 bloom_filters=None):
        # validate up front: on_write_start destructively clears the
        # destination, so a bad mode must fail before any cleanup
        check_options(compression, encodings, page_version)
        self._path = path
        self._filesystem = filesystem
        self._opts = dict(compression=compression,
                          row_group_size=row_group_size,
                          use_dictionary=use_dictionary, encodings=encodings,
                          page_version=page_version,
                          data_page_rows=data_page_rows,
                          bloom_filters=bloom_filters)
        # rows Ray bundles into one write task; None: one block per task
        self._rows_per_task: int | None = None

    def get_name(self) -> str:
        return "KernelParquet"

    @property
    def min_rows_per_write(self) -> int | None:
        return self._rows_per_task

    def on_write_start(self) -> None:
        fsio.mkdirs(self._path, self._filesystem)
        # a fresh write invalidates any previous commit marker AND its
        # part files: a rewrite with fewer write tasks must not leave
        # stale parts for glob-based readers to double-count
        marker = fsio.join(self._path, MANIFEST_NAME)
        if fsio.exists(marker, self._filesystem):
            fsio.delete_file(marker, self._filesystem)
        for name in fsio.list_files(self._path, self._filesystem):
            if name.startswith("part-") and name.endswith(".parquet"):
                fsio.delete_file(fsio.join(self._path, name),
                                 self._filesystem)

    def write(self, blocks: Iterable, ctx: TaskContext) -> list[dict]:
        from ray.data.block import BlockAccessor

        results = []
        for seq, block in enumerate(blocks):
            t = BlockAccessor.for_block(block).to_arrow()
            if t.num_rows == 0:
                continue
            blob = encode_parquet_bytes(t, **self._opts)
            name = f"part-{ctx.task_idx:06d}-{seq:04d}.parquet"
            fsio.write_atomic(fsio.join(self._path, name), blob,
                              self._filesystem)
            results.append({"file": name, "rows": t.num_rows,
                            "bytes": len(blob)})
        return results

    def on_write_complete(self, write_result) -> None:
        files = [r for task in write_result.write_returns for r in task]
        manifest = {
            "files": sorted(files, key=lambda r: r["file"]),
            # one write() return per task: the task-count decision
            "write_tasks": len(write_result.write_returns),
            "rows": sum(r["rows"] for r in files),
            "bytes": sum(r["bytes"] for r in files),
            "compression": self._opts["compression"],
        }
        fsio.write_atomic(fsio.join(self._path, MANIFEST_NAME),
                          json.dumps(manifest, indent=1).encode(),
                          self._filesystem, durable=True)


def write_parquet_kernels(ds, path: str, compression: str = "SNAPPY",
                          row_group_size: int = 1 << 20,
                          use_dictionary: bool = True,
                          encodings: str = "classic",
                          page_version: str = "1.0",
                          filesystem=None,
                          data_page_rows: int | None = None,
                          bloom_filters=None) -> dict:
    """``Dataset.write_parquet`` twin over the kernel writer: streams
    the dataset's blocks through ``KernelParquetDatasink`` (one file per
    non-empty block) and returns the committed manifest.  A
    ``MaterializedDataset`` is written by at most
    ``plan.task_count(num_blocks)`` tasks, each over about
    ``rows / tasks`` rows of whole blocks: its blocks already sit in the
    object store, and Ray Data's per-task cost, not the encode, bounds a
    write of a few blocks.  A lazy dataset keeps one task per block, so
    no task waits for a share of the whole stream.  The options are
    ``encode_parquet_bytes``'s; ``bloom_filters`` (column names or
    ``{name: fpp}``) emits per-chunk split-block bloom filters the
    read path probes for equality predicates (`bloom.py`)."""
    sink = KernelParquetDatasink(path, compression=compression,
                                 row_group_size=row_group_size,
                                 use_dictionary=use_dictionary,
                                 encodings=encodings,
                                 page_version=page_version,
                                 filesystem=filesystem,
                                 data_page_rows=data_page_rows,
                                 bloom_filters=bloom_filters)
    if isinstance(ds, MaterializedDataset):
        # both read the block metadata: no execution runs
        rows = ds.count()
        if rows:
            sink._rows_per_task = -(-rows // task_count(ds.num_blocks()))
    ds.write_datasink(sink)
    return read_sink_manifest(path, filesystem)


# driver-side parsed-footer cache: repeated reads of the same files
# (a lookup per key) parse each footer once.  Decode tasks never read a
# footer: each ``ReadTask`` carries the parsed footers of its files.
# Keyed by (path, size, mtime_ns) so an overwritten file re-parses;
# bounded; local paths only (remote filesystems skip the cache — no
# cheap validity key).
_KM_CACHE: dict = {}


def _cached_km(path: str, filesystem):
    from .parquet_footer import read_footer_via_kernels

    if filesystem is not None or "://" in path:
        return read_footer_via_kernels(path, filesystem=filesystem)
    try:
        st = os.stat(path)
        key = (path, st.st_size, st.st_mtime_ns)
    except OSError:
        return read_footer_via_kernels(path, filesystem=filesystem)
    km = _KM_CACHE.get(key)
    if km is None:
        km = read_footer_via_kernels(path, filesystem=filesystem)
        if len(_KM_CACHE) >= 64:
            _KM_CACHE.clear()
        _KM_CACHE[key] = km
    return km


def read_sink_manifest(path: str, filesystem=None) -> dict:
    """Load the commit manifest; raises if the write never committed."""
    marker = fsio.join(path, MANIFEST_NAME)
    if not fsio.exists(marker, filesystem):
        raise FileNotFoundError(
            f"{marker} missing: the kernel-sink write did not complete")
    return json.loads(fsio.read_bytes(marker, filesystem))


def _decode_row_group(path: str, km, rg: int, columns, preds,
                      filesystem):
    """Decode one planned row group of ``path`` (parsed footer ``km``)
    through our kernels — only the pages the page index keeps when a
    predicate allows — then apply the EXACT filter and the projection."""
    from .parquet_footer import prune_pages_by_index
    from .parquet_pages import read_row_group_page_pruned

    # the filter needs its columns decoded even when projected away
    read_cols = columns
    if preds and columns is not None:
        read_cols = columns + [c for c, _, _ in preds if c not in columns]
    ranges = (prune_pages_by_index(km, path, rg, preds,
                                   filesystem=filesystem)
              if preds else None)
    if ranges is None:
        ranges = [(0, km.row_groups[rg].num_rows)]
    t = read_row_group_page_pruned(path, km, rg, ranges, columns=read_cols,
                                   filesystem=filesystem)
    if preds:
        t = t.filter(P.mask(t, preds))
        if columns is not None:
            t = t.select(columns)
    return t


def _decode_run(run: list, kms: dict, columns, preds, filesystem):
    """Read-task body: decode a run of ``(path, rg, bytes)`` one row
    group at a time, yielding one table per row group, so a task holds
    at most one decoded row group beyond Ray's output buffer."""
    for path, rg, _ in run:
        yield _decode_row_group(path, kms[path], rg, columns, preds,
                                filesystem)


class KernelParquetDatasource(Datasource):
    """A planned kernel read as a Ray Data source.  ``work`` is the
    surviving ``(path, row_group, bytes)`` triples in plan order and
    ``kms`` maps each path to its parsed footer.  ``get_read_tasks(n)``
    splits ``work`` into ``min(n, len(work))`` contiguous runs of
    near-equal row-group counts; each ``ReadTask`` carries its files'
    footers and streams its run through ``_decode_run``.  ``empty`` is
    the 0-row projected table a read whose plan kept nothing returns,
    as its single task."""

    def __init__(self, work: list, kms: dict, empty, columns, preds,
                 filesystem):
        self._work = work
        self._kms = kms
        self._empty = empty
        self._decode_args = (columns, preds, filesystem)

    def get_name(self) -> str:
        return "KernelParquet"

    def estimate_inmemory_data_size(self) -> int:
        return sum(nbytes for _, _, nbytes in self._work)

    def get_read_tasks(self, parallelism: int) -> list:
        if not self._work:
            empty = self._empty
            return [ReadTask(lambda: [empty], BlockMetadata(
                num_rows=0, size_bytes=0, exec_stats=None,
                input_files=None))]
        # the first len % n runs take one extra row group, as
        # np.array_split does in Ray's own ParquetDatasource
        n = max(1, min(parallelism, len(self._work)))
        q, r = divmod(len(self._work), n)
        tasks, start = [], 0
        for i in range(n):
            run = self._work[start:start + q + (i < r)]
            start += len(run)
            files = list(dict.fromkeys(p for p, _, _ in run))
            tasks.append(ReadTask(
                functools.partial(_decode_run, run,
                                  {p: self._kms[p] for p in files},
                                  *self._decode_args),
                BlockMetadata(num_rows=None,
                              size_bytes=sum(b for _, _, b in run),
                              exec_stats=None, input_files=files)))
        return tasks


def read_parquet_kernels(path: str, columns: list[str] | None = None,
                         predicate=None, filesystem=None,
                         footer: str = "kernels"):
    """Distributed parquet READ through our kernels: the inverse of
    ``write_parquet_kernels`` — returns a lazy ``ray.data.Dataset``.

    The driver plans the read (``plan_read``): it parses each file's
    footer through our thrift kernels (`parquet_footer.py`) and prunes
    row groups against ``predicate`` — statistics, then split-block
    bloom filters, then dictionary pages.  The plan becomes one
    ``KernelParquetDatasource`` read as a single Ray Data execution,
    started when the dataset is consumed.  It runs
    ``plan.task_count(surviving row groups)`` read tasks (one per CPU
    slot, never more than there are row groups), each over a contiguous
    run of row groups that it decodes and streams out one row group at a
    time, so one multi-GB file still fans out across the CPU slots and
    no task holds more than one decoded row group plus Ray's output
    buffer.  Each task carries the parsed footers of its files, so
    decode tasks never read a footer.  Blocks stream out with
    backpressure; the driver holds footers, never data.  A read whose
    plan keeps no row group returns 0 rows with the projected schema,
    taken from the footer the driver parsed.

    ``path`` is a single parquet file, a directory, or an explicit
    list of files.  A directory holding a ``_kernel_manifest.json``
    reads the COMMITTED file list (a sink dir without one is an
    aborted write and raises — partial data never reads back
    silently); other directories glob ``*.parquet`` with ``_``/``.``
    entries skipped per parquet dataset convention.

    ``predicate`` is one ``(column, op, value)`` tuple or a list of
    them, AND semantics, in the grammar of `predicates.py` (every op
    but ``contains``, which needs a list column): row groups whose
    footer min/max and null counts provably cannot match are never
    decoded, then the EXACT filter is applied to the decoded rows —
    pushdown as pruning, not as semantics.

    Pruning always runs and is one-sided: it never changes the rows.
    Inside each surviving row group a predicate also prunes at PAGE
    granularity through the ColumnIndex/OffsetIndex structures when the
    file carries them (our writer emits them; parquet-format
    PageIndex.md) — only pages whose row ranges may match are read and
    decoded.  ``==`` and ``in`` predicates also probe each candidate row
    group's split-block bloom filter when the file carries one
    (`bloom.py`; our writer emits them under ``bloom_filters=``) — the
    unsorted-high-cardinality case where min/max statistics prune
    nothing — and then its dictionary page, which is definitive when
    PageEncodingStats prove every data page dictionary-encoded.  A
    missing or foreign filter or dictionary keeps the row group.  Every
    page's stored CRC-32 is checked as it decodes; a corrupt page
    raises.

    ``filesystem`` (any pyarrow FileSystem, e.g.
    ``state.httpfs.http_range_filesystem``) makes every footer and
    column-chunk read a ranged GET through it — the reference's
    ``remoteParquetFile`` (`Reader.hs:223-248`) at Dataset scale.

    ``footer`` accepts only ``"kernels"``, the one footer engine; it
    remains so callers that still pass it keep working."""
    if footer != "kernels":
        raise ValueError(
            f"footer must be 'kernels' (the only footer engine), "
            f"got {footer!r}")
    source = plan_read(path, columns=columns, predicate=predicate,
                       filesystem=filesystem)
    # Ray's autodetect would ask for 2x CPUs and then split a short
    # read's output into extra blocks
    return read_datasource(source, override_num_blocks=task_count(len(source._work)))


def plan_read(path, columns: list[str] | None = None, predicate=None,
              filesystem=None) -> KernelParquetDatasource:
    """The driver half of ``read_parquet_kernels``, Ray-free: resolve
    the files, parse each footer once, validate ``columns`` and
    ``predicate`` against it, and prune row groups by statistics, then
    split-block bloom filters, then dictionary pages."""
    from .parquet_pages import read_parquet_via_kernels

    def _isdir(p: str) -> bool:
        import pyarrow.fs as pafs

        fs, rp = fsio.resolve(p, filesystem)
        return fs.get_file_info(rp).type == pafs.FileType.Directory

    if isinstance(path, (list, tuple)):
        files = list(path)
    elif _isdir(path):
        marker = fsio.join(path, MANIFEST_NAME)
        listing = [
            n for n in fsio.list_files(path, filesystem)
            if n.endswith(".parquet") and not n.startswith(("_", "."))]
        if fsio.exists(marker, filesystem):
            manifest = read_sink_manifest(path, filesystem)
            names = [r["file"] for r in manifest["files"]]
            missing = set(names) - set(listing)
            if missing:
                raise FileNotFoundError(
                    f"manifest lists files absent on disk: "
                    f"{sorted(missing)[:5]}")
            files = [fsio.join(path, n) for n in names]
            if not files:  # committed EMPTY write: 0-row dataset
                import pyarrow as pa

                return KernelParquetDatasource([], {}, pa.table({}),
                                               columns, [], filesystem)
        elif any(n.startswith("part-") for n in listing):
            # sink-shaped dir without a commit marker: aborted write
            raise FileNotFoundError(
                f"{marker} missing: refusing to read a possibly "
                "partial kernel-sink write")
        else:
            files = [fsio.join(path, n) for n in listing]
    else:
        if not fsio.exists(path, filesystem):
            raise FileNotFoundError(path)
        files = [path]
    if not files:
        raise FileNotFoundError(f"no parquet files under {path}")

    preds = P.normalize(predicate)
    # one footer parse per file per read: validation, pruning, the
    # empty-result schema and the decode tasks all use these
    kms = [_cached_km(p, filesystem) for p in files]
    if columns is not None or preds:
        # fail fast on the driver, not as a deferred per-task RayTaskError
        import pyarrow as pa

        sch = kms[0].schema
        known = set(sch.names)
        missing = set(columns or []) - known
        for c, op, _ in preds:
            if c not in known:
                missing.add(c)
            elif pa.types.is_nested(sch.field(c).type):
                raise ValueError(
                    f"predicate column {c!r} is nested; only flat "
                    "columns filter")
            elif op == "contains":
                raise ValueError(
                    f"'contains' needs a list column, and {c!r} is flat")
        if missing:
            raise KeyError(f"columns not in schema: {sorted(missing)}")

    work = []
    for p, km in zip(files, kms):
        if preds:
            from .bloom import prune_row_groups_by_bloom
            from .parquet_footer import prune_row_groups_by_stats_kernels
            from .parquet_pages import prune_row_groups_by_dict

            rgs = prune_row_groups_by_stats_kernels(km, preds)
            # split-block bloom probes (bloom.py): row groups whose
            # filter PROVES every member of a membership predicate
            # absent are dropped even when min/max could not prune
            # (the unsorted high-cardinality case); one-sided
            rgs = prune_row_groups_by_bloom(
                km, preds, p, filesystem=filesystem,
                candidates=list(rgs))
            # dictionary-membership pruning: definitive where
            # PageEncodingStats prove all-dict data pages — catches
            # bloom false positives AND files written with no
            # blooms at all (pyarrow/DuckDB defaults)
            rgs = prune_row_groups_by_dict(
                km, preds, p, filesystem=filesystem,
                candidates=list(rgs))
        else:
            rgs = range(len(km.row_groups))
        work.extend((p, rg, km.row_groups[rg].total_byte_size)
                    for rg in rgs)
    empty = None
    if not work:
        empty = read_parquet_via_kernels(
            files[0], columns=columns, row_groups=[],
            filesystem=filesystem, km=kms[0])
    return KernelParquetDatasource(work, dict(zip(files, kms)), empty,
                                   columns, preds, filesystem)
