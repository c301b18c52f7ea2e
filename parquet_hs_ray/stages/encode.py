"""Encoder stage: the ``map_batches`` callable of the encode job, and
the one partition writer every blob-store job shares.

One batch = one partition plan row; ``encode_partitions`` reads its exact
input slice (row-group-aligned, column-complete) and hands it to
``write_partition``, which encodes every column via the auto-selected
codec, writes the blob atomically and then the manifest entry. The stage
is a plain function run as plain tasks: dictionaries and FSST symbol
tables are built per column inside ``encode_table`` and travel inside
the blob — the self-contained analogue of the reference's
threaded-through-recursion dictionary state (reference
`src/Parquet/Stream/Reader.hs:346-372`) — so nothing outlives a batch.

Restart-safety: encoding is deterministic (selector uses stride sampling,
no RNG) and the blob write is temp+rename keyed by partition id, so a
retried task overwrites with byte-identical content — idempotent.
"""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..format import encode_table
from ..plan import Partition
from ..state import manifest as mf


def read_slice(path: str, row_start: int, row_count: int, filesystem=None) -> pa.Table:
    """Read exactly rows [row_start, row_start+row_count) of a parquet file
    (local path or URI / explicit pyarrow filesystem), touching only the row
    groups that overlap the range."""
    from ..state import fsio

    f = pq.ParquetFile(fsio.open_parquet_input(path, filesystem))
    base = 0
    rgs = []
    first_base = None
    for rg in range(f.num_row_groups):
        n = f.metadata.row_group(rg).num_rows
        if base + n > row_start and base < row_start + row_count:
            if first_base is None:
                first_base = base
            rgs.append(rg)
        base += n
        if base >= row_start + row_count:
            break
    if not rgs:
        return f.schema_arrow.empty_table()
    tbl = f.read_row_groups(rgs)
    return tbl.slice(row_start - first_base, row_count)


def attach_bloom_stats(entry: dict, tbl: pa.Table) -> None:
    """Attach per-column Bloom filters to a manifest entry: point-equality
    pruning stats min/max can't provide on high-cardinality columns
    (``sources.bloom.build_manifest_bloom``). Shared by the encode and
    compact jobs."""
    if not tbl.num_rows:
        return
    from ..sources.bloom import build_manifest_bloom

    for name in tbl.column_names:
        st = entry["columns"].get(name)
        if st is not None:
            bl = build_manifest_bloom(tbl[name])
            if bl is not None:
                st["bloom"] = bl


def write_partition(out_dir: str, part: Partition, tbl: pa.Table, n_tokens: int,
                    filesystem=None, bloom: bool = True, **lineage) -> dict:
    """The one partition writer: ``encode_table`` -> atomic blob write ->
    manifest entry (with Bloom stats unless ``bloom=False``), blob first
    so a visible entry always has its blob. ``lineage`` adds fields to
    the entry; a ``read_ms`` among them counts toward ``wall_ms``.
    Returns the entry, which records ``encode_ms`` and ``write_ms``."""
    t0 = time.perf_counter()
    blob, stats = encode_table(tbl)
    t1 = time.perf_counter()
    mf.write_blob_atomic(out_dir, part.partition_id, blob, filesystem)
    t2 = time.perf_counter()
    entry = mf.make_entry(
        part, blob, raw_bytes=tbl.nbytes, n_rows=tbl.num_rows, n_tokens=n_tokens,
        col_stats=stats, wall_ms=lineage.get("read_ms", 0.0) + (t2 - t0) * 1e3,
    )
    if bloom:
        attach_bloom_stats(entry, tbl)
    entry.update(lineage, encode_ms=round((t1 - t0) * 1e3, 1),
                 write_ms=round((t2 - t1) * 1e3, 1))
    mf.write_entry(out_dir, entry, filesystem)
    return entry


def encode_partitions(batch: dict, out_dir: str, token_col: str | None = "n_tok",
                      filesystem=None, input_filesystem=None,
                      bloom_stats: bool = True) -> dict:
    """``map_batches`` callable of the encode job, bound to its options
    with ``functools.partial``: read the batch's one plan row's input
    slice (from ``input_filesystem``) and write it through
    ``write_partition`` (to ``filesystem``). Returns that partition's
    metrics row."""
    part = Partition(
        partition_id=int(batch["partition_id"][0]),
        path=str(batch["path"][0]),
        row_start=int(batch["row_start"][0]),
        row_count=int(batch["row_count"][0]),
        est_tokens=int(batch["est_tokens"][0]),
    )
    t0 = time.perf_counter()
    tbl = read_slice(part.path, part.row_start, part.row_count,
                     filesystem=input_filesystem)
    read_ms = round((time.perf_counter() - t0) * 1e3, 1)
    n_tokens = 0
    if token_col and token_col in tbl.column_names and tbl.num_rows:
        n_tokens = max(0, int(pa.compute.sum(tbl[token_col]).as_py() or 0))
    e = write_partition(out_dir, part, tbl, n_tokens, filesystem,
                        bloom=bloom_stats, read_ms=read_ms)
    return {k: np.asarray([e[k]]) for k in ("partition_id", "row_count", "n_tokens",
                                            "raw_bytes", "encoded_bytes", "wall_ms")}
