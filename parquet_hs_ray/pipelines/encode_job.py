"""Encode / decode / verify jobs — Ray Data orchestration.

Lifecycle (SURVEY.md §3.5): plan on the driver (n_tok-pruned scan,
skew-aware token budget; ``plan.build_plan`` starts no Ray task) ->
resume-filter on manifest -> control Dataset of partitions ->
``map_batches(encode_partitions)`` -> blobs + per-partition manifest.
Decode is the inverse: manifest -> control Dataset ->
``map_batches(DecoderStage)`` -> Arrow tables streaming onward.

Every job (encode, decode, export, compact, backfill, delete, verify)
has one task shape, ``_map_partitions``, and it is the job's only Ray
execution (the encode plan is made on the driver): a control Dataset
with one row per partition, cut into ``plan.task_count`` contiguous
runs (one per CPU slot, the rule the kernel Parquet read uses too), one
plain task per run; each stage body handles its batch's one row. The rows of a blob
read (``partition_id`` and the manifest ``crc32``) come from
``_blob_rows``. The stage is passed as a callable (an instance, a
closure or a ``functools.partial``), never through ``fn_kwargs``, and
each job consumes its Dataset with ``to_pandas()``, ``take_all()`` or
``iter_batches()``: the slice of Ray Data that the benchmark's
in-process replay (``perfbench/tracing.py``) runs.

Partition I/O has one reader and one writer: every blob read goes
through ``manifest.read_blob`` with its manifest crc32 (a corrupt blob
fails the job), and every blob written goes through
``stages.encode.write_partition`` (encode, compaction, backfill).
Decode, export, delete and ``pruned_partition_ids`` are planned on the
driver by ``_plan_read`` from the manifests' column sets: a column no
entry lists raises ``KeyError``, a column a partition predates is
all-NULL to the stats pruning and to the row mask alike
(``predicates.absent_may_match``). Decode, export and compaction decode
rows through ``DecoderStage``; ``delete_rows``, ``verify_roundtrip``
and ``backfill_columns`` read the checked blob directly: they need
every stored row at its stored position, and ``DecoderStage`` drops
deleted rows.

These functions do NOT call ray.init()/shutdown() (driver contract); they
assume a session exists (Ray Data auto-inits local otherwise).
"""

from __future__ import annotations

import functools
import glob
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data

from .. import predicates as P
from ..format import blob_schema, decode_table
from ..plan import (DEFAULT_TOKEN_BUDGET, Partition, build_plan, load_plan, save_plan,
                    task_count)
from ..stages.decode import DecoderStage, true_rows
from ..stages.encode import encode_partitions, read_slice, write_partition
from ..state import deletes as dvs
from ..state import fsio
from ..state import manifest as mf


def _map_partitions(items: list[dict], stage) -> "ray.data.Dataset":
    """The one task shape of every job: a control Dataset of partition
    rows cut into ``task_count(len(items))`` contiguous blocks, one plain
    task per block; ``stage`` is called once per row, with a numpy batch
    holding exactly that row."""
    runs = ray.data.from_items(items, override_num_blocks=task_count(len(items)))
    return runs.map_batches(stage, batch_size=1, num_cpus=1, batch_format="numpy")


def _blob_rows(entries) -> list[dict]:
    """Control rows of a blob read: partition id and manifest crc32."""
    return [{"partition_id": e["partition_id"], "crc32": e.get("checksum_crc32", -1)}
            for e in entries]


def _one_row(**fields) -> dict:
    """A stage's output: one numpy row."""
    return {k: np.asarray([v]) for k, v in fields.items()}


def tables_bitwise_equal(a, b) -> bool:
    """Arrow equality that treats NaN slots with identical bit patterns as
    equal (Table.equals follows IEEE NaN != NaN, which would flag a
    bit-perfect float round-trip as a mismatch)."""
    a = a.combine_chunks() if isinstance(a, pa.Table) else a
    b = b.combine_chunks() if isinstance(b, pa.Table) else b
    if a.schema != b.schema or a.num_rows != b.num_rows:
        return False
    for name in a.column_names:
        ca, cb = a[name].combine_chunks(), b[name].combine_chunks()
        t = ca.type
        if pa.types.is_floating(t):
            va = pc.is_valid(ca).to_numpy(zero_copy_only=False)
            vb = pc.is_valid(cb).to_numpy(zero_copy_only=False)
            if not np.array_equal(va, vb):
                return False
            itemsize = np.dtype(t.to_pandas_dtype()).itemsize
            ua = np.frombuffer(ca.buffers()[1], dtype=f"u{itemsize}", count=len(ca), offset=ca.offset * itemsize)
            ub = np.frombuffer(cb.buffers()[1], dtype=f"u{itemsize}", count=len(cb), offset=cb.offset * itemsize)
            if not np.array_equal(ua[va], ub[va]):
                return False
        elif not ca.equals(cb):
            return False
    return True


def _expand_paths(input_path: str | list[str], filesystem=None) -> list[str]:
    if isinstance(input_path, (list, tuple)):
        return sorted(input_path)
    if filesystem is not None or "://" in input_path:
        # URI / explicit-fs input: expand a directory into its *.parquet
        import pyarrow.fs as pafs

        fs, p = fsio.resolve(input_path, filesystem)
        info = fs.get_file_info(p)
        if info.type == pafs.FileType.Directory:
            names = [n for n in fsio.list_files(p, fs) if n.endswith(".parquet")]
            prefix = input_path.rstrip("/")
            return [f"{prefix}/{n}" for n in names]
        return [input_path]
    if os.path.isdir(input_path):
        return sorted(glob.glob(os.path.join(input_path, "*.parquet")))
    return sorted(glob.glob(input_path)) or [input_path]


def encode_dataset(
    input_path: str | list[str],
    out_dir: str,
    token_col: str | None = "n_tok",
    token_budget: int = DEFAULT_TOKEN_BUDGET,
    resume: bool = True,
    filesystem=None,
    input_filesystem=None,
    append: bool = False,
    bloom_stats: bool = True,
) -> dict:
    """Run the encode job; returns the manifest summary. Safe to re-run:
    finished partitions are skipped (checkpoint resume).

    ``filesystem`` / ``input_filesystem``: optional ``pyarrow.fs``
    filesystems for the encoded output and the source parquet (paths may
    also simply be URIs) — on a multi-node cluster the output MUST be on
    shared storage.

    Each task encodes a contiguous run of partitions, one at a time:
    encoding holds no state across partitions (symbol tables are rebuilt
    deterministically per blob), so a blob does not depend on which
    task wrote it."""
    paths = _expand_paths(input_path, input_filesystem)
    mf.ensure_dirs(out_dir, filesystem)
    plan_path = fsio.join(out_dir, "plan.json")
    if resume and fsio.exists(plan_path, filesystem):
        plan = load_plan(plan_path, filesystem)
        plan_paths = sorted({p.path for p in plan})
        if plan_paths != sorted(paths):
            new_files = sorted(set(paths) - set(plan_paths))
            missing = sorted(set(plan_paths) - set(paths))
            if append and new_files and not missing:
                # extend the dataset: plan only the new files, partition ids
                # continue after the existing plan (old partitions, blobs and
                # lineage are untouched — an append never rewrites)
                extra = build_plan(new_files, token_col=token_col,
                                   token_budget=token_budget, filesystem=input_filesystem)
                base = max(p.partition_id for p in plan) + 1
                plan = plan + [Partition(base + p.partition_id, p.path, p.row_start,
                                         p.row_count, p.est_tokens) for p in extra]
                save_plan(plan, plan_path, filesystem)
            else:
                raise ValueError(
                    f"out_dir {out_dir} holds a plan for different input files "
                    f"({len(plan_paths)} vs {len(paths)} requested); pass a fresh "
                    "out_dir, resume=False / --force, or append=True to add new files"
                )
    else:
        plan = build_plan(paths, token_col=token_col, token_budget=token_budget,
                          filesystem=input_filesystem)
        save_plan(plan, plan_path, filesystem)

    done = mf.finished_ids(out_dir, filesystem) if resume else set()
    todo = [p for p in plan if p.partition_id not in done]
    result = {"planned": len(plan), "skipped_finished": len(done), "encoded": len(todo)}
    if not todo:
        result.update(mf.summary(out_dir, filesystem))
        return result

    stage = functools.partial(encode_partitions, out_dir=out_dir, token_col=token_col,
                              filesystem=filesystem, input_filesystem=input_filesystem,
                              bloom_stats=bloom_stats)
    # consume: the stage wrote blobs+manifest; this materializes only the
    # small per-partition metrics rows
    result["encoded"] = len(_map_partitions([vars(p) for p in todo], stage).to_pandas())
    result.update(mf.summary(out_dir, filesystem))
    return result


def _probe_hashes(preds: list) -> list:
    """Per predicate: its membership probes (`predicates.members`) hashed
    once per manifest Bloom kind, or None for ops a Bloom cannot decide."""
    from ..sources.bloom import manifest_probe_hashes

    return [None if (m := P.members(op, v)) is None else manifest_probe_hashes(m)
            for _, op, v in preds]


def _stats_can_match(entry: dict, preds: list, probe_hashes: list) -> bool:
    """False only when the partition's manifest stats PROVE no row can
    satisfy the conjunction: min/max and null counts through the one
    predicate engine (`predicates.py`), then the per-partition Bloom
    for membership ops — the payoff for the per-column stats the
    reference parses but never uses (Types/Primitives.hs:79-87).
    ``probe_hashes`` is ``_probe_hashes(preds)``, computed once per
    plan, not once per partition."""
    from ..sources.bloom import manifest_bloom_may_contain

    for (col, op, v), hashes in zip(preds, probe_hashes):
        st = entry.get("columns", {}).get(col)
        if st is None:  # an entry keys every column its blob holds
            if not P.absent_may_match(op, v, entry.get("row_count")):
                return False
            continue
        if not P.may_match(op, v, st.get("min"), st.get("max"),
                           st.get("null_count"), entry.get("row_count")):
            return False
        # membership ops: the Bloom proves absence min/max can't
        # (uniform high-cardinality ids); a false positive only costs
        # a wasted decode
        if hashes is not None and \
                not manifest_bloom_may_contain(st.get("bloom"), hashes):
            return False
    return True


def pruned_partition_ids(out_dir: str, predicate, filesystem=None) -> tuple[list[int], int]:
    """(kept partition ids, total finished) for a predicate."""
    rows, total, _ = _plan_read(out_dir, predicate=predicate, filesystem=filesystem,
                                apply_deletes=False)
    return [r["partition_id"] for r in rows], total


def _plan_read(out_dir: str, columns: list[str] | None = None, predicate=None,
               filesystem=None, unify_schema: bool = False,
               aux_families: list[str] | None = None, apply_deletes: bool = True,
               snapshot: str | None = None) -> tuple[list[dict], int, DecoderStage]:
    """The one driver-side plan of a blob read (decode, export, delete,
    pruning), made from the manifests: an entry keys every column its
    blob holds, a family's entries key the family's columns. A predicate
    column no partition holds, or a projected column no partition or
    family holds, raises ``KeyError`` before any task; ``columns`` splits
    into base and per-family columns; the partitions whose stats may
    match are kept. Only ``unify_schema=True`` reads blobs here: one
    header per distinct column set of each store (``_union_schema``).
    Returns (control rows of the kept partitions, number of partitions,
    the ``DecoderStage`` that decodes them; its ``out_columns`` are
    ``columns``, else every column a partition or family holds)."""
    preds = P.normalize(predicate)
    entries = mf.load_manifest(out_dir, filesystem)
    families = {aux_family_dir(out_dir, fam): mf.finished_entries(
        aux_family_dir(out_dir, fam), filesystem) for fam in aux_families or ()}
    held = {d: set().union(*(e.get("columns", {}) for e in es))
            for d, es in [(out_dir, entries), *families.items()]}
    unknown = sorted({p[0] for p in preds} - held[out_dir])
    if entries and unknown:
        raise KeyError(f"predicate columns in no partition: {unknown}")
    known = set().union(*held.values())
    unknown = [c for c in columns or () if c not in known]
    if entries and unknown:
        raise KeyError(f"unknown columns {unknown}: no partition or family holds "
                       f"them (target schema: {sorted(known)})")
    delete_vectors, deleted_pids = None, set()
    if snapshot is not None:
        from ..state import snapshots as snaps

        snap = snaps.load_snapshot(out_dir, snapshot, filesystem)
        snap_crc = {int(r["partition_id"]): int(r.get("crc32", -1))
                    for r in snap["partitions"]}
        missing = sorted(set(snap_crc) - {e["partition_id"] for e in entries})
        if missing:
            raise ValueError(
                f"snapshot {snapshot!r} references partitions no longer in "
                f"the manifest (e.g. {missing[:3]}) — store was rebuilt")
        # a pinned partition's blob must match the SNAPSHOT's crc32
        entries = [dict(e, checksum_crc32=snap_crc[e["partition_id"]])
                   for e in entries if e["partition_id"] in snap_crc]
        delete_vectors = snaps.snapshot_delete_vectors(snap) if apply_deletes else {}
    elif apply_deletes:
        deleted_pids = dvs.list_delete_pids(out_dir, filesystem)
    probe_hashes = _probe_hashes(preds)
    rows = _blob_rows(e for e in entries if _stats_can_match(e, preds, probe_hashes))
    pids = {r["partition_id"] for r in rows}
    aux: dict[str, tuple[dict[int, int], set[str]]] = {}
    for fam, (adir, fes) in zip(dict.fromkeys(aux_families or ()), families.items()):
        missing = pids - {e["partition_id"] for e in fes}
        if missing:
            raise ValueError(
                f"aux family {fam!r} is missing {len(missing)} of "
                f"{len(pids)} partitions (e.g. {sorted(missing)[:3]}); "
                "run backfill_columns to completion first")
        want = held[adir] if columns is None else held[adir] & set(columns)
        if want:
            aux[adir] = ({e["partition_id"]: e.get("checksum_crc32", -1) for e in fes}, want)
    target = _union_schema([(out_dir, entries), *families.items()], filesystem) \
        if unify_schema else None
    stage = DecoderStage(out_dir, columns, filesystem=filesystem, predicate=preds,
                         target_schema=target, aux=aux,
                         deleted_pids=deleted_pids, delete_vectors=delete_vectors)
    stage.out_columns = list(columns or sorted(known))
    return rows, len(entries), stage


def _union_schema(stores: list[tuple[str, list[dict]]], filesystem=None) -> pa.Schema:
    """Union schema of an evolved store and its families (``[(store dir,
    entries)]``): one blob header read per DISTINCT column-name set of
    each store (the driver never opens the rest); same-name type
    conflicts across probed sets raise here, drift within a name set is
    caught by the decode stage."""
    fields: dict[str, pa.Field] = {}
    for d, entries in stores:
        probe: dict[frozenset, dict] = {}
        for e in entries:
            probe.setdefault(frozenset(e.get("columns", {})), e)
        for e in probe.values():
            for f in blob_schema(mf.read_blob(d, e["partition_id"], filesystem,
                                              e.get("checksum_crc32"))):
                if fields.setdefault(f.name, f).type != f.type:
                    raise ValueError(
                        f"schema evolution type conflict on {f.name!r}: "
                        f"{fields[f.name].type} vs {f.type}")
    return pa.schema(list(fields.values()))


def delete_rows(out_dir: str, predicate, filesystem=None) -> dict:
    """Row-level DELETE over an encoded store, without rewriting blobs.

    Rows where ``predicate`` (same grammar as ``decode_dataset``)
    evaluates TRUE are recorded in per-partition deletion-vector
    sidecars (``state/deletes.py`` — the Delta/Iceberg design);
    ``decode_dataset``/``decode_to_parquet`` apply them as keep masks
    and ``compact_dataset`` materializes them.  SQL ``DELETE WHERE``
    semantics: NULL evaluations do NOT delete (the surviving set is
    ``WHERE pred IS NOT TRUE``).  Repeated deletes union; re-running
    the same delete is idempotent and writes nothing.

    Distributed shape: manifest min/max + Bloom stats prune partitions
    that cannot contain a matching row before any blob is opened;
    surviving partitions decode ONLY the predicate columns.  Only
    (partition_id, counts) rows return to the driver.  The row mask is
    ``true_rows``, the decoder's: on an evolved store a partition that
    predates a predicate column reads it as all-NULL."""
    preds = P.normalize(predicate)
    if not preds:
        raise ValueError("delete_rows requires a predicate")
    items, total, _ = _plan_read(out_dir, predicate=preds, filesystem=filesystem,
                                 apply_deletes=False)
    result = {"partitions": total,
              "partitions_scanned": len(items),
              "partitions_changed": 0, "rows_newly_deleted": 0}
    if not items:
        return result

    def scan(batch: dict) -> dict:
        pid = int(batch["partition_id"][0])
        blob = mf.read_blob(out_dir, pid, filesystem, int(batch["crc32"][0]))
        # only TRUE deletes: the mask fills NULL with False
        idx = np.flatnonzero(true_rows(blob, preds).to_numpy(zero_copy_only=False))
        n = dvs.write_delete_vector(out_dir, pid, idx, filesystem) if len(idx) else 0
        return _one_row(partition_id=pid, new=n)

    res = _map_partitions(items, scan).to_pandas()
    result["partitions_changed"] = int((res["new"] > 0).sum())
    result["rows_newly_deleted"] = int(res["new"].sum())
    return result


def decode_dataset(out_dir: str, columns: list[str] | None = None,
                   filesystem=None, predicate=None,
                   unify_schema: bool = False,
                   aux_families: list[str] | None = None,
                   apply_deletes: bool = True,
                   snapshot: str | None = None
                   ) -> "ray.data.Dataset":
    """Lazy decode Dataset over all finished partitions (streaming): one
    ``DecoderStage`` call per partition, one task per run of partitions.

    ``predicate`` (grammar in ``predicates.py``) prunes whole partitions by
    manifest min/max stats BEFORE any blob is opened; surviving partitions
    decode the predicate columns FIRST (byte-level frame skip), full-decode
    only on a match, and filter exactly — same semantics, ~selectivity×
    less IO and decode work.  ``columns`` (output order) may name base
    and ``aux_families`` columns alike; families (``backfill_columns``)
    join by row position before the row mask.  A predicate or
    ``columns`` name no manifest entry lists raises ``KeyError`` before
    any task starts.

    Schema evolution: a column a partition predates is all-NULL, with or
    without ``unify_schema``, so predicates on it match nothing there
    (the manifest stats prune the partition) except ``is_null``.
    ``unify_schema=True`` adapts every partition to the UNION schema of
    the store and its families (one blob header read per distinct column
    set): missing columns null-pad, same-name type conflicts raise (at
    the driver, or in the stage for type drift within one name set).
    Without it a partition that predates a projected column raises.

    ``apply_deletes`` (default True) honors deletion-vector sidecars
    written by ``delete_rows``; pass False to audit the base data.

    ``snapshot`` time-travels: only partitions recorded by
    ``state.snapshots.create_snapshot`` are visible, the snapshot's
    PINNED delete vectors apply unless ``apply_deletes`` is False (later
    deletes are ignored either way), and blob crc32s are checked against
    the snapshot (an immutability violation refuses to decode)."""
    rows, _, stage = _plan_read(out_dir, columns, predicate, filesystem, unify_schema,
                                aux_families, apply_deletes, snapshot)
    return _map_partitions(rows, stage)


def verify_roundtrip(input_path: str | list[str], out_dir: str,
                     filesystem=None, input_filesystem=None) -> dict:
    """Distributed per-partition equality check: decode each blob and compare
    with the exact input slice it came from (per-row token-array equality =
    full Arrow table equality). Returns counts; raises on mismatch, and
    ``ValueError`` before any task when a planned partition is unfinished."""
    plan = load_plan(fsio.join(out_dir, "plan.json"), filesystem)
    crcs = {e["partition_id"]: e.get("checksum_crc32", -1)
            for e in mf.finished_entries(out_dir, filesystem)}
    unfinished = [p.partition_id for p in plan if p.partition_id not in crcs]
    if unfinished:
        raise ValueError(
            f"{len(unfinished)} of {len(plan)} planned partitions are unfinished "
            f"(e.g. {unfinished[:10]}); run encode to completion first")
    items = [dict(vars(p), crc32=crcs[p.partition_id]) for p in plan]

    def check(batch: dict) -> dict:
        pid = int(batch["partition_id"][0])
        decoded = decode_table(mf.read_blob(out_dir, pid, filesystem,
                                            int(batch["crc32"][0])))
        original = read_slice(str(batch["path"][0]), int(batch["row_start"][0]),
                              int(batch["row_count"][0]), filesystem=input_filesystem)
        return _one_row(partition_id=pid, ok=tables_bitwise_equal(decoded, original),
                        rows=decoded.num_rows)

    res = _map_partitions(items, check).to_pandas()
    bad = res[~res["ok"]]
    summary = {"partitions": len(res), "rows": int(res["rows"].sum()),
               "mismatched_partitions": int(len(bad))}
    if len(bad):
        raise AssertionError(f"round-trip mismatch in partitions {bad['partition_id'].tolist()[:10]}")
    return summary


def decode_to_parquet(out_dir: str, dest_dir: str, columns: list[str] | None = None,
                      predicate=None, filesystem=None, dest_filesystem=None,
                      partition_cols: list[str] | None = None,
                      unify_schema: bool = False,
                      apply_deletes: bool = True,
                      snapshot: str | None = None,
                      writer: str = "pyarrow") -> dict:
    """The one export (CLI ``decode``), RESUMABLE: one output file per
    kept encoded partition (``part-<id>.parquet``, zero-row ones
    included), written atomically as each task's run of partitions
    decodes through ``DecoderStage`` (predicates, deletes, ``snapshot``
    and ``unify_schema`` as in ``decode_dataset``); partitions whose
    output already exists are skipped, so a killed export continues
    where it stopped — the brief's "resumable output" layout.

    ``partition_cols`` hive-partitions the export
    (``<dest>/<col>=<val>/part-<id>.parquet``, partition columns dropped
    from the files per hive convention); completion is then tracked with
    atomic ``_done/part-<id>.done`` markers (underscore-prefixed dirs are
    ignored by parquet dataset discovery), since one encoded partition may
    fan out to several hive files. Before ``dest_dir`` is created, a
    name that is no output column raises ``KeyError``, and naming every
    output column (files with no column hold no row) ``ValueError`` —
    checked per kept partition on an evolved store without ``columns``
    or ``unify_schema``, where each exports only the columns it holds.

    ``writer="kernels"`` routes the parquet encode through our own
    write kernels (`sources/parquet_writer.py`) instead of pyarrow.

    Returns ``partitions`` (kept), ``partitions_total``,
    ``skipped_finished``, ``written`` and ``rows`` (written by this run).
    NOTE: an already-exported partition is NOT re-exported when a later
    ``delete_rows`` touches it — export before delete, or export to a
    fresh dest."""
    if writer not in ("pyarrow", "kernels"):
        raise ValueError(f"writer must be 'pyarrow' or 'kernels', got {writer!r}")
    rows, total, stage = _plan_read(out_dir, columns, predicate, filesystem,
                                    unify_schema, None, apply_deletes, snapshot)
    outs = {"": stage.out_columns} if partition_cols and total else {}
    if outs and not (columns or unify_schema):
        # then each partition outputs only the columns its blob holds
        kept = {r["partition_id"] for r in rows}
        outs.update((f" of partition {e['partition_id']}", list(e.get("columns", {})))
                    for e in mf.load_manifest(out_dir, filesystem)
                    if e["partition_id"] in kept)
    for where, cols in outs.items():
        if set(partition_cols) - set(cols):
            raise KeyError(f"partition_cols {partition_cols} not all in output "
                           f"columns{where} {cols}")
        if set(cols) <= set(partition_cols):
            raise ValueError(f"partition_cols {partition_cols} name every output "
                             f"column{where}: the files would hold no row")
    done_dir = fsio.join(dest_dir, "_done") if partition_cols else dest_dir
    fsio.mkdirs(done_dir, dest_filesystem)
    marker = "part-{:08d}." + ("done" if partition_cols else "parquet")
    existing = set(fsio.list_files(done_dir, dest_filesystem))
    todo = [r for r in rows if marker.format(r["partition_id"]) not in existing]
    result = {"partitions": len(rows), "partitions_total": total,
              "skipped_finished": len(rows) - len(todo), "written": len(todo), "rows": 0}

    def write_one(t: pa.Table, rel: str) -> None:
        if writer == "kernels":
            from ..sources.parquet_writer import encode_parquet_bytes

            blob = encode_parquet_bytes(t, compression="SNAPPY", encodings="auto")
        else:
            buf = pa.BufferOutputStream()
            pq.write_table(t, buf)
            blob = buf.getvalue()
        fsio.write_atomic(fsio.join(dest_dir, rel), blob, dest_filesystem)

    def export(batch: dict) -> dict:
        pid = int(batch["partition_id"][0])
        t = stage(batch)
        if not partition_cols:
            write_one(t, f"part-{pid:08d}.parquet")
        else:
            for subdir, part in _hive_splits(t, partition_cols):
                fsio.mkdirs(fsio.join(dest_dir, subdir), dest_filesystem)
                write_one(part, f"{subdir}/part-{pid:08d}.parquet")
            fsio.write_atomic(fsio.join(done_dir, f"part-{pid:08d}.done"),
                              b"", dest_filesystem)
        return _one_row(partition_id=pid, rows=t.num_rows)

    if todo:
        result["rows"] = sum(int(r["rows"]) for r in _map_partitions(todo, export).take_all())
    return result


def _hive_splits(t: pa.Table, partition_cols: list[str]):
    """Yield (hive subdir, sub-table minus partition cols) per distinct
    partition-key combination — vectorized via dictionary-encoded combo
    codes, one filter per distinct combo (not per row). A NULL key is
    Hive's ``__HIVE_DEFAULT_PARTITION__``, which pyarrow reads back as
    NULL."""
    if t.num_rows == 0:
        return
    keys = [pc.fill_null(pc.cast(t[c], pa.string()), "__HIVE_DEFAULT_PARTITION__")
            for c in partition_cols]
    combo = pc.binary_join_element_wise(*keys, "\x1f")
    codes = pc.dictionary_encode(pa.concat_arrays(combo.chunks))
    rest = t.drop_columns(partition_cols)
    for code, key in enumerate(codes.dictionary.to_pylist()):
        subdir = "/".join(f"{c}={v}" for c, v in zip(partition_cols, key.split("\x1f")))
        yield subdir, rest.filter(pc.equal(codes.indices, code))


def compact_dataset(src_dir: str, out_dir: str,
                    token_budget: int = DEFAULT_TOKEN_BUDGET,
                    resume: bool = True,
                    filesystem=None, src_filesystem=None) -> dict:
    """Compact an encoded dataset: merge runs of small partitions into
    token-budget-sized ones — the storage-maintenance pass every
    long-lived encoded store needs once appends / skew splits have
    fragmented it (many sub-budget blobs pay per-partition scheduling,
    manifest and dictionary overhead on every later decode).

    Semantics & shape:

    - groups CONSECUTIVE finished partitions (manifest id order) until
      adding the next would exceed ``token_budget`` — rows keep their
      manifest-order position (within-partition order is exact; global
      ordering across blocks follows Ray's ``preserve_order`` execution
      option, as for any decode).
      Weights are manifest ``n_tokens``; datasets encoded without a
      token column fall back to ``raw_bytes`` (then the budget is in
      raw Arrow bytes — documented, not mixed).
    - each group decodes its source blobs (one ``DecoderStage`` call
      per source partition; groups run like partitions, a contiguous run
      per task), concatenates, and RE-ENCODES the merged chunk: the codec selector
      re-runs on the bigger chunk, so dictionaries/symbol tables amortize
      and runs lengthen — compaction usually SHRINKS total bytes, never
      changes decoded values.
    - the source is never mutated; the output manifest entry carries
      ``source_partitions`` + ``compacted_from`` lineage, fresh
      per-column stats and Bloom filters.
    - deletion vectors (``delete_rows``) are MATERIALIZED: deleted rows
      are dropped during the merge and the compacted store carries no
      sidecars — compaction is the vacuum step.  Group token weights
      use manifest ``n_tokens`` (an upper bound on stores with
      deletes).
    - resumable: an output group is skipped on re-run when its blob and
      manifest entry exist and the entry's ``source_partitions`` are the
      group's current sources; a group an append has grown since is
      compacted again, its blob and entry overwritten atomically.

    Note: ``cli verify`` needs the original plan lineage, so verify a
    compacted store by decode-comparison against the source store (the
    test does) or against the original input files.
    """
    deleted_pids = dvs.list_delete_pids(src_dir, src_filesystem)
    entries = mf.load_manifest(src_dir, src_filesystem)
    if not entries:
        raise ValueError(f"no finished partitions in {src_dir}")
    use_tokens = any((e.get("n_tokens") or 0) > 0 for e in entries)
    wkey = "n_tokens" if use_tokens else "raw_bytes"

    groups: list[list[dict]] = []
    cur: list[dict] = []
    acc = 0
    cur_cols: tuple | None = None
    for e in entries:
        w = max(0, int(e.get(wkey) or 0))
        cols = tuple(sorted(e.get("columns", {})))
        # a store may hold several tables (whole-directory encode):
        # never merge across schemas — break the group on a column-set
        # change just like on a budget overflow
        if cur and (acc + w > token_budget or cols != cur_cols):
            groups.append(cur)
            cur, acc = [], 0
        cur.append(e)
        acc += w
        cur_cols = cols
    if cur:
        groups.append(cur)

    mf.ensure_dirs(out_dir, filesystem)
    ids = [[e["partition_id"] for e in g] for g in groups]
    crcs = {e["partition_id"]: e.get("checksum_crc32", -1) for e in entries}
    # a group is finished only if its output holds the group's current
    # sources: an append may have grown it since
    finished = {e["partition_id"]: e.get("source_partitions")
                for e in mf.finished_entries(out_dir, filesystem)} if resume else {}
    done = {gi for gi, g in enumerate(ids) if finished.get(gi) == g}
    items = [{"partition_id": gi, "n_tokens": sum(int(e.get("n_tokens") or 0) for e in g)}
             for gi, g in enumerate(groups) if gi not in done]
    result = {"groups": len(groups), "skipped_finished": len(done),
              "compacted": len(items), "source_partitions": len(entries)}
    if not items:
        result.update(mf.summary(out_dir, filesystem))
        return result
    # the decode stage drops deleted rows: compaction is the vacuum
    load = DecoderStage(src_dir, filesystem=src_filesystem, deleted_pids=deleted_pids)

    def compact_group(batch: dict) -> dict:
        t0 = time.perf_counter()
        gid = int(batch["partition_id"][0])
        # one decode per source partition; a group never mixes column
        # sets. A partition with no surviving row decodes to its header
        # schema, so it joins only when no partition has a row
        parts = [load({"partition_id": [pid], "crc32": [crcs[pid]]}) for pid in ids[gid]]
        tbl = pa.concat_tables([t for t in parts if t.num_rows] or parts[:1]).combine_chunks()
        n_tokens = int(batch["n_tokens"][0])
        part = Partition(partition_id=gid, path=f"compact:{src_dir}",
                         row_start=0, row_count=tbl.num_rows, est_tokens=n_tokens)
        entry = write_partition(
            out_dir, part, tbl, n_tokens, filesystem,
            read_ms=round((time.perf_counter() - t0) * 1e3, 1),
            source_partitions=ids[gid], compacted_from=src_dir)
        return _one_row(partition_id=gid, row_count=entry["row_count"],
                        encoded_bytes=entry["encoded_bytes"])

    result["compacted"] = len(_map_partitions(items, compact_group).to_pandas())
    result.update(mf.summary(out_dir, filesystem))
    return result


def aux_family_dir(out_dir: str, family: str) -> str:
    return fsio.join(out_dir, "aux", family)


def backfill_columns(out_dir: str, family: str, fn, columns: list[str] | None = None,
                     filesystem=None) -> dict:
    """Add derived columns to an encoded store WITHOUT re-encoding it —
    the 100 TB backfill: computing a quality score over an already-encoded
    corpus must not rewrite the corpus.

    For every finished partition, ``fn(table) -> table`` receives the
    decoded base partition (optionally only ``columns``) and returns the
    NEW columns (same row count, same order).  Each result encodes
    through the normal codec selector into its own blob under
    ``<out>/aux/<family>/`` keyed by the SAME partition id — so decode
    merges base and family by row position, no join, no shuffle.  The
    family is itself a mini-store (manifest + atomic blobs + resume):
    re-running a backfill skips finished partitions; a changed ``fn``
    needs a new family name.

    Scale shape: each partition reads exactly one base blob, in a
    task's run of partitions; the family adds bytes proportional to the
    new columns only."""
    adir = aux_family_dir(out_dir, family)
    mf.ensure_dirs(adir, filesystem)
    entries = mf.load_manifest(out_dir, filesystem)
    done = mf.finished_ids(adir, filesystem)
    todo = [e for e in entries if e["partition_id"] not in done]
    result = {"partitions": len(entries),
              "skipped_finished": len(entries) - len(todo),
              "backfilled": len(todo), "family": family}
    if not todo:
        return result

    def one(batch: dict) -> dict:
        pid = int(batch["partition_id"][0])
        t0 = time.perf_counter()
        base = decode_table(mf.read_blob(out_dir, pid, filesystem,
                                         int(batch["crc32"][0])), columns)
        new = fn(base)
        if new.num_rows != base.num_rows:
            raise ValueError(
                f"backfill fn returned {new.num_rows} rows for "
                f"partition {pid} ({base.num_rows} expected) — aux "
                "columns must align by row position")
        clash = set(new.column_names) & set(base.column_names)
        if clash:
            raise ValueError(
                f"backfill fn returned columns shadowing the base "
                f"schema: {sorted(clash)} — pick distinct names")
        # aux columns carry no Bloom stats: predicates are
        # evaluated on base blobs only
        part = Partition(partition_id=pid, path=mf.blob_path(out_dir, pid),
                         row_start=0, row_count=new.num_rows, est_tokens=0)
        entry = write_partition(
            adir, part, new, 0, filesystem, bloom=False,
            read_ms=round((time.perf_counter() - t0) * 1e3, 1))
        return _one_row(partition_id=pid, rows=new.num_rows,
                        encoded_bytes=entry["encoded_bytes"])

    stats_rows = _map_partitions(_blob_rows(todo), one).to_pandas()
    result["rows"] = int(stats_rows["rows"].sum())
    result["encoded_bytes"] = int(stats_rows["encoded_bytes"].sum())
    return result
