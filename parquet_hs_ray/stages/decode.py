"""Decoder stage: the inverse ``map_batches`` path.

Our analogue of the reference's column-chunk streaming decode
(`sourceColumnChunk`, `/root/reference/src/Parquet/Reader.hs:714-733` →
`readColumnChunk`/`readPage`, `Stream/Reader.hs:324-372`): one task per
encoded partition reads the blob and decodes every column frame back into
one Arrow table — columnar in, columnar out; the reference's row-assembly
step (Dremel instruction interpreter, `Reader.hs:637-705`) has no analogue
because Arrow list offsets + validity ARE the assembled representation.

Stateless — plain-function tasks, no actor pool needed (no cross-batch
state; dictionaries/symbol tables are self-contained in each blob)."""

from __future__ import annotations

import pyarrow as pa

from ..format import blob_schema, decode_table
from ..predicates import OPS
from ..predicates import mask as predicate_mask
from ..state import deletes as dvs
from ..state import manifest as mf


class DecoderStage:
    """map_batches callable over manifest rows -> decoded Arrow tables.

    ``columns`` prunes frames at the byte level (length-delimited skip)."""

    def __init__(self, out_dir: str, columns: list[str] | None = None, filesystem=None,
                 predicate: list | None = None,
                 target_schema: pa.Schema | None = None,
                 aux_dirs: list | None = None,
                 deleted_pids=None, delete_vectors=None):
        from ..memtune import ensure_process_tuned

        ensure_process_tuned()
        # partitions with a deletion vector (the driver lists the deletes
        # dir ONCE; tasks only read vectors for pids actually in this set)
        self.deleted_pids = frozenset(deleted_pids or ())
        # snapshot reads pass the PINNED vectors directly (pid -> sorted
        # positions): the live sidecars may have accreted later deletes
        self.delete_vectors = delete_vectors
        self.out_dir = out_dir
        self.columns = columns
        self.filesystem = filesystem
        self.predicate = predicate or []
        # schema evolution: every partition adapts to this schema —
        # missing columns null-pad, order unifies; type conflicts raise
        self.target_schema = target_schema
        # backfilled column families: same-partition-id mini-stores whose
        # columns append by ROW POSITION after the base (and after any
        # predicate filter, applied identically)
        self.aux_dirs = aux_dirs or []

    def _with_aux(self, pid: int, t: pa.Table, mask) -> pa.Table:
        for adir in self.aux_dirs:
            ablob = mf.read_blob(adir, pid, self.filesystem)
            at = decode_table(ablob)
            if mask is not None:
                at = at.filter(mask)
            if at.num_rows != t.num_rows:
                raise ValueError(
                    f"aux family {adir!r} partition {pid}: {at.num_rows} "
                    f"rows vs base {t.num_rows} — family out of sync")
            for name in at.column_names:
                t = t.append_column(name, at.column(name))
        return t

    def _adapt(self, t: pa.Table) -> pa.Table:
        """Pad/reorder a decoded table to the target schema (projected
        through ``columns`` when set)."""
        fields = [self.target_schema.field(c) for c in self.columns] \
            if self.columns is not None else list(self.target_schema)
        arrays = []
        for f in fields:
            if f.name in t.schema.names:
                col = t.column(f.name)
                if col.type != f.type:
                    raise ValueError(
                        f"schema evolution type conflict on {f.name!r}: "
                        f"blob has {col.type}, target wants {f.type}")
                arrays.append(col)
            else:
                arrays.append(pa.nulls(t.num_rows, f.type))
        return pa.Table.from_arrays(arrays, schema=pa.schema(fields))

    def _read_cols(self, sch: pa.Schema | None):
        """Columns to decode from this blob: the projection (or target
        schema) intersected with what the blob actually has."""
        if sch is None:
            return self.columns
        wanted = self.columns if self.columns is not None \
            else list(self.target_schema.names)
        return [c for c in wanted if c in sch.names]

    def _out_schema(self, blob: bytes, pid: int | None = None) -> pa.Schema:
        if self.target_schema is not None:
            fields = [self.target_schema.field(c) for c in self.columns] \
                if self.columns is not None else list(self.target_schema)
            return pa.schema(fields)
        sch = self._pruned_schema(blob_schema(blob))
        if self.aux_dirs and pid is not None:
            # a fully-pruned batch must still emit the aux columns, or
            # empty and matched batches would disagree on schema
            for adir in self.aux_dirs:
                for f in blob_schema(mf.read_blob(adir, pid, self.filesystem)):
                    sch = sch.append(f)
        return sch

    def _mask_of(self, t: pa.Table, preds):
        return predicate_mask(t, preds)

    def __call__(self, batch: dict) -> pa.Table:
        import zlib

        import pyarrow.compute as pc

        crcs = batch.get("crc32")
        tables = []
        out_schema: pa.Schema | None = None
        for i, pid in enumerate(batch["partition_id"]):
            blob = mf.read_blob(self.out_dir, int(pid), self.filesystem)
            if crcs is not None and int(crcs[i]) >= 0 and zlib.crc32(blob) != int(crcs[i]):
                raise ValueError(
                    f"partition {int(pid)}: blob checksum mismatch (corrupt or "
                    f"partially written blob; manifest crc32={int(crcs[i])})"
                )
            sch = blob_schema(blob) if self.target_schema is not None else None
            if self.delete_vectors is not None:
                dv = self.delete_vectors.get(int(pid))
            else:
                dv = dvs.read_delete_vector(self.out_dir, int(pid),
                                            self.filesystem) \
                    if int(pid) in self.deleted_pids else None
            if dv is not None and not len(dv):
                dv = None
            if self.predicate:
                # two-phase: decode only the predicate columns (byte-level
                # frame skip), full-decode only partitions with matches
                pred_cols = sorted({p[0] for p in self.predicate})
                if sch is not None:
                    # evolved store: a predicate on a column this blob
                    # predates sees all-NULL — only ops NULL satisfies
                    # (is_null) keep the partition, and constrain nothing
                    missing = [p for p in self.predicate
                               if p[0] not in sch.names]
                    if not all(OPS[p[1]].matches_null for p in missing):
                        if out_schema is None:
                            out_schema = self._out_schema(blob, int(pid))
                        continue
                    pred_cols = sorted({p[0] for p in self.predicate
                                        if p[0] in sch.names})
                present_preds = [p for p in self.predicate
                                 if sch is None or p[0] in sch.names]
                if pred_cols:
                    pt = decode_table(blob, pred_cols)
                    mask = self._mask_of(pt, present_preds)
                    if dv is not None:
                        mask = pc.and_(mask, pa.array(
                            dvs.keep_mask(dv, pt.num_rows)))
                    n_match = int(pc.sum(mask).as_py() or 0)
                    if n_match == 0:
                        if out_schema is None:
                            out_schema = self._out_schema(blob, int(pid))
                        continue
                else:
                    mask, n_match = None, -1
                t = decode_table(blob, self._read_cols(sch))
                if mask is None and dv is not None:
                    # evolved-store all-is_null fast path decoded no
                    # predicate columns: the keep mask still applies
                    mask = pa.array(dvs.keep_mask(dv, t.num_rows))
                    n_match = int(pc.sum(mask).as_py() or 0)
                applied = None
                if mask is not None and n_match != t.num_rows:
                    t = t.filter(mask)
                    applied = mask
                if self.aux_dirs:
                    t = self._with_aux(int(pid), t, applied)
                tables.append(self._adapt(t) if sch is not None else t)
            else:
                t = decode_table(blob, self._read_cols(sch))
                applied = None
                if dv is not None:
                    applied = pa.array(dvs.keep_mask(dv, t.num_rows))
                    t = t.filter(applied)
                if self.aux_dirs:
                    t = self._with_aux(int(pid), t, applied)
                tables.append(self._adapt(t) if sch is not None else t)
        if not tables:
            # every partition in this batch was fully pruned: emit a
            # zero-ROW table with the blob's real schema (never a
            # zero-COLUMN table — those poison downstream schema
            # unification and trip Ray's schema-change warning)
            if out_schema is not None:
                return out_schema.empty_table()
            return pa.table({})
        return pa.concat_tables(tables)

    def _pruned_schema(self, schema: pa.Schema) -> pa.Schema:
        if self.columns is None:
            return schema
        keep = set(self.columns)
        # blob frame order == schema field order == decode_table output order
        return pa.schema([f for f in schema if f.name in keep])
