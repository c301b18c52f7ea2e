"""Decoder stage: the inverse ``map_batches`` path, and the one reader of
blob-store partitions.

Our analogue of the reference's column-chunk streaming decode
(`sourceColumnChunk`, `/root/reference/src/Parquet/Reader.hs:714-733` →
`readColumnChunk`/`readPage`, `Stream/Reader.hs:324-372`): one task per
encoded partition reads the blob (CRC-checked against its manifest entry
by ``manifest.read_blob``) and decodes every column frame back into one
Arrow table — columnar in, columnar out; the reference's row-assembly
step (Dremel instruction interpreter, `Reader.hs:637-705`) has no
analogue because Arrow list offsets + validity ARE the assembled
representation.

Every partition takes the same path: row mask (predicate mask AND
delete-vector keep mask) → decode the projection only if a row survives
→ filter → append aux families → adapt to the target schema.  The decode
job, the Parquet export and compaction all run it.

Stateless — plain-function tasks, no actor pool needed (no cross-batch
state; dictionaries/symbol tables are self-contained in each blob)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..format import blob_num_rows, blob_schema, decode_table
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
                 aux: dict | None = None,
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
        # backfilled column families, {aux store dir: {partition id:
        # manifest crc32}}: same-partition-id mini-stores whose columns
        # append by ROW POSITION after the base (and after its row mask,
        # applied identically)
        self.aux = aux or {}

    def _aux_blob(self, adir: str, pid: int) -> bytes:
        return mf.read_blob(adir, pid, self.filesystem, self.aux[adir].get(pid))

    def _with_aux(self, pid: int, t: pa.Table, mask) -> pa.Table:
        for adir in self.aux:
            at = decode_table(self._aux_blob(adir, pid))
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

    def _out_schema(self, blob: bytes, pid: int) -> pa.Schema:
        if self.target_schema is not None:
            fields = [self.target_schema.field(c) for c in self.columns] \
                if self.columns is not None else list(self.target_schema)
            return pa.schema(fields)
        sch = self._pruned_schema(blob_schema(blob))
        if self.aux:
            # a fully-pruned batch must still emit the aux columns, or
            # empty and matched batches would disagree on schema
            for adir in self.aux:
                for f in blob_schema(self._aux_blob(adir, pid)):
                    sch = sch.append(f)
        return sch

    def _delete_vector(self, pid: int):
        if self.delete_vectors is not None:
            dv = self.delete_vectors.get(pid)
        elif pid in self.deleted_pids:
            dv = dvs.read_delete_vector(self.out_dir, pid, self.filesystem)
        else:
            return None
        return dv if dv is not None and len(dv) else None

    def _row_mask(self, blob: bytes, sch: pa.Schema | None, pid: int):
        """The rows this partition contributes: the predicate mask ANDed
        with the delete-vector keep mask, or None when every row stays.

        Predicates decode only their own columns (byte-level frame skip).
        On an evolved store a predicate on a column this blob predates
        sees all-NULL: only ops NULL satisfies (is_null) keep rows, and
        they constrain nothing."""
        n = blob_num_rows(blob)
        present = [p for p in self.predicate if sch is None or p[0] in sch.names]
        if not all(OPS[op].matches_null for c, op, _ in self.predicate
                   if sch is not None and c not in sch.names):
            return pa.array(np.zeros(n, dtype=bool))
        mask = None
        if present:
            pt = decode_table(blob, sorted({p[0] for p in present}))
            mask = predicate_mask(pt, present)
        dv = self._delete_vector(pid)
        if dv is not None:
            keep = pa.array(dvs.keep_mask(dv, n))
            mask = keep if mask is None else pc.and_(mask, keep)
        return mask

    def __call__(self, batch: dict) -> pa.Table:
        crcs = batch.get("crc32")
        tables = []
        out_schema: pa.Schema | None = None
        for i, pid in enumerate(batch["partition_id"]):
            pid = int(pid)
            blob = mf.read_blob(self.out_dir, pid, self.filesystem,
                                None if crcs is None else int(crcs[i]))
            sch = blob_schema(blob) if self.target_schema is not None else None
            mask = self._row_mask(blob, sch, pid)
            n_keep = -1 if mask is None else int(pc.sum(mask).as_py() or 0)
            if n_keep == 0:
                if out_schema is None:
                    out_schema = self._out_schema(blob, pid)
                continue
            t = decode_table(blob, self._read_cols(sch))
            if n_keep == t.num_rows:
                mask = None
            elif mask is not None:
                t = t.filter(mask)
            if self.aux:
                t = self._with_aux(pid, t, mask)
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
