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

Every partition takes the same path: row mask (``true_rows`` of the
predicate AND the delete-vector keep mask) → decode the projection only
if a row survives → filter → append aux families → adapt to the target
schema.  The decode job, the Parquet export and compaction all run it,
one partition per call.

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


def true_rows(blob: bytes, preds: list) -> pa.Array:
    """The one row-mask rule of a predicate over a blob: the rows where
    the conjunction is TRUE (NULL fills to False). Only the predicate's
    own columns decode (byte-level frame skip). A column the blob
    predates (an evolved store) reads as all-NULL: an op NULL satisfies
    (is_null) constrains nothing, any other op matches no row."""
    names = blob_schema(blob).names
    n = blob_num_rows(blob)
    if not all(OPS[op].matches_null for c, op, _ in preds if c not in names):
        return pa.array(np.zeros(n, dtype=bool))
    present = [p for p in preds if p[0] in names]
    if not present:
        return pa.array(np.ones(n, dtype=bool))
    return predicate_mask(decode_table(blob, sorted({p[0] for p in present})), present)


class DecoderStage:
    """``map_batches`` callable of the decode, export and compaction
    jobs: each call decodes the batch's one partition row to an Arrow
    table.

    ``columns`` prunes frames at the byte level (length-delimited skip);
    ``predicate`` (normalized triples) and the delete vectors mask rows;
    ``target_schema`` (``unify_schema=True``) adapts every partition to
    one schema; ``aux`` appends backfilled column families."""

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

    def _target_fields(self) -> list[pa.Field]:
        """The target schema, projected through ``columns`` when set."""
        if self.columns is None:
            return list(self.target_schema)
        return [self.target_schema.field(c) for c in self.columns]

    def _adapt(self, t: pa.Table) -> pa.Table:
        """Pad/reorder a decoded table to the target fields."""
        fields = self._target_fields()
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
        """Columns to decode from this blob: the projection, or the
        target fields the blob actually has."""
        if sch is None:
            return self.columns
        return [f.name for f in self._target_fields() if f.name in sch.names]

    def _out_schema(self, blob: bytes, pid: int) -> pa.Schema:
        if self.target_schema is not None:
            return pa.schema(self._target_fields())
        sch = self._pruned_schema(blob_schema(blob))
        if self.aux:
            # a fully-pruned partition must still emit the aux columns,
            # or empty and matched partitions would disagree on schema
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

    def _row_mask(self, blob: bytes, pid: int):
        """The rows this partition contributes: the predicate's
        ``true_rows`` ANDed with the delete-vector keep mask, or None
        when every row stays."""
        mask = true_rows(blob, self.predicate) if self.predicate else None
        dv = self._delete_vector(pid)
        if dv is not None:
            keep = pa.array(dvs.keep_mask(dv, blob_num_rows(blob)))
            mask = keep if mask is None else pc.and_(mask, keep)
        return mask

    def __call__(self, batch: dict) -> pa.Table:
        """Decode the batch's one partition row (``partition_id``,
        ``crc32``). A partition with no surviving row returns a zero-ROW
        table with its real schema (never a zero-COLUMN table — those
        poison downstream schema unification and trip Ray's
        schema-change warning)."""
        pid = int(batch["partition_id"][0])
        blob = mf.read_blob(self.out_dir, pid, self.filesystem, int(batch["crc32"][0]))
        sch = blob_schema(blob) if self.target_schema is not None else None
        mask = self._row_mask(blob, pid)
        n_keep = -1 if mask is None else int(pc.sum(mask).as_py() or 0)
        if n_keep == 0:
            return self._out_schema(blob, pid).empty_table()
        t = decode_table(blob, self._read_cols(sch))
        if n_keep == t.num_rows:
            mask = None
        elif mask is not None:
            t = t.filter(mask)
        if self.aux:
            t = self._with_aux(pid, t, mask)
        return self._adapt(t) if sch is not None else t

    def _pruned_schema(self, schema: pa.Schema) -> pa.Schema:
        if self.columns is None:
            return schema
        keep = set(self.columns)
        # blob frame order == schema field order == decode_table output order
        return pa.schema([f for f in schema if f.name in keep])
