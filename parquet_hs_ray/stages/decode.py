"""Decoder stage: the inverse ``map_batches`` path, and the one reader of
blob-store partitions.

Our analogue of the reference's column-chunk streaming decode
(`sourceColumnChunk`, `/root/reference/src/Parquet/Reader.hs:714-733` →
`readColumnChunk`/`readPage`, `Stream/Reader.hs:324-372`): one call per
encoded partition (each task runs a contiguous run of them) reads the
blob (CRC-checked against its manifest entry by ``manifest.read_blob``)
and decodes every column frame back into one Arrow table — columnar
in, columnar out; the reference's row-assembly step (Dremel instruction
interpreter, `Reader.hs:637-705`) has no analogue because Arrow list
offsets + validity ARE the assembled representation.

Every partition takes the same path: row mask (``true_rows`` of the
predicate AND the delete-vector keep mask) → decode the projected
columns the base blob and each family blob hold, only if a row survives
(a predicate column decoded for the mask is not decoded again)
→ join them by row position and filter once → adapt to the output
fields.  The decode job, the Parquet export and compaction all run it,
one partition per call; ``pipelines.encode_job._plan_read`` builds it.

Stateless — plain-function tasks, no actor pool needed (no cross-batch
state; dictionaries/symbol tables are self-contained in each blob)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..format import blob_num_rows, blob_schema, decode_table
from ..predicates import absent_may_match
from ..predicates import mask as predicate_mask
from ..state import deletes as dvs
from ..state import manifest as mf


def true_rows(blob: bytes, preds: list) -> pa.Array:
    """The one row-mask rule of a predicate over a blob: the rows where
    the conjunction is TRUE (NULL fills to False). Only the predicate's
    own columns decode (byte-level frame skip). A column the blob
    predates (an evolved store) reads as all-NULL by the absent-column
    rule the manifest pruning applies too: an op NULL satisfies
    (is_null) constrains nothing, any other op matches no row."""
    return _true_rows_and_columns(blob, preds)[0]


def _true_rows_and_columns(blob: bytes, preds: list) -> tuple[pa.Array, pa.Table | None]:
    """:func:`true_rows`' mask, and the predicate columns it decoded
    (None when it decoded none), for a caller that outputs them too."""
    names = blob_schema(blob).names
    n = blob_num_rows(blob)
    if not all(absent_may_match(op, v, n) for c, op, v in preds if c not in names):
        return pa.array(np.zeros(n, dtype=bool)), None
    present = [p for p in preds if p[0] in names]
    if not present:
        return pa.array(np.ones(n, dtype=bool)), None
    cols = decode_table(blob, sorted({p[0] for p in present}))
    return predicate_mask(cols, present), cols


class DecoderStage:
    """``map_batches`` callable of the decode, export and compaction
    jobs: each call decodes the batch's one partition row to an Arrow
    table.

    ``columns`` (output order; None = every column) prunes frames at the
    byte level (length-delimited skip); ``predicate`` (normalized
    triples) and the delete vectors mask rows; ``aux`` maps each
    backfilled family's store dir to ``({partition id: crc32}, {its
    projected column names})``; ``target_schema`` (``unify_schema=True``)
    is the schema every partition adapts to — without it a partition is
    its own target."""

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
        self.target_schema = target_schema
        # same-partition-id mini-stores whose columns join the base by
        # ROW POSITION, before the one row mask
        self.aux = aux or {}

    def _delete_vector(self, pid: int):
        if self.delete_vectors is not None:
            dv = self.delete_vectors.get(pid)
        elif pid in self.deleted_pids:
            dv = dvs.read_delete_vector(self.out_dir, pid, self.filesystem)
        else:
            return None
        return dv if dv is not None and len(dv) else None

    def _row_mask(self, blob: bytes, pid: int):
        """(The rows this partition contributes, the predicate columns
        decoded for them): the predicate's ``true_rows`` ANDed with the
        delete-vector keep mask, or None when every row stays."""
        mask, decoded = (_true_rows_and_columns(blob, self.predicate)
                         if self.predicate else (None, None))
        dv = self._delete_vector(pid)
        if dv is not None:
            keep = pa.array(dvs.keep_mask(dv, blob_num_rows(blob)))
            mask = keep if mask is None else pc.and_(mask, keep)
        return mask, decoded

    def __call__(self, batch: dict) -> pa.Table:
        """Decode the batch's one partition row (``partition_id``,
        ``crc32``): the projected columns the base blob holds, then each
        family's, joined by row position and masked once. A partition
        with no surviving row decodes nothing and returns a zero-ROW
        table with its real schema (never a zero-COLUMN table — those
        poison downstream schema unification and trip Ray's
        schema-change warning)."""
        pid = int(batch["partition_id"][0])
        blob = mf.read_blob(self.out_dir, pid, self.filesystem, int(batch["crc32"][0]))
        n = blob_num_rows(blob)
        mask, decoded = self._row_mask(blob, pid)
        keep = n if mask is None else int(pc.sum(mask).as_py() or 0)
        t = _held(blob, self.columns, keep, decoded)
        arrays, names = t.columns, t.column_names
        for adir, (crcs, cols) in self.aux.items():
            ablob = mf.read_blob(adir, pid, self.filesystem, crcs.get(pid))
            if blob_num_rows(ablob) != n:
                raise ValueError(
                    f"aux family {adir!r} partition {pid}: {blob_num_rows(ablob)} "
                    f"rows vs base {n} — family out of sync")
            at = _held(ablob, cols, keep)
            arrays, names = arrays + at.columns, names + at.column_names
        t = pa.Table.from_arrays(arrays, names=names)
        if keep < t.num_rows:
            t = t.filter(mask)
        return self._adapt(t, keep, pid)

    def _adapt(self, t: pa.Table, n_rows: int, pid: int) -> pa.Table:
        """The output fields, in ``columns`` order: a column the
        partition predates is all-NULL of the target's type, a type
        other than the target's is refused."""
        target = t.schema if self.target_schema is None else self.target_schema
        names = target.names if self.columns is None else self.columns
        lacking = [c for c in names if c not in target.names]
        if lacking:
            raise KeyError(f"partition {pid} predates columns {lacking}; "
                           "unify_schema=True reads them as NULL")
        fields = [target.field(c) for c in names]
        arrays = []
        for f in fields:
            if f.name not in t.column_names:
                arrays.append(pa.nulls(n_rows, f.type))
            elif t[f.name].type != f.type:
                raise ValueError(
                    f"schema evolution type conflict on {f.name!r}: "
                    f"blob has {t[f.name].type}, target wants {f.type}")
            else:
                arrays.append(t[f.name])
        return pa.Table.from_arrays(arrays, schema=pa.schema(fields))


def _held(blob: bytes, columns: list[str] | None, keep: int,
          decoded: pa.Table | None = None) -> pa.Table:
    """The columns of ``columns`` (None = all) that a blob holds,
    decoded, or as a zero-row table when no row survives. Columns of
    ``decoded`` (already decoded from this blob) are not decoded again."""
    sch = pa.schema([f for f in blob_schema(blob) if columns is None or f.name in columns])
    if keep == 0:
        return sch.empty_table()
    have = set() if decoded is None else set(decoded.column_names)
    got = decode_table(blob, [c for c in sch.names if c not in have])
    return pa.table([decoded[c] if c in have else got[c] for c in sch.names],
                    names=sch.names)
