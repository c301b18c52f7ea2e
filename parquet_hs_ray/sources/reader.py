"""Size-aware parquet reads.

Ray's default read parallelism (~2x CPUs) splits even a sub-MB table
into 64 blocks, so every downstream stage pays 64-task scheduling
overhead on ~100-row blocks (measured 2.5x slowdown on the minhash
pipeline at sf0.1).  ``read_sized`` derives the block count from the
input size instead:

- 64 KB floor per block — never schedule a task for less input;
- 128 MB ceiling per block — object-store-friendly at scale;
- 2x cluster CPUs preferred in between.

Small tables collapse to a handful of tasks; large inputs keep full
parallelism; at 100 TB the ceiling governs and the override equals
Ray's own choice.
"""

from __future__ import annotations

import os

from ..plan import cpu_slots

MIN_BLOCK_BYTES = 64 << 10
MAX_BLOCK_BYTES = 128 << 20


def sized_num_blocks(nbytes: int) -> int:
    """Block count for ``nbytes`` of input under the floor/ceiling policy."""
    n_min = max(1, -(-nbytes // MAX_BLOCK_BYTES))
    return max(n_min, min(2 * cpu_slots(), max(1, nbytes // MIN_BLOCK_BYTES)))


def _strip_schema_metadata(t):
    """Drop file-level schema metadata (the ``b'pandas'`` block pandas
    writers stamp).  Two real failure classes hang off it: (a) a schema
    WITH metadata is unhashable in this pyarrow, so every shuffle reduce
    task logs Ray's "Failed to hash the schemas (for deduplication)"
    warning (unify_schemas' dedup fast-path), and (b) ndarray extension
    dtypes recorded in pandas metadata poison later ``to_pandas`` reads
    (the ann_ivf_indexed flake).  Zero-copy: only the schema object is
    rebuilt."""
    return t.replace_schema_metadata(None)


def read_sized(path: str, **kwargs) -> "ray.data.Dataset":
    """``ray.data.read_parquet`` with a size-derived ``override_num_blocks``
    (local paths only; falls back to Ray's default when the size is
    unknowable, e.g. non-local filesystems).  Blocks are re-stamped
    without file-level schema metadata (see ``_strip_schema_metadata``);
    the stage fuses with the read.  The read itself also gets a
    metadata-stripped ``schema=`` so blocks are BORN without the
    pandas stamp — the map-stage strip runs after the ReadParquet
    operator's own schema dedup, which otherwise logs Ray's
    "Failed to hash the schemas" warning per split task."""
    import ray.data

    if "schema" not in kwargs and "columns" not in kwargs:
        # schema= with columns= breaks Ray's read task when the
        # projection reorders fields (Table.from_batches validates
        # against the FULL schema); projected reads keep the map-stage
        # strip only
        try:
            import pyarrow.parquet as pq

            kwargs["schema"] = pq.read_schema(path).remove_metadata()
        except Exception:
            pass  # directories/remote: Ray infers the schema itself
    try:
        nbytes = os.path.getsize(path)
    except OSError:
        ds = ray.data.read_parquet(path, **kwargs)
    else:
        ds = ray.data.read_parquet(
            path, override_num_blocks=sized_num_blocks(nbytes), **kwargs)
    return ds.map_batches(_strip_schema_metadata, batch_format="pyarrow",
                          batch_size=None, zero_copy_batch=True)
