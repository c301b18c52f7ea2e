"""Ray task policy for operators over a materialized Dataset's blocks.

Two shapes recur in the operator layer, and both run here so each
operator keeps only its own block kernels:

- a sorted carry-scan (:func:`carry_scan`): one zero-CPU summary task
  per block, a left-to-right fold of the summaries on the driver
  (#blocks small values, never rows), then one 1-CPU task per block
  that gets the folded state as it stood before that block;
- a block-pair loop (:func:`run_pairs`): one 1-CPU task per block pair,
  at most ``max_in_flight`` pending, results collected as they finish.

Both defaults that scale with the cluster (``run_pairs``' in-flight cap
and :func:`shuffle_partitions`, the operators' hash-join width) read the
session's CPU slots through ``plan.cpu_slots``, the rule both stores use.

Blocks reach every callback as Arrow tables (``to_arrow_refs`` passes
some pandas blocks through); :func:`as_arrow` is the one coercion.
"""

from __future__ import annotations

import pyarrow as pa
import ray
import ray.data

from ..plan import cpu_slots


def as_arrow(t) -> pa.Table:
    """A block as an Arrow table, whatever format it was stored in."""
    return t if isinstance(t, pa.Table) else pa.Table.from_pandas(t, preserve_index=False)


@ray.remote(num_cpus=1)
def _block_task(fn, t, *args):
    return fn(as_arrow(t), *args)


@ray.remote(num_cpus=1)
def _pair_task(fn, a, b):
    return fn(as_arrow(a), as_arrow(b))


@ray.remote(num_cpus=0)
def _num_rows(t) -> int:
    return len(t)


def scan_carries(refs: list, summarize, step, init=None) -> list:
    """The fold half of :func:`carry_scan`: the state each block starts
    from.  ``summarize(table)`` runs in one zero-CPU task per block (a
    0-row block gives None without calling it); the driver folds
    ``run = step(run, summary)`` left to right over the non-None
    summaries, and block i gets ``run`` as it stood before block i
    (``init`` for block 0).  ``step`` must return a new state, not
    mutate the one it was given: earlier blocks hold it."""
    def summary(t: pa.Table):
        return summarize(t) if t.num_rows else None

    sums = ray.get([_block_task.options(num_cpus=0).remote(summary, r) for r in refs])
    carries, run = [], init
    for s in sums:
        carries.append(run)
        if s is not None:
            run = step(run, s)
    return carries


def carry_scan(refs: list, summarize, step, apply, init=None) -> list:
    """Sorted carry-scan over block refs: :func:`scan_carries`, then one
    1-CPU task per block calling ``apply(table, carry)``.  Returns the
    output refs in block order, nothing fetched.  A right-to-left scan
    is ``carry_scan(refs[::-1], ...)[::-1]``."""
    carries = scan_carries(refs, summarize, step, init)
    return [_block_task.remote(apply, r, c) for r, c in zip(refs, carries)]


def run_pairs(fn, pairs, max_in_flight: int | None = None) -> tuple[list, int]:
    """Run ``fn(table_a, table_b)`` as one 1-CPU task per ``(ref_a,
    ref_b)`` in ``pairs``, with at most ``max_in_flight`` tasks pending
    (default 4x the session's CPU slots, at least 8), so a quadratic pair
    grid never holds all its task handles at once.  Returns (results in
    completion order, peak number of pending tasks)."""
    if max_in_flight is None:
        max_in_flight = max(8, 4 * cpu_slots())
    fn_ref = ray.put(fn)
    out, pending, peak = [], [], 0
    for a, b in pairs:
        if len(pending) >= max_in_flight:
            done, pending = ray.wait(pending, num_returns=1)
            out.extend(ray.get(done))
        pending.append(_pair_task.remote(fn_ref, a, b))
        peak = max(peak, len(pending))
    out.extend(ray.get(pending))
    return out, peak


def shuffle_partitions() -> int:
    """Default ``num_partitions`` of the operators' hash joins: one per
    CPU slot of the session, at least 2 and at most 16."""
    return max(2, min(16, cpu_slots()))


def nonempty_refs(refs: list) -> list:
    """The refs whose block holds at least one row (one zero-CPU row
    count per block; only ints reach the driver)."""
    counts = ray.get([_num_rows.remote(r) for r in refs])
    return [r for r, n in zip(refs, counts) if n]


def drop_empty_blocks(ds: "ray.data.Dataset") -> "ray.data.Dataset | None":
    """Groupby aggregates emit zero-COLUMN empty pandas blocks for empty
    partitions; they sail through map_batches (no batch to call the UDF
    on) and then break hash joins (FieldRef(key) has no match).  Rebuild
    the small, already-materialized dataset from its non-empty blocks as
    Arrow — block refs move, data stays in the object store.  None =
    fully empty."""
    keep = [_block_task.options(num_cpus=0).remote(as_arrow, r)
            for r in nonempty_refs(ds.to_arrow_refs())]
    return ray.data.from_arrow_refs(keep) if keep else None
