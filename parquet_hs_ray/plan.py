"""Skew-aware partition planning: split input parquet into encode partitions
bounded by a token budget.

North-rule mandate: "repartitions with explicit skew-aware splitting on
n_tok histograms so no partition exceeds a token budget". The axis-A hazard
is long-document skew (FIXTURES.md F1-skew: 1% of rows 100x longer) — naive
row-count partitioning gives one straggler task 100x the work.

The plan is the unit of lineage: every partition is a deterministic
``(file, row_start, row_count)`` slice of the input, identified by a stable
``partition_id``, so a retry or resume re-reads exactly the same rows (the
reference's analogous seams are independently-offset row groups /
column chunks, `/root/reference/src/Parquet/Types/RowGroup.hs:17-26` —
never exploited there; we make them the scheduling unit).

Planning reads ONLY the ``n_tok`` column (column-pruned row-group reads) —
a ~0.1% scan of the input. Partition boundaries align to parquet row groups
except when one row group alone exceeds the budget, in which case it is
split by row ranges using the row group's n_tok prefix sums; a single row
larger than the whole budget gets its own partition (never silently
dropped).

Planning runs on the driver, one file after another: it starts no Ray
task, so every Ray execution of the blob-store jobs is
``encode_job._map_partitions``. ``cpu_slots``/``task_count`` are the
one task-count rule those executions and the kernel Parquet read share.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

import numpy as np
import pyarrow.parquet as pq
import ray

DEFAULT_TOKEN_BUDGET = 4_000_000  # ~16 MB of int32 tokens per partition
DEFAULT_ROW_BUDGET = 262_144  # fallback weight for tables without n_tok


@dataclass
class Partition:
    partition_id: int
    path: str
    row_start: int
    row_count: int
    est_tokens: int


def plan_file(path: str, token_col: str | None = "n_tok", token_budget: int = DEFAULT_TOKEN_BUDGET,
              filesystem=None) -> list[dict]:
    """Plan one parquet file into partition dicts (partition_id assigned later)."""
    from .state import fsio

    f = pq.ParquetFile(fsio.open_parquet_input(path, filesystem))
    has_tok = token_col is not None and token_col in f.schema_arrow.names
    out: list[dict] = []
    cur_start = 0
    cur_rows = 0
    cur_tokens = 0
    row_base = 0

    def flush():
        nonlocal cur_start, cur_rows, cur_tokens
        if cur_rows > 0:
            out.append(dict(path=path, row_start=cur_start, row_count=cur_rows, est_tokens=int(cur_tokens)))
        cur_start += cur_rows
        cur_rows = 0
        cur_tokens = 0

    for rg in range(f.num_row_groups):
        meta = f.metadata.row_group(rg)
        n = meta.num_rows
        if has_tok:
            ntok = f.read_row_group(rg, columns=[token_col])[token_col].combine_chunks().to_numpy(zero_copy_only=False)
            ntok = np.nan_to_num(ntok.astype(np.float64), nan=0).astype(np.int64)
            ntok = np.maximum(ntok, 0)
            rg_tokens = int(ntok.sum())
        else:
            ntok = None
            rg_tokens = n * max(1, token_budget // DEFAULT_ROW_BUDGET)  # weight rows as uniform
        if rg_tokens > token_budget and ntok is not None:
            # split inside the row group on n_tok prefix sums
            flush()
            csum = np.cumsum(ntok)
            start = 0
            while start < n:
                # furthest row such that the slice stays within budget
                base = csum[start - 1] if start else 0
                end = int(np.searchsorted(csum, base + token_budget, side="right"))
                if end <= start:  # single row exceeds the budget: own partition
                    end = start + 1
                out.append(dict(path=path, row_start=row_base + start, row_count=end - start,
                                est_tokens=int(csum[end - 1] - base)))
                start = end
            cur_start = row_base + n
        else:
            if cur_rows and cur_tokens + rg_tokens > token_budget:
                flush()
                cur_start = row_base
            cur_rows += n
            cur_tokens += rg_tokens
        row_base += n
    flush()
    return out


def build_plan(paths: list[str], token_col: str | None = "n_tok",
               token_budget: int = DEFAULT_TOKEN_BUDGET, filesystem=None) -> list[Partition]:
    """Plan all input files on the driver, in sorted path order, and
    number their partitions from 0. Each file costs one footer read and,
    if it holds ``token_col``, one read of that column per row group; no
    Ray task is started."""
    entries = [e for p in sorted(paths)
               for e in plan_file(p, token_col, token_budget, filesystem=filesystem)]
    return [Partition(partition_id=i, **e) for i, e in enumerate(entries)]


def cpu_slots() -> int:
    """CPU slots of the Ray session, else of this host; starts none."""
    if ray.is_initialized():
        return int(ray.cluster_resources().get("CPU", 1))
    return os.cpu_count() or 1


def task_count(n_units: int) -> int:
    """The one task-count rule of the blob-store jobs, the kernel
    Parquet read and the kernel Parquet sink's write of a materialized
    dataset: one task per CPU slot, each over a contiguous run of units
    (partitions, row groups, blocks), never more tasks than units."""
    return max(1, min(n_units, cpu_slots()))


def save_plan(plan: list[Partition], path: str, filesystem=None) -> None:
    from .state import fsio

    fsio.write_atomic(path, json.dumps([asdict(p) for p in plan]).encode(), filesystem)


def load_plan(path: str, filesystem=None) -> list[Partition]:
    from .state import fsio

    return [Partition(**e) for e in json.loads(fsio.read_bytes(path, filesystem))]
