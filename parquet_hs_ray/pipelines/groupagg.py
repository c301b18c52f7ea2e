"""High-cardinality grouped aggregation without Ray's per-row reduce.

Ray Data's ``groupby().aggregate()`` (both sort- and hash-shuffle
strategies in 2.49) finalizes groups with per-row Python iteration —
measured ~3k rows/s on (user, window) keys, i.e. 50 s of CPU for a 19k-
group aggregate that pandas does in milliseconds.  That cost is per
partial ROW, so it scales with the data, not with the group count: at
10^9 groups it is the whole job.

This module provides the scale shape instead:

1. the helper pre-combines each input block (one partial row per group
   per block — the shuffle carries aggregates, not events); callers
   keep only their row projection and their finish;
2. ``sort(keys)`` — Ray's sort is a vectorized range shuffle (sample →
   range partition → Arrow merge), no per-row Python;
3. one vectorized pandas ``groupby`` per sorted block;
4. only group fragments that straddle a block boundary are re-merged.
   In globally sorted order a straddling group's fragments are
   necessarily the FIRST or LAST group of their blocks, so at most
   2 rows per block (not per group) leave the object store for the
   driver-side merge — bounded by block count, never by data size.

Row-ordered operators that need state from EARLIER blocks rather than a
merge (running totals, ranks, lag/lead, as-of joins) use the sibling
shape in ``blocktasks.carry_scan``: the same global sort, a zero-CPU
summary per block folded into carries on the driver, one task per block.

Reference analogue: the reference engine has no aggregation at all
(SURVEY.md §2.5); this is infrastructure for the training-data operators
(windows, dedup, term stats) mandated on top of it.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
import pandas as pd
import ray.data


# Below this many partial rows (one per group per block after the
# per-block pre-combine) the final merge happens on the driver in one
# vectorized pandas pass instead of paying Ray sort's ~5 s fixed
# scheduling cost.  This bounds driver memory by construction (~tens of MB), the same
# cost-model choice real engines make between broadcast-final and
# shuffle-final aggregation; past it, the sort path engages.
SMALL_MERGE_ROWS = 500_000


def sorted_block_aggregate(
    partials: "ray.data.Dataset",
    keys: Sequence[str],
    block_agg: Callable[[pd.DataFrame], pd.DataFrame],
    edge_reduce: Callable[[pd.DataFrame], pd.DataFrame],
    small_merge_rows: int = SMALL_MERGE_ROWS,
) -> "ray.data.Dataset":
    """Aggregate ``partials`` by ``keys`` with vectorized per-block kernels.

    ``block_agg(df) -> df``: aggregate a key-sorted block to one row per
    group (must keep the key columns; output must be key-sorted, which a
    pandas ``groupby(sort=True)`` over sorted input gives for free).

    ``edge_reduce(df) -> df``: merge group FRAGMENTS that share a key
    across blocks.  Receives the concatenated edge rows (first+last group
    of every block, ≤2 per block); must return one row per key with the
    same columns/dtypes as ``block_agg``'s output.  It also sees
    single-fragment edge groups (cheapest correct contract) — for plain
    sums that is a no-op re-sum.
    """
    keys = list(keys)
    partials = partials.materialize()
    if partials.count() <= small_merge_rows:
        allp = partials.to_pandas()
        if not len(allp):
            return partials
        return ray.data.from_pandas(edge_reduce(allp))
    s = partials.sort(keys)

    def per_block(df: pd.DataFrame) -> pd.DataFrame:
        out = block_agg(df)
        n = len(out)
        edge = np.zeros(n, dtype=bool)
        if n:
            edge[0] = True
            edge[n - 1] = True
        out = out.copy()
        out["_edge"] = edge
        return out

    blocks = s.map_batches(per_block, batch_format="pandas", batch_size=None).materialize()

    edges = blocks.map_batches(
        lambda d: d[d["_edge"]].drop(columns="_edge"), batch_format="pandas"
    ).to_pandas()
    interior = blocks.map_batches(
        lambda d: d[~d["_edge"]].drop(columns="_edge"), batch_format="pandas"
    )
    if len(edges) == 0:
        return interior
    merged = edge_reduce(edges)
    merged = merged[list(edges.columns)]  # union needs identical schema order
    for c in edges.columns:  # and identical dtypes
        merged[c] = merged[c].astype(edges[c].dtype)
    return interior.union(ray.data.from_pandas(merged))


def grouped_sum(
    partials: "ray.data.Dataset",
    keys: Sequence[str],
    sum_cols: Sequence[str],
    small_merge_rows: int = SMALL_MERGE_ROWS,
    dropna: bool = True,
) -> "ray.data.Dataset":
    """Sum ``sum_cols`` per distinct ``keys`` combination: the sum
    spelling of :func:`grouped_agg`, so each input block is pre-combined
    before the merge.  ``dropna=False`` keeps NULL-keyed groups (SQL
    GROUP BY / set-op semantics: NULLs compare equal and form their own
    group)."""
    return grouped_agg(partials, keys, dict.fromkeys(sum_cols, "sum"),
                       small_merge_rows=small_merge_rows, dropna=dropna)


def grouped_sum_of_blocks(
    rows: "ray.data.Dataset",
    keys: Sequence[str],
    sum_cols: Sequence[str],
    block_sum: Callable[["pa.Table"], "pa.Table"],
) -> "ray.data.Dataset":
    """:func:`grouped_sum` whose per-block pre-combine is the caller's
    own Arrow kernel: ``block_sum`` maps each input block, once, to its
    sums of ``sum_cols`` per ``keys`` group, and those partials merge as
    sums (NULL keys dropped), with no second pass over the block."""
    keys = list(keys)
    return _pre_combined(rows, keys, block_sum,
                         _agg(keys, dict.fromkeys(sum_cols, "sum"), True),
                         SMALL_MERGE_ROWS, batch_format="pyarrow")


def grouped_count(
    rows: "ray.data.Dataset",
    keys: Sequence[str],
    name: str = "cnt",
    small_merge_rows: int = SMALL_MERGE_ROWS,
) -> "ray.data.Dataset":
    """Rows per distinct non-null ``keys`` combination, as int64 column
    ``name`` (pandas ``groupby(keys).size()``: a row with a NULL in any
    key is not counted).  The value-count histogram behind the
    quantile, rank and term-frequency operators: each block is counted
    once, and the counts merge as a sum."""
    keys = list(keys)
    return _pre_combined(rows, keys, lambda df: count_rows(df, keys, name),
                         _agg(keys, {name: "sum"}, True), small_merge_rows)


def count_rows(df: pd.DataFrame, keys: Sequence[str],
               name: str = "cnt") -> pd.DataFrame:
    """:func:`grouped_count`'s per-block body over one in-memory frame:
    int64 ``name`` rows per distinct non-null ``keys`` combination, key
    sorted.  For a block task whose output is stored (not fused into the
    count), so the stored partial is already one row per key."""
    return df.groupby(list(keys), sort=True).size().reset_index(name=name)


def grouping_sets_sum(
    partials: "ray.data.Dataset",
    keys: Sequence[str],
    sum_cols: Sequence[str],
    sets: Sequence[Sequence[str]],
    small_merge_rows: int = SMALL_MERGE_ROWS,
) -> "ray.data.Dataset":
    """SQL ``GROUPING SETS`` over additive partials: one output row per
    group per requested key subset, rolled-up keys emitted as NULL, plus
    a ``grouping_id`` bitmask column matching SQL ``GROUPING(k0, k1, …)``
    (bit for ``keys[0]`` is the most significant; bit set = key rolled up).

    Scale shape: the FINEST level (all ``keys``) is aggregated once from
    the input via :func:`grouped_sum`; every coarser set then
    re-aggregates the finest RESULT — strictly smaller than the input
    (one row per full key combination), and each further level only
    shrinks.  The input is scanned exactly once regardless of how many
    grouping sets are requested; the grand total touches one partial row
    per block.  The union of levels is a metadata concat (no data moves).

    The reference engine has no aggregation (SURVEY.md §2.5); this is the
    multi-granularity reporting layer (think per-source × per-lang corpus
    rollups) built on the same bounded-merge machinery."""
    import pyarrow as pa

    keys, sum_cols = list(keys), list(sum_cols)
    finest = grouped_sum(partials, keys, sum_cols,
                         small_merge_rows=small_merge_rows)
    # normalize to Arrow blocks (the small-merge path emits pandas blocks)
    # so rolled-up key columns can be typed nulls, not untyped ones
    finest = finest.map_batches(lambda t: t, batch_format="pyarrow",
                                batch_size=None).materialize()
    key_types = {k: finest.schema().base_schema.field(k).type for k in keys}

    def _pad(present: tuple, gid: int):
        present_set = set(present)

        def pad(t: "pa.Table") -> "pa.Table":
            n = t.num_rows
            cols = {}
            for k in keys:
                cols[k] = t[k] if k in present_set else pa.nulls(n, type=key_types[k])
            for c in sum_cols:
                cols[c] = t[c]
            cols["grouping_id"] = pa.array(np.full(n, gid, dtype=np.int64))
            return pa.table(cols)

        return pad

    outs = []
    for s in sets:
        s = tuple(s)
        gid = sum(1 << (len(keys) - 1 - i)
                  for i, k in enumerate(keys) if k not in s)
        if set(s) == set(keys):
            lvl = finest
        elif s:
            lvl = grouped_sum(finest, list(s), sum_cols,
                              small_merge_rows=small_merge_rows)
        else:
            # grand total: one partial row per finest block, tiny driver add
            def tot(df: pd.DataFrame) -> pd.DataFrame:
                if not len(df):
                    return pd.DataFrame({c: pd.Series([], dtype=df[c].dtype)
                                         for c in sum_cols})
                return pd.DataFrame({c: [df[c].sum()] for c in sum_cols})

            p = finest.map_batches(tot, batch_format="pandas").to_pandas()
            lvl = ray.data.from_pandas(
                pd.DataFrame({c: [p[c].sum()] for c in sum_cols}))
        outs.append(lvl.map_batches(_pad(s, gid), batch_format="pyarrow"))
    out = outs[0]
    for o in outs[1:]:
        out = out.union(o)
    return out


def rollup_sum(partials, keys, sum_cols, **kw):
    """SQL ``ROLLUP(k0, k1, …)``: the prefix chain of grouping sets
    (finest → … → grand total)."""
    keys = list(keys)
    sets = [keys[:i] for i in range(len(keys), -1, -1)]
    return grouping_sets_sum(partials, keys, sum_cols, sets, **kw)


def cube_sum(partials, keys, sum_cols, **kw):
    """SQL ``CUBE(k0, k1, …)``: all 2^k key subsets (order-preserving)."""
    keys = list(keys)
    sets = []
    for mask in range(1 << len(keys)):
        sets.append([k for i, k in enumerate(keys) if mask & (1 << i)])
    return grouping_sets_sum(partials, keys, sum_cols, sets, **kw)


def _agg(keys: list, spec: dict, dropna: bool):
    cols = list(spec)

    def block_agg(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(keys, sort=True, as_index=False,
                          dropna=dropna)[cols].agg(spec)

    return block_agg


def _pre_combined(rows, keys, block_agg, merge, small_merge_rows,
                  batch_format="pandas"):
    """The one per-block pre-combine: ``block_agg`` runs once per input
    block (in ``batch_format``) BEFORE the sort, so the shuffle carries
    one row per (group, input block), not one per input row; ``merge``
    then combines those partials (``sorted_block_aggregate``)."""
    partials = rows.map_batches(block_agg, batch_format=batch_format,
                                batch_size=None)
    return sorted_block_aggregate(partials, keys, merge, merge,
                                  small_merge_rows=small_merge_rows)


def grouped_agg(
    rows: "ray.data.Dataset",
    keys: Sequence[str],
    spec: dict,
    small_merge_rows: int = SMALL_MERGE_ROWS,
    dropna: bool = True,
) -> "ray.data.Dataset":
    """General decomposable aggregate: ``spec`` maps column -> 'sum' |
    'min' | 'max' (all self-decomposable: agg of partial aggs == agg of
    rows), pre-combined per input block.  ``dropna=False`` keeps
    NULL-keyed groups (SQL semantics)."""
    keys = list(keys)
    block_agg = _agg(keys, spec, dropna)
    return _pre_combined(rows, keys, block_agg, block_agg, small_merge_rows)
