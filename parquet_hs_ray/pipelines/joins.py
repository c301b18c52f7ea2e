"""Relational operators Ray Data lacks, built from sort + per-block
vectorized kernels + junction correction (the engine's standard pattern,
cf. sessionize and pack_sequences_global).

``asof_join``: for every left row, attach the LATEST right row with
``right.ts <= left.ts`` for the same key — the classic time-series
enrichment join. DuckDB's native ``ASOF JOIN`` is the oracle.

Scale shape: union both sides tagged, ONE sort on (key, ts, side), then
each sorted block forward-fills right-side values per key fully
vectorized. The only cross-block state is the last right-side row of
each block's LAST key (keys are contiguous after the sort, so only the
single boundary key can straddle blocks); those one-row summaries fold
left-to-right on the driver (#blocks tiny rows — same driver footprint
as a partition plan), and each block gets at most one carry row
prepended. No shuffle beyond the sort, no per-group Python.  Both joins
run that scan through ``blocktasks.carry_scan`` and drop empty output
blocks with ``blocktasks.nonempty_refs``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from .blocktasks import carry_scan, nonempty_refs


def asof_join(left: "ray.data.Dataset", right: "ray.data.Dataset",
              key: str = "user_id", ts: str = "ts",
              left_cols: tuple[str, ...] = ("event_id",),
              right_cols: tuple[str, ...] = ("event_id", "value"),
              prefix: str = "matched_") -> "ray.data.Dataset":
    """Left as-of join: per left row, values of the latest right row with
    ``right.ts <= left.ts`` and equal ``key`` (NULLs when none exists).

    Ties on ``right.ts`` within a key break deterministically toward the
    LARGEST first ``right_cols`` value (callers pass a unique id first),
    mirrored in the SQL oracle via a row_number() dedup — DuckDB's ASOF
    tie behavior is otherwise unspecified.

    Returns a Dataset with ``key``, ``ts``, ``left_cols`` and
    ``prefix+right_cols`` — block outputs stay in the object store
    (never concatenated on the driver), flowing out (key, ts)-sorted."""
    rid = right_cols[0]

    def tag_left(t: pa.Table) -> pa.Table:
        cols = {key: t[key], ts: t[ts],
                "_side": pa.array(np.ones(t.num_rows, np.int8))}
        for c in left_cols:
            cols[f"l_{c}"] = t[c]
        for c in right_cols:
            cols[f"r_{c}"] = pa.nulls(t.num_rows, t.schema.field(c).type) \
                if c in t.column_names else pa.nulls(t.num_rows, pa.float64())
        return pa.table(cols)

    def tag_right(t: pa.Table) -> pa.Table:
        cols = {key: t[key], ts: t[ts],
                "_side": pa.array(np.zeros(t.num_rows, np.int8))}
        for c in left_cols:
            cols[f"l_{c}"] = pa.nulls(t.num_rows, t.schema.field(c).type) \
                if c in t.column_names else pa.nulls(t.num_rows, pa.int64())
        for c in right_cols:
            cols[f"r_{c}"] = t[c]
        return pa.table(cols)

    both = left.map_batches(tag_left, batch_format="pyarrow").union(
        right.map_batches(tag_right, batch_format="pyarrow"))
    # side=0 (right) sorts before side=1 (left) at equal ts -> a right row
    # at exactly left.ts is visible to that left row (ts >= semantics);
    # r_<rid> last in the key makes "last row wins" the max-id tie-break
    srt = both.sort([key, ts, "_side", f"r_{rid}"]).materialize()
    refs = srt.to_arrow_refs()

    def block_summary(t):
        """(last key, latest right row's values for that key, or None)."""
        df = t.to_pandas()
        last_key = df[key].iloc[-1]
        g = df[(df[key] == last_key) & (df["_side"] == 0)]
        if len(g) == 0:
            return (last_key, None)
        return (last_key, g.iloc[-1][[ts] + [f"r_{c}" for c in right_cols]].to_dict())

    def step(running, s):
        # carry into the next block = the latest right row of the
        # boundary key as of the end of this one
        last_key, row = s
        if row is not None:
            return s
        if running is not None and running[0] == last_key:
            return running  # key continues with no new right rows
        return None  # new key with no right rows yet

    left_schema = left.schema()
    l_dtypes = {c: left_schema.types[left_schema.names.index(c)].to_pandas_dtype()
                for c in left_cols}

    def block_join(t, carry):
        df = t.to_pandas()
        rmask = df["_side"] == 0
        out = df[df["_side"] == 1].copy()
        for c in right_cols:
            filled = df[f"r_{c}"].where(rmask).groupby(df[key]).ffill()
            out[f"r_{c}"] = filled[out.index]
        if carry is not None and len(out):
            # leading left rows of the boundary key that saw no in-block
            # right row inherit the carried latest right row
            m = (out[key] == carry[0]) & out[f"r_{rid}"].isna()
            if m.any():
                for c in right_cols:
                    out.loc[m, f"r_{c}"] = carry[1][f"r_{c}"]
        res = pd.DataFrame({key: out[key], ts: out[ts]})
        for c in left_cols:
            # the union nullability widened these to float/object; left
            # rows always carry real values, so the original dtype is safe
            res[c] = out[f"l_{c}"].astype(l_dtypes[c])
        for c in right_cols:
            res[prefix + c] = out[f"r_{c}"]
        return res

    # block outputs become the result Dataset — nothing is concatenated
    # on the driver (rows flow out block-ordered, i.e. (key, ts)-sorted)
    keep = nonempty_refs(carry_scan(refs, block_summary, step, block_join))
    if not keep:
        return ray.data.from_pandas(pd.DataFrame(
            columns=[key, ts, *left_cols, *(prefix + c for c in right_cols)]))
    return ray.data.from_pandas_refs(keep)


def range_join(left: "ray.data.Dataset", right: "ray.data.Dataset",
               key: str = "user_id", ts: str = "ts", window_us: int = 1_800_000_000,
               left_cols: tuple[str, ...] = ("event_id",),
               right_cols: tuple[str, ...] = ("event_id",),
               prefix: str = "matched_") -> "ray.data.Dataset":
    """Range (interval) join: ALL (left, right) pairs with equal ``key``
    and ``left.ts - window_us <= right.ts <= left.ts`` — the "events in
    the preceding window" join. DuckDB twin: a plain inequality join.

    Same machinery as :func:`asof_join` — one sort on (key, ts, side),
    per-block vectorized matching via two ``searchsorted`` bounds per key
    segment (no per-row loop), plus a per-block carry of the last key's
    rights still inside the window at the block boundary (bounded by the
    window length, folded left-to-right as tiny tables)."""
    lcols = [f"l_{c}" for c in left_cols]
    rcols = [f"r_{c}" for c in right_cols]

    def tag(side: int, keep_l: bool):
        def f(t: pa.Table) -> pa.Table:
            cols = {key: t[key], ts: t[ts],
                    "_side": pa.array(np.full(t.num_rows, side, np.int8))}
            for c in left_cols:
                cols[f"l_{c}"] = t[c] if keep_l else pa.nulls(t.num_rows, t.schema.field(c).type)
            for c in right_cols:
                cols[f"r_{c}"] = pa.nulls(t.num_rows, t.schema.field(c).type) if keep_l else t[c]
            return pa.table(cols)
        return f

    both = left.map_batches(tag(1, True), batch_format="pyarrow").union(
        right.map_batches(tag(0, False), batch_format="pyarrow"))
    srt = both.sort([key, ts, "_side"]).materialize()
    refs = srt.to_arrow_refs()

    def summary(t):
        """Rights of the block's LAST key within window_us of its last ts
        (the only rows that can match lefts in later blocks)."""
        df = t.to_pandas()
        last_key = df[key].iloc[-1]
        last_ts = df[ts].iloc[-1]
        g = df[(df[key] == last_key) & (df["_side"] == 0)]
        g = g[g[ts] >= last_ts - pd.Timedelta(microseconds=window_us)]
        return (last_key, last_ts, g[[key, ts] + rcols])

    def step(running, s):
        # running = (key, its rights still in the window at the edge)
        last_key, last_ts, rows = s
        if running is not None and running[0] == last_key:
            # same key continues: keep earlier-block rights still in window
            # (row sets from different blocks are disjoint — no dedup, a
            # legitimate duplicate right event must stay duplicated)
            prev = running[1]
            prev = prev[prev[ts] >= last_ts - pd.Timedelta(microseconds=window_us)]
            rows = pd.concat([prev, rows], ignore_index=True)
        return last_key, rows

    left_schema, right_schema = left.schema(), right.schema()
    l_dtypes = {c: left_schema.types[left_schema.names.index(c)].to_pandas_dtype()
                for c in left_cols}
    r_dtypes = {c: right_schema.types[right_schema.names.index(c)].to_pandas_dtype()
                for c in right_cols}

    def block_match(t, carry):
        df = t.to_pandas()
        frames = []
        lefts = df[df["_side"] == 1]
        rights = df[df["_side"] == 0][[key, ts] + rcols]
        if carry is not None and len(lefts):
            c = carry[1][carry[1][key] == df[key].iloc[0]]
            if len(c):
                rights = pd.concat([c, rights], ignore_index=True).sort_values(
                    [key, ts], kind="stable")
        if len(lefts) == 0 or len(rights) == 0:
            return pd.DataFrame(columns=[key, ts, *left_cols,
                                         *(prefix + c for c in right_cols),
                                         prefix + ts])
        for k, lg in lefts.groupby(key, sort=False):
            rg = rights[rights[key] == k]
            if len(rg) == 0:
                continue
            rts = rg[ts].to_numpy()
            lts = lg[ts].to_numpy()
            lo = np.searchsorted(rts, lts - np.timedelta64(window_us, "us"), side="left")
            hi = np.searchsorted(rts, lts, side="right")
            n_per = hi - lo
            m = n_per > 0
            if not m.any():
                continue
            li = np.repeat(np.arange(len(lg))[m], n_per[m])
            from ..codecs.hybrid_columnar import _ragged_indices

            ri = _ragged_indices(lo[m].astype(np.int64), n_per[m].astype(np.int64))
            out = pd.DataFrame({key: lg[key].to_numpy()[li], ts: lts[li]})
            for c in left_cols:
                # both sides' columns are non-null in matches: restore the
                # original dtypes the union's nullability widened away
                out[c] = lg[f"l_{c}"].to_numpy()[li].astype(l_dtypes[c])
            for c in right_cols:
                out[prefix + c] = rg[f"r_{c}"].to_numpy()[ri].astype(r_dtypes[c])
            out[prefix + ts] = rts[ri]
            frames.append(out)
        if not frames:
            return pd.DataFrame(columns=[key, ts, *left_cols,
                                         *(prefix + c for c in right_cols),
                                         prefix + ts])
        return pd.concat(frames, ignore_index=True)

    # block outputs become the result Dataset — no driver concatenation
    keep = nonempty_refs(carry_scan(refs, summary, step, block_match))
    if not keep:
        return ray.data.from_pandas(pd.DataFrame(
            columns=[key, ts, *left_cols,
                     *(prefix + c for c in right_cols), prefix + ts]))
    return ray.data.from_pandas_refs(keep)
