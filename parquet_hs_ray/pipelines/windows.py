"""Streaming-shaped operators over the events log.

The reference has no streaming semantics (SURVEY.md §2.5: its "streaming"
is single-pass bounded-file conduit); these are the windowed/sessionized
aggregates a log-shaped training-data pipeline needs, expressed the Ray
Data way (ray_guide: treat the input as an ordered partitioned log; windows
via partial-agg + groupby, sessions via ``groupby(key).map_groups`` over
ts-sorted groups).

Ordering assumption: sessionization sorts each user's events by ``ts``
inside its group (no global sort); tumbling windows need no ordering at
all (the window id is a pure function of ts).

The row-ordered analytics (running totals, gaps, transitions, rolling
windows, lag/lead, time-range sums, EWMA) share one scale shape: ONE
global sort, then ``blocktasks.carry_scan`` — a zero-CPU summary per
sorted block, a driver fold of the summaries into per-boundary carries,
one block task per block.  Each operator here supplies only its summary,
fold step and block body.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data

from .blocktasks import carry_scan

_HOUR_US = 3_600_000_000


def _ts_us(series: pd.Series) -> np.ndarray:
    """Epoch microseconds regardless of the column's datetime unit (a
    timestamp[ns] input would otherwise be interpreted 1000x off)."""
    if pd.api.types.is_datetime64_any_dtype(series):
        return series.astype("datetime64[us]").astype("int64").to_numpy()
    return series.astype("int64").to_numpy()


def _ts_us_arrow(col) -> np.ndarray:
    """Epoch microseconds from an Arrow ts column (any datetime unit or
    raw int64) — the zero-copy twin of :func:`_ts_us`."""
    import pyarrow as pa
    import pyarrow.compute as pc

    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if pa.types.is_timestamp(arr.type):
        arr = pc.cast(arr, pa.timestamp("us"))
    return pc.cast(arr, pa.int64()).to_numpy(zero_copy_only=False)


def _user_win_partial(uid: np.ndarray, win: np.ndarray,
                      val: np.ndarray):
    """Vectorized (user, win) partial aggregate: one lexsort + segment
    ``reduceat`` — no pandas hash groupby on the hot path.  Returns
    (uid_out, win_out, n_events, sum_value).

    Null/NaN values sum as 0 (SQL SUM / pandas skipna semantics — a raw
    ``reduceat`` would poison the whole group's sum with one NaN); rows
    with null values still count in n_events, matching the pandas
    groupby this kernel replaced."""
    order = np.lexsort((win, uid))
    u, w, v = uid[order], win[order], val[order]
    if v.dtype.kind == "f" and np.isnan(v).any():
        v = np.nan_to_num(v, nan=0.0)
    new = np.ones(len(u), dtype=bool)
    if len(u) > 1:
        new[1:] = (u[1:] != u[:-1]) | (w[1:] != w[:-1])
    starts = np.flatnonzero(new)
    counts = np.diff(np.concatenate([starts, [len(u)]]))
    sums = np.add.reduceat(v, starts) if len(u) else v[:0]
    return u[starts], w[starts], counts.astype(np.int64), sums


def tumbling_window(events: "ray.data.Dataset", window_us: int = _HOUR_US) -> "ray.data.Dataset":
    """Per (user_id, tumbling window): event count and value sum.

    Partial-aggregation pattern: one partial row per (user, window) per
    block, then a small groupby over partials — the shuffle carries
    aggregates, not events.  The partial is zero-copy Arrow + numpy
    lexsort/reduceat (the r3 verdict's pandas-conversion fix)."""
    import pyarrow as pa

    def partial(t: "pa.Table") -> "pa.Table":
        win = _ts_us_arrow(t["ts"]) // window_us
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        val = t["value"].to_numpy(zero_copy_only=False)
        u, w, n, s = _user_win_partial(uid, win, val)
        return pa.table({"user_id": u, "win": w, "n_events": n,
                         "sum_value": s})

    return _win_sums(events, partial)


def _win_sums(events: "ray.data.Dataset", partial) -> "ray.data.Dataset":
    """Shared tumbling/hopping aggregate: ``partial`` (the
    ``_user_win_partial`` kernel) reduces each block once, and its
    (user, win) rows merge as sums."""
    from .groupagg import grouped_sum_of_blocks

    agg = grouped_sum_of_blocks(events, ["user_id", "win"],
                                ["n_events", "sum_value"], partial)
    return agg.map_batches(_finish_win_agg, batch_format="pyarrow")


def _finish_win_agg(t: "pa.Table") -> "pa.Table":
    """Shared tumbling/hopping finisher, Arrow-native (no
    pandas round-trip on the post-aggregate stream): int64 counts,
    half-to-even 6-decimal rounding (pandas ``.round`` parity)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    t = t.set_column(t.schema.get_field_index("n_events"), "n_events",
                     pc.cast(t["n_events"], pa.int64()))
    return t.set_column(
        t.schema.get_field_index("sum_value"), "sum_value",
        pc.round(t["sum_value"], ndigits=6, round_mode="half_to_even"))


def sessionize(events: "ray.data.Dataset", gap_us: int = 30 * 60 * 1_000_000) -> "ray.data.Dataset":
    """Per user: number of sessions (a session breaks when the gap between
    consecutive events exceeds ``gap_us``) and total events.

    Scale shape (replaces the r1 ``groupby(user).map_groups`` one-frame-
    per-user pattern — 10^8 users meant 10^8 pandas constructions):

    1. global ``sort((user_id, ts))`` — range-partitioned sorted blocks,
       so each block is per-user time-disjoint from every other block;
       the shuffle carries only (user_id, ts).
    2. one VECTORIZED partial row per (user, block): event count, break
       count (numpy diff over the sorted block), min/max ts.
    3. ``groupagg.sorted_block_aggregate`` merges fragments: vectorized
       per sorted block, with only block-edge rows (users straddling a
       boundary are necessarily first/last in their block) re-merged —
       junction breaks between a user's time-disjoint fragments are
       counted inside the same kernel, so nothing per-user ever reaches
       the driver.
    """
    import pyarrow as pa

    s = events.select_columns(["user_id", "ts"]).sort(["user_id", "ts"])

    def partial(t: "pa.Table") -> "pa.Table":
        u = t["user_id"].to_numpy(zero_copy_only=False)
        ts = _ts_us_arrow(t["ts"])
        n = len(u)
        if n == 0:
            z = np.empty(0, np.int64)
            return pa.table({"user_id": u[:0], "n_events": z, "n_breaks": z,
                             "min_ts": z, "max_ts": z})
        order = np.lexsort((ts, u))  # defensive; a sorted block is a no-op
        u, ts = u[order], ts[order]
        newu = np.concatenate([[True], u[1:] != u[:-1]])
        starts = np.flatnonzero(newu)
        counts = np.diff(np.concatenate([starts, [n]]))
        brk = (~newu[1:]) & (np.diff(ts) > gap_us)
        cs = np.concatenate([[0], np.cumsum(brk)])
        b_per = cs[starts + counts - 1] - cs[starts]
        return pa.table({"user_id": u[starts],
                         "n_events": counts.astype(np.int64),
                         "n_breaks": b_per.astype(np.int64),
                         "min_ts": ts[starts],
                         "max_ts": ts[starts + counts - 1]})

    partials = s.map_batches(partial, batch_format="pyarrow", batch_size=None)
    from .groupagg import sorted_block_aggregate

    def merge_fragments(df: pd.DataFrame) -> pd.DataFrame:
        """Merge per-(user, block) fragments: sum events/breaks, count a
        junction break when the gap between a user's time-disjoint
        adjacent fragments exceeds the threshold.  Self-decomposable
        (output rows are again valid fragments), so it serves as both the
        per-block and the edge-merge kernel."""
        if not len(df):
            return df
        df = df.sort_values(["user_id", "min_ts"], kind="mergesort")
        u = df["user_id"].to_numpy()
        min_ts = df["min_ts"].to_numpy()
        max_ts = df["max_ts"].to_numpy()
        same = u[1:] == u[:-1]
        junction = (same & (min_ts[1:] - max_ts[:-1] > gap_us)).astype(np.int64)
        tmp = pd.DataFrame({
            "user_id": u,
            "n_events": df["n_events"].to_numpy(),
            "n_breaks": df["n_breaks"].to_numpy() + np.concatenate([[0], junction]),
            "min_ts": min_ts, "max_ts": max_ts,
        })
        return tmp.groupby("user_id", sort=True, as_index=False).agg(
            n_events=("n_events", "sum"), n_breaks=("n_breaks", "sum"),
            min_ts=("min_ts", "min"), max_ts=("max_ts", "max"))

    agg = sorted_block_aggregate(partials, ["user_id"], merge_fragments, merge_fragments)

    def finish(t: "pa.Table") -> "pa.Table":
        import pyarrow.compute as pc

        return pa.table({
            "user_id": t["user_id"],
            "n_sessions": pc.add(pc.cast(t["n_breaks"], pa.int64()), 1),
            "n_events": pc.cast(t["n_events"], pa.int64()),
        })

    return agg.map_batches(finish, batch_format="pyarrow")


def hopping_window(events: "ray.data.Dataset", window_us: int = _HOUR_US,
                   hop_us: int = _HOUR_US // 2) -> "ray.data.Dataset":
    """Per (user_id, hopping window): event count and value sum. A window
    w (indexed by start//hop) covers [w*hop, w*hop + window); each event
    lands in window/hop consecutive windows.

    Same partial-agg shape as ``tumbling_window``: the per-block explode
    is numpy repeat/tile, the shuffle carries (user, win) partials only.
    ``window_us`` must be a multiple of ``hop_us``.
    """
    if window_us % hop_us:
        raise ValueError("window_us must be a multiple of hop_us")
    nwin = window_us // hop_us

    import pyarrow as pa

    def partial(t: "pa.Table") -> "pa.Table":
        base = _ts_us_arrow(t["ts"]) // hop_us
        n = t.num_rows
        win = np.repeat(base, nwin) - np.tile(np.arange(nwin, dtype=np.int64), n)
        uid = np.repeat(t["user_id"].to_numpy(zero_copy_only=False), nwin)
        val = np.repeat(t["value"].to_numpy(zero_copy_only=False), nwin)
        u, w, cnt, s = _user_win_partial(uid, win, val)
        return pa.table({"user_id": u, "win": w, "n_events": cnt,
                         "sum_value": s})

    return _win_sums(events, partial)


def running_totals(events: "ray.data.Dataset", key: str = "user_id",
                   ts: str = "ts", id_col: str = "event_id",
                   val: str = "value") -> "ray.data.Dataset":
    """Per-row running totals within each ``key``, ordered by
    (``ts``, ``id_col``): cumulative event count and cumulative value in
    integer cents — the SQL ``SUM(...) OVER (PARTITION BY key ORDER BY
    ts, id ROWS UNBOUNDED PRECEDING)`` analytic.

    The value accumulates as ``round(val*100)`` int64 cents so the
    running sum is associative and order-exact (float window sums
    disagree across engines on association; integer sums cannot).

    Scale shape (the sessionize/asof pattern): ONE sort on
    (key, ts, id) — keys are contiguous after it, so only each block's
    boundary key can straddle blocks.  Per-block zero-CPU summaries
    (first/last key + their in-block totals) fold left-to-right on the
    driver (#blocks tiny tuples); each block then computes a vectorized
    grouped cumsum locally, offsetting only its first key's rows by the
    carried total.  No per-key Python anywhere.
    """
    import pyarrow as pa

    def prep(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        cents = pc.cast(pc.round(pc.multiply(
            pc.cast(t[val], pa.float64()), 100.0)), pa.int64())
        return pa.table({key: t[key], ts: t[ts], id_col: t[id_col],
                         "_cents": cents})

    srt = (events.map_batches(prep, batch_format="pyarrow")
           .sort([key, ts, id_col]).materialize())
    refs = srt.to_arrow_refs()
    if not refs:
        return ray.data.from_pandas(pd.DataFrame(
            columns=[key, ts, id_col, "running_n", "running_cents"]))

    def summary(t):
        k = t[key].to_numpy(zero_copy_only=False)
        c = t["_cents"].to_numpy(zero_copy_only=False)
        i_last = int(np.searchsorted(k, k[-1], side="left"))
        return k[0], k[-1], int(c[i_last:].sum()), t.num_rows - i_last

    def step(run, s):
        # run = (key, cum count, cum cents) of the key the scan ends in
        fk, lk, cl, nl = s
        if fk == lk and run is not None and run[0] == lk:
            return lk, run[1] + nl, run[2] + cl  # the key spans the block
        return lk, nl, cl

    def block_cumsum(t, carry):
        df = t.to_pandas()
        if not len(df):
            # fully-empty sort outputs arrive with ZERO columns —
            # synthesize the schema
            base = (df.drop(columns=["_cents"]) if "_cents" in df.columns
                    else pd.DataFrame({key: pd.Series(dtype=np.int64),
                                       ts: pd.Series(dtype="datetime64[us]"),
                                       id_col: pd.Series(dtype=np.int64)}))
            base["running_n"] = pd.Series(dtype=np.int64)
            base["running_cents"] = pd.Series(dtype=np.int64)
            return base
        g = df.groupby(key, sort=False)
        df["running_n"] = g.cumcount().to_numpy() + 1
        df["running_cents"] = g["_cents"].cumsum().to_numpy()
        if carry is not None and df[key].iloc[0] == carry[0]:
            k = df[key].to_numpy()
            n_first = int(np.searchsorted(k, k[0], side="right"))
            df.iloc[:n_first, df.columns.get_loc("running_n")] += carry[1]
            df.iloc[:n_first, df.columns.get_loc("running_cents")] += carry[2]
        df["running_n"] = df["running_n"].astype(np.int64)
        df["running_cents"] = df["running_cents"].astype(np.int64)
        return df.drop(columns=["_cents"])

    # block outputs stay in the object store: the result is a Dataset
    # built from the refs, never concatenated on the driver (rows flow
    # out block-ordered, i.e. sorted by (key, ts, id))
    return ray.data.from_pandas_refs(carry_scan(refs, summary, step, block_cumsum))


def event_gaps(events: "ray.data.Dataset", key: str = "user_id",
               ts: str = "ts", id_col: str = "event_id") -> "ray.data.Dataset":
    """Per-row gap to the PREVIOUS event of the same ``key`` in
    (``ts``, ``id_col``) order, in microseconds — the SQL ``lag()``
    window analytic (inter-arrival times; first event per key gets -1,
    COALESCE'd on both sides to keep the column integer-typed).

    Scale shape (the running-totals carry pattern): ONE sort on
    (key, ts, id); zero-CPU per-block summaries carry each block's last
    (key, ts) left-to-right on the driver; per block, a vectorized
    grouped shift computes in-block gaps and only row 0 can inherit the
    carried timestamp (keys/rows are contiguous after the sort)."""
    import pyarrow as pa

    def prep(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # normalize to microseconds whatever the input unit (parquet is
        # us, pandas-born frames are ns)
        us = pc.cast(pc.cast(t[ts], pa.timestamp("us")), pa.int64())
        return pa.table({key: t[key], id_col: t[id_col], "_us": us})

    srt = (events.map_batches(prep, batch_format="pyarrow")
           .sort([key, "_us", id_col]).materialize())
    refs = srt.to_arrow_refs()
    if not refs:
        return ray.data.from_pandas(pd.DataFrame(
            columns=[key, ts, id_col, "gap_us"]))

    def summary(t):
        return (t[key].to_numpy(zero_copy_only=False)[-1],
                int(t["_us"].to_numpy(zero_copy_only=False)[-1]))

    def block_gaps(t, carry):
        df = t.to_pandas()
        if not len(df):
            return pd.DataFrame({
                key: df[key] if key in df.columns
                else pd.Series(dtype=np.int64),
                ts: pd.Series(dtype="datetime64[ns]"),
                id_col: df[id_col] if id_col in df.columns
                else pd.Series(dtype=np.int64),
                "gap_us": pd.Series(dtype=np.int64)})
        prev = df.groupby(key, sort=False)["_us"].shift(1)
        if carry is not None and df[key].iloc[0] == carry[0]:
            prev.iloc[0] = carry[1]
        gap = (df["_us"] - prev).fillna(-1).astype(np.int64)
        # first event of a key genuinely has no predecessor: -1 sentinel
        return pd.DataFrame({key: df[key],
                             ts: pd.to_datetime(df["_us"], unit="us"),
                             id_col: df[id_col], "gap_us": gap})

    # block outputs become the result Dataset directly (no driver-side
    # concatenation); rows flow out sorted by (key, ts, id)
    return ray.data.from_pandas_refs(
        carry_scan(refs, summary, lambda _, s: s, block_gaps))


def funnel(events: "ray.data.Dataset", stages: "list[str]",
           key: str = "user_id", type_col: str = "event_type",
           ts_col: str = "ts") -> "ray.data.Dataset":
    """Ordered conversion funnel: per ``key``, how many of ``stages`` were
    completed IN ORDER — stage i counts only if an event of that type
    occurs STRICTLY AFTER the key's first completion of stage i-1 (the
    product-analytics funnel, with first-touch semantics).  Returns
    (key, n_stages) for keys that completed at least stage 1.

    Scale shape: one filtered grouped-min per stage (the partial-agg
    pattern: the shuffle carries (key, min-ts) partials), chained through
    hash-shuffle joins on ``key`` — no user-sized broadcast map anywhere,
    so the pipeline holds at web-scale key cardinality; the stage count
    is a constant factor.  SQL twin: chained JOIN + min() CTEs."""
    import pyarrow.compute as pc

    from .groupagg import grouped_agg
    from .relational import broadcast_join, hash_join

    reached = []  # per stage: Dataset of (key, stage_no)
    prev = None   # Dataset of (key, t_prev)
    for i, st in enumerate(stages):
        ev = events.map_batches(
            lambda t, st=st: t.filter(pc.equal(t[type_col], st)),
            batch_format="pyarrow").select_columns([key, ts_col])
        if prev is not None:
            # size-aware join: the stage-min side is key-cardinality-sized;
            # broadcast it while it fits (one object-store copy, no
            # shuffle), fall back to the hash-shuffle join at scale
            try:
                small = (prev.size_bytes() or 0) < (32 << 20)
            except Exception:
                small = False
            if small:
                joined = broadcast_join(ev, prev, key, key, how="inner",
                                        right_cols=["t_prev"])
            else:
                joined = hash_join(ev, prev, key, key)
            ev = joined.map_batches(
                lambda t: t.filter(pc.greater(t[ts_col], t["t_prev"])),
                batch_format="pyarrow").select_columns([key, ts_col])
        m = grouped_agg(ev, [key], {ts_col: "min"}).materialize()
        if m.count() == 0:
            break
        stage_no = i + 1

        def tag(t, n=stage_no):
            import pyarrow as pa

            return pa.table({
                key: t[key],
                "n_stages": pa.array(np.full(t.num_rows, n, np.int64))})

        reached.append(m.map_batches(tag, batch_format="pyarrow"))
        prev = m.map_batches(
            lambda t: t.select([key, ts_col]).rename_columns(
                [key, "t_prev"]),
            batch_format="pyarrow")
    if not reached:
        return ray.data.from_pandas(pd.DataFrame({
            key: pd.Series([], dtype=np.int64),
            "n_stages": pd.Series([], dtype=np.int64)}))
    u = reached[0]
    for r in reached[1:]:
        u = u.union(r)
    # stage i implies stage i-1, so per-key max == stages completed in order
    return grouped_agg(u, [key], {"n_stages": "max"})


_WEEK_US = 7 * 86400 * 1_000_000


def retention_cohorts(events: "ray.data.Dataset", key: str = "user_id",
                      ts_col: str = "ts") -> "ray.data.Dataset":
    """Cohort retention matrix: users cohort by their FIRST active epoch
    week; each (cohort_week, age) cell counts distinct users from that
    cohort active ``age`` weeks later — the standard retention triangle.

    Scale shape: per-batch DISTINCT (key, week) partials (two ints per
    active user-week, never events) -> grouped min for the cohort ->
    size-aware join back (broadcast while the cohort table fits, hash
    shuffle at scale) -> one grouped count of already-distinct rows.
    SQL twin: DISTINCT + min + join + GROUP BY."""
    from .groupagg import grouped_agg, grouped_count
    from .relational import broadcast_join, hash_join

    def pairs(t):
        import pyarrow as pa

        wk = (_ts_us_arrow(t[ts_col]) // _WEEK_US).astype(np.int64)
        g = pa.table({key: t[key], "week": pa.array(wk)})
        d = g.group_by([key, "week"]).aggregate([])  # per-batch distinct
        return d.append_column(
            "one", pa.array(np.ones(d.num_rows, np.int64)))

    # per-batch distinct is a pre-combine only — the same (user, week) can
    # recur across blocks, so a global grouped distinct follows (max of a
    # constant == distinct-row projection)
    uw = (grouped_agg(events.map_batches(pairs, batch_format="pyarrow"),
                      [key, "week"], {"one": "max"})
          .select_columns([key, "week"]).materialize())
    cohorts = (grouped_agg(uw, [key], {"week": "min"})
               .map_batches(lambda t: t.select([key, "week"])
                            .rename_columns([key, "cohort_week"]),
                            batch_format="pyarrow").materialize())
    try:
        small = (cohorts.size_bytes() or 0) < (32 << 20)
    except Exception:
        small = False
    if small:
        joined = broadcast_join(uw, cohorts, key, key, how="inner",
                                right_cols=["cohort_week"])
    else:
        joined = hash_join(uw, cohorts, key, key)

    def cell(t):
        # input rows are globally distinct (user, week): a row count
        # is a distinct-user count
        import pyarrow as pa
        import pyarrow.compute as pc

        return pa.table({"cohort_week": t["cohort_week"],
                         "age": pc.subtract(t["week"], t["cohort_week"])})

    return grouped_count(joined.map_batches(cell, batch_format="pyarrow"),
                         ["cohort_week", "age"], name="n_users")


def calendar_rollup(events: "ray.data.Dataset", unit: str = "month",
                    key: str = "event_type", ts_col: str = "ts",
                    val_col: str = "value") -> "ray.data.Dataset":
    """Calendar-bucketed rollup: count + integer-cents value sum per
    (date_trunc(unit, ts), key) — the time-dimension twin of
    tumbling_window for HUMAN calendar units (months vary in length, so
    no fixed window width works).  ``unit``: 'day' | 'week' (Monday
    start, DuckDB's convention) | 'month'.  Cents quantization is the
    pivot_sum convention (round_even), keeping the shuffle integer and
    merge-order-independent."""
    if unit not in ("day", "week", "month"):
        raise ValueError(f"unit must be day|week|month: {unit}")

    def partial(t):
        import pyarrow as pa
        import pyarrow.compute as pc

        ts = pc.cast(t[ts_col], pa.timestamp("us"))
        if unit == "day":
            bucket = pc.floor_temporal(ts, unit="day")
        elif unit == "week":
            # Monday start == pandas 'W-SUN' period start (the DuckDB
            # date_trunc('week') convention)
            bucket = pc.floor_temporal(ts, unit="week",
                                       week_starts_monday=True)
        else:
            bucket = pc.floor_temporal(ts, unit="month")
        cents = pc.cast(pc.round(
            pc.multiply(pc.cast(t[val_col], pa.float64()), 100.0),
            ndigits=0, round_mode="half_to_even"), pa.int64())
        return pa.table({"bucket": bucket, key: t[key],
                         "n": pa.array(np.ones(t.num_rows, np.int64)),
                         "value_cents": cents})

    from .groupagg import grouped_sum

    return grouped_sum(events.map_batches(partial, batch_format="pyarrow"),
                       ["bucket", key], ["n", "value_cents"])


def event_transitions(events: "ray.data.Dataset", key: str = "user_id",
                      ts_col: str = "ts", id_col: str = "event_id",
                      type_col: str = "event_type") -> "ray.data.Dataset":
    """Markov transition mining: counts of CONSECUTIVE event-type pairs
    per ``key`` in (``ts``, ``id_col``) order — the behavioral-path
    profile (what users do next).  SQL twin: ``lead() OVER (PARTITION BY
    key ORDER BY ts, id)`` + GROUP BY.

    Scale shape (the event_gaps carry pattern): ONE sort on (key, ts,
    id); zero-CPU per-block summaries carry each block's LAST (key,
    type) left-to-right on the driver (#blocks tuples, never rows); per
    block a vectorized shift pairs in-block neighbors, with only row 0
    able to pair against the carried tuple; per-block pair counts merge
    through grouped_sum (type-vocabulary-bounded partials)."""
    import pyarrow as pa

    def prep(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        us = pc.cast(pc.cast(t[ts_col], pa.timestamp("us")), pa.int64())
        return pa.table({key: t[key], id_col: t[id_col], "_us": us,
                         type_col: t[type_col]})

    srt = (events.map_batches(prep, batch_format="pyarrow")
           .sort([key, "_us", id_col]).materialize())
    refs = srt.to_arrow_refs()
    empty = pd.DataFrame({"prev_type": pd.Series([], dtype=object),
                          "next_type": pd.Series([], dtype=object),
                          "n": pd.Series([], dtype=np.int64)})
    if not refs:
        return ray.data.from_pandas(empty)

    def summary(t):
        return (t[key].to_numpy(zero_copy_only=False)[-1],
                t[type_col].to_numpy(zero_copy_only=False)[-1])

    def block_pairs(t, carry) -> pd.DataFrame:
        df = t.to_pandas()
        if not len(df):
            return empty
        k = df[key].to_numpy()
        tp = df[type_col].to_numpy()
        prev_t = np.concatenate([[None], tp[:-1]])
        same = np.concatenate([[False], k[1:] == k[:-1]])
        if carry is not None and k[0] == carry[0]:
            prev_t[0] = carry[1]
            same[0] = True
        return count_rows(pd.DataFrame({"prev_type": prev_t[same],
                                        "next_type": tp[same]}),
                          ["prev_type", "next_type"], "n")

    from .groupagg import count_rows, grouped_sum

    partials = ray.data.from_pandas_refs(
        carry_scan(refs, summary, lambda _, s: s, block_pairs))
    return grouped_sum(partials, ["prev_type", "next_type"], ["n"])


def _with_carry(kcol: np.ndarray, carry, *cols: np.ndarray):
    """Prepend a carried tail ``(key, *col_tails)`` to a sorted block's
    columns when the block starts with that key: ``(pre, kcol, *cols)``
    where ``pre`` counts the prepended rows (0 when nothing carried)."""
    if carry is None or kcol[0] != carry[0]:
        return (0, kcol, *cols)
    pre = len(carry[1])
    return (pre, np.concatenate([np.repeat(carry[0], pre), kcol]),
            *(np.concatenate([tail, c]) for tail, c in zip(carry[1:], cols)))


def _rolling_carry_blocks(events: "ray.data.Dataset", k: int, key: str,
                          ts_col: str, id_col: str, val_col: str, block_roll):
    """Shared plumbing of the rolling-window family (rolling_mean /
    rolling_stats): NULL filter + integer-cents quantization, ONE sort
    on (key, ts, id), then a ``blocktasks.carry_scan`` whose summaries
    are the last user's final <= k cents values, folded on the driver
    into per-boundary carries (<= k ints per block, never rows).
    Returns the ``block_roll(table, carry)`` output refs, or None on
    empty input."""
    if k < 1:
        raise ValueError(f"k must be >= 1: {k}")
    import pyarrow as pa

    def prep(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # NULL values are excluded from the window (the twins filter
        # value IS NOT NULL) — a NaN would otherwise poison the int cast
        t = t.filter(pc.is_valid(t[val_col]))
        us = pc.cast(pc.cast(t[ts_col], pa.timestamp("us")), pa.int64())
        cents = pc.cast(pc.round(pc.multiply(
            pc.cast(t[val_col], pa.float64()), 100.0),
            ndigits=0, round_mode="half_to_even"), pa.int64())
        return pa.table({key: t[key], id_col: t[id_col], "_us": us,
                         "_c": cents})

    srt = (events.map_batches(prep, batch_format="pyarrow")
           .sort([key, "_us", id_col]).materialize())
    refs = srt.to_arrow_refs()
    if not refs:
        return None

    def tail_summary(t):
        kcol = t[key].to_numpy(zero_copy_only=False)
        c = t["_c"].to_numpy(zero_copy_only=False)
        last = kcol[-1]
        m = np.flatnonzero(kcol == last)
        return (last, c[m[-k:]].astype(np.int64))

    def step(run, s):
        if run is not None and s[0] == run[0] and len(s[1]) < k:
            # a short all-one-user block extends the running tail
            return s[0], np.concatenate([run[1], s[1]])[-k:]
        return s

    return carry_scan(refs, tail_summary, step, block_roll)


def rolling_mean(events: "ray.data.Dataset", k: int = 3,
                 key: str = "user_id", ts_col: str = "ts",
                 id_col: str = "event_id",
                 val_col: str = "value") -> "ray.data.Dataset":
    """Per-row rolling mean of the last ``k`` values (current row
    included) within ``key`` in (``ts``, ``id_col``) order — SQL
    ``avg() OVER (... ROWS BETWEEN k-1 PRECEDING AND CURRENT ROW)``,
    the online-feature primitive.  Values quantize to integer cents
    (round_even) so window sums are exact; the mean is one
    ``sum::DOUBLE / count`` division with the twin's op order.

    Scale shape (the event_gaps carry pattern, widened to k rows): ONE
    sort on (key, ts, id); zero-CPU per-block summaries return the last
    user's final <= k cents values; the driver folds them left-to-right
    into per-boundary carries (<= k ints per block, never rows); each
    block then computes its windows vectorized with the carry prepended
    for its first user only."""

    def block_roll(t, carry) -> pd.DataFrame:
        df = t.to_pandas()
        if not len(df):
            return pd.DataFrame({key: pd.Series(dtype=np.int64),
                                 id_col: pd.Series(dtype=np.int64),
                                 "rolling_mean_cents": pd.Series(dtype=np.float64)})
        pre, kcol, c = _with_carry(df[key].to_numpy(), carry,
                                   df["_c"].to_numpy(dtype=np.int64))
        s = pd.Series(c)
        win = s.groupby(pd.Series(kcol)).rolling(k, min_periods=1)
        sums_ = win.sum().reset_index(drop=True).to_numpy()
        cnts = win.count().reset_index(drop=True).to_numpy()
        mean = sums_[pre:] / cnts[pre:]
        return pd.DataFrame({key: df[key],
                             id_col: df[id_col],
                             "rolling_mean_cents": mean})

    out = _rolling_carry_blocks(events, k, key, ts_col, id_col, val_col,
                                block_roll)
    if out is None:
        return ray.data.from_pandas(pd.DataFrame(
            columns=[key, id_col, "rolling_mean_cents"]))
    return ray.data.from_pandas_refs(out)


def rolling_stats(events: "ray.data.Dataset", k: int = 5,
                  key: str = "user_id", ts_col: str = "ts",
                  id_col: str = "event_id",
                  val_col: str = "value") -> "ray.data.Dataset":
    """Per-row rolling SAMPLE VARIANCE and z-score over the last ``k``
    values within ``key`` in (``ts``, ``id_col``) order — the online
    anomaly-detection features.  Windows with fewer than 2 samples are
    dropped (sample variance undefined; the twin QUALIFYs them away).
    Returns (key, id, n_win, rolling_var_cents2, z_cents): variance from
    the window's exact integer (Σ, Σ²) via ``(nΣx²-Σx²)/(n(n-1))``,
    z = (x - Σ/n) with identical float64 op order to the SQL twin (kept
    un-normalized by sigma so zero-variance windows stay well-defined;
    callers divide by sqrt(var) where var > 0).

    Same scale shape as :func:`rolling_mean` (shared
    ``_rolling_carry_blocks`` plumbing)."""

    def block_roll(t, carry) -> pd.DataFrame:
        df = t.to_pandas()
        empty = pd.DataFrame({key: pd.Series(dtype=np.int64),
                              id_col: pd.Series(dtype=np.int64),
                              "n_win": pd.Series(dtype=np.int64),
                              "rolling_var_cents2": pd.Series(dtype=np.float64),
                              "z_cents": pd.Series(dtype=np.float64)})
        if not len(df):
            return empty
        pre, kcol, c = _with_carry(df[key].to_numpy(), carry,
                                   df["_c"].to_numpy(dtype=np.int64))
        s = pd.Series(c)
        sq = pd.Series(c * c)
        g = pd.Series(kcol)
        win = s.groupby(g).rolling(k, min_periods=1)
        win2 = sq.groupby(g).rolling(k, min_periods=1)
        sums_ = win.sum().reset_index(drop=True).to_numpy()[pre:]
        sumsq = win2.sum().reset_index(drop=True).to_numpy()[pre:]
        cnts = win.count().reset_index(drop=True).to_numpy()[pre:]
        keep = cnts > 1
        n = cnts[keep]
        sx = sums_[keep]
        sxx = sumsq[keep]
        var = (n * sxx - sx * sx) / (n * (n - 1))
        x = c[pre:][keep].astype(np.float64)
        z = x - sx / n
        return pd.DataFrame({key: df[key].to_numpy()[keep],
                             id_col: df[id_col].to_numpy()[keep],
                             "n_win": n.astype(np.int64),
                             "rolling_var_cents2": var,
                             "z_cents": z})

    out = _rolling_carry_blocks(events, k, key, ts_col, id_col, val_col,
                                block_roll)
    if out is None:
        return ray.data.from_pandas(pd.DataFrame(
            columns=[key, id_col, "n_win", "rolling_var_cents2", "z_cents"]))
    return ray.data.from_pandas_refs(out)


def growth_accounting(events: "ray.data.Dataset", key: str = "user_id",
                      ts_col: str = "ts") -> "ray.data.Dataset":
    """Daily growth accounting: new distinct ``key``s per day plus the
    cumulative distinct count — the "distinct over time" pattern that a
    naive engine computes with one COUNT DISTINCT per day (quadratic).

    Exactly-distributable shape: (1) first-seen day per key via one
    grouped MIN (the shuffle carries one (key, day) row per key per
    block); (2) per-day new-key counts via one grouped SUM over the
    first-seen rows; (3) the running total over the per-day rows.  Step
    3's input is bounded by the CALENDAR (one row per day), not by the
    data, so a driver-side vectorized cumsum is the correct scale shape
    even at 10^12 events."""
    from .groupagg import grouped_agg, grouped_count

    def first_seen(t):
        import pyarrow as pa
        import pyarrow.compute as pc

        return pa.table({
            key: t[key],
            "bucket": pc.floor_temporal(
                pc.cast(t[ts_col], pa.timestamp("us")), unit="day")})

    firsts = grouped_agg(
        events.map_batches(first_seen, batch_format="pyarrow"),
        [key], {"bucket": "min"})

    daily = grouped_count(firsts, ["bucket"], name="new_users").to_pandas()
    daily = daily.sort_values("bucket").reset_index(drop=True)
    daily["cum_users"] = daily["new_users"].cumsum().astype(np.int64)
    return ray.data.from_pandas(daily)


def with_lag(events: "ray.data.Dataset", n: int = 1,
             key: str = "user_id", ts_col: str = "ts",
             id_col: str = "event_id", val_col: str = "value",
             how: str = "lag") -> "ray.data.Dataset":
    """Per-row ``lag``/``lead`` of ``val_col`` by ``n`` rows within
    ``key`` in (``ts``, ``id_col``) order — SQL ``lag(val, n) OVER
    (PARTITION BY key ORDER BY ts, id)`` (``lead`` for ``how='lead'``).
    Rows with no nth neighbour get NULL, exactly the window-function
    contract.

    Scale shape (the rolling-family carry pattern, direction-agnostic):
    ONE sort on (key, ts, id); zero-CPU per-block edge summaries return
    the boundary key's first/last <= n values; the driver folds them
    into per-boundary carries (<= n scalars per block, never rows —
    lag folds left-to-right over block tails, lead right-to-left over
    block heads); each block then shifts vectorized with its carry
    spliced onto the boundary key only."""
    if how not in ("lag", "lead"):
        raise ValueError(f"how must be 'lag' or 'lead', got {how!r}")
    if n < 1:
        raise ValueError(f"n must be >= 1: {n}")

    out_col = f"{how}_{val_col}"

    def prep(t: "pa.Table") -> "pa.Table":
        return t.select([key, ts_col, id_col, val_col])

    srt = (events.map_batches(prep, batch_format="pyarrow")
           .sort([key, ts_col, id_col]).materialize())
    refs = srt.to_arrow_refs()
    if not refs:
        return ray.data.from_pandas(
            pd.DataFrame(columns=[key, id_col, out_col]))

    def edge_summary(t):
        # the boundary key's <= n values at the block's far edge in scan
        # order: the last key's tail for lag, the first key's head for lead
        kcol = t[key].to_numpy(zero_copy_only=False)
        v = t[val_col].to_numpy(zero_copy_only=False)
        if how == "lag":
            return kcol[-1], v[np.flatnonzero(kcol == kcol[-1])[-n:]]
        return kcol[0], v[np.flatnonzero(kcol == kcol[0])[:n]]

    def step(run, s):
        # under global sort contiguity, a repeat of the run's key forces
        # the whole block to be that key, so short edges EXTEND the run
        if run is None or s[0] != run[0] or len(s[1]) >= n:
            return s
        if how == "lag":
            return s[0], np.concatenate([run[1], s[1]])[-n:]
        return s[0], np.concatenate([s[1], run[1]])[:n]

    def block_shift(t, carry) -> pd.DataFrame:
        df = t.to_pandas()
        out = df[[key, id_col]].copy()
        if not len(df):
            out[out_col] = pd.Series(dtype=np.float64)
            return out
        kcol = df[key].to_numpy()
        v = df[val_col].to_numpy()
        if how == "lag":
            pre, kcol, v = _with_carry(kcol, carry, v)
            sh = (pd.Series(v).groupby(pd.Series(kcol)).shift(n)
                  .to_numpy()[pre:])
        else:
            if carry is not None and kcol[-1] == carry[0]:
                post = len(carry[1])
                kcol = np.concatenate([kcol, np.repeat(carry[0], post)])
                v = np.concatenate([v, carry[1]])
            sh = (pd.Series(v).groupby(pd.Series(kcol)).shift(-n)
                  .to_numpy()[:len(df)])
        out[out_col] = sh
        return out

    if how == "lag":
        return ray.data.from_pandas_refs(
            carry_scan(refs, edge_summary, step, block_shift))
    # lead folds right to left: the same scan over the reversed blocks
    return ray.data.from_pandas_refs(
        carry_scan(refs[::-1], edge_summary, step, block_shift)[::-1])


def first_last_value(events: "ray.data.Dataset", key: str = "user_id",
                     ts_col: str = "ts", id_col: str = "event_id",
                     val_col: str = "value",
                     broadcast_max: int = 1_000_000) -> "ray.data.Dataset":
    """SQL ``first_value(val)`` / ``last_value(val)`` over
    ``(PARTITION BY key ORDER BY ts, id)`` with the full-partition frame
    (``ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING``) —
    every row annotated with its group's first and last value.

    Scale shape: no global sort — each group's first/last ROW comes from
    ``stats.grouped_argmax`` (shuffle bounded by groups x blocks, never
    rows), then streams back onto the events.  When the group map fits a
    broadcast (<= ``broadcast_max`` groups) the attach is a ``ray.put``
    merge per batch and the events never move; above that it degrades to
    one distributed hash join.  Output: (key, id, val, first_<val>,
    last_<val>).

    Assumes ``ts_col`` is non-null (the events contract here): NULL-ts
    rows are excluded from the first/last choice (SQL NULLS LAST would
    instead let one be the frame's last row)."""
    from .stats import grouped_argmax

    first = grouped_argmax(events, key, ts_col, value_cols=[val_col],
                           tiebreak=id_col, how="min")
    last = grouped_argmax(events, key, ts_col, value_cols=[val_col],
                          tiebreak=id_col, how="max")

    def trim(name):
        def f(t):
            return t.select([key, val_col]).rename_columns([key, name])
        return f

    fds = first.map_batches(trim(f"first_{val_col}"),
                            batch_format="pyarrow")
    lds = last.map_batches(trim(f"last_{val_col}"),
                           batch_format="pyarrow")

    base_cols = [key, id_col, val_col]

    out = events.map_batches(lambda t: t.select(base_cols),
                             batch_format="pyarrow")
    from .relational import broadcast_join, hash_join

    for side in (fds, lds):
        side = side.materialize()
        if side.count() <= broadcast_max:
            out = broadcast_join(out, side, key, key, how="left")
        else:
            out = hash_join(out, side, key, key, how="left")
    return out


def rolling_time_sum(events: "ray.data.Dataset", interval_us: int,
                     key: str = "user_id", ts_col: str = "ts",
                     id_col: str = "event_id",
                     val_col: str = "value") -> "ray.data.Dataset":
    """Per-event sum of ``val`` over the trailing TIME window
    ``[ts - interval, ts]`` within ``key`` — SQL ``sum() OVER
    (PARTITION BY key ORDER BY ts RANGE BETWEEN <interval> PRECEDING AND
    CURRENT ROW)``, the time-decayed exposure / rate-limit feature.
    Integer cents, exact; RANGE peer semantics hold (all events sharing
    a timestamp see the same window, including each other).

    Contract edge: an event whose value is NULL at a timestamp where NO
    non-null peer exists gets ``win_c`` NULL (its (key, ts) never enters
    the totals) — SQL would instead sum the preceding interval; filter
    such rows upstream if that distinction matters.

    Scale shape: cents first reduce to per-(key, ts) TOTALS (bounded
    partial shuffle, and the reduction is what makes RANGE tie semantics
    exact across block splits); the totals sort once on (key, ts); each
    block computes segment prefix-sums + a searchsorted window start,
    with a window-bounded boundary carry (the last key's (ts, total)
    pairs within ``interval`` of the block edge — bounded by window
    density, never block size).  Events then stream through a composite
    -key join against the (key, ts) window sums."""
    import pyarrow as pa

    def prep(t: "pa.Table") -> "pd.DataFrame":
        import pyarrow.compute as pc

        tt = t.filter(pc.is_valid(t[val_col]))
        us = pc.cast(pc.cast(tt[ts_col], pa.timestamp("us")), pa.int64())
        cents = pc.cast(pc.round(pc.multiply(
            pc.cast(tt[val_col], pa.float64()), 100.0),
            ndigits=0, round_mode="half_to_even"), pa.int64())
        return pd.DataFrame({key: tt[key].to_numpy(zero_copy_only=False),
                             "_us": us.to_numpy(zero_copy_only=False),
                             "_c": cents.to_numpy(zero_copy_only=False)})

    from .groupagg import grouped_sum

    totals = grouped_sum(events.map_batches(prep, batch_format="pyarrow"),
                         [key, "_us"], ["_c"])
    srt = totals.sort([key, "_us"]).materialize()
    refs = srt.to_arrow_refs()

    if not refs:
        return ray.data.from_pandas(pd.DataFrame(
            {key: pd.Series(dtype=np.int64),
             id_col: pd.Series(dtype=np.int64),
             "win_c": pd.Series(dtype=np.int64)}))

    def tail_summary(t):
        kcol = t[key].to_numpy(zero_copy_only=False)
        us = t["_us"].to_numpy(zero_copy_only=False)
        c = t["_c"].to_numpy(zero_copy_only=False)
        last = kcol[-1]
        m = np.flatnonzero(kcol == last)
        keepm = m[us[m] >= us[-1] - interval_us]
        return (last, us[keepm].astype(np.int64), c[keepm].astype(np.int64),
                int(us[-1]))

    def step(run, s):
        # run = (key, ts, cents) of the last key's totals within the
        # window of the scan's edge
        lk, tss, cs, last_ts = s
        if run is not None and run[0] == lk:
            tss = np.concatenate([run[1], tss])
            cs = np.concatenate([run[2], cs])
        keep = tss >= last_ts - interval_us
        return lk, tss[keep], cs[keep]

    def block_win(t, carry) -> pd.DataFrame:
        df = t.to_pandas()
        if not len(df):
            return pd.DataFrame({key: pd.Series(dtype=np.int64),
                                 "_us": pd.Series(dtype=np.int64),
                                 "win_c": pd.Series(dtype=np.int64)})
        pre, kcol, us, c = _with_carry(df[key].to_numpy(), carry,
                                       df["_us"].to_numpy(dtype=np.int64),
                                       df["_c"].to_numpy(dtype=np.int64))
        win = np.empty(len(us), dtype=np.int64)
        starts = np.flatnonzero(np.concatenate(
            [[True], kcol[1:] != kcol[:-1]]))
        bounds = np.append(starts, len(us))
        for a, b in zip(bounds[:-1], bounds[1:]):
            seg_us, seg_c = us[a:b], c[a:b]
            cum = np.concatenate([[0], np.cumsum(seg_c)])
            lo = np.searchsorted(seg_us, seg_us - interval_us, side="left")
            win[a:b] = cum[np.arange(1, b - a + 1)] - cum[lo]
        return pd.DataFrame({key: kcol[pre:], "_us": us[pre:],
                             "win_c": win[pre:]})

    winsums = ray.data.from_pandas_refs(
        carry_scan(refs, tail_summary, step, block_win))

    def ev_slim(t: "pa.Table") -> "pd.DataFrame":
        import pyarrow.compute as pc

        us = pc.cast(pc.cast(t[ts_col], pa.timestamp("us")), pa.int64())
        return pd.DataFrame({id_col: t[id_col].to_numpy(zero_copy_only=False),
                             key: t[key].to_numpy(zero_copy_only=False),
                             "_us": us.to_numpy(zero_copy_only=False)})

    from .relational import hash_join

    slim = events.map_batches(ev_slim, batch_format="pyarrow")
    joined = hash_join(slim, winsums, [key, "_us"], [key, "_us"], how="left")

    return joined.map_batches(lambda t: t.select([id_col, key, "win_c"]),
                              batch_format="pyarrow")



def ewma(events: "ray.data.Dataset", alpha: float = 0.2,
         key: str = "user_id", ts_col: str = "ts",
         id_col: str = "event_id",
         val_col: str = "value") -> "ray.data.Dataset":
    """Per-row exponentially weighted moving average within ``key`` in
    (``ts``, ``id``) order: ``e_j = alpha*x_j + (1-alpha)*e_{j-1}`` with
    ``e_1 = x_1`` (pandas ``ewm(adjust=False, ignore_na=True)`` — NaN
    gaps do NOT inflate the decay) — the recency-weighted online
    feature.

    The recurrence is order-dependent but LINEAR, so blocks compose as a
    distributed scan: because ``alpha + b = 1``, a seeded segment is
    exactly a carried segment with carry ``x_1``, so the true value at
    valid index ``j`` is ``L_j + b^j * (c - x_1)`` where ``L`` is the
    block-local seeded scan.  ONE sort on (key, ts, id); zero-CPU block
    summaries (last key's seeded tail value, first valid sample, decay
    b^m) fold on the driver into one scalar carry per boundary; each
    block adjusts its first key segment vectorized.  NaN/NULL values
    carry the state through (the row reads the prior state; leading
    NaNs with no carry read NaN).

    Float note: the composed op order differs from the sequential
    recurrence, so parity with pandas is ~1e-12 relative, not bitwise —
    tested against pandas, not a SQL hash twin (rows-only by nature)."""
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0, 1): {alpha}")
    b = 1.0 - alpha
    import pyarrow as pa

    def prep(t: "pa.Table") -> "pa.Table":
        import pyarrow.compute as pc

        us = pc.cast(pc.cast(t[ts_col], pa.timestamp("us")), pa.int64())
        return pa.table({key: t[key], id_col: t[id_col], "_us": us,
                         "_v": pc.cast(t[val_col], pa.float64())})

    srt = (events.map_batches(prep, batch_format="pyarrow")
           .sort([key, "_us", id_col]).materialize())
    refs = srt.to_arrow_refs()
    if not refs:
        return ray.data.from_pandas(pd.DataFrame(
            {key: pd.Series(dtype=np.int64),
             id_col: pd.Series(dtype=np.int64),
             "ewma": pd.Series(dtype=np.float64)}))

    def _seg_scan(v: np.ndarray):
        """One key segment, seeded (no carry): per-row state (the last
        valid sample's scan value; NaN before any valid), plus
        (m_valid, L_last, x_first_valid, j_index per row)."""
        n = len(v)
        ok = ~np.isnan(v)
        vv = v[ok]
        m = len(vv)
        j_of_row = np.cumsum(ok)          # valid count up to row (1-based)
        if m == 0:
            return np.full(n, np.nan), 0, np.nan, np.nan, j_of_row
        powers = b ** np.arange(m, dtype=np.float64)
        # L_j = b^(j-1) x_1 + alpha * sum_{t=2..j} b^(j-t) x_t  (1-based)
        contrib = vv / np.maximum(powers, 1e-300)
        contrib = contrib * alpha
        contrib[0] = vv[0]                # seed: full weight on x_1
        L = powers * np.cumsum(contrib)
        out = np.full(n, np.nan)
        has = j_of_row >= 1
        out[has] = L[j_of_row[has] - 1]
        return out, m, float(L[m - 1]), float(vv[0]), j_of_row

    def summary(t):
        kcol = t[key].to_numpy(zero_copy_only=False)
        v = t["_v"].to_numpy(zero_copy_only=False)
        fk, lk = kcol[0], kcol[-1]
        seg = np.flatnonzero(kcol == lk)
        _, m, L_last, x1, _ = _seg_scan(v[seg])
        return fk, lk, m, L_last, x1, float(b ** m)

    def step(run, s):
        # run = (key, state after its last valid sample, None before one)
        run_key, run_c = run if run is not None else (None, None)
        fk, lk, m, L_last, x1, decay = s
        if m == 0:
            # key started, no valid yet; or the run's key flows through
            return run if run_key == lk else (lk, None)
        if run_key == lk and fk == lk and run_c is not None:
            return lk, L_last + decay * (run_c - x1)
        return lk, L_last                   # fresh (or carry was None)

    def block_ewma(t, carry) -> pd.DataFrame:
        df = t.to_pandas()
        if not len(df):
            return pd.DataFrame({key: pd.Series(dtype=np.int64),
                                 id_col: pd.Series(dtype=np.int64),
                                 "ewma": pd.Series(dtype=np.float64)})
        kcol = df[key].to_numpy()
        v = df["_v"].to_numpy(dtype=np.float64)
        out = np.full(len(v), np.nan)
        starts = np.flatnonzero(np.concatenate([[True], kcol[1:] != kcol[:-1]]))
        bounds = np.append(starts, len(v))
        for a0, b0 in zip(bounds[:-1], bounds[1:]):
            seg_out, m, L_last, x1, j = _seg_scan(v[a0:b0])
            if a0 == 0 and carry is not None and kcol[0] == carry[0] \
                    and carry[1] is not None:
                c = carry[1]
                if m:
                    has = j >= 1
                    seg_out[has] = seg_out[has] + (b ** j[has]) * (c - x1)
                # rows before any valid sample read the carried state
                seg_out[np.isnan(seg_out)] = c
            out[a0:b0] = seg_out
        return pd.DataFrame({key: df[key], id_col: df[id_col], "ewma": out})

    return ray.data.from_pandas_refs(carry_scan(refs, summary, step, block_ewma))
