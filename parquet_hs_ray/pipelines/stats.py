"""Distributed exact order statistics.

``grouped_quantiles`` computes EXACT per-group discrete quantiles the
scale-correct way: the shuffle carries a value-count histogram (one row
per distinct (group, value) per block, merged by ``groupagg``), never the
raw rows; the final selection walks each group's merged histogram with a
cumulative-count ``searchsorted``.  Cost is bounded by the value domain's
distinct cardinality per group (documented assumption — metric columns
like price/latency are discretized to cents/ms; for truly continuous
domains switch the histogram to fixed-width bins and accept bin-width
error, the standard t-digest-style trade).

Quantile definition matches DuckDB's ``quantile_disc`` exactly: the
sorted element with 1-based rank ``ceil(q*n)`` — so the SQL twin hashes
bit-identical (values are selected, never interpolated: no float math).
"""

from __future__ import annotations

import operator
from typing import Sequence

import numpy as np
import pandas as pd
import ray.data

from .blocktasks import carry_scan


def _estimate_domain_size(n: int, d: int) -> float:
    """Distinct-domain estimate from a uniform ``n``-row sample showing
    ``d`` distinct values, inverting the coupon-collector expectation
    ``d = D * (1 - exp(-n/D))`` by bisection.  A sample with (almost) no
    collisions carries no upper-bound information -> +inf."""
    import math

    if d >= 0.98 * n:
        return float("inf")
    lo, hi = float(d), 1e15
    for _ in range(100):
        mid = (lo + hi) / 2
        if mid * (1.0 - math.exp(-n / mid)) < d:
            lo = mid
        else:
            hi = mid
    return lo


def grouped_quantiles(ds: "ray.data.Dataset", key: str, col: str,
                      qs: Sequence[float] = (0.5, 0.95),
                      id_col: str | None = None,
                      guard_sample: int = 65536,
                      max_distinct_estimate: float = 5_000_000,
                      max_hist_rows_per_group: int = 50_000_000):
    """Per ``key`` group: exact discrete quantiles of ``col`` at each q in
    ``qs``.  Output columns: key, p<q*100> for each q (p50, p95, ...).

    Cardinality guard (the r3 verdict's scale fix): the exact path's
    shuffle is bounded by the column's DISTINCT cardinality — fine for
    discretized metrics (cents, ms), unbounded for continuous floats at
    100 TB.  A cheap head sample (``guard_sample`` rows) estimates the
    value DOMAIN size from its collision rate (coupon-collector
    inversion — a raw distinct/sample ratio would misread bounded-but-
    large domains as continuous at small sample sizes); above
    ``max_distinct_estimate`` the call AUTO-ROUTES to the KMV sketch
    twin :func:`grouped_quantile_sketch` when ``id_col`` is given, else
    raises with that pointer.  The routed result keeps the SAME return
    type (Ray Dataset) and the SAME column names (``p50``, ``p95`` …)
    so the route is not a data-dependent API break — but routed values
    are KMV ESTIMATES (sketch error bounds are asserted <=5% in tests),
    not exact discrete quantiles; callers that must never get estimates
    should pass ``id_col=None`` and handle the ValueError.  The head sample is a heuristic gate — a column that is
    locally bounded in the head can still slip through, so the final
    per-group selection independently asserts its merged histogram
    stays under ``max_hist_rows_per_group`` rows (loud failure, not an
    OOM).  Set ``guard_sample=0`` to skip the sample pass."""
    qs = [float(q) for q in qs]
    names = [f"p{int(round(q * 100))}" for q in qs]

    if guard_sample:
        samp = ds.limit(int(guard_sample)).select_columns([col]).to_pandas()
        n_s = len(samp)
        if n_s >= 1024:
            est = _estimate_domain_size(n_s, int(samp[col].nunique()))
            if est > max_distinct_estimate:
                if id_col is not None:
                    import ray.data

                    sk = grouped_quantile_sketch(ds, key, col, id_col, qs)
                    sk = sk.rename(columns={f"{n}_est": n for n in names})
                    return ray.data.from_pandas(sk)
                raise ValueError(
                    f"grouped_quantiles: column {col!r} looks continuous "
                    f"(estimated domain {est:.3g} distinct values from a "
                    f"{n_s}-row sample); the exact value-count histogram "
                    "is unbounded on such domains — pass id_col= to "
                    "auto-route to the KMV sketch path "
                    "(grouped_quantile_sketch), or set guard_sample=0 if "
                    "the domain really is bounded")

    from .groupagg import grouped_count

    hist = grouped_count(ds, [key, col])

    def select(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) > max_hist_rows_per_group:
            raise ValueError(
                f"grouped_quantiles: merged histogram for one group has "
                f"{len(g)} distinct values (> {max_hist_rows_per_group}); "
                "the column is effectively continuous — use "
                "grouped_quantile_sketch")
        g = g.sort_values(col, kind="mergesort")
        cum = g["cnt"].to_numpy(dtype=np.int64).cumsum()
        n = int(cum[-1])
        vals = g[col].to_numpy()
        row = {key: [g[key].iloc[0]]}
        for q, name in zip(qs, names):
            rank = max(1, int(np.ceil(q * n)))  # 1-based, quantile_disc rule
            row[name] = [vals[np.searchsorted(cum, rank, side="left")]]
        return pd.DataFrame(row)

    # one histogram per group fits comfortably (distinct-value bounded);
    # group count is small relative to data so map_groups' per-group
    # overhead is not on the hot path
    return hist.groupby(key).map_groups(select, batch_format="pandas")


def category_balance(ds: "ray.data.Dataset", key: str,
                     cat_col: str) -> "ray.data.Dataset":
    """Per-``key`` distribution diagnostics over a categorical column:
    Shannon entropy (nats) and Gini impurity of the category shares —
    the class-balance / source-mix audit of a training corpus.  Output:
    (key, n, n_cats, entropy, gini).

    Float-exact twin discipline: category counts are exact integers from
    one ``grouped_count``; per-category terms use libm ``log`` via
    ``math.log`` (DuckDB's ln — the BM25 precedent; numpy's SIMD log can
    differ by 1 ulp) and accumulate in a DETERMINISTIC order (category
    asc) exactly as the twin's ``list_sum(list(x ORDER BY cat))``; gini
    is ``1 - Σ(c/n)²`` with the same op order."""
    import math

    from .groupagg import grouped_count

    counts = grouped_count(ds, [key, cat_col], name="_n")

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        # category-count-bounded per key; sorted accumulation order
        b = b.sort_values([key, cat_col], kind="mergesort")
        rows = []
        for kval, g in b.groupby(key, sort=True):
            c = g["_n"].to_numpy(dtype=np.int64)
            n = int(c.sum())
            ent = 0.0
            gini_acc = 0.0
            for ci in c:  # category-bounded loop, libm log per term
                p = int(ci) / n
                ent = ent + (-(p * math.log(p)))
                gini_acc = gini_acc + p * p
            rows.append((kval, n, len(c), ent, 1 - gini_acc))
        return pd.DataFrame(rows, columns=[key, "n", "n_cats",
                                           "entropy", "gini"]).astype(
            {"n": np.int64, "n_cats": np.int64})

    # the (key, cat) count table is category-bounded — one driver-side
    # vectorizable pass (the grouped_quantiles select precedent)
    return counts.groupby(key).map_groups(finish, batch_format="pandas")


def grouped_stddev(ds: "ray.data.Dataset", key: str, val_col: str) -> "ray.data.Dataset":
    """Per-group sample variance / stddev over integer cents
    (``round_even(v*100)``) via the decomposable (n, Σ, Σ²) sums —
    integer partials make the shuffle merge-order-independent; the
    finish ``(nΣx² - Σx²) / (n(n-1))`` and its sqrt run in float64 with
    the twin's exact op order.  Groups with n < 2 are dropped (sample
    variance undefined; both sides agree).  Output: (key, n, var_cents2,
    std_cents)."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch.dropna(subset=[val_col])
        x = np.round(b[val_col].to_numpy(dtype=np.float64) * 100.0).astype(np.int64)
        return pd.DataFrame({key: b[key].to_numpy(), "n": np.int64(1),
                             "sx": x, "sxx": x * x})

    from .groupagg import grouped_sum

    sums = grouped_sum(ds.map_batches(partial, batch_format="pandas"),
                       [key], ["n", "sx", "sxx"])

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        n = b["n"].to_numpy(dtype=np.float64)
        sx = b["sx"].to_numpy(dtype=np.float64)
        sxx = b["sxx"].to_numpy(dtype=np.float64)
        keep = n > 1
        var = ((n * sxx - sx * sx) / (n * (n - 1)))[keep]
        return pd.DataFrame({key: b[key].to_numpy()[keep],
                             "n": b["n"].to_numpy(dtype=np.int64)[keep],
                             "var_cents2": var,
                             "std_cents": np.sqrt(var)})

    return sums.map_batches(finish, batch_format="pandas")


def target_encode(ds: "ray.data.Dataset", key: str, val_col: str,
                  id_cols: Sequence[str] = ()) -> "ray.data.Dataset":
    """Leave-one-out target encoding (the ML categorical-feature prep):
    each row gets its group's mean target EXCLUDING itself —
    ``(Σ - own) / (n - 1)`` — plus the plain group mean, both over
    integer cents (``round_even(v*100)``, merge-order-independent sums)
    with single float64 divisions mirroring the twin's op order.  Rows
    whose group has n == 1 are dropped (LOO undefined; both sides agree),
    as are NULL targets.

    Scale shape: one (key -> Σcents, n) partial-agg (group-count-sized),
    broadcast via ray.put; the encode pass is a pure streaming map."""
    id_cols = list(id_cols)

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch.dropna(subset=[val_col])
        cents = np.round(b[val_col].to_numpy(dtype=np.float64)
                         * 100.0).astype(np.int64)
        return pd.DataFrame({key: b[key].to_numpy(), "sc": cents,
                             "n": np.int64(1)})

    from .groupagg import grouped_sum

    sums = grouped_sum(ds.map_batches(partial, batch_format="pandas"),
                       [key], ["sc", "n"]).to_pandas()
    # two plain dicts: Series.map(dict) runs on the C path, no per-row
    # Python lambda on the corpus-sized encode pass
    sc_map = dict(zip(sums[key], sums["sc"].astype(np.int64)))
    n_map = dict(zip(sums[key], sums["n"].astype(np.int64)))
    import ray as _ray

    ref = _ray.put((sc_map, n_map))

    def enc(batch: pd.DataFrame) -> pd.DataFrame:
        sc_m, n_m = _ray.get(ref)
        b = batch.dropna(subset=[val_col])
        cents = np.round(b[val_col].to_numpy(dtype=np.float64)
                         * 100.0).astype(np.int64)
        sc = b[key].map(sc_m).to_numpy(dtype=np.int64)
        n = b[key].map(n_m).to_numpy(dtype=np.int64)
        keep = n > 1
        out = pd.DataFrame({c: b[c].to_numpy()[keep]
                            for c in (id_cols or b.columns)})
        out["mean_cents"] = sc[keep].astype(np.float64) / n[keep]
        out["loo_mean_cents"] = ((sc[keep] - cents[keep]).astype(np.float64)
                                 / (n[keep] - 1))
        return out

    return ds.map_batches(enc, batch_format="pandas")


def grouped_corr(ds: "ray.data.Dataset", key: str, x_col: str, y_col: str,
                 x_scale: int = 100, y_scale: int = 1) -> "ray.data.Dataset":
    """Per-group Pearson correlation via the six decomposable sums
    (n, Σx, Σy, Σx², Σy², Σxy) over INTEGER-quantized values
    (``round_even(v * scale)``, the pivot_sum cents convention; scale=1
    passes integer columns through) — integer partials make the shuffle
    order-independent, so the result is bit-exact and SQL-twinnable
    (float partial sums would differ by merge order).  The final
    ``(nΣxy - ΣxΣy) / (sqrt(nΣx²-Σx²)·sqrt(nΣy²-Σy²))`` runs in float64
    with the same op order as the twin.  Zero-variance groups are
    dropped (both sides agree).  Rows with NULL in either column are
    excluded, matching SQL aggregate NULL semantics.

    Scale shape: textbook partial-agg — one six-sum row per (group,
    block) shuffles, never data rows.  Int64 partials hold to ~2^63;
    beyond that (10^14+ rows of 10^4-unit values) widen to per-block
    float partials and accept merge-order noise, or split the sum."""

    def q(v: pd.Series, scale: int) -> np.ndarray:
        a = v.to_numpy(dtype=np.float64)
        return (np.round(a * scale).astype(np.int64) if scale != 1
                else v.to_numpy(dtype=np.int64))

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch.dropna(subset=[x_col, y_col])
        x = q(b[x_col], x_scale)
        y = q(b[y_col], y_scale)
        return pd.DataFrame({key: b[key].to_numpy(), "n": np.int64(1),
                             "sx": x, "sy": y, "sxx": x * x, "syy": y * y,
                             "sxy": x * y})

    from .groupagg import grouped_sum

    sums = grouped_sum(ds.map_batches(partial, batch_format="pandas"),
                       [key], ["n", "sx", "sy", "sxx", "syy", "sxy"])

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        nf = b["n"].to_numpy(dtype=np.float64)
        sx = b["sx"].to_numpy(dtype=np.float64)
        sy = b["sy"].to_numpy(dtype=np.float64)
        varx = nf * b["sxx"].to_numpy(dtype=np.float64) - sx * sx
        vary = nf * b["syy"].to_numpy(dtype=np.float64) - sy * sy
        num = nf * b["sxy"].to_numpy(dtype=np.float64) - sx * sy
        keep = (varx > 0) & (vary > 0)
        return pd.DataFrame({
            key: b[key].to_numpy()[keep],
            "n": b["n"].to_numpy(dtype=np.int64)[keep],
            "corr": num[keep] / (np.sqrt(varx[keep]) * np.sqrt(vary[keep])),
        })

    return sums.map_batches(finish, batch_format="pandas")


def grouped_quantile_sketch(ds: "ray.data.Dataset", key: str, col: str,
                            id_col: str, qs: Sequence[float] = (0.5, 0.95),
                            k: int = 1024, seed: int = 17) -> "pd.DataFrame":
    """Approximate per-group quantiles from a BOTTOM-K (KMV) row sample —
    the mergeable-sketch twin of :func:`grouped_quantiles` for truly
    continuous / unbounded-cardinality domains where the exact path's
    value-count histogram assumption fails.  Each group keeps the ``k``
    rows with the smallest ``splitmix64(id ^ seed)`` — a uniform sample
    that is DETERMINISTIC, mergeable (union -> keep k smallest) and
    layout-independent (same result on any blocking, like the HLL
    sketch and unlike KLL/t-digest whose compactions are merge-order
    dependent).  Estimates use the ``quantile_disc`` rank rule on the
    sample; error is the O(1/sqrt(k)) sampling error.

    Scale shape: per-batch fragments carry (group, k smallest (hash,
    value) pairs) — bounded by k per group per block, never row-sized;
    fragments merge through sorted_block_aggregate (the inverted_index
    carry pattern: per-fragment bottom-k is lossless for the global
    bottom-k by the selection property).  Output is group-count-sized.
    No SQL oracle by nature (sketch estimate); accuracy and
    layout-independence are asserted in tests."""
    qs = [float(q) for q in qs]
    names = [f"p{int(round(q * 100))}_est" for q in qs]
    sd = np.uint64(seed)

    from ..functions import sketches as sk

    def frag_empty() -> pd.DataFrame:
        return pd.DataFrame({key: pd.Series([], dtype=object),
                             "hs": pd.Series([], dtype=object),
                             "vs": pd.Series([], dtype=object)})

    def segments(kcol: np.ndarray):
        starts = np.concatenate([[0], np.flatnonzero(kcol[1:] != kcol[:-1]) + 1])
        ends = np.concatenate([starts[1:], [len(kcol)]])
        return starts, ends

    def fragments(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.dropna(subset=[col])
        if not len(batch):
            return frag_empty()
        h = sk._splitmix64(batch[id_col].to_numpy(dtype=np.uint64) ^ sd)
        df = (pd.DataFrame({key: batch[key].to_numpy(),
                            "h": h,
                            "v": batch[col].to_numpy(dtype=np.float64)})
              .sort_values([key, "h"], kind="mergesort"))
        kc = df[key].to_numpy()
        hv = df["h"].to_numpy(dtype=np.uint64)
        vv = df["v"].to_numpy()
        starts, ends = segments(kc)
        return pd.DataFrame({
            key: kc[starts],
            "hs": pd.Series([hv[s:min(e, s + k)] for s, e in zip(starts, ends)],
                            dtype=object),
            "vs": pd.Series([vv[s:min(e, s + k)] for s, e in zip(starts, ends)],
                            dtype=object),
        })

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return frag_empty()
        df = df.sort_values(key, kind="mergesort")
        kc = df[key].to_numpy()
        starts, ends = segments(kc)
        hs_in = df["hs"].to_numpy()
        vs_in = df["vs"].to_numpy()
        hs_out, vs_out = [], []
        for s, e in zip(starts, ends):  # group-count-bounded, not row loop
            if e - s == 1:
                hs_out.append(np.asarray(hs_in[s], dtype=np.uint64))
                vs_out.append(np.asarray(vs_in[s], dtype=np.float64))
                continue
            hh = np.concatenate([np.asarray(x, dtype=np.uint64)
                                 for x in hs_in[s:e]])
            vv = np.concatenate([np.asarray(x, dtype=np.float64)
                                 for x in vs_in[s:e]])
            order = np.argsort(hh, kind="stable")[:k]
            hs_out.append(hh[order])
            vs_out.append(vv[order])
        return pd.DataFrame({key: kc[starts],
                             "hs": pd.Series(hs_out, dtype=object),
                             "vs": pd.Series(vs_out, dtype=object)})

    from .groupagg import sorted_block_aggregate

    agg = sorted_block_aggregate(
        ds.map_batches(fragments, batch_format="pandas"), [key],
        merge, merge).to_pandas()
    agg = merge(agg)  # group-count-sized: collapse any residual fragments
    rows: dict = {key: agg[key].to_numpy()}
    for name in names:
        rows[name] = np.empty(len(agg))
    for i, vs in enumerate(agg["vs"]):
        v = np.sort(np.asarray(vs, dtype=np.float64))
        for q, name in zip(qs, names):
            rows[name][i] = v[max(1, int(np.ceil(q * len(v)))) - 1]
    out = pd.DataFrame(rows).sort_values(key).reset_index(drop=True)
    return out


def percent_rank(ds: "ray.data.Dataset", col: str,
                 id_cols: Sequence[str] = ()) -> "ray.data.Dataset":
    """Global CDF / percent-rank normalization of ``col``: each row gets
    ``pr = (min_rank - 1) / (n - 1)`` with ties sharing their minimum
    rank — exactly SQL ``percent_rank() OVER (ORDER BY col)`` (single-row
    input yields 0.0, DuckDB's convention).  The feature-normalization
    primitive (rank transforms are robust to heavy tails where z-scores
    are not).  Null values are dropped, matching window NULL exclusion
    in the twin's WHERE clause.

    Scale shape: pass 1 builds a (value, count) histogram with
    ``grouped_count`` (distinct-value bounded, same documented
    assumption as grouped_quantiles); ranks come from one cumulative sum
    over the sorted histogram, broadcast via ray.put; pass 2 is a
    streaming vectorized searchsorted — no row ever reaches the driver."""
    return _score_values(
        ds, col, id_cols, "pr",
        lambda below, cum, n: below / (n - 1) if n > 1 else np.zeros(len(cum)))


def _score_values(ds: "ray.data.Dataset", col: str, id_cols: Sequence[str],
                  out_col: str, score) -> "ray.data.Dataset":
    """Shared body of :func:`percent_rank` and :func:`cume_dist`: score
    each distinct non-null ``col`` value as ``score(below, cum, n)`` from
    its value-count histogram (rows strictly below it, rows at or below
    it, non-null rows), then attach the score to every non-null row by
    a broadcast ``searchsorted``.  Output: ``id_cols`` (or every
    column), ``col`` and ``out_col``."""
    id_cols = list(id_cols)
    from .groupagg import grouped_count

    hist = grouped_count(ds, [col]).to_pandas()
    if col not in hist.columns or not len(hist):
        # zero non-null values: no rows survive (window NULL exclusion)
        return ray.data.from_pandas(
            pd.DataFrame(columns=[*id_cols, col, out_col]))
    hist = hist.sort_values(col)
    counts = hist["cnt"].to_numpy(dtype=np.int64)
    cum = counts.cumsum()
    ref = ray.put((hist[col].to_numpy(),
                   score(cum - counts, cum, int(cum[-1]))))

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        v, p = ray.get(ref)
        batch = batch.dropna(subset=[col])
        out = pd.DataFrame({c: batch[c] for c in (id_cols or batch.columns)})
        if id_cols and col not in out.columns:
            out[col] = batch[col]
        out[out_col] = p[np.searchsorted(v, batch[col].to_numpy())]
        return out

    return ds.map_batches(f, batch_format="pandas")


def iqr_outlier_filter(ds: "ray.data.Dataset", key: str, col: str,
                       mult: float = 1.5) -> "ray.data.Dataset":
    """Per-group robust outlier scrub (Tukey fences): keep rows with
    ``q1 - mult*(q3-q1) <= col <= q3 + mult*(q3-q1)`` where q1/q3 are the
    EXACT discrete quartiles of the group (``quantile_disc`` rule, no
    interpolation).  The fence arithmetic is two IEEE double ops in fixed
    order — written identically in the SQL twin, so the filter decision
    is bit-exact on both sides.  Null values never compare true and are
    dropped, matching SQL NULL semantics.

    Scale shape: pass 1 is :func:`grouped_quantiles` (the shuffle carries
    value-count histograms, group-count-sized result); the fence table is
    broadcast once via ray.put; pass 2 is a pure streaming filter — no
    second shuffle, nothing row-sized reaches the driver."""
    m = float(mult)
    qdf = grouped_quantiles(ds, key, col, (0.25, 0.75),
                            guard_sample=0).to_pandas()
    lo = {}
    hi = {}
    for r in qdf.itertuples(index=False):
        q1, q3 = getattr(r, "p25"), getattr(r, "p75")
        lo[getattr(r, key)] = q1 - m * (q3 - q1)
        hi[getattr(r, key)] = q3 + m * (q3 - q1)
    import ray as _ray

    fences = _ray.put((lo, hi))

    def filt(batch: pd.DataFrame) -> pd.DataFrame:
        lo_m, hi_m = _ray.get(fences)
        v = batch[col].to_numpy(dtype=np.float64)
        lov = batch[key].map(lo_m).to_numpy(dtype=np.float64)
        hiv = batch[key].map(hi_m).to_numpy(dtype=np.float64)
        return batch[(v >= lov) & (v <= hiv)]

    return ds.map_batches(filt, batch_format="pandas")


def grouped_histogram(ds: "ray.data.Dataset", key: str, col: str,
                      width: float) -> "ray.data.Dataset":
    """Fixed-width histogram of ``col`` per ``key`` group: one output row
    per non-empty (key, bin) with ``bin = floor(col / width)`` and the
    row count ``n`` — the data-profiling primitive (value distributions
    over 100 TB without moving values).

    Scale shape: binning is a vectorized per-block groupby; the shuffle
    carries one (key, bin, partial-count) row per block — bounded by the
    bin count, independent of row count.  The division-then-floor order
    matches SQL ``floor(col / width)`` bit-for-bit (same IEEE ops)."""
    w = float(width)

    def binned(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.dropna(subset=[col])  # null values have no bin
        b = np.floor(batch[col].to_numpy(dtype=np.float64) / w)
        return pd.DataFrame({key: batch[key], "bin": b.astype(np.int64)})

    from .groupagg import grouped_count

    return grouped_count(ds.map_batches(binned, batch_format="pandas"),
                         [key, "bin"], name="n")


def grouped_distinct_count(ds: "ray.data.Dataset", key: str,
                           col: str) -> "ray.data.Dataset":
    """Exact ``count(DISTINCT col)`` per ``key`` (e.g. distinct users per
    event type), fully distributed.

    Scale shape: two-level reduction — blocks emit their DISTINCT
    (key, col) pairs (the only shuffle; cardinality-bounded, not
    row-bounded), ``grouped_agg`` merges them into globally-distinct
    pairs, then a second, tiny ``grouped_count`` counts them per key.
    Nulls are not counted (SQL COUNT(DISTINCT) semantics)."""

    def pairs(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch[[key, col]].dropna(subset=[col]).drop_duplicates()
        g = g.copy()
        g["one"] = np.int64(1)
        return g

    from .groupagg import grouped_agg, grouped_count

    distinct = grouped_agg(ds.map_batches(pairs, batch_format="pandas"),
                           [key, col], {"one": "min"})
    return grouped_count(distinct, [key], name="ndv")


def top_k_global(ds: "ray.data.Dataset", score_col: str, k: int,
                 tiebreak: str, columns: Sequence[str] | None = None
                 ) -> pd.DataFrame:
    """Global top-``k`` rows by ``score_col`` DESC, ties broken by
    ``tiebreak`` ASC (deterministic) — the best-documents selection step.

    Scale shape: each block reduces to its local top-k (argpartition —
    O(rows) per block, no global sort), the driver merges the k·n_blocks
    survivors.  At 100 TB with k≤10⁴ the driver side is k·blocks rows of
    (score, tiebreak, selected columns), megabytes."""
    cols = list(columns) if columns is not None else None

    def local(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch if cols is None else batch[cols]
        if len(b) <= k:
            return b
        # composite (-score, tiebreak) order locally too: a plain score
        # argpartition could drop the tiebreak-preferred row of a tie
        # straddling the k-th place
        idx = np.lexsort((b[tiebreak].to_numpy(), -b[score_col].to_numpy()))[:k]
        return b.iloc[np.sort(idx)]

    parts = [b for b in ds.map_batches(local, batch_format="pandas")
             .iter_batches(batch_format="pandas")]
    merged = (pd.concat(parts, ignore_index=True) if parts
              else pd.DataFrame(columns=cols or []))
    return (merged.sort_values([score_col, tiebreak],
                               ascending=[False, True], kind="mergesort")
            .head(k).reset_index(drop=True))


def column_profile(ds: "ray.data.Dataset",
                   cols: Sequence[str]) -> pd.DataFrame:
    """Per-column table profile: row count, null count, min, max, exact
    distinct count — the schema-audit pass before a long job.  Output:
    one row per column (column, n, n_null, vmin, vmax, ndv), numeric
    columns only (min/max are emitted as float64, NaN — NULL — for a
    column without a non-null value, as SQL ``min``/``max``).

    Scale shape: count/null/min/max are per-block partials merged on the
    driver (one tiny row per block); ndv reuses the distinct-pair
    reduction of ``grouped_distinct_count`` per column — the only
    shuffle, bounded by each column's distinct cardinality."""
    cols = list(cols)

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for c in cols:
            v = batch[c]
            nn = int(v.isna().sum())
            vv = v.dropna()
            rows.append({"column": c, "n": len(v), "n_null": nn,
                         "vmin": float(vv.min()) if len(vv) else np.nan,
                         "vmax": float(vv.max()) if len(vv) else np.nan})
        return pd.DataFrame(rows)

    parts = pd.concat(
        list(ds.map_batches(partial, batch_format="pandas")
             .iter_batches(batch_format="pandas")), ignore_index=True)
    agg = parts.groupby("column", sort=False).agg(
        n=("n", "sum"), n_null=("n_null", "sum"),
        vmin=("vmin", "min"), vmax=("vmax", "max")).reset_index()

    # exact ndv per column: one distinct-pair reduction over a stacked
    # (column, value) stream — a single shuffle for all profiled columns
    def pairs(batch: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for c in cols:
            vv = batch[c].dropna().drop_duplicates()
            frames.append(pd.DataFrame({
                "column": c, "value": vv.to_numpy(dtype=np.float64),
                "one": np.int64(1)}))
        return pd.concat(frames, ignore_index=True)

    from .groupagg import grouped_agg, grouped_count

    distinct = grouped_agg(ds.map_batches(pairs, batch_format="pandas"),
                           ["column", "value"], {"one": "min"})
    ndv = grouped_count(distinct, ["column"], name="ndv").to_pandas()
    # with no non-null value anywhere the count is empty, and Ray's
    # to_pandas of an empty dataset has no columns
    counts = dict(zip(ndv["column"], ndv["ndv"])) if len(ndv) else {}
    agg["ndv"] = agg["column"].map(counts).fillna(0).astype(np.int64)
    for c in ("n", "n_null"):
        agg[c] = agg[c].astype(np.int64)
    return agg.sort_values("column").reset_index(drop=True)


def pivot_sum(ds: "ray.data.Dataset", key: str, piv: str, val: str,
              categories: Sequence[str]) -> "ray.data.Dataset":
    """Pivot ``piv`` into one summed column per category: one output row
    per ``key`` with ``<cat>_cents`` = the integer-cents sum of ``val``
    where ``piv == cat`` — the long-to-wide reshape (per-user activity
    matrix).  ``categories`` is explicit: at scale the caller discovers
    it with a distinct pass (or knows the vocabulary); unknown categories
    are ignored, absent ones sum to 0.

    Values accumulate as round-half-even integer cents so the sums are
    associative and hash-exact against the SQL ``CASE WHEN`` twin.

    Scale shape: one vectorized pivot per block (one partial row per key
    per block — the shuffle carries category sums, never events), merged
    by ``grouped_sum``."""
    cats = [str(c) for c in categories]
    out_cols = [f"{c}_cents" for c in cats]

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(batch[val].to_numpy(dtype=np.float64) * 100.0
                         ).astype(np.int64)
        p = pd.DataFrame({key: batch[key], "_c": batch[piv], "_v": cents})
        w = (p.pivot_table(index=key, columns="_c", values="_v",
                           aggfunc="sum", fill_value=0)
             .reindex(columns=cats, fill_value=0))
        w.columns = out_cols
        return w.reset_index().astype({c: np.int64 for c in out_cols})

    from .groupagg import grouped_sum

    return grouped_sum(ds.map_batches(partial, batch_format="pandas"),
                       [key], out_cols)


def ntile_bucket(ds: "ray.data.Dataset", col: str, n: int,
                 id_col: str) -> "ray.data.Dataset":
    """Equi-depth bucketing: assign every row its 1-based SQL ``NTILE(n)``
    bucket in (``col``, ``id_col``) order — quantile binning for feature
    discretization with exact SQL semantics (with T total rows, the
    first ``T % n`` buckets hold ``T // n + 1`` rows, the rest ``T // n``).

    Scale shape: one Ray sort on (col, id); global positions come from
    zero-CPU per-block row counts folded into offsets on the driver
    (#blocks ints); the bucket is pure arithmetic on the position — no
    second data pass, no value histogram needed."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")

    srt = (ds.map_batches(lambda t: t.select([id_col, col]),
                          batch_format="pyarrow")
           .sort([col, id_col]).materialize())
    total = srt.count()  # block metadata of the materialized sort
    if total == 0:
        return ray.data.from_pandas(
            pd.DataFrame({id_col: pd.Series(dtype=np.int64),
                          col: pd.Series(dtype=np.float64),
                          "bucket": pd.Series(dtype=np.int64)}))
    base, rem = divmod(total, n)

    def bucketize(t, off):
        df = t.to_pandas()
        r = off + np.arange(len(df), dtype=np.int64)  # 0-based global rank
        cut = rem * (base + 1)
        if base:
            b = np.where(r < cut, r // (base + 1), rem + (r - cut) // base)
        else:  # more buckets than rows: one row per bucket
            b = r
        df["bucket"] = (b + 1).astype(np.int64)
        return df[[id_col, col, "bucket"]]

    # block outputs become the result Dataset (no driver concatenation);
    # rows flow out sorted by (col, id)
    return ray.data.from_pandas_refs(carry_scan(
        srt.to_arrow_refs(), lambda t: t.num_rows, operator.add, bucketize, init=0))


def grouped_mode(ds: "ray.data.Dataset", key: str, col: str) -> "ray.data.Dataset":
    """Most frequent ``col`` value per ``key`` (ties broken toward the
    smallest value — deterministic, mirrored by the SQL ``row_number()``
    twin).  Output: (key, mode_value, n).

    Scale shape: the shuffle carries a (key, value, partial-count)
    histogram (cardinality-bounded, same as ``grouped_quantiles``); the
    final per-key argmax is one vectorized pass over each group's merged
    histogram."""

    from .groupagg import grouped_count

    hist = grouped_count(ds, [key, col])

    def select(g: pd.DataFrame) -> pd.DataFrame:
        order = np.lexsort((g[col].to_numpy(), -g["cnt"].to_numpy()))
        top = g.iloc[order[0]]
        return pd.DataFrame({key: [top[key]], "mode_value": [top[col]],
                             "n": [np.int64(top["cnt"])]})

    return hist.groupby(key).map_groups(select, batch_format="pandas")


def grouped_ndv_hll(ds: "ray.data.Dataset", key: str, col: str,
                    p: int = 12) -> pd.DataFrame:
    """APPROXIMATE ``count(DISTINCT col)`` per ``key`` via HyperLogLog
    (~1.04/sqrt(2^p) standard error; p=12 -> ~1.6%).

    The 100 TB shape vs the exact :func:`grouped_distinct_count`: the
    shuffle carries ONE 2^p-byte register blob per (key, block) — constant
    per group — instead of the full distinct (key, value) pair set, so
    NDV over a high-cardinality column (distinct user_ids per event type
    across 10^12 rows) never moves more than keys x blocks x 4 KiB.
    Registers are elementwise-max mergeable, so partials combine in any
    order (tested associative)."""
    from ..functions import sketches as sk

    m = 1 << p

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        sub = batch[[key, col]].dropna(subset=[col])
        keys_arr, inv = np.unique(sub[key].to_numpy(), return_inverse=True)
        vals = sub[col].to_numpy()
        if vals.dtype.kind in "iu":
            h = sk._splitmix64(vals.astype(np.uint64))
        else:
            h = sk.word_hashes(vals.astype(str).astype(object))
        # one flat register plane per key present in the batch
        regs = np.zeros(len(keys_arr) * m, dtype=np.uint8)
        idx = (h >> np.uint64(64 - p)).astype(np.int64)
        rank = sk._leading_rank(h & np.uint64((1 << (64 - p)) - 1), 64 - p)
        np.maximum.at(regs, inv * m + idx, rank)
        return pd.DataFrame({key: keys_arr,
                             "regs": [regs[i * m:(i + 1) * m].tobytes()
                                      for i in range(len(keys_arr))]})

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        regs = sk.hll_merge([np.frombuffer(b, dtype=np.uint8) for b in g["regs"]])
        return pd.DataFrame({key: [g[key].iloc[0]],
                             "ndv_hll": [np.int64(sk.hll_estimate(regs))]})

    partials = ds.map_batches(partial, batch_format="pandas")
    out = partials.groupby(key).map_groups(merge, batch_format="pandas").to_pandas()
    return out.sort_values(key).reset_index(drop=True)


def source_quality_profile(docs: "ray.data.Dataset") -> "ray.data.Dataset":
    """Per-source data-quality monitor: document count, empty/whitespace
    text count, n_chars min/max, and distinct language count — the
    ingest-audit row a pipeline checks before accepting a new source
    drop (schema drift, truncation, language contamination all surface
    here).  Pure composition of the decomposable-aggregate machinery:
    one sum/min/max ``grouped_agg`` + one exact distinct-count pass,
    merged on the source-count-sized driver frame."""

    def project(batch: pd.DataFrame) -> pd.DataFrame:
        txt = batch["text"].fillna("")
        return pd.DataFrame({
            "source": batch["source"],
            "n_docs": np.int64(1),
            "n_empty": (txt.str.strip() == "").to_numpy().astype(np.int64),
            "min_chars": batch["n_chars"].to_numpy(dtype=np.int64),
            "max_chars": batch["n_chars"].to_numpy(dtype=np.int64),
        })

    from .groupagg import grouped_agg

    base = grouped_agg(
        docs.map_batches(project, batch_format="pandas"), ["source"],
        {"n_docs": "sum", "n_empty": "sum", "min_chars": "min",
         "max_chars": "max"}).to_pandas()
    langs = (grouped_distinct_count(docs, "source", "lang")
             .to_pandas().rename(columns={"ndv": "n_langs"}))
    out = (base.merge(langs, on="source").sort_values("source")
           .reset_index(drop=True))
    return ray.data.from_pandas(out.astype(
        {c: np.int64 for c in ("n_docs", "n_empty", "min_chars",
                               "max_chars", "n_langs")}))


def discrete_quantiles(ds: "ray.data.Dataset", col: str,
                       qs: Sequence[float]) -> list | None:
    """Exact discrete global quantiles of ``col`` (DuckDB's
    ``quantile_disc`` rank rule: sorted element at 1-based rank
    ``ceil(q*n)``) via ONE value-count-histogram reduction — the shuffle
    is bounded by distinct values, never rows.  Returns one value per q,
    or None when the column holds no non-null values.  The single home
    of the rank rule, shared by ``winsorize`` and
    ``relational.filter_by_percentile``."""
    from .groupagg import grouped_count

    hist = grouped_count(ds, [col]).to_pandas()
    if col not in hist.columns or not len(hist):
        return None
    hist = hist.sort_values(col, kind="mergesort")
    cum = hist["cnt"].to_numpy(dtype=np.int64).cumsum()
    n = int(cum[-1])
    vals = hist[col].to_numpy()
    out = []
    for q in qs:
        rank = max(1, int(np.ceil(float(q) * n)))
        out.append(vals[np.searchsorted(cum, rank, side="left")])
    return out


def winsorize(ds: "ray.data.Dataset", col: str,
              lo_q: float = 0.01, hi_q: float = 0.99,
              out_col: str | None = None) -> "ray.data.Dataset":
    """Winsorization: clip ``col`` at its exact discrete global
    ``lo_q``/``hi_q`` quantiles (quantile_disc rank rule — the clipped
    values are existing data values, so the SQL twin matches bit-exact
    with no interpolation semantics to reconcile).

    Scale shape: one value-count-histogram reduction (shuffle bounded
    by DISTINCT values, never rows — :func:`discrete_quantiles`),
    thresholds broadcast in the closure, then a streaming vectorized
    clip.  NULL values stay NULL (the SQL twin must guard with CASE —
    DuckDB's least/greatest would otherwise swallow the NULL).  An
    all-null column still gains ``out_col`` (as nulls) so the output
    schema is input-independent."""
    if not (0.0 <= lo_q <= hi_q <= 1.0):
        raise ValueError(f"need 0 <= lo_q <= hi_q <= 1, got {lo_q}, {hi_q}")
    dest = out_col or col
    thr = discrete_quantiles(ds, col, [lo_q, hi_q])
    if thr is None:
        # nothing to clip, but the promised output column must exist
        return ds.map_batches(lambda b: b.assign(**{dest: b[col]}),
                              batch_format="pandas")
    lo_v, hi_v = thr

    def clip(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b[dest] = b[col].clip(lo_v, hi_v)
        return b

    return ds.map_batches(clip, batch_format="pandas")


def scale_minmax(ds: "ray.data.Dataset", col: str, by: str,
                 out_col: str = "scaled") -> "ray.data.Dataset":
    """Per-``by``-group min-max feature scaling:
    ``(v - min) / (max - min)`` (NaN-safe: a constant group scales to
    0.0, matching SQL's NULL-free convention via the guard divisor).

    Scale shape: one grouped min/max aggregate (rows per (group, block)
    on the shuffle), the group->bounds map broadcasts via ray.put, the
    transform streams vectorized.  Identical IEEE double ops to the SQL
    window twin, so the oracle is hash-exact."""
    from .groupagg import grouped_agg

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({by: b[by].to_numpy(),
                             "_mn": b[col].to_numpy(),
                             "_mx": b[col].to_numpy()})

    bounds = grouped_agg(ds.map_batches(prep, batch_format="pandas"),
                         [by], {"_mn": "min", "_mx": "max"}).to_pandas()
    import ray as _ray

    bref = _ray.put(bounds.set_index(by))

    def xform(b: pd.DataFrame) -> pd.DataFrame:
        m = _ray.get(bref)
        mn = m["_mn"].reindex(b[by]).to_numpy()
        mx = m["_mx"].reindex(b[by]).to_numpy()
        v = b[col].to_numpy(dtype=np.float64)
        span = mx - mn
        b = b.copy()
        b[out_col] = np.where(span > 0, (v - mn) / np.where(span > 0, span, 1.0), 0.0)
        return b

    return ds.map_batches(xform, batch_format="pandas")


def dense_rank(ds: "ray.data.Dataset", col: str, by: str,
               out_col: str = "drank") -> "ray.data.Dataset":
    """SQL ``dense_rank() OVER (PARTITION BY by ORDER BY col)``: the
    1-based rank of each row's value among the DISTINCT values of its
    group (no gaps at ties).

    Scale shape: the shuffle carries one row per distinct (group, value)
    pair (``grouped_count``; the documented distinct-value-bounded
    assumption shared with grouped_quantiles/percent_rank); ranks come
    from one sorted cumcount over those pairs, broadcast via ray.put;
    the rank attach is a streaming vectorized merge.  NULL values rank
    LAST as one shared dense rank (DuckDB's default NULLS LAST), keeping
    ``out_col`` int64."""
    return _group_rank(ds, col, by, out_col, dense=True)


def rank_with_gaps(ds: "ray.data.Dataset", col: str, by: str,
                   out_col: str = "rnk") -> "ray.data.Dataset":
    """SQL ``rank() OVER (PARTITION BY by ORDER BY col)``: ties share a
    rank and the next distinct value SKIPS (rank = 1 + #rows strictly
    smaller in the group) — the gapped companion of ``dense_rank``.

    Same scale shape as dense_rank: the shuffle carries one row per
    distinct (group, value) pair; gapped ranks are one shifted cumsum
    over the sorted pairs (rank = cumsum(cnt) - cnt + 1), broadcast via
    ray.put; the attach is a vectorized merge.  NULLs rank after every
    non-null row (DuckDB NULLS LAST): rank = #non-null rows + 1, shared
    by all null rows; an all-null group ranks 1."""
    return _group_rank(ds, col, by, out_col, dense=False)


def _group_rank(ds: "ray.data.Dataset", col: str, by: str, out_col: str,
                dense: bool) -> "ray.data.Dataset":
    """Shared body of :func:`dense_rank` (``dense``) and
    :func:`rank_with_gaps`: rank the (by, col) value counts per group,
    then attach the ranks to every row by a broadcast merge."""
    from .groupagg import grouped_count

    pairs = (grouped_count(ds, [by, col]).to_pandas()
             .sort_values([by, col], kind="mergesort"))
    if dense:  # each distinct value advances the rank by one, not by its rows
        pairs["cnt"] = np.int64(1)
    steps = pairs.groupby(by, sort=False)["cnt"]
    pairs[out_col] = steps.cumsum() - pairs["cnt"] + 1
    # NULL order values share the rank after every non-null value of
    # their group (DuckDB NULLS LAST); an all-null group ranks 1
    ref = ray.put((pairs[[by, col, out_col]], steps.sum() + 1))

    def attach(b: pd.DataFrame) -> pd.DataFrame:
        p, nr = ray.get(ref)
        out = b.merge(p, on=[by, col], how="left")
        na = out[col].isna().to_numpy()
        if na.any():
            fill = nr.reindex(out[by][na]).fillna(1).to_numpy()
            r = out[out_col].to_numpy(dtype=np.float64)
            r[na] = fill
            out[out_col] = r
        out[out_col] = out[out_col].astype(np.int64)
        return out

    return ds.map_batches(attach, batch_format="pandas")


def zscore(ds: "ray.data.Dataset", col: str, by: str,
           out_col: str = "z") -> "ray.data.Dataset":
    """Per-group z-score transform over integer cents: the decomposable
    (n, Σ, Σ²) sums make the shuffle merge-order-independent (the
    ``grouped_stddev`` trick), then each row's
    ``z = (x_c - Σ/n) / sqrt((nΣ² - ΣΣ)/(n(n-1)))`` runs in float64
    with the SQL twin's exact op order, so the oracle is hash-exact.
    NULL values contribute to neither the stats nor the output (the SQL
    twin must filter ``col IS NOT NULL`` — its count(*) would otherwise
    count null rows the kernel's sums never saw); rows in groups with
    fewer than 2 non-null values are dropped (sample stddev undefined)."""
    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch.dropna(subset=[col])
        x = np.round(b[col].to_numpy(dtype=np.float64) * 100.0).astype(np.int64)
        return pd.DataFrame({by: b[by].to_numpy(), "n": np.int64(1),
                             "sx": x, "sxx": x * x})

    from .groupagg import grouped_sum

    sums = grouped_sum(ds.map_batches(partial, batch_format="pandas"),
                       [by], ["n", "sx", "sxx"]).to_pandas()
    sums = sums[sums["n"] > 1]
    import ray as _ray

    sref = _ray.put(sums.set_index(by))

    def xform(b: pd.DataFrame) -> pd.DataFrame:
        s = _ray.get(sref)
        m = b[by].isin(s.index).to_numpy() & b[col].notna().to_numpy()
        b = b[m].copy()
        n = s["n"].reindex(b[by]).to_numpy(dtype=np.float64)
        sx = s["sx"].reindex(b[by]).to_numpy(dtype=np.float64)
        sxx = s["sxx"].reindex(b[by]).to_numpy(dtype=np.float64)
        xc = np.round(b[col].to_numpy(dtype=np.float64) * 100.0)
        b[out_col] = (xc - sx / n) / np.sqrt(
            (n * sxx - sx * sx) / (n * (n - 1.0)))
        return b

    return ds.map_batches(xform, batch_format="pandas")


def grouped_mad(ds: "ray.data.Dataset", key: str, col: str
                ) -> "ray.data.Dataset":
    """Per-group median absolute deviation — the robust spread measure —
    as two chained exact discrete-quantile passes: (1) per-group p50
    via the value-count-histogram machinery, (2) per-group p50 of
    ``|x - median|``.  Both shuffles are distinct-value bounded; the
    medians use the quantile_disc rank rule so the DuckDB twin
    (quantile_disc over the same abs differences) is hash-exact.
    Output: (key, median, mad)."""
    med = grouped_quantiles(ds, key, col, qs=(0.5,),
                            guard_sample=0).to_pandas()
    med = med.rename(columns={"p50": "median"})
    import ray as _ray

    mref = _ray.put(med.set_index(key)["median"])

    def absdev(b: pd.DataFrame) -> pd.DataFrame:
        m = _ray.get(mref)
        b = b.dropna(subset=[col])
        dev = np.abs(b[col].to_numpy()
                     - m.reindex(b[key]).to_numpy())
        return pd.DataFrame({key: b[key].to_numpy(), "_dev": dev})

    devs = ds.map_batches(absdev, batch_format="pandas")
    mad = grouped_quantiles(devs, key, "_dev", qs=(0.5,),
                            guard_sample=0).to_pandas()
    mad = mad.rename(columns={"p50": "mad"})
    out = med.merge(mad, on=key)
    return ray.data.from_pandas(out[[key, "median", "mad"]])


def grouped_argmax(ds: "ray.data.Dataset", key: str, order_col: str,
                   value_cols: Sequence[str], tiebreak: str,
                   how: str = "max") -> "ray.data.Dataset":
    """Per ``key`` group, the whole row (``value_cols``) at the group's
    extreme ``order_col`` — SQL ``row_number() OVER (PARTITION BY key
    ORDER BY order_col DESC, tiebreak DESC) = 1`` (ASC/ASC for
    ``how='min'``).  Ties are broken by ``tiebreak`` in the same
    direction as the order, so the result is deterministic on any block
    layout; rows with a NULL ``order_col`` never win.

    Scale shape: the per-block kernel keeps one row per group per block
    (a sort + ``drop_duplicates``, no per-group Python), so the shuffle
    carries <= groups x blocks rows, never the data; the same kernel is
    its own merge via ``sorted_block_aggregate``."""
    if how not in ("max", "min"):
        raise ValueError(f"how must be 'max' or 'min', got {how!r}")
    extra = [c for c in value_cols if c not in (key, order_col, tiebreak)]
    cols = [key, order_col, tiebreak] + extra
    keep = "last" if how == "max" else "first"

    def kern(b: pd.DataFrame) -> pd.DataFrame:
        b = b[cols].dropna(subset=[order_col])
        if not len(b):
            return b
        b = b.sort_values([key, order_col, tiebreak], kind="mergesort")
        return b.drop_duplicates(subset=[key], keep=keep)

    from .groupagg import sorted_block_aggregate

    partials = ds.map_batches(kern, batch_format="pandas")
    return sorted_block_aggregate(partials, [key], kern, kern)


def grouped_quantile_cont(ds: "ray.data.Dataset", key: str, col: str,
                          qs: Sequence[float] = (0.5,)
                          ) -> "ray.data.Dataset":
    """Per ``key`` group: exact INTERPOLATED quantiles of ``col``
    (SQL ``quantile_cont`` / percentile_cont) — the continuous
    counterpart of :func:`grouped_quantiles`.  Same value-count-
    histogram reduction (shuffle bounded by distinct values, never
    rows); the finish walks the cumulative counts to the two order
    statistics around rank ``(n-1)*q`` and blends them as
    ``lo*(1-d) + hi*d`` — the exact IEEE expression DuckDB's
    quantile_cont evaluates, so the float output is hash-identical to
    the SQL twin, not merely close.  Output: key, p<q*100>_c per q."""
    qs = [float(q) for q in qs]
    names = [f"p{int(round(q * 100))}_c" for q in qs]

    from .groupagg import grouped_count

    hist = grouped_count(ds, [key, col])

    def select(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(col, kind="mergesort")
        cum = g["cnt"].to_numpy(dtype=np.int64).cumsum()
        n = int(cum[-1])
        vals = g[col].to_numpy(dtype=np.float64)
        row = {key: [g[key].iloc[0]]}
        for q, name in zip(qs, names):
            h = (n - 1) * q
            lof = np.floor(h)
            d = h - lof
            lo = vals[np.searchsorted(cum, int(lof) + 1, side="left")]
            hi = vals[np.searchsorted(cum, int(np.ceil(h)) + 1, side="left")]
            row[name] = [float(lo * (1 - d) + hi * d)]
        return pd.DataFrame(row)

    return hist.groupby(key).map_groups(select, batch_format="pandas")


def grouped_regression(ds: "ray.data.Dataset", key: str, x_col: str,
                       y_col: str) -> "ray.data.Dataset":
    """Per-group simple OLS fit of ``y`` on ``x`` from the five
    decomposable sums (n, Σx, Σy, Σxy, Σx²) — one ``grouped_sum``, no
    second scan, shuffle carries five int64/float64 counters per group
    per block.  Callers pass PRE-SCALED integer-domain columns (e.g.
    cents, hours-since-epoch) when they need the SQL twin hash-exact:
    the sums then stay exact and slope/intercept are single float
    expressions over exact ints, identical IEEE ops on both sides.
    Output: key, n, sum_x, sum_y, sum_xy, sum_xx, slope, intercept
    (slope/intercept NULL for degenerate groups with zero x-variance).
    """
    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b[[key, x_col, y_col]].dropna(subset=[x_col, y_col])
        x = b[x_col].to_numpy()
        y = b[y_col].to_numpy()
        return pd.DataFrame({key: b[key].to_numpy(),
                             "n": np.int64(1),
                             "sum_x": x, "sum_y": y,
                             "sum_xy": x * y, "sum_xx": x * x})

    from .groupagg import grouped_sum

    sums = grouped_sum(ds.map_batches(partial, batch_format="pandas"),
                       [key], ["n", "sum_x", "sum_y", "sum_xy", "sum_xx"])

    def fit(b: pd.DataFrame) -> pd.DataFrame:
        n = b["n"].to_numpy()
        sx = b["sum_x"].to_numpy()
        sy = b["sum_y"].to_numpy()
        sxy = b["sum_xy"].to_numpy()
        sxx = b["sum_xx"].to_numpy()
        den = n * sxx - sx * sx
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.where(den != 0, (n * sxy - sx * sy) / den, np.nan)
            intercept = np.where(den != 0, (sy - slope * sx) / n, np.nan)
        out = b.copy()
        out["slope"] = slope
        out["intercept"] = intercept
        return out

    return sums.map_batches(fit, batch_format="pandas")


def cume_dist(ds: "ray.data.Dataset", col: str,
              id_cols: Sequence[str] = ()) -> "ray.data.Dataset":
    """Global cumulative distribution of ``col``: each row gets
    ``cd = rows_at_or_below / n`` with ties sharing their MAXIMUM rank —
    exactly SQL ``cume_dist() OVER (ORDER BY col)``.  The complement of
    :func:`percent_rank` (which shares the minimum rank); same two-pass
    scale shape — distinct-value-bounded histogram shuffle, cumulative
    counts broadcast via ``ray.put``, streaming searchsorted pass 2.
    ``cd`` is one ``int/int`` float division from exact counts, so the
    SQL twin hash-matches bitwise.  NULLs are dropped."""
    return _score_values(ds, col, id_cols, "cd", lambda below, cum, n: cum / n)


def impute_median(ds: "ray.data.Dataset", key: str, col: str,
                  id_cols: Sequence[str] = ()) -> "ray.data.Dataset":
    """NULL imputation with the per-group exact discrete median — the
    standard ML-prep fill.  Pass 1 is :func:`grouped_quantiles` (one
    distinct-value-bounded histogram shuffle); the per-group medians are
    broadcast once via ``ray.put`` and pass 2 is a streaming vectorized
    fill — ``coalesce(col, median_of_group)`` — so no row ever reaches
    the driver.  Rows whose group has NO non-null values keep NULL
    (SQL coalesce with a NULL join partner).  Output: id_cols (or all
    columns), col replaced by its filled values, plus ``was_null``."""
    id_cols = list(id_cols)
    med = grouped_quantiles(ds, key, col, qs=(0.5,),
                            guard_sample=0).to_pandas()
    import ray as _ray

    ref = _ray.put(med.set_index(key)["p50"])

    def fill(b: pd.DataFrame) -> pd.DataFrame:
        m = _ray.get(ref)
        out = pd.DataFrame({c: b[c] for c in (id_cols or b.columns)})
        if key not in out.columns:
            out[key] = b[key]
        v = b[col].to_numpy(dtype=np.float64, na_value=np.nan)
        isna = np.isnan(v)
        fillv = m.reindex(b[key]).to_numpy(dtype=np.float64,
                                           na_value=np.nan)
        out[col] = np.where(isna, fillv, v)
        out["was_null"] = isna
        return out

    return ds.map_batches(fill, batch_format="pandas")


def cms_top_terms(docs: "ray.data.Dataset", k: int = 20, depth: int = 4,
                  width: int = 1024, col: str = "text") -> "pa.Table":
    """Corpus heavy hitters from a **count-min sketch** — the classic
    mergeable frequency sketch (Cormode & Muthukrishnan 2005), closing
    the sketch family next to MinHash/SimHash/HLL/KMV/Bloom.

    Per block, word occurrences (corpus-standard whitespace/lower
    tokenization, the minhash convention) hash into a ``depth x width``
    counter grid via Kirsch-Mitzenmacher double hashing over the
    splitmix64 word-hash chain; partial grids merge by cell-wise SUM.
    The shuffle therefore carries at most ``depth*width`` rows per block
    — INDEPENDENT of corpus size, the whole point of the sketch.
    Estimates are deterministic and overestimate-only
    (``est >= true count``, error ``<= eps*N`` w.h.p.), so the ENTIRE
    pipeline replays in SQL (``sql_oracles.cms_top_terms_sql``: the same
    word-hash recursive CTE, the same double-hash cell math).

    The candidate set here is the corpus's distinct tokens
    (vocabulary-sized driver merge — the same documented assumption as
    ``top_terms``'s df broadcast); at 100 TB swap the candidate stage
    for per-block local top-M heavy candidates and keep the grid math.
    Ties at the cut rank break lexicographically (deterministic)."""
    import pyarrow as pa

    from ..functions import sketches as sk
    from ..functions.text import flatten_words
    from .groupagg import grouped_agg

    d_arr = np.arange(depth, dtype=np.uint64)

    def _positions(h1: np.ndarray) -> np.ndarray:
        h2 = sk._splitmix64(h1) | np.uint64(1)
        # uint64 arithmetic wraps mod 2^64 — matches the SQL twin's
        # explicit % 2^64 before the width mod
        return ((h1[:, None] + d_arr[None, :] * h2[:, None])
                % np.uint64(width)).astype(np.int64)

    def _block_words(batch: pd.DataFrame):
        t = batch[col].fillna("").str.lower().str.split()
        lens = t.str.len().astype(np.int64).to_numpy()
        flat = flatten_words(t, lens)
        if not len(flat):
            return None, None
        return np.unique(flat, return_counts=True)

    def cells_partial(batch: pd.DataFrame) -> pd.DataFrame:
        uw, cnt = _block_words(batch)
        if uw is None:
            return pd.DataFrame({"i": pd.Series([], dtype=np.int64),
                                 "pos": pd.Series([], dtype=np.int64),
                                 "cnt": pd.Series([], dtype=np.int64)})
        pos = _positions(sk.word_hashes(uw))  # (n_words, depth)
        flatcell = (d_arr[None, :].astype(np.int64) * width + pos).reshape(-1)
        grid = np.bincount(flatcell, weights=np.repeat(cnt, depth),
                           minlength=depth * width).astype(np.int64)
        nz = np.nonzero(grid)[0]
        return pd.DataFrame({"i": nz // width, "pos": nz % width,
                             "cnt": grid[nz]})

    def vocab_partial(batch: pd.DataFrame) -> pd.DataFrame:
        uw, _ = _block_words(batch)
        if uw is None:
            return pd.DataFrame({"term": pd.Series([], dtype=object),
                                 "one": pd.Series([], dtype=np.int64)})
        return pd.DataFrame({"term": uw,
                             "one": np.ones(len(uw), dtype=np.int64)})

    cells = grouped_agg(docs.map_batches(cells_partial, batch_format="pandas"),
                        ["i", "pos"], {"cnt": "sum"}).to_pandas()
    vdf = grouped_agg(docs.map_batches(vocab_partial, batch_format="pandas"),
                      ["term"], {"one": "max"}).to_pandas()
    # an all-empty corpus yields zero blocks -> schema-less empty frames
    vocab = (vdf["term"].to_numpy() if "term" in vdf.columns
             else np.empty(0, dtype=object))

    grid = np.zeros((depth, width), dtype=np.int64)
    if len(cells) and "i" in cells.columns:
        grid[cells["i"].to_numpy(), cells["pos"].to_numpy()] = \
            cells["cnt"].to_numpy()
    if not len(vocab):
        return pa.table({"term": pa.array([], type=pa.string()),
                         "est_count": pa.array([], type=pa.int64())})
    pos = _positions(sk.word_hashes(vocab.astype(object)))
    est = grid[np.arange(depth)[None, :], pos].min(axis=1)
    out = pd.DataFrame({"term": vocab, "est_count": est}).sort_values(
        ["est_count", "term"], ascending=[False, True], kind="mergesort")
    return pa.Table.from_pandas(out.head(k).reset_index(drop=True),
                                preserve_index=False)
