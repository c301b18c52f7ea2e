"""Composed end-to-end pipeline recipes.

The engine's operators are designed to compose into the full
preprocessing flows a training-data user actually runs; ``clean_corpus``
is the flagship composition — every stage is one of the already-oracled
primitives, chained as a single lazy Dataset pipeline (one streaming
pass per stage, no driver materialization between stages):

1. percentile length filter (``relational.filter_by_percentile``) —
   drop the shortest documents;
2. denylist anti-join (``relational.broadcast_join(how='anti')``) —
   remove opted-out / benchmark ids;
3. exact-dedup canonical keep (``dedup.dedup_assign`` + column
   compare) — first copy of each distinct text wins;
4. per-survivor whitespace token count (``functions.text``).

The whole chain is SQL-expressible, so the recipe carries ONE composed
hash-exact oracle (see ``oracle_sql()['corpus_pipeline']``).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data

from ..functions import text as tx


def clean_corpus(docs: "ray.data.Dataset", denylist: "ray.data.Dataset",
                 quality_q: float = 0.5, len_col: str = "n_chars"
                 ) -> "ray.data.Dataset":
    """Length filter -> denylist removal -> exact dedup (first copy
    wins) -> token-count stats.  Returns (doc_id, source, n_ws_tokens)
    for every surviving document."""
    from .dedup import dedup_assign
    from .relational import broadcast_join, filter_by_percentile, hash_join

    kept = filter_by_percentile(docs, len_col, quality_q, keep="above")
    # denylists are dimension-sized (opt-outs / benchmark ids): broadcast
    kept = broadcast_join(kept, denylist, "doc_id", "doc_id", how="anti")

    assign = dedup_assign(kept)

    def keep_firsts(batch: pd.DataFrame) -> pd.DataFrame:
        return batch[batch["doc_id"] == batch["canonical_id"]][["doc_id"]]

    # the winner set is corpus-sized — co-locate by key hash, never
    # broadcast it
    winners = assign.map_batches(keep_firsts, batch_format="pandas")
    survivors = hash_join(kept, winners, "doc_id", "doc_id")

    def stats(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": batch["doc_id"], "source": batch["source"],
            "n_ws_tokens": tx.ws_token_count(batch["text"]).astype(np.int64),
        })

    return survivors.map_batches(stats, batch_format="pandas")


def top_revenue_orders(lineitem: "ray.data.Dataset", orders: "ray.data.Dataset",
                       customer: "ray.data.Dataset", segment: str = "BUILDING",
                       cutoff: str = "1998-06-01", k: int = 10) -> pd.DataFrame:
    """TPC-H-Q3-shaped composed analytics: top-``k`` open orders by
    shipped revenue for one market segment — the relational operators
    (dimension broadcast semi-join, partial-agg grouped sum, fact-x-fact
    hash join, distributed top-k) chained into one streaming plan.

    Revenue is summed in integer cents (``round_even(p*(1-d)*100)`` per
    ROW, then an int Sum) so the distributed aggregation is
    order-independent and the DuckDB twin hash-exact.

    Scale shape: customer is dimension-sized -> broadcast semi-join onto
    orders (no shuffle); lineitem projects to (orderkey, cents) rows
    that ``grouped_sum`` pre-combines per block; the orders<->revenue join is
    the Ray-native hash join; only k rows per block reach the driver."""
    from .groupagg import grouped_sum
    from .relational import broadcast_join, hash_join

    cutoff_ts = pd.Timestamp(cutoff)

    seg = customer.map_batches(
        lambda b: b[b["c_mktsegment"] == segment][["c_custkey"]],
        batch_format="pandas")
    ord_f = orders.map_batches(
        lambda b: b[b["o_orderdate"] < cutoff_ts][
            ["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"]],
        batch_format="pandas")
    ord_f = broadcast_join(ord_f, seg, "o_custkey", "c_custkey", how="semi")

    def rev_partial(b: pd.DataFrame) -> pd.DataFrame:
        m = b[b["l_shipdate"] > cutoff_ts]
        cents = np.round(m["l_extendedprice"].to_numpy()
                         * (1 - m["l_discount"].to_numpy()) * 100).astype(np.int64)
        return pd.DataFrame({"l_orderkey": m["l_orderkey"].to_numpy(),
                             "revenue_cents": cents})

    rev = grouped_sum(lineitem.map_batches(rev_partial, batch_format="pandas"),
                      ["l_orderkey"], ["revenue_cents"])

    j = hash_join(rev, ord_f.map_batches(
        lambda b: b.rename(columns={"o_orderkey": "l_orderkey"}),
        batch_format="pandas"), "l_orderkey", "l_orderkey")

    def local_topk(b: pd.DataFrame) -> pd.DataFrame:
        if "l_orderkey" not in b.columns or not len(b):
            return pd.DataFrame({"l_orderkey": pd.Series([], dtype=np.int64),
                                 "revenue_cents": pd.Series([], dtype=np.int64),
                                 "o_orderdate": pd.Series([], dtype="datetime64[us]"),
                                 "o_orderpriority": pd.Series([], dtype=object)})
        return b.sort_values(["revenue_cents", "l_orderkey"],
                             ascending=[False, True]).head(k)

    cands = j.map_batches(local_topk, batch_format="pandas").to_pandas()
    out = (cands.sort_values(["revenue_cents", "l_orderkey"],
                             ascending=[False, True]).head(k)
           .rename(columns={"l_orderkey": "o_orderkey"})
           .reset_index(drop=True))
    return out[["o_orderkey", "revenue_cents", "o_orderdate", "o_orderpriority"]]


def curate_by_surprisal(docs: "ray.data.Dataset",
                        lo_milli: int = 3500, hi_milli: int = 5500,
                        split_pcts: "dict[str, int] | None" = None
                        ) -> "ray.data.Dataset":
    """Curation recipe v2: keep documents whose MEAN unigram surprisal
    sits in a band (too low = boilerplate/repetition, too high =
    gibberish/noise — the perplexity-band filter of C4/Gopher-style
    pipelines), then assign deterministic train/val/test splits.
    Returns (doc_id, source, n_words, surprisal_sum, split).

    The band test is INTEGER-EXACT by cross-multiplication:
    ``lo_milli * n_words <= 1000 * surprisal_sum <= hi_milli * n_words``
    avoids the mean division entirely, so the chained SQL twin hashes
    bit-exact (compositions of oracled stages chain into an oracled
    recipe — the clean_corpus precedent).  Zero-word docs fail the band
    (0 <= 0 <= 0 passes lo=0 only when lo_milli*0 == 0 — with a
    positive band they drop, matching the twin)."""
    from .text_analysis import assign_splits, unigram_surprisal

    scored = unigram_surprisal(docs)

    def band(batch: pd.DataFrame) -> pd.DataFrame:
        nw = batch["n_words"].to_numpy(dtype=np.int64)
        ss = batch["surprisal_sum"].to_numpy(dtype=np.int64)
        keep = ((lo_milli * nw <= 1000 * ss) & (1000 * ss <= hi_milli * nw)
                & (nw > 0))
        return batch[keep]

    kept = scored.map_batches(band, batch_format="pandas").materialize()
    # re-attach source: the surprisal rows are CORPUS-sized (24 B/doc),
    # not dimension-sized — size-aware join (broadcast while it fits,
    # hash shuffle at scale; the funnel/retention switch)
    from .relational import broadcast_join, hash_join

    try:
        small = (kept.size_bytes() or 0) < (32 << 20)
    except Exception:
        small = False
    src = docs.select_columns(["doc_id", "source"])
    if small:
        enriched = broadcast_join(src, kept, "doc_id", "doc_id", how="inner",
                                  right_cols=["n_words", "surprisal_sum"])
    else:
        enriched = hash_join(src, kept, "doc_id", "doc_id")
    return assign_splits(enriched, split_pcts or
                         {"train": 80, "val": 10, "test": 10})


def pricing_summary(lineitem: "ray.data.Dataset",
                    cutoff: str = "1998-09-01") -> "ray.data.Dataset":
    """TPC-H-Q1-shaped pricing summary report: per (l_returnflag,
    l_linestatus), exact integer-cent sums of quantity, base price,
    discounted price ``p*(1-d)``, charge ``p*(1-d)*(1+t)`` and discount,
    plus row counts and the derived averages, over rows shipped on or
    before ``cutoff``.

    All money/quantity sums are per-row ``round_even(x*100)`` integer
    cents before the Sum, so the distributed aggregation is
    order-independent and the DuckDB twin hash-exact; the avg columns
    are single float divisions of those exact integers (identical IEEE
    ops on both sides).  Scale shape: one per-block pandas partial (a
    handful of rows per block — the key space is ~6 groups), then
    ``grouped_sum``'s bounded merge; no row-level shuffle.

    The reference has no aggregation at all (SURVEY.md §2.5); this is a
    flagship composition of the engine's relational layer."""
    from .groupagg import grouped_sum

    cutoff_ts = pd.Timestamp(cutoff)
    sum_cols = ["sum_qty_c", "sum_base_c", "sum_disc_c", "sum_charge_c",
                "sum_discount_c", "n_rows"]

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        m = b[b["l_shipdate"] <= cutoff_ts]
        p = m["l_extendedprice"].to_numpy()
        d = m["l_discount"].to_numpy()
        t = m["l_tax"].to_numpy()
        return pd.DataFrame({
            "l_returnflag": m["l_returnflag"].to_numpy(),
            "l_linestatus": m["l_linestatus"].to_numpy(),
            "sum_qty_c": np.round(m["l_quantity"].to_numpy() * 100).astype(np.int64),
            "sum_base_c": np.round(p * 100).astype(np.int64),
            "sum_disc_c": np.round(p * (1 - d) * 100).astype(np.int64),
            "sum_charge_c": np.round(p * (1 - d) * (1 + t) * 100).astype(np.int64),
            "sum_discount_c": np.round(d * 100).astype(np.int64),
            "n_rows": np.ones(len(m), dtype=np.int64),
        })

    sums = grouped_sum(lineitem.map_batches(partial, batch_format="pandas"),
                       ["l_returnflag", "l_linestatus"], sum_cols)

    def finalize(b: pd.DataFrame) -> pd.DataFrame:
        n = b["n_rows"].to_numpy().astype(np.float64)
        b = b.copy()
        b["avg_qty"] = b["sum_qty_c"].to_numpy() / (100.0 * n)
        b["avg_price"] = b["sum_base_c"].to_numpy() / (100.0 * n)
        b["avg_disc"] = b["sum_discount_c"].to_numpy() / (100.0 * n)
        return b

    return sums.map_batches(finalize, batch_format="pandas")


def small_quantity_revenue(lineitem: "ray.data.Dataset") -> "ray.data.Dataset":
    """TPC-H-Q17-shaped decorrelated aggregate: total revenue (integer
    cents) and row count of lineitems whose quantity is below 20% of
    their part's average quantity.

    The correlated subquery ``l_quantity < 0.2 * avg(l_quantity) per
    part`` is decorrelated the way real planners do it: one grouped
    aggregate per part (sum of quantity cents + count — the shuffle
    carries one row per (part, block)), joined back to the fact rows,
    then filtered.  The fractional compare is exact integer
    cross-multiplication — ``q_c * cnt * 5 < sum_q_c`` ⇔
    ``q < 0.2 * avg`` — so the DuckDB twin is hash-exact with no float
    tolerance.  Output is one global row (rev_c, n)."""
    from .groupagg import grouped_sum
    from .relational import hash_join

    def qpart(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "pk": b["l_partkey"].to_numpy(),
            "sq_c": np.round(b["l_quantity"].to_numpy() * 100).astype(np.int64),
            "cnt": np.ones(len(b), dtype=np.int64),
        })

    per_part = grouped_sum(
        lineitem.map_batches(qpart, batch_format="pandas"), ["pk"],
        ["sq_c", "cnt"])

    def fact(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "l_partkey": b["l_partkey"].to_numpy(),
            "q_c": np.round(b["l_quantity"].to_numpy() * 100).astype(np.int64),
            "price_c": np.round(b["l_extendedprice"].to_numpy() * 100
                                ).astype(np.int64),
        })

    joined = hash_join(lineitem.map_batches(fact, batch_format="pandas"),
                       per_part, "l_partkey", "pk")

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        m = (b["q_c"].to_numpy() * b["cnt"].to_numpy() * 5
             < b["sq_c"].to_numpy())
        return pd.DataFrame({"rev_c": [np.int64(b["price_c"].to_numpy()[m].sum())],
                             "n": [np.int64(m.sum())]})

    parts = joined.map_batches(partial, batch_format="pandas").to_pandas()
    return ray.data.from_pandas(pd.DataFrame({
        "rev_c": [np.int64(parts["rev_c"].sum())],
        "n": [np.int64(parts["n"].sum())]}))


def order_count_distribution(customer: "ray.data.Dataset",
                             orders: "ray.data.Dataset") -> "ray.data.Dataset":
    """TPC-H-Q13-shaped count-of-counts: how many customers placed
    exactly k orders, including k=0 (the LEFT-join clause that makes Q13
    annoying for naive engines).

    Two-level aggregation: per-customer order counts via one grouped
    sum (shuffle carries one row per (cust, block)), LEFT hash join onto
    the customer keys to surface the zero-order customers, then a second
    grouped count over the k values — each level strictly smaller."""
    from .groupagg import grouped_count
    from .relational import hash_join

    per_cust = grouped_count(orders, ["o_custkey"], name="n_orders")
    cust = customer.map_batches(lambda b: b[["c_custkey"]],
                                batch_format="pandas")
    j = hash_join(cust, per_cust, "c_custkey", "o_custkey", how="left")

    def kpart(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "n_orders": b["n_orders"].fillna(0).to_numpy().astype(np.int64)})

    return grouped_count(j.map_batches(kpart, batch_format="pandas"),
                         ["n_orders"], name="n_cust")


def regional_revenue(lineitem, orders, customer, supplier, nation, region,
                     region_name: str = "ASIA",
                     date_lo: str = "1996-01-01",
                     date_hi: str = "1997-01-01") -> "ray.data.Dataset":
    """TPC-H-Q5-shaped five-table join chain: revenue per nation from
    lineitems whose customer and supplier sit in the SAME nation of one
    region, over an order-date year.

    Join strategy by size class (the planner decision this engine asks
    users to make explicitly): region/nation/supplier/customer are
    dimension-side — their key→attribute maps broadcast once via
    ``ray.put`` inside ``broadcast_join`` — while the single fact×fact
    edge (lineitem ⋈ filtered orders) takes the hash-shuffle path.
    Money math is per-row integer cents before the Sum, so the DuckDB
    twin is hash-exact."""
    from .groupagg import grouped_sum
    from .relational import broadcast_join, hash_join

    lo, hi = pd.Timestamp(date_lo), pd.Timestamp(date_hi)

    # dimension chain: region -> nations in region -> names
    r = region.to_pandas()
    keep_rk = set(r[r["r_name"] == region_name]["r_regionkey"])
    n = nation.to_pandas()
    n = n[n["n_regionkey"].isin(keep_rk)][["n_nationkey", "n_name"]]
    nat = ray.data.from_pandas(n)

    # Arrow-native filter: a pandas filter that empties a block loses its
    # schema in the arrow conversion and poisons the hash join's key
    # resolution; pa.Table.filter keeps the schema at zero rows
    import pyarrow as pa
    import pyarrow.compute as pc

    def ofilt(t: "pa.Table") -> "pa.Table":
        m = pc.and_(pc.greater_equal(t["o_orderdate"], pa.scalar(lo)),
                    pc.less(t["o_orderdate"], pa.scalar(hi)))
        return t.filter(m).select(["o_orderkey", "o_custkey"])

    ords = orders.map_batches(ofilt, batch_format="pyarrow")

    def li_cents(b: pd.DataFrame) -> pd.DataFrame:
        p = b["l_extendedprice"].to_numpy()
        d = b["l_discount"].to_numpy()
        return pd.DataFrame({
            "l_orderkey": b["l_orderkey"].to_numpy(),
            "l_suppkey": b["l_suppkey"].to_numpy(),
            "rev_c": np.round(p * (1 - d) * 100).astype(np.int64),
        })

    li = lineitem.map_batches(li_cents, batch_format="pandas")
    # the one fact x fact edge
    lo_j = hash_join(li, ords, "l_orderkey", "o_orderkey")
    # supplier nation + customer nation attach (broadcast maps)
    lo_j = broadcast_join(lo_j, supplier, "l_suppkey", "s_suppkey",
                          right_cols=["s_nationkey"])
    lo_j = broadcast_join(lo_j, customer, "o_custkey", "c_custkey",
                          right_cols=["c_nationkey"])
    # same-nation clause + region membership (inner vs region nations)
    same = lo_j.map_batches(
        lambda b: b[b["s_nationkey"] == b["c_nationkey"]],
        batch_format="pandas")
    named = broadcast_join(same, nat, "s_nationkey", "n_nationkey",
                           right_cols=["n_name"])

    return grouped_sum(named, ["n_name"], ["rev_c"]).map_batches(
        lambda b: b.rename(columns={"rev_c": "revenue_c"}),
        batch_format="pandas")
