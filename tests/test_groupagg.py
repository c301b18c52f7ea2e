"""Unit tests for the high-cardinality grouped-aggregation helper.

Both merge strategies (driver-side small merge and the sorted-block path
with edge re-merge) must agree bit-exactly with a single-process pandas
groupby, including when hot keys straddle many sorted blocks.
"""

import numpy as np
import pandas as pd
import pytest
import ray.data

from parquet_hs_ray.pipelines.groupagg import (count_rows, grouped_agg, grouped_count,
                                                grouped_sum, grouped_sum_of_blocks)


def _frame(n=5000, n_keys=700, seed=7):
    rng = np.random.default_rng(seed)
    k = rng.integers(0, n_keys, n)
    k[: n // 4] = 3  # hot key: guaranteed to straddle blocks on the sort path
    return pd.DataFrame({
        "k": k,
        "v": rng.integers(-100, 100, n).astype(np.int64),
        "w": rng.normal(size=n).round(3),
    })


def _expected_sum(df):
    return df.groupby("k", as_index=False)[["v", "w"]].sum().sort_values("k").reset_index(drop=True)


@pytest.mark.parametrize("small_merge_rows", [500_000, 0])
def test_grouped_sum_matches_pandas(ray_session, small_merge_rows):
    df = _frame()
    ds = ray.data.from_pandas([df.iloc[i::16].reset_index(drop=True) for i in range(16)])
    out = (
        grouped_sum(ds, ["k"], ["v", "w"], small_merge_rows=small_merge_rows)
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    exp = _expected_sum(df)
    pd.testing.assert_frame_equal(out, exp, check_exact=False, atol=1e-9)


@pytest.mark.parametrize("small_merge_rows", [500_000, 0])
def test_grouped_agg_min_max_sum(ray_session, small_merge_rows):
    df = _frame(seed=11)
    ds = ray.data.from_pandas([df.iloc[i::8].reset_index(drop=True) for i in range(8)])
    out = (
        grouped_agg(ds, ["k"], {"v": "min", "w": "max"}, small_merge_rows=small_merge_rows)
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    exp = (df.groupby("k", as_index=False).agg({"v": "min", "w": "max"})
           .sort_values("k").reset_index(drop=True))
    pd.testing.assert_frame_equal(out, exp)


def test_grouped_sum_empty(ray_session):
    ds = ray.data.from_pandas(pd.DataFrame({"k": pd.Series([], dtype=np.int64),
                                            "v": pd.Series([], dtype=np.int64)}))
    out = grouped_sum(ds, ["k"], ["v"]).to_pandas()
    assert len(out) == 0


def test_grouped_sum_multikey_string(ray_session):
    rng = np.random.default_rng(3)
    df = pd.DataFrame({
        "a": rng.choice(["x", "y", "zz"], 2000),
        "b": rng.integers(0, 50, 2000),
        "v": rng.integers(0, 10, 2000).astype(np.int64),
    })
    ds = ray.data.from_pandas([df.iloc[:1000].reset_index(drop=True),
                               df.iloc[1000:].reset_index(drop=True)])
    out = (grouped_sum(ds, ["a", "b"], ["v"], small_merge_rows=0)
           .to_pandas().sort_values(["a", "b"]).reset_index(drop=True))
    exp = (df.groupby(["a", "b"], as_index=False)["v"].sum()
           .sort_values(["a", "b"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(out, exp)


@pytest.mark.parametrize("small_merge_rows", [500_000, 0])
def test_grouped_count_matches_pandas_size(ray_session, small_merge_rows):
    rng = np.random.default_rng(13)
    n = 3000
    df = pd.DataFrame({
        "s": pd.Series(rng.choice(["x", "y", "zz", None], n), dtype=object),
        "k": rng.integers(0, 40, n).astype(np.float64),
        "v": rng.normal(size=n),
    })
    df.loc[rng.integers(0, n, 200), "k"] = np.nan
    df.loc[: n // 3, "k"] = 7.0  # hot key: straddles blocks on the sort path
    ds = ray.data.from_pandas([df.iloc[i::8].reset_index(drop=True) for i in range(8)])
    out = (grouped_count(ds, ["s", "k"], small_merge_rows=small_merge_rows)
           .to_pandas().sort_values(["s", "k"]).reset_index(drop=True))
    exp = (df.groupby(["s", "k"]).size().reset_index(name="cnt")
           .sort_values(["s", "k"]).reset_index(drop=True))
    assert out["cnt"].dtype == np.int64
    assert out["s"].notna().all() and out["k"].notna().all()
    assert int(out["cnt"].sum()) == len(df.dropna(subset=["s", "k"]))
    pd.testing.assert_frame_equal(out, exp)
    pd.testing.assert_frame_equal(count_rows(df, ["s", "k"]), exp)

    empty = ray.data.from_pandas(df.iloc[:0])
    assert len(grouped_count(empty, ["s", "k"],
                             small_merge_rows=small_merge_rows).to_pandas()) == 0


def test_grouped_sum_pre_combines_each_block(ray_session, monkeypatch):
    """16 blocks of 200 raw rows over 10 keys pre-combine to at most 160
    partial rows, under a merge bound of 1000 < 3200 raw rows: the merge
    stays on the driver and Ray's sort never runs."""
    rng = np.random.default_rng(21)
    blocks = [pd.DataFrame({"k": rng.integers(0, 10, 200),
                            "v": rng.integers(0, 100, 200).astype(np.int64)})
              for _ in range(16)]
    ds = ray.data.from_pandas(blocks).materialize()

    def no_sort(*a, **k):
        raise AssertionError("grouped_sum shuffled raw rows through sort")

    monkeypatch.setattr(ray.data.Dataset, "sort", no_sort)
    out = (grouped_sum(ds, ["k"], ["v"], small_merge_rows=1000)
           .to_pandas().sort_values("k").reset_index(drop=True))
    exp = (pd.concat(blocks).groupby("k", as_index=False)["v"].sum()
           .sort_values("k").reset_index(drop=True))
    pd.testing.assert_frame_equal(out, exp)


def test_grouped_count_pre_combines_exploded_blocks(ray_session, monkeypatch):
    """A projection that explodes each of 16 blocks of 50 documents into
    5000 word rows over 10 distinct words pre-combines to at most
    16 x 10 partial rows: a merge bound of 160 (< 80,000 exploded rows)
    keeps the merge on the driver, so each block is counted once, not
    once per batch of the exploded stream."""
    rng = np.random.default_rng(23)
    blocks = [pd.DataFrame({"doc": np.arange(50) + 50 * b}) for b in range(16)]
    ds = ray.data.from_pandas(blocks).materialize()
    words = rng.integers(0, 10, 100).astype(str)

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"word": np.tile(words, len(df))})

    def no_sort(*a, **k):
        raise AssertionError("grouped_count shuffled exploded rows through sort")

    monkeypatch.setattr(ray.data.Dataset, "sort", no_sort)
    out = (grouped_count(ds.map_batches(explode, batch_format="pandas"),
                         ["word"], name="n", small_merge_rows=160)
           .to_pandas().sort_values("word").reset_index(drop=True))
    exp = (pd.DataFrame({"word": np.tile(words, 800)}).groupby("word").size()
           .reset_index(name="n"))
    pd.testing.assert_frame_equal(out, exp)


def test_grouped_sum_of_blocks_runs_the_kernel_once_per_block(ray_session, monkeypatch):
    """The caller's Arrow kernel is each block's only pre-combine: over
    16 blocks of 200 rows and 10 keys, every partial row says it came
    from one kernel call over a whole block, and 160 partial rows merge
    on the driver without Ray's sort."""
    import pyarrow as pa

    rng = np.random.default_rng(29)
    blocks = [pd.DataFrame({"k": rng.integers(0, 10, 200),
                            "v": rng.integers(0, 100, 200).astype(np.int64)})
              for _ in range(16)]
    ds = ray.data.from_pandas(blocks).materialize()

    def block_sum(t: pa.Table) -> pa.Table:
        g = t.group_by("k").aggregate([("v", "sum")])
        n = g.num_rows
        return pa.table({"k": g["k"], "v": g["v_sum"],
                         "calls": np.ones(n, np.int64),
                         "rows_seen": np.full(n, t.num_rows, np.int64)})

    def no_sort(*a, **k):
        raise AssertionError("grouped_sum_of_blocks shuffled partials through sort")

    monkeypatch.setattr(ray.data.Dataset, "sort", no_sort)
    out = (grouped_sum_of_blocks(ds, ["k"], ["v", "calls", "rows_seen"], block_sum)
           .to_pandas().sort_values("k").reset_index(drop=True))
    raw = pd.concat(blocks)
    exp = raw.groupby("k", as_index=False)["v"].sum()
    pd.testing.assert_frame_equal(out[["k", "v"]], exp)
    in_blocks = np.array([sum(k in set(b["k"]) for b in blocks) for k in exp["k"]])
    assert (out["calls"].to_numpy() == in_blocks).all()
    assert (out["rows_seen"].to_numpy() == 200 * in_blocks).all()


def _docs_frame(n=4000, seed=5):
    rng = np.random.default_rng(seed)
    return pd.DataFrame({
        "src": np.array(["cc", "wiki", "book", "code"])[rng.integers(0, 4, n)],
        "lang": np.array(["en", "de", "fr"])[rng.integers(0, 3, n)],
        "chars": rng.integers(1, 500, n).astype(np.int64),
        "n": np.ones(n, dtype=np.int64),
    })


@pytest.mark.parametrize("small_merge_rows", [500_000, 0])
def test_rollup_sum_matches_sql_semantics(ray_session, small_merge_rows):
    from parquet_hs_ray.pipelines.groupagg import rollup_sum

    df = _docs_frame()
    ds = ray.data.from_pandas([df.iloc[i::8].reset_index(drop=True) for i in range(8)])
    parts = ds.map_batches(
        lambda b: b.groupby(["src", "lang"], sort=False).sum().reset_index(),
        batch_format="pandas")
    out = rollup_sum(parts, ["src", "lang"], ["chars", "n"],
                     small_merge_rows=small_merge_rows).to_pandas()

    fine = df.groupby(["src", "lang"], as_index=False)[["chars", "n"]].sum()
    mid = df.groupby(["src"], as_index=False)[["chars", "n"]].sum()
    # level row counts and grouping ids
    assert sorted(out["grouping_id"].unique()) == [0, 1, 3]
    assert len(out[out.grouping_id == 0]) == len(fine)
    assert len(out[out.grouping_id == 1]) == len(mid)
    assert len(out[out.grouping_id == 3]) == 1
    # rolled keys are NULL
    lvl1 = out[out.grouping_id == 1]
    assert lvl1["lang"].isna().all() and lvl1["src"].notna().all()
    tot = out[out.grouping_id == 3]
    assert tot["src"].isna().all() and tot["lang"].isna().all()
    # values agree with pandas at every level
    got_fine = (out[out.grouping_id == 0][["src", "lang", "chars", "n"]]
                .sort_values(["src", "lang"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(
        got_fine, fine.sort_values(["src", "lang"]).reset_index(drop=True))
    got_mid = (lvl1[["src", "chars", "n"]]
               .sort_values("src").reset_index(drop=True))
    pd.testing.assert_frame_equal(
        got_mid, mid.sort_values("src").reset_index(drop=True))
    assert int(tot["chars"].iloc[0]) == int(df["chars"].sum())
    assert int(tot["n"].iloc[0]) == len(df)


def test_cube_sum_all_subsets(ray_session):
    from parquet_hs_ray.pipelines.groupagg import cube_sum

    df = _docs_frame(n=1500, seed=9)
    ds = ray.data.from_pandas([df.iloc[i::4].reset_index(drop=True) for i in range(4)])
    parts = ds.map_batches(
        lambda b: b.groupby(["src", "lang"], sort=False).sum().reset_index(),
        batch_format="pandas")
    out = cube_sum(parts, ["src", "lang"], ["chars", "n"]).to_pandas()
    assert sorted(out["grouping_id"].unique()) == [0, 1, 2, 3]
    # lang-only level (src rolled up -> MSB set -> gid 2)
    lvl2 = out[out.grouping_id == 2]
    exp = df.groupby("lang", as_index=False)[["chars", "n"]].sum()
    got = (lvl2[["lang", "chars", "n"]].sort_values("lang")
           .reset_index(drop=True))
    pd.testing.assert_frame_equal(
        got, exp.sort_values("lang").reset_index(drop=True))
    assert lvl2["src"].isna().all()
    # every level conserves the total
    for gid in (0, 1, 2, 3):
        assert int(out[out.grouping_id == gid]["n"].sum()) == len(df)
