"""Distributed profiling/statistics operator tests: histogram, exact
distinct count, global top-k (boundary ties), column profile."""

import numpy as np
import pandas as pd
import pytest


@pytest.fixture(scope="module")
def skewed(ray_session):
    """Multi-block skewed frame: one hot key, negatives, exact-boundary
    values (-20.0/10 and 30.0/10 land ON bin edges)."""
    import ray.data

    rng = np.random.default_rng(11)
    df = pd.DataFrame({
        "k": np.where(rng.random(4000) < 0.7, "hot", "cold"),
        "v": np.concatenate([rng.uniform(-50, 50, 3996),
                             [-20.0, 30.0, -0.0, 0.0]]),
        "u": rng.integers(0, 37, 4000),
    })
    return df, ray.data.from_pandas([df.iloc[i:i + 250] for i in range(0, 4000, 250)])


def test_grouped_histogram_matches_pandas(skewed):
    from parquet_hs_ray.pipelines.stats import grouped_histogram

    df, ds = skewed
    out = (grouped_histogram(ds, "k", "v", 10.0).to_pandas()
           .sort_values(["k", "bin"]).reset_index(drop=True))
    ref = (df.assign(bin=np.floor(df["v"] / 10.0).astype(np.int64))
           .groupby(["k", "bin"]).size().reset_index(name="n")
           .astype({"n": np.int64}))
    pd.testing.assert_frame_equal(out, ref)
    assert out["n"].sum() == len(df)


def test_iqr_outlier_filter_matches_pandas(skewed):
    """Tukey fences from exact discrete quartiles: same rows survive as a
    driver-side recompute with the quantile_disc rank rule; planted
    extremes are dropped, NaN values never pass."""
    import ray.data

    from parquet_hs_ray.pipelines.stats import iqr_outlier_filter

    df, _ = skewed
    df = df.copy()
    df.loc[df.index[:3], "v"] = [1e6, -1e6, np.nan]  # planted outliers + null
    ds = ray.data.from_pandas([df.iloc[i:i + 250] for i in range(0, len(df), 250)])
    out = (iqr_outlier_filter(ds, "k", "v").to_pandas()
           .sort_values(["k", "v", "u"]).reset_index(drop=True))

    def qdisc(s, q):
        v = np.sort(s.dropna().to_numpy())
        return v[max(1, int(np.ceil(q * len(v)))) - 1]

    keep = []
    for k, g in df.groupby("k"):
        q1, q3 = qdisc(g["v"], 0.25), qdisc(g["v"], 0.75)
        lo, hi = q1 - 1.5 * (q3 - q1), q3 + 1.5 * (q3 - q1)
        keep.append(g[(g["v"] >= lo) & (g["v"] <= hi)])
    ref = (pd.concat(keep).sort_values(["k", "v", "u"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(out, ref)
    assert not out["v"].isna().any() and out["v"].abs().max() < 1e6


def test_grouped_distinct_count_exact(skewed):
    from parquet_hs_ray.pipelines.stats import grouped_distinct_count

    df, ds = skewed
    out = (grouped_distinct_count(ds, "k", "u").to_pandas()
           .sort_values("k").reset_index(drop=True))
    ref = (df.groupby("k")["u"].nunique().reset_index(name="ndv")
           .astype({"ndv": np.int64}))
    pd.testing.assert_frame_equal(out, ref)


def test_grouped_ndv_hll_accuracy_and_merge(skewed):
    """HLL estimate within 5% of exact per group (p=12 => ~1.6% stderr),
    deterministic across runs, and the register merge is associative
    (split input == whole input)."""
    from parquet_hs_ray.functions import sketches as sk
    from parquet_hs_ray.pipelines.stats import grouped_ndv_hll

    df, ds = skewed
    out = grouped_ndv_hll(ds, "k", "u")
    ref = df.groupby("k")["u"].nunique().sort_index()
    for _, row in out.iterrows():
        exact = ref[row["k"]]
        assert abs(row["ndv_hll"] - exact) <= max(2, 0.05 * exact), row
    out2 = grouped_ndv_hll(ds, "k", "u")
    pd.testing.assert_frame_equal(out, out2)

    # kernel-level: merged halves == whole; large-set accuracy
    vals = np.arange(100_000, dtype=np.uint64)
    whole = sk.hll_registers(sk._splitmix64(vals), p=12)
    halves = sk.hll_merge([sk.hll_registers(sk._splitmix64(vals[:70_000]), p=12),
                           sk.hll_registers(sk._splitmix64(vals[50_000:]), p=12)])
    assert np.array_equal(whole, halves)
    est = sk.hll_estimate(whole)
    assert abs(est - 100_000) / 100_000 < 0.05


def test_top_k_global_boundary_ties(ray_session):
    """Many rows tie at the k-th score; the winners must be the ones the
    composite (score DESC, id ASC) order prefers, regardless of which
    block held them."""
    import ray.data

    df = pd.DataFrame({"id": np.arange(100, dtype=np.int64)})
    df["score"] = np.where(df["id"] < 3, 99, 50)  # 97 rows tie at 50
    # adversarial blocking: high ids (tiebreak losers) in early blocks
    shuffled = df.iloc[::-1].reset_index(drop=True)
    ds = ray.data.from_pandas([shuffled.iloc[i:i + 10] for i in range(0, 100, 10)])
    from parquet_hs_ray.pipelines.stats import top_k_global

    out = top_k_global(ds, "score", 10, "id", columns=["id", "score"])
    ref = (df.sort_values(["score", "id"], ascending=[False, True])
           .head(10).reset_index(drop=True))
    pd.testing.assert_frame_equal(out, ref)


def test_column_profile_with_nulls(ray_session):
    import ray.data

    df = pd.DataFrame({
        "a": [1.0, 2.0, 2.0, None, 5.0, None],
        "b": [10, 10, 10, 10, 10, 20],
    })
    ds = ray.data.from_pandas([df.iloc[:3], df.iloc[3:]])
    from parquet_hs_ray.pipelines.stats import column_profile

    out = column_profile(ds, ["a", "b"]).set_index("column")
    assert out.loc["a", "n"] == 6 and out.loc["a", "n_null"] == 2
    assert out.loc["a", "vmin"] == 1.0 and out.loc["a", "vmax"] == 5.0
    assert out.loc["a", "ndv"] == 3
    assert out.loc["b", "ndv"] == 2 and out.loc["b", "n_null"] == 0


def test_column_profile_all_null(ray_session):
    """A column without a non-null value profiles as NULL min/max and
    ndv 0 (SQL ``min``/``max``/``count(DISTINCT)``), beside a non-null
    column and with no non-null column at all."""
    import ray.data

    from parquet_hs_ray.pipelines.stats import column_profile

    df = pd.DataFrame({"a": [np.nan, np.nan, np.nan], "b": [np.nan] * 3,
                       "c": [3.0, 1.0, 3.0]})
    ds = ray.data.from_pandas([df.iloc[:2], df.iloc[2:]])
    out = column_profile(ds, ["a", "c"]).set_index("column")
    assert out.loc["a", ["n", "n_null", "ndv"]].tolist() == [3, 3, 0]
    assert np.isnan(out.loc["a", "vmin"]) and np.isnan(out.loc["a", "vmax"])
    assert out.loc["c", ["vmin", "vmax"]].tolist() == [1.0, 3.0]
    assert out.loc["c", "ndv"] == 2
    none = column_profile(ds, ["a", "b"])
    assert none["column"].tolist() == ["a", "b"]
    assert none["ndv"].tolist() == [0, 0] and none["n_null"].tolist() == [3, 3]
    assert none[["vmin", "vmax"]].isna().all().all()


def test_pivot_sum_matches_pandas(ray_session):
    """Wide per-key category sums (integer cents) match a pandas twin;
    absent categories are zero-filled, unknown ones ignored."""
    import ray.data

    from parquet_hs_ray.pipelines.stats import pivot_sum

    rng = np.random.default_rng(19)
    n = 3000
    df = pd.DataFrame({
        "k": rng.integers(0, 50, n),
        "c": rng.choice(["a", "b", "zzz"], n),  # 'zzz' not in categories
        "v": np.round(rng.uniform(-10, 10, n), 3),
    })
    # key 999 only has 'b' rows -> a_cents must be 0 for it
    df.loc[:4, ["k", "c"]] = [[999, "b"]] * 5
    ds = ray.data.from_pandas([df.iloc[i:i + 200] for i in range(0, n, 200)])
    out = (pivot_sum(ds, "k", "c", "v", ["a", "b", "missing"]).to_pandas()
           .sort_values("k").reset_index(drop=True))

    cents = np.round(df["v"].to_numpy() * 100.0).astype(np.int64)
    exp = (pd.DataFrame({"k": df["k"], "c": df["c"], "v": cents})
           .pivot_table(index="k", columns="c", values="v",
                        aggfunc="sum", fill_value=0)
           .reindex(columns=["a", "b", "missing"], fill_value=0)
           .reset_index())
    exp.columns = ["k", "a_cents", "b_cents", "missing_cents"]
    exp = exp.astype({c: np.int64 for c in exp.columns[1:]})
    pd.testing.assert_frame_equal(out, exp.sort_values("k").reset_index(drop=True),
                                  check_names=False)
    assert (out["missing_cents"] == 0).all()
    assert out.loc[out["k"] == 999, "a_cents"].iloc[0] == 0


def test_grouped_mode_ties_and_nulls(ray_session):
    """Mode per group with deterministic smallest-value tie-break; nulls
    never count as a mode candidate."""
    import ray.data

    from parquet_hs_ray.pipelines.stats import grouped_mode

    df = pd.DataFrame({
        "k": ["a"] * 6 + ["b"] * 4,
        "v": pd.array([5, 5, 3, 3, 9, None, 2, 2, 7, 7], dtype="Int64"),
    })
    ds = ray.data.from_pandas([df.iloc[:4], df.iloc[4:7], df.iloc[7:]])
    out = (grouped_mode(ds, "k", "v").to_pandas()
           .sort_values("k").reset_index(drop=True))
    # group a: 5 and 3 tie at 2 -> 3 wins (smallest); group b: 2 and 7 tie -> 2
    assert out["k"].tolist() == ["a", "b"]
    assert out["mode_value"].tolist() == [3, 2]
    assert out["n"].tolist() == [2, 2]


def test_percent_rank_matches_pandas(skewed):
    """Min-rank tie semantics and the (r-1)/(n-1) division must equal a
    driver-side recompute; single-value input yields 0.0."""
    import ray.data

    from parquet_hs_ray.pipelines.stats import percent_rank

    df, ds = skewed
    out = (percent_rank(ds, "v", id_cols=["u"]).to_pandas()
           .sort_values(["v", "u"]).reset_index(drop=True))
    r = df["v"].rank(method="min")
    ref = (pd.DataFrame({"u": df["u"], "v": df["v"],
                         "pr": (r - 1) / (len(df) - 1)})
           .sort_values(["v", "u"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(out, ref)

    one = ray.data.from_pandas(pd.DataFrame({"v": [7.0], "u": [1]}))
    assert percent_rank(one, "v", id_cols=["u"]).to_pandas()["pr"].iloc[0] == 0.0


def test_grouped_quantile_sketch_accuracy_and_layout(skewed):
    """Bottom-k quantile sketch: estimates within sampling error of the
    exact quantiles, identical across block layouts (layout-independent
    merge), and exact when a group has <= k rows."""
    import ray.data

    from parquet_hs_ray.pipelines.stats import grouped_quantile_sketch

    df, _ = skewed
    df = df.copy()
    df["rid"] = np.arange(len(df), dtype=np.int64)
    outs = []
    for nb in (4, 13):
        ds = ray.data.from_pandas([df.iloc[i::nb].reset_index(drop=True)
                                   for i in range(nb)])
        outs.append(grouped_quantile_sketch(ds, "k", "v", "rid",
                                            (0.5, 0.95), k=512))
    pd.testing.assert_frame_equal(outs[0], outs[1])  # layout-independent

    def qdisc(s, q):
        v = np.sort(s.to_numpy())
        return v[max(1, int(np.ceil(q * len(v)))) - 1]

    out = outs[0].set_index("k")
    for g, grp in df.groupby("k"):
        # 512-sample quantile of ~1200-2800 rows: generous 10-percentile band
        for q, name in [(0.5, "p50_est"), (0.95, "p95_est")]:
            lo, hi = qdisc(grp["v"], max(0.01, q - 0.1)), qdisc(grp["v"], min(1.0, q + 0.1))
            assert lo <= out.loc[g, name] <= hi, (g, name)

    # a group smaller than k is sampled whole -> exact quantile_disc
    small = df.head(100).assign(k="tiny")
    ds = ray.data.from_pandas([small.iloc[:50], small.iloc[50:]])
    o = grouped_quantile_sketch(ds, "k", "v", "rid", (0.5,), k=512)
    assert o["p50_est"].iloc[0] == qdisc(small["v"], 0.5)


def test_grouped_corr_matches_numpy(skewed):
    """Integer-quantized Pearson r equals np.corrcoef on the quantized
    values; a perfectly linear group scores exactly 1.0; zero-variance
    groups are dropped."""
    import ray.data

    from parquet_hs_ray.pipelines.stats import grouped_corr

    df, _ = skewed
    df = df.copy()
    lin = pd.DataFrame({"k": "lin", "v": np.arange(50, dtype=np.float64),
                        "u": 3 * np.arange(50) + 7})
    const = pd.DataFrame({"k": "const", "v": [1.0] * 20,
                          "u": np.arange(20)})
    df = pd.concat([df, lin, const], ignore_index=True)
    ds = ray.data.from_pandas([df.iloc[i::7].reset_index(drop=True)
                               for i in range(7)])
    out = (grouped_corr(ds, "k", "v", "u", x_scale=100, y_scale=1)
           .to_pandas().set_index("k"))
    assert "const" not in out.index  # zero x-variance dropped
    assert out.loc["lin", "corr"] == 1.0
    for g in ("hot", "cold"):
        grp = df[df["k"] == g]
        x = np.round(grp["v"].to_numpy() * 100)
        y = grp["u"].to_numpy(dtype=np.float64)
        ref = np.corrcoef(x, y)[0, 1]
        assert abs(out.loc[g, "corr"] - ref) < 1e-12, g
        assert out.loc[g, "n"] == len(grp)


def test_target_encode_loo_semantics(ray_session):
    """LOO mean excludes the row itself; singleton groups drop; plain
    mean matches brute force in cents."""
    import ray.data

    from parquet_hs_ray.pipelines.stats import target_encode

    df = pd.DataFrame({
        "id": np.arange(6, dtype=np.int64),
        "k": ["a", "a", "a", "b", "b", "solo"],
        "v": [1.0, 2.0, 3.0, 10.0, 20.0, 99.0],
    })
    ds = ray.data.from_pandas([df.iloc[:3], df.iloc[3:]])
    out = (target_encode(ds, "k", "v", id_cols=["id", "k"]).to_pandas()
           .sort_values("id").reset_index(drop=True))
    assert "solo" not in set(out["k"])  # n == 1 dropped
    a = out[out["k"] == "a"].set_index("id")
    assert a.loc[0, "loo_mean_cents"] == (200 + 300) / 2
    assert a.loc[1, "loo_mean_cents"] == (100 + 300) / 2
    assert (a["mean_cents"] == 200.0).all()
    b = out[out["k"] == "b"].set_index("id")
    assert b.loc[3, "loo_mean_cents"] == 2000.0
    assert b.loc[4, "loo_mean_cents"] == 1000.0


def test_category_balance_known_values(ray_session):
    """Uniform 2-cat group -> entropy ln(2), gini 0.5; single-cat group ->
    exactly 0.0 (not -0.0); counts exact across blocks."""
    import math

    import ray.data

    from parquet_hs_ray.pipelines.stats import category_balance

    df = pd.DataFrame({
        "k": ["u"] * 4 + ["s"] * 3 + ["mix"] * 4,
        "c": ["a", "b", "a", "b", "x", "x", "x", "a", "a", "a", "b"],
    })
    ds = ray.data.from_pandas([df.iloc[:5], df.iloc[5:]])
    out = category_balance(ds, "k", "c").to_pandas().set_index("k")
    assert out.loc["u", "entropy"] == -(0.5 * math.log(0.5)) * 2
    assert out.loc["u", "gini"] == 0.5
    assert out.loc["s", "entropy"] == 0.0
    assert str(out.loc["s", "entropy"]) == "0.0"  # +0.0, not -0.0
    assert out.loc["s", "gini"] == 0.0
    p1, p2 = 3 / 4, 1 / 4
    ent = 0.0
    for p in (p1, p2):
        ent = ent + (-(p * math.log(p)))
    assert out.loc["mix", "entropy"] == ent
    assert out.loc["mix", "n_cats"] == 2 and out.loc["mix", "n"] == 4


def test_source_quality_profile(ray_session):
    import ray.data

    from parquet_hs_ray.pipelines.stats import source_quality_profile

    df = pd.DataFrame({
        "source": ["a", "a", "a", "b", "b"],
        "text": ["hello", "", "   ", "x y", None],
        "lang": ["en", "en", "de", "fr", "fr"],
        "n_chars": [5, 0, 3, 3, 0],
    })
    ds = ray.data.from_pandas([df.iloc[:2], df.iloc[2:]])
    out = source_quality_profile(ds).to_pandas().set_index("source")
    assert out.loc["a", "n_docs"] == 3 and out.loc["a", "n_empty"] == 2
    assert out.loc["a", "min_chars"] == 0 and out.loc["a", "max_chars"] == 5
    assert out.loc["a", "n_langs"] == 2
    assert out.loc["b", "n_empty"] == 1 and out.loc["b", "n_langs"] == 1


def test_winsorize_clips_at_discrete_quantiles(ray_session):
    import ray.data

    from parquet_hs_ray.pipelines.stats import winsorize

    rng = np.random.default_rng(33)
    v = np.concatenate([rng.normal(0, 1, 2000), [50.0, -50.0]])  # outliers
    df = pd.DataFrame({"id": np.arange(len(v)), "value": v})
    ds = ray.data.from_pandas([df.iloc[i::4].reset_index(drop=True)
                               for i in range(4)])
    out = (winsorize(ds, "value", 0.01, 0.99, out_col="w").to_pandas()
           .sort_values("id").reset_index(drop=True))
    s = np.sort(v)
    n = len(v)
    lo = s[max(1, int(np.ceil(0.01 * n))) - 1]
    hi = s[max(1, int(np.ceil(0.99 * n))) - 1]
    exp = np.clip(df["value"].to_numpy(), lo, hi)
    np.testing.assert_array_equal(out["w"].to_numpy(), exp)
    assert out["w"].max() == hi and out["w"].min() == lo
    # in-place mode overwrites the column
    out2 = winsorize(ds, "value", 0.01, 0.99).to_pandas()
    assert out2["value"].max() == hi


def test_scale_minmax_groups_and_constant(ray_session):
    import ray.data

    from parquet_hs_ray.pipelines.stats import scale_minmax

    df = pd.DataFrame({"g": ["a"] * 4 + ["b"] * 3,
                       "v": [0.0, 5.0, 10.0, 2.5, 7.0, 7.0, 7.0],
                       "id": range(7)})
    ds = ray.data.from_pandas([df.iloc[:4], df.iloc[4:].reset_index(drop=True)])
    out = (scale_minmax(ds, "v", "g").to_pandas()
           .sort_values("id").reset_index(drop=True))
    assert out["scaled"].tolist()[:4] == [0.0, 0.5, 1.0, 0.25]
    assert out["scaled"].tolist()[4:] == [0.0, 0.0, 0.0]  # constant group


def test_dense_rank_ties_no_gaps(ray_session):
    import ray.data

    from parquet_hs_ray.pipelines.stats import dense_rank

    df = pd.DataFrame({"g": ["a"] * 5 + ["b"] * 3,
                       "v": [10, 10, 20, 30, 30, 5, 5, 6],
                       "id": range(8)})
    ds = ray.data.from_pandas([df.iloc[:4], df.iloc[4:].reset_index(drop=True)])
    out = (dense_rank(ds, "v", "g").to_pandas()
           .sort_values("id").reset_index(drop=True))
    assert out["drank"].tolist() == [1, 1, 2, 3, 3, 1, 1, 2]


def test_zscore_matches_pandas(ray_session):
    import ray.data

    from parquet_hs_ray.pipelines.stats import zscore

    rng = np.random.default_rng(41)
    df = pd.DataFrame({"g": np.array(["a", "b", "c"])[rng.integers(0, 3, 900)],
                       "v": np.round(rng.normal(10, 3, 900), 2),
                       "id": range(900)})
    df.loc[len(df)] = ["solo", 1.0, 900]  # n=1 group must be dropped
    ds = ray.data.from_pandas([df.iloc[i::4].reset_index(drop=True)
                               for i in range(4)])
    out = (zscore(ds, "v", "g").to_pandas()
           .sort_values("id").reset_index(drop=True))
    assert "solo" not in set(out["g"])
    xc = np.round(df["v"].to_numpy() * 100)
    ref = df.assign(xc=xc).groupby("g")["xc"].agg(["count", "mean", "std"])
    m = df["g"] != "solo"
    exp = ((xc[m] - ref["mean"].reindex(df["g"][m]).to_numpy())
           / ref["std"].reindex(df["g"][m]).to_numpy())
    np.testing.assert_allclose(out["z"].to_numpy(), exp, rtol=1e-12)


def test_zscore_nulls_excluded_everywhere(ray_session):
    import ray.data

    from parquet_hs_ray.pipelines.stats import zscore

    df = pd.DataFrame({"g": ["a"] * 4, "v": [1.0, 2.0, 3.0, np.nan],
                       "id": range(4)})
    out = zscore(ray.data.from_pandas(df), "v", "g").to_pandas()
    # the NULL row is dropped, and n=3 stats give z(1.0) = -1.0 exactly
    assert len(out) == 3
    assert abs(out.sort_values("id")["z"].iloc[0] + 1.0) < 1e-12


def test_dense_rank_nulls_last_int64(ray_session):
    import ray.data

    from parquet_hs_ray.pipelines.stats import dense_rank

    df = pd.DataFrame({"g": ["a"] * 3 + ["b"], "v": [10.0, np.nan, 20.0, np.nan],
                       "id": range(4)})
    out = (dense_rank(ray.data.from_pandas(df), "v", "g").to_pandas()
           .sort_values("id").reset_index(drop=True))
    assert out["drank"].tolist() == [1, 3, 2, 1]  # NULLs last; all-null -> 1
    assert str(out["drank"].dtype) == "int64"


def test_winsorize_all_null_keeps_out_col(ray_session):
    import ray.data

    from parquet_hs_ray.pipelines.stats import winsorize

    df = pd.DataFrame({"id": [1, 2], "v": [np.nan, np.nan]})
    out = winsorize(ray.data.from_pandas(df), "v", out_col="w").to_pandas()
    assert "w" in out.columns and out["w"].isna().all()


def test_sample_fraction_empty_batch(ray_session):
    import ray.data

    from parquet_hs_ray.pipelines.text_analysis import sample_fraction

    empty = ray.data.from_pandas(pd.DataFrame({"doc_id": pd.Series([], dtype=object)}))
    assert sample_fraction(empty, 0.5).count() == 0


def test_grouped_mad_matches_reference(ray_session):
    import ray.data

    from parquet_hs_ray.pipelines.stats import grouped_mad

    rng = np.random.default_rng(47)
    df = pd.DataFrame({"g": np.array(["a", "b"])[rng.integers(0, 2, 801)],
                       "v": np.round(rng.normal(5, 2, 801), 2)})
    ds = ray.data.from_pandas([df.iloc[i::4].reset_index(drop=True)
                               for i in range(4)])
    out = (grouped_mad(ds, "g", "v").to_pandas()
           .sort_values("g").reset_index(drop=True))

    def disc_median(x):
        s = np.sort(x)
        return s[max(1, int(np.ceil(0.5 * len(s)))) - 1]

    for _, row in out.iterrows():
        x = df[df["g"] == row["g"]]["v"].to_numpy()
        med = disc_median(x)
        assert row["median"] == med
        assert row["mad"] == disc_median(np.abs(x - med))


def test_grouped_argmax_latest_row_with_ties_and_nulls(ray_session):
    """Max and min paths vs a pandas window twin: ties on the order
    column break by tiebreak in the same direction; NULL order rows
    never win; groups straddling blocks merge correctly."""
    import ray.data

    from parquet_hs_ray.pipelines.stats import grouped_argmax

    df = pd.DataFrame({
        "g":  ["a", "a", "a", "b", "b", "c", "c", "d"],
        "t":  [5.0, 5.0, 1.0, 7.0, np.nan, 3.0, 3.0, np.nan],
        "id": [1,   2,   3,   4,   5,      7,   6,   8],
        "v":  [10,  20,  30,  40,  50,     60,  70,  80]})
    ds = ray.data.from_pandas([df.iloc[:3], df.iloc[3:6], df.iloc[6:]])

    mx = (grouped_argmax(ds, "g", "t", ["v"], "id", how="max")
          .to_pandas().set_index("g").sort_index())
    # a: tie at t=5 -> max id (2); b: NaN never wins -> id 4;
    # c: tie at t=3 (straddles nothing here but dup order) -> id 7;
    # d: only row has NULL order -> group vanishes
    assert mx.index.tolist() == ["a", "b", "c"]
    assert mx.loc["a", "id"] == 2 and mx.loc["a", "v"] == 20
    assert mx.loc["b", "id"] == 4
    assert mx.loc["c", "id"] == 7 and mx.loc["c", "v"] == 60

    mn = (grouped_argmax(ds, "g", "t", ["v"], "id", how="min")
          .to_pandas().set_index("g").sort_index())
    assert mn.loc["a", "id"] == 3                # strict min t=1
    assert mn.loc["c", "id"] == 6                # tie -> min id
    with pytest.raises(ValueError, match="max"):
        grouped_argmax(ds, "g", "t", ["v"], "id", how="latest")


def test_grouped_argmax_straddling_groups_random(ray_session):
    """Random multi-block data vs the pandas sort/drop_duplicates twin."""
    import ray.data

    from parquet_hs_ray.pipelines.stats import grouped_argmax

    rng = np.random.default_rng(11)
    df = pd.DataFrame({"g": rng.integers(0, 25, 2000),
                       "t": rng.integers(0, 50, 2000),
                       "id": np.arange(2000, dtype=np.int64),
                       "v": rng.normal(size=2000)})
    ds = ray.data.from_pandas([df.iloc[i:i + 250] for i in range(0, 2000, 250)])
    got = (grouped_argmax(ds, "g", "t", ["v"], "id")
           .to_pandas().sort_values("g").reset_index(drop=True))
    exp = (df.sort_values(["g", "t", "id"], kind="mergesort")
           .drop_duplicates(subset=["g"], keep="last")
           .sort_values("g").reset_index(drop=True)[got.columns])
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_grouped_quantile_cont_matches_numpy_linear(ray_session):
    """Interpolated quantiles == numpy's 'linear' method (same h=(n-1)q
    rank rule) on random data with heavy duplicate values + NULLs."""
    import ray.data

    from parquet_hs_ray.pipelines.stats import grouped_quantile_cont

    rng = np.random.default_rng(23)
    v = np.round(rng.normal(10, 3, 1500), 1)     # heavy duplicates
    v[rng.random(1500) < 0.05] = np.nan
    df = pd.DataFrame({"g": rng.integers(0, 4, 1500), "v": v})
    ds = ray.data.from_pandas([df.iloc[i::3].reset_index(drop=True)
                               for i in range(3)])
    out = (grouped_quantile_cont(ds, "g", "v", qs=(0.25, 0.5, 0.9))
           .to_pandas().set_index("g").sort_index())
    for g in range(4):
        x = df[df["g"] == g]["v"].dropna().to_numpy()
        for q, name in [(0.25, "p25_c"), (0.5, "p50_c"), (0.9, "p90_c")]:
            assert np.isclose(out.loc[g, name],
                              np.quantile(x, q, method="linear"),
                              rtol=0, atol=1e-12), (g, q)
    # single-value group: d irrelevant, returns the value itself
    one = ray.data.from_pandas(pd.DataFrame({"g": ["z"], "v": [3.5]}))
    o1 = grouped_quantile_cont(one, "g", "v", qs=(0.5,)).to_pandas()
    assert o1["p50_c"].iloc[0] == 3.5


def test_grouped_regression_matches_polyfit_and_degenerate(ray_session):
    """Five-sum OLS == numpy lstsq fit per group; a group with zero
    x-variance yields NULL slope/intercept instead of inf/nan noise;
    NULL x or y rows are excluded."""
    import ray.data

    from parquet_hs_ray.pipelines.stats import grouped_regression

    rng = np.random.default_rng(31)
    n = 1200
    df = pd.DataFrame({"g": rng.integers(0, 3, n),
                       "x": rng.integers(0, 500, n).astype(np.float64),
                       "y": rng.integers(-100, 100, n).astype(np.float64)})
    df.loc[df.index[:20], "x"] = np.nan          # dropped
    const = pd.DataFrame({"g": [9, 9, 9], "x": [5.0, 5.0, 5.0],
                          "y": [1.0, 2.0, 3.0]})  # zero x-variance
    full = pd.concat([df, const], ignore_index=True)
    ds = ray.data.from_pandas([full.iloc[i::4].reset_index(drop=True)
                               for i in range(4)])
    out = (grouped_regression(ds, "g", "x", "y")
           .to_pandas().set_index("g").sort_index())

    for g in range(3):
        sub = df[(df["g"] == g) & df["x"].notna()]
        slope, intercept = np.polyfit(sub["x"], sub["y"], 1)
        assert np.isclose(out.loc[g, "slope"], slope, atol=1e-9)
        assert np.isclose(out.loc[g, "intercept"], intercept, atol=1e-9)
        assert out.loc[g, "n"] == len(sub)
    assert np.isnan(out.loc[9, "slope"]) and np.isnan(out.loc[9, "intercept"])


def test_cume_dist_ties_share_max_rank(ray_session):
    """cume_dist vs the pandas rank(method='max')/n twin on heavy-tie
    data with NULLs dropped; single-distinct-value input gives 1.0."""
    import ray.data

    from parquet_hs_ray.pipelines.stats import cume_dist

    rng = np.random.default_rng(5)
    v = rng.integers(0, 10, 500).astype(np.float64)
    v[rng.random(500) < 0.1] = np.nan
    df = pd.DataFrame({"id": np.arange(500, dtype=np.int64), "v": v})
    ds = ray.data.from_pandas([df.iloc[i::3].reset_index(drop=True)
                               for i in range(3)])
    out = (cume_dist(ds, "v", id_cols=["id"]).to_pandas()
           .sort_values("id").reset_index(drop=True))
    sub = df.dropna(subset=["v"]).sort_values("id").reset_index(drop=True)
    exp = sub["v"].rank(method="max").to_numpy() / len(sub)
    assert np.array_equal(out["cd"].to_numpy(), exp)
    assert len(out) == len(sub)

    one = ray.data.from_pandas(pd.DataFrame({"id": [1, 2], "v": [7.0, 7.0]}))
    o1 = cume_dist(one, "v", id_cols=["id"]).to_pandas()
    assert (o1["cd"] == 1.0).all()


def test_percent_rank_and_cume_dist_all_null_input(ray_session):
    """Zero non-null values: both rank transforms return an empty,
    well-formed frame instead of raising on the missing histogram."""
    import ray.data

    from parquet_hs_ray.pipelines.stats import cume_dist, percent_rank

    ds = ray.data.from_pandas(pd.DataFrame(
        {"id": [1, 2], "v": [np.nan, np.nan]}))
    assert percent_rank(ds, "v", id_cols=["id"]).count() == 0
    assert cume_dist(ds, "v", id_cols=["id"]).count() == 0


def test_impute_median_fills_per_group_and_keeps_all_null_groups(ray_session):
    """Fill equals the group's discrete median; non-null rows pass
    through untouched; a group with zero non-null values keeps NULL."""
    import ray.data

    from parquet_hs_ray.pipelines.stats import impute_median

    df = pd.DataFrame({
        "id": np.arange(10, dtype=np.int64),
        "g": ["a"] * 5 + ["b"] * 3 + ["c"] * 2,
        "v": [1.0, np.nan, 3.0, 2.0, np.nan,
              10.0, np.nan, 20.0,
              np.nan, np.nan]})
    ds = ray.data.from_pandas([df.iloc[:4], df.iloc[4:]])
    out = (impute_median(ds, "g", "v", id_cols=["id"]).to_pandas()
           .sort_values("id").reset_index(drop=True))
    # a: non-null {1,2,3} -> disc median 2; b: {10,20} -> rank ceil(.5*2)=1 -> 10
    assert out.loc[1, "v"] == 2.0 and out.loc[4, "v"] == 2.0
    assert out.loc[6, "v"] == 10.0
    assert out.loc[0, "v"] == 1.0 and not out.loc[0, "was_null"]
    assert out.loc[1, "was_null"] and out.loc[6, "was_null"]
    # c: all-null group stays NULL
    assert np.isnan(out.loc[8, "v"]) and np.isnan(out.loc[9, "v"])


def test_cms_top_terms_guarantees(ray_session):
    """Count-min sketch: overestimate-only vs exact counts, planted heavy
    hitter ranks first, and the result is block-layout-independent."""
    import ray.data

    from parquet_hs_ray.pipelines.stats import cms_top_terms

    rng = np.random.default_rng(3)
    vocab = [f"w{i:03d}" for i in range(120)]
    texts = [" ".join(rng.choice(vocab, size=30)) for _ in range(80)]
    texts += ["pumpkin " * 400]  # planted heavy hitter (400 occurrences)
    df = pd.DataFrame({"text": texts})

    out = cms_top_terms(ray.data.from_pandas(df), k=10,
                        depth=4, width=512).to_pandas()
    assert out.iloc[0]["term"] == "pumpkin"
    assert out.iloc[0]["est_count"] >= 400  # overestimate-only

    # est >= true for every reported term (exact counts via the same
    # whitespace/lower tokenization)
    from collections import Counter
    true = Counter(w for t in texts for w in t.lower().split())
    for _, r in out.iterrows():
        assert r["est_count"] >= true[r["term"]], r["term"]

    # layout independence: 1 block vs 7 blocks -> identical table
    parts = np.array_split(df, 7)
    out7 = cms_top_terms(ray.data.from_pandas([p for p in parts if len(p)]),
                         k=10, depth=4, width=512).to_pandas()
    assert out.equals(out7)

    # empty corpus -> empty result with the right schema
    e = cms_top_terms(ray.data.from_pandas(pd.DataFrame({"text": [""]})),
                      k=5).to_pandas()
    assert list(e.columns) == ["term", "est_count"] and len(e) == 0


def test_validate_rules_match_python(ray_session):
    """validate(): every rule kind vs a direct pandas computation on a
    multi-block frame with NULLs, duplicate keys, and regex misses."""
    import ray.data

    from parquet_hs_ray.pipelines.validate import validate

    df = pd.DataFrame({
        "id": [1, 2, 2, 3, 4, 5, 5, 6, 7, 8],
        "val": [0.5, None, 3.0, -1.0, 10.0, None, 2.0, 99.0, 5.0, 7.0],
        "cat": ["a", "b", "c", "a", None, "b", "z", "a", "b", "c"],
        "txt": ["k=1", "k=2", "nope", None, "k=9", "k=3", "x", "k=4", "k=5", "k=6"],
    })
    ds = ray.data.from_pandas([df.iloc[:3], df.iloc[3:6], df.iloc[6:]])
    rules = [
        ("not_null", "val"),
        ("unique", "id"),
        ("range", "val", 0.0, 9.0),
        ("in_set", "cat", ["a", "b", "c"]),
        ("regex", "txt", r"k=\d"),
    ]
    out = validate(ds, rules).to_pandas().set_index("rule")

    assert out.loc["not_null(val)", "n_violations"] == 2
    assert out.loc["not_null(val)", "n_checked"] == 10
    # unique: 10 non-null ids, 8 distinct -> 2 violations
    assert out.loc["unique(id)", "n_checked"] == 10
    assert out.loc["unique(id)", "n_violations"] == 2
    # range [0,9]: -1.0 and 10.0 and 99.0 violate; NULLs don't
    assert out.loc["range(val,0.0,9.0)", "n_violations"] == 3
    # in_set: 'z' violates; NULL doesn't
    assert out.loc["in_set(cat)", "n_violations"] == 1
    # regex search: 'nope' and 'x' miss; NULL doesn't count
    assert out.loc["regex(txt)", "n_violations"] == 2

    with pytest.raises(ValueError):
        validate(ds, [("bogus", "id")])
    with pytest.raises(ValueError):
        validate(ds, [("range", "val", 1.0)])


def test_validate_unique_only_and_empty_blocks(ray_session):
    """unique-only rule set (no row rules) and blocks that contribute
    nothing still sum correctly."""
    import ray.data

    from parquet_hs_ray.pipelines.validate import validate

    df = pd.DataFrame({"id": [1, 1, 1, 2, None]})
    ds = ray.data.from_pandas([df.iloc[:2], df.iloc[2:4], df.iloc[4:]])
    out = validate(ds, [("unique", "id")]).to_pandas()
    assert len(out) == 1
    assert out.loc[0, "n_checked"] == 4       # NULL not counted
    assert out.loc[0, "n_violations"] == 2    # 4 non-null, 2 distinct


def test_validate_all_null_unique_and_empty_input(ray_session):
    """unique over an all-NULL column and a 0-row dataset: no crash, 0/0
    counts (the empty distinct reduction loses its schema — guarded)."""
    import ray.data

    from parquet_hs_ray.pipelines.validate import validate

    allnull = pd.DataFrame({"id": pd.Series([None, None], dtype=object)})
    out = validate(ray.data.from_pandas(allnull),
                   [("unique", "id")]).to_pandas()
    assert out.loc[0, "n_checked"] == 0 and out.loc[0, "n_violations"] == 0

    empty = pd.DataFrame({"id": pd.Series([], dtype=np.int64)})
    out2 = validate(ray.data.from_pandas(empty),
                    [("unique", "id"), ("not_null", "id")]).to_pandas()
    assert (out2["n_checked"] == 0).all() and (out2["n_violations"] == 0).all()


def test_rank_with_gaps_ties_skip(ray_session):
    import ray.data

    from parquet_hs_ray.pipelines.stats import rank_with_gaps

    df = pd.DataFrame({"g": ["a"] * 5 + ["b"] * 3,
                       "v": [10, 10, 20, 30, 30, 5, 5, 6],
                       "id": range(8)})
    ds = ray.data.from_pandas([df.iloc[:4], df.iloc[4:].reset_index(drop=True)])
    out = (rank_with_gaps(ds, "v", "g").to_pandas()
           .sort_values("id").reset_index(drop=True))
    # ties share, next value SKIPS: [1,1,3,4,4] and [1,1,3]
    assert out["rnk"].tolist() == [1, 1, 3, 4, 4, 1, 1, 3]


def test_rank_with_gaps_nulls_last(ray_session):
    import ray.data

    from parquet_hs_ray.pipelines.stats import rank_with_gaps

    df = pd.DataFrame({"g": ["a"] * 4 + ["b"],
                       "v": [10.0, 10.0, np.nan, 20.0, np.nan],
                       "id": range(5)})
    out = (rank_with_gaps(ray.data.from_pandas(df), "v", "g").to_pandas()
           .sort_values("id").reset_index(drop=True))
    # a: [1,1,4(null: 3 non-null + 1),3]; b all-null -> 1
    assert out["rnk"].tolist() == [1, 1, 4, 3, 1]
    assert str(out["rnk"].dtype) == "int64"


def test_grouped_quantiles_cardinality_guard(ray_session):
    """A continuous float column trips the guard: auto-routes to the KMV
    sketch when id_col is given, raises with a pointer otherwise; a
    bounded-cardinality column stays on the exact path (r3 verdict #6)."""
    import numpy as np
    import pandas as pd
    import pytest
    import ray.data

    from parquet_hs_ray.pipelines.stats import grouped_quantiles

    rng = np.random.default_rng(7)
    n = 4096
    cont = pd.DataFrame({
        "k": rng.integers(0, 3, n),
        "v": rng.random(n),              # continuous: ~all distinct
        "rid": np.arange(n, dtype=np.int64),
    })
    ds = ray.data.from_pandas(cont)
    with pytest.raises(ValueError, match="sketch"):
        grouped_quantiles(ds, "k", "v", (0.5,))
    routed = grouped_quantiles(ds, "k", "v", (0.5,), id_col="rid")
    # the route is NOT a data-dependent API break: same return type
    # (Dataset) and same column names as the exact path
    assert isinstance(routed, ray.data.Dataset)
    rdf = routed.to_pandas()
    assert "p50" in rdf.columns and len(rdf) == 3
    # routed values are KMV estimates: within sketch error of the truth
    truth = cont.groupby("k")["v"].quantile(0.5)
    for _, r in rdf.iterrows():
        assert abs(r["p50"] - truth[r["k"]]) < 0.05

    disc = cont.assign(v=np.round(cont["v"], 1))  # 11 distinct values
    exact = grouped_quantiles(ray.data.from_pandas(disc), "k", "v",
                              (0.5,)).to_pandas()
    assert "p50" in exact.columns and len(exact) == 3
