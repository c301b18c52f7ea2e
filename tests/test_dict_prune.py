"""Dictionary-membership pruning (parquet-mr's "dictionary
filtering"): equality predicates prune row groups by probing ONLY the
chunk's dictionary page, valid when PageEncodingStats (ColumnMetaData
field 13 — now emitted by our writer, parsed by our footer parser)
prove every data page is dict-encoded.  Works on files from ANY
writer; no write-time opt-in."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from parquet_hs_ray.sources.parquet_footer import read_footer_via_kernels
from parquet_hs_ray.sources.parquet_pages import (
    _dict_contains, prune_row_groups_by_dict, read_chunk_dictionary)
from parquet_hs_ray.sources.parquet_writer import write_parquet_via_kernels


@pytest.fixture(scope="module")
def dict_files(tmp_path_factory):
    rng = np.random.default_rng(2)
    n = 64000
    tags = [f"t{int(x)}" for x in rng.integers(0, 50, n)]
    tags[:8000] = ["only_in_rg0"] * 8000
    t = pa.table({"tag": pa.array(tags),
                  "code": pa.array((np.arange(n) % 37).astype(np.int64)),
                  "x": pa.array(np.arange(n))})
    d = tmp_path_factory.mktemp("dictprune")
    ours = str(d / "ours.parquet")
    write_parquet_via_kernels(t, ours, compression="SNAPPY",
                              row_group_size=8000)
    theirs = str(d / "pyarrow.parquet")
    pq.write_table(t, theirs, row_group_size=8000)
    return ours, theirs, t


def test_encoding_stats_roundtrip(dict_files):
    ours, theirs, t = dict_files
    for p in (ours, theirs):
        km = read_footer_via_kernels(p)
        es = km.row_groups[0].columns[0].encoding_stats
        assert es is not None
        # exactly one dict page; every data page dict-encoded
        assert [e for e in es if e[0] == 2]
        assert all(e[1] in (2, 8) for e in es if e[0] in (0, 3))
    # our emitted stats are readable by pyarrow's metadata API too
    assert "PLAIN_DICTIONARY" in pq.ParquetFile(ours).metadata.row_group(
        0).column(0).encodings


def test_dict_page_only_read(dict_files):
    ours, _, t = dict_files
    km = read_footer_via_kernels(ours)
    d = read_chunk_dictionary(ours, km, 0, 0)
    assert len(d) == 1  # rg0 holds a single distinct tag
    assert _dict_contains(d, "only_in_rg0", "BYTE_ARRAY")
    assert not _dict_contains(d, "t7", "BYTE_ARRAY")
    d1 = read_chunk_dictionary(ours, km, 1, 0)
    assert len(d1) == 50


def test_prune_by_dict_both_writers(dict_files):
    ours, theirs, t = dict_files
    n_rg = 8
    for p in (ours, theirs):
        km = read_footer_via_kernels(p)
        # value unique to rg0 -> exactly rg0 survives
        assert prune_row_groups_by_dict(
            km, [("tag", "==", "only_in_rg0")], p) == [0]
        # absent value -> nothing survives
        assert prune_row_groups_by_dict(
            km, [("tag", "==", "absent")], p) == []
        # common value -> rg0 (whose dict lacks it) pruned, rest kept
        assert prune_row_groups_by_dict(
            km, [("tag", "==", "t7")], p) == list(range(1, n_rg))
        # int dict column
        assert prune_row_groups_by_dict(
            km, [("code", "==", 36)], p) == list(range(n_rg))
        assert prune_row_groups_by_dict(
            km, [("code", "==", 999)], p) == []
        # non-== predicates and unknown columns never prune
        assert prune_row_groups_by_dict(
            km, [("tag", ">", "a")], p) == list(range(n_rg))
        # unjudgeable probe type keeps everything (one-sided)
        assert prune_row_groups_by_dict(
            km, [("tag", "==", 5)], p) == list(range(n_rg))


def test_in_predicate_end_to_end(dict_files, ray_session):
    """The 'in' predicate: stats accept any member in [lo, hi], bloom
    and dictionary pruning accept any member present, and the exact
    filter is pc.is_in over the decoded rows."""
    from parquet_hs_ray.sources.kernel_sink import read_parquet_kernels

    ours, _, t = dict_files
    km = read_footer_via_kernels(ours)
    n_rg = 8
    # dict prune keeps the union of the members' groups
    assert prune_row_groups_by_dict(
        km, [("tag", "in", ["only_in_rg0", "nope"])], ours) == [0]
    assert prune_row_groups_by_dict(
        km, [("tag", "in", ["only_in_rg0", "t7"])], ours) == \
        list(range(n_rg))
    assert prune_row_groups_by_dict(
        km, [("tag", "in", ["no1", "no2"])], ours) == []
    # distributed read: rows for exactly the members, schema stable
    got = read_parquet_kernels(
        ours, predicate=("tag", "in", ["only_in_rg0", "nope"])).materialize()
    assert got.count() == 8000
    assert got.num_blocks() == 1
    import pandas as pd

    df = pd.DataFrame(got.take_all())
    assert set(df["tag"]) == {"only_in_rg0"}
    # stats-only path ('in' against min/max) on a sorted int column
    got2 = read_parquet_kernels(
        ours, predicate=("x", "in", [5, 63999])).take_all()
    assert sorted(r["x"] for r in got2) == [5, 63999]


from hypothesis import given, settings
from hypothesis import strategies as st


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=15, deadline=None)
def test_prune_one_sided_property(seed):
    """Fuzz the ONE-SIDED contract: for a random table, random row
    grouping, and probes both present and absent, the combination of
    stats + bloom + dictionary pruning NEVER drops a row group that
    contains the probe."""
    import os
    import tempfile

    from parquet_hs_ray.sources.bloom import prune_row_groups_by_bloom
    from parquet_hs_ray.sources.parquet_footer import (
        prune_row_groups_by_stats_kernels)

    rng = np.random.default_rng(seed)
    n = int(rng.integers(200, 4000))
    rg = int(rng.integers(50, max(51, n // 2)))
    card = int(rng.integers(2, 200))
    t = pa.table({
        "k": pa.array(rng.integers(0, card, n).astype(np.int64)),
        "s": pa.array([f"v{int(x)}" for x in
                       rng.integers(0, card, n)]),
    })
    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "t.parquet")
        write_parquet_via_kernels(
            t, p, compression="SNAPPY", row_group_size=rg,
            bloom_filters=["k", "s"] if seed % 2 else None)
        km = read_footer_via_kernels(p)
        n_rg = len(km.row_groups)
        bounds = [(i * rg, min(n, (i + 1) * rg)) for i in range(n_rg)]
        for col, probe in (("k", int(t["k"][int(rng.integers(n))].as_py())),
                           ("k", card + 7),
                           ("s", t["s"][int(rng.integers(n))].as_py()),
                           ("s", "absent")):
            preds = [(col, "==", probe)]
            keep = prune_row_groups_by_stats_kernels(km, preds)
            keep = prune_row_groups_by_bloom(km, preds, p,
                                             candidates=keep)
            keep = prune_row_groups_by_dict(km, preds, p,
                                            candidates=keep)
            colvals = t[col].to_pylist()
            truth = {i for i, (a, b) in enumerate(bounds)
                     if probe in colvals[a:b]}
            assert truth <= set(keep), (seed, col, probe, truth, keep)


def test_distributed_read_dict_prunes(dict_files, ray_session):
    from parquet_hs_ray.sources.kernel_sink import read_parquet_kernels

    ours, _, t = dict_files
    ds = read_parquet_kernels(ours, predicate=("tag", "==", "only_in_rg0"))
    mt = ds.materialize()
    assert mt.count() == 8000
    assert mt.num_blocks() == 1  # 7 of 8 row groups dict-pruned
    # absent -> 0 rows, schema preserved from the planner's footer
    empty = read_parquet_kernels(ours,
                                 predicate=("tag", "==", "nope")).materialize()
    assert empty.count() == 0
    assert set(empty.schema().names) == {"tag", "code", "x"}
