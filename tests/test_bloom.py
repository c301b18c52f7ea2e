"""Parquet split-block bloom filters (parquet-format BloomFilter.md):
XXH64 kernels, the filter itself, writer emission (ColumnMetaData
fields 14/15), footer parse-back, and point-lookup row-group pruning
on the distributed kernel read."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parquet_hs_ray.sources.bloom import (
    SplitBlockBloom, hash_plain_values, hash_probe_values,
    _VECTOR_MIN, prune_row_groups_by_bloom, read_bloom_filter, xxh64,
    xxh64_binary, xxh64_fixed4, xxh64_fixed8)
from parquet_hs_ray.sources.parquet_footer import read_footer_via_kernels
from parquet_hs_ray.sources.parquet_pages import read_parquet_via_kernels
from parquet_hs_ray.sources.parquet_writer import write_parquet_via_kernels


def test_xxh64_known_vector_and_dual_impl():
    # the published XXH64 empty-input vector (Yann Collet's spec)
    assert xxh64(b"") == 0xEF46DB3751D8E999
    # general path vs vectorized short paths: two independent
    # implementations must agree bit-for-bit
    rng = np.random.default_rng(11)
    v8 = rng.integers(-2**62, 2**62, 500, dtype=np.int64)
    assert (xxh64_fixed8(v8) == np.array(
        [xxh64(int(x).to_bytes(8, "little", signed=True)) for x in v8],
        dtype=np.uint64)).all()
    v4 = rng.integers(-2**31, 2**31, 500, dtype=np.int32)
    assert (xxh64_fixed4(v4) == np.array(
        [xxh64(int(x).to_bytes(4, "little", signed=True)) for x in v4],
        dtype=np.uint64)).all()
    # every length class: <4, 4..7, 8..31, and the >=32 stripe loop
    hs = {xxh64(bytes(range(256))[:i]) for i in range(200)}
    assert len(hs) == 200
    # probe-side and array-side encodings agree
    arr = pa.array(["alpha", "beta", "gamma"])
    assert set(hash_plain_values(arr, "BYTE_ARRAY")) == set(
        hash_probe_values(["alpha", "beta", "gamma"], "BYTE_ARRAY"))
    f64 = pa.array([1.5, -0.25, 3e9])
    assert (hash_plain_values(f64, "DOUBLE")
            == hash_probe_values([1.5, -0.25, 3e9], "DOUBLE")).all()


@given(st.lists(st.binary(min_size=0, max_size=80), max_size=60),
       st.integers(min_value=0, max_value=5),
       st.sampled_from([pa.binary(), pa.large_binary()]))
@settings(max_examples=150, deadline=None)
def test_xxh64_binary_matches_scalar(values, cut, typ):
    """The vectorized string hash equals the scalar spec implementation
    on every length (short lanes and the >= 32-byte fallback), also on
    an array sliced at a non-zero offset.  The values repeated past
    ``_VECTOR_MIN`` take the vector lanes whatever the list's size."""
    reps = 1 + _VECTOR_MIN // max(1, len(values))
    arr = pa.array(values * reps, typ)
    want = [xxh64(v) for v in values] * reps
    assert xxh64_binary(arr).tolist() == want
    assert xxh64_binary(arr.slice(cut)).tolist() == want[cut:]
    assert xxh64_binary(arr.slice(cut, 7)).tolist() == want[cut:cut + 7]


@given(st.lists(st.text(max_size=40), max_size=60),
       st.integers(min_value=0, max_value=5),
       st.sampled_from([pa.string(), pa.large_string()]))
@settings(max_examples=100, deadline=None)
def test_xxh64_binary_strings_hash_utf8(values, cut, typ):
    values = values * (1 + _VECTOR_MIN // max(1, len(values)))
    arr = pa.array(values, typ).slice(cut)
    assert xxh64_binary(arr).tolist() == [xxh64(v.encode()) for v in values[cut:]]


def test_xxh64_binary_rejects_other_types():
    with pytest.raises(TypeError, match="xxh64_binary"):
        xxh64_binary(pa.array([1, 2]))


def test_split_block_bloom_properties():
    rng = np.random.default_rng(5)
    present = rng.integers(0, 2**62, 20000, dtype=np.int64)
    f = SplitBlockBloom.for_ndv(20000, 0.01)
    h = xxh64_fixed8(present)
    f.add_hashes(h)
    # NEVER a false negative
    assert f.check_hashes(h).all()
    # false positives bounded (pow2 sizing usually overshoots the
    # target, so 5x fpp is a loose, stable bound)
    absent = xxh64_fixed8(rng.integers(2**62, 2**63, 50000,
                                       dtype=np.int64))
    assert f.check_hashes(absent).mean() < 0.05
    # byte roundtrip
    rt = SplitBlockBloom.from_bytes(f.tobytes())
    assert rt.check_hashes(h).all()
    assert (rt.blocks == f.blocks).all()
    with pytest.raises(ValueError, match="multiple of 32"):
        SplitBlockBloom(33)


@pytest.fixture(scope="module")
def bloom_file(tmp_path_factory):
    rng = np.random.default_rng(3)
    n = 80000
    # UNSORTED high-cardinality columns: min/max stats cannot prune
    t = pa.table({
        "uid": pa.array(rng.permutation(n).astype(np.int64)),
        "tag": pa.array([f"u{int(x)}" for x in rng.permutation(n)]),
        "score": pa.array(rng.random(n)),
    })
    p = str(tmp_path_factory.mktemp("bloom") / "t.parquet")
    write_parquet_via_kernels(t, p, compression="SNAPPY",
                              row_group_size=10000,
                              bloom_filters={"uid": 0.01, "tag": 0.01})
    return p, t


def test_bloom_write_parse_prune(bloom_file):
    p, t = bloom_file
    # foreign readers are unaffected by the extra structures
    assert pq.read_table(p).equals(t)
    km = read_footer_via_kernels(p)
    assert len(km.row_groups) == 8
    for rg in km.row_groups:
        assert rg.columns[0].bloom_filter_offset is not None
        assert rg.columns[2].bloom_filter_offset is None  # not opted in
    f = read_bloom_filter(p, km.row_groups[0].columns[0])
    rg0 = read_parquet_via_kernels(p, row_groups=[0], columns=["uid"])
    assert f.check_hashes(hash_plain_values(rg0["uid"], "INT64")).all()
    # int point lookup prunes to ~1 row group and still finds the row
    target = int(t["uid"][123].as_py())
    keep = prune_row_groups_by_bloom(km, [("uid", "==", target)], p)
    assert 1 <= len(keep) <= 3
    got = read_parquet_via_kernels(p, row_groups=keep)
    assert got.filter(pc.equal(got["uid"], target)).num_rows == 1
    # string probe
    tg = t["tag"][999].as_py()
    keep_s = prune_row_groups_by_bloom(km, [("tag", "==", tg)], p)
    assert 1 <= len(keep_s) <= 3
    # absent value prunes EVERYTHING; missing filter (score) keeps all
    assert prune_row_groups_by_bloom(km, [("uid", "==", 10**13)], p) == []
    assert prune_row_groups_by_bloom(km, [("score", "==", 0.5)], p) == \
        list(range(8))
    # 'in' semantics: union of members
    keep_in = prune_row_groups_by_bloom(
        km, [("uid", "in", [target, 10**13])], p)
    assert set(keep) <= set(keep_in)


def test_bloom_distributed_read_prunes(bloom_file, ray_session):
    from parquet_hs_ray.sources.kernel_sink import read_parquet_kernels

    p, t = bloom_file
    target = int(t["uid"][500].as_py())
    ds = read_parquet_kernels(p, predicate=("uid", "==", target))
    out = ds.take_all()
    assert len(out) == 1 and out[0]["uid"] == target
    # the bloom kept the decode fan-out below the 8 row groups
    nb = read_parquet_kernels(
        p, predicate=("uid", "==", target)).materialize().num_blocks()
    assert nb <= 3
    # absent value: 0 rows, schema intact (from the planner's footer)
    empty = read_parquet_kernels(p, predicate=("uid", "==", 10**13))
    et = empty.materialize()
    assert et.count() == 0
    assert set(et.schema().names) == {"uid", "tag", "score"}
    # ... and projected: exactly the requested columns
    ep = read_parquet_kernels(p, columns=["uid"],
                              predicate=("uid", "==", 10**13)).materialize()
    assert ep.count() == 0
    assert ep.schema().names == ["uid"]


def test_bloom_validation_errors():
    t = pa.table({"a": pa.array([[1]], pa.list_(pa.int64())),
                  "b": pa.array([True])})
    with pytest.raises(ValueError, match="flat top-level"):
        write_parquet_via_kernels(t, "/tmp/nope.parquet",
                                  bloom_filters=["a"])
    with pytest.raises(ValueError, match="flat top-level"):
        write_parquet_via_kernels(t, "/tmp/nope.parquet",
                                  bloom_filters=["missing"])
    with pytest.raises(ValueError, match="unsupported"):
        write_parquet_via_kernels(t, "/tmp/nope.parquet",
                                  bloom_filters=["b"])  # BOOLEAN
