"""One predicate engine (`parquet_hs_ray/predicates.py`): the grammar, the
one-sided statistics test, and the same rows from the blob store, the
kernel-Parquet read and ``pyarrow.Table.filter`` for every op."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from parquet_hs_ray import predicates as P

N = 600
VOCAB = [f"w{i:02d}" for i in range(20)]


def _table() -> pa.Table:
    rng = np.random.default_rng(3)
    ints = rng.integers(0, 50, N)
    strs = rng.integers(0, len(VOCAB), N)
    return pa.table({
        "id": pa.array(np.arange(N, dtype=np.int64)),
        "i": pa.array([None if k % 7 == 0 else int(v)
                       for k, v in enumerate(ints)], pa.int64()),
        "s": pa.array([None if k % 11 == 0 else VOCAB[v]
                       for k, v in enumerate(strs)]),
        "tok": pa.array([[int(x) for x in rng.integers(0, 500, k % 5)]
                         for k in range(N)], pa.list_(pa.int32())),
        "n_tok": pa.array(np.full(N, 10, dtype=np.int32)),
    })


@pytest.fixture(scope="module")
def stores(ray_session, tmp_path_factory):
    """The same table as a blob store and as kernel Parquet with small
    row groups, small pages (page index) and Bloom filters."""
    import ray

    from parquet_hs_ray.pipelines.encode_job import encode_dataset
    from parquet_hs_ray.sources.kernel_sink import write_parquet_kernels

    d = tmp_path_factory.mktemp("stores")
    t = _table()
    src = str(d / "src.parquet")
    pq.write_table(t, src, row_group_size=100)
    blob = str(d / "blob")
    encode_dataset(src, blob, token_budget=1000)
    kern = str(d / "kern")
    write_parquet_kernels(ray.data.from_arrow(t), kern, row_group_size=100,
                          data_page_rows=25, bloom_filters=["i", "s"])
    return t, blob, kern


def _oracle(t: pa.Table, preds) -> list:
    """Row ids by ``pyarrow.Table.filter`` over dataset expressions —
    an evaluator independent of the engine under test."""
    expr = None
    for col, op, v in preds:
        f = pc.field(col)
        e = {"==": lambda: f == v, "!=": lambda: f != v,
             "<": lambda: f < v, "<=": lambda: f <= v,
             ">": lambda: f > v, ">=": lambda: f >= v,
             "in": lambda: f.isin(v),
             "between": lambda: (f >= v[0]) & (f <= v[1]),
             "is_null": lambda: f.is_null(),
             "is_not_null": lambda: f.is_valid()}[op]()
        expr = e if expr is None else expr & e
    return sorted(t.filter(expr)["id"].to_pylist())


def _ids(ds) -> list:
    return sorted(r["id"] for r in ds.take_all())


_INT = st.integers(-3, 53)
_STR = st.sampled_from(VOCAB + ["a", "zz"])


@st.composite
def _pred(draw):
    col = draw(st.sampled_from(["i", "s"]))
    val = _INT if col == "i" else _STR
    op = draw(st.sampled_from(["==", "!=", "<", "<=", ">", ">=", "in",
                               "between", "is_null", "is_not_null"]))
    if op == "in":
        v = draw(st.lists(val, min_size=1, max_size=4))
    elif op == "between":
        v = tuple(sorted(draw(st.tuples(val, val))))
    elif op in ("is_null", "is_not_null"):
        v = None
    else:
        v = draw(val)
    return (col, op, v)


@seed(20240611)
@settings(max_examples=15, deadline=None, database=None)
@given(st.lists(_pred(), min_size=1, max_size=2))
def test_stores_agree_on_every_flat_op(stores, preds):
    """The blob store (manifest min/max, null counts and Bloom, then
    the exact mask) and the kernel read (footer stats, Bloom,
    dictionary and page-index pruning, then the exact mask) return the
    rows ``pyarrow.Table.filter`` returns."""
    from parquet_hs_ray.pipelines.encode_job import decode_dataset
    from parquet_hs_ray.sources.kernel_sink import read_parquet_kernels

    t, blob, kern = stores
    want = _oracle(t, preds)
    assert _ids(decode_dataset(blob, predicate=preds)) == want, preds
    assert _ids(read_parquet_kernels(kern, predicate=preds)) == want, preds


def test_contains_is_blob_only(stores):
    from parquet_hs_ray.pipelines.encode_job import decode_dataset
    from parquet_hs_ray.sources.kernel_sink import read_parquet_kernels

    t, blob, kern = stores
    probe = t["tok"][3].as_py()[0]
    want = [r["id"] for r in t.select(["id", "tok"]).to_pylist()
            if r["tok"] and probe in r["tok"]]
    got = _ids(decode_dataset(blob, predicate=("tok", "contains", probe)))
    assert got == want and want
    with pytest.raises(ValueError, match="nested"):
        read_parquet_kernels(kern, predicate=("tok", "contains", probe))
    with pytest.raises(ValueError, match="contains"):
        read_parquet_kernels(kern, predicate=("i", "contains", 1))


def test_not_equal_on_blob_store(stores, tmp_path):
    """``!=`` on the blob store: decode and delete agree with
    ``pyarrow.Table.filter`` (the decode used to fall into the
    ``between`` branch and raise TypeError)."""
    import shutil

    from parquet_hs_ray.pipelines.encode_job import (decode_dataset,
                                                     delete_rows)

    t, blob, _ = stores
    pred = ("i", "!=", 5)
    want = _oracle(t, [pred])
    assert _ids(decode_dataset(blob, predicate=pred)) == want
    store = str(tmp_path / "blob")
    shutil.copytree(blob, store)
    res = delete_rows(store, pred)
    assert res["rows_newly_deleted"] == len(want)
    # NULL != 5 is not TRUE: null rows survive the delete
    kept = set(range(N)) - set(want)
    assert _ids(decode_dataset(store)) == sorted(kept)


def test_unknown_op_raises_everywhere(stores):
    from parquet_hs_ray.pipelines.encode_job import (decode_dataset,
                                                     delete_rows)
    from parquet_hs_ray.sources.kernel_sink import read_parquet_kernels

    _, blob, kern = stores
    bad = ("i", "~~", 1)
    for call in (lambda: decode_dataset(blob, predicate=bad),
                 lambda: delete_rows(blob, bad),
                 lambda: read_parquet_kernels(kern, predicate=bad)):
        with pytest.raises(ValueError, match="~~"):
            call()


def test_normalize_grammar():
    assert P.normalize(None) == []
    assert P.normalize(("a", "==", 1)) == [("a", "==", 1)]
    assert P.normalize([["a", "in", [1, 2]], ("b", "is_null", None)]) == \
        [("a", "in", [1, 2]), ("b", "is_null", None)]
    for bad in ([("a", "==")], [("a", "between", 3)],
                [("a", "in", "xy")], [(1, "==", 2)]):
        with pytest.raises(ValueError):
            P.normalize(bad)


def test_may_match_is_one_sided():
    assert not P.may_match("==", 9, 1, 5)
    assert P.may_match("==", 3, 1, 5)
    assert P.may_match("==", "x", 1, 5)  # incomparable: keep
    assert not P.may_match("!=", 4, 4, 4)
    assert not P.may_match("between", (6, 9), 1, 5)
    assert not P.may_match("in", [0, 7], 1, 5)
    # null counts decide the null tests and all-null chunks
    assert not P.may_match("is_null", None, 1, 5, nulls=0, rows=10)
    assert P.may_match("is_null", None, None, None, nulls=10, rows=10)
    assert not P.may_match("is_not_null", None, None, None, 10, 10)
    assert not P.may_match(">", 0, None, None, nulls=10, rows=10)
    assert P.may_match("is_null", None)  # unknown counts: keep
    assert P.members("in", (1, 2)) == [1, 2]
    assert P.members("<", 1) is None


def test_page_index_keeps_all_null_pages_for_is_null(ray_session, tmp_path):
    """An all-null page is the only one that can match ``is_null``: the
    page index must keep it (and may drop pages without nulls)."""
    from parquet_hs_ray.sources.kernel_sink import read_parquet_kernels
    from parquet_hs_ray.sources.parquet_footer import (
        prune_pages_by_index, read_footer_via_kernels)
    from parquet_hs_ray.sources.parquet_writer import (
        write_parquet_via_kernels)

    x = [None if 100 <= k < 150 else k for k in range(300)]
    t = pa.table({"id": pa.array(range(300), pa.int64()),
                  "x": pa.array(x, pa.int64())})
    p = str(tmp_path / "nulls.parquet")
    write_parquet_via_kernels(t, p, data_page_rows=50)
    km = read_footer_via_kernels(p)
    ranges = prune_pages_by_index(km, p, 0, [("x", "is_null", None)])
    assert ranges is None or (100, 150) in ranges
    for pred in (("x", "is_null", None), ("x", "is_not_null", None),
                 ("x", ">=", 120)):
        got = _ids(read_parquet_kernels(p, predicate=pred))
        assert got == _oracle(t, [pred]), pred
