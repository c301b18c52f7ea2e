"""The driver-side plan of every blob read (``encode_job._plan_read``):
one absent-column rule for pruning and row masks, and one output rule
for projections over evolved stores and backfilled column families.

The store: ``k`` (10 rows, partition 0), appended with ``k, x`` (5 rows,
partition 1), plus a family ``fam`` holding ``k2 = 2 * k``."""

import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from parquet_hs_ray.state import manifest as mf

P0 = pa.table({"k": pa.array(range(10), pa.int64())})
P1 = pa.table({"k": pa.array(range(10, 15), pa.int64()),
               "x": pa.array([1, 2, 3, 4, 5], pa.int64())})


def _appended_store(tmp_path, family: bool = True) -> str:
    from parquet_hs_ray.pipelines.encode_job import backfill_columns, encode_dataset

    a, b = str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")
    pq.write_table(P0, a)
    pq.write_table(P1, b)
    out = str(tmp_path / "enc")
    encode_dataset(a, out, token_col=None)
    encode_dataset([a, b], out, token_col=None, append=True)
    if family:
        backfill_columns(out, "fam", lambda t: pa.table({"k2": pc.multiply(t["k"], 2)}))
    return out


@pytest.fixture(scope="module")
def store(ray_session, tmp_path_factory):
    return _appended_store(tmp_path_factory.mktemp("plan"))


def test_predicate_prunes_partitions_that_predate_its_column(ray_session, tmp_path):
    """A partition whose manifest entry lacks a predicate column holds
    only NULLs there, so the stats prune it for any op NULL does not
    satisfy: with the predating blob deleted from disk, decode still
    returns the match and ``delete_rows`` scans one partition."""
    from parquet_hs_ray.pipelines.encode_job import (decode_dataset, delete_rows,
                                                     pruned_partition_ids)

    out = _appended_store(tmp_path, family=False)
    assert pruned_partition_ids(out, ("x", "==", 3)) == ([1], 2)
    assert pruned_partition_ids(out, ("x", "is_not_null", None)) == ([1], 2)
    assert pruned_partition_ids(out, ("x", "is_null", None)) == ([0], 2)
    os.remove(mf.blob_path(out, 0))
    got = decode_dataset(out, predicate=("x", "==", 3)).to_pandas()
    assert got["k"].tolist() == [12]
    res = delete_rows(out, ("x", "==", 3))
    assert res["partitions_scanned"] == 1 and res["rows_newly_deleted"] == 1


@pytest.mark.parametrize("unify", [False, True])
def test_family_columns_project_like_base_columns(store, unify):
    """A backfilled column projects like a base column, alone or mixed,
    in ``columns`` order; a name no partition or family holds raises
    ``KeyError`` on the driver."""
    import ray

    from parquet_hs_ray.pipelines.encode_job import decode_dataset

    for cols in (["k", "k2"], ["k2"], ["k2", "k"]):
        ds = decode_dataset(store, columns=cols, aux_families=["fam"], unify_schema=unify)
        got = pa.concat_tables(ray.get(ds.to_arrow_refs()))
        assert got.column_names == cols
        got = got.sort_by("k2")
        assert got["k2"].to_pylist() == [2 * k for k in range(15)]
        if "k" in cols:
            assert got["k"].to_pylist() == list(range(15))
    with pytest.raises(KeyError, match="unknown columns"):
        decode_dataset(store, columns=["k", "k3"], aux_families=["fam"],
                       unify_schema=unify)


def test_projection_of_predated_column(store):
    """Under ``unify_schema`` a partition that predates every projected
    column still yields its rows, as NULLs; without it the projection
    raises from that partition's task."""
    from parquet_hs_ray.pipelines.encode_job import decode_dataset

    got = decode_dataset(store, columns=["x"], unify_schema=True).to_pandas()
    assert len(got) == 15 and int(got["x"].isna().sum()) == 10
    with pytest.raises(Exception, match="predates columns"):
        decode_dataset(store, columns=["x"]).to_pandas()


def _expected(pid: int, columns, keep, unify: bool) -> pa.Table:
    t = P0 if pid == 0 else P1
    if unify and "x" not in t.column_names:
        t = t.append_column("x", pa.nulls(t.num_rows, pa.int64()))
    t = t.append_column("k2", pc.multiply(t["k"], 2))
    t = t.filter(pa.array([keep(k) for k in t["k"].to_pylist()], pa.bool_()))
    return t if columns is None else t.select(columns)


PREDICATES = {
    "none": (None, [0, 1], lambda k: True),
    "matching": (("k", "in", [3, 12]), [0, 1], lambda k: k in (3, 12)),
    # partition 0's min/max admit both halves, no row satisfies both
    "straddling_empty": ([("k", ">", 3), ("k", "<", 4)], [0], lambda k: False),
}


@pytest.mark.parametrize("pred", sorted(PREDICATES))
@pytest.mark.parametrize("columns", [None, ["k"], ["k2", "k"], ["k2"]],
                         ids=["all", "base", "base_family", "family"])
@pytest.mark.parametrize("unify", [False, True])
def test_read_plan(store, unify, columns, pred):
    """Every partition the plan keeps decodes to the expected table,
    schema included — a partition with no surviving row too."""
    from parquet_hs_ray.pipelines.encode_job import _plan_read

    predicate, kept, keep = PREDICATES[pred]
    rows, total, stage = _plan_read(store, columns, predicate, unify_schema=unify,
                                    aux_families=["fam"])
    assert total == 2 and [r["partition_id"] for r in rows] == kept
    for r in rows:
        got = stage({"partition_id": [r["partition_id"]], "crc32": [r["crc32"]]})
        want = _expected(r["partition_id"], columns, keep, unify)
        assert got.schema == want.schema, (r, got.schema, want.schema)
        assert got.equals(want), r


@pytest.mark.parametrize("columns", [None, ["v", "k"], ["v"]])
def test_decoder_decodes_each_predicate_column_once(tmp_path, monkeypatch, columns):
    """The predicate column decoded for the row mask is the one the
    output reuses: each column frame of the partition decodes once,
    and the output is the plain decode of the projection, filtered."""
    from parquet_hs_ray.format import decode_table
    from parquet_hs_ray.plan import Partition
    from parquet_hs_ray.stages import decode
    from parquet_hs_ray.stages.encode import write_partition

    out = str(tmp_path)
    mf.ensure_dirs(out)
    tbl = pa.table({"k": pa.array(range(20), pa.int64()),
                    "v": pa.array([f"s{i}" for i in range(20)]),
                    "w": pa.array(range(0, 40, 2), pa.int32())})
    entry = write_partition(out, Partition(0, "mem", 0, 20, 0), tbl, 0)
    decoded = []
    monkeypatch.setattr(decode, "decode_table",
                        lambda blob, cols=None: decoded.extend(cols) or decode_table(blob, cols))
    stage = decode.DecoderStage(out, columns=columns, predicate=[("k", ">=", 15)])
    got = stage({"partition_id": [0], "crc32": [entry["checksum_crc32"]]})
    want = tbl.filter(pc.greater_equal(tbl["k"], 15))
    assert got.equals(want if columns is None else want.select(columns))
    assert sorted(decoded) == sorted(set(decoded))
    assert set(decoded) == {"k"} | set(columns or tbl.column_names)
