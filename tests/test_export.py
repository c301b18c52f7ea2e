"""The one export path: CLI ``decode`` is one ``decode_to_parquet`` call.

The store: ``k`` 0..9 and ``s``, two partitions (``k`` 0..4 and 5..9);
snapshot ``v1`` is taken before ``delete k > 5``, snapshot ``v2`` after
it."""

import json
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SRC = pa.table({"k": pa.array(range(10), pa.int64()),
                "s": pa.array([f"s{i % 3}" for i in range(10)])})


@pytest.fixture(scope="module")
def store(ray_session, tmp_path_factory):
    from parquet_hs_ray.pipelines.encode_job import delete_rows, encode_dataset
    from parquet_hs_ray.state import snapshots as snaps

    d = tmp_path_factory.mktemp("export")
    files = [str(d / "a.parquet"), str(d / "b.parquet")]
    pq.write_table(SRC.slice(0, 5), files[0])
    pq.write_table(SRC.slice(5), files[1])
    out = str(d / "enc")
    assert encode_dataset(files, out, token_col=None)["encoded"] == 2
    snaps.create_snapshot(out, "v1")
    assert delete_rows(out, ("k", ">", 5))["rows_newly_deleted"] == 4
    snaps.create_snapshot(out, "v2")
    return out


def _cli(capsys, *argv) -> dict:
    from parquet_hs_ray.cli import main

    assert main(list(argv)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _sorted(t: pa.Table) -> pa.Table:
    return t.select(["k", "s"]).sort_by("k")


def _decoded(store, **kw) -> pa.Table:
    from parquet_hs_ray.pipelines.encode_job import decode_dataset

    return _sorted(pa.concat_tables(
        decode_dataset(store, **kw).iter_batches(batch_format="pyarrow")))


@pytest.mark.parametrize("writer", ["pyarrow", "kernels"])
def test_cli_decode_honours_snapshot(store, tmp_path, capsys, writer):
    """``--snapshot v1`` exports the pinned rows under either writer, one
    ``part-<id>.parquet`` per partition; a rerun into the same ``--out``
    skips both partitions and adds no second copy."""
    want = _decoded(store, snapshot="v1")
    assert want.num_rows == 10
    dest = str(tmp_path / "dec")
    argv = ("decode", "--encoded", store, "--out", dest, "--snapshot", "v1",
            "--writer", writer)
    res = _cli(capsys, *argv)
    assert res["rows"] == 10 and res["written"] == res["partitions_total"] == 2
    assert sorted(os.listdir(dest)) == ["part-00000000.parquet", "part-00000001.parquet"]
    assert _sorted(pq.read_table(dest)).equals(want)
    again = _cli(capsys, *argv)
    assert again["written"] == again["rows"] == 0 and again["skipped_finished"] == 2
    assert _sorted(pq.read_table(dest)).equals(want)


def test_cli_decode_no_match_creates_out(store, tmp_path, capsys):
    """A predicate no row matches still leaves a readable ``--out``."""
    dest = str(tmp_path / "dec")
    res = _cli(capsys, "decode", "--encoded", store, "--out", dest, "--where", "k > 100")
    assert res["rows"] == 0 and res["partitions"] == 0
    assert pq.read_table(dest).num_rows == 0


def test_cli_decode_straddling_predicate_keeps_schema(store, tmp_path, capsys):
    """Partition 0's stats straddle ``3 < k < 4`` but no row matches: its
    file holds zero rows and the real columns."""
    dest = str(tmp_path / "dec")
    res = _cli(capsys, "decode", "--encoded", store, "--out", dest,
               "--where", "k > 3", "--where", "k < 4")
    assert res["rows"] == 0 and res["written"] == 1
    back = pq.read_table(dest)
    assert back.num_rows == 0 and back.column_names == ["k", "s"]


def test_decode_to_parquet_snapshot(store, tmp_path):
    from parquet_hs_ray.pipelines.encode_job import decode_to_parquet

    dest = str(tmp_path / "dec")
    assert decode_to_parquet(store, dest, snapshot="v1")["rows"] == 10
    assert _sorted(pq.read_table(dest)).equals(_decoded(store, snapshot="v1"))


def test_partition_cols_checked_on_the_driver(store, tmp_path):
    """An unknown name and a set naming every output column raise on the
    driver, before ``dest`` exists (the latter wrote files of 0 rows)."""
    from parquet_hs_ray.pipelines.encode_job import decode_to_parquet

    dest = str(tmp_path / "dec")
    with pytest.raises(KeyError, match="partition_cols"):
        decode_to_parquet(store, dest, partition_cols=["nope"])
    with pytest.raises(ValueError, match="every output column"):
        decode_to_parquet(store, dest, partition_cols=["k", "s"])
    with pytest.raises(ValueError, match="every output column"):
        decode_to_parquet(store, dest, columns=["s"], partition_cols=["s"])
    assert not os.path.exists(dest)
    res = decode_to_parquet(store, dest, partition_cols=["s"])
    assert res["rows"] == 6
    assert pq.read_table(dest).num_rows == 6


def test_keep_deleted_under_snapshot(store, tmp_path, capsys):
    """``apply_deletes=False`` audits a snapshot's base rows: the pinned
    delete vectors apply only under ``apply_deletes``."""
    from parquet_hs_ray.pipelines.encode_job import decode_dataset

    assert decode_dataset(store, snapshot="v2").count() == 6
    assert decode_dataset(store, snapshot="v2", apply_deletes=False).count() == 10
    res = _cli(capsys, "decode", "--encoded", store, "--out", str(tmp_path / "dec"),
               "--snapshot", "v2", "--keep-deleted")
    assert res["rows"] == 10


def test_partition_cols_null_key_keeps_rows(ray_session, tmp_path):
    """A NULL partition key lands in ``g=__HIVE_DEFAULT_PARTITION__`` and
    reads back as NULL; no row is dropped."""
    from parquet_hs_ray.pipelines.encode_job import decode_to_parquet, encode_dataset

    src = str(tmp_path / "g.parquet")
    pq.write_table(pa.table({"k": pa.array(range(6), pa.int64()),
                             "g": pa.array([1, None, 1, None, 2, None], pa.int64())}), src)
    out, dest = str(tmp_path / "enc"), str(tmp_path / "dec")
    encode_dataset(src, out, token_col=None)
    res = decode_to_parquet(out, dest, partition_cols=["g"])
    assert "g=__HIVE_DEFAULT_PARTITION__" in os.listdir(dest)
    assert pq.read_table(dest)["g"].to_pylist().count(None) == 3
    assert res["rows"] == pq.read_table(dest).num_rows == 6


def test_partition_cols_checked_per_partition_on_evolved_store(ray_session, tmp_path):
    """Without ``columns`` or ``unify_schema`` each partition exports only
    the columns it holds, so the driver checks ``partition_cols`` per kept
    partition (partition 0 holds ``k``, partition 1 ``k, x``), before
    ``dest`` exists."""
    from parquet_hs_ray.pipelines.encode_job import decode_to_parquet, encode_dataset

    files = [str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")]
    pq.write_table(SRC.select(["k"]).slice(0, 5), files[0])
    pq.write_table(SRC.select(["k"]).slice(5).append_column(
        "x", pa.array(range(5), pa.int64())), files[1])
    out, dest = str(tmp_path / "enc"), str(tmp_path / "dec")
    encode_dataset(files[:1], out, token_col=None)
    encode_dataset(files, out, token_col=None, append=True)
    with pytest.raises(ValueError, match="every output column of partition 0"):
        decode_to_parquet(out, dest, partition_cols=["k"])
    with pytest.raises(KeyError, match="columns of partition 0"):
        decode_to_parquet(out, dest, partition_cols=["x"])
    assert not os.path.exists(dest)
    res = decode_to_parquet(out, dest, partition_cols=["k"], unify_schema=True)
    assert res["rows"] == pq.read_table(dest).num_rows == 10
