"""Deletion vectors: row-level DELETE WHERE over an encoded store.

Sidecar format roundtrip/merge/corruption; delete_rows + decode parity
vs the pyarrow-filtered source (SQL DELETE semantics: only TRUE
deletes); interaction with predicates, backfilled aux families and
unify_schema; compaction materializes; CLI drive."""

import glob
import json
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from parquet_hs_ray.sources.synth import write_dataset
from parquet_hs_ray.state import deletes as dvs


@pytest.fixture(scope="module")
def f1_dir(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("f1del"))
    write_dataset(d, 2000, seed=42, n_files=4)
    return d


def _source_table(f1_dir) -> pa.Table:
    return pa.concat_tables(
        [pq.read_table(p) for p in sorted(glob.glob(f"{f1_dir}/*.parquet"))]
    ).combine_chunks()


def _encoded(f1_dir, tmp_path, name="enc"):
    from parquet_hs_ray.pipelines.encode_job import encode_dataset

    out = str(tmp_path / name)
    encode_dataset(f1_dir, out, token_budget=300_000)
    return out


# ---------------------------------------------------------------- format


def test_vector_roundtrip_and_merge():
    idx = np.array([5, 1, 9, 5], dtype=np.uint64)
    data = dvs.encode_delete_vector(idx)
    out = dvs.decode_delete_vector(data)
    assert out.tolist() == [1, 5, 9]  # sorted, deduped

    # corruption: flipped payload byte fails the crc
    bad = bytearray(data)
    bad[20] ^= 0xFF
    with pytest.raises(ValueError, match="checksum"):
        dvs.decode_delete_vector(bytes(bad))
    with pytest.raises(ValueError, match="magic"):
        dvs.decode_delete_vector(b"nope" + data[4:])
    with pytest.raises(ValueError, match="truncated"):
        dvs.decode_delete_vector(data[:-5])


def test_vector_union_on_disk(tmp_path):
    out = str(tmp_path / "store")
    n = dvs.write_delete_vector(out, 3, np.array([2, 4], dtype=np.uint64))
    assert n == 2
    # overlapping re-delete: only the new position counts
    n = dvs.write_delete_vector(out, 3, np.array([4, 7], dtype=np.uint64))
    assert n == 1
    assert dvs.read_delete_vector(out, 3).tolist() == [2, 4, 7]
    # fully-covered re-delete writes nothing
    assert dvs.write_delete_vector(out, 3, np.array([2], dtype=np.uint64)) == 0
    assert dvs.list_delete_pids(out) == {3}
    assert dvs.deletes_summary(out) == {
        "partitions_with_deletes": 1, "rows_deleted": 3}


def test_keep_mask_clamps_out_of_range():
    km = dvs.keep_mask(np.array([1, 99], dtype=np.uint64), 4)
    assert km.tolist() == [True, False, True, True]


# ---------------------------------------------------------------- engine


def test_delete_rows_decode_parity(ray_session, f1_dir, tmp_path):
    from parquet_hs_ray.pipelines.encode_job import decode_dataset, delete_rows

    out = _encoded(f1_dir, tmp_path)
    src = _source_table(f1_dir)

    res = delete_rows(out, ("n_tok", ">", 900))
    expect_del = int(pc.sum(pc.greater(src["n_tok"], 900)).as_py() or 0)
    assert res["rows_newly_deleted"] == expect_del > 0

    got = decode_dataset(out).to_pandas().sort_values("doc_id").reset_index(drop=True)
    want = src.filter(pc.less_equal(src["n_tok"], 900)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert got.equals(want)

    # idempotent re-delete: nothing new, decode unchanged
    res2 = delete_rows(out, ("n_tok", ">", 900))
    assert res2["rows_newly_deleted"] == 0
    assert decode_dataset(out).count() == len(want)

    # second delete unions (AND of two NOTs on the survivor side)
    delete_rows(out, ("source", "==", "web"))
    got2 = decode_dataset(out).to_pandas().sort_values("doc_id").reset_index(drop=True)
    keep = pc.and_(pc.less_equal(src["n_tok"], 900),
                   pc.not_equal(src["source"], "web"))
    want2 = src.filter(keep).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert got2.equals(want2)

    # audit path sees the base data
    assert decode_dataset(out, apply_deletes=False).count() == src.num_rows


def test_deletes_compose_with_predicate_and_aux(ray_session, f1_dir, tmp_path):
    from parquet_hs_ray.pipelines.encode_job import (backfill_columns,
                                                     decode_dataset,
                                                     delete_rows)

    out = _encoded(f1_dir, tmp_path)
    src = _source_table(f1_dir)

    def fn(base: pa.Table) -> pa.Table:
        return pa.table(
            {"n2": pc.multiply(base["n_tok"].cast(pa.int64()), 2)})

    backfill_columns(out, "n2", fn)
    delete_rows(out, ("n_tok", ">", 900))

    # predicate + deletes + aux family, all at once
    ds = decode_dataset(out, predicate=("n_tok", ">=", 100),
                        aux_families=["n2"])
    got = ds.to_pandas().sort_values("doc_id").reset_index(drop=True)
    keep = pc.and_(pc.less_equal(src["n_tok"], 900),
                   pc.greater_equal(src["n_tok"], 100))
    want = src.filter(keep).to_pandas()
    want["n2"] = (want["n_tok"] * 2).astype("int64")
    want = want.sort_values("doc_id").reset_index(drop=True)
    assert got.equals(want)
    # aux rows stayed row-aligned after both masks
    assert (got["n2"] == got["n_tok"] * 2).all()


def test_deletes_with_unify_schema(ray_session, f1_dir, tmp_path):
    from parquet_hs_ray.pipelines.encode_job import decode_dataset, delete_rows

    out = _encoded(f1_dir, tmp_path)
    src = _source_table(f1_dir)
    delete_rows(out, ("n_tok", ">", 900))
    got = decode_dataset(out, unify_schema=True).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    want = src.filter(pc.less_equal(src["n_tok"], 900)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert got.equals(want)


def test_compact_materializes_deletes(ray_session, f1_dir, tmp_path):
    from parquet_hs_ray.pipelines.encode_job import (compact_dataset,
                                                     decode_dataset,
                                                     delete_rows)

    out = _encoded(f1_dir, tmp_path)
    src = _source_table(f1_dir)
    delete_rows(out, ("n_tok", ">", 900))

    cdir = str(tmp_path / "compacted")
    compact_dataset(out, cdir, token_budget=10_000_000)
    assert dvs.list_delete_pids(cdir) == set()  # vacuumed

    got = decode_dataset(cdir).to_pandas().sort_values("doc_id").reset_index(drop=True)
    want = src.filter(pc.less_equal(src["n_tok"], 900)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert got.equals(want)


def test_delete_requires_predicate(ray_session, f1_dir, tmp_path):
    from parquet_hs_ray.pipelines.encode_job import delete_rows

    out = _encoded(f1_dir, tmp_path)
    with pytest.raises(ValueError, match="predicate"):
        delete_rows(out, None)


def test_decode_to_parquet_applies_deletes(ray_session, f1_dir, tmp_path):
    from parquet_hs_ray.pipelines.encode_job import (decode_to_parquet,
                                                     delete_rows)

    out = _encoded(f1_dir, tmp_path)
    src = _source_table(f1_dir)
    delete_rows(out, ("n_tok", ">", 900))
    dest = str(tmp_path / "export")
    decode_to_parquet(out, dest)
    got = pq.read_table(dest).to_pandas().sort_values("doc_id").reset_index(drop=True)
    want = src.filter(pc.less_equal(src["n_tok"], 900)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert got.equals(want)


def test_cli_delete_drive(ray_session, f1_dir, tmp_path):
    out = str(tmp_path / "enc_cli")
    env = {"RAY_ADDRESS": "local"}
    import os

    env = {**os.environ, "RAY_ADDRESS": "local"}

    def run(*argv):
        p = subprocess.run([sys.executable, "-m", "parquet_hs_ray.cli",
                            "--num-cpus", "2", *argv],
                           capture_output=True, text=True, env=env,
                           cwd="/root/repo")
        assert p.returncode == 0, p.stderr[-2000:]
        out = p.stdout.strip()
        return json.loads(out[out.index("{"):])

    run("encode", "--input", f1_dir, "--out", out,
        "--token-budget", "300000")
    res = run("delete", "--encoded", out, "--where", "n_tok > 900")
    assert res["rows_newly_deleted"] > 0
    summ = run("summary", "--encoded", out)
    assert summ["rows_deleted"] == res["rows_newly_deleted"]
    dec = run("decode", "--encoded", out, "--out", str(tmp_path / "dec_cli"))
    assert dec["rows"] == summ["rows"] - summ["rows_deleted"]


def test_predicate_on_column_older_partitions_predate(ray_session, tmp_path):
    """On an appended store, a predicate on a column that older
    partitions predate reads it there as all-NULL, in ``delete_rows``
    and in ``decode_dataset`` with or without ``unify_schema``. A
    column that no partition lists is a typo: ``KeyError`` on the
    driver before any task starts."""
    from parquet_hs_ray.pipelines.encode_job import (decode_dataset,
                                                     decode_to_parquet,
                                                     delete_rows,
                                                     encode_dataset)

    a, b = str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")
    pq.write_table(pa.table({"k": pa.array(range(10), pa.int64())}), a)
    pq.write_table(pa.table({"k": pa.array(range(10, 15), pa.int64()),
                             "x": pa.array([1, 2, 3, 4, 5], pa.int64())}), b)
    out = str(tmp_path / "enc")
    encode_dataset(a, out, token_col=None)
    encode_dataset([a, b], out, token_col=None, append=True)

    for unify in (False, True):
        got = decode_dataset(out, predicate=("x", "==", 3),
                             unify_schema=unify).to_pandas()
        assert got["k"].tolist() == [12], unify
    res = delete_rows(out, ("x", "==", 3))
    assert res["rows_newly_deleted"] == 1
    left = decode_dataset(out, columns=["k"]).to_pandas()["k"]
    assert sorted(left) == [k for k in range(15) if k != 12]

    with pytest.raises(KeyError, match="no partition"):
        decode_dataset(out, predicate=("y", "==", 3))
    with pytest.raises(KeyError, match="no partition"):
        delete_rows(out, ("y", "==", 3))
    with pytest.raises(KeyError, match="no partition"):
        decode_to_parquet(out, str(tmp_path / "export"),
                          predicate=[("k", ">", 0), ("y", "is_null", None)])
