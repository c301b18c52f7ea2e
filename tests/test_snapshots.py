"""Named snapshots (state/snapshots.py): time-travel reads pinning the
visible partition set + delete vectors; immutability-violation refusal;
append + delete invisibility; CLI drive."""

import glob
import json
import os
import subprocess
import sys

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from parquet_hs_ray.sources.synth import write_dataset
from parquet_hs_ray.state import manifest as mf
from parquet_hs_ray.state import snapshots as snaps


@pytest.fixture(scope="module")
def f1_dir(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("f1snap"))
    write_dataset(d, 2000, seed=42, n_files=4)
    return d


def _source_table(f1_dir) -> pa.Table:
    return pa.concat_tables(
        [pq.read_table(p) for p in sorted(glob.glob(f"{f1_dir}/*.parquet"))]
    ).combine_chunks()


def test_snapshot_pins_deletes_and_appends(ray_session, f1_dir, tmp_path):
    from parquet_hs_ray.pipelines.encode_job import (decode_dataset,
                                                     delete_rows,
                                                     encode_dataset)

    out = str(tmp_path / "enc")
    encode_dataset(f1_dir, out, token_budget=300_000)
    src = _source_table(f1_dir)

    delete_rows(out, ("n_tok", ">", 900))
    snaps.create_snapshot(out, "v1")
    assert snaps.list_snapshots(out) == ["v1"]

    # mutate AFTER the snapshot: another delete + an append
    delete_rows(out, ("source", "==", "web"))
    extra_dir = str(tmp_path / "extra")
    write_dataset(extra_dir, 200, seed=7, n_files=1)
    all_files = sorted(glob.glob(f"{f1_dir}/*.parquet")) + \
        sorted(glob.glob(f"{extra_dir}/*.parquet"))
    encode_dataset(all_files, out, token_budget=300_000, append=True)

    # live view sees both deletes and the appended rows
    live = decode_dataset(out).count()
    want_live = (int(pc.sum(pc.and_(
        pc.less_equal(src["n_tok"], 900),
        pc.not_equal(src["source"], "web"))).as_py()) + 200)
    assert live == want_live

    # snapshot view: first delete only, no appended partitions
    got = decode_dataset(out, snapshot="v1").to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    want = src.filter(pc.less_equal(src["n_tok"], 900)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert got.equals(want)


def test_snapshot_refuses_mutated_blob(ray_session, f1_dir, tmp_path):
    from parquet_hs_ray.pipelines.encode_job import decode_dataset, encode_dataset

    out = str(tmp_path / "enc2")
    encode_dataset(f1_dir, out, token_budget=300_000)
    snaps.create_snapshot(out, "pin")

    pid = mf.load_manifest(out)[0]["partition_id"]
    path = mf.blob_path(out, pid)
    with open(path, "r+b") as f:
        f.seek(50)
        b = f.read(1)
        f.seek(50)
        f.write(bytes([b[0] ^ 0xFF]))

    with pytest.raises(Exception, match="checksum"):
        decode_dataset(out, snapshot="pin").materialize()


def test_snapshot_missing_partition_raises(ray_session, f1_dir, tmp_path):
    from parquet_hs_ray.pipelines.encode_job import decode_dataset, encode_dataset

    out = str(tmp_path / "enc3")
    encode_dataset(f1_dir, out, token_budget=300_000)
    snaps.create_snapshot(out, "pin")
    pid = mf.load_manifest(out)[0]["partition_id"]
    os.remove(mf.entry_path(out, pid))
    with pytest.raises(ValueError, match="no longer in"):
        decode_dataset(out, snapshot="pin")


def test_unknown_snapshot_raises(ray_session, f1_dir, tmp_path):
    from parquet_hs_ray.pipelines.encode_job import decode_dataset, encode_dataset

    out = str(tmp_path / "enc4")
    encode_dataset(f1_dir, out, token_budget=300_000)
    with pytest.raises(FileNotFoundError):
        decode_dataset(out, snapshot="nope")
    with pytest.raises(ValueError, match="bad snapshot name"):
        snaps.create_snapshot(out, "a/b")


def test_cli_snapshot_drive(ray_session, f1_dir, tmp_path):
    out = str(tmp_path / "enc_cli")
    env = {**os.environ, "RAY_ADDRESS": "local"}

    def run(*argv):
        p = subprocess.run([sys.executable, "-m", "parquet_hs_ray.cli",
                            "--num-cpus", "2", *argv],
                           capture_output=True, text=True, env=env,
                           cwd="/root/repo")
        assert p.returncode == 0, p.stderr[-2000:]
        o = p.stdout.strip()
        return json.loads(o[o.index("{"):])

    run("encode", "--input", f1_dir, "--out", out, "--token-budget", "300000")
    s = run("snapshot", "--encoded", out, "--name", "v1")
    assert s["partitions"] > 0 and s["with_deletes"] == 0
    d = run("delete", "--encoded", out, "--where", "n_tok > 900")
    assert d["rows_newly_deleted"] > 0
    lst = run("snapshot", "--encoded", out)
    assert lst["snapshots"] == ["v1"]
    dec = run("decode", "--encoded", out, "--out", str(tmp_path / "d1"),
              "--snapshot", "v1")
    live = run("decode", "--encoded", out, "--out", str(tmp_path / "d2"))
    assert dec["rows"] == live["rows"] + d["rows_newly_deleted"]
