"""Ray Data pipeline tests: plan, encode job, decode, verify, resume, skew."""

import glob
import json
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from parquet_hs_ray.plan import build_plan, plan_file
from parquet_hs_ray.sources.synth import write_dataset
from parquet_hs_ray.state import manifest as mf


@pytest.fixture(scope="module")
def f1_dir(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("f1"))
    write_dataset(d, 3000, seed=42, n_files=4)
    return d


def test_plan_token_budget(f1_dir):
    paths = sorted(glob.glob(f"{f1_dir}/*.parquet"))
    plan = build_plan(paths, token_budget=200_000)
    assert len(plan) > 4
    ids = [p.partition_id for p in plan]
    assert ids == list(range(len(plan)))
    # budget respected except single-row overflows
    for p in plan:
        assert p.est_tokens <= 200_000 or p.row_count == 1
    # coverage: rows partition the files exactly
    by_file = {}
    for p in plan:
        by_file.setdefault(p.path, []).append((p.row_start, p.row_count))
    for path, ranges in by_file.items():
        ranges.sort()
        expect = 0
        for start, count in ranges:
            assert start == expect
            expect = start + count
        assert expect == pq.ParquetFile(path).metadata.num_rows


def test_build_plan_starts_no_ray_task(f1_dir, ray_session, monkeypatch):
    """With a session up and several input files, planning still runs on
    the driver: ``ray.remote`` is never called."""
    import ray

    def no_remote(*a, **k):
        raise AssertionError("build_plan started a Ray task")

    monkeypatch.setattr(ray, "remote", no_remote)
    paths = sorted(glob.glob(f"{f1_dir}/*.parquet"))
    assert ray.is_initialized() and len(paths) >= 2
    plan = build_plan(paths, token_budget=200_000)
    assert [p.partition_id for p in plan] == list(range(len(plan))) and len(plan) > 4
    assert sum(p.row_count for p in plan) == sum(pq.ParquetFile(p).metadata.num_rows
                                                 for p in paths)


def test_plan_skew_single_row_partition(tmp_path):
    """A single row over budget must get its own partition (F1-skew)."""
    tok = pa.array([[1] * 100, [2] * 50_000, [3] * 100], pa.list_(pa.int32()))
    tbl = pa.table({"tokens": tok, "n_tok": pa.array([100, 50_000, 100], pa.int32())})
    path = str(tmp_path / "skew.parquet")
    pq.write_table(tbl, path)
    plan = plan_file(path, token_budget=10_000)
    assert any(p["row_count"] == 1 and p["est_tokens"] == 50_000 for p in plan)
    assert sum(p["row_count"] for p in plan) == 3


def test_task_count_starts_no_session():
    """``plan.task_count`` with no Ray session: at least one task, never
    more than the units, at most the local CPU count, and no session is
    started. Run in a fresh interpreter: this one may hold a session."""
    import subprocess
    import sys
    import textwrap

    script = textwrap.dedent("""
        import os, ray
        from parquet_hs_ray.plan import cpu_slots, task_count
        n = os.cpu_count()
        assert cpu_slots() == n
        assert task_count(0) == 1 and task_count(1) == 1
        assert task_count(n + 5) == n
        os.cpu_count = lambda: 8
        assert [task_count(k) for k in (0, 3, 8, 100)] == [1, 3, 8, 8]
        assert not ray.is_initialized()
    """)
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run([sys.executable, "-c", script], cwd=repo,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_blob_jobs_run_one_task_per_cpu_slot(ray_session, f1_dir, tmp_path):
    """A blob-store job cuts its partitions into ``plan.task_count``
    contiguous runs: a store of more partitions than CPU slots decodes
    as one block per slot, rows unchanged."""
    import ray

    from parquet_hs_ray.pipelines.encode_job import decode_dataset, encode_dataset

    out = str(tmp_path / "enc")
    res = encode_dataset(f1_dir, out, token_budget=200_000)
    slots = int(ray.cluster_resources()["CPU"])
    assert res["planned"] > slots
    ds = decode_dataset(out).materialize()
    assert ds.num_blocks() == min(res["planned"], slots)
    src = pa.concat_tables(pq.read_table(f) for f in sorted(glob.glob(f"{f1_dir}/*.parquet")))
    got = pa.concat_tables(ds.iter_batches(batch_format="pyarrow"))
    assert got.sort_by("doc_id").equals(src.sort_by("doc_id"))


def test_encode_decode_verify_resume(ray_session, f1_dir, tmp_path):
    from parquet_hs_ray.pipelines.encode_job import decode_dataset, encode_dataset, verify_roundtrip

    out = str(tmp_path / "enc")
    res = encode_dataset(f1_dir, out, token_budget=300_000)
    assert res["planned"] == res["encoded"] + res["skipped_finished"]
    assert res["rows"] == 3000
    assert res["encoded_bytes"] > 0

    # verify: per-partition round-trip equality (token-array invariant)
    vres = verify_roundtrip(f1_dir, out)
    assert vres["rows"] == 3000 and vres["mismatched_partitions"] == 0

    # decode as a Dataset and compare a column aggregate with the input
    ds = decode_dataset(out)
    total_decoded = ds.count()
    assert total_decoded == 3000

    # resume: delete one manifest entry + blob -> only that partition re-encodes
    plan = json.load(open(os.path.join(out, "plan.json")))
    victim = plan[0]["partition_id"]
    os.remove(mf.entry_path(out, victim))
    os.remove(mf.blob_path(out, victim))
    blob_before = {p["partition_id"]: os.path.getmtime(mf.blob_path(out, p["partition_id"]))
                   for p in plan if p["partition_id"] != victim}
    res2 = encode_dataset(f1_dir, out, token_budget=300_000)
    assert res2["encoded"] == 1
    assert res2["skipped_finished"] == len(plan) - 1
    for pid, mtime in blob_before.items():
        assert os.path.getmtime(mf.blob_path(out, pid)) == mtime  # untouched
    assert verify_roundtrip(f1_dir, out)["mismatched_partitions"] == 0


def test_verify_unfinished_store_names_partitions(ray_session, f1_dir, tmp_path, monkeypatch):
    """A planned partition with no blob is refused on the driver with the
    unfinished ids, before any verify task starts."""
    from parquet_hs_ray.pipelines import encode_job
    from parquet_hs_ray.pipelines.encode_job import encode_dataset, verify_roundtrip

    out = str(tmp_path / "enc")
    encode_dataset(f1_dir, out, token_budget=300_000)
    victim = json.load(open(os.path.join(out, "plan.json")))[-1]["partition_id"]
    os.remove(mf.blob_path(out, victim))

    def no_tasks(*a, **k):
        raise AssertionError("verify started tasks on an unfinished store")

    monkeypatch.setattr(encode_job, "_map_partitions", no_tasks)
    with pytest.raises(ValueError, match=rf"\[{victim}\].*run encode to completion first"):
        verify_roundtrip(f1_dir, out)


def test_retry_idempotent_blob(ray_session, f1_dir, tmp_path):
    """Re-encoding a finished partition yields byte-identical output."""
    from parquet_hs_ray.pipelines.encode_job import encode_dataset

    out = str(tmp_path / "enc")
    encode_dataset(f1_dir, out, token_budget=300_000)
    pid = 0
    with open(mf.blob_path(out, pid), "rb") as f:
        before = f.read()
    os.remove(mf.entry_path(out, pid))
    encode_dataset(f1_dir, out, token_budget=300_000)
    with open(mf.blob_path(out, pid), "rb") as f:
        after = f.read()
    assert before == after


def test_encode_generic_table_without_ntok(ray_session, tmp_path):
    """Tables without n_tok fall back to byte/row-weighted planning."""
    from parquet_hs_ray.pipelines.encode_job import encode_dataset, verify_roundtrip

    out = str(tmp_path / "enc_li")
    res = encode_dataset("/root/testdata/sf0.001/lineitem.parquet", out,
                         token_col=None)
    assert res["rows"] == pq.ParquetFile("/root/testdata/sf0.001/lineitem.parquet").metadata.num_rows
    assert verify_roundtrip(None, out)["mismatched_partitions"] == 0


def test_decode_column_pruning(ray_session, f1_dir, tmp_path):
    from parquet_hs_ray.pipelines.encode_job import decode_dataset, encode_dataset

    out = str(tmp_path / "enc")
    encode_dataset(f1_dir, out, token_budget=300_000)
    ds = decode_dataset(out, columns=["n_tok", "source"])
    tbl = pa.concat_tables([pa.table(b) for b in ds.iter_batches(batch_format="pyarrow")])
    assert set(tbl.column_names) == {"n_tok", "source"}
    assert tbl.num_rows == 3000


def test_encode_many_partitions_one_task_path(ray_session, f1_dir, tmp_path):
    """A job of >= 16 partitions per CPU (64 on the 4-CPU session) runs on
    the same plain-task path as a small one, and no entry carries
    actor-only lineage."""
    from parquet_hs_ray.pipelines.encode_job import encode_dataset, verify_roundtrip

    out = str(tmp_path / "enc_many")
    res = encode_dataset(f1_dir, out, token_budget=30_000)
    assert res["encoded"] == res["planned"] >= 64
    assert res["rows"] == 3000
    assert verify_roundtrip(f1_dir, out)["mismatched_partitions"] == 0
    entries = mf.load_manifest(out)
    assert len(entries) == res["planned"]
    assert not any("actor_init_ms" in e for e in entries)


def test_verify_handles_nan_floats(ray_session, tmp_path):
    """NaN slots with identical bit patterns must verify as equal
    (Table.equals treats NaN != NaN)."""
    import math

    from parquet_hs_ray.pipelines.encode_job import encode_dataset, verify_roundtrip

    tbl = pa.table({"x": pa.array([math.nan, -0.0, 0.0, 1.5] * 100, pa.float64()),
                    "k": pa.array(range(400), pa.int64())})
    path = str(tmp_path / "nan.parquet")
    pq.write_table(tbl, path)
    out = str(tmp_path / "enc_nan")
    encode_dataset(path, out, token_col=None)
    assert verify_roundtrip(None, out)["mismatched_partitions"] == 0


def test_encode_rejects_stale_plan_for_different_input(ray_session, f1_dir, tmp_path):
    from parquet_hs_ray.pipelines.encode_job import encode_dataset

    out = str(tmp_path / "enc_stale")
    encode_dataset(f1_dir, out, token_budget=300_000)
    with pytest.raises(ValueError, match="different input"):
        encode_dataset("/root/testdata/sf0.001/lineitem.parquet", out, token_col=None)


def test_decode_predicate_prunes_partitions(ray_session, tmp_path):
    """Manifest min/max pruning (VERDICT r1 #9): partitions whose stats
    exclude the predicate are never opened — proven by DELETING their
    blobs and decoding anyway — and the surviving rows match an exact
    pandas filter."""
    from parquet_hs_ray.pipelines.encode_job import (
        decode_dataset,
        encode_dataset,
        pruned_partition_ids,
    )

    # sorted key -> tight per-partition min/max -> prunable
    n = 20_000
    tbl = pa.table({
        "k": pa.array(np.arange(n, dtype=np.int64)),
        "v": pa.array(np.arange(n, dtype=np.float64) * 0.5),
    })
    src = str(tmp_path / "sorted.parquet")
    pq.write_table(tbl, src, row_group_size=1000)
    out = str(tmp_path / "enc")
    res = encode_dataset(src, out, token_col=None, token_budget=4000)
    assert res["planned"] >= 5

    pred = ("k", "between", (2500, 4500))
    kept, total = pruned_partition_ids(out, pred)
    assert 0 < len(kept) < total

    # conjunction + operator variants prune consistently (before blobs are
    # deleted below — this one needs the tail partitions)
    kept2, _ = pruned_partition_ids(out, [("k", ">=", 19_000), ("v", "<", 1e9)])
    assert 0 < len(kept2) < total
    got2 = decode_dataset(out, predicate=[("k", ">=", 19_000)]).to_pandas()
    assert len(got2) == 1000 and got2["k"].min() == 19_000

    # delete every pruned partition's blob: decode succeeds only if those
    # partitions are truly never read
    for e in mf.load_manifest(out):
        if e["partition_id"] not in kept:
            os.remove(mf.blob_path(out, e["partition_id"]))

    got = decode_dataset(out, predicate=pred).to_pandas().sort_values("k").reset_index(drop=True)
    ref = tbl.to_pandas()
    ref = ref[(ref["k"] >= 2500) & (ref["k"] <= 4500)].reset_index(drop=True)
    assert got.equals(ref)


def _frame_span(blob: bytes, col: str) -> tuple[int, int]:
    """[start, end) of column ``col``'s frame inside a blob."""
    from parquet_hs_ray.codecs.varint import decode_varint

    pos = 10 + int.from_bytes(blob[6:10], "little")
    _, pos = decode_varint(blob, pos)
    n_cols, pos = decode_varint(blob, pos)
    for _ in range(n_cols):
        nlen, pos = decode_varint(blob, pos)
        name = blob[pos:pos + nlen].decode()
        flen, pos = decode_varint(blob, pos + nlen)
        if name == col:
            return pos, pos + flen
        pos += flen
    raise KeyError(col)


def _flip_payload_bit(blob_file: str, col: str) -> None:
    """Flip one bit mid-payload of ``col``'s frame — a flip the codec
    decodes WITHOUT error to different values, so only the manifest
    crc32 can catch it."""
    from parquet_hs_ray.format import decode_table

    data = bytearray(open(blob_file, "rb").read())
    good = decode_table(bytes(data))
    lo, hi = _frame_span(bytes(data), col)
    data[(lo + hi) // 2] ^= 0x01
    assert not decode_table(bytes(data)).equals(good)  # silently wrong
    open(blob_file, "wb").write(bytes(data))


def _corrupt_store(tmp_path):
    """4-partition store of (k, random int64 x); returns (input dir, store)."""
    from parquet_hs_ray.pipelines.encode_job import encode_dataset

    src = tmp_path / "src"
    src.mkdir()
    rng = np.random.default_rng(5)
    for f in range(4):
        k = np.arange(f * 500, (f + 1) * 500, dtype=np.int64)
        pq.write_table(pa.table({"k": k, "x": rng.integers(0, 1 << 20, 500)}),
                       str(src / f"part-{f}.parquet"))
    out = str(tmp_path / "enc")
    encode_dataset(str(src), out, token_col=None)
    assert len(mf.load_manifest(out)) == 4
    return str(src), out


_CORRUPT_READERS = ("decode_dataset", "decode_to_parquet", "compact_dataset",
                    "delete_rows", "backfill_columns", "verify_roundtrip",
                    "aux_family")


@pytest.mark.parametrize("reader", _CORRUPT_READERS)
def test_decode_detects_corrupt_blob(ray_session, tmp_path, reader):
    """Every blob reader fails loudly on a flipped payload bit via the
    manifest crc32 — none decodes it to wrong values, compacts it into a
    fresh store or writes a delete vector from it."""
    from parquet_hs_ray.pipelines import encode_job as ej

    src, out = _corrupt_store(tmp_path)

    def backfill():
        ej.backfill_columns(out, "fam", lambda t: pa.table({"y": t["x"]}))

    if reader == "aux_family":
        backfill()
        _flip_payload_bit(mf.blob_path(ej.aux_family_dir(out, "fam"), 0), "y")
    else:
        _flip_payload_bit(mf.blob_path(out, 0), "x")
    run = {
        "decode_dataset": lambda: ej.decode_dataset(out).to_pandas(),
        "decode_to_parquet": lambda: ej.decode_to_parquet(out, str(tmp_path / "export")),
        "compact_dataset": lambda: ej.compact_dataset(out, str(tmp_path / "compact")),
        "delete_rows": lambda: ej.delete_rows(out, ("k", "==", 7)),
        "backfill_columns": backfill,
        "verify_roundtrip": lambda: ej.verify_roundtrip(src, out),
        "aux_family": lambda: ej.decode_dataset(out, aux_families=["fam"]).to_pandas(),
    }[reader]
    with pytest.raises(Exception, match="checksum mismatch"):
        run()


def test_encode_append_new_files(ray_session, f1_dir, tmp_path):
    """append=True extends an encoded dataset with new input files without
    touching existing partitions; a changed/removed old file still raises."""
    from parquet_hs_ray.pipelines.encode_job import decode_dataset, encode_dataset

    out = str(tmp_path / "enc")
    res1 = encode_dataset(f1_dir, out, token_budget=300_000)
    n1 = res1["planned"]

    extra_dir = str(tmp_path / "extra")
    write_dataset(extra_dir, 1000, seed=99, n_files=2)
    all_files = sorted(glob.glob(f"{f1_dir}/*.parquet") + glob.glob(f"{extra_dir}/*.parquet"))

    # without append: rejected
    with pytest.raises(ValueError, match="different input"):
        encode_dataset(all_files, out, token_budget=300_000)

    mtimes = {p: os.path.getmtime(mf.blob_path(out, p)) for p in range(n1)}
    res2 = encode_dataset(all_files, out, token_budget=300_000, append=True)
    assert res2["planned"] > n1 and res2["skipped_finished"] == n1
    for p, t in mtimes.items():
        assert os.path.getmtime(mf.blob_path(out, p)) == t  # untouched
    assert decode_dataset(out).count() == 4000


def test_tumbling_window_null_values_sum_as_zero(ray_session):
    """r4 review: a null value in a (user, window) group must not poison
    the group's sum with NaN — SQL SUM / pandas-skipna semantics (the
    row still counts in n_events)."""
    import pandas as pd
    import ray.data

    from parquet_hs_ray.pipelines.windows import tumbling_window

    ev = pd.DataFrame({
        "user_id": [1, 1, 2],
        "ts": [10, 20, 30],
        "value": [1.5, None, None],
    })
    out = tumbling_window(ray.data.from_pandas(ev),
                          window_us=100).to_pandas()
    out = out.sort_values("user_id").reset_index(drop=True)
    assert out["n_events"].tolist() == [2, 1]
    assert out["sum_value"].tolist() == [1.5, 0.0]


def test_hopping_window_matches_pandas(ray_session):
    import ray.data

    from parquet_hs_ray.pipelines.windows import hopping_window

    ev = ray.data.read_parquet("/root/testdata/sf0.001/events.parquet")
    ours = (hopping_window(ev, window_us=3_600_000_000, hop_us=1_800_000_000)
            .to_pandas().sort_values(["user_id", "win"]).reset_index(drop=True))
    raw = ev.to_pandas()
    t = raw["ts"].astype("datetime64[us]").astype("int64")
    frames = []
    for i in range(2):
        frames.append(pd.DataFrame({"user_id": raw["user_id"],
                                    "win": t // 1_800_000_000 - i,
                                    "value": raw["value"]}))
    allw = pd.concat(frames)
    ref = (allw.groupby(["user_id", "win"])
               .agg(n_events=("value", "size"), sum_value=("value", "sum"))
               .reset_index().sort_values(["user_id", "win"]).reset_index(drop=True))
    ref["sum_value"] = ref["sum_value"].round(6)
    pd.testing.assert_frame_equal(
        ours.astype({"n_events": np.int64, "win": np.int64}),
        ref.astype({"n_events": np.int64, "win": np.int64}),
        check_like=True, atol=1e-6,
    )


def test_decode_to_parquet_resumable(ray_session, f1_dir, tmp_path):
    """Exported parquet is one file per partition; a second run skips all
    finished files; deleting one re-exports exactly it; content matches."""
    from parquet_hs_ray.pipelines.encode_job import decode_to_parquet, encode_dataset

    out = str(tmp_path / "enc")
    encode_dataset(f1_dir, out, token_budget=300_000)
    dest = str(tmp_path / "export")
    r1 = decode_to_parquet(out, dest)
    assert r1["written"] == r1["partitions"] > 1 and r1["skipped_finished"] == 0
    files = sorted(os.listdir(dest))
    assert len(files) == r1["partitions"]

    r2 = decode_to_parquet(out, dest)
    assert r2["written"] == 0 and r2["skipped_finished"] == r1["partitions"]

    os.remove(os.path.join(dest, files[0]))
    r3 = decode_to_parquet(out, dest)
    assert r3["written"] == 1

    got = pq.read_table(dest).to_pandas().sort_values("doc_id").reset_index(drop=True)
    src = pq.read_table(f1_dir).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert len(got) == len(src) and got["doc_id"].equals(src["doc_id"])


def test_decode_empty_match_preserves_schema(ray_session, tmp_path):
    """A partition whose manifest min/max STRADDLE the predicate but whose
    rows don't match must yield a zero-ROW (never zero-COLUMN) table with
    the blob's real schema (VERDICT r2 #4), and a resumable export with
    that predicate must read back with the full schema and the matching
    rows from other partitions (ADVICE r2, encode_job.py:322)."""
    from parquet_hs_ray.pipelines.encode_job import (
        decode_dataset,
        decode_to_parquet,
        encode_dataset,
    )

    # 4 partitions of 1000 rows; `sel`: p0 alternates {0,2} (stats [0,2]
    # straddle 1, zero matches), p1/p3 all 0 (pruned), p2 all 1 (matches)
    n = 4000
    sel = np.zeros(n, dtype=np.int64)
    sel[0:1000:2] = 2
    sel[2000:3000] = 1
    tbl = pa.table({
        "k": pa.array(np.arange(n, dtype=np.int64)),
        "sel": pa.array(sel),
        "name": pa.array([f"row-{i}" for i in range(n)]),
    })
    src = str(tmp_path / "straddle.parquet")
    pq.write_table(tbl, src, row_group_size=1000)
    out = str(tmp_path / "enc")
    encode_dataset(src, out, token_col=None, token_budget=1000)

    # a RANGE predicate: the per-partition Bloom proves `== 1` absent
    # from the straddler outright (see test_bloom_prune), but min/max
    # can't prune `between`, so this still exercises the
    # straddle-then-empty decode path the test is about
    pred = [("sel", "between", (1, 1))]
    ds = decode_dataset(out, predicate=pred)
    got = ds.to_pandas()
    assert list(got.columns) == ["k", "sel", "name"]  # schema survives
    assert len(got) == 1000 and (got["sel"] == 1).all()

    # column-pruned variant: empty blocks must carry the PRUNED schema
    got2 = decode_dataset(out, columns=["k", "name"], predicate=pred).to_pandas()
    assert list(got2.columns) == ["k", "name"] and len(got2) == 1000

    # resumable export with the same predicate: directory reads back with
    # schema + the 1000 matching rows (the ADVICE repro: straddling-empty
    # partition must not poison directory-level schema inference)
    dest = str(tmp_path / "export")
    r = decode_to_parquet(out, dest, predicate=pred)
    assert r["written"] == 2  # the straddler + the matching partition
    back = pq.read_table(dest)
    assert back.num_rows == 1000
    assert set(back.column_names) == {"k", "sel", "name"}


def test_decode_unknown_column_raises(ray_session, tmp_path):
    """A typo'd `columns=` name fails loudly from the blob's embedded
    schema (VERDICT r2 #10), not silently missing from the result."""
    from parquet_hs_ray.format import decode_table, encode_table
    from parquet_hs_ray.pipelines.encode_job import decode_dataset, encode_dataset

    blob, _ = encode_table(pa.table({"a": [1, 2], "b": ["x", "y"]}))
    with pytest.raises(KeyError, match="unknown columns"):
        decode_table(blob, ["a", "nope"])

    src = "/root/testdata/sf0.001/region.parquet"
    out = str(tmp_path / "enc")
    encode_dataset(src, out, token_col=None)
    with pytest.raises(Exception, match="unknown columns"):
        decode_dataset(out, columns=["r_regionkey", "typo_col"]).to_pandas()


def test_stats_type_mismatch_degrades_to_no_prune():
    """Numeric predicate against string min/max stats (ADVICE r2,
    encode_job.py:195): incomparable -> keep the partition, don't crash."""
    from parquet_hs_ray.pipelines.encode_job import _probe_hashes, _stats_can_match

    entry = {"columns": {"name": {"min": "alpha", "max": "zeta"}}}

    def can_match(preds):
        return _stats_can_match(entry, preds, _probe_hashes(preds))

    assert can_match([("name", "==", 5)]) is True
    assert can_match([("name", ">=", 3.5)]) is True
    # comparable predicates still prune
    assert can_match([("name", "==", "zz")]) is False


def test_decode_to_parquet_partition_cols(ray_session, f1_dir, tmp_path):
    """--partition-cols (ADVICE r2): hive layout
    <dest>/source=<v>/part-<id>.parquet, resume via _done markers, and the
    directory reads back equal to the input."""
    from parquet_hs_ray.pipelines.encode_job import decode_to_parquet, encode_dataset

    out = str(tmp_path / "enc")
    encode_dataset(f1_dir, out, token_budget=300_000)
    dest = str(tmp_path / "export")
    r1 = decode_to_parquet(out, dest, partition_cols=["source"])
    assert r1["written"] == r1["partitions"] > 1

    subdirs = sorted(d for d in os.listdir(dest) if not d.startswith("_"))
    assert subdirs and all(d.startswith("source=") for d in subdirs)
    assert len(os.listdir(os.path.join(dest, "_done"))) == r1["partitions"]

    r2 = decode_to_parquet(out, dest, partition_cols=["source"])
    assert r2["written"] == 0 and r2["skipped_finished"] == r1["partitions"]

    # deleting one marker re-exports exactly that partition
    marker = sorted(os.listdir(os.path.join(dest, "_done")))[0]
    os.remove(os.path.join(dest, "_done", marker))
    r3 = decode_to_parquet(out, dest, partition_cols=["source"])
    assert r3["written"] == 1

    back = pq.read_table(dest).to_pandas().sort_values("doc_id").reset_index(drop=True)
    src = pq.read_table(f1_dir).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert len(back) == len(src)
    assert back["doc_id"].equals(src["doc_id"])
    assert back["source"].astype(str).equals(src["source"].astype(str))


def test_ingest_jsonl_and_csv_roundtrip_through_encode(ray_session, tmp_path):
    """JSONL and CSV sources stage to parquet and run the FULL encode ->
    verify path bit-exact (source-format breadth: the reference reads
    only parquet)."""
    import json as _json

    from parquet_hs_ray.pipelines.encode_job import encode_dataset, verify_roundtrip
    from parquet_hs_ray.sources.ingest import ingest_to_parquet, read_any

    df = pd.DataFrame({
        "doc_id": [f"d{i}" for i in range(500)],
        "n_tok": np.arange(500, dtype=np.int64) % 37 + 1,
        "source": np.array(["a", "b"])[np.arange(500) % 2],
    })
    jl = tmp_path / "docs.jsonl"
    with open(jl, "w") as f:
        for r in df.to_dict("records"):
            f.write(_json.dumps(r) + "\n")
    cv = tmp_path / "docs.csv"
    df.to_csv(cv, index=False)

    for src, name in ((str(jl), "jsonl"), (str(cv), "csv")):
        got = (read_any(src).to_pandas()
               .sort_values("doc_id").reset_index(drop=True))
        exp = df.sort_values("doc_id").reset_index(drop=True)
        assert got["n_tok"].astype(np.int64).equals(exp["n_tok"])
        staged = ingest_to_parquet(src, str(tmp_path / f"staged_{name}"))
        enc = str(tmp_path / f"enc_{name}")
        res = encode_dataset(staged, enc, token_budget=3000)
        assert res["encoded"] >= 1
        v = verify_roundtrip(staged, enc)
        assert v["mismatched_partitions"] == 0 and v["rows"] == 500


def test_null_predicate_pruning_and_exact_filter(ray_session, tmp_path):
    """is_null / is_not_null predicates: manifest null_count prunes
    whole partitions (all-valid partitions skip IS NULL; all-null ones
    skip IS NOT NULL), surviving rows filter exactly, and nullable
    min/max stats are tightened to the VALID values (the zero-fill
    sentinel no longer widens the range)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from parquet_hs_ray.pipelines.encode_job import (decode_dataset,
                                                     encode_dataset,
                                                     pruned_partition_ids)

    n = 6000
    v = np.arange(n, dtype=np.float64) + 100.0
    # nulls only in the FIRST third of the file -> only those partitions
    # can match IS NULL
    v[: n // 3] = np.where(np.arange(n // 3) % 2 == 0, np.nan, v[: n // 3])
    df = pd.DataFrame({"id": np.arange(n, dtype=np.int64), "v": v,
                       "n_tok": np.full(n, 10, dtype=np.int32)})
    src = tmp_path / "t.parquet"
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False), src,
                   row_group_size=500)
    out = str(tmp_path / "enc")
    encode_dataset(str(src), out, token_budget=5_000)  # ~12 partitions

    kept_null, total = pruned_partition_ids(out, [("v", "is_null", None)])
    assert total >= 10
    assert len(kept_null) <= total // 2  # valid-only partitions pruned
    got = decode_dataset(out, predicate=[("v", "is_null", None)]).to_pandas()
    assert len(got) == int(np.isnan(v).sum())
    assert got["v"].isna().all()

    got2 = decode_dataset(out, predicate=[("v", "is_not_null", None)]).to_pandas()
    assert len(got2) == n - int(np.isnan(v).sum())
    assert got2["v"].notna().all()

    # tightened min/max: a predicate below the true valid minimum prunes
    # EVERY partition even though null slots were zero-filled on disk
    kept_lo, _ = pruned_partition_ids(out, [("v", "<", 50.0)])
    assert kept_lo == []


def test_string_stats_enable_equality_pruning(ray_session, tmp_path):
    """String min/max stats: a source-sorted layout prunes whole
    partitions under --where source == X."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from parquet_hs_ray.pipelines.encode_job import (decode_dataset,
                                                     encode_dataset,
                                                     pruned_partition_ids)

    n = 6000
    src_col = np.sort(np.array(["cc", "github", "wiki"])[
        np.arange(n) % 3])  # sorted -> partitions are source-pure
    df = pd.DataFrame({"id": np.arange(n, dtype=np.int64),
                       "source": src_col,
                       "n_tok": np.full(n, 10, dtype=np.int32)})
    src = tmp_path / "t.parquet"
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False), src,
                   row_group_size=500)
    out = str(tmp_path / "enc")
    encode_dataset(str(src), out, token_budget=5_000)

    kept, total = pruned_partition_ids(out, [("source", "==", "wiki")])
    assert total >= 10 and len(kept) <= total // 2
    got = decode_dataset(out, predicate=[("source", "==", "wiki")]).to_pandas()
    assert len(got) == n // 3 and (got["source"] == "wiki").all()


def test_compact_dataset_merges_preserves_rows_and_resumes(ray_session, tmp_path):
    """Compaction: many sub-budget partitions merge into few, decoded
    content row-equals the source store, bytes don't grow (bigger chunks
    amortize dictionaries), lineage recorded, finished groups skipped on
    re-run, and equality pruning still works via the rebuilt stats."""
    from parquet_hs_ray.pipelines.encode_job import (compact_dataset,
                                                     decode_dataset,
                                                     encode_dataset,
                                                     pruned_partition_ids)
    from parquet_hs_ray.sources.synth import gen_batch

    src_tbl = gen_batch(4000, seed=11)
    src = str(tmp_path / "f1.parquet")
    pq.write_table(src_tbl, src, row_group_size=250)
    enc = str(tmp_path / "enc")
    # tiny budget -> fragmented store
    encode_dataset(src, enc, token_budget=60_000)
    n_src = len([e for e in mf.load_manifest(enc) if e["status"] == "done"])
    assert n_src >= 12

    out = str(tmp_path / "compacted")
    res = compact_dataset(enc, out, token_budget=1_000_000)
    assert 1 <= res["groups"] < n_src // 2
    assert res["source_partitions"] == n_src

    # content equality (streaming executor may emit blocks out of order;
    # within-partition order is preserved, global order keyed by doc_id)
    a = decode_dataset(enc).to_pandas().sort_values("doc_id").reset_index(drop=True)
    b = decode_dataset(out).to_pandas().sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)

    src_bytes = sum(e["encoded_bytes"] for e in mf.load_manifest(enc))
    out_entries = mf.load_manifest(out)
    out_bytes = sum(e["encoded_bytes"] for e in out_entries)
    assert out_bytes <= src_bytes  # merged chunks never encode larger

    # lineage: every source partition appears exactly once, in id order
    seen = [pid for e in sorted(out_entries, key=lambda e: e["partition_id"])
            for pid in e["source_partitions"]]
    assert seen == sorted(e["partition_id"] for e in mf.load_manifest(enc))
    assert all(e["compacted_from"] == enc for e in out_entries)

    # resume: re-run is a no-op
    res2 = compact_dataset(enc, out, token_budget=1_000_000)
    assert res2["compacted"] == 0
    assert res2["skipped_finished"] == res["groups"]

    # rebuilt stats + blooms prune on the compacted store
    target = str(a["doc_id"].iloc[len(a) // 2])
    kept, total = pruned_partition_ids(out, [("doc_id", "==", target)])
    got = decode_dataset(out, predicate=[("doc_id", "==", target)]).to_pandas()
    assert len(got) >= 1 and (got["doc_id"] == target).all()
    if total >= 4:
        assert len(kept) < total


def test_compact_resume_recompacts_grown_group(ray_session, tmp_path):
    """An append after a compaction grows the group it lands in: a rerun
    compacts that group again, since its output entry's
    ``source_partitions`` are no longer the group's sources, rather than
    counting it finished and dropping the appended rows."""
    from parquet_hs_ray.pipelines.encode_job import (compact_dataset,
                                                     decode_dataset,
                                                     encode_dataset)
    from parquet_hs_ray.sources.synth import gen_batch

    src = str(tmp_path / "src")
    write_dataset(src, 200, seed=3, n_files=3)
    enc, out = str(tmp_path / "enc"), str(tmp_path / "cpt")
    assert encode_dataset(src, enc, token_budget=10**9)["planned"] == 3
    assert compact_dataset(enc, out, token_budget=10**9)["compacted"] == 1
    pq.write_table(gen_batch(60, seed=3, start_row=200), f"{src}/part-00003.parquet")
    assert encode_dataset(src, enc, token_budget=10**9, append=True)["encoded"] == 1

    res = compact_dataset(enc, out, token_budget=10**9)
    assert (res["source_partitions"], res["compacted"], res["skipped_finished"]) == (4, 1, 0)
    assert mf.load_manifest(out)[0]["source_partitions"] == [0, 1, 2, 3]
    want = pa.concat_tables(decode_dataset(enc).iter_batches(batch_format="pyarrow"))
    got = pa.concat_tables(decode_dataset(out).iter_batches(batch_format="pyarrow"))
    assert got.num_rows == want.num_rows == 260
    assert got.sort_by("doc_id").equals(want.sort_by("doc_id"))
    assert compact_dataset(enc, out, token_budget=10**9)["compacted"] == 0


def test_compact_never_merges_across_schemas(ray_session, tmp_path):
    """A store encoded from a whole directory holds several tables;
    compaction must break groups at schema boundaries (column-set
    change), not concat incompatible tables."""
    from parquet_hs_ray.pipelines.encode_job import (compact_dataset,
                                                     decode_dataset,
                                                     encode_dataset)

    enc = str(tmp_path / "enc_multi")
    encode_dataset(["/root/testdata/sf0.001/region.parquet",
                    "/root/testdata/sf0.001/nation.parquet"],
                   enc, token_col=None, token_budget=10**9)
    out = str(tmp_path / "cpt_multi")
    res = compact_dataset(enc, out, token_budget=10**12)
    assert res["groups"] == 2  # huge budget, but schemas differ
    assert decode_dataset(out).count() == decode_dataset(enc).count()


def test_schema_evolution_decode(ray_session, tmp_path):
    """A store appended across schema versions decodes to one unified
    schema: v1 partitions null-pad the new column, projections and
    predicates see all-NULL semantics on blobs that predate the column,
    and same-name type conflicts raise."""
    from parquet_hs_ray.pipelines.encode_job import decode_dataset, encode_dataset

    d1 = str(tmp_path / "v1")
    write_dataset(d1, 600, seed=1, n_files=2)
    d2 = str(tmp_path / "v2")
    os.makedirs(d2)
    t = pq.read_table(sorted(glob.glob(f"{d1}/*.parquet"))[0])
    langs = pa.array(["en" if i % 2 == 0 else "de" for i in range(t.num_rows)])
    pq.write_table(t.append_column("lang", langs), f"{d2}/part_v2.parquet")

    out = str(tmp_path / "enc")
    encode_dataset(d1, out, token_budget=100_000)
    allf = sorted(glob.glob(f"{d1}/*.parquet") + glob.glob(f"{d2}/*.parquet"))
    encode_dataset(allf, out, token_budget=100_000, append=True)

    df = decode_dataset(out, unify_schema=True).to_pandas()
    assert "lang" in df.columns and len(df) == 600 + t.num_rows
    assert int(df["lang"].isna().sum()) == 600      # v1 rows null-padded

    cols = decode_dataset(out, columns=["doc_id", "lang"],
                          unify_schema=True).to_pandas()
    assert list(cols.columns) == ["doc_id", "lang"] and len(cols) == len(df)

    en = decode_dataset(out, predicate=("lang", "==", "en"),
                        unify_schema=True).to_pandas()
    assert (en["lang"] == "en").all()
    assert len(en) == sum(1 for i in range(t.num_rows) if i % 2 == 0)
    nulls = decode_dataset(out, predicate=("lang", "is_null", None),
                           unify_schema=True).to_pandas()
    assert len(nulls) == 600 and nulls["lang"].isna().all()

    with pytest.raises(KeyError, match="target schema"):
        decode_dataset(out, columns=["nope"], unify_schema=True)

    # v3 redefines lang as int64 -> unify must refuse
    d3 = str(tmp_path / "v3")
    os.makedirs(d3)
    pq.write_table(t.append_column("lang", pa.array(
        np.arange(t.num_rows, dtype=np.int64))), f"{d3}/part_v3.parquet")
    encode_dataset(sorted(allf + glob.glob(f"{d3}/*.parquet")), out,
                   token_budget=100_000, append=True)
    # v2 and v3 share a column-NAME set, so the driver probe sees only
    # one of them; the drifted blob is refused at decode time instead
    with pytest.raises(Exception, match="type conflict"):
        decode_dataset(out, unify_schema=True).materialize()


def test_schema_evolution_export_and_cli(ray_session, tmp_path):
    """Resumable parquet export with unify_schema: every part file gets
    the union schema, so the directory reads back uniformly; the CLI flag
    drives the same path."""
    import subprocess
    import sys

    from parquet_hs_ray.pipelines.encode_job import decode_to_parquet, encode_dataset

    d1 = str(tmp_path / "v1")
    write_dataset(d1, 400, seed=3, n_files=2)
    d2 = str(tmp_path / "v2")
    os.makedirs(d2)
    t = pq.read_table(sorted(glob.glob(f"{d1}/*.parquet"))[0])
    pq.write_table(t.append_column("extra", pa.array(
        np.arange(t.num_rows, dtype=np.int64))), f"{d2}/p.parquet")

    out = str(tmp_path / "enc")
    encode_dataset(d1, out, token_budget=80_000)
    allf = sorted(glob.glob(f"{d1}/*.parquet") + glob.glob(f"{d2}/*.parquet"))
    encode_dataset(allf, out, token_budget=80_000, append=True)

    dest = str(tmp_path / "export")
    res = decode_to_parquet(out, dest, unify_schema=True)
    assert res["written"] == res["partitions"]
    back = pq.read_table(dest)
    assert "extra" in back.schema.names
    assert back.num_rows == 400 + t.num_rows
    assert back.column("extra").null_count == 400


def test_manifest_compaction(ray_session, f1_dir, tmp_path):
    """compact_manifest merges per-partition JSONs into one jsonl: same
    entries, resume still skips finished work, a partition re-encoded
    after compaction overrides its compacted row, and a second compaction
    merges loose + old compacted (crash-window duplicates dedupe)."""
    from parquet_hs_ray.pipelines.encode_job import decode_dataset, encode_dataset
    from parquet_hs_ray.state.manifest import compact_manifest

    out = str(tmp_path / "enc")
    encode_dataset(f1_dir, out, token_budget=300_000)
    before = sorted(mf.load_manifest(out), key=lambda e: e["partition_id"])
    n = len(before)

    res = compact_manifest(out)
    assert res["entries"] == n and res["merged_files"] == n
    files = os.listdir(os.path.join(out, "manifest"))
    assert files == ["compact-000001.jsonl"]
    after = sorted(mf.load_manifest(out), key=lambda e: e["partition_id"])
    assert after == before

    # resume over a compacted manifest: everything skips
    res2 = encode_dataset(f1_dir, out, token_budget=300_000)
    assert res2["skipped_finished"] == n and res2["encoded"] == 0
    assert decode_dataset(out).count() == 3000

    # delete one blob -> that partition re-encodes, loose entry overrides
    victim = before[0]["partition_id"]
    os.remove(mf.blob_path(out, victim))
    res3 = encode_dataset(f1_dir, out, token_budget=300_000)
    assert res3["encoded"] == 1
    assert len(mf.load_manifest(out)) == n       # dedup by partition_id

    # second compaction merges the loose entry + old compacted file
    res4 = compact_manifest(out)
    assert res4["entries"] == n and res4["merged_files"] == 2
    assert os.listdir(os.path.join(out, "manifest")) == ["compact-000002.jsonl"]
    assert decode_dataset(out).count() == 3000

    # empty store: no-op
    assert compact_manifest(str(tmp_path / "nothing"))["entries"] == 0


def test_incremental_tumbling_matches_batch(ray_session, tmp_path):
    """Three chronological increments + flush == one batch pass (integer
    cents); watermark closes windows as it advances; late events beyond
    the budget are dropped AND counted; state survives via the meta.json
    commit point."""
    import ray.data

    from parquet_hs_ray.pipelines.incremental import (incremental_flush,
                                                      incremental_tumbling)

    W = 1_000_000  # 1 s windows
    rng = np.random.default_rng(23)
    n = 3000
    ts = np.sort(rng.integers(0, 30 * W, size=n))
    df = pd.DataFrame({
        "user_id": rng.integers(1, 6, size=n),
        "ts": pd.to_datetime(ts, unit="us"),
        "value": np.round(rng.uniform(0, 10, size=n), 2),
    })
    state = str(tmp_path / "state")

    emitted = []
    infos = []
    for lo, hi in ((0, 1000), (1000, 2000), (2000, 3000)):
        ds = ray.data.from_pandas([df.iloc[lo:lo + 500], df.iloc[lo + 500:hi]])
        em, info = incremental_tumbling(ds, state, window_us=W,
                                        allowed_lateness_us=2 * W)
        emitted.append(em)
        infos.append(info)
    emitted.append(incremental_flush(state))
    got = (pd.concat(emitted, ignore_index=True)
           .sort_values(["win", "user_id"]).reset_index(drop=True))

    # batch truth in the same integer-cents arithmetic
    cents = np.round(df["value"].to_numpy() * 100).astype(np.int64)
    exp = (pd.DataFrame({"user_id": df["user_id"], "win": ts // W,
                         "n_events": 1, "sum_c": cents})
           .groupby(["user_id", "win"], as_index=False).sum()
           .sort_values(["win", "user_id"]).reset_index(drop=True)
           [["user_id", "win", "n_events", "sum_c"]].astype(np.int64))
    pd.testing.assert_frame_equal(got[exp.columns], exp)

    # no window emitted twice; watermark monotone; sorted input -> no drops
    assert not got.duplicated(["user_id", "win"]).any()
    assert infos[0]["watermark"] <= infos[1]["watermark"] <= infos[2]["watermark"]
    assert sum(i["n_late_dropped"] for i in infos) == 0

    # a genuinely late event (window closed long ago) drops and counts
    late = pd.DataFrame({"user_id": [1], "ts": [pd.Timestamp(0)],
                         "value": [5.0]})
    em2, info2 = incremental_tumbling(ray.data.from_pandas(late), state,
                                      window_us=W, allowed_lateness_us=2 * W)
    assert info2["n_late_dropped"] == 1 and len(em2) == 0

    # an old-but-in-budget event reopens nothing it shouldn't: inside the
    # lateness budget it lands in an OPEN window and is kept
    wm = info2["watermark"]
    okts = pd.Timestamp((wm // W) * W, unit="us")  # window end > watermark
    ok = pd.DataFrame({"user_id": [2], "ts": [okts], "value": [1.0]})
    _, info3 = incremental_tumbling(ray.data.from_pandas(ok), state,
                                    window_us=W, allowed_lateness_us=2 * W)
    assert info3["n_late_dropped"] == 0


def test_incremental_dedup_exact(ray_session, tmp_path):
    """Two increments against bucketed hash state == global first-
    occurrence (min doc_id) dedup; re-running an increment re-emits the
    SAME survivors (exactly-once via keeper ids — the r4 crash-safety
    contract: a crashed run's persisted hashes no longer swallow its
    docs), while genuinely new docs with seen content still drop."""
    import ray.data

    from parquet_hs_ray.pipelines.incremental import incremental_dedup

    state = str(tmp_path / "seen")
    texts1 = ["alpha", "beta", "alpha", "gamma"]          # in-increment dup
    d1 = pd.DataFrame({"doc_id": [1, 2, 3, 4], "text": texts1})
    texts2 = ["beta", "delta", "gamma", "epsilon"]        # cross-increment dups
    d2 = pd.DataFrame({"doc_id": [5, 6, 7, 8], "text": texts2})

    out1, info1 = incremental_dedup(
        ray.data.from_pandas([d1.iloc[:2], d1.iloc[2:]]), state)
    kept1 = sorted(out1.to_pandas()["doc_id"])
    assert kept1 == [1, 2, 4] and info1["n_kept"] == 3

    out2, info2 = incremental_dedup(
        ray.data.from_pandas([d2.iloc[:2], d2.iloc[2:]]), state)
    kept2 = sorted(out2.to_pandas()["doc_id"])
    assert kept2 == [6, 8] and info2["n_kept"] == 2

    # re-run of increment 2: the SAME survivors re-emit (their hashes
    # carry their own keeper ids), dup docs still drop
    out3, info3 = incremental_dedup(ray.data.from_pandas(d2), state)
    assert sorted(out3.to_pandas()["doc_id"]) == [6, 8]
    assert info3["n_kept"] == 2

    # a NEW increment with already-seen content keeps nothing
    d3 = pd.DataFrame({"doc_id": [20, 21], "text": ["delta", "epsilon"]})
    out4, info4 = incremental_dedup(ray.data.from_pandas(d3), state)
    assert info4["n_kept"] == 0 and out4.count() == 0
    assert info1["buckets_touched"] >= 1


def test_backfill_columns_and_aux_decode(ray_session, f1_dir, tmp_path):
    """Column backfill without re-encoding: a derived family encodes into
    its own same-partition-id blobs; decode appends it by row position,
    predicates filter base and family identically, resume skips finished
    partitions, and an absent family fails loudly."""
    import pyarrow as pa

    from parquet_hs_ray.pipelines.encode_job import (backfill_columns,
                                                     decode_dataset,
                                                     encode_dataset)

    out = str(tmp_path / "enc")
    encode_dataset(f1_dir, out, token_budget=150_000)

    def fn(base: pa.Table) -> pa.Table:
        arr = base["tokens"].combine_chunks()
        offs = arr.offsets.to_numpy()
        vals = arr.values.to_numpy(zero_copy_only=False).astype(np.int64)
        csum = np.concatenate([[0], np.cumsum(vals)])
        tok_sum = csum[offs[1:]] - csum[offs[:-1]]
        return pa.table({"tok_sum": pa.array(tok_sum, pa.int64())})

    res = backfill_columns(out, "toksum", fn)
    assert res["backfilled"] == res["partitions"] > 1
    res2 = backfill_columns(out, "toksum", fn)
    assert res2["backfilled"] == 0 and res2["skipped_finished"] == res["partitions"]

    df = decode_dataset(out, aux_families=["toksum"]).to_pandas()
    assert "tok_sum" in df.columns and len(df) == 3000
    exp = df["tokens"].map(lambda t: int(np.sum(t)))
    assert (df["tok_sum"].to_numpy() == exp.to_numpy()).all()

    # predicate path: family rows filter in lockstep with the base
    dfp = decode_dataset(out, predicate=("n_tok", ">=", 200),
                         aux_families=["toksum"]).to_pandas()
    assert (dfp["n_tok"] >= 200).all() and len(dfp) > 0
    expp = dfp["tokens"].map(lambda t: int(np.sum(t)))
    assert (dfp["tok_sum"].to_numpy() == expp.to_numpy()).all()
    assert "tok_sum" in decode_dataset(
        out, predicate=("n_tok", ">=", 200),
        aux_families=["toksum"]).schema().names

    with pytest.raises(ValueError, match="aux family"):
        decode_dataset(out, aux_families=["nope"])

    # fn returning the wrong row count is refused
    bad = lambda t: pa.table({"x": pa.array([1], pa.int64())})  # noqa: E731
    with pytest.raises(Exception, match="align by row position"):
        backfill_columns(out, "bad", bad)


def test_contains_mask_fixed_size_list_and_nulls():
    """`contains` masks: variable lists with NULL rows and fixed_size_list
    (null slots keep storage — .values stays row-aligned)."""
    from parquet_hs_ray.stages.decode import predicate_mask

    t1 = pa.table({"x": pa.array([[1, 2], None, [3], []],
                                 pa.list_(pa.int32()))})
    m1 = predicate_mask(t1, [("x", "contains", 3)])
    assert m1.to_pylist() == [False, False, True, False]

    t2 = pa.table({"x": pa.array([[1, 2], [3, 4], None, [5, 3]],
                                 pa.list_(pa.int64(), 2))})
    m2 = predicate_mask(t2, [("x", "contains", 3)])
    assert m2.to_pylist() == [False, True, False, True]


def test_backfill_with_unify_schema_keeps_family(ray_session, tmp_path):
    """aux_families + unify_schema: the family's columns fold into the
    union target instead of being silently dropped by the adapt step;
    name-shadowing backfills are refused."""
    import pyarrow as pa

    from parquet_hs_ray.pipelines.encode_job import (backfill_columns,
                                                     decode_dataset,
                                                     encode_dataset)

    d1 = str(tmp_path / "v1")
    write_dataset(d1, 400, seed=9, n_files=2)
    out = str(tmp_path / "enc")
    encode_dataset(d1, out, token_budget=80_000)

    def fn(base: pa.Table) -> pa.Table:
        return pa.table({"flag": pa.array(
            (np.arange(base.num_rows) % 2).astype(np.int64))})

    backfill_columns(out, "flags", fn)
    df = decode_dataset(out, aux_families=["flags"],
                        unify_schema=True).to_pandas()
    assert "flag" in df.columns and len(df) == 400
    assert set(df["flag"].unique()) == {0, 1}

    with pytest.raises(Exception, match="shadowing"):
        backfill_columns(out, "bad", lambda t: pa.table(
            {"n_tok": pa.array(np.zeros(t.num_rows, np.int64))}))


def test_read_sized_projection_and_full(ray_session, f1_dir):
    """read_sized must honor column projections in ANY order (a full
    schema= passed alongside columns= makes Ray's read task fail on
    reordered projections — the 73-query regression of r5) and strip
    the pandas schema stamp on full reads."""
    from parquet_hs_ray.sources.reader import read_sized

    path = sorted(glob.glob(f"{f1_dir}/*.parquet"))[0]
    full_names = pq.read_schema(path).names
    # reversed projection: order preserved, read succeeds
    proj = list(reversed(full_names[:3]))
    ds = read_sized(path, columns=proj).materialize()
    assert ds.schema().names == proj
    assert ds.count() == pq.ParquetFile(path).metadata.num_rows
    # full read: schema metadata stripped at the source
    ds2 = read_sized(path).materialize()
    assert ds2.schema().names == full_names
    ref = ray.get(ds2.to_arrow_refs()[0])
    assert ref.schema.metadata in (None, {})


import ray  # noqa: E402  (used by the projection test above)
