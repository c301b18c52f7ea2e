"""Guard for the per-layer trace of ``perfbench/run.py --trace 1``.

The tracer wraps package functions by ``(module, function)`` name; a
refactor that renames or moves one would make its per-layer metric read
0 without any error. The traced run also replays the blob-store jobs
through ``LocalDataset``, which has only the slice of the Ray Data API
those jobs use. No Ray needed."""

import importlib
import importlib.util
import os
from collections import defaultdict

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_layer_functions_resolve():
    tracing = _tracing()
    tracer = tracing.Tracer()
    tracer.counters = defaultdict(float)  # set by ``installed`` in a real run
    specs = tracing._specs(tracer)
    assert specs
    for mod, fn, *_ in specs:
        m = importlib.import_module(f"{tracing.PKG}.{mod}")
        assert callable(getattr(m, fn, None)), f"{tracing.PKG}.{mod}.{fn} is gone"


def test_decoder_calls_traced_predicate_mask(tmp_path, monkeypatch):
    """``stages.decode.predicate_mask`` is traced by replacing the module
    global, so the decoder must look it up there at call time."""
    import pyarrow as pa

    from parquet_hs_ray.plan import Partition
    from parquet_hs_ray.stages import decode
    from parquet_hs_ray.stages.encode import write_partition
    from parquet_hs_ray.state import manifest as mf

    out = str(tmp_path)
    mf.ensure_dirs(out)
    tbl = pa.table({"k": pa.array(range(10), pa.int64())})
    entry = write_partition(out, Partition(0, "mem", 0, 10, 0), tbl, 0)
    calls = []
    orig = decode.predicate_mask
    monkeypatch.setattr(decode, "predicate_mask",
                        lambda t, preds: calls.append(preds) or orig(t, preds))
    stage = decode.DecoderStage(out, predicate=[("k", ">=", 5)])
    got = stage({"partition_id": [0], "crc32": [entry["checksum_crc32"]]})
    assert calls and got["k"].to_pylist() == [5, 6, 7, 8, 9]


def test_blob_jobs_replay_in_process(tmp_path):
    """``encode_dataset`` and ``decode_dataset`` run end to end under the
    traced replay: a job that starts using a Ray API ``LocalDataset``
    lacks (``fn_kwargs``, ``.count()``, actors) fails here rather than
    in a ``--trace 1`` benchmark run."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from parquet_hs_ray.pipelines.encode_job import decode_dataset, encode_dataset
    from parquet_hs_ray.sources.synth import write_dataset

    tracing = _tracing()
    files = write_dataset(str(tmp_path / "src"), 200, seed=3, n_files=2)
    src = pa.concat_tables(pq.read_table(f) for f in sorted(files))
    out = str(tmp_path / "enc")
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        res = encode_dataset(str(tmp_path / "src"), out, token_budget=20_000)
        got = pa.concat_tables(decode_dataset(out).iter_batches())
    assert res["encoded"] == res["planned"] >= 2
    assert got.sort_by("doc_id").equals(src.sort_by("doc_id"))
    names = {sp["name"] for sp in tracer.spans}
    assert {"stages.encode.read_slice", "state.manifest.read_blob"} <= names


def test_every_blob_job_replays_in_process(tmp_path):
    """Delete, verify, backfill, export and compaction run under the
    traced replay too: every blob-store job stays inside the slice of
    Ray Data that ``LocalDataset`` has."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from parquet_hs_ray.pipelines import encode_job as ej
    from parquet_hs_ray.sources.synth import write_dataset

    tracing = _tracing()
    src_dir = str(tmp_path / "src")
    files = write_dataset(src_dir, 200, seed=3, n_files=2)
    src = pa.concat_tables(pq.read_table(f) for f in sorted(files))
    keep = src.filter(pc.less_equal(src["n_tok"], 900))
    out, dest, cpt = (str(tmp_path / n) for n in ("enc", "export", "cpt"))

    def twice(t):
        return pa.table({"n2": pc.multiply(t["n_tok"].cast(pa.int64()), 2)})

    with tracing.installed(tracing.Tracer()):
        ej.encode_dataset(src_dir, out, token_budget=20_000)
        deleted = ej.delete_rows(out, ("n_tok", ">", 900))
        verified = ej.verify_roundtrip(src_dir, out)
        filled = ej.backfill_columns(out, "n2", twice, columns=["n_tok"])
        exported = ej.decode_to_parquet(out, dest)
        compacted = ej.compact_dataset(out, cpt, token_budget=10**9)
        got = pa.concat_tables(ej.decode_dataset(cpt).iter_batches())
    assert deleted["rows_newly_deleted"] == src.num_rows - keep.num_rows > 0
    assert verified == {"partitions": verified["partitions"], "rows": src.num_rows,
                        "mismatched_partitions": 0}
    assert filled["rows"] == src.num_rows
    assert exported["written"] == exported["partitions"] >= 2
    assert pq.read_table(dest).num_rows == keep.num_rows
    assert compacted["compacted"] == 1
    assert got.sort_by("doc_id").equals(keep.sort_by("doc_id"))
