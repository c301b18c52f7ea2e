"""Benchmark harness. Prints ONE JSON line:

  {"metric": "...", "value": <total sec>, "unit": "sec",
   "queries": {...per-query sec...}, "sf": ..., "num_cpus": N,
   "encode_tokens_per_sec": ..., "decode_tokens_per_sec": ...,
   "encoded_bytes": ..., "parquet_uncompressed_bytes": ...}

Headline pipeline: encode job (plan -> actor-pool encode -> blobs +
manifest) over the synthetic pre-tokenized table (BASELINE.json
input_hint schema) sized to the scale factor, then the decode job.
Secondary queries: round-trip of sf lineitem, dedup, ANN, text stats.

--scaling: runs the headline in fresh subprocesses at two CPU levels
(SCALE_PAIR, default 2,8) on the SAME input (cached under /tmp),
GRAFT_SCALE_TRIALS interleaved trials per level (default 4), and reports
the per-level MEDIAN tokens/s plus scaling efficiency — the sandbox
stand-in for the N vs 4N node criterion. Encode passes are adaptive:
at least GRAFT_BENCH_PASSES (default 3), continuing until the two
fastest agree within 10%, capped at GRAFT_BENCH_MAX_PASSES (default
8); all pass times are reported as `encode_passes`.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

# keep big numpy temps heap-resident (hypervisor first-touch faults are slow)
os.environ.setdefault("MALLOC_MMAP_MAX_", "0")
os.environ.setdefault("MALLOC_TRIM_THRESHOLD_", "-1")

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
BENCH_MODE = os.environ.get("GRAFT_BENCH_MODE", "full")

# F1 rows by scale factor (~840 tokens/row mean); sf1 inputs come from
# tools/make_sf1.py (deterministic 10x sf0.1 under /tmp, VERDICT r3 #9)
_ROWS_BY_SF = {"sf0.001": 1_000, "sf0.01": 10_000, "sf0.1": 100_000,
               "phr_sf1": 1_000_000, "sf1": 1_000_000}
# scaling-mode input: big enough that per-core compute dominates fixed
# overheads for the 2-vs-8 pair, small enough that a 2-CPU leg finishes in
# minutes on this host (see BASELINE.md round-2 notes)
_SCALING_ROWS_BY_SF = {"sf0.001": 20_000, "sf0.01": 100_000, "sf0.1": 200_000}
_SCALING_ROWS_ENV = os.environ.get("GRAFT_SCALE_ROWS")


def _sf_tag() -> str:
    return os.path.basename(os.path.normpath(SF_DIR)) or "sf0.1"


def _quiet_worker_logs() -> None:
    """Worker-side logging setup: the testdata parquet carries b'pandas'
    schema metadata, and a schema WITH metadata is unhashable in this
    pyarrow, so Ray's unify_schemas dedup fast-path logs "Failed to
    hash the schemas" from inside read tasks (cosmetic; it falls back
    to full unification).  read_sized strips the metadata right after
    the read; this hook covers the read task itself, keeping the bench
    capture a clean JSON line."""
    import logging

    logging.getLogger(
        "ray.data._internal.arrow_ops.transform_pyarrow"
    ).setLevel(logging.ERROR)


def main() -> None:
    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
        runtime_env={
            "env_vars": {"MALLOC_MMAP_MAX_": "0",
                         "MALLOC_TRIM_THRESHOLD_": "-1"},
            "worker_process_setup_hook": _quiet_worker_logs,
        },
    )
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    import numpy as np
    import pyarrow.parquet as pq

    from parquet_hs_ray.pipelines import ann, dedup, text_analysis as ta
    from parquet_hs_ray.pipelines.encode_job import decode_dataset, encode_dataset
    from parquet_hs_ray.sources.synth import cached_dataset_ray, gen_batch
    from parquet_hs_ray.state import manifest as mf

    rows = (_SCALING_ROWS_BY_SF if BENCH_MODE == "scaling" else _ROWS_BY_SF).get(
        _sf_tag(), 100_000
    )
    if BENCH_MODE == "scaling" and _SCALING_ROWS_ENV:
        rows = int(_SCALING_ROWS_ENV)
    src = cached_dataset_ray(rows, seed=42, n_files=32)

    # warm-up (untimed): input page cache + worker arena warm (workers are
    # REUSED for task-mode stages, so the timed run measures steady state —
    # the regime a multi-hour 100TB job actually runs in)
    enc_dir = f"/tmp/phr_bench/{_sf_tag()}_r{rows}_c{NUM_CPUS}"
    shutil.rmtree(enc_dir, ignore_errors=True)
    warm_dir = enc_dir + "_warm"
    shutil.rmtree(warm_dir, ignore_errors=True)
    encode_dataset(src, warm_dir, token_budget=2_000_000)
    shutil.rmtree(warm_dir, ignore_errors=True)

    queries: dict[str, float] = {}

    # timed encode: best-of with ADAPTIVE pass count — passes after warm-up
    # can still hit the host's fault-storm windows (one-sided noise; see
    # BASELINE.md).  We keep timing passes until the two FASTEST agree
    # within 10% (steady state observed twice), bounded by
    # GRAFT_BENCH_PASSES (min) and GRAFT_BENCH_MAX_PASSES (cap), so a
    # fault storm during the early passes cannot set the recorded number.
    n_min = int(os.environ.get("GRAFT_BENCH_PASSES", "3"))
    n_max = int(os.environ.get("GRAFT_BENCH_MAX_PASSES", "8"))
    # wall-escape floor: a fault-storm window pins EVERY pass flat at the
    # host's ~80 MB/s fault-bandwidth wall, and flat-slow passes self-agree
    # — so agreement alone must not stop the loop while throughput sits
    # below a healthy per-CPU floor (observed wall ~0.4 Mtok/s/cpu vs
    # healthy 1.4-3.3; storms last minutes, extra passes can outlive one)
    enc_floor = float(os.environ.get("GRAFT_BENCH_FLOOR_TOKS_PER_CPU", "0.8e6")) * NUM_CPUS
    # the floor only means something when per-pass time is compute-bound:
    # at small SF (sf0.001 ~0.8M tokens) fixed pipeline overhead alone
    # keeps throughput under any healthy floor and every run would burn
    # the full pass cap for nothing
    _FLOOR_MIN_TOKENS = float(os.environ.get("GRAFT_BENCH_FLOOR_MIN_TOKENS", "16e6"))
    pass_times = []
    tokens = None
    while True:
        shutil.rmtree(enc_dir, ignore_errors=True)
        t0 = time.perf_counter()
        encode_dataset(src, enc_dir, token_budget=2_000_000)
        pass_times.append(time.perf_counter() - t0)
        if tokens is None:
            tokens = mf.summary(enc_dir)["tokens"]
        if len(pass_times) >= max(2, n_min):
            fastest = sorted(pass_times)[:2]
            floor_ok = tokens < _FLOOR_MIN_TOKENS or tokens / fastest[0] >= enc_floor
            if (fastest[1] - fastest[0]) / fastest[0] <= 0.10 and floor_ok:
                break  # converged ABOVE the wall: steady state observed twice
        if len(pass_times) >= n_max:
            break
    queries["encode_f1"] = min(pass_times)
    encode_passes = [round(t, 3) for t in pass_times]
    summ = mf.summary(enc_dir)

    if BENCH_MODE == "scaling":
        t0 = time.perf_counter()
        ds = decode_dataset(enc_dir)
        assert ds.count() == rows
        queries["decode_f1"] = time.perf_counter() - t0
        out = {
            "metric": "warm encode tokens/sec (scaling mode)",
            "value": round(queries["encode_f1"], 3),
            "unit": "sec",
            "queries": {k: round(v, 3) for k, v in queries.items()},
            "sf": _sf_tag(),
            "num_cpus": NUM_CPUS,
            "rows": rows,
            "tokens": tokens,
            "encode_passes": encode_passes,
            "encode_tokens_per_sec": round(tokens / queries["encode_f1"]),
            "decode_tokens_per_sec": round(tokens / queries["decode_f1"]),
        }
        ray.shutdown()
        print(json.dumps(out))
        return

    # decode: same adaptive best-of as encode (a single storm-hit pass
    # would record a 5-10x-slow decode_tokens_per_sec; passes are cheap —
    # pure reads — so convergence usually lands in the minimum 2)
    dec_floor = float(os.environ.get("GRAFT_BENCH_FLOOR_DECODE_TOKS_PER_CPU",
                                     "2e6")) * NUM_CPUS
    decode_times = []
    while True:
        t0 = time.perf_counter()
        ds = decode_dataset(enc_dir)
        n_decoded = ds.count()
        decode_times.append(time.perf_counter() - t0)
        assert n_decoded == rows, (n_decoded, rows)
        if len(decode_times) >= 2:
            fastest = sorted(decode_times)[:2]
            floor_ok = tokens < _FLOOR_MIN_TOKENS or tokens / fastest[0] >= dec_floor
            if (fastest[1] - fastest[0]) / fastest[0] <= 0.10 and floor_ok:
                break
        if len(decode_times) >= n_max:
            break
    queries["decode_f1"] = min(decode_times)
    decode_passes = [round(t, 3) for t in decode_times]

    # op queries: adaptive best-of like encode/decode — at least
    # GRAFT_QUERY_PASSES (default 2), continuing until the two fastest
    # agree within 10% (capped at GRAFT_QUERY_MAX_PASSES, default 4) so
    # one fault-storm / first-touch window can't set a recorded op time
    # 2-5x above steady state
    q_passes = int(os.environ.get("GRAFT_QUERY_PASSES", "2"))
    q_max = max(q_passes, int(os.environ.get("GRAFT_QUERY_MAX_PASSES", "4")))
    query_passes: dict[str, list[float]] = {}

    def timed(name, fn):
        times = []
        while True:
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
            if len(times) >= q_passes:
                fastest = sorted(times)[:2]
                if (fastest[1] - fastest[0]) / fastest[0] <= 0.10:
                    break
            if len(times) >= q_max:
                break
        queries[name] = min(times)
        query_passes[name] = [round(t, 3) for t in times]

    # round-trip of the real lineitem table (all codecs on TPC-H-ish data)
    from parquet_hs_ray.format import decode_table, encode_table

    def rt(batch):
        blob, _ = encode_table(batch)
        return decode_table(blob)

    from parquet_hs_ray.sources.reader import read_sized

    timed("roundtrip_lineitem",
          lambda: read_sized(f"{SF_DIR}/lineitem.parquet").map_batches(
              rt, batch_format="pyarrow", batch_size=None).count())

    docs = read_sized(f"{SF_DIR}/documents.parquet")
    timed("dedup_exact", lambda: dedup.dedup_exact(docs).to_pandas())
    timed("dedup_minhash", lambda: dedup.dedup_minhash(docs))
    timed("text_stats", lambda: ta.stats_by_source(docs).to_pandas())

    emb = read_sized(f"{SF_DIR}/embeddings.parquet")
    timed("ann_topk",
          lambda: ann.ann_topk_bruteforce(emb, query_ids=list(range(5)), k=10))

    # kernel-parquet distributed sink (NOT summed into the headline —
    # new surface this round; BASELINE.md "kernel writer / distributed
    # sink" section holds the reference numbers)
    from parquet_hs_ray.sources.kernel_sink import write_parquet_kernels

    sink_times = []
    for _ in range(2):
        d = "/tmp/bench_kernel_sink"
        shutil.rmtree(d, ignore_errors=True)
        ds = read_sized(f"{SF_DIR}/lineitem.parquet").repartition(16)
        t0 = time.perf_counter()
        sink_manifest = write_parquet_kernels(ds, d, compression="SNAPPY",
                                              encodings="auto")
        sink_times.append(time.perf_counter() - t0)
    # r5 surface: the row-group-granular distributed kernel READ of the
    # sink store, fully self-hosted, full + pruned
    from parquet_hs_ray.sources.kernel_sink import read_parquet_kernels

    kread_times, kread_pruned_times = [], []
    for _ in range(2):
        t0 = time.perf_counter()
        n = read_parquet_kernels(d).count()
        kread_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        read_parquet_kernels(
            d, columns=["l_orderkey", "l_quantity"],
            predicate=("l_orderkey", "<=", 4000)).count()
        kread_pruned_times.append(time.perf_counter() - t0)
    assert n == sink_manifest["rows"]
    shutil.rmtree("/tmp/bench_kernel_sink", ignore_errors=True)

    # compression comparison vs pyarrow parquet (reference world: dict on,
    # UNCOMPRESSED) on one deterministic shard
    import io

    shard = gen_batch(min(rows, 10_000), seed=42)
    buf = io.BytesIO()
    pq.write_table(shard, buf, compression="NONE", use_dictionary=True)
    from parquet_hs_ray.format import encode_table as _et

    shard_blob, _ = _et(shard)

    out = {
        "metric": "encode+decode tokens/sec on pre-tokenized sequences + op suite",
        "value": round(sum(queries.values()), 3),
        "unit": "sec",
        "queries": {k: round(v, 3) for k, v in queries.items()},
        "sf": _sf_tag(),
        "num_cpus": NUM_CPUS,
        "rows": rows,
        "tokens": tokens,
        "encode_passes": encode_passes,
        "decode_passes": decode_passes,
        "query_passes": query_passes,
        "encode_tokens_per_sec": round(tokens / queries["encode_f1"]),
        "decode_tokens_per_sec": round(tokens / queries["decode_f1"]),
        "encoded_bytes": summ["encoded_bytes"],
        "raw_bytes": summ["raw_bytes"],
        "shard_encoded_bytes": len(shard_blob),
        "shard_parquet_uncompressed_bytes": buf.tell(),
        "kernel_sink_sec": round(min(sink_times), 3),
        "kernel_sink_passes": [round(t, 3) for t in sink_times],
        "kernel_sink_bytes": sink_manifest["bytes"],
        "kernel_read_sec": round(min(kread_times), 3),
        "kernel_read_pruned_sec": round(min(kread_pruned_times), 3),
    }
    # real-table compression vs the reference world (exercises the full
    # codec family: ALP decimals, FSST/dict strings, FOR/delta ints,
    # ALP-RD embeddings) — one shot each, no timing noise
    for name in ("lineitem", "embeddings"):
        t = pq.read_table(f"{SF_DIR}/{name}.parquet")
        b = io.BytesIO()
        pq.write_table(t, b, compression="NONE", use_dictionary=True)
        blob, _ = _et(t)
        out[f"{name}_encoded_bytes"] = len(blob)
        out[f"{name}_parquet_uncompressed_bytes"] = b.tell()
    # row-layout advisor: the further win from the sampled sort-order
    # pick (user-visible reorder; 0 keys = identity already optimal)
    import pyarrow.compute as _pc

    from parquet_hs_ray.selector import advise_sort_order

    li = pq.read_table(f"{SF_DIR}/lineitem.parquet")
    keys, _rep = advise_sort_order(li)
    if keys:
        li = li.take(_pc.sort_indices(
            li, sort_keys=[(k, "ascending") for k in keys]))
    out["lineitem_advised_sort"] = keys
    out["lineitem_advised_encoded_bytes"] = len(_et(li)[0])
    ray.shutdown()
    print(json.dumps(out))


def scaling() -> None:
    """N vs 4N CPUs in fresh processes on the same input (cluster-size
    stand-in per the driver instruction). Default pair 2-vs-8: both levels
    sit under this box's shared memory/fault-bandwidth wall (~1 GB/s fresh
    pages, ~3-5 GB/s warm) so the measurement reflects per-core compute
    scaling, which is what adding NODES (each with its own memory) buys on
    a real cluster. The 8-vs-32 pair saturates the single box's RAM wall
    and understates multi-node scaling; run SCALE_PAIR=8,32 to see it.

    Each level runs GRAFT_SCALE_TRIALS times (default 4, interleaved
    lo/hi so drift hits both legs equally). The HEADLINE estimator is the
    per-level MEDIAN (robust to the hypervisor's one-sided fault-storm
    noise without the optimism of best-of-N — VERDICT r1 #5); best-of-N
    is reported alongside, and every trial is listed.
    """
    import statistics

    lo, hi = (int(x) for x in os.environ.get("SCALE_PAIR", "2,8").split(","))
    trials = int(os.environ.get("GRAFT_SCALE_TRIALS", "4"))
    all_runs = {lo: [], hi: []}
    for _ in range(trials):
        for ncpu in (lo, hi):
            env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), GRAFT_BENCH_MODE="scaling")
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__)], env=env,
                capture_output=True, text=True,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr[-4000:])
                raise SystemExit(f"scaling leg num_cpus={ncpu} failed rc={proc.returncode}")
            all_runs[ncpu].append(json.loads(proc.stdout.strip().splitlines()[-1]))
    tps = {n: [r["encode_tokens_per_sec"] for r in rs] for n, rs in all_runs.items()}
    med_lo, med_hi = statistics.median(tps[lo]), statistics.median(tps[hi])
    best_lo, best_hi = max(tps[lo]), max(tps[hi])
    eff_med = (med_hi / med_lo) / (hi / lo)
    eff_best = (best_hi / best_lo) / (hi / lo)
    print(json.dumps({
        f"encode_tokens_per_sec_{lo}cpu": med_lo,
        f"encode_tokens_per_sec_{hi}cpu": med_hi,
        "speedup": round(med_hi / med_lo, 3),
        "cpu_ratio": hi / lo,
        "scaling_efficiency": round(eff_med, 3),
        "estimator": "median",
        "scaling_efficiency_best": round(eff_best, 3),
        "sf": all_runs[hi][0]["sf"],
        "rows": all_runs[hi][0]["rows"],
        "tokens": all_runs[hi][0]["tokens"],
        "trials_per_level": trials,
        "all_tokens_per_sec": {str(n): rs for n, rs in tps.items()},
    }))


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        scaling()
    else:
        main()
