"""Scale sample for split-block bloom point lookups: ONE large file
(24M rows), a UNIQUE UNSORTED int64 key (a seeded permutation — every
row group spans the full key range, so min/max statistics prune
NOTHING), per-chunk blooms written by the kernel writer.

Measures, in one fresh Ray session (num_cpus=32):
- full distributed kernel read of the file (the no-predicate floor);
- point lookup: decode tasks should be ~1 (+ rare FPs) of ~92 row
  groups;
- the row groups statistics alone keep for the same lookup
  (``prune_row_groups_by_stats_kernels``): stats cannot prune
  (unsorted), so without the bloom every row group would decode — the
  100 TB-relevant delta;
- an absent-key lookup: 0 row groups decode (sentinel block only).

Usage: python tools/bloom_scale_sample.py [--rows N] [--out out.json]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--rows", type=int, default=24_000_000)
    ap.add_argument("--row-group-size", type=int, default=262_144)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    import numpy as np
    import pyarrow as pa
    import ray

    from parquet_hs_ray.sources.kernel_sink import read_parquet_kernels
    from parquet_hs_ray.sources.parquet_footer import (
        prune_row_groups_by_stats_kernels, read_footer_via_kernels)
    from parquet_hs_ray.sources.parquet_writer import write_parquet_via_kernels

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=32, include_dashboard=False,
                 logging_level="ERROR")

    rng = np.random.default_rng(7)
    n = args.rows
    uid = rng.permutation(n).astype(np.int64)
    t = pa.table({"uid": pa.array(uid),
                  "val": pa.array((uid % 9973) * 0.5)})
    d = "/tmp/phr_bloom_scale"
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    p = os.path.join(d, "one.parquet")
    t0 = time.perf_counter()
    write_parquet_via_kernels(t, p, compression="SNAPPY",
                              row_group_size=args.row_group_size,
                              bloom_filters=["uid"])
    t_write = time.perf_counter() - t0
    n_rg = -(-n // args.row_group_size)
    probe = int(uid[123_456])

    def lookup(pred):
        t0 = time.perf_counter()
        mt = read_parquet_kernels(p, predicate=pred).materialize()
        return (round(time.perf_counter() - t0, 3), mt.num_blocks(),
                mt.count())

    res = {"rows": n, "row_groups": n_rg,
           "file_bytes": os.path.getsize(p),
           "write_sec": round(t_write, 3), "probe": probe}
    # warm each path once, record the second run
    for _ in range(2):
        full_t0 = time.perf_counter()
        full_n = read_parquet_kernels(p).count()
        res["full_read_sec"] = round(time.perf_counter() - full_t0, 3)
    assert full_n == n
    for _ in range(2):
        w, b, c = lookup(("uid", "==", probe))
    res.update(lookup_bloom_sec=w, lookup_bloom_blocks=b)
    assert c == 1
    res["lookup_stats_only_row_groups"] = len(
        prune_row_groups_by_stats_kernels(read_footer_via_kernels(p),
                                          [("uid", "==", probe)]))
    wa, ba, ca = lookup(("uid", "==", n + 999))
    res.update(lookup_absent_sec=wa, lookup_absent_blocks=ba)
    assert ca == 0
    shutil.rmtree(d, ignore_errors=True)
    out = json.dumps(res)
    print(out)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out + "\n")
    ray.shutdown()


if __name__ == "__main__":
    main()
