"""sf1 scale sample for the KERNEL parquet read/sink path (VERDICT r4
#8): one LARGE single parquet file (6M-row lineitem, 10x sf0.1 via
orderkey-offset replicas — the make_sf1 recipe, no external data),
written by OUR kernel writer with multiple row groups + page indexes,
then read back by the distributed kernel read.

What it proves, per the r4 verdict's ask:

- the read fans out per CPU slot, not per file: on a single file it
  runs min(row groups, CPUs) read tasks (``tasks``), each over a
  contiguous run of row groups;
- per-task memory is bounded by one ROW GROUP plus Ray's output
  buffer, not by the file: each task decodes and yields its row groups
  one at a time, so ``max_block_mb`` stays within the output buffer's
  target block size;
- wall scales with parallelism on ONE file (8 vs 32 CPUs, fresh Ray
  sessions) — impossible under one-task-per-file;
- predicate + page-index pruning cuts the decoded volume on the same
  file.

Usage: python tools/kernel_scale_sample.py [--rows N] [--out out.json]
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SF01 = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
BIG = "/tmp/phr_kernel_scale/lineitem_big.parquet"
REPLICAS = 40  # 24M rows: decode CPU ~20 s, so parallel wall dominates fixed overhead
ROW_GROUP = 1 << 18  # 262144 rows -> ~23 row groups at 6M rows


def build_big_file(replicas: int = REPLICAS) -> dict:
    """10x sf0.1 lineitem as ONE kernel-written parquet file."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from parquet_hs_ray.sources.parquet_writer import encode_parquet_bytes

    os.makedirs(os.path.dirname(BIG), exist_ok=True)
    src = pq.read_table(os.path.join(SF01, "lineitem.parquet")
                        ).replace_schema_metadata(None)
    key_span = int(pa.compute.max(src["l_orderkey"]).as_py()) + 1
    parts = []
    for r in range(replicas):
        t = src
        if r:
            t = t.set_column(
                t.schema.get_field_index("l_orderkey"), "l_orderkey",
                pa.compute.add(t["l_orderkey"], r * key_span))
        parts.append(t)
    big = pa.concat_tables(parts).combine_chunks()
    t0 = time.perf_counter()
    blob = encode_parquet_bytes(big, compression="SNAPPY",
                                row_group_size=ROW_GROUP,
                                data_page_rows=1 << 15)
    with open(BIG, "wb") as fh:
        fh.write(blob)
    wall = time.perf_counter() - t0
    return {"rows": big.num_rows, "bytes": len(blob),
            "write_sec": round(wall, 2),
            "write_mrow_s": round(big.num_rows / wall / 1e6, 2),
            "row_groups": -(-big.num_rows // ROW_GROUP)}


_CHILD = r"""
import json, os, sys, time
sys.path.insert(0, "/root/repo")
import ray
ncpu = int(sys.argv[1])
ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
         logging_level="ERROR")
from parquet_hs_ray.sources.kernel_sink import plan_read, read_parquet_kernels

path = sys.argv[2]
out = {}
# full distributed read of ONE file
t0 = time.perf_counter()
ds = read_parquet_kernels(path).materialize()
wall = time.perf_counter() - t0
refs = ds.to_arrow_refs()
sizes = [t.nbytes for t in ray.get(refs)]
rows = sum(t.num_rows for t in ray.get(refs))
out["full"] = {"sec": round(wall, 2), "rows": rows,
               "tasks": len(plan_read(path).get_read_tasks(ncpu)),
               "blocks": ds.num_blocks(),
               "mrow_s": round(rows / wall / 1e6, 2),
               "decoded_mb": round(sum(sizes) / 2**20, 1),
               "max_block_mb": round(max(sizes) / 2**20, 1)}
# single-task contrast: the whole file decoded in ONE task (the
# pre-r5 per-file granularity) — only at the low level, once
if ncpu == 8:
    from parquet_hs_ray.sources.parquet_pages import read_parquet_via_kernels
    t0 = time.perf_counter()
    t = read_parquet_via_kernels(path)
    out["single_task"] = {"sec": round(time.perf_counter() - t0, 2),
                          "rows": t.num_rows,
                          "decoded_mb": round(t.nbytes / 2**20, 1)}
    del t
# pruned read: page index narrows inside the one surviving key span
t0 = time.perf_counter()
dp = read_parquet_kernels(path, columns=["l_orderkey", "l_quantity"],
                          predicate=("l_orderkey", "<=", 60000)).materialize()
wallp = time.perf_counter() - t0
prows = dp.count()
out["pruned"] = {"sec": round(wallp, 2), "rows": prows,
                 "blocks": dp.num_blocks()}
ray.shutdown()
print("CHILD_JSON " + json.dumps(out))
"""


def run_level(ncpu: int) -> dict:
    env = dict(os.environ, MALLOC_MMAP_MAX_="0",
               MALLOC_TRIM_THRESHOLD_="-1")
    p = subprocess.run([sys.executable, "-c", _CHILD, str(ncpu), BIG],
                       capture_output=True, text=True, env=env,
                       timeout=1200)
    for line in p.stdout.splitlines():
        if line.startswith("CHILD_JSON "):
            return json.loads(line[len("CHILD_JSON "):])
    raise RuntimeError(f"child failed (cpu={ncpu}):\n{p.stderr[-2000:]}")


def main() -> None:
    out_path = "BENCH/kernel_scale_r5.json"
    args = sys.argv[1:]
    if "--out" in args:
        out_path = args[args.index("--out") + 1]
    res = {"input": SF01, "file": BIG, "row_group_rows": ROW_GROUP}
    if not os.path.exists(BIG):
        res["build"] = build_big_file()
    else:
        import pyarrow.parquet as pq

        m = pq.read_metadata(BIG)
        res["build"] = {"rows": m.num_rows, "cached": True,
                        "row_groups": m.num_row_groups,
                        "bytes": os.path.getsize(BIG)}
    # warm (page cache) then measure both levels twice, keep the best —
    # first-touch faults dominate cold runs in this sandbox
    run_level(8)
    for ncpu in (8, 32):
        trials = [run_level(ncpu) for _ in range(2)]
        best = min(trials, key=lambda r: r["full"]["sec"])
        best["full"]["all_sec"] = [t["full"]["sec"] for t in trials]
        res[f"cpus_{ncpu}"] = best
    f8 = res["cpus_8"]["full"]
    f32 = res["cpus_32"]["full"]
    res["speedup_8_to_32"] = round(f8["sec"] / f32["sec"], 2)
    res["scaling_efficiency"] = round(f8["sec"] / f32["sec"] / 4.0, 3)
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w") as fh:
        json.dump(res, fh, indent=1)
    print(json.dumps(res, indent=1))


if __name__ == "__main__":
    main()
