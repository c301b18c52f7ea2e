"""Driver-style correctness harness: run each __ray_entry__ query and its
DuckDB oracle side-by-side; compare row count, column names, and an
order-insensitive value hash (columns sorted by name, rows sorted, values
stringified) — mirroring the grading driver.

Usage: python tools/check_oracles.py [sf_dir] [query ...] [--json out.json]

--json writes the full machine-readable result (one record per query:
status ok/rows_only/skipped/fail, rows, columns, seconds, plus run
metadata) —
the committed ORACLES_full.json is produced this way so the 150+ queries
the driver's 50-query sample skips stay auditable (VERDICT r3 #5).
"""

from __future__ import annotations

import os
import sys
import time

import duckdb
import numpy as np
import pandas as pd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

_TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
           "lineitem", "events", "documents", "embeddings"]

# Queries that read a fixture from outside the test data, and the path
# they read.  Where that fixture is absent the query is reported as
# skipped, not failed; any other error is still a failure.
_EXTERNAL_FIXTURES = {
    # the reference checkout's committed golden file
    "golden_parquet_decode": "/root/reference/tests/integration/test.parquet",
}


def to_pandas(res) -> pd.DataFrame:
    try:
        import ray.data

        if isinstance(res, ray.data.Dataset):
            return res.to_pandas()
    except ImportError:
        pass
    import pyarrow as pa

    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def canon(df: pd.DataFrame) -> tuple[int, list[str], int]:
    df = df.copy()
    df = df[sorted(df.columns)]
    for c in df.columns:
        col = df[c]
        if col.dtype == object and len(col) and isinstance(col.iloc[0], (list, np.ndarray)):
            def _tup(v):
                if isinstance(v, (list, tuple, np.ndarray)):
                    return tuple(_tup(x) for x in v)
                return v

            df[c] = col.map(lambda v: _tup(v) if v is not None else None)
        elif str(col.dtype).startswith("float"):
            df[c] = col.round(9)
    rows = [tuple(str(v) for v in row) for row in df.itertuples(index=False, name=None)]
    rows.sort()
    return len(df), list(df.columns), hash(tuple(rows))


def main():
    argv = sys.argv[1:]
    json_out = None
    if "--json" in argv:
        i = argv.index("--json")
        if i + 1 >= len(argv):
            sys.exit("usage: check_oracles.py [sf_dir] [query ...] "
                     "[--json out.json] (--json needs a path)")
        json_out = argv[i + 1]
        argv = argv[:i] + argv[i + 2:]
    sf_dir = argv[0] if argv else "/root/testdata/sf0.01"
    only = set(argv[1:])

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    import __ray_entry__ as entry

    con = duckdb.connect()
    for t in _TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    qs = entry.queries()
    oracles = entry.oracle_sql()
    failures = 0
    records: dict[str, dict] = {}
    for name, fn in qs.items():
        if only and name not in only:
            continue
        fixture = _EXTERNAL_FIXTURES.get(name)
        if fixture and not os.path.exists(fixture):
            print(f"SKIP  {name}: missing fixture {fixture}")
            records[name] = {"status": "skipped", "missing": fixture}
            continue
        t0 = time.perf_counter()
        try:
            ours = to_pandas(fn(sf_dir))
        except Exception as e:
            print(f"FAIL  {name}: query raised {type(e).__name__}: {e}")
            failures += 1
            records[name] = {"status": "fail",
                             "error": f"{type(e).__name__}: {e}"}
            continue
        el = time.perf_counter() - t0
        if name not in oracles:
            print(f"ok?   {name}: rows={len(ours)} cols={sorted(ours.columns)} ({el:.1f}s) [rows-only]")
            records[name] = {"status": "rows_only", "rows": len(ours),
                             "columns": sorted(map(str, ours.columns)),
                             "seconds": round(el, 1)}
            continue
        theirs = con.execute(oracles[name]).df()
        n1, c1, h1 = canon(ours)
        n2, c2, h2 = canon(theirs)
        status = "OK  " if (n1, c1, h1) == (n2, c2, h2) else "FAIL"
        if status == "FAIL":
            failures += 1
        print(f"{status}  {name}: ours({n1} rows, {c1}) vs oracle({n2} rows, {c2}) "
              f"hash={'=' if h1 == h2 else '!='} ({el:.1f}s)")
        records[name] = {"status": "ok" if status == "OK  " else "fail",
                         "rows": n1, "oracle_rows": n2, "columns": c1,
                         "hash_match": h1 == h2, "seconds": round(el, 1)}
        if status == "FAIL" and n1 == n2 and c1 == c2:
            merged = ours[sorted(ours.columns)].sort_values(sorted(ours.columns)).reset_index(drop=True)
            m2 = theirs[sorted(theirs.columns)].sort_values(sorted(theirs.columns)).reset_index(drop=True)
            diff = (merged.astype(str) != m2.astype(str)).any(axis=1)
            print("   first diffs:\n", merged[diff].head(3), "\n   vs\n", m2[diff].head(3))
    ray.shutdown()
    n_skipped = sum(r["status"] == "skipped" for r in records.values())
    print("failures:", failures, "skipped:", n_skipped)
    if json_out:
        import json
        import subprocess

        commit = subprocess.run(
            ["git", "-C", os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
             "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True).stdout.strip()
        summary = {
            "sf_dir": sf_dir, "commit": commit,
            "n_queries": len(records),
            "n_ok": sum(r["status"] == "ok" for r in records.values()),
            "n_rows_only": sum(r["status"] == "rows_only" for r in records.values()),
            "n_skipped": n_skipped,
            "n_fail": failures,
            "results": records,
        }
        with open(json_out, "w") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
        print(f"wrote {json_out}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
