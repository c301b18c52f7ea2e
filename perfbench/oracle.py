"""Correctness oracle: every output the benchmark times is compared with
the seeded source table it came from.

A scan must return the source table row for row: same columns, same
values, and per-row token-array equality. A lookup must return exactly
the source row for a present key and no rows for an absent key. A check
returns a reason string on mismatch and None on success, so the caller
counts the op as failed and keeps going.

Run standalone (``python3 perfbench/oracle.py``) for the self-test: a
decoded table with one flipped token must be reported as a mismatch.
"""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _column_mismatch(name: str, want: pa.ChunkedArray, got: pa.ChunkedArray) -> str | None:
    want = want.combine_chunks()
    got = got.combine_chunks()
    if len(want) != len(got):
        return f"{name}: {len(got)} rows, expected {len(want)}"
    if not np.array_equal(pc.is_valid(want).to_numpy(zero_copy_only=False),
                          pc.is_valid(got).to_numpy(zero_copy_only=False)):
        return f"{name}: null mask differs"
    if pa.types.is_list(want.type) or pa.types.is_large_list(want.type):
        # per-row token-array equality == equal row lengths + equal
        # flattened values (list field names may differ by writer)
        lw = pc.list_value_length(want).fill_null(0).to_numpy(zero_copy_only=False)
        lg = pc.list_value_length(got).fill_null(0).to_numpy(zero_copy_only=False)
        if not np.array_equal(lw, lg):
            row = int(np.flatnonzero(lw != lg)[0])
            return f"{name}: row {row} has {lg[row]} elements, expected {lw[row]}"
        vw = want.flatten().to_numpy(zero_copy_only=False)
        vg = got.flatten().to_numpy(zero_copy_only=False)
        if vw.dtype != vg.dtype or not np.array_equal(vw, vg):
            return f"{name}: element values differ"
        return None
    if got.type != want.type:
        try:
            got = got.cast(want.type)
        except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
            return f"{name}: type {got.type}, expected {want.type}"
    if not want.equals(got):
        return f"{name}: values differ"
    return None


def check_table(source: pa.Table, got: pa.Table, key: str = "doc_id") -> str | None:
    """Compare a full scan with the source table. Scan order is not part
    of the contract, so rows are aligned by ``key`` first."""
    if sorted(got.column_names) != sorted(source.column_names):
        return f"columns {got.column_names}, expected {source.column_names}"
    if got.num_rows != source.num_rows:
        return f"{got.num_rows} rows, expected {source.num_rows}"
    got = got.take(pc.sort_indices(got, sort_keys=[(key, "ascending")]))
    want = source.take(pc.sort_indices(source, sort_keys=[(key, "ascending")]))
    for name in source.column_names:
        why = _column_mismatch(name, want[name], got[name])
        if why:
            return why
    return None


def check_lookup(source_row: dict | None, rows: list[dict], key: str = "doc_id") -> str | None:
    """Compare a point lookup's rows with the source row for the key
    (``None`` for an absent key, which must return no rows)."""
    if source_row is None:
        return None if not rows else f"absent key returned {len(rows)} rows"
    if len(rows) != 1:
        return f"present key returned {len(rows)} rows"
    row = rows[0]
    if sorted(row) != sorted(source_row):
        return f"columns {sorted(row)}, expected {sorted(source_row)}"
    for name, want in source_row.items():
        got = row[name]
        if isinstance(want, np.ndarray):
            got = np.asarray(got)
            if got.shape != want.shape or not np.array_equal(got, want):
                return f"{name}: token array differs for {source_row[key]!r}"
        elif got != want:
            return f"{name}: {got!r}, expected {want!r}"
    return None


def source_row(source: pa.Table, index: dict[str, int], k: str, columns: list[str]) -> dict | None:
    """The expected lookup row for key ``k`` (list columns as numpy)."""
    i = index.get(k)
    if i is None:
        return None
    out = {}
    for name in columns:
        v = source[name][i]
        out[name] = (v.values.to_numpy(zero_copy_only=False)
                     if isinstance(v, pa.ListScalar) else v.as_py())
    return out


class OpLog:
    """Attempted / failed op counts and per-kind latencies. An op fails
    when it raises or when its output fails the check; only ops that
    pass contribute a latency."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.seconds: dict[str, list[float]] = {}

    def run(self, kind: str, fn, check) -> float | None:
        """Time ``fn()`` (which must consume its output), then check the
        output outside the timed region. Returns the op's seconds, or
        None when it failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as e:  # an op that raises is a failed op, not a crash
            why = f"raised {type(e).__name__}: {e}"
        else:
            dt = time.perf_counter() - t0
            why = check(out)
            if why is None:
                self.seconds.setdefault(kind, []).append(dt)
                return dt
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{kind}: {why}")
        return None


def self_test() -> None:
    """Raise unless a decoded table with one flipped token, and a lookup
    row with one flipped token, each count as a failed op."""
    from parquet_hs_ray.sources.synth import gen_batch

    src = gen_batch(64, seed=1)
    toks = src["tokens"].combine_chunks()
    vals = toks.values.to_numpy(zero_copy_only=False).copy()
    vals[len(vals) // 2] ^= 1
    flipped = pa.ListArray.from_arrays(toks.offsets, pa.array(vals, pa.int32()))
    bad = src.set_column(src.column_names.index("tokens"), "tokens", flipped)
    log = OpLog()
    log.run("scan", lambda: src.take(np.arange(src.num_rows)[::-1]),
            lambda t: check_table(src, t))
    if log.failed:
        raise AssertionError(f"oracle rejected a reordered exact copy: {log.errors}")
    log.run("scan", lambda: bad, lambda t: check_table(src, t))
    if log.failed != 1:
        raise AssertionError("oracle accepted a table with one flipped token")
    index = {k: i for i, k in enumerate(src["doc_id"].to_pylist())}
    k = src["doc_id"][7].as_py()
    want = source_row(src, index, k, ["doc_id", "tokens"])
    got = dict(want, tokens=want["tokens"].copy())
    got["tokens"][0] ^= 1
    log.run("lookup", lambda: [got], lambda rows: check_lookup(want, rows))
    log.run("lookup", lambda: [want], lambda rows: check_lookup(None, rows))
    if log.failed != 3 or log.attempted != 4:
        raise AssertionError(f"oracle missed a bad lookup: {log.errors}")


if __name__ == "__main__":
    import os
    import sys

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    self_test()
    print("oracle self-test passed")
