"""Per-partition manifest Bloom filters (``sources.bloom``, the same
split-block filter and xxh64 as the Parquet read path): point-equality
partition pruning that min/max stats cannot provide on high-cardinality
columns. Filter properties + e2e prune-proof (pruned blobs deleted)."""

import base64
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from parquet_hs_ray.sources.bloom import (build_manifest_bloom,
                                          manifest_bloom_may_contain,
                                          manifest_probe_hashes)
from parquet_hs_ray.state import manifest as mf


def _has(bloom, v) -> bool:
    return manifest_bloom_may_contain(bloom, manifest_probe_hashes([v]))


def test_bloom_kernel_membership_and_fpr():
    # integers: every member hits, non-members mostly miss
    vals = pa.chunked_array([np.arange(0, 5000, 5, dtype=np.int64)])
    bl = build_manifest_bloom(vals)
    assert bl is not None and bl["kind"] == "int" and bl["v"] == 2
    for v in (0, 5, 4995):
        assert _has(bl, v)
    probes = np.arange(1, 100_001, 7)  # none divisible by 5 when %5 != 0
    probes = probes[probes % 5 != 0]
    fp = sum(_has(bl, int(v)) for v in probes[:2000])
    assert fp / 2000 < 0.02, f"false-positive rate too high: {fp / 2000}"

    # strings
    svals = pa.array([f"doc-{i:06d}" for i in range(0, 3000, 3)])
    sb = build_manifest_bloom(svals)
    assert sb is not None and sb["kind"] == "str"
    assert _has(sb, "doc-000000")
    assert _has(sb, "doc-002997")
    fp = sum(_has(sb, f"doc-{i:06d}")
             for i in range(1, 6000, 3))  # all absent
    assert fp / 2000 < 0.02

    # type-mismatched probes never prune
    assert _has(bl, "5")
    assert _has(sb, 5)
    assert _has(bl, True)  # bool is not an int key
    # one mismatched member keeps the partition for the whole list
    assert manifest_bloom_may_contain(bl, manifest_probe_hashes([1, "1"]))

    # nulls contribute nothing; an all-null column's bloom prunes any probe
    nb = build_manifest_bloom(pa.array([None, None], type=pa.int64()))
    assert nb is not None and not _has(nb, 0)

    # unsupported types are skipped
    assert build_manifest_bloom(pa.array([1.5, 2.5])) is None
    assert build_manifest_bloom(
        pa.array([[1.5], [2.5]], type=pa.list_(pa.float64()))) is None

    # list columns bloom their FLATTENED elements (token `contains` prune)
    lb = build_manifest_bloom(pa.array([[1, 2], [3]], type=pa.list_(pa.int32())))
    assert lb is not None and lb["kind"] == "int"
    assert _has(lb, 2) and _has(lb, 3)
    assert not _has(lb, 999)

    # the filter keeps the old per-partition size: 4 KiB at 1,900 keys
    big = build_manifest_bloom(pa.array(np.arange(1900, dtype=np.int64)))
    assert len(base64.b64decode(big["b64"])) == 4096


def test_bloom_build_is_deterministic():
    a = build_manifest_bloom(pa.array(["a", "b", "c"]))
    b = build_manifest_bloom(pa.array(["c", "a", "b", "a"]))
    assert a == b  # set semantics, order- and multiplicity-independent


def test_legacy_manifest_bloom_is_ignored():
    """A pre-split-block entry (``{"kind", "m", "k", "b64"}``, no
    ``"v"``) whose all-zero bits would prune every probe is ignored:
    the partition is kept."""
    from parquet_hs_ray.pipelines.encode_job import _probe_hashes, _stats_can_match

    def can_match(preds):
        return _stats_can_match(entry, preds, _probe_hashes(preds))

    legacy = {"kind": "str", "m": 64, "k": 4,
              "b64": base64.b64encode(bytes(8)).decode()}
    assert manifest_bloom_may_contain(legacy, manifest_probe_hashes(["doc-1"]))
    entry = {"row_count": 2, "columns": {"doc_id": {
        "min": "doc-0", "max": "doc-9", "null_count": 0, "bloom": legacy}}}
    assert can_match([("doc_id", "==", "doc-1")])
    assert can_match([("doc_id", "in", ["doc-1", "doc-2"])])
    # the same entry with a current, empty filter prunes
    entry["columns"]["doc_id"]["bloom"] = build_manifest_bloom(
        pa.array([None], pa.string()))
    assert not can_match([("doc_id", "==", "doc-1")])


def test_bloom_equality_pruning_e2e(ray_session, tmp_path):
    """A high-cardinality string id column: min/max spans every partition
    (useless), the Bloom keeps ~1 of them — proven by deleting every
    pruned blob and decoding anyway."""
    from parquet_hs_ray.pipelines.encode_job import (decode_dataset,
                                                     encode_dataset,
                                                     pruned_partition_ids)

    n = 12_000
    rng = np.random.default_rng(7)
    ids = np.array([f"doc-{h:08x}" for h in
                    rng.integers(0, 1 << 32, size=n, dtype=np.uint64)])
    df = pd.DataFrame({"doc_id": ids,
                       "v": np.arange(n, dtype=np.int64),
                       "n_tok": np.full(n, 10, dtype=np.int32)})
    src = tmp_path / "docs.parquet"
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False), src,
                   row_group_size=500)
    out = str(tmp_path / "enc")
    encode_dataset(str(src), out, token_budget=10_000)

    target = str(ids[n // 2])
    pred = [("doc_id", "==", target)]
    kept, total = pruned_partition_ids(out, pred)
    assert total >= 10
    # hashed ids are uniform -> min/max never prunes; the bloom must
    assert len(kept) <= max(2, total // 4), (len(kept), total)

    for e in mf.load_manifest(out):
        if e["partition_id"] not in kept:
            os.remove(mf.blob_path(out, e["partition_id"]))
    got = decode_dataset(out, predicate=pred).to_pandas()
    exp = df[df["doc_id"] == target].reset_index(drop=True)
    assert got.sort_values("v").reset_index(drop=True).equals(exp)

    # a value that exists nowhere: every partition pruned, empty decode
    # keeps the schema (no zero-column table)
    kept2, _ = pruned_partition_ids(out, [("doc_id", "==", "doc-zzzzzzzz")])
    assert len(kept2) <= max(1, total // 4)

    # integer column equality: v is globally dense so min/max also helps;
    # bloom agrees with it (no over-pruning of the true holder)
    kept3, _ = pruned_partition_ids(out, [("v", "==", 4321)])
    holder = [e["partition_id"] for e in mf.load_manifest(out)
              if e["row_start"] <= 4321 < e["row_start"] + e["row_count"]]
    assert set(holder) <= set(kept3)


def test_bloom_stats_optional(ray_session, tmp_path):
    from parquet_hs_ray.pipelines.encode_job import encode_dataset

    df = pd.DataFrame({"doc_id": ["a", "b"], "n_tok": [1, 2]})
    src = tmp_path / "t.parquet"
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False), src)
    out = str(tmp_path / "enc_nb")
    encode_dataset(str(src), out, token_budget=10, bloom_stats=False)
    for e in mf.load_manifest(out):
        assert all("bloom" not in st for st in e["columns"].values())


def test_tokens_contains_pruning_e2e(ray_session, tmp_path):
    """`contains` predicate on the tokens list column: partitions whose
    flattened-token Bloom lacks the probe are never opened (their blobs
    deleted), surviving rows match an exact python membership filter."""
    from parquet_hs_ray.pipelines.encode_job import (decode_dataset,
                                                     encode_dataset,
                                                     pruned_partition_ids)

    # disjoint token vocabularies per partition-sized stripe
    rows, toks = [], []
    for stripe in range(6):
        base = stripe * 10_000
        for i in range(200):
            rows.append(stripe * 200 + i)
            toks.append(list(range(base + (i % 37), base + (i % 37) + 30)))
    tbl = pa.table({
        "doc_id": pa.array([f"d{r:06d}" for r in rows]),
        "tokens": pa.array(toks, pa.list_(pa.int32())),
        "n_tok": pa.array([len(t) for t in toks], pa.int32()),
        "source": pa.array(["s"] * len(rows)),
    })
    src = str(tmp_path / "toks.parquet")
    pq.write_table(tbl, src, row_group_size=200)
    out = str(tmp_path / "enc")
    res = encode_dataset(src, out, token_budget=7000)
    assert res["planned"] >= 6

    probe = 30_005  # lives only in stripe 3
    pred = ("tokens", "contains", probe)
    kept, total = pruned_partition_ids(out, pred)
    assert 0 < len(kept) < total, f"no pruning: {len(kept)}/{total}"

    # delete every pruned blob: decode must not touch them
    for e in mf.load_manifest(out):
        if e["partition_id"] not in kept:
            os.remove(mf.blob_path(out, e["partition_id"]))
    got = decode_dataset(out, predicate=pred).to_pandas()
    exp = [t for t in toks if probe in t]
    assert len(got) == len(exp)
    assert all(probe in list(t) for t in got["tokens"])


def test_in_list_predicate_pruning_e2e(ray_session, tmp_path):
    """SQL IN-list predicate: a partition is pruned only when EVERY
    listed value provably misses (min/max + Bloom); decode matches an
    exact isin filter, proven by deleting pruned blobs."""
    from parquet_hs_ray.pipelines.encode_job import (decode_dataset,
                                                     encode_dataset,
                                                     pruned_partition_ids)

    n = 12_000
    rng = np.random.default_rng(11)
    ids = np.array([f"doc-{h:08x}" for h in
                    rng.integers(0, 1 << 32, size=n, dtype=np.uint64)])
    df = pd.DataFrame({"doc_id": ids,
                       "v": np.arange(n, dtype=np.int64),
                       "n_tok": np.full(n, 10, dtype=np.int32)})
    src = tmp_path / "docs.parquet"
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False), src,
                   row_group_size=500)
    out = str(tmp_path / "enc")
    encode_dataset(str(src), out, token_budget=10_000)

    targets = [str(ids[10]), str(ids[n // 2]), str(ids[n - 7]), "doc-nowhere"]
    pred = [("doc_id", "in", targets)]
    kept, total = pruned_partition_ids(out, pred)
    assert total >= 10
    # 3 real values -> at most ~3 partitions + bloom false positives
    assert len(kept) <= max(4, total // 2), (len(kept), total)

    for e in mf.load_manifest(out):
        if e["partition_id"] not in kept:
            os.remove(mf.blob_path(out, e["partition_id"]))
    got = decode_dataset(out, predicate=pred).to_pandas() \
        .sort_values("v").reset_index(drop=True)
    exp = df[df["doc_id"].isin(targets)].reset_index(drop=True)
    assert got.equals(exp)

    # integer IN-list: dense v column, min/max ranges prune exactly
    kept2, _ = pruned_partition_ids(out, [("v", "in", [3, 11_999])])
    holders = [e["partition_id"] for e in mf.load_manifest(out)
               if any(e["row_start"] <= x < e["row_start"] + e["row_count"]
                      for x in (3, 11_999))]
    assert set(holders) <= set(kept2)

    # empty IN-list matches nothing and prunes everything
    kept3, _ = pruned_partition_ids(out, [("v", "in", [])])
    assert kept3 == []
