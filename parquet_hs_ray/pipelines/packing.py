"""Sequence packing: turn ragged pre-tokenized documents into fixed-length
training sequences (GPT-style concatenate-and-chunk).

The canonical last mile of a pre-training data pipeline: documents of
wildly varying n_tok become context_len-sized rows with zero padding
waste. Packing is per input block (block = partition at scale): within a
block the token streams of consecutive docs are concatenated and split
every ``context_len`` tokens — one vectorized Arrow offset construction,
no per-row loop — and the final shorter remainder chunk of each block is
kept (flagged via n_tok < context_len) so no token is ever dropped.
Cross-block packing would serialize the whole dataset; per-block
remainders waste at most one chunk per partition, negligible at a
2M-token partition budget.

Deterministic given the same input blocking (files -> blocks is stable
for a fixed input layout).

The canonical, blocking-independent variants (``pack_sequences_global``,
``length_bucket_batches``, ``pack_global_doc_starts``) are sorted
carry-scans: one global sort, per-block counts folded into offsets on
the driver by ``blocktasks.carry_scan`` / ``scan_carries``, then one
task per block.
"""

from __future__ import annotations

import operator

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from .blocktasks import as_arrow, carry_scan, scan_carries


def _token_count(token_col: str):
    """Block summary of the canonical packers: the block's token count."""
    return lambda t: len(t[token_col].combine_chunks().flatten())


def pack_sequences(ds: "ray.data.Dataset", context_len: int = 2048,
                   token_col: str = "tokens") -> "ray.data.Dataset":
    def pack(t: pa.Table) -> pa.Table:
        arr = t[token_col].combine_chunks()
        flat = arr.flatten()  # respects offsets and null rows
        total = len(flat)
        if total == 0:
            empty = pa.ListArray.from_arrays(pa.array([0], pa.int32()),
                                             pa.array([], arr.type.value_type))
            return pa.table({token_col: empty.slice(0, 0),
                             "n_tok": pa.array([], pa.int32())})
        n_chunks = -(-total // context_len)
        offs = np.minimum(np.arange(n_chunks + 1, dtype=np.int64) * context_len,
                          total).astype(np.int32)
        chunks = pa.ListArray.from_arrays(pa.array(offs, pa.int32()), flat)
        lens = (offs[1:] - offs[:-1]).astype(np.int32)
        return pa.table({token_col: chunks, "n_tok": pa.array(lens)})

    # one batch per block: packing granularity == partition granularity
    return ds.map_batches(pack, batch_format="pyarrow", batch_size=None)


def pack_sequences_global(ds: "ray.data.Dataset", context_len: int = 2048,
                          token_col: str = "tokens",
                          order_col: str = "doc_id") -> "ray.data.Dataset":
    """CANONICAL packing: concatenate every document's tokens in
    ``order_col`` order across the whole corpus and chunk every
    ``context_len`` tokens — the output is a pure function of the data,
    independent of input blocking (unlike :func:`pack_sequences`), so it
    carries a hash-exact SQL oracle (`pack_global`).

    Scale shape: sort by ``order_col``; per-block token counts (ints only)
    give each block its global token offset; each block then emits its
    COMPLETE context_len-aligned sequences directly — no token shuffle —
    plus at most two boundary PIECES (< context_len tokens each) for the
    sequences straddling its edges, which a tiny groupby over ~2x#blocks
    rows stitches together. Returns (seq_id, tokens, n_tok); the final
    global remainder keeps n_tok < context_len."""
    srt = ds.sort(order_col).materialize()
    refs = srt.to_arrow_refs()
    # each block's global token offset (ints only reach the driver)
    offsets = scan_carries(refs, _token_count(token_col), operator.add, 0)

    sch = srt.schema()
    val_type = sch.types[sch.names.index(token_col)].value_type

    def _tables(flat: pa.Array, s: int, e: int, L: int):
        """(full-sequence table, boundary-piece table) for a block whose
        tokens occupy global positions [s, e)."""
        fa = -(-s // L) * L
        lb = (e // L) * L
        pieces: list[tuple[int, int]] = []
        if fa > lb:
            if e > s:
                pieces.append((s, e))
            fa = lb = None
        else:
            if s < fa:
                pieces.append((s, fa))
            if lb < e:
                pieces.append((lb, e))
        if fa is not None and lb is not None and lb > fa:
            n_full = (lb - fa) // L
            offs = ((fa - s) + np.arange(n_full + 1, dtype=np.int64) * L).astype(np.int32)
            chunks = pa.ListArray.from_arrays(pa.array(offs, pa.int32()), flat)
            full = pa.table({
                "seq_id": pa.array(fa // L + np.arange(n_full, dtype=np.int64)),
                token_col: chunks,
                "n_tok": pa.array(np.full(n_full, L, np.int32)),
            })
        else:
            full = pa.table({
                "seq_id": pa.array([], pa.int64()),
                token_col: pa.ListArray.from_arrays(pa.array([0], pa.int32()),
                                                    pa.array([], val_type)),
                "n_tok": pa.array([], pa.int32()),
            })
        prow = {"seq_id": [], "sub_pos": [], token_col: [], "n_tok": []}
        parts = []
        for (p0, p1) in pieces:
            offs = pa.array([p0 - s, p1 - s], pa.int32())
            seg = pa.ListArray.from_arrays(offs, flat)
            parts.append(pa.table({
                "seq_id": pa.array([p0 // L], pa.int64()),
                "sub_pos": pa.array([p0 % L], pa.int32()),
                token_col: seg.slice(0, 1),
                "n_tok": pa.array([p1 - p0], pa.int32()),
            }))
        if parts:
            piece_tbl = pa.concat_tables(parts)
        else:
            piece_tbl = pa.table({
                "seq_id": pa.array([], pa.int64()),
                "sub_pos": pa.array([], pa.int32()),
                token_col: pa.ListArray.from_arrays(pa.array([0], pa.int32()),
                                                    pa.array([], val_type)).slice(0, 0),
                "n_tok": pa.array([], pa.int32()),
            })
        return full, piece_tbl

    # the one block task with two outputs, so it is not a carry_scan apply
    @ray.remote(num_cpus=1, num_returns=2)
    def pack_block(t, s: int):
        flat = as_arrow(t)[token_col].combine_chunks().flatten()
        return _tables(flat, s, s + len(flat), context_len)

    full_refs, piece_refs = [], []
    for r, s in zip(refs, offsets):
        f, p = pack_block.remote(r, s)  # two refs, nothing fetched
        full_refs.append(f)
        piece_refs.append(p)

    full_ds = ray.data.from_arrow_refs(full_refs)
    pieces_ds = ray.data.from_arrow_refs(piece_refs)

    def merge(g: "pd.DataFrame") -> pa.Table:
        # build Arrow directly: a pandas return would round-trip the token
        # arrays through Ray's tensor extension type (uncastable to list)
        g = g.sort_values("sub_pos")
        toks = np.concatenate([np.asarray(x) for x in g[token_col]])
        la = pa.ListArray.from_arrays(pa.array([0, len(toks)], pa.int32()),
                                      pa.array(toks, val_type))
        return pa.table({
            "seq_id": pa.array([int(g["seq_id"].iloc[0])], pa.int64()),
            token_col: la,
            "n_tok": pa.array([len(toks)], pa.int32()),
        })

    merged = pieces_ds.groupby("seq_id").map_groups(merge, batch_format="pandas")

    def norm(t: pa.Table) -> pa.Table:
        schema = pa.schema([("seq_id", pa.int64()),
                            (token_col, pa.list_(val_type)),
                            ("n_tok", pa.int32())])
        if t.num_columns == 0 or t.num_rows == 0:
            return schema.empty_table()
        return t.select(schema.names).cast(schema)

    return full_ds.map_batches(norm, batch_format="pyarrow").union(
        merged.map_batches(norm, batch_format="pyarrow"))


def length_bucket_batches(ds: "ray.data.Dataset", id_col: str = "doc_id",
                          len_col: str = "n_tok", width: int = 256,
                          batch_rows: int = 32) -> "ray.data.Dataset":
    """Length-bucketed batch assignment — the dynamic-batching layout of
    seq2seq / padded training: rows bucket by ``len_col // width`` (so a
    batch only pads to its bucket's ceiling, not the corpus max), and
    within each bucket rows are batched ``batch_rows`` at a time in
    deterministic ``id_col`` order.  Returns (id, bucket, batch_id, pos):
    ``batch_id`` numbers batches within the bucket, ``pos`` the slot in
    the batch.  A pure function of the data (no RNG, no block-layout
    dependence) — the SQL twin is one window function.

    Scale shape: the shuffle carries (id, bucket) key pairs only (never
    tokens); one Ray sort on (bucket, id); global within-bucket ranks
    come from per-block per-bucket counts (bucket-count x block-count
    ints folded on the driver, the deterministic_shuffle carry pattern)
    plus an in-block segmented arange — no second data pass."""
    w = int(width)

    def key(b: "pd.DataFrame") -> "pd.DataFrame":
        return pd.DataFrame({
            id_col: b[id_col],
            "bucket": (b[len_col].to_numpy(dtype=np.int64) // w),
        })

    srt = ds.map_batches(key, batch_format="pandas").sort(["bucket", id_col]).materialize()
    refs = srt.to_arrow_refs()
    if not refs:
        return ray.data.from_pandas(
            pd.DataFrame(columns=[id_col, "bucket", "batch_id", "pos"]))

    def bucket_counts(t):
        return np.unique(t["bucket"].to_numpy(), return_counts=True)

    def step(running, s):
        # rows per bucket in all earlier blocks (a new dict: earlier
        # blocks hold the old one)
        running = dict(running)
        for u, c in zip(*s):
            running[int(u)] = running.get(int(u), 0) + int(c)
        return running

    def rank_block(t, off_map):
        df = t.to_pandas()
        if not len(df):  # a range-partitioned sort can emit empty blocks
            return pd.DataFrame({id_col: df[id_col] if id_col in df.columns
                                 else pd.Series(dtype=object),
                                 "bucket": pd.Series(dtype=np.int64),
                                 "batch_id": pd.Series(dtype=np.int64),
                                 "pos": pd.Series(dtype=np.int64)})
        bk = df["bucket"].to_numpy(dtype=np.int64)
        starts = np.concatenate([[0], np.flatnonzero(bk[1:] != bk[:-1]) + 1])
        seg_len = np.diff(np.concatenate([starts, [len(bk)]]))
        seg_id = np.repeat(np.arange(len(starts)), seg_len)
        local = np.arange(len(bk), dtype=np.int64) - starts[seg_id]
        base = np.asarray([off_map.get(int(bk[s]), 0) for s in starts],
                          dtype=np.int64)[seg_id]
        rank = base + local  # 0-based within-bucket rank in id order
        df["batch_id"] = rank // batch_rows
        df["pos"] = rank % batch_rows
        return df[[id_col, "bucket", "batch_id", "pos"]]

    # block outputs become the result Dataset (no driver concatenation)
    return ray.data.from_pandas_refs(
        carry_scan(refs, bucket_counts, step, rank_block, init={}))


def pack_global_doc_starts(ds: "ray.data.Dataset", context_len: int = 2048,
                           token_col: str = "tokens",
                           order_col: str = "doc_id") -> "ray.data.Dataset":
    """Document-boundary metadata for the canonical packing: per packed
    sequence (same ``seq_id`` space as :func:`pack_sequences_global`),
    the sorted positions RELATIVE to the sequence where documents BEGIN
    — the input a trainer needs to build block-diagonal attention masks
    so packed documents don't attend across their boundaries.

    Scale shape: the same sort + per-block token-count offsets as the
    packer (ints only cross the driver); each block emits one
    (seq_id, rel_start) int pair per document, and ``collect_list``
    re-nests them — tokens never move at all.  Zero-length/NULL docs
    still mark a boundary (their start position), matching the SQL
    window twin."""
    srt = ds.sort(order_col).materialize()
    refs = srt.to_arrow_refs()
    if not refs:
        return ray.data.from_pandas(pd.DataFrame(
            {"seq_id": pd.Series([], dtype=np.int64),
             "doc_starts": pd.Series([], dtype=object)}))

    def starts_block(t, off: int):
        arr = t[token_col].combine_chunks()
        if len(arr) == 0:
            return pd.DataFrame({"seq_id": pd.Series([], dtype=np.int64),
                                 "rel_start": pd.Series([], dtype=np.int64)})
        lens = np.diff(arr.offsets.to_numpy()).astype(np.int64)
        g = off + np.concatenate([[0], np.cumsum(lens)[:-1]])
        return pd.DataFrame({"seq_id": g // context_len,
                             "rel_start": g % context_len})

    rows = ray.data.from_pandas_refs(carry_scan(
        refs, _token_count(token_col), operator.add, starts_block, init=0))
    from .relational import collect_list

    return collect_list(rows, "seq_id", "rel_start",
                        order_col="rel_start", out_col="doc_starts")
