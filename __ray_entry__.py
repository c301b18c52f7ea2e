"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported: nothing
here (or in the library) calls ray.init()/ray.shutdown().

Queries cover SURVEY.md §2 re-expressed Ray-Data-first:
- roundtrip_<table>: the engine's core — encode every column with the
  auto-selected codec (dict/FOR/PFOR/DELTA/FSST/FRONT/ALP/plain) and decode
  back, per batch, distributed; oracle = SELECT * (bit-exact round-trip).
- encode_job_f1 / decode_f1 / pack_sequences: the blob+manifest+resume
  job and sequence packing over the synthetic pre-tokenized table
  (BASELINE.json input_hint schema); decode_f1 is hash-checked against
  the deterministic source via read_parquet in SQL.
- text analysis (counts/quality/lang/fingerprints/term stats/mixing),
  dedup (exact/assign/normalized/minhash/simhash/embedding exact+IVF),
  ANN (brute-force/IVF/persisted-index/quantize), windows
  (tumbling/hopping/sessions), multimodal: the training-data-pipeline
  operator suite over documents/embeddings/events.
Hash-exact DuckDB oracles for every SQL-expressible query (53 of 61,
including generated-SQL twins of the full minhash-LSH pipeline, the
simhash signature math, the rolling-fingerprint byte chain, the int8
quantization grid, window analytics and the relational/cleaning/stats
families); the rows-only remainder is listed with reasons at the bottom
of oracle_sql().
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any

from parquet_hs_ray.functions.text import _LANG_MARKERS

_TABLES = [
    "region", "nation", "customer", "supplier", "part",
    "orders", "lineitem", "events", "documents", "embeddings",
]

_F1_ROWS = 2000  # correctness-scale synthetic tokens table


def _rp(path, **kwargs):
    """``ray.data.read_parquet`` with a metadata-stripped ``schema=``:
    testdata files carry a ``b'pandas'`` schema stamp that makes
    pa.Schema unhashable, so every ReadParquet split task would log
    Ray's "Failed to hash the schemas (for deduplication)" warning
    (see `sources/reader.py:_strip_schema_metadata`)."""
    import ray.data

    if "schema" not in kwargs and "columns" not in kwargs:
        # schema= + columns= breaks Ray's read task when the projection
        # reorders fields (Table.from_batches validates the FULL schema)
        try:
            import pyarrow.parquet as pq

            kwargs["schema"] = pq.read_schema(path).remove_metadata()
        except Exception:
            pass
    return ray.data.read_parquet(path, **kwargs)


def _read(sf_dir: str, table: str, columns: list[str] | None = None):
    """Size-aware table read (see sources/reader.py: 64 KB floor /
    128 MB ceiling per block, 2x CPUs preferred in between).

    ``columns=`` prunes the scan at the parquet reader — only the named
    columns leave storage (row groups project before hitting the object
    store).  Every query that touches a wide table (lineitem 16 cols,
    orders 9, events 7) should pass the columns it actually uses: at
    100 TB a full-width scan for a 5-column aggregate is a 3x+ read
    amplification."""
    from parquet_hs_ray.sources.reader import read_sized

    return read_sized(os.path.join(sf_dir, f"{table}.parquet"),
                      columns=columns)


def _roundtrip(sf_dir: str, table: str):
    """Distributed encode->decode round-trip of a whole table (per-batch,
    exercising the full codec stack + selector in every task)."""
    from parquet_hs_ray.format import decode_table, encode_table

    def rt(batch):
        blob, _ = encode_table(batch)
        return decode_table(blob)

    # whole-block batches: fewer frames, bigger codec contexts (2x faster
    # than the 1024-row default, same row-level semantics)
    return _read(sf_dir, table).map_batches(rt, batch_format="pyarrow", batch_size=None)


def _f1_out_dir(sf_dir: str) -> str:
    from parquet_hs_ray.sources.synth import cached_dataset

    tag = os.path.basename(os.path.normpath(sf_dir)) or "sf"
    src = cached_dataset(_F1_ROWS, seed=42, n_files=4)
    # key the store on the CACHE GENERATION too (basename carries rows/
    # seed/files/row-group): a regenerated source cache must not resume
    # against a plan built over the old file list
    return src, os.path.join("/tmp", "phr_encode",
                             f"{tag}_{os.path.basename(src)}")


def _encode_job_f1(sf_dir: str):
    import pandas as pd

    from parquet_hs_ray.pipelines.encode_job import encode_dataset
    from parquet_hs_ray.state import manifest as mf

    src, out = _f1_out_dir(sf_dir)
    encode_dataset(src, out, token_budget=500_000)
    entries = mf.load_manifest(out)
    # deterministic manifest fields only (promoted to a hash oracle in
    # r5 per the r4 verdict: the skew-aware plan puts one partition per
    # source file at this budget, so the SQL twin groups by filename;
    # encoded_bytes / codec choice are covered by the roundtrip +
    # layout-advice oracles and the selector tests)
    return pd.DataFrame(
        [
            {
                "partition_id": e["partition_id"],
                "row_count": e["row_count"],
                "n_tokens": e["n_tokens"],
            }
            for e in entries
        ]
    ).sort_values("partition_id").reset_index(drop=True)


def _decode_f1(sf_dir: str):
    from parquet_hs_ray.pipelines.encode_job import decode_dataset, encode_dataset

    src, out = _f1_out_dir(sf_dir)
    encode_dataset(src, out, token_budget=500_000)
    return decode_dataset(out)


# Shared by the events_validate query and its SQL oracle so both sides
# check the exact same rule set (pipelines/validate.py rule forms).
_VALIDATE_RULES = [
    ("not_null", "value"),
    ("unique", "event_id"),
    ("range", "value", 0.0, 400.0),
    ("in_set", "event_type", ["click", "view", "purchase"]),
    ("regex", "props", '"k": [0-4]'),
]


def _media_features(sf_dir: str):
    """Multimodal plumbing demo: document text bytes as opaque payloads."""
    import pyarrow as pa

    from parquet_hs_ray.stages.multimodal import media_features

    def to_payload(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "media_id": batch["doc_id"],
                "payload": batch["text"].cast(pa.binary()),
            }
        )

    ds = _read(sf_dir, "documents").map_batches(to_payload, batch_format="pyarrow")
    return media_features(ds, concurrency=2, batch_size=64)


def entry() -> Any:
    """Flagship: full encode->manifest->decode job over the synthetic
    pre-tokenized table at correctness scale; returns the decoded Dataset."""
    return _decode_f1("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    from parquet_hs_ray.pipelines import ann, dedup, text_analysis as ta

    q: dict[str, Callable[[str], Any]] = {}
    for t in _TABLES:
        q[f"roundtrip_{t}"] = (lambda sf, t=t: _roundtrip(sf, t))
    def pack_f1(sf):
        import ray.data

        from parquet_hs_ray.pipelines.packing import pack_sequences

        f1_src, _ = _f1_out_dir(sf)
        # pinned blocking -> deterministic chunk count for the rows-only check
        ds = _rp(f1_src, override_num_blocks=4)
        return pack_sequences(ds, context_len=2048)

    q["pack_sequences"] = pack_f1

    def pack_conservation(sf):
        """Token-conservation invariant of pack_sequences (r3 verdict
        #4): the packed output must hold exactly the input's tokens —
        sum(n_tok) over chunks == sum(n_tok) over source rows — and no
        chunk exceeds context_len.  The sums are SQL-checkable against
        the source even though the chunk LAYOUT is block-dependent."""
        import pandas as pd
        import pyarrow as pa

        packed = pack_f1(sf)
        parts = [
            (int(t["n_tok"].to_pandas().astype("int64").sum()),
             int(t["n_tok"].to_pandas().astype("int64").max())
             if t.num_rows else 0)
            for t in packed.iter_batches(batch_format="pyarrow")
            if isinstance(t, pa.Table)
        ]
        total = sum(p[0] for p in parts)
        mx = max((p[1] for p in parts), default=0)
        return pd.DataFrame({"total_packed_tokens": [total],
                             "max_chunk": [mx]})

    q["pack_conservation"] = pack_conservation

    def pack_global(sf):
        import ray.data

        from parquet_hs_ray.pipelines.packing import pack_sequences_global

        f1_src, _ = _f1_out_dir(sf)
        # blocking-INDEPENDENT canonical packing: any override_num_blocks
        # yields the identical output (hash-checked vs the SQL twin)
        ds = _rp(f1_src, override_num_blocks=4)
        return pack_sequences_global(ds, context_len=2048)

    q["pack_global"] = pack_global

    def f1_length_batches(sf):
        import ray.data

        from parquet_hs_ray.pipelines.packing import length_bucket_batches

        f1_src, _ = _f1_out_dir(sf)
        return length_bucket_batches(_rp(f1_src),
                                     "doc_id", "n_tok",
                                     width=256, batch_rows=32)

    q["f1_length_batches"] = f1_length_batches

    def f1_len_hist(sf):
        import ray.data

        from parquet_hs_ray.pipelines.stats import grouped_histogram

        f1_src, _ = _f1_out_dir(sf)
        # sequence-length profile per source: the distribution that sizes
        # context_len / bucket widths for packing and batching
        return grouped_histogram(_rp(f1_src),
                                 "source", "n_tok", 256.0)

    q["f1_len_hist"] = f1_len_hist
    q["encode_job_f1"] = _encode_job_f1
    q["decode_f1"] = _decode_f1

    def decode_f1_contains(sf):
        """Token-membership decode: `contains` predicate over the encoded
        store — manifest Bloom/min-max pruning + vectorized flattened
        membership filter; hash-exact vs list_contains in SQL."""
        from parquet_hs_ray.pipelines.encode_job import decode_dataset, encode_dataset

        src, out = _f1_out_dir(sf)
        encode_dataset(src, out, token_budget=500_000)
        return decode_dataset(out, predicate=("tokens", "contains", 777))

    q["decode_f1_contains"] = decode_f1_contains

    def decode_f1_backfill(sf):
        """Column backfill: a derived tok_sum family added to the encoded
        store WITHOUT re-encoding it, merged at decode by row position."""
        import numpy as np
        import pyarrow as pa

        from parquet_hs_ray.pipelines.encode_job import (backfill_columns,
                                                         decode_dataset,
                                                         encode_dataset)

        src, out = _f1_out_dir(sf)
        encode_dataset(src, out, token_budget=500_000)

        def fn(base: "pa.Table") -> "pa.Table":
            arr = base["tokens"].combine_chunks()
            offs = arr.offsets.to_numpy()
            vals = arr.values.to_numpy(zero_copy_only=False).astype(np.int64)
            csum = np.concatenate([[0], np.cumsum(vals)])
            return pa.table({"tok_sum": pa.array(csum[offs[1:]] - csum[offs[:-1]],
                                                 pa.int64())})

        backfill_columns(out, "toksum", fn)
        return decode_dataset(out, aux_families=["toksum"])

    q["decode_f1_backfill"] = decode_f1_backfill

    def decode_f1_deleted(sf):
        """Row-level DELETE via deletion-vector sidecars (state/deletes.py,
        the Delta/Iceberg design): two successive deletes union, decode
        applies the keep mask — hash-exact vs the SQL survivor set.
        Uses its OWN store dir: sidecars must not leak into the shared
        cached store other decode_f1 queries read."""
        import shutil

        from parquet_hs_ray.pipelines.encode_job import (decode_dataset,
                                                         delete_rows,
                                                         encode_dataset)

        src, out = _f1_out_dir(sf)
        out = out + "_del"
        # deletes are monotone on a persisted store; start fresh so the
        # survivor set matches the oracle exactly on every driver run
        shutil.rmtree(out, ignore_errors=True)
        encode_dataset(src, out, token_budget=500_000)
        delete_rows(out, ("n_tok", ">", 900))
        delete_rows(out, ("source", "==", "web"))
        return decode_dataset(out)

    q["decode_f1_deleted"] = decode_f1_deleted

    def decode_f1_snapshot(sf):
        """Time travel: snapshot after the first delete pins its survivor
        set; a later delete is invisible to the snapshot read."""
        import shutil

        from parquet_hs_ray.pipelines.encode_job import (decode_dataset,
                                                         delete_rows,
                                                         encode_dataset)
        from parquet_hs_ray.state import snapshots as snaps

        src, out = _f1_out_dir(sf)
        out = out + "_snap"
        shutil.rmtree(out, ignore_errors=True)
        encode_dataset(src, out, token_budget=500_000)
        delete_rows(out, ("n_tok", ">", 900))
        snaps.create_snapshot(out, "v1")
        delete_rows(out, ("source", "==", "web"))   # must be invisible
        return decode_dataset(out, snapshot="v1")

    q["decode_f1_snapshot"] = decode_f1_snapshot

    def decode_f1_in(sf):
        """SQL IN-list predicate pushed into the decode: partitions whose
        min/max + Bloom prove every listed value absent never open."""
        from parquet_hs_ray.pipelines.encode_job import decode_dataset, encode_dataset

        src, out = _f1_out_dir(sf)
        encode_dataset(src, out, token_budget=500_000)
        return decode_dataset(
            out, predicate=("source", "in", ["wiki", "news", "papers"]))

    q["decode_f1_in"] = decode_f1_in

    def _f1_token_corpus(sf):
        """Small F1 docs plus planted exact copies (doc_id ending in '0')
        — shared by the token minhash and token simhash dedup queries and
        replicated verbatim in their SQL oracles."""
        import pyarrow as pa
        import pyarrow.compute as pc
        import ray.data

        src, _ = _f1_out_dir(sf)
        ds = _rp(src)
        base = ds.map_batches(
            lambda t: t.filter(pc.less_equal(t["n_tok"], 200)),
            batch_format="pyarrow")

        def plant(t: "pa.Table") -> "pa.Table":
            d = t.filter(pc.ends_with(t["doc_id"], "0"))
            if d.num_rows == 0:
                return d  # keeps the input schema (no null-typed concat)
            return pa.table({
                "doc_id": pc.binary_join_element_wise(
                    pa.array(["dup_"] * d.num_rows), d["doc_id"].combine_chunks(), ""),
                "tokens": d["tokens"],
                "n_tok": d["n_tok"],
                "source": d["source"],
            })

        return base.union(base.map_batches(plant, batch_format="pyarrow"))

    def dedup_tokens(sf):
        """MinHash-LSH near-dup over the NATIVE pre-tokenized table:
        token-id n-gram shingles through the same distributed candidate
        gen + exact-Jaccard verify as the word path — dedup where the
        corpus lives, no detokenization."""
        from parquet_hs_ray.pipelines.dedup import dedup_minhash_tokens

        return dedup_minhash_tokens(_f1_token_corpus(sf), threshold=0.8)

    q["dedup_minhash_tokens"] = dedup_tokens

    def dedup_tokens_simhash(sf):
        """SimHash over token-id 3-gram shingles + generic signature
        banding — the O(n) companion to the token minhash path."""
        from parquet_hs_ray.pipelines.dedup import dedup_simhash_tokens

        return dedup_simhash_tokens(_f1_token_corpus(sf), max_hamming=3)

    q["dedup_simhash_tokens"] = dedup_tokens_simhash

    def decon_tokens(sf):
        """Token-native benchmark decontamination: shared token shingles
        between corpus (small F1 docs) and a 'benchmark' subset (doc_id
        ending in '7'), counted per corpus doc — broadcast-set probe, the
        corpus never shuffles."""
        import pyarrow.compute as pc
        import ray.data

        from parquet_hs_ray.pipelines.cleaning import decontaminate_tokens

        src, _ = _f1_out_dir(sf)
        ds = _rp(src)
        docs = ds.map_batches(
            lambda t: t.filter(pc.less_equal(t["n_tok"], 200)),
            batch_format="pyarrow")
        bench = ds.map_batches(
            lambda t: t.filter(pc.ends_with(t["doc_id"], "7")),
            batch_format="pyarrow")
        return decontaminate_tokens(docs, bench, ngram=3)

    q["doc_decontaminate_tokens"] = decon_tokens

    def pack_starts(sf):
        """Document-boundary metadata for canonical packing: per packed
        sequence, the relative positions where documents begin (the
        block-diagonal attention-mask input) — same sort + int-offset
        machinery as pack_global, tokens never move."""
        import ray.data

        from parquet_hs_ray.pipelines.packing import pack_global_doc_starts

        src, _ = _f1_out_dir(sf)
        return pack_global_doc_starts(_rp(src),
                                      context_len=2048)

    q["pack_doc_starts"] = pack_starts
    q["doc_token_count"] = lambda sf: ta.token_counts(_read(sf, "documents"))
    q["doc_quality"] = lambda sf: ta.quality_scores(_read(sf, "documents"))
    q["doc_fingerprint"] = lambda sf: ta.fingerprints(_read(sf, "documents"))
    q["doc_lang_id"] = lambda sf: ta.language_id(_read(sf, "documents"))
    q["doc_text_stats"] = lambda sf: ta.text_stats(_read(sf, "documents"))
    q["doc_roll_fp"] = lambda sf: ta.rolling_fingerprints(_read(sf, "documents"))
    q["top_terms"] = lambda sf: ta.top_terms(_read(sf, "documents"), k=50)
    q["doc_top_terms"] = lambda sf: ta.doc_top_terms(_read(sf, "documents"), k=3)
    q["source_top_terms"] = lambda sf: ta.top_terms_per_source(
        _read(sf, "documents"), k=5)
    q["doc_mix"] = lambda sf: ta.deterministic_mix(
        _read(sf, "documents"), {"src1": 50, "src2": 25, "src3": 0})
    q["doc_sample_n"] = lambda sf: ta.sample_exact_n(
        _read(sf, "documents"), n=100, seed=42,
        columns=["doc_id", "source", "n_chars"])
    q["doc_splits"] = lambda sf: ta.assign_splits(
        _read(sf, "documents"), {"train": 80, "val": 10, "test": 10})
    q["doc_sample_weighted"] = lambda sf: ta.sample_weighted(
        _read(sf, "documents"), weight_col="n_chars", rate_per_unit=1 / 4000,
        seed=7, columns=["doc_id", "source", "n_chars"])
    q["doc_surprisal"] = lambda sf: ta.unigram_surprisal(_read(sf, "documents"))

    def doc_dsir(sf):
        # DSIR importance scores against an in-corpus target slice
        # (doc_id % 7 == 0 stands in for the domain-target corpus)
        docs = _read(sf, "documents")
        target = docs.map_batches(lambda b: b[b["doc_id"] % 7 == 0],
                                  batch_format="pandas")
        return ta.dsir_scores(docs, target, n_buckets=256)

    q["doc_dsir"] = doc_dsir
    q["doc_bm25"] = lambda sf: ta.bm25_score(
        _read(sf, "documents"), ["column", "merge", "zebra"])
    q["doc_inverted_index"] = lambda sf: ta.inverted_index(
        _read(sf, "documents"), k=8)
    q["stats_by_source"] = lambda sf: ta.stats_by_source(_read(sf, "documents"))
    q["dedup_exact"] = lambda sf: dedup.dedup_exact(_read(sf, "documents"))
    q["dedup_assign"] = lambda sf: dedup.dedup_assign(_read(sf, "documents"))
    q["dedup_norm"] = lambda sf: dedup.dedup_normalized(_read(sf, "documents"))
    q["dedup_minhash"] = lambda sf: dedup.dedup_minhash(_read(sf, "documents"))
    q["dedup_simhash"] = lambda sf: dedup.dedup_simhash(_read(sf, "documents"))
    q["dedup_clusters"] = lambda sf: dedup.dedup_clusters(_read(sf, "documents"))
    q["dedup_jaccard"] = lambda sf: dedup.dedup_jaccard(_read(sf, "documents"))
    q["dedup_by_source"] = lambda sf: dedup.dedup_stats_by_source(
        _read(sf, "documents"))
    q["dedup_containment"] = lambda sf: dedup.dedup_containment(
        _read(sf, "documents"), threshold=0.5)
    q["emb_neardup"] = lambda sf: dedup.embedding_neardup_pairs(_read(sf, "embeddings"), tau=0.5)
    q["emb_neardup_ivf"] = lambda sf: dedup.embedding_neardup_pairs_ivf(_read(sf, "embeddings"), tau=0.5)

    def emb_neardup_srp(sf):
        aug = _read(sf, "embeddings").map_batches(_plant_neardups,
                                                  batch_format="pyarrow")
        return dedup.embedding_neardup_srp(aug, tau=0.9)

    q["emb_neardup_srp"] = emb_neardup_srp

    def emb_clusters_srp(sf):
        # same planted-duplicate corpus as emb_neardup_srp (shared
        # _plant_neardups — the two rows-only checks are only meaningful
        # on the same corpus); component correctness asserted in tests
        aug = _read(sf, "embeddings").map_batches(_plant_neardups,
                                                  batch_format="pyarrow")
        return dedup.embedding_clusters_srp(aug, tau=0.9)

    q["emb_clusters_srp"] = emb_clusters_srp
    # SemDeDup: k-means clustering is iterative/non-SQL -> rows-only by
    # design; correctness pinned by planted-group exemplar tests
    q["emb_semdedup"] = lambda sf: dedup.semdedup(
        _read(sf, "embeddings"), tau=0.95, n_clusters=8)

    def emb_quantize(sf):
        return ann.quantize_embeddings(_read(sf, "embeddings")).drop_columns(["codes"])

    q["emb_quantize"] = emb_quantize
    # quantize -> dequantize: the int8 grid math end-to-end, hash-checked
    # against a pure-SQL evaluation (VERDICT r2 #6)
    q["emb_dequantize"] = lambda sf: ann.dequantize_embeddings(
        ann.quantize_embeddings(_read(sf, "embeddings")))
    q["emb_centroids"] = lambda sf: ann.label_centroids(_read(sf, "embeddings"))
    q["ann_topk"] = lambda sf: ann.ann_topk_bruteforce(_read(sf, "embeddings"), query_ids=list(range(5)), k=10)
    q["ann_topk_quantized"] = lambda sf: ann.ann_topk_quantized(
        _read(sf, "embeddings"), query_ids=list(range(5)), k=10)
    q["ann_ivf"] = lambda sf: ann.ann_topk_ivf(_read(sf, "embeddings"), query_ids=list(range(5)), k=10)
    # PQ-ADC: m-byte codes scanned via LUT sums, exact re-rank of the
    # survivors; rows-only (k-means codebooks are not SQL) — recall vs
    # exact + planted-dup rank asserted in test_operators
    q["ann_topk_pq"] = lambda sf: ann.ann_topk_pq(_read(sf, "embeddings"), query_ids=list(range(5)), k=10, m=8)

    def emb_ann_join(sf):
        """Cross-corpus exact top-k cosine join: every vec_id%10==7 vector
        against the rest of the corpus — left broadcast once, right
        streams, grouped top-k merge (never a full materialization)."""
        import pyarrow.compute as pc

        emb = _read(sf, "embeddings")

        def side(want: bool):
            def f(t):
                v = t["vec_id"]
                mod7 = pc.equal(pc.subtract(v, pc.multiply(
                    pc.divide(v, 10), 10)), 7)
                return t.filter(mod7 if want else pc.invert(mod7))
            return f

        left = emb.map_batches(side(True), batch_format="pyarrow")
        right = emb.map_batches(side(False), batch_format="pyarrow")
        return ann.ann_join(left, right, k=5)

    q["emb_ann_join"] = emb_ann_join

    def ann_ivf_indexed(sf):
        import numpy as np

        # cache key = content fingerprint of the embeddings table (size +
        # mtime), not just the dir basename — a regenerated dataset with
        # the same name must not serve a stale index (ADVICE r2)
        import hashlib

        src = os.path.join(sf, "embeddings.parquet")
        st = os.stat(src)
        # v2: index format version — v1 indexes were written through a
        # pandas stage whose files carry an ndarray extension dtype in
        # their pandas metadata (intermittent to_pandas failures on read)
        fp = hashlib.md5(f"v2:{st.st_size}:{st.st_mtime_ns}".encode()).hexdigest()[:12]
        tag = os.path.basename(os.path.normpath(sf)) or "sf"
        idx = os.path.join("/tmp", "phr_ivf", f"{tag}_{fp}")
        if not os.path.exists(os.path.join(idx, "centroids.json")):
            ann.ivf_build_index(_read(sf, "embeddings"), idx, n_clusters=8)
        import pyarrow.compute as pc

        qrows = (_read(sf, "embeddings")
                 .map_batches(lambda t: t.filter(pc.less(t["vec_id"], 5)),
                              batch_format="pyarrow")
                 .to_pandas().sort_values("vec_id"))
        return ann.ann_topk_ivf_indexed(
            idx, qrows["vec_id"].to_numpy(),
            np.stack(qrows["embedding"].to_numpy()), k=10, nprobe=4)

    q["ann_ivf_indexed"] = ann_ivf_indexed
    q["media_features"] = _media_features

    def media_real_decode(sf):
        # REAL decode path: deterministic synthetic PNG images + WAV audio
        # (stdlib-only codecs, stages/media_codecs.py), features computed
        # from actually-decoded pixels/samples — rows-only check here;
        # content equality vs direct decode is asserted in
        # tests/test_operators.py::test_media_stages_real_decode.
        import numpy as np
        import pyarrow as pa
        import ray.data

        from parquet_hs_ray.stages.media_codecs import encode_png, encode_wav
        from parquet_hs_ray.stages.multimodal import MediaFeatureStage

        rng = np.random.default_rng(42)
        payloads = [encode_png(rng.integers(0, 256, size=(24 + (i % 5), 16, 3),
                                            dtype=np.uint8)) for i in range(24)]
        payloads += [encode_wav((7000 * np.sin(np.arange(500 + 31 * i) / (2 + i)))
                                .astype(np.int16)[:, None], 16000) for i in range(24)]
        t = pa.table({"media_id": pa.array(range(len(payloads)), pa.int64()),
                      "payload": pa.array(payloads, pa.binary())})
        return ray.data.from_arrow(t).map_batches(
            MediaFeatureStage, fn_constructor_kwargs={"decode_real": True},
            batch_size=8, concurrency=2, num_cpus=1, batch_format="pyarrow")

    q["media_real_decode"] = media_real_decode

    def media_phash(sf):
        """Image near-dup via perceptual hashes: deterministic PNG corpus
        with planted exact + lightly-edited copies; actor-pool decode ->
        64-bit pHash -> the generic 4x16-bit signature banding.  Rows-only
        (pixel DCT is not SQL); planted recall / no-false-positive bounds
        are pytest-asserted in test_operators."""
        import numpy as np
        import pyarrow as pa
        import ray.data

        from parquet_hs_ray.stages.media_codecs import encode_png
        from parquet_hs_ray.stages.multimodal import image_phash_dedup

        rng = np.random.default_rng(7)
        imgs = [rng.integers(0, 256, size=(32 + (i % 7), 24, 3), dtype=np.uint8)
                for i in range(40)]
        ids, payloads = list(range(40)), [encode_png(im) for im in imgs]
        for i in range(8):  # planted copies: exact (even i) / edited (odd i)
            im = imgs[i].copy()
            if i % 2:
                im[:2, :2] ^= 255
            ids.append(1000 + i)
            payloads.append(encode_png(im))
        t = pa.table({"media_id": pa.array(ids, pa.int64()),
                      "payload": pa.array(payloads, pa.binary())})
        ds = ray.data.from_arrow(t)
        return image_phash_dedup(ds, max_hamming=3, concurrency=2,
                                 batch_size=16)

    q["media_phash_dedup"] = media_phash

    def media_audio_dedup(sf):
        """Audio near-dup via spectral fingerprints: deterministic WAV
        corpus with planted volume-scaled copies; actor-pool decode ->
        64-bit Haitsma-Kalker-style hash -> signature banding.  Rows-only
        (FFT is not SQL); invariance/recall pytest-asserted."""
        import numpy as np
        import pyarrow as pa
        import ray.data

        from parquet_hs_ray.stages.media_codecs import encode_wav
        from parquet_hs_ray.stages.multimodal import audio_fingerprint_dedup

        rng = np.random.default_rng(11)
        ids, payloads = [], []
        clips = []
        for i in range(30):
            t = np.arange(6000 + 100 * i)
            x = (8000 * np.sin(t / (2.0 + 0.37 * i))
                 + 3000 * np.sin(t / (11.0 + 0.51 * i))
                 + 300 * rng.normal(size=len(t)))
            clips.append(x)
            ids.append(i)
            payloads.append(encode_wav(x.astype(np.int16)[:, None], 16000))
        for i in range(6):  # planted: volume-scaled copies
            ids.append(1000 + i)
            payloads.append(encode_wav((clips[i] * 0.5).astype(np.int16)[:, None],
                                       16000))
        t = pa.table({"media_id": pa.array(ids, pa.int64()),
                      "payload": pa.array(payloads, pa.binary())})
        return audio_fingerprint_dedup(ray.data.from_arrow(t), max_hamming=3,
                                       concurrency=2, batch_size=12)

    q["media_audio_dedup"] = media_audio_dedup
    from parquet_hs_ray.pipelines import windows as win

    def events_asof(sf):
        import pyarrow.compute as pc

        from parquet_hs_ray.pipelines.joins import asof_join

        ev = _read(sf, "events", ["user_id", "ts", "event_type",
                                  "event_id", "value"])
        left = ev.map_batches(
            lambda t: t.filter(pc.equal(t["event_type"], "purchase")),
            batch_format="pyarrow")
        right = ev.map_batches(
            lambda t: t.filter(pc.equal(t["event_type"], "click")),
            batch_format="pyarrow")
        return asof_join(left, right, key="user_id", ts="ts",
                         left_cols=("event_id",),
                         right_cols=("event_id", "value"))

    q["events_asof"] = events_asof

    def events_range_join(sf):
        import pyarrow.compute as pc

        from parquet_hs_ray.pipelines.joins import range_join

        ev = _read(sf, "events", ["user_id", "ts", "event_type",
                                  "event_id"])
        left = ev.map_batches(
            lambda t: t.filter(pc.equal(t["event_type"], "purchase")),
            batch_format="pyarrow")
        right = ev.map_batches(
            lambda t: t.filter(pc.equal(t["event_type"], "click")),
            batch_format="pyarrow")
        return range_join(left, right, key="user_id", ts="ts",
                          window_us=7_200_000_000,
                          left_cols=("event_id",), right_cols=("event_id",))

    q["events_range_join"] = events_range_join
    _EV_ROLL = ["user_id", "ts", "event_id", "value"]
    q["events_rolling"] = lambda sf: win.rolling_mean(
        _read(sf, "events", _EV_ROLL), k=3)
    q["events_rolling_z"] = lambda sf: win.rolling_stats(
        _read(sf, "events", _EV_ROLL), k=5)
    q["events_transitions"] = lambda sf: win.event_transitions(
        _read(sf, "events", ["user_id", "ts", "event_id", "event_type"]))
    q["events_retention"] = lambda sf: win.retention_cohorts(
        _read(sf, "events", ["user_id", "ts"]))
    q["events_monthly"] = lambda sf: win.calendar_rollup(
        _read(sf, "events", ["ts", "event_type", "value"]), unit="month")
    q["events_funnel"] = lambda sf: win.funnel(
        _read(sf, "events", ["user_id", "event_type", "ts"]),
        ["view", "click", "purchase"])
    q["events_window"] = lambda sf: win.tumbling_window(
        _read(sf, "events", ["user_id", "ts", "value"]))
    q["events_sessions"] = lambda sf: win.sessionize(
        _read(sf, "events", ["user_id", "ts"]))
    q["events_hopping"] = lambda sf: win.hopping_window(
        _read(sf, "events", ["user_id", "ts", "value"]))

    def golden_parquet_decode(sf):
        # reference-parity path: the reference's committed golden file
        # decoded through OUR page/level/value kernels, hash-checked
        # against DuckDB's independent parquet reader. Top-level null
        # lists are normalized to [] on BOTH sides (None-vs-nan renders
        # differently across pandas converters); true null preservation
        # is asserted bit-exact vs pyarrow in tests/test_format.py.
        import pandas as pd

        from parquet_hs_ray.sources.parquet_pages import read_parquet_via_kernels

        t = read_parquet_via_kernels("/root/reference/tests/integration/test.parquet")
        cols = {}
        for name in t.column_names:
            vals = [v if v is not None else [] for v in t[name].to_pylist()]
            if name == "f1":
                # f1 is list<list<int64>>: represent losslessly as flat
                # values + inner lengths (1-level lists hash everywhere;
                # ragged nested lists don't)
                cols["f1_flat"] = [[x for sub in v for x in (sub or [])] for v in vals]
                cols["f1_lens"] = [[len(sub or []) for sub in v] for v in vals]
            else:
                cols[name] = vals
        return pd.DataFrame(cols)

    q["golden_parquet_decode"] = golden_parquet_decode

    def nested_kernel_decode(sf):
        # general Dremel assembly, driver-gradeable: build a nested
        # parquet (struct + list<struct> + map, with null structs,
        # snappy + dictionary pages) deterministically from the nation
        # table, decode it through OUR page kernels, flatten, and
        # hash-check the flattened values against DuckDB computing the
        # same derivation relationally from the original table.
        import os
        import tempfile

        import pandas as pd
        import pyarrow as pa
        import pyarrow.parquet as pq

        from parquet_hs_ray.sources.parquet_pages import read_parquet_via_kernels

        nat = pq.read_table(os.path.join(sf, "nation.parquet"),
                            columns=["n_nationkey", "n_name", "n_regionkey"])
        key = nat["n_nationkey"].to_pylist()
        nm = nat["n_name"].to_pylist()
        rk = nat["n_regionkey"].to_pylist()
        srows = [None if k % 7 == 3 else {"name": nm[i], "region": int(rk[i])}
                 for i, k in enumerate(key)]
        lsrows = [[{"k": int(k), "v": j} for j in range(k % 3)] for k in key]
        mrows = [dict([("r", int(rk[i]))] + ([("k", int(k))] if k % 2 == 0 else []))
                 for i, k in enumerate(key)]
        t = pa.table({
            "n_nationkey": nat["n_nationkey"].cast(pa.int64()),
            "s": pa.array(srows, pa.struct([("name", pa.string()),
                                            ("region", pa.int64())])),
            "ls": pa.array(lsrows, pa.list_(pa.struct([("k", pa.int64()),
                                                       ("v", pa.int64())]))),
            "m": pa.array(mrows, pa.map_(pa.string(), pa.int64())),
        })
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "nested.parquet")
            pq.write_table(t, path, compression="snappy", use_dictionary=True)
            out = read_parquet_via_kernels(path)
        s = out["s"].to_pylist()
        ls = out["ls"].to_pylist()
        m = [dict(kv) for kv in out["m"].to_pylist()]
        return pd.DataFrame({
            "n_nationkey": out["n_nationkey"].to_pylist(),
            "s_name": ["" if v is None else v["name"] for v in s],
            "s_region": [-1 if v is None else v["region"] for v in s],
            "ls_n": [len(v) for v in ls],
            "ls_k_sum": [sum(e["k"] for e in v) for v in ls],
            "m_r": [v["r"] for v in m],
            "m_n": [len(v) for v in m],
        })

    q["nested_kernel_decode"] = nested_kernel_decode

    def kernel_writer_roundtrip(sf):
        # the kernel parquet WRITER, driver-gradeable with an INDEPENDENT
        # reader in the loop: write the embeddings table (int64 + int32 +
        # list<float32>, snappy) as standard parquet through OUR thrift/
        # level/value kernels, read it back with DuckDB, and hash-check
        # against DuckDB reading the original file.
        import os
        import tempfile

        import duckdb
        import pyarrow.parquet as pq

        from parquet_hs_ray.sources.parquet_writer import write_parquet_via_kernels

        t = pq.read_table(os.path.join(sf, "embeddings.parquet"))
        t = t.replace_schema_metadata(None)
        with tempfile.TemporaryDirectory() as d:
            p = os.path.join(d, "emb.parquet")
            write_parquet_via_kernels(t, p, compression="SNAPPY")
            out = duckdb.sql(
                f"SELECT vec_id, embedding, label FROM read_parquet('{p}')"
            ).arrow()
        return out

    q["kernel_writer_roundtrip"] = kernel_writer_roundtrip

    def kernel_sink_roundtrip(sf):
        # the DISTRIBUTED kernel-parquet sink: stream the events table
        # (ints + strings + double + timestamp[us]) through
        # Dataset.write_datasink over our write kernels (one atomically-
        # written file per write task + committed manifest), then read
        # the directory back with DuckDB and hash-check against DuckDB
        # reading the original file.
        import os
        import tempfile

        import duckdb
        import ray

        from parquet_hs_ray.sources.kernel_sink import (
            read_sink_manifest, write_parquet_kernels)

        ds = _rp(
            os.path.join(sf, "events.parquet")).repartition(4)
        with tempfile.TemporaryDirectory() as d:
            out = os.path.join(d, "sink")
            m = write_parquet_kernels(ds, out, compression="SNAPPY")
            assert m == read_sink_manifest(out)
            res = duckdb.sql(
                "SELECT event_id, ts, user_id, event_type, value, props"
                f" FROM read_parquet('{out}/*.parquet') ORDER BY event_id"
            ).arrow()
        return res

    q["kernel_sink_roundtrip"] = kernel_sink_roundtrip

    def kernel_roundtrip_lz4(sf):
        # BOTH parquet LZ4 variants through our write kernels: LZ4_RAW
        # (codec id 7) written by us and read back by DuckDB (the
        # independent reader — duckdb supports lz4_raw), and the
        # deprecated Hadoop-framed LZ4 (id 5, which DuckDB rejects)
        # written by us and read back by our OWN page kernels, asserted
        # equal to the source before returning the DuckDB-read result.
        import os
        import tempfile

        import duckdb
        import pyarrow.parquet as pq

        from parquet_hs_ray.sources.parquet_pages import read_parquet_via_kernels
        from parquet_hs_ray.sources.parquet_writer import write_parquet_via_kernels

        t = pq.read_table(os.path.join(sf, "part.parquet"))
        t = t.replace_schema_metadata(None)
        with tempfile.TemporaryDirectory() as d:
            p5 = os.path.join(d, "part_lz4.parquet")
            write_parquet_via_kernels(t, p5, compression="LZ4")
            assert read_parquet_via_kernels(p5).equals(
                t.combine_chunks())
            p7 = os.path.join(d, "part_lz4raw.parquet")
            write_parquet_via_kernels(t, p7, compression="LZ4_RAW")
            out = duckdb.sql(
                "SELECT p_partkey, p_name, p_brand, p_size, p_retailprice"
                f" FROM read_parquet('{p7}') ORDER BY p_partkey"
            ).arrow()
        return out

    q["kernel_roundtrip_lz4"] = kernel_roundtrip_lz4

    def kernel_read_dataset(sf):
        # the DISTRIBUTED kernel READ path: kernel-sink a table, then
        # read the directory back as a ray.data.Dataset decoded by OUR
        # footer/page/level/assembly kernels (one read task per CPU
        # slot) with column-chunk pruning. Fully self-hosted IO both
        # directions.
        import os
        import tempfile

        import pyarrow as pa
        import ray

        from parquet_hs_ray.sources.kernel_sink import (
            read_parquet_kernels, write_parquet_kernels)

        ds = _rp(
            os.path.join(sf, "events.parquet")).repartition(4)
        with tempfile.TemporaryDirectory() as d:
            out = os.path.join(d, "sink")
            write_parquet_kernels(ds, out, compression="SNAPPY",
                                  encodings="auto", page_version="2.0")
            back = read_parquet_kernels(
                out, columns=["event_id", "user_id", "event_type"])
            t = pa.concat_tables(
                [ray.get(r) for r in back.to_arrow_refs()])
        return t.sort_by([("event_id", "ascending")])

    q["kernel_read_dataset"] = kernel_read_dataset

    def kernel_read_pruned(sf):
        # predicate pushdown on the kernel read path: the writer's
        # chunk statistics prune row groups at the footer, the exact
        # filter applies to survivors — pushdown as pruning, not as
        # semantics.
        import os
        import tempfile

        import pyarrow as pa
        import ray

        from parquet_hs_ray.sources.kernel_sink import (
            read_parquet_kernels, write_parquet_kernels)

        ds = _rp(
            os.path.join(sf, "lineitem.parquet")).sort(
                "l_orderkey").repartition(4)
        with tempfile.TemporaryDirectory() as d:
            out = os.path.join(d, "sink")
            write_parquet_kernels(ds, out, compression="SNAPPY",
                                  encodings="auto", row_group_size=2000)
            back = read_parquet_kernels(
                out, columns=["l_orderkey", "l_linenumber",
                              "l_quantity"],
                predicate=[("l_orderkey", "<=", 4000),
                           ("l_linenumber", ">", 1)])
            t = pa.concat_tables(
                [ray.get(r) for r in back.to_arrow_refs()])
        return t.sort_by([("l_orderkey", "ascending"),
                          ("l_linenumber", "ascending")])

    q["kernel_read_pruned"] = kernel_read_pruned

    def kernel_read_pruned_kernels(sf):
        # the same pruned distributed read as kernel_read_pruned: OUR
        # thrift footer parser supplies the chunk Statistics
        # (min_value/max_value, parquet_footer.py — the struct the
        # reference models at Types/Primitives.hs:79-87), so row-group
        # pruning, footer, pages, levels, values and assembly are ALL
        # self-hosted — zero pyarrow anywhere on the pruned read.
        import os
        import tempfile

        import pyarrow as pa
        import ray

        from parquet_hs_ray.sources.kernel_sink import (
            read_parquet_kernels, write_parquet_kernels)

        ds = _rp(
            os.path.join(sf, "lineitem.parquet")).sort(
                "l_orderkey").repartition(4)
        with tempfile.TemporaryDirectory() as d:
            out = os.path.join(d, "sink")
            write_parquet_kernels(ds, out, compression="SNAPPY",
                                  encodings="auto", row_group_size=2000)
            back = read_parquet_kernels(
                out, columns=["l_orderkey", "l_linenumber",
                              "l_quantity"],
                predicate=[("l_orderkey", "<=", 4000),
                           ("l_linenumber", ">", 1)])
            t = pa.concat_tables(
                [ray.get(r) for r in back.to_arrow_refs()])
        return t.sort_by([("l_orderkey", "ascending"),
                          ("l_linenumber", "ascending")])

    q["kernel_read_pruned_kernels"] = kernel_read_pruned_kernels

    def kernel_read_page_pruned(sf):
        # PAGE-granular pruning (parquet-format PageIndex.md; the
        # reference parses the same ColumnChunk index offsets,
        # Types/ColumnChunk.hs:19-30): the kernel writer paginates
        # flat chunks (data_page_rows) and emits ColumnIndex /
        # OffsetIndex; the distributed read prunes to page-level row
        # ranges inside each surviving row group and decodes ONLY the
        # overlapping pages — fully self-hosted end to end.
        import os
        import tempfile

        import pyarrow as pa
        import ray

        from parquet_hs_ray.sources.kernel_sink import (
            read_parquet_kernels, write_parquet_kernels)

        ds = _rp(
            os.path.join(sf, "lineitem.parquet")).sort(
                "l_orderkey").repartition(2)
        with tempfile.TemporaryDirectory() as d:
            out = os.path.join(d, "sink")
            write_parquet_kernels(ds, out, compression="SNAPPY",
                                  row_group_size=1 << 20,
                                  data_page_rows=512)
            back = read_parquet_kernels(
                out, columns=["l_orderkey", "l_linenumber",
                              "l_quantity"],
                predicate=[("l_orderkey", "<=", 4000),
                           ("l_linenumber", ">", 1)])
            t = pa.concat_tables(
                [ray.get(r) for r in back.to_arrow_refs()])
        return t.sort_by([("l_orderkey", "ascending"),
                          ("l_linenumber", "ascending")])

    q["kernel_read_page_pruned"] = kernel_read_page_pruned

    def kernel_read_bloom_pruned(sf):
        # Split-block BLOOM pruning (parquet-format BloomFilter.md,
        # sources/bloom.py): a point lookup on an UNSORTED
        # high-cardinality column (l_partkey — every row group spans
        # nearly the full key range, so min/max statistics prune
        # nothing) — the kernel sink writes per-chunk XXH64
        # split-block filters and the distributed read probes them,
        # decoding only row groups whose filter admits the value.  The
        # probe is data-derived (the smallest partkey within the
        # smallest order — a unique, sf-independent choice; linenumbers
        # in the testdata are not sequential, so "linenumber 1 of the
        # first order" would not exist at every sf).
        import os
        import tempfile

        import pyarrow as pa
        import pyarrow.compute as pc
        import pyarrow.parquet as pq
        import ray

        from parquet_hs_ray.sources.kernel_sink import (
            read_parquet_kernels, write_parquet_kernels)

        src = os.path.join(sf, "lineitem.parquet")
        head = pq.read_table(src, columns=["l_orderkey", "l_partkey"])
        min_ok = pc.min(head["l_orderkey"]).as_py()
        first = head.filter(pc.equal(head["l_orderkey"], min_ok))
        probe = pc.min(first["l_partkey"]).as_py()
        ds = _rp(src)
        with tempfile.TemporaryDirectory() as d:
            out = os.path.join(d, "sink")
            write_parquet_kernels(ds, out, compression="SNAPPY",
                                  row_group_size=2000,
                                  bloom_filters=["l_partkey"])
            back = read_parquet_kernels(
                out, columns=["l_orderkey", "l_linenumber", "l_partkey"],
                predicate=("l_partkey", "==", probe))
            t = pa.concat_tables(
                [ray.get(r) for r in back.to_arrow_refs()])
        return t.sort_by([("l_orderkey", "ascending"),
                          ("l_linenumber", "ascending")])

    q["kernel_read_bloom_pruned"] = kernel_read_bloom_pruned

    def kernel_read_in_pruned(sf):
        # the 'in' predicate end to end: stats keep row groups where
        # ANY member may land in [min,max], bloom keeps those whose
        # filter admits a member, dictionary-membership keeps those
        # whose dict holds one, then pc.is_in filters exactly.  Probes
        # are data-derived (smallest partkey within the smallest and
        # largest orders).
        import os
        import tempfile

        import pyarrow as pa
        import pyarrow.compute as pc
        import pyarrow.parquet as pq
        import ray

        from parquet_hs_ray.sources.kernel_sink import (
            read_parquet_kernels, write_parquet_kernels)

        src = os.path.join(sf, "lineitem.parquet")
        head = pq.read_table(src, columns=["l_orderkey", "l_partkey"])
        lo_ok = pc.min(head["l_orderkey"]).as_py()
        hi_ok = pc.max(head["l_orderkey"]).as_py()
        probes = sorted({
            pc.min(head.filter(pc.equal(head["l_orderkey"], lo_ok))
                   ["l_partkey"]).as_py(),
            pc.min(head.filter(pc.equal(head["l_orderkey"], hi_ok))
                   ["l_partkey"]).as_py()})
        ds = _rp(src)
        with tempfile.TemporaryDirectory() as d:
            out = os.path.join(d, "sink")
            write_parquet_kernels(ds, out, compression="SNAPPY",
                                  row_group_size=2000,
                                  bloom_filters=["l_partkey"])
            back = read_parquet_kernels(
                out, columns=["l_orderkey", "l_linenumber", "l_partkey"],
                predicate=("l_partkey", "in", probes))
            t = pa.concat_tables(
                [ray.get(r) for r in back.to_arrow_refs()])
        return t.sort_by([("l_orderkey", "ascending"),
                          ("l_linenumber", "ascending")])

    q["kernel_read_in_pruned"] = kernel_read_in_pruned

    def kernel_footer_decode(sf):
        # the FULLY self-hosted read: footer (thrift compact
        # FileMetaData, schema tree, leaf rep/def levels), pages,
        # levels, values and record assembly are ALL our kernels — no
        # pyarrow metadata anywhere (parquet_footer.py; the reference's
        # readMetadata + calcMaxEncodingLevels, Reader.hs:197-213,
        # Stream/Reader.hs:286-306).
        import os

        from parquet_hs_ray.sources.parquet_pages import (
            read_parquet_via_kernels)

        t = read_parquet_via_kernels(
            os.path.join(sf, "orders.parquet"),
            columns=["o_orderkey", "o_custkey", "o_orderstatus",
                     "o_orderdate"])
        return t.sort_by([("o_orderkey", "ascending")])

    q["kernel_footer_decode"] = kernel_footer_decode

    from parquet_hs_ray.pipelines import cleaning
    from parquet_hs_ray.pipelines import stats as pstats

    q["doc_scrub"] = lambda sf: cleaning.scrub_patterns(
        _read(sf, "documents"), _SCRUB_RULES)
    q["doc_line_dedup"] = lambda sf: cleaning.line_dedup(
        _read(sf, "documents"), words_per_line=10)
    q["doc_repetition"] = lambda sf: cleaning.repetition_stats(
        _read(sf, "documents"), ngram=2)
    q["doc_span_dedup"] = lambda sf: cleaning.span_dedup(
        _read(sf, "documents"), window=5)
    q["doc_span_rewrite"] = lambda sf: cleaning.span_dedup_rewrite(
        _read(sf, "documents"), window=5)

    def doc_tokenize(sf):
        from parquet_hs_ray.pipelines.tokenize import tokenize_corpus

        # vocab 64 on this corpus leaves a real OOV tail to exercise
        return tokenize_corpus(_read(sf, "documents"), vocab_size=64)

    q["doc_tokenize"] = doc_tokenize

    def doc_train_bpe(sf):
        from parquet_hs_ray.pipelines.tokenize import train_bpe

        # iterative merge training: rows-only by nature (no SQL twin);
        # bit-exact parity with an in-memory reference trainer is
        # asserted in tests/test_tokenize.py
        return train_bpe(_read(sf, "documents"), n_merges=16, min_count=2)

    q["doc_train_bpe"] = doc_train_bpe

    def doc_vocab_coverage(sf):
        from parquet_hs_ray.pipelines.tokenize import vocab_coverage

        return vocab_coverage(_read(sf, "documents"), sizes=[8, 32, 128])

    q["doc_vocab_coverage"] = doc_vocab_coverage

    def doc_bpe_encode(sf):
        from parquet_hs_ray.pipelines.tokenize import bpe_encode, train_bpe

        docs = _read(sf, "documents")
        # train -> encode closure; rows-only (iterative merge application);
        # invertibility asserted in tests/test_tokenize.py
        return bpe_encode(docs, train_bpe(docs, n_merges=16, min_count=2))

    q["doc_bpe_encode"] = doc_bpe_encode

    def token_freq(sf):
        from parquet_hs_ray.pipelines.tokenize import token_frequencies, tokenize_corpus

        return token_frequencies(
            tokenize_corpus(_read(sf, "documents"), vocab_size=64))

    q["token_freq"] = token_freq

    def token_remap(sf):
        # vocabulary compaction over the native pre-tokenized table:
        # re-id every token to its global frequency rank
        import ray.data

        from parquet_hs_ray.pipelines.tokenize import remap_tokens_by_frequency

        src, _ = _f1_out_dir(sf)
        return remap_tokens_by_frequency(_rp(src))

    q["token_remap"] = token_remap

    def _f1_raw(sf):
        import ray.data

        src, _ = _f1_out_dir(sf)
        return _rp(src)

    # training-prep family over the native pre-tokenized table
    def token_mask_mlm(sf):
        from parquet_hs_ray.pipelines.trainprep import mask_tokens_mlm

        return mask_tokens_mlm(_f1_raw(sf), mask_id=50_000, rate_pct=15,
                               seed=1)

    def token_shift_labels(sf):
        from parquet_hs_ray.pipelines.trainprep import shift_labels

        return shift_labels(_f1_raw(sf))

    def token_truncate(sf):
        from parquet_hs_ray.pipelines.trainprep import truncate_sequences

        return truncate_sequences(_f1_raw(sf), max_len=128)

    def _f1_with_dk(sf):
        # dk = the numeric doc-id suffix as int64: the per-doc hash key
        # the key-deterministic transforms share with _DK_EXPR in SQL
        import pyarrow as pa
        import pyarrow.compute as pc

        def add_dk(t):
            dk = pc.cast(pc.utf8_slice_codeunits(t["doc_id"], 4, 1 << 30),
                         pa.int64())
            return t.append_column("dk", dk)

        return _f1_raw(sf).map_batches(add_dk, batch_format="pyarrow")

    def token_span_rewrite(sf):
        # ExactSubstr removal on the native token table: dk = the
        # global order key for "first occurrence"
        from parquet_hs_ray.pipelines.cleaning import span_dedup_rewrite_tokens

        return span_dedup_rewrite_tokens(_f1_with_dk(sf), window=5)

    q["token_span_rewrite"] = token_span_rewrite
    q["token_repetition"] = lambda sf: cleaning.repetition_stats_tokens(
        _f1_raw(sf), ngram=3)
    q["token_dedup_exact"] = lambda sf: dedup.dedup_exact_tokens(_f1_raw(sf))

    def token_bigram_surprisal(sf):
        from parquet_hs_ray.pipelines.tokenize import bigram_surprisal_tokens

        return bigram_surprisal_tokens(_f1_raw(sf))

    q["token_bigram_surprisal"] = token_bigram_surprisal
    q["token_budget_mix"] = lambda sf: ta.token_budget_mix(
        _f1_raw(sf), total_tokens=2_000_000, alpha=0.5)
    q["token_mask_mlm"] = token_mask_mlm
    q["token_shift_labels"] = token_shift_labels
    q["token_truncate"] = token_truncate

    def token_fim(sf):
        from parquet_hs_ray.pipelines.trainprep import fim_transform

        return fim_transform(_f1_raw(sf), rate_pct=50)

    q["token_fim"] = token_fim

    def token_span_corrupt(sf):
        from parquet_hs_ray.pipelines.trainprep import span_corrupt

        return span_corrupt(_f1_with_dk(sf), span_len=3, rate_pct=15)

    q["token_span_corrupt"] = token_span_corrupt

    def token_chunk(sf):
        from parquet_hs_ray.pipelines.trainprep import chunk_sequences

        return chunk_sequences(_f1_raw(sf), max_len=96, stride=64)

    q["token_chunk"] = token_chunk

    def token_ngram_novelty(sf):
        from parquet_hs_ray.pipelines.cleaning import ngram_novelty_tokens

        return ngram_novelty_tokens(_f1_raw(sf), ngram=3, common_df=2)

    q["token_ngram_novelty"] = token_ngram_novelty

    def token_ul2(sf):
        from parquet_hs_ray.pipelines.trainprep import ul2_mixture

        return ul2_mixture(_f1_with_dk(sf))

    q["token_ul2"] = token_ul2

    def doc_decontaminate(sf):
        docs = _read(sf, "documents")
        bench = docs.map_batches(lambda b: b[b["doc_id"] % 17 == 0],
                                 batch_format="pandas")
        corpus = docs.map_batches(lambda b: b[b["doc_id"] % 17 != 0],
                                  batch_format="pandas")
        return cleaning.decontaminate(corpus, bench, ngram=3)

    q["doc_decontaminate"] = doc_decontaminate

    def doc_decontaminate_bloom(sf):
        # approximate twin: fixed-size Bloom bitset broadcast instead of
        # the exact sorted shingle set; one-sided error (rows-only by
        # nature; superset property + FP bound asserted in tests)
        docs = _read(sf, "documents")
        bench = docs.map_batches(lambda b: b[b["doc_id"] % 17 == 0],
                                 batch_format="pandas")
        corpus = docs.map_batches(lambda b: b[b["doc_id"] % 17 != 0],
                                  batch_format="pandas")
        return cleaning.decontaminate_bloom(corpus, bench, ngram=3)

    q["doc_decontaminate_bloom"] = doc_decontaminate_bloom

    def doc_corpus_overlap(sf):
        docs = _read(sf, "documents")
        half_a = docs.map_batches(lambda b: b[b["doc_id"] % 17 == 0],
                                  batch_format="pandas")
        half_b = docs.map_batches(lambda b: b[b["doc_id"] % 17 != 0],
                                  batch_format="pandas")
        return cleaning.corpus_overlap(half_a, half_b, ngram=3)

    q["doc_corpus_overlap"] = doc_corpus_overlap
    # correlation of the value column vs the props-JSON k field per type:
    # composes extract_json_field -> grouped_corr (both individually
    # oracled; the composition is too)
    q["events_corr"] = lambda sf: pstats.grouped_corr(
        cleaning.extract_json_field(
            _read(sf, "events", ["props", "event_type", "value"]),
            "props", "k", as_int=True, id_cols=["event_type", "value"]),
        "event_type", "value", "k", x_scale=100, y_scale=1)
    q["source_profile"] = lambda sf: pstats.source_quality_profile(
        _read(sf, "documents"))
    q["events_balance"] = lambda sf: pstats.category_balance(
        _read(sf, "events", ["user_id", "event_type"]),
        "user_id", "event_type")
    q["events_stddev"] = lambda sf: pstats.grouped_stddev(
        _read(sf, "events", ["event_type", "value"]),
        "event_type", "value")
    q["events_target_enc"] = lambda sf: pstats.target_encode(
        _read(sf, "events", ["event_id", "event_type", "value"]),
        "event_type", "value", id_cols=["event_id", "event_type"])
    q["events_pct_rank"] = lambda sf: pstats.percent_rank(
        _read(sf, "events", ["event_id", "value"]),
        "value", id_cols=["event_id"])
    q["events_cume_dist"] = lambda sf: pstats.cume_dist(
        _read(sf, "events", ["event_id", "value"]),
        "value", id_cols=["event_id"])
    # full-width read by contract: the oracle is SELECT e.* (the filter
    # keeps every column)
    q["events_outliers"] = lambda sf: pstats.iqr_outlier_filter(
        _read(sf, "events"), "event_type", "value")
    q["events_props_k"] = lambda sf: cleaning.extract_json_field(
        _read(sf, "events", ["props", "event_id"]), "props", "k",
        as_int=True, id_cols=["event_id"])
    q["events_quantiles"] = lambda sf: pstats.grouped_quantiles(
        _read(sf, "events", ["event_type", "value"]),
        "event_type", "value", (0.5, 0.95))
    q["events_histogram"] = lambda sf: pstats.grouped_histogram(
        _read(sf, "events", ["event_type", "value"]),
        "event_type", "value", 10.0)
    q["events_user_ndv"] = lambda sf: pstats.grouped_distinct_count(
        _read(sf, "events", ["event_type", "user_id"]),
        "event_type", "user_id")
    # approximate twin (HyperLogLog) — but the sketch is DETERMINISTIC,
    # so its SQL twin replays the splitmix64 register plane + estimator
    # exactly (promoted from rows-only in r5); accuracy vs the exact
    # path is additionally asserted in tests
    q["events_user_ndv_hll"] = lambda sf: pstats.grouped_ndv_hll(
        _read(sf, "events", ["event_type", "user_id"]),
        "event_type", "user_id")
    # approximate twin (bottom-k/KMV sample): no SQL oracle by nature;
    # accuracy + layout-independence asserted in tests
    q["events_quantiles_kmv"] = lambda sf: pstats.grouped_quantile_sketch(
        _read(sf, "events", ["event_type", "value", "event_id"]),
        "event_type", "value", "event_id", (0.5, 0.95), k=1024)
    q["doc_top_chars"] = lambda sf: pstats.top_k_global(
        _read(sf, "documents", ["doc_id", "n_chars"]), "n_chars", 20,
        "doc_id", columns=["doc_id", "n_chars"])
    q["lineitem_profile"] = lambda sf: pstats.column_profile(
        _read(sf, "lineitem",
              ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]),
        ["l_quantity", "l_extendedprice", "l_discount", "l_tax"])

    from parquet_hs_ray.pipelines import relational as rel

    def lineitem_bloom_semi(sf):
        import pyarrow.compute as pc

        sel = _read(sf, "part", ["p_partkey", "p_size"]).map_batches(
            lambda t: t.filter(pc.equal(t["p_size"], 1)),
            batch_format="pyarrow")
        return rel.bloom_semi_join(_read(sf, "lineitem"), sel,
                                   "l_partkey", "p_partkey")

    q["lineitem_bloom_semi"] = lineitem_bloom_semi
    def lineitem_layout_advice(sf):
        # row-layout advisor report (rows-only: byte sizes of trial
        # encodes are not SQL-expressible); the chosen order must shrink
        # the full-table encode — asserted in tests/test_format.py
        import pandas as pd
        import pyarrow.parquet as pq

        from parquet_hs_ray.selector import advise_sort_order

        t = pq.read_table(os.path.join(sf, "lineitem.parquet"))
        keys, report = advise_sort_order(t)
        rows = sorted(report.items(), key=lambda kv: (kv[1], len(kv[0])))
        return pd.DataFrame({
            "sort_keys": [",".join(k) if k else "<identity>" for k, _ in rows],
            "sampled_bytes": [v for _, v in rows],
            "chosen": [list(k) == keys for k, _ in rows],
        })

    q["lineitem_layout_advice"] = lineitem_layout_advice
    q["lineitem_part_join"] = lambda sf: rel.broadcast_join(
        _read(sf, "lineitem"),
        _read(sf, "part", ["p_partkey", "p_brand", "p_retailprice"]),
        "l_partkey", "p_partkey", how="inner",
        right_cols=["p_brand", "p_retailprice"])

    def doc_denylist(sf):
        docs = _read(sf, "documents")
        deny = docs.map_batches(lambda b: b[b["doc_id"] % 13 == 0][["doc_id"]],
                                batch_format="pandas")
        return rel.broadcast_join(docs, deny, "doc_id", "doc_id", how="anti")

    q["doc_denylist"] = doc_denylist
    q["orders_top_per_cust"] = lambda sf: rel.top_n_per_group(
        _read(sf, "orders", ["o_custkey", "o_orderkey", "o_totalprice"]),
        "o_custkey", "o_totalprice", 3, "o_orderkey",
        columns=["o_custkey", "o_orderkey", "o_totalprice"])
    q["doc_len_filter"] = lambda sf: rel.filter_by_percentile(
        _read(sf, "documents"), "n_chars", 0.8, keep="above")
    q["doc_chunks"] = lambda sf: cleaning.chunk_documents(
        _read(sf, "documents"), max_words=40, overlap=8)
    q["events_running"] = lambda sf: win.running_totals(
        _read(sf, "events", ["user_id", "ts", "event_id", "value"]))
    q["events_pivot"] = lambda sf: pstats.pivot_sum(
        _read(sf, "events", ["user_id", "event_type", "value"]),
        "user_id", "event_type", "value", _EVENT_TYPES)
    q["top_bigrams"] = lambda sf: ta.top_ngrams(
        _read(sf, "documents", ["text"]), n=2, k=30)
    q["doc_shuffle"] = lambda sf: ta.deterministic_shuffle(
        _read(sf, "documents"), "doc_id", seed=42)
    q["orders_customer_join"] = lambda sf: rel.hash_join(
        _read(sf, "orders"), _read(sf, "customer"), "o_custkey", "c_custkey")
    q["events_gaps"] = lambda sf: win.event_gaps(
        _read(sf, "events", ["user_id", "ts", "event_id"]))
    q["events_ntile"] = lambda sf: pstats.ntile_bucket(
        _read(sf, "events", ["event_id", "value"]), "value", 8, "event_id")
    q["events_mode"] = lambda sf: pstats.grouped_mode(
        _read(sf, "events", ["event_type", "user_id"]),
        "event_type", "user_id")
    q["doc_sample_per_source"] = lambda sf: rel.sample_n_per_group(
        _read(sf, "documents", ["doc_id", "source"]), "source", 20,
        "doc_id", seed=42, columns=["doc_id", "source"])

    def emb_pca(sf):
        proj, _ = ann.embedding_pca(_read(sf, "embeddings"), k=4)
        return proj

    q["emb_pca"] = emb_pca

    def corpus_pipeline(sf):
        from parquet_hs_ray.pipelines.recipes import clean_corpus

        docs = _read(sf, "documents")
        deny = docs.map_batches(lambda b: b[b["doc_id"] % 13 == 0][["doc_id"]],
                                batch_format="pandas")
        return clean_corpus(docs, deny, quality_q=0.5)

    q["corpus_pipeline"] = corpus_pipeline

    def corpus_curate_v2(sf):
        from parquet_hs_ray.pipelines.recipes import curate_by_surprisal

        return curate_by_surprisal(_read(sf, "documents"),
                                   lo_milli=4015, hi_milli=4060)

    q["corpus_curate_v2"] = corpus_curate_v2

    def top_revenue(sf):
        from parquet_hs_ray.pipelines.recipes import top_revenue_orders

        return top_revenue_orders(
            _read(sf, "lineitem",
                  ["l_orderkey", "l_shipdate", "l_extendedprice",
                   "l_discount"]),
            _read(sf, "orders",
                  ["o_orderkey", "o_custkey", "o_orderdate",
                   "o_orderpriority"]),
            _read(sf, "customer", ["c_custkey", "c_mktsegment"]))

    q["tpch_q3_top_revenue"] = top_revenue

    def q1_pricing(sf):
        from parquet_hs_ray.pipelines.recipes import pricing_summary

        return pricing_summary(_read(sf, "lineitem", [
            "l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
            "l_discount", "l_tax", "l_shipdate"]))

    q["tpch_q1_pricing"] = q1_pricing

    def rollup_pricing(sf):
        """SQL ROLLUP over (l_returnflag, l_linestatus): the Q1 sums at
        every prefix granularity plus the grand total, NULL-keyed rolled
        levels and a GROUPING() bitmask — input scanned once, coarser
        levels re-aggregate the finest result (groupagg.rollup_sum)."""
        import numpy as np
        import pandas as pd

        from parquet_hs_ray.pipelines.groupagg import rollup_sum

        def part(b: "pd.DataFrame") -> "pd.DataFrame":
            p = pd.DataFrame({
                "l_returnflag": b["l_returnflag"].to_numpy(),
                "l_linestatus": b["l_linestatus"].to_numpy(),
                "sum_qty_c": np.round(b["l_quantity"].to_numpy() * 100
                                      ).astype(np.int64),
                "sum_base_c": np.round(b["l_extendedprice"].to_numpy() * 100
                                       ).astype(np.int64),
                "n_rows": np.ones(len(b), dtype=np.int64),
            })
            return (p.groupby(["l_returnflag", "l_linestatus"], sort=False)
                    .sum().reset_index())

        parts = _read(sf, "lineitem", [
            "l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
        ]).map_batches(part, batch_format="pandas")
        return rollup_sum(parts, ["l_returnflag", "l_linestatus"],
                          ["sum_qty_c", "sum_base_c", "n_rows"])

    q["rollup_pricing"] = rollup_pricing

    def cube_docs(sf):
        """SQL CUBE over (source, lang) on documents: doc counts and
        char sums at all four granularities (groupagg.cube_sum)."""
        import numpy as np
        import pandas as pd

        from parquet_hs_ray.pipelines.groupagg import cube_sum

        def part(b: "pd.DataFrame") -> "pd.DataFrame":
            p = pd.DataFrame({
                "source": b["source"].to_numpy(),
                "lang": b["lang"].to_numpy(),
                "sum_chars": b["n_chars"].to_numpy().astype(np.int64),
                "n_docs": np.ones(len(b), dtype=np.int64),
            })
            return p.groupby(["source", "lang"], sort=False).sum().reset_index()

        parts = _read(sf, "documents", ["source", "lang", "n_chars"]
                      ).map_batches(part, batch_format="pandas")
        return cube_sum(parts, ["source", "lang"], ["sum_chars", "n_docs"])

    q["cube_docs"] = cube_docs

    def _orders_per_cust(sf):
        """(o_custkey, sum_total_c, n_orders) partial-agg — shared by the
        outer-join demos; the shuffle carries one row per (cust, block)."""
        import numpy as np
        import pandas as pd

        from parquet_hs_ray.pipelines.groupagg import grouped_sum

        def part(b: "pd.DataFrame") -> "pd.DataFrame":
            return (pd.DataFrame({
                "o_custkey": b["o_custkey"].to_numpy(),
                "sum_total_c": np.round(b["o_totalprice"].to_numpy() * 100
                                        ).astype(np.int64),
                "n_orders": np.ones(len(b), dtype=np.int64),
            }).groupby("o_custkey", sort=False).sum().reset_index())

        return grouped_sum(
            _read(sf, "orders", ["o_custkey", "o_totalprice"]
                  ).map_batches(part, batch_format="pandas"),
            ["o_custkey"], ["sum_total_c", "n_orders"])

    def cust_orders_left(sf):
        # LEFT OUTER hash-shuffle join: customers with no orders survive
        # with null aggregates (exercises outer-row emission in the
        # per-partition probe)
        cust = _read(sf, "customer", ["c_custkey", "c_mktsegment"])
        return rel.hash_join(cust, _orders_per_cust(sf),
                             "c_custkey", "o_custkey", how="left")

    q["customer_orders_left"] = cust_orders_left

    def user_cust_full(sf):
        # FULL OUTER join of two fact-side aggregates whose key ranges
        # only partially overlap (event users vs ordering customers)
        import numpy as np
        import pandas as pd

        from parquet_hs_ray.pipelines.groupagg import grouped_sum

        def epart(b: "pd.DataFrame") -> "pd.DataFrame":
            return (pd.DataFrame({
                "uid": b["user_id"].to_numpy(),
                "n_events": np.ones(len(b), dtype=np.int64),
            }).groupby("uid", sort=False).sum().reset_index())

        ev = grouped_sum(
            _read(sf, "events", ["user_id"]
                  ).map_batches(epart, batch_format="pandas"),
            ["uid"], ["n_events"])
        od = _orders_per_cust(sf).map_batches(
            lambda b: b.rename(columns={"o_custkey": "uid"})[["uid", "n_orders"]],
            batch_format="pandas")
        return rel.hash_join(ev, od, "uid", "uid", how="full")

    q["events_orders_full"] = user_cust_full

    def custkeys_intersect(sf):
        # SQL INTERSECT: keys present on BOTH sides, distinct — the
        # shuffle carries per-block distinct keys + 2 presence flags
        a = _read(sf, "customer", ["c_custkey"]).map_batches(
            lambda b: b.rename(columns={"c_custkey": "custkey"}),
            batch_format="pandas")
        b = _read(sf, "orders", ["o_custkey"]).map_batches(
            lambda d: d.rename(columns={"o_custkey": "custkey"}),
            batch_format="pandas")
        return rel.set_op(a, b, ["custkey"], "intersect")

    q["custkeys_intersect"] = custkeys_intersect

    def custkeys_except(sf):
        # SQL EXCEPT: ordering custkeys outside the BUILDING segment
        # (nonempty at every sf — Ray's to_pandas drops the schema of a
        # fully-empty dataset, so driver demos must produce rows)
        a = _read(sf, "orders", ["o_custkey"]).map_batches(
            lambda d: d.rename(columns={"o_custkey": "custkey"}),
            batch_format="pandas")
        b = _read(sf, "customer", ["c_custkey", "c_mktsegment"]).map_batches(
            lambda c: c[c["c_mktsegment"] == "BUILDING"][["c_custkey"]]
            .rename(columns={"c_custkey": "custkey"}),
            batch_format="pandas")
        return rel.set_op(a, b, ["custkey"], "except")

    q["custkeys_except"] = custkeys_except

    def lineitem_unpivot(sf):
        # UNPIVOT/melt to long format — per-block vectorized, no shuffle
        ds = _read(sf, "lineitem", ["l_orderkey", "l_linenumber",
                                    "l_quantity", "l_extendedprice"])
        return rel.unpivot(ds, ["l_orderkey", "l_linenumber"],
                           ["l_quantity", "l_extendedprice"])

    q["lineitem_unpivot"] = lineitem_unpivot

    def q17_small_qty(sf):
        from parquet_hs_ray.pipelines.recipes import small_quantity_revenue

        return small_quantity_revenue(_read(sf, "lineitem", [
            "l_partkey", "l_quantity", "l_extendedprice"]))

    q["tpch_q17_small_qty"] = q17_small_qty

    def q13_order_dist(sf):
        from parquet_hs_ray.pipelines.recipes import order_count_distribution

        return order_count_distribution(
            _read(sf, "customer", ["c_custkey"]),
            _read(sf, "orders", ["o_custkey"]))

    q["tpch_q13_order_dist"] = q13_order_dist

    def li_zorder_key(sf):
        """2-D Morton layout key over (l_partkey, l_suppkey): the exact
        integer scale+interleave the z-order layout sorts by — oracled
        bit-for-bit against the 32-term SQL bit-gather twin."""
        import pandas as pd

        from parquet_hs_ray.functions import zorder as zo
        from parquet_hs_ray.pipelines.layout import column_minmax

        ds = _read(sf, "lineitem", ["l_orderkey", "l_linenumber",
                                    "l_partkey", "l_suppkey"])
        mm = column_minmax(ds, ["l_partkey", "l_suppkey"])
        (xlo, xhi), (ylo, yhi) = mm["l_partkey"], mm["l_suppkey"]

        def key(b: "pd.DataFrame") -> "pd.DataFrame":
            return pd.DataFrame({
                "l_orderkey": b["l_orderkey"].to_numpy(),
                "l_linenumber": b["l_linenumber"].to_numpy(),
                "zkey": zo.morton_key2(b["l_partkey"].to_numpy(), xlo, xhi,
                                       b["l_suppkey"].to_numpy(), ylo, yhi),
            })

        return ds.map_batches(key, batch_format="pandas")

    q["lineitem_zorder_key"] = li_zorder_key

    def growth(sf):
        from parquet_hs_ray.pipelines.windows import growth_accounting

        return growth_accounting(_read(sf, "events", ["user_id", "ts"]))

    q["events_growth"] = growth

    def li_zorder3_key(sf):
        """3-D Morton key over (l_partkey, l_suppkey, l_orderkey) —
        the k-D generalization, oracled against the 48-term SQL twin."""
        import pandas as pd

        from parquet_hs_ray.functions import zorder as zo
        from parquet_hs_ray.pipelines.layout import column_minmax

        ds = _read(sf, "lineitem", ["l_orderkey", "l_linenumber",
                                    "l_partkey", "l_suppkey"])
        mm = column_minmax(ds, ["l_partkey", "l_suppkey", "l_orderkey"])

        def key(b: "pd.DataFrame") -> "pd.DataFrame":
            return pd.DataFrame({
                "l_orderkey": b["l_orderkey"].to_numpy(),
                "l_linenumber": b["l_linenumber"].to_numpy(),
                "zkey3": zo.morton_key3(
                    b["l_partkey"].to_numpy(), *mm["l_partkey"],
                    b["l_suppkey"].to_numpy(), *mm["l_suppkey"],
                    b["l_orderkey"].to_numpy(), *mm["l_orderkey"]),
            })

        return ds.map_batches(key, batch_format="pandas")

    q["lineitem_zorder3_key"] = li_zorder3_key

    def temp_mix(sf):
        from parquet_hs_ray.pipelines.text_analysis import temperature_mix

        return temperature_mix(_read(sf, "documents", ["doc_id", "source"]),
                               total=200, alpha=0.5)

    q["doc_temperature_mix"] = temp_mix

    def bucketed_orders_join(sf):
        """Zero-shuffle bucketed join: both sides written hash-bucketed
        by custkey once (the write-time shuffle), then joined strictly
        bucket-locally — one task per bucket, no exchange."""
        import os
        import shutil

        from parquet_hs_ray.pipelines import bucketing as bk

        # fixed per-sf path, rebuilt each call: repeated bench/oracle
        # runs reuse ONE slot instead of leaking a table copy per run
        root = f"/tmp/phr_buckets/{os.path.basename(str(sf).rstrip('/'))}"
        shutil.rmtree(root, ignore_errors=True)
        da = bk.bucket_write(_read(sf, "orders", ["o_orderkey", "o_custkey"]),
                             f"{root}/orders", "o_custkey", n_buckets=16,
                             columns=["o_orderkey", "o_custkey"])
        db = bk.bucket_write(_read(sf, "customer",
                                   ["c_custkey", "c_mktsegment"]),
                             f"{root}/customer", "c_custkey", n_buckets=16,
                             columns=["c_custkey", "c_mktsegment"])
        return bk.bucketed_join(da, db, "o_custkey", "c_custkey",
                                n_buckets=16)

    q["bucketed_orders_join"] = bucketed_orders_join

    def skew_join_q(sf):
        """Skew-mitigated join (hot keys detected + broadcast around the
        shuffle, cold keys hash-join) — result identical to the plain
        equi-join by construction."""
        cust = _read(sf, "customer", ["c_custkey", "c_mktsegment"])
        ords = _read(sf, "orders", ["o_orderkey", "o_custkey"])
        return rel.skew_join(ords, cust, "o_custkey", "c_custkey",
                             min_share=0.0005)

    q["orders_skew_join"] = skew_join_q

    def orders_merge_q(sf):
        """CDC MERGE INTO: apply a deterministic changeset (updates on
        keys %10==3, inserts of shifted keys %10==1, deletes %10==7) to
        orders.  Target filters in place via the broadcast/hash anti
        join; upserts stream from the (small) changeset."""
        import pandas as pd

        def mk(b: "pd.DataFrame") -> "pd.DataFrame":
            m = b["o_orderkey"] % 10
            upd = b[m == 3].copy()
            upd["o_totalprice"] = upd["o_totalprice"] + 100.0
            upd["o_orderstatus"] = "U"
            upd["_op"] = "upsert"
            ins = b[m == 1].copy()
            ins["o_orderkey"] = ins["o_orderkey"] + 10_000_000
            ins["o_orderstatus"] = "N"
            ins["_op"] = "upsert"
            dele = b[m == 7].copy()
            dele["_op"] = "delete"
            return pd.concat([upd, ins, dele], ignore_index=True)

        target = _read(sf, "orders")
        changes = _read(sf, "orders").map_batches(mk, batch_format="pandas")
        return rel.merge_into(target, changes, "o_orderkey")

    q["orders_merge"] = orders_merge_q

    def q5_regional(sf):
        from parquet_hs_ray.pipelines.recipes import regional_revenue

        return regional_revenue(
            _read(sf, "lineitem", ["l_orderkey", "l_suppkey",
                                   "l_extendedprice", "l_discount"]),
            _read(sf, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]),
            _read(sf, "customer", ["c_custkey", "c_nationkey"]),
            _read(sf, "supplier", ["s_suppkey", "s_nationkey"]),
            _read(sf, "nation"), _read(sf, "region"))

    q["tpch_q5_regional"] = q5_regional

    def nation_region_cross(sf):
        # cartesian product demo (guarded broadcast cross join)
        n = _read(sf, "nation").map_batches(
            lambda b: b[["n_nationkey", "n_name"]], batch_format="pandas")
        r = _read(sf, "region").map_batches(
            lambda b: b[["r_regionkey", "r_name"]], batch_format="pandas")
        return rel.cross_join(n, r)

    q["nation_region_cross"] = nation_region_cross

    def fuzzy_nations(sf):
        from parquet_hs_ray.pipelines.cleaning import fuzzy_self_pairs

        return fuzzy_self_pairs(_read(sf, "nation"), "n_name", max_dist=2)

    q["fuzzy_nation_pairs"] = fuzzy_nations

    def emb_unnest(sf):
        # UNNEST the embedding vectors: one row per (vec_id, idx, value)
        return rel.unnest(_read(sf, "embeddings"), "embedding",
                          ["vec_id"], value_col="value", index_col="idx")

    q["emb_unnest"] = emb_unnest

    def orders_collect(sf):
        # array_agg: ordered order-key list per customer (the unnest
        # inverse; integer payload keeps the value hash repr-stable)
        ds = _read(sf, "orders", ["o_custkey", "o_orderkey"])
        return rel.collect_list(ds, "o_custkey", "o_orderkey",
                                order_col="o_orderkey", out_col="order_keys")

    q["orders_collect_list"] = orders_collect

    def ev_winsor(sf):
        from parquet_hs_ray.pipelines.stats import winsorize

        ds = _read(sf, "events", ["event_id", "value"])
        return winsorize(ds, "value", 0.05, 0.95, out_col="value_w")

    q["events_winsorize"] = ev_winsor

    def ev_scale(sf):
        from parquet_hs_ray.pipelines.stats import scale_minmax

        ds = _read(sf, "events", ["event_id", "event_type", "value"])
        return scale_minmax(ds, "value", "event_type")

    q["events_scale_minmax"] = ev_scale

    def q6_forecast(sf):
        """Q6-shaped filtered-scan aggregate: pure map-side cents
        partials + one tiny sum — the no-join no-shuffle baseline."""
        import numpy as np
        import pandas as pd

        lo, hi = pd.Timestamp("1996-01-01"), pd.Timestamp("1997-01-01")

        def part(b: "pd.DataFrame") -> "pd.DataFrame":
            m = ((b["l_shipdate"] >= lo) & (b["l_shipdate"] < hi)
                 & (b["l_discount"] >= 0.04) & (b["l_discount"] <= 0.06)
                 & (b["l_quantity"] < 24))
            s = b[m]
            rev = np.round(s["l_extendedprice"].to_numpy()
                           * s["l_discount"].to_numpy() * 100).astype(np.int64)
            return pd.DataFrame({"revenue_c": [np.int64(rev.sum())],
                                 "n": [np.int64(m.sum())]})

        p = (_read(sf, "lineitem", ["l_shipdate", "l_discount", "l_quantity",
                                    "l_extendedprice"])
             .map_batches(part, batch_format="pandas").to_pandas())
        import ray.data

        return ray.data.from_pandas(pd.DataFrame(
            {"revenue_c": [np.int64(p["revenue_c"].sum())],
             "n": [np.int64(p["n"].sum())]}))

    q["tpch_q6_forecast"] = q6_forecast

    def q10_returns(sf):
        """Q10-shaped: revenue lost to returned items per customer,
        top 20 — filter + fact join + grouped cents sum + global top-k."""
        import numpy as np
        import pandas as pd

        from parquet_hs_ray.pipelines.groupagg import grouped_sum

        def li_part(b: "pd.DataFrame") -> "pd.DataFrame":
            m = b["l_returnflag"] == "R"
            s = b[m]
            return pd.DataFrame({
                "l_orderkey": s["l_orderkey"].to_numpy(),
                "rev_c": np.round(s["l_extendedprice"].to_numpy()
                                  * (1 - s["l_discount"].to_numpy())
                                  * 100).astype(np.int64)})

        li = _read(sf, "lineitem", ["l_returnflag", "l_orderkey",
                                    "l_extendedprice", "l_discount"]
                   ).map_batches(li_part, batch_format="pandas")
        ords = _read(sf, "orders", ["o_orderkey", "o_custkey"])
        j = rel.hash_join(li, ords, "l_orderkey", "o_orderkey")

        def cpart(b: "pd.DataFrame") -> "pd.DataFrame":
            return (b[["o_custkey", "rev_c"]]
                    .groupby("o_custkey", sort=False, as_index=False).sum())

        per_cust = grouped_sum(j.map_batches(cpart, batch_format="pandas"),
                               ["o_custkey"], ["rev_c"])
        return rel.top_n_per_group(
            per_cust.map_batches(lambda b: b.assign(_all=np.int64(0)),
                                 batch_format="pandas"),
            "_all", "rev_c", 20, "o_custkey").map_batches(
            lambda b: b[["o_custkey", "rev_c"]], batch_format="pandas")

    q["tpch_q10_returns"] = q10_returns

    def doc_drank(sf):
        from parquet_hs_ray.pipelines.stats import dense_rank

        ds = _read(sf, "documents", ["doc_id", "source", "n_chars"])
        return dense_rank(ds, "n_chars", "source")

    q["doc_chars_dense_rank"] = doc_drank

    def doc_rank_gaps(sf):
        from parquet_hs_ray.pipelines.stats import rank_with_gaps

        ds = _read(sf, "documents", ["doc_id", "source", "n_chars"])
        return rank_with_gaps(ds, "n_chars", "source")

    q["doc_chars_rank"] = doc_rank_gaps

    def li_pagerank(sf):
        """Integer-exact simplified PageRank over the supplier->part
        bipartite graph (parts namespaced +1e6): Pregel-shaped — one
        hash-shuffle join + one grouped sum per iteration, rank state
        stays a node-sized Dataset in the object store."""
        import pyarrow as pa
        import pyarrow.compute as pc

        from parquet_hs_ray.pipelines.graph import pagerank

        edges = _read(sf, "lineitem", ["l_suppkey", "l_partkey"]).map_batches(
            lambda b: pa.table({
                "src": b["l_suppkey"],
                "dst": pc.add(b["l_partkey"], 1_000_000)}),
            batch_format="pyarrow")
        return pagerank(edges, iters=3)

    q["li_pagerank"] = li_pagerank

    def ev_zscore(sf):
        from parquet_hs_ray.pipelines.stats import zscore

        ds = _read(sf, "events", ["event_id", "event_type", "value"])
        return zscore(ds, "value", "event_type")

    q["events_zscore"] = ev_zscore

    def q14_promo(sf):
        """Q14-shaped promo-revenue share: conditional aggregation over
        the lineitem x part join — part's (key -> is_promo) map
        broadcasts, cents partials carry (promo_c, total_c), and the
        share is one float division of exact integers."""
        import numpy as np
        import pandas as pd

        lo, hi = pd.Timestamp("1996-03-01"), pd.Timestamp("1996-06-01")
        part_t = _read(sf, "part", ["p_partkey", "p_type"]).map_batches(
            lambda b: pd.DataFrame({
                "p_partkey": b["p_partkey"].to_numpy(),
                "is_promo": (b["p_type"] == "PROMO").to_numpy().astype(np.int64)}),
            batch_format="pandas")

        def li_part(b: "pd.DataFrame") -> "pd.DataFrame":
            m = (b["l_shipdate"] >= lo) & (b["l_shipdate"] < hi)
            s = b[m]
            return pd.DataFrame({
                "l_partkey": s["l_partkey"].to_numpy(),
                "disc_c": np.round(s["l_extendedprice"].to_numpy()
                                   * (1 - s["l_discount"].to_numpy())
                                   * 100).astype(np.int64)})

        li = _read(sf, "lineitem", ["l_shipdate", "l_partkey",
                                    "l_extendedprice", "l_discount"]
                   ).map_batches(li_part, batch_format="pandas")
        j = rel.broadcast_join(li, part_t, "l_partkey", "p_partkey",
                               right_cols=["is_promo"])

        def agg(b: "pd.DataFrame") -> "pd.DataFrame":
            d = b["disc_c"].to_numpy()
            p = d * b["is_promo"].to_numpy()
            return pd.DataFrame({"promo_c": [np.int64(p.sum())],
                                 "total_c": [np.int64(d.sum())]})

        parts = j.map_batches(agg, batch_format="pandas").to_pandas()
        promo_c = np.int64(parts["promo_c"].sum())
        total_c = np.int64(parts["total_c"].sum())
        # empty window: NULL share (matches the oracle's CASE), not 0/0
        share = None if total_c == 0 else 100.0 * promo_c / total_c
        import ray.data

        return ray.data.from_pandas(pd.DataFrame({
            "promo_c": [promo_c], "total_c": [total_c],
            "promo_share": [share]}))

    q["tpch_q14_promo"] = q14_promo

    def q19_brands(sf):
        """Q19-shaped disjunctive predicate: per-branch brand x quantity
        windows over the lineitem x part broadcast join, one vectorized
        OR mask, exact cents sum."""
        import numpy as np
        import pandas as pd

        part_t = _read(sf, "part", ["p_partkey", "p_brand"])

        def li_part(b: "pd.DataFrame") -> "pd.DataFrame":
            return pd.DataFrame({
                "l_partkey": b["l_partkey"].to_numpy(),
                "l_quantity": b["l_quantity"].to_numpy(),
                "disc_c": np.round(b["l_extendedprice"].to_numpy()
                                   * (1 - b["l_discount"].to_numpy())
                                   * 100).astype(np.int64)})

        li = _read(sf, "lineitem", ["l_partkey", "l_quantity",
                                    "l_extendedprice", "l_discount"]
                   ).map_batches(li_part, batch_format="pandas")
        j = rel.broadcast_join(li, part_t, "l_partkey", "p_partkey",
                               right_cols=["p_brand"])

        def agg(b: "pd.DataFrame") -> "pd.DataFrame":
            q = b["l_quantity"].to_numpy()
            br = b["p_brand"].to_numpy()
            m = (((br == "Brand#13") & (q >= 1) & (q <= 11))
                 | ((br == "Brand#5") & (q >= 10) & (q <= 20))
                 | ((br == "Brand#19") & (q >= 20) & (q <= 30)))
            return pd.DataFrame({
                "revenue_c": [np.int64(b["disc_c"].to_numpy()[m].sum())],
                "n": [np.int64(m.sum())]})

        p = j.map_batches(agg, batch_format="pandas").to_pandas()
        import ray.data

        return ray.data.from_pandas(pd.DataFrame({
            "revenue_c": [np.int64(p["revenue_c"].sum())],
            "n": [np.int64(p["n"].sum())]}))

    q["tpch_q19_brands"] = q19_brands

    def q4_priority(sf):
        """Q4-shaped EXISTS semi join: orders with >=1 lineitem shipped
        more than 90 days after the order date, counted per priority.
        The EXISTS decorrelates to: join -> filter -> DISTINCT orderkey
        (grouped max over (orderkey, priority) partials) -> grouped
        count — every stage the bounded-merge shape."""
        import numpy as np
        import pandas as pd

        from parquet_hs_ray.pipelines.groupagg import grouped_agg, grouped_sum

        li = _read(sf, "lineitem", ["l_orderkey", "l_shipdate"])
        ords = _read(sf, "orders",
                     ["o_orderkey", "o_orderdate", "o_orderpriority"])
        j = rel.hash_join(li, ords, "l_orderkey", "o_orderkey")

        def late(b: "pd.DataFrame") -> "pd.DataFrame":
            m = b["l_shipdate"] > b["o_orderdate"] + pd.Timedelta(days=90)
            s = b[m][["l_orderkey", "o_orderpriority"]].drop_duplicates()
            s = s.rename(columns={"o_orderpriority": "prio"})
            s["one"] = np.int64(1)
            return s

        # DISTINCT orderkeys via grouped max (one row per key survives)
        dedup = grouped_agg(j.map_batches(late, batch_format="pandas"),
                            ["l_orderkey", "prio"], {"one": "max"})

        def cnt(b: "pd.DataFrame") -> "pd.DataFrame":
            return (pd.DataFrame({"o_orderpriority": b["prio"].to_numpy(),
                                  "n": np.ones(len(b), dtype=np.int64)})
                    .groupby("o_orderpriority", sort=False,
                             as_index=False).sum())

        return grouped_sum(dedup.map_batches(cnt, batch_format="pandas"),
                           ["o_orderpriority"], ["n"])

    q["tpch_q4_priority"] = q4_priority

    def q18_bigorders(sf):
        """Q18-shaped HAVING subquery: orders whose total lineitem
        quantity exceeds a threshold, joined back for customer context —
        grouped cents sum, streamed threshold filter, hash join."""
        import numpy as np
        import pandas as pd

        from parquet_hs_ray.pipelines.groupagg import grouped_sum

        def qpart(b: "pd.DataFrame") -> "pd.DataFrame":
            return (pd.DataFrame({
                "l_orderkey": b["l_orderkey"].to_numpy(),
                "qty_c": np.round(b["l_quantity"].to_numpy() * 100
                                  ).astype(np.int64)})
                .groupby("l_orderkey", sort=False, as_index=False).sum())

        per_order = grouped_sum(
            _read(sf, "lineitem", ["l_orderkey", "l_quantity"]
                  ).map_batches(qpart, batch_format="pandas"),
            ["l_orderkey"], ["qty_c"])
        big = per_order.map_batches(lambda b: b[b["qty_c"] > 25_000],
                                    batch_format="pandas")
        ords = _read(sf, "orders", ["o_orderkey", "o_custkey"])
        return rel.hash_join(big, ords, "l_orderkey", "o_orderkey")

    q["tpch_q18_bigorders"] = q18_bigorders

    def q7_trade(sf):
        """Q7-shaped cross-nation trade volume: revenue per
        (supplier nation, customer nation) pair where the nations
        differ — the Q5 broadcast-dimension plan grouped by pair."""
        import numpy as np
        import pandas as pd

        import pyarrow as pa
        import pyarrow.compute as pc

        from parquet_hs_ray.pipelines.groupagg import grouped_sum

        lo, hi = pd.Timestamp("1996-01-01"), pd.Timestamp("1998-01-01")
        nat = _read(sf, "nation").to_pandas()[["n_nationkey", "n_name"]]
        nmap = dict(zip(nat["n_nationkey"], nat["n_name"]))

        def lfilt(t: "pa.Table") -> "pa.Table":
            m = pc.and_(pc.greater_equal(t["l_shipdate"], pa.scalar(lo)),
                        pc.less(t["l_shipdate"], pa.scalar(hi)))
            return t.filter(m).select(
                ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"])

        def cents(b: "pd.DataFrame") -> "pd.DataFrame":
            return pd.DataFrame({
                "l_orderkey": b["l_orderkey"].to_numpy(),
                "l_suppkey": b["l_suppkey"].to_numpy(),
                "rev_c": np.round(b["l_extendedprice"].to_numpy()
                                  * (1 - b["l_discount"].to_numpy())
                                  * 100).astype(np.int64)})

        li = (_read(sf, "lineitem", ["l_shipdate", "l_orderkey", "l_suppkey",
                                     "l_extendedprice", "l_discount"])
              .map_batches(lfilt, batch_format="pyarrow")
              .map_batches(cents, batch_format="pandas"))
        ords = _read(sf, "orders", ["o_orderkey", "o_custkey"])
        j = rel.hash_join(li, ords, "l_orderkey", "o_orderkey")
        j = rel.broadcast_join(j, _read(sf, "supplier",
                                        ["s_suppkey", "s_nationkey"]),
                               "l_suppkey", "s_suppkey",
                               right_cols=["s_nationkey"])
        j = rel.broadcast_join(j, _read(sf, "customer",
                                        ["c_custkey", "c_nationkey"]),
                               "o_custkey", "c_custkey",
                               right_cols=["c_nationkey"])

        def part(b: "pd.DataFrame") -> "pd.DataFrame":
            b = b[b["s_nationkey"] != b["c_nationkey"]]
            p = pd.DataFrame({
                "supp_nation": b["s_nationkey"].map(nmap).to_numpy(),
                "cust_nation": b["c_nationkey"].map(nmap).to_numpy(),
                "revenue_c": b["rev_c"].to_numpy()})
            return (p.groupby(["supp_nation", "cust_nation"], sort=False,
                              as_index=False).sum())

        return grouped_sum(j.map_batches(part, batch_format="pandas"),
                           ["supp_nation", "cust_nation"], ["revenue_c"])

    q["tpch_q7_trade"] = q7_trade

    def q8_share(sf):
        """Q8-shaped market share: one supplier nation's share of the
        revenue flowing to ASIA customers, per order year — conditional
        cents sums per year plus one float division."""
        import numpy as np
        import pandas as pd

        from parquet_hs_ray.pipelines.groupagg import grouped_sum

        nat = _read(sf, "nation").to_pandas()
        reg = _read(sf, "region").to_pandas()
        asia = set(reg[reg["r_name"] == "ASIA"]["r_regionkey"])
        asia_nations = set(nat[nat["n_regionkey"].isin(asia)]["n_nationkey"])

        def cents(b: "pd.DataFrame") -> "pd.DataFrame":
            return pd.DataFrame({
                "l_orderkey": b["l_orderkey"].to_numpy(),
                "l_suppkey": b["l_suppkey"].to_numpy(),
                "rev_c": np.round(b["l_extendedprice"].to_numpy()
                                  * (1 - b["l_discount"].to_numpy())
                                  * 100).astype(np.int64)})

        li = _read(sf, "lineitem", ["l_orderkey", "l_suppkey",
                                    "l_extendedprice", "l_discount"]
                   ).map_batches(cents, batch_format="pandas")
        ords = _read(sf, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])
        j = rel.hash_join(li, ords, "l_orderkey", "o_orderkey")
        j = rel.broadcast_join(j, _read(sf, "customer",
                                        ["c_custkey", "c_nationkey"]),
                               "o_custkey", "c_custkey",
                               right_cols=["c_nationkey"])
        j = rel.broadcast_join(j, _read(sf, "supplier",
                                        ["s_suppkey", "s_nationkey"]),
                               "l_suppkey", "s_suppkey",
                               right_cols=["s_nationkey"])

        def part(b: "pd.DataFrame") -> "pd.DataFrame":
            b = b[b["c_nationkey"].isin(asia_nations)]
            rev = b["rev_c"].to_numpy()
            is_nat = (b["s_nationkey"] == 7).to_numpy().astype(np.int64)
            p = pd.DataFrame({
                "yr": pd.to_datetime(b["o_orderdate"]).dt.year.to_numpy()
                .astype(np.int64),
                "nation_c": rev * is_nat, "total_c": rev})
            return p.groupby("yr", sort=False, as_index=False).sum()

        sums = grouped_sum(j.map_batches(part, batch_format="pandas"),
                           ["yr"], ["nation_c", "total_c"])
        return sums.map_batches(
            lambda b: b.assign(share=b["nation_c"].to_numpy() * 1.0
                               / b["total_c"].to_numpy()),
            batch_format="pandas")

    q["tpch_q8_share"] = q8_share

    def doc_bernoulli(sf):
        from parquet_hs_ray.pipelines.text_analysis import sample_fraction

        ds = _read(sf, "documents", ["doc_id", "source"])
        return sample_fraction(ds, 0.3)

    q["doc_sample_fraction"] = doc_bernoulli

    def q15_top_supplier(sf):
        """Q15-shaped: supplier(s) with the maximum revenue over a
        quarter — aggregate, then keep every row tied at the max (the
        view + WHERE total = (SELECT max(...)) shape). The max is a
        per-block partial reduced on the driver (one row per block)."""
        import numpy as np
        import pandas as pd

        import pyarrow as pa
        import pyarrow.compute as pc

        from parquet_hs_ray.pipelines.groupagg import grouped_sum

        lo, hi = pd.Timestamp("1996-01-01"), pd.Timestamp("1996-04-01")

        def lfilt(t: "pa.Table") -> "pa.Table":
            m = pc.and_(pc.greater_equal(t["l_shipdate"], pa.scalar(lo)),
                        pc.less(t["l_shipdate"], pa.scalar(hi)))
            return t.filter(m).select(
                ["l_suppkey", "l_extendedprice", "l_discount"])

        def cents(b: "pd.DataFrame") -> "pd.DataFrame":
            p = pd.DataFrame({
                "l_suppkey": b["l_suppkey"].to_numpy(),
                "rev_c": np.round(b["l_extendedprice"].to_numpy()
                                  * (1 - b["l_discount"].to_numpy())
                                  * 100).astype(np.int64)})
            return p.groupby("l_suppkey", sort=False, as_index=False).sum()

        per_supp = grouped_sum(
            _read(sf, "lineitem", ["l_shipdate", "l_suppkey",
                                   "l_extendedprice", "l_discount"])
            .map_batches(lfilt, batch_format="pyarrow")
            .map_batches(cents, batch_format="pandas"),
            ["l_suppkey"], ["rev_c"]).materialize()
        mx = per_supp.map_batches(
            lambda b: pd.DataFrame({"m": [b["rev_c"].max()]}) if len(b)
            else pd.DataFrame({"m": pd.Series([], dtype=np.int64)}),
            batch_format="pandas").to_pandas()
        if not len(mx) or mx["m"].dropna().empty:
            # window matched no lineitems: schema-preserving empty
            # (the SQL twin also returns 0 rows)
            import ray.data

            return ray.data.from_pandas(pd.DataFrame({
                "l_suppkey": pd.Series(dtype=np.int64),
                "rev_c": pd.Series(dtype=np.int64)}))
        m = np.int64(mx["m"].max())
        return per_supp.map_batches(lambda b: b[b["rev_c"] == m],
                                    batch_format="pandas")

    q["tpch_q15_top_supplier"] = q15_top_supplier

    def q22_idle_customers(sf):
        """Q22-shaped: customers with above-average positive balance and
        NO orders in a half-year window, per nation. The global-average
        compare is exact integer cross-multiplication (bal_c * n >
        sum_c); the NOT EXISTS is a broadcast anti join on the window's
        distinct custkeys; the finish is one grouped cents sum."""
        import numpy as np
        import pandas as pd

        import pyarrow as pa
        import pyarrow.compute as pc

        from parquet_hs_ray.pipelines.groupagg import grouped_sum

        cust = _read(sf, "customer", ["c_custkey", "c_nationkey", "c_acctbal"])

        def bpart(b: "pd.DataFrame") -> "pd.DataFrame":
            pos = b[b["c_acctbal"] > 0]
            c = np.round(pos["c_acctbal"].to_numpy() * 100).astype(np.int64)
            return pd.DataFrame({"n": [np.int64(len(c))],
                                 "sum_c": [np.int64(c.sum())]})

        s = cust.map_batches(bpart, batch_format="pandas").to_pandas()
        n, sum_c = np.int64(s["n"].sum()), np.int64(s["sum_c"].sum())

        lo, hi = pd.Timestamp("1996-01-01"), pd.Timestamp("1996-07-01")

        def ofilt(t: "pa.Table") -> "pa.Table":
            m = pc.and_(pc.greater_equal(t["o_orderdate"], pa.scalar(lo)),
                        pc.less(t["o_orderdate"], pa.scalar(hi)))
            return t.filter(m).select(["o_custkey"])

        active = _read(sf, "orders", ["o_custkey", "o_orderdate"]
                       ).map_batches(ofilt, batch_format="pyarrow")
        idle = rel.broadcast_join(cust, active, "c_custkey", "o_custkey",
                                  how="anti")

        def part(b: "pd.DataFrame") -> "pd.DataFrame":
            bal_c = np.round(b["c_acctbal"].to_numpy() * 100).astype(np.int64)
            m = bal_c * n > sum_c
            p = pd.DataFrame({"c_nationkey": b["c_nationkey"].to_numpy()[m],
                              "n_cust": np.int64(1),
                              "total_bal_c": bal_c[m]})
            return p.groupby("c_nationkey", sort=False, as_index=False).sum()

        return grouped_sum(idle.map_batches(part, batch_format="pandas"),
                           ["c_nationkey"], ["n_cust", "total_bal_c"])

    q["tpch_q22_idle_customers"] = q22_idle_customers

    def q12_latemode(sf):
        """Q12-shaped: per return flag (the schema's stand-in for
        l_shipmode), count late-shipped lineitems split by order
        priority class — fact-x-fact hash join, then a single
        partial-agg grouped sum of two conditional counters."""
        import numpy as np
        import pandas as pd

        from parquet_hs_ray.pipelines.groupagg import grouped_sum

        li = _read(sf, "lineitem", ["l_orderkey", "l_shipdate",
                                    "l_returnflag"])
        ords = _read(sf, "orders",
                     ["o_orderkey", "o_orderdate", "o_orderpriority"])
        j = rel.hash_join(li, ords, "l_orderkey", "o_orderkey")

        def part(b: "pd.DataFrame") -> "pd.DataFrame":
            late = b["l_shipdate"] > b["o_orderdate"] + pd.Timedelta(days=60)
            s = b[late]
            hi = s["o_orderpriority"].isin(["1-URGENT", "2-HIGH"]).to_numpy()
            p = pd.DataFrame({"l_returnflag": s["l_returnflag"].to_numpy(),
                              "high_n": hi.astype(np.int64),
                              "low_n": (~hi).astype(np.int64)})
            return p.groupby("l_returnflag", sort=False, as_index=False).sum()

        return grouped_sum(j.map_batches(part, batch_format="pandas"),
                           ["l_returnflag"], ["high_n", "low_n"])

    q["tpch_q12_latemode"] = q12_latemode

    def q21_waiting(sf):
        """Q21-shaped: suppliers who were the ONLY late supplier on a
        finalized multi-supplier order, top 20 by wait count.  The
        classic EXISTS / NOT EXISTS pair decorrelates to two grouped
        aggregates — per (order, supplier) max(late), then per order
        (supplier count, late-supplier count) — joined back to the pair
        rows; every shuffle carries keys + two int64 counters."""
        import numpy as np
        import pandas as pd

        from parquet_hs_ray.pipelines.groupagg import grouped_agg, grouped_sum

        li = _read(sf, "lineitem", ["l_orderkey", "l_suppkey", "l_shipdate"])

        def ofilt(b: "pd.DataFrame") -> "pd.DataFrame":
            return b[b["o_orderstatus"] == "F"][["o_orderkey", "o_orderdate"]]

        ords = _read(sf, "orders", ["o_orderkey", "o_orderdate",
                                    "o_orderstatus"]
                     ).map_batches(ofilt, batch_format="pandas")
        j = rel.hash_join(li, ords, "l_orderkey", "o_orderkey")

        def late_pair(b: "pd.DataFrame") -> "pd.DataFrame":
            late = (b["l_shipdate"]
                    > b["o_orderdate"] + pd.Timedelta(days=90)).to_numpy()
            return pd.DataFrame({"l_orderkey": b["l_orderkey"].to_numpy(),
                                 "l_suppkey": b["l_suppkey"].to_numpy(),
                                 "late": late.astype(np.int64)})

        pair = grouped_agg(j.map_batches(late_pair, batch_format="pandas"),
                           ["l_orderkey", "l_suppkey"], {"late": "max"})

        def opart(b: "pd.DataFrame") -> "pd.DataFrame":
            p = pd.DataFrame({"l_orderkey": b["l_orderkey"].to_numpy(),
                              "n_supp": np.int64(1),
                              "n_late": b["late"].to_numpy()})
            return p.groupby("l_orderkey", sort=False, as_index=False).sum()

        ostats = grouped_sum(pair.map_batches(opart, batch_format="pandas"),
                             ["l_orderkey"], ["n_supp", "n_late"])
        back = rel.hash_join(pair, ostats, "l_orderkey", "l_orderkey")

        def keep(b: "pd.DataFrame") -> "pd.DataFrame":
            m = ((b["late"] == 1) & (b["n_supp"] >= 2)
                 & (b["n_late"] == 1)).to_numpy()
            p = pd.DataFrame({"l_suppkey": b["l_suppkey"].to_numpy()[m],
                              "numwait": np.int64(1)})
            return p.groupby("l_suppkey", sort=False, as_index=False).sum()

        per_supp = grouped_sum(back.map_batches(keep, batch_format="pandas"),
                               ["l_suppkey"], ["numwait"])
        named = rel.broadcast_join(
            per_supp, _read(sf, "supplier"), "l_suppkey", "s_suppkey",
            right_cols=["s_name"])
        top = rel.top_n_per_group(
            named.map_batches(lambda b: b.assign(_all=np.int64(0)),
                              batch_format="pandas"),
            "_all", "numwait", 20, "s_name")
        return top.map_batches(lambda b: b[["s_name", "numwait"]],
                               batch_format="pandas")

    q["tpch_q21_waiting"] = q21_waiting

    def cust_no_orders(sf):
        """Customers with no URGENT order, counted per nation — the
        NOT EXISTS anti join as a first-class distributed primitive
        (``relational.semi_anti_join``: right side collapses to distinct
        keys, LEFT hash join marker, streaming filter)."""
        import numpy as np
        import pandas as pd

        from parquet_hs_ray.pipelines.groupagg import grouped_sum

        cust = _read(sf, "customer").map_batches(
            lambda b: b[["c_custkey", "c_nationkey"]], batch_format="pandas")
        okeys = _read(sf, "orders").map_batches(
            lambda b: b[b["o_orderpriority"] == "1-URGENT"][["o_custkey"]],
            batch_format="pandas")
        idle = rel.semi_anti_join(cust, okeys, "c_custkey", "o_custkey",
                                  how="anti")

        def part(b: "pd.DataFrame") -> "pd.DataFrame":
            p = pd.DataFrame({"c_nationkey": b["c_nationkey"].to_numpy(),
                              "n_cust": np.int64(1)})
            return p.groupby("c_nationkey", sort=False, as_index=False).sum()

        per_nat = grouped_sum(idle.map_batches(part, batch_format="pandas"),
                              ["c_nationkey"], ["n_cust"])
        return rel.broadcast_join(per_nat, _read(sf, "nation"),
                                  "c_nationkey", "n_nationkey",
                                  right_cols=["n_name"])

    q["customer_no_orders"] = cust_no_orders

    def cust_urgent_semi(sf):
        """EXISTS complement of customer_no_orders: customers with at
        least one URGENT order, per nation (semi mode of
        ``relational.semi_anti_join``)."""
        import numpy as np
        import pandas as pd

        from parquet_hs_ray.pipelines.groupagg import grouped_sum

        cust = _read(sf, "customer").map_batches(
            lambda b: b[["c_custkey", "c_nationkey"]], batch_format="pandas")
        okeys = _read(sf, "orders").map_batches(
            lambda b: b[b["o_orderpriority"] == "1-URGENT"][["o_custkey"]],
            batch_format="pandas")
        hit = rel.semi_anti_join(cust, okeys, "c_custkey", "o_custkey",
                                 how="semi")

        def part(b: "pd.DataFrame") -> "pd.DataFrame":
            p = pd.DataFrame({"c_nationkey": b["c_nationkey"].to_numpy(),
                              "n_cust": np.int64(1)})
            return p.groupby("c_nationkey", sort=False, as_index=False).sum()

        return grouped_sum(hit.map_batches(part, batch_format="pandas"),
                           ["c_nationkey"], ["n_cust"])

    q["customer_urgent_semi"] = cust_urgent_semi

    def ev_mad(sf):
        from parquet_hs_ray.pipelines.stats import grouped_mad

        return grouped_mad(_read(sf, "events"), "event_type", "value")

    q["events_mad"] = ev_mad

    def ev_latest(sf):
        """Per-user latest event (grouped argmax): the whole row at the
        max ts, ties broken by event_id — one row per group per block
        shuffles, never the events."""
        from parquet_hs_ray.pipelines.stats import grouped_argmax

        return grouped_argmax(_read(sf, "events"), "user_id", "ts",
                              ["event_type", "value"], "event_id")

    q["events_latest"] = ev_latest

    def ev_qcont(sf):
        """Interpolated per-type value quantiles (percentile_cont) —
        bitwise-identical to DuckDB's quantile_cont blend."""
        from parquet_hs_ray.pipelines.stats import grouped_quantile_cont

        return grouped_quantile_cont(_read(sf, "events"), "event_type",
                                     "value", qs=(0.25, 0.5, 0.95))

    q["events_quantiles_cont"] = ev_qcont

    def ev_regression(sf):
        """Per-type OLS trend of value over time from five decomposable
        sums — x in whole hours since the corpus epoch, y in cents, so
        the sums are exact ints and slope/intercept are single float
        expressions the SQL twin mirrors bitwise."""
        import numpy as np
        import pandas as pd

        from parquet_hs_ray.pipelines.stats import grouped_regression

        origin = pd.Timestamp("2024-01-01")

        def xy(b: "pd.DataFrame") -> "pd.DataFrame":
            return pd.DataFrame({
                "event_type": b["event_type"].to_numpy(),
                "x_h": ((b["ts"] - origin)
                        // pd.Timedelta(hours=1)).astype(np.int64),
                "y_c": np.round(b["value"].to_numpy() * 100).astype(np.int64),
            })

        rows = _read(sf, "events").map_batches(xy, batch_format="pandas")
        return grouped_regression(rows, "event_type", "x_h", "y_c")

    q["events_regression"] = ev_regression

    def ev_lag(sf):
        """Per-user lag(value, 2) in event order — the generic window
        shift; only <=2 boundary scalars per block leave the sort."""
        from parquet_hs_ray.pipelines.windows import with_lag

        return with_lag(_read(sf, "events"), n=2)

    q["events_lag"] = ev_lag

    def ev_lead(sf):
        """lead(value, 1) per user — the right-to-left carry fold."""
        from parquet_hs_ray.pipelines.windows import with_lag

        return with_lag(_read(sf, "events"), n=1, how="lead")

    q["events_lead"] = ev_lead

    def ev_impute(sf):
        """Median imputation demo: NULL out a deterministic 1-in-7 slice
        of value (event_id % 7), then fill with the per-type exact
        discrete median — histogram shuffle once, medians broadcast,
        streaming coalesce."""
        import numpy as np
        import pandas as pd

        from parquet_hs_ray.pipelines.stats import impute_median

        def poke(b: "pd.DataFrame") -> "pd.DataFrame":
            v = b["value"].to_numpy(dtype=np.float64).copy()
            v[(b["event_id"].to_numpy() % 7) == 0] = np.nan
            return pd.DataFrame({"event_id": b["event_id"].to_numpy(),
                                 "event_type": b["event_type"].to_numpy(),
                                 "value": v})

        rows = _read(sf, "events").map_batches(poke, batch_format="pandas")
        return impute_median(rows, "event_type", "value",
                             id_cols=["event_id"])

    q["events_impute"] = ev_impute

    def ev_validate(sf):
        """Declarative data-validation suite (Deequ shape): five rule
        kinds checked in one distributed pass; shuffle carries
        #rules x #blocks count rows plus a cardinality-bounded distinct
        reduction for the unique rule."""
        from parquet_hs_ray.pipelines.validate import validate

        return validate(_read(sf, "events"), _VALIDATE_RULES)

    q["events_validate"] = ev_validate

    def ev_first_last(sf):
        """first_value/last_value window: per-group extreme rows from the
        bounded argmax shuffle, streamed back onto events (broadcast or
        hash join by group count) — no global sort."""
        from parquet_hs_ray.pipelines.windows import first_last_value

        return first_last_value(_read(sf, "events"))

    q["events_first_last"] = ev_first_last

    def ev_feature_join(sf):
        """Composite-key feature join (the ML feature-enrichment shape):
        per-(user, event_type) aggregate computed via the bounded partial
        shuffle, then joined back onto every event on BOTH keys through
        the multi-key hash join — integer-cents sums, order-exact."""
        import numpy as np
        import pandas as pd

        from parquet_hs_ray.pipelines.groupagg import grouped_sum

        ev = _read(sf, "events")

        def partial(b: "pd.DataFrame") -> "pd.DataFrame":
            v = b["value"].to_numpy(dtype=np.float64)
            ok = ~np.isnan(v)
            cents = np.where(ok, np.round(np.where(ok, v, 0.0) * 100.0), 0.0)
            g = pd.DataFrame({"user_id": b["user_id"],
                              "event_type": b["event_type"],
                              "sum_c": cents.astype(np.int64),
                              "cnt": ok.astype(np.int64)})
            return (g.groupby(["user_id", "event_type"], sort=False,
                              as_index=False)[["sum_c", "cnt"]].sum())

        feats = grouped_sum(ev.map_batches(partial, batch_format="pandas"),
                            ["user_id", "event_type"], ["sum_c", "cnt"])
        slim = ev.map_batches(
            lambda b: b[["event_id", "user_id", "event_type"]],
            batch_format="pandas")
        return rel.hash_join(slim, feats, ["user_id", "event_type"],
                             ["user_id", "event_type"])

    q["events_feature_join"] = ev_feature_join

    def ev_incremental(sf):
        """Micro-batch incremental tumbling windows with persisted state
        + watermark: three chronological increments + flush reproduce the
        batch aggregate exactly (integer cents) — the streaming-shaped
        path the batch windows don't cover."""
        import shutil

        import numpy as np
        import pandas as pd
        import ray.data

        from parquet_hs_ray.pipelines.incremental import (incremental_flush,
                                                          incremental_tumbling)

        state = f"/tmp/phr_incr/{os.path.basename(os.path.normpath(sf))}"
        shutil.rmtree(state, ignore_errors=True)
        ev = _read(sf, "events").to_pandas().sort_values("ts")
        cuts = [0, len(ev) // 3, 2 * len(ev) // 3, len(ev)]
        out = []
        for i in range(3):
            chunk = ev.iloc[cuts[i]:cuts[i + 1]]
            ds = ray.data.from_pandas(
                [chunk.iloc[:len(chunk) // 2], chunk.iloc[len(chunk) // 2:]])
            em, _ = incremental_tumbling(ds, state,
                                         window_us=3_600_000_000,
                                         allowed_lateness_us=0)
            out.append(em)
        out.append(incremental_flush(state))
        res = (pd.concat(out, ignore_index=True)
               .sort_values(["win", "user_id"]).reset_index(drop=True))
        return res

    q["events_incremental"] = ev_incremental

    def doc_incr_dedup(sf):
        """Incremental exact dedup: three doc_id-ordered increments
        against the bucketed hash state == global first-occurrence
        (min doc_id per content hash)."""
        import shutil

        import pandas as pd
        import ray.data

        from parquet_hs_ray.pipelines.incremental import incremental_dedup

        state = f"/tmp/phr_incrdedup/{os.path.basename(os.path.normpath(sf))}"
        shutil.rmtree(state, ignore_errors=True)
        docs = _read(sf, "documents").to_pandas().sort_values("doc_id")
        cuts = [0, len(docs) // 3, 2 * len(docs) // 3, len(docs)]
        outs = []
        for i in range(3):
            chunk = docs.iloc[cuts[i]:cuts[i + 1]]
            ds = ray.data.from_pandas(
                [chunk.iloc[:len(chunk) // 2], chunk.iloc[len(chunk) // 2:]])
            out, _ = incremental_dedup(ds, state)
            outs.append(out.to_pandas()[["doc_id", "source"]])
        return (pd.concat(outs, ignore_index=True)
                .sort_values("doc_id").reset_index(drop=True))

    q["doc_incremental_dedup"] = doc_incr_dedup

    def ev_rolling_time(sf):
        """Time-RANGE rolling sum: per event, exact integer-cents sum of
        the trailing 10 minutes within its user — per-(key, ts) totals
        (the reduction that makes RANGE tie semantics exact), one sort,
        window-bounded boundary carries, composite-key join back."""
        from parquet_hs_ray.pipelines.windows import rolling_time_sum

        return rolling_time_sum(_read(sf, "events"),
                                interval_us=600_000_000)

    q["events_rolling_time"] = ev_rolling_time

    def ev_ewma(sf):
        """EWMA by distributed linear-recurrence scan: block-local seeded
        scans + scalar boundary carries (a seeded segment == a carried
        segment with c = x1, since alpha + (1-alpha) = 1).  Rows-only by
        nature (float recurrence; ~1e-12 parity vs sequential pandas is
        pytest-asserted)."""
        from parquet_hs_ray.pipelines.windows import ewma

        return ewma(_read(sf, "events"), alpha=0.25)

    q["events_ewma"] = ev_ewma

    def doc_extract(sf):
        """Vectorized regexp capture: the word preceding 'table' (first
        match per doc, '' when absent — DuckDB regexp_extract
        semantics); pure streaming map, no shuffle."""
        return cleaning.extract_pattern(
            _read(sf, "documents"), "text", r"(\w+) table",
            out_col="before_table", id_cols=["doc_id"])

    q["doc_extract"] = doc_extract

    def cms_terms(sf):
        """Count-min sketch heavy hitters: mergeable depth x width counter
        grid (bounded shuffle, corpus-size-independent), deterministic
        overestimate-only estimates — the whole sketch replays in SQL."""
        from parquet_hs_ray.pipelines.stats import cms_top_terms

        return cms_top_terms(_read(sf, "documents"), k=25)

    q["cms_top_terms"] = cms_terms
    return q


def _plant_neardups(t):
    """SRP-LSH demo corpus: plant jittered near-duplicates (vec_id + 1e6,
    x + 0.05*roll(x): cos ~ 0.998) of the first 20 vectors so rows-only
    checks count real finds — deterministic (fixed jitter), no RNG state
    at runtime.  Shared by emb_neardup_srp and emb_clusters_srp (the two
    checks must run on the SAME planted corpus)."""
    import numpy as np
    import pyarrow as pa

    ids = t["vec_id"].combine_chunks().to_numpy(zero_copy_only=False)
    keep = ids < 20
    if not keep.any():
        return t
    flat = t["embedding"].combine_chunks().values.to_numpy(zero_copy_only=False)
    M = flat.reshape(len(ids), -1).astype(np.float64)
    J = (M[keep] + 0.05 * np.roll(M[keep], 1, axis=1)).astype(np.float32)
    extra = pa.table({
        "vec_id": pa.array((ids[keep] + 1_000_000).astype(np.int64)),
        "embedding": pa.array(list(J), pa.list_(pa.float32())),
        "label": t["label"].filter(pa.array(keep)),
    }).cast(t.schema)
    return pa.concat_tables([t, extra])


# PII-style scrub rules for the demo query: the rule list is data; these
# two hit the synthetic corpus (which has no emails/phones) so the
# redaction path is actually exercised end-to-end.
_SCRUB_RULES = [(r"\b(customer|part)\b", "<ENT>"), (r"\b(value|key)\b", "<VAL>")]

# pivot categories for the demo query (the synthetic events vocabulary;
# at scale the caller discovers these with a distinct pass)
_EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]


_WS_COUNT = (
    "CASE WHEN trim(text) = '' THEN 0 "
    "ELSE len(string_split_regex(trim(text), '\\s+')) END"
)


def oracle_sql() -> dict[str, str]:
    o = {t: f"SELECT * FROM {t}" for t in _TABLES}
    o = {f"roundtrip_{t}": sql for t, sql in o.items()}
    o["doc_token_count"] = (
        f"SELECT doc_id, ({_WS_COUNT})::BIGINT AS n_ws_tokens FROM documents"
    )
    o["doc_quality"] = (
        "SELECT doc_id, length(text)::BIGINT AS n_chars_c, "
        "length(regexp_replace(text, '[^A-Za-z]', '', 'g'))::BIGINT AS n_alpha, "
        "length(regexp_replace(text, '[^0-9]', '', 'g'))::BIGINT AS n_digit, "
        "length(regexp_replace(text, '[^A-Z]', '', 'g'))::BIGINT AS n_upper, "
        "len(regexp_extract_all(text, '\\s+'))::BIGINT AS n_ws, "
        "length(regexp_replace(text, '[^A-Za-z]', '', 'g'))::DOUBLE / "
        "greatest(length(text), 1) AS alpha_ratio "
        "FROM documents"
    )
    o["doc_fingerprint"] = "SELECT doc_id, md5(text) AS fingerprint_md5 FROM documents"
    o["doc_mix"] = (
        "SELECT * FROM documents WHERE"
        " (('0x' || substr(md5(doc_id::VARCHAR), 1, 8))::UBIGINT % 100) <"
        " (CASE source WHEN 'src1' THEN 50 WHEN 'src2' THEN 25"
        "  WHEN 'src3' THEN 0 ELSE 100 END)"
    )
    # doc_sample_n: fixed-size deterministic sample — ORDER BY md5 LIMIT n
    o["doc_sample_n"] = (
        "SELECT doc_id, source, n_chars FROM documents"
        " ORDER BY md5('42:' || doc_id::VARCHAR), doc_id LIMIT 100"
    )
    # doc_splits: the deterministic_mix hash rule partitioning the id
    # space into cumulative-percent buckets
    o["doc_splits"] = (
        "SELECT *, CASE"
        " WHEN (('0x' || substr(md5(doc_id::VARCHAR), 1, 8))::UBIGINT % 100)"
        " < 80 THEN 'train'"
        " WHEN (('0x' || substr(md5(doc_id::VARCHAR), 1, 8))::UBIGINT % 100)"
        " < 90 THEN 'val' ELSE 'test' END AS split FROM documents"
    )
    from parquet_hs_ray.functions.sql_oracles import weighted_sample_sql

    o["doc_sample_weighted"] = weighted_sample_sql(
        "documents", "n_chars", rate_per_unit=1 / 4000, seed=7)
    o["doc_top_terms"] = (
        "WITH words AS (SELECT doc_id, unnest(regexp_extract_all(lower(text),"
        " '[a-z0-9]+')) AS w FROM documents),"
        " tf AS (SELECT doc_id, w, count(*)::BIGINT AS tf FROM words GROUP BY doc_id, w),"
        " df AS (SELECT w, count(*)::BIGINT AS df FROM"
        "   (SELECT DISTINCT doc_id, w FROM words) GROUP BY w),"
        " ranked AS (SELECT tf.doc_id, tf.w, tf.tf, df.df,"
        "   row_number() OVER (PARTITION BY tf.doc_id"
        "     ORDER BY tf.tf DESC, df.df ASC, tf.w) AS rank"
        "   FROM tf JOIN df ON tf.w = df.w)"
        " SELECT doc_id, w AS word, tf, df, rank::BIGINT AS rank"
        " FROM ranked WHERE rank <= 3"
    )
    # doc_bm25: BM25 relevance with a float-exact twin (libm ln, fixed
    # op order, sorted-term + chain — see sql_oracles.bm25_sql)
    from parquet_hs_ray.functions.sql_oracles import bm25_sql

    o["doc_bm25"] = bm25_sql("documents", ["column", "merge", "zebra"])
    # doc_vocab_coverage: cumulative-coverage sweep == running-sum window
    # over the (count desc, word) vocabulary order
    o["doc_vocab_coverage"] = (
        "WITH w AS (SELECT unnest(regexp_extract_all(lower(text),"
        " '[a-z0-9]+')) AS word FROM documents),"
        " c AS (SELECT word, count(*)::BIGINT AS n FROM w GROUP BY word),"
        " r AS (SELECT sum(n) OVER (ORDER BY n DESC, word"
        "   ROWS UNBOUNDED PRECEDING)::BIGINT AS cum,"
        "   row_number() OVER (ORDER BY n DESC, word) AS rk FROM c),"
        " t AS (SELECT sum(n)::BIGINT AS total, count(*)::BIGINT AS v FROM c),"
        " sz(size) AS (VALUES (8), (32), (128))"
        " SELECT sz.size::BIGINT AS size,"
        " (SELECT cum FROM r WHERE rk = least(sz.size, t.v))::BIGINT"
        "   AS n_covered, t.total AS n_total,"
        " ((SELECT cum FROM r WHERE rk = least(sz.size, t.v))::DOUBLE"
        "   / t.total) AS coverage,"
        " ((t.total - (SELECT cum FROM r WHERE rk = least(sz.size, t.v)))"
        "   ::DOUBLE / t.total) AS oov_rate"
        " FROM sz CROSS JOIN t"
    )
    # doc_inverted_index: capped-posting inverted index; DISTINCT pairs ->
    # ordered list() capped with list_slice; n_docs stays the exact df
    o["doc_inverted_index"] = (
        "WITH pairs AS (SELECT DISTINCT doc_id,"
        " unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS word"
        " FROM documents)"
        " SELECT word, count(*)::BIGINT AS n_docs,"
        " list_slice(list(doc_id ORDER BY doc_id), 1, 8) AS postings"
        " FROM pairs GROUP BY word"
    )
    # corpus_curate_v2: the surprisal CTE + integer cross-multiplied band
    # + the md5 split CASE, chained (compositions of oracled stages)
    o["corpus_curate_v2"] = (
        "WITH words AS (SELECT doc_id, unnest(regexp_extract_all(lower(text),"
        " '[a-z0-9]+')) AS word FROM documents),"
        " freq AS (SELECT word, count(*)::BIGINT AS c FROM words GROUP BY word),"
        " tot AS (SELECT count(*)::BIGINT AS n,"
        "   (SELECT count(*) FROM freq)::BIGINT AS v FROM words),"
        " s AS (SELECT w.doc_id,"
        "   (length(printf('%b', ((t.n + t.v) // (f.c + 1))))::BIGINT - 1) AS sv"
        "   FROM words w JOIN freq f USING (word) CROSS JOIN tot t),"
        " agg AS (SELECT doc_id, count(*)::BIGINT AS n_words,"
        "   sum(sv)::BIGINT AS surprisal_sum FROM s GROUP BY doc_id),"
        " kept AS (SELECT d.doc_id, d.source, a.n_words, a.surprisal_sum"
        "   FROM documents d JOIN agg a USING (doc_id)"
        "   WHERE a.n_words > 0"
        "   AND 4015 * a.n_words <= 1000 * a.surprisal_sum"
        "   AND 1000 * a.surprisal_sum <= 4060 * a.n_words)"
        " SELECT *, CASE"
        " WHEN (('0x' || substr(md5(doc_id::VARCHAR), 1, 8))::UBIGINT % 100)"
        " < 80 THEN 'train'"
        " WHEN (('0x' || substr(md5(doc_id::VARCHAR), 1, 8))::UBIGINT % 100)"
        " < 90 THEN 'val' ELSE 'test' END AS split FROM kept"
    )
    # doc_surprisal: add-one-smoothed unigram surprisal in pure integer
    # arithmetic — floor(log2(k)) on both sides via bit-length
    # (length(printf('%b', k)) - 1 in DuckDB, int.bit_length - 1 in Ray)
    o["doc_surprisal"] = (
        "WITH words AS (SELECT doc_id, unnest(regexp_extract_all(lower(text),"
        " '[a-z0-9]+')) AS word FROM documents),"
        " freq AS (SELECT word, count(*)::BIGINT AS c FROM words GROUP BY word),"
        " tot AS (SELECT count(*)::BIGINT AS n,"
        "   (SELECT count(*) FROM freq)::BIGINT AS v FROM words),"
        " s AS (SELECT w.doc_id,"
        "   (length(printf('%b', ((t.n + t.v) // (f.c + 1))))::BIGINT - 1) AS sv"
        "   FROM words w JOIN freq f USING (word) CROSS JOIN tot t),"
        " agg AS (SELECT doc_id, count(*)::BIGINT AS n_words,"
        "   sum(sv)::BIGINT AS surprisal_sum FROM s GROUP BY doc_id)"
        " SELECT d.doc_id, coalesce(a.n_words, 0)::BIGINT AS n_words,"
        " coalesce(a.surprisal_sum, 0)::BIGINT AS surprisal_sum"
        " FROM documents d LEFT JOIN agg a USING (doc_id)"
    )
    # doc_dsir: DSIR importance scores — hashed unigram+bigram buckets
    # via the shared recursive word-hash CTE, bit-length floor-log2
    # ratio weights (integer-exact on both sides)
    from parquet_hs_ray.functions.sql_oracles import dsir_sql

    o["doc_dsir"] = dsir_sql("documents", target_mod=7, n_buckets=256)
    # source_top_terms: per-source trending vocabulary == one window
    o["source_top_terms"] = (
        "WITH words AS (SELECT source, unnest(regexp_extract_all(lower(text),"
        " '[a-z0-9]+')) AS word FROM documents),"
        " c AS (SELECT source, word, count(*)::BIGINT AS n FROM words"
        " GROUP BY source, word),"
        " r AS (SELECT source, word, n, row_number() OVER (PARTITION BY source"
        " ORDER BY n DESC, word) AS rank FROM c)"
        " SELECT source, word, n, rank::BIGINT AS rank FROM r WHERE rank <= 5"
    )
    o["top_terms"] = (
        "WITH words AS (SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS word"
        " FROM documents),"
        " c AS (SELECT word, count(*)::BIGINT AS n FROM words GROUP BY word)"
        " SELECT word, n FROM c ORDER BY n DESC, word LIMIT 50"
    )
    # decode_f1: the decoded blob store must equal the synthetic source
    # table bit-for-bit; the source is deterministic and cached on disk, so
    # DuckDB can read it directly (VERDICT r1 #6).
    from parquet_hs_ray.sources.synth import cached_dataset

    f1_src = cached_dataset(_F1_ROWS, seed=42, n_files=4)
    o["decode_f1"] = f"SELECT * FROM read_parquet('{f1_src}/*.parquet')"
    # pack_sequences conservation: packed token total == source token
    # total; the max chunk is exactly context_len because every input
    # block carries >= context_len tokens (fixed 2000-row synth table)
    o["pack_conservation"] = (
        f"SELECT sum(n_tok)::BIGINT AS total_packed_tokens, "
        f"least(2048, sum(n_tok))::BIGINT AS max_chunk "
        f"FROM read_parquet('{f1_src}/*.parquet')")
    o["decode_f1_contains"] = (
        f"SELECT * FROM read_parquet('{f1_src}/*.parquet') "
        "WHERE list_contains(tokens, 777)")
    o["decode_f1_backfill"] = (
        f"SELECT *, COALESCE(CAST(list_sum(tokens) AS BIGINT), 0) AS tok_sum "
        f"FROM read_parquet('{f1_src}/*.parquet')")
    # DELETE WHERE semantics: only TRUE deletes, so the survivor set is
    # `pred IS NOT TRUE` per delete (no NULLs in the synth table, but the
    # twin states the exact rule)
    o["decode_f1_deleted"] = (
        f"SELECT * FROM read_parquet('{f1_src}/*.parquet') "
        "WHERE (n_tok > 900) IS NOT TRUE AND (source = 'web') IS NOT TRUE")
    o["decode_f1_in"] = (
        f"SELECT * FROM read_parquet('{f1_src}/*.parquet') "
        "WHERE source IN ('wiki', 'news', 'papers')")
    # the snapshot pins the state after the FIRST delete only
    o["decode_f1_snapshot"] = (
        f"SELECT * FROM read_parquet('{f1_src}/*.parquet') "
        "WHERE (n_tok > 900) IS NOT TRUE")
    # token_remap: frequency-rank vocabulary compaction — rank rule
    # (count desc, token_id asc) as one window, list rebuilt in position
    # order (generate_subscripts), value type preserved (INTEGER)
    o["token_remap"] = f"""
WITH f AS (SELECT * FROM read_parquet('{f1_src}/*.parquet')),
u AS MATERIALIZED (
  SELECT doc_id, unnest(tokens) AS t, generate_subscripts(tokens, 1) AS pos
  FROM f),
cnt AS (SELECT t, count(*)::BIGINT AS n FROM u GROUP BY t),
rk AS (SELECT t, (row_number() OVER (ORDER BY n DESC, t ASC) - 1)::INTEGER
         AS new_id FROM cnt),
l AS (SELECT u.doc_id, list(rk.new_id ORDER BY u.pos) AS tokens
      FROM u JOIN rk USING (t) GROUP BY u.doc_id)
SELECT f.doc_id, coalesce(l.tokens, []::INTEGER[]) AS tokens, f.n_tok, f.source
FROM f LEFT JOIN l USING (doc_id) ORDER BY f.doc_id
"""
    # training-prep family: deterministic MLM masking (splitmix chain
    # replay), next-token label shift, head truncation
    from parquet_hs_ray.functions.sql_oracles import (
        mask_tokens_sql, shift_labels_sql, truncate_sequences_sql)

    _f1_tbl = f"read_parquet('{f1_src}/*.parquet')"
    from parquet_hs_ray.functions.sql_oracles import span_dedup_rewrite_tokens_sql

    from parquet_hs_ray.functions.sql_oracles import repetition_tokens_sql

    o["token_repetition"] = repetition_tokens_sql(_f1_tbl, ngram=3)
    o["token_bigram_surprisal"] = f"""
WITH u AS MATERIALIZED (SELECT doc_id, unnest(tokens) AS t,
       generate_subscripts(tokens, 1) AS pos FROM {_f1_tbl}),
bg AS MATERIALIZED (SELECT x.doc_id, x.t AS a, y.t AS b
      FROM u x JOIN u y ON y.doc_id = x.doc_id AND y.pos = x.pos + 1),
cnt AS (SELECT a, b, count(*)::BIGINT AS n FROM bg GROUP BY a, b),
cp AS (SELECT a, sum(n)::BIGINT AS np FROM cnt GROUP BY a),
d AS (SELECT count(*)::BIGINT AS nd FROM cnt),
sv AS (SELECT cnt.a, cnt.b,
       (length(printf('%b', (cp.np + d.nd) // (cnt.n + 1))) - 1)::BIGINT AS sv
       FROM cnt JOIN cp USING (a) CROSS JOIN d),
agg AS (SELECT bg.doc_id, count(*)::BIGINT AS n_bigrams,
        sum(sv.sv)::BIGINT AS surprisal_sum
        FROM bg JOIN sv ON sv.a = bg.a AND sv.b = bg.b GROUP BY bg.doc_id)
SELECT f.doc_id, coalesce(agg.n_bigrams, 0)::BIGINT AS n_bigrams,
       coalesce(agg.surprisal_sum, 0)::BIGINT AS surprisal_sum
FROM {_f1_tbl} f LEFT JOIN agg USING (doc_id) ORDER BY f.doc_id
"""
    o["token_dedup_exact"] = (
        f"SELECT min(doc_id) AS doc_id, count(*)::BIGINT AS n_dups "
        f"FROM {_f1_tbl} GROUP BY tokens")
    o["token_budget_mix"] = f"""
WITH c AS (SELECT source, sum(n_tok)::BIGINT AS toks FROM {_f1_tbl} GROUP BY source),
w AS (SELECT source, toks, pow(toks, 0.5) AS wt FROM c),
t AS (SELECT source, CAST(floor(2000000.0 * wt / (SELECT sum(wt) FROM w)) AS BIGINT) AS quota FROM w),
r AS (SELECT doc_id, source, n_tok,
      sum(n_tok::BIGINT) OVER (PARTITION BY source
        ORDER BY md5('42:' || doc_id), doc_id) AS cum FROM {_f1_tbl})
SELECT r.doc_id, r.source, r.n_tok FROM r JOIN t USING (source)
WHERE cum <= t.quota ORDER BY doc_id
"""
    # int64 doc key: the SQL twin of queries()._f1_with_dk
    _dk_expr = "CAST(substr(doc_id, 5) AS BIGINT)"
    o["token_span_rewrite"] = span_dedup_rewrite_tokens_sql(
        _f1_tbl, dk_expr=_dk_expr, window=5)
    o["token_mask_mlm"] = mask_tokens_sql(_f1_tbl, mask_id=50_000,
                                          rate_pct=15, seed=1)
    o["token_shift_labels"] = shift_labels_sql(_f1_tbl)
    o["token_truncate"] = truncate_sequences_sql(_f1_tbl, max_len=128)
    # FIM (PSM reorder): selection + split points all from md5(doc_id)
    # hex slices; 1-based inclusive list slices mirror tokens[:a]/[a:b]/[b:]
    o["token_fim"] = f"""
WITH f AS (SELECT doc_id, tokens, source, md5(doc_id) AS hx,
                  coalesce(len(tokens), 0) AS n FROM {_f1_tbl}),
s AS (SELECT *, (('0x' || substr(hx, 1, 8))::UBIGINT % 100) AS bucket,
             ('0x' || substr(hx, 9, 8))::BIGINT AS h1,
             ('0x' || substr(hx, 17, 8))::BIGINT AS h2 FROM f),
p AS (SELECT *, (bucket < 50 AND n >= 2) AS fim,
      CASE WHEN bucket < 50 AND n >= 2 THEN 1 + h1 % (n - 1) END AS a FROM s),
p2 AS (SELECT *, CASE WHEN fim THEN a + h2 % (n - a) END AS b FROM p)
SELECT doc_id,
  CASE WHEN fim THEN [50281]::INTEGER[] || tokens[1:a] || [50282]::INTEGER[]
                     || tokens[b+1:n] || [50283]::INTEGER[] || tokens[a+1:b]
       ELSE tokens END AS tokens,
  CAST(CASE WHEN fim THEN n + 3 ELSE n END AS INTEGER) AS n_tok,
  source, fim
FROM p2 ORDER BY doc_id
"""
    from parquet_hs_ray.functions.sql_oracles import span_corrupt_sql

    o["token_span_corrupt"] = span_corrupt_sql(
        _f1_tbl, dk_expr=_dk_expr,
        span_len=3, rate_pct=15)
    from parquet_hs_ray.functions.sql_oracles import chunk_sequences_sql

    o["token_chunk"] = chunk_sequences_sql(_f1_tbl, max_len=96, stride=64)
    from parquet_hs_ray.functions.sql_oracles import ngram_novelty_tokens_sql

    o["token_ngram_novelty"] = ngram_novelty_tokens_sql(
        _f1_tbl, ngram=3, common_df=2)
    from parquet_hs_ray.functions.sql_oracles import ul2_mixture_sql

    o["token_ul2"] = ul2_mixture_sql(
        _f1_tbl, dk_expr=_dk_expr)
    # doc-start positions per packed sequence: one running-sum window
    o["pack_doc_starts"] = f"""
WITH d AS (SELECT doc_id, coalesce(len(tokens), 0) AS n
           FROM read_parquet('{f1_src}/*.parquet')),
s AS (SELECT doc_id,
             coalesce(sum(n) OVER (ORDER BY doc_id
               ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS g
      FROM d)
SELECT CAST(g // 2048 AS BIGINT) AS seq_id,
       list(CAST(g % 2048 AS BIGINT) ORDER BY g) AS doc_starts
FROM s GROUP BY seq_id
"""
    from parquet_hs_ray.functions.sql_oracles import minhash_tokens_pairs_sql

    _tok_corpus = (
        f"(SELECT doc_id, tokens FROM read_parquet('{f1_src}/*.parquet')"
        f" WHERE n_tok <= 200"
        f" UNION ALL"
        f" SELECT 'dup_' || doc_id, tokens FROM read_parquet('{f1_src}/*.parquet')"
        f" WHERE n_tok <= 200 AND doc_id LIKE '%0')"
    )
    o["dedup_minhash_tokens"] = minhash_tokens_pairs_sql(_tok_corpus,
                                                         threshold=0.8)
    from parquet_hs_ray.functions.sql_oracles import simhash_tokens_pairs_sql

    o["dedup_simhash_tokens"] = simhash_tokens_pairs_sql(_tok_corpus,
                                                         max_hamming=3)
    from parquet_hs_ray.functions.sql_oracles import decontaminate_tokens_sql

    o["doc_decontaminate_tokens"] = decontaminate_tokens_sql(
        union_table=(f"(SELECT doc_id, tokens FROM "
                     f"read_parquet('{f1_src}/*.parquet') "
                     f"WHERE n_tok <= 200 OR doc_id LIKE '%7')"),
        corpus_table=(f"(SELECT doc_id FROM read_parquet('{f1_src}/*.parquet') "
                      f"WHERE n_tok <= 200)"),
        bench_pred="doc_id LIKE '%7'")
    # pack_global: canonical concat-and-chunk is a pure function of the
    # data in doc_id order — global token position via one window, group
    # by gpos // context_len (zero-padded doc ids make string order ==
    # numeric order in both engines)
    o["pack_global"] = (
        f"WITH t AS (SELECT doc_id, tokens FROM read_parquet('{f1_src}/*.parquet')),"
        " tok AS (SELECT doc_id, unnest(tokens) AS tok,"
        "         unnest(range(1, len(tokens) + 1)) AS i FROM t),"
        " g AS (SELECT tok, row_number() OVER (ORDER BY doc_id, i) - 1 AS gpos FROM tok)"
        " SELECT gpos // 2048 AS seq_id, list(tok ORDER BY gpos) AS tokens,"
        " count(*)::INT AS n_tok FROM g GROUP BY seq_id"
    )
    # f1_len_hist: sequence-length distribution per source
    o["f1_len_hist"] = (
        f"SELECT source, floor(n_tok / 256.0)::BIGINT AS bin,"
        " count(*)::BIGINT AS n"
        f" FROM read_parquet('{f1_src}/*.parquet') GROUP BY source, bin"
    )
    # f1_length_batches: length-bucketed dynamic batching — one window
    # function (zero-padded doc ids make string order deterministic)
    o["f1_length_batches"] = (
        f"WITH r AS (SELECT doc_id, (n_tok // 256)::BIGINT AS bucket,"
        " row_number() OVER (PARTITION BY n_tok // 256 ORDER BY doc_id) - 1 AS rk"
        f" FROM read_parquet('{f1_src}/*.parquet'))"
        " SELECT doc_id, bucket, (rk // 32)::BIGINT AS batch_id,"
        " (rk % 32)::BIGINT AS pos FROM r"
    )
    # doc_lang_id: full SQL re-implementation of the marker-word heuristic
    # (word split, per-language hit ratio, argmax with ascending-code
    # tie-break, zero-word docs -> 'unk').
    markers = ", ".join(
        f"('{lg}', '{w}')"
        for lg in sorted(_LANG_MARKERS)
        for w in sorted(_LANG_MARKERS[lg])
    )
    o["doc_lang_id"] = (
        "WITH words AS ("
        " SELECT doc_id, unnest(regexp_extract_all(lower(text),"
        " '[a-zàâäéèêëïîôöùûüáíóúñç]+')) AS w FROM documents),"
        f" markers(lang, w) AS (VALUES {markers}),"
        " counts AS (SELECT doc_id, count(*) AS n_words FROM words GROUP BY doc_id),"
        " hits AS (SELECT words.doc_id, markers.lang, count(*) AS h"
        "   FROM words JOIN markers ON words.w = markers.w GROUP BY words.doc_id, markers.lang),"
        " scored AS (SELECT c.doc_id, l.lang,"
        "   coalesce(h.h, 0)::DOUBLE / c.n_words AS score"
        "   FROM counts c CROSS JOIN (SELECT DISTINCT lang FROM markers) l"
        "   LEFT JOIN hits h ON h.doc_id = c.doc_id AND h.lang = l.lang),"
        " best AS (SELECT doc_id, lang, score,"
        "   row_number() OVER (PARTITION BY doc_id ORDER BY score DESC, lang) AS rn"
        "   FROM scored)"
        " SELECT d.doc_id,"
        "  CASE WHEN coalesce(b.score, 0.0) > 0 THEN b.lang ELSE 'unk' END AS lang_pred,"
        "  coalesce(b.score, 0.0) AS lang_score"
        " FROM documents d LEFT JOIN best b ON b.doc_id = d.doc_id AND b.rn = 1"
    )
    o["stats_by_source"] = (
        "SELECT source, count(*)::BIGINT AS n_docs, sum(n_chars)::BIGINT AS sum_chars, "
        f"sum(({_WS_COUNT}))::BIGINT AS sum_ws_tokens FROM documents GROUP BY source"
    )
    o["dedup_exact"] = (
        "SELECT min(doc_id) AS doc_id, count(*)::BIGINT AS n_dups "
        "FROM documents GROUP BY text"
    )
    o["dedup_norm"] = (
        "SELECT min(doc_id) AS doc_id, count(*)::BIGINT AS n_dups FROM documents "
        "GROUP BY trim(regexp_replace(lower(text), '\\s+', ' ', 'g'))"
    )
    o["dedup_assign"] = (
        "SELECT doc_id, min(doc_id) OVER (PARTITION BY text) AS canonical_id "
        "FROM documents"
    )
    o["emb_neardup"] = (
        "SELECT a.vec_id AS a, b.vec_id AS b FROM embeddings a, embeddings b "
        "WHERE a.vec_id < b.vec_id "
        "AND list_cosine_similarity(a.embedding, b.embedding) >= 0.5"
    )
    # emb_centroids: micro-unit integer sums -> (s/1e6)/n double mean,
    # identical op order; parallel unnest carries the dimension index
    o["emb_centroids"] = (
        "WITH x AS (SELECT label, unnest(embedding)::DOUBLE AS v,"
        " unnest(range(1, len(embedding) + 1)) AS dim FROM embeddings),"
        " s AS (SELECT label, dim,"
        " sum(CAST(round_even(v * 1000000, 0) AS BIGINT))::BIGINT AS sq,"
        " count(*)::BIGINT AS n FROM x GROUP BY label, dim)"
        " SELECT label, min(n)::BIGINT AS n,"
        " list((sq::DOUBLE / 1000000.0) / n::DOUBLE ORDER BY dim)"
        " AS centroid FROM s GROUP BY label"
    )
    o["ann_topk"] = (
        "WITH sims AS ("
        " SELECT q.vec_id AS query_id, c.vec_id AS neighbor_id,"
        "        list_cosine_similarity(q.embedding, c.embedding) AS sim"
        " FROM embeddings q, embeddings c"
        " WHERE q.vec_id < 5 AND c.vec_id != q.vec_id)"
        " SELECT query_id, neighbor_id, rank FROM ("
        "  SELECT query_id, neighbor_id,"
        "         row_number() OVER (PARTITION BY query_id ORDER BY sim DESC, neighbor_id) AS rank"
        "  FROM sims) t WHERE rank <= 10"
    )
    # cross-corpus top-k join: same float contract as ann_topk
    o["emb_ann_join"] = (
        "WITH l AS (SELECT vec_id, embedding FROM embeddings WHERE vec_id % 10 = 7),"
        " r AS (SELECT vec_id, embedding FROM embeddings WHERE vec_id % 10 != 7),"
        " sims AS ("
        " SELECT l.vec_id AS query_id, r.vec_id AS neighbor_id,"
        "        list_cosine_similarity(l.embedding, r.embedding) AS sim"
        " FROM l CROSS JOIN r)"
        " SELECT query_id, neighbor_id, rank FROM ("
        "  SELECT query_id, neighbor_id,"
        "         row_number() OVER (PARTITION BY query_id ORDER BY sim DESC, neighbor_id) AS rank"
        "  FROM sims) t WHERE rank <= 5"
    )
    # events_asof: DuckDB's native ASOF JOIN is the oracle; right-side
    # ties at identical (user_id, ts) are deduped to the max event_id in
    # BOTH engines (our sort key ends on the right id; SQL row_number),
    # since ASOF's own tie behavior is unspecified.
    o["events_asof"] = (
        "WITH l AS (SELECT user_id, ts, event_id FROM events"
        "  WHERE event_type = 'purchase'),"
        " r AS (SELECT user_id, ts, event_id, value,"
        "   row_number() OVER (PARTITION BY user_id, ts ORDER BY event_id DESC) AS rn"
        "   FROM events WHERE event_type = 'click'),"
        " r1 AS (SELECT user_id, ts, event_id, value FROM r WHERE rn = 1)"
        " SELECT l.user_id, l.ts, l.event_id,"
        "   r1.event_id AS matched_event_id, r1.value AS matched_value"
        " FROM l ASOF LEFT JOIN r1 ON l.user_id = r1.user_id AND l.ts >= r1.ts"
    )
    # events_range_join: plain inequality join is the oracle (all clicks
    # in the 2h window preceding each purchase, per user)
    o["events_range_join"] = (
        "SELECT l.user_id, l.ts, l.event_id,"
        " r.event_id AS matched_event_id, r.ts AS matched_ts"
        " FROM (SELECT * FROM events WHERE event_type = 'purchase') l"
        " JOIN (SELECT * FROM events WHERE event_type = 'click') r"
        " ON l.user_id = r.user_id AND r.ts <= l.ts"
        " AND r.ts >= l.ts - INTERVAL 2 HOUR"
    )
    o["events_window"] = (
        "SELECT user_id, (epoch_us(ts) // 3600000000)::BIGINT AS win, "
        "count(*)::BIGINT AS n_events, round(sum(value), 6) AS sum_value "
        "FROM events GROUP BY user_id, win"
    )
    o["events_hopping"] = (
        "SELECT user_id, win, count(*)::BIGINT AS n_events, "
        "round(sum(value), 6) AS sum_value FROM ("
        " SELECT user_id, value, (epoch_us(ts) // 1800000000) - i AS win"
        " FROM events, range(2) t(i))"
        " GROUP BY user_id, win"
    )
    o["events_sessions"] = (
        "WITH gaps AS ("
        " SELECT user_id, ts, "
        "        CASE WHEN epoch_us(ts) - lag(epoch_us(ts)) OVER "
        "             (PARTITION BY user_id ORDER BY ts) > 1800000000 "
        "        THEN 1 ELSE 0 END AS brk"
        " FROM events)"
        " SELECT user_id, (sum(brk) + 1)::BIGINT AS n_sessions, "
        "        count(*)::BIGINT AS n_events"
        " FROM gaps GROUP BY user_id"
    )
    # dedup_simhash: signature math (splitmix64 over char-5-shingles ->
    # 64-bit majority vote) emulated EXACTLY over DuckDB HUGEINT, then
    # banding + bit_count(xor) verify — generated SQL (VERDICT r2 #2)
    from parquet_hs_ray.functions.sql_oracles import minhash_pairs_sql, simhash_pairs_sql

    o["dedup_simhash"] = simhash_pairs_sql("documents", max_hamming=3)
    # dedup_minhash: the full LSH pipeline replayed in SQL — word hashes
    # (recursive splitmix64 byte chain), 3-gram shingle chain, 64
    # permutations, 16x4 banding, candidate join, exact-Jaccard verify.
    # Possible because the word hash is the same public splitmix64
    # finalizer as every other sketch kernel (not an opaque siphash).
    o["dedup_minhash"] = minhash_pairs_sql("documents", threshold=0.8)
    # dedup_clusters: connected components over the same near-dup graph,
    # via recursive transitive closure (min label per component)
    from parquet_hs_ray.functions.sql_oracles import minhash_clusters_sql

    o["dedup_clusters"] = minhash_clusters_sql("documents", threshold=0.8)
    # dedup_jaccard: EXACT all-pairs n-gram Jaccard (no LSH) — complete
    # via the shingle-intersection join for any threshold > 0
    from parquet_hs_ray.functions.sql_oracles import jaccard_pairs_sql

    o["dedup_jaccard"] = jaccard_pairs_sql("documents", threshold=0.8)
    # dedup_by_source: per-source duplication audit
    o["dedup_by_source"] = (
        "SELECT source, count(*)::BIGINT AS n_docs,"
        " count(DISTINCT text)::BIGINT AS n_distinct,"
        " (count(*) - count(DISTINCT text))::BIGINT AS n_dups"
        " FROM documents GROUP BY source"
    )
    # dedup_containment: directed |src∩dst|/|src| (quote/excerpt dedup)
    from parquet_hs_ray.functions.sql_oracles import containment_pairs_sql

    o["dedup_containment"] = containment_pairs_sql("documents", threshold=0.5)
    # emb_quantize / emb_dequantize: the int8 grid math re-expressed over
    # list lambdas; round_even matches numpy's banker's rounding, and the
    # float32 boundaries are reproduced by computing in DOUBLE (exact for
    # int8-code x float32-scale products) and casting at the same points
    # as the kernel (VERDICT r2 #6).
    _AMAX = "greatest(list_max(list_transform(embedding, x -> abs(x)))::DOUBLE, 1e-30)"
    o["emb_quantize"] = (
        f"SELECT vec_id, (({_AMAX}) / 127.0)::FLOAT AS scale, "
        "len(embedding)::INT AS dim FROM embeddings"
    )
    # ann_topk_quantized: cosine top-k where the corpus side is the int8
    # reconstruction — the dequantize twin re-used as a CTE, queries exact
    o["ann_topk_quantized"] = (
        "WITH dq AS ("
        " SELECT vec_id, list_transform(embedding, x -> "
        "  (greatest(least(round_even(x::DOUBLE / amax * 127.0, 0), 127.0), -127.0)::TINYINT"
        "   * scale_d)::FLOAT) AS embedding "
        " FROM (SELECT vec_id, embedding, amax, ((amax / 127.0)::FLOAT)::DOUBLE AS scale_d "
        f"       FROM (SELECT vec_id, embedding, {_AMAX} AS amax FROM embeddings))),"
        " sims AS ("
        " SELECT q.vec_id AS query_id, c.vec_id AS neighbor_id,"
        "        list_cosine_similarity(q.embedding, c.embedding) AS sim"
        " FROM embeddings q, dq c"
        " WHERE q.vec_id < 5 AND c.vec_id != q.vec_id)"
        " SELECT query_id, neighbor_id, rank FROM ("
        "  SELECT query_id, neighbor_id,"
        "         row_number() OVER (PARTITION BY query_id ORDER BY sim DESC, neighbor_id) AS rank"
        "  FROM sims) t WHERE rank <= 10"
    )
    o["emb_dequantize"] = (
        # the ::TINYINT mirrors the kernel's .astype(int8) — it also folds
        # -0.0 codes to integer 0 so zero outputs are bitwise +0.0
        "SELECT vec_id, list_transform(embedding, x -> "
        " (greatest(least(round_even(x::DOUBLE / amax * 127.0, 0), 127.0), -127.0)::TINYINT"
        "  * scale_d)::FLOAT) AS embedding "
        "FROM (SELECT vec_id, embedding, amax, ((amax / 127.0)::FLOAT)::DOUBLE AS scale_d "
        f"      FROM (SELECT vec_id, embedding, {_AMAX} AS amax FROM embeddings))"
    )
    # doc_roll_fp: the uint64-wrap rolling hash replayed in a recursive
    # CTE — h*1000003 < 2^81 fits HUGEINT exactly, and `& (2^61-1)` equals
    # the kernel's wrap-then-mask because the mask keeps only low bits.
    o["doc_roll_fp"] = (
        "WITH RECURSIVE r AS ("
        " SELECT doc_id, 0::HUGEINT AS h, 1 AS i,"
        "        length(coalesce(text, '')) AS n, coalesce(text, '') AS t"
        " FROM documents"
        " UNION ALL"
        " SELECT doc_id,"
        "  (h * 1000003::HUGEINT + ord(substr(t, i, 1))::HUGEINT)"
        "   & 2305843009213693951::HUGEINT,"
        "  i + 1, n, t FROM r WHERE i <= n)"
        " SELECT doc_id, h::BIGINT AS fingerprint_roll FROM r WHERE i = n + 1"
    )
    # golden_parquet_decode: our page/level/value kernels vs DuckDB's own
    # parquet reader on the reference's committed golden file — an
    # INDEPENDENT decoder as the oracle (pyarrow bit-exactness is
    # additionally asserted in tests/test_format.py).
    o["golden_parquet_decode"] = (
        "SELECT "
        "coalesce(flatten(f1), []) AS f1_flat, "
        "coalesce(list_transform(f1, x -> coalesce(len(x), 0)), []) AS f1_lens, "
        + ", ".join(f"coalesce(f{i}, []) AS f{i}" for i in range(2, 7)) +
        " FROM read_parquet('/root/reference/tests/integration/test.parquet')"
    )
    # nested_kernel_decode: the general Dremel assembly flattened back to
    # scalars; DuckDB derives the same values relationally from nation.
    o["nested_kernel_decode"] = (
        "SELECT n_nationkey::BIGINT AS n_nationkey,"
        " CASE WHEN n_nationkey % 7 = 3 THEN '' ELSE n_name END AS s_name,"
        " (CASE WHEN n_nationkey % 7 = 3 THEN -1 ELSE n_regionkey END)::BIGINT"
        "  AS s_region,"
        " (n_nationkey % 3)::BIGINT AS ls_n,"
        " ((n_nationkey % 3) * n_nationkey)::BIGINT AS ls_k_sum,"
        " n_regionkey::BIGINT AS m_r,"
        " (1 + CASE WHEN n_nationkey % 2 = 0 THEN 1 ELSE 0 END)::BIGINT AS m_n"
        " FROM nation"
    )
    # kernel_writer_roundtrip: our thrift/level/value WRITE kernels with
    # DuckDB as the independent reader of the produced file.
    o["kernel_writer_roundtrip"] = (
        "SELECT vec_id, embedding, label FROM embeddings"
    )
    # kernel_sink_roundtrip: the distributed Datasink over the same
    # write kernels (events table exercises the timestamp logical type),
    # DuckDB reading the produced directory.
    o["kernel_sink_roundtrip"] = (
        "SELECT event_id, ts, user_id, event_type, value, props"
        " FROM events ORDER BY event_id"
    )
    # kernel_roundtrip_lz4: LZ4_RAW written by our kernels, DuckDB as
    # the independent reader (the Hadoop-framed LZ4 leg is asserted
    # in-query against our own reader — DuckDB rejects codec id 5).
    o["kernel_roundtrip_lz4"] = (
        "SELECT p_partkey, p_name, p_brand, p_size, p_retailprice"
        " FROM part ORDER BY p_partkey"
    )
    # kernel_read_dataset: distributed kernel READ (per-file decode
    # tasks, column-chunk pruning) over a kernel-sink'd v2/auto store.
    o["kernel_read_dataset"] = (
        "SELECT event_id, user_id, event_type FROM events"
        " ORDER BY event_id"
    )
    # kernel_read_pruned: stats-based row-group pruning + exact filter
    # on the kernel read path.
    o["kernel_read_pruned"] = (
        "SELECT l_orderkey, l_linenumber, l_quantity FROM lineitem"
        " WHERE l_orderkey <= 4000 AND l_linenumber > 1"
        " ORDER BY l_orderkey, l_linenumber"
    )
    # kernel_read_pruned_kernels: the same pruned read with OUR footer
    # parser supplying the statistics — zero pyarrow on the pruned path.
    o["kernel_read_pruned_kernels"] = (
        "SELECT l_orderkey, l_linenumber, l_quantity FROM lineitem"
        " WHERE l_orderkey <= 4000 AND l_linenumber > 1"
        " ORDER BY l_orderkey, l_linenumber"
    )
    # kernel_read_page_pruned: ColumnIndex/OffsetIndex page-granular
    # pruning inside surviving row groups, self-hosted end to end.
    o["kernel_read_page_pruned"] = (
        "SELECT l_orderkey, l_linenumber, l_quantity FROM lineitem"
        " WHERE l_orderkey <= 4000 AND l_linenumber > 1"
        " ORDER BY l_orderkey, l_linenumber"
    )
    # kernel_read_bloom_pruned: split-block bloom point lookup on an
    # unsorted high-cardinality column; probe = first row's comment.
    o["kernel_read_bloom_pruned"] = (
        "SELECT l_orderkey, l_linenumber, l_partkey FROM lineitem"
        " WHERE l_partkey = (SELECT min(l_partkey) FROM lineitem"
        "   WHERE l_orderkey = (SELECT min(l_orderkey) FROM lineitem))"
        " ORDER BY l_orderkey, l_linenumber"
    )
    # kernel_read_in_pruned: 'in' membership predicate through the
    # stats -> bloom -> dictionary pruning chain; probes data-derived.
    o["kernel_read_in_pruned"] = (
        "WITH probes AS ("
        "  SELECT min(l_partkey) AS p FROM lineitem"
        "   WHERE l_orderkey = (SELECT min(l_orderkey) FROM lineitem)"
        "  UNION"
        "  SELECT min(l_partkey) FROM lineitem"
        "   WHERE l_orderkey = (SELECT max(l_orderkey) FROM lineitem))"
        " SELECT l_orderkey, l_linenumber, l_partkey FROM lineitem"
        " WHERE l_partkey IN (SELECT p FROM probes)"
        " ORDER BY l_orderkey, l_linenumber"
    )
    # kernel_footer_decode: fully self-hosted read (our thrift footer
    # parser + page kernels + record assembly, zero pyarrow metadata).
    o["kernel_footer_decode"] = (
        "SELECT o_orderkey, o_custkey, o_orderstatus, o_orderdate"
        " FROM orders ORDER BY o_orderkey"
    )
    # encode_job_f1 (promoted from rows-only in r5, per the r4 verdict):
    # the skew-aware plan over the 4-file synthetic source lands one
    # partition per file at this budget (each file ~405k < 500k tokens,
    # one row group), so the deterministic manifest fields
    # (partition_id, row_count, n_tokens) replay as a per-file GROUP BY
    # over the same parquet input.
    o["encode_job_f1"] = (
        f"SELECT row_number() OVER (ORDER BY filename) - 1"
        f" AS partition_id, count(*)::BIGINT AS row_count,"
        f" sum(n_tok)::BIGINT AS n_tokens"
        f" FROM read_parquet('{f1_src}/*.parquet', filename=true)"
        f" GROUP BY filename ORDER BY partition_id"
    )
    # Rows-only remainder, with reasons: pack_sequences
    # (block-boundary-dependent packing; the canonical pack_global
    # variant IS oracled AND the pack_conservation invariant is
    # hash-checked), doc_text_stats (BPE count needs a
    # lookahead regex RE2 lacks; the fingerprint half IS oracled as
    # doc_roll_fp), ann_ivf / ann_ivf_indexed / emb_neardup_ivf
    # (approximate by design, recall-tested instead), media_real_decode
    # (real stdlib PNG/WAV
    # decode; content equality pytest-asserted), emb_pca
    # (eigendecomposition — numpy-parity pytest-asserted instead).
    # Promoted in r4: doc_decontaminate_bloom and events_quantiles_kmv
    # (both deterministic sketches — their SQL twins replay the Bloom
    # probe positions / the splitmix bottom-k sample exactly).
    # Promoted in r5: encode_job_f1 (above), events_user_ndv_hll
    # (HyperLogLog is a deterministic sketch: the SQL twin replays the
    # splitmix64 register plane and the estimator arithmetic exactly)
    # and media_features (the fake-feature byte math replays as exact
    # HUGEINT arithmetic; float32 casts exact below 2^24).
    # sequential scrub: each rule counted against the text as the
    # previous rules left it (nested projections mirror the kernel)
    p1, r1 = _SCRUB_RULES[0]
    p2, r2 = _SCRUB_RULES[1]
    o["doc_scrub"] = (
        f"SELECT doc_id, t2 AS text, (c1 + c2)::BIGINT AS n_redactions FROM ("
        f" SELECT doc_id, regexp_replace(t1, '{p2}', '{r2}', 'g') AS t2, c1,"
        f" len(regexp_extract_all(t1, '{p2}'))::BIGINT AS c2 FROM ("
        f"  SELECT doc_id, regexp_replace(text, '{p1}', '{r1}', 'g') AS t1,"
        f"  len(regexp_extract_all(text, '{p1}'))::BIGINT AS c1"
        f"  FROM documents))"
    )
    # Gopher-style repetition stats: all-integer outputs so the verdict
    # bool ((dups * 4) > total, i.e. dup-fraction > 1/4) is hash-exact
    o["doc_repetition"] = """
WITH w AS MATERIALIZED (SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
g AS (SELECT doc_id, unnest(list_transform(range(1, greatest(len(ws)-1, 0)+1),
       i -> array_to_string(ws[i:i+1], ' '))) AS gram FROM w),
c AS (SELECT doc_id, gram, count(*) AS c FROM g GROUP BY doc_id, gram),
s AS (SELECT doc_id, CAST(sum(c) AS BIGINT) AS n_grams, count(*) AS n_distinct,
       CAST(max(c) AS BIGINT) AS top_count FROM c GROUP BY doc_id)
SELECT d.doc_id,
       coalesce(s.n_grams, 0) AS n_grams,
       coalesce(s.n_distinct, 0) AS n_distinct,
       coalesce(s.top_count, 0) AS top_count,
       (coalesce(s.n_grams, 0) - coalesce(s.n_distinct, 0)) * 4 > coalesce(s.n_grams, 0) AS repetitive
FROM documents d LEFT JOIN s ON d.doc_id = s.doc_id
ORDER BY d.doc_id
"""
    o["doc_line_dedup"] = """
WITH words AS (
  SELECT doc_id, unnest(range(1, len(arr) + 1)) AS i, arr
  FROM (SELECT doc_id, string_split(coalesce(text, ''), ' ') AS arr FROM documents)
),
lines AS MATERIALIZED (
  SELECT doc_id, ((i - 1) // 10)::BIGINT AS line_no,
         string_agg(arr[i], ' ' ORDER BY i) AS line
  FROM words GROUP BY doc_id, (i - 1) // 10
),
firsts AS (
  SELECT line, min(doc_id * 1048576 + line_no) AS okey FROM lines GROUP BY line
)
SELECT l.doc_id, l.line_no, l.line
FROM lines l JOIN firsts f
  ON f.line = l.line AND l.doc_id * 1048576 + l.line_no = f.okey
ORDER BY doc_id, line_no
"""
    from parquet_hs_ray.functions.sql_oracles import (
        bloom_decontaminate_sql,
        corpus_overlap_sql,
        decontaminate_sql,
        kmv_quantile_sql,
        span_dedup_sql,
    )

    o["doc_decontaminate"] = decontaminate_sql("documents", mod=17)
    # the Bloom filter is deterministic: its false positives replay
    # exactly in SQL (probe positions vs the bench position set) —
    # promoted from rows-only in r4
    o["doc_decontaminate_bloom"] = bloom_decontaminate_sql(
        "documents", mod=17)
    # KMV bottom-k is a deterministic splitmix64 sample; quantile_disc
    # over it replays exactly — promoted from rows-only in r4
    o["events_quantiles_kmv"] = kmv_quantile_sql(
        "events", key="event_type", col="value", id_col="event_id",
        qs=(0.5, 0.95), k=1024, seed=17)
    # HLL is a deterministic sketch: the SQL twin replays the
    # splitmix64 register plane + estimator — promoted from rows-only
    # in r5
    from parquet_hs_ray.functions.sql_oracles import hll_ndv_sql

    o["events_user_ndv_hll"] = hll_ndv_sql(
        "events", key="event_type", col="user_id", p=12)
    # the multimodal FAKE feature path is deterministic byte math over
    # the (ASCII) text payloads — the SQL twin replays the prefix
    # polynomial hashes and mean-byte feature bit-exactly (float32
    # casts are exact: every value < 2^24) — promoted from rows-only
    # in r5; the REAL PNG/WAV decode path stays pytest-verified
    # (media_real_decode)
    from parquet_hs_ray.functions.sql_oracles import media_features_sql

    o["media_features"] = media_features_sql("documents")
    o["doc_corpus_overlap"] = corpus_overlap_sql("documents", mod=17)
    o["doc_span_dedup"] = span_dedup_sql("documents", window=5)
    from parquet_hs_ray.functions.sql_oracles import span_dedup_rewrite_sql

    o["doc_span_rewrite"] = span_dedup_rewrite_sql("documents", window=5)
    # tokenizer: vocab = top-64 terms (count desc, word asc), OOV id 64;
    # token order restored with list(t ORDER BY i)
    o["doc_tokenize"] = """
WITH words AS MATERIALIZED (
  SELECT doc_id, i, arr[i] AS word FROM (
    SELECT doc_id, unnest(range(1, len(arr)+1)) AS i, arr FROM (
      SELECT doc_id, regexp_extract_all(lower(coalesce(text, '')), '[a-z0-9]+') AS arr
      FROM documents))
),
c AS (SELECT word, count(*)::BIGINT AS n FROM words GROUP BY word),
v AS MATERIALIZED (
  SELECT word, (row_number() OVER (ORDER BY n DESC, word) - 1)::BIGINT AS tid
  FROM c ORDER BY n DESC, word LIMIT 64
),
tok AS (SELECT w.doc_id, w.i, coalesce(v.tid, 64)::BIGINT AS t
        FROM words w LEFT JOIN v USING (word)),
agg AS (SELECT doc_id, count(*)::BIGINT AS n_tok, list(t ORDER BY i) AS tokens
        FROM tok GROUP BY doc_id)
SELECT d.doc_id, d.source,
       coalesce(agg.n_tok, 0)::BIGINT AS n_tok,
       coalesce(agg.tokens, []::BIGINT[]) AS tokens
FROM documents d LEFT JOIN agg USING (doc_id)
ORDER BY d.doc_id
"""
    # token_freq: same tokenizer replay, aggregated per token id instead
    # of re-assembled into sequences
    o["token_freq"] = """
WITH words AS MATERIALIZED (
  SELECT doc_id, i, arr[i] AS word FROM (
    SELECT doc_id, unnest(range(1, len(arr)+1)) AS i, arr FROM (
      SELECT doc_id, regexp_extract_all(lower(coalesce(text, '')), '[a-z0-9]+') AS arr
      FROM documents))
),
c AS (SELECT word, count(*)::BIGINT AS n FROM words GROUP BY word),
v AS MATERIALIZED (
  SELECT word, (row_number() OVER (ORDER BY n DESC, word) - 1)::BIGINT AS tid
  FROM c ORDER BY n DESC, word LIMIT 64
)
SELECT coalesce(v.tid, 64)::BIGINT AS token_id, count(*)::BIGINT AS n
FROM words w LEFT JOIN v USING (word)
GROUP BY token_id ORDER BY token_id
"""
    # events_rolling: last-k ROWS window mean over integer cents
    o["events_rolling"] = (
        "SELECT user_id, event_id,"
        " (sum(CAST(round_even(value * 100, 0) AS BIGINT)) OVER w)::DOUBLE"
        " / (count(*) OVER w) AS rolling_mean_cents"
        " FROM events WHERE value IS NOT NULL"
        " WINDOW w AS (PARTITION BY user_id"
        " ORDER BY ts, event_id ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)"
    )
    # events_rolling_z: rolling sample variance + centered deviation from
    # exact window (Σ, Σ²) ints, identical float64 op order
    o["events_rolling_z"] = (
        "SELECT user_id, event_id, cnti AS n_win,"
        " ((cnti::DOUBLE * sxx - sx * sx)"
        "  / (cnti::DOUBLE * (cnti::DOUBLE - 1))) AS rolling_var_cents2,"
        " (x - sx / cnti::DOUBLE) AS z_cents FROM ("
        " SELECT user_id, event_id,"
        " CAST(round_even(value * 100, 0) AS BIGINT)::DOUBLE AS x,"
        " (sum(CAST(round_even(value * 100, 0) AS BIGINT)) OVER w)::DOUBLE AS sx,"
        " (sum(CAST(round_even(value * 100, 0) AS BIGINT)"
        "   * CAST(round_even(value * 100, 0) AS BIGINT)) OVER w)::DOUBLE AS sxx,"
        " count(*) OVER w AS cnti"
        " FROM events WHERE value IS NOT NULL"
        " WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id"
        " ROWS BETWEEN 4 PRECEDING AND CURRENT ROW)) WHERE cnti > 1"
    )
    # events_transitions: consecutive-pair mining == lead() window
    o["events_transitions"] = (
        "WITH o AS (SELECT user_id, event_type,"
        " lead(event_type) OVER (PARTITION BY user_id"
        " ORDER BY ts, event_id) AS nxt FROM events)"
        " SELECT event_type AS prev_type, nxt AS next_type,"
        " count(*)::BIGINT AS n FROM o WHERE nxt IS NOT NULL GROUP BY 1, 2"
    )
    # events_retention: DISTINCT user-weeks -> min-week cohort -> join ->
    # count (epoch weeks: epoch_us // 604800000000)
    o["events_retention"] = (
        "WITH uw AS (SELECT DISTINCT user_id,"
        " epoch_us(ts) // 604800000000 AS week FROM events),"
        " c AS (SELECT user_id, min(week) AS cohort_week FROM uw"
        " GROUP BY user_id)"
        " SELECT c.cohort_week, (uw.week - c.cohort_week)::BIGINT AS age,"
        " count(*)::BIGINT AS n_users"
        " FROM uw JOIN c USING (user_id) GROUP BY 1, 2"
    )
    # events_monthly: calendar rollup (cents convention)
    o["events_monthly"] = (
        "SELECT date_trunc('month', ts)::TIMESTAMP AS bucket, event_type,"
        " count(*)::BIGINT AS n,"
        " sum(CAST(round_even(value * 100, 0) AS BIGINT))::BIGINT"
        " AS value_cents FROM events GROUP BY 1, 2"
    )
    # events_funnel: chained first-touch stage mins (strictly-after
    # ordering), mirroring the kernel's per-stage min + join chain
    o["events_funnel"] = (
        "WITH s1 AS (SELECT user_id, min(ts) AS t1 FROM events"
        " WHERE event_type = 'view' GROUP BY user_id),"
        " s2 AS (SELECT e.user_id, min(e.ts) AS t2 FROM events e"
        " JOIN s1 USING (user_id)"
        " WHERE e.event_type = 'click' AND e.ts > s1.t1 GROUP BY e.user_id),"
        " s3 AS (SELECT e.user_id, min(e.ts) AS t3 FROM events e"
        " JOIN s2 USING (user_id)"
        " WHERE e.event_type = 'purchase' AND e.ts > s2.t2 GROUP BY e.user_id)"
        " SELECT s1.user_id,"
        " (1 + (s2.user_id IS NOT NULL)::INT + (s3.user_id IS NOT NULL)::INT)"
        "::BIGINT AS n_stages"
        " FROM s1 LEFT JOIN s2 USING (user_id) LEFT JOIN s3 USING (user_id)"
    )
    # events_corr: Pearson r from integer-quantized six-sum partials;
    # the float finish uses the identical op order on both sides
    o["events_corr"] = (
        "WITH t AS (SELECT event_type,"
        " CAST(round_even(value * 100, 0) AS BIGINT) AS x,"
        " (props->>'k')::BIGINT AS y FROM events"
        " WHERE value IS NOT NULL AND (props->>'k') IS NOT NULL),"
        " s AS (SELECT event_type, count(*)::BIGINT AS n,"
        " sum(x)::BIGINT AS sx, sum(y)::BIGINT AS sy,"
        " sum(x*x)::BIGINT AS sxx, sum(y*y)::BIGINT AS syy,"
        " sum(x*y)::BIGINT AS sxy FROM t GROUP BY event_type)"
        " SELECT event_type, n,"
        " ((n::DOUBLE * sxy::DOUBLE) - (sx::DOUBLE * sy::DOUBLE)) /"
        " (sqrt((n::DOUBLE * sxx::DOUBLE) - (sx::DOUBLE * sx::DOUBLE)) *"
        "  sqrt((n::DOUBLE * syy::DOUBLE) - (sy::DOUBLE * sy::DOUBLE))) AS corr"
        " FROM s"
        " WHERE (n::DOUBLE * sxx::DOUBLE) - (sx::DOUBLE * sx::DOUBLE) > 0"
        " AND (n::DOUBLE * syy::DOUBLE) - (sy::DOUBLE * sy::DOUBLE) > 0"
    )
    # source_profile: ingest audit (counts / extremes / distinct langs)
    o["source_profile"] = (
        "SELECT source, count(*)::BIGINT AS n_docs,"
        " sum(CASE WHEN trim(coalesce(text, '')) = '' THEN 1 ELSE 0 END)"
        "::BIGINT AS n_empty,"
        " min(n_chars)::BIGINT AS min_chars, max(n_chars)::BIGINT AS max_chars,"
        " count(DISTINCT lang)::BIGINT AS n_langs"
        " FROM documents GROUP BY source"
    )
    # events_balance: entropy/gini with libm ln and category-asc ordered
    # accumulation (list_sum over an ORDER BY list == the kernel's loop)
    o["events_balance"] = (
        "WITH c AS (SELECT user_id, event_type AS cat, count(*)::BIGINT AS c"
        " FROM events GROUP BY user_id, cat),"
        " t AS (SELECT user_id, c.c, c.cat, (SELECT sum(c2.c) FROM c c2"
        "   WHERE c2.user_id = c.user_id)::BIGINT AS n FROM c)"
        " SELECT user_id, min(n)::BIGINT AS n, count(*)::BIGINT AS n_cats,"
        " list_sum(list(-((c::DOUBLE / n) * ln(c::DOUBLE / n))"
        "   ORDER BY cat)) AS entropy,"
        " 1 - list_sum(list((c::DOUBLE / n) * (c::DOUBLE / n)"
        "   ORDER BY cat)) AS gini"
        " FROM t GROUP BY user_id"
    )
    # events_stddev: sample variance from integer-cents (n, Σ, Σ²) sums
    o["events_stddev"] = (
        "WITH s AS (SELECT event_type, count(*)::BIGINT AS n,"
        " sum(CAST(round_even(value * 100, 0) AS BIGINT))::BIGINT AS sx,"
        " sum(CAST(round_even(value * 100, 0) AS BIGINT)"
        "     * CAST(round_even(value * 100, 0) AS BIGINT))::BIGINT AS sxx"
        " FROM events WHERE value IS NOT NULL GROUP BY event_type)"
        " SELECT event_type, n,"
        " ((n::DOUBLE * sxx::DOUBLE - sx::DOUBLE * sx::DOUBLE)"
        "  / (n::DOUBLE * (n::DOUBLE - 1))) AS var_cents2,"
        " sqrt((n::DOUBLE * sxx::DOUBLE - sx::DOUBLE * sx::DOUBLE)"
        "  / (n::DOUBLE * (n::DOUBLE - 1))) AS std_cents"
        " FROM s WHERE n > 1"
    )
    # events_target_enc: leave-one-out target encoding over integer cents
    o["events_target_enc"] = (
        "WITH s AS (SELECT event_type,"
        " sum(CAST(round_even(value * 100, 0) AS BIGINT))::BIGINT AS sc,"
        " count(*)::BIGINT AS n FROM events WHERE value IS NOT NULL"
        " GROUP BY event_type)"
        " SELECT e.event_id, e.event_type,"
        " (s.sc::DOUBLE / s.n) AS mean_cents,"
        " ((s.sc - CAST(round_even(e.value * 100, 0) AS BIGINT))::DOUBLE"
        "  / (s.n - 1)) AS loo_mean_cents"
        " FROM events e JOIN s USING (event_type)"
        " WHERE e.value IS NOT NULL AND s.n > 1"
    )
    # events_pct_rank: histogram-derived min-rank == window percent_rank
    # (ties share min rank; the (r-1)/(n-1) division is one IEEE op)
    o["events_pct_rank"] = (
        "SELECT event_id, value,"
        " percent_rank() OVER (ORDER BY value) AS pr"
        " FROM events WHERE value IS NOT NULL"
    )
    # events_cume_dist: histogram max-rank/n == window cume_dist
    o["events_cume_dist"] = (
        "SELECT event_id, value,"
        " cume_dist() OVER (ORDER BY value) AS cd"
        " FROM events WHERE value IS NOT NULL"
    )
    # events_props_k: flat-JSON scalar extraction == SQL ->> semantics
    o["events_props_k"] = (
        "SELECT event_id, (props->>'k')::BIGINT AS k FROM events"
    )
    # events_outliers: Tukey fences from exact discrete quartiles; the
    # fence arithmetic (q1 - 1.5*(q3-q1)) is written with identical IEEE
    # op order on both sides
    o["events_outliers"] = (
        "WITH q AS (SELECT event_type, quantile_disc(value, 0.25) AS q1,"
        " quantile_disc(value, 0.75) AS q3 FROM events GROUP BY event_type)"
        " SELECT e.* FROM events e JOIN q USING (event_type)"
        " WHERE e.value >= q.q1 - 1.5 * (q.q3 - q.q1)"
        " AND e.value <= q.q3 + 1.5 * (q.q3 - q.q1)"
    )
    o["events_quantiles"] = (
        "SELECT event_type, quantile_disc(value, 0.5) AS p50,"
        " quantile_disc(value, 0.95) AS p95"
        " FROM events GROUP BY event_type ORDER BY event_type"
    )
    o["events_histogram"] = (
        "SELECT event_type, floor(value / 10.0)::BIGINT AS bin,"
        " count(*)::BIGINT AS n FROM events WHERE value IS NOT NULL"
        " GROUP BY event_type, bin ORDER BY event_type, bin"
    )
    o["events_user_ndv"] = (
        "SELECT event_type, count(DISTINCT user_id)::BIGINT AS ndv"
        " FROM events GROUP BY event_type ORDER BY event_type"
    )
    o["doc_top_chars"] = (
        "SELECT doc_id, n_chars FROM documents"
        " ORDER BY n_chars DESC, doc_id LIMIT 20"
    )
    o["lineitem_profile"] = " UNION ALL ".join(
        f"SELECT '{c}' AS \"column\", count(*)::BIGINT AS n,"
        f" (count(*) - count({c}))::BIGINT AS n_null,"
        f" min({c})::DOUBLE AS vmin, max({c})::DOUBLE AS vmax,"
        f" count(DISTINCT {c})::BIGINT AS ndv FROM lineitem"
        for c in ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]
    )
    # lineitem_bloom_semi: Bloom runtime filter + exact verify == a plain
    # semi join (false positives verified away, false negatives impossible)
    o["lineitem_bloom_semi"] = (
        "SELECT l.* FROM lineitem l WHERE EXISTS"
        " (SELECT 1 FROM part p WHERE p.p_partkey = l.l_partkey"
        "  AND p.p_size = 1)"
    )
    o["lineitem_part_join"] = (
        "SELECT l.*, p.p_brand, p.p_retailprice"
        " FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey"
    )
    o["doc_denylist"] = (
        "SELECT * FROM documents WHERE doc_id NOT IN"
        " (SELECT doc_id FROM documents WHERE doc_id % 13 = 0)"
    )
    o["orders_top_per_cust"] = (
        "SELECT o_custkey, o_orderkey, o_totalprice FROM ("
        " SELECT o_custkey, o_orderkey, o_totalprice, row_number() OVER ("
        "  PARTITION BY o_custkey"
        "  ORDER BY o_totalprice DESC, o_orderkey ASC) AS rn FROM orders)"
        " WHERE rn <= 3"
    )
    o["doc_len_filter"] = (
        "SELECT * FROM documents WHERE n_chars >="
        " (SELECT quantile_disc(n_chars, 0.8) FROM documents)"
    )
    # sliding-window chunking (max_words=40, overlap=8 -> stride 32);
    # chunk count = max(1, ceil((n - overlap) / stride)); DuckDB list
    # slices are 1-based inclusive, so words[s:e) == arr[s+1:e]
    o["doc_chunks"] = """
WITH a AS (SELECT doc_id, string_split(coalesce(text, ''), ' ') AS arr FROM documents),
b AS (SELECT doc_id, arr, len(arr) AS n,
             greatest(1, ceil((len(arr) - 8) / 32.0)::BIGINT) AS k FROM a),
c AS (SELECT doc_id, arr, n, unnest(range(0, k)) AS i FROM b)
SELECT doc_id, i::BIGINT AS chunk_id,
       array_to_string(arr[i*32+1 : least(i*32+40, n)], ' ') AS text,
       (least(i*32+40, n) - i*32)::BIGINT AS n_words
FROM c ORDER BY doc_id, chunk_id
"""
    # running totals accumulate integer cents (round_even == pyarrow's
    # half-to-even) so the window sum is associative and order-exact
    o["events_running"] = """
SELECT user_id, ts, event_id,
       count(*) OVER w AS running_n,
       CAST(sum(CAST(round_even(value * 100, 0) AS BIGINT)) OVER w
            AS BIGINT) AS running_cents
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
             ROWS UNBOUNDED PRECEDING)
ORDER BY user_id, ts, event_id
"""
    o["events_pivot"] = (
        "SELECT user_id, " + ", ".join(
            f"CAST(sum(CASE WHEN event_type = '{c}' THEN"
            f" CAST(round_even(value * 100, 0) AS BIGINT) ELSE 0 END)"
            f" AS BIGINT) AS {c}_cents" for c in _EVENT_TYPES)
        + " FROM events GROUP BY user_id ORDER BY user_id"
    )
    o["top_bigrams"] = """
WITH w AS (SELECT regexp_extract_all(lower(text), '[a-z0-9]+') AS arr
           FROM documents),
g AS (SELECT arr[i] || ' ' || arr[i+1] AS gram
      FROM (SELECT arr, unnest(range(1, len(arr))) AS i
            FROM w WHERE len(arr) >= 2))
SELECT gram, count(*)::BIGINT AS n FROM g
GROUP BY gram ORDER BY n DESC, gram LIMIT 30
"""
    # deterministic training-order shuffle: position = row_number over
    # md5(seed:id) — reproducible on any cluster size / block layout
    o["doc_shuffle"] = (
        "SELECT doc_id, row_number() OVER ("
        " ORDER BY md5('42:' || doc_id::VARCHAR), doc_id) AS shuffle_rank"
        " FROM documents ORDER BY doc_id"
    )
    # large-x-large hash-shuffle join (right key folded into the left's)
    o["orders_customer_join"] = (
        "SELECT o.o_orderkey, o.o_custkey, o.o_orderstatus, o.o_totalprice,"
        " o.o_orderdate, o.o_orderpriority,"
        " c.c_name, c.c_nationkey, c.c_acctbal, c.c_mktsegment"
        " FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey"
    )
    # lag() inter-arrival gaps; -1 sentinel keeps the column BIGINT on
    # both sides (first event per key has no predecessor)
    o["events_gaps"] = """
SELECT user_id, ts, event_id,
       coalesce(epoch_us(ts) - lag(epoch_us(ts)) OVER (
           PARTITION BY user_id ORDER BY ts, event_id), -1)::BIGINT AS gap_us
FROM events ORDER BY user_id, ts, event_id
"""
    o["events_ntile"] = (
        "SELECT event_id, value, ntile(8) OVER (ORDER BY value, event_id)"
        " AS bucket FROM events ORDER BY event_id"
    )
    o["events_mode"] = (
        "SELECT event_type, user_id AS mode_value, cnt AS n FROM ("
        " SELECT event_type, user_id, count(*)::BIGINT AS cnt,"
        "  row_number() OVER (PARTITION BY event_type"
        "   ORDER BY count(*) DESC, user_id ASC) AS rn"
        " FROM events GROUP BY event_type, user_id) WHERE rn = 1"
        " ORDER BY event_type"
    )
    # the composed cleaning recipe: every stage's oracle fragment chained
    # (percentile filter -> denylist NOT IN -> md5 first-copy dedup ->
    # whitespace token count)
    o["corpus_pipeline"] = f"""
WITH kept AS (
  SELECT * FROM documents
  WHERE n_chars >= (SELECT quantile_disc(n_chars, 0.5) FROM documents)
    AND doc_id NOT IN (SELECT doc_id FROM documents WHERE doc_id % 13 = 0)
),
firsts AS (
  SELECT md5(text) AS h, min(doc_id) AS keep_id FROM kept GROUP BY md5(text)
)
SELECT k.doc_id, k.source, ({_WS_COUNT.replace("text", "k.text")})::BIGINT AS n_ws_tokens
FROM kept k JOIN firsts f ON md5(k.text) = f.h AND k.doc_id = f.keep_id
ORDER BY doc_id
"""
    # Q3-shaped multi-join: revenue in integer cents (per-row round_even,
    # then int sum) so the distributed aggregate is order-independent
    o["tpch_q3_top_revenue"] = """
WITH cust AS (SELECT c_custkey FROM customer WHERE c_mktsegment = 'BUILDING'),
ord AS (SELECT o_orderkey, o_orderdate, o_orderpriority FROM orders
        WHERE o_orderdate < TIMESTAMP '1998-06-01'
          AND o_custkey IN (SELECT c_custkey FROM cust)),
rev AS (SELECT l_orderkey,
          CAST(sum(CAST(round_even(l_extendedprice * (1 - l_discount) * 100, 0) AS BIGINT)) AS BIGINT) AS revenue_cents
        FROM lineitem WHERE l_shipdate > TIMESTAMP '1998-06-01' GROUP BY l_orderkey)
SELECT o.o_orderkey, r.revenue_cents, o.o_orderdate, o.o_orderpriority
FROM ord o JOIN rev r ON o.o_orderkey = r.l_orderkey
ORDER BY r.revenue_cents DESC, o.o_orderkey LIMIT 10
"""
    # Q1-shaped pricing summary: per-row integer cents before the Sum so
    # the distributed aggregate is order-independent; avg columns are one
    # float division of exact ints (identical IEEE op both sides)
    o["tpch_q1_pricing"] = """
SELECT *, sum_qty_c/(100.0*n_rows) AS avg_qty,
       sum_base_c/(100.0*n_rows) AS avg_price,
       sum_discount_c/(100.0*n_rows) AS avg_disc FROM (
SELECT l_returnflag, l_linestatus,
  CAST(sum(CAST(round_even(l_quantity*100,0) AS BIGINT)) AS BIGINT) AS sum_qty_c,
  CAST(sum(CAST(round_even(l_extendedprice*100,0) AS BIGINT)) AS BIGINT) AS sum_base_c,
  CAST(sum(CAST(round_even(l_extendedprice*(1-l_discount)*100,0) AS BIGINT)) AS BIGINT) AS sum_disc_c,
  CAST(sum(CAST(round_even(l_extendedprice*(1-l_discount)*(1+l_tax)*100,0) AS BIGINT)) AS BIGINT) AS sum_charge_c,
  CAST(sum(CAST(round_even(l_discount*100,0) AS BIGINT)) AS BIGINT) AS sum_discount_c,
  count(*) AS n_rows
FROM lineitem WHERE l_shipdate <= TIMESTAMP '1998-09-01'
GROUP BY l_returnflag, l_linestatus)
"""
    # ROLLUP / CUBE grouping sets: NULL-keyed rolled levels + GROUPING()
    # bitmask (keys[0] = MSB, matching groupagg's grouping_id convention)
    o["rollup_pricing"] = """
SELECT l_returnflag, l_linestatus,
  CAST(sum(CAST(round_even(l_quantity*100,0) AS BIGINT)) AS BIGINT) AS sum_qty_c,
  CAST(sum(CAST(round_even(l_extendedprice*100,0) AS BIGINT)) AS BIGINT) AS sum_base_c,
  count(*) AS n_rows,
  CAST(GROUPING(l_returnflag, l_linestatus) AS BIGINT) AS grouping_id
FROM lineitem GROUP BY ROLLUP(l_returnflag, l_linestatus)
"""
    o["cube_docs"] = """
SELECT source, lang,
  CAST(sum(n_chars) AS BIGINT) AS sum_chars, count(*) AS n_docs,
  CAST(GROUPING(source, lang) AS BIGINT) AS grouping_id
FROM documents GROUP BY CUBE(source, lang)
"""
    # LEFT OUTER hash join: customers without orders keep null aggregates
    o["customer_orders_left"] = """
SELECT c.c_custkey, c.c_mktsegment, a.sum_total_c, a.n_orders
FROM customer c LEFT JOIN (
  SELECT o_custkey,
    CAST(sum(CAST(round_even(o_totalprice*100,0) AS BIGINT)) AS BIGINT) AS sum_total_c,
    count(*) AS n_orders
  FROM orders GROUP BY o_custkey) a ON c.c_custkey = a.o_custkey
"""
    # FULL OUTER join of two partially-overlapping aggregates; the key
    # column is coalesced across sides (Ray fills the join key from
    # whichever side matched)
    o["events_orders_full"] = """
SELECT coalesce(e.uid, a.o_custkey) AS uid, e.n_events, a.n_orders
FROM (SELECT user_id AS uid, count(*) AS n_events FROM events GROUP BY user_id) e
FULL JOIN (SELECT o_custkey, count(*) AS n_orders FROM orders GROUP BY o_custkey) a
  ON e.uid = a.o_custkey
"""
    # growth accounting: first-seen day per user -> per-day new users ->
    # running cumulative distinct
    o["events_growth"] = """
WITH f AS (SELECT user_id, date_trunc('day', min(ts))::TIMESTAMP AS bucket
           FROM events GROUP BY user_id),
     c AS (SELECT bucket, count(*)::BIGINT AS new_users FROM f GROUP BY bucket)
SELECT bucket, new_users,
       CAST(sum(new_users) OVER (ORDER BY bucket) AS BIGINT) AS cum_users
FROM c
"""
    # z-order layout key: same integer min-max scale + Morton interleave
    # as functions/zorder.morton_key2, as a 32-term SQL bit-gather
    from parquet_hs_ray.functions.zorder import morton2_sql

    o["lineitem_zorder_key"] = f"""
WITH mm AS (SELECT min(l_partkey) AS xlo, max(l_partkey) AS xhi,
                   min(l_suppkey) AS ylo, max(l_suppkey) AS yhi FROM lineitem)
SELECT l_orderkey, l_linenumber,
       {morton2_sql('l_partkey', 'xlo', 'xhi', 'l_suppkey', 'ylo', 'yhi')} AS zkey
FROM lineitem, mm
"""
    from parquet_hs_ray.functions.zorder import morton3_sql

    o["lineitem_zorder3_key"] = f"""
WITH mm AS (SELECT min(l_partkey) AS xlo, max(l_partkey) AS xhi,
                   min(l_suppkey) AS ylo, max(l_suppkey) AS yhi,
                   min(l_orderkey) AS zlo, max(l_orderkey) AS zhi FROM lineitem)
SELECT l_orderkey, l_linenumber,
       {morton3_sql('l_partkey', 'xlo', 'xhi', 'l_suppkey', 'ylo', 'yhi',
                    'l_orderkey', 'zlo', 'zhi')} AS zkey3
FROM lineitem, mm
"""
    # Q17-shaped decorrelated correlated-aggregate: the fractional
    # compare is exact integer cross-multiplication (q*cnt*5 < sum_q_c)
    o["tpch_q17_small_qty"] = """
SELECT CAST(sum(CAST(round_even(l.l_extendedprice*100,0) AS BIGINT)) AS BIGINT) AS rev_c,
       count(*) AS n
FROM lineitem l JOIN (
  SELECT l_partkey AS pk,
         CAST(sum(CAST(round_even(l_quantity*100,0) AS BIGINT)) AS BIGINT) AS sq_c,
         count(*) AS cnt
  FROM lineitem GROUP BY l_partkey) a ON l.l_partkey = a.pk
WHERE CAST(round_even(l.l_quantity*100,0) AS BIGINT) * a.cnt * 5 < a.sq_c
"""
    # Q13-shaped count-of-counts including the zero-order customers
    o["tpch_q13_order_dist"] = """
SELECT n_orders, count(*) AS n_cust FROM (
  SELECT c.c_custkey, CAST(count(o.o_orderkey) AS BIGINT) AS n_orders
  FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey
  GROUP BY c.c_custkey)
GROUP BY n_orders
"""
    # SQL set operations (DISTINCT semantics) and UNPIVOT
    o["custkeys_intersect"] = ("SELECT c_custkey AS custkey FROM customer "
                               "INTERSECT SELECT o_custkey AS custkey FROM orders")
    o["custkeys_except"] = (
        "SELECT o_custkey AS custkey FROM orders EXCEPT "
        "SELECT c_custkey AS custkey FROM customer WHERE c_mktsegment = 'BUILDING'")
    o["lineitem_unpivot"] = """
SELECT l_orderkey, l_linenumber, 'l_quantity' AS measure, l_quantity AS value FROM lineitem
UNION ALL
SELECT l_orderkey, l_linenumber, 'l_extendedprice' AS measure, l_extendedprice AS value FROM lineitem
"""
    # UNNEST: two zipped select-list unnests (DuckDB lacks WITH
    # ORDINALITY); range(len) supplies the 0-based position
    o["emb_unnest"] = """
SELECT vec_id,
       CAST(unnest(range(len(embedding))) AS BIGINT) AS idx,
       unnest(embedding) AS value
FROM embeddings
"""
    # grouped MAD: two chained exact discrete medians (same abs-diff
    # float op both sides)
    o["events_mad"] = """
WITH m AS (SELECT event_type, quantile_disc(value, 0.5) AS median
           FROM events GROUP BY event_type)
SELECT e.event_type, m.median,
       quantile_disc(abs(e.value - m.median), 0.5) AS mad
FROM events e JOIN m USING (event_type)
GROUP BY e.event_type, m.median
"""
    # grouped argmax: latest event row per user (ties by event_id)
    o["events_latest"] = """
SELECT user_id, ts, event_id, event_type, value FROM (
  SELECT user_id, ts, event_id, event_type, value,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY ts DESC, event_id DESC) AS rn
  FROM events WHERE ts IS NOT NULL) WHERE rn = 1
"""
    # interpolated quantiles: DuckDB quantile_cont IS the lo*(1-d)+hi*d
    # blend the engine evaluates, so floats hash-match bitwise
    o["events_quantiles_cont"] = """
SELECT event_type,
       quantile_cont(value, 0.25) AS p25_c,
       quantile_cont(value, 0.50) AS p50_c,
       quantile_cont(value, 0.95) AS p95_c
FROM events WHERE value IS NOT NULL GROUP BY event_type
"""
    # per-type OLS trend from exact integer sums; slope/intercept are the
    # same float expressions over those ints on both sides
    o["events_regression"] = """
WITH s AS (
  SELECT event_type, count(*) AS n,
         CAST(sum(x_h) AS BIGINT) AS sum_x,
         CAST(sum(y_c) AS BIGINT) AS sum_y,
         CAST(sum(x_h*y_c) AS BIGINT) AS sum_xy,
         CAST(sum(x_h*x_h) AS BIGINT) AS sum_xx
  FROM (SELECT event_type,
               date_diff('hour', TIMESTAMP '2024-01-01', ts) AS x_h,
               CAST(round_even(value*100,0) AS BIGINT) AS y_c
        FROM events WHERE ts IS NOT NULL AND value IS NOT NULL)
  GROUP BY event_type)
SELECT *,
  CASE WHEN n*sum_xx - sum_x*sum_x != 0
       THEN CAST(n*sum_xy - sum_x*sum_y AS DOUBLE)
            / CAST(n*sum_xx - sum_x*sum_x AS DOUBLE) END AS slope,
  CASE WHEN n*sum_xx - sum_x*sum_x != 0
       THEN (sum_y - (CAST(n*sum_xy - sum_x*sum_y AS DOUBLE)
                      / CAST(n*sum_xx - sum_x*sum_x AS DOUBLE)) * sum_x)
            / n END AS intercept
FROM s
"""
    # generic window shift: lag(value, 2) per user in (ts, id) order
    o["events_lag"] = """
SELECT user_id, event_id,
       lag(value, 2) OVER (PARTITION BY user_id
                           ORDER BY ts, event_id) AS lag_value
FROM events
"""
    o["events_lead"] = """
SELECT user_id, event_id,
       lead(value, 1) OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) AS lead_value
FROM events
"""
    # median imputation over a deterministic 1-in-7 NULL injection;
    # quantile_disc == the engine's discrete-median rank rule
    o["events_impute"] = """
WITH base AS (
  SELECT event_id, event_type,
         CASE WHEN event_id % 7 = 0 THEN NULL ELSE value END AS v
  FROM events),
med AS (
  SELECT event_type, quantile_disc(v, 0.5) AS m FROM base
  WHERE v IS NOT NULL GROUP BY event_type)
SELECT b.event_id, b.event_type,
       coalesce(b.v, m.m) AS value, (b.v IS NULL) AS was_null
FROM base b LEFT JOIN med m USING (event_type)
"""
    from parquet_hs_ray.functions.sql_oracles import validate_sql

    o["events_validate"] = validate_sql("events", _VALIDATE_RULES)
    # time-RANGE rolling sum; RANGE peers included on both sides
    o["events_rolling_time"] = """
SELECT event_id, user_id,
  CAST(sum(CAST(round_even(value*100, 0) AS BIGINT)) OVER (
    PARTITION BY user_id ORDER BY ts
    RANGE BETWEEN INTERVAL 10 MINUTES PRECEDING AND CURRENT ROW) AS BIGINT)
    AS win_c
FROM events
"""
    # incremental dedup: survivors = first occurrence per content hash
    o["doc_incremental_dedup"] = """
SELECT doc_id, source FROM (
  SELECT doc_id, source,
         row_number() OVER (PARTITION BY md5(text) ORDER BY doc_id) AS rn
  FROM documents) t
WHERE rn = 1 ORDER BY doc_id
"""
    # incremental windows: the emitted union equals the batch aggregate
    o["events_incremental"] = """
SELECT user_id, epoch_us(ts) // 3600000000 AS win,
       count(*)::BIGINT AS n_events,
       CAST(sum(CAST(round_even(value*100, 0) AS BIGINT)) AS BIGINT) AS sum_c
FROM events GROUP BY user_id, win
"""
    # composite-key feature join; integer-cents sums on both sides
    o["events_feature_join"] = """
WITH f AS (
  SELECT user_id, event_type,
         CAST(sum(CAST(round_even(value*100, 0) AS BIGINT)) AS BIGINT) AS sum_c,
         count(value)::BIGINT AS cnt
  FROM events GROUP BY user_id, event_type)
SELECT e.event_id, e.user_id, e.event_type, f.sum_c, f.cnt
FROM events e JOIN f USING (user_id, event_type)
"""
    # first/last_value with the full-partition frame (last_value under
    # the default frame would just echo the current row)
    o["events_first_last"] = """
SELECT user_id, event_id, value,
       first_value(value) OVER w AS first_value,
       last_value(value) OVER (PARTITION BY user_id ORDER BY ts, event_id
         ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING) AS last_value
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
"""
    # first-match regex capture; no-match rows get '' on both sides
    o["doc_extract"] = r"""
SELECT doc_id, regexp_extract(text, '(\w+) table', 1) AS before_table
FROM documents
"""
    # Q22-shaped: above-average idle customers per nation; the avg
    # compare is exact integer cross-multiplication
    o["tpch_q22_idle_customers"] = """
WITH s AS (SELECT count(*) AS n,
                  CAST(sum(CAST(round_even(c_acctbal*100,0) AS BIGINT)) AS BIGINT) AS sum_c
           FROM customer WHERE c_acctbal > 0)
SELECT c.c_nationkey, count(*) AS n_cust,
       CAST(sum(CAST(round_even(c.c_acctbal*100,0) AS BIGINT)) AS BIGINT) AS total_bal_c
FROM customer c, s
WHERE CAST(round_even(c.c_acctbal*100,0) AS BIGINT) * s.n > s.sum_c
  AND NOT EXISTS (SELECT 1 FROM orders o
                  WHERE o.o_custkey = c.c_custkey
                    AND o.o_orderdate >= TIMESTAMP '1996-01-01'
                    AND o.o_orderdate <  TIMESTAMP '1996-07-01')
GROUP BY c.c_nationkey
"""
    # Q12-shaped: late lineitems per return flag, split by priority class
    o["tpch_q12_latemode"] = """
SELECT l_returnflag,
  CAST(sum(CASE WHEN o_orderpriority IN ('1-URGENT','2-HIGH')
                THEN 1 ELSE 0 END) AS BIGINT) AS high_n,
  CAST(sum(CASE WHEN o_orderpriority IN ('1-URGENT','2-HIGH')
                THEN 0 ELSE 1 END) AS BIGINT) AS low_n
FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
WHERE l.l_shipdate > o.o_orderdate + INTERVAL 60 DAY
GROUP BY l_returnflag
"""
    # Q21-shaped: only-late supplier on finalized multi-supplier orders
    o["tpch_q21_waiting"] = """
WITH pair AS (
  SELECT l_orderkey, l_suppkey,
         max(CASE WHEN l.l_shipdate > o.o_orderdate + INTERVAL 90 DAY
                  THEN 1 ELSE 0 END) AS late
  FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
  WHERE o.o_orderstatus = 'F'
  GROUP BY l_orderkey, l_suppkey),
ostats AS (
  SELECT l_orderkey, count(*) AS n_supp, sum(late) AS n_late
  FROM pair GROUP BY l_orderkey)
SELECT s.s_name, count(*) AS numwait
FROM pair p
JOIN ostats os ON p.l_orderkey = os.l_orderkey
JOIN supplier s ON p.l_suppkey = s.s_suppkey
WHERE p.late = 1 AND os.n_supp >= 2 AND os.n_late = 1
GROUP BY s.s_name
ORDER BY numwait DESC, s.s_name
LIMIT 20
"""
    # NOT EXISTS anti join as a first-class primitive (semi_anti_join)
    o["customer_no_orders"] = """
SELECT c.c_nationkey, count(*) AS n_cust, n.n_name
FROM customer c JOIN nation n ON c.c_nationkey = n.n_nationkey
WHERE NOT EXISTS (SELECT 1 FROM orders o WHERE o.o_custkey = c.c_custkey
                  AND o.o_orderpriority = '1-URGENT')
GROUP BY c.c_nationkey, n.n_name
"""
    # EXISTS semi join, the complement of customer_no_orders
    o["customer_urgent_semi"] = """
SELECT c_nationkey, count(*) AS n_cust
FROM customer c
WHERE EXISTS (SELECT 1 FROM orders o WHERE o.o_custkey = c.c_custkey
              AND o.o_orderpriority = '1-URGENT')
GROUP BY c_nationkey
"""
    # Q15-shaped max-revenue supplier (ties kept, exact cents)
    o["tpch_q15_top_supplier"] = """
WITH r AS (
  SELECT l_suppkey,
    CAST(sum(CAST(round_even(l_extendedprice*(1-l_discount)*100,0) AS BIGINT)) AS BIGINT) AS rev_c
  FROM lineitem
  WHERE l_shipdate >= TIMESTAMP '1996-01-01'
    AND l_shipdate <  TIMESTAMP '1996-04-01'
  GROUP BY l_suppkey)
SELECT l_suppkey, rev_c FROM r WHERE rev_c = (SELECT max(rev_c) FROM r)
"""
    # deterministic Bernoulli sampling: md5 hex-prefix threshold
    # (lexicographic == numeric at fixed width); 0.3 -> 4ccccccccccccc00
    o["doc_sample_fraction"] = (
        "SELECT doc_id, source FROM documents "
        "WHERE substr(md5('42:' || doc_id::VARCHAR), 1, 16) < '4ccccccccccccc00'")
    # Q8-shaped market share per order year (conditional cents sums)
    o["tpch_q8_share"] = """
WITH j AS (
  SELECT CAST(year(o.o_orderdate) AS BIGINT) AS yr,
    CAST(round_even(l.l_extendedprice*(1-l.l_discount)*100,0) AS BIGINT) AS rev_c,
    CASE WHEN s.s_nationkey = 7 THEN 1 ELSE 0 END AS is_nat
  FROM lineitem l
  JOIN orders o ON l.l_orderkey = o.o_orderkey
  JOIN customer c ON o.o_custkey = c.c_custkey
  JOIN nation n ON c.c_nationkey = n.n_nationkey
  JOIN region r ON n.n_regionkey = r.r_regionkey
  JOIN supplier s ON l.l_suppkey = s.s_suppkey
  WHERE r.r_name = 'ASIA')
SELECT yr, CAST(sum(rev_c * is_nat) AS BIGINT) AS nation_c,
       CAST(sum(rev_c) AS BIGINT) AS total_c,
       CAST(sum(rev_c * is_nat) AS BIGINT) * 1.0
         / CAST(sum(rev_c) AS BIGINT) AS share
FROM j GROUP BY yr
"""
    # Q7-shaped cross-nation trade volume (differing nation pairs)
    o["tpch_q7_trade"] = """
SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
  CAST(sum(CAST(round_even(l.l_extendedprice*(1-l.l_discount)*100,0) AS BIGINT)) AS BIGINT) AS revenue_c
FROM lineitem l
JOIN orders o ON l.l_orderkey = o.o_orderkey
JOIN supplier s ON l.l_suppkey = s.s_suppkey
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN nation n1 ON s.s_nationkey = n1.n_nationkey
JOIN nation n2 ON c.c_nationkey = n2.n_nationkey
WHERE n1.n_nationkey <> n2.n_nationkey
  AND l.l_shipdate >= TIMESTAMP '1996-01-01'
  AND l.l_shipdate <  TIMESTAMP '1998-01-01'
GROUP BY 1, 2
"""
    # Q18-shaped HAVING subquery (large-volume orders joined back)
    o["tpch_q18_bigorders"] = """
SELECT t.l_orderkey, t.qty_c, o.o_custkey FROM (
  SELECT l_orderkey,
    CAST(sum(CAST(round_even(l_quantity*100,0) AS BIGINT)) AS BIGINT) AS qty_c
  FROM lineitem GROUP BY l_orderkey HAVING qty_c > 25000) t
JOIN orders o ON t.l_orderkey = o.o_orderkey
"""
    # Q4-shaped EXISTS semi join (late shipments per order priority)
    o["tpch_q4_priority"] = """
SELECT o_orderpriority, count(*) AS n FROM orders o
WHERE EXISTS (SELECT 1 FROM lineitem l
              WHERE l.l_orderkey = o.o_orderkey
                AND l.l_shipdate > o.o_orderdate + INTERVAL 90 DAY)
GROUP BY o_orderpriority
"""
    # Q19-shaped disjunctive brand x quantity windows, exact cents
    o["tpch_q19_brands"] = """
SELECT CAST(coalesce(sum(CAST(round_even(l.l_extendedprice*(1-l.l_discount)*100,0) AS BIGINT)), 0) AS BIGINT) AS revenue_c,
       count(*) AS n
FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
WHERE (p.p_brand = 'Brand#13' AND l.l_quantity BETWEEN 1 AND 11)
   OR (p.p_brand = 'Brand#5'  AND l.l_quantity BETWEEN 10 AND 20)
   OR (p.p_brand = 'Brand#19' AND l.l_quantity BETWEEN 20 AND 30)
"""
    # Q14-shaped conditional aggregation: promo share of discounted
    # revenue, exact integer cents + one float division
    o["tpch_q14_promo"] = """
WITH j AS (
  SELECT CAST(round_even(l.l_extendedprice*(1-l.l_discount)*100,0) AS BIGINT) AS disc_c,
         CASE WHEN p.p_type = 'PROMO' THEN 1 ELSE 0 END AS is_promo
  FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
  WHERE l.l_shipdate >= TIMESTAMP '1996-03-01'
    AND l.l_shipdate <  TIMESTAMP '1996-06-01')
SELECT CAST(coalesce(sum(disc_c * is_promo), 0) AS BIGINT) AS promo_c,
       CAST(coalesce(sum(disc_c), 0) AS BIGINT) AS total_c,
       CASE WHEN coalesce(sum(disc_c), 0) = 0 THEN NULL
            ELSE 100.0 * CAST(sum(disc_c * is_promo) AS BIGINT)
                       / CAST(sum(disc_c) AS BIGINT) END AS promo_share
FROM j
"""
    # z-score from exact integer-cents (n, Σ, Σ²) sums; finish float ops
    # in the kernel's exact order
    o["events_zscore"] = """
WITH x AS (SELECT event_id, event_type, value,
                  CAST(round_even(value*100, 0) AS BIGINT) AS xc
           FROM events WHERE value IS NOT NULL),
     s AS (SELECT event_type, CAST(count(*) AS DOUBLE) AS n,
                  CAST(sum(xc) AS DOUBLE) AS sx,
                  CAST(sum(xc*xc) AS DOUBLE) AS sxx
           FROM x GROUP BY event_type)
SELECT x.event_id, x.event_type, x.value,
       (x.xc - s.sx / s.n) / sqrt((s.n * s.sxx - s.sx * s.sx) / (s.n * (s.n - 1.0))) AS z
FROM x JOIN s USING (event_type) WHERE s.n > 1
"""
    o["doc_chars_dense_rank"] = """
SELECT doc_id, source, n_chars,
  CAST(dense_rank() OVER (PARTITION BY source ORDER BY n_chars) AS BIGINT) AS drank
FROM documents
"""
    o["doc_chars_rank"] = """
SELECT doc_id, source, n_chars,
  CAST(rank() OVER (PARTITION BY source ORDER BY n_chars) AS BIGINT) AS rnk
FROM documents
"""
    # li_pagerank: unrolled integer-exact iterations (// = floor division
    # on BIGINT in DuckDB, same as numpy int64 // on the Ray side)
    _pr_scale, _pr_damp, _pr_iters = 10**12, 85, 3
    _pr_base = (_pr_scale * (100 - _pr_damp)) // 100
    _pr = ["WITH e AS (SELECT DISTINCT l_suppkey AS src,"
           " l_partkey + 1000000 AS dst FROM lineitem),",
           "deg AS (SELECT src, count(*)::BIGINT AS outdeg FROM e GROUP BY src),",
           "nodes AS (SELECT src AS node FROM e UNION SELECT dst FROM e),",
           f"r0 AS (SELECT node, CAST({_pr_scale} AS BIGINT) AS val FROM nodes)"]
    for _i in range(_pr_iters):
        _pr.append(
            f", r{_i + 1} AS (SELECT n.node, CAST({_pr_base} + COALESCE(s.c, 0)"
            f" AS BIGINT) AS val FROM nodes n LEFT JOIN"
            f" (SELECT e.dst AS node, CAST(SUM((r.val * {_pr_damp}) //"
            f" (100 * d.outdeg)) AS BIGINT) AS c"
            f" FROM e JOIN deg d USING (src) JOIN r{_i} r ON r.node = e.src"
            f" GROUP BY e.dst) s USING (node))")
    _pr.append(f" SELECT node, val AS rank_u FROM r{_pr_iters}")
    o["li_pagerank"] = "\n".join(_pr)
    # Q6-shaped filtered-scan aggregate (no join, map-side only)
    o["tpch_q6_forecast"] = """
SELECT CAST(coalesce(sum(CAST(round_even(l_extendedprice*l_discount*100,0) AS BIGINT)), 0) AS BIGINT) AS revenue_c,
       count(*) AS n
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '1996-01-01' AND l_shipdate < TIMESTAMP '1997-01-01'
  AND l_discount BETWEEN 0.04 AND 0.06 AND l_quantity < 24
"""
    # Q10-shaped returned-item revenue per customer, top 20 (ties broken
    # by o_custkey ASC to mirror top_n_per_group's deterministic rule)
    o["tpch_q10_returns"] = """
SELECT o_custkey, rev_c FROM (
  SELECT o.o_custkey,
    CAST(sum(CAST(round_even(l.l_extendedprice*(1-l.l_discount)*100,0) AS BIGINT)) AS BIGINT) AS rev_c
  FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
  WHERE l.l_returnflag = 'R' GROUP BY o.o_custkey)
ORDER BY rev_c DESC, o_custkey LIMIT 20
"""
    # min-max scaling: identical IEEE (v-min)/(max-min) both sides;
    # constant groups scale to 0.0
    o["events_scale_minmax"] = """
SELECT event_id, event_type, value,
  CASE WHEN mx > mn THEN (value - mn) / (mx - mn) ELSE 0.0 END AS scaled
FROM (SELECT event_id, event_type, value,
        min(value) OVER (PARTITION BY event_type) AS mn,
        max(value) OVER (PARTITION BY event_type) AS mx FROM events)
"""
    # winsorize: clip at exact discrete quantiles (quantile_disc rule) —
    # thresholds are existing data values, so no interpolation semantics
    o["events_winsorize"] = """
WITH t AS (SELECT quantile_disc(value, 0.05) AS lo,
                  quantile_disc(value, 0.95) AS hi FROM events)
SELECT event_id, value,
       CASE WHEN value IS NULL THEN NULL
            ELSE least(greatest(value, t.lo), t.hi) END AS value_w
FROM events, t
"""
    o["orders_collect_list"] = """
SELECT o_custkey, list(o_orderkey ORDER BY o_orderkey) AS order_keys
FROM orders GROUP BY o_custkey
"""
    # fuzzy matching: byte-level Levenshtein (DuckDB's levenshtein is
    # byte-based too), pair key ordered by the string values
    o["fuzzy_nation_pairs"] = """
SELECT a.n_name AS name_a, b.n_name AS name_b,
       levenshtein(a.n_name, b.n_name)::BIGINT AS dist
FROM nation a JOIN nation b ON a.n_name < b.n_name
WHERE levenshtein(a.n_name, b.n_name) <= 2
"""
    # Q5-shaped five-table join chain: dims broadcast, the one fact x
    # fact edge hash-shuffles; per-row integer cents before the Sum
    o["tpch_q5_regional"] = """
SELECT n.n_name,
  CAST(sum(CAST(round_even(l.l_extendedprice*(1-l.l_discount)*100,0) AS BIGINT)) AS BIGINT) AS revenue_c
FROM customer c, orders o, lineitem l, supplier s, nation n, region r
WHERE c.c_custkey = o.o_custkey AND l.l_orderkey = o.o_orderkey
  AND l.l_suppkey = s.s_suppkey AND c.c_nationkey = s.s_nationkey
  AND s.s_nationkey = n.n_nationkey AND n.n_regionkey = r.r_regionkey
  AND r.r_name = 'ASIA'
  AND o.o_orderdate >= TIMESTAMP '1996-01-01'
  AND o.o_orderdate <  TIMESTAMP '1997-01-01'
GROUP BY n.n_name
"""
    o["nation_region_cross"] = (
        "SELECT n_nationkey, n_name, r_regionkey, r_name FROM nation, region")
    # skew join: hot/cold routing changes the physical plan, never the
    # result — the oracle is the plain equi-join
    o["orders_skew_join"] = (
        "SELECT o.o_orderkey, o.o_custkey, c.c_mktsegment "
        "FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey")
    # CDC MERGE INTO: next snapshot = unchanged-key survivors + upserts
    o["orders_merge"] = """
WITH changes AS (
  SELECT o_orderkey, o_custkey, 'U' AS o_orderstatus,
         o_totalprice + 100.0 AS o_totalprice, o_orderdate, o_orderpriority,
         'upsert' AS _op
  FROM orders WHERE o_orderkey % 10 = 3
  UNION ALL
  SELECT o_orderkey + 10000000, o_custkey, 'N', o_totalprice, o_orderdate,
         o_orderpriority, 'upsert'
  FROM orders WHERE o_orderkey % 10 = 1
  UNION ALL
  SELECT o_orderkey, o_custkey, o_orderstatus, o_totalprice, o_orderdate,
         o_orderpriority, 'delete'
  FROM orders WHERE o_orderkey % 10 = 7
)
SELECT o.* FROM orders o
WHERE o.o_orderkey NOT IN (SELECT o_orderkey FROM changes)
UNION ALL
SELECT o_orderkey, o_custkey, o_orderstatus, o_totalprice, o_orderdate,
       o_orderpriority
FROM changes WHERE _op = 'upsert'
"""
    # bucketed join: co-located layouts make the join bucket-local; the
    # result is the plain equi-join
    o["bucketed_orders_join"] = (
        "SELECT o.o_orderkey, o.o_custkey, c.c_custkey, c.c_mktsegment "
        "FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey")
    # temperature mixing: per-source quotas floor(total * c^a / sum(c^a))
    # (same IEEE double pow/div both sides), md5-ranked within source
    o["doc_temperature_mix"] = """
WITH c AS (SELECT source, count(*) AS cnt FROM documents GROUP BY source),
     w AS (SELECT source, cnt, pow(cnt, 0.5) AS wt FROM c),
     t AS (SELECT source, cnt,
           CAST(floor(200.0 * wt / (SELECT sum(wt) FROM w)) AS BIGINT) AS n_s
           FROM w),
     r AS (SELECT doc_id, source,
           row_number() OVER (PARTITION BY source
             ORDER BY md5('42:' || doc_id::VARCHAR), doc_id) AS rn
           FROM documents)
SELECT r.doc_id, r.source FROM r JOIN t USING (source)
WHERE rn <= least(t.n_s, t.cnt)
"""
    # deterministic capped per-group sampling (md5-ranked, no RNG)
    o["doc_sample_per_source"] = (
        "SELECT doc_id, source FROM ("
        " SELECT doc_id, source, row_number() OVER (PARTITION BY source"
        "  ORDER BY md5('42:' || doc_id::VARCHAR), doc_id) AS rn"
        " FROM documents) WHERE rn <= 20 ORDER BY source, doc_id"
    )
    # count-min sketch heavy hitters: the full sketch (word-hash chain,
    # double-hash cells, min-over-depths estimate) replayed in SQL
    from parquet_hs_ray.functions.sql_oracles import cms_top_terms_sql

    o["cms_top_terms"] = cms_top_terms_sql("documents", k=25)
    return o
