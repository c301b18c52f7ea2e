"""Corpus-cleaning operators: pattern scrubbing (PII-style redaction),
C4-style line-level deduplication, and benchmark decontamination.

These are the removal/repair stages of a training-data pipeline; the
reference engine has none (SURVEY.md §2.5 — it is a pure storage codec),
so like the dedup/ANN family they are mandated extensions.  All three are
SQL-twinned (see ``__ray_entry__.oracle_sql``: ``doc_scrub``,
``doc_line_dedup``, ``doc_decontaminate``).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import pandas as pd
import ray
import ray.data

from ..functions import sketches as sk
from ..functions.text import md5_hex
from .blocktasks import drop_empty_blocks, shuffle_partitions

# order key packs (doc_id, line_no) into one int64 so "first occurrence"
# is a plain Min aggregate: doc_id < 2^43, line_no < 2^20 assumed (8.8e12
# docs / 1M lines per doc — beyond either, widen to a struct min).
_LINE_SHIFT = 1 << 20


def scrub_patterns(docs: "ray.data.Dataset",
                   patterns: Sequence[tuple[str, str]]) -> "ray.data.Dataset":
    """Apply (regex -> replacement) rules in order to every document and
    count the redactions: the PII-scrub stage (emails, phones, IDs — the
    rules are data; the demo rules match the synthetic corpus).

    Each pattern is counted against the text as it stands AFTER the
    previous rules applied (sequential semantics, mirrored exactly by the
    nested-projection SQL twin).  Embarrassingly parallel map_batches;
    pandas ``str.replace``/``str.count`` run the compiled regex once per
    batch column, no per-row Python."""
    rules = [(str(p), str(r)) for p, r in patterns]

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        t = batch["text"].fillna("")
        total = np.zeros(len(t), dtype=np.int64)
        for pat, rep in rules:
            total += t.str.count(pat).to_numpy(dtype=np.int64)
            t = t.str.replace(pat, rep, regex=True)
        return pd.DataFrame({"doc_id": batch["doc_id"], "text": t,
                             "n_redactions": total})

    return docs.map_batches(f, batch_format="pandas")


def line_dedup(docs: "ray.data.Dataset", words_per_line: Optional[int] = None,
               num_partitions: Optional[int] = None) -> "ray.data.Dataset":
    """Corpus-level exact line deduplication (the C4/RefinedWeb recipe):
    every distinct line survives exactly once, at its first occurrence in
    (doc_id, line_no) order; all later copies are dropped.  Returns the
    surviving lines as (doc_id, line_no, line).

    ``words_per_line=None`` splits documents on newlines; an integer
    chunks the space-split word stream into fixed-width lines instead
    (used by the demo query — the synthetic corpus has no newlines).

    Scale shape: lines are exploded inside map_batches and reduced to
    (md5, min order-key) via ``groupagg.grouped_agg`` — the shuffle
    carries 32-B hashes + one int64, never line text; the keep/drop
    decision is a hash join back on md5 plus a column compare, exactly
    the ``dedup_assign`` shape."""
    from .dedup import _enforce_schema
    import pyarrow as pa

    if num_partitions is None:
        num_partitions = shuffle_partitions()

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        texts = batch["text"].fillna("")
        ids = batch["doc_id"].to_numpy()
        if words_per_line is None:
            lines = texts.str.split("\n")
            nl = lines.str.len().to_numpy(dtype=np.int64)
            doc = np.repeat(ids, nl)
            ln = np.arange(int(nl.sum()), dtype=np.int64) - np.repeat(
                np.cumsum(nl) - nl, nl)
            flat = (np.concatenate([np.asarray(x, dtype=object) for x in lines])
                    if nl.sum() else np.empty(0, dtype=object))
        else:
            # chunk the space-split word stream into fixed-width lines
            # (split(' ') of "" is [""]: empty docs yield one empty line,
            # matching the SQL twin's string_split semantics)
            w = int(words_per_line)
            words = texts.str.split(" ")
            nw = words.str.len().to_numpy(dtype=np.int64)
            doc_of = np.repeat(np.arange(len(batch), dtype=np.int64), nw)
            wpos = np.arange(int(nw.sum()), dtype=np.int64) - np.repeat(
                np.cumsum(nw) - nw, nw)
            flatw = (np.concatenate([np.asarray(x, dtype=object) for x in words])
                     if nw.sum() else np.empty(0, dtype=object))
            g = (pd.DataFrame({"d": doc_of, "ln": wpos // w, "w": flatw})
                 .groupby(["d", "ln"], sort=True)["w"].agg(" ".join).reset_index())
            doc = ids[g["d"].to_numpy()] if len(g) else np.empty(0, np.int64)
            ln = g["ln"].to_numpy(dtype=np.int64)
            flat = g["w"].to_numpy()
        s = pd.Series(flat, dtype=object)
        return pd.DataFrame({
            "doc_id": doc, "line_no": ln, "line": s.to_numpy(),
            "h": md5_hex(s),
            "okey": doc * _LINE_SHIFT + ln,
        })

    from .groupagg import grouped_agg

    lines_schema = pa.schema([("doc_id", pa.int64()), ("line_no", pa.int64()),
                              ("line", pa.string()), ("h", pa.string()),
                              ("okey", pa.int64())])
    lines = _enforce_schema(docs.map_batches(explode, batch_format="pandas"),
                            lines_schema)

    firsts = grouped_agg(
        lines.map_batches(
            lambda b: pd.DataFrame({"h": b["h"], "first_okey": b["okey"]}),
            batch_format="pandas"),
        ["h"], {"first_okey": "min"})
    firsts = _enforce_schema(firsts, pa.schema([("h", pa.string()),
                                                ("first_okey", pa.int64())]))
    firsts = drop_empty_blocks(firsts.materialize())
    if firsts is None:
        return lines.select_columns(["doc_id", "line_no", "line"])
    j = lines.join(firsts, join_type="inner", num_partitions=num_partitions,
                   on=("h",))

    def keep(batch: pd.DataFrame) -> pd.DataFrame:
        k = batch[batch["okey"] == batch["first_okey"]]
        return k[["doc_id", "line_no", "line"]]

    return j.map_batches(keep, batch_format="pandas")


def decontaminate(docs: "ray.data.Dataset", bench: "ray.data.Dataset",
                  ngram: int = 3, shingler=None) -> "ray.data.Dataset":
    """Per corpus document: how many of its DISTINCT word-``ngram``
    shingles also occur in the benchmark set ``bench`` (the eval-set
    decontamination check: n_shared > 0 => the document leaks benchmark
    text and should be dropped or scrubbed).

    Scale shape: the benchmark side is eval suites — thousands of
    documents vs a 100 TB corpus — so its distinct shingle-hash set is
    broadcast once via ``ray.put`` (sorted uint64 array, 8 B/shingle) and
    probed with a vectorized ``searchsorted`` per corpus batch; the
    corpus is never shuffled at all.  Shingle hashing is the exact
    splitmix64 chain the minhash pipeline uses, so the DuckDB twin
    replays it bit-exact."""
    sh = shingler if shingler is not None else (
        lambda d: sk.word_ngram_hashes(d["text"], n=ngram))
    parts = []
    for b in bench.map_batches(
            lambda d: pd.DataFrame({"h": np.unique(sh(d)[1])}),
            batch_format="pandas").iter_batches(batch_format="pandas"):
        parts.append(b["h"].to_numpy(dtype=np.uint64))
    bench_set = np.unique(np.concatenate(parts)) if parts else np.empty(0, np.uint64)
    ref = ray.put(bench_set)

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        bs = ray.get(ref)
        n_sh, h = sh(batch)
        doc_of = np.repeat(np.arange(len(batch), dtype=np.int64), n_sh)
        if len(h):
            dd = pd.DataFrame({"d": doc_of, "h": h}).drop_duplicates()
            hit = np.zeros(len(dd), dtype=bool)
            if len(bs):
                pos = np.searchsorted(bs, dd["h"].to_numpy())
                ok = pos < len(bs)
                hit[ok] = bs[pos[ok]] == dd["h"].to_numpy()[ok]
            counts = np.bincount(dd["d"].to_numpy()[hit], minlength=len(batch))
        else:
            counts = np.zeros(len(batch), dtype=np.int64)
        return pd.DataFrame({"doc_id": batch["doc_id"],
                             "n_shared": counts.astype(np.int64)})

    return docs.map_batches(f, batch_format="pandas")


def chunk_documents(docs: "ray.data.Dataset", max_words: int,
                    overlap: int = 0) -> "ray.data.Dataset":
    """Split each document's space-split word stream into sliding-window
    chunks of at most ``max_words`` words with ``overlap`` words shared
    between consecutive chunks — the context-window preparation step
    before tokenize/pack.  Output: (doc_id, chunk_id, text, n_words).

    Chunk starts advance by ``stride = max_words - overlap``; the chunk
    count per document is ``max(1, ceil((n - overlap) / stride))``, which
    covers every word exactly once per stride without emitting a trailing
    chunk fully contained in its predecessor.  ``split(' ')`` of ``""``
    is ``[""]`` (one empty word), matching SQL ``string_split`` — so an
    empty document yields one empty chunk, same as the twin.

    Embarrassingly parallel: one vectorized explode per block (flattened
    word array + ragged index arithmetic, word-join via one grouped agg);
    no shuffle, no cross-document state."""
    if not 0 <= overlap < max_words:
        raise ValueError(f"need 0 <= overlap < max_words, got {overlap}/{max_words}")
    stride = max_words - overlap

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        texts = batch["text"].fillna("")
        ids = batch["doc_id"].to_numpy()
        words = texts.str.split(" ")
        nw = words.str.len().to_numpy(dtype=np.int64)
        flatw = (np.concatenate([np.asarray(x, dtype=object) for x in words])
                 if nw.sum() else np.empty(0, dtype=object))
        doc_off = np.cumsum(nw) - nw
        k = np.maximum(1, -(-(nw - overlap) // stride))
        doc_rep = np.repeat(np.arange(len(batch), dtype=np.int64), k)
        cid = (np.arange(int(k.sum()), dtype=np.int64)
               - np.repeat(np.cumsum(k) - k, k))
        starts = cid * stride
        ends = np.minimum(starts + max_words, nw[doc_rep])
        ln = ends - starts
        # ragged gather: word index per (chunk, position) occurrence
        tot = int(ln.sum())
        widx = (np.arange(tot, dtype=np.int64)
                - np.repeat(np.cumsum(ln) - ln, ln)
                + np.repeat(doc_off[doc_rep] + starts, ln))
        chunk_of = np.repeat(np.arange(len(cid), dtype=np.int64), ln)
        joined = (pd.DataFrame({"c": chunk_of, "w": flatw[widx]})
                  .groupby("c", sort=True)["w"].agg(" ".join))
        txt = np.full(len(cid), "", dtype=object)
        txt[joined.index.to_numpy()] = joined.to_numpy()
        return pd.DataFrame({"doc_id": ids[doc_rep], "chunk_id": cid,
                             "text": txt, "n_words": ln})

    return docs.map_batches(f, batch_format="pandas")


def repetition_stats(docs: "ray.data.Dataset", ngram: int = 2,
                     dup_ratio_denom: int = 4) -> "ray.data.Dataset":
    """Gopher-style in-document repetition quality signals (Rae et al.
    2021, "Scaling Language Models: ... Gopher", §A1.1 repetition
    filters): for each document's space-split word n-grams report

    - ``n_grams``     total n-gram occurrences (``max(n_words-ngram+1, 0)``),
    - ``n_distinct``  distinct n-grams,
    - ``top_count``   occurrences of the most frequent n-gram,
    - ``repetitive``  the filter verdict — true when the duplicate
      fraction exceeds ``1/dup_ratio_denom``, computed in integers
      (``(n_grams - n_distinct) * dup_ratio_denom > n_grams``) so the
      SQL twin is hash-exact with no float rounding.

    Embarrassingly parallel: one vectorized explode + two grouped
    reductions per block (pandas C-level groupby on the gram strings);
    no shuffle, no cross-document state — documents are the unit of
    repetition, so block boundaries are semantic boundaries."""
    if ngram < 1:
        raise ValueError(f"ngram must be >= 1, got {ngram}")

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        texts = batch["text"].fillna("")
        ids = batch["doc_id"].to_numpy()
        words = texts.str.split(" ")
        nw = words.str.len().to_numpy(dtype=np.int64)
        ng = np.maximum(nw - ngram + 1, 0)
        out = pd.DataFrame({
            "doc_id": ids,
            "n_grams": ng,
            "n_distinct": np.zeros(len(batch), dtype=np.int64),
            "top_count": np.zeros(len(batch), dtype=np.int64),
        })
        tot = int(ng.sum())
        if tot:
            flatw = np.concatenate([np.asarray(x, dtype=object) for x in words])
            doc_off = np.cumsum(nw) - nw
            # start index of each gram in the flattened word array
            starts = (np.arange(tot, dtype=np.int64)
                      - np.repeat(np.cumsum(ng) - ng, ng)
                      + np.repeat(doc_off, ng))
            gram = pd.Series(flatw[starts])
            for j in range(1, ngram):
                gram = gram + " " + pd.Series(flatw[starts + j])
            d = np.repeat(np.arange(len(batch), dtype=np.int64), ng)
            counts = (pd.DataFrame({"d": d, "g": gram.to_numpy()})
                      .groupby(["d", "g"], sort=False).size())
            per_doc = counts.groupby(level=0).agg(["count", "max"])
            rows = per_doc.index.to_numpy()
            out.loc[rows, "n_distinct"] = per_doc["count"].to_numpy()
            out.loc[rows, "top_count"] = per_doc["max"].to_numpy()
        out["repetitive"] = ((out["n_grams"] - out["n_distinct"])
                             * dup_ratio_denom > out["n_grams"])
        return out

    return docs.map_batches(f, batch_format="pandas")


def span_dedup(docs: "ray.data.Dataset", window: int = 5,
               num_partitions: Optional[int] = None) -> "ray.data.Dataset":
    """Cross-document substring (span) duplication detection — the
    hash-window approximation of suffix-array substring dedup (Lee et
    al. 2021, "Deduplicating Training Data Makes Language Models
    Better"): for each document, how many of its ``window``-word rolling
    spans also occur verbatim in at least one OTHER document.  Output
    per document: (doc_id, n_spans, n_shared_spans, has_cross_dup) —
    all integers/bool so the DuckDB twin is hash-exact.

    Scale shape (100 TB): spans are hashed in-block with the splitmix64
    word-n-gram chain (8 B per span, text never leaves the block) and
    pre-reduced to (doc_id, h, n_pos); the only shuffles are a grouped
    min/max over h (16 B values -> "is this hash seen by two distinct
    docs?" without a count-distinct), one hash join back on h, and a
    per-doc sum.  Matching is hash equality — at 64-bit, collisions are
    ~n²/2^64 and both the kernel and the twin share them by design."""
    from .dedup import _enforce_schema
    from .groupagg import grouped_agg
    import pyarrow as pa

    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if num_partitions is None:
        num_partitions = shuffle_partitions()

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        n_sh, h = sk.word_ngram_hashes(batch["text"], n=window)
        doc_of = np.repeat(batch["doc_id"].to_numpy(), n_sh)
        g = (pd.DataFrame({"doc_id": doc_of, "h": h})
             .groupby(["doc_id", "h"], sort=False).size()
             .rename("n_pos").reset_index())
        g["n_pos"] = g["n_pos"].astype(np.int64)
        return g

    spans_schema = pa.schema([("doc_id", pa.int64()), ("h", pa.uint64()),
                              ("n_pos", pa.int64())])
    spans = _enforce_schema(docs.map_batches(explode, batch_format="pandas"),
                            spans_schema)

    # per-hash: shared across >= 2 distinct docs  <=>  min(doc) != max(doc)
    reach = grouped_agg(
        spans.map_batches(lambda b: pd.DataFrame(
            {"h": b["h"], "mn": b["doc_id"], "mx": b["doc_id"]}),
            batch_format="pandas"),
        ["h"], {"mn": "min", "mx": "max"})
    reach = _enforce_schema(reach, pa.schema([("h", pa.uint64()),
                                              ("mn", pa.int64()),
                                              ("mx", pa.int64())]))
    reach = drop_empty_blocks(reach.materialize())

    # base per-doc span counts (map-only, keeps zero-span docs)
    def base(batch: pd.DataFrame) -> pd.DataFrame:
        nw = batch["text"].fillna("").str.split().str.len().to_numpy(np.int64)
        return pd.DataFrame({"doc_id": batch["doc_id"],
                             "n_spans": np.maximum(nw - window + 1, 0)})

    base_ds = _enforce_schema(docs.map_batches(base, batch_format="pandas"),
                              pa.schema([("doc_id", pa.int64()),
                                         ("n_spans", pa.int64())]))

    if reach is None:      # empty corpus edge: nothing shared anywhere
        return base_ds.map_batches(lambda b: b.assign(
            n_shared_spans=np.int64(0),
            has_cross_dup=np.zeros(len(b), dtype=bool)),
            batch_format="pandas")

    j = spans.join(reach, join_type="inner",
                   num_partitions=num_partitions, on=("h",))

    def shared_part(batch: pd.DataFrame) -> pd.DataFrame:
        n = np.where(batch["mn"].to_numpy() != batch["mx"].to_numpy(),
                     batch["n_pos"].to_numpy(), 0).astype(np.int64)
        return pd.DataFrame({"doc_id": batch["doc_id"], "n_shared_spans": n})

    shared = grouped_agg(j.map_batches(shared_part, batch_format="pandas"),
                         ["doc_id"], {"n_shared_spans": "sum"})
    shared = _enforce_schema(shared, pa.schema([("doc_id", pa.int64()),
                                                ("n_shared_spans", pa.int64())]))

    out = base_ds.join(shared, join_type="left_outer",
                       num_partitions=num_partitions, on=("doc_id",))

    def fin(batch: pd.DataFrame) -> pd.DataFrame:
        ns = batch["n_shared_spans"].fillna(0).astype(np.int64)
        return pd.DataFrame({"doc_id": batch["doc_id"],
                             "n_spans": batch["n_spans"].astype(np.int64),
                             "n_shared_spans": ns,
                             "has_cross_dup": (ns > 0).to_numpy()})

    return out.map_batches(fin, batch_format="pandas")


def _bloom_positions(h: np.ndarray, m_bits: int, k: int) -> np.ndarray:
    """k double-hashed bit positions per input hash (Kirsch–Mitzenmacher:
    pos_i = h1 + i*h2 mod m), vectorized to an (n, k) matrix."""
    h1 = h.astype(np.uint64)
    h2 = sk._splitmix64(h1) | np.uint64(1)  # odd => full-period stride
    i = np.arange(k, dtype=np.uint64)
    return ((h1[:, None] + i[None, :] * h2[:, None]) % np.uint64(m_bits)).astype(np.int64)


def bloom_build(hashes: np.ndarray, m_bits: int, k: int) -> np.ndarray:
    """Shingle-hash array -> packed Bloom bitset (uint8, m_bits/8 bytes).

    ``m_bits`` must be a power of two >= 8: the packed array has
    ``m_bits/8`` bytes (a non-multiple would let positions index past
    it), and the double-hash stride ``h1 + i*h2`` wraps mod 2^64 before
    ``% m_bits``, which is unbiased (and the odd stride full-period)
    only for power-of-two m."""
    if m_bits < 8 or m_bits & (m_bits - 1):
        raise ValueError(f"m_bits must be a power of two >= 8, got {m_bits}")
    bits = np.zeros(m_bits // 8, dtype=np.uint8)
    if len(hashes):
        pos = _bloom_positions(hashes, m_bits, k).reshape(-1)
        np.bitwise_or.at(bits, pos >> 3, np.uint8(1) << (pos & 7).astype(np.uint8))
    return bits


def decontaminate_bloom(docs: "ray.data.Dataset", bench: "ray.data.Dataset",
                        ngram: int = 3, m_bits: int = 1 << 23,
                        k: int = 7, shingler=None) -> "ray.data.Dataset":
    """Approximate :func:`decontaminate` via a Bloom filter: one-sided
    error (NEVER misses a truly shared shingle; may over-count by the
    filter's false-positive rate ~(1-e^{-kn/m})^k — 1 MiB / k=7 holds
    ~600k benchmark shingles under 1%).

    Scale shape vs the exact path: the broadcast side is a FIXED
    ``m_bits/8``-byte bitset regardless of benchmark size (the exact
    sorted-set broadcast grows 8 B/shingle), so the eval suites can grow
    into the millions of documents without inflating what every worker
    holds.  Per-block partial bitsets are OR-merged (associative, like
    the HLL registers); the corpus side is a pure probe, never shuffled."""
    if m_bits < 8 or m_bits & (m_bits - 1):  # fail on the driver, not in a task
        raise ValueError(f"m_bits must be a power of two >= 8, got {m_bits}")
    # every partial-bitset ROW must be merged (iter_batches coalesces the
    # one-row-per-block partials, so indexing only row 0 of each batch
    # would silently drop blocks and break the one-sided guarantee), and
    # the OR streams in place — stacking n_blocks x m_bits/8 partials for
    # a reduce would hold every partial on the driver at once
    sh = shingler if shingler is not None else (
        lambda d: sk.word_ngram_hashes(d["text"], n=ngram))
    bits = np.zeros(m_bits // 8, dtype=np.uint8)
    for b in bench.map_batches(
            lambda d: pd.DataFrame({"bits": [bloom_build(
                np.unique(sh(d)[1]), m_bits, k).tobytes()]}),
            batch_format="pandas").iter_batches(batch_format="pandas"):
        for row in b["bits"]:
            bits |= np.frombuffer(row, dtype=np.uint8)
    ref = ray.put(bits)

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        bs = ray.get(ref)
        n_sh, h = sh(batch)
        doc_of = np.repeat(np.arange(len(batch), dtype=np.int64), n_sh)
        if len(h):
            dd = pd.DataFrame({"d": doc_of, "h": h}).drop_duplicates()
            pos = _bloom_positions(dd["h"].to_numpy(), m_bits, k)
            hit = ((bs[pos >> 3] >> (pos & 7).astype(np.uint8)) & 1).all(axis=1)
            counts = np.bincount(dd["d"].to_numpy()[hit], minlength=len(batch))
        else:
            counts = np.zeros(len(batch), dtype=np.int64)
        return pd.DataFrame({"doc_id": batch["doc_id"],
                             "n_shared_bloom": counts.astype(np.int64)})

    return docs.map_batches(f, batch_format="pandas")


def extract_json_field(ds: "ray.data.Dataset", col: str, key: str,
                       out_col: Optional[str] = None,
                       as_int: bool = False,
                       id_cols: Sequence[str] = ()) -> "ray.data.Dataset":
    """Extract one scalar field from a FLAT JSON-object string column
    (metadata sidecars like ``events.props``) — the schema-on-read parse
    step of an ETL pipeline, as a pure streaming map (no shuffle).

    Semantics match SQL ``col->>'key'`` on flat objects: the value with
    quotes stripped for strings, the literal token otherwise, NULL when
    the key is absent.  Documented limits (asserted by the twin only on
    flat objects): no nested objects/arrays as the value, no escaped
    quotes inside string values — parse failures yield NULL, never
    garbage.  ``as_int`` casts to int64 (NULL-propagating).  Vectorized:
    one compiled-regex ``str.extract`` per batch, no per-row json.loads."""
    import re

    out = out_col or key
    pat = re.compile(
        '"' + re.escape(key) + r'"\s*:\s*("(?:[^"\\]*)"|[^,}\s]+)')

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        v = batch[col].fillna("").str.extract(pat, expand=False)
        quoted = v.str.startswith('"').fillna(False)
        # the JSON null literal is only the UNQUOTED token — a quoted
        # "null" is the three-letter string, exactly as ->> returns it
        v = v.where(~(v == "null"), other=pd.NA)
        v = v.where(~quoted, v.str.slice(1, -1))
        res = pd.DataFrame({c: batch[c] for c in (id_cols or batch.columns)})
        if as_int:
            res[out] = pd.to_numeric(v, errors="coerce").astype("Int64")
        else:
            res[out] = v
        return res

    return ds.map_batches(f, batch_format="pandas")


def corpus_overlap(a: "ray.data.Dataset", b: "ray.data.Dataset",
                   ngram: int = 3) -> "pd.DataFrame":
    """Cross-corpus similarity / contamination report: the EXACT overlap
    of the two corpora's distinct word-``ngram`` shingle sets — one row
    (n_grams_a, n_grams_b, n_shared, jaccard).  Shingle hashing is the
    same splitmix64 chain as minhash/decontaminate, so the DuckDB twin
    replays it bit-exact (64-bit collisions merge identically on both
    sides — counts stay equal by construction).

    Scale shape: per-batch DISTINCT hash partials (8 B/shingle + two
    presence flags, never text) -> one grouped max-flag aggregate on the
    hash -> streaming partial counts; the driver sees only per-block
    count triples.  No corpus text is ever shuffled."""

    def hasher(in_a: int):
        def f(batch: pd.DataFrame) -> pd.DataFrame:
            _, h = sk.word_ngram_hashes(batch["text"], n=ngram)
            hu = np.unique(h).view(np.int64)
            one = np.full(len(hu), in_a, dtype=np.int64)
            return pd.DataFrame({"h": hu, "in_a": one,
                                 "in_b": np.int64(1) - one})
        return f

    from .groupagg import grouped_agg

    u = (a.map_batches(hasher(1), batch_format="pandas")
         .union(b.map_batches(hasher(0), batch_format="pandas")))
    flags = grouped_agg(u, ["h"], {"in_a": "max", "in_b": "max"})

    def counts(batch: pd.DataFrame) -> pd.DataFrame:
        ia = batch["in_a"].to_numpy(dtype=np.int64)
        ib = batch["in_b"].to_numpy(dtype=np.int64)
        return pd.DataFrame({"n_a": [int(ia.sum())], "n_b": [int(ib.sum())],
                             "n_shared": [int((ia & ib).sum())]})

    agg = flags.map_batches(counts, batch_format="pandas").to_pandas()
    n_a, n_b, n_sh = (int(agg["n_a"].sum()), int(agg["n_b"].sum()),
                      int(agg["n_shared"].sum()))
    denom = n_a + n_b - n_sh
    return pd.DataFrame({"n_a": pd.array([n_a], dtype=np.int64),
                         "n_b": pd.array([n_b], dtype=np.int64),
                         "n_shared": pd.array([n_sh], dtype=np.int64),
                         "jaccard": [n_sh / denom if denom else 0.0]})


def fuzzy_self_pairs(ds: "ray.data.Dataset", col: str,
                     max_dist: int = 2, band_width: int = 8,
                     max_band_rows: int = 10_000,
                     max_len: int = 64) -> "ray.data.Dataset":
    """Fuzzy self-match: all pairs of rows whose ``col`` values are
    within ``max_dist`` byte-level edits (vectorized Levenshtein,
    ``functions.fuzzy``) — near-duplicate titles/names that exact dedup
    misses.

    Candidate generation is length-banded: an edit distance ≤ d forces a
    length difference ≤ d, so each row is emitted to its own
    ``len // band_width`` band plus the band of ``len + max_dist``
    (adjacent when the range crosses a boundary; requires
    ``max_dist < band_width``), and every qualifying pair shares ≥ 1
    band.  Pairs are generated per band (bounded by ``max_band_rows`` —
    an over-limit band raises rather than silently exploding
    quadratically), distance-filtered with one batched DP per band, and
    de-duplicated across bands.  At corpus scale the band key would
    extend with a content prefix (first byte class) the same way LSH
    bands do; length alone is the honest minimum that stays exhaustive."""
    if max_dist >= band_width:
        raise ValueError("max_dist must be < band_width for band-complete "
                         "candidate generation")
    from ..functions.fuzzy import levenshtein_pairs

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        vals = b[col].astype(str)
        ln = vals.str.encode("utf-8").str.len().to_numpy()
        if len(ln) and int(ln.max()) > max_len:
            # the DP kernel truncates at max_len bytes, which would report
            # FALSE matches for long strings sharing a prefix — refuse
            # rather than silently merge distinct documents
            raise ValueError(
                f"fuzzy_self_pairs: a value is {int(ln.max())} bytes "
                f"(> max_len={max_len}); raise max_len (cost is O(max_len^2) "
                "per pair batch) or fingerprint long texts instead")
        lo = ln // band_width
        hi = (ln + max_dist) // band_width
        out = pd.DataFrame({col: np.concatenate([vals.to_numpy(),
                                                 vals.to_numpy()[lo != hi]]),
                            "band": np.concatenate([lo, hi[lo != hi]])})
        return out.drop_duplicates()

    exploded = ds.map_batches(explode, batch_format="pandas")

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        u = np.sort(pd.unique(g[col].astype(str)))
        m = len(u)
        if m > max_band_rows:
            raise ValueError(f"fuzzy band holds {m} rows (> {max_band_rows}):"
                             " extend the band key before pairing")
        if m < 2:
            return pd.DataFrame({"name_a": pd.Series([], dtype=object),
                                 "name_b": pd.Series([], dtype=object),
                                 "dist": pd.Series([], dtype=np.int64)})
        i, j = np.triu_indices(m, k=1)
        d = levenshtein_pairs(u[i], u[j], max_len=max_len)
        keep = d <= max_dist
        return pd.DataFrame({"name_a": u[i][keep], "name_b": u[j][keep],
                             "dist": d[keep].astype(np.int64)})

    res = exploded.groupby("band").map_groups(pairs, batch_format="pandas")
    # a pair found in two bands is the same (name_a, name_b, dist) row —
    # global dedupe via the vectorized grouped-min machinery
    from .groupagg import grouped_agg

    return grouped_agg(res, ["name_a", "name_b"], {"dist": "min"})


def extract_pattern(ds: "ray.data.Dataset", col: str, pattern: str,
                    out_col: str = "extracted",
                    id_cols: "Sequence[str] | None" = None
                    ) -> "ray.data.Dataset":
    """First-match regex capture over a text column — SQL
    ``regexp_extract(col, pattern, 1)`` (one capture group; rows without
    a match get '' exactly like DuckDB, not NULL).  The pattern compiles
    once per task closure, the scan is the vectorized pandas
    ``str.extract`` — no per-row Python, no shuffle: a pure streaming
    map, the cheapest possible operator shape."""
    import re

    rx = re.compile(pattern)
    if rx.groups != 1:
        raise ValueError(
            f"pattern must have exactly one capture group, has {rx.groups}")
    ids = list(id_cols) if id_cols is not None else None

    def f(b: "pd.DataFrame") -> "pd.DataFrame":
        out = pd.DataFrame({c: b[c] for c in (ids or b.columns)})
        out[out_col] = (b[col].str.extract(rx, expand=False)
                        .fillna("").to_numpy())
        return out

    return ds.map_batches(f, batch_format="pandas")


def decontaminate_tokens(docs: "ray.data.Dataset", bench: "ray.data.Dataset",
                         ngram: int = 3) -> "ray.data.Dataset":
    """Benchmark decontamination over the NATIVE pre-tokenized table:
    token-id n-gram shingles (the dedup_minhash_tokens chain) instead of
    word shingles — leakage checks run where the corpus lives, with no
    detokenization.  Same broadcast-set scale shape as
    :func:`decontaminate` (the corpus never shuffles)."""
    from ..pipelines.dedup import token_shingler

    return decontaminate(docs, bench, ngram=ngram,
                         shingler=token_shingler("tokens", ngram))


def span_dedup_rewrite(docs: "ray.data.Dataset", window: int = 5,
                       num_partitions: Optional[int] = None
                       ) -> "ray.data.Dataset":
    """Exact substring deduplication WITH REMOVAL (the rewrite
    counterpart of :func:`span_dedup` — Lee et al. 2021's ExactSubstr:
    every duplicated substring survives exactly once, at its globally
    first occurrence).  A ``window``-word rolling span whose hash occurs
    at >= 2 positions corpus-wide keeps only the occurrence with the
    minimum order key ``doc_id * 2^20 + start``; every word position
    covered by a non-canonical duplicate occurrence is dropped, and the
    document is rebuilt from the surviving words (lowercased,
    single-space joined — the canonical word-stream form shared with the
    DuckDB twin).  Returns (doc_id, text_clean, n_words, n_removed) for
    EVERY input document (documents under ``window`` words pass through
    whole).  Documents are assumed < 2^20 words (the line_dedup order-key
    contract).

    Scale shape (100 TB): spans hash in-block (8 B each, text never
    shuffles); the (count, min-okey) reduction per hash pre-combines per
    block before one grouped_agg; only occurrences of ACTUALLY-duplicated
    hashes flow into the join (the dup-hash set is output-sized); removal
    starts re-nest per doc through ``collect_list`` (ints only); the
    rebuild is one diff-array coverage pass per block.  The only
    corpus-sized shuffle is the occurrence-vs-dup-hash join — the same
    linear exchange the suffix-array construction of the exact method
    needs."""
    import pyarrow as pa

    from ..functions.text import flatten_words
    from .dedup import _enforce_schema

    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if num_partitions is None:
        num_partitions = shuffle_partitions()

    def occurrences(batch: pd.DataFrame) -> pd.DataFrame:
        n_sh, h = sk.word_ngram_hashes(batch["text"], n=window)
        ids = batch["doc_id"].to_numpy()
        doc_of = np.repeat(ids, n_sh)
        s = (np.arange(int(n_sh.sum()), dtype=np.int64)
             - np.repeat(np.cumsum(n_sh) - n_sh, n_sh))
        return pd.DataFrame({
            "doc_id": doc_of, "s": s, "h": h,
            "okey": doc_of * _LINE_SHIFT + s,
        })

    occ_schema = pa.schema([("doc_id", pa.int64()), ("s", pa.int64()),
                            ("h", pa.uint64()), ("okey", pa.int64())])
    occ = _enforce_schema(docs.map_batches(occurrences,
                                           batch_format="pandas"),
                          occ_schema)

    rm_packed = _span_removals(occ, pa.int64(), num_partitions)

    def rebuild_factory(rm_by_doc):
        def rebuild(batch: pd.DataFrame) -> pd.DataFrame:
            words = batch["text"].fillna("").str.lower().str.split()
            lens = words.str.len().astype(np.int64).to_numpy()
            total = int(lens.sum())
            flat = flatten_words(words, lens)
            offs = np.cumsum(lens) - lens
            diff = np.zeros(total + 1, dtype=np.int64)
            n_removed = np.zeros(len(batch), dtype=np.int64)
            starts_col = (batch[rm_by_doc].to_numpy()
                          if rm_by_doc in batch.columns else
                          np.full(len(batch), None, dtype=object))
            for i, st in enumerate(starts_col):
                if st is None or (isinstance(st, float) and np.isnan(st)):
                    continue
                sarr = (np.frombuffer(st, dtype="<i8")
                        if isinstance(st, (bytes, bytearray))
                        else np.asarray(st, dtype=np.int64))
                if not len(sarr):
                    continue
                np.add.at(diff, offs[i] + sarr, 1)
                np.add.at(diff, offs[i] + sarr + window, -1)
            cov = np.cumsum(diff[:total]) > 0 if total else np.zeros(0, bool)
            doc_of = np.repeat(np.arange(len(batch), dtype=np.int64), lens)
            if total:
                n_removed = np.bincount(doc_of, weights=cov.astype(np.float64),
                                        minlength=len(batch)).astype(np.int64)
            kept_mask = ~cov
            kept_words = flat[kept_mask] if total else flat
            kept_doc = doc_of[kept_mask] if total else doc_of
            # per-doc single-space join over the kept word stream
            texts = [""] * len(batch)
            if len(kept_words):
                cut = np.flatnonzero(kept_doc[1:] != kept_doc[:-1]) + 1
                starts_k = np.concatenate([[0], cut])
                ends_k = np.concatenate([cut, [len(kept_words)]])
                for s0, e0 in zip(starts_k, ends_k):
                    texts[int(kept_doc[s0])] = " ".join(kept_words[s0:e0])
            return pd.DataFrame({
                "doc_id": batch["doc_id"],
                "text_clean": pd.Series(texts, dtype=object).to_numpy(),
                "n_words": lens,
                "n_removed": n_removed,
            })
        return rebuild

    if rm_packed is None:  # nothing duplicated anywhere: pure pass-through
        return docs.map_batches(rebuild_factory("_none_"),
                                batch_format="pandas")

    joined = docs.join(rm_packed, join_type="left_outer",
                       num_partitions=num_partitions, on=("doc_id",))
    return joined.map_batches(rebuild_factory("rm_starts"),
                              batch_format="pandas")


def _span_removals(occ: "ray.data.Dataset", key_type, num_partitions: int):
    """Shared ExactSubstr machinery: from an occurrence dataset
    (doc_id:``key_type``, s, h, okey), find the non-canonical occurrences
    of every duplicated span hash and re-nest their start positions per
    doc as one little-endian int64 buffer (Arrow hash joins can't carry
    list payloads).  Returns a (doc_id, rm_starts binary) Dataset, or
    None when nothing is duplicated."""
    import pyarrow as pa

    from .dedup import _enforce_schema
    from .groupagg import grouped_agg
    from .relational import collect_list

    def hash_partial(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"h": b["h"], "c": np.int64(1), "mo": b["okey"]})

    agg = grouped_agg(occ.map_batches(hash_partial, batch_format="pandas"),
                      ["h"], {"c": "sum", "mo": "min"})
    dupset = agg.map_batches(lambda b: b[b["c"] >= 2][["h", "mo"]],
                             batch_format="pandas")
    dupset = drop_empty_blocks(_enforce_schema(
        dupset, pa.schema([("h", pa.uint64()),
                           ("mo", pa.int64())])).materialize())
    if dupset is None:
        return None

    j = occ.join(dupset, join_type="inner", num_partitions=num_partitions,
                 on=("h",))
    rm = j.map_batches(
        lambda b: b[b["okey"] != b["mo"]][["doc_id", "s"]],
        batch_format="pandas")
    rm = _enforce_schema(rm, pa.schema([("doc_id", key_type),
                                        ("s", pa.int64())]))
    rm_nested = collect_list(rm, key="doc_id", value_col="s",
                             order_col="s", out_col="rm_starts")

    def pack_starts(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": b["doc_id"].to_numpy(),
            "rm_starts": [np.asarray(x, dtype="<i8").tobytes()
                          for x in b["rm_starts"]],
        })

    return _enforce_schema(
        rm_nested.map_batches(pack_starts, batch_format="pandas"),
        pa.schema([("doc_id", key_type), ("rm_starts", pa.binary())]))


def span_dedup_rewrite_tokens(tok: "ray.data.Dataset", window: int = 5,
                              order_col: str = "dk",
                              num_partitions: Optional[int] = None
                              ) -> "ray.data.Dataset":
    """ExactSubstr removal over the NATIVE pre-tokenized table: a
    ``window``-token rolling span (splitmix token-id n-gram chain, the
    dedup_minhash_tokens hashes) duplicated corpus-wide survives only at
    the occurrence with minimum ``dk * 2^20 + start`` — ``order_col``
    must be an int64 column giving each document's global order rank
    (doc_ids are strings here, so the caller supplies the numeric key).
    Covered token positions drop; sequences rebuild as the same list
    type.  Returns (doc_id, tokens, n_tok, n_removed)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from .dedup import _enforce_schema

    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if num_partitions is None:
        num_partitions = shuffle_partitions()

    def occurrences(batch: pd.DataFrame) -> pd.DataFrame:
        n_sh, h = sk.token_ngram_hashes(batch["tokens"], n=window)
        doc_of = np.repeat(batch["doc_id"].to_numpy(), n_sh)
        dk = np.repeat(batch[order_col].to_numpy(dtype=np.int64), n_sh)
        s = (np.arange(int(n_sh.sum()), dtype=np.int64)
             - np.repeat(np.cumsum(n_sh) - n_sh, n_sh))
        return pd.DataFrame({"doc_id": doc_of, "s": s, "h": h,
                             "okey": dk * _LINE_SHIFT + s})

    occ = _enforce_schema(
        tok.map_batches(occurrences, batch_format="pandas"),
        pa.schema([("doc_id", pa.string()), ("s", pa.int64()),
                   ("h", pa.uint64()), ("okey", pa.int64())]))
    rm_packed = _span_removals(occ, pa.string(), num_partitions)

    # Arrow hash joins reject list payloads, so the token sequences ride
    # through the join as one little-endian buffer per doc (the same
    # memcpy the join's block serialization would do anyway)
    vtype = tok.schema().base_schema.field("tokens").type.value_type
    np_dt = np.dtype(vtype.to_pandas_dtype()).newbyteorder("<")

    def pack_tok(t: pa.Table) -> pa.Table:
        col = t["tokens"].combine_chunks() if isinstance(
            t["tokens"], pa.ChunkedArray) else t["tokens"]
        lens = pc.list_value_length(col).to_numpy(zero_copy_only=False)
        lens = np.nan_to_num(lens.astype(np.float64)).astype(np.int64)
        flat = (col.flatten().to_numpy(zero_copy_only=False)
                .astype(np_dt, copy=False))
        offs = np.concatenate([[0], np.cumsum(lens)])
        # carry the list validity: null sequences pack to empty buffers
        # like empty lists do, so without this flag rebuild could not
        # tell them apart and nulls would come back as [] (the string
        # variant preserves nulls via its valid mask).
        valid = col.is_valid().to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": t["doc_id"],
            "tokbin": pa.array([flat[offs[i]:offs[i + 1]].tobytes()
                                for i in range(len(lens))], pa.binary()),
            "tokvalid": pa.array(valid, pa.bool_()),
        })

    slim = tok.map_batches(pack_tok, batch_format="pyarrow")

    def rebuild(t: pa.Table) -> pa.Table:
        bufs = t["tokbin"].to_pylist()
        lens = np.asarray([len(b) // np_dt.itemsize for b in bufs],
                          dtype=np.int64)
        total = int(lens.sum())
        flat = (np.frombuffer(b"".join(bufs), dtype=np_dt)
                if total else np.empty(0, dtype=np_dt))
        offs = np.cumsum(lens) - lens
        diff = np.zeros(total + 1, dtype=np.int64)
        if "rm_starts" in t.schema.names:
            for i, st in enumerate(t["rm_starts"].to_pylist()):
                if not st:
                    continue
                sarr = np.frombuffer(st, dtype="<i8")
                np.add.at(diff, offs[i] + sarr, 1)
                np.add.at(diff, offs[i] + sarr + window, -1)
        cov = np.cumsum(diff[:total]) > 0 if total else np.zeros(0, bool)
        doc_of = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        n_removed = (np.bincount(doc_of, weights=cov.astype(np.float64),
                                 minlength=len(lens)).astype(np.int64)
                     if total else np.zeros(len(lens), dtype=np.int64))
        new_lens = lens - n_removed
        new_offs = np.zeros(len(lens) + 1, dtype=np.int32)
        np.cumsum(new_lens, out=new_offs[1:])
        kept = flat[~cov] if total else flat
        if "tokvalid" in t.schema.names:
            valid = np.asarray(t["tokvalid"].to_numpy(zero_copy_only=False),
                               dtype=bool)
        else:
            valid = np.ones(len(lens), dtype=bool)
        arr = pa.ListArray.from_arrays(
            pa.array(new_offs, pa.int32()), pa.array(kept, type=vtype),
            mask=pa.array(~valid) if not valid.all() else None)
        return pa.table({
            "doc_id": t["doc_id"],
            "tokens": arr,
            "n_tok": pa.array(np.where(valid, new_lens, 0), pa.int64(),
                              mask=~valid),
            "n_removed": pa.array(n_removed, pa.int64()),
        })

    if rm_packed is None:
        return slim.map_batches(rebuild, batch_format="pyarrow")
    joined = slim.join(rm_packed, join_type="left_outer",
                       num_partitions=num_partitions, on=("doc_id",))
    return joined.map_batches(rebuild, batch_format="pyarrow")


def repetition_stats_tokens(tok: "ray.data.Dataset", ngram: int = 2,
                            dup_ratio_denom: int = 4) -> "ray.data.Dataset":
    """Gopher-style in-document repetition signals over the NATIVE
    pre-tokenized table: token-id ``ngram``-gram occurrences / distinct /
    top count and the integer-exact ``repetitive`` verdict — the same
    contract as :func:`repetition_stats`, with n-grams identified by the
    shared splitmix chain hash (collisions ~n²/2^64, shared with the SQL
    twin by design).  Embarrassingly parallel: one hash pass + one
    lexsort run-length reduction per block; no shuffle."""
    if ngram < 1:
        raise ValueError(f"ngram must be >= 1, got {ngram}")

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        n_sh, h = sk.token_ngram_hashes(batch["tokens"], n=ngram)
        n = len(batch)
        n_distinct = np.zeros(n, dtype=np.int64)
        top = np.zeros(n, dtype=np.int64)
        if len(h):
            doc_of = np.repeat(np.arange(n, dtype=np.int64), n_sh)
            order = np.lexsort((h, doc_of))
            d2, h2 = doc_of[order], h[order]
            new = np.concatenate([[True],
                                  (d2[1:] != d2[:-1]) | (h2[1:] != h2[:-1])])
            starts = np.flatnonzero(new)
            run_doc = d2[starts]
            n_distinct = np.bincount(run_doc, minlength=n).astype(np.int64)
            run_len = np.diff(np.concatenate([starts, [len(h2)]]))
            np.maximum.at(top, run_doc, run_len)
        ng = n_sh.astype(np.int64)
        return pd.DataFrame({
            "doc_id": batch["doc_id"],
            "n_grams": ng,
            "n_distinct": n_distinct,
            "top_count": top,
            "repetitive": (ng - n_distinct) * dup_ratio_denom > ng,
        })

    return tok.map_batches(f, batch_format="pandas")


def ngram_novelty_tokens(tok: "ray.data.Dataset", ngram: int = 3,
                         common_df: int = 2,
                         num_partitions: int | None = None
                         ) -> "ray.data.Dataset":
    """CROSS-document n-gram novelty over the native pre-tokenized
    table: for each document, how many of its DISTINCT token-id
    ``ngram``-grams also occur in at least ``common_df`` documents
    corpus-wide — the memorization/boilerplate signal that in-document
    repetition stats (:func:`repetition_stats_tokens`) cannot see.
    Returns ``(doc_id, n_distinct, n_common)`` for every document
    (``n_common <= n_distinct``; a high ratio marks near-boilerplate).

    Scale shape (100 TB): per-block partials emit per-doc DISTINCT
    (doc_id, gram-hash) pairs (8 B/gram, rows are whole docs so
    per-block dedup IS global dedup); gram document frequency is a
    ``grouped_sum`` over the hash only; scoring joins the pair stream
    back against the df table on the hash — no broadcast vocabulary,
    no driver-side state, same shape as ``bigram_surprisal_tokens``.
    Grams are identified by the shared splitmix chain hash (collision
    odds ~n²/2^64, shared with the SQL twin by design)."""
    import pyarrow as pa

    from .dedup import _enforce_schema
    from .groupagg import grouped_sum

    if ngram < 1:
        raise ValueError(f"ngram must be >= 1, got {ngram}")
    if num_partitions is None:
        num_partitions = shuffle_partitions()

    def pairs_partial(batch: pd.DataFrame) -> pd.DataFrame:
        n_sh, h = sk.token_ngram_hashes(batch["tokens"], n=ngram)
        doc_of = np.repeat(np.asarray(batch["doc_id"], dtype=object), n_sh)
        return (pd.DataFrame({"doc_id": doc_of, "h": h.view(np.int64)})
                .drop_duplicates(ignore_index=True))

    pair_schema = pa.schema([("doc_id", pa.string()), ("h", pa.int64())])
    pairs = _enforce_schema(
        tok.map_batches(pairs_partial, batch_format="pandas"), pair_schema)
    pairs = pairs.materialize()  # reused for df counts AND scoring

    dft = grouped_sum(pairs.map_batches(
        lambda b: pd.DataFrame({"h": b["h"], "n": np.int64(1)}),
        batch_format="pandas"), ["h"], ["n"])
    dft = _enforce_schema(dft, pa.schema([("h", pa.int64()),
                                          ("n", pa.int64())]))

    j = pairs.join(dft, join_type="inner", num_partitions=num_partitions,
                   on=("h",))

    def doc_partial(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": b["doc_id"],
            "n_distinct": np.int64(1),
            "n_common": (b["n"].to_numpy(dtype=np.int64)
                         >= np.int64(common_df)).astype(np.int64),
        })

    agg = grouped_sum(j.map_batches(doc_partial, batch_format="pandas"),
                      ["doc_id"], ["n_distinct", "n_common"])
    agg = _enforce_schema(agg, pa.schema([("doc_id", pa.string()),
                                          ("n_distinct", pa.int64()),
                                          ("n_common", pa.int64())]))

    base = tok.map_batches(
        lambda b: pd.DataFrame({"doc_id": b["doc_id"].astype(str)}),
        batch_format="pandas")
    out = base.join(agg, join_type="left_outer",
                    num_partitions=num_partitions, on=("doc_id",))
    return out.map_batches(
        lambda b: pd.DataFrame({
            "doc_id": b["doc_id"],
            "n_distinct": b["n_distinct"].fillna(0).astype(np.int64),
            "n_common": b["n_common"].fillna(0).astype(np.int64)}),
        batch_format="pandas")
