"""Text-analysis pipelines over the documents table (SQL-twinned where the
kernel is SQL-expressible; see __ray_entry__.oracle_sql)."""

from __future__ import annotations

import operator

import numpy as np
import pandas as pd
import ray.data

from ..functions import sketches as sk
from ..functions import text as tx
from ..functions.text import flatten_words
from .blocktasks import carry_scan


def token_counts(docs: "ray.data.Dataset") -> "ray.data.Dataset":
    def f(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "n_ws_tokens": tx.ws_token_count(batch["text"]),
            }
        )

    return docs.map_batches(f, batch_format="pandas")


def quality_scores(docs: "ray.data.Dataset") -> "ray.data.Dataset":
    def f(batch: pd.DataFrame) -> pd.DataFrame:
        comp = tx.quality_components(batch["text"])
        return pd.DataFrame({"doc_id": batch["doc_id"], **comp})

    return docs.map_batches(f, batch_format="pandas")


def fingerprints(docs: "ray.data.Dataset") -> "ray.data.Dataset":
    def f(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"doc_id": batch["doc_id"], "fingerprint_md5": tx.md5_hex(batch["text"])}
        )

    return docs.map_batches(f, batch_format="pandas")


def language_id(docs: "ray.data.Dataset") -> "ray.data.Dataset":
    """(doc_id, lang_pred, lang_score) — SQL-expressible (marker-word hit
    ratio + argmax with ascending-code tie-break), so it carries a hard
    DuckDB oracle (VERDICT r1 #6 direction)."""

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        lang, score = tx.lang_id(batch["text"])
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "lang_pred": lang,
                # raw double ratio: bit-identical to DuckDB's k/n division
                # (no rounding — round() tie-break rules differ across engines)
                "lang_score": score,
            }
        )

    return docs.map_batches(f, batch_format="pandas")


def text_stats(docs: "ray.data.Dataset") -> "ray.data.Dataset":
    """Rolling fingerprint + BPE-ish token count. Not SQL-expressible
    (uint64 wraparound math; RE2 has no lookahead for the BPE pattern) —
    rows-only oracle; kernel determinism is unit-tested."""

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "fingerprint_roll": tx.rolling_fingerprint(batch["text"]),
                "n_bpe_tokens": tx.bpe_token_count(batch["text"]),
            }
        )

    return docs.map_batches(f, batch_format="pandas")


def rolling_fingerprints(docs: "ray.data.Dataset") -> "ray.data.Dataset":
    """(doc_id, fingerprint_roll) — the polynomial rolling hash alone.
    Unlike ``text_stats`` (whose BPE count needs a lookahead regex), this
    IS SQL-expressible: h*1000003 stays < 2^81, so a DuckDB recursive CTE
    over HUGEINT with ``& (2^61-1)`` replays the byte chain exactly (see
    ``oracle_sql()['doc_roll_fp']``)."""

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": batch["doc_id"],
            "fingerprint_roll": tx.rolling_fingerprint(batch["text"]),
        })

    return docs.map_batches(f, batch_format="pandas")


def stats_by_source(docs: "ray.data.Dataset") -> "ray.data.Dataset":
    """Per-source aggregate via the partial-aggregation pattern: one partial
    row per (source) per batch inside map_batches, then a tiny groupby over
    the partials — the shuffle moves O(sources * batches) rows, not O(rows).

    SQL twin: SELECT source, count(*) AS n_docs, sum(n_chars) AS sum_chars,
    sum(CASE ws count END) AS sum_ws_tokens FROM documents GROUP BY source.
    """

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        ws = tx.ws_token_count(batch["text"])
        g = pd.DataFrame(
            {"source": batch["source"], "n_chars": batch["n_chars"], "ws": ws}
        ).groupby("source", sort=False)
        out = g.agg(n_docs=("ws", "size"), sum_chars=("n_chars", "sum"), sum_ws_tokens=("ws", "sum"))
        return out.reset_index()

    partials = docs.map_batches(partial, batch_format="pandas")
    from ray.data.aggregate import Sum

    return partials.groupby("source").aggregate(
        Sum("n_docs", alias_name="n_docs"),
        Sum("sum_chars", alias_name="sum_chars"),
        Sum("sum_ws_tokens", alias_name="sum_ws_tokens"),
    )


def top_terms(docs: "ray.data.Dataset", k: int = 50) -> pd.DataFrame:
    """Corpus-wide top-k term frequencies.

    Partial-agg pattern: ``grouped_count`` over the per-batch word stream
    — the shuffle carries (word, count) partials, never text — then
    distributed per-block top-k with only k rows per block reaching the
    driver merge. Tie-break (n desc, word asc) matches the SQL oracle
    exactly.

    SQL twin: regexp_extract_all(lower(text), '[a-z0-9]+') -> unnest ->
    GROUP BY -> ORDER BY n DESC, word LIMIT k.
    """

    def words(batch: pd.DataFrame) -> pd.DataFrame:
        w = batch["text"].fillna("").str.lower().str.findall(r"[a-z0-9]+")
        return pd.DataFrame({"word": flatten_words(
            w, w.str.len().astype(np.int64).to_numpy())})

    from .groupagg import grouped_count

    agg = grouped_count(docs.map_batches(words, batch_format="pandas"),
                        ["word"], name="n")

    def local_topk(batch: pd.DataFrame) -> pd.DataFrame:
        if "word" not in batch.columns or not len(batch):
            return pd.DataFrame({"word": pd.Series([], dtype=object),
                                 "n": pd.Series([], dtype=np.int64)})
        return batch.sort_values(["n", "word"], ascending=[False, True]).head(k)

    # words are unique after the aggregate, so the global top-k is contained
    # in the union of per-block top-ks: only k rows/block reach the driver
    cands = agg.map_batches(local_topk, batch_format="pandas").to_pandas()
    out = cands.sort_values(["n", "word"], ascending=[False, True]).head(k)
    return out.reset_index(drop=True).astype({"n": np.int64})


def doc_top_terms(docs: "ray.data.Dataset", k: int = 3) -> "ray.data.Dataset":
    """Top-k distinguishing terms per document, ranked by (term frequency
    desc, document frequency asc, word asc) — the tf-idf ordering with
    integer-only keys, so the DuckDB twin hashes bit-exact (no float log).

    Scale shape: tf is doc-local (computed inside the batch, no shuffle);
    df is one vocabulary-sized ``grouped_count`` over distinct (doc, word)
    pairs, broadcast once via ray.put; ranking is vectorized per batch.
    """

    def distinct_pairs(batch: pd.DataFrame) -> pd.DataFrame:
        words = batch["text"].fillna("").str.lower().str.findall(r"[a-z0-9]+")
        lens = words.str.len().astype(np.int64).to_numpy()
        flat = flatten_words(words, lens)
        doc_of = np.repeat(np.arange(len(batch), dtype=np.int64), lens)
        return pd.DataFrame({"d": doc_of, "word": flat}).drop_duplicates()

    from .groupagg import grouped_count

    df_ds = grouped_count(docs.map_batches(distinct_pairs, batch_format="pandas"),
                          ["word"], name="df")
    # the df table is vocabulary-sized (not corpus-sized); at true web scale
    # swap this broadcast for a hash join on word
    df_pdf = df_ds.to_pandas()
    df_map = dict(zip(df_pdf["word"], df_pdf["df"])) if len(df_pdf) else {}
    import ray as _ray

    df_ref = _ray.put(df_map)

    def topk(batch: pd.DataFrame) -> pd.DataFrame:
        dfm = _ray.get(df_ref)
        words = batch["text"].fillna("").str.lower().str.findall(r"[a-z0-9]+")
        lens = words.str.len().astype(np.int64).to_numpy()
        flat = flatten_words(words, lens)
        doc_of = np.repeat(np.arange(len(batch), dtype=np.int64), lens)
        tf = (pd.DataFrame({"i": doc_of, "word": flat})
              .groupby(["i", "word"], sort=False).size().reset_index(name="tf"))
        tf["df"] = tf["word"].map(dfm).astype(np.int64)
        tf = tf.sort_values(["i", "tf", "df", "word"],
                            ascending=[True, False, True, True])
        tf["rank"] = tf.groupby("i").cumcount() + 1
        tf = tf[tf["rank"] <= k]
        tf["doc_id"] = batch["doc_id"].to_numpy()[tf["i"].to_numpy()]
        return tf[["doc_id", "word", "tf", "df", "rank"]].astype(
            {"tf": np.int64, "df": np.int64, "rank": np.int64})

    return docs.map_batches(topk, batch_format="pandas")


def top_terms_per_source(docs: "ray.data.Dataset",
                         k: int = 5) -> "ray.data.Dataset":
    """Top-``k`` terms per source by frequency (ties: word asc) — the
    per-subcorpus vocabulary profile (trending/characteristic terms per
    provenance bucket).  SQL twin: one ``row_number() OVER (PARTITION BY
    source ORDER BY n DESC, word)`` window.

    Scale shape: per-batch (source, word) rows -> ``grouped_count``
    on (source, word) (the shuffle carries counts, never text) ->
    per-block per-source top-k (the global top-k of a group is contained
    in the union of its per-block top-ks — counts are final after the
    aggregate, so this is the selection property again) -> a driver
    merge over <= k x sources x blocks candidate rows."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        words = batch["text"].fillna("").str.lower().str.findall(r"[a-z0-9]+")
        lens = words.str.len().astype(np.int64).to_numpy()
        flat = flatten_words(words, lens)
        src = batch["source"].to_numpy()[np.repeat(
            np.arange(len(batch), dtype=np.int64), lens)]
        return pd.DataFrame({"source": src, "word": flat})

    from .groupagg import grouped_count

    agg = grouped_count(docs.map_batches(partial, batch_format="pandas"),
                        ["source", "word"], name="n")

    def local_topk(b: pd.DataFrame) -> pd.DataFrame:
        if not len(b):
            return b
        b = b.sort_values(["source", "n", "word"],
                          ascending=[True, False, True], kind="mergesort")
        return b.groupby("source", sort=False).head(k)

    cands = agg.map_batches(local_topk, batch_format="pandas").to_pandas()
    if not len(cands):
        return ray.data.from_pandas(pd.DataFrame(
            {"source": pd.Series([], dtype=object),
             "word": pd.Series([], dtype=object),
             "n": pd.Series([], dtype=np.int64),
             "rank": pd.Series([], dtype=np.int64)}))
    cands = cands.sort_values(["source", "n", "word"],
                              ascending=[True, False, True], kind="mergesort")
    cands["rank"] = cands.groupby("source", sort=False).cumcount() + 1
    out = cands[cands["rank"] <= k].reset_index(drop=True)
    return ray.data.from_pandas(out.astype({"n": np.int64,
                                            "rank": np.int64}))


def deterministic_mix(docs: "ray.data.Dataset", weights: dict[str, int],
                      default_pct: int = 100) -> "ray.data.Dataset":
    """Data mixing: keep each document with a per-source percentage, decided
    by a DETERMINISTIC content-independent hash of doc_id (first 8 md5 hex
    chars mod 100) — reproducible across runs/cluster sizes, no RNG state,
    and exactly expressible in SQL (hash-exact oracle), unlike seeded
    samplers. ``weights``: source -> keep percentage 0..100."""

    def keep(batch: pd.DataFrame) -> pd.DataFrame:
        h = np.asarray([int(x[:8], 16) for x in tx.md5_hex(batch["doc_id"].astype(str))],
                       dtype=np.int64) % 100
        pct = batch["source"].map(weights).fillna(default_pct).astype(np.int64).to_numpy()
        return batch[h < pct]

    return docs.map_batches(keep, batch_format="pandas")


def sample_weighted(docs: "ray.data.Dataset", weight_col: str = "n_chars",
                    rate_per_unit: float = 1 / 4000, seed: int = 7,
                    columns: "list[str] | None" = None) -> "ray.data.Dataset":
    """Weight-proportional Bernoulli sampling (importance sampling of
    training data): each row is kept with probability
    ``min(1, weight * rate_per_unit)``, decided by a DETERMINISTIC seeded
    hash — reproducible across runs, partitionings and cluster sizes, no
    RNG state, and a pure streaming filter (no shuffle, nothing reaches
    the driver).

    The keep decision is INTEGER-EXACT so the SQL twin hashes identical:
    with ``T = floor(rate_per_unit * 2^64)``, keep iff
    ``splitmix64(doc_id XOR seed) // T < floor(weight)`` — equivalent to
    ``h < floor(weight) * T`` (uniform h in [0, 2^64)) but free of both
    uint64 overflow and float rounding; rows with ``weight >= 2^64/T``
    are kept with probability exactly 1. Weights enter the rule as
    ``floor(weight)`` (integer columns unchanged; fractional weights
    below 1 are never kept — scale them into integer units via
    ``rate_per_unit`` instead), mirrored by ``floor()`` in the twin."""
    T = int(rate_per_unit * (1 << 64))
    if T <= 0:
        raise ValueError(f"rate_per_unit too small: {rate_per_unit}")
    if T >= (1 << 64):  # rate >= 1 per unit: every weight >= 1 row kept
        T = (1 << 64) - 1
    Tu = np.uint64(T)
    sd = np.uint64(seed)

    # uint64-representable saturation bound shared bit-for-bit with the
    # SQL twin's least(): floats >= 2^64 (and +inf) would otherwise be an
    # invalid uint64 cast (numpy yields 0 — silently dropping rows the
    # saturation guarantee promises to keep)
    _W_CLAMP = 18446744073709549568.0  # 2^64 - 2048, exact in float64

    def keep(batch: pd.DataFrame) -> pd.DataFrame:
        h = sk._splitmix64(batch["doc_id"].to_numpy(dtype=np.uint64) ^ sd)
        wv = batch[weight_col].fillna(0).to_numpy()
        if wv.dtype.kind not in "iu":  # explicit floor, same rule as the twin
            wv = np.clip(np.floor(np.nan_to_num(wv, nan=0.0, posinf=_W_CLAMP,
                                                neginf=0.0)), 0, _W_CLAMP)
        w = np.maximum(wv, 0).astype(np.uint64)
        out = batch[(h // Tu) < w]
        return out[columns] if columns else out

    return docs.map_batches(keep, batch_format="pandas")


def top_ngrams(docs: "ray.data.Dataset", n: int = 2, k: int = 30) -> pd.DataFrame:
    """Corpus-wide top-``k`` word ``n``-grams by frequency — the
    repetition / boilerplate / contamination profile of a corpus
    (n-grams never cross document boundaries).

    Same scale shape as :func:`top_terms`: n-grams are built per batch
    from the flattened word stream with shifted-view concatenation (no
    per-row Python), partial (gram, count) rows shuffle through
    ``grouped_count`` (vocabulary-bounded, never text), and only k rows
    per block reach the driver merge.  Tie-break (n desc, gram asc)
    matches the SQL twin exactly."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        words = batch["text"].fillna("").str.lower().str.findall(r"[a-z0-9]+")
        lens = words.str.len().astype(np.int64).to_numpy()
        flat = flatten_words(words, lens)
        if len(flat) < n:
            return pd.DataFrame({"gram": pd.Series([], dtype=object)})
        doc_of = np.repeat(np.arange(len(batch), dtype=np.int64), lens)
        # valid starts: the whole n-gram stays inside one document
        m = doc_of[:len(flat) - n + 1] == doc_of[n - 1:]
        grams = flat[:len(flat) - n + 1].copy()
        for i in range(1, n):
            grams = grams + " "
            grams = grams + flat[i:len(flat) - n + 1 + i]
        return pd.DataFrame({"gram": grams[m]})

    from .groupagg import grouped_count

    agg = grouped_count(docs.map_batches(partial, batch_format="pandas"),
                        ["gram"], name="n")

    def local_topk(batch: pd.DataFrame) -> pd.DataFrame:
        if "gram" not in batch.columns or not len(batch):
            return pd.DataFrame({"gram": pd.Series([], dtype=object),
                                 "n": pd.Series([], dtype=np.int64)})
        return batch.sort_values(["n", "gram"], ascending=[False, True]).head(k)

    cands = agg.map_batches(local_topk, batch_format="pandas").to_pandas()
    if "gram" not in cands.columns or not len(cands):
        return pd.DataFrame({"gram": pd.Series([], dtype=object),
                             "n": pd.Series([], dtype=np.int64)})
    out = cands.sort_values(["n", "gram"], ascending=[False, True]).head(k)
    return out.reset_index(drop=True).astype({"n": np.int64})


def bm25_score(docs: "ray.data.Dataset", terms: "list[str]",
               k1: float = 1.2, b: float = 0.75) -> "ray.data.Dataset":
    """BM25 relevance of every document against a bag of query ``terms``
    (Robertson/Sparck-Jones; the Lucene ``ln(1 + (N-df+0.5)/(df+0.5))``
    idf variant) — the retrieval-scoring step of a data-curation or
    eval-search pipeline.  Returns (doc_id, score) for score > 0.

    Hash-exact float twin by construction: idf uses libm ``log`` via
    ``math.log`` (DuckDB's ``ln`` resolves to the same libm call —
    numpy's SIMD log may differ by 1 ulp, so it is NOT used here); every
    per-term contribution is the identical IEEE expression tree on both
    sides; and the cross-term sum runs in SORTED TERM ORDER as a fixed
    left-associative chain (SQL float SUM() has no order guarantee, so
    the twin pivots to a literal ``+`` chain).

    Scale shape: pass 1 is one single-row partial per block (doc count,
    token count, per-term document frequencies — a ``len(terms)+2``-wide
    row, never data); the constants broadcast in the closure; pass 2 is
    a pure streaming score map.  No shuffle at all."""
    import math

    terms = sorted(set(terms))

    def stats_partial(batch: pd.DataFrame) -> pd.DataFrame:
        words = batch["text"].fillna("").str.lower().str.findall(r"[a-z0-9]+")
        lens = words.str.len().astype(np.int64).to_numpy()
        flat = flatten_words(words, lens)
        doc_of = np.repeat(np.arange(len(batch), dtype=np.int64), lens)
        row = {"n": [np.int64(len(batch))], "sdl": [lens.sum()]}
        for t in terms:
            hit_docs = np.unique(doc_of[flat == t]) if len(flat) else []
            row[f"df_{t}"] = [np.int64(len(hit_docs))]
        return pd.DataFrame(row)

    agg = docs.map_batches(stats_partial, batch_format="pandas").to_pandas()
    n = int(agg["n"].sum())
    sdl = int(agg["sdl"].sum())
    if n == 0 or sdl == 0:
        import ray.data as _rd

        return _rd.from_pandas(pd.DataFrame({
            "doc_id": pd.Series([], dtype=np.int64),
            "score": pd.Series([], dtype=np.float64)}))
    avgdl = sdl / n  # one double division, same op in the twin
    idf = {t: math.log(1 + (n - int(agg[f"df_{t}"].sum()) + 0.5)
                       / (int(agg[f"df_{t}"].sum()) + 0.5)) for t in terms}

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        words = batch["text"].fillna("").str.lower().str.findall(r"[a-z0-9]+")
        lens = words.str.len().astype(np.int64).to_numpy()
        flat = flatten_words(words, lens)
        doc_of = np.repeat(np.arange(len(batch), dtype=np.int64), lens)
        dl = lens.astype(np.float64)
        s = np.zeros(len(batch))
        for t in terms:  # fixed sorted order == the twin's + chain
            tf = (np.bincount(doc_of[flat == t], minlength=len(batch))
                  .astype(np.float64) if len(flat) else np.zeros(len(batch)))
            contrib = idf[t] * (tf * (k1 + 1)) / (
                tf + k1 * (1 - b + b * dl / avgdl))
            s = s + np.where(tf > 0, contrib, 0.0)
        keep = s > 0
        return pd.DataFrame({"doc_id": batch["doc_id"].to_numpy()[keep],
                             "score": s[keep]})

    return docs.map_batches(score, batch_format="pandas")


def inverted_index(docs: "ray.data.Dataset", k: int = 8) -> "ray.data.Dataset":
    """Corpus inverted index: (word, n_docs, postings) where ``n_docs`` is
    the EXACT document frequency and ``postings`` holds the first ``k``
    doc_ids in ascending order — the standard capped-posting layout (hot
    words keep an exact count but a bounded list, so posting skew cannot
    blow up a row).  SQL twin: DISTINCT (doc_id, word) pairs ->
    ``list_slice(list(doc_id ORDER BY doc_id), 1, k)`` + count.

    Scale shape: per-batch fragments carry (word, batch-local df, the
    batch's k smallest doc_ids) — vocabulary-bounded per block, never
    text; fragments merge through :func:`groupagg.sorted_block_aggregate`
    (sort on word + per-block merge + edge-row junction pass).  Capping
    per fragment is lossless for the final first-k because the global k
    smallest of a union is contained in the union of per-fragment k
    smallest (selection property); counts stay exact because they merge
    additively.  (doc_id, word) pairs are globally distinct by
    construction — each document lives in exactly one input row."""

    def frag_empty() -> pd.DataFrame:
        return pd.DataFrame({"word": pd.Series([], dtype=object),
                             "n_docs": pd.Series([], dtype=np.int64),
                             "postings": pd.Series([], dtype=object)})

    def fragments(batch: pd.DataFrame) -> pd.DataFrame:
        words = batch["text"].fillna("").str.lower().str.findall(r"[a-z0-9]+")
        lens = words.str.len().astype(np.int64).to_numpy()
        flat = flatten_words(words, lens)
        if not len(flat):
            return frag_empty()
        doc_of = batch["doc_id"].to_numpy()[np.repeat(np.arange(len(batch)), lens)]
        df = (pd.DataFrame({"word": flat, "doc_id": doc_of})
              .drop_duplicates()
              .sort_values(["word", "doc_id"], kind="mergesort"))
        w = df["word"].to_numpy()
        ids = df["doc_id"].to_numpy(dtype=np.int64)
        starts = np.concatenate([[0], np.flatnonzero(w[1:] != w[:-1]) + 1])
        ends = np.concatenate([starts[1:], [len(w)]])
        return pd.DataFrame({
            "word": w[starts],
            "n_docs": (ends - starts).astype(np.int64),
            # per-group slice builds the list cells (vocab-bounded loop,
            # not a row loop); already sorted, so [:k] = k smallest
            "postings": pd.Series([ids[s:min(e, s + k)]
                                   for s, e in zip(starts, ends)], dtype=object),
        })

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return frag_empty()
        df = df.sort_values("word", kind="mergesort")
        w = df["word"].to_numpy()
        starts = np.concatenate([[0], np.flatnonzero(w[1:] != w[:-1]) + 1])
        ends = np.concatenate([starts[1:], [len(w)]])
        posts = df["postings"].to_numpy()
        nd = df["n_docs"].to_numpy(dtype=np.int64)
        merged = [posts[s] if e - s == 1
                  else np.sort(np.concatenate(list(posts[s:e])))[:k]
                  for s, e in zip(starts, ends)]
        return pd.DataFrame({"word": w[starts],
                             "n_docs": np.add.reduceat(nd, starts).astype(np.int64),
                             "postings": pd.Series(merged, dtype=object)})

    from .groupagg import sorted_block_aggregate

    agg = sorted_block_aggregate(
        docs.map_batches(fragments, batch_format="pandas"), ["word"],
        merge, merge)

    import pyarrow as pa

    def to_arrow(b: pd.DataFrame) -> pa.Table:
        # explicit Arrow list<int64> cells: ndarray-in-object-column pandas
        # blocks are a known persistence/convert hazard (keep it pure Arrow)
        return pa.table({
            "word": pa.array(b["word"].astype(str), pa.string()),
            "n_docs": pa.array(b["n_docs"].to_numpy(dtype=np.int64)),
            "postings": pa.array(list(b["postings"]), pa.list_(pa.int64())),
        })

    return agg.map_batches(to_arrow, batch_format="pandas")


def unigram_surprisal(docs: "ray.data.Dataset") -> "ray.data.Dataset":
    """Per-document unigram surprisal score — the perplexity-proxy quality
    filter of C4/Gopher-style pipelines, with INTEGER-EXACT math so the
    DuckDB twin hashes identical: each word scores
    ``floor(log2((N + V) // (c_w + 1)))`` (add-one-smoothed inverse
    corpus frequency; ``N`` = total words, ``V`` = vocabulary size) via
    int.bit_length — no float log on either side (the SQL twin uses
    ``length(printf('%b', k)) - 1``).  A document's score is the sum over
    its words; rare-word-heavy (high-surprisal) documents rank high, and
    boilerplate ranks low.  Returns (doc_id, n_words, surprisal_sum).

    Scale shape: corpus frequencies via the partial-agg pattern (the
    shuffle carries (word, count) partials, vocabulary-bounded, never
    text); the word->score map is vocabulary-sized, built once on the
    driver with exact Python ints and broadcast via ray.put (swap for a
    hash join on word at true web scale — same note as doc_top_terms);
    scoring is one vectorized map + bincount per batch."""

    from ..functions.text import word_count_partial
    from .groupagg import grouped_sum

    freq = grouped_sum(docs.map_batches(word_count_partial,
                                        batch_format="pyarrow"),
                       ["word"], ["n"]).to_pandas()
    n_total = int(freq["n"].sum()) if len(freq) else 0
    v = int(len(freq))
    # exact integer surprisal per vocabulary entry (one pass, driver-side)
    smap = {w: ((n_total + v) // (int(c) + 1)).bit_length() - 1
            for w, c in zip(freq["word"], freq["n"])}
    import ray as _ray

    sref = _ray.put(smap)

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        sm = _ray.get(sref)
        words = batch["text"].fillna("").str.lower().str.findall(r"[a-z0-9]+")
        lens = words.str.len().astype(np.int64).to_numpy()
        flat = flatten_words(words, lens)
        if len(flat):
            sv = pd.Series(flat).map(sm).to_numpy(dtype=np.int64)
            doc_of = np.repeat(np.arange(len(batch), dtype=np.int64), lens)
            # per-word scores are < 64, so the float64 bincount is exact
            ssum = np.bincount(doc_of, weights=sv,
                               minlength=len(batch)).astype(np.int64)
        else:
            ssum = np.zeros(len(batch), dtype=np.int64)
        return pd.DataFrame({"doc_id": batch["doc_id"], "n_words": lens,
                             "surprisal_sum": ssum})

    return docs.map_batches(score, batch_format="pandas")


def sample_exact_n(docs: "ray.data.Dataset", n: int, id_col: str = "doc_id",
                   seed: int = 42,
                   columns: "list[str] | None" = None) -> pd.DataFrame:
    """EXACTLY ``n`` rows, uniformly at random but fully deterministic:
    the n rows with the smallest ``md5(seed || ':' || id)`` — a fixed-size
    sample (unlike the Bernoulli samplers whose output size varies) that
    is reproducible on any cluster size or block layout, with an exact
    SQL twin (ORDER BY md5 LIMIT n).

    Scale shape: each block reduces to its LOCAL n smallest hashes (the
    global n smallest of a union live in the union of per-block n
    smallest — the same selection property the inverted index uses); the
    driver merges n·n_blocks candidate rows, megabytes at k<=10^4."""
    import hashlib

    cols = list(columns) if columns is not None else None

    def local(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch if cols is None else batch[cols + ([id_col] if id_col
                                                     not in cols else [])]
        h = np.asarray([hashlib.md5(f"{seed}:{v}".encode()).hexdigest()
                        for v in batch[id_col]], dtype=object)
        b = b.assign(_h=h)
        if len(b) <= n:
            return b
        idx = np.lexsort((b[id_col].to_numpy(), b["_h"].to_numpy()))[:n]
        return b.iloc[np.sort(idx)]

    parts = [b for b in docs.map_batches(local, batch_format="pandas")
             .iter_batches(batch_format="pandas")]
    want = cols if cols is not None else None
    if not parts:
        return pd.DataFrame(columns=(want if want is not None else [id_col]))
    merged = pd.concat(parts, ignore_index=True)
    out = (merged.sort_values(["_h", id_col], kind="mergesort").head(n)
           .drop(columns="_h").reset_index(drop=True))
    if want is not None:  # id_col was only carried for the tie-break
        out = out[want]
    return out


def assign_splits(docs: "ray.data.Dataset", pcts: "dict[str, int]",
                  id_col: str = "doc_id") -> "ray.data.Dataset":
    """Deterministic train/val/test split assignment: each row gets the
    split whose cumulative percentage bucket contains
    ``md5(id) mod 100`` — content-independent, reproducible on any
    cluster size or block layout, no RNG state (the deterministic_mix
    hash rule, extended to a partition of the id space).  ``pcts`` maps
    split name -> integer percent; must sum to 100.  Returns every input
    row plus a ``split`` column — a pure streaming map, no shuffle."""
    if sum(pcts.values()) != 100:
        raise ValueError(f"split percentages must sum to 100: {pcts}")
    names = list(pcts)  # caller order defines the bucket layout
    bounds = np.cumsum([pcts[s] for s in names])

    def assign(batch: pd.DataFrame) -> pd.DataFrame:
        h = np.asarray([int(x[:8], 16) for x in
                        tx.md5_hex(batch[id_col].astype(str))],
                       dtype=np.int64) % 100
        idx = np.searchsorted(bounds, h, side="right")
        out = batch.copy()
        out["split"] = np.asarray(names, dtype=object)[idx]
        return out

    return docs.map_batches(assign, batch_format="pandas")


def deterministic_shuffle(docs: "ray.data.Dataset", id_col: str = "doc_id",
                          seed: int = 42) -> "ray.data.Dataset":
    """Assign every row its 1-based position in a DETERMINISTIC global
    shuffle (order by ``md5(seed || ':' || id)``) — reproducible
    training-order assignment with no RNG state: re-running with the
    same seed yields the same order on any cluster size or block layout.

    Scale shape: one Ray sort on the md5 key (vectorized range shuffle);
    global positions come from per-block row counts (zero-CPU summary
    tasks, #blocks ints folded into offsets on the driver) plus an
    in-block arange — the sessionize/running-totals carry pattern, no
    data pass beyond the sort.  Returns (id, shuffle_rank)."""
    import hashlib

    def key(batch: pd.DataFrame) -> pd.DataFrame:
        ids = batch[id_col]
        k = np.asarray([hashlib.md5(f"{seed}:{v}".encode()).hexdigest()
                        for v in ids], dtype=object)
        return pd.DataFrame({id_col: ids, "_k": k})

    srt = (docs.map_batches(key, batch_format="pandas")
           .sort(["_k", id_col]).materialize())
    refs = srt.to_arrow_refs()
    if not refs:
        return ray.data.from_pandas(
            pd.DataFrame(columns=[id_col, "shuffle_rank"]))

    def rank_block(t, off):
        df = t.to_pandas()
        df["shuffle_rank"] = off + 1 + np.arange(len(df), dtype=np.int64)
        return df[[id_col, "shuffle_rank"]]

    # block outputs become the result Dataset (no driver concatenation);
    # rows flow out in shuffled order, ranks 1..n
    return ray.data.from_pandas_refs(carry_scan(
        refs, lambda t: t.num_rows, operator.add, rank_block, init=0))


def temperature_mix(docs: "ray.data.Dataset", total: int,
                    alpha: float = 0.5, group: str = "source",
                    id_col: str = "doc_id", seed: int = 42
                    ) -> "ray.data.Dataset":
    """Temperature-based source mixing — the standard LLM-data reweight
    (sample source ``s`` in proportion to ``count_s^alpha``; alpha<1
    up-weights small sources, alpha=1 is natural, alpha=0 uniform).

    Deterministic end-to-end: per-source quotas are
    ``floor(total * c^alpha / sum(c^alpha))`` capped at the source size
    (same IEEE double ops as the DuckDB twin), and within each source
    rows are ranked by ``md5(seed:id)`` — no RNG state, reproducible on
    any cluster.  Scale shape: the count aggregate is source-sized, the
    quota map broadcasts in the closure, the per-block prune keeps
    ≤ quota rows per source per block, and the final per-source
    selection sees ≤ quota · blocks survivors, never the corpus."""
    import hashlib

    cnt = (docs.map_batches(
        lambda b: (pd.DataFrame({group: b[group].to_numpy()})
                   .groupby(group, sort=False).size().reset_index(name="n")),
        batch_format="pandas").to_pandas()
        .groupby(group, sort=False)["n"].sum())
    w = np.power(cnt.to_numpy().astype(np.float64), np.float64(alpha))
    quota = np.floor(np.float64(total) * w / w.sum()).astype(np.int64)
    quota = np.minimum(quota, cnt.to_numpy())
    nmap = dict(zip(cnt.index, quota.tolist()))

    def key_of(b: pd.DataFrame) -> np.ndarray:
        return np.asarray([hashlib.md5(f"{seed}:{v}".encode()).hexdigest()
                           for v in b[id_col]], dtype=object)

    def local(b: pd.DataFrame) -> pd.DataFrame:
        b = b[[id_col, group]]
        if not len(b):
            return b
        order = np.lexsort((b[id_col].to_numpy(), key_of(b)))
        b = b.iloc[order]
        lim = b[group].map(nmap).fillna(0).to_numpy()
        keep = b.groupby(group, sort=False).cumcount().to_numpy() < lim
        return b[keep]

    pruned = docs.map_batches(local, batch_format="pandas")

    def select(g: pd.DataFrame) -> pd.DataFrame:
        n = int(nmap.get(g[group].iloc[0], 0)) if len(g) else 0
        order = np.lexsort((g[id_col].to_numpy(), key_of(g)))
        return g.iloc[order[:n]]

    return pruned.groupby(group).map_groups(select, batch_format="pandas")


def sample_fraction(ds: "ray.data.Dataset", p: float,
                    id_col: str = "doc_id", seed: int = 42
                    ) -> "ray.data.Dataset":
    """Deterministic Bernoulli sampling: keep a row iff the first 8
    bytes of ``md5(seed:id)`` (as a fraction of 2^64) fall below ``p``.

    Content- and layout-independent (no RNG state, no dependence on
    block boundaries or worker count), reproducible on any cluster, and
    embarrassingly parallel — one streaming hash-compare per block.
    The per-id twin is exactly replayable in SQL via the md5 hex
    prefix, so the oracle is hash-exact rather than statistical."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must be in [0, 1], got {p}")
    # lexicographic hex compare == numeric compare at equal length;
    # 'g' sorts after 'f', so p=1.0 keeps every row
    thresh_hex = "g" * 16 if p >= 1.0 else format(int(p * float(1 << 64)),
                                                  "016x")

    from ..functions.text import md5_hex

    def keep(b: pd.DataFrame) -> pd.DataFrame:
        if not len(b):
            return b
        # md5_hex returns dtype=object, so the hex compare is safe on
        # every batch (a bare np.asarray([]) would be float64)
        h = md5_hex(pd.Series([f"{seed}:{v}" for v in b[id_col]]))
        return b[np.asarray([x[:16] for x in h], dtype=object) < thresh_hex]

    return ds.map_batches(keep, batch_format="pandas")


def _dsir_features(texts: pd.Series, n_buckets: int
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hashed n-gram feature buckets per document (DSIR's feature space:
    word unigrams + bigrams, splitmix64-hashed mod ``n_buckets``).  The
    word hash chain is the shared ``sketches.word_hashes`` finalizer and
    the bigram combine is the shared ``_ngram_combine``, so the whole
    feature extraction replays in DuckDB via the recursive word-hash CTE
    (``sql_oracles.dsir_sql``).  Returns (n_feats per doc, flat bucket
    ids, flat doc index)."""
    t = texts.fillna("").str.lower().str.split()
    lens = t.str.len().astype(np.int64).to_numpy()
    flat = flatten_words(t, lens)
    if not len(flat):
        z = np.zeros(len(t), dtype=np.int64)
        e = np.empty(0, dtype=np.int64)
        return z, e, e
    uh = sk.word_hashes(flat)
    n_bi, bh = sk._ngram_combine(lens, uh, 2)
    B = np.uint64(n_buckets)
    buckets = np.concatenate([uh % B, bh % B]).astype(np.int64)
    rows = np.arange(len(t), dtype=np.int64)
    doc_of = np.concatenate([np.repeat(rows, lens), np.repeat(rows, n_bi)])
    return lens + n_bi, buckets, doc_of


def _dsir_bucket_counts(ds: "ray.data.Dataset", n_buckets: int
                        ) -> np.ndarray:
    """Corpus-wide feature-bucket histogram (length ``n_buckets``) via
    the partial-agg pattern: each block reduces to one fixed-size
    bincount row set; the shuffle carries (bucket, n) — never text."""
    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        _, buckets, _ = _dsir_features(batch["text"], n_buckets)
        cnt = np.bincount(buckets, minlength=n_buckets).astype(np.int64)
        return pd.DataFrame({"bkt": np.arange(n_buckets, dtype=np.int64),
                             "n": cnt})

    from .groupagg import grouped_sum

    agg = grouped_sum(ds.map_batches(partial, batch_format="pandas"),
                      ["bkt"], ["n"]).to_pandas()
    out = np.zeros(n_buckets, dtype=np.int64)
    if len(agg):
        out[agg["bkt"].to_numpy(dtype=np.int64)] = agg["n"].to_numpy(
            dtype=np.int64)
    return out


def dsir_scores(raw: "ray.data.Dataset", target: "ray.data.Dataset",
                n_buckets: int = 256) -> "ray.data.Dataset":
    """Data Selection via Importance Resampling (DSIR, Xie et al. 2023,
    arXiv:2302.03169): score every ``raw`` document by how much more
    probable its hashed n-gram features are under the ``target``
    distribution than under the raw distribution — the standard
    domain-targeted pretraining-data selection operator (select the
    top-scoring documents to approximate sampling from the target).

    INTEGER-EXACT variant so the DuckDB twin hashes identical: each
    feature bucket's log-ratio is approximated by the same bit_length
    floor-log2 the surprisal operator uses,
    ``lam[b] = floor(log2((S+B)//(s_b+1))) - floor(log2((T+B)//(t_b+1)))``
    (``s_b``/``t_b`` = raw/target counts of bucket b, ``S``/``T`` their
    totals, add-one smoothing over the ``B`` fixed buckets); a document's
    score is the exact int64 sum of ``lam`` over its feature multiset.
    High score = feature profile relatively favored by the target.
    Returns (doc_id, n_feats, dsir_score) for EVERY raw document (empty
    docs score 0).

    Scale shape: two bucket histograms via partial-agg (the shuffle
    carries at most ``B`` (bucket, n) rows per block); the ``lam`` vector
    is ``B`` ints built once on the driver and shipped by ``ray.put``;
    scoring is one vectorized hash+bincount pass per block — no shuffle
    touches text, nothing corpus-sized materializes anywhere."""
    s_cnt = _dsir_bucket_counts(raw, n_buckets)
    t_cnt = _dsir_bucket_counts(target, n_buckets)
    s_tot, t_tot = int(s_cnt.sum()), int(t_cnt.sum())
    B = n_buckets
    # exact Python-int bit_length math (mirrors unigram_surprisal)
    lam = np.asarray(
        [((s_tot + B) // (int(s) + 1)).bit_length() - 1
         - (((t_tot + B) // (int(t) + 1)).bit_length() - 1)
         for s, t in zip(s_cnt, t_cnt)], dtype=np.int64)
    lam_ref = ray.put(lam)

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        lv = ray.get(lam_ref)
        n_feats, buckets, doc_of = _dsir_features(batch["text"], B)
        if len(buckets):
            # |lam| < 64 and counts fit far under 2^53: float64 bincount
            # accumulation is exact (the surprisal argument, signed)
            ssum = np.bincount(doc_of, weights=lv[buckets].astype(np.float64),
                               minlength=len(batch)).astype(np.int64)
        else:
            ssum = np.zeros(len(batch), dtype=np.int64)
        return pd.DataFrame({"doc_id": batch["doc_id"], "n_feats": n_feats,
                             "dsir_score": ssum})

    return raw.map_batches(score, batch_format="pandas")


def token_budget_mix(ds: "ray.data.Dataset", total_tokens: int,
                     alpha: float = 0.5, group: str = "source",
                     id_col: str = "doc_id", weight_col: str = "n_tok",
                     seed: int = 42) -> "ray.data.Dataset":
    """Temperature mixing by TOKEN budget: per-source quotas are
    ``floor(total_tokens * toks_s^alpha / sum(toks^alpha))`` over each
    source's total token count, and within a source the md5-ranked docs
    are kept while their cumulative ``weight_col`` stays within quota —
    the mixing recipe an LLM pre-training run actually needs (epochs are
    token counts, not document counts).  Deterministic end-to-end: same
    IEEE op order as the DuckDB twin, md5 ranking, no RNG.

    Scale shape: the per-source token aggregate is source-sized; the
    quota map broadcasts in the closure; the per-block prune keeps only
    rows whose LOCAL md5-order running total is within quota (the global
    prefix sum can only be larger, so the prune is lossless); the final
    per-source pass sees only survivors."""
    import hashlib

    from .groupagg import grouped_sum

    cnt = (grouped_sum(ds.map_batches(
        lambda b: pd.DataFrame({group: b[group].to_numpy(),
                                "toks": b[weight_col].to_numpy(dtype=np.int64)}),
        batch_format="pandas"), [group], ["toks"]).to_pandas()
        .set_index(group)["toks"])
    w = np.power(cnt.to_numpy().astype(np.float64), np.float64(alpha))
    quota = np.floor(np.float64(total_tokens) * w / w.sum()).astype(np.int64)
    qmap = dict(zip(cnt.index, quota.tolist()))

    def key_of(b: pd.DataFrame) -> np.ndarray:
        return np.asarray([hashlib.md5(f"{seed}:{v}".encode()).hexdigest()
                           for v in b[id_col]], dtype=object)

    def local(b: pd.DataFrame) -> pd.DataFrame:
        b = b[[id_col, group, weight_col]]
        if not len(b):
            return b
        order = np.lexsort((b[id_col].to_numpy(), key_of(b)))
        b = b.iloc[order]
        cum = b.groupby(group, sort=False)[weight_col].cumsum().to_numpy(
            dtype=np.int64)
        lim = b[group].map(qmap).fillna(0).to_numpy(dtype=np.int64)
        return b[cum <= lim]

    pruned = ds.map_batches(local, batch_format="pandas")

    def select(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return g
        lim = int(qmap.get(g[group].iloc[0], 0))
        order = np.lexsort((g[id_col].to_numpy(), key_of(g)))
        g = g.iloc[order]
        cum = g[weight_col].to_numpy(dtype=np.int64).cumsum()
        return g[cum <= lim]

    return pruned.groupby(group).map_groups(select, batch_format="pandas")
