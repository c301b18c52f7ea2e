"""Codec auto-selector: per column chunk, sample cardinality / run length /
range / byte entropy and pick the codec with minimum predicted size.

North-rule mandate (no reference counterpart — the reference only *parses*
`Statistics` and never computes them, `/root/reference/src/Parquet/Types/
Primitives.hs:79-87`): "driven by a per-partition codec auto-selector
(cardinality/run-length/entropy sampling per Arrow column chunk)".

The selector is deterministic (stride sampling, no RNG) so re-encoding a
partition after a task retry yields byte-identical blocks — required for
idempotent resume. Estimates are cheap upper-bound formulas, not trial
encodes (except FSST, which trial-encodes the sample because its gain is
table-dependent).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .codecs import fsst
from .codecs.bitpack import bit_width_of

SAMPLE_MAX = 1 << 16

# codec ids shared with format.py frames; RLE and BITPACK are decode-only
PLAIN, DICT, RLE, BITPACK, FOR, FSST, PFOR, DELTA, ALP, ALPRD = (
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
FRONT = 10
CODEC_NAMES = {0: "plain", 1: "dict", 2: "rle", 3: "bitpack", 4: "for",
               5: "fsst", 6: "pfor", 7: "delta", 8: "alp", 9: "alprd",
               10: "front"}

# a dictionary larger than this is never attempted (scale guard: the dict is
# per-column-chunk state built inside the encode task)
_DICT_MAX_CARD = 1 << 16

# deterministic tie-break: run-aware codecs first
_TIE_PRIORITY = {"for": 0, "dict": 1, "pfor": 2, "delta": 3, "plain": 4}


def _sample(values: np.ndarray) -> np.ndarray:
    n = len(values)
    if n <= SAMPLE_MAX:
        return values
    stride = n // SAMPLE_MAX
    return values[:: stride][:SAMPLE_MAX]


def _sample_windows(values: np.ndarray, n_windows: int = 4, window: int = 16_384) -> np.ndarray:
    """Contiguous windows (order-preserving) for delta estimation."""
    n = len(values)
    if n <= n_windows * window:
        return values
    step = n // n_windows
    return np.concatenate([values[i * step : i * step + window] for i in range(n_windows)])


@dataclass
class ColumnStats:
    """Per-column-chunk stats recorded into the partition manifest (our
    analogue of the reference's parsed-but-unused `Statistics`
    min/max/null_count, `/root/reference/src/Parquet/Types/Primitives.hs:79-87`)."""

    n: int = 0
    null_count: int = 0
    min: float | int | None = None
    max: float | int | None = None
    card_est: int | None = None
    mean_run_est: float | None = None
    entropy_bits: float | None = None
    codec: str = "plain"
    predicted: dict = field(default_factory=dict)


def _run_stats(sample: np.ndarray) -> tuple[int, float]:
    if len(sample) < 2:
        return len(sample), float(len(sample))
    n_runs = 1 + int(np.count_nonzero(sample[1:] != sample[:-1]))
    return n_runs, len(sample) / n_runs


def select_int_codec(values: np.ndarray) -> tuple[int, ColumnStats]:
    """Pick PLAIN / DICT / FOR / PFOR / DELTA for an integer array.

    FOR frames long runs as RLE and the rest as bit-packed spans, so it
    covers what the decode-only RLE and BITPACK ids once offered."""
    n = len(values)
    stats = ColumnStats(n=n)
    if n == 0:
        stats.codec = "for"
        return FOR, stats
    vmin = int(values.min())
    vmax = int(values.max())
    stats.min, stats.max = vmin, vmax
    sample = _sample(values)
    n_runs, mean_run = _run_stats(sample)
    stats.mean_run_est = round(mean_run, 2)
    uniq = np.unique(sample)
    card = len(uniq)
    stats.card_est = card
    itemsize = values.dtype.itemsize

    width_for = bit_width_of(vmax - vmin) if vmax >= vmin else 0
    est = {}
    est["plain"] = n * itemsize
    # hybrid (FOR framing): per sampled run, min(RLE cost, BP cost)
    run_ratio = n_runs / max(1, len(sample))
    fw = (width_for + 7) // 8
    est_rle_runs = run_ratio * n * (4 + fw)  # word + value per run
    est_bp = n * width_for / 8
    est["for"] = min(est_bp, est_rle_runs) + 10
    from .codecs.pfor import estimate_pfor

    est["pfor"] = estimate_pfor(sample, n)
    from .codecs.delta import estimate_delta

    est["delta"] = estimate_delta(_sample_windows(values), n)
    if card <= _DICT_MAX_CARD and card < max(2, len(sample) // 4):
        idx_width = bit_width_of(card - 1)
        # indices inherit the run structure of the values
        idx_bp = n * idx_width / 8
        idx_rle = run_ratio * n * (4 + (idx_width + 7) // 8)
        est["dict"] = card * itemsize + min(idx_bp, idx_rle) + 16
    choice = min(est, key=lambda k: (est[k], _TIE_PRIORITY[k]))
    stats.predicted = {k: int(v) for k, v in est.items()}
    stats.codec = choice
    return {"plain": PLAIN, "dict": DICT, "for": FOR, "pfor": PFOR, "delta": DELTA}[choice], stats


def select_float_codec(values: np.ndarray) -> tuple[int, ColumnStats]:
    n = len(values)
    stats = ColumnStats(n=n)
    if n == 0:
        stats.codec = "plain"
        return PLAIN, stats
    stats.min = float(np.min(values))
    stats.max = float(np.max(values))
    sample = _sample(values)
    card = len(np.unique(sample))
    stats.card_est = card
    itemsize = values.dtype.itemsize
    est = {"plain": n * itemsize}
    if card <= _DICT_MAX_CARD and card < max(2, len(sample) // 4):
        est["dict"] = card * itemsize + n * bit_width_of(card - 1) / 8 + 16
    # ALP (SIGMOD'23): decimal floats -> scaled ints; ALP-RD for
    # full-precision reals (IEEE-bit split, left-part dictionary)
    from .codecs import alp as alp_codec

    alp_est = alp_codec.estimate_classic(sample, n)
    if alp_est is not None:
        est["alp"] = alp_est
    est["alprd"] = alp_codec.estimate_rd(sample, n)
    choice = min(est, key=lambda k: (est[k], k))
    stats.predicted = {k: int(v) for k, v in est.items()}
    stats.codec = choice
    return {"plain": PLAIN, "dict": DICT, "alp": ALP, "alprd": ALPRD}[choice], stats


def select_binary_codec(
    lengths: np.ndarray, data_nbytes: int, sample_values: list[bytes],
    front_ratio: "float | None" = None,
) -> tuple[int, ColumnStats]:
    """Pick PLAIN / DICT / FSST / FRONT for a variable-binary column.

    ``sample_values`` is a deterministic sample of the value bytes; the
    FSST estimate trial-encodes it (``codecs.fsst.trial_ratio``);
    ``front_ratio`` is the measured suffix-bytes ratio of a CONSECUTIVE
    prefix of the column (front coding exploits adjacent-value locality,
    which a scattered sample cannot estimate) — None disables FRONT."""
    n = len(lengths)
    stats = ColumnStats(n=n)
    if n == 0:
        stats.codec = "plain"
        return PLAIN, stats
    card = len(set(sample_values)) if sample_values else 1
    stats.card_est = card
    avg_len = data_nbytes / max(1, n)
    # byte entropy on a bounded sample of the data
    if sample_values:
        cat = b"".join(sample_values[:256])[:65536]
        if cat:
            counts = np.bincount(np.frombuffer(cat, dtype=np.uint8), minlength=256)
            p = counts[counts > 0] / len(cat)
            stats.entropy_bits = round(float(-(p * np.log2(p)).sum()), 2)
    est = {"plain": data_nbytes + 2 * n}  # data + compressed lengths (rough)
    if card <= _DICT_MAX_CARD and card < max(2, len(sample_values) // 4):
        est["dict"] = card * (avg_len + 4) + n * bit_width_of(max(0, card - 1)) / 8 + 16
    if avg_len >= 4 and card > len(sample_values) // 4:
        ratio = fsst.trial_ratio(sample_values)
        if ratio < 0.95:
            est["fsst"] = data_nbytes * ratio + 2 * n + 2048
    if front_ratio is not None and front_ratio < 0.8:
        # suffix bytes + a SECOND lens stream (prefix lens) vs plain's one
        est["front"] = data_nbytes * front_ratio + 4 * n + 16
    choice = min(est, key=lambda k: (est[k], k))
    stats.predicted = {k: int(v) for k, v in est.items()}
    stats.codec = choice
    return {"plain": PLAIN, "dict": DICT, "fsst": FSST,
            "front": FRONT}[choice], stats


# advise_sort_order's candidate key count and required win (docstring)
SORT_MAX_KEYS = 3
SORT_MARGIN = 0.98


def advise_sort_order(tbl, sample_rows: int = 16384):
    """Row-LAYOUT advisor: pick the sort order that minimizes this
    table's encoded size — the codec auto-selector's philosophy applied
    one level up (sorting by low-cardinality columns lengthens runs for
    RLE/dict and tightens FOR frames; but an already-well-ordered table
    can get WORSE, e.g. a status sort breaking an id column's delta
    chain — measured on TPC-H orders).  Candidates: identity, each of
    the ``SORT_MAX_KEYS`` lowest-cardinality non-float columns alone, and
    their composite (cardinality-ascending); each candidate is
    TRIAL-ENCODED on a row sample and the winner must beat identity by
    ``1 - SORT_MARGIN`` (sorting costs a shuffle at scale — a sub-2% win
    never justifies one).  Deterministic (fixed sample = table head, a
    byte-size decision rather than a statistical one).

    Returns (sort_keys, report): ``sort_keys`` is a list of column
    names ([] = keep the incoming order), ``report`` maps each
    candidate tuple to its sampled encoded size.

    Reordering is a USER-VISIBLE layout change (the engine's decode
    contract is per-row equality with its input, so the encode job
    never reorders behind the caller's back); apply it upstream with
    ``ds.sort(keys)`` / ``table.take(sort_indices)`` before encoding."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from .format import encode_table

    sample = tbl.slice(0, min(sample_rows, tbl.num_rows)).combine_chunks()
    if sample.num_rows < 2:
        return [], {(): len(encode_table(sample)[0])}
    cards = []
    for name in sample.column_names:
        col = sample[name]
        if pa.types.is_floating(col.type) or pa.types.is_nested(col.type):
            continue  # float keys don't run-length; nested can't sort
        try:
            card = len(pc.unique(col))
        except pa.ArrowNotImplementedError:
            continue
        if card < sample.num_rows:  # unique columns can't lengthen runs
            cards.append((card, name))
    cards.sort()
    singles = [[name] for _, name in cards[:SORT_MAX_KEYS]]
    composite = [name for _, name in cards[:SORT_MAX_KEYS]]
    candidates = [[]] + singles
    if len(composite) > 1:
        candidates.append(composite)

    report = {}
    for keys in candidates:
        if keys:
            idx = pc.sort_indices(
                sample, sort_keys=[(kk, "ascending") for kk in keys])
            trial = sample.take(idx)
        else:
            trial = sample
        report[tuple(keys)] = len(encode_table(trial)[0])
    base = report[()]
    best = min(report, key=lambda kk: (report[kk], len(kk), kk))
    if best != () and report[best] >= SORT_MARGIN * base:
        best = ()  # below the margin the shuffle isn't worth it
    return list(best), report
