"""FSST-style string compression (Fast Static Symbol Table).

Public-knowledge design after Boncz, Neumann & Leis, "FSST: Fast Random
Access String Compression" (PVLDB 13(9), 2020): a per-column-chunk table of
up to 255 byte symbols (length 1-8) built from a sample; the encoded stream
replaces each longest-matching symbol with a 1-byte code; bytes with no
symbol are escaped. No reference counterpart (parquet-hs has no string
compression) — mandated by the north rule.

Layout difference from classic FSST, chosen for vectorized decode: instead
of interleaving escape literals into the code stream (which makes decode
sequential — a literal can itself be 0xFF), we store THREE parallel
sections::

    varint n_syms | n_syms * u8 sym_len | concat(sym_bytes)
    varint n_rows | FOR-encoded per-row code counts
    varint total_codes | code bytes (0..n_syms-1 = symbol, 255 = escape)
    varint n_literals | literal bytes (one per escape code, in order)

Same compressed size as interleaved FSST (one code byte + one literal byte
per escape), but decode is two ragged gathers and encode needs no
byte-interleaving scatter.

Both directions are numpy-vectorized; the only Python-level loop is the
greedy-parse frontier (one iteration per output symbol *rank*, i.e.
~len(longest string)/avg_symbol_len iterations, each processing every
still-active row at once).
"""

from __future__ import annotations

import functools

import numpy as np

from .intpack import decode_int, encode_int
from .varint import decode_varint, encode_varint

ESCAPE = 255
MAX_SYMS = 255
MAX_SYM_LEN = 8
# safety valve for the frontier loop: rows still active after this many
# symbols have their tails escaped wholesale (valid, just less compressed)
_MAX_TOKENS_PER_ROW = 1 << 14


def build_symbol_table(sample_values: list[bytes]) -> list[bytes]:
    """Greedy frequency-gain table construction from sampled values."""
    from collections import Counter

    singles: Counter = Counter()
    multis: Counter = Counter()
    budget = 1 << 14  # table quality saturates fast; build cost is per chunk
    used = 0
    for s in sample_values:
        if used >= budget:
            break
        s = s[: budget - used]
        used += len(s)
        singles.update(s)
        n = len(s)
        for L in range(2, MAX_SYM_LEN + 1):
            for i in range(n - L + 1):
                multis[s[i : i + L]] += 1
    # cap singles at MAX_SYMS: with all 256 byte values present the last
    # single would get code 255 == ESCAPE (silent invariant break, dead
    # payload weight) — the rarest byte is escaped instead
    table: list[bytes] = [bytes([b]) for b, _ in singles.most_common(MAX_SYMS)]
    slots = MAX_SYMS - len(table)
    ranked = sorted(multis.items(), key=lambda kv: (-(len(kv[0]) - 1) * kv[1], kv[0]))
    for sym, cnt in ranked:
        if slots <= 0:
            break
        if (len(sym) - 1) * cnt < 8:  # not worth a code
            break
        table.append(sym)
        slots -= 1
    return table


def _match_tables(table: list[bytes]):
    """Lookup structures: direct tables for 1/2-byte symbols (one gather
    each), per-length sorted hash arrays for 3..8-byte symbols, plus a
    65536-entry prefix gate so long-symbol matching only touches positions
    whose first two bytes can start a long symbol."""
    len1 = np.full(256, ESCAPE, dtype=np.uint8)
    len2 = np.full(65536, ESCAPE, dtype=np.uint8)
    prefix_gate = np.zeros(65536, dtype=bool)
    by_len: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for L in range(3, MAX_SYM_LEN + 1):
        pairs = [(int.from_bytes(s, "little"), c) for c, s in enumerate(table) if len(s) == L]
        if pairs:
            pairs.sort()
            by_len[L] = (
                np.asarray([p[0] for p in pairs], dtype=np.uint64),
                np.asarray([p[1] for p in pairs], dtype=np.uint8),
            )
    for c, s in enumerate(table):
        if len(s) == 1:
            len1[s[0]] = c
        elif len(s) == 2:
            len2[int.from_bytes(s, "little")] = c
        else:
            prefix_gate[int.from_bytes(s[:2], "little")] = True
    return len1, len2, prefix_gate, by_len


def _encode_with_table(
    lens: np.ndarray, raw: bytes, table: list[bytes]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Greedy longest-match parse. Returns (code_counts per row, codes u8,
    literals u8)."""
    n_rows = len(lens)
    data = np.frombuffer(raw, dtype=np.uint8)
    nd = len(data)
    if nd == 0:
        return np.zeros(n_rows, dtype=np.int64), np.empty(0, np.uint8), np.empty(0, np.uint8)

    len1, len2, prefix_gate, by_len = _match_tables(table)
    padded = np.concatenate([data, np.zeros(MAX_SYM_LEN, dtype=np.uint8)])
    offsets = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(lens, dtype=np.int64)])
    remaining = (np.repeat(offsets[1:], lens) - np.arange(nd, dtype=np.int64)).astype(np.int32)

    sym_len = np.zeros(nd, dtype=np.uint8)  # 0 = escape (consumes 1 byte)
    sym_code = np.full(nd, ESCAPE, dtype=np.uint8)

    # two-byte little-endian window: one gather covers len-1/len-2 lookup
    # and the long-symbol prefix gate
    win2 = padded[:nd].astype(np.uint16) | (padded[1 : nd + 1].astype(np.uint16) << 8)

    # long symbols (3..8): only at gated candidate positions, longest first.
    # ONE 8-byte little-endian window per candidate; the length-L hash is
    # just a low-bit mask of it (int.from_bytes(s[:L], 'little')), so the
    # per-L work is one mask + one searchsorted instead of L gathers.
    cand = np.flatnonzero(prefix_gate[win2] & (remaining >= 3))
    if len(cand):
        win8 = np.zeros(len(cand), dtype=np.uint64)
        for j in range(MAX_SYM_LEN - 1, -1, -1):
            win8 = (win8 << np.uint64(8)) | padded[cand + j].astype(np.uint64)
        cand_free = np.ones(len(cand), dtype=bool)
        for L in range(MAX_SYM_LEN, 2, -1):
            if L not in by_len or not cand_free.any():
                continue
            hashes, codes = by_len[L]
            sel = cand_free & (remaining[cand] >= L)
            if not sel.any():
                continue
            idx = cand[sel]
            mask = np.uint64((1 << (8 * L)) - 1) if L < 8 else np.uint64(0xFFFFFFFFFFFFFFFF)
            h = win8[sel] & mask
            loc = np.searchsorted(hashes, h)
            loc[loc == len(hashes)] = 0
            hit = hashes[loc] == h
            hit_idx = idx[hit]
            sym_len[hit_idx] = L
            sym_code[hit_idx] = codes[loc[hit]]
            cand_free &= sym_len[cand] == 0

    # len-2 then len-1 direct tables on everything still unmatched
    free = sym_len == 0
    ok2 = free & (remaining >= 2) & (len2[win2] != ESCAPE)
    sym_len[ok2] = 2
    sym_code[ok2] = len2[win2[ok2]]
    free &= ~ok2
    c1 = len1[data]
    ok1 = free & (c1 != ESCAPE)
    sym_len[ok1] = 1
    sym_code[ok1] = c1[ok1]

    adv = np.maximum(sym_len, 1).astype(np.int64)

    # frontier parse: iteration k visits token k of every still-active row.
    # Work-optimal (active set at iteration k == rows with >= k tokens, so
    # total element-ops == total tokens). The loop appends only POSITIONS;
    # codes, escapes and literals are all derived from the visited-position
    # stream in single vectorized passes afterwards, so each iteration is
    # just one gather-add, one compare and three compresses.
    active_pos = offsets[:-1].copy()
    active_row = np.arange(n_rows, dtype=np.int64)
    active_end = offsets[1:].copy()
    alive = lens > 0
    active_pos = active_pos[alive]
    active_row = active_row[alive]
    active_end = active_end[alive]
    pos_parts, row_parts = [], []
    forced_codes, forced_rows, forced_lits = [], [], []
    it = 0
    while len(active_pos):
        pos_parts.append(active_pos)
        row_parts.append(active_row)
        nxt = active_pos + adv[active_pos]
        keep = nxt < active_end
        active_pos = nxt[keep]
        active_row = active_row[keep]
        active_end = active_end[keep]
        it += 1
        if it >= _MAX_TOKENS_PER_ROW and len(active_pos):
            # escape the tails wholesale (cannot go through sym_code: these
            # are raw byte runs, not greedy-parse positions)
            for p, r, end in zip(active_pos.tolist(), active_row.tolist(), active_end.tolist()):
                tail = data[p:end]
                forced_codes.append(np.full(len(tail), ESCAPE, dtype=np.uint8))
                forced_rows.append(np.full(len(tail), r, dtype=np.int64))
                forced_lits.append(tail)
            break

    main_pos = np.concatenate(pos_parts) if pos_parts else np.empty(0, np.int64)
    main_rows = np.concatenate(row_parts) if row_parts else np.empty(0, np.int64)
    main_codes = sym_code[main_pos]
    main_esc = main_codes == ESCAPE
    lit_parts = [data[main_pos[main_esc]]] + forced_lits if main_esc.any() else forced_lits
    all_codes = np.concatenate([main_codes] + forced_codes) if forced_codes else main_codes
    all_rows = np.concatenate([main_rows] + forced_rows) if forced_rows else main_rows
    count_per_row = np.bincount(all_rows, minlength=n_rows).astype(np.int64)
    # emission is iteration-major; reorder to row-major (stable by iteration)
    order = np.argsort(all_rows, kind="stable")
    codes = all_codes[order]
    # literals were emitted iteration-major too; reorder them consistently:
    # literal j corresponds to the j-th ESCAPE in emission order.
    if lit_parts:
        lits_emit = np.concatenate(lit_parts)
        esc_mask_emit = all_codes == ESCAPE
        # position of each emitted escape in the row-major code stream
        rank_in_sorted = np.empty(len(all_codes), dtype=np.int64)
        rank_in_sorted[order] = np.arange(len(all_codes))
        esc_sorted_pos = rank_in_sorted[esc_mask_emit]
        lit_order = np.argsort(esc_sorted_pos, kind="stable")
        literals = lits_emit[lit_order]
    else:
        literals = np.empty(0, np.uint8)
    return count_per_row, codes, literals


def encode_fsst(lens: np.ndarray, raw: bytes, table: list[bytes]) -> bytes:
    """Encode a variable-binary column (per-value ``lens`` + contiguous
    ``raw`` bytes) with FSST under a symbol ``table`` built from a sample
    of the column (``table_for_sample``)."""
    counts, codes, literals = _encode_with_table(np.asarray(lens, dtype=np.int64), raw, table)
    parts = [encode_varint(len(table))]
    parts.append(bytes(len(s) for s in table))
    parts.append(b"".join(table))
    enc_counts = encode_int(counts)
    parts.append(encode_varint(len(enc_counts)))
    parts.append(enc_counts)
    parts.append(encode_varint(len(codes)))
    parts.append(codes.tobytes())
    parts.append(encode_varint(len(literals)))
    parts.append(literals.tobytes())
    return b"".join(parts)


def decode_fsst(data: bytes, pos: int = 0) -> tuple[np.ndarray, bytes, int]:
    """Decode an FSST payload. Returns (per-row lengths int64, raw, pos)."""
    n_syms, pos = decode_varint(data, pos)
    sym_lens = np.frombuffer(data, dtype=np.uint8, count=n_syms, offset=pos).astype(np.int64)
    pos += n_syms
    total_sym_bytes = int(sym_lens.sum())
    sym_bytes = np.frombuffer(data, dtype=np.uint8, count=total_sym_bytes, offset=pos)
    pos += total_sym_bytes
    sym_offs = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(sym_lens)])

    clen, pos = decode_varint(data, pos)
    counts, used = decode_int(data, np.int64, pos)
    if used - pos != clen:
        raise ValueError("fsst counts size mismatch")
    pos = used
    n_codes, pos = decode_varint(data, pos)
    codes = np.frombuffer(data, dtype=np.uint8, count=n_codes, offset=pos)
    pos += n_codes
    n_lit, pos = decode_varint(data, pos)
    literals = np.frombuffer(data, dtype=np.uint8, count=n_lit, offset=pos)
    pos += n_lit

    esc = codes == ESCAPE
    exp_len = np.ones(n_codes, dtype=np.int64)
    if n_syms:
        exp_len[~esc] = sym_lens[codes[~esc]]
    out_total = int(exp_len.sum())
    dest_off = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(exp_len)])
    out = np.empty(out_total, dtype=np.uint8)
    # escapes: single literal bytes
    out[dest_off[:-1][esc]] = literals
    # symbols: ragged gather from the symbol buffer
    sym_idx = codes[~esc]
    from .hybrid_columnar import _ragged_indices

    src = _ragged_indices(sym_offs[sym_idx], sym_lens[sym_idx])
    dst = _ragged_indices(dest_off[:-1][~esc], exp_len[~esc])
    out[dst] = sym_bytes[src]

    # per-row decoded lengths: segment-sum exp_len by counts
    row_of = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    out_lens = np.bincount(row_of, weights=exp_len, minlength=len(counts)).astype(np.int64)
    return out_lens, out.tobytes(), pos


@functools.lru_cache(maxsize=8)
def table_for_sample(sample_key: tuple) -> list:
    """Memoized table construction so the selector's trial encode and the
    real encode of the same column chunk share one build."""
    return build_symbol_table(list(sample_key))


def trial_ratio(sample_values: list[bytes]) -> float:
    """Compression ratio estimate for the selector: trial-encode the sample."""
    raw = b"".join(sample_values)
    if not raw:
        return 1.0
    table = table_for_sample(tuple(sample_values))
    lens = np.asarray([len(s) for s in sample_values], dtype=np.int64)
    counts, codes, literals = _encode_with_table(lens, raw, table)
    table_bytes = sum(len(s) for s in table) + len(table)
    return (len(codes) + len(literals) + table_bytes) / len(raw)
