"""Property-based encode->decode identity for the bit-level kernels (the
reference imports QuickCheck but ships no property tests — Spec.hs:13; we
add them)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parquet_hs_ray.codecs.bitpack import bit_width_of, pack_bits_le, unpack_bits_le
from parquet_hs_ray.codecs.hybrid_columnar import RLE_MIN_RUN, long_runs
from parquet_hs_ray.codecs.rle_hybrid import decode_hybrid, encode_hybrid
from parquet_hs_ray.codecs.varint import decode_varint, encode_varint, zigzag_decode, zigzag_encode


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_varint_roundtrip(n):
    v, pos = decode_varint(encode_varint(n))
    assert v == n


@given(st.integers(min_value=-(2**62), max_value=2**62))
def test_zigzag_roundtrip(n):
    assert zigzag_decode(zigzag_encode(n)) == n
    assert zigzag_encode(n) >= 0


@given(
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=1, max_value=32),
    st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=60, deadline=None)
def test_pack_bits_le_roundtrip(width, groups, seed):
    rng = np.random.default_rng(seed)
    n = 8 * groups
    hi = (1 << width) - 1
    vals = rng.integers(0, hi + 1 if hi < 2**63 else 2**63, size=n, dtype=np.uint64)
    if width == 64:
        vals = vals.astype(np.uint64) | (rng.integers(0, 2, size=n, dtype=np.uint64) << np.uint64(63))
    packed = pack_bits_le(vals, width)
    out, pos = unpack_bits_le(packed, width, n)
    assert pos == len(packed) == n * width // 8
    np.testing.assert_array_equal(out, vals)


@given(
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=0, max_value=2000),
    st.floats(min_value=0.0, max_value=0.99),
)
@settings(max_examples=80, deadline=None)
def test_hybrid_roundtrip(width, seed, n, run_prob):
    """Mixed run/random data: encode_hybrid -> decode_hybrid identity."""
    rng = np.random.default_rng(seed)
    hi = 1 << width
    vals = rng.integers(0, hi, size=n, dtype=np.uint64) if width else np.zeros(n, dtype=np.uint64)
    # inject runs: with probability run_prob, repeat the previous value
    if n > 1:
        rep = rng.random(n) < run_prob
        rep[0] = False
        idx = np.arange(n)
        idx[rep] = 0
        np.maximum.accumulate(idx, out=idx)
        vals = vals[idx]
    enc = encode_hybrid(vals, width)
    out, pos = decode_hybrid(enc, width, n)
    assert pos == len(enc)
    np.testing.assert_array_equal(out, vals)


def _plain_long_runs(vals) -> tuple[list, list, list]:
    """``long_runs`` written as a walk over the maximal equal-value runs."""
    bp_lens, starts, ends = [], [], []
    prev_end = i = 0
    while i < len(vals):
        j = i
        while j < len(vals) and vals[j] == vals[i]:
            j += 1
        if j - i >= RLE_MIN_RUN:
            steal = (prev_end - i) % 8  # 8-aligns the span before the run
            bp_lens.append(i - prev_end + steal)
            starts.append(i + steal)
            ends.append(j)
            prev_end = j
        i = j
    return bp_lens, starts, ends


def _runs_at_every_offset(rng, hi: int) -> np.ndarray:
    """Random values < ``hi`` with runs of 14-17 equal values, each
    length starting at every offset mod 8, in random order."""
    out = []
    for length, off in rng.permutation([(ln, o) for ln in range(14, 18) for o in range(8)]):
        pad = (off - len(out)) % 8 + 8 * int(rng.integers(0, 2))
        out.extend(rng.integers(0, hi, pad).tolist())
        out.extend([int(rng.integers(0, hi))] * int(length))
    out.extend(rng.integers(0, hi, int(rng.integers(0, 20))).tolist())
    return np.asarray(out, dtype=np.uint64)


@given(st.integers(min_value=1, max_value=32), st.integers(min_value=0, max_value=2**32),
       st.booleans())
@settings(max_examples=60, deadline=None)
def test_hybrid_bytes_independent_of_dtype(width, seed, narrow):
    """Same values, same bytes: uint8, int16, int32, int64 and uint64 inputs
    (each where it holds the values) encode identically, decode back,
    and ``long_runs`` places the runs where a plain walk does."""
    rng = np.random.default_rng(seed)
    vals = _runs_at_every_offset(rng, 1 << (min(width, 8) if narrow else width))
    ref = encode_hybrid(vals, width)
    for dt in ("uint8", "int16", "int32", "int64"):
        if int(vals.max()) <= np.iinfo(dt).max:
            assert encode_hybrid(vals.astype(dt), width) == ref, dt
    out, pos = decode_hybrid(ref, width, len(vals))
    assert pos == len(ref)
    np.testing.assert_array_equal(out, vals)
    got = [a.tolist() for a in long_runs(vals.astype(np.int64))]
    assert got == list(_plain_long_runs(vals.tolist()))


@given(st.integers(min_value=0, max_value=32), st.integers(min_value=0, max_value=2**32),
       st.integers(min_value=0, max_value=600), st.floats(0.0, 0.9))
@settings(max_examples=80, deadline=None)
def test_encode_int_bytes_independent_of_dtype(width, seed, n, run_prob):
    """Same non-negative values, same FOR bytes in every dtype that holds
    them (uint8, uint16, uint32, int64): what lets PFOR keep its
    exception streams in their own narrow width."""
    from parquet_hs_ray.codecs.intpack import decode_int, encode_int

    rng = np.random.default_rng(seed)
    hi = 1 << width
    vals = rng.integers(0, hi, size=n, dtype=np.int64)
    runs = rng.random(n) < run_prob  # repeat the previous value: RLE runs
    runs[:1] = False
    vals = vals[np.maximum.accumulate(np.where(runs, 0, np.arange(n)))] if n else vals
    ref = encode_int(vals)
    for dt in ("uint8", "uint16", "uint32"):
        if hi - 1 <= np.iinfo(dt).max:
            assert encode_int(vals.astype(dt)) == ref, dt
    out, pos = decode_int(ref, np.int64)
    assert pos == len(ref)
    np.testing.assert_array_equal(out, vals)


@pytest.mark.parametrize("length", [14, 15, 16, 17])
def test_long_runs_lone_run_at_every_offset(length):
    """One run among distinct values, so only that run's 8-aligned block
    of equal pairs tells ``long_runs`` a run exists."""
    for off in range(8):
        for tail in (0, 1, 7, 8, 9):
            vals = np.arange(off + length + tail, dtype=np.int64) + 1
            vals[off:off + length] = 0
            got = [a.tolist() for a in long_runs(vals)]
            assert got == list(_plain_long_runs(vals.tolist())), (off, tail)


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 40)), max_size=40))
@settings(max_examples=100, deadline=None)
def test_long_runs_matches_plain_walk(segments):
    vals = [v for v, count in segments for _ in range(count)]
    got = [a.tolist() for a in long_runs(np.asarray(vals, dtype=np.int32))]
    assert got == list(_plain_long_runs(vals))


def test_bit_width_of():
    assert bit_width_of(0) == 0
    assert bit_width_of(1) == 1
    assert bit_width_of(7) == 3
    assert bit_width_of(8) == 4
    assert bit_width_of(2**32 - 1) == 32


# --- columnar hybrid container (engine hot path) ---

from parquet_hs_ray.codecs.hybrid_columnar import (  # noqa: E402
    decode_hybrid_columnar,
    encode_hybrid_columnar,
)


@given(
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=0, max_value=3000),
    st.floats(min_value=0.0, max_value=0.99),
)
@settings(max_examples=120, deadline=None)
def test_hybrid_columnar_roundtrip(width, seed, n, run_prob):
    rng = np.random.default_rng(seed)
    hi = 1 << width
    vals = rng.integers(0, hi, size=n, dtype=np.uint64) if width else np.zeros(n, dtype=np.uint64)
    if n > 1:
        rep = rng.random(n) < run_prob
        rep[0] = False
        idx = np.arange(n)
        idx[rep] = 0
        np.maximum.accumulate(idx, out=idx)
        vals = vals[idx]
    enc = encode_hybrid_columnar(vals, width)
    out, pos = decode_hybrid_columnar(enc, dtype=np.uint64)
    assert pos == len(enc)
    np.testing.assert_array_equal(out, vals)


def test_hybrid_columnar_adjacent_runs():
    """Two adjacent long runs (bp span of zero between them)."""
    vals = np.array([3] * 20 + [5] * 30 + [1, 2, 3] + [7] * 40, dtype=np.uint32)
    enc = encode_hybrid_columnar(vals, 3)
    out, _ = decode_hybrid_columnar(enc, dtype=np.uint32)
    np.testing.assert_array_equal(out, vals)


def test_hybrid_columnar_uint32_dtype():
    vals = np.arange(100, dtype=np.int32) % 7
    enc = encode_hybrid_columnar(vals, 3)
    out, _ = decode_hybrid_columnar(enc, dtype=np.uint32)
    assert out.dtype == np.uint32
    np.testing.assert_array_equal(out, vals.astype(np.uint32))


# --- PFOR ---

from parquet_hs_ray.codecs.pfor import decode_pfor, encode_pfor  # noqa: E402


@given(
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=0, max_value=4000),
    st.sampled_from(["zipf", "uniform", "const", "bigrange"]),
)
@settings(max_examples=80, deadline=None)
def test_pfor_roundtrip(seed, n, shape):
    rng = np.random.default_rng(seed)
    if shape == "zipf":
        vals = (rng.pareto(1.1, size=n) * 25).astype(np.int64) % 50257
    elif shape == "uniform":
        vals = rng.integers(-(2**40), 2**40, size=n, dtype=np.int64)
    elif shape == "const":
        vals = np.full(n, 42, dtype=np.int64)
    else:
        vals = rng.choice([-(2**63), 2**63 - 1, 0], size=n).astype(np.int64)
    enc = encode_pfor(vals)
    out, pos = decode_pfor(enc, np.int64)
    assert pos == len(enc)
    np.testing.assert_array_equal(out, vals)


def test_pfor_int32():
    vals = np.array([1, 5, 100000, 2, 3, -7], dtype=np.int32)
    out, _ = decode_pfor(encode_pfor(vals), np.int32)
    np.testing.assert_array_equal(out, vals)


_PFOR_DTYPES = ["int8", "int16", "int32", "uint32", "int64"]


@given(
    st.sampled_from(_PFOR_DTYPES),
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=0, max_value=3000),
    st.integers(min_value=0, max_value=64),
    st.floats(min_value=0.0, max_value=0.2),
)
@settings(max_examples=120, deadline=None)
def test_pfor_roundtrip_every_dtype(dtype, seed, n, width, exc_rate):
    """Deltas below 2**width with a share of full-range exceptions decode
    back to the same dtype and values."""
    dt = np.dtype(dtype)
    bits = 8 * dt.itemsize
    rng = np.random.default_rng(seed)
    width = min(width, bits)
    u = (rng.integers(0, 1 << 63, n, dtype=np.uint64) << np.uint64(1)) >> np.uint64(64 - width) \
        if width else np.zeros(n, dtype=np.uint64)
    wild = rng.random(n) < exc_rate
    u[wild] = rng.integers(0, 1 << 63, int(wild.sum()), dtype=np.uint64) << np.uint64(1)
    vals = (u.astype(f"<u{dt.itemsize}") + np.dtype(f"<u{dt.itemsize}").type(
        int(rng.integers(0, 1 << 62)) & ((1 << bits) - 1))).view(dt)
    enc = encode_pfor(vals)
    out, pos = decode_pfor(enc, dt)
    assert pos == len(enc) and out.dtype == dt
    np.testing.assert_array_equal(out, vals)


def _bit_lengths_oracle(vals) -> list[int]:
    return [int(v).bit_length() for v in vals]


@pytest.mark.parametrize("dtype", ["uint8", "uint16", "uint32"])
def test_bit_lengths_frexp_boundaries(dtype):
    """The frexp exponent path (deltas of <= 32 bits) equals the 64-bit
    log2 path and ``int.bit_length`` at every 2**k-1, 2**k, 2**k+1."""
    from parquet_hs_ray.codecs.pfor import _bit_lengths

    top = (1 << (8 * np.dtype(dtype).itemsize)) - 1
    edges = sorted({min(max(0, (1 << k) + e), top)
                    for k in range(8 * np.dtype(dtype).itemsize + 1) for e in (-1, 0, 1)})
    vals = np.array(edges, dtype=dtype)
    got = _bit_lengths(vals)
    assert got.dtype == np.uint8
    assert got.tolist() == _bit_lengths(vals.astype(np.uint64)).tolist() \
        == _bit_lengths_oracle(edges)


@given(st.sampled_from(["uint8", "uint16", "uint32"]),
       st.integers(min_value=0, max_value=2**32), st.integers(min_value=0, max_value=500))
@settings(max_examples=60, deadline=None)
def test_bit_lengths_frexp_random(dtype, seed, n):
    from parquet_hs_ray.codecs.pfor import _bit_lengths

    bits = 8 * np.dtype(dtype).itemsize
    rng = np.random.default_rng(seed)
    vals = (rng.integers(0, 1 << bits, n, dtype=np.uint64)
            >> rng.integers(0, bits, n, dtype=np.uint64)).astype(dtype)
    assert _bit_lengths(vals).tolist() == _bit_lengths(vals.astype(np.uint64)).tolist() \
        == _bit_lengths_oracle(vals)


def test_bit_lengths_64bit_above_2_53():
    from parquet_hs_ray.codecs.pfor import _bit_lengths

    edges = [0] + [min((1 << k) + e, 2**64 - 1) for k in range(64 + 1) for e in (-1, 0, 1)
                   if (1 << k) + e >= 0]
    assert _bit_lengths(np.array(edges, dtype=np.uint64)).tolist() == _bit_lengths_oracle(edges)


def _pfor_payload(n: int, w: int, base: bytes, gaps, highs, n_exc=None) -> bytes:
    """Hand-built PFOR payload, ref 0: header, base bits, exception block."""
    from parquet_hs_ray.codecs.intpack import encode_int

    out = encode_varint(0) + bytes([w, 0]) + encode_varint(n) + base
    out += encode_varint(len(gaps) if n_exc is None else n_exc)
    g = encode_int(np.array(gaps, dtype=np.int64))
    h = encode_int(np.array(highs, dtype=np.int64))
    return out + encode_varint(len(g)) + g + encode_varint(len(h)) + h


@pytest.mark.parametrize("gaps,highs,n_exc,match", [
    ([-3], [1], None, "position -3 outside 16 values"),  # would patch row 13
    ([2, -1], [1, 1], None, "not increasing"),  # patches row 1 after row 2
    ([4, 0], [1, 1], None, "not increasing"),   # one row patched twice
    ([16], [1], None, "position 16 outside 16 values"),  # past the last row
    ([3, 20], [1, 1], None, "position 23 outside 16 values"),
    ([2**62, 2**62, 2**62, 2**62 + 5], [1] * 4, None,  # the sum wraps to row 5
     "position 4611686018427387904 outside 16 values"),
    ([1, 2], [1, 1], 3, "3 exceptions but 2 gaps"),
    ([1, 2], [1], None, "2 exceptions but 2 gaps and 1 high"),
])
def test_pfor_rejects_bad_exceptions(gaps, highs, n_exc, match):
    """Exception data that would patch the wrong row (or none) raises a
    ValueError naming PFOR and the byte offset of the exception block."""
    data = _pfor_payload(16, 4, bytes(8), gaps, highs, n_exc)
    with pytest.raises(ValueError, match=rf"PFOR: .*{match}.*\(byte 13\)"):
        decode_pfor(data, np.int32)
    good = _pfor_payload(16, 4, bytes(8), [0, 15], [1, 2])
    out, _ = decode_pfor(good, np.int32)
    assert out.tolist() == [16] + [0] * 14 + [32]


def test_pfor_rejects_exceptions_at_full_width():
    data = _pfor_payload(8, 8, bytes(8), [1], [1])
    with pytest.raises(ValueError, match=r"PFOR: .*full base width 8"):
        decode_pfor(data, np.int8)


def test_pfor_beats_for_on_zipf():
    from parquet_hs_ray.codecs.intpack import encode_int

    rng = np.random.default_rng(0)
    vals = (rng.pareto(1.1, size=200_000) * 25).astype(np.int64) % 50257
    assert len(encode_pfor(vals)) < 0.8 * len(encode_int(vals))


# --- DELTA ---

from parquet_hs_ray.codecs.delta import decode_delta, encode_delta  # noqa: E402


@given(
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=0, max_value=3000),
    st.sampled_from(["sorted", "steps", "random", "extreme"]),
)
@settings(max_examples=60, deadline=None)
def test_delta_roundtrip(seed, n, shape):
    rng = np.random.default_rng(seed)
    if shape == "sorted":
        vals = np.cumsum(rng.integers(0, 5, size=n)).astype(np.int64)
    elif shape == "steps":
        vals = (np.arange(n, dtype=np.int64) * 1000) + rng.integers(-3, 4, size=n)
    elif shape == "random":
        vals = rng.integers(-(2**40), 2**40, size=n, dtype=np.int64)
    else:
        vals = rng.choice([-(2**63), 2**63 - 1, 0, 1], size=n).astype(np.int64)
    enc = encode_delta(vals)
    out, pos = decode_delta(enc, np.int64)
    assert pos == len(enc)
    np.testing.assert_array_equal(out, vals)


def test_delta_int32_and_timestamps():
    vals = np.arange(1_600_000_000, 1_600_100_000, 7, dtype=np.int64)
    enc = encode_delta(vals)
    out, _ = decode_delta(enc, np.int64)
    np.testing.assert_array_equal(out, vals)
    # sorted keys compress hard: constant stride -> single tiny run
    assert len(enc) < len(vals) * 8 / 50

    v32 = np.arange(0, 100000, 3, dtype=np.int32)
    out32, _ = decode_delta(encode_delta(v32), np.int32)
    np.testing.assert_array_equal(out32, v32)


# --- FSST (ADVICE r1: escape-byte regression — decode must advance past the
# literals section, or any payload with escapes fails downstream size checks) ---
from parquet_hs_ray.codecs.fsst import (  # noqa: E402
    ESCAPE,
    MAX_SYMS,
    build_symbol_table,
    decode_fsst,
    encode_fsst,
    table_for_sample,
)


def _fsst_roundtrip(values: list[bytes], table=None):
    from parquet_hs_ray.format import _sample_binary

    lens = np.asarray([len(v) for v in values], dtype=np.int64)
    raw = b"".join(values)
    if table is None:  # the table encode_array would build for the column
        table = table_for_sample(tuple(_sample_binary(lens, raw)))
    enc = encode_fsst(lens, raw, table)
    out_lens, out_raw, pos = decode_fsst(enc)
    assert pos == len(enc), "decode must consume the full payload (incl. literals)"
    np.testing.assert_array_equal(out_lens, lens)
    assert out_raw == raw


def test_fsst_escape_bytes_roundtrip():
    """Bytes absent from the sampled rows force escapes; the decoded stream
    and final position must still be exact (regression: pos never advanced
    past literals, so every escaped payload failed the frame size check)."""
    # table built from a sample that lacks 0xF0..0xFF entirely
    sample = [b"hello world common text"] * 10
    table = build_symbol_table(sample)
    values = [b"hello \xf0\xf1\xf2 world", b"\xff\xfe", b"", b"common \xf5 text"]
    _fsst_roundtrip(values, table)
    # and with auto-built table where later rows escape (stride sampling
    # skips them when many rows exist)
    vals = [b"the quick brown fox jumps"] * 400 + [bytes([b]) for b in range(256)]
    _fsst_roundtrip(vals)


def test_fsst_all_256_bytes_singles_cap():
    """All 256 byte values present: singles must be truncated to MAX_SYMS so
    no symbol gets code 255 == ESCAPE."""
    vals = [bytes([b]) * 3 for b in range(256)]
    table = build_symbol_table(vals)
    assert len(table) <= MAX_SYMS
    _fsst_roundtrip(vals, table)


@given(st.integers(0, 2**32), st.integers(1, 60))
@settings(max_examples=40, deadline=None)
def test_fsst_roundtrip_random_bytes(seed, n):
    rng = np.random.default_rng(seed)
    values = []
    for _ in range(n):
        ln = int(rng.integers(0, 40))
        # mix of texty and raw bytes so some escape, some hit symbols
        if rng.random() < 0.5:
            values.append(bytes(rng.choice(list(b"abcdef gh"), ln)))
        else:
            values.append(bytes(rng.integers(0, 256, ln, dtype=np.uint8)))
    _fsst_roundtrip(values)


def test_fsst_escapes_through_table_roundtrip():
    """End-to-end: a string column whose tail rows contain bytes absent from
    the sampled head must survive encode_table → decode_table (ADVICE r1
    repro)."""
    import pyarrow as pa

    from parquet_hs_ray.format import decode_table, encode_table

    # random id LEADS so no adjacent-prefix locality hands the column to
    # front coding — this test exercises FSST's escape path end to end
    rng = np.random.default_rng(5)
    texts = [f"{rng.integers(0, 10**9)}.example.com/page" for _ in range(500)]
    texts += ["café ☃ über"]  # multi-byte UTF-8 absent from sample
    t = pa.table({"s": pa.array(texts)})
    blob, stats = encode_table(t)
    assert stats["s"].codec == "fsst"
    back = decode_table(blob)
    assert back.equals(t)


@given(
    ids=st.lists(st.integers(min_value=0, max_value=2**62), min_size=1,
                 max_size=50, unique=True),
    weights=st.lists(st.integers(min_value=0, max_value=2**40), min_size=50,
                     max_size=50),
    rate_denom=st.integers(min_value=1, max_value=2**40),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=200, deadline=None)
def test_sample_weighted_rule_matches_bigint_reference(ids, weights, rate_denom, seed):
    """The overflow-free keep rule `h // T < w` must equal the exact
    big-int rule `h < w * T` for every (hash, weight, threshold) — the
    whole point of the integer formulation in sample_weighted."""
    from parquet_hs_ray.functions import sketches as sk

    T = (1 << 64) // rate_denom
    if T <= 0:
        return
    if T >= (1 << 64):
        T = (1 << 64) - 1
    h = sk._splitmix64(np.asarray(ids, dtype=np.uint64) ^ np.uint64(seed))
    w = np.asarray(weights[: len(ids)], dtype=np.int64)
    ours = (h // np.uint64(T)) < np.maximum(w, 0).astype(np.uint64)
    ref = np.asarray([int(hh) < int(ww) * T for hh, ww in zip(h, w)])
    assert (ours == ref).all()


# --- FRONT (incremental / prefix) coding -------------------------------


from parquet_hs_ray.codecs.front import (  # noqa: E402
    MAX_VALUE_LEN, decode_front, encode_front, front_prefix_lens)


def _front_rt(vals):
    lens = np.array([len(v) for v in vals], dtype=np.int64)
    raw = b"".join(vals)
    blob = encode_front(lens, raw)
    l2, r2, pos = decode_front(blob)
    assert pos == len(blob)
    assert (l2 == lens).all()
    assert r2 == raw
    return blob


def test_front_goldens():
    _front_rt([])
    _front_rt([b""])
    _front_rt([b"", b"", b""])
    _front_rt([b"doc_000001", b"doc_000002", b"doc_000010", b"doc_1"])
    _front_rt([b"abc", b"", b"abcd", b"ab\x00cd", b"ab\x00ce"])  # NULs
    _front_rt([b"zzz", b"aaa", b"zzz"])  # unsorted still round-trips
    # prefix lens are exactly the pairwise lcp capped by both lengths
    p = front_prefix_lens(np.array([3, 4, 2], dtype=np.int64),
                          b"abcabcdab")
    assert p.tolist() == [0, 3, 2]


def test_front_sorted_ids_compress():
    ids = [f"doc_{i:09d}".encode() for i in range(5000)]
    blob = _front_rt(ids)
    assert len(blob) < sum(len(v) for v in ids) // 4


def test_front_rejects_oversized_values():
    with pytest.raises(ValueError, match="caps value length"):
        encode_front(np.array([MAX_VALUE_LEN + 1], dtype=np.int64),
                     b"x" * (MAX_VALUE_LEN + 1))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 200))
def test_front_roundtrip_fuzz(seed, n):
    rng = np.random.default_rng(seed)
    vals, prev = [], b""
    for _ in range(n):
        mode = rng.integers(0, 4)
        if mode == 0:
            vals.append(bytes(rng.integers(0, 256, int(rng.integers(0, 40)),
                                           dtype=np.uint8)))
        elif mode == 1 and vals:
            k = int(rng.integers(0, len(vals[-1]) + 1))
            vals.append(vals[-1][:k] + bytes(
                rng.integers(0, 256, int(rng.integers(0, 16)),
                             dtype=np.uint8)))
        elif mode == 2:
            vals.append(b"")
        else:
            vals.append(("p/" + str(int(rng.integers(0, 30)))).encode())
    _front_rt(vals)


def test_front_chain_invariant_checked():
    # a prefix len pointing past the previous value must be rejected
    from parquet_hs_ray.codecs.intpack import encode_int
    from parquet_hs_ray.codecs.varint import encode_varint
    plens = encode_int(np.array([0, 5], dtype=np.int64))
    slens = encode_int(np.array([2, 1], dtype=np.int64))
    blob = (encode_varint(2) + encode_varint(len(plens)) + plens
            + encode_varint(len(slens)) + slens + encode_varint(3) + b"abc")
    with pytest.raises(ValueError, match="chain invariant"):
        decode_front(blob)


def test_front_through_table_roundtrip_with_nulls():
    import pyarrow as pa

    from parquet_hs_ray.format import decode_table, encode_table

    ids = [f"user/{i:07d}" if i % 9 else None for i in range(4000)]
    t = pa.table({"k": pa.array(ids, pa.string())})
    blob, stats = encode_table(t)
    assert stats["k"].codec == "front"
    assert decode_table(blob).equals(t.combine_chunks())


def test_front_not_picked_for_random_strings():
    import pyarrow as pa

    from parquet_hs_ray.format import encode_table

    rng = np.random.default_rng(3)
    vals = ["".join(chr(97 + c) for c in rng.integers(0, 26, 12))
            for _ in range(3000)]
    _, stats = encode_table(pa.table({"k": pa.array(vals)}))
    assert stats["k"].codec != "front"


def test_front_chunked_kernels_match_unchunked(monkeypatch):
    """Force tiny row chunks: the chunk-overlap plumbing (encode boundary
    lcp, decode reconstructed-prev inheritance) must be invisible."""
    import parquet_hs_ray.codecs.front as fr

    rng = np.random.default_rng(11)
    vals = []
    for i in range(500):
        if i % 7 == 0:
            vals.append(b"")
        elif i % 3 == 0 and vals:
            k = int(rng.integers(0, len(vals[-1]) + 1))
            vals.append(vals[-1][:k] + bytes(
                rng.integers(0, 256, int(rng.integers(0, 10)),
                             dtype=np.uint8)))
        else:
            vals.append(f"path/{i // 50}/{i:05d}".encode())
    lens = np.array([len(v) for v in vals], dtype=np.int64)
    raw = b"".join(vals)
    ref_blob = fr.encode_front(lens, raw)
    monkeypatch.setattr(fr, "_CHUNK_ROWS", 7)
    monkeypatch.setattr(fr, "_CHUNK_BYTES", 64)
    blob = fr.encode_front(lens, raw)
    assert blob == ref_blob  # chunking is an implementation detail
    l2, r2, pos = fr.decode_front(blob)
    assert pos == len(blob) and (l2 == lens).all() and r2 == raw


def test_front_outlier_value_stays_bounded():
    """One long value must widen only its own chunk (regression: the
    n x global_max matrix blow-up)."""
    import parquet_hs_ray.codecs.front as fr

    vals = [f"doc_{i:09d}".encode() for i in range(20000)]
    vals.append(b"x" * 4096)
    lens = np.array([len(v) for v in vals], dtype=np.int64)
    raw = b"".join(vals)
    blob = fr.encode_front(lens, raw)
    l2, r2, _ = fr.decode_front(blob)
    assert (l2 == lens).all() and r2 == raw
    assert len(blob) < len(raw) // 3


def test_front_not_picked_for_sorted_head_random_tail():
    """The selector's trial samples windows through the WHOLE column, so
    a sorted head can't sell FRONT for a shuffled tail."""
    import pyarrow as pa

    from parquet_hs_ray.format import encode_table

    rng = np.random.default_rng(9)
    vals = [f"doc_{i:07d}" for i in range(2048)]
    vals += ["".join(chr(97 + c) for c in rng.integers(0, 26, 12))
             for _ in range(20000)]
    _, stats = encode_table(pa.table({"k": pa.array(vals)}))
    assert stats["k"].codec != "front"
