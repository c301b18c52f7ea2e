"""The kernel Parquet read's decode layers against pure-Python oracles:
the bit-unpack kernels, the batched RLE/BP hybrid walk, the batched
DELTA_BINARY_PACKED decoder, numeric leaf construction and null
placement."""

import datetime
import decimal

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parquet_hs_ray.codecs import rle_hybrid
from parquet_hs_ray.codecs.bitpack import pack_bits_le, unpack_bits_le
from parquet_hs_ray.codecs.rle_hybrid import decode_hybrid, encode_hybrid
from parquet_hs_ray.codecs.varint import encode_varint, zigzag_encode
from parquet_hs_ray.sources.parquet_pages import (
    _decode_delta_binary_packed, _leaf_values_to_arrow,
    read_parquet_via_kernels)
from parquet_hs_ray.sources.parquet_writer import write_parquet_via_kernels

_M64 = (1 << 64) - 1


def _unpack_oracle(data: bytes, width: int, n: int, pos: int) -> list[int]:
    """Value i is bits [i*width, (i+1)*width) of the LSB-first bitstream
    at ``pos``, read one bit at a time."""
    out = []
    for i in range(n):
        v = 0
        for b in range(width):
            k = i * width + b
            v |= ((data[pos + k // 8] >> (k % 8)) & 1) << b
        out.append(v)
    return out


def _pack_oracle(vals: list[int], width: int) -> bytes:
    return sum(v << (i * width) for i, v in enumerate(vals)).to_bytes(
        len(vals) * width // 8, "little")


_DTYPES = [np.uint8, np.uint16, np.uint32, np.uint64, np.int32, np.int64]


@given(st.integers(0, 64), st.integers(1, 512), st.integers(1, 9),
       st.integers(0, 9), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_unpack_bits_le_matches_bit_oracle(width, groups, pos, tail, rnd):
    """Every dtype that holds ``width``, at a non-zero ``pos``, with 0-9
    bytes after the payload (the strided kernel reads words past it)."""
    n = 8 * groups
    payload = bytes(rnd.getrandbits(8) for _ in range(n * width // 8))
    data = (bytes(rnd.getrandbits(8) for _ in range(pos)) + payload
            + bytes(rnd.getrandbits(8) for _ in range(tail)))
    want = _unpack_oracle(data, width, n, pos)
    for dt in _DTYPES:
        if width > np.dtype(dt).itemsize * 8:
            continue
        got, end = unpack_bits_le(data, width, n, pos, dtype=dt)
        assert got.dtype == dt and end == pos + len(payload)
        assert got.view(f"u{got.itemsize}").tolist() == want, (width, n, dt)
    # pack -> unpack roundtrip on the oracle's values
    if width:
        vals = np.array(want, dtype=np.uint64)
        assert pack_bits_le(vals, width) == _pack_oracle(want, width)
        got, _ = unpack_bits_le(pack_bits_le(vals, width), width, n)
        assert got.tolist() == want


def test_unpack_bits_le_every_width_both_kernels():
    """Each width 1-64 at a small (bit-matrix) and a large (strided) size;
    the 9-byte spans of widths 57-63 included."""
    rng = np.random.default_rng(5)
    for width in range(1, 65):
        for n in (16, 4096):
            want = [int(x) for x in rng.integers(0, 1 << min(width, 63), n)]
            if width == 64:
                want = [v | (1 << 63) if i % 3 else v
                        for i, v in enumerate(want)]
            data = b"\x07" + _pack_oracle(want, width)
            got, end = unpack_bits_le(data, width, n, 1)
            assert got.tolist() == want and end == len(data), (width, n)


def _bp_run(vals: list[int], width: int) -> bytes:
    return encode_varint(((len(vals) // 8) << 1) | 1) + _pack_oracle(vals, width)


def _rle_run(value: int, run: int, width: int) -> bytes:
    return encode_varint(run << 1) + value.to_bytes((width + 7) // 8, "little")


def test_decode_hybrid_rep_level_stream_is_one_unpack(monkeypatch):
    """A repetition-level stream: a bit-packed 8-value group at each row
    boundary between long RLE runs decodes with one unpack call."""
    calls = []
    real = rle_hybrid.unpack_bits_le
    monkeypatch.setattr(rle_hybrid, "unpack_bits_le",
                        lambda *a, **k: calls.append(a[2]) or real(*a, **k))
    rng = np.random.default_rng(1)
    levels = np.concatenate([
        np.r_[0, np.ones(int(k) - 1)] for k in rng.integers(20, 300, 50)
    ]).astype(np.uint8)
    enc = encode_hybrid(levels, 1)
    out, pos = decode_hybrid(enc, 1, len(levels), dtype=np.uint8)
    assert out.dtype == np.uint8 and pos == len(enc)
    np.testing.assert_array_equal(out, levels)
    assert len(calls) == 1
    # the same shape by hand: RLE, BP group, RLE, BP group, RLE
    g1, g2 = [0, 1, 1, 1, 1, 1, 1, 1], [1, 1, 0, 1, 1, 1, 1, 1]
    enc = (_rle_run(1, 40, 1) + _bp_run(g1, 1) + _rle_run(1, 33, 1)
           + _bp_run(g2, 1) + _rle_run(1, 17, 1))
    want = [1] * 40 + g1 + [1] * 33 + g2 + [1] * 17
    out, pos = decode_hybrid(enc, 1, len(want))
    assert out.tolist() == want and pos == len(enc)


def test_decode_hybrid_truncated_terminal_bit_packed_run():
    """The last run's zero padding is cut at ``n_values``; ``pos`` still
    moves past the whole run."""
    vals = list(range(1, 12))
    enc = _rle_run(5, 3, 4) + _bp_run(vals + [0] * 5, 4)
    out, pos = decode_hybrid(enc + b"\xff", 4, 3 + 11)
    assert out.tolist() == [5, 5, 5] + vals and pos == len(enc)


def test_decode_hybrid_rle_overrun_message_unchanged():
    enc = _bp_run([1] * 8, 2) + _rle_run(2, 10, 2)
    with pytest.raises(ValueError, match="^RLE run overruns n_values$"):
        decode_hybrid(enc, 2, 12)


@pytest.mark.parametrize("head,n_head", [
    (b"", 0),
    (_bp_run([3] * 8, 5) + _rle_run(1, 9, 5), 17),  # the 2nd span joined
], ids=["first-run", "joined-run"])
def test_decode_hybrid_truncated_payload_raises(head, n_head):
    """A bit-packed run whose payload passes the end of the data raises a
    ValueError naming the stream and the run's payload offset."""
    run = _bp_run(list(range(24)), 5)[:-6]  # 3 groups = 15 bytes; 9 kept
    with pytest.raises(ValueError,
                       match=rf"RLE/BP hybrid stream: bit-packed run at "
                             rf"byte {len(head) + 1} needs 15 payload "
                             rf"bytes, 9 remain"):
        decode_hybrid(head + run, 5, n_head + 24)


def test_decode_hybrid_truncated_rle_value_raises():
    with pytest.raises(ValueError, match="RLE run value at byte 1"):
        decode_hybrid(_rle_run(300, 8, 12)[:-1], 12, 8)


def _delta_stream(vals: list[int], block: int = 128, n_mini: int = 4,
                  absent_width: int = 9) -> tuple[bytes, set]:
    """DELTA_BINARY_PACKED with 64-bit wrapping deltas, and the bit widths
    of its present miniblocks; the trailing miniblocks of the last block
    carry ``absent_width`` and no payload."""
    per = block // n_mini
    out = bytearray(encode_varint(block) + encode_varint(n_mini)
                    + encode_varint(len(vals))
                    + encode_varint(zigzag_encode(vals[0] if vals else 0)))
    used = set()
    deltas = [(b - a) & _M64 for a, b in zip(vals, vals[1:])]
    deltas = [d - (1 << 64) if d >> 63 else d for d in deltas]
    for s in range(0, len(deltas), block):
        blk = deltas[s:s + block]
        md = min(blk)
        adj = [(d - md) & _M64 for d in blk]
        minis = [adj[k:k + per] for k in range(0, block, per)]
        widths = [max(m).bit_length() if m else absent_width for m in minis]
        out += encode_varint(zigzag_encode(md)) + bytes(widths)
        for m, w in zip(minis, widths):
            if m:
                used.add(w)
                out += _pack_oracle(m + [0] * (per - len(m)), w)
    return bytes(out), used


def _delta_values() -> list[int]:
    rng = np.random.default_rng(3)
    lo, hi = -(1 << 63), (1 << 63) - 1
    vals = [7] * 300  # constant blocks: width-0 miniblocks
    vals += [lo, hi, lo, 0, hi, lo] * 6  # full-range jumps: width 64
    vals += [int(x) for x in rng.integers(-1000, 1000, 100)]
    vals += [int(x) for x in np.cumsum(rng.integers(0, 3, 150))]
    vals += [int(x) for x in np.cumsum(rng.integers(0, 100, 150))]
    return vals


@pytest.mark.parametrize("n_extra", [0, 1, 31, 33])
def test_delta_binary_packed_mixed_widths(n_extra):
    """Widths 0 and 64 among others in one stream; ``n_extra`` moves the
    end so the last block has 1-4 present miniblocks."""
    vals = _delta_values() + list(range(n_extra))
    enc, widths = _delta_stream(vals)
    assert {0, 64} <= widths and len(widths) > 4
    out, pos = _decode_delta_binary_packed(enc + b"\xaa" * 4, 0, len(vals))
    assert out.tolist() == vals and pos == len(enc)
    # a page may need fewer values than the stream declares
    out, _ = _decode_delta_binary_packed(enc, 0, 100)
    assert out.tolist() == vals[:100]


@given(st.lists(st.integers(-(1 << 63), (1 << 63) - 1), min_size=0,
                max_size=300),
       st.sampled_from([(128, 4), (256, 8), (64, 1), (32, 4)]))
@settings(max_examples=60, deadline=None)
def test_delta_binary_packed_roundtrip(vals, shape):
    enc, _ = _delta_stream(vals, *shape)
    out, pos = _decode_delta_binary_packed(enc, 0, len(vals))
    assert out.tolist() == vals and pos == len(enc)


def test_delta_binary_packed_truncated_block_raises():
    rng = np.random.default_rng(2)
    enc, _ = _delta_stream([int(x) for x in rng.integers(0, 1 << 20, 1000)])
    with pytest.raises(ValueError, match="DELTA_BINARY_PACKED block at byte"):
        _decode_delta_binary_packed(enc[:-5], 0, 10)


_I32 = np.array([0, 1, -1, 127, -128, 99, 2**31 - 1, -(2**31)], np.int32)
_I64 = np.array([0, 1, -1, 2**40, -(2**40), 2**63 - 1, -(2**63), 5],
                np.int64)
_SMALL = np.array([0, 1, -1, 127, -128, 5], np.int32)


@pytest.mark.parametrize("values,t", [
    (_SMALL, pa.int8()), (_SMALL, pa.int16()), (_I32, pa.int32()),
    (_I64, pa.int64()),
    (np.array([0.5, -1.25, np.inf, 3e38], np.float32), pa.float32()),
    (np.array([0.5, -1e300, -0.0, 7.0], np.float64), pa.float64()),
    (np.array([True, False, True]), pa.bool_()),
    (np.array([0, 19000, -5], np.int32), pa.date32()),
    (np.array([0, 86399, 5], np.int32), pa.time32("s")),
    (np.array([0, 86399999, 5], np.int32), pa.time32("ms")),
    (np.array([0, 86399999999, 5], np.int64), pa.time64("us")),
    (np.array([0, 86399999999999, 5], np.int64), pa.time64("ns")),
    *[(_I64 // 10**6, pa.timestamp(u)) for u in ("s", "ms", "us", "ns")],
    (_I64 // 10**6, pa.timestamp("us", tz="UTC")),
])
def test_numeric_leaf_ndarray_path_equals_tolist(values, t):
    got = _leaf_values_to_arrow(values, t)
    assert got.equals(pa.array(values.tolist(), t))
    if values.dtype.kind in "if" and values.dtype.itemsize * 8 == t.bit_width \
            and not pa.types.is_temporal(t):
        assert got.buffers()[1].address == values.ctypes.data  # zero-copy


@pytest.mark.parametrize("values,t", [
    (_I32, pa.uint8()), (_I32, pa.uint16()), (_I32, pa.uint32()),
    (_I64, pa.uint64()), (_I64, pa.uint32()),
])
def test_unsigned_leaf_wraps_like_tolist(values, t):
    mask = (1 << t.bit_width) - 1
    want = pa.array([v & mask for v in values.tolist()], t)
    assert _leaf_values_to_arrow(values, t).equals(want)


_DEC9 = np.array([0, 1, -1, 10**9 - 1, -(10**9 - 1), 12345], np.int32)
_DEC18 = np.array([0, 1, -1, 10**18 - 1, -(10**18 - 1), 12345], np.int64)


@pytest.mark.parametrize("values,t", [
    (_DEC9, pa.decimal128(9, 2)), (_DEC9, pa.decimal128(9, 0)),
    (_DEC18, pa.decimal128(18, 4)), (_I64, pa.decimal128(38, 0)),
])
def test_int_backed_decimal_leaf_equals_tolist(values, t):
    want = pa.array([decimal.Decimal(v).scaleb(-t.scale)
                     for v in values.tolist()], t)
    assert _leaf_values_to_arrow(values, t).equals(want)


@pytest.mark.parametrize("writer", ["pyarrow", "kernels", "kernels_v2"])
def test_nullable_columns_match_pyarrow(tmp_path, writer):
    """Nulls placed by the vectorized take: nullable int, string, a
    list with null lists and null elements, and a timestamp."""
    rng = np.random.default_rng(11)
    n = 3000
    nulls = rng.random(n) < 0.3
    ints = pa.array(rng.integers(-50, 50, n), pa.int64(), mask=nulls)
    strs = pa.array([None if m else f"s{i % 97}" for i, m in
                     enumerate(rng.random(n) < 0.2)], pa.string())
    lists = pa.array([None if i % 7 == 0 else
                      [None if j % 3 == 0 else j for j in range(i % 5)]
                      for i in range(n)], pa.list_(pa.int32()))
    ts = pa.array([None if i % 4 == 0 else
                   datetime.datetime(2020, 1, 1) + datetime.timedelta(
                       seconds=i) for i in range(n)], pa.timestamp("us"))
    tbl = pa.table({"i": ints, "s": strs, "l": lists, "t": ts})
    path = str(tmp_path / "nulls.parquet")
    if writer == "pyarrow":
        pq.write_table(tbl, path, row_group_size=1000, data_page_size=2048)
    else:
        write_parquet_via_kernels(
            tbl, path, row_group_size=1000, data_page_rows=256,
            page_version="2.0" if writer == "kernels_v2" else "1.0")
    got = read_parquet_via_kernels(path)
    assert got.equals(pq.read_table(path))
    assert got.column("i").null_count == int(nulls.sum())
