"""Frame/blob round-trip tests: every codec, every testdata table, the
synthetic F1 table with nulls and skew (FIXTURES.md F1/F1-null/F4)."""

import glob
import os

from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from parquet_hs_ray.format import decode_array, decode_table, encode_array, encode_table
from parquet_hs_ray.selector import BITPACK, CODEC_NAMES, DICT, FOR, FSST, PLAIN, RLE
from parquet_hs_ray.sources.synth import gen_batch

SF_DIR = "/root/testdata/sf0.001"
# FIXTURES.md F3: the golden file Spark wrote in the reference checkout.
_REF_GOLDEN = "/root/reference/tests/integration/test.parquet"


def roundtrip_array(arr: pa.Array, codec=None):
    frame, stats = encode_array(arr, codec)
    out, pos = decode_array(frame, 0, arr.type)
    assert pos == len(frame)
    assert out.equals(arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr), (
        f"codec={stats.codec}"
    )
    return frame, stats


_MOD37 = pa.array(np.arange(1000, dtype=np.int64) % 37, pa.int64())
_EXTREME = pa.array([-(2**63), 2**63 - 1, 0, -1, 42] * 10, pa.int64())


def test_int_codecs_roundtrip():
    for codec in [PLAIN, DICT, FOR]:
        roundtrip_array(_MOD37, codec)


def test_negative_and_extreme_ints():
    for codec in [PLAIN, FOR]:
        roundtrip_array(_EXTREME, codec)


# RLE and BITPACK frames of the two inputs above, as the encoder wrote
# them before those ids became decode-only: blobs holding them must
# keep decoding to the same values.
_RLE_BITPACK_FRAMES = {
    ("mod37", RLE): bytes.fromhex(
        "00e8070002f70500e8070601d107000040200c44611c48a22c4ce33c50244d54655d58a66d5ce77d60288e24"
        "10080351180792280bd3380f14491355591796691bd7791f188a230904c24014c68124cac234ce0345d24455"
        "d68565dac675de0786e2480281301085712089b2308df34091345195756199b6719df781a1389240200c4461"
        "1c48a22c4ce33c50244d54655d58a66d5ce77d60288e2410080351180792280bd3380f14491355591796691b"
        "d7791f188a230904c24014c68124cac234ce0345d24455d68565dac675de0786e2480281301085712089b230"
        "8df34091345195756199b6719df781a1389240200c44611c48a22c4ce33c50244d54655d58a66d5ce77d6028"
        "8e2410080351180792280bd3380f14491355591796691bd7791f188a230904c24014c68124cac234ce0345d2"
        "4455d68565dac675de0786e2480281301085712089b2308df34091345195756199b6719df781a1389240200c"
        "44611c48a22c4ce33c50244d54655d58a66d5ce77d60288e2410080351180792280bd3380f14491355591796"
        "691bd7791f188a230904c24014c68124cac234ce0345d24455d68565dac675de0786e2480281301085712089"
        "b2308df34091345195756199b6719df781a1389240200c44611c48a22c4ce33c50244d54655d58a66d5ce77d"
        "60288e2410080351180792280bd3380f14491355591796691bd7791f188a230904c24014c68124cac234ce03"
        "45d24455d68565dac675de0786e2480281301085712089b2308df34091345195756199b6719df781a1389240"
        "200c44611c48a22c4ce33c50244d54655d58a66d5ce77d60288e2410080351180792280bd3380f1449135559"
        "1796691bd7791f188a230904c24014c68124cac234ce0345d24455d68565dac675de0786e248028130108571"
        "2089b2308df34091345195756199b6719df781a1389240200c44611c48a22c4ce33c50244d54655d58a66d5c"
        "e77d60288e2410080351180792280bd3380f14491355591796691bd7791f188a230904c24014c68124cac234"
        "ce0345d24455d68565dac675de0786e24802"
    ),
    ("mod37", BITPACK): bytes.fromhex(
        "00e8070003f70500e8070601d107000040200c44611c48a22c4ce33c50244d54655d58a66d5ce77d60288e24"
        "10080351180792280bd3380f14491355591796691bd7791f188a230904c24014c68124cac234ce0345d24455"
        "d68565dac675de0786e2480281301085712089b2308df34091345195756199b6719df781a1389240200c4461"
        "1c48a22c4ce33c50244d54655d58a66d5ce77d60288e2410080351180792280bd3380f14491355591796691b"
        "d7791f188a230904c24014c68124cac234ce0345d24455d68565dac675de0786e2480281301085712089b230"
        "8df34091345195756199b6719df781a1389240200c44611c48a22c4ce33c50244d54655d58a66d5ce77d6028"
        "8e2410080351180792280bd3380f14491355591796691bd7791f188a230904c24014c68124cac234ce0345d2"
        "4455d68565dac675de0786e2480281301085712089b2308df34091345195756199b6719df781a1389240200c"
        "44611c48a22c4ce33c50244d54655d58a66d5ce77d60288e2410080351180792280bd3380f14491355591796"
        "691bd7791f188a230904c24014c68124cac234ce0345d24455d68565dac675de0786e2480281301085712089"
        "b2308df34091345195756199b6719df781a1389240200c44611c48a22c4ce33c50244d54655d58a66d5ce77d"
        "60288e2410080351180792280bd3380f14491355591796691bd7791f188a230904c24014c68124cac234ce03"
        "45d24455d68565dac675de0786e2480281301085712089b2308df34091345195756199b6719df781a1389240"
        "200c44611c48a22c4ce33c50244d54655d58a66d5ce77d60288e2410080351180792280bd3380f1449135559"
        "1796691bd7791f188a230904c24014c68124cac234ce0345d24455d68565dac675de0786e248028130108571"
        "2089b2308df34091345195756199b6719df781a1389240200c44611c48a22c4ce33c50244d54655d58a66d5c"
        "e77d60288e2410080351180792280bd3380f14491355591796691bd7791f188a230904c24014c68124cac234"
        "ce0345d24455d68565dac675de0786e24802"
    ),
    ("extreme", RLE): bytes.fromhex(
        "00320002d103ffffffffffffffffff01324001650000000000000000000000ffffffffffffffff0000000000"
        "000080ffffffffffffff7f2a000000000000800000000000000000ffffffffffffffff0000000000000080ff"
        "ffffffffffff7f2a000000000000800000000000000000ffffffffffffffff0000000000000080ffffffffff"
        "ffff7f2a000000000000800000000000000000ffffffffffffffff0000000000000080ffffffffffffff7f2a"
        "000000000000800000000000000000ffffffffffffffff0000000000000080ffffffffffffff7f2a00000000"
        "0000800000000000000000ffffffffffffffff0000000000000080ffffffffffffff7f2a0000000000008000"
        "00000000000000ffffffffffffffff0000000000000080ffffffffffffff7f2a000000000000800000000000"
        "000000ffffffffffffffff0000000000000080ffffffffffffff7f2a000000000000800000000000000000ff"
        "ffffffffffffff0000000000000080ffffffffffffff7f2a000000000000800000000000000000ffffffffff"
        "ffffff0000000000000080ffffffffffffff7f2a000000000000800000000000000000000000000000000000"
        "00000000000000000000000000000000000000000000000000000000000000"
    ),
    ("extreme", BITPACK): bytes.fromhex(
        "00320003d103ffffffffffffffffff01324001650000000000000000000000ffffffffffffffff0000000000"
        "000080ffffffffffffff7f2a000000000000800000000000000000ffffffffffffffff0000000000000080ff"
        "ffffffffffff7f2a000000000000800000000000000000ffffffffffffffff0000000000000080ffffffffff"
        "ffff7f2a000000000000800000000000000000ffffffffffffffff0000000000000080ffffffffffffff7f2a"
        "000000000000800000000000000000ffffffffffffffff0000000000000080ffffffffffffff7f2a00000000"
        "0000800000000000000000ffffffffffffffff0000000000000080ffffffffffffff7f2a0000000000008000"
        "00000000000000ffffffffffffffff0000000000000080ffffffffffffff7f2a000000000000800000000000"
        "000000ffffffffffffffff0000000000000080ffffffffffffff7f2a000000000000800000000000000000ff"
        "ffffffffffffff0000000000000080ffffffffffffff7f2a000000000000800000000000000000ffffffffff"
        "ffffff0000000000000080ffffffffffffff7f2a000000000000800000000000000000000000000000000000"
        "00000000000000000000000000000000000000000000000000000000000000"
    ),
}


@pytest.mark.parametrize("key", list(_RLE_BITPACK_FRAMES),
                         ids=lambda k: f"{k[0]}-{CODEC_NAMES[k[1]]}")
def test_decode_only_int_frames(key):
    frame = _RLE_BITPACK_FRAMES[key]
    arr = {"mod37": _MOD37, "extreme": _EXTREME}[key[0]]
    out, pos = decode_array(frame, 0, pa.int64())
    assert pos == len(frame)
    assert out.equals(arr)


@pytest.mark.parametrize("codec", [RLE, BITPACK])
def test_decode_only_codecs_refuse_encode(codec):
    with pytest.raises(ValueError, match="decode-only"):
        encode_array(_MOD37, codec)


def test_int_with_nulls():
    vals = pa.array([1, None, 3, None, 5] * 100, pa.int64())
    for codec in [PLAIN, DICT, FOR]:
        roundtrip_array(vals, codec)


def test_string_codecs_roundtrip():
    vals = pa.array((["alpha", "beta", None, "", "gamma-very-long-string"] * 50), pa.string())
    for codec in [PLAIN, DICT, FSST]:
        roundtrip_array(vals, codec)


def test_forced_fsst_frame_equals_selected_fsst_frame():
    """Forcing FSST on a column the selector codes as FSST must give the
    same frame: both paths build the symbol table from the one sample
    ``encode_array`` takes of the column."""
    rng = np.random.default_rng(11)
    col = pa.array([f"{rng.integers(0, 10**9)}.example.com/page" for _ in range(5000)])
    auto, stats = encode_array(col)
    assert stats.codec == "fsst"
    forced, _ = roundtrip_array(col, FSST)
    assert forced == auto


def test_float_roundtrip():
    rng = np.random.default_rng(7)
    vals = pa.array(rng.normal(size=500), pa.float64())
    roundtrip_array(vals, PLAIN)
    lowcard = pa.array(rng.choice([1.5, 2.5, 3.5], size=500), pa.float64())
    roundtrip_array(lowcard, DICT)


def test_bool_roundtrip():
    vals = pa.array([True, False, None, True] * 100, pa.bool_())
    roundtrip_array(vals)


def test_timestamp_roundtrip():
    vals = pa.array(np.arange(1_600_000_000_000_000, 1_600_000_100_000_000, 200_000), pa.timestamp("us"))
    roundtrip_array(vals)


def test_list_int32_roundtrip():
    tokens = pa.array([[1, 2, 3], [], None, [7, 7, 7, 7], [50256]], pa.list_(pa.int32()))
    roundtrip_array(tokens)


def test_list_float_roundtrip():
    emb = pa.array([[0.1, 0.2], [0.3, 0.4, 0.5], []], pa.list_(pa.float32()))
    roundtrip_array(emb)


def test_empty_and_all_null():
    roundtrip_array(pa.array([], pa.int64()))
    roundtrip_array(pa.array([], pa.string()))
    roundtrip_array(pa.array([None, None, None], pa.int64()))
    roundtrip_array(pa.array([None, None], pa.string()))
    roundtrip_array(pa.array([None, None], pa.list_(pa.int32())))


@pytest.mark.parametrize(
    "name", ["region", "nation", "customer", "supplier", "part", "orders", "lineitem", "events", "documents", "embeddings"]
)
def test_testdata_table_roundtrip(name):
    tbl = pq.read_table(f"{SF_DIR}/{name}.parquet")
    blob, stats = encode_table(tbl)
    out = decode_table(blob)
    assert out.equals(tbl.combine_chunks()), name


def test_f1_roundtrip_and_compression_bound():
    """North rule: encoded size <= pyarrow parquet (dict on, UNCOMPRESSED —
    the reference's only codec world, Stream/Reader.hs:316-322)."""
    import io

    tbl = gen_batch(2000, seed=42)
    blob, stats = encode_table(tbl)
    out = decode_table(blob)
    assert out.equals(tbl)
    buf = io.BytesIO()
    pq.write_table(tbl, buf, compression="NONE", use_dictionary=True)
    assert len(blob) <= buf.tell(), f"ours={len(blob)} parquet={buf.tell()}"


def test_f1_null_roundtrip():
    tbl = gen_batch(1000, seed=42, nulls=True)
    assert tbl["tokens"].null_count > 0
    blob, _ = encode_table(tbl)
    out = decode_table(blob)
    assert out.equals(tbl)


def test_f1_skew_roundtrip():
    tbl = gen_batch(500, seed=42, skew=True)
    blob, _ = encode_table(tbl)
    assert decode_table(blob).equals(tbl)


def test_column_pruning():
    tbl = gen_batch(100, seed=42)
    blob, _ = encode_table(tbl)
    out = decode_table(blob, columns=["n_tok", "source"])
    assert out.column_names == ["n_tok", "source"]
    assert out["n_tok"].combine_chunks().equals(tbl["n_tok"].combine_chunks())


def test_selector_corner_tables():
    """FIXTURES.md F4: expected winning codecs."""
    rng = np.random.default_rng(42)
    const = pa.array(np.full(1000, 7, dtype=np.int64))
    _, st = encode_array(const)
    assert st.codec in ("rle", "for")  # FOR collapses to one RLE run too

    lowcard = pa.array(rng.integers(0, 16, 1000, dtype=np.int64))
    _, st = encode_array(lowcard)
    assert st.codec in ("dict", "bitpack", "for")

    clustered = pa.array(rng.integers(1_000_000, 1_000_256, 1000, dtype=np.int64))
    _, st = encode_array(clustered)
    assert st.codec in ("for", "bitpack", "dict")
    frame, _ = encode_array(clustered)
    assert len(frame) < 1000 * 8 / 4  # at least 4x better than plain

    # high-card compressible WITHOUT adjacent-prefix locality (the random
    # id leads) -> fsst; with a long shared run prefix front would compete
    strings = pa.array([f"{rng.integers(0, 10**9)}.example.com/page" for _ in range(500)])
    _, st = encode_array(strings)
    assert st.codec == "fsst"

    seq_ids = pa.array([f"https://example.com/{i:09d}/page" for i in range(500)])
    _, st = encode_array(seq_ids)
    assert st.codec == "front"

    lowcard_s = pa.array([["a", "b", "c", "d"][i % 4] for i in range(1000)])
    _, st = encode_array(lowcard_s)
    assert st.codec == "dict"


@pytest.mark.skipif(
    not os.path.exists(_REF_GOLDEN),
    reason=f"reference checkout's golden file {_REF_GOLDEN} is absent",
)
def test_reference_golden_parquet_via_our_kernels():
    """FIXTURES.md F3: the reference's committed golden file
    (/root/reference/tests/integration/test.parquet, Spark 3.2.0,
    UNCOMPRESSED, RLE levels + PLAIN INT64) must decode bit-identically
    through OUR kernels vs PyArrow's independent decode."""
    path = _REF_GOLDEN
    from parquet_hs_ray.sources.parquet_pages import read_parquet_via_kernels

    ours = read_parquet_via_kernels(path)
    theirs = pq.read_table(path)
    for name in theirs.column_names:
        assert ours[name].combine_chunks().equals(theirs[name].combine_chunks()), name


def test_f3_roundtrip_through_our_format():
    """The same nested-null shape through our own encode/decode.

    FIXTURES.md F3 use (b): the six single-key rows of the reference's
    input1.json, built in memory with its schema (every field nullable,
    so each row's five absent keys become null lists). The golden file
    Spark wrote from them is round-tripped too wherever it is present."""
    rows = [{"f1": [[1, 2], [3, 4], [5]]}] + [{f"f{i}": [1, 2, 3]} for i in range(2, 7)]
    schema = pa.schema([
        ("f1", pa.list_(pa.list_(pa.int64()))),
        *[(f"f{i}", pa.list_(pa.int64())) for i in range(2, 7)],
    ])
    tables = [pa.Table.from_pylist(rows, schema=schema)]
    if os.path.exists(_REF_GOLDEN):
        tables.append(pq.read_table(_REF_GOLDEN))
    for tbl in tables:
        blob, _ = encode_table(tbl)
        assert decode_table(blob).equals(tbl.combine_chunks())


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=40, deadline=None)
def test_random_table_roundtrip(seed):
    """Fuzz: random schemas/values/nulls through encode_table/decode_table."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 300))
    cols, names = [], []
    for ci in range(int(rng.integers(1, 5))):
        kind = rng.choice(["i32", "i64", "f64", "str", "ts", "bool", "li32", "lf32"])
        null_p = float(rng.choice([0.0, 0.1]))
        mask = rng.random(n) < null_p
        if kind == "i32":
            v = rng.integers(-(2**31), 2**31, size=n, dtype=np.int64).astype(np.int32)
            arr = pa.array(v, pa.int32(), mask=mask)
        elif kind == "i64":
            v = rng.integers(-(2**62), 2**62, size=n, dtype=np.int64)
            arr = pa.array(v, pa.int64(), mask=mask)
        elif kind == "f64":
            arr = pa.array(rng.normal(size=n), pa.float64(), mask=mask)
        elif kind == "str":
            words = ["", "a", "xyzzy", "longer-string-value", "0" * 50]
            arr = pa.array([None if m else words[int(i)] for m, i in zip(mask, rng.integers(0, len(words), n))], pa.string())
        elif kind == "ts":
            arr = pa.array(rng.integers(0, 2**60, size=n, dtype=np.int64), pa.timestamp("us"), mask=mask)
        elif kind == "bool":
            arr = pa.array(rng.random(n) < 0.5, pa.bool_(), mask=mask)
        elif kind == "li32":
            lens = rng.integers(0, 6, size=n)
            vals = rng.integers(0, 1000, size=int(lens.sum()), dtype=np.int64).astype(np.int32)
            offs = np.concatenate([[0], np.cumsum(lens)]).astype(np.int32)
            arr = pa.ListArray.from_arrays(pa.array(offs, pa.int32()), pa.array(vals, pa.int32()),
                                           mask=pa.array(mask) if mask.any() else None)
        else:
            lens = rng.integers(0, 4, size=n)
            vals = rng.normal(size=int(lens.sum())).astype(np.float32)
            offs = np.concatenate([[0], np.cumsum(lens)]).astype(np.int32)
            arr = pa.ListArray.from_arrays(pa.array(offs, pa.int32()), pa.array(vals, pa.float32()),
                                           mask=pa.array(mask) if mask.any() else None)
        cols.append(arr)
        names.append(f"c{ci}")
    tbl = pa.table(cols, names=names)
    blob, _ = encode_table(tbl)
    assert decode_table(blob).equals(tbl)


@given(st.integers(min_value=0, max_value=10**9), st.booleans(),
       st.sampled_from(["1.0", "2.0"]),
       st.sampled_from(["NONE", "snappy", "zstd", "gzip"]))
@settings(max_examples=25, deadline=None)
def test_parquet_pages_fuzz_vs_pyarrow(seed, use_dict, page_version,
                                       compression):
    """Random nested int64 lists written by pyarrow (v1 AND v2 data
    pages, dict on/off, UNCOMPRESSED + snappy/zstd/gzip page codecs —
    the reference rejects every codec) must decode identically through
    our page kernels — the dictionary-page path the reference golden
    file lacks, plus DataPageHeaderV2 (rep/def byte lengths in the
    header, no u32 prefixes), which the reference declares but never
    implements (Types/PageHeader.hs:33-43)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))

    def rand_list_col(depth):
        # null slots must have zero extent (parquet writer requirement)
        if depth == 1:
            mask = rng.random(n) < 0.2
            lens = rng.integers(0, 5, size=n)
            lens[mask] = 0
            vals = rng.integers(0, 50, size=int(lens.sum()), dtype=np.int64)
            offs = np.concatenate([[0], np.cumsum(lens)]).astype(np.int32)
            return pa.ListArray.from_arrays(pa.array(offs, pa.int32()), pa.array(vals, pa.int64()),
                                            mask=pa.array(mask) if mask.any() else None)
        mask = rng.random(n) < 0.2
        lens_o = rng.integers(0, 3, size=n)
        lens_o[mask] = 0
        inner_n = int(lens_o.sum())
        lens_i = rng.integers(0, 4, size=inner_n)
        vals = rng.integers(0, 50, size=int(lens_i.sum()), dtype=np.int64)
        offs_i = np.concatenate([[0], np.cumsum(lens_i)]).astype(np.int32)
        inner = pa.ListArray.from_arrays(pa.array(offs_i, pa.int32()), pa.array(vals, pa.int64()))
        offs_o = np.concatenate([[0], np.cumsum(lens_o)]).astype(np.int32)
        return pa.ListArray.from_arrays(pa.array(offs_o, pa.int32()), inner,
                                        mask=pa.array(mask) if mask.any() else None)

    tbl = pa.table({"a": rand_list_col(1), "b": rand_list_col(2)})
    import os
    import tempfile

    from parquet_hs_ray.sources.parquet_pages import read_parquet_via_kernels

    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.parquet")
        pq.write_table(tbl, path, compression=compression,
                       use_dictionary=use_dict,
                       version="2.6" if page_version == "2.0" else "1.0",
                       data_page_version=page_version)
        ours = read_parquet_via_kernels(path)
        theirs = pq.read_table(path)
    for name in theirs.column_names:
        assert ours[name].combine_chunks().equals(theirs[name].combine_chunks()), name


def test_parquet_pages_unsupported_codec_raises():
    """Unmapped codecs raise cleanly (never garbage); both LZ4 variants
    are now SUPPORTED (test_parquet_writer.py::test_lz4_both_variants),
    so only a truly unknown name rejects."""
    import os
    import tempfile

    from parquet_hs_ray.sources.parquet_pages import (
        _page_codec, read_parquet_via_kernels)

    with pytest.raises(ValueError, match="unsupported compression"):
        _page_codec("LZO")
    tbl = pa.table({"a": pa.array([[1, 2], [3]], pa.list_(pa.int64()))})
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.parquet")
        pq.write_table(tbl, path, compression="lz4", use_dictionary=False)
        assert read_parquet_via_kernels(path).equals(tbl)


def test_sliced_array_roundtrip():
    """Non-zero Arrow offsets (sliced arrays/tables) must encode correctly
    (buffer reads honor arr.offset)."""
    base = gen_batch(500, seed=7)
    sliced = base.slice(123, 250)
    blob, _ = encode_table(sliced)
    assert decode_table(blob).equals(sliced.combine_chunks())
    for col in base.column_names:
        arr = base[col].combine_chunks().slice(50, 77)
        frame, _ = encode_array(arr)
        out, _ = decode_array(frame, 0, arr.type)
        assert out.equals(arr), col
    # sliced with nulls
    nb = gen_batch(300, seed=9, nulls=True).slice(31, 200)
    blob, _ = encode_table(nb)
    assert decode_table(blob).equals(nb.combine_chunks())


# --- BIT_PACKED level decoding in the page path (VERDICT r1 #4) ---

def _compact_struct(fields):
    """Minimal thrift compact-protocol struct writer for test fixtures:
    fields = [(field_id, kind, value)] with kind in {"i32", "struct"}."""
    from parquet_hs_ray.codecs.varint import encode_varint, zigzag_encode

    out = b""
    last = 0
    for fid, kind, val in fields:
        delta = fid - last
        assert 0 < delta <= 15
        last = fid
        if kind == "i32":
            out += bytes([(delta << 4) | 5]) + encode_varint(zigzag_encode(val))
        elif kind == "struct":
            out += bytes([(delta << 4) | 12]) + val
        else:
            raise AssertionError(kind)
    return out + b"\x00"


def _data_page_v1(n_values, value_enc, def_enc, rep_enc, body):
    hdr = _compact_struct([
        (1, "i32", 0),            # PageType DATA_PAGE
        (2, "i32", len(body)),    # uncompressed_page_size
        (3, "i32", len(body)),    # compressed_page_size
        (5, "struct", _compact_struct([
            (1, "i32", n_values),
            (2, "i32", value_enc),
            (3, "i32", def_enc),
            (4, "i32", rep_enc),
        ])),
    ])
    return hdr + body


def test_bit_packed_levels_in_page_path():
    """A data page whose definition levels use the deprecated BIT_PACKED
    encoding (u32-LE length prefix + big-endian groups of 8, the reference's
    decodeLevel BIT_PACKED branch, Stream/Reader.hs:264-282) must decode
    bit-identically to the RLE encoding of the same levels."""
    from parquet_hs_ray.codecs.bitpack import encode_bpbe
    from parquet_hs_ray.codecs.rle_hybrid import encode_hybrid
    from parquet_hs_ray.sources.parquet_pages import decode_column_chunk_pages

    dfl = np.array([1, 0, 1, 1, 0, 1, 1, 1], dtype=np.uint64)
    present = np.array([10, 20, 30, 40, 50, 60], dtype="<i8")  # 6 non-null

    bp = encode_bpbe(dfl, 1)
    body_bp = len(bp).to_bytes(4, "little") + bp + present.tobytes()
    page_bp = _data_page_v1(8, 0, 4, 3, body_bp)  # PLAIN, def=BIT_PACKED

    rle = encode_hybrid(dfl.astype(np.uint32), 1)
    body_rle = len(rle).to_bytes(4, "little") + rle + present.tobytes()
    page_rle = _data_page_v1(8, 0, 3, 3, body_rle)  # PLAIN, def=RLE

    for page in (page_bp, page_rle):
        rep, d, vals = decode_column_chunk_pages(page, 8, "INT64", 0, 1)
        np.testing.assert_array_equal(d, dfl.astype(np.uint32))
        np.testing.assert_array_equal(vals, present)
        assert len(rep) == 8 and not rep.any()

    # unknown level encoding must raise, not mis-decode
    page_bad = _data_page_v1(8, 0, 0, 3, body_rle)  # PLAIN as a LEVEL encoding
    with pytest.raises(ValueError, match="level encoding"):
        decode_column_chunk_pages(page_bad, 8, "INT64", 0, 1)


def test_struct_map_fixed_size_list_roundtrip():
    """Nested non-list types round-trip through the blob format (r1 gap:
    a struct column previously crashed the fixed-width branch)."""
    from parquet_hs_ray.format import decode_table, encode_table

    n = 200
    rng = np.random.default_rng(7)
    struct = pa.array(
        [{"x": int(i), "y": f"s{i % 17}"} if i % 11 else None for i in range(n)],
        pa.struct([("x", pa.int64()), ("y", pa.string())]),
    )
    fsl = pa.FixedSizeListArray.from_arrays(
        pa.array(rng.standard_normal(n * 4), pa.float32()), 4
    )
    mp = pa.array(
        [{f"k{j}": j * i for j in range(i % 4)} for i in range(n)],
        pa.map_(pa.string(), pa.int64()),
    )
    nested = pa.array(
        [{"inner": {"a": i}, "l": list(range(i % 3))} for i in range(n)],
        pa.struct([("inner", pa.struct([("a", pa.int64())])),
                   ("l", pa.list_(pa.int64()))]),
    )
    t = pa.table({"s": struct, "f": fsl, "m": mp, "nested": nested,
                  "k": pa.array(np.arange(n))})
    blob, stats = encode_table(t)
    assert stats["s"].codec.startswith("struct<")
    assert stats["f"].codec.startswith("fsl<")
    back = decode_table(blob)
    assert back.equals(t)
    # sliced (non-zero offset) input
    blob2, _ = encode_table(t.slice(3, 100))
    assert decode_table(blob2).equals(t.slice(3, 100).combine_chunks())
    # column pruning still skips frames
    only = decode_table(blob, columns=["m", "k"])
    assert only.column_names == ["m", "k"] and only["m"].equals(t["m"])


# --- property fuzz over the whole blob format, incl. round-2 nested kinds ---
from hypothesis import given, settings
from hypothesis import strategies as hst


@hst.composite
def _tables(draw):
    n = draw(hst.integers(0, 120))
    rng = np.random.default_rng(draw(hst.integers(0, 2**31)))
    cols = {}
    kinds = draw(hst.lists(
        hst.sampled_from(["i64", "i32", "f64", "bool", "str", "bin",
                          "list_i32", "struct", "fsl", "map"]),
        min_size=1, max_size=4))
    for ci, kind in enumerate(kinds):
        name = f"c{ci}_{kind}"
        nulls = rng.random(n) < 0.15
        if kind in ("i64", "i32"):
            v = rng.integers(-10**9, 10**9, n)
            arr = pa.array([None if m else int(x) for m, x in zip(nulls, v)],
                           pa.int64() if kind == "i64" else pa.int32())
        elif kind == "f64":
            v = rng.standard_normal(n)
            arr = pa.array([None if m else float(x) for m, x in zip(nulls, v)], pa.float64())
        elif kind == "bool":
            arr = pa.array([None if m else bool(x) for m, x in zip(nulls, rng.integers(0, 2, n))])
        elif kind == "str":
            words = ["alpha", "beta", "☃unicode", "", "x" * 50]
            arr = pa.array([None if m else words[int(i)] for m, i in
                            zip(nulls, rng.integers(0, len(words), n))], pa.string())
        elif kind == "bin":
            arr = pa.array([None if m else bytes(rng.integers(0, 256, int(l), dtype=np.uint8))
                            for m, l in zip(nulls, rng.integers(0, 20, n))], pa.binary())
        elif kind == "list_i32":
            arr = pa.array([None if m else rng.integers(0, 100, int(l)).tolist()
                            for m, l in zip(nulls, rng.integers(0, 8, n))],
                           pa.list_(pa.int32()))
        elif kind == "struct":
            arr = pa.array([None if m else {"a": int(x), "s": f"v{x % 7}"}
                            for m, x in zip(nulls, rng.integers(0, 1000, n))],
                           pa.struct([("a", pa.int64()), ("s", pa.string())]))
        elif kind == "fsl":
            flat = pa.array(rng.standard_normal(n * 3).astype(np.float32))
            arr = pa.FixedSizeListArray.from_arrays(flat, 3)
        else:  # map
            arr = pa.array([{f"k{j}": int(j * x) for j in range(int(l))}
                            for l, x in zip(rng.integers(0, 4, n), rng.integers(0, 50, n))],
                           pa.map_(pa.string(), pa.int64()))
        cols[name] = arr
    t = pa.table(cols)
    off = draw(hst.integers(0, max(0, n - 1))) if n else 0
    return t.slice(off) if draw(hst.booleans()) else t


@given(_tables())
@settings(max_examples=120, deadline=None)
def test_blob_format_fuzz_roundtrip(t):
    from parquet_hs_ray.format import decode_table, encode_table

    blob, _ = encode_table(t)
    back = decode_table(blob)
    assert back.equals(t.combine_chunks())


@given(hst.integers(0, 2**31), hst.floats(0.01, 0.99))
@settings(max_examples=60, deadline=None)
def test_truncated_blob_never_returns_garbage(seed, frac):
    """Any prefix truncation of a valid blob must raise (ValueError /
    ArrowInvalid / struct errors), never silently return a wrong table."""
    from parquet_hs_ray.format import decode_table, encode_table

    rng = np.random.default_rng(seed)
    t = pa.table({
        "a": pa.array(rng.integers(0, 1000, 200)),
        "s": pa.array([f"row-{i}" for i in range(200)]),
        "l": pa.array([rng.integers(0, 50, int(x)).tolist() for x in rng.integers(0, 5, 200)],
                      pa.list_(pa.int64())),
    })
    blob, _ = encode_table(t)
    cut = blob[: max(1, int(len(blob) * frac))]
    try:
        out = decode_table(cut)
    except Exception:
        return  # loud failure: correct
    # decoding a strict prefix must not silently produce the full table
    assert not out.equals(t.combine_chunks())


def test_advise_sort_order_wins_and_protects():
    """The layout advisor picks a run-lengthening sort for lineitem (and
    the FULL-table encode shrinks >= 5% under it), keeps identity for
    orders (whose id ordering a status sort would break — the margin
    guard), and is deterministic."""
    import pyarrow.compute as pc

    from parquet_hs_ray.selector import advise_sort_order

    li = pq.read_table("/root/testdata/sf0.01/lineitem.parquet")
    keys, report = advise_sort_order(li)
    assert keys, report
    assert advise_sort_order(li)[0] == keys  # deterministic
    base = len(encode_table(li)[0])
    srt = li.take(pc.sort_indices(li, sort_keys=[(k, "ascending")
                                                 for k in keys]))
    opt = len(encode_table(srt)[0])
    assert opt < 0.95 * base, (base, opt, keys)
    # the layout change is user-visible: the sorted table still
    # round-trips bit-exact in its new order
    assert decode_table(encode_table(srt)[0]).equals(srt.combine_chunks())

    orders = pq.read_table("/root/testdata/sf0.01/orders.parquet")
    okeys, oreport = advise_sort_order(orders)
    assert okeys == [], oreport  # identity protected by the margin


@given(st.integers(min_value=0, max_value=10**9), st.booleans(),
       st.sampled_from(["1.0", "2.0"]),
       st.sampled_from(["NONE", "snappy"]))
@settings(max_examples=20, deadline=None)
def test_parquet_pages_plain_types_fuzz_vs_pyarrow(seed, with_nulls,
                                                   page_version,
                                                   compression):
    """The full PLAIN primitive-width set (INT32/FLOAT/DOUBLE/BOOLEAN +
    the original INT64/BYTE_ARRAY) decodes bit-identically through our
    page kernels — a strict superset of the reference, which errors on
    everything but INT64/BYTE_ARRAY (Stream/Reader.hs:205-209)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 80))

    def maybe_null(arr, t):
        if not with_nulls:
            return pa.array(arr, t)
        mask = rng.random(n) < 0.25
        return pa.array([None if m else v for v, m in zip(arr, mask)], t)

    tbl = pa.table({
        "i32": maybe_null(rng.integers(-2**30, 2**30, n).tolist(), pa.int32()),
        "i64": maybe_null(rng.integers(-2**60, 2**60, n).tolist(), pa.int64()),
        "f32": maybe_null(rng.random(n).astype(np.float32).tolist(), pa.float32()),
        "f64": maybe_null(rng.random(n).tolist(), pa.float64()),
        "b": maybe_null(rng.integers(0, 2, n).astype(bool).tolist(), pa.bool_()),
        "s": maybe_null([f"v{int(v)}" for v in rng.integers(0, 99, n)],
                        pa.string()),
    })
    import os
    import tempfile

    from parquet_hs_ray.sources.parquet_pages import read_parquet_via_kernels

    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.parquet")
        pq.write_table(tbl, path, compression=compression,
                       use_dictionary=False,
                       version="2.6" if page_version == "2.0" else "1.0",
                       data_page_version=page_version)
        ours = read_parquet_via_kernels(path)
        theirs = pq.read_table(path)
    for name in theirs.column_names:
        assert ours[name].combine_chunks().equals(
            theirs[name].combine_chunks()), name


@given(st.integers(min_value=0, max_value=10**9), st.booleans(),
       st.sampled_from(["1.0", "2.0"]))
@settings(max_examples=20, deadline=None)
def test_parquet_pages_byte_stream_split_fuzz_vs_pyarrow(seed, with_nulls,
                                                         page_version):
    """BYTE_STREAM_SPLIT pages (float32/float64/int32/int64) written by
    pyarrow decode identically through our kernels — the float-column
    encoding the format added in 2.8/2.11 (byte-transposed streams);
    another strict superset of the reference's PLAIN-only value path."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 300))

    def maybe_null(vals, t):
        if not with_nulls:
            return pa.array(vals, t)
        mask = rng.random(n) < 0.2
        return pa.array([None if m else v for v, m in zip(vals, mask)], t)

    tbl = pa.table({
        "f32": maybe_null(rng.normal(0, 100, n).astype(np.float32).tolist(),
                          pa.float32()),
        "f64": maybe_null((rng.normal(0, 1, n) * 10.0**rng.integers(-3, 9)
                           ).tolist(), pa.float64()),
        "i32": maybe_null(rng.integers(-2**30, 2**30, n).tolist(),
                          pa.int32()),
        "i64": maybe_null(rng.integers(-2**60, 2**60, n).tolist(),
                          pa.int64()),
    })
    import os
    import tempfile

    from parquet_hs_ray.sources.parquet_pages import read_parquet_via_kernels

    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.parquet")
        pq.write_table(
            tbl, path, compression="NONE", use_dictionary=False,
            version="2.6", data_page_version=page_version,
            column_encoding={c: "BYTE_STREAM_SPLIT"
                             for c in tbl.column_names})
        ours = read_parquet_via_kernels(path)
        theirs = pq.read_table(path)
    for name in theirs.column_names:
        assert ours[name].combine_chunks().equals(
            theirs[name].combine_chunks()), name


@given(st.integers(min_value=0, max_value=10**9), st.booleans(),
       st.sampled_from(["1.0", "2.0"]))
@settings(max_examples=20, deadline=None)
def test_parquet_pages_delta_encodings_fuzz_vs_pyarrow(seed, with_nulls,
                                                       page_version):
    """DELTA_BINARY_PACKED (int32+int64), DELTA_LENGTH_BYTE_ARRAY and
    DELTA_BYTE_ARRAY pages written by pyarrow decode identically through
    our kernels.  The reference declares these encodings in its enum
    universe (Types/Enums.hs:70-79) but never implements them; our own
    format has the DELTA/FRONT codec twins (codecs/delta.py,
    codecs/front.py) and this wires the parquet wire formats."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 300))

    def maybe_null(vals, t):
        if not with_nulls:
            return pa.array(vals, t)
        mask = rng.random(n) < 0.2
        return pa.array([None if m else v for v, m in zip(vals, mask)], t)

    tbl = pa.table({
        "di64": maybe_null(np.cumsum(rng.integers(-50, 1000, n)).tolist(),
                           pa.int64()),
        "di32": maybe_null(rng.integers(-2**28, 2**28, n).tolist(),
                           pa.int32()),
        "dba": maybe_null([f"key_{int(v):08d}_{'x' * int(rng.integers(0, 6))}"
                           for v in rng.integers(0, 10**6, n)], pa.string()),
        "dlen": maybe_null([f"p{int(v)}" * int(rng.integers(1, 4))
                            for v in rng.integers(0, 999, n)], pa.string()),
    })
    import os
    import tempfile

    from parquet_hs_ray.sources.parquet_pages import read_parquet_via_kernels

    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.parquet")
        pq.write_table(
            tbl, path, compression="NONE", use_dictionary=False,
            version="2.6", data_page_version=page_version,
            column_encoding={"di64": "DELTA_BINARY_PACKED",
                             "di32": "DELTA_BINARY_PACKED",
                             "dba": "DELTA_BYTE_ARRAY",
                             "dlen": "DELTA_LENGTH_BYTE_ARRAY"})
        ours = read_parquet_via_kernels(path)
        theirs = pq.read_table(path)
    for name in theirs.column_names:
        assert ours[name].combine_chunks().equals(
            theirs[name].combine_chunks()), name


@given(st.integers(min_value=0, max_value=10**9), st.booleans(),
       st.booleans(), st.sampled_from(["1.0", "2.0"]),
       st.sampled_from(["NONE", "snappy"]))
@settings(max_examples=20, deadline=None)
def test_parquet_pages_flba_int96_fuzz_vs_pyarrow(seed, with_nulls,
                                                  use_dict, page_version,
                                                  compression):
    """FIXED_LEN_BYTE_ARRAY carriers (decimal128 small+max precision,
    fixed-size binary, float16) and deprecated INT96 timestamps decode
    bit-identically through our page kernels — the remaining real-world
    physical types beyond the reference's INT64/BYTE_ARRAY world
    (Stream/Reader.hs:205-209 errors on them), covering legacy
    Spark/Impala files (INT96) and decimal-heavy warehouse exports."""
    import datetime
    import decimal

    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 120))

    def maybe_null(vals, t):
        if not with_nulls:
            return pa.array(vals, t)
        mask = rng.random(n) < 0.25
        return pa.array([None if m else v for v, m in zip(vals, mask)], t)

    epoch = datetime.datetime(1995, 5, 17)
    tbl = pa.table({
        "dec": maybe_null([decimal.Decimal(int(v)).scaleb(-2)
                           for v in rng.integers(-10**12, 10**12, n)],
                          pa.decimal128(14, 2)),
        "bigdec": maybe_null([decimal.Decimal(int(v)) * 10**15
                              for v in rng.integers(-10**17, 10**17, n)],
                             pa.decimal128(38, 0)),
        "fsb": maybe_null([bytes(rng.integers(0, 256, 5, dtype=np.uint8))
                           for _ in range(n)], pa.binary(5)),
        "f16": maybe_null(list(rng.normal(0, 10, n).astype(np.float16)),
                          pa.float16()),
        "ts96": maybe_null([epoch + datetime.timedelta(
                                seconds=int(s), microseconds=int(u))
                            for s, u in zip(rng.integers(0, 10**9, n),
                                            rng.integers(0, 10**6, n))],
                           pa.timestamp("us")),
    })
    import os
    import tempfile

    from parquet_hs_ray.sources.parquet_pages import read_parquet_via_kernels

    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.parquet")
        pq.write_table(tbl, path, compression=compression,
                       use_dictionary=use_dict,
                       version="2.6" if page_version == "2.0" else "1.0",
                       data_page_version=page_version,
                       use_deprecated_int96_timestamps=True)
        ours = read_parquet_via_kernels(path)
        theirs = pq.read_table(path)
    for name in theirs.column_names:
        assert ours[name].combine_chunks().equals(
            theirs[name].combine_chunks()), name


def test_parquet_pages_byte_stream_split_flba():
    """BYTE_STREAM_SPLIT over a FIXED_LEN_BYTE_ARRAY column (float16):
    the format-2.11 extension of BSS to fixed-width byte arrays."""
    import os
    import tempfile

    from parquet_hs_ray.sources.parquet_pages import read_parquet_via_kernels

    rng = np.random.default_rng(7)
    tbl = pa.table({"f16": pa.array(rng.normal(0, 1, 200).astype(np.float16),
                                    pa.float16())})
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.parquet")
        pq.write_table(tbl, path, compression="NONE", use_dictionary=False,
                       version="2.6",
                       column_encoding={"f16": "BYTE_STREAM_SPLIT"})
        ours = read_parquet_via_kernels(path)
        theirs = pq.read_table(path)
    assert ours["f16"].combine_chunks().equals(
        theirs["f16"].combine_chunks())


def test_parquet_pages_int_backed_decimals_duckdb_file():
    """INT32/INT64-backed decimals (duckdb, Spark and the parquet spec's
    recommended storage for precision <= 9 / <= 18) carry UNSCALED
    integers — they must be reinterpreted as decimal storage, not
    re-scaled.  Cross-engine fixture: a duckdb-written file, decoded
    through our kernels, compared against pyarrow's read."""
    import os
    import tempfile

    import duckdb

    from parquet_hs_ray.sources.parquet_pages import read_parquet_via_kernels

    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "dec.parquet")
        duckdb.sql(f"""
            COPY (SELECT ((range - 20) * 7.13)::DECIMAL(9,2) AS d32,
                         ((range - 20) * 1234567.891)::DECIMAL(18,3) AS d64,
                         ((range - 20) * 999.9)::DECIMAL(38,4) AS dbig
                  FROM range(50))
            TO '{path}' (FORMAT PARQUET, COMPRESSION UNCOMPRESSED)""")
        ours = read_parquet_via_kernels(path)
        theirs = pq.read_table(path)
    for name in theirs.column_names:
        assert ours[name].combine_chunks().equals(
            theirs[name].combine_chunks()), name


def test_byte_array_values_variable_width_decimal():
    """Variable-width big-endian two's-complement decimals (the
    BYTE_ARRAY carrier parquet-java/Avro emit, minimal width per value)
    convert correctly — including sign extension and widths straddling
    8 bytes."""
    import decimal

    from parquet_hs_ray.sources.parquet_pages import ByteArrayValues

    vals = [0, 1, -1, 127, -128, 128, -129, 12345, -12345,
            10**18, -(10**18), 2**100, -(2**100)]
    raw = [v.to_bytes((v.bit_length() + 8) // 8 or 1, "big", signed=True)
           for v in vals]
    bav = ByteArrayValues(
        np.asarray([len(r) for r in raw], dtype=np.int64),
        np.frombuffer(b"".join(raw), dtype=np.uint8).copy())
    arr = bav.to_arrow(pa.decimal128(38, 2))
    ctx = decimal.Context(prec=60)  # default 28-digit context would round
    expect = [decimal.Decimal(v).scaleb(-2, ctx) for v in vals]
    assert arr.to_pylist() == expect


@given(st.integers(min_value=0, max_value=10**9), st.booleans(),
       st.sampled_from(["1.0", "2.0"]))
@settings(max_examples=15, deadline=None)
def test_parquet_pages_struct_fuzz_vs_pyarrow(seed, use_dict, page_version):
    """Non-repeated struct trees (optional struct, optional/required
    fields, nested struct) assemble bit-identically through our kernels.
    The reference's instruction machinery (Reader.hs:461-537) only
    handles its list fixture — struct assembly is a strict superset."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 80))
    t = pa.struct([("x", pa.int64()), ("y", pa.string()),
                   ("inner", pa.struct([("a", pa.float64()),
                                        ("b", pa.int32())]))])

    def row(i):
        if rng.random() < 0.2:
            return None
        return {"x": None if rng.random() < 0.2 else int(rng.integers(0, 99)),
                "y": None if rng.random() < 0.2 else f"s{i}",
                "inner": None if rng.random() < 0.3 else {
                    "a": None if rng.random() < 0.2 else float(rng.random()),
                    "b": int(rng.integers(-5, 5))}}

    tbl = pa.table({"s": pa.array([row(i) for i in range(n)], t),
                    "plain": pa.array(rng.integers(0, 9, n))})
    import os
    import tempfile

    from parquet_hs_ray.sources.parquet_pages import read_parquet_via_kernels

    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.parquet")
        pq.write_table(tbl, path, compression="NONE",
                       use_dictionary=use_dict,
                       version="2.6" if page_version == "2.0" else "1.0",
                       data_page_version=page_version)
        ours = read_parquet_via_kernels(path)
        theirs = pq.read_table(path)
    for name in theirs.column_names:
        assert ours[name].combine_chunks().equals(
            theirs[name].combine_chunks()), name


def test_parquet_pages_nested_shapes_vs_pyarrow():
    """Full record assembly: list<struct>, struct<list>, map,
    list<list<struct>>, struct<map,list> — shapes the round-4 struct
    assembly first rejected now decode bit-identically (the general
    Dremel inverse, _construct_node)."""
    import os
    import tempfile

    from parquet_hs_ray.sources.parquet_pages import read_parquet_via_kernels

    cases = {
        "ls": pa.array([[{"x": 1, "y": "a"}, {"x": None, "y": "b"}],
                        None, [], [{"x": 3, "y": None}]],
                       pa.list_(pa.struct([("x", pa.int64()),
                                           ("y", pa.string())]))),
        "s": pa.array([{"l": [1, 2], "z": 5}, None,
                       {"l": None, "z": None}, {"l": [], "z": 7}],
                      pa.struct([("l", pa.list_(pa.int64())),
                                 ("z", pa.int32())])),
        "m": pa.array([{"a": 1, "b": None}, None, {}, {"c": 3}],
                      pa.map_(pa.string(), pa.int64())),
        "lls": pa.array([[[{"q": 1.5}], []], None, [None],
                         [[{"q": None}, {"q": 2.5}]]],
                        pa.list_(pa.list_(pa.struct([("q",
                                                      pa.float64())])))),
    }
    with tempfile.TemporaryDirectory() as d:
        for name, arr in cases.items():
            path = os.path.join(d, f"{name}.parquet")
            pq.write_table(pa.table({name: arr}), path, compression="NONE")
            ours = read_parquet_via_kernels(path)
            theirs = pq.read_table(path)
            assert ours[name].combine_chunks().equals(
                theirs[name].combine_chunks()), name


@given(st.integers(min_value=0, max_value=10**9), st.booleans(),
       st.sampled_from(["1.0", "2.0"]))
@settings(max_examples=15, deadline=None)
def test_parquet_pages_nested_fuzz_vs_pyarrow(seed, use_dict, page_version):
    """Random deep-nested rows (struct<list, map, struct> + list<struct>)
    through the general record assembly vs pyarrow."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))

    def maybe(p, v):
        return None if rng.random() < p else v

    t = pa.struct([
        ("l", pa.list_(pa.int64())),
        ("m", pa.map_(pa.string(), pa.int32())),
        ("inner", pa.struct([("a", pa.string())])),
    ])
    lt = pa.list_(pa.struct([("x", pa.int64()), ("y", pa.string())]))

    def srow(i):
        return maybe(0.2, {
            "l": maybe(0.2, [maybe(0.2, int(v))
                             for v in rng.integers(0, 9,
                                                   int(rng.integers(0, 4)))]),
            "m": maybe(0.2, {f"k{j}": maybe(0.3, int(rng.integers(0, 99)))
                             for j in range(int(rng.integers(0, 3)))}),
            "inner": maybe(0.3, {"a": maybe(0.2, f"s{i}")}),
        })

    def lrow(i):
        return maybe(0.2, [
            maybe(0.2, {"x": maybe(0.2, int(rng.integers(0, 99))),
                        "y": maybe(0.2, f"v{j}")})
            for j in range(int(rng.integers(0, 4)))])

    tbl = pa.table({"s": pa.array([srow(i) for i in range(n)], t),
                    "ls": pa.array([lrow(i) for i in range(n)], lt)})
    import os
    import tempfile

    from parquet_hs_ray.sources.parquet_pages import read_parquet_via_kernels

    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.parquet")
        pq.write_table(tbl, path, compression="NONE",
                       use_dictionary=use_dict,
                       version="2.6" if page_version == "2.0" else "1.0",
                       data_page_version=page_version)
        ours = read_parquet_via_kernels(path)
        theirs = pq.read_table(path)
    for name in theirs.column_names:
        assert ours[name].combine_chunks().equals(
            theirs[name].combine_chunks()), name


def test_parquet_pages_schema_fidelity_edge_cases():
    """Review regressions: (1) non-nullable list elements must keep the
    file's value-field name/nullability (type=t on from_arrays) — both
    nested under a struct (used to crash StructArray.from_arrays) and
    top-level (used to silently diverge from schema_arrow); (2) column
    names containing dots must not be mis-grouped by path parsing."""
    import os
    import tempfile

    from parquet_hs_ray.sources.parquet_pages import read_parquet_via_kernels

    cases = {
        "a": pa.table({"s": pa.array(
            [{"l": [1, 2], "z": 5}, None, {"l": None, "z": 3}],
            pa.struct([("l", pa.list_(pa.field("element", pa.int64(),
                                               nullable=False))),
                       ("z", pa.int32())]))}),
        "b": pa.table({"l": pa.array(
            [[1, 2], [], None],
            pa.list_(pa.field("element", pa.int64(), nullable=False)))}),
        "c": pa.table({"a.b": pa.array([1, 2, 3]),
                       "a": pa.array(["x", "y", "z"])}),
    }
    with tempfile.TemporaryDirectory() as d:
        for tag, tbl in cases.items():
            path = os.path.join(d, f"{tag}.parquet")
            pq.write_table(tbl, path, compression="NONE")
            ours = read_parquet_via_kernels(path)
            theirs = pq.read_table(path)
            assert ours.schema.equals(theirs.schema), tag
            for name in theirs.column_names:
                assert ours[name].combine_chunks().equals(
                    theirs[name].combine_chunks()), (tag, name)


def _sliced_columns(n: int = 300, seed: int = 13) -> pa.Table:
    """One table of every column shape the encoder branches on, each
    column with nulls (struct and list children too)."""
    rng = np.random.default_rng(seed)
    null = rng.random(n) < 0.2
    ints = pa.array(rng.integers(-5, 1 << 40, n), mask=null)
    lists = pa.array([None if null[i] else rng.integers(0, 900, rng.integers(0, 6)).tolist()
                      for i in range(n)], pa.list_(pa.int32()))
    strs = pa.array([None if null[i] else f"s{i % 37}" for i in range(n)])
    kv = pa.map_(pa.string(), pa.int64())
    return pa.table({
        "int64": ints,
        "float": pa.array(rng.normal(size=n), mask=null),
        "bool": pa.array(rng.random(n) < 0.5, mask=null),
        "string": strs,
        "list": lists,
        "struct": pa.StructArray.from_arrays([ints, strs], ["a", "b"],
                                             mask=pa.array(rng.random(n) < 0.1)),
        "fixed_size_list": pa.FixedSizeListArray.from_arrays(
            pa.array(rng.integers(0, 50, 3 * n), pa.int16()), 3, mask=pa.array(null)),
        "map": pa.array([None if null[i] else [(f"k{i % 5}", i)] for i in range(n)], kv),
    })


@pytest.mark.parametrize("offset,length", [(1, 250), (37, 200), (64, 236), (299, 1)])
def test_sliced_columns_encode_as_their_copies(offset, length):
    """A one-chunk column sliced at an offset (the shape ``read_slice``
    hands the encoder, which takes the chunk without copying it) gives
    the blob bytes, the manifest Blooms and the decoded table of its
    ``combine_chunks()`` copy."""
    from parquet_hs_ray.sources.bloom import build_manifest_bloom

    tbl = _sliced_columns().slice(offset, length)
    copy = pa.table({c: tbl[c].combine_chunks() for c in tbl.column_names})
    assert all(tbl[c].num_chunks == 1 and tbl[c].chunk(0).offset == offset
               for c in tbl.column_names)
    assert all(copy[c].chunk(0).offset == 0 for c in copy.column_names)
    blob, stats = encode_table(tbl)
    assert blob == encode_table(copy)[0]
    assert decode_table(blob).equals(copy)
    for c in tbl.column_names:
        assert build_manifest_bloom(tbl[c]) == build_manifest_bloom(copy[c]), c
        assert encode_array(tbl[c].chunk(0))[0] == encode_array(copy[c])[0], c
