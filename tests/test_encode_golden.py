"""Byte stability of both encoders, pinned by sha256 over a fixed matrix.

Kernel writer: ``encode_parquet_bytes`` images of one mixed table
(flat, nested, logical and map columns, nulls, runs, a Bloom filter on
``i64``), UNCOMPRESSED only, over page version x value-encoding mode x
dictionary x pagination.  Compressed pages are left out: their bytes
depend on the compression library's version.

Blob store: per-column ``encode_array`` frames of fixed F1, F1-skew and
runs/low-cardinality tables.  A frame carries no IPC schema bytes, so
the pins do not depend on the pyarrow version.

A refactor of either encoder must leave every digest unchanged; a
deliberate format change updates the digests in the same commit.
"""

import hashlib
import itertools

import numpy as np
import pyarrow as pa
import pytest

from parquet_hs_ray.format import encode_array
from parquet_hs_ray.sources.parquet_writer import encode_parquet_bytes
from parquet_hs_ray.sources.synth import gen_batch


def _mixed_table(n: int = 600) -> pa.Table:
    rng = np.random.default_rng(3)
    i32 = rng.integers(-50, 50, n).astype(np.int32)
    return pa.table({
        "i32": i32,
        # run lengths 1..24 and null runs of 15: both sides of the RLE cut
        "i64": np.repeat(rng.integers(0, 1 << 40, 48), np.arange(48) % 24 + 1)[:n],
        "f64": rng.normal(size=n),
        "s": pa.array([None if (k // 15) % 3 == 0 else f"s{k % 41}"
                       for k in range(n)]),
        "lst": pa.array([None if k % 11 == 0 else list(range(k % 5))
                         for k in range(n)], pa.list_(pa.int32())),
        "st": pa.StructArray.from_arrays(
            [pa.array(i32 % 3), pa.array([f"x{k % 3}" for k in range(n)])],
            ["a", "b"]),
        "d32": pa.array((np.arange(n) // 40).astype(np.int32), pa.date32()),
        "ts": pa.array(np.arange(n, dtype=np.int64) * 1000, pa.timestamp("us")),
        "mp": pa.array([[(f"k{k % 3}", k)] if k % 5 else [] for k in range(n)],
                       pa.map_(pa.string(), pa.int64())),
    })


def _blob_tables() -> dict[str, pa.Table]:
    rng = np.random.default_rng(11)
    return {
        "f1": gen_batch(40, seed=7),
        "f1skew": gen_batch(40, seed=7, skew=True),
        "runs": pa.table({
            "r": np.repeat(rng.integers(0, 16, 250), np.arange(250) % 24 + 1)[:3000],
            "r8": np.repeat(np.arange(250) % 7, 12).astype(np.int32),
            "lowcard": rng.integers(0, 16, 3000),
            "flag": rng.random(3000) < 0.1,
        }),
    }


_KERNEL_CASES = list(itertools.product(
    ["1.0", "2.0"], ["classic", "auto"], [True, False], [None, 64]))

KERNEL_SHA256 = {
    "v1.0/classic/dict/one-page":
        "941ea25fe84aead802ca6139dfde7af516870320d0843b2baf2b3237dc235678",
    "v1.0/classic/dict/64-page":
        "87d635a117050ab3586ac995b6c8205a5ad3eaa04a29c948b9bccd1877c99e2e",
    "v1.0/classic/plain/one-page":
        "1ebbd313a2a38be0bed5c8f935b5a8d0506509fe5604c4e8947b837909c1c5dc",
    "v1.0/classic/plain/64-page":
        "3b7b117e30975300e2dc30af511f2505f32f3e224d6908e77f04e44c04bdea1d",
    "v1.0/auto/dict/one-page":
        "7a9ed8986840ab391378d8b7e126b4e9536d446f920b0f46efa452d16765e8bd",
    "v1.0/auto/dict/64-page":
        "e123a8fe0d3462afd1c3e81bf5c090053c4e1b4a95f46c9acc55fe9dc2c6a7f2",
    "v1.0/auto/plain/one-page":
        "70ebbaaa681e1a58336a1d8f0e6203f5e7b15d40fb229ae8257c5c96cb105027",
    "v1.0/auto/plain/64-page":
        "650bf2eb2423d8c22e7b39bdb9edac17518802fd35dd08a5e728d057f78d0ea4",
    "v2.0/classic/dict/one-page":
        "10d6c9604036c8a9f6ee283a79c333aaed93e83da9aedfec4bc803de07448354",
    "v2.0/classic/dict/64-page":
        "6f3d8460b976ccd368791f505c0aefaad854c76d52b62b0652e2c81c302f5816",
    "v2.0/classic/plain/one-page":
        "535aac0c4c73f6db8d2b623023d85874890e15692c64a0d3021b991252b01c29",
    "v2.0/classic/plain/64-page":
        "b9ee562df6780c2377115b734ae42c77b09544edb2f35c023f3bcc823ff1b534",
    "v2.0/auto/dict/one-page":
        "2e4bf68db58924e52083c49cb74366957f88cf40acbb6e98af86b0490f855dbf",
    "v2.0/auto/dict/64-page":
        "41e1a4fd8f542122211ffc3a37a0655a07fe372c8fdd99f6f9f85b3b4626d1de",
    "v2.0/auto/plain/one-page":
        "8d2c709ee5fc5094c9ef1be559ff2e892994b1a3072d65319d19b2254cdac424",
    "v2.0/auto/plain/64-page":
        "d9be9dcd10f59a2c322be9fc509e518cb1b2df52143a02f3bd9685f96da37a28",
}

BLOB_SHA256 = {
    "f1/doc_id":
        "f29d579d32136ce926741130850c38638da2826315894cf23c538a5b1045cb62",
    "f1/tokens":
        "0987f0233f06caeb05169a57dc5248e2e4bde5bea277cbbfbdd4f1a3df48ca3b",
    "f1/n_tok":
        "97561089027d2d5c60ed20a7d6f9a63df41056d7c3230bcf454c4ce10f3e54c2",
    "f1/source":
        "ebd0d230728c6e4238c1010ec87bcab895279dabfe1a11b605d9bcbb0a35b58e",
    "f1skew/doc_id":
        "f29d579d32136ce926741130850c38638da2826315894cf23c538a5b1045cb62",
    "f1skew/tokens":
        "5cdb57a0c85fb720ffa14062c3ed1f945da03dd4b926fec1d04fa9e956991ad5",
    "f1skew/n_tok":
        "97561089027d2d5c60ed20a7d6f9a63df41056d7c3230bcf454c4ce10f3e54c2",
    "f1skew/source":
        "7de28dde30e2b64583bd48df94c9e99f4416cbba8272f6b07374e079efe97bac",
    "runs/r":
        "dd3a235efcc76c3e52246126d92ef7c244253de60cd9de2a614acb302c3290c1",
    "runs/r8":
        "1b43e7df107ea2815d5c2faa5435be4b20a3c90ef01a0e80e24cbefc0105e4b9",
    "runs/lowcard":
        "3747f5a9645300e18006294980a3958f5a428c9b875cf7432b3c751002730f55",
    "runs/flag":
        "bec5d944857413a6829ce8a4e19d6500011f39ba7394bd103c2e8989f1fa6a7b",
}


def _kernel_key(case) -> str:
    pv, enc, dic, rows = case
    return f"v{pv}/{enc}/{'dict' if dic else 'plain'}/{rows or 'one'}-page"


@pytest.fixture(scope="module")
def mixed():
    return _mixed_table()


@pytest.mark.parametrize("case", _KERNEL_CASES, ids=_kernel_key)
def test_kernel_writer_bytes(mixed, case):
    pv, enc, dic, rows = case
    image = encode_parquet_bytes(
        mixed, compression="UNCOMPRESSED", row_group_size=400,
        use_dictionary=dic, encodings=enc, page_version=pv,
        data_page_rows=rows, bloom_filters=["i64"])
    assert hashlib.sha256(image).hexdigest() == KERNEL_SHA256[_kernel_key(case)]


def test_blob_frame_bytes():
    got = {f"{name}/{col}": hashlib.sha256(encode_array(t[col])[0]).hexdigest()
           for name, t in _blob_tables().items() for col in t.column_names}
    assert got == BLOB_SHA256
