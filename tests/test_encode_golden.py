"""Byte stability of both encoders, pinned by sha256 over a fixed matrix.

Kernel writer: ``encode_parquet_bytes`` images of one mixed table
(flat, nested, logical and map columns, nulls, runs, a Bloom filter on
``i64``), UNCOMPRESSED only, over page version x value-encoding mode x
dictionary x pagination; plus, under both page versions, an F1 table
written with the kernel-Parquet benchmark's writer options (long
per-row repetition-level runs, wide dictionary indices) and an int64
column whose runs of 14-17 equal values start at every offset mod 8
(both sides of the RLE cut, every 8-alignment steal).  Compressed
pages are left out: their bytes depend on the compression library's
version.

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


def _runs_table() -> pa.Table:
    """``r``: runs of 14, 15, 16 and 17 equal values, each length
    starting at every offset mod 8, between distinct single values.
    ``rn``: the same with every run null, so the definition levels
    carry the runs."""
    vals, in_run, k = [], [], 0
    for length in (14, 15, 16, 17):
        for off in range(8):
            pad = (off - len(vals)) % 8 or 8
            vals.extend(1000 + (k + j) % 37 for j in range(pad))
            in_run.extend([False] * pad)
            k += pad
            vals.extend([k % 29] * length)
            in_run.extend([True] * length)
            k += 1
    r = np.asarray(vals, dtype=np.int64)
    return pa.table({"r": r, "rn": pa.array(r, mask=np.asarray(in_run))})


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

# the kernel-Parquet benchmark's writer options
_PARQUET_READ_OPTS = dict(compression="NONE", row_group_size=256,
                          data_page_rows=64, bloom_filters=["doc_id"])

KERNEL_RUNS_SHA256 = {
    "f1/v1.0":
        "f302403e7549c244bdefaa6d4faa2f0ef2b6b0c31c7a6c76be6003db0b6c8670",
    "f1/v2.0":
        "0801e6e01e7424f698ad929b9eec82f1899b8bae491e33134dd04be1147ce809",
    "runs/v1.0":
        "8455f2185bd943af43aef539ccd02d3933f543e84959ed8cc9f4e7d860b1784e",
    "runs/v2.0":
        "98a42c45909ac608e8662e2ca5a4816301220385a0c8266b7037728a263c9dd2",
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


@pytest.mark.parametrize("pv", ["1.0", "2.0"])
def test_kernel_writer_run_bytes(pv):
    f1 = encode_parquet_bytes(gen_batch(300, seed=7), page_version=pv,
                              **_PARQUET_READ_OPTS)
    runs = encode_parquet_bytes(_runs_table(), page_version=pv,
                                compression="UNCOMPRESSED")
    assert hashlib.sha256(f1).hexdigest() == KERNEL_RUNS_SHA256[f"f1/v{pv}"]
    assert hashlib.sha256(runs).hexdigest() == KERNEL_RUNS_SHA256[f"runs/v{pv}"]


def test_blob_frame_bytes():
    got = {f"{name}/{col}": hashlib.sha256(encode_array(t[col])[0]).hexdigest()
           for name, t in _blob_tables().items() for col in t.column_names}
    assert got == BLOB_SHA256


# PFOR payload matrix: (dtype, n, base width the shape forces).  Deltas
# are uniform below 2**w with ~0.5 % exceptions above it; the widths
# equal to the itemsize (int8 w8, int16 w16) have none.  n % 8 != 0
# exercises the padded tail.  An exception costs 3 bytes in the width
# choice, so PFOR never picks a width of 24 bits or more (patching every
# value is cheaper): the byte-aligned 24/32/40/64-bit streams other
# codecs emit are pinned on ``pack_bits_le`` below.
_PFOR_CASES = [(dt, n, w)
               for dt, ws in [("int8", (0, 3, 8)), ("int16", (0, 3, 8, 16)),
                              ("int32", (0, 3, 8, 16, 20)),
                              ("uint32", (0, 3, 8, 16, 20)),
                              ("int64", (0, 3, 8, 16, 20))]
               for w in ws for n in (1024, 1001)]
_PACK_CASES = [("uint8", 8), ("uint16", 8), ("uint16", 16), ("uint32", 8),
               ("uint32", 16), ("uint32", 24), ("uint32", 32), ("uint64", 8),
               ("uint64", 16), ("uint64", 24), ("uint64", 32), ("uint64", 40),
               ("uint64", 64), ("uint32", 13), ("uint64", 45)]


def _pfor_values(dtype: str, n: int, w: int) -> np.ndarray:
    dt = np.dtype(dtype)
    bits = 8 * dt.itemsize
    rng = np.random.default_rng(bits * 100 + w * 10 + n % 8)
    top = (1 << bits) - 2
    if w == 0:
        d = np.zeros(n, dtype=np.uint64)
    else:
        d = rng.integers(0, min(1 << w, top + 1), n, dtype=np.uint64)
    if w < bits:
        exc = rng.choice(n - 1, max(1, n // 200), replace=False) + 1
        d[exc] = rng.integers(1 << w, min(1 << (w + 12), top) + 1, len(exc),
                              dtype=np.uint64)
    d[0] = 0
    ref = int(np.iinfo(dt).min) + (1 if dt.kind == "i" else 0)
    u = np.dtype(f"<u{dt.itemsize}")
    return (d.astype(u) + u.type(ref & ((1 << bits) - 1))).view(dt)


def _pfor_big64() -> np.ndarray:
    """int64 deltas >= 2**53 (the 64-bit bit-length path), with every
    boundary 2**k-1, 2**k, 2**k+1 for k in 53..62 among them."""
    rng = np.random.default_rng(53)
    d = rng.integers(1 << 59, 1 << 60, 4093, dtype=np.uint64)
    edges = [(1 << k) + e for k in range(53, 63) for e in (-1, 0, 1)]
    d[1:1 + len(edges)] = edges
    d[-1] = (1 << 63) + 5
    d[0] = 0
    return (d - np.uint64(1 << 62)).view(np.int64)


def _pfor_width(payload: bytes) -> int:
    pos = 0
    while payload[pos] & 0x80:
        pos += 1
    return payload[pos + 1]


PFOR_SHA256 = {
    "int8/w0/n1024":
        "8bcb3ac6483ba47df9762e0669256472c2c33bd12d20e458ce5b03e17eed784a",
    "int8/w0/n1001":
        "efee749d4a15b089448b71ecc7e08af2728201fd182a54930aba7eac620ceb9b",
    "int8/w3/n1024":
        "caca37340983c40ca7cd7b9f454f41b27ca03e1782b7238c4db2fdfa713c92f1",
    "int8/w3/n1001":
        "4d8002c9a8ed12096daf1f312d1174b202e2240ad4e6b3d1da1661d58e30f942",
    "int8/w8/n1024":
        "5b9e8810f63279a5758734bb488710dd81d21446fd2e09b631f8fd9a41bb7cf1",
    "int8/w8/n1001":
        "abb3a1567bc69f5e12c7e0ffeba2a55eb9ad8c5f819ced189085e3cc20ccae9f",
    "int16/w0/n1024":
        "cf11e8b8981eb74b432e33583cc03b34b6fff8fc8aefc72410f89ee086441ef8",
    "int16/w0/n1001":
        "f0bcd2318cd7d58440a0a3e0e47849c453fed5d46e95b6244135219da7317948",
    "int16/w3/n1024":
        "08a9a1a8fe366daf12369d3ab9ce5e9000129791eab1e23addfe7816b15f5c6e",
    "int16/w3/n1001":
        "c566c58a9b847ead11c0984f6fbcb0ecafcc18ed2de689adb2ad216fc452c8bf",
    "int16/w8/n1024":
        "c4be17a592f8dc66758bcb15f84a38b2ca0c125385c11cc454bf2c17d90fdaae",
    "int16/w8/n1001":
        "ec2ad2294f27cd6b7dfe6b4aa0e8de85d5db84640f4eadf07fe405c4da813c96",
    "int16/w16/n1024":
        "0610c18bc5c0ae1d195f88eaa8b3dcd19976614c92cf4514b4673cbbd829e4cc",
    "int16/w16/n1001":
        "aca21a081942ee754a9c6c70242fc7bedbb8abcba176c693cff0715b1ed4482d",
    "int32/w0/n1024":
        "976701ba2dd4d0cdc1a9d758a98a596d1216f004ae3c29721f61bf7d1c8a032e",
    "int32/w0/n1001":
        "425dee9538db5e55ad33e8ddd9eaea4c4f0718fc2676dc3e1c50b1f8c82f5e24",
    "int32/w3/n1024":
        "18df648e78f943c7de29f20331780cec261615ea5ef25f9316252bc6587a3006",
    "int32/w3/n1001":
        "8535e4419cce7812fdf5ff60ee7f8b7727f491ddc0e7f8f491baca2acd5f279e",
    "int32/w8/n1024":
        "2948feec85714226f3c633d22db8a287d8ba5755dae0c9a92257ed87068bee11",
    "int32/w8/n1001":
        "4ce7c328600e84dfb5f37ed64a00a57df1fb776ab8832417bbe74e2cfe4a0961",
    "int32/w16/n1024":
        "4130192f9ba195e65770f3b25fb4531db875bcb36bbfb46fefa1d3095b927e81",
    "int32/w16/n1001":
        "c090bd364e297aa3c7828cc56ae16b596ec0e1a68efa5f0c2e740aa17ba34d7b",
    "int32/w20/n1024":
        "9d7a62c7114c11023f15d1c3d341b729d7954203021d1bf8b487332ffb07fe52",
    "int32/w20/n1001":
        "87efb965527cedcce52eaeeb47fa0c05f7f2e684fb7db941784a7eee49c7ad90",
    "uint32/w0/n1024":
        "97348082a0b90f5e12080cd1e33876cdf860d55541cff162d2bd8aa3ba86e460",
    "uint32/w0/n1001":
        "bc522f4f289603bac3b8faf96320578d126bbcbebcff26cc86aa879ab34d9c3d",
    "uint32/w3/n1024":
        "32371cb26120b91715609c159dc0d47ea972c5a95ac4b0f04962676f76ec9889",
    "uint32/w3/n1001":
        "dc5e80a6bc8ac521a8306349670411c416452bd1ec5cc8ca0de98e37cff1187e",
    "uint32/w8/n1024":
        "cd545e8ea38d44b840a57438aba095b83f8cba70230fcc96ce067d28b2449a3a",
    "uint32/w8/n1001":
        "b737c5046557033c8d81635d3276d91e92d98af5c30a5b65faf45b3739e5287e",
    "uint32/w16/n1024":
        "2d02212ba2399d2961f6ad045f56a047eea136b3f2b351eb450caa7b67773061",
    "uint32/w16/n1001":
        "c09653d26a00aa3bcb2ba0ac7386197c2c3fc5f075358971be0887941dfdb7fc",
    "uint32/w20/n1024":
        "af9237c35dcc2e88d63adc8083c88b80aea2ff5a9ec4a1ed2050f2703ca1561e",
    "uint32/w20/n1001":
        "4c65516ac0fbebfe3bface60a6e63964679fb005b2efe09c3e0ca8d0913fb968",
    "int64/w0/n1024":
        "7dbfba1be479c269849bb915e2193a4fc3bd3de721c31619cc5ae8da33e8448d",
    "int64/w0/n1001":
        "40f71e175f3bf1c20e014da64d264e9432385cbcf267a01b72162ac8566ed392",
    "int64/w3/n1024":
        "e41d43454b564d27422962fb7644d3b375f117743de9473c7716f98fa86f01b1",
    "int64/w3/n1001":
        "95a72ce665e38b1e42ae2f656f791b6be4aeca63e626117c08fe90ac01967e15",
    "int64/w8/n1024":
        "b760197adf0b5b744b30e9e45107d9ec56823370acf99552069e283de0054d53",
    "int64/w8/n1001":
        "cf78de3783a5abea9ed1cde4affae3829fd89703ff762950d9b607585d4d6f29",
    "int64/w16/n1024":
        "4e02a5c991bd0e7205308fce8a221250c913b19b808211aa580125d8b5ced927",
    "int64/w16/n1001":
        "abf8a61cf0b493985d30b1e90c0c6d2a7e5dffce22423df1d0f907457ee69cbd",
    "int64/w20/n1024":
        "702ee75efde37a12bab0b39e69fddd87062d57b6c182a7da8d4b01e2aa187d5b",
    "int64/w20/n1001":
        "94fdb069be6d53b0f1dae198100314bf24871aaefcfc600747e3a45284c4eb40",
    "int64/big53":
        "0e3210fbf5572d9ce8479cff15135d7f4603d8dd9a3b12b38c5b3b7c34fb256d",
}

PACK_SHA256 = {
    "uint8/w8":
        "563e76cec367b121f2a546b7b7257a55cdf546f719d5e2d24d450c3aaea7ece2",
    "uint16/w8":
        "b5d2a3c150937291d18169dc9dc36e66b52575a1dc0094385e7653d7395cfd30",
    "uint16/w16":
        "fa35f004e837529d54a6bfd95e85dcd2f98b5599604ce44c1a7323f00abdb639",
    "uint32/w8":
        "81e7c629bc72a0f18b2f569f735c895800c8c989ef121f87a4809a56d5b77094",
    "uint32/w16":
        "47eb9b88112c182b6c901b8120255bca54e1d46a67d09da58ecae1593c4932bc",
    "uint32/w24":
        "98f00690f99380f4756848c1ac9dff6462ce37012040a51cdd0bab4199753465",
    "uint32/w32":
        "a64c690bca3f2030666a456c8b4268605d867e50d2e147faa45b213675dc503d",
    "uint64/w8":
        "8986d1f018cda1fd9e25f8e9ae27a9bb3329ed0ab9248ae8beeae124e6fa0eab",
    "uint64/w16":
        "b0b7d39ad6a8e99c5c61e22e25faf98642c8fbf1932a4404507611c9a870b26a",
    "uint64/w24":
        "8bc297d91d0ef8b57edc693ce9c8c7d5bc0e189da07138a85d34ce1b344dc873",
    "uint64/w32":
        "ce547e86bb143a14f1469c438d91f0ea5d01ec0aecc997836790345e441d692f",
    "uint64/w40":
        "1a84dc36f90f573f689213c0f4426478e58e2d1fe2bbf328bd5d49506fc0ae0e",
    "uint64/w64":
        "595d414e6969de8219767561f0de72419772fd7c621759bdf7b382bb780daa4c",
    "uint32/w13":
        "88adb22dce51c9f888ef37e448e36741bc7bb2a8d0af2ca8a57d39198584ae29",
    "uint64/w45":
        "96fd83fcb95e860987b1896140a2e765f849b72c6e61bcb9993a7fe0e945bb34",
}

MANIFEST_BLOOM_SHA256 = {
    "f1/doc_id":
        "6224ed08ec6a397e0597060f3cca4d18ccb9d2de454698531c03a451b57766bd",
    "f1/tokens":
        "4b6a6446b265239238ceeb684ad50945cac536dadd08084345a746be5841ea4d",
    "f1/n_tok":
        "47634c4042d21b1224a526c3472b74390dc626406ec84465ed6f32a3c2920e21",
    "f1/source":
        "81f73c3dd4a1a2d3327ac7f20460ced875bf4da5eb3dbbd173675d8ba7dc9c5d",
    "f1skew/doc_id":
        "6224ed08ec6a397e0597060f3cca4d18ccb9d2de454698531c03a451b57766bd",
    "f1skew/tokens":
        "af67022124b5042cc46c60efd93368499f49818316d2ebf9083211a24c06405d",
    "f1skew/n_tok":
        "47634c4042d21b1224a526c3472b74390dc626406ec84465ed6f32a3c2920e21",
    "f1skew/source":
        "d1dc697e9b98bdc56ea6c2bd130ed553c40f1638fedef46decb7e499c0acc9b5",
}

KERNEL_STRING_BLOOM_SHA256 = (
    "b1c58c52c41e0120f6e3b072b49d176d4d08ef72577685a8038bd48765cafc0f")


def _pfor_inputs() -> dict[str, np.ndarray]:
    got = {f"{dt}/w{w}/n{n}": _pfor_values(dt, n, w) for dt, n, w in _PFOR_CASES}
    got["int64/big53"] = _pfor_big64()
    return got


def test_pfor_payload_bytes():
    from parquet_hs_ray.codecs.pfor import decode_pfor, encode_pfor

    got = {}
    for key, vals in _pfor_inputs().items():
        payload = encode_pfor(vals)
        if key != "int64/big53":
            w = int(key.split("/")[1][1:])
            assert _pfor_width(payload) == w, key
        out, end = decode_pfor(payload, vals.dtype)
        assert end == len(payload) and out.dtype == vals.dtype
        assert np.array_equal(out, vals), key
        got[key] = hashlib.sha256(payload).hexdigest()
    assert got == PFOR_SHA256


def _pack_inputs() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(5)
    return {f"{dt}/w{w}": rng.integers(0, 1 << w, 1024, dtype=np.uint64).astype(dt)
            for dt, w in _PACK_CASES}


def test_pack_bits_bytes():
    from parquet_hs_ray.codecs.bitpack import pack_bits_le, unpack_bits_le

    got = {}
    for key, vals in _pack_inputs().items():
        w = int(key.split("/w")[1])
        packed = pack_bits_le(vals, w)
        out, end = unpack_bits_le(packed, w, len(vals), dtype=vals.dtype)
        assert end == len(packed) and np.array_equal(out, vals), key
        got[key] = hashlib.sha256(packed).hexdigest()
    assert got == PACK_SHA256


def test_manifest_bloom_bits():
    import json

    from parquet_hs_ray.sources.bloom import build_manifest_bloom

    got = {f"{name}/{col}": hashlib.sha256(json.dumps(
               build_manifest_bloom(t[col]), sort_keys=True).encode()).hexdigest()
           for name, t in _blob_tables().items() if name != "runs"
           for col in t.column_names}
    assert got == MANIFEST_BLOOM_SHA256


def test_kernel_writer_string_bloom_bytes(mixed):
    image = encode_parquet_bytes(
        mixed, compression="UNCOMPRESSED", row_group_size=400,
        bloom_filters=["s"])
    assert hashlib.sha256(image).hexdigest() == KERNEL_STRING_BLOOM_SHA256
