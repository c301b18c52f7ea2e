"""Parquet Split-Block Bloom Filters (parquet-format BloomFilter.md).

Point-lookup scan reduction for the self-hosted read path: a column
chunk's bloom answers "is value X definitely absent from this row
group?" without touching any page, so an equality predicate on a
HIGH-CARDINALITY, UNSORTED column (where min/max statistics prune
nothing) still skips row groups.  At 100 TB this is the difference
between decoding every row group of every file and touching only the
ones whose 32-byte-block filter admits the probe.

Spec pieces implemented here, all from the public parquet-format repo:

- **XXH64** (seed 0) over the value's PLAIN encoding — 4/8-byte
  little-endian for INT32/INT64/FLOAT/DOUBLE, raw bytes (no length
  prefix) for BYTE_ARRAY.  Two independent implementations: a general
  byte-string one (`xxh64`) following Yann Collet's published spec,
  and vectorized numpy ones for the fixed 4- and 8-byte short paths
  (`xxh64_fixed4` / `xxh64_fixed8`) and for Arrow string/binary arrays
  (`xxh64_binary`: values under 32 bytes in 8/4/1-byte lanes, one
  length at a time; longer ones through `xxh64`); tests assert they
  agree, which guards each against transcription slips.  Every
  BYTE_ARRAY hash (kernel-writer Blooms, probes, manifest Blooms) goes
  through `xxh64_binary`.
- **Split-block bloom**: ``z`` 32-byte blocks, block chosen by
  ``((h >> 32) * z) >> 32``, one bit set per 32-bit word of the block
  via the eight spec salts applied to the LOW 32 bits of the hash.
- **BloomFilterHeader** thrift struct (numBytes + BLOCK/XXHASH/
  UNCOMPRESSED unions) at ``ColumnMetaData.bloom_filter_offset``
  (field 14; length in field 15), written by `parquet_writer.py` and
  parsed back by `parquet_footer.py`.

The blob store's per-partition manifest Blooms (``build_manifest_bloom``)
use the same filter and hash, so the repo has one hash family and one
false-positive model.

The reference models ColumnMetaData but stops before the bloom fields
(`/root/reference/src/Parquet/Types/ColumnChunk.hs:19-30`); this is a
forward-looking superset of its metadata surface.
"""

from __future__ import annotations

import numpy as np

_P1 = 0x9E3779B185EBCA87
_P2 = 0xC2B2AE3D27D4EB4F
_P3 = 0x165667B19E3779F9
_P4 = 0x85EBCA77C2B2AE63
_P5 = 0x27D4EB2F165667C5
_M64 = (1 << 64) - 1

# the eight block salts from parquet-format BloomFilter.md
_SALT = np.array([0x47B6137B, 0x44974D91, 0x8824AD5B, 0xA2B7289D,
                  0x705495C7, 0x2DF1424B, 0x9EFC4947, 0x5C6BFB31],
                 dtype=np.uint32)


def _rotl(x: int, r: int) -> int:
    return ((x << r) | (x >> (64 - r))) & _M64


def xxh64(data: bytes, seed: int = 0) -> int:
    """XXH64 of a byte string (general path, any length)."""
    n = len(data)
    i = 0
    if n >= 32:
        v1 = (seed + _P1 + _P2) & _M64
        v2 = (seed + _P2) & _M64
        v3 = seed & _M64
        v4 = (seed - _P1) & _M64
        while i + 32 <= n:
            for j, v in enumerate((v1, v2, v3, v4)):
                lane = int.from_bytes(data[i + 8 * j:i + 8 * j + 8],
                                      "little")
                v = _rotl((v + lane * _P2) & _M64, 31) * _P1 & _M64
                if j == 0:
                    v1 = v
                elif j == 1:
                    v2 = v
                elif j == 2:
                    v3 = v
                else:
                    v4 = v
            i += 32
        h = (_rotl(v1, 1) + _rotl(v2, 7) + _rotl(v3, 12)
             + _rotl(v4, 18)) & _M64
        for v in (v1, v2, v3, v4):
            h ^= _rotl((v * _P2) & _M64, 31) * _P1 & _M64
            h = ((h * _P1) + _P4) & _M64
    else:
        h = (seed + _P5) & _M64
    h = (h + n) & _M64
    while i + 8 <= n:
        k = int.from_bytes(data[i:i + 8], "little")
        h ^= _rotl((k * _P2) & _M64, 31) * _P1 & _M64
        h = ((_rotl(h, 27) * _P1) + _P4) & _M64
        i += 8
    if i + 4 <= n:
        h ^= (int.from_bytes(data[i:i + 4], "little") * _P1) & _M64
        h = ((_rotl(h, 23) * _P2) + _P3) & _M64
        i += 4
    while i < n:
        h ^= (data[i] * _P5) & _M64
        h = (_rotl(h, 11) * _P1) & _M64
        i += 1
    h ^= h >> 33
    h = (h * _P2) & _M64
    h ^= h >> 29
    h = (h * _P3) & _M64
    h ^= h >> 32
    return h


def _rotl_np(x: np.ndarray, r: int) -> np.ndarray:
    return (x << np.uint64(r)) | (x >> np.uint64(64 - r))


def _avalanche_np(h: np.ndarray) -> np.ndarray:
    h = h ^ (h >> np.uint64(33))
    h = h * np.uint64(_P2)
    h = h ^ (h >> np.uint64(29))
    h = h * np.uint64(_P3)
    h = h ^ (h >> np.uint64(32))
    return h


def _round8(h: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Fold one 8-byte lane ``k`` (uint64) into the short-input state."""
    h = h ^ (_rotl_np(k * np.uint64(_P2), 31) * np.uint64(_P1))
    return _rotl_np(h, 27) * np.uint64(_P1) + np.uint64(_P4)


def _round4(h: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Fold one 4-byte lane ``k`` (uint32 widened to uint64)."""
    h = h ^ (k * np.uint64(_P1))
    return _rotl_np(h, 23) * np.uint64(_P2) + np.uint64(_P3)


def _round1(h: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Fold one byte ``k`` (uint64)."""
    return _rotl_np(h ^ (k * np.uint64(_P5)), 11) * np.uint64(_P1)


def xxh64_fixed8(vals: np.ndarray, seed: int = 0) -> np.ndarray:
    """Vectorized XXH64 of many 8-byte little-endian values (the plain
    encoding of INT64/DOUBLE).  ``vals`` is viewed as uint64."""
    k = np.ascontiguousarray(vals).view(np.uint64).ravel()
    with np.errstate(over="ignore"):
        h = np.full(k.shape, (seed + _P5 + 8) & _M64, dtype=np.uint64)
        return _avalanche_np(_round8(h, k))


def xxh64_fixed4(vals: np.ndarray, seed: int = 0) -> np.ndarray:
    """Vectorized XXH64 of many 4-byte little-endian values (the plain
    encoding of INT32/FLOAT).  ``vals`` is viewed as uint32."""
    k = np.ascontiguousarray(vals).view(np.uint32).ravel().astype(np.uint64)
    with np.errstate(over="ignore"):
        h = np.full(k.shape, (seed + _P5 + 4) & _M64, dtype=np.uint64)
        return _avalanche_np(_round4(h, k))


# The vector rounds cost ~70 us per call whatever the value count, the
# scalar hash ~4 us per 16-byte value: below this many values (a lookup's
# probes, a low-cardinality column's distinct values) the scalar one wins.
_VECTOR_MIN = 16


def xxh64_binary(arr, seed: int = 0) -> np.ndarray:
    """XXH64 (uint64) of every value of an Arrow string, binary,
    large_string or large_binary array, read from its offsets and data
    buffers (a sliced array's offset honoured; a null slot hashes its
    bytes, so callers drop nulls first).

    Values shorter than 32 bytes are hashed together, one length at a
    time: each 8-, 4- and 1-byte lane of that length is one gather
    through an overlapping little-endian window view of the data buffer
    and one vector round, as in :func:`xxh64_fixed8`.  Values of 32 bytes
    or more, and every value of an array shorter than
    :data:`_VECTOR_MIN`, take the scalar :func:`xxh64`."""
    import pyarrow as pa

    t = arr.type
    if pa.types.is_string(t) or pa.types.is_binary(t):
        odt = np.int32
    elif pa.types.is_large_string(t) or pa.types.is_large_binary(t):
        odt = np.int64
    else:
        raise TypeError(f"xxh64_binary: {t} is not a string or binary array")
    n = len(arr)
    _, obuf, dbuf = arr.buffers()
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    offs = np.frombuffer(obuf, dtype=odt, count=n + 1,
                         offset=arr.offset * np.dtype(odt).itemsize)
    data = (np.frombuffer(dbuf, dtype=np.uint8) if dbuf is not None
            else np.empty(0, dtype=np.uint8))
    if n < _VECTOR_MIN:
        o = offs.tolist()
        return np.array([xxh64(data[o[j]:o[j + 1]].tobytes(), seed) for j in range(n)],
                        dtype=np.uint64)
    starts = offs[:-1].astype(np.int64)
    lens = np.diff(offs).astype(np.int64)
    nbytes = len(data)
    # every 8-byte (4-byte) window of the data buffer, one per byte offset
    win8 = np.ndarray((max(0, nbytes - 7),), "<u8", data, 0, (1,))
    win4 = np.ndarray((max(0, nbytes - 3),), "<u4", data, 0, (1,))
    out = np.empty(n, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for length in np.unique(lens[lens < 32]).tolist():
            idx = np.flatnonzero(lens == length)
            s = starts[idx]
            h = np.full(len(idx), (seed + _P5 + length) & _M64, dtype=np.uint64)
            i = 0
            while i + 8 <= length:
                h = _round8(h, win8[s + i])
                i += 8
            if i + 4 <= length:
                h = _round4(h, win4[s + i].astype(np.uint64))
                i += 4
            while i < length:
                h = _round1(h, data[s + i].astype(np.uint64))
                i += 1
            out[idx] = _avalanche_np(h)
    for j in np.flatnonzero(lens >= 32).tolist():
        out[j] = xxh64(data[starts[j]:starts[j] + lens[j]].tobytes(), seed)
    return out


def hash_plain_values(leaf, physical: str) -> np.ndarray:
    """XXH64 hashes (uint64) of an Arrow leaf array's non-null values
    under their parquet PLAIN encodings.  Supported physicals:
    INT32/INT64/FLOAT/DOUBLE (vectorized, plain int/uint/float storage
    only — the width check rejects arrow->numpy conversions that
    change the byte image, e.g. date32 -> datetime64[D]) and
    BYTE_ARRAY (one hash per distinct value, :func:`xxh64_binary`);
    anything else raises (callers validate at the API edge)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    leaf = leaf.combine_chunks() if isinstance(leaf, pa.ChunkedArray) else leaf
    vals = leaf.drop_null()
    if physical in ("INT64", "DOUBLE", "INT32", "FLOAT"):
        width = 8 if physical in ("INT64", "DOUBLE") else 4
        a = np.ascontiguousarray(vals.to_numpy(zero_copy_only=False))
        if a.dtype.kind not in "iuf" or a.dtype.itemsize != width:
            raise ValueError(
                f"bloom: {vals.type} storage does not plain-encode as "
                f"{physical}")
        return (xxh64_fixed8 if width == 8 else xxh64_fixed4)(a)
    if physical == "BYTE_ARRAY":
        return xxh64_binary(pc.unique(vals))
    raise ValueError(
        f"bloom filter unsupported for physical type {physical}")


def hash_probe_values(values: list, physical: str) -> np.ndarray:
    """XXH64 hashes of plain Python probe values under ``physical``'s
    PLAIN encoding — the predicate side of :func:`hash_plain_values`
    (which handles the arrow-array write side)."""
    if physical in ("INT64", "INT32"):
        width = 8 if physical == "INT64" else 4
        try:
            a = np.array(values, dtype=np.int64 if width == 8
                         else np.int32)
            if width == 4 and any(int(v) != int(a[i])
                                  for i, v in enumerate(values)):
                raise OverflowError  # out-of-range int32 probe
        except OverflowError:
            a = np.array(values, dtype=np.uint64 if width == 8
                         else np.uint32)
        return (xxh64_fixed8 if width == 8 else xxh64_fixed4)(a)
    if physical == "DOUBLE":
        return xxh64_fixed8(np.array(values, dtype=np.float64))
    if physical == "FLOAT":
        return xxh64_fixed4(np.array(values, dtype=np.float32))
    if physical == "BYTE_ARRAY":
        import pyarrow as pa

        return xxh64_binary(pa.array(
            [v.encode() if isinstance(v, str) else bytes(v) for v in values],
            pa.binary()))
    raise ValueError(
        f"bloom filter unsupported for physical type {physical}")


def _next_pow2(n: int) -> int:
    return 1 << max(0, (n - 1).bit_length())


class SplitBlockBloom:
    """One split-block bloom filter: ``z`` blocks of eight 32-bit
    words.  ``bitset`` is little-endian on disk; in memory a
    ``(z, 8)`` uint32 array."""

    def __init__(self, num_bytes: int):
        if num_bytes < 32 or num_bytes % 32:
            raise ValueError(f"bitset bytes must be a multiple of 32 "
                             f">= 32, got {num_bytes}")
        self.blocks = np.zeros((num_bytes // 32, 8), dtype=np.uint32)

    @classmethod
    def for_ndv(cls, ndv: int, fpp: float = 0.01) -> "SplitBlockBloom":
        """Size for ``ndv`` distinct values at ~``fpp`` false-positive
        rate.  The standard split-block sizing: c = bits per value =
        1.08 / fpp is conservative; we use the parquet-mr table's
        closed form ``-8 / log(1 - fpp^(1/8))`` bits per value and
        round the bitset up to a power of two (32 B .. 128 MiB)."""
        import math

        bits_per_val = -8.0 / math.log(1.0 - fpp ** (1.0 / 8.0))
        nbytes = _next_pow2(int(max(1, ndv) * bits_per_val / 8.0) or 1)
        return cls(min(max(nbytes, 32), 128 << 20))

    @classmethod
    def from_bytes(cls, raw: bytes) -> "SplitBlockBloom":
        f = cls.__new__(cls)
        f.blocks = np.frombuffer(raw, dtype="<u4").reshape(-1, 8).copy()
        return f

    def tobytes(self) -> bytes:
        return self.blocks.astype("<u4").tobytes()

    def _block_and_masks(self, hashes: np.ndarray):
        h = np.asarray(hashes, dtype=np.uint64)
        z = np.uint64(self.blocks.shape[0])
        with np.errstate(over="ignore"):
            block = (((h >> np.uint64(32)) * z) >> np.uint64(32)).astype(
                np.int64)
            x = h.astype(np.uint32)  # low 32 bits
            # (n, 8): one bit per word, salt-multiplied, top-5-bit index
            shifts = ((x[:, None] * _SALT[None, :]) >> np.uint32(27))
            masks = (np.uint32(1) << shifts).astype(np.uint32)
        return block, masks

    def add_hashes(self, hashes: np.ndarray) -> None:
        block, masks = self._block_and_masks(hashes)
        for w in range(8):
            np.bitwise_or.at(self.blocks[:, w], block, masks[:, w])

    def check_hashes(self, hashes: np.ndarray) -> np.ndarray:
        """Boolean array: True = MAY contain, False = definitely not."""
        block, masks = self._block_and_masks(hashes)
        words = self.blocks[block, :]  # (n, 8)
        return ((words & masks) == masks).all(axis=1)


def encode_bloom_blob(f: SplitBlockBloom) -> bytes:
    """BloomFilterHeader (thrift compact) + bitset, the on-disk layout
    at ``bloom_filter_offset``."""
    from .parquet_writer import _Struct

    bits = f.tobytes()
    header = (_Struct()
              .i32(1, len(bits))                      # numBytes
              .struct(2, _Struct().struct(1, _Struct()))   # BLOCK
              .struct(3, _Struct().struct(1, _Struct()))   # XXHASH
              .struct(4, _Struct().struct(1, _Struct())))  # UNCOMPRESSED
    return header.tobytes() + bits


def read_bloom_filter(path: str, chunk_info, filesystem=None
                      ) -> SplitBlockBloom | None:
    """Read one column chunk's bloom filter via a ranged read, or None
    when the chunk has none.  Validates the header unions: only
    BLOCK + XXHASH + UNCOMPRESSED decode (anything else returns None —
    pruning then keeps the row group, never drops it)."""
    from .parquet_pages import _read_compact_struct, _read_range

    off = getattr(chunk_info, "bloom_filter_offset", None)
    if off is None:
        return None
    length = getattr(chunk_info, "bloom_filter_length", None)
    if length is not None:
        raw = _read_range(path, off, length, filesystem)
    else:
        # header is tiny; over-read it, then read the bitset exactly
        raw = _read_range(path, off, 64, filesystem)
    try:
        header, pos = _read_compact_struct(raw, 0, "BloomFilterHeader")
        nbytes = header[1]
        if (1 not in header.get(2, {}) or 1 not in header.get(3, {})
                or 1 not in header.get(4, {})):
            return None  # unknown algorithm/hash/compression
        if length is None:
            raw = _read_range(path, off, pos + nbytes, filesystem)
        bits = raw[pos:pos + nbytes]
        if len(bits) != nbytes:
            return None
        return SplitBlockBloom.from_bytes(bits)
    except (ValueError, KeyError, IndexError):
        return None


def prune_row_groups_by_bloom(km, preds: list, path: str,
                              filesystem=None,
                              candidates: list[int] | None = None
                              ) -> list[int]:
    """Drop row groups whose bloom filters PROVE a membership predicate
    (``==``, ``in``; `predicates.members`) cannot match — bloom answers
    membership, not ranges.  Missing/foreign filters keep the row
    group — one-sided, never drops a match.  Flat top-level columns
    only (`predicates.leaf_index`)."""
    from .. import predicates as P

    leaves = P.leaf_index(km.schema)
    eq_preds = [(leaves[col][0], P.members(op, v)) for col, op, v in preds
                if col in leaves and P.members(op, v) is not None]
    rgs = range(len(km.row_groups)) if candidates is None else candidates
    if not eq_preds:
        return list(rgs)
    keep = []
    for rg in rgs:
        ok = True
        for ci, values in eq_preds:
            cc = km.row_groups[rg].columns[ci]
            f = read_bloom_filter(path, cc, filesystem)
            if f is None:
                continue
            physical = km.leaves[ci].physical
            try:
                h = hash_probe_values(values, physical)
            except (ValueError, TypeError, OverflowError):
                continue
            if not f.check_hashes(h).any():
                ok = False
                break
        if ok:
            keep.append(rg)
    return keep


# Per-partition manifest Blooms (the blob store's analogue of the
# per-chunk filters above, same hash and block layout): one filter per
# column over the partition's DISTINCT non-null values, stored base64
# in the manifest entry.  Above MAX_DISTINCT distinct values the filter
# stops paying and is skipped.  MANIFEST_FPP sizes a 1,900-key filter
# at 4 KiB.  Entries carry "v"; any other version is ignored, which is
# safe because pruning is one-sided.
MANIFEST_BLOOM_VERSION = 2
MAX_DISTINCT = 65536
MANIFEST_FPP = 0.0024


def build_manifest_bloom(arr) -> dict | None:
    """Manifest Bloom over the distinct non-null values of one Arrow
    column: integers hash as plain INT64, strings as BYTE_ARRAY, and a
    list column covers its FLATTENED elements (``contains`` pruning).
    None for other types and above :data:`MAX_DISTINCT` values."""
    import base64

    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.chunk(0) if arr.num_chunks == 1 else arr.combine_chunks()
    if pa.types.is_list(arr.type) or pa.types.is_large_list(arr.type) or \
            pa.types.is_fixed_size_list(arr.type):
        arr = arr.flatten()
    if pa.types.is_integer(arr.type):
        kind = "int"
    elif pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type):
        kind = "str"
    else:
        return None
    uniq = pc.unique(arr).drop_null()
    if len(uniq) > MAX_DISTINCT:
        return None
    f = SplitBlockBloom.for_ndv(len(uniq), MANIFEST_FPP)
    if len(uniq):
        if kind == "int":
            f.add_hashes(xxh64_fixed8(
                uniq.to_numpy(zero_copy_only=False).astype(np.int64)))
        else:
            f.add_hashes(xxh64_binary(uniq))
    return {"v": MANIFEST_BLOOM_VERSION, "kind": kind,
            "b64": base64.b64encode(f.tobytes()).decode()}


def manifest_probe_hashes(values: list) -> dict:
    """``values`` hashed once for every manifest Bloom kind: ``{"int":
    INT64 hashes, "str": BYTE_ARRAY hashes}``, with None for a kind
    whose type some probe does not match (``"5"`` or ``True`` against
    ``"int"``).  A membership predicate's probes are hashed once per
    read plan and checked against each partition's filter."""
    ints = not any(isinstance(x, bool) or not isinstance(x, (int, np.integer))
                   for x in values)
    return {"int": xxh64_fixed8(np.array([int(x) & _M64 for x in values],
                                         dtype=np.uint64)) if ints else None,
            "str": hash_probe_values(values, "BYTE_ARRAY")
            if all(isinstance(x, str) for x in values) else None}


def manifest_bloom_may_contain(bloom: dict | None, hashes: dict) -> bool:
    """False only when the manifest Bloom PROVES every probe absent;
    ``hashes`` is :func:`manifest_probe_hashes` of the probes.  No
    filter, another version, or probes whose type does not match the
    filter's kind answer True: cross-type equality is the exact
    filter's business."""
    import base64

    if not bloom or bloom.get("v") != MANIFEST_BLOOM_VERSION:
        return True
    h = hashes.get(bloom["kind"])
    if h is None:
        return True
    f = SplitBlockBloom.from_bytes(base64.b64decode(bloom["b64"]))
    return bool(f.check_hashes(h).any())
