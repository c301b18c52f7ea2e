"""Per-partition lineage + metrics manifest with atomic writes and resume.

Our analogue of the reference's footer metadata
(`readMetadata`, `/root/reference/src/Parquet/Reader.hs:197-213`): the
manifest is the authoritative description of what encoded data exists.
Unlike the reference's single monolithic footer, it is one JSON file per
partition, written atomically (temp + rename, or atomic put on object
stores) AFTER the partition's blob is durable — so a killed job leaves
only complete partitions visible and ``finished_ids`` is exactly the
resume filter (north rule: "resumable from checkpoint with per-partition
lineage + metrics").

All paths may be URIs or be paired with an explicit ``pyarrow.fs``
``filesystem=`` (see ``state/fsio.py``) so the same job runs against
shared storage on a multi-node cluster.

Entry fields: partition lineage (input path, row range), row/token counts,
raw vs encoded bytes, per-column codec + stats (min/max/null_count/
cardinality/run-length/entropy — the stats the reference parses but never
produces, `/root/reference/src/Parquet/Types/Primitives.hs:79-87`),
checksum, wall-clock ms.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import asdict

from . import fsio


def blob_path(out_dir: str, partition_id: int) -> str:
    return fsio.join(out_dir, "blobs", f"part-{partition_id:08d}.blob")


def entry_path(out_dir: str, partition_id: int) -> str:
    return fsio.join(out_dir, "manifest", f"part-{partition_id:08d}.json")


def ensure_dirs(out_dir: str, filesystem=None) -> None:
    fsio.mkdirs(fsio.join(out_dir, "blobs"), filesystem)
    fsio.mkdirs(fsio.join(out_dir, "manifest"), filesystem)


def write_blob_atomic(out_dir: str, partition_id: int, blob: bytes, filesystem=None) -> str:
    """Idempotent under retries: content is deterministic per partition and
    the write is atomic-visible (rename locally, put on object stores)."""
    path = blob_path(out_dir, partition_id)
    fsio.write_atomic(path, blob, filesystem)
    return path


def read_blob(out_dir: str, partition_id: int, filesystem=None,
              crc32: int | None = None) -> bytes:
    """The one blob reader. ``crc32`` is the manifest entry's
    ``checksum_crc32``: when given and >= 0 the blob must match it, so a
    torn, truncated or bit-flipped blob fails loudly instead of decoding
    to wrong values (a codec payload flip can decode without error)."""
    blob = fsio.read_bytes(blob_path(out_dir, partition_id), filesystem)
    if crc32 is not None and crc32 >= 0 and zlib.crc32(blob) != crc32:
        raise ValueError(
            f"partition {partition_id}: blob checksum mismatch (corrupt or "
            f"partially written blob; manifest crc32={crc32})")
    return blob


def write_entry(out_dir: str, entry: dict, filesystem=None) -> str:
    path = entry_path(out_dir, entry["partition_id"])
    fsio.write_atomic(path, json.dumps(entry).encode(), filesystem)
    return path


def make_entry(partition, blob: bytes, raw_bytes: int, n_rows: int, n_tokens: int,
               col_stats: dict, wall_ms: float) -> dict:
    return {
        "partition_id": partition.partition_id,
        "input_path": partition.path,
        "row_start": partition.row_start,
        "row_count": n_rows,
        "n_tokens": int(n_tokens),
        "raw_bytes": int(raw_bytes),
        "encoded_bytes": len(blob),
        "checksum_crc32": zlib.crc32(blob),
        "wall_ms": round(wall_ms, 2),
        "columns": {
            name: {k: v for k, v in asdict(st).items() if v is not None}
            for name, st in col_stats.items()
        },
        "status": "done",
    }


def load_manifest(out_dir: str, filesystem=None) -> list[dict]:
    """All entries: compacted ``compact-*.jsonl`` files first, then loose
    per-partition JSONs — loose wins on partition_id collisions (a
    partition re-encoded after a compaction must override its compacted
    row; entries are deterministic so ties are equal anyway)."""
    mdir = fsio.join(out_dir, "manifest")
    by_id: dict[int, dict] = {}
    names = fsio.list_files(mdir, filesystem)
    for fn in names:
        if fn.startswith("compact-") and fn.endswith(".jsonl"):
            try:
                for line in fsio.read_bytes(fsio.join(mdir, fn),
                                            filesystem).splitlines():
                    if line.strip():
                        e = json.loads(line)
                        by_id[e["partition_id"]] = e
            except (json.JSONDecodeError, OSError):
                continue
    for fn in names:
        if fn.endswith(".json"):
            try:
                e = json.loads(fsio.read_bytes(fsio.join(mdir, fn), filesystem))
                by_id[e["partition_id"]] = e
            except (json.JSONDecodeError, OSError):
                # torn/zero-length entry from a crash mid-write: treat the
                # partition as unfinished (it will be re-encoded) rather
                # than failing the whole resume
                continue
    return [by_id[k] for k in sorted(by_id)]


def compact_manifest(out_dir: str, filesystem=None) -> dict:
    """Merge all manifest state into ONE ``compact-<n>.jsonl`` file and
    delete the merged sources — at 10^6 partitions the per-partition JSON
    listing becomes the resume/decode bottleneck; after compaction the
    loader reads one file plus whatever landed since.

    Crash-safe by ordering: the new compacted file is written atomically
    FIRST; only then are the merged loose entries and older compacted
    files deleted.  A crash between the two steps leaves duplicates,
    which ``load_manifest`` dedupes by partition_id (loose wins).  New
    encodes keep appending loose entries; re-compact any time."""
    mdir = fsio.join(out_dir, "manifest")
    names = fsio.list_files(mdir, filesystem)
    loose = [n for n in names if n.endswith(".json")]
    old_compact = [n for n in names if n.startswith("compact-")
                   and n.endswith(".jsonl")]
    entries = load_manifest(out_dir, filesystem)
    if not entries:
        return {"entries": 0, "merged_files": 0, "compacted_file": None}
    next_idx = 1 + max([int(n[len("compact-"):-len(".jsonl")])
                        for n in old_compact if
                        n[len("compact-"):-len(".jsonl")].isdigit()] or [0])
    target = f"compact-{next_idx:06d}.jsonl"
    payload = b"\n".join(json.dumps(e).encode() for e in entries) + b"\n"
    fsio.write_atomic(fsio.join(mdir, target), payload, filesystem)
    for n in loose + old_compact:
        fsio.delete_file(fsio.join(mdir, n), filesystem)
    return {"entries": len(entries), "merged_files": len(loose) + len(old_compact),
            "compacted_file": target}


def finished_entries(out_dir: str, filesystem=None) -> list[dict]:
    """The entries whose blob exists too: one manifest load, one listing."""
    blob_names = set(fsio.list_files(fsio.join(out_dir, "blobs"), filesystem))
    return [e for e in load_manifest(out_dir, filesystem)
            if f"part-{e['partition_id']:08d}.blob" in blob_names]


def finished_ids(out_dir: str, filesystem=None) -> set[int]:
    """Partitions whose manifest entry AND blob both exist."""
    return {e["partition_id"] for e in finished_entries(out_dir, filesystem)}


def summary(out_dir: str, filesystem=None) -> dict:
    entries = load_manifest(out_dir, filesystem)
    return {
        "partitions": len(entries),
        "rows": sum(e["row_count"] for e in entries),
        "tokens": sum(e["n_tokens"] for e in entries),
        "raw_bytes": sum(e["raw_bytes"] for e in entries),
        "encoded_bytes": sum(e["encoded_bytes"] for e in entries),
        "wall_ms_sum": round(sum(e["wall_ms"] for e in entries), 1),
    }
