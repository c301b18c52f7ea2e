"""Named snapshots: read-time travel for an encoded store.

``create_snapshot(out_dir, name)`` pins the store's CURRENT visible
state into ``snapshots/<name>.json``: the finished partition ids with
their blob crc32s, plus an inline copy of every deletion vector
(``state/deletes.py`` sidecars are tiny — sorted positions — so the
snapshot is self-contained even though later deletes mutate the live
sidecars by union).  ``decode_dataset(snapshot=name)`` then reproduces
exactly the rows visible at snapshot time:

- partitions encoded/appended AFTER the snapshot are invisible;
- deletes issued AFTER the snapshot are ignored (the snapshot's own
  vector copies are applied instead);
- a blob whose crc32 changed since the snapshot FAILS the decode
  (blobs are immutable by contract — temp+rename, deterministic
  content — so a mismatch means the store was rebuilt under the
  snapshot and the historical rows are unrecoverable: refuse, never
  guess).

This is the Iceberg/Delta snapshot-read design scoped to this store's
immutable-blob + deletion-vector layout; the reference format has no
multi-version story (parquet-hs reads one static footer,
src/Parquet/Reader.hs).  Snapshot files are written temp+rename on any
``pyarrow.fs`` filesystem.
"""

from __future__ import annotations

import base64
import json

import numpy as np

from . import deletes as dvs
from . import fsio
from . import manifest as mf


def snapshot_path(out_dir: str, name: str) -> str:
    return fsio.join(out_dir, "snapshots", f"{name}.json")


def create_snapshot(out_dir: str, name: str, filesystem=None) -> dict:
    """Record the current visible state.  Returns the snapshot dict."""
    if not name or "/" in name or name.startswith("."):
        raise ValueError(f"bad snapshot name {name!r}")
    deleted = dvs.list_delete_pids(out_dir, filesystem)
    parts = []
    for e in mf.load_manifest(out_dir, filesystem):
        pid = int(e["partition_id"])
        rec = {"partition_id": pid, "crc32": e.get("checksum_crc32", -1)}
        if pid in deleted:
            dv = dvs.read_delete_vector(out_dir, pid, filesystem)
            if dv is not None and len(dv):
                rec["deletes_b64"] = base64.b64encode(
                    dvs.encode_delete_vector(dv)).decode("ascii")
        parts.append(rec)
    snap = {"name": name, "partitions": parts}
    fsio.mkdirs(fsio.join(out_dir, "snapshots"), filesystem)
    # durable: a snapshot is a user-visible commit point with no
    # reader-side way to detect a power-crash-reverted rename (unlike
    # blobs, whose crc32 lives in the manifest) — fsync unconditionally.
    fsio.write_atomic(snapshot_path(out_dir, name),
                      json.dumps(snap).encode(), filesystem, durable=True)
    return snap


def load_snapshot(out_dir: str, name: str, filesystem=None) -> dict:
    path = snapshot_path(out_dir, name)
    if not fsio.exists(path, filesystem):
        raise FileNotFoundError(f"no snapshot {name!r} in {out_dir}")
    return json.loads(fsio.read_bytes(path, filesystem))


def list_snapshots(out_dir: str, filesystem=None) -> list[str]:
    sdir = fsio.join(out_dir, "snapshots")
    if not fsio.exists(sdir, filesystem):
        return []
    return sorted(fn[:-5] for fn in fsio.list_files(sdir, filesystem)
                  if fn.endswith(".json"))


def snapshot_delete_vectors(snap: dict) -> dict[int, np.ndarray]:
    """pid -> deleted positions recorded in the snapshot."""
    out: dict[int, np.ndarray] = {}
    for rec in snap["partitions"]:
        b64 = rec.get("deletes_b64")
        if b64:
            out[int(rec["partition_id"])] = dvs.decode_delete_vector(
                base64.b64decode(b64))
    return out
