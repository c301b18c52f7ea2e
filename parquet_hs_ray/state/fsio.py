"""Filesystem abstraction for blob/manifest/plan IO.

The reference reads remote inputs natively (HTTP range requests,
`/root/reference/src/Parquet/Reader.hs:223-248`); our engine's own encoded
format must likewise work on shared storage — on a multi-node cluster,
workers cannot read each other's local disks. Every state-layer path can
be either a plain local path, a URI (``file://``, ``s3://``, ``mock://`` …
— anything ``pyarrow.fs.FileSystem.from_uri`` resolves), or an explicit
``pyarrow.fs.FileSystem`` object passed alongside a path (the form tests
use with ``SubTreeFileSystem`` / ``_MockFileSystem``).

Durability model per filesystem kind:

- **LocalFileSystem** — temp file + fsync + atomic rename (POSIX crash
  safety; a killed job leaves only complete files visible).
- **anything else** — single-stream direct write. Object stores make a put
  visible atomically on close; for filesystems where that does not hold,
  resume is still safe because the manifest entry is written strictly
  AFTER its blob and ``load_manifest`` skips torn JSON, so a partial blob
  without a (complete) entry is simply re-encoded.

Filesystem objects are pickled into Ray actor/task closures — pyarrow
filesystems serialize by construction parameters, so each worker
reconnects rather than sharing handles.
"""

from __future__ import annotations

import os as _os
import posixpath

import pyarrow.fs as pafs


def _parse_kill_spec() -> tuple[str, int] | None:
    """Crash-injection hook for the kill -9 resume drives
    (tests/test_incremental_kill.py): ``PHR_TEST_KILL_AFTER_WRITE=
    "<path-substring>:<pid>"`` makes :func:`write_atomic` SIGKILL
    ``<pid>`` (the job driver) right after a local write whose path
    contains the fragment completes — a crash at exactly that commit
    boundary.  Parsed ONCE at import so the durability-critical write
    path pays no per-call env lookup and a malformed value fails here,
    loudly, not inside a production write."""
    spec = _os.environ.get("PHR_TEST_KILL_AFTER_WRITE")
    if not spec:
        return None
    frag, _, pid = spec.rpartition(":")
    if not frag or not pid.isdigit():
        raise ValueError(
            f"PHR_TEST_KILL_AFTER_WRITE must be '<frag>:<pid>', got {spec!r}")
    return frag, int(pid)


_KILL_AFTER_WRITE = _parse_kill_spec()


def resolve(path: str, filesystem: pafs.FileSystem | None = None) -> tuple[pafs.FileSystem, str]:
    """Resolve (path, optional fs) -> (fs, fs-internal path).

    Precedence: explicit ``filesystem`` > URI scheme in ``path`` > local.
    """
    if filesystem is not None:
        return filesystem, path
    if "://" in path:
        fs, p = pafs.FileSystem.from_uri(path)
        return fs, p
    return pafs.LocalFileSystem(), path


def join(base: str, *parts: str) -> str:
    """Path join that is correct for both local (linux) and URI paths."""
    return posixpath.join(base, *parts)


def is_local(fs: pafs.FileSystem) -> bool:
    return isinstance(fs, pafs.LocalFileSystem)


def mkdirs(path: str, filesystem: pafs.FileSystem | None = None) -> None:
    fs, p = resolve(path, filesystem)
    fs.create_dir(p, recursive=True)


def write_atomic(path: str, data: bytes, filesystem: pafs.FileSystem | None = None,
                 durable: bool = False) -> None:
    """Atomic-visible write: temp+rename on local, direct put elsewhere.

    Local fsync on the BLOB hot path is OPT-IN (``PHR_LOCAL_FSYNC=1``),
    not the default: rename alone already makes the write atomic against
    PROCESS crashes (the kill -9 / resume contract), and a kernel/power
    crash that tears a renamed blob is caught at read time by the
    manifest's crc32 (``manifest.read_blob`` verifies it on every read
    and the torn partition re-encodes).  The default matters for throughput:
    concurrent fsyncs serialize on the journal — measured 34% of the
    encode job's wall on the bench host — and the scale deployment
    writes to object stores, where close() is the commit and fsync
    doesn't exist.

    ``durable=True`` forces the fsync regardless of the env toggle.  It
    exists for SMALL state files whose loss is NOT caught by the
    manifest-crc32 safety net: deletion vectors and snapshots.  A
    power-crash that reverts a renamed-but-unflushed ``del-*.bin`` would
    silently resurrect acknowledged DELETEs — there is no reader-side
    checksum of *absence* — so those writes pay the (tiny, off-hot-path)
    fsync unconditionally."""
    fs, p = resolve(path, filesystem)
    if is_local(fs):
        import os

        tmp = f"{p}.tmp.{os.getpid()}"
        with open(tmp, "wb") as f:
            f.write(data)
            if durable or os.environ.get("PHR_LOCAL_FSYNC", "0") == "1":
                f.flush()
                os.fsync(f.fileno())
        os.replace(tmp, p)
        if _KILL_AFTER_WRITE is not None and _KILL_AFTER_WRITE[0] in p:
            import signal

            os.kill(_KILL_AFTER_WRITE[1], signal.SIGKILL)  # see _parse_kill_spec
    else:
        with fs.open_output_stream(p) as f:
            f.write(data)


def read_bytes(path: str, filesystem: pafs.FileSystem | None = None) -> bytes:
    fs, p = resolve(path, filesystem)
    with fs.open_input_stream(p) as f:
        return f.read()


def exists(path: str, filesystem: pafs.FileSystem | None = None) -> bool:
    fs, p = resolve(path, filesystem)
    return fs.get_file_info(p).type != pafs.FileType.NotFound


def list_files(dir_path: str, filesystem: pafs.FileSystem | None = None) -> list[str]:
    """Base names of regular files directly under ``dir_path`` (sorted);
    empty if the directory does not exist."""
    fs, p = resolve(dir_path, filesystem)
    try:
        infos = fs.get_file_info(pafs.FileSelector(p, recursive=False))
    except (FileNotFoundError, OSError):
        return []
    return sorted(posixpath.basename(i.path) for i in infos if i.type == pafs.FileType.File)


def open_parquet_input(path: str, filesystem: pafs.FileSystem | None = None):
    """A source usable as ``pyarrow.parquet.ParquetFile(...)`` input: the
    plain path for local files (mmap-friendly), a random-access file
    handle for remote ones."""
    fs, p = resolve(path, filesystem)
    if is_local(fs):
        return p
    return fs.open_input_file(p)


class file_lock:
    """Advisory per-path lock for read-modify-write merges (deletion
    vectors, incremental-dedup buckets).  Local filesystems get a real
    mutual-exclusion lock: ``flock(LOCK_EX)`` on ``<path>.lock``.  The
    kernel releases a flock when its holder dies (fd closed at process
    exit, kill -9 included), so there is no staleness window and no
    stale-break race — the previous ``O_CREAT|O_EXCL`` + age-based break
    had a stat-then-unlink TOCTOU where two waiters could both "break"
    one stale lock and the second would unlink the first's fresh lock.
    The lock FILE is never unlinked (unlink-while-locked would let a
    third process lock a fresh inode at the same path while the second
    still holds the old one); an empty ``.lock`` file persisting next to
    the state is expected.  Non-local filesystems are a documented
    no-op — object stores lack an atomic lock primitive, so concurrent
    mergers there must be prevented by the JOB layer (one delete job per store at a
    time; the driver-side ``delete_rows`` entry point is single-writer
    by construction)."""

    def __init__(self, path: str, filesystem: pafs.FileSystem | None = None,
                 timeout: float = 30.0):
        self.fs, self.p = resolve(path, filesystem)
        self.timeout = timeout
        self._fd = None

    def __enter__(self):
        if not is_local(self.fs):
            return self
        import fcntl
        import os
        import time

        lock = f"{self.p}.lock"
        fd = os.open(lock, os.O_CREAT | os.O_RDWR, 0o644)
        deadline = time.monotonic() + self.timeout
        while True:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                self._fd = fd
                return self
            except (BlockingIOError, PermissionError):
                if time.monotonic() > deadline:
                    os.close(fd)
                    raise TimeoutError(f"could not acquire {lock}")
                time.sleep(0.02)

    def __exit__(self, *exc):
        if self._fd is not None:
            import fcntl
            import os

            fcntl.flock(self._fd, fcntl.LOCK_UN)
            os.close(self._fd)
            self._fd = None
        return False


def delete_file(path: str, filesystem: pafs.FileSystem | None = None) -> None:
    """Delete one file; missing files are a no-op (idempotent cleanup)."""
    fs, p = resolve(path, filesystem)
    try:
        fs.delete_file(p)
    except (FileNotFoundError, OSError):
        pass
