"""Token-store benchmark: blob write, blob read and kernel-Parquet read.

    python3 perfbench/run.py --workload blob_read --seed 3 --seconds 14 --trace 0

Run from the repository root. Each run pins itself to one CPU, starts
a local Ray session with one CPU slot under ``.pbwork/``, generates its
inputs from ``--seed`` with
``parquet_hs_ray.sources.synth.gen_batch``, sets up (several times; the
median counts), then runs one closed-loop client for ``--seconds``
seconds. Every op's output is checked against the source table
(``oracle.py``). Op times have hypervisor steal taken out (``timed``)
and are scaled to reference host speed (``HostClock``); the measured
figures are in the detail line. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is a ``{"detail": ...}`` object with provenance and diagnostics.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs a fixed
op program through Ray, replays it in-process with spans around each
layer's public functions (``tracing.py``), and reports per-layer
metrics; spans go to ``.pbtrace/``. See NOTES.md for the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
if __name__ == "__main__":
    sys.modules.setdefault("run", sys.modules[__name__])  # one module for traced.py too
WORK = os.path.join(ROOT, ".pbwork")
TRACE_OUT = os.path.join(ROOT, ".pbtrace")

# Input sizes in tokens, tuned so one run (set-up + 14 s of ops) takes
# about 37 s on one CPU.
BLOB_WRITE = dict(tokens=6_400_000, files=4, skew=True)
BLOB_READ = dict(tokens=6_400_000, files=4, skew=False)
PARQUET_READ = dict(tokens=2_400_000, files=4, skew=False, row_group=256, page_rows=64)
FILL_SLACK = 2048  # tokens an input file may fall short of its share
FILE_ROW_STRIDE = 1 << 20  # doc_id numbering: file f starts at row f * stride
INPUT_ROW_GROUP = 512  # row groups of the encode job's input files
SETUP_REPS = 4
MIN_ROUNDS = 3
ABSENT_SHARE = 0.1
TRACE_LOOKUPS = 20
WARM_LOOKUPS = 5
FLOOR_REPS = 3
LOOKUP_COLS = ["doc_id", "tokens"]
CAL_REF_S = 0.0075  # HostClock kernel median on the reference host (NOTES.md)
STEAL_CPU = None  # the CPU a run is pinned to, once main() has pinned it


def _quiet_worker_logs() -> None:
    """Ray worker setup hook: Ray Data logs a schema-hash warning from
    read tasks; keep stdout machine-parseable."""
    import logging

    logging.getLogger("ray.data._internal.arrow_ops.transform_pyarrow").setLevel(logging.ERROR)


def steal_s() -> float:
    """Seconds the hypervisor has kept the pinned CPU from running while
    it had work (the steal column of ``/proc/stat``, in 10 ms ticks)."""
    if STEAL_CPU is None:
        return 0.0
    try:
        with open("/proc/stat") as fh:
            for line in fh:
                if line.startswith(f"cpu{STEAL_CPU} "):
                    return int(line.split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        pass
    return 0.0


def timed(fn):
    """``(fn(), seconds, steal)``: ``seconds`` is the wall time minus the
    steal on the pinned CPU meanwhile. Every process of a run shares that
    one CPU, so this is the time the same host would take with its CPU to
    itself. A shared host takes the CPU away for spells of tens of ms to
    seconds, which would otherwise move every figure with its load."""
    s0 = steal_s()
    t0 = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - t0
    st = steal_s() - s0
    return out, max(0.0, wall - st), st


class HostClock:
    """How fast the host runs during the timed ops of one run, so that op
    times can be reported at reference speed.

    A shared host runs the same code 10-30 % slower for minutes at a
    time with little steal: the CPU is slowed, not taken away, and every
    op of a run slows by about the same factor. So before every timed op
    this times a fixed calibration kernel -- a numpy sort, zlib
    compression and a dict loop, none of it the package's code -- on the
    run's one CPU. Op times are reported multiplied by ``scale()``:
    ``CAL_REF_S`` over the run's median kernel time. Over ten runs per
    workload this narrowed the spread across runs of 7 of the 9 scaled
    figures, most by half or more (NOTES.md); the measured times are in
    the detail line. Set-up is not scaled: kernel samples between set-up
    steps did not follow it."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.ints = rng.integers(0, 1 << 30, 1 << 16, dtype=np.int64)
        self.blob = rng.integers(0, 64, 1 << 16, dtype=np.uint8).tobytes()
        self.samples: list[float] = []

    def _kernel(self) -> None:
        import zlib

        import numpy as np

        np.sort(self.ints)
        zlib.compress(self.blob, 6)
        d: dict[int, int] = {}
        for i in range(15000):
            d[i % 977] = d.get(i % 977, 0) + i

    def sample(self) -> None:
        self.samples.append(timed(self._kernel)[1])

    def scale(self) -> float:
        """Reference seconds per measured second."""
        return CAL_REF_S / _median(self.samples)


def _median(xs):
    """Harrell-Davis estimate of the median: a Beta((n+1)/2, (n+1)/2)
    weighted average of all order statistics. Ray Data's executor polls
    in ~10 ms steps, so op times cluster on a grid; the plain median then
    jumps a whole step between runs, this estimate moves smoothly."""
    import numpy as np

    x = np.sort(np.asarray(xs, dtype=float))
    n = len(x)
    if n < 2:
        return float(x[0]) if n else float("nan")
    a = (n + 1) / 2
    p = np.linspace(0.0, 1.0, 20001)
    mid = (p[1:] + p[:-1]) / 2
    logpdf = (a - 1) * (np.log(mid) + np.log1p(-mid))
    cdf = np.concatenate([[0.0], np.cumsum(np.exp(logpdf - logpdf.max()))])
    cdf /= cdf[-1]
    w = np.diff(np.interp(np.arange(n + 1) / n, p, cdf))
    return float(w @ x)


# ------------------------------------------------------------------ Ray

def start_ray() -> float:
    import logging

    import ray

    os.makedirs(WORK, exist_ok=True)
    temp = os.path.join(WORK, "r")
    # Ray puts unix sockets under <temp>/session_<stamp>/sockets/, and a
    # socket path may not exceed 107 bytes; keep Ray's default otherwise
    kw = {"_temp_dir": temp} if len(temp) <= 40 else {}
    env = {"MALLOC_MMAP_MAX_": "0", "MALLOC_TRIM_THRESHOLD_": "-1", "PYTHONPATH": ROOT}
    t0 = time.perf_counter()
    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=300 * 1024 * 1024,
             runtime_env={"env_vars": env, "worker_process_setup_hook": _quiet_worker_logs},
             **kw)
    import ray.data

    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    _quiet_worker_logs()
    return time.perf_counter() - t0


def _descendants(pid: int) -> list[int]:
    kids: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        kids.setdefault(ppid, []).append(int(d))
    out, todo = [], [pid]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Sum of VmHWM over this driver and its Ray worker processes."""
    total = _status_kb(os.getpid(), "VmHWM")
    for pid in _descendants(os.getpid()):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                cmd = fh.read()
        except OSError:
            continue
        if cmd.startswith(b"ray::") or b"default_worker.py" in cmd:
            total += _status_kb(pid, "VmHWM")
    return total / 1024


def stop_ray() -> None:
    """Shut Ray down and wait until every process this run started has
    ended (killing stragglers after a grace period)."""
    import ray

    session = None
    if ray.is_initialized():
        session = ray._private.worker._global_node.get_session_dir_path()
        ray.shutdown()
    deadline = time.time() + 15
    while True:
        left = _descendants(os.getpid())
        if not left:
            break
        if time.time() > deadline:
            for pid in left:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        time.sleep(0.2)
        for pid in left:
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass
    if session and session.startswith(WORK + os.sep):
        shutil.rmtree(session, ignore_errors=True)


# ------------------------------------------------------------ workloads

def _tokens(tbl) -> int:
    import pyarrow.compute as pc

    return int(pc.sum(pc.list_value_length(tbl["tokens"])).as_py())


def _gen_tables(tokens: int, files: int, seed: int, skew: bool) -> list:
    """``files`` tables of ``gen_batch`` rows holding ``tokens / files``
    tokens each, to within ``FILL_SLACK``: rows are taken in order while
    they fit, and a row that would overflow the share is skipped. A fixed
    row count would let the seed move the input by up to 15 % (F1-skew
    rows are 100x long), and every timing with it."""
    from parquet_hs_ray.sources.synth import gen_batch

    out = []
    for f in range(files):
        parts, room, start = [], tokens // files, f * FILE_ROW_STRIDE
        while room >= FILL_SLACK:
            # a chunk of about the rows still needed (a row averages ~840
            # tokens, ~1700 with skew), keyed by its first row
            rows = max(64, room // 1000)
            tbl = gen_batch(rows, seed=seed, start_row=start, skew=skew)
            keep = []
            for i, n in enumerate(tbl["n_tok"].to_pylist()):
                if n <= room:
                    keep.append(i)
                    room -= n
                    if room < FILL_SLACK:
                        break
            parts.append(tbl.take(keep))
            start += rows
        out.append(_concat(parts))
    return out


def _dir_bytes(d: str, suffix: str = "") -> int:
    return sum(e.stat().st_size for e in os.scandir(d) if e.name.endswith(suffix))


def _concat(batches):
    import pyarrow as pa

    return pa.concat_tables(batches) if batches else pa.table({})


class BlobStore:
    """Ops on an encoded blob store (``pipelines.encode_job``)."""

    def scan(self, store: str):
        from parquet_hs_ray.pipelines import encode_job

        ds = encode_job.decode_dataset(store)
        return list(ds.iter_batches(batch_format="pyarrow", batch_size=None))

    def lookup(self, store: str, key: str):
        from parquet_hs_ray.pipelines import encode_job

        return encode_job.decode_dataset(
            store, columns=LOOKUP_COLS, predicate=("doc_id", "==", key)).take_all()

    def stored_bytes(self, store: str) -> int:
        return _dir_bytes(os.path.join(store, "blobs"))


class KernelStore:
    """Ops on a kernel-written Parquet directory (``sources.kernel_sink``)."""

    def __init__(self):
        self.call_s: list[float] = []  # wall of the read_parquet_kernels call itself

    def _read(self, store: str, **kw):
        from parquet_hs_ray.sources import kernel_sink

        t0 = time.perf_counter()
        ds = kernel_sink.read_parquet_kernels(store, footer="kernels", **kw)
        self.call_s.append(time.perf_counter() - t0)
        return ds

    def scan(self, store: str):
        return list(self._read(store).iter_batches(batch_format="pyarrow", batch_size=None))

    def lookup(self, store: str, key: str):
        return self._read(store, columns=LOOKUP_COLS, predicate=("doc_id", "==", key)).take_all()

    def stored_bytes(self, store: str) -> int:
        return _dir_bytes(store, ".parquet")


class Workload:
    """One workload: how set-up generates the input and builds the store,
    and whether each round reads back the store it has just written."""

    name = ""
    sizes: dict = {}
    reads_back = False  # True: a round reads its fresh store, not the set-up one
    scans_per_round = 1
    lookups_per_round = 10

    def __init__(self, seed: int, run_dir: str):
        self.seed = seed
        self.run_dir = run_dir
        self.n_files = self.sizes["files"]
        self.store_ops = BlobStore()

    def prepare(self, rep_dir: str) -> float:
        """Generate the input and build the store once, under ``rep_dir``;
        returns the seconds the build (the write) took."""
        self.generate(rep_dir)
        self.store = os.path.join(rep_dir, "store")
        res, secs, _ = timed(lambda: self.build(self.store))
        why = self.check_build(res)
        if why:
            raise RuntimeError(f"set-up build failed: {why}")
        return secs


class BlobWrite(Workload):
    name = "blob_write"
    sizes = BLOB_WRITE
    reads_back = True
    scans_per_round = 2  # a blob scan costs about three lookups
    lookups_per_round = 5  # an encode costs about ten lookups

    def generate(self, rep_dir):
        import pyarrow.parquet as pq

        self.in_dir = os.path.join(rep_dir, "in")
        os.makedirs(self.in_dir)
        tables = _gen_tables(self.sizes["tokens"], self.n_files, self.seed, self.sizes["skew"])
        for i, t in enumerate(tables):
            pq.write_table(t, os.path.join(self.in_dir, f"part-{i:05d}.parquet"),
                           row_group_size=INPUT_ROW_GROUP)
        self.source = _concat(tables)

    def build(self, out_dir):
        from parquet_hs_ray.pipelines import encode_job

        return encode_job.encode_dataset(self.in_dir, out_dir)

    def check_build(self, res):
        return None if res.get("encoded") == res.get("planned") else f"encode result {res}"


class BlobRead(BlobWrite):
    name = "blob_read"
    sizes = BLOB_READ
    reads_back = False
    scans_per_round = 3
    lookups_per_round = 10


class ParquetRead(Workload):
    name = "parquet_read"
    sizes = PARQUET_READ
    lookups_per_round = 5  # a kernel scan costs about ten lookups

    def __init__(self, seed, run_dir):
        super().__init__(seed, run_dir)
        self.store_ops = KernelStore()

    def writer_kwargs(self) -> dict:
        return dict(compression="NONE", row_group_size=self.sizes["row_group"],
                    data_page_rows=self.sizes["page_rows"], bloom_filters=["doc_id"])

    def generate(self, rep_dir):
        self.tables = _gen_tables(self.sizes["tokens"], self.n_files, self.seed, self.sizes["skew"])
        self.source = _concat(self.tables)

    def build(self, out_dir):
        import ray.data

        from parquet_hs_ray.sources import kernel_sink

        return kernel_sink.write_parquet_kernels(ray.data.from_arrow(self.tables), out_dir,
                                                 **self.writer_kwargs())

    def check_build(self, manifest):
        rows = manifest.get("rows")
        return None if rows == self.source.num_rows else f"kernel write committed {rows} rows"


WORKLOADS = {w.name: w for w in (BlobWrite, BlobRead, ParquetRead)}


# ------------------------------------------------------------------ ops

class Client:
    """The closed-loop client: runs ops, checks every output."""

    def __init__(self, wl: Workload, log, seed: int, clock: HostClock | None = None):
        import numpy as np

        from oracle import check_table, source_row

        self.wl = wl
        self.log = log
        self.clock = clock
        self.seconds: dict[str, list[float]] = {}  # per kind, steal taken out
        self.steal: dict[str, float] = {}
        self.rng = np.random.default_rng((seed, 0x10C))
        keys = wl.source["doc_id"].to_pylist()
        self.keys = keys
        self.index = {k: i for i, k in enumerate(keys)}
        self.check_table = lambda batches: check_table(wl.source, _concat(batches))
        self.expected = lambda k: source_row(wl.source, self.index, k, LOOKUP_COLS)
        self.rows_returned = 0

    def next_key(self) -> str:
        k = self.keys[int(self.rng.integers(len(self.keys)))]
        # an absent key sorts between two present ones, so min/max stats
        # cannot rule it out
        return k + "~" if self.rng.random() < ABSENT_SHARE else k

    def write(self, out_dir: str, build=None):
        """Build a store at ``out_dir`` (``build`` replaces the workload's
        own build call, for an in-process replay)."""
        return self._run("write", build or (lambda: self.wl.build(out_dir)), self.wl.check_build)

    def scan(self, store: str):
        return self._run("scan", lambda: self.wl.store_ops.scan(store), self.check_table)

    def lookup(self, store: str, key: str | None = None):
        from oracle import check_lookup

        key = key or self.next_key()
        want = self.expected(key)

        def check(rows):
            self.rows_returned += len(rows)
            return check_lookup(want, rows)

        return self._run("lookup", lambda: self.wl.store_ops.lookup(store, key), check)

    def _run(self, kind: str, fn, check):
        """Run and check one op; its seconds with steal taken out, or None
        when it failed."""
        stolen = []
        if self.clock:
            self.clock.sample()

        def op():
            out, _, st = timed(fn)
            stolen.append(st)
            return out

        wall = self.log.run(kind, op, check)
        if wall is None:
            return None
        self.steal[kind] = self.steal.get(kind, 0.0) + stolen[0]
        secs = max(0.0, wall - stolen[0])
        self.seconds.setdefault(kind, []).append(secs)
        return secs


def run_rounds(wl: Workload, client: Client, seconds: float) -> int:
    """Closed loop for ``seconds``: each round is a write into a fresh
    store, then a few full scans and a batch of lookups (on that store
    for blob_write, on the set-up store otherwise)."""
    deadline = time.perf_counter() + seconds
    rounds = 0
    prev = None
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        fresh = os.path.join(wl.run_dir, f"out{rounds}")
        client.write(fresh)
        if prev:
            shutil.rmtree(prev, ignore_errors=True)
        prev = fresh
        store = fresh if wl.reads_back else wl.store
        for _ in range(wl.scans_per_round):
            client.scan(store)
        for _ in range(wl.lookups_per_round):
            client.lookup(store)
        rounds += 1
    return rounds


# ------------------------------------------------------------- metrics

def tail(xs: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with at least ten
    samples beyond it."""
    xs = sorted(xs)
    n = len(xs)
    if n < 11:
        return xs[-1] if xs else float("nan"), 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def reference_sizes(tbl) -> dict:
    import pyarrow as pa
    import pyarrow.parquet as pq

    out = {}
    for codec in ("NONE", "SNAPPY"):
        sink = pa.BufferOutputStream()
        pq.write_table(tbl, sink, compression=codec, use_dictionary=True)
        out[codec] = sink.getvalue().size
    return out


def provenance(wl: Workload, seed: int) -> dict:
    import numpy as np
    import pyarrow as pa
    import ray

    commit = None
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
        # only this checkout's own history, never an enclosing repository's
        if len(out) == 2 and os.path.realpath(out[0]) == os.path.realpath(ROOT):
            commit = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {"nproc": os.cpu_count(), "pinned_cpus": sorted(os.sched_getaffinity(0)), "python": platform.python_version(),
            "ray": ray.__version__, "pyarrow": pa.__version__, "numpy": np.__version__,
            "git_commit": commit, "seed": seed, "workload": wl.name,
            "input_rows": wl.source.num_rows, "input_tokens": _tokens(wl.source),
            "input_bytes": wl.source.nbytes, "input_files": wl.n_files}


# --------------------------------------------------------------- set-up

def setup(wl: Workload) -> dict:
    """Ray init once, then generate + build ``SETUP_REPS`` times. The
    first rep pays cold-worker costs; the median is reported. Times have
    steal taken out (``timed``)."""
    _, ray_s, steal = timed(start_ray)
    reps, builds = [], []
    for rep in range(SETUP_REPS):
        build_s, rep_s, st = timed(lambda: wl.prepare(os.path.join(wl.run_dir, f"rep{rep}")))
        builds.append(build_s)
        reps.append(rep_s)
        steal += st
        if rep:
            shutil.rmtree(os.path.join(wl.run_dir, f"rep{rep - 1}"), ignore_errors=True)
    return {"ray_init_s": ray_s, "rep_s": reps, "build_s": builds, "steal_s": steal,
            "setup_s": ray_s + _median(reps)}


def warm_up(client: Client, store: str) -> None:
    """One scan and a few lookups before timing starts, so the object
    store and the workers' arenas have faulted in their pages. They are
    checked and counted like any op; their latencies are dropped."""
    client.scan(store)
    for _ in range(WARM_LOOKUPS):
        client.lookup(store)
    client.log.seconds.clear()
    client.seconds.clear()
    client.steal.clear()


def end_to_end(wl: Workload, seed: int, seconds: float) -> tuple[dict, dict, object]:
    from oracle import OpLog

    st = setup(wl)
    clock = HostClock()
    log = OpLog()
    client = Client(wl, log, seed, clock)
    warm_up(client, wl.store)
    rounds = run_rounds(wl, client, seconds)
    toks = _tokens(wl.source)
    secs = client.seconds
    look = secs.get("lookup", [])
    tail_v, tail_p, tail_n = tail(look)
    ref = reference_sizes(wl.source)
    stored = wl.store_ops.stored_bytes(wl.store)
    measured = {
        "setup_s": st["setup_s"],
        "write_tok_s": toks / _median(secs.get("write", [])),
        "scan_tok_s": toks / _median(secs.get("scan", [])),
        "lookup_p50_ms": 1e3 * _median(look),
    }
    k = clock.scale()
    metrics = {
        "setup_s": (measured["setup_s"], "s"),
        "write_tok_s": (measured["write_tok_s"] / k, "tok/s"),
        "scan_tok_s": (measured["scan_tok_s"] / k, "tok/s"),
        "lookup_p50_ms": (k * measured["lookup_p50_ms"], "ms"),
        "size_ratio": (stored / ref["NONE"], "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    op_wall = sum(sum(v) for v in log.seconds.values())
    detail = {
        "provenance": provenance(wl, seed), "rounds": rounds, "setup": st,
        "error_rate": log.failed / max(1, log.attempted), "errors": log.errors,
        "ops": {kind: len(v) for kind, v in secs.items()},
        "op_ms": {kind: [round(1e3 * x, 1) for x in v] for kind, v in secs.items()},
        "lookup_tail_ms": 1e3 * k * tail_v,
        "lookup_tail": {"percentile": tail_p, "samples": tail_n},
        "stored_bytes": stored, "reference_bytes": ref,
        "host_clock": {"scale": k, "samples": len(clock.samples),
                       "median_ms": 1e3 * _median(clock.samples)},
        "measured": measured,
        "steal": {"op_s": client.steal, "op_share": sum(client.steal.values()) / max(op_wall, 1e-9),
                  "setup_s": st["steal_s"]},
    }
    return metrics, detail, log


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import parquet_hs_ray  # noqa: F401  fail before any process starts
    from parquet_hs_ray.memtune import ensure_process_tuned

    import oracle

    ensure_process_tuned()
    # one CPU for the driver and every Ray process it starts (children
    # inherit the mask), however many CPUs the host brings online
    # mid-run: a 1-CPU node, and steal on that CPU is steal on the run
    global STEAL_CPU
    STEAL_CPU = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, [STEAL_CPU])
    oracle.self_test()
    run_dir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    wl = WORKLOADS[args.workload](args.seed, run_dir)
    try:
        if args.trace:
            from traced import traced_run

            metrics, detail, log = traced_run(wl, args.seed, args.seconds)
        else:
            metrics, detail, log = end_to_end(wl, args.seed, args.seconds)
    finally:
        try:
            stop_ray()
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    result = {
        "correct": log.failed == 0 and log.attempted > 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
