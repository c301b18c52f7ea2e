"""kill -9 resume drives for the incremental (micro-batch) state layer
(r3 verdict #10) and the blob-store encode job, as reproducible tests.

Crash injection: ``PHR_TEST_KILL_AFTER_WRITE="<frag>:<pid>"`` makes
``fsio.write_atomic`` SIGKILL the job driver right after a write whose
path contains ``<frag>`` completes — i.e. the process dies at exactly
the commit boundary under test (state parquet persisted, meta.json /
remaining buckets not).
"""

import hashlib
import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pandas as pd
import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _events(lo_h: int, hi_h: int, n: int, seed: int) -> pd.DataFrame:
    rng = np.random.default_rng(seed)
    ts = rng.integers(lo_h * 3_600_000_000, hi_h * 3_600_000_000, n)
    return pd.DataFrame({
        "user_id": rng.integers(0, 5, n).astype(np.int64),
        "ts": np.sort(ts).astype(np.int64),
        "value": np.round(rng.random(n) * 100, 2),
    })


def _run_increment_subprocess(state_dir: str, inc_csv: str,
                              kill_frag: str | None) -> int:
    """Run one incremental_tumbling increment in a fresh driver process;
    if kill_frag is set the process SIGKILLs itself at that write."""
    script = textwrap.dedent(f"""
        import os, sys
        sys.path.insert(0, {REPO!r})
        if {kill_frag!r} is not None:
            os.environ["PHR_TEST_KILL_AFTER_WRITE"] = (
                {kill_frag!r} + ":" + str(os.getpid()))
        import ray
        ray.init(address="local", num_cpus=2, include_dashboard=False,
                 logging_level="ERROR")
        import pandas as pd
        import ray.data
        from parquet_hs_ray.pipelines.incremental import incremental_tumbling
        inc = pd.read_csv({inc_csv!r})
        emitted, info = incremental_tumbling(
            ray.data.from_pandas(inc), {state_dir!r})
        emitted.to_csv({inc_csv!r} + ".emitted", index=False)
        ray.shutdown()
    """)
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, timeout=240)
    return proc.returncode


def test_tumbling_kill_between_state_and_meta(tmp_path):
    """SIGKILL after the state parquet lands but BEFORE meta.json (the
    commit point): the store must still read as the PREVIOUS version,
    and re-running the increment must emit exactly what an uninterrupted
    run emits."""
    a = _events(0, 3, 400, 1)
    b = _events(2, 6, 400, 2)
    a_csv, b_csv = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    a.to_csv(a_csv, index=False)
    b.to_csv(b_csv, index=False)

    golden, crash = str(tmp_path / "golden"), str(tmp_path / "crash")
    assert _run_increment_subprocess(golden, a_csv, None) == 0
    assert _run_increment_subprocess(golden, b_csv, None) == 0
    golden_b = pd.read_csv(b_csv + ".emitted")
    os.remove(b_csv + ".emitted")

    from parquet_hs_ray.pipelines.incremental import _read_state

    assert _run_increment_subprocess(crash, a_csv, None) == 0
    _, wm_after_a, ver_after_a = _read_state(crash)

    rc = _run_increment_subprocess(crash, b_csv, kill_frag="state-")
    assert rc == -signal.SIGKILL  # really died at the injected point
    assert not os.path.exists(b_csv + ".emitted")  # caller saw nothing

    # meta.json is the commit point: the store still reads as version A
    _, wm, ver = _read_state(crash)
    assert (wm, ver) == (wm_after_a, ver_after_a)
    # the orphan next-version state file may exist — it must be ignored

    # re-run lands exactly the golden emit and state
    assert _run_increment_subprocess(crash, b_csv, None) == 0
    rerun_b = pd.read_csv(b_csv + ".emitted")
    pd.testing.assert_frame_equal(rerun_b, golden_b)
    st_g, wm_g, _ = _read_state(golden)
    st_c, wm_c, _ = _read_state(crash)
    assert wm_c == wm_g
    pd.testing.assert_frame_equal(
        st_c.sort_values(["user_id", "win"]).reset_index(drop=True),
        st_g.sort_values(["user_id", "win"]).reset_index(drop=True))


def _run_dedup_subprocess(state_dir: str, docs_csv: str,
                          kill_frag: str | None) -> int:
    script = textwrap.dedent(f"""
        import os, sys
        sys.path.insert(0, {REPO!r})
        if {kill_frag!r} is not None:
            os.environ["PHR_TEST_KILL_AFTER_WRITE"] = (
                {kill_frag!r} + ":" + str(os.getpid()))
        import ray
        ray.init(address="local", num_cpus=2, include_dashboard=False,
                 logging_level="ERROR")
        import pandas as pd
        import ray.data
        from parquet_hs_ray.pipelines.incremental import incremental_dedup
        docs = pd.read_csv({docs_csv!r})
        out, info = incremental_dedup(
            ray.data.from_pandas(docs), {state_dir!r}, n_buckets=8)
        out.to_pandas().sort_values("doc_id").to_csv(
            {docs_csv!r} + ".kept", index=False)
        ray.shutdown()
    """)
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, timeout=240)
    return proc.returncode


def test_dedup_kill_mid_buckets_exactly_once(tmp_path):
    """SIGKILL the driver after the FIRST bucket file lands: some of the
    increment's hashes are persisted, none of its survivors were emitted.
    The re-run must emit EXACTLY the golden survivor set — the keeper-id
    column lets docs of the crashed increment re-claim their own hashes
    (without it they would silently vanish)."""
    inc1 = pd.DataFrame({
        "doc_id": np.arange(0, 40, dtype=np.int64),
        "text": [f"text number {i % 25}" for i in range(40)],
    })
    inc2 = pd.DataFrame({
        "doc_id": np.arange(100, 140, dtype=np.int64),
        # overlaps inc1 (i%25 for i<25) plus fresh content
        "text": [f"text number {i % 60}" for i in range(40)],
    })
    c1, c2 = str(tmp_path / "inc1.csv"), str(tmp_path / "inc2.csv")
    inc1.to_csv(c1, index=False)
    inc2.to_csv(c2, index=False)

    golden, crash = str(tmp_path / "golden"), str(tmp_path / "crash")
    assert _run_dedup_subprocess(golden, c1, None) == 0
    assert _run_dedup_subprocess(golden, c2, None) == 0
    golden_kept2 = pd.read_csv(c2 + ".kept")
    os.remove(c2 + ".kept")

    assert _run_dedup_subprocess(crash, c1, None) == 0
    rc = _run_dedup_subprocess(crash, c2, kill_frag="bucket-")
    # the worker kills the DRIVER; the subprocess must die by SIGKILL
    assert rc == -signal.SIGKILL
    assert not os.path.exists(c2 + ".kept")  # survivors never reached caller

    # at least one bucket of increment-2 hashes was persisted before the
    # kill; the re-run must still emit the exact golden survivor set
    assert _run_dedup_subprocess(crash, c2, None) == 0
    rerun_kept2 = pd.read_csv(c2 + ".kept")
    pd.testing.assert_frame_equal(
        rerun_kept2.reset_index(drop=True),
        golden_kept2.reset_index(drop=True))


def test_dedup_rerun_idempotent_after_success(tmp_path):
    """A full re-run of an ALREADY COMMITTED increment emits the same
    survivors again (exactly-once per increment via keeper ids), and
    state is unchanged."""
    import ray.data

    from parquet_hs_ray.pipelines.incremental import incremental_dedup

    docs = pd.DataFrame({
        "doc_id": np.arange(20, dtype=np.int64),
        "text": [f"body {i % 12}" for i in range(20)],
    })
    sd = str(tmp_path / "st")
    out1, _ = incremental_dedup(ray.data.from_pandas(docs), sd, n_buckets=4)
    kept1 = out1.to_pandas().sort_values("doc_id").reset_index(drop=True)
    out2, _ = incremental_dedup(ray.data.from_pandas(docs), sd, n_buckets=4)
    kept2 = out2.to_pandas().sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(kept1, kept2)
    assert len(kept1) == 12


def test_dedup_string_ids(tmp_path):
    """Non-integer id_col values round-trip through the persisted keeper
    column (stored as strings, any orderable dtype works)."""
    import ray.data

    from parquet_hs_ray.pipelines.incremental import incremental_dedup

    docs = pd.DataFrame({
        "doc_id": [f"doc-{i:03d}" for i in range(10)],
        "text": [f"body {i % 6}" for i in range(10)],
    })
    sd = str(tmp_path / "st")
    out1, info1 = incremental_dedup(ray.data.from_pandas(docs), sd,
                                    n_buckets=4)
    kept1 = sorted(out1.to_pandas()["doc_id"])
    assert kept1 == [f"doc-{i:03d}" for i in range(6)] and info1["n_kept"] == 6
    # exactly-once re-emit works for string ids too
    out2, _ = incremental_dedup(ray.data.from_pandas(docs), sd, n_buckets=4)
    assert sorted(out2.to_pandas()["doc_id"]) == kept1


def _run_encode_subprocess(src: str, out: str, kill_frag: str | None) -> tuple[int, dict]:
    """Run ``encode_dataset`` then ``verify_roundtrip`` in a fresh
    2-CPU driver; returns (exit code, both results). On a kill the
    whole job dies: the process group of the driver, its Ray node and
    workers, is SIGKILLed once the driver is gone."""
    script = textwrap.dedent(f"""
        import json, os, sys
        sys.path.insert(0, {REPO!r})
        if {kill_frag!r} is not None:
            os.environ["PHR_TEST_KILL_AFTER_WRITE"] = (
                {kill_frag!r} + ":" + str(os.getpid()))
        import ray
        ray.init(address="local", num_cpus=2, include_dashboard=False,
                 logging_level="ERROR")
        from parquet_hs_ray.pipelines.encode_job import encode_dataset, verify_roundtrip
        res = encode_dataset({src!r}, {out!r}, token_budget=60_000)
        print(json.dumps([res, verify_roundtrip({src!r}, {out!r})]))
        ray.shutdown()
    """)
    log = out + ".stdout"
    with open(log, "wb") as f:
        proc = subprocess.Popen([sys.executable, "-c", script], cwd=REPO, stdout=f,
                                stderr=subprocess.DEVNULL, start_new_session=True)
        # wait() returns as the driver dies; its workers die with the
        # group right after, so none finishes another partition
        rc = proc.wait(timeout=240)
    try:
        os.killpg(proc.pid, signal.SIGKILL)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            os.killpg(proc.pid, 0)
            time.sleep(0.2)
    except ProcessLookupError:
        pass
    with open(log) as f:
        lines = f.read().strip().splitlines()
    return rc, json.loads(lines[-1]) if rc == 0 else {}


def _blob_digests(out: str) -> dict:
    d = os.path.join(out, "blobs")
    return {n: hashlib.sha256(open(os.path.join(d, n), "rb").read()).hexdigest()
            for n in sorted(os.listdir(d)) if n.endswith(".blob")}


def test_encode_kill_mid_run_resumes_unfinished(tmp_path):
    """SIGKILL the encode driver right after a blob write in the middle
    of a task's run of partitions (2 CPU slots, so each task holds
    several): the rerun encodes exactly the partitions without both a
    blob and a manifest entry, the store verifies, and every blob is
    sha256-equal to an uncrashed encode's."""
    from parquet_hs_ray.sources.synth import write_dataset
    from parquet_hs_ray.state import manifest as mf

    src = str(tmp_path / "src")
    write_dataset(src, 800, seed=9, n_files=2)
    golden, crash = str(tmp_path / "golden"), str(tmp_path / "crash")
    rc, (res, _) = _run_encode_subprocess(src, golden, None)
    assert rc == 0 and res["planned"] >= 8

    rc, _ = _run_encode_subprocess(src, crash, kill_frag="part-00000002.blob")
    assert rc == -signal.SIGKILL  # the worker killed the driver
    finished = mf.finished_ids(crash)
    assert 2 <= len(finished) < res["planned"]

    rc, (rerun, verified) = _run_encode_subprocess(src, crash, None)
    assert rc == 0
    assert rerun["skipped_finished"] == len(finished)
    assert rerun["encoded"] == res["planned"] - len(finished)
    assert verified["mismatched_partitions"] == 0 and verified["rows"] == 800
    assert _blob_digests(crash) == _blob_digests(golden)
