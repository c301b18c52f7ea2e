"""The block-task helper the operator layer runs its Ray tasks through:
carry-scan carries, task shape and block order; the bounded pair runner;
the empty-block filter."""

import itertools

import pandas as pd
import pyarrow as pa
import ray

from parquet_hs_ray.pipelines import blocktasks


class _CountingTask:
    """Stand-in for a remote function that records the ``num_cpus`` of
    every task submitted through it, then submits the real task."""

    def __init__(self, fn, declared_cpus):
        self.fn, self.declared, self.cpus = fn, declared_cpus, []

    def remote(self, *args):
        self.cpus.append(self.declared)
        return self.fn.remote(*args)

    def options(self, **kw):
        outer, real = self, self.fn.options(**kw)

        class _Submit:
            def remote(self, *args):
                outer.cpus.append(kw.get("num_cpus", outer.declared))
                return real.remote(*args)

        return _Submit()


def _blocks():
    """Four blocks: Arrow, empty Arrow, pandas, Arrow."""
    return [ray.put(pa.table({"x": [1, 2, 3]})),
            ray.put(pa.table({"x": pa.array([], pa.int64())})),
            ray.put(pd.DataFrame({"x": [10, 20]})),
            ray.put(pa.table({"x": [100]}))]


def test_carry_scan_carries_order_and_task_shape(ray_session, monkeypatch):
    task = _CountingTask(blocktasks._block_task, 1)
    monkeypatch.setattr(blocktasks, "_block_task", task)
    folded = []

    def summarize(t):
        assert isinstance(t, pa.Table) and t.num_rows > 0
        return sum(t["x"].to_pylist())

    def step(run, s):
        folded.append((run, s))
        return run + s

    def apply(t, carry):
        assert isinstance(t, pa.Table)
        return carry, t["x"].to_pylist()

    out = blocktasks.carry_scan(_blocks(), summarize, step, apply, init=5)
    # the empty block is summarized as None and skipped by the fold; each
    # block gets the run as it stood before it, init for block 0
    assert folded == [(5, 6), (11, 30), (41, 100)]
    assert ray.get(out) == [(5, [1, 2, 3]), (11, []), (11, [10, 20]), (41, [100])]
    # one zero-CPU summary task and one 1-CPU block task per block
    assert task.cpus == [0] * 4 + [1] * 4


def test_carry_scan_reversed_is_a_right_to_left_scan(ray_session):
    refs = _blocks()
    out = blocktasks.carry_scan(refs[::-1], lambda t: t.num_rows,
                                lambda run, s: run + s, lambda t, c: c, init=0)[::-1]
    # rows in the blocks after each block, in block order
    assert ray.get(out) == [3, 3, 1, 0]


def test_scan_carries_without_blocks(ray_session):
    assert blocktasks.scan_carries([], len, lambda run, s: s) == []
    assert blocktasks.carry_scan([], len, lambda run, s: s, lambda t, c: t) == []


def test_run_pairs_runs_each_pair_once_within_bound(ray_session, monkeypatch):
    refs = [ray.put(pa.table({"id": [i]})) for i in range(5)]
    refs.append(ray.put(pd.DataFrame({"id": [5]})))  # pandas blocks arrive as Arrow
    pairs = list(itertools.product(refs, refs))
    task = _CountingTask(blocktasks._pair_task, 1)
    monkeypatch.setattr(blocktasks, "_pair_task", task)
    waited = []
    real_wait = ray.wait

    def wait(pending, **kw):
        waited.append(len(pending))
        return real_wait(pending, **kw)

    monkeypatch.setattr(ray, "wait", wait)

    def fn(a, b):
        assert isinstance(a, pa.Table) and isinstance(b, pa.Table)
        return a["id"][0].as_py(), b["id"][0].as_py()

    out, peak = blocktasks.run_pairs(fn, pairs, max_in_flight=3)
    assert sorted(out) == sorted(itertools.product(range(6), range(6)))
    assert peak == 3 and waited and max(waited) <= 3
    assert task.cpus == [1] * len(pairs)


def test_run_pairs_default_bound(ray_session):
    out, peak = blocktasks.run_pairs(lambda a, b: a.num_rows + b.num_rows,
                                     [(r, r) for r in _blocks()])
    assert sorted(out) == [0, 2, 4, 6] and peak == 4  # default is at least 8


def test_drop_empty_blocks(ray_session):
    refs = _blocks()
    assert blocktasks.nonempty_refs(refs) == [refs[0], refs[2], refs[3]]
    ds = blocktasks.drop_empty_blocks(ray.data.from_arrow_refs([refs[0], refs[1], refs[3]]))
    assert ds.num_blocks() == 2 and ds.to_pandas()["x"].tolist() == [1, 2, 3, 100]
    empty = ray.data.from_arrow_refs([refs[1]])
    assert blocktasks.drop_empty_blocks(empty) is None


def test_cluster_defaults_follow_cpu_slots(ray_session, monkeypatch):
    """The hash-join width and the pair runner's in-flight cap come from
    the session's CPU slots (2..16 partitions; 4x slots, at least 8)."""
    pairs = [(r, r) for r in _blocks() * 3]  # 12 pairs
    for slots, width, peak in ((1, 2, 8), (4, 4, 12), (64, 16, 12)):
        monkeypatch.setattr(blocktasks, "cpu_slots", lambda: slots)
        assert blocktasks.shuffle_partitions() == width
        out, p = blocktasks.run_pairs(lambda a, b: a.num_rows, pairs)
        assert sorted(out) == sorted([3, 0, 2, 1] * 3) and p == peak
