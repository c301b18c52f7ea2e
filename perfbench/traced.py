"""The traced run (``--trace 1``): per-layer metrics for one workload.

After the usual set-up, a fixed op program (the workload's write, one
full scan and ``TRACE_LOOKUPS`` seeded lookups) runs three times:

1. through Ray, untraced: the wall of each op;
2. replayed in-process with spans around every layer (``tracing.py``);
3. replayed in-process with no spans: the replay's own wall.

(An in-process pass without spans before 2 warms the driver; the
faster of it and pass 3 is the untraced wall.) Layer times
are self times from pass 2, summed over the program.
``ray.dispatch.ms`` is pass 1's op walls minus the replayed ops' time in
top-level spans; ``ray.floor.ms`` is an identity ``map_batches`` over a
control dataset with the same stage calls per op; ``trace.overhead.ms``
is pass 2's wall minus pass 3's. Every op's output in every pass is
checked by the oracle.

Between passes 1 and 2, seeded lookups run through Ray in a closed loop
for ``--seconds``; ``lookup_tail_ms`` is their tail (``run.tail``).
"""

from __future__ import annotations

import contextlib
import os
import shutil
import time
import types
from collections import defaultdict

import run
import tracing

COLS = ["doc_id", "tokens", "n_tok", "source"]
RPVK = tracing.RPVK

# (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    [("plan.build_plan.ms", "ms"), ("plan.partitions", "count"),
     ("plan.max_tokens_over_budget", "ratio"),
     ("stages.encode.read_slice.ms", "ms"), ("stages.encode.read_slice.bytes", "bytes"),
     ("stages.encode.attach_bloom_stats.ms", "ms"),
     ("selector.int.ms", "ms"), ("selector.binary.ms", "ms"), ("selector.float.ms", "ms"),
     ("selector.pred_over_actual", "ratio")]
    + [(f"format.encode_array.{c}.{u}", u2) for c in COLS
       for u, u2 in (("ms", "ms"), ("bytes", "bytes"))]
    + [(f"format.decode_table.{c}.ms", "ms") for c in COLS]
    + [(f"state.manifest.{f}.{u}", u2)
       for f in ("write_blob_atomic", "write_entry", "load_manifest", "read_blob")
       for u, u2 in (("ms", "ms"), ("bytes", "bytes"))]
    + [("stages.decode.predicate_mask.ms", "ms"),
       ("stages.decode.partitions_decoded_per_lookup", "count"),
       ("stages.decode.rows_returned_per_row_decoded", "ratio"),
       ("sources.parquet_footer.read_footer_via_kernels.ms", "ms"),
       ("sources.parquet_footer.read_footer_via_kernels.calls", "count"),
       ("sources.parquet_footer.prune_row_groups_by_stats_kernels.ms", "ms"),
       ("sources.parquet_footer.prune_row_groups_by_stats_kernels.kept", "ratio"),
       ("sources.parquet_footer.prune_pages_by_index.ms", "ms"),
       ("sources.parquet_footer.prune_pages_by_index.kept", "ratio"),
       ("sources.bloom.prune_row_groups_by_bloom.ms", "ms"),
       ("sources.bloom.prune_row_groups_by_bloom.calls", "count"),
       ("sources.bloom.prune_row_groups_by_bloom.kept", "ratio"),
       ("sources.parquet_pages.prune_row_groups_by_dict.ms", "ms"),
       ("sources.parquet_pages.prune_row_groups_by_dict.kept", "ratio")]
    + [(f"{RPVK}.{c}.ms", "ms") for c in COLS]
    + [("sources.parquet_pages.read_row_group_page_pruned.ms", "ms"),
       ("sources.kernel_sink.read_parquet_kernels.ms", "ms"),
       ("sources.kernel_sink.decode_tasks", "count"),
       ("sources.parquet_writer.encode_parquet_bytes.ms", "ms"),
       ("ray.dispatch.ms", "ms"), ("ray.floor.ms", "ms"), ("trace.overhead.ms", "ms"),
       ("lookup_tail_ms", "ms"), ("error_rate", "ratio")]
)


def program(wl, client) -> list[tuple[str, str | None]]:
    """The fixed op list: (kind, lookup key)."""
    ops = [("write", None)] if wl.reads_back or wl.name == "parquet_read" else []
    ops.append(("scan", None))
    for i in range(run.TRACE_LOOKUPS):
        k = client.keys[int(client.rng.integers(len(client.keys)))]
        # two absent keys, at fixed places in the program
        ops.append(("lookup", k + "~" if i % 10 == 9 else k))
    return ops


def kernel_write_in_process(tracer, wl, out_dir: str) -> dict:
    """The kernel write's task-side calls, in this process: one
    ``KernelParquetDatasink.write`` per block."""
    from parquet_hs_ray.sources import kernel_sink

    sink = kernel_sink.KernelParquetDatasink(out_dir, **wl.writer_kwargs())
    sink.on_write_start()
    returns = []
    for i, t in enumerate(wl.tables):
        sp = tracer.open("stage.write") if tracer.enabled else None
        try:
            returns.append(sink.write([t], types.SimpleNamespace(task_idx=i)))
        finally:
            if sp:
                tracer.close(sp)
    sink.on_write_complete(types.SimpleNamespace(write_returns=returns))
    return kernel_sink.read_sink_manifest(out_dir)


def run_program(wl, client, ops, tag: str, tracer=None) -> tuple[list, float]:
    """Run the op program once; with a tracer, in-process. Returns the
    per-op seconds (None for a failed op) and the pass's wall."""
    from parquet_hs_ray.sources import kernel_sink

    target = os.path.join(wl.run_dir, f"t_{tag}")
    store = target if wl.reads_back else wl.store
    kernel_sink._KM_CACHE.clear()  # each pass starts with cold footer caches
    out = []
    t0 = time.perf_counter()
    for i, (kind, key) in enumerate(ops):
        traced = tracer is not None and tracer.enabled
        with tracer.op(i, kind) if traced else contextlib.nullcontext():
            if kind == "write":
                # the kernel write is a Datasink, not a from_items stage:
                # its replay calls the sink's task-side write directly
                replay = tracer is not None and not wl.reads_back
                out.append(client.write(target, (lambda: kernel_write_in_process(
                    tracer, wl, target)) if replay else None))
            elif kind == "scan":
                out.append(client.scan(store))
            else:
                out.append(client.lookup(store, key))
    return out, time.perf_counter() - t0


def floor_ms(shapes: list[tuple]) -> float:
    """Identity ``map_batches`` with each op's stage calls; sum over ops
    of the median of ``FLOOR_REPS`` runs per distinct shape."""
    import ray.data

    def identity(batch):
        return batch

    cache: dict[tuple, float] = {}
    total = 0.0
    for shape in shapes:
        if shape not in cache:
            walls = []
            for _ in range(run.FLOOR_REPS):
                t0 = time.perf_counter()
                for _stage, n in shape:
                    ray.data.from_items([{"i": j} for j in range(n)], override_num_blocks=n) \
                        .map_batches(identity, batch_size=1, batch_format="numpy").take_all()
                walls.append(time.perf_counter() - t0)
            cache[shape] = run._median(walls)
        total += cache[shape]
    return 1e3 * total


def layer_metrics(tracer, ops, ray_s, plain_wall, traced_wall, client, n_files) -> dict:
    spans = tracer.spans
    self_s = tracing.self_times(spans)
    by_name = defaultdict(list)
    for sp in spans:
        by_name[sp["name"]].append(sp)
    lookup_ops = {i for i, (kind, _) in enumerate(ops) if kind == "lookup"}
    n_lookups = max(1, len(lookup_ops))

    def ms(name):
        return 1e3 * self_s.get(name, 0.0)

    def total(name, attr, only=None):
        return sum(sp.get(attr, 0) for sp in by_name[name] if only is None or only(sp))

    def share(name):
        t = total(name, "total")
        return total(name, "kept") / t if t else 0.0

    def top_level(sp):
        return sp["parent"] is not None and spans[sp["parent"]]["name"] == "format.encode_table"

    m = {}
    plans = by_name["plan.build_plan"]
    m["plan.build_plan.ms"] = ms("plan.build_plan")
    m["plan.partitions"] = plans[-1]["partitions"] if plans else 0
    m["plan.max_tokens_over_budget"] = plans[-1]["max_over_budget"] if plans else 0.0
    m["stages.encode.read_slice.ms"] = ms("stages.encode.read_slice")
    m["stages.encode.read_slice.bytes"] = total("stages.encode.read_slice", "bytes")
    m["stages.encode.attach_bloom_stats.ms"] = ms("stages.encode.attach_bloom_stats")
    for kind in ("int", "binary", "float"):
        m[f"selector.{kind}.ms"] = ms(f"selector.{kind}")
    c = tracer.counters
    m["selector.pred_over_actual"] = (c["selector.predicted_bytes"] / c["selector.actual_bytes"]
                                      if c["selector.actual_bytes"] else 0.0)
    for col in COLS:
        m[f"format.encode_array.{col}.ms"] = ms(f"format.encode_array.{col}")
        m[f"format.encode_array.{col}.bytes"] = total(f"format.encode_array.{col}", "bytes", top_level)
        m[f"format.decode_table.{col}.ms"] = ms(f"format.decode_table.{col}")
    for f in ("write_blob_atomic", "write_entry", "load_manifest", "read_blob"):
        m[f"state.manifest.{f}.ms"] = ms(f"state.manifest.{f}")
        m[f"state.manifest.{f}.bytes"] = total(f"state.manifest.{f}", "bytes")
    m["stages.decode.predicate_mask.ms"] = ms("stages.decode.predicate_mask")
    in_lookup = lambda sp: sp["op"] in lookup_ops  # noqa: E731
    m["stages.decode.partitions_decoded_per_lookup"] = sum(
        1 for sp in by_name["state.manifest.read_blob"] if in_lookup(sp)) / n_lookups
    rows_decoded = total("format.decode_table", "rows", in_lookup)
    m["stages.decode.rows_returned_per_row_decoded"] = (
        client.rows_returned / rows_decoded if rows_decoded else 0.0)
    fp = "sources.parquet_footer."
    m[fp + "read_footer_via_kernels.ms"] = ms(fp + "read_footer_via_kernels")
    m[fp + "read_footer_via_kernels.calls"] = len(by_name[fp + "read_footer_via_kernels"]) / n_files
    for name in (fp + "prune_row_groups_by_stats_kernels", fp + "prune_pages_by_index",
                 "sources.bloom.prune_row_groups_by_bloom",
                 "sources.parquet_pages.prune_row_groups_by_dict"):
        m[name + ".ms"] = ms(name)
        m[name + ".kept"] = share(name)
    m["sources.bloom.prune_row_groups_by_bloom.calls"] = len(
        by_name["sources.bloom.prune_row_groups_by_bloom"])
    for col in COLS:
        m[f"{RPVK}.{col}.ms"] = ms(f"{RPVK}.{col}")
    m["sources.parquet_pages.read_row_group_page_pruned.ms"] = ms(
        "sources.parquet_pages.read_row_group_page_pruned")
    m["sources.kernel_sink.decode_tasks"] = sum(
        1 for sp in by_name["stage.decode_one"] if in_lookup(sp)) / n_lookups
    m["sources.parquet_writer.encode_parquet_bytes.ms"] = ms(
        "sources.parquet_writer.encode_parquet_bytes")
    # Ray's share: each op's Ray wall minus the replayed op's time in
    # its top-level spans (the stage calls and driver-side layer calls)
    in_spans = defaultdict(float)
    for sp in spans:
        if sp["parent"] is not None and spans[sp["parent"]]["name"].startswith("op."):
            in_spans[sp["op"]] += sp["end"] - sp["start"]
    m["ray.dispatch.ms"] = 1e3 * sum(s - in_spans[i] for i, s in enumerate(ray_s) if s is not None)
    m["trace.overhead.ms"] = 1e3 * (traced_wall - plain_wall)
    return m


def op_shapes(tracer, n_ops: int) -> list[tuple]:
    calls = [defaultdict(int) for _ in range(n_ops)]
    for sp in tracer.spans:
        if sp["name"].startswith("stage.") and sp["op"] is not None:
            calls[sp["op"]][sp["name"]] += 1
    return [tuple(sorted(c.items())) for c in calls]


def traced_run(wl, seed: int, seconds: float):
    from oracle import OpLog

    st = run.setup(wl)
    log = OpLog()
    client = run.Client(wl, log, seed)
    run.warm_up(client, wl.store)
    ops = program(wl, client)
    # pass 1: through Ray
    call_s = getattr(wl.store_ops, "call_s", [])
    call_s.clear()
    ray_s, ray_wall = run_program(wl, client, ops, "ray")
    call_s = list(call_s)
    client.seconds.clear()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        client.lookup(wl.store)
    tail_v, tail_p, tail_n = run.tail(client.seconds.get("lookup", []))
    # passes 2 and 3: in-process, with and without spans, after a pass
    # without spans that warms the driver
    plain = tracing.Tracer()
    plain.enabled = False
    tracer = tracing.Tracer()
    with tracing.installed(plain):
        _, warm_wall = run_program(wl, client, ops, "warm", plain)
    with tracing.installed(tracer):
        client.rows_returned = 0
        _, traced_wall = run_program(wl, client, ops, "span", tracer)
    with tracing.installed(plain):
        _, plain_wall = run_program(wl, client, ops, "plain", plain)
    plain_wall = min(warm_wall, plain_wall)
    metrics = layer_metrics(tracer, ops, ray_s, plain_wall, traced_wall, client, wl.n_files)
    metrics["sources.kernel_sink.read_parquet_kernels.ms"] = 1e3 * sum(call_s)
    metrics["ray.floor.ms"] = floor_ms(op_shapes(tracer, len(ops)))
    metrics["error_rate"] = log.failed / max(1, log.attempted)
    metrics["lookup_tail_ms"] = 1e3 * tail_v
    units = dict(PER_LAYER)
    out = {name: (metrics.get(name, 0.0), units[name]) for name, _ in PER_LAYER}
    os.makedirs(run.TRACE_OUT, exist_ok=True)
    span_file = os.path.join(run.TRACE_OUT, f"{wl.name}-seed{seed}.spans.jsonl")
    tracer.dump(span_file)
    self_ms = {k: round(1e3 * v, 3) for k, v in sorted(tracing.self_times(tracer.spans).items())}
    detail = {
        "provenance": run.provenance(wl, seed), "setup": st,
        "program": {"ops": len(ops), "lookups": run.TRACE_LOOKUPS,
                    "ray_wall_s": ray_wall, "replay_wall_s": plain_wall,
                    "traced_replay_wall_s": traced_wall},
        "lookup_tail": {"percentile": tail_p, "samples": tail_n},
        "self_ms": self_ms, "spans_file": os.path.relpath(span_file, run.ROOT),
        "errors": log.errors,
    }
    for name in os.listdir(wl.run_dir):
        if name.startswith("t_"):
            shutil.rmtree(os.path.join(wl.run_dir, name), ignore_errors=True)
    return out, detail, log
