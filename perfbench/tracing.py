"""Per-layer tracing by in-process replay.

A traced run replays each op in the driver process: the op's public
entry point (``encode_dataset``, ``decode_dataset``,
``read_parquet_kernels``) runs for real, but ``ray.data.from_items``
returns a ``LocalDataset`` that runs each ``map_batches`` stage callable
in this process, batch by batch, exactly as a Ray task would call it.
While the replay runs, the layers' public functions are replaced, in
every ``parquet_hs_ray`` module that holds them, by wrappers that record
spans. Nothing of this is installed while the untraced Ray ops run, so
no wrapper is ever pickled into a task.

A span records name, start, end, parent, op id and a few attributes
(bytes, rows, row groups kept). Spans stay in memory; ``Tracer.dump``
writes them out when the run ends. A layer's self time is its span's
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np
import pyarrow as pa

PKG = "parquet_hs_ray"


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.op_id: int | None = None
        self.enabled = True

    def open(self, name: str, **attrs) -> dict:
        parent = self.stack[-1] if self.stack else None
        sp = {"id": len(self.spans), "name": name, "start": time.perf_counter(),
              "end": None, "parent": parent["id"] if parent else None,
              "op": self.op_id, **attrs}
        self.spans.append(sp)
        self.stack.append(sp)
        return sp

    def close(self, sp: dict) -> None:
        sp["end"] = time.perf_counter()
        popped = self.stack.pop()
        if popped is not sp:
            raise RuntimeError(f"span stack out of order: {popped['name']} vs {sp['name']}")

    def parent(self) -> dict | None:
        return self.stack[-1] if self.stack else None

    @contextlib.contextmanager
    def op(self, op_id: int, kind: str):
        """Root span of one replayed op."""
        self.op_id = op_id
        sp = self.open(f"op.{kind}", kind=kind)
        try:
            yield sp
        finally:
            self.close(sp)
            self.op_id = None

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp, default=str) + "\n")


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds of self time per span name (op roots excluded)."""
    child = defaultdict(float)
    for sp in spans:
        if sp["parent"] is not None:
            child[sp["parent"]] += sp["end"] - sp["start"]
    out = defaultdict(float)
    for sp in spans:
        if not sp["name"].startswith("op."):
            out[sp["name"]] += sp["end"] - sp["start"] - child[sp["id"]]
    return dict(out)


# ---------------------------------------------------------------- replay

def _numpy_batch(rows: list[dict]) -> dict:
    cols = rows[0].keys() if rows else ()
    out = {}
    for c in cols:
        vals = [r[c] for r in rows]
        arr = np.asarray(vals)
        out[c] = np.asarray(vals, dtype=object) if arr.dtype.kind == "U" else arr
    return out


def _block_rows(block) -> list[dict]:
    if isinstance(block, pa.Table):
        return block.to_pylist()
    n = len(next(iter(block.values()))) if block else 0
    return [{k: v[i] for k, v in block.items()} for i in range(n)]


class LocalDataset:
    """The slice of the ``ray.data.Dataset`` API the package's jobs use
    (``from_items`` -> ``map_batches`` -> consume), run in this process.
    Each stage call is a span named ``stage.<callable>``."""

    def __init__(self, tracer: Tracer, items: list[dict], stages=()):
        self.tracer = tracer
        self.items = items
        self.stages = list(stages)

    def map_batches(self, fn, batch_size=None, fn_constructor_kwargs=None, **_ray_options):
        return LocalDataset(self.tracer, self.items,
                            self.stages + [(fn, batch_size or 1 << 30, fn_constructor_kwargs)])

    def _blocks(self):
        rows, blocks = self.items, None
        for fn, batch_size, ctor in self.stages:
            if blocks is not None:  # the previous stage's output, as rows
                rows = [r for b in blocks for r in _block_rows(b)]
            if isinstance(fn, type):
                fn = fn(**(ctor or {}))
            name = f"stage.{getattr(fn, '__name__', type(fn).__name__)}"
            blocks = []
            for i in range(0, len(rows), batch_size):
                batch = _numpy_batch(rows[i:i + batch_size])
                if not self.tracer.enabled:
                    blocks.append(fn(batch))
                    continue
                sp = self.tracer.open(name)
                try:
                    blocks.append(fn(batch))
                finally:
                    self.tracer.close(sp)
        return blocks if blocks is not None else [_numpy_batch(rows)]

    def take_all(self):
        return [r for b in self._blocks() for r in _block_rows(b)]

    def iter_batches(self, batch_format="pyarrow", batch_size=None):
        for b in self._blocks():
            yield b if isinstance(b, pa.Table) else pa.table(b)

    def to_pandas(self):
        import pandas as pd

        return pd.DataFrame(self.take_all())


# ---------------------------------------------------------------- wrappers

def _replace_everywhere(modname: str, attr: str, make) -> list:
    """Replace ``modname.attr`` in every loaded package module that holds
    the same object (functions imported by name), return the undo list."""
    mod = importlib.import_module(modname)
    orig = getattr(mod, attr)
    wrapped = make(orig)
    undo = []
    for name, m in list(sys.modules.items()):
        if (name == PKG or name.startswith(PKG + ".")) and getattr(m, attr, None) is orig:
            setattr(m, attr, wrapped)
            undo.append((m, attr, orig))
    return undo


def _span_wrapper(tracer: Tracer, orig, name, after=None, attrs=None):
    """``name`` is a string or ``name(parent_span, args, kwargs)``; a name
    of None runs ``orig`` without a span. ``attrs(args, kwargs)`` gives
    the span's initial attributes, ``after(span, args, kwargs, out)``
    adds attributes once the call returns."""

    @functools.wraps(orig)
    def wrapper(*a, **k):
        n = name(tracer.parent(), a, k) if callable(name) else name
        if n is None:
            return orig(*a, **k)
        sp = tracer.open(n, **(attrs(a, k) if attrs else {}))
        try:
            out = orig(*a, **k)
        finally:
            tracer.close(sp)
        if after is not None:
            after(sp, a, k, out)
        return out

    return wrapper


def _payload_len(frame: bytes) -> int | None:
    """Payload bytes of a leaf column frame (fixed, binary or bool kind):
    kind byte, varint rows, varint nulls, validity bitmap, codec byte,
    varint payload length."""
    from parquet_hs_ray.codecs.varint import decode_varint

    if not frame or frame[0] not in (0, 1, 3):
        return None
    n, pos = decode_varint(frame, 1)
    nc, pos = decode_varint(frame, pos)
    if nc:
        pos += (n + 7) // 8
    plen, _ = decode_varint(frame, pos + 1)
    return plen


RPVK = "sources.parquet_pages.read_parquet_via_kernels"


def _arg(a, k, i, key, default=None):
    return k[key] if key in k else (a[i] if len(a) > i else default)


def _specs(tracer: Tracer) -> list[tuple]:
    """(module, function, span name, after hook, initial attributes) for
    every traced layer function."""
    from parquet_hs_ray.format import blob_schema
    from parquet_hs_ray.plan import DEFAULT_TOKEN_BUDGET

    spans = tracer.spans
    counters = tracer.counters

    def after_plan(sp, a, k, out):
        budget = _arg(a, k, 2, "token_budget", DEFAULT_TOKEN_BUDGET)
        sp["partitions"] = len(out)
        sp["max_over_budget"] = max((p.est_tokens for p in out), default=0) / budget

    def after_encode_array(sp, a, k, out):
        frame = out[0]
        sp["bytes"] = len(frame)
        # the selector ran for this frame when a selector span is a
        # direct child: compare its prediction with the payload written
        pred = sum(c["predicted"] for c in spans[sp["id"] + 1:]
                   if c["parent"] == sp["id"] and "predicted" in c)
        actual = _payload_len(frame) if pred else None
        if actual:
            counters["selector.predicted_bytes"] += pred
            counters["selector.actual_bytes"] += actual

    def after_selector(sp, a, k, out):
        stats = out[1]
        if stats.codec in stats.predicted:
            sp["predicted"] = stats.predicted[stats.codec]

    def after_nbytes(sp, a, k, out):
        sp["bytes"] = out.nbytes

    def after_blob_arg(sp, a, k, out):
        sp["bytes"] = len(_arg(a, k, 2, "blob"))

    def after_file_out(sp, a, k, out):
        sp["bytes"] = os.path.getsize(out)

    def after_load_manifest(sp, a, k, out):
        mdir = os.path.join(a[0], "manifest")
        sp["bytes"] = sum(e.stat().st_size for e in os.scandir(mdir))

    def after_len_out(sp, a, k, out):
        sp["bytes"] = len(out)

    def after_rows(sp, a, k, out):
        sp["rows"] = out.num_rows
        sp.pop("cols", None)

    def kept_of(total):
        def after(sp, a, k, out):
            sp["kept"] = len(out)
            sp["total"] = total(a, k)
        return after

    def after_pages(sp, a, k, out):
        n = a[0].row_groups[a[2]].num_rows
        sp["total"] = n
        sp["kept"] = n if out is None else sum(hi - lo for lo, hi in out)

    def decode_cols(a, k):
        cols = _arg(a, k, 1, "columns")
        return {"cols": [n for n in blob_schema(a[0]).names if cols is None or n in cols]}

    def encode_cols(a, k):
        return {"cols": list(a[0].column_names)}

    def column_of(table_span, prefix):
        # a top-level encode_array / decode_array call is named after the
        # column its encode_table / decode_table parent is on; nested
        # calls (list children) inherit the parent's name
        def name(parent, a, k):
            if parent is None:
                return None
            if parent["name"] == table_span:
                return f"{prefix}.{parent['cols'].pop(0)}"
            return parent["name"] if parent["name"].startswith(prefix + ".") else None
        return name

    # read_parquet_via_kernels reads and decodes a column's chunks, then
    # assembles them: chunk spans wait in the parent until the assembly
    # names their column
    def chunk_name(parent, a, k):
        return RPVK + ".pending" if parent and parent["name"] == RPVK else None

    def after_chunk(sp, a, k, out):
        spans[sp["parent"]]["pending"].append(sp)

    def after_assemble(sp, a, k, out):
        parent = spans[sp["parent"]]
        for s in parent["pending"] + [sp]:
            s["name"] = f"{RPVK}.{a[0].name}"
        parent["pending"] = []

    def after_rpvk(sp, a, k, out):
        sp.pop("pending", None)

    def n_candidates(a, k):
        return len(k["candidates"])

    def sel(name):
        return lambda parent, a, k: name

    return [
        ("plan", "build_plan", "plan.build_plan", after_plan, None),
        ("stages.encode", "read_slice", "stages.encode.read_slice", after_nbytes, None),
        ("stages.encode", "attach_bloom_stats", "stages.encode.attach_bloom_stats", None, None),
        ("format", "encode_table", "format.encode_table", None, encode_cols),
        ("format", "encode_array", column_of("format.encode_table", "format.encode_array"), after_encode_array, None),
        ("format", "decode_table", "format.decode_table", after_rows, decode_cols),
        ("format", "decode_array", column_of("format.decode_table", "format.decode_table"), None, None),
        ("format", "select_int_codec", sel("selector.int"), after_selector, None),
        ("format", "select_float_codec", sel("selector.float"), after_selector, None),
        ("format", "select_binary_codec", sel("selector.binary"), after_selector, None),
        # the FRONT trial runs just before select_binary_codec, for it
        ("format", "_front_trial_ratio", "selector.binary", None, None),
        ("state.manifest", "write_blob_atomic", "state.manifest.write_blob_atomic", after_blob_arg, None),
        ("state.manifest", "write_entry", "state.manifest.write_entry", after_file_out, None),
        ("state.manifest", "load_manifest", "state.manifest.load_manifest", after_load_manifest, None),
        ("state.manifest", "read_blob", "state.manifest.read_blob", after_len_out, None),
        ("stages.decode", "predicate_mask", "stages.decode.predicate_mask", None, None),
        ("sources.parquet_footer", "read_footer_via_kernels",
         "sources.parquet_footer.read_footer_via_kernels", None, None),
        ("sources.parquet_footer", "prune_row_groups_by_stats_kernels",
         "sources.parquet_footer.prune_row_groups_by_stats_kernels",
         kept_of(lambda a, k: len(a[0].row_groups)), None),
        ("sources.parquet_footer", "prune_pages_by_index",
         "sources.parquet_footer.prune_pages_by_index", after_pages, None),
        ("sources.bloom", "prune_row_groups_by_bloom",
         "sources.bloom.prune_row_groups_by_bloom", kept_of(n_candidates), None),
        ("sources.parquet_pages", "prune_row_groups_by_dict",
         "sources.parquet_pages.prune_row_groups_by_dict", kept_of(n_candidates), None),
        ("sources.parquet_pages", "read_parquet_via_kernels", RPVK, after_rpvk,
         lambda a, k: {"pending": []}),
        ("sources.parquet_pages", "_read_range", chunk_name, after_chunk, None),
        ("sources.parquet_pages", "decode_column_chunk_pages", chunk_name, after_chunk, None),
        ("sources.parquet_pages", "assemble_record_tree", chunk_name, after_assemble, None),
        ("sources.parquet_pages", "read_row_group_page_pruned",
         "sources.parquet_pages.read_row_group_page_pruned", None, None),
        ("sources.kernel_sink", "read_parquet_kernels",
         "sources.kernel_sink.read_parquet_kernels", None, None),
        ("sources.parquet_writer", "encode_parquet_bytes",
         "sources.parquet_writer.encode_parquet_bytes", None, None),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route ``ray.data.from_items`` to ``LocalDataset`` and, when the
    tracer is enabled, wrap every traced layer function, for the
    duration."""
    import ray.data

    tracer.counters = defaultdict(float)
    undo = []
    try:
        for mod, fn, name, after, attrs in (_specs(tracer) if tracer.enabled else ()):
            undo += _replace_everywhere(
                f"{PKG}.{mod}", fn,
                lambda orig: _span_wrapper(tracer, orig, name, after, attrs))
        undo.append((ray.data, "from_items", ray.data.from_items))
        ray.data.from_items = lambda items, **_: LocalDataset(tracer, list(items))
        yield
    finally:
        for m, attr, orig in reversed(undo):
            setattr(m, attr, orig)
