"""Distributed graph analytics over edge tables.

``pagerank`` is the Pregel-shaped iterative computation a training-data
engine needs for link/citation-graph curation signals (page quality as
a filter feature).  Each iteration is one hash-shuffle join
(rank attach on edge source) plus one grouped sum (inflow per
destination) — rank state stays in the object store as a node-sized
Dataset, never on the driver.

Exactness contract: all arithmetic is INTEGER (rank mass in
``scale``-units, per-edge contribution ``(val * damp_pct) //
(100 * outdeg)`` with floor division), so sums are associative and the
result is bit-identical to the unrolled-CTE SQL twin regardless of
block order or parallelism — the same integer-exactness discipline as
the TPC-H family (``__ray_entry__.oracle_sql``).

Semantics (documented simplifications, mirrored exactly in the twin):
- multi-edges collapse to one (src, dst) edge;
- dangling nodes (no out-edges) leak their damped mass — no
  redistribution term (the classic simplified PageRank);
- fixed ``iters`` iterations, no convergence test (deterministic).

Overflow bound: values stay < total_mass * damp_pct ≈
n_nodes * scale * 85, so with the default scale=10^12 the int64 path
is safe to ~10^5 nodes per connected mass concentration; drop
``scale`` for bigger graphs.

Reference analogue: none (parquet-hs is a format reader); mandated
beyond-reference operator family.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data

from .groupagg import grouped_count, grouped_sum
from .relational import hash_join


def _distinct_pairs(edges: "ray.data.Dataset", src: str, dst: str
                    ) -> "ray.data.Dataset":
    e = grouped_count(edges, [src, dst], name="_one")
    return e.map_batches(lambda d: d[[src, dst]], batch_format="pandas")


def pagerank(edges: "ray.data.Dataset", src: str = "src", dst: str = "dst",
             iters: int = 5, scale: int = 10**12, damp_pct: int = 85
             ) -> "ray.data.Dataset":
    """Integer-exact simplified PageRank over a directed edge Dataset.

    Returns a Dataset of (node, rank_u) where ``rank_u`` is the rank in
    ``scale`` units after ``iters`` iterations from a uniform
    ``r0 = scale`` start: ``r'(v) = scale*(100-damp_pct)//100 +
    Σ_{u→v} (r(u)*damp_pct) // (100*outdeg(u))``."""
    if not (0 < damp_pct < 100):
        raise ValueError("damp_pct must be in (0, 100)")
    e = _distinct_pairs(edges, src, dst).materialize()

    deg = grouped_count(e, [src], name="outdeg")
    # outdeg rides along every edge for the per-edge floor division
    e_deg = hash_join(e, deg, src, src).materialize()

    def endpoints(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"node": np.concatenate(
            [df[src].to_numpy(), df[dst].to_numpy()])})

    nodes = grouped_count(e.map_batches(endpoints, batch_format="pandas"),
                          ["node"], name="_one") \
        .map_batches(lambda d: d[["node"]], batch_format="pandas") \
        .materialize()

    base = (scale * (100 - damp_pct)) // 100
    ranks = nodes.map_batches(
        lambda d: d.assign(val=np.int64(scale)), batch_format="pandas"
    ).materialize()

    for _ in range(iters):
        joined = hash_join(e_deg, ranks, src, "node")

        def contrib(df: pd.DataFrame) -> pd.DataFrame:
            c = (df["val"].to_numpy(dtype=np.int64) * damp_pct) \
                // (100 * df["outdeg"].to_numpy(dtype=np.int64))
            return pd.DataFrame({dst: df[dst].to_numpy(), "c": c})

        inflow = grouped_sum(
            joined.map_batches(contrib, batch_format="pandas"), [dst], ["c"])
        attached = hash_join(nodes, inflow, "node", dst, how="left")

        def next_rank(df: pd.DataFrame) -> pd.DataFrame:
            val = base + df["c"].fillna(0).to_numpy(dtype=np.int64)
            return pd.DataFrame({"node": df["node"].to_numpy(), "val": val})

        # node-sized materialize per iteration: keeps the lazy graph flat
        # (5 chained shuffle-joins would otherwise recompute per consumer)
        ranks = attached.map_batches(next_rank,
                                     batch_format="pandas").materialize()

    return ranks.map_batches(
        lambda d: d.rename(columns={"val": "rank_u"}), batch_format="pandas")
