"""Data-validation / expectation suite over a Dataset (Deequ/Great-
Expectations shape): declarative per-column rules checked in ONE
distributed pass, result = one summary row per rule.

Rule forms (tuples):

- ``("not_null", col)``          — violations: rows where col IS NULL
- ``("unique", col)``            — violations: count(col) - count(DISTINCT col)
- ``("range", col, lo, hi)``     — violations: non-null rows outside [lo, hi]
- ``("in_set", col, values)``    — violations: non-null rows not in values
- ``("regex", col, pattern)``    — violations: non-null rows where the
  pattern does not match anywhere in the value (search semantics — the
  same partial-match rule as DuckDB ``regexp_matches`` / RE2, so the SQL
  twin is exact; keep patterns in the RE2-compatible subset)

Scale shape: row rules reduce to per-block (rule, n_checked,
n_violations) partials — the shuffle carries #rules × #blocks tiny rows,
never data.  ``unique`` needs global distinctness, so each block emits
its DISTINCT values once (cardinality-bounded, the same two-level
reduction as ``stats.grouped_distinct_count``) and the violation count is
``n_checked - ndv``.  The final merge is rules-count-bounded and happens
on the driver.

Reference analogue: none — the reference engine validates only physical
invariants (page sizes, codec ids; `/root/reference/src/Parquet/Stream/
Reader.hs:316-322`); this is the logical-layer counterpart the
training-data pipeline needs before documents enter the encode job.
"""

from __future__ import annotations

import re
from typing import Sequence

import numpy as np
import pandas as pd
import ray.data

_ROW_KINDS = ("not_null", "range", "in_set", "regex")
_KINDS = _ROW_KINDS + ("unique",)


def rule_name(rule: tuple) -> str:
    kind, col = rule[0], rule[1]
    if kind == "range":
        return f"range({col},{rule[2]},{rule[3]})"
    if kind == "in_set":
        return f"in_set({col})"
    if kind == "regex":
        return f"regex({col})"
    return f"{kind}({col})"


def _check_rules(rules: Sequence[tuple]) -> list[tuple]:
    out = []
    for r in rules:
        if not r or r[0] not in _KINDS:
            raise ValueError(f"unknown rule kind: {r!r}")
        if r[0] == "range" and len(r) != 4:
            raise ValueError(f"range rule needs (kind, col, lo, hi): {r!r}")
        if r[0] in ("in_set", "regex") and len(r) != 3:
            raise ValueError(f"{r[0]} rule needs 3 elements: {r!r}")
        out.append(tuple(r))
    return out


def validate(ds: "ray.data.Dataset", rules: Sequence[tuple]) -> "ray.data.Dataset":
    """Check every rule over ``ds``; returns a Dataset with columns
    ``rule`` (string), ``n_checked``, ``n_violations`` (int64)."""
    rules = _check_rules(rules)
    row_rules = [r for r in rules if r[0] in _ROW_KINDS]
    uniq_rules = [r for r in rules if r[0] == "unique"]

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        names, checked, viol = [], [], []
        n = len(batch)
        for r in row_rules:
            kind, col = r[0], r[1]
            s = batch[col]
            isnull = s.isna().to_numpy()
            if kind == "not_null":
                nc, nv = n, int(isnull.sum())
            elif kind == "range":
                lo, hi = r[2], r[3]
                v = pd.to_numeric(s, errors="coerce").to_numpy(dtype=np.float64,
                                                               na_value=np.nan)
                bad = (~isnull) & ((v < lo) | (v > hi))
                nc, nv = n, int(bad.sum())
            elif kind == "in_set":
                ok = s.isin(list(r[2])).to_numpy()
                nc, nv = n, int(((~ok) & (~isnull)).sum())
            else:  # regex — search semantics, matching DuckDB regexp_matches
                pat = re.compile(r[2])
                vals = s.to_numpy()
                nv = 0
                # small per-distinct memo: typical string columns repeat
                memo: dict = {}
                for x in vals:
                    if x is None or (isinstance(x, float) and np.isnan(x)):
                        continue
                    hit = memo.get(x)
                    if hit is None:
                        hit = pat.search(x) is not None
                        memo[x] = hit
                    if not hit:
                        nv += 1
                nc = n
            names.append(rule_name(r))
            checked.append(nc)
            viol.append(nv)
        for r in uniq_rules:
            # unique's n_checked = count of NON-NULL values (SQL COUNT(col))
            names.append(rule_name(r))
            checked.append(int(batch[r[1]].notna().sum()))
            viol.append(0)
        return pd.DataFrame({"rule": names,
                             "n_checked": np.asarray(checked, np.int64),
                             "n_violations": np.asarray(viol, np.int64)})

    from .groupagg import grouped_sum

    summed = grouped_sum(ds.map_batches(partial, batch_format="pandas"),
                         ["rule"], ["n_checked", "n_violations"]).to_pandas()
    # a 0-row input executes no blocks and the empty sum loses its
    # schema; every rule still gets a row (0 checked, 0 violations)
    skeleton = pd.DataFrame({"rule": [rule_name(r) for r in rules]})
    if "rule" not in summed.columns:
        summed = pd.DataFrame({"rule": pd.Series([], dtype=object),
                               "n_checked": pd.Series([], dtype=np.int64),
                               "n_violations": pd.Series([], dtype=np.int64)})
    summed = skeleton.merge(summed, on="rule", how="left")
    summed[["n_checked", "n_violations"]] = (
        summed[["n_checked", "n_violations"]].fillna(0).astype(np.int64))

    if uniq_rules:
        from .groupagg import grouped_agg, grouped_count

        def distinct_vals(batch: pd.DataFrame) -> pd.DataFrame:
            frames = []
            for r in uniq_rules:
                col = r[1]
                vals = batch[col].dropna().drop_duplicates().astype(str)
                frames.append(pd.DataFrame({"rule": rule_name(r),
                                            "value": vals.to_numpy()}))
            out = pd.concat(frames, ignore_index=True)
            out["one"] = np.int64(1)
            return out

        distinct = grouped_agg(ds.map_batches(distinct_vals, batch_format="pandas"),
                               ["rule", "value"], {"one": "min"})

        ndv = grouped_count(distinct, ["rule"], name="ndv").to_pandas()
        if "rule" not in ndv.columns:
            # all-empty distinct reduction (empty input / all-null unique
            # column): Ray's to_pandas drops the schema at 0 rows
            ndv = pd.DataFrame({"rule": pd.Series([], dtype=object),
                                "ndv": pd.Series([], dtype=np.int64)})
        summed = summed.merge(ndv, on="rule", how="left")
        is_u = summed["rule"].isin([rule_name(r) for r in uniq_rules])
        summed.loc[is_u, "n_violations"] = (
            summed.loc[is_u, "n_checked"]
            - summed.loc[is_u, "ndv"].fillna(0).astype(np.int64))
        summed = summed.drop(columns=["ndv"])

    summed["n_checked"] = summed["n_checked"].astype(np.int64)
    summed["n_violations"] = summed["n_violations"].astype(np.int64)
    summed = summed.sort_values("rule", kind="mergesort").reset_index(drop=True)
    return ray.data.from_pandas(summed)
