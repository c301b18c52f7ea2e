"""One predicate engine for every store: the grammar, the op table, the
one-sided statistics test and the exact Arrow mask.

The reference parses per-chunk Statistics but never uses them
(`/root/reference/src/Parquet/Types/Primitives.hs:79-87`); here they
prune.  Every pruner — the blob store's manifest min/max, null counts
and Bloom filters, and the kernel Parquet read's footer statistics,
page index, Bloom filters and dictionary pages — and every exact
filter (`DecoderStage`, ``delete_rows``, the kernel read tasks) asks
this module what an op means, so the stores cannot disagree.

Grammar: one ``(column, op, value)`` triple or an AND-list of them.

==========================  ==================================
``== != < <= > >=``         compare with a scalar
``in``                      SQL IN: ``value`` is a list of members
``between``                 inclusive: ``value`` is ``(lo, hi)``
``contains``                a list column holds element ``value``
``is_null`` / ``is_not_null``  ``value`` is ignored (pass None)
==========================  ==================================

SQL semantics: a comparison with NULL is not TRUE, so NULL rows match
only ``is_null``.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _contains(c, v) -> pa.Array:
    """List-column element membership: one flattened compare and an
    offset search, no per-row Python.  NULL lists never match."""
    arr = c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c
    t = arr.type
    if pa.types.is_fixed_size_list(t):
        # .values (not .flatten()) keeps null slots' storage, so the
        # reshape stays row-aligned
        w = t.list_size
        vals = arr.values.to_numpy(zero_copy_only=False)
        vals = vals[arr.offset * w:(arr.offset + len(arr)) * w]
        bools = (vals == v).reshape(-1, w).any(axis=1)
        bools &= pc.is_valid(arr).to_numpy(zero_copy_only=False)
        return pa.array(bools)
    if not (pa.types.is_list(t) or pa.types.is_large_list(t)):
        raise ValueError(f"'contains' needs a list column, got {t}")
    offs = arr.offsets.to_numpy()
    vals = arr.values.to_numpy(zero_copy_only=False)
    rows = np.searchsorted(offs, np.flatnonzero(vals == v), side="right") - 1
    bools = np.zeros(len(arr), dtype=bool)
    bools[rows] = True
    return pa.array(bools)


def _always(lo, hi, v) -> bool:
    return True


class Op(NamedTuple):
    # may a non-null value in [lo, hi] satisfy the op?  One-sided: a
    # TypeError (incomparable stats and value) means "keep"
    may_match: Callable
    # the exact per-row test over an Arrow column
    mask: Callable
    # members of which a matching row must hold one (== in contains):
    # the probes Bloom filters and dictionaries answer for
    members: Callable | None = None
    # whether a NULL row satisfies the op
    matches_null: bool = False


OPS: dict[str, Op] = {
    "==": Op(lambda lo, hi, v: lo <= v <= hi, pc.equal, lambda v: [v]),
    "!=": Op(lambda lo, hi, v: not (lo == hi == v), pc.not_equal),
    "<": Op(lambda lo, hi, v: lo < v, pc.less),
    "<=": Op(lambda lo, hi, v: lo <= v, pc.less_equal),
    ">": Op(lambda lo, hi, v: hi > v, pc.greater),
    ">=": Op(lambda lo, hi, v: hi >= v, pc.greater_equal),
    "in": Op(lambda lo, hi, v: any(lo <= x <= hi for x in v),
             lambda c, v: pc.is_in(c, value_set=pa.array(list(v))),
             list),
    "between": Op(lambda lo, hi, v: lo <= v[1] and v[0] <= hi,
                  lambda c, v: pc.and_kleene(pc.greater_equal(c, v[0]),
                                             pc.less_equal(c, v[1]))),
    # list-column min/max are over the flattened elements
    "contains": Op(lambda lo, hi, v: lo <= v <= hi, _contains,
                   lambda v: [v]),
    # the null tests are decided by null counts, not by min/max
    "is_null": Op(_always, lambda c, v: pc.is_null(c), matches_null=True),
    "is_not_null": Op(_always, lambda c, v: pc.is_valid(c)),
}


def normalize(predicate) -> list[tuple]:
    """``None``, one ``(col, op, value)`` triple or an AND-list of them
    -> a list of triples.  Raises ``ValueError`` naming an unknown op or
    a malformed triple."""
    if predicate is None:
        return []
    if isinstance(predicate, tuple) and len(predicate) == 3 and \
            isinstance(predicate[0], str):
        predicate = [predicate]
    preds = []
    for p in predicate:
        if not isinstance(p, (tuple, list)) or len(p) != 3 or \
                not isinstance(p[0], str):
            raise ValueError(f"predicate must be (col, op, value): {p!r}")
        col, op, v = p
        if op not in OPS:
            raise ValueError(
                f"unknown predicate op {op!r} (use {sorted(OPS)})")
        if op == "between" and (isinstance(v, (str, bytes))
                                or not hasattr(v, "__len__")
                                or len(v) != 2):
            raise ValueError(f"'between' takes a (lo, hi) pair: {p!r}")
        if op == "in" and (isinstance(v, (str, bytes))
                           or not hasattr(v, "__iter__")):
            raise ValueError(f"'in' takes a list of members: {p!r}")
        preds.append((col, op, v))
    return preds


def may_match(op: str, v, lo=None, hi=None, nulls=None, rows=None) -> bool:
    """False only when a chunk's statistics PROVE no row satisfies
    ``(col, op, v)``: its ``[lo, hi]`` min/max over non-null values
    (None = unknown) and its ``nulls`` of ``rows`` null count (None =
    unknown)."""
    spec = OPS[op]
    counted = nulls is not None and rows is not None
    if counted and nulls >= rows:
        return spec.matches_null and rows > 0  # every row is NULL
    if spec.matches_null:
        return not counted or nulls > 0
    if lo is None or hi is None:
        return True
    try:
        return bool(spec.may_match(lo, hi, v))
    except TypeError:
        return True


def absent_may_match(op: str, v, rows) -> bool:
    """The absent-column rule: a column a chunk lacks (a blob written
    before the column existed) holds ``rows`` NULLs, so only an op NULL
    satisfies can match there."""
    return may_match(op, v, None, None, rows, rows)


def members(op: str, v) -> list | None:
    """The values one of which a matching row must hold (``==``, ``in``,
    ``contains``), or None for ops a membership test cannot decide."""
    get = OPS[op].members
    return None if get is None else get(v)


def mask(t: pa.Table, preds: list) -> pa.Array:
    """Exact boolean mask of a normalized conjunction over ``t``:
    Kleene AND of the ops' Arrow results, NULL filled to False."""
    out = None
    for col, op, v in preds:
        m = OPS[op].mask(t[col], v)
        out = m if out is None else pc.and_kleene(out, m)
    return pc.fill_null(out, False)


def leaf_index(schema: pa.Schema) -> dict:
    """Flat top-level column name -> (parquet leaf index, arrow type).
    Leaves are contiguous in depth-first order, so each field owns the
    next ``_leaf_count(type)`` of them.  Nested columns are left out: a
    flat column literally named ``"s.x"`` must not collide with the
    nested leaf path ``s.x``."""
    from .sources.parquet_pages import _leaf_count

    out, nxt = {}, 0
    for f in schema:
        if not pa.types.is_nested(f.type):
            out[f.name] = (nxt, f.type)
        nxt += _leaf_count(f.type)
    return out
