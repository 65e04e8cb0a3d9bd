"""Batch (array-valued) reducers for the vectorized MR execution path.

The legacy engine round materializes every ``(key, value)`` pair as a
Python object and groups them through a dict-of-lists — faithful to the
model, but the interpreter becomes the bottleneck long before the
algorithm does.  The batch protocol replaces the multiset with two
parallel arrays:

* ``keys`` — ``int64`` reducer keys, one per pair;
* ``values`` — a ``float64`` matrix with one row per pair (``d`` columns
  of payload).

:meth:`repro.mr.engine.MREngine.round_batch` performs the shuffle with a
stable ``np.argsort`` — the vectorized equivalent of the dict-of-lists
grouping.  A **batch reducer** then processes *all*
groups in one call::

    reduce_batch(keys, offsets, values) -> (out_keys, out_values, out_counts)

where ``keys`` holds the ``g`` distinct group keys in ascending order,
``offsets`` is a ``g + 1`` prefix array such that group ``i`` owns rows
``values[offsets[i]:offsets[i + 1]]`` (rows within a group preserve input
order — the shuffle is stable, exactly like the legacy path), and the
result is a new pair batch plus ``out_counts[i]`` = number of output rows
produced by group ``i``.  The counts let the engine attribute output
traffic to the worker that hosts the producing group, keeping the
critical-path time model identical to the per-key path.

Reducers here are module-level functions (or ``functools.partial`` of
them).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["PairBatch", "group_min_first", "group_sum", "group_count"]

#: The value a batch round trades in: ``(keys, values, counts)`` arrays.
PairBatch = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _group_ids(num_groups: int, offsets: np.ndarray) -> np.ndarray:
    return np.repeat(np.arange(num_groups, dtype=np.int64), np.diff(offsets))


def group_min_first(
    keys: np.ndarray,
    offsets: np.ndarray,
    values: np.ndarray,
    sort_cols: int = None,
) -> PairBatch:
    """Keep, per group, the first row among those minimizing ``sort_cols``.

    Rows compare lexicographically on their leading ``sort_cols`` columns
    (all columns when ``None``); among fully tied rows the earliest in
    input order wins, because ``np.lexsort`` is stable.  With
    ``sort_cols=2`` over ``(distance, center, ...)`` rows this is exactly
    the paper's relaxation tie-break — smallest distance, then smallest
    center index, then arrival order — as implemented by both the
    vectorized core path and the per-key ``_growing_reducer``.

    This is the **reference oracle**: the O(rows) scatter-min kernels of
    :mod:`repro.mr.kernels` implement the identical tie-break without
    sorting and are property-tested against this function.
    """
    num_groups = len(keys)
    if num_groups == 0:
        return keys, values, np.zeros(0, dtype=np.int64)
    d = values.shape[1] if sort_cols is None else int(sort_cols)
    gid = _group_ids(num_groups, offsets)
    order = np.lexsort(
        tuple(values[:, c] for c in range(d - 1, -1, -1)) + (gid,)
    )
    firsts = order[offsets[:-1]]
    return keys, values[firsts], np.ones(num_groups, dtype=np.int64)


def group_sum(keys: np.ndarray, offsets: np.ndarray, values: np.ndarray) -> PairBatch:
    """Column-wise sum per group (one output row per group)."""
    num_groups = len(keys)
    if num_groups == 0:
        return keys, values, np.zeros(0, dtype=np.int64)
    sums = np.add.reduceat(values, offsets[:-1], axis=0)
    return keys, sums, np.ones(num_groups, dtype=np.int64)


def group_count(keys: np.ndarray, offsets: np.ndarray, values: np.ndarray) -> PairBatch:
    """Group sizes (the word-count reducer of the batch world)."""
    num_groups = len(keys)
    counts = np.diff(offsets).astype(np.float64).reshape(-1, 1)
    return keys, counts, np.ones(num_groups, dtype=np.int64)
