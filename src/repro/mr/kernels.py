"""O(C) scatter-min kernels for the growing-step merge.

The Δ-growing step's merge half — "per target node, keep the winning
``(distance, center, arrival)`` candidate" — was historically a sort:
group the candidate batch with a stable ``np.argsort``, then resolve
each group with an ``np.lexsort`` over the tie-break columns
(:func:`repro.mr.batch.group_min_first`).  Sorting costs
``O(C log C)`` per round and, at R-MAT(18) scale, dominates the whole
clustering wall-clock.  The kernels here compute the *same* winners in
``O(C)`` data movement:

1. scatter-min the distance column per target (``np.minimum.at`` on a
   dense per-target buffer, or ``np.minimum.reduceat`` when the batch is
   already grouped);
2. restrict to the rows achieving their target's minimum distance and
   scatter-min the center column among them;
3. among full ``(distance, center)`` ties, keep the earliest arrival —
   a scatter-min over the *row index*, which is exactly the "stable
   first" rule the sorting implementation enforced.

Because each pass narrows the candidate set by exact equality against
the per-target minimum, the surviving row is the lexicographic minimum
— bit-identical to the sort-based tie-break (the property suite in
``tests/mr/test_kernels.py`` pits every kernel against the
:func:`~repro.mr.batch.group_min_first` oracle, which is kept unchanged
for exactly that purpose).  The kernels assume NaN-free columns; the
growing step only produces finite candidate rows.

Two layouts are provided, one per execution context:

* :func:`scatter_group_min_first` — a drop-in **batch reducer** (same
  signature and output as ``group_min_first``) that replaces the
  lexsort with ``np.minimum.reduceat`` passes over the grouped rows,
  for rounds whose keys take the argsort shuffle.
* :func:`scatter_min_rows` — the **ungrouped** kernel: candidates stay
  in arrival order and the reduction scatters into dense per-target
  buffers (:class:`ScatterScratch`, preallocated once and reset only on
  the touched targets, so rounds cost O(candidates) regardless of
  ``n``).  This is the hot path of the vector backend (via the engine's
  counting-sort shuffle), the serial core step, and the sharded
  workers' resident merge.

``REPRO_GROWING_KERNEL=sort`` switches every growing path back to the
legacy sort-based kernels — the switch exists for the A/B benchmark
(``benchmarks/bench_growing_kernels.py``) and the CI parity job, which
assert that both modes produce identical clusterings *and* counters.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.mr import native as _native

__all__ = [
    "ScatterScratch",
    "CountScratch",
    "scatter_min_rows",
    "scatter_group_min_first",
    "merge_candidates",
    "counting_group_keys",
    "merge_kernel_name",
    "KERNEL_ENV",
]

#: Environment switch for the growing-step kernels: ``scatter`` (default)
#: or ``sort`` (the legacy argsort/lexsort path, kept for A/B parity).
KERNEL_ENV = "REPRO_GROWING_KERNEL"

#: "No row yet" sentinel of the first-arrival scatter pass.
_ROW_SENTINEL = np.iinfo(np.int64).max


def merge_kernel_name() -> str:
    """Active growing-kernel implementation: ``"scatter"`` or ``"sort"``.

    Read from :data:`KERNEL_ENV` on every call so benchmarks (and the CI
    parity job) can flip modes between runs in one process; anything but
    ``sort`` means the scatter kernels.
    """
    return "sort" if os.environ.get(KERNEL_ENV) == "sort" else "scatter"


class ScatterScratch:
    """Reusable dense buffers for the ungrouped scatter-min kernels.

    One buffer per tie-break column plus one int64 row buffer, each of
    the id-domain size.  Buffers are allocated (``np.empty`` — contents
    are irrelevant, every kernel call writes its touched ids before
    reading them) on first use and grown monotonically, so a state that
    keeps one scratch across rounds performs zero per-round allocation
    on the dense side.
    """

    __slots__ = ("_cols", "_rows", "_size", "_stamp", "_gen", "_out")

    def __init__(self) -> None:
        self._cols: List[np.ndarray] = []
        self._rows: Optional[np.ndarray] = None
        self._size = 0
        # Native-tier extras (allocated on first native dispatch): a
        # generation-stamp buffer that lets the single-pass C kernel
        # skip the per-call dense reset, plus the distinct-id/row output
        # buffers it sorts into.
        self._stamp: Optional[np.ndarray] = None
        self._gen = 0
        self._out: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def ensure(
        self, domain: int, ncols: int
    ) -> Tuple[List[np.ndarray], np.ndarray]:
        """Return ``ncols`` float64 buffers plus the row buffer, each ≥ ``domain``."""
        if domain > self._size:
            self._size = int(domain)
            self._cols = [np.empty(self._size) for _ in self._cols]
            self._rows = np.empty(self._size, dtype=np.int64)
        while len(self._cols) < ncols:
            self._cols.append(np.empty(self._size))
        if self._rows is None:
            self._rows = np.empty(self._size, dtype=np.int64)
        return self._cols[:ncols], self._rows

    def ensure_native(self, domain: int, ncols: int):
        """Buffers + stamp generation for the native single-pass kernel."""
        cols, rows = self.ensure(domain, ncols)
        if self._stamp is None or len(self._stamp) < self._size:
            self._stamp = np.zeros(self._size, dtype=np.int64)
            self._gen = 0  # fresh zeros can never equal a positive gen
            self._out = (
                np.empty(self._size, dtype=np.int64),
                np.empty(self._size, dtype=np.int64),
            )
        self._gen += 1
        return cols, rows, self._stamp, self._gen, self._out[0], self._out[1]


def scatter_min_rows(
    ids: np.ndarray,
    cols: Sequence[np.ndarray],
    *,
    domain: int,
    scratch: Optional[ScatterScratch] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Winning row per distinct id, without grouping or sorting the rows.

    ``ids`` are int64 in ``[0, domain)`` (one per candidate row, in
    arrival order) and ``cols`` the tie-break columns in priority order;
    the winner of an id is the row minimizing
    ``(cols[0], cols[1], ..., arrival index)`` — the paper's relaxation
    tie-break when called with ``(distance, center)``.  Columns must be
    float64 (cast integer columns first; ids fit exactly) and NaN-free.

    Each pass resets the dense buffer only on the ids present in the
    batch, scatter-mins the column, and keeps the rows that achieve
    their id's minimum — so total work is O(rows · columns), independent
    of ``domain``.  Returns ``(distinct ids ascending, winner row per
    id)``.
    """
    scratch = scratch if scratch is not None else ScatterScratch()
    num_rows = len(ids)
    if num_rows == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if len(cols) <= 3 and _native.use_native():
        return _native.scatter_min_rows(
            ids, cols, domain=domain, scratch=scratch
        )
    col_bufs, row_buf = scratch.ensure(domain, len(cols))

    rows: Optional[np.ndarray] = None  # None = all rows still alive
    sub_ids = ids
    for col, buf in zip(cols, col_bufs):
        if rows is not None:
            col = col[rows]
        buf[sub_ids] = np.inf
        np.minimum.at(buf, sub_ids, col)
        keep = col == buf[sub_ids]
        rows = np.flatnonzero(keep) if rows is None else rows[keep]
        sub_ids = ids[rows]
    if rows is None:  # no tie-break columns: earliest arrival wins outright
        rows = np.arange(num_rows, dtype=np.int64)
        sub_ids = ids

    row_buf[sub_ids] = _ROW_SENTINEL
    np.minimum.at(row_buf, sub_ids, rows)
    winners = rows[row_buf[sub_ids] == rows]
    winner_ids = ids[winners]
    order = np.argsort(winner_ids)  # distinct ids: tiny vs the row count
    return winner_ids[order], winners[order]


class CountScratch:
    """Reusable histogram / prefix-sum buffers for the counting shuffle.

    :func:`counting_group_keys` historically allocated a fresh
    O(key-domain) histogram (``np.bincount``) plus a fresh offsets array
    every round.  A :class:`CountScratch` keyed by the largest
    ``key_bound`` seen replaces both with buffers that are grown
    monotonically and reused, mirroring what :class:`ScatterScratch`
    already does on the reduce side: a state (or engine) that keeps one
    scratch across rounds performs zero per-round dense allocation on
    the shuffle side.  The histogram buffer is kept **all-zero between
    calls** — after reading the counts, exactly the touched entries are
    zeroed again — so a skinny round pays O(rows + groups), not
    O(domain), to reset it.
    """

    __slots__ = ("_hist", "_offsets", "_gk", "_gc")

    def __init__(self) -> None:
        self._hist: Optional[np.ndarray] = None
        self._offsets: Optional[np.ndarray] = None
        # Native-tier distinct-key/count output buffers (sized to the
        # key bound: the distinct count can never exceed it).
        self._gk: Optional[np.ndarray] = None
        self._gc: Optional[np.ndarray] = None

    def native_out(self, bound: int) -> Tuple[np.ndarray, np.ndarray]:
        """Distinct-key and count buffers of at least ``bound``."""
        if self._gk is None or len(self._gk) < bound:
            self._gk = np.empty(max(int(bound), 1024), dtype=np.int64)
            self._gc = np.empty(max(int(bound), 1024), dtype=np.int64)
        return self._gk, self._gc

    def hist(self, bound: int) -> np.ndarray:
        """An all-zero int64 histogram buffer of at least ``bound``."""
        if self._hist is None or len(self._hist) < bound:
            self._hist = np.zeros(
                max(int(bound), 2 * len(self._hist) if self._hist is not None else 0),
                dtype=np.int64,
            )
        return self._hist

    def offsets(self, num_groups: int) -> np.ndarray:
        """An int64 prefix-sum buffer of at least ``num_groups + 1``."""
        if self._offsets is None or len(self._offsets) < num_groups + 1:
            self._offsets = np.empty(
                max(num_groups + 1, 1024), dtype=np.int64
            )
        return self._offsets


def counting_group_keys(
    keys: np.ndarray,
    bound: int,
    *,
    with_offsets: bool = True,
    scratch: Optional[CountScratch] = None,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Counting-sort shuffle of bounded int64 keys: histogram + prefix sum.

    The grouping half of a stable counting sort — a dense histogram
    over the bounded key domain plus a prefix sum — in O(rows + bound),
    replacing the engine's stable ``np.argsort``.  Returns
    ``(group_keys, counts, offsets)``: distinct keys ascending, the size
    of each group, and the ``g + 1`` prefix array, exactly the layout
    the argsort shuffle derives (``offsets`` is ``None`` under
    ``with_offsets=False`` — the engine's scatter path consumes only
    keys and counts).  The rows themselves are *not* permuted; reducers
    that need physically grouped rows still gather via argsort,
    scatter-capable reducers never need them.

    ``scratch``, when given, supplies the histogram and prefix-sum
    buffers (reused across rounds, grown monotonically); without it the
    function allocates fresh ones per call as before.  The returned
    ``counts``/``offsets`` are views into the scratch, valid until the
    next call with the same scratch.
    """
    if scratch is None:
        dense = np.bincount(keys, minlength=bound)
        group_keys = np.flatnonzero(dense)
        counts = dense[group_keys].astype(np.int64)
    elif _native.use_native():
        # Single C pass replaces the buffered np.add.at scatter; the
        # scratch histogram's all-zero invariant is restored in-kernel.
        gk_buf, gc_buf = scratch.native_out(bound)
        g = _native.count_keys(keys, scratch.hist(bound), gk_buf, gc_buf)
        group_keys = gk_buf[:g]  # the astype below makes the owned copy
        counts = gc_buf[:g].copy()
    else:
        dense = scratch.hist(bound)
        np.add.at(dense, keys, 1)
        group_keys = np.flatnonzero(dense[:bound])
        counts = dense[group_keys].copy()
        dense[group_keys] = 0  # restore the all-zero invariant
    offsets = None
    if with_offsets:
        if scratch is None:
            offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        else:
            buf = scratch.offsets(len(group_keys))
            buf[0] = 0
            np.cumsum(counts, out=buf[1 : len(group_keys) + 1])
            offsets = buf[: len(group_keys) + 1]
    return group_keys.astype(np.int64), counts, offsets


def scatter_group_min_first(
    keys: np.ndarray,
    offsets: np.ndarray,
    values: np.ndarray,
    sort_cols: Optional[int] = None,
):
    """Scatter-min drop-in for :func:`repro.mr.batch.group_min_first`.

    Same signature, same output — per group, the first row in input
    order among those minimizing the leading ``sort_cols`` columns — but
    the lexsort is replaced by one ``np.minimum.reduceat`` pass per
    tie-break column over the (already grouped) rows, then a reduceat on
    the row index for the first-arrival rule.  O(rows · columns)
    instead of O(rows · log rows).  Assumes NaN-free columns.
    """
    num_groups = len(keys)
    if num_groups == 0:
        return keys, values, np.zeros(0, dtype=np.int64)
    d = values.shape[1] if sort_cols is None else int(sort_cols)
    if _native.use_native():
        firsts = _native.group_min_first_rows(values, d, offsets)
        if firsts is not None:  # None: layout needs the pure fallback
            return keys, values[firsts], np.ones(num_groups, dtype=np.int64)
    starts = offsets[:-1]
    sizes = np.diff(offsets)
    gid = np.repeat(np.arange(num_groups, dtype=np.int64), sizes)

    alive: Optional[np.ndarray] = None  # None = every row still tied
    for c in range(d):
        col = values[:, c]
        if alive is None:
            gmin = np.minimum.reduceat(col, starts)
            alive = col == gmin[gid]
        else:
            gmin = np.minimum.reduceat(np.where(alive, col, np.inf), starts)
            alive &= col == gmin[gid]

    rows = np.arange(len(gid), dtype=np.int64)
    if alive is not None:
        rows = np.where(alive, rows, np.int64(len(gid)))
    firsts = np.minimum.reduceat(rows, starts)
    return keys, values[firsts], np.ones(num_groups, dtype=np.int64)


def merge_candidates(keys, offsets, values):
    """The growing-step merge as a batch reducer (scatter implementation).

    Per target node, the winning ``(nd, center, dacc)`` row under the
    paper's tie-break — smallest distance, then smallest center, then
    earliest arrival (``sort_cols=2``: ``dacc`` rides along with the
    winner, it never breaks ties).  Drop-in for the legacy
    ``partial(group_min_first, sort_cols=2)`` reducer.
    """
    return scatter_group_min_first(keys, offsets, values, sort_cols=2)


def _merge_candidates_ungrouped(keys, values, group_keys, bound, scratch):
    """Ungrouped fast path of :func:`merge_candidates`.

    Invoked by :meth:`repro.mr.engine.MREngine.round_batch` when the
    counting-sort shuffle applies: the candidate rows never get
    permuted — the winners come straight from the dense scatter.  ``group_keys`` (ascending, from the
    counting shuffle) is exactly the id set the scatter returns, so the
    output matches the grouped reducer's bit for bit.
    """
    out_keys, rows = scatter_min_rows(
        keys,
        (values[:, 0], values[:, 1]),
        domain=bound,
        scratch=scratch,
    )
    return out_keys, values[rows], np.ones(len(out_keys), dtype=np.int64)


#: Marks :func:`merge_candidates` as scatter-capable for the engine.
merge_candidates.ungrouped_reduce = _merge_candidates_ungrouped
