"""Execution backends for the MR engine.

For legacy per-key rounds the engine hands an executor a mapping
``{key: [values]}``; the executor partitions the key groups across
``num_workers`` simulated machines, applies the reducer to every group,
and reports per-worker loads so the engine can accumulate the round's
critical-path cost.  For batch rounds (see :mod:`repro.mr.batch`) the
engine performs the vectorized shuffle itself and hands executors that
implement ``run_batch`` the grouped ``(keys, offsets, values)`` arrays.

Three backends are selectable by name (:data:`EXECUTOR_NAMES`):

* :class:`SerialExecutor` (``serial``) — applies per-key reducers in one
  process.  This is the default and the paper-literal simulation;
  worker loads are still tracked so the critical-path *model* reflects a
  multi-machine platform.
* :class:`VectorExecutor` (``vector``) — runs batch rounds by applying
  the batch reducer to all groups in one NumPy call, in-process.  This
  is the fast single-host backend.
* the owner-compute :class:`~repro.mr.sharded.ShardedExecutor`
  (``sharded``), in :mod:`repro.mr.sharded`: persistent workers own a
  contiguous node range (memory-mapping their shard of a partitioned
  GraphStore) and rounds exchange only the candidates that cross shard
  boundaries.  It is the multi-process and out-of-core backend.

Every backend runs batch reducers in the engine's process (sharded
workers run the growing step themselves), so the engine may hand
scatter-capable reducers the ungrouped batch.  The batch backends still
accept legacy per-key rounds (delegated to the serial shard loop), so
one engine can mix batch hot-path rounds with per-key rounds in the
same computation.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.mr.partitioner import hash_partition

__all__ = [
    "SerialExecutor",
    "VectorExecutor",
    "make_executor",
    "EXECUTOR_NAMES",
]

Reducer = Callable[[Hashable, List[object]], Iterable[Tuple[Hashable, object]]]


def _apply_shard(shard, reducer):
    """Run a reducer over one worker's shard of key groups."""
    out: List[Tuple[Hashable, object]] = []
    load = 0
    for key, values in shard:
        load += len(values)
        produced = list(reducer(key, values))
        load += len(produced)
        out.extend(produced)
    return out, load


def _shard_groups(
    groups: Dict[Hashable, List[object]], num_workers: int
) -> List[List[Tuple[Hashable, List[object]]]]:
    shards: List[List[Tuple[Hashable, List[object]]]] = [
        [] for _ in range(num_workers)
    ]
    for key, values in groups.items():
        shards[hash_partition(key, num_workers)].append((key, values))
    return shards


class SerialExecutor:
    """Apply all reducers in-process, modelling ``num_workers`` machines."""

    def run(
        self,
        groups: Dict[Hashable, List[object]],
        reducer: Reducer,
        num_workers: int,
    ) -> Tuple[List[Tuple[Hashable, object]], List[int]]:
        shards = _shard_groups(groups, num_workers)
        output: List[Tuple[Hashable, object]] = []
        loads: List[int] = []
        for shard in shards:
            out, load = _apply_shard(shard, reducer)
            output.extend(out)
            loads.append(load)
        return output, loads


class VectorExecutor:
    """Vectorized single-process backend for batch rounds.

    ``run_batch`` applies the batch reducer to every group in one call —
    no per-key Python loop, no per-pair objects.  Legacy per-key rounds
    fall back to the serial shard loop so algorithms can mix both round
    kinds on one engine.
    """

    def run(
        self,
        groups: Dict[Hashable, List[object]],
        reducer: Reducer,
        num_workers: int,
    ) -> Tuple[List[Tuple[Hashable, object]], List[int]]:
        return SerialExecutor().run(groups, reducer, num_workers)

    def run_batch(
        self,
        keys: np.ndarray,
        offsets: np.ndarray,
        values: np.ndarray,
        reducer,
        num_workers: int,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        return reducer(keys, offsets, values)


#: CLI/config names of the selectable backends.
EXECUTOR_NAMES = ("serial", "vector", "sharded")


def make_executor(name: str, *, shards: Optional[int] = None):
    """Build an executor from its CLI/config name.

    ``serial`` is the paper-literal per-key simulation, ``vector`` the
    single-process vectorized batch backend, and ``sharded`` the
    owner-compute backend of :mod:`repro.mr.sharded` (persistent
    shard-owning workers, boundary-only exchange; ``shards`` sets the
    shard count, defaulting to the CPU count).  Raises
    :class:`~repro.errors.ConfigurationError` on any other name.
    """
    if name == "serial":
        return SerialExecutor()
    if name == "vector":
        return VectorExecutor()
    if name == "sharded":
        from repro.mr.sharded import ShardedExecutor

        return ShardedExecutor(num_shards=shards)
    raise ConfigurationError(
        f"unknown executor {name!r}; expected one of {', '.join(EXECUTOR_NAMES)}"
    )
