"""Growing-step kernels — sort-based merge vs O(C) scatter-min kernels.

The executor bench (``bench_executor_backends.py``) varies the *engine*;
this bench varies the *kernel* on the same Figure-4-family workload
(R-MAT LCC, CLUSTER with capped growth): for every backend it runs the
identical clustering twice, once with ``REPRO_GROWING_KERNEL=sort``
(the legacy stable-argsort shuffle + ``np.lexsort`` tie-break) and once
with the default scatter kernels (counting-sort shuffle,
``np.minimum.at`` / ``reduceat`` merge, frontier-proportional rounds).
Clusterings and rounds/messages/updates counters must be bit-identical
— the kernels may only move time, never results (asserted below, and by
``tests/mr/test_kernel_parity.py`` on every CI run).

Backends:

* ``serial``   — the serial core reference path
  (:func:`repro.core.cluster.cluster`), whose per-step winner selection
  switches between ``np.lexsort`` and the scatter kernel.  (The per-key
  MR simulation contains no array kernels at all — its reducer is a
  Python loop — and needs minutes per run at this scale, so the serial
  *core* path is what a kernel A/B can meaningfully measure.)
* ``vector``   — single-process batch engine: the counting-sort shuffle
  plus the ungrouped scatter merge replace argsort+lexsort entirely.
* ``sharded``  — owner-compute workers merge their resident candidates
  with dense per-shard scatter buffers.

Run on demand (CI runs it at ``REPRO_BENCH_SCALE=12`` for smoke and
artifact regeneration)::

    PYTHONPATH=src python -m pytest benchmarks/bench_growing_kernels.py -q
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from conftest import write_bench_records, write_result
from repro.bench.reporting import bench_record, format_table
from repro.core.cluster import cluster
from repro.core.config import ClusterConfig
from repro.generators import rmat
from repro.graph.ops import largest_connected_component
from repro.mr import native
from repro.mr.kernels import KERNEL_ENV
from repro.mrimpl.cluster_mr import mr_cluster
from repro.mrimpl.growing_mr import default_engine

BACKENDS = ("serial", "vector", "sharded")
MODES = ("sort", "scatter")
#: The native C tier A/Bs the scatter path only (the sort path is the
#: legacy baseline); rows get a ``-native`` suffix.
IMPLS = ("py", "native") if native.native_available() else ("py",)
SCALE = int(os.environ.get("REPRO_BENCH_SCALE", "18"))
WORKERS = 4
CFG = ClusterConfig(
    seed=42, stage_threshold_factor=1.0, tau=64, growing_step_cap=6
)


@pytest.fixture(scope="module")
def workload():
    return largest_connected_component(rmat(SCALE, edge_factor=8, seed=11))[0]


def _run(graph, backend: str, mode: str, impl: str = "py"):
    before = os.environ.get(KERNEL_ENV)
    os.environ[KERNEL_ENV] = mode
    _stack = native.impl_overrides(impl, None)
    _stack.__enter__()
    try:
        if backend == "serial":
            start = time.perf_counter()
            clustering = cluster(graph, config=CFG)
            timings = clustering.counters.timing_snapshot()
            return clustering, 0, time.perf_counter() - start, timings
        engine = default_engine(graph, executor=backend, num_workers=WORKERS)
        start = time.perf_counter()
        try:
            clustering = mr_cluster(graph, config=CFG, engine=engine)
        finally:
            if hasattr(engine.executor, "close"):
                engine.executor.close()
        elapsed = time.perf_counter() - start
        return (
            clustering,
            getattr(engine.executor, "bytes_shipped", 0),
            elapsed,
            engine.counters.timing_snapshot(),
        )
    finally:
        _stack.__exit__(None, None, None)
        if before is None:
            os.environ.pop(KERNEL_ENV, None)
        else:
            os.environ[KERNEL_ENV] = before


def test_kernel_speedup_report(benchmark, workload):
    def sweep():
        results = {
            (backend, mode, "py"): _run(workload, backend, mode)
            for backend in BACKENDS
            for mode in MODES
        }
        if "native" in IMPLS:
            for backend in BACKENDS:
                results[(backend, "scatter", "native")] = _run(
                    workload, backend, "scatter", "native"
                )
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = []
    bench_rows = []
    for backend in BACKENDS:
        ref, _, sort_time, _ = results[(backend, "sort", "py")]
        for mode, impl in [(m, "py") for m in MODES] + (
            [("scatter", "native")] if "native" in IMPLS else []
        ):
            clustering, shipped, elapsed, timings = results[
                (backend, mode, impl)
            ]
            # The kernels may only move time, never results: identical
            # clusterings AND identical counters, per backend.
            assert np.array_equal(clustering.center, ref.center)
            assert np.array_equal(
                clustering.dist_to_center, ref.dist_to_center
            )
            assert clustering.counters.rounds == ref.counters.rounds
            assert clustering.counters.messages == ref.counters.messages
            assert clustering.counters.updates == ref.counters.updates
            rows.append(
                {
                    "backend": backend,
                    "kernel": mode,
                    "impl": impl,
                    "wall_s": round(elapsed, 2),
                    "speedup_vs_sort": round(sort_time / elapsed, 2),
                    "rounds": clustering.counters.rounds,
                    "updates": clustering.counters.updates,
                }
            )
            name = f"{backend}-{mode}"
            if impl == "native":
                name += "-native"
            bench_rows.append(
                bench_record(
                    workload=f"rmat{SCALE}_lcc_cluster",
                    n=workload.num_nodes,
                    m=workload.num_edges,
                    backend=name,
                    wall_s=elapsed,
                    rounds=clustering.counters.rounds,
                    bytes_shipped=shipped,
                    kernel=mode,
                    impl=impl,
                    speedup_vs_sort=round(sort_time / elapsed, 2),
                    updates=clustering.counters.updates,
                    timings=timings,
                )
            )
    write_bench_records("BENCH_growing_kernels.json", bench_rows)

    write_result(
        "growing_kernels.txt",
        format_table(
            rows,
            title=(
                f"Growing-step kernels on R-MAT({SCALE}) LCC "
                f"(n={workload.num_nodes}, m={workload.num_edges}, "
                f"{WORKERS} workers; sort = legacy argsort+lexsort, "
                f"scatter = counting-sort shuffle + scatter-min merge)"
            ),
        ),
    )

    # Headline claims.  At smoke scales the per-round overheads dominate
    # and a scheduling hiccup can invert a sub-10ms gap, so both timing
    # bars only apply from R-MAT(16) up (CI smoke checks parity and
    # artifact generation, not speed).
    if SCALE >= 16:
        vector_sort = results[("vector", "sort", "py")][2]
        vector_scatter = results[("vector", "scatter", "py")][2]
        # The acceptance bar: the scatter kernels at least halve the
        # vector backend's wall-clock (the 19.7 s baseline recorded in
        # BENCH_executor_backends.json was this sort path).
        assert vector_scatter * 2 <= vector_sort
