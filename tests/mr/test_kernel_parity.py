"""End-to-end A/B parity of the growing-step kernels.

``REPRO_GROWING_KERNEL`` switches every execution path between the
legacy sort-based merge (argsort shuffle + lexsort tie-break) and the
scatter-min kernels.  This suite runs the full CLUSTER / CLUSTER2
drivers on a seeded R-MAT under both modes, across every executor, and
asserts the strongest possible contract: bit-identical clusterings and
bit-identical ``rounds`` / ``messages`` / ``updates`` /
``growing_steps`` counters.  The CI ``kernel-parity`` step runs exactly
this file — a kernel change that alters any observable is caught before
any benchmark is believed.
"""

import os

import numpy as np
import pytest

from repro.core.cluster import cluster
from repro.core.config import ClusterConfig
from repro.generators import rmat
from repro.graph.ops import largest_connected_component
from repro.mrimpl.cluster2_mr import mr_cluster2
from repro.mrimpl.cluster_mr import mr_cluster
from repro.mrimpl.growing_mr import default_engine

EXECUTORS = ("serial", "vector", "sharded")
MODES = ("sort", "scatter")
CFG = ClusterConfig(seed=42, stage_threshold_factor=1.0, tau=16)


@pytest.fixture(scope="module")
def graph():
    return largest_connected_component(rmat(9, edge_factor=8, seed=11))[0]


@pytest.fixture()
def kernel_mode_env():
    """Restore the kernel switch after each test."""
    before = os.environ.get("REPRO_GROWING_KERNEL")
    yield
    if before is None:
        os.environ.pop("REPRO_GROWING_KERNEL", None)
    else:
        os.environ["REPRO_GROWING_KERNEL"] = before


def run_mr(graph, algorithm, executor, mode):
    os.environ["REPRO_GROWING_KERNEL"] = mode
    engine = default_engine(graph, executor=executor, num_workers=2)
    try:
        return algorithm(graph, config=CFG, engine=engine)
    finally:
        if hasattr(engine.executor, "close"):
            engine.executor.close()


def assert_identical(a, b, *, messages=True):
    """Bit-identical clusterings and counters.

    ``messages=False`` skips the message counter: the per-key ``serial``
    path has always counted every pair in the round (state and adjacency
    records included), while the batch paths count shuffled candidates —
    a long-standing representation difference, not a kernel effect.
    """
    np.testing.assert_array_equal(a.center, b.center)
    np.testing.assert_array_equal(a.dist_to_center, b.dist_to_center)
    assert a.counters.rounds == b.counters.rounds
    if messages:
        assert a.counters.messages == b.counters.messages
    assert a.counters.updates == b.counters.updates
    assert a.counters.growing_steps == b.counters.growing_steps


@pytest.mark.parametrize("algorithm", [mr_cluster, mr_cluster2])
@pytest.mark.parametrize("executor", EXECUTORS)
def test_sort_and_scatter_agree_end_to_end(
    graph, algorithm, executor, kernel_mode_env
):
    results = {mode: run_mr(graph, algorithm, executor, mode) for mode in MODES}
    assert_identical(results["sort"], results["scatter"])


@pytest.mark.parametrize("algorithm", [mr_cluster, mr_cluster2])
def test_scatter_mode_matches_across_executors(graph, algorithm, kernel_mode_env):
    os.environ["REPRO_GROWING_KERNEL"] = "scatter"
    reference = run_mr(graph, algorithm, "vector", "scatter")
    for executor in EXECUTORS:
        assert_identical(
            run_mr(graph, algorithm, executor, "scatter"),
            reference,
            messages=executor != "serial",
        )


def test_core_cluster_sort_and_scatter_agree(graph, kernel_mode_env):
    results = {}
    for mode in MODES:
        os.environ["REPRO_GROWING_KERNEL"] = mode
        results[mode] = cluster(graph, config=CFG)
    assert_identical(results["sort"], results["scatter"])
