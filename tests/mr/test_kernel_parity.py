"""Golden end-to-end values of the growing-step merge.

The growing step's tie-break — smallest distance, then smallest center,
then earliest arrival — was first implemented as a sort (stable argsort
shuffle + lexsort per group) and later replaced by the O(candidates)
scatter-min kernels of :mod:`repro.mr.kernels`.  The two ran side by
side, asserted bit-identical on every executor, until the sort pipeline
was retired.  This suite keeps its last answers: the values below were
recorded from the sort pipeline on a seeded R-MAT(9) LCC — once with
uniform random weights and once with unit weights, where distance ties
are everywhere and the center / arrival tie-breaks decide most
winners — and every backend must still reproduce them — the clustering (as a digest of
``center`` and ``dist_to_center``) and the ``rounds`` / ``messages`` /
``updates`` / ``growing_steps`` counters.  Pinning ``messages`` keeps
the absolute message count checked now that no second implementation
exists to compare it against.
"""

import hashlib

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
CFG = ClusterConfig(seed=42, stage_threshold_factor=1.0, tau=16)

#: Configurations under test: the single-stage run every parity suite
#: uses, and a multi-stage CLUSTER run (small τ, low stage threshold).
CONFIGS = {
    "single-stage": CFG,
    "multi-stage": ClusterConfig(seed=7, stage_threshold_factor=0.1, tau=2),
}

#: (rounds, messages, updates, growing_steps, digest) recorded from the
#: sort-based merge, keyed by (edge weights, configuration).  The per-key
#: ``serial`` executor counts messages differently (every pair of the
#: round), so only the batch backends and the core path are pinned here.
GOLDEN = {
    ("uniform", "single-stage"): {
        "cluster": (2, 1908, 113, 2, "09d44b80bfbe6195"),
        "cluster2": (28, 50092, 1261, 28, "79b5e1aab49cd6e0"),
        "core-cluster": (1, 1908, 113, 1, "09d44b80bfbe6195"),
    },
    ("uniform", "multi-stage"): {
        "cluster": (9, 10542, 398, 9, "5fa7a00dd9faa238"),
        "cluster2": (22, 27953, 1358, 22, "3785de5f33ad9285"),
        "core-cluster": (5, 2280, 398, 5, "5fa7a00dd9faa238"),
    },
    ("unit", "single-stage"): {
        "cluster": (2, 3641, 136, 2, "021964fcc6392a54"),
        "cluster2": (10, 10092, 543, 10, "1fbd2038f0746023"),
        "core-cluster": (1, 3641, 136, 1, "021964fcc6392a54"),
    },
    ("unit", "multi-stage"): {
        "cluster": (6, 10942, 352, 6, "cb54e85b519dd6aa"),
        "cluster2": (12, 16571, 764, 12, "c9a746af48dbc220"),
        "core-cluster": (3, 1210, 352, 3, "cb54e85b519dd6aa"),
    },
}
WEIGHTS = ("uniform", "unit")


def rmat_lcc(weights):
    g = largest_connected_component(
        rmat(9, edge_factor=8, seed=11, weights=weights)
    )[0]
    assert (g.num_nodes, g.num_edges) == (413, 2816)
    return g


@pytest.fixture(scope="module")
def graphs():
    return {weights: rmat_lcc(weights) for weights in WEIGHTS}


@pytest.fixture(scope="module")
def graph(graphs):
    return graphs["uniform"]


def digest(result):
    """First 16 hex digits of sha256(center as <i8 || dist as <f8)."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(result.center, dtype="<i8").tobytes())
    h.update(np.ascontiguousarray(result.dist_to_center, dtype="<f8").tobytes())
    return h.hexdigest()[:16]


def observed(result):
    c = result.counters
    return (c.rounds, c.messages, c.updates, c.growing_steps, digest(result))


def run_mr(graph, algorithm, executor, config=CFG):
    engine = default_engine(graph, executor=executor, num_workers=2)
    try:
        return algorithm(graph, config=config, engine=engine)
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


@pytest.mark.parametrize("weights", WEIGHTS)
@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("name", ["cluster", "cluster2"])
@pytest.mark.parametrize("executor", ("vector", "sharded"))
def test_mr_matches_sort_golden(graphs, executor, name, config, weights):
    algorithm = {"cluster": mr_cluster, "cluster2": mr_cluster2}[name]
    result = run_mr(graphs[weights], algorithm, executor, CONFIGS[config])
    assert observed(result) == GOLDEN[weights, config][name]


@pytest.mark.parametrize("weights", WEIGHTS)
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_core_cluster_matches_sort_golden(graphs, config, weights):
    result = cluster(graphs[weights], config=CONFIGS[config])
    assert observed(result) == GOLDEN[weights, config]["core-cluster"]


@pytest.mark.parametrize("algorithm", [mr_cluster, mr_cluster2])
def test_scatter_mode_matches_across_executors(graph, algorithm):
    reference = run_mr(graph, algorithm, "vector")
    for executor in EXECUTORS:
        assert_identical(
            run_mr(graph, algorithm, executor),
            reference,
            messages=executor != "serial",
        )
