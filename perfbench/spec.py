"""Workload table and seed-derived operation lists.

Pure data and the standard library only: both the orchestrator
(``run.py``, which never imports the program) and the measured
processes (``worker.py``) read it.  Everything a run executes is a
function of ``(workload, seed, seconds, scale)``; nothing depends on
the clock, so two runs with the same arguments execute the same
operations and report the same ``rounds``, ``work`` and ``ratio``.
"""

from __future__ import annotations

import os
import random
from typing import Dict, List

#: Every run of a workload reads the same graphs, generated from this
#: seed and pinned in ``inputs.json``; the workload seed drives the
#: operation list (algorithm seeds, query order and repeats).  A graph
#: that changed with the seed would add its own run-to-run spread to
#: every metric.
GRAPH_SEED = 0

#: Threads, shards and client connections per run: two, or the core
#: count when lower, so every machine runs the same configuration and
#: no load exceeds the cores.
NPROC = max(1, min(2, os.cpu_count() or 1))

# Graph recipes: name -> (generator, parameters).  ``lcc`` keeps the
# largest connected component.  The smoke scale keeps each recipe's
# shape at a size where one op takes well under a second.
GRAPHS: Dict[str, Dict[str, Dict]] = {
    "full": {
        "rmat17-full": {"gen": "rmat", "scale": 17, "edge_factor": 8, "lcc": False},
        "rmat16-lcc": {"gen": "rmat", "scale": 16, "edge_factor": 8, "lcc": True},
        "road144-lcc": {"gen": "road", "side": 144, "lcc": True},
        "rmat15-lcc": {"gen": "rmat", "scale": 15, "edge_factor": 8, "lcc": True},
    },
    "smoke": {
        "rmat17-full": {"gen": "rmat", "scale": 12, "edge_factor": 8, "lcc": False},
        "rmat16-lcc": {"gen": "rmat", "scale": 12, "edge_factor": 8, "lcc": True},
        "road144-lcc": {"gen": "road", "side": 48, "lcc": True},
        "rmat15-lcc": {"gen": "rmat", "scale": 11, "edge_factor": 8, "lcc": True},
    },
}

#: Workload -> graphs it reads, the executor, and the nominal cost of
#: one operation (seconds on a 2-core Xeon), which turns ``--seconds``
#: into a fixed operation count.
WORKLOADS: Dict[str, Dict] = {
    "rmat-full": {
        "graphs": ["rmat17-full"],
        "executor": "vector",
        "emit_threads": NPROC,
        "op_seconds": 1.6,
        "min_ops": 5,
    },
    "rmat-sharded": {
        "graphs": ["rmat16-lcc"],
        "executor": "sharded",
        "shards": NPROC,
        "emit_threads": 1,
        "op_seconds": 1.0,
        "min_ops": 5,
    },
    "serve-mixed": {
        "graphs": ["road144-lcc", "rmat15-lcc"],
        "emit_threads": 1,
        "clients": NPROC,
        # One daemon worker: two gave the same throughput (the GIL bounds
        # it) and three times the run-to-run latency spread; with one,
        # the two clients' queries queue behind each other.
        "workers": 1,
        # Per client: queries per measured second.
        "queries_per_second": 7.0,
        "min_ops": 12,
    },
}

#: The query kinds serve-mixed interleaves: (algorithm, executor).
SERVE_KINDS = (("diameter", None), ("diameter", "vector"), ("cluster", None))

#: Every ``REPEAT_EVERY``-th query of a client repeats one of its
#: earlier queries, at fixed positions so every seed has the same mix
#: of hits and misses.  With one hit in six the six fresh query classes
#: (three kinds on two graphs) each hold ~14% of the queries and the
#: median falls inside one class (road ``diameter`` on ``vector``); at
#: one hit in four it fell exactly on a class boundary and jumped
#: between the two classes from run to run.
REPEAT_EVERY = 6


def op_plan(workload: str, seed: int, seconds: float) -> Dict:
    """The fixed operation list of one run.

    rmat-* : one warm-up algorithm seed plus ``n`` timed seeds, each a
    ``diameter`` run.  serve-mixed : one warm-up query per graph plus,
    per client, a closed-loop list interleaving the three query kinds
    over both graphs; every sixth query of a client repeats
    one of its own earlier queries (a deterministic cache hit), and new
    queries never share a seed, so no two distinct queries share a
    cache key.  Both clients' lists have the same shape; only the
    seeds and which earlier query a repeat picks differ.
    """
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    used = set()

    def fresh_seed() -> int:
        while True:
            s = rng.randrange(1, 2**31)
            if s not in used:
                used.add(s)
                return s

    if workload != "serve-mixed":
        n = max(spec["min_ops"], int(round(seconds / spec["op_seconds"])))
        return {"warmup": fresh_seed(), "ops": [fresh_seed() for _ in range(n)]}

    per_client = max(
        spec["min_ops"], int(round(seconds * spec["queries_per_second"]))
    )
    graphs = spec["graphs"]
    warmup = [
        {"graph": g, "algorithm": "diameter", "executor": None, "seed": fresh_seed()}
        for g in graphs
    ]
    clients: List[List[Dict]] = []
    for _ in range(spec["clients"]):
        queries: List[Dict] = []
        fresh: List[Dict] = []
        for i in range(per_client):
            if i % REPEAT_EVERY == REPEAT_EVERY - 1:
                queries.append(dict(rng.choice(fresh)))
                continue
            algorithm, executor = SERVE_KINDS[len(fresh) % len(SERVE_KINDS)]
            query = {
                "graph": graphs[(len(fresh) // len(SERVE_KINDS)) % len(graphs)],
                "algorithm": algorithm,
                "executor": executor,
                "seed": fresh_seed(),
            }
            fresh.append(query)
            queries.append(dict(query))
        clients.append(queries)
    return {"warmup": warmup, "clients": clients}


def distinct_queries(plan: Dict) -> List[Dict]:
    """Every distinct serve query of a plan (warm-up included)."""
    seen = {}
    for query in plan["warmup"] + [q for c in plan["clients"] for q in c]:
        seen.setdefault(query_key(query), query)
    return list(seen.values())


def query_key(query: Dict) -> str:
    return "{graph}|{algorithm}|{executor}|{seed}".format(**query)
