"""The benchmark's child processes: ``prepare`` and ``measure``.

``run.py`` starts each step as a fresh interpreter with a pinned
environment and a watchdog, and reads the one JSON line the step prints
last.  This module is the only part of the benchmark that imports the
program; it times calls into the program's public functions from
outside and adds the counters the program already returns.

    python3 perfbench/worker.py prepare --workload W --seed S --seconds T \
        --scale full --graphs DIR --out DIR
    python3 perfbench/worker.py measure --workload W --prepared DIR \
        --rundir DIR --spawned-at T [--traced] [--probe]
    PYTHONPATH=src python3 perfbench/worker.py pin   # rewrite inputs.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import resource
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

#: Slack on the estimate >= lower-bound check: both are float sums of
#: the same edge weights along different paths.
_LB_SLACK = 1e-9


def _emit(obj: Dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


# --------------------------------------------------------------------- #
# prepare
# --------------------------------------------------------------------- #


def _generate(recipe: Dict, seed: int):
    from repro.generators import rmat, road_network
    from repro.graph.ops import largest_connected_component

    if recipe["gen"] == "rmat":
        graph = rmat(recipe["scale"], edge_factor=recipe["edge_factor"], seed=seed)
    else:
        graph = road_network(recipe["side"], seed=seed)
    if recipe["lcc"]:
        graph, _ = largest_connected_component(graph)
    return graph


def _csr_digest(graph) -> str:
    import numpy as np

    digest = hashlib.sha256()
    for arr in (graph.indptr, graph.indices, graph.weights):
        arr = np.ascontiguousarray(arr)
        digest.update(str(arr.dtype).encode() + str(arr.shape).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()[:32]


def _all_assigned(clustering, n: int) -> bool:
    center = clustering.center
    return len(center) == n and bool((center >= 0).all())


def _stored_graph(directory: Path, scale: str, name: str):
    """Generate graph ``name`` into ``directory`` once; reuse it after.

    Returns its info: store file, identity and lower bound.
    The graphs do not depend on the workload seed, so every run in a
    checkout reads the same stored bytes.
    """
    import numpy as np

    from repro.baselines.double_sweep import diameter_lower_bound
    from repro.graph.serialize import write_store

    recipe = dict(spec.GRAPHS[scale][name], seed=spec.GRAPH_SEED)
    store = directory / f"{name}.rcsr"
    info_path = directory / f"{name}.json"
    if info_path.exists():
        info = json.loads(info_path.read_text())
        if info.get("recipe") == recipe:
            return info
    directory.mkdir(parents=True, exist_ok=True)
    graph = _generate(recipe, spec.GRAPH_SEED)
    write_store(graph, store)
    lower = diameter_lower_bound(graph, source=int(np.argmax(graph.degrees)))
    if not lower > 0:
        raise SystemExit(f"lower bound of {name} is {lower}; ratio undefined")
    info = {
        "recipe": recipe,
        "store": str(store),
        "graph_seed": spec.GRAPH_SEED,
        "n": int(graph.num_nodes),
        "m": int(graph.num_edges),
        "isolated": int((graph.degrees == 0).sum()),
        "digest": _csr_digest(graph),
        "lower_bound": float(lower),
    }
    tmp = info_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(info))
    os.replace(tmp, info_path)
    return info


def _expected_digests(
    stores: Dict[str, str], queries: List[Dict], emit_threads: int
) -> Dict[str, str]:
    """In-process ``runtime.run`` digest of each served query."""
    from repro.graph.serialize import open_store
    from repro.runtime import run
    from repro.serve.protocol import result_digest

    graphs = {name: open_store(path) for name, path in stores.items()}
    digests = {}
    for query in queries:
        graph = graphs[query["graph"]]
        result = run(
            query["algorithm"],
            graph,
            seed=query["seed"],
            executor=query["executor"],
            emit_threads=emit_threads,
        )
        clustering = getattr(result.raw, "clustering", result.raw)
        if not _all_assigned(clustering, graph.num_nodes):
            raise RuntimeError(f"prepare: unassigned nodes in {query}")
        digests[spec.query_key(query)] = result_digest(result.raw)
    return digests


def prepare(args) -> Dict[str, Any]:
    """Generate and store the inputs; compute what the checks compare to.

    Builds the native kernel library into ``$REPRO_NATIVE_DIR`` so no
    measured process pays for a compiler run, writes each graph as a
    ``.rcsr`` store, records its identity (n, m, CSR digest), computes
    the ratio's lower bound from the max-degree node (a random start
    can land on an isolated node of a whole R-MAT and return 0), and
    for serve-mixed computes every distinct query's result digest with
    an in-process ``runtime.run``; a query that leaves a node
    unassigned fails the prepare step.
    """
    import numpy as np

    from repro.mr.native.build import build_library

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    library = build_library()
    workload = spec.WORKLOADS[args.workload]
    graphs = {
        name: _stored_graph(Path(args.graphs), args.scale, name)
        for name in workload["graphs"]
    }

    plan = spec.op_plan(args.workload, args.seed, args.seconds)
    expected = {}
    if args.workload == "serve-mixed":
        queries = spec.distinct_queries(plan)
        stores = {name: info["store"] for name, info in graphs.items()}
        chunks = [queries[k :: spec.NPROC] for k in range(spec.NPROC)]
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(spec.NPROC, mp_context=context) as pool:
            for part in pool.map(
                _expected_digests,
                [stores] * len(chunks),
                chunks,
                [workload["emit_threads"]] * len(chunks),
            ):
                expected.update(part)
    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "graphs": graphs,
        "plan": plan,
        "expected_digests": expected,
        "native_library": library is not None,
        "numpy": np.__version__,
    }
    tmp = out / "manifest.json.tmp"
    tmp.write_text(json.dumps(manifest))
    os.replace(tmp, out / "manifest.json")
    return {"ok": True}


# --------------------------------------------------------------------- #
# measure: rmat-full / rmat-sharded
# --------------------------------------------------------------------- #


class _GraphRun:
    """One process running ``diameter`` ops on one stored graph."""

    def __init__(self, args, manifest: Dict, spawned_at: float):
        from repro.runtime import GraphStore

        self.workload = spec.WORKLOADS[args.workload]
        self.executor = self.workload["executor"]
        self.shards = self.workload.get("shards")
        self.emit_threads = self.workload["emit_threads"]
        (name,) = self.workload["graphs"]
        self.info = manifest["graphs"][name]
        self.path = Path(args.rundir) / Path(self.info["store"]).name
        self.plan = manifest["plan"]
        self.layers: Dict[str, float] = {}
        self.store = GraphStore()

        t0 = time.perf_counter()
        self.graph = self.store.get(self.path)
        self.layers["graph.open_s"] = time.perf_counter() - t0
        if self.executor == "sharded":
            t0 = time.perf_counter()
            self.store.get_partitioned(self.path, self.shards, partitioner="lp")
            self.layers["graph.partition_s"] = time.perf_counter() - t0
        self.warmup = self.plain_op(self.plan["warmup"])
        if args.traced:
            self.traced_warmup = self.traced_op(self.plan["warmup"])
        self.setup_s = time.monotonic() - spawned_at

    def _run_kwargs(self, seed: int) -> Dict[str, Any]:
        kwargs = {
            "seed": seed,
            "executor": self.executor,
            "emit_threads": self.emit_threads,
            "store": self.store,
        }
        if self.executor == "sharded":
            kwargs["shards"] = self.shards
        return kwargs

    def _checks(self, value: float, clustering) -> Dict[str, bool]:
        return {
            "estimate_ge_lower_bound": value
            >= self.info["lower_bound"] * (1 - _LB_SLACK),
            "all_assigned": _all_assigned(clustering, self.info["n"]),
        }

    def plain_op(self, seed: int) -> Dict[str, Any]:
        """``run("diameter")``; sharded ops own an explicit engine."""
        from repro.mrimpl.growing_mr import default_engine
        from repro.runtime import run

        t0 = time.perf_counter()
        engine = None
        if self.executor == "sharded":
            engine = default_engine(
                self.graph, executor="sharded", shards=self.shards
            )
        try:
            result = run("diameter", self.graph, engine=engine, **self._run_kwargs(seed))
        finally:
            if engine is not None:
                engine.executor.close()
        wall = time.perf_counter() - t0
        counters = result.counters
        return {
            "seed": seed,
            "wall_s": wall,
            "value": result.value,
            "rounds": counters.rounds,
            "work": counters.work,
            "ratio": result.value / self.info["lower_bound"],
            "kernel_impl": result.kernel_impl,
            "emit_threads": result.emit_threads,
            "checks": self._checks(result.value, result.raw.clustering),
        }

    def traced_op(self, seed: int) -> Dict[str, Any]:
        """The same op, stage by stage, timed around each layer's call.

        Decomposition via ``run("cluster")``, then ``quotient_graph``
        and ``quotient_diameter``; the combined ``Φ(G_C) + 2R`` is
        compared with the untraced ``run("diameter")`` estimate by the
        orchestrator.  ``traced_op`` follows ``plain_op`` on the same
        seed, so both see the same machine state.
        """
        from repro.core.config import ClusterConfig
        from repro.core.diameter import quotient_diameter
        from repro.core.quotient import quotient_graph
        from repro.mrimpl.growing_mr import default_engine
        from repro.runtime import run

        sharded = self.executor == "sharded"
        layers: Dict[str, float] = {}
        t_op = time.perf_counter()
        children0 = _children_cpu()

        engine = None
        if sharded:
            t0 = time.perf_counter()
            engine = default_engine(self.graph, executor="sharded", shards=self.shards)
            layers["sharded.engine_start_s"] = time.perf_counter() - t0
        try:
            t0 = time.perf_counter()
            cpu0 = time.process_time()
            result = run("cluster", self.graph, engine=engine, **self._run_kwargs(seed))
            cluster_s = time.perf_counter() - t0
            driver_cpu = time.process_time() - cpu0
        finally:
            if engine is not None:
                t0 = time.perf_counter()
                engine.executor.close()
                layers["sharded.engine_close_s"] = time.perf_counter() - t0
        layers["mrimpl.cluster_s"] = cluster_s
        phases = result.timings
        for phase in ("emit", "shuffle", "reduce", "apply"):
            layers[f"mr.{phase}_s"] = phases.get(phase, 0.0)
        layers["mr.unattributed_s"] = cluster_s - sum(
            phases.get(p, 0.0) for p in ("emit", "shuffle", "reduce", "apply")
        )
        if sharded:
            ru = resource.getrusage(resource.RUSAGE_CHILDREN)
            layers["sharded.driver_idle_s"] = cluster_s - driver_cpu
            layers["sharded.worker_cpu_s"] = _children_cpu() - children0
            layers["sharded.worker_peak_rss_mb"] = ru.ru_maxrss / 1024.0
            layers["sharded.bytes_shipped"] = float(engine.executor.bytes_shipped)

        clustering = result.raw
        t0 = time.perf_counter()
        g_c, _centers = quotient_graph(self.graph, clustering)
        layers["core.quotient_s"] = time.perf_counter() - t0
        config = ClusterConfig(seed=seed, stage_threshold_factor=1.0)
        t0 = time.perf_counter()
        phi, _exact = quotient_diameter(
            g_c, mode=config.quotient_mode, exact_limit=config.quotient_exact_limit
        )
        layers["exact.quotient_diameter_s"] = time.perf_counter() - t0
        wall = time.perf_counter() - t_op
        value = phi + 2.0 * clustering.radius

        counters = result.counters
        layers["mr.messages"] = float(counters.messages)
        layers["mr.updates"] = float(counters.updates)
        layers["mr.growing_steps"] = float(counters.growing_steps)
        layers["core.clusters"] = float(clustering.num_clusters)
        return {
            "seed": seed,
            "wall_s": wall,
            "value": value,
            "rounds": counters.rounds,
            "work": counters.work,
            "layers": layers,
            "kernel_impl": result.kernel_impl,
            "emit_threads": result.emit_threads,
            "checks": self._checks(value, clustering),
        }


def measure_graph(args, manifest: Dict, spawned_at: float) -> Dict[str, Any]:
    runner = _GraphRun(args, manifest, spawned_at)
    record: Dict[str, Any] = {
        "setup_s": runner.setup_s,
        "setup_layers": runner.layers,
        "warmup": runner.warmup,
    }
    if args.probe:
        return record
    ops: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    cpu0 = time.process_time()
    children0 = _children_cpu()
    t0 = time.perf_counter()
    for seed in runner.plan["ops"]:
        ops.append(runner.plain_op(seed))
        if args.traced:
            traced.append(runner.traced_op(seed))
    record["wall_s"] = time.perf_counter() - t0
    record["cpu_s"] = (time.process_time() - cpu0) + (_children_cpu() - children0)
    record["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    record["ops"] = ops
    if args.traced:
        record["traced_warmup"] = runner.traced_warmup
        record["traced_ops"] = traced
    return record


# --------------------------------------------------------------------- #
# measure: serve-mixed
# --------------------------------------------------------------------- #


def _proc_cpu_s(pid: int) -> float:
    """utime + stime of ``pid`` (all threads) from /proc, in seconds."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_peak_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


class _Daemon:
    """A ``repro serve`` subprocess on a unix socket in the run directory."""

    def __init__(self, rundir: Path, preload: List[Path], cache_entries: int):
        # A relative socket path keeps the address under the unix
        # socket length limit wherever the checkout lives.
        self.socket = os.path.relpath(rundir / "d.sock")
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--socket", "d.sock",
            "--max-workers", str(spec.WORKLOADS["serve-mixed"]["workers"]),
            "--cache-entries", str(cache_entries),
        ]
        for path in preload:
            cmd += ["--preload", str(path)]
        self.log = open(rundir / "daemon.log", "wb")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=rundir, env=env, stdout=subprocess.PIPE, stderr=self.log
        )
        self._wait_ping()
        self.start_s = time.perf_counter() - t0
        t1 = time.perf_counter()
        line = self.proc.stdout.readline().decode()
        if "listening" not in line:
            raise RuntimeError(f"daemon did not come up: {line!r}")
        self.preload_s = time.perf_counter() - t1

    def client(self):
        from repro.serve import ServeClient

        return ServeClient(socket_path=self.socket, timeout=120.0)

    def _wait_ping(self) -> None:
        from repro.serve import ServeClient

        while True:
            if self.proc.poll() is not None:
                raise RuntimeError("daemon exited during start-up")
            try:
                with ServeClient(socket_path=self.socket, timeout=30.0) as c:
                    c.ping()
                return
            except OSError:
                time.sleep(0.005)

    def close(self) -> None:
        try:
            if self.proc.poll() is None:
                with self.client() as c:
                    c.shutdown()
                self.proc.wait(timeout=30)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
            self.log.close()


def _serve_query(client, query: Dict, paths: Dict[str, str], emit_threads: int):
    return client.query(
        paths[query["graph"]],
        query["algorithm"],
        executor=query["executor"],
        seed=query["seed"],
        emit_threads=emit_threads,
    )


def measure_serve(args, manifest: Dict, spawned_at: float) -> Dict[str, Any]:
    workload = spec.WORKLOADS[args.workload]
    rundir = Path(args.rundir)
    graphs = manifest["graphs"]
    paths = {name: str(rundir / Path(g["store"]).name) for name, g in graphs.items()}
    plan = manifest["plan"]
    expected = manifest["expected_digests"]
    emit_threads = workload["emit_threads"]

    def check(query: Dict, response: Optional[Dict]) -> Dict[str, bool]:
        if response is None:
            return {"answered": False}
        checks = {
            "answered": True,
            "not_degraded": not response.get("degraded", False),
            "digest_matches_run": response.get("digest")
            == expected[spec.query_key(query)],
        }
        if query["algorithm"] == "diameter" and checks["not_degraded"]:
            checks["estimate_ge_lower_bound"] = response["value"] >= (
                graphs[query["graph"]]["lower_bound"] * (1 - _LB_SLACK)
            )
        return checks

    def record_of(query, response, latency, error=None) -> Dict[str, Any]:
        rec: Dict[str, Any] = {
            "query": spec.query_key(query),
            "latency_s": latency,
            "checks": check(query, response),
        }
        if error is not None:
            rec["error"] = error
        if response is not None and not response.get("degraded"):
            serve = response["serve"]
            counters = response["counters"]
            rec.update(
                cache_hit=bool(serve["cache_hit"]),
                queue_wait_s=float(serve["queue_wait_s"]),
                run_s=0.0 if serve["cache_hit"] else float(response["elapsed_s"]),
                rounds=counters["rounds"],
                work=counters["work"],
                messages=counters["messages"],
                updates=counters["updates"],
                growing_steps=counters["growing_steps"],
                clusters=response["metrics"].get("clusters", 0),
                timings=response["timings"],
                value=response["value"],
                kernel_impl=(response.get("kernels") or {}).get("kernel_impl"),
                emit_threads=(response.get("kernels") or {}).get("emit_threads"),
            )
            if query["algorithm"] == "diameter":
                rec["ratio"] = response["value"] / graphs[query["graph"]]["lower_bound"]
        return rec

    def one(client, query) -> Dict[str, Any]:
        t0 = time.perf_counter()
        try:
            response = _serve_query(client, query, paths, emit_threads)
            return record_of(query, response, time.perf_counter() - t0)
        except Exception as exc:  # noqa: BLE001 - a failed query, not a crash
            return record_of(query, None, time.perf_counter() - t0, repr(exc))

    cache_entries = len(spec.distinct_queries(plan)) + 16
    daemon = _Daemon(rundir, [Path(p) for p in paths.values()], cache_entries)
    try:
        with daemon.client() as client:
            warmup = [one(client, q) for q in plan["warmup"]]
        record: Dict[str, Any] = {
            "setup_s": time.monotonic() - spawned_at,
            "setup_layers": {
                "serve.start_s": daemon.start_s,
                "serve.preload_s": daemon.preload_s,
            },
            "warmup": warmup,
        }
        if args.probe:
            return record

        results: List[List[Dict[str, Any]]] = [[] for _ in plan["clients"]]
        clients = [daemon.client() for _ in plan["clients"]]
        barrier = threading.Barrier(len(clients))

        def drive(k: int) -> None:
            barrier.wait()
            for query in plan["clients"][k]:
                results[k].append(one(clients[k], query))

        cpu0 = _proc_cpu_s(daemon.proc.pid)
        threads = [
            threading.Thread(target=drive, args=(k,)) for k in range(len(clients))
        ]
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        record["wall_s"] = time.perf_counter() - t0
        record["cpu_s"] = _proc_cpu_s(daemon.proc.pid) - cpu0
        record["peak_rss_mb"] = _proc_peak_rss_mb(daemon.proc.pid)
        for client in clients:
            client.close()
        with daemon.client() as client:
            record["stats"] = client.stats()
        record["ops"] = [rec for per_client in results for rec in per_client]
        return record
    finally:
        daemon.close()


def pin(args) -> Dict[str, Any]:
    """Write ``inputs.json``: n, m and CSR digest of every full-scale graph."""
    table = {}
    for name, recipe in spec.GRAPHS["full"].items():
        graph = _generate(recipe, spec.GRAPH_SEED)
        table[name] = {
            "graph_seed": spec.GRAPH_SEED,
            "n": int(graph.num_nodes),
            "m": int(graph.num_edges),
            "digest": _csr_digest(graph),
        }
    Path(args.out).write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return {"ok": True}


# --------------------------------------------------------------------- #


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("prepare")
    p.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--scale", default="full", choices=sorted(spec.GRAPHS))
    p.add_argument("--graphs", required=True, help="graph store cache dir")
    p.add_argument("--out", required=True)
    m = sub.add_parser("measure")
    m.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    m.add_argument("--prepared", required=True)
    m.add_argument("--rundir", required=True)
    m.add_argument("--spawned-at", type=float, required=True)
    m.add_argument("--traced", action="store_true")
    m.add_argument("--probe", action="store_true")
    q = sub.add_parser("pin", help="regenerate the input identity table")
    q.add_argument("--out", default=str(HERE / "inputs.json"))
    args = parser.parse_args(argv)

    if args.cmd == "pin":
        _emit(pin(args))
        return 0
    if args.cmd == "prepare":
        _emit(prepare(args))
        return 0
    manifest = json.loads((Path(args.prepared) / "manifest.json").read_text())
    if args.workload == "serve-mixed":
        record = measure_serve(args, manifest, args.spawned_at)
    else:
        record = measure_graph(args, manifest, args.spawned_at)
    _emit(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
