"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload rmat-full --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Each run executes a fixed, seed-derived list of operations (see
``spec.py``); ``--seconds`` only sizes that list.  Every step runs in a
fresh interpreter with a scrubbed, pinned environment, its own copy of
the input stores and its own store/checkpoint directories, under a
watchdog that turns a hang into a failed run.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every
op twice in one process, plain and then traced (each layer's public
function called and timed separately), and prints the per-layer
metrics.  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every output
check passed.  ``--smoke`` runs all workloads at a tiny scale twice and
asserts that the deterministic metrics repeat exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

#: Wall budget of one run after inputs are prepared; a step still
#: running at the deadline is killed and the run fails.
RUN_BUDGET_S = 165.0
#: Prepare may build the native library (first run in a checkout).
PREPARE_TIMEOUT_S = 600.0
#: Prepared op lists kept for reuse by later runs of the same seed.
PREPARED_KEEP = 16
#: Set-up-only processes per untraced run; ``setup_s`` is the median
#: over them and the measured process.
SETUP_PROBES = 2
#: Run records (fingerprint, inputs, per-op data) kept under _work/records.
RECORDS_KEEP = 64

END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "qps": "1/s",
    "cpu_s": "s",
    "rounds": "count",
    "work": "count",
    "ratio": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "graph.open_s": "s",
    "graph.partition_s": "s",
    "mrimpl.cluster_s": "s",
    "mr.emit_s": "s",
    "mr.shuffle_s": "s",
    "mr.reduce_s": "s",
    "mr.apply_s": "s",
    "mr.unattributed_s": "s",
    "core.quotient_s": "s",
    "exact.quotient_diameter_s": "s",
    "mr.messages": "count",
    "mr.updates": "count",
    "mr.update_ratio": "ratio",
    "mr.growing_steps": "count",
    "core.clusters": "count",
    "sharded.engine_start_s": "s",
    "sharded.engine_close_s": "s",
    "sharded.driver_idle_s": "s",
    "sharded.bytes_shipped": "bytes",
    "sharded.worker_cpu_s": "s",
    "sharded.worker_peak_rss_mb": "MB",
    "serve.start_s": "s",
    "serve.preload_s": "s",
    "serve.queue_wait_s": "s",
    "serve.run_s": "s",
    "serve.overhead_s": "s",
    "serve.cache_hit_ratio": "ratio",
    "unattributed_s": "s",
    "trace.op_wall_s": "s",
    "trace.overhead_s": "s",
}

#: Top-level layers of one traced graph op: they and ``unattributed_s``
#: sum to the op wall.
_OP_LAYERS = (
    "sharded.engine_start_s",
    "mrimpl.cluster_s",
    "sharded.engine_close_s",
    "core.quotient_s",
    "exact.quotient_diameter_s",
)
#: Top-level layers of one served query (client latency).
_SERVE_LAYERS = ("serve.queue_wait_s", "serve.run_s", "serve.overhead_s")
#: Set-up layers and totals: not shares of one op.
_NOT_PER_OP = frozenset({
    "graph.open_s", "graph.partition_s", "serve.start_s", "serve.preload_s",
    "trace.op_wall_s",
})


class StepFailed(Exception):
    """A child step crashed, hung past the watchdog, or printed nothing."""


# --------------------------------------------------------------------- #
# Environment and fingerprint
# --------------------------------------------------------------------- #


def pinned_env() -> Dict[str, str]:
    """The inherited environment minus ``REPRO_*``, plus pinned values.

    Temporary files and every cache the program keeps stay inside the
    checkout, under ``perfbench/_work``.
    """
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        # One malloc arena per core: with the default (8 per core) the
        # daemon's peak RSS varied by 25% between runs of one op list.
        MALLOC_ARENA_MAX=str(spec.NPROC),
        TMPDIR=str(WORK / "tmp"),
        REPRO_NATIVE_DIR=str(WORK / "native"),
        REPRO_STORE_VERIFY="header",
        REPRO_SHARD_PARTITIONER="lp",
        REPRO_SHARD_EXCHANGE="async",
        REPRO_CHECKPOINT_EVERY="",
    )
    return env


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".c"):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(load_1m: float, numpy: str, op: Dict[str, Any]) -> Dict[str, Any]:
    """Where and how a run was measured; ``op`` is any op the run executed."""
    return {
        "commit": _commit(),
        "source_digest": _source_digest(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy,
        "kernel_impl": op.get("kernel_impl"),
        "emit_threads": op.get("emit_threads"),
        "load_1m_at_start": load_1m,
    }


# --------------------------------------------------------------------- #
# Child steps
# --------------------------------------------------------------------- #


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def run_step(argv: List[str], env: Dict[str, str], timeout: float) -> Dict[str, Any]:
    """Run one worker step in its own session; return its last JSON line.

    On timeout the whole process group (the step, any daemon or shard
    workers it started) is killed and reaped before raising.
    """
    cmd = [sys.executable, str(HERE / "worker.py")] + argv
    proc = subprocess.Popen(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        _kill_group(proc)
        raise StepFailed(f"watchdog: {argv[0]} still running after {timeout:.0f}s")
    except BaseException:
        _kill_group(proc)  # interrupted or terminated: take the step along
        raise
    _kill_group(proc)  # anything the step left behind in its group
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = err.decode().strip().splitlines()[-15:]
        raise StepFailed(
            f"{argv[0]} exited {proc.returncode}:\n" + "\n".join(tail)
        )
    return json.loads(lines[-1])


def prepare(args, env: Dict[str, str]) -> Path:
    """Generate (or reuse) the run's inputs; return the prepared dir."""
    recipes = json.dumps(
        [spec.GRAPH_SEED] + [spec.GRAPHS[args.scale][g] for g in spec.WORKLOADS[args.workload]["graphs"]],
        sort_keys=True,
    )
    key = "{}-{}-{}-{:g}-{}".format(
        args.scale, args.workload, args.seed, args.seconds,
        hashlib.sha256(recipes.encode()).hexdigest()[:8],
    )
    out = WORK / "prepared" / key
    if not (out / "manifest.json").exists():
        shutil.rmtree(out, ignore_errors=True)
        run_step(
            [
                "prepare", "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--scale", args.scale,
                "--graphs", str(WORK / "graphs" / args.scale), "--out", str(out),
            ],
            env,
            PREPARE_TIMEOUT_S,
        )
    # Keep the newest prepared op lists (trace 0 and 1 of one seed
    # share theirs); the rest is regenerated on demand.
    entries = sorted(
        (p for p in out.parent.iterdir() if p != out),
        key=lambda p: p.stat().st_mtime,
    )
    for old in entries[: max(0, len(entries) - PREPARED_KEEP + 1)]:
        shutil.rmtree(old, ignore_errors=True)
    os.utime(out)
    return out


def check_identity(manifest: Dict[str, Any]) -> None:
    """Fail loudly if a generator now builds a different input graph."""
    if manifest["scale"] != "full":
        return
    table = json.loads((HERE / "inputs.json").read_text())
    for name, info in manifest["graphs"].items():
        pinned = table[name]
        got = {k: info[k] for k in pinned}
        if got != pinned:
            raise SystemExit(
                f"input identity mismatch for {name}: "
                f"generated {got}, pinned {pinned}; the generators changed, "
                "so this commit's numbers are not comparable"
            )


class Measurer:
    """Runs measure steps, each in a fresh run directory."""

    def __init__(self, args, prepared: Path, env: Dict[str, str], deadline: float):
        self.args = args
        self.prepared = prepared
        self.env = env
        self.deadline = deadline
        self.manifest = json.loads((prepared / "manifest.json").read_text())
        self.count = 0

    def __call__(self, *, traced: bool = False, probe: bool = False) -> Dict[str, Any]:
        self.count += 1
        rundir = WORK / "runs" / f"{os.getpid()}-{self.count}"
        shutil.rmtree(rundir, ignore_errors=True)
        rundir.mkdir(parents=True)
        try:
            for info in self.manifest["graphs"].values():
                store = Path(info["store"])
                shutil.copyfile(store, rundir / store.name)
            env = dict(
                self.env,
                REPRO_STORE_DIR=str(rundir / "store"),
                REPRO_CHECKPOINT_DIR=str(rundir / "ckpt"),
            )
            argv = [
                "measure", "--workload", self.args.workload,
                "--prepared", str(self.prepared), "--rundir", str(rundir),
            ]
            if traced:
                argv.append("--traced")
            if probe:
                argv.append("--probe")
            spawned_at = time.monotonic()
            argv += ["--spawned-at", repr(spawned_at)]
            return run_step(argv, env, self.deadline - spawned_at)
        finally:
            shutil.rmtree(rundir, ignore_errors=True)


# --------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------- #


def _latency(op: Dict[str, Any]) -> float:
    return op["latency_s"] if "latency_s" in op else op["wall_s"]


def _op_failed(op: Dict[str, Any]) -> bool:
    return not all(op["checks"].values())


def _executed(op: Dict[str, Any]) -> bool:
    """Whether the op ran the algorithm (a served cache hit did not)."""
    return not op.get("cache_hit", False)


def end_to_end(probes: List[Dict], main: Dict) -> Dict[str, float]:
    ops = main["ops"]
    answered = [op for op in ops if "rounds" in op]
    lat = [_latency(op) for op in ops]
    ratios = [op["ratio"] for op in answered if "ratio" in op]
    executed = [op for op in answered if _executed(op)]
    return {
        "setup_s": statistics.median([p["setup_s"] for p in probes + [main]]),
        "latency_p50_s": statistics.median(lat),
        "latency_p90_s": statistics.quantiles(lat, n=10, method="inclusive")[8],
        "qps": len(ops) / main["wall_s"],
        "cpu_s": main["cpu_s"] / len(ops),
        "rounds": sum(op["rounds"] for op in executed) / len(ops),
        "work": sum(op["work"] for op in executed) / len(ops),
        "ratio": statistics.median(ratios),
        "peak_rss_mb": main["peak_rss_mb"],
    }


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def per_layer(record: Dict) -> Dict[str, float]:
    """Per-op layer means of the traced ops, plus set-up layers.

    Graph workloads ran each op plain and then traced, alternately, in
    one process; ``trace.overhead_s`` is the traced median minus the
    plain median.  Serve layers come from the response fields of the
    one query list, which adds no calls, so its overhead is 0.
    """
    layers = {name: 0.0 for name in PER_LAYER}
    layers.update(record["setup_layers"])
    ops = record.get("traced_ops", record["ops"])
    walls = [_latency(op) for op in ops]
    layers["trace.op_wall_s"] = _mean(walls)
    layers["trace.overhead_s"] = statistics.median(walls) - statistics.median(
        _latency(op) for op in record["ops"]
    )
    if "traced_ops" in record:
        for name in ops[0]["layers"]:
            layers[name] = _mean(op["layers"][name] for op in ops)
        layers["unattributed_s"] = layers["trace.op_wall_s"] - sum(
            layers[name] for name in _OP_LAYERS
        )
    else:
        answered = [op for op in ops if "rounds" in op]
        executed = [op for op in answered if _executed(op)]
        n = len(ops)
        layers["serve.queue_wait_s"] = _mean(op["queue_wait_s"] for op in answered)
        layers["serve.run_s"] = _mean(op["run_s"] for op in answered)
        layers["serve.overhead_s"] = _mean(
            op["latency_s"] - op["run_s"] - op["queue_wait_s"] for op in answered
        )
        layers["serve.cache_hit_ratio"] = (len(answered) - len(executed)) / n
        for phase in ("emit", "shuffle", "reduce", "apply"):
            layers[f"mr.{phase}_s"] = sum(op["timings"][phase] for op in executed) / n
        for field in ("messages", "updates", "growing_steps"):
            layers[f"mr.{field}"] = sum(op[field] for op in executed) / n
        layers["core.clusters"] = sum(op["clusters"] for op in executed) / n
        layers["unattributed_s"] = layers["trace.op_wall_s"] - sum(
            layers[name] for name in _SERVE_LAYERS
        )
    if layers["mr.messages"]:
        layers["mr.update_ratio"] = layers["mr.updates"] / layers["mr.messages"]
    return layers


def compare_estimates(record: Dict) -> List[Dict[str, Any]]:
    """Traced Φ(G_C) + 2R must equal the plain run("diameter") estimate."""
    if "traced_ops" not in record:
        return []
    pairs = [(record["warmup"], record["traced_warmup"])]
    pairs += zip(record["ops"], record["traced_ops"])
    return [
        {"seed": b["seed"], "checks": {"traced_estimate_equals_run": b["value"] == t["value"]}}
        for b, t in pairs
    ]


# --------------------------------------------------------------------- #
# Output
# --------------------------------------------------------------------- #


def _warmups(record: Dict) -> List[Dict]:
    warm = record["warmup"]
    return warm if isinstance(warm, list) else [warm]


def _checked_ops(record: Dict) -> List[Dict]:
    """Every op a measure step ran: warm-ups, plain and traced ops."""
    traced = [record["traced_warmup"]] if "traced_warmup" in record else []
    return (
        _warmups(record) + traced + record.get("ops", []) + record.get("traced_ops", [])
    )


def print_table(title: str, metrics: Dict[str, float], units: Dict[str, str],
                wall: Optional[float] = None) -> None:
    """One line per metric; per-op layers also as a share of the op wall."""
    print(title)
    for name, value in metrics.items():
        share = ""
        if wall and units[name] == "s" and name not in _NOT_PER_OP:
            share = f"  {100.0 * value / wall:6.1f}%"
        print(f"  {name:<28} {value:>16.6f} {units[name]:<6}{share}")


def execute(args) -> int:
    load_1m = os.getloadavg()[0]
    env = pinned_env()
    started = time.monotonic()
    prepared = prepare(args, env)
    manifest = json.loads((prepared / "manifest.json").read_text())
    check_identity(manifest)
    deadline = time.monotonic() + max(60.0, RUN_BUDGET_S - (time.monotonic() - started))
    measure = Measurer(args, prepared, env, deadline)

    records: Dict[str, Any] = {}
    extra_checks: List[Dict[str, Any]] = []
    metrics: Dict[str, float] = {}
    error = None
    try:
        if args.trace:
            records["traced"] = measure(traced=True)
            extra_checks = compare_estimates(records["traced"])
        else:
            records["probes"] = [measure(probe=True) for _ in range(SETUP_PROBES)]
            records["main"] = measure()
    except StepFailed as exc:
        error = str(exc)
        print(f"error: {error}", file=sys.stderr)

    flat = [r for rs in records.values() for r in (rs if isinstance(rs, list) else [rs])]
    checked = [op for r in flat for op in _checked_ops(r)] + extra_checks
    attempted = len(checked)
    failed = sum(_op_failed(op) for op in checked)
    if error is not None:
        # The crashed or killed step's warm-up and op list never reported.
        plan = manifest["plan"]
        lost = len(_warmups(plan)) + (
            len(plan["ops"]) if "ops" in plan else sum(map(len, plan["clients"]))
        )
        attempted += lost
        failed += lost

    if error is None:
        if args.trace:
            metrics = per_layer(records["traced"])
            units = PER_LAYER
            print_table(f"per-layer ({args.workload}, seed {args.seed}, traced)",
                        metrics, units, wall=metrics["trace.op_wall_s"])
            print(f"  tracing overhead: {metrics['trace.overhead_s']:+.6f} s per op "
                  "(traced median minus plain median, same process)")
        else:
            metrics = end_to_end(records["probes"], records["main"])
            units = END_TO_END
            print_table(f"end-to-end ({args.workload}, seed {args.seed})", metrics, units)

    first = next((op for r in flat for op in _warmups(r) if "kernel_impl" in op), {})
    fp = fingerprint(load_1m, manifest["numpy"], first)
    inputs = {
        name: {k: info[k] for k in ("graph_seed", "n", "m", "isolated", "digest")}
        for name, info in manifest["graphs"].items()
    }
    record_path = WORK / "records" / (
        f"{int(time.time())}-{args.workload}-{args.seed}-t{int(args.trace)}.json"
    )
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps({
        "args": vars(args), "fingerprint": fp, "inputs": inputs,
        "metrics": metrics, "attempted": attempted, "failed": failed,
        "error": error, "records": records,
    }))
    old = sorted(record_path.parent.iterdir())[:-RECORDS_KEEP]
    for path in old:
        path.unlink()
    print(json.dumps({"fingerprint": fp, "inputs": inputs}))
    correct = error is None and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": (PER_LAYER if args.trace else END_TO_END)[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


# --------------------------------------------------------------------- #
# Smoke self-test
# --------------------------------------------------------------------- #

_DETERMINISTIC = ("rounds", "work", "ratio")


def smoke() -> int:
    """All workloads at tiny scale: twice untraced, once traced.

    Asserts every run is correct and that the deterministic metrics and
    the op counts repeat exactly between the two untraced runs.
    """
    ok = True
    for workload in spec.WORKLOADS:
        results = []
        for trace in (0, 0, 1):
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", "3", "--seconds", "1", "--trace", str(trace),
                "--scale", "smoke",
            ]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                 timeout=RUN_BUDGET_S + 60)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"smoke {workload} trace {trace}: exit {out.returncode}\n"
                      f"{out.stderr[-2000:]}")
                ok = False
                break
            results.append(json.loads(lines[-1]))
        if len(results) < 3:
            continue
        a, b, t = results
        same = {
            k: a["metrics"][k]["value"] == b["metrics"][k]["value"] for k in _DETERMINISTIC
        }
        same["attempted"] = a["attempted"] == b["attempted"]
        good = all(r["correct"] and r["failed"] == 0 for r in results) and all(same.values())
        print(f"smoke {workload}: {'ok' if good else 'FAIL'} "
              f"rounds={a['metrics']['rounds']['value']:.4f} "
              f"work={a['metrics']['work']['value']:.1f} "
              f"ratio={a['metrics']['ratio']['value']:.6f} "
              f"attempted={a['attempted']} repeat={same}")
        ok = ok and good
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(spec.GRAPHS), default="full")
    parser.add_argument("--smoke", action="store_true",
                        help="self-test every workload at tiny scale")
    args = parser.parse_args(argv)
    # A terminated run unwinds through run_step, which kills the step.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    return execute(args)


if __name__ == "__main__":
    sys.exit(main())
