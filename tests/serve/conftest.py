"""Serve-suite fixtures: stored graphs on disk + a daemon on a thread.

The daemon listens on both a unix socket and a TCP port so every test
can pick its surface; ``server`` is module-scoped (booting costs real
time) while tests that need special limits (backpressure, tiny caches)
boot their own via ``make_server``.
"""

from __future__ import annotations

import os

import pytest

from repro.generators import gnm_random_graph, mesh
from repro.graph import write_store
from repro.serve import ServeClient, ServerConfig, start_server_thread

# nproc is small in CI; keep the daemon's own concurrency modest.
SERVE_WORKERS = 2


@pytest.fixture(scope="module")
def stored_graphs(tmp_path_factory):
    """Three small stored graphs: {'mesh','gnm','mesh2'} → path."""
    root = tmp_path_factory.mktemp("serve-graphs")
    paths = {}
    for name, graph in (
        ("mesh", mesh(10, seed=3)),
        ("gnm", gnm_random_graph(80, 200, seed=5, connect=True)),
        ("mesh2", mesh(8, seed=9)),
        # Large enough that the sharded workers exchange real
        # cross-shard candidate batches.
        ("big", gnm_random_graph(400, 1600, seed=5, connect=True)),
    ):
        path = root / f"{name}.rcsr"
        write_store(graph, str(path))
        paths[name] = str(path)
    return paths


@pytest.fixture
def make_server(tmp_path):
    """Factory booting daemons with custom limits; stops them at teardown."""
    handles = []
    counter = [0]

    def boot(**overrides):
        counter[0] += 1
        overrides.setdefault(
            "socket_path", str(tmp_path / f"serve{counter[0]}.sock")
        )
        overrides.setdefault("port", 0)
        overrides.setdefault("max_workers", SERVE_WORKERS)
        handle = start_server_thread(ServerConfig(**overrides))
        handles.append(handle)
        return handle

    yield boot
    for handle in handles:
        handle.stop()


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    """One shared daemon (unix socket + TCP) for read-mostly tests."""
    sock = str(tmp_path_factory.mktemp("serve-sock") / "repro.sock")
    handle = start_server_thread(
        ServerConfig(socket_path=sock, port=0, max_workers=SERVE_WORKERS)
    )
    yield handle
    handle.stop()


@pytest.fixture
def client(server):
    with ServeClient(socket_path=server.socket_path) as c:
        yield c


def shm_segments():
    """Names under /dev/shm (empty when the platform has none)."""
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:  # pragma: no cover - non-Linux
        return set()
