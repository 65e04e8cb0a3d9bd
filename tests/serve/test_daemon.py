"""Daemon integration: both surfaces, ops, caching, backpressure,
scheduling metadata.  Uses real sockets against a threaded server."""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.serve import ServeClient, http_request
from repro.serve.client import ServeRemoteError


class TestNDJSONSurface:
    def test_ping_and_stats(self, client):
        pong = client.ping()
        assert pong["pong"] is True and pong["protocol"] == 1
        stats = client.stats()
        assert stats["scheduler"]["workers"] >= 1
        assert "cache" in stats and "graphs" in stats

    def test_algorithms_lists_registry(self, client):
        names = {a["name"] for a in client.algorithms()["algorithms"]}
        assert {"diameter", "cluster", "sssp", "eccentricity"} <= names

    def test_open_makes_graph_resident(self, client, stored_graphs):
        info = client.open(stored_graphs["mesh"])["graph"]
        assert info["n"] == 100 and info["queries"] == 0
        resident = {g["path"] for g in client.graphs()["graphs"]}
        assert stored_graphs["mesh"] in resident

    def test_query_roundtrip_with_metadata(self, client, stored_graphs):
        result = client.query(
            stored_graphs["mesh"], "diameter", tau=16, executor="vector"
        )
        assert result["algorithm"] == "diameter"
        assert result["value"] > 0
        assert result["counters"]["rounds"] >= 1
        assert set(result["timings"]) >= {"emit", "shuffle", "reduce"}
        assert result["serve"]["queue_wait_s"] >= 0.0
        assert len(result["digest"]) == 64

    def test_repeat_query_hits_cache(self, client, stored_graphs):
        first = client.query(stored_graphs["gnm"], "cluster", tau=8, seed=1)
        again = client.query(stored_graphs["gnm"], "cluster", tau=8, seed=1)
        assert again["serve"]["cache_hit"] is True
        assert again["digest"] == first["digest"]
        assert again["counters"] == first["counters"]

    def test_equivalent_config_spellings_share_cache(
        self, client, stored_graphs
    ):
        a = client.query(
            stored_graphs["mesh2"], "cluster", config={"tau": 8, "gamma": 2}
        )
        b = client.query(
            stored_graphs["mesh2"], "cluster",
            config={"tau": 8, "gamma": 2.0, "seed": 0},
        )
        assert b["serve"]["cache_hit"] is True
        assert b["digest"] == a["digest"]

    def test_differing_configs_do_not_share(self, client, stored_graphs):
        a = client.query(
            stored_graphs["mesh2"], "sssp", options={"source": 0}
        )
        b = client.query(
            stored_graphs["mesh2"], "sssp", options={"source": 7}
        )
        assert b["serve"]["cache_hit"] is False
        assert b["digest"] != a["digest"]

    def test_unknown_algorithm_is_not_found(self, client, stored_graphs):
        with pytest.raises(ServeRemoteError) as excinfo:
            client.query(stored_graphs["mesh"], "no-such-algo")
        assert excinfo.value.status == 404

    def test_missing_graph_is_not_found(self, client):
        with pytest.raises(ServeRemoteError) as excinfo:
            client.query("/nonexistent/graph.rcsr", "diameter")
        assert excinfo.value.status == 404

    def test_bad_config_is_bad_request(self, client, stored_graphs):
        with pytest.raises(ServeRemoteError) as excinfo:
            client.query(
                stored_graphs["mesh"], "diameter", config={"bogus": True}
            )
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("executor", ["parallel", "nosuch"])
    def test_unknown_executor_is_bad_request(self, client, stored_graphs, executor):
        with pytest.raises(ServeRemoteError) as excinfo:
            client.query(stored_graphs["mesh"], "diameter", executor=executor)
        assert excinfo.value.status == 400
        assert "unknown executor" in str(excinfo.value)
        # The daemon keeps serving valid queries afterwards.
        assert client.ping()["pong"] is True

    def test_unknown_op_is_bad_request(self, client):
        with pytest.raises(ServeRemoteError) as excinfo:
            client.request({"op": "frobnicate"})
        assert excinfo.value.status == 400

    def test_request_ids_echo_back(self, server):
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
            raw.settimeout(30)
            raw.connect(server.socket_path)
            raw.sendall(b'{"op": "ping", "id": 42}\n')
            line = raw.makefile("rb").readline()
        response = json.loads(line)
        assert response["id"] == 42 and response["ok"] is True

    def test_pipelined_requests_answered_in_order(self, server):
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
            raw.settimeout(30)
            raw.connect(server.socket_path)
            raw.sendall(
                b'{"op": "ping", "id": 1}\n'
                b'{"op": "stats", "id": 2}\n'
                b'{"op": "ping", "id": 3}\n'
            )
            rfile = raw.makefile("rb")
            ids = [json.loads(rfile.readline())["id"] for _ in range(3)]
        assert ids == [1, 2, 3]


class TestHTTPSurface:
    def test_healthz(self, server):
        body = http_request("GET", "/healthz", port=server.port)
        assert body["ok"] is True and body["protocol"] == 1

    def test_stats_graphs_algorithms_routes(self, server):
        for route in ("/stats", "/graphs", "/algorithms"):
            body = http_request("GET", route, port=server.port)
            assert body["ok"] is True

    def test_post_query(self, server, stored_graphs):
        body = http_request(
            "POST", "/query", port=server.port,
            body={
                "graph": stored_graphs["mesh"],
                "algorithm": "diameter",
                "config": {"tau": 16},
            },
        )
        result = body["result"]
        assert result["value"] > 0 and "counters" in result

    def test_http_and_ndjson_share_one_cache(
        self, server, client, stored_graphs
    ):
        nd = client.query(stored_graphs["gnm"], "diameter", tau=8, seed=2)
        body = http_request(
            "POST", "/query", port=server.port,
            body={
                "graph": stored_graphs["gnm"],
                "algorithm": "diameter",
                "config": {"tau": 8, "seed": 2},
            },
        )
        assert body["result"]["serve"]["cache_hit"] is True
        assert body["result"]["digest"] == nd["digest"]

    def test_unknown_route_404(self, server):
        with pytest.raises(ServeRemoteError) as excinfo:
            http_request("GET", "/no/such/route", port=server.port)
        assert excinfo.value.status == 404

    def test_bad_method_405(self, server):
        with pytest.raises(ServeRemoteError) as excinfo:
            http_request("PUT", "/query", port=server.port, body={})
        assert excinfo.value.status == 405

    def test_bad_json_body_400(self, server):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            conn.request(
                "POST", "/query", body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            assert response.status == 400
            assert json.loads(response.read())["ok"] is False
        finally:
            conn.close()

    def test_ndjson_works_on_the_tcp_listener(self, server):
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=30
        ) as raw:
            raw.sendall(b'{"op": "ping"}\n')
            response = json.loads(raw.makefile("rb").readline())
        assert response["ok"] is True


class TestBackpressure:
    def test_max_pending_zero_rejects_everything(
        self, make_server, stored_graphs
    ):
        handle = make_server(max_pending=0)
        with ServeClient(socket_path=handle.socket_path) as c:
            with pytest.raises(ServeRemoteError) as excinfo:
                c.query(stored_graphs["mesh"], "diameter", tau=16)
            assert excinfo.value.status == 429
            assert excinfo.value.kind == "busy"
            # Control ops still answer while queries are rejected.
            assert c.ping()["pong"] is True
            assert c.stats()["scheduler"]["rejected"] >= 1

    def test_queue_depth_zero_allows_one_in_flight(
        self, make_server, stored_graphs
    ):
        # depth 0 → nothing may *wait*; with 1 worker, a second query on
        # the same graph while the first runs gets 429.
        handle = make_server(max_workers=1, max_queue_depth=0, max_pending=8)
        results, rejected = [], []

        def fire(seed):
            try:
                with ServeClient(socket_path=handle.socket_path) as c:
                    results.append(
                        c.query(
                            stored_graphs["gnm"], "cluster", tau=4, seed=seed
                        )
                    )
            except ServeRemoteError as exc:
                rejected.append(exc)

        threads = [
            threading.Thread(target=fire, args=(seed,)) for seed in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # All six raced one worker with no queueing: at least one ran,
        # and everything else either ran later or was rejected busy.
        assert len(results) >= 1
        assert all(exc.status == 429 for exc in rejected)
        assert len(results) + len(rejected) == 6

    def test_cache_hits_bypass_backpressure(self, make_server, stored_graphs):
        handle = make_server(max_workers=1, max_queue_depth=2, max_pending=8)
        with ServeClient(socket_path=handle.socket_path) as c:
            first = c.query(stored_graphs["mesh"], "diameter", tau=16)
            assert first["serve"]["cache_hit"] is False
        # Saturate the scheduler budget conceptually: even with
        # max_pending=0 a *hit* must be answered from the event loop.
        handle2 = make_server(max_pending=0, preload=())
        with ServeClient(socket_path=handle2.socket_path) as c:
            with pytest.raises(ServeRemoteError):
                c.query(stored_graphs["mesh"], "diameter", tau=16)


class TestLifecycle:
    def test_shutdown_op(self, make_server, stored_graphs):
        handle = make_server()
        with ServeClient(socket_path=handle.socket_path) as c:
            assert c.shutdown()["stopping"] is True
        handle.thread.join(30)
        assert not handle.thread.is_alive()

    def test_shutdown_op_can_be_disabled(self, make_server):
        handle = make_server(allow_shutdown=False)
        with ServeClient(socket_path=handle.socket_path) as c:
            with pytest.raises(ServeRemoteError) as excinfo:
                c.shutdown()
            assert excinfo.value.status == 400
            assert c.ping()["pong"] is True

    def test_preload_makes_graphs_resident_at_boot(
        self, make_server, stored_graphs
    ):
        handle = make_server(
            preload=(stored_graphs["mesh"], stored_graphs["gnm"])
        )
        with ServeClient(socket_path=handle.socket_path) as c:
            resident = {g["path"] for g in c.graphs()["graphs"]}
        assert {stored_graphs["mesh"], stored_graphs["gnm"]} <= resident
