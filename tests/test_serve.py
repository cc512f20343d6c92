"""End-to-end suite for the HTTP query service (live sockets).

Every test talks to a real ``KSPServer`` over ``http.client`` — no
handler mocking — pinning the serving contract: concurrent HTTP answers
are byte-identical to in-process ``engine.query``, overload yields 429
(never a dropped connection), an expired deadline yields 504 carrying a
partial top-k dominated by the untimed answer, the readiness gate holds
until the engine loads, and the metrics endpoint reflects what actually
happened.
"""

import json
import random
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from http.client import HTTPConnection

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import KSPEngine
from repro.serve import KSPServer, ServeConfig

from tests.test_batch_cache_agreement import METHODS, build_graph, random_queries


# ----------------------------------------------------------------------
# Plumbing


def request(port, method, path, body=None, headers=None, timeout=30.0):
    """One HTTP exchange -> (status, parsed-or-text body, headers)."""
    connection = HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        raw = json.dumps(body).encode("utf-8") if body is not None else None
        base = {"Content-Type": "application/json"} if raw else {}
        base.update(headers or {})
        connection.request(method, path, body=raw, headers=base)
        response = connection.getresponse()
        payload = response.read().decode("utf-8")
        content_type = response.headers.get("Content-Type", "")
        if content_type.startswith("application/json"):
            payload = json.loads(payload)
        return response.status, payload, dict(response.headers)
    finally:
        connection.close()


def post_query(port, body, headers=None, path="/v1/query"):
    return request(port, "POST", path, body=body, headers=headers)


def query_body(query, method=None, **extra):
    body = {
        "location": [query.location.x, query.location.y],
        "keywords": list(query.keywords),
        "k": query.k,
    }
    if method is not None:
        body["method"] = method
    body.update(extra)
    return body


class GatedEngine:
    """Engine proxy whose queries block until the test releases them."""

    def __init__(self, inner):
        self._inner = inner
        self.release = threading.Event()
        self.entered = threading.Semaphore(0)

    def query(self, query, options=None):
        self.entered.release()
        assert self.release.wait(timeout=30.0), "test forgot to release the gate"
        return self._inner.query(query, options=options)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.fixture(scope="module")
def engine():
    return KSPEngine(build_graph(1500, vertex_count=80), EngineConfig(alpha=2))


@pytest.fixture(scope="module")
def server(engine):
    with KSPServer(engine, ServeConfig(workers=4, queue_depth=32)) as running:
        yield running


# ----------------------------------------------------------------------
# Agreement: HTTP answers are byte-identical to in-process answers.


class TestAgreement:
    def test_50_concurrent_mixed_queries_byte_identical(self, engine, server):
        workload = random_queries(random.Random(71), 50)
        methods = [METHODS[i % len(METHODS)] for i in range(len(workload))]
        expected = [
            json.dumps(
                engine.query(q, method=m).to_dict()["places"], sort_keys=True
            ).encode("utf-8")
            for q, m in zip(workload, methods)
        ]

        def over_http(pair):
            q, m = pair
            status, body, _ = post_query(server.port, query_body(q, method=m))
            assert status == 200
            return json.dumps(body["places"], sort_keys=True).encode("utf-8")

        with ThreadPoolExecutor(max_workers=16) as pool:
            got = list(pool.map(over_http, zip(workload, methods)))
        assert got == expected

    def test_concurrent_clients_hammering_tqsp_cache(self, engine, server):
        query = random_queries(random.Random(72), 1)[0]
        reference = json.dumps(
            engine.query(query, method="sp").to_dict()["places"], sort_keys=True
        )

        def hammer(_):
            status, body, _ = post_query(server.port, query_body(query, method="sp"))
            assert status == 200
            return json.dumps(body["places"], sort_keys=True)

        with ThreadPoolExecutor(max_workers=12) as pool:
            answers = list(pool.map(hammer, range(36)))
        assert set(answers) == {reference}
        # The repeats were served out of the shared TQSP cache.
        assert "ksp_tqsp_cache_hit_ratio" in engine.metrics_text()

    def test_batch_endpoint_matches_query_endpoint(self, server):
        workload = random_queries(random.Random(73), 4)
        singles = [
            post_query(server.port, query_body(q, method="sp"))[1]["places"]
            for q in workload
        ]
        status, body, _ = request(
            server.port,
            "POST",
            "/v1/batch",
            body={"queries": [query_body(q) for q in workload], "method": "sp"},
        )
        assert status == 200
        assert [slot["places"] for slot in body["results"]] == singles
        assert not body["timed_out"]


# ----------------------------------------------------------------------
# Request ids


class TestRequestIds:
    def test_client_id_echoed_in_header_and_body(self, server):
        query = random_queries(random.Random(74), 1)[0]
        status, body, headers = post_query(
            server.port, query_body(query), headers={"X-Request-Id": "trace-me-7"}
        )
        assert status == 200
        assert headers["X-Request-Id"] == "trace-me-7"
        assert body["request_id"] == "trace-me-7"

    def test_generated_id_when_client_sends_none(self, server):
        query = random_queries(random.Random(75), 1)[0]
        status, body, headers = post_query(server.port, query_body(query))
        assert status == 200
        assert body["request_id"]
        assert headers["X-Request-Id"] == body["request_id"]

    def test_batch_slots_get_derived_ids(self, server):
        workload = random_queries(random.Random(76), 3)
        status, body, _ = request(
            server.port,
            "POST",
            "/v1/batch",
            body={"queries": [query_body(q) for q in workload]},
            headers={"X-Request-Id": "batch-9"},
        )
        assert status == 200
        assert body["request_id"] == "batch-9"
        assert [slot["request_id"] for slot in body["results"]] == [
            "batch-9-0",
            "batch-9-1",
            "batch-9-2",
        ]

    def test_trace_via_query_parameter(self, server):
        query = random_queries(random.Random(77), 1)[0]
        status, body, _ = post_query(
            server.port, query_body(query), path="/v1/query?trace=1"
        )
        assert status == 200
        assert body["trace"]  # per-phase breakdown present
        for phase in body["trace"].values():
            assert set(phase) == {"seconds", "count"}


# ----------------------------------------------------------------------
# Overload: 429 with Retry-After, never a dropped connection.


class TestOverload:
    def test_queue_full_yields_429_never_a_dropped_connection(self, engine):
        gated = GatedEngine(engine)
        config = ServeConfig(workers=1, queue_depth=1)
        with KSPServer(gated, config) as server:
            query = random_queries(random.Random(78), 1)[0]
            outcomes = []
            lock = threading.Lock()

            def fire():
                status, body, headers = post_query(server.port, query_body(query))
                with lock:
                    outcomes.append((status, body, headers))

            # Deterministic saturation: one request holds the single
            # execution slot (blocked inside the gated engine) ...
            holder = threading.Thread(target=fire)
            holder.start()
            assert gated.entered.acquire(timeout=10.0)
            # ... a second one fills the depth-1 admission queue ...
            waiter = threading.Thread(target=fire)
            waiter.start()
            for _ in range(400):
                if server.admission.queued == 1:
                    break
                threading.Event().wait(0.005)
            assert server.admission.queued == 1

            # ... so each further arrival must be refused immediately,
            # with a well-formed 429 — never a dropped connection.
            for _ in range(4):
                status, body, headers = post_query(server.port, query_body(query))
                assert status == 429
                assert int(headers["Retry-After"]) >= 1
                assert body["error"]
                assert body["retry_after_seconds"] >= 1

            gated.release.set()
            holder.join(timeout=30.0)
            waiter.join(timeout=30.0)
            assert [status for status, _, _ in outcomes] == [200, 200]

            status, text, _ = request(server.port, "GET", "/v1/metrics")
            assert status == 200
            assert "ksp_http_rejections_total 4" in text

    def test_deadline_expired_while_queued_yields_504(self, engine):
        gated = GatedEngine(engine)
        config = ServeConfig(workers=1, queue_depth=4)
        with KSPServer(gated, config) as server:
            query = random_queries(random.Random(79), 1)[0]
            blocker = threading.Thread(
                target=post_query,
                args=(server.port, query_body(query)),
            )
            blocker.start()
            assert gated.entered.acquire(timeout=10.0)
            # This one queues behind the blocked slot and expires there.
            status, body, _ = post_query(
                server.port, query_body(query, timeout=0.2)
            )
            gated.release.set()
            blocker.join(timeout=30.0)
            assert status == 504
            assert body["timed_out"] is True
            assert body["places"] == []
            assert body["stats"]["timed_out"] is True


# ----------------------------------------------------------------------
# Deadlines mid-query: 504 with a sound partial top-k.


class TestDeadline:
    def test_expired_deadline_yields_504_with_dominated_partial(
        self, engine, server
    ):
        rng = random.Random(80)
        saw_timeout = False
        for query in random_queries(rng, 8):
            full_scores = engine.query(query, method="bsp").scores()
            for timeout in (1e-9, 1e-5, 1e-3):
                status, body, _ = post_query(
                    server.port, query_body(query, method="bsp", timeout=timeout)
                )
                if status == 200:
                    continue  # finished inside the budget
                saw_timeout = True
                assert status == 504
                assert body["timed_out"] is True
                # The partial list is pointwise dominated by (never better
                # than) the untimed answer at each rank.
                for rank, score in enumerate(body["scores"]):
                    if rank < len(full_scores):
                        assert score >= full_scores[rank] - 1e-9
        assert saw_timeout

    def test_timeout_zero_rejected_as_schema_error(self, server):
        query = random_queries(random.Random(81), 1)[0]
        status, body, _ = post_query(
            server.port, query_body(query, timeout=0)
        )
        assert status == 400
        assert "timeout" in body["error"]


# ----------------------------------------------------------------------
# Readiness gate


class TestReadiness:
    def test_ready_gates_on_engine_load(self, engine):
        hold = threading.Event()

        def loader():
            assert hold.wait(timeout=30.0)
            return engine

        with KSPServer(engine_loader=loader, config=ServeConfig()) as server:
            status, body, _ = request(server.port, "GET", "/v1/ready")
            assert (status, body["status"]) == (503, "loading")
            status, body, _ = request(server.port, "GET", "/v1/healthz")
            assert (status, body["status"]) == (200, "ok")

            query = random_queries(random.Random(82), 1)[0]
            status, body, _ = post_query(server.port, query_body(query))
            assert status == 503

            hold.set()
            for _ in range(200):
                status, body, _ = request(server.port, "GET", "/v1/ready")
                if status == 200:
                    break
                threading.Event().wait(0.05)
            assert status == 200

            status, body, _ = post_query(server.port, query_body(query))
            assert status == 200

    def test_loader_failure_reported_not_fatal(self):
        def loader():
            raise RuntimeError("corpus missing")

        with KSPServer(engine_loader=loader, config=ServeConfig()) as server:
            for _ in range(200):
                status, body, _ = request(server.port, "GET", "/v1/ready")
                if status == 503 and body["status"] == "failed":
                    break
                threading.Event().wait(0.05)
            assert body["status"] == "failed"
            assert "corpus missing" in body["error"]


# ----------------------------------------------------------------------
# Protocol edges and metrics


class TestProtocol:
    def test_unknown_endpoint_404(self, server):
        status, body, _ = request(server.port, "GET", "/v1/nope")
        assert status == 404
        status, body, _ = request(server.port, "POST", "/v2/query", body={})
        assert status == 404

    def test_malformed_json_400(self, server):
        connection = HTTPConnection("127.0.0.1", server.port, timeout=10.0)
        try:
            connection.request(
                "POST",
                "/v1/query",
                body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 400
            assert b"not valid JSON" in response.read()
        finally:
            connection.close()

    @pytest.mark.parametrize("length", [b"abc", b"-1"])
    def test_malformed_content_length_400(self, server, length):
        """A Content-Length that is not a non-negative integer is answered
        400 and the connection closed — not dropped without a reply, and
        not left blocking a worker on a body read that never ends."""
        with socket.create_connection(("127.0.0.1", server.port), timeout=10.0) as sock:
            sock.sendall(
                b"POST /v1/query HTTP/1.1\r\nHost: localhost\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: " + length + b"\r\n\r\n"
            )
            reply = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 "), reply
        assert "Content-Length" in json.loads(body)["error"]

    @pytest.mark.parametrize(
        "length", [2 << 20, 2 << 30, 50 << 30], ids=["2MiB", "2GiB", "50GiB"]
    )
    def test_oversized_content_length_413(self, server, length):
        """A Content-Length claim above the body limit is answered 413 and
        the connection closed before any body byte is read — no
        pre-allocation of the claimed size, no worker parked on a read."""
        with socket.create_connection(("127.0.0.1", server.port), timeout=10.0) as sock:
            sock.sendall(
                b"POST /v1/query HTTP/1.1\r\nHost: localhost\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: %d\r\n\r\n" % length
            )
            reply = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 413 "), reply
        error = json.loads(body)
        assert "Content-Length" in error["error"]
        assert error["request_id"]

    def test_schema_violations_400(self, server):
        for bad in (
            {"keywords": ["a"]},  # no location
            {"location": [0, 0]},  # no keywords
            {"location": [0, 0], "keywords": []},
            {"location": [0], "keywords": ["a"]},
            {"location": [0, 0], "keywords": ["a"], "k": 0},
            {"location": [0, 0], "keywords": ["a"], "method": "magic"},
            {"location": [0, 0], "keywords": ["a"], "ranking": "best"},
        ):
            status, body, _ = post_query(server.port, bad)
            assert status == 400, bad
            assert body["error"]

    def test_metrics_reflect_request_counts(self, engine):
        with KSPServer(engine, ServeConfig(workers=2, queue_depth=4)) as server:
            query = random_queries(random.Random(83), 1)[0]
            for _ in range(3):
                assert post_query(server.port, query_body(query))[0] == 200
            assert post_query(server.port, {"keywords": ["a"]})[0] == 400

            status, text, _ = request(server.port, "GET", "/v1/metrics")
            assert status == 200
            assert (
                'ksp_http_requests_total{code="200",endpoint="/v1/query"} 3' in text
            )
            assert (
                'ksp_http_requests_total{code="400",endpoint="/v1/query"} 1' in text
            )
            assert "ksp_http_queue_wait_seconds_count 3" in text
            # The engine's own families render in the same exposition
            # (the module-scoped engine accumulates across tests, so
            # assert presence rather than an exact count).
            assert "ksp_query_latency_seconds_count" in text
