"""Reply framing: every HTTP reply leaves the server in ONE write.

A reply written as headers first and body second is two small
segments; with Nagle's algorithm on, the second waits for the client's
delayed ACK (~40 ms on Linux) on every keep-alive request.  These tests
pin the framing without timing anything: they wrap each connection's
``wfile`` and count ``write`` calls per reply, check every reply's
header names, and check that the accepted socket has TCP_NODELAY set.
"""

import json
import random
import socket
import threading
from http.client import HTTPConnection

import pytest

from repro.core.engine import KSPEngine
from repro.datagen.paper_example import EXAMPLE_KEYWORDS, Q1, build_example_graph
from repro.serve import KSPServer, ServeConfig
from repro.serve import server as server_module

from tests.test_batch_cache_agreement import random_queries
from tests.test_serve import GatedEngine, query_body

GET_HEADERS = ["Content-Length", "Content-Type", "Date", "Server"]
POST_HEADERS = sorted(GET_HEADERS + ["X-Request-Id"])

QUERY = {"location": [Q1.x, Q1.y], "keywords": list(EXAMPLE_KEYWORDS), "k": 2}
SPARQL = (
    'SELECT ?place ?score WHERE { ksp(?place, ?score, "%s", POINT(%r %r)) . }'
    " ORDER BY ?score LIMIT 2" % (" ".join(EXAMPLE_KEYWORDS), Q1.x, Q1.y)
)


class CountingWriter:
    """A ``wfile`` proxy that logs every ``write`` call's bytes."""

    def __init__(self, inner, log):
        self._inner = inner
        self._log = log

    def write(self, data):
        self._log.append(bytes(data))
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.fixture
def wire(monkeypatch):
    """client port -> {"nodelay": int, "writes": [bytes, ...]} for every
    connection a server started inside the test accepts."""
    connections = {}
    make_handler = server_module._make_handler

    def recording_handler(app):
        class Recording(make_handler(app)):
            def setup(self):
                super().setup()
                record = connections[self.client_address[1]] = {
                    "nodelay": self.connection.getsockopt(
                        socket.IPPROTO_TCP, socket.TCP_NODELAY
                    ),
                    "writes": [],
                }
                self.wfile = CountingWriter(self.wfile, record["writes"])

        return Recording

    monkeypatch.setattr(server_module, "_make_handler", recording_handler)
    return connections


@pytest.fixture(scope="module")
def engine():
    return KSPEngine(build_example_graph())


class KeepAlive:
    """One persistent client connection; ``send`` returns the reply and
    how many writes the server spent on it."""

    def __init__(self, port, wire):
        self.connection = HTTPConnection("127.0.0.1", port, timeout=30.0)
        self.connection.connect()
        self.client_port = self.connection.sock.getsockname()[1]
        self.wire = wire

    def _writes(self):
        return self.wire.get(self.client_port, {"writes": []})["writes"]

    def send(self, method, path, body=None, headers=None):
        assert self.connection.sock is not None, "connection was dropped"
        before = len(self._writes())
        if isinstance(body, (dict, list)):
            body = json.dumps(body).encode("utf-8")
        self.connection.request(method, path, body=body, headers=headers or {})
        response = self.connection.getresponse()
        payload = response.read()
        names = sorted(name for name, _ in response.getheaders())
        return response, names, payload, len(self._writes()) - before

    def server_closed(self):
        """True once the server has dropped the connection (EOF)."""
        self.connection.sock.settimeout(10.0)
        return self.connection.sock.recv(1) == b""

    @property
    def nodelay(self):
        return self.wire[self.client_port]["nodelay"]

    def close(self):
        self.connection.close()


def error_of(payload):
    body = json.loads(payload)
    assert body["error"]
    return body


class TestOneWritePerReply:
    def test_keep_alive_replies(self, engine, wire):
        with KSPServer(engine, ServeConfig(workers=2, queue_depth=4)) as server:
            client = KeepAlive(server.port, wire)
            try:
                cases = [
                    ("POST", "/v1/query", QUERY, 200, POST_HEADERS),
                    ("POST", "/v1/batch", {"queries": [QUERY, QUERY]}, 200,
                     POST_HEADERS),
                    ("POST", "/v1/sparql", {"query": SPARQL}, 200, POST_HEADERS),
                    ("GET", "/v1/metrics", None, 200, GET_HEADERS),
                    ("GET", "/v1/healthz", None, 200, GET_HEADERS),
                    ("POST", "/v1/query", b"{not json", 400, POST_HEADERS),
                    ("POST", "/v2/query", None, 404, POST_HEADERS),
                    ("GET", "/v1/nope", None, 404, GET_HEADERS),
                ]
                for method, path, body, status, headers in cases:
                    response, names, payload, writes = client.send(
                        method, path, body
                    )
                    case = (method, path, status)
                    assert response.status == status, case
                    assert names == headers, case
                    assert writes == 1, case
                    assert len(payload) == int(response.getheader("Content-Length"))
                    if status == 200 and method == "POST":
                        assert json.loads(payload)["request_id"]
                    elif status != 200:
                        error_of(payload)
                assert client.nodelay
            finally:
                client.close()

    def test_body_framing_refusals_close_after_one_write(self, engine, wire):
        with KSPServer(engine, ServeConfig()) as server:
            for header, status in (
                ({"Content-Length": "abc"}, 400),
                ({"Content-Length": str(2 << 20)}, 413),
                ({"Transfer-Encoding": "chunked"}, 400),
            ):
                client = KeepAlive(server.port, wire)
                try:
                    response, names, payload, writes = client.send(
                        "POST", "/v1/query", headers=header
                    )
                    assert response.status == status
                    assert names == POST_HEADERS
                    assert writes == 1
                    assert "Content-Length" in error_of(payload)["error"]
                    # The unread body must not become the next request.
                    assert client.server_closed()
                finally:
                    client.close()

    def test_overload_and_queued_timeout(self, engine, wire):
        gated = GatedEngine(engine)
        with KSPServer(gated, ServeConfig(workers=1, queue_depth=1)) as server:
            query = query_body(random_queries(random.Random(5), 1)[0])
            holder = threading.Thread(
                target=KeepAlive(server.port, wire).send,
                args=("POST", "/v1/query", query),
            )
            holder.start()
            assert gated.entered.acquire(timeout=10.0)
            client = KeepAlive(server.port, wire)
            waiter = None
            try:
                # Queued behind the held slot, expires there: 504.
                response, names, payload, writes = client.send(
                    "POST", "/v1/query", dict(query, timeout=0.2)
                )
                assert response.status == 504
                assert names == POST_HEADERS
                assert writes == 1
                assert json.loads(payload)["timed_out"] is True

                # Fill the depth-1 queue; the next arrival is refused 429.
                waiter = threading.Thread(
                    target=KeepAlive(server.port, wire).send,
                    args=("POST", "/v1/query", query),
                )
                waiter.start()
                for _ in range(400):
                    if server.admission.queued == 1:
                        break
                    threading.Event().wait(0.005)
                assert server.admission.queued == 1
                response, names, payload, writes = client.send(
                    "POST", "/v1/query", query
                )
                assert response.status == 429
                assert names == sorted(POST_HEADERS + ["Retry-After"])
                assert writes == 1
                assert error_of(payload)["retry_after_seconds"] >= 1
                assert client.nodelay
            finally:
                gated.release.set()
                holder.join(timeout=30.0)
                if waiter is not None:
                    waiter.join(timeout=30.0)
                client.close()


class TestMethodNotAllowed:
    def test_other_methods_get_405_json_on_a_kept_connection(self, engine, wire):
        with KSPServer(engine, ServeConfig()) as server:
            client = KeepAlive(server.port, wire)
            try:
                for method in ("PUT", "DELETE", "PATCH", "OPTIONS", "FOO", "HEAD"):
                    response, names, payload, writes = client.send(
                        method, "/v1/query"
                    )
                    assert response.status == 405, method
                    assert response.getheader("Allow") == "GET, POST"
                    assert names == sorted(POST_HEADERS + ["Allow"])
                    assert writes == 1
                    if method == "HEAD":
                        assert payload == b""
                    else:
                        assert method in error_of(payload)["error"]
                # The connection survived all six.
                response, _, _, writes = client.send("POST", "/v1/query", QUERY)
                assert (response.status, writes) == (200, 1)
            finally:
                client.close()

            response, _, payload, _ = KeepAlive(server.port, wire).send(
                "GET", "/v1/metrics"
            )
            text = payload.decode("utf-8")
            assert 'ksp_http_requests_total{code="405",endpoint="/v1/query"} 6' in text

    @pytest.mark.parametrize(
        "method, path, status",
        [("PUT", "/v1/query", 405), ("POST", "/v2/query", 404), ("GET", "/v1/healthz", 200)],
    )
    def test_unread_body_closes_the_connection(self, engine, wire, method, path, status):
        """A reply sent without reading the request's body drops the
        connection, so the body is never parsed as the next request."""
        with KSPServer(engine, ServeConfig()) as server:
            client = KeepAlive(server.port, wire)
            try:
                response, _, payload, writes = client.send(method, path, QUERY)
                assert (response.status, writes) == (status, 1)
                assert json.loads(payload)
                assert client.server_closed()
            finally:
                client.close()


class TestStdlibRefusals:
    @pytest.mark.parametrize(
        "raw, status",
        [
            (b"GARBAGE\r\n\r\n", 400),
            (b"GET /v1/healthz HTTP/1.x\r\n\r\n", 400),
            (b"GET /" + b"a" * 70000 + b" HTTP/1.1\r\n\r\n", 414),
            (b"GET / HTTP/1.1\r\nX-Big: " + b"a" * 70000 + b"\r\n\r\n", 431),
        ],
        ids=["bad-request-line", "bad-version", "uri-too-long", "header-too-long"],
    )
    def test_json_in_one_write_then_close(self, engine, wire, raw, status):
        with KSPServer(engine, ServeConfig()) as server:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=10.0
            ) as sock:
                client_port = sock.getsockname()[1]
                sock.sendall(raw)
                reply = b""
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break  # the server closed the connection
                    reply += chunk
            head, _, body = reply.partition(b"\r\n\r\n")
            lines = head.decode("latin-1").split("\r\n")
            assert lines[0].startswith("HTTP/1.1 %d " % status), reply[:200]
            names = sorted(line.split(":", 1)[0] for line in lines[1:])
            assert names == sorted(GET_HEADERS + ["Connection"])
            assert "Connection: close" in lines
            assert json.loads(body)["error"]
            assert wire[client_port]["writes"] == [reply]
