"""http_warm — ``POST /v1/query`` over keep-alive connections, cache warm.

Why it exists: the working set (a few hundred ``(place, keyword set)``
TQSP entries behind 48 pool queries) fits the engine's cache, so the
engine is a small share of the latency and the ``serve`` layer — HTTP
framing, JSON parse, admission, flight recorder, JSON encode, socket
writes — does most of the work.  An engine-only optimisation must show no
change here; a ``serve`` optimisation shows here and nowhere else.

``python -m repro serve --snapshot ... --workers 1`` runs as a child
process; ``min(2, usable cores)`` client threads each hold one persistent
HTTP/1.1 connection, closed loop (the callers of this endpoint — the
shard HTTP executor, application back ends — wait for the reply).
Set-up is spawn -> ``/v1/ready`` 200 -> one warm-up pass over the pool,
done three times; the median is reported and the last server is kept.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import socket
import subprocess
import sys
import threading
import time
from typing import Dict, Iterator, List, Optional, Tuple

from bench_e2e import corpus, layers, oracle
from bench_e2e.harness import (
    Context,
    GateError,
    Ledger,
    Outcome,
    Record,
    gate_failure,
    run_loop,
    trace_overhead_share,
    write_trace,
)
from bench_e2e.inputs import HTTP_REQUESTS, RUN_SECONDS, Op, ZipfRequests, request_body
from bench_e2e.measure import mean, median, peak_rss_mb
from bench_e2e.proxies import Tracing
from bench_e2e.spans import SpanRecorder, SpanTable

SETUP_REPEATS = 3
MAX_CLIENTS = 2
READY_TIMEOUT = 60.0
REQUEST_TIMEOUT = 30.0
HEADERS = {"Content-Type": "application/json"}
REPLAY_BLOCK = 10


class Server:
    """The program's own server as a child process of the harness."""

    def __init__(self, snapshot, directory) -> None:
        self._snapshot = snapshot
        self._directory = directory
        self._process: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> float:
        """Spawn and wait for ``/v1/ready``; returns seconds spawn -> 200."""
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            self.port = probe.getsockname()[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(corpus.SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        env["TMPDIR"] = str(self._directory)
        started = time.perf_counter()
        with open(self._directory / "server.log", "ab") as log:
            self._process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--snapshot", str(self._snapshot),
                    "--workers", "1",
                    "--port", str(self.port),
                ],
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=log,
            )
        while time.perf_counter() - started < READY_TIMEOUT:
            if self._process.poll() is not None:
                break
            client = Client(self.port)
            try:
                status, _ = client.get("/v1/ready")
            except OSError:
                status = 0
            finally:
                client.close()
            if status == 200:
                return time.perf_counter() - started
            time.sleep(0.01)
        self.stop()
        log_tail = (self._directory / "server.log").read_text(errors="replace")[-2000:]
        raise RuntimeError("server did not become ready:\n%s" % log_tail)

    @property
    def pid(self) -> int:
        return self._process.pid

    def stop(self) -> None:
        process, self._process = self._process, None
        if process is None:
            return
        process.terminate()
        try:
            process.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


class Client:
    """One persistent HTTP/1.1 connection."""

    def __init__(self, port: int) -> None:
        self._connection = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=REQUEST_TIMEOUT
        )

    def post(self, path: str, body: bytes) -> Tuple[int, bytes]:
        self._connection.request("POST", path, body, HEADERS)
        response = self._connection.getresponse()
        return response.status, response.read()

    def get(self, path: str) -> Tuple[int, bytes]:
        self._connection.request("GET", path)
        response = self._connection.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self._connection.close()


def _set_up(files, directory, pool, repeats: int) -> Tuple[Server, float, float, List[Tuple[int, bytes]]]:
    """-> (live server, median set-up seconds, median boot seconds, the
    last warm-up pass's replies)."""
    totals, boots = [], []
    server = None
    for _ in range(repeats):
        if server is not None:
            server.stop()
        server = Server(files.snapshot, directory)
        started = time.perf_counter()
        try:
            boots.append(server.start())
            client = Client(server.port)
            replies = [client.post("/v1/query", request_body(query)) for query in pool]
            client.close()
        except BaseException:
            server.stop()
            raise
        totals.append(time.perf_counter() - started)
    return server, median(totals), median(boots), replies


def _gate(pool, replies, engine) -> None:
    """The warm-up replies must equal the library engine's answers."""
    for query, (status, raw) in zip(pool, replies):
        expected = oracle.result_answer(engine.query(query))
        got = oracle.wire_answer(json.loads(raw)) if status == 200 else "HTTP %d" % status
        if got != expected:
            raise GateError(gate_failure("http_warm vs library", Op("O", "query", query), got, expected))


def _client_loop(port: int, ops: Iterator[Op], count: int, out: List[Record]) -> None:
    client = Client(port)
    try:
        for op in itertools.islice(ops, count):
            body = request_body(op.query)
            started = time.perf_counter()
            try:
                reply = client.post("/v1/query", body)
            except (OSError, http.client.HTTPException) as error:
                reply = (0, repr(error).encode("utf-8"))
                client = Client(port)
            out.append(Record(op, time.perf_counter() - started, reply, False))
    finally:
        client.close()


def _http_phase(port: int, requests: ZipfRequests, per_client_count: int, clients: int):
    """Every client sends ``per_client_count`` requests, closed loop.
    -> (per-client records, phase wall seconds)."""
    per_client: List[List[Record]] = [[] for _ in range(clients)]
    started = time.perf_counter()
    threads = [
        threading.Thread(
            target=_client_loop,
            args=(port, requests.client(index), per_client_count, per_client[index]),
        )
        for index in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return per_client, time.perf_counter() - started


def _check(ledger: Ledger, engine) -> Dict[str, List[float]]:
    """Every reply: status 200, not timed out, and exactly the library
    engine's answer for the same input (``k`` places wherever ``k``
    qualify).  Returns what the replies carry."""
    carried: Dict[str, List[float]] = {"runtime": [], "overhead": [], "bytes": [], "refused": []}
    for record in ledger.records:
        status, raw = record.reply
        carried["refused"].append(float(status in (429, 503)))
        if status != 200:
            ledger.fail("HTTP %d: %s" % (status, raw[:200]))
            continue
        document = json.loads(raw)
        if document["timed_out"]:
            ledger.fail("timed out on %r" % (record.op.query.keywords,))
            continue
        got = oracle.wire_answer(document)
        expected = oracle.result_answer(engine.query(record.op.query))
        if got != expected:
            ledger.fail(gate_failure("timed http_warm reply", record.op, got, expected))
        runtime = document["stats"]["runtime_seconds"]
        carried["runtime"].append(runtime)
        carried["overhead"].append(record.seconds - runtime)
        carried["bytes"].append(float(len(raw)))
    return carried


class _Replay:
    """The request path without the socket: what ``do_POST`` does around
    ``handle_query``, called in-process so spans can see inside."""

    def __init__(self, server) -> None:
        self._server = server
        self._count = 0

    def handle(self, payload, request_id: str):
        return self._server.handle_query(payload, request_id, False)

    def encode(self, body) -> bytes:
        return json.dumps(body, sort_keys=True).encode("utf-8")

    def __call__(self, op: Op):
        self._count += 1
        payload = json.loads(request_body(op.query))
        status, body, _ = self.handle(payload, "replay-%d" % self._count)
        return status, body, self.encode(body)


def _traced_layers(
    ctx: Context, requests: ZipfRequests, engine, ledger: Ledger, detail, client_p50_ms: float
) -> Dict[str, float]:
    """The request path replayed in process under spans; ``serve.wire_ms`` is
    what the real clients saw beyond it."""
    from repro.serve import KSPServer

    server = KSPServer(engine=engine)
    replay = _Replay(server)
    for query in requests.pool:
        replay(Op("O", "query", query))

    def tracing_into(recorder: SpanRecorder) -> Tracing:
        return Tracing(
            recorder,
            [engine],
            calls=[
                (replay, "handle", "serve.handle"),
                (replay, "encode", "serve.encode"),
                (engine, "query", "core.query"),
            ],
        )

    recorder = SpanRecorder()
    tracing = tracing_into(recorder)
    ops = requests.client(0)

    def blocks():  # as many requests as the clients sent, client 0's sequence
        for _ in range(max(2, len(ledger.records) // REPLAY_BLOCK)):
            yield [next(ops) for _ in range(REPLAY_BLOCK)]

    replayed = Ledger()
    cache_before = layers.cache_counters([engine])
    run_loop(
        blocks(), replay, ctx.seconds, replayed,
        tracing=tracing, recorder=recorder, root_span="serve.request",
    )
    cache_after = layers.cache_counters([engine])

    stats = {}
    pipeline = []
    table = SpanTable(recorder.spans)
    handle_seconds = {}
    for span in recorder.spans:
        if span[0] == "serve.handle":
            handle_seconds[span[4]] = span[2] - span[1]
    for record in replayed.records:
        if record.reply is None or record.reply[0] != 200:
            replayed.fail("in-process replay answered %r" % (record.reply and record.reply[0],))
            continue
        if record.traced:
            stats[record.op_id] = record.reply[1]["stats"]
            pipeline.append(
                handle_seconds[record.op_id] - record.reply[1]["stats"]["runtime_seconds"]
            )
    ledger.records.extend(replayed.records)
    ledger.failed += replayed.failed

    metrics = layers.engine_layers(recorder.spans, replayed, stats)
    metrics["core.cache_hit_share"] = layers.cache_hit_share(cache_before, cache_after)
    scratch = SpanRecorder()
    metrics["trace_overhead_share"] = trace_overhead_share(
        replayed, replay, tracing_into(scratch), scratch, "serve.request", ctx.seconds
    )
    metrics["serve.parse_us"] = 1e6 * table.mean("serve.parse")
    metrics["serve.encode_us"] = 1e6 * table.mean("serve.encode")
    metrics["serve.pipeline_us"] = 1e6 * mean(pipeline)
    metrics["serve.wire_ms"] = client_p50_ms - 1e3 * median(replayed.seconds(traced=False))
    replays, _ = layers.engine_replays(engine, requests.pool)
    metrics.update(replays)
    write_trace("http_warm", recorder, ledger, detail)
    return metrics


def run(ctx: Context) -> Outcome:
    with corpus.scratch_dir("http_warm") as directory:
        return _run(ctx, directory)


def _run(ctx: Context, directory) -> Outcome:
    from repro import KSPEngine

    files = corpus.ensure_corpus(ctx.smoke)
    engine = KSPEngine.from_snapshot(files.snapshot)  # the harness's reference
    requests = ZipfRequests(engine.graph, engine.inverted_index, ctx.seed)
    clients = min(MAX_CLIENTS, len(os.sched_getaffinity(0)))

    server, setup_s, boot_s, warm_replies = _set_up(
        files, directory, requests.pool, 1 if ctx.smoke or ctx.trace else SETUP_REPEATS
    )
    try:
        _gate(requests.pool, warm_replies, engine)
        share = ctx.seconds / RUN_SECONDS / (2 if ctx.trace else 1)
        per_client, wall = _http_phase(
            server.port, requests, max(1, round(HTTP_REQUESTS * share / clients)), clients
        )
        admission_waits = []
        if ctx.trace:
            client = Client(server.port)
            status, raw = client.get("/v1/debug/queries?limit=256")
            client.close()
            if status == 200:
                admission_waits = [
                    entry["admission_wait_seconds"]
                    for entry in json.loads(raw)["queries"]
                    if entry.get("admission_wait_seconds") is not None
                ]
            if not admission_waits:  # 0 must mean "never queued", not "not measured"
                raise GateError("/v1/debug/queries (HTTP %d) reports no admission waits" % status)
        rss = peak_rss_mb(server.pid)
    finally:
        server.stop()

    ledger = Ledger()
    for records in per_client:
        ledger.records.extend(records)
    carried = _check(ledger, engine)
    detail = {
        "clients": clients,
        "answers_sha256": oracle.digest(
            oracle.wire_answer(json.loads(record.reply[1]))
            for records in per_client
            for record in records
            if record.reply[0] == 200
        ),
        "engine_runtime_p50_ms": 1e3 * median(carried["runtime"]) if carried["runtime"] else None,
        **ledger.sample_counts(),
    }
    if not ctx.trace:
        metrics = ledger.end_to_end(wall=wall)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = rss
        metrics["snapshot_bytes_per_vertex"] = files.snapshot_bytes / files.vertices
        return Outcome(ledger.attempted, ledger.failed, metrics, detail)

    client_p50_ms = 1e3 * median(ledger.seconds())
    metrics = _traced_layers(ctx, requests, engine, ledger, detail, client_p50_ms)
    metrics["serve.overhead_p50_ms"] = 1e3 * median(carried["overhead"])
    metrics["serve.response_bytes"] = mean(carried["bytes"])
    metrics["serve.refused_share"] = mean(carried["refused"])
    metrics["serve.admission_wait_us"] = 1e6 * mean(admission_waits)
    metrics["serve.boot_s"] = boot_s
    metrics.update(layers.snapshot_sections([files.snapshot]))
    return Outcome(ledger.attempted, ledger.failed, metrics, detail)
