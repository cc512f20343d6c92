"""The kSP query service: a stdlib-only HTTP/JSON serving layer.

``KSPServer`` wraps one preloaded :class:`~repro.core.engine.KSPEngine`
behind ``http.server.ThreadingHTTPServer`` — no third-party web
framework, matching the repository's no-dependency rule.  Endpoints:

``POST /v1/query``
    One kSP query (see :mod:`repro.serve.schemas` for the body).  The
    response is :meth:`KSPResult.to_dict`; append ``?trace=1`` (or set
    ``"trace": true``) for the per-phase time breakdown.
``POST /v1/batch``
    ``{"queries": [...]}`` with batch-level defaults; slots answer in
    order under one shared deadline and one admission slot.
``POST /v1/sparql``
    ``{"query": "SELECT ... ksp(...) ..."}`` — the SPARQL front end
    (:mod:`repro.sparql`), with the paper's query embeddable as a
    ``ksp()`` clause and ``ORDER BY ?score LIMIT n`` pushed down into
    the engine's top-k machinery.  The response is
    :meth:`~repro.sparql.plan.SparqlResult.to_dict`; admission,
    deadlines, request ids, the flight recorder and metrics apply
    exactly as on ``/v1/query``.
``GET /v1/metrics``
    Prometheus text exposition: the server's ``ksp_http_*`` families
    concatenated with the engine's ``ksp_query_*`` families.  On a
    pre-forked fleet the answering worker instead merges every
    worker's metrics spool (counters summed, histograms bucket-merged,
    gauges labeled ``worker="pid"``), and a router over HTTP shard
    fleets additionally folds in each fleet's aggregated state labeled
    ``shard="i"`` — one scrape sees the whole deployment
    (:mod:`repro.obs.fleet`).
``GET /v1/healthz`` / ``GET /v1/ready``
    Liveness (always 200 once listening) versus readiness (503 until
    the engine — possibly still loading in the background — is up).
``GET /v1/debug/queries``
    The engine's flight recorder: the last N completed queries, newest
    first, with phase breakdowns and cost counters.  Filters:
    ``?limit=``, ``?outcome=ok|timeout|error|rejected``, ``?min_ms=``.
``GET /v1/debug/inflight``
    Queries executing or queued right now, oldest first, each with its
    age and current phase — "what is the server doing?" while a slow
    query is still running.
``GET /v1/debug/engine``
    One self-describing snapshot: dataset/index sizes, manifest hash,
    TQSP-cache occupancy, flight-recorder accounting, admission state
    and the frozen engine + serve configs.
``GET /v1/debug/metrics``
    The aggregated registry state as JSON (the machine-readable twin of
    ``/v1/metrics``) — what a router scrapes from each shard fleet to
    build the deployment-wide exposition.
``GET /v1/debug/load``
    Per-shard load statistics derived from the flight recorder: query
    counts, latency buckets, fan-out distribution, and per shard the
    executed/pruned/timed-out split — the machine-readable signal for
    load-aware re-sharding.  Also ``repro shard stats``.
``GET /v1/debug/profile``
    A bounded sampling-profiler capture of this process
    (``?seconds=S&hz=H``): collapsed stacks (flamegraph.pl format) plus
    a top-N self-time table.  At most one capture per process; a
    concurrent request is answered 409.

Telemetry.  Request ids (client ``X-Request-Id`` or generated) and W3C
``traceparent`` trace ids thread through ``QueryOptions`` into results,
flight-recorder entries, latency-histogram exemplars and structured
logs (:mod:`repro.obs.log`), so one id correlates a request across
every surface.  ``?trace=1`` responses add ``trace_events`` — the
per-phase breakdown in Chrome ``trace_event`` JSON, loadable in
Perfetto.

Overload protocol.  Admission is bounded (``workers`` concurrent
queries, ``queue_depth`` waiters).  A request that finds the queue full
is answered ``429`` with a ``Retry-After`` hint — never a dropped
connection.  A request whose cooperative deadline expires — while
queued or mid-query — is answered ``504`` whose body is still the full
wire schema carrying the best-so-far partial top-k and
``"timed_out": true``; one :class:`~repro.core.deadline.Deadline`
bounds queue wait plus execution, so time spent queued counts against
the request's budget.

Every request carries an id (client's ``X-Request-Id`` or a generated
one), echoed in the response header and body and threaded through
``QueryOptions.request_id`` into slow-query logs and traces.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import threading
import time
import uuid
from dataclasses import dataclass, replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.core.deadline import Deadline
from repro.core.engine import KSPEngine
from repro.core.metrics import ServingMetrics
from repro.core.query import KSPQuery, KSPResult
from repro.core.stats import QueryStats, QueryTimeout
from repro.obs import profiler as obs_profiler
from repro.obs.fleet import (
    label_state,
    load_report,
    merge_spools,
    merge_states,
    read_metrics_spools,
    render_state,
    write_metrics_spool,
)
from repro.obs.log import get_logger, log_context
from repro.obs.recorder import OUTCOMES, QueryRecord
from repro.obs.traceexport import (
    parse_traceparent,
    stitch_trace_events,
    trace_events,
)
from repro.serve.admission import AdmissionController, QueueFull
from repro.serve.schemas import (
    SchemaError,
    build_options,
    build_sparql_options,
    error_body,
    parse_batch_request,
    parse_query_request,
    parse_sparql_request,
)
from repro.sparql.eval import SparqlEvaluationError
from repro.sparql.parser import SparqlSyntaxError, parse_query as parse_sparql
from repro.sparql.plan import (
    SparqlExecutor,
    SparqlPlanError,
    SparqlResult,
    SparqlStats,
)

_log = get_logger("repro.serve")

#: Largest request body the server reads.  A larger ``Content-Length``
#: claim is answered 413 before any of the body is read, so a hostile
#: claim can neither pre-allocate memory nor park a worker on a read.
MAX_BODY_BYTES = 1 << 20


class BodyTooLarge(SchemaError):
    """A ``Content-Length`` claim above :data:`MAX_BODY_BYTES` (413)."""


@dataclass(frozen=True)
class ServeConfig:
    """Server tunables (immutable, like :class:`EngineConfig`)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = pick a free port; read it back from server.port
    workers: int = 4  # queries admitted into the engine concurrently
    queue_depth: int = 16  # bounded waiters beyond the active set
    default_timeout: Optional[float] = None  # per-request budget fallback
    sparql_k_cap: int = 1000  # largest k a ksp() clause may request

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if self.queue_depth < 0:
            raise ValueError("queue_depth cannot be negative")
        if self.default_timeout is not None and self.default_timeout <= 0:
            raise ValueError("default_timeout must be positive")
        if self.sparql_k_cap < 1:
            raise ValueError("sparql_k_cap must be positive")

    def replace(self, **changes) -> "ServeConfig":
        return replace(self, **changes)


def _new_request_id() -> str:
    return uuid.uuid4().hex[:12]


def _last_param(params: Dict[str, Any], name: str) -> Optional[str]:
    """The last value of a repeatable query parameter, or None."""
    values = params.get(name)
    if not values:
        return None
    return values[-1]


def _int_param(params: Dict[str, Any], name: str, default: Optional[int]):
    raw = _last_param(params, name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise SchemaError("%s must be an integer" % name) from None
    if value < 0:
        raise SchemaError("%s cannot be negative" % name)
    return value


def _float_param(params: Dict[str, Any], name: str, default: Optional[float]):
    raw = _last_param(params, name)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise SchemaError("%s must be a number" % name) from None
    if value < 0:
        raise SchemaError("%s cannot be negative" % name)
    return value


class _HTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    # socketserver's default accept backlog is 5; overload bursts must
    # reach the admission controller (and get an orderly 429), not be
    # reset by a full kernel queue.
    request_queue_size = 128


class KSPServer:
    """One engine behind a threaded HTTP front end.

    Pass a ready ``engine``, or an ``engine_loader`` callable to build
    it in a background thread — ``/v1/ready`` answers 503 until the
    load finishes, so orchestrators can gate traffic on it.
    """

    def __init__(
        self,
        engine: Optional[KSPEngine] = None,
        config: Optional[ServeConfig] = None,
        engine_loader: Optional[Callable[[], KSPEngine]] = None,
        worker=None,
    ) -> None:
        if engine is None and engine_loader is None:
            raise ValueError("provide an engine or an engine_loader")
        # In pre-forked serving (repro.serve.multiproc) each process gets
        # a WorkerContext(index, status_dir); /v1/debug/engine then also
        # reports this worker's identity and the whole fleet's heartbeats.
        self.worker = worker
        self.config = config or ServeConfig()
        self.metrics = ServingMetrics()
        self.admission = AdmissionController(
            self.config.workers, self.config.queue_depth
        )
        self._engine = engine
        self._engine_loader = engine_loader
        self._sparql: Optional[SparqlExecutor] = None
        self._sparql_lock = threading.Lock()
        self._load_error: Optional[str] = None
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------

    @property
    def engine(self) -> Optional[KSPEngine]:
        return self._engine

    @property
    def ready(self) -> bool:
        return self._engine is not None

    @property
    def load_error(self) -> Optional[str]:
        return self._load_error

    @property
    def port(self) -> int:
        if self._httpd is None:
            raise RuntimeError("server is not started")
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return "http://%s:%d" % (self.config.host, self.port)

    # ------------------------------------------------------------------

    def start(self, listen_socket=None) -> "KSPServer":
        """Start serving; ``listen_socket`` adopts an already-bound
        socket instead of binding one (the pre-fork path: every worker
        process accepts on the same inherited listener)."""
        if self._httpd is not None:
            raise RuntimeError("server already started")
        # Claim SIGALRM for the sampling profiler while we are (usually)
        # still on the main thread; a False return just means
        # /v1/debug/profile falls back to the thread-sampling engine.
        obs_profiler.install()
        handler = _make_handler(self)
        if listen_socket is None:
            self._httpd = _HTTPServer(
                (self.config.host, self.config.port), handler
            )
        else:
            self._httpd = _HTTPServer(
                (self.config.host, self.config.port), handler,
                bind_and_activate=False,
            )
            self._httpd.socket.close()  # the auto-created, unbound one
            self._httpd.socket = listen_socket
            address = listen_socket.getsockname()
            self._httpd.server_address = address
            self._httpd.server_name = address[0]
            self._httpd.server_port = address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="ksp-serve", daemon=True
        )
        self._thread.start()
        if self._engine is None and self._engine_loader is not None:
            threading.Thread(
                target=self._load_engine, name="ksp-engine-load", daemon=True
            ).start()
        return self

    def _load_engine(self) -> None:
        try:
            self._engine = self._engine_loader()
        except Exception as exc:  # surfaced via /v1/ready, not a crash
            self._load_error = "%s: %s" % (type(exc).__name__, exc)

    def stop(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def drain(self, timeout: float = 5.0) -> None:
        """Graceful shutdown: stop accepting, wait up to ``timeout``
        seconds for admitted queries to finish, then close."""
        if self._httpd is None:
            return
        self._httpd.shutdown()
        deadline = time.monotonic() + timeout
        while self.admission.active > 0 and time.monotonic() < deadline:
            time.sleep(0.05)
        self._httpd.server_close()
        self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=1.0)
            self._thread = None

    def worker_status(self) -> Dict[str, Any]:
        """One JSON-safe heartbeat record for this serving process — what
        a pre-forked worker publishes and ``/v1/debug/engine`` aggregates."""
        status: Dict[str, Any] = {
            "pid": os.getpid(),
            "ready": self.ready,
            "admission": {
                "active": self.admission.active,
                "queued": self.admission.queued,
            },
        }
        if self.worker is not None:
            status["index"] = self.worker.index
        if self._engine is not None:
            status["manifest_hash"] = self._engine.manifest_hash
            status["flight_recorder"] = self._engine.flight_recorder.counters()
        return status

    def serve_forever(self) -> None:
        """Block the calling thread until interrupted (CLI entry)."""
        if self._httpd is None:
            self.start()
        try:
            with contextlib.suppress(KeyboardInterrupt):
                while True:
                    time.sleep(3600.0)
        finally:
            self.stop()

    def __enter__(self) -> "KSPServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Request handling (called from handler threads).

    def handle_get(
        self, path: str, params: Optional[Dict[str, Any]] = None
    ) -> Tuple[int, Any, str]:
        """-> (status, body, content type); body may be dict or str."""
        params = params or {}
        if path == "/v1/healthz":
            return 200, {"status": "ok"}, "application/json"
        if path == "/v1/ready":
            if self.ready:
                return 200, {"status": "ready"}, "application/json"
            body = {"status": "loading"}
            if self._load_error is not None:
                body = {"status": "failed", "error": self._load_error}
            return 503, body, "application/json"
        if path == "/v1/metrics":
            return 200, self._metrics_exposition(), "text/plain; version=0.0.4"
        if path.startswith("/v1/debug/"):
            return self._handle_debug(path, params)
        return 404, error_body("no such endpoint: %s" % path), "application/json"

    # ------------------------------------------------------------------
    # Metrics aggregation (the fleet plane; see repro.obs.fleet)

    def metrics_state(self) -> Dict[str, Any]:
        """This PROCESS's combined registry state: the HTTP families
        plus the engine's (or router's) families, in spool shape."""
        state = self.metrics.registry.state()
        engine_state = getattr(self._engine, "metrics_state", None)
        if engine_state is not None:
            state = merge_states([state, engine_state()])
        return state

    def publish_metrics_spool(self) -> None:
        """Write this worker's current state to its fleet spool file
        (heartbeat-time and scrape-time; atomic, never raises)."""
        if self.worker is None:
            return
        try:
            write_metrics_spool(
                self.worker.status_dir,
                self.metrics_state(),
                index=self.worker.index,
            )
        except OSError:  # status dir removed under us (fleet stopping)
            pass

    def _aggregated_metrics_state(self) -> Dict[str, Any]:
        """What one scrape of this process should see: own state, merged
        with every sibling worker's spool (counters summed, gauges
        labeled per worker) and — when the engine is a router over HTTP
        shard fleets — each fleet's own aggregated state, labeled
        ``shard="i"`` so partitions stay distinguishable."""
        merged = self.metrics_state()
        if self.worker is not None:
            # Refresh our own spool synchronously first: spools only
            # ever grow, so whichever worker answers the next scrape,
            # the merged counters can never regress.
            self.publish_metrics_spool()
            spools = read_metrics_spools(self.worker.status_dir)
            if spools:
                merged = merge_spools(spools)
        fleet_states = getattr(self._engine, "fleet_metrics_states", None)
        if fleet_states is not None:
            shard_states = fleet_states()
            if shard_states:
                merged = merge_states(
                    [merged]
                    + [
                        label_state(
                            entry["state"], {"shard": str(entry["shard"])}
                        )
                        for entry in shard_states
                    ]
                )
        return merged

    def _metrics_exposition(self) -> str:
        """The ``/v1/metrics`` body.  Single-process serving keeps the
        original two-exposition concatenation byte-compatibly; a
        pre-forked worker or a router over HTTP fleets renders the
        aggregated state instead."""
        aggregate = self.worker is not None or (
            getattr(self._engine, "shard_urls", None) is not None
        )
        if not aggregate:
            text = self.metrics.render_text()
            if self._engine is not None:
                text += self._engine.metrics_text()
            return text
        return render_state(self._aggregated_metrics_state())

    def _handle_debug(
        self, path: str, params: Dict[str, Any]
    ) -> Tuple[int, Any, str]:
        """The ``/v1/debug/*`` introspection family (JSON only)."""
        if path == "/v1/debug/profile":
            # Profiling needs no engine: it answers "where is THIS
            # process spending time", loading included.
            return self._handle_profile(params)
        if not self.ready:
            return 503, error_body("engine is still loading"), "application/json"
        recorder = self._engine.flight_recorder
        if path == "/v1/debug/queries":
            try:
                limit = _int_param(params, "limit", 50)
                min_ms = _float_param(params, "min_ms", None)
            except SchemaError as exc:
                return 400, error_body(str(exc)), "application/json"
            outcome = _last_param(params, "outcome")
            if outcome is not None and outcome not in OUTCOMES:
                return (
                    400,
                    error_body(
                        "outcome must be one of %s" % ", ".join(OUTCOMES)
                    ),
                    "application/json",
                )
            records = recorder.snapshot(
                limit=limit,
                outcome=outcome,
                min_runtime_seconds=(
                    min_ms / 1000.0 if min_ms is not None else None
                ),
            )
            body = {"queries": records, "count": len(records)}
            body.update(recorder.counters())
            return 200, body, "application/json"
        if path == "/v1/debug/inflight":
            live = recorder.inflight()
            return 200, {"inflight": live, "count": len(live)}, "application/json"
        if path == "/v1/debug/metrics":
            body = {
                "pid": os.getpid(),
                "state": self._aggregated_metrics_state(),
            }
            if self.worker is not None:
                body["worker"] = self.worker.index
            return 200, body, "application/json"
        if path == "/v1/debug/load":
            records = recorder.snapshot()
            shard_engines = getattr(self._engine, "engines", None)
            report = load_report(
                records,
                shard_count=(
                    len(shard_engines) if shard_engines is not None else None
                ),
            )
            report["pid"] = os.getpid()
            return 200, report, "application/json"
        if path == "/v1/debug/engine":
            snapshot = self._engine.debug_snapshot()
            snapshot["admission"] = {
                "active": self.admission.active,
                "queued": self.admission.queued,
                "workers": self.config.workers,
                "queue_depth": self.config.queue_depth,
            }
            snapshot["serve_config"] = {
                "host": self.config.host,
                "port": self.config.port,
                "workers": self.config.workers,
                "queue_depth": self.config.queue_depth,
                "default_timeout": self.config.default_timeout,
            }
            if self.worker is not None:
                from repro.serve.multiproc import read_worker_statuses

                snapshot["worker"] = {
                    "index": self.worker.index,
                    "pid": os.getpid(),
                }
                snapshot["workers"] = read_worker_statuses(
                    self.worker.status_dir
                )
            return 200, snapshot, "application/json"
        return 404, error_body("no such endpoint: %s" % path), "application/json"

    def _handle_profile(
        self, params: Dict[str, Any]
    ) -> Tuple[int, Any, str]:
        """``GET /v1/debug/profile?seconds=S&hz=H`` — one bounded
        sampling-profiler capture of THIS process.  409 while another
        capture runs (the one-profile-per-process guard)."""
        try:
            seconds = _float_param(params, "seconds", 1.0)
            hz = _float_param(params, "hz", float(obs_profiler.DEFAULT_HZ))
            top_n = _int_param(params, "top", 20)
        except SchemaError as exc:
            return 400, error_body(str(exc)), "application/json"
        try:
            report = obs_profiler.run_profile(seconds, hz)
        except obs_profiler.ProfilerError as exc:
            return 400, error_body(str(exc)), "application/json"
        except obs_profiler.ProfilerBusy as exc:
            return 409, error_body(str(exc)), "application/json"
        body = report.as_dict(top_n=top_n or 20)
        if self.worker is not None:
            body["worker"] = self.worker.index
        return 200, body, "application/json"

    def handle_query(
        self,
        payload: Any,
        request_id: str,
        force_trace: bool,
        trace_id: Optional[str] = None,
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        """``POST /v1/query`` -> (status, body, extra headers)."""
        started = time.monotonic()
        if not self.ready:
            return 503, error_body("engine is still loading", request_id), {}
        try:
            query, fields = parse_query_request(payload)
        except SchemaError as exc:
            return 400, error_body(str(exc), request_id), {}
        if force_trace:
            fields["trace"] = True
        timeout = fields.get("timeout", self.config.default_timeout)
        deadline = Deadline.after(timeout)

        recorder = self._engine.flight_recorder
        handle = recorder.begin(
            request_id=request_id,
            endpoint="/v1/query",
            method=fields.get("method") or "sp",
            keywords=query.keywords,
            k=query.k,
            phase="admission-queue",
        )
        admission_wait: Optional[float] = None
        try:
            with self.admission.admit(deadline) as queue_wait:
                admission_wait = queue_wait
                self.metrics.queue_wait.observe(queue_wait)
                handle.set_phase("executing")
                self.metrics.inflight.inc()
                try:
                    result = self._engine.query(
                        query,
                        options=build_options(
                            fields, deadline, request_id, trace_id
                        ),
                    )
                finally:
                    self.metrics.inflight.inc(-1)
        except QueueFull:
            self.metrics.rejections.inc()
            retry_after = max(
                1, int(math.ceil(self.admission.retry_after_hint(timeout)))
            )
            self._record_refusal(
                request_id,
                trace_id,
                "/v1/query",
                "rejected",
                429,
                started,
                keywords=query.keywords,
                k=query.k,
            )
            _log.warning(
                "request_rejected",
                request_id=request_id,
                endpoint="/v1/query",
                retry_after_seconds=retry_after,
            )
            body = error_body("server overloaded; retry later", request_id)
            body["retry_after_seconds"] = retry_after
            return 429, body, {"Retry-After": str(retry_after)}
        except QueryTimeout:
            # The deadline expired while still queued: a 504 whose body is
            # the same wire schema, with an empty partial top-k.
            self.metrics.timeouts.inc()
            self._record_refusal(
                request_id,
                trace_id,
                "/v1/query",
                "timeout",
                504,
                started,
                keywords=query.keywords,
                k=query.k,
                admission_wait=admission_wait,
            )
            _log.warning(
                "request_timed_out_in_queue",
                request_id=request_id,
                endpoint="/v1/query",
                timeout_seconds=timeout,
            )
            timed_out = self._timed_out_result(query, request_id, trace_id)
            return 504, timed_out.to_dict(), {}
        finally:
            recorder.end(handle)
            self.metrics.latency.observe(
                time.monotonic() - started, exemplar={"request_id": request_id}
            )

        status = 200
        if result.stats.timed_out:
            self.metrics.timeouts.inc()
            status = 504
        recorder.annotate(
            request_id,
            endpoint="/v1/query",
            admission_wait_seconds=admission_wait,
            status=status,
        )
        body = result.to_dict()
        if result.trace is not None:
            body["trace_events"] = self._trace_document(result, request_id)
        return status, body, {}

    def handle_batch(
        self,
        payload: Any,
        request_id: str,
        force_trace: bool,
        trace_id: Optional[str] = None,
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        """``POST /v1/batch`` -> (status, body, extra headers)."""
        started = time.monotonic()
        if not self.ready:
            return 503, error_body("engine is still loading", request_id), {}
        try:
            slots, shared = parse_batch_request(payload)
        except SchemaError as exc:
            return 400, error_body(str(exc), request_id), {}
        timeout = shared.get("timeout", self.config.default_timeout)
        deadline = Deadline.after(timeout)

        recorder = self._engine.flight_recorder
        handle = recorder.begin(
            request_id=request_id,
            endpoint="/v1/batch",
            method=shared.get("method") or "sp",
            k=len(slots),
            phase="admission-queue",
        )
        admission_wait: Optional[float] = None
        try:
            with self.admission.admit(deadline) as queue_wait:
                admission_wait = queue_wait
                self.metrics.queue_wait.observe(queue_wait)
                handle.set_phase("executing")
                self.metrics.inflight.inc()
                try:
                    results = []
                    for index, (query, fields) in enumerate(slots):
                        slot_id = "%s-%d" % (request_id, index)
                        if force_trace:
                            fields["trace"] = True
                        handle.set_phase("executing %d/%d" % (index + 1, len(slots)))
                        # The shared deadline overrides any per-slot
                        # timeout: one budget bounds the whole batch.
                        results.append(
                            self._engine.query(
                                query,
                                options=build_options(
                                    fields, deadline, slot_id, trace_id
                                ),
                            )
                        )
                finally:
                    self.metrics.inflight.inc(-1)
        except QueueFull:
            self.metrics.rejections.inc()
            retry_after = max(
                1, int(math.ceil(self.admission.retry_after_hint(timeout)))
            )
            self._record_refusal(
                request_id, trace_id, "/v1/batch", "rejected", 429, started
            )
            _log.warning(
                "request_rejected",
                request_id=request_id,
                endpoint="/v1/batch",
                retry_after_seconds=retry_after,
            )
            body = error_body("server overloaded; retry later", request_id)
            body["retry_after_seconds"] = retry_after
            return 429, body, {"Retry-After": str(retry_after)}
        except QueryTimeout:
            self.metrics.timeouts.inc()
            self._record_refusal(
                request_id,
                trace_id,
                "/v1/batch",
                "timeout",
                504,
                started,
                admission_wait=admission_wait,
            )
            _log.warning(
                "request_timed_out_in_queue",
                request_id=request_id,
                endpoint="/v1/batch",
                timeout_seconds=timeout,
            )
            body = {
                "request_id": request_id,
                "timed_out": True,
                "results": [],
            }
            return 504, body, {}
        finally:
            recorder.end(handle)
            self.metrics.latency.observe(
                time.monotonic() - started, exemplar={"request_id": request_id}
            )

        timed_out = any(result.stats.timed_out for result in results)
        if timed_out:
            self.metrics.timeouts.inc()
        status = 504 if timed_out else 200
        slot_bodies = []
        for result in results:
            recorder.annotate(
                result.request_id,
                endpoint="/v1/batch",
                admission_wait_seconds=admission_wait,
                status=status,
            )
            slot_body = result.to_dict()
            if result.trace is not None:
                slot_body["trace_events"] = self._trace_document(
                    result, result.request_id
                )
            slot_bodies.append(slot_body)
        body = {
            "request_id": request_id,
            "timed_out": timed_out,
            "results": slot_bodies,
        }
        return status, body, {}

    def _sparql_executor(self) -> SparqlExecutor:
        """The per-server SPARQL executor (one triple view, built lazily
        once the engine is up; engines are immutable after load)."""
        with self._sparql_lock:
            if self._sparql is None:
                self._sparql = SparqlExecutor(self._engine)
            return self._sparql

    def handle_sparql(
        self,
        payload: Any,
        request_id: str,
        force_trace: bool,
        trace_id: Optional[str] = None,
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        """``POST /v1/sparql`` -> (status, body, extra headers)."""
        started = time.monotonic()
        if not self.ready:
            return 503, error_body("engine is still loading", request_id), {}
        try:
            text, fields = parse_sparql_request(payload)
        except SchemaError as exc:
            return 400, error_body(str(exc), request_id), {}
        try:
            parsed = parse_sparql(text)
        except SparqlSyntaxError as exc:
            body = error_body(str(exc), request_id)
            body["position"] = exc.position
            body["line"] = exc.line
            body["column"] = exc.column
            return 400, body, {}
        if force_trace:
            fields["trace"] = True
        timeout = fields.get("timeout", self.config.default_timeout)
        deadline = Deadline.after(timeout)

        clause = parsed.ksp
        recorder = self._engine.flight_recorder
        handle = recorder.begin(
            request_id=request_id,
            endpoint="/v1/sparql",
            method="sparql",
            keywords=tuple(clause.keywords.split()) if clause else (),
            k=(clause.k or 0) if clause else 0,
            phase="admission-queue",
        )
        admission_wait: Optional[float] = None
        try:
            with self.admission.admit(deadline) as queue_wait:
                admission_wait = queue_wait
                self.metrics.queue_wait.observe(queue_wait)
                handle.set_phase("executing")
                self.metrics.inflight.inc()
                try:
                    result = self._sparql_executor().execute(
                        text,
                        build_sparql_options(
                            fields,
                            deadline,
                            request_id,
                            trace_id,
                            k_cap=self.config.sparql_k_cap,
                        ),
                    )
                finally:
                    self.metrics.inflight.inc(-1)
        except (SparqlPlanError, SparqlEvaluationError) as exc:
            return 400, error_body(str(exc), request_id), {}
        except QueueFull:
            self.metrics.rejections.inc()
            retry_after = max(
                1, int(math.ceil(self.admission.retry_after_hint(timeout)))
            )
            self._record_refusal(
                request_id, trace_id, "/v1/sparql", "rejected", 429, started
            )
            _log.warning(
                "request_rejected",
                request_id=request_id,
                endpoint="/v1/sparql",
                retry_after_seconds=retry_after,
            )
            body = error_body("server overloaded; retry later", request_id)
            body["retry_after_seconds"] = retry_after
            return 429, body, {"Retry-After": str(retry_after)}
        except QueryTimeout:
            # Expired while still queued: 504, same wire schema, no rows.
            self.metrics.timeouts.inc()
            self._record_refusal(
                request_id,
                trace_id,
                "/v1/sparql",
                "timeout",
                504,
                started,
                admission_wait=admission_wait,
            )
            _log.warning(
                "request_timed_out_in_queue",
                request_id=request_id,
                endpoint="/v1/sparql",
                timeout_seconds=timeout,
            )
            timed_out = SparqlResult(
                query=text,
                variables=[v.name for v in parsed.projected()],
                bindings=[],
                stats=SparqlStats(timed_out=True),
                request_id=request_id,
                trace_id=trace_id,
            )
            return 504, timed_out.to_dict(), {}
        finally:
            recorder.end(handle)
            self.metrics.latency.observe(
                time.monotonic() - started, exemplar={"request_id": request_id}
            )

        status = 200
        if result.stats.timed_out:
            self.metrics.timeouts.inc()
            status = 504
        recorder.annotate(
            request_id,
            endpoint="/v1/sparql",
            admission_wait_seconds=admission_wait,
            status=status,
        )
        return status, result.to_dict(), {}

    def _trace_document(
        self, result: KSPResult, request_id: Optional[str]
    ) -> Dict[str, Any]:
        """The response's ``trace_events``: this process's own spans —
        stitched with the shard sub-traces into one fleet-wide Perfetto
        timeline when the engine is a :class:`ShardRouter` that fanned
        out (``result.subtraces``)."""
        document = trace_events(
            result.trace,
            request_id=request_id,
            trace_id=result.trace_id,
            runtime_seconds=result.stats.runtime_seconds,
            os_pid=os.getpid(),
        )
        subtraces = getattr(result, "subtraces", None)
        if subtraces:
            document = stitch_trace_events(document, subtraces)
        return document

    def _record_refusal(
        self,
        request_id: str,
        trace_id: Optional[str],
        endpoint: str,
        outcome: str,
        status: int,
        started: float,
        keywords: Tuple[str, ...] = (),
        k: int = 0,
        admission_wait: Optional[float] = None,
    ) -> None:
        """Flight-record a request that never reached the engine."""
        self._engine.flight_recorder.record(
            QueryRecord(
                request_id=request_id,
                trace_id=trace_id,
                endpoint=endpoint,
                keywords=keywords,
                k=k,
                outcome=outcome,
                status=status,
                runtime_seconds=time.monotonic() - started,
                admission_wait_seconds=admission_wait,
            )
        )

    @staticmethod
    def _timed_out_result(
        query: KSPQuery, request_id: str, trace_id: Optional[str] = None
    ) -> KSPResult:
        stats = QueryStats(algorithm="QUEUED", timed_out=True)
        return KSPResult(
            query=query, stats=stats, request_id=request_id, trace_id=trace_id
        )


def _make_handler(app: KSPServer):
    """A BaseHTTPRequestHandler subclass bound to one server instance."""

    class Handler(BaseHTTPRequestHandler):
        server_version = "ksp-serve/1.0"
        protocol_version = "HTTP/1.1"
        # TCP_NODELAY on every accepted socket: no small write ever waits
        # for the peer's delayed ACK (see _send).
        disable_nagle_algorithm = True

        def log_message(self, format, *args):  # noqa: A002 - stdlib name
            pass  # request logging lives in the metrics, not stderr

        # ----------------------------------------------------------

        def _send(
            self,
            status: int,
            body: Any,
            content_type: str = "application/json",
            request_id: Optional[str] = None,
            headers: Optional[Dict[str, str]] = None,
        ) -> None:
            """The one writer of every reply: status line, headers and
            body leave in ONE ``wfile.write`` (one segment for small
            replies), so a keep-alive client never waits on Nagle for a
            body sent after the headers."""
            if isinstance(body, (dict, list)):
                raw = json.dumps(body, sort_keys=True).encode("utf-8")
            else:
                raw = str(body).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(raw)))
            if request_id is not None:
                self.send_header("X-Request-Id", request_id)
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            # end_headers() would flush the block on its own; append its
            # blank line and the body to the same buffer instead.
            frame = getattr(self, "_headers_buffer", [])
            if self.request_version != "HTTP/0.9":
                frame.append(b"\r\n")
            if self.command != "HEAD":
                frame.append(raw)
            self._headers_buffer = []
            self.wfile.write(b"".join(frame))

        def send_error(
            self, code: int, message: Optional[str] = None, explain: Optional[str] = None
        ) -> None:
            """The stdlib's own refusals (bad request line 400, 414, 431)
            as JSON through :meth:`_send`; they still close the
            connection."""
            # A request line that failed to parse leaves request_version
            # at the HTTP/0.9 default, which would strip the status line.
            self.request_version = self.protocol_version
            if message is None:
                message = self.responses.get(code, ("error", ""))[0]
            self._send(code, error_body(message), headers={"Connection": "close"})

        def __getattr__(self, name: str) -> Any:
            # The stdlib dispatches ``do_<METHOD>``; every method other
            # than GET and POST lands on the 405 reply, not a 501 page.
            if name.startswith("do_"):
                return self._method_not_allowed
            raise AttributeError(name)

        def _method_not_allowed(self) -> None:
            request_id = self.headers.get("X-Request-Id") or _new_request_id()
            self._close_if_body_unread()
            self._send(
                405,
                error_body("method %s not allowed" % self.command, request_id),
                request_id=request_id,
                headers={"Allow": "GET, POST"},
            )
            app.metrics.count_request(urlparse(self.path).path, 405)

        def _close_if_body_unread(self) -> None:
            """Answering without reading a declared body: drop the
            connection, so the body is never parsed as the next request."""
            if (
                self.headers.get("Content-Length", "0") != "0"
                or "Transfer-Encoding" in self.headers
            ):
                self.close_connection = True

        def _read_json(self) -> Any:
            if "Transfer-Encoding" in self.headers:
                # Only Content-Length framing is read: answer, then drop
                # the connection rather than parse chunks as a request.
                self.close_connection = True
                raise SchemaError("send the body with a Content-Length, not chunked")
            try:
                length = int(self.headers.get("Content-Length", "0"))
            except ValueError:
                length = -1
            if length < 0:
                # The body's end is unknown: answer, then drop the
                # connection rather than parse leftovers as a request.
                self.close_connection = True
                raise SchemaError("Content-Length must be a non-negative integer")
            if length > MAX_BODY_BYTES:
                # The unread body must not be parsed as the next request.
                self.close_connection = True
                raise BodyTooLarge(
                    "Content-Length %d exceeds the %d-byte request body limit"
                    % (length, MAX_BODY_BYTES)
                )
            raw = self.rfile.read(length) if length else b""
            if not raw:
                raise SchemaError("request body is required")
            try:
                return json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                raise SchemaError("request body is not valid JSON") from None

        # ----------------------------------------------------------

        def do_GET(self) -> None:  # noqa: N802 - stdlib casing
            parsed = urlparse(self.path)
            path = parsed.path
            params = parse_qs(parsed.query)
            status, body, content_type = app.handle_get(path, params)
            self._close_if_body_unread()
            self._send(status, body, content_type)
            app.metrics.count_request(path, status)

        def do_POST(self) -> None:  # noqa: N802 - stdlib casing
            parsed = urlparse(self.path)
            path = parsed.path
            params = parse_qs(parsed.query)
            force_trace = params.get("trace", ["0"])[-1] in ("1", "true")
            request_id = self.headers.get("X-Request-Id") or _new_request_id()
            trace_id = parse_traceparent(self.headers.get("traceparent"))

            if path == "/v1/query":
                endpoint = app.handle_query
            elif path == "/v1/batch":
                endpoint = app.handle_batch
            elif path == "/v1/sparql":
                endpoint = app.handle_sparql
            else:
                self._close_if_body_unread()
                self._send(
                    404,
                    error_body("no such endpoint: %s" % path, request_id),
                    request_id=request_id,
                )
                app.metrics.count_request(path, 404)
                return

            try:
                payload = self._read_json()
            except SchemaError as exc:
                status = 413 if isinstance(exc, BodyTooLarge) else 400
                self._send(
                    status, error_body(str(exc), request_id), request_id=request_id
                )
                app.metrics.count_request(path, status)
                return

            try:
                status, body, headers = endpoint(
                    payload, request_id, force_trace, trace_id
                )
            except Exception as exc:  # a bug, not a client error: answer 500
                with log_context(request_id=request_id, endpoint=path):
                    _log.error(
                        "unhandled_error",
                        exc_info=True,
                        error="%s: %s" % (type(exc).__name__, exc),
                    )
                status = 500
                body = error_body(
                    "internal error: %s" % type(exc).__name__, request_id
                )
                headers = {}
            self._send(status, body, request_id=request_id, headers=headers)
            app.metrics.count_request(path, status)

    return Handler
