"""The flight recorder: what were the last N queries doing?

A :class:`FlightRecorder` keeps two views of the query stream:

* a **ring buffer** of :class:`QueryRecord` — one fixed-shape record
  per completed (or refused) query, capped at ``capacity`` with FIFO
  eviction, so the recorder's footprint is constant no matter how long
  the process serves.  Recording is one dataclass build and one deque
  append under a lock: cheap enough to stay always-on.
* an **in-flight registry** of :class:`InflightHandle` — live queries
  with their age and current phase, so "what is the server doing right
  now?" has an answer while a slow query is still running.

The recorder knows nothing about the engine or the HTTP layer; both
feed it.  The engine records every completed query (phase breakdown and
stats counters included); the serving layer opens in-flight handles,
:meth:`annotate`-s completed records with what only it knows (endpoint,
admission wait, HTTP status) and records refusals that never reached
the engine.  ``GET /v1/debug/queries`` and ``/v1/debug/inflight`` are
rendered straight from :meth:`snapshot` and :meth:`inflight`.
"""

from __future__ import annotations

import itertools
import os
import time
from collections import deque
from dataclasses import dataclass, field
from threading import Lock
from typing import Any, Deque, Dict, List, Optional, Tuple

#: Valid ``QueryRecord.outcome`` values, in rough severity order.
OUTCOMES = ("ok", "timeout", "error", "rejected")


@dataclass
class QueryRecord:
    """One flight-recorder entry (the shape ``/v1/debug/queries`` serves)."""

    request_id: Optional[str] = None
    trace_id: Optional[str] = None
    endpoint: Optional[str] = None  # serving layer; None for direct API use
    method: str = ""
    keywords: Tuple[str, ...] = ()
    k: int = 0
    outcome: str = "ok"  # one of OUTCOMES
    status: Optional[int] = None  # HTTP status, when served over HTTP
    runtime_seconds: float = 0.0
    admission_wait_seconds: Optional[float] = None
    error: Optional[str] = None
    recorded_at: float = 0.0  # wall clock (time.time) at record time
    sequence: int = 0  # recorder-assigned, monotonically increasing
    pid: Optional[int] = None  # recording process (stamped at record time)
    worker_id: Optional[int] = None  # pre-fork worker index, when forked
    phases: Optional[Dict[str, Dict[str, float]]] = None  # QueryTrace.as_dict
    counters: Dict[str, Any] = field(default_factory=dict)  # QueryStats subset
    shards: Optional[List[Dict[str, Any]]] = None  # router fan-out summary

    def as_dict(self) -> Dict[str, Any]:
        return {
            "request_id": self.request_id,
            "trace_id": self.trace_id,
            "endpoint": self.endpoint,
            "method": self.method,
            "keywords": list(self.keywords),
            "k": self.k,
            "outcome": self.outcome,
            "status": self.status,
            "runtime_seconds": self.runtime_seconds,
            "admission_wait_seconds": self.admission_wait_seconds,
            "error": self.error,
            "recorded_at": self.recorded_at,
            "sequence": self.sequence,
            "pid": self.pid,
            "worker_id": self.worker_id,
            "phases": self.phases,
            "counters": dict(self.counters),
            "shards": self.shards,
        }


#: The QueryStats counters worth keeping per record.  The full stats
#: dict lives in the wire response; the recorder keeps the ones that
#: explain cost after the fact.
RECORD_COUNTERS = (
    "tqsp_computations",
    "vertices_visited",
    "rtree_node_accesses",
    "reachability_queries",
    "cache_hits",
    "cache_misses",
    "cache_bound_reuses",
)


class InflightHandle:
    """One live query: opened at admission, closed in a ``finally``.

    ``phase`` is a single-slot progress marker updated by the owner
    (``admission-queue`` -> ``executing``); reads are lock-free — a
    torn read of a string attribute is impossible in CPython and the
    value is purely diagnostic.
    """

    __slots__ = (
        "request_id",
        "endpoint",
        "method",
        "keywords",
        "k",
        "phase",
        "started_monotonic",
        "started_at",
    )

    def __init__(
        self,
        request_id: Optional[str],
        endpoint: Optional[str],
        method: str,
        keywords: Tuple[str, ...],
        k: int,
        phase: str,
    ) -> None:
        self.request_id = request_id
        self.endpoint = endpoint
        self.method = method
        self.keywords = keywords
        self.k = k
        self.phase = phase
        self.started_monotonic = time.monotonic()
        self.started_at = time.time()

    def set_phase(self, phase: str) -> None:
        self.phase = phase

    def as_dict(self) -> Dict[str, Any]:
        return {
            "request_id": self.request_id,
            "endpoint": self.endpoint,
            "method": self.method,
            "keywords": list(self.keywords),
            "k": self.k,
            "phase": self.phase,
            "age_seconds": time.monotonic() - self.started_monotonic,
            "started_at": self.started_at,
        }


class FlightRecorder:
    """Fixed-size ring buffer of query records plus in-flight registry."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be positive")
        self.capacity = capacity
        # Pre-fork worker identity; set by the serving layer after fork
        # so every record names the worker that produced it.
        self.worker_id: Optional[int] = None
        self._lock = Lock()
        self._ring: Deque[QueryRecord] = deque(maxlen=capacity)
        self._inflight: Dict[int, InflightHandle] = {}
        self._recorded_total = 0
        self._next_token = itertools.count(1)

    # ------------------------------------------------------------------
    # Completed queries

    def record(self, record: QueryRecord) -> QueryRecord:
        """Append one record (stamping sequence, wall time and process
        identity — after a fork each worker stamps its own pid)."""
        record.recorded_at = time.time()
        if record.pid is None:
            record.pid = os.getpid()
        if record.worker_id is None:
            record.worker_id = self.worker_id
        with self._lock:
            self._recorded_total += 1
            record.sequence = self._recorded_total
            self._ring.append(record)
        return record

    def record_result(
        self,
        result: Any,
        method: str,
        endpoint: Optional[str] = None,
        admission_wait_seconds: Optional[float] = None,
    ) -> QueryRecord:
        """Build and record an entry from a ``KSPResult``-shaped object.

        Duck-typed on purpose: ``repro.core`` imports this module, so
        importing :class:`~repro.core.query.KSPResult` here would cycle.
        """
        stats = result.stats
        record = QueryRecord(
            request_id=result.request_id,
            trace_id=getattr(result, "trace_id", None),
            endpoint=endpoint,
            method=method,
            keywords=tuple(result.query.keywords),
            k=result.query.k,
            outcome=stats.outcome,
            runtime_seconds=stats.runtime_seconds,
            admission_wait_seconds=admission_wait_seconds,
            error=stats.error,
            phases=result.trace.as_dict() if result.trace is not None else None,
            counters={
                name: getattr(stats, name) for name in RECORD_COUNTERS
            },
        )
        return self.record(record)

    def annotate(self, request_id: str, **fields: Any) -> bool:
        """Attach serving-layer fields to the newest record for
        ``request_id`` (scanning newest-first); False when evicted or
        never recorded."""
        if request_id is None:
            return False
        with self._lock:
            for record in reversed(self._ring):
                if record.request_id == request_id:
                    for key, value in fields.items():
                        setattr(record, key, value)
                    return True
        return False

    def snapshot(
        self,
        limit: Optional[int] = None,
        outcome: Optional[str] = None,
        min_runtime_seconds: Optional[float] = None,
    ) -> List[Dict[str, Any]]:
        """Recent records, newest first, optionally filtered.

        ``outcome`` keeps only records with that outcome; ``min_runtime_seconds``
        keeps only records at or above the latency floor.  ``limit``
        applies after filtering.
        """
        with self._lock:
            records = list(self._ring)
        out: List[Dict[str, Any]] = []
        for record in reversed(records):
            if outcome is not None and record.outcome != outcome:
                continue
            if (
                min_runtime_seconds is not None
                and record.runtime_seconds < min_runtime_seconds
            ):
                continue
            out.append(record.as_dict())
            if limit is not None and len(out) >= limit:
                break
        return out

    def counters(self) -> Dict[str, int]:
        """Atomic snapshot of the recorder's own accounting."""
        with self._lock:
            recorded = self._recorded_total
            live = len(self._ring)
            inflight = len(self._inflight)
        return {
            "capacity": self.capacity,
            "recorded_total": recorded,
            "buffered": live,
            "evicted": recorded - live,
            "inflight": inflight,
        }

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    # ------------------------------------------------------------------
    # In-flight queries

    def begin(
        self,
        request_id: Optional[str] = None,
        endpoint: Optional[str] = None,
        method: str = "",
        keywords: Tuple[str, ...] = (),
        k: int = 0,
        phase: str = "started",
    ) -> InflightHandle:
        """Register a live query; pair with :meth:`end` in a ``finally``."""
        handle = InflightHandle(request_id, endpoint, method, keywords, k, phase)
        with self._lock:
            self._inflight[next(self._next_token)] = handle
        return handle

    def end(self, handle: InflightHandle) -> None:
        with self._lock:
            for token, live in list(self._inflight.items()):
                if live is handle:
                    del self._inflight[token]
                    break

    def inflight(self) -> List[Dict[str, Any]]:
        """Live queries, oldest first (the stuck one sorts to the top)."""
        with self._lock:
            handles = list(self._inflight.values())
        return sorted(
            (handle.as_dict() for handle in handles),
            key=lambda entry: -entry["age_seconds"],
        )
