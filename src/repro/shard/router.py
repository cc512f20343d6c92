"""Scatter-gather kSP over spatial shards.

:class:`ShardRouter` opens every shard snapshot named by a shard
manifest (see :mod:`repro.shard.build`) and answers kSP queries with
the paper's own pruning machinery lifted one level up:

* **Routing bound (Lemma 4, distributed).**  Each shard's R-tree root
  carries alpha-radius node postings, so
  ``ranking.bound(node_looseness_bound(root), min_distance(root, q))``
  lower-bounds the score of *every* place in the shard.  A shard whose
  bound cannot beat the merged running threshold theta is never
  executed — the same ``bound >= theta`` test SP applies per R-tree
  node (Rule 4) and TA uses as its stopping condition.
* **Exact merge.**  Places are partitioned (each lives in exactly one
  shard) and per-shard scores are computed over the *full* graph, so
  feeding every shard's candidates through one
  :class:`~repro.core.topk.TopKQueue` yields the k globally smallest
  ``(score, place)`` pairs — byte-identical to the single-engine
  answer.
* **Graceful degradation.**  A shard that misses the request deadline,
  raises, or is unreachable over HTTP contributes whatever partial
  places it produced, is flagged in ``stats.shards[i]["timed_out"]``,
  and flips the merged ``stats.timed_out`` — the serving layer answers
  504 with the partial body, never a 500.

The router duck-types :class:`~repro.core.engine.KSPEngine` for the
serving stack: ``query()``, ``metrics_text()``, ``debug_snapshot()``,
``flight_recorder`` and ``manifest_hash`` are all provided, so
``KSPServer`` and ``PreForkServer`` serve a shard directory unchanged
(``repro serve --shard-dir``).  In process, shards run one at a time
on the caller's thread in ascending routing-bound order, so each one is
re-tested against the theta its predecessors built; with ``shard_urls``
each shard is instead queried over HTTP (one PreFork fleet per shard),
concurrently, while routing bounds still come from the locally mmap'd
snapshots.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from repro.core.config import EngineConfig, QueryOptions
from repro.core.deadline import Deadline
from repro.core.engine import KSPEngine, _hash_manifest
from repro.core.metrics import MetricsRegistry, process_uptime_seconds
from repro.core.query import KSPQuery, KSPResult, SemanticPlace
from repro.core.ranking import (
    RankingFunction,
    WeightedSumRanking,
)
from repro.core.stats import QueryStats
from repro.core.topk import TopKQueue
from repro.core.trace import QueryTrace
from repro.obs.log import get_logger
from repro.obs.recorder import FlightRecorder
from repro.obs.traceexport import make_traceparent, span_id_for, trace_events
from repro.shard.build import MANIFEST_NAME, load_manifest
from repro.spatial.geometry import Point

_log = get_logger("repro.shard.router")

#: QueryStats counters summed across shards into the merged stats.
_MERGED_COUNTERS = (
    "semantic_seconds",
    "tqsp_computations",
    "rtree_node_accesses",
    "vertices_visited",
    "places_retrieved",
    "reachability_queries",
    "pruned_rule1",
    "pruned_rule2",
    "pruned_rule3",
    "pruned_rule4",
    "unqualified_places",
    "cache_hits",
    "cache_misses",
    "cache_bound_reuses",
)


#: Per-shard counter series and their help texts.
_SHARD_COUNTERS = {
    "ksp_shard_fanout_total": "shard subqueries actually executed",
    "ksp_shard_pruned_total": "shard subqueries skipped by the routing bound",
    "ksp_shard_timeouts_total": "shard subqueries lost to deadline or failure",
}


def _ranking_wire(ranking: RankingFunction) -> Any:
    """Serialize a ranking for the ``/v1/query`` wire (HTTP executor)."""
    if isinstance(ranking, WeightedSumRanking):
        return {"kind": "sum", "beta": ranking.beta}
    return "product"


def _check_shard(manifest: Dict[str, Any], entry: Dict[str, Any], engine: KSPEngine) -> None:
    """Refuse a shard snapshot that is not the one the manifest names.

    The manifest hash alone cannot tell sibling shards apart (it covers
    build settings and graph counts, the same for every tile of one
    build), so the place count and the R-tree root rectangle pin the
    tile, and the build settings pin the configuration.
    """
    rect = engine.rtree.root.rect
    found = {
        "manifest_hash": engine.manifest_hash,
        "places": engine.graph.place_count(),
        "region": None if rect is None else [rect.min_x, rect.min_y, rect.max_x, rect.max_y],
        "alpha": engine.alpha,
        "undirected": engine.undirected,
        "rtree_max_entries": engine.rtree_max_entries,
    }
    expected = {
        "manifest_hash": entry["manifest_hash"],
        "places": entry["places"],
        "region": entry["region"],
        "alpha": manifest["alpha"],
        "undirected": manifest["undirected"],
        "rtree_max_entries": manifest["rtree_max_entries"],
    }
    wrong = [field for field in expected if found[field] != expected[field]]
    if wrong:
        raise ValueError(
            "shard snapshot %s does not match %s: %s"
            % (
                entry["snapshot"],
                MANIFEST_NAME,
                ", ".join(
                    "%s is %r, expected %r" % (field, found[field], expected[field])
                    for field in wrong
                ),
            )
        )


class ShardUnavailable(Exception):
    """An HTTP shard could not produce any result (refused, dropped)."""


class ShardRouter:
    """Scatter-gather query execution over a directory of shard snapshots.

    Parameters
    ----------
    shard_dir:
        Directory written by :func:`repro.shard.build.build_shards`.
    config:
        Serving knobs for the per-shard engines (cache size, ranking,
        recorder size); build-time fields come from
        each snapshot's own manifest.
    shard_urls:
        Optional base URLs, aligned with the manifest's shard order.
        When given, shard execution POSTs ``/v1/query`` to the shard's
        fleet instead of running in-process; routing bounds still come
        from the local snapshots.

    In-process shards run one at a time, best bound first: they share
    one interpreter lock, and the bound prunes only once theta exists.
    HTTP shards wait on the network, so they are dispatched together.
    ``parallelism`` (read-only) is 1 in process, the shard count over
    HTTP.
    """

    def __init__(
        self,
        shard_dir: Union[str, Path],
        config: Optional[EngineConfig] = None,
        shard_urls: Optional[Sequence[str]] = None,
    ) -> None:
        self.shard_dir = Path(shard_dir)
        self.manifest = load_manifest(self.shard_dir)
        base_config = config or EngineConfig()
        self.engines: List[KSPEngine] = [
            KSPEngine.from_snapshot(self.shard_dir / entry["snapshot"], base_config)
            for entry in self.manifest["entries"]
        ]
        for entry, engine in zip(self.manifest["entries"], self.engines):
            _check_shard(self.manifest, entry, engine)
        self.config = self.engines[0].config
        if shard_urls is not None and len(shard_urls) != len(self.engines):
            raise ValueError(
                "got %d shard URLs for %d shards"
                % (len(shard_urls), len(self.engines))
            )
        self.shard_urls = list(shard_urls) if shard_urls is not None else None
        self.flight_recorder = FlightRecorder(self.config.flight_recorder_size)
        self._init_metrics()
        self.manifest_hash = _hash_manifest(
            {
                "shards": [engine.manifest_hash for engine in self.engines],
                "manifest": self.manifest,
            }
        )

    @property
    def parallelism(self) -> int:
        """Shard executions in flight at once for one query."""
        return 1 if self.shard_urls is None else len(self.engines)

    # ------------------------------------------------------------------
    # Serving metrics

    def _init_metrics(self) -> None:
        self.metrics = MetricsRegistry()
        self._metric_latency = self.metrics.histogram(
            "ksp_query_latency_seconds", "merged scatter-gather query latency"
        )
        self._metric_timeouts = self.metrics.counter(
            "ksp_query_timeouts_total",
            "merged queries degraded by at least one shard deadline",
        )
        self._metric_errors = self.metrics.counter(
            "ksp_query_errors_total", "queries that raised inside the router"
        )
        # Register the per-shard series eagerly so every worker's
        # /v1/metrics exposes them at zero from boot — scrapes must not
        # depend on which pre-forked worker happened to serve a query.
        for index in range(len(self.engines)):
            for name in _SHARD_COUNTERS:
                self._shard_counter(name, index)

    def _shard_counter(self, name: str, index: int):
        return self.metrics.counter(
            name, _SHARD_COUNTERS[name], labels={"shard": str(index)}
        )

    def metrics_text(self) -> str:
        """Prometheus exposition: router identity plus per-shard fan-out,
        prune and timeout counters (incremented per query)."""
        self._refresh_metric_gauges()
        return self.metrics.render_text()

    def metrics_state(self) -> Dict[str, Any]:
        """The router's registry state (for spooling / fleet merging)."""
        self._refresh_metric_gauges()
        return self.metrics.state()

    def _refresh_metric_gauges(self) -> None:
        import platform

        from repro import __version__

        self.metrics.gauge(
            "ksp_build_info",
            "build identity: repro version, python version, index manifest hash",
            labels={
                "version": __version__,
                "python": platform.python_version(),
                "manifest": self.manifest_hash,
            },
        ).set(1.0)
        self.metrics.gauge(
            "ksp_process_uptime_seconds",
            "seconds since this process started serving",
        ).set(process_uptime_seconds())
        self.metrics.gauge(
            "ksp_shards", "shards behind this router"
        ).set(float(len(self.engines)))

    def fleet_metrics_states(self, timeout: float = 2.0) -> List[Dict[str, Any]]:
        """Each HTTP shard fleet's aggregated registry state, fetched
        from its ``/v1/debug/metrics`` endpoint — one entry per
        reachable shard, each tagged with its index for labeling.  An
        unreachable shard is skipped: a scrape of the router must
        degrade, never fail, when part of the fleet is down."""
        states: List[Dict[str, Any]] = []
        if self.shard_urls is None:
            return states
        for index, base_url in enumerate(self.shard_urls):
            request = urllib.request.Request(
                base_url.rstrip("/") + "/v1/debug/metrics"
            )
            try:
                with urllib.request.urlopen(request, timeout=timeout) as response:
                    payload = json.loads(response.read().decode("utf-8"))
            except (urllib.error.URLError, OSError, ValueError):
                continue
            state = payload.get("state")
            if isinstance(state, dict):
                states.append({"shard": index, "state": state})
        return states

    # ------------------------------------------------------------------
    # Engine facade

    @property
    def graph(self):
        """The first shard's graph view (dataset identity for /v1/debug)."""
        return self.engines[0].graph

    def debug_snapshot(self) -> Dict[str, Any]:
        source = self.manifest.get("source", {})
        return {
            "manifest_hash": self.manifest_hash,
            "uptime_seconds": round(process_uptime_seconds(), 3),
            "shard_dir": str(self.shard_dir),
            "executor": "http" if self.shard_urls is not None else "in-process",
            "parallelism": self.parallelism,
            "dataset": {
                "vertices": source.get("vertices"),
                "edges": source.get("edges"),
                "places": source.get("places"),
            },
            "shards": [
                {
                    "index": entry["index"],
                    "snapshot": entry["snapshot"],
                    "places": entry["places"],
                    "region": entry["region"],
                    "manifest_hash": engine.manifest_hash,
                    "url": (
                        self.shard_urls[entry["index"]]
                        if self.shard_urls is not None
                        else None
                    ),
                }
                for entry, engine in zip(self.manifest["entries"], self.engines)
            ],
            "flight_recorder": self.flight_recorder.counters(),
            "config": {
                "alpha": self.config.alpha,
                "undirected": self.config.undirected,
                "tqsp_cache_size": self.config.tqsp_cache_size,
            },
        }

    # ------------------------------------------------------------------
    # Querying (mirrors KSPEngine.query)

    def query(
        self,
        location: Union[Point, Sequence[float], KSPQuery],
        keywords: Optional[Iterable[str]] = None,
        k: Optional[int] = None,
        method: Optional[str] = None,
        ranking: Optional[RankingFunction] = None,
        timeout: Optional[float] = None,
        trace: Optional[bool] = None,
        options: Optional[QueryOptions] = None,
        request_id: Optional[str] = None,
    ) -> KSPResult:
        """Answer one kSP query by scatter-gather over the shards.

        The signature and normalization mirror
        :meth:`~repro.core.engine.KSPEngine.query` exactly, so the
        router drops into every call site that takes an engine.
        """
        opts = options if options is not None else QueryOptions()
        overrides: Dict[str, Any] = {}
        if k is not None:
            overrides["k"] = k
        if method is not None:
            overrides["method"] = method
        if ranking is not None:
            overrides["ranking"] = ranking
        if timeout is not None:
            overrides["timeout"] = timeout
        if trace is not None:
            overrides["trace"] = trace
        if request_id is not None:
            overrides["request_id"] = request_id
        if overrides:
            opts = opts.replace(**overrides)

        if isinstance(location, KSPQuery):
            if keywords is not None:
                raise TypeError(
                    "pass either a KSPQuery or location+keywords, not both"
                )
            query = location
        else:
            if keywords is None:
                raise TypeError("keywords are required with a location")
            if not isinstance(location, Point):
                x, y = location
                location = Point(float(x), float(y))
            query = KSPQuery.create(location, keywords, k=opts.k)
        return self._execute(query, opts)

    def _execute(self, query: KSPQuery, options: QueryOptions) -> KSPResult:
        method = (options.method or "sp").lower()
        ranking = (
            options.ranking if options.ranking is not None else self.config.ranking
        )
        deadline = Deadline.resolve(options.timeout)
        recorder = QueryTrace() if options.trace else None
        started = time.monotonic()
        try:
            result = self._scatter_gather(
                query, options, method, ranking, deadline, recorder
            )
        except Exception:
            self._metric_errors.inc()
            raise
        result.stats.runtime_seconds = time.monotonic() - started
        result.request_id = options.request_id
        result.trace_id = options.trace_id
        self._record_query(method, result)
        return result

    def _scatter_gather(
        self,
        query: KSPQuery,
        options: QueryOptions,
        method: str,
        ranking: RankingFunction,
        deadline: Optional[Deadline],
        recorder: Optional[QueryTrace],
    ) -> KSPResult:
        top_k: TopKQueue[SemanticPlace] = TopKQueue(query.k)
        merge_lock = threading.Lock()
        records: List[Dict[str, Any]] = []
        plan: List[Dict[str, Any]] = []
        subtraces: List[Dict[str, Any]] = []
        scatter_started = time.monotonic()

        bound_started = time.monotonic()
        for index, engine in enumerate(self.engines):
            record: Dict[str, Any] = {
                "shard": index,
                "bound": None,
                "pruned": False,
                "timed_out": False,
                "places": 0,
                "runtime_seconds": 0.0,
                "error": None,
                # The shard executor's own correlation id, so the
                # router's stats.shards[i] joins the shard fleet's
                # flight recorder (/v1/debug/queries) directly.
                "request_id": _sub_request_id(options.request_id, index),
            }
            records.append(record)
            root = engine.rtree.root
            if root.rect is None:  # shard with no places at all
                record["pruned"] = True
                continue
            distance = root.rect.min_distance(query.location)
            if engine.alpha_index is not None and query.keywords:
                view = engine.alpha_index.query_view(query.keywords)
                looseness = view.node_looseness_bound(root.node_id)
            else:
                looseness = 1.0  # Lemma 3's trivial floor
            bound = ranking.bound(looseness, distance)
            record["bound"] = None if math.isinf(bound) else round(bound, 9)
            plan.append({"index": index, "bound": bound, "record": record})
        if recorder is not None:
            recorder.add("shard-routing", time.monotonic() - bound_started)

        # Ascending bound order: the most promising shard runs first, so
        # the merged theta tightens before the long-shot shards are even
        # considered.
        plan.sort(key=lambda task: (task["bound"], task["index"]))
        merged_stats = QueryStats(algorithm="SHARDED-%s" % method.upper())

        def _lose(index: int, record: Dict[str, Any], error: str) -> None:
            # Degradation, not failure: the shard contributes nothing,
            # the merged result is flagged partial.
            record["error"] = error
            record["timed_out"] = True
            _log.warning(
                "shard_failed",
                shard=index,
                request_id=options.request_id,
                error=error,
            )
            self._shard_counter("ksp_shard_timeouts_total", index).inc()

        def _run(task: Dict[str, Any]) -> None:
            index = task["index"]
            record = task["record"]
            with merge_lock:
                # Re-check at launch: theta may have tightened past this
                # shard's bound while earlier shards executed (the
                # distributed Rule 4 / TA stopping test).
                if len(top_k) >= query.k and task["bound"] >= top_k.threshold:
                    record["pruned"] = True
                    return
            if deadline is not None and deadline.expired():
                _lose(index, record, error="deadline exhausted before dispatch")
                return
            self._shard_counter("ksp_shard_fanout_total", index).inc()
            shard_started = time.monotonic()
            try:
                result, trace_doc = self._execute_shard(
                    index, query, options, method, ranking, deadline
                )
            except Exception as exc:
                _lose(index, record, error="%s: %s" % (type(exc).__name__, exc))
                return
            finally:
                record["runtime_seconds"] = round(
                    time.monotonic() - shard_started, 6
                )
            record["places"] = len(result.places)
            record["timed_out"] = bool(result.stats.timed_out)
            if record["timed_out"]:
                self._shard_counter("ksp_shard_timeouts_total", index).inc()
            with merge_lock:
                if trace_doc is not None:
                    subtraces.append(
                        {
                            "label": "shard-%d" % index,
                            "document": trace_doc,
                            "offset_seconds": round(
                                shard_started - scatter_started, 6
                            ),
                            "request_id": record["request_id"],
                            "os_pid": (trace_doc.get("otherData") or {}).get(
                                "os_pid"
                            ),
                        }
                    )
                for place in result.places:
                    top_k.consider(place)
                _merge_counters(merged_stats, result.stats)

        if self.shard_urls is None:
            for task in plan:
                _run(task)
        else:
            # HTTP shards wait on sockets, not on the interpreter lock,
            # so they are dispatched together.  The pool lives for this
            # call only: nothing outlives a fork.
            with ThreadPoolExecutor(
                max_workers=max(1, len(plan)), thread_name_prefix="ksp-shard"
            ) as pool:
                for future in [pool.submit(_run, task) for task in plan]:
                    future.result()  # surface programming errors, if any

        for task in plan:
            record = task["record"]
            if record["pruned"]:
                self._shard_counter("ksp_shard_pruned_total", task["index"]).inc()
            if recorder is not None and not record["pruned"]:
                recorder.add(
                    "shard-%d" % task["index"], record["runtime_seconds"]
                )

        merged_stats.timed_out = any(record["timed_out"] for record in records)
        merged_stats.shards = records
        subtraces.sort(key=lambda entry: entry["label"])
        return KSPResult(
            query=query,
            places=top_k.ranked(),
            stats=merged_stats,
            trace=recorder,
            subtraces=subtraces or None,
        )

    def _execute_shard(
        self,
        index: int,
        query: KSPQuery,
        options: QueryOptions,
        method: str,
        ranking: RankingFunction,
        deadline: Optional[Deadline],
    ):
        """-> (sub-result, its ``trace_events`` document or None)."""
        if self.shard_urls is not None:
            return self._execute_http(
                index, self.shard_urls[index], query, options, method,
                ranking, deadline,
            )
        sub_id = _sub_request_id(options.request_id, index)
        sub_options = QueryOptions(
            k=query.k,
            method=method,
            ranking=ranking,
            timeout=deadline,
            trace=bool(options.trace),
            request_id=sub_id,
            trace_id=options.trace_id,
        )
        result = self.engines[index].query(query, options=sub_options)
        trace_doc = None
        if result.trace is not None:
            trace_doc = trace_events(
                result.trace,
                request_id=sub_id,
                trace_id=options.trace_id,
                runtime_seconds=result.stats.runtime_seconds,
                os_pid=os.getpid(),
            )
        return result, trace_doc

    def _execute_http(
        self,
        index: int,
        base_url: str,
        query: KSPQuery,
        options: QueryOptions,
        method: str,
        ranking: RankingFunction,
        deadline: Optional[Deadline],
    ):
        """-> (sub-result, the shard's ``trace_events`` doc or None)."""
        body: Dict[str, Any] = {
            "location": [query.location.x, query.location.y],
            "keywords": list(query.keywords),
            "k": query.k,
            "method": method,
            "ranking": _ranking_wire(ranking),
        }
        if options.trace:
            body["trace"] = True
        socket_timeout = 30.0
        if deadline is not None:
            remaining = deadline.remaining()
            if remaining <= 0.0:
                raise ShardUnavailable("deadline exhausted before dispatch")
            body["timeout"] = remaining
            socket_timeout = remaining + 1.0  # body timeout governs; +1 slack
        sub_id = _sub_request_id(options.request_id, index)
        headers = {"Content-Type": "application/json"}
        if sub_id is not None:
            # The shard fleet adopts this id, so its flight recorder,
            # slow-query log and response all join the router's
            # stats.shards[index]["request_id"].
            headers["X-Request-Id"] = sub_id
        if options.trace_id is not None:
            headers["traceparent"] = make_traceparent(
                options.trace_id, span_id_for(sub_id or base_url)
            )
        request = urllib.request.Request(
            base_url.rstrip("/") + "/v1/query",
            data=json.dumps(body).encode("utf-8"),
            headers=headers,
        )
        try:
            with urllib.request.urlopen(request, timeout=socket_timeout) as response:
                payload = json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            if exc.code == 504:
                # The degraded-partial protocol: a 504 body is a full
                # wire result with timed_out set — merge what it has.
                payload = json.loads(exc.read().decode("utf-8"))
            else:
                raise ShardUnavailable(
                    "shard answered HTTP %d" % exc.code
                ) from exc
        except (urllib.error.URLError, OSError, ValueError) as exc:
            raise ShardUnavailable("shard unreachable: %s" % exc) from exc
        return KSPResult.from_dict(payload), payload.get("trace_events")

    # ------------------------------------------------------------------

    def _record_query(self, method: str, result: KSPResult) -> None:
        stats = result.stats
        self.metrics.counter(
            "ksp_queries_total", "answered kSP queries", labels={"method": method}
        ).inc()
        exemplar = (
            {"request_id": result.request_id}
            if result.request_id is not None
            else None
        )
        self._metric_latency.observe(stats.runtime_seconds, exemplar=exemplar)
        record = self.flight_recorder.record_result(result, method)
        if record.phases is None and stats.shards is not None:
            # Shard spans in the flight recorder even when the client
            # did not ask for a trace: where did the fan-out spend time?
            record.phases = {
                "shard-%d" % shard["shard"]: {
                    "seconds": shard["runtime_seconds"],
                    "count": 1,
                }
                for shard in stats.shards
                if not shard["pruned"]
            }
        if stats.shards is not None:
            # The per-shard summary the load-stats surface aggregates
            # (repro.obs.fleet.load_report) — one slim dict per shard.
            record.shards = [
                {
                    "shard": shard["shard"],
                    "pruned": shard["pruned"],
                    "timed_out": shard["timed_out"],
                    "places": shard["places"],
                    "runtime_seconds": shard["runtime_seconds"],
                    "request_id": shard.get("request_id"),
                }
                for shard in stats.shards
            ]
        if stats.timed_out:
            self._metric_timeouts.inc()


def _sub_request_id(request_id: Optional[str], index: int) -> Optional[str]:
    """The deterministic per-shard correlation id of one fan-out leg."""
    if not request_id:
        return None
    return "%s#shard-%d" % (request_id, index)


def _merge_counters(merged: QueryStats, shard: QueryStats) -> None:
    """Accumulate one shard's additive counters into the merged stats.
    Caller holds the merge lock."""
    for name in _MERGED_COUNTERS:
        setattr(merged, name, getattr(merged, name) + getattr(shard, name))
