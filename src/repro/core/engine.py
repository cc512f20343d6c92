"""The kSP engine: one object that owns the graph and all indexes.

``KSPEngine`` runs the preprocessing pipeline of Section 1 ("Data
Representation and Indexing"): document extraction is assumed done (the
graph already carries documents), then it builds the inverted file, the
R-tree over place vertices (STR bulk-loaded), the keyword reachability
index (Rule 1) and the alpha-radius word-neighborhood index (Section 5).
Build wall-times land in ``build_seconds`` (Table 5) and index sizes in
``storage_report()`` (Tables 4 and 6).
"""

from __future__ import annotations

import hashlib
import json as _json
import time
from typing import Any, Dict, Iterable, Optional, Sequence, Union

from repro.alpha.index import AlphaIndex
from repro.core.bsp import bsp_search
from repro.core.config import EngineConfig, QueryOptions
from repro.core.metrics import MetricsRegistry, process_uptime_seconds
from repro.core.query import KSPQuery, KSPResult
from repro.obs.recorder import FlightRecorder
from repro.core.ranking import RankingFunction
from repro.core.runtime import TQSPRuntime
from repro.core.sp import sp_search
from repro.core.spp import spp_search
from repro.core.ta import ta_search
from repro.core.tqsp_cache import TQSPCache
from repro.core.trace import QueryTrace
from repro.rdf.csr import CSRAdjacency
from repro.rdf.documents import graph_from_triples
from repro.rdf.graph import RDFGraph
from repro.rdf.ntriples import parse_file
from repro.rdf.terms import Triple
from repro.reach.keyword import KeywordReachabilityIndex
from repro.spatial.geometry import Point
from repro.spatial.rtree import RTree
from repro.storage.snapshot import engine_manifest
from repro.text.inverted import InvertedIndex

ALGORITHMS = ("bsp", "spp", "sp", "ta")


def _hash_manifest(manifest: Dict[str, Any]) -> str:
    """A short stable digest of the index manifest (``ksp_build_info``)."""
    canonical = _json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


class KSPEngine:
    """Facade over the kSP data structures and algorithms.

    Parameters
    ----------
    graph:
        The simplified RDF data graph (see :mod:`repro.rdf.documents`).
    config:
        An :class:`~repro.core.config.EngineConfig` with every
        construction knob (alpha radius, R-tree capacity, which indexes
        to build, TQSP cache size, default ranking and batch worker
        count).

    The pre-1.1 keyword arguments (``alpha=``, ``undirected=``, ...)
    and the ``run()`` alias are gone; pass ``config=EngineConfig(...)``
    and ``options=QueryOptions(...)``.
    """

    def __init__(
        self,
        graph: RDFGraph,
        config: Optional[EngineConfig] = None,
    ) -> None:
        config = config or EngineConfig()
        started = time.monotonic()
        csr = CSRAdjacency.from_graph(graph)
        csr_seconds = time.monotonic() - started
        self._assemble(graph, config, csr)
        self.build_seconds["csr_snapshot"] = csr_seconds

        started = time.monotonic()
        self.inverted_index = InvertedIndex.build(graph)
        self.build_seconds["inverted_index"] = time.monotonic() - started

        started = time.monotonic()
        self.rtree = RTree.bulk_load(
            graph.places(), max_entries=config.rtree_max_entries
        )
        self.build_seconds["rtree"] = time.monotonic() - started

        self.reachability: Optional[KeywordReachabilityIndex] = None
        if config.build_reachability:
            started = time.monotonic()
            self.reachability = KeywordReachabilityIndex(
                graph, method=config.reach_method, undirected=config.undirected
            )
            self.build_seconds["reachability"] = time.monotonic() - started

        self.alpha_index: Optional[AlphaIndex] = None
        if config.build_alpha:
            started = time.monotonic()
            self.alpha_index = AlphaIndex(
                graph,
                self.rtree,
                alpha=config.alpha,
                undirected=config.undirected,
                csr=self.csr,
            )
            self.build_seconds["alpha_index"] = time.monotonic() - started

        self.manifest_hash = _hash_manifest(self._manifest_dict())

    def _assemble(
        self,
        graph,
        config: EngineConfig,
        csr: CSRAdjacency,
        snapshot=None,
    ) -> None:
        """Wire the serving state every constructor shares: the graph and
        its build-time settings, the CSR snapshot the TQSP kernel runs
        on, the TQSP cache and runtime, the flight recorder, the backing
        snapshot (if any) and the metric families.  The caller then
        attaches the four indexes."""
        self.graph = graph
        self.config = config
        self.alpha = config.alpha
        self.undirected = config.undirected
        self.rtree_max_entries = config.rtree_max_entries
        self.build_seconds: Dict[str, float] = {}
        self.csr = csr
        self.tqsp_cache: Optional[TQSPCache] = (
            TQSPCache(config.tqsp_cache_size) if config.tqsp_cache_size > 0 else None
        )
        self._runtime = TQSPRuntime(csr=csr, cache=self.tqsp_cache)
        self.flight_recorder = FlightRecorder(config.flight_recorder_size)
        self._snapshot = snapshot
        self._init_metrics()

    # ------------------------------------------------------------------
    # Serving metrics
    # ------------------------------------------------------------------

    def _init_metrics(self) -> None:
        """Register the engine's serving metric families."""
        self.metrics = MetricsRegistry()
        self._metric_latency = self.metrics.histogram(
            "ksp_query_latency_seconds", "kSP query latency distribution"
        )
        self._metric_timeouts = self.metrics.counter(
            "ksp_query_timeouts_total", "queries that hit their deadline"
        )
        self._metric_errors = self.metrics.counter(
            "ksp_query_errors_total", "queries that raised inside the engine"
        )
        self._metric_cache_hits = self.metrics.counter(
            "ksp_tqsp_cache_hits_total", "TQSP cache exact reuses"
        )
        self._metric_cache_misses = self.metrics.counter(
            "ksp_tqsp_cache_misses_total", "TQSP cache lookups that ran a BFS"
        )
        self._metric_cache_bound_reuses = self.metrics.counter(
            "ksp_tqsp_cache_bound_reuses_total", "TQSP cache PRUNED-bound re-prunes"
        )

    def _record_query(self, method: str, result: KSPResult) -> None:
        stats = result.stats
        self.metrics.counter(
            "ksp_queries_total", "answered kSP queries", labels={"method": method}
        ).inc()
        # The exemplar links this latency bucket back to the flight
        # recorder entry (and, transitively, the structured log lines)
        # carrying the same request id.
        exemplar = (
            {"request_id": result.request_id}
            if result.request_id is not None
            else None
        )
        self._metric_latency.observe(stats.runtime_seconds, exemplar=exemplar)
        self.flight_recorder.record_result(result, method)
        if stats.timed_out:
            self._metric_timeouts.inc()
        if stats.cache_hits:
            self._metric_cache_hits.inc(stats.cache_hits)
        if stats.cache_misses:
            self._metric_cache_misses.inc(stats.cache_misses)
        if stats.cache_bound_reuses:
            self._metric_cache_bound_reuses.inc(stats.cache_bound_reuses)

    def metrics_text(self) -> str:
        """Prometheus-style text exposition of the serving metrics.

        Gauges derived from the TQSP cache (entries, capacity, hit
        ratio) are refreshed at call time from an atomic counter
        snapshot, so the output is consistent even mid-batch.  The
        exposition also carries ``ksp_build_info`` (version, python,
        index manifest hash — the "what exactly is running?" gauge) and
        ``ksp_process_uptime_seconds``.
        """
        self._refresh_metric_gauges()
        return self.metrics.render_text()

    def metrics_state(self) -> Dict[str, Any]:
        """The registry's JSON-safe state with runtime gauges refreshed —
        what a pre-forked worker spools for fleet-wide aggregation
        (:mod:`repro.obs.fleet`)."""
        self._refresh_metric_gauges()
        return self.metrics.state()

    def _refresh_metric_gauges(self) -> None:
        """Refresh the observation-time gauges before a render/snapshot."""
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
        if self.tqsp_cache is not None:
            counters = self.tqsp_cache.counters()
            self.metrics.gauge(
                "ksp_tqsp_cache_entries", "live TQSP cache entries"
            ).set(counters["entries"])
            self.metrics.gauge(
                "ksp_tqsp_cache_capacity", "TQSP cache capacity"
            ).set(counters["capacity"])
            lookups = counters["hits"] + counters["misses"]
            self.metrics.gauge(
                "ksp_tqsp_cache_hit_ratio", "TQSP cache hits / lookups"
            ).set(counters["hits"] / lookups if lookups else 0.0)
        snapshot = self._snapshot
        if snapshot is not None:
            stats = snapshot.stats
            self.metrics.gauge(
                "ksp_snapshot_maps_total", "mmap calls over the index snapshot"
            ).set(stats.maps)
            self.metrics.gauge(
                "ksp_snapshot_bytes_mapped",
                "bytes of index snapshot mapped into this process",
            ).set(stats.bytes_mapped)
            self.metrics.gauge(
                "ksp_snapshot_section_reads_total",
                "snapshot section views handed out (zero-copy reads)",
            ).set(stats.section_reads)
            self.metrics.gauge(
                "ksp_snapshot_sections", "sections in the open index snapshot"
            ).set(len(snapshot.names()))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_triples(
        cls,
        triples: Iterable[Triple],
        config: Optional[EngineConfig] = None,
    ) -> "KSPEngine":
        """Build an engine from RDF triples (document extraction included)."""
        return cls(graph_from_triples(triples), config=config)

    @classmethod
    def from_ntriples_file(
        cls, path, config: Optional[EngineConfig] = None
    ) -> "KSPEngine":
        """Build an engine from an N-Triples file on disk."""
        return cls.from_triples(parse_file(path), config=config)

    @classmethod
    def from_turtle_file(
        cls, path, config: Optional[EngineConfig] = None
    ) -> "KSPEngine":
        """Build an engine from a Turtle file on disk."""
        from repro.rdf.turtle import parse_turtle_file

        return cls.from_triples(parse_turtle_file(path), config=config)

    @classmethod
    def from_file(
        cls, path, config: Optional[EngineConfig] = None
    ) -> "KSPEngine":
        """Build an engine from an RDF file, format chosen by extension
        (``.ttl``/``.turtle`` -> Turtle, anything else -> N-Triples).

        A trailing ``.gz`` is stripped before the format check, so
        ``kb.nt.gz`` and ``kb.ttl.gz`` load transparently (the parsers
        decompress on the fly).
        """
        name = str(path).lower()
        if name.endswith(".gz"):
            name = name[: -len(".gz")]
        suffix = name.rsplit(".", 1)[-1]
        if suffix in ("ttl", "turtle"):
            return cls.from_turtle_file(path, config=config)
        return cls.from_ntriples_file(path, config=config)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def _manifest_dict(self) -> Dict[str, Any]:
        """The engine manifest (the build-info hash input).

        Built-in-memory and snapshot-opened engines over the same data
        produce the same dict, so ``manifest_hash`` identifies the index
        snapshot regardless of how the engine came to be.
        """
        return engine_manifest(
            self.graph,
            alpha=self.alpha,
            undirected=self.undirected,
            rtree_max_entries=self.rtree_max_entries,
            has_reachability=self.reachability is not None,
            has_alpha_index=self.alpha_index is not None,
        )

    def save_snapshot(self, path) -> int:
        """Write every query-time index into one immutable, page-aligned
        snapshot file (see :mod:`repro.storage.snapshot`).

        The preprocessing of Table 5 is expensive (20 hours of
        alpha-radius work on full DBpedia), so deployments build once and
        reopen with :meth:`from_snapshot`: the file is mmap'd and served
        zero-copy, so warm start is O(1) in the data size and forked
        serving workers share one copy of the page cache.  Returns the
        number of bytes written.
        """
        from repro.storage.snapshot import write_snapshot

        return write_snapshot(
            path,
            self.graph,
            self.inverted_index,
            self.rtree,
            alpha=self.alpha,
            undirected=self.undirected,
            rtree_max_entries=self.rtree_max_entries,
            reachability=self.reachability,
            alpha_index=self.alpha_index,
        )

    @classmethod
    def from_snapshot(
        cls,
        path,
        config: Optional[EngineConfig] = None,
        verify: bool = False,
    ) -> "KSPEngine":
        """Open an engine over a snapshot written by :meth:`save_snapshot`.

        The file is mmap'd once; the graph, inverted file, alpha-radius
        postings and reachability labels are served through zero-copy
        views over the mapping, and the R-tree is reconstructed from its
        node section (ids preserved, so the alpha node postings stay
        valid).  The TQSP kernel runs on a CSR view over the mapped
        ``graph.*`` sections.  ``config`` supplies the serving knobs
        (``tqsp_cache_size``, default ranking, workers); the build-time
        fields (``alpha``, ``undirected``, ``rtree_max_entries``) come
        from the snapshot manifest.
        ``verify=True`` additionally checks the full content hash before
        serving (the header and section table are always validated, and
        so are the manifest's graph counts against the graph sections).
        """
        from repro.storage.snapshot import (
            SnapshotFile,
            SnapshotInvertedIndex,
            SnapshotRDFGraph,
            VocabView,
            load_snapshot_alpha_index,
            load_snapshot_reachability,
            load_snapshot_rtree,
        )

        config = config or EngineConfig()
        started = time.monotonic()
        snapshot = SnapshotFile(path, verify=verify)
        manifest = snapshot.manifest["engine"]
        config = config.replace(
            alpha=manifest["alpha"],
            undirected=manifest["undirected"],
            rtree_max_entries=manifest["rtree_max_entries"],
        )
        vocab = VocabView(
            snapshot.array_view("vocab.offsets", "Q"), snapshot.section("vocab.blob")
        )
        graph = SnapshotRDFGraph(snapshot, vocab)

        csr = CSRAdjacency(
            manifest["vertices"],
            snapshot.array_view("graph.out_index", "q"),
            snapshot.array_view("graph.out_targets", "i"),
            snapshot.array_view("graph.in_index", "q"),
            snapshot.array_view("graph.in_targets", "i"),
        )
        engine = cls.__new__(cls)
        engine._assemble(graph, config, csr, snapshot)
        engine.inverted_index = SnapshotInvertedIndex(snapshot, vocab)
        engine.rtree = load_snapshot_rtree(snapshot)
        engine.reachability = None
        if manifest["has_reachability"]:
            engine.reachability = load_snapshot_reachability(snapshot, vocab, graph)
        engine.alpha_index = None
        if manifest["has_alpha_index"]:
            engine.alpha_index = load_snapshot_alpha_index(snapshot, vocab)
        engine.manifest_hash = _hash_manifest(engine._manifest_dict())
        engine.build_seconds["snapshot_mmap"] = time.monotonic() - started
        return engine

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------

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
        """Answer a kSP query — the one canonical entry point.

        ``location`` may be a :class:`Point`, an ``(x, y)`` pair (raw
        keyword strings are then normalized with the document
        tokenizer), or an already-built :class:`KSPQuery` (``keywords``
        must then be omitted).  Execution parameters come from
        ``options`` (a :class:`~repro.core.config.QueryOptions`, the
        same object ``query_batch`` and ``cursor`` accept); the
        individual keyword arguments are ergonomic overrides applied on
        top of it.  ``method`` defaults to ``"sp"`` and ``ranking`` to
        the engine's ``config.ranking``.

        A query that hits its ``timeout`` returns the best-so-far
        partial top-k with ``stats.timed_out`` set (and
        ``result.incomplete`` true) — it does not raise.  Every query
        is recorded in the engine's
        :class:`~repro.core.metrics.MetricsRegistry` (see
        :meth:`metrics_text`).
        """
        opts = options if options is not None else QueryOptions()
        overrides = {}
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
        """Dispatch one normalized query under resolved options."""
        method = (options.method or "sp").lower()
        ranking = (
            options.ranking if options.ranking is not None else self.config.ranking
        )
        recorder = QueryTrace() if options.trace else None
        try:
            result = self._dispatch(
                query, method, ranking, options.timeout, recorder
            )
        except Exception:
            self._metric_errors.inc()
            raise
        result.request_id = options.request_id
        result.trace_id = options.trace_id
        self._record_query(method, result)
        return result

    def _dispatch(
        self,
        query: KSPQuery,
        method: str,
        ranking: RankingFunction,
        timeout: Optional[float],
        trace: Optional[QueryTrace],
    ) -> KSPResult:
        runtime = self._runtime
        if method == "bsp":
            return bsp_search(
                self.graph,
                self.rtree,
                self.inverted_index,
                query,
                ranking=ranking,
                undirected=self.undirected,
                timeout=timeout,
                runtime=runtime,
                trace=trace,
            )
        if method == "spp":
            if self.reachability is None:
                raise RuntimeError("SPP needs the reachability index")
            return spp_search(
                self.graph,
                self.rtree,
                self.inverted_index,
                self.reachability,
                query,
                ranking=ranking,
                undirected=self.undirected,
                timeout=timeout,
                runtime=runtime,
                trace=trace,
            )
        if method == "sp":
            if self.reachability is None:
                raise RuntimeError("SP needs the reachability index")
            if self.alpha_index is None:
                raise RuntimeError("SP needs the alpha-radius index")
            return sp_search(
                self.graph,
                self.rtree,
                self.inverted_index,
                self.reachability,
                self.alpha_index,
                query,
                ranking=ranking,
                undirected=self.undirected,
                timeout=timeout,
                runtime=runtime,
                trace=trace,
            )
        if method == "ta":
            return ta_search(
                self.graph,
                self.rtree,
                self.inverted_index,
                query,
                ranking=ranking,
                undirected=self.undirected,
                timeout=timeout,
                runtime=runtime,
                trace=trace,
            )
        raise ValueError("unknown method %r; expected one of %r" % (method, ALGORITHMS))

    def query_batch(
        self,
        queries: Sequence[KSPQuery],
        workers: Optional[int] = None,
        options: Optional[QueryOptions] = None,
        slow_query_threshold: Optional[float] = None,
        request_ids: Optional[Sequence[Optional[str]]] = None,
    ):
        """Answer a workload of queries and aggregate their statistics.

        The batch shares this engine's TQSP cache across all queries and
        gives each worker thread its own BFS scratch buffers, so batched
        results are identical to running :meth:`query` per query — only
        faster.  A timed-out or errored query yields a partial/empty
        result in its slot; it never aborts the rest of the batch.

        ``options`` is the same :class:`~repro.core.config.QueryOptions`
        that :meth:`query` accepts (the per-query ``k`` of each
        :class:`KSPQuery` still wins); ``workers`` defaults to
        ``config.workers``.  ``request_ids`` (aligned with ``queries``)
        tags each result and its slow-query-log entry — the serving
        layer derives them from the wire request id.
        ``slow_query_threshold`` (seconds) fills the report's slow-query
        log.  Returns a :class:`~repro.core.batch.BatchReport` with the
        per-query results (in submission order), aggregate stats and
        throughput.
        """
        from repro.core.batch import run_batch

        options = options or QueryOptions()
        return run_batch(
            self,
            queries,
            options=options,
            workers=self.config.workers if workers is None else workers,
            slow_query_threshold=slow_query_threshold,
            request_ids=request_ids,
        )

    def cursor(
        self,
        location: Union[Point, Sequence[float]],
        keywords: Iterable[str],
        options: Optional[QueryOptions] = None,
    ):
        """An incremental result stream: semantic places in ascending
        ranking score, without fixing ``k`` (see
        :class:`repro.core.cursor.KSPCursor`).

        ``options`` carries ``ranking``/``timeout`` exactly as in
        :meth:`query` (``k``, ``method`` and ``trace`` do not apply to
        the stream).  The options timeout bounds the whole stream; each
        :meth:`~repro.core.cursor.KSPCursor.take` call can additionally
        bound its own poll.
        """
        from repro.core.cursor import ksp_cursor

        options = options or QueryOptions()
        if self.reachability is None or self.alpha_index is None:
            raise RuntimeError(
                "the cursor needs the reachability and alpha indexes"
            )
        if not isinstance(location, Point):
            x, y = location
            location = Point(float(x), float(y))
        ranking = (
            options.ranking if options.ranking is not None else self.config.ranking
        )
        return ksp_cursor(
            self.graph,
            self.rtree,
            self.inverted_index,
            self.reachability,
            self.alpha_index,
            location,
            list(keywords),
            ranking=ranking,
            undirected=self.undirected,
            timeout=options.timeout,
            runtime=self._runtime,
            request_id=options.request_id,
        )

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def storage_report(self) -> Dict[str, int]:
        """Byte sizes of the data structures (Table 4 / Table 6 accounting)."""
        report = {
            "rtree": self.rtree.size_bytes(),
            "rdf_graph": self.graph.size_bytes(),
            "inverted_index": self.inverted_index.size_bytes(),
            "csr_snapshot": self.csr.size_bytes(),
        }
        if self.reachability is not None:
            report["reachability"] = self.reachability.size_bytes()
        if self.alpha_index is not None:
            report["alpha_index"] = self.alpha_index.size_bytes()
        return report

    def dataset_report(self) -> Dict[str, float]:
        """Dataset statistics as reported in Section 6.1."""
        return {
            "vertices": self.graph.vertex_count,
            "edges": self.graph.edge_count,
            "places": self.graph.place_count(),
            "vocabulary": self.inverted_index.vocabulary_size(),
            "avg_posting_length": self.inverted_index.average_posting_length(),
        }

    def debug_snapshot(self) -> Dict[str, Any]:
        """One JSON-safe snapshot for ``GET /v1/debug/engine``.

        Index sizes, dataset counts, build times, TQSP-cache occupancy,
        flight-recorder accounting, the manifest hash and the effective
        :class:`EngineConfig` — everything "what exactly is this server
        running?" needs, assembled from atomic per-component snapshots.
        """
        config: Dict[str, Any] = {}
        for name in (
            "alpha",
            "rtree_max_entries",
            "build_reachability",
            "build_alpha",
            "reach_method",
            "undirected",
            "tqsp_cache_size",
            "workers",
            "flight_recorder_size",
        ):
            config[name] = getattr(self.config, name)
        config["ranking"] = type(self.config.ranking).__name__
        return {
            "manifest_hash": self.manifest_hash,
            "uptime_seconds": process_uptime_seconds(),
            "dataset": self.dataset_report(),
            "storage_bytes": self.storage_report(),
            "build_seconds": dict(self.build_seconds),
            "tqsp_cache": (
                self.tqsp_cache.counters() if self.tqsp_cache is not None else None
            ),
            "flight_recorder": self.flight_recorder.counters(),
            "config": config,
        }
