"""The batched query executor — the serving layer's entry point.

``KSPEngine.query_batch`` delegates here.  A batch shares one TQSP
cache across all of its queries (the cross-query wins come from
repeated ``(place, keyword-set)`` work, which looseness's
location-independence makes safe to reuse) and one set of BFS scratch
buffers per worker thread (handed out thread-locally by the runtime).

The executor is deadline-safe: every per-query outcome is captured
inside the worker, so a query that times out (cooperative
:class:`~repro.core.deadline.Deadline` expiry — the engine returns a
partial result rather than raising) or dies on an unexpected exception
occupies its slot in the result list without discarding the rest of
the batch.  Errored slots carry an empty :class:`KSPResult` whose
``stats.error`` names the exception.

Results come back in submission order together with an
:class:`~repro.core.stats.AggregateStats` over the per-query stats, a
wall-clock throughput figure and — when ``slow_query_threshold`` is
set — a slow-query log, so callers can report cache hit rates,
queries/second and tail offenders per workload.  Each slow-query entry
is also emitted as one structured JSON warning through
:mod:`repro.obs.log` (logger ``repro.core.batch``), so tail offenders
reach operators' log pipelines without anyone polling
``BatchReport.slow_queries``.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import QueryOptions
from repro.core.query import KSPQuery, KSPResult
from repro.core.stats import AggregateStats, QueryStats, QueryTimeout
from repro.obs.log import get_logger

_log = get_logger("repro.core.batch")


@dataclass
class SlowQuery:
    """One slow-query log entry (see ``BatchReport.slow_queries``)."""

    index: int  # position in the submitted batch
    keywords: Tuple[str, ...]
    k: int
    runtime_seconds: float
    timed_out: bool = False
    error: Optional[str] = None
    request_id: Optional[str] = None

    def describe(self) -> str:
        flags = []
        if self.timed_out:
            flags.append("timed out")
        if self.error is not None:
            flags.append("error: %s" % self.error)
        suffix = (" [%s]" % "; ".join(flags)) if flags else ""
        prefix = (
            "#%d" % self.index
            if self.request_id is None
            else "#%d (%s)" % (self.index, self.request_id)
        )
        return "%s %s k=%d %.1f ms%s" % (
            prefix,
            "/".join(self.keywords),
            self.k,
            1000.0 * self.runtime_seconds,
            suffix,
        )


@dataclass
class BatchReport:
    """Outcome of one executed batch."""

    results: List[KSPResult] = field(default_factory=list)
    aggregate: AggregateStats = field(default_factory=AggregateStats)
    wall_seconds: float = 0.0
    workers: int = 1
    method: str = ""
    slow_query_threshold: Optional[float] = None
    slow_queries: List[SlowQuery] = field(default_factory=list)

    @property
    def queries_per_second(self) -> float:
        if self.wall_seconds <= 0.0:
            return 0.0
        return len(self.results) / self.wall_seconds

    @property
    def timeout_count(self) -> int:
        return self.aggregate.timeout_count

    @property
    def error_count(self) -> int:
        return self.aggregate.error_count

    def counter_totals(self) -> Dict[str, int]:
        """Batch-wide sums of the serving counters."""
        return {
            name: int(self.aggregate.total(name))
            for name in (
                "tqsp_computations",
                "vertices_visited",
                "cache_hits",
                "cache_misses",
                "cache_bound_reuses",
            )
        }

    def summary(self) -> str:
        totals = self.counter_totals()
        lines = [
            "batch of %d queries [%s] in %.3f s (%.1f q/s, %d worker%s)"
            % (
                len(self.results),
                self.method or "?",
                self.wall_seconds,
                self.queries_per_second,
                self.workers,
                "" if self.workers == 1 else "s",
            ),
            "  latency: mean %.2f ms, p50 %.2f ms, p95 %.2f ms"
            % (
                self.aggregate.mean_runtime_ms,
                self.aggregate.runtime_percentile_ms(50),
                self.aggregate.runtime_percentile_ms(95),
            ),
            "  tqsp: %d computations, %d vertices visited"
            % (totals["tqsp_computations"], totals["vertices_visited"]),
            "  cache: %d hits, %d misses, %d bound reuses"
            % (
                totals["cache_hits"],
                totals["cache_misses"],
                totals["cache_bound_reuses"],
            ),
        ]
        timeouts = self.timeout_count
        if timeouts:
            lines.append("  WARNING: %d queries timed out" % timeouts)
        errors = self.error_count
        if errors:
            lines.append("  WARNING: %d queries errored" % errors)
        if self.slow_queries:
            lines.append(
                "  slow queries (>= %.0f ms):"
                % (1000.0 * (self.slow_query_threshold or 0.0))
            )
            for entry in self.slow_queries:
                lines.append("    " + entry.describe())
        return "\n".join(lines)


def run_batch(
    engine,
    queries: Sequence[KSPQuery],
    options: Optional[QueryOptions] = None,
    workers: int = 4,
    slow_query_threshold: Optional[float] = None,
    request_ids: Optional[Sequence[Optional[str]]] = None,
) -> BatchReport:
    """Execute ``queries`` against ``engine`` and aggregate the stats.

    ``options`` (a :class:`~repro.core.config.QueryOptions`) carries
    method/ranking/timeout for every query in the batch.
    ``request_ids``, aligned with ``queries``, tags each result
    (``KSPResult.request_id``) and its slow-query-log entry.

    ``workers`` > 1 fans the batch over a thread pool; every worker gets
    its own BFS scratch buffers (via the runtime's thread-local storage)
    while the TQSP cache is shared under its lock, so results are
    identical to sequential execution in any interleaving.

    One bad query cannot kill the batch: outcomes are collected
    per-future with the exception captured inside the worker, so a
    :class:`~repro.core.stats.QueryTimeout` (or any other exception)
    surfacing from one query is recorded in that query's slot —
    ``stats.timed_out`` / ``stats.error`` — while every other result is
    kept.  ``slow_query_threshold`` (seconds) logs queries at or above
    the threshold (and every timed-out/errored query) in
    ``BatchReport.slow_queries``, slowest first.
    """
    options = options or QueryOptions()
    queries = list(queries)
    if workers < 1:
        raise ValueError("workers must be positive")
    if request_ids is not None and len(request_ids) != len(queries):
        raise ValueError("request_ids must align one-to-one with queries")
    method = options.method or "sp"

    def run_one(query: KSPQuery, request_id: Optional[str]) -> KSPResult:
        slot_options = (
            options if request_id is None else options.replace(request_id=request_id)
        )
        try:
            return engine.query(query, options=slot_options)
        except QueryTimeout:
            # Engines return partial results on expiry; a raw cursor or a
            # custom engine may still raise — record, don't abort.
            stats = QueryStats(algorithm=method.upper(), timed_out=True)
            return KSPResult(query=query, stats=stats, request_id=request_id)
        except Exception as exc:
            stats = QueryStats(
                algorithm=method.upper(),
                error="%s: %s" % (type(exc).__name__, exc),
            )
            return KSPResult(query=query, stats=stats, request_id=request_id)

    ids: Sequence[Optional[str]] = (
        request_ids if request_ids is not None else [None] * len(queries)
    )
    started = time.monotonic()
    if workers == 1 or len(queries) <= 1:
        results = [run_one(query, rid) for query, rid in zip(queries, ids)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(run_one, query, rid) for query, rid in zip(queries, ids)
            ]
            # run_one never raises, so gathering in submission order keeps
            # result slots aligned with the input workload.
            results = [future.result() for future in futures]
    wall_seconds = time.monotonic() - started

    aggregate = AggregateStats()
    for result in results:
        aggregate.add(result.stats)

    slow_queries: List[SlowQuery] = []
    if slow_query_threshold is not None:
        for index, result in enumerate(results):
            stats = result.stats
            if (
                stats.runtime_seconds >= slow_query_threshold
                or stats.timed_out
                or stats.error is not None
            ):
                slow_queries.append(
                    SlowQuery(
                        index=index,
                        keywords=result.query.keywords,
                        k=result.query.k,
                        runtime_seconds=stats.runtime_seconds,
                        timed_out=stats.timed_out,
                        error=stats.error,
                        request_id=result.request_id,
                    )
                )
        slow_queries.sort(key=lambda entry: -entry.runtime_seconds)
        for entry in slow_queries:
            _log.warning(
                "slow_query",
                request_id=entry.request_id,
                index=entry.index,
                keywords=list(entry.keywords),
                k=entry.k,
                runtime_ms=1000.0 * entry.runtime_seconds,
                threshold_ms=1000.0 * slow_query_threshold,
                timed_out=entry.timed_out,
                error=entry.error,
                method=method,
            )

    return BatchReport(
        results=results,
        aggregate=aggregate,
        wall_seconds=wall_seconds,
        workers=workers,
        method=method,
        slow_query_threshold=slow_query_threshold,
        slow_queries=slow_queries,
    )
