"""BSP — the Basic Semantic Place retrieval algorithm (Algorithm 1).

Places are popped from the R-tree in ascending spatial distance from the
query location (best-first distance browsing); each popped place gets a full
TQSP construction (Algorithm 2).  The loop terminates when the next R-tree
entry's distance-only score bound reaches the current k-th candidate score
— valid because looseness is at least 1, so ``f(L, S) >= f(1, S)``.
"""

from __future__ import annotations

import math
import time
from typing import Optional

from repro.core.deadline import Deadline
from repro.core.query import KSPQuery, KSPResult, SemanticPlace
from repro.core.ranking import DEFAULT_RANKING, RankingFunction
from repro.core.semantic_place import SearchStatus, SemanticPlaceSearcher
from repro.core.stats import QueryStats, QueryTimeout
from repro.core.topk import TopKQueue
from repro.core.trace import PHASE_RTREE, PHASE_TQSP, QueryTrace
from repro.rdf.graph import RDFGraph
from repro.spatial.rtree import RTree
from repro.text.inverted import build_query_map


def bsp_search(
    graph: RDFGraph,
    rtree: RTree,
    inverted_index,
    query: KSPQuery,
    ranking: RankingFunction = DEFAULT_RANKING,
    undirected: bool = False,
    timeout: Optional[float] = None,
    runtime=None,
    trace: Optional[QueryTrace] = None,
) -> KSPResult:
    """Answer ``query`` with BSP.

    ``inverted_index`` is anything with a ``posting(term)`` method (the
    in-memory or the disk-resident index).  ``timeout`` (seconds, or a
    pre-built :class:`~repro.core.deadline.Deadline`) replicates the
    paper's 120 s abort protocol: on expiry the partial top-k found so
    far is returned with ``stats.timed_out`` set.  ``runtime`` is
    the engine's CSR snapshot and TQSP cache (see
    :class:`~repro.core.runtime.TQSPRuntime`); ``trace`` records the
    per-phase time breakdown.
    """
    stats = QueryStats(algorithm="BSP")
    started = time.monotonic()
    deadline = Deadline.resolve(timeout)

    query_map = build_query_map(inverted_index, query.keywords)
    searcher = SemanticPlaceSearcher(graph, undirected=undirected, runtime=runtime)
    top_k: TopKQueue[SemanticPlace] = TopKQueue(query.k)
    cursor = rtree.nearest(query.location)

    try:
        while True:
            next_distance = cursor.peek_distance()
            if next_distance is None:
                break
            # Algorithm 1 line 7: the best possible score of everything not
            # yet retrieved (nodes included: MINDIST lower-bounds the
            # distance of every place below a node).
            if ranking.distance_only_bound(next_distance) >= top_k.threshold:
                break
            if deadline is not None and deadline.expired():
                raise QueryTimeout()
            rtree_started = time.monotonic() if trace is not None else 0.0
            distance, entry = next(cursor)
            stats.places_retrieved += 1

            # The TQSP timestamp doubles as the R-tree span's end: one
            # traced clock read per iteration, not two.
            semantic_started = time.monotonic()
            if trace is not None:
                trace.add(PHASE_RTREE, semantic_started - rtree_started)
            try:
                search = searcher.tightest(
                    query.keywords,
                    entry.key,
                    query_map,
                    looseness_threshold=math.inf,
                    stats=stats,
                    deadline=deadline,
                )
            finally:
                semantic_elapsed = time.monotonic() - semantic_started
                stats.semantic_seconds += semantic_elapsed
                if trace is not None:
                    trace.add(PHASE_TQSP, semantic_elapsed)
            stats.tqsp_computations += 1
            if search.status is not SearchStatus.COMPLETE:
                continue
            score = ranking.score(search.looseness, distance)
            # Algorithm 1 line 12: only scores beating theta enter the queue.
            if score < top_k.threshold:
                top_k.consider(
                    searcher.build_place(
                        query, entry.key, entry.point, distance, score, search
                    )
                )
    except QueryTimeout:
        stats.timed_out = True

    stats.rtree_node_accesses = cursor.node_accesses
    stats.runtime_seconds = time.monotonic() - started
    return KSPResult(query=query, places=top_k.ranked(), stats=stats, trace=trace)
