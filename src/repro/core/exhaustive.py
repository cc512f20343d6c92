"""Exhaustive reference evaluation of kSP queries.

Scans *every* place vertex, constructs its TQSP with Algorithm 2 and ranks
all qualified places.  No pruning, no index assumptions — quadratic-ish and
slow, but obviously correct.  The test suite validates BSP/SPP/SP/TA
against it, and it is handy for spot-checking results on small datasets.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.core.deadline import Deadline
from repro.core.query import KSPQuery, KSPResult, SemanticPlace
from repro.core.ranking import DEFAULT_RANKING, RankingFunction
from repro.core.semantic_place import SearchStatus, SemanticPlaceSearcher
from repro.core.stats import QueryStats, QueryTimeout
from repro.core.topk import TopKQueue
from repro.rdf.graph import RDFGraph
from repro.text.inverted import build_query_map


def exhaustive_search(
    graph: RDFGraph,
    inverted_index,
    query: KSPQuery,
    ranking: RankingFunction = DEFAULT_RANKING,
    undirected: bool = False,
    timeout: Optional[float] = None,
) -> KSPResult:
    """Answer ``query`` by evaluating every place vertex."""
    stats = QueryStats(algorithm="EXHAUSTIVE")
    started = time.monotonic()
    deadline = Deadline.resolve(timeout)

    query_map = build_query_map(inverted_index, query.keywords)
    searcher = SemanticPlaceSearcher(graph, undirected=undirected)
    top_k: TopKQueue[SemanticPlace] = TopKQueue(query.k)

    try:
        for place, location in graph.places():
            if deadline is not None and deadline.expired():
                raise QueryTimeout()
            stats.places_retrieved += 1
            semantic_started = time.monotonic()
            try:
                search = searcher.tightest(
                    query.keywords, place, query_map, stats=stats, deadline=deadline
                )
            finally:
                stats.semantic_seconds += time.monotonic() - semantic_started
            stats.tqsp_computations += 1
            if search.status is not SearchStatus.COMPLETE:
                continue
            distance = location.distance_to(query.location)
            score = ranking.score(search.looseness, distance)
            if score < top_k.threshold:
                top_k.consider(
                    searcher.build_place(
                        query, place, location, distance, score, search
                    )
                )
    except QueryTimeout:
        stats.timed_out = True

    stats.runtime_seconds = time.monotonic() - started
    return KSPResult(query=query, places=top_k.ranked(), stats=stats)
