"""Exhaustive reference evaluation of kSP queries.

Scans *every* place vertex, constructs its TQSP with Algorithm 2 and ranks
all qualified places.  No pruning, no index assumptions — quadratic-ish and
slow, but obviously correct.  The test suite validates BSP/SPP/SP/TA
against it, and it is handy for spot-checking results on small datasets.

The oracle runs its own TQSP search, :func:`reference_tightest`: a plain
FIFO BFS over the graph's ``bfs`` generator, independent of the CSR
kernel every algorithm runs on, so a kernel defect cannot hide in both
the answer and its reference.
"""

from __future__ import annotations

import math
import time
from typing import Dict, Mapping, Optional, Sequence

from repro.core.deadline import Deadline
from repro.core.query import KSPQuery, KSPResult, SemanticPlace
from repro.core.ranking import DEFAULT_RANKING, RankingFunction
from repro.core.semantic_place import SearchStatus, TQSPSearch
from repro.core.stats import QueryStats, QueryTimeout
from repro.core.topk import TopKQueue
from repro.rdf.graph import RDFGraph
from repro.text.inverted import build_query_map

_DEADLINE_CHECK_INTERVAL = 1024


def reference_tightest(
    graph: RDFGraph,
    keywords: Sequence[str],
    place: int,
    query_map: Mapping[int, frozenset],
    looseness_threshold: float = math.inf,
    stats: Optional[QueryStats] = None,
    deadline: Optional[Deadline] = None,
    undirected: bool = False,
) -> TQSPSearch:
    """GetSemanticPlace(P) as a tuple-yielding BFS over ``graph.bfs``.

    The same contract as :func:`~repro.rdf.csr.csr_tightest`: with
    ``looseness_threshold`` at ``+inf`` this is Algorithm 2, with a
    finite one Algorithm 3 (abort once the Lemma 1 bound reaches it).
    The threshold is kept so kernel tests can compare PRUNED outcomes.
    """
    outstanding = set(keywords)
    if not outstanding:
        raise ValueError("TQSP construction needs at least one keyword")
    covered_sum = 0.0
    keyword_vertices: Dict[str, int] = {}
    parents: Dict[int, int] = {}
    visited = 0

    for vertex, distance, parent in graph.bfs(place, undirected=undirected):
        visited += 1
        if deadline is not None and visited % _DEADLINE_CHECK_INTERVAL == 0:
            deadline.check()
        parents[vertex] = parent
        # Lemma 1: every outstanding keyword lies at distance >= d(p, v).
        if 1.0 + covered_sum + distance * len(outstanding) >= looseness_threshold:
            if stats is not None:
                stats.vertices_visited += visited
                stats.pruned_rule2 += 1
            return TQSPSearch(SearchStatus.PRUNED, math.inf, vertices_visited=visited)
        matched = query_map.get(vertex)
        if matched:
            hits = outstanding & matched
            if hits:
                covered_sum += len(hits) * distance
                for term in hits:
                    keyword_vertices[term] = vertex
                outstanding -= hits
                if not outstanding:
                    if stats is not None:
                        stats.vertices_visited += visited
                    return TQSPSearch(
                        SearchStatus.COMPLETE,
                        1.0 + covered_sum,
                        keyword_vertices,
                        parents,
                        vertices_visited=visited,
                    )

    if stats is not None:
        stats.vertices_visited += visited
        stats.unqualified_places += 1
    return TQSPSearch(SearchStatus.UNQUALIFIED, math.inf, vertices_visited=visited)


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
    top_k: TopKQueue[SemanticPlace] = TopKQueue(query.k)

    try:
        for place, location in graph.places():
            if deadline is not None and deadline.expired():
                raise QueryTimeout()
            stats.places_retrieved += 1
            semantic_started = time.monotonic()
            try:
                search = reference_tightest(
                    graph,
                    query.keywords,
                    place,
                    query_map,
                    stats=stats,
                    deadline=deadline,
                    undirected=undirected,
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
                    SemanticPlace(
                        root=place,
                        root_label=graph.label(place),
                        location=location,
                        looseness=search.looseness,
                        distance=distance,
                        score=score,
                        keyword_vertices=dict(search.keyword_vertices),
                        paths={
                            term: search.path_to(vertex, place)
                            for term, vertex in search.keyword_vertices.items()
                        },
                    )
                )
    except QueryTimeout:
        stats.timed_out = True

    stats.runtime_seconds = time.monotonic() - started
    return KSPResult(query=query, places=top_k.ranked(), stats=stats)
