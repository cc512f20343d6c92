"""TA — the threshold-algorithm baseline of Section 6.2.6.

Two ranked streams are combined with Fagin's threshold algorithm:

* the **looseness stream** emits qualified semantic places in ascending
  looseness, produced by backward expansion from the keyword vertices (the
  bottom-up RDF keyword-search approach of [31, 43]): one multi-source BFS
  per keyword walks the graph against edge direction, and a place is
  complete once every keyword's BFS has reached it;
* the **spatial stream** emits places in ascending distance (R-tree NN).

Each sorted access performs the complementary random access (spatial
distance for a looseness hit, full Algorithm-2 TQSP construction for a
spatial hit).  The stopping threshold is ``f(L_frontier, S_last)``: every
place unseen by both streams has looseness at least the looseness stream's
frontier bound and distance at least the last NN distance.

The heavy per-vertex bookkeeping of the looseness stream ("TA needs to
start exploration from all the vertices containing any of the keywords and
maintains |q.psi| queues") is exactly what the paper blames for TA's poor
performance at three or more keywords.
"""

from __future__ import annotations

import heapq
import math
import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.deadline import Deadline
from repro.core.query import KSPQuery, KSPResult, SemanticPlace
from repro.core.ranking import DEFAULT_RANKING, RankingFunction
from repro.core.semantic_place import SearchStatus, SemanticPlaceSearcher
from repro.core.stats import QueryStats, QueryTimeout
from repro.core.topk import TopKQueue
from repro.core.trace import PHASE_RTREE, PHASE_STREAM, PHASE_TQSP, QueryTrace
from repro.rdf.graph import RDFGraph
from repro.spatial.rtree import RTree
from repro.text.inverted import build_query_map


class LoosenessStream:
    """Qualified places in ascending looseness via backward expansion."""

    def __init__(
        self,
        graph: RDFGraph,
        inverted_index,
        keywords: Sequence[str],
        undirected: bool = False,
        deadline: Optional[Deadline] = None,
    ) -> None:
        self._graph = graph
        self._undirected = undirected
        self._deadline = deadline
        self._keywords = list(keywords)
        self._frontiers: List[List[int]] = []
        self._seen: List[Set[int]] = []
        self._radius = 0
        # place -> {keyword index -> distance}; dropped once complete.
        self._partial: Dict[int, Dict[int, int]] = {}
        # min-heap of (looseness, place) for completed places.
        self._complete: List[Tuple[float, int]] = []
        self.vertices_visited = 0

        for index, term in enumerate(self._keywords):
            sources = list(inverted_index.posting(term))
            self._frontiers.append(sources)
            self._seen.append(set(sources))
            for vertex in sources:
                self._record(vertex, index, 0)

    # ------------------------------------------------------------------

    def _record(self, vertex: int, keyword_index: int, distance: int) -> None:
        self.vertices_visited += 1
        if not self._graph.is_place(vertex):
            return
        known = self._partial.setdefault(vertex, {})
        if keyword_index in known:
            return
        known[keyword_index] = distance
        if len(known) == len(self._keywords):
            looseness = 1.0 + sum(known.values())
            heapq.heappush(self._complete, (looseness, vertex))
            del self._partial[vertex]

    def _expand_round(self) -> None:
        """Advance every keyword BFS by one hop (radius += 1)."""
        graph = self._graph
        next_radius = self._radius + 1
        for index, frontier in enumerate(self._frontiers):
            if not frontier:
                continue
            seen = self._seen[index]
            next_frontier: List[int] = []
            for vertex in frontier:
                # Walk *against* edge direction: tree paths run from the
                # root towards keyword vertices, so roots sit upstream.
                neighbors = list(graph.in_neighbors(vertex))
                if self._undirected:
                    neighbors += list(graph.out_neighbors(vertex))
                for neighbor in neighbors:
                    if neighbor not in seen:
                        seen.add(neighbor)
                        next_frontier.append(neighbor)
                        self._record(neighbor, index, next_radius)
            self._frontiers[index] = next_frontier
        self._radius = next_radius

    def lower_bound(self) -> float:
        """A lower bound on the looseness of any place not yet emitted.

        A place missing keyword ``i`` can complete no tighter than with
        distance ``radius + 1`` for it — or never, when keyword ``i``'s BFS
        has exhausted.
        """
        keyword_count = len(self._keywords)
        future = [
            (self._radius + 1) if frontier else math.inf
            for frontier in self._frontiers
        ]
        bound = 1.0 + sum(future)  # bound for places unseen by every BFS
        for known in self._partial.values():
            candidate = 1.0
            for index in range(keyword_count):
                candidate += known.get(index, future[index])
            if candidate < bound:
                bound = candidate
        if self._complete and self._complete[0][0] < bound:
            bound = self._complete[0][0]
        return bound

    def exhausted(self) -> bool:
        return not self._complete and all(
            not frontier for frontier in self._frontiers
        )

    def next(self) -> Optional[Tuple[float, int]]:
        """The next (looseness, place) in ascending looseness, or None."""
        while True:
            if self._deadline is not None:
                self._deadline.check()
            if self._complete:
                looseness, place = self._complete[0]
                frontier_bound = 1.0 + sum(
                    (self._radius + 1) if frontier else math.inf
                    for frontier in self._frontiers
                )
                partial_bound = math.inf
                future = [
                    (self._radius + 1) if frontier else math.inf
                    for frontier in self._frontiers
                ]
                for known in self._partial.values():
                    candidate = 1.0
                    for index in range(len(self._keywords)):
                        candidate += known.get(index, future[index])
                    if candidate < partial_bound:
                        partial_bound = candidate
                if looseness <= min(frontier_bound, partial_bound):
                    heapq.heappop(self._complete)
                    return looseness, place
            if all(not frontier for frontier in self._frontiers):
                if self._complete:
                    return heapq.heappop(self._complete)
                return None
            self._expand_round()


def ta_search(
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
    """Answer ``query`` with the TA baseline.

    ``runtime`` is the engine's CSR snapshot and TQSP cache, used by the
    random-access TQSP constructions; ``trace`` records the per-phase
    time breakdown.
    """
    stats = QueryStats(algorithm="TA")
    started = time.monotonic()
    deadline = Deadline.resolve(timeout)

    query_map = build_query_map(inverted_index, query.keywords)
    searcher = SemanticPlaceSearcher(graph, undirected=undirected, runtime=runtime)
    top_k: TopKQueue[SemanticPlace] = TopKQueue(query.k)
    looseness_stream = LoosenessStream(
        graph, inverted_index, query.keywords, undirected=undirected,
        deadline=deadline,
    )
    spatial_cursor = rtree.nearest(query.location)

    seen_places: Set[int] = set()
    last_distance = 0.0
    looseness_exhausted = False
    spatial_exhausted = False

    def consider(place_vertex: int, looseness: float, distance: float) -> None:
        score = ranking.score(looseness, distance)
        if not top_k.admits(score, place_vertex):
            return
        semantic_started = time.monotonic()
        try:
            search = searcher.tightest(
                query.keywords,
                place_vertex,
                query_map,
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
            return
        location = graph.location(place_vertex)
        top_k.consider(
            searcher.build_place(
                query, place_vertex, location, distance, score, search
            )
        )

    try:
        while not (looseness_exhausted and spatial_exhausted):
            if deadline is not None and deadline.expired():
                raise QueryTimeout()

            # Sorted access on the looseness list + random spatial access.
            if not looseness_exhausted:
                semantic_started = time.monotonic()
                try:
                    item = looseness_stream.next()
                finally:
                    semantic_elapsed = time.monotonic() - semantic_started
                    stats.semantic_seconds += semantic_elapsed
                    if trace is not None:
                        trace.add(PHASE_STREAM, semantic_elapsed)
                if item is None:
                    looseness_exhausted = True
                else:
                    looseness, place_vertex = item
                    if place_vertex not in seen_places:
                        seen_places.add(place_vertex)
                        location = graph.location(place_vertex)
                        distance = location.distance_to(query.location)
                        consider(place_vertex, looseness, distance)

            # Sorted access on the spatial list + random looseness access.
            if not spatial_exhausted:
                rtree_started = time.monotonic() if trace is not None else 0.0
                try:
                    distance, entry = next(spatial_cursor)
                except StopIteration:
                    spatial_exhausted = True
                else:
                    if trace is not None:
                        trace.add(PHASE_RTREE, time.monotonic() - rtree_started)
                    last_distance = distance
                    stats.places_retrieved += 1
                    if entry.key not in seen_places:
                        seen_places.add(entry.key)
                        semantic_started = time.monotonic()
                        try:
                            search = searcher.tightest(
                                query.keywords,
                                entry.key,
                                query_map,
                                stats=stats,
                                deadline=deadline,
                            )
                        finally:
                            semantic_elapsed = (
                                time.monotonic() - semantic_started
                            )
                            stats.semantic_seconds += semantic_elapsed
                            if trace is not None:
                                trace.add(PHASE_TQSP, semantic_elapsed)
                        stats.tqsp_computations += 1
                        if search.status is SearchStatus.COMPLETE:
                            score = ranking.score(search.looseness, distance)
                            if top_k.admits(score, entry.key):
                                top_k.consider(
                                    searcher.build_place(
                                        query,
                                        entry.key,
                                        entry.point,
                                        distance,
                                        score,
                                        search,
                                    )
                                )

            # Fagin's stopping rule: no unseen place can beat the k-th
            # candidate.  Strict, because an unseen place scoring exactly
            # tau still enters when its root id is the lower one.
            looseness_floor = (
                math.inf if looseness_exhausted else looseness_stream.lower_bound()
            )
            distance_floor = math.inf if spatial_exhausted else last_distance
            tau = ranking.bound(
                min(looseness_floor, math.inf),
                min(distance_floor, math.inf),
            )
            if looseness_exhausted or spatial_exhausted:
                break
            if top_k.threshold < tau:
                break
    except QueryTimeout:
        stats.timed_out = True

    stats.vertices_visited += looseness_stream.vertices_visited
    stats.rtree_node_accesses = spatial_cursor.node_accesses
    stats.runtime_seconds = time.monotonic() - started
    return KSPResult(query=query, places=top_k.ranked(), stats=stats, trace=trace)
