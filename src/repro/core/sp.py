"""SP — Semantic Place retrieval with alpha-radius bounds (Algorithm 4).

SP differs from SPP in three ways (Section 5):

1. R-tree entries are visited in ascending order of the *alpha-bound on the
   ranking score* ``f_aB`` (Lemmas 3 and 5) rather than plain spatial
   distance;
2. entries whose alpha-bound cannot beat the current k-th score are never
   enqueued (Pruning Rules 3 and 4);
3. termination fires when the smallest alpha-bound in the queue reaches the
   k-th score — usually far earlier than the distance-only test, because
   the bound also accounts for looseness.

Rules 1 and 2 from SPP still apply to the places that survive.

Each surviving place costs one forward BFS, so a query that retrieves
many places pops the graph many times over.  Once those searches have
popped ``|q| * V`` vertices (:func:`field_budget`), SP switches plans: it
builds one reverse distance field ``d(., t)`` per query keyword
(:func:`~repro.rdf.csr.csr_distance_field`) and scores every later place
exactly in ``O(|q|)``.  Places scored that way enter the top-k as
pending entries; the forward kernel builds the TQSP trees of those still
there at the end, so the answer is the one the forward plan gives.
"""

from __future__ import annotations

import heapq
import itertools
import time
from typing import List, Mapping, Optional, Sequence, Tuple, Union

from repro.alpha.index import AlphaIndex
from repro.core.deadline import Deadline
from repro.core.query import KSPQuery, KSPResult, SemanticPlace
from repro.core.ranking import DEFAULT_RANKING, RankingFunction
from repro.core.semantic_place import SearchStatus, SemanticPlaceSearcher
from repro.core.stats import QueryStats, QueryTimeout
from repro.core.topk import TopKQueue
from repro.core.trace import (
    PHASE_ALPHA,
    PHASE_REACH,
    PHASE_RTREE,
    PHASE_TQSP,
    QueryTrace,
)
from repro.rdf.csr import FIELD_UNREACHED, CSRAdjacency, csr_distance_field
from repro.rdf.graph import RDFGraph
from repro.reach.keyword import KeywordReachabilityIndex
from repro.spatial.geometry import Point
from repro.spatial.rtree import LeafEntry, Node, RTree
from repro.text.inverted import build_query_map, order_rarest_first


def field_budget(query: KSPQuery, vertex_count: int) -> int:
    """Forward-BFS pops after which SP scores places from distance fields.

    Building one field per query keyword visits at most ``|q| * V``
    vertices, and a field vertex costs no more than a forward pop (both
    scan one adjacency list).  Switching once the forward searches have
    popped that many therefore at most doubles the work done so far, and
    holds a query to about twice the cheaper of the two plans.
    """
    return len(query.keywords) * vertex_count


class _Pending:
    """A top-k entry scored from the distance fields; its TQSP tree is
    built only if it is still in the top-k when the search ends."""

    __slots__ = ("root", "location", "distance", "score", "looseness")

    def __init__(
        self, root: int, location: Point, distance: float, score: float, looseness: float
    ) -> None:
        self.root = root
        self.location = location
        self.distance = distance
        self.score = score
        self.looseness = looseness


def _distance_fields(
    csr: CSRAdjacency,
    inverted_index,
    keywords: Sequence[str],
    undirected: bool,
    stats: QueryStats,
    deadline: Optional[Deadline],
) -> Optional[List[bytearray]]:
    """One ``d(., t)`` field per keyword, or None if one overflows."""
    fields: List[bytearray] = []
    for term in keywords:
        field = csr_distance_field(
            csr,
            inverted_index.posting(term),
            undirected=undirected,
            stats=stats,
            deadline=deadline,
        )
        if field is None:
            return None
        fields.append(field)
    return fields


def _materialize(
    entries: Sequence[Union[SemanticPlace, _Pending]],
    searcher: SemanticPlaceSearcher,
    query: KSPQuery,
    query_map: Mapping[int, frozenset],
    stats: QueryStats,
    deadline: Optional[Deadline],
    trace: Optional[QueryTrace],
) -> List[SemanticPlace]:
    """The ranked answer with every pending entry swapped for the place
    the forward kernel builds (no looseness threshold), so keyword
    vertices and paths are those a forward-only search reports.

    Pending entries the deadline leaves unbuilt are dropped: the rest is
    a subsequence of a sound partial answer, so it is sound too.
    """
    places: List[SemanticPlace] = []
    for entry in entries:
        if isinstance(entry, SemanticPlace):
            places.append(entry)
            continue
        if stats.timed_out:
            continue
        semantic_started = time.monotonic()
        try:
            search = searcher.tightest(
                query.keywords, entry.root, query_map, stats=stats, deadline=deadline
            )
        except QueryTimeout:
            stats.timed_out = True
            continue
        finally:
            semantic_elapsed = time.monotonic() - semantic_started
            stats.semantic_seconds += semantic_elapsed
            if trace is not None:
                trace.add(PHASE_TQSP, semantic_elapsed)
        stats.tqsp_computations += 1
        if search.looseness != entry.looseness:
            raise RuntimeError(
                "place %d: field looseness %r, TQSP looseness %r"
                % (entry.root, entry.looseness, search.looseness)
            )
        places.append(
            searcher.build_place(
                query, entry.root, entry.location, entry.distance, entry.score, search
            )
        )
    return places


def sp_search(
    graph: RDFGraph,
    rtree: RTree,
    inverted_index,
    reachability: Optional[KeywordReachabilityIndex],
    alpha_index: AlphaIndex,
    query: KSPQuery,
    ranking: RankingFunction = DEFAULT_RANKING,
    undirected: bool = False,
    timeout: Optional[float] = None,
    use_rule1: bool = True,
    use_rule2: bool = True,
    use_node_pruning: bool = True,
    rule1_rarest_first: bool = True,
    runtime=None,
    trace: Optional[QueryTrace] = None,
) -> KSPResult:
    """Answer ``query`` with SP.

    ``reachability`` may be None when ``use_rule1`` is False (ablation).
    ``use_node_pruning`` toggles Rules 3/4 enqueue filtering (the priority
    order itself is always the alpha-bound, as in Algorithm 4);
    ``rule1_rarest_first`` toggles the rarest-first probing order.
    ``runtime`` is the engine's CSR snapshot and TQSP cache (without
    one the searcher builds a cache-less runtime per call);
    ``trace`` records the per-phase time breakdown.
    """
    if use_rule1 and reachability is None:
        raise ValueError("Rule 1 requires a reachability index")
    stats = QueryStats(algorithm="SP")
    started = time.monotonic()
    deadline = Deadline.resolve(timeout)

    query_map = build_query_map(inverted_index, query.keywords)
    rarest_first: Sequence[str] = (
        order_rarest_first(inverted_index, query.keywords)
        if rule1_rarest_first
        else list(query.keywords)
    )
    view = alpha_index.query_view(query.keywords)
    searcher = SemanticPlaceSearcher(graph, undirected=undirected, runtime=runtime)
    top_k: TopKQueue[Union[SemanticPlace, _Pending]] = TopKQueue(query.k)
    # The plan switch is tried at most once: ``csr`` goes back to None
    # when it has been.
    csr: Optional[CSRAdjacency] = searcher.csr
    budget = field_budget(query, csr.vertex_count)
    fields: Optional[List[bytearray]] = None

    # Priority queue over R-tree entries keyed by the alpha score bound.
    counter = itertools.count()
    heap: List[Tuple[float, int, bool, Union[Node, LeafEntry], float]] = []

    def push_node(node: Node) -> None:
        if node.rect is None:
            return
        distance = node.rect.min_distance(query.location)
        bound = ranking.bound(view.node_looseness_bound(node.node_id), distance)
        if use_node_pruning and bound >= top_k.threshold:
            stats.pruned_rule4 += 1
            return
        heapq.heappush(heap, (bound, next(counter), False, node, distance))

    def push_place(entry: LeafEntry) -> None:
        distance = entry.point.distance_to(query.location)
        bound = ranking.bound(view.place_looseness_bound(entry.key), distance)
        if use_node_pruning and bound >= top_k.threshold:
            stats.pruned_rule3 += 1
            return
        heapq.heappush(heap, (bound, next(counter), True, entry, distance))

    push_node(rtree.root)

    try:
        while heap:
            bound, _, is_place, item, distance = heapq.heappop(heap)
            # Algorithm 4 line 9: nothing left can beat the k-th candidate.
            if bound >= top_k.threshold:
                break
            if deadline is not None and deadline.expired():
                raise QueryTimeout()

            if not is_place:
                stats.rtree_node_accesses += 1
                if trace is None:
                    if item.is_leaf:
                        for entry in item.entries:
                            push_place(entry)
                    else:
                        for child in item.entries:
                            push_node(child)
                else:
                    # Timed at expansion-block granularity (two clock
                    # reads per node access, not two per pushed child) so
                    # the traced path stays within a few percent of the
                    # untraced one.  Leaf expansion is per-place Rule 3
                    # bound evaluation -> alpha-bounds; internal-node
                    # expansion is rect distances plus Rule 4 -> R-tree
                    # ascent.  The two intervals are disjoint.
                    block_started = time.monotonic()
                    if item.is_leaf:
                        for entry in item.entries:
                            push_place(entry)
                        trace.add(
                            PHASE_ALPHA,
                            time.monotonic() - block_started,
                            count=len(item.entries),
                        )
                    else:
                        for child in item.entries:
                            push_node(child)
                        trace.add(
                            PHASE_RTREE, time.monotonic() - block_started
                        )
                continue

            stats.places_retrieved += 1
            if csr is not None and stats.vertices_visited >= budget:
                fields_started = time.monotonic()
                try:
                    fields = _distance_fields(
                        csr, inverted_index, query.keywords, undirected, stats, deadline
                    )
                finally:
                    csr = None
                    fields_elapsed = time.monotonic() - fields_started
                    stats.semantic_seconds += fields_elapsed
                    if trace is not None:
                        trace.add(PHASE_TQSP, fields_elapsed)
            if fields is not None:
                hops = [field[item.key] for field in fields]
                if FIELD_UNREACHED in hops:
                    # Exact Rule 1: some keyword is out of this place's reach.
                    if use_rule1:
                        stats.pruned_rule1 += 1
                    else:
                        stats.unqualified_places += 1
                    continue
                looseness = 1.0 + sum(hops)
                # The forward search completes iff looseness < L_w; the
                # same test keeps both plans' answers identical.
                if use_rule2 and looseness >= ranking.looseness_threshold(
                    top_k.threshold, distance
                ):
                    stats.pruned_rule2 += 1
                    continue
                top_k.consider(
                    _Pending(
                        item.key,
                        item.point,
                        distance,
                        ranking.score(looseness, distance),
                        looseness,
                    )
                )
                continue

            traced_reach = trace is not None and use_rule1
            if use_rule1:
                reach_started = time.monotonic() if traced_reach else 0.0
                issued_before = reachability.queries_issued
                qualified = reachability.is_qualified(item.key, rarest_first)
                stats.reachability_queries += (
                    reachability.queries_issued - issued_before
                )
                if not qualified:
                    if traced_reach:
                        trace.add(PHASE_REACH, time.monotonic() - reach_started)
                    stats.pruned_rule1 += 1
                    continue

            threshold = (
                ranking.looseness_threshold(top_k.threshold, distance)
                if use_rule2
                else float("inf")
            )
            # For a qualified place the TQSP timestamp ends the
            # reachability span too: one traced clock read, not a pair.
            semantic_started = time.monotonic()
            if traced_reach:
                trace.add(PHASE_REACH, semantic_started - reach_started)
            try:
                search = searcher.tightest(
                    query.keywords,
                    item.key,
                    query_map,
                    looseness_threshold=threshold,
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
            top_k.consider(
                searcher.build_place(
                    query, item.key, item.point, distance, score, search
                )
            )
    except QueryTimeout:
        stats.timed_out = True

    places = _materialize(
        top_k.ranked(), searcher, query, query_map, stats, deadline, trace
    )
    stats.runtime_seconds = time.monotonic() - started
    return KSPResult(query=query, places=places, stats=stats, trace=trace)
