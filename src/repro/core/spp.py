"""SPP — Semantic Place retrieval with Pruning (Section 4).

BSP plus the two pruning rules:

* **Rule 1 (unqualified-place pruning)** — before any TQSP construction,
  probe the keyword reachability index rarest-keyword-first and discard the
  place if some query keyword is unreachable.
* **Rule 2 (dynamic-bound pruning)** — construct the TQSP with Algorithm 3:
  compute the looseness threshold ``L_w`` (Definition 4) from the current
  k-th score and the place's spatial distance, and abort the BFS as soon as
  the Lemma 1 dynamic bound reaches it.

Survivors of Rule 2 are guaranteed to beat the current k-th candidate, so
they enter the result queue without a score re-check (the paper's remark
that Algorithm 1's line 12 becomes unnecessary).
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from repro.core.deadline import Deadline
from repro.core.query import KSPQuery, KSPResult, SemanticPlace
from repro.core.ranking import DEFAULT_RANKING, RankingFunction
from repro.core.semantic_place import SearchStatus, SemanticPlaceSearcher
from repro.core.stats import QueryStats, QueryTimeout
from repro.core.topk import TopKQueue
from repro.core.trace import PHASE_REACH, PHASE_RTREE, PHASE_TQSP, QueryTrace
from repro.rdf.graph import RDFGraph
from repro.reach.keyword import KeywordReachabilityIndex
from repro.spatial.rtree import RTree
from repro.text.inverted import build_query_map, order_rarest_first


def spp_search(
    graph: RDFGraph,
    rtree: RTree,
    inverted_index,
    reachability: KeywordReachabilityIndex,
    query: KSPQuery,
    ranking: RankingFunction = DEFAULT_RANKING,
    undirected: bool = False,
    timeout: Optional[float] = None,
    use_rule1: bool = True,
    use_rule2: bool = True,
    rule1_rarest_first: bool = True,
    runtime=None,
    trace: Optional[QueryTrace] = None,
) -> KSPResult:
    """Answer ``query`` with SPP.

    ``use_rule1`` / ``use_rule2`` / ``rule1_rarest_first`` exist for the
    ablation bench; all default on, which is the paper's SPP.
    ``runtime`` is the engine's CSR snapshot and TQSP cache;
    ``trace`` records the per-phase time breakdown.
    """
    stats = QueryStats(algorithm="SPP")
    started = time.monotonic()
    deadline = Deadline.resolve(timeout)

    query_map = build_query_map(inverted_index, query.keywords)
    rarest_first: Sequence[str] = (
        order_rarest_first(inverted_index, query.keywords)
        if rule1_rarest_first
        else list(query.keywords)
    )
    searcher = SemanticPlaceSearcher(graph, undirected=undirected, runtime=runtime)
    top_k: TopKQueue[SemanticPlace] = TopKQueue(query.k)
    cursor = rtree.nearest(query.location)

    try:
        while True:
            next_distance = cursor.peek_distance()
            if next_distance is None:
                break
            if ranking.distance_only_bound(next_distance) >= top_k.threshold:
                break
            if deadline is not None and deadline.expired():
                raise QueryTimeout()
            rtree_started = time.monotonic() if trace is not None else 0.0
            distance, entry = next(cursor)
            stats.places_retrieved += 1

            if use_rule1:
                # Each clock read ends one span and starts the next, so
                # tracing costs one read per phase boundary rather than
                # a start/stop pair per phase.
                if trace is not None:
                    reach_started = time.monotonic()
                    trace.add(PHASE_RTREE, reach_started - rtree_started)
                issued_before = reachability.queries_issued
                qualified = reachability.is_qualified(entry.key, rarest_first)
                stats.reachability_queries += (
                    reachability.queries_issued - issued_before
                )
                if not qualified:
                    if trace is not None:
                        trace.add(PHASE_REACH, time.monotonic() - reach_started)
                    stats.pruned_rule1 += 1
                    continue
            elif trace is not None:
                trace.add(PHASE_RTREE, time.monotonic() - rtree_started)

            threshold = (
                ranking.looseness_threshold(top_k.threshold, distance)
                if use_rule2
                else float("inf")
            )
            # For a qualified place the TQSP timestamp ends the
            # reachability span too.
            semantic_started = time.monotonic()
            if trace is not None and use_rule1:
                trace.add(PHASE_REACH, semantic_started - reach_started)
            try:
                search = searcher.tightest(
                    query.keywords,
                    entry.key,
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
                    query, entry.key, entry.point, distance, score, search
                )
            )
    except QueryTimeout:
        stats.timed_out = True

    stats.rtree_node_accesses = cursor.node_accesses
    stats.runtime_seconds = time.monotonic() - started
    return KSPResult(query=query, places=top_k.ranked(), stats=stats, trace=trace)
