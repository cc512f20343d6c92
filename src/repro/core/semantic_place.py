"""TQSP construction: GetSemanticPlace (Alg. 2) and its pruned variant
GetSemanticPlaceP (Alg. 3).

Both explore the RDF graph from the candidate place in BFS order, probing
each encountered vertex against the query map ``M_{q.psi}`` and removing
covered keywords from the outstanding set ``B``.  The pruned variant
additionally maintains the Lemma 1 dynamic lower bound
``LB = 1 + sum(d_g over covered) + d(p, v) * |B|`` and aborts as soon as it
meets the looseness threshold ``L_w`` (Pruning Rule 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.query import KSPQuery, SemanticPlace
from repro.core.runtime import TQSPRuntime
from repro.core.stats import QueryStats
from repro.rdf.csr import CSRAdjacency, csr_cominimal_covers, csr_tightest
from repro.rdf.graph import RDFGraph
from repro.spatial.geometry import Point

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (deadline -> stats)
    from repro.core.deadline import Deadline


class SearchStatus(Enum):
    """Outcome of one TQSP construction attempt."""

    COMPLETE = "complete"  # all keywords covered; looseness is exact
    UNQUALIFIED = "unqualified"  # BFS exhausted with keywords uncovered
    PRUNED = "pruned"  # aborted early by the dynamic bound (Rule 2)


@dataclass
class TQSPSearch:
    """Result of GetSemanticPlace(P): status plus reconstruction data."""

    status: SearchStatus
    looseness: float
    keyword_vertices: Dict[str, int] = field(default_factory=dict)
    parents: Dict[int, int] = field(default_factory=dict)
    vertices_visited: int = 0

    def path_to(self, vertex: int, root: int) -> Tuple[int, ...]:
        """The BFS shortest path root -> vertex, root first."""
        path = [vertex]
        while vertex != root:
            vertex = self.parents[vertex]
            path.append(vertex)
        path.reverse()
        return tuple(path)


class SemanticPlaceSearcher:
    """Constructs tightest qualified semantic places on one RDF graph.

    Every search runs on the CSR BFS kernel of ``runtime`` (a
    :class:`~repro.core.runtime.TQSPRuntime`), with its per-thread
    scratch buffers, and is memoized in the runtime's cross-query TQSP
    cache when it has one.  Without a runtime the searcher builds a
    cache-less one over a fresh CSR snapshot of ``graph``; timed callers
    pass the engine's runtime instead.
    """

    def __init__(
        self, graph: RDFGraph, undirected: bool = False, runtime=None
    ) -> None:
        if runtime is None:
            runtime = TQSPRuntime(CSRAdjacency.from_graph(graph))
        self._graph = graph
        self._undirected = undirected
        self._runtime = runtime

    @property
    def csr(self) -> CSRAdjacency:
        """The CSR snapshot every search of this searcher runs on."""
        return self._runtime.csr

    # ------------------------------------------------------------------

    def tightest(
        self,
        keywords: Sequence[str],
        place: int,
        query_map: Mapping[int, frozenset],
        looseness_threshold: float = math.inf,
        stats: Optional[QueryStats] = None,
        deadline: Optional["Deadline"] = None,
    ) -> TQSPSearch:
        """Construct the TQSP rooted at ``place``.

        With ``looseness_threshold`` left at ``+inf`` this is Algorithm 2;
        with a finite threshold it is Algorithm 3 (early abort when the
        dynamic bound reaches the threshold).  ``deadline`` is a
        :class:`~repro.core.deadline.Deadline` polled cooperatively during
        the BFS; on expiry :class:`~repro.core.stats.QueryTimeout`
        propagates to the calling algorithm, which returns its partial
        top-k.
        """
        runtime = self._runtime
        cache = runtime.cache
        if cache is not None:
            cache_key = cache.key(place, keywords, self._undirected)
            cached = cache.lookup(cache_key, looseness_threshold, stats=stats)
            if cached is not None:
                return cached
        search = csr_tightest(
            runtime.csr,
            runtime.scratch(),
            place,
            keywords,
            query_map,
            looseness_threshold=looseness_threshold,
            stats=stats,
            deadline=deadline,
            undirected=self._undirected,
        )
        if cache is not None:
            cache.store(cache_key, search, looseness_threshold)
        return search

    # ------------------------------------------------------------------

    def build_place(
        self,
        query: KSPQuery,
        place: int,
        location: Point,
        distance: float,
        score: float,
        search: TQSPSearch,
    ) -> SemanticPlace:
        """Materialize a :class:`SemanticPlace` from a COMPLETE search."""
        if search.status is not SearchStatus.COMPLETE:
            raise ValueError("cannot materialize an incomplete TQSP search")
        paths = {
            term: search.path_to(vertex, place)
            for term, vertex in search.keyword_vertices.items()
        }
        return SemanticPlace(
            root=place,
            root_label=self._graph.label(place),
            location=location,
            looseness=search.looseness,
            distance=distance,
            score=score,
            keyword_vertices=dict(search.keyword_vertices),
            paths=paths,
        )

    # ------------------------------------------------------------------

    def cominimal_covers(
        self,
        keywords: Sequence[str],
        place: int,
        query_map: Mapping[int, frozenset],
        deadline: Optional["Deadline"] = None,
    ) -> Optional[Dict[str, List[int]]]:
        """Tie-handling option (2) of Section 2, footnote 2.

        For each keyword, all vertices that cover it at the *minimal* graph
        distance from ``place``; every per-keyword choice yields a TQSP of
        the same (minimal) looseness.  Returns None when the place is
        unqualified.
        """
        runtime = self._runtime
        return csr_cominimal_covers(
            runtime.csr,
            runtime.scratch(),
            place,
            keywords,
            query_map,
            undirected=self._undirected,
            deadline=deadline,
        )
