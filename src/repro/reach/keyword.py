"""Keyword reachability for Pruning Rule 1 (unqualified-place pruning).

Section 4.1: a place ``p`` is unqualified if some query keyword ``t`` is not
reachable from ``p``.  Probing every vertex containing ``t`` would need up
to ``df(t)`` reachability queries, so the paper augments the graph with one
artificial *terminal vertex per word*, with an edge from every vertex whose
document contains the word; one ``reach(p, v_t)`` query then decides the
keyword.  Keywords are probed rarest-first because infrequent keywords have
the highest chance of disqualifying a place.

The index is built over the SCC condensation of the augmented graph, with
exact pruned-landmark 2-hop labels by default (``method="pll"``) or
GRAIL interval labels with DFS fallback (``method="grail"``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.rdf.graph import RDFGraph
from repro.reach.condensation import Condensation
from repro.reach.grail import GrailIndex
from repro.reach.pll import PrunedLandmarkIndex


class KeywordReachabilityIndex:
    """Answers "can place p reach any vertex containing term t?" queries."""

    def __init__(
        self,
        graph: RDFGraph,
        vocabulary: Optional[Iterable[str]] = None,
        method: str = "pll",
        undirected: bool = False,
    ) -> None:
        if method not in ("pll", "grail"):
            raise ValueError("method must be 'pll' or 'grail'")
        self._graph = graph
        self._undirected = undirected
        base = graph.vertex_count

        if vocabulary is None:
            seen: Dict[str, int] = {}
            for vertex in graph.vertices():
                # Documents are frozensets: sort them so term numbering,
                # and with it the snapshot bytes, is hash-seed independent.
                for term in sorted(graph.document(vertex)):
                    if term not in seen:
                        seen[term] = base + len(seen)
            self._term_vertex = seen
        else:
            self._term_vertex = {
                term: base + offset for offset, term in enumerate(dict.fromkeys(vocabulary))
            }

        # Edges into each term vertex, indexed by (term vertex id - base).
        term_in: List[List[int]] = [[] for _ in range(len(self._term_vertex))]
        for vertex in graph.vertices():
            for term in sorted(graph.document(vertex)):
                slot = self._term_vertex.get(term)
                if slot is not None:
                    term_in[slot - base].append(vertex)
        self._term_in = term_in

        total = base + len(self._term_vertex)

        def successors(vertex: int) -> Iterable[int]:
            if vertex < base:
                if undirected:
                    yield from graph.out_neighbors(vertex)
                    yield from graph.in_neighbors(vertex)
                else:
                    yield from graph.out_neighbors(vertex)
                for term in sorted(graph.document(vertex)):
                    slot = self._term_vertex.get(term)
                    if slot is not None:
                        yield slot
            # Term vertices are sinks (no successors).

        self._condensation = Condensation(total, successors)
        if method == "pll":
            self._index = PrunedLandmarkIndex(
                self._condensation.out, self._condensation.into
            )
        else:
            self._index = GrailIndex(self._condensation.out)
        self.method = method
        self.queries_issued = 0
        # Set by the persistence layer instead of _term_in when restored.
        self._restored_term_in_total = None

    # ------------------------------------------------------------------

    def has_term(self, term: str) -> bool:
        return term in self._term_vertex

    def can_reach_term(self, vertex: int, term: str) -> bool:
        """Whether some vertex containing ``term`` is reachable from ``vertex``
        (a vertex whose own document contains the term counts)."""
        slot = self._term_vertex.get(term)
        if slot is None:
            return False
        self.queries_issued += 1
        source = self._condensation.node_of(vertex)
        target = self._condensation.node_of(slot)
        return self._index.reaches(source, target)

    def unreachable_keyword(
        self, vertex: int, keywords_rarest_first: Sequence[str]
    ) -> Optional[str]:
        """The first keyword (in the given order) that ``vertex`` cannot
        reach, or None when all are reachable.  Pass keywords rarest-first to
        match the paper's probing order."""
        for term in keywords_rarest_first:
            if not self.can_reach_term(vertex, term):
                return term
        return None

    def is_qualified(self, vertex: int, keywords_rarest_first: Sequence[str]) -> bool:
        """Rule 1 predicate: True when every query keyword is reachable."""
        return self.unreachable_keyword(vertex, keywords_rarest_first) is None

    def size_bytes(self) -> int:
        if self._restored_term_in_total is not None:
            term_in_total = self._restored_term_in_total
        else:
            term_in_total = sum(len(sources) for sources in self._term_in)
        return self._index.size_bytes() + 8 * term_in_total


class BFSReachability:
    """Index-free reference implementation used by the tests.

    Decides keyword reachability by a plain BFS that stops as soon as a
    vertex containing the keyword is found.  Exact but slow; the property
    tests check :class:`KeywordReachabilityIndex` against it.
    """

    def __init__(self, graph: RDFGraph, undirected: bool = False) -> None:
        self._graph = graph
        self._undirected = undirected

    def can_reach_term(self, vertex: int, term: str) -> bool:
        return any(
            term in self._graph.document(visited)
            for visited, _, _ in self._graph.bfs(vertex, undirected=self._undirected)
        )

    def is_qualified(self, vertex: int, keywords: Sequence[str]) -> bool:
        return all(self.can_reach_term(vertex, term) for term in keywords)
