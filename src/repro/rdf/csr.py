"""Flat-array CSR adjacency snapshot and the TQSP BFS kernel.

The kSP algorithms bottom out in ``GetSemanticPlace`` — one BFS per
candidate place per query.  The generator in
:mod:`repro.rdf.traversal` allocates a ``seen`` set, a deque and one
``(vertex, distance, parent)`` tuple per visit; at serving rates that
allocation traffic dominates.  This module provides the tight loop that
every TQSP construction runs on:

* :class:`CSRAdjacency` — a compressed-sparse-row snapshot of any graph
  exposing the adjacency protocol, stored as four flat ``array`` module
  int arrays (offsets + targets, out and in).  Built once per engine.
* :class:`BFSScratch` — reusable per-searcher buffers: an epoch-tagged
  visited array (no clearing between searches), a parent array and two
  frontier lists.  One instance per worker thread.
* :func:`csr_tightest` / :func:`csr_cominimal_covers` — level-
  synchronous BFS over the snapshot.  They visit vertices in exactly the
  order of a FIFO BFS over the graph's adjacency lists (frontier order
  is FIFO order), so they return what the exhaustive oracle's own
  generator-based search (:mod:`repro.core.exhaustive`) returns; only
  the allocation profile differs.
* :func:`csr_distance_field` — the reverse direction: one
  level-synchronous BFS over in-edges from every holder of a term gives
  ``d(v, t)`` for all vertices at once, in a ``bytearray`` of hop
  counts (:data:`FIELD_UNREACHED` where ``t`` is out of reach).  SP
  switches to it once its forward searches have cost as much as one
  field per query keyword.

Every engine owns one snapshot: a built engine materializes the arrays,
an engine opened from a snapshot file wraps the mapped ``graph.*``
sections instead.
"""

from __future__ import annotations

import math
from array import array
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

_DEADLINE_CHECK_INTERVAL = 1024

#: The byte :func:`csr_distance_field` leaves on vertices from which no
#: source is reachable; reached vertices hold their hop distance, 0..254.
FIELD_UNREACHED = 255

# Epoch tags are unsigned 32-bit; roll the visited array over before the
# counter wraps so stale tags can never alias a live epoch.
_EPOCH_LIMIT = 2**32 - 1


class CSRAdjacency:
    """Compressed-sparse-row snapshot of a directed graph.

    ``out_index``/``in_index`` hold ``vertex_count + 1`` prefix offsets
    into ``out_targets``/``in_targets``; the neighbors of ``v`` are the
    slice ``targets[index[v]:index[v + 1]]``, preserving the source
    graph's adjacency order (BFS visit order is therefore preserved).
    """

    __slots__ = (
        "vertex_count",
        "out_index",
        "out_targets",
        "in_index",
        "in_targets",
        "_reverse",
    )

    def __init__(
        self,
        vertex_count: int,
        out_index: array,
        out_targets: array,
        in_index: array,
        in_targets: array,
    ) -> None:
        self.vertex_count = vertex_count
        self.out_index = out_index
        self.out_targets = out_targets
        self.in_index = in_index
        self.in_targets = in_targets
        # Predecessor tuples for csr_distance_field, per ``undirected``;
        # built on first use.
        self._reverse: List[Optional[List[Tuple[int, ...]]]] = [None, None]

    @classmethod
    def from_graph(cls, graph) -> "CSRAdjacency":
        """Snapshot any object with ``vertex_count`` and
        ``out_neighbors(v)`` / ``in_neighbors(v)``."""
        vertex_count = graph.vertex_count
        out_index = array("q", [0])
        out_targets = array("i")
        in_index = array("q", [0])
        in_targets = array("i")
        for vertex in range(vertex_count):
            out_targets.extend(graph.out_neighbors(vertex))
            out_index.append(len(out_targets))
            in_targets.extend(graph.in_neighbors(vertex))
            in_index.append(len(in_targets))
        return cls(vertex_count, out_index, out_targets, in_index, in_targets)

    def out_neighbors(self, vertex: int) -> array:
        return self.out_targets[self.out_index[vertex] : self.out_index[vertex + 1]]

    def in_neighbors(self, vertex: int) -> array:
        return self.in_targets[self.in_index[vertex] : self.in_index[vertex + 1]]

    def reverse_lists(self, undirected: bool = False) -> List[Tuple[int, ...]]:
        """Per vertex, the vertices one reverse BFS step reaches: its
        in-neighbours, plus its out-neighbours when ``undirected``."""
        lists = self._reverse[undirected]
        if lists is None:
            # One int object per vertex, shared by every tuple naming it
            # rather than one per edge: 1.0 MB instead of 1.6 at 8 000.
            shared = list(range(self.vertex_count)).__getitem__
            in_index, in_targets = self.in_index, self.in_targets
            out_index, out_targets = self.out_index, self.out_targets
            lists = [
                tuple(map(shared, in_targets[in_index[vertex] : in_index[vertex + 1]]))
                + (
                    tuple(map(shared, out_targets[out_index[vertex] : out_index[vertex + 1]]))
                    if undirected
                    else ()
                )
                for vertex in range(self.vertex_count)
            ]
            self._reverse[undirected] = lists
        return lists

    def size_bytes(self) -> int:
        return (
            self.out_index.itemsize * len(self.out_index)
            + self.out_targets.itemsize * len(self.out_targets)
            + self.in_index.itemsize * len(self.in_index)
            + self.in_targets.itemsize * len(self.in_targets)
        )


class BFSScratch:
    """Reusable BFS working memory for one searcher thread.

    ``visited`` is epoch-tagged: a vertex counts as visited in the
    current search iff ``visited[v] == epoch``, so starting a new search
    is an integer increment, not an O(V) clear.
    """

    __slots__ = ("capacity", "epoch", "visited", "parent", "frontier", "next_frontier")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.epoch = 0
        self.visited = array("L", bytes(array("L").itemsize * capacity))
        self.parent = array("i", bytes(4 * capacity))
        self.frontier: List[int] = []
        self.next_frontier: List[int] = []

    def ensure(self, capacity: int) -> None:
        if capacity > self.capacity:
            grow = capacity - self.capacity
            self.visited.extend([0] * grow)
            self.parent.extend([0] * grow)
            self.capacity = capacity

    def next_epoch(self) -> int:
        self.epoch += 1
        if self.epoch >= _EPOCH_LIMIT:
            for index in range(len(self.visited)):
                self.visited[index] = 0
            self.epoch = 1
        return self.epoch


def _extract_parents(
    parent: array, keyword_vertices: Mapping[str, int], root: int
) -> Dict[int, int]:
    """Parent chains from each keyword vertex back to the root — the only
    part of the parent array that path reconstruction needs."""
    parents: Dict[int, int] = {root: -1}
    for vertex in keyword_vertices.values():
        # repro-lint: allow[RL002] bounded: walks one already-built parent chain, <= BFS depth steps
        while vertex not in parents:
            parents[vertex] = parent[vertex]
            vertex = parent[vertex]
    return parents


def csr_tightest(
    csr: CSRAdjacency,
    scratch: BFSScratch,
    place: int,
    keywords: Sequence[str],
    query_map: Mapping[int, frozenset],
    looseness_threshold: float = math.inf,
    stats=None,
    deadline=None,
    undirected: bool = False,
):
    """GetSemanticPlace(P) on the CSR snapshot.

    Level-synchronous BFS probing vertices in FIFO BFS order; returns a
    :class:`~repro.core.semantic_place.TQSPSearch` (status, looseness,
    keyword vertices, parent chains).

    ``deadline`` is a :class:`~repro.core.deadline.Deadline` (or any
    object with ``check()``), polled cooperatively every
    ``_DEADLINE_CHECK_INTERVAL`` visits and at every BFS level boundary;
    ``check()`` raises :class:`~repro.core.stats.QueryTimeout` on expiry
    and the calling algorithm returns its best-so-far partial top-k.
    """
    from repro.core.semantic_place import SearchStatus, TQSPSearch

    if not 0 <= place < csr.vertex_count:
        raise IndexError("no such vertex: %d" % place)
    outstanding = set(keywords)
    if not outstanding:
        raise ValueError("TQSP construction needs at least one keyword")
    covered_sum = 0.0
    keyword_vertices: Dict[str, int] = {}
    visited_count = 0

    scratch.ensure(csr.vertex_count)
    epoch = scratch.next_epoch()
    visited = scratch.visited
    parent = scratch.parent
    out_index, out_targets = csr.out_index, csr.out_targets
    in_index, in_targets = csr.in_index, csr.in_targets
    get_matched = query_map.get

    frontier = scratch.frontier
    next_frontier = scratch.next_frontier
    frontier.clear()
    next_frontier.clear()
    frontier.append(place)
    visited[place] = epoch
    parent[place] = -1
    distance = 0

    while frontier:
        if deadline is not None:
            deadline.check()
        for vertex in frontier:
            visited_count += 1
            if (
                deadline is not None
                and visited_count % _DEADLINE_CHECK_INTERVAL == 0
            ):
                deadline.check()
            # Lemma 1 dynamic bound (Pruning Rule 2).
            if 1.0 + covered_sum + distance * len(outstanding) >= looseness_threshold:
                if stats is not None:
                    stats.vertices_visited += visited_count
                    stats.pruned_rule2 += 1
                return TQSPSearch(
                    SearchStatus.PRUNED, math.inf, vertices_visited=visited_count
                )
            matched = get_matched(vertex)
            if matched:
                hits = outstanding & matched
                if hits:
                    covered_sum += len(hits) * distance
                    for term in hits:
                        keyword_vertices[term] = vertex
                    outstanding -= hits
                    if not outstanding:
                        if stats is not None:
                            stats.vertices_visited += visited_count
                        return TQSPSearch(
                            SearchStatus.COMPLETE,
                            1.0 + covered_sum,
                            keyword_vertices,
                            _extract_parents(parent, keyword_vertices, place),
                            vertices_visited=visited_count,
                        )
        for vertex in frontier:
            for index in range(out_index[vertex], out_index[vertex + 1]):
                neighbor = out_targets[index]
                if visited[neighbor] != epoch:
                    visited[neighbor] = epoch
                    parent[neighbor] = vertex
                    next_frontier.append(neighbor)
            if undirected:
                for index in range(in_index[vertex], in_index[vertex + 1]):
                    neighbor = in_targets[index]
                    if visited[neighbor] != epoch:
                        visited[neighbor] = epoch
                        parent[neighbor] = vertex
                        next_frontier.append(neighbor)
        frontier, next_frontier = next_frontier, frontier
        next_frontier.clear()
        distance += 1

    # Keep the swapped lists attached to the scratch for reuse.
    scratch.frontier, scratch.next_frontier = frontier, next_frontier
    if stats is not None:
        stats.vertices_visited += visited_count
        stats.unqualified_places += 1
    return TQSPSearch(
        SearchStatus.UNQUALIFIED, math.inf, vertices_visited=visited_count
    )


def csr_distance_field(
    csr: CSRAdjacency,
    sources: Iterable[int],
    undirected: bool = False,
    stats=None,
    deadline=None,
) -> Optional[bytearray]:
    """``d(v, t)`` for every vertex ``v``, where ``sources`` holds ``t``.

    A level-synchronous BFS from all ``sources`` at once along in-edges
    (in- and out-edges when ``undirected``): the level at which it
    first reaches ``v`` is the hop length of the shortest forward path
    from ``v`` to any source, exactly what the forward search of
    :func:`csr_tightest` measures from ``v``.  Vertices it never reaches
    keep :data:`FIELD_UNREACHED`.  Returns None when some vertex lies
    further than a byte can say (254 hops).

    Every reached vertex counts once into ``stats.vertices_visited``;
    ``deadline`` is polled once per level.
    """
    field = bytearray(b"\xff") * csr.vertex_count
    frontier: List[int] = []
    for vertex in sources:
        if field[vertex] == FIELD_UNREACHED:
            field[vertex] = 0
            frontier.append(vertex)
    reverse = csr.reverse_lists(undirected)
    visited_count = 0
    level = 0
    while frontier:
        if deadline is not None:
            deadline.check()
        visited_count += len(frontier)
        level += 1
        next_frontier: List[int] = []
        for vertex in frontier:
            for neighbor in reverse[vertex]:
                if field[neighbor] == FIELD_UNREACHED:
                    field[neighbor] = level
                    next_frontier.append(neighbor)
        frontier = next_frontier
        if frontier and level == FIELD_UNREACHED:
            break  # these vertices lie 255 hops out, past a byte's range
    if stats is not None:
        stats.vertices_visited += visited_count
    return None if frontier else field


def csr_cominimal_covers(
    csr: CSRAdjacency,
    scratch: BFSScratch,
    place: int,
    keywords: Sequence[str],
    query_map: Mapping[int, frozenset],
    undirected: bool = False,
    deadline=None,
) -> Optional[Dict[str, List[int]]]:
    """Co-minimal covers (Section 2, footnote 2) on the CSR snapshot.

    For each keyword, every vertex covering it at the minimal BFS
    distance from ``place``; None when some keyword is out of reach.
    Backs :meth:`~repro.core.semantic_place.SemanticPlaceSearcher.
    cominimal_covers`."""
    if not 0 <= place < csr.vertex_count:
        raise IndexError("no such vertex: %d" % place)
    best_distance: Dict[str, int] = {}
    covers: Dict[str, List[int]] = {term: [] for term in keywords}
    outstanding = set(keywords)
    frontier_done = -1

    scratch.ensure(csr.vertex_count)
    epoch = scratch.next_epoch()
    visited = scratch.visited
    out_index, out_targets = csr.out_index, csr.out_targets
    in_index, in_targets = csr.in_index, csr.in_targets

    frontier = scratch.frontier
    next_frontier = scratch.next_frontier
    frontier.clear()
    next_frontier.clear()
    frontier.append(place)
    visited[place] = epoch
    distance = 0

    while frontier:
        if deadline is not None:
            deadline.check()
        if not outstanding and distance > frontier_done:
            break
        for vertex in frontier:
            matched = query_map.get(vertex)
            if not matched:
                continue
            for term in matched:
                if term not in covers:
                    continue
                recorded = best_distance.get(term)
                if recorded is None:
                    best_distance[term] = distance
                    covers[term].append(vertex)
                    outstanding.discard(term)
                    if not outstanding:
                        # Finish the current BFS level so every equally-near
                        # cover of the last keyword is collected.
                        frontier_done = distance
                elif recorded == distance:
                    covers[term].append(vertex)
        for vertex in frontier:
            for index in range(out_index[vertex], out_index[vertex + 1]):
                neighbor = out_targets[index]
                if visited[neighbor] != epoch:
                    visited[neighbor] = epoch
                    next_frontier.append(neighbor)
            if undirected:
                for index in range(in_index[vertex], in_index[vertex + 1]):
                    neighbor = in_targets[index]
                    if visited[neighbor] != epoch:
                        visited[neighbor] = epoch
                        next_frontier.append(neighbor)
        frontier, next_frontier = next_frontier, frontier
        next_frontier.clear()
        distance += 1

    scratch.frontier, scratch.next_frontier = frontier, next_frontier
    if outstanding:
        return None
    return covers
