"""Graph traversal shared by the in-memory and the mmap'd snapshot graph stores.

Any class exposing ``vertex_count``, ``out_neighbors(v)`` and
``in_neighbors(v)`` gains BFS, shortest-path and weak-component methods by
mixing this in — the kSP algorithms only ever touch that protocol, so they
run unchanged over either store.
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from typing import Iterable, Iterator, List, Optional, Set, Tuple


class GraphTraversalMixin:
    """BFS-family operations over the adjacency protocol."""

    # Subclasses provide:
    #   vertex_count: int
    #   out_neighbors(vertex) -> Sequence[int]
    #   in_neighbors(vertex) -> Sequence[int]

    def bfs(
        self, start: int, undirected: bool = False
    ) -> Iterator[Tuple[int, int, int]]:
        """Breadth-first traversal from ``start``.

        Yields ``(vertex, distance, parent)`` in non-decreasing distance;
        the start vertex is reported first with distance 0 and parent -1.
        ``undirected=True`` follows edges in both directions — the paper's
        future-work variant where edge directions are disregarded.
        """
        if not 0 <= start < self.vertex_count:
            raise IndexError("no such vertex: %d" % start)
        # BFS touches vertices in frontier order, not file order — let
        # stores with an access-pattern hint (the snapshot's mmap
        # madvise) know not to read ahead.
        advise = getattr(self, "read_hint", None)
        if advise is not None:
            advise("random")
        seen = {start}
        queue = deque([(start, 0, -1)])
        while queue:
            vertex, distance, parent = queue.popleft()
            yield vertex, distance, parent
            neighbors: Iterable[int] = self.out_neighbors(vertex)
            if undirected:
                neighbors = chain(neighbors, self.in_neighbors(vertex))
            for neighbor in neighbors:
                if neighbor not in seen:
                    seen.add(neighbor)
                    queue.append((neighbor, distance + 1, vertex))

    def shortest_path_length(
        self, source: int, target: int, undirected: bool = False
    ) -> Optional[int]:
        """Hop count of the shortest directed path, or None if unreachable."""
        for vertex, distance, _ in self.bfs(source, undirected=undirected):
            if vertex == target:
                return distance
        return None

    def weakly_connected_components(self) -> List[List[int]]:
        """Vertex lists of the weakly connected components, largest first."""
        seen: Set[int] = set()
        components: List[List[int]] = []
        for root in range(self.vertex_count):
            if root in seen:
                continue
            component = []
            queue = deque([root])
            seen.add(root)
            while queue:
                vertex = queue.popleft()
                component.append(vertex)
                for neighbor in self.out_neighbors(vertex):
                    if neighbor not in seen:
                        seen.add(neighbor)
                        queue.append(neighbor)
                for neighbor in self.in_neighbors(vertex):
                    if neighbor not in seen:
                        seen.add(neighbor)
                        queue.append(neighbor)
            components.append(component)
        components.sort(key=len, reverse=True)
        return components
