"""The top-k candidate queue shared by all kSP algorithms.

Holds at most ``k`` candidates ordered by ranking score; ``threshold``
is the score of the current k-th candidate (``+inf`` while fewer than ``k``
candidates exist), the value every pruning rule compares against.  Ties are
broken by root vertex id so results are deterministic: of two candidates
with one score, the lower root ranks first, and :meth:`TopKQueue.admits`
is the test a pruning rule must use to respect that order.
"""

from __future__ import annotations

import heapq
import math
from typing import Generic, List, Protocol, Tuple, TypeVar


class Ranked(Protocol):
    """What the queue orders by: a ranking score and a root vertex id."""

    @property
    def score(self) -> float: ...

    @property
    def root(self) -> int: ...


T = TypeVar("T", bound=Ranked)


class TopKQueue(Generic[T]):
    """A bounded max-heap keeping the k best (lowest-score) candidates."""

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("k must be positive")
        self._k = k
        # Python heapq is a min-heap; store negated keys to evict the worst.
        self._heap: List[Tuple[float, int, T]] = []

    @property
    def threshold(self) -> float:
        """The ranking score of the k-th candidate found so far (theta)."""
        if len(self._heap) < self._k:
            return math.inf
        return -self._heap[0][0]

    def admits(self, score: float, root: int) -> bool:
        """Whether a candidate ``(score, root)`` would enter the top-k now.

        Unlike ``score < threshold`` this lets a candidate that ties the
        k-th score in but outranks it by root id."""
        if len(self._heap) < self._k:
            return True
        worst = self._heap[0]
        return (-score, -root) > (worst[0], worst[1])

    def consider(self, place: T) -> bool:
        """Offer a candidate; returns True when it entered the top-k."""
        if not self.admits(place.score, place.root):
            return False
        entry = (-place.score, -place.root, place)
        if len(self._heap) < self._k:
            heapq.heappush(self._heap, entry)
        else:
            heapq.heapreplace(self._heap, entry)
        return True

    def __len__(self) -> int:
        return len(self._heap)

    def ranked(self) -> List[T]:
        """Candidates in final order: ascending score, then root id."""
        return [
            place
            for _, _, place in sorted(
                self._heap, key=lambda item: (-item[0], -item[1])
            )
        ]
