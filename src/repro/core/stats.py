"""Per-query execution statistics.

The paper reports three cost metrics per method: runtime split into
"semantic time" (TQSP construction) and "other time" (everything else,
dominated by reachability probes in SPP), the number of TQSP computations,
and the number of R-tree nodes accessed (Figures 3-4).  ``QueryStats``
collects all of them plus the pruning-rule hit counters used by the
ablation bench.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional


@dataclass
class QueryStats:
    """Counters filled in by the kSP algorithms while answering one query."""

    algorithm: str = ""
    runtime_seconds: float = 0.0
    semantic_seconds: float = 0.0  # time spent inside GetSemanticPlace*
    tqsp_computations: int = 0  # calls to GetSemanticPlace* that ran BFS
    rtree_node_accesses: int = 0
    vertices_visited: int = 0  # BFS pops across all TQSP constructions
    places_retrieved: int = 0  # places popped from the spatial source
    reachability_queries: int = 0
    pruned_rule1: int = 0  # unqualified-place pruning hits
    pruned_rule2: int = 0  # dynamic-bound early aborts
    pruned_rule3: int = 0  # alpha place-bound prunes
    pruned_rule4: int = 0  # alpha node-bound prunes
    unqualified_places: int = 0  # TQSP constructions that found no cover
    cache_hits: int = 0  # TQSP cache: exact COMPLETE/UNQUALIFIED reuses
    cache_misses: int = 0  # TQSP cache: lookups that ran a BFS
    cache_bound_reuses: int = 0  # TQSP cache: PRUNED lower-bound re-prunes
    timed_out: bool = False
    error: Optional[str] = None  # worker exception captured by the batch layer
    # Per-shard scatter-gather records (repro.shard.router): bound,
    # pruned/timed_out flags, contribution counts.  None for single-engine
    # queries, and omitted from the wire then — the single-engine wire
    # document (golden-pinned) is byte-identical with or without sharding
    # support compiled in.
    shards: Optional[List[Dict[str, object]]] = None

    @property
    def other_seconds(self) -> float:
        """Runtime outside TQSP construction (the paper's "other time")."""
        return max(0.0, self.runtime_seconds - self.semantic_seconds)

    @property
    def outcome(self) -> str:
        """One-word classification: ``"error"``, ``"timeout"`` or ``"ok"``.

        The flight recorder and the ``/v1/debug/queries`` outcome filter
        key on this, so the precedence (an errored query that also timed
        out counts as ``"error"``) is part of the debug contract.
        """
        if self.error is not None:
            return "error"
        if self.timed_out:
            return "timeout"
        return "ok"

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "QueryStats":
        """Rebuild stats from :meth:`as_dict` output.

        Derived keys (``other_seconds``) and unknown keys are ignored,
        so the wire schema can grow without breaking old clients.
        """
        field_names = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in field_names})

    def as_dict(self) -> Dict[str, object]:
        document: Dict[str, object] = {
            "algorithm": self.algorithm,
            "runtime_seconds": self.runtime_seconds,
            "semantic_seconds": self.semantic_seconds,
            "other_seconds": self.other_seconds,
            "tqsp_computations": self.tqsp_computations,
            "rtree_node_accesses": self.rtree_node_accesses,
            "vertices_visited": self.vertices_visited,
            "places_retrieved": self.places_retrieved,
            "reachability_queries": self.reachability_queries,
            "pruned_rule1": self.pruned_rule1,
            "pruned_rule2": self.pruned_rule2,
            "pruned_rule3": self.pruned_rule3,
            "pruned_rule4": self.pruned_rule4,
            "unqualified_places": self.unqualified_places,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_bound_reuses": self.cache_bound_reuses,
            "timed_out": self.timed_out,
            "error": self.error,
        }
        if self.shards is not None:
            document["shards"] = self.shards
        return document


@dataclass
class AggregateStats:
    """Averages over a batch of queries (one bench data point)."""

    samples: List[QueryStats] = field(default_factory=list)

    def add(self, stats: QueryStats) -> None:
        self.samples.append(stats)

    def _mean(self, attribute: str) -> float:
        if not self.samples:
            return 0.0
        return sum(getattr(s, attribute) for s in self.samples) / len(self.samples)

    def total(self, attribute: str) -> float:
        """Sum of one counter over the batch (e.g. ``"cache_hits"``)."""
        return sum(getattr(s, attribute) for s in self.samples)

    @property
    def mean_runtime_ms(self) -> float:
        return 1000.0 * self._mean("runtime_seconds")

    @property
    def mean_semantic_ms(self) -> float:
        return 1000.0 * self._mean("semantic_seconds")

    @property
    def mean_other_ms(self) -> float:
        return max(0.0, self.mean_runtime_ms - self.mean_semantic_ms)

    @property
    def mean_tqsp_computations(self) -> float:
        return self._mean("tqsp_computations")

    @property
    def mean_rtree_node_accesses(self) -> float:
        return self._mean("rtree_node_accesses")

    @property
    def timeout_count(self) -> int:
        return sum(1 for s in self.samples if s.timed_out)

    @property
    def error_count(self) -> int:
        return sum(1 for s in self.samples if s.error is not None)

    def runtime_percentile_ms(self, percentile: float) -> float:
        """Linear-interpolated runtime percentile in milliseconds.

        ``percentile`` is in [0, 100]; 50 gives the median.  Latency
        distributions of graph search are heavy-tailed, so benches report
        p50/p95 alongside means.
        """
        if not 0.0 <= percentile <= 100.0:
            raise ValueError("percentile must be within [0, 100]")
        if not self.samples:
            return 0.0
        values = sorted(1000.0 * s.runtime_seconds for s in self.samples)
        if len(values) == 1:
            return values[0]
        rank = (percentile / 100.0) * (len(values) - 1)
        low = int(rank)
        high = min(low + 1, len(values) - 1)
        fraction = rank - low
        return values[low] + fraction * (values[high] - values[low])

    def __len__(self) -> int:
        return len(self.samples)


class QueryTimeout(Exception):
    """Raised when a query exceeds its deadline.

    Mirrors the paper's protocol of aborting BSP queries after 120 seconds
    (Section 6.2); the bench harness catches it and records the query as
    timed out at the cap.
    """
