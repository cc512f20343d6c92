"""The frozen public configuration surface of the kSP engine.

Two immutable dataclasses replace the kwarg sprawl that accumulated
across ``KSPEngine.__init__``, the ``from_*`` constructors, ``load``,
``query``/``run``, ``query_batch`` and ``cursor``:

* :class:`EngineConfig` — everything decided once per engine (index
  construction knobs, the TQSP cache, the default ranking and batch
  worker count).  Accepted by every constructor; hashable and
  ``replace``-able, so deployments can derive variants.
* :class:`QueryOptions` — everything decided per query (``k``, the
  evaluation method, ranking, deadline, tracing, request id).  One
  options object flows unchanged through ``query``, ``query_batch``,
  ``cursor`` and the HTTP serving layer.

The pre-redesign keyword spellings (and the ``fold_legacy_kwargs``
shim that kept them alive for one deprecation cycle) are gone: stray
kwargs now raise :class:`TypeError` like any other bad argument.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Union

from repro.core.deadline import Deadline
from repro.core.ranking import DEFAULT_RANKING, RankingFunction


@dataclass(frozen=True)
class EngineConfig:
    """Per-engine configuration (construction and serving defaults).

    Parameters mirror the historic ``KSPEngine.__init__`` kwargs:

    alpha:
        Radius of the word neighborhoods (paper default 3).
    rtree_max_entries:
        R-tree node capacity.
    build_reachability / build_alpha:
        Disable to skip the respective preprocessing (then only the
        algorithms that do not need the index can run).
    reach_method:
        Reachability labelling backend (``"pll"`` or ``"grail"``).
    undirected:
        Treat edges as undirected everywhere (the paper's future-work
        variant).
    tqsp_cache_size:
        Capacity of the cross-query TQSP result cache; 0 disables it.
    ranking:
        Default :class:`~repro.core.ranking.RankingFunction` applied
        when a query does not override it.
    workers:
        Default thread count for :meth:`KSPEngine.query_batch`.
    flight_recorder_size:
        Ring-buffer capacity of the always-on flight recorder (one
        record per completed query, served by ``/v1/debug/queries``).
    """

    alpha: int = 3
    rtree_max_entries: int = 32
    build_reachability: bool = True
    build_alpha: bool = True
    reach_method: str = "pll"
    undirected: bool = False
    tqsp_cache_size: int = 4096
    ranking: RankingFunction = DEFAULT_RANKING
    workers: int = 4
    flight_recorder_size: int = 256

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if self.rtree_max_entries < 2:
            raise ValueError("rtree_max_entries must be at least 2")
        if self.reach_method not in ("pll", "grail"):
            raise ValueError("reach_method must be 'pll' or 'grail'")
        if self.tqsp_cache_size < 0:
            raise ValueError("tqsp_cache_size must be non-negative")
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if self.flight_recorder_size < 1:
            raise ValueError("flight_recorder_size must be positive")

    def replace(self, **changes) -> "EngineConfig":
        """A copy with ``changes`` applied (``dataclasses.replace``)."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class QueryOptions:
    """Per-query execution options, shared by every entry point.

    ``method`` and ``ranking`` of ``None`` defer to the engine's
    defaults (``"sp"`` and ``EngineConfig.ranking``).  ``timeout``
    accepts either seconds or a pre-built
    :class:`~repro.core.deadline.Deadline`, so one deadline can bound a
    whole pipeline (admission wait + query execution in the server).
    ``request_id`` tags the result, the slow-query log and the trace —
    the serving layer threads its wire request id through here.
    ``trace_id`` is the W3C trace-context trace id (32 hex digits) when
    the request arrived with a ``traceparent`` header; it rides along
    into :class:`~repro.core.query.KSPResult` and the flight recorder
    so exported traces correlate with the caller's distributed trace.
    """

    k: int = 5
    method: Optional[str] = None
    ranking: Optional[RankingFunction] = None
    timeout: Optional[Union[float, Deadline]] = None
    trace: bool = False
    request_id: Optional[str] = None
    trace_id: Optional[str] = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be positive")

    def replace(self, **changes) -> "QueryOptions":
        """A copy with ``changes`` applied (``dataclasses.replace``)."""
        return dataclasses.replace(self, **changes)
