"""The query-serving runtime: shared TQSP state for the searchers.

A :class:`TQSPRuntime` bundles what the engine builds once and every
query reuses:

* the :class:`~repro.rdf.csr.CSRAdjacency` snapshot the TQSP kernel
  runs on;
* the cross-query :class:`~repro.core.tqsp_cache.TQSPCache` (None when
  caching is disabled);
* per-thread :class:`~repro.rdf.csr.BFSScratch` buffers, handed out via
  ``threading.local`` so the batched executor's workers never contend
  on (or corrupt) each other's visited/parent arrays.

Algorithms thread an optional runtime through to
:class:`~repro.core.semantic_place.SemanticPlaceSearcher`; a searcher
given none builds a cache-less runtime over its own CSR snapshot.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Optional

from repro.rdf.csr import BFSScratch, CSRAdjacency

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cache -> semantic_place)
    from repro.core.tqsp_cache import TQSPCache


class TQSPRuntime:
    """Engine-owned bundle of CSR snapshot, cache and scratch buffers."""

    def __init__(
        self,
        csr: CSRAdjacency,
        cache: Optional[TQSPCache] = None,
    ) -> None:
        self.csr = csr
        self.cache = cache
        self._local = threading.local()

    def scratch(self) -> BFSScratch:
        """This thread's BFS scratch buffers (created on first use)."""
        scratch = getattr(self._local, "scratch", None)
        if scratch is None:
            scratch = BFSScratch(self.csr.vertex_count)
            self._local.scratch = scratch
        return scratch
