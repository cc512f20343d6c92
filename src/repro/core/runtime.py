"""The query-serving runtime: shared fast-path state for the searchers.

A :class:`TQSPRuntime` bundles what the engine builds once and every
query reuses:

* the :class:`~repro.rdf.csr.CSRAdjacency` snapshot (None when the
  engine is configured for the generator fallback);
* the cross-query :class:`~repro.core.tqsp_cache.TQSPCache` (None when
  caching is disabled);
* per-thread :class:`~repro.rdf.csr.BFSScratch` buffers, handed out via
  ``threading.local`` so the batched executor's workers never contend
  on (or corrupt) each other's visited/parent arrays.

Algorithms thread an optional runtime through to
:class:`~repro.core.semantic_place.SemanticPlaceSearcher`; passing None
everywhere reproduces the seed execution path exactly.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.core.tqsp_cache import TQSPCache
from repro.rdf.csr import BFSScratch, CSRAdjacency


class TQSPRuntime:
    """Engine-owned bundle of CSR snapshot, cache and scratch buffers."""

    def __init__(
        self,
        csr: Optional[CSRAdjacency] = None,
        cache: Optional[TQSPCache] = None,
    ) -> None:
        self.csr = csr
        self.cache = cache
        self._local = threading.local()

    def scratch(self) -> BFSScratch:
        """This thread's BFS scratch buffers (created on first use)."""
        scratch = getattr(self._local, "scratch", None)
        if scratch is None:
            capacity = self.csr.vertex_count if self.csr is not None else 0
            scratch = BFSScratch(capacity)
            self._local.scratch = scratch
        return scratch
