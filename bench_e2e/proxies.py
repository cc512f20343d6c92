"""Timing proxies the traced run installs around each layer's public calls.

Everything here lives in the benchmark: the engine's own
``QueryOptions(trace=True)`` is not the source of any number.  A
:class:`Tracing` swaps an engine's public index attributes for proxies
and rebinds the names through which the search code reaches the TQSP
searcher, the CSR kernel and the request/statement parsers; leaving the
``with`` block puts every original back, so traced and untraced blocks
can alternate on one engine.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, List, Sequence, Tuple

from bench_e2e.spans import SpanRecorder


class _ReachProxy:
    """``KeywordReachabilityIndex`` with a span per Rule-1 probe batch."""

    def __init__(self, inner, recorder: SpanRecorder) -> None:
        self._inner = inner
        self._recorder = recorder

    @property
    def queries_issued(self) -> int:
        return self._inner.queries_issued

    def is_qualified(self, vertex, keywords_rarest_first) -> bool:
        inner = self._inner
        before = inner.queries_issued
        index = self._recorder.begin("reach.probe")
        try:
            return inner.is_qualified(vertex, keywords_rarest_first)
        finally:
            self._recorder.end(index, inner.queries_issued - before)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class _ViewProxy:
    """An alpha query view with a span per looseness-bound evaluation."""

    def __init__(self, inner, recorder: SpanRecorder) -> None:
        self._inner = inner
        self._recorder = recorder

    def place_looseness_bound(self, place: int) -> float:
        index = self._recorder.begin("alpha.bound")
        try:
            return self._inner.place_looseness_bound(place)
        finally:
            self._recorder.end(index)

    def node_looseness_bound(self, node_id: int) -> float:
        index = self._recorder.begin("alpha.bound")
        try:
            return self._inner.node_looseness_bound(node_id)
        finally:
            self._recorder.end(index)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class _AlphaProxy:
    """An alpha index whose ``query_view`` is timed and returns a proxy."""

    def __init__(self, inner, recorder: SpanRecorder) -> None:
        self._inner = inner
        self._recorder = recorder

    def query_view(self, keywords):
        index = self._recorder.begin("alpha.view")
        try:
            view = self._inner.query_view(keywords)
        finally:
            self._recorder.end(index)
        return _ViewProxy(view, self._recorder)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


def _timed(recorder: SpanRecorder, name: str, function: Callable, value=None) -> Callable:
    """``function`` inside a span; ``value(result)`` becomes the span's count."""

    def wrapper(*args, **kwargs):
        index = recorder.begin(name)
        result = None
        try:
            result = function(*args, **kwargs)
            return result
        finally:
            recorder.end(index, value(result) if value and result is not None else 0.0)

    return wrapper


#: ``(module, attribute, span name)`` of the names rebound while tracing.
_MODULE_CALLS = (
    ("repro.core.semantic_place", "csr_tightest", "rdf.bfs"),
    ("repro.serve.server", "parse_query_request", "serve.parse"),
    ("repro.sparql.plan", "parse_query", "sparql.parse"),
)
_SEARCHER_USERS = ("repro.core.sp", "repro.core.cursor")


class Tracing:
    """Context manager: proxies in on entry, originals back on exit.

    ``engines`` are the ``KSPEngine`` instances the harness built;
    ``calls`` adds ``(object, attribute, span name)`` entries wrapped the
    same way (``engine.query`` -> ``core.query``, a shard engine's
    ``query`` -> ``shard.exec-<i>``).
    """

    def __init__(
        self,
        recorder: SpanRecorder,
        engines: Sequence,
        calls: Sequence[Tuple[Any, str, str]] = (),
    ) -> None:
        from repro.core.semantic_place import SearchStatus, SemanticPlaceSearcher

        self._swaps: List[Tuple[Any, str, Any, bool]] = []

        class TracedSearcher(SemanticPlaceSearcher):
            def tightest(self, *args, **kwargs):
                index = recorder.begin("core.tqsp")
                pruned = 0.0
                try:
                    search = super().tightest(*args, **kwargs)
                    pruned = float(search.status is SearchStatus.PRUNED)
                    return search
                finally:
                    recorder.end(index, pruned)

        for module_name in _SEARCHER_USERS:
            self._plan(importlib.import_module(module_name), "SemanticPlaceSearcher", TracedSearcher)
        for module_name, attribute, span in _MODULE_CALLS:
            module = importlib.import_module(module_name)
            counter = (lambda search: search.vertices_visited) if span == "rdf.bfs" else None
            self._plan(module, attribute, _timed(recorder, span, getattr(module, attribute), counter))
        for engine in engines:
            if engine.reachability is not None:
                self._plan(engine, "reachability", _ReachProxy(engine.reachability, recorder))
            if engine.alpha_index is not None:
                self._plan(engine, "alpha_index", _AlphaProxy(engine.alpha_index, recorder))
            cache = engine.tqsp_cache
            if cache is not None:
                for attribute in ("lookup", "store"):
                    self._plan(
                        cache,
                        attribute,
                        _timed(recorder, "core.cache", getattr(cache, attribute)),
                        instance_method=True,
                    )
        for target, attribute, span in calls:
            self._plan(
                target,
                attribute,
                _timed(recorder, span, getattr(target, attribute)),
                instance_method=True,
            )

    def _plan(self, target, attribute: str, replacement, instance_method: bool = False) -> None:
        # A wrapper over a bound method lives in the instance dict and is
        # removed on exit; everything else is a plain attribute swap.
        original = None if instance_method else getattr(target, attribute)
        self._swaps.append((target, attribute, replacement, original))

    def __enter__(self) -> "Tracing":
        for target, attribute, replacement, _ in self._swaps:
            setattr(target, attribute, replacement)
        return self

    def __exit__(self, *exc_info) -> None:
        for target, attribute, _, original in self._swaps:
            if original is None:
                delattr(target, attribute)
            else:
                setattr(target, attribute, original)
