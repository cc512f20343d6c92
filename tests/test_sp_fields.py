"""SP's second plan: reverse distance fields after the forward-BFS budget.

Once SP's forward searches have popped ``|q| * V`` vertices it builds one
``d(., t)`` field per query keyword and scores every later place from
them.  These tests hold the field kernel to per-vertex forward BFS, and
the switched SP to the exhaustive answer and to the forward-only SP
answer field by field — keyword vertices and paths included.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import given, settings

from repro.core import sp as sp_module
from repro.core.config import EngineConfig
from repro.core.engine import KSPEngine
from repro.core.exhaustive import exhaustive_search
from repro.core.query import KSPQuery, SemanticPlace
from repro.core.stats import QueryStats
from repro.rdf.csr import FIELD_UNREACHED, CSRAdjacency, csr_distance_field
from repro.rdf.graph import RDFGraph
from repro.spatial.geometry import Point

from tests.test_batch_robustness import ExpireAfterChecks
from tests.test_random_agreement import TERMS, queries, random_graphs


def forward_distance(graph: RDFGraph, start: int, sources, undirected: bool) -> int:
    for vertex, distance, _ in graph.bfs(start, undirected=undirected):
        if vertex in sources:
            return distance
    return FIELD_UNREACHED


def switch_at_first_place():
    """Every SP query builds its fields before its first place."""
    return mock.patch.object(sp_module, "field_budget", lambda query, vertices: 0)


def never_switch():
    return mock.patch.object(sp_module, "field_budget", lambda query, vertices: 1 << 62)


def chain(length: int) -> RDFGraph:
    graph = RDFGraph()
    for index in range(length):
        document = frozenset({"aa"}) if index == length - 1 else frozenset()
        graph.add_vertex("c%d" % index, document=document)
    for index in range(length - 1):
        graph.add_edge(index, index + 1)
    return graph


def fan_in(places: int, hops: int) -> RDFGraph:
    """``places`` places, each one edge into a chain whose last of
    ``hops`` vertices holds ``aa``: every forward search pops
    ``hops + 1`` vertices, so the ``|q| * V`` budget is spent after
    ``(places + hops) / (hops + 1)`` places."""
    graph = RDFGraph()
    for index in range(hops):
        document = frozenset({"aa"}) if index == hops - 1 else frozenset()
        graph.add_vertex("c%d" % index, document=document)
    for index in range(hops - 1):
        graph.add_edge(index, index + 1)
    for index in range(places):
        vertex = graph.add_vertex(
            "p%d" % index, location=Point(float(index + 1), 0.5 * index)
        )
        graph.add_edge(vertex, 0)
    return graph


class TestDistanceField:
    @given(random_graphs())
    @settings(max_examples=40, deadline=None)
    def test_matches_forward_bfs_per_vertex(self, graph):
        csr = CSRAdjacency.from_graph(graph)
        for undirected in (False, True):
            for term in TERMS:
                sources = {
                    vertex
                    for vertex in range(graph.vertex_count)
                    if term in graph.document(vertex)
                }
                field = csr_distance_field(csr, sorted(sources), undirected=undirected)
                assert field is not None
                assert list(field) == [
                    forward_distance(graph, vertex, sources, undirected)
                    for vertex in range(graph.vertex_count)
                ]

    def test_counts_reached_vertices_into_stats(self):
        graph = chain(5)
        graph.add_vertex("island")
        stats = QueryStats()
        field = csr_distance_field(CSRAdjacency.from_graph(graph), [4], stats=stats)
        assert list(field) == [4, 3, 2, 1, 0, FIELD_UNREACHED]
        assert stats.vertices_visited == 5

    def test_distance_past_a_byte_gives_none(self):
        deepest = chain(255)  # d(c0, aa) == 254 still fits
        field = csr_distance_field(CSRAdjacency.from_graph(deepest), [254])
        assert field is not None and field[0] == 254
        assert csr_distance_field(CSRAdjacency.from_graph(chain(256)), [255]) is None

    def test_sp_falls_back_to_forward_search_when_a_field_overflows(self):
        graph = chain(300)
        place = graph.add_vertex("p", location=Point(1.0, 1.0))
        graph.add_edge(place, 0)
        engine = KSPEngine(graph, EngineConfig(alpha=2))
        query = KSPQuery(Point(0.0, 0.0), ("aa",), k=1)
        with switch_at_first_place():
            result = engine.query(query, method="sp")
        assert [(p.root, p.looseness) for p in result] == [(place, 301.0)]
        assert result.stats.reachability_queries == 1


class TestSwitchedSP:
    @given(random_graphs(), queries)
    @settings(max_examples=60, deadline=None)
    def test_switched_sp_matches_exhaustive_and_forward_sp(self, graph, query_spec):
        keywords, k, x, y = query_spec
        query = KSPQuery(location=Point(x, y), keywords=tuple(keywords), k=k)
        for undirected in (False, True):
            engine = KSPEngine(graph, EngineConfig(alpha=2, undirected=undirected))
            reference = exhaustive_search(
                graph, engine.inverted_index, query, undirected=undirected
            )
            with never_switch():
                forward = engine.query(query, method="sp")
            with switch_at_first_place():
                switched = engine.query(query, method="sp")
            assert [(p.root, round(p.score, 9)) for p in switched] == [
                (p.root, round(p.score, 9)) for p in reference
            ]
            # SemanticPlace equality covers root, scores, looseness,
            # keyword_vertices and paths.
            assert switched.places == forward.places
            assert switched.stats.reachability_queries == 0
            assert switched.stats.tqsp_computations <= k

    def test_switch_fires_at_the_budget(self):
        graph = fan_in(places=40, hops=20)
        engine = KSPEngine(graph, EngineConfig(alpha=2, tqsp_cache_size=0))
        query = KSPQuery(Point(0.0, 0.0), ("aa",), k=5)
        switched = engine.query(query, method="sp")
        with never_switch():
            forward = engine.query(query, method="sp")
        reference = exhaustive_search(graph, engine.inverted_index, query)
        assert switched.places == forward.places
        assert [(p.root, p.score) for p in switched] == [
            (p.root, p.score) for p in reference
        ]
        # Both plans take the same decisions, so they retrieve the same places.
        retrieved = forward.stats.places_retrieved
        assert switched.stats.places_retrieved == retrieved > 10
        # V = 60 and 21 pops per forward search: three searches spend the
        # budget, and no later place costs a reachability probe.
        assert forward.stats.reachability_queries == retrieved
        assert switched.stats.reachability_queries == 3
        # Three forward searches, then at most k to build the answer.
        assert switched.stats.tqsp_computations <= 3 + query.k
        assert switched.stats.vertices_visited < forward.stats.vertices_visited

    def test_deadline_after_the_switch_returns_only_built_places(self):
        graph = fan_in(places=40, hops=20)
        engine = KSPEngine(graph, EngineConfig(alpha=2, tqsp_cache_size=0))
        query = KSPQuery(Point(0.0, 0.0), ("aa",), k=5)
        full = engine.query(query, method="sp")
        full_scores = full.scores()
        cut_after_switch = 0
        for checks in range(0, 200, 3):
            partial = engine.query(query, method="sp", timeout=ExpireAfterChecks(checks))
            for place in partial:
                assert type(place) is SemanticPlace
                assert set(place.paths) == {"aa"}
                assert place.paths["aa"][0] == place.root
            if not partial.stats.timed_out:
                assert partial.places == full.places
                continue
            assert partial.incomplete
            scores = partial.scores()
            assert len(scores) <= len(full_scores)
            assert all(got >= want for got, want in zip(scores, full_scores))
            if partial.stats.reachability_queries == 3 and scores:
                cut_after_switch += 1
        assert cut_after_switch > 0
