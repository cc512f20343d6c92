"""The CSR BFS kernel must agree with the generator traversal path on
every operation it replaces: TQSP construction (exact status, looseness,
keyword vertices AND reconstructed paths), co-minimal covers, and the
alpha-radius word neighborhoods of the preprocessing pass."""

import math
import random

import pytest

from repro.alpha.index import AlphaIndex
from repro.alpha.neighborhood import place_word_neighborhood
from repro.core.semantic_place import SearchStatus, SemanticPlaceSearcher
from repro.core.runtime import TQSPRuntime
from repro.rdf.csr import (
    BFSScratch,
    CSRAdjacency,
    csr_cominimal_covers,
    csr_tightest,
)
from repro.rdf.graph import RDFGraph
from repro.spatial.geometry import Point
from repro.spatial.rtree import RTree
from repro.text.inverted import InvertedIndex, build_query_map

TERMS = ["alpha", "beta", "gamma", "delta", "epsilon"]


def random_graph(rng, vertex_count=40, edge_factor=2.5, place_share=0.3):
    graph = RDFGraph()
    for index in range(vertex_count):
        document = frozenset(
            rng.sample(TERMS, rng.randint(0, min(3, len(TERMS))))
        )
        location = None
        if rng.random() < place_share:
            location = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
        graph.add_vertex("v%d" % index, document=document, location=location)
    for _ in range(int(vertex_count * edge_factor)):
        a = rng.randrange(vertex_count)
        b = rng.randrange(vertex_count)
        if a != b:
            graph.add_edge(a, b)
    return graph


class TestCSRAdjacency:
    def test_snapshot_matches_adjacency_lists(self):
        rng = random.Random(7)
        graph = random_graph(rng)
        csr = CSRAdjacency.from_graph(graph)
        assert csr.vertex_count == graph.vertex_count
        for vertex in range(graph.vertex_count):
            assert list(csr.out_neighbors(vertex)) == list(
                graph.out_neighbors(vertex)
            )
            assert list(csr.in_neighbors(vertex)) == list(
                graph.in_neighbors(vertex)
            )

    def test_size_bytes_positive(self):
        graph = random_graph(random.Random(8))
        assert CSRAdjacency.from_graph(graph).size_bytes() > 0


class TestScratch:
    def test_epoch_reuse_no_clearing(self):
        scratch = BFSScratch(4)
        first = scratch.next_epoch()
        scratch.visited[2] = first
        second = scratch.next_epoch()
        assert second == first + 1
        assert scratch.visited[2] != second  # stale tag is invisible

    def test_epoch_rollover_resets_tags(self):
        scratch = BFSScratch(3)
        scratch.visited[1] = 12345
        scratch.epoch = 2**32 - 2
        epoch = scratch.next_epoch()
        assert epoch == 1
        assert list(scratch.visited) == [0, 0, 0]

    def test_ensure_grows(self):
        scratch = BFSScratch(2)
        scratch.ensure(10)
        assert scratch.capacity == 10
        assert len(scratch.visited) == 10
        assert len(scratch.parent) == 10


class TestTightestAgreement:
    @pytest.mark.parametrize("undirected", [False, True])
    def test_matches_generator_path_on_random_graphs(self, undirected):
        rng = random.Random(13)
        for trial in range(25):
            graph = random_graph(rng)
            inverted = InvertedIndex.build(graph)
            csr = CSRAdjacency.from_graph(graph)
            scratch = BFSScratch(csr.vertex_count)
            searcher = SemanticPlaceSearcher(graph, undirected=undirected)
            keywords = rng.sample(TERMS, rng.randint(1, 3))
            query_map = build_query_map(inverted, keywords)
            place = rng.randrange(graph.vertex_count)
            threshold = rng.choice([math.inf, 2.0, 5.0, 9.0])

            expected = searcher.tightest(
                keywords, place, query_map, looseness_threshold=threshold
            )
            got = csr_tightest(
                csr,
                scratch,
                place,
                keywords,
                query_map,
                looseness_threshold=threshold,
                undirected=undirected,
            )
            assert got.status is expected.status, trial
            assert got.looseness == expected.looseness, trial
            assert got.keyword_vertices == expected.keyword_vertices, trial
            assert got.vertices_visited == expected.vertices_visited, trial
            if expected.status is SearchStatus.COMPLETE:
                for term, vertex in expected.keyword_vertices.items():
                    assert got.path_to(vertex, place) == expected.path_to(
                        vertex, place
                    ), (trial, term)

    def test_scratch_reuse_across_searches(self):
        rng = random.Random(99)
        graph = random_graph(rng, vertex_count=30)
        inverted = InvertedIndex.build(graph)
        csr = CSRAdjacency.from_graph(graph)
        scratch = BFSScratch(csr.vertex_count)
        searcher = SemanticPlaceSearcher(graph)
        keywords = TERMS[:2]
        query_map = build_query_map(inverted, keywords)
        for place in range(graph.vertex_count):
            expected = searcher.tightest(keywords, place, query_map)
            got = csr_tightest(csr, scratch, place, keywords, query_map)
            assert (got.status, got.looseness, got.keyword_vertices) == (
                expected.status,
                expected.looseness,
                expected.keyword_vertices,
            ), place

    def test_searcher_dispatches_to_kernel(self):
        rng = random.Random(5)
        graph = random_graph(rng)
        inverted = InvertedIndex.build(graph)
        runtime = TQSPRuntime(csr=CSRAdjacency.from_graph(graph))
        fast = SemanticPlaceSearcher(graph, runtime=runtime)
        slow = SemanticPlaceSearcher(graph)
        keywords = TERMS[:2]
        query_map = build_query_map(inverted, keywords)
        for place in range(graph.vertex_count):
            a = fast.tightest(keywords, place, query_map)
            b = slow.tightest(keywords, place, query_map)
            assert (a.status, a.looseness, a.keyword_vertices) == (
                b.status,
                b.looseness,
                b.keyword_vertices,
            )

    def test_bad_vertex_raises(self):
        graph = random_graph(random.Random(1), vertex_count=5)
        csr = CSRAdjacency.from_graph(graph)
        scratch = BFSScratch(csr.vertex_count)
        with pytest.raises(IndexError):
            csr_tightest(csr, scratch, 99, ["alpha"], {})

    def test_empty_keywords_raise(self):
        graph = random_graph(random.Random(2), vertex_count=5)
        csr = CSRAdjacency.from_graph(graph)
        scratch = BFSScratch(csr.vertex_count)
        with pytest.raises(ValueError):
            csr_tightest(csr, scratch, 0, [], {})


class TestCominimalCoversAgreement:
    @pytest.mark.parametrize("undirected", [False, True])
    def test_matches_generator_path(self, undirected):
        rng = random.Random(23)
        for trial in range(15):
            graph = random_graph(rng)
            inverted = InvertedIndex.build(graph)
            csr = CSRAdjacency.from_graph(graph)
            scratch = BFSScratch(csr.vertex_count)
            searcher = SemanticPlaceSearcher(graph, undirected=undirected)
            keywords = rng.sample(TERMS, rng.randint(1, 3))
            query_map = build_query_map(inverted, keywords)
            place = rng.randrange(graph.vertex_count)
            expected = searcher.cominimal_covers(keywords, place, query_map)
            got = csr_cominimal_covers(
                csr, scratch, place, keywords, query_map, undirected=undirected
            )
            assert got == expected, trial


class TestWordNeighborhoodAgreement:
    """The alpha build reads its adjacency from the CSR snapshot when the
    engine has one; either source must reproduce the generator path
    (tests/test_alpha_build.py holds the property suite)."""

    @pytest.mark.parametrize("undirected", [False, True])
    @pytest.mark.parametrize("alpha", [0, 1, 3])
    def test_matches_generator_path(self, alpha, undirected):
        rng = random.Random(31)
        graph = random_graph(rng, place_share=1.0)
        index = AlphaIndex(
            graph,
            RTree.bulk_load(graph.places()),
            alpha=alpha,
            undirected=undirected,
            csr=CSRAdjacency.from_graph(graph),
        )
        for place in range(graph.vertex_count):
            expected = place_word_neighborhood(
                graph, place, alpha, undirected=undirected
            )
            distances = {
                term: index.place_neighborhood_distance(place, term) for term in TERMS
            }
            got = {term: d for term, d in distances.items() if d is not None}
            assert got == expected, place

    def test_alpha_index_invariant_under_kernel(self):
        rng = random.Random(37)
        graph = random_graph(rng, vertex_count=60, place_share=0.4)
        rtree = RTree.bulk_load(graph.places())
        csr = CSRAdjacency.from_graph(graph)
        baseline = AlphaIndex(graph, rtree, alpha=2)
        kernel = AlphaIndex(graph, rtree, alpha=2, csr=csr)
        assert kernel.section("place") == baseline.section("place")
        assert kernel.section("node") == baseline.section("node")
