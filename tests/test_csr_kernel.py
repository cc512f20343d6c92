"""The CSR BFS kernel must agree with a plain generator BFS over the
graph's adjacency lists on everything it computes: TQSP construction
(exact status, looseness, keyword vertices, visit counts AND
reconstructed paths, against the exhaustive oracle's own search),
co-minimal covers, and the alpha-radius word neighborhoods of the
preprocessing pass.  The oracle itself must not touch the kernel."""

import math
import random
from typing import Dict, List, Optional

import pytest

from repro.alpha.index import AlphaIndex
from repro.alpha.neighborhood import place_word_neighborhood
from repro.core import semantic_place
from repro.core.exhaustive import exhaustive_search, reference_tightest
from repro.core.semantic_place import SearchStatus, SemanticPlaceSearcher
from repro.core.query import KSPQuery
from repro.core.runtime import TQSPRuntime
from repro.datagen.paper_example import EXAMPLE_KEYWORDS, Q1, build_example_graph
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


def reference_cominimal_covers(
    graph, keywords, place, query_map, undirected=False
) -> Optional[Dict[str, List[int]]]:
    """Co-minimal covers (Section 2, footnote 2) by a generator BFS: per
    keyword, every vertex covering it at the minimal distance from
    ``place``; None when some keyword is out of reach."""
    best_distance: Dict[str, int] = {}
    covers: Dict[str, List[int]] = {term: [] for term in keywords}
    outstanding = set(keywords)
    frontier_done = -1
    for vertex, distance, _ in graph.bfs(place, undirected=undirected):
        if not outstanding and distance > frontier_done:
            break
        for term in query_map.get(vertex, ()):
            if term not in covers:
                continue
            recorded = best_distance.get(term)
            if recorded is None:
                best_distance[term] = distance
                covers[term].append(vertex)
                outstanding.discard(term)
                if not outstanding:
                    # Finish the level: equally near covers of the last
                    # keyword count too.
                    frontier_done = distance
            elif recorded == distance:
                covers[term].append(vertex)
    return None if outstanding else covers


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
            keywords = rng.sample(TERMS, rng.randint(1, 3))
            query_map = build_query_map(inverted, keywords)
            place = rng.randrange(graph.vertex_count)
            threshold = rng.choice([math.inf, 2.0, 5.0, 9.0])

            expected = reference_tightest(
                graph,
                keywords,
                place,
                query_map,
                looseness_threshold=threshold,
                undirected=undirected,
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
        keywords = TERMS[:2]
        query_map = build_query_map(inverted, keywords)
        for place in range(graph.vertex_count):
            expected = reference_tightest(graph, keywords, place, query_map)
            got = csr_tightest(csr, scratch, place, keywords, query_map)
            assert (got.status, got.looseness, got.keyword_vertices) == (
                expected.status,
                expected.looseness,
                expected.keyword_vertices,
            ), place

    def test_searcher_dispatches_to_kernel(self, monkeypatch):
        rng = random.Random(5)
        graph = random_graph(rng)
        inverted = InvertedIndex.build(graph)
        runtime = TQSPRuntime(csr=CSRAdjacency.from_graph(graph))
        given = SemanticPlaceSearcher(graph, runtime=runtime)
        built = SemanticPlaceSearcher(graph)  # builds its own runtime
        assert given.csr is runtime.csr
        assert built.csr.vertex_count == graph.vertex_count
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2])
            return csr_tightest(*args, **kwargs)

        monkeypatch.setattr(semantic_place, "csr_tightest", counted)
        keywords = TERMS[:2]
        query_map = build_query_map(inverted, keywords)
        for place in range(graph.vertex_count):
            a = given.tightest(keywords, place, query_map)
            b = built.tightest(keywords, place, query_map)
            c = reference_tightest(graph, keywords, place, query_map)
            assert (a.status, a.looseness, a.keyword_vertices) == (
                c.status,
                c.looseness,
                c.keyword_vertices,
            )
            assert (b.status, b.looseness, b.keyword_vertices) == (
                c.status,
                c.looseness,
                c.keyword_vertices,
            )
        assert calls == [
            place for place in range(graph.vertex_count) for _ in range(2)
        ]

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
            searcher = SemanticPlaceSearcher(
                graph, undirected=undirected, runtime=TQSPRuntime(csr)
            )
            keywords = rng.sample(TERMS, rng.randint(1, 3))
            query_map = build_query_map(inverted, keywords)
            place = rng.randrange(graph.vertex_count)
            expected = reference_cominimal_covers(
                graph, keywords, place, query_map, undirected=undirected
            )
            got = csr_cominimal_covers(
                csr, scratch, place, keywords, query_map, undirected=undirected
            )
            assert got == expected, trial
            assert searcher.cominimal_covers(keywords, place, query_map) == expected


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


class TestOracleSharesNoKernel:
    def test_exhaustive_answers_example_1_with_the_kernel_broken(self, monkeypatch):
        def broken(*args, **kwargs):
            raise AssertionError("the oracle reached the CSR kernel")

        monkeypatch.setattr(semantic_place, "csr_tightest", broken)
        monkeypatch.setattr(semantic_place, "csr_cominimal_covers", broken)
        graph = build_example_graph()
        result = exhaustive_search(
            graph,
            InvertedIndex.build(graph),
            KSPQuery(location=Q1, keywords=EXAMPLE_KEYWORDS, k=2),
        )
        assert [(p.root_label, p.looseness) for p in result] == [
            ("p1", 6.0),
            ("p2", 4.0),
        ]
        assert result.places[0].score == pytest.approx(6 * 0.2193, abs=1e-3)
