"""The snapshot graph store — the file-backed graph of the paper's
footnote 1: round trip, bounds, and the algorithms running over it."""

import pytest

from repro.core.engine import KSPEngine
from repro.datagen import QueryGenerator, WorkloadConfig
from repro.datagen.paper_example import EXAMPLE_KEYWORDS, Q1, build_example_graph
from repro.datagen.sampling import induced_subgraph
from repro.rdf.graph import RDFGraph
from repro.storage.snapshot import (
    SnapshotError,
    SnapshotFile,
    SnapshotRDFGraph,
    VocabView,
)
from repro.core.config import EngineConfig


@pytest.fixture(scope="module")
def example_disk(reopened):
    graph = build_example_graph()
    return graph, reopened(graph).graph


@pytest.fixture(scope="module")
def corpus_disk(tiny_yago_graph, reopened):
    subgraph = induced_subgraph(tiny_yago_graph, list(range(500)))
    return subgraph, reopened(subgraph).graph


class TestFormatRoundTrip:
    def test_counts(self, example_disk):
        graph, disk = example_disk
        assert disk.vertex_count == graph.vertex_count
        assert disk.edge_count == graph.edge_count
        assert disk.place_count() == graph.place_count()

    def test_adjacency_identical(self, corpus_disk):
        graph, disk = corpus_disk
        for vertex in graph.vertices():
            assert list(disk.out_neighbors(vertex)) == list(
                graph.out_neighbors(vertex)
            )
            assert list(disk.in_neighbors(vertex)) == list(
                graph.in_neighbors(vertex)
            )

    def test_records_identical(self, corpus_disk):
        graph, disk = corpus_disk
        for vertex in graph.vertices():
            assert disk.label(vertex) == graph.label(vertex)
            assert disk.document(vertex) == graph.document(vertex)
            assert disk.location(vertex) == graph.location(vertex)

    def test_places_identical(self, corpus_disk):
        graph, disk = corpus_disk
        assert list(disk.places()) == list(graph.places())

    def test_label_lookup(self, example_disk):
        graph, disk = example_disk
        assert disk.vertex_by_label("p1") == graph.vertex_by_label("p1")
        assert disk.has_vertex_label("v3")
        assert not disk.has_vertex_label("nope")
        with pytest.raises(KeyError):
            disk.vertex_by_label("nope")

    def test_bfs_identical(self, corpus_disk):
        graph, disk = corpus_disk
        start = next(iter(graph.places()))[0]
        assert list(disk.bfs(start)) == list(graph.bfs(start))
        assert list(disk.bfs(start, undirected=True)) == list(
            graph.bfs(start, undirected=True)
        )

    def test_bounds_checked(self, example_disk):
        _, disk = example_disk
        with pytest.raises(IndexError):
            disk.out_neighbors(999)
        with pytest.raises(IndexError):
            disk.document(-1)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.snap"
        path.write_bytes(b"not a graph file" * 10)
        with pytest.raises(SnapshotError, match="not a repro snapshot"):
            SnapshotFile(path)

    def test_empty_graph(self, reopened):
        disk = reopened(RDFGraph()).graph
        assert disk.vertex_count == 0
        assert list(disk.places()) == []

    def test_tiny_record_cache_still_correct(self, corpus_disk, tmp_path):
        graph, _ = corpus_disk
        path = tmp_path / "again.snap"
        config = EngineConfig(build_reachability=False, build_alpha=False)
        KSPEngine(graph, config).save_snapshot(path)
        snapshot = SnapshotFile(path)
        vocab = VocabView(
            snapshot.array_view("vocab.offsets", "Q"), snapshot.section("vocab.blob")
        )
        disk = SnapshotRDFGraph(snapshot, vocab, record_cache_size=2)
        for _ in range(2):  # the second pass re-decodes evicted records
            for vertex in list(graph.vertices())[:50]:
                assert disk.document(vertex) == graph.document(vertex)
                assert list(disk.out_neighbors(vertex)) == list(
                    graph.out_neighbors(vertex)
                )


class TestAlgorithmsOnDiskGraph:
    def test_engine_over_disk_graph_matches_memory(self, reopened):
        graph = build_example_graph()
        disk = reopened(graph).graph
        memory_engine = KSPEngine(graph, EngineConfig(alpha=2))
        disk_engine = KSPEngine(disk, EngineConfig(alpha=2))
        for method in ("bsp", "spp", "sp", "ta"):
            memory_result = memory_engine.query(
                Q1, EXAMPLE_KEYWORDS, k=2, method=method
            )
            disk_result = disk_engine.query(Q1, EXAMPLE_KEYWORDS, k=2, method=method)
            assert [p.root_label for p in disk_result] == [
                p.root_label for p in memory_result
            ]
            assert disk_result.scores() == memory_result.scores()

    def test_corpus_queries_match(self, corpus_disk):
        graph, disk = corpus_disk
        memory_engine = KSPEngine(graph, EngineConfig(alpha=2))
        disk_engine = KSPEngine(disk, EngineConfig(alpha=2))
        generator = QueryGenerator(
            graph, memory_engine.inverted_index, WorkloadConfig(keyword_count=2, seed=8)
        )
        for query in generator.workload(4, "O"):
            memory_result = memory_engine.query(query, method="sp")
            disk_result = disk_engine.query(query, method="sp")
            assert disk_result.roots() == memory_result.roots()
            assert disk_result.scores() == memory_result.scores()
