"""End-to-end integration: N-Triples file on disk -> GraphBuilder ->
KSPEngine -> queries, compared against an engine built on the in-memory
graph directly."""

import pytest

from repro.core.engine import KSPEngine
from repro.datagen import QueryGenerator, WorkloadConfig
from repro.datagen.sampling import induced_subgraph
from repro.datagen.synthetic import graph_to_triples
from repro.rdf import ntriples
from repro.core.config import EngineConfig


@pytest.fixture(scope="module")
def file_engine(tiny_yago_graph, tmp_path_factory):
    """An engine built by writing a 400-vertex corpus to disk as N-Triples
    and ingesting the file."""
    subgraph = induced_subgraph(tiny_yago_graph, list(range(400)))
    path = tmp_path_factory.mktemp("data") / "corpus.nt"
    ntriples.write_file(graph_to_triples(subgraph), path)
    return subgraph, KSPEngine.from_ntriples_file(path, EngineConfig(alpha=2))


class TestFilePipeline:
    def test_counts_survive_serialization(self, file_engine):
        subgraph, engine = file_engine
        assert engine.graph.vertex_count == subgraph.vertex_count
        assert engine.graph.edge_count == subgraph.edge_count
        assert engine.graph.place_count() == subgraph.place_count()

    def test_queries_match_direct_engine(self, file_engine):
        subgraph, engine = file_engine
        direct = KSPEngine(subgraph, EngineConfig(alpha=2))
        generator = QueryGenerator(
            subgraph, direct.inverted_index, WorkloadConfig(keyword_count=2, seed=3)
        )
        for query in generator.workload(5, "O"):
            direct_result = direct.query(query, method="sp")
            file_result = engine.query(query, method="sp")
            # Labels are URI-prefixed in the file engine; compare suffixes
            # and scores.  Document supersets (URI tokens) can only make
            # places *more* qualified, never less, so the direct results
            # must appear with at-most-equal scores.
            direct_roots = [p.root_label for p in direct_result]
            if direct_roots:
                assert len(file_result) >= len(direct_result)
                assert file_result[0].score <= direct_result[0].score + 1e-9

    def test_disk_inverted_index_in_query_path(self, file_engine, tmp_path):
        """The disk-resident inverted index (the snapshot's, decoded from
        the mapped file) can drive the algorithms."""
        from repro.core.bsp import bsp_search

        subgraph, engine = file_engine
        path = tmp_path / "corpus.snap"
        engine.save_snapshot(path)
        disk = KSPEngine.from_snapshot(path).inverted_index
        generator = QueryGenerator(
            engine.graph, engine.inverted_index, WorkloadConfig(keyword_count=2, seed=9)
        )
        query = generator.original()
        disk_result = bsp_search(engine.graph, engine.rtree, disk, query)
        memory_result = bsp_search(
            engine.graph, engine.rtree, engine.inverted_index, query
        )
        assert [p.root for p in disk_result] == [p.root for p in memory_result]
        for term in query.keywords:
            assert list(disk.posting(term)) == list(engine.inverted_index.posting(term))
