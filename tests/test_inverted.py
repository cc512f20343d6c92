"""Inverted index: in-memory, disk-resident (the snapshot's), query map,
keyword ordering."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import KSPEngine
from repro.rdf.graph import RDFGraph
from repro.storage.snapshot import SnapshotError
from repro.text.inverted import (
    InvertedIndex,
    build_query_map,
    order_rarest_first,
)

terms = st.sampled_from(["alpha", "beta", "gamma", "delta", "epsilon"])
documents = st.lists(st.frozensets(terms, max_size=4), min_size=0, max_size=30)


def index_from_documents(docs):
    index = InvertedIndex()
    for vertex, doc in enumerate(docs):
        index.add_document(vertex, doc)
    index.finalize()
    return index


def graph_from_documents(docs):
    graph = RDFGraph()
    for vertex, doc in enumerate(docs):
        graph.add_vertex("v%d" % vertex, document=doc)
    return graph


class TestInvertedIndex:
    def test_build_from_graph(self):
        graph = RDFGraph()
        a = graph.add_vertex("a", document={"x", "y"})
        b = graph.add_vertex("b", document={"y"})
        index = InvertedIndex.build(graph)
        assert list(index.posting("x")) == [a]
        assert list(index.posting("y")) == sorted([a, b])
        assert index.posting("zzz") == []

    def test_document_frequency(self):
        index = index_from_documents([{"x"}, {"x", "y"}, {"y"}])
        assert index.document_frequency("x") == 2
        assert index.document_frequency("y") == 2
        assert index.document_frequency("nope") == 0

    def test_contains(self):
        index = index_from_documents([{"x"}])
        assert "x" in index
        assert "y" not in index

    def test_query_before_finalize_rejected(self):
        index = InvertedIndex()
        index.add_document(0, {"x"})
        with pytest.raises(RuntimeError):
            index.posting("x")

    def test_add_after_finalize_rejected(self):
        index = index_from_documents([{"x"}])
        with pytest.raises(RuntimeError):
            index.add_document(1, {"y"})

    def test_average_posting_length(self):
        index = index_from_documents([{"x", "y"}, {"x"}])
        # postings: x->2, y->1; average 1.5
        assert index.average_posting_length() == pytest.approx(1.5)
        assert index_from_documents([]).average_posting_length() == 0.0

    def test_duplicate_adds_deduplicated(self):
        index = InvertedIndex()
        index.add_document(0, {"x"})
        index.add_document(0, {"x"})
        index.finalize()
        assert list(index.posting("x")) == [0]

    @given(documents)
    @settings(max_examples=40)
    def test_postings_sorted_and_complete(self, docs):
        index = index_from_documents(docs)
        for term in index.vocabulary():
            posting = list(index.posting(term))
            assert posting == sorted(set(posting))
            expected = [v for v, doc in enumerate(docs) if term in doc]
            assert posting == expected


class TestDiskIndex:
    def test_round_trip(self, reopened):
        graph = graph_from_documents([{"x", "y"}, {"y"}, {"x", "z"}])
        index = InvertedIndex.build(graph)
        disk = reopened(graph).inverted_index
        assert list(disk.posting("x")) == list(index.posting("x"))
        assert list(disk.posting("y")) == list(index.posting("y"))
        assert list(disk.posting("absent")) == []
        assert "absent" not in disk
        assert disk.document_frequency("z") == 1
        assert disk.vocabulary_size() == index.vocabulary_size()
        assert sorted(disk.vocabulary()) == sorted(index.vocabulary())
        assert disk.average_posting_length() == pytest.approx(
            index.average_posting_length()
        )

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not an index" * 10)
        with pytest.raises(SnapshotError):
            KSPEngine.from_snapshot(path)

    @given(docs=documents)
    @settings(max_examples=20, deadline=None)
    def test_round_trip_property(self, docs, reopened):
        index = index_from_documents(docs)
        disk = reopened(graph_from_documents(docs)).inverted_index
        assert disk.vocabulary_size() == index.vocabulary_size()
        for term in index.vocabulary():
            assert list(disk.posting(term)) == list(index.posting(term))


class TestQueryMap:
    def test_matches_table_2_shape(self):
        # M_{q.psi} maps each vertex to the query keywords it contains.
        index = index_from_documents([{"alpha", "beta"}, {"beta"}, {"gamma"}])
        query_map = build_query_map(index, ["alpha", "beta"])
        assert query_map == {
            0: frozenset({"alpha", "beta"}),
            1: frozenset({"beta"}),
        }

    def test_unknown_keyword_ignored(self):
        index = index_from_documents([{"alpha"}])
        assert build_query_map(index, ["nope"]) == {}


class TestRarestFirst:
    def test_orders_by_document_frequency(self):
        index = index_from_documents(
            [{"common"}, {"common"}, {"common", "rare"}, {"mid"}, {"mid"}]
        )
        assert order_rarest_first(index, ["common", "mid", "rare"]) == [
            "rare",
            "mid",
            "common",
        ]

    def test_ties_broken_lexicographically(self):
        index = index_from_documents([{"bb", "aa"}])
        assert order_rarest_first(index, ["bb", "aa"]) == ["aa", "bb"]
