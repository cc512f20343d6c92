"""Varint coding and compressed posting lists."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import EngineConfig
from repro.core.engine import KSPEngine
from repro.rdf.graph import RDFGraph
from repro.storage.snapshot import SnapshotFile
from repro.text.inverted import InvertedIndex
from repro.text.varint import (
    decode_posting_list,
    decode_varint,
    encode_posting_list,
    encode_varint,
)


class TestVarint:
    @pytest.mark.parametrize(
        "value,encoded",
        [
            (0, b"\x00"),
            (1, b"\x01"),
            (127, b"\x7f"),
            (128, b"\x80\x01"),
            (300, b"\xac\x02"),
            (2 ** 32 - 1, b"\xff\xff\xff\xff\x0f"),
        ],
    )
    def test_known_encodings(self, value, encoded):
        assert encode_varint(value) == encoded
        assert decode_varint(encoded) == (value, len(encoded))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_varint(-1)

    def test_truncated_rejected(self):
        with pytest.raises(ValueError):
            decode_varint(b"\x80")

    def test_overlong_rejected(self):
        with pytest.raises(ValueError):
            decode_varint(b"\xff" * 11)

    @given(st.integers(min_value=0, max_value=2 ** 62))
    def test_round_trip(self, value):
        encoded = encode_varint(value)
        assert decode_varint(encoded) == (value, len(encoded))

    @given(st.lists(st.integers(min_value=0, max_value=2 ** 30), max_size=20))
    def test_stream_of_varints(self, values):
        blob = b"".join(encode_varint(v) for v in values)
        offset = 0
        decoded = []
        for _ in values:
            value, offset = decode_varint(blob, offset)
            decoded.append(value)
        assert decoded == values
        assert offset == len(blob)


posting_lists = st.lists(
    st.integers(min_value=0, max_value=10 ** 7), max_size=60, unique=True
).map(sorted)


class TestPostingCompression:
    @given(posting_lists)
    def test_round_trip(self, posting):
        blob = encode_posting_list(posting)
        assert decode_posting_list(blob, len(posting)) == posting

    def test_dense_lists_compress_to_one_byte_per_entry(self):
        posting = list(range(1000))
        blob = encode_posting_list(posting)
        assert len(blob) == 1000  # all gaps are zero after the first

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError):
            encode_posting_list([3, 3])
        with pytest.raises(ValueError):
            encode_posting_list([5, 2])

    def test_trailing_bytes_rejected(self):
        blob = encode_posting_list([1, 2]) + b"\x00"
        with pytest.raises(ValueError):
            decode_posting_list(blob, 2)


class TestCompressedDiskIndex:
    """The snapshot's inverted file stores gap + varint posting blobs."""

    def _graph(self):
        graph = RDFGraph()
        for vertex in range(200):
            terms = {"common"}
            if vertex % 3 == 0:
                terms.add("third")
            if vertex % 97 == 0:
                terms.add("rare")
            graph.add_vertex("v%d" % vertex, document=terms)
        return graph

    def test_round_trip_compressed(self, reopened):
        graph = self._graph()
        index = InvertedIndex.build(graph)
        disk = reopened(graph).inverted_index
        for term in index.vocabulary():
            assert list(disk.posting(term)) == list(index.posting(term))
        assert disk.document_frequency("third") == index.document_frequency("third")

    def test_compression_shrinks_file(self, tmp_path):
        graph = self._graph()
        path = tmp_path / "compressed.snap"
        config = EngineConfig(build_reachability=False, build_alpha=False)
        engine = KSPEngine(graph, config)
        engine.save_snapshot(path)
        index = engine.inverted_index
        raw_bytes = 4 * sum(
            index.document_frequency(term) for term in index.vocabulary()
        )
        with SnapshotFile(path) as snapshot:
            assert snapshot.section_length("inverted.postings") < raw_bytes
