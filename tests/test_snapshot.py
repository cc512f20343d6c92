"""The snapshot format: write → mmap-read roundtrip parity, fail-closed
validation of damaged files, and the zero-copy view layer.

A snapshot engine must be observationally identical to the engine that
wrote it — same manifest hash, same golden wire bytes, same answers on
every method — while serving from ``memoryview``s over one mmap.
"""

import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.config import EngineConfig
from repro.core.engine import KSPEngine
from repro.datagen.paper_example import EXAMPLE_KEYWORDS, Q1, build_example_graph
from repro.datagen.profiles import YAGO_LIKE
from repro.datagen.queries import QueryGenerator, WorkloadConfig
from repro.datagen.synthetic import generate_graph
from repro.storage.snapshot import (
    _HEADER,
    FORMAT_VERSION,
    MAGIC,
    SnapshotError,
    SnapshotFile,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

TIMING_FIELDS = ("runtime_seconds", "semantic_seconds", "other_seconds")


def _normalize(document):
    for field in TIMING_FIELDS:
        if field in document.get("stats", {}):
            document["stats"][field] = 0.0
    return document


def _signature(result):
    return [(p.root, round(p.score, 9), p.looseness) for p in result]


@pytest.fixture(scope="module")
def example_snapshot(tmp_path_factory):
    """(path, built engine) for the paper's Figure 1 example graph."""
    path = tmp_path_factory.mktemp("snap") / "example.snap"
    engine = KSPEngine(
        build_example_graph(), EngineConfig(alpha=3, tqsp_cache_size=0)
    )
    engine.save_snapshot(path)
    return path, engine


@pytest.fixture(scope="module")
def yago_snapshot(tmp_path_factory, tiny_yago_engine):
    path = tmp_path_factory.mktemp("snap") / "yago.snap"
    tiny_yago_engine.save_snapshot(path)
    return path, tiny_yago_engine


@pytest.fixture(scope="module")
def yago_snapshot_engine(yago_snapshot):
    path, _ = yago_snapshot
    return KSPEngine.from_snapshot(path)


class TestRoundtrip:
    def test_manifest_hash_matches_builder(self, yago_snapshot, yago_snapshot_engine):
        _, built = yago_snapshot
        assert yago_snapshot_engine.manifest_hash == built.manifest_hash

    def test_agreement_on_workload(self, yago_snapshot, yago_snapshot_engine):
        _, built = yago_snapshot
        generator = QueryGenerator(
            built.graph,
            built.inverted_index,
            WorkloadConfig(keyword_count=3, k=5, seed=17),
        )
        for query in generator.workload(4, "O"):
            for method in ("bsp", "spp", "sp", "ta"):
                expected = _signature(built.query(query, method=method))
                actual = _signature(
                    yago_snapshot_engine.query(query, method=method)
                )
                assert actual == expected, (method, query)

    def test_golden_pin_from_snapshot(self, example_snapshot):
        path, _ = example_snapshot
        engine = KSPEngine.from_snapshot(
            path, EngineConfig(alpha=3, tqsp_cache_size=0)
        )
        result = engine.query(
            Q1, EXAMPLE_KEYWORDS, k=2, method="sp", request_id="golden-1"
        )
        document = _normalize(result.to_dict())
        golden = json.loads((GOLDEN_DIR / "query_example.json").read_text())
        assert document == golden

    def test_graph_view_parity(self, yago_snapshot, yago_snapshot_engine):
        _, built = yago_snapshot
        graph = yago_snapshot_engine.graph
        assert graph.vertex_count == built.graph.vertex_count
        assert graph.edge_count == built.graph.edge_count
        assert graph.place_count() == built.graph.place_count()
        for vertex in range(0, built.graph.vertex_count, 7):
            assert list(graph.out_neighbors(vertex)) == list(
                built.graph.out_neighbors(vertex)
            )
            assert list(graph.in_neighbors(vertex)) == list(
                built.graph.in_neighbors(vertex)
            )
            assert graph.label(vertex) == built.graph.label(vertex)
            assert graph.document(vertex) == built.graph.document(vertex)
            assert graph.location(vertex) == built.graph.location(vertex)

    def test_inverted_index_parity(self, yago_snapshot, yago_snapshot_engine):
        _, built = yago_snapshot
        index = yago_snapshot_engine.inverted_index
        assert index.vocabulary_size() == built.inverted_index.vocabulary_size()
        assert index.average_posting_length() == pytest.approx(
            built.inverted_index.average_posting_length()
        )
        for term in sorted(built.inverted_index.vocabulary())[::9]:
            assert term in index
            assert list(index.posting(term)) == list(
                built.inverted_index.posting(term)
            )
            assert index.document_frequency(
                term
            ) == built.inverted_index.document_frequency(term)
        assert "no-such-term-ever" not in index
        assert list(index.posting("no-such-term-ever")) == []

    def test_alpha_index_parity(self, yago_snapshot, yago_snapshot_engine):
        _, built = yago_snapshot
        alpha = yago_snapshot_engine.alpha_index
        terms = sorted(built.inverted_index.vocabulary())[::13]
        for place, _ in built.graph.places():
            for term in terms:
                assert alpha.place_neighborhood_distance(
                    place, term
                ) == built.alpha_index.place_neighborhood_distance(place, term)

    def test_alpha_accounting_matches_builder(self, yago_snapshot, yago_snapshot_engine):
        """One representation: a built and a re-opened index report the
        same section sizes, not an estimate on one side."""
        _, built = yago_snapshot
        reopened = yago_snapshot_engine.alpha_index
        assert reopened.size_bytes() == built.alpha_index.size_bytes()
        assert (
            reopened.posting_entry_count() == built.alpha_index.posting_entry_count()
        )
        with SnapshotFile(yago_snapshot[0]) as snapshot:
            assert reopened.size_bytes() == sum(
                snapshot.section_length(name)
                for name in snapshot.names()
                if name.startswith("alpha.")
            )

    def test_snapshot_engine_can_be_resnapshotted(self, example_snapshot, tmp_path):
        """open -> save -> open: the alpha sections are copied byte for
        byte and the answers do not change."""
        path, built = example_snapshot
        config = EngineConfig(alpha=3, tqsp_cache_size=0)
        again = tmp_path / "again.snap"
        KSPEngine.from_snapshot(path, config).save_snapshot(again)
        reopened = KSPEngine.from_snapshot(again, config, verify=True)
        assert reopened.manifest_hash == built.manifest_hash
        with SnapshotFile(path) as first, SnapshotFile(again) as second:
            assert first.names() == second.names()
            for name in first.names():
                if name.startswith("alpha."):
                    assert bytes(first.section(name)) == bytes(second.section(name))
        for method in ("bsp", "spp", "sp", "ta"):
            expected = built.query(Q1, EXAMPLE_KEYWORDS, k=2, method=method)
            actual = reopened.query(Q1, EXAMPLE_KEYWORDS, k=2, method=method)
            assert _signature(actual) == _signature(expected), method
        # Onto the path it is being served from: published by rename, so
        # the live mapping keeps the old file and the new one validates.
        reopened.save_snapshot(again)
        assert not list(tmp_path.glob("again.snap.tmp-*"))
        assert (
            KSPEngine.from_snapshot(again, config, verify=True).manifest_hash
            == built.manifest_hash
        )
        assert _signature(
            reopened.query(Q1, EXAMPLE_KEYWORDS, k=2, method="sp")
        ) == _signature(built.query(Q1, EXAMPLE_KEYWORDS, k=2, method="sp"))

    def test_documents_identical_after_reopen_on_scaled_corpus(self, tmp_path):
        """A built engine and its saved -> re-opened snapshot return the
        same wire documents for seeded O and SDLL queries."""
        graph = generate_graph(YAGO_LIKE.scaled(1500))
        config = EngineConfig(tqsp_cache_size=0)
        built = KSPEngine(graph, config)
        path = tmp_path / "scaled.snap"
        built.save_snapshot(path)
        reopened = KSPEngine.from_snapshot(path, config)
        generator = QueryGenerator(
            graph, built.inverted_index, WorkloadConfig(keyword_count=3, k=5, seed=23)
        )
        queries = generator.workload(6, "O") + generator.workload(4, "SDLL")
        for query in queries:
            for method in ("sp", "spp", "bsp"):
                expected = _normalize(built.query(query, method=method).to_dict())
                actual = _normalize(reopened.query(query, method=method).to_dict())
                assert actual == expected, (method, query)


class TestFailClosed:
    def _bytes(self, example_snapshot):
        path, _ = example_snapshot
        return path.read_bytes()

    def test_truncated_file(self, example_snapshot, tmp_path):
        data = self._bytes(example_snapshot)
        bad = tmp_path / "truncated.snap"
        bad.write_bytes(data[: len(data) // 2])
        with pytest.raises(SnapshotError, match="truncated"):
            SnapshotFile(bad)

    def test_tiny_file(self, tmp_path):
        bad = tmp_path / "tiny.snap"
        bad.write_bytes(b"RS")
        with pytest.raises(SnapshotError, match="truncated"):
            SnapshotFile(bad)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError, match="cannot open"):
            SnapshotFile(tmp_path / "nope.snap")

    def test_bad_magic(self, example_snapshot, tmp_path):
        data = bytearray(self._bytes(example_snapshot))
        data[0] ^= 0xFF
        bad = tmp_path / "magic.snap"
        bad.write_bytes(bytes(data))
        with pytest.raises(SnapshotError, match="not a repro snapshot"):
            SnapshotFile(bad)

    def test_wrong_version(self, example_snapshot, tmp_path):
        data = bytearray(self._bytes(example_snapshot))
        # The version is the u32 right after the 8-byte magic.
        struct.pack_into("<I", data, len(MAGIC), FORMAT_VERSION + 1)
        bad = tmp_path / "version.snap"
        bad.write_bytes(bytes(data))
        with pytest.raises(SnapshotError, match="version"):
            SnapshotFile(bad)

    def test_corrupted_section_table(self, example_snapshot, tmp_path):
        data = bytearray(self._bytes(example_snapshot))
        data[_HEADER.size] ^= 0xFF
        bad = tmp_path / "table.snap"
        bad.write_bytes(bytes(data))
        with pytest.raises(SnapshotError, match="section table"):
            SnapshotFile(bad)

    def test_corrupted_payload_fails_verify(self, example_snapshot, tmp_path):
        path, _ = example_snapshot
        with SnapshotFile(path) as pristine:
            offset, length = pristine._sections["graph.out_targets"]
        data = bytearray(path.read_bytes())
        data[offset] ^= 0xFF
        bad = tmp_path / "payload.snap"
        bad.write_bytes(bytes(data))
        # Open-time validation only covers the header and table...
        snapshot = SnapshotFile(bad)
        try:
            with pytest.raises(SnapshotError, match="content hash"):
                snapshot.verify()
        finally:
            snapshot.close()
        # ...and verify=True fails closed before serving anything.
        with pytest.raises(SnapshotError, match="content hash"):
            SnapshotFile(bad, verify=True)

    def test_unknown_section_raises(self, example_snapshot):
        path, _ = example_snapshot
        with SnapshotFile(path) as snapshot:
            with pytest.raises(SnapshotError, match="no section"):
                snapshot.section("no.such.section")


class TestZeroCopy:
    def test_sections_are_memoryviews_over_one_map(self, example_snapshot):
        path, _ = example_snapshot
        snapshot = SnapshotFile(path)
        view = snapshot.section("graph.out_targets")
        assert isinstance(view, memoryview)
        assert snapshot.stats.maps == 1
        assert snapshot.stats.bytes_mapped == snapshot.size_bytes
        assert snapshot.stats.section_reads >= 1
        # A live view pins the mapping: close() must fail, not corrupt.
        with pytest.raises(BufferError):
            snapshot.close()
        view.release()
        snapshot.close()

    def test_metrics_exported(self, yago_snapshot_engine):
        text = yago_snapshot_engine.metrics_text()
        assert "ksp_snapshot_maps_total" in text
        assert "ksp_snapshot_bytes_mapped" in text
        assert "ksp_snapshot_section_reads_total" in text

    def test_read_hint(self, yago_snapshot_engine):
        yago_snapshot_engine.graph.read_hint("random")
        yago_snapshot_engine.graph.read_hint("sequential")
        yago_snapshot_engine.graph.read_hint("normal")
        with pytest.raises(ValueError):
            yago_snapshot_engine.graph.read_hint("backwards")

    def test_verify_passes_on_pristine_file(self, example_snapshot):
        path, _ = example_snapshot
        with SnapshotFile(path) as snapshot:
            snapshot.verify()
            assert "manifest" in snapshot.names()
            assert snapshot.manifest["snapshot"]["page_size"] == 4096
            assert snapshot.manifest["engine"]["alpha"] == 3


_BUILD_SCRIPT = """
import sys
from repro.core.config import EngineConfig
from repro.core.engine import KSPEngine
from repro.datagen.profiles import TINY_YAGO
from repro.datagen.synthetic import generate_graph
KSPEngine(generate_graph(TINY_YAGO), EngineConfig(alpha=3)).save_snapshot(sys.argv[1])
"""


class TestReproducible:
    def test_snapshot_bytes_independent_of_hash_seed(self, tmp_path):
        """The same corpus must freeze to the same file under any
        ``PYTHONHASHSEED``: no index may number its entries in set order."""
        src = str(Path(repro.__file__).resolve().parent.parent)
        digests = {}
        for seed in ("0", "1"):
            path = tmp_path / ("seed-%s.snap" % seed)
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            subprocess.run(
                [sys.executable, "-c", _BUILD_SCRIPT, str(path)],
                env=env,
                check=True,
                timeout=300,
            )
            digests[seed] = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digests["0"] == digests["1"], digests
