"""Engine and index persistence through the snapshot: save once, reopen,
answer identically; refuse a file that does not match what it claims."""

import json

import pytest

from repro.core.engine import KSPEngine
from repro.datagen import QueryGenerator, WorkloadConfig
from repro.datagen.paper_example import EXAMPLE_KEYWORDS, Q1, build_example_graph
from repro.datagen.sampling import induced_subgraph
from repro.core.config import EngineConfig
from repro.rdf.graph import RDFGraph
from repro.storage.snapshot import (
    FORMAT_VERSION,
    MAGIC,
    SnapshotError,
    SnapshotFile,
    SnapshotWriter,
    VocabView,
    load_snapshot_alpha_index,
    load_snapshot_reachability,
)


@pytest.fixture(scope="module")
def saved_engine(tiny_yago_graph, tmp_path_factory):
    subgraph = induced_subgraph(tiny_yago_graph, list(range(1200)))
    engine = KSPEngine(subgraph, EngineConfig(alpha=3))
    path = tmp_path_factory.mktemp("engine") / "engine.snap"
    engine.save_snapshot(path)
    return engine, path


def saved_sections(engine, path):
    """Save ``engine`` and open the snapshot with its vocabulary view —
    what the per-index loaders take."""
    engine.save_snapshot(path)
    snapshot = SnapshotFile(path)
    vocab = VocabView(
        snapshot.array_view("vocab.offsets", "Q"), snapshot.section("vocab.blob")
    )
    return snapshot, vocab


class TestIndexSerialization:
    def test_reachability_round_trip(self, tmp_path):
        graph = build_example_graph()
        engine = KSPEngine(graph, EngineConfig(build_alpha=False))
        original = engine.reachability
        snapshot, vocab = saved_sections(engine, tmp_path / "reach.snap")
        restored = load_snapshot_reachability(snapshot, vocab, graph)
        for vertex in graph.vertices():
            for term in ("ancient", "architecture", "history", "zzzz"):
                assert restored.can_reach_term(
                    vertex, term
                ) == original.can_reach_term(vertex, term), (vertex, term)
        assert restored.size_bytes() == original.size_bytes()

    def test_grail_not_persistable(self, tmp_path):
        graph = build_example_graph()
        engine = KSPEngine(graph, EngineConfig(build_alpha=False, reach_method="grail"))
        with pytest.raises(SnapshotError, match="PLL"):
            engine.save_snapshot(tmp_path / "reach.snap")

    def test_alpha_round_trip(self, tmp_path):
        graph = build_example_graph()
        engine = KSPEngine(graph, EngineConfig(alpha=2))
        snapshot, vocab = saved_sections(engine, tmp_path / "alpha.snap")
        restored = load_snapshot_alpha_index(snapshot, vocab)
        assert restored.alpha == 2
        view_original = engine.alpha_index.query_view(EXAMPLE_KEYWORDS)
        view_restored = restored.query_view(EXAMPLE_KEYWORDS)
        for place, _ in graph.places():
            assert view_restored.place_looseness_bound(
                place
            ) == view_original.place_looseness_bound(place)
        for node in engine.rtree.iter_nodes():
            assert view_restored.node_looseness_bound(
                node.node_id
            ) == view_original.node_looseness_bound(node.node_id)
        assert restored.size_bytes() == engine.alpha_index.size_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.snap"
        path.write_bytes(b"garbage" * 20)
        with pytest.raises(SnapshotError, match="not a repro snapshot"):
            SnapshotFile(path)
        # A valid snapshot built without reachability has nothing to load.
        engine = KSPEngine(build_example_graph(), EngineConfig(build_reachability=False))
        snapshot, vocab = saved_sections(engine, tmp_path / "no-reach.snap")
        with pytest.raises(SnapshotError, match="no reachability"):
            load_snapshot_reachability(snapshot, vocab, engine.graph)

    def test_graph_mismatch_detected(self, tmp_path):
        graph = build_example_graph()
        engine = KSPEngine(graph, EngineConfig(build_alpha=False))
        snapshot, vocab = saved_sections(engine, tmp_path / "reach.snap")
        other = RDFGraph()
        other.add_vertex("only")
        with pytest.raises(SnapshotError, match="does not match the graph"):
            load_snapshot_reachability(snapshot, vocab, other)


class TestEngineSaveLoad:
    def test_manifest_contents(self, saved_engine):
        engine, path = saved_engine
        with SnapshotFile(path) as snapshot:
            manifest = snapshot.manifest["engine"]
        assert manifest["vertices"] == engine.graph.vertex_count
        assert manifest["alpha"] == 3
        assert manifest["has_reachability"]
        assert manifest["has_alpha_index"]

    def test_loaded_engine_answers_identically(self, saved_engine):
        engine, path = saved_engine
        loaded = KSPEngine.from_snapshot(path)
        generator = QueryGenerator(
            engine.graph, engine.inverted_index, WorkloadConfig(keyword_count=3, seed=19)
        )
        for query in generator.workload(5, "O"):
            for method in ("spp", "sp"):
                original = engine.query(query, method=method)
                restored = loaded.query(query, method=method)
                assert restored.roots() == original.roots()
                assert restored.scores() == original.scores()

    def test_loading_is_faster_than_building(self, saved_engine):
        engine, path = saved_engine
        loaded = KSPEngine.from_snapshot(path)
        # The point of persistence: opening the snapshot maps the alpha
        # postings; building them is the dominant preprocessing cost
        # (Table 5).  The whole open is compared with that one build.
        assert (
            loaded.build_seconds["snapshot_mmap"] < engine.build_seconds["alpha_index"]
        )

    def test_paper_example_round_trip(self, tmp_path):
        engine = KSPEngine(build_example_graph(), EngineConfig(alpha=3))
        engine.save_snapshot(tmp_path / "engine.snap")
        loaded = KSPEngine.from_snapshot(tmp_path / "engine.snap")
        result = loaded.query(Q1, EXAMPLE_KEYWORDS, k=2, method="sp")
        assert [p.root_label for p in result] == ["p1", "p2"]
        assert result[0].looseness == 6.0

    def test_bad_format_rejected(self, saved_engine, tmp_path):
        _, path = saved_engine
        data = bytearray(path.read_bytes())
        # The format version is the u32 right after the magic.
        data[len(MAGIC) : len(MAGIC) + 4] = (FORMAT_VERSION + 98).to_bytes(4, "little")
        bad = tmp_path / "bad.snap"
        bad.write_bytes(bytes(data))
        with pytest.raises(SnapshotError, match="version"):
            KSPEngine.from_snapshot(bad)


def rewrite(source, target, **bump):
    """Copy the snapshot ``source`` to ``target`` with valid hashes,
    adding ``bump[field]`` to the engine manifest's ``field``."""
    with SnapshotFile(source) as snapshot:
        writer = SnapshotWriter(target)
        for name in snapshot.names():
            payload = bytes(snapshot.section(name))
            if name == "manifest":
                manifest = json.loads(payload)
                for field, delta in bump.items():
                    manifest["engine"][field] += delta
                payload = json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8")
            writer.add(name, payload)
    writer.finish()


class TestManifestValidation:
    """A snapshot whose manifest disagrees with its graph sections must be
    refused, naming the field.

    A silently mismatched pair is the worst failure mode — the alpha index
    and reachability labels were built for a *different* graph and would
    mis-answer queries without any error.  The content hash cannot catch a
    writer that recorded a wrong count, so the copies are re-hashed.
    """

    @pytest.mark.parametrize("field", ["vertices", "edges", "places"])
    def test_count_mismatch_names_the_field(self, saved_engine, tmp_path, field):
        _, path = saved_engine
        tampered = tmp_path / "tampered.snap"
        rewrite(path, tampered, **{field: 1})
        with pytest.raises(SnapshotError, match=field):
            KSPEngine.from_snapshot(tampered, verify=True)

    def test_untampered_copy_loads(self, saved_engine, tmp_path):
        _, path = saved_engine
        copy = tmp_path / "copy.snap"
        rewrite(path, copy)
        assert copy.read_bytes() == path.read_bytes()
        assert KSPEngine.from_snapshot(copy, verify=True).graph.vertex_count > 0
