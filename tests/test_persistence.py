"""Engine and index persistence: save once, reload, answer identically."""

import json

import pytest

from repro.core.engine import KSPEngine
from repro.datagen import QueryGenerator, WorkloadConfig
from repro.datagen.paper_example import EXAMPLE_KEYWORDS, Q1, build_example_graph
from repro.datagen.sampling import induced_subgraph
from repro.core.config import EngineConfig
from repro.storage.serialize import (
    load_alpha_index,
    load_reachability,
    save_alpha_index,
    save_reachability,
)


@pytest.fixture(scope="module")
def saved_engine(tiny_yago_graph, tmp_path_factory):
    subgraph = induced_subgraph(tiny_yago_graph, list(range(1200)))
    engine = KSPEngine(subgraph, EngineConfig(alpha=3))
    directory = tmp_path_factory.mktemp("engine")
    engine.save(directory)
    return engine, directory


class TestIndexSerialization:
    def test_reachability_round_trip(self, tmp_path):
        graph = build_example_graph()
        original = KSPEngine(graph, EngineConfig(build_alpha=False)).reachability
        path = tmp_path / "reach.idx"
        save_reachability(original, path)
        restored = load_reachability(path, graph)
        for vertex in graph.vertices():
            for term in ("ancient", "architecture", "history", "zzzz"):
                assert restored.can_reach_term(
                    vertex, term
                ) == original.can_reach_term(vertex, term), (vertex, term)
        assert restored.size_bytes() == original.size_bytes()

    def test_grail_not_persistable(self, tmp_path):
        graph = build_example_graph()
        engine = KSPEngine(graph, EngineConfig(build_alpha=False, reach_method="grail"))
        with pytest.raises(ValueError):
            save_reachability(engine.reachability, tmp_path / "reach.idx")

    def test_alpha_round_trip(self, tmp_path):
        graph = build_example_graph()
        engine = KSPEngine(graph, EngineConfig(alpha=2))
        path = tmp_path / "alpha.idx"
        save_alpha_index(engine.alpha_index, path)
        restored = load_alpha_index(path)
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
        path = tmp_path / "junk.idx"
        path.write_bytes(b"garbage" * 10)
        graph = build_example_graph()
        with pytest.raises(ValueError):
            load_reachability(path, graph)
        with pytest.raises(ValueError):
            load_alpha_index(path)

    def test_graph_mismatch_detected(self, tmp_path):
        graph = build_example_graph()
        engine = KSPEngine(graph, EngineConfig(build_alpha=False))
        path = tmp_path / "reach.idx"
        save_reachability(engine.reachability, path)
        from repro.rdf.graph import RDFGraph

        other = RDFGraph()
        other.add_vertex("only")
        with pytest.raises(ValueError):
            load_reachability(path, other)


class TestEngineSaveLoad:
    def test_manifest_contents(self, saved_engine):
        engine, directory = saved_engine
        manifest = json.loads((directory / "manifest.json").read_text())
        assert manifest["vertices"] == engine.graph.vertex_count
        assert manifest["alpha"] == 3
        assert manifest["has_reachability"]
        assert manifest["has_alpha_index"]

    @pytest.mark.parametrize("backend", ["memory", "disk"])
    def test_loaded_engine_answers_identically(self, saved_engine, backend):
        engine, directory = saved_engine
        loaded = KSPEngine.load(directory, graph_backend=backend)
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
        engine, directory = saved_engine
        loaded = KSPEngine.load(directory)
        # The point of persistence: reading the alpha postings back is a
        # copy, building them is the dominant preprocessing cost (Table 5).
        # Compared index to index — the bit-parallel build left the whole
        # of ``load`` (graph file, CSR, R-tree) no margin against it on a
        # corpus this small.
        assert (
            loaded.build_seconds["alpha_index"] < engine.build_seconds["alpha_index"]
        )

    def test_paper_example_round_trip(self, tmp_path):
        engine = KSPEngine(build_example_graph(), EngineConfig(alpha=3))
        engine.save(tmp_path / "engine")
        loaded = KSPEngine.load(tmp_path / "engine")
        result = loaded.query(Q1, EXAMPLE_KEYWORDS, k=2, method="sp")
        assert [p.root_label for p in result] == ["p1", "p2"]
        assert result[0].looseness == 6.0

    def test_unknown_backend_rejected(self, saved_engine):
        _, directory = saved_engine
        with pytest.raises(ValueError):
            KSPEngine.load(directory, graph_backend="cloud")

    def test_bad_format_rejected(self, saved_engine, tmp_path):
        _, directory = saved_engine
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "manifest.json").write_text('{"format": 99}')
        with pytest.raises(ValueError):
            KSPEngine.load(bad)


class TestManifestValidation:
    """``KSPEngine.load`` must reject a graph/manifest mismatch.

    A silently mismatched pair is the worst failure mode — the alpha
    index and reachability labels were built for a *different* graph and
    would mis-answer queries without any error.  Each tampered count
    must be rejected with a message naming the offending field.
    """

    @pytest.fixture()
    def tampered_copy(self, saved_engine, tmp_path):
        import shutil

        _, directory = saved_engine
        copy = tmp_path / "tampered"
        shutil.copytree(directory, copy)
        return copy

    @pytest.mark.parametrize("backend", ["memory", "disk"])
    @pytest.mark.parametrize("field", ["vertices", "edges", "places"])
    def test_count_mismatch_names_the_field(self, tampered_copy, field, backend):
        manifest_path = tampered_copy / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest[field] += 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=field):
            KSPEngine.load(tampered_copy, graph_backend=backend)

    def test_untampered_copy_loads(self, tampered_copy):
        assert KSPEngine.load(tampered_copy).graph.vertex_count > 0
