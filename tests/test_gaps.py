"""Coverage for paths the focused suites do not reach."""

import math

import pytest

from repro.core.engine import KSPEngine
from repro.core.query import KSPQuery, KSPResult
from repro.core.stats import QueryStats
from repro.datagen.paper_example import EXAMPLE_KEYWORDS, EXAMPLE_NTRIPLES, Q1
from repro.datagen.queries import QueryGenerator, WorkloadConfig
from repro.spatial.geometry import Point, Rect
from repro.core.config import EngineConfig


class TestQueryCreation:
    def test_untokenizable_keyword_falls_back_to_raw(self):
        # Single letters are dropped by the tokenizer; the raw lowercase
        # form is kept so the query stays non-empty.
        query = KSPQuery.create(Point(0, 0), ["X"], k=1)
        assert query.keywords == ("x",)

    def test_multiword_keyword_splits(self):
        query = KSPQuery.create(Point(0, 0), ["Roman Empire"], k=1)
        assert query.keywords == ("roman", "empire")

    def test_duplicates_after_normalization_removed(self):
        query = KSPQuery.create(Point(0, 0), ["Roman", "roman!"], k=1)
        assert query.keywords == ("roman",)

    def test_keyword_count_property(self):
        query = KSPQuery(location=Point(0, 0), keywords=("a", "b"), k=1)
        assert query.keyword_count == 2


class TestSemanticPlaceViews:
    def test_tree_edges(self, example_engine):
        result = example_engine.query(Q1, EXAMPLE_KEYWORDS, k=1)
        place = result[0]
        graph = example_engine.graph
        edges = {
            (graph.label(a), graph.label(b)) for a, b in place.tree_edges()
        }
        assert ("p1", "v1") in edges
        assert ("v1", "v4") in edges
        assert ("p1", "v2") in edges
        assert ("p1", "v3") in edges
        assert len(edges) == 4

    def test_result_container_empty(self):
        result = KSPResult(
            query=KSPQuery(location=Point(0, 0), keywords=("x",), k=1)
        )
        assert len(result) == 0
        assert result.scores() == []
        assert result.roots() == []
        assert isinstance(result.stats, QueryStats)

    def test_explain_report(self, example_engine):
        result = example_engine.query(Q1, EXAMPLE_KEYWORDS, k=1, method="spp")
        report = result.explain()
        assert "p1" in report
        assert "f=1.3" in report
        assert "executed by SPP" in report
        assert "TQSP construction" in report
        assert "rule2 x1" in report  # Example 8's prune shows up

    def test_explain_empty_result(self, example_engine):
        result = example_engine.query(Q1, ["church", "architecture"], k=1)
        report = result.explain()
        assert "no qualified semantic place" in report


class TestSPPruningCounters:
    def test_rules_3_4_fire_on_synthetic_workload(self, tiny_yago_graph):
        """With a deep R-tree (small fanout), SP interleaves node
        expansion with result discovery, so the alpha enqueue filter
        (Rules 3/4) must actually skip entries somewhere in a workload."""
        import dataclasses

        engine = KSPEngine(tiny_yago_graph, EngineConfig(alpha=3, rtree_max_entries=4))
        generator = QueryGenerator(
            engine.graph, engine.inverted_index, WorkloadConfig(keyword_count=5, seed=71)
        )
        fired = 0
        for query in generator.workload(10, "O"):
            for k in (1, 5, 20):
                stats = engine.query(
                    dataclasses.replace(query, k=k), method="sp"
                ).stats
                fired += stats.pruned_rule3 + stats.pruned_rule4
        assert fired > 0

    def test_sp_without_node_pruning_still_correct(self, tiny_yago_engine):
        from repro.core.sp import sp_search

        engine = tiny_yago_engine
        generator = QueryGenerator(
            engine.graph, engine.inverted_index, WorkloadConfig(keyword_count=3, seed=72)
        )
        for query in generator.workload(4, "O"):
            with_pruning = engine.query(query, method="sp")
            without = sp_search(
                engine.graph, engine.rtree, engine.inverted_index,
                engine.reachability, engine.alpha_index, query,
                use_node_pruning=False,
            )
            assert without.roots() == with_pruning.roots()
            assert without.stats.pruned_rule3 == 0
            assert without.stats.pruned_rule4 == 0

    def test_sp_rule1_disabled_requires_no_reach_index(self, tiny_yago_engine):
        from repro.core.sp import sp_search

        engine = tiny_yago_engine
        generator = QueryGenerator(
            engine.graph, engine.inverted_index, WorkloadConfig(keyword_count=2, seed=73)
        )
        query = generator.original()
        result = sp_search(
            engine.graph, engine.rtree, engine.inverted_index, None,
            engine.alpha_index, query, use_rule1=False,
        )
        reference = engine.query(query, method="sp")
        assert result.roots() == reference.roots()

    def test_sp_rule1_without_index_rejected(self, tiny_yago_engine):
        from repro.core.sp import sp_search

        engine = tiny_yago_engine
        query = KSPQuery(location=Point(0, 0), keywords=("kw00000",), k=1)
        with pytest.raises(ValueError):
            sp_search(
                engine.graph, engine.rtree, engine.inverted_index, None,
                engine.alpha_index, query,
            )


class TestFileFormats:
    def test_from_turtle_file(self, tmp_path):
        ttl = (
            "@prefix ex: <http://ex.org/> .\n"
            "@prefix geo: <http://www.opengis.net/ont/geosparql#> .\n"
            'ex:Spot geo:hasGeometry "POINT(1 1)" ;\n'
            '        ex:note "ancient ruins" .\n'
        )
        path = tmp_path / "data.ttl"
        path.write_text(ttl, encoding="utf-8")
        engine = KSPEngine.from_file(path, EngineConfig(alpha=1))
        result = engine.query((1, 1), ["ancient"], k=1)
        assert len(result) == 1

    def test_from_file_defaults_to_ntriples(self, tmp_path):
        path = tmp_path / "data.nt"
        path.write_text(EXAMPLE_NTRIPLES, encoding="utf-8")
        engine = KSPEngine.from_file(path, EngineConfig(alpha=1))
        assert engine.graph.place_count() == 2


class TestGeometryGaps:
    def test_max_distance_corners(self):
        rect = Rect(0, 0, 2, 2)
        assert rect.max_distance(Point(0, 0)) == pytest.approx(math.hypot(2, 2))
        assert rect.max_distance(Point(1, 1)) == pytest.approx(math.hypot(1, 1))

    def test_center(self):
        assert Rect(0, 0, 4, 2).center() == Point(2, 1)

    def test_contains_rect_partial(self):
        outer = Rect(0, 0, 10, 10)
        assert outer.contains_rect(Rect(1, 1, 2, 2))
        assert not outer.contains_rect(Rect(5, 5, 11, 6))


class TestEngineReportsOnLoadedState:
    def test_storage_report_after_load(self, tmp_path, example_graph):
        engine = KSPEngine(example_graph, EngineConfig(alpha=2))
        engine.save_snapshot(tmp_path / "e.snap")
        loaded = KSPEngine.from_snapshot(tmp_path / "e.snap")
        report = loaded.storage_report()
        assert report["reachability"] > 0
        assert report["alpha_index"] > 0
        dataset = loaded.dataset_report()
        assert dataset["places"] == 2
