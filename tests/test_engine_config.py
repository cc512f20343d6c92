"""The frozen public API surface: ``EngineConfig`` / ``QueryOptions``.

The historic kwarg spellings (``KSPEngine(graph, alpha=2)``, ``run()``,
``query_batch(..., method=...)``) were removed after their deprecation
cycle; unknown kwargs now fail like any other bad argument.
"""

import dataclasses

import pytest

from repro.core.config import EngineConfig, QueryOptions
from repro.core.engine import KSPEngine
from repro.datagen.paper_example import EXAMPLE_KEYWORDS, Q1, build_example_graph


class TestEngineConfig:
    def test_frozen(self):
        config = EngineConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.alpha = 5  # repro-lint: allow[RL003] asserts the mutation raises

    def test_replace_returns_new_instance(self):
        base = EngineConfig()
        changed = base.replace(alpha=7, undirected=True)
        assert (changed.alpha, changed.undirected) == (7, True)
        assert (base.alpha, base.undirected) == (3, False)

    def test_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(alpha=-1)
        with pytest.raises(ValueError):
            EngineConfig(rtree_max_entries=1)
        with pytest.raises(ValueError):
            EngineConfig(reach_method="magic")
        with pytest.raises(ValueError):
            EngineConfig(tqsp_cache_size=-1)
        with pytest.raises(ValueError):
            EngineConfig(workers=0)

    def test_engine_reads_config(self):
        engine = KSPEngine(
            build_example_graph(), EngineConfig(alpha=2, undirected=True)
        )
        assert engine.config.alpha == 2
        assert engine.alpha == 2  # back-compat attribute mirrors config
        assert engine.undirected is True


class TestLegacyKwargsRemoved:
    def test_constructor_rejects_historic_kwargs(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            KSPEngine(build_example_graph(), alpha=2)
        # One TQSP kernel: the switch back to the generator traversal is gone.
        with pytest.raises(TypeError, match="unexpected keyword"):
            EngineConfig(use_csr_kernel=False)

    def test_run_alias_is_gone(self):
        engine = KSPEngine(build_example_graph(), EngineConfig(alpha=2))
        assert not hasattr(engine, "run")

    def test_query_batch_rejects_method_kwarg(self):
        engine = KSPEngine(build_example_graph(), EngineConfig(alpha=2))
        from repro.core.query import KSPQuery

        queries = [KSPQuery(location=Q1, keywords=EXAMPLE_KEYWORDS, k=1)]
        with pytest.raises(TypeError, match="unexpected keyword"):
            engine.query_batch(queries, workers=1, method="bsp")
        report = engine.query_batch(
            queries, workers=1, options=QueryOptions(method="bsp")
        )
        assert len(report.results) == 1
        assert report.method == "bsp"

    def test_cursor_rejects_timeout_kwarg(self):
        engine = KSPEngine(build_example_graph(), EngineConfig(alpha=3))
        with pytest.raises(TypeError, match="unexpected keyword"):
            engine.cursor(Q1, EXAMPLE_KEYWORDS, timeout=30.0)
        cursor = engine.cursor(
            Q1, EXAMPLE_KEYWORDS, options=QueryOptions(timeout=30.0)
        )
        assert cursor.take(1)


class TestQueryOptions:
    def test_frozen_defaults(self):
        options = QueryOptions()
        assert (options.k, options.method, options.timeout) == (5, None, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            options.k = 9  # repro-lint: allow[RL003] asserts the mutation raises

    def test_replace(self):
        options = QueryOptions().replace(method="bsp", request_id="r1")
        assert (options.method, options.request_id) == ("bsp", "r1")

    def test_options_flow_through_query(self):
        engine = KSPEngine(build_example_graph(), EngineConfig(alpha=3))
        result = engine.query(
            Q1,
            EXAMPLE_KEYWORDS,
            options=QueryOptions(k=1, method="bsp", request_id="opt-1"),
        )
        assert len(result) == 1
        assert result.stats.algorithm == "BSP"
        assert result.request_id == "opt-1"

    def test_kwargs_override_options(self):
        engine = KSPEngine(build_example_graph(), EngineConfig(alpha=3))
        result = engine.query(
            Q1, EXAMPLE_KEYWORDS, k=2, options=QueryOptions(k=1, method="sp")
        )
        assert len(result) == 2


class TestOneTQSPKernel:
    """Every constructor wires the CSR kernel: no engine runs without one."""

    def test_in_memory_engine(self):
        engine = KSPEngine(build_example_graph(), EngineConfig(alpha=3))
        assert engine.csr is not None
        assert engine._runtime.csr is engine.csr

    def test_snapshot_engine(self, tmp_path):
        path = tmp_path / "example.snap"
        KSPEngine(build_example_graph(), EngineConfig(alpha=3)).save_snapshot(path)
        engine = KSPEngine.from_snapshot(path)
        assert engine.csr is not None
        assert engine._runtime.csr is engine.csr
        assert engine.storage_report()["csr_snapshot"] == engine.csr.size_bytes()

    def test_every_in_process_shard_engine(self, tmp_path):
        from repro.shard import ShardRouter, build_shards

        config = EngineConfig(alpha=3)
        build_shards(build_example_graph(), tmp_path, 2, config=config)
        router = ShardRouter(tmp_path, config)
        assert len(router.engines) == 2
        for engine in router.engines:
            assert engine.csr is not None
            assert engine._runtime.csr is engine.csr
