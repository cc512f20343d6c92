"""Shared fixtures: the paper's Figure 1 example and small synthetic
corpora with their engines (session-scoped — index construction is the
expensive part)."""

from __future__ import annotations

import pytest

from repro.core.engine import KSPEngine
from repro.datagen.paper_example import build_example_graph
from repro.datagen.profiles import TINY_DBPEDIA, TINY_YAGO
from repro.datagen.synthetic import generate_graph
from repro.core.config import EngineConfig


@pytest.fixture(scope="session")
def example_graph():
    return build_example_graph()


@pytest.fixture(scope="session")
def example_engine(example_graph):
    return KSPEngine(example_graph, EngineConfig(alpha=3))


@pytest.fixture(scope="session")
def tiny_dbpedia_graph():
    return generate_graph(TINY_DBPEDIA)


@pytest.fixture(scope="session")
def tiny_yago_graph():
    return generate_graph(TINY_YAGO)


@pytest.fixture(scope="session")
def tiny_dbpedia_engine(tiny_dbpedia_graph):
    return KSPEngine(tiny_dbpedia_graph, EngineConfig(alpha=3))


@pytest.fixture(scope="session")
def tiny_yago_engine(tiny_yago_graph):
    return KSPEngine(tiny_yago_graph, EngineConfig(alpha=3))


@pytest.fixture(scope="session")
def reopened(tmp_path_factory):
    """``reopened(graph)``: the engine opened from a fresh snapshot of
    ``graph`` (inverted file and R-tree only), so its ``graph`` and
    ``inverted_index`` serve from the mapped file."""

    def _reopen(graph):
        path = tmp_path_factory.mktemp("snap") / "graph.snap"
        config = EngineConfig(build_reachability=False, build_alpha=False)
        KSPEngine(graph, config).save_snapshot(path)
        return KSPEngine.from_snapshot(path)

    return _reopen
