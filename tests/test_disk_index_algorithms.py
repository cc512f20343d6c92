"""All four algorithms driven by the disk-resident inverted index —
the paper's 'commercial search engine' setting where posting lists are
fetched from disk per query: the snapshot's inverted file, decoded from
the mapped pages on demand."""

import pytest

from repro.core.bsp import bsp_search
from repro.core.engine import KSPEngine
from repro.core.sp import sp_search
from repro.core.spp import spp_search
from repro.core.ta import ta_search
from repro.datagen.queries import QueryGenerator, WorkloadConfig
from repro.storage.snapshot import SnapshotInvertedIndex


@pytest.fixture(scope="module")
def disk_index(tiny_dbpedia_engine, tmp_path_factory):
    path = tmp_path_factory.mktemp("disk") / "dbpedia.snap"
    tiny_dbpedia_engine.save_snapshot(path)
    index = KSPEngine.from_snapshot(path).inverted_index
    assert isinstance(index, SnapshotInvertedIndex)
    return index


@pytest.fixture(scope="module")
def workload(tiny_dbpedia_engine):
    generator = QueryGenerator(
        tiny_dbpedia_engine.graph,
        tiny_dbpedia_engine.inverted_index,
        WorkloadConfig(keyword_count=3, k=3, seed=91),
    )
    return generator.workload(4, "O")


def signature(result):
    return [(p.root, round(p.score, 9)) for p in result]


class TestDiskIndexDrivesAlgorithms:
    def test_bsp(self, tiny_dbpedia_engine, disk_index, workload):
        engine = tiny_dbpedia_engine
        for query in workload:
            got = bsp_search(engine.graph, engine.rtree, disk_index, query)
            assert signature(got) == signature(engine.query(query, method="bsp"))

    def test_spp(self, tiny_dbpedia_engine, disk_index, workload):
        engine = tiny_dbpedia_engine
        for query in workload:
            got = spp_search(
                engine.graph, engine.rtree, disk_index, engine.reachability, query
            )
            assert signature(got) == signature(engine.query(query, method="spp"))

    def test_sp(self, tiny_dbpedia_engine, disk_index, workload):
        engine = tiny_dbpedia_engine
        for query in workload:
            got = sp_search(
                engine.graph, engine.rtree, disk_index, engine.reachability,
                engine.alpha_index, query,
            )
            assert signature(got) == signature(engine.query(query, method="sp"))

    def test_ta(self, tiny_dbpedia_engine, disk_index, workload):
        engine = tiny_dbpedia_engine
        for query in workload:
            got = ta_search(engine.graph, engine.rtree, disk_index, query)
            assert signature(got) == signature(engine.query(query, method="ta"))
