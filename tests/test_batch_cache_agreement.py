"""Serving-stack agreement suite.

The serving path (shared TQSP cache + batched executor) must be
behavior-identical to one query at a time on a cache-less engine: same
places, same scores, same looseness, same keyword vertices, same paths —
for every algorithm, both edge-direction modes, cold or warm cache,
sequential or threaded.  (Both run the one CSR kernel; its agreement with
a plain generator BFS is tests/test_csr_kernel.py's job.)

Over 50 randomized queries run against both engine configurations; any
divergence in the ranked output is a bug in the cache's threshold
interplay or the executor's thread handling.
"""

import random

import pytest

from repro.core.engine import KSPEngine
from repro.core.query import KSPQuery
from repro.rdf.graph import RDFGraph
from repro.spatial.geometry import Point
from repro.core.config import EngineConfig, QueryOptions

TERMS = ["alpha", "beta", "gamma", "delta", "epsilon"]
METHODS = ("bsp", "spp", "sp", "ta")


def build_graph(seed, vertex_count=60, edge_factor=2.5, place_share=0.35):
    rng = random.Random(seed)
    graph = RDFGraph()
    for index in range(vertex_count):
        document = frozenset(
            rng.sample(TERMS, rng.randint(0, min(3, len(TERMS))))
        )
        location = None
        if rng.random() < place_share:
            location = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
        graph.add_vertex("v%d" % index, document=document, location=location)
    for _ in range(int(vertex_count * edge_factor)):
        a = rng.randrange(vertex_count)
        b = rng.randrange(vertex_count)
        if a != b:
            graph.add_edge(a, b)
    return graph


def random_queries(rng, count):
    queries = []
    for _ in range(count):
        keywords = tuple(rng.sample(TERMS, rng.randint(1, 3)))
        queries.append(
            KSPQuery(
                location=Point(rng.uniform(-5, 5), rng.uniform(-5, 5)),
                keywords=keywords,
                k=rng.randint(1, 4),
            )
        )
    return queries


def fingerprint(result):
    """Everything the ISSUE demands agreement on, plus the TQSP paths."""
    return [
        (
            place.root,
            round(place.score, 9),
            place.looseness,
            place.keyword_vertices,
            place.paths,
        )
        for place in result
    ]


@pytest.fixture(scope="module")
def engines():
    """(uncached, cached) engine pairs per direction mode over one shared
    graph; the uncached engine answers one query at a time."""
    graph = build_graph(1401)
    pairs = {}
    for undirected in (False, True):
        seed = KSPEngine(
            graph,
            EngineConfig(alpha=2, undirected=undirected, tqsp_cache_size=0),
        )
        fast = KSPEngine(graph, EngineConfig(alpha=2, undirected=undirected))
        pairs[undirected] = (seed, fast)
    return pairs


class TestCachedVsUncached:
    @pytest.mark.parametrize("undirected", [False, True])
    @pytest.mark.parametrize("method", METHODS)
    def test_fast_path_matches_seed_path(self, engines, method, undirected):
        # 8 queries x 4 methods x 2 modes = 64 randomized queries, each
        # also re-run warm: the first pass populates the shared cache,
        # the second must answer from it with identical output.
        seed_engine, fast_engine = engines[undirected]
        rng = random.Random(hash((method, undirected)) & 0xFFFF)
        for index, query in enumerate(random_queries(rng, 8)):
            expected = fingerprint(seed_engine.query(query, method=method))
            cold = fast_engine.query(query, method=method)
            assert fingerprint(cold) == expected, (method, undirected, index)
            warm = fast_engine.query(query, method=method)
            assert fingerprint(warm) == expected, (method, undirected, index)

    def test_warm_cache_answers_without_bfs(self, engines):
        _, fast_engine = engines[False]
        query = KSPQuery(
            location=Point(0.5, -0.5), keywords=("alpha", "beta"), k=3
        )
        fast_engine.query(query, method="sp")
        warm = fast_engine.query(query, method="sp")
        stats = warm.stats
        assert stats.cache_hits > 0
        assert stats.vertices_visited == 0


class TestBatchedVsSequential:
    @pytest.mark.parametrize("method", METHODS)
    def test_batch_matches_sequential_seed(self, engines, method):
        seed_engine, fast_engine = engines[False]
        rng = random.Random(2025)
        base = random_queries(rng, 15)
        # Repeat the workload so the shared cache sees every keyword set
        # again mid-batch, across worker threads.
        workload = base + [
            KSPQuery(
                location=Point(q.location.x + 0.1, q.location.y - 0.1),
                keywords=q.keywords,
                k=q.k,
            )
            for q in base
        ]
        expected = [
            fingerprint(seed_engine.query(q, method=method)) for q in workload
        ]
        report = fast_engine.query_batch(
            workload, workers=4, options=QueryOptions(method=method)
        )
        assert len(report.results) == len(workload)
        assert [fingerprint(r) for r in report.results] == expected

    def test_single_worker_batch_matches_threaded(self, engines):
        _, fast_engine = engines[True]
        workload = random_queries(random.Random(77), 12)
        opts = QueryOptions(method="spp")
        threaded = fast_engine.query_batch(workload, workers=4, options=opts)
        sequential = fast_engine.query_batch(workload, workers=1, options=opts)
        assert [fingerprint(r) for r in threaded.results] == [
            fingerprint(r) for r in sequential.results
        ]

    def test_report_accounting(self, engines):
        _, fast_engine = engines[False]
        workload = random_queries(random.Random(3), 6) * 2
        report = fast_engine.query_batch(workload, workers=3, options=QueryOptions(method="sp"))
        assert report.workers == 3
        assert report.method == "sp"
        assert report.wall_seconds > 0
        assert report.queries_per_second > 0
        totals = report.counter_totals()
        assert totals["cache_hits"] > 0
        assert "cache:" in report.summary()

    def test_rejects_zero_workers(self, engines):
        _, fast_engine = engines[False]
        with pytest.raises(ValueError):
            fast_engine.query_batch(
                random_queries(random.Random(4), 2), workers=0
            )
