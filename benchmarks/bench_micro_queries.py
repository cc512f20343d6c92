"""Micro-benchmarks: steady-state per-query latency of each algorithm at
the paper defaults (k = 5, |q.psi| = 5).  These use pytest-benchmark's
repeated measurement (unlike the one-shot sweep benches), so their
statistics table gives calibrated medians/stddevs per method.
"""

import itertools

import pytest

from repro.bench.context import dataset


def _query_cycler(ds, keyword_count=5):
    queries = ds.workload("O", keyword_count=keyword_count, k=5)
    return itertools.cycle(queries)


@pytest.mark.parametrize("name", ["dbpedia", "yago"])
@pytest.mark.parametrize("method", ["spp", "sp", "ta"])
def test_query_latency(benchmark, name, method):
    ds = dataset(name)
    ds.alpha_index(3)
    cycler = _query_cycler(ds)

    def run_one():
        return ds.run(next(cycler), method, k=5)

    result = benchmark(run_one)
    assert result is not None


@pytest.mark.parametrize("name", ["dbpedia", "yago"])
def test_bsp_query_latency(benchmark, name):
    # BSP is orders of magnitude slower; measure it with a single round so
    # the micro bench stays bounded.
    ds = dataset(name)
    cycler = _query_cycler(ds)

    def run_one():
        return ds.run(next(cycler), "bsp", k=5)

    result = benchmark.pedantic(run_one, rounds=3, iterations=1)
    assert result is not None


@pytest.mark.parametrize("name", ["dbpedia", "yago"])
def test_tqsp_construction_latency(benchmark, name):
    """Cost of one GetSemanticPlace call (Algorithm 2) from a random place."""
    from repro.core.semantic_place import SemanticPlaceSearcher
    from repro.text.inverted import build_query_map

    ds = dataset(name)
    queries = ds.workload("O", keyword_count=5, k=5)
    searcher = SemanticPlaceSearcher(ds.graph, runtime=ds.runtime)
    places = [place for place, _ in ds.graph.places()]
    pairs = itertools.cycle(
        (query, place)
        for query, place in zip(queries, places[:: max(1, len(places) // len(queries))])
    )

    def run_one():
        query, place = next(pairs)
        query_map = build_query_map(ds.inverted_index, query.keywords)
        return searcher.tightest(query.keywords, place, query_map)

    result = benchmark(run_one)
    assert result is not None
