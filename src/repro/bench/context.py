"""Shared state for the benchmark harness.

A :class:`BenchDataset` owns one synthetic corpus and all of its indexes
(alpha-radius indexes are built per alpha on demand and cached), generates
cached query workloads, and dispatches queries to any algorithm — including
the ablation variants that the engine facade does not expose.  All four
algorithms share one cache-less :class:`~repro.core.runtime.TQSPRuntime`,
so every figure runs the CSR kernel (and SP its field plan) without
paying a CSR build per query or reusing TQSP results across queries.

Scale knobs come from the environment so the same bench files serve quick
smoke runs and full reproductions:

* ``REPRO_BENCH_SCALE``   — vertices per corpus (default 8000)
* ``REPRO_BENCH_QUERIES`` — queries per data point (default 10; paper: 100)
* ``REPRO_BENCH_TIMEOUT`` — per-query abort in seconds (default 8; paper:
  120 s for BSP)
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.alpha.index import AlphaIndex
from repro.core.bsp import bsp_search
from repro.core.query import KSPQuery, KSPResult
from repro.core.ranking import DEFAULT_RANKING, RankingFunction
from repro.core.runtime import TQSPRuntime
from repro.core.sp import sp_search
from repro.core.spp import spp_search
from repro.core.stats import AggregateStats
from repro.core.ta import ta_search
from repro.datagen.profiles import DBPEDIA_LIKE, YAGO_LIKE, DatasetProfile
from repro.datagen.queries import QueryGenerator, WorkloadConfig
from repro.datagen.synthetic import generate_graph
from repro.rdf.csr import CSRAdjacency
from repro.rdf.graph import RDFGraph
from repro.reach.keyword import KeywordReachabilityIndex
from repro.spatial.rtree import RTree
from repro.text.inverted import InvertedIndex

DEFAULT_ALPHA = 3


def bench_scale() -> int:
    return int(os.environ.get("REPRO_BENCH_SCALE", "8000"))


def bench_query_count() -> int:
    return int(os.environ.get("REPRO_BENCH_QUERIES", "10"))


def bench_timeout() -> float:
    return float(os.environ.get("REPRO_BENCH_TIMEOUT", "8.0"))


class BenchDataset:
    """One corpus plus every index the four algorithms need."""

    def __init__(self, profile: DatasetProfile, graph: Optional[RDFGraph] = None):
        self.profile = profile
        self.build_seconds: Dict[str, float] = {}

        started = time.monotonic()
        self.graph = graph if graph is not None else generate_graph(profile)
        self.build_seconds["generate"] = time.monotonic() - started

        started = time.monotonic()
        self.runtime = TQSPRuntime(CSRAdjacency.from_graph(self.graph))
        self.build_seconds["csr_snapshot"] = time.monotonic() - started

        started = time.monotonic()
        self.inverted_index = InvertedIndex.build(self.graph)
        self.build_seconds["inverted_index"] = time.monotonic() - started

        started = time.monotonic()
        self.rtree = RTree.bulk_load(self.graph.places())
        self.build_seconds["rtree"] = time.monotonic() - started

        started = time.monotonic()
        self.reachability = KeywordReachabilityIndex(self.graph)
        self.build_seconds["reachability"] = time.monotonic() - started

        self._alpha_indexes: Dict[int, AlphaIndex] = {}
        self._workloads: Dict[Tuple, List[KSPQuery]] = {}

    # ------------------------------------------------------------------

    def alpha_index(self, alpha: int = DEFAULT_ALPHA) -> AlphaIndex:
        index = self._alpha_indexes.get(alpha)
        if index is None:
            started = time.monotonic()
            index = AlphaIndex(self.graph, self.rtree, alpha=alpha)
            self.build_seconds["alpha_index_%d" % alpha] = (
                time.monotonic() - started
            )
            self._alpha_indexes[alpha] = index
        return index

    def workload(
        self,
        kind: str = "O",
        count: Optional[int] = None,
        keyword_count: int = 5,
        k: int = 5,
        seed: int = 101,
    ) -> List[KSPQuery]:
        """A cached batch of queries of one class."""
        count = bench_query_count() if count is None else count
        key = (kind, count, keyword_count, k, seed)
        queries = self._workloads.get(key)
        if queries is None:
            # SDLL/LDLL keywords must be genuinely rare (the paper uses
            # df < 100 on 8M-document corpora): rare hosts keep the *global*
            # minimum looseness large, which is what makes these classes hard.
            config = WorkloadConfig(
                keyword_count=keyword_count,
                k=k,
                seed=seed,
                min_hops=3,
                max_hops=7,
                max_term_frequency=4,
            )
            generator = QueryGenerator(self.graph, self.inverted_index, config)
            queries = generator.workload(count, kind)
            self._workloads[key] = queries
        return queries

    # ------------------------------------------------------------------

    def run(
        self,
        query: KSPQuery,
        method: str,
        k: Optional[int] = None,
        alpha: int = DEFAULT_ALPHA,
        ranking: RankingFunction = DEFAULT_RANKING,
        timeout: Optional[float] = None,
        **ablation,
    ) -> KSPResult:
        """Answer ``query`` with one algorithm (ablation kwargs pass through)."""
        if k is not None and k != query.k:
            query = dataclasses.replace(query, k=k)
        timeout = bench_timeout() if timeout is None else timeout
        method = method.lower()
        if method == "bsp":
            return bsp_search(
                self.graph, self.rtree, self.inverted_index, query,
                ranking=ranking, timeout=timeout, runtime=self.runtime,
            )
        if method == "spp":
            return spp_search(
                self.graph, self.rtree, self.inverted_index, self.reachability,
                query, ranking=ranking, timeout=timeout,
                runtime=self.runtime, **ablation,
            )
        if method == "sp":
            return sp_search(
                self.graph, self.rtree, self.inverted_index, self.reachability,
                self.alpha_index(alpha), query, ranking=ranking,
                timeout=timeout, runtime=self.runtime, **ablation,
            )
        if method == "ta":
            return ta_search(
                self.graph, self.rtree, self.inverted_index, query,
                ranking=ranking, timeout=timeout, runtime=self.runtime,
            )
        raise ValueError("unknown method %r" % method)

    def aggregate(
        self,
        queries: Sequence[KSPQuery],
        method: str,
        k: Optional[int] = None,
        alpha: int = DEFAULT_ALPHA,
        timeout: Optional[float] = None,
        **ablation,
    ) -> AggregateStats:
        """Run a batch of queries and average the execution statistics."""
        aggregate = AggregateStats()
        for query in queries:
            result = self.run(
                query, method, k=k, alpha=alpha, timeout=timeout, **ablation
            )
            aggregate.add(result.stats)
        return aggregate

    def describe(self) -> Dict[str, float]:
        return {
            "vertices": self.graph.vertex_count,
            "edges": self.graph.edge_count,
            "places": self.graph.place_count(),
            "vocabulary": self.inverted_index.vocabulary_size(),
            "avg_posting_length": self.inverted_index.average_posting_length(),
        }


_DATASETS: Dict[Tuple[str, int], BenchDataset] = {}

_PROFILES = {"dbpedia": DBPEDIA_LIKE, "yago": YAGO_LIKE}


def dataset(name: str, scale: Optional[int] = None) -> BenchDataset:
    """The cached bench dataset for ``"dbpedia"`` or ``"yago"``."""
    scale = bench_scale() if scale is None else scale
    key = (name, scale)
    if key not in _DATASETS:
        profile = _PROFILES[name].scaled(scale)
        _DATASETS[key] = BenchDataset(profile)
    return _DATASETS[key]


def dataset_from_graph(name: str, profile: DatasetProfile, graph: RDFGraph) -> BenchDataset:
    """A (cached) dataset over an externally supplied graph, e.g. a
    random-jump sample for the scalability bench."""
    key = (name, graph.vertex_count)
    if key not in _DATASETS:
        _DATASETS[key] = BenchDataset(profile, graph=graph)
    return _DATASETS[key]
