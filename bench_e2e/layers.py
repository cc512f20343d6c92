"""Per-layer numbers of the engine layers (``core``, ``rdf``, ``reach``,
``alpha``, ``spatial``, ``text``, ``obs``), shared by every workload.

Times and per-operation counts come from the spans of the traced half of
the loop; the inputs are fixed by the seed, so the counts repeat exactly
wherever the program itself is deterministic.  A few numbers no span can
give are taken by replaying an operation's inputs straight into the
layer's public function once the loop has ended.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from bench_e2e.harness import Ledger
from bench_e2e.measure import mean, ratio
from bench_e2e.spans import SpanTable

NN_PLACES = 64  # places pulled per nearest-neighbour replay
CURSOR_PLACES = 5
REPLAY_OPS = 40
FACADE_OPS = 100
FACADE_REPEATS = 3


def cache_counters(engines: Iterable) -> Dict[str, int]:
    """Summed TQSP-cache counters of the engines (atomic per engine)."""
    total = {"hits": 0, "misses": 0, "bound_reuses": 0}
    for engine in engines:
        if engine.tqsp_cache is not None:
            counters = engine.tqsp_cache.counters()
            for key in total:
                total[key] += counters[key]
    return total


def cache_hit_share(before: Mapping[str, int], after: Mapping[str, int]) -> float:
    reused = (after["hits"] - before["hits"]) + (
        after["bound_reuses"] - before["bound_reuses"]
    )
    return ratio(reused, reused + after["misses"] - before["misses"])


#: Which workloads must produce a per-layer metric, by name prefix (first
#: match wins); everywhere else the layer does not run and the metric reads
#: 0.  ``run.py`` fails a traced run whose metrics are not exactly these.
ENGINE_WORKLOADS = ("lib_cold", "http_warm", "shard_scatter", "sparql_topk")
OWNERS = (
    ("serve.", ("http_warm",)),
    ("shard.", ("shard_scatter",)),
    ("sparql.", ("sparql_topk",)),
    ("storage.bytes_", ENGINE_WORKLOADS),
    ("storage.", ("lib_cold",)),
    ("rdf.parse_s", ("lib_cold",)),
    ("rdf.csr_build_s", ("lib_cold",)),
    ("text.build_s", ("lib_cold",)),
    ("spatial.bulk_load_s", ("lib_cold",)),
    ("reach.build_s", ("lib_cold",)),
    ("alpha.build_s", ("lib_cold",)),
    # SPARQL statements stream from a cursor: no ``engine.query`` span, and
    # replies carry no QueryStats to take the rule counters from.
    ("core.query_self_ms", ("lib_cold", "http_warm", "shard_scatter")),
    ("reach.pruned_share", ("lib_cold", "http_warm", "shard_scatter")),
    ("alpha.pruned_share", ("lib_cold", "http_warm", "shard_scatter")),
    ("", ENGINE_WORKLOADS),
)


def owned(workload: str, names: Iterable[str]) -> set:
    """The per-layer metric names ``workload`` has to produce."""
    return {
        name
        for name in names
        if workload in next(owners for prefix, owners in OWNERS if name.startswith(prefix))
    }


def engine_layers(
    spans: Sequence[Sequence],
    ledger: Ledger,
    stats: Mapping[int, Mapping[str, float]],
) -> Dict[str, float]:
    """``stats`` maps a traced op id to the ``QueryStats`` dict its reply
    carried (absent where the surface returns none, e.g. SPARQL)."""
    op_ids = [record.op_id for record in ledger.records if record.traced]
    table = SpanTable(spans, op_ids)
    counted = [stats[op] for op in op_ids if op in stats]

    def summed(key: str) -> float:
        return sum(row[key] for row in counted)

    metrics = {
        "core.query_self_ms": 1e3
        * table.per_op(table.total_self("core.query") + table.total_self("shard.exec")),
        "core.tqsp_ms": 1e3 * table.per_op(table.total("core.tqsp")),
        "core.tqsp_calls": table.per_op(table.count("core.tqsp")),
        "core.rule2_abort_share": ratio(
            table.total_value("core.tqsp"), table.count("core.tqsp")
        ),
        "core.cache_lookup_us": 1e6 * table.mean("core.cache"),
        "rdf.bfs_ms": 1e3 * table.per_op(table.total("rdf.bfs")),
        "rdf.bfs_vertices": table.per_op(table.total_value("rdf.bfs")),
        "rdf.bfs_vertices_per_ms": ratio(
            table.total_value("rdf.bfs"), 1e3 * table.total("rdf.bfs")
        ),
        "reach.probe_us": 1e6 * table.mean("reach.probe"),
        "reach.probes": table.per_op(table.total_value("reach.probe")),
        "alpha.view_us": 1e6 * table.mean("alpha.view"),
        "alpha.bound_us": 1e6 * table.mean("alpha.bound"),
        "alpha.bound_calls": table.per_op(table.count("alpha.bound")),
    }
    if counted:
        metrics["reach.pruned_share"] = ratio(summed("pruned_rule1"), summed("places_retrieved"))
        metrics["alpha.pruned_share"] = ratio(
            summed("pruned_rule3") + summed("pruned_rule4"), table.count("alpha.bound")
        )
        metrics["spatial.node_accesses"] = mean([row["rtree_node_accesses"] for row in counted])
    return metrics


def engine_replays(engine, queries: Sequence) -> Tuple[Dict[str, float], float]:
    """Numbers taken by calling one layer's public function directly, on
    the inputs of operations the loop has already answered (the TQSP
    cache is warm for them, which is what isolates the fixed costs).

    Also returns the cursor replay's mean R-tree node accesses, which
    stands in for ``spatial.node_accesses`` where replies carry no
    ``QueryStats`` (SPARQL)."""
    from repro.core.runtime import TQSPRuntime
    from repro.core.sp import sp_search
    from repro.text.inverted import build_query_map, order_rarest_first

    queries = list(queries)
    sample = queries[:REPLAY_OPS]
    out: Dict[str, float] = {}

    elapsed = 0.0
    pulled = 0
    node_accesses = []
    for query in sample:
        cursor = engine.cursor(query.location, query.keywords)
        started = time.perf_counter()
        places = cursor.take(CURSOR_PLACES)
        elapsed += time.perf_counter() - started
        pulled += len(places)
        node_accesses.append(cursor.stats.rtree_node_accesses)
    out["core.cursor_next_ms"] = 1e3 * ratio(elapsed, pulled)

    tightness = []
    ranking = engine.config.ranking
    for query in sample:
        view = engine.alpha_index.query_view(query.keywords)
        for place in engine.query(query).places:
            bound = ranking.bound(view.place_looseness_bound(place.root), place.distance)
            tightness.append(ratio(bound, place.score))
    out["alpha.bound_tightness"] = mean(tightness)

    elapsed = 0.0
    pulled = 0
    for query in sample:
        started = time.perf_counter()
        for pulled_here, _ in enumerate(engine.rtree.nearest(query.location), start=1):
            if pulled_here == NN_PLACES:
                break
        elapsed += time.perf_counter() - started
        pulled += pulled_here
    out["spatial.nn_us_per_place"] = 1e6 * ratio(elapsed, pulled)

    started = time.perf_counter()
    for query in sample:
        build_query_map(engine.inverted_index, query.keywords)
        order_rarest_first(engine.inverted_index, query.keywords)
    out["text.query_map_us"] = 1e6 * (time.perf_counter() - started) / len(sample)

    # engine.query against the bare algorithm on the same indexes and the
    # same cache: the difference is options, metrics and flight recorder.
    runtime = TQSPRuntime(csr=engine.csr, cache=engine.tqsp_cache)

    def through_engine(query) -> None:
        engine.query(query)

    def bare_algorithm(query) -> None:
        sp_search(
            engine.graph,
            engine.rtree,
            engine.inverted_index,
            engine.reachability,
            engine.alpha_index,
            query,
            ranking=ranking,
            undirected=engine.undirected,
            runtime=runtime,
        )

    spent = {through_engine: 0.0, bare_algorithm: 0.0}
    for number, query in enumerate(queries[:FACADE_OPS]):
        engine.query(query)  # both timed calls must find it cached
        order = (through_engine, bare_algorithm)
        for call in order if number % 2 == 0 else reversed(order):
            best = float("inf")
            for _ in range(FACADE_REPEATS):  # the difference is tens of
                started = time.perf_counter()  # microseconds: keep the quietest
                call(query)
                best = min(best, time.perf_counter() - started)
            spent[call] += best
    facade, bare = spent[through_engine], spent[bare_algorithm]
    out["obs.facade_share"] = ratio(facade - bare, facade)
    return out, mean(node_accesses)


def snapshot_sections(paths: Iterable) -> Dict[str, float]:
    """``storage.bytes_*`` from the section tables of snapshot files."""
    from repro.storage.snapshot import SnapshotFile

    groups = {"alpha": 0, "reach": 0, "graph": 0, "text": 0, "rtree": 0}
    prefixes = {
        "alpha.": "alpha",
        "reach.": "reach",
        "graph.": "graph",
        "vocab.": "text",
        "inverted.": "text",
        "rtree.": "rtree",
    }
    total = 0
    for path in paths:
        with SnapshotFile(path) as snapshot:
            total += snapshot.size_bytes
            for name in snapshot.names():
                for prefix, group in prefixes.items():
                    if name.startswith(prefix):
                        groups[group] += snapshot.section_length(name)
    out = {"storage.bytes_total": float(total)}
    out.update({"storage.bytes_%s" % group: float(size) for group, size in groups.items()})
    return out
