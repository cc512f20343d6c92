"""Ablation — storage back-ends.

Two comparisons the paper discusses but does not plot:

* **Memory-resident vs disk-resident data graph** (Section 1 footnote 1 /
  Section 8 future work): SPP query latency with the TQSP kernel on an
  in-memory CSR snapshot vs on the CSR view a snapshot-opened engine
  serves from (``KSPEngine.from_snapshot(path).csr``), whose arrays the
  OS pages in and out.
* **One-by-one R-tree insertion vs STR bulk loading** (the Table 5
  discussion: "the cost can be drastically reduced if bulk loading was
  used"): build time of both, and query cost over both trees.
"""

import tempfile
import time
from pathlib import Path


from repro.bench.context import DEFAULT_ALPHA, dataset
from repro.bench.tables import Table
from repro.core.engine import KSPEngine
from repro.core.runtime import TQSPRuntime
from repro.core.sp import sp_search
from repro.core.spp import spp_search
from repro.alpha.index import AlphaIndex
from repro.spatial.rtree import RTree
from repro.storage.snapshot import write_snapshot


def _disk_graph_comparison():
    ds = dataset("dbpedia")
    queries = ds.workload("O", keyword_count=5, k=5)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dbpedia.snap"
        write_snapshot(
            path,
            ds.graph,
            ds.inverted_index,
            ds.rtree,
            alpha=DEFAULT_ALPHA,
            undirected=False,
            rtree_max_entries=ds.rtree.max_entries,
        )
        disk = KSPEngine.from_snapshot(path)
        # Both sides reuse the in-memory R-tree, inverted and
        # reachability indexes (they are graph-content-equal); the
        # backends differ in the graph store and the CSR the kernel reads.
        backends = {
            "memory": (ds.graph, ds.runtime),
            "snapshot (mmap)": (disk.graph, TQSPRuntime(csr=disk.csr)),
        }

        def timed(backend, query):
            graph, runtime = backends[backend]
            started = time.monotonic()
            result = spp_search(
                graph, ds.rtree, ds.inverted_index, ds.reachability, query,
                runtime=runtime,
            )
            return time.monotonic() - started, result.roots()

        # Warm both backends (page the mmap in, settle allocator and
        # interpreter caches) so neither side pays the warm-up alone.
        for backend in backends:
            for query in queries:
                timed(backend, query)
        totals = dict.fromkeys(backends, 0.0)
        results_match = True
        for index, query in enumerate(queries):
            # Alternate which side runs first, so ordering cancels out.
            order = list(backends) if index % 2 == 0 else list(backends)[::-1]
            roots = {}
            for backend in order:
                seconds, roots[backend] = timed(backend, query)
                totals[backend] += seconds
            if roots["memory"] != roots["snapshot (mmap)"]:
                results_match = False
        table = Table(
            "Memory vs disk-resident CSR adjacency (SPP queries)",
            ["backend", "runtime_ms", "csr_bytes"],
        )
        for backend, (_, runtime) in backends.items():
            table.add_row(
                backend,
                1000 * totals[backend] / len(queries),
                runtime.csr.size_bytes(),
            )
    return table, totals["memory"], totals["snapshot (mmap)"], results_match


def test_disk_resident_graph(benchmark, emit):
    table, memory_total, disk_total, results_match = benchmark.pedantic(
        _disk_graph_comparison, rounds=1, iterations=1
    )
    emit("ablation_disk_graph", table)
    assert results_match  # identical answers on both backends
    # The disk backend pays a bounded penalty, not an order of magnitude.
    assert disk_total < 60 * max(memory_total, 1e-3)


def _rtree_loading_comparison():
    ds = dataset("yago")
    places = list(ds.graph.places())

    started = time.monotonic()
    bulk_tree = RTree.bulk_load(places)
    bulk_build = time.monotonic() - started

    started = time.monotonic()
    insert_tree = RTree()
    for key, point in places:
        insert_tree.insert(key, point)
    insert_build = time.monotonic() - started

    queries = ds.workload("O", keyword_count=5, k=5)
    table = Table(
        "STR bulk loading vs one-by-one insertion (R-tree over %d places)"
        % len(places),
        ["strategy", "build_s", "nodes", "sp_runtime_ms", "sp_node_accesses"],
    )
    data = {}
    for label, tree, build_seconds in (
        ("STR bulk load", bulk_tree, bulk_build),
        ("one-by-one insert", insert_tree, insert_build),
    ):
        alpha_index = AlphaIndex(ds.graph, tree, alpha=2)
        total = 0.0
        accesses = 0
        for query in queries:
            result = sp_search(
                ds.graph, tree, ds.inverted_index, ds.reachability,
                alpha_index, query, runtime=ds.runtime,
            )
            total += result.stats.runtime_seconds
            accesses += result.stats.rtree_node_accesses
        table.add_row(
            label,
            build_seconds,
            tree.node_count(),
            1000 * total / len(queries),
            accesses / len(queries),
        )
        data[label] = (build_seconds, tree.node_count())
    return table, data


def test_rtree_bulk_loading(benchmark, emit):
    table, data = benchmark.pedantic(_rtree_loading_comparison, rounds=1, iterations=1)
    emit("ablation_rtree_loading", table)
    bulk_build, bulk_nodes = data["STR bulk load"]
    insert_build, insert_nodes = data["one-by-one insert"]
    # Bulk loading is drastically cheaper (the paper's Table 5 remark) and
    # packs the tree into no more nodes than dynamic insertion.
    assert bulk_build < insert_build
    assert bulk_nodes <= insert_nodes
