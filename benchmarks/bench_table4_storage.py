"""Table 4 — storage cost of the R-tree, RDF graph and inverted index.

Paper values (8M-vertex corpora): DBpedia 50.54 MB / 607.95 MB / 1307.98 MB
and Yago 273.17 MB / 454.81 MB / 231.91 MB.  Expected shape at our scale:
the Yago-like R-tree is far larger than the DBpedia-like one (5.4x more
places) while its inverted index is far smaller (low keyword frequency).
"""

import tempfile
from pathlib import Path

from repro.bench.context import DEFAULT_ALPHA, dataset
from repro.bench.tables import Table
from repro.storage.snapshot import SnapshotFile, write_snapshot


def _measure():
    table = Table(
        "Table 4: storage cost (bytes)",
        ["dataset", "rtree", "rdf_graph", "inverted_index", "inverted_on_disk"],
    )
    measurements = {}
    for name in ("dbpedia", "yago"):
        ds = dataset(name)
        rtree_bytes = ds.rtree.size_bytes()
        graph_bytes = ds.graph.size_bytes()
        inverted_bytes = ds.inverted_index.size_bytes()
        # On disk, the inverted file is the snapshot's directory and its
        # gap + varint posting blobs.
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / ("%s.snap" % name)
            write_snapshot(
                path,
                ds.graph,
                ds.inverted_index,
                ds.rtree,
                alpha=DEFAULT_ALPHA,
                undirected=False,
                rtree_max_entries=ds.rtree.max_entries,
            )
            with SnapshotFile(path) as snapshot:
                disk_bytes = snapshot.section_length(
                    "inverted.dir"
                ) + snapshot.section_length("inverted.postings")
        table.add_row(name, rtree_bytes, graph_bytes, inverted_bytes, disk_bytes)
        measurements[name] = (rtree_bytes, graph_bytes, inverted_bytes)
    table.add_note(
        "paper (8M vertices): dbpedia 50.54/607.95/1307.98 MB, "
        "yago 273.17/454.81/231.91 MB"
    )
    return table, measurements


def test_table4_storage(benchmark, emit):
    table, measurements = benchmark.pedantic(_measure, rounds=1, iterations=1)
    emit("table4_storage", table)
    dbpedia, yago = measurements["dbpedia"], measurements["yago"]
    # Shape: Yago's R-tree dwarfs DBpedia's (many more places)...
    assert yago[0] > 2 * dbpedia[0]
    # ...while DBpedia's inverted index dwarfs Yago's per-vertex share
    # (keyword frequency 52 vs 8).
    assert dbpedia[2] / dbpedia[1] > yago[2] / yago[1]
    for values in measurements.values():
        assert all(value > 0 for value in values)
