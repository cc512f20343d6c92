"""Extension bench — incremental cursor vs re-running fixed-k queries.

A pagination client that wants results 1..5, then 6..10, ... can either
re-run `engine.query(k=5·page)` per page (recomputing everything) or pull
pages from one `KSPCursor`.  This bench measures both strategies for four
pages and checks the cursor's cumulative cost stays below the re-query
strategy's, while producing identical score sequences.
"""

import time


from repro.bench.context import dataset
from repro.bench.tables import Table
from repro.core.cursor import ksp_cursor

PAGE_SIZE = 5
PAGES = 4


def _sweep():
    ds = dataset("dbpedia")
    ds.alpha_index(3)
    queries = ds.workload("O", keyword_count=5, k=PAGE_SIZE)
    table = Table(
        "Pagination: one cursor vs repeated top-k queries (%d pages of %d)"
        % (PAGES, PAGE_SIZE),
        ["strategy", "total_ms", "tqsp_computations"],
    )

    requery_seconds = 0.0
    requery_tqsp = 0
    for query in queries:
        for page in range(1, PAGES + 1):
            started = time.monotonic()
            result = ds.run(query, "sp", k=page * PAGE_SIZE)
            requery_seconds += time.monotonic() - started
            requery_tqsp += result.stats.tqsp_computations

    cursor_seconds = 0.0
    cursor_tqsp = 0
    mismatches = 0
    for query in queries:
        started = time.monotonic()
        cursor = ksp_cursor(
            ds.graph, ds.rtree, ds.inverted_index, ds.reachability,
            ds.alpha_index(3), query.location, list(query.keywords),
            runtime=ds.runtime,
        )
        pages = []
        for _ in range(PAGES):
            pages.extend(cursor.take(PAGE_SIZE))
        cursor_seconds += time.monotonic() - started
        cursor_tqsp += cursor.stats.tqsp_computations
        reference = ds.run(query, "sp", k=PAGES * PAGE_SIZE)
        if [round(p.score, 9) for p in pages] != [
            round(p.score, 9) for p in reference
        ]:
            mismatches += 1

    table.add_row("re-query per page", 1000 * requery_seconds, requery_tqsp)
    table.add_row("incremental cursor", 1000 * cursor_seconds, cursor_tqsp)
    return table, requery_seconds, cursor_seconds, requery_tqsp, cursor_tqsp, mismatches


def test_cursor_pagination(benchmark, emit):
    (
        table,
        requery_seconds,
        cursor_seconds,
        requery_tqsp,
        cursor_tqsp,
        mismatches,
    ) = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    emit("cursor_pagination", table)
    assert mismatches == 0  # identical answers
    # One cursor pass constructs each needed TQSP once; re-querying repeats
    # the early pages' work every time.
    assert cursor_tqsp < requery_tqsp
    assert cursor_seconds < requery_seconds
