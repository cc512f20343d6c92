#!/usr/bin/env python3
"""Scenario: a deployed kSP service — build once, reopen fast, paginate.

The paper's preprocessing is heavy (Table 5: the alpha-radius pass alone
takes 20 hours on full DBpedia), so a real deployment builds the indexes
once and serves queries from persisted state.  This example:

1. builds an engine over a Yago-like corpus and *saves* it as one
   snapshot file (graph + inverted file + PLL reachability labels + alpha
   postings + R-tree + manifest);
2. *reopens* it — comparing the open time with the build time — with the
   graph, inverted file and alpha postings served zero-copy from the
   memory-mapped file;
3. serves a paginated result stream with the incremental cursor ("show me
   five more") without ever choosing k;
4. demonstrates that the paper's batch kSP query and the cursor agree.

Run with::

    python examples/persistence_and_pagination.py
"""

import tempfile
import time
from pathlib import Path

from repro import KSPEngine
from repro.datagen import YAGO_LIKE, QueryGenerator, WorkloadConfig, generate_graph
from repro.core.config import EngineConfig


def main():
    profile = YAGO_LIKE.scaled(5_000)
    print("Generating %s corpus..." % profile.name)
    graph = generate_graph(profile)

    print("Building the engine (this is the expensive, once-only part)...")
    build_started = time.monotonic()
    engine = KSPEngine(graph, EngineConfig(alpha=3))
    build_seconds = time.monotonic() - build_started
    print("  built in %.2f s %s" % (build_seconds, engine.build_seconds))

    with tempfile.TemporaryDirectory(prefix="ksp-engine-") as directory:
        path = Path(directory) / "kb.snap"
        size = engine.save_snapshot(path)
        print("Saved a %.1f MB snapshot to %s" % (size / 1e6, path))

        open_started = time.monotonic()
        served = KSPEngine.from_snapshot(path)
        open_seconds = time.monotonic() - open_started
        print(
            "  reopened in %.3f s — %.0fx faster than building"
            % (open_seconds, build_seconds / max(open_seconds, 1e-9))
        )
        assert served.manifest_hash == engine.manifest_hash

        generator = QueryGenerator(
            served.graph,
            served.inverted_index,
            WorkloadConfig(keyword_count=3, seed=99),
        )
        query = generator.original()
        print(
            "\nServing keywords %s near (%.2f, %.2f):"
            % (query.keywords, query.location.x, query.location.y)
        )

        cursor = served.cursor(query.location, query.keywords)
        for page_number in range(1, 4):
            # Each pagination step is a KSPResult, so the page shares the
            # wire schema (to_dict) with engine.query and the HTTP server.
            page = cursor.page(5)
            if not page.places:
                print("  page %d: (end of results)" % page_number)
                break
            print("  page %d:" % page_number)
            for entry in page.to_dict()["places"]:
                print(
                    "    %-14s f=%8.3f L=%.0f S=%.3f"
                    % (
                        entry["label"],
                        entry["score"],
                        entry["looseness"],
                        entry["distance"],
                    )
                )
        print(
            "  cursor stats: %d TQSP constructions, %d R-tree nodes, "
            "%d reachability probes"
            % (
                cursor.stats.tqsp_computations,
                cursor.stats.rtree_node_accesses,
                cursor.stats.reachability_queries,
            )
        )

        # The classic fixed-k query returns the same top results.
        batch = served.query(query, method="sp")
        stream_scores = [
            round(p.score, 9)
            for p in served.cursor(query.location, query.keywords).take(query.k)
        ]
        batch_scores = [round(p.score, 9) for p in batch]
        assert stream_scores == batch_scores
        print("\nBatch top-%d and cursor prefix agree." % query.k)


if __name__ == "__main__":
    main()
