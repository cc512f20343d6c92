"""Command-line interface for the kSP engine.

Subcommands::

    python -m repro query    --data kb.nt --location 43.51,4.75 \
                             --keywords ancient roman -k 5 --method sp
    python -m repro sparql   --data kb.nt \
                             --query 'SELECT ?p ?s WHERE { ksp(?p, ?s, \
                             "ancient roman", POINT(43.51 4.75)) . } \
                             ORDER BY ?s LIMIT 5'
    python -m repro serve    --data kb.nt --port 8080
    python -m repro serve    --snapshot kb.snap --workers 4
    python -m repro snapshot build --data kb.nt --output kb.snap
    python -m repro stats    --data kb.nt
    python -m repro generate --profile yago-like --vertices 5000 --output kb.nt
    python -m repro shard stats --url http://127.0.0.1:8080
    python -m repro lint     src tests

``query`` loads an N-Triples knowledge base, builds the engine and answers
one kSP query, printing the ranked places, their TQSP trees and the
execution statistics (``--json`` emits the wire schema instead).
``sparql`` answers one SPARQL query over the same backends ``serve``
accepts (``--data``, ``--snapshot`` or ``--shard-dir``), with the
paper's query embeddable as a ``ksp()`` clause (see :mod:`repro.sparql`).
``serve`` runs the HTTP/JSON query service (see :mod:`repro.serve`);
``--workers N`` with N > 1 pre-forks N serving processes (best fed from
``--snapshot``, so they share one mmap'd index file).  ``snapshot``
builds and inspects immutable index snapshot files (see
:mod:`repro.storage.snapshot`).  ``stats`` prints dataset and index
reports.  ``generate`` writes a synthetic spatial RDF corpus for
experimentation.  ``lint`` runs the reprolint invariant checker (see
:mod:`repro.analysis`) over the tree.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.core.config import EngineConfig
from repro.core.engine import ALGORITHMS, KSPEngine
from repro.core.ranking import MultiplicativeRanking, WeightedSumRanking
from repro.datagen.profiles import PROFILES
from repro.datagen.synthetic import generate_graph, graph_to_triples
from repro.rdf import ntriples


def _parse_location(text: str):
    try:
        x_text, y_text = text.split(",")
        return float(x_text), float(y_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "location must be 'x,y', e.g. 43.51,4.75"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Top-k relevant semantic place retrieval on spatial RDF data",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    query = commands.add_parser("query", help="answer one kSP query")
    query.add_argument("--data", required=True, help="RDF file (.nt or .ttl) to load")
    query.add_argument(
        "--location", required=True, type=_parse_location, help="query location 'x,y'"
    )
    query.add_argument(
        "--keywords", required=True, nargs="+", help="query keywords"
    )
    query.add_argument("-k", type=int, default=5, help="places requested")
    query.add_argument(
        "--method", choices=ALGORITHMS, default="sp", help="evaluation algorithm"
    )
    query.add_argument("--alpha", type=int, default=3, help="alpha radius for SP")
    query.add_argument(
        "--ranking", choices=("product", "sum"), default="product",
        help="Equation 2 (product) or Equation 1 (weighted sum)",
    )
    query.add_argument("--beta", type=float, default=0.5, help="beta for --ranking sum")
    query.add_argument(
        "--undirected", action="store_true", help="disregard edge directions"
    )
    query.add_argument("--timeout", type=float, default=None, help="seconds")
    query.add_argument(
        "--stats",
        action="store_true",
        help="print the full execution-statistics table (cache "
        "counters included)",
    )
    query.add_argument(
        "--trace",
        action="store_true",
        help="record and print the per-phase time breakdown (R-tree "
        "ascent, reachability probes, TQSP BFS, alpha bounds)",
    )
    query.add_argument(
        "--json",
        action="store_true",
        help="print the result as wire-schema JSON (KSPResult.to_dict) "
        "instead of the human-readable listing",
    )
    query.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write the engine's Prometheus-style metrics exposition "
        "to PATH after answering",
    )
    query.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write the per-phase breakdown as Chrome trace_event JSON "
        "to PATH (loadable in Perfetto); implies --trace",
    )

    sparql = commands.add_parser(
        "sparql",
        help="answer one SPARQL query (with the kSP query embeddable "
        "as a ksp() clause; see repro.sparql)",
    )
    sparql.add_argument(
        "--data", default=None, help="RDF file (.nt or .ttl) to load"
    )
    sparql.add_argument(
        "--snapshot", default=None,
        help="answer from an index snapshot instead of --data",
    )
    sparql.add_argument(
        "--shard-dir", default=None,
        help="answer by scatter-gather over a sharded corpus built "
        "with 'repro shard build'",
    )
    sparql.add_argument(
        "--query", default=None, help="the SPARQL query text"
    )
    sparql.add_argument(
        "--query-file", default=None,
        help="read the SPARQL query from a file ('-' for stdin)",
    )
    sparql.add_argument("--alpha", type=int, default=3, help="alpha radius for SP")
    sparql.add_argument(
        "--undirected", action="store_true", help="disregard edge directions"
    )
    sparql.add_argument("--timeout", type=float, default=None, help="seconds")
    sparql.add_argument(
        "--no-pushdown",
        action="store_true",
        help="disable the ORDER BY/LIMIT top-k pushdown (materialize "
        "the full ksp() ranking, then sort — the equivalence oracle)",
    )
    sparql.add_argument(
        "--json",
        action="store_true",
        help="print the result as wire-schema JSON (SparqlResult.to_dict) "
        "instead of the human-readable table",
    )

    stats = commands.add_parser("stats", help="dataset and index reports")
    stats.add_argument("--data", required=True, help="RDF file (.nt or .ttl) to load")
    stats.add_argument("--alpha", type=int, default=3)

    serve = commands.add_parser(
        "serve", help="run the HTTP/JSON query service (see repro.serve)"
    )
    serve.add_argument(
        "--data", default=None, help="RDF file (.nt or .ttl) to load"
    )
    serve.add_argument(
        "--snapshot",
        default=None,
        help="serve from an index snapshot built with 'repro snapshot "
        "build' (mmap'd zero-copy; O(1) warm start) instead of --data",
    )
    serve.add_argument(
        "--shard-dir",
        default=None,
        help="serve a sharded corpus built with 'repro shard build': "
        "queries scatter-gather over the shard snapshots instead of "
        "--data/--snapshot",
    )
    serve.add_argument(
        "--shard-urls",
        default=None,
        help="comma-separated base URLs of per-shard fleets (aligned "
        "with the shard manifest order); shard execution then goes "
        "over HTTP while routing bounds stay local",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument("--alpha", type=int, default=3, help="alpha radius for SP")
    serve.add_argument(
        "--undirected", action="store_true", help="disregard edge directions"
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="serving processes; above 1 the service pre-forks that many "
        "workers sharing one listen socket (escapes the GIL)",
    )
    serve.add_argument(
        "--concurrency",
        type=int,
        default=4,
        help="queries admitted into each worker's engine concurrently",
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=16,
        help="bounded admission queue; beyond it requests get 429",
    )
    serve.add_argument(
        "--default-timeout",
        type=float,
        default=None,
        help="per-request budget in seconds when the client sends none",
    )
    serve.add_argument(
        "--flight-recorder-size",
        type=int,
        default=256,
        help="ring-buffer capacity of the flight recorder backing "
        "GET /v1/debug/queries",
    )

    snapshot = commands.add_parser(
        "snapshot",
        help="build and inspect immutable index snapshot files "
        "(see repro.storage.snapshot)",
    )
    snapshot_commands = snapshot.add_subparsers(
        dest="snapshot_command", required=True
    )
    snapshot_build = snapshot_commands.add_parser(
        "build", help="parse an RDF file, build all indexes, write one snapshot"
    )
    snapshot_build.add_argument(
        "--data", required=True, help="RDF file (.nt or .ttl) to load"
    )
    snapshot_build.add_argument(
        "--output", required=True, help="snapshot file to write"
    )
    snapshot_build.add_argument(
        "--alpha", type=int, default=3, help="alpha radius for SP"
    )
    snapshot_build.add_argument(
        "--undirected", action="store_true", help="disregard edge directions"
    )
    snapshot_inspect = snapshot_commands.add_parser(
        "inspect", help="print a snapshot's manifest and section table"
    )
    snapshot_inspect.add_argument("path", help="snapshot file to inspect")
    snapshot_inspect.add_argument(
        "--verify",
        action="store_true",
        help="also recompute and check the full content hash",
    )

    shard = commands.add_parser(
        "shard",
        help="partition a corpus into per-shard snapshots "
        "(see repro.shard)",
    )
    shard_commands = shard.add_subparsers(dest="shard_command", required=True)
    shard_build = shard_commands.add_parser(
        "build",
        help="STR-partition the places and freeze one snapshot per shard "
        "plus a manifest; serve the result with 'repro serve --shard-dir'",
    )
    shard_build.add_argument(
        "--data", required=True, help="RDF file (.nt or .ttl) to load"
    )
    shard_build.add_argument(
        "--output-dir", required=True, help="directory for snapshots + manifest"
    )
    shard_build.add_argument(
        "--shards", type=int, default=4, help="number of spatial shards"
    )
    shard_build.add_argument(
        "--alpha", type=int, default=3, help="alpha radius for SP"
    )
    shard_build.add_argument(
        "--undirected", action="store_true", help="disregard edge directions"
    )
    shard_stats = shard_commands.add_parser(
        "stats",
        help="fetch /v1/debug/load from a running server and summarise "
        "per-shard load (query counts, latency, fan-out)",
    )
    shard_stats.add_argument(
        "--url",
        default="http://127.0.0.1:8080",
        help="base URL of the running server (default %(default)s)",
    )
    shard_stats.add_argument(
        "--json",
        action="store_true",
        help="print the raw load report as JSON instead of a table",
    )

    generate = commands.add_parser("generate", help="write a synthetic corpus")
    generate.add_argument(
        "--profile", choices=sorted(PROFILES), default="yago-like"
    )
    generate.add_argument("--vertices", type=int, default=None)
    generate.add_argument("--seed", type=int, default=None)
    generate.add_argument("--output", required=True, help="output .nt path")

    lint = commands.add_parser(
        "lint",
        help="run the reprolint invariant checker (see repro.analysis)",
    )
    lint.add_argument(
        "paths", nargs="*", default=["src", "tests"],
        help="files or directories to analyze (default: src tests)",
    )
    lint.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format",
    )
    lint.add_argument(
        "--output", metavar="FILE", default=None,
        help="write the report here instead of stdout",
    )
    lint.add_argument(
        "--rules", metavar="IDS", default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    lint.add_argument(
        "--baseline", metavar="FILE", default=None,
        help="accepted-findings file; only new findings fail the run",
    )
    lint.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline from this run's findings and exit 0",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print registered rules and exit",
    )
    lint.add_argument(
        "--verbose", action="store_true",
        help="also show suppressed findings",
    )

    return parser


def _cmd_query(args) -> int:
    engine = KSPEngine.from_file(
        args.data, EngineConfig(alpha=args.alpha, undirected=args.undirected)
    )
    ranking = (
        MultiplicativeRanking()
        if args.ranking == "product"
        else WeightedSumRanking(beta=args.beta)
    )
    trace = args.trace or bool(args.trace_out)
    result = engine.query(
        args.location,
        args.keywords,
        k=args.k,
        method=args.method,
        ranking=ranking,
        timeout=args.timeout,
        trace=trace,
    )
    if args.trace_out and result.trace is not None:
        from pathlib import Path

        from repro.obs.traceexport import render_trace_json

        Path(args.trace_out).write_text(
            render_trace_json(
                result.trace,
                request_id=result.request_id,
                runtime_seconds=result.stats.runtime_seconds,
            )
            + "\n",
            encoding="utf-8",
        )
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        if args.metrics_out:
            from pathlib import Path

            Path(args.metrics_out).write_text(engine.metrics_text(), encoding="utf-8")
        return 0
    if not result.places:
        print("no qualified semantic place covers all keywords")
    for rank, place in enumerate(result, start=1):
        print(
            "%2d. %s  f=%.4f  looseness=%.0f  distance=%.4f"
            % (rank, place.root_label, place.score, place.looseness, place.distance)
        )
        for keyword in sorted(place.paths):
            path = " -> ".join(
                engine.graph.label(vertex) for vertex in place.paths[keyword]
            )
            print("      %-12s %s" % (keyword, path))
    stats = result.stats
    print(
        "[%s] %.1f ms (%.1f semantic), %d TQSP computations, "
        "%d R-tree nodes, %d reachability probes%s"
        % (
            stats.algorithm,
            1000 * stats.runtime_seconds,
            1000 * stats.semantic_seconds,
            stats.tqsp_computations,
            stats.rtree_node_accesses,
            stats.reachability_queries,
            " [TIMED OUT]" if stats.timed_out else "",
        )
    )
    if args.stats:
        # The wire schema (KSPResult.to_dict) is the one source of truth
        # for what a query execution reports — the table mirrors it.
        print("statistics:")
        for key, value in sorted(result.to_dict()["stats"].items()):
            print("  %-22s %s" % (key, value))
        if engine.tqsp_cache is not None:
            print("tqsp cache:")
            for key, value in engine.tqsp_cache.counters().items():
                print("  %-22s %s" % (key, value))
    if trace and result.trace is not None:
        print(result.trace.report(stats.runtime_seconds))
    if args.trace_out:
        print("trace written to %s" % args.trace_out)
    if args.metrics_out:
        from pathlib import Path

        Path(args.metrics_out).write_text(
            engine.metrics_text(), encoding="utf-8"
        )
        print("metrics written to %s" % args.metrics_out)
    return 0


def _cmd_sparql(args) -> int:
    from repro.sparql import (
        SparqlOptions,
        SparqlPlanError,
        SparqlSyntaxError,
        execute_sparql,
    )
    from repro.sparql.eval import SparqlEvaluationError

    sources = [args.data, args.snapshot, args.shard_dir]
    if sum(source is not None for source in sources) != 1:
        print(
            "sparql needs exactly one of --data, --snapshot or --shard-dir",
            file=sys.stderr,
        )
        return 2
    if (args.query is None) == (args.query_file is None):
        print(
            "sparql needs exactly one of --query or --query-file",
            file=sys.stderr,
        )
        return 2
    if args.query is not None:
        text = args.query
    elif args.query_file == "-":
        text = sys.stdin.read()
    else:
        from pathlib import Path

        text = Path(args.query_file).read_text(encoding="utf-8")

    engine_config = EngineConfig(alpha=args.alpha, undirected=args.undirected)
    if args.shard_dir is not None:
        from repro.shard import ShardRouter

        backend = ShardRouter(args.shard_dir, engine_config)
    elif args.snapshot is not None:
        backend = KSPEngine.from_snapshot(args.snapshot, engine_config)
    else:
        backend = KSPEngine.from_file(args.data, engine_config)

    options = SparqlOptions(timeout=args.timeout, pushdown=not args.no_pushdown)
    try:
        result = execute_sparql(backend, text, options)
    except (SparqlSyntaxError, SparqlPlanError, SparqlEvaluationError) as exc:
        print("sparql: %s" % exc, file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        return 0
    if not result.bindings:
        print("no solutions")
    else:
        print("  ".join("?%s" % name for name in result.variables))
        for row in result.bindings:
            print(
                "  ".join(
                    row[name]["value"] if name in row else ""
                    for name in result.variables
                )
            )
    stats = result.stats
    print(
        "[%s%s] %.1f ms, %d round(s), %d place(s) examined, %d rejected, "
        "%d solution(s)%s"
        % (
            stats.backend,
            " pushdown" if stats.pushdown else "",
            1000 * stats.runtime_seconds,
            stats.rounds,
            stats.places_examined,
            stats.places_rejected,
            stats.solutions,
            " [TIMED OUT]" if stats.timed_out else "",
        )
    )
    return 0


def _cmd_stats(args) -> int:
    engine = KSPEngine.from_file(args.data, EngineConfig(alpha=args.alpha))
    print("dataset:")
    for key, value in engine.dataset_report().items():
        print("  %-20s %s" % (key, value))
    print("storage (bytes):")
    for key, value in engine.storage_report().items():
        print("  %-20s %d" % (key, value))
    print("build times (seconds):")
    for key, value in engine.build_seconds.items():
        print("  %-20s %.3f" % (key, value))
    return 0


def _cmd_serve(args) -> int:
    from repro.serve import KSPServer, PreForkServer, ServeConfig

    sources = [args.data, args.snapshot, args.shard_dir]
    if sum(source is not None for source in sources) != 1:
        print(
            "serve needs exactly one of --data, --snapshot or --shard-dir",
            file=sys.stderr,
        )
        return 2
    if args.shard_urls is not None and args.shard_dir is None:
        print("--shard-urls requires --shard-dir", file=sys.stderr)
        return 2
    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.concurrency,
        queue_depth=args.queue_depth,
        default_timeout=args.default_timeout,
    )
    engine_config = EngineConfig(
        alpha=args.alpha,
        undirected=args.undirected,
        flight_recorder_size=args.flight_recorder_size,
    )

    def load_engine():
        if args.shard_dir is not None:
            from repro.shard import ShardRouter

            urls = (
                [url.strip() for url in args.shard_urls.split(",") if url.strip()]
                if args.shard_urls is not None
                else None
            )
            return ShardRouter(args.shard_dir, engine_config, shard_urls=urls)
        if args.snapshot is not None:
            return KSPEngine.from_snapshot(args.snapshot, engine_config)
        return KSPEngine.from_file(args.data, engine_config)

    if args.workers > 1:
        # Pre-fork: the engine loads once in the foreground, then every
        # worker process serves it (snapshots share one OS page cache).
        server = PreForkServer(
            engine_loader=load_engine, config=config, workers=args.workers
        ).start()
        print(
            "kSP query service listening on %s (%d worker processes)"
            % (server.url, args.workers)
        )
        _print_endpoints()
        server.run_forever()
        return 0

    # The socket opens immediately; /v1/ready flips to 200 once the
    # background index build finishes.
    server = KSPServer(engine_loader=load_engine, config=config).start()
    print("kSP query service listening on %s" % server.url)
    _print_endpoints()
    server.serve_forever()
    return 0


def _print_endpoints() -> None:
    print("  POST /v1/query   POST /v1/batch   POST /v1/sparql")
    print("  GET  /v1/metrics GET  /v1/healthz  GET  /v1/ready")
    print(
        "  GET  /v1/debug/queries  GET  /v1/debug/inflight  "
        "GET  /v1/debug/engine"
    )


def _cmd_snapshot(args) -> int:
    if args.snapshot_command == "build":
        engine = KSPEngine.from_file(
            args.data,
            EngineConfig(alpha=args.alpha, undirected=args.undirected),
        )
        size = engine.save_snapshot(args.output)
        print(
            "wrote %d bytes (%d vertices, %d edges, %d places, alpha=%d) "
            "to %s"
            % (
                size,
                engine.graph.vertex_count,
                engine.graph.edge_count,
                engine.graph.place_count(),
                engine.alpha,
                args.output,
            )
        )
        return 0
    if args.snapshot_command == "inspect":
        from repro.storage.snapshot import SnapshotError, SnapshotFile

        try:
            with SnapshotFile(args.path, verify=args.verify) as snap:
                print("snapshot %s (%d bytes)" % (args.path, snap.size_bytes))
                print("manifest:")
                print(
                    "\n".join(
                        "  " + line
                        for line in json.dumps(
                            snap.manifest, indent=2, sort_keys=True
                        ).splitlines()
                    )
                )
                print("sections:")
                for name in snap.names():
                    print("  %-22s %10d bytes" % (name, snap.section_length(name)))
                if args.verify:
                    print("content hash: OK")
        except SnapshotError as exc:
            print("snapshot validation failed: %s" % exc, file=sys.stderr)
            return 1
        return 0
    raise AssertionError("unreachable")


def _cmd_shard(args) -> int:
    if args.shard_command == "build":
        from repro.rdf.documents import graph_from_triples
        from repro.shard import build_shards

        name = str(args.data).lower()
        if name.endswith(".gz"):
            name = name[: -len(".gz")]
        if name.rsplit(".", 1)[-1] in ("ttl", "turtle"):
            from repro.rdf.turtle import parse_turtle_file

            triples = parse_turtle_file(args.data)
        else:
            triples = ntriples.parse_file(args.data)
        graph = graph_from_triples(triples)
        manifest = build_shards(
            graph,
            args.output_dir,
            args.shards,
            config=EngineConfig(alpha=args.alpha, undirected=args.undirected),
        )
        total_bytes = sum(entry["bytes"] for entry in manifest["entries"])
        print(
            "wrote %d shard snapshot(s) (%d places over %d vertices, "
            "%d bytes total) to %s"
            % (
                manifest["shards"],
                manifest["source"]["places"],
                manifest["source"]["vertices"],
                total_bytes,
                args.output_dir,
            )
        )
        for entry in manifest["entries"]:
            print(
                "  %-18s places=%d region=%s"
                % (entry["snapshot"], entry["places"], entry["region"])
            )
        return 0
    if args.shard_command == "stats":
        return _cmd_shard_stats(args)
    raise AssertionError("unreachable")


def _cmd_shard_stats(args) -> int:
    import urllib.error
    import urllib.request

    url = args.url.rstrip("/") + "/v1/debug/load"
    try:
        with urllib.request.urlopen(url, timeout=10.0) as response:
            report = json.loads(response.read().decode("utf-8"))
    except (urllib.error.URLError, OSError) as exc:
        print("cannot reach %s: %s" % (url, exc), file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    queries = report.get("queries", 0)
    print(
        "%d quer%s recorded on pid %s"
        % (queries, "y" if queries == 1 else "ies", report.get("pid", "?"))
    )
    outcomes = report.get("outcomes") or {}
    if outcomes:
        print(
            "outcomes: "
            + ", ".join(
                "%s=%d" % (key, outcomes[key]) for key in sorted(outcomes)
            )
        )
    if queries:
        print(
            "latency: mean %.1f ms over %d queries"
            % (
                1000.0 * report.get("latency_sum_seconds", 0.0) / queries,
                queries,
            )
        )
    if report.get("fanout_mean") is not None:
        print("fan-out: mean %.2f shards per routed query" % report["fanout_mean"])
    shards = report.get("shards") or []
    if shards:
        print("%-8s %8s %8s %8s %8s %8s %12s" % (
            "shard", "routed", "executed", "pruned", "timedout", "places",
            "subquery_s",
        ))
        for entry in shards:
            print(
                "%-8s %8d %8d %8d %8d %8d %12.4f"
                % (
                    entry.get("shard", "?"),
                    entry.get("routed", 0),
                    entry.get("executed", 0),
                    entry.get("pruned", 0),
                    entry.get("timed_out", 0),
                    entry.get("places", 0),
                    entry.get("subquery_seconds", 0.0),
                )
            )
    elif queries:
        print("no per-shard records (single-engine server)")
    return 0


def _cmd_generate(args) -> int:
    profile = PROFILES[args.profile]
    if args.vertices:
        profile = profile.scaled(args.vertices)
    if args.seed is not None:
        profile = profile.with_seed(args.seed)
    graph = generate_graph(profile)
    count = ntriples.write_file(graph_to_triples(graph), args.output)
    print(
        "wrote %d triples (%d vertices, %d edges, %d places) to %s"
        % (
            count,
            graph.vertex_count,
            graph.edge_count,
            graph.place_count(),
            args.output,
        )
    )
    return 0


def _cmd_lint(args) -> int:
    from repro.analysis.__main__ import main as lint_main

    argv = list(args.paths)
    if args.list_rules:
        argv.append("--list-rules")
    if args.format != "text":
        argv += ["--format", args.format]
    if args.output:
        argv += ["--output", args.output]
    if args.rules:
        argv += ["--rules", args.rules]
    if args.baseline:
        argv += ["--baseline", args.baseline]
    if args.update_baseline:
        argv.append("--update-baseline")
    if args.verbose:
        argv.append("--verbose")
    return lint_main(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "query":
        return _cmd_query(args)
    if args.command == "sparql":
        return _cmd_sparql(args)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "snapshot":
        return _cmd_snapshot(args)
    if args.command == "shard":
        return _cmd_shard(args)
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "lint":
        return _cmd_lint(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
