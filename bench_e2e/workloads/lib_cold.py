"""lib_cold — the library engine on queries it has never seen.

Why it exists: the engine layers (``alpha``, ``reach``, ``spatial``,
``core`` TQSP search, ``rdf`` CSR BFS) do all the work and ``serve``,
``shard`` and ``sparql`` do none; every keyword set is new, so the TQSP
cache cannot help, and the LDLL operations (tens of places, hundreds of
Rule-1 probes and more cache inserts than the cache holds, each) are the
working set that does not fit it.  This is the cold-cache workload: a
kernel or index optimisation shows here first.  Its set-up is the write
side of the same layers — generate, N-Triples, parse, every index build,
save, in a process of its own, then open — run once per invocation
(15-20 s; the driver's time cap leaves no room for repeats, and one build
that long is steady to a few percent).
"""

from __future__ import annotations

import time
from typing import Dict

from bench_e2e import corpus, layers, oracle
from bench_e2e.harness import (
    QUERY_TIMEOUT,
    Context,
    GateError,
    Ledger,
    Outcome,
    gate_failure,
    latency_by_class,
    loop_detail,
    post_check_sample,
    run_loop,
    trace_overhead_share,
    write_trace,
)
from bench_e2e.inputs import Op, OpStream, QueryStreams
from bench_e2e.measure import median, peak_rss_mb
from bench_e2e.proxies import Tracing
from bench_e2e.spans import SpanRecorder

#: Answers checked against the oracle before timing.  An LDLL answer
#: costs 0.4 s on average, so the gate takes 5 and every timed LDLL answer
#: (24 of them) is checked once timing is over.
GATE = {"O": 20, "SDLL": 20, "LDLL": 5}
GATE_SMOKE = {"O": 5, "SDLL": 5, "LDLL": 2}
OPEN_REPEATS = 15


def _traced_setup(directory, smoke: bool):
    """The same pipeline as :func:`corpus.build_snapshot`, one public
    constructor at a time, so each layer's share of ``setup_s`` shows."""
    from repro import EngineConfig, KSPEngine
    from repro.alpha.index import AlphaIndex
    from repro.datagen.synthetic import generate_graph, graph_to_triples
    from repro.rdf.csr import CSRAdjacency
    from repro.rdf.documents import graph_from_triples
    from repro.rdf.ntriples import parse_file, write_file
    from repro.reach.keyword import KeywordReachabilityIndex
    from repro.spatial.rtree import RTree
    from repro.storage.snapshot import SnapshotFile, write_snapshot
    from repro.text.inverted import InvertedIndex

    config = EngineConfig()
    spec = corpus.profile(smoke)
    nt = directory / "kb.nt"
    snapshot = directory / "kb.snap"
    write_file(graph_to_triples(generate_graph(spec)), nt)

    seconds: Dict[str, float] = {}

    def timed(name: str, build):
        started = time.perf_counter()
        built = build()
        seconds[name] = time.perf_counter() - started
        return built

    graph = timed("rdf.parse_s", lambda: graph_from_triples(parse_file(nt)))
    csr = timed("rdf.csr_build_s", lambda: CSRAdjacency.from_graph(graph))
    inverted = timed("text.build_s", lambda: InvertedIndex.build(graph))
    rtree = timed(
        "spatial.bulk_load_s",
        lambda: RTree.bulk_load(graph.places(), max_entries=config.rtree_max_entries),
    )
    reach = timed(
        "reach.build_s",
        lambda: KeywordReachabilityIndex(
            graph, method=config.reach_method, undirected=config.undirected
        ),
    )
    alpha = timed(
        "alpha.build_s",
        lambda: AlphaIndex(
            graph, rtree, alpha=config.alpha, undirected=config.undirected, csr=csr
        ),
    )
    timed(
        "storage.save_s",
        lambda: write_snapshot(
            snapshot,
            graph,
            inverted,
            rtree,
            alpha=config.alpha,
            undirected=config.undirected,
            rtree_max_entries=config.rtree_max_entries,
            reachability=reach,
            alpha_index=alpha,
        ),
    )
    opens = []
    for _ in range(OPEN_REPEATS):
        started = time.perf_counter()
        engine = KSPEngine.from_snapshot(snapshot)
        opens.append(time.perf_counter() - started)
    seconds["storage.open_ms"] = 1e3 * median(opens)
    with SnapshotFile(snapshot) as handle:
        timed("storage.verify_s", handle.verify)
    files = corpus.Corpus(nt, snapshot, spec.vertex_count)
    return files, graph, inverted, engine, seconds


def _gate(engine, reference: oracle.Oracle, graph, inverted, ctx: Context) -> int:
    """Untimed: a seeded sample per class against the brute-force oracle."""
    streams = QueryStreams(graph, inverted, ctx.seed, "gate")
    checked = 0
    for kind, count in (GATE_SMOKE if ctx.smoke else GATE).items():
        for query in streams.take(kind, count):
            got = oracle.result_answer(engine.query(query, timeout=QUERY_TIMEOUT))
            expected = reference.answer(query)
            if got != expected:
                raise GateError(
                    gate_failure("lib_cold vs oracle", Op(kind, "query", query), got, expected)
                )
            checked += 1
    return checked


def _check_records(ledger: Ledger, reference: oracle.Oracle, seed: int) -> None:
    """Every reply: not timed out and ``k`` places (fewer only where the
    oracle agrees that fewer qualify); every LDLL reply and a seeded
    sample of the others: the exact answer."""
    sample = post_check_sample(ledger, seed)
    for position, record in enumerate(ledger.records):
        result = record.reply
        if result is None:
            continue  # already counted when it raised
        short = len(result.places) != record.op.query.k
        if result.stats.timed_out:
            ledger.fail("timed out on %r" % (record.op.query.keywords,))
        elif short or position in sample or record.op.kind == "LDLL":
            got = oracle.result_answer(result)
            expected = reference.answer(record.op.query)
            if got != expected:
                ledger.fail(gate_failure("timed lib_cold answer", record.op, got, expected))


def run(ctx: Context) -> Outcome:
    with corpus.scratch_dir("lib_cold") as directory:
        return _run(ctx, directory)


def _run(ctx: Context, directory) -> Outcome:
    from repro import KSPEngine

    layer_seconds: Dict[str, float] = {}
    started = time.perf_counter()
    if ctx.trace:
        files, graph, inverted, engine, layer_seconds = _traced_setup(directory, ctx.smoke)
        phases = {"total": time.perf_counter() - started}
    else:
        files, phases = corpus.snapshot_in_child(directory, ctx.smoke)
        mark = time.perf_counter()
        engine = KSPEngine.from_snapshot(files.snapshot)
        phases["open"] = time.perf_counter() - mark
        phases["total"] += phases["open"]
        graph, inverted = corpus.load_graph(files.nt)

    reference = oracle.Oracle(graph, inverted)
    gate_checked = _gate(engine, reference, graph, inverted, ctx)

    stream = OpStream("lib_cold", graph, inverted, ctx.seed, ctx.seconds)
    ledger = Ledger()
    recorder = SpanRecorder()

    def execute(op: Op):
        return engine.query(op.query, timeout=QUERY_TIMEOUT)

    cache_before = layers.cache_counters([engine])
    run_loop(
        stream.blocks(),
        execute,
        ctx.seconds,
        ledger,
        tracing=Tracing(recorder, [engine]) if ctx.trace else None,
        recorder=recorder,
        root_span="core.query",
    )
    cache_after = layers.cache_counters([engine])
    _check_records(ledger, reference, ctx.seed)

    detail = {
        "setup_phases_s": phases,
        "gate_checked": gate_checked,
        "latency_ms_by_class": latency_by_class(ledger),
        **loop_detail(ledger, oracle.result_answer),
    }
    if not ctx.trace:
        metrics = ledger.end_to_end()
        metrics["setup_s"] = phases["total"]
        metrics["peak_rss_mb"] = peak_rss_mb()
        metrics["snapshot_bytes_per_vertex"] = files.snapshot_bytes / files.vertices
        return Outcome(ledger.attempted, ledger.failed, metrics, detail)

    stats = {
        record.op_id: record.reply.stats.as_dict()
        for record in ledger.records
        if record.traced and record.reply is not None
    }
    metrics = layers.engine_layers(recorder.spans, ledger, stats)
    metrics["core.cache_hit_share"] = layers.cache_hit_share(cache_before, cache_after)
    scratch = SpanRecorder()
    metrics["trace_overhead_share"] = trace_overhead_share(
        ledger, execute, Tracing(scratch, [engine]), scratch, "core.query", ctx.seconds
    )
    # The replays isolate fixed costs on a warm cache; an LDLL query does
    # not fit the cache and would be answered in full seven times over.
    replays, _ = layers.engine_replays(
        engine, [record.op.query for record in ledger.records if record.op.kind != "LDLL"]
    )
    metrics.update(replays)
    metrics.update(layer_seconds)
    metrics.update(layers.snapshot_sections([files.snapshot]))

    write_trace("lib_cold", recorder, ledger, detail)
    return Outcome(ledger.attempted, ledger.failed, metrics, detail)
