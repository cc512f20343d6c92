"""sparql_topk — ``ksp()`` top-k pushdown through ``SparqlExecutor``.

Why it exists: it uses the same engine layers differently — the
incremental ``KSPCursor`` with stream predicates instead of one-shot
``query()`` — so a kernel change tuned for one-shot top-k that slows
``next()``, or is simply not mirrored in ``core/cursor.py``, shows here;
and the parse/plan/view cost of the ``sparql`` layer is visible against
the equivalent library call.  80 blocks of three statement shapes:
2 ``pure`` from O queries, 1 ``pure`` from SDLL queries, 2 ``residual``
(an O head plus ``?place <urn:ksp:keyword> "T"`` with ``T`` carried by
about a quarter of the places, so the cursor streams past rejects).

Set-up is ``from_snapshot`` + ``SparqlExecutor`` + 50 warm-up statements,
done three times; the median is reported and the last engine is kept.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Tuple

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
from bench_e2e.inputs import K, Op, OpStream, QueryStreams, residual_term, statement
from bench_e2e.measure import mean, median, peak_rss_mb, ratio
from bench_e2e.proxies import Tracing
from bench_e2e.spans import SpanRecorder, SpanTable

SETUP_REPEATS = 3
WARMUP_STATEMENTS = 50
WARMUP_SEED = 0
GATE_PURE = 10  # per query class
GATE_RESIDUAL = 5
PROBE_OPS = 40
POST_CHECKS = 20  # a residual expectation costs a k=80 library query


def _set_up(files, warmup: List[Op], repeats: int):
    from repro import KSPEngine
    from repro.sparql.plan import SparqlExecutor

    totals = []
    for _ in range(repeats):
        started = time.perf_counter()
        engine = KSPEngine.from_snapshot(files.snapshot)
        executor = SparqlExecutor(engine)
        for op in warmup:
            executor.execute(op.text)
        totals.append(time.perf_counter() - started)
    return engine, executor, median(totals)


def _expected(reference, op: Op, term: str) -> List[Tuple[str, float]]:
    """What the library engine says the statement's rows must be."""
    if op.shape == "pure":
        answer = oracle.result_answer(reference.query(op.query, timeout=QUERY_TIMEOUT))
        return oracle.labelled(reference.graph, answer)
    k = 16 * K
    while True:
        wider = dataclasses.replace(op.query, k=k)  # a KSPQuery's own k wins
        places = reference.query(wider, timeout=QUERY_TIMEOUT).places
        survivors = [
            place for place in places if term in reference.graph.document(place.root)
        ]
        if len(survivors) >= K or len(places) < k:
            answer = [(place.root, place.score, place.looseness) for place in survivors[:K]]
            return oracle.labelled(reference.graph, answer)
        k *= 2


def _gate(executor, reference, ops: List[Op], term: str) -> int:
    for op in ops:
        got = oracle.sparql_answer(executor.execute(op.text))
        expected = _expected(reference, op, term)
        if got != expected:
            raise GateError(gate_failure("sparql_topk vs library", op, got, expected))
    return len(ops)


def _gate_ops(graph, inverted, seed: int, term: str, smoke: bool) -> List[Op]:
    """Pure O, pure SDLL and residual statements of a stream of their own."""
    streams = QueryStreams(graph, inverted, seed, "gate")
    per_class = 3 if smoke else GATE_PURE
    ops = [
        Op(kind, "pure", query, statement(query, None))
        for kind in ("O", "SDLL")
        for query in streams.take(kind, per_class)
    ]
    ops += [
        Op("O", "residual", query, statement(query, term))
        for query in streams.take("O", 2 if smoke else GATE_RESIDUAL, stream="O/residual")
    ]
    return ops


def _check_records(ledger: Ledger, reference, term: str, seed: int) -> None:
    """Every reply: not timed out and ``K`` rows (fewer only where the
    library agrees that fewer qualify); a seeded sample: the exact rows."""
    sample = post_check_sample(ledger, seed, POST_CHECKS)
    for position, record in enumerate(ledger.records):
        result = record.reply
        if result is None:
            continue
        if result.stats.timed_out:
            ledger.fail("timed out on %s" % record.op.text)
        elif result.stats.solutions != K or position in sample:
            got = oracle.sparql_answer(result)
            expected = _expected(reference, record.op, term)
            if got != expected:
                ledger.fail(gate_failure("timed sparql_topk answer", record.op, got, expected))


def _examined_by_shape(ledger: Ledger) -> Dict[str, float]:
    """Places the cursor examined per row returned, per statement shape
    (``DETAIL``): 1 for ``pure``, more only where a residual rejects."""
    examined: Dict[str, float] = {}
    solutions: Dict[str, float] = {}
    for record in ledger.records:
        if record.reply is not None:
            shape = record.op.shape
            examined[shape] = examined.get(shape, 0) + record.reply.stats.places_examined
            solutions[shape] = solutions.get(shape, 0) + record.reply.stats.solutions
    return {shape: ratio(examined[shape], solutions[shape]) for shape in sorted(examined)}


def _sparql_layers(ledger: Ledger, spans, files, probe: List[Op]) -> Dict[str, float]:
    from repro import KSPEngine
    from repro.sparql.plan import SparqlExecutor

    answered = [record for record in ledger.records if record.reply is not None]

    def summed(shape: str, field: str) -> float:
        return sum(
            getattr(record.reply.stats, field)
            for record in answered
            if record.op.shape == shape
        )

    # Against the equivalent library call, each side on an engine that
    # has seen none of these heads.
    through_sparql = SparqlExecutor(KSPEngine.from_snapshot(files.snapshot))
    library = KSPEngine.from_snapshot(files.snapshot)
    library_sparql = SparqlExecutor(library)
    execute_seconds = query_seconds = 0.0
    residual_extra = []
    for op in probe:
        started = time.perf_counter()
        through_sparql.execute(op.text)
        elapsed = time.perf_counter() - started
        if op.shape == "pure":
            execute_seconds += elapsed
            started = time.perf_counter()
            library.query(op.query, timeout=QUERY_TIMEOUT)
            query_seconds += time.perf_counter() - started
        else:
            pure_text = statement(op.query, None)
            started = time.perf_counter()
            library_sparql.execute(pure_text)
            residual_extra.append(elapsed - (time.perf_counter() - started))
    return {
        "sparql.parse_us": 1e6 * SpanTable(spans).mean("sparql.parse"),
        "sparql.examined_per_solution": ratio(
            summed("residual", "places_examined"), summed("residual", "solutions")
        ),
        "sparql.rejected_share": ratio(
            summed("residual", "places_rejected"), summed("residual", "places_examined")
        ),
        "sparql.overhead_share": 1.0 - ratio(query_seconds, execute_seconds),
        "sparql.residual_ms": 1e3 * mean(residual_extra),
    }


def run(ctx: Context) -> Outcome:
    from repro import KSPEngine
    from repro.sparql.plan import SparqlOptions

    files = corpus.ensure_corpus(ctx.smoke)
    graph, inverted = corpus.load_graph(files.nt)
    term = residual_term(graph)
    # The same 50 statements whatever the seed: set-up time then measures
    # the program, not which warm-up queries the seed happened to draw.
    warmup = OpStream(
        "sparql_topk", graph, inverted, WARMUP_SEED, residual=term, purpose="warmup"
    ).take(WARMUP_STATEMENTS)
    engine, executor, setup_s = _set_up(
        files, warmup, 1 if ctx.smoke or ctx.trace else SETUP_REPEATS
    )
    reference = KSPEngine.from_snapshot(files.snapshot)
    gate_checked = _gate(
        executor, reference, _gate_ops(graph, inverted, ctx.seed, term, ctx.smoke), term
    )

    stream = OpStream("sparql_topk", graph, inverted, ctx.seed, ctx.seconds, residual=term)
    options = SparqlOptions(timeout=QUERY_TIMEOUT)
    ledger = Ledger()
    recorder = SpanRecorder()

    def execute(op: Op):
        return executor.execute(op.text, options)

    cache_before = layers.cache_counters([engine])
    run_loop(
        stream.blocks(),
        execute,
        ctx.seconds,
        ledger,
        tracing=Tracing(recorder, [engine]) if ctx.trace else None,
        recorder=recorder,
        root_span="sparql.execute",
    )
    cache_after = layers.cache_counters([engine])
    _check_records(ledger, reference, term, ctx.seed)

    detail = {
        "residual_term": term,
        "gate_checked": gate_checked,
        "examined_per_solution_by_shape": _examined_by_shape(ledger),
        "latency_ms_by_class": latency_by_class(ledger),
        **loop_detail(ledger, oracle.sparql_answer),
    }
    if not ctx.trace:
        metrics = ledger.end_to_end()
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = peak_rss_mb()
        metrics["snapshot_bytes_per_vertex"] = files.snapshot_bytes / files.vertices
        return Outcome(ledger.attempted, ledger.failed, metrics, detail)

    metrics = layers.engine_layers(recorder.spans, ledger, {})
    del metrics["core.query_self_ms"]  # the cursor's own time is sparql.execute's
    metrics["core.cache_hit_share"] = layers.cache_hit_share(cache_before, cache_after)
    scratch = SpanRecorder()
    metrics["trace_overhead_share"] = trace_overhead_share(
        ledger, execute, Tracing(scratch, [engine]), scratch, "sparql.execute", ctx.seconds
    )
    replays, cursor_node_accesses = layers.engine_replays(
        engine, [record.op.query for record in ledger.records]
    )
    metrics.update(replays)
    metrics["spatial.node_accesses"] = cursor_node_accesses  # no QueryStats in SPARQL replies
    probe = OpStream(
        "sparql_topk", graph, inverted, ctx.seed, residual=term, purpose="probe"
    ).take(10 if ctx.smoke else PROBE_OPS)
    metrics.update(_sparql_layers(ledger, recorder.spans, files, probe))
    metrics.update(layers.snapshot_sections([files.snapshot]))

    write_trace("sparql_topk", recorder, ledger, detail)
    return Outcome(ledger.attempted, ledger.failed, metrics, detail)
