"""shard_scatter — the 4-shard in-process router at its default parallelism.

Why it exists: the shard-level Lemma-4 routing bound, the launch-time
re-check against the merged threshold, theta propagation and the
``TopKQueue`` merge are the moving parts; the per-shard engine work is the
same kind as in ``lib_cold``, so the difference between the two workloads
per class *is* the ``shard`` layer.  24 blocks of 4 O + 1 SDLL distinct
queries (the issue's 240 : 60).  O queries let the routing bound prune,
SDLL queries defeat it.

``ShardRouter(dir)`` is what ``repro serve --shard-dir`` builds and nothing
under ``src/`` sets ``parallelism``, so that is what is timed: all four
shards launch at once on pool threads that share one interpreter lock.
How many of them launch before the first has tightened the threshold is a
race, so this workload's counts do not repeat exactly and its timings are
the least steady of the four (see the README's table).

Set-up is ``build_shards(graph, dir, 4)`` — in a process of its own, for
the reason ``lib_cold`` builds in one — plus ``ShardRouter(dir)``, median
of 15.
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
from bench_e2e.measure import mean, median, peak_rss_mb, ratio
from bench_e2e.proxies import Tracing
from bench_e2e.spans import SpanRecorder

OPEN_REPEATS = 15
GATE_O = 10
GATE_SDLL = 5
RATIO_OPS = 60


def _executed(result) -> int:
    return sum(1 for shard in result.stats.shards if not shard["pruned"])


def _gate(router, engine, streams: QueryStreams, smoke: bool) -> int:
    """Untimed: the merged answer must be the single engine's answer."""
    plan = (("O", 5 if smoke else GATE_O), ("SDLL", 1 if smoke else GATE_SDLL))
    checked = 0
    for kind, count in plan:
        for query in streams.take(kind, count):
            got = oracle.result_answer(router.query(query, timeout=QUERY_TIMEOUT))
            expected = oracle.result_answer(engine.query(query, timeout=QUERY_TIMEOUT))
            if got != expected:
                raise GateError(
                    gate_failure("shard_scatter vs library", Op(kind, "query", query), got, expected)
                )
            checked += 1
    return checked


def _check_records(ledger: Ledger, engine, seed: int) -> None:
    """Every reply: no shard degraded and ``k`` places (fewer only where
    the single engine agrees); a seeded sample: the single engine's answer."""
    sample = post_check_sample(ledger, seed)
    for position, record in enumerate(ledger.records):
        result = record.reply
        if result is None:
            continue
        short = len(result.places) != record.op.query.k
        if result.stats.timed_out or any(
            shard["error"] or shard["timed_out"] for shard in result.stats.shards
        ):
            ledger.fail("degraded answer for %r" % (record.op.query.keywords,))
        elif short or position in sample:
            got = oracle.result_answer(result)
            expected = oracle.result_answer(engine.query(record.op.query, timeout=QUERY_TIMEOUT))
            if got != expected:
                ledger.fail(gate_failure("timed shard_scatter answer", record.op, got, expected))


def _fanout_by_class(ledger: Ledger) -> Dict[str, float]:
    """Mean executed shards per query class (``DETAIL``): the routing
    bound prunes for O queries and is defeated by SDLL queries."""
    executed: Dict[str, list] = {}
    for record in ledger.records:
        if record.reply is not None:
            executed.setdefault(record.op.kind, []).append(_executed(record.reply))
    return {kind: mean(counts) for kind, counts in sorted(executed.items())}


def _shard_layers(ledger: Ledger, router, engine, detail: Dict[str, object]) -> Dict[str, float]:
    answered = [record for record in ledger.records if record.reply is not None]
    fanout = mean([_executed(record.reply) for record in answered])

    # Shards run side by side: the slowest executed one sets the latency,
    # and what the router adds is its wall time beyond that one.
    overheads = [
        record.seconds
        - max(
            [s["runtime_seconds"] for s in record.reply.stats.shards if not s["pruned"]],
            default=0.0,
        )
        for record in answered
    ]

    # The same inputs on the single engine, which has not seen them.
    seconds = {"router": {}, "single": {}}
    router_work = single_work = 0.0
    for record in answered[:RATIO_OPS]:
        started = time.perf_counter()
        single = engine.query(record.op.query, timeout=QUERY_TIMEOUT)
        elapsed = time.perf_counter() - started
        kind = record.op.kind
        seconds["single"][kind] = seconds["single"].get(kind, 0.0) + elapsed
        seconds["router"][kind] = seconds["router"].get(kind, 0.0) + record.seconds
        single_work += single.stats.tqsp_computations
        router_work += record.reply.stats.tqsp_computations
    detail["slowdown_bases_s"] = seconds
    detail["work_bases_tqsp"] = {"router": router_work, "single": single_work}
    return {
        "shard.fanout_mean": fanout,
        "shard.pruned_share": 1.0 - fanout / len(router.engines),
        "shard.overhead_ms": 1e3 * mean(overheads),
        "shard.work_ratio": ratio(router_work, single_work),
        "shard.slowdown_ratio": ratio(
            sum(seconds["router"].values()), sum(seconds["single"].values())
        ),
        "shard.bytes_total": float(sum(entry["bytes"] for entry in router.manifest["entries"])),
    }


def run(ctx: Context) -> Outcome:
    with corpus.scratch_dir("shard_scatter") as directory:
        return _run(ctx, directory)


def _run(ctx: Context, directory) -> Outcome:
    from repro import KSPEngine
    from repro.shard.router import ShardRouter

    files = corpus.ensure_corpus(ctx.smoke)
    graph, inverted = corpus.load_graph(files.nt)
    engine = KSPEngine.from_snapshot(files.snapshot)  # single-engine reference

    shard_dir = directory / "shards"
    build_s = corpus.in_child("shards", str(files.nt), str(shard_dir))["total"]
    opens = []
    for _ in range(OPEN_REPEATS):
        started = time.perf_counter()
        router = ShardRouter(shard_dir)
        opens.append(time.perf_counter() - started)
    open_s = median(opens)
    manifest = router.manifest

    gate_checked = _gate(router, engine, QueryStreams(graph, inverted, ctx.seed, "gate"), ctx.smoke)

    stream = OpStream("shard_scatter", graph, inverted, ctx.seed, ctx.seconds)
    ledger = Ledger()
    recorder = SpanRecorder()

    def execute(op: Op):
        return router.query(op.query, timeout=QUERY_TIMEOUT)

    def tracing_into(target: SpanRecorder) -> Tracing:
        return Tracing(
            target,
            router.engines,
            calls=[
                (shard, "query", "shard.exec-%d" % index)
                for index, shard in enumerate(router.engines)
            ],
        )

    cache_before = layers.cache_counters(router.engines)
    run_loop(
        stream.blocks(),
        execute,
        ctx.seconds,
        ledger,
        tracing=tracing_into(recorder) if ctx.trace else None,
        recorder=recorder,
        root_span="shard.route",
    )
    cache_after = layers.cache_counters(router.engines)
    _check_records(ledger, engine, ctx.seed)

    shard_bytes = sum(entry["bytes"] for entry in manifest["entries"])
    detail = {
        "gate_checked": gate_checked,
        "parallelism": router.parallelism,
        "setup_phases_s": {"build_shards": build_s, "open": open_s},
        "fanout_by_class": _fanout_by_class(ledger),
        "latency_ms_by_class": latency_by_class(ledger),
        **loop_detail(ledger, oracle.result_answer),
    }
    if not ctx.trace:
        metrics = ledger.end_to_end()
        metrics["setup_s"] = build_s + open_s
        metrics["peak_rss_mb"] = peak_rss_mb()
        metrics["snapshot_bytes_per_vertex"] = shard_bytes / files.vertices
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
        ledger, execute, tracing_into(scratch), scratch, "shard.route", ctx.seconds
    )
    metrics.update(_shard_layers(ledger, router, engine, detail))
    metrics["shard.build_s"] = build_s
    metrics["shard.open_ms"] = 1e3 * open_s
    replays, _ = layers.engine_replays(
        router.engines[0], [record.op.query for record in ledger.records]
    )
    metrics.update(replays)
    metrics.update(
        layers.snapshot_sections(
            shard_dir / entry["snapshot"] for entry in manifest["entries"]
        )
    )

    write_trace("shard_scatter", recorder, ledger, detail)
    return Outcome(ledger.attempted, ledger.failed, metrics, detail)
