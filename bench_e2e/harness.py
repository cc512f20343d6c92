"""What the four workloads share: the run context, the closed loop, the
ledger of what it measured and the end-to-end numbers derived from it."""

from __future__ import annotations

import contextlib
import gc
import json
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set

from bench_e2e import corpus, oracle
from bench_e2e.inputs import Op
from bench_e2e.measure import derive_seed, mean, median, percentile
from bench_e2e.spans import trace_document

TRACE_OPS = 100  # trace_<workload>.json keeps the raw spans of this many ops
QUERY_TIMEOUT = 10.0
GIVE_UP_FACTOR = 6  # stop issuing once the ops have taken this many times --seconds
POST_CHECKS = 40  # timed answers re-checked against the reference afterwards


@dataclass(frozen=True)
class Context:
    """One invocation: which workload, which inputs, how long, traced or not."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    smoke: bool


@dataclass
class Outcome:
    """What a workload hands back to ``run.py``."""

    attempted: int
    failed: int
    metrics: Dict[str, float]
    detail: Dict[str, object] = field(default_factory=dict)


@dataclass
class Record:
    op: Op
    seconds: float
    reply: object  # None when the call raised
    traced: bool
    op_id: int = -1  # the recorder's operation id when traced


class Ledger:
    """Every timed operation of one closed loop, in issue order."""

    def __init__(self) -> None:
        self.records: List[Record] = []
        self.failed = 0
        self.first_error: Optional[str] = None

    def fail(self, reason: str) -> None:
        self.failed += 1
        if self.first_error is None:
            self.first_error = reason
            sys.stderr.write("bench_e2e: failed operation: %s\n" % reason)

    @property
    def attempted(self) -> int:
        return len(self.records)

    def seconds(self, traced: Optional[bool] = None) -> List[float]:
        return [
            record.seconds
            for record in self.records
            if traced is None or record.traced == traced
        ]

    def end_to_end(self, wall: Optional[float] = None) -> Dict[str, float]:
        """Latency median/p95 and throughput.  One caller's wall time is
        the sum of its latencies; concurrent callers pass the phase wall."""
        seconds = self.seconds()
        busy = wall if wall is not None else sum(seconds)
        return {
            "latency_p50_ms": 1e3 * median(seconds),
            "latency_p95_ms": 1e3 * percentile(seconds, 0.95),
            "throughput_qps": len(seconds) / busy,
        }

    def sample_counts(self) -> Dict[str, int]:
        ordered = sorted(self.seconds())
        return {
            "samples": len(ordered),
            "beyond_p95": len(ordered) - int(0.95 * (len(ordered) - 1)) - 1,
        }


def run_loop(
    blocks: Iterable[Sequence[Op]],
    execute: Callable[[Op], object],
    seconds: float,
    ledger: Ledger,
    tracing=None,
    recorder=None,
    root_span: str = "",
) -> None:
    """One caller, closed loop: issue the next op when the previous one
    returned, until every block has run.

    The op count is fixed by the inputs; ``seconds`` is what it was sized
    for, and only stops a program grown ``GIVE_UP_FACTOR`` times slower
    from running into the driver's time limit (the run then fails).
    Blocks are generated between operations and are not part of any
    latency.  With ``tracing``, odd blocks run with the proxies installed
    and a root span per op; even blocks run bare, so both halves see the
    same class mix.
    """
    busy = 0.0
    for number, block in enumerate(blocks):
        traced = tracing is not None and number % 2 == 1
        with tracing if traced else contextlib.nullcontext():
            for op in block:
                if busy > GIVE_UP_FACTOR * seconds:
                    ledger.records.append(Record(op, 0.0, None, False))
                    ledger.fail("not issued: the run has taken %.0f s" % busy)
                    continue
                op_id = -1
                if traced:
                    span = recorder.begin_op(root_span)
                    op_id = recorder.op_count - 1
                started = time.perf_counter()
                try:
                    reply = execute(op)
                except Exception:  # the program failed this op; keep measuring
                    reply = None
                    ledger.fail(traceback.format_exc(limit=3))
                elapsed = time.perf_counter() - started
                if traced:
                    recorder.end(span)
                busy += elapsed
                ledger.records.append(Record(op, elapsed, reply, traced, op_id))
        if traced:
            # A traced block leaves hundreds of thousands of live span
            # lists; set them aside, or every full collection walks them
            # (45 ms by the end of a run) in the middle of someone's op.
            gc.freeze()


OVERHEAD_OPS = 40
OVERHEAD_BUDGET_SHARE = 0.5  # of --seconds; heavy-class ops replay in seconds each


def trace_overhead_share(
    ledger: Ledger,
    execute: Callable[[Op], object],
    tracing,
    recorder,
    root_span: str,
    seconds: float,
) -> float:
    """Tracing cost per op over the untraced mean latency.

    The two halves of the loop answered different queries, so their
    difference is mostly sampling noise.  Instead the cost is measured on
    the same inputs: ops the loop has answered are replayed bare and
    traced, in alternating order; their span count is what it was the
    first time, so the paired difference is what the proxies cost per op.
    ``tracing`` and ``recorder`` are a scratch pair, not the loop's.
    """
    ops = [record.op for record in ledger.records if record.traced][:OVERHEAD_OPS]
    extra = []
    began = time.perf_counter()
    for number, op in enumerate(ops):
        if time.perf_counter() - began > OVERHEAD_BUDGET_SHARE * seconds:
            break
        execute(op)  # whatever the loop left cold is warm for both sides
        spent = {}
        for with_spans in (number % 2 == 0, number % 2 == 1):
            with tracing if with_spans else contextlib.nullcontext():
                span = recorder.begin_op(root_span)
                started = time.perf_counter()
                execute(op)
                spent[with_spans] = time.perf_counter() - started
                recorder.end(span)
        extra.append(spent[True] - spent[False])
    untraced_mean = mean(ledger.seconds(traced=False))
    # The median pair: a collector pause inside one replay is not tracing.
    return median(extra) / untraced_mean if extra and untraced_mean else 0.0


def post_check_sample(ledger: Ledger, seed: int, count: int = POST_CHECKS) -> Set[int]:
    """Positions of a seeded sample of answered records, to be checked
    against the reference once timing is over."""
    answered = [
        position for position, record in enumerate(ledger.records) if record.reply is not None
    ]
    rng = random.Random(derive_seed(seed, "post-check"))
    return set(rng.sample(answered, min(count, len(answered))))


def latency_by_class(ledger: Ledger) -> Dict[str, Dict[str, float]]:
    """Ops, median and mean latency per ``class/shape``: which class an
    end-to-end number belongs to (``DETAIL``, not a contract metric)."""
    groups: Dict[str, List[float]] = {}
    for record in ledger.records:
        groups.setdefault("%s/%s" % (record.op.kind, record.op.shape), []).append(record.seconds)
    return {
        name: {"ops": len(seconds), "p50_ms": 1e3 * median(seconds), "mean_ms": 1e3 * mean(seconds)}
        for name, seconds in sorted(groups.items())
    }


def loop_detail(ledger: Ledger, to_answer: Callable[[object], Sequence]) -> Dict[str, object]:
    """Sample counts and ``answers_sha256`` over every answer in issue
    order, so two commits can be compared for identical output."""
    return {
        "answers_sha256": oracle.digest(
            to_answer(record.reply) for record in ledger.records if record.reply is not None
        ),
        **ledger.sample_counts(),
    }


def write_trace(workload: str, recorder, ledger: Ledger, detail: Dict[str, object]) -> None:
    """Write ``out/trace_<workload>.json``; a failed sum check fails the run.

    The walls the self times must add up to are the ledger's own clock
    readings around each call, not the root spans'."""
    walls = {record.op_id: record.seconds for record in ledger.records if record.traced}
    document = trace_document(workload, recorder.spans, walls, limit_ops=TRACE_OPS)
    corpus.OUT.mkdir(parents=True, exist_ok=True)
    (corpus.OUT / ("trace_%s.json" % workload)).write_text(
        json.dumps(document), encoding="utf-8"
    )
    detail["sum_check"] = document["sum_check"]
    if document["sum_check"]["violations"]:
        ledger.fail("span self times do not add up to the op wall: %r" % document["sum_check"])


def gate_failure(what: str, op: Op, got, expected) -> str:
    return "%s disagrees on %s %s %r at %r:\n  got      %r\n  expected %r" % (
        what,
        op.kind,
        op.shape,
        op.query.keywords,
        (op.query.location.x, op.query.location.y),
        got,
        expected,
    )


class GateError(Exception):
    """The untimed correctness stage found a wrong answer."""
