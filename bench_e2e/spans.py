"""In-memory spans recorded by the benchmark around calls into each layer.

A span is ``(name, start, end, parent, op_id, value)``: ``parent`` is the
index of the span that caused it (-1 for an operation's root), ``op_id``
is shared by every span of one operation, ``value`` is a count observed
at the same boundary (BFS vertices, probes issued, a hit flag).  Spans
stay in memory until the workload ends.

A layer's self time is its span minus the part covered by child spans.
Children of one parent may overlap (the shard router runs its shards on
a thread pool); an instant covered by ``n`` children is split ``1/n``
each, so the self times of an operation always add up to its wall time.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

Span = Tuple[str, float, float, int, int, float]

SUM_TOLERANCE = 0.05


class SpanRecorder:
    """Collects spans; one instance per traced workload run."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()
        self._append = threading.Lock()  # index and append must not interleave
        self._op_id = -1
        self._op_root = -1

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self, name: str) -> int:
        """Open the root span of the next operation (caller thread)."""
        self._op_id += 1
        self._op_root = -1  # the previous operation's root is closed
        self._op_root = index = self.begin(name)
        return index

    def begin(self, name: str) -> int:
        stack = self._stack()
        # A pool thread has no open span of its own: its work was caused
        # by the operation's root.
        parent = stack[-1] if stack else self._op_root
        with self._append:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, parent, self._op_id, 0.0])
        stack.append(index)
        return index

    def end(self, index: int, value: float = 0.0) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5] = value
        self._stack().pop()

    @property
    def op_count(self) -> int:
        return self._op_id + 1


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Attributed self time of every span, in seconds.

    Each span's duration is first scaled to the share of its parent's
    interval attributed to it (``1/n`` where ``n`` siblings overlap),
    then its children's attributed shares are subtracted.
    """
    children: Dict[int, List[int]] = {}
    for index, span in enumerate(spans):
        children.setdefault(span[3], []).append(index)

    attributed = [0.0] * len(spans)
    result = [0.0] * len(spans)

    def settle(index: int, granted: float) -> None:
        span = spans[index]
        duration = span[2] - span[1]
        attributed[index] = granted
        kids = children.get(index, ())
        if not kids or duration <= 0.0:
            result[index] = granted
            return
        scale = granted / duration
        shares = _split_overlaps(
            [(max(spans[k][1], span[1]), min(spans[k][2], span[2])) for k in kids]
        )
        covered = 0.0
        for kid, share in zip(kids, shares):
            covered += share
            settle(kid, share * scale)
        result[index] = max(0.0, duration - covered) * scale

    for root in children.get(-1, ()):
        settle(root, spans[root][2] - spans[root][1])
    return result


def _split_overlaps(intervals: Sequence[Tuple[float, float]]) -> List[float]:
    """Length of each interval with every overlapped instant shared
    equally among the intervals that cover it."""
    events: List[Tuple[float, int, int]] = []
    for index, (start, end) in enumerate(intervals):
        if end > start:
            events.append((start, 1, index))
            events.append((end, 0, index))
    events.sort()
    shares = [0.0] * len(intervals)
    active: set = set()
    previous = 0.0
    for instant, opening, index in events:
        if active:
            slice_each = (instant - previous) / len(active)
            for member in active:
                shares[member] += slice_each
        previous = instant
        if opening:
            active.add(index)
        else:
            active.discard(index)
    return shares


def per_op_sum_errors(spans: Sequence[Sequence], walls: Mapping[int, float]) -> List[float]:
    """For every operation: ``|sum of self times - wall| / wall``.

    ``walls`` maps an op id to the wall time its caller measured around
    the call with its own clock readings.  The self times of one tree add
    up to its root span by construction; against the caller's wall they
    also show spans filed under the wrong operation (a pool thread that
    outlives its request), an operation with two roots or none, and what
    opening and closing the root costs.
    """
    totals: Dict[int, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span[4]] = totals.get(span[4], 0.0) + own
    return [
        abs(totals.get(op, 0.0) - wall) / wall if wall > 0.0 else 0.0
        for op, wall in sorted(walls.items())
    ]


def malformed(spans: Sequence[Sequence], slack: float = 1e-6) -> int:
    """Spans never closed, or not inside the span that caused them."""
    bad = 0
    for span in spans:
        if span[2] < span[1]:
            bad += 1
        elif span[3] >= 0:
            parent = spans[span[3]]
            if span[1] < parent[1] - slack or span[2] > parent[2] + slack:
                bad += 1
    return bad


class SpanTable:
    """Aggregates over the recorded spans, by span name."""

    def __init__(self, spans: Sequence[Sequence], ops: Optional[Iterable[int]] = None) -> None:
        keep = None if ops is None else set(ops)
        selfs = self_times(spans)
        self.op_ids = sorted(
            {span[4] for span in spans if keep is None or span[4] in keep}
        )
        self._rows: Dict[str, List[Tuple[float, float, float]]] = {}
        for span, own in zip(spans, selfs):
            if keep is not None and span[4] not in keep:
                continue
            name = span[0].split("-")[0] if span[0].startswith("shard.exec") else span[0]
            self._rows.setdefault(name, []).append((span[2] - span[1], own, span[5]))

    def count(self, name: str) -> int:
        return len(self._rows.get(name, ()))

    def total(self, name: str) -> float:
        return sum(row[0] for row in self._rows.get(name, ()))

    def total_self(self, name: str) -> float:
        return sum(row[1] for row in self._rows.get(name, ()))

    def total_value(self, name: str) -> float:
        return sum(row[2] for row in self._rows.get(name, ()))

    def mean(self, name: str) -> float:
        rows = self._rows.get(name, ())
        return sum(row[0] for row in rows) / len(rows) if rows else 0.0

    def per_op(self, amount: float) -> float:
        return amount / len(self.op_ids) if self.op_ids else 0.0


def trace_document(
    workload: str, spans: Sequence[Sequence], walls: Mapping[int, float], limit_ops: int
) -> dict:
    """The ``trace_<workload>.json`` payload: raw spans of the first
    ``limit_ops`` operations plus the per-operation sum check of all."""
    errors = per_op_sum_errors(spans, walls)
    return {
        "workload": workload,
        "fields": ["name", "start", "end", "parent", "op_id", "value"],
        "operations": len(errors),
        "spans_recorded": len(spans),
        "spans": [list(span) for span in spans if span[4] < limit_ops],
        "sum_check": {
            "tolerance": SUM_TOLERANCE,
            "worst": max(errors) if errors else 0.0,
            "violations": sum(1 for error in errors if error > SUM_TOLERANCE)
            + malformed(spans),
        },
    }
