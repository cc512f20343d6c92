import threading

import pytest

from bench_e2e.spans import (
    SUM_TOLERANCE,
    SpanRecorder,
    SpanTable,
    malformed,
    per_op_sum_errors,
    self_times,
    trace_document,
)


def span(name, start, end, parent, op=0, value=0.0):
    return [name, start, end, parent, op, value]


def test_self_time_is_the_span_minus_its_children():
    spans = [
        span("core.query", 0.0, 10.0, -1),
        span("core.tqsp", 1.0, 7.0, 0),
        span("rdf.bfs", 2.0, 6.0, 1),
        span("reach.probe", 8.0, 9.0, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 4.0, 1.0])
    assert per_op_sum_errors(spans, {0: 10.0}) == pytest.approx([0.0])


def test_overlapping_children_share_the_overlap():
    # Two shard executions overlap on [2, 4]: each gets half of it.
    spans = [
        span("shard.route", 0.0, 6.0, -1),
        span("shard.exec-0", 1.0, 4.0, 0),
        span("shard.exec-1", 2.0, 5.0, 0),
        span("rdf.bfs", 2.0, 4.0, 1),  # all of it inside the overlap window
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(2.0)  # [0,1] and [5,6]
    assert own[1] + own[3] == pytest.approx(2.0)  # [1,2] + half of [2,4]
    assert own[2] == pytest.approx(2.0)  # half of [2,4] + [4,5]
    assert sum(own) == pytest.approx(6.0)
    assert per_op_sum_errors(spans, {0: 6.0}) == pytest.approx([0.0])


def test_sum_check_is_per_operation_and_flags_bad_spans():
    spans = [
        span("core.query", 0.0, 1.0, -1, op=0),
        span("core.tqsp", 0.2, 0.6, 0, op=0),
        span("core.query", 2.0, 4.0, -1, op=1),
        span("core.tqsp", 2.5, 3.0, 2, op=1),
    ]
    # The walls are the caller's own clock readings around each call.
    walls = {0: 0.99, 1: 1.98}
    assert per_op_sum_errors(spans, walls) == pytest.approx([0.01 / 0.99, 0.02 / 1.98])
    assert malformed(spans) == 0
    document = trace_document("lib_cold", spans, walls, limit_ops=1)
    assert document["operations"] == 2
    assert len(document["spans"]) == 2  # only the first operation's spans are kept
    assert document["sum_check"]["violations"] == 0
    assert 0.0 < document["sum_check"]["worst"] < SUM_TOLERANCE

    # A span filed under the wrong operation: op 0 is short, op 1 is over.
    misfiled = [list(s) for s in spans] + [span("core.query", 0.0, 0.5, -1, op=1)]
    assert per_op_sum_errors(misfiled, walls)[1] > SUM_TOLERANCE
    assert trace_document("lib_cold", misfiled, walls, 1)["sum_check"]["violations"] == 1
    # An operation the caller timed and no span covers.
    assert per_op_sum_errors(spans, {**walls, 2: 1.0})[2] == pytest.approx(1.0)

    never_closed = spans + [span("alpha.bound", 3.5, 0.0, 2, op=1)]
    outside_parent = spans + [span("alpha.bound", 3.5, 4.5, 2, op=1)]
    assert malformed(never_closed) == 1
    assert malformed(outside_parent) == 1
    assert trace_document("lib_cold", never_closed, walls, 1)["sum_check"]["violations"] >= 1


def test_recorder_links_parents_ops_and_pool_threads():
    recorder = SpanRecorder()
    root = recorder.begin_op("shard.route")
    inner = recorder.begin("alpha.view")
    recorder.end(inner)

    def pool_thread():
        index = recorder.begin("shard.exec-0")
        nested = recorder.begin("core.tqsp")
        recorder.end(nested, value=1.0)
        recorder.end(index)

    threads = [threading.Thread(target=pool_thread) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    recorder.end(root)
    second = recorder.begin_op("shard.route")
    recorder.end(second)

    spans = recorder.spans
    assert recorder.op_count == 2
    assert spans[root][3] == -1 and spans[second][3] == -1
    assert spans[inner][3] == root
    executions = [s for s in spans if s[0] == "shard.exec-0"]
    assert len(executions) == 4 and all(s[3] == root for s in executions)
    for nested in (s for s in spans if s[0] == "core.tqsp"):
        assert spans[nested[3]][0] == "shard.exec-0"
    assert all(s[4] == 0 for s in spans[:-1]) and spans[-1][4] == 1
    assert malformed(spans) == 0
    walls = {op: spans[index][2] - spans[index][1] for op, index in ((0, root), (1, second))}
    assert max(per_op_sum_errors(spans, walls)) <= SUM_TOLERANCE

    table = SpanTable(spans, ops=[0])
    assert table.count("shard.exec") == 4  # per-shard names fold into one row
    assert table.total_value("core.tqsp") == 4.0
    assert table.per_op(8.0) == 8.0
