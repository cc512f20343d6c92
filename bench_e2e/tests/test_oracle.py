from repro.core.exhaustive import exhaustive_search

from bench_e2e import inputs, oracle


def test_oracle_equals_the_exhaustive_reference(small_corpus):
    """One BFS per keyword and one BFS per place state the same answer,
    ties included; the cheap form is what the timed runs can afford."""
    _, graph, inverted = small_corpus
    reference = oracle.Oracle(graph, inverted)
    streams = inputs.QueryStreams(graph, inverted, 11, "gate")
    for kind in ("O", "SDLL", "LDLL"):
        for query in streams.take(kind, 3):
            expected = oracle.result_answer(exhaustive_search(graph, inverted, query))
            assert reference.answer(query) == expected
            assert len(expected) == query.k


def test_digest_sees_order_and_ties():
    first = [(1, 2.0, 3.0), (2, 2.0, 3.0)]
    swapped = [(2, 2.0, 3.0), (1, 2.0, 3.0)]
    assert oracle.digest([first]) == oracle.digest([list(first)])
    assert oracle.digest([first]) != oracle.digest([swapped])
    assert oracle.digest([first, swapped]) != oracle.digest([swapped, first])
