from bench_e2e import inputs


def _stream(workload, small_corpus, seed, seconds=inputs.RUN_SECONDS):
    _, graph, inverted = small_corpus
    term = inputs.residual_term(graph)
    return inputs.OpStream(workload, graph, inverted, seed, seconds, residual=term)


def _first_ops(workload, small_corpus, seed, count=30):
    return _stream(workload, small_corpus, seed).take(count)


def test_one_seed_gives_byte_identical_workloads(small_corpus):
    for workload in inputs.BLOCK:
        first = inputs.canonical_bytes(_first_ops(workload, small_corpus, 11))
        again = inputs.canonical_bytes(_first_ops(workload, small_corpus, 11))
        assert first == again


def test_another_seed_gives_another_workload(small_corpus):
    for workload in inputs.BLOCK:
        assert inputs.canonical_bytes(_first_ops(workload, small_corpus, 11)) != (
            inputs.canonical_bytes(_first_ops(workload, small_corpus, 12))
        )


def test_a_run_is_a_fixed_number_of_blocks_of_one_mix(small_corpus):
    assert inputs.block_count("lib_cold", inputs.RUN_SECONDS) == 8
    assert inputs.block_count("shard_scatter", inputs.RUN_SECONDS) == 24
    assert inputs.block_count("sparql_topk", inputs.RUN_SECONDS) == 80
    assert inputs.block_count("lib_cold", inputs.RUN_SECONDS / 10) == 2  # a traced and a bare half
    blocks = list(_stream("sparql_topk", small_corpus, 11, seconds=1.5).blocks())
    assert len(blocks) == 8
    for block in blocks:
        mix = {}
        for op in block:
            mix[op.kind, op.shape] = mix.get((op.kind, op.shape), 0) + 1
        assert mix == inputs.BLOCK["sparql_topk"]
        assert all(op.text.startswith("SELECT ?place ?score") for op in block)


def test_seeded_class_streams_are_shared_between_workloads(small_corpus):
    lib = [op.query for op in _first_ops("lib_cold", small_corpus, 11) if op.kind == "O"]
    shard = [op.query for op in _first_ops("shard_scatter", small_corpus, 11) if op.kind == "O"]
    assert lib[:4] == shard[:4]


def test_the_heavy_tailed_class_is_one_pool_placed_by_the_seed(small_corpus):
    def heavy(seed):
        ops = [op for block in _stream("lib_cold", small_corpus, seed).blocks() for op in block]
        return [(position, op.query.keywords) for position, op in enumerate(ops) if op.kind == "LDLL"]

    first, other = heavy(11), heavy(12)
    assert len(first) == 3 * 8
    assert sorted(k for _, k in first) == sorted(k for _, k in other)  # the same queries
    assert first != other  # at other places in the run
    assert len({k for _, k in first}) == len(first)  # every keyword set is new


def test_zipf_requests_repeat_per_seed_and_jitter_locations(small_corpus):
    _, graph, inverted = small_corpus

    def first(seed, client):
        requests = inputs.ZipfRequests(graph, inverted, seed)
        stream = requests.client(client)
        return requests, [next(stream) for _ in range(50)]

    requests, ops = first(11, 0)
    assert inputs.canonical_bytes(ops) == inputs.canonical_bytes(first(11, 0)[1])
    assert inputs.canonical_bytes(ops) != inputs.canonical_bytes(first(11, 1)[1])
    assert inputs.canonical_bytes(ops) != inputs.canonical_bytes(first(12, 0)[1])
    pool = {query.keywords: query.location for query in requests.pool}
    for op in ops:
        origin = pool[op.query.keywords]
        assert abs(op.query.location.x - origin.x) <= inputs.JITTER_DEGREES
        assert abs(op.query.location.y - origin.y) <= inputs.JITTER_DEGREES
    # Zipf: the head of the pool is drawn far more often than its tail.
    drawn = [op.query.keywords for op in ops]
    assert drawn.count(requests.pool[0].keywords) > drawn.count(requests.pool[-1].keywords)


def test_residual_term_rejects_most_places(small_corpus):
    _, graph, _ = small_corpus
    term = inputs.residual_term(graph)
    places = [vertex for vertex, _ in graph.places()]
    carrying = sum(1 for vertex in places if term in graph.document(vertex))
    assert 0.05 * len(places) < carrying <= 0.5 * len(places)
