"""Seeded workload inputs.

Queries come from the paper's Section 6.1 generators
(``repro.datagen.queries.QueryGenerator``) with the parameters
``repro.bench.context`` uses.  A workload is a fixed number of operations
per query class (``PLAN``), dealt into blocks of one composition and
shuffled inside each block from the workload seed, so one seed always
runs the same inputs.  Each class has its own stream of the seed: the O
stream of ``lib_cold`` is the O stream of ``shard_scatter`` and of the
``pure`` statements of ``sparql_topk``.  Blocks are generated between
timed operations (SDLL generation costs about as much as answering the
query).
"""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from bench_e2e.measure import ZipfSampler, derive_seed

KEYWORD_COUNT = 5
K = 5

#: The ``run_seconds`` of BENCHMARK.json the counts below were sized for;
#: ``--seconds`` scales them in proportion (``--smoke``: a tenth).
RUN_SECONDS = 15

#: One block of each single-caller workload, ``(query class, shape) ->
#: operations``: the issue's mixes (240 : 100 : 60, 240 : 60, 400 : 200 : 400)
#: in lowest terms.  ``query`` is a library/router call, ``pure`` and
#: ``residual`` are SPARQL statement shapes.
BLOCK: Dict[str, Dict[Tuple[str, str], int]] = {
    "lib_cold": {("O", "query"): 12, ("SDLL", "query"): 5, ("LDLL", "query"): 3},
    "shard_scatter": {("O", "query"): 4, ("SDLL", "query"): 1},
    "sparql_topk": {("O", "pure"): 2, ("SDLL", "pure"): 1, ("O", "residual"): 2},
}
#: Blocks per run at ``RUN_SECONDS``: the issue's 400 / 300 / 1 000
#: operations times 0.4, which is what the driver's time cap leaves once
#: every run has paid its set-up.  Frozen; a change here is a new baseline.
BLOCKS_PER_RUN = {"lib_cold": 8, "shard_scatter": 24, "sparql_topk": 80}
HTTP_REQUESTS = 600  # http_warm: the issue's 1 500 times 0.4, split between the clients

#: The class of each workload whose cost is set by the input and has a
#: heavy tail: one LDLL query on the engine takes 0.03-5.7 s, one SDLL
#: query on the default router 0.1-2.3 s.  Two dozen fresh draws per seed
#: move throughput by a third whatever the program does, so these come
#: from one pool fixed by ``POOL_SEED``; the workload seed decides where
#: in the run each of them falls.
POOLED = {"lib_cold": "LDLL", "shard_scatter": "SDLL"}
POOL_SEED = 0

POOL_SIZE = 48  # http_warm: distinct O queries behind the Zipf draw
ZIPF_EXPONENT = 1.0
JITTER_DEGREES = 0.02
RESIDUAL_PREDICATE = "urn:ksp:keyword"


@dataclass(frozen=True)
class Op:
    """One generated operation: a kSP query, plus its SPARQL text if any."""

    kind: str  # "O" | "SDLL" | "LDLL"
    shape: str  # "query" | "pure" | "residual"
    query: object  # repro.core.query.KSPQuery
    text: Optional[str] = None

    def canonical(self) -> list:
        location = self.query.location
        return [
            self.kind,
            self.shape,
            repr(location.x),
            repr(location.y),
            list(self.query.keywords),
            self.text,
        ]


def canonical_bytes(ops: Sequence[Op]) -> bytes:
    """The byte form two equal workloads share (identity tests, digests)."""
    return json.dumps([op.canonical() for op in ops], sort_keys=True).encode("utf-8")


def statement(query, residual_term: Optional[str]) -> str:
    """``ksp()`` head over one query, optionally with the residual pattern."""
    body = 'ksp(?place, ?score, "%s", POINT(%r %r)) .' % (
        " ".join(query.keywords),
        query.location.x,
        query.location.y,
    )
    if residual_term is not None:
        body += ' ?place <%s> "%s" .' % (RESIDUAL_PREDICATE, residual_term)
    return "SELECT ?place ?score WHERE { %s } ORDER BY ?score LIMIT %d" % (body, K)


def residual_term(graph) -> str:
    """The most common place-document term that most places still lack.

    About a quarter of the places carry it on the yago-like corpus, so a
    residual statement streams a handful of candidates per survivor.
    (Predicate tokens such as ``relatedto`` sit in nine documents of ten
    and would reject nothing.)
    """
    counts: Dict[str, int] = {}
    places = 0
    for vertex, _ in graph.places():
        places += 1
        for term in graph.document(vertex):
            counts[term] = counts.get(term, 0) + 1
    eligible = [
        (count, term) for term, count in counts.items() if 2 * count <= places
    ]
    if not eligible:
        raise ValueError("no place term is carried by at most half the places")
    return max(eligible)[1]


class QueryStreams:
    """Per-class query generators of one workload seed."""

    def __init__(self, graph, inverted_index, seed: int, purpose: str = "timed") -> None:
        self._graph = graph
        self._index = inverted_index
        self._seed = seed
        self._purpose = purpose
        self._generators: Dict[str, object] = {}

    def _generator(self, stream: str):
        from repro.datagen.queries import QueryGenerator, WorkloadConfig

        generator = self._generators.get(stream)
        if generator is None:
            config = WorkloadConfig(
                keyword_count=KEYWORD_COUNT,
                k=K,
                seed=derive_seed(self._seed, "%s/%s" % (self._purpose, stream)),
                min_hops=3,
                max_hops=7,
                max_term_frequency=4,
            )
            generator = QueryGenerator(self._graph, self._index, config)
            self._generators[stream] = generator
        return generator

    def take(self, kind: str, count: int, stream: Optional[str] = None) -> list:
        """The next ``count`` queries of class ``kind`` (``stream`` names an
        independent sequence of the same class)."""
        return self._generator(stream or kind).workload(count, kind)


def block_count(workload: str, seconds: float) -> int:
    """Blocks in a run of ``seconds``; two at least, so that a traced run
    has a traced and a bare half."""
    return max(2, round(BLOCKS_PER_RUN[workload] * seconds / RUN_SECONDS))


class OpStream:
    """The seeded block sequence of one single-caller workload run."""

    def __init__(
        self,
        workload: str,
        graph,
        inverted_index,
        seed: int,
        seconds: float = RUN_SECONDS,
        residual: Optional[str] = None,
        purpose: str = "timed",
    ) -> None:
        self._composition = BLOCK[workload]
        self.block_count = block_count(workload, seconds)
        self._streams = QueryStreams(graph, inverted_index, seed, purpose)
        self._order = random.Random(derive_seed(seed, "%s/order/%s" % (purpose, workload)))
        self._residual = residual
        self._pooled = POOLED.get(workload)
        self._pool: List = []
        if self._pooled is not None:
            per_block = sum(n for (kind, _), n in self._composition.items() if kind == self._pooled)
            self._pool = QueryStreams(graph, inverted_index, POOL_SEED, "pool").take(
                self._pooled, per_block * self.block_count
            )
            self._order.shuffle(self._pool)

    def _query(self, kind: str, shape: str):
        if kind == self._pooled:
            return self._pool.pop()
        stream = "%s/residual" % kind if shape == "residual" else kind
        return self._streams.take(kind, 1, stream=stream)[0]

    def _op(self, kind: str, shape: str) -> Op:
        query = self._query(kind, shape)
        if shape == "query":
            return Op(kind, shape, query)
        return Op(kind, shape, query, statement(query, self._residual if shape == "residual" else None))

    def blocks(self) -> Iterator[List[Op]]:
        for _ in range(self.block_count):
            slots = [slot for slot, count in self._composition.items() for _ in range(count)]
            self._order.shuffle(slots)
            yield [self._op(kind, shape) for kind, shape in slots]

    def take(self, count: int) -> List[Op]:
        """The first ``count`` operations (fewer if the run is shorter)."""
        ops: List[Op] = []
        for block in self.blocks():
            ops.extend(block)
            if len(ops) >= count:
                break
        return ops[:count]


class ZipfRequests:
    """``http_warm``: a pool of O queries, Zipf-ranked, location-jittered.

    Every client owns one request sequence; the keyword sets repeat (the
    TQSP cache is keyed by place and keyword set, not by location), the
    jitter keeps replies from being byte-identical.
    """

    def __init__(self, graph, inverted_index, seed: int) -> None:
        self.pool = QueryStreams(graph, inverted_index, seed, "pool").take(
            "O", POOL_SIZE
        )
        self._seed = seed
        self._zipf = ZipfSampler(len(self.pool), ZIPF_EXPONENT)

    def client(self, index: int) -> Iterator[Op]:
        rng = random.Random(derive_seed(self._seed, "client/%d" % index))
        while True:
            query = self.pool[self._zipf.sample(rng)]
            location = type(query.location)(
                query.location.x + rng.uniform(-JITTER_DEGREES, JITTER_DEGREES),
                query.location.y + rng.uniform(-JITTER_DEGREES, JITTER_DEGREES),
            )
            yield Op("O", "query", dataclasses.replace(query, location=location))


def request_body(query) -> bytes:
    """The ``POST /v1/query`` body of one query."""
    return json.dumps(
        {
            "location": [query.location.x, query.location.y],
            "keywords": list(query.keywords),
            "k": query.k,
        }
    ).encode("utf-8")
