"""Answer checking: a brute-force kSP oracle and answer digests.

The definition is small enough to restate.  The looseness of the
tightest qualified semantic place rooted at ``p`` is
``1 + sum over keywords t of d(p, t)``, where ``d(p, t)`` is the hop
distance along out-edges from ``p`` to the nearest vertex whose document
contains ``t``; ``p`` qualifies when every distance is finite.  The kSP
answer is the ``k`` places of smallest ``looseness * distance`` (ties by
vertex id).  One multi-source BFS per keyword over *in*-edges yields
``d(., t)`` for every vertex at once, so the oracle scores every place
in a few graph sweeps — ``repro.core.exhaustive`` (one BFS per place,
20-30 s per query on the full corpus) states the same thing and the
harness self-tests hold the two equal on the small corpus.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable, List, Sequence, Tuple

Answer = List[Tuple[int, float, float]]  # (root, score, looseness), ranked


class Oracle:
    """Brute-force kSP answers over one graph (directed, product ranking)."""

    def __init__(self, graph, inverted_index) -> None:
        self._index = inverted_index
        self._in = [tuple(graph.in_neighbors(v)) for v in range(graph.vertex_count)]
        self._places = list(graph.places())

    def _distances(self, term: str) -> List[int]:
        distance = [-1] * len(self._in)
        frontier = list(self._index.posting(term))
        for vertex in frontier:
            distance[vertex] = 0
        hops = 0
        while frontier:
            hops += 1
            following = []
            for vertex in frontier:
                for source in self._in[vertex]:
                    if distance[source] < 0:
                        distance[source] = hops
                        following.append(source)
            frontier = following
        return distance

    def answer(self, query) -> Answer:
        per_term = [self._distances(term) for term in query.keywords]
        scored = []
        for place, location in self._places:
            hops = [distance[place] for distance in per_term]
            if min(hops) < 0:
                continue
            looseness = 1.0 + sum(hops)
            score = looseness * location.distance_to(query.location)
            scored.append((score, place, looseness))
        scored.sort()
        return [(place, score, looseness) for score, place, looseness in scored[: query.k]]


def result_answer(result) -> Answer:
    """``(root, score, looseness)`` rows of a ``KSPResult``."""
    return [(place.root, place.score, place.looseness) for place in result.places]


def wire_answer(document: dict) -> Answer:
    """The same rows from a ``/v1/query`` reply."""
    return [
        (place["root"], place["score"], place["looseness"])
        for place in document["places"]
    ]


def sparql_answer(result) -> List[Tuple[str, float]]:
    """``(place IRI, score)`` rows of a ``SparqlResult``."""
    return [
        (row["place"]["value"], float(row["score"]["value"]))
        for row in result.bindings
    ]


def labelled(graph, answer: Answer) -> List[Tuple[str, float]]:
    """An engine answer in the form SPARQL bindings carry."""
    return [(graph.label(root), score) for root, score, _ in answer]


def digest(answers: Iterable[Sequence]) -> str:
    """sha256 over ordered answers, floats by ``repr`` (ties included)."""
    sha = hashlib.sha256()
    for answer in answers:
        sha.update(json.dumps([list(row) for row in answer]).encode("utf-8"))
        sha.update(b"\n")
    return sha.hexdigest()
