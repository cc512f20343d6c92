"""Bit-parallel construction of the alpha-radius word-neighborhood postings.

Definition 5 asks, for every place ``p`` and word ``t``, for the hop
distance from ``p`` to the nearest vertex whose document holds ``t``, cut
off at ``alpha``.  Instead of one bounded BFS per place, number the
vocabulary and keep per vertex the *set of words within d hops* as one
big integer ``R_d[v]``::

    R_0[v] = doc(v)
    R_d[v] = R_{d-1}[v] | OR over neighbours n of v of R_{d-1}[n]

A word is within ``d`` hops of ``v`` exactly when it is in ``v``'s own
document or within ``d - 1`` hops of a neighbour, so ``R_d[v]`` is the BFS
ball of radius ``d`` and the distance of ``t`` from ``p`` is the first
``d`` with ``t`` in ``R_d[p]``.  ``alpha`` rounds of ORs over the edges
compute every place's neighborhood at once; an R-tree node's row
(Definition 6, the min-distance union) is the OR of its children's rows,
radius by radius.

The rows are place-major and the index is term-major, so the second half
is a transposition that never runs per-posting bytecode.  The sets spend
one *hexadecimal digit* per word (0 or 1), not one bit: OR works as
before, and the plain sum of a row's ``levels`` nested sets leaves in each
digit the number of radii at which the word is in reach, i.e. ``levels -
distance``.  ``%x`` prints that sum as one byte per word; the rows laid
side by side are a byte matrix, a strided slice of it is one word's
column, ``bytes.translate`` turns the column into the distances of the
entries present and ``itertools.compress`` picks their records.  The term
axis is cut into slabs of :data:`SLAB_TERMS` words and the whole pipeline,
recurrence included, runs once per slab, so the dense intermediates are
``SLAB_TERMS / 2`` bytes per vertex and radius and ``SLAB_TERMS`` bytes per
place, whatever the vocabulary size.
"""

from __future__ import annotations

import struct
from functools import reduce
from itertools import chain, compress
from operator import or_
from typing import Dict, Iterable, List, Sequence, Tuple

#: The two postings sections of an index: per place and per R-tree node.
KINDS = ("place", "node")

#: Per-term directory entry of a postings section: index of the term's
#: first record, number of records, reserved.  Records are
#: ``(entry id, distance)`` pairs of little-endian u32, sorted by entry id.
DIRECTORY_ENTRY = struct.Struct("<QII")
_RECORD = struct.Struct("<II")
RECORD_BYTES = _RECORD.size

#: Words per slab of the term axis.  Deliberately not a power of two: a
#: column is a strided read down the slab matrix, and a stride of 4096
#: bytes lands every row on a new page and in the same cache set
#: (measured 1.5x slower than 2000 on the 8000-vertex benchmark corpus).
SLAB_TERMS = 2000

# A hexadecimal digit counts at most fifteen radii (0 .. 14 hops).
_MAX_LEVELS = 15
_HEX_VALUE = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))

#: ``(directory, records)`` of one postings section.
Section = Tuple[bytearray, bytearray]


def sorted_terms(terms: Iterable[str]) -> List[str]:
    """The term numbering every term-keyed structure shares: rank in the
    order of the UTF-8 encodings, so a byte-wise binary search over the
    snapshot's vocabulary blob resolves a term."""
    return sorted(terms, key=lambda term: term.encode("utf-8"))


def build_postings(
    graph, rtree, alpha: int, undirected: bool = False, csr=None
) -> Tuple[List[str], Dict[str, Section]]:
    """The ``"place"`` and ``"node"`` postings sections of ``graph``'s
    places under ``rtree``, and the vocabulary (:func:`sorted_terms`)
    whose ranks index their directories.

    ``csr`` (a :class:`~repro.rdf.csr.CSRAdjacency` of ``graph``) serves
    the adjacency when present; any object with ``out_neighbors`` /
    ``in_neighbors`` does otherwise.
    """
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    vertex_count = graph.vertex_count
    edges = csr if csr is not None else graph
    if undirected:
        adjacency = [
            tuple(chain(edges.out_neighbors(vertex), edges.in_neighbors(vertex)))
            for vertex in range(vertex_count)
        ]
    else:
        adjacency = [tuple(edges.out_neighbors(vertex)) for vertex in range(vertex_count)]

    holders: Dict[str, List[int]] = {}
    for vertex in range(vertex_count):
        for term in graph.document(vertex):
            holders.setdefault(term, []).append(vertex)
    vocabulary = sorted_terms(holders)

    places = sorted(vertex for vertex, _ in graph.places())
    place_row = {vertex: row for row, vertex in enumerate(places)}
    # Children before parents; a node's members are rows of the place
    # planes (leaf) or of the node planes (inner).
    ordered = [node for level in reversed(rtree.levels()) for node in level]
    node_ids = sorted(node.node_id for node in ordered)
    node_row = {node_id: row for row, node_id in enumerate(node_ids)}
    aggregation = [
        (
            node_row[node.node_id],
            node.is_leaf,
            [place_row[entry.key] for entry in node.entries if entry.key in place_row]
            if node.is_leaf
            else [node_row[child.node_id] for child in node.entries],
        )
        for node in ordered
    ]

    place_records = [_RECORD.pack(vertex, 0) for vertex in places]
    node_records = [_RECORD.pack(node_id, 0) for node_id in node_ids]
    sections: Dict[str, Section] = {
        kind: (bytearray(DIRECTORY_ENTRY.size * len(vocabulary)), bytearray())
        for kind in KINDS
    }
    for first in range(0, len(vocabulary), SLAB_TERMS):
        terms = vocabulary[first : first + SLAB_TERMS]
        reach = [0] * vertex_count
        for digit, term in enumerate(terms):
            mask = 1 << (4 * digit)
            for vertex in holders[term]:
                reach[vertex] |= mask
        place_planes = [[reach[vertex] for vertex in places]]
        for _ in range(alpha):
            widened = [
                reduce(or_, map(reach.__getitem__, neighbors), reach[vertex])
                for vertex, neighbors in enumerate(adjacency)
            ]
            if widened == reach:
                break  # every ball has stopped growing
            if len(place_planes) == _MAX_LEVELS:
                raise ValueError(
                    "alpha neighborhoods deeper than %d hops are not representable"
                    % (_MAX_LEVELS - 1)
                )
            reach = widened
            place_planes.append([reach[vertex] for vertex in places])
        node_planes = []
        for place_plane in place_planes:
            node_plane = [0] * len(node_ids)
            for row, is_leaf, members in aggregation:
                source = place_plane if is_leaf else node_plane
                node_plane[row] = reduce(or_, map(source.__getitem__, members), 0)
            node_planes.append(node_plane)
        _transpose(place_planes, place_records, first, len(terms), *sections["place"])
        _transpose(node_planes, node_records, first, len(terms), *sections["node"])
    return vocabulary, sections


def _transpose(
    planes: Sequence[Sequence[int]],
    blank_records: Sequence[bytes],
    first_term: int,
    width: int,
    directory: bytearray,
    records: bytearray,
) -> None:
    """Append the slab's postings, term by term, to ``records`` and fill
    the terms' ``directory`` entries.  ``planes[d][row]`` is the set (one
    hexadecimal digit per slab word) within ``d`` hops of the entry whose
    distance-0 record is ``blank_records[row]``; rows are in entry-id
    order."""
    levels = len(planes)
    matrix = b"".join(
        b"%0*x" % (width, sum(radii)) for radii in zip(*planes)
    ).translate(_HEX_VALUE)
    to_distance = bytes(max(levels - reached, 0) for reached in range(256))
    for column in range(width):
        # The most significant digit is the slab's last word.
        reached = matrix[width - 1 - column :: width]
        distances = reached.translate(to_distance, b"\0")
        if distances:
            block = bytearray().join(compress(blank_records, reached))
            block[4::RECORD_BYTES] = distances
            DIRECTORY_ENTRY.pack_into(
                directory,
                DIRECTORY_ENTRY.size * (first_term + column),
                len(records) // RECORD_BYTES,
                len(distances),
                0,
            )
            records += block
