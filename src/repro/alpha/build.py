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

One recurrence serves several R-trees.  The sets ``R_d[v]`` depend on the
graph alone, never on which places a tree holds, so :func:`build_postings`
takes a sequence of trees, runs the recurrence once per slab and gathers,
aggregates and transposes each tree's rows from it.  The engine passes its
one tree; a shard build passes one tree per tile, and each tile's sections
are byte for byte those of a build over that tile alone.
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
    graph, rtrees: Sequence, alpha: int, undirected: bool = False, csr=None
) -> Tuple[List[str], List[Dict[str, Section]]]:
    """The vocabulary (:func:`sorted_terms`) of ``graph`` and, for each
    tree of ``rtrees``, the ``"place"`` and ``"node"`` postings sections of
    its places and nodes, with directories indexed by vocabulary rank.

    A tree's places are its leaf keys; the trees may cover any subsets of
    ``graph``'s vertices.  The recurrence runs once over the whole graph
    whatever the number of trees, so every tree's rows are the same as a
    build over that tree alone.  ``csr`` (a
    :class:`~repro.rdf.csr.CSRAdjacency` of ``graph``) serves the adjacency
    when present; any object with ``out_neighbors`` / ``in_neighbors`` does
    otherwise.
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

    layouts = [_TreeLayout(rtree) for rtree in rtrees]
    sections: List[Dict[str, Section]] = [
        {
            kind: (bytearray(DIRECTORY_ENTRY.size * len(vocabulary)), bytearray())
            for kind in KINDS
        }
        for _ in layouts
    ]
    for first in range(0, len(vocabulary), SLAB_TERMS):
        terms = vocabulary[first : first + SLAB_TERMS]
        reach = [0] * vertex_count
        for digit, term in enumerate(terms):
            mask = 1 << (4 * digit)
            for vertex in holders[term]:
                reach[vertex] |= mask
        place_planes = [[[reach[vertex] for vertex in layout.places]] for layout in layouts]
        levels = 1
        for _ in range(alpha):
            widened = [
                reduce(or_, map(reach.__getitem__, neighbors), reach[vertex])
                for vertex, neighbors in enumerate(adjacency)
            ]
            if widened == reach:
                break  # every ball has stopped growing
            if levels == _MAX_LEVELS:
                raise ValueError(
                    "alpha neighborhoods deeper than %d hops are not representable"
                    % (_MAX_LEVELS - 1)
                )
            reach = widened
            levels += 1
            for layout, planes in zip(layouts, place_planes):
                planes.append([reach[vertex] for vertex in layout.places])
        for layout, planes, tree_sections in zip(layouts, place_planes, sections):
            node_planes = [layout.aggregate(plane) for plane in planes]
            _transpose(planes, layout.place_records, first, len(terms), *tree_sections["place"])
            _transpose(node_planes, layout.node_records, first, len(terms), *tree_sections["node"])
    return vocabulary, sections


class _TreeLayout:
    """The rows of one R-tree's postings: its leaf keys (place rows) and
    its node ids (node rows), each in id order, and the node aggregation
    (Definition 6) over them."""

    def __init__(self, rtree) -> None:
        # Children before parents; a node's members are rows of the place
        # planes (leaf) or of the node planes (inner).
        ordered = [node for level in reversed(rtree.levels()) for node in level]
        self.places = sorted(
            entry.key for node in ordered if node.is_leaf for entry in node.entries
        )
        place_row = {vertex: row for row, vertex in enumerate(self.places)}
        node_ids = sorted(node.node_id for node in ordered)
        node_row = {node_id: row for row, node_id in enumerate(node_ids)}
        self._aggregation = [
            (
                node_row[node.node_id],
                node.is_leaf,
                [place_row[entry.key] for entry in node.entries]
                if node.is_leaf
                else [node_row[child.node_id] for child in node.entries],
            )
            for node in ordered
        ]
        self.place_records = [_RECORD.pack(vertex, 0) for vertex in self.places]
        self.node_records = [_RECORD.pack(node_id, 0) for node_id in node_ids]

    def aggregate(self, place_plane: Sequence[int]) -> List[int]:
        """The node plane of one radius: each node's row is the OR of its
        members' rows."""
        node_plane = [0] * len(self.node_records)
        for row, is_leaf, members in self._aggregation:
            source = place_plane if is_leaf else node_plane
            node_plane[row] = reduce(or_, map(source.__getitem__, members), 0)
        return node_plane


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
