"""Binary serialization of the query-time indexes.

The paper's preprocessing is expensive (Table 5: the alpha-radius pass
alone takes 20 hours on DBpedia), so a production deployment must build
indexes once and reload them.  This module defines compact binary formats
for the three index families that are costly to rebuild:

* pruned-landmark reachability labels (+ the SCC component array and the
  keyword terminal-vertex map of the augmented graph),
* alpha-radius word-neighborhood inverted files,
* and the inverted document index (already handled by
  :meth:`repro.text.inverted.InvertedIndex.save`).

All formats are little-endian, magic-tagged and validated on load.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import BinaryIO, Dict, List, Union

from repro.alpha.build import RECORD_BYTES
from repro.alpha.index import AlphaIndex
from repro.reach.condensation import Condensation
from repro.reach.keyword import KeywordReachabilityIndex
from repro.reach.pll import PrunedLandmarkIndex

_U32 = struct.Struct("<I")
_REACH_MAGIC = b"RRCH1\n"
_ALPHA_MAGIC = b"RALF1\n"


def _write_u32(stream: BinaryIO, value: int) -> None:
    stream.write(_U32.pack(value))


def _read_u32(stream: BinaryIO) -> int:
    data = stream.read(4)
    if len(data) != 4:
        raise ValueError("truncated index file")
    return _U32.unpack(data)[0]


def _write_u32_list(stream: BinaryIO, values) -> None:
    _write_u32(stream, len(values))
    stream.write(struct.pack("<%dI" % len(values), *values))


def _read_u32_list(stream: BinaryIO) -> List[int]:
    count = _read_u32(stream)
    data = stream.read(4 * count)
    if len(data) != 4 * count:
        raise ValueError("truncated index file")
    return list(struct.unpack("<%dI" % count, data))


def _write_string(stream: BinaryIO, text: str) -> None:
    encoded = text.encode("utf-8")
    _write_u32(stream, len(encoded))
    stream.write(encoded)


def _read_string(stream: BinaryIO) -> str:
    length = _read_u32(stream)
    data = stream.read(length)
    if len(data) != length:
        raise ValueError("truncated index file")
    return data.decode("utf-8")


# --------------------------------------------------------------------------
# Keyword reachability
# --------------------------------------------------------------------------


def save_reachability(
    index: KeywordReachabilityIndex, path: Union[str, Path]
) -> None:
    """Persist a PLL-backed keyword reachability index.

    GRAIL-backed indexes are rebuild-only (their fallback DFS needs the
    full DAG adjacency, which we deliberately do not persist).
    """
    if index.method != "pll":
        raise ValueError("only PLL-backed reachability indexes are persistable")
    pll: PrunedLandmarkIndex = index._index
    condensation = index._condensation
    with open(path, "wb") as stream:
        stream.write(_REACH_MAGIC)
        _write_u32(stream, 1 if index._undirected else 0)
        terms = sorted(index._term_vertex.items(), key=lambda item: item[1])
        _write_u32(stream, len(terms))
        for term, slot in terms:
            _write_string(stream, term)
            _write_u32(stream, slot)
        _write_u32_list(stream, condensation.component)
        _write_u32(stream, condensation.node_count)
        _write_u32(stream, len(pll.label_out))
        for label in pll.label_out:
            _write_u32_list(stream, label)
        for label in pll.label_in:
            _write_u32_list(stream, label)
        _write_u32(stream, sum(len(sources) for sources in index._term_in))


def load_reachability(path: Union[str, Path], graph) -> KeywordReachabilityIndex:
    """Restore a reachability index saved by :func:`save_reachability`.

    ``graph`` must be the same data graph the index was built over (the
    component array length is validated against it).
    """
    with open(path, "rb") as stream:
        magic = stream.read(len(_REACH_MAGIC))
        if magic != _REACH_MAGIC:
            raise ValueError("not a reachability index file: %s" % path)
        undirected = bool(_read_u32(stream))
        term_count = _read_u32(stream)
        term_vertex: Dict[str, int] = {}
        for _ in range(term_count):
            term = _read_string(stream)
            term_vertex[term] = _read_u32(stream)
        component = _read_u32_list(stream)
        node_count = _read_u32(stream)
        label_count = _read_u32(stream)
        label_out = [_read_u32_list(stream) for _ in range(label_count)]
        label_in = [_read_u32_list(stream) for _ in range(label_count)]
        term_in_total = _read_u32(stream)

    expected = graph.vertex_count + term_count
    if len(component) != expected:
        raise ValueError(
            "index does not match the graph: %d component entries for "
            "%d augmented vertices" % (len(component), expected)
        )

    condensation = Condensation.__new__(Condensation)
    condensation.component = component
    condensation.node_count = node_count
    condensation.out = []  # not needed for PLL queries
    condensation.into = []

    pll = PrunedLandmarkIndex.__new__(PrunedLandmarkIndex)
    pll.label_out = label_out
    pll.label_in = label_in

    index = KeywordReachabilityIndex.__new__(KeywordReachabilityIndex)
    index._graph = graph
    index._undirected = undirected
    index._term_vertex = term_vertex
    index._term_in = [[0] * 0]  # placeholder; sizes folded below
    index._restored_term_in_total = term_in_total
    index._condensation = condensation
    index._index = pll
    index.method = "pll"
    index.queries_issued = 0
    return index


# --------------------------------------------------------------------------
# Alpha-radius index
# --------------------------------------------------------------------------


def _write_postings(stream: BinaryIO, index: AlphaIndex, kind: str) -> None:
    runs = index.term_runs(kind)
    records = memoryview(index.section(kind)[1]).cast("B")
    _write_u32(stream, len(runs))
    for term, first, count in runs:
        _write_string(stream, term)
        _write_u32(stream, count)
        stream.write(records[RECORD_BYTES * first : RECORD_BYTES * (first + count)])


def _read_postings(stream: BinaryIO) -> Dict[str, bytes]:
    """``term -> run of (entry id, distance) records``; the file's entry
    blocks are the index's record format byte for byte."""
    postings: Dict[str, bytes] = {}
    term_count = _read_u32(stream)
    for _ in range(term_count):
        term = _read_string(stream)
        length = RECORD_BYTES * _read_u32(stream)
        records = stream.read(length)
        if len(records) != length:
            raise ValueError("truncated index file")
        postings[term] = records
    return postings


def save_alpha_index(index: AlphaIndex, path: Union[str, Path]) -> None:
    """Persist the alpha-radius word-neighborhood inverted files."""
    with open(path, "wb") as stream:
        stream.write(_ALPHA_MAGIC)
        _write_u32(stream, index.alpha)
        _write_u32(stream, 1 if index.undirected else 0)
        _write_postings(stream, index, "place")
        _write_postings(stream, index, "node")


def load_alpha_index(path: Union[str, Path]) -> AlphaIndex:
    """Restore an alpha index saved by :func:`save_alpha_index`.

    The R-tree it was built against must be rebuilt identically (the STR
    bulk loader is deterministic for a fixed place sequence), since node
    postings reference its node ids; ``KSPEngine.load`` guarantees this.
    """
    with open(path, "rb") as stream:
        magic = stream.read(len(_ALPHA_MAGIC))
        if magic != _ALPHA_MAGIC:
            raise ValueError("not an alpha index file: %s" % path)
        alpha = _read_u32(stream)
        undirected = bool(_read_u32(stream))
        place_postings = _read_postings(stream)
        node_postings = _read_postings(stream)
    return AlphaIndex.from_term_blocks(
        alpha, undirected, {"place": place_postings, "node": node_postings}
    )
