"""The alpha-radius word-neighborhood index used by the SP algorithm.

Preprocessing (Section 5, "Construction"): ``WN(p)`` for every place and,
by min-distance union up the R-tree, ``WN(N)`` for every node — computed
for all places at once by :mod:`repro.alpha.build`.  Both are stored as an
inverted file keyed by word, so a query loads only the posting lists of
its keywords (the paper's "part of the neighborhoods relevant to the query
keywords") and evaluates the Lemma 2–5 bounds from them.

The inverted file has one representation, in memory and on disk: per kind
(``"place"`` / ``"node"``) a directory with one
:data:`~repro.alpha.build.DIRECTORY_ENTRY` per term id and a flat array of
``(entry id, distance)`` u32 records, each term's run sorted by entry id.
A built index holds them in ``bytearray``s, an index opened from a
snapshot holds views of the mapped ``alpha.*`` sections; the class is the
same.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.alpha.build import DIRECTORY_ENTRY, KINDS, build_postings
from repro.rdf.graph import RDFGraph
from repro.spatial.rtree import RTree

# Decoded per-term posting dicts kept per index (LRU).
_DECODED_TERMS = 256


class AlphaIndex:
    """Inverted file over the alpha-radius word neighborhoods of the places
    and nodes of one R-tree."""

    def __init__(
        self,
        graph: RDFGraph,
        rtree: RTree,
        alpha: int = 3,
        undirected: bool = False,
        csr=None,
    ) -> None:
        """``csr`` (a :class:`~repro.rdf.csr.CSRAdjacency` snapshot of
        ``graph``) serves the construction pass its adjacency from flat
        arrays; omit it to read ``graph``'s own neighbor lists."""
        vocabulary, (sections,) = build_postings(graph, [rtree], alpha, undirected, csr)
        self._adopt(alpha, undirected, vocabulary, sections)

    @classmethod
    def from_sections(
        cls,
        alpha: int,
        undirected: bool,
        terms: Iterable[str],
        sections: Mapping[str, Tuple],
        term_id: Optional[Callable[[str], Optional[int]]] = None,
    ) -> "AlphaIndex":
        """An index over existing ``{kind: (directory, records)}`` buffers
        (any bytes-like objects, e.g. views of a mapped snapshot) whose
        directories are indexed by the position of a term in ``terms``.
        ``term_id`` resolves a term to that position (``None`` when
        absent); without one a dict over ``terms`` is built."""
        index = cls.__new__(cls)
        index._adopt(alpha, undirected, terms, sections, term_id)
        return index

    def _adopt(self, alpha, undirected, terms, sections, term_id=None) -> None:
        self.alpha = alpha
        self.undirected = undirected
        self._terms = terms
        if term_id is None:
            term_id = {term: rank for rank, term in enumerate(terms)}.get
        self._term_id = term_id
        self._sections = {kind: sections[kind] for kind in KINDS}
        self._fields = {
            kind: memoryview(records).cast("B").cast("I")
            for kind, (_, records) in self._sections.items()
        }
        self._decoded: "OrderedDict[Tuple[str, int], Dict[int, int]]" = OrderedDict()

    # ------------------------------------------------------------------

    def _postings_for(self, kind: str, term: str) -> Dict[int, int]:
        """``{entry id: distance}`` of one term, decoded on first use."""
        term_id = self._term_id(term)
        if term_id is None:
            return {}
        key = (kind, term_id)
        # pop + reinsert, not get + move_to_end: each step is atomic, so a
        # concurrent eviction costs another thread one decode, never a KeyError.
        cached = self._decoded.pop(key, None)
        if cached is not None:
            self._decoded[key] = cached
            return cached
        first, count, _ = DIRECTORY_ENTRY.unpack_from(
            self._sections[kind][0], DIRECTORY_ENTRY.size * term_id
        )
        fields = self._fields[kind]
        start, end = 2 * first, 2 * (first + count)
        decoded = dict(zip(fields[start:end:2], fields[start + 1 : end : 2]))
        self._decoded[key] = decoded
        if len(self._decoded) > _DECODED_TERMS:
            self._decoded.popitem(last=False)
        return decoded

    def query_view(self, keywords: Sequence[str]) -> "AlphaQueryView":
        """Load the posting lists of the query keywords (Section 5,
        "Storage") and return a bound evaluator for this query."""
        place_lists = {term: self._postings_for("place", term) for term in keywords}
        node_lists = {term: self._postings_for("node", term) for term in keywords}
        return AlphaQueryView(self.alpha, tuple(keywords), place_lists, node_lists)

    def place_neighborhood_distance(self, place: int, term: str) -> Optional[int]:
        return self._postings_for("place", term).get(place)

    def node_neighborhood_distance(self, node_id: int, term: str) -> Optional[int]:
        return self._postings_for("node", term).get(node_id)

    # ------------------------------------------------------------------

    def terms(self) -> Iterator[str]:
        """The vocabulary in term-id order."""
        return iter(self._terms)

    def section(self, kind: str) -> Tuple:
        """The ``(directory, records)`` buffers of one kind."""
        return self._sections[kind]

    def term_runs(self, kind: str) -> List[Tuple[str, int, int]]:
        """``(term, first record, record count)`` for every term with
        postings of ``kind``, in term-id order."""
        directory = self._sections[kind][0]
        runs = []
        for term_id, term in enumerate(self._terms):
            first, count, _ = DIRECTORY_ENTRY.unpack_from(
                directory, DIRECTORY_ENTRY.size * term_id
            )
            if count:
                runs.append((term, first, count))
        return runs

    def size_bytes(self) -> int:
        """Bytes of the directories and records (Table 6) — what the
        ``alpha.*`` sections of a snapshot occupy."""
        return sum(
            memoryview(buffer).nbytes
            for section in self._sections.values()
            for buffer in section
        )

    def posting_entry_count(self) -> int:
        return sum(len(fields) for fields in self._fields.values()) // 2


class AlphaQueryView:
    """Per-query evaluator of the Lemma 2 and Lemma 4 looseness bounds."""

    def __init__(
        self,
        alpha: int,
        keywords: Tuple[str, ...],
        place_lists: Mapping[str, Mapping[int, int]],
        node_lists: Mapping[str, Mapping[int, int]],
    ) -> None:
        self.alpha = alpha
        self.keywords = keywords
        self._place_lists = place_lists
        self._node_lists = node_lists

    def place_looseness_bound(self, place: int) -> float:
        """Lemma 2: lower bound on ``L(T_p)`` from the place's WN."""
        total = 1.0
        penalty = self.alpha + 1
        for term in self.keywords:
            distance = self._place_lists[term].get(place)
            total += penalty if distance is None else distance
        return total

    def node_looseness_bound(self, node_id: int) -> float:
        """Lemma 4: lower bound on the looseness of every TQSP under a node."""
        total = 1.0
        penalty = self.alpha + 1
        for term in self.keywords:
            distance = self._node_lists[term].get(node_id)
            total += penalty if distance is None else distance
        return total
