"""Single-file, versioned, immutable index snapshots served zero-copy.

The snapshot is the one on-disk format: it lays out every query-time
index — the CSR graph arrays, vertex labels/documents/locations, the
inverted file, the alpha-radius word-neighborhood postings, the PLL
reachability labels and the R-tree nodes — as fixed-layout, page-aligned
sections of one file.  A reader maps the file with :mod:`mmap` once and
serves every structure through ``memoryview`` casts over the mapping:
warm start is O(1) in the data size, the OS page cache is shared between
processes mapping the same file, and fork-based serving workers pay no
per-process index memory.  Because the OS pages the mapping in and out,
:class:`SnapshotRDFGraph` is also the larger-than-memory graph store of
the paper's footnote 1.

File layout (little-endian, 4096-byte pages)::

    header:   magic "RSNP1\\n\\0\\0", u32 format version, u32 section
              count, sha256 of the section table, sha256 of the section
              payloads (in table order), u64 file size
    table:    per section: 32-byte NUL-padded name, u64 offset, u64 length
    sections: page-aligned payloads, zero padding between them

Integer sections are flat little-endian arrays matching the in-memory
``array`` typecodes (``q`` prefix offsets, ``i``/``I`` ids, ``d``
coordinates), so ``memoryview.cast`` makes them directly indexable.
Variable-length data (labels, terms, varint posting blobs) pairs an
offsets section with a blob section.  The header is validated on every
open (magic, version, file size, table hash, section bounds); the full
payload hash is checked by :meth:`SnapshotFile.verify`, used by
``repro snapshot inspect`` and the corruption tests — fail closed, never
serve from a snapshot that does not validate.

Vocabulary ids: every term-keyed structure (documents, inverted file,
alpha postings, reachability terminal slots) is keyed by the term's rank
in the byte-wise-sorted vocabulary, so one binary search over the vocab
blob resolves a query keyword for all of them.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import struct
from array import array
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple, Union

from repro.alpha.build import DIRECTORY_ENTRY, KINDS, sorted_terms
from repro.alpha.index import AlphaIndex
from repro.rdf.traversal import GraphTraversalMixin
from repro.spatial.geometry import Point, Rect
from repro.spatial.rtree import LeafEntry, Node, RTree
from repro.text.varint import decode_posting_list, encode_posting_list

PAGE_SIZE = 4096
MAGIC = b"RSNP1\n\x00\x00"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<8sII32s32sQ")  # magic, version, sections, hashes, size
_ENTRY = struct.Struct("<32sQQ")  # name, offset, length
_DIR = struct.Struct("<QII")  # inverted file: blob offset, posting count, blob length
_NODE_HEADER = struct.Struct("<IBI")  # node_id, flags, entry_count
_RECT = struct.Struct("<dddd")
_LEAF_ENTRY = struct.Struct("<Idd")  # place vertex id, x, y
_CHILD = struct.Struct("<I")

_FLAG_LEAF = 1
_FLAG_RECT = 2
_NO_SLOT = 0xFFFFFFFF
_MAX_SECTIONS = 4096


class SnapshotError(ValueError):
    """A snapshot file failed validation (truncated, corrupted, wrong
    version) or a structure cannot be represented in the format."""


def _align(offset: int) -> int:
    return (offset + PAGE_SIZE - 1) // PAGE_SIZE * PAGE_SIZE


class SnapshotStats:
    """Counters for snapshot mapping behaviour (``/v1/metrics``)."""

    __slots__ = ("maps", "bytes_mapped", "section_reads")

    def __init__(self) -> None:
        self.maps = 0
        self.bytes_mapped = 0
        self.section_reads = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<SnapshotStats maps=%d bytes_mapped=%d section_reads=%d>" % (
            self.maps,
            self.bytes_mapped,
            self.section_reads,
        )


# --------------------------------------------------------------------------
# Writer
# --------------------------------------------------------------------------


class SnapshotWriter:
    """Accumulates named sections and writes the validated single file.

    Payloads are kept as views, not copies (the alpha records alone are
    most of the file); the caller must not change them before
    :meth:`finish`.  The file is written beside ``path`` and renamed over
    it, so a snapshot can be re-saved onto the path it is mapped from and
    readers of the old file keep a whole one.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self._path = Path(path)
        self._sections: List[Tuple[str, memoryview]] = []
        self._names: set = set()

    def add(self, name: str, payload: Union[bytes, bytearray, memoryview]) -> None:
        encoded = name.encode("utf-8")
        if len(encoded) > 32:
            raise SnapshotError("section name too long: %r" % name)
        if name in self._names:
            raise SnapshotError("duplicate section: %r" % name)
        self._names.add(name)
        self._sections.append((name, memoryview(payload).cast("B")))

    def finish(self) -> int:
        """Write the file; returns the number of bytes written."""
        table_size = _HEADER.size + _ENTRY.size * len(self._sections)
        offsets: List[int] = []
        position = _align(table_size)
        content_hash = hashlib.sha256()
        for _, payload in self._sections:
            offsets.append(position)
            content_hash.update(payload)
            position += payload.nbytes
            position = _align(position)
        file_size = position

        table = bytearray()
        for (name, payload), offset in zip(self._sections, offsets):
            table += _ENTRY.pack(name.encode("utf-8"), offset, payload.nbytes)
        table_hash = hashlib.sha256(bytes(table)).digest()

        header = _HEADER.pack(
            MAGIC,
            FORMAT_VERSION,
            len(self._sections),
            table_hash,
            content_hash.digest(),
            file_size,
        )
        staging = self._path.with_name(self._path.name + ".tmp-%d" % os.getpid())
        try:
            with open(staging, "wb") as stream:
                stream.write(header)
                stream.write(bytes(table))
                for (_, payload), offset in zip(self._sections, offsets):
                    stream.seek(offset)
                    stream.write(payload)
                # Zero-pad to the recorded file size so every section (and
                # the mapping itself) ends on a page boundary.
                stream.truncate(file_size)
            os.replace(staging, self._path)
        finally:
            staging.unlink(missing_ok=True)
        return file_size


def _u32_bytes(values) -> bytes:
    return array("I", values).tobytes()


def _u64_bytes(values) -> bytes:
    return array("Q", values).tobytes()


def _string_sections(strings: Sequence[str]) -> Tuple[bytes, bytes]:
    offsets = array("Q", [0])
    blob = bytearray()
    for text in strings:
        blob += text.encode("utf-8")
        offsets.append(len(blob))
    return offsets.tobytes(), bytes(blob)


def _alpha_sections(
    alpha_index, kind: str, term_ids: Dict[str, int], vocab_size: int
) -> Tuple[bytearray, Any]:
    """One kind of alpha postings as snapshot sections: the index's own
    records, and its directory re-keyed by the snapshot's term ids (the
    two numberings are equal unless the index was built over other
    documents than the inverted file)."""
    directory = bytearray(DIRECTORY_ENTRY.size * vocab_size)
    for term, first, count in alpha_index.term_runs(kind):
        term_id = term_ids.get(term)
        if term_id is None:
            raise SnapshotError(
                "alpha-index term %r is not in the inverted vocabulary" % term
            )
        DIRECTORY_ENTRY.pack_into(
            directory, DIRECTORY_ENTRY.size * term_id, first, count, 0
        )
    return directory, alpha_index.section(kind)[1]


def _label_csr_sections(labels) -> Tuple[bytes, bytes]:
    offsets = array("Q", [0])
    values = array("I")
    for label in labels:
        values.extend(label)
        offsets.append(len(values))
    return offsets.tobytes(), values.tobytes()


def engine_manifest(
    graph,
    *,
    alpha: int,
    undirected: bool,
    rtree_max_entries: int,
    has_reachability: bool,
    has_alpha_index: bool,
) -> Dict[str, Any]:
    """The ``engine`` part of a snapshot's manifest, which is also the
    input of an engine's ``manifest_hash``: the build settings and the
    graph counts of the indexes over ``graph``."""
    return {
        "format": 1,
        "alpha": alpha,
        "undirected": undirected,
        "rtree_max_entries": rtree_max_entries,
        "vertices": graph.vertex_count,
        "edges": graph.edge_count,
        "places": graph.place_count(),
        "has_reachability": has_reachability,
        "has_alpha_index": has_alpha_index,
    }


def write_snapshot(
    path: Union[str, Path],
    graph,
    inverted_index,
    rtree: RTree,
    *,
    alpha: int,
    undirected: bool,
    rtree_max_entries: int,
    reachability=None,
    alpha_index=None,
) -> int:
    """Serialize a built engine's query-time structures into one snapshot
    file.  Returns the number of bytes written.

    ``reachability`` must be PLL-backed when present (GRAIL indexes are
    rebuild-only: their fallback DFS needs the full DAG adjacency, which
    is not stored).
    """
    from repro import __version__

    vertex_count = graph.vertex_count
    vocabulary = sorted_terms(inverted_index.vocabulary())
    term_ids = {term: term_id for term_id, term in enumerate(vocabulary)}

    writer = SnapshotWriter(path)

    # --- vocabulary ---------------------------------------------------
    vocab_offsets, vocab_blob = _string_sections(vocabulary)

    # --- CSR adjacency ------------------------------------------------
    out_index = array("q", [0])
    out_targets = array("i")
    in_index = array("q", [0])
    in_targets = array("i")
    for vertex in range(vertex_count):
        out_targets.extend(graph.out_neighbors(vertex))
        out_index.append(len(out_targets))
        in_targets.extend(graph.in_neighbors(vertex))
        in_index.append(len(in_targets))

    # --- vertex records ----------------------------------------------
    label_offsets = array("Q", [0])
    labels_blob = bytearray()
    doc_offsets = array("Q", [0])
    doc_terms = array("I")
    place_ids = array("I")
    place_xy = array("d")
    for vertex in range(vertex_count):
        labels_blob += graph.label(vertex).encode("utf-8")
        label_offsets.append(len(labels_blob))
        term_row = []
        for term in graph.document(vertex):
            term_id = term_ids.get(term)
            if term_id is None:
                raise SnapshotError(
                    "document term %r of vertex %d is not in the inverted "
                    "vocabulary" % (term, vertex)
                )
            term_row.append(term_id)
        doc_terms.extend(sorted(term_row))
        doc_offsets.append(len(doc_terms))
        location = graph.location(vertex)
        if location is not None:
            place_ids.append(vertex)
            place_xy.append(location.x)
            place_xy.append(location.y)

    # --- inverted file ------------------------------------------------
    inverted_dir = bytearray()
    inverted_blob = bytearray()
    for term in vocabulary:
        posting = inverted_index.posting(term)
        blob = encode_posting_list(list(posting))
        inverted_dir += _DIR.pack(len(inverted_blob), len(posting), len(blob))
        inverted_blob += blob

    manifest: Dict[str, Any] = {
        "engine": engine_manifest(
            graph,
            alpha=alpha,
            undirected=undirected,
            rtree_max_entries=rtree_max_entries,
            has_reachability=reachability is not None,
            has_alpha_index=alpha_index is not None,
        ),
        "snapshot": {
            "page_size": PAGE_SIZE,
            "vocab_size": len(vocabulary),
            "created_by": __version__,
        },
    }

    writer.add("vocab.offsets", vocab_offsets)
    writer.add("vocab.blob", vocab_blob)
    writer.add("graph.out_index", out_index.tobytes())
    writer.add("graph.out_targets", out_targets.tobytes())
    writer.add("graph.in_index", in_index.tobytes())
    writer.add("graph.in_targets", in_targets.tobytes())
    writer.add("graph.label_offsets", label_offsets.tobytes())
    writer.add("graph.labels", bytes(labels_blob))
    writer.add("graph.doc_offsets", doc_offsets.tobytes())
    writer.add("graph.doc_terms", doc_terms.tobytes())
    writer.add("graph.place_ids", place_ids.tobytes())
    writer.add("graph.place_xy", place_xy.tobytes())
    writer.add("inverted.dir", bytes(inverted_dir))
    writer.add("inverted.postings", bytes(inverted_blob))

    # --- alpha-radius index -------------------------------------------
    if alpha_index is not None:
        place_dir, place_records = _alpha_sections(
            alpha_index, "place", term_ids, len(vocabulary)
        )
        node_dir, node_records = _alpha_sections(
            alpha_index, "node", term_ids, len(vocabulary)
        )
        writer.add("alpha.place_dir", place_dir)
        writer.add("alpha.place_postings", place_records)
        writer.add("alpha.node_dir", node_dir)
        writer.add("alpha.node_postings", node_records)

    # --- keyword reachability -----------------------------------------
    if reachability is not None:
        if reachability.method != "pll":
            raise SnapshotError(
                "only PLL-backed reachability indexes are snapshottable"
            )
        term_vertex = reachability._term_vertex
        if not hasattr(term_vertex, "items"):
            raise SnapshotError(
                "cannot snapshot a reachability index that was itself "
                "loaded from a snapshot; rebuild or load the engine first"
            )
        term_slots = array("I", [_NO_SLOT] * len(vocabulary))
        reach_terms = 0
        for term, slot in term_vertex.items():
            term_id = term_ids.get(term)
            if term_id is None:
                raise SnapshotError(
                    "reachability term %r is not in the inverted vocabulary"
                    % term
                )
            term_slots[term_id] = slot
            reach_terms += 1
        condensation = reachability._condensation
        pll = reachability._index
        out_offsets, out_labels = _label_csr_sections(pll.label_out)
        in_offsets, in_labels = _label_csr_sections(pll.label_in)
        writer.add("reach.term_slots", term_slots.tobytes())
        writer.add("reach.component", _u32_bytes(condensation.component))
        writer.add("reach.out_offsets", out_offsets)
        writer.add("reach.out_labels", out_labels)
        writer.add("reach.in_offsets", in_offsets)
        writer.add("reach.in_labels", in_labels)
        if reachability._restored_term_in_total is not None:
            term_in_total = reachability._restored_term_in_total
        else:
            term_in_total = sum(len(s) for s in reachability._term_in)
        manifest["reach"] = {
            "node_count": condensation.node_count,
            "term_count": reach_terms,
            "term_in_total": term_in_total,
            "undirected": reachability._undirected,
        }

    # --- R-tree --------------------------------------------------------
    writer.add("rtree.nodes", _encode_rtree(rtree))
    manifest["rtree"] = {
        "max_entries": rtree.max_entries,
        "size": len(rtree),
        "node_count": rtree.node_count(),
    }

    writer.add(
        "manifest",
        json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8"),
    )
    return writer.finish()


def _encode_rtree(rtree: RTree) -> bytes:
    """Flat node records, children before parents, node ids preserved
    (the alpha node postings reference them)."""
    ordered: List[Node] = [
        node for level in reversed(rtree.levels()) for node in level
    ]
    position_of: Dict[int, int] = {
        node.node_id: position for position, node in enumerate(ordered)
    }
    payload = bytearray(struct.pack("<I", len(ordered)))
    for node in ordered:
        flags = (_FLAG_LEAF if node.is_leaf else 0) | (
            _FLAG_RECT if node.rect is not None else 0
        )
        payload += _NODE_HEADER.pack(node.node_id, flags, len(node.entries))
        if node.rect is not None:
            rect = node.rect
            payload += _RECT.pack(rect.min_x, rect.min_y, rect.max_x, rect.max_y)
        if node.is_leaf:
            for entry in node.entries:
                payload += _LEAF_ENTRY.pack(entry.key, entry.point.x, entry.point.y)
        else:
            for child in node.entries:
                payload += _CHILD.pack(position_of[child.node_id])
    return bytes(payload)


# --------------------------------------------------------------------------
# Reader
# --------------------------------------------------------------------------


class SnapshotFile:
    """One mmap over a snapshot file, validated on open.

    ``section(name)`` returns a zero-copy ``memoryview`` of the payload;
    ``array_view(name, typecode)`` casts it to a flat integer/float
    array.  Open-time validation covers the magic, format version, file
    size, section-table hash and section bounds; :meth:`verify`
    additionally checks the sha256 of every payload.
    """

    def __init__(self, path: Union[str, Path], verify: bool = False) -> None:
        self._path = Path(path)
        self.stats = SnapshotStats()
        try:
            size = self._path.stat().st_size
        except OSError as exc:
            raise SnapshotError("cannot open snapshot: %s" % exc) from None
        if size < _HEADER.size:
            raise SnapshotError(
                "truncated snapshot: %d bytes is smaller than the header"
                % size
            )
        with open(self._path, "rb") as stream:
            self._mmap = mmap.mmap(stream.fileno(), 0, access=mmap.ACCESS_READ)
        self.stats.maps += 1
        self.stats.bytes_mapped += size
        self._view = memoryview(self._mmap)

        magic, version, section_count, table_hash, content_hash, file_size = (
            _HEADER.unpack_from(self._view, 0)
        )
        if magic != MAGIC:
            self.close()
            raise SnapshotError("not a repro snapshot file: %s" % path)
        if version != FORMAT_VERSION:
            self.close()
            raise SnapshotError(
                "unsupported snapshot format version %d (this build reads "
                "version %d)" % (version, FORMAT_VERSION)
            )
        if file_size != size:
            self.close()
            raise SnapshotError(
                "truncated snapshot: header records %d bytes, file has %d"
                % (file_size, size)
            )
        if section_count > _MAX_SECTIONS:
            self.close()
            raise SnapshotError("corrupted snapshot: implausible section count")
        table_end = _HEADER.size + _ENTRY.size * section_count
        if table_end > size:
            self.close()
            raise SnapshotError("truncated snapshot: section table out of bounds")
        table_bytes = bytes(self._view[_HEADER.size : table_end])
        if hashlib.sha256(table_bytes).digest() != table_hash:
            self.close()
            raise SnapshotError("corrupted snapshot: section table hash mismatch")
        self._content_hash = content_hash
        self._sections: "OrderedDict[str, Tuple[int, int]]" = OrderedDict()
        for index in range(section_count):
            raw_name, offset, length = _ENTRY.unpack_from(
                table_bytes, index * _ENTRY.size
            )
            name = raw_name.rstrip(b"\x00").decode("utf-8")
            if offset % PAGE_SIZE or offset + length > size:
                self.close()
                raise SnapshotError(
                    "corrupted snapshot: section %r out of bounds" % name
                )
            self._sections[name] = (offset, length)
        self._manifest: Optional[Dict[str, Any]] = None
        if verify:
            self.verify()

    # ------------------------------------------------------------------

    @property
    def path(self) -> Path:
        return self._path

    @property
    def size_bytes(self) -> int:
        return len(self._view)

    def names(self) -> List[str]:
        return list(self._sections)

    def __contains__(self, name: str) -> bool:
        return name in self._sections

    def section(self, name: str) -> memoryview:
        try:
            offset, length = self._sections[name]
        except KeyError:
            raise SnapshotError("snapshot has no section %r" % name) from None
        self.stats.section_reads += 1
        return self._view[offset : offset + length]

    def section_length(self, name: str) -> int:
        return self._sections[name][1]

    def array_view(self, name: str, typecode: str) -> memoryview:
        view = self.section(name)
        itemsize = struct.calcsize(typecode)
        if len(view) % itemsize:
            raise SnapshotError(
                "corrupted snapshot: section %r is not a whole number of "
                "%r items" % (name, typecode)
            )
        return view.cast(typecode)

    @property
    def manifest(self) -> Dict[str, Any]:
        if self._manifest is None:
            try:
                self._manifest = json.loads(bytes(self.section("manifest")))
            except ValueError as exc:
                raise SnapshotError(
                    "corrupted snapshot: manifest is not valid JSON (%s)" % exc
                ) from None
        return self._manifest

    def verify(self) -> None:
        """Recompute the payload hash; raises :class:`SnapshotError` on
        any mismatch.  O(file size) — run at build, inspect and in tests,
        not on every open."""
        digest = hashlib.sha256()
        for offset, length in self._sections.values():
            digest.update(self._view[offset : offset + length])
        if digest.digest() != self._content_hash:
            raise SnapshotError(
                "corrupted snapshot: content hash mismatch — refusing to serve"
            )

    def read_hint(self, mode: str) -> None:
        """Advise the kernel about the upcoming access pattern.

        ``"sequential"`` / ``"random"`` / ``"normal"``; a no-op where
        ``mmap.madvise`` is unavailable.
        """
        advices = {
            "sequential": getattr(mmap, "MADV_SEQUENTIAL", None),
            "random": getattr(mmap, "MADV_RANDOM", None),
            "normal": getattr(mmap, "MADV_NORMAL", None),
        }
        if mode not in advices:
            raise ValueError("mode must be 'sequential', 'random' or 'normal'")
        advice = advices[mode]
        if advice is None or not hasattr(self._mmap, "madvise"):
            return
        try:
            self._mmap.madvise(advice)
        except OSError:  # pragma: no cover - kernel-dependent
            pass

    def close(self) -> None:
        """Release the mapping.  Fails if zero-copy views are still alive
        (an engine built from this snapshot holds them for its lifetime)."""
        self._view.release()
        self._mmap.close()

    def __enter__(self) -> "SnapshotFile":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# --------------------------------------------------------------------------
# Zero-copy views
# --------------------------------------------------------------------------


class VocabView:
    """Term id <-> term string resolution over the sorted vocab sections."""

    def __init__(self, offsets: memoryview, blob: memoryview) -> None:
        self._offsets = offsets
        self._blob = blob
        self._count = len(offsets) - 1
        self._terms: Dict[int, str] = {}
        self._ids: Dict[str, Optional[int]] = {}

    def __len__(self) -> int:
        return self._count

    def term_bytes(self, term_id: int) -> bytes:
        return bytes(self._blob[self._offsets[term_id] : self._offsets[term_id + 1]])

    def term(self, term_id: int) -> str:
        cached = self._terms.get(term_id)
        if cached is None:
            cached = self.term_bytes(term_id).decode("utf-8")
            self._terms[term_id] = cached
        return cached

    def id_of(self, term: str) -> Optional[int]:
        if term in self._ids:
            return self._ids[term]
        needle = term.encode("utf-8")
        low, high = 0, self._count
        while low < high:
            mid = (low + high) // 2
            if self.term_bytes(mid) < needle:
                low = mid + 1
            else:
                high = mid
        found: Optional[int] = None
        if low < self._count and self.term_bytes(low) == needle:
            found = low
        self._ids[term] = found
        return found

    def __iter__(self) -> Iterator[str]:
        for term_id in range(self._count):
            yield self.term(term_id)


class SnapshotRDFGraph(GraphTraversalMixin):
    """The :class:`~repro.rdf.graph.RDFGraph` read protocol over mmap'd
    snapshot sections.  Adjacency and locations are served zero-copy;
    decoded labels/documents go through small LRU caches because BFS
    revisits hot vertices' documents."""

    def __init__(
        self, snapshot: SnapshotFile, vocab: VocabView, record_cache_size: int = 4096
    ) -> None:
        self._snapshot = snapshot
        self._vocab = vocab
        engine_manifest = snapshot.manifest["engine"]
        self._vertex_count: int = engine_manifest["vertices"]
        self._edge_count: int = engine_manifest["edges"]
        self._out_index = snapshot.array_view("graph.out_index", "q")
        self._out_targets = snapshot.array_view("graph.out_targets", "i")
        self._in_index = snapshot.array_view("graph.in_index", "q")
        self._in_targets = snapshot.array_view("graph.in_targets", "i")
        self._label_offsets = snapshot.array_view("graph.label_offsets", "Q")
        self._labels = snapshot.section("graph.labels")
        self._doc_offsets = snapshot.array_view("graph.doc_offsets", "Q")
        self._doc_terms = snapshot.array_view("graph.doc_terms", "I")
        self._place_ids = snapshot.array_view("graph.place_ids", "I")
        self._place_xy = snapshot.array_view("graph.place_xy", "d")
        # The manifest sizes every view of the graph; a manifest that
        # disagrees with the sections would mis-answer silently.
        for field, actual in (
            ("vertices", len(self._out_index) - 1),
            ("edges", len(self._out_targets)),
            ("places", len(self._place_ids)),
        ):
            if actual != engine_manifest[field]:
                raise SnapshotError(
                    "corrupted snapshot: manifest records %s = %d, the graph "
                    "sections hold %d" % (field, engine_manifest[field], actual)
                )
        self._doc_cache: "OrderedDict[int, FrozenSet[str]]" = OrderedDict()
        self._doc_cache_size = record_cache_size
        self._label_lookup: Optional[Dict[str, int]] = None

    # -- core protocol -------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return self._vertex_count

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def vertices(self) -> range:
        return range(self._vertex_count)

    def _check_vertex(self, vertex: int) -> None:
        if not 0 <= vertex < self._vertex_count:
            raise IndexError("no such vertex: %d" % vertex)

    def out_neighbors(self, vertex: int) -> Sequence[int]:
        self._check_vertex(vertex)
        return self._out_targets[self._out_index[vertex] : self._out_index[vertex + 1]]

    def in_neighbors(self, vertex: int) -> Sequence[int]:
        self._check_vertex(vertex)
        return self._in_targets[self._in_index[vertex] : self._in_index[vertex + 1]]

    # -- vertex records ------------------------------------------------

    def label(self, vertex: int) -> str:
        self._check_vertex(vertex)
        start, end = self._label_offsets[vertex], self._label_offsets[vertex + 1]
        return bytes(self._labels[start:end]).decode("utf-8")

    def document(self, vertex: int) -> FrozenSet[str]:
        cached = self._doc_cache.get(vertex)
        if cached is not None:
            self._doc_cache.move_to_end(vertex)
            return cached
        self._check_vertex(vertex)
        start, end = self._doc_offsets[vertex], self._doc_offsets[vertex + 1]
        term = self._vocab.term
        document = frozenset(term(tid) for tid in self._doc_terms[start:end])
        self._doc_cache[vertex] = document
        if len(self._doc_cache) > self._doc_cache_size:
            self._doc_cache.popitem(last=False)
        return document

    def _place_slot(self, vertex: int) -> Optional[int]:
        import bisect

        slot = bisect.bisect_left(self._place_ids, vertex)
        if slot < len(self._place_ids) and self._place_ids[slot] == vertex:
            return slot
        return None

    def location(self, vertex: int) -> Optional[Point]:
        self._check_vertex(vertex)
        slot = self._place_slot(vertex)
        if slot is None:
            return None
        return Point(self._place_xy[2 * slot], self._place_xy[2 * slot + 1])

    def is_place(self, vertex: int) -> bool:
        self._check_vertex(vertex)
        return self._place_slot(vertex) is not None

    def place_count(self) -> int:
        return len(self._place_ids)

    def places(self) -> Iterator[Tuple[int, Point]]:
        for slot, vertex in enumerate(self._place_ids):
            yield vertex, Point(self._place_xy[2 * slot], self._place_xy[2 * slot + 1])

    def vertex_by_label(self, label: str) -> int:
        if self._label_lookup is None:
            self._label_lookup = {
                self.label(vertex): vertex for vertex in range(self._vertex_count)
            }
        try:
            return self._label_lookup[label]
        except KeyError:
            raise KeyError("no vertex labelled %r" % label) from None

    def has_vertex_label(self, label: str) -> bool:
        try:
            self.vertex_by_label(label)
            return True
        except KeyError:
            return False

    def size_bytes(self) -> int:
        return sum(
            self._snapshot.section_length(name)
            for name in self._snapshot.names()
            if name.startswith("graph.")
        )

    def read_hint(self, mode: str) -> None:
        """Forward the access-pattern hint to the snapshot mapping."""
        self._snapshot.read_hint(mode)


class SnapshotInvertedIndex:
    """The inverted-file read protocol over the snapshot sections: one
    binary search resolves the term, posting blobs decode on demand."""

    def __init__(
        self, snapshot: SnapshotFile, vocab: VocabView, cache_size: int = 256
    ) -> None:
        self._snapshot = snapshot
        self._vocab = vocab
        self._dir = snapshot.section("inverted.dir")
        self._postings = snapshot.section("inverted.postings")
        self._cache: "OrderedDict[int, List[int]]" = OrderedDict()
        self._cache_size = cache_size
        self._average: Optional[float] = None

    def _entry(self, term_id: int) -> Tuple[int, int, int]:
        return _DIR.unpack_from(self._dir, _DIR.size * term_id)

    def posting(self, term: str) -> Sequence[int]:
        term_id = self._vocab.id_of(term)
        if term_id is None:
            return []
        cached = self._cache.get(term_id)
        if cached is not None:
            self._cache.move_to_end(term_id)
            return cached
        offset, count, blob_length = self._entry(term_id)
        posting = decode_posting_list(
            self._postings[offset : offset + blob_length], count
        )
        self._cache[term_id] = posting
        if len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)
        return posting

    def document_frequency(self, term: str) -> int:
        term_id = self._vocab.id_of(term)
        if term_id is None:
            return 0
        return self._entry(term_id)[1]

    def __contains__(self, term: str) -> bool:
        return self._vocab.id_of(term) is not None

    def vocabulary(self) -> Iterator[str]:
        return iter(self._vocab)

    def vocabulary_size(self) -> int:
        return len(self._vocab)

    def average_posting_length(self) -> float:
        if self._average is None:
            count = len(self._vocab)
            if not count:
                self._average = 0.0
            else:
                total = sum(
                    self._entry(term_id)[1] for term_id in range(count)
                )
                self._average = total / count
        return self._average

    def size_bytes(self) -> int:
        return (
            self._snapshot.section_length("inverted.dir")
            + self._snapshot.section_length("inverted.postings")
            + self._snapshot.section_length("vocab.offsets")
            + self._snapshot.section_length("vocab.blob")
        )


def load_snapshot_alpha_index(snapshot: SnapshotFile, vocab: VocabView) -> AlphaIndex:
    """The :class:`~repro.alpha.index.AlphaIndex` over the snapshot's
    ``alpha.*`` sections, served zero-copy."""
    engine_manifest = snapshot.manifest["engine"]
    return AlphaIndex.from_sections(
        engine_manifest["alpha"],
        engine_manifest["undirected"],
        vocab,
        {
            kind: (
                snapshot.section("alpha.%s_dir" % kind),
                snapshot.section("alpha.%s_postings" % kind),
            )
            for kind in KINDS
        },
        term_id=vocab.id_of,
    )


class _CSRListView:
    """List-of-sorted-lists protocol (len / index / iterate) over a flat
    offsets + values pair — plugs into ``PrunedLandmarkIndex`` labels."""

    __slots__ = ("_offsets", "_values")

    def __init__(self, offsets: memoryview, values: memoryview) -> None:
        self._offsets = offsets
        self._values = values

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __getitem__(self, index: int) -> memoryview:
        return self._values[self._offsets[index] : self._offsets[index + 1]]

    def __iter__(self) -> Iterator[memoryview]:
        for index in range(len(self)):
            yield self[index]

    def entry_count(self) -> int:
        return len(self._values)


class _TermSlotMap:
    """The ``term -> augmented terminal vertex`` mapping over the
    ``reach.term_slots`` section (dict get/contains/items protocol)."""

    __slots__ = ("_vocab", "_slots")

    def __init__(self, vocab: VocabView, slots: memoryview) -> None:
        self._vocab = vocab
        self._slots = slots

    def get(self, term: str, default=None):
        term_id = self._vocab.id_of(term)
        if term_id is None:
            return default
        slot = self._slots[term_id]
        return default if slot == _NO_SLOT else slot

    def __contains__(self, term: str) -> bool:
        return self.get(term) is not None

    def __len__(self) -> int:
        return sum(1 for slot in self._slots if slot != _NO_SLOT)

    def items(self) -> Iterator[Tuple[str, int]]:
        for term_id, slot in enumerate(self._slots):
            if slot != _NO_SLOT:
                yield self._vocab.term(term_id), slot


def load_snapshot_reachability(snapshot: SnapshotFile, vocab: VocabView, graph):
    """Restore a :class:`KeywordReachabilityIndex` whose labels and
    component array are zero-copy views over the snapshot."""
    from repro.reach.condensation import Condensation
    from repro.reach.keyword import KeywordReachabilityIndex
    from repro.reach.pll import PrunedLandmarkIndex

    reach_manifest = snapshot.manifest.get("reach")
    if reach_manifest is None:
        raise SnapshotError("snapshot has no reachability sections")

    condensation = Condensation.__new__(Condensation)
    condensation.component = snapshot.array_view("reach.component", "I")
    condensation.node_count = reach_manifest["node_count"]
    condensation.out = []  # not needed for PLL queries
    condensation.into = []

    pll = PrunedLandmarkIndex.__new__(PrunedLandmarkIndex)
    pll.label_out = _CSRListView(
        snapshot.array_view("reach.out_offsets", "Q"),
        snapshot.array_view("reach.out_labels", "I"),
    )
    pll.label_in = _CSRListView(
        snapshot.array_view("reach.in_offsets", "Q"),
        snapshot.array_view("reach.in_labels", "I"),
    )

    expected = graph.vertex_count + reach_manifest["term_count"]
    if len(condensation.component) != expected:
        raise SnapshotError(
            "snapshot reachability does not match the graph: %d component "
            "entries for %d augmented vertices"
            % (len(condensation.component), expected)
        )

    index = KeywordReachabilityIndex.__new__(KeywordReachabilityIndex)
    index._graph = graph
    index._undirected = reach_manifest["undirected"]
    index._term_vertex = _TermSlotMap(
        vocab, snapshot.array_view("reach.term_slots", "I")
    )
    index._term_in = [[]]  # placeholder; size comes from the manifest total
    index._restored_term_in_total = reach_manifest["term_in_total"]
    index._condensation = condensation
    index._index = pll
    index.method = "pll"
    index.queries_issued = 0
    return index


def load_snapshot_rtree(snapshot: SnapshotFile) -> RTree:
    """Reconstruct the R-tree, preserving node ids and entry order (the
    alpha node postings and the deterministic NN browse depend on both)."""
    payload = snapshot.section("rtree.nodes")
    rtree_manifest = snapshot.manifest["rtree"]
    (node_count,) = struct.unpack_from("<I", payload, 0)
    position = 4
    nodes: List[Node] = []
    max_node_id = -1
    leaf_entries = 0
    for _ in range(node_count):
        node_id, flags, entry_count = _NODE_HEADER.unpack_from(payload, position)
        position += _NODE_HEADER.size
        node = Node(node_id, bool(flags & _FLAG_LEAF))
        max_node_id = max(max_node_id, node_id)
        if flags & _FLAG_RECT:
            min_x, min_y, max_x, max_y = _RECT.unpack_from(payload, position)
            position += _RECT.size
            node.rect = Rect(min_x, min_y, max_x, max_y)
        if node.is_leaf:
            leaf_entries += entry_count
            for _ in range(entry_count):
                key, x, y = _LEAF_ENTRY.unpack_from(payload, position)
                position += _LEAF_ENTRY.size
                node.entries.append(LeafEntry(key, Point(x, y)))
        else:
            for _ in range(entry_count):
                (child_position,) = _CHILD.unpack_from(payload, position)
                position += _CHILD.size
                child = nodes[child_position]
                child.parent = node
                node.entries.append(child)
        nodes.append(node)
    if not nodes:
        raise SnapshotError("corrupted snapshot: R-tree has no nodes")

    import itertools

    tree = RTree.__new__(RTree)
    tree.max_entries = rtree_manifest["max_entries"]
    tree.min_entries = max(2, tree.max_entries * 2 // 5)
    tree.split_strategy = "quadratic"
    tree._next_node_id = itertools.count(max_node_id + 1)
    tree.root = nodes[-1]
    tree._size = leaf_entries
    return tree
