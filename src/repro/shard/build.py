"""Freeze a corpus into N per-shard snapshots plus a shard manifest.

Each shard is an ordinary ``RSNP1`` snapshot of the *full* graph with
only its tile's places visible: :class:`PlaceMaskedGraph` hides every
other place's location, so the snapshot writer derives exactly the
tile's place set while the vertices, edges, documents and keyword
reachability stay whole.  That is the invariant the agreement proof
needs — a shard computes the same TQSP looseness for its places as the
single engine would (BFS runs over the identical graph), so per-shard
scores are globally comparable and the merged top-k is exact.

Only the R-tree and the alpha rows depend on the tile, so the build
does the graph-wide work once: one inverted file, one keyword
reachability index and one alpha recurrence over the whole graph
(:func:`~repro.alpha.build.build_postings` with one R-tree per tile),
then one snapshot write per tile.  Each shard file is byte for byte the
snapshot of a ``KSPEngine`` built over that tile's
:class:`PlaceMaskedGraph`.  Every shard file still carries a full copy
of the graph sections (disk is ~N x the single snapshot), buying
zero-coordination shard processes that never page each other's R-tree
or alpha postings.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, Optional, Tuple, Union

from repro.alpha.build import build_postings
from repro.alpha.index import AlphaIndex
from repro.core.config import EngineConfig
from repro.core.engine import _hash_manifest
from repro.rdf.csr import CSRAdjacency
from repro.rdf.graph import RDFGraph
from repro.reach.keyword import KeywordReachabilityIndex
from repro.shard.partition import str_partition, tile_region
from repro.spatial.geometry import Point
from repro.spatial.rtree import RTree
from repro.storage.snapshot import engine_manifest, write_snapshot
from repro.text.inverted import InvertedIndex

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = 1
SHARD_PATTERN = "shard-%04d.snap"


class PlaceMaskedGraph:
    """A view of a graph that exposes only an allowed subset of places.

    Everything except place-ness — vertices, edges, labels, documents —
    delegates to the underlying graph, so indexes built over the view
    (inverted file, CSR, keyword reachability) are identical to the
    full build, while the R-tree and alpha postings see only the
    shard's tile.
    """

    def __init__(self, graph: RDFGraph, allowed: Iterable[int]) -> None:
        self._graph = graph
        self._allowed = frozenset(allowed)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._graph, name)

    def location(self, vertex: int) -> Optional[Point]:
        if vertex in self._allowed:
            return self._graph.location(vertex)
        return None

    def is_place(self, vertex: int) -> bool:
        return vertex in self._allowed and self._graph.is_place(vertex)

    def places(self) -> Iterator[Tuple[int, Point]]:
        for vertex, point in self._graph.places():
            if vertex in self._allowed:
                yield vertex, point

    def place_count(self) -> int:
        return sum(1 for _ in self.places())


def build_shards(
    graph: RDFGraph,
    output_dir: Union[str, Path],
    shards: int,
    *,
    config: Optional[EngineConfig] = None,
) -> Dict[str, Any]:
    """Partition ``graph``'s places into ``shards`` tiles and freeze one
    snapshot per tile under ``output_dir``; returns the written manifest.

    Fewer than ``shards`` tiles are produced when the corpus has fewer
    places than shards (no shard is ever empty).
    """
    config = config or EngineConfig()
    directory = Path(output_dir)
    directory.mkdir(parents=True, exist_ok=True)
    places = list(graph.places())
    if not places:
        raise ValueError("cannot shard a graph with no places")
    tiles = str_partition(places, shards)

    views = [PlaceMaskedGraph(graph, (vertex for vertex, _ in tile)) for tile in tiles]
    rtrees = [
        RTree.bulk_load(view.places(), max_entries=config.rtree_max_entries)
        for view in views
    ]
    inverted = InvertedIndex.build(graph)
    reachability = None
    if config.build_reachability:
        reachability = KeywordReachabilityIndex(
            graph, method=config.reach_method, undirected=config.undirected
        )
    alpha_indexes = [None] * len(tiles)
    if config.build_alpha:
        vocabulary, sections = build_postings(
            graph, rtrees, config.alpha, config.undirected, CSRAdjacency.from_graph(graph)
        )
        alpha_indexes = [
            AlphaIndex.from_sections(config.alpha, config.undirected, vocabulary, tile_sections)
            for tile_sections in sections
        ]

    settings = {
        "alpha": config.alpha,
        "undirected": config.undirected,
        "rtree_max_entries": config.rtree_max_entries,
    }
    entries = []
    for index, (tile, view, rtree, alpha_index) in enumerate(
        zip(tiles, views, rtrees, alpha_indexes)
    ):
        filename = SHARD_PATTERN % index
        size = write_snapshot(
            directory / filename,
            view,
            inverted,
            rtree,
            reachability=reachability,
            alpha_index=alpha_index,
            **settings,
        )
        identity = engine_manifest(
            view,
            has_reachability=reachability is not None,
            has_alpha_index=alpha_index is not None,
            **settings,
        )
        entries.append(
            {
                "index": index,
                "snapshot": filename,
                "places": len(tile),
                "bytes": size,
                "region": tile_region(tile),
                "manifest_hash": _hash_manifest(identity),
            }
        )

    manifest = {
        "format": MANIFEST_FORMAT,
        "shards": len(tiles),
        "source": {
            "vertices": graph.vertex_count,
            "edges": graph.edge_count,
            "places": len(places),
        },
        "entries": entries,
        **settings,
    }
    # Written last and published by rename: a directory whose manifest
    # exists holds every shard file it names.
    manifest_path = directory / MANIFEST_NAME
    staging = manifest_path.with_name(MANIFEST_NAME + ".tmp-%d" % os.getpid())
    try:
        staging.write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        os.replace(staging, manifest_path)
    finally:
        staging.unlink(missing_ok=True)
    return manifest


def load_manifest(shard_dir: Union[str, Path]) -> Dict[str, Any]:
    """Read and validate the shard manifest under ``shard_dir``."""
    directory = Path(shard_dir)
    path = directory / MANIFEST_NAME
    if not path.is_file():
        raise FileNotFoundError(
            "%s is not a shard directory (missing %s); build one with "
            "'repro shard build'" % (directory, MANIFEST_NAME)
        )
    manifest = json.loads(path.read_text(encoding="utf-8"))
    if manifest.get("format") != MANIFEST_FORMAT:
        raise ValueError(
            "unsupported shard manifest format %r (expected %d)"
            % (manifest.get("format"), MANIFEST_FORMAT)
        )
    entries = manifest.get("entries") or []
    if len(entries) != manifest.get("shards"):
        raise ValueError("shard manifest entry count disagrees with 'shards'")
    for entry in entries:
        if not (directory / entry["snapshot"]).is_file():
            raise FileNotFoundError(
                "shard snapshot %s named by the manifest is missing"
                % entry["snapshot"]
            )
    return manifest
