"""The bit-parallel alpha build against the definition.

``place_word_neighborhood`` (Definition 5, one bounded BFS per place) and
``merge_neighborhoods`` (Definition 6, min-distance union up the R-tree)
are the reference; every place's and every node's decoded postings of a
built :class:`AlphaIndex` must equal them — on graphs with cycles, sinks,
isolated places, empty documents, no places or no words at all, for both
adjacency sources and across the slab seam.  One build over several
trees (the shard build) must give each tree the sections of a build over
that tree alone.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alpha import build
from repro.alpha.build import KINDS
from repro.alpha.index import AlphaIndex
from repro.alpha.neighborhood import merge_neighborhoods, place_word_neighborhood
from repro.rdf.csr import CSRAdjacency
from repro.rdf.graph import RDFGraph
from repro.shard.build import PlaceMaskedGraph
from repro.spatial.geometry import Point
from repro.spatial.rtree import RTree

WORDS = ["w%d" % number for number in range(7)] + ["é", "日本"]


def reference_postings(graph, rtree, alpha, undirected):
    """``{kind: {term: {entry id: distance}}}`` straight from the
    definitions."""
    place_hoods = {
        place: place_word_neighborhood(graph, place, alpha, undirected=undirected)
        for place, _ in graph.places()
    }
    node_hoods = {}
    for level in reversed(rtree.levels()):
        for node in level:
            aggregate = {}
            for entry in node.entries:
                merge_neighborhoods(
                    aggregate,
                    place_hoods.get(entry.key, {})
                    if node.is_leaf
                    else node_hoods[entry.node_id],
                )
            node_hoods[node.node_id] = aggregate
    postings = {"place": {}, "node": {}}
    for kind, hoods in (("place", place_hoods), ("node", node_hoods)):
        for entry_id, hood in hoods.items():
            for term, distance in hood.items():
                postings[kind].setdefault(term, {})[entry_id] = distance
    return postings


def decoded_postings(index):
    """The same shape, decoded from the index's sections; also checks
    that every term's run is sorted by entry id."""
    postings = {}
    for kind in KINDS:
        postings[kind] = {}
        fields = memoryview(index.section(kind)[1]).cast("B").cast("I").tolist()
        for term, first, count in index.term_runs(kind):
            ids = fields[2 * first : 2 * (first + count) : 2]
            assert ids == sorted(set(ids)), (kind, term)
            distances = fields[2 * first + 1 : 2 * (first + count) : 2]
            postings[kind][term] = dict(zip(ids, distances))
    return postings


@st.composite
def graphs(draw):
    vertex_count = draw(st.integers(min_value=0, max_value=12))
    words = WORDS[: draw(st.integers(min_value=0, max_value=len(WORDS)))]
    graph = RDFGraph()
    for vertex in range(vertex_count):
        document = draw(st.sets(st.sampled_from(words), max_size=3)) if words else set()
        location = None
        if draw(st.booleans()):
            location = Point(draw(st.integers(-5, 5)), draw(st.integers(-5, 5)))
        graph.add_vertex("v%d" % vertex, document=document, location=location)
    if vertex_count:
        vertices = st.integers(min_value=0, max_value=vertex_count - 1)
        for source, target in draw(st.lists(st.tuples(vertices, vertices), max_size=30)):
            graph.add_edge(source, target)
    return graph


class TestAgainstDefinition:
    @settings(max_examples=150, deadline=None)
    @given(
        graph=graphs(),
        alpha=st.integers(min_value=0, max_value=4),
        undirected=st.booleans(),
        use_csr=st.booleans(),
        slab_terms=st.sampled_from([1, 2, 3, build.SLAB_TERMS]),
        max_entries=st.integers(min_value=4, max_value=6),
    )
    def test_postings_equal_reference(
        self, graph, alpha, undirected, use_csr, slab_terms, max_entries
    ):
        rtree = RTree.bulk_load(graph.places(), max_entries=max_entries)
        csr = CSRAdjacency.from_graph(graph) if use_csr else None
        with mock.patch.object(build, "SLAB_TERMS", slab_terms):
            index = AlphaIndex(graph, rtree, alpha=alpha, undirected=undirected, csr=csr)
        expected = reference_postings(graph, rtree, alpha, undirected)
        assert decoded_postings(index) == expected
        assert index.posting_entry_count() == sum(
            len(entries) for kind in KINDS for entries in expected[kind].values()
        )
        for term, entries in expected["place"].items():
            for place, distance in entries.items():
                assert index.place_neighborhood_distance(place, term) == distance

    @settings(max_examples=100, deadline=None)
    @given(
        graph=graphs(),
        alpha=st.integers(min_value=0, max_value=4),
        undirected=st.booleans(),
        parts=st.integers(min_value=1, max_value=4),
        slab_terms=st.sampled_from([1, 2, 3, build.SLAB_TERMS]),
        max_entries=st.integers(min_value=4, max_value=6),
        data=st.data(),
    )
    def test_one_call_over_several_trees_equals_one_call_per_tree(
        self, graph, alpha, undirected, parts, slab_terms, max_entries, data
    ):
        places = [place for place, _ in graph.places()]
        owners = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=parts - 1),
                min_size=len(places),
                max_size=len(places),
            )
        )
        views = [
            PlaceMaskedGraph(
                graph, [place for place, owner in zip(places, owners) if owner == part]
            )
            for part in range(parts)
        ]
        rtrees = [RTree.bulk_load(view.places(), max_entries=max_entries) for view in views]
        with mock.patch.object(build, "SLAB_TERMS", slab_terms):
            vocabulary, sections = build.build_postings(graph, rtrees, alpha, undirected)
            assert len(sections) == parts
            for view, rtree, tree_sections in zip(views, rtrees, sections):
                alone_vocabulary, (alone,) = build.build_postings(
                    view, [rtree], alpha, undirected
                )
                assert alone_vocabulary == vocabulary
                for kind in KINDS:
                    assert tree_sections[kind] == alone[kind], kind
                index = AlphaIndex.from_sections(alpha, undirected, vocabulary, tree_sections)
                assert decoded_postings(index) == reference_postings(
                    view, rtree, alpha, undirected
                )

    @pytest.mark.parametrize("alpha", [-1, -7])
    def test_negative_alpha_raises(self, example_graph, alpha):
        rtree = RTree.bulk_load(example_graph.places())
        with pytest.raises(ValueError, match="non-negative"):
            AlphaIndex(example_graph, rtree, alpha=alpha)


def chain_graph(length):
    """v0 -> v1 -> ... with one word at the far end and the place at v0."""
    graph = RDFGraph()
    for vertex in range(length):
        graph.add_vertex(
            "v%d" % vertex,
            document={"far"} if vertex == length - 1 else (),
            location=Point(0, 0) if vertex == 0 else None,
        )
    for vertex in range(length - 1):
        graph.add_edge(vertex, vertex + 1)
    return graph


class TestRadius:
    def test_huge_alpha_stops_when_the_balls_stop_growing(self):
        graph = chain_graph(6)
        graph.add_edge(5, 0)  # a cycle: BFS terminates on the seen set
        rtree = RTree.bulk_load(graph.places())
        index = AlphaIndex(graph, rtree, alpha=10**6)
        assert decoded_postings(index) == reference_postings(graph, rtree, 10**6, False)
        assert index.place_neighborhood_distance(0, "far") == 5

    def test_deepest_representable_neighborhood(self):
        graph = chain_graph(15)
        rtree = RTree.bulk_load(graph.places())
        index = AlphaIndex(graph, rtree, alpha=14)
        assert index.place_neighborhood_distance(0, "far") == 14

    def test_deeper_neighborhoods_are_refused(self):
        graph = chain_graph(17)
        rtree = RTree.bulk_load(graph.places())
        with pytest.raises(ValueError, match="deeper than 14 hops"):
            AlphaIndex(graph, rtree, alpha=16)


class TestGraphBackends:
    """One kernel for every store exposing the adjacency protocol."""

    def test_place_masked_graph_sees_only_its_places(self, tiny_yago_graph):
        allowed = [place for place, _ in tiny_yago_graph.places()][::3]
        masked = PlaceMaskedGraph(tiny_yago_graph, allowed)
        rtree = RTree.bulk_load(masked.places(), max_entries=8)
        index = AlphaIndex(
            masked, rtree, alpha=2, csr=CSRAdjacency.from_graph(masked)
        )
        expected = reference_postings(masked, rtree, 2, False)
        assert decoded_postings(index) == expected
        assert {
            place for entries in expected["place"].values() for place in entries
        } <= set(allowed)

    def test_disk_graph_builds_the_same_sections(self, tiny_yago_graph, reopened):
        rtree = RTree.bulk_load(tiny_yago_graph.places(), max_entries=8)
        memory = AlphaIndex(tiny_yago_graph, rtree, alpha=2, undirected=True)
        disk = reopened(tiny_yago_graph).graph
        on_disk = AlphaIndex(disk, rtree, alpha=2, undirected=True)
        for kind in KINDS:
            assert on_disk.section(kind) == memory.section(kind)
        assert list(on_disk.terms()) == list(memory.terms())
