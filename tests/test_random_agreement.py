"""Hypothesis-driven agreement on arbitrary random spatial RDF graphs.

The workload-based agreement tests use generator-shaped corpora; this one
feeds the algorithms completely unstructured graphs — disconnected parts,
empty documents, coincident locations, dangling places — and asserts all
four algorithms still match the exhaustive reference."""


from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.engine import KSPEngine
from repro.core.exhaustive import exhaustive_search
from repro.core.query import KSPQuery
from repro.rdf.graph import RDFGraph
from repro.spatial.geometry import Point
from repro.core.config import EngineConfig

TERMS = ["aa", "bb", "cc", "dd", "ee"]


@st.composite
def random_graphs(draw):
    vertex_count = draw(st.integers(min_value=1, max_value=18))
    graph = RDFGraph()
    location_values = st.floats(
        min_value=-5, max_value=5, allow_nan=False, allow_infinity=False
    )
    for index in range(vertex_count):
        document = draw(st.frozensets(st.sampled_from(TERMS), max_size=3))
        is_place = draw(st.booleans())
        location = None
        if is_place:
            location = Point(draw(location_values), draw(location_values))
        graph.add_vertex("v%d" % index, document=document, location=location)
    edge_count = draw(st.integers(min_value=0, max_value=3 * vertex_count))
    for _ in range(edge_count):
        a = draw(st.integers(0, vertex_count - 1))
        b = draw(st.integers(0, vertex_count - 1))
        if a != b:
            graph.add_edge(a, b)
    return graph


def score_tie_graph():
    """Two places at one point, so both score 0 at that point: ``v1``
    (empty document) reaches ``aa`` through ``v2``, which holds it."""
    graph = RDFGraph()
    graph.add_vertex("v0")
    graph.add_vertex("v1", document=frozenset(), location=Point(0, 0))
    graph.add_vertex("v2", document=frozenset({"aa"}), location=Point(0, 0))
    graph.add_edge(1, 2)
    return graph


queries = st.tuples(
    st.lists(st.sampled_from(TERMS), min_size=1, max_size=3, unique=True),
    st.integers(min_value=1, max_value=4),
    st.floats(min_value=-5, max_value=5, allow_nan=False),
    st.floats(min_value=-5, max_value=5, allow_nan=False),
)


class TestRandomGraphAgreement:
    @given(random_graphs(), queries)
    @example(score_tie_graph(), (["aa"], 1, 0.0, 0.0))
    @settings(max_examples=60, deadline=None)
    def test_all_methods_match_exhaustive(self, graph, query_spec):
        keywords, k, x, y = query_spec
        query = KSPQuery(location=Point(x, y), keywords=tuple(keywords), k=k)
        engine = KSPEngine(graph, EngineConfig(alpha=2))
        reference = exhaustive_search(graph, engine.inverted_index, query)
        expected = [(p.root, round(p.score, 9)) for p in reference]
        for method in ("bsp", "spp", "sp", "ta"):
            got = [
                (p.root, round(p.score, 9))
                for p in engine.query(query, method=method)
            ]
            assert got == expected, method

    def test_ta_breaks_score_ties_by_root_id(self):
        # Both places score 0; the lower root id ranks first.  TA used to
        # prune at score >= theta and return root 2.
        engine = KSPEngine(score_tie_graph(), EngineConfig(alpha=2))
        query = KSPQuery(location=Point(0, 0), keywords=("aa",), k=1)
        for method in ("bsp", "spp", "sp", "ta"):
            assert [(p.root, p.score) for p in engine.query(query, method=method)] == [
                (1, 0.0)
            ], method

    @given(random_graphs(), queries)
    @settings(max_examples=25, deadline=None)
    def test_undirected_mode_matches_exhaustive(self, graph, query_spec):
        keywords, k, x, y = query_spec
        query = KSPQuery(location=Point(x, y), keywords=tuple(keywords), k=k)
        engine = KSPEngine(graph, EngineConfig(alpha=2, undirected=True))
        reference = exhaustive_search(
            graph, engine.inverted_index, query, undirected=True
        )
        expected = [(p.root, round(p.score, 9)) for p in reference]
        for method in ("spp", "sp"):
            got = [
                (p.root, round(p.score, 9))
                for p in engine.query(query, method=method)
            ]
            assert got == expected, method

    @given(random_graphs(), queries)
    @settings(max_examples=25, deadline=None)
    def test_cursor_prefix_matches_exhaustive(self, graph, query_spec):
        keywords, k, x, y = query_spec
        engine = KSPEngine(graph, EngineConfig(alpha=2))
        query = KSPQuery(location=Point(x, y), keywords=tuple(keywords), k=10)
        reference = exhaustive_search(graph, engine.inverted_index, query)
        cursor = engine.cursor(Point(x, y), list(keywords))
        streamed = cursor.take(10)
        assert [round(p.score, 9) for p in streamed] == [
            round(p.score, 9) for p in reference
        ]
