"""The shared traversal mixin across both graph stores (in-memory and
the mmap'd snapshot)."""

import pytest

from repro.datagen.sampling import induced_subgraph
from repro.rdf.graph import RDFGraph


def diamond():
    graph = RDFGraph()
    a, b, c, d = (graph.add_vertex(x) for x in "abcd")
    graph.add_edge(a, b)
    graph.add_edge(a, c)
    graph.add_edge(b, d)
    graph.add_edge(c, d)
    return graph, (a, b, c, d)


class TestMixinOnDiskGraph:
    @pytest.fixture()
    def disk(self, reopened):
        graph, ids = diamond()
        return reopened(graph).graph, ids

    def test_bfs_out_of_range(self, disk):
        disk_graph, _ = disk
        with pytest.raises(IndexError):
            list(disk_graph.bfs(99))

    def test_shortest_path(self, disk):
        disk_graph, (a, b, c, d) = disk
        assert disk_graph.shortest_path_length(a, d) == 2
        assert disk_graph.shortest_path_length(d, a) is None
        assert disk_graph.shortest_path_length(d, a, undirected=True) == 2

    def test_weak_components(self, disk):
        disk_graph, _ = disk
        components = disk_graph.weakly_connected_components()
        assert len(components) == 1
        assert sorted(components[0]) == [0, 1, 2, 3]


class TestMixinConsistency:
    def test_wcc_identical_across_stores(self, tiny_yago_graph, reopened):
        subgraph = induced_subgraph(tiny_yago_graph, list(range(250)))
        disk_graph = reopened(subgraph).graph
        memory_components = [sorted(c) for c in subgraph.weakly_connected_components()]
        disk_components = [sorted(c) for c in disk_graph.weakly_connected_components()]
        assert sorted(map(tuple, memory_components)) == sorted(
            map(tuple, disk_components)
        )
