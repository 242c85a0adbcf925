"""Graph construction, named families, and metric structure."""
import pytest

from quograph import (GraphInputError, build_graph, circulant, complete_graph,
                      cycle_graph, distances, path_graph, petersen_graph,
                      prism_y6, star_graph)
from quograph.graphs import require_connected
from quograph.errors import AnalysisError

from oracles import distance_class_matrix
from worked_examples import Y6_A1


def test_build_graph_dedupes_and_validates():
    g = build_graph(3, [(0, 1), (1, 0), (1, 2)])
    assert g.edges() == [(0, 1), (1, 2)]
    assert g.degree_sequence() == [1, 2, 1]
    with pytest.raises(GraphInputError):
        build_graph(3, [(0, 0)])
    with pytest.raises(GraphInputError):
        build_graph(3, [(0, 3)])
    with pytest.raises(GraphInputError):
        build_graph(0, [])


def test_circulant_structure():
    g = circulant(17, {1, 4})
    assert g.is_regular() and g.degree(0) == 4
    assert sorted(g.neighbors[0]) == [1, 4, 13, 16]
    with pytest.raises(GraphInputError):
        circulant(17, {0})
    with pytest.raises(GraphInputError):
        circulant(17, {9})


def test_distances_cycle():
    dd = distances(cycle_graph(6))
    assert dd.connected and dd.diameter == 3
    assert dd.dist[0][3] == 3 and dd.dist[0][5] == 1
    assert dd.ecc == (3,) * 6


def test_distances_disconnected():
    g = build_graph(4, [(0, 1), (2, 3)])
    dd = distances(g)
    assert not dd.connected
    assert dd.diameter is None
    assert dd.dist[0][2] is None
    with pytest.raises(AnalysisError):
        require_connected(g)
    # one BFS from vertex 0: 0 isolated, and 0 reaching all but vertex 2
    for g in [build_graph(3, [(1, 2)]), build_graph(4, [(0, 1), (1, 3)])]:
        with pytest.raises(AnalysisError, match="graph is disconnected"):
            require_connected(g)
    assert require_connected(build_graph(1, [])) is None


def test_distance_class_matrices_partition_pairs():
    g = petersen_graph()
    dd = distances(g)
    assert dd.diameter == 2
    total = [[0] * 10 for _ in range(10)]
    for i in range(3):
        m = distance_class_matrix(g, i)
        for u in range(10):
            for v in range(10):
                total[u][v] += m[u][v]
    assert total == [[1] * 10 for _ in range(10)]
    with pytest.raises(GraphInputError):
        distance_class_matrix(g, 3)


def test_families():
    assert complete_graph(4).degree_sequence() == [3, 3, 3, 3]
    assert path_graph(5).degree_sequence() == [1, 2, 2, 2, 1]
    assert star_graph(5).degree_sequence() == [4, 1, 1, 1, 1]
    assert petersen_graph().is_regular()
    assert distances(petersen_graph()).diameter == 2
    with pytest.raises(GraphInputError):
        cycle_graph(2)


def test_prism_y6_matches_frozen_adjacency():
    g = prism_y6()
    assert g.adjacency_matrix() == Y6_A1
    assert g.is_regular() and g.degree(0) == 3
    assert distances(g).diameter == 4
