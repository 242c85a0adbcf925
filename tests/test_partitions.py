"""Walk vectors, the global pair partition, and local partitions."""
import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

from quograph import (WalkAlgebra, adjacency_power_ladder, build_graph,
                      check_regular, circulant, complete_graph, cycle_graph,
                      distances, global_partition, local_partition,
                      parse_graph_spec, path_graph, prism_y6)
from quograph.partitions import LocalPartition
from quograph.report import _partition_dict

from oracles import (class_matrix, is_distance_faithful, walk_classes,
                     walk_vectors)
from worked_examples import CIRC17_B, CIRC17_CELLS


def test_ladder_length_is_algebra_dimension():
    assert adjacency_power_ladder(complete_graph(5)).d + 1 == 2
    assert adjacency_power_ladder(cycle_graph(5)).d + 1 == 3
    assert adjacency_power_ladder(circulant(17, {1, 4})).d + 1 == 5
    assert adjacency_power_ladder(prism_y6()).d + 1 == 7


def test_walk_vectors_known_entries(circ17):
    wv = walk_vectors(circ17)
    assert wv[(0, 0)] == (1, 0, 4, 0, 36)
    for v in CIRC17_CELLS[2]:
        assert wv[(0, v)] == (0, 0, 2, 1, 24)
    for v in CIRC17_CELLS[1]:
        assert wv[(0, v)][1] == 1   # neighbors have one 1-walk


def test_global_partition_complete_graph():
    pp = global_partition(complete_graph(4))
    assert pp.r == 1
    assert pp.diagonal_is_identity
    assert pp.class_ids.count(0) == 4 and pp.class_ids.count(1) == 12


def test_global_partition_counts(circ17, y6):
    assert global_partition(circ17).r == 4
    assert global_partition(y6).r == 7


def test_class_ordering_and_index(circ17):
    pp = global_partition(circ17)
    # class 0 is the diagonal; classes 1..4 carry the local cells around 0
    for i, cell in CIRC17_CELLS.items():
        for v in cell:
            assert pp.class_ids[v] == i  # row 0
    # walk vectors and classes stay aligned
    wv = walk_vectors(circ17)
    for p, i in enumerate(pp.class_ids):
        assert wv[divmod(p, pp.n)] == pp.class_walk_vectors[i]


def test_class_matrices_sum_to_j_and_are_symmetric(circ17):
    pp = global_partition(circ17)
    n = pp.n
    total = [[0] * n for _ in range(n)]
    for i in range(pp.r + 1):
        m = class_matrix(pp, i)
        assert m == [list(col) for col in zip(*m)]
        for u in range(n):
            for v in range(n):
                total[u][v] += m[u][v]
    assert total == [[1] * n for _ in range(n)]


def test_class_distance_is_first_nonzero(circ17, small_corpus, corpus_reports):
    """class_distances[c(u,v)] is the BFS distance of (u,v) at every pair of
    circ17, the corpus and the `large` benchmark inputs, and the diameter
    read off the classes is the BFS diameter; the distance, h-punctual and
    qp_implies_dp classifiers all read them."""
    bench = Path(__file__).resolve().parent.parent / "bench"
    sys.path.insert(0, str(bench))
    from inputs import DEFAULT_SEED, workload_inputs
    graphs = [circ17, *map(parse_graph_spec,
                           workload_inputs("large", DEFAULT_SEED))]
    pairs = [(g, pp, max(pp.class_distances))
             for g, pp in zip(graphs, map(global_partition, graphs))]
    pairs += [(g, r.quotient.partition, r.diameter)
              for g, r in zip(small_corpus, corpus_reports[0])]
    for g, pp, diameter in pairs:
        dd = distances(g)
        assert diameter == dd.diameter  # the diameter read off the classes
        dist = pp.class_distances
        assert len(dist) == pp.r + 1
        assert all(dist[i] == next(l for l, x in enumerate(vec) if x)
                   for i, vec in enumerate(pp.class_walk_vectors))
        for u, row in enumerate(dd.dist):
            assert [pp.class_distances[i]
                    for i in pp.class_ids[u * g.n:(u + 1) * g.n]] == list(row)
    assert len(pairs) == 1 + 1196 + 4


def test_flat_index_is_a_read_only_class_index(circ17):
    """flat_index is class_ids as an array, int64, built once and
    read-only; it is no field, so equality and replace ignore it."""
    pp = global_partition(circ17)
    flat = pp.flat_index
    assert flat.dtype == np.int64 and flat.shape == (pp.n * pp.n,)
    assert flat.tolist() == list(pp.class_ids)
    assert pp.flat_index is flat
    assert not flat.flags.writeable
    with pytest.raises(ValueError):
        flat[0] = 1
    other = global_partition(circ17)
    assert other == pp and hash(other) == hash(pp)
    copy = dataclasses.replace(pp)
    assert copy == pp and "flat_index" not in vars(copy)
    assert copy.flat_index.tolist() == flat.tolist()


def test_class_members_match_walk_vector_grouping(small_corpus,
                                                  corpus_reports):
    """The pair lists, class sizes and first pairs read off class_ids, and
    the pair lists the report's partition section writes, equal the pairs
    grouped by walk vectors from the dense reference ladder, class by class,
    on every corpus graph and every input of the `large` benchmark."""
    bench = Path(__file__).resolve().parent.parent / "bench"
    sys.path.insert(0, str(bench))
    from inputs import DEFAULT_SEED, workload_inputs
    pairs = [(g, r.quotient.partition)
             for g, r in zip(small_corpus, corpus_reports[0])]
    pairs += [(g, global_partition(g)) for g in
              map(parse_graph_spec, workload_inputs("large", DEFAULT_SEED))]
    for g, pp in pairs:
        want = walk_classes(g)
        assert len(want) == pp.r + 1
        members, bounds = (a.tolist() for a in pp.class_members)
        section = _partition_dict(pp)["classes"]
        for k, vec in enumerate(pp.class_walk_vectors):
            cls = want[vec]
            assert [divmod(p, g.n) for p in
                    members[bounds[k]:bounds[k + 1]]] == cls
            assert section[k]["pairs"] == [list(p) for p in cls]
            assert pp.class_sizes[k] == len(cls)
            assert divmod(members[bounds[k]], g.n) == cls[0]  # first pair
    assert len(pairs) == 1196 + 4


def test_local_partition_cells(circ17):
    lp = local_partition(global_partition(circ17), 0)
    assert lp.cells[0] == (0,)
    for i, cell in CIRC17_CELLS.items():
        assert lp.cells[i] == cell
    assert is_distance_faithful(lp, distances(circ17))


def test_local_partition_path():
    g = path_graph(3)
    pp = global_partition(g)
    lp = local_partition(pp, 1)  # the center of the path
    assert (1,) in lp.cells and (0, 2) in lp.cells
    assert is_distance_faithful(lp, distances(g))


def test_distance_faithful_rejects_mixed_cells():
    g = path_graph(4)
    bad = LocalPartition(center=0, cells=((0,), (1, 2), (3,)),
                         class_ids=(0, 1, 2))
    assert not is_distance_faithful(bad, distances(g))


def test_check_regular_known_values(circ17):
    lp = local_partition(global_partition(circ17), 0)
    assert check_regular(circ17, lp) == CIRC17_B
    k3 = complete_graph(3)
    lp3 = local_partition(global_partition(k3), 0)
    assert check_regular(k3, lp3) == [[0, 2], [1, 1]]


def test_check_regular_detects_inequity():
    # around an endpoint of P4, the distance partition is not equitable:
    # cell {1} has deg-2 vertex 1, but cell {3} at distance 3 has degree 1
    g = path_graph(4)
    lp = LocalPartition(center=0, cells=((0,), (1, 2, 3),), class_ids=(0, 1))
    assert check_regular(g, lp) is None


def test_refine_then_merge_recovers_cells(circ17):
    """Splitting cells to singletons and regrouping by walk vector gives the
    canonical local partition back (merge step of the partition theory)."""
    wv = walk_vectors(circ17)
    lp = local_partition(global_partition(circ17), 0)
    singletons = [v for cell in lp.cells for v in cell]
    merged: dict[tuple, list] = {}
    for v in singletons:
        merged.setdefault(wv[(0, v)], []).append(v)
    assert {tuple(sorted(c)) for c in merged.values()} == \
        {tuple(sorted(c)) for c in lp.cells}


def test_quotient_matrix_eigenvalues_inside_spectrum(circ17):
    b = check_regular(circ17, local_partition(global_partition(circ17), 0))
    b_eigs = np.linalg.eigvals(np.array(b, dtype=float))
    a_eigs = np.linalg.eigvalsh(np.array(circ17.adjacency_matrix(), dtype=float))
    for mu in b_eigs:
        assert abs(mu.imag) < 1e-8
        assert min(abs(mu.real - lam) for lam in a_eigs) < 1e-8


def test_r_at_least_d_small_family():
    for g in [complete_graph(5), cycle_graph(7), path_graph(5),
              build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])]:
        alg = WalkAlgebra.of(g)
        assert alg.partition.r >= alg.d
