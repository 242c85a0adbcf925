"""Automorphism groups, vertex-pair orbits, and the orbit-polynomial test."""
import sys

import pytest

from quograph import (WalkAlgebra, automorphisms, complete_graph, cycle_graph,
                      global_partition, is_orbit_polynomial, orbit_partition,
                      path_graph, petersen_graph)
from quograph.errors import SizeLimitError


def test_automorphism_counts():
    assert len(automorphisms(complete_graph(3))) == 6
    assert len(automorphisms(cycle_graph(5))) == 10       # dihedral
    assert len(automorphisms(path_graph(3))) == 2
    assert len(automorphisms(petersen_graph())) == 120    # S_5


def test_automorphisms_preserve_edges():
    g = petersen_graph()
    for sigma in automorphisms(g)[:10]:
        for u, v in g.edges():
            assert g.has_edge(sigma[u], sigma[v])


def test_automorphisms_result_has_no_other_referrer():
    """The search must not keep its result alive in a reference cycle (K9
    has 362,880 automorphisms), so it is freed with the caller's reference."""
    auts = automorphisms(cycle_graph(5))
    assert sys.getrefcount(auts) == 2    # auts and getrefcount's argument


def test_size_cap():
    with pytest.raises(SizeLimitError):
        automorphisms(cycle_graph(11))
    assert len(automorphisms(cycle_graph(11), cap=11)) == 22


def test_orbit_counts():
    g = cycle_graph(5)
    op = orbit_partition(automorphisms(g), g.n)
    assert len(op.orbits) == 3           # diagonal, adjacent, distance two
    g = path_graph(3)
    op = orbit_partition(automorphisms(g), g.n)
    assert len(op.orbits) == 5


def test_orbit_matrices_partition_pairs():
    g = path_graph(4)
    op = orbit_partition(automorphisms(g), g.n)
    total = [[0] * g.n for _ in range(g.n)]
    for i in range(len(op.orbits)):
        m = op.orbit_matrix(i)
        for u in range(g.n):
            for v in range(g.n):
                total[u][v] += m[u][v]
    assert total == [[1] * g.n for _ in range(g.n)]


def test_orbits_refine_walk_classes():
    """Every orbit sits inside a single walk class (walk counts are
    automorphism invariants)."""
    for g in [cycle_graph(6), path_graph(5), petersen_graph()]:
        pp = global_partition(g)
        op = orbit_partition(automorphisms(g), g.n)
        for orb in op.orbits:
            ids = {pp.class_index[u][v] for u, v in orb}
            assert len(ids) == 1


def test_is_orbit_polynomial():
    for g, want in [(cycle_graph(5), True), (complete_graph(4), True),
                    (path_graph(3), False)]:
        op = orbit_partition(automorphisms(g), g.n)
        assert is_orbit_polynomial(WalkAlgebra.of(g), op) is want
