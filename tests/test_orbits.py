"""Automorphism groups, vertex-pair orbits, and the orbit-polynomial test."""
import sys

import pytest

from quograph import (AutomorphismGroup, OrbitPartition, WalkAlgebra,
                      automorphisms, circulant, complete_graph, cycle_graph,
                      global_partition, is_orbit_polynomial, orbit_partition,
                      parse_graph6, parse_graph_spec, path_graph,
                      petersen_graph)
from quograph.errors import ContractViolationError, SizeLimitError
from quograph.orbits import orbit_membership_check

from conftest import connected_graph6_corpus
from oracles import all_automorphisms, orbit_partition_reference


def test_automorphism_counts():
    assert automorphisms(complete_graph(3)).order == 6
    assert automorphisms(cycle_graph(5)).order == 10       # dihedral
    assert automorphisms(path_graph(3)).order == 2
    assert automorphisms(petersen_graph()).order == 120    # S_5


def test_automorphisms_preserve_edges():
    g = petersen_graph()
    for sigma in automorphisms(g).generators:
        for u, v in g.edges():
            assert g.has_edge(sigma[u], sigma[v])


def test_automorphisms_result_has_no_other_referrer():
    """The oracle must not keep its result alive in a reference cycle (K9
    has 362,880 automorphisms), so it is freed with the caller's reference."""
    auts = all_automorphisms(cycle_graph(5))
    assert sys.getrefcount(auts) == 2    # auts and getrefcount's argument


def test_size_cap():
    with pytest.raises(SizeLimitError):
        automorphisms(cycle_graph(11))
    assert automorphisms(cycle_graph(11), cap=11).order == 22


def _is_automorphism(g, sigma):
    return (sorted(sigma) == list(range(g.n))
            and all(g.has_edge(sigma[u], sigma[v]) for u, v in g.edges()))


def test_group_matches_listing_oracle():
    """Order, pair orbits and generators against the list of every
    automorphism, on all connected atlas graphs and four fixed graphs."""
    graphs = [parse_graph6(line) for line in connected_graph6_corpus()]
    graphs += [parse_graph_spec(s) for s in ("name:petersen", "name:complete:9",
                                             "name:star:9", "name:cycle:10")]
    for g in graphs:
        group = automorphisms(g)
        auts = all_automorphisms(g)
        assert group.n == g.n
        assert group.order == len(auts)
        assert orbit_partition(group, g.n) == orbit_partition_reference(auts, g.n)
        assert all(_is_automorphism(g, sigma) for sigma in group.generators)
    assert len(graphs) == 1000


def test_k9_group_is_not_enumerated():
    """|S_9| = 362,880, reached from a handful of generators."""
    n = 9
    group = automorphisms(complete_graph(n))
    assert group.order == 362880
    assert len(group.generators) <= n * (n - 1) // 2


def test_orbit_membership_check_names_graph_and_stage():
    g = cycle_graph(5)                   # orbit-polynomial
    alg = WalkAlgebra.of(g)
    op = orbit_partition(automorphisms(g), g.n)
    orbit_membership_check(alg, op)
    # the trivial group: 25 singleton orbits; count and membership say no
    orbit_membership_check(
        alg, orbit_partition(AutomorphismGroup(g.n, (), 1), g.n))
    # (0, 1) moved from the adjacent pairs to the distance-two pairs: three
    # "orbits" that cross walk classes, so the count says yes, membership no
    diag, adjacent, far = op.orbits
    moved = OrbitPartition(g.n, (diag, tuple(p for p in adjacent if p != (0, 1)),
                                 far + ((0, 1),)))
    with pytest.raises(ContractViolationError,
                       match=r"graph6 Dhc, stage orbits"):
        orbit_membership_check(alg, moved)


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
            ids = {pp.class_ids[u * g.n + v] for u, v in orb}
            assert len(ids) == 1


def test_is_orbit_polynomial():
    # circulant:10:1,2 has 6 orbits on pairs, exactly its 6 walk classes,
    # but r = 5 > d = 4: not quotient-polynomial, so not orbit-polynomial
    for g, want in [(cycle_graph(5), True), (complete_graph(4), True),
                    (path_graph(3), False), (circulant(10, {1, 2}), False)]:
        alg = WalkAlgebra.of(g)
        op = orbit_partition(automorphisms(g), g.n)
        assert is_orbit_polynomial(alg, op) is want
        orbit_membership_check(alg, op)
