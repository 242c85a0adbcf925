"""Quotient-polynomial decision, polynomial recovery, and W/W+ machinery."""
from fractions import Fraction

import pytest

from quograph import (Polynomial, WalkAlgebra, build_graph, circulant,
                      complete_graph, cycle_graph, decide_quotient_polynomial,
                      global_partition, intersection_matrix, local_partition,
                      path_graph, per_vertex_consistency, petersen_graph,
                      prism_y6, walk_count_matrices)
from quograph.errors import AnalysisError

from oracles import eval_poly, local_dimension
from worked_examples import (CIRC17_B, CIRC17_POLYS, CIRC17_W, CIRC17_W_PLUS)


def decide(g):
    return decide_quotient_polynomial(WalkAlgebra.of(g))


def test_algebra_dimension():
    assert WalkAlgebra.of(complete_graph(6)).d + 1 == 2
    assert WalkAlgebra.of(circulant(17, {1, 4})).d + 1 == 5
    assert WalkAlgebra.of(prism_y6()).d + 1 == 7


def test_local_dimension_oracle_matches_fast_path(circ17, y6):
    """local_dimension builds the vector ladder from scratch; the report
    derives d_u from class walk vectors. They must agree everywhere."""
    for g in [circ17, y6, path_graph(5), petersen_graph(),
              build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])]:
        rep = decide(g)
        for u in range(g.n):
            assert local_dimension(g, u) == rep.local_dimensions[u]


def test_local_dimension_bounds(y6):
    rep = decide(y6)
    for du in rep.local_dimensions:
        assert du <= rep.d + 1


def test_decide_circulant(circ17):
    rep = decide(circ17)
    assert rep.d == 4 and rep.r == 4 and rep.diameter == 3
    assert rep.is_quotient_polynomial
    assert rep.walk_matrix == CIRC17_W
    assert rep.walk_matrix_plus == CIRC17_W_PLUS
    assert rep.intersection_b == CIRC17_B
    for p, want in zip(rep.polynomials, CIRC17_POLYS):
        assert list(p.coeffs) == want
    # Hoffman polynomial sums the five and satisfies H(A) = J
    h = rep.hoffman
    ha = eval_poly(h, circ17.adjacency_matrix())
    assert ha == [[Fraction(1)] * 17 for _ in range(17)]


def test_decide_y6_not_qp(y6):
    rep = decide(y6)
    assert rep.d == 6 and rep.r == 7
    assert not rep.is_quotient_polynomial
    assert rep.polynomials is None and rep.intersection_b is None


def test_decide_complete_graph():
    rep = decide(complete_graph(4))
    assert rep.is_quotient_polynomial and rep.d == 1
    assert rep.polynomials[0] == Polynomial.of([1])
    assert rep.polynomials[1] == Polynomial.of([0, 1])
    assert rep.hoffman == Polynomial.of([1, 1])


def test_walk_matrix_row_structure(circ17):
    rep = decide(circ17)
    w = rep.walk_matrix
    assert w[0] == [1, 0, 0, 0, 0]          # A^0 e_0 hits only the center
    assert w[1][0] == 0 and w[1][1] == 1    # A e_0 hits the neighbor cell once
    assert all(x == 0 for x in w[1][2:])


def test_walk_count_matrices_k3():
    g = complete_graph(3)
    lp = local_partition(global_partition(g), 0)
    wm = walk_count_matrices(g, 0, lp)
    assert wm.w == [[1, 0], [0, 1]]
    assert wm.w_plus == [[0, 1], [2, 1]]
    assert intersection_matrix(wm) == [[0, 2], [1, 1]]


def test_intersection_matrix_c5():
    g = cycle_graph(5)
    lp = local_partition(global_partition(g), 0)
    wm = walk_count_matrices(g, 0, lp)
    b = intersection_matrix(wm)
    # rows sum to the degree, first column counts paths back to the center
    assert b == [[0, 2, 0], [1, 0, 1], [0, 1, 1]]


def test_intersection_matrix_singular_w(y6):
    lp = local_partition(global_partition(y6), 0)
    wm = walk_count_matrices(y6, 0, lp)  # 8x8 walk counts but rank 7
    with pytest.raises(AnalysisError):
        intersection_matrix(wm)


def test_algebra_membership(circ17, y6):
    alg = WalkAlgebra.of(circ17)
    pp = alg.partition
    polys = alg.membership([pp.class_matrix(i) for i in range(pp.r + 1)])
    assert [list(p.coeffs) for p in polys] == CIRC17_POLYS
    outside = [[1 if (u, v) == (0, 1) or (u, v) == (1, 0) else 0
                for v in range(17)] for u in range(17)]
    assert alg.membership([outside]) is None          # splits a walk class
    assert alg.membership([pp.class_matrix(1), outside]) is None
    # r = d + 1 on Y6: some class matrix is constant on every class yet
    # lies outside the column space of the class walk matrix
    alg = WalkAlgebra.of(y6)
    outside = [alg.membership([alg.partition.class_matrix(i)])
               for i in range(alg.partition.r + 1)]
    assert None in outside and outside.count(None) < len(outside)


def test_per_vertex_consistency(circ17):
    alg = WalkAlgebra.of(circ17)
    assert per_vertex_consistency(alg, decide_quotient_polynomial(alg))
    alg = WalkAlgebra.of(petersen_graph())
    assert per_vertex_consistency(alg, decide_quotient_polynomial(alg))


def test_per_vertex_consistency_requires_qp(y6):
    alg = WalkAlgebra.of(y6)
    with pytest.raises(AnalysisError):
        per_vertex_consistency(alg, decide_quotient_polynomial(alg))


def test_polynomials_satisfy_p_of_a_equals_class_matrix(circ17):
    rep = decide(circ17)
    a = circ17.adjacency_matrix()
    for i, p in enumerate(rep.polynomials):
        assert eval_poly(p, a) == rep.partition.class_matrix(i)
