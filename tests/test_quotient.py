"""Quotient-polynomial decision, polynomial recovery, and W/W+ machinery."""
import dataclasses
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from quograph import (Polynomial, WalkAlgebra, analyze, build_graph, circulant,
                      complete_graph, cycle_graph, decide_quotient_polynomial,
                      distances, global_partition, local_partition,
                      parse_graph6, parse_graph_spec, path_graph,
                      petersen_graph, prism_y6, quotient)
from quograph.errors import AnalysisError, ContractViolationError
from quograph.partitions import PairPartition
from quograph.quotient import extended_partition_stable
from quograph.schemes import AssociationScheme, generates_scheme_check

from oracles import (adjacency_power_ladder_reference, class_matrix,
                     class_powers, eval_poly,
                     generates_scheme_check_reference, intersection_matrix,
                     local_dimension, per_vertex_consistency,
                     scheme_classes, walk_count_matrices)
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
              build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]),
              complete_graph(1), complete_graph(2)]:
        rep = decide(g)
        for u in range(g.n):
            assert local_dimension(g, u) == rep.local_dimensions[u]


def test_local_dimensions_match_oracle(small_corpus, corpus_reports):
    """Every d_u+1 of the report, ranked once per diagonal class mod p with
    the exact fallback, equals the per-vertex vector ladder on the corpus,
    the `large` benchmark inputs and a seeded G(40, 0.15); vertices with
    the same diagonal class c(u,u) share it, and
    ecc(u)+1 <= d_u+1 <= min(#classes at u, d+1)."""
    bench = Path(__file__).resolve().parent.parent / "bench"
    sys.path.insert(0, str(bench))
    from inputs import DEFAULT_SEED, gnp_connected, workload_inputs
    graphs = [parse_graph_spec(spec)
              for spec in workload_inputs("large", DEFAULT_SEED)]
    graphs.append(parse_graph6(gnp_connected(40, 0.15, random.Random(1))))
    pairs = list(zip(small_corpus, (r.quotient for r in corpus_reports[0])))
    pairs += [(g, decide(g)) for g in graphs]
    for g, rep in pairs:
        pp, ecc = rep.partition, distances(g).ecc
        by_class = {}
        for u, du in enumerate(rep.local_dimensions):
            assert du == local_dimension(g, u)
            row = pp.class_ids[u * g.n:(u + 1) * g.n]
            assert by_class.setdefault(row[u], du) == du
            assert ecc[u] + 1 <= du <= min(len(set(row)), rep.d + 1)
    assert len(pairs) == 1196 + 5


def test_local_dimension_bounds(y6):
    rep = decide(y6)
    for du in rep.local_dimensions:
        assert du <= rep.d + 1


def test_decide_circulant(circ17):
    alg = WalkAlgebra.of(circ17)
    rep = decide_quotient_polynomial(alg)
    assert rep.d == 4 and rep.r == 4 and alg.diameter == 3
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


def test_readoff_matches_oracles(small_corpus, corpus_reports):
    """W, W+ and B read off the class walk matrix, mu and the neighbour
    count equal the per-vertex walk ladder and the Fraction solve of
    W B^T = W+; scheme generation read as partition equality equals the
    n^2-row span test, also on a scheme with two classes merged, which lies
    in A(Gamma) but spans too little. Runs on the QP graphs of the corpus
    and of the `large` benchmark inputs."""
    bench = Path(__file__).resolve().parent.parent / "bench"
    sys.path.insert(0, str(bench))
    from inputs import DEFAULT_SEED, workload_inputs
    pairs = list(zip(small_corpus, corpus_reports[0]))
    for spec in workload_inputs("large", DEFAULT_SEED):
        g = parse_graph_spec(spec)
        pairs.append((g, analyze(g)))
    checked = []
    for g, rpt in pairs:
        rep = rpt.quotient
        if not (rep and rep.is_quotient_polynomial):
            continue
        wm = walk_count_matrices(g, 0, local_partition(rep.partition, 0))
        assert rep.walk_matrix == wm.w
        assert rep.walk_matrix_plus == wm.w_plus
        assert rep.intersection_b == intersection_matrix(wm)
        alg = WalkAlgebra.of(g)
        # the dense reference ladder takes ~1 s on Q7 (n = 128), so there
        # the powers are read off the classes; test_ladder proves them equal
        ladder = (class_powers(alg) if g.n > 64
                  else adjacency_power_ladder_reference(g))
        assert rpt.scheme_generates is True
        classes = scheme_classes(rpt.scheme)
        assert generates_scheme_check_reference(classes, ladder) is True
        if rep.d > 1:
            *rest, a, b = classes
            merged = (*rest, [[x + y for x, y in zip(ra, rb)]
                              for ra, rb in zip(a, b)])
            s = len(merged)
            zeros = [[[0] * s for _ in range(s)] for _ in range(s)]
            assert generates_scheme_check(AssociationScheme.of(
                g.n, [[x for row in m for x in row] for m in merged], zeros),
                alg) is False
            assert generates_scheme_check_reference(merged, ladder) is False
        checked.append((g.n, rep.d))
    assert (128, 7) in checked and (41, 20) in checked  # Q7 and cycle:41
    assert len(checked) == 17  # 15 from the corpus


def test_readoff_rejects_wrong_neighbour_count(circ17, monkeypatch):
    """B must satisfy W B^T = W+; one count off by one is a broken theorem."""
    check_regular = quotient.check_regular

    def off_by_one(g, lp):
        b = check_regular(g, lp)
        b[1][2] += 1
        return b

    monkeypatch.setattr(quotient, "check_regular", off_by_one)
    with pytest.raises(ContractViolationError, match="neighbor counting"):
        decide(circ17)


def test_algebra_membership(circ17, y6):
    alg = WalkAlgebra.of(circ17)
    pp = alg.partition
    polys = alg.membership([class_matrix(pp, i) for i in range(pp.r + 1)])
    assert [list(p.coeffs) for p in polys] == CIRC17_POLYS
    outside = [[1 if (u, v) == (0, 1) or (u, v) == (1, 0) else 0
                for v in range(17)] for u in range(17)]
    assert alg.membership([outside]) is None          # splits a walk class
    assert alg.membership([class_matrix(pp, 1), outside]) is None
    # r = d + 1 on Y6: some class matrix is constant on every class yet
    # lies outside the column space of the class walk matrix
    alg = WalkAlgebra.of(y6)
    outside = [alg.membership([class_matrix(alg.partition, i)])
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
        assert eval_poly(p, a) == class_matrix(rep.partition, i)


def test_extended_partition_stable_rejects_merged_classes(circ17, petersen):
    """The witness holds on the walk partition and fails on one with two
    classes merged, which walks of length up to 2d tell apart."""
    for g in [circ17, petersen, cycle_graph(12)]:
        alg = WalkAlgebra.of(g)
        assert extended_partition_stable(alg)
        pp = alg.partition
        merged = PairPartition(  # the last class joins the one before it
            g.n, tuple(min(k, pp.r - 1) for k in pp.class_ids),
            pp.class_walk_vectors[:-1])
        assert not extended_partition_stable(
            dataclasses.replace(alg, partition=merged))
