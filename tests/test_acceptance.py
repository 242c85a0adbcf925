"""Acceptance suite: the eight release criteria, one pass line each.

Criteria 5 and 6 share one analysis pass over the corpus (all connected
graphs on at most 7 vertices plus 200 random connected graphs on 8 to 16
vertices); criterion 7 runs the orbit machinery on the whole corpus.
"""
import time
from fractions import Fraction

from quograph import (WalkAlgebra, analyze, automorphisms,
                      decide_quotient_polynomial, distances,
                      local_partition, orbit_partition, parse_edge_list,
                      parse_graph_spec, petersen_graph,
                      spectral_decomposition, spectrum_partition)

from oracles import (adjacency_power_ladder_reference, b_via_trace, eval_poly,
                     graph_scalar_product, is_distance_faithful,
                     per_vertex_consistency, transpose)
from test_schemes import brute_intersection_numbers
from worked_examples import (CIRC17_B, CIRC17_BT, CIRC17_EIGS, CIRC17_POLYS,
                             CIRC17_W, CIRC17_W_PLUS, Y6_A1, Y6_A4,
                             Y6_DIST_POLYS, Y6_SPECTRUM)


def ok(num, label):
    print(f"ACCEPTANCE {num} ({label}): PASS")


def test_acceptance_1_worked_example_exact():
    t0 = time.monotonic()
    rpt = analyze(parse_graph_spec("circulant:17:1,4"))
    rep = rpt.quotient
    assert rep.is_quotient_polynomial
    assert rep.r == 4 and rep.d == 4 and rpt.diameter == 3
    assert rep.walk_matrix == CIRC17_W
    assert rep.walk_matrix_plus == CIRC17_W_PLUS
    assert transpose(rep.intersection_b) == CIRC17_BT  # B^T = W^-1 W^+
    for p, want in zip(rep.polynomials, CIRC17_POLYS):
        assert list(p.coeffs) == want
    f = rpt.flags
    assert f.quotient_polynomial and f.walk_regular and f.distance_polynomial
    assert not f.distance_regular
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    ok(1, "circulant worked example, exact")


def test_acceptance_2_prism_counterexample():
    t0 = time.monotonic()
    edge_lines = ["12 18"] + [f"{u} {v}"
                              for u, v in [((i), (i + 1) % 12) for i in range(12)]
                              + [((i), (i + 3) % 12) for i in range(1, 12, 2)]]
    g = parse_edge_list("\n".join(edge_lines))
    assert g.adjacency_matrix() == Y6_A1
    rpt = analyze(g)
    rep = rpt.quotient
    assert not rep.is_quotient_polynomial
    assert rep.r == 7 and rep.d == 6
    assert rpt.flags.distance_polynomial
    for p, want in zip(rpt.flags.distance_polys, Y6_DIST_POLYS):
        assert list(p.coeffs) == want
    # A_4 is the shift-by-six permutation
    a4 = eval_poly(rpt.flags.distance_polys[4], g.adjacency_matrix())
    assert a4 == [[Fraction(x) for x in row] for row in Y6_A4]
    got = list(zip(rpt.eigenvalues, rpt.multiplicities))
    for (lam, m), (wl, wm) in zip(got, Y6_SPECTRUM):
        assert abs(lam - wl) < 1e-8 and m == wm
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"criterion 2 took {elapsed:.2f}s"
    ok(2, "prism Y6 counterexample")


def test_acceptance_3_spectrum_numeric():
    g = parse_graph_spec("circulant:17:1,4")
    sd = spectral_decomposition(WalkAlgebra.of(g))
    assert sd.spectrum.multiplicities == (1, 4, 4, 4, 4)
    for got, want in zip(sd.spectrum.eigenvalues, CIRC17_EIGS):
        assert abs(got - want) < 1e-3
    ok(3, "spectrum within 1e-3 of three-decimal values")


def test_acceptance_4_petersen_control():
    g = petersen_graph()
    want = brute_intersection_numbers(g)  # oracle first
    rpt = analyze(g)
    assert rpt.flags.quotient_polynomial and rpt.flags.distance_regular
    assert rpt.diameter == 2 and rpt.quotient.r == 2
    s = rpt.scheme
    assert s.num_classes == 2
    for k in range(3):
        for i in range(3):
            for j in range(3):
                assert s.intersection_numbers[k][i][j] == want[k][i][j]
    ok(4, "Petersen distance-regular control")


def test_acceptance_5_property_suite(small_corpus, corpus_reports):
    t0 = time.monotonic()
    reports, fixture_elapsed = corpus_reports
    for g, rpt in zip(small_corpus, reports):
        rep = rpt.quotient
        assert rep.r >= rep.d, "r >= d violated"
        # the m-vector grouping reproduces the exact walk partition
        # (spectrum_partition raises ToleranceError otherwise): analyze()
        # runs this witness only under debug_checks, so check it here
        pp = rep.partition
        alg = WalkAlgebra.of(g)
        sd = spectral_decomposition(alg)
        spectrum_partition(sd, pp)
        # distance-faithfulness
        dd = distances(g)
        for u in range(g.n):
            assert is_distance_faithful(local_partition(pp, u), dd)
        if not rep.is_quotient_polynomial:
            continue
        # QP battery
        assert pp.diagonal_is_identity                      # J_0 = I
        total = rep.polynomials[0]
        for p in rep.polynomials[1:]:
            total = total + p
        assert total == rep.hoffman                         # sum p_i = H
        ha = eval_poly(rep.hoffman, g.adjacency_matrix())
        assert ha == [[Fraction(1)] * g.n for _ in range(g.n)]  # H(A) = J
        for i in range(rep.r + 1):
            for j in range(i + 1, rep.r + 1):
                val = graph_scalar_product(g, sd.spectrum,
                                           rep.polynomials[i],
                                           rep.polynomials[j])
                assert abs(val) < 1e-9
        from quograph import qp_implies_dp
        assert per_vertex_consistency(alg, rep)
        assert rpt.scheme is not None                       # axioms verified
        qp_implies_dp(alg, rep)                             # raises on failure
        bt = transpose(rep.intersection_b)
        ladder = adjacency_power_ladder_reference(g)
        for i in range(rep.r + 1):
            for j in range(rep.r + 1):
                assert abs(b_via_trace(g, ladder, rep.polynomials, i, j)
                           - bt[i][j]) < 1e-9
    elapsed = fixture_elapsed + (time.monotonic() - t0)
    assert elapsed < 300, f"criterion 5 took {elapsed:.1f}s"
    ok(5, f"property suite over {len(reports)} graphs in {elapsed:.1f}s")


def test_acceptance_6_implication_chain(corpus_reports):
    reports, _ = corpus_reports
    for rpt in reports:
        f = rpt.flags
        if f.distance_regular:
            assert f.quotient_polynomial
        if f.quotient_polynomial:
            assert f.walk_regular and f.distance_polynomial
        if f.distance_polynomial and rpt.diameter == rpt.quotient.d:
            assert f.distance_regular
    ok(6, f"implication chain, zero violations on {len(reports)} graphs")


def test_acceptance_7_orbit_inclusion(small_corpus, corpus_reports):
    t0 = time.monotonic()
    reports, _ = corpus_reports
    checked = orbit_poly_count = 0
    for g, rpt in zip(small_corpus, reports):
        op = orbit_partition(automorphisms(g, cap=g.n), g.n)
        pp = rpt.quotient.partition
        for orb in op.orbits:
            ids = {pp.class_ids[u * g.n + v] for u, v in orb}
            assert len(ids) == 1, "orbit crosses walk classes"
        # by membership of every orbit matrix, not by is_orbit_polynomial's
        # orbit count, which already assumes the inclusion
        if WalkAlgebra.of(g).membership(
                [op.orbit_matrix(i) for i in range(len(op.orbits))]) is not None:
            orbit_poly_count += 1
            assert rpt.flags.quotient_polynomial, \
                "orbit-polynomial graph is not quotient-polynomial"
        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 600, f"criterion 7 took {elapsed:.1f}s"
    ok(7, f"orbit inclusion on {checked} graphs "
          f"({orbit_poly_count} orbit-polynomial) in {elapsed:.1f}s")


def test_acceptance_8_no_other_numbers():
    """Every concrete number in scope lives in the two worked examples;
    re-assert both end to end from a fresh analysis."""
    rep = decide_quotient_polynomial(
        WalkAlgebra.of(parse_graph_spec("circulant:17:1,4")))
    assert rep.walk_matrix == CIRC17_W
    assert rep.intersection_b == CIRC17_B
    assert [list(p.coeffs) for p in rep.polynomials] == CIRC17_POLYS
    g = parse_graph_spec("name:y6")
    assert g.adjacency_matrix() == Y6_A1
    rpt = analyze(g)
    assert (rpt.quotient.r, rpt.quotient.d) == (7, 6)
    for p, want in zip(rpt.flags.distance_polys, Y6_DIST_POLYS):
        assert list(p.coeffs) == want
    ok(8, "worked examples reproduced, properties cover the rest")
