"""Numeric spectral layer and its agreement with the exact path."""
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from quograph import (DEFAULT_TOL, AnalysisOptions, Polynomial, ToleranceError,
                      WalkAlgebra, analyze, build_graph, complete_graph,
                      cycle_graph, decide_quotient_polynomial,
                      parse_graph_spec, path_graph, spectral_decomposition,
                      spectrum_partition)
from quograph.formats import to_graph6
from quograph.partitions import PairPartition
from quograph.spectral import Spectrum

from oracles import (GivenIdempotents, adjacency_power_ladder_reference,
                     b_via_trace, crossed_multiplicities, graph_scalar_product,
                     setpartition, spectral_decomposition_reference,
                     spectrum_partition_reference)
from worked_examples import CIRC17_BT, CIRC17_EIGS, Y6_SPECTRUM


def spectrum(g):
    return spectral_decomposition(WalkAlgebra.of(g))


def test_spectrum_complete_graph():
    sd = spectrum(complete_graph(4))
    assert sd.spectrum.eigenvalues == pytest.approx((3.0, -1.0))
    assert sd.spectrum.multiplicities == (1, 3)


def test_spectrum_circulant(circ17):
    sd = spectrum(circ17)
    assert sd.spectrum.multiplicities == (1, 4, 4, 4, 4)
    for got, want in zip(sd.spectrum.eigenvalues, CIRC17_EIGS):
        assert abs(got - want) < 1e-3


def test_spectrum_y6(y6):
    sd = spectrum(y6)
    got = list(zip(sd.spectrum.eigenvalues, sd.spectrum.multiplicities))
    for (lam, m), (wl, wm) in zip(got, Y6_SPECTRUM):
        assert abs(lam - wl) < 1e-9 and m == wm


def test_expected_distinct_mismatch_raises(circ17):
    # a gap threshold wider than the spectrum merges the five exact
    # eigenvalues into one numeric group
    with pytest.raises(ToleranceError):
        spectral_decomposition(WalkAlgebra.of(circ17), tol=10.0)


def test_idempotent_identities(petersen):
    sd = spectrum(petersen)
    n = petersen.n
    a = np.array(petersen.adjacency_matrix(), dtype=float)
    total = np.zeros((n, n))
    recon = np.zeros((n, n))
    for lam, e in zip(sd.spectrum.eigenvalues, sd.idempotents):
        assert np.allclose(e @ e, e, atol=1e-10)        # idempotent
        assert np.allclose(a @ e, lam * e, atol=1e-10)  # eigenprojection
        total += e
        recon += lam * e
    assert np.allclose(total, np.eye(n), atol=1e-10)    # resolution of I
    assert np.allclose(recon, a, atol=1e-10)            # spectral theorem
    # pairwise orthogonality
    for i in range(len(sd.idempotents)):
        for j in range(i + 1, len(sd.idempotents)):
            assert np.allclose(sd.idempotents[i] @ sd.idempotents[j], 0,
                               atol=1e-10)


def workload_graphs(name):
    bench = Path(__file__).resolve().parent.parent / "bench"
    sys.path.insert(0, str(bench))
    from inputs import DEFAULT_SEED, workload_inputs
    return [parse_graph_spec(s) for s in workload_inputs(name, DEFAULT_SEED)]


def test_spectral_decomposition_matches_reference():
    """On every corpus, large and witness input and on a single vertex: the
    eigenvalues equal the reference's bit for bit, with the same
    multiplicities, and the idempotents, one read-only (d+1, n, n) array,
    equal its tuple of V_j V_j^T to 1e-12. A graph whose degrees are skewed,
    `name:star:9` among them, scatters A from its neighbour runs and builds
    no padded table."""
    graphs = [g for name in ("corpus", "large", "witness")
              for g in workload_graphs(name)]
    assert len(graphs) == 1196 + 4 + 24
    skewed = set()
    for g in graphs + [build_graph(1, [])]:
        alg = WalkAlgebra.of(g)
        sd, ref = spectral_decomposition(alg), spectral_decomposition_reference(alg)
        assert (list(map(float.hex, sd.spectrum.eigenvalues))
                == list(map(float.hex, ref.spectrum.eigenvalues))), to_graph6(g)
        assert sd.spectrum.multiplicities == ref.spectrum.multiplicities
        e = sd.idempotents
        assert e.shape == (alg.d + 1, g.n, g.n) and not e.flags.writeable
        assert np.allclose(e, ref.idempotents, rtol=0, atol=1e-12), to_graph6(g)
        if g.degrees_skewed:
            assert "neighbor_table" not in vars(g)
            skewed.add(to_graph6(g))
    assert to_graph6(parse_graph_spec("name:star:9")) in skewed
    report = analyze(build_graph(1, []), AnalysisOptions())
    assert report.eigenvalues == [0.0] and report.multiplicities == [1]


@pytest.mark.parametrize("debug_checks", [False, True])
def test_analyze_builds_idempotents_only_for_the_witness(petersen, monkeypatch,
                                                         debug_checks):
    """By default `analyze` reads only `eigh`'s values: it never calls
    `spectrum_partition` and never builds the idempotents. Under
    `debug_checks` the witness runs and reads them."""
    import quograph.report as report
    made, checked = [], []

    def decomposition(alg, tol):
        made.append(spectral_decomposition(alg, tol))
        return made[-1]

    def witness(sd, pp, tol):
        checked.append(sd)
        spectrum_partition(sd, pp, tol)

    monkeypatch.setattr(report, "spectral_decomposition", decomposition)
    monkeypatch.setattr(report, "spectrum_partition", witness)
    analyze(petersen, AnalysisOptions(debug_checks=debug_checks))
    assert len(made) == 1 and not made[0].vectors.flags.writeable
    assert checked == (made if debug_checks else [])
    assert ("idempotents" in vars(made[0])) == debug_checks


def test_crossed_multiplicities_diagonal(circ17):
    sd = spectrum(circ17)
    mv = crossed_multiplicities(sd, 0, 0)
    # on a vertex-transitive graph m_uu(lambda_j) = m_j / n
    for val, m in zip(mv.values, sd.spectrum.multiplicities):
        assert abs(val - m / circ17.n) < 1e-9
    # same walk class, same m-vector
    mv1 = crossed_multiplicities(sd, 0, 1)
    mv4 = crossed_multiplicities(sd, 0, 4)
    assert np.allclose(mv1.values, mv4.values, atol=1e-9)


def test_spectrum_partition_matches_walk_partition(circ17, y6, petersen):
    for g in [circ17, y6, petersen, cycle_graph(6)]:
        alg = WalkAlgebra.of(g)
        spectrum_partition(spectral_decomposition(alg), alg.partition)


def test_spectrum_partition_huge_tol_collapses(petersen):
    # with an absurd tolerance the second class's first pair lies within tol
    # of the first class's, so the grouping would merge them
    alg = WalkAlgebra.of(petersen)
    sd = spectral_decomposition(alg)
    assert len(spectrum_partition_reference(petersen, sd, tol=10.0)) == 1
    with pytest.raises(ToleranceError):
        spectrum_partition(sd, alg.partition, tol=10.0)


def test_spectrum_partition_ambiguous_tol_raises():
    # P4 has walk classes whose m-vectors sit between two others in the
    # Chebyshev metric; a tolerance straddling those gaps must refuse to guess
    g = path_graph(4)
    alg = WalkAlgebra.of(g)
    sd = spectral_decomposition(alg)
    mats = np.stack(sd.idempotents, axis=-1).reshape(16, -1)
    reps = np.unique(np.round(mats, 9), axis=0)
    gaps = sorted({float(np.max(np.abs(a - b)))
                   for i, a in enumerate(reps) for b in reps[i + 1:]})
    tol = (gaps[0] + gaps[-1]) / 2  # larger than some gaps, smaller than others
    with pytest.raises(ToleranceError):
        spectrum_partition(sd, alg.partition, tol=tol)


def test_spectrum_partition_nan_idempotent(petersen):
    # a NaN m-vector entry is within no tolerance of anything, as in the
    # greedy grouping, where the pair would start a group of its own
    alg = WalkAlgebra.of(petersen)
    sd = spectral_decomposition(alg)
    e = sd.idempotents.copy()
    e[1, 3, 7] = np.nan
    bad = GivenIdempotents(sd.spectrum, e)
    with pytest.raises(ToleranceError, match=r"\(3, 7\)"):
        spectrum_partition(bad, alg.partition)
    with pytest.raises(ToleranceError):
        spectrum_partition(bad, alg.partition, tol=10.0)
    assert (spectrum_partition_reference(petersen, bad)
            != setpartition(alg.partition))
    # a NaN at the one pair of a class matches nothing else: the greedy
    # grouping still gives the walk partition, and the check passes
    g = path_graph(3)
    alg = WalkAlgebra.of(g)
    sd = spectral_decomposition(alg)
    ids = alg.partition.class_ids
    assert ids.count(ids[1 * g.n + 1]) == 1  # (1, 1) is alone in its class
    e = sd.idempotents.copy()
    e[0, 1, 1] = np.nan
    lone = GivenIdempotents(sd.spectrum, e)
    assert (spectrum_partition_reference(g, lone)
            == setpartition(alg.partition))
    spectrum_partition(lone, alg.partition)


def test_spectrum_partition_pair_before_other_class_may_be_near_it():
    # one-dimensional m-vectors 0, 1 | 2, 2 in row-major order and tol 1:
    # the greedy grouping puts pair (0, 1) with (0, 0) before the class of
    # (1, 0) has a group, so (0, 1) lying within tol of (1, 0) is no clash
    pp = PairPartition.of(2, ((1,), (0,)), (((0, 0), (0, 1)), ((1, 0), (1, 1))))
    sd = GivenIdempotents(Spectrum((0.0,), (2,)),
                          (np.array([[0.0, 1.0], [2.0, 2.0]]),))
    spectrum_partition(sd, pp, tol=1.0)
    assert (spectrum_partition_reference(path_graph(2), sd, tol=1.0)
            == setpartition(pp))


def _passes(check) -> bool:
    try:
        return check()
    except ToleranceError:
        return False


DIFFERENTIAL_TOLS = (10.0, 0.1, 0.03, 0.01, 1e-3, 1e-8, 1e-15, 1e-17, 0.0)


def test_spectrum_partition_matches_greedy_oracle(small_corpus):
    """spectrum_partition(sd, pp, tol) passes exactly when the greedy
    grouping returns pp without raising, on every corpus graph and every
    input of the `large` benchmark, over a sweep of tolerances."""
    large = workload_graphs("large")
    graphs = list(small_corpus) + large
    passed = Counter()
    for g in graphs:
        alg = WalkAlgebra.of(g)
        sd = spectral_decomposition(alg)
        pp = alg.partition
        want_partition = setpartition(pp)
        for tol in DIFFERENTIAL_TOLS:
            want = _passes(lambda: spectrum_partition_reference(g, sd, tol)
                           == want_partition)
            got = _passes(lambda: spectrum_partition(sd, pp, tol) is None)
            assert got == want, (to_graph6(g), tol)
            passed[tol] += want
    # the default tolerance passes throughout; rejections are exercised
    assert len(large) == 4
    assert passed[DEFAULT_TOL] == len(graphs)
    assert sum(passed.values()) < len(graphs) * len(DIFFERENTIAL_TOLS)


def test_scalar_product(circ17):
    sd = spectrum(circ17)
    one = Polynomial.of([1])
    x = Polynomial.of([0, 1])
    assert graph_scalar_product(circ17, sd.spectrum, one, one) == pytest.approx(1.0)
    # <x,x> = (1/n) tr(A^2) = degree for a regular graph
    assert graph_scalar_product(circ17, sd.spectrum, x, x) == pytest.approx(4.0)


def test_quotient_polynomials_are_orthogonal(circ17):
    alg = WalkAlgebra.of(circ17)
    rep = decide_quotient_polynomial(alg)
    sd = spectral_decomposition(alg)
    for i in range(5):
        for j in range(5):
            val = graph_scalar_product(circ17, sd.spectrum,
                                       rep.polynomials[i], rep.polynomials[j])
            if i != j:
                assert abs(val) < 1e-9
            else:
                assert val > 0


def test_b_via_trace_known_entries(circ17):
    rep = decide_quotient_polynomial(WalkAlgebra.of(circ17))
    ladder = adjacency_power_ladder_reference(circ17)
    polys = rep.polynomials
    assert b_via_trace(circ17, ladder, polys, 1, 0) == pytest.approx(4.0)
    assert b_via_trace(circ17, ladder, polys, 4, 4) == pytest.approx(2.0)
    assert b_via_trace(circ17, ladder, polys, 2, 0) == pytest.approx(0.0)


def test_b_via_trace_recovers_bt(circ17):
    rep = decide_quotient_polynomial(WalkAlgebra.of(circ17))
    ladder = adjacency_power_ladder_reference(circ17)
    for i in range(5):
        for j in range(5):
            got = b_via_trace(circ17, ladder, rep.polynomials, i, j)
            assert abs(got - CIRC17_BT[i][j]) < 1e-9
