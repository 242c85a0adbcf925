"""WalkAlgebra.membership against the n^2-row reference solve it replaced,
and class_polynomials with and without its mod-p proof of non-membership."""
from unittest import mock

import numpy as np

from quograph import (AnalysisOptions, Polynomial, WalkAlgebra, analyze,
                      automorphisms, distances, is_orbit_polynomial,
                      orbit_partition, parse_graph_spec)
from quograph import partitions
from quograph.exact import identity
from oracles import (adjacency_power_ladder_reference, distance_class_matrix,
                     mat_mul, solve)
from test_spectral import workload_graphs


def algebra_membership(ladder, target) -> Polynomial | None:
    """The unique p with p(A) = target and deg <= d, or None if target is
    outside the adjacency algebra.

    Rows of the vectorized system are deduplicated first: every power is
    constant on walk classes, so distinct rows number at most r+2.
    """
    n = len(target)
    seen: dict[tuple, object] = {}
    for u in range(n):
        for v in range(n):
            key = tuple(p[u][v] for p in ladder)
            t = target[u][v]
            prev = seen.get(key)
            if prev is None:
                seen[key] = t
            elif prev != t:
                return None  # target not constant where every power is
    rows = [list(k) for k in seen]
    rhs = [[seen[tuple(row)]] for row in rows]
    sol = solve(rows, rhs)
    if sol is None:
        return None
    return Polynomial.of([c[0] for c in sol])


def test_distance_polynomials_match_oracle(small_corpus, corpus_reports):
    reports, _ = corpus_reports
    for g, rpt in zip(small_corpus, reports):
        # I, A, ..., A^d by plain products, independent of the ladder's
        # rank test
        a = g.adjacency_matrix()
        ladder = [identity(g.n)]
        for _ in range(rpt.quotient.d):
            ladder.append(mat_mul(ladder[-1], a))
        want = [algebra_membership(ladder, distance_class_matrix(g, i))
                for i in range(distances(g).diameter + 1)]
        want = None if None in want else tuple(want)
        assert rpt.flags.distance_polys == want


def test_orbit_matrices_match_oracle(small_corpus):
    """Each orbit matrix against the reference solve, and the orbit count of
    is_orbit_polynomial against membership of all the orbit matrices."""
    checked = orbit_polynomial = 0
    for g in small_corpus:
        if g.n > 7:  # the atlas part of the corpus
            continue
        alg = WalkAlgebra.of(g)
        ladder = adjacency_power_ladder_reference(g)
        op = orbit_partition(automorphisms(g), g.n)
        members = True
        for i in range(len(op.orbits)):
            target = op.orbit_matrix(i)
            got = alg.membership([target])
            want = algebra_membership(ladder, target)
            assert (None if got is None else got[0]) == want
            members = members and want is not None
            checked += 1
        assert is_orbit_polynomial(alg, op) is members
        orbit_polynomial += members
    assert checked > 0
    assert orbit_polynomial == 15


RANKS_MOD_P = partitions._ranks_mod_p


def no_proof(batch):
    """`_ranks_mod_p` patched to rank 0: the mod-p proof never fires."""
    return np.zeros(len(batch), dtype=np.int64)


def recording(ranks):
    """`_ranks_mod_p` that records the rank it returns."""
    def rank(batch):
        ranks.extend(RANKS_MOD_P(batch).tolist())
        return np.array(ranks[-len(batch):])
    return rank


def test_mod_p_proof_answers_as_the_solve(small_corpus, monkeypatch):
    """On the distance and identity columns of every regular corpus, large
    and witness input, and on every column set that `analyze` solves on the
    witness inputs with orbits and debug checks on (the orbit matrices that
    `membership` reads among them), class_polynomials answers as it does
    with the proof patched off, each on a fresh algebra. On
    circulant:72:1,4's distance columns the proof fires, and B^-1 is never
    built."""
    witness = workload_graphs("witness")
    solved, solve = [], WalkAlgebra.class_polynomials

    def solving(alg, columns):
        solved.append((alg.g, [list(col) for col in columns]))
        return solve(alg, columns)

    monkeypatch.setattr(WalkAlgebra, "class_polynomials", solving)
    for g in witness:
        analyze(g, AnalysisOptions(orbits=True, debug_checks=True))
    monkeypatch.undo()
    cases = list(solved)
    graphs = small_corpus + workload_graphs("large") + witness
    for g in filter(lambda g: g.is_regular(), graphs):
        alg = WalkAlgebra.of(g)
        dist = alg.partition.class_distances
        cases.append((g, [[int(x == i) for x in dist]
                          for i in range(alg.diameter + 1)]))
        cases.append((g, identity(alg.partition.r + 1)))
    assert len(solved) > len(witness) and len(cases) > 100
    fired = 0
    for g, columns in cases:
        alg, ranks = WalkAlgebra.of(g), []
        with mock.patch.object(partitions, "_ranks_mod_p", recording(ranks)):
            got = alg.class_polynomials(columns)
        fired += any(rank > alg.d + 1 for rank in ranks)
        with mock.patch.object(partitions, "_ranks_mod_p", no_proof):
            assert WalkAlgebra.of(g).class_polynomials(columns) == got, g
    assert fired > 0
    alg, ranks = WalkAlgebra.of(parse_graph_spec("circulant:72:1,4")), []
    with mock.patch.object(partitions, "_ranks_mod_p", recording(ranks)):
        assert alg.distance_polynomials is None
    assert len(ranks) == 1 and ranks[0] > alg.d + 1
    assert "_block" not in vars(alg)
