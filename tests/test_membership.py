"""WalkAlgebra.membership against the n^2-row reference solve it replaced;
class_polynomials with and without its mod-p proof of non-membership,
against the bordered-inverse solve it replaced, and on small primes."""
from math import prod
from operator import mul
from unittest import mock

import pytest

from quograph import (AnalysisOptions, Polynomial, WalkAlgebra, analyze,
                      automorphisms, build_graph, distances,
                      is_orbit_polynomial, orbit_partition, parse_graph_spec,
                      prism_y6)
from quograph import partitions
from quograph.exact import identity
from oracles import (adjacency_power_ladder_reference,
                     bordered_class_polynomials, distance_class_matrix,
                     mat_mul, rank_mod_p, solve)
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


@pytest.fixture(scope="module")
def solved_columns(small_corpus):
    """(g, columns) for every column set `analyze` solves on the corpus,
    large and witness inputs, with orbits and debug checks on."""
    solved, solve = [], WalkAlgebra.class_polynomials

    def solving(alg, columns):
        solved.append((alg.g, [list(col) for col in columns]))
        return solve(alg, columns)

    graphs = small_corpus + workload_graphs("large") + workload_graphs("witness")
    with mock.patch.object(WalkAlgebra, "class_polynomials", solving):
        for g in graphs:
            analyze(g, AnalysisOptions(orbits=True, debug_checks=True))
    return solved


def identity_and_distance_columns(g):
    alg = WalkAlgebra.of(g)
    dist = alg.partition.class_distances
    return [(g, identity(alg.partition.r + 1)),
            (g, [[int(x == i) for x in dist] for i in range(alg.diameter + 1)])]


OUTSIDE_PROOF = partitions._outside_mod_p


def no_proof(*args):
    """`_outside_mod_p` patched off: it never proves a column outside."""
    return False


def recording(proofs):
    """`_outside_mod_p` that records what it returns."""
    def proof(*args):
        proofs.append(OUTSIDE_PROOF(*args))
        return proofs[-1]
    return proof


def test_mod_p_proof_answers_as_the_solve(small_corpus, solved_columns):
    """On the distance and identity columns of every regular corpus, large
    and witness input, and on every column set that `analyze` solves on the
    witness inputs with orbits and debug checks on (the orbit matrices that
    `membership` reads among them), class_polynomials answers as it does
    with the proof patched off, each on a fresh algebra. On
    circulant:72:1,4's distance columns the proof fires at the first prime,
    and no lift reads a second."""
    witness = workload_graphs("witness")
    solved = [(g, cols) for g, cols in solved_columns if g in witness]
    cases = list(solved)
    graphs = small_corpus + workload_graphs("large") + witness
    for g in filter(lambda g: g.is_regular(), graphs):
        cases += identity_and_distance_columns(g)
    assert len(solved) > len(witness) and len(cases) > 100
    fired = 0
    for g, columns in cases:
        alg, proofs = WalkAlgebra.of(g), []
        with mock.patch.object(partitions, "_outside_mod_p", recording(proofs)):
            got = alg.class_polynomials(columns)
        fired += any(proofs)
        with mock.patch.object(partitions, "_outside_mod_p", no_proof):
            assert WalkAlgebra.of(g).class_polynomials(columns) == got, g
    assert fired > 0
    alg, proofs = WalkAlgebra.of(parse_graph_spec("circulant:72:1,4")), []
    with mock.patch.object(partitions, "_outside_mod_p", recording(proofs)):
        assert alg.distance_polynomials is None
    assert proofs == [True] and list(alg._blocks) == [alg._basis[0]]


def test_solve_matches_bordered_inverse(solved_columns):
    """class_polynomials answers as the bordered-inverse solve it replaced
    (`oracles.bordered_class_polynomials`), None or equal polynomials, each
    on a fresh algebra: on every column set `analyze` solves on the corpus,
    large and witness inputs with orbits and debug checks on; on the
    identity and distance columns of Q9, cycle:101, circulant:120:1,4 and
    circulant:18:1,4; and on columns outside A(Gamma) made by hand: an
    identity column off by one on one class, and the all-ones column plus a
    multiple of 2^64 on one class."""
    cases = list(solved_columns)
    q9 = build_graph(512, [(u, u | 1 << b) for u in range(512)
                           for b in range(9) if not u >> b & 1])
    for g in [q9] + list(map(parse_graph_spec, (
            "name:cycle:101", "circulant:120:1,4", "circulant:18:1,4"))):
        cases += identity_and_distance_columns(g)
    for spec in ("name:petersen", "name:y6", "circulant:17:1,4",
                 "name:cycle:41", "name:star:9"):
        g = parse_graph_spec(spec)
        r = WalkAlgebra.of(g).partition.r
        for k in range(r + 1):
            off = [int(j == k) for j in range(r + 1)]
            off[-1 - k] += 1
            big = [1] * (r + 1)
            big[k] += 3 << 64
            cases += [(g, [off]), (g, [big]), (g, [off, [1] * (r + 1)])]
    assert len(cases) > 200
    answers = []
    for g, columns in cases:
        got = WalkAlgebra.of(g).class_polynomials(columns)
        assert got == bordered_class_polynomials(WalkAlgebra.of(g), columns), g
        answers.append(got is None)
    assert 0 < sum(answers) < len(answers)


SMALL_PRIMES = [p for p in range(2, 3000)
                if all(p % q for q in range(2, int(p ** 0.5) + 1))]


def test_small_primes_skip_lift_and_bound():
    """With the word primes patched to 2, 3, 5, ...:
    - circulant:13:1,5's block B is singular mod 5, and 5 is skipped;
    - circulant:17:1,4's M has rank below d+1 mod 2, so 3 picks B;
    - both identity solves lift their candidate through several primes and
      answer as the bordered inverse;
    - on y6 (r = 7 > d = 6), a column inside A(Gamma) plus K on the class
      outside B, K the product of the primes up to well past the lift's,
      lies outside, with every rank of [M | T] mod p at d+1: the lift reads
      primes until its modulus first exceeds twice the Hadamard bound of
      [B | t_B], and answers None."""
    with mock.patch.object(partitions, "_word_prime", SMALL_PRIMES.__getitem__):
        for spec, first, skipped in [("circulant:13:1,5", 0, [5]),
                                     ("circulant:17:1,4", 1, [])]:
            alg = WalkAlgebra.of(parse_graph_spec(spec))
            columns = identity(alg.partition.r + 1)
            got = alg.class_polynomials(columns)
            assert got is not None
            assert got == bordered_class_polynomials(alg, columns)
            block = [alg.m[k] for k in alg._basis[1]]
            lift = [p for p, _, inv in alg._blocks.values() if inv]
            assert alg._basis[0] == first and len(lift) >= 3
            assert all(rank_mod_p(alg.m, p) < alg.d + 1
                       for p in SMALL_PRIMES[:first])
            assert [p for p, _, inv in alg._blocks.values()
                    if inv is None] == skipped
            assert all(rank_mod_p(block, p) < alg.d + 1 for p in skipped)
            assert all(rank_mod_p(block, p) == alg.d + 1 for p in lift)

        alg = WalkAlgebra.of(prism_y6())
        _, rows, others = alg._basis
        c = [3, -1, 4, 1, -5, 9, 2]
        inside = [sum(map(mul, row, c)) for row in alg.m]
        assert alg.class_polynomials([inside]) == [Polynomial.of(c)]
        square = prod(sum(map(mul, alg.m[k], alg.m[k])) + inside[k] ** 2
                      for k in rows)
        n = next(n for n in range(len(SMALL_PRIMES))
                 if prod(SMALL_PRIMES[:n]) ** 2 > 16 * square ** 2)
        outside = list(inside)
        outside[others[0]] += prod(SMALL_PRIMES[:n])
        alg, proofs = WalkAlgebra.of(prism_y6()), []
        with mock.patch.object(partitions, "_outside_mod_p", recording(proofs)):
            assert alg.class_polynomials([outside]) is None
        assert bordered_class_polynomials(alg, [outside]) is None
        lift = [p for p, _, inv in alg._blocks.values() if inv]
        assert not any(proofs) and len(proofs) == len(lift) > 2
        assert prod(lift) ** 2 > 4 * square >= prod(lift[:-1]) ** 2
        assert set(lift) <= set(SMALL_PRIMES[:n])
