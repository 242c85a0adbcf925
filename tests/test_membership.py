"""WalkAlgebra.membership against the n^2-row reference solve it replaced."""
from quograph import (Polynomial, WalkAlgebra, automorphisms, distances,
                      is_orbit_polynomial, orbit_partition)
from quograph.exact import identity
from oracles import (adjacency_power_ladder_reference, distance_class_matrix,
                     mat_mul, solve)


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
