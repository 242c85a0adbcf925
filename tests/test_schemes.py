"""Classifiers and the generated association scheme."""
import dataclasses
import sys
from fractions import Fraction

import pytest

from quograph import (PairPartition, Polynomial, WalkAlgebra, analyze,
                      build_graph, build_scheme, complete_graph, cycle_graph,
                      decide_quotient_polynomial, global_partition,
                      is_distance_polynomial, is_distance_regular,
                      is_h_punctually_walk_regular, is_walk_regular,
                      parse_graph_spec, path_graph, petersen_graph, prism_y6,
                      qp_implies_dp, star_graph)
from quograph.errors import (AnalysisError, ContractViolationError,
                             GraphInputError)
from quograph.schemes import (AssociationScheme, generates_scheme_check,
                              scheme_ring_check, scheme_via_solve)

from oracles import (adjacency_power_ladder_reference, class_matrix,
                     distance_class_matrix, generates_scheme_check_reference,
                     scheme_classes)
from test_spectral import workload_graphs
from worked_examples import Y6_DIST_POLYS


def brute_intersection_numbers(g):
    """Independent p^k_ij oracle over the distance classes of g.

    Counts common neighbors-at-distance directly and insists the count only
    depends on the distance between the endpoints.
    """
    import networkx as nx
    G = nx.Graph(g.edges())
    G.add_nodes_from(range(g.n))
    dist = dict(nx.all_pairs_shortest_path_length(G))
    D = max(dist[u][v] for u in dist for v in dist[u])
    p = [[[None] * (D + 1) for _ in range(D + 1)] for _ in range(D + 1)]
    for u in range(g.n):
        for v in range(g.n):
            k = dist[u][v]
            for i in range(D + 1):
                for j in range(D + 1):
                    c = sum(1 for w in range(g.n)
                            if dist[u][w] == i and dist[w][v] == j)
                    if p[k][i][j] is None:
                        p[k][i][j] = c
                    else:
                        assert p[k][i][j] == c, "graph is not distance-regular"
    return p


def test_walk_regular_flags():
    assert is_walk_regular(global_partition(cycle_graph(5)))
    assert is_walk_regular(global_partition(prism_y6()))
    assert not is_walk_regular(global_partition(path_graph(3)))
    # J_0 = I: the diagonal pairs are class 0, and class 0 holds no other
    assert is_walk_regular(_pair_partition([[0, 1], [1, 0]]))
    assert not is_walk_regular(_pair_partition([[0, 0], [0, 0]]))
    assert not is_walk_regular(_pair_partition([[1, 0], [0, 1]]))


def test_h_punctual_circulant(circ17):
    alg = WalkAlgebra.of(circ17)
    flags = [is_h_punctually_walk_regular(alg, h) for h in range(4)]
    assert flags == [True, True, False, True]  # distance 2 splits in two classes


def test_distance_regular():
    for g in [cycle_graph(5), petersen_graph(), complete_graph(4)]:
        alg = WalkAlgebra.of(g)
        assert is_distance_regular(alg, decide_quotient_polynomial(alg))
    from quograph import circulant
    alg = WalkAlgebra.of(circulant(17, {1, 4}))
    # QP with D = 3 < r = 4
    assert not is_distance_regular(alg, decide_quotient_polynomial(alg))
    # not regular, with D = d: the Delsarte half reads the regularity gate
    for g in [path_graph(4), path_graph(5)]:
        alg = WalkAlgebra.of(g)
        assert alg.diameter == alg.d
        assert not is_distance_regular(alg, decide_quotient_polynomial(alg))


def test_distance_polynomial_y6(y6):
    polys = is_distance_polynomial(WalkAlgebra.of(y6))
    assert polys is not None
    for p, want in zip(polys, Y6_DIST_POLYS):
        assert list(p.coeffs) == want


def test_distance_polynomial_star_fails():
    assert is_distance_polynomial(WalkAlgebra.of(star_graph(5))) is None


def test_qp_implies_dp_circulant(circ17):
    alg = WalkAlgebra.of(circ17)
    rep = decide_quotient_polynomial(alg)
    dps = qp_implies_dp(alg, rep)
    assert len(dps) == 4                      # D = 3
    assert dps[0] == rep.polynomials[0]
    assert dps[1] == rep.polynomials[1]
    assert dps[2] == rep.polynomials[2] + rep.polynomials[3]
    assert dps[3] == rep.polynomials[4]


def test_qp_implies_dp_rejects_perturbed_polynomial(circ17):
    """Changing any one quotient polynomial breaks the distance polynomial
    it is summed into: a nonzero q of degree <= d has q(A) != 0."""
    alg = WalkAlgebra.of(circ17)
    rep = decide_quotient_polynomial(alg)
    pp = rep.partition
    for j in range(rep.r + 1):
        polys = list(rep.polynomials)
        polys[j] = polys[j] + Polynomial.of([0, Fraction(1, 7)])
        i = pp.class_distances[j]
        with pytest.raises(ContractViolationError,
                           match=rf"p_{i}\(A\) = A_{i}"):
            qp_implies_dp(alg, dataclasses.replace(rep,
                                                   polynomials=tuple(polys)))


def test_qp_implies_dp_requires_qp(y6):
    with pytest.raises(AnalysisError):
        alg = WalkAlgebra.of(y6)
        qp_implies_dp(alg, decide_quotient_polynomial(alg))


def test_build_scheme_complete_graph():
    n = 5
    alg = WalkAlgebra.of(complete_graph(n))
    rep = decide_quotient_polynomial(alg)
    s = build_scheme(rep, rep.partition)
    assert s.num_classes == 1
    assert s.intersection_numbers[1][1][1] == n - 2
    assert s.intersection_numbers[0][1][1] == n - 1
    assert generates_scheme_check(s, alg)
    assert scheme_via_solve(s)


def test_build_scheme_petersen_matches_oracle(petersen):
    alg = WalkAlgebra.of(petersen)
    rep = decide_quotient_polynomial(alg)
    s = build_scheme(rep, rep.partition)
    assert s.num_classes == 2
    want = brute_intersection_numbers(petersen)
    for k in range(3):
        for i in range(3):
            for j in range(3):
                assert s.intersection_numbers[k][i][j] == want[k][i][j]
    assert s.intersection_numbers[1][1][1] == 0  # triangle-free
    assert generates_scheme_check(s, alg)
    assert scheme_via_solve(s)


def test_scheme_classes_match_distance_classes_on_drg(petersen):
    rep = decide_quotient_polynomial(WalkAlgebra.of(petersen))
    s = build_scheme(rep, rep.partition)
    for i in range(3):
        assert scheme_classes(s)[i] == distance_class_matrix(petersen, i)


def test_scheme_not_generated_by_distance_power():
    """The distance-2 graph of C6 is 2K3; I, A(2K3) and A(K33) form a valid
    2-class scheme. K33 generates it, but K6 generates only the
    2-dimensional algebra span(I, J). (2K3 is disconnected, so it has no
    walk algebra of its own.)"""
    g = build_graph(6, [(i, (i + 2) % 6) for i in range(6)])
    n = 6
    a = g.adjacency_matrix()
    i_mat = [[1 if u == v else 0 for v in range(n)] for u in range(n)]
    rest = [[1 - i_mat[u][v] - a[u][v] for v in range(n)] for u in range(n)]
    mats = (i_mat, a, rest)
    # p^k_ij by brute force over the three classes
    idx = [[next(k for k, m in enumerate(mats) if m[u][v]) for v in range(n)]
           for u in range(n)]
    p = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for k in range(3):
        u, v = next((u, v) for u in range(n) for v in range(n) if idx[u][v] == k)
        for i in range(3):
            for j in range(3):
                p[k][i][j] = sum(1 for w in range(n)
                                 if idx[u][w] == i and idx[w][v] == j)
    s = AssociationScheme.of(n, [_flat(m) for m in mats], p)
    assert not generates_scheme_check(s, WalkAlgebra.of(complete_graph(n)))
    k33 = build_graph(n, [(u, v) for u in range(n) for v in range(n) if rest[u][v]])
    assert generates_scheme_check(s, WalkAlgebra.of(k33))
    # the same span test passes for a graph that does generate its scheme
    alg = WalkAlgebra.of(petersen_graph())
    rep = decide_quotient_polynomial(alg)
    assert generates_scheme_check(build_scheme(rep, rep.partition), alg)


def _flat(m) -> list:
    return [x for row in m for x in row]


def _zeros(s: int) -> list:
    """An s x s x s table of intersection numbers, all 0."""
    return [[[0] * s for _ in range(s)] for _ in range(s)]


def test_generates_scheme_check_edge_cases(petersen):
    """The partition test agrees with the n^2-row span test on a scheme
    with two classes merged and an all-zero class, on reordered classes,
    and on the walk classes of a graph with r > d; a scheme on another
    number of points reads False. Class matrices that hold a 2 or a -1,
    that span A(Gamma) with 2 J_1 in place of J_1, or that have the wrong
    size are no scheme: `AssociationScheme.of` rejects them, whatever the
    span test says of them."""
    alg = WalkAlgebra.of(petersen)
    rep = decide_quotient_polynomial(alg)
    i_mat, a, rest = scheme_classes(build_scheme(rep, rep.partition))
    n = len(a)
    ladder = adjacency_power_ladder_reference(petersen)
    v = a[0].index(1)
    two, negative = [row[:] for row in a], [row[:] for row in rest]
    two[0][v] = 2
    negative[0][v] = -1
    cases = [
        ((i_mat, [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, rest)],
          [[0] * len(row) for row in a]), False),
        ((rest, i_mat, a), True),
    ]
    for classes, want in cases:
        s = AssociationScheme.of(n, list(map(_flat, classes)), _zeros(3))
        assert generates_scheme_check(s, alg) is want
        assert generates_scheme_check_reference(classes, ladder) is want
    doubled = (i_mat, [[2 * x for x in row] for row in a], rest)
    for classes, want in [((i_mat, two, rest), False),
                          ((i_mat, a, negative), False), (doubled, True)]:
        assert generates_scheme_check_reference(classes, ladder) is want
        with pytest.raises(GraphInputError, match="not 0 or 1"):
            AssociationScheme.of(n, list(map(_flat, classes)), _zeros(3))
    with pytest.raises(GraphInputError, match="scheme class 2 has 90 entries"):
        AssociationScheme.of(n, list(map(_flat, (i_mat, a, rest[:-1]))),
                             _zeros(3))
    # a scheme on other points: K_5's, with r = d = 1, against Petersen's
    k5 = decide_quotient_polynomial(WalkAlgebra.of(complete_graph(5)))
    assert generates_scheme_check(build_scheme(k5, k5.partition), alg) is False
    # K_{1,3}'s walk classes, its own partition, but r = 3 > d = 2
    star = star_graph(4)
    alg = WalkAlgebra.of(star)
    pp = alg.partition
    walk = tuple(class_matrix(pp, i) for i in range(pp.r + 1))
    assert (pp.r, alg.d) == (3, 2)
    assert generates_scheme_check(
        AssociationScheme.of(pp.n, list(map(_flat, walk)), _zeros(4)),
        alg) is False
    assert generates_scheme_check_reference(
        walk, adjacency_power_ladder_reference(star)) is False


def _pair_partition(index):
    """A hand-built PairPartition with the given class of each pair."""
    n, s = len(index), max(map(max, index)) + 1
    classes = tuple(tuple((u, v) for u in range(n) for v in range(n)
                          if index[u][v] == k) for k in range(s))
    return PairPartition.of(n, [(int(k == 0), k) for k in range(s)], classes)


@pytest.mark.parametrize("index,message", [
    # K_{1,3} by (diagonal, edge, non-edge): the centre 0 has no non-edge
    ([[0, 1, 1, 1], [1, 0, 2, 2], [1, 2, 0, 2], [1, 2, 2, 0]],
     "misses vertex 0"),
    ([[0, 1, 2], [2, 0, 1], [1, 2, 0]], "not symmetric"),  # directed C3
    ([[0, 0], [0, 1]], "J_0 != I"),
])
def test_build_scheme_rejects_partition(index, message):
    rep = decide_quotient_polynomial(WalkAlgebra.of(cycle_graph(5)))
    with pytest.raises(ContractViolationError, match=message):
        build_scheme(rep, _pair_partition(index))


def test_build_scheme_p4_partition_fails_solve():
    """P4 by (diagonal, edge, non-edge) is no scheme: J_1 J_1 is 1 at (0,2)
    and 0 at (0,3), both non-edges. `build_scheme` reads p^k_ij at vertex 0
    only, so it returns; the products at every pair reject the result."""
    rep = decide_quotient_polynomial(WalkAlgebra.of(cycle_graph(5)))
    s = build_scheme(rep, _pair_partition(
        [[0, 1, 2, 2], [1, 0, 1, 2], [2, 1, 0, 1], [2, 2, 1, 0]]))
    assert s.intersection_numbers[2][1][1] == 1  # read at (0,2)
    assert not scheme_via_solve(s)


def test_scheme_via_solve_on_workload_schemes():
    """The float64 products accept the scheme of every QP `witness` and
    `large` input, and reject it once one p^k_ij is off by one."""
    graphs = workload_graphs("witness") + workload_graphs("large")
    checked = 0
    for g in graphs:
        rep = decide_quotient_polynomial(WalkAlgebra.of(g))
        if not rep.is_quotient_polynomial:
            continue
        s = build_scheme(rep, rep.partition)
        assert scheme_via_solve(s), g
        p = [[list(row) for row in pk] for pk in s.intersection_numbers]
        k = s.num_classes
        i = j = min(k, 1)
        p[k][i][j] += 1
        assert not scheme_via_solve(dataclasses.replace(
            s, intersection_numbers=tuple(tuple(map(tuple, pk)) for pk in p)))
        checked += 1
    assert checked >= 20


def test_scheme_via_solve_rejects_wrong_scheme(petersen):
    rep = decide_quotient_polynomial(WalkAlgebra.of(petersen))
    s = build_scheme(rep, rep.partition)
    p = [[list(row) for row in pk] for pk in s.intersection_numbers]
    p[1][1][1] += 1
    off_by_one = dataclasses.replace(
        s, intersection_numbers=tuple(tuple(map(tuple, pk)) for pk in p))
    assert not scheme_via_solve(off_by_one)
    overlap = scheme_classes(s)
    v = overlap[1][0].index(1)                  # (0, v) lies in class 1
    overlap[2][0][v] = overlap[2][v][0] = 1
    with pytest.raises(GraphInputError,
                       match=rf"pair \(0, {v}\) is in scheme classes 1 and 2"):
        AssociationScheme.of(s.n, list(map(_flat, overlap)),
                             s.intersection_numbers)


@pytest.fixture
def solve_callers(monkeypatch):
    """The name of the function behind each WalkAlgebra.class_polynomials
    call, in call order."""
    callers = []
    class_polynomials = WalkAlgebra.class_polynomials

    def counted(alg, columns):
        callers.append(sys._getframe(1).f_code.co_name)
        return class_polynomials(alg, columns)

    monkeypatch.setattr(WalkAlgebra, "class_polynomials", counted)
    return callers


def test_distance_polynomials_solved_once(petersen, solve_callers):
    """With D = d the distance and Delsarte tests share one distance solve,
    and scheme generation solves nothing. Petersen's distance columns equal
    its class columns, so each class_polynomials call is told apart by the
    function that makes it."""
    rpt = analyze(petersen)
    assert rpt.flags.distance_regular and rpt.flags.distance_polynomial
    assert sorted(solve_callers) == [
        "decide_quotient_polynomial", "distance_polynomials"]


def test_distance_polynomials_gated_by_regularity(small_corpus, solve_callers):
    """A graph that is not regular has no distance polynomials (J = sum A_i
    would commute with A), so analyze solves no class column for it: P4, and
    a non-regular random corpus graph, are not QP either. circulant:18:1,4
    is regular, with D = 3 < d = 8 and not QP: its distance columns are
    solved once, and do not lie in A(Gamma)."""
    irregular = next(g for g in small_corpus if g.n > 7 and not g.is_regular())
    for g in [parse_graph_spec("name:path:4"), irregular]:
        rpt = analyze(g)
        assert not rpt.flags.distance_polynomial
        assert rpt.flags.distance_polys is None
        assert solve_callers == []
    g = parse_graph_spec("circulant:18:1,4")
    rpt = analyze(g)
    assert g.is_regular() and (rpt.diameter, rpt.quotient.d) == (3, 8)
    assert not rpt.flags.quotient_polynomial
    assert rpt.flags.distance_polys is None
    assert solve_callers == ["distance_polynomials"]


def test_scheme_ring_check(petersen, circ17):
    """p_i p_j = sum_k p^k_ij p_k modulo the minimal polynomial holds on QP
    graphs and fails once one p^k_ij is off by one."""
    for g in [petersen, circ17, cycle_graph(6), complete_graph(5)]:
        alg = WalkAlgebra.of(g)
        rep = decide_quotient_polynomial(alg)
        scheme_ring_check(alg, rep, build_scheme(rep, rep.partition))
    alg = WalkAlgebra.of(circ17)
    rep = decide_quotient_polynomial(alg)
    s = build_scheme(rep, rep.partition)
    p = [[list(row) for row in pk] for pk in s.intersection_numbers]
    p[2][1][3] += 1
    off_by_one = dataclasses.replace(
        s, intersection_numbers=tuple(tuple(map(tuple, pk)) for pk in p))
    with pytest.raises(ContractViolationError, match="p_1 p_3"):
        scheme_ring_check(alg, rep, off_by_one)
