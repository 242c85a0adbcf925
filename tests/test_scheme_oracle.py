"""build_scheme's pair-type count against the J_i J_j products it replaced."""
from quograph import (WalkAlgebra, build_graph, circulant, cycle_graph,
                      decide_quotient_polynomial, mat_mul)
from quograph.errors import AnalysisError, ContractViolationError
from quograph.schemes import AssociationScheme, build_scheme

from oracles import all_ones, class_matrix


def build_scheme_reference(rep, pp) -> AssociationScheme:
    """The scheme generated by a QP graph: classes are the J_i matrices,
    p^k_ij read off entrywise from the exact products J_i J_j."""
    if not rep.is_quotient_polynomial:
        raise AnalysisError("only quotient-polynomial graphs generate a scheme")
    n = pp.n
    d = pp.r
    mats = [class_matrix(pp, i) for i in range(d + 1)]
    if mats[0] != [[1 if i == j else 0 for j in range(n)] for i in range(n)]:
        raise ContractViolationError("J_0 != I on a QP graph")
    total = [[sum(m[u][v] for m in mats) for v in range(n)] for u in range(n)]
    if total != all_ones(n):
        raise ContractViolationError("class matrices do not sum to J")
    for m in mats:
        if any(m[u][v] != m[v][u] for u in range(n) for v in range(u + 1, n)):
            raise ContractViolationError("class matrix not symmetric")
    p = [[[0] * (d + 1) for _ in range(d + 1)] for _ in range(d + 1)]
    for i in range(d + 1):
        for j in range(i, d + 1):
            prod = mat_mul(mats[i], mats[j])
            vals = [None] * (d + 1)
            for u in range(n):
                row = prod[u]
                cls_row = pp.class_index[u]
                for v in range(n):
                    k = cls_row[v]
                    if vals[k] is None:
                        vals[k] = row[v]
                    elif vals[k] != row[v]:
                        raise ContractViolationError(
                            f"J_{i} J_{j} is not constant on class {k}")
            for k in range(d + 1):
                p[k][i][j] = int(vals[k])
                p[k][j][i] = int(vals[k])  # J_i J_j = J_j J_i in A(Gamma)
    return AssociationScheme(
        classes=tuple(mats),
        intersection_numbers=tuple(
            tuple(tuple(row) for row in pk) for pk in p))


def test_corpus_schemes_match_oracle(corpus_reports):
    reports, _ = corpus_reports
    checked = 0
    for rpt in reports:
        if rpt.scheme is None:
            continue
        # repr also tells Python ints from numpy scalars, which JSON rejects
        assert repr(rpt.scheme) == repr(
            build_scheme_reference(rpt.quotient, rpt.quotient.partition))
        checked += 1
    assert checked > 0


def test_larger_schemes_match_oracle():
    q5 = build_graph(32, [(u, u ^ (1 << b)) for u in range(32)
                          for b in range(5) if u < u ^ (1 << b)])
    for g in [q5, cycle_graph(21), circulant(17, {1, 4})]:
        rep = decide_quotient_polynomial(WalkAlgebra.of(g))
        assert repr(build_scheme(rep, rep.partition)) == repr(
            build_scheme_reference(rep, rep.partition))
