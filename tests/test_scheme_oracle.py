"""build_scheme's pair-type count at vertex 0 against the J_i J_j products
and against the count at every vertex."""
import sys
from pathlib import Path

from quograph import (WalkAlgebra, build_graph, circulant, cycle_graph,
                      decide_quotient_polynomial, parse_graph_spec)
from quograph.errors import AnalysisError, ContractViolationError
from quograph.schemes import AssociationScheme, build_scheme

from oracles import all_ones, build_scheme_every_u, class_matrix, mat_mul


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
                cls_row = pp.class_ids[u * n:(u + 1) * n]
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
    return AssociationScheme.of(
        n, [[x for row in m for x in row] for m in mats], p)


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


def test_build_scheme_matches_every_u_count(corpus_reports):
    """The scheme read off vertex 0 equals the pair types counted at every
    vertex, which also requires each count to be constant on its class, on
    every QP graph of the corpus, of the `large` and `witness` benchmark
    inputs, on cycle:101 and on Q8."""
    bench = Path(__file__).resolve().parent.parent / "bench"
    sys.path.insert(0, str(bench))
    from inputs import DEFAULT_SEED, hypercube, workload_inputs
    reps = [rpt.quotient for rpt in corpus_reports[0] if rpt.scheme is not None]
    specs = (workload_inputs("large", DEFAULT_SEED)
             + workload_inputs("witness", DEFAULT_SEED)
             + ["name:cycle:101", "graph6:" + hypercube(8)])
    reps += [decide_quotient_polynomial(WalkAlgebra.of(parse_graph_spec(spec)))
             for spec in specs]
    checked = []
    for rep in reps:
        if not rep.is_quotient_polynomial:
            continue
        # repr also tells Python ints from numpy scalars, which JSON rejects
        assert repr(build_scheme(rep, rep.partition)) == repr(
            build_scheme_every_u(rep, rep.partition))
        checked.append((rep.partition.n, rep.d))
    assert (256, 8) in checked and (101, 50) in checked  # Q8 and cycle:101
    assert (128, 7) in checked and (41, 20) in checked  # Q7 and cycle:41
