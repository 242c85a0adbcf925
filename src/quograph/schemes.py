"""Regularity classifiers and the association scheme generated by a
quotient-polynomial graph.

Several classifiers carry a built-in second witness (Delsarte's criterion,
entrywise vs solve-based structure constants); a disagreement is a contract
violation, not a soft warning.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import AnalysisError, ContractViolationError, GraphInputError
from .exact import (Polynomial, RowBasis, all_ones, combine_powers, mat_mul)
from .graphs import distance_class_matrix
from .partitions import PairPartition, WalkAlgebra
from .quotient import QuotientReport


@dataclass
class ClassificationFlags:
    walk_regular: bool
    h_punctual: tuple[bool, ...]            # indexed by distance h = 0..D
    distance_regular: bool
    distance_polynomial: bool
    quotient_polynomial: bool
    orbit_polynomial: bool | None = None    # only computed on request, small n
    distance_polys: tuple[Polynomial, ...] | None = None


def is_walk_regular(pp: PairPartition) -> bool:
    """J_0 = I: the diagonal forms a single class of its own."""
    return pp.diagonal_is_identity


def is_h_punctually_walk_regular(alg: WalkAlgebra, h: int) -> bool:
    """Some single class matrix equals the distance-h matrix A_h: walk
    vectors fix the distance, so exactly one class lies at distance h."""
    pp, diameter = alg.partition, alg.dd.diameter
    if not (0 <= h <= diameter):
        raise GraphInputError(f"distance {h} outside 0..{diameter}")
    return [pp.class_distance(i) for i in range(pp.r + 1)].count(h) == 1


def _distance_matrices(alg: WalkAlgebra) -> list:
    return [distance_class_matrix(alg.g, i, alg.dd)
            for i in range(alg.dd.diameter + 1)]


def is_distance_regular(alg: WalkAlgebra, rep: QuotientReport) -> bool:
    """QP with D = r; independently re-derived via Delsarte's criterion
    (A_i = p_i(A) with deg p_i = i for all i, which forces D = d)."""
    diameter = alg.dd.diameter
    primary = rep.is_quotient_polynomial and diameter == rep.r
    delsarte = False
    if diameter == rep.d:
        polys = alg.membership(_distance_matrices(alg))
        delsarte = polys is not None and all(
            p.degree == i for i, p in enumerate(polys))
    if primary != delsarte:
        raise ContractViolationError(
            f"distance-regularity criteria disagree: D=r gives {primary}, "
            f"Delsarte gives {delsarte}")
    return primary


def is_distance_polynomial(alg: WalkAlgebra) -> list[Polynomial] | None:
    """The D+1 distance polynomials, or None when some A_i is outside A(Gamma)."""
    return alg.membership(_distance_matrices(alg))


def qp_implies_dp(alg: WalkAlgebra, rep: QuotientReport) -> list[Polynomial]:
    """Distance polynomials of a QP graph as sums of quotient polynomials
    over the classes meeting each distance; verified exactly."""
    if not rep.is_quotient_polynomial:
        raise AnalysisError("qp_implies_dp needs a quotient-polynomial graph")
    pp = rep.partition
    out = []
    for i, target in enumerate(_distance_matrices(alg)):
        p = Polynomial.of([0])
        for j in range(pp.r + 1):
            # tr(A_i J_j) != 0 iff class j sits at distance i
            if pp.class_distance(j) == i:
                p = p + rep.polynomials[j]
        if combine_powers(p.coeffs, alg.ladder) != target:
            raise ContractViolationError(
                f"summed quotient polynomials fail p_{i}(A) = A_{i}")
        out.append(p)
    return out


@dataclass(frozen=True)
class AssociationScheme:
    """Symmetric scheme: classes A_0=I..A_d, integer p^k_ij, all verified."""

    classes: tuple              # tuple of 0/1 IntMatrix
    intersection_numbers: tuple  # p[k][i][j]

    @property
    def num_classes(self) -> int:
        return len(self.classes) - 1


def build_scheme(rep: QuotientReport, pp: PairPartition) -> AssociationScheme:
    """The scheme generated by a QP graph: classes are the J_i matrices,
    p^k_ij read off entrywise from the exact products J_i J_j."""
    if not rep.is_quotient_polynomial:
        raise AnalysisError("only quotient-polynomial graphs generate a scheme")
    n = pp.n
    d = pp.r
    mats = [pp.class_matrix(i) for i in range(d + 1)]
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


def scheme_via_solve(scheme: AssociationScheme) -> bool:
    """Debug witness: re-derive p^k_ij by solving in the J-basis."""
    from .exact import solve
    mats = scheme.classes
    n = len(mats[0])
    d = scheme.num_classes
    basis_rows = [[m[u][v] for m in mats] for u in range(n) for v in range(n)]
    for i in range(d + 1):
        for j in range(d + 1):
            prod = mat_mul(mats[i], mats[j])
            rhs = [[prod[u][v]] for u in range(n) for v in range(n)]
            sol = solve(basis_rows, rhs)
            if sol is None:
                return False
            got = [sol[k][0] for k in range(d + 1)]
            want = [scheme.intersection_numbers[k][i][j] for k in range(d + 1)]
            if got != want:
                return False
    return True


def generates_scheme_check(scheme: AssociationScheme, alg: WalkAlgebra) -> bool:
    """True iff vec(A^0..A^d) spans the same rational row space as the
    vectorized scheme classes. The d+1 powers are independent (the ladder
    stops at the first dependent one)."""
    scheme_basis = RowBasis()
    combined = RowBasis()
    for p in alg.ladder:
        combined.add([x for row in p for x in row])
    for m in scheme.classes:
        vec = [x for row in m for x in row]
        scheme_basis.add(vec)
        combined.add(vec)
    # equal spans iff neither side adds anything to the other
    return alg.d + 1 == scheme_basis.rank == combined.rank
