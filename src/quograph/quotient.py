"""Quotient-polynomial decision, quotient polynomials, and the W/W+ machinery.

A connected graph with d+1 distinct eigenvalues and r+1 walk classes is
quotient-polynomial exactly when r = d; the class matrices then lie in the
adjacency algebra and the recovered polynomials satisfy p_i(A) = J_i exactly.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import AnalysisError, ContractViolationError
from .exact import (Polynomial, identity, is_nonneg_int_matrix, mat_mul,
                    mat_vec, rank, solve, to_int_matrix, transpose)
from .graphs import Graph
from .partitions import (LocalPartition, PairPartition, WalkAlgebra,
                         check_regular, group_pairs, local_partition)


@dataclass(frozen=True)
class WalkCountMatrices:
    """W and W+ around a vertex: (W)_{li} = a_i^(l), (W+)_{li} = a_i^(l+1)."""

    center: int
    w: list
    w_plus: list


def walk_count_matrices(g: Graph, u: int, lp: LocalPartition) -> WalkCountMatrices:
    """Exact walk-count matrices of a walk-regular local partition."""
    a = g.adjacency_matrix()
    r = lp.r
    vec = [1 if v == u else 0 for v in range(g.n)]
    rows = []
    for _ in range(r + 2):
        row = []
        for cell in lp.cells:
            vals = {vec[v] for v in cell}
            if len(vals) != 1:
                raise ContractViolationError(
                    f"cell {cell} around {u} is not walk-homogeneous")
            row.append(vals.pop())
        rows.append(row)
        vec = mat_vec(a, vec)
    w = rows[: r + 1]
    w_plus = rows[1: r + 2]
    return WalkCountMatrices(center=u, w=w, w_plus=w_plus)


def intersection_matrix(wm: WalkCountMatrices) -> list:
    """B from W B^T = W+; entries must come out as non-negative integers."""
    m = len(wm.w)
    if rank(wm.w) < m:
        raise AnalysisError(
            f"W is singular: partition around {wm.center} is not quotient-polynomial")
    bt = solve(wm.w, wm.w_plus)
    if bt is None or not is_nonneg_int_matrix(bt):
        raise ContractViolationError(
            "W^-1 W+ is not a non-negative integer matrix; this should be unreachable")
    return to_int_matrix(transpose(bt))


@dataclass
class QuotientReport:
    """Full result of the quotient-polynomial analysis of one graph."""

    d: int
    r: int
    diameter: int
    is_quotient_polynomial: bool
    partition: PairPartition
    local_dimensions: tuple[int, ...]
    polynomials: tuple[Polynomial, ...] | None = None
    hoffman: Polynomial | None = None
    intersection_b: list | None = None          # B, rows sum to the degree
    walk_matrix: list | None = None             # W at vertex 0
    walk_matrix_plus: list | None = None        # W+ at vertex 0


def decide_quotient_polynomial(alg: WalkAlgebra) -> QuotientReport:
    """Compute d, r, the QP flag, and (when QP) polynomials, W, W+, B, H."""
    g, pp, d = alg.g, alg.partition, alg.d
    r = pp.r
    # d_u+1 equals the rank of the walk vectors of the classes meeting u
    # (A^l e_u is constant on local cells), ranked once per set of classes;
    # the tests compare it with an independent oracle that ranks e_u, A e_u,
    # A^2 e_u, ... directly.
    ranks: dict[frozenset[int], int] = {}
    local_dims = []
    for row in pp.class_index:
        ids = frozenset(row)
        if ids not in ranks:
            ranks[ids] = rank([pp.class_walk_vectors[i] for i in ids])
        local_dims.append(ranks[ids])
    rep = QuotientReport(
        d=d, r=r, diameter=alg.dd.diameter,
        is_quotient_polynomial=(r == d),
        partition=pp,
        local_dimensions=tuple(local_dims),
    )
    if not rep.is_quotient_polynomial:
        return rep

    # p_i(A) = J_i is M c_i = e_i on the classes: a basis change, verified
    polys = alg.class_polynomials(identity(r + 1))
    if polys is None:
        raise ContractViolationError("some p_i(A) != J_i; recovery is broken")
    hoffman = sum(polys, Polynomial.of([0]))
    if not alg.satisfies(hoffman, [1] * (r + 1)):  # H(A) = J
        raise ContractViolationError("Hoffman polynomial does not satisfy H(A) = J")

    lp0 = local_partition(pp, 0)
    wm = walk_count_matrices(g, 0, lp0)
    b = intersection_matrix(wm)
    if check_regular(g, lp0) != b:
        raise ContractViolationError(
            "W^-1 W+ disagrees with direct neighbor counting")

    rep.polynomials = tuple(polys)
    rep.hoffman = hoffman
    rep.intersection_b = b
    rep.walk_matrix = wm.w
    rep.walk_matrix_plus = wm.w_plus
    return rep


def per_vertex_consistency(alg: WalkAlgebra, rep: QuotientReport) -> bool:
    """Theorem check: every vertex induces the same polynomials and B."""
    if not rep.is_quotient_polynomial:
        raise AnalysisError("per-vertex consistency applies to QP graphs only")
    g = alg.g
    a = g.adjacency_matrix()
    # A^l e_u columns, reused for every polynomial
    for u in range(g.n):
        lp = local_partition(rep.partition, u)
        if lp.class_ids != tuple(range(rep.r + 1)):
            return False  # some class misses u; QP forbids empty cells
        cols = []
        vec = [1 if v == u else 0 for v in range(g.n)]
        for _ in range(rep.d + 1):
            cols.append(vec)
            vec = mat_vec(a, vec)
        for i, p in enumerate(rep.polynomials):
            chi = lp.characteristic_vector(i, g.n)
            got = [sum(c * col[v] for c, col in zip(p.coeffs, cols))
                   for v in range(g.n)]
            if got != chi:
                return False
        if check_regular(g, lp) != rep.intersection_b:
            return False
    return True


def extended_partition_stable(alg: WalkAlgebra) -> bool:
    """Debug witness: walk vectors extended to length 2d+1 refine nothing."""
    a = alg.g.adjacency_matrix()
    powers = list(alg.ladder)
    for _ in range(alg.d):
        powers.append(mat_mul(powers[-1], a))
    return (group_pairs(alg.g.n, powers).as_setpartition()
            == alg.partition.as_setpartition())
