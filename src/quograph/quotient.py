"""Quotient-polynomial decision, quotient polynomials, W, W+ and B.

A connected graph with d+1 distinct eigenvalues and r+1 walk classes is
quotient-polynomial exactly when r = d; the class matrices then lie in the
adjacency algebra and the recovered polynomials satisfy p_i(A) = J_i exactly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError
from .exact import Polynomial, identity, polynomial_sum, subset_ranks
from .partitions import (PairPartition, WalkAlgebra, check_regular,
                         local_partition, same_partition, walk_step)


@dataclass
class QuotientReport:
    """Full result of the quotient-polynomial analysis of one graph."""

    d: int
    r: int
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
    # d_u+1 is the rank of K_u = [e_u, A e_u, ..., A^d e_u], whose rows are
    # the walk vectors of the classes meeting u. K_u^T K_u is the Hankel
    # matrix of A^l[u][u] = M[c(u,u)][l], its entries past d fixed by mu, so
    # the rank depends on the diagonal class c(u,u) alone and is taken once
    # per diagonal class, at its first vertex. `subset_ranks` keeps a
    # rank mod p only where it reaches min(#classes at u, d+1), which bounds
    # the rank over Q, and ranks every other over Q. The tests compare every
    # d_u with an oracle that ranks e_u, A e_u, A^2 e_u, ... directly.
    n, diag = g.n, pp.class_ids[::g.n + 1]  # c(u,u)
    ids = sorted(set(diag))
    # the classes meeting the first vertex of each diagonal class
    meeting = [sorted(set(pp.class_ids[u * n:(u + 1) * n]))
               for u in map(diag.index, ids)]
    rank_of = dict(zip(ids, subset_ranks(pp.class_walk_vectors, meeting)))
    rep = QuotientReport(
        d=d, r=r,
        is_quotient_polynomial=(r == d),
        partition=pp,
        local_dimensions=tuple(map(rank_of.__getitem__, diag)),
    )
    if not rep.is_quotient_polynomial:
        return rep

    # p_i(A) = J_i is M c_i = e_i on the classes: a basis change, verified
    polys = alg.class_polynomials(identity(r + 1))
    if polys is None:
        raise ContractViolationError("some p_i(A) != J_i; recovery is broken")
    hoffman = polynomial_sum(polys)
    if not alg.satisfies(hoffman, [1] * (r + 1)):  # H(A) = J
        raise ContractViolationError("Hoffman polynomial does not satisfy H(A) = J")

    # W is M^T on the classes at vertex 0; all r+1 meet it on a QP graph
    lp0 = local_partition(pp, 0)
    if lp0.class_ids != tuple(range(r + 1)):
        raise ContractViolationError("some class misses vertex 0 on a QP graph")
    w = [list(col) for col in zip(*alg.m)]
    # W+ drops row 0 and adds a^(d+1) = -sum_{j<=d} mu_j a^(j), since mu(A) = 0
    mu = alg.integral_minimal_polynomial
    w_plus = w[1:] + [[-sum(c * x for c, x in zip(mu, col)) for col in alg.m]]
    # W = M^T is nonsingular (r = d and M has rank d+1), so W B^T = W+ for the
    # neighbour count B says B^T = W^-1 W+ and that it is a non-negative
    # integer matrix; W B^T runs over the nonzeros of B, at most k a row
    b = check_regular(g, lp0)
    nonzero = [[(j, x) for j, x in enumerate(row) if x] for row in b or ()]
    if b is None or [[sum(x * wl[j] for j, x in nz) for nz in nonzero]
                     for wl in w] != w_plus:
        raise ContractViolationError(
            "W^-1 W+ disagrees with direct neighbor counting")

    rep.polynomials = tuple(polys)
    rep.hoffman = hoffman
    rep.intersection_b = b
    rep.walk_matrix = w
    rep.walk_matrix_plus = w_plus
    return rep


def extended_partition_stable(alg: WalkAlgebra) -> bool:
    """Debug witness: walk vectors extended to length 2d+1 refine nothing.

    I, A, ..., A^(2d) are built afresh, one `walk_step` each (O(d n^2 k)
    work), and the pairs labelled by their exact entries, read back as
    Python ints, must give the walk partition, in any class order."""
    powers = [np.eye(alg.g.n, dtype=np.int64)]
    for _ in range(2 * alg.d):
        powers.append(walk_step(alg.g, powers[-1]))
    groups: dict[tuple[int, ...], int] = {}
    ext = np.array([groups.setdefault(key, len(groups))
                    for key in zip(*(p.ravel().tolist() for p in powers))])
    pp = alg.partition
    return same_partition(ext, len(groups), pp.flat_index, pp.r + 1)
