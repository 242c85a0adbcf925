"""Floating-point spectral layer: eigenvalues, idempotents, crossed local
multiplicities, and the numeric cross-checks of the exact path.

The exact distinct-eigenvalue count d+1 is authoritative: if numeric grouping
disagrees, we abort with diagnostics instead of silently proceeding.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ContractViolationError, ToleranceError
from .exact import Polynomial, combine_powers, eval_poly, mat_mul, trace
from .graphs import Graph
from .partitions import WalkAlgebra


@dataclass(frozen=True)
class Tolerances:
    """All numeric comparison thresholds in one place."""

    eig_gap_rel: float = 1e-8       # relative gap for eigenvalue grouping
    pair_match: float = 1e-8        # m-vector grouping in spectrum_partition
    scalar_product: float = 1e-6    # trace form vs spectral sum agreement
    b_trace: float = 1e-9           # b_via_trace vs exact B agreement

    @staticmethod
    def with_base(base: float) -> "Tolerances":
        return Tolerances(eig_gap_rel=base, pair_match=base)


@dataclass(frozen=True)
class Spectrum:
    eigenvalues: tuple[float, ...]      # strictly descending
    multiplicities: tuple[int, ...]


@dataclass(frozen=True)
class SpectralDecomposition:
    spectrum: Spectrum
    idempotents: tuple  # numpy arrays E_0..E_d, descending eigenvalue order


@dataclass(frozen=True)
class MultiplicityVector:
    values: tuple[float, ...]


def spectral_decomposition(alg: WalkAlgebra,
                           tol: Tolerances = Tolerances()) -> SpectralDecomposition:
    """Distinct eigenvalues, multiplicities, and minimal idempotents E_j.

    Idempotents are assembled as V_j V_j^T from orthonormal eigenvector
    blocks, which stays stable at clustered eigenvalues.
    """
    a = np.array(alg.g.adjacency_matrix(), dtype=float)
    vals, vecs = np.linalg.eigh(a)  # ascending
    lam0 = float(vals[-1])
    thr = tol.eig_gap_rel * max(1.0, abs(lam0))
    groups: list[list[int]] = [[0]]
    for i in range(1, len(vals)):
        if vals[i] - vals[groups[-1][0]] > thr:
            groups.append([i])
        else:
            groups[-1].append(i)
    if len(groups) != alg.d + 1:
        gaps = np.diff(vals)
        raise ToleranceError(
            f"numeric grouping found {len(groups)} distinct eigenvalues, exact "
            f"count is {alg.d + 1}; sorted gaps: {np.sort(gaps)[:5]}")
    groups.reverse()  # descending order
    eigs, mults, idems = [], [], []
    for idx in groups:
        block = vecs[:, idx]
        eigs.append(float(np.mean(vals[idx])))
        mults.append(len(idx))
        idems.append(block @ block.T)
    return SpectralDecomposition(
        spectrum=Spectrum(tuple(eigs), tuple(mults)),
        idempotents=tuple(idems))


def crossed_multiplicities(sd: SpectralDecomposition, u: int, v: int) -> MultiplicityVector:
    """m(u,v): the (u,v)-entries of the idempotents E_0..E_d."""
    return MultiplicityVector(tuple(float(e[u, v]) for e in sd.idempotents))


def spectrum_partition(g: Graph, sd: SpectralDecomposition,
                       tol: float = Tolerances().pair_match):
    """Partition of V x V by m(u,v) vectors under component-wise tolerance.

    Returns a frozenset of frozensets of ordered pairs. A pair within `tol`
    of two distinct representatives is a tolerance error, never a guess.
    """
    n = g.n
    stack = np.stack([e for e in sd.idempotents], axis=-1)  # (n, n, d+1)
    flat = stack.reshape(n * n, -1)
    reps = np.empty((0, flat.shape[1]))
    members: list[list[tuple[int, int]]] = []
    for idx in range(n * n):
        vec = flat[idx]
        if len(members):
            dists = np.max(np.abs(reps - vec), axis=1)
            hits = np.nonzero(dists <= tol)[0]
        else:
            hits = []
        if len(hits) > 1:
            raise ToleranceError(
                f"pair ({idx // n},{idx % n}) matches {len(hits)} m-vector groups "
                f"within tol={tol}")
        if len(hits) == 1:
            members[int(hits[0])].append((idx // n, idx % n))
        else:
            reps = np.vstack([reps, vec])
            members.append([(idx // n, idx % n)])
    return frozenset(frozenset(c) for c in members)


def graph_scalar_product(g: Graph, sp: Spectrum,
                         f: Polynomial, h: Polynomial,
                         tol: Tolerances = Tolerances()) -> float:
    """<f,h> = (1/n) tr(f(A)h(A)); cross-checked against the spectral sum."""
    a = g.adjacency_matrix()
    fa = eval_poly(f, a)
    ha = eval_poly(h, a)
    n = g.n
    exact = sum(fa[i][j] * ha[j][i] for i in range(n) for j in range(n)) / n
    numeric = sum(m * f(lam) * h(lam)
                  for lam, m in zip(sp.eigenvalues, sp.multiplicities)) / n
    val = float(exact)
    if abs(val - numeric) > tol.scalar_product * max(1.0, abs(val)):
        raise ToleranceError(
            f"scalar product mismatch: trace form {val} vs spectral sum {numeric}")
    return val


def b_via_trace(alg: WalkAlgebra, polys, i: int, j: int) -> float:
    """tr(A V_i V_j) / tr(V_j^2) with V_k = p_k(A); equals (B^T)_{ij}.

    When the edges form a single walk class A is exactly V_1 and this is the
    classical p^j_{1i} ratio; using A directly keeps the identity with
    B = W^-1 W+ valid when the adjacency matrix splits into several classes.
    Computed with exact matrix traces, then converted to float.
    """
    a = alg.g.adjacency_matrix()
    vi = combine_powers(polys[i].coeffs, alg.ladder)
    vj = combine_powers(polys[j].coeffs, alg.ladder)
    denom = trace(mat_mul(vj, vj))
    if denom == 0:
        raise ContractViolationError(
            "class matrix V_j is zero; classes are nonempty by construction")
    num = trace(mat_mul(mat_mul(a, vi), vj))
    return float(Fraction(num) / Fraction(denom))
