"""Floating-point spectral layer: eigenvalues, idempotents, crossed local
multiplicities, and the numeric cross-checks of the exact path.

The exact distinct-eigenvalue count d+1 is authoritative: if numeric grouping
disagrees, we abort with diagnostics instead of silently proceeding.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ToleranceError
from .graphs import Graph
from .partitions import WalkAlgebra


@dataclass(frozen=True)
class Tolerances:
    """All numeric comparison thresholds in one place."""

    eig_gap_rel: float = 1e-8       # relative gap for eigenvalue grouping
    pair_match: float = 1e-8        # m-vector grouping in spectrum_partition

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
