"""Floating-point spectral layer: eigenvalues, idempotents, crossed local
multiplicities, and the numeric cross-checks of the exact path.

The exact distinct-eigenvalue count d+1 is authoritative: if numeric grouping
disagrees, we abort with diagnostics instead of silently proceeding. The
report reads only the eigenvalues; the idempotents are built only when the
`--debug-checks` witness `spectrum_partition` reads them.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ToleranceError
from .partitions import PairPartition, WalkAlgebra


# The one numeric threshold: the eigenvalue gap, relative to max(1, |lambda_0|),
# in spectral_decomposition, and the m-vector distance to the walk class's
# first pair, absolute, in spectrum_partition.
DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class Spectrum:
    eigenvalues: tuple[float, ...]      # strictly descending
    multiplicities: tuple[int, ...]


@dataclass(frozen=True)
class SpectralDecomposition:
    """Grouped spectrum and `eigh`'s eigenvectors, read-only, ascending."""
    spectrum: Spectrum
    vectors: np.ndarray

    @cached_property
    def idempotents(self) -> np.ndarray:
        """E_j = V_j V_j^T, stable at clustered eigenvalues: one read-only
        (d+1, n, n) array, descending, viewed as (n^2, d+1) without a copy."""
        vecs, hi = self.vectors, len(self.vectors)
        idems = np.empty((len(self.spectrum.multiplicities), hi, hi))
        for e, m in zip(idems, self.spectrum.multiplicities):
            np.matmul(vecs[:, hi - m:hi], vecs[:, hi - m:hi].T, out=e)
            hi -= m
        idems.flags.writeable = False
        return idems


def spectral_decomposition(alg: WalkAlgebra,
                           tol: float = DEFAULT_TOL) -> SpectralDecomposition:
    """Distinct eigenvalues and multiplicities from `eigh` of A, scattered
    from the neighbour index `walk_step` gathers through, grouped by gap and
    checked against the exact count d+1."""
    g, n = alg.g, alg.g.n
    a = np.zeros((n + 1, n))  # row n takes the padding of the neighbour index
    if g.degrees_skewed:
        flat, starts = g.neighbor_runs
        owner = np.zeros(len(flat), dtype=np.intp)
        owner[starts[1:]] = 1  # owner.cumsum(): the vertex of each entry
        a[flat, owner.cumsum()] = 1
    else:
        a[g.neighbor_table, np.arange(n)] = 1
    vals, vecs = np.linalg.eigh(a[:n])  # ascending
    lam = vals.tolist()
    thr = tol * max(1.0, abs(lam[-1]))
    cuts = [0]  # where each group starts
    for i, x in enumerate(lam):
        if x - lam[cuts[-1]] > thr:
            cuts.append(i)
    if len(cuts) != alg.d + 1:
        raise ToleranceError(
            f"numeric grouping found {len(cuts)} distinct eigenvalues, exact "
            f"count is {alg.d + 1}; sorted gaps: {np.sort(np.diff(vals))[:5]}")
    bounds = list(zip(cuts, cuts[1:] + [n]))[::-1]  # descending order
    vecs.flags.writeable = False
    return SpectralDecomposition(
        spectrum=Spectrum(tuple(float(vals[lo:hi].sum() / (hi - lo))
                                for lo, hi in bounds),
                          tuple(hi - lo for lo, hi in bounds)),
        vectors=vecs)


def spectrum_partition(sd: SpectralDecomposition, pp: PairPartition,
                       tol: float = DEFAULT_TOL) -> None:
    """Check that grouping the m(u,v) vectors under component-wise tolerance
    reproduces the exact walk partition `pp`; raise ToleranceError if not.

    The grouping meant is the greedy one: pairs in row-major order, each
    joining the one group whose first pair lies within `tol` (Chebyshev
    distance) or starting a new group, and a pair within `tol` of two first
    pairs being an error. Let f(C) be the first pair of class C. That
    grouping is `pp` exactly when every pair p of every class C
      (a) lies within `tol` of f(C), and
      (b) lies within `tol` of no f(C') with C' != C and f(C') < p.
    One pass per class C over the pairs after f(C) checks both: (a) for the
    pairs of C, (b) for the others. Memory stays O(n^2 (d+1)). In exact
    terms this is a theorem (E_j = L_j(A)), so it witnesses only the float
    eigenvectors.
    """
    n = pp.n
    flat = np.reshape(sd.idempotents, (-1, n * n)).T  # a view: m(u,v) by row
    ids = pp.flat_index
    members, bounds = pp.class_members  # pairs grouped by class
    for c, f in enumerate(members[bounds[:-1]].tolist()):  # f = f(C)
        dist = np.abs(flat[f + 1:] - flat[f]).max(axis=1)
        bad = np.flatnonzero((dist <= tol) != (ids[f + 1:] == c))  # NaN: far
        if not len(bad):
            continue
        p, k = f + 1 + int(bad[0]), int(bad[0])
        if ids[p] == c:
            raise ToleranceError(
                f"pair {divmod(p, n)} lies {dist[k]:.3g} from the first pair "
                f"{divmod(f, n)} of its walk class, beyond tol={tol}")
        raise ToleranceError(
            f"pair {divmod(p, n)} lies within tol={tol} of the first pairs "
            f"of walk classes {ids[p]} and {c}")
