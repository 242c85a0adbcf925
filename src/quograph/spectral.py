"""Floating-point spectral layer: eigenvalues, idempotents, crossed local
multiplicities, and the numeric cross-checks of the exact path.

The exact distinct-eigenvalue count d+1 is authoritative: if numeric grouping
disagrees, we abort with diagnostics instead of silently proceeding.
The idempotents E_0..E_d are one read-only (d+1, n, n) array, descending, which
`spectrum_partition` reads as an (n^2, d+1) view, with no stacked copy.
"""
from __future__ import annotations

from dataclasses import dataclass

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
    """idempotents[j] is E_j: one read-only (d+1, n, n) array in descending
    eigenvalue order, whose (n^2, d+1) view spares a stacked copy."""
    spectrum: Spectrum
    idempotents: np.ndarray


def spectral_decomposition(alg: WalkAlgebra,
                           tol: float = DEFAULT_TOL) -> SpectralDecomposition:
    """Distinct eigenvalues, multiplicities, and minimal idempotents E_j.

    A is scattered from the neighbour index `walk_step` gathers through. E_j
    is V_j V_j^T from an orthonormal eigenvector block, stable at clustered
    eigenvalues, written into its slice of the (d+1, n, n) array."""
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
    idems = np.empty((len(bounds), n, n))
    for e, (lo, hi) in zip(idems, bounds):
        np.matmul(vecs[:, lo:hi], vecs[:, lo:hi].T, out=e)
    idems.flags.writeable = False
    return SpectralDecomposition(
        spectrum=Spectrum(tuple(float(vals[lo:hi].sum() / (hi - lo))
                                for lo, hi in bounds),
                          tuple(hi - lo for lo, hi in bounds)),
        idempotents=idems)


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
    (a) is one pass over the n^2 pairs. By the triangle inequality, (b) can
    fail only between classes whose first pairs lie within 2 tol; a sweep
    over the first pairs sorted on one coordinate, with a 4 tol window that
    rounding cannot defeat, finds those few class pairs, and only their
    pairs are compared. Memory stays O(n^2 (d+1)).
    """
    n = pp.n
    flat = np.reshape(sd.idempotents, (-1, n * n)).T  # a view: m(u,v) by row
    ids = pp.flat_index
    members, bounds = pp.class_members  # pairs grouped by class
    first = members[bounds[:-1]]  # f(C)
    own = first[ids]
    dist = flat[own]
    np.subtract(dist, flat, out=dist)
    np.abs(dist, out=dist)
    dist = dist.max(axis=1)
    bad = ~(dist <= tol)  # a NaN fails too
    bad[first] = False
    if bad.any():
        p = int(np.argmax(bad))
        raise ToleranceError(
            f"pair {divmod(p, n)} lies {dist[p]:.3g} from the first pair "
            f"{divmod(int(own[p]), n)} of its walk class, beyond tol={tol}")

    # The sweep sorts in Python: numpy's sorts would page in code worth more
    # resident memory than the arrays here. It runs on the coordinate with
    # the most distinct values, since idempotent entries such as m_j / n
    # repeat across classes; a NaN first pair is left out, as it matches
    # nothing.
    reps = flat[first]
    cols = reps.T.tolist()
    key = max(range(len(cols)), key=lambda j: len(set(cols[j])))
    col = cols[key]
    order = np.array(sorted((k for k, x in enumerate(col) if x == x),
                            key=col.__getitem__), dtype=np.intp)
    coord = reps[order, key]
    window = 4 * tol
    for step in range(1, len(order)):
        near = np.flatnonzero(coord[step:] - coord[:-step] <= window)
        if not len(near):
            break  # sorted: no wider step can fall in the window either
        a, b = order[near], order[near + step]
        close = np.abs(reps[a] - reps[b]).max(axis=1) <= window
        if not close.any():
            continue
        # (b) for the pairs of class c against the first pair of `other`,
        # both ways round; each class is met at most twice per step
        c = np.concatenate([a[close], b[close]])
        other = np.concatenate([b[close], a[close]])
        size = bounds[c + 1] - bounds[c]
        at = np.repeat(bounds[c] - np.cumsum(size) + size, size)
        pairs = members[at + np.arange(len(at))]
        other = np.repeat(other, size)
        hit = (pairs > first[other]) & (
            np.abs(flat[pairs] - reps[other]).max(axis=1) <= tol)
        if hit.any():
            k = int(np.argmax(hit))
            raise ToleranceError(
                f"pair {divmod(int(pairs[k]), n)} lies within tol={tol} of the "
                f"first pairs of walk classes {ids[pairs[k]]} and {other[k]}")
