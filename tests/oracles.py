"""Independent reference implementations that the tests compare the library
against. Each recomputes its quantity from scratch on a different path than
the library takes (dense power products ranked on n^2-long rows, Horner on
dense matrices, a per-vertex vector ladder, Gauss-Jordan mod p with
inverses, a Fraction Gauss-Jordan solve of W B^T = W+, exact traces, every
automorphism listed one by one, a greedy pair-by-pair grouping of the
m-vectors, scheme pair types counted at every vertex), so a fault in the
library's own path cannot hide in both."""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from quograph import (AnalysisError, ContractViolationError, Graph,
                      GraphInputError, OrbitPartition, Polynomial,
                      SizeLimitError, ToleranceError, WalkAlgebra,
                      check_regular, distances, local_partition, rank)
from quograph import exact, partitions
from quograph.exact import IntMatrix, RatMatrix, identity
from quograph.graphs import DistanceData
from quograph.orbits import DEFAULT_VERTEX_CAP
from quograph.partitions import LocalPartition, PairPartition
from quograph.quotient import QuotientReport
from quograph.schemes import AssociationScheme
from quograph.spectral import DEFAULT_TOL, Spectrum


def all_ones(n: int) -> IntMatrix:
    return [[1] * n for _ in range(n)]


def transpose(m):
    return [list(row) for row in zip(*m)]


def mat_mul(a, b):
    """Exact matrix product; entries may be ints or Fractions."""
    if len(a[0]) != len(b):
        raise GraphInputError(
            f"dimension mismatch: {len(a)}x{len(a[0])} times {len(b)}x{len(b[0])}")
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def trace(m) -> int | Fraction:
    return sum(m[i][i] for i in range(len(m)))


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def solve(a, b):
    """Exact solve of a X = b over Q; None when the system is inconsistent.

    Underdetermined systems get the canonical solution with free variables
    set to zero. `a` is rows x cols, `b` is rows x k; result is cols x k.
    """
    rows, cols = len(a), len(a[0])
    if len(b) != rows:
        raise GraphInputError("solve: right-hand side row count mismatch")
    k = len(b[0])
    aug = [[Fraction(x) for x in a[i]] + [Fraction(x) for x in b[i]]
           for i in range(rows)]
    pivots: list[tuple[int, int]] = []  # (row, col)
    pr = 0
    for pc in range(cols):
        # pivot by largest |numerator| among candidates to limit growth
        best, best_key = -1, None
        for i in range(pr, rows):
            x = aug[i][pc]
            if x:
                key = abs(x.numerator)
                if best_key is None or key > best_key:
                    best, best_key = i, key
        if best < 0:
            continue
        aug[pr], aug[best] = aug[best], aug[pr]
        piv = aug[pr][pc]
        for i in range(rows):
            if i != pr and aug[i][pc]:
                f = aug[i][pc] / piv
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[pr])]
        pivots.append((pr, pc))
        pr += 1
        if pr == rows:
            break
    # consistency: zero coefficient rows must have zero rhs
    for i in range(pr, rows):
        if any(aug[i][cols:]):
            return None
    x = [[Fraction(0)] * k for _ in range(cols)]
    for r, c in pivots:
        piv = aug[r][c]
        for j in range(k):
            x[c][j] = aug[r][cols + j] / piv
    return x


def is_nonneg_int_matrix(m) -> bool:
    return all(
        (isinstance(x, int) or x.denominator == 1) and x >= 0
        for row in m for x in row)


def to_int_matrix(m) -> IntMatrix:
    return [[int(x) for x in row] for row in m]


class RowBasis(exact.RowBasis):
    """The library's incremental row basis, with a membership test."""

    def contains(self, row) -> bool:
        """True iff `row` already lies in the span (does not modify the basis)."""
        row = list(row)
        for p in sorted(self._rows):
            if row[p]:
                r = self._rows[p]
                a, b = r[p], row[p]
                row = [a * x - b * y for x, y in zip(row, r)]
        return not any(row)


def rank_mod_p(m, p: int) -> int:
    """Rank over GF(p), by Gauss-Jordan with inverses pow(x, p - 2, p)."""
    rows = [[x % p for x in row] for row in m]
    rk = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rk, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        inv = pow(rows[rk][c], p - 2, p)
        for i in range(rk + 1, len(rows)):
            f = rows[i][c] * inv % p
            rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rk])]
        rk += 1
    return rk


def det_mod_p(m, p: int) -> int:
    """The determinant mod p of a square integer matrix, in [0, p), by
    elimination with row swaps and inverses pow(x, p - 2, p)."""
    rows, det = [[x % p for x in row] for row in m], 1
    for c in range(len(rows)):
        piv = next((i for i in range(c, len(rows)) if rows[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            rows[c], rows[piv], det = rows[piv], rows[c], -det
        det = det * rows[c][c] % p
        inv = pow(rows[c][c], p - 2, p)
        for i in range(c + 1, len(rows)):
            f = rows[i][c] * inv % p
            rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[c])]
    return det % p


def adjacency_power_ladder_reference(g: Graph) -> list[list[list[int]]]:
    """[I, A, ..., A^d] where d+1 is the adjacency algebra dimension.

    Powers are appended while their vectorizations stay linearly independent
    over Q; the first dependent power ends the ladder (all higher powers are
    then dependent too).
    """
    a = g.adjacency_matrix()
    basis = RowBasis()
    powers = []
    cur = identity(g.n)
    while True:
        vec = [x for row in cur for x in row]
        if not basis.add(vec):
            return powers
        powers.append(cur)
        cur = mat_mul(cur, a)


def class_powers(alg: WalkAlgebra) -> list[list[list[int]]]:
    """[I, A, ..., A^d] read off the walk classes: A^l[u][v] = M[c(u,v)][l]."""
    m, n, ids = alg.m, alg.g.n, alg.partition.class_ids
    return [[[m[c][l] for c in ids[u * n:(u + 1) * n]] for u in range(n)]
            for l in range(alg.d + 1)]


def walk_algebra_digest(alg: WalkAlgebra) -> str:
    """One sha256 over a walk algebra: the partition's n, class_ids and walk
    vectors and the minimal polynomial's coefficients, plus `flat_index`'s
    dtype, shape, read-only flag and bytes. Equal digests mean equal
    partitions and minimal polynomials, with the same cached array behind
    `flat_index`; the traces, which prove mu, are compared by the tests
    that need them."""
    pp, flat = alg.partition, alg.partition.flat_index
    fields = (pp.n, pp.class_ids, pp.class_walk_vectors,
              alg.minimal_polynomial.coeffs,
              flat.dtype.str, flat.shape, flat.flags.writeable)
    digest = hashlib.sha256(repr(fields).encode())
    digest.update(flat.tobytes())
    return digest.hexdigest()


def bordered_class_polynomials(alg: WalkAlgebra, columns):
    """`WalkAlgebra.class_polynomials` by the bordered inverse, in Python
    ints: B is bordered over the classes in order of first pair by
    `partitions._border`, which gives adj = det B^-1; each column's c = adj
    t_B is a solution exactly when M c = det t on all r+1 rows. No prime."""
    flat = alg.partition.flat_index
    first = np.full(alg.partition.r + 1, flat.size)
    np.minimum.at(first, flat, np.arange(flat.size))
    basis, adj, det, _ = partitions._border(alg.m, np.argsort(first).tolist())
    polys = []
    for col in columns:
        c = [sum(row[i] * col[k] for i, k in enumerate(basis)) for row in adj]
        if any(sum(x * y for x, y in zip(row, c)) != det * v
               for row, v in zip(alg.m, col)):
            return None
        polys.append(Polynomial.of([Fraction(x, det) for x in c]))
    return polys


def combine_powers(coeffs, powers) -> RatMatrix:
    """Sum c_l * A^l given the precomputed power ladder; cheaper than Horner."""
    n = len(powers[0])
    out = [[Fraction(0)] * n for _ in range(n)]
    for c, p in zip(coeffs, powers):
        if c:
            for i in range(n):
                row, prow = out[i], p[i]
                for j in range(n):
                    row[j] += c * prow[j]
    return out


def eval_poly(p: Polynomial, a: IntMatrix) -> RatMatrix:
    """p(A) by Horner's scheme on matrices; exact."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise GraphInputError("eval_poly needs a square matrix")
    acc = [[Fraction(0)] * n for _ in range(n)]
    for c in reversed(p.coeffs):
        acc = mat_mul(acc, a)
        for i in range(n):
            acc[i][i] += c
    return acc


def walk_vectors(g: Graph) -> dict[tuple[int, int], tuple[int, ...]]:
    """Map (u,v) -> (a_uv^(0), ..., a_uv^(d)), exact."""
    ladder = adjacency_power_ladder_reference(g)
    return {(u, v): tuple(p[u][v] for p in ladder)
            for u in range(g.n) for v in range(g.n)}


def local_dimension(g: Graph, u: int) -> int:
    """d_u+1: rank over Q of the columns e_u, A e_u, A^2 e_u, ..."""
    a = g.adjacency_matrix()
    basis = RowBasis()
    vec = [1 if v == u else 0 for v in range(g.n)]
    while basis.add(vec):
        vec = mat_vec(a, vec)
    return basis.rank


@dataclass(frozen=True)
class MultiplicityVector:
    values: tuple[float, ...]


@dataclass(frozen=True)
class GivenIdempotents:
    """A spectrum with its idempotents given outright, as the reference and
    the hand-built cases make them; `spectrum_partition` and the oracles
    read a decomposition only through these two fields."""
    spectrum: Spectrum
    idempotents: np.ndarray | tuple[np.ndarray, ...]


def crossed_multiplicities(sd, u: int, v: int) -> MultiplicityVector:
    """m(u,v): the (u,v)-entries of the idempotents E_0..E_d."""
    return MultiplicityVector(tuple(float(e[u, v]) for e in sd.idempotents))


def spectral_decomposition_reference(alg: WalkAlgebra,
                                     tol: float = DEFAULT_TOL) -> GivenIdempotents:
    """The float layer as first written: A from `adjacency_matrix()`, one
    `np.mean` per eigenvalue group and `block @ block.T`, the idempotents a
    tuple of arrays in descending eigenvalue order."""
    a = np.array(alg.g.adjacency_matrix(), dtype=float)
    vals, vecs = np.linalg.eigh(a)  # ascending
    thr = tol * max(1.0, abs(float(vals[-1])))
    groups: list[list[int]] = [[0]]
    for i in range(1, len(vals)):
        if vals[i] - vals[groups[-1][0]] > thr:
            groups.append([i])
        else:
            groups[-1].append(i)
    if len(groups) != alg.d + 1:
        raise ToleranceError(f"numeric grouping found {len(groups)} distinct "
                             f"eigenvalues, exact count is {alg.d + 1}")
    groups.reverse()  # descending order
    blocks = [vecs[:, idx] for idx in groups]
    return GivenIdempotents(
        Spectrum(tuple(float(np.mean(vals[idx])) for idx in groups),
                 tuple(map(len, groups))),
        tuple(block @ block.T for block in blocks))


def spectrum_partition_reference(g: Graph, sd,
                                 tol: float = DEFAULT_TOL):
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
                         tol: float = 1e-6) -> float:
    """<f,h> = (1/n) tr(f(A)h(A)); cross-checked against the spectral sum."""
    a = g.adjacency_matrix()
    fa = eval_poly(f, a)
    ha = eval_poly(h, a)
    n = g.n
    exact = sum(fa[i][j] * ha[j][i] for i in range(n) for j in range(n)) / n
    numeric = sum(m * f(lam) * h(lam)
                  for lam, m in zip(sp.eigenvalues, sp.multiplicities)) / n
    val = float(exact)
    if abs(val - numeric) > tol * max(1.0, abs(val)):
        raise ToleranceError(
            f"scalar product mismatch: trace form {val} vs spectral sum {numeric}")
    return val


def b_via_trace(g: Graph, ladder, polys, i: int, j: int) -> float:
    """tr(A V_i V_j) / tr(V_j^2) with V_k = p_k(A), summed over the dense
    ladder [I, A, ..., A^d]; equals (B^T)_{ij}.

    When the edges form a single walk class A is exactly V_1 and this is the
    classical p^j_{1i} ratio; using A directly keeps the identity with
    B = W^-1 W+ valid when the adjacency matrix splits into several classes.
    Computed with exact matrix traces, then converted to float.
    """
    a = g.adjacency_matrix()
    vi = combine_powers(polys[i].coeffs, ladder)
    vj = combine_powers(polys[j].coeffs, ladder)
    denom = trace(mat_mul(vj, vj))
    if denom == 0:
        raise ContractViolationError(
            "class matrix V_j is zero; classes are nonempty by construction")
    num = trace(mat_mul(mat_mul(a, vi), vj))
    return float(Fraction(num) / Fraction(denom))


def distance_class_matrix(g: Graph, i: int) -> list[list[int]]:
    """0/1 matrix of the pairs at distance exactly i."""
    dd = distances(g)
    if dd.diameter is None:
        raise AnalysisError("distance class matrices need a connected graph")
    if not (0 <= i <= dd.diameter):
        raise GraphInputError(f"distance {i} outside 0..{dd.diameter}")
    return [[1 if dd.dist[u][v] == i else 0 for v in range(g.n)] for u in range(g.n)]


def class_matrix(pp: PairPartition | AssociationScheme,
                 i: int) -> list[list[int]]:
    """The 0/1 matrix of class i of a partition or a scheme, read off its
    labels class_ids[u*n+v]."""
    n = pp.n
    return [[int(pp.class_ids[u * n + v] == i) for v in range(n)]
            for u in range(n)]


def scheme_classes(scheme: AssociationScheme) -> list[list[list[int]]]:
    """The class matrices A_0..A_d of a scheme, n x n lists of 0/1 ints."""
    return [class_matrix(scheme, k) for k in range(scheme.num_classes + 1)]


def setpartition(pp: PairPartition) -> frozenset[frozenset[tuple[int, int]]]:
    """The classes of pp as a set of sets of pairs (u,v), class order
    forgotten."""
    classes: dict[int, set] = {}
    for p, k in enumerate(pp.class_ids):
        classes.setdefault(k, set()).add(divmod(p, pp.n))
    return frozenset(map(frozenset, classes.values()))


def group_pairs(n: int, ladder) -> PairPartition:
    """The pairs grouped by their entries in the powers [I, A, A^2, ...],
    each a list of n rows, in the library's class order: the diagonal
    classes (a^(0) = 1) by ascending walk vector, then the others by
    distance and descending walk vector; pairs row-major."""
    classes: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for u in range(n):
        for v in range(n):
            classes.setdefault(tuple(p[u][v] for p in ladder), []).append((u, v))

    def key(vec):
        dist = next(l for l, x in enumerate(vec) if x)
        return (0, vec) if vec[0] == 1 else (1, dist, tuple(-x for x in vec))
    order = sorted(classes, key=key)
    return PairPartition.of(n, order, [classes[vec] for vec in order])


def walk_classes(g: Graph) -> dict[tuple[int, ...], list[tuple[int, int]]]:
    """The pairs (u,v) grouped by their walk vector, each group row-major,
    keyed by the vector: the walk partition from `walk_vectors`."""
    classes: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for pair, vec in walk_vectors(g).items():
        classes.setdefault(vec, []).append(pair)
    return classes


def characteristic_vector(lp: LocalPartition, i: int, n: int) -> list[int]:
    chi = [0] * n
    for v in lp.cells[i]:
        chi[v] = 1
    return chi


def is_distance_faithful(lp: LocalPartition, dd: DistanceData) -> bool:
    """True iff every cell is distance-homogeneous from the center."""
    du = dd.dist[lp.center]
    return all(len({du[v] for v in cell}) == 1 for cell in lp.cells)


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
            chi = characteristic_vector(lp, i, g.n)
            got = [sum(c * col[v] for c, col in zip(p.coeffs, cols))
                   for v in range(g.n)]
            if got != chi:
                return False
        if check_regular(g, lp) != rep.intersection_b:
            return False
    return True


def build_scheme_every_u(rep: QuotientReport, pp: PairPartition) -> AssociationScheme:
    """The scheme generated by a QP graph: classes are the J_i matrices,
    p^k_ij = |{w : (u,w) in J_i, (w,v) in J_j}| counted at every pair (u,v)
    of class k, and required to be the same for all of them: the first row
    that meets class k sets p^k, and every pair is compared with it.

    One pass over u counts the class pairs (c(u,w), c(w,v)) for all v and w
    with int64 `bincount`: O(n^3 + n^2 (d+1)^2) work whatever d is, and
    O(n^2 + n (d+1)^2) memory per step. Counts are at most n, so they are
    exact.
    """
    if not rep.is_quotient_polynomial:
        raise AnalysisError("only quotient-polynomial graphs generate a scheme")
    n = pp.n
    s = pp.r + 1
    c = np.array(pp.class_ids, dtype=np.int64).reshape(n, n)
    if not np.array_equal(c == 0, np.eye(n, dtype=bool)):
        raise ContractViolationError("J_0 != I on a QP graph")
    # each pair lies in exactly one class 0..r iff the class matrices sum to J
    sizes = [pp.class_ids.count(k) for k in range(s)]
    if (c.min() < 0 or c.max() >= s or sum(sizes) != n * n
            or np.bincount(c.ravel(), minlength=s).tolist() != sizes):
        raise ContractViolationError("class matrices do not sum to J")
    if not np.array_equal(c, c.T):
        raise ContractViolationError("class matrix not symmetric")
    # key[w, v] = v s^2 + c(u,w) s + c(w,v): a count table row per v
    base = c + np.arange(n, dtype=np.int64) * (s * s)
    p = np.full((s, s * s), -1, dtype=np.int64)  # -1: class not seen yet
    for u in range(n):
        counts = np.bincount((base + c[u][:, None] * s).ravel(),
                             minlength=n * s * s).reshape(n, s * s)
        row = c[u]
        new = p[row, 0] < 0
        p[row[new]] = counts[new]
        bad = np.argwhere(p[row] != counts)
        if len(bad):
            v, ij = bad[0]
            i, j = divmod(int(ij), s)
            raise ContractViolationError(
                f"J_{i} J_{j} is not constant on class {row[v]}")
    return AssociationScheme.of(
        n, [(c == k).astype(np.int64).ravel().tolist() for k in range(s)],
        p.reshape(s, s, s).tolist())


def generates_scheme_check_reference(classes, ladder) -> bool:
    """True iff vec(A^0..A^d), from the ladder [I, A, ..., A^d], spans the
    same rational row space as the vectorized class matrices, any n x n
    integer matrices (`scheme_classes` of a scheme, say). The d+1 powers
    are independent (the ladder stops at the first dependent one)."""
    scheme_basis = RowBasis()
    combined = RowBasis()
    for p in ladder:
        combined.add([x for row in p for x in row])
    for m in classes:
        vec = [x for row in m for x in row]
        scheme_basis.add(vec)
        combined.add(vec)
    # equal spans iff neither side adds anything to the other
    return len(ladder) == scheme_basis.rank == combined.rank


def all_automorphisms(g: Graph, cap: int = DEFAULT_VERTEX_CAP) -> list[tuple[int, ...]]:
    """All adjacency-preserving permutations, by backtracking.

    Candidate images must match on (degree, sorted distance profile), which
    prunes most of the factorial tree on irregular graphs.
    """
    if g.n > cap:
        raise SizeLimitError(
            f"automorphism search capped at {cap} vertices (got {g.n}); "
            "use a dedicated tool such as nauty for larger graphs")
    dd = distances(g)
    sentinel = g.n + 1  # unreachable sorts after every real distance
    keys = [
        (g.degree(u),
         tuple(sorted(d if d is not None else sentinel for d in dd.dist[u])))
        for u in range(g.n)
    ]
    perms: list[tuple[int, ...]] = []
    image = [-1] * g.n
    used = [False] * g.n

    def extend(u: int):
        if u == g.n:
            perms.append(tuple(image))
            return
        for w in range(g.n):
            if used[w] or keys[w] != keys[u]:
                continue
            ok = True
            for v in range(u):
                if g.has_edge(u, v) != g.has_edge(w, image[v]):
                    ok = False
                    break
            if ok:
                image[u] = w
                used[w] = True
                extend(u + 1)
                used[w] = False
        image[u] = -1

    extend(0)
    # extend refers to itself through its closure cell; breaking that cycle
    # frees perms with the caller's last reference instead of at the next
    # full garbage collection
    del extend
    return perms


def orbit_partition_reference(auts: list[tuple[int, ...]], n: int) -> OrbitPartition:
    """Closure of the group action on V x V."""
    seen = [[False] * n for _ in range(n)]
    orbits = []
    for u in range(n):
        for v in range(n):
            if seen[u][v]:
                continue
            orb = set()
            for sigma in auts:
                orb.add((sigma[u], sigma[v]))
            for x, y in orb:
                seen[x][y] = True
            orbits.append(tuple(sorted(orb)))
    return OrbitPartition(n=n, orbits=tuple(orbits))
