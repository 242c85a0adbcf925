"""Regularity classifiers and the association scheme generated by a
quotient-polynomial graph.

Several classifiers carry a built-in second witness (Delsarte's criterion,
pair-counted vs matrix-product structure constants); a disagreement is a
contract violation, not a soft warning.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AnalysisError, ContractViolationError, GraphInputError
from .exact import Polynomial, integer_numerators, polynomial_sum
from .partitions import PairPartition, WalkAlgebra, same_partition
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
    if not (0 <= h <= alg.diameter):
        raise GraphInputError(f"distance {h} outside 0..{alg.diameter}")
    return alg.partition.class_distances.count(h) == 1


def is_distance_regular(alg: WalkAlgebra, rep: QuotientReport) -> bool:
    """QP with D = r, D the largest class distance; re-derived by Delsarte's
    criterion (A_i = p_i(A) with deg p_i = i for all i, forcing D = d).

    On a graph that is not regular, `distance_polynomials` is None without
    a solve, so Delsarte reads False; D = r reads False there too, a QP
    graph being walk-regular. Wherever both can be True the graph is
    regular, and the Delsarte half is the full distance solve."""
    primary = rep.is_quotient_polynomial and alg.diameter == rep.r
    delsarte = False
    if alg.diameter == rep.d:
        polys = alg.distance_polynomials
        delsarte = polys is not None and all(
            p.degree == i for i, p in enumerate(polys))
    if primary != delsarte:
        raise ContractViolationError(
            f"distance-regularity criteria disagree: D=r gives {primary}, "
            f"Delsarte gives {delsarte}")
    return primary


def is_distance_polynomial(alg: WalkAlgebra) -> tuple[Polynomial, ...] | None:
    """The D+1 distance polynomials, or None when some A_i is outside A(Gamma)."""
    return alg.distance_polynomials


def qp_implies_dp(alg: WalkAlgebra, rep: QuotientReport) -> list[Polynomial]:
    """Distance polynomials of a QP graph as sums of quotient polynomials
    over the classes meeting each distance; each is checked exactly to give
    A_i, which is 1 on the classes at distance i and 0 on the others."""
    if not rep.is_quotient_polynomial:
        raise AnalysisError("qp_implies_dp needs a quotient-polynomial graph")
    dist = rep.partition.class_distances
    out = []
    for i in range(alg.diameter + 1):
        # tr(A_i J_j) != 0 iff class j sits at distance i
        p = polynomial_sum([q for q, dj in zip(rep.polynomials, dist)
                            if dj == i])
        if not alg.satisfies(p, [int(dj == i) for dj in dist]):
            raise ContractViolationError(
                f"summed quotient polynomials fail p_{i}(A) = A_{i}")
        out.append(p)
    return out


@dataclass(frozen=True)
class AssociationScheme:
    """Symmetric scheme with classes A_0 = I, ..., A_d and integer p^k_ij,
    held as one class label per pair, as `PairPartition` holds the walk
    partition: pair (u,v) is in class class_ids[u*n+v], a label in
    0..num_classes. A labelling is 0/1 classes that partition V x V by
    construction; the class count is explicit, so a class may be empty."""

    n: int
    num_classes: int            # d: the labels are 0..d
    class_ids: tuple[int, ...]  # pair u*n+v -> class
    intersection_numbers: tuple  # p[k][i][j]

    @staticmethod
    def of(n: int, classes, intersection_numbers) -> AssociationScheme:
        """The scheme whose class k is the flat 0/1 list classes[k], entry
        u*n+v for the pair (u,v), as the JSON writes it; the classes must
        partition V x V, and a class may be empty; p[k][i][j] is an int for
        every k, i, j. Raises GraphInputError, naming the class and the pair,
        as `PairPartition.of` does."""
        ids = np.full(n * n, -1, dtype=np.int64)
        for k, flat in enumerate(classes):
            if len(flat) != n * n:
                raise GraphInputError(f"scheme class {k} has {len(flat)} "
                                      f"entries, not n*n = {n * n}")
            if set(map(type, flat)) != {int} or not set(flat) <= {0, 1}:
                p = next(p for p, x in enumerate(flat)
                         if type(x) is not int or x not in (0, 1))
                raise GraphInputError(f"scheme class {k} has {flat[p]!r} at "
                                      f"pair {divmod(p, n)}, not 0 or 1")
            members = np.flatnonzero(np.array(flat, dtype=np.int8))
            twice = members[ids[members] >= 0]
            if len(twice):
                p = int(twice[0])
                raise GraphInputError(f"pair {divmod(p, n)} is in scheme "
                                      f"classes {ids[p]} and {k}")
            ids[members] = k
        missing = np.flatnonzero(ids < 0)
        if len(missing):
            raise GraphInputError(
                f"pair {divmod(int(missing[0]), n)} is in no scheme class")
        s = len(classes)
        table = np.array(intersection_numbers, dtype=object)
        if table.shape != (s, s, s):
            raise GraphInputError(
                f"intersection numbers are not a {s} x {s} x {s} array")
        if any(type(x) is not int for x in table.flat):
            raise GraphInputError("an intersection number is not an int")
        return AssociationScheme(
            n, s - 1, tuple(ids.tolist()),
            tuple(tuple(map(tuple, pk)) for pk in intersection_numbers))

    # `class_ids` as a read-only int64 array, cached as on `PairPartition`
    flat_index = PairPartition.flat_index


def build_scheme(rep: QuotientReport, pp: PairPartition) -> AssociationScheme:
    """The scheme generated by a QP graph: its classes are the walk classes
    J_0..J_d, held as the walk partition's own labels (`pp.class_ids`, not a
    copy), and p^k_ij = |{w : (0,w) in J_i, (w,v_k) in J_j}|, v_k the first
    v with c(0,v) = k: the pair-count definition of a scheme (Bannai and Ito
    1984; Brouwer, Cohen and Neumaier 1989). On a QP graph one pair per
    class is enough. `decide_quotient_polynomial` has verified p_k(A) = J_k,
    and with disjoint supports and r = d the J_k are a basis of A(Gamma),
    which is closed under products: J_i J_j = sum_k x_k J_k, so x_k is
    (J_i J_j)[0, v_k].

    All is read off the flat class index c (the partition is passed in, so
    it is checked): J_0 = I, labels in 0..r (the `bincount` of the class
    sizes has r+1 entries), c symmetric, every class meeting vertex 0. With
    s = d+1, one int64 `bincount` over the keys k s^2 + c(0,w) s + c(w,v_k)
    gives every p^k_ij in O(n^2 + n s + s^3) work, exactly, as counts are at
    most n. No class matrix is built. `scheme_via_solve` (`--debug-checks`)
    checks J_i J_j = sum_k p^k_ij J_k at every pair.
    """
    if not rep.is_quotient_polynomial:
        raise AnalysisError("only quotient-polynomial graphs generate a scheme")
    n = pp.n
    s = pp.r + 1
    c = pp.flat_index.reshape(n, n)
    if not np.array_equal(c == 0, np.eye(n, dtype=bool)):
        raise ContractViolationError("J_0 != I on a QP graph")
    # each pair lies in exactly one class 0..r iff the class matrices sum to J
    if c.min() < 0 or len(pp.class_sizes) != s:
        raise ContractViolationError("class matrices do not sum to J")
    if not np.array_equal(c, c.T):
        raise ContractViolationError("class matrix not symmetric")
    meets = c[0][:, None] == np.arange(s)  # meets[v, k]: c(0,v) = k
    if not meets.any(axis=0).all():
        raise ContractViolationError("some class misses vertex 0 on a QP graph")
    first = meets.argmax(axis=0)  # the first v with c(0,v) = k
    # keys[w, k] = k s^2 + c(0,w) s + c(w, first[k])
    keys = c[:, first] + c[0][:, None] * s + np.arange(s) * (s * s)
    p = np.bincount(keys.ravel(), minlength=s ** 3).reshape(s, s, s)
    scheme = AssociationScheme(
        n, pp.r, pp.class_ids,
        tuple(tuple(tuple(r) for r in pk) for pk in p.tolist()))
    vars(scheme)["flat_index"] = pp.flat_index  # the same labels, as an array
    return scheme


def scheme_via_solve(scheme: AssociationScheme) -> bool:
    """Debug witness: the classes are the J-basis and every product J_i J_j
    is sum_k p^k_ij J_k.

    The linear system J_i J_j = sum_k x_k J_k on the n^2 rows
    [J_0(u,v), ..., J_d(u,v)] has a solution exactly when this holds: the
    classes of a labelling are 0/1 and sum to J, so every row is a unit
    vector, and x_k is J_i J_j read at any pair of class k. `build_scheme`
    reads p^k_ij at one pair per class, on vertex 0; checked at every pair,
    this is the witness that the counts are the same on all pairs of each
    class. The class matrices are built from the flat class index, one
    comparison per class, and the products are dense float64 BLAS matrix
    products, an algorithm independent of the pair count in `build_scheme`.
    They are exact: every entry and every partial sum of (J_i J_j)[u][v]
    counts some of the w with c(u,w) = i and c(w,v) = j, an integer at most
    n < 2^53, whatever the order of the sums.
    """
    n = scheme.n
    cls = scheme.flat_index.reshape(n, n)
    mats = np.array([cls == k for k in range(scheme.num_classes + 1)],
                    dtype=np.float64)
    p = np.array(scheme.intersection_numbers, dtype=np.int64)
    for i in range(len(mats)):
        want = np.moveaxis(p[:, i, :][cls], 2, 0)  # want[j] = p^{c(u,v)}_ij
        if not np.array_equal(mats[i] @ mats, want):
            return False
    return True


def scheme_ring_check(alg: WalkAlgebra, rep: QuotientReport,
                      scheme: AssociationScheme) -> None:
    """Debug witness: p_i p_j = sum_k p^k_ij p_k modulo the minimal
    polynomial mu, for all i <= j; raises ContractViolationError otherwise.

    With p_k(A) = J_k this is J_i J_j = sum_k p^k_ij J_k read in the
    polynomial ring, O(d^4) work that shares nothing with the pair count or
    the int64 products. It runs on c p_k, integral for c the common
    denominator; mu is monic and integral, A being an integer matrix.
    """
    mu = alg.integral_minimal_polynomial
    deg = len(mu) - 1
    den, polys = integer_numerators(rep.polynomials)
    polys = [q + [0] * (deg - len(q)) for q in polys]
    p = scheme.intersection_numbers
    for i, pi in enumerate(polys):
        for j in range(i, len(polys)):
            prod = [0] * (2 * deg - 1)
            for a, x in enumerate(pi):
                for b, y in enumerate(polys[j]):
                    prod[a + b] += x * y
            for top in range(2 * deg - 2, deg - 1, -1):  # subtract x^e mu
                q = prod[top]
                for t, c in enumerate(mu):
                    prod[top - deg + t] -= q * c
            want = [den * sum(p[k][i][j] * pk[t] for k, pk in enumerate(polys))
                    for t in range(deg)]
            if prod[:deg] != want:
                raise ContractViolationError(
                    f"p_{i} p_{j} != sum_k p^k_{i}{j} p_k modulo the minimal polynomial")


def generates_scheme_check(scheme: AssociationScheme, alg: WalkAlgebra) -> bool:
    """True iff the scheme classes span A(Gamma), decided by partitions: the
    scheme lives on the same n points, its partition of V x V is the walk
    partition in any class order (`same_partition` of the two flat class
    indices), and r = d.

    Forward: a class in A(Gamma) is constant on the walk classes, so it is
    a union of them; each A^l, lying in the span of the classes, is
    constant on the scheme classes, so the scheme partition refines the
    walk partition. The two partitions are therefore equal, and
    r + 1 = dim A(Gamma) = d + 1. Backward: with r = d, M is square of rank
    d+1, so every class-constant matrix lies in A(Gamma), and the r+1
    disjoint classes span it. The scheme is a labelling, one class per
    pair, so its classes are 0/1 and partition V x V by construction; no
    rescan of class matrices is left to make (`AssociationScheme.of`
    rejects lists that are not 0/1 or not a partition on reading). An empty
    class meets no walk class, and reads False.
    """
    pp = alg.partition
    return (scheme.n == pp.n and pp.r == alg.d
            and same_partition(pp.flat_index, pp.r + 1,
                               scheme.flat_index, scheme.num_classes + 1))
