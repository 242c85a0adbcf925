"""Walk vectors, the walk-regular partition of V x V, and the walk algebra.

Pairs (u,v) are grouped by their exact vector of walk counts
(a_uv^(0), ..., a_uv^(d)); the classes J_0..J_r and their 0/1 matrices drive
every later decision. Big-integer vectors are compared exactly, never hashed
down to machine words.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm

from .errors import ContractViolationError
from .exact import Polynomial, RowBasis, identity, mat_mul, solve
from .graphs import DistanceData, Graph, distance_class_matrix, require_connected


def adjacency_power_ladder(g: Graph) -> list[list[list[int]]]:
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


def _first_nonzero(vec) -> int:
    for i, x in enumerate(vec):
        if x:
            return i
    raise ContractViolationError("all-zero walk vector on a connected graph")


@dataclass(frozen=True)
class PairPartition:
    """The partition {J_0,...,J_r} of V x V by walk-vector equality.

    Class 0 holds the diagonal pairs; remaining classes are ordered by
    (common distance, then descending walk vector) so output is reproducible.
    """

    n: int
    classes: tuple[tuple[tuple[int, int], ...], ...]
    class_walk_vectors: tuple[tuple[int, ...], ...]
    class_index: tuple[tuple[int, ...], ...]  # (u,v) -> class id
    diagonal_classes: tuple[int, ...]

    @staticmethod
    def of(n: int, vectors, classes) -> PairPartition:
        """The partition with these class walk vectors and pair classes; the
        pair index and the diagonal classes (a^(0) = 1) are derived."""
        index = [[0] * n for _ in range(n)]
        for i, cls in enumerate(classes):
            for u, v in cls:
                index[u][v] = i
        return PairPartition(n, tuple(classes), tuple(vectors),
                             tuple(tuple(row) for row in index),
                             tuple(i for i, v in enumerate(vectors) if v[0] == 1))

    @property
    def r(self) -> int:
        return len(self.classes) - 1

    @property
    def diagonal_is_identity(self) -> bool:
        return len(self.diagonal_classes) == 1 and len(self.classes[0]) == self.n

    def class_distance(self, i: int) -> int:
        return _first_nonzero(self.class_walk_vectors[i])

    def class_matrix(self, i: int) -> list[list[int]]:
        m = [[0] * self.n for _ in range(self.n)]
        for u, v in self.classes[i]:
            m[u][v] = 1
        return m

    def as_setpartition(self) -> frozenset[frozenset[tuple[int, int]]]:
        return frozenset(frozenset(c) for c in self.classes)


def group_pairs(n: int, ladder) -> PairPartition:
    """Group all ordered pairs by exact equality of their entries in the
    given powers [I, A, A^2, ...]."""
    groups: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for u in range(n):
        for v in range(n):
            vec = tuple(p[u][v] for p in ladder)
            groups.setdefault(vec, []).append((u, v))
    diag = sorted(v for v in groups if v[0] == 1)           # a^(0)=1 iff u=v
    rest = sorted((v for v in groups if v[0] == 0),
                  key=lambda v: (_first_nonzero(v), tuple(-x for x in v)))
    order = diag + rest
    return PairPartition.of(n, order, [tuple(groups[v]) for v in order])


@dataclass(frozen=True)
class WalkAlgebra:
    """The adjacency algebra A(Gamma) = span(I, A, ..., A^d) of a connected
    graph, read on its r+1 walk classes; build it once with `of`.

    Each A^l with l <= d is constant on every class by construction, so
    p(A) = T holds exactly when T is constant on classes and M c = t, where
    c are the coefficients of p, t the class values of T, and M the
    (r+1) x (d+1) class walk matrix, M[k][l] = a^(l) on class k. M has rank
    d+1, the rank of the vectorized ladder.
    """

    g: Graph
    dd: DistanceData
    ladder: tuple            # I, A, ..., A^d
    partition: PairPartition
    basis_rows: tuple[int, ...]  # d+1 classes whose rows of M are independent

    @staticmethod
    def of(g: Graph) -> WalkAlgebra:
        dd = require_connected(g)
        ladder = tuple(adjacency_power_ladder(g))
        pp = group_pairs(g.n, ladder)
        basis, rows = RowBasis(), []
        for k, vec in enumerate(pp.class_walk_vectors):
            if basis.add(vec):
                rows.append(k)
        if len(rows) != len(ladder):
            raise ContractViolationError(
                f"class walk matrix has rank {len(rows)}, expected d+1 = {len(ladder)}")
        return WalkAlgebra(g, dd, ladder, pp, tuple(rows))

    @property
    def d(self) -> int:
        return len(self.ladder) - 1

    @property
    def m(self) -> tuple[tuple[int, ...], ...]:
        return self.partition.class_walk_vectors

    @cached_property
    def distance_polynomials(self) -> tuple[Polynomial, ...] | None:
        """The D+1 polynomials p_i with p_i(A) = A_i, the distance-i matrix,
        or None when some A_i lies outside A(Gamma); solved once per graph."""
        polys = self.membership(
            [distance_class_matrix(self.g, i, self.dd)
             for i in range(self.dd.diameter + 1)])
        return None if polys is None else tuple(polys)

    def membership(self, targets) -> list[Polynomial] | None:
        """The polynomials p with p(A) = T and deg p <= d, one per n x n
        target T, or None when some target lies outside A(Gamma)."""
        columns = []
        for t in targets:
            col = []
            for cls in self.partition.classes:
                vals = {t[u][v] for u, v in cls}
                if len(vals) != 1:
                    return None  # an orbit, say, can split a walk class
                col.append(vals.pop())
            columns.append(col)
        return self.class_polynomials(columns)

    def class_polynomials(self, columns) -> list[Polynomial] | None:
        """The polynomials p_j with p_j(A) = columns[j][k] on every class k,
        or None when some column lies outside the column space of M.

        One exact solve on the d+1 basis rows, then every row of M checked.
        """
        rows = self.basis_rows
        sol = solve([self.m[k] for k in rows],
                    [[col[k] for col in columns] for k in rows])
        polys = [Polynomial.of(c) for c in zip(*sol)]
        if all(self.satisfies(p, col) for p, col in zip(polys, columns)):
            return polys
        return None

    def satisfies(self, p: Polynomial, values) -> bool:
        """p(A) equals values[k] on every class k: M c = values, checked in
        integers on all r+1 rows."""
        den = lcm(*(c.denominator for c in p.coeffs))
        ints = [int(c * den) for c in p.coeffs]
        return all(sum(x * y for x, y in zip(row, ints)) == den * v
                   for row, v in zip(self.m, values))


def global_partition(g: Graph) -> PairPartition:
    """The walk-regular partition of a connected graph's ordered pairs."""
    return WalkAlgebra.of(g).partition


@dataclass(frozen=True)
class LocalPartition:
    """Cells {v : (u,v) in J_i} around a center; empty cells dropped."""

    center: int
    cells: tuple[tuple[int, ...], ...]
    class_ids: tuple[int, ...]  # global class behind each cell

    @property
    def r(self) -> int:
        return len(self.cells) - 1

    def characteristic_vector(self, i: int, n: int) -> list[int]:
        chi = [0] * n
        for v in self.cells[i]:
            chi[v] = 1
        return chi


def local_partition(pp: PairPartition, u: int) -> LocalPartition:
    """Cells in class order, vertices ascending; one row of the pair index."""
    cells: dict[int, list[int]] = {}
    for v, i in enumerate(pp.class_index[u]):
        cells.setdefault(i, []).append(v)
    ids = sorted(cells)
    return LocalPartition(center=u, cells=tuple(tuple(cells[i]) for i in ids),
                          class_ids=tuple(ids))


def is_distance_faithful(lp: LocalPartition, dd: DistanceData) -> bool:
    """True iff every cell is distance-homogeneous from the center."""
    du = dd.dist[lp.center]
    return all(len({du[v] for v in cell}) == 1 for cell in lp.cells)


def check_regular(g: Graph, lp: LocalPartition):
    """Quotient matrix B with b_ij = |Gamma(u) & cell_j|, u in cell_i.

    Verified by explicit per-vertex counting; returns None when the counts
    depend on the choice of u (partition not equitable).
    """
    cell_of = {}
    for j, cell in enumerate(lp.cells):
        for v in cell:
            cell_of[v] = j
    m = len(lp.cells)
    b = []
    for cell in lp.cells:
        ref = None
        for u in cell:
            counts = [0] * m
            for w in g.neighbors[u]:
                counts[cell_of[w]] += 1
            if ref is None:
                ref = counts
            elif counts != ref:
                return None
        b.append(ref)
    return b
