"""Independent reference implementations that the tests compare the library
against. Each recomputes its quantity from scratch on a different path than
the library takes (dense power products ranked on n^2-long rows, Horner on
dense matrices, a per-vertex vector ladder, exact traces), so a fault in the
library's own path cannot hide in both."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from quograph import (ContractViolationError, Graph, GraphInputError,
                      Polynomial, ToleranceError, WalkAlgebra, mat_mul)
from quograph import exact
from quograph.exact import (IntMatrix, RatMatrix, combine_powers, identity,
                            mat_vec)
from quograph.spectral import SpectralDecomposition, Spectrum


def all_ones(n: int) -> IntMatrix:
    return [[1] * n for _ in range(n)]


def trace(m) -> int | Fraction:
    return sum(m[i][i] for i in range(len(m)))


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
    ladder = WalkAlgebra.of(g).ladder
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


def crossed_multiplicities(sd: SpectralDecomposition, u: int, v: int) -> MultiplicityVector:
    """m(u,v): the (u,v)-entries of the idempotents E_0..E_d."""
    return MultiplicityVector(tuple(float(e[u, v]) for e in sd.idempotents))


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
