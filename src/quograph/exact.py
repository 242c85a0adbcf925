"""Dense exact linear algebra over arbitrary-precision integers and rationals.

Matrices are plain nested lists; integer matrices hold Python ints (unbounded,
walk counts grow like k^l), rational ones hold Fractions in lowest terms.
This module holds the exact kernels (rank, polynomials) that the
classification decisions use next to the walk algebra in partitions.py,
which reads every power A^l off the walk classes rather than keep it as an
n x n matrix; no decision is a tolerance call. `subset_ranks` ranks a batch
of small matrices, at once mod a fixed prime in numpy when the batch is
large enough, and keeps a modular rank only where a rank bound proves it
equal to the rank over Q.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import gcd
from operator import mul

import numpy as np

IntMatrix = list  # list[list[int]]
RatMatrix = list  # list[list[Fraction]]


def identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


class RowBasis:
    """Incremental row-echelon basis over Q for integer rows.

    Rows are kept integral (cross-multiplication elimination, gcd-reduced),
    so membership tests are exact regardless of entry growth.
    """

    def __init__(self):
        self._rows: dict[int, list[int]] = {}  # pivot column -> reduced row

    @property
    def rank(self) -> int:
        return len(self._rows)

    def add(self, row) -> bool:
        """Reduce `row` against the basis; add it if independent.

        Returns True when the row was linearly independent of the basis.
        """
        row = list(row)
        for p in sorted(self._rows):
            if row[p]:
                r = self._rows[p]
                a, b = r[p], row[p]
                row = [a * x - b * y for x, y in zip(row, r)]
        for j, x in enumerate(row):
            if x:
                g = gcd(*row[j:])
                if x < 0:
                    g = -g
                self._rows[j] = [y // g for y in row]
                return True
        return False


_INT_ONLY = frozenset({int})


def _int_rows(m):
    """Each row scaled by the lcm of its denominators (rank is unaffected)."""
    for row in m:
        # one exact type test in C, not an isinstance(x, Fraction) ABC check
        # per entry
        if _INT_ONLY.issuperset(map(type, row)):
            yield row
            continue
        scale = 1
        for x in row:
            d = x.denominator if isinstance(x, Fraction) else 1
            scale = scale * d // gcd(scale, d)
        yield [int(x * scale) for x in row]


def rank(m) -> int:
    """Exact rank over Q of an integer or rational matrix."""
    basis = RowBasis()
    for row in _int_rows(m):
        if basis.add(row) and basis.rank == len(row):
            break  # full column rank: no further row is independent
    return basis.rank


RANK_PRIME = 2 ** 31 - 1  # entries below 2^31, so every product is below 2^62
# Elimination work (entries times pivots, summed over the matrices) from
# which one numpy batch mod p beats ranking each matrix in Python; timed on
# the test corpus, where graphs on at most 7 vertices stay below it.
BATCH_WORK = 4096


def _ranks_mod_p(a: np.ndarray) -> np.ndarray:
    """Ranks over GF(p), p = RANK_PRIME, of a (k, h, w) int64 batch with
    entries in [0, p).

    Column by column, each matrix takes a row with a nonzero first entry pv
    as pivot and clears the column by the fraction-free step
    row <- pv row - f pivot_row (mod p), with no inverse; the column then
    drops. The step clears the pivot row too, which leaves the span of the
    other rows. A matrix with no pivot takes pv = 1, which changes nothing."""
    if a.shape[1] < a.shape[2]:  # loop over the shorter side
        a = a.transpose(0, 2, 1)
    at = np.arange(len(a))
    pivots = [np.zeros(len(a), dtype=np.int64)]
    for _ in range(a.shape[2]):
        c0 = a[:, :, 0]
        prow = a[at, (c0 != 0).argmax(axis=1)]
        pivots.append(prow[:, 0])
        pv = np.maximum(prow[:, None, :1], 1)  # entries are non-negative
        a = (pv * a[:, :, 1:] - c0[:, :, None] * prow[:, None, 1:]) % RANK_PRIME
    return np.count_nonzero(pivots, axis=0)


def subset_ranks(rows, subsets) -> list[int]:
    """Exact ranks over Q of the integer matrices made of some of `rows`:
    matrix i has the rows whose indices subsets[i] lists.

    From BATCH_WORK on, all matrices are ranked mod p in one numpy batch.
    A minor that is nonzero mod p is nonzero over Z, so
    rank_p <= rank_Q <= min(#rows, #columns); a modular rank that reaches
    that bound is the rank over Q. Every other matrix, and each one of a
    smaller batch, is ranked over Q by `rank`."""
    w = len(rows[0])
    bounds = [min(len(s), w) for s in subsets]
    ranks = [-1] * len(subsets)  # no modular rank: rank over Q
    if sum(len(s) * b for s, b in zip(subsets, bounds)) * w >= BATCH_WORK:
        try:
            mod = np.array(rows, dtype=np.int64) % RANK_PRIME
        except OverflowError:
            mod = np.array([[x % RANK_PRIME for x in row] for row in rows],
                           dtype=np.int64)
        # the chosen rows of each matrix, then zero rows as padding
        mod = np.vstack([mod, np.zeros_like(mod[:1])])
        order = np.full((len(subsets), max(map(len, subsets))), len(rows))
        for i, s in enumerate(subsets):
            order[i, :len(s)] = s
        ranks = _ranks_mod_p(mod[order]).tolist()
    return [rk if rk == b else rank([rows[j] for j in s])
            for rk, b, s in zip(ranks, bounds, subsets)]


class BerlekampMassey:
    """Massey's (1969) shortest recurrence C = [1, c_1, ..., c_L] mod p of the
    terms s so far, sum_i c_i s_(k-i) = 0 for k >= L = length; O(L) a term."""

    def __init__(self, p: int, terms=()):
        self.p, self.s, self.c, self.b, self.length, self.gap, self.last = (
            p, [], [1], [1], 0, 1, 1)
        self.extend(terms)

    def extend(self, terms) -> None:
        p, s = self.p, self.s
        for x in terms:
            s.append(x % p)
            c, delta = self.c, sum(map(mul, self.c, reversed(s))) % p
            if delta:  # C -= delta / last * x^gap * B
                f = delta * pow(self.last, -1, p)
                self.c = [(a - f * y) % p for a, y in
                          zip_longest(c, [0] * self.gap + self.b, fillvalue=0)]
                if 2 * self.length < len(s):  # the length grows: B = old C
                    self.length, self.b = len(s) - self.length, c
                    self.last, self.gap = delta, 0
            self.gap += 1

    def polynomial(self) -> list[int]:  # x^length C(1/x), ascending: monic
        return (self.c + [0] * self.length)[self.length::-1]


# --- polynomials ----------------------------------------------------------

@dataclass(frozen=True)
class Polynomial:
    """Exact rational polynomial, coefficients ascending, trailing zeros trimmed."""

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def of(seq) -> "Polynomial":
        c = [Fraction(x) for x in seq]
        while c and c[-1] == 0:
            c.pop()
        return Polynomial(tuple(c))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial.of(
            [(self.coeffs[i] if i < len(self.coeffs) else 0)
             + (other.coeffs[i] if i < len(other.coeffs) else 0)
             for i in range(n)])

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not self.coeffs or not other.coeffs:
            return Polynomial(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial.of(out)

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def frac_str(q) -> str:
    """Serialize a rational as "num/den", den omitted when 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_frac(s: str) -> Fraction:
    return Fraction(s)


def poly_to_text(p: Polynomial, var: str = "x") -> str:
    """Render like "1/26 (3x^4 - 10x^3 - 10x^2 + 75x - 36)"."""
    if not p.coeffs:
        return "0"
    scale = 1
    for c in p.coeffs:
        scale = scale * c.denominator // gcd(scale, c.denominator)
    ints = [int(c * scale) for c in p.coeffs]
    terms = []
    for deg in range(len(ints) - 1, -1, -1):
        c = ints[deg]
        if c == 0:
            continue
        mag = abs(c)
        if deg == 0:
            body = str(mag)
        else:
            xpow = var if deg == 1 else f"{var}^{deg}"
            body = xpow if mag == 1 else f"{mag}{xpow}"
        if not terms:
            terms.append(body if c > 0 else f"-{body}")
        else:
            terms.append(f"{'+' if c > 0 else '-'} {body}")
    body = " ".join(terms)
    if scale == 1:
        return body
    return f"1/{scale} ({body})"
