"""Dense exact linear algebra over arbitrary-precision integers and rationals.

Matrices are plain nested lists; integer matrices hold Python ints (unbounded,
walk counts grow like k^l), rational ones hold Fractions in lowest terms.
This module holds the exact kernels (rank, polynomials) that the
classification decisions use next to the walk algebra in partitions.py,
which reads every power A^l off the walk classes rather than keep it as an
n x n matrix; no decision is a tolerance call. `subset_ranks` ranks a batch
of small matrices, at once mod a fixed prime in numpy when the batch is
large enough, and keeps a modular rank only where a rank bound proves it
equal to the rank over Q. The word primes below 2^31 and the int64
elimination and products modulo them serve the class solves of
`WalkAlgebra.class_polynomials`, which checks each answer exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import zip_longest
from math import gcd, lcm
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


# --- arithmetic modulo word primes ---------------------------------------

def _is_prime(x: int) -> bool:
    """Miller-Rabin to the bases 2, 7 and 61, which decide primality for
    every x below 4,759,123,141 (Jaeschke 1993)."""
    if x < 2 or any(x % a == 0 for a in (2, 7, 61)):
        return x in (2, 7, 61)
    odd, twos = x - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for a in (2, 7, 61):
        y = pow(a, odd, x)
        if y in (1, x - 1):
            continue
        for _ in range(twos - 1):
            y = y * y % x
            if y == x - 1:
                break
        else:
            return False
    return True


@cache
def _word_prime(i: int) -> int:
    """The i-th prime below 2^31, counting down from _word_prime(0) =
    2^31 - 1 = RANK_PRIME; each is found on first use, then kept."""
    x = _word_prime(i - 1) - 2 if i else RANK_PRIME
    while not _is_prime(x):
        x -= 2
    return x


def _mat_mul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for int64 arrays with entries in [0, p), p < 2^31, and
    fewer than 2^16 columns in a: b is split at bit 16, so every product is
    below 2^47 and every sum of them below 2^63."""
    return ((a @ (b >> 16) % p << 16) + a @ (b & 0xFFFF) % p) % p


def _gauss_jordan(a: np.ndarray, p: int):
    """(rows, det B, adj B = det B B^-1) mod p, adj read-only, B = a[rows]
    the block of the pivot rows in ascending order, for an int64 array a of
    full column rank mod p, with entries in [0, p), p < 2^31; None for a of
    lower rank.

    Column c takes as pivot the first row not yet a pivot with a nonzero
    entry left, is scaled to 1 and cleared from every other row (every
    product below 2^62). In pivot order, the pivot rows' block has the
    product of the pivots as determinant and, beside a, the columns of the
    row operations at each pivot row as inverse: one column is opened as its
    row turns pivot, since until then no operation has added that row to
    another. Step c reads only columns c to s+c: the earlier ones of a are
    cleared, and the later ones carried are zero. Sorting the rows permutes
    the inverse's columns and, by its parity, the determinant's sign."""
    h, s = a.shape
    a = np.hstack([a, np.zeros((h, s), dtype=np.int64)])
    free = np.ones(h, dtype=np.int64)
    rows, det = [], 1
    for c in range(s):
        pivots = (a[:, c] * free).nonzero()[0]
        if not len(pivots):
            return None
        k = int(pivots[0])
        rows.append(k)
        free[k] = 0
        a[k, s + c] = 1
        pivot = int(a[k, c])
        det = det * pivot % p
        w = a[:, c:s + c + 1]
        row = w[k] * pow(pivot, -1, p) % p
        w -= w[:, :1] * row
        w %= p
        w[k] = row
    order = np.array(rows)
    if np.count_nonzero(np.triu(order[:, None] > order, 1)) % 2:
        det = -det % p  # an odd number of pairs out of order
    adj = a[rows, s:][:, np.argsort(order)] * det % p
    adj.flags.writeable = False
    return sorted(rows), det, adj


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
        c = [x if type(x) is Fraction else Fraction(x) for x in seq]
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


def integer_numerators(polys) -> tuple[int, list[list[int]]]:
    """(den, nums): den the lcm of every coefficient's denominator, and
    nums[i] the coefficients of den * polys[i], as ints."""
    den = lcm(*(c.denominator for p in polys for c in p.coeffs))
    return den, [[c.numerator * (den // c.denominator) for c in p.coeffs]
                 for p in polys]


def polynomial_sum(polys) -> Polynomial:
    """The sum of the polynomials, added in integers over their common
    denominator (`integer_numerators`): one Fraction per coefficient."""
    den, nums = integer_numerators(polys)
    return Polynomial.of([Fraction(sum(c), den)
                          for c in zip_longest(*nums, fillvalue=0)])


def frac_str(q) -> str:
    """Serialize a rational as "num/den", den omitted when 1."""
    if type(q) is not Fraction:
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
