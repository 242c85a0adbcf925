"""Walk vectors, the walk-regular partition of V x V, and the walk algebra.

Pairs (u,v) are grouped by their exact vector of walk counts
(a_uv^(0), ..., a_uv^(d)): up to a few hundred pairs once mu is proved;
past that one power at a time, regrouping only the pairs whose new entry
differs from their class's first pair. The classes J_0..J_r, held as one
class label per pair, drive every later decision.
The powers are numpy arrays, int64 while no sum can overflow and Python
ints past that; walk counts are compared exactly as Python ints, never
through floats or hashes: residues only propose; the trace identity proves.
So in the solves over the classes: modulo word primes, int64 eliminations
propose a candidate by the CRT, and an exact check of M N = den T, or a
rank mod p above d+1, decides.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import count
from math import prod
from operator import mul

import numpy as np

from .errors import ContractViolationError, GraphInputError
from .exact import (BerlekampMassey, Polynomial, _gauss_jordan, _mat_mul_mod,
                    _word_prime, integer_numerators)
from .graphs import Graph, require_connected


def walk_step(g: Graph, power: np.ndarray) -> np.ndarray:
    """A P for any n x n integer array P (`_neighbor_sum`), exact in every
    case: each entry sums at most k_max entries of P, so int64 cannot
    overflow while max |P| * k_max < 2^63. This check reads max |P| off P,
    negative entries included; past the bound P is cast to an object array
    of Python ints, and A P stays one. The ladder carries its own bound."""
    if power.dtype != object:
        top = max(int(power.max()), -int(power.min()))
        if top * max(map(len, g.neighbors)) >= 1 << 63:
            power = power.astype(object)
    return _neighbor_sum(g, power)


def _neighbor_sum(g: Graph, power: np.ndarray) -> np.ndarray:
    """A P unchecked, O(n^2 k): row u sums the rows P[w], w ~ u, gathered
    through `g.neighbor_table`, padded with n to index an appended zero row,
    or, where `g.degrees_skewed`, through `g.neighbor_runs`, run by run."""
    rows = np.concatenate([power, np.zeros((1, g.n), power.dtype)])
    if g.degrees_skewed:
        flat, starts = g.neighbor_runs
        return np.add.reduceat(rows[flat], starts, axis=0)
    return np.add.reduce(rows[g.neighbor_table], axis=0)


# Up to this many pairs u <= v the ladder keeps each power's entries on the
# pairs and groups them once, at the exit; past it, it carries each class's
# first pair (`_refine`). Timed as whole ladders in each form (2-core VM,
# Python 3.11, numpy 2.4, best of 45, grouped against carried): cycle:8
# (36 pairs) 155 against 286 us, cycle:16 (136) 239 against 401 us,
# G(16, 0.4) 0.95 against 1.45 ms, cycle:20 (210) 309 against 538 us and
# G(24, 0.3) (300) 3.3 against 4.4 ms; but circulant:72:1,4, whose object
# powers it dots, 32 against 5.5 ms, and Q7 4.3 against 3.4 ms (best of 9).
# Corpus graphs have at most 136 pairs and `large` inputs, carried, 300.
SORT_REFINE_PAIRS = 200
# 2^61 - 1 and the 14 primes below it, for Berlekamp-Massey and the CRT
# lift: their product, about 2^914, proves mu while 2 (1 + k_max)^(d+1) is
# less (G(60, 0.1): 2^236); past that the ladder borders past A^n.
TRACE_PRIMES = tuple(2**61 - c for c in (1, 31, 45, 229, 259, 283, 339, 391,
                                          403, 465, 531, 579, 675, 759, 799))


def _refine(ids: np.ndarray, vals: np.ndarray, first: np.ndarray):
    """The classes ids split by the entries vals of a new power, keyed by
    (class, value) as in 1-WL colour refinement: the new labels, the
    (class, value) of each new class in label order, and their first pairs.

    first[k] is the lowest position of class k, and each class keeps its
    label at its first pair: only the pairs whose value differs from the
    value there, dev, are grouped (`_group`), under labels appended after
    the old ones, and their first pairs are appended to first. A power that
    splits no class, as A^(d+1) never does, returns ids and first as given,
    unsorted; the values compare as int64 or as Python ints, exactly."""
    head = vals[first]
    dev = np.flatnonzero(vals != head[ids])
    heads = list(enumerate(head.tolist()))
    if not len(dev):
        return ids, heads, first
    labels, lead, split = _group(ids[dev], vals[dev])
    new = ids.copy()
    new[dev] = len(first) + labels
    return new, heads + split, np.concatenate((first, dev[lead]))


def _group(ids: np.ndarray, vals: np.ndarray):
    """(labels, lead, keys): the pairs grouped by (class, value), labelled
    0, 1, ...; lead[j] is the position of group j's first pair and keys[j]
    its (class, value). Int64 values take one stable lexsort, a group
    starting where either key changes; Python ints are hashed in a dict,
    labelled in order of first appearance, as sorting them loses to hashing
    them."""
    if vals.dtype == object:
        keys: dict[tuple, int] = {}
        labels = np.array([keys.setdefault(key, len(keys))
                           for key in zip(ids.tolist(), vals.tolist())])
        return labels, np.unique(labels, return_index=True)[1], list(keys)
    srt = np.lexsort((vals, ids))
    cls, val = ids[srt], vals[srt]
    start = np.empty(len(srt), dtype=bool)
    start[0] = True
    start[1:] = (cls[1:] != cls[:-1]) | (val[1:] != val[:-1])
    labels = np.empty_like(srt)
    labels[srt] = np.cumsum(start) - 1
    return labels, srt[start], list(zip(cls[start].tolist(),
                                        val[start].tolist()))


def adjacency_power_ladder(g: Graph) -> WalkAlgebra:
    """The walk algebra of g, read off I, A, ..., A^d, where d+1 is the
    adjacency algebra dimension. No n x n power is kept. g may be
    disconnected; `WalkAlgebra.of` checks connectivity first.

    One pass per power, holding it and the one before: A^(l+1) is
    `_neighbor_sum` of A^l, cast to Python ints where `walk_step` would, by
    the carried bound max |A^(l+1)| <= k_max max |A^l|. Up to
    SORT_REFINE_PAIRS pairs u <= v (A^l is symmetric), each power's entries
    on them are kept; past it they are refined by (class, new entry) in
    `_refine`, which regroups only the pairs that leave their class's first
    pair. As <A^i, A^j>_F = tr A^(i+j) = p_(i+j), the traces gain p_(2l-1) =
    <A^(l-1), A^l>_F and p_(2l) = ||A^l||_F^2. Berlekamp-Massey mod a prime
    reads them; once its length L has 2L < #traces, `_proved_polynomial`
    lifts its candidate q, and a proved q is mu, so d = L - 1: (1) mu(A) = 0
    makes mu a recurrence of (p_k) mod every prime, so L <= deg mu; (2)
    ||q(A)||_F^2 = sum_ij q_i q_j p_(i+j) = 0 proves q(A) = 0; (3) so mu
    divides the monic q of degree L, and q = mu. Residues only propose; the
    trace identity proves. The Hankel matrices of (p_k) to order d+1 are
    positive definite, so the proof comes at A^(d+1); past A^n, `_border`
    finds mu exactly. Kept entries are grouped by walk vector, to A^d or,
    for `_border`, to A^n. The classes, copied to (v, u), are relabelled
    once in the report order: diagonal classes (a^(0) = 1) by ascending walk
    vector, the rest by descending walk vector, which orders them by distance.
    """
    n, k_max = g.n, max(map(len, g.neighbors))
    upper = np.flatnonzero(np.tri(n, dtype=bool).T)  # pairs u <= v, row-major
    cur, top = np.eye(n, dtype=np.int64), 1  # max |A^l| <= top
    # small: each power's entries on the pairs are kept; else every power
    # so far is constant on each class, first[k] its lowest position
    small, columns = len(upper) <= SORT_REFINE_PAIRS, []
    first, ids = np.zeros(1, np.int64), np.zeros(len(upper), np.int64)
    vectors = [()]            # class -> its entries in the powers so far
    traces, mu, bm = [n], None, BerlekampMassey(TRACE_PRIMES[0], [n])
    for l in count():
        if small:
            columns.append(cur.ravel()[upper].tolist())
        else:
            new, heads, new_first = _refine(ids, cur.ravel()[upper], first)
        if l:  # int64 dots beat class sums on the corpus, and class sums
            # beat object dots past int64 (CHANGES.md, timed)
            if cur.dtype != object and n * n * top * top < 1 << 63:
                traces += [int(np.vdot(prev, cur)), int(np.vdot(cur, cur))]
            elif small:  # exact dots in Python ints
                a, b = prev.ravel().tolist(), cur.ravel().tolist()
                traces += [sum(map(mul, a, b)), sum(map(mul, b, b))]
            else:  # weights A^l on the classes, u < v for (u,v) and (v,u)
                w = [(s if vectors[k][0] else 2 * s) * x
                     for (k, x), s in zip(heads, np.bincount(new).tolist())]
                traces += [sum(map(mul, w, (vectors[k][-1] for k, _ in heads))),
                           sum(map(mul, w, (x for _, x in heads)))]
            if bm:  # None once the primes have run out
                bm.extend(traces[-2:])
                if 2 * bm.length < len(traces):
                    bm, mu = _proved_polynomial(traces, bm, k_max)
            if mu or l > n:
                break
        if not small:
            ids, first = new, new_first
            vectors = [vectors[k] + (x,) for k, x in heads]
        if cur.dtype != object and top * k_max >= 1 << 63:
            top = int(cur.max())  # walk counts are never negative
            if top * k_max >= 1 << 63:
                cur = cur.astype(object)  # as walk_step would cast it
        prev, cur = cur, _neighbor_sum(g, cur)
        top *= k_max  # each entry sums at most k_max entries of A^l
    if small:  # the pairs grouped by walk vector, to A^d or, unproved, A^n
        keys, vecs = {}, zip(*columns[:len(mu) - 1 if mu else l])
        ids = [keys.setdefault(vec, len(keys)) for vec in vecs]
        vectors = list(keys)
    if not mu:  # A^(d+1) = sum_j (y_j / det) A^j on every class
        *_, det, y = _border(vectors, range(len(vectors)))
        mu = [Fraction(-c, det) if c % det else -c // det for c in y] + [1]
    vectors = [vec[:len(mu) - 1] for vec in vectors]  # powers up to A^d
    vec = vectors.__getitem__
    order = (sorted((k for k, v in enumerate(vectors) if v[0]), key=vec)
             + sorted((k for k, v in enumerate(vectors) if not v[0]),
                      key=vec, reverse=True))
    ids = np.argsort(order, kind="stable")[ids]  # place = order^-1
    full = np.zeros((n, n), dtype=np.int64)
    full.flat[upper] = ids  # zero below the diagonal
    flat = (full | full.T).ravel()
    pp = PairPartition(n, tuple(flat.tolist()), tuple(map(vec, order)))
    flat.flags.writeable = False
    vars(pp)["flat_index"] = flat  # the same labels, as an array
    return WalkAlgebra(g, pp, Polynomial.of(mu), tuple(traces[:2 * len(mu) - 1]))


def _proved_polynomial(traces, bm, k_max: int):
    """(bm, mu): mu the first CRT lift q of bm's candidate, through the next
    primes of as long a recurrence, with sum q_i q_j p_(i+j) = 0, or None; a
    longer recurrence, or a failed lift past 2 (1 + k_max)^L, restarts bm."""
    lift, mod, bound = [0] * (bm.length + 1), 1, (1 + k_max) ** bm.length
    for p in TRACE_PRIMES[TRACE_PRIMES.index(bm.p):]:
        other = bm if p == bm.p else BerlekampMassey(p, traces)
        if other.length > bm.length or mod > 2 * bound:
            return other, None  # bm.p divides a Hankel minor
        if other.length == bm.length:  # else p does
            inv = pow(mod, -1, p)
            lift = [a + mod * ((b - a) * inv % p)
                    for a, b in zip(lift, other.polynomial())]
            mod *= p
            q = [a - mod if 2 * a > mod else a for a in lift]
            if not sum(qi * sum(map(mul, q, traces[i:]))
                       for i, qi in enumerate(q)):
                return bm, q
    return None, None  # no prime left: the ladder stops proving


def _border(m, order):
    """(basis, adj, det, y): per column j, the first row k of `order` with a
    nonzero residual det m[k][j] - m[k][:j] y, y = adj b, borders the block B,
    adj = det B^-1 (after Bareiss); y is kept at a dependent column, or None."""
    basis, adj, det = [], (), 1
    for j in range(len(m[0])):
        y = [sum(map(mul, row, (m[k][j] for k in basis))) for row in adj]
        for k in order:
            if k not in basis and (t := det * m[k][j] - sum(map(mul, m[k], y))):
                break
        else:
            return tuple(basis), adj, det, y
        z = [sum(map(mul, m[k], col)) for col in zip(*adj)]  # m_k adj
        grown = []
        for row, yi in zip(adj, y):
            out, rem = zip(*[divmod(t * a + yi * zi, det)
                             for a, zi in zip(row, z)])
            if any(rem):
                raise ContractViolationError(
                    "bordered inverse of the basis block is not integral")
            grown.append((*out, -yi))
        adj, det = (*grown, (*(-zi for zi in z), det)), t
        basis.append(k)
    return tuple(basis), adj, det, None


def _first_nonzero(vec) -> int:
    for i, x in enumerate(vec):
        if x:
            return i
    raise ContractViolationError("all-zero walk vector on a connected graph")


@dataclass(frozen=True)
class PairPartition:
    """The partition {J_0,...,J_r} of V x V by walk-vector equality, held
    once: pair (u,v) is in class class_ids[u*n+v]. Class sizes, first pairs,
    rows and pair lists are all read off this labelling.
    Diagonal classes come first, then the others by (distance, descending
    walk vector), so output is reproducible."""

    n: int
    class_ids: tuple[int, ...]  # pair u*n+v -> class
    class_walk_vectors: tuple[tuple[int, ...], ...]

    @staticmethod
    def of(n: int, vectors, classes) -> PairPartition:
        """The partition with these walk vectors, all of one length, and
        pair lists of two int vertices each, which must partition V x V; a
        class may be empty. Raises GraphInputError, naming the class."""
        ids = [-1] * (n * n)
        for k, (vec, cls) in enumerate(zip(vectors, classes)):
            if len(vec) != len(vectors[0]):
                raise GraphInputError(f"class {k} has a walk vector of length "
                                      f"{len(vec)}, not {len(vectors[0])}")
            for pair in cls:
                if not (type(pair) in (list, tuple)
                        and list(map(type, pair)) == [int, int]):
                    raise GraphInputError(f"class {k} has pair {pair!r}, "
                                          "not two int vertices")
                u, v = pair
                if not (0 <= u < n and 0 <= v < n):
                    raise GraphInputError(f"pair ({u}, {v}) lies outside V x V")
                if ids[u * n + v] >= 0:
                    raise GraphInputError(f"pair ({u}, {v}) is listed in "
                                          f"classes {ids[u * n + v]} and {k}")
                ids[u * n + v] = k
        if -1 in ids:
            raise GraphInputError(f"pair {divmod(ids.index(-1), n)} is in no class")
        return PairPartition(n, tuple(ids), tuple(vectors))

    @property
    def r(self) -> int:
        return len(self.class_walk_vectors) - 1

    @property
    def diagonal_is_identity(self) -> bool:
        return (set(self.class_ids[::self.n + 1]) == {0}
                and self.class_sizes[0] == self.n)

    @cached_property
    def class_distances(self) -> tuple[int, ...]:
        """The distance of each class: the first nonzero entry of its walk
        vector, since a^(l)_uv = 0 for l < dist(u,v) and is positive at
        l = dist(u,v). Computed once per partition."""
        return tuple(map(_first_nonzero, self.class_walk_vectors))

    @cached_property
    def flat_index(self) -> np.ndarray:
        """`class_ids` as a read-only int64 array, built once; no field, so
        equality and `dataclasses.replace` see only `class_ids`."""
        flat = np.array(self.class_ids, dtype=np.int64)
        flat.flags.writeable = False
        return flat

    @cached_property
    def class_sizes(self) -> tuple[int, ...]:
        """|J_0|, ..., |J_r|: one `bincount` of the flat index."""
        return tuple(np.bincount(self.flat_index,
                                 minlength=self.r + 1).tolist())

    @cached_property
    def class_members(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (members, bounds): class k's pairs u*n+v, ascending, are
        members[bounds[k]:bounds[k+1]]; the one derivation of the pair lists."""
        members = np.argsort(self.flat_index, kind="stable")
        bounds = np.concatenate(([0], np.cumsum(self.class_sizes)))
        members.flags.writeable = bounds.flags.writeable = False
        return members, bounds


def same_partition(a, na: int, b, nb: int) -> bool:
    """The integer labellings a (0..na-1) and b (0..nb-1) of the same pairs
    give one partition: the label pairs met (one `bincount`) are a bijection."""
    met = np.bincount(a * nb + b, minlength=na * nb).reshape(na, nb) > 0
    return bool((met.sum(axis=0) == 1).all() and (met.sum(axis=1) == 1).all())


@dataclass(frozen=True)
class WalkAlgebra:
    """The adjacency algebra A(Gamma) = span(I, A, ..., A^d) of a graph,
    read on its r+1 walk classes; `adjacency_power_ladder` builds it in one
    pass, and `of` builds it once connectivity is checked.

    Each A^l with l <= d is constant on every class by construction, so the
    (r+1) x (d+1) class walk matrix M, M[k][l] = a^(l) on class k, holds
    all of I, A, ..., A^d: A^l[u][v] = M[c(u,v)][l], c(u,v) being the class
    of (u,v). No power is kept as an n x n matrix. p(A) = T holds exactly
    when T is constant on classes and M c = t, where c are the coefficients
    of p and t the class values of T. M has rank d+1; the traces p_k =
    tr A^k, k <= 2d+2, prove mu. The block B of d+1 rows of M that
    `class_polynomials` inverts, and M, det B and adj B modulo each word
    prime it reads, are built by the first solve and cached, read-only.

    The classes carry the metric too: dist(u,v) is the first l with
    A^l[u][v] > 0, inside the walk vector as D <= d on a connected graph,
    and every pair lies in one class, so D is the largest class distance.
    `diameter` and `partition.class_distances` need a connected graph: on
    another, some walk vector is all zero.
    """

    g: Graph
    partition: PairPartition
    minimal_polynomial: Polynomial  # monic, degree d+1
    traces: tuple[int, ...]  # p_0..p_(2d+2)

    @staticmethod
    def of(g: Graph) -> WalkAlgebra:
        """The walk algebra of a connected g; AnalysisError otherwise."""
        require_connected(g)
        return adjacency_power_ladder(g)

    @property
    def d(self) -> int:
        return self.minimal_polynomial.degree - 1

    @cached_property
    def diameter(self) -> int:
        return max(self.partition.class_distances)

    @property
    def m(self) -> tuple[tuple[int, ...], ...]:
        return self.partition.class_walk_vectors

    @cached_property
    def distance_polynomials(self) -> tuple[Polynomial, ...] | None:
        """The D+1 polynomials p_i with p_i(A) = A_i, the distance-i matrix,
        or None when some A_i lies outside A(Gamma); computed once per graph.

        A graph that is not regular has none, and returns None unsolved: if
        every A_i lies in A(Gamma), so does J = sum_i A_i, and then AJ = JA;
        (AJ)[u][v] = k_u and (JA)[u][v] = k_v, so all degrees are equal
        (Hoffman 1963). On a regular graph the walk vector fixes the
        distance, so A_i is 1 on the classes at distance i and 0 on the
        others, and the D+1 columns are solved."""
        if not self.g.is_regular():
            return None
        dist = self.partition.class_distances
        polys = self.class_polynomials(
            [[int(x == i) for x in dist] for i in range(self.diameter + 1)])
        return None if polys is None else tuple(polys)

    @cached_property
    def integral_minimal_polynomial(self) -> tuple[int, ...]:
        """The coefficients of the minimal polynomial, ascending, as ints:
        mu is monic and integral, A being an integer matrix (checked)."""
        mu = self.minimal_polynomial.coeffs
        if any(c.denominator != 1 for c in mu):
            raise ContractViolationError("minimal polynomial is not integral")
        return tuple(int(c) for c in mu)

    def membership(self, targets) -> list[Polynomial] | None:
        """The polynomials p with p(A) = T and deg p <= d, one per n x n
        target T, or None when some target lies outside A(Gamma)."""
        ids = self.partition.class_ids
        members, bounds = self.partition.class_members
        first = members[bounds[:-1]].tolist()  # classes are never empty
        columns = []
        for t in targets:
            flat = [x for row in t for x in row]
            col = [flat[p] for p in first]
            if list(map(col.__getitem__, ids)) != flat:
                return None  # an orbit, say, can split a walk class
            columns.append(col)
        return self.class_polynomials(columns)

    def class_polynomials(self, columns) -> list[Polynomial] | None:
        """The polynomials p_j with p_j(A) = columns[j][k] on every class k,
        or None when some column lies outside the column space of M.

        [M | T] is solved modulo the word primes p < 2^31, by one int64
        Gauss-Jordan elimination per prime of a block B of d+1 rows of M,
        which the first prime fixes (`_basis`) and each prime caches
        (`_modular`); a prime that divides det B is skipped.
        - Where r > d, a rank of [M | T] mod p above d+1 proves a column
          outside (`_outside_mod_p`): the rank over Q is no less.
        - Else the residues of (det B, adj(B) t_B) are lifted by the CRT in
          symmetric range to a candidate (den, N), and M N = den T, checked
          exactly on all r+1 rows, decides (`_verified`).
        - The lift ends, answering None, once its modulus exceeds twice the
          Hadamard bound of [B | t_B], which bounds det B and adj(B) t_B: the
          candidate is then (det B, adj(B) t_B) itself."""
        t = _int_array(columns).reshape(len(columns), self.partition.r + 1).T
        first, rows, others = self._basis
        t_top = np.abs(t).max(axis=1, initial=0).tolist()
        lift, mod, square = None, 1, None
        for i in count(first):
            p, m, inverse = self._modular(i)
            if inverse is None:
                continue  # p divides det B
            det, adj = inverse
            tp = _residues(t, p)
            x = _mat_mul_mod(adj, tp[rows], p)  # adj(B) t_B mod p
            if len(others) and _outside_mod_p(m[others], x, det, tp[others], p):
                return None
            res = np.concatenate(([det], x.ravel()))
            if lift is None:
                lift = res
            else:
                if mod * p >= 1 << 62:
                    lift = lift.astype(object)
                lift = lift + mod * ((res - lift % p) % p * pow(mod, -1, p) % p)
            mod *= p
            cand = np.where(2 * lift > mod, lift - mod, lift)
            den, n = int(cand[0]), cand[1:].reshape(x.shape)
            if self._verified(den, n, t, max(t_top, default=0), i):
                cols = n.T.tolist()  # one Fraction per distinct numerator
                frac = {c: Fraction(c, den) for c in set().union(*cols)}
                return [Polynomial.of(list(map(frac.__getitem__, col)))
                        for col in cols]
            if square is None:  # Hadamard's bound of [B | t_B], squared,
                # for every column at once
                square = prod(sum(map(mul, self.m[k], self.m[k])) + t_top[k] ** 2
                              for k in rows)
            if mod * mod > 4 * square:
                return None

    @cached_property
    def _basis(self) -> tuple[int, list[int], list[int]]:
        """(i, rows, others): p_i is the first word prime mod which M has
        rank d+1, and `_gauss_jordan` mod p_i picks the rows of the block B;
        det B is nonzero mod p_i, so B is nonsingular over Q. others are the
        other rows of M."""
        for i in count():
            p, m, _ = self._modular(i, inverse=False)
            if solved := _gauss_jordan(m, p):
                self._blocks[i][2] = solved[1:]
                return i, solved[0], sorted(set(range(len(m))) - set(solved[0]))

    def _modular(self, i: int, inverse: bool = True):
        """(p, M mod p, (det B, adj B) mod p, or None where p divides det B),
        p the i-th word prime, with read-only int64 arrays, built on first
        read and cached per prime; the inverse is built once a read needs
        it."""
        if i not in self._blocks:
            p = _word_prime(i)
            m = _residues(self._m_array, p)
            m.flags.writeable = False
            self._blocks[i] = [p, m, False]
        block = self._blocks[i]
        if inverse and block[2] is False:
            p, m, _ = block
            solved = _gauss_jordan(m[self._basis[1]], p)
            block[2] = solved and solved[1:]
        return tuple(block)

    @cached_property
    def _blocks(self) -> dict[int, list]:  # prime index -> `_modular`
        return {}

    @cached_property
    def _m_array(self) -> np.ndarray:
        return _int_array(self.m)

    def _verified(self, den: int, n: np.ndarray, t: np.ndarray, t_top: int,
                  i: int) -> bool:
        """M n = den t exactly on all r+1 rows, t_top = max |t|.

        beta = max|M| max|n| (d+1) + |den| t_top bounds |M n - den t|. Where
        beta < 2^63 the check is one int64 product; elsewhere it runs modulo
        the word primes after p_i, the next ones the lift reads, until their
        product exceeds 2 beta, as the only multiple of that product within
        beta of 0 is 0. A wrong candidate mostly fails at the first."""
        n_top = int(np.abs(n).max(initial=0))
        m_top = max(map(max, self.m))  # walk counts are never negative
        beta = m_top * max(n_top, 1) * (self.d + 1) + abs(den) * t_top
        if beta < 1 << 63:
            return np.array_equal(self._m_array @ n.astype(np.int64),
                                  den * t.astype(np.int64))
        product = 1
        for j in count(i + 1):
            if product > 2 * beta:
                return True
            q, m, _ = self._modular(j, inverse=False)
            if not np.array_equal(_mat_mul_mod(m, _residues(n, q), q),
                                  den % q * _residues(t, q) % q):
                return False
            product *= q

    def satisfies(self, p: Polynomial, values) -> bool:
        """p(A) equals values[k] on every class k: M c = values, checked in
        integers on all r+1 rows."""
        den, (ints,) = integer_numerators([p])
        return all(sum(x * y for x, y in zip(row, ints)) == den * v
                   for row, v in zip(self.m, values))


def _int_array(rows) -> np.ndarray:
    """The integer rows as an array: int64 where every entry fits, else
    Python ints."""
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        return np.array(rows, dtype=object)


def _residues(a: np.ndarray, p: int) -> np.ndarray:
    """a mod p as int64, for a of int64 or of Python ints."""
    return (a % p).astype(np.int64)


def _outside_mod_p(m: np.ndarray, x: np.ndarray, det: int, t: np.ndarray,
                   p: int) -> bool:
    """m x != det t mod p somewhere, for rows m of M outside the block B,
    the same rows t of T and x = adj(B) t_B mod p. Then the rank of [M | T]
    mod p exceeds d+1, as B is nonsingular mod p, and T lies outside the
    column space of M over Q."""
    return not np.array_equal(_mat_mul_mod(m, x, p), det * t % p)


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


def local_partition(pp: PairPartition, u: int) -> LocalPartition:
    """Cells in class order, vertices ascending; one row of the pair index."""
    cells: dict[int, list[int]] = {}
    for v, i in enumerate(pp.class_ids[u * pp.n:(u + 1) * pp.n]):
        cells.setdefault(i, []).append(v)
    ids = sorted(cells)
    return LocalPartition(center=u, cells=tuple(tuple(cells[i]) for i in ids),
                          class_ids=tuple(ids))


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
