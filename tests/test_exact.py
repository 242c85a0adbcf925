"""Exact linear algebra and polynomial layer."""
from fractions import Fraction
from itertools import product
from operator import mul

import numpy as np
from hypothesis import given, settings, strategies as st

from quograph import Polynomial, rank
from quograph import exact
from quograph.exact import (BATCH_WORK, RANK_PRIME, BerlekampMassey,
                            _ranks_mod_p, frac_str, identity, parse_frac,
                            poly_to_text, subset_ranks)
from quograph.graphs import complete_graph

from oracles import (RowBasis, all_ones, combine_powers, det_mod_p,
                     eval_poly, mat_mul, rank_mod_p, solve, transpose)
from worked_examples import CIRC17_BT, CIRC17_W, CIRC17_W_PLUS


def test_mat_mul_identity():
    a = [[1, 2], [3, 4]]
    assert mat_mul(identity(2), a) == a
    assert mat_mul(a, identity(2)) == a


def test_complete_graph_square():
    # A(K_n)^2 = (n-2) A + (n-1) I
    n = 5
    a = complete_graph(n).adjacency_matrix()
    a2 = mat_mul(a, a)
    want = [[(n - 2) * a[i][j] + (n - 1) * (i == j) for j in range(n)]
            for i in range(n)]
    assert a2 == want


def test_rank_basics():
    assert rank(identity(4)) == 4
    assert rank(all_ones(3)) == 1
    assert rank([[Fraction(1, 2), 1], [1, 2]]) == 1
    assert rank(CIRC17_W) == 5
    # more rows than columns, integer and rational rows mixed
    assert rank([[1, 2], [Fraction(1, 3), Fraction(2, 3)], [0, 1], [3, 3]]) == 2
    assert rank([[0, 0, 0], [2, 4, 6], [Fraction(-1), -2, -3]]) == 1


def test_subset_ranks_restores_rank_over_q(monkeypatch):
    """In a batch ranked mod p, a matrix whose modular rank falls short of
    min(#rows, #columns) is ranked over Q; one that reaches it is not."""
    p = RANK_PRIME
    over_q = []

    def counted(m):
        over_q.append(m)
        return rank(m)

    monkeypatch.setattr(exact, "rank", counted)
    pad = [0] * 14
    rows = identity(16) + [[p, 1] + pad, [2 * p, 0] + pad,
                           [p * 2 ** 70, 3 * p] + pad]  # beyond int64
    p1, p2, big = 16, 17, 18
    cases = [
        (list(range(16)), 16),  # 16 x 16, bound met
        ([p1, 1], 2),           # [[p, 1], [0, 1]]: rank 1 mod p
        ([p2], 1),              # 0 mod p
        ([big], 1),             # 0 mod p
        ([0, 1], 2),            # bound met
        (list(range(19)), 16),  # 19 rows, bound 16, met
        ([], 0),
    ]
    subsets = [ids for ids, _ in cases]
    work = sum(min(len(ids), 16) * len(ids) * 16 for ids in subsets)
    assert work >= BATCH_WORK  # one batch mod p
    assert subset_ranks(rows, subsets) == [want for _, want in cases]
    assert over_q == [[rows[p1], rows[1]], [rows[p2]], [rows[big]]]


def test_subset_ranks_of_small_batches(monkeypatch):
    """Below BATCH_WORK every matrix is ranked over Q, here those of K1
    (d = 0) and K2 (d = 1), one per diagonal class as
    decide_quotient_polynomial ranks them, and [[p, 1], [0, 1]]."""
    over_q = []

    def counted(m):
        over_q.append(m)
        return rank(m)

    monkeypatch.setattr(exact, "rank", counted)
    assert subset_ranks([(1,)], [[0]]) == [1]
    assert subset_ranks([(1, 0), (0, 1)], [[0, 1]]) == [2]
    assert subset_ranks([[RANK_PRIME, 1], [0, 1]], [[0, 1]]) == [2]
    assert len(over_q) == 3


def test_rowbasis_contains():
    b = RowBasis()
    b.add([1, 2, 3])
    b.add([0, 1, 1])
    assert b.contains([2, 5, 7])       # 2*r1 + r2
    assert not b.contains([0, 0, 1])
    assert b.rank == 2


def test_solve_identity_lhs():
    rhs = [[1, 2], [3, 4], [5, 6]]
    assert solve(identity(3), rhs) == [[Fraction(x) for x in row] for row in rhs]


def test_solve_recovers_intersection_matrix():
    bt = solve(CIRC17_W, CIRC17_W_PLUS)
    assert [[int(x) for x in row] for row in bt] == CIRC17_BT


def test_solve_inconsistent_returns_none():
    assert solve([[1], [1]], [[0], [1]]) is None


def test_solve_underdetermined_free_vars_zero():
    # x + y = 2 with two unknowns: canonical answer sets the free var to 0
    sol = solve([[1, 1]], [[2]])
    assert sol == [[Fraction(2)], [Fraction(0)]]


def test_polynomial_basics():
    p = Polynomial.of([1, 0, -1])      # 1 - x^2
    q = Polynomial.of([0, 1])          # x
    assert p.degree == 2
    assert (p + q).coeffs == (Fraction(1), Fraction(1), Fraction(-1))
    assert (p * q).coeffs == (Fraction(0), Fraction(1), Fraction(0), Fraction(-1))
    assert p(3) == -8
    assert Polynomial.of([0, 0]).degree == -1


def test_eval_poly_constant_and_hoffman_k3():
    a = complete_graph(3).adjacency_matrix()
    assert eval_poly(Polynomial.of([1]), a) == [
        [Fraction(1 if i == j else 0) for j in range(3)] for i in range(3)]
    # H(x) = (x + 1)/1 for K_3 scaled: (1/3)(x^2+2x) also works; use x+1
    h = Polynomial.of([1, 1])
    assert eval_poly(h, a) == [[Fraction(1)] * 3 for _ in range(3)]


def test_combine_powers_matches_eval_poly():
    a = complete_graph(4).adjacency_matrix()
    ladder = [identity(4), a, mat_mul(a, a)]
    p = Polynomial.of([Fraction(1, 3), -2, Fraction(5, 7)])
    assert combine_powers(p.coeffs, ladder) == eval_poly(p, a)


def test_frac_str_round_trip():
    for q in [Fraction(3), Fraction(-5, 26), Fraction(0)]:
        assert parse_frac(frac_str(q)) == q


def test_poly_to_text():
    p = Polynomial.of([Fraction(-36, 26), Fraction(75, 26), Fraction(-18, 26),
                       Fraction(-10, 26), Fraction(3, 26)])
    assert poly_to_text(p) == "1/26 (3x^4 - 10x^3 - 18x^2 + 75x - 36)"
    assert poly_to_text(Polynomial.of([0, 1])) == "x"
    assert poly_to_text(Polynomial.of([])) == "0"


# --- property tests --------------------------------------------------------

small_int = st.integers(min_value=-9, max_value=9)


@st.composite
def int_matrix(draw, max_n=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=1, max_value=max_n))
    return [[draw(small_int) for _ in range(m)] for _ in range(n)]


@st.composite
def square_matrix(draw, max_n=4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    return [[draw(small_int) for _ in range(n)] for _ in range(n)]


@settings(max_examples=60, deadline=None)
@given(int_matrix(), st.randoms(use_true_random=False))
def test_rank_invariant_under_row_permutation_and_scaling(m, rng):
    r0 = rank(m)
    rows = list(m)
    rng.shuffle(rows)
    factors = [rng.choice([1, 2, 3, -1, 5]) for _ in rows]
    scaled = [[f * x for x in row] for f, row in zip(factors, rows)]
    assert rank(scaled) == r0
    assert rank(transpose(m)) == r0


@settings(max_examples=60, deadline=None)
@given(int_matrix(max_n=12), st.randoms(use_true_random=False))
def test_subset_ranks_equal_rank_over_q(m, rng):
    """Any rows chosen, some scaled by p so that they vanish mod p; the
    larger draws reach BATCH_WORK and are ranked mod p first."""
    rows = [[x * RANK_PRIME ** rng.choice([0, 0, 0, 1, 3]) for x in row]
            for row in m]
    subsets = [[j for j in range(len(rows)) if rng.random() < 0.8]
               for _ in range(16)]
    want = [rank([rows[j] for j in s]) if s else 0 for s in subsets]
    assert subset_ranks(rows, subsets) == want


# zeros often, so that some columns of a batch have no pivot
mod_p_entry = st.one_of(st.just(0), st.sampled_from([1, 2, RANK_PRIME - 1]),
                        st.integers(min_value=0, max_value=RANK_PRIME - 1))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=7),
       st.integers(min_value=1, max_value=7), st.data())
def test_ranks_mod_p_match_gauss_jordan_mod_p(k, h, w, data):
    """The fraction-free batch kernel against Gauss-Jordan with inverses,
    one matrix at a time, on entries in [0, p)."""
    batch = [[[data.draw(mod_p_entry) for _ in range(w)] for _ in range(h)]
             for _ in range(k)]
    got = _ranks_mod_p(np.array(batch, dtype=np.int64)).tolist()
    assert got == [rank_mod_p(m, RANK_PRIME) for m in batch]


def test_ranks_mod_p_column_without_pivot():
    """A matrix with no pivot in a column keeps its rows for the next
    column, beside one that has a pivot there."""
    batch = np.array([[[1, 1, 0], [1, 1, 0], [0, 0, 1]],   # none in column 1
                      [[0, 1, 0], [0, 0, 1], [0, 1, 1]],   # none in column 0
                      [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
                      [[1, 0, 0], [0, 1, 0], [0, 0, 1]]], dtype=np.int64)
    assert _ranks_mod_p(batch).tolist() == [2, 2, 0, 3]


def test_word_primes_descend_from_2_31_without_a_gap():
    """_is_prime agrees with a sieve below 10^5 and rejects 3215031751, a
    strong pseudoprime to the bases 2, 3, 5 and 7; the first 40 word primes
    descend from 2^31 - 1, each prime and none skipped, by trial division."""
    sieve = np.ones(10 ** 5, dtype=bool)
    sieve[:2] = False
    for q in range(2, 317):
        sieve[q * q::q] = False
    assert [x for x in range(10 ** 5) if exact._is_prime(x)] == (
        np.flatnonzero(sieve).tolist())
    assert not exact._is_prime(3215031751)
    small = np.flatnonzero(sieve)[:4800].tolist()  # past sqrt(2^31) = 46341
    primes = [exact._word_prime(i) for i in range(40)]
    assert primes[0] == RANK_PRIME and primes == sorted(primes, reverse=True)
    for x in range(primes[-1], RANK_PRIME + 1):
        assert (x in primes) == all(x % q for q in small), x


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=7),
       st.integers(min_value=1, max_value=5), st.data())
def test_gauss_jordan_mod_p(h, w, data):
    """None exactly when the rank mod p is below w; else w rows, ascending,
    whose block B has rank w, det B mod p and adj B = det B B^-1 mod p,
    read-only. Entries are drawn mod 2^31 - 1 and mod 5, where pivots are
    often out of row order."""
    p = data.draw(st.sampled_from([RANK_PRIME, 5]))
    entry = st.one_of(st.just(0), st.integers(min_value=0, max_value=p - 1))
    a = [[data.draw(entry) for _ in range(w)] for _ in range(h)]
    got = exact._gauss_jordan(np.array(a, dtype=np.int64), p)
    if rank_mod_p(a, p) < w:
        assert got is None
        return
    rows, det, adj = got
    block = [a[k] for k in rows]
    assert rows == sorted(rows) and len(rows) == w and not adj.flags.writeable
    assert rank_mod_p(block, p) == w and det == det_mod_p(block, p)
    assert [[x % p for x in row] for row in mat_mul(adj.tolist(), block)] == (
        [[det * x for x in row] for row in identity(w)])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=6), st.data())
def test_mat_mul_mod_matches_python_ints(h, k, w, data):
    entry = st.one_of(st.sampled_from([0, 1, RANK_PRIME - 1]),
                      st.integers(min_value=0, max_value=RANK_PRIME - 1))
    a = [[data.draw(entry) for _ in range(k)] for _ in range(h)]
    b = [[data.draw(entry) for _ in range(w)] for _ in range(k)]
    got = exact._mat_mul_mod(np.array(a, dtype=np.int64),
                             np.array(b, dtype=np.int64).reshape(k, w),
                             RANK_PRIME)
    assert got.dtype == np.int64 and got.tolist() == [
        [sum(x * y for x, y in zip(row, col)) % RANK_PRIME
         for col in zip(*b)] for row in a]


def test_polynomial_keeps_fractions_and_integer_numerators():
    """Polynomial.of keeps a Fraction as given and frac_str reads it as it
    is; integer_numerators scales every coefficient to the common
    denominator, and polynomial_sum adds over it as Polynomial.__add__
    does, trailing zeros trimmed."""
    half, third = Fraction(1, 2), Fraction(-2, 3)
    p = Polynomial.of([half, 3, third, 0])
    q = Polynomial.of([Fraction(1, 4)])
    assert p.coeffs[0] is half and p.coeffs[2] is third and p.degree == 2
    assert (frac_str(third), frac_str(3), frac_str("4/6")) == ("-2/3", "3", "2/3")
    assert exact.integer_numerators([p, q]) == (12, [[6, 36, -8], [3]])
    assert exact.integer_numerators([]) == (1, [])
    minus = Polynomial.of([0, -3, -third])
    assert exact.polynomial_sum([p, q, minus]) == p + q + minus == (
        Polynomial.of([Fraction(3, 4)]))
    assert exact.polynomial_sum([]) == Polynomial.of([0])


@settings(max_examples=60, deadline=None)
@given(st.lists(small_int, min_size=0, max_size=4),
       st.lists(small_int, min_size=0, max_size=4),
       square_matrix())
def test_eval_poly_is_a_ring_homomorphism(c1, c2, a):
    f = Polynomial.of(c1)
    g = Polynomial.of(c2)
    lhs = eval_poly(f * g, a)
    rhs = mat_mul(eval_poly(f, a), eval_poly(g, a))
    assert lhs == rhs
    assert eval_poly(f + g, a) == [
        [x + y for x, y in zip(r1, r2)]
        for r1, r2 in zip(eval_poly(f, a), eval_poly(g, a))]


@settings(max_examples=60, deadline=None)
@given(square_matrix(), st.data())
def test_solve_resubstitution(a, data):
    n = len(a)
    k = data.draw(st.integers(min_value=1, max_value=3))
    x_true = [[data.draw(small_int) for _ in range(k)] for _ in range(n)]
    b = mat_mul(a, x_true)
    x = solve(a, b)
    assert x is not None           # b is in the column space by construction
    assert mat_mul([[Fraction(v) for v in row] for row in a], x) == \
        [[Fraction(v) for v in row] for row in b]


def shortest_recurrence(s, p):
    """The least L with some c_1..c_L mod p, found by trying them all, such
    that s_k + c_1 s_(k-1) + ... + c_L s_(k-L) = 0 mod p for L <= k < len(s)."""
    for length in range(len(s) + 1):
        for c in product(range(p), repeat=length):
            if all((s[k] + sum(ci * s[k - i] for i, ci in enumerate(c, 1))) % p
                   == 0 for k in range(length, len(s))):
                return length


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3]), st.lists(st.integers(-50, 50), max_size=6),
       st.data())
def test_berlekamp_massey_is_shortest_recurrence(p, s, data):
    """Fed all at once or in two parts, its length is the least one found by
    trying every recurrence, and its monic polynomial annihilates s mod p."""
    cut = data.draw(st.integers(0, len(s)))
    bm = BerlekampMassey(p, s[:cut])
    bm.extend(s[cut:])
    whole = BerlekampMassey(p, s)
    assert bm.length == whole.length == shortest_recurrence(s, p)
    q = bm.polynomial()
    assert q == whole.polynomial() and len(q) == bm.length + 1 and q[-1] == 1
    assert all(sum(map(mul, q, s[k:])) % p == 0
               for k in range(len(s) - bm.length))
