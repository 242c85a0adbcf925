"""The class-level ladder against the dense ladder it replaced, read off the
walk classes entry by entry, and what the pass keeps: the traces and the
minimal polynomial they prove; and the basis block's inverses modulo word
primes, built lazily by the first solve."""
import random
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quograph import (AnalysisError, Polynomial, WalkAlgebra,
                      adjacency_power_ladder, build_graph, cycle_graph,
                      parse_graph_spec, petersen_graph, star_graph)
from quograph import partitions, quotient
from quograph.exact import BerlekampMassey
from quograph.partitions import TRACE_PRIMES, walk_step
from quograph.quotient import extended_partition_stable

from oracles import (adjacency_power_ladder_reference, class_powers,
                     combine_powers, group_pairs, mat_mul,
                     walk_algebra_digest)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def ladder_off_classes(g):
    """I, A, ..., A^d read off the ladder's walk classes, all (d+1) n^2
    entries: A^l[u][v] is entry l of the walk vector of the class of (u,v)."""
    alg = adjacency_power_ladder(g)
    assert {len(vec) for vec in alg.m} == {alg.d + 1}
    vecs = [alg.m[k] for k in alg.partition.class_ids]
    return [[[vecs[u * g.n + v][l] for v in range(g.n)] for u in range(g.n)]
            for l in range(alg.d + 1)]


def test_corpus_ladders_and_partitions_match_reference(small_corpus):
    for g in small_corpus:
        want = adjacency_power_ladder_reference(g)
        assert ladder_off_classes(g) == want
        assert WalkAlgebra.of(g).partition == group_pairs(g.n, want)


def test_ladder_is_the_walk_algebra(small_corpus):
    """The ladder pass builds the walk algebra itself, field for field, and
    `of` is the connectivity check in front of it: on a disconnected graph
    `of` raises while the ladder still returns an algebra."""
    sys.path.insert(0, str(BENCH))
    from inputs import DEFAULT_SEED, workload_inputs
    graphs = small_corpus + [parse_graph_spec(spec) for spec
                             in workload_inputs("large", DEFAULT_SEED)]
    assert len(graphs) == 1200
    for g in graphs:
        assert adjacency_power_ladder(g) == WalkAlgebra.of(g)
    g = build_graph(5, [(0, 1), (1, 2), (3, 4)])
    with pytest.raises(AnalysisError, match="disconnected"):
        WalkAlgebra.of(g)
    alg = adjacency_power_ladder(g)
    assert isinstance(alg, WalkAlgebra) and alg.partition.n == 5


def test_large_ladders_match_reference():
    bench = Path(__file__).resolve().parent.parent / "bench"
    sys.path.insert(0, str(bench))
    from inputs import DEFAULT_SEED, workload_inputs
    for spec in workload_inputs("large", DEFAULT_SEED):
        g = parse_graph_spec(spec)
        assert ladder_off_classes(g) == adjacency_power_ladder_reference(g), spec
    # its walk counts outgrow int64, so the object path of walk_step is run
    alg = adjacency_power_ladder(parse_graph_spec("circulant:72:1,4"))
    assert max(x.bit_length() for vec in alg.m for x in vec) > 63


@st.composite
def random_graphs(draw):
    """Graphs on 1..13 vertices, disconnected ones included."""
    n = draw(st.integers(1, 13))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return build_graph(n, [e for e, k in zip(pairs, keep) if k])


@settings(max_examples=150, deadline=None)
@given(random_graphs())
def test_random_ladders_match_reference(g):
    assert ladder_off_classes(g) == adjacency_power_ladder_reference(g)


def test_bordered_inverse_and_minimal_polynomial(small_corpus):
    """`_border`, the ladder's fallback past A^n, borders a block B of d+1
    rows of M with adj B = det I and no dependent column, and mu(A) = 0
    exactly on the ladder plus one more power, with mu monic of degree
    d+1."""
    for g in small_corpus:
        alg = WalkAlgebra.of(g)
        rows, adj, det, y = partitions._border(alg.m, range(len(alg.m)))
        assert len(rows) == alg.d + 1 and det and y is None
        block = [alg.m[k] for k in rows]
        eye = [[det * (i == j) for j in range(alg.d + 1)]
               for i in range(alg.d + 1)]
        assert mat_mul([list(row) for row in adj], block) == eye
        mu = alg.minimal_polynomial
        assert mu.degree == alg.d + 1 and mu.coeffs[-1] == 1
        powers = class_powers(alg)
        powers.append(mat_mul(powers[-1], g.adjacency_matrix()))
        zero = [[0] * g.n for _ in range(g.n)]
        assert combine_powers(mu.coeffs, powers) == zero


def test_petersen_minimal_polynomial():
    x = Polynomial.of([0, 1])
    want = ((x + Polynomial.of([-3])) * (x + Polynomial.of([-1]))
            * (x + Polynomial.of([2])))
    assert WalkAlgebra.of(petersen_graph()).minimal_polynomial == want


def test_ladder_of_single_vertex():
    g = build_graph(1, [])
    alg = adjacency_power_ladder(g)
    assert ladder_off_classes(g) == [[[1]]] and alg.d + 1 == 1
    assert alg.minimal_polynomial == Polynomial.of([0, 1])


def neighbour_sums(g, power):
    """A P in Python ints, row u the sum of the rows P[w], w ~ u."""
    return [[sum(int(power[w][v]) for w in g.neighbors[u]) for v in range(g.n)]
            for u in range(g.n)]


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("over, dtype", [(0, np.int64), (1, object)])
def test_walk_step_int64_bound(sign, over, dtype):
    """int64 while max |P| * k_max < 2^63, Python ints from there on; vertex
    4 has no neighbours and gets a zero row either way."""
    g = build_graph(5, [(0, 1), (0, 2), (0, 3)])  # k_max = 3
    top = (2**63 - 1) // 3 + over
    power = np.full((5, 5), sign * top, dtype=np.int64)
    power[0] = sign * 7
    step = walk_step(g, power)
    assert step.dtype == dtype and step.shape == (5, 5)
    assert step.tolist() == neighbour_sums(g, power)
    assert step[0, 0] == sign * 3 * top and not any(step[4])


def test_walk_step_of_single_vertex():
    step = walk_step(build_graph(1, []), np.eye(1, dtype=np.int64))
    assert step.dtype == np.int64 and step.tolist() == [[0]]


def large_graphs():
    sys.path.insert(0, str(BENCH))
    from inputs import DEFAULT_SEED, workload_inputs
    return [parse_graph_spec(spec)
            for spec in workload_inputs("large", DEFAULT_SEED)]


def assert_refinements_agree(graphs):
    """The ladder gives one algebra, field for field, whether every graph
    regroups only the pairs that leave their class's first pair (crossover
    0) or every graph hashes all pairs in one dict per power (crossover
    above every pair count)."""
    algebras = [adjacency_power_ladder(g) for g in graphs]
    digests = list(map(walk_algebra_digest, algebras))
    for pairs in (0, max(g.n for g in graphs) ** 2):
        with mock.patch.object(partitions, "SORT_REFINE_PAIRS", pairs):
            for g, alg, digest in zip(graphs, algebras, digests):
                got = adjacency_power_ladder(g)
                assert got == alg and walk_algebra_digest(got) == digest, (
                    pairs, g)


def test_refinement_forms_agree(small_corpus):
    """Both refinement forms on the 1196 corpus graphs and the 4 large
    inputs; `circulant:72:1,4` turns from int64 to object powers midway, so
    there the deviating pairs are grouped by the sort, then by the dict,
    under the same carried first pairs."""
    graphs = small_corpus + large_graphs()
    assert len(graphs) == 1200
    assert_refinements_agree(graphs)


def refine(ids, vals, first, dtype=np.int64):
    return partitions._refine(np.array(ids, dtype=np.int64),
                              np.array(vals, dtype=dtype),
                              np.array(first, dtype=np.int64))


def test_refine_without_a_split_returns_its_inputs():
    """No pair leaves its class's first pair: ids and first come back as
    given, unsorted, with each class's (class, value) in label order."""
    ids, first = np.array([1, 0, 1, 0, 2]), np.array([1, 0, 4])
    vals = np.array([7, 5, 7, 5, 7])
    with mock.patch.object(np, "lexsort", wraps=np.lexsort) as sort:
        new, heads, lead = partitions._refine(ids, vals, first)
    assert new is ids and lead is first and not sort.called
    assert heads == [(0, 5), (1, 7), (2, 7)]


def test_refine_split_keeps_old_labels_at_first_pairs():
    """Each split class keeps its label at its first pair; the deviating
    pairs form new classes, labelled after the old ones, whose first pairs
    are appended."""
    new, heads, first = refine([0, 0, 1, 0, 1, 1, 0], [3, 4, 9, 3, 8, 9, 4],
                               [0, 2])
    assert new.tolist() == [0, 2, 1, 0, 3, 1, 2]
    assert heads == [(0, 3), (1, 9), (0, 4), (1, 8)]
    assert first.tolist() == [0, 2, 1, 4]


def test_refine_class_whose_first_pair_is_not_position_0():
    """Class 0 starts at position 2, after class 1; its first pair, not
    position 0, sets the value that keeps label 0."""
    new, heads, first = refine([1, 1, 0, 0, 0], [6, 6, 5, 7, 5], [2, 0])
    assert new.tolist() == [1, 1, 0, 2, 0]
    assert heads == [(0, 5), (1, 6), (0, 7)]
    assert first.tolist() == [2, 0, 3]


def test_refine_object_entries_past_2_63():
    """Python-int entries compare exactly: 2^70 and 2^70 + 1 split class 0,
    and the dict labels the deviating groups in order of first
    appearance."""
    big = 2**70
    new, heads, first = refine([0, 0, 1, 0, 1, 0], [big, big + 2, -big, big + 1,
                                                    -big - 1, big + 2],
                               [0, 2], dtype=object)
    assert new.tolist() == [0, 2, 1, 3, 4, 2]
    assert heads == [(0, big), (1, -big), (0, big + 2), (0, big + 1),
                     (1, -big - 1)]
    assert all(type(x) is int for _, x in heads)
    assert first.tolist() == [0, 2, 1, 3, 4]


@st.composite
def refinements(draw):
    """(ids, vals, first): up to 80 pairs in classes labelled in any order,
    first[k] the lowest position of class k, with values few enough to
    repeat, as int64 or as Python ints past 2^64."""
    size = draw(st.integers(1, 80))
    raw = draw(st.lists(st.integers(0, 6), min_size=size, max_size=size))
    seen = sorted(set(raw))
    perm = draw(st.permutations(range(len(seen))))
    ids = np.array([perm[seen.index(x)] for x in raw], dtype=np.int64)
    first = np.full(len(seen), size)
    np.minimum.at(first, ids, np.arange(size))
    vals = draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size))
    if draw(st.booleans()):
        return ids, np.array([x * 2**64 + 1 for x in vals], dtype=object), first
    return ids, np.array(vals, dtype=np.int64), first


@settings(max_examples=300, deadline=None)
@given(refinements())
def test_refine_matches_a_dict_over_all_pairs(case):
    """The new form gives the partition the dict over all pairs gives, each
    class its (parent, value), every old label still at its first pair, and
    first[k] the lowest position of class k."""
    ids, vals, first = case
    new, heads, lead = partitions._refine(ids, vals, first)
    want, keys, _ = partitions._refine(ids.tolist(), vals, None)
    new = np.asarray(new)
    assert partitions.same_partition(new, len(heads), np.array(want), len(keys))
    assert [heads[k] for k in new] == list(zip(ids.tolist(), vals.tolist()))
    assert (new[first] == np.arange(len(first))).all()
    lowest = np.full(len(heads), len(new))
    np.minimum.at(lowest, new, np.arange(len(new)))
    assert lead.tolist() == lowest.tolist()


def deviating(ids, vals):
    """How many pairs differ from the first pair of their class, counted in
    Python position by position."""
    head, count = {}, 0
    for k, x in zip(ids.tolist(), vals.tolist()):
        count += head.setdefault(k, x) != x
    return count


def test_sort_runs_once_per_int64_power_that_splits():
    """On the four `large` inputs, `np.lexsort` runs once for each int64
    power that splits a class, on exactly its deviating pairs, and not at
    all on a power that splits none, A^(d+1) among them; object powers are
    grouped by the dict, unsorted."""
    unsplit = 0
    for g in large_graphs():
        calls, kernel = [], partitions._refine

        def spy(ids, vals, first):
            assert first is not None  # every large input has > 200 pairs
            with mock.patch.object(np, "lexsort", wraps=np.lexsort) as sort:
                out = kernel(ids, vals, first)
            sizes = [len(c.args[0][0]) for c in sort.call_args_list]
            calls.append((vals.dtype, len(out[1]) > len(first),
                          deviating(ids, vals), sizes))
            return out

        with mock.patch.object(partitions, "_refine", spy):
            alg = adjacency_power_ladder(g)
        assert len(calls) == alg.d + 2, g  # I, A, ..., A^(d+1)
        for dtype, split, dev, sizes in calls:
            assert split == (dev > 0)
            assert sizes == ([dev] if split and dtype != object else [])
            unsplit += dtype != object and not split
        assert not calls[-1][1] and not calls[-1][3]  # A^(d+1)
    assert unsplit == 46  # of the 90 int64 powers


def kernel_dtypes(run):
    """The dtype of each power handed to the private neighbour-sum kernel
    while run() runs, and what run() returned."""
    with mock.patch.object(partitions, "_neighbor_sum",
                           wraps=partitions._neighbor_sum) as kernel:
        out = run()
    return [call.args[1].dtype for call in kernel.call_args_list], out


def broom(hubs, tail):
    """A hub, vertex 0, with hubs leaves 1..hubs and a path of tail more
    vertices hanging off leaf hubs: k_max is hubs, far above the growth of
    the walk counts, so the bound k_max^l passes 2^63 long before they do."""
    return build_graph(1 + hubs + tail, [(0, v) for v in range(1, hubs + 1)]
                       + [(v, v + 1) for v in range(hubs, hubs + tail)])


def test_ladder_int64_bound_switches_where_walk_step_does():
    """The ladder carries max |A^l| <= k_max^l and reads the exact maximum
    only once that bound reaches 2^63 / k_max; it hands the kernel the same
    dtypes, step for step, as d+1 public `walk_step` calls from I, which
    read the maximum every step. `circulant:72:1,4` and G(24, 0.3) turn to
    object powers mid-ladder, 3 and 5 steps after their bound trips; the
    broom 14 steps after."""
    switched = []
    for g in large_graphs() + [broom(20, 30)]:
        got, alg = kernel_dtypes(lambda: adjacency_power_ladder(g))

        def steps():
            power = np.eye(g.n, dtype=np.int64)
            for _ in range(alg.d + 1):
                power = walk_step(g, power)

        want, _ = kernel_dtypes(steps)
        assert got == want and len(got) == alg.d + 1, g
        if object in got:
            cast = got.index(object)
            k_max = max(map(len, g.neighbors))
            assert 0 < cast and all(dtype == object for dtype in got[cast:])
            trip = next(step for step in range(cast + 1)
                        if k_max ** (step + 1) >= 2**63)  # bound * k_max
            switched.append((g.n, trip, cast))
    # circulant:72:1,4, G(24, 0.3) and the broom read the exact maximum
    # from the step where the bound trips, and cast where it says so
    assert switched == [(72, 31, 34), (24, 18, 23), (51, 14, 28)]


def test_ladder_bypasses_walk_step():
    """The ladder steps through the private kernel only; the debug witness
    `extended_partition_stable` still takes the public, checked step."""
    for g in large_graphs():
        with mock.patch.object(partitions, "walk_step") as step:
            alg = adjacency_power_ladder(g)
        step.assert_not_called()
        with mock.patch.object(quotient, "walk_step", wraps=walk_step) as step:
            assert extended_partition_stable(alg)
        assert step.call_count == 2 * alg.d


@st.composite
def random_gnp(draw):
    """G(n, p) on 20..40 vertices, disconnected ones included: past the
    crossover, with int64 powers before their walk counts outgrow int64."""
    n = draw(st.integers(20, 40))
    p = draw(st.floats(0.05, 0.95))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                           if rng.random() < p])


@settings(max_examples=25, deadline=None)
@given(random_gnp())
def test_random_refinement_forms_agree(g):
    assert g.n * (g.n + 1) // 2 > partitions.SORT_REFINE_PAIRS
    assert_refinements_agree([g])


def fan(n):
    """A hub, vertex 0, joined to every vertex of the path 1..n-1."""
    return build_graph(n, [(0, v) for v in range(1, n)]
                       + [(v, v + 1) for v in range(1, n - 1)])


def step_graphs():
    rng = random.Random(20)
    graphs = [star_graph(40), fan(31), cycle_graph(9), build_graph(6, [])]
    for _ in range(20):
        n, p = rng.randint(1, 30), rng.random()
        graphs.append(build_graph(n, [(u, v) for u in range(n)
                                      for v in range(u + 1, n)
                                      if rng.random() < p]))
    return graphs


@pytest.mark.parametrize("big", [False, True])
def test_walk_step_forms_agree(monkeypatch, big):
    """The padded table and the runs give equal arrays, of one dtype, equal
    to A P in Python ints: int64 powers of both signs, and object powers
    whose entries outgrow int64."""
    rng = np.random.default_rng(7)
    for g in step_graphs():
        power = rng.integers(-1000, 1000, (g.n, g.n))
        if big:
            power = power.astype(object) * 2**70
        steps = []
        for skewed in (False, True):
            monkeypatch.setitem(vars(g), "degrees_skewed", skewed)
            steps.append(walk_step(g, power))
        table, runs = steps
        assert table.dtype == runs.dtype == power.dtype
        assert table.shape == runs.shape == (g.n, g.n)
        assert table.tolist() == runs.tolist() == neighbour_sums(g, power)


def test_walk_step_form_follows_degrees():
    """A star or a hub, whose padding would more than double the gathered
    rows, sums the runs; a cycle sums the padded table. Each builds only
    the gather it uses."""
    for g, skewed in [(star_graph(40), True), (fan(31), True),
                      (cycle_graph(9), False), (petersen_graph(), False)]:
        assert g.degrees_skewed == skewed
        walk_step(g, np.eye(g.n, dtype=np.int64))
        built = {"neighbor_table", "neighbor_runs"} & set(vars(g))
        assert built == {"neighbor_runs" if skewed else "neighbor_table"}


def dense_traces(g, count):
    """tr A^k for k < count from dense powers I, ..., A^(d+1)
    (`adjacency_power_ladder_reference` and one more `mat_mul`), each
    tr A^(i+j) = tr(A^i A^j) summed over the diagonal of the product."""
    powers = adjacency_power_ladder_reference(g)
    powers.append(mat_mul(powers[-1], g.adjacency_matrix()))
    top = len(powers) - 1
    out = []
    for k in range(count):
        p, q = powers[min(k, top)], powers[k - min(k, top)]
        out.append(sum(x * y for row, col in zip(p, zip(*q))
                       for x, y in zip(row, col)))
    return out


def test_traces_match_dense_powers(small_corpus):
    """`traces` is tr A^0, ..., tr A^(2d+2) on the corpus and the large
    inputs; circulant:72:1,4 and G(24, 0.3) sum over the classes once the
    int64 dots could overflow."""
    for g in small_corpus + large_graphs():
        alg = WalkAlgebra.of(g)
        assert len(alg.traces) == 2 * alg.d + 3
        assert list(alg.traces) == dense_traces(g, 2 * alg.d + 3), g


class Proposal:
    """A Berlekamp-Massey stand-in that proposes q mod p."""

    def __init__(self, q, p):
        self.p, self.length, self.q = p, len(q) - 1, [c % p for c in q]

    def polynomial(self):
        return self.q


def proved(q, traces):
    """What `_proved_polynomial` makes of the candidate q, proposed mod the
    first prime alone, with its symmetric lift q itself."""
    p = TRACE_PRIMES[0]
    with mock.patch.object(partitions, "TRACE_PRIMES", (p,)):
        return partitions._proved_polynomial(traces, Proposal(q, p), 0)[1]


def test_frobenius_proof_rejects_mutants(small_corpus):
    """sum_ij q_i q_j p_(i+j) = 0 accepts mu and fails mu with its constant
    term off by one, and the monic candidate (mu - mu_0) / x of degree d."""
    for g in small_corpus + large_graphs():
        alg = WalkAlgebra.of(g)
        mu = list(alg.integral_minimal_polynomial)
        assert proved(mu, alg.traces) == mu
        assert proved([mu[0] + 1] + mu[1:], alg.traces) is None
        assert proved([mu[0] - 1] + mu[1:], alg.traces) is None
        assert proved(mu[1:], alg.traces) is None


def test_unlucky_primes_give_the_same_algebra(small_corpus):
    """Petersen's traces 10, 0, 30, 0, 150, ... are 1, 0, 0, 0, 0, ... mod 3,
    a recurrence of length 1 against d+1 = 3. With 3 first, Berlekamp-Massey
    restarts on the next prime, whose recurrence is longer; with 3 alone the
    primes run out after one failed proof, none is tried again, and past A^n
    the ladder borders the walk vectors, n+1 long. Either way Petersen,
    cycle:41 and 50 corpus graphs give the same algebras, digests included."""
    petersen = petersen_graph()
    graphs = [petersen, cycle_graph(41)] + small_corpus[::24][:50]
    assert len(graphs) == 52
    want = [adjacency_power_ladder(g) for g in graphs]
    assert BerlekampMassey(3, want[0].traces).length == 1 and want[0].d == 2
    for primes, restarts in [((3,) + TRACE_PRIMES, True), ((3,), False)]:
        with mock.patch.object(partitions, "TRACE_PRIMES", primes), \
                mock.patch.object(partitions, "BerlekampMassey",
                                  wraps=BerlekampMassey) as bm, \
                mock.patch.object(partitions, "_border",
                                  wraps=partitions._border) as border, \
                mock.patch.object(partitions, "_proved_polynomial",
                                  wraps=partitions._proved_polynomial) as proof:
            got = adjacency_power_ladder(petersen)
            assert tuple(c.args[0] for c in bm.call_args_list)[:2] == primes[:2]
            assert border.called is not restarts
            assert proof.call_count == (2 if restarts else 1)
            if border.called:
                assert {len(v) for v in border.call_args.args[0]} == {11}
            got = [got] + [adjacency_power_ladder(g) for g in graphs[1:]]
        assert got == want
        assert list(map(walk_algebra_digest, got)) == list(
            map(walk_algebra_digest, want))


def test_inverse_is_lazy_and_read_only():
    """The ladder reduces nothing mod a word prime. The first solve picks
    the block B and inverts it mod the primes it reads, one elimination
    each; a second solve on the same algebra eliminates nothing. Each
    prime's M mod p and adj B mod p are read-only, adj B B = det B I mod p
    with det B nonzero mod p, and neither cached field can be assigned."""
    alg = adjacency_power_ladder(petersen_graph())
    assert not {"_basis", "_blocks"} & set(vars(alg))
    with mock.patch.object(partitions, "_gauss_jordan",
                           wraps=partitions._gauss_jordan) as gj:
        polys = alg.class_polynomials([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        first = gj.call_count
        assert alg.class_polynomials([[1, 1, 1]]) == [sum(
            polys, Polynomial.of([0]))]
    assert first == len(alg._blocks) == 1 and gj.call_count == first
    (i, (p, m, (det, adj))), = alg._blocks.items()
    assert i == alg._basis[0] == 0 and p == partitions._word_prime(0)
    assert not m.flags.writeable and not adj.flags.writeable
    block = np.array([alg.m[k] for k in alg._basis[1]], dtype=object)
    assert ((adj.astype(object) @ block - det * np.eye(3, dtype=object))
            % p == 0).all() and det % p
    for name in ("_basis", "_blocks"):
        with pytest.raises(AttributeError):
            setattr(alg, name, None)
