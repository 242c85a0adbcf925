"""The automorphism group by generators, and the orbit partition of V x V.

`automorphisms` runs an exhaustive backtracking search along the stabilizer
chain of the base 0, 1, ..., n-1, pruned by the orbits of the generators
found so far (after McKay and Piperno 2014, "Practical graph isomorphism,
II"). It returns a generating set, and |Aut| as the product of the
base-point orbit lengths (Sims 1970); no permutation list is built. The
orbits on pairs follow from the generators by union-find. Nothing random,
float or hashed decides anything.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ContractViolationError, SizeLimitError
from .formats import to_graph6
from .graphs import Graph, distances
from .partitions import WalkAlgebra

# analyze runs the orbit pass only up to this size, so the report JSON of a
# larger graph has no orbit section; the search itself is not what limits it
DEFAULT_VERTEX_CAP = 10


@dataclass(frozen=True)
class AutomorphismGroup:
    """Aut(Gamma) on vertices 0..n-1: generators as image tuples, and the
    group order."""

    n: int
    generators: tuple[tuple[int, ...], ...]
    order: int


def automorphisms(g: Graph, cap: int = DEFAULT_VERTEX_CAP) -> AutomorphismGroup:
    """Generators and order of Aut(Gamma), by a stabilizer-chain search.

    Level i looks for automorphisms that fix 0..i-1 and move i; every
    generator found at a deeper level fixes 0..i, so the orbit of i under the
    generators so far lies in the stabilizer G_i of 0..i-1. A candidate image
    w outside that orbit, and outside the orbit of a candidate that already
    failed, gets one search that stops at its first leaf; a hit becomes a
    generator. At the end of level i the orbit is the whole G_i-orbit of i,
    so |Aut| is the product of the final orbit lengths.

    Candidates must match on (degree, sorted distance profile) and keep the
    distance to every vertex already mapped; a bijection that keeps all
    distances is exactly an automorphism.
    """
    if g.n > cap:
        raise SizeLimitError(
            f"automorphism search capped at {cap} vertices (got {g.n}); "
            "the cap keeps the report JSON of larger graphs as it was, "
            "pass a larger cap to search anyway")
    n = g.n
    dist = distances(g).dist
    sentinel = n + 1  # unreachable sorts after every real distance
    keys = [
        (g.degree(u),
         tuple(sorted(d if d is not None else sentinel for d in dist[u])))
        for u in range(n)
    ]
    gens: list[tuple[int, ...]] = []
    order = 1
    for i in reversed(range(n)):
        reached = _orbit(i, gens)
        dead: set[int] = set()
        for w in range(i + 1, n):
            if (w in reached or w in dead or keys[w] != keys[i]
                    or any(dist[w][j] != dist[i][j] for j in range(i))):
                continue
            image = list(range(i)) + [w] + [-1] * (n - i - 1)
            used = [j < i or j == w for j in range(n)]
            if _extend(i + 1, image, used, dist, keys):
                gens.append(tuple(image))
                reached = _orbit(i, gens)
            else:
                dead |= _orbit(w, gens)
        order *= len(reached)
    return AutomorphismGroup(n, tuple(gens), order)


def _orbit(v: int, gens) -> set[int]:
    """The orbit of v under the group the generators generate."""
    orbit, todo = {v}, [v]
    while todo:
        x = todo.pop()
        for sigma in gens:
            y = sigma[x]
            if y not in orbit:
                orbit.add(y)
                todo.append(y)
    return orbit


def _extend(v: int, image: list[int], used: list[bool], dist, keys) -> bool:
    """Complete image[:v] to a distance-preserving bijection, mapping the
    vertices v, v+1, ... in turn; False if no completion exists."""
    n = len(image)
    if v == n:
        return True
    dv, kv = dist[v], keys[v]
    for x in range(n):
        if used[x] or keys[x] != kv:
            continue
        dx = dist[x]
        if all(dx[image[y]] == dv[y] for y in range(v)):
            image[v] = x
            used[x] = True
            if _extend(v + 1, image, used, dist, keys):
                return True
            used[x] = False
    return False


@dataclass(frozen=True)
class OrbitPartition:
    """Orbits of Aut(Gamma) acting on ordered vertex pairs."""

    n: int
    orbits: tuple[tuple[tuple[int, int], ...], ...]

    def orbit_matrix(self, i: int) -> list[list[int]]:
        m = [[0] * self.n for _ in range(self.n)]
        for u, v in self.orbits[i]:
            m[u][v] = 1
        return m


def orbit_partition(group: AutomorphismGroup, n: int) -> OrbitPartition:
    """The orbits on V x V, by union-find over the generators: O(|gens| n^2).

    The pairs are collected in row-major order, so the orbits come out in
    order of their smallest pair, each one sorted."""
    parent = list(range(n * n))

    def find(p: int) -> int:
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    for sigma in group.generators:
        for u in range(n):
            row = sigma[u] * n
            for v in range(n):
                parent[find(u * n + v)] = find(row + sigma[v])
    orbits: dict[int, list[tuple[int, int]]] = {}
    for p in range(n * n):
        orbits.setdefault(find(p), []).append(divmod(p, n))
    return OrbitPartition(n=n, orbits=tuple(tuple(o) for o in orbits.values()))


def is_orbit_polynomial(alg: WalkAlgebra, op: OrbitPartition) -> bool:
    """True iff every orbit matrix lies in A(Gamma) = span(A^0..A^d).

    Automorphisms keep walk counts, so orbits refine walk classes, and a 0/1
    matrix in A(Gamma) is constant on every class: an orbit matrix in A(Gamma)
    is a whole class. So the graph is orbit-polynomial iff the orbits are the
    r+1 classes and every class matrix lies in A(Gamma), that is, r = d.
    """
    r = alg.partition.r
    return r == alg.d and len(op.orbits) == r + 1


def orbit_membership_check(alg: WalkAlgebra, op: OrbitPartition) -> None:
    """--debug-checks witness: the orbit count of `is_orbit_polynomial`
    agrees with asking whether every orbit matrix lies in A(Gamma)."""
    by_count = is_orbit_polynomial(alg, op)
    by_membership = alg.membership(
        [op.orbit_matrix(i) for i in range(len(op.orbits))]) is not None
    if by_count != by_membership:
        raise ContractViolationError(
            f"graph6 {to_graph6(alg.g)}, stage orbits: the orbit count says "
            f"orbit-polynomial is {by_count}, membership of the orbit "
            f"matrices says {by_membership}")
