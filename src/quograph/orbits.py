"""Brute-force automorphism groups and the orbit partition of V x V.

Desk-scale only: the search is capped (default 10 vertices) because it exists
to test the orbit-polynomial inclusion, not to compete with canonical
labelling tools.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import SizeLimitError
from .graphs import Graph, distances
from .partitions import WalkAlgebra

DEFAULT_VERTEX_CAP = 10


def automorphisms(g: Graph, cap: int = DEFAULT_VERTEX_CAP) -> list[tuple[int, ...]]:
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


def orbit_partition(auts: list[tuple[int, ...]], n: int) -> OrbitPartition:
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


def is_orbit_polynomial(alg: WalkAlgebra, op: OrbitPartition) -> bool:
    """True iff every orbit matrix lies in the span of A^0..A^d over Q."""
    return alg.membership(
        [op.orbit_matrix(i) for i in range(len(op.orbits))]) is not None
