"""Simple undirected graphs, named families, and exact metric structure."""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .errors import AnalysisError, GraphInputError


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1, no loops, no multi-edges."""

    n: int
    neighbors: tuple[frozenset[int], ...]

    def degree(self, u: int) -> int:
        return len(self.neighbors[u])

    def degree_sequence(self) -> list[int]:
        return [self.degree(u) for u in range(self.n)]

    def is_regular(self) -> bool:
        degs = self.degree_sequence()
        return len(set(degs)) <= 1

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.neighbors[u]

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.neighbors[u] if u < v]

    def adjacency_matrix(self) -> list[list[int]]:
        return [[1 if v in self.neighbors[u] else 0 for v in range(self.n)]
                for u in range(self.n)]

    @cached_property
    def degrees_skewed(self) -> bool:
        """Padding every vertex's neighbours up to the largest degree k_max
        would more than double them: n k_max > 2 * (sum of degrees), as on a
        star or a hub. The walk step and the float A then read `neighbor_runs`,
        and `neighbor_table` otherwise; decided once per graph."""
        degrees = self.degree_sequence()
        return self.n * max(degrees) > 2 * sum(degrees)

    @cached_property
    def neighbor_table(self) -> np.ndarray:
        """A (k_max, n) index array whose column u holds the neighbours of
        u, ascending, padded with n up to the largest degree k_max: the
        gather of the walk step (`partitions._neighbor_sum`), where n indexes
        an appended zero row, built once per graph."""
        k_max = max(map(len, self.neighbors))
        return np.array([sorted(nb) + [self.n] * (k_max - len(nb))
                         for nb in self.neighbors], dtype=np.int64).T

    @cached_property
    def neighbor_runs(self) -> tuple[np.ndarray, np.ndarray]:
        """The neighbours of 0, ..., n-1, each ascending, in one index
        array, with n standing in for the neighbours of an isolated vertex,
        and where the run of each vertex starts: the gather and the segments
        of the walk step on a graph whose degrees are skewed, built once per
        graph."""
        runs = [sorted(nb) or [self.n] for nb in self.neighbors]
        return (np.array([w for run in runs for w in run]),
                np.array(list(accumulate(map(len, runs[:-1]), initial=0))))


@dataclass(frozen=True)
class DistanceData:
    """All-pairs distances; None marks unreachable pairs (never a big integer)."""

    dist: tuple[tuple[int | None, ...], ...]
    ecc: tuple[int | None, ...]
    diameter: int | None
    connected: bool


def build_graph(n: int, edges) -> Graph:
    """Build a simple graph from an (iterable of) unordered vertex pairs.

    Duplicate edges collapse; loops and out-of-range endpoints are rejected.
    """
    if n < 1:
        raise GraphInputError(f"vertex count must be positive, got {n}")
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for e in edges:
        u, v = e
        if not (0 <= u < n and 0 <= v < n):
            raise GraphInputError(f"edge {e!r} has endpoint outside 0..{n - 1}")
        if u == v:
            raise GraphInputError(f"loop edge at vertex {u} is not allowed")
        nbrs[u].add(v)
        nbrs[v].add(u)
    return Graph(n, tuple(frozenset(s) for s in nbrs))


def circulant(n: int, connection) -> Graph:
    """Circulant graph on Z_n: u ~ u +- s (mod n) for each residue s."""
    conn = sorted(set(connection))
    for s in conn:
        if not (1 <= s <= n // 2):
            raise GraphInputError(
                f"circulant residue {s} outside 1..{n // 2} for modulus {n}")
    edges = []
    for u in range(n):
        for s in conn:
            edges.append((u, (u + s) % n))
    return build_graph(n, edges)


def _bfs(g: Graph, s: int) -> list[int | None]:
    """Exact BFS distances from s; None marks unreachable vertices."""
    row: list[int | None] = [None] * g.n
    row[s] = 0
    q = deque([s])
    while q:
        u = q.popleft()
        for v in g.neighbors[u]:
            if row[v] is None:
                row[v] = row[u] + 1
                q.append(v)
    return row


def distances(g: Graph) -> DistanceData:
    """Exact BFS distances, eccentricities, and diameter."""
    dist_rows = tuple(tuple(_bfs(g, s)) for s in range(g.n))
    ecc = tuple(None if None in row else max(row) for row in dist_rows)
    connected = None not in ecc
    return DistanceData(dist_rows, ecc, max(ecc) if connected else None,
                        connected)


def require_connected(g: Graph) -> None:
    """AnalysisError unless g is connected: one BFS from vertex 0, O(n+m)."""
    if None in _bfs(g, 0):
        raise AnalysisError("graph is disconnected; analysis is undefined")


# --- named families -------------------------------------------------------

def complete_graph(n: int) -> Graph:
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphInputError("cycle needs at least 3 vertices")
    return build_graph(n, [(u, (u + 1) % n) for u in range(n)])


def path_graph(n: int) -> Graph:
    return build_graph(n, [(u, u + 1) for u in range(n - 1)])


def star_graph(n: int) -> Graph:
    """Star K_{1,n-1} on n vertices, center 0."""
    return build_graph(n, [(0, v) for v in range(1, n)])


def petersen_graph() -> Graph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))          # outer pentagon
        edges.append((5 + i, 5 + (i + 2) % 5))  # inner pentagram
        edges.append((i, 5 + i))                # spokes
    return build_graph(10, edges)


def prism_y6() -> Graph:
    """The prism Y_6 = K_2 x C_6 in its chordal ring (12,4) labelling.

    Twelve-cycle 0..11 plus a chord from every odd vertex i to i+3 (mod 12).
    """
    edges = [(u, (u + 1) % 12) for u in range(12)]
    edges += [(u, (u + 3) % 12) for u in range(1, 12, 2)]
    return build_graph(12, edges)


NAMED_FAMILIES = {
    "petersen": petersen_graph,
    "y6": prism_y6,
    "prism-y6": prism_y6,
}

PARAMETRIC_FAMILIES = {
    "complete": complete_graph,
    "cycle": cycle_graph,
    "path": path_graph,
    "star": star_graph,
}
