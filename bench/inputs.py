"""Seeded inputs for the three benchmark workloads.

Nothing here imports quograph or networkx: the benchmark hands the library
graph6 lines and graph specs only, so the timed process parses its own input
on the path a user's does.
"""
from __future__ import annotations

import random
from collections import deque
from pathlib import Path

DEFAULT_SEED = 20250823
ATLAS_FILE = Path(__file__).with_name("atlas.g6")

# The walk-regular graphs among the connected atlas graphs (test_bench_inputs
# re-derives this list with the library).
WALK_REGULAR_ATLAS = ("@", "A_", "Bw", "Cl", "C~", "Dhc", "D~{", "EhEG", "EtTg",
                      "ElUg", "EznW", "E~~w", "FhCKG", "FzM]W", "F~~~w")
WITNESS_SPECS = ("name:petersen", "name:complete:9", "name:star:9",
                 "name:cycle:10", "name:cycle:16", "name:cycle:20",
                 "circulant:13:1,5", "circulant:17:1,4", "name:y6")


def encode_graph6(n: int, edges) -> str:
    """Standard graph6 (no header) for a simple graph on 0..n-1."""
    if n <= 62:
        out = [n]
    else:
        out = [63, (n >> 12) & 63, (n >> 6) & 63, n & 63]
    adj = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (u, v) in adj else 0 for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    for i in range(0, len(bits), 6):
        x = 0
        for b in bits[i:i + 6]:
            x = (x << 1) | b
        out.append(x)
    return "".join(chr(63 + x) for x in out)


def _connected(n: int, edges) -> bool:
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    seen = {0}
    q = deque([0])
    while q:
        for v in nbrs[q.popleft()]:
            if v not in seen:
                seen.add(v)
                q.append(v)
    return len(seen) == n


def _gnp_edges(n: int, p: float, rng: random.Random):
    return [(u, v) for u in range(n) for v in range(u + 1, n)
            if rng.random() < p]


def random_connected_graphs(seed: int) -> list[str]:
    """200 random connected graphs on 8 to 16 vertices as graph6, drawn
    exactly like the test corpus (tests/conftest.py) so that the default
    seed reproduces it."""
    rng = random.Random(seed)
    out = []
    while len(out) < 200:
        n = rng.randint(8, 16)
        edges = _gnp_edges(n, rng.uniform(0.2, 0.6), rng)
        if _connected(n, edges):
            out.append(encode_graph6(n, edges))
    return out


def gnp_connected(n: int, p: float, rng: random.Random) -> str:
    while True:
        edges = _gnp_edges(n, p, rng)
        if _connected(n, edges):
            return encode_graph6(n, edges)


def hypercube(k: int) -> str:
    n = 1 << k
    return encode_graph6(n, [(u, u ^ (1 << b)) for u in range(n)
                             for b in range(k) if u < u ^ (1 << b)])


def atlas() -> list[str]:
    """The connected networkx atlas graphs (n <= 7) in atlas order."""
    return ATLAS_FILE.read_text().split()


def workload_inputs(name: str, seed: int) -> list[str]:
    """The op list of a workload: "graph6:<line>" or a parse_graph_spec spec."""
    if name == "corpus":
        lines = atlas() + random_connected_graphs(seed)
        return ["graph6:" + line for line in lines]
    if name == "large":
        return ["graph6:" + hypercube(7), "name:cycle:41", "circulant:72:1,4",
                "graph6:" + gnp_connected(24, 0.3, random.Random(seed))]
    if name == "witness":
        return ["graph6:" + line for line in WALK_REGULAR_ATLAS] + list(WITNESS_SPECS)
    raise ValueError(f"unknown workload {name!r}")
