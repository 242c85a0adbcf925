"""The benchmark's committed and generated inputs match their sources."""
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
from quograph import global_partition, is_walk_regular, parse_graph6  # noqa: E402


def test_stored_atlas_is_networkx_connected_atlas():
    nx = pytest.importorskip("networkx")
    from networkx.generators.atlas import graph_atlas_g
    want = [nx.to_graph6_bytes(g, header=False).decode().strip()
            for g in graph_atlas_g() if len(g) >= 1 and nx.is_connected(g)]
    assert inputs.atlas() == want


def test_default_seed_reproduces_test_corpus_random_graphs():
    sys.path.insert(0, str(ROOT / "tests"))
    from conftest import random_connected_graphs
    want = random_connected_graphs()
    got = [parse_graph6(line)
           for line in inputs.random_connected_graphs(inputs.DEFAULT_SEED)]
    assert [g.adjacency_matrix() for g in got] == \
        [g.adjacency_matrix() for g in want]


def test_walk_regular_atlas_list():
    want = tuple(line for line in inputs.atlas()
                 if is_walk_regular(global_partition(parse_graph6(line))))
    assert inputs.WALK_REGULAR_ATLAS == want


def test_hypercube_graph6():
    g = parse_graph6(inputs.hypercube(7))
    assert g.n == 128
    assert all(g.has_edge(u, v) == (bin(u ^ v).count("1") == 1)
               for u in range(128) for v in range(128) if u != v)
