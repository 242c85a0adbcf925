"""Graph ingestion: graph6 against the networkx encoder, edge lists,
descriptors, and error reporting."""
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from quograph import (GraphInputError, parse_circulant, parse_edge_list,
                      parse_graph6, parse_graph_spec)
from quograph.formats import to_graph6 as encode_graph6


def to_graph6(G):
    return nx.to_graph6_bytes(G, header=False).decode().strip()


def test_graph6_k2():
    g = parse_graph6("A_")
    assert g.n == 2 and g.edges() == [(0, 1)]


def test_graph6_small_known():
    # "D?{" : 5 vertices, edges 0-3, 1-3, 2-3 ... decoded by networkx
    line = "D?{"
    g = parse_graph6(line)
    G = nx.from_graph6_bytes(line.encode())
    assert g.n == G.number_of_nodes()
    assert sorted(g.edges()) == sorted(tuple(sorted(e)) for e in G.edges())


def test_graph6_round_trip_random():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(2, 40)
        G = nx.gnp_random_graph(n, rng.uniform(0.1, 0.9), seed=rng.randint(0, 9999))
        g = parse_graph6(to_graph6(G))
        assert g.n == n
        assert sorted(g.edges()) == sorted(tuple(sorted(e)) for e in G.edges())


def test_graph6_long_size_field():
    # 100 vertices uses the 3-byte size encoding
    G = nx.cycle_graph(100)
    g = parse_graph6(to_graph6(G))
    assert g.n == 100 and len(g.edges()) == 100


@settings(max_examples=8, deadline=None)
@given(st.integers(63, 130), st.floats(0.0, 0.2), st.integers(0, 2**32 - 1))
def test_graph6_round_trip_large(n, p, seed):
    # n >= 63 needs the 4-byte size field
    G = nx.gnp_random_graph(n, p, seed=seed)
    g = parse_graph6(to_graph6(G))
    assert g.n == n
    assert sorted(g.edges()) == sorted(tuple(sorted(e)) for e in G.edges())


def test_graph6_encoder_matches_networkx():
    rng = random.Random(11)
    cases = [nx.path_graph(1), nx.complete_graph(62), nx.cycle_graph(63),
             nx.gnp_random_graph(130, 0.1, seed=3)]
    cases += [nx.gnp_random_graph(rng.randint(2, 40), rng.uniform(0.1, 0.9),
                                  seed=rng.randint(0, 9999)) for _ in range(40)]
    for G in cases:
        line = to_graph6(G)
        assert encode_graph6(parse_graph6(line)) == line


def test_graph6_header_prefix():
    g = parse_graph6(">>graph6<<A_")
    assert g.n == 2


def test_graph6_errors_carry_offsets():
    with pytest.raises(GraphInputError, match="empty"):
        parse_graph6("")
    with pytest.raises(GraphInputError, match="offset 1"):
        parse_graph6("B" + chr(30))          # byte below 63
    with pytest.raises(GraphInputError, match="expected"):
        parse_graph6("D?")                   # truncated body for n=5
    with pytest.raises(GraphInputError, match="empty vertex set"):
        parse_graph6("?")                    # n = 0
    with pytest.raises(GraphInputError, match="size field at offset 1"):
        parse_graph6("~?@")                  # 2 of the 3 bytes after 126
    with pytest.raises(GraphInputError, match="size field at offset 2"):
        parse_graph6("~~???")                # 3 of the 6 bytes after 126 126


def test_parse_circulant():
    g = parse_circulant("circulant:17:1,4")
    assert g.n == 17 and g.degree(0) == 4
    for bad in ["circulant:17", "circulant:17:1:4", "circulant:x:1",
                "circulant:17:", "circulant:17:0"]:
        with pytest.raises(GraphInputError):
            parse_circulant(bad)


def test_parse_edge_list_with_header():
    g = parse_edge_list("4 3\n0 1\n1 2\n2 3\n")
    assert g.n == 4 and len(g.edges()) == 3


def test_parse_edge_list_without_header():
    # first line is a real edge here: "0 1" cannot be a header for one edge
    g = parse_edge_list("0 1\n1 2\n")
    assert g.n == 3 and len(g.edges()) == 2


def test_parse_edge_list_header_adds_isolated_vertices_rejected():
    # header fixing n=6 with only vertices 0..3 used keeps 6 vertices,
    # which analysis will then report as disconnected
    g = parse_edge_list("6 3\n0 1\n1 2\n2 3\n")
    assert g.n == 6


def test_parse_edge_list_errors():
    with pytest.raises(GraphInputError):
        parse_edge_list("")
    with pytest.raises(GraphInputError):
        parse_edge_list("0 1 2\n")
    with pytest.raises(GraphInputError):
        parse_edge_list("a b\n")


def test_parse_graph_spec(tmp_path):
    assert parse_graph_spec("circulant:5:1").n == 5
    assert parse_graph_spec("graph6:A_").n == 2
    assert parse_graph_spec("name:petersen").n == 10
    assert parse_graph_spec("name:cycle:6").n == 6
    p = tmp_path / "edges.txt"
    p.write_text("0 1\n1 2\n")
    assert parse_graph_spec(f"file:{p}").n == 3
    assert parse_graph_spec(str(p)).n == 3
    with pytest.raises(GraphInputError):
        parse_graph_spec("name:unknown-family")
    with pytest.raises(GraphInputError):
        parse_graph_spec("no-such-file-or-prefix")
