"""Graph ingestion: graph6, edge lists, circulant descriptors, named families."""
from __future__ import annotations

import os

from .errors import GraphInputError
from .graphs import (Graph, NAMED_FAMILIES, PARAMETRIC_FAMILIES, build_graph,
                     circulant)

GRAPH6_HEADER = ">>graph6<<"


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 line (standard format, printable 6-bit, offset 63)."""
    s = line.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
    if not s:
        raise GraphInputError("empty graph6 line")
    data = []
    for off, ch in enumerate(s):
        code = ord(ch)
        if not (63 <= code <= 126):
            raise GraphInputError(
                f"graph6 byte {code} at offset {off} outside printable range 63..126")
        data.append(code - 63)
    if data[0] <= 62:
        n, idx = data[0], 1
    else:
        # 126 then 3 size bytes, or 126 126 then 6 size bytes
        start, idx = (2, 8) if len(data) > 1 and data[1] > 62 else (1, 4)
        if len(data) < idx:
            raise GraphInputError(
                f"truncated graph6 size field at offset {start}")
        n = 0
        for b in data[start:idx]:
            n = (n << 6) | b
    if n < 1:
        raise GraphInputError("graph6 line encodes an empty vertex set")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(data) - idx != need:
        raise GraphInputError(
            f"graph6 body has {len(data) - idx} bytes at offset {idx}, "
            f"expected {need} for n={n}")
    edges = []
    bit = 0
    for v in range(1, n):
        for u in range(v):
            byte = data[idx + bit // 6]
            if (byte >> (5 - bit % 6)) & 1:
                edges.append((u, v))
            bit += 1
    return build_graph(n, edges)


def to_graph6(g: Graph) -> str:
    """The graph6 line of g, without header; `parse_graph6` inverts it."""
    n = g.n
    if n <= 62:
        data = [n]
    elif n <= 258047:
        data = [63] + [(n >> s) & 63 for s in (12, 6, 0)]
    else:
        data = [63, 63] + [(n >> s) & 63 for s in (30, 24, 18, 12, 6, 0)]
    bits = [int(u in g.neighbors[v]) for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    for i in range(0, len(bits), 6):
        data.append(int("".join(map(str, bits[i:i + 6])), 2))
    return "".join(chr(63 + x) for x in data)


def parse_circulant(desc: str) -> Graph:
    """Parse "circulant:<n>:<s1>,<s2>,..."."""
    parts = desc.split(":")
    if len(parts) != 3 or parts[0] != "circulant":
        raise GraphInputError(f"malformed circulant descriptor {desc!r}")
    try:
        n = int(parts[1])
        residues = [int(s) for s in parts[2].split(",") if s != ""]
    except ValueError as e:
        raise GraphInputError(f"malformed circulant descriptor {desc!r}: {e}")
    if not residues:
        raise GraphInputError(f"circulant descriptor {desc!r} lists no residues")
    return circulant(n, residues)


def parse_edge_list(text: str) -> Graph:
    """Whitespace-separated edge list, one "u v" per line.

    An optional first line "n m" fixes the vertex count; it is treated as a
    header when m equals the number of edge lines that follow. Without a
    header, n is the largest endpoint plus one.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise GraphInputError("edge list input is empty")
    rows = []
    for ln in lines:
        toks = ln.split()
        if len(toks) != 2:
            raise GraphInputError(f"bad edge list line {ln!r}")
        try:
            rows.append((int(toks[0]), int(toks[1])))
        except ValueError:
            raise GraphInputError(f"bad edge list line {ln!r}")
    n_header, m_header = rows[0]
    body_max = max((max(u, v) for u, v in rows[1:]), default=-1)
    if m_header == len(rows) - 1 and n_header > body_max:
        return build_graph(n_header, rows[1:])
    n = max(max(u, v) for u, v in rows) + 1
    return build_graph(n, rows)


def parse_named(name: str) -> Graph:
    """Named families: petersen, y6, complete:N, cycle:N, path:N, star:N."""
    if name in NAMED_FAMILIES:
        return NAMED_FAMILIES[name]()
    if ":" in name:
        family, _, arg = name.partition(":")
        if family in PARAMETRIC_FAMILIES:
            try:
                return PARAMETRIC_FAMILIES[family](int(arg))
            except ValueError:
                raise GraphInputError(f"bad size {arg!r} for family {family!r}")
    raise GraphInputError(
        f"unknown named graph {name!r}; known: "
        f"{sorted(NAMED_FAMILIES)} and {sorted(PARAMETRIC_FAMILIES)} with :N")


def parse_graph_spec(spec: str) -> Graph:
    """Dispatch a graph source descriptor to the right parser.

    Accepted forms: "circulant:N:s1,s2", "graph6:<line>", "name:<family>",
    "file:<path>", or a bare path to an edge list file.
    """
    if spec.startswith("circulant:"):
        return parse_circulant(spec)
    if spec.startswith("graph6:"):
        return parse_graph6(spec[len("graph6:"):])
    if spec.startswith("name:"):
        return parse_named(spec[len("name:"):])
    if spec.startswith("file:"):
        return parse_edge_list(_read(spec[len("file:"):]))
    if os.path.exists(spec):
        return parse_edge_list(_read(spec))
    raise GraphInputError(
        f"cannot interpret graph spec {spec!r}: not a known prefix or file")


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise GraphInputError(f"cannot read {path!r}: {e}")
