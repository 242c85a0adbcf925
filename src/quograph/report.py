"""Full analysis pipeline and report serialization.

A Report is the machine-readable result of one graph analysis. JSON output is
deterministic (timing is reported separately, never serialized) and
round-trips losslessly: exact rationals travel as "num/den" strings, walk
counts as decimal strings.
"""
from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from itertools import pairwise
from operator import attrgetter

import numpy as np

from .errors import (AnalysisError, ContractViolationError, GraphInputError,
                     SizeLimitError, ToleranceError)
from .exact import Polynomial, frac_str, parse_frac, poly_to_text
from .graphs import Graph
from .orbits import (automorphisms, is_orbit_polynomial,
                     orbit_membership_check, orbit_partition)
from .partitions import PairPartition, WalkAlgebra
from .quotient import (QuotientReport, decide_quotient_polynomial,
                       extended_partition_stable)
from .schemes import (AssociationScheme, ClassificationFlags, build_scheme,
                      generates_scheme_check, is_distance_polynomial,
                      is_distance_regular, is_h_punctually_walk_regular,
                      is_walk_regular, qp_implies_dp, scheme_ring_check,
                      scheme_via_solve)
from .spectral import (DEFAULT_TOL, spectral_decomposition,
                       spectrum_partition)

log = logging.getLogger("quograph")


@dataclass(frozen=True)
class AnalysisOptions:
    orbits: bool = False
    tol: float = DEFAULT_TOL
    debug_checks: bool = False


@dataclass
class OrbitResult:
    num_automorphisms: int
    num_orbits: int
    orbit_polynomial: bool


@dataclass
class Report:
    n: int
    degree_sequence: list[int]
    diameter: int | None
    quotient: QuotientReport | None = None
    flags: ClassificationFlags | None = None
    scheme: AssociationScheme | None = None
    scheme_generates: bool | None = None
    orbit: OrbitResult | None = None
    eigenvalues: list[float] | None = None
    multiplicities: list[int] | None = None
    timing: float | None = None              # seconds, not serialized
    error: str | None = None


def analyze(g: Graph, options: AnalysisOptions = AnalysisOptions()) -> Report:
    """partitions -> quotient -> spectrum -> classifiers, debug witnesses."""
    t0 = time.monotonic()
    report = Report(n=g.n, degree_sequence=g.degree_sequence(), diameter=None)
    try:
        alg = WalkAlgebra.of(g)
    except AnalysisError as e:  # disconnected
        report.error = str(e)
        report.timing = time.monotonic() - t0
        return report
    pp, report.diameter = alg.partition, alg.diameter
    rep = decide_quotient_polynomial(alg)
    report.quotient = rep

    sd = spectral_decomposition(alg, tol=options.tol)
    report.eigenvalues = [float(f"{x:.12g}") for x in sd.spectrum.eigenvalues]
    report.multiplicities = list(sd.spectrum.multiplicities)
    if options.debug_checks:  # m-vectors group as the walk classes, or raise
        spectrum_partition(sd, pp, options.tol)

    dp = is_distance_polynomial(alg)
    flags = ClassificationFlags(
        walk_regular=is_walk_regular(pp),
        h_punctual=tuple(is_h_punctually_walk_regular(alg, h)
                         for h in range(alg.diameter + 1)),
        distance_regular=is_distance_regular(alg, rep),
        distance_polynomial=dp is not None,
        quotient_polynomial=rep.is_quotient_polynomial,
        distance_polys=dp,
    )

    if rep.is_quotient_polynomial:
        scheme = build_scheme(rep, pp)
        report.scheme = scheme
        report.scheme_generates = generates_scheme_check(scheme, alg)
        if options.debug_checks:
            if not scheme_via_solve(scheme):
                raise ContractViolationError(
                    "the products J_i J_j disagree with the counted "
                    "intersection numbers")
            scheme_ring_check(alg, rep, scheme)  # raises on failure
            qp_implies_dp(alg, rep)  # raises on failure

    if options.debug_checks and not extended_partition_stable(alg):
        raise ContractViolationError(
            "walk vectors extended to length 2d refine the partition")

    if options.orbits:
        try:
            group = automorphisms(g)
            op = orbit_partition(group, g.n)
            flags.orbit_polynomial = is_orbit_polynomial(alg, op)
            if options.debug_checks:
                orbit_membership_check(alg, op)  # raises on failure
            report.orbit = OrbitResult(
                num_automorphisms=group.order,
                num_orbits=len(op.orbits),
                orbit_polynomial=flags.orbit_polynomial,
            )
        except SizeLimitError as e:
            log.warning("orbit pass skipped: %s", e)

    report.flags = flags
    report.timing = time.monotonic() - t0
    return report


# --- serialization --------------------------------------------------------
# Both directions walk one table per flat section, with rows (json key,
# attribute path, (encode, decode)); a derived key has decode None. The
# partition and scheme sections have shapes of their own. `report_to_json`
# writes those two sections, the bulk of the output, with encoders of their
# own; the bytes stay those of `json.dumps(report_to_dict(r), indent=2)`.

def _same(x):
    return x


def _optional(codec):
    enc, dec = codec
    return (lambda x: None if x is None else enc(x),
            lambda x: None if x is None else dec(x))


def _poly_json(p: Polynomial) -> list[str]:
    return [frac_str(c) for c in p.coeffs]


def _poly_from_json(arr) -> Polynomial:
    return Polynomial.of([parse_frac(s) for s in arr])


_PLAIN = (_same, _same)
_LIST = (list, list)
_TUPLE = (list, tuple)
_POLY = (_poly_json, _poly_from_json)
_POLYS = (lambda ps: [_poly_json(p) for p in ps],
          lambda arr: tuple(_poly_from_json(p) for p in arr))

_GRAPH = (
    ("n", "n", _PLAIN),
    ("degree_sequence", "degree_sequence", _LIST),
    ("diameter", "diameter", _PLAIN),
)
_QUOTIENT = (
    ("d", "d", _PLAIN),
    ("r", "r", _PLAIN),
    ("quotient_polynomial", "is_quotient_polynomial", _PLAIN),
    ("local_dimensions", "local_dimensions", _TUPLE),
    ("diagonal_is_identity", "partition.diagonal_is_identity", (_same, None)),
    ("polynomials", "polynomials", _optional(_POLYS)),
    ("hoffman", "hoffman", _optional(_POLY)),
    ("intersection_matrix", "intersection_b", _PLAIN),
    ("walk_matrix", "walk_matrix", _PLAIN),
    ("walk_matrix_plus", "walk_matrix_plus", _PLAIN),
)
_SPECTRUM = (
    ("eigenvalues", "eigenvalues", _LIST),
    ("multiplicities", "multiplicities", _LIST),
)
_FLAGS = (
    ("walk_regular", "walk_regular", _PLAIN),
    ("h_punctually_walk_regular", "h_punctual", _TUPLE),
    ("distance_regular", "distance_regular", _PLAIN),
    ("distance_polynomial", "distance_polynomial", _PLAIN),
    ("quotient_polynomial", "quotient_polynomial", _PLAIN),
    ("orbit_polynomial", "orbit_polynomial", _PLAIN),
    ("distance_polynomials", "distance_polys", _optional(_POLYS)),
)
_ORBITS = (
    ("num_automorphisms", "num_automorphisms", _PLAIN),
    ("num_orbits", "num_orbits", _PLAIN),
    ("orbit_polynomial", "orbit_polynomial", _PLAIN),
)


def _encode(table, obj) -> dict:
    return {key: enc(attrgetter(path)(obj)) for key, path, (enc, _) in table}


def _decode(table, section: dict) -> dict:
    """Constructor keyword arguments from one JSON section."""
    return {path: dec(section[key])
            for key, path, (_, dec) in table if dec is not None}


def _class_pairs(pp: PairPartition, texts) -> list:
    """texts[u*n+v] for the pairs (u,v) of each class, row-major."""
    members, bounds = pp.class_members
    pairs = list(map(texts.__getitem__, members.tolist()))
    return [pairs[lo:hi] for lo, hi in pairwise(bounds.tolist())]


def _num_classes(pp: PairPartition) -> int:
    """The classes that meet a pair: an empty class, which `analyze` never
    makes, is not counted, so that r + 1 counts the classes of V x V."""
    return sum(map(bool, pp.class_sizes))


def _partition_dict(pp: PairPartition) -> dict:
    texts = [[u, v] for u in range(pp.n) for v in range(pp.n)]
    return {
        "num_classes": _num_classes(pp),
        "classes": [
            {"walk_vector": [str(x) for x in vec], "pairs": pairs}
            for vec, pairs in zip(pp.class_walk_vectors, _class_pairs(pp, texts))
        ],
    }


def _scheme_dict(report: Report) -> dict:
    s = report.scheme
    return {
        "classes": [(s.flat_index == k).astype(int).tolist()
                    for k in range(s.num_classes + 1)],
        "intersection_numbers": [[list(row) for row in pk]
                                 for pk in s.intersection_numbers],
        "generates": report.scheme_generates,
    }


def _sections(report: Report, partition, scheme) -> dict:
    """The report's sections, with the partition and scheme sections made
    by the given functions."""
    d: dict = {"graph": _encode(_GRAPH, report), "error": report.error}
    rep = report.quotient
    if rep is not None:
        d["quotient"] = _encode(_QUOTIENT, rep)
        d["partition"] = partition(rep.partition)
    if report.eigenvalues is not None:
        d["spectrum"] = _encode(_SPECTRUM, report)
    if report.flags is not None:
        d["flags"] = _encode(_FLAGS, report.flags)
    if report.scheme is not None:
        d["scheme"] = scheme(report)
    if report.orbit is not None:
        d["orbits"] = _encode(_ORBITS, report.orbit)
    return d


def report_to_dict(report: Report) -> dict:
    """The plain-dict form; `json.dumps(report_to_dict(r), indent=2)` defines
    the JSON bytes."""
    return _sections(report, _partition_dict, _scheme_dict)


def json_sections(report: Report) -> dict:
    """`report_to_dict`'s sections for `to_json`, with the partition and
    scheme sections left to their own encoders: `to_json` of it, or of any
    one section, is the text `json.dumps(..., indent=2)` gives for the same
    part of `report_to_dict`."""
    return _sections(report, lambda pp: _Encoded(_partition_json, pp),
                     lambda r: _Encoded(_scheme_json, r))


def _float_json(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


_LEAF_JSON = {str: encode_basestring_ascii, int: int.__repr__,
              float: _float_json, bool: lambda b: "true" if b else "false",
              type(None): lambda _: "null"}


class _Encoded:
    """A value that `_to_json` writes as `encode(value, indent)`, where indent
    is that of the value's position."""
    __slots__ = ("encode", "value")

    def __init__(self, encode, value):
        self.encode, self.value = encode, value


def _block(items: list[str], indent: str, brackets: str = "[]") -> str:
    """A JSON array (or object) of already encoded items, closed at indent,
    in one f-string around the one join: the body is copied once."""
    if not items:
        return brackets
    sep = ",\n  " + indent  # indent is spaces
    return f"{brackets[0]}\n  {indent}{sep.join(items)}\n{indent}{brackets[1]}"


def _to_json(o, indent: str) -> str:
    """`json.dumps(o, indent=2)` for dicts with str keys, lists, tuples and
    scalars of exactly those types, written with `str.join`: with an indent,
    `json.dumps` runs its pure-Python encoder instead of the C one. List
    items that are scalars are encoded inline, without a call; an `_Encoded`
    value is written by its encoder."""
    leaf = _LEAF_JSON.get(type(o))
    if leaf is not None:
        return leaf(o)
    inner = indent + "  "
    if isinstance(o, dict):
        return _block([f"{encode_basestring_ascii(k)}: {_to_json(v, inner)}"
                       for k, v in o.items()], indent, "{}")
    if isinstance(o, (list, tuple)):
        return _block([leaf(v) if (leaf := _LEAF_JSON.get(type(v)))
                       else _to_json(v, inner) for v in o], indent)
    if type(o) is _Encoded:
        return o.encode(o.value, indent)
    raise TypeError(f"{type(o).__name__} is not JSON serializable")


def to_json(o) -> str:
    """`json.dumps(o, indent=2)`, byte for byte, by the `str.join` writer."""
    return _to_json(o, "")


def _partition_json(pp: PairPartition, indent: str) -> str:
    """`_partition_dict(pp)` as `_to_json` writes it, without building it:
    one template per class joining quoted walk counts and pair texts, with no
    line break inside an empty list's brackets; digits need no escape."""
    i2, i4, i6, i8, i10 = (indent + " " * k for k in (2, 4, 6, 8, 10))
    head = "{\n" + i6 + '"walk_vector": ['
    mid = "],\n" + i6 + '"pairs": ['
    tail = "]\n" + i4 + "}"
    start, sep, end = "\n" + i8, ",\n" + i8, "\n" + i6
    qstart, qsep, qend, last = start + '"', f'"{sep}"', '"' + end, end + tail
    starts = [f"[\n{i10}{u},\n{i10}" for u in range(pp.n)]
    ends = [f"{v}\n{i8}]" for v in range(pp.n)]
    texts = [a + b for a in starts for b in ends]  # pair u*n+v
    classes = [
        head + (qstart if vec else "") + qsep.join(map(str, vec))
        + (qend if vec else "") + mid + (start if pairs else "")
        + sep.join(pairs) + (last if pairs else tail)
        for vec, pairs in zip(pp.class_walk_vectors, _class_pairs(pp, texts))]
    return (f'{{\n{i2}"num_classes": {_num_classes(pp)},\n'
            f'{i2}"classes": {_block(classes, i2)}\n{indent}}}')


def _scheme_json(report: Report, indent: str) -> str:
    """`_scheme_dict(report)` as `_to_json` writes it, without building it:
    class k is one join over the `0`/`1` digits of `flat_index == k`, and
    each row of p^k_ij one join over its ints (`AssociationScheme.of` reads
    ints only)."""
    s = report.scheme
    i2, i4, i6 = (indent + " " * k for k in (2, 4, 6))
    zero, sep = np.uint8(ord("0")), ",\n" + i6
    classes = [_block([sep.join(((s.flat_index == k) + zero).tobytes().decode())],
                      i4) for k in range(s.num_classes + 1)]
    p = [_block([_block(list(map(str, row)), i6) for row in pk], i4)
         for pk in s.intersection_numbers]
    return (f'{{\n{i2}"classes": {_block(classes, i2)},\n'
            f'{i2}"intersection_numbers": {_block(p, i2)},\n'
            f'{i2}"generates": {_to_json(report.scheme_generates, i2)}\n'
            f'{indent}}}')


def report_to_json(report: Report) -> str:
    return to_json(json_sections(report))


def report_to_text(report: Report) -> str:
    lines = [f"graph: n={report.n}, diameter={report.diameter}, "
             f"degrees={sorted(set(report.degree_sequence))}"]
    if report.error:
        lines.append(f"error: {report.error}")
        return "\n".join(lines)
    rep = report.quotient
    lines.append(f"d = {rep.d}, r = {rep.r}, "
                 f"quotient-polynomial: {rep.is_quotient_polynomial}")
    if report.eigenvalues is not None:
        spec = ", ".join(f"{lam:g}^{m}" for lam, m
                         in zip(report.eigenvalues, report.multiplicities))
        lines.append(f"spectrum: {{{spec}}}")
    f = report.flags
    if f is not None:
        lines.append(
            f"walk-regular: {f.walk_regular}, distance-regular: "
            f"{f.distance_regular}, distance-polynomial: {f.distance_polynomial}")
        if f.orbit_polynomial is not None:
            lines.append(f"orbit-polynomial: {f.orbit_polynomial}")
    if rep.polynomials:
        for i, p in enumerate(rep.polynomials):
            lines.append(f"p{i}(x) = {poly_to_text(p)}")
        lines.append(f"H(x) = {poly_to_text(rep.hoffman)}")
        lines.append("B = " + json.dumps(rep.intersection_b))
    if f is not None and f.distance_polys is not None and not rep.polynomials:
        for i, p in enumerate(f.distance_polys):
            lines.append(f"distance p{i}(x) = {poly_to_text(p)}")
    if report.scheme is not None:
        lines.append(f"association scheme with {report.scheme.num_classes} "
                     f"classes; generated by the graph: {report.scheme_generates}")
    if report.timing is not None:
        lines.append(f"elapsed: {report.timing:.3f}s")
    return "\n".join(lines)


def _walk_vector(k: int, texts) -> tuple[int, ...]:
    """Class k's walk vector from a list of strings as `str` writes ints."""
    if type(texts) is not list or not all(
            type(x) is str and x.isascii() and x.isdecimal()
            and str(int(x)) == x for x in texts):
        raise GraphInputError(f"class {k} has walk vector {texts!r}, "
                              "not decimal strings")
    return tuple(map(int, texts))


def _entries(field: str, values, want: int, kind: type) -> None:
    """Raise GraphInputError, naming the field, unless values is a list of
    `want` entries of exactly the type `kind`."""
    if type(values) is not list or len(values) != want or any(
            type(x) is not kind for x in values):
        raise GraphInputError(f"{field} is {values!r}, not {want} "
                              f"{kind.__name__}s")


def report_from_dict(d: dict) -> Report:
    """Rebuild a Report from its JSON dict; inverse of report_to_dict."""
    report = Report(**_decode(_GRAPH, d["graph"]), error=d.get("error"))
    n = report.n
    if len(report.degree_sequence) != n:
        raise GraphInputError(f"graph.degree_sequence has "
                              f"{len(report.degree_sequence)} entries for "
                              f"{n} vertices")
    if "quotient" in d:
        q = d["quotient"]
        _entries("quotient.local_dimensions", q["local_dimensions"], n, int)
        classes = d["partition"]["classes"]
        pp = PairPartition.of(
            n, [_walk_vector(k, c["walk_vector"]) for k, c in enumerate(classes)],
            [c["pairs"] for c in classes])
        num = _num_classes(pp)
        for field, value, want in (
                ("partition.num_classes", d["partition"]["num_classes"], num),
                ("quotient.r", q["r"], num - 1),
                ("quotient.d", q["d"], len(pp.class_walk_vectors[0]) - 1)):
            if type(value) is not int or value != want:
                raise GraphInputError(f"{field} is {value!r}, not the {want} "
                                      "its partition gives")
        if q["polynomials"] is not None:
            _entries("quotient.polynomials", q["polynomials"], num, list)
        report.quotient = QuotientReport(**_decode(_QUOTIENT, q), partition=pp)
    if "spectrum" in d:
        s, want = d["spectrum"], d["quotient"]["d"] + 1  # checked above
        _entries("spectrum.eigenvalues", s["eigenvalues"], want, float)
        _entries("spectrum.multiplicities", m := s["multiplicities"], want, int)
        if min(m) < 1 or sum(m) != n:
            raise GraphInputError(f"spectrum.multiplicities are {m!r}, not "
                                  f"positive with sum n = {n}")
        vars(report).update(_decode(_SPECTRUM, s))
    if "flags" in d:
        _entries("flags.h_punctually_walk_regular",
                 d["flags"]["h_punctually_walk_regular"], report.diameter + 1,
                 bool)
        report.flags = ClassificationFlags(**_decode(_FLAGS, d["flags"]))
    if "scheme" in d:
        s = d["scheme"]
        report.scheme = AssociationScheme.of(n, s["classes"],
                                             s["intersection_numbers"])
        report.scheme_generates = s["generates"]
    if "orbits" in d:
        report.orbit = OrbitResult(**_decode(_ORBITS, d["orbits"]))
    return report


# --- census ----------------------------------------------------------------

def census(lines, options: AnalysisOptions = AnalysisOptions()):
    """Analyze a stream of graph6 lines into (records, summary), one record
    per analysed line. Disconnected graphs are counted and skipped; malformed
    lines and failed analyses are logged and counted, and processing goes
    on. So it does past a ContractViolationError, logged too and listed in
    the summary's `contract_violations` by line, graph6 and message.
    """
    from .formats import parse_graph6
    records, violations = [], []
    skipped_disconnected = 0
    parse_errors = analysis_errors = 0
    flag_counts: dict[str, int] = {}
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            g = parse_graph6(line)
        except Exception as e:
            parse_errors += 1
            log.error("line %d: %s", lineno, e)
            continue
        try:
            report = analyze(g, options)
        except (AnalysisError, ToleranceError) as e:
            analysis_errors += 1
            log.error("line %d (%s): %s", lineno, line.strip(), e)
            continue
        except ContractViolationError as e:
            log.critical("line %d (%s): %s", lineno, line.strip(), e)
            violations.append({"line": lineno, "graph6": line.strip(),
                               "error": str(e)})
            continue
        if report.error is not None:
            skipped_disconnected += 1
            continue
        f = report.flags
        rec = {
            "line": lineno,
            "graph6": line.strip(),
            "n": report.n,
            "d": report.quotient.d,
            "r": report.quotient.r,
            "D": report.diameter,
            "walk_regular": f.walk_regular,
            "distance_regular": f.distance_regular,
            "distance_polynomial": f.distance_polynomial,
            "quotient_polynomial": f.quotient_polynomial,
            "orbit_polynomial": f.orbit_polynomial,
        }
        for key in ("walk_regular", "distance_regular", "distance_polynomial",
                    "quotient_polynomial"):
            if rec[key]:
                flag_counts[key] = flag_counts.get(key, 0) + 1
        records.append(rec)
    summary = {
        "graphs": len(records),
        "skipped_disconnected": skipped_disconnected,
        "parse_errors": parse_errors,
        "analysis_errors": analysis_errors,
        "flag_counts": flag_counts,
        "contract_violations": violations,
    }
    return records, summary
