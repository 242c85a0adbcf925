"""Command line interface.

Subcommands: analyze, partition, polys, scheme, census.
Exit codes: 0 success, 1 input error, 2 internal contract violation (a result
that falsifies a theorem; these indicate bugs and are loud), 3 numeric
disagreement (the eigenvalue grouping, or under --debug-checks the m-vector
grouping, failed at the given tolerance).
"""
from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

from .errors import (ContractViolationError, GraphInputError, QuographError,
                     ToleranceError)
from .exact import poly_to_text
from .formats import parse_graph_spec
from .report import (AnalysisOptions, analyze, census, json_sections,
                     report_to_json, report_to_text, to_json)
from .spectral import DEFAULT_TOL

TOL_ENV_VAR = "QUOGRAPH_TOL"


def _tolerance(text: str, source: str) -> float:
    """A finite, non-negative tolerance, or GraphInputError naming its
    source."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0 <= tol < math.inf:
        raise GraphInputError(
            f"{source}: tolerance must be a finite non-negative number, "
            f"got {text!r}")
    return tol


def _tolerances(args) -> float:
    if args.tol is not None:
        return _tolerance(args.tol, "--tol")
    env = os.environ.get(TOL_ENV_VAR)
    if env:
        return _tolerance(env, TOL_ENV_VAR)
    return DEFAULT_TOL


def _options(args) -> AnalysisOptions:
    return AnalysisOptions(
        orbits=getattr(args, "orbits", False),
        tol=_tolerances(args),
        debug_checks=getattr(args, "debug_checks", False),
    )


def _add_common(p: argparse.ArgumentParser, graph_arg: bool = True):
    if graph_arg:
        p.add_argument("graph", help=(
            "graph source: circulant:N:s1,s2 | graph6:<line> | name:<family> "
            "| file:<path> | path to an edge list"))
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.add_argument("--orbits", action="store_true",
                   help="run the automorphism/orbit pass (graphs with at "
                        "most 10 vertices)")
    p.add_argument("--tol", default=None,
                   help="spectral tolerance, a finite non-negative number "
                        f"(also env {TOL_ENV_VAR}): the eigenvalue gap, and "
                        "with --debug-checks the m-vector distance")
    p.add_argument("--debug-checks", action="store_true",
                   help="enable redundant witnesses (m-vectors grouped within "
                        "--tol as the walk classes, walk vectors extended "
                        "to length 2d+1, exact float64 products J_i J_j against the "
                        "intersection numbers at every pair (they are "
                        "counted at vertex 0), p_i p_j = sum_k p^k_ij p_k "
                        "modulo the minimal polynomial, distance polynomials "
                        "as sums of quotient polynomials, and with --orbits "
                        "the orbit count against membership of every orbit "
                        "matrix)")


def cmd_analyze(args) -> int:
    g = parse_graph_spec(args.graph)
    report = analyze(g, _options(args))
    if args.format == "json":
        print(report_to_json(report))
    else:
        print(report_to_text(report))
    return 1 if report.error else 0


def cmd_partition(args) -> int:
    g = parse_graph_spec(args.graph)
    report = analyze(g, _options(args))
    if report.error:
        print(report.error, file=sys.stderr)
        return 1
    if args.format == "json":
        print(to_json(json_sections(report)["partition"]))
    else:
        pp = report.quotient.partition
        print(f"{pp.r + 1} classes (r = {pp.r})")
        for i, (vec, size) in enumerate(zip(pp.class_walk_vectors, pp.class_sizes)):
            print(f"J{i}: walk vector {list(vec)}, {size} pairs")
    return 0


def cmd_polys(args) -> int:
    g = parse_graph_spec(args.graph)
    report = analyze(g, _options(args))
    if report.error:
        print(report.error, file=sys.stderr)
        return 1
    rep = report.quotient
    if args.format == "json":
        d = json_sections(report)
        print(to_json({"quotient": d["quotient"], "flags": d["flags"]}))
        return 0
    if rep.polynomials:
        for i, p in enumerate(rep.polynomials):
            print(f"p{i}(x) = {poly_to_text(p)}")
        print(f"H(x) = {poly_to_text(rep.hoffman)}")
    else:
        print(f"not quotient-polynomial (r = {rep.r} > d = {rep.d})")
    f = report.flags
    if f.distance_polys is not None:
        for i, p in enumerate(f.distance_polys):
            print(f"distance p{i}(x) = {poly_to_text(p)}")
    else:
        print("not distance-polynomial")
    return 0


def cmd_scheme(args) -> int:
    g = parse_graph_spec(args.graph)
    report = analyze(g, _options(args))
    if report.error:
        print(report.error, file=sys.stderr)
        return 1
    if report.scheme is None:
        print("graph is not quotient-polynomial; it generates no scheme",
              file=sys.stderr)
        return 1
    if args.format == "json":
        print(to_json(json_sections(report)["scheme"]))
    else:
        s = report.scheme
        print(f"{s.num_classes}-class association scheme on {report.n} points; "
              f"generated by the graph: {report.scheme_generates}")
        for k, pk in enumerate(s.intersection_numbers):
            print(f"p^{k}_ij = {json.dumps([list(r) for r in pk])}")
    return 0


def cmd_census(args) -> int:
    if args.input == "-":
        lines = sys.stdin.readlines()
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    records, summary = census(lines, _options(args))
    if args.format == "json":
        print(to_json({"records": records, "summary": summary}))
    else:
        for rec in records:
            flags = "".join([
                "W" if rec["walk_regular"] else "-",
                "Q" if rec["quotient_polynomial"] else "-",
                "P" if rec["distance_polynomial"] else "-",
                "R" if rec["distance_regular"] else "-",
            ])
            print(f"{rec['graph6']}: n={rec['n']} d={rec['d']} r={rec['r']} "
                  f"D={rec['D']} [{flags}]")
        print(f"summary: {json.dumps(summary)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="quograph",
        description="Walk-regular partitions, quotient polynomials, and "
                    "association schemes of finite graphs (exact arithmetic)")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text, func in (
            ("analyze", "full analysis report", cmd_analyze),
            ("partition", "walk-regular partition of V x V", cmd_partition),
            ("polys", "quotient and distance polynomials", cmd_polys),
            ("scheme", "generated association scheme", cmd_scheme),
            ("census", "batch mode over a graph6 stream", cmd_census)):
        p = sub.add_parser(name, help=text)
        if func is cmd_census:
            p.add_argument("input", help="graph6 file, or - for stdin")
        _add_common(p, graph_arg=func is not cmd_census)
        p.set_defaults(func=func)

    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed the pipe (`| head`): per the SIGPIPE note in the
        # Python signal docs, send the remaining output to devnull and exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except ContractViolationError as e:
        print(f"internal consistency error: {e}", file=sys.stderr)
        return 2
    except ToleranceError as e:
        print(f"numeric disagreement: {e}", file=sys.stderr)
        return 3
    except (GraphInputError, QuographError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
