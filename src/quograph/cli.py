"""Command line interface.

Subcommands: analyze, partition, polys, scheme, census.
Exit codes: 0 success, 1 input error, 2 internal contract violation (a result
that falsifies a theorem; these indicate bugs and are loud).
"""
from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

from .errors import (ContractViolationError, GraphInputError, QuographError)
from .exact import poly_to_text
from .formats import parse_graph_spec
from .report import (AnalysisOptions, analyze, census, report_to_dict,
                     report_to_json, report_to_text)
from .spectral import Tolerances

TOL_ENV_VAR = "QUOGRAPH_TOL"


def _tolerance(text: str, source: str) -> float:
    """A finite, non-negative base tolerance, or GraphInputError naming its
    source."""
    try:
        base = float(text)
    except ValueError:
        base = math.nan
    if not 0 <= base < math.inf:
        raise GraphInputError(
            f"{source}: tolerance must be a finite non-negative number, "
            f"got {text!r}")
    return base


def _tolerances(args) -> Tolerances:
    if args.tol is not None:
        return Tolerances.with_base(_tolerance(args.tol, "--tol"))
    env = os.environ.get(TOL_ENV_VAR)
    if env:
        return Tolerances.with_base(_tolerance(env, TOL_ENV_VAR))
    return Tolerances()


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
                   help="run the capped automorphism/orbit pass")
    p.add_argument("--tol", default=None,
                   help="spectral tolerance, a finite non-negative number "
                        f"(also env {TOL_ENV_VAR})")
    p.add_argument("--debug-checks", action="store_true",
                   help="enable redundant witnesses (walk vectors extended "
                        "to length 2d+1, int64 products J_i J_j against the "
                        "intersection numbers, p_i p_j = sum_k p^k_ij p_k "
                        "modulo the minimal polynomial, distance polynomials "
                        "as sums of quotient polynomials)")


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
    d = report_to_dict(report)
    if args.format == "json":
        print(json.dumps(d["partition"], indent=2))
    else:
        pp = report.quotient.partition
        print(f"{pp.r + 1} classes (r = {pp.r})")
        for i, (vec, cls) in enumerate(zip(pp.class_walk_vectors, pp.classes)):
            print(f"J{i}: walk vector {list(vec)}, {len(cls)} pairs")
    return 0


def cmd_polys(args) -> int:
    g = parse_graph_spec(args.graph)
    report = analyze(g, _options(args))
    if report.error:
        print(report.error, file=sys.stderr)
        return 1
    rep = report.quotient
    if args.format == "json":
        d = report_to_dict(report)
        print(json.dumps({"quotient": d["quotient"],
                          "flags": d["flags"]}, indent=2))
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
    d = report_to_dict(report)
    if args.format == "json":
        print(json.dumps(d["scheme"], indent=2))
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
        print(json.dumps({"records": records, "summary": summary}, indent=2))
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

    p = sub.add_parser("analyze", help="full analysis report")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("partition", help="walk-regular partition of V x V")
    _add_common(p)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("polys", help="quotient and distance polynomials")
    _add_common(p)
    p.set_defaults(func=cmd_polys)

    p = sub.add_parser("scheme", help="generated association scheme")
    _add_common(p)
    p.set_defaults(func=cmd_scheme)

    p = sub.add_parser("census", help="batch mode over a graph6 stream")
    p.add_argument("input", help="graph6 file, or - for stdin")
    _add_common(p, graph_arg=False)
    p.set_defaults(func=cmd_census)

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
    except (GraphInputError, QuographError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
