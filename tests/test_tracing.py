"""The benchmark's tracer finds every pipeline stage it names, and the
default path calls each of them.

bench/tracing.py wraps functions by name; a refactor that renames or removes
one of them, or stops calling it, would make its stage read 0 without an
error. These guards turn that into a test failure."""
import sys
from pathlib import Path

import pytest

import quograph

# Every stage of bench/tracing.py's STAGES but five: `partition`
# (`global_partition` has no caller in the package), `spectrum_partition`,
# `witness` and `orbits`, which run only with `debug_checks` and `orbits`
# on, and `distances`: the default path computes no all-pairs distances,
# and `automorphisms` calls `distances` inside the `orbits` stage.
DEFAULT_STAGES = ["parse", "ladder", "qp", "spectrum", "dp", "drg",
                  "h_punctual", "serialize"]
DEBUG_STAGES = ["spectrum_partition", "witness", "orbits"]


def tracer():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    from tracing import Tracer
    return Tracer(quograph)


def test_tracer_finds_every_stage():
    assert tracer().absent == []


def traced(spec, options=quograph.AnalysisOptions()):
    """The tracer after parse -> analyze -> report_to_json of one graph."""
    t = tracer()
    t.install()
    try:
        quograph.report_to_json(
            quograph.analyze(quograph.parse_graph_spec(spec), options))
    finally:
        t.uninstall()
    return t


@pytest.mark.parametrize("spec, qp_stages", [
    ("name:petersen", ["scheme", "scheme_check"]),
    ("graph6:Bo", []),  # the path P3, not QP
])
def test_default_path_runs_every_stage(spec, qp_stages):
    """parse -> analyze -> report_to_json opens each stage of the default
    options, and on a QP graph the scheme stages too, but no debug
    witness."""
    t = traced(spec)
    for stage in DEFAULT_STAGES + qp_stages:
        assert t.stage_s[stage] > 0, stage
    for stage in ["distances"] + DEBUG_STAGES:
        assert t.stage_s[stage] == 0, stage


def test_debug_checks_run_every_witness_stage():
    """With debug_checks and orbits on, each debug witness opens its stage:
    a refactor that stops calling one fails here."""
    t = traced("name:petersen",
               quograph.AnalysisOptions(debug_checks=True, orbits=True))
    for stage in DEFAULT_STAGES + DEBUG_STAGES:
        assert t.stage_s[stage] > 0, stage
