"""The benchmark's tracer finds every pipeline stage it names, and the
default path calls each of them.

bench/tracing.py wraps functions by name; a refactor that renames or removes
one of them, or stops calling it, would make its stage read 0 without an
error. These guards turn that into a test failure."""
import sys
from pathlib import Path

import pytest

import quograph

# Every stage of bench/tracing.py's STAGES but four: `partition`
# (`global_partition` has no caller in the package), `witness` and
# `orbits`, which run only with `debug_checks` and `orbits` on, and
# `distances`: the default path computes no all-pairs distances, and
# `automorphisms` calls `distances` inside the `orbits` stage.
DEFAULT_STAGES = ["parse", "ladder", "qp", "spectrum", "spectrum_partition",
                  "dp", "drg", "h_punctual", "serialize"]


def tracer():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    from tracing import Tracer
    return Tracer(quograph)


def test_tracer_finds_every_stage():
    assert tracer().absent == []


@pytest.mark.parametrize("spec, qp_stages", [
    ("name:petersen", ["scheme", "scheme_check"]),
    ("graph6:Bo", []),  # the path P3, not QP
])
def test_default_path_runs_every_stage(spec, qp_stages):
    """parse -> analyze -> report_to_json opens each stage of the default
    options, and on a QP graph the scheme stages too."""
    t = tracer()
    t.install()
    try:
        quograph.report_to_json(quograph.analyze(quograph.parse_graph_spec(spec)))
    finally:
        t.uninstall()
    for stage in DEFAULT_STAGES + qp_stages:
        assert t.stage_s[stage] > 0, stage
    assert t.stage_s["distances"] == 0
