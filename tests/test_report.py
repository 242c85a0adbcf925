"""Report pipeline, serialization round trip, and census records."""
import hashlib
import json
import math
import sys
from pathlib import Path

from quograph import (AnalysisOptions, analyze, build_graph, census,
                      cycle_graph, path_graph, petersen_graph,
                      report_from_dict, report_to_dict, report_to_json,
                      report_to_text)


def test_analyze_flags_and_fields(circ17):
    rpt = analyze(circ17)
    assert rpt.error is None
    assert rpt.quotient.is_quotient_polynomial
    assert rpt.flags.walk_regular and rpt.flags.distance_polynomial
    assert not rpt.flags.distance_regular
    assert rpt.scheme is not None and rpt.scheme_generates
    assert rpt.multiplicities == [1, 4, 4, 4, 4]
    assert rpt.timing is not None and rpt.timing > 0


def test_analyze_disconnected_partial_report():
    rpt = analyze(build_graph(4, [(0, 1), (2, 3)]))
    assert rpt.error is not None and "disconnected" in rpt.error
    assert rpt.quotient is None and rpt.flags is None
    assert rpt.diameter is None


def test_json_round_trip(circ17, y6):
    for g in [circ17, y6, petersen_graph(), path_graph(4)]:
        rpt = analyze(g)
        d1 = report_to_dict(rpt)
        d2 = report_to_dict(report_from_dict(d1))
        assert d1 == d2
        # serialization itself is deterministic
        assert report_to_json(rpt) == json.dumps(d1, indent=2)


def test_json_writer_matches_json_dumps():
    """report_to_json's writer gives json.dumps(..., indent=2) byte for byte
    on edge values."""
    from quograph.report import _to_json
    values = [
        {}, [], (), {"a": {}, "b": []}, [[], {}, ()],
        (1, (2, (3, ())), [4, (5,)]),
        {"\u00e9t\u00e9": "snow \u2603, \"quoted\"\n\ttab \U0001F600"},
        10 ** 40, -(10 ** 40), -7, 0, True, False, None,
        1e-12, -0.0, 0.1, 1e300, math.nan, math.inf, -math.inf,
        {"flags": [True, False, None], "x": [1e-12, math.nan, math.inf],
         "nested": {"deeper": [{"k": ["v", -1, 2.5]}]}},
    ]
    for v in values:
        assert _to_json(v, "") == json.dumps(v, indent=2), v
    assert _to_json(values, "") == json.dumps(values, indent=2)


def test_corpus_json_matches_committed_digests(corpus_reports):
    """Every corpus report serializes to the bytes the benchmark committed,
    and report_from_dict gives those bytes back."""
    bench = Path(__file__).resolve().parent.parent / "bench"
    sys.path.insert(0, str(bench))
    from inputs import DEFAULT_SEED, workload_inputs
    digests = json.loads((bench / "digests.json").read_text())["corpus"]
    specs = workload_inputs("corpus", DEFAULT_SEED)
    reports, _ = corpus_reports
    assert len(specs) == len(reports)
    for spec, rpt in zip(specs, reports):
        js = report_to_json(rpt)
        assert hashlib.sha256(js.encode()).hexdigest() == digests[spec], spec
        assert report_to_json(report_from_dict(json.loads(js))) == js, spec


def test_json_round_trip_with_orbits():
    rpt = analyze(cycle_graph(6), AnalysisOptions(orbits=True))
    d1 = report_to_dict(rpt)
    assert d1["orbits"]["num_automorphisms"] == 12
    assert report_to_dict(report_from_dict(d1)) == d1


def test_timing_never_serialized(circ17):
    d = report_to_dict(analyze(circ17))
    assert "timing" not in json.dumps(d)


def test_report_text_sections(y6):
    text = report_to_text(analyze(y6))
    assert "quotient-polynomial: False" in text
    assert "distance p2(x)" in text


def test_orbit_pass_skipped_over_cap(caplog):
    # twelve vertices exceeds the default cap; the report survives without
    # an orbit section
    rpt = analyze(cycle_graph(12), AnalysisOptions(orbits=True))
    assert rpt.orbit is None
    assert rpt.flags.orbit_polynomial is None


def test_debug_checks_pass(circ17, y6):
    for g in [circ17, y6, petersen_graph(), cycle_graph(41)]:  # C41: d = 20
        rpt = analyze(g, AnalysisOptions(debug_checks=True))
        assert rpt.error is None


def test_census_records():
    lines = ["A_", "Bw", "garbage\x01", "B?"]
    records, summary = census(lines)
    assert summary["graphs"] == 2
    assert summary["parse_errors"] == 1
    assert summary["skipped_disconnected"] == 1
    assert summary["flag_counts"]["quotient_polynomial"] == 2
    assert records[0]["n"] == 2 and records[1]["n"] == 3
