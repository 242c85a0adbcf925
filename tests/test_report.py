"""Report pipeline, serialization round trip, and census records."""
import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from quograph import (AnalysisOptions, analyze, build_graph, census,
                      cycle_graph, parse_graph_spec, path_graph,
                      petersen_graph, report_from_dict, report_to_dict,
                      report_to_json, report_to_text)
from quograph.report import json_sections, to_json

BENCH = Path(__file__).resolve().parent.parent / "bench"


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
    """Every corpus report serializes to json.dumps(report_to_dict(r),
    indent=2), whose sha256 the benchmark committed, and report_from_dict
    gives those bytes back."""
    sys.path.insert(0, str(BENCH))
    from inputs import DEFAULT_SEED, workload_inputs
    digests = json.loads((BENCH / "digests.json").read_text())["corpus"]
    specs = workload_inputs("corpus", DEFAULT_SEED)
    reports, _ = corpus_reports
    assert len(specs) == len(reports)
    for spec, rpt in zip(specs, reports):
        js = report_to_json(rpt)
        assert js == json.dumps(report_to_dict(rpt), indent=2), spec
        assert hashlib.sha256(js.encode()).hexdigest() == digests[spec], spec
        assert report_to_json(report_from_dict(json.loads(js))) == js, spec


@pytest.mark.parametrize("workload", ["large", "witness"])
def test_workload_json_matches_committed_digests(workload):
    """As the corpus test above, for every op of the other benchmark
    workloads, run with the options bench/run.py gives them."""
    sys.path.insert(0, str(BENCH))
    import quograph
    from inputs import DEFAULT_SEED, workload_inputs
    from run import options_for
    digests = json.loads((BENCH / "digests.json").read_text())[workload]
    options = options_for(quograph, workload)
    for spec in workload_inputs(workload, DEFAULT_SEED):
        rpt = analyze(parse_graph_spec(spec), options)
        js = report_to_json(rpt)
        assert js == json.dumps(report_to_dict(rpt), indent=2), spec
        assert hashlib.sha256(js.encode()).hexdigest() == digests[spec], spec


def assert_writes_as_dumps(rpt):
    """report_to_json gives json.dumps(report_to_dict(rpt), indent=2), or
    raises TypeError where json.dumps does; so does each section alone."""
    d = report_to_dict(rpt)
    sections = json_sections(rpt)
    for o, want in [(sections, d)] + [(sections[k], d[k]) for k in d]:
        try:
            text = json.dumps(want, indent=2)
        except TypeError:
            with pytest.raises(TypeError):
                to_json(o)
        else:
            assert to_json(o) == text


@pytest.mark.parametrize("entry", [True, False, 2, -1, 10 ** 30, 1.0,
                                   np.int64(1)])
def test_scheme_class_entry_not_a_bit(petersen, entry):
    """A scheme class entry other than the int 0 or 1 goes to the generic
    writer, which writes it as json.dumps does or raises TypeError."""
    rpt = analyze(petersen)
    classes = [[list(row) for row in m] for m in rpt.scheme.classes]
    classes[1][3][4] = entry
    rpt.scheme = dataclasses.replace(rpt.scheme, classes=tuple(classes))
    assert_writes_as_dumps(rpt)


def test_big_walk_count(petersen):
    """A walk count past 2^64 is written whole, as a decimal string."""
    rpt = analyze(petersen)
    pp = rpt.quotient.partition
    vectors = list(pp.class_walk_vectors)
    vectors[2] = vectors[2][:-1] + (2 ** 64 + 1,)
    rpt.quotient.partition = dataclasses.replace(
        pp, class_walk_vectors=tuple(vectors))
    assert f'"{2 ** 64 + 1}"' in report_to_json(rpt)
    assert_writes_as_dumps(rpt)


def test_empty_partition_lists(petersen):
    """An empty class, as report_from_dict reads it from "pairs": [], or an
    empty walk vector, neither of which analyze makes, is written as
    json.dumps writes it."""
    d = report_to_dict(analyze(petersen))
    d["partition"]["classes"].append({"walk_vector": ["0", "0", "5"],
                                      "pairs": []})
    rpt = report_from_dict(d)
    assert_writes_as_dumps(rpt)
    pp = rpt.quotient.partition
    rpt.quotient.partition = dataclasses.replace(
        pp, class_walk_vectors=pp.class_walk_vectors[:-1] + ((),))
    assert_writes_as_dumps(rpt)


@pytest.mark.parametrize("spec", ["graph6:@", "name:petersen", "name:y6",
                                  "circulant:17:1,4"])
def test_sections_at_root_and_report_depth(spec):
    """The partition and scheme sections written alone at root depth, and
    inside the report, are the bytes of json.dumps; `@` is the one-vertex
    graph, whose scheme has the single class [[1]]."""
    rpt = analyze(parse_graph_spec(spec))
    assert_writes_as_dumps(rpt)
    if spec == "graph6:@":
        assert report_to_dict(rpt)["scheme"]["classes"] == [[1]]


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
