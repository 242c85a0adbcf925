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
from quograph.errors import GraphInputError
from quograph.report import json_sections, to_json
from quograph.schemes import AssociationScheme, build_scheme

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
    """A scheme class entry other than the int 0 or 1 is rejected on
    reading, naming the class and the pair; it used to reach the writer."""
    d = report_to_dict(analyze(petersen))
    d["scheme"]["classes"][1][3 * 10 + 4] = entry
    with pytest.raises(GraphInputError,
                       match=r"scheme class 1 has .* at pair \(3, 4\), not 0 or 1"):
        report_from_dict(d)


@pytest.mark.parametrize("edit,message", [
    (lambda cls: cls.pop(2), r"pair \(0, 2\) is in no scheme class"),
    (lambda cls: cls[1].__setitem__(0, 1),
     r"pair \(0, 0\) is in scheme classes 0 and 1"),
    (lambda cls: cls[1].__setitem__(0, 2), r"has 2 at pair \(0, 0\)"),
    (lambda cls: cls[1].__setitem__(0, True), r"has True at pair \(0, 0\)"),
], ids=["missing", "twice", "two", "true"])
def test_scheme_classes_must_partition_pairs(petersen, edit, message):
    """report_from_dict rejects scheme classes that leave a pair out, put
    one in two classes, or hold an entry other than the int 0 or 1, naming
    the pair; it used to return such a scheme."""
    d = report_to_dict(analyze(petersen))
    edit(d["scheme"]["classes"])
    with pytest.raises(GraphInputError, match=message):
        report_from_dict(d)


@pytest.mark.parametrize("entry", [True, 1.0, "1"])
def test_intersection_numbers_must_be_ints(petersen, entry):
    """report_from_dict rejects an intersection number that is not an int,
    which the scheme writer would not write as json.dumps does."""
    d = report_to_dict(analyze(petersen))
    d["scheme"]["intersection_numbers"][0][0][0] = entry
    with pytest.raises(GraphInputError, match="not an int"):
        report_from_dict(d)


@pytest.mark.parametrize("edit", [
    lambda p: p[0].pop(),               # a dropped row of p^0
    lambda p: p.append(p[0]),           # an extra p^k
    lambda p: p[1][2].append(0),        # a row one entry too long
])
def test_intersection_numbers_must_be_a_cube(petersen, edit):
    """report_from_dict rejects intersection numbers that are not a
    (d+1) x (d+1) x (d+1) array; it used to read them, and the
    `--debug-checks` witness then raised numpy's ValueError."""
    d = report_to_dict(analyze(petersen))
    edit(d["scheme"]["intersection_numbers"])
    with pytest.raises(GraphInputError, match="not a 3 x 3 x 3 array"):
        report_from_dict(d)


def test_local_dimensions_must_have_n_entries(petersen):
    """report_from_dict rejects a local dimension list whose length is not
    n; it used to return it."""
    d = report_to_dict(analyze(petersen))
    d["quotient"]["local_dimensions"].pop()
    with pytest.raises(GraphInputError,
                       match=r"quotient.local_dimensions is \[.*\], not 10 ints"):
        report_from_dict(d)


@pytest.mark.parametrize("edit,message", [
    (lambda d: d["partition"].__setitem__("num_classes", 7),
     "partition.num_classes is 7, not the 3 its partition gives"),
    (lambda d: d["quotient"].__setitem__("r", 5),
     "quotient.r is 5, not the 2 its partition gives"),
    (lambda d: d["quotient"].__setitem__("d", 6),
     "quotient.d is 6, not the 2 its partition gives"),
    (lambda d: d["quotient"].__setitem__("d", "2"),
     "quotient.d is '2', not the 2 its partition gives"),
    (lambda d: d["graph"]["degree_sequence"].pop(),
     "graph.degree_sequence has 9 entries for 10 vertices"),
])
def test_counts_must_match_what_is_read(petersen, edit, message):
    """report_from_dict rejects a class count, r or d that its partition
    does not give, and a degree sequence whose length is not n, naming the
    field; it used to rewrite num_classes 7 as 3, and to return r = 5 beside
    a partition with r = 2, d = 6 beside walk vectors of length 3 and 9
    degrees for 10 vertices."""
    d = report_to_dict(analyze(petersen))
    edit(d)
    with pytest.raises(GraphInputError, match=message):
        report_from_dict(d)


def assert_rejected(petersen, section, field, value, message):
    """Petersen's report with one field replaced fails to read, with a
    GraphInputError that names the field."""
    d = report_to_dict(analyze(petersen))
    d[section][field] = value
    with pytest.raises(GraphInputError, match=rf"{section}\.{field} .*{message}"):
        report_from_dict(d)


@pytest.mark.parametrize("value,message", [
    (["x", None, 7], r"is \['x', None, 7\], not 3 floats"),
    ([3, 1.0, -2.0], "not 3 floats"),
    ([3.0, 1.0], "not 3 floats"),
    ("3.0", "not 3 floats"),
])
def test_spectrum_eigenvalues_must_be_d_plus_1_floats(petersen, value, message):
    """report_from_dict rejects eigenvalues that are not quotient.d + 1
    floats; it used to read ['x', None, 7]."""
    assert_rejected(petersen, "spectrum", "eigenvalues", value, message)


@pytest.mark.parametrize("value,message", [
    ([1, 5], r"is \[1, 5\], not 3 ints"),
    ([1, 5.0, 4], "not 3 ints"),
    ([True, 5, 4], "not 3 ints"),
    ([1, 9, 0], r"are \[1, 9, 0\], not positive with sum n = 10"),
    ([1, 5, 5], "not positive with sum n = 10"),
])
def test_spectrum_multiplicities_must_count_the_vertices(petersen, value,
                                                         message):
    """report_from_dict rejects multiplicities that are not quotient.d + 1
    positive ints summing to n; it used to read [1, 5]."""
    assert_rejected(petersen, "spectrum", "multiplicities", value, message)


@pytest.mark.parametrize("value", [[True], [True, True, True, True],
                                   [1, 1, 1]])
def test_h_punctual_flags_must_cover_the_diameter(petersen, value):
    """report_from_dict rejects h-punctual flags that are not diameter + 1
    bools; it used to read [true] for Petersen, of diameter 2."""
    assert_rejected(petersen, "flags", "h_punctually_walk_regular", value,
                    "not 3 bools")


def test_quotient_polynomials_must_be_r_plus_1(petersen):
    """report_from_dict rejects quotient polynomials that are not r + 1
    lists; it used to read Petersen's report with one polynomial."""
    d = report_to_dict(analyze(petersen))
    assert_rejected(petersen, "quotient", "polynomials",
                    d["quotient"]["polynomials"][:1], "not 3 lists")


def test_empty_class_is_not_counted(petersen):
    """An empty class meets no pair, so it is not among the r + 1 classes:
    written with one, a report reads back, its counts unchanged."""
    d = report_to_dict(analyze(petersen))
    d["partition"]["classes"].append({"walk_vector": ["0", "0", "5"],
                                      "pairs": []})
    rpt = report_from_dict(d)
    assert rpt.quotient.partition.r == 3 and rpt.quotient.r == 2
    assert report_to_dict(rpt) == d
    assert report_to_dict(report_from_dict(json.loads(report_to_json(rpt)))) == d


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


@pytest.mark.parametrize("edit,message", [
    (lambda cls: cls[2]["pairs"].remove([0, 2]), r"pair \(0, 2\) is in no class"),
    (lambda cls: cls[1]["pairs"].append([0, 2]),
     r"pair \(0, 2\) is listed in classes 1 and 2"),
    (lambda cls: cls[2]["pairs"].append([0, 10]),
     r"pair \(0, 10\) lies outside V x V"),
    (lambda cls: cls[2]["pairs"].append([0.0, 0]),
     r"class 2 has pair \[0.0, 0\], not two int vertices"),
    (lambda cls: cls[2]["pairs"].append([0, 0, 1]),
     r"class 2 has pair \[0, 0, 1\], not two int vertices"),
    (lambda cls: cls[1]["walk_vector"].__setitem__(0, "x"),
     r"class 1 has walk vector \['x', '1', '0'\], not decimal strings"),
    (lambda cls: cls[1]["walk_vector"].__setitem__(0, "+1"),
     r"class 1 has walk vector \['\+1', '1', '0'\], not decimal strings"),
    (lambda cls: cls[2]["walk_vector"].pop(),
     r"class 2 has a walk vector of length 2, not 3"),
])
def test_partition_pairs_must_partition_pairs(petersen, edit, message):
    """report_from_dict rejects pair lists that miss a pair, list one twice,
    or list one outside V x V, naming the pair; it used to file a missing
    pair under class 0 and a repeated one under its last class. A pair that
    is not two ints, a walk-vector entry that is not a decimal string and a
    walk vector of another length are rejected too, naming the class; they
    used to raise TypeError or ValueError, or be read."""
    d = report_to_dict(analyze(petersen))
    edit(d["partition"]["classes"])
    with pytest.raises(GraphInputError, match=message):
        report_from_dict(d)


def test_scheme_classes_must_have_n_squared_entries(petersen):
    """report_from_dict rejects a scheme class whose flat list is not n*n
    long, naming the class; it used to build a ragged matrix."""
    d = report_to_dict(analyze(petersen))
    d["scheme"]["classes"][1].pop()
    with pytest.raises(GraphInputError, match="scheme class 1 has 99 entries"):
        report_from_dict(d)


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


def test_scheme_section_writes_as_dumps():
    """The scheme section is written from the walk partition's own labels
    (no copy is made) as json.dumps writes report_to_dict's flat lists, and
    report_from_dict reads those bytes back: on Q7, cycle:41, every QP input
    of the `witness` workload, and a hand-built scheme with an empty
    class."""
    sys.path.insert(0, str(BENCH))
    from inputs import DEFAULT_SEED, hypercube, workload_inputs
    specs = ["graph6:" + hypercube(7), "name:cycle:41"]
    qp = []
    for spec in specs + workload_inputs("witness", DEFAULT_SEED):
        rpt = analyze(parse_graph_spec(spec))
        if rpt.scheme is not None:
            pp = rpt.quotient.partition
            assert build_scheme(rpt.quotient, pp).class_ids is pp.class_ids
            qp.append(rpt)
    assert len(qp) >= 17  # Q7, cycle:41 and 15 walk-regular atlas graphs
    rpt = analyze(petersen_graph())
    s = rpt.scheme
    flats = report_to_dict(rpt)["scheme"]["classes"]
    # the empty class 3 meets no pair: 0 in every p^k_ij that names it
    p = [[list(row) + [0] for row in pk] + [[0] * 4]
         for pk in s.intersection_numbers] + [[[0] * 4] * 4]
    rpt.scheme = AssociationScheme.of(s.n, flats + [[0] * (s.n * s.n)], p)
    assert rpt.scheme.num_classes == 3 and 3 not in rpt.scheme.class_ids
    for rpt in qp + [rpt]:
        assert_writes_as_dumps(rpt)
        js = report_to_json(rpt)
        back = report_from_dict(json.loads(js))
        assert back.scheme == rpt.scheme
        assert report_to_json(back) == js


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
