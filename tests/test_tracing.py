"""The benchmark's tracer finds every pipeline stage it names.

bench/tracing.py wraps functions by name; a refactor that renames or removes
one of them would make its stage read 0 without an error. This guard turns
that into a test failure."""
import sys
from pathlib import Path

import quograph


def test_tracer_finds_every_stage():
    bench = Path(__file__).resolve().parent.parent / "bench"
    sys.path.insert(0, str(bench))
    from tracing import Tracer
    assert Tracer(quograph).absent == []
