"""The benchmark's span tracer still finds every library function it wraps.

``bench/spans.py`` lists its targets by module and name; one the library
no longer has is skipped and its per-layer metrics read 0.  This test only
reads ``bench/``.
"""

import importlib.util
import pathlib

import binident as bi

SPANS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_tracer_target_resolves_in_the_library():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    with spans.Tracer(bi) as tracer:
        pass
    assert tracer.missing == []
