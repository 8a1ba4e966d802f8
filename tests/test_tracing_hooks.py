"""The benchmark tracer patches package functions at the names their
callers look up. Installing it here makes a rename of any patched name
fail this suite, not only the benchmark's own smoke tests."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def test_tracer_installs_and_restores_every_patched_name():
    spec = importlib.util.spec_from_file_location("actlab_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer(1)
    try:
        tracer.install()
        patched = list(tracer._restore)
        assert patched
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original
