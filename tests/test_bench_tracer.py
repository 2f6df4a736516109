"""The bench tracer must still find every function and module it wraps.

``bench/tracer.py`` patches polymerlab's layer functions by name from
outside the package; a refactor that renames or deletes one of them breaks
traced bench runs.  Installing and restoring the tracer here turns that into
a test failure.
"""

import importlib.util
from pathlib import Path

import polymerlab.transfer

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_tracer_resolves_every_target():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    original = polymerlab.transfer.log_partitions
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()  # resolves every LAYERS target and MODULES entry
        assert polymerlab.transfer.log_partitions is not original
    finally:
        tracer.restore()
    assert polymerlab.transfer.log_partitions is original
