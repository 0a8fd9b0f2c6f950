"""The traced benchmark's binding table still resolves against the program.

perfbench's tracer swaps program functions for timing wrappers by module
and name. A deleted or renamed function would otherwise show only when a
traced benchmark run starts."""

import importlib.util
from pathlib import Path

from netmamba import ssm

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves_and_is_restored():
    tracer = load_tracer()
    table = tracer.instrument(tracer.Recorder())
    with tracer.installed(table) as saved:
        assert len(saved) == len(table)
        assert all(getattr(obj, attr) is not original
                   for obj, attr, original in saved)
    assert tracer.restored(saved)
    # the scan is charged to its stage by name
    assert (ssm, "selective_scan") in {(obj, attr) for obj, attr, _ in saved}
