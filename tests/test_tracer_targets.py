"""The benchmark's traced mode still finds every function it wraps.

`perfbench/tracer.py` wraps packbound functions by name. Deleting or
renaming one of them breaks the traced benchmark run, so this test installs
the tracer once and expects no coverage problem.
"""

import importlib.util
from pathlib import Path

import packbound.cli  # noqa: F401  (the tracer rebinds names across every packbound module)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_target():
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        assert tracer.coverage_problems() == []
    finally:
        tracer.uninstall()
