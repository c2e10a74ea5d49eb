"""The benchmark's traced mode still finds every function it wraps.

`perfbench/tracer.py` wraps packbound functions by name. Deleting or
renaming one of them breaks the traced benchmark run, so this test installs
the tracer once and expects no coverage problem.  The traced `bounds-table`
run is also marked incorrect unless plain `bounds` still calls each layer it
expects, so a second test runs plain `bounds` under the tracer.
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


def test_plain_bounds_calls_the_functions_the_bounds_table_run_expects(capsys):
    # perfbench/run.py's EXPECTED["bounds-table"]: these must be called, and
    # the reports layer must not be
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        assert packbound.cli.main(["bounds"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    for name in ("mathprog.feasible_at", "mathprog.solve_min_r_exact",
                 "mathprog.bisect_min_r", "mathprog.check_certificate"):
        assert tracer.calls(name) >= 1, name
    assert tracer.calls("reports.to_json") == 0
