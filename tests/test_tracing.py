"""perfbench's tracer patches library names it looks up by name; a rename fails here."""

import importlib.util
from pathlib import Path

from hanoispec import analysis
from hanoispec.analysis import run_counting_experiment
from hanoispec.sequences import constant

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_a_bracketed_experiment():
    tracer = load_tracing().Tracer()
    original = analysis.auto_grid
    tracer.install()
    try:
        tracer.active = True
        exp = run_counting_experiment(constant(0.5), 3, 2, 0.25, backend="inertia",
                                      bracket_level=2)
    finally:
        tracer.uninstall()
    assert exp.bracketing.ok
    assert analysis.auto_grid is original
    # block elimination counts from the scale factors: no graph or pencil
    assert {span[0] for span in tracer.spans} == {
        "analysis.auto_grid",
        "analysis.counting_function",
        "analysis.bracketing_check",
        "analysis.fit_exponent",
    }
