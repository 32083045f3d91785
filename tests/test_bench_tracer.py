"""The benchmark tracer still finds every function it hooks.

``bench/tracing.py`` wraps the package's functions by name.  Entering the
tracer raises ``KeyError`` if a traced ``Matrix`` or ``SubspaceBasis`` method
is gone, but a renamed module-level function would only lose its counter
hook, silently.  This loads the tracer from its file, without writing
bytecode next to it, and checks both.  It also checks that the tracer sees
the flash chains ``paper-check`` walks.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from extmod import operators, suite
from extmod.modules import default_params

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_tracer_hook_wraps_a_function(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    original = operators.filtration_trace
    tracer = tracing.Tracer()
    with tracer:
        assert operators.filtration_trace is not original
    assert operators.filtration_trace is original
    assert set(tracer._hooks) <= set(tracer.names), \
        sorted(set(tracer._hooks) - set(tracer.names))


@pytest.mark.parametrize("n", [4, 6])
def test_the_tracer_sees_the_chains_paper_check_walks(monkeypatch, n):
    # one trace per open-end probe: the suite calls the exported
    # filtration_trace, which the tracer wraps, and reads the closed flashes
    # off the stage's annihilator walk
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    with tracer:
        assert suite.run_checks(suite.SuiteParams(n, n + 2, default_params())).passed
    metrics = tracer.metrics()
    assert metrics["operators.traces"] == n + 1
    assert metrics["operators.trace_steps"] > 0
