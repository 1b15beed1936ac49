"""What the benchmark's tracer (perfbench/tracer.py) needs of the package.

The tracer wraps layer functions by module attribute, methods on their
class, and the split-update variants inside the solver's dispatch table; the
solve workloads read each variant's inner-iteration cap from its signature.
A rename or deletion in the package that breaks one of these fails here
rather than in a traced benchmark run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from airalloc import solver
from airalloc.model import reference_params

_TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves(tracer):
    for name, targets in tracer.FUNCTION_LAYERS.items():
        for modname, attr in targets:
            module = importlib.import_module(f"{tracer.PACKAGE}.{modname}")
            assert callable(getattr(module, attr, None)), f"{name}: {modname}.{attr}"
    for name, (modname, clsname, meth) in tracer.METHOD_LAYERS.items():
        cls = getattr(importlib.import_module(f"{tracer.PACKAGE}.{modname}"), clsname)
        assert callable(cls.__dict__.get(meth)), f"{name}: {clsname}.{meth}"


def test_split_variants_match_the_tracer(tracer):
    assert set(solver._P3_VARIANTS) == set(tracer.VARIANTS)
    for v in tracer.VARIANTS:
        default = inspect.signature(getattr(solver, f"solve_p3_{v}")).parameters["max_iter"].default
        assert type(default) is int, v


def test_traced_solve_reaches_the_rebound_layers(tracer):
    # The split updates must call the surrogates and the multiplier search
    # through their module names, or the tracer's wrappers never see them.
    t = tracer.Tracer()
    restore = tracer.install(t)
    try:
        solver.bcd_solve(reference_params(2, task_mbits=10.0), variant="mm2", max_outer=1)
    finally:
        restore()
    t.end_segment("solve")
    calls = {name: n for name, (n, _) in t.summary("solve").items()}
    for name in ("solver.solve_p3.mm2", "solver.waterfill_mu",
                 "surrogates.surrogate_transmission", "surrogates.surrogate_computation",
                 "special.solve_quartic_real"):
        assert calls.get(name, 0) > 0, name
    assert solver._P3_VARIANTS["mm2"] is solver.solve_p3_mm2
