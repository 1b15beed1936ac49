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

from airalloc import baselines, dqn, solver
from airalloc.model import reference_params
from airalloc.multiuser import MultiUserEnv, default_multiuser, enumerate_actions

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
    # The split updates must call the surrogates and the multiplier search,
    # and ln_lower_gamma the incomplete-gamma kernel, through their module
    # names, or the tracer's wrappers never see them.
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
                 "special.solve_quartic_real", "special.regularized_lower_gamma"):
        assert calls.get(name, 0) > 0, name
    assert solver._P3_VARIANTS["mm2"] is solver.solve_p3_mm2


def test_traced_training_reaches_the_dqn_layers(tracer):
    # The training loop must reach the learner's layers through their module
    # names, with one step and one target blend per sampled batch, or the
    # per-layer counts of the fleet workload stop meaning what they say.
    layers = ("train_step", "soft_update", "replay_sample", "q_forward")
    originals = {attr: getattr(dqn, attr) for attr in layers}
    mp = default_multiuser(1, 1)
    config = dqn.TrainConfig(episodes=3, steps_per_episode=6, batch_size=4, buffer_capacity=32,
                             epsilon_start=0.5, seed=3)
    t = tracer.Tracer()
    restore = tracer.install(t)
    try:
        dqn.train(MultiUserEnv(mp), enumerate_actions(mp, granularity=0.5), config)
    finally:
        restore()
    t.end_segment("train")
    calls = {name: n for name, (n, _) in t.summary("train").items()}
    assert calls.get("dqn.replay_sample", 0) > 0
    for name in ("dqn.train_step", "dqn.soft_update"):
        assert calls.get(name, 0) == calls["dqn.replay_sample"], name
    assert calls.get("dqn.q_forward", 0) > 0
    assert {attr: getattr(dqn, attr) for attr in layers} == originals


@pytest.mark.parametrize("kind", baselines.SCHEDULER_KINDS)
def test_traced_scheduler_rollouts_score_each_slot_twice(tracer, kind):
    # The fleet workload's self-check: a scheduler's actions are feasible,
    # so each slot calls success_vector twice, in evaluate_policy and in the
    # reward, through names the tracer rebinds.
    t = tracer.Tracer()
    restore = tracer.install(t)
    try:
        baselines.schedulers(kind, default_multiuser(2, 2), episodes=2, steps_per_episode=5)
    finally:
        restore()
    t.end_segment(kind)
    calls = {name: n for name, (n, _) in t.summary(kind).items()}
    steps = calls.get("multiuser.MultiUserEnv.step", 0)
    assert steps > 0
    assert calls.get("multiuser.success_vector", 0) == 2 * steps
