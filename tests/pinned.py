"""Pinned outputs: the solve traces, the experiment CSVs and the multi-user
rollouts that later changes must reproduce bit for bit.

``tests/golden/solve_traces.json`` holds, under each "<cell>/<variant>",
one SHA-256 per ``BcdTrace`` field (allocations included) of each variant
on the benchmark cells and three hard cells, and the final ln P_success
itself as ``final_ln_p``; under "<cell>/<variant>/offload_only" the same of
the offload-only solve.
``tests/golden/experiments.json`` holds, per experiment kind, the SHA-256
of the CSV that the kind's small fixed config below writes; for
``latency``, whose values are wall-clock times, the digest covers only the
row set (sweep value, metric, tag).  ``tests/golden/rollouts.json`` holds
every ``EvalResult`` field of short rollouts of each scheduler and of a
greedy policy on ``default_multiuser(2, 2)``, and the digest of the short
training run behind that policy.  All three files record the environment
they were taken in (:func:`environment`): the DQN's matrix products go
through the BLAS, whose kernels may fuse multiply-adds and so round
differently from one build or CPU kernel to another; numpy's array powers
round differently per SIMD dispatch target; and the solver's ``exp``,
``log`` and ``pow`` come from the C library.

A change that moves a pinned result on purpose regenerates the manifests
and names the moved entries, which the regeneration prints, one line per
entry that differs from the manifest it replaces ("<cell>/<variant>: <fields>"
for a solve trace, the kind for an experiment CSV, "<policy>: <fields>" for
a rollout; "(added)" or "(removed)" after an entry only one of them has).
A moved field that holds a number, such as a solve's ``final_ln_p``, shows
its value before and after, so the line says how far the entry moved::

    PYTHONPATH=src python tests/pinned.py
"""

from __future__ import annotations

import ctypes
import dataclasses
import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import yaml

from airalloc.baselines import SCHEDULER_KINDS, evaluate_policy, greedy_policy, scheduler_action
from airalloc.dqn import TrainConfig, train
from airalloc.experiments import load_config, run_experiment
from airalloc.model import reference_params
from airalloc.multiuser import MultiUserEnv, default_multiuser, enumerate_actions
from airalloc.solver import VARIANTS, bcd_solve

GOLDEN_DIR = Path(__file__).parent / "golden"
SOLVE_MANIFEST = GOLDEN_DIR / "solve_traces.json"
EXPERIMENT_MANIFEST = GOLDEN_DIR / "experiments.json"
ROLLOUT_MANIFEST = GOLDEN_DIR / "rollouts.json"

# The benchmark's cells (M = 1-4 at L = 10 Mbit; M = 2 at L = 20 and 25) and
# three hard cells: a tight energy budget, a tight deadline and a large task.
SOLVE_CELLS = (
    [(f"M{m} L{l:g}", reference_params(m, task_mbits=l))
     for m, l in [(1, 10.0), (2, 10.0), (3, 10.0), (4, 10.0), (2, 20.0), (2, 25.0)]]
    + [(f"hard {k}={v}", reference_params(2, **{k: v}))
       for k, v in (("energy_j", 0.1), ("latency_s", 0.05), ("task_mbits", 60.0))]
)

# One small config per experiment kind (seed 0), run through load_config and
# run_experiment as `airalloc sweep --config` runs it.
EXPERIMENT_CONFIGS = {
    "convergence": {"sweep": {"values": [[2, 10.0]]}},
    "task_sweep": {"single_user": {"n_servers": 2}, "sweep": {"values": [10.0, 20.0]}},
    "server_sweep": {"sweep": {"values": [1, 2]}},
    "speed_uncertainty": {"single_user": {"n_servers": 1}, "sweep": {"values": [10.0]},
                          "trials": {"mc_trials": 2000}},
    "learning_rate": {"sweep": {"values": [1.0e-3, 5.0e-4]},
                      "train": {"episodes": 2, "steps_per_episode": 5}},
    "user_count": {"sweep": {"values": [2]}, "trials": {"episodes": 2, "steps": 3},
                   "train": {"episodes": 2, "steps_per_episode": 5}},
    "fairness": {"sweep": {"values": [1.0, 4.0]}, "trials": {"episodes": 2, "steps": 3},
                 "train": {"episodes": 1, "steps_per_episode": 5}},
    "latency": {"sweep": {"values": [1]}, "trials": {"repetitions": 1}},
    "efficiency": {"sweep": {"values": [10.0]}, "trials": {"episodes": 1, "steps": 2},
                   "train": {"episodes": 1, "steps_per_episode": 3}},
}


def environment() -> dict:
    """What pinned results may depend on: the numpy version and BLAS build,
    the OpenBLAS kernel picked for this CPU (None for a BLAS that does not
    say), numpy's enabled SIMD dispatch targets (None where numpy does not
    list them) and the C library."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas.get('version', '?')}",
            "blas_core": _openblas_core(), "numpy_dispatch": _numpy_dispatch(),
            "libc": " ".join(platform.libc_ver()).strip() or None}


def _openblas_core() -> str | None:
    """The kernel name that the scipy-openblas library bundled with numpy
    reports, or None when there is no such library or it has no such call."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        corename = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return None


def _numpy_dispatch() -> str | None:
    """numpy's dispatch targets whose CPU feature is on, in numpy's order."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:
        return None
    return " ".join(t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t))


def environment_note(pinned: dict) -> str:
    """Empty when this run's :func:`environment` matches the manifest's;
    otherwise a sentence naming every value that differs."""
    diffs = [f"{k} {pinned.get(k)!r} there, {v!r} here"
             for k, v in environment().items() if pinned.get(k) != v]
    if not diffs:
        return ""
    return (f" The manifest was taken in another environment ({'; '.join(diffs)}); results "
            "that go through the BLAS, numpy's SIMD loops or the C library may differ in "
            "their last bits.")


def trace_digest(trace) -> dict:
    """SHA-256 per field of a ``BcdTrace``, floats by their shortest
    round-trip repr, so any bit that moves changes its field's digest; and
    ``final_ln_p``, the last ln P_success as a number."""
    out = {name: hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()
           for name, value in dataclasses.asdict(trace).items()}
    out["final_ln_p"] = trace.ln_p_success[-1]
    return out


def solve_digests(solves=None, offload_solves=None) -> dict[str, dict[str, str]]:
    """Field digests per "<cell>/<variant>", then per
    "<cell>/<variant>/offload_only"; ``solves`` and ``offload_solves`` map
    (cell, variant) to a ``BcdResult`` already computed, full and
    offload-only, and missing ones are solved here."""
    solves, offload_solves = solves or {}, offload_solves or {}
    out = {}
    for name, p in SOLVE_CELLS:
        for v in VARIANTS:
            res = solves.get((name, v)) or bcd_solve(p, variant=v)
            out[f"{name}/{v}"] = trace_digest(res.trace)
    for name, p in SOLVE_CELLS:
        for v in VARIANTS:
            res = offload_solves.get((name, v)) or bcd_solve(p, variant=v, offload_only=True)
            out[f"{name}/{v}/offload_only"] = trace_digest(res.trace)
    return out


def csv_digest(kind: str, path: Path) -> str:
    """SHA-256 of the CSV a kind wrote, or for ``latency``, whose values
    are wall-clock times, of its row set: every line without the value and
    std_error columns."""
    data = path.read_bytes()
    if kind == "latency":
        lines = data.decode().splitlines()
        data = "\n".join(",".join(c for i, c in enumerate(line.split(",")) if i not in (2, 3))
                         for line in lines).encode()
    return hashlib.sha256(data).hexdigest()


def run_kind(kind: str, config: dict, workdir: Path) -> Path:
    """Write the kind's config as YAML, run it, and return its CSV."""
    cfg_path = workdir / f"{kind}.yaml"
    body = {"experiment": kind, "seed": 0, "output_dir": str(workdir / "out"), **config}
    cfg_path.write_text(yaml.safe_dump(body))
    return run_experiment(load_config(cfg_path))[0]


def eval_fields(res) -> dict:
    """Every ``EvalResult`` field, the per-user array as a list."""
    return {name: value.tolist() if isinstance(value, np.ndarray) else value
            for name, value in dataclasses.asdict(res).items()}


def rollout_values() -> dict[str, dict]:
    """Short rollouts on ``default_multiuser(2, 2)``: each scheduler's
    ``EvalResult`` fields (4 x 25 slots), the SHA-256 of a short training
    run's reward curve and weights, and the greedy rollout of the trained
    network (3 x 25 slots).  Any change in the last bit of a success, a
    bill, a reward or a state update shows here."""
    mp = default_multiuser(2, 2)
    out = {}
    for kind in SCHEDULER_KINDS:
        def policy(state, slot, kind=kind):
            return scheduler_action(kind, mp, state, slot)

        out[kind] = eval_fields(evaluate_policy(MultiUserEnv(mp), policy, 4, 25, seed=5))
    grid = enumerate_actions(mp, granularity=0.5)
    config = TrainConfig(episodes=6, steps_per_episode=25, batch_size=16, seed=1)
    theta, curve = train(MultiUserEnv(mp), grid, config)
    digest = hashlib.sha256(np.asarray(curve, dtype=np.float64).tobytes())
    digest.update(theta.flat().tobytes())
    out["train"] = {"digest": digest.hexdigest()}
    out["greedy"] = eval_fields(
        evaluate_policy(MultiUserEnv(mp), greedy_policy(theta, grid, mp), 3, 25, seed=5))
    return out


def moved_entries(old: dict, new: dict) -> list[str]:
    """Names whose digest in ``new`` differs from ``old``'s, or "<name>
    (added)" where ``old`` has none, in ``new``'s order, then "<name>
    (removed)" for the names ``new`` no longer has.  Where both hold fields
    (a solve trace, a rollout), the name carries the fields that moved,
    "(added)" or "(removed)" when only one side has the field, and both
    values when both sides hold a number:
    "<name>: <field>, <field> <old> -> <new>, <field> (added)"."""

    def moved(f, a, b):
        if isinstance(a, float) and isinstance(b, float):
            return f"{f} {a!r} -> {b!r}"
        return f

    out = []
    for k, d in new.items():
        was = old.get(k)
        if was == d:
            continue
        if k not in old:
            k = f"{k} (added)"
        elif isinstance(was, dict) and isinstance(d, dict):
            fields = ([moved(f, was[f], d[f]) if f in was else f"{f} (added)"
                       for f in d if was.get(f) != d[f]]
                      + [f"{f} (removed)" for f in was if f not in d])
            k = f"{k}: {', '.join(fields)}"
        out.append(k)
    return out + [f"{k} (removed)" for k in old if k not in new]


def _pinned_digests(path: Path, key: str) -> dict:
    return json.loads(path.read_text())[key] if path.exists() else {}


def current_entries(workdir: Path) -> list[tuple[Path, str, dict]]:
    """Per manifest: its path, the key its entries sit under, and the
    entries as this run computes them, the experiment CSVs written under
    ``workdir``."""
    solves = solve_digests()
    kinds = {kind: csv_digest(kind, run_kind(kind, config, workdir))
             for kind, config in EXPERIMENT_CONFIGS.items()}
    return [(SOLVE_MANIFEST, "digests", solves), (EXPERIMENT_MANIFEST, "kinds", kinds),
            (ROLLOUT_MANIFEST, "values", rollout_values())]


def moved_against_manifests(entries) -> list[str]:
    """"<manifest>: <entry>" for every entry of ``entries`` (as
    :func:`current_entries` returns them) that moved against its manifest."""
    return [f"{path.stem}: {k}" for path, key, values in entries
            for k in moved_entries(_pinned_digests(path, key), values)]


def regenerate() -> list[str]:
    """Rewrite the three manifests; return "<manifest>: <entry>" for every
    entry that moved against the manifest it replaces."""
    GOLDEN_DIR.mkdir(exist_ok=True)
    env = environment()
    with tempfile.TemporaryDirectory() as tmp:
        entries = current_entries(Path(tmp))
    moved = moved_against_manifests(entries)
    for path, key, values in entries:
        path.write_text(json.dumps({**env, key: values}, indent=1) + "\n")
    return moved


if __name__ == "__main__":
    moved = regenerate()
    print("\n".join(moved) if moved else "no pinned entry moved")
    print(f"wrote {SOLVE_MANIFEST}, {EXPERIMENT_MANIFEST} and {ROLLOUT_MANIFEST}", file=sys.stderr)
