"""Pinned outputs: the solve traces and the experiment CSVs that later
changes must reproduce bit for bit.

``tests/golden/solve_traces.json`` holds, under each "<cell>/<variant>",
one SHA-256 per ``BcdTrace`` field (allocations included) of each variant
on the benchmark cells and three hard cells.
``tests/golden/experiments.json`` holds, per experiment kind, the SHA-256
of the CSV that the kind's small fixed config below writes; for
``latency``, whose values are wall-clock times, the digest covers only the
row set (sweep value, metric, tag).  Both files record the
numpy version and the BLAS build they were taken with, because some results
follow the BLAS kernel (``np.dot`` may fuse multiply-adds).

A change that moves a pinned result on purpose regenerates the manifests
and names the moved entries, which the regeneration prints, one line per
entry that differs from the manifest it replaces ("<cell>/<variant>: <fields>"
for a solve trace, the kind for an experiment CSV)::

    PYTHONPATH=src python tests/pinned.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import yaml

from airalloc.experiments import load_config, run_experiment
from airalloc.model import reference_params
from airalloc.solver import VARIANTS, bcd_solve

GOLDEN_DIR = Path(__file__).parent / "golden"
SOLVE_MANIFEST = GOLDEN_DIR / "solve_traces.json"
EXPERIMENT_MANIFEST = GOLDEN_DIR / "experiments.json"

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
    """The numpy version and BLAS build that pinned results may depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas.get('version', '?')}"}


def environment_note(pinned: dict) -> str:
    """Empty when this run matches the manifest's numpy and BLAS; otherwise
    a sentence saying how it differs."""
    here = environment()
    if all(pinned.get(k) == v for k, v in here.items()):
        return ""
    return (f" The manifest was taken with numpy {pinned.get('numpy')} and BLAS "
            f"{pinned.get('blas')}, this run has numpy {here['numpy']} and BLAS "
            f"{here['blas']}; results that go through the BLAS may differ in their last bits.")


def trace_digest(trace) -> dict[str, str]:
    """SHA-256 per field of a ``BcdTrace``; floats by their shortest
    round-trip repr, so any bit that moves changes its field's digest."""
    return {name: hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()
            for name, value in dataclasses.asdict(trace).items()}


def solve_digests(solves=None) -> dict[str, dict[str, str]]:
    """Field digests per "<cell>/<variant>"; ``solves`` maps (cell,
    variant) to a ``BcdResult`` already computed, and missing ones are
    solved here."""
    solves = solves or {}
    out = {}
    for name, p in SOLVE_CELLS:
        for v in VARIANTS:
            res = solves.get((name, v)) or bcd_solve(p, variant=v)
            out[f"{name}/{v}"] = trace_digest(res.trace)
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


def moved_entries(old: dict, new: dict) -> list[str]:
    """Names whose digest in ``new`` differs from ``old``'s or is new, in
    ``new``'s order, then the names ``new`` no longer has.  Where both hold
    field digests (a solve trace), the name carries the fields that moved,
    "(added)" or "(removed)" when only one side has the field:
    "<name>: <field>, <field> (added)"."""
    out = []
    for k, d in new.items():
        was = old.get(k)
        if was == d:
            continue
        if isinstance(was, dict) and isinstance(d, dict):
            fields = ([f if f in was else f"{f} (added)" for f in d if was.get(f) != d[f]]
                      + [f"{f} (removed)" for f in was if f not in d])
            k = f"{k}: {', '.join(fields)}"
        out.append(k)
    return out + [k for k in old if k not in new]


def _pinned_digests(path: Path, key: str) -> dict:
    return json.loads(path.read_text())[key] if path.exists() else {}


def regenerate() -> list[str]:
    """Rewrite both manifests; return "<manifest>: <entry>" for every entry
    that moved against the manifest it replaces."""
    GOLDEN_DIR.mkdir(exist_ok=True)
    env = environment()
    old_solves = _pinned_digests(SOLVE_MANIFEST, "digests")
    old_kinds = _pinned_digests(EXPERIMENT_MANIFEST, "kinds")
    digests = solve_digests()
    SOLVE_MANIFEST.write_text(json.dumps({**env, "digests": digests}, indent=1) + "\n")
    kinds = {}
    with tempfile.TemporaryDirectory() as tmp:
        for kind, config in EXPERIMENT_CONFIGS.items():
            path = run_kind(kind, config, Path(tmp))
            kinds[kind] = csv_digest(kind, path)
    EXPERIMENT_MANIFEST.write_text(json.dumps({**env, "kinds": kinds}, indent=1) + "\n")
    return ([f"{SOLVE_MANIFEST.stem}: {k}" for k in moved_entries(old_solves, digests)]
            + [f"{EXPERIMENT_MANIFEST.stem}: {k}" for k in moved_entries(old_kinds, kinds)])


if __name__ == "__main__":
    moved = regenerate()
    print("\n".join(moved) if moved else "no pinned entry moved")
    print(f"wrote {SOLVE_MANIFEST} and {EXPERIMENT_MANIFEST}", file=sys.stderr)
