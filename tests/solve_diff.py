"""Compare every ``BcdTrace`` field of a fixed set of 546 solves between two
versions of the solver.

The set is the pinned cells of :mod:`pinned` (the 6 benchmark cells and 3
hard cells) and the seeded cells of :func:`oracles.random_cells` (seeds 0, 1
and 123; 30, 40 and 12 cells), each solved by every variant, in full and
offload-only.  ``dump`` writes ``dataclasses.asdict`` of each trace, keyed
"<cell>/<variant>" or "<cell>/<variant>/offload_only", to a JSON file
(floats by their shortest round-trip repr, so any moved bit shows), with
the messages of the ``RuntimeWarning``s the solve raised under
``warnings``.  ``diff`` names every solve whose trace differs, with the
fields that moved and its final ln P_success before and after, then every
solve whose warnings changed (a dump without the field counts as none), the
solves' summed work, and ends with one summary line: the largest |change|
of the final ln P_success over the solves converged in both files, and
every solve whose ``converged`` flag, pathology count or capped-loop count
(split loops at their variant's ``max_iter``) changed.  Like diff(1), it
exits with status 1 when any solve moved, was added, was removed or changed
its warnings, and 0 otherwise.  ``gain`` polishes each final allocation of
one dump with :func:`oracles.joint_polish` and names every solve that the
polish raises by more than 1e-6 nats, then counts them per variant::

    PYTHONPATH=src python tests/solve_diff.py dump before.json
    # ... change the solver ...
    PYTHONPATH=src python tests/solve_diff.py dump after.json
    PYTHONPATH=src python tests/solve_diff.py diff before.json after.json
    PYTHONPATH=src python tests/solve_diff.py gain after.json
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import sys
import warnings
from pathlib import Path

import oracles
import pinned

from airalloc import solver
from airalloc.model import Allocation, SystemParams
from airalloc.solver import VARIANTS, bcd_solve

RANDOM_DRAWS = {0: 30, 1: 40, 123: 12}


def cells() -> list[tuple[str, SystemParams]]:
    """The pinned cells, then the seeded cells as "seed<s> cell <i>"."""
    out = list(pinned.SOLVE_CELLS)
    for seed, n in RANDOM_DRAWS.items():
        out += [(f"seed{seed} cell {i}", p)
                for i, p in oracles.random_cells(seed, *range(n)).items()]
    return out


def dump(path: Path) -> None:
    traces = {}
    for offload_only in (False, True):
        for name, p in cells():
            for v in VARIANTS:
                key = f"{name}/{v}" + ("/offload_only" if offload_only else "")
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    trace = bcd_solve(p, variant=v, offload_only=offload_only).trace
                traces[key] = dataclasses.asdict(trace) | {"warnings": [
                    str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]}
    path.write_text(json.dumps(traces) + "\n")


def _fields(trace: dict) -> dict:
    """The trace's ``BcdTrace`` fields, without its warnings."""
    return {f: v for f, v in trace.items() if f != "warnings"}


def moved_solves(old: dict, new: dict) -> list[str]:
    """"<solve>: <fields>; ln P <before> -> <after> (<change>)" for every
    solve whose trace differs, in ``new``'s order, then "<solve> (added)"
    and "<solve> (removed)" for solves only one side has."""
    out = []
    for key, trace in new.items():
        was = old.get(key)
        if was is None:
            out.append(f"{key} (added)")
        elif _fields(was) != _fields(trace):
            fields = ", ".join(f for f in _fields(trace) if was.get(f) != trace[f])
            a, b = was["ln_p_success"][-1], trace["ln_p_success"][-1]
            out.append(f"{key}: {fields}; ln P {a!r} -> {b!r} ({b - a:+.2e})")
    return out + [f"{key} (removed)" for key in old if key not in new]


def warning_changes(old: dict, new: dict) -> list[str]:
    """"<solve>: warnings <before> -> <after>" for every solve both dumps
    hold whose ``RuntimeWarning`` messages differ, in ``new``'s order."""
    out = []
    for key, trace in new.items():
        if key in old:
            a, b = old[key].get("warnings", []), trace.get("warnings", [])
            if a != b:
                out.append(f"{key}: warnings {a} -> {b}")
    return out


def warned(traces: dict) -> int:
    """How many solves raised a ``RuntimeWarning``."""
    return sum(bool(t.get("warnings")) for t in traces.values())


def work(traces: dict) -> str:
    """Summed outer sweeps, split iterations and P2 evaluations, and the
    most P2 evaluations in one call."""
    sweeps = sum(len(t["ln_p_success"]) - 1 for t in traces.values())
    split = sum(sum(t["inner_iterations"]) for t in traces.values())
    p2 = sum(sum(t["p2_evals"]) for t in traces.values())
    p2_max = max(max(t["p2_evals"], default=0) for t in traces.values())
    return f"{sweeps} outer sweeps, {split} split iterations, {p2} P2 evaluations (at most {p2_max} per call)"


def outcome(trace: dict) -> tuple[bool, int, int]:
    """The solve's ``converged`` flag, pathology count and capped-loop count."""
    cap = inspect.signature(getattr(solver, f"solve_p3_{trace['variant']}")).parameters["max_iter"].default
    return (trace["converged"], sum(trace["inner_pathologies"]),
            sum(n >= cap for n in trace["inner_iterations"]))


def summary(old: dict, new: dict) -> str:
    """"largest |dln P| <change> (<solve>) over <n> solves converged in
    both; converged/pathologies/capped changed: <solve> <before> -> <after>,
    ..." for the solves both files hold."""
    both = [key for key in new if key in old]
    converged = [key for key in both if old[key]["converged"] and new[key]["converged"]]

    def change(key: str) -> float:
        return abs(new[key]["ln_p_success"][-1] - old[key]["ln_p_success"][-1])

    worst = max(converged, key=change, default=None)
    largest = f"{change(worst):.2e} ({worst})" if worst is not None else "n/a"
    changed = [f"{key} {outcome(old[key])} -> {outcome(new[key])}"
               for key in both if outcome(old[key]) != outcome(new[key])]
    return (f"largest |dln P| {largest} over {len(converged)} solves converged in both; "
            f"converged/pathologies/capped changed: {', '.join(changed) or 'none'}")


GAIN_TOL = 1e-6


def polish_gains(traces: dict) -> list[str]:
    """"<solve>: ln P <end> -> <polished> (+<gain>)" for every solve whose
    final allocation :func:`oracles.joint_polish` raises by more than
    ``GAIN_TOL`` nats, then one line counting them per variant, full and
    offload-only."""
    params = dict(cells())
    out, counts = [], {}
    for key, trace in traces.items():
        name, variant, *offload = key.split("/")
        last = trace["allocations"][-1]
        alloc = Allocation(phi=tuple(last["phi"]), t_shares=tuple(last["t_shares"]),
                           power_w=last["power_w"], rho=last["rho"])
        end = trace["ln_p_success"][-1]
        polished, _ = oracles.joint_polish(params[name], alloc, offload_only=bool(offload))
        tally = counts.setdefault(f"{variant}{'/offload_only' if offload else ''}", [0, 0])
        tally[1] += 1
        if polished - end > GAIN_TOL:
            tally[0] += 1
            out.append(f"{key}: ln P {end!r} -> {polished!r} ({polished - end:+.2e})")
    total = sum(n for n, _ in counts.values())
    per = ", ".join(f"{k} {n} of {m}" for k, (n, m) in counts.items())
    return out + [f"{total} of {len(traces)} solves gain more than {GAIN_TOL:g} nats ({per})"]


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "dump":
        dump(Path(argv[1]))
        return 0
    if len(argv) == 3 and argv[0] == "diff":
        old, new = (json.loads(Path(a).read_text()) for a in argv[1:])
        moved, warned_moved = moved_solves(old, new), warning_changes(old, new)
        print("\n".join(moved + [f"{len(moved)} of {len(new)} solves moved"]))
        print("\n".join(warned_moved + [
            f"{len(warned_moved)} of {len(new)} solves changed their warnings "
            f"({warned(old)} warned before, {warned(new)} after)"]))
        print(f"before: {work(old)}\nafter:  {work(new)}")
        print(summary(old, new))
        return 1 if moved or warned_moved else 0
    if len(argv) == 2 and argv[0] == "gain":
        print("\n".join(polish_gains(json.loads(Path(argv[1]).read_text()))))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
