"""Layered benchmark of airalloc.

Usage (from the repository root):

    python3 perfbench/run.py --workload {solve_ref,solve_tail,fleet} \\
        --seed N --seconds S --trace {0,1}

One process, one caller, closed loop: each call into the package starts
when the previous one returned.  BLAS runs on one thread.  The run repeats
passes over the workload's fixed inputs for about ``--seconds`` and reports
medians over passes.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics:

* ``setup_s``: importing ``airalloc`` and building the workload's inputs in a
  fresh interpreter, median of several set-ups spread over the run.
* ``pass_s``: one pass (solve workloads: every cell with every variant;
  fleet: one training run plus the five rollout sets), as the sum of each
  operation's median over passes.
* ``peak_rss_mb``: peak resident memory of the benchmark process.

``setup_s`` and ``pass_s`` are normalized seconds: wall time divided by the
run's median slowdown of the host, read from fixed loops after every
operation (``workloads.slowdown``; the host's speed swings by up to 1.5x in
spells longer than a run).  Their wall-clock values are reported too, as
``setup_wall_s`` and ``pass_wall_s``.

The lines before the last report, by name, unit and sample count, the
per-phase figures the passes are made of (``mm2_solve_ms``,
``train_step_ms.p50``, ...; normalized), the solver's iteration counts,
failures, and the environment.

With ``--trace 1`` the run alternates untraced and traced passes and the
last line carries per-layer metrics: calls and self seconds per pass of every
wrapped layer function (see ``tracer.py``), the solver's iteration counts,
``trace.overhead_ratio`` (traced over untraced pass time) and
``trace.coverage`` (layer self time over traced pass time).  Spans and the
full report are written under ``perfbench/out/``.

The run exits non-zero, printing no result, when ``airalloc`` cannot be
imported from ``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Set-up samples taken before each pass and after the last one, so that they
# see the same spells of a busy host as the passes do.
SETUP_SAMPLES_PER_GAP = 2
WORKLOAD_NAMES = ("solve_ref", "solve_tail", "fleet")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _import_package():
    """Import airalloc from SRC; refuse a copy installed elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import airalloc
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import airalloc from {SRC}: {exc}")
    if Path(airalloc.__file__).resolve().parent != SRC / "airalloc":
        raise SystemExit(f"perfbench: airalloc resolved to {airalloc.__file__}, not under {SRC}")


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ[k] for k in THREAD_VARS},
        "git_sha": sha,
    }


def measure_setup(workload: str, seed: int, samples: int, setup: list[float], speed: list):
    """Append the set-up seconds of ``samples`` fresh interpreters, run one
    after another, to ``setup``, and the host speed read around them to
    ``speed``."""
    import workloads

    res = workloads.PassResult()
    timer = workloads.OpTimer(res)
    for k in range(samples):
        with timer.op(f"setup{k}"):
            proc = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                cwd=ROOT, env=os.environ.copy(), capture_output=True, text=True,
                timeout=120, check=True,
            )
        setup.append(float(proc.stdout.strip().splitlines()[-1]))
    speed.extend(res.speed)


def run_passes(work, seconds: float, tracer=None, between=None):
    """Passes until the next one would end after ``seconds``; at least one.

    ``between()``, if given, runs before each pass and after the last.  With
    a tracer, untraced and traced passes alternate; returns the untraced and
    the traced passes."""
    import tracer as tracing

    plain, traced = [], []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if between is not None:
            between()
        plain.append(work.run_pass())
        if tracer is not None:
            restore = tracing.install(tracer)
            try:
                with tracer.span("bench.pass"):
                    traced.append(work.run_pass(tracer))
            finally:
                restore()
            tracer.end_segment(f"pass{len(traced)}")
        elapsed = time.perf_counter() - t_start
        if elapsed + (time.perf_counter() - t0) > seconds:
            if between is not None:
                between()
            return plain, traced


def consistency_failures(passes) -> list[str]:
    """Every pass of one seed must give the same outputs, bit for bit."""
    first = passes[0]
    out = []
    for k, r in enumerate(passes[1:], start=2):
        if r.ln_p != first.ln_p:
            out.append(f"pass {k}: ln P_success differs from pass 1")
        if r.digest != first.digest:
            out.append(f"pass {k}: training digest {r.digest[:12]} != {first.digest[:12]}")
        if r.success != first.success:
            out.append(f"pass {k}: rollout mean success differs from pass 1")
    return out


def _median(values):
    return float(statistics.median(values))


def per_layer_metrics(work, plain, traced, tracer) -> tuple[dict, list[str]]:
    """Per-layer figures of the traced passes, and the self-test failures."""
    import tracer as tracing
    import workloads

    metrics = {}
    failures = []
    labels = [f"pass{k + 1}" for k in range(len(traced))]
    setup = tracer.summary("setup")
    summaries = [tracer.summary(lab) for lab in labels]
    for layer in tracing.LAYERS:
        for k, (suffix, unit) in enumerate(((".calls", "count"), (".self_s", "s"))):
            per_pass = _median([s.get(layer, (0, 0.0))[k] for s in summaries])
            metrics[layer + suffix] = (setup.get(layer, (0, 0.0))[k] + per_pass, unit)

    counts = traced[0].counts
    for v in tracing.VARIANTS:
        for key in ("outer_iters", "inner_iters", "search_evals", "inner_capped"):
            metrics[f"solver.{key}.{v}"] = (counts.get(f"{key}.{v}", 0), "count")
        inner = counts.get(f"inner_iters.{v}", 0)
        ratio = counts.get(f"search_evals.{v}", 0) / inner if inner else 0.0
        metrics[f"solver.evals_per_split.{v}"] = (ratio, "1")

    # Both ratios compare time spent inside the operations, leaving out the
    # host speed readings between them.
    op_s = [sum(r.op_s.values()) for r in traced]
    layer_s = [sum(s.get(layer, (0, 0.0))[1] for layer in tracing.LAYERS) for s in summaries]
    metrics["trace.overhead_ratio"] = (
        _median(op_s) / _median([sum(r.op_s.values()) for r in plain]), "1")
    metrics["trace.coverage"] = (_median([a / b for a, b in zip(layer_s, op_s)]), "1")

    # Self-tests: tracing changes no output, and the counts agree with the
    # solver's own trace and with the rollouts' slot count.
    for k, (p, t) in enumerate(zip(plain, traced), start=1):
        if p.ln_p != t.ln_p:
            failures.append(f"traced pass {k}: ln P_success differs from the untraced pass")
        if p.digest != t.digest or p.success != t.success:
            failures.append(f"traced pass {k}: training or rollout output differs from the untraced pass")
    for k, (s, t) in enumerate(zip(summaries, traced), start=1):
        for v in tracing.VARIANTS:
            calls = s.get(f"solver.solve_p3.{v}", (0, 0.0))[0]
            if calls != t.counts.get(f"outer_iters.{v}", 0):
                failures.append(f"traced pass {k}: solve_p3.{v} calls {calls} != summed n_outer")
    # Scheduler actions are feasible by construction, so each of their slots
    # calls success_vector twice: in evaluate_policy and in the reward.  (The
    # reward skips it for an infeasible action, which the greedy policy may
    # pick.)
    if isinstance(work, workloads.FleetWorkload):
        for k, (lab, t) in enumerate(zip(labels, traced), start=1):
            by_phase = calls_by_phase(tracer, lab, "bench.rollout.", "multiuser.success_vector")
            for kind in workloads.baselines.SCHEDULER_KINDS:
                calls = by_phase.get(f"bench.rollout.{kind}", 0)
                if calls != 2 * t.n_slots[kind]:
                    failures.append(f"traced pass {k}: {kind} rollouts call success_vector "
                                    f"{calls} times in {t.n_slots[kind]} slots")
    return metrics, failures


def calls_by_phase(tracer, label: str, phase_prefix: str, name: str) -> dict[str, int]:
    """Calls of ``name`` in one segment, keyed by the name of the enclosing
    span whose name starts with ``phase_prefix``."""
    spans = next(s for lab, s in tracer.segments if lab == label)
    target = tracer.names.index(name)
    is_phase = [n.startswith(phase_prefix) for n in tracer.names]
    phase = []
    counts: dict[str, int] = {}
    for nid, par in zip(spans["name"].tolist(), spans["parent"].tolist()):
        ph = nid if is_phase[nid] else (phase[par] if par >= 0 else -1)
        phase.append(ph)
        if nid == target and ph >= 0:
            counts[tracer.names[ph]] = counts.get(tracer.names[ph], 0) + 1
    return counts


def main(argv=None) -> int:
    args = _parse(argv)
    _import_package()
    import tracer as tracing
    import workloads

    env = environment()
    report: dict[str, tuple] = {}
    tracer = between = None
    setup: list[float] = []
    setup_speed: list[tuple[float, float | None]] = []
    if args.trace:
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
        try:
            work = workloads.build(args.workload, args.seed)
        finally:
            restore()
        tracer.end_segment("setup")
    else:
        work = workloads.build(args.workload, args.seed)

        def between():
            measure_setup(args.workload, args.seed, SETUP_SAMPLES_PER_GAP, setup, setup_speed)

    plain, traced = run_passes(work, args.seconds, tracer, between)
    passes = plain + traced
    # An operation records at most one failure; a failed check that spans
    # passes counts as one failed operation more.
    failures = [f for r in passes for f in r.failures]
    failures += consistency_failures(passes)
    attempted = sum(r.attempted for r in passes)

    speed = setup_speed + [s for r in plain for s in r.speed]
    slow = workloads.slowdown(speed, work.BLAS_SHARE)
    report["host_slowdown"] = (slow, "1", len(speed))
    if setup:
        py_slow = workloads.slowdown(speed, 0.0)
        report["setup_s"] = (_median(setup) / py_slow, "s", len(setup))
        report["setup_wall_s"] = (_median(setup), "s", len(setup))
    # Sum of per-operation medians: one slow moment of the machine moves one
    # operation's sample, not the whole pass.
    pass_wall = sum(workloads.op_medians(plain).values())
    report["pass_s"] = (pass_wall / slow, "s", len(plain))
    report["pass_wall_s"] = (pass_wall, "s", len(plain))
    for name, (value, unit, n) in work.per_op_metrics(plain, slow).items():
        report[name] = (value, unit, n)
    for key, value in sorted(plain[0].counts.items()):
        report[f"solver.{key}"] = (value, "count", 1)

    if args.trace:
        layer_metrics, selftest = per_layer_metrics(work, plain, traced, tracer)
        failures += selftest
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer_metrics.items()}
    else:
        metrics = {k: {"value": report[k][0], "unit": report[k][1]} for k in ("setup_s", "pass_s")}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["peak_rss_mb"] = (rss_mb, "MB", 1)
    if not args.trace:
        metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
    failed = min(attempted, len(failures))
    report["fail_ratio"] = (failed / attempted, "1", attempted)

    for name, (value, unit, n) in report.items():
        print(f"{args.workload} {name} = {value:.6g} {unit} (n={n})")
    for f in failures:
        print(f"FAIL {f}")
    print("environment " + json.dumps(env, sort_keys=True))

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(out_dir / f"{stem}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "environment": env,
                   "report": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in report.items()},
                   "passes": [{"op_s": r.op_s, "speed": r.speed} for r in plain],
                   "metrics": metrics, "failures": failures}, fh, indent=1, sort_keys=True)
    if tracer is not None:
        tracer.save(out_dir / f"{stem}-spans.npz")

    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
