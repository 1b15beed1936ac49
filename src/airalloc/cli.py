"""Command-line entry points.

Subcommands: ``solve`` (single-user allocation; ``--json`` prints it with
the solver's work counts as one JSON object), ``sweep`` (run a configured
experiment), ``train`` (fit a policy on a multi-user environment), ``eval``
(score a trained policy against the schedulers), ``bench`` (decision-latency
table).  Exit code 0 on success, 2 for configuration problems, 1 for runtime
failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _seed(text: str) -> int:
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    from .solver import VARIANTS

    ap = argparse.ArgumentParser(prog="airalloc", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="optimize one single-user allocation")
    p_solve.add_argument("--servers", type=_positive_int, default=2)
    p_solve.add_argument("--task-mbits", type=_positive_float, default=10.0)
    p_solve.add_argument("--variant", choices=VARIANTS, default="mm2")
    p_solve.add_argument("--offload-only", action="store_true")
    p_solve.add_argument("--json", action="store_true",
                         help="print one JSON object instead of the table")

    p_sweep = sub.add_parser("sweep", help="run a configured experiment")
    p_sweep.add_argument("--config", required=True, help="experiment config path")
    p_sweep.add_argument("--seed", type=_seed, default=None, help="override config seed")
    p_sweep.add_argument("--output-dir", default=None, help="override config output dir")

    p_train = sub.add_parser("train", help="train a policy on a multi-user environment")
    p_train.add_argument("--config", required=True, help="experiment config path (multi_user + train blocks)")
    p_train.add_argument("--output-dir", default=None)
    p_train.add_argument("--seed", type=_seed, default=None)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint against scheduler baselines")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--episodes", type=_positive_int, default=200)
    p_eval.add_argument("--steps", type=_positive_int, default=25)
    p_eval.add_argument("--seed", type=_seed, default=None)

    p_bench = sub.add_parser("bench", help="decision-latency benchmark")
    p_bench.add_argument("--servers", type=_positive_int, nargs="+", default=[1, 2, 3])
    p_bench.add_argument("--repetitions", type=_positive_int, default=5)
    p_bench.add_argument("--seed", type=_seed, default=0)
    p_bench.add_argument("--output-dir", default=".")
    return ap


def _load(args):
    from .experiments import load_config

    cfg = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if getattr(args, "output_dir", None):
        cfg = dataclasses.replace(cfg, output_dir=Path(args.output_dir))
    return cfg


def _cmd_solve(args) -> int:
    from .model import reference_params
    from .solver import bcd_solve

    try:
        p = reference_params(n_servers=args.servers, task_mbits=args.task_mbits)
    except ValueError as exc:  # a server count outside the reference problem's range
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    res = bcd_solve(p, variant=args.variant, offload_only=args.offload_only)
    a = res.allocation
    if args.json:
        tr = res.trace
        print(json.dumps({
            "variant": args.variant,
            "servers": args.servers,
            "task_mbits": args.task_mbits,
            "allocation": dataclasses.asdict(a),
            "ln_p_success": res.ln_p_success,
            "converged": tr.converged,
            "n_outer": tr.n_outer,
            "inner_iterations": tr.total_inner,
            "search_evals": tr.total_search_evals,
            "mu_evals": tr.total_mu_evals,
            "pathologies": tr.total_pathologies,
            "p2_evals": tr.total_p2_evals,
            "split_residual": tr.split_residual,
        }))
        return EXIT_OK
    print(f"variant={args.variant} servers={args.servers} task={args.task_mbits:g} Mbit")
    print(f"outage          {res.p_outage:.6e}")
    # The outage rounds to 1 below P_success = 1e-16, where ln P stays readable.
    print(f"ln P_success    {res.ln_p_success:.6e}")
    print(f"log10 outage    {math.log10(res.p_outage) if res.p_outage > 0.0 else -math.inf:.6f}")
    print(f"local share     {a.phi[0]:.6f}")
    for m in range(1, args.servers + 1):
        print(f"server {m}: share {a.phi[m]:.6f}  airtime {a.t_shares[m - 1]:.6f} s")
    print(f"transmit power  {a.power_w:.6f} W")
    print(f"outer iterations {res.trace.n_outer} (converged={res.trace.converged})")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    from .experiments import run_experiment

    for path in run_experiment(_load(args)):
        print(path)
    return EXIT_OK


def _cmd_train(args) -> int:
    from .dqn import save_checkpoint
    from .experiments import MetricRow, _multi_params, _train_policy, write_rows

    cfg = _load(args)
    _, tc, theta, curve = _train_policy(cfg, _multi_params(cfg))
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    ckpt = out / "policy.ckpt"
    save_checkpoint(ckpt, theta, tc)
    rows = [MetricRow(float(ep), "episode_reward [1]", r, None, "train") for ep, r in enumerate(curve)]
    csv = write_rows(out / "training_curve.csv", rows)
    print(ckpt)
    print(csv)
    return EXIT_OK


def _cmd_eval(args) -> int:
    from .baselines import SCHEDULER_KINDS, evaluate_policy, greedy_policy, schedulers
    from .dqn import load_checkpoint
    from .experiments import _action_grid, _multi_params
    from .multiuser import MultiUserEnv, state_vector

    cfg = _load(args)
    mp = _multi_params(cfg)
    grid = _action_grid(cfg, mp)
    n_inputs = state_vector(mp, MultiUserEnv(mp).reset(cfg.seed)).size
    theta, _ = load_checkpoint(args.checkpoint)
    if (theta.n_inputs, theta.n_actions) != (n_inputs, grid.size):
        print(f"checkpoint takes {theta.n_inputs} state features and scores {theta.n_actions} actions, "
              f"but the configured state has {n_inputs} and the grid {grid.size}", file=sys.stderr)
        return EXIT_CONFIG
    res = evaluate_policy(MultiUserEnv(mp), greedy_policy(theta, grid, mp),
                          args.episodes, args.steps, seed=cfg.seed)
    print(f"greedy   mean_reward={res.mean_reward:.4f} se={res.se_reward:.4f} "
          f"mean_success={res.mean_success:.4f}")
    for kind in SCHEDULER_KINDS:
        rates = schedulers(kind, mp, episodes=args.episodes, seed=cfg.seed,
                           steps_per_episode=args.steps)
        print(f"{kind:13s} mean_success={float(np.mean(rates)):.4f}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    from .experiments import _latency_rows, write_rows
    from .model import reference_params

    try:
        cells = [reference_params(n_servers=m, task_mbits=10.0) for m in args.servers]
    except ValueError as exc:  # a server count outside the reference problem's range
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    rows = _latency_rows(cells, args.repetitions, args.seed)
    path = write_rows(Path(args.output_dir) / "latency.csv", rows)
    print(path)
    return EXIT_OK


_COMMANDS = {
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        # Only the experiment harness raises ConfigError, so a command that
        # never loaded it cannot have raised one; `solve` need not load it.
        harness = sys.modules.get(f"{__package__}.experiments")
        if harness is not None and isinstance(exc, harness.ConfigError):
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
