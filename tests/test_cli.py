import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from airalloc.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from airalloc.experiments import read_rows


def _train_cfg(tmp_path, out_name="run"):
    path = tmp_path / "train.yaml"
    path.write_text(
        "experiment: learning_rate\n"
        "seed: 5\n"
        f"output_dir: {tmp_path / out_name}\n"
        "multi_user:\n"
        "  n_users: 2\n"
        "  n_servers: 1\n"
        "train:\n"
        "  episodes: 2\n"
        "  steps_per_episode: 5\n",
        encoding="utf-8",
    )
    return path


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli-train")
    cfg = _train_cfg(tmp_path)
    assert main(["train", "--config", str(cfg)]) == EXIT_OK
    return cfg, tmp_path / "run"


def test_solve_prints_allocation(capsys):
    assert main(["solve", "--servers", "1", "--task-mbits", "10"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "outage" in out
    fields = {line[:16].strip(): line[16:].strip() for line in out.splitlines()}
    ln_p = float(fields["ln P_success"])
    assert ln_p == pytest.approx(-0.44967, abs=1e-4)
    assert float(fields["log10 outage"]) == pytest.approx(math.log10(-math.expm1(ln_p)), abs=1e-6)
    assert "server 1:" in out
    assert "transmit power" in out
    assert "converged=True" in out


def test_solve_json_reports_allocation_and_work_counts(capsys):
    assert main(["solve", "--servers", "2", "--task-mbits", "10", "--variant", "mm1", "--json"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["variant"] == "mm1"
    assert out["ln_p_success"] == pytest.approx(-0.010756, abs=1e-4)
    assert out["converged"] is True
    alloc = out["allocation"]
    assert len(alloc["phi"]) == 3 and len(alloc["t_shares"]) == 2
    assert sum(alloc["phi"]) == pytest.approx(1.0)
    assert 0.0 < alloc["power_w"] <= 1.0 and alloc["rho"] >= 0.0
    assert 1 <= out["n_outer"] <= out["inner_iterations"]
    # Each multiplier tried runs a 1-D search per index, each a few steps.
    assert out["inner_iterations"] < out["mu_evals"] < out["search_evals"]
    assert out["pathologies"] == 0
    # Each outer iteration's airtime update takes a few Newton steps.
    assert out["n_outer"] <= out["p2_evals"] <= 15 * out["n_outer"]
    # The split is stationary at the end: pg's own stopping norm is small.
    assert 0.0 <= out["split_residual"] < 1e-4


def test_solve_offload_only_keeps_local_share_zero(capsys):
    assert main(["solve", "--servers", "1", "--offload-only"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "local share     0.000000" in out


def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["conquer"])
    assert exc.value.code == 2


def test_sweep_writes_csv(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "experiment: task_sweep\n"
        "seed: 0\n"
        f"output_dir: {tmp_path / 'out'}\n"
        "single_user:\n"
        "  n_servers: 1\n"
        "sweep:\n"
        "  values: [10.0]\n",
        encoding="utf-8",
    )
    assert main(["sweep", "--config", str(cfg)]) == EXIT_OK
    printed = capsys.readouterr().out.strip()
    assert printed.endswith("task_sweep.csv")
    assert read_rows(tmp_path / "out" / "task_sweep.csv")


def test_sweep_output_dir_override(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "experiment: task_sweep\n"
        "seed: 0\n"
        f"output_dir: {tmp_path / 'ignored'}\n"
        "single_user:\n"
        "  n_servers: 1\n"
        "sweep:\n"
        "  values: [10.0]\n",
        encoding="utf-8",
    )
    override = tmp_path / "elsewhere"
    assert main(["sweep", "--config", str(cfg), "--output-dir", str(override)]) == EXIT_OK
    assert (override / "task_sweep.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_sweep_seed_override(tmp_path):
    # --seed replaces the config's seed: the Monte-Carlo rows of a seed-0
    # config run with --seed 7 are those of a seed-7 config.
    def csv(seed: int, *flags: str) -> bytes:
        cfg = tmp_path / f"seed{seed}{''.join(flags)}.yaml"
        out = tmp_path / cfg.stem
        cfg.write_text(f"experiment: speed_uncertainty\nseed: {seed}\noutput_dir: {out}\n"
                       "single_user:\n  n_servers: 1\nsweep:\n  values: [10.0]\n"
                       "trials:\n  mc_trials: 2000\n", encoding="utf-8")
        assert main(["sweep", "--config", str(cfg), *flags]) == EXIT_OK
        return (out / "speed_uncertainty.csv").read_bytes()

    overridden = csv(0, "--seed", "7")
    assert overridden == csv(7)
    assert overridden != csv(0)


def _fresh_interpreter(code: str) -> subprocess.CompletedProcess:
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)}, check=False)


def test_solve_leaves_the_harness_unloaded():
    # main catches ConfigError without importing the harness that defines it.
    proc = _fresh_interpreter("""
        import sys
        from airalloc import cli

        assert cli.main(["solve", "--servers", "1"]) == cli.EXIT_OK
        print(sorted(m for m in ("airalloc.experiments", "yaml") if m in sys.modules))
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_bad_config_exits_with_config_error_in_a_fresh_interpreter(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("experiment: task_sweep\nseed: 0\nno_such_block: 1\n", encoding="utf-8")
    proc = _fresh_interpreter(f"""
        import sys
        from airalloc import cli

        sys.exit(cli.main(["sweep", "--config", {str(cfg)!r}]))
    """)
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert proc.stderr.startswith("config error:")


def test_sweep_missing_config_is_a_config_error(tmp_path, capsys):
    code = main(["sweep", "--config", str(tmp_path / "absent.yaml")])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_sweep_unreadable_config_is_a_config_error(tmp_path, capsys):
    # A directory in place of the config file.
    assert main(["sweep", "--config", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and str(tmp_path) in err


def test_sweep_config_not_in_utf8_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "latin1.yaml"
    cfg.write_bytes("experiment: task_sweep\nseed: 0\n# caf\u00e9\n".encode("latin-1"))
    assert main(["sweep", "--config", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and str(cfg) in err


def test_sweep_unknown_key_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "experiment: task_sweep\nseed: 0\n"
        f"output_dir: {tmp_path}\nturbo: true\n",
        encoding="utf-8",
    )
    assert main(["sweep", "--config", str(cfg)]) == EXIT_CONFIG
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "block",
    [
        "train:\n  tau: 2.0\n",
        "train:\n  episodes: abc\n",
        "train:\n  discount: 1.5\n",
        "trials:\n  episodes: 0\n",
        "experiment: learning_rate\nsweep:\n  values: [0.001, -0.001]\n",
        "train:\n  granularity: 0.3\n",
        "single_user:\n  energy_j: -1.0\n",
        "multi_user:\n  task_range_mbits: [30, 5]\n",
        "multi_user:\n  task_range_mbits: [5, .inf]\n",
        "multi_user:\n  energy_weight: -1\n",
        "experiment: task_sweep\nsweep:\n  values: [5, -5]\n",
        "experiment: server_sweep\nsweep:\n  values: [0]\n",
        "experiment: server_sweep\nsweep:\n  values: [2.7]\n",
        "multi_user:\n  n_users: 2.5\n",
        "experiment: fairness\nsweep:\n  values: [-1.0]\n",
        "multi_user:\n  weights: [1.0, 2.0]\nsweep:\n  values: [2, 3]\n",
        # Joint action grids over the cap of 200,000: 2 users x 2 servers
        # at granularity 0.1 (528 options each), and 5 users x 1 server at
        # the default 0.5 (12 each).
        "experiment: fairness\nmulti_user:\n  n_servers: 2\ntrain:\n  granularity: 0.1\n"
        "  episodes: 1\n",
        "experiment: learning_rate\nmulti_user:\n  n_servers: 2\ntrain:\n  granularity: 0.1\n",
        "experiment: efficiency\nmulti_user:\n  n_servers: 2\ntrain:\n  granularity: 0.1\n",
        "sweep:\n  values: [2, 5]\n",
        # The reference gains (11 - m) * 1e-7 reach 0 at the eleventh server.
        "single_user:\n  n_servers: 11\n",
    ],
)
@pytest.mark.parametrize("command", ["sweep", "train", "eval"])
def test_bad_training_settings_fail_at_load(tmp_path, capsys, block, command):
    # Rejected before any training or rollout runs: exit 2 and no output
    # directory.  A block may name its own experiment; the default is
    # user_count.
    kind = "" if block.startswith("experiment:") else "experiment: user_count\n"
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        f"{kind}seed: 0\noutput_dir: {tmp_path / 'out'}\n{block}",
        encoding="utf-8",
    )
    argv = [command, "--config", str(cfg)]
    if command == "eval":
        argv += ["--checkpoint", str(tmp_path / "policy.ckpt")]
    assert main(argv) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_train_writes_checkpoint_and_curve(trained, capsys):
    _, out_dir = trained
    assert (out_dir / "policy.ckpt").exists()
    rows = read_rows(out_dir / "training_curve.csv")
    assert len(rows) == 2
    assert all(r.tag == "train" for r in rows)


def test_eval_reports_policy_and_schedulers(trained, capsys):
    cfg, out_dir = trained
    code = main([
        "eval", "--config", str(cfg), "--checkpoint", str(out_dir / "policy.ckpt"),
        "--episodes", "2", "--steps", "3",
    ])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "greedy" in out and "mean_success" in out
    for kind in ("round_robin", "weighted", "max_min", "proportional"):
        assert kind in out


def test_eval_rejects_grid_size_mismatch(trained, tmp_path, capsys):
    _, out_dir = trained
    cfg = tmp_path / "finer.yaml"
    cfg.write_text(
        "experiment: learning_rate\n"
        "seed: 5\n"
        f"output_dir: {tmp_path}\n"
        "multi_user:\n"
        "  n_users: 2\n"
        "  n_servers: 1\n"
        "train:\n"
        "  granularity: 0.25\n",
        encoding="utf-8",
    )
    code = main([
        "eval", "--config", str(cfg), "--checkpoint", str(out_dir / "policy.ckpt"),
        "--episodes", "1", "--steps", "1",
    ])
    assert code == EXIT_CONFIG
    assert "grid" in capsys.readouterr().err


def test_eval_rejects_state_size_mismatch(tmp_path, capsys):
    """A checkpoint of 1 user on 2 servers at granularity 0.5 scores 48
    actions from 6 state features; 1 user on 1 server at granularity 1/11
    also has 48 actions but only 4 features, so it is refused before any
    rollout."""
    from airalloc.dqn import init_network, save_checkpoint

    ckpt = tmp_path / "two_servers.ckpt"
    save_checkpoint(ckpt, init_network(6, 48, seed=0))
    cfg = tmp_path / "one_server.yaml"
    cfg.write_text(
        "experiment: learning_rate\n"
        "seed: 5\n"
        f"output_dir: {tmp_path}\n"
        "multi_user:\n"
        "  n_users: 1\n"
        "  n_servers: 1\n"
        "train:\n"
        f"  granularity: {1 / 11!r}\n",
        encoding="utf-8",
    )
    code = main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt), "--episodes", "1", "--steps", "1"])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "6 state features" in captured.err and "state has 4" in captured.err
    assert "greedy" not in captured.out


def test_eval_missing_checkpoint_is_a_runtime_error(trained, tmp_path, capsys):
    cfg, _ = trained
    code = main([
        "eval", "--config", str(cfg), "--checkpoint", str(tmp_path / "ghost.ckpt"),
        "--episodes", "1", "--steps", "1",
    ])
    assert code == EXIT_RUNTIME
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["nan", "unchained"])
def test_eval_rejects_malformed_checkpoint_before_rollout(trained, tmp_path, capsys, monkeypatch,
                                                          damage):
    import airalloc.baselines
    from airalloc.dqn import QNetworkParams, load_checkpoint, save_checkpoint

    rollouts = []
    monkeypatch.setattr(airalloc.baselines, "evaluate_policy",
                        lambda *args, **kwargs: rollouts.append(args))
    cfg, out_dir = trained
    theta, _ = load_checkpoint(out_dir / "policy.ckpt")
    if damage == "nan":
        theta.weights[1][0, 0] = math.nan
    else:
        theta = QNetworkParams([theta.weights[0][:, :-1], *theta.weights[1:]], theta.biases)
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(bad, theta)
    code = main([
        "eval", "--config", str(cfg), "--checkpoint", str(bad), "--episodes", "1", "--steps", "1",
    ])
    assert code == EXIT_RUNTIME
    assert rollouts == []
    assert "checkpoint" in capsys.readouterr().err


def test_eval_names_a_checkpoint_with_a_malformed_header(trained, malformed_checkpoint, capsys):
    cfg, _ = trained
    code = main([
        "eval", "--config", str(cfg), "--checkpoint", str(malformed_checkpoint),
        "--episodes", "1", "--steps", "1",
    ])
    assert code == EXIT_RUNTIME
    assert str(malformed_checkpoint) in capsys.readouterr().err


def test_bench_writes_latency_table(tmp_path, capsys):
    code = main([
        "bench", "--servers", "1", "--repetitions", "1",
        "--output-dir", str(tmp_path),
    ])
    assert code == EXIT_OK
    rows = read_rows(tmp_path / "latency.csv")
    assert {r.tag for r in rows} == {"bcd_mm1", "bcd_mm2", "gradient_descent", "dqn_inference"}
    assert all(r.value > 0.0 for r in rows)


@pytest.mark.parametrize("argv", [["solve", "--servers", "11"], ["solve", "--servers", "12", "--json"],
                                  ["bench", "--servers", "1", "11"]])
def test_server_count_outside_the_reference_problem_is_a_config_error(tmp_path, capsys, argv):
    # The reference problem takes 1-10 servers; solve and bench build every
    # problem before solving any, so nothing runs or is written.
    out = tmp_path / "out"
    code = main(argv + (["--output-dir", str(out), "--repetitions", "1"] if argv[0] == "bench" else []))
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: n_servers must lie in 1-10")
    assert not out.exists()


def test_grid_without_a_feasible_action_fails_at_load(tmp_path, capsys):
    # Five users at the lowest airtime level (a quarter slot each) overfill
    # the slot, so the grid has no feasible action: rejected at load, where
    # the sweep used to die mid-run with exit 1.
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"experiment: learning_rate\nseed: 0\noutput_dir: {tmp_path / 'out'}\n"
                   "multi_user:\n  n_users: 5\n  n_servers: 1\ntrain:\n  granularity: 1.0\n",
                   encoding="utf-8")
    assert main(["sweep", "--config", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "cannot share the slot" in err and "factored per-user" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--config", "cfg.yaml", "--checkpoint", "p.ckpt", "--episodes", "0"],
        ["eval", "--config", "cfg.yaml", "--checkpoint", "p.ckpt", "--steps", "0"],
        ["eval", "--config", "cfg.yaml", "--checkpoint", "p.ckpt", "--episodes", "1.5"],
        ["bench", "--repetitions", "0"],
        ["bench", "--servers", "1", "0"],
        ["solve", "--servers", "-2"],
    ],
)
def test_counts_must_be_positive(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + (["--output-dir", str(tmp_path / "out")] if argv[0] == "bench" else []))
    assert exc.value.code == EXIT_CONFIG
    assert "must be a positive integer" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "seed_line, argv",
    [
        ("seed: -1", []),
        ("seed: true", []),
        ("seed: 0", ["--seed", "-2"]),
        ("seed: 0", ["--seed", "1.5"]),
    ],
)
def test_bad_seed_fails_before_running(tmp_path, capsys, seed_line, argv):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        f"experiment: speed_uncertainty\n{seed_line}\noutput_dir: {tmp_path / 'out'}\n"
        "sweep:\n  values: [5.0]\n",
        encoding="utf-8",
    )
    try:
        code = main(["sweep", "--config", str(cfg)] + argv)
    except SystemExit as exc:  # argparse rejects a bad --seed
        code = exc.code
    assert code == EXIT_CONFIG
    assert "non-negative integer" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["-5", "0", "nan", "inf", "ten"])
def test_task_size_must_be_positive_and_finite(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["solve", f"--task-mbits={value}"])
    assert exc.value.code == EXIT_CONFIG
    assert "must be a positive finite number" in capsys.readouterr().err
