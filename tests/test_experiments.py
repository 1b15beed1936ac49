import json
import textwrap

import pytest

from airalloc.experiments import (
    CSV_HEADER,
    EXPERIMENT_KINDS,
    ConfigError,
    MetricRow,
    load_config,
    read_rows,
    run_experiment,
    write_rows,
)
from airalloc.solver import VARIANTS

import pinned


def _write(tmp_path, text, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return path


def _minimal(tmp_path, body=""):
    # A body may name its own experiment; the default is task_sweep.
    kind = "" if body.startswith("experiment:") else "experiment: task_sweep\n"
    text = f"{kind}seed: 7\noutput_dir: {tmp_path / 'out'}\n{body}\n"
    return _write(tmp_path, text)


# ---------------------------------------------------------------------------
# config parsing


def test_load_config_defaults(tmp_path):
    cfg = load_config(_minimal(tmp_path))
    assert cfg.experiment == "task_sweep"
    assert cfg.seed == 7
    assert cfg.variant == "mm2"
    assert cfg.sweep_values == []
    assert cfg.trials == {}


def test_load_config_full_blocks(tmp_path):
    path = _write(
        tmp_path,
        f"""\
        experiment: fairness
        seed: 3
        output_dir: {tmp_path}
        variant: mm1
        multi_user:
          n_users: 2
          weights: [2.0, 1.0]
        sweep:
          values: [1.0, 4.0]
        trials:
          episodes: 5
        train:
          episodes: 2
          granularity: 0.5
        """,
    )
    cfg = load_config(path)
    assert cfg.variant == "mm1"
    assert cfg.sweep_values == [1.0, 4.0]
    assert cfg.multi_user["weights"] == [2.0, 1.0]
    assert cfg.train["granularity"] == 0.5


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.yaml")


def test_load_config_invalid_yaml(tmp_path):
    path = _write(tmp_path, "experiment: [unclosed\n")
    with pytest.raises(ConfigError, match="valid YAML"):
        load_config(path)


def test_load_config_rejects_unknown_keys(tmp_path):
    cases = [
        "colour: blue",
        "single_user:\n  n_server: 2",  # typo inside a block
        "multi_user:\n  user_count: 3",
        "sweep:\n  points: [1]",
        "trials:\n  reps: 4",
        "train:\n  momentum: 0.9",
    ]
    for body in cases:
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(_minimal(tmp_path, body))


def test_load_config_requires_integer_seed(tmp_path):
    path = _write(
        tmp_path,
        f"""\
        experiment: task_sweep
        seed: "7"
        output_dir: {tmp_path}
        """,
    )
    with pytest.raises(ConfigError, match="integer seed"):
        load_config(path)
    path = _write(
        tmp_path,
        f"""\
        experiment: task_sweep
        output_dir: {tmp_path}
        """,
    )
    with pytest.raises(ConfigError, match="integer seed"):
        load_config(path)
    # Negative and boolean seeds are rejected too (YAML reads true as a bool).
    for seed in ("-1", "true", "1.5"):
        path = _write(tmp_path, f"experiment: task_sweep\nseed: {seed}\noutput_dir: {tmp_path}\n")
        with pytest.raises(ConfigError, match="non-negative integer seed"):
            load_config(path)


def test_load_config_requires_output_dir(tmp_path):
    path = _write(tmp_path, "experiment: task_sweep\nseed: 1\n")
    with pytest.raises(ConfigError, match="output_dir"):
        load_config(path)


def test_load_config_rejects_unknown_experiment(tmp_path):
    path = _write(
        tmp_path,
        f"""\
        experiment: warp_drive
        seed: 1
        output_dir: {tmp_path}
        """,
    )
    with pytest.raises(ConfigError, match="experiment must be one of"):
        load_config(path)


def test_load_config_rejects_unknown_variant(tmp_path):
    with pytest.raises(ConfigError, match="variant"):
        load_config(_minimal(tmp_path, "variant: mm3"))


def test_load_config_rejects_empty_sweep(tmp_path):
    with pytest.raises(ConfigError, match="non-empty"):
        load_config(_minimal(tmp_path, "sweep:\n  values: []"))


@pytest.mark.parametrize(
    "body",
    [
        "train:\n  tau: 2.0",
        "train:\n  epsilon_start: 1.5",
        "train:\n  epsilon_min: -0.1",
        "train:\n  learning_rate: 0",
        "train:\n  batch_size: 0",
        "train:\n  episodes: -1",
        "train:\n  episodes: abc",
        "train:\n  episodes: true",
        "train:\n  steps_per_episode: 0",
        "train:\n  discount: 1.5",
        "train:\n  batch_size: 100\n  buffer_capacity: 50",
        "trials:\n  episodes: 0",
        "trials:\n  steps: -3",
        "trials:\n  mc_trials: 2.5",
        "trials:\n  repetitions: ten",
        "trials:\n  episodes: true",
        "experiment: learning_rate\nsweep:\n  values: [0.001, -0.001]",
        "experiment: learning_rate\nsweep:\n  values: [0]",
        "train:\n  granularity: 0.3",
        "train:\n  granularity: 0",
        "train:\n  granularity: 1.5",
    ],
)
def test_load_config_rejects_bad_training_settings(tmp_path, body):
    with pytest.raises(ConfigError, match="train|trials"):
        load_config(_minimal(tmp_path, body))


@pytest.mark.parametrize(
    "body",
    [
        "single_user:\n  energy_j: -1.0",
        "single_user:\n  n_servers: 0",
        "single_user:\n  task_mbits: abc",
        "multi_user:\n  task_range_mbits: [30, 5]",
        "multi_user:\n  task_range_mbits: 5",
        "multi_user:\n  energy_weight: -1",
        "multi_user:\n  weights: [1.0, 2.0, 3.0]",
        # Sweep values are checked by building each cell's parameters.
        "experiment: task_sweep\nsweep:\n  values: [5, -5]",
        "experiment: server_sweep\nsweep:\n  values: [0]",
        "experiment: fairness\nsweep:\n  values: [-1.0]",
        "experiment: user_count\nmulti_user:\n  weights: [1.0, 2.0]\nsweep:\n  values: [2, 3]",
        # Counts are rejected, not truncated to the integer below.
        "single_user:\n  n_servers: 2.5",
        "single_user:\n  n_servers: true",
        "multi_user:\n  n_users: 2.5",
        "multi_user:\n  n_servers: 1.5",
        "experiment: server_sweep\nsweep:\n  values: [2, 2.7]",
        "experiment: user_count\nsweep:\n  values: [2.5]",
        "experiment: convergence\nsweep:\n  values: [[2.5, 10.0]]",
    ],
)
def test_load_config_rejects_bad_parameter_blocks(tmp_path, body):
    with pytest.raises(ConfigError, match="single_user|multi_user"):
        load_config(_minimal(tmp_path, body))


def test_load_config_accepts_a_learning_rate_sweep_and_every_variant(tmp_path):
    cfg = load_config(_minimal(tmp_path, "experiment: learning_rate\nsweep:\n  values: [0.001, 0.0005]"))
    assert cfg.sweep_values == [0.001, 0.0005]
    for variant in VARIANTS:
        assert load_config(_minimal(tmp_path, f"variant: {variant}")).variant == variant


def test_load_config_rejects_non_mapping_block(tmp_path):
    with pytest.raises(ConfigError, match="mapping"):
        load_config(_minimal(tmp_path, "trials: [1, 2]"))


# ---------------------------------------------------------------------------
# row serialization


def test_metric_row_coerces_to_float():
    row = MetricRow(1, "outage [probability]", 0, None, "proposed")
    assert isinstance(row.sweep_value, float) and isinstance(row.value, float)


def test_metric_row_rejects_non_finite():
    with pytest.raises(ValueError):
        MetricRow(float("nan"), "m", 0.0, None, "t")
    with pytest.raises(ValueError):
        MetricRow(0.0, "m", float("inf"), None, "t")
    with pytest.raises(ValueError):
        MetricRow(0.0, "m", 0.0, float("nan"), "t")


def test_metric_row_line_round_trip():
    rows = [
        MetricRow(0.1, "outage [probability]", 1.069875e-2, None, "proposed"),
        MetricRow(2.0, "episode_reward [1]", -13.25, 0.5, "lr=0.001"),
    ]
    for row in rows:
        back = MetricRow.from_line(row.to_line())
        assert back == row
        # repr-based serialization is bit-stable, not just approximately equal
        assert back.to_line() == row.to_line()


def test_metric_row_from_line_rejects_bad_column_count():
    with pytest.raises(ValueError, match="5 columns"):
        MetricRow.from_line("1.0,outage,0.5,extra,field,oops")


def test_write_read_rows_round_trip(tmp_path):
    rows = [
        MetricRow(1.0, "jain_index [1]", 6.0 / 7.0, None, "round_robin"),
        MetricRow(2.0, "jain_index [1]", 1.0, 0.01, "dqn"),
    ]
    path = write_rows(tmp_path / "deep" / "rows.csv", rows)
    assert path.exists()
    text = path.read_text(encoding="utf-8")
    assert text.startswith(CSV_HEADER + "\n")
    assert read_rows(path) == rows


def test_read_rows_rejects_foreign_header(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("a,b,c\n", encoding="utf-8")
    with pytest.raises(ValueError, match="header"):
        read_rows(path)


# ---------------------------------------------------------------------------
# experiment runners (tiny budgets)


def _run(tmp_path, text):
    cfg = load_config(_write(tmp_path, text))
    paths = run_experiment(cfg)
    assert len(paths) == 1 and paths[0].exists()
    rows = read_rows(paths[0])
    assert rows
    return rows, paths[0]


def test_run_convergence(tmp_path):
    rows, _ = _run(
        tmp_path,
        f"""\
        experiment: convergence
        seed: 0
        output_dir: {tmp_path / "out"}
        sweep:
          values: [[1, 10.0]]
        """,
    )
    tags = {r.tag for r in rows}
    assert tags == {"mm2:M=1:L=10", "mm1:M=1:L=10"}
    for tag in tags:
        trace = [r.value for r in rows if r.tag == tag]
        assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))


def test_run_task_sweep_rerun_is_byte_identical(tmp_path):
    text = f"""\
    experiment: task_sweep
    seed: 0
    output_dir: {tmp_path / "out"}
    single_user:
      n_servers: 1
    sweep:
      values: [10.0, 15.0]
    """
    rows, path = _run(tmp_path, text)
    assert {r.tag for r in rows} == {"proposed", "full_offload"}
    for r in rows:
        assert 0.0 <= r.value <= 1.0
    first = path.read_bytes()
    _run(tmp_path, text)
    assert path.read_bytes() == first


def test_run_server_sweep_outage_non_increasing(tmp_path):
    rows, _ = _run(
        tmp_path,
        f"""\
        experiment: server_sweep
        seed: 0
        output_dir: {tmp_path / "out"}
        sweep:
          values: [1, 2]
        """,
    )
    outage = {r.sweep_value: r.value for r in rows}
    assert outage[2.0] <= outage[1.0] + 1e-12


def test_run_speed_uncertainty(tmp_path):
    rows, _ = _run(
        tmp_path,
        f"""\
        experiment: speed_uncertainty
        seed: 0
        output_dir: {tmp_path / "out"}
        single_user:
          n_servers: 1
        sweep:
          values: [10.0]
        trials:
          mc_trials: 4000
        """,
    )
    tags = {r.tag for r in rows}
    assert tags == {"analytic", "mc_exact_speed", "mc_speed_jitter_20pct"}
    analytic = next(r for r in rows if r.tag == "analytic")
    exact = next(r for r in rows if r.tag == "mc_exact_speed")
    assert analytic.std_error is None and exact.std_error is not None
    assert abs(exact.value - analytic.value) <= 4.0 * exact.std_error + 1e-3


def test_run_learning_rate(tmp_path):
    rows, _ = _run(
        tmp_path,
        f"""\
        experiment: learning_rate
        seed: 0
        output_dir: {tmp_path / "out"}
        sweep:
          values: [1.0e-3]
        train:
          episodes: 2
          steps_per_episode: 5
        """,
    )
    assert [r.sweep_value for r in rows] == [0.0, 1.0]
    assert all(r.tag == "lr=0.001" for r in rows)


def test_run_user_count(tmp_path):
    rows, _ = _run(
        tmp_path,
        f"""\
        experiment: user_count
        seed: 0
        output_dir: {tmp_path / "out"}
        sweep:
          values: [2]
        trials:
          episodes: 2
          steps: 3
        train:
          episodes: 2
          steps_per_episode: 5
        """,
    )
    assert {r.tag for r in rows} == {"dqn", "bcd_static"}
    for r in rows:
        assert 0.0 <= r.value <= 1.0


def test_run_fairness(tmp_path):
    rows, _ = _run(
        tmp_path,
        f"""\
        experiment: fairness
        seed: 0
        output_dir: {tmp_path / "out"}
        sweep:
          values: [1.0]
        trials:
          episodes: 2
          steps: 3
        """,
    )
    # train.episodes defaults to 0, so only the four schedulers report
    assert {r.tag for r in rows} == {"round_robin", "weighted", "max_min", "proportional"}
    for r in rows:
        assert 0.0 < r.value <= 1.0


def test_run_fairness_rejects_weight_mismatch(tmp_path):
    path = _write(
        tmp_path,
        f"""\
        experiment: fairness
        seed: 0
        output_dir: {tmp_path / "out"}
        multi_user:
          n_users: 2
          weights: [1.0, 2.0, 3.0]
        sweep:
          values: [1.0]
        """,
    )
    # Caught when the config is loaded, before anything runs.
    with pytest.raises(ConfigError, match="weights"):
        run_experiment(load_config(path))


def test_run_latency(tmp_path):
    rows, _ = _run(
        tmp_path,
        f"""\
        experiment: latency
        seed: 0
        output_dir: {tmp_path / "out"}
        sweep:
          values: [1]
        trials:
          repetitions: 1
        """,
    )
    tags = {r.tag for r in rows}
    assert tags == {"bcd_mm1", "bcd_mm2", "gradient_descent", "dqn_inference"}
    for r in rows:
        assert r.value > 0.0


def test_run_efficiency(tmp_path):
    rows, _ = _run(
        tmp_path,
        f"""\
        experiment: efficiency
        seed: 0
        output_dir: {tmp_path / "out"}
        sweep:
          values: [10.0]
        trials:
          episodes: 1
          steps: 2
        train:
          episodes: 1
          steps_per_episode: 3
        """,
    )
    tags = {r.tag for r in rows}
    assert tags == {"bcd:pmax=0.8", "bcd:pmax=1", "dqn:pmax=0.8", "dqn:pmax=1"}
    for r in rows:
        assert r.value > 0.0


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_experiment_csv_matches_the_pinned_manifest(kind, tmp_path):
    # Each kind's CSV at its small pinned config, the row set for latency
    # (tests/pinned.py regenerates the manifest).
    manifest = json.loads(pinned.EXPERIMENT_MANIFEST.read_text())
    path = pinned.run_kind(kind, pinned.EXPERIMENT_CONFIGS[kind], tmp_path)
    assert pinned.csv_digest(kind, path) == manifest["kinds"][kind], (
        f"{kind} CSV moved." + pinned.environment_note(manifest))


def test_regeneration_names_the_moved_entries(tmp_path, monkeypatch):
    # Regenerating prints the entries a change moved, and for a solve trace
    # the fields that moved, so they are named by the tool rather than worked
    # out by hand.
    solves = {"M1 L10/mm2": {"ln_p_success": "a", "converged": "t"},
              "M1 L10/pg": {"ln_p_success": "b", "converged": "t"},
              "hard x/mm1": {"ln_p_success": "c"}}
    monkeypatch.setattr(pinned, "GOLDEN_DIR", tmp_path)
    monkeypatch.setattr(pinned, "SOLVE_MANIFEST", tmp_path / "solve_traces.json")
    monkeypatch.setattr(pinned, "EXPERIMENT_MANIFEST", tmp_path / "experiments.json")
    monkeypatch.setattr(pinned, "solve_digests", lambda: {k: dict(d) for k, d in solves.items()})
    monkeypatch.setattr(pinned, "EXPERIMENT_CONFIGS",
                        {k: pinned.EXPERIMENT_CONFIGS[k] for k in ("server_sweep", "task_sweep")})
    first = pinned.regenerate()
    assert first == ["solve_traces: " + k for k in solves] + [
        "experiments: server_sweep", "experiments: task_sweep"]
    assert pinned.regenerate() == []

    solves["M1 L10/mm2"]["ln_p_success"] = "moved"
    solves["M1 L10/pg"]["split_mu"] = "new field"
    del solves["M1 L10/pg"]["converged"]
    solves["M2 L10/mm1"] = {"ln_p_success": "new entry"}
    del solves["hard x/mm1"]
    kinds = json.loads(pinned.EXPERIMENT_MANIFEST.read_text())
    kinds["kinds"]["task_sweep"] = "stale"
    pinned.EXPERIMENT_MANIFEST.write_text(json.dumps(kinds))
    assert pinned.regenerate() == [
        "solve_traces: M1 L10/mm2: ln_p_success",
        "solve_traces: M1 L10/pg: split_mu (added), converged (removed)",
        "solve_traces: M2 L10/mm1", "solve_traces: hard x/mm1", "experiments: task_sweep"]


def test_experiment_kinds_all_have_runners():
    # every advertised kind is runnable through the dispatcher
    from airalloc.experiments import _CELLS, _RUNNERS

    assert set(EXPERIMENT_KINDS) == set(_RUNNERS) == set(_CELLS)
