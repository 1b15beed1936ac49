import builtins
import dataclasses
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import airalloc.experiments as experiments
from airalloc.dqn import TrainConfig
from airalloc.experiments import (
    CSV_HEADER,
    EXPERIMENT_KINDS,
    ConfigError,
    MetricRow,
    _KINDS,
    _multi_params,
    _single_params,
    _static_bcd_action,
    _train_config,
    load_config,
    read_rows,
    run_experiment,
    write_rows,
)
from airalloc.model import reference_params
from airalloc.multiuser import default_multiuser
from airalloc.solver import VARIANTS, bcd_solve

import pinned
from oracles import compensated_sum, slot_fields_are_float_tuples


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
        "train:\n  seed: 1",  # the seed is the config's own
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
    # The path must be a string, not a null or a list.
    for value in ("null", "[a, b]", "5"):
        path = _write(tmp_path, f"experiment: task_sweep\nseed: 1\noutput_dir: {value}\n")
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
    # An empty sweep, and one that is not a list at all.
    for values in ("[]", "5", "abc", "{a: 1}"):
        with pytest.raises(ConfigError, match="non-empty list"):
            load_config(_minimal(tmp_path, f"sweep:\n  values: {values}"))


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
        "train:\n  granularity: true",
        "train:\n  epsilon_decay: 1.5",
        "train:\n  epsilon_decay: .nan",
        "experiment: learning_rate\nsweep:\n  values: [true]",
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
        # A boolean is not a number either, though Python reads true as 1.
        "single_user:\n  task_mbits: true",
        "single_user:\n  latency_s: true",
        "multi_user:\n  weights: [true, 2]",
        "multi_user:\n  energy_weight: true",
        "multi_user:\n  task_range_mbits: [true, 30]",
        "experiment: task_sweep\nsweep:\n  values: [true, 10]",
        "experiment: convergence\nsweep:\n  values: [[2, true]]",
        "experiment: fairness\nsweep:\n  values: [true]",
        "experiment: efficiency\nsweep:\n  values: [true]",
    ],
)
def test_load_config_rejects_bad_parameter_blocks(tmp_path, body):
    with pytest.raises(ConfigError, match="single_user|multi_user"):
        load_config(_minimal(tmp_path, body))


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_load_config_checks_every_default_sweep(kind, tmp_path):
    # A config without a sweep runs the kind's default one, which loading
    # builds and so checks.
    assert load_config(_minimal(tmp_path, f"experiment: {kind}")).sweep_values == []


def test_load_config_rejects_a_default_sweep_value(tmp_path):
    # user_count's default sweep is n = 2, 3; two weights fit only n = 2.
    body = "experiment: user_count\nmulti_user:\n  weights: [1.0, 2.0]"
    with pytest.raises(ConfigError, match="multi_user: sweep value 3: weights must have 3"):
        load_config(_minimal(tmp_path, body))


def test_load_config_accepts_a_learning_rate_sweep_and_every_variant(tmp_path):
    cfg = load_config(_minimal(tmp_path, "experiment: learning_rate\nsweep:\n  values: [0.001, 0.0005]"))
    assert cfg.sweep_values == [0.001, 0.0005]
    for variant in VARIANTS:
        assert load_config(_minimal(tmp_path, f"variant: {variant}")).variant == variant


def test_load_config_rejects_non_mapping_block(tmp_path):
    with pytest.raises(ConfigError, match="mapping"):
        load_config(_minimal(tmp_path, "trials: [1, 2]"))


def test_empty_blocks_build_the_defaults_of_the_code_they_configure(tmp_path):
    # A key a block leaves out keeps the default of reference_params,
    # default_multiuser or TrainConfig; the harness holds no copy of it.
    cfg = load_config(_minimal(tmp_path, "single_user: {}\nmulti_user: {}\ntrain: {}"))
    assert _single_params(cfg) == reference_params()
    assert _multi_params(cfg) == default_multiuser()
    assert _train_config(cfg) == TrainConfig(seed=7)


@pytest.mark.parametrize("field", [f for f in dataclasses.fields(TrainConfig) if f.name != "seed"],
                         ids=lambda f: f.name)
def test_every_train_config_field_but_the_seed_is_a_train_key(tmp_path, field):
    cfg = load_config(_minimal(tmp_path, f"train:\n  {field.name}: {field.default!r}"))
    assert getattr(_train_config(cfg), field.name) == field.default


class _Recorded(Exception):
    """Stops a run at the call that takes a trial budget."""


# Per kind with budgets: the call that takes them, the config that keeps the
# run short up to that call, and how to read the budgets off its arguments.
_BUDGET_CALLS = {
    "speed_uncertainty": ("monte_carlo_outage", "sweep:\n  values: [10.0]",
                          lambda args, kw: {"mc_trials": kw["n_trials"]}),
    "user_count": ("evaluate_policy", "sweep:\n  values: [2]",
                   lambda args, kw: {"episodes": args[2], "steps": args[3]}),
    "fairness": ("evaluate_policy", "sweep:\n  values: [1.0]",
                 lambda args, kw: {"episodes": args[2], "steps": args[3]}),
    "latency": ("_latency_rows", "sweep:\n  values: [1]",
                lambda args, kw: {"repetitions": args[1]}),
    "efficiency": ("evaluate_policy", "sweep:\n  values: [10.0]",
                   lambda args, kw: {"episodes": args[2], "steps": args[3]}),
}


def test_every_kind_with_budgets_has_a_budget_check():
    assert {kind for kind, record in _KINDS.items() if record.trials} == set(_BUDGET_CALLS)


@pytest.mark.parametrize("given", [False, True], ids=["default", "given"])
@pytest.mark.parametrize("kind", sorted(_BUDGET_CALLS))
def test_runner_gets_the_record_budget_or_the_config_value(tmp_path, monkeypatch, kind, given):
    name, sweep, budgets_of = _BUDGET_CALLS[kind]
    defaults = _KINDS[kind].trials
    want = {k: v + 1 for k, v in defaults.items()} if given else defaults
    trials = "".join(f"\n  {k}: {v}" for k, v in want.items())
    body = (f"experiment: {kind}\n{sweep}\ntrain:\n  episodes: 1\n  steps_per_episode: 2\n"
            f"  batch_size: 1" + (f"\ntrials:{trials}" if given else ""))
    calls = []

    def record(*args, **kw):
        calls.append(budgets_of(args, kw))
        raise _Recorded

    def schedulers(kind, mp, episodes, seed, steps_per_episode):
        calls.append({"episodes": episodes, "steps": steps_per_episode})
        return np.ones(mp.n_users)

    monkeypatch.setattr(experiments, name, record)
    monkeypatch.setattr(experiments, "schedulers", schedulers)
    cfg = load_config(_minimal(tmp_path, body))
    assert cfg.trials == want
    with pytest.raises(_Recorded):
        run_experiment(cfg)
    assert calls and all(c == want for c in calls)


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


def test_static_bcd_action_scales_airtime_into_an_equal_slot_share():
    # At a tenth of the bandwidth, user 0 (2 Mbit) alone would take 0.5 s
    # of airtime, over its 1/3 share of the slot, so its airtimes shrink in
    # proportion; user 1 (10 Mbit) takes 0.24 s and keeps its own.
    mp = default_multiuser(3, 2)
    mp = dataclasses.replace(mp, bandwidth_hz=mp.bandwidth_hz / 10.0,
                             task_bits=(2e6, 10e6, 10e6))
    action = _static_bcd_action(mp, "mm2")
    cap = mp.slot_s / 3
    for u in range(2):
        solo = bcd_solve(mp.device(u), variant="mm2").allocation
        t = np.array(solo.t_shares)
        assert (t.sum() > cap) == (u == 0)
        want = t * (cap / t.sum()) if u == 0 else t
        assert np.array_equal(action.t[u], want)
        assert list(action.phi[u]) == list(solo.phi) and action.power[u] == solo.power_w
    assert np.sum(action.t[0]) == pytest.approx(cap, rel=1e-15)
    assert slot_fields_are_float_tuples(action)


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


def test_run_latency_times_its_own_cells(tmp_path, monkeypatch):
    # The solvers are timed on the single_user block of the config, not on
    # the 10 Mbit, 1 J reference cell of `airalloc bench`.
    from airalloc import metrics

    seen = []
    real = metrics.bcd_solve

    def spy(p, **kwargs):
        seen.append((p.n_servers, p.task_bits, p.energy_budget_j))
        return real(p, **kwargs)

    monkeypatch.setattr(metrics, "bcd_solve", spy)
    _run(
        tmp_path,
        f"""\
        experiment: latency
        seed: 0
        output_dir: {tmp_path / "out"}
        single_user:
          task_mbits: 30
          energy_j: 0.5
        sweep:
          values: [1]
        trials:
          repetitions: 1
        """,
    )
    assert seen and set(seen) == {(1, 3e7, 0.5)}


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


def test_pinned_entries_hold_under_a_compensated_builtin_sum(tmp_path, monkeypatch):
    # From Python 3.12 on the builtin sum compensates float sums.  The
    # package sums floats with model._total alone, so no solve trace, CSV
    # or rollout may move when the builtin compensates.
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    moved = pinned.moved_against_manifests(pinned.current_entries(tmp_path))
    assert not moved, f"moved under a compensated sum: {moved}"


def _moved_in_subprocess(tmp_path, **environ):
    """The pinned entries that move in a fresh interpreter run with the
    given environment variables set."""
    tests = Path(__file__).parent
    code = (f"import json, pinned, pathlib; print(json.dumps(pinned.moved_against_manifests("
            f"pinned.current_entries(pathlib.Path({str(tmp_path)!r})))))")
    env = {**os.environ, **environ,
           "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_pinned_entries_hold_under_another_openblas_kernel(tmp_path):
    # On the pinned set only the DQN's matrix products go through the BLAS,
    # so under the Haswell kernel (no AVX-512) the training digest may move
    # and nothing else: no solve trace, CSV or rollout.  A subset, so a host
    # whose own kernel is Haswell passes too.
    moved = _moved_in_subprocess(tmp_path, OPENBLAS_CORETYPE="Haswell")
    assert set(moved) <= {"rollouts: train: digest"}, f"moved under Haswell: {moved}"


_WIDE_DISPATCH = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


def test_pinned_entries_hold_under_narrower_numpy_dispatch(tmp_path):
    # numpy's array pow, exp and log round differently per SIMD dispatch
    # target, and only the replay sampler's powers reach them on the pinned
    # set, so with the AVX-512 targets turned off the training digest may
    # move and nothing else.  The target names are numpy 2's.
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    if not any(f in umath.__cpu_dispatch__ and umath.__cpu_features__.get(f) for f in _WIDE_DISPATCH):
        pytest.skip("numpy dispatches none of " + ", ".join(_WIDE_DISPATCH) + " on this host")
    moved = _moved_in_subprocess(tmp_path, NPY_DISABLE_CPU_FEATURES=" ".join(_WIDE_DISPATCH))
    assert set(moved) <= {"rollouts: train: digest"}, f"moved under narrower dispatch: {moved}"


def test_regeneration_names_the_moved_entries(tmp_path, monkeypatch):
    # Regenerating prints the entries a change moved, and for a solve trace
    # or a rollout the fields that moved, with the values of a numeric one,
    # so they are named by the tool rather than worked out by hand.
    solves = {"M1 L10/mm2": {"ln_p_success": "a", "converged": "t", "final_ln_p": -1.25},
              "M1 L10/pg": {"ln_p_success": "b", "converged": "t"},
              "hard x/mm1": {"ln_p_success": "c"}}
    rollouts = {"weighted": {"mean_reward": -1.5, "per_user_success": [0.25, 0.5]},
                "train": {"digest": "d"}}
    monkeypatch.setattr(pinned, "GOLDEN_DIR", tmp_path)
    monkeypatch.setattr(pinned, "SOLVE_MANIFEST", tmp_path / "solve_traces.json")
    monkeypatch.setattr(pinned, "EXPERIMENT_MANIFEST", tmp_path / "experiments.json")
    monkeypatch.setattr(pinned, "ROLLOUT_MANIFEST", tmp_path / "rollouts.json")
    monkeypatch.setattr(pinned, "solve_digests", lambda: {k: dict(d) for k, d in solves.items()})
    monkeypatch.setattr(pinned, "rollout_values",
                        lambda: {k: dict(d) for k, d in rollouts.items()})
    monkeypatch.setattr(pinned, "EXPERIMENT_CONFIGS",
                        {k: pinned.EXPERIMENT_CONFIGS[k] for k in ("server_sweep", "task_sweep")})
    first = pinned.regenerate()
    assert first == [f"solve_traces: {k} (added)" for k in solves] + [
        "experiments: server_sweep (added)", "experiments: task_sweep (added)"] + [
        f"rollouts: {k} (added)" for k in rollouts]
    assert pinned.regenerate() == []

    solves["M1 L10/mm2"]["ln_p_success"] = "moved"
    solves["M1 L10/mm2"]["final_ln_p"] = -1.2500000000000002
    solves["M1 L10/pg"]["split_mu"] = "new field"
    del solves["M1 L10/pg"]["converged"]
    solves["M2 L10/mm1"] = {"ln_p_success": "new entry"}
    del solves["hard x/mm1"]
    kinds = json.loads(pinned.EXPERIMENT_MANIFEST.read_text())
    kinds["kinds"]["task_sweep"] = "stale"
    pinned.EXPERIMENT_MANIFEST.write_text(json.dumps(kinds))
    rollouts["weighted"]["per_user_success"] = [0.25, 0.5000000000000001]
    rollouts["weighted"]["mean_reward"] = -1.25
    assert pinned.regenerate() == [
        "solve_traces: M1 L10/mm2: ln_p_success, final_ln_p -1.25 -> -1.2500000000000002",
        "solve_traces: M1 L10/pg: split_mu (added), converged (removed)",
        "solve_traces: M2 L10/mm1 (added)", "solve_traces: hard x/mm1 (removed)",
        "experiments: task_sweep",
        "rollouts: weighted: mean_reward -1.5 -> -1.25, per_user_success"]


def test_readme_lists_every_kind_budget_with_its_default():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme[readme.index("| kind | `trials` budgets (defaults) |"):].split("\n\n")[0]
    rows = {}
    for line in table.splitlines()[2:]:
        kind, budgets = (cell.strip() for cell in line.strip("|").split("|"))
        rows[kind.strip("`")] = {k.strip("`"): int(v) for k, v in
                                 (item.split() for item in budgets.split(", "))}
    assert rows == {kind: record.trials for kind, record in _KINDS.items() if record.trials}


def test_environment_note_names_every_value_that_differs():
    here = pinned.environment()
    assert pinned.environment_note(here) == ""
    note = pinned.environment_note({**here, "blas_core": "Haswell"})
    assert f"(blas_core 'Haswell' there, {here['blas_core']!r} here)" in note
    # The manifests record every value environment() reads.
    for path, key in ((pinned.SOLVE_MANIFEST, "digests"), (pinned.EXPERIMENT_MANIFEST, "kinds"),
                      (pinned.ROLLOUT_MANIFEST, "values")):
        assert set(json.loads(path.read_text())) - {key} == set(here)


def test_experiment_kinds_all_have_runners():
    # Every advertised kind is one record: a sweep block, a cell builder, a
    # non-empty default sweep and a runner.
    from airalloc.experiments import _KINDS

    assert EXPERIMENT_KINDS == tuple(_KINDS)
    for kind in _KINDS.values():
        assert kind.block and kind.default_sweep
        assert callable(kind.cell) and callable(kind.run)
