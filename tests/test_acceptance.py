"""Twelve end-to-end acceptance checks.

Each test prints one summary line — ``[criterion NN] label: PASS/FAIL
(measured margin)`` — straight to the real stdout so the tally survives
output capture, then asserts the same condition.  Tolerances and budgets are
part of the contract and are deliberately hard-coded.
"""

import dataclasses
import math
import sys
import time

import numpy as np
import pytest
from scipy import special as sps

from oracles import (
    analytic_success_grid,
    compute_arg,
    fd_second,
    link_args,
    lower_gamma_quadrature,
    quartic_roots_companion,
    random_feasible_allocation,
    scheduler_nominal_rates,
)
from test_dqn import _random_batch
from test_special import _planted_quartic

from airalloc import experiments
from airalloc.baselines import (
    SCHEDULER_KINDS,
    baseline_full_offload,
    evaluate_policy,
    greedy_policy,
    random_policy,
    schedulers,
)
from airalloc.dqn import (
    TrainConfig,
    init_network,
    q_forward,
    select_action,
    soft_update,
    train,
    train_step,
)
from airalloc.metrics import jain_index, latency_benchmark
from airalloc.model import (
    monte_carlo_outage,
    reference_params,
    success_breakdown,
)
from airalloc.multiuser import MultiUserEnv, default_multiuser, enumerate_actions
from airalloc.solver import bcd_solve, ln_success
from airalloc.special import chi, regularized_lower_gamma
from airalloc.surrogates import (
    PHI_FLOOR,
    b_chi,
    b_gamma,
    surrogate_computation,
    surrogate_transmission,
)


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {label}: {status} ({detail})",
          file=sys.__stdout__, flush=True)


def test_criterion_01_gamma_vs_quadrature():
    t0 = time.perf_counter()
    worst = 0.0
    for shape in (1.0, 2.0, 10.0):
        for x in np.linspace(0.0, 50.0, 101):
            ours = regularized_lower_gamma(shape, float(x))
            ref = lower_gamma_quadrature(shape, float(x))
            err = abs(ours - ref) / abs(ref) if ref != 0.0 else abs(ours)
            worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 60.0
    _report(1, "regularized lower gamma vs quadrature",
            ok, f"max rel err {worst:.2e}, {elapsed:.1f}s")
    assert ok, f"worst relative error {worst}, elapsed {elapsed}"


def test_criterion_02_quartic_vs_companion_matrix():
    t0 = time.perf_counter()
    rng = np.random.default_rng(424242)
    worst_root = 0.0
    worst_res = 0.0
    for _ in range(1000):
        q, _ = _planted_quartic(rng)
        from airalloc.special import solve_quartic_real

        ours = solve_quartic_real(q)
        ref = quartic_roots_companion(q.a, q.b, q.c, q.d, q.e)
        assert len(ours) == len(ref), f"root count differs for {q}"
        if ours:
            worst_root = max(worst_root, float(np.max(np.abs(np.array(ours) - np.array(ref)))))
        norm = max(1.0, abs(q.a), abs(q.b), abs(q.c), abs(q.d), abs(q.e))
        for r in ours:
            val = (((q.a * r + q.b) * r + q.c) * r + q.d) * r + q.e
            worst_res = max(worst_res, abs(val) / (norm * max(1.0, abs(r)) ** 4))
    elapsed = time.perf_counter() - t0
    ok = worst_root <= 1e-7 and worst_res <= 1e-9 and elapsed < 60.0
    _report(2, "quartic roots vs companion matrix", ok,
            f"1000 quartics, max root dev {worst_root:.2e}, "
            f"max scaled residual {worst_res:.2e}, {elapsed:.1f}s")
    assert ok, f"root dev {worst_root}, residual {worst_res}, elapsed {elapsed}"


def test_criterion_03_analytic_vs_monte_carlo():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240817)
    n_trials = 100_000
    worst_z = 0.0
    for i in range(20):
        p = reference_params(1 + i % 3, task_mbits=10.0)
        alloc = random_feasible_allocation(p, rng)
        bd = success_breakdown(p, alloc)
        mc = monte_carlo_outage(p, alloc, n_trials=n_trials, seed=1000 + i)
        # binomial deviation scale from the analytic probability, with a
        # one-count floor for probabilities indistinguishable from 0 or 1
        sigma = math.sqrt(max(bd.p_outage * bd.p_success, 0.0) / n_trials) + 1.0 / (3 * n_trials)
        worst_z = max(worst_z, abs(mc.p_outage - bd.p_outage) / sigma)
    elapsed = time.perf_counter() - t0
    ok = worst_z <= 3.0 and elapsed < 120.0
    _report(3, "analytic outage vs Monte Carlo", ok,
            f"20 allocations x {n_trials} trials, worst |dev| {worst_z:.2f} sigma, {elapsed:.1f}s")
    assert ok, f"worst z {worst_z}, elapsed {elapsed}"


def test_criterion_04_curvature_floors():
    h = 2e-3
    worst_chi = -math.inf  # most violating (floor - fd) gap
    for y in (0.5, 1.0, 10.0, 1000.0):
        floor = b_chi(y)
        for x in np.linspace(h, 10.0, 400):
            fd = fd_second(lambda v: chi(v, y), float(x), h)
            worst_chi = max(worst_chi, floor - fd)
    w = reference_params(1).workload
    t1_frac = (w.shape + 2.0 - math.sqrt(w.shape + 2.0)) / ((w.shape + 1.0) * (w.shape + 2.0))
    worst_gam = -math.inf
    for psi in (0.5, 1.0, 10.0, 100.0):
        floor = b_gamma(psi, w)
        slack = 1e-8 * max(1.0, abs(floor))
        t_lo, t_hi = psi * t1_frac / 10.0, psi * t1_frac * 100.0
        hh = 2e-3 * psi
        for t in np.linspace(max(t_lo, 1.5 * hh), t_hi, 300):
            fd = fd_second(lambda v: regularized_lower_gamma(w.shape, psi / v), float(t), hh)
            worst_gam = max(worst_gam, (floor - fd) / max(1.0, abs(floor)))
    ok = worst_chi <= 1e-8 and worst_gam <= 1e-8
    _report(4, "second-derivative floors hold under finite differences", ok,
            f"worst chi gap {worst_chi:.2e}, worst gamma gap {worst_gam:.2e} (scaled)")
    assert ok, f"chi gap {worst_chi}, gamma gap {worst_gam}"


def test_criterion_05_minorization_and_monotone_traces():
    rng = np.random.default_rng(505)
    worst_gap = -math.inf   # surrogate above target (should stay <= ~0)
    worst_dip = -math.inf   # objective decrease along a trace
    for i in range(50):
        m_srv = int(rng.integers(1, 4))
        p = reference_params(m_srv, task_mbits=float(rng.uniform(5.0, 30.0)))
        m = int(rng.integers(1, m_srv + 1))
        t_m = float(rng.uniform(0.05, 0.8 / m_srv))
        power = float(rng.uniform(0.3, 1.0))
        phi_hat = float(rng.uniform(0.02, 0.95))
        grid = np.linspace(PHI_FLOOR, 1.0, 100)

        y, c = link_args(p, m, t_m, power)
        q_tx = surrogate_transmission(y, c, phi_hat, (PHI_FLOOR, 1.0))
        with np.errstate(over="ignore"):
            tx_target = np.exp(-(np.exp2(c * grid) - 1.0) / y)
        worst_gap = max(worst_gap, float(np.max([q_tx.value(float(g)) for g in grid] - tx_target)))

        slack = float(rng.uniform(0.1, 0.9)) * p.latency_budget_s
        psi = compute_arg(p, m, slack)
        q_cp = surrogate_computation(psi, p.workload, phi_hat, (PHI_FLOOR, 1.0))
        cp_target = sps.gammainc(p.workload.shape, psi / grid)
        worst_gap = max(worst_gap, float(np.max([q_cp.value(float(g)) for g in grid] - cp_target)))

        res = bcd_solve(p, variant="mm2" if i % 2 == 0 else "mm1")
        trace = res.trace.ln_p_success
        worst_dip = max(worst_dip, max(a - b for a, b in zip(trace, trace[1:])))
    ok = worst_gap <= 1e-9 and worst_dip <= 1e-9
    _report(5, "surrogates minorize and traces climb", ok,
            f"50 instances, worst surrogate excess {worst_gap:.2e}, "
            f"worst trace dip {worst_dip:.2e}")
    assert ok, f"excess {worst_gap}, dip {worst_dip}"


def test_criterion_06_variant_agreement_and_iteration_budget():
    cells = []
    for m in (2, 3):
        for task in (10.0, 15.0):
            p = reference_params(m, task_mbits=task)
            r2 = bcd_solve(p, variant="mm2")
            r1 = bcd_solve(p, variant="mm1")
            cells.append((m, task, r2, r1))
    max_outer = max(max(r2.trace.n_outer, r1.trace.n_outer) for _, _, r2, r1 in cells)
    max_diff = max(abs(r2.ln_p_success - r1.ln_p_success) for _, _, r2, r1 in cells)
    all_converged = all(r2.trace.converged and r1.trace.converged for _, _, r2, r1 in cells)
    ok = all_converged and max_outer <= 10 and max_diff <= 1e-3
    _report(6, "both split updates converge fast and agree", ok,
            f"4 cells, max outer iters {max_outer}, max |ln diff| {max_diff:.2e}")
    assert ok, f"converged {all_converged}, outer {max_outer}, diff {max_diff}"


def test_criterion_07_single_server_vs_exhaustive_grid():
    t0 = time.perf_counter()
    p = reference_params(1, task_mbits=10.0)
    n = 200
    phi0 = np.linspace(0.0, 1.0, n)
    t1 = np.linspace(0.0, p.latency_budget_s, n)
    power = np.linspace(p.p_max_w / n, p.p_max_w, n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        grid = analytic_success_grid(p, phi0, t1, power)
    best = float(grid.max())
    idx = np.unravel_index(int(grid.argmax()), grid.shape)
    resolution = 0.0  # largest neighbour drop at the grid optimum
    for axis in range(3):
        for d in (-1, 1):
            j = list(idx)
            j[axis] += d
            if 0 <= j[axis] < n:
                resolution = max(resolution, abs(best - float(grid[tuple(j)])))
    solved = 1.0 - bcd_solve(p, variant="mm2").p_outage
    elapsed = time.perf_counter() - t0
    ok = solved >= best - 1e-9 and abs(solved - best) <= resolution and elapsed < 600.0
    _report(7, "solver matches exhaustive 200^3 search", ok,
            f"grid best {best:.6f}, solver {solved:.6f}, "
            f"|diff| {abs(solved - best):.1e} <= resolution {resolution:.1e}, {elapsed:.1f}s")
    assert ok, f"solver {solved}, grid {best}, resolution {resolution}, elapsed {elapsed}"


def test_criterion_08_quality_trends():
    prev = None
    outages = []
    for m in (1, 2, 3, 4):
        p = reference_params(m, task_mbits=10.0)
        init = None if prev is None else experiments._extend_allocation(prev, m)
        res = experiments._best_solve(p, "mm2", init)
        prev = res.allocation
        outages.append(res.p_outage)
    monotone = all(b <= a + 1e-12 for a, b in zip(outages, outages[1:]))

    dominated = True
    worst_excess = -math.inf
    for task in (5.0, 10.0, 15.0, 20.0, 25.0, 30.0):
        p = reference_params(2, task_mbits=task)
        res = bcd_solve(p, variant="mm2")
        full = baseline_full_offload(p, variant="mm2")
        worst_excess = max(worst_excess, res.p_outage - full.p_outage)
        dominated = dominated and res.p_outage <= full.p_outage + 1e-12
    ok = monotone and dominated
    _report(8, "outage falls with servers; joint split beats pure offload", ok,
            f"outage by server count {['%.2e' % o for o in outages]}, "
            f"max (joint - offload) outage gap {worst_excess:.1e}")
    assert ok, f"monotone {monotone}, dominated {dominated}"


def test_criterion_09_trained_policy_beats_baselines():
    t0 = time.perf_counter()
    mp = dataclasses.replace(default_multiuser(2, 1), task_range_bits=(1e6, 5e6))
    grid = enumerate_actions(mp, granularity=0.5)
    cfg = TrainConfig(episodes=300, steps_per_episode=25, batch_size=64,
                      epsilon_decay=0.98, tau=0.01, seed=11)
    theta, _ = train(MultiUserEnv(mp), grid, cfg)

    greedy = evaluate_policy(MultiUserEnv(mp), greedy_policy(theta, grid, mp),
                             200, 25, seed=999)
    rand = evaluate_policy(MultiUserEnv(mp), random_policy(grid, seed=7),
                           200, 25, seed=999)
    se = math.hypot(greedy.se_reward, rand.se_reward)
    reward_margin = (greedy.mean_reward - rand.mean_reward) / se

    sched = {
        kind: float(np.mean(schedulers(kind, mp, episodes=200, seed=999,
                                       steps_per_episode=25)))
        for kind in SCHEDULER_KINDS
    }
    best_kind, best_rate = max(sched.items(), key=lambda kv: kv[1])
    elapsed = time.perf_counter() - t0
    ok = (reward_margin > 3.0
          and all(greedy.mean_success > r for r in sched.values())
          and elapsed < 900.0)
    _report(9, "trained policy beats random and every scheduler", ok,
            f"reward margin {reward_margin:.1f} se, success {greedy.mean_success:.3f} "
            f"vs best scheduler {best_kind} {best_rate:.3f}, {elapsed:.0f}s")
    assert ok, f"margin {reward_margin}, success {greedy.mean_success}, schedulers {sched}"


def test_criterion_10_learning_machinery():
    # analytic gradients against central differences on a frozen-target loss
    n_inputs, n_actions, b = 4, 5, 6
    theta = init_network(n_inputs, n_actions, seed=11)
    target = init_network(n_inputs, n_actions, seed=12)
    batch = _random_batch(theta, n_inputs, b, seed=13)
    cfg = TrainConfig(learning_rate=1.0, discount=0.9)
    q_next = q_forward(theta, batch.next_states)
    boot = q_forward(target, batch.next_states)[np.arange(b), np.argmax(q_next, axis=1)]
    targets = batch.rewards + cfg.discount * boot * (~batch.terminals)

    def loss_at(flat):
        t = theta.copy()
        pos = 0
        for w, bias in zip(t.weights, t.biases):
            for arr in (w, bias):
                arr[...] = flat[pos: pos + arr.size].reshape(arr.shape)
                pos += arr.size
        pred = q_forward(t, batch.states)[np.arange(b), batch.actions]
        return float(np.mean(batch.weights * (pred - targets) ** 2))

    updated = theta.copy()
    train_step(updated, target, batch, cfg)
    grad = theta.flat() - updated.flat()
    base = theta.flat()
    coords = np.random.default_rng(21).choice(base.size, size=250, replace=False)
    h = 1e-6
    worst_grad = 0.0
    for c in coords:
        step = np.zeros_like(base)
        step[c] = h
        fd = (loss_at(base + step) - loss_at(base - step)) / (2.0 * h)
        worst_grad = max(worst_grad, abs(fd - grad[c]) / max(abs(fd), abs(grad[c]), 1e-8))

    # fixed-seed training is bit-reproducible
    mp = default_multiuser(2, 1)
    grid = enumerate_actions(mp, granularity=0.5)
    small = TrainConfig(episodes=5, steps_per_episode=10, batch_size=16,
                        buffer_capacity=500, seed=3)
    th1, curve1 = train(MultiUserEnv(mp), grid, small)
    th2, curve2 = train(MultiUserEnv(mp), grid, small)
    reproducible = curve1 == curve2 and bool(np.all(th1.flat() == th2.flat()))

    # soft updates follow the exact geometric blend
    online = init_network(3, 4, seed=5)
    lagged = init_network(3, 4, seed=6)
    start_gap = lagged.flat() - online.flat()
    tau = 0.25
    blended = lagged.copy()
    updates_exact = True
    for k in range(1, 6):
        soft_update(blended, online, tau)
        expect = online.flat() + (1.0 - tau) ** k * start_gap
        updates_exact = updates_exact and bool(
            np.max(np.abs(blended.flat() - expect)) <= 1e-12 * np.max(np.abs(expect))
        )
    full, none = lagged.copy(), lagged.copy()
    soft_update(full, online, 1.0)
    soft_update(none, online, 0.0)
    updates_exact = updates_exact and bool(np.all(full.flat() == online.flat())) and bool(
        np.all(none.flat() == lagged.flat()))

    # a fully greedy selector must not consume randomness
    r1, r2 = np.random.default_rng(0), np.random.default_rng(0)
    state = np.zeros(3)
    select_action(online, state, 0.0, r1)
    greedy_deterministic = r1.random() == r2.random()

    ok = worst_grad <= 1e-5 and reproducible and updates_exact and greedy_deterministic
    _report(10, "gradients, reproducibility, update rules", ok,
            f"max grad rel err {worst_grad:.2e}, bit-identical retrain {reproducible}, "
            f"exact soft updates {updates_exact}, greedy uses no rng {greedy_deterministic}")
    assert ok, f"grad {worst_grad}, repro {reproducible}, updates {updates_exact}"


def test_criterion_11_inference_latency_advantage():
    cells = [reference_params(m, task_mbits=10.0) for m in (1, 2, 3)]
    rows = latency_benchmark(cells, repetitions=5, seed=0)
    medians = {(r.method, r.n_servers): r.median_s for r in rows}
    ratios = {
        m: medians[("bcd_mm1", m)] / medians[("dqn_inference", m)] for m in (1, 2, 3)
    }
    ok = all(medians[("dqn_inference", m)] < medians[("bcd_mm1", m)] for m in (1, 2, 3))
    _report(11, "policy inference beats iterative solver latency", ok,
            "speedup by server count "
            + ", ".join(f"M={m}: {ratios[m]:.0f}x" for m in (1, 2, 3)))
    assert ok, f"medians {medians}"


def test_criterion_12_fairness_arithmetic():
    idx = jain_index([1.0, 2.0, 3.0])
    expected = 6.0 / 7.0
    mp = default_multiuser(3, 1)
    rr = jain_index(scheduler_nominal_rates("round_robin", mp))
    ok = abs(idx - expected) <= 1e-12 and rr == 1.0
    _report(12, "fairness index arithmetic", ok,
            f"(1,2,3) -> {idx:.12f} (expect {expected:.12f}), "
            f"symmetric rotation -> {rr}")
    assert ok, f"idx {idx}, round robin {rr}"
