import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airalloc.model import (
    Allocation,
    FeasibilityError,
    SystemParams,
    allocation_log_factors,
    assert_feasible,
    computation_success,
    default_allocation,
    local_budget_rho,
    local_cycle_budget,
    local_cycle_energy,
    local_success,
    monte_carlo_outage,
    reference_params,
    success_breakdown,
    transmission_success,
)
from airalloc.solver import ln_success
from airalloc.special import chi, regularized_lower_gamma
from oracles import random_feasible_allocation


def test_reference_params_layout():
    p = reference_params(n_servers=3, task_mbits=10.0)
    assert p.n_servers == 3
    assert p.task_bits == pytest.approx(10e6)
    assert p.server_speeds_hz == (5e9, 5e9, 5e9)
    assert p.local_speed_hz == pytest.approx(1e9)
    assert p.mean_gains == pytest.approx((10e-7, 9e-7, 8e-7))
    assert p.workload.mean == pytest.approx(500.0)
    assert p.p_max_w == 1.0 and p.latency_budget_s == 1.0 and p.energy_budget_j == 1.0


def test_params_validation():
    good = reference_params(2)
    with pytest.raises(ValueError):
        SystemParams(**{**good.__dict__, "task_bits": 0.0})
    with pytest.raises(ValueError):
        SystemParams(**{**good.__dict__, "p_max_w": -1.0})
    with pytest.raises(ValueError):
        SystemParams(**{**good.__dict__, "mean_gains": (1e-7,)})  # wrong length
    with pytest.raises(ValueError):
        SystemParams(**{**good.__dict__, "noise_w": 0.0})
    with pytest.raises(ValueError):
        SystemParams(**{**good.__dict__, "server_speeds_hz": (5e9, -5e9)})


def test_allocation_validation():
    with pytest.raises(ValueError):
        Allocation(phi=(0.6, 0.6), t_shares=(0.5,), power_w=1.0, rho=0.0)
    with pytest.raises(ValueError):
        Allocation(phi=(0.5, 0.5), t_shares=(0.5, 0.5), power_w=1.0, rho=0.0)
    with pytest.raises(ValueError):
        Allocation(phi=(0.5, 0.5), t_shares=(-0.1,), power_w=1.0, rho=0.0)
    with pytest.raises(ValueError):
        Allocation(phi=(0.5, 0.5), t_shares=(0.5,), power_w=0.0, rho=0.0)
    with pytest.raises(ValueError):
        Allocation(phi=(1.0,), t_shares=(), power_w=1.0, rho=0.0)


def test_assert_feasible_catches_each_budget():
    p = reference_params(2)
    ok = default_allocation(p)
    assert_feasible(p, ok)  # no raise
    with pytest.raises(FeasibilityError):
        assert_feasible(p, Allocation(ok.phi, (0.6, 0.6), ok.power_w, ok.rho))  # latency
    with pytest.raises(FeasibilityError):
        assert_feasible(p, Allocation(ok.phi, ok.t_shares, 2.0, ok.rho))  # power cap
    # Energy: transmit bill plus local bill must fit the budget.
    big_rho = p.local_speed_hz * p.latency_budget_s
    with pytest.raises(FeasibilityError):
        assert_feasible(p, Allocation(ok.phi, (0.45, 0.45), 1.0, big_rho))


def test_transmission_success_closed_form():
    p = reference_params(2)
    got = transmission_success(p, 1, 0.4, 0.3, 0.8)
    x = p.task_bits * 0.4 / (p.bandwidth_hz * 0.3)
    y = 0.8 * p.mean_gains[0] / p.noise_w
    assert got == pytest.approx(chi(x, y), rel=1e-14)
    # Conventions at the boundary of the decision space.
    assert transmission_success(p, 1, 0.0, 0.3, 0.8) == 1.0
    assert transmission_success(p, 1, 0.4, 0.0, 0.8) == 0.0
    with pytest.raises(ValueError):
        transmission_success(p, 2, 0.4, 0.3, 0.0)  # zero power is no SNR at all
    with pytest.raises(ValueError):
        transmission_success(p, 3, 0.4, 0.3, 0.8)


def test_computation_success_closed_form():
    p = reference_params(2)
    w = p.workload
    got = computation_success(p, 1, 0.4, 0.25)
    u = p.server_speeds_hz[0] * 0.25 / (0.4 * p.task_bits * w.scale)
    assert got == pytest.approx(regularized_lower_gamma(w.shape, u), rel=1e-14)
    assert computation_success(p, 1, 0.0, 0.25) == 1.0
    assert computation_success(p, 1, 0.4, 0.0) == 0.0
    assert computation_success(p, 1, 0.4, -0.1) == 0.0


def test_local_budget_rho_min_of_two_budgets():
    p = reference_params(2)
    e_coef = p.switched_capacitance * p.local_speed_hz ** 2
    # At the 1 J reference budget the energy cap always binds.
    rho = local_budget_rho(p, (0.45, 0.45), 1.0)
    assert rho == pytest.approx((p.energy_budget_j - 0.9) / e_coef)
    # With a roomier budget the latency cap takes over.
    rich = reference_params(2, energy_j=2.0)
    assert local_budget_rho(rich, (0.1, 0.1), 0.5) == pytest.approx(
        rich.local_speed_hz * rich.latency_budget_s
    )
    # Spending the whole budget on the uplink leaves nothing local.
    assert local_budget_rho(p, (0.5, 0.6), 1.0) < 0.0


def test_local_cycle_budget_is_elementwise_and_keeps_scalar_types():
    p = reference_params(2)
    assert local_cycle_energy(p) == p.switched_capacitance * p.local_speed_hz * p.local_speed_hz
    latency = np.array([1.0, 0.5, 2.0])
    left = np.array([0.4, 2.0, -0.1])
    got = local_cycle_budget(p, latency, left)
    for k in range(3):
        assert got[k] == local_cycle_budget(p, float(latency[k]), float(left[k]))
    # Scalars follow min(): the binding cap comes back as it was computed, so a
    # Python float stays one and a numpy scalar stays one.
    assert type(local_cycle_budget(p, 1.0, 0.4)) is float
    assert type(local_cycle_budget(p, 1.0, np.float64(0.4))) is np.float64
    assert type(local_cycle_budget(p, 1.0, np.float64(5.0))) is float


def test_local_success_uses_cycle_budget():
    p = reference_params(1)
    w = p.workload
    rho = 2.5e9
    got = local_success(p, 0.3, rho)
    u = rho / (0.3 * p.task_bits * w.scale)
    assert got == pytest.approx(regularized_lower_gamma(w.shape, u), rel=1e-14)
    assert local_success(p, 0.0, rho) == 1.0
    assert local_success(p, 0.3, 0.0) == 0.0


def test_breakdown_uses_partial_airtime_sums():
    p = reference_params(2)
    alloc = Allocation(phi=(0.2, 0.5, 0.3), t_shares=(0.2, 0.3), power_w=0.9,
                       rho=local_budget_rho(p, (0.2, 0.3), 0.9))
    bd = success_breakdown(p, alloc)
    # Server 1 computes against the slack after its own upload finishes;
    # server 2 waits for both uploads on the shared uplink.
    assert bd.p_compute[0] == pytest.approx(computation_success(p, 1, 0.5, 1.0 - 0.2), rel=1e-12)
    assert bd.p_compute[1] == pytest.approx(computation_success(p, 2, 0.3, 1.0 - 0.5), rel=1e-12)
    assert bd.p_transmit[0] == pytest.approx(transmission_success(p, 1, 0.5, 0.2, 0.9), rel=1e-12)
    expected = bd.p_local * np.prod(bd.p_transmit) * np.prod(bd.p_compute)
    assert bd.p_success == pytest.approx(float(expected), rel=1e-12)


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4))
@settings(max_examples=30)
def test_breakdown_factors_are_probabilities(seed, n_servers):
    p = reference_params(n_servers)
    alloc = random_feasible_allocation(p, np.random.default_rng(seed))
    assert_feasible(p, alloc)
    bd = success_breakdown(p, alloc)
    for v in (bd.p_local, *bd.p_transmit, *bd.p_compute, bd.p_success):
        assert 0.0 <= v <= 1.0
    assert bd.p_outage == pytest.approx(1.0 - bd.p_success, abs=1e-15)


def test_monte_carlo_agrees_with_analytic(rng):
    p = reference_params(2, task_mbits=10.0)
    n = 40_000
    for _ in range(5):
        alloc = random_feasible_allocation(p, rng)
        bd = success_breakdown(p, alloc)
        mc = monte_carlo_outage(p, alloc, n_trials=n, seed=int(rng.integers(2 ** 31)))
        # Binomial three-sigma band around the analytic value (plus one-count
        # slack), so even near-hopeless allocations get a fair comparison.
        sigma = math.sqrt(max(bd.p_outage * bd.p_success, 0.0) / n)
        band = 3.0 * sigma + 1.0 / n
        assert abs(mc.p_outage - bd.p_outage) <= band, (
            f"MC {mc.p_outage:.5f} vs analytic {bd.p_outage:.5f} exceeds {band:.5f}"
        )


def test_monte_carlo_reproducible_and_validated():
    p = reference_params(1)
    alloc = default_allocation(p)
    a = monte_carlo_outage(p, alloc, n_trials=5_000, seed=7)
    b = monte_carlo_outage(p, alloc, n_trials=5_000, seed=7)
    assert a.p_outage == b.p_outage
    with pytest.raises(ValueError):
        monte_carlo_outage(p, alloc, n_trials=0)
    with pytest.raises(ValueError):
        monte_carlo_outage(p, alloc, n_trials=100, speed_jitter=1.0)


def test_speed_jitter_shifts_the_estimate():
    p = reference_params(1, task_mbits=10.0)
    # Mostly-offloaded split with real compute pressure on the server, so the
    # outcome is genuinely sensitive to the realized execution speed.
    t = (0.5,)
    alloc = Allocation(phi=(0.02, 0.98), t_shares=t, power_w=1.0,
                       rho=local_budget_rho(p, t, 1.0))
    exact = monte_carlo_outage(p, alloc, n_trials=30_000, seed=3)
    jit = monte_carlo_outage(p, alloc, n_trials=30_000, seed=3, speed_jitter=0.2)
    # Jitter must change the sampled worlds; direction is model-dependent.
    assert jit.p_outage != exact.p_outage


def test_log_factors_match_per_stage_functions(rng):
    for n_servers in (1, 2, 4):
        p = reference_params(n_servers, task_mbits=20.0)
        for _ in range(5):
            a = random_feasible_allocation(p, rng)
            f = allocation_log_factors(p, a.phi, a.t_shares, a.power_w, a.rho)
            assert math.exp(f.local) == pytest.approx(local_success(p, a.phi[0], a.rho), rel=1e-12)
            elapsed = 0.0
            for m in range(1, n_servers + 1):
                t_m = a.t_shares[m - 1]
                elapsed += t_m
                tx = transmission_success(p, m, a.phi[m], t_m, a.power_w)
                comp = computation_success(p, m, a.phi[m], p.latency_budget_s - elapsed)
                assert math.exp(f.link[m - 1]) == pytest.approx(tx, rel=1e-12)
                assert math.exp(f.server[m - 1]) == pytest.approx(comp, rel=1e-12)


def _central(fn, x: float, h: float) -> float:
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def test_log_factor_gradients_match_finite_differences():
    """d_phi and d_t against central differences of ln_success (rho fixed),
    over M = 1-4, L = 5-60 Mbit and random interior allocations."""
    rng = np.random.default_rng(7)
    checked = 0
    for n_servers in (1, 2, 3, 4):
        for task_mbits in (5.0, 20.0, 60.0):
            p = reference_params(n_servers, task_mbits=task_mbits)
            for _ in range(3):
                a = random_feasible_allocation(p, rng)
                phi, t = list(a.phi), list(a.t_shares)
                f = allocation_log_factors(p, phi, t, a.power_w, a.rho)
                if not math.isfinite(f.total):
                    continue
                for i in range(n_servers + 1):
                    def along_phi(v, i=i):
                        q = list(phi)
                        q[i] = v
                        return ln_success(p, q, t, a.power_w, a.rho)

                    fd = _central(along_phi, phi[i], 1e-6 * phi[i])
                    assert f.d_phi[i] == pytest.approx(fd, rel=1e-5, abs=1e-7 * max(1.0, abs(f.total)))
                for m in range(n_servers):
                    def along_t(v, m=m):
                        q = list(t)
                        q[m] = v
                        return ln_success(p, phi, q, a.power_w, a.rho)

                    fd = _central(along_t, t[m], 1e-6 * t[m])
                    assert f.d_t[m] == pytest.approx(fd, rel=1e-5, abs=1e-7 * max(1.0, abs(f.total)))
                checked += 1
    assert checked >= 30


def _hessian_cases(rng):
    """(p, phi, t, power, rho) over M = 1-4 and L = 5-100 Mbit: random
    interior allocations, the same with a tenth of the airtime (links deep
    in outage), and with a local cycle budget so small that P underflows."""
    for n_servers in (1, 2, 3, 4):
        for task_mbits in (5.0, 20.0, 60.0, 100.0):
            p = reference_params(n_servers, task_mbits=task_mbits)
            for _ in range(2):
                a = random_feasible_allocation(p, rng)
                phi, t = np.array(a.phi), np.array(a.t_shares)
                yield p, phi, t, a.power_w, a.rho
                yield p, phi, 0.1 * t, a.power_w, local_budget_rho(p, 0.1 * t, a.power_w)
                yield p, phi, t, a.power_w, 1e-30


def test_log_factor_hessians_match_finite_differences():
    """h_phi and h_t against central differences of d_phi and d_t: the split
    Hessian is diagonal, the airtime Hessian dense."""
    rng = np.random.default_rng(11)
    checked = deep = 0
    for p, phi, t, power, rho in _hessian_cases(rng):
        f = allocation_log_factors(p, phi, t, power, rho, second_order=True)
        first = allocation_log_factors(p, phi, t, power, rho)
        assert first.h_phi is None and first.h_t is None
        assert (first.d_phi, first.d_t) == (f.d_phi, f.d_t)
        deep += f.local == -math.inf or min(f.link) < -20.0
        n = p.n_servers
        h_split = np.diag(f.h_phi)
        tol = 1e-6 * float(np.abs(h_split).max())
        for i in range(n + 1):
            h = 1e-6 * phi[i]
            up, down = phi.copy(), phi.copy()
            up[i] += h
            down[i] -= h
            fd = (np.array(allocation_log_factors(p, up, t, power, rho).d_phi)
                  - np.array(allocation_log_factors(p, down, t, power, rho).d_phi)) / (2.0 * h)
            np.testing.assert_allclose(fd, h_split[:, i], rtol=1e-5, atol=tol)
        tol = 1e-6 * float(np.abs(f.h_t).max())
        for k in range(n):
            h = 1e-6 * t[k]
            up, down = t.copy(), t.copy()
            up[k] += h
            down[k] -= h
            fd = (np.array(allocation_log_factors(p, phi, up, power, rho).d_t)
                  - np.array(allocation_log_factors(p, phi, down, power, rho).d_t)) / (2.0 * h)
            np.testing.assert_allclose(fd, f.h_t[:, k], rtol=1e-5, atol=tol)
        checked += 1
    assert checked == 96 and deep >= 40


def test_log_factor_gradient_at_zero_share_is_one_sided():
    p = reference_params(2)
    phi, t, power = [0.6, 0.0, 0.4], [0.2, 0.3], 0.9
    rho = local_budget_rho(p, t, power)
    f = allocation_log_factors(p, phi, t, power, rho)
    assert f.link[0] == 0.0 and f.server[0] == 0.0
    # Only the link factor moves at a zero share: d ln chi / d phi = -ln2 c / y.
    c = p.task_bits / (p.bandwidth_hz * t[0])
    y = power * p.mean_gains[0] / p.noise_w
    assert f.d_phi[1] == pytest.approx(-math.log(2.0) * c / y, rel=1e-12)
    h = 1e-8
    forward = (ln_success(p, [0.6, h, 0.4], t, power, rho) - f.total) / h
    assert f.d_phi[1] == pytest.approx(forward, rel=1e-4)
    # The empty server's airtime still shortens server 2's slack.
    assert f.d_t[0] < 0.0


def test_default_allocation_variants():
    p = reference_params(3)
    full = default_allocation(p, offload_only=True)
    assert full.phi[0] == 0.0
    assert sum(full.phi) == pytest.approx(1.0)
    part = default_allocation(p)
    assert part.phi == pytest.approx((0.25,) * 4)
    assert sum(part.t_shares) == pytest.approx(0.5 * p.latency_budget_s)
    assert_feasible(p, full)
    assert_feasible(p, part)


@pytest.mark.parametrize("energy_j", [0.1, 0.3, 1.0])
def test_default_allocation_fits_the_energy_budget(energy_j):
    p = reference_params(2, energy_j=energy_j)
    start = default_allocation(p)
    assert_feasible(p, start)
    assert start.power_w == min(p.p_max_w, energy_j / p.latency_budget_s)
    # Transmitting spends at most half the budget, leaving the local CPU cycles.
    assert start.power_w * sum(start.t_shares) <= 0.5 * energy_j * (1.0 + 1e-12)
    assert start.rho > 0.0
