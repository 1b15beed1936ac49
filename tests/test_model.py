import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from airalloc.model import (
    _total,
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
    log_factors,
    monte_carlo_outage,
    reference_params,
    share_scales,
    success_breakdown,
    transmission_success,
)
from airalloc.solver import ln_success
from airalloc.special import chi, ln_chi, ln_lower_gamma, regularized_lower_gamma
from oracles import compensated_sum, random_cells, random_feasible_allocation


def test_reference_params_layout():
    p = reference_params(n_servers=3, task_mbits=10.0)
    assert p.n_servers == 3
    assert p.task_bits == pytest.approx(10e6)
    assert p.server_speeds_hz == (5e9, 5e9, 5e9)
    assert p.local_speed_hz == pytest.approx(1e9)
    assert p.mean_gains == pytest.approx((10e-7, 9e-7, 8e-7))
    assert p.workload.mean == pytest.approx(500.0)
    assert p.p_max_w == 1.0 and p.latency_budget_s == 1.0 and p.energy_budget_j == 1.0


@pytest.mark.parametrize("n_servers", [0, 11, 12])
def test_reference_params_takes_one_to_ten_servers(n_servers):
    # Server m's mean gain is (11 - m) * 1e-7, which reaches 0 at m = 11.
    assert reference_params(10).mean_gains[-1] == pytest.approx(1e-7)
    with pytest.raises(ValueError, match=rf"n_servers must lie in 1-10 .*got {n_servers}$"):
        reference_params(n_servers)


def test_total_adds_left_to_right_where_the_compensated_sum_does_not():
    # _total is the package's one rule for float sums: plain additions from
    # 0.0, in order, as Python 3.11's builtin sum.  The oracle of the
    # builtin from Python 3.12 on compensates them.
    assert _total([0.1] * 10) == 0.9999999999999999
    assert compensated_sum([0.1] * 10) == 1.0
    assert _total([1e100, 1.0, -1e100]) == 0.0
    assert compensated_sum([1e100, 1.0, -1e100]) == 1.0
    # An overflow stays infinite; ints stay exact; a numpy scalar ends the
    # compensation and adds plainly from there on.
    assert compensated_sum([1e308, 1e308, -1e308]) == math.inf
    assert compensated_sum([2**70, 1, 2]) == 2**70 + 3
    assert compensated_sum([0.1] * 10 + [np.float64(0.0)]) == 1.0
    assert compensated_sum([np.float64(0.1)] + [0.1] * 9) == 0.9999999999999999
    assert compensated_sum([[1], [2]], []) == [1, 2]
    rows = np.random.default_rng(3).normal(size=(20, 7)).tolist()
    if sys.version_info >= (3, 12):
        assert [compensated_sum(r) for r in rows] == [sum(r) for r in rows]
    else:
        assert [_total(r) for r in rows] == [sum(r) for r in rows]


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


def test_assert_feasible_names_a_starved_link_and_an_unpaid_uplink():
    p = reference_params(2, energy_j=0.3)
    # Server 2 gets work but no airtime.
    with pytest.raises(FeasibilityError, match="server 2 receives work but zero airtime"):
        assert_feasible(p, Allocation((0.2, 0.4, 0.4), (0.3, 0.0), 0.5, 0.0))
    # 1 W for 0.4 s spends 0.4 J of the 0.3 J budget before any local cycle.
    with pytest.raises(FeasibilityError, match="transmit energy alone exceeds"):
        assert_feasible(p, Allocation((0.0, 0.5, 0.5), (0.2, 0.2), 1.0, 0.0))
    assert_feasible(p, Allocation((0.0, 0.5, 0.5), (0.1, 0.1), 1.0, 0.0))


def test_assert_feasible_checks_energy_in_joules():
    # Seed 0 cell 26 spends 1e-9 J per local cycle.  The whole task on
    # server 1 at full power for one ulp more than E / P_max overspends E by
    # 2.2e-16 J, inside the 1e-9 E that every energy check allows; 1e-6 E is
    # not.
    p = random_cells(0, 26)[26]
    e, rest = local_cycle_energy(p), (0.0,) * (p.n_servers - 1)
    assert e == 1e-9
    phi = (0.0, 1.0) + rest

    def alloc(t_1: float, rho: float = 0.0) -> Allocation:
        return Allocation(phi, (t_1,) + rest, p.p_max_w, rho)

    ulp_over = math.nextafter(p.energy_budget_j / p.p_max_w, math.inf)
    assert p.p_max_w * ulp_over > p.energy_budget_j
    assert_feasible(p, alloc(ulp_over))
    with pytest.raises(FeasibilityError, match="transmit energy alone exceeds"):
        assert_feasible(p, alloc(p.energy_budget_j * (1.0 + 1e-6) / p.p_max_w))
    # The local cycles pay from what the uplink leaves, in joules too.
    t_1 = 0.5 * p.energy_budget_j / p.p_max_w
    fits = (p.energy_budget_j - p.p_max_w * t_1) / e
    assert_feasible(p, alloc(t_1, fits))
    with pytest.raises(FeasibilityError, match="overspend the energy budget"):
        assert_feasible(p, alloc(t_1, fits + 1e-6 * p.energy_budget_j / e))
    # and never past what the CPU runs within the latency budget.
    rich = reference_params(1, energy_j=100.0)
    lat_cap = rich.local_speed_hz * rich.latency_budget_s
    assert_feasible(rich, Allocation((1.0, 0.0), (0.0,), 1.0, lat_cap))
    with pytest.raises(FeasibilityError, match="exceeds the latency cap"):
        assert_feasible(rich, Allocation((1.0, 0.0), (0.0,), 1.0, lat_cap * (1.0 + 1e-8)))


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


def test_local_cycle_budget_keeps_scalar_types():
    p = reference_params(2)
    assert local_cycle_energy(p) == p.switched_capacitance * p.local_speed_hz * p.local_speed_hz
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


def test_share_scales_agree_with_the_kernel():
    # The split block's factor arguments give the kernel's log factors: the
    # compute factor P(shape, psi / phi) and the link chi(c * phi, y), per
    # active share.
    rng = np.random.default_rng(17)
    checked = 0
    for n_servers in (1, 2, 3, 4):
        for task_mbits in (5.0, 20.0, 60.0):
            p = reference_params(n_servers, task_mbits=task_mbits)
            for _ in range(4):
                a = random_feasible_allocation(p, rng)
                f = allocation_log_factors(p, a.phi, a.t_shares, a.power_w, a.rho)
                scales = share_scales(p, a.t_shares, a.power_w, a.rho)
                assert len(scales) == n_servers + 1
                assert scales[0].y is scales[0].c is None
                assert ln_lower_gamma(p.workload.shape, scales[0].psi / a.phi[0])[0] == \
                    pytest.approx(f.local, rel=1e-12)
                for m, s in enumerate(scales[1:], start=1):
                    ph = a.phi[m]
                    assert ln_lower_gamma(p.workload.shape, s.psi / ph)[0] == \
                        pytest.approx(f.server[m - 1], rel=1e-12)
                    assert ln_chi(s.c * ph, s.y)[0] == pytest.approx(f.link[m - 1], rel=1e-12)
                    checked += 1
    assert checked == 3 * 4 * (1 + 2 + 3 + 4)


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
        f = allocation_log_factors(p, phi, t, power, rho, order=2)
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
            np.testing.assert_allclose(fd, np.asarray(f.h_t)[:, k], rtol=1e-5, atol=tol)
        checked += 1
    assert checked == 96 and deep >= 40


# One server of the order test: its share, airtime, SNR and the cycles other
# users claim on it.  The fixed values reach every -inf branch: a positive
# share with no airtime or no power, a link past 2**x = e**700 (1e-9 s for a
# share of 10 Mbit over 100 MHz), a server with no cycles left, and airtimes
# that pass the deadline.
_ORDER_SERVER = st.tuples(
    st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
    st.one_of(st.just(0.0), st.just(1e-9), st.just(0.6), st.floats(1e-3, 0.4)),
    st.one_of(st.just(0.0), st.floats(1.0, 1e5)),
    st.one_of(st.just(0.0), st.just(1e13), st.floats(0.0, 5e9)),
)


@settings(max_examples=300)
@given(st.lists(_ORDER_SERVER, min_size=1, max_size=4),
       st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
       st.one_of(st.just(-1.0), st.just(0.0), st.floats(1e3, 1e11)))
@example([(0.5, 0.0, 1e3, 0.0), (0.0, 0.2, 1e3, 0.0)], 0.5, 1e9)    # no airtime, zero share
@example([(0.5, 0.2, 0.0, 0.0)], 0.5, 0.0)                           # no power, rho = 0
@example([(0.5, 1e-9, 1e3, 0.0)], 0.5, -1.0)                         # hopeless link, rho < 0
@example([(0.5, 0.2, 1e3, 1e13)], 0.0, 1e9)                          # no cycles left
@example([(0.3, 0.6, 1e3, 0.0), (0.3, 0.6, 1e3, 0.0)], 0.4, 1e9)     # past the deadline
@example([(1e-5, 1e-9, 1.0, 0.0)], 0.0, -1.0)                        # derivatives overflow
def test_log_factor_values_are_the_same_at_every_order(servers, phi0, rho):
    # Order 0 skips the gamma slopes and the derivative work, yet computes
    # each factor by the same expression: local, link, server and total
    # agree bit for bit with orders 1 and 2, the -inf branches included.
    p = reference_params(len(servers))
    phi, t, snr, cross = zip(*servers)
    runs = []
    for k in (0, 1, 2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            runs.append(log_factors(p.task_bits, p.bandwidth_hz, p.workload, p.latency_budget_s,
                                    p.server_speeds_hz, cross, snr, (phi0,) + phi, t, rho, order=k))
        # A link short of the hopeless cut on a 1e-9 s airtime (x = 1000 at
        # SNR 1) has overflowing derivatives, which orders 1 and 2 report.
        assert all("derivatives overflow" in str(w.message) for w in caught)
        assert k or not caught
    values = [(f.local, f.link, f.server, f.total) for f in runs]
    assert values[0] == values[1] == values[2]
    assert runs[0].d_phi is runs[0].d_t is runs[0].h_phi is runs[0].h_t is None


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
