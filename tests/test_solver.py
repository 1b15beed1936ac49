import inspect
import math
import warnings

import numpy as np
import pytest

import oracles
from oracles import waterfill_bisection

from airalloc import solver
from airalloc.model import (
    FeasibilityError,
    assert_feasible,
    default_allocation,
    local_budget_rho,
    log_factors,
    reference_params,
    success_breakdown,
)
from airalloc.solver import (
    VARIANTS,
    BcdResult,
    WaterfillBracketError,
    bcd_solve,
    ln_success,
    solve_p1,
    solve_p2,
    solve_p3_pg,
    solve_p32b,
    split_residual,
    waterfill_mu,
)
from airalloc.surrogates import SurrogateCoeffs, surrogate_computation, surrogate_transmission


def test_ln_success_matches_breakdown():
    p = reference_params(2)
    alloc = default_allocation(p)
    got = ln_success(p, alloc.phi, alloc.t_shares, alloc.power_w, alloc.rho)
    assert got == pytest.approx(success_breakdown(p, alloc).ln_p_success, rel=1e-12)


# ---------------------------------------------------------------------------
# Block 1: power and local cycle budget.
# ---------------------------------------------------------------------------


def test_p1_beats_dense_power_scan():
    p = reference_params(2, task_mbits=10.0)
    phi = np.array([0.1, 0.5, 0.4])
    t = np.array([0.2, 0.25])
    power, rho = solve_p1(p, phi, t)
    assert 0.0 < power <= p.p_max_w
    best = ln_success(p, phi, t, power, rho)

    e_coef = p.switched_capacitance * p.local_speed_hz ** 2
    for pw in np.linspace(1e-3, p.p_max_w, 2000):
        r = min(
            p.local_speed_hz * p.latency_budget_s,
            (p.energy_budget_j - pw * float(t.sum())) / e_coef,
        )
        if r < 0.0:
            continue
        assert ln_success(p, phi, t, float(pw), r) <= best + 1e-9


def test_p1_interior_power_is_stationary():
    # Here the optimal power lies strictly inside (0, p_max), where the
    # energy-capped local cycle budget trades against the link: the slope
    # of ln P_success along (power, rho(power)) must vanish at the root.
    p = reference_params(2)
    phi = np.array([0.1, 0.5, 0.4])
    t = np.array([0.2, 0.25])
    power, rho = solve_p1(p, phi, t)
    assert 0.0 < power < p.p_max_w
    assert power == pytest.approx(0.08869, rel=1e-4)
    assert rho == local_budget_rho(p, t, power)

    def along(pw: float) -> float:
        return ln_success(p, phi, t, pw, local_budget_rho(p, t, pw))

    h = 1e-6 * power
    assert abs(along(power + h) - along(power - h)) / (2.0 * h) <= 1e-7


def test_p1_full_power_when_no_local_share():
    p = reference_params(1)
    power, rho = solve_p1(p, np.array([0.0, 1.0]), np.array([0.4]))
    # With no local work, transmit energy is unconstrained by the CPU's needs
    # and more SNR only ever helps.
    assert power == p.p_max_w
    assert rho >= 0.0


def test_p1_zero_airtime_short_circuits():
    p = reference_params(1)
    power, rho = solve_p1(p, np.array([1.0, 0.0]), np.array([0.0]))
    assert power == p.p_max_w
    e_coef = p.switched_capacitance * p.local_speed_hz ** 2
    assert rho == pytest.approx(
        min(p.local_speed_hz * p.latency_budget_s, p.energy_budget_j / e_coef)
    )


# ---------------------------------------------------------------------------
# Block 2: airtime.
# ---------------------------------------------------------------------------


def test_p2_improves_and_stays_feasible():
    p = reference_params(3, task_mbits=12.0)
    phi = np.array([0.1, 0.3, 0.3, 0.3])
    t0 = np.array([0.15, 0.15, 0.15])
    power, rho = solve_p1(p, phi, t0)
    t1, _ = solve_p2(p, phi, t0, power, rho)
    assert ln_success(p, phi, t1, power, rho) >= ln_success(p, phi, t0, power, rho) - 1e-12
    assert float(t1.sum()) <= p.latency_budget_s
    assert float(t1.sum()) * power + rho * p.switched_capacitance * p.local_speed_hz ** 2 \
        <= p.energy_budget_j * (1.0 + 1e-9)
    assert np.all(t1 > 0.0)


def test_p2_single_server_matches_dense_scan():
    p = reference_params(1, task_mbits=10.0)
    phi = np.array([0.05, 0.95])
    power = 1.0
    rho = 2e8
    t1, _ = solve_p2(p, phi, np.array([0.5]), power, rho)
    vals = []
    cap = (p.energy_budget_j - rho * p.switched_capacitance * p.local_speed_hz ** 2) / power
    for tt in np.linspace(1e-4, min(cap, p.latency_budget_s) - 1e-4, 4000):
        vals.append((ln_success(p, phi, np.array([tt]), power, rho), tt))
    best_val, best_t = max(vals)
    assert ln_success(p, phi, t1, power, rho) >= best_val - 1e-6
    assert abs(float(t1[0]) - best_t) <= 2e-3


def test_p2_never_grows_idle_airtime():
    p = reference_params(2)
    phi = np.array([0.5, 0.5, 0.0])
    t, _ = solve_p2(p, phi, np.array([0.2, 0.2]), 1.0, 1e8)
    # Server 2 has no share, so nothing should push more airtime onto it.
    assert t[1] <= 0.2 + 1e-9


def test_p2_rejects_impossible_budget():
    p = reference_params(1)
    # rho so large the committed local energy exceeds the battery.
    with pytest.raises(FeasibilityError):
        solve_p2(p, np.array([0.5, 0.5]), np.array([0.4]), 1.0, 1.1e9)


# ---------------------------------------------------------------------------
# Block 3 inner pieces: closed-form candidates and the share waterfill.
# ---------------------------------------------------------------------------


def _scan_max(objective, lo, hi, n=20_000):
    xs = np.linspace(lo, hi, n)
    vals = [objective(float(x)) for x in xs]
    i = int(np.argmax(vals))
    return vals[i], float(xs[i])


def test_p32a_matches_dense_scan():
    comp = SurrogateCoeffs(c2=-2.0, c1=1.6, c0=0.1)
    lo, hi = 0.05, 0.9
    for mu in (0.0, 0.7, 5.0, -3.0):
        phi = solve_p32b(None, comp, mu, lo, hi)
        assert lo <= phi <= hi

        def obj(v):
            q = comp.value(v)
            return (math.log(q) if q > 0 else -math.inf) + mu * v

        ref, _ = _scan_max(obj, lo, hi)
        assert obj(phi) >= ref - 1e-8


def test_p32b_without_link_is_the_local_closed_form(rng):
    # With q_tx = 1 the quartic's coefficients reduce exactly to the
    # quadratic of the local-share closed form, so the shares are bit-equal.
    for k in range(2000):
        comp = SurrogateCoeffs(
            c2=-float(rng.exponential(5.0)) - 1e-3,
            c1=float(rng.normal(0.0, 3.0)),
            c0=float(rng.normal(0.5, 1.0)),
        )
        lo = float(rng.uniform(1e-6, 0.6))
        hi = float(rng.uniform(lo + 1e-9, 1.0))
        mu = 0.0 if k % 4 == 0 else float(rng.normal(0.0, 1.0) * 10.0 ** rng.uniform(-3, 3))
        assert solve_p32b(None, comp, mu, lo, hi) == oracles.solve_p32a(comp, mu, lo, hi)


def test_p32b_matches_dense_scan():
    p = reference_params(1, task_mbits=10.0)
    tx = surrogate_transmission(p, 1, 0.6, 0.4, 1.0)
    comp = surrogate_computation(p, 1, 0.6, 0.5)
    lo, hi = 0.05, 0.99
    for mu in (0.0, 2.5, -4.0):
        phi = solve_p32b(tx, comp, mu, lo, hi)

        def obj(v):
            a, b = tx.value(v), comp.value(v)
            if a <= 0 or b <= 0:
                return -math.inf
            return math.log(a) + math.log(b) + mu * v

        ref, _ = _scan_max(obj, lo, hi)
        assert obj(phi) >= ref - 1e-8


def test_waterfill_affine_toy():
    # Three "solvers" whose maximizers move linearly with mu, clipped to
    # per-index intervals: total share is monotone, so the multiplier that
    # spends the unit budget is unique and easy to verify.
    intervals = [(0.0, 0.6), (0.0, 0.5), (0.0, 0.4)]
    slopes = (0.10, 0.05, 0.02)

    def make(slope, iv):
        return lambda mu: min(max(slope * mu, iv[0]), iv[1])

    solvers = [make(s, iv) for s, iv in zip(slopes, intervals)]
    # No guess, and guesses far below, near and far above the root (~7.3).
    for mu_start in (None, 1e-9, 7.0, 1e9):
        mu, phi = waterfill_mu(solvers, intervals, mu_start=mu_start)
        assert phi.sum() == pytest.approx(1.0, abs=1e-12)
        assert mu > 0.0
        for v, iv in zip(phi, intervals):
            assert iv[0] - 1e-12 <= v <= iv[1] + 1e-12
        # Against the closed form: shares s_i*mu until a cap binds.
        direct = np.array([min(s * mu, iv[1]) for s, iv in zip(slopes, intervals)])
        assert np.allclose(phi, direct, atol=1e-6)


def test_waterfill_rejects_overspent_start():
    intervals = [(0.6, 0.9), (0.6, 0.9)]
    solvers = [lambda mu: 0.6, lambda mu: 0.6]
    with pytest.raises(WaterfillBracketError):
        waterfill_mu(solvers, intervals)


def _counting(fn, calls: list):
    def counted(mu):
        calls.append(mu)
        return fn(mu)

    return counted


def test_waterfill_patches_to_exact_budget():
    intervals = [(0.0, 1.0), (0.0, 1.0)]
    # Stuck solvers never reach the budget at any multiplier.
    tried: list[float] = []
    solvers = [_counting(lambda mu: 0.3, tried), lambda mu: 0.3]
    _, phi = waterfill_mu(solvers, intervals)
    assert phi.sum() == pytest.approx(1.0, abs=1e-12)
    assert max(tried) == 1e18  # the search gave up at its multiplier cap
    _, _, oracle_evals = waterfill_bisection([lambda mu: 0.3, lambda mu: 0.3])
    assert oracle_evals == 101
    assert len(tried) <= oracle_evals


def test_waterfill_step_function_stops_at_best_residual():
    # The share total jumps over the budget at mu = 3.7, so no multiplier
    # spends it within tol: the search must still stop within max_iter
    # interpolation steps and return the closest total it saw, which lies
    # just below the jump.
    def share(mu):
        return 0.4 + 0.05 * mu / (1.0 + mu) if mu < 3.7 else 0.65

    intervals = [(0.0, 1.0), (0.0, 1.0)]
    for mu_start in (None, 3.0, 50.0):
        tried: list[float] = []
        solvers = [_counting(share, tried), share]
        mu, phi = waterfill_mu(solvers, intervals, max_iter=40, mu_start=mu_start)
        # At most 1 + 8 bracket probes (ratios square from 1.1), then max_iter steps.
        assert len(tried) <= 1 + 8 + 40
        assert mu == max(m for m in tried if m < 3.7)
        assert phi.sum() == pytest.approx(1.0, abs=1e-12)
        assert 3.7 - mu < 1e-6


# Cells of the benchmark's solve workloads on which the search is checked.
WATERFILL_CELLS = [(1, 10.0), (2, 10.0), (3, 10.0), (4, 10.0), (2, 25.0)]


@pytest.fixture(scope="module")
def recorded_waterfills():
    """Per (cell, variant): the BcdTrace of a three-round solve and every
    water-filling call it made, as (solvers, intervals, mu_start, mu)."""
    out = {}
    real = solver.waterfill_mu
    for cell in WATERFILL_CELLS:
        for variant in ("mm2", "mm1"):
            calls = []

            def recording(solvers, intervals, calls=calls, **kw):
                mu, phi = real(solvers, intervals, **kw)
                calls.append((solvers, intervals, kw.get("mu_start"), mu))
                return mu, phi

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(solver, "waterfill_mu", recording)
                p = reference_params(cell[0], task_mbits=cell[1])
                res = bcd_solve(p, variant=variant, max_outer=3)
            out[cell, variant] = (res.trace, calls)
    return out


@pytest.mark.parametrize("variant", ["mm2", "mm1"])
def test_waterfill_matches_bisection_on_solver_sets(recorded_waterfills, variant):
    # Both searches stop once the share total is within tol = 1e-8 of the
    # budget, so their multipliers may differ by about 2e-8 / S'(mu): up to
    # 6e-6 relative on these cells, where S is flattest (M = 4, mu ~ 2e-3).
    for cell in WATERFILL_CELLS:
        _, calls = recorded_waterfills[cell, variant]
        assert calls
        # About ten calls per cell, spread over the solve.
        for solvers, intervals, mu_start, mu_used in calls[:: 1 + len(calls) // 10]:
            mu_ref, total_ref, _ = waterfill_bisection(solvers)
            assert abs(total_ref - 1.0) <= 1e-8
            for start in (mu_start, None):
                mu, phi = waterfill_mu(solvers, intervals, mu_start=start)
                if start is mu_start:
                    assert mu == mu_used
                assert abs(sum(s(mu) for s in solvers) - 1.0) <= 1e-8
                assert mu == pytest.approx(mu_ref, rel=1e-4)
                assert phi.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("variant", ["mm2", "mm1"])
def test_waterfill_evaluation_budget(recorded_waterfills, variant):
    # Doubling plus bisection spent 25-30 multipliers per split iteration on
    # these cells; the warm-started false position spends 4-7 on average
    # and at most 14.
    for cell in WATERFILL_CELLS:
        trace, calls = recorded_waterfills[cell, variant]
        assert trace.total_pathologies == 0
        assert trace.total_mu_evals <= 8 * trace.total_inner
        for solvers, intervals, mu_start, _ in calls:
            tried: list[float] = []
            counted = [_counting(solvers[0], tried), *solvers[1:]]
            waterfill_mu(counted, intervals, mu_start=mu_start)
            assert len(tried) <= 16


@pytest.mark.parametrize("variant", ["mm2", "mm1"])
@pytest.mark.parametrize(
    "t_shares, rho",
    [
        ((0.3, 0.4), 0.0),  # no local cycle budget for the local share
        ((0.3, 0.0), 1e8),  # server 2 has no airtime
        ((0.6, 0.5), 1e8),  # server 2 has no latency slack left
    ],
)
def test_split_update_keeps_start_on_degenerate_index(variant, t_shares, rho):
    p = reference_params(2, task_mbits=10.0)
    phi_start = np.array([0.3, 0.6, 0.3])
    update = getattr(solver, f"solve_p3_{variant}")
    phi, trace = update(p, phi_start, np.array(t_shares), 1.0, rho)
    assert np.array_equal(phi, phi_start / phi_start.sum())
    assert (trace.pathologies, trace.iterations) == (1, 0)
    assert (trace.search_evals, trace.mu_evals) == (0, 0)
    assert len(trace.ln_values) == 1


# ---------------------------------------------------------------------------
# The full coordinate loop.
# ---------------------------------------------------------------------------


def test_bcd_result_contract():
    p = reference_params(2, task_mbits=10.0)
    res = bcd_solve(p, variant="mm2")
    assert isinstance(res, BcdResult)
    assert_feasible(p, res.allocation)
    assert res.p_outage == pytest.approx(1.0 - math.exp(res.ln_p_success), rel=1e-12)
    assert res.trace.n_outer <= 100
    assert len(res.trace.allocations) == res.trace.n_outer + 1
    assert len(res.trace.inner_iterations) == res.trace.n_outer
    assert res.trace.variant == "mm2"


@pytest.mark.parametrize("variant", ["mm2", "mm1", "pg"])
def test_bcd_trace_is_monotone(variant):
    p = reference_params(2, task_mbits=10.0)
    res = bcd_solve(p, variant=variant)
    vals = res.trace.ln_p_success
    assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
    assert vals[-1] > vals[0]


def test_bcd_variants_agree_on_reference_cell():
    p = reference_params(2, task_mbits=10.0)
    a = bcd_solve(p, variant="mm2")
    b = bcd_solve(p, variant="mm1")
    assert a.trace.n_outer <= 10
    assert b.trace.n_outer <= 10
    assert abs(a.ln_p_success - b.ln_p_success) <= 1e-3


def test_bcd_monotone_over_random_instances():
    rng = np.random.default_rng(77)
    for _ in range(12):
        m = int(rng.integers(1, 4))
        p = reference_params(
            m,
            task_mbits=float(rng.uniform(5.0, 20.0)),
            latency_s=float(rng.uniform(0.8, 1.2)),
            energy_j=float(rng.uniform(0.8, 1.2)),
        )
        res = bcd_solve(p, variant="mm2")
        vals = res.trace.ln_p_success
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
        assert_feasible(p, res.allocation)


def test_bcd_offload_only_keeps_local_share_zero():
    p = reference_params(2, task_mbits=10.0)
    res = bcd_solve(p, variant="mm2", offload_only=True)
    assert res.allocation.phi[0] == 0.0
    assert sum(res.allocation.phi) == pytest.approx(1.0)
    # Splitting with the local CPU can only help (it embeds the full-offload
    # feasible set), so the joint solve must not do worse.
    joint = bcd_solve(p, variant="mm2")
    assert joint.ln_p_success >= res.ln_p_success - 1e-6


def test_bcd_search_work_favors_closed_forms():
    wins = 0
    cells = [(1, 10.0), (2, 10.0), (2, 15.0), (3, 10.0)]
    for m, l in cells:
        p = reference_params(m, task_mbits=l)
        ev2 = bcd_solve(p, variant="mm2").trace.total_search_evals
        ev1 = bcd_solve(p, variant="mm1").trace.total_search_evals
        wins += ev2 <= ev1
    assert wins >= 0.8 * len(cells)


def test_bcd_rejects_unknown_variant_and_bad_init():
    p = reference_params(1)
    with pytest.raises(ValueError):
        bcd_solve(p, variant="newton")
    mixed = default_allocation(p)  # has a local share
    with pytest.raises(FeasibilityError):
        bcd_solve(p, init=mixed, offload_only=True)
    over_power = type(mixed)(mixed.phi, mixed.t_shares, 2.0, mixed.rho)
    with pytest.raises(FeasibilityError):
        bcd_solve(p, init=over_power)


@pytest.mark.parametrize("energy_j", [0.1, 0.3])
@pytest.mark.parametrize("variant", ["mm2", "mm1", "pg"])
def test_bcd_starts_inside_a_tight_energy_budget(energy_j, variant):
    # Transmitting at the cap for half the latency budget costs 0.5 J, more
    # than these budgets allow; the default start must still be feasible.
    p = reference_params(energy_j=energy_j)
    res = bcd_solve(p, variant=variant, max_outer=3)
    assert_feasible(p, res.allocation)
    assert math.isfinite(res.ln_p_success)


@pytest.mark.parametrize(
    "overrides", [{"energy_j": 0.1}, {"latency_s": 0.05}, {"task_mbits": 60.0}]
)
def test_mm2_reaches_pg_in_deep_outage(overrides):
    # A success factor far in its tail used to freeze mm2's split (e.g. at
    # -20.96 instead of -0.0207 for a 0.1 J budget) or cap every inner loop.
    p = reference_params(2, **overrides)
    mm2 = bcd_solve(p, variant="mm2")
    pg = bcd_solve(p, variant="pg")
    assert mm2.ln_p_success >= pg.ln_p_success - 1e-6
    assert mm2.trace.converged and max(mm2.trace.inner_iterations) < 100
    assert mm2.trace.split_residual < 1e-2


def test_mm2_converges_at_a_tight_energy_budget():
    res = bcd_solve(reference_params(2, energy_j=0.3), variant="mm2")
    assert res.trace.converged and res.trace.n_outer < 100


def test_mm2_tracks_mm1_over_random_cells():
    rng = np.random.default_rng(0)
    for _ in range(12):
        p = reference_params(
            int(rng.integers(1, 5)),
            task_mbits=float(rng.uniform(5.0, 100.0)),
            energy_j=float(rng.uniform(0.1, 2.0)),
            latency_s=float(rng.uniform(0.05, 2.0)),
        )
        mm2 = bcd_solve(p, variant="mm2")
        mm1 = bcd_solve(p, variant="mm1")
        assert mm2.ln_p_success >= mm1.ln_p_success - 1e-4, p


def test_split_residual_is_the_pg_stopping_norm():
    p = reference_params(2, task_mbits=10.0)
    for offload_only in (False, True):
        a = default_allocation(p, offload_only=offload_only)
        start = split_residual(p, a.phi, a.t_shares, a.power_w, a.rho, offload_only=offload_only)
        assert start > 0.1
        phi, trace = solve_p3_pg(p, a.phi, a.t_shares, a.power_w, a.rho,
                                 offload_only=offload_only, max_iter=2000)
        assert trace.iterations < 2000
        end = split_residual(p, phi, a.t_shares, a.power_w, a.rho, offload_only=offload_only)
        assert end <= 1e-6
    # Pinning the local share at 0 is stationary only for the offload-only
    # projection: moving work back to the local CPU pays.
    assert split_residual(p, phi, a.t_shares, a.power_w, a.rho) > 0.1
    res = bcd_solve(p, variant="pg")
    final = res.allocation
    assert res.trace.split_residual == split_residual(
        p, final.phi, final.t_shares, final.power_w, final.rho
    )


@pytest.mark.parametrize("variant", ["mm2", "mm1", "pg"])
def test_bcd_deterministic(variant):
    p = reference_params(2, task_mbits=15.0)
    a = bcd_solve(p, variant=variant)
    b = bcd_solve(p, variant=variant)
    assert a.ln_p_success == b.ln_p_success
    assert a.allocation == b.allocation
    for field in ("inner_iterations", "inner_search_evals", "inner_mu_evals", "inner_pathologies",
                  "p2_evals"):
        assert getattr(a.trace, field) == getattr(b.trace, field)


def test_trace_objective_matches_stored_allocations():
    # The recorded trajectory must be the objective of the recorded points.
    # Four servers used to expose a drift where the extrapolation search let
    # the share total leak off the simplex, so the trace reported values no
    # feasible split achieves.
    p = reference_params(4, task_mbits=10.0)
    res = bcd_solve(p, variant="mm2")
    for ln, alloc in zip(res.trace.ln_p_success, res.trace.allocations):
        direct = ln_success(p, alloc.phi, alloc.t_shares, alloc.power_w, alloc.rho)
        assert ln == pytest.approx(direct, abs=1e-9)
        assert sum(alloc.phi) == pytest.approx(1.0, abs=1e-9)
    assert res.p_outage == pytest.approx(1.0 - math.exp(res.ln_p_success), abs=1e-12)


def _seed1_cells(*indices):
    """Cells of the random draw of test_mm2_tracks_mm1_over_random_cells,
    made with default_rng(1) instead of 0, by index."""
    rng = np.random.default_rng(1)
    out = {}
    for i in range(max(indices) + 1):
        p = reference_params(
            int(rng.integers(1, 5)),
            task_mbits=float(rng.uniform(5.0, 100.0)),
            energy_j=float(rng.uniform(0.1, 2.0)),
            latency_s=float(rng.uniform(0.05, 2.0)),
        )
        if i in indices:
            out[i] = p
    return out


def test_hopeless_link_keeps_derivatives_finite():
    # M = 3, L = 65.7 Mbit, E = 1.63 J, latency 1.93 s: the solvers' trial
    # points drive an airtime toward 0, where the link's d_phi and d_t would
    # overflow.
    p = _seed1_cells(19)[19]
    assert p.n_servers == 3 and round(p.task_bits / 1e6, 1) == 65.7
    # The solvers' power is a numpy scalar, whose overflow warns.
    snr = [np.float64(0.9) * g / p.noise_w for g in p.mean_gains]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # Server 1's link: x ln2 = 6e5, far past the hopeless threshold 700.
        f = log_factors(p.task_bits, p.bandwidth_hz, p.workload, p.latency_budget_s,
                        p.server_speeds_hz, (0.0,) * 3, snr, [0.1, 0.5, 0.2, 0.2],
                        [1e-9, 0.3, 0.3], 1e8, second_order=True)
        assert f.link[0] == -math.inf and f.total == -math.inf
        assert all(math.isfinite(v) for v in f.d_phi + f.d_t + f.h_phi)
        assert np.all(np.isfinite(f.h_t))
        for variant in VARIANTS:
            res = bcd_solve(p, variant=variant)
            assert math.isfinite(res.ln_p_success) and res.trace.converged, variant


# Cells of the evaluation budgets: the benchmark's, the three hard cells and
# three seeded random cells (11 ends with a server without airtime).
_SOLVE_REF = [(m, 10.0) for m in (1, 2, 3, 4)]
_BUDGET_CELLS = (
    [(f"M{m} L{l:g}", reference_params(m, task_mbits=l))
     for m, l in _SOLVE_REF + [(2, 20.0), (2, 25.0)]]
    + [(f"hard {k}={v}", reference_params(2, **{k: v}))
       for k, v in (("energy_j", 0.1), ("latency_s", 0.05), ("task_mbits", 60.0))]
    + [(f"seed1 cell {i}", p) for i, p in _seed1_cells(11, 17, 19).items()]
)


@pytest.fixture(scope="module")
def budget_solves():
    return {(name, v): bcd_solve(p, variant=v) for name, p in _BUDGET_CELLS for v in VARIANTS}


def test_p2_never_reaches_its_step_cap(budget_solves):
    for key, res in budget_solves.items():
        assert len(res.trace.p2_evals) == res.trace.n_outer
        assert max(res.trace.p2_evals) < solver._P2_MAX_ITER, key
        assert res.trace.total_p2_evals == sum(res.trace.p2_evals)


def test_p2_evaluations_per_call_on_reference_cells(budget_solves):
    evals = [n for (name, _), res in budget_solves.items()
             if name in {f"M{m} L10" for m, _ in _SOLVE_REF} for n in res.trace.p2_evals]
    assert len(evals) >= 3 * 4 * 6
    assert sum(evals) / len(evals) <= 15.0


def test_pg_split_stays_below_its_step_cap(budget_solves):
    cap = inspect.signature(solve_p3_pg).parameters["max_iter"].default
    assert cap == 500
    for (name, v), res in budget_solves.items():
        if v == "pg":
            assert max(res.trace.inner_iterations) < cap, name


def test_pg_tracks_mm1_on_a_four_server_cell(budget_solves):
    # M = 4, L = 10.9 Mbit, E = 1.32 J, latency 1.71 s.
    pg = budget_solves["seed1 cell 11", "pg"].ln_p_success
    mm1 = budget_solves["seed1 cell 11", "mm1"].ln_p_success
    assert abs(pg - mm1) <= 1e-4
