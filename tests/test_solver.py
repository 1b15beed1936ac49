import dataclasses
import inspect
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import pinned
from oracles import compute_arg, link_args, random_feasible_allocation, waterfill_bisection

from airalloc import solver, special
from airalloc.model import (
    _total,
    Allocation,
    FeasibilityError,
    ShareScales,
    assert_feasible,
    default_allocation,
    local_budget_rho,
    log_factors,
    optimal_rho,
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
from airalloc.special import ln_chi, ln_lower_gamma
from airalloc.surrogates import (
    PHI_FLOOR,
    SurrogateCoeffs,
    phi_interval,
    surrogate_computation,
    surrogate_transmission,
)


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
    power = solve_p1(p, phi, t)
    rho = optimal_rho(p, t, power, offload_only=False)
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
    power = solve_p1(p, phi, t)
    rho = optimal_rho(p, t, power, offload_only=False)
    assert 0.0 < power < p.p_max_w
    assert power == pytest.approx(0.08869, rel=1e-4)
    assert rho == local_budget_rho(p, t, power)

    def along(pw: float) -> float:
        return ln_success(p, phi, t, pw, local_budget_rho(p, t, pw))

    h = 1e-6 * power
    assert abs(along(power + h) - along(power - h)) / (2.0 * h) <= 1e-7


def test_p1_full_power_when_no_local_share():
    p = reference_params(1)
    power = solve_p1(p, np.array([0.0, 1.0]), np.array([0.4]))
    rho = optimal_rho(p, np.array([0.4]), power, offload_only=False)
    # With no local work, transmit energy is unconstrained by the CPU's needs
    # and more SNR only ever helps.
    assert power == p.p_max_w
    assert rho >= 0.0


def test_p1_zero_airtime_short_circuits():
    p = reference_params(1)
    power = solve_p1(p, np.array([1.0, 0.0]), np.array([0.0]))
    rho = optimal_rho(p, np.array([0.0]), power, offload_only=False)
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
    power = solve_p1(p, phi, t0)
    rho = optimal_rho(p, t0, power, offload_only=False)
    t1, _ = solve_p2(p, phi, t0, power, rho)
    assert ln_success(p, phi, t1, power, rho) >= ln_success(p, phi, t0, power, rho) - 1e-12
    assert sum(t1) <= p.latency_budget_s
    assert sum(t1) * power + rho * p.switched_capacitance * p.local_speed_hz ** 2 \
        <= p.energy_budget_j * (1.0 + 1e-9)
    assert all(v > 0.0 for v in t1)


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


# Curvatures of the float Newton direction's test, with the path each takes:
# True where the dense certificate fails and the clamp goes through eigh.
def _random_curvature(kind: str, n: int, rng) -> tuple[list, bool]:
    if kind.startswith("diag"):
        w = -rng.uniform(0.1, 3.0, n)
        if kind == "diag semidefinite":
            w[rng.integers(n)] = 0.0
        elif kind == "diag zero":
            w[:] = 0.0
        elif kind == "diag non-concave":
            w[rng.integers(n)] = rng.uniform(0.1, 3.0)
        return w.tolist(), False
    if kind == "dense zero":
        return np.zeros((n, n)).tolist(), True
    b = rng.normal(size=(n, n))
    if kind == "dense concave":
        return (-(b @ b.T) - 0.1 * np.eye(n)).tolist(), False
    # Random eigenvectors and eigenvalue magnitudes in [0.5, 2]: indefinite
    # with at least one positive eigenvalue, or concave with one eigenvalue
    # 1e-13 of the largest, below the certificate's margin (with one
    # eigenvalue there is no smaller one, and the certificate holds).
    q = np.linalg.qr(b)[0]
    w = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
    if kind == "dense indefinite":
        w[0] = abs(w[0])
        return ((q * w) @ q.T).tolist(), True
    w = -np.abs(w)
    w[0] = -1e-13 * np.abs(w).max()
    return ((q * w) @ q.T).tolist(), n > 1


_CURVATURE_KINDS = ("dense concave", "dense indefinite", "dense near-singular", "dense zero",
                    "diag concave", "diag semidefinite", "diag zero", "diag non-concave")


@pytest.mark.parametrize("kind", _CURVATURE_KINDS)
def test_float_newton_direction_matches_the_eigh_reference(kind, monkeypatch):
    # The float direction against the eigh-and-inverse one it replaced, on
    # random points with bounds and the sum at and off their limits: zero
    # off the reference's free set, and within 1e-12 of the unconstrained
    # Newton step's size, the scale of both solves' rounding.  (A zero
    # curvature clamped to 1e-10 max|w| under the sum constraint leaves
    # both 1e-6 from the exact direction, so a bound relative to the
    # direction itself cannot hold there.)  eigh runs only where the dense
    # certificate fails.  A near-singular curvature fails it and is clamped
    # to condition 1e10, where the float Cholesky and numpy's inverse part
    # by up to 1e10 ulp: there the check is the path taken, and 1e-3.
    rng = np.random.default_rng(sum(map(ord, kind)))
    eigh = np.linalg.eigh
    calls = []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
    for n in range(1, 6):
        for equality in (False, True):
            for _ in range(20):
                cap = rng.uniform(0.5, 2.0)
                x = rng.uniform(0.0, 1.0, n) * (rng.random(n) > 0.3)
                if equality or rng.random() < 0.3:
                    x = x / x.sum() * cap if x.sum() > 0.0 else np.full(n, cap / n)
                else:
                    x *= 0.9 * cap / max(x.sum(), cap)
                g = rng.normal(size=n)
                h, fallback = _random_curvature(kind, n, rng)
                dense = np.array(h) if kind.startswith("dense") else np.diag(h)
                want, want_gain, free = oracles.newton_direction_eigh(x, g, dense, cap, equality)
                step = np.linalg.solve(oracles.clamped_curvature_eigh(dense), g)
                calls.clear()
                d, gain = solver._newton_direction(x.tolist(), g.tolist(), h, cap, equality)
                assert len(calls) == fallback, (kind, n, equality)
                assert all(v == 0.0 for v in np.array(d)[~free])
                scale = float(np.abs(step).max())
                rtol = 1e-3 if kind == "dense near-singular" else 1e-12
                np.testing.assert_allclose(d, want, rtol=rtol, atol=rtol * scale)
                assert gain == pytest.approx(want_gain, rel=rtol, abs=rtol * scale * np.abs(g).max())


def test_p32a_matches_dense_scan():
    comp = SurrogateCoeffs(c2=-2.0, c1=1.6, c0=0.1)
    lo, hi = 0.05, 0.9
    for mu in (0.0, 0.7, 5.0, -3.0):
        phi, _ = solve_p32b(None, comp, mu, lo, hi)
        assert lo <= phi <= hi

        def obj(v):
            q = comp.value(v)
            return (math.log(q) if q > 0 else -math.inf) + mu * v

        ref, _ = _scan_max(obj, lo, hi)
        assert obj(phi) >= ref - 1e-8


def test_p32b_without_link_is_the_local_closed_form(rng):
    # With q_tx = 1 the quartic's coefficients reduce exactly to the
    # quadratic of the local-share closed form, so the shares are bit-equal.
    # The intervals lie where q > 0, as phi_interval hands them over.
    n_drawn = 0
    while n_drawn < 2000:
        comp = SurrogateCoeffs(
            c2=-float(rng.exponential(5.0)) - 1e-3,
            c1=float(rng.normal(0.0, 3.0)),
            c0=float(rng.normal(0.5, 1.0)),
        )
        roots = comp.positive_roots()
        if roots is None:
            continue
        a, b = max(PHI_FLOOR, roots[0]), min(1.0, roots[1])
        if not b - a > 1e-9:
            continue
        lo = float(rng.uniform(a, b - 1e-9))
        hi = float(rng.uniform(lo + 1e-9, b))
        mu = 0.0 if n_drawn % 4 == 0 else float(rng.normal(0.0, 1.0) * 10.0 ** rng.uniform(-3, 3))
        assert solve_p32b(None, comp, mu, lo, hi)[0] == oracles.solve_p32a(comp, mu, lo, hi)
        n_drawn += 1


def test_p32b_finds_the_root_the_closed_form_misses():
    # A piece of mm2 at seed-0 cell 26 of the random draw (M = 3,
    # L = 6.4 Mbit).  Run in complex128 on these numpy-scalar coefficients,
    # the quartic's closed form missed its root inside the interval, where
    # the end slopes still bracket one.
    f64 = np.float64
    region = dict(lo=f64(5.094510563808367e-07), hi=f64(2.0378042255233467e-06))
    tx = SurrogateCoeffs(c2=f64(-48162059.35653723), c1=f64(98.07665419603562),
                         c0=f64(0.9999500000042635), **region)
    comp = SurrogateCoeffs(c2=f64(-48162062.702937976), c1=f64(98.14485488596738),
                           c0=f64(0.99995), **region)
    mu, lo, hi = f64(0.0002894722279685606), 1e-6, f64(2.0378042255233467e-06)
    share, _ = solve_p32b(tx, comp, mu, lo, hi)
    assert lo < share < hi
    # mu*q_tx*q_comp + (q_tx*q_comp)', highest power first.
    product = np.convolve([tx.c2, tx.c1, tx.c0], [comp.c2, comp.c1, comp.c0])
    quartic = mu * product + np.concatenate(([0.0], product[:-1] * [4.0, 3.0, 2.0, 1.0]))
    inside = [r for r in oracles.quartic_roots_companion(*quartic) if lo < r < hi]
    assert len(inside) == 1
    assert share == pytest.approx(inside[0], rel=1e-9)


def _stationarity_sign(tx, comp, mu, phi: float) -> int:
    """Sign of mu*q_tx*q_comp + (q_tx*q_comp)' at phi in exact arithmetic."""
    x = Fraction(phi)

    def value_and_slope(q):
        c2, c1, c0 = Fraction(q.c2), Fraction(q.c1), Fraction(q.c0)
        return (c2 * x + c1) * x + c0, 2 * c2 * x + c1

    (tx_v, tx_d), (comp_v, comp_d) = value_and_slope(tx), value_and_slope(comp)
    value = Fraction(mu) * tx_v * comp_v + tx_d * comp_v + tx_v * comp_d
    return (value > 0) - (value < 0)


def test_p32b_is_accurate_on_a_quartic_of_tiny_norm():
    # A quartic of norm 3.6e-18, below the scale at which the closed form's
    # absolute thresholds hold: it collapses every pairing into double roots
    # far outside [0.5, 1].  Polished over the whole line, one of them ended
    # at 0.8133995, 5.3e-6 off the root, inside the residual certificate.
    p = reference_params(1, task_mbits=14)
    tx = surrogate_transmission(*link_args(p, 1, 0.25, 0.001), 1.0, (0.5, 1.0))
    comp = surrogate_computation(compute_arg(p, 1, 0.0078125), p.workload, 1.0, (0.5, 1.0))
    lo, hi = phi_interval(tx, comp)
    share, _ = solve_p32b(tx, comp, 4.0, lo, hi)
    product = np.convolve([tx.c2, tx.c1, tx.c0], [comp.c2, comp.c1, comp.c0])
    quartic = 4.0 * product + np.concatenate(([0.0], product[:-1] * [4.0, 3.0, 2.0, 1.0]))
    assert max(abs(quartic)) < 1e-17
    inside = [r for r in oracles.quartic_roots_companion(*quartic) if lo < r < hi]
    assert len(inside) == 1
    assert share == pytest.approx(inside[0], rel=1e-9)
    assert share == pytest.approx(0.81340386, rel=1e-8)


def test_p32b_solves_a_near_degenerate_quartic_inside_its_interval():
    # M = 1, L = 1 Mbit, a link deep in its tail (phi_hat = e^-8) and
    # mu = 1e-9: the leading coefficient is 2.5e-10 of the norm, and the
    # closed form's candidates are far off.  Polished over the whole line,
    # one ended at -0.156, outside the interval, and failed its certificate;
    # now none lies inside (lo, hi), and the end slopes bracket the root.
    p = reference_params(1, task_mbits=1.0)
    ph = math.exp(-8.0)
    region = (ph / 2.0, 2.0 * ph)
    tx = surrogate_transmission(*link_args(p, 1, 0.25, 1.0), ph, region)
    comp = surrogate_computation(compute_arg(p, 1, 1.0), p.workload, ph, region)
    lo, hi = phi_interval(tx, comp)
    mu = 1e-9
    share, _ = solve_p32b(tx, comp, mu, lo, hi)
    assert lo < share < hi
    assert _stationarity_sign(tx, comp, mu, share * (1.0 - 1e-12)) == 1
    assert _stationarity_sign(tx, comp, mu, share * (1.0 + 1e-12)) == -1


@given(
    n_servers=st.integers(1, 4),
    task_mbits=st.floats(1.0, 100.0),
    index=st.integers(0, 4),
    ln_phi_hat=st.floats(math.log(PHI_FLOOR), 0.0),
    airtime=st.floats(1e-3, 1.0),
    slack=st.floats(1e-3, 1.0),
    power_w=st.floats(1e-3, 1.0),
    mu=st.floats(0.0, 1e6),
)
@settings(max_examples=200)
def test_p32b_beats_the_candidate_argmax_on_mm2_pieces(
    n_servers, task_mbits, index, ln_phi_hat, airtime, slack, power_w, mu
):
    # The pieces mm2 builds: minorants on its trust region around the
    # expansion point (index 0 is the local share, with no link), the share
    # interval phi_interval gives, mu >= 0.
    p = reference_params(n_servers, task_mbits=task_mbits)
    m = index % (n_servers + 1)
    ph = math.exp(ln_phi_hat)
    region = (ph / solver._TRUST_FACTOR, min(1.0, solver._TRUST_FACTOR * ph))
    tx = surrogate_transmission(*link_args(p, m, airtime, power_w), ph, region) if m > 0 else None
    comp = surrogate_computation(compute_arg(p, m, slack), p.workload, ph, region)
    iv = phi_interval(tx, comp)
    if iv is None:
        return
    lo, hi = iv
    try:
        share, _ = solve_p32b(tx, comp, mu, lo, hi)
    except special.ConvergenceError:
        # The quartic's certificate rejected a root; the split loop counts
        # a pathology.  The candidate argmax solves the same quartic.
        with pytest.raises(special.ConvergenceError):
            oracles.solve_p32b_candidates(tx, comp, mu, lo, hi)
        return
    assert lo <= share <= hi

    def objective(phi):
        # Each q in exact rational arithmetic, plus the rounding that a float
        # evaluation of q carries.  Where q is a small difference of large
        # terms (a link whose minorant is positive on a sliver), that
        # rounding exceeds the objective's differences near its maximum, and
        # the quartic's root is no more accurate than that.
        x, total, rounding = Fraction(float(phi)), mu * phi, 0.0
        for q in (tx, comp):
            if q is not None:
                v = float((Fraction(q.c2) * x + Fraction(q.c1)) * x + Fraction(q.c0))
                if not v > 0.0:
                    return -math.inf, 0.0
                total += math.log(v)
                scale = (abs(q.c2) * phi + abs(q.c1)) * phi + abs(q.c0)
                rounding += 4.0 * np.finfo(float).eps * scale / v
        return total, rounding

    value, _ = objective(share)
    best, rounding = objective(oracles.solve_p32b_candidates(tx, comp, mu, lo, hi))
    assert value >= best - 1e-12 * max(1.0, abs(best)) - rounding


def test_p32b_matches_dense_scan():
    p = reference_params(1, task_mbits=10.0)
    tx = surrogate_transmission(*link_args(p, 1, 0.4, 1.0), 0.6, (PHI_FLOOR, 1.0))
    comp = surrogate_computation(compute_arg(p, 1, 0.5), p.workload, 0.6, (PHI_FLOOR, 1.0))
    lo, hi = 0.05, 0.99
    for mu in (0.0, 2.5, -4.0):
        phi, _ = solve_p32b(tx, comp, mu, lo, hi)

        def obj(v):
            a, b = tx.value(v), comp.value(v)
            if a <= 0 or b <= 0:
                return -math.inf
            return math.log(a) + math.log(b) + mu * v

        ref, _ = _scan_max(obj, lo, hi)
        assert obj(phi) >= ref - 1e-8


def _affine_piece(lo, hi, m0, span, factor):
    """A share rising linearly from lo at mu = m0 to hi at m0 + span, with
    its slope times ``factor``."""
    rate = (hi - lo) / span

    def solve(mu):
        share = lo + rate * (mu - m0)
        if share <= lo:
            return lo, 0.0
        if share >= hi:
            return hi, 0.0
        return share, factor * rate

    return solve


def _logistic_piece(lo, hi, m0, k, factor):
    """lo + (hi - lo) / (1 + (m0 / mu)^k), a smooth rise in ln mu around
    m0, with its slope times ``factor``."""

    def solve(mu):
        e = k * (math.log(m0) - math.log(mu)) if mu > 0.0 else math.inf
        if e > 700.0:
            return lo, 0.0
        rise = 1.0 / (1.0 + math.exp(e))
        return lo + (hi - lo) * rise, factor * (hi - lo) * k * rise * (1.0 - rise) / mu

    return solve


def test_waterfill_affine_toy():
    # Three "solvers" whose maximizers move linearly with mu, clipped to
    # per-index intervals: total share is monotone, so the multiplier that
    # spends the unit budget is unique and easy to verify.
    intervals = [(0.0, 0.6), (0.0, 0.5), (0.0, 0.4)]
    slopes = (0.10, 0.05, 0.02)
    solvers = [_affine_piece(lo, hi, 0.0, (hi - lo) / s, 1.0)
               for s, (lo, hi) in zip(slopes, intervals)]
    # No guess, and guesses far below, near and far above the root (~7.3).
    for mu_start in (None, 1e-9, 7.0, 1e9):
        mu, phi = waterfill_mu(solvers, mu_start=mu_start)
        assert abs(sum(phi) - 1.0) <= 1e-8
        assert mu > 0.0
        for v, iv in zip(phi, intervals):
            assert iv[0] - 1e-12 <= v <= iv[1] + 1e-12
        # Against the closed form: shares s_i*mu until a cap binds.
        direct = np.array([min(s * mu, iv[1]) for s, iv in zip(slopes, intervals)])
        assert np.allclose(phi, direct, atol=1e-6)


def test_waterfill_rejects_overspent_start():
    solvers = [lambda mu: (0.6, 0.0), lambda mu: (0.6, 0.0)]
    with pytest.raises(WaterfillBracketError):
        waterfill_mu(solvers)


def _counting(fn, calls: list):
    def counted(mu):
        calls.append(mu)
        return fn(mu)

    return counted


def test_waterfill_gives_up_at_its_multiplier_cap():
    # Stuck solvers never reach the budget at any multiplier: the search
    # returns the first multiplier and its shares as they are.
    tried: list[float] = []
    solvers = [_counting(lambda mu: (0.3, 0.0), tried), lambda mu: (0.3, 0.0)]
    mu, phi = waterfill_mu(solvers)
    assert mu == 1.0 and phi == [0.3, 0.3]
    assert max(tried) == 1e18  # the search gave up at its multiplier cap
    _, _, oracle_evals = waterfill_bisection([lambda mu: (0.3, 0.0), lambda mu: (0.3, 0.0)])
    assert oracle_evals == 101
    assert len(tried) <= oracle_evals


def test_waterfill_step_function_stops_at_best_residual():
    # The share total jumps over the budget at mu = 3.7, so no multiplier
    # spends it within tol: the search must still stop within max_iter
    # multipliers and return the closest total it saw, which lies just
    # below the jump, with the shares that multiplier produced.
    def share(mu):
        if mu < 3.7:
            return 0.4 + 0.05 * mu / (1.0 + mu), 0.05 / (1.0 + mu) ** 2
        return 0.65, 0.0

    for mu_start in (None, 3.0, 50.0):
        tried: list[float] = []
        solvers = [_counting(share, tried), share]
        mu, phi = waterfill_mu(solvers, max_iter=40, mu_start=mu_start)
        # At most max_iter multipliers, and S(0) once more when none of
        # them spent less than the budget.
        assert len(tried) <= 1 + 40
        assert mu == max(m for m in tried if m < 3.7)
        assert phi == [share(mu)[0]] * 2
        assert 3.7 - mu < 1e-6


def _monotone_pieces(seed, factor):
    """1-5 random pieces whose share totals run from below 0.9 at mu = 0 to
    above 1.1; returns the solvers with their slopes times ``factor``, the
    same solvers with exact slopes."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    low, width = rng.uniform(0.0, 1.0, n), rng.uniform(0.05, 1.0, n)
    low *= rng.uniform(0.0, 0.9) / max(float(low.sum()), 1e-300)
    width *= (rng.uniform(1.1, 3.0) - low.sum()) / width.sum()
    solvers, exact = [], []
    for lo, w in zip(low.tolist(), width.tolist()):
        m0 = 10.0 ** rng.uniform(-3.0, 3.0)
        if rng.random() < 0.5:
            make, shape = _affine_piece, m0 * 10.0 ** rng.uniform(-1.0, 1.0)
        else:
            make, shape = _logistic_piece, rng.uniform(1.0, 4.0)
        solvers.append(make(lo, lo + w, m0, shape, factor))
        exact.append(make(lo, lo + w, m0, shape, 1.0))
    return solvers, exact


@given(
    seed=st.integers(0, 2**32 - 1),
    factor=st.sampled_from([1.0, 0.0, 10.0, 0.1]),
    mu_start=st.none() | st.floats(1e-6, 1e6),
)
@settings(max_examples=300)
def test_waterfill_on_random_monotone_pieces(seed, factor, mu_start):
    # Exact slopes, none, and slopes 10x too large or too small: the Newton
    # steps may be poor, but the search must still spend the budget within
    # tol, agree with bisection to the precision of
    # test_waterfill_matches_bisection_on_solver_sets (2e-8 / S' apart, and
    # 1e-4 relative where S is steep), and stop by its own rule, before its
    # max_iter budget of 200 multipliers (127 at most seen, at factor 10).
    solvers, exact = _monotone_pieces(seed, factor)
    tried: list[float] = []
    mu, phi = waterfill_mu([_counting(solvers[0], tried), *solvers[1:]], mu_start=mu_start)
    assert len(tried) < 200
    assert phi == [s(mu)[0] for s in exact]
    assert abs(sum(phi) - 1.0) <= 1e-8
    mu_ref, total_ref, _ = waterfill_bisection(exact)
    assert abs(total_ref - 1.0) <= 1e-8
    steepness = min(sum(s(m)[1] for s in exact) for m in (mu, mu_ref))
    assert abs(mu - mu_ref) <= max(1e-4 * mu_ref, 2e-8 / steepness if steepness > 0.0 else math.inf)


# Cells of the benchmark's solve workloads on which the search is checked.
WATERFILL_CELLS = [(1, 10.0), (2, 10.0), (3, 10.0), (4, 10.0), (2, 25.0)]


@pytest.fixture(scope="module")
def recorded_waterfills():
    """Per (cell, variant): the BcdTrace of a three-round solve and every
    water-filling call it made, as (fresh, intervals, mu_start, mu).
    ``fresh()`` gives the call's per-index solvers as they stood before it:
    an mm1 solver starts each root from its previous one, so its pieces
    are built again from their recorded arguments.  ``intervals`` are the
    solvers' share intervals: ``phi_interval``'s for mm2, and for mm1
    [PHI_FLOOR, min(1, 2 ph)] less its 1e-9 relative margin."""
    out = {}
    real, real_piece, real_interval = solver.waterfill_mu, solver._mm1_piece, solver.phi_interval
    for cell in WATERFILL_CELLS:
        for variant in ("mm2", "mm1"):
            calls, built, ivs = [], [], []

            def piece(*args, built=built, ivs=ivs):
                built.append(args[:-1])  # all but the trace
                ivs.append((PHI_FLOOR, min(1.0, 2.0 * args[2] * (1.0 - 1e-9))))
                return real_piece(*args)

            def interval(*args, ivs=ivs):
                ivs.append(real_interval(*args))
                return ivs[-1]

            def recording(solvers, calls=calls, built=built, ivs=ivs, variant=variant, **kw):
                mu, phi = real(solvers, **kw)
                if variant == "mm1":
                    args = built[-len(solvers):]

                    def fresh(args=args):
                        return [real_piece(*a, solver.InnerTrace()) for a in args]
                else:
                    def fresh(solvers=solvers):
                        return solvers
                calls.append((fresh, ivs[-len(solvers):], kw.get("mu_start"), mu))
                built.clear()
                ivs.clear()
                return mu, phi

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(solver, "waterfill_mu", recording)
                mp.setattr(solver, "_mm1_piece", piece)
                mp.setattr(solver, "phi_interval", interval)
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
        for fresh, _, mu_start, mu_used in calls[:: 1 + len(calls) // 10]:
            mu_ref, total_ref, _ = waterfill_bisection(fresh())
            assert abs(total_ref - 1.0) <= 1e-8
            for start in (mu_start, None):
                mu, phi = waterfill_mu(fresh(), mu_start=start)
                if start is mu_start:
                    assert mu == mu_used
                assert abs(sum(phi) - 1.0) <= 1e-8
                assert mu == pytest.approx(mu_ref, rel=1e-4)


@pytest.mark.parametrize("variant", ["mm2", "mm1"])
def test_waterfill_evaluation_budget(recorded_waterfills, variant):
    # Doubling plus bisection spent 25-30 multipliers per split iteration on
    # these cells, and warm-started false position 4-7 on average and at
    # most 14.  Newton steps on the per-index slopes spend 2.2-3.5 on
    # average and at most 10, on a cold start where the shares grow like
    # ln mu.
    for cell in WATERFILL_CELLS:
        trace, calls = recorded_waterfills[cell, variant]
        assert trace.total_pathologies == 0
        assert trace.total_mu_evals <= 5 * trace.total_inner
        for fresh, _, mu_start, _ in calls:
            tried: list[float] = []
            solvers = fresh()
            counted = [_counting(solvers[0], tried), *solvers[1:]]
            waterfill_mu(counted, mu_start=mu_start)
            assert len(tried) <= 10


@pytest.mark.parametrize("variant", ["mm2", "mm1"])
def test_share_slopes_match_central_differences(recorded_waterfills, variant):
    # Each per-index solve reports its share's slope in mu: by implicit
    # differentiation of its stationarity condition at an interior root,
    # and exactly 0 at an interval end, which mu = 0 and mu = 1e6 reach
    # for most pieces.  A difference of shares below 1e-12 is too close to
    # mm1's root tolerance (1e-13 absolute) to resolve a slope.
    interior = ends = 0
    for cell in WATERFILL_CELLS:
        _, calls = recorded_waterfills[cell, variant]
        for fresh, intervals, _, mu in calls:
            h = 1e-4 * mu
            for solve, (lo, hi) in zip(fresh(), intervals):
                for at_end in (0.0, 1e6):
                    share, slope = solve(at_end)
                    if share in (lo, hi):
                        assert slope == 0.0
                        ends += 1
                share, slope = solve(mu)
                if share in (lo, hi):
                    assert slope == 0.0
                    continue
                up, down = solve(mu + h)[0], solve(mu - h)[0]
                if lo < down and up < hi and up - down >= 1e-12:
                    assert slope == pytest.approx((up - down) / (2.0 * h), rel=1e-4)
                    interior += 1
    assert interior >= 400 and ends >= 300


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
    # A share that no split can serve is pinned at exactly 0 and the others
    # move, as in pg; the start, with mass on that share, has ln P = -inf.
    p = reference_params(2, task_mbits=10.0)
    phi_start = np.array([0.3, 0.6, 0.3])
    t = np.array(t_shares)
    pinned = 0 if rho == 0.0 else 2
    assert ln_success(p, phi_start / phi_start.sum(), t, 1.0, rho) == -math.inf
    update = getattr(solver, f"solve_p3_{variant}")
    phi, trace = update(p, phi_start, t, 1.0, rho)
    assert phi[pinned] == 0.0
    assert sum(phi) == pytest.approx(1.0, abs=1e-12)
    assert trace.pathologies == 0 and trace.iterations >= 1
    ln_p = ln_success(p, phi, t, 1.0, rho)
    ln_pg = ln_success(p, solve_p3_pg(p, phi_start, t, 1.0, rho)[0], t, 1.0, rho)
    assert math.isfinite(ln_p)
    assert ln_p == pytest.approx(ln_pg, abs=1e-6)
    assert trace.ln_values[-1] == ln_p


def test_convergence_error_in_split_counts_a_pathology(monkeypatch):
    # A root the quartic's certificate rejects raises ConvergenceError inside
    # a split iteration; the iteration keeps its previous iterate instead.
    p = reference_params(2, task_mbits=10.0)
    clean = bcd_solve(p, variant="mm2")
    assert clean.trace.total_pathologies == 0
    real = solver.solve_quartic_real
    calls = [0]

    def failing(coeffs, interval):
        calls[0] += 1
        if calls[0] == 100:
            raise special.ConvergenceError("rejected root")
        return real(coeffs, interval)

    monkeypatch.setattr(solver, "solve_quartic_real", failing)
    res = bcd_solve(p, variant="mm2")
    assert calls[0] > 100
    assert_feasible(p, res.allocation)
    vals = res.trace.ln_p_success
    assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
    assert res.trace.total_pathologies == 1
    assert res.ln_p_success == pytest.approx(clean.ln_p_success, abs=1e-6)


# ---------------------------------------------------------------------------
# mm1's per-index search.
# ---------------------------------------------------------------------------


def _mm1_states(rng, tasks_mbits=(5.0, 20.0, 60.0, 100.0)):
    """(p, m, ph, slack, t_m, power) of every mm1 index over M = 1-4 and
    the given task sizes, at random feasible allocations."""
    for n_servers in (1, 2, 3, 4):
        for task_mbits in tasks_mbits:
            p = reference_params(n_servers, task_mbits=task_mbits)
            for _ in range(2):
                a = random_feasible_allocation(p, rng)
                ph = np.maximum(np.array(a.phi), PHI_FLOOR)
                ph /= ph.sum()
                slacks = p.latency_budget_s - np.cumsum(a.t_shares)
                yield p, 0, float(ph[0]), a.rho / p.local_speed_hz, 0.0, a.power_w
                for m in range(1, n_servers + 1):
                    yield p, m, float(ph[m]), float(slacks[m - 1]), a.t_shares[m - 1], a.power_w


def _scales(p, m, slack, t_m, power) -> ShareScales:
    """Index m's factor arguments formed by the oracles."""
    psi = compute_arg(p, m, slack)
    if m == 0:
        return ShareScales(psi)
    return ShareScales(psi, *link_args(p, m, t_m, power))


def _check_mm1_curvature(deriv, x: float, ph: float, rel: float = 1e-5) -> None:
    d, curv = deriv(x)
    assert math.isfinite(d) and math.isfinite(curv)
    # The minorant has a pole at 2 ph: keep the step well inside it.
    h = 1e-6 * min(x, 2.0 * ph - x)
    fd = (deriv(x + h)[0] - deriv(x - h)[0]) / (2.0 * h)
    assert curv == pytest.approx(fd, rel=rel)


def test_mm1_derivative_curvature_matches_finite_differences():
    """The second derivative of mm1's minorant against central differences
    of its first, over M = 1-4 and L = 5-100 Mbit, plus a link near its
    hopeless branch and a local factor in ln_lower_gamma's underflow branch."""
    rng = np.random.default_rng(5)
    checked = near_hopeless = underflow = 0
    for p, m, ph, slack, t_m, power in _mm1_states(rng):
        deriv = solver._mm1_derivative(p.workload.shape, _scales(p, m, slack, t_m, power), ph)
        hi = min(1.0, 2.0 * ph)
        for frac in (0.2, 0.7, 1.0, 1.4, 1.9):
            x = frac * ph
            if x < hi:
                _check_mm1_curvature(deriv, x, ph)
                checked += 1
        if m == 0:
            # A local cycle budget of 1e-30 cycles: P(10, u) underflows to 0.
            psi = 1e-30 / (p.task_bits * p.workload.scale)
            deriv = solver._mm1_derivative(p.workload.shape, ShareScales(psi), ph)
            assert ln_lower_gamma(p.workload.shape, psi / ph)[0] == -math.inf
            _check_mm1_curvature(deriv, ph, ph)
            underflow += 1
        elif ph > 1e-3:
            # On the tangent line (2 ph - phi) / ph^2 of 1 / phi the link
            # demand is c over the line; put it at 650 / ln2, below the
            # hopeless 700 / ln2.  Closer to it, or for a share near the
            # floor, whose tangent is steeper, the curvature overflows to
            # -inf before the slope does.  The difference quotient is
            # noisier here: 2^demand amplifies its round-off 650-fold.
            y, c = link_args(p, m, t_m, power)
            x = 2.0 * ph - math.log(2.0) / 650.0 * ph * ph * c
            if PHI_FLOOR < x < hi:
                assert -math.inf < ln_chi(c / ((2.0 * ph - x) / (ph * ph)), y)[0] < -1e200
                _check_mm1_curvature(deriv, x, ph, rel=1e-4)
                near_hopeless += 1
    assert checked >= 300 and near_hopeless >= 20 and underflow == 32


def _mm1_slope_on_exact_lines(p, m, ph, t_m, slack, power, phi):
    """mm1's minorant slope at phi with the compute argument u = psi (2 ph
    - phi) / ph^2, the link demand x = c ph^2 / (2 ph - phi) and its slope
    in phi formed in exact rationals and rounded once, then passed to the
    same float kernels."""
    w = p.workload
    psi = compute_arg(p, m, slack)
    y, c = link_args(p, m, t_m, power)
    line = (2 * Fraction(ph) - Fraction(phi)) / Fraction(ph) ** 2
    u, x = float(Fraction(psi) * line), float(Fraction(c) / line)
    x_drop = float(Fraction(c) / (line * line * Fraction(ph) ** 2))
    ln_tx, dx = ln_chi(x, y)
    if ln_tx == -math.inf:
        return -math.inf
    return -ln_lower_gamma(w.shape, u)[1] * (psi / (ph * ph)) + dx * x_drop


def test_mm1_slope_keeps_its_accuracy_near_twice_the_expansion_share():
    """As phi nears 2 ph the tangent lines near their zero; the slope stays
    within 1e-12 of the one on exactly formed lines."""
    p = reference_params(2)
    finite = 0
    for ph, t_m, slack, power in ((0.3, 0.2, 0.5, 0.5), (0.01, 0.05, 0.6, 1.0),
                                  (0.001, 0.3, 0.4, 0.2)):
        deriv = solver._mm1_derivative(p.workload.shape, _scales(p, 1, slack, t_m, power), ph)
        for d in np.geomspace(1e-9, 0.5, 40):
            phi = 2.0 * ph * (1.0 - float(d))
            got, want = deriv(phi)[0], _mm1_slope_on_exact_lines(p, 1, ph, t_m, slack, power, phi)
            if want == -math.inf:
                assert got == want, (ph, d)
            else:
                assert abs(got - want) <= 1e-12 * abs(want), (ph, d)
                finite += 1
    assert finite >= 60


@pytest.fixture(scope="module")
def mm1_pieces():
    """Every mm1 piece at random feasible allocations (L = 5-100 Mbit) and
    at the start and end of three-round solves of the benchmark cells, with
    its share interval, its derivative and its trace."""
    states = list(_mm1_states(np.random.default_rng(9), (5.0, 30.0, 100.0)))
    for cell in WATERFILL_CELLS:
        p = reference_params(cell[0], task_mbits=cell[1])
        for a in (default_allocation(p), bcd_solve(p, variant="mm1", max_outer=3).allocation):
            ph = np.maximum(np.array(a.phi), PHI_FLOOR)
            ph /= ph.sum()
            slacks = p.latency_budget_s - np.cumsum(a.t_shares)
            states.append((p, 0, float(ph[0]), a.rho / p.local_speed_hz, 0.0, a.power_w))
            states += [(p, m, float(ph[m]), float(slacks[m - 1]), a.t_shares[m - 1], a.power_w)
                       for m in range(1, p.n_servers + 1)]
    out = []
    for p, m, ph, slack, t_m, power in states:
        trace = solver.InnerTrace()
        scales = _scales(p, m, slack, t_m, power)
        built = solver._mm1_piece(p.workload.shape, scales, ph, trace)
        if built is not None:
            interval = (PHI_FLOOR, min(1.0, 2.0 * ph * (1.0 - 1e-9)))
            out.append((built, interval, solver._mm1_derivative(p.workload.shape, scales, ph),
                        trace))
    return out


_MUS = [0.0, *np.geomspace(1e-4, 1e4, 33).tolist()]


def test_mm1_piece_is_a_function_of_mu_to_its_root_tolerance(mm1_pieces):
    # Each root starts from the previous one, so the order of the
    # multipliers moves a share only within the search's tolerance (1e-13
    # absolute below 1; 5e-13 seen), and its slope by the curvature's
    # change over that distance (4e-9 relative seen).
    rng = np.random.default_rng(3)
    assert len(mm1_pieces) >= 100
    for solve, _, _, _ in mm1_pieces:
        ascending = {mu: solve(mu) for mu in _MUS}
        shuffled = list(_MUS)
        rng.shuffle(shuffled)
        for order in (reversed(_MUS), shuffled):
            for mu in order:
                share, slope = solve(mu)
                assert abs(share - ascending[mu][0]) <= 1e-12
                assert slope == pytest.approx(ascending[mu][1], rel=1e-7)


def test_mm1_piece_matches_the_illinois_search_in_fewer_evaluations(mm1_pieces):
    # Over multipliers from 1e-4 to 1e4 many roots sit against the pole at
    # 2 ph; there the Illinois search takes 22 evaluations per root on
    # average and up to 79, the Newton search about 9 and at most 19.
    newton = illinois = 0
    for solve, (lo, hi), deriv, trace in mm1_pieces:
        solve(0.0)  # the first call evaluates both ends
        d_lo, d_hi = deriv(lo)[0], deriv(hi)[0]
        for mu in _MUS:
            before = trace.search_evals
            share, _ = solve(mu)
            spent = trace.search_evals - before
            if d_lo + mu <= 0.0 or d_hi + mu >= 0.0:
                assert share == (lo if d_lo + mu <= 0.0 else hi) and spent == 0
                continue
            assert lo <= share <= hi and spent <= 25
            newton += spent
            calls = [0]

            def counted(x, mu=mu, calls=calls):
                calls[0] += 1
                return deriv(x)[0] + mu

            ref = special.decreasing_root(counted, lo, hi, d_lo + mu, d_hi + mu)
            assert abs(share - ref) <= 1e-12
            illinois += calls[0]
    assert illinois >= 1000 * 20
    assert newton <= 0.5 * illinois


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


@pytest.mark.parametrize("variant", VARIANTS)
def test_offload_only_spends_nothing_on_local_cycles(variant):
    # An offload-only solve gives the local CPU no cycle budget, so its
    # airtime may spend the whole energy budget: every stored allocation,
    # the start included, holds rho = 0.  The first six pinned cells are
    # the benchmark's.
    for name, p in pinned.SOLVE_CELLS[:6]:
        res = bcd_solve(p, variant=variant, offload_only=True)
        assert res.trace.n_outer >= 1
        assert all(a.rho == 0.0 and a.phi[0] == 0.0 for a in res.trace.allocations), name


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


@pytest.mark.parametrize("energy_j", [0.05, 0.3, 0.6, 0.99])
@pytest.mark.parametrize("variant", VARIANTS)
def test_bcd_starts_from_an_all_local_split(energy_j, variant):
    # With no server share, P1 puts the power at the cap and rho takes the
    # whole energy budget, which leaves P2 no airtime budget; P2 has no
    # share to carry either, so the start must not be rejected.
    p = reference_params(2, 10.0, energy_j=energy_j)
    start = default_allocation(p)
    init = Allocation((1.0, 0.0, 0.0), start.t_shares, start.power_w, start.rho)
    res = bcd_solve(p, variant, init=init)
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
    for p in oracles.random_cells(0, *range(12)).values():
        mm2 = bcd_solve(p, variant="mm2")
        mm1 = bcd_solve(p, variant="mm1")
        assert mm2.ln_p_success >= mm1.ln_p_success - 1e-4, p


def test_split_residual_is_the_pg_stopping_norm():
    p = reference_params(2, task_mbits=10.0)
    full = default_allocation(p)
    # The offload-only start has no local budget (rho = 0), which pins the
    # local share.
    for a in (full, default_allocation(p, offload_only=True)):
        start = split_residual(p, a.phi, a.t_shares, a.power_w, a.rho)
        assert start > 0.1
        phi, trace = solve_p3_pg(p, a.phi, a.t_shares, a.power_w, a.rho, max_iter=2000)
        assert trace.iterations < 2000
        end = split_residual(p, phi, a.t_shares, a.power_w, a.rho)
        assert end <= 1e-6
    # Pinning the local share at 0 is stationary only without a local
    # budget: with one, moving work back to the local CPU pays.
    assert a.rho == 0.0 and a.t_shares == full.t_shares and a.power_w == full.power_w
    assert split_residual(p, phi, a.t_shares, a.power_w, full.rho) > 0.1
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


def _split_inputs(p):
    """The split block's inputs after the default start's power and airtime
    updates, as the first sweep hands them over."""
    a = default_allocation(p)
    phi, t = np.asarray(a.phi), np.asarray(a.t_shares)
    power = solve_p1(p, phi, t)
    rho = optimal_rho(p, t, power, offload_only=False)
    t, _ = solve_p2(p, phi, t, power, rho)
    return phi, t, power, rho


@pytest.mark.parametrize("variant", ["mm2", "mm1"])
@pytest.mark.parametrize("cell", [(1, 10.0), (4, 10.0), (2, 25.0)])
def test_split_update_hands_back_its_final_multiplier(variant, cell):
    p = reference_params(cell[0], task_mbits=cell[1])
    phi, t, power, rho = _split_inputs(p)
    update = getattr(solver, f"solve_p3_{variant}")
    returned = []

    real = solver.waterfill_mu

    def recording(*args, **kw):
        mu, shares = real(*args, **kw)
        returned.append(mu)
        return mu, shares

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "waterfill_mu", recording)
        _, trace = update(p, phi, t, power, rho)
    assert trace.iterations >= 3 and trace.mu == returned[-1] > 0.0
    # One rebuild, cold and restarted from its own multiplier: the restart's
    # search stops at its first multiplier, on the same shares.
    cold_phi, cold = update(p, phi, t, power, rho, max_iter=1)
    warm_phi, warm = update(p, phi, t, power, rho, max_iter=1, mu_start=cold.mu)
    assert max(abs(a - b) for a, b in zip(warm_phi, cold_phi)) <= 1e-12
    assert warm.mu_evals <= cold.mu_evals
    # An update with no active share hands the multiplier on unchanged.
    _, idle = update(p, phi, np.zeros_like(t), power, 0.0, mu_start=0.25)
    assert idle.iterations == 0 and idle.mu == 0.25


@pytest.mark.parametrize("variant", ["mm2", "mm1"])
def test_split_updates_put_their_shares_on_the_simplex(variant):
    # The multiplier search hands back the shares it found, which spend the
    # budget only to its 1e-8 tolerance; the update divides them by their
    # sum, so every split it returns spends the budget to 1e-12.
    outputs = []
    real = solver._P3_VARIANTS[variant]

    def recording(*args, **kw):
        phi, trace = real(*args, **kw)
        outputs.append(phi)
        return phi, trace

    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(solver._P3_VARIANTS, variant, recording)
        for m, task in WATERFILL_CELLS:
            for offload_only in (False, True):
                bcd_solve(reference_params(m, task_mbits=task), variant=variant,
                          offload_only=offload_only)
    assert len(outputs) >= 50
    for phi in outputs:
        assert abs(sum(phi) - 1.0) <= 1e-12 and min(phi) >= 0.0


@pytest.mark.parametrize("variant", ["mm2", "mm1"])
def test_split_update_damps_a_step_that_loses_once(variant):
    # A step whose split is worse than the iterate counts a pathology and is
    # halved once: kept when the half step is no worse, else the update
    # stops on the iterate it had.  Here the multiplier search is replaced
    # by one that returns a fixed split.
    p = reference_params(2, task_mbits=10.0)
    _, t, power, rho = _split_inputs(p)
    start = np.array([0.05, 0.9, 0.05])
    update = getattr(solver, f"solve_p3_{variant}")

    def run(shares):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "waterfill_mu", lambda solvers, **kw: (1.0, shares))
            return update(p, start, t, power, rho, max_iter=1)

    def ln(phi):
        return ln_success(p, phi, t, power, rho)

    # All on server 2 loses 1.25 nats; the half step gains 0.57.
    phi, trace = run([0.0, 0.0, 1.0])
    half = 0.5 * (start + np.array([0.0, 0.0, 1.0]))
    assert ln([0.0, 0.0, 1.0]) < ln(start) < ln(half)
    assert np.array_equal(phi, half)
    assert trace.pathologies == 1 and trace.iterations == 1
    assert trace.ln_values == [ln(start), ln(half)]
    # All local loses 9.2 nats and the half step 4.3: the start stays.
    phi, trace = run([1.0, 0.0, 0.0])
    assert np.array_equal(phi, start / start.sum())
    assert trace.pathologies == 1 and trace.iterations == 0
    assert trace.ln_values == [ln(start)]


def test_pg_takes_a_multiplier_and_reports_none():
    p = reference_params(2, task_mbits=25.0)
    phi, t, power, rho = _split_inputs(p)
    cold_phi, cold = solve_p3_pg(p, phi, t, power, rho)
    warm_phi, warm = solve_p3_pg(p, phi, t, power, rho, mu_start=7.5)
    assert np.array_equal(warm_phi, cold_phi) and warm == cold and warm.mu is None


@pytest.mark.parametrize("variant", VARIANTS)
def test_sweeps_hand_the_multiplier_forward(variant):
    # Each sweep's split update starts from the multiplier the last sweep's
    # update reported, which the trace records per sweep.
    p = reference_params(2, task_mbits=20.0)
    starts = []
    real = solver._P3_VARIANTS[variant]

    def recording(*args, **kw):
        starts.append(kw["mu_start"])
        return real(*args, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(solver._P3_VARIANTS, variant, recording)
        trace = bcd_solve(p, variant=variant).trace
    assert len(trace.split_mu) == trace.n_outer >= 3
    assert starts == [None] + trace.split_mu[:-1]
    if variant == "pg":
        assert trace.split_mu == [None] * trace.n_outer
    else:
        assert all(mu > 0.0 for mu in trace.split_mu)


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


def test_hopeless_link_keeps_derivatives_finite():
    # M = 3, L = 65.7 Mbit, E = 1.63 J, latency 1.93 s: the solvers' trial
    # points drive an airtime toward 0, where the link's d_phi and d_t would
    # overflow.
    p = oracles.random_cells(1, 19)[19]
    assert p.n_servers == 3 and round(p.task_bits / 1e6, 1) == 65.7
    # An overflow warns: on numpy-scalar SNRs by numpy's own warning, on
    # Python floats by the kernel's explicit check.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for power in (0.9, np.float64(0.9)):
            snr = [power * g / p.noise_w for g in p.mean_gains]
            # Server 1's link: x ln2 = 6e5, far past the hopeless threshold 700.
            f = log_factors(p.task_bits, p.bandwidth_hz, p.workload, p.latency_budget_s,
                            p.server_speeds_hz, (0.0,) * 3, snr, [0.1, 0.5, 0.2, 0.2],
                            [1e-9, 0.3, 0.3], 1e8, order=2)
            assert f.link[0] == -math.inf and f.total == -math.inf
            assert all(math.isfinite(v) for v in f.d_phi + f.d_t + f.h_phi)
            assert np.all(np.isfinite(f.h_t))
        for variant in VARIANTS:
            res = bcd_solve(p, variant=variant)
            assert math.isfinite(res.ln_p_success) and res.trace.converged, variant


def test_overflowing_link_derivatives_warn_from_the_kernel():
    # mm2 from the start with 0.9 of the task on server 2 at seed 1 cell 25
    # passes a point where server 4 carries 0.249 of the task on 1.0e-4 s:
    # x = 997, short of the hopeless cut, but its airtime curvature exceeds
    # 1e308.  The kernel says so, and the solve still ends.
    p = oracles.random_cells(1, 25)[25]
    m = p.n_servers
    start = default_allocation(p)
    phi = [0.1 / m] * (m + 1)
    phi[2] = 0.9
    init = Allocation(tuple(v / sum(phi) for v in phi), start.t_shares, start.power_w, start.rho)
    with pytest.warns(RuntimeWarning, match=r"^link 4 derivatives overflow at x = 997\.1$"):
        res = bcd_solve(p, "mm2", init=init)
    assert round(res.ln_p_success, 6) == -0.694557 and res.trace.n_outer == 6


# Cells of the evaluation budgets: the pinned ones (the benchmark's and the
# three hard cells) and four seeded random cells (seed-1 cell 11 ends with a
# server without airtime; at seed-0 cell 26 pg's first split leaves a
# round-off share).
_SOLVE_REF = [(m, 10.0) for m in (1, 2, 3, 4)]
_BUDGET_CELLS = (
    pinned.SOLVE_CELLS
    + [(f"seed1 cell {i}", p) for i, p in oracles.random_cells(1, 11, 17, 19).items()]
    + [("seed0 cell 26", oracles.random_cells(0, 26)[26])]
)


@pytest.fixture(scope="module")
def budget_solves():
    return {(name, v): bcd_solve(p, variant=v) for name, p in _BUDGET_CELLS for v in VARIANTS}


@pytest.fixture(scope="module")
def pinned_offload_solves():
    return {(name, v): bcd_solve(p, variant=v, offload_only=True)
            for name, p in pinned.SOLVE_CELLS for v in VARIANTS}


def test_solve_traces_match_the_pinned_digests(budget_solves, pinned_offload_solves):
    # Every BcdTrace field, allocations included, of the 54 pinned solves
    # (27 of them offload-only);
    # a failure names the fields that moved (tests/pinned.py regenerates the
    # manifest).
    manifest = json.loads(pinned.SOLVE_MANIFEST.read_text())
    digests = pinned.solve_digests(budget_solves, pinned_offload_solves)
    assert digests.keys() == manifest["digests"].keys()
    moved = pinned.moved_entries(manifest["digests"], digests)
    assert not moved, f"solve traces moved: {moved}." + pinned.environment_note(manifest)


def test_blocks_take_and_return_python_floats(budget_solves):
    # Each block fed the stored tuples of the pinned cells' mm2 traces: P1
    # returns a float (an interior root included), P2, the multiplier search
    # and every split update lists of floats.
    def floats(values) -> bool:
        return type(values) is list and all(type(v) is float for v in values)

    found = []
    real = solver.waterfill_mu

    def recording(*args, **kw):
        mu, shares = real(*args, **kw)
        found.append(type(mu) is float and floats(shares))
        return mu, shares

    interior = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "waterfill_mu", recording)
        for name, p in pinned.SOLVE_CELLS:
            for a in budget_solves[name, "mm2"].trace.allocations:
                power = solve_p1(p, a.phi, a.t_shares)
                assert type(power) is float, name
                interior += power < min(p.p_max_w, p.energy_budget_j / sum(a.t_shares))
                rho = optimal_rho(p, a.t_shares, power, offload_only=False)
                t, _ = solve_p2(p, a.phi, a.t_shares, power, rho)
                assert floats(t), name
                for v in VARIANTS:
                    phi, _ = getattr(solver, f"solve_p3_{v}")(p, a.phi, t, power, rho)
                    assert floats(phi), (name, v)
    assert interior >= 10 and len(found) >= 100 and all(found)


def test_stored_rho_is_the_rule_at_the_sweeps_power(budget_solves, pinned_offload_solves):
    # rho is no block variable: each sweep sets it by optimal_rho from the
    # airtime the sweep started from and the power P1 chose.
    for offload_only, solves in ((False, budget_solves), (True, pinned_offload_solves)):
        for name, p in pinned.SOLVE_CELLS:
            for v in VARIANTS:
                allocs = solves[name, v].trace.allocations
                for prev, a in zip(allocs, allocs[1:]):
                    assert a.rho == optimal_rho(p, prev.t_shares, a.power_w, offload_only), (name, v)


def test_joint_polish_finds_the_stall_at_seed0_cell6():
    # M = 1, L = 68.7 Mbit, E = 1.33 J, latency 1.25 s: every block is at its
    # own optimum at pg's answer, yet giving up airtime for local cycles gains.
    p = oracles.random_cells(0, 6)[6]
    res = bcd_solve(p, variant="pg")
    assert res.ln_p_success == pytest.approx(-11.5063, abs=1e-4)
    polished, _ = oracles.joint_polish(p, res.allocation)
    assert polished == pytest.approx(-11.4071, abs=1e-4)


def test_joint_polish_gains_from_rho_below_its_cap(budget_solves):
    p = reference_params(1, task_mbits=10.0)
    a = budget_solves["M1 L10", "pg"].allocation
    half = dataclasses.replace(a, rho=0.5 * a.rho)
    start = ln_success(p, half.phi, half.t_shares, half.power_w, half.rho)
    polished, _ = oracles.joint_polish(p, half)
    assert polished > start + 1e-3


def test_joint_polish_never_returns_below_its_start(budget_solves):
    for name, p in pinned.SOLVE_CELLS:
        for v in VARIANTS:
            res = budget_solves[name, v]
            polished, alloc = oracles.joint_polish(p, res.allocation)
            assert polished >= res.ln_p_success, (name, v)
            assert_feasible(p, alloc)
            assert polished == ln_success(p, alloc.phi, alloc.t_shares, alloc.power_w, alloc.rho)


def test_p2_never_reaches_its_step_cap(budget_solves):
    for key, res in budget_solves.items():
        assert len(res.trace.p2_evals) == res.trace.n_outer
        assert max(res.trace.p2_evals) < solver._P2_MAX_ITER, key
        assert res.trace.total_p2_evals == sum(res.trace.p2_evals)


def test_pg_split_leaves_no_round_off_share(budget_solves):
    # M = 3, L = 6.4 Mbit, E = 1.74 J, latency 1.96 s: the simplex
    # projection leaves 2.8e-16 on server 3, which P2 then spent its whole
    # step cap on.
    res = budget_solves["seed0 cell 26", "pg"]
    assert res.allocation.phi[3] == 0.0


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


def test_mm1_search_budget_on_reference_cells(budget_solves):
    # solve_ref's four cells: 89546 search evaluations with the Illinois
    # search, against a ROADMAP target of 30000; the outer loops stay those
    # of that search.  The multipliers tried fell from 1020 to 519 when
    # their search took Newton steps on the per-index slopes, and to 462
    # when each split update started from the previous one's multiplier.
    traces = [budget_solves[f"M{m} L10", "mm1"].trace for m, _ in _SOLVE_REF]
    assert sum(tr.total_search_evals for tr in traces) <= 30000
    assert sum(tr.n_outer for tr in traces) == 30
    assert sum(tr.total_mu_evals for tr in traces) == 462


def test_mm2_split_iterations_on_tail_cells(budget_solves):
    # solve_tail's two cells (M = 2, L = 20 and 25 Mbit): 169 split
    # iterations on the trust region [phi_hat / 2, 2 phi_hat] with every
    # split update's multiplier search started cold, 96 on
    # [phi_hat / 1.5, 1.5 phi_hat] with the multiplier handed across.
    assert sum(budget_solves[f"M2 L{l}", "mm2"].trace.total_inner for l in (20, 25)) <= 110


def test_mm2_does_not_crawl_at_seed1_cell17(budget_solves):
    # M = 4, L = 31.0 Mbit, E = 0.11 J, latency 1.31 s: 1574 split iterations
    # with one split loop at its cap on the wider trust region, 676 now;
    # mm1 takes 124.
    trace = budget_solves["seed1 cell 17", "mm2"].trace
    cap = inspect.signature(solver.solve_p3_mm2).parameters["max_iter"].default
    assert max(trace.inner_iterations) < cap
    assert trace.total_inner <= 700


def test_pg_tracks_mm1_on_a_four_server_cell(budget_solves):
    # M = 4, L = 10.9 Mbit, E = 1.32 J, latency 1.71 s.
    pg = budget_solves["seed1 cell 11", "pg"].ln_p_success
    mm1 = budget_solves["seed1 cell 11", "mm1"].ln_p_success
    assert abs(pg - mm1) <= 1e-4


@pytest.mark.parametrize("name", ["seed1 cell 11", "seed0 cell 26"])
def test_split_variants_agree_on_the_active_set(budget_solves, name):
    # pg's answer ends with a server at zero share and airtime; measured on
    # every share, its residual read 4e-4 there.  mm2's ray search used to
    # leave an active share below the floor, after which every split update
    # damped and stopped (9.8e-5 nats below mm1 at seed-1 cell 11).
    results = {v: budget_solves[name, v] for v in VARIANTS}
    assert results["pg"].trace.split_residual <= 1e-8
    best = max(res.ln_p_success for res in results.values())
    for v, res in results.items():
        assert res.ln_p_success >= best - 1e-6, v
    assert results["mm2"].trace.total_pathologies == 0
    assert results["mm1"].trace.total_pathologies == 0


@settings(max_examples=60, deadline=None)
@given(
    n_servers=st.integers(1, 4),
    # Per server: no airtime, a slice of the latency budget, or all of it.
    t_fracs=st.lists(st.sampled_from([0.0, 0.05, 0.3, 1.0]), min_size=4, max_size=4),
    # rho = 0 is also how an offload-only solve pins the local share.
    rho=st.sampled_from([0.0, 1e8]),
    start=st.lists(st.floats(0.05, 1.0), min_size=5, max_size=5),
    # An update that takes no step still returns a split on the active set.
    max_iter=st.sampled_from([0, 5]),
)
# On this draw mm1's curvature overflows to -inf, which sends its Newton
# search to bisection, as designed.  The blocks take float tuples, as
# bcd_solve hands them, on which the overflow raises no numpy warning.
@example(n_servers=4, t_fracs=[0.05, 0.3, 0.3, 0.3], rho=0.0, start=[1.0, 0.5, 1.0, 0.5, 1.0],
         max_iter=5)
def test_split_updates_move_only_the_active_shares(n_servers, t_fracs, rho, start, max_iter):
    p = reference_params(n_servers, task_mbits=10.0)
    t = tuple(p.latency_budget_s * f for f in t_fracs[:n_servers])
    phi_start = tuple(start[:n_servers + 1])
    active = solver._active_shares(p, t, rho)
    served = [rho > 0.0]
    served += [t[m] > 0.0 and _total(t[:m + 1]) < p.latency_budget_s for m in range(n_servers)]
    assert active == [i for i, s in enumerate(served) if s]
    pinned = [i for i, s in enumerate(served) if not s]
    for v in VARIANTS:
        update = getattr(solver, f"solve_p3_{v}")
        phi, trace = update(p, phi_start, t, 1.0, rho, max_iter=max_iter)
        if not active:
            assert np.array_equal(phi, phi_start) and trace.iterations == 0, v
            continue
        assert all(phi[i] == 0.0 for i in pinned), v
        assert sum(phi) == pytest.approx(1.0, abs=1e-9), v
