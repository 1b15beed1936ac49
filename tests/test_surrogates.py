import math

import numpy as np
import pytest
from scipy import special as sps

from airalloc.model import (
    computation_success,
    local_success,
    reference_params,
    transmission_success,
)
from airalloc.special import GammaWorkload, chi, regularized_lower_gamma
from airalloc.surrogates import (
    CONVEX_CURVATURE,
    PHI_FLOOR,
    SurrogateCoeffs,
    b_chi,
    b_gamma,
    phi_interval,
    surrogate_computation,
    surrogate_transmission,
)
from oracles import compute_arg, fd_second, link_args

_V_STAR = (3.0 - math.sqrt(5.0)) / 2.0


# ---------------------------------------------------------------------------
# Curvature floors vs. finite differences.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("y", [0.5, 1.0, 10.0, 1000.0])
def test_chi_curvature_floor_holds(y):
    B = b_chi(y)
    assert B < 0.0
    h = 2e-3
    for x in np.linspace(h, 10.0, 400):
        fd = fd_second(lambda v: chi(v, y), float(x), h)
        assert fd >= B - 1e-8, f"x={x}: fd {fd} under floor {B}"


@pytest.mark.parametrize("y", [10.0, 1000.0])
def test_chi_curvature_floor_is_attained(y):
    # The minimizing spectral efficiency lies inside [0, 10] for these SNRs,
    # so the finite difference there must essentially equal the floor.
    x_star = math.log2(_V_STAR * y)
    assert 0.1 < x_star < 9.9
    fd = fd_second(lambda v: chi(v, y), x_star, 2e-3)
    assert fd == pytest.approx(b_chi(y), rel=1e-3)


def test_chi_floor_rejects_bad_snr():
    with pytest.raises(ValueError):
        b_chi(0.0)
    with pytest.raises(ValueError):
        b_chi(-2.0)
    # Extremely deep fades degenerate to an unusable (infinite) floor.
    assert b_chi(1e-3) == -math.inf


@pytest.mark.parametrize("psi", [0.5, 2.0, 10.0])
def test_gamma_curvature_floor_holds_and_touches(psi):
    w = GammaWorkload(shape=10.0, scale=50.0)
    B = b_gamma(psi, w)
    assert B < 0.0

    def f(t):
        return regularized_lower_gamma(w.shape, psi / t)

    h = 2e-3 * psi
    for t in np.linspace(0.05 * psi, 3.0 * psi, 300):
        fd = fd_second(f, float(t), h)
        assert fd >= B - 1e-8 * max(1.0, abs(B)), f"t={t}: fd {fd} under floor {B}"

    # Floor equals the second derivative at its interior minimizer.
    a = w.shape
    t1 = psi * (a + 2.0 - math.sqrt(a + 2.0)) / ((a + 1.0) * (a + 2.0))
    assert fd_second(f, t1, 1e-5 * psi) == pytest.approx(B, rel=1e-4)


def test_gamma_floor_scales_inverse_square():
    w = GammaWorkload(shape=10.0, scale=50.0)
    assert b_gamma(2.0, w) == pytest.approx(b_gamma(1.0, w) / 4.0, rel=1e-12)
    with pytest.raises(ValueError):
        b_gamma(0.0, w)
    with pytest.raises(ValueError):
        b_gamma(math.inf, w)


# ---------------------------------------------------------------------------
# Region floors: exact minima of the true curvature over a share interval.
# ---------------------------------------------------------------------------

_SHAPE = 10.0
# Shares at which the factor is e^-20: u with P(10, u) = e^-20, and the
# spectral demand whose decode probability is e^-20 at SNR y.
_U_DEEP = float(sps.gammaincinv(_SHAPE, math.exp(-20.0)))


def _x_deep(y):
    return math.log2(1.0 + 20.0 * y)


def _region_cases(seed):
    """(phi_hat, region) pairs: trust regions and arbitrary sub-intervals."""
    rng = np.random.default_rng(seed)
    for i in range(24):
        phi_hat = float(10.0 ** rng.uniform(-3.0, 0.0))
        if i % 2:
            yield phi_hat, (phi_hat / 2.0, min(1.0, 2.0 * phi_hat))
        else:
            lo, hi = sorted(10.0 ** rng.uniform(-3.0, 0.0, 2))
            yield phi_hat, (min(float(lo), phi_hat), max(float(hi), phi_hat))


def _check_region_floor(f, floor, region):
    """The floor lies below the finite-difference curvature on the region,
    and is attained there (the true minimum, not a looser bound).  The
    tolerance covers the rounding of the second difference."""
    lo, hi = region
    h = 3e-4 * (hi - lo)
    xs = np.geomspace(lo + h, hi - h, 2001)
    fd = np.array([fd_second(f, float(x), h) for x in xs])
    tol = 1e-6 * float(np.max(np.abs(fd))) + 1e-14 * max(abs(f(float(x))) for x in xs) / h**2
    assert np.all(fd >= floor - tol), (region, floor, fd.min(), tol)
    assert floor >= fd.min() - 1e-2 * float(np.max(np.abs(fd))) - tol, (region, floor, fd.min())


def test_gamma_region_floor_matches_finite_differences():
    w = GammaWorkload(shape=_SHAPE, scale=50.0)
    rng = np.random.default_rng(11)
    for i, (phi_hat, region) in enumerate(_region_cases(12)):
        # Every third case puts the expansion point e^-20 deep in the tail.
        psi = _U_DEEP * phi_hat if i % 3 == 0 else float(10.0 ** rng.uniform(-2.0, 1.5))
        floor = b_gamma(psi, w, region)
        assert floor >= b_gamma(psi, w) * (1.0 + 1e-12)
        _check_region_floor(lambda t: regularized_lower_gamma(w.shape, psi / t), floor, region)


def test_chi_region_floor_matches_finite_differences():
    rng = np.random.default_rng(13)
    for i, (phi_hat, region) in enumerate(_region_cases(14)):
        y = float(10.0 ** rng.uniform(-0.5, 4.0))
        # Every third case decodes with probability e^-20 at phi_hat.
        c = _x_deep(y) / phi_hat if i % 3 == 0 else float(rng.uniform(0.5, 30.0))
        floor = b_chi(y, c, region)
        assert floor >= b_chi(y, c) * (1.0 + 1e-12)
        _check_region_floor(lambda v: chi(c * v, y), floor, region)


def test_region_floor_without_region_is_the_global_floor():
    w = GammaWorkload(shape=_SHAPE, scale=50.0)
    assert b_chi(1000.0, 3.0) == pytest.approx(9.0 * b_chi(1000.0), rel=1e-15)
    # A region holding the global minimizers gives the global floor.
    assert b_gamma(2.0, w, (0.01, 100.0)) == b_gamma(2.0, w)
    assert b_chi(1000.0, 3.0, (PHI_FLOOR, 100.0)) == b_chi(1000.0, 3.0)


def test_convex_region_bends_by_a_share_of_the_value():
    # The local share e^-20 deep in its tail: the factor is convex on the
    # whole trust region, so the minorant's curvature is scaled to its value.
    p = reference_params(2)
    phi_hat = 0.3
    region = (phi_hat / 2.0, 2.0 * phi_hat)
    psi = _U_DEEP * phi_hat
    rho = psi * p.task_bits * p.workload.scale
    assert b_gamma(psi, p.workload, region) >= 0.0
    q = surrogate_computation(compute_arg(p, 0, rho / p.local_speed_hz), p.workload, phi_hat, region)
    value = local_success(p, phi_hat, rho)
    assert value == pytest.approx(math.exp(-20.0), rel=1e-9)
    width = max(phi_hat - region[0], region[1] - phi_hat)
    assert q.c2 == pytest.approx(-0.5 * CONVEX_CURVATURE * value / width**2, rel=1e-12)
    assert (q.lo, q.hi) == region
    for phi in np.linspace(*region, 101):
        assert q.value(float(phi)) <= local_success(p, float(phi), rho) * (1.0 + 1e-12)


def test_chi_region_floor_survives_overflowing_links():
    # 2^(c phi) overflows a double over most of the region.
    y, c = 5.0, 2000.0
    assert b_chi(y, c, (0.3, 1.0)) == 0.0  # hopeless throughout: e^-s is 0
    # The region reaching near zero holds the global minimizer.
    assert b_chi(y, c, (1e-4, 1.0)) == pytest.approx(b_chi(y, c), rel=1e-9)
    # A hopelessly weak link (1/y > 700) has no global floor, but a finite
    # region floor: the factor is convex wherever it is defined.
    assert b_chi(1e-3) == -math.inf
    assert 0.0 <= b_chi(1e-3, 2.0, (PHI_FLOOR, 1.0)) < math.inf
    p = reference_params(1, task_mbits=100.0)
    for t_m, power in ((5e-4, 1.0), (0.1, 1e-9)):
        q = surrogate_transmission(*link_args(p, 1, t_m, power), 0.3, (PHI_FLOOR, 1.0))
        assert all(math.isfinite(v) for v in (q.c2, q.c1, q.c0))
        assert phi_interval(q, SurrogateCoeffs(c2=-1.0, c1=1.0, c0=0.0)) is None


def _trust_cases(n, seed):
    """Random links and computations, every third expansion point e^-20 deep."""
    for i, (p, m, phi_hat, t_m, power, rng) in enumerate(_random_cases(n, seed)):
        deep = i % 3 == 0
        if deep:
            c = _x_deep(power * p.mean_gains[m - 1] / p.noise_w) / phi_hat
            t_m = p.task_bits / (p.bandwidth_hz * c)
        psi = _U_DEEP * phi_hat if deep else float(rng.uniform(0.05, 5.0))
        slack = psi * p.task_bits * p.workload.scale / p.server_speeds_hz[m - 1]
        yield p, m, phi_hat, t_m, power, slack, (phi_hat / 2.0, min(1.0, 2.0 * phi_hat))


def _rounding(q, phi):
    """Bound on the rounding error of evaluating q's coefficient form."""
    return 1e-14 * ((abs(q.c2) * phi + abs(q.c1)) * phi + abs(q.c0))


def test_trust_region_surrogates_minorize_on_their_region():
    for p, m, phi_hat, t_m, power, slack, region in _trust_cases(60, seed=404):
        grid = [float(v) for v in np.linspace(region[0], region[1], 101)]
        q = surrogate_transmission(*link_args(p, m, t_m, power), phi_hat, region)
        f_hat = transmission_success(p, m, phi_hat, t_m, power)
        assert (q.lo, q.hi) == region
        assert abs(q.value(phi_hat) - f_hat) <= 1e-12 * f_hat + _rounding(q, phi_hat)
        for phi in grid:
            f = transmission_success(p, m, phi, t_m, power)
            assert q.value(phi) <= f + 1e-12 * f_hat + _rounding(q, phi)
        q = surrogate_computation(compute_arg(p, m, slack), p.workload, phi_hat, region)
        f_hat = computation_success(p, m, phi_hat, slack)
        assert abs(q.value(phi_hat) - f_hat) <= 1e-12 * f_hat + _rounding(q, phi_hat)
        for phi in grid:
            f = computation_success(p, m, phi, slack)
            assert q.value(phi) <= f + 1e-12 * f_hat + _rounding(q, phi)


# ---------------------------------------------------------------------------
# Quadratic minorants: tangency and global domination.
# ---------------------------------------------------------------------------


def test_surrogate_coeffs_validation():
    q = SurrogateCoeffs(c2=-2.0, c1=1.0, c0=0.5)
    assert q.value(0.3) == pytest.approx(-2.0 * 0.09 + 0.3 + 0.5)
    assert q.slope(0.3) == pytest.approx(-2.0 * 2.0 * 0.3 + 1.0)
    with pytest.raises(ValueError):
        SurrogateCoeffs(c2=0.1, c1=0.0, c0=0.0)
    with pytest.raises(ValueError):
        SurrogateCoeffs(c2=-1.0, c1=math.nan, c0=0.0)
    # A non-finite c2 fails the finite check before the curvature check.
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="^surrogate coefficient c2 must be finite$"):
            SurrogateCoeffs(c2=bad, c1=0.0, c0=0.0)
    with pytest.raises(ValueError, match="^surrogate coefficient c0 must be finite$"):
        SurrogateCoeffs(c2=0.1, c1=0.0, c0=-math.inf)
    with pytest.raises(ValueError, match="^surrogate curvature must be negative, got -0.0$"):
        SurrogateCoeffs(c2=-0.0, c1=0.0, c0=0.0)


def test_positive_roots_brackets_positive_region():
    q = SurrogateCoeffs(c2=-1.0, c1=1.0, c0=0.0)  # phi*(1-phi) > 0 on (0,1)
    lo, hi = q.positive_roots()
    assert (lo, hi) == pytest.approx((0.0, 1.0), abs=1e-12)
    # Strictly negative quadratic: no positive interval.
    assert SurrogateCoeffs(c2=-1.0, c1=0.0, c0=-0.1).positive_roots() is None
    # Near-linear quadratics, where the textbook formula cancels: 0.5 - phi
    # (upper root 0.5, not -0.0, so the interval still holds phi = 0.25) and
    # 2 phi - 0.4 (lower root 0.2 to 1e-10 relative, not 0.2000000165).
    q = SurrogateCoeffs(c2=-1e-20, c1=-1.0, c0=0.5)
    lo, hi = q.positive_roots()
    assert lo == pytest.approx(-1e20, rel=1e-12) and hi == pytest.approx(0.5, rel=1e-15)
    assert phi_interval(None, q) == (PHI_FLOOR, 0.5)
    lo, hi = SurrogateCoeffs(c2=-1e-9, c1=2.0, c0=-0.4).positive_roots()
    assert lo == pytest.approx(0.2 + 2e-11, rel=1e-10) and hi == pytest.approx(2e9, rel=1e-9)


def _random_cases(n, seed):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        m_srv = int(rng.integers(1, 4))
        p = reference_params(m_srv, task_mbits=float(rng.uniform(5.0, 30.0)))
        m = int(rng.integers(1, m_srv + 1))
        t_m = float(rng.uniform(0.05, 0.8 / m_srv))
        power = float(rng.uniform(0.3, 1.0))
        phi_hat = float(rng.uniform(0.02, 0.95))
        yield p, m, phi_hat, t_m, power, rng


def test_transmission_surrogate_minorizes_everywhere():
    grid = np.linspace(PHI_FLOOR, 1.0, 100)
    for p, m, phi_hat, t_m, power, _ in _random_cases(40, seed=101):
        q = surrogate_transmission(*link_args(p, m, t_m, power), phi_hat, (PHI_FLOOR, 1.0))
        f_hat = transmission_success(p, m, phi_hat, t_m, power)
        assert q.value(phi_hat) == pytest.approx(f_hat, abs=1e-12)
        for phi in grid:
            f = transmission_success(p, m, float(phi), t_m, power)
            assert q.value(float(phi)) <= f + 1e-9


def test_computation_surrogate_minorizes_everywhere():
    grid = np.linspace(PHI_FLOOR, 1.0, 100)
    for p, m, phi_hat, t_m, _power, rng in _random_cases(40, seed=202):
        slack = float(rng.uniform(0.05, p.latency_budget_s - t_m))
        q = surrogate_computation(compute_arg(p, m, slack), p.workload, phi_hat, (PHI_FLOOR, 1.0))
        f_hat = computation_success(p, m, phi_hat, slack)
        assert q.value(phi_hat) == pytest.approx(f_hat, abs=1e-12)
        for phi in grid:
            f = computation_success(p, m, float(phi), slack)
            assert q.value(float(phi)) <= f + 1e-9


def test_local_surrogate_uses_cycle_time_budget():
    p = reference_params(2)
    rho = 4e8
    slack = rho / p.local_speed_hz
    q = surrogate_computation(compute_arg(p, 0, slack), p.workload, 0.05, (PHI_FLOOR, 1.0))
    assert q.value(0.05) == pytest.approx(local_success(p, 0.05, rho), abs=1e-12)
    for phi in np.linspace(PHI_FLOOR, 1.0, 50):
        assert q.value(float(phi)) <= local_success(p, float(phi), rho) + 1e-9


def test_surrogate_slope_matches_finite_difference():
    for p, m, phi_hat, t_m, power, _ in _random_cases(10, seed=303):
        q = surrogate_transmission(*link_args(p, m, t_m, power), phi_hat, (PHI_FLOOR, 1.0))
        h = 1e-6
        fd = (
            transmission_success(p, m, phi_hat + h, t_m, power)
            - transmission_success(p, m, phi_hat - h, t_m, power)
        ) / (2.0 * h)
        assert q.slope(phi_hat) == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_surrogate_argument_validation():
    # The factor arguments are checked where they are used: a non-positive
    # expansion point, one outside the region or link scale c by the
    # surrogates, y by b_chi and psi by b_gamma.
    w, region = GammaWorkload(10.0, 50.0), (PHI_FLOOR, 1.0)
    surrogate_transmission(1e3, 2.0, 0.5, region)
    surrogate_computation(1.0, w, 0.5, region)
    for phi_hat in (0.0, -0.1, math.nan):
        with pytest.raises(ValueError, match="expansion point"):
            surrogate_transmission(1e3, 2.0, phi_hat, region)
        with pytest.raises(ValueError, match="expansion point"):
            surrogate_computation(1.0, w, phi_hat, region)
    for outside in ((0.6, 1.0), (PHI_FLOOR, 0.4)):
        with pytest.raises(ValueError, match="must lie in the region"):
            surrogate_transmission(1e3, 2.0, 0.5, outside)
        with pytest.raises(ValueError, match="must lie in the region"):
            surrogate_computation(1.0, w, 0.5, outside)
    for c in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="c must be"):
            surrogate_transmission(1e3, c, 0.5, region)
    for y in (0.0, -2.0):
        with pytest.raises(ValueError, match="y must be"):
            surrogate_transmission(y, 2.0, 0.5, region)
    for psi in (0.0, -0.1, math.inf, math.nan):
        with pytest.raises(ValueError, match="psi must be"):
            surrogate_computation(psi, w, 0.5, region)


# ---------------------------------------------------------------------------
# Share interval intersection.
# ---------------------------------------------------------------------------


def _quad_positive_on(lo, hi):
    # -(phi - lo)(phi - hi), positive exactly on (lo, hi).
    return SurrogateCoeffs(c2=-1.0, c1=lo + hi, c0=-lo * hi)


def test_phi_interval_intersects():
    q1 = _quad_positive_on(0.2, 0.6)
    q2 = _quad_positive_on(0.4, 0.9)
    lo, hi = phi_interval(q1, q2)
    assert (lo, hi) == pytest.approx((0.4, 0.6), abs=1e-12)
    # Missing transmission surrogate (local share) just drops that factor.
    lo, hi = phi_interval(None, q2)
    assert (lo, hi) == pytest.approx((0.4, 0.9), abs=1e-12)


def test_phi_interval_applies_floor_and_cap():
    q = _quad_positive_on(-1.0, 2.0)
    lo, hi = phi_interval(None, q)
    assert lo == PHI_FLOOR and hi == 1.0


def test_phi_interval_stays_inside_each_region():
    q = SurrogateCoeffs(c2=-1.0, c1=1.0, c0=0.0, lo=0.3, hi=0.5)
    assert phi_interval(None, q) == (0.3, 0.5)
    assert phi_interval(_quad_positive_on(0.4, 0.9), q) == pytest.approx((0.4, 0.5), abs=1e-12)


def test_phi_interval_empty_cases():
    assert phi_interval(_quad_positive_on(0.1, 0.2), _quad_positive_on(0.5, 0.9)) is None
    assert phi_interval(None, SurrogateCoeffs(c2=-1.0, c1=0.0, c0=-0.5)) is None
    # Positive region entirely below the floor.
    assert phi_interval(None, _quad_positive_on(-0.5, PHI_FLOOR / 2.0)) is None
