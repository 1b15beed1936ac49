import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from airalloc.special import (
    ConvergenceError,
    DegenerateCoefficientError,
    GammaWorkload,
    QuarticCoeffs,
    chi,
    ln_chi,
    ln_chi_curvature,
    ln_lower_gamma,
    ln_lower_gamma_curvature,
    regularized_lower_gamma,
    solve_cubic_real,
    solve_poly_real,
    solve_quadratic_real,
    solve_quartic_real,
)
from oracles import lower_gamma_quadrature, lower_gamma_scipy, quartic_roots_companion


# ---------------------------------------------------------------------------
# Regularized lower incomplete gamma.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shape", [0.5, 1.0, 2.0, 4.5, 10.0])
def test_lower_gamma_matches_scipy(shape):
    xs = np.concatenate([np.linspace(1e-6, 5.0, 40), np.linspace(5.0, 50.0, 40)])
    ours = np.array([regularized_lower_gamma(shape, float(x)) for x in xs])
    ref = lower_gamma_scipy(shape, xs)
    err = np.abs(ours - ref) / np.maximum(ref, 1e-300)
    assert float(err.max()) <= 1e-10


def test_lower_gamma_matches_quadrature_spot_checks():
    for shape, x in [(1.0, 0.7), (2.0, 3.0), (10.0, 9.5), (10.0, 30.0), (0.5, 0.01)]:
        ref = lower_gamma_quadrature(shape, x)
        assert regularized_lower_gamma(shape, x) == pytest.approx(ref, rel=1e-9)


def test_lower_gamma_shape_one_is_exponential_cdf():
    for x in (0.0, 0.3, 1.0, 8.0):
        assert regularized_lower_gamma(1.0, x) == pytest.approx(1.0 - math.exp(-x), abs=1e-13)


def test_lower_gamma_edge_cases():
    assert regularized_lower_gamma(2.0, 0.0) == 0.0
    assert regularized_lower_gamma(2.0, 1e6) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        regularized_lower_gamma(2.0, -1.0)
    with pytest.raises(ValueError):
        regularized_lower_gamma(0.0, 1.0)
    with pytest.raises(ValueError):
        regularized_lower_gamma(-1.0, 1.0)
    with pytest.raises(ValueError):
        regularized_lower_gamma(math.nan, 1.0)


@given(
    shape=st.floats(0.1, 50.0),
    x=st.floats(0.0, 200.0),
    bump=st.floats(1e-6, 10.0),
)
def test_lower_gamma_monotone_and_bounded(shape, x, bump):
    lo = regularized_lower_gamma(shape, x)
    hi = regularized_lower_gamma(shape, x + bump)
    assert 0.0 <= lo <= hi <= 1.0


def test_workload_validation_and_mean():
    w = GammaWorkload(shape=10.0, scale=50.0)
    assert w.mean == pytest.approx(500.0)
    with pytest.raises(ValueError):
        GammaWorkload(shape=0.0, scale=50.0)
    with pytest.raises(ValueError):
        GammaWorkload(shape=10.0, scale=-1.0)


# ---------------------------------------------------------------------------
# chi -- the fading-channel delivery kernel.
# ---------------------------------------------------------------------------


def test_chi_closed_form_and_edges():
    assert chi(0.0, 3.0) == 1.0
    assert chi(2.0, 1.5) == pytest.approx(math.exp(-(2.0 ** 2.0 - 1.0) / 1.5), rel=1e-14)
    assert chi(5000.0, 1.0) == 0.0  # underflow clamps to zero
    with pytest.raises(ValueError):
        chi(1.0, 0.0)
    with pytest.raises(ValueError):
        chi(-0.5, 1.0)


@given(
    x=st.floats(0.0, 60.0),
    y=st.floats(1e-3, 1e6),
    dx=st.floats(1e-9, 5.0),
    dy=st.floats(1e-9, 100.0),
)
def test_chi_monotone_in_both_arguments(x, y, dx, dy):
    base = chi(x, y)
    assert 0.0 <= base <= 1.0
    assert chi(x + dx, y) <= base + 1e-15
    assert chi(x, y + dy) >= base - 1e-15


def _central_slope(fn, x: float, h: float) -> float:
    """Central difference of the slope (second entry) that ``fn`` returns."""
    return (fn(x + h)[1] - fn(x - h)[1]) / (2.0 * h)


def test_ln_chi_curvature_matches_finite_differences():
    # From the bulk to the edge of the hopeless branch (x ln2 = 693 < 700).
    for y in (1e-2, 1.0, 1e3, 1e6):
        for x in (1e-3, 0.5, 3.0, 20.0, 200.0, 1000.0):
            _, slope = ln_chi(x, y)
            fd = _central_slope(lambda v: ln_chi(v, y), x, 1e-6 * max(x, 1.0))
            assert ln_chi_curvature(slope) == pytest.approx(fd, rel=1e-6)
    # Past 2**x = e**700 the slope is clamped; the curvature is the same
    # clamp times ln2: finite and negative.
    for y in (1e-2, 1.0, 1e3):
        value, slope = ln_chi(2000.0, y)
        assert value == -math.inf
        curv = ln_chi_curvature(slope)
        assert math.isfinite(curv) and curv < 0.0
        assert curv == math.log(2.0) * slope


@pytest.mark.parametrize("shape", [0.5, 1.0, 2.0, 10.0])
def test_ln_lower_gamma_curvature_matches_finite_differences(shape):
    # Deep lower tail (P(10, 1e-3) is 3e-37) through the bulk to the upper
    # tail, where the slope is of order e^-u.
    for u in np.geomspace(1e-3, 200.0, 25):
        u = float(u)
        _, slope = ln_lower_gamma(shape, u)
        fd = _central_slope(lambda v: ln_lower_gamma(shape, v), u, 1e-5 * u)
        curv = ln_lower_gamma_curvature(shape, u, slope)
        assert curv == pytest.approx(fd, rel=1e-5, abs=1e-300)


def test_ln_lower_gamma_curvature_in_the_underflow_branch():
    # P(10, u) underflows below u ~ 1e-31: the log is -inf, the slope follows
    # the deep tail, and the curvature is that slope's derivative -shape/u^2.
    shape = 10.0
    for u in (1e-35, 1e-60, 1e-120):
        value, slope = ln_lower_gamma(shape, u)
        assert value == -math.inf
        fd = _central_slope(lambda v: ln_lower_gamma(shape, v), u, 1e-5 * u)
        curv = ln_lower_gamma_curvature(shape, u, slope)
        assert math.isfinite(curv)
        assert curv == pytest.approx(fd, rel=1e-8)
        assert curv == pytest.approx(-shape / (u * u), rel=1e-12)
    # The far upper tail has a zero slope, and so a zero curvature.
    _, slope = ln_lower_gamma(shape, 2000.0)
    assert slope == 0.0 and ln_lower_gamma_curvature(shape, 2000.0, slope) == 0.0


# ---------------------------------------------------------------------------
# Closed-form quartic solver vs. the companion-matrix eigensolver.
# ---------------------------------------------------------------------------


def _planted_quartic(rng):
    """Random quartic built from known roots: k real + (4-k)/2 complex pairs."""
    k = int(rng.integers(0, 3)) * 2  # 0, 2, or 4 real roots
    real = np.sort(rng.uniform(-10.0, 10.0, size=k))
    poly = np.array([1.0])
    for r in real:
        poly = np.convolve(poly, [1.0, -r])
    for _ in range((4 - k) // 2):
        re, im = rng.uniform(-10.0, 10.0), rng.uniform(0.3, 10.0)
        poly = np.convolve(poly, [1.0, -2.0 * re, re * re + im * im])
    poly *= rng.uniform(0.2, 5.0) * rng.choice([-1.0, 1.0])
    return QuarticCoeffs(*[float(c) for c in poly]), real


def test_quartic_against_companion_matrix(rng):
    worst = 0.0
    for _ in range(400):
        q, _ = _planted_quartic(rng)
        ours = solve_quartic_real(q)
        ref = quartic_roots_companion(q.a, q.b, q.c, q.d, q.e)
        assert len(ours) == len(ref), f"root count differs for {q}"
        if ours:
            worst = max(worst, float(np.max(np.abs(np.array(ours) - np.array(ref)))))
    assert worst <= 1e-7


def test_quartic_residual_certificate(rng):
    for _ in range(200):
        q, _ = _planted_quartic(rng)
        for r in solve_quartic_real(q):
            bound = 1e-9 * max(1.0, q.norm) * max(1.0, abs(r)) ** 4
            assert abs(q(r)) <= bound


def test_quartic_known_factorizations():
    # (x-1)(x-2)(x-3)(x-4)
    q = QuarticCoeffs(1.0, -10.0, 35.0, -50.0, 24.0)
    assert solve_quartic_real(q) == pytest.approx([1.0, 2.0, 3.0, 4.0], abs=1e-10)
    # (x^2+1)^2 has no real roots
    assert solve_quartic_real(QuarticCoeffs(1.0, 0.0, 2.0, 0.0, 1.0)) == []
    # (x-2)^4: quadruple root merges to a single entry
    q = QuarticCoeffs(1.0, -8.0, 24.0, -32.0, 16.0)
    roots = solve_quartic_real(q)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(2.0, abs=1e-4)  # multiplicity-4 conditioning


def test_quartic_biquadratic_and_scaling():
    # x^4 - 5x^2 + 4 = (x^2-1)(x^2-4)
    q = QuarticCoeffs(1.0, 0.0, -5.0, 0.0, 4.0)
    assert solve_quartic_real(q) == pytest.approx([-2.0, -1.0, 1.0, 2.0], abs=1e-10)
    # Scaling all coefficients leaves the roots alone.
    q2 = QuarticCoeffs(1e-3, 0.0, -5e-3, 0.0, 4e-3)
    assert solve_quartic_real(q2) == pytest.approx([-2.0, -1.0, 1.0, 2.0], abs=1e-8)


def test_quartic_degenerate_leading_coefficient():
    with pytest.raises(DegenerateCoefficientError):
        solve_quartic_real(QuarticCoeffs(0.0, 1.0, 0.0, 0.0, -1.0))
    with pytest.raises(DegenerateCoefficientError):
        solve_quartic_real(QuarticCoeffs(0.0, 0.0, 0.0, 0.0, 0.0))


@given(st.integers(0, 2 ** 32 - 1))
def test_quartic_matches_companion_property(seed):
    rng = np.random.default_rng(seed)
    q, _ = _planted_quartic(rng)
    ours = solve_quartic_real(q)
    ref = quartic_roots_companion(q.a, q.b, q.c, q.d, q.e)
    assert len(ours) == len(ref)
    for a, b in zip(ours, ref):
        assert a == pytest.approx(b, abs=1e-7)


# ---------------------------------------------------------------------------
# Lower-degree fallbacks.
# ---------------------------------------------------------------------------


def test_cubic_real_roots():
    # (x-1)(x-2)(x-3)
    assert solve_cubic_real(1.0, -6.0, 11.0, -6.0) == pytest.approx([1.0, 2.0, 3.0], abs=1e-9)
    # x^3 + x has one real root
    assert solve_cubic_real(1.0, 0.0, 1.0, 0.0) == pytest.approx([0.0], abs=1e-9)
    # The roots do not depend on the coefficients' scale.
    for scale in (1e-165, 1e165, -1e-300):
        assert solve_cubic_real(scale, -6.0 * scale, 11.0 * scale, -6.0 * scale) == pytest.approx(
            [1.0, 2.0, 3.0], rel=1e-12
        )
    with pytest.raises(DegenerateCoefficientError):
        solve_cubic_real(0.0, 0.0, 0.0, 0.0)


def _near(x: float, ys) -> bool:
    return any(abs(x - y) <= 1e-6 * abs(x) + 1e-12 for y in ys)


@pytest.mark.parametrize("eps", [3.5e-9, 5e-9])
def test_cubic_drops_a_flat_extremum_above_the_certificate(eps):
    # (x - 1)^2 (x + 2) lifted by eps: the double root splits into a complex
    # pair whose real part passes the backward-error test but not the
    # residual certificate, so only the simple root is real.
    assert solve_cubic_real(1.0, 0.0, -3.0, 2.0 + eps) == pytest.approx([-2.0], rel=1e-9)


@pytest.mark.parametrize(
    "coeffs",
    [
        # Roots -14.5185 and a double root near 3.55130: the closed form's
        # polished candidate missed its residual certificate.
        (0.12259886724569508, 0.9091828018482832, -11.096123957156076, 22.448332147599746),
        # Roots -1.92e7 and +-3.14e-6: the closed form found only the first.
        (-5.256e-4, -10097.78, -7.128e-9, 9.930e-8),
    ],
)
def test_cubic_hard_cases_match_companion_matrix(coeffs):
    ours = solve_cubic_real(*coeffs)
    ref = quartic_roots_companion(0.0, *coeffs)
    assert len(ref) == 3
    assert all(_near(r, ours) for r in ref) and all(_near(r, ref) for r in ours)


@pytest.mark.parametrize("seed", [0, 1])
def test_cubic_finds_every_planted_root(seed):
    # Three roots in [-20, 20], every second cubic with one root repeated;
    # a double root is found to about sqrt(eps) of its size.
    rng = np.random.default_rng(seed)
    for i in range(10000):
        roots = rng.uniform(-20.0, 20.0, 3)
        if i % 2:
            roots[2] = roots[1]
        lead = rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0])
        coeffs = [float(v) for v in lead * np.poly(roots)]
        ours = solve_cubic_real(*coeffs)
        assert all(_near(r, ours) for r in roots), (coeffs, ours)


@pytest.mark.parametrize("seed", [0, 1])
def test_cubic_spread_coefficients_match_companion_matrix(seed):
    # Coefficient magnitudes spread over 1e-8..1e8: every root the
    # eigensolver reports as exactly real is found, and every returned root
    # is close to one of the eigensolver's (possibly complex) roots.
    rng = np.random.default_rng(seed)
    for _ in range(10000):
        coeffs = [float(v) for v in rng.choice([-1.0, 1.0], 4) * 10.0 ** rng.uniform(-8.0, 8.0, 4)]
        try:
            ours = solve_cubic_real(*coeffs)
        except DegenerateCoefficientError:
            continue  # |b| below 1e-14 of the largest coefficient
        ref = np.roots(coeffs)
        assert all(_near(z.real, ours) for z in ref if z.imag == 0.0), (coeffs, ours)
        for r in ours:
            assert min(abs(r - z) - 1e-6 * abs(z) for z in ref) <= 1e-12, (coeffs, ours)


def _brackets_exactly(coeffs, r: float, rel: float) -> bool:
    """The cubic changes sign between r (1 - rel) and r (1 + rel), evaluated
    in exact rational arithmetic."""
    b, c, d, e = (Fraction(v) for v in coeffs)

    def p(x):
        x = Fraction(x)
        return ((b * x + c) * x + d) * x + e

    lo, hi = p(r * (1.0 - rel)), p(r * (1.0 + rel))
    return lo == 0 or hi == 0 or (lo < 0) != (hi < 0)


@pytest.mark.parametrize(
    "coeffs",
    [
        # The bracketing search stops at an absolute 1e-13 width below
        # |x| = 1: the root -2.6177e-13 came back as -2.2833e-13 ...
        (3420521.108417245, -1.9278249563116867e-05, -2920687.213582015, -7.645573454108361e-07),
        # ... and 6.3650e-9 as 6.3649808785722344e-09 (6.0e-6 relative off).
        (-0.062128380825878814, -459.5558708622656, 19626750.479439285, -0.12492464497038974),
    ],
)
def test_cubic_small_roots_are_relatively_accurate(coeffs):
    small = [r for r in solve_cubic_real(*coeffs) if abs(r) < 1e-6]
    assert len(small) == 1
    assert _brackets_exactly(coeffs, small[0], 1e-12)


@pytest.mark.parametrize("seed", [0, 1])
def test_cubic_spread_coefficients_roots_below_one_bracket_exactly(seed):
    # Every returned root below 1 in magnitude lies within 1e-8 relative of
    # a true root: the exact cubic changes sign across r (1 +- 1e-8).
    rng = np.random.default_rng(seed)
    for _ in range(10000):
        coeffs = [float(v) for v in rng.choice([-1.0, 1.0], 4) * 10.0 ** rng.uniform(-8.0, 8.0, 4)]
        try:
            ours = solve_cubic_real(*coeffs)
        except DegenerateCoefficientError:
            continue
        for r in ours:
            if abs(r) < 1.0:
                assert _brackets_exactly(coeffs, r, 1e-8), (coeffs, r)


def test_quadratic_and_linear_fallbacks():
    assert solve_quadratic_real(1.0, -3.0, 2.0) == pytest.approx([1.0, 2.0], abs=1e-12)
    assert solve_quadratic_real(1.0, 0.0, 1.0) == []
    assert solve_quadratic_real(0.0, 2.0, -4.0) == pytest.approx([2.0], abs=1e-12)
    # Double root collapses to one entry.
    assert solve_quadratic_real(1.0, -2.0, 1.0) == pytest.approx([1.0], abs=1e-8)


def test_poly_real_degrades_gracefully():
    # Leading zeros route to the cubic/quadratic/linear paths.
    assert solve_poly_real(QuarticCoeffs(0.0, 1.0, -6.0, 11.0, -6.0)) == pytest.approx(
        [1.0, 2.0, 3.0], abs=1e-9
    )
    assert solve_poly_real(QuarticCoeffs(0.0, 0.0, 1.0, -3.0, 2.0)) == pytest.approx(
        [1.0, 2.0], abs=1e-12
    )
    assert solve_poly_real(QuarticCoeffs(0.0, 0.0, 0.0, 2.0, -4.0)) == pytest.approx(
        [2.0], abs=1e-12
    )
    # Nonzero constant: no roots anywhere.
    assert solve_poly_real(QuarticCoeffs(0.0, 0.0, 0.0, 0.0, 5.0)) == []
    with pytest.raises(ValueError):
        solve_poly_real(QuarticCoeffs(0.0, 0.0, 0.0, 0.0, 0.0))


def test_poly_real_matches_quartic_path(rng):
    for _ in range(50):
        q, _ = _planted_quartic(rng)
        assert solve_poly_real(q) == solve_quartic_real(q)
