import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from airalloc import special
from airalloc.special import (
    ConvergenceError,
    DegenerateCoefficientError,
    GammaWorkload,
    QuarticCoeffs,
    chi,
    decreasing_root_newton,
    ln_chi,
    ln_chi_curvature,
    ln_lower_gamma,
    ln_lower_gamma_curvature,
    regularized_lower_gamma,
    solve_cubic_real,
    solve_quadratic_real,
    solve_quartic_real,
)
from oracles import (
    lower_gamma_quadrature,
    lower_gamma_scipy,
    quartic_roots_companion,
    solve_poly_real,
    upper_gamma_scipy,
)


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
    # Signed zero and infinity have their limits; a NaN x or an infinite
    # shape is rejected.
    assert regularized_lower_gamma(2.0, -0.0) == 0.0
    assert regularized_lower_gamma(2.0, math.inf) == 1.0
    with pytest.raises(ValueError, match="x must be >= 0"):
        regularized_lower_gamma(2.0, math.nan)
    with pytest.raises(ValueError, match="shape must be finite"):
        regularized_lower_gamma(math.inf, 1.0)


@given(
    shape=st.floats(0.1, 50.0),
    x=st.floats(0.0, 200.0),
    bump=st.floats(1e-6, 10.0),
)
def test_lower_gamma_monotone_and_bounded(shape, x, bump):
    lo = regularized_lower_gamma(shape, x)
    hi = regularized_lower_gamma(shape, x + bump)
    assert 0.0 <= lo <= hi <= 1.0


def test_erlang_tail_matches_scipy_for_every_integral_shape_below_the_cap():
    # Q(n, x) from the finite sum, from x = n + 1 (where P > 0.5, so every
    # point takes the sum) to 745 (past which e^-x underflows).  scipy
    # flushes a subnormal Q to 0, so there the sum only has to be subnormal
    # too.
    for n in range(1, special._ERLANG_MAX_SHAPE + 1):
        xs = np.linspace(n + 1.0, 745.0, 300)
        ours = np.array([special._erlang_upper_tail(n, float(x)) for x in xs])
        ref = upper_gamma_scipy(n, xs)
        normal = ref >= sys.float_info.min
        assert normal.sum() > 200, n
        err = np.abs(ours[normal] - ref[normal]) / ref[normal]
        assert float(err.max()) <= 1e-12, n
        assert np.all(ours[~normal] < sys.float_info.min), n


@pytest.mark.parametrize("shape", [1.0, 10.0, float(special._ERLANG_MAX_SHAPE)])
def test_erlang_tail_reads_one_past_the_underflow(shape):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (750.0, 1e4):
            assert regularized_lower_gamma(shape, x) == 1.0
        assert special._erlang_upper_tail(int(shape), 1e4) == 0.0


def _summed(n, x):
    # Whether P(n, x) comes from the finite sum: its 1 - Q reaches 0.01.
    return 1.0 - special._erlang_upper_tail(n, x) >= special._ERLANG_MIN_LOWER


def _erlang_seam(n):
    # The smallest float x from which P(n, x) comes from the finite sum,
    # found by bisection on floats; below it the series runs.
    lo, hi = 0.0, float(n + 1)
    assert _summed(n, hi), n
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        lo, hi = (lo, mid) if _summed(n, mid) else (mid, hi)


def test_lower_gamma_is_continuous_where_the_series_meets_the_tail():
    # Below the seam the series, at it the finite sum: the jump between
    # neighbouring floats is the series' own truncation (it stops at 1e-12
    # relative), not a seam between two formulas.
    for n in range(1, special._ERLANG_MAX_SHAPE + 1):
        x = _erlang_seam(n)
        below = regularized_lower_gamma(n, math.nextafter(x, 0.0))
        at = regularized_lower_gamma(n, x)
        assert below <= at
        assert at - below <= 1e-11 * at, n


def test_erlang_difference_matches_scipy_from_the_seam_to_shape_plus_one():
    # Below shape + 1, from P = 0.01 on, 1 - Q keeps within 1e-13 of scipy
    # (itself within 1e-14 of 40-digit mpmath there), where the series
    # reached 7e-13 at shape 40.
    for n in range(1, special._ERLANG_MAX_SHAPE + 1):
        xs = np.linspace(_erlang_seam(n), n + 1.0, 300, endpoint=False)
        ours = np.array([regularized_lower_gamma(n, float(x)) for x in xs])
        err = np.abs(ours / lower_gamma_scipy(n, xs) - 1.0)
        assert float(err.max()) <= 1e-13, n


def test_lower_series_runs_only_below_the_seam(monkeypatch):
    # For an integral shape up to the cap, the series is called exactly
    # where the finite sum's 1 - Q falls below 0.01.
    series = special._lower_series
    calls = []

    def counted(shape, x):
        calls.append((shape, x))
        return series(shape, x)

    monkeypatch.setattr(special, "_lower_series", counted)
    for n in range(1, special._ERLANG_MAX_SHAPE + 1):
        for x in np.linspace(0.01, n + 1.0, 200):
            x = float(x)
            calls.clear()
            regularized_lower_gamma(n, x)
            assert len(calls) == (0 if _summed(n, x) else 1), (n, x)


def _series_to_the_last_bit(shape, x):
    # The lower series summed until a term no longer changes the sum, times
    # the same prefactor as special._lower_series.
    term = total = 1.0 / shape
    denom = shape
    while True:
        denom += 1.0
        term *= x / denom
        if total + term == total:
            return total * math.exp(-x + shape * math.log(x) - math.lgamma(shape))
        total += term


def test_lower_series_truncates_within_its_tolerance():
    # Near shape + 1 the terms fall slowest, and above shape 39 the remainder
    # past a 1e-12 term outweighs the term: the stop bounds the remainder.
    for shape in range(1, 201):
        for x in np.linspace(shape / 2.0, shape + 1.0, 40, endpoint=False):
            got = special._lower_series(float(shape), float(x))
            want = _series_to_the_last_bit(float(shape), float(x))
            assert abs(got / want - 1.0) <= 1e-12, (shape, x)


@pytest.mark.parametrize("shape", [0.5, 4.5, 10.5, special._ERLANG_MAX_SHAPE + 1.0, 60.0])
def test_upper_region_of_other_shapes_keeps_the_continued_fraction(shape):
    # Non-integral shapes and integral ones above the cap are bit for bit
    # one minus the continued fraction.
    for x in np.linspace(shape + 1.0, 400.0, 60):
        x = float(x)
        want = min(1.0, max(0.0, 1.0 - special._upper_continued_fraction(shape, x)))
        assert regularized_lower_gamma(shape, x) == want, x


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
# Safeguarded Newton root search.
# ---------------------------------------------------------------------------


def _counted(fd):
    calls = []

    def wrapped(x):
        calls.append(x)
        return fd(x)

    return wrapped, calls


def test_newton_root_converges_quadratically_from_inside():
    # f = 0.5 - x^3 on [0, 1] from 0.5: Newton alone, to the last bit.
    fd, calls = _counted(lambda x: (0.5 - x**3, -3.0 * x * x))
    root = decreasing_root_newton(fd, 0.0, 1.0, 0.5)
    assert root == pytest.approx(0.5 ** (1.0 / 3.0), rel=1e-15)
    assert len(calls) <= 7


def test_newton_root_bisects_down_to_a_root_near_the_floor():
    # A root six decades below the bracket's top: Newton steps from 0.5 leave
    # the bracket, and geometric bisection closes the decades in a few steps.
    fd, calls = _counted(lambda x: (math.log(2e-6 / x), -1.0 / x))
    root = decreasing_root_newton(fd, 1e-6, 1.0, 0.5)
    assert root == pytest.approx(2e-6, rel=1e-12)
    assert len(calls) <= 12


def test_newton_root_does_not_crawl_along_a_steep_wall():
    # f = e^10 - e^g with g = 500 / (2 - x) - 490, root at x = 1: from the
    # wall side each Newton step lowers g by about 1, so 200 steps from the
    # start (g = 419) would not reach it.  The search must bisect instead.
    def fd(x):
        g = 500.0 / (2.0 - x) - 490.0
        return math.exp(10.0) - math.exp(g), -math.exp(g) * 500.0 / (2.0 - x) ** 2

    wrapped, calls = _counted(fd)
    root = decreasing_root_newton(wrapped, 0.0, 1.5, 1.45)
    assert root == pytest.approx(1.0, rel=1e-13)
    assert len(calls) <= 30


def test_newton_root_bisects_past_infinite_values_and_bad_starts():
    # -inf beyond 0.9, a start outside the bracket, and a flat start.
    def fd(x):
        if x > 0.9:
            return -math.inf, -math.inf
        return 0.3 - x, -1.0

    for start in (2.0, 0.95, 0.0):
        assert decreasing_root_newton(fd, 0.0, 1.0, start) == pytest.approx(0.3, abs=1e-15)
    flat = lambda x: (0.3 - x, 0.0 if x > 0.5 else -1.0)  # noqa: E731
    assert decreasing_root_newton(flat, 0.0, 1.0, 0.75) == pytest.approx(0.3, abs=1e-15)


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


def test_quartic_coeffs_are_finite_python_floats():
    for name in "abcde":
        for bad in (math.inf, -math.inf, math.nan):
            values = dict(a=1.0, b=2.0, c=3.0, d=4.0, e=5.0)
            values[name] = bad
            with pytest.raises(ValueError, match=f"^coefficient {name} must be finite, got {bad}$"):
                QuarticCoeffs(**values)
    q = QuarticCoeffs(np.float64(1.5), np.float32(2.0), np.int64(3), 4, np.float64(-0.0))
    assert all(type(v) is float for v in (q.a, q.b, q.c, q.d, q.e))
    assert (q.a, q.b, q.c, q.d, q.e) == (1.5, 2.0, 3.0, 4.0, 0.0)
    assert math.copysign(1.0, q.e) == -1.0


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


def test_quartic_on_numpy_scalars_finds_every_root():
    # mm2's stationarity quartic mu*q_tx*q_comp + (q_tx*q_comp)' from the
    # piece of test_p32b_finds_the_root_the_closed_form_misses, with
    # np.float64 coefficients.  Run in complex128, the closed form turned
    # the roots 1.02e-6 and 1.45e-4 into a complex pair; the solver takes
    # its coefficients as Python floats, so it finds all four.
    f64 = np.float64
    tx = [f64(-48162059.35653723), f64(98.07665419603562), f64(0.9999500000042635)]
    comp = [f64(-48162062.702937976), f64(98.14485488596738), f64(0.99995)]
    mu = f64(0.0002894722279685606)
    product = np.convolve(tx, comp)
    coeffs = mu * product + np.concatenate(([0.0], product[:-1] * [4.0, 3.0, 2.0, 1.0]))
    assert all(type(c) is np.float64 for c in coeffs)
    ours = solve_quartic_real(QuarticCoeffs(*coeffs))
    assert ours == solve_quartic_real(QuarticCoeffs(*map(float, coeffs)))
    ref = quartic_roots_companion(*map(float, coeffs))
    assert len(ours) == len(ref) == 4
    assert ours == pytest.approx(ref, rel=1e-9)

    def sign(x: float) -> int:
        value = Fraction(0)
        for c in coeffs:
            value = value * Fraction(x) + Fraction(float(c))
        return (value > 0) - (value < 0)

    # Each root is bracketed to 1e-12 relative in exact arithmetic.
    for r in ours:
        assert sign(r * (1.0 - 1e-12)) == -sign(r * (1.0 + 1e-12)) != 0


@given(
    first=st.floats(-10.0, 10.0),
    gaps=st.lists(st.floats(1e-2, 5.0), min_size=3, max_size=3),
    lead=st.floats(0.1, 10.0) | st.floats(-10.0, -0.1),
    ends=st.lists(st.floats(-30.0, 30.0) | st.just(-math.inf) | st.just(math.inf),
                  min_size=2, max_size=2),
)
def test_quartic_interval_form_filters_the_whole_line(first, gaps, lead, ends):
    # Separated real roots, and interval ends that keep clear of them, so
    # a closed-form candidate lies on the same side of an end as its root.
    roots = np.cumsum([first, *gaps])
    lo, hi = sorted(ends)
    assume(all(abs(r - end) > 1e-6 * max(1.0, abs(r)) for r in roots for end in (lo, hi)))
    poly = np.array([lead])
    for r in roots:
        poly = np.convolve(poly, [1.0, -r])
    q = QuarticCoeffs(*map(float, poly))
    # The closed form's whole line: the interval form does not close the
    # sign changes it misses (mm2 brackets its one root itself).
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(special, "_close_sign_changes", lambda q, roots: roots)
        whole = solve_quartic_real(q)
    assert solve_quartic_real(q, (lo, hi)) == [r for r in whole if lo < r < hi]


@pytest.mark.parametrize("gap", [0.02, 0.012, 0.005])
def test_quartic_whole_line_finds_clustered_roots(gap):
    # Four real roots in [-10, 13], gaps drawn from [g, 2g]: the closed form
    # alone returned 2 of the 4 for 7% at g = 0.02, 30% at g = 0.012 and
    # 53% at g = 0.005 (e.g. roots 5.199, 5.211, 5.223, 5.254 gave
    # [5.1992, 5.2539]), or a point inside the cluster that no residual
    # certificate can tell from a root.  Each root comes back, closer to its
    # own planted root than to a neighbour.
    rng = np.random.default_rng(1)
    for _ in range(1000):
        roots = np.cumsum([rng.uniform(-10.0, 13.0 - 6.0 * gap), *rng.uniform(gap, 2.0 * gap, 3)])
        poly = np.poly(roots) * rng.uniform(0.2, 5.0) * rng.choice([-1.0, 1.0])
        found = solve_quartic_real(QuarticCoeffs(*map(float, poly)))
        assert len(found) == 4, (roots, found)
        assert np.max(np.abs(np.array(found) - roots)) <= 0.1 * gap


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


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_bracketed_poly_root_closes_either_sign_change(sign):
    # sign * (x - 1e-7)(x - 0.5)(x + 2) on [0, 0.25]: decreasing for sign 1,
    # increasing for -1, and the root far below 1 keeps its relative accuracy.
    coeffs = tuple(sign * v for v in (1.0, 1.5 - 1e-7, -1.0 - 1.5e-7, 1e-7))
    q = QuarticCoeffs(0.0, *coeffs)
    root = special.bracketed_poly_root(q, 0.0, 0.25, q(0.0), q(0.25))
    assert root == pytest.approx(1e-7, rel=1e-9)
    assert _brackets_exactly(coeffs, root, 1e-12)


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
