"""Scalar special functions shared by the outage model and the solvers.

The incomplete-gamma evaluation, the bracketed root search and the
polynomial solvers are implemented from first principles because the solver
loops call them many thousands of times and the test suite checks them
against independent quadrature / companion-matrix oracles.  The incomplete
gamma P(shape, x) has three branches.  For an integral shape up to 40 it is
one minus the finite Erlang tail sum wherever that reads at least 0.01, and
the power series below.  For every other shape it is the power series below
shape + 1 and one minus a continued fraction above it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

__all__ = [
    "ConvergenceError",
    "DegenerateCoefficientError",
    "GammaWorkload",
    "QuarticCoeffs",
    "regularized_lower_gamma",
    "chi",
    "ln_chi",
    "ln_chi_curvature",
    "ln_lower_gamma",
    "ln_lower_gamma_value",
    "ln_lower_gamma_curvature",
    "decreasing_root",
    "decreasing_root_newton",
    "bracketed_poly_root",
    "solve_quartic_real",
    "solve_cubic_real",
    "solve_quadratic_real",
]

_LN2 = math.log(2.0)
# e**x overflows float64 just past x = 709.78: a factor whose exponent passes
# this limit counts as hopeless (or its term as 0) instead.
_EXP_LIMIT = 700.0
_MAX_ITER = 500
_REL_TOL = 1e-12
_FPMIN = 1e-300
# Largest integral shape whose P comes from the finite sum rather than the
# series or the continued fraction.  The sum takes one step per unit of
# shape, the fraction fewer terms the farther x lies past the shape.  At
# shape 40 the sum is 3x faster at x = 41.5, even near x = 85 and 10% slower
# at x = 165; below x = 41 it takes 2.2 us from P = 0.01 (x = 26.8) on, where
# the series takes 2.8-4.2 us (at shape 10: 0.7 us against 1.8-2.6 us).
# 2-vCPU Xeon, Python 3.11.
_ERLANG_MAX_SHAPE = 40
# Below shape + 1 the finite sum gives P = 1 - Q as long as P is not so small
# that the subtraction cancels: from P = 0.01 on it loses at most a factor 100
# of Q's relative rounding.  Below that the series runs, after a sum spent in
# vain (437 of 6,067 calls in one pass of the benchmark's deep-outage cells).
_ERLANG_MIN_LOWER = 0.01

# Residual certificate, root-merging and realness tolerances for the
# polynomial solvers.
_RESIDUAL_TOL = 1e-9
_ROOT_MERGE_TOL = 1e-8
_IMAG_TOL = 1e-8
_DEGENERATE_REL = 1e-14

# Relative bracket width and step budget of the bracketed root search.
_ROOT_XTOL = 1e-13
_ROOT_MAX_ITER = 200


class ConvergenceError(RuntimeError):
    """An iterative evaluation failed to reach its tolerance."""


class DegenerateCoefficientError(ValueError):
    """Leading coefficient is (numerically) zero for the requested degree."""


@dataclass(frozen=True)
class GammaWorkload:
    """Gamma-distributed per-bit processing demand (cycles per bit).

    ``shape`` and ``scale`` are the usual Gamma parameters; the mean demand
    is ``shape * scale`` cycles per bit.
    """

    shape: float
    scale: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.shape) and self.shape > 0.0):
            raise ValueError(f"workload shape must be finite and > 0, got {self.shape}")
        if not (math.isfinite(self.scale) and self.scale > 0.0):
            raise ValueError(f"workload scale must be finite and > 0, got {self.scale}")

    @property
    def mean(self) -> float:
        return self.shape * self.scale


def _lower_series(shape: float, x: float) -> float:
    # Power series around zero; effective for x < shape + 1.  It stops once
    # the term and the geometric bound on the rest, term * x / (denom + 1 - x),
    # are both below the tolerance; the bound is the larger while 2x > denom + 1.
    term = 1.0 / shape
    total = term
    denom = shape
    for _ in range(_MAX_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if term < total * _REL_TOL and term * x / (denom + 1.0 - x) < total * _REL_TOL:
            return total * math.exp(-x + shape * math.log(x) - math.lgamma(shape))
    raise ConvergenceError(f"lower-gamma series stalled at shape={shape}, x={x}")


def _upper_continued_fraction(shape: float, x: float) -> float:
    # Modified Lentz evaluation of the upper-tail continued fraction.
    b = x + 1.0 - shape
    c = 1.0 / _FPMIN
    d = 1.0 / b if b != 0.0 else 1.0 / _FPMIN
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - shape)
        b += 2.0
        d = an * d + b
        if -_FPMIN < d < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if -_FPMIN < c < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if -_REL_TOL < delta - 1.0 < _REL_TOL:
            return h * math.exp(-x + shape * math.log(x) - math.lgamma(shape))
    raise ConvergenceError(f"upper-gamma continued fraction stalled at shape={shape}, x={x}")


def _erlang_upper_tail(n: int, x: float) -> float:
    # Q(n, x) = e^-x sum_{k<n} x^k / k! for an integral shape n (DLMF 8.4.10).
    # The sum runs on e^(-x/2) and the product takes the other half, so the
    # tail keeps full relative accuracy past x = 745, where e^-x underflows,
    # and reads 0 only once it underflows itself; below the shape cap no
    # term overflows.
    half = math.exp(-0.5 * x)
    term = total = half
    for k in range(1, n):
        term *= x / k
        total += term
    return total * half


def regularized_lower_gamma(shape: float, x: float) -> float:
    """Regularized lower incomplete gamma P(shape, x) in [0, 1].

    For an integral shape up to 40, one minus the finite Erlang tail sum
    wherever that difference is at least 0.01, at every x >= shape + 1
    among them, and the power series below that point.  The sum is exact
    up to rounding: against 40-digit mpmath the relative error of the
    difference stays below about 1e-13 from 0.01 up to shape + 1.  For
    every other shape, the series below ``shape + 1`` and one minus the
    continued fraction above it.  The series stops once its remainder is
    bounded below 1e-12 of its sum, and the fraction once a step moves it
    by less than 1e-12 relative.  The series' prefactor adds its own
    rounding: for a non-integral shape or one above 40, the relative error
    against 40-digit mpmath below shape + 1 reaches about 1.1e-12 at shape
    200.
    """
    if not 0.0 < shape < math.inf:
        raise ValueError(f"shape must be finite and > 0, got {shape}")
    if not 0.0 < x < math.inf:
        if x == 0.0:
            return 0.0
        if x == math.inf:
            return 1.0
        raise ValueError(f"x must be >= 0, got {x}")
    n = int(shape)
    if n == shape and n <= _ERLANG_MAX_SHAPE:
        lower = 1.0 - _erlang_upper_tail(n, x)
        if lower >= _ERLANG_MIN_LOWER:
            return lower
        return _lower_series(shape, x)
    if x < shape + 1.0:
        return min(1.0, _lower_series(shape, x))
    return min(1.0, max(0.0, 1.0 - _upper_continued_fraction(shape, x)))


def chi(x: float, y: float) -> float:
    """Success kernel exp(-(2**x - 1) / y) for a unit-mean exponential gain.

    ``x`` is the spectral-efficiency demand (bits/s/Hz) and ``y`` the mean
    receive SNR; the value is the probability that a rate-x transmission
    succeeds within its slot.
    """
    if math.isnan(x) or x < 0.0:
        raise ValueError(f"x must be >= 0, got {x}")
    if not (y > 0.0):
        raise ValueError(f"y must be > 0, got {y}")
    return math.exp(ln_chi(x, y)[0])


def ln_chi(x: float, y: float) -> tuple[float, float]:
    """ln chi(x, y) = -(2**x - 1) / y and its x-derivative -ln2 * 2**x / y.

    Defined for x >= 0 and y > 0 (unchecked: the solvers call this in their
    innermost loops).  Past 2**x = e**700 the link is hopeless: the log is
    -inf and the derivative stays at its finite value there, so chain rules
    built on it never produce 0 * inf.
    """
    t = x * _LN2
    if t > _EXP_LIMIT:
        return -math.inf, -_LN2 * math.exp(_EXP_LIMIT) / y
    em1 = math.expm1(t)
    return -em1 / y, -_LN2 * (em1 + 1.0) / y


def ln_chi_curvature(slope: float) -> float:
    """Second x-derivative of ln chi from ``slope``, the first one that
    :func:`ln_chi` returns: d/dx 2**x = ln2 * 2**x, so it is ln2 * slope.
    At a hopeless link the clamped slope gives the matching finite value."""
    return _LN2 * slope


def ln_lower_gamma(shape: float, u: float) -> tuple[float, float]:
    """ln P(shape, u) and its u-derivative, safe against underflow of either.

    A non-positive ``u`` gives (-inf, inf).  When P underflows to zero the
    log is -inf and the derivative follows the deep lower tail
    P ~ u^shape e^{-u} / Gamma(shape + 1) * S(u).
    """
    if u <= 0.0:
        return -math.inf, math.inf
    g = regularized_lower_gamma(shape, u)
    if g == 0.0:
        return -math.inf, shape / u - shape / (shape + 1.0)
    log_num = (shape - 1.0) * math.log(u) - u - math.lgamma(shape)
    return math.log(g), (math.exp(log_num) / g if log_num > -_EXP_LIMIT else 0.0)


def ln_lower_gamma_value(shape: float, u: float) -> float:
    """ln P(shape, u) of :func:`ln_lower_gamma`, without its slope."""
    g = 0.0 if u <= 0.0 else regularized_lower_gamma(shape, u)
    return math.log(g) if g > 0.0 else -math.inf


def ln_lower_gamma_curvature(shape: float, u: float, slope: float) -> float:
    """Second u-derivative of ln P(shape, u) from ``slope``, the first one
    that :func:`ln_lower_gamma` returns at the same u > 0 (unchecked).

    P' = u^(shape - 1) e^-u / Gamma(shape) gives P'' = P' ((shape - 1)/u - 1),
    so (ln P)'' = P''/P - slope^2 = slope ((shape - 1)/u - 1 - slope).  Both
    of ln_lower_gamma's special slopes give finite values: the far upper
    tail's 0 gives 0, and the underflow branch's shape/u - shape/(shape + 1)
    gives -shape/u^2 + shape/(shape + 1)^2, the deep tail's curvature up to
    the O(1) term that slope drops.  Finite for u above 1e-150.
    """
    return slope * ((shape - 1.0) / u - 1.0 - slope)


def decreasing_root(
    f: Callable[[float], float], a: float, b: float, fa: float, fb: float
) -> float:
    """Illinois search for f(x) = 0 with f decreasing and f(a) > 0 > f(b).

    The caller supplies the end values it has already computed.  Infinite
    end values fall back to bisection; the search stops on an exact zero or
    once the bracket is narrower than 1e-13 relative to max(1, |b|).
    """
    side = 0
    for _ in range(_ROOT_MAX_ITER):
        if math.isfinite(fa) and math.isfinite(fb) and fb != fa:
            x = (a * fb - b * fa) / (fb - fa)
            if not a < x < b:
                x = 0.5 * (a + b)
        else:
            x = 0.5 * (a + b)
        fx = f(x)
        if fx == 0.0 or b - a < _ROOT_XTOL * max(1.0, abs(b)):
            return x
        if fx > 0.0:
            a, fa = x, fx
            if side == -1 and math.isfinite(fb):
                fb *= 0.5
            side = -1
        else:
            b, fb = x, fx
            if side == 1 and math.isfinite(fa):
                fa *= 0.5
            side = 1
    return 0.5 * (a + b)


def decreasing_root_newton(
    fd: Callable[[float], tuple[float, float]], a: float, b: float, x: float
) -> float:
    """Safeguarded Newton search for f(x) = 0 with f decreasing and
    f(a) > 0 > f(b); ``fd`` returns f and its derivative at one call.

    Starts at ``x`` (by bisection when it is not strictly inside [a, b]) and
    keeps [a, b] around the root.  A Newton step below 1e-13 relative to
    max(1, |x|) ends the search before the bracket test, since from a
    one-sided approach the converged step rounds onto a bracket end.  Falls
    back to bisection, as in Numerical Recipes' ``rtsafe``, on a non-finite
    f, a slope that is not negative, a step that leaves the bracket, or one
    longer than half the step before last (a crawl along a steep wall):
    geometric while the bracket spans more than a factor 4 (the root may lie
    decades below b), arithmetic after.  Also stops on an exact zero, on a
    bracket narrower than 1e-13 relative to max(1, |b|), or after 200
    evaluations.
    """
    if not a < x < b:
        x = _bisection_point(a, b)
    step = step_old = b - a
    for _ in range(_ROOT_MAX_ITER):
        fx, slope = fd(x)
        if fx == 0.0:
            return x
        if fx > 0.0:
            a = x
        else:
            b = x
        if math.isfinite(fx) and -math.inf < slope < 0.0:
            newton = fx / slope
            if abs(newton) <= _ROOT_XTOL * max(1.0, abs(x)):
                return min(max(x - newton, a), b)
            if a < x - newton < b and 2.0 * abs(newton) <= abs(step_old):
                step_old, step = step, newton
                x -= newton
                continue
        if b - a < _ROOT_XTOL * max(1.0, abs(b)):
            break
        x_new = _bisection_point(a, b)
        step_old, step = step, x - x_new
        x = x_new
    return 0.5 * (a + b)


def _bisection_point(a: float, b: float) -> float:
    return math.sqrt(a * b) if a > 0.0 and b > 4.0 * a else 0.5 * (a + b)


# ---------------------------------------------------------------------------
# Polynomial solvers.
# ---------------------------------------------------------------------------


class _QuarticFields(NamedTuple):
    a: float
    b: float
    c: float
    d: float
    e: float


class QuarticCoeffs(_QuarticFields):
    """Real coefficients of a*x^4 + b*x^3 + c*x^2 + d*x + e: an immutable
    tuple of finite Python floats, which unpacks as (a, b, c, d, e)."""

    __slots__ = ()

    def __new__(cls, a: float, b: float, c: float, d: float, e: float) -> QuarticCoeffs:
        # Python floats: numpy scalars are slow in the closed form, and
        # np.float64 + complex is complex128, whose cube root rounds unlike
        # Python's complex.
        values = a, b, c, d, e = float(a), float(b), float(c), float(d), float(e)
        if not (-math.inf < a < math.inf and -math.inf < b < math.inf and -math.inf < c < math.inf
                and -math.inf < d < math.inf and -math.inf < e < math.inf):
            name, v = next((n, v) for n, v in zip(cls._fields, values) if not math.isfinite(v))
            raise ValueError(f"coefficient {name} must be finite, got {v}")
        return tuple.__new__(cls, values)

    @property
    def norm(self) -> float:
        return max(abs(self.a), abs(self.b), abs(self.c), abs(self.d), abs(self.e))

    def __call__(self, x):
        # Horner evaluation; works for real and complex arguments.
        return (((self.a * x + self.b) * x + self.c) * x + self.d) * x + self.e


_OMEGA = complex(-0.5, math.sqrt(3.0) / 2.0)  # primitive cube root of unity
# The factors (omega^(k-1), omega^((4-k) mod 3)), k = 1, 2, 3, of the
# resolvent cubic's three roots.
_OMEGA_PAIRS = tuple((_OMEGA ** (k - 1), _OMEGA ** ((4 - k) % 3)) for k in (1, 2, 3))


def _quartic_closed_form(a: float, b: float, c: float, d: float, e: float) -> list[complex]:
    """All four roots of a non-degenerate quartic via nested radicals.

    Resolvent-cubic combination: three candidate pairings are formed with the
    cube roots of unity and the one with the largest |M| is kept, which avoids
    catastrophic cancellation in the final square roots.
    """
    p_res = (c * c - 3.0 * b * d + 12.0 * a * e) / 9.0
    u_res = (
        2.0 * c**3 - 9.0 * b * c * d + 27.0 * b * b * e + 27.0 * a * d * d - 72.0 * a * c * e
    ) / 54.0
    disc = complex(u_res * u_res - p_res**3)
    droot = cmath.sqrt(disc)
    # Pick the additive branch of larger magnitude before taking the cube root.
    ucube = u_res + droot if abs(u_res + droot) >= abs(u_res - droot) else u_res - droot
    if ucube == 0:
        u1 = 0j
        v1 = 0j
    else:
        u1 = ucube ** (1.0 / 3.0)
        v1 = p_res / u1

    best_y = 0j
    best_m2 = 0j
    for w_u, w_v in _OMEGA_PAIRS:
        y = w_u * u1 + w_v * v1
        m2 = b * b - (8.0 / 3.0) * a * c + 4.0 * a * y
        if abs(m2) >= abs(best_m2):
            best_m2 = m2
            best_y = y

    m_scale = max(b * b, abs(a * c), abs(a) * (abs(u1) + abs(v1)), 1e-30)
    if abs(best_m2) <= 1e-12 * m_scale:
        # All pairings collapse: (near) quadruple/double structure.
        s0 = complex(b * b - (8.0 / 3.0) * a * c)
        sq = cmath.sqrt(s0)
        r1 = (-b + sq) / (4.0 * a)
        r2 = (-b - sq) / (4.0 * a)
        return [r1, r1, r2, r2]

    m = cmath.sqrt(best_m2)
    s = 2.0 * b * b - (16.0 / 3.0) * a * c - 4.0 * a * best_y
    t = (8.0 * a * b * c - 16.0 * a * a * d - 2.0 * b**3) / m
    sq_minus = cmath.sqrt(s - t)
    sq_plus = cmath.sqrt(s + t)
    inv = 1.0 / (4.0 * a)
    return [
        (-b - m + sq_minus) * inv,
        (-b - m - sq_minus) * inv,
        (-b + m + sq_plus) * inv,
        (-b + m - sq_plus) * inv,
    ]


def _polish_complex(q: QuarticCoeffs, z: complex, steps: int) -> complex:
    a, b, c, d, e = q
    a4, b3, c2 = 4.0 * a, 3.0 * b, 2.0 * c
    for _ in range(steps):
        dq = ((a4 * z + b3) * z + c2) * z + d
        if dq == 0:
            break
        z_next = z - ((((a * z + b) * z + c) * z + d) * z + e) / dq
        if not (math.isfinite(z_next.real) and math.isfinite(z_next.imag)):
            break
        z = z_next
    return z


def _polish_real(q: QuarticCoeffs, x: float, steps: int) -> float:
    # Guarded Newton: only accept steps that reduce the residual.
    a, b, c, d, e = q
    a4, b3, c2 = 4.0 * a, 3.0 * b, 2.0 * c
    fx = (((a * x + b) * x + c) * x + d) * x + e
    for _ in range(steps):
        dq = ((a4 * x + b3) * x + c2) * x + d
        if dq == 0.0:
            break
        x_next = x - fx / dq
        if not math.isfinite(x_next):
            break
        f_next = (((a * x_next + b) * x_next + c) * x_next + d) * x_next + e
        if abs(f_next) >= abs(fx):
            break
        x, fx = x_next, f_next
    return x


def bracketed_poly_root(q: QuarticCoeffs, lo: float, hi: float, f_lo: float, f_hi: float) -> float:
    """The root of ``q`` in [lo, hi], whose end values ``f_lo`` and ``f_hi``
    differ in sign: :func:`decreasing_root` on q signed to decrease, then
    four guarded Newton steps.  The search stops at an absolute bracket
    below |x| = 1; Newton restores the relative accuracy of roots far below
    1."""
    sign = math.copysign(1.0, f_lo)
    root = decreasing_root(lambda x: sign * q(x), lo, hi, sign * f_lo, sign * f_hi)
    return _polish_real(q, root, 4)


def _merge_sorted_roots(roots: list[float], tol: float) -> list[float]:
    merged: list[float] = []
    for r in sorted(roots):
        if merged and abs(r - merged[-1]) <= tol:
            continue
        merged.append(r)
    return merged


def _residual_bound(norm: float, r: float, degree: int) -> float:
    return _RESIDUAL_TOL * max(1.0, norm) * max(1.0, abs(r)) ** degree


def _certified(q: QuarticCoeffs, roots: list[float], degree: int, norm: float) -> list[float]:
    """Merge duplicate roots of ``q`` (whose ``norm`` the caller gives) at
    1e-8 and certify every residual:
    |q(r)| <= 1e-9 * max(1, ||q||_inf) * max(1, |r|)^degree, the root-size
    factor accounting for Horner evaluation noise away from the origin."""
    merged = _merge_sorted_roots(roots, _ROOT_MERGE_TOL)
    a, b, c, d, e = q
    for r in merged:
        residual = (((a * r + b) * r + c) * r + d) * r + e
        bound = _residual_bound(norm, r, degree)
        if abs(residual) > bound:
            raise ConvergenceError(
                f"degree-{degree} root {r} has residual {residual:.3e} above bound {bound:.3e}"
            )
    return merged


def solve_quartic_real(
    coeffs: QuarticCoeffs, interval: tuple[float, float] = (-math.inf, math.inf)
) -> list[float]:
    """Real roots of a quartic inside the open ``interval`` (default: the
    whole line), ascending, with duplicates merged at 1e-8.

    Every returned root carries a residual certificate
    |q(r)| <= 1e-9 * max(1, ||coeffs||_inf) * max(1, |r|)^4.  A closed-form
    root candidate whose real part lies inside the interval is
    Newton-polished and counts as real when its imaginary part is then at
    most 1e-8 in magnitude; candidates outside it are neither polished nor
    certified.  On the whole line every sign change between the roots of
    the derivative yields one root, also where the closed form misses it
    (:func:`_close_sign_changes`); an interval only gets the closed form's
    candidates.
    Raises :class:`DegenerateCoefficientError` when the leading coefficient is
    numerically zero.
    """
    a, b, c, d, e = coeffs
    norm = coeffs.norm
    if norm == 0.0:
        raise DegenerateCoefficientError("all quartic coefficients are zero")
    if abs(a) < _DEGENERATE_REL * norm:
        raise DegenerateCoefficientError(
            f"leading coefficient {a} is degenerate relative to ||coeffs||={norm}"
        )

    lo, hi = interval
    real_roots = []
    for z in _quartic_closed_form(a, b, c, d, e):
        if lo < z.real < hi:
            z = _polish_complex(coeffs, z, 4)
            if abs(z.imag) <= _IMAG_TOL:
                real_roots.append(_polish_real(coeffs, z.real, 8))
    if lo == -math.inf and hi == math.inf:
        real_roots = _close_sign_changes(coeffs, real_roots)
    return [r for r in _certified(coeffs, real_roots, 4, norm) if lo < r < hi]


def _close_sign_changes(q: QuarticCoeffs, roots: list[float]) -> list[float]:
    """Check the closed form's real roots of ``q`` against its monotone
    pieces: the real roots of the derivative cubic and the Cauchy radius
    split the line, as in :func:`solve_cubic_real`, and a piece whose ends
    differ in sign holds exactly one root.  Where the closed form put no
    candidate or several there (clustered roots, whose cluster the residual
    certificate cannot resolve), the piece's root comes from
    :func:`bracketed_poly_root` instead."""
    radius = 1.0 + max(abs(q.b), abs(q.c), abs(q.d), abs(q.e)) / abs(q.a)
    turns = solve_cubic_real(4.0 * q.a, 3.0 * q.b, 2.0 * q.c, q.d)
    xs = [-radius, *(x for x in turns if -radius < x < radius), radius]
    vals = [q(x) for x in xs]
    kept = list(roots)
    for x0, x1, f0, f1 in zip(xs, xs[1:], vals, vals[1:]):
        if f0 == 0.0 or f1 == 0.0 or (f0 < 0.0) == (f1 < 0.0):
            continue
        inside = [r for r in roots if x0 <= r <= x1]
        if len(inside) == 1:
            continue
        kept = [r for r in kept if r not in inside]
        kept.append(bracketed_poly_root(q, x0, x1, f0, f1))
    return kept


def solve_cubic_real(b: float, c: float, d: float, e: float) -> list[float]:
    """Real roots of b*x^3 + c*x^2 + d*x + e (ascending, merged), with the
    quartic's residual certificate at degree 3.

    The real roots of the derivative, from the stable quadratic formula,
    split the line into monotone pieces; the Cauchy radius
    1 + max(|c|, |d|, |e|) / |b| bounds the outer two, since every root lies
    inside it.  Every sign change between neighbouring breakpoints is closed
    by :func:`bracketed_poly_root`.
    A derivative root with no sign change on either side counts as a
    multiple root when it passes the certificate and is an exact root of the
    cubic with every coefficient moved by at most 1e-9 relative,
    |p(x)| <= 1e-9 * (|b||x|^3 + |c|x^2 + |d||x| + |e|); otherwise it is
    the real part of a complex pair.  The search runs on the cubic scaled by
    a power of two to unit norm, which is exact and keeps the results
    independent of the coefficients' scale.
    """
    b, c, d, e = float(b), float(c), float(d), float(e)  # numpy scalars are slow here
    poly = QuarticCoeffs(0.0, b, c, d, e)
    norm = poly.norm
    if norm == 0.0:
        raise DegenerateCoefficientError("all cubic coefficients are zero")
    if abs(b) < _DEGENERATE_REL * norm:
        raise DegenerateCoefficientError("cubic leading coefficient is degenerate")

    k = -math.frexp(norm)[1]
    unit = QuarticCoeffs(0.0, math.ldexp(b, k), math.ldexp(c, k), math.ldexp(d, k), math.ldexp(e, k))
    radius = 1.0 + max(abs(c), abs(d), abs(e)) / abs(b)
    xs = [-radius, *solve_quadratic_real(3.0 * unit.b, 2.0 * unit.c, unit.d), radius]
    vals = [unit(x) for x in xs]
    changes = [f_lo != 0.0 and f_hi != 0.0 and (f_lo < 0.0) != (f_hi < 0.0)
               for f_lo, f_hi in zip(vals, vals[1:])]
    roots = []
    for lo, hi, f_lo, f_hi, change in zip(xs, xs[1:], vals, vals[1:], changes):
        if change:
            roots.append(bracketed_poly_root(unit, lo, hi, f_lo, f_hi))
    for i in range(1, len(xs) - 1):
        if changes[i - 1] or changes[i]:
            continue
        x = abs(xs[i])
        backward = _RESIDUAL_TOL * (((abs(b) * x + abs(c)) * x + abs(d)) * x + abs(e))
        if abs(poly(xs[i])) <= min(backward, _residual_bound(norm, x, 3)):
            roots.append(xs[i])
    return _certified(poly, roots, 3, norm)


def solve_quadratic_real(c: float, d: float, e: float) -> list[float]:
    """Real roots of c*x^2 + d*x + e (ascending); stable for small c."""
    norm = max(abs(c), abs(d), abs(e))
    if norm == 0.0:
        raise DegenerateCoefficientError("all quadratic coefficients are zero")
    if abs(c) < _DEGENERATE_REL * norm:
        if abs(d) < _DEGENERATE_REL * norm:
            return []
        return [-e / d]
    disc = d * d - 4.0 * c * e
    if disc < 0.0:
        return []
    # Citardauq pairing avoids cancellation when d dominates; c is nonzero
    # here, and q is zero only for the double root 0.
    sq = math.sqrt(disc)
    q = -0.5 * (d + (sq if d >= 0.0 else -sq))
    roots = [e / q, q / c] if q != 0.0 else [q / c]
    return _merge_sorted_roots(roots, _ROOT_MERGE_TOL)
