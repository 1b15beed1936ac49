"""Scalar special functions shared by the outage model and the solvers.

The incomplete-gamma evaluation, the bracketed root search and the
polynomial solvers are implemented from first principles because the solver
loops call them many thousands of times and the test suite checks them
against independent quadrature / companion-matrix oracles.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

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
    "ln_lower_gamma_curvature",
    "decreasing_root",
    "solve_quartic_real",
    "solve_cubic_real",
    "solve_quadratic_real",
    "solve_poly_real",
]

_LN2 = math.log(2.0)
_MAX_ITER = 500
_REL_TOL = 1e-12
_FPMIN = 1e-300

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
    # Power series around zero; effective for x < shape + 1.
    term = 1.0 / shape
    total = term
    denom = shape
    for _ in range(_MAX_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _REL_TOL:
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
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _REL_TOL:
            return h * math.exp(-x + shape * math.log(x) - math.lgamma(shape))
    raise ConvergenceError(f"upper-gamma continued fraction stalled at shape={shape}, x={x}")


def regularized_lower_gamma(shape: float, x: float) -> float:
    """Regularized lower incomplete gamma P(shape, x) in [0, 1].

    Series expansion below ``shape + 1``, continued fraction above; both run
    to a relative tolerance of 1e-12.
    """
    if not (math.isfinite(shape) and shape > 0.0):
        raise ValueError(f"shape must be finite and > 0, got {shape}")
    if math.isnan(x) or x < 0.0:
        raise ValueError(f"x must be >= 0, got {x}")
    if x == 0.0:
        return 0.0
    if math.isinf(x):
        return 1.0
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
    if t > 700.0:
        return -math.inf, -_LN2 * math.exp(700.0) / y
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
    return math.log(g), (math.exp(log_num) / g if log_num > -700.0 else 0.0)


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


# ---------------------------------------------------------------------------
# Polynomial solvers.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuarticCoeffs:
    """Real coefficients of a*x^4 + b*x^3 + c*x^2 + d*x + e."""

    a: float
    b: float
    c: float
    d: float
    e: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "d", "e"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"coefficient {name} must be finite, got {v}")

    @property
    def norm(self) -> float:
        return max(abs(self.a), abs(self.b), abs(self.c), abs(self.d), abs(self.e))

    def __call__(self, x):
        # Horner evaluation; works for real and complex arguments.
        return (((self.a * x + self.b) * x + self.c) * x + self.d) * x + self.e

    def derivative(self, x):
        return ((4.0 * self.a * x + 3.0 * self.b) * x + 2.0 * self.c) * x + self.d


_OMEGA = complex(-0.5, math.sqrt(3.0) / 2.0)  # primitive cube root of unity


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
    for k in (1, 2, 3):
        y = _OMEGA ** (k - 1) * u1 + _OMEGA ** ((4 - k) % 3) * v1
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
    for _ in range(steps):
        dq = q.derivative(z)
        if dq == 0:
            break
        z_next = z - q(z) / dq
        if not (math.isfinite(z_next.real) and math.isfinite(z_next.imag)):
            break
        z = z_next
    return z


def _polish_real(q: QuarticCoeffs, x: float, steps: int) -> float:
    # Guarded Newton: only accept steps that reduce the residual.
    fx = q(x)
    for _ in range(steps):
        dq = q.derivative(x)
        if dq == 0.0:
            break
        x_next = x - fx / dq
        if not math.isfinite(x_next):
            break
        f_next = q(x_next)
        if abs(f_next) >= abs(fx):
            break
        x, fx = x_next, f_next
    return x


def _merge_sorted_roots(roots: list[float], tol: float) -> list[float]:
    merged: list[float] = []
    for r in sorted(roots):
        if merged and abs(r - merged[-1]) <= tol:
            continue
        merged.append(r)
    return merged


def _residual_bound(q: QuarticCoeffs, r: float, degree: int) -> float:
    return _RESIDUAL_TOL * max(1.0, q.norm) * max(1.0, abs(r)) ** degree


def _certified(q: QuarticCoeffs, roots: list[float], degree: int) -> list[float]:
    """Merge duplicate roots of ``q`` at 1e-8 and certify every residual:
    |q(r)| <= 1e-9 * max(1, ||q||_inf) * max(1, |r|)^degree, the root-size
    factor accounting for Horner evaluation noise away from the origin."""
    merged = _merge_sorted_roots(roots, _ROOT_MERGE_TOL)
    for r in merged:
        bound = _residual_bound(q, r, degree)
        if abs(q(r)) > bound:
            raise ConvergenceError(
                f"degree-{degree} root {r} has residual {q(r):.3e} above bound {bound:.3e}"
            )
    return merged


def solve_quartic_real(coeffs: QuarticCoeffs) -> list[float]:
    """Real roots of a quartic, ascending, with duplicates merged at 1e-8.

    Every returned root carries a residual certificate
    |q(r)| <= 1e-9 * max(1, ||coeffs||_inf) * max(1, |r|)^4.  A closed-form
    root candidate is Newton-polished and counts as real when its imaginary
    part is then at most 1e-8 in magnitude.
    Raises :class:`DegenerateCoefficientError` when the leading coefficient is
    numerically zero; callers should fall back to :func:`solve_poly_real`.
    """
    norm = coeffs.norm
    if norm == 0.0:
        raise DegenerateCoefficientError("all quartic coefficients are zero")
    if abs(coeffs.a) < _DEGENERATE_REL * norm:
        raise DegenerateCoefficientError(
            f"leading coefficient {coeffs.a} is degenerate relative to ||coeffs||={norm}"
        )

    real_roots = []
    for z in _quartic_closed_form(coeffs.a, coeffs.b, coeffs.c, coeffs.d, coeffs.e):
        z = _polish_complex(coeffs, z, 4)
        if abs(z.imag) <= _IMAG_TOL:
            real_roots.append(_polish_real(coeffs, z.real, 8))
    return _certified(coeffs, real_roots, 4)


def solve_cubic_real(b: float, c: float, d: float, e: float) -> list[float]:
    """Real roots of b*x^3 + c*x^2 + d*x + e (ascending, merged), with the
    quartic's residual certificate at degree 3.

    The real roots of the derivative, from the stable quadratic formula,
    split the line into monotone pieces; the Cauchy radius
    1 + max(|c|, |d|, |e|) / |b| bounds the outer two, since every root lies
    inside it.  Every sign change between neighbouring breakpoints is closed
    by :func:`decreasing_root` and polished by four guarded Newton steps.
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
            sign = math.copysign(1.0, f_lo)
            root = decreasing_root(lambda x: sign * unit(x), lo, hi, sign * f_lo, sign * f_hi)
            # The search stops at an absolute bracket below |x| = 1; Newton
            # restores the relative accuracy of roots far below 1.
            roots.append(_polish_real(unit, root, 4))
    for i in range(1, len(xs) - 1):
        if changes[i - 1] or changes[i]:
            continue
        x = abs(xs[i])
        backward = _RESIDUAL_TOL * (((abs(b) * x + abs(c)) * x + abs(d)) * x + abs(e))
        if abs(poly(xs[i])) <= min(backward, _residual_bound(poly, x, 3)):
            roots.append(xs[i])
    return _certified(poly, roots, 3)


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


def solve_poly_real(coeffs: QuarticCoeffs) -> list[float]:
    """Real roots of a polynomial of degree <= 4, routing degenerate leading
    coefficients down to the cubic/quadratic/linear solvers."""
    norm = coeffs.norm
    if norm == 0.0:
        raise ValueError("cannot solve the identically zero polynomial")
    if abs(coeffs.a) >= _DEGENERATE_REL * norm:
        return solve_quartic_real(coeffs)
    if abs(coeffs.b) >= _DEGENERATE_REL * norm:
        return solve_cubic_real(coeffs.b, coeffs.c, coeffs.d, coeffs.e)
    if abs(coeffs.c) >= _DEGENERATE_REL * norm or abs(coeffs.d) >= _DEGENERATE_REL * norm:
        return solve_quadratic_real(coeffs.c, coeffs.d, coeffs.e)
    return []
