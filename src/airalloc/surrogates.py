"""Curvature floors and quadratic minorants for the task-split update.

Both the transmission and the computation success probabilities, viewed as
functions of one split share ``phi``, have second derivatives with one
interior minimum and no other dip, so their floors are closed forms
(`b_chi`, `b_gamma`): the global minimum over all shares, or, given a share
interval, the exact minimum over it (at the clamped global minimizer or at
an end; no sampling).  Replacing the true curvature with its floor over a
region in a second-order Taylor expansion produces a concave quadratic that
touches the true function at the expansion point and never exceeds it on
that region, which is exactly what the minorize-maximize split update needs.
Where a factor is convex on the whole region any negative curvature
minorizes it, and the quadratic bends by `CONVEX_CURVATURE` of the factor's
value across the region instead.  The surrogates take the factor arguments
of :class:`~airalloc.model.ShareScales` and a share region: `mm2` passes a
trust region around each expansion point, where the floor tracks the
factor's local curvature instead of its worst case over all shares.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .special import _EXP_LIMIT, _LN2, GammaWorkload, ln_chi, ln_lower_gamma

__all__ = [
    "PHI_FLOOR",
    "CONVEX_CURVATURE",
    "SurrogateCoeffs",
    "b_chi",
    "b_gamma",
    "surrogate_transmission",
    "surrogate_computation",
    "phi_interval",
]

# Shares are kept at or above this floor inside the solvers so that the
# 1/phi terms in the model stay finite; the model itself accepts exact zeros.
PHI_FLOOR = 1e-6

# Where a factor is convex on the whole region (its floor is >= 0), the
# minorant's curvature is -CONVEX_CURVATURE * value / w^2, w the larger
# distance from the expansion point to an end of the region: at that end the
# quadratic falls CONVEX_CURVATURE / 2 of the factor's value below its
# tangent line, so a step keeps almost all of the first-order gain, while the
# curvature stays on the scale of the other coefficients and the stationarity
# quartic stays well conditioned.  1e-2 stopped the solver short of the
# projected-gradient optimum (5e-4 nats at a 0.1 J energy budget); curvatures
# many orders flatter leave the quartic's root certificate unreachable.
CONVEX_CURVATURE = 1e-4

_V_STAR = (3.0 - math.sqrt(5.0)) / 2.0
# Global minimum of e^{-v} (v^2 - v) over v >= 0, attained at _V_STAR.
_PSI_MIN = math.exp(-_V_STAR) * (_V_STAR * _V_STAR - _V_STAR)


def _chi_curvature(t: float, y: float) -> float:
    """e^(1/y) h(s) with h(s) = e^-s (s^2 - s) and s = e^t / y, in log form.

    Past e^t = e^700 the link is hopeless (as in ``ln_chi``) and e^-s is 0.
    """
    if t > _EXP_LIMIT:
        return 0.0
    s = math.exp(t) / y
    if s == 1.0:
        return 0.0
    return math.copysign(math.exp(1.0 / y - s + math.log(s) + math.log(abs(s - 1.0))), s - 1.0)


def b_chi(y: float, c: float = 1.0, region: tuple[float, float] | None = None) -> float:
    """Lower bound on d^2/dphi^2 of ``chi(c * phi, y)``.

    With s = 2^(c phi) / y the second derivative is
    c^2 ln^2(2) e^(1/y) h(s), h(s) = e^-s (s^2 - s): h falls from 0 to its
    single minimum at s = (3 - sqrt 5) / 2, rises through 0 at s = 1 to one
    positive maximum and decays back to 0.  Without a region the bound holds
    for every phi >= 0 and is negative (-inf when 1/y > 700, where e^(1/y)
    overflows).  Given a share interval ``region`` = (lo, hi) it is the exact
    minimum over [lo, hi]: the global minimum when the minimizer lies
    inside, else the smaller value at an end, which may be >= 0.
    """
    if not (y > 0.0):
        raise ValueError(f"y must be > 0, got {y}")
    if region is None:
        if 1.0 / y > _EXP_LIMIT:
            return -math.inf
        return c * c * (_LN2 * _LN2) * math.exp(1.0 / y) * _PSI_MIN
    # t = ln(2) c phi, so s = e^t / y; the minimizer is at t = ln(_V_STAR y).
    t_lo, t_hi = _LN2 * c * region[0], _LN2 * c * region[1]
    t_star = math.log(_V_STAR * y)
    if t_lo <= t_star <= t_hi:
        return c * c * (_LN2 * _LN2) * math.exp(1.0 / y) * _PSI_MIN
    return c * c * (_LN2 * _LN2) * min(_chi_curvature(t_lo, y), _chi_curvature(t_hi, y))


def _gamma_curvature(a: float, u: float) -> float:
    """u^(a+2) e^-u (a + 1 - u) / Gamma(a) for u > 0."""
    return (a + 1.0 - u) * math.exp((a + 2.0) * math.log(u) - u - math.lgamma(a))


def b_gamma(psi: float, workload: GammaWorkload, region: tuple[float, float] | None = None) -> float:
    """Lower bound on d^2/dt^2 of P(shape, psi / t).

    In u = psi / t the second derivative is
    u^(a+2) e^-u (a + 1 - u) / (Gamma(a) psi^2): it rises from 0 to one
    positive maximum, falls through 0 at u = a + 1 to its single minimum at
    u1 = (a + 1)(a + 2) / (a + 2 - sqrt(a + 2)), then rises back to 0.
    Without a region the bound is the value at u1, the minimum over all
    t > 0 (negative, scaling as 1 / psi^2).  Given a share interval
    ``region`` = (lo, hi), 0 < lo < hi, it is the exact minimum over t in
    [lo, hi]: the value at u1 when u1 lies in [psi / hi, psi / lo], else the
    smaller value at an end, which may be >= 0.
    """
    if not (psi > 0.0 and math.isfinite(psi)):
        raise ValueError(f"psi must be finite and > 0, got {psi}")
    a = workload.shape
    # u1 = psi / t1 depends only on the shape.
    u1 = (a + 1.0) * (a + 2.0) / (a + 2.0 - math.sqrt(a + 2.0))
    if region is not None:
        lo, hi = region
        u_lo, u_hi = psi / hi, psi / lo
        if not u_lo <= u1 <= u_hi:
            return min(_gamma_curvature(a, u_lo), _gamma_curvature(a, u_hi)) / (psi * psi)
    return _gamma_curvature(a, u1) / (psi * psi)


class _SurrogateFields(NamedTuple):
    c2: float
    c1: float
    c0: float
    lo: float = PHI_FLOOR
    hi: float = 1.0


class SurrogateCoeffs(_SurrogateFields):
    """Concave quadratic q(phi) = c2*phi^2 + c1*phi + c0 with c2 < 0, a
    minorant of its factor on the share region [lo, hi]: an immutable tuple
    (c2, c1, c0, lo, hi) with finite coefficients."""

    __slots__ = ()

    def __new__(
        cls, c2: float, c1: float, c0: float, lo: float = PHI_FLOOR, hi: float = 1.0
    ) -> SurrogateCoeffs:
        if not (-math.inf < c2 < 0.0 and -math.inf < c1 < math.inf and -math.inf < c0 < math.inf):
            for name, v in (("c2", c2), ("c1", c1), ("c0", c0)):
                if not math.isfinite(v):
                    raise ValueError(f"surrogate coefficient {name} must be finite")
            raise ValueError(f"surrogate curvature must be negative, got {c2}")
        return tuple.__new__(cls, (c2, c1, c0, lo, hi))

    def value(self, phi: float) -> float:
        return (self.c2 * phi + self.c1) * phi + self.c0

    def slope(self, phi: float) -> float:
        return 2.0 * self.c2 * phi + self.c1

    def positive_roots(self) -> tuple[float, float] | None:
        """Interval on which the quadratic is positive, or None if nowhere.

        The roots are q / c2 and c0 / q with q = -(c1 + sign(c1) sqrt(disc)) / 2,
        which adds magnitudes and so does not cancel when c2 or c0 is tiny.
        """
        disc = self.c1 * self.c1 - 4.0 * self.c2 * self.c0
        if disc <= 0.0:
            return None
        q = -0.5 * (self.c1 + math.copysign(math.sqrt(disc), self.c1))
        r1, r2 = q / self.c2, self.c0 / q
        return min(r1, r2), max(r1, r2)


def _taylor_minorant(
    value: float, slope: float, floor: float, phi_hat: float, region: tuple[float, float]
) -> SurrogateCoeffs:
    """Expand f around phi_hat with a curvature no larger than its floor.

    q(phi) = f + f'*(phi - phi_hat) + (B/2)*(phi - phi_hat)^2 with
    B <= f'' on the region (and between it and phi_hat), so q <= f there
    while q(phi_hat) = f and q'(phi_hat) = f'.  B is the floor or, if
    steeper, the convex-case bend -CONVEX_CURVATURE * f / w^2.
    """
    width = max(phi_hat - region[0], region[1] - phi_hat)
    curvature = min(floor, -CONVEX_CURVATURE * value / (width * width))
    if not curvature < 0.0:
        # f underflows to 0 on a convex region: every negative curvature
        # leaves the minorant nowhere positive, which the caller detects.
        curvature = -CONVEX_CURVATURE / (width * width)
    c2 = 0.5 * curvature
    c1 = slope - curvature * phi_hat
    c0 = value - slope * phi_hat + c2 * phi_hat * phi_hat
    return SurrogateCoeffs(c2=c2, c1=c1, c0=c0, lo=region[0], hi=region[1])


def surrogate_transmission(
    y: float, c: float, phi_hat: float, region: tuple[float, float]
) -> SurrogateCoeffs:
    """Quadratic minorant, on the share interval ``region`` (which holds
    phi_hat), of the delivery probability chi(c * phi, y) of a server's
    share."""
    if not (phi_hat > 0.0):
        raise ValueError("expansion point must be positive")
    if not region[0] <= phi_hat <= region[1]:
        raise ValueError(f"expansion point {phi_hat} must lie in the region {region}")
    if not (0.0 < c < math.inf):
        raise ValueError(f"c must be finite and > 0, got {c}")
    floor = b_chi(y, c, region)  # first: it rejects y <= 0
    ln_v, d_ln = ln_chi(c * phi_hat, y)
    value = math.exp(ln_v)
    slope = value * d_ln * c
    return _taylor_minorant(value, slope, floor, phi_hat, region)


def surrogate_computation(
    psi: float, workload: GammaWorkload, phi_hat: float, region: tuple[float, float]
) -> SurrogateCoeffs:
    """Quadratic minorant, on the share interval ``region`` (which holds
    phi_hat), of the compute-success probability P(shape, psi / phi) of a
    share."""
    if not (phi_hat > 0.0):
        raise ValueError("expansion point must be positive")
    if not region[0] <= phi_hat <= region[1]:
        raise ValueError(f"expansion point {phi_hat} must lie in the region {region}")
    floor = b_gamma(psi, workload, region)  # first: it rejects bad psi
    u_hat = psi / phi_hat
    ln_v, d_ln = ln_lower_gamma(workload.shape, u_hat)
    value = math.exp(ln_v)
    # dP/dphi = P * (d ln P / du) * du/dphi with du/dphi = -u / phi.
    slope = -value * d_ln * u_hat / phi_hat
    return _taylor_minorant(value, slope, floor, phi_hat, region)


def phi_interval(tx: SurrogateCoeffs | None, comp: SurrogateCoeffs) -> tuple[float, float] | None:
    """Share range on which every supplied surrogate is valid and positive.

    Intersects the positive intervals of the quadratics and their regions
    with [PHI_FLOOR, 1].
    Returns None when the intersection is (numerically) empty, which signals
    the caller to keep its previous iterate.
    """
    lo, hi = PHI_FLOOR, 1.0
    for q in (tx, comp):
        if q is None:
            continue
        roots = q.positive_roots()
        if roots is None:
            return None
        lo = max(lo, roots[0], q.lo)
        hi = min(hi, roots[1], q.hi)
    if not (hi - lo > 1e-12):
        return None
    return lo, hi
