"""Curvature floors and quadratic minorants for the task-split update.

Both the transmission and the computation success probabilities, viewed as
functions of one split share ``phi``, have second derivatives that are
bounded below by closed-form constants (`b_chi`, `b_gamma`).  Replacing the
true curvature with its floor in a second-order Taylor expansion produces a
concave quadratic that touches the true function at the expansion point and
never exceeds it, which is exactly what the minorize-maximize split update
needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import SystemParams
from .special import GammaWorkload, ln_chi, ln_lower_gamma

__all__ = [
    "PHI_FLOOR",
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

_LN2 = math.log(2.0)
_V_STAR = (3.0 - math.sqrt(5.0)) / 2.0
# Global minimum of e^{-v} (v^2 - v) over v >= 0, attained at _V_STAR.
_PSI_MIN = math.exp(-_V_STAR) * (_V_STAR * _V_STAR - _V_STAR)


def b_chi(y: float) -> float:
    """Lower bound on d^2/dx^2 of ``chi(x, y)`` over all x >= 0 (negative)."""
    if not (y > 0.0):
        raise ValueError(f"y must be > 0, got {y}")
    if 1.0 / y > 700.0:
        return -math.inf
    return (_LN2 * _LN2) * math.exp(1.0 / y) * _PSI_MIN


def b_gamma(psi: float, workload: GammaWorkload) -> float:
    """Lower bound on d^2/dt^2 of P(shape, psi / t) over t > 0 (negative).

    The second derivative has a single interior minimum at
    t1 = psi * (a + 2 - sqrt(a + 2)) / ((a + 1)(a + 2)); the bound is its
    value there and scales as 1 / psi^2.
    """
    if not (psi > 0.0 and math.isfinite(psi)):
        raise ValueError(f"psi must be finite and > 0, got {psi}")
    a = workload.shape
    # u1 = psi / t1 depends only on the shape.
    u1 = (a + 1.0) * (a + 2.0) / (a + 2.0 - math.sqrt(a + 2.0))
    log_mag = (a + 2.0) * math.log(u1) - u1 - math.lgamma(a)
    return (a + 1.0 - u1) * math.exp(log_mag) / (psi * psi)


@dataclass(frozen=True)
class SurrogateCoeffs:
    """Concave quadratic q(phi) = c2*phi^2 + c1*phi + c0 with c2 < 0."""

    c2: float
    c1: float
    c0: float

    def __post_init__(self) -> None:
        for name in ("c2", "c1", "c0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"surrogate coefficient {name} must be finite")
        if not self.c2 < 0.0:
            raise ValueError(f"surrogate curvature must be negative, got {self.c2}")

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


def _taylor_minorant(value: float, slope: float, curvature_floor: float, phi_hat: float) -> SurrogateCoeffs:
    """Expand f around phi_hat with the worst-case curvature.

    q(phi) = f + f'*(phi - phi_hat) + (B/2)*(phi - phi_hat)^2 with B <= f''
    everywhere, so q <= f globally while q(phi_hat) = f and q'(phi_hat) = f'.
    """
    c2 = 0.5 * curvature_floor
    c1 = slope - curvature_floor * phi_hat
    c0 = value - slope * phi_hat + c2 * phi_hat * phi_hat
    return SurrogateCoeffs(c2=c2, c1=c1, c0=c0)


def surrogate_transmission(
    p: SystemParams, m: int, phi_hat: float, t_m: float, power_w: float
) -> SurrogateCoeffs:
    """Quadratic minorant of the delivery probability of server m's share."""
    if not 1 <= m <= p.n_servers:
        raise ValueError(f"server index {m} out of range 1..{p.n_servers}")
    if not (phi_hat > 0.0):
        raise ValueError("expansion point must be positive")
    if not (t_m > 0.0):
        raise ValueError("airtime must be positive to build a delivery surrogate")
    y = power_w * p.mean_gains[m - 1] / p.noise_w
    c = p.task_bits / (p.bandwidth_hz * t_m)
    ln_v, d_ln = ln_chi(c * phi_hat, y)
    value = math.exp(ln_v)
    slope = value * d_ln * c
    return _taylor_minorant(value, slope, c * c * b_chi(y), phi_hat)


def surrogate_computation(
    p: SystemParams, m: int, phi_hat: float, time_slack: float
) -> SurrogateCoeffs:
    """Quadratic minorant of the compute-success probability of share m.

    For servers (m >= 1) ``time_slack`` is the wall-clock slack left after
    the uplink; for the local CPU (m = 0) pass ``rho / local_speed``, the
    compute-time budget implied by the joint latency/energy cycle cap.
    """
    if not 0 <= m <= p.n_servers:
        raise ValueError(f"index {m} out of range 0..{p.n_servers}")
    if not (phi_hat > 0.0):
        raise ValueError("expansion point must be positive")
    if not (time_slack > 0.0 and math.isfinite(time_slack)):
        raise ValueError(f"time slack must be finite and > 0, got {time_slack}")
    w = p.workload
    speed = p.local_speed_hz if m == 0 else p.server_speeds_hz[m - 1]
    psi = speed * time_slack / (p.task_bits * w.scale)
    u_hat = psi / phi_hat
    ln_v, d_ln = ln_lower_gamma(w.shape, u_hat)
    value = math.exp(ln_v)
    # dP/dphi = P * (d ln P / du) * du/dphi with du/dphi = -u / phi.
    slope = -value * d_ln * u_hat / phi_hat
    return _taylor_minorant(value, slope, b_gamma(psi, w), phi_hat)


def phi_interval(tx: SurrogateCoeffs | None, comp: SurrogateCoeffs) -> tuple[float, float] | None:
    """Share range on which every supplied surrogate is positive.

    Intersects the positive intervals of the quadratics with [PHI_FLOOR, 1].
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
        lo = max(lo, roots[0])
        hi = min(hi, roots[1])
    if not (hi - lo > 1e-12):
        return None
    return lo, hi
