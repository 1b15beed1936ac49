"""Block-coordinate maximization of the end-to-end success probability.

The decision variables are updated in three blocks per outer iteration:

1. transmit power (closed-form threshold rule plus the bracketed root
   search of :func:`~airalloc.special.decreasing_root` on the decreasing
   power gradient of the concave interior piece); the local cycle budget is
   then set by the rule :func:`~airalloc.model.optimal_rho`, not searched,
2. per-server airtime (projected Newton ascent on a concave objective with
   its exact Hessian: a diagonal link term plus one all-ones block over the
   first m airtimes per server, whose slack they share; a shifted Cholesky
   factor certifies that it needs no eigenvalue clamp, so the steps are solved
   on Python floats, and only a Hessian that fails goes through ``eigh``), and
3. the task split (two interchangeable minorize-maximize updates: ``mm2``
   replaces each success factor by a concave quadratic minorant and solves
   the budget-coupled subproblem in closed form under a water-filling
   multiplier; ``mm1`` uses tangent-composition minorants of the log factors
   and closes each per-index stationarity condition by the safeguarded
   Newton search of :func:`~airalloc.special.decreasing_root_newton`, with
   the minorant's own second derivative; the reference update ``pg`` runs
   block 2's projected Newton on the true objective, whose split Hessian is
   diagonal).

Both split updates price the shares with one water-filling multiplier, found
by :func:`waterfill_mu`: safeguarded Newton steps on the share total,
started from the previous multiplier, the split loop's last one or, for its
first search, the one the previous outer iteration's split update reported
(:class:`InnerTrace` ``mu``).  Each per-index solve returns its share with
the share's slope in the multiplier, which its own root already gives
(``mm2``: -q_tx q_comp / F' of its stationarity quartic F; ``mm1``: -1 / d'
of its minorant's derivative d; 0 at an interval end).  Every multiplier
tried re-runs each per-index solve, so :class:`BcdTrace` counts them next
to the per-index work.

Every block never decreases the objective, so the outer trace of
``ln P_success`` is monotone up to solver tolerances.

Every block takes float sequences (the stored allocation's tuples) and
returns Python floats or lists of them, summed left to right by
:func:`~airalloc.model._total` as every float sum in the package is: numpy
appears only in the ``eigh`` fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from operator import mul, sub, truediv
from typing import Callable, Sequence

import numpy as np

from .model import (
    _total,
    Allocation,
    FeasibilityError,
    ShareScales,
    SuccessBreakdown,
    SystemParams,
    allocation_log_factors,
    assert_feasible,
    default_allocation,
    local_cycle_budget,
    local_cycle_energy,
    local_energy_scale,
    optimal_rho,
    share_scales,
    success_breakdown,
)
from .special import (
    ConvergenceError,
    DegenerateCoefficientError,
    QuarticCoeffs,
    bracketed_poly_root,
    decreasing_root,
    decreasing_root_newton,
    ln_chi,
    ln_chi_curvature,
    ln_lower_gamma,
    ln_lower_gamma_curvature,
    solve_quadratic_real,
    solve_quartic_real,
)
from .surrogates import (
    PHI_FLOOR,
    SurrogateCoeffs,
    phi_interval,
    surrogate_computation,
    surrogate_transmission,
)

__all__ = [
    "VARIANTS",
    "SolverError",
    "WaterfillBracketError",
    "InnerTrace",
    "BcdTrace",
    "BcdResult",
    "ln_success",
    "solve_p1",
    "solve_p2",
    "solve_p32b",
    "waterfill_mu",
    "solve_p3_mm2",
    "solve_p3_mm1",
    "solve_p3_pg",
    "split_residual",
    "bcd_solve",
]


# Stopping rules: the outer loop's ln P_success gain, the split updates'
# step (max-norm) and per-iteration gain, and the water-filling share total
# with the upper end of its multiplier search.
_OUTER_TOL = 1e-6
_SPLIT_TOL, _SPLIT_FTOL = 1e-6, 1e-9
_WATERFILL_TOL, _MU_CAP = 1e-8, 1e18
# Projected Newton (P2 and pg's split): the predicted gain in nats below
# which it stops, the relative eigenvalue floor of its clamped curvature
# and the relative distance at which a bound counts as reached, the Armijo
# halvings per step, and P2's step budget (pg's is max_iter).
_NEWTON_TOL = 1e-14
_CURV_FLOOR, _BOUND_TOL = 1e-10, 1e-10
_HALVINGS = 40
_P2_MAX_ITER = 100
# mm2 builds each minorant on the trust region [phi_hat / F, min(1, F phi_hat)]
# with F = _TRUST_FACTOR.  Nearly every per-index step ends strictly inside
# its region, so F only sets how far the curvature floor looks: a narrower
# region bends the minorant less, and each rebuild moves further.  Over the
# 82 seeded cells of the tests' random draw and the 6 benchmark cells, mm2
# takes 10,532 split iterations (9 loops at their cap) at F = 2, 8,395 (3)
# at 1.75, 7,702 (4) at 1.6, 7,160 (1) at 1.5, 6,988 (1) at 1.4, 7,004 (6)
# at 1.3 and 7,314 (7) at 1.2.  1.5 sits in the flat middle of that basin.
_TRUST_FACTOR = 1.5


class SolverError(RuntimeError):
    """A sub-solver failed in a way the caller cannot recover from."""


class WaterfillBracketError(SolverError):
    """The water-filling multiplier cannot bracket the share budget.

    Raised when the per-index maximizers already exceed the budget at zero
    multiplier, which indicates a pathological surrogate interval."""


def ln_success(p: SystemParams, phi, t_shares, power_w: float, rho: float) -> float:
    """ln P_success of a candidate (phi, T, P, rho); -inf when impossible."""
    return allocation_log_factors(p, phi, t_shares, power_w, rho, order=0).total


# ---------------------------------------------------------------------------
# Block 1: transmit power.
# ---------------------------------------------------------------------------


def solve_p1(p: SystemParams, phi, t_shares) -> float:
    """Best transmit power for a fixed split/airtime, with the local cycle
    budget at its cap (:func:`~airalloc.model.optimal_rho`) at every power.

    Below the threshold power at which transmit energy starts to eat into
    the local latency-capped cycle budget, more power only helps, so the cap
    binds.  Above it the objective is concave in the power, and the interior
    stationary point is the root of the decreasing power gradient, closed by
    :func:`~airalloc.special.decreasing_root` from the two end gradients.
    """
    e_coef = local_cycle_energy(p)
    rho_lat = local_cycle_budget(p, p.latency_budget_s, math.inf)  # the latency cap alone
    total_t = _total(t_shares)
    if total_t <= 0.0:
        return p.p_max_w

    p_thresh = (p.energy_budget_j - e_coef * rho_lat) / total_t
    p_hi = min(p.p_max_w, p.energy_budget_j / total_t)
    p_lo = max(p_thresh, p_hi * 1e-12)
    if p_lo >= p_hi or phi[0] <= 0.0:
        return p_hi
    shape, u_coef = p.workload.shape, local_energy_scale(p, phi[0])
    # ln chi is linear in 1/power: ln chi(x, power * y1) = -coef / power,
    # with coef read off at unit power.  A hopeless link stays hopeless
    # at every power; the other blocks deal with it.
    unit = allocation_log_factors(p, phi, t_shares, 1.0, 0.0, order=0).link
    tx_coefs = [-v for v in unit if v > -math.inf]

    def grad(power: float) -> float:
        u = (p.energy_budget_j - power * total_t) * u_coef
        val = -ln_lower_gamma(shape, u)[1] * total_t * u_coef
        for coef in tx_coefs:
            val += coef / (power * power)
        return val

    g_lo = grad(p_lo)
    if g_lo <= 0.0:
        return p_lo
    g_hi = grad(p_hi)
    if math.isfinite(g_hi) and g_hi >= 0.0:
        return p_hi
    return decreasing_root(grad, p_lo, p_hi, g_lo, g_hi)


# ---------------------------------------------------------------------------
# Block 2: per-server airtime.
# ---------------------------------------------------------------------------


def _project_simplex(v: list[float], total: float, equality: bool = True) -> list[float]:
    """Euclidean projection onto {x >= 0, sum(x) = total}, or onto
    {x >= 0, sum(x) <= total} unless ``equality``."""
    if not equality:
        v = [max(x, 0.0) for x in v]
        if _total(v) <= total:
            return v
    css = theta = 0.0
    for k, u in enumerate(sorted(v, reverse=True), start=1):
        css += u
        if u - (css - total) / k > 0.0:
            theta = (css - total) / k
    return [max(x - theta, 0.0) for x in v]


def _cholesky(a: list[list[float]], shift: float = 0.0) -> list[list[float]] | None:
    """Lower Cholesky factor of a - shift I (row i holds its first i + 1
    entries), or None when a - shift I is not positive definite."""
    low: list[list[float]] = []
    for i, a_i in enumerate(a):
        row: list[float] = []
        for j in range(i):
            s = a_i[j]
            for l_ik, l_jk in zip(row, low[j]):
                s -= l_ik * l_jk
            row.append(s / low[j][j])
        pivot = a_i[i] - shift - _total(map(mul, row, row))
        if not pivot > 0.0:
            return None
        low.append(row + [math.sqrt(pivot)])
    return low


def _cholesky_solve(low: list[list[float]], r: list[float]) -> list[float]:
    """Solve L L^T z = r for the lower factor L = ``low``."""
    z: list[float] = []
    for row, r_i in zip(low, r):
        z.append((r_i - _total(map(mul, row, z))) / row[-1])
    for i in range(len(z) - 1, -1, -1):
        for k in range(i + 1, len(z)):
            z[i] -= low[k][i] * z[k]
        z[i] /= low[i][i]
    return z


def _newton_direction(
    x: list[float], g: list[float], h, cap: float, equality: bool
) -> tuple[list[float], float]:
    """Newton direction of a quadratic model on the face of active
    constraints of {x >= 0, sum(x) <= cap} (``sum(x) == cap`` when
    ``equality``), and the gain the model predicts for it.

    The curvature ``h`` (a flat list when diagonal, else one list per row)
    is first clamped to negative definite: each eigenvalue becomes
    -max(|w|, 1e-10 max|w|), so a convex direction is climbed with its own
    curvature's step, and a flat model (every w = 0) takes the plain
    gradient.  A diagonal is clamped entry by entry; a dense h needs no
    clamp when -h - 1e-10 ||h||_F I has a Cholesky factor (every eigenvalue
    of -h then exceeds 1e-10 ||h||_F >= 1e-10 max|w|), and only one that
    fails this certificate is clamped through ``np.linalg.eigh``.  A
    constraint counts as reached within 1e-10 cap, so round-off does not
    free it.  A bound x_i = 0 is active while the gradient, net of the sum
    constraint's multiplier, points outward; the sum constraint is active
    (always when ``equality``) while its multiplier is positive.  On the
    free set the direction solves the KKT system of the model (by Cholesky
    on floats), so it sums to zero when the sum constraint is active.
    Bounds the multiplier shows to point inward are freed and solved again.
    """
    dense = isinstance(h[0], list)
    if dense:
        a = [[-w for w in row] for row in h]
        if _cholesky(a, _CURV_FLOOR * math.sqrt(_total(w * w for row in h for w in row))) is None:
            w, v = np.linalg.eigh(np.array(h))
            mag = np.abs(w)
            a = ((v * np.maximum(mag, _CURV_FLOOR * float(mag.max()) or 1.0)) @ v.T).tolist()
    else:
        mag = [abs(w) for w in h]
        floor = _CURV_FLOOR * max(mag) or 1.0
        a = [max(w, floor) for w in mag]
    n = len(x)
    free = [i for i in range(n) if x[i] > _BOUND_TOL * cap]
    sum_on = equality or _total(x) >= cap * (1.0 - _BOUND_TOL)
    while True:
        d = [0.0] * n
        lam = 0.0
        if free:
            if dense:
                block = a if len(free) == n else [[a[i][j] for j in free] for i in free]
                solve = partial(_cholesky_solve, _cholesky(block))
            else:
                diag = [a[i] for i in free]
                solve = lambda r: list(map(truediv, r, diag))  # noqa: E731
            g_free = [g[i] for i in free]
            if sum_on:
                q1 = solve([1.0] * len(free))
                lam = _total(map(mul, q1, g_free)) / _total(q1)
            for i, di in zip(free, solve([gi - lam for gi in g_free])):
                d[i] = di
        if sum_on and not equality and lam <= 0.0:
            sum_on = False
            continue
        release = [i for i in range(n) if i not in free and g[i] > lam]
        if not release:
            return d, 0.5 * _total(map(mul, g, d))
        free = sorted(free + release)


def _projected_newton(
    kernel: Callable[[list[float]], tuple[float, list[float], list]],
    x: list[float],
    cap: float,
    equality: bool,
    max_iter: int,
) -> tuple[list[float], list[float], int]:
    """Projected Newton ascent (Bertsekas, SIAM J. Control Optim. 1982) of
    ``kernel`` (value, gradient, Hessian) over {x >= 0, sum(x) <= cap}, or
    ``sum(x) == cap`` when ``equality``, on Python floats.

    Each step takes :func:`_newton_direction`, clipped to the box
    [0, cap], along the projection arc: the first trial is the full step,
    halved at most 40 times until the Armijo test passes (a decrease is
    never accepted).  Stops when the model predicts a gain of at most 1e-14
    nats, when an accepted step gains nothing, when no trial passes, or
    after ``max_iter`` steps.  Returns the last iterate, the objective at
    the start and after every accepted step, and the number of kernel
    evaluations.
    """
    fval, g, h = kernel(x)
    values, evals = [fval], 1
    for _ in range(max_iter):
        d, gain = _newton_direction(x, g, h, cap, equality)
        if not gain > _NEWTON_TOL:
            break
        d = [min(max(di, -xi), cap - xi) for di, xi in zip(d, x)]
        s = 1.0
        for _ in range(_HALVINGS):
            trial = _project_simplex([xi + s * di for xi, di in zip(x, d)], cap, equality)
            tval, tgrad, thess = kernel(trial)
            evals += 1
            rise = _total(map(mul, g, map(sub, trial, x)))
            if tval > -math.inf and tval >= fval + 1e-4 * max(rise, 0.0):
                break
            s *= 0.5
        else:
            break
        gained = tval > fval
        x, fval, g, h = trial, tval, tgrad, thess
        values.append(fval)
        if not gained:
            break
    return x, values, evals


def solve_p2(
    p: SystemParams,
    phi,
    t_start,
    power_w: float,
    rho: float,
) -> tuple[list[float], int]:
    """Airtime update: projected Newton ascent (:func:`_projected_newton`)
    on the concave airtime objective, with its exact Hessian.

    The feasible set couples the latency budget (total airtime must leave
    compute slack) with the energy budget (transmit energy must leave the
    committed local cycle budget ``rho`` affordable).  Returns the airtimes
    and the number of objective evaluations spent.  A split with no server
    share returns zero airtime before the budget is checked: P1 then puts
    the power at the cap and ``rho`` may take the whole energy budget.
    """
    if not any(v > 0.0 for v in phi[1:]):
        return [0.0] * p.n_servers, 0
    cap_lat = p.latency_budget_s * (1.0 - 1e-9)
    cap_energy = (
        (p.energy_budget_j - rho * local_cycle_energy(p)) / power_w if power_w > 0.0 else math.inf
    )
    cap = min(cap_lat, cap_energy)
    if cap <= 0.0:
        raise FeasibilityError(f"committed rho {rho} and power {power_w} leave no airtime budget")
    # The local factor does not depend on the airtime: zero its share.
    phi_tx = [0.0, *phi[1:]]

    def kernel(tv: list[float]):
        f = allocation_log_factors(p, phi_tx, tv, power_w, rho, order=2)
        return f.total, f.d_t, f.h_t

    # Start from a strictly interior feasible point.
    t = [max(v, cap * 1e-9) for v in t_start]
    total = _total(t)
    if total > cap:
        t = [v * (cap * (1.0 - 1e-12) / total) for v in t]
    t, _, evals = _projected_newton(kernel, t, cap, False, _P2_MAX_ITER)
    return t, evals


# ---------------------------------------------------------------------------
# Block 3, mm2: closed-form split update under quadratic minorants.
# ---------------------------------------------------------------------------


def solve_p32b(
    tx: SurrogateCoeffs | None, comp: SurrogateCoeffs, mu: float, lo: float, hi: float
) -> tuple[float, float]:
    """Maximize ln q_tx(phi) + ln q_comp(phi) + mu*phi over [lo, hi]; return
    the maximizer and its slope in mu.

    Precondition: both quadratics are positive on (lo, hi), as
    :func:`~airalloc.surrogates.phi_interval` gives.  There the objective
    is strictly concave, and clearing the positive denominators in its
    slope q_tx'/q_tx + q_comp'/q_comp + mu leaves the quartic
    mu*q_tx*q_comp + (q_tx*q_comp)' with the slope's sign.  So a quartic
    that is not positive at lo returns lo, one that is not negative at hi
    returns hi, and otherwise its one root inside (lo, hi) is the answer.
    The closed form polishes and certifies only its candidates inside the
    interval; when the leading coefficient is degenerate (mu = 0 leaves a
    cubic) or no certified root lies inside, the bracketed search of
    :func:`~airalloc.special.bracketed_poly_root` finds it from the two end
    values.  The local share has no link: ``tx`` None stands for q_tx = 1,
    which leaves a quadratic (linear when mu = 0, with the vertex of q_comp
    as its root) for the quadratic formula.  The share's slope in mu is
    -q_tx q_comp / F' at a root of the quartic F, by implicit
    differentiation (dF/dmu = q_tx q_comp), and 0 at an end.
    """
    r1, r2, r3 = (tx.c2, tx.c1, tx.c0) if tx is not None else (0.0, 0.0, 1.0)
    l1, l2, l3 = comp.c2, comp.c1, comp.c0
    cross_12 = r1 * l2 + r2 * l1
    cross_13 = r1 * l3 + r2 * l2 + r3 * l1
    cross_23 = r2 * l3 + r3 * l2
    quartic = QuarticCoeffs(
        mu * r1 * l1,
        mu * cross_12 + 4.0 * r1 * l1,
        mu * cross_13 + 3.0 * cross_12,
        mu * cross_23 + 2.0 * cross_13,
        mu * r3 * l3 + cross_23,
    )
    a, b, c, d, e = quartic
    f_lo = (((a * lo + b) * lo + c) * lo + d) * lo + e
    f_hi = (((a * hi + b) * hi + c) * hi + d) * hi + e
    if f_lo <= 0.0:
        return lo, 0.0
    if f_hi >= 0.0:
        return hi, 0.0
    if tx is None:
        roots = solve_quadratic_real(c, d, e)
    else:
        try:
            roots = solve_quartic_real(quartic, (lo, hi))
        except DegenerateCoefficientError:
            roots = []
    root = next((r for r in roots if lo < r < hi), None)
    if root is None:
        root = min(max(bracketed_poly_root(quartic, lo, hi, f_lo, f_hi), lo), hi)
    f_root = ((4.0 * a * root + 3.0 * b) * root + 2.0 * c) * root + d
    product = ((r1 * root + r2) * root + r3) * ((l1 * root + l2) * root + l3)
    return root, (-product / f_root if f_root < 0.0 else 0.0)


def waterfill_mu(
    solvers: Sequence[Callable[[float], tuple[float, float]]],
    *,
    max_iter: int = 200,
    mu_start: float | None = None,
) -> tuple[float, list[float]]:
    """Find the multiplier at which the per-index maximizers spend the unit
    share budget.

    Each solver maps a multiplier mu >= 0 to its share maximizer and that
    share's slope in mu, so the share total S(mu) is non-decreasing and its
    slope is the sum of theirs.  The search starts at ``mu_start`` (1 when
    there is none or it is not positive) and takes the Newton step on
    S(mu) - 1 whenever it lands strictly inside the known bracket and is at
    most half the step before last (Numerical Recipes' ``rtsafe`` rule,
    which stops a crawl on a wrong slope).  A step down that would land
    more than mu below zero says S is far from linear there (shares that
    grow like ln mu), so the Newton step in ln mu, which stays positive,
    takes its place.  Otherwise the search grows upward by ratios 2, 4,
    16, ... (each the square of the last) while there is no upper end,
    tries mu = 0 while no multiplier has spent less than the budget (by
    monotonicity, S(0) <= 1 in every other case), and bisects once both
    ends are known.  The search stops once the total is within
    1e-8 of the budget, the bracket collapses, or after ``max_iter``
    multipliers; the upward search gives up at mu = 1e18.  Returns the
    multiplier with the smallest residual and the shares it produced.
    Raises :class:`WaterfillBracketError` when S(0) exceeds the budget.
    """
    mu_best, phi_best, err_best = 0.0, None, math.inf

    def residual(mu: float) -> tuple[float, float]:
        nonlocal mu_best, phi_best, err_best
        shares, slope = [], 0.0
        for s in solvers:
            share, ds = s(mu)
            shares.append(share)
            slope += ds
        r = _total(shares) - 1.0
        if mu == 0.0 and r > _WATERFILL_TOL:
            raise WaterfillBracketError(f"shares already sum to {r + 1.0} > 1 at zero multiplier")
        if abs(r) < err_best:
            mu_best, phi_best, err_best = mu, shares, abs(r)
        return r, slope

    lo, hi, below = 0.0, math.inf, False  # S(lo) < 1 once below; S(hi) >= 1
    mu = mu_start if mu_start is not None and mu_start > 0.0 else 1.0
    ratio = 2.0
    step = step_old = math.inf
    for _ in range(max_iter):
        r, slope = residual(mu)
        if r < 0.0:
            lo, below = mu, True
        else:
            hi = mu
        if err_best <= _WATERFILL_TOL or lo >= _MU_CAP or hi - lo < 1e-12 * max(1.0, hi):
            break
        newton = r / slope if slope > 0.0 else math.inf
        candidate = min(mu - newton, _MU_CAP)
        if candidate < -mu and r > 0.0:
            candidate = mu * math.exp(-newton / mu)
            newton = mu - candidate
        if lo < candidate < hi and 2.0 * abs(newton) <= abs(step_old):
            step_old, step, mu = step, newton, candidate
            continue
        if hi == math.inf:
            nxt = min(mu * ratio, _MU_CAP)
            ratio *= ratio
        else:
            nxt = 0.5 * (lo + hi) if below else 0.0
        step_old, step, mu = step, mu - nxt, nxt
    if not below and err_best > _WATERFILL_TOL:
        residual(0.0)  # every multiplier tried overspent: S(0) decides
    return mu_best, phi_best


@dataclass
class InnerTrace:
    """Progress of one minorize-maximize split update.

    ``iterations`` counts surrogate rebuilds; ``search_evals`` counts the
    numeric work inside them (one per closed-form per-index solve, one per
    derivative evaluation of a 1-D search), which is the unit that separates
    the closed-form update from the search-based one.  ``mu_evals`` counts
    the water-filling multipliers tried (each runs every per-index solve
    once) and ``pathologies`` the degenerate minorants, failed brackets,
    per-index solves that raised ``ConvergenceError`` and damped steps met.
    ``mu`` is the multiplier of the last water-filling search (the one
    handed in as ``mu_start`` when there was none), for the next split
    update to start from; ``pg`` prices no shares and reports None.
    """

    ln_values: list[float] = field(default_factory=list)
    iterations: int = 0
    pathologies: int = 0
    search_evals: int = 0
    mu_evals: int = 0
    mu: float | None = None


def _tallied(
    solver: Callable[[float], tuple[float, float]], trace: InnerTrace
) -> Callable[[float], tuple[float, float]]:
    def tallied(mu: float) -> tuple[float, float]:
        trace.mu_evals += 1
        return solver(mu)

    return tallied


def _active_shares(p: SystemParams, t, rho: float) -> list[int]:
    """Indices of the shares the split block may move: the local share
    while there is a cycle budget, and server m while it has airtime and
    latency is left after the first m airtimes.  Every update and
    :func:`split_residual` pin the others at 0."""
    active = [0] if rho > 0.0 else []
    elapsed = 0.0
    for m, t_m in enumerate(t, start=1):
        elapsed += t_m
        if t_m > 0.0 and elapsed < p.latency_budget_s:
            active.append(m)
    return active


def _normalized(values: list[float]) -> list[float]:
    """``values`` divided by their total."""
    total = _total(values)
    return [v / total for v in values]


def _normalized_expansion(phi: list[float], indices: list[int]) -> list[float]:
    """Clamp active shares to the floor and rescale them to spend the budget."""
    return _normalized([max(phi[i], PHI_FLOOR) for i in indices])


def _mm_split_loop(
    p: SystemParams,
    phi_start,
    t,
    power_w: float,
    rho: float,
    piece,
    *,
    max_iter: int,
    mu_start: float | None,
) -> tuple[list[float], InnerTrace]:
    """Shared loop of both split updates.

    The shares outside :func:`_active_shares` are pinned at 0 (the update
    returns its start with an empty trace when no share is active).  Every
    iteration expands the minorants at the normalized active shares and
    asks ``piece(scales, ph, trace)`` for index m's share maximizer, a
    function of the multiplier, or None when the minorant degenerates;
    ``scales`` is index m's entry of :func:`~airalloc.model.share_scales`,
    built once per update.  The multiplier search starts from the last
    iteration's multiplier, the first one from ``mu_start``, and its shares,
    divided by their sum, are the update's step.  A None piece, a multiplier
    search that cannot bracket the budget, or a per-index solve that raises
    :class:`~airalloc.special.ConvergenceError` counts a pathology and keeps
    the previous iterate.  Stops on a step below 1e-6 (max-norm) or when an
    iteration improves the objective by less than 1e-9 — near flat optima
    the curvature-floored surrogates keep producing above-tolerance steps of
    vanishing value.
    """
    indices = _active_shares(p, t, rho)
    if not indices:
        return list(phi_start), InnerTrace(mu=mu_start)
    phi = [0.0] * (p.n_servers + 1)
    for i in indices:
        phi[i] = phi_start[i]
    if _total(phi) > 0.0:
        phi = _normalized(phi)
    scales = share_scales(p, t, power_w, rho)
    trace = InnerTrace(ln_values=[ln_success(p, phi, t, power_w, rho)], mu=mu_start)

    def pieces(ph: list[float]):
        out = []
        for m, ph_m in zip(indices, ph):
            built = piece(scales[m], ph_m, trace)
            if built is None:
                return None
            out.append(built)
        return out

    for _ in range(max_iter):
        solvers = pieces(_normalized_expansion(phi, indices))
        if solvers is None:
            trace.pathologies += 1
            break
        # Every multiplier tried runs each solver once: count the first.
        solvers[0] = _tallied(solvers[0], trace)
        # The multiplier moves little between surrogate rebuilds, so the
        # last one seeds the bracket search.
        try:
            trace.mu, shares = waterfill_mu(solvers, mu_start=trace.mu)
        except (WaterfillBracketError, ConvergenceError):
            trace.pathologies += 1
            break
        phi_new = [0.0] * len(phi)
        for i, share in zip(indices, shares):
            phi_new[i] = share
        phi_new = _normalized(phi_new)
        ln_new = ln_success(p, phi_new, t, power_w, rho)
        if ln_new < trace.ln_values[-1] - 1e-9:
            # Surrogate arithmetic went numerically sour: damp once, then stop.
            trace.pathologies += 1
            phi_try = [0.5 * (a + b) for a, b in zip(phi, phi_new)]
            ln_try = ln_success(p, phi_try, t, power_w, rho)
            if ln_try < trace.ln_values[-1] - 1e-9:
                break
            phi_new, ln_new = phi_try, ln_try
        else:
            # Curvature-floored surrogates take geometric baby steps whenever
            # the floor dwarfs the local curvature (flat tails, tiny success
            # factors).  A doubling ray search along the step direction --
            # keeping a candidate only when the true objective improves --
            # collapses that crawl at one objective evaluation per doubling.
            # Candidates are renormalized because rounding in the step can
            # leak off the simplex, where a smaller share total fakes an
            # objective gain that no feasible split provides.  The search
            # stops before an active share drops below the floor, where the
            # next expansion would clamp it off the iterate.
            direction = [b - a for a, b in zip(phi, phi_new)]
            scale = 2.0
            while scale <= 2.0**30:
                cand = [a + scale * d for a, d in zip(phi, direction)]
                if min(cand[i] for i in indices) < PHI_FLOOR:
                    break
                cand = _normalized(cand)
                ln_cand = ln_success(p, cand, t, power_w, rho)
                if ln_cand <= ln_new:
                    break
                phi_new, ln_new = cand, ln_cand
                scale *= 2.0
        delta = max(abs(b - a) for a, b in zip(phi, phi_new))
        gain = ln_new - trace.ln_values[-1]
        phi = phi_new
        trace.ln_values.append(ln_new)
        trace.iterations += 1
        if delta < _SPLIT_TOL or gain < _SPLIT_FTOL:
            break
    return phi, trace


def solve_p3_mm2(
    p: SystemParams,
    phi_start,
    t_shares,
    power_w: float,
    rho: float,
    *,
    max_iter: int = 100,
    mu_start: float | None = None,
) -> tuple[list[float], InnerTrace]:
    """Split update with quadratic minorants and closed-form inner solves.

    Each minorant takes its curvature floor over a trust region around the
    expansion point, so a factor deep in its tail is bent by its local
    curvature rather than by its worst case over all shares.  The first
    multiplier search starts from ``mu_start`` (the previous update's
    ``InnerTrace.mu``)."""

    def piece(s: ShareScales, ph: float, trace: InnerTrace):
        region = (ph / _TRUST_FACTOR, min(1.0, _TRUST_FACTOR * ph))
        tx = surrogate_transmission(s.y, s.c, ph, region) if s.c is not None else None
        comp = surrogate_computation(s.psi, p.workload, ph, region)
        iv = phi_interval(tx, comp)
        if iv is None:
            return None
        lo, hi = iv

        def solver(mu: float) -> tuple[float, float]:
            trace.search_evals += 1
            return solve_p32b(tx, comp, mu, lo, hi)

        return solver

    return _mm_split_loop(p, phi_start, t_shares, power_w, rho, piece,
                          max_iter=max_iter, mu_start=mu_start)


# ---------------------------------------------------------------------------
# Block 3, mm1: tangent-composition minorants with a numeric inner search.
# ---------------------------------------------------------------------------


def _mm1_derivative(shape: float, s: ShareScales, ph: float) -> Callable[[float], tuple[float, float]]:
    """First and second derivative of the tangent-composition minorant of
    the share with factor arguments ``s`` and workload shape ``shape``.

    Each success factor is log-concave in the reciprocal share, so replacing
    the reciprocal with its tangent line at the expansion point gives a
    concave lower bound of the log factor that is exact to first order.  The
    bound degenerates to -inf once the tangent argument crosses zero, which
    happens at twice the expansion share and acts as a natural trust region.
    The second derivative comes from the kernel's curvature at no extra
    kernel call.
    """
    psi, y, c = s
    ph2 = ph * ph
    u_drop = psi / ph2

    # The primitives are evaluated on the tangent line (2 ph - phi) / ph^2
    # of 1 / phi, which drops by 1 / ph^2 per unit phi: ln P at u = psi
    # times the line, and ln chi at x = c over it.  The line stays accurate
    # as phi nears 2 ph: the difference is exact there, so nothing cancels.
    def deriv(phi: float) -> tuple[float, float]:
        line = (2.0 * ph - phi) / ph2
        u = psi * line
        if u <= 0.0:
            return -math.inf, -math.inf
        slope = ln_lower_gamma(shape, u)[1]
        total = -slope * u_drop
        curv = ln_lower_gamma_curvature(shape, u, slope) * u_drop * u_drop
        if c is not None:
            x = c / line
            ln_tx, dx = ln_chi(x, y)
            if ln_tx == -math.inf:
                return -math.inf, -math.inf
            x_drop = x / (line * ph2)  # dx/dphi
            total += dx * x_drop
            curv += x_drop * x_drop * (ln_chi_curvature(dx) + 2.0 * dx / x)
        return total, curv

    return deriv


def _mm1_piece(shape: float, s: ShareScales, ph: float, trace: InnerTrace):
    """``mm1``'s per-index maximizer on [PHI_FLOOR, min(1, 2 ph)] (None
    when that is empty): the stationary point of the minorant plus mu phi,
    by :func:`~airalloc.special.decreasing_root_newton` from the root
    returned for the previous multiplier (ph at first), or the end at which
    the derivative d keeps its sign.  Returns the share and its slope in
    mu, -1 / d' at a root (d' from the curvature of the search's last
    evaluation) and 0 at an end.  The end derivatives do not depend on mu,
    so the first call evaluates them once.  Every derivative evaluation
    counts one ``search_eval``."""
    deriv = _mm1_derivative(shape, s, ph)
    lo = PHI_FLOOR
    hi = min(1.0, 2.0 * ph * (1.0 - 1e-9))
    if hi <= lo:
        return None

    def d_counted(x: float) -> tuple[float, float]:
        trace.search_evals += 1
        return deriv(x)

    ends: list[float] = []
    last = [ph, 0.0]  # the last root and the curvature last evaluated

    def solver(mu: float) -> tuple[float, float]:
        if not ends:
            ends.extend((d_counted(lo)[0], d_counted(hi)[0]))
        if ends[0] + mu <= 0.0:
            return lo, 0.0
        if ends[1] + mu >= 0.0:
            return hi, 0.0

        def shifted(x: float) -> tuple[float, float]:
            d, last[1] = d_counted(x)
            return d + mu, last[1]

        last[0] = decreasing_root_newton(shifted, lo, hi, last[0])
        return last[0], (-1.0 / last[1] if last[1] < 0.0 else 0.0)

    return solver


def solve_p3_mm1(
    p: SystemParams,
    phi_start,
    t_shares,
    power_w: float,
    rho: float,
    *,
    max_iter: int = 100,
    mu_start: float | None = None,
) -> tuple[list[float], InnerTrace]:
    """Split update with first-order minorants; same contract as ``mm2``
    but every inner maximization is a safeguarded Newton root search on the
    minorant's derivative (:func:`_mm1_piece`)."""
    piece = partial(_mm1_piece, p.workload.shape)
    return _mm_split_loop(p, phi_start, t_shares, power_w, rho, piece,
                          max_iter=max_iter, mu_start=mu_start)


# ---------------------------------------------------------------------------
# Block 3, pg: projected Newton on the true objective (reference update).
# ---------------------------------------------------------------------------


def split_residual(p: SystemParams, phi, t_shares, power_w: float, rho: float) -> float:
    """Projected-gradient norm of ln P_success over the active split
    (:func:`_active_shares`, unit step): 0 at a stationary split, large
    where a split update froze short of one."""
    active = _active_shares(p, t_shares, rho)
    grad = allocation_log_factors(p, phi, t_shares, power_w, rho).d_phi
    target = dict(zip(active, _project_simplex([phi[i] + grad[i] for i in active], 1.0)))
    step = [target.get(i, 0.0) - v for i, v in enumerate(phi)]
    return math.sqrt(_total(d * d for d in step))


def solve_p3_pg(
    p: SystemParams,
    phi_start,
    t_shares,
    power_w: float,
    rho: float,
    *,
    max_iter: int = 500,
    mu_start: float | None = None,
) -> tuple[list[float], InnerTrace]:
    """Split update by projected Newton ascent (:func:`_projected_newton`)
    on the true objective, with its diagonal Hessian clamped to negative
    definite where the split is not concave.

    ``iterations`` counts the accepted steps and ``search_evals`` the
    objective evaluations.  Kept mainly as a like-for-like reference point
    for the minorize-maximize updates; it takes ``mu_start`` for the same
    call shape, prices no shares and so ignores it and reports no ``mu``."""
    free = _active_shares(p, t_shares, rho)
    if not free:
        return list(phi_start), InnerTrace()
    phi = [0.0] * (p.n_servers + 1)

    def kernel(x: list[float]):
        for i, v in zip(free, x):
            phi[i] = v
        f = allocation_log_factors(p, phi, t_shares, power_w, rho, order=2)
        return f.total, [f.d_phi[i] for i in free], [f.h_phi[i] for i in free]

    x, values, evals = _projected_newton(
        kernel, _project_simplex([phi_start[i] for i in free], 1.0), 1.0, True, max_iter)
    for i, v in zip(free, x):
        # A share within the bound tolerance is a projection residue, not a
        # choice: left in place it asks the airtime update for a link.
        phi[i] = 0.0 if v <= _BOUND_TOL else v
    return phi, InnerTrace(ln_values=values, iterations=len(values) - 1, search_evals=evals)


# ---------------------------------------------------------------------------
# Outer loop.
# ---------------------------------------------------------------------------

_P3_VARIANTS = {
    "mm2": solve_p3_mm2,
    "mm1": solve_p3_mm1,
    "pg": solve_p3_pg,
}
VARIANTS = tuple(_P3_VARIANTS)


@dataclass
class BcdTrace:
    """State of the outer loop: the objective trajectory and the stored
    allocations (index 0 is the start point), one entry per sweep after it.

    ``inner_iterations`` holds per-outer surrogate-rebuild counts of the split
    update; ``inner_search_evals``, ``inner_mu_evals`` and
    ``inner_pathologies`` hold its per-outer numeric-search work, water-filling
    multipliers tried and pathologies met (see :class:`InnerTrace`; the last
    two stay 0 for ``pg``), and ``split_mu`` its last water-filling
    multiplier (None for ``pg``), which the next sweep's split update starts
    from.  ``p2_evals`` holds the per-outer objective evaluations of the
    airtime update.  All counts are deterministic.
    ``split_residual`` is :func:`split_residual` at the final allocation."""

    variant: str
    ln_p_success: list[float] = field(default_factory=list)
    allocations: list[Allocation] = field(default_factory=list)
    inner_iterations: list[int] = field(default_factory=list)
    inner_search_evals: list[int] = field(default_factory=list)
    inner_mu_evals: list[int] = field(default_factory=list)
    inner_pathologies: list[int] = field(default_factory=list)
    split_mu: list[float | None] = field(default_factory=list)
    p2_evals: list[int] = field(default_factory=list)
    converged: bool = False
    split_residual: float = math.nan

    @property
    def n_outer(self) -> int:
        return len(self.ln_p_success) - 1

    @property
    def total_inner(self) -> int:
        return int(sum(self.inner_iterations))

    @property
    def total_search_evals(self) -> int:
        return int(sum(self.inner_search_evals))

    @property
    def total_mu_evals(self) -> int:
        return int(sum(self.inner_mu_evals))

    @property
    def total_pathologies(self) -> int:
        return int(sum(self.inner_pathologies))

    @property
    def total_p2_evals(self) -> int:
        return int(sum(self.p2_evals))


@dataclass
class BcdResult:
    allocation: Allocation
    breakdown: SuccessBreakdown
    trace: BcdTrace

    @property
    def p_outage(self) -> float:
        return self.breakdown.p_outage

    @property
    def ln_p_success(self) -> float:
        return self.trace.ln_p_success[-1]


def _sweep(p: SystemParams, solve_p3: Callable, trace: BcdTrace, offload_only: bool) -> None:
    """One outer iteration from the trace's last allocation: the power, the
    local budget it leaves (0 when ``offload_only``), the airtimes, then the split by
    ``solve_p3``, whose multiplier search starts from the last sweep's
    multiplier.  Appends the stored allocation, its ln P_success, the
    split's last multiplier and the blocks' work counts."""
    last = trace.allocations[-1]
    phi, t = last.phi, last.t_shares
    power = solve_p1(p, phi, t)
    rho = optimal_rho(p, t, power, offload_only)
    t, evals = solve_p2(p, phi, t, power, rho)
    mu_start = trace.split_mu[-1] if trace.split_mu else None
    phi, split = solve_p3(p, phi, t, power, rho, mu_start=mu_start)
    # Round-trip through the stored form so the recorded objective is the
    # objective of the recorded allocation, not of a drifted work array.
    stored = Allocation(tuple(_normalized(phi)), tuple(t), power, rho)
    trace.ln_p_success.append(ln_success(p, stored.phi, stored.t_shares, stored.power_w, stored.rho))
    trace.allocations.append(stored)
    trace.p2_evals.append(evals)
    trace.inner_iterations.append(split.iterations)
    trace.inner_search_evals.append(split.search_evals)
    trace.inner_mu_evals.append(split.mu_evals)
    trace.inner_pathologies.append(split.pathologies)
    trace.split_mu.append(split.mu)


def bcd_solve(
    p: SystemParams,
    variant: str = "mm2",
    init: Allocation | None = None,
    *,
    offload_only: bool = False,
    max_outer: int = 100,
) -> BcdResult:
    """Alternate the three block updates (:func:`_sweep`) until ln
    P_success stalls.

    An offload-only solve gives the local CPU no cycle budget (rho = 0),
    so it spends no energy on local cycles: the split block then pins the
    local share at 0, and the airtime is capped by the latency budget and
    E / P alone.  Stops when the improvement drops below 1e-6 or after
    ``max_outer`` rounds.  Raises :class:`FeasibilityError` when the starting
    allocation violates a constraint.
    """
    if variant not in _P3_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; pick one of {sorted(_P3_VARIANTS)}")
    alloc = init if init is not None else default_allocation(p, offload_only=offload_only)
    if offload_only and alloc.phi[0] != 0.0:
        raise FeasibilityError("offload-only solve requires a zero local share")
    assert_feasible(p, alloc)
    solve_p3 = _P3_VARIANTS[variant]

    trace = BcdTrace(variant, allocations=[alloc],
                     ln_p_success=[ln_success(p, alloc.phi, alloc.t_shares, alloc.power_w, alloc.rho)])
    for _ in range(max_outer):
        _sweep(p, solve_p3, trace, offload_only)
        if abs(trace.ln_p_success[-1] - trace.ln_p_success[-2]) < _OUTER_TOL:
            trace.converged = True
            break

    final = trace.allocations[-1]
    trace.split_residual = split_residual(p, final.phi, final.t_shares, final.power_w, final.rho)
    return BcdResult(allocation=final, breakdown=success_breakdown(p, final), trace=trace)
