"""Block-coordinate maximization of the end-to-end success probability.

The decision variables are updated in three blocks per outer iteration:

1. transmit power and local cycle budget (closed-form threshold rule plus
   the bracketed root search of :func:`~airalloc.special.decreasing_root`
   on the decreasing power gradient of the concave interior piece),
2. per-server airtime (projected Newton ascent on a concave objective with
   its exact Hessian: a diagonal link term plus one all-ones block over the
   first m airtimes per server, whose slack they share), and
3. the task split (two interchangeable minorize-maximize updates: ``mm2``
   replaces each success factor by a concave quadratic minorant and solves
   the budget-coupled subproblem in closed form under a water-filling
   multiplier; ``mm1`` uses tangent-composition minorants of the log factors
   and closes each per-index stationarity condition with the same bracketed
   root search; the reference update ``pg`` runs block 2's projected Newton
   on the true objective, whose split Hessian is diagonal).

Both split updates price the shares with one water-filling multiplier, found
by :func:`waterfill_mu`: a geometric bracket, seeded with the previous
multiplier of the split loop, closed by safeguarded Anderson-Bjorck false
position.  Every multiplier tried re-runs each per-index solve, so
:class:`BcdTrace` counts them next to the per-index work.

Every block never decreases the objective, so the outer trace of
``ln P_success`` is monotone up to solver tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .model import (
    Allocation,
    FeasibilityError,
    SuccessBreakdown,
    SystemParams,
    allocation_log_factors,
    assert_feasible,
    default_allocation,
    local_cycle_budget,
    local_cycle_energy,
    success_breakdown,
)
from .special import QuarticCoeffs, decreasing_root, ln_chi, ln_lower_gamma, solve_poly_real
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
# with F = _TRUST_FACTOR; F = 2 is the upper end mm1's tangent implies.
_TRUST_FACTOR = 2.0


class SolverError(RuntimeError):
    """A sub-solver failed in a way the caller cannot recover from."""


class WaterfillBracketError(SolverError):
    """The water-filling multiplier cannot bracket the share budget.

    Raised when the per-index maximizers already exceed the budget at zero
    multiplier, which indicates a pathological surrogate interval."""


def _safe_log(v: float) -> float:
    return math.log(v) if v > 0.0 else -math.inf


def ln_success(p: SystemParams, phi, t_shares, power_w: float, rho: float) -> float:
    """ln P_success of a candidate (phi, T, P, rho); -inf when impossible."""
    return allocation_log_factors(p, phi, t_shares, power_w, rho).total


# ---------------------------------------------------------------------------
# Block 1: transmit power and local cycle budget.
# ---------------------------------------------------------------------------


def solve_p1(p: SystemParams, phi, t_shares) -> tuple[float, float]:
    """Best transmit power and local cycle budget for a fixed split/airtime.

    Below the threshold power at which transmit energy starts to eat into
    the local latency-capped cycle budget, more power only helps, so the cap
    binds.  Above it the objective is concave in the power, and the interior
    stationary point is the root of the decreasing power gradient, closed by
    :func:`~airalloc.special.decreasing_root` from the two end gradients.
    """
    phi = np.asarray(phi, dtype=float)
    t = np.asarray(t_shares, dtype=float)
    e_coef = local_cycle_energy(p)
    rho_lat = local_cycle_budget(p, p.latency_budget_s, math.inf)  # the latency cap alone
    total_t = float(t.sum())
    if total_t <= 0.0:
        return p.p_max_w, local_cycle_budget(p, p.latency_budget_s, p.energy_budget_j)

    p_thresh = (p.energy_budget_j - e_coef * rho_lat) / total_t
    if p.p_max_w <= p_thresh:
        return p.p_max_w, rho_lat

    p_hi = min(p.p_max_w, p.energy_budget_j / total_t)
    p_lo = max(p_thresh, p_hi * 1e-12)
    if p_lo >= p_hi or phi[0] <= 0.0:
        best = p_hi
    else:
        w = p.workload
        u_coef = 1.0 / (e_coef * p.task_bits * phi[0] * w.scale)

        # ln chi is linear in 1/power: ln chi(x, power * y1) = -coef / power,
        # with coef read off at unit power.
        tx_coefs = []
        for m in range(1, p.n_servers + 1):
            if phi[m] <= 0.0 or t[m - 1] <= 0.0:
                continue
            x = p.task_bits * phi[m] / (p.bandwidth_hz * t[m - 1])
            ln_unit, _ = ln_chi(x, p.mean_gains[m - 1] / p.noise_w)
            if ln_unit == -math.inf:
                continue  # hopeless link regardless of power; leave to other blocks
            tx_coefs.append(-ln_unit)

        def grad(power: float) -> float:
            u = (p.energy_budget_j - power * total_t) * u_coef
            val = -ln_lower_gamma(w.shape, u)[1] * total_t * u_coef
            for coef in tx_coefs:
                val += coef / (power * power)
            return val

        g_lo = grad(p_lo)
        if g_lo <= 0.0:
            best = p_lo
        else:
            g_hi = grad(p_hi)
            if math.isfinite(g_hi) and g_hi >= 0.0:
                best = p_hi
            else:
                best = decreasing_root(grad, p_lo, p_hi, g_lo, g_hi)

    rho = local_cycle_budget(p, p.latency_budget_s, p.energy_budget_j - best * total_t)
    return best, max(rho, 0.0)


# ---------------------------------------------------------------------------
# Block 2: per-server airtime.
# ---------------------------------------------------------------------------


def _project_simplex_eq(v: np.ndarray, total: float) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum(x) = total}."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, v.size + 1)
    positive = u - (css - total) / ks > 0.0
    k = int(ks[positive][-1])
    theta = (css[k - 1] - total) / k
    return np.maximum(v - theta, 0.0)


def _project_capped_simplex(t: np.ndarray, cap: float) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum(x) <= cap}."""
    t = np.maximum(t, 0.0)
    if float(t.sum()) <= cap:
        return t
    return _project_simplex_eq(t, cap)


def _newton_direction(
    x: np.ndarray, g: np.ndarray, h: np.ndarray, cap: float, equality: bool
) -> tuple[np.ndarray, float]:
    """Newton direction of a quadratic model on the face of active
    constraints of {x >= 0, sum(x) <= cap} (``sum(x) == cap`` when
    ``equality``), and the gain the model predicts for it.

    The curvature ``h`` is first clamped to negative definite: each
    eigenvalue becomes -max(|w|, 1e-10 max|w|), so a convex direction is
    climbed with its own curvature's step, and a flat model (every w = 0)
    takes the plain gradient.  A constraint counts as reached within 1e-10
    cap, so round-off does not free it.  A bound x_i = 0 is active while the
    gradient, net of the sum constraint's multiplier, points outward; the
    sum constraint is active (always when ``equality``) while its multiplier
    is positive.  On the free set the direction solves the KKT system of the
    model, so it sums to zero when the sum constraint is active.  Bounds the
    multiplier shows to point inward are freed and the system solved again.
    """
    w, v = np.linalg.eigh(h)
    mag = np.abs(w)
    floor = _CURV_FLOOR * float(mag.max()) or 1.0
    h = (v * -np.maximum(mag, floor)) @ v.T
    free = x > _BOUND_TOL * cap
    sum_on = equality or float(x.sum()) >= cap * (1.0 - _BOUND_TOL)
    while True:
        d = np.zeros_like(x)
        lam = 0.0
        if free.any():
            q = np.linalg.inv(h[np.ix_(free, free)])
            g_free = g[free]
            if sum_on:
                q1 = q.sum(axis=1)
                lam = float(q1 @ g_free) / float(q1.sum())
            d[free] = q @ (lam - g_free)
        if sum_on and not equality and lam <= 0.0:
            sum_on = False
            continue
        release = ~free & (g > lam)
        if not release.any():
            return d, 0.5 * float(g @ d)
        free |= release


def _projected_newton(
    kernel: Callable[[np.ndarray], tuple[float, np.ndarray, np.ndarray]],
    x: np.ndarray,
    cap: float,
    equality: bool,
    max_iter: int,
) -> tuple[np.ndarray, list[float], int]:
    """Projected Newton ascent (Bertsekas, SIAM J. Control Optim. 1982) of
    ``kernel`` (value, gradient, Hessian) over {x >= 0, sum(x) <= cap}, or
    ``sum(x) == cap`` when ``equality``.

    Each step takes :func:`_newton_direction`, clipped to the box
    [0, cap], along the projection arc: the first trial is the full step,
    halved at most 40 times until the Armijo test passes (a decrease is
    never accepted).  Stops when the model predicts a gain of at most 1e-14
    nats, when an accepted step gains nothing, when no trial passes, or
    after ``max_iter`` steps.  Returns the last iterate, the objective at
    the start and after every accepted step, and the number of kernel
    evaluations.
    """
    project = _project_simplex_eq if equality else _project_capped_simplex
    fval, g, h = kernel(x)
    values, evals = [fval], 1
    for _ in range(max_iter):
        d, gain = _newton_direction(x, g, h, cap, equality)
        if not gain > _NEWTON_TOL:
            break
        d = np.clip(d, -x, cap - x)
        s = 1.0
        for _ in range(_HALVINGS):
            trial = project(x + s * d, cap)
            tval, tgrad, thess = kernel(trial)
            evals += 1
            if tval > -math.inf and tval >= fval + 1e-4 * max(float(g @ (trial - x)), 0.0):
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
) -> tuple[np.ndarray, int]:
    """Airtime update: projected Newton ascent (:func:`_projected_newton`)
    on the concave airtime objective, with its exact Hessian.

    The feasible set couples the latency budget (total airtime must leave
    compute slack) with the energy budget (transmit energy must leave the
    committed local cycle budget ``rho`` affordable).  Returns the airtimes
    and the number of objective evaluations spent.
    """
    phi = np.asarray(phi, dtype=float)
    t = np.asarray(t_start, dtype=float).copy()
    n_srv = p.n_servers
    cap_lat = p.latency_budget_s * (1.0 - 1e-9)
    cap_energy = (
        (p.energy_budget_j - rho * local_cycle_energy(p)) / power_w if power_w > 0.0 else math.inf
    )
    cap = min(cap_lat, cap_energy)
    if cap <= 0.0:
        raise FeasibilityError(
            f"committed rho {rho} and power {power_w} leave no airtime budget"
        )
    if not np.any(phi[1:] > 0.0):
        return np.zeros(n_srv), 0
    # The local factor does not depend on the airtime: zero its share.
    phi_tx = np.concatenate(([0.0], phi[1:]))

    def kernel(tv: np.ndarray):
        f = allocation_log_factors(p, phi_tx, tv, power_w, rho, second_order=True)
        return f.total, np.array(f.d_t), f.h_t

    # Start from a strictly interior feasible point.
    t = np.maximum(t, cap * 1e-9)
    if float(t.sum()) > cap:
        t *= cap * (1.0 - 1e-12) / float(t.sum())
    t, _, evals = _projected_newton(kernel, t, cap, False, _P2_MAX_ITER)
    return t, evals


# ---------------------------------------------------------------------------
# Block 3, mm2: closed-form split update under quadratic minorants.
# ---------------------------------------------------------------------------


def _argmax_candidates(
    objective: Callable[[float], float], candidates: Sequence[float]
) -> float:
    """Maximizer over candidates; ties go to the smallest share."""
    best_phi = None
    best_val = -math.inf
    for c in sorted(candidates):
        v = objective(c)
        if v == -math.inf:
            continue
        if best_phi is None or v > best_val + 1e-12 * max(1.0, abs(best_val)):
            best_phi, best_val = c, v
    if best_phi is None:
        # Every candidate is impossible under the surrogate; return the
        # midpoint so the caller's monotonicity guard can reject the step.
        best_phi = sorted(candidates)[len(candidates) // 2]
    return best_phi


def solve_p32b(
    tx: SurrogateCoeffs | None, comp: SurrogateCoeffs, mu: float, lo: float, hi: float
) -> float:
    """Maximize ln q_tx(phi) + ln q_comp(phi) + mu*phi over [lo, hi].

    Clearing denominators in the stationarity condition
    q_tx'/q_tx + q_comp'/q_comp + mu = 0 yields a quartic whose coefficients
    come from expanding mu*q_tx*q_comp + (q_tx*q_comp)'; its real roots in
    range, plus the interval endpoints and midpoint, are the only candidates
    (ties toward the smaller share).  The local share has no link: ``tx``
    None stands for q_tx = 1, which leaves a quadratic (linear when mu = 0,
    with the vertex of q_comp as its root).
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
    roots = solve_poly_real(quartic)

    def objective(phi: float) -> float:
        ln_tx = _safe_log(tx.value(phi)) if tx is not None else 0.0
        return ln_tx + _safe_log(comp.value(phi)) + mu * phi

    candidates = [lo, hi, 0.5 * (lo + hi)]
    candidates += [r for r in roots if lo < r < hi]
    return _argmax_candidates(objective, candidates)


def waterfill_mu(
    solvers: Sequence[Callable[[float], float]],
    intervals: Sequence[tuple[float, float]],
    *,
    max_iter: int = 200,
    mu_start: float | None = None,
) -> tuple[float, np.ndarray]:
    """Find the multiplier at which the per-index maximizers spend the unit
    share budget.

    Each solver maps a multiplier mu >= 0 to its share maximizer, so the
    share total S(mu) is non-decreasing.  A geometric search brackets the
    root of S(mu) - 1: upward from mu = 1 by ratios 2, 4, 16, ... (each
    the square of the last), or, given a positive guess ``mu_start``, from
    the guess by ratios 1.1, 1.21, ... toward the root, and below it too when
    it overshoots.  Anderson-Bjorck false position then closes the bracket,
    with bisection whenever an interpolate leaves it.  The search stops once
    the total is within 1e-8 of the budget, the bracket collapses, or after
    ``max_iter`` interpolation steps; the upward search gives up at mu = 1e18.
    The best-residual shares are then patched (within interval slack) so
    they sum to the budget to machine precision.
    """
    mu_best, phi_best, err_best = 0.0, None, math.inf

    def residual(mu: float) -> float:
        nonlocal mu_best, phi_best, err_best
        phi = np.array([s(mu) for s in solvers])
        r = float(phi.sum()) - 1.0
        if abs(r) < err_best:
            mu_best, phi_best, err_best = mu, phi, abs(r)
        return r

    f_lo = residual(0.0)
    if f_lo > _WATERFILL_TOL:
        raise WaterfillBracketError(
            f"shares already sum to {f_lo + 1.0} > 1 at zero multiplier"
        )
    if err_best > _WATERFILL_TOL:
        warm = mu_start is not None and mu_start > 0.0
        lo = 0.0
        hi, ratio = (mu_start, 1.1) if warm else (1.0, 2.0)
        f_hi = residual(hi)
        while f_hi < 0.0 and hi < _MU_CAP and err_best > _WATERFILL_TOL:
            lo, f_lo = hi, f_hi
            hi = min(hi * ratio, _MU_CAP)
            ratio *= ratio
            f_hi = residual(hi)
        if warm and lo == 0.0:
            # The guess overshot.  Near a steep rise of S from mu = 0 false
            # position on [0, guess] crawls, so find a lower end near it.
            while err_best > _WATERFILL_TOL:
                mu = hi / ratio
                ratio *= ratio
                f_mu = residual(mu)
                if f_mu < 0.0:
                    lo, f_lo = mu, f_mu
                    break
                hi, f_hi = mu, f_mu
        side = 0  # which end the last step replaced: -1 low, +1 high
        for _ in range(max_iter):
            if err_best <= _WATERFILL_TOL or f_hi < 0.0 or hi - lo < 1e-12 * max(1.0, hi):
                break
            mu = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
            if not lo < mu < hi:
                mu = 0.5 * (lo + hi)
            f_mu = residual(mu)
            # Anderson-Bjorck: when the same end moves twice in a row, scale
            # the value kept at the other end so the next interpolate moves it.
            if f_mu < 0.0:
                if side < 0:
                    m = 1.0 - f_mu / f_lo
                    f_hi *= m if m > 0.0 else 0.5
                lo, f_lo, side = mu, f_mu, -1
            else:
                if side > 0:
                    m = 1.0 - f_mu / f_hi
                    f_lo *= m if m > 0.0 else 0.5
                hi, f_hi, side = mu, f_mu, 1

    # Spend the residual inside interval slack, largest headroom first.
    phi = phi_best.copy()
    diff = 1.0 - float(phi.sum())
    if abs(diff) > 0.0:
        order = np.argsort(
            [-(iv[1] - ph) if diff > 0 else -(ph - iv[0]) for ph, iv in zip(phi, intervals)]
        )
        for i in order:
            lo_i, hi_i = intervals[i]
            move = min(diff, hi_i - phi[i]) if diff > 0 else max(diff, lo_i - phi[i])
            phi[i] += move
            diff -= move
            if abs(diff) <= 1e-15:
                break
    return mu_best, phi


@dataclass
class InnerTrace:
    """Progress of one minorize-maximize split update.

    ``iterations`` counts surrogate rebuilds; ``search_evals`` counts the
    numeric work inside them (one per closed-form per-index solve, one per
    derivative evaluation of a 1-D search), which is the unit that separates
    the closed-form update from the search-based one.  ``mu_evals`` counts
    the water-filling multipliers tried (each runs every per-index solve
    once) and ``pathologies`` the degenerate surrogates, failed brackets and
    damped steps met.
    """

    ln_values: list[float] = field(default_factory=list)
    mu_values: list[float] = field(default_factory=list)
    iterations: int = 0
    pathologies: int = 0
    search_evals: int = 0
    mu_evals: int = 0


def _tallied(solver: Callable[[float], float], trace: InnerTrace) -> Callable[[float], float]:
    def tallied(mu: float) -> float:
        trace.mu_evals += 1
        return solver(mu)

    return tallied


def _normalized_expansion(phi: np.ndarray, indices: list[int]) -> np.ndarray:
    """Clamp active shares to the floor and rescale them to spend the budget."""
    ph = np.maximum(phi[indices], PHI_FLOOR)
    return ph / ph.sum()


def _mm_split_loop(
    p: SystemParams,
    phi_start,
    t_shares,
    power_w: float,
    rho: float,
    piece,
    *,
    offload_only: bool,
    max_iter: int,
) -> tuple[np.ndarray, InnerTrace]:
    """Shared loop of both split updates.

    Every iteration expands the minorants at the normalized active shares
    (the servers, plus the local share unless ``offload_only``) and asks
    ``piece(m, ph, slack, t_m, trace)`` for index m's share maximizer (a
    function of the multiplier) and its share interval, or None when the
    minorant degenerates.  ``slack`` is the compute time: ``rho`` over the
    local speed, or for server m the latency budget left after the first m
    airtimes; ``t_m`` is server m's airtime (0 for the local share).  No
    local cycle budget, a server without airtime or latency slack, or a None
    piece counts a pathology and keeps the previous iterate.  Stops on a
    step below 1e-6 (max-norm) or when an iteration improves the objective
    by less than 1e-9 — near flat optima the curvature-floored surrogates
    keep producing above-tolerance steps of vanishing value.
    """
    phi = np.asarray(phi_start, dtype=float).copy()
    total = phi.sum()
    if total > 0.0:
        phi /= total
    t = np.asarray(t_shares, dtype=float)
    indices = list(range(1, p.n_servers + 1)) if offload_only else list(range(p.n_servers + 1))
    slacks = p.latency_budget_s - np.cumsum(t)
    trace = InnerTrace(ln_values=[ln_success(p, phi, t, power_w, rho)])

    def pieces(ph: np.ndarray):
        out = []
        for pos, m in enumerate(indices):
            if m == 0:
                if rho <= 0.0:
                    return None
                slack, t_m = rho / p.local_speed_hz, 0.0
            else:
                slack, t_m = slacks[m - 1], t[m - 1]
                if t_m <= 0.0 or slack <= 0.0:
                    return None
            # ph, slack and t_m stay numpy scalars: np.float64 + complex is
            # complex128, whose cube root in the quartic's closed form rounds
            # unlike Python's complex, so float() would move mm2's shares.
            built = piece(m, ph[pos], slack, t_m, trace)
            if built is None:
                return None
            out.append(built)
        return out

    for _ in range(max_iter):
        built = pieces(_normalized_expansion(phi, indices))
        if built is None:
            trace.pathologies += 1
            break
        solvers, intervals = zip(*built)
        # Every multiplier tried runs each solver once: count the first.
        solvers = [_tallied(solvers[0], trace), *solvers[1:]]
        # The multiplier moves little between surrogate rebuilds, so the
        # last one seeds the bracket search.
        mu_start = trace.mu_values[-1] if trace.mu_values else None
        try:
            mu, shares = waterfill_mu(solvers, intervals, mu_start=mu_start)
        except WaterfillBracketError:
            trace.pathologies += 1
            break
        phi_new = np.zeros_like(phi)
        phi_new[indices] = shares
        phi_new /= phi_new.sum()
        ln_new = ln_success(p, phi_new, t, power_w, rho)
        if ln_new < trace.ln_values[-1] - 1e-9:
            # Surrogate arithmetic went numerically sour: damp once, then stop.
            trace.pathologies += 1
            phi_try = 0.5 * (phi + phi_new)
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
            # objective gain that no feasible split provides.
            direction = phi_new - phi
            scale = 2.0
            while scale <= 2.0**30:
                cand = phi + scale * direction
                if float(cand.min()) < 0.0 or cand.sum() <= 0.0:
                    break
                cand /= cand.sum()
                ln_cand = ln_success(p, cand, t, power_w, rho)
                if ln_cand <= ln_new:
                    break
                phi_new, ln_new = cand, ln_cand
                scale *= 2.0
        delta = float(np.max(np.abs(phi_new - phi)))
        gain = ln_new - trace.ln_values[-1]
        phi = phi_new
        trace.ln_values.append(ln_new)
        trace.mu_values.append(mu)
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
    offload_only: bool = False,
    max_iter: int = 100,
) -> tuple[np.ndarray, InnerTrace]:
    """Split update with quadratic minorants and closed-form inner solves.

    Each minorant takes its curvature floor over a trust region around the
    expansion point, so a factor deep in its tail is bent by its local
    curvature rather than by its worst case over all shares."""

    def piece(m: int, ph, slack, t_m, trace: InnerTrace):
        region = (ph / _TRUST_FACTOR, min(1.0, _TRUST_FACTOR * ph))
        tx = surrogate_transmission(p, m, ph, t_m, power_w, region) if m > 0 else None
        comp = surrogate_computation(p, m, ph, slack, region)
        iv = phi_interval(tx, comp)
        if iv is None:
            return None
        lo, hi = iv

        def solver(mu: float) -> float:
            trace.search_evals += 1
            return solve_p32b(tx, comp, mu, lo, hi)

        return solver, iv

    return _mm_split_loop(p, phi_start, t_shares, power_w, rho, piece,
                          offload_only=offload_only, max_iter=max_iter)


# ---------------------------------------------------------------------------
# Block 3, mm1: tangent-composition minorants with a numeric inner search.
# ---------------------------------------------------------------------------


def _mm1_derivative(
    p: SystemParams, m: int, ph: float, t_m: float, time_slack: float, power_w: float
) -> Callable[[float], float]:
    """Derivative of the tangent-composition minorant at index m.

    Each success factor is log-concave in the reciprocal share, so replacing
    the reciprocal with its tangent line at the expansion point gives a
    concave lower bound of the log factor that is exact to first order.  The
    bound degenerates to -inf once the tangent argument crosses zero, which
    happens at twice the expansion share and acts as a natural trust region.
    """
    w = p.workload
    speed = p.local_speed_hz if m == 0 else p.server_speeds_hz[m - 1]
    psi = speed * time_slack / (p.task_bits * w.scale)
    u_hat = psi / ph
    du = -psi / (ph * ph)

    if m == 0:
        tx_terms = None
    else:
        y = power_w * p.mean_gains[m - 1] / p.noise_w
        k = p.bandwidth_hz * t_m / p.task_bits
        tx_terms = (y, k / ph, -k / (ph * ph))

    # The primitives are evaluated on the tangent lines: ln P at u(phi) for
    # psi / phi, and ln chi at x = 1 / v(phi) for v = k / phi.
    def deriv(phi: float) -> float:
        u = u_hat + du * (phi - ph)
        if u <= 0.0:
            return -math.inf
        total = ln_lower_gamma(w.shape, u)[1] * du
        if tx_terms is not None:
            y, v_hat, dv = tx_terms
            v = v_hat + dv * (phi - ph)
            if v <= 0.0:
                return -math.inf
            x = 1.0 / v
            ln_tx, dx = ln_chi(x, y)
            if ln_tx == -math.inf:
                return -math.inf
            total -= dx * dv * x * x
        return total

    return deriv


def solve_p3_mm1(
    p: SystemParams,
    phi_start,
    t_shares,
    power_w: float,
    rho: float,
    *,
    offload_only: bool = False,
    max_iter: int = 100,
) -> tuple[np.ndarray, InnerTrace]:
    """Split update with first-order minorants; same contract as ``mm2``
    but every inner maximization is a safeguarded numeric root search."""

    def piece(m: int, ph, slack, t_m, trace: InnerTrace):
        ph = float(ph)
        deriv = _mm1_derivative(p, m, ph, float(t_m), float(slack), power_w)
        lo = PHI_FLOOR
        hi = min(1.0, 2.0 * ph * (1.0 - 1e-9))
        if hi <= lo:
            return None

        def d_counted(x: float) -> float:
            trace.search_evals += 1
            return deriv(x)

        def solver(mu: float) -> float:
            d_lo = d_counted(lo) + mu
            if d_lo <= 0.0:
                return lo
            d_hi = d_counted(hi) + mu
            if d_hi >= 0.0:
                return hi
            return decreasing_root(lambda x: d_counted(x) + mu, lo, hi, d_lo, d_hi)

        return solver, (lo, hi)

    return _mm_split_loop(p, phi_start, t_shares, power_w, rho, piece,
                          offload_only=offload_only, max_iter=max_iter)


# ---------------------------------------------------------------------------
# Block 3, pg: projected Newton on the true objective (reference update).
# ---------------------------------------------------------------------------


def _split_projection(n_servers: int, offload_only: bool) -> Callable[[np.ndarray], np.ndarray]:
    """Euclidean projection onto the split simplex (local share pinned to 0
    when ``offload_only``)."""
    lo_idx = 1 if offload_only else 0

    def project(phi: np.ndarray) -> np.ndarray:
        out = np.zeros(n_servers + 1)
        out[lo_idx:] = _project_simplex_eq(phi[lo_idx:], 1.0)
        return out

    return project


def split_residual(
    p: SystemParams, phi, t_shares, power_w: float, rho: float, *, offload_only: bool = False
) -> float:
    """Projected-gradient norm of ln P_success in the split (unit step): 0
    at a stationary split, large where a split update froze short of one."""
    phi = np.asarray(phi, dtype=float)
    grad = np.array(allocation_log_factors(p, phi, t_shares, power_w, rho).d_phi)
    step = _split_projection(p.n_servers, offload_only)(phi + grad) - phi
    return float(np.linalg.norm(step))


def solve_p3_pg(
    p: SystemParams,
    phi_start,
    t_shares,
    power_w: float,
    rho: float,
    *,
    offload_only: bool = False,
    max_iter: int = 500,
) -> tuple[np.ndarray, InnerTrace]:
    """Split update by projected Newton ascent (:func:`_projected_newton`)
    on the true objective, with its diagonal Hessian clamped to negative
    definite where the split is not concave.

    ``iterations`` counts the accepted steps and ``search_evals`` the
    objective evaluations.  Kept mainly as a like-for-like reference point
    for the minorize-maximize updates."""
    t = np.asarray(t_shares, dtype=float)
    # Shares that no split can serve stay at zero: the local one without a
    # cycle budget (or when offload-only), a server without airtime or slack.
    free = np.flatnonzero(np.concatenate((
        [rho > 0.0 and not offload_only],
        (t > 0.0) & (np.cumsum(t) < p.latency_budget_s),
    )))
    start = np.asarray(phi_start, dtype=float)
    if free.size == 0:
        return _split_projection(p.n_servers, offload_only)(start), InnerTrace()
    phi = np.zeros(p.n_servers + 1)
    phi[free] = _project_simplex_eq(start[free], 1.0)

    def kernel(x: np.ndarray):
        phi[free] = x
        f = allocation_log_factors(p, phi, t, power_w, rho, second_order=True)
        return f.total, np.array(f.d_phi)[free], np.diag(np.array(f.h_phi)[free])

    x, values, evals = _projected_newton(kernel, phi[free], 1.0, True, max_iter)
    phi[free] = x
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
    """Objective trajectory of the outer loop (index 0 is the start point).

    ``inner_iterations`` holds per-outer surrogate-rebuild counts of the split
    update; ``inner_search_evals``, ``inner_mu_evals`` and
    ``inner_pathologies`` hold its per-outer numeric-search work, water-filling
    multipliers tried and pathologies met (see :class:`InnerTrace`; the last
    two stay 0 for ``pg``).  ``p2_evals`` holds the per-outer objective
    evaluations of the airtime update.  All counts are deterministic.
    ``split_residual`` is :func:`split_residual` at the final allocation."""

    ln_p_success: list[float]
    allocations: list[Allocation]
    inner_iterations: list[int]
    inner_search_evals: list[int]
    inner_mu_evals: list[int]
    inner_pathologies: list[int]
    p2_evals: list[int]
    converged: bool
    variant: str
    split_residual: float

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
    params: SystemParams
    allocation: Allocation
    breakdown: SuccessBreakdown
    trace: BcdTrace

    @property
    def p_outage(self) -> float:
        return self.breakdown.p_outage

    @property
    def ln_p_success(self) -> float:
        return self.trace.ln_p_success[-1]


def _to_allocation(p: SystemParams, phi, t, power_w: float, rho: float) -> Allocation:
    phi = np.maximum(np.asarray(phi, dtype=float), 0.0)
    phi = phi / phi.sum()
    return Allocation(
        phi=tuple(float(v) for v in phi),
        t_shares=tuple(max(float(v), 0.0) for v in np.asarray(t, dtype=float)),
        power_w=float(power_w),
        rho=max(float(rho), 0.0),
    )


def bcd_solve(
    p: SystemParams,
    variant: str = "mm2",
    init: Allocation | None = None,
    *,
    offload_only: bool = False,
    max_outer: int = 100,
) -> BcdResult:
    """Alternate the three block updates until ln P_success stalls.

    Stops when the improvement drops below 1e-6 or after
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

    phi = np.asarray(alloc.phi, dtype=float)
    t = np.asarray(alloc.t_shares, dtype=float)
    power, rho = alloc.power_w, alloc.rho

    ln_vals = [ln_success(p, phi, t, power, rho)]
    allocs = [alloc]
    splits: list[InnerTrace] = []
    p2_evals: list[int] = []
    converged = False

    for _ in range(max_outer):
        power, rho = solve_p1(p, phi, t)
        t, evals = solve_p2(p, phi, t, power, rho)
        p2_evals.append(evals)
        phi, split = solve_p3(p, phi, t, power, rho, offload_only=offload_only)
        # Round-trip through the stored form so the recorded objective is the
        # objective of the recorded allocation, not of a drifted work array.
        stored = _to_allocation(p, phi, t, power, rho)
        phi = np.asarray(stored.phi, dtype=float)
        t = np.asarray(stored.t_shares, dtype=float)
        power, rho = stored.power_w, stored.rho
        ln_vals.append(ln_success(p, phi, t, power, rho))
        splits.append(split)
        allocs.append(stored)
        if abs(ln_vals[-1] - ln_vals[-2]) < _OUTER_TOL:
            converged = True
            break

    final = allocs[-1]
    trace = BcdTrace(
        ln_p_success=ln_vals,
        allocations=allocs,
        inner_iterations=[tr.iterations for tr in splits],
        inner_search_evals=[tr.search_evals for tr in splits],
        inner_mu_evals=[tr.mu_evals for tr in splits],
        inner_pathologies=[tr.pathologies for tr in splits],
        p2_evals=p2_evals,
        converged=converged,
        variant=variant,
        split_residual=split_residual(p, final.phi, final.t_shares, final.power_w, final.rho,
                                      offload_only=offload_only),
    )
    return BcdResult(
        params=p,
        allocation=final,
        breakdown=success_breakdown(p, final),
        trace=trace,
    )
