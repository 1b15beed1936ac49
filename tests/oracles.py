"""Independent reference implementations the tests check the package against.

Everything here deliberately goes through scipy/numpy rather than the
package's own numerics, so that an agreement between the two is evidence and
not a tautology.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
from scipy import integrate, optimize
from scipy import special as sps

from airalloc.baselines import scheduler_action
from airalloc.dqn import QNetworkParams
from airalloc.model import (
    _FEAS_TOL,
    Allocation,
    SystemParams,
    assert_feasible,
    local_budget_rho,
    local_cycle_energy,
    log_factors,
    reference_params,
)
from airalloc.multiuser import (
    _LN_FLOOR,
    _PENALTY,
    MultiUserAction,
    MultiUserParams,
    MultiUserState,
    _check_dims,
    _share_rows,
    success_vector,
)
from airalloc.solver import _BOUND_TOL, _CURV_FLOOR, ln_success
from airalloc.special import (
    _DEGENERATE_REL,
    DegenerateCoefficientError,
    QuarticCoeffs,
    solve_cubic_real,
    solve_quadratic_real,
    solve_quartic_real,
)


def lower_gamma_quadrature(shape: float, x: float) -> float:
    """Regularized lower incomplete gamma via adaptive quadrature."""
    if x <= 0.0:
        return 0.0

    if shape < 1.0:
        # t = u^(1/shape) removes the endpoint singularity:
        # integral becomes (1/shape) * int_0^{x^shape} exp(-u^(1/shape)) du,
        # and the regularizing 1/Gamma(shape) cancels the prefactor shape.
        def smooth(u: float) -> float:
            return math.exp(-(u ** (1.0 / shape)) - math.lgamma(shape + 1.0))

        val, _ = integrate.quad(smooth, 0.0, x ** shape, limit=200,
                                epsabs=0.0, epsrel=1e-12)
        return val

    def integrand(t: float) -> float:
        # Work in logs so shape=10, x=50 does not underflow the integrand.
        return math.exp((shape - 1.0) * math.log(t) - t - math.lgamma(shape))

    # Split at the mode so quad sees the peak; large-x tails then converge.
    split = min(x, max(shape - 1.0, 1e-12))
    total = 0.0
    lo = 0.0
    for hi in (split, x):
        if hi > lo:
            val, _ = integrate.quad(integrand, lo, hi, limit=200,
                                    epsabs=0.0, epsrel=1e-12)
            total += val
            lo = hi
    return total


def lower_gamma_scipy(shape: float, x) -> float:
    """scipy's own regularized lower gamma (vectorized)."""
    return sps.gammainc(shape, x)


def upper_gamma_scipy(shape: float, x) -> float:
    """scipy's own regularized upper gamma Q = 1 - P (vectorized)."""
    return sps.gammaincc(shape, x)


def compensated_sum(iterable, /, start=0):
    """The builtin ``sum`` of CPython 3.12, written out.  Exact ints add as
    ints.  From the first exact float on, exact floats are added with
    Neumaier's compensation (Z. angew. Math. Mech. 54, 1974) and ints in the
    C long range as plain doubles; the compensation joins the total at the
    end, or before an item of any other type (a numpy scalar, say), after
    which items add plainly.  A compensation of 0 or one that is not finite
    is dropped, so an overflowed sum stays infinite.  Python 3.11 and
    earlier add every item plainly, left to right."""
    items = iter(iterable)
    total = start
    if type(total) is int:
        for item in items:
            total = total + item
            if type(item) not in (int, bool):
                break
    if type(total) is float:
        comp = 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                comp += (total - t) + item if abs(total) >= abs(item) else (item - t) + total
                total = t
            elif isinstance(item, int) and -2**63 <= item < 2**63:
                total += float(item)
            else:
                if comp and math.isfinite(comp):
                    total += comp
                total, comp = total + item, 0.0
                break
        if comp and math.isfinite(comp):
            total += comp
    for item in items:
        total = total + item
    return total


def quartic_roots_companion(a: float, b: float, c: float, d: float, e: float,
                            imag_tol: float = 1e-8) -> list[float]:
    """Real quartic roots via numpy's companion-matrix eigensolver."""
    roots = np.roots([a, b, c, d, e])
    scale = max(1.0, float(np.max(np.abs(roots))) if roots.size else 1.0)
    real = sorted(float(r.real) for r in roots if abs(r.imag) <= imag_tol * scale)
    merged: list[float] = []
    for r in real:
        if merged and abs(r - merged[-1]) <= 1e-8:
            continue
        merged.append(r)
    return merged


def link_args(p: SystemParams, m: int, t_m: float, power_w: float) -> tuple[float, float]:
    """(y, c) of server m's link at airtime ``t_m`` and power ``power_w``, so
    that it delivers share phi with chi(c * phi, y); formed from the device
    independently of ``model.share_scales``."""
    return power_w * p.mean_gains[m - 1] / p.noise_w, p.task_bits / (p.bandwidth_hz * t_m)


def compute_arg(p: SystemParams, m: int, time_slack: float) -> float:
    """psi of share m's computation in ``time_slack`` seconds at its speed
    (the local CPU's for m = 0), so that it succeeds with P(shape, psi /
    phi); formed independently of ``model.share_scales``."""
    speed = p.local_speed_hz if m == 0 else p.server_speeds_hz[m - 1]
    return speed * time_slack / (p.task_bits * p.workload.scale)


def fd_second(f, x: float, h: float) -> float:
    """Central second difference of a scalar function."""
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def fd_gradient(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        g[i] = (f(x + step) - f(x - step)) / (2.0 * h)
    return g


def random_cells(seed: int, *indices: int) -> dict[int, SystemParams]:
    """Seeded random single-user cells by index: index i is the (i + 1)-th
    draw of default_rng(seed) of servers M in 1-4, task 5-100 Mbit, energy
    budget 0.1-2 J and latency budget 0.05-2 s."""
    rng = np.random.default_rng(seed)
    out = {}
    for i in range(max(indices) + 1):
        p = reference_params(
            int(rng.integers(1, 5)),
            task_mbits=float(rng.uniform(5.0, 100.0)),
            energy_j=float(rng.uniform(0.1, 2.0)),
            latency_s=float(rng.uniform(0.05, 2.0)),
        )
        if i in indices:
            out[i] = p
    return out


def random_feasible_allocation(p: SystemParams, rng: np.random.Generator) -> Allocation:
    """Draw an allocation that satisfies every constraint of ``p``.

    Shares come from a Dirichlet draw, airtimes from a scaled Dirichlet that
    leaves compute slack, power from the upper half of the cap; the local
    cycle budget is the largest value the energy and latency budgets allow.
    """
    m = p.n_servers
    phi = rng.dirichlet(np.ones(m + 1))
    power = float(p.p_max_w * rng.uniform(0.5, 1.0))
    # Keep total airtime clear of both the latency and the energy budget.
    t_cap = min(0.85 * p.latency_budget_s, 0.85 * p.energy_budget_j / power)
    t_total = t_cap * rng.uniform(0.3, 1.0)
    t = t_total * rng.dirichlet(np.ones(m))
    rho = max(local_budget_rho(p, t, power), 0.0)
    return Allocation(
        phi=tuple(float(v) for v in phi),
        t_shares=tuple(float(v) for v in t),
        power_w=power,
        rho=rho,
    )


def joint_polish(p: SystemParams, alloc: Allocation, *,
                 offload_only: bool = False) -> tuple[float, Allocation]:
    """Polish ``alloc`` in all its variables at once, with rho at its cap.

    scipy's SLSQP (``ftol`` 1e-14) runs from ``alloc`` over (phi, T /
    latency, P / P_max), with rho at min(s0 latency, (E - P sum T) / e), or
    0 and phi_0 pinned at 0 when ``offload_only``.  The objective is
    ``solver.ln_success``; the constraints are sum phi = 1, sum T <= latency
    and P sum T <= E.  SLSQP shares no code with the solver's blocks, so a
    gain is a joint direction that the blocks missed.  It is a local check:
    it stays in the start's basin.

    Returns (ln P, allocation) of the better of the start, scored at its own
    rho, and the result, which must pass ``model.assert_feasible``.
    """
    m = p.n_servers
    lat, p_max, e_coef = p.latency_budget_s, p.p_max_w, local_cycle_energy(p)

    def unpack(z: np.ndarray) -> Allocation:
        phi = np.maximum(z[:m + 1], 0.0)
        t = np.maximum(z[m + 1:-1], 0.0) * lat
        total_t = float(np.sum(t))
        power = float(z[-1]) * p_max
        # SLSQP meets P sum T <= E only up to rounding, and its line search
        # may step past it, while assert_feasible rejects even one ulp over
        # E (its tolerance is in joules, the cap it tests in cycles).  So
        # clip the power onto E, rounding down.
        if p.energy_budget_j - power * total_t < 0.0:
            power = p.energy_budget_j / total_t
            while p.energy_budget_j - power * total_t < 0.0:
                power = math.nextafter(power, 0.0)
        rho = 0.0 if offload_only else max(
            min(p.local_speed_hz * lat, (p.energy_budget_j - power * total_t) / e_coef), 0.0)
        return Allocation(phi=tuple(float(v) for v in phi / phi.sum()),
                          t_shares=tuple(float(v) for v in t), power_w=power, rho=float(rho))

    def score(a: Allocation) -> float:
        return ln_success(p, a.phi, a.t_shares, a.power_w, a.rho)

    def loss(z: np.ndarray) -> float:
        # SLSQP needs finite values; an impossible candidate is just bad.
        value = score(unpack(z))
        return -value if math.isfinite(value) else 1e10

    z0 = np.concatenate([alloc.phi, np.asarray(alloc.t_shares) / lat, [alloc.power_w / p_max]])
    bounds = ([(0.0, 0.0) if offload_only else (0.0, 1.0)] + [(0.0, 1.0)] * m
              + [(0.0, 1.0)] * m + [(1e-12, 1.0)])
    constraints = [
        {"type": "eq", "fun": lambda z: np.sum(z[:m + 1]) - 1.0},
        {"type": "ineq", "fun": lambda z: 1.0 - np.sum(z[m + 1:-1])},
        {"type": "ineq", "fun": lambda z: 1.0 - z[-1] * p_max * lat * np.sum(z[m + 1:-1]) / p.energy_budget_j},
    ]
    res = optimize.minimize(loss, z0, method="SLSQP", bounds=bounds, constraints=constraints,
                            options={"ftol": 1e-14, "maxiter": 200})
    polished = unpack(res.x)
    assert_feasible(p, polished)
    start, end = score(alloc), score(polished)
    return (end, polished) if end > start else (start, alloc)


def analytic_success_grid(p: SystemParams, phi0, t1, power, chunk: int = 64):
    """Vectorized single-server success on a (phi0, t1, power) grid.

    Independent evaluation path: scipy gammainc plus numpy broadcasting,
    used by the exhaustive-search cross-check where the package's scalar
    routines would be far too slow.  Returns an array of success
    probabilities with shape (len(phi0), len(t1), len(power)).
    """
    if p.n_servers != 1:
        raise ValueError("the grid oracle only handles the single-server layout")
    w = p.workload
    s0, s1 = p.local_speed_hz, p.server_speeds_hz[0]
    lam = p.mean_gains[0]
    e_coef = p.switched_capacitance * s0 * s0

    phi0 = np.asarray(phi0, dtype=float)
    t1 = np.asarray(t1, dtype=float)[None, :, None]
    power = np.asarray(power, dtype=float)[None, None, :]
    phi1 = 1.0 - phi0

    out = np.empty((phi0.size, t1.size, power.size), dtype=float)
    for start in range(0, phi0.size, chunk):
        stop = min(start + chunk, phi0.size)
        f0 = phi0[start:stop][:, None, None]
        f1 = phi1[start:stop][:, None, None]

        # Local factor: cycles capped by both latency and leftover energy.
        rho = np.minimum(
            s0 * p.latency_budget_s,
            np.maximum(p.energy_budget_j - power * t1, 0.0) / e_coef,
        )
        u0 = np.where(f0 > 0.0, rho / (np.maximum(f0, 1e-300) * p.task_bits * w.scale), np.inf)
        p0 = np.where(f0 > 0.0, sps.gammainc(w.shape, np.minimum(u0, 1e300)), 1.0)

        # Delivery factor over the fading channel.
        rate_arg = p.task_bits * f1 / (p.bandwidth_hz * t1)
        snr = power * lam / p.noise_w
        pt = np.where(f1 > 0.0, np.exp(-(np.exp2(rate_arg) - 1.0) / snr), 1.0)

        # Remote compute factor against the post-uplink slack.
        slack = p.latency_budget_s - t1
        u1 = np.where(
            (f1 > 0.0) & (slack > 0.0),
            s1 * np.maximum(slack, 0.0) / (np.maximum(f1, 1e-300) * p.task_bits * w.scale),
            np.inf,
        )
        pc = np.where(f1 > 0.0, np.where(slack > 0.0, sps.gammainc(w.shape, np.minimum(u1, 1e300)), 0.0), 1.0)

        out[start:stop] = p0 * pt * pc
    return out


def waterfill_bisection(solvers, budget: float = 1.0, *, tol: float = 1e-8,
                        max_iter: int = 200, mu_cap: float = 1e18):
    """Water-filling multiplier by a doubling bracket from mu = 1 and plain
    bisection, keeping the best-residual multiplier.  Each solver returns
    (share, slope), as the package's do; the slopes are not used.

    The search the package used before its superlinear one; slow but simple
    enough to trust.  Returns (mu, share total at mu, multipliers tried).
    """
    n_evals = 0

    def total_at(mu: float) -> float:
        nonlocal n_evals
        n_evals += 1
        return float(sum(s(mu)[0] for s in solvers))

    total = total_at(0.0)
    mu_best, total_best = 0.0, total
    if abs(total - budget) > tol:
        mu_lo, mu_hi = 0.0, 1.0
        while True:
            total = total_at(mu_hi)
            if abs(total - budget) < abs(total_best - budget):
                mu_best, total_best = mu_hi, total
            if total >= budget or mu_hi >= mu_cap:
                break
            mu_lo, mu_hi = mu_hi, 2.0 * mu_hi
        for _ in range(max_iter):
            if abs(total_best - budget) <= tol or mu_hi - mu_lo < 1e-12 * max(1.0, mu_hi):
                break
            mu = 0.5 * (mu_lo + mu_hi)
            total = total_at(mu)
            if abs(total - budget) < abs(total_best - budget):
                mu_best, total_best = mu, total
            if total < budget:
                mu_lo = mu
            else:
                mu_hi = mu
    return mu_best, total_best, n_evals


def argmax_candidates(objective, candidates) -> float:
    """Maximizer over candidates; ties go to the smallest share.  This is
    how the package's per-index share solve picked its answer before it
    read the end slopes of its stationarity quartic."""
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


def clamped_curvature_eigh(h: np.ndarray) -> np.ndarray:
    """The curvature clamped to negative definite through ``np.linalg.eigh``:
    each eigenvalue w becomes -max(|w|, 1e-10 max|w|), or -1 when every w
    is 0."""
    w, v = np.linalg.eigh(h)
    mag = np.abs(w)
    floor = _CURV_FLOOR * float(mag.max()) or 1.0
    return (v * -np.maximum(mag, floor)) @ v.T


def newton_direction_eigh(
    x: np.ndarray, g: np.ndarray, h: np.ndarray, cap: float, equality: bool
) -> tuple[np.ndarray, float, np.ndarray]:
    """The projected Newton direction the package computed on arrays before
    it moved to floats: the curvature clamped through ``np.linalg.eigh``
    whatever it is (:func:`clamped_curvature_eigh`), and each free set's KKT
    system solved through ``np.linalg.inv``.  Same contract as
    ``solver._newton_direction`` with ``h`` a dense array, and returns the
    final free set (a mask) after the direction and its gain."""
    h = clamped_curvature_eigh(h)
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
            return d, 0.5 * float(g @ d), free
        free |= release


def solve_poly_real(coeffs: QuarticCoeffs) -> list[float]:
    """Real roots of a polynomial of degree <= 4, routing degenerate leading
    coefficients down to the package's cubic/quadratic/linear solvers.  The
    package dispatched this way before its per-index solves asked the
    quartic solver for one interval only."""
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


def solve_p32a(comp, mu: float, lo: float, hi: float) -> float:
    """The local-share closed form the package had before ``solve_p32b``
    took over with no link factor: maximize ln q(phi) + mu*phi over
    [lo, hi] over the roots of the quadratic stationarity condition, the
    interval ends and the midpoint."""
    roots = solve_poly_real(
        QuarticCoeffs(0.0, 0.0, mu * comp.c2, mu * comp.c1 + 2.0 * comp.c2, mu * comp.c0 + comp.c1)
    )

    def objective(phi: float) -> float:
        q = comp.value(phi)
        return (math.log(q) if q > 0.0 else -math.inf) + mu * phi

    candidates = [lo, hi, 0.5 * (lo + hi)]
    candidates += [r for r in roots if lo < r < hi]
    return argmax_candidates(objective, candidates)


def solve_p32b_candidates(tx, comp, mu: float, lo: float, hi: float) -> float:
    """The per-index share solve the package had before it read the end
    slopes of its stationarity quartic: maximize
    ln q_tx(phi) + ln q_comp(phi) + mu*phi over the quartic's real roots in
    (lo, hi), the interval ends and the midpoint (``tx`` None stands for
    q_tx = 1).  The quartic is built with the package's expressions, and
    only its roots inside (lo, hi) are certified, as in the package, so the
    two see the same roots: a root outside may fail the whole-line
    certificate without bearing on the answer."""
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
    try:
        roots = solve_quartic_real(quartic, (lo, hi))
    except DegenerateCoefficientError:
        roots = solve_poly_real(quartic)

    def ln(v: float) -> float:
        return math.log(v) if v > 0.0 else -math.inf

    def objective(phi: float) -> float:
        ln_tx = ln(tx.value(phi)) if tx is not None else 0.0
        return ln_tx + ln(comp.value(phi)) + mu * phi

    candidates = [lo, hi, 0.5 * (lo + hi)]
    candidates += [r for r in roots if lo < r < hi]
    return argmax_candidates(objective, candidates)


class ListReplay:
    """Prioritized replay as the package kept it before its array ring: a
    list of per-transition tuples (state, action, reward, next state,
    terminal) with a parallel list of priorities, sampled into a list."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.items: list[tuple] = []
        self.priorities: list[float] = []
        self.cursor = 0

    def push(self, item: tuple) -> None:
        prio = max(self.priorities, default=1.0)
        if len(self.items) < self.capacity:
            self.items.append(item)
            self.priorities.append(prio)
        else:
            self.items[self.cursor] = item
            self.priorities[self.cursor] = prio
            self.cursor = (self.cursor + 1) % self.capacity

    def update_priorities(self, indices, priorities) -> None:
        for i, p in zip(indices, priorities):
            self.priorities[i] = float(p)

    def sample(self, batch_size: int, rng: np.random.Generator,
               priority_exponent: float, importance_exponent: float):
        """Returns (indices, sampled tuples, importance weights)."""
        n = len(self.items)
        scaled = np.asarray(self.priorities, dtype=float) ** priority_exponent
        probs = scaled / scaled.sum()
        idx = rng.choice(n, size=batch_size, p=probs)
        weights = (n * probs[idx]) ** (-importance_exponent)
        return idx, [self.items[i] for i in idx], weights / weights.max()


def is_float_tuple(value, rows: bool = False) -> bool:
    """``value`` is a tuple of Python floats or, with ``rows``, a tuple of
    such tuples."""
    return type(value) is tuple and all(
        is_float_tuple(v) if rows else type(v) is float for v in value)


def slot_fields_are_float_tuples(obj) -> bool:
    """Every field of a ``MultiUserState`` or ``MultiUserAction`` is a tuple
    of Python floats; ``gains``, ``phi`` and ``t`` are tuples of such rows."""
    return all(is_float_tuple(getattr(obj, f.name), rows=f.name in ("gains", "phi", "t"))
               for f in dataclasses.fields(obj))


def interference_matrix(mp: MultiUserParams, state: MultiUserState, action: MultiUserAction) -> np.ndarray:
    """Uplink interference I[n, m]: realized received power of every other
    user that actually transmits to server m this slot."""
    power, gains, phi = (np.asarray(v, dtype=float) for v in (action.power, state.gains, action.phi))
    rx = power[:, None] * gains * (phi[:, 1:] > 0.0)
    return np.maximum(rx.sum(axis=0)[None, :] - rx, 0.0)


def success_vector_numpy(mp: MultiUserParams, state: MultiUserState, action: MultiUserAction) -> np.ndarray:
    """``multiuser.success_vector`` as the package computed it on arrays: the
    couplings (interference, cross load, local budget) as whole-matrix numpy
    expressions, then :func:`~airalloc.model.log_factors` per user."""
    _check_dims(mp, action)
    bits, energies, phi, t, power = (np.asarray(v, dtype=float) for v in (
        state.task_bits, state.energies, action.phi, action.t, action.power))
    w = mp.workload
    gains = np.asarray(mp.mean_gains, dtype=float)
    snr = power[:, None] * gains / (mp.noise_w + interference_matrix(mp, state, action))
    load = bits[:, None] * phi[:, 1:] * w.mean
    cross = load.sum(axis=0)[None, :] - load
    allowance = np.minimum(np.asarray(mp.energy_budgets_j, dtype=float), energies)
    rho = np.minimum(mp.local_speed_hz * np.asarray(mp.latency_budgets_s, dtype=float),
                     (allowance - power * t.sum(axis=1)) / local_cycle_energy(mp))
    rows = zip(bits.tolist(), mp.latency_budgets_s, cross.tolist(), snr.tolist(),
               phi.tolist(), t.tolist(), rho.tolist())
    return np.array([
        math.exp(log_factors(bits, mp.bandwidth_hz, w, deadline, mp.server_speeds_hz,
                             cross_n, snr_n, phi_n, t_n, rho_n).total)
        for bits, deadline, cross_n, snr_n, phi_n, t_n, rho_n in rows
    ])


def violations_numpy(mp: MultiUserParams, state: MultiUserState, action: MultiUserAction) -> list[str]:
    """``multiuser.violations`` on array rows and columns."""
    _check_dims(mp, action)
    bits, phi, t, power = (np.asarray(v, dtype=float) for v in (
        state.task_bits, action.phi, action.t, action.power))
    out: list[str] = []
    for n in range(mp.n_users):
        row = phi[n]
        if row.min() < -_FEAS_TOL or abs(row.sum() - 1.0) > 1e-6:
            out.append(f"share row of user {n + 1} off the simplex")
        if t[n].min() < -_FEAS_TOL:
            out.append(f"negative airtime for user {n + 1}")
        if not 0.0 <= power[n] <= mp.p_max_w[n] + _FEAS_TOL:
            out.append(f"power of user {n + 1} outside [0, {mp.p_max_w[n]}]")
    for m in range(mp.n_servers):
        if t[:, m].sum() > mp.slot_s + _FEAS_TOL:
            out.append(f"airtime on server {m + 1} over the slot budget")
        load = float(np.sum(bits * phi[:, m + 1])) / mp.server_speeds_hz[m]
        if load > mp.capacities_s[m] + _FEAS_TOL:
            out.append(f"compute load on server {m + 1} over capacity")
    return out


def spent_energy_numpy(mp: MultiUserParams, state: MultiUserState, action: MultiUserAction) -> np.ndarray:
    """``multiuser.spent_energy`` as whole-array expressions."""
    bits, phi, t, power = (np.asarray(v, dtype=float) for v in (
        state.task_bits, action.phi, action.t, action.power))
    tx = power * t.sum(axis=1)
    local_cycles = bits * phi[:, 0] * mp.workload.mean
    return tx + local_cycle_energy(mp) * local_cycles


def user_success(mp, state, action, n: int) -> float:
    """End-to-end success probability of user n (1-based) under the joint
    action."""
    return float(success_vector_numpy(mp, state, action)[n - 1])


def reward(
    mp: MultiUserParams,
    state: MultiUserState,
    action: MultiUserAction,
    breakdowns: np.ndarray | None = None,
) -> float:
    """Weighted log-success minus the normalized energy bill.

    Infeasible actions short-circuit to a fixed penalty per violated
    constraint; otherwise each user's log-success is clamped at ln(1e-12) so
    a zero-probability user costs a large but finite amount.
    """
    broken = violations_numpy(mp, state, action)
    if broken:
        return _PENALTY * len(broken)
    if breakdowns is None:
        breakdowns = success_vector_numpy(mp, state, action)
    lnp = [max(math.log(p), _LN_FLOOR) if p > 0.0 else _LN_FLOOR for p in breakdowns]
    # Left to right, one rounding per product and per sum: np.dot may fuse
    # its multiply-adds, and then rounds differently with the BLAS.
    weighted = 0.0
    for w, lp in zip(mp.weights, lnp):
        weighted += w * lp
    caps = np.asarray(mp.energy_capacity_j, dtype=float)
    energies = spent_energy_numpy(mp, state, action)
    return float(weighted - mp.energy_weight * np.sum(energies / caps))


def scheduler_nominal_rates(kind: str, mp: MultiUserParams) -> np.ndarray:
    """Per-user success of the rule on the nominal deterministic state (mean
    gains, configured task sizes, full batteries), averaged over one full
    rotation of slots.  Symmetric users under round_robin come out exactly
    equal, which pins the fairness index at 1."""
    state = MultiUserState(task_bits=mp.task_bits, gains=mp.mean_gains,
                           queues=(0.0,) * mp.n_servers, energies=mp.energy_capacity_j)
    slots = [success_vector(mp, state, scheduler_action(kind, mp, state, k))
             for k in range(mp.n_users)]
    # fsum rounds once, so the result does not depend on the order of the
    # slots: symmetric users see the same numbers in a rotated order.
    return np.array([math.fsum(user) for user in zip(*slots)]) / mp.n_users


def enumerate_actions_loop(mp, granularity: float, time_fracs=(0.25, 0.5),
                           power_fracs=(0.5, 1.0)) -> list[MultiUserAction]:
    """The joint action table as the package built it before its array
    form: one object per combination, in ``itertools.product`` order over
    users, each user's options over (share row, airtime row, power level),
    keeping the combinations whose summed airtime fits the slot."""
    t_rows = list(itertools.product(*[[f * mp.slot_s for f in time_fracs]] * mp.n_servers))
    per_user = []
    for n in range(mp.n_users):
        powers = [f * mp.p_max_w[n] for f in power_fracs]
        per_user.append(list(itertools.product(_share_rows(mp.n_servers, granularity),
                                               t_rows, powers)))
    actions = []
    for combo in itertools.product(*per_user):
        phi, t, power = zip(*combo)
        if np.any(np.array(t).sum(axis=0) > mp.slot_s + 1e-9):
            continue
        actions.append(MultiUserAction(phi, t, power))
    return actions


def forward_cached(theta: QNetworkParams, x: np.ndarray):
    """The network's forward pass before its output buffers: run the network on a batch, keeping post-activation layers for the
    backward pass.  Returns (q_values, activations)."""
    h = x
    acts = [h]
    last = len(theta.weights) - 1
    for i, (w, b) in enumerate(zip(theta.weights, theta.biases)):
        z = h @ w + b
        h = z if i == last else np.maximum(z, 0.0)
        acts.append(h)
    return h, acts


def train_step_alloc(theta: QNetworkParams, theta_target: QNetworkParams, batch, config):
    """`dqn.train_step` computed densely: a full-width output layer in the
    forward and backward passes, and a new network as the result.

    One SGD step on the importance-weighted squared TD error.

    Targets are double-Q: the online network chooses the next action, the
    target network evaluates it; terminal transitions bootstrap nothing.
    Returns the updated parameters and the per-sample TD errors (prediction
    minus target), whose absolute values refresh the replay priorities.
    """
    b = batch.states.shape[0]
    # One online forward over [states; next_states]: rows are independent,
    # the first b feed the backward pass, the rest pick the next actions.
    q_both, acts_both = forward_cached(theta, np.concatenate([batch.states, batch.next_states]))
    next_actions = np.argmax(q_both[b:], axis=1)
    q_next_target, _ = forward_cached(theta_target, batch.next_states)
    bootstrap = q_next_target[np.arange(b), next_actions]
    targets = batch.rewards + config.discount * bootstrap * (~batch.terminals)

    q_all = q_both[:b]
    acts = [a[:b] for a in acts_both]
    pred = q_all[np.arange(b), batch.actions]
    td = pred - targets
    loss = float(np.mean(batch.weights * td * td))
    if not math.isfinite(loss):
        raise FloatingPointError(
            f"non-finite training loss {loss}: |td|max={np.max(np.abs(td))}, "
            f"reward range [{batch.rewards.min()}, {batch.rewards.max()}]"
        )

    # Backward pass: d loss / d q is nonzero only at the taken actions.
    dq = np.zeros_like(q_all)
    dq[np.arange(b), batch.actions] = 2.0 * batch.weights * td / b

    new_w = [w.copy() for w in theta.weights]
    new_b = [bv.copy() for bv in theta.biases]
    delta = dq
    for i in range(len(theta.weights) - 1, -1, -1):
        h_in = acts[i]
        grad_w = h_in.T @ delta
        grad_b = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ theta.weights[i].T) * (acts[i] > 0.0)
        new_w[i] -= config.learning_rate * grad_w
        new_b[i] -= config.learning_rate * grad_b

    updated = QNetworkParams(new_w, new_b)
    updated.check_finite()
    return updated, td


def soft_update_alloc(theta_target: QNetworkParams, theta: QNetworkParams, tau: float) -> QNetworkParams:
    """`dqn.soft_update` with a new target as the result: a convex
    elementwise blend of tau of the online net into the old target."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be within [0, 1], got {tau}")
    ws, bs = [], []
    for wt, w in zip(theta_target.weights, theta.weights):
        if wt.shape != w.shape:
            raise ValueError(f"shape mismatch {wt.shape} vs {w.shape}")
        ws.append(tau * w + (1.0 - tau) * wt)
    for bt, bv in zip(theta_target.biases, theta.biases):
        bs.append(tau * bv + (1.0 - tau) * bt)
    return QNetworkParams(ws, bs)
