"""Riesz capacities and the admissibility ratio.

cap_{alpha,p}(E) = inf { h^n sum u^p : u >= 0, I_alpha(u) >= 1 on E }.

Two routes are provided: the closed-form upper bound for balls, carried by an
explicit feasible candidate (the tests' paper_ball_candidate), and a
certified estimator over gridded densities.
The estimator maximises the Lagrangian dual (Adams & Hedberg, Function Spaces
and Potential Theory, section 2.5) over lambda >= 0 on E,

    g(lambda) = h^n [sum_E lambda - (p - 1) sum (max(I_alpha lambda, 0) / p)^p'],

whose inner minimiser is u(lambda) = (max(I_alpha lambda, 0) / p)^(1/(p-1))
and whose gradient is h^n (1 - I_alpha u(lambda)) on E, the discrete I_alpha
being symmetric.  Every g(lambda) is a lower bound on the capacity and every
u / min_E I_alpha u an upper bound, so each estimate comes with a bracket
whose relative width is the stopping test.

The admissibility side measures the ratio I_{2s-1}([I_{2s-1}(omega)]^q) /
I_{2s-1}(omega) over the box and rescales a measure so the ratio, which is
(q-1)-homogeneous in omega, equals a requested fraction of the threshold
(q')^(1-q) q^(-1) C0^(-q).

Convention: omega_n below is the surface measure of the unit sphere,
2 pi^(n/2) / Gamma(n/2).  With that reading the ball bound at n=2, alpha=1/2,
p=2, r=1 equals (2^1.5 / c(2,0.5))^2 / (2 pi); the explicit candidate's p-norm
then carries an extra 1/n against the bound (volume vs surface of the ball),
which the tests pin as measured.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .core import Grid, GridField, Measure, Parameters, check_box, sup_ratio
from .errors import ConfigError, NotConverged
from .riesz import (
    gradient_comparison_constant,
    riesz_constant,
    riesz_potential_field,
    riesz_potential_measure,
)
from .special import sphere_surface


@dataclass(frozen=True)
class CapacityEstimate:
    value: float
    upper_bound: float
    candidate: GridField
    lower_bound: float
    analytic_ball_bound: float | None = None
    iterations: int = 0
    feasibility_gap: float = 0.0

    def __post_init__(self) -> None:
        if self.value > self.upper_bound * (1.0 + 1e-12):
            raise ValueError("estimate exceeds its own feasible upper bound")
        if self.lower_bound > self.value * (1.0 + 1e-12):
            raise ValueError("dual lower bound exceeds the estimate")


@dataclass(frozen=True)
class AdmissibilityReport:
    c1_hat: float
    c1_threshold: float
    theta: float
    scale_factor: float = 1.0


def ball_capacity_upper(n: int, alpha: float, p: float, r: float) -> float:
    """Closed-form upper bound C * r^(n - alpha p) for cap of a ball."""
    if not 0.0 < alpha < n:
        raise ConfigError(f"alpha={alpha} outside (0, {n})")
    _check_exponent(p)
    if not 0.0 <= r < np.inf:
        raise ConfigError(f"radius must be nonnegative and finite, got {r}")
    if r == 0.0:
        return 0.0
    c = riesz_constant(n, alpha)
    try:
        const = (2.0 ** (n - alpha) / c) ** p * sphere_surface(n) ** (1.0 - p)
        bound = const * r ** (n - alpha * p)
    except OverflowError:
        bound = np.inf
    if not np.isfinite(bound):
        raise ConfigError(f"capacity bound of the ball of radius {r} at p={p} overflows a float")
    return bound


def _check_exponent(p: float) -> None:
    """Refuse a capacity exponent outside 1 < p < inf, nan included."""
    if not 1.0 < p < np.inf:
        raise ConfigError(f"capacity exponent p must satisfy 1 < p < inf, got p={p}")


def _out_of_range(p: float) -> ConfigError:
    return ConfigError(f"capacity exponent p={p} takes the estimate outside the float range")


def ball_mask(grid: Grid, x0, r: float) -> np.ndarray:
    """Boolean mask of cell centers strictly inside B_r(x0)."""
    return grid.dist2(x0) < r * r


def estimate_capacity(
    mask: np.ndarray,
    alpha: float,
    p: float,
    grid: Grid,
    tol: float = 1e-6,
    max_iter: int = 5000,
) -> CapacityEstimate:
    """Capacity of the cells in mask, bracketed by the dual and the primal.

    Projected FISTA (Beck & Teboulle 2009) maximises the dual g with a
    backtracking step and restarts its momentum whenever g decreases.  Each
    extrapolated y gives the upper bound of u(y) / min_E I_alpha u(y); the
    best g(lambda) is the lower bound.  The loop stops once the relative gap
    (upper - lower) / upper is at most tol, and raises NotConverged with the
    bracket when max_iter runs out or the iterate stops moving.  The primal
    bound is only about as accurate as the square root of the dual's, so a
    tol below about 1e-8 ends in the latter once the dual has converged.

    The loop runs on the unit-spacing grid Grid(n, N/2, N): I_alpha is
    homogeneous of degree alpha in h, so the candidate maps back as
    h^(-alpha) u and the bounds as h^(n - alpha p) times theirs.  That
    problem depends only on (n, N, mask, alpha, p, tol, max_iter), so it is
    solved once per process and every self-similar call (the same mask on a
    box of another size, as in a capacity sweep) reuses the loop's result;
    iterations is the count of the loop that produced it.  On the caller's
    grid, on every call, the candidate is divided by min_E I_alpha u where
    that is below 1 and measured again; value is its h^n sum u^p, and
    upper_bound the best feasible objective the loop reached, or value if
    rounding puts that above it.
    """
    _check_exponent(p)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != grid.shape:
        raise ConfigError("mask shape does not match grid")
    if not mask.any():
        raise ConfigError("capacity of the empty set is trivially zero")
    try:
        scale = grid.h ** (grid.n - alpha * p)
    except OverflowError:
        scale = np.inf
    if not 0.0 < scale < np.inf:
        raise _out_of_range(p)
    try:
        best_u, best_val, lower, it = _unit_solve(
            grid.n, grid.N, mask.tobytes(), alpha, p, tol, max_iter
        )
    except NotConverged as exc:
        why, lower, best_val = exc.args
        raise NotConverged(
            f"{why}; capacity in [{lower * scale:.10g}, {best_val * scale:.10g}]"
        ) from None

    cand = best_u * grid.h ** (-alpha)
    m = float(np.min(_potential(cand, alpha, grid)[mask]))
    if m < 1.0:
        cand = cand / m
        m = float(np.min(_potential(cand, alpha, grid)[mask]))
    with np.errstate(over="ignore"):
        value = grid.cell_volume * float(np.sum(cand**p))
    if not max(best_val * scale, value) < np.inf:
        raise _out_of_range(p)
    return CapacityEstimate(
        value=value,
        upper_bound=max(best_val * scale, value),
        lower_bound=lower * scale,
        candidate=GridField(grid, cand),
        iterations=it,
        feasibility_gap=max(0.0, 1.0 - m),
    )


def _potential(vals: np.ndarray, alpha: float, grid: Grid) -> np.ndarray:
    return riesz_potential_field(GridField(grid, vals), alpha).values


@lru_cache(maxsize=8)
def _unit_solve(
    n: int, N: int, mask_bytes: bytes, alpha: float, p: float, tol: float, max_iter: int
) -> tuple[np.ndarray, float, float, int]:
    """estimate_capacity's loop on Grid(n, N/2, N), kept per exact input.

    It returns best_u (read-only), its objective, the dual lower bound and
    the iteration count, in unit-grid terms.  A loop that does not close its
    gap raises NotConverged(why, lower, upper), which lru_cache does not
    keep, so each such call runs the loop again.
    """
    unit = Grid(n, N / 2.0, N)
    mask = np.frombuffer(mask_bytes, dtype=bool).reshape(unit.shape)

    def potential(vals: np.ndarray) -> np.ndarray:
        return _potential(vals, alpha, unit)

    def primal(k_lam: np.ndarray) -> np.ndarray:
        return (np.maximum(k_lam, 0.0) / p) ** (1.0 / (p - 1.0))

    def dual(lam: np.ndarray, k_lam: np.ndarray) -> float:
        return float(np.sum(lam) - (p - 1.0) * np.sum(primal(k_lam) ** p))

    # the equivalent-ball candidate is a multiple of the indicator of E, so
    # its polished form is 1_E / min_E I_alpha 1_E; the best multiple of
    # 1_E is also the dual's starting point, in closed form
    ind = mask.astype(float)
    k_ind = potential(ind)
    best_u = ind / float(np.min(k_ind[mask]))  # the kernel is positive
    with np.errstate(over="ignore"):
        best_val = float(np.sum(best_u**p))
        c = (np.sum(ind) / (p * np.sum(primal(k_ind) ** p))) ** (p - 1.0)
    if not (best_val < np.inf and 0.0 < c < np.inf):
        raise _out_of_range(p)
    lam = lam_prev = c * ind
    k_lam = k_prev = c * k_ind
    lower = g_lam = dual(lam, k_lam)
    # first step: the inverse Rayleigh quotient of -g's Hessian along 1_E
    step = float((p - 1.0) * c * np.sum(ind) / np.sum(primal(k_lam) * k_ind))
    t = 1.0
    for it in range(1, max_iter + 1):
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        y = lam + beta * (lam - lam_prev)
        k_y = k_lam + beta * (k_lam - k_prev)
        u = primal(k_y)
        k_u = potential(u)
        m = float(np.min(k_u[mask]))
        if m > 0.0 and np.sum((u / m) ** p) < best_val:
            best_u, best_val = u / m, float(np.sum((u / m) ** p))
        if best_val - lower <= tol * best_val:
            break
        grad = np.where(mask, 1.0 - k_u, 0.0)
        g_y, floor, trial = dual(y, k_y), np.maximum(y, 0.0), None
        while True:
            new = np.maximum(y + step * grad, 0.0)
            if np.array_equal(new, floor):
                raise NotConverged(f"iterate stuck after {it} iterations", lower, best_val)
            if trial is None or not np.array_equal(new, trial):
                trial, k_new = new, potential(new)
                g_new = dual(new, k_new)
            d = new - y
            if g_new >= g_y + np.sum(grad * d) - np.sum(d * d) / (2.0 * step):
                break
            step *= 0.5
        if g_new < g_lam:
            t_next = 1.0
        lam_prev, k_prev, lam, k_lam, g_lam = lam, k_lam, new, k_new, g_new
        lower, t = max(lower, g_new), t_next
        # the curvature along the iterates falls well below its value at the
        # start, so the step may grow again after each accepted move
        step *= 1.5
    else:
        raise NotConverged(f"gap open after {max_iter} iterations", lower, best_val)
    best_u.flags.writeable = False
    return best_u, best_val, lower, it


def estimate_ball_capacity(
    x0, r: float, alpha: float, p: float, grid: Grid, **kw
) -> CapacityEstimate:
    """estimate_capacity on a ball mask, with the analytic bound attached.

    The ball must lie inside [-L, L]^n, or its mask would hold only a part of it.
    """
    bound = ball_capacity_upper(grid.n, alpha, p, r)
    center = np.asarray(x0, dtype=float)
    if not np.all(np.abs(center) + r <= grid.L):
        raise ConfigError(f"the ball of radius {r} about {center.tolist()} is not inside "
                          f"the box [-{grid.L}, {grid.L}]^{grid.n}")
    est = estimate_capacity(ball_mask(grid, x0, r), alpha, p, grid, **kw)
    return replace(est, analytic_ball_bound=bound)


def c1_threshold(params: Parameters) -> float:
    c0 = gradient_comparison_constant(params.n, params.s)
    return params.p ** (1.0 - params.q) / params.q * c0 ** (-params.q)


def wolff_ratio(omega: Measure, params: Parameters, grid: Grid) -> AdmissibilityReport:
    """Measured sup of I_{2s-1}([I_{2s-1} omega]^q) / I_{2s-1}(omega).

    The sup runs over the box only; both potentials decay at the same rate
    away from the support, so the max is attained in the near field once
    L >= 4 R, which is enforced here.
    """
    return wolff_ratio_and_potential(omega, params, grid)[0]


def wolff_ratio_and_potential(
    omega: Measure, params: Parameters, grid: Grid
) -> tuple[AdmissibilityReport, GridField]:
    """wolff_ratio and the potential I_{2s-1}(omega) it was measured on."""
    if omega.total_mass() <= 0.0:
        raise ConfigError("admissibility ratio of the zero measure")
    check_box(omega, grid)
    alpha = 2.0 * params.s - 1.0
    pot = riesz_potential_measure(omega, alpha, grid)
    w = riesz_potential_field(GridField(grid, pot.values**params.q), alpha).values
    c1_hat = sup_ratio(w, pot.values, 0.0)
    if c1_hat == 0.0:
        raise ConfigError("admissibility ratio underflows: [I_(2s-1) omega]^q is 0 in every cell")
    thresh = c1_threshold(params)
    report = AdmissibilityReport(c1_hat=c1_hat, c1_threshold=thresh, theta=c1_hat / thresh)
    return report, pot


def scale_measure_admissible(
    omega: Measure, theta_target: float, params: Parameters, grid: Grid
) -> tuple[float, AdmissibilityReport]:
    """Multiplier t with wolff_ratio(t omega) = theta_target * threshold.

    The ratio is (q-1)-homogeneous in the measure, so one measurement on
    omega gives both t = (theta* C1star / C1hat)^(1/(q-1)) and the report of
    t omega, c1_hat(t omega) = t^(q-1) c1_hat(omega).  picard_solve's guard
    measures the scaled measure itself, so the inference is checked there.
    """
    if not 0.0 < theta_target < 1.0:
        raise ConfigError(f"target theta {theta_target} outside (0, 1)")
    base = wolff_ratio(omega, params, grid)
    t = (theta_target * base.c1_threshold / base.c1_hat) ** (1.0 / (params.q - 1.0))
    c1_hat = t ** (params.q - 1.0) * base.c1_hat
    return t, replace(
        base, c1_hat=c1_hat, theta=c1_hat / base.c1_threshold, scale_factor=t
    )
