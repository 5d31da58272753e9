"""Riesz capacities and the admissibility ratio.

cap_{alpha,p}(E) = inf { h^n sum u^p : u >= 0, I_alpha(u) >= 1 on E }.

Two routes are provided: the closed-form upper bound for balls carried by an
explicit feasible candidate, and a projected-gradient minimizer over gridded
densities.  The admissibility side measures the ratio
I_{2s-1}([I_{2s-1}(omega)]^q) / I_{2s-1}(omega) over the box and rescales a
measure until the ratio falls under a requested fraction of the threshold
(q')^(1-q) q^(-1) C0^(-q).

Convention: omega_n below is the surface measure of the unit sphere,
2 pi^(n/2) / Gamma(n/2).  With that reading the ball bound at n=2, alpha=1/2,
p=2, r=1 equals (2^1.5 / c(2,0.5))^2 / (2 pi); the explicit candidate's p-norm
then carries an extra 1/n against the bound (volume vs surface of the ball),
which the tests pin as measured.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import Grid, GridField, Measure, Parameters
from .errors import (
    AlphaOutOfRange,
    ConfigError,
    EmptySet,
    NotConverged,
    ThetaOutOfRange,
    ZeroMeasure,
)
from .riesz import riesz_constant, riesz_potential_field, riesz_potential_measure
from .special import ball_volume, sphere_surface


@dataclass(frozen=True)
class CapacityEstimate:
    value: float
    upper_bound: float
    candidate: GridField
    analytic_ball_bound: float | None = None
    iterations: int = 0
    feasibility_gap: float = 0.0

    def __post_init__(self) -> None:
        if self.value > self.upper_bound * (1.0 + 1e-12):
            raise ValueError("estimate exceeds its own feasible upper bound")


@dataclass(frozen=True)
class AdmissibilityReport:
    c1_hat: float
    c1_threshold: float
    theta: float
    scale_factor: float = 1.0

    def to_dict(self) -> dict:
        return {
            "c1_hat": self.c1_hat,
            "c1_threshold": self.c1_threshold,
            "theta": self.theta,
            "scale_factor": self.scale_factor,
        }


@dataclass(frozen=True)
class DominationReport:
    ratios: tuple[float, ...]
    balls: tuple[tuple[tuple[float, ...], float], ...]

    @property
    def max_ratio(self) -> float:
        return max(self.ratios) if self.ratios else 0.0

    def to_dict(self) -> dict:
        return {
            "max_ratio": self.max_ratio,
            "balls": [
                {"center": list(c), "radius": r, "ratio": ratio}
                for (c, r), ratio in zip(self.balls, self.ratios)
            ],
        }


def ball_capacity_upper(n: int, alpha: float, p: float, r: float) -> float:
    """Closed-form upper bound C * r^(n - alpha p) for cap of a ball."""
    if not 0.0 < alpha < n:
        raise AlphaOutOfRange(f"alpha={alpha} outside (0, {n})")
    if p <= 1.0:
        raise ValueError("p must exceed 1")
    if r < 0.0:
        raise ValueError("radius must be nonnegative")
    if r == 0.0:
        return 0.0
    c = riesz_constant(n, alpha)
    const = (2.0 ** (n - alpha) / c) ** p * sphere_surface(n) ** (1.0 - p)
    return const * r ** (n - alpha * p)


def ball_mask(grid: Grid, x0, r: float) -> np.ndarray:
    """Boolean mask of cell centers strictly inside B_r(x0)."""
    return grid.dist2(x0) < r * r


def paper_ball_candidate(x0, r: float, alpha: float, grid: Grid) -> GridField:
    """The scaled ball indicator certifying the capacity upper bound."""
    c = riesz_constant(grid.n, alpha)
    height = 2.0 ** (grid.n - alpha) / (c * sphere_surface(grid.n) * r**alpha)
    vals = np.where(ball_mask(grid, x0, r), height, 0.0)
    return GridField(grid, vals)


def _mask_min(field: np.ndarray, mask: np.ndarray) -> float:
    return float(np.min(field[mask]))


def estimate_capacity(
    mask: np.ndarray,
    alpha: float,
    p: float,
    grid: Grid,
    tol: float = 1e-6,
    max_iter: int = 5000,
) -> CapacityEstimate:
    """Projected-gradient minimization of h^n sum u^p with I_alpha(u) >= 1 on E.

    The constraint enters through the penalty mu * h^n sum_E max(0, 1 - Au)^2;
    mu escalates when progress stalls while infeasible.  Every candidate is
    also polished by exact rescaling u / min_E(Au), and the best feasible
    objective seen is what gets reported, so the returned value is certified
    by an actually feasible density regardless of where the iteration stops.
    The problem is convex for p > 1, so stationarity is global up to
    discretization.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != grid.shape:
        raise ConfigError("mask shape does not match grid")
    if not mask.any():
        raise EmptySet("capacity of the empty set is trivially zero")
    hn = grid.cell_volume

    def potential(vals: np.ndarray) -> np.ndarray:
        if not vals.any():  # the deficit of a feasible candidate
            return np.zeros_like(vals)
        return riesz_potential_field(GridField(grid, vals), alpha).values

    def objective(vals: np.ndarray) -> float:
        return float(hn * np.sum(vals**p))

    # equivalent-ball candidate on E, rescaled to exact feasibility
    count = int(mask.sum())
    r_eq = (count * hn / ball_volume(grid.n)) ** (1.0 / grid.n)
    c = riesz_constant(grid.n, alpha)
    height = 2.0 ** (grid.n - alpha) / (c * sphere_surface(grid.n) * r_eq**alpha)
    u = np.where(mask, height, 0.0)
    a_min = _mask_min(potential(u), mask)
    if a_min <= 0.0:
        raise NotConverged("initial candidate generates no potential on E")
    u = u / a_min
    au = potential(u)

    upper = objective(u)
    best_val = upper
    best_u, best_au = u.copy(), au

    mu = 10.0
    # beyond this the penalty term saturates double precision long before it
    # changes the minimiser at tol-level feasibility
    mu_max = 1e12
    step = 1.0
    prev_obj = upper
    stall = 0
    it = 0
    for it in range(1, max_iter + 1):
        deficit = np.where(mask, np.maximum(0.0, 1.0 - au), 0.0)
        grad = hn * (p * u ** (p - 1.0) - 2.0 * mu * potential(deficit))
        scale = float(np.max(np.abs(grad)))
        if scale == 0.0:
            break
        # steps measured relative to the candidate's own height keep the
        # trajectory equivariant under ball rescaling
        u_scale = float(np.max(u))
        if u_scale == 0.0:
            u_scale = 1.0
        phi0 = objective(u) + mu * hn * float(np.sum(deficit**2))
        trial_step = step
        rejected = u  # a trial equal to it would be rejected again
        for _ in range(30):
            cand = np.maximum(0.0, u - trial_step * u_scale / scale * grad)
            if not np.array_equal(cand, rejected):
                au_c = potential(cand)
                def_c = np.where(mask, np.maximum(0.0, 1.0 - au_c), 0.0)
                phi_c = objective(cand) + mu * hn * float(np.sum(def_c**2))
                if phi_c < phi0:
                    break
                rejected = cand
            trial_step *= 0.5
        else:
            trial_step = 0.0
        if trial_step == 0.0:
            if mu >= mu_max:
                break
            mu *= 10.0
            stall = 0
            continue
        u, au = cand, au_c
        step = min(trial_step * 2.0, 1e6)

        feas_min = _mask_min(au_c, mask)
        if feas_min > 0.0:
            polished = objective(u / feas_min)
            if feas_min >= 1.0 - tol and objective(u) < best_val:
                best_val = objective(u)
                best_u, best_au = u.copy(), au
            elif polished < best_val:
                best_val = polished
                best_u, best_au = u / feas_min, None
        obj = objective(u)
        if feas_min >= 1.0 - tol and abs(prev_obj - obj) <= 1e-8 * max(obj, 1e-300):
            stall += 1
            if stall >= 50:
                break
        else:
            stall = 0
        if feas_min < 1.0 - tol and abs(prev_obj - obj) <= 1e-10 * max(obj, 1e-300):
            mu = min(mu * 10.0, mu_max)
        prev_obj = obj

    gap = 1.0 - _mask_min(potential(best_u) if best_au is None else best_au, mask)
    if gap > tol:
        raise NotConverged(f"feasibility gap {gap:.2e} after {it} iterations")
    return CapacityEstimate(
        value=best_val,
        upper_bound=upper,
        candidate=GridField(grid, best_u),
        iterations=it,
        feasibility_gap=max(gap, 0.0),
    )


def estimate_ball_capacity(
    x0, r: float, alpha: float, p: float, grid: Grid, **kw
) -> CapacityEstimate:
    """estimate_capacity on a ball mask, with the analytic bound attached."""
    est = estimate_capacity(ball_mask(grid, x0, r), alpha, p, grid, **kw)
    return replace(est, analytic_ball_bound=ball_capacity_upper(grid.n, alpha, p, r))


def c1_threshold(params: Parameters) -> float:
    from .riesz import gradient_comparison_constant

    c0 = gradient_comparison_constant(params.n, params.s)
    return params.p ** (1.0 - params.q) / params.q * c0 ** (-params.q)


def wolff_ratio(omega: Measure, params: Parameters, grid: Grid) -> AdmissibilityReport:
    """Measured sup of I_{2s-1}([I_{2s-1} omega]^q) / I_{2s-1}(omega).

    The sup runs over the box only; both potentials decay at the same rate
    away from the support, so the max is attained in the near field once
    L >= 4 R, which is enforced here.
    """
    if omega.total_mass() <= 0.0:
        raise ZeroMeasure("admissibility ratio of the zero measure")
    if grid.L < 4.0 * omega.support_radius:
        raise ConfigError(
            f"box half-width {grid.L} below 4 x support radius {omega.support_radius}"
        )
    alpha = 2.0 * params.s - 1.0
    v = riesz_potential_measure(omega, alpha, grid).values
    w = riesz_potential_field(GridField(grid, v**params.q), alpha).values
    keep = v >= 1e-14
    c1_hat = float(np.max(w[keep] / v[keep]))
    thresh = c1_threshold(params)
    return AdmissibilityReport(c1_hat=c1_hat, c1_threshold=thresh, theta=c1_hat / thresh)


def scale_measure_admissible(
    omega: Measure, theta_target: float, params: Parameters, grid: Grid
) -> tuple[float, AdmissibilityReport]:
    """Multiplier t with wolff_ratio(t omega) = theta_target * threshold.

    The ratio is (q-1)-homogeneous in the measure, so t has the closed form
    (theta* C1star / C1hat)^(1/(q-1)); the returned report is recomputed on
    the scaled measure rather than inferred, as a consistency check.
    """
    if not 0.0 < theta_target < 1.0:
        raise ThetaOutOfRange(f"target theta {theta_target} outside (0, 1)")
    base = wolff_ratio(omega, params, grid)
    t = (theta_target * base.c1_threshold / base.c1_hat) ** (1.0 / (params.q - 1.0))
    scaled = wolff_ratio(omega.scaled(t), params, grid)
    return t, replace(scaled, scale_factor=t)


def check_capacity_domination(
    omega: Measure, params: Parameters, balls
) -> DominationReport:
    """Ratios omega(B) / cap-upper-bound over a family of balls."""
    alpha = 2.0 * params.s - 1.0
    ratios = []
    stored = []
    for center, radius in balls:
        cap = ball_capacity_upper(params.n, alpha, params.p, radius)
        mass = omega.ball_mass(center, radius)
        ratios.append(mass / cap if cap > 0.0 else np.inf if mass > 0.0 else 0.0)
        stored.append((tuple(float(x) for x in center), float(radius)))
    return DominationReport(ratios=tuple(ratios), balls=tuple(stored))
