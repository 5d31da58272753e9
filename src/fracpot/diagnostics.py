"""Norm and asymptotics diagnostics for potential fields.

Weak-type (Marcinkiewicz) quasinorms in the weighted measure
dmu = dx / (1 + |x|^(n+2s)), superlevel-set volumes, far-field decay fits,
and the pointwise positivity bound u >= c(n,2s) (R + |x|)^(2s-n) omega(R^n).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .core import Grid, GridField, Measure, Parameters
from .errors import AnnulusEmpty, ConfigError
from .riesz import riesz_constant


def _weights(grid: Grid, weight_s: float) -> np.ndarray:
    return grid.cell_volume / (1.0 + grid.radii() ** (grid.n + 2.0 * weight_s))


def marcinkiewicz_quasinorm(v: GridField, kappa: float, weight_s: float) -> float:
    """sup_lambda lambda * mu(|v| > lambda)^(1/kappa) in the weighted measure.

    The supremum of lambda * mu(|v| > lambda)^(1/kappa) over lambda > 0 is
    attained in the limit lambda -> w- at data values w, so scanning the
    sorted values with suffix-summed weights evaluates it exactly; a fixed
    logarithmic lambda grid can only undershoot.
    """
    if kappa <= 1.0:
        raise ConfigError(f"kappa {kappa} must exceed 1")
    mags = np.abs(v.values).ravel()
    if not np.any(mags > 0.0):
        return 0.0
    w = _weights(v.grid, weight_s).ravel()
    order = np.argsort(mags)
    mags = mags[order]
    w = w[order]
    # mu(|v| >= mags[i]) for each i, by suffix sums in ascending order
    suffix = np.cumsum(w[::-1])[::-1]
    keep = mags > 0.0
    return float(np.max(mags[keep] * suffix[keep] ** (1.0 / kappa)))


def distribution_function(u: GridField, lam: float) -> float:
    """Lebesgue volume h^n * #{u > lambda}."""
    return float(np.count_nonzero(u.values > lam) * u.grid.cell_volume)


def distribution_slope(
    u: GridField, lam_lo: float, lam_hi: float, levels: int = 20
) -> float:
    """Log-log slope of the superlevel volume against lambda."""
    lams = np.logspace(np.log10(lam_lo), np.log10(lam_hi), levels)
    vols = np.array([distribution_function(u, lam) for lam in lams])
    keep = vols > 0.0
    if keep.sum() < 2:
        raise AnnulusEmpty("not enough populated levels for a slope fit")
    slope, _ = np.polyfit(np.log(lams[keep]), np.log(vols[keep]), 1)
    return float(slope)


@dataclass(frozen=True)
class DecayFit:
    ring_inner: float
    ring_outer: float
    slope: float
    amplitude: float
    rmse: float


# the annulus decay_fit fits, in units of the box half-width L; the outer 10
# percent of the box stays outside it, so truncation effects of density-path
# fields do not reach the fit
DECAY_RING = (0.6, 0.8)


def decay_fit(u: GridField, omega: Measure, params: Parameters) -> DecayFit:
    """Least-squares power law of u over the annulus DECAY_RING, [0.6 L, 0.8 L]."""
    grid = u.grid
    inner, outer = (f * grid.L for f in DECAY_RING)
    if omega.support_radius >= inner:
        raise AnnulusEmpty("measure support reaches into the fitting annulus")
    radii = grid.radii()
    ring = (radii >= inner) & (radii <= outer) & (u.values > 0.0)
    if np.count_nonzero(ring) < 2:
        raise AnnulusEmpty("fitting annulus holds fewer than two usable points")
    lx = np.log(radii[ring])
    lu = np.log(u.values[ring])
    slope, intercept = np.polyfit(lx, lu, 1)
    resid = lu - (slope * lx + intercept)
    return DecayFit(
        ring_inner=inner,
        ring_outer=outer,
        slope=float(slope),
        amplitude=float(np.exp(intercept)),
        rmse=float(np.sqrt(np.mean(resid**2))),
    )


def positivity_check(
    u: GridField, omega: Measure, params: Parameters
) -> tuple[float, bool]:
    """Minimum of u and the kernel lower bound c (R+|x|)^(2s-n) * mass."""
    grid = u.grid
    mass = omega.total_mass()
    min_value = float(np.min(u.values))
    if mass == 0.0:
        return min_value, bool(min_value >= 0.0)
    c = riesz_constant(grid.n, 2.0 * params.s)
    bound = (
        c
        * (omega.support_radius + grid.radii()) ** (2.0 * params.s - grid.n)
        * mass
        * (1.0 - 1e-6)
    )
    return min_value, bool(np.all(u.values >= bound))


def diagnostics_report(
    u: GridField,
    grad_mag: GridField | None,
    omega: Measure,
    params: Parameters,
) -> dict:
    """Consolidated diagnostics of a solution field."""
    n, s = params.n, params.s
    kappa_u = n / (n - 2.0 * s)
    mass = omega.total_mass()
    report: dict = {
        "marcinkiewicz": {
            "u": marcinkiewicz_quasinorm(u, kappa_u, s),
            "u_kappa": kappa_u,
        },
        "total_mass": mass,
    }
    if grad_mag is not None:
        report["marcinkiewicz"]["grad"] = marcinkiewicz_quasinorm(
            grad_mag, params.p_star, s
        )
        report["marcinkiewicz"]["grad_kappa"] = params.p_star
        combined = report["marcinkiewicz"]["u"] + report["marcinkiewicz"]["grad"]
        report["marcinkiewicz"]["combined_over_mass"] = (
            combined / mass if mass > 0.0 else 0.0
        )
    try:
        fit = decay_fit(u, omega, params)
        report["decay"] = asdict(fit)
        report["decay"]["expected_slope"] = 2.0 * s - n
    except AnnulusEmpty as exc:
        report["decay"] = {"error": str(exc)}
    umax = float(np.max(u.values))
    if umax > 0.0:
        lam_hi = 0.5 * umax
        lam_lo = max(float(np.quantile(u.values[u.values > 0.0], 0.75)), 1e-300)
        if lam_lo < lam_hi:
            try:
                slope = distribution_slope(u, lam_lo, lam_hi)
                report["distribution"] = {
                    "slope": slope,
                    "weak_type_exponent": -n / (n - 2.0 * s),
                    "note": (
                        "superlevel volumes of the kernel follow "
                        "|{u > lambda}| ~ lambda^(-n/(n-2s)); the exponent "
                        "m* = 1 - 2s/n quoted alongside the L1 weak-type "
                        "estimate is its Lebesgue-conjugate form, not the "
                        "measured slope"
                    ),
                }
            except AnnulusEmpty:
                report["distribution"] = {"slope": None}
    min_value, lower_ok = positivity_check(u, omega, params)
    report["positivity"] = {"min_value": min_value, "lower_bound_ok": lower_ok}
    return report
