"""Constants ledger and the Picard iteration for (-Delta)^s u = |grad u|^q + omega.

The iteration u_{k+1} = I_{2s}(|grad u_k|^q dx) + I_{2s}(omega) contracts at
rate delta once the measure is small in the admissibility sense, and every
constant in that statement is computable from (n, s, q, theta).  The ledger
carries them all; delta collapses to theta algebraically when the operative
ratio bound is set to theta times its threshold, so the measured increment
ratios of a run can be compared directly against the requested theta.

run_checks is the one a-posteriori check path: picard_solve calls it once on
its final fields, and the CLI's verify calls it on stored fields.  The checks
take the potentials of the datum from their caller instead of the measure,
so a solve computes each once: u0 = I_2s(omega) and its gradient from one
transform, and the guard's I_{2s-1}(omega), which gradient_bound_check
reuses.  verify builds its one u0 itself.
"""

from __future__ import annotations

import time
from collections.abc import Collection
from dataclasses import asdict, dataclass, field

import numpy as np

from .capacity import c1_threshold, wolff_ratio_and_potential
from .core import Grid, GridField, Measure, Parameters, VectorGridField, squared_norm, sup_ratio
from .diagnostics import decay_fit, positivity_check
from .errors import ConfigError, Diverged, NotAdmissible
from .fraclap import default_test_functions, weak_residual
from .riesz import (
    gradient_comparison_constant,
    riesz_potential_and_gradient_measure,
    riesz_potential_and_gradient_rows,
    riesz_potential_field,
)

CHECK_NAMES = {"weak", "representation", "sandwich", "decay", "positivity"}
DEFAULT_CHECKS = ("weak", "representation", "sandwich")

# verification thresholds; criterion-level values, fixed rather than knobs
_WEAK_TOL = 1e-2
_REPRESENTATION_TOL = 1e-6
_DECAY_SLOPE_TOL = 0.1


@dataclass(frozen=True)
class ConstantsLedger:
    """Every constant of the contraction argument, from (n, s, q, theta).

    c_grad bounds |grad I_{2s}(mu)| by c_grad * I_{2s-1}(mu); c1_threshold is
    the largest admissibility ratio the argument tolerates and c1 the
    operative value theta * c1_threshold.  c_grad_uniform bounds |grad u_k|
    uniformly, c_grad_step and c_step are the geometric prefactors of the
    gradient and value increments, contraction is the measured-able rate
    (equal to theta by construction), and a_limit is the fixed point of
    a -> c_grad (a^q c1 + 1).
    """

    theta: float
    c_grad: float
    c1_threshold: float
    c1: float
    c_grad_uniform: float
    c_grad_step: float
    c_step: float
    contraction: float
    a_limit: float


def constants_ledger(params: Parameters, theta: float) -> ConstantsLedger:
    if not 0.0 < theta < 1.0:
        raise ConfigError(f"theta {theta} outside (0, 1)")
    q = params.q
    qp = params.p
    c0 = gradient_comparison_constant(params.n, params.s)
    c1s = c1_threshold(params)
    c1 = theta * c1s
    c2 = c0 * qp
    overflow = f"the constants ledger overflows a float at q={q}"
    try:
        c3 = c0 * c2**q * c1
        c4 = c2 ** (q - 1.0) * q * c3
        delta = c0 * c2 ** (q - 1.0) * q * c1

        a = c0
        for _ in range(100000):
            a_next = c0 * (a**q * c1 + 1.0)
            if abs(a_next - a) < 1e-12:
                a = a_next
                break
            a = a_next
    except OverflowError:
        raise ConfigError(overflow) from None
    if not np.all(np.isfinite([c3, c4, delta, a])):
        raise ConfigError(overflow)
    return ConstantsLedger(
        theta=theta,
        c_grad=c0,
        c1_threshold=c1s,
        c1=c1,
        c_grad_uniform=c2,
        c_grad_step=c3,
        c_step=c4,
        contraction=delta,
        a_limit=a,
    )


@dataclass
class SolveReport:
    """Iteration history and the one run_checks pass on the final fields."""

    converged: bool = False
    iterations: int = 0
    sup_u: list = field(default_factory=list)
    sup_increment: list = field(default_factory=list)
    sup_gradient_increment: list = field(default_factory=list)
    increment_ratios: list = field(default_factory=list)
    first_increment: float = 0.0
    gradient_bound_ratio: float = float("nan")
    checks: dict = field(default_factory=dict)
    checks_ok: bool = False
    admissibility: dict = field(default_factory=dict)
    ledger: dict = field(default_factory=dict)
    # wall seconds of each Picard step; run_meta.json carries them, since
    # report.json is byte for byte the same from run to run
    picard_step_s: list = field(default_factory=list)

    def to_dict(self) -> dict:
        out = asdict(self)
        del out["checks_ok"], out["picard_step_s"]
        return out


def representation_residual(
    u: GridField, grad_u: VectorGridField, u0: GridField, params: Parameters
) -> float:
    """sup |u - I_2s(|grad u|^q) - u0| / sup |u|, where u0 = I_2s(omega)."""
    sup_u = float(np.max(np.abs(u.values)))
    if sup_u == 0.0:
        return 0.0
    gq = GridField(u.grid, grad_u.magnitude().values ** params.q)
    rhs = riesz_potential_field(gq, 2.0 * params.s).values + u0.values
    return float(np.max(np.abs(u.values - rhs))) / sup_u


def sandwich_check(u: GridField, u0: GridField) -> tuple[bool, float]:
    """Lower bound u >= u0 = I_2s(omega) within 1e-10 max u0, and the measured sup u / u0."""
    lower_ok = bool(np.all(u.values >= u0.values - 1e-10 * np.max(u0.values)))
    return lower_ok, sup_ratio(u.values, u0.values, 1.0)


def gradient_bound_check(grad_u: VectorGridField, v: GridField) -> float:
    """sup |grad u| / v, with v = I_{2s-1}(omega), over the cells sup_ratio keeps."""
    return sup_ratio(grad_u.magnitude().values, v.values, 0.0)


def run_checks(
    u: GridField,
    grad: VectorGridField,
    omega: Measure,
    u0: GridField,
    params: Parameters,
    names: Collection[str],
) -> tuple[dict, bool]:
    """The named a-posteriori checks of a solution, and whether all pass."""
    results: dict = {}
    if "weak" in names:
        residuals = weak_residual(u, grad, omega, params, default_test_functions(u.grid))
        results["weak"] = {
            "residuals": residuals, "tol": _WEAK_TOL, "pass": bool(max(residuals) <= _WEAK_TOL)
        }
    if "representation" in names:
        res = representation_residual(u, grad, u0, params)
        results["representation"] = {
            "residual": res,
            "tol": _REPRESENTATION_TOL,
            "pass": res <= _REPRESENTATION_TOL,
        }
    if "sandwich" in names:
        lower_ok, upper = sandwich_check(u, u0)
        results["sandwich"] = {"lower_ok": lower_ok, "upper": upper, "pass": lower_ok}
    if "decay" in names:
        fit = decay_fit(u, omega, params)
        dev = abs(fit.slope - (2.0 * params.s - params.n))
        results["decay"] = asdict(fit) | {"deviation": dev, "pass": dev <= _DECAY_SLOPE_TOL}
    if "positivity" in names:
        min_value, bound_ok = positivity_check(u, omega, params)
        results["positivity"] = {
            "min_value": min_value,
            "lower_bound_ok": bound_ok,
            "pass": bound_ok,
        }
    return results, all(r["pass"] for r in results.values())


def picard_solve(
    omega: Measure,
    params: Parameters,
    grid: Grid,
    theta: float = 0.5,
    tol: float = 1e-8,
    max_iter: int = 200,
    checks: Collection[str] = DEFAULT_CHECKS,
) -> tuple[GridField, VectorGridField, SolveReport]:
    """Iterate u_{k+1} = I_2s(|grad u_k|^q dx) + I_2s(omega) to its fixed point.

    The gradient of each iterate comes from the vector kernel applied to the
    combined datum, never from finite differences, so the gradient bounds that
    drive the contraction argument hold discretely as well.  The measure must
    already satisfy the admissibility bound for the requested theta; scaling
    is deliberately not done here (see scale_measure_admissible).  The named
    checks run once on the final fields through run_checks, the only check
    path, and land in report.checks and report.checks_ok.
    """
    ledger = constants_ledger(params, theta)
    report = SolveReport(ledger=asdict(ledger))

    if omega.total_mass() == 0.0:
        # u = 0 solves the problem exactly: no guard, no iteration
        u = u0 = v = grid.zeros()
        grad = VectorGridField(grid, tuple(grid.zeros() for _ in range(grid.n)))
        report.converged = True
        report.iterations = 1
    else:
        u, grad, u0, v = _iterate(omega, params, grid, ledger, tol, max_iter, report)
    report.checks, report.checks_ok = run_checks(u, grad, omega, u0, params, checks)
    report.gradient_bound_ratio = gradient_bound_check(grad, v)
    return u, grad, report


def _picard_step(
    params: Parameters,
    grid: Grid,
    u0: np.ndarray,
    g0: list[np.ndarray],
    u: np.ndarray,
    grad: list[np.ndarray],
) -> tuple[float, float, float]:
    """u_{k+1} = I_2s(|grad u_k|^q) + u0 and its gradient plus grad u0, over u and grad in place.

    Returns sup |u_{k+1} - u_k|, sup |grad u_k - grad u_{k+1}| and
    sup |u_{k+1}|.  The step is one convolution, streamed: each block of
    |grad u_k|^q rows is formed as the forward transform reads it, and each
    block of rows of the potentials takes its datum term, yields its share of
    the three sups and replaces the same rows of u and grad as the inverse
    writes it, so no grid-sized array is allocated.  Every value is bitwise
    that of the same operations on whole arrays, and each sup is an exact
    maximum of the blocks' maxima.
    """
    N = grid.N
    u0_rows, u_rows = u0.reshape(-1, N), u.reshape(-1, N)
    g0_rows = [g.reshape(-1, N) for g in g0]
    g_rows = [g.reshape(-1, N) for g in grad]
    maxima = []

    def read(a, b):
        gq = squared_norm([g[a:b] for g in g_rows])
        np.sqrt(gq, out=gq)
        gq **= params.q
        return gq

    def write(a, b, blocks):
        pot, *comps = blocks
        np.add(pot, u0_rows[a:b], out=pot)
        # u's and grad's rows take the differences, then the new values
        old = np.subtract(pot, u_rows[a:b], out=u_rows[a:b])
        inc = np.max(np.abs(old, out=old))
        old[...] = pot
        sup = np.max(np.abs(pot, out=pot))
        diffs = []
        for g, d0, comp in zip(g_rows, g0_rows, comps):
            np.add(comp, d0[a:b], out=comp)
            diffs.append(np.subtract(g[a:b], comp, out=g[a:b]))
        gstep = squared_norm(diffs)
        ginc = np.max(np.sqrt(gstep, out=gstep))
        for diff, comp in zip(diffs, comps):
            diff[...] = comp
        maxima.append((inc, ginc, sup))

    riesz_potential_and_gradient_rows(grid, params.s, read, write)
    # numpy's maximum keeps a NaN, which a field that overflowed spreads
    sups = np.max(maxima, axis=0)
    if not np.all(np.isfinite(sups)):
        raise ConfigError("field contains non-finite entries")
    return tuple(map(float, sups))


def _iterate(
    omega: Measure,
    params: Parameters,
    grid: Grid,
    ledger: ConstantsLedger,
    tol: float,
    max_iter: int,
    report: SolveReport,
) -> tuple[GridField, VectorGridField, GridField, GridField]:
    """The admissibility guard and the Picard loop.

    Returns u, grad u, u0 = I_2s(omega) and the guard's I_{2s-1}(omega).
    After its set-up the loop holds u0, grad u0, that potential, u and
    grad u, and each step (_picard_step) updates u and grad u in place.
    """
    adm, v = wolff_ratio_and_potential(omega, params, grid)
    report.admissibility = asdict(adm)
    if adm.c1_hat > ledger.c1 * (1.0 + 1e-12):
        raise NotAdmissible(
            f"measured ratio {adm.c1_hat:.3e} exceeds theta x threshold "
            f"{ledger.c1:.3e}; rescale with scale_measure_admissible first"
        )

    u0, g0 = riesz_potential_and_gradient_measure(omega, params.s, grid)
    g0_vals = [c.values for c in g0.components]

    u = u0.values.copy()
    grad = [v.copy() for v in g0_vals]
    first_inc = 0.0
    diverging = 0
    converged = False
    iterations = 0

    for k in range(max_iter):
        iterations = k + 1
        start = time.perf_counter()
        inc, ginc, sup_u = _picard_step(params, grid, u0.values, g0_vals, u, grad)
        report.picard_step_s.append(time.perf_counter() - start)
        report.sup_u.append(sup_u)
        report.sup_increment.append(inc)
        report.sup_gradient_increment.append(ginc)
        if k == 0:
            first_inc = inc
            report.first_increment = inc
        else:
            prev = report.sup_increment[-2]
            ratio = inc / prev if prev > 0.0 else 0.0
            report.increment_ratios.append(ratio)
            if ratio > 1.0:
                diverging += 1
                if diverging >= 5:
                    raise Diverged(
                        f"increment ratio above 1 for {diverging} consecutive steps"
                    )
            else:
                diverging = 0

        if inc <= tol * first_inc:
            converged = True
            break

    u_field = GridField(grid, u)
    grad_field = VectorGridField(grid, tuple(GridField(grid, g) for g in grad))

    report.converged = converged
    report.iterations = iterations
    return u_field, grad_field, u0, v
