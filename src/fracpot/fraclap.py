"""Spectral fractional Laplacian on the box and weak-form residuals.

(-Delta)^s is applied through the discrete Fourier transform with symbol
|xi|^(2s), xi_k = pi k / L per axis, k in {-N/2, ..., N/2 - 1}.  The box is
periodic for the transform, so inputs must be numerically negligible at the
boundary; the operator refuses fields that leak (BoundaryLeak) because the
wrap-around would silently pollute every mode.

Weak residuals test the distributional identity

    integral u (-Delta)^s phi  =  integral |grad u|^q phi  +  integral phi d omega

against smooth, rapidly decaying test functions.  A finite family of five
gaussians is a sampling of the test space, not a proof; it is what a desk
check can do, and the residual it reports is a genuine discretisation
diagnostic for fields produced by the solver.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import Grid, GridField, Measure, Parameters, VectorGridField, squared_norm
from .errors import BoundaryLeak, GridMismatch
from .riesz import atom_quadrature_correction, fourier_multiplier

_LEAK_TOLERANCE = 1e-10


@dataclass(frozen=True)
class TestFunction:
    """Gaussian test function exp(-|x - center|^2 / (2 width^2))."""

    __test__ = False  # not a pytest class, despite the name

    center: tuple[float, ...]
    width: float

    def __post_init__(self) -> None:
        if self.width <= 0.0:
            raise ValueError("test function width must be positive")

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        center = np.asarray(self.center, dtype=float)
        return np.exp(-0.5 * (np.sum((pts - center) ** 2, axis=-1) / self.width**2))

    def on_grid(self, grid: Grid) -> GridField:
        if len(self.center) != grid.n:
            raise GridMismatch("test function center dimension does not match grid")
        r2 = grid.dist2(self.center)
        r2 /= self.width**2
        return GridField(grid, np.exp(-0.5 * r2))


def default_test_functions(grid: Grid) -> list[TestFunction]:
    """Deterministic family of gaussians scaled to the box.

    Widths and centers keep the boundary values below 1e-12 of the peak, so
    every member passes the spectral admissibility check on its own grid.
    Widths stay under 0.05 L because the residual error floor of the weak
    identity (periodic images of the symbol plus box truncation) scales with
    the test function's integral, while offsets stay small because the image
    contribution grows toward the boundary; both choices buy margin for
    verification on solve-sized boxes.
    """
    L = grid.L
    n = grid.n
    def center(*axis_vals: float) -> tuple[float, ...]:
        out = [0.0] * n
        for i, v in enumerate(axis_vals):
            if i < n:
                out[i] = v
        return tuple(out)

    return [
        TestFunction(center(0.0), 0.050 * L),
        TestFunction(center(0.03 * L), 0.040 * L),
        TestFunction(center(-0.03 * L), 0.040 * L),
        TestFunction(center(0.0, 0.03 * L), 0.045 * L),
        TestFunction(center(0.0, -0.03 * L), 0.045 * L),
    ]


def _boundary_amplitude(values: np.ndarray) -> float:
    worst = 0.0
    for ax in range(values.ndim):
        sl_lo = [slice(None)] * values.ndim
        sl_hi = [slice(None)] * values.ndim
        sl_lo[ax] = 0
        sl_hi[ax] = -1
        worst = max(worst, float(np.max(np.abs(values[tuple(sl_lo)]))))
        worst = max(worst, float(np.max(np.abs(values[tuple(sl_hi)]))))
    return worst


def fractional_laplacian_spectral(phi: GridField, s: float) -> GridField:
    """(-Delta)^s phi through the DFT symbol |xi|^(2s).

    s may be anywhere in [0, 1]: s = 0 reproduces the identity (zero mode
    included), s = 1 the classical negative Laplacian.  Intermediate s is
    what the model uses.
    """
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"spectral order s must lie in [0, 1], got {s}")
    g = phi.grid
    peak = phi.sup()
    if peak == 0.0:
        return g.zeros()
    leak = _boundary_amplitude(phi.values) / peak
    if leak > _LEAK_TOLERANCE:
        raise BoundaryLeak(
            f"boundary amplitude {leak:.3e} of the peak exceeds {_LEAK_TOLERANCE:.0e}; "
            "enlarge the box or shrink the field"
        )
    xi = 2.0 * np.pi * np.fft.fftfreq(g.N, d=g.h)
    mesh = np.meshgrid(*[xi] * (g.n - 1), xi[: g.N // 2 + 1], indexing="ij", sparse=True)
    symbol = squared_norm(mesh) ** s  # 0^0 = 1 keeps s = 0 the identity
    return GridField(g, fourier_multiplier(phi.values, symbol))


def weak_residual(
    u: GridField,
    grad_u: VectorGridField | None,
    omega: Measure,
    params: Parameters,
    family: Sequence[TestFunction],
) -> list[float]:
    """Relative defect of the weak formulation against each test function of family.

    The parts that do not depend on the test function (|grad u|^q, the
    rasterised datum, the atom corrections) are computed once per call.

    The measure term uses analytic evaluation at atoms and the same
    rasterised density the potential operators see otherwise, so the residual
    measures how well u solves the discrete problem rather than punishing the
    rasterisation twice.

    For an atomic omega the term integral u (-Delta)^s phi assumes that the
    singular part of u near each atom is I_2s(omega), sampled the way
    riesz_potential_measure samples it, and that the rest of u is smooth
    there; u0 = I_2s(omega) and every Picard iterate satisfy this.  The
    midpoint rule cannot integrate the r^(2s - n) blow-up, so on a block of
    cells around each atom the stored samples are traded for exact cell
    averages of the kernel (atom_quadrature_correction).  What remains for
    the exact atom potential is the periodisation and box-tail floor, about
    4e-3 on the default family.  Density-type data take no correction.
    """
    g = u.grid
    if grad_u is not None and grad_u.grid != g:
        raise GridMismatch("gradient field lives on a different grid")
    grad_q = None if grad_u is None else grad_u.magnitude().values ** params.q
    if omega.kind == "atomic":
        corrections = [
            (w, *atom_quadrature_correction(g, atom, 2.0 * params.s))
            for atom, w in zip(omega.atoms, omega.weights)
        ]
    else:
        density = omega.as_density(g).values
    residuals = []
    for phi in family:
        phig = phi.on_grid(g)
        lap_phi = fractional_laplacian_spectral(phig, params.s)
        a_term = float(np.sum(u.values * lap_phi.values) * g.cell_volume)
        if omega.kind == "atomic":
            for w, block, delta in corrections:
                a_term += w * float(np.sum(delta * lap_phi.values[block])) * g.cell_volume
            c_term = float(np.sum(omega.weights * phi.evaluate(omega.atoms)))
        else:
            c_term = float(np.sum(density * phig.values) * g.cell_volume)
        b_term = 0.0
        if grad_q is not None:
            b_term = float(np.sum(grad_q * phig.values) * g.cell_volume)
        defect = abs(a_term - b_term - c_term)
        denom = max(abs(a_term), abs(b_term) + abs(c_term))
        residuals.append(defect if denom < 1e-14 else defect / denom)
    return residuals
