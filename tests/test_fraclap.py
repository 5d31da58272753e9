"""Spectral fractional Laplacian and weak-form residuals.

The operator is pinned by the periodized Hankel oracle: (-Delta)^s of a
Gaussian has an explicit radial Hankel integral, and on a periodic box the
discrete operator must reproduce its lattice periodization.
"""

import numpy as np
import pytest

from fracpot import (
    Grid,
    GridField,
    Measure,
    Parameters,
    TestFunction,
    default_test_functions,
    fractional_laplacian_spectral,
    riesz_potential_measure,
    weak_residual,
)
from fracpot.errors import BoundaryLeak, GridMismatch

from oracles import fraclap_gaussian_periodized


def _narrow_gaussian(grid, sigma):
    X, Y = grid.coords()
    return GridField(grid, np.exp(-0.5 * (X**2 + Y**2) / sigma**2))


def test_spectral_operator_matches_periodized_hankel_oracle():
    g = Grid(2, 8.0, 128)
    s, sigma = 0.75, 0.5
    phi = _narrow_gaussian(g, sigma)
    got = fractional_laplacian_spectral(phi, s).values
    X, Y = np.broadcast_arrays(*g.coords())
    # compare on a coarse sub-lattice; the oracle quadrature is slow
    sub = (slice(0, g.N, 8), slice(0, g.N, 8))
    ref = fraclap_gaussian_periodized(X[sub], Y[sub], s, g.L, sigma)
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(got[sub] - ref)) <= 1e-4 * scale


def test_spectral_operator_near_s_one_is_laplacian():
    g = Grid(2, 8.0, 256)
    sigma = 0.5
    phi = _narrow_gaussian(g, sigma)
    got = fractional_laplacian_spectral(phi, 0.999).values
    X, Y = g.coords()
    r2 = X**2 + Y**2
    exact = (2.0 / sigma**2 - r2 / sigma**4) * np.exp(-0.5 * r2 / sigma**2)
    scale = np.max(np.abs(exact))
    assert np.max(np.abs(got - exact)) <= 0.05 * scale


def test_spectral_operator_s_zero_is_identity():
    g = Grid(2, 8.0, 64)
    phi = _narrow_gaussian(g, 0.5)
    got = fractional_laplacian_spectral(phi, 0.0).values
    assert np.max(np.abs(got - phi.values)) <= 1e-12


def test_spectral_operator_zero_field():
    g = Grid(2, 8.0, 64)
    out = fractional_laplacian_spectral(g.zeros(), 0.75)
    assert np.all(out.values == 0.0)


def test_spectral_operator_rejects_boundary_leak():
    g = Grid(2, 8.0, 64)
    with pytest.raises(BoundaryLeak):
        fractional_laplacian_spectral(_narrow_gaussian(g, 6.0), 0.75)


def test_spectral_operator_rejects_bad_order():
    g = Grid(2, 8.0, 64)
    for s in (-0.1, 1.1):
        with pytest.raises(ValueError):
            fractional_laplacian_spectral(_narrow_gaussian(g, 0.5), s)


def test_spectral_operator_self_adjoint_and_nonnegative():
    g = Grid(2, 8.0, 64)
    X, Y = g.coords()
    phi = GridField(g, np.exp(-2.0 * ((X - 0.5) ** 2 + Y**2)))
    psi = GridField(g, np.exp(-3.0 * (X**2 + (Y + 0.3) ** 2)))
    lp = fractional_laplacian_spectral(phi, 0.75).values
    lq = fractional_laplacian_spectral(psi, 0.75).values
    lhs = np.sum(phi.values * lq)
    rhs = np.sum(lp * psi.values)
    assert abs(lhs - rhs) <= 1e-10 * abs(lhs)
    assert np.sum(phi.values * lp) >= 0.0


def test_test_function_rejects_bad_width():
    with pytest.raises(ValueError):
        TestFunction((0.0, 0.0), -1.0)


def test_test_function_grid_and_point_evaluations_agree():
    g = Grid(2, 4.0, 32)
    phi = TestFunction((0.5, -0.25), 0.7)
    on_grid = phi.on_grid(g).values
    pts = np.stack([c.ravel() for c in np.meshgrid(g.axis(), g.axis(), indexing="ij")], -1)
    direct = phi.evaluate(pts).reshape(g.shape)
    assert np.array_equal(on_grid, direct)


def test_test_function_center_dimension_checked():
    g = Grid(2, 4.0, 32)
    with pytest.raises(GridMismatch):
        TestFunction((0.0, 0.0, 0.0), 1.0).on_grid(g)


def test_default_family_is_admissible_on_its_own_grid():
    for L in (4.0, 8.0, 10.0):
        g = Grid(2, L, 128)
        family = default_test_functions(g)
        assert len(family) == 5
        for phi in family:
            assert phi.width <= 0.05 * L
            assert max(abs(c) for c in phi.center) <= 0.03 * L
            # each member passes the leak check where it will be used
            fractional_laplacian_spectral(phi.on_grid(g), 0.75)


def test_weak_residual_zero_for_trivial_data():
    g = Grid(2, 8.0, 64)
    params = Parameters(2, 0.75, 2.0)
    om = Measure.from_atoms(np.zeros((1, 2)), np.zeros(1))
    assert weak_residual(g.zeros(), None, om, params, default_test_functions(g)) == [0.0] * 5


def test_weak_residual_of_atom_potential_within_quadrature_band():
    # u0 = I_2s(delta) satisfies (-Delta)^s u0 = delta weakly.  The cells
    # around the atom are integrated with exact kernel cell averages, so the
    # r^(2s-n) blow-up no longer costs the 5.7 percent of near-cell mass that
    # the midpoint rule lost (a floor of 1.3e-2 to 1.4e-2).  What remains is
    # the periodic spectral operator acting on the free-space u0, the box
    # truncating the integration by parts and the midpoint rule on the smooth
    # far field: 3.8e-3 to 4.1e-3 for this family.
    params = Parameters(2, 0.75, 2.0)
    g = Grid(2, 10.0, 256)
    om = Measure.from_atoms(np.zeros((1, 2)), np.ones(1))
    u0 = riesz_potential_measure(om, 2.0 * params.s, g)
    for res in weak_residual(u0, None, om, params, default_test_functions(g)):
        assert res <= 4.5e-3


@pytest.mark.parametrize(
    "cells",
    [(0.0, 0.0), (0.5, 0.5), (0.3, -0.17), (0.256, 0.64)],
    ids=["corner", "cell-centre", "off-grid-a", "off-grid-b"],
)
def test_weak_residual_of_atom_potential_at_any_atom_position(cells):
    # the grid has a cell corner at the origin; atoms placed at a corner, a
    # cell centre and two points that are neither, given in cells from it
    params = Parameters(2, 0.75, 2.0)
    g = Grid(2, 10.0, 256)
    om = Measure.from_atoms(np.array([cells]) * g.h, np.ones(1))
    u0 = riesz_potential_measure(om, 2.0 * params.s, g)
    worst = max(weak_residual(u0, None, om, params, default_test_functions(g)))
    assert worst <= 5e-3


def test_weak_residual_detects_wrong_solution():
    # scaling u0 by 2 breaks the identity by a factor ~ 1/2
    params = Parameters(2, 0.75, 2.0)
    g = Grid(2, 10.0, 128)
    om = Measure.from_atoms(np.zeros((1, 2)), np.ones(1))
    u0 = riesz_potential_measure(om, 2.0 * params.s, g)
    wrong = GridField(g, 2.0 * u0.values)
    phi = default_test_functions(g)[0]
    assert weak_residual(wrong, None, om, params, [phi])[0] >= 0.3
