"""Parameter validation, grid geometry, and measure bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracpot import Grid, GridField, Measure, Parameters, ball_mask
from fracpot.core import squared_norm
from fracpot.errors import (
    DimensionTooLow,
    GridMismatch,
    NegativeDensity,
    OrderOutOfRange,
    SubcriticalExponent,
)


def test_parameters_derived_exponents():
    p = Parameters(2, 0.75, 2.0)
    assert p.p == pytest.approx(2.0, abs=1e-15)
    assert p.p_star == pytest.approx(4.0 / 3.0, abs=1e-14)
    p = Parameters(3, 0.9, 1.5)
    assert p.p == pytest.approx(3.0, abs=1e-14)
    assert p.p_star == pytest.approx(3.0 / (3.0 - 0.8), abs=1e-14)


def test_parameters_rejects_low_dimension():
    with pytest.raises(DimensionTooLow):
        Parameters(1, 0.75, 2.0)


def test_parameters_rejects_order_outside_half_one():
    for s in (0.5, 1.0, 0.0, 1.3):
        with pytest.raises(OrderOutOfRange):
            Parameters(2, s, 2.0)


def test_parameters_rejects_subcritical_exponent():
    # threshold is p_star = n / (n - 2s + 1); equality is also rejected
    with pytest.raises(SubcriticalExponent):
        Parameters(2, 0.75, 1.2)
    with pytest.raises(SubcriticalExponent):
        Parameters(2, 0.75, 4.0 / 3.0)
    Parameters(2, 0.75, 4.0 / 3.0 + 1e-9)


def test_dist2_is_the_per_axis_sum_on_the_grid_and_on_blocks():
    g = Grid(3, 2.0, 8)
    x0 = np.array([0.3, -0.1, 0.7])
    X, Y, Z = g.coords()
    ref = ((X - x0[0]) ** 2 + (Y - x0[1]) ** 2) + (Z - x0[2]) ** 2
    d2 = g.dist2(x0)
    assert d2.shape == g.shape
    assert np.array_equal(d2, ref)
    block = (slice(1, 4), slice(0, 8), slice(5, 7))
    assert np.array_equal(squared_norm(g.offsets(x0, block)), ref[block])
    assert np.array_equal(g.radii(), np.sqrt(X**2 + Y**2 + Z**2))


@pytest.mark.parametrize("x0", [[0.0, 0.0, 3.0], [0.0]], ids=["extra-coordinate", "too-few"])
def test_point_of_another_dimension_is_a_grid_mismatch(x0):
    # an extra coordinate used to be dropped silently, a missing one raised IndexError
    g = Grid(2, 4.0, 16)
    with pytest.raises(GridMismatch):
        g.offsets(x0)
    with pytest.raises(GridMismatch):
        ball_mask(g, x0, 1.0)


@given(
    s=st.floats(min_value=0.51, max_value=0.99),
    q=st.floats(min_value=2.1, max_value=6.0),
)
@settings(max_examples=30, deadline=None)
def test_parameters_conjugate_identity(s, q):
    p = Parameters(2, s, q)
    assert abs(1.0 / p.q + 1.0 / p.p - 1.0) <= 1e-12
    assert p.q > p.p_star


def test_grid_cells_tile_the_box():
    g = Grid(2, 8.0, 64)
    assert g.h == pytest.approx(16.0 / 64.0, abs=1e-15)
    assert g.cell_volume * g.size == pytest.approx((2.0 * g.L) ** g.n, rel=1e-14)


def test_grid_points_are_cell_centers():
    g = Grid(1, 4.0, 8)
    ax = g.axis()
    assert ax[0] == pytest.approx(-4.0 + 0.5 * g.h, abs=1e-15)
    assert ax[-1] == pytest.approx(4.0 - 0.5 * g.h, abs=1e-15)
    # the origin sits at a cell corner, never at a sample
    assert np.min(np.abs(ax)) == pytest.approx(0.5 * g.h, abs=1e-15)


def test_grid_radii_match_coordinates():
    g = Grid(2, 3.0, 16)
    X, Y = g.coords()
    assert np.max(np.abs(g.radii() - np.hypot(X, Y))) == 0.0


def test_grid_rejects_bad_sizes():
    with pytest.raises(ValueError):
        Grid(2, -1.0, 64)
    with pytest.raises(ValueError):
        Grid(2, 8.0, 0)


def test_atomic_measure_mass_and_ball_counts():
    atoms = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    weights = np.array([1.0, 2.0, 4.0])
    om = Measure.from_atoms(atoms, weights)
    assert om.total_mass() == pytest.approx(7.0, abs=1e-15)
    assert om.support_radius == pytest.approx(2.0)


def test_atomic_measure_rejects_negative_weights():
    with pytest.raises(NegativeDensity):
        Measure.from_atoms(np.zeros((1, 2)), np.array([-1.0]))


def test_atomic_measure_rejects_atoms_outside_declared_support():
    with pytest.raises(ValueError):
        Measure.from_atoms(np.array([[2.0, 0.0]]), np.ones(1), support_radius=1.0)


def test_uniform_ball_mass_is_area():
    om = Measure.uniform_ball(np.zeros(2), 1.0, 2.0)
    assert om.total_mass() == pytest.approx(2.0 * np.pi, rel=1e-12)


def test_measure_scaling_scales_mass_linearly():
    om = Measure.from_atoms(np.zeros((1, 2)), np.ones(1))
    assert om.scaled(0.25).total_mass() == pytest.approx(0.25, rel=1e-15)
    assert om.scaled(0.25).support_radius == om.support_radius


def test_density_measure_round_trip_mass():
    g = Grid(2, 4.0, 64)
    X, Y = g.coords()
    vals = np.exp(-(X**2 + Y**2))
    vals[X**2 + Y**2 > 9.0] = 0.0
    om = Measure.from_density(GridField(g, vals), support_radius=3.0)
    assert om.total_mass() == pytest.approx(g.cell_volume * vals.sum(), rel=1e-14)


def test_density_measure_rejects_mass_beyond_support():
    g = Grid(2, 4.0, 64)
    with pytest.raises(ValueError):
        Measure.from_density(GridField(g, np.ones(g.shape)), support_radius=1.0)


def test_as_density_refuses_atoms():
    g = Grid(2, 4.0, 64)
    om = Measure.from_atoms(np.array([[0.2, -0.7]]), np.array([3.0]))
    with pytest.raises(ValueError):
        om.as_density(g)


def test_as_density_rasterizes_uniform_ball():
    g = Grid(2, 4.0, 256)
    om = Measure.uniform_ball(np.zeros(2), 1.0, 2.0)
    dens = om.as_density(g)
    # midpoint rasterisation of the disk: mass correct to O(h)
    assert g.cell_volume * dens.values.sum() == pytest.approx(
        om.total_mass(), rel=2.0 * g.h
    )


def test_as_density_refuses_a_ball_of_another_dimension():
    g = Grid(2, 4.0, 64)
    om = Measure.uniform_ball(np.array([0.5, 0.0, 0.0]), 1.0)
    with pytest.raises(GridMismatch):
        om.as_density(g)


@given(t=st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=25, deadline=None)
def test_scaled_total_mass_equivariant(t):
    om = Measure.from_atoms(np.array([[0.5, 0.5], [-1.0, 0.0]]), np.array([1.0, 2.0]))
    assert om.scaled(t).total_mass() == pytest.approx(t * 3.0, rel=1e-12)
