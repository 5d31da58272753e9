"""Weak-type quasinorms, superlevel volumes, decay fits, positivity."""

import numpy as np
import pytest

from fracpot import (
    Grid,
    GridField,
    Measure,
    Parameters,
    decay_fit,
    diagnostics_report,
    distribution_function,
    distribution_slope,
    marcinkiewicz_quasinorm,
    positivity_check,
    riesz_constant,
    riesz_potential_measure,
)
from fracpot.errors import AnnulusEmpty, ConfigError

from oracles import atom_level_window, quasinorm_grid_value

PARAMS = Parameters(2, 0.75, 2.0)


@pytest.fixture(scope="module")
def atom_potential():
    g = Grid(2, 8.0, 256)
    om = Measure.from_atoms(np.zeros((1, 2)), np.ones(1))
    return om, riesz_potential_measure(om, 1.5, g)


def test_quasinorm_of_constant_field_is_exact():
    # for v = A the sup over lambda is A * mu(box)^(1/kappa); the weighted
    # box measure is computable in closed grid terms
    g = Grid(2, 8.0, 256)
    v = GridField(g, np.full(g.shape, 3.0))
    w = g.cell_volume / (1.0 + g.radii() ** 3.5)
    ref = 3.0 * float(w.sum()) ** 0.25
    assert marcinkiewicz_quasinorm(v, 4.0, 0.75) == pytest.approx(ref, rel=1e-13)


def test_quasinorm_zero_field():
    g = Grid(2, 4.0, 32)
    assert marcinkiewicz_quasinorm(g.zeros(), 4.0, 0.75) == 0.0


def test_quasinorm_is_homogeneous(atom_potential):
    _, u0 = atom_potential
    base = marcinkiewicz_quasinorm(u0, 4.0, 0.75)
    doubled = GridField(u0.grid, 2.0 * u0.values)
    assert marcinkiewicz_quasinorm(doubled, 4.0, 0.75) == pytest.approx(
        2.0 * base, rel=1e-14
    )


def test_quasinorm_rejects_kappa_at_or_below_one():
    g = Grid(2, 4.0, 32)
    for kappa in (1.0, 0.5, -2.0):
        with pytest.raises(ConfigError, match="must exceed 1$"):
            marcinkiewicz_quasinorm(g.zeros(), kappa, 0.75)


def test_lambda_grid_can_only_undershoot(atom_potential):
    # a fixed log lambda grid skips the maximising lambda, so the exact scan
    # must dominate it
    _, u0 = atom_potential
    assert quasinorm_grid_value(u0, 4.0, 0.75) <= marcinkiewicz_quasinorm(
        u0, 4.0, 0.75
    )


def test_atom_potential_quasinorm_finite_at_critical_kappa(atom_potential):
    # u0 is not in L^kappa near the atom for kappa = n/(n-2s), but the weak
    # quasinorm is finite; that distinction is the whole point of the norm
    _, u0 = atom_potential
    val = marcinkiewicz_quasinorm(u0, 4.0, 0.75)
    assert 0.0 < val < np.inf


def test_distribution_function_counts_volume():
    g = Grid(2, 4.0, 64)
    X, _ = g.coords()
    v = GridField(g, np.where(X > 0.0, 2.0, 0.0) * np.ones(g.shape))
    # exactly half the box exceeds lambda = 1
    assert distribution_function(v, 1.0) == pytest.approx(32.0, rel=1e-14)
    assert distribution_function(v, 3.0) == 0.0


def test_atom_superlevel_volume_matches_kernel_law(atom_potential):
    # {u0 > lambda} is the ball of radius (c / lambda)^(1/(n-2s)); in the
    # window where that ball is well resolved the counted volume tracks
    # pi (c/lambda)^4 to under a percent
    _, u0 = atom_potential
    lo, hi = atom_level_window(u0, PARAMS)
    lam = float(np.sqrt(lo * hi))
    c = riesz_constant(2, 1.5)
    ref = np.pi * (c / lam) ** 4
    assert distribution_function(u0, lam) == pytest.approx(ref, rel=2e-2)


def test_atom_distribution_slope(atom_potential):
    _, u0 = atom_potential
    lo, hi = atom_level_window(u0, PARAMS)
    slope = distribution_slope(u0, lo, hi)
    assert slope == pytest.approx(-4.0, rel=3e-2)


def test_distribution_slope_needs_populated_levels():
    g = Grid(2, 4.0, 32)
    with pytest.raises(AnnulusEmpty):
        distribution_slope(g.zeros(), 0.1, 1.0)


def test_decay_fit_recovers_atom_power_law(atom_potential):
    om, u0 = atom_potential
    fit = decay_fit(u0, om, PARAMS)
    assert fit.slope == pytest.approx(2.0 * PARAMS.s - 2.0, abs=1e-3)
    assert fit.amplitude == pytest.approx(riesz_constant(2, 1.5), rel=1e-2)
    assert fit.rmse <= 1e-12
    assert fit.ring_inner == pytest.approx(0.6 * u0.grid.L)
    assert fit.ring_outer == pytest.approx(0.8 * u0.grid.L)


def test_decay_fit_rejects_support_reaching_annulus():
    g = Grid(2, 8.0, 64)
    om = Measure.uniform_ball(np.zeros(2), 5.0, 1.0)
    with pytest.raises(AnnulusEmpty):
        decay_fit(GridField(g, np.ones(g.shape)), om, PARAMS)


def test_positivity_of_atom_potential(atom_potential):
    om, u0 = atom_potential
    min_value, ok = positivity_check(u0, om, PARAMS)
    assert ok
    assert min_value > 0.0


def test_positivity_trivial_for_zero_measure():
    g = Grid(2, 4.0, 32)
    om = Measure.from_atoms(np.zeros((1, 2)), np.zeros(1))
    min_value, ok = positivity_check(g.zeros(), om, PARAMS)
    assert ok and min_value == 0.0


def test_positivity_flags_violation(atom_potential):
    om, u0 = atom_potential
    dented = GridField(u0.grid, 0.5 * u0.values)
    _, ok = positivity_check(dented, om, PARAMS)
    assert not ok


def test_diagnostics_report_structure(reference_run):
    rep = diagnostics_report(
        reference_run["u"],
        reference_run["grad"].magnitude(),
        reference_run["omega"],
        reference_run["params"],
    )
    mar = rep["marcinkiewicz"]
    assert mar["u"] > 0.0 and mar["grad"] > 0.0
    assert mar["u_kappa"] == pytest.approx(4.0)
    assert mar["grad_kappa"] == pytest.approx(4.0 / 3.0)
    assert mar["combined_over_mass"] > 0.0
    assert "lambda_grid_sensitivity" not in mar
    assert rep["decay"]["slope"] == pytest.approx(-0.5, abs=0.1)
    assert rep["positivity"]["lower_bound_ok"]
    # the superlevel slope and the conjugate weak-type exponent are distinct
    # numbers; the note must keep both visible
    dist = rep["distribution"]
    assert dist["weak_type_exponent"] == pytest.approx(-4.0)
    assert "m*" in dist["note"] and "lambda" in dist["note"]
