"""Weak-form residuals and the periodic (-Delta)^s inside them.

The weak check's operator, fraclap._periodic_power, is pinned by the
periodized Gaussian oracle: (-Delta)^s of a Gaussian has a closed form, a
Kummer function checked against its radial Hankel integral, and on a
periodic box the discrete operator must reproduce its lattice periodization.
weak_residual, which transforms u once, is held to the route that transforms
each test function instead.
"""

from collections import Counter

import numpy as np
import pytest

from fracpot import (
    Grid,
    GridField,
    Measure,
    Parameters,
    TestFunction,
    default_test_functions,
    picard_solve,
    riesz_potential_measure,
    scale_measure_admissible,
    weak_residual,
)
from fracpot.errors import ConfigError, GridMismatch
from fracpot.fraclap import _periodic_power, _refuse_leak
from fracpot.riesz import riesz_potential_and_gradient_measure

from oracles import (
    fraclap_gaussian_closed_form,
    fraclap_gaussian_periodized,
    fraclap_gaussian_radial,
    weak_residual_per_test_function,
)


def _narrow_gaussian(grid, sigma):
    X, Y = grid.coords()
    return GridField(grid, np.exp(-0.5 * (X**2 + Y**2) / sigma**2))


def _power(phi, s):
    return _periodic_power(phi.values, phi.grid, s)


def test_spectral_operator_matches_periodized_hankel_oracle():
    g = Grid(2, 8.0, 128)
    s, sigma = 0.75, 0.5
    phi = _narrow_gaussian(g, sigma)
    got = _power(phi, s)
    X, Y = np.broadcast_arrays(*g.coords())
    ref = fraclap_gaussian_periodized(X, Y, s, g.L, sigma)
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(got - ref)) <= 1e-4 * scale


def test_gaussian_closed_form_matches_its_hankel_integral():
    # out to the farthest image the periodization above sums, 7 L per axis
    s, sigma = 0.75, 0.5
    r = np.array([0.0, 0.3, 1.0, 2.0, 5.0, 20.0, np.hypot(56.0, 56.0)])
    closed = fraclap_gaussian_closed_form(r, 2, s, sigma)
    assert np.max(np.abs(closed - fraclap_gaussian_radial(r, s, sigma))) <= 1e-10 * closed[0]


def test_spectral_operator_near_s_one_is_laplacian():
    g = Grid(2, 8.0, 256)
    sigma = 0.5
    phi = _narrow_gaussian(g, sigma)
    got = _power(phi, 0.999)
    X, Y = g.coords()
    r2 = X**2 + Y**2
    exact = (2.0 / sigma**2 - r2 / sigma**4) * np.exp(-0.5 * r2 / sigma**2)
    scale = np.max(np.abs(exact))
    assert np.max(np.abs(got - exact)) <= 0.05 * scale


def test_spectral_operator_s_zero_is_identity():
    g = Grid(2, 8.0, 64)
    phi = _narrow_gaussian(g, 0.5)
    got = _power(phi, 0.0)
    assert np.max(np.abs(got - phi.values)) <= 1e-12


def test_spectral_operator_zero_field():
    g = Grid(2, 8.0, 64)
    assert np.all(_power(g.zeros(), 0.75) == 0.0)


def test_spectral_operator_self_adjoint_and_nonnegative():
    g = Grid(2, 8.0, 64)
    X, Y = g.coords()
    phi = GridField(g, np.exp(-2.0 * ((X - 0.5) ** 2 + Y**2)))
    psi = GridField(g, np.exp(-3.0 * (X**2 + (Y + 0.3) ** 2)))
    lp = _power(phi, 0.75)
    lq = _power(psi, 0.75)
    lhs = np.sum(phi.values * lq)
    rhs = np.sum(lp * psi.values)
    assert abs(lhs - rhs) <= 1e-10 * abs(lhs)
    assert np.sum(phi.values * lp) >= 0.0


def test_test_function_rejects_bad_width():
    with pytest.raises(ConfigError, match="^test function width must be positive$"):
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
            _refuse_leak(phi.on_grid(g).values)


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


def test_weak_residual_does_not_depend_on_the_datum_scale():
    # the identity is linear in (u, omega) but for the |grad u|^q term,
    # which is t^(q-1) of the others: a tiny datum's residual is a relative
    # defect like any other, not its bare defect
    g = Grid(2, 8.0, 32)
    params = Parameters(2, 0.75, 2.0)
    residuals = []
    for t in (1e-16, 1e-8):
        om = Measure.uniform_ball(np.zeros(2), 1.0, t)
        u, grad = riesz_potential_and_gradient_measure(om, params.s, g)
        residuals.append(weak_residual(u, grad, om, params, default_test_functions(g)))
    assert min(residuals[1]) > 1e-3
    assert residuals[0] == pytest.approx(residuals[1], rel=1e-6)


def _atoms(n, L, N, atoms, weights):
    params, g = Parameters(n, 0.75, 2.0), Grid(n, L, N)
    om = Measure.from_atoms(np.asarray(atoms, dtype=float), np.asarray(weights, dtype=float))
    return riesz_potential_measure(om, 2.0 * params.s, g), None, om, params


def _random_atoms():
    rng = np.random.default_rng(6)
    return _atoms(2, 8.0, 128, rng.uniform(-1.0, 1.0, (6, 2)), rng.uniform(0.5, 1.5, 6))


def _ball(n, N):
    params, g = Parameters(n, 0.75, 2.0), Grid(n, 8.0, N)
    om = Measure.uniform_ball(np.zeros(n), 1.0)
    return (*riesz_potential_and_gradient_measure(om, params.s, g), om, params)


def _picard():
    params, g = Parameters(2, 0.75, 2.0), Grid(2, 8.0, 64)
    ball = Measure.uniform_ball(np.array([0.25, 0.125]), 1.0)
    om = ball.scaled(scale_measure_admissible(ball, 0.5, params, g)[0])
    u, grad, _ = picard_solve(om, params, g, checks=())
    return u, grad, om, params


WEAK_CASES = {
    "criterion-3-atom": lambda: _atoms(2, 10.0, 256, [[0.0, 0.0]], [1.0]),
    "random-atoms": _random_atoms,
    "ball-n2-N128": lambda: _ball(2, 128),
    "ball-n2-N1024": lambda: _ball(2, 1024),
    "ball-n3-N32": lambda: _ball(3, 32),
    "ball-n3-N64": lambda: _ball(3, 64),
    "picard-n2-N64": _picard,
}


@pytest.mark.parametrize("case", WEAK_CASES.values(), ids=WEAK_CASES.keys())
def test_weak_residual_matches_the_per_test_function_route(case):
    # the symbol is real and even, so moving (-Delta)^s from each phi onto u
    # moves each residual by rounding only
    u, grad, om, params = case()
    family = default_test_functions(u.grid)
    got = weak_residual(u, grad, om, params, family)
    want = weak_residual_per_test_function(u, grad, om, params, family)
    assert np.max(np.abs(np.subtract(got, want)) / np.abs(want)) <= 1e-12


@pytest.fixture
def fft_calls(monkeypatch):
    """Counts of every numpy.fft transform called through the numpy.fft namespace."""
    calls = Counter()
    for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn"):
        def counted(*args, _name=name, _call=getattr(np.fft, name), **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


@pytest.mark.parametrize("members, atoms", [(1, 0), (1, 1), (12, 7), (12, None)],
                         ids=["one-member-no-atom", "one-member-one-atom", "12-members-7-atoms",
                              "12-members-ball"])
def test_weak_residual_transforms_once(fft_calls, members, atoms):
    g, params = Grid(2, 8.0, 64), Parameters(2, 0.75, 2.0)
    if atoms is None:
        om = Measure.uniform_ball(np.zeros(2), 1.0)
    else:
        om = Measure.from_atoms(np.linspace(-1.0, 1.0, 2 * atoms).reshape(atoms, 2),
                                np.ones(atoms))
    u, grad = riesz_potential_and_gradient_measure(om, params.s, g)
    family = [TestFunction((0.1 * k, -0.05 * k), 0.2 + 0.02 * k) for k in range(members)]
    fft_calls.clear()
    assert len(weak_residual(u, grad, om, params, family)) == members
    assert fft_calls == {"rfftn": 1, "irfftn": 1}


def test_weak_residual_refuses_a_leaking_member_before_any_transform(fft_calls):
    u, _, om, params = _atoms(2, 8.0, 64, [[0.0, 0.0]], [1.0])
    family = [*default_test_functions(u.grid), TestFunction((0.0, 0.0), 6.0)]
    with pytest.raises(ConfigError, match="^boundary amplitude"):
        weak_residual(u, None, om, params, family)
    assert not fft_calls


def test_weak_residual_accepts_a_member_that_vanishes_on_the_grid():
    u, _, om, params = _atoms(2, 8.0, 64, [[0.0, 0.0]], [1.0])
    far = TestFunction((1e3, 0.0), 1.0)
    assert np.all(far.on_grid(u.grid).values == 0.0)
    family = default_test_functions(u.grid)
    got = weak_residual(u, None, om, params, [*family, far])
    assert got == [*weak_residual(u, None, om, params, family), 0.0]
