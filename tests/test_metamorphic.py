"""Metamorphic tests: the potentials follow their datum under the grid's symmetries.

Reflecting an axis (cell i goes to N - 1 - i, x_k to -x_k), swapping two
axes, and translating a datum that stays clear of the edges by whole cells
map the cell-centred grid onto itself, and the Riesz kernels are even,
symmetric in the axes and translation invariant.  So I_alpha of the mapped
datum is the mapped I_alpha, and the gradient of I_2s maps as a vector:
the component along a reflected axis changes sign, the components along
swapped axes trade places.  The FFT convolution and the exact atom sums
both must keep this to rounding level: measured defects are 2e-16 to 9e-16
of the largest value, and the bound is 1e-14.  A sign that is wrong
everywhere keeps every symmetry, so one more relation changes the datum's
representation instead: atoms at cell centres, summed exactly, and the
same mass on their cells, convolved, sample one kernel at the same
displacements.

The Picard solver and the capacity estimator inherit these symmetries.  An
off-centre ball, scaled onto the admissible range and solved, maps its u and
grad u onto the solution of the reflected or axis-swapped ball (bound 1e-13
of the largest value), and its weak residuals, as a set, onto those of the
reflected ball: the test functions along axes 0 and 1 have different
widths, so an axis swap does not map the family onto itself.  The capacity
of a reflected ball mask is the same number, with the reflected candidate.
"""

import numpy as np
import pytest

from fracpot import (
    Grid,
    GridField,
    Measure,
    Parameters,
    estimate_capacity,
    picard_solve,
    riesz_potential_field,
    scale_measure_admissible,
)
from fracpot.capacity import ball_mask
from fracpot.riesz import riesz_potential_and_gradient_measure

from oracles import riesz_potential_and_gradient_field

BOUND = 1e-14
S = 0.75  # I_2s and its gradient; the scalar test takes alpha = 2s - 1
SHIFT = 3  # cells, along axis 0
# dyadic boxes, so that cell centres, atoms and their images are exact
GRIDS = [Grid(2, 4.0, 64), Grid(3, 3.0, 24)]


def _reflect(a: np.ndarray) -> np.ndarray:
    return np.flip(a, axis=0)


def _swap(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, 0, 1)


def _translate(a: np.ndarray) -> np.ndarray:
    return np.roll(a, SHIFT, axis=0)


def _reflect_vector(comps: list) -> list:
    return [-_reflect(c) if i == 0 else _reflect(c) for i, c in enumerate(comps)]


def _swap_vector(comps: list) -> list:
    return [_swap(c) for c in [comps[1], comps[0], *comps[2:]]]


def _translate_vector(comps: list) -> list:
    return [_translate(c) for c in comps]


# (name, map of a scalar field, map of a gradient's components)
MAPS = [
    ("reflection", _reflect, _reflect_vector),
    ("axis-swap", _swap, _swap_vector),
    ("translation", _translate, _translate_vector),
]
MAP_IDS = [m[0] for m in MAPS]


def _density(grid: Grid) -> np.ndarray:
    """Random nonnegative cell values, zero within SHIFT cells of the edges of axis 0."""
    values = np.random.default_rng(grid.n * grid.N).random(grid.shape)
    values[:SHIFT] = values[-SHIFT:] = 0.0
    return values


def _atoms(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Random atoms off the cell centres, at multiples of h/8 and clear of the edges."""
    rng = np.random.default_rng(grid.n + grid.N)
    ticks = rng.integers(8 * (SHIFT + 1), 8 * (grid.N - SHIFT - 1), size=(5, grid.n))
    points = -grid.L + (ticks + 0.25) * (grid.h / 8.0)
    return points, rng.random(5)


def _map_atoms(name: str, points: np.ndarray, grid: Grid) -> np.ndarray:
    points = points.copy()
    if name == "reflection":
        points[:, 0] *= -1.0
    elif name == "axis-swap":
        points[:, [0, 1]] = points[:, [1, 0]]
    else:
        points[:, 0] += SHIFT * grid.h
    return points


def _assert_follows(name: str, mapped: np.ndarray, of_mapped: np.ndarray, scale: float,
                    bound: float = BOUND) -> None:
    """of_mapped (the output of the mapped datum) equals mapped (the mapped output).

    A translation is compared where both are defined: past the first SHIFT cells.
    """
    keep = (slice(SHIFT, None),) if name == "translation" else ()
    defect = float(np.max(np.abs(of_mapped[keep] - mapped[keep])))
    assert defect <= bound * scale, f"{name}: defect {defect / scale:.2e} of the largest value"


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"n{g.n}-N{g.N}")
@pytest.mark.parametrize("name, scalar_map, _", MAPS, ids=MAP_IDS)
def test_potential_field_follows_the_grid_symmetries(grid, name, scalar_map, _):
    values = _density(grid)
    u = riesz_potential_field(GridField(grid, values), 2.0 * S - 1.0).values
    u_mapped = riesz_potential_field(GridField(grid, scalar_map(values)), 2.0 * S - 1.0).values
    _assert_follows(name, scalar_map(u), u_mapped, float(np.max(u)))


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"n{g.n}-N{g.N}")
@pytest.mark.parametrize("name, scalar_map, vector_map", MAPS, ids=MAP_IDS)
def test_potential_and_gradient_field_follow_the_grid_symmetries(
    grid, name, scalar_map, vector_map
):
    values = _density(grid)
    u, grad = riesz_potential_and_gradient_field(GridField(grid, values), S)
    u_m, grad_m = riesz_potential_and_gradient_field(GridField(grid, scalar_map(values)), S)
    _assert_follows(name, scalar_map(u.values), u_m.values, float(np.max(u.values)))
    comps = [c.values for c in grad.components]
    scale = max(float(np.max(np.abs(c))) for c in comps)
    for want, got in zip(vector_map(comps), grad_m.components):
        _assert_follows(name, want, got.values, scale)


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"n{g.n}-N{g.N}")
@pytest.mark.parametrize("name, scalar_map, vector_map", MAPS, ids=MAP_IDS)
def test_atom_sums_follow_the_grid_symmetries(grid, name, scalar_map, vector_map):
    points, weights = _atoms(grid)
    u, grad = riesz_potential_and_gradient_measure(Measure.from_atoms(points, weights), S, grid)
    moved = Measure.from_atoms(_map_atoms(name, points, grid), weights)
    u_m, grad_m = riesz_potential_and_gradient_measure(moved, S, grid)
    _assert_follows(name, scalar_map(u.values), u_m.values, float(np.max(u.values)))
    comps = [c.values for c in grad.components]
    scale = max(float(np.max(np.abs(c))) for c in comps)
    for want, got in zip(vector_map(comps), grad_m.components):
        _assert_follows(name, want, got.values, scale)


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"n{g.n}-N{g.N}")
def test_atoms_at_cell_centres_and_their_cells_have_one_potential(grid):
    rng = np.random.default_rng(grid.N)
    cells = rng.integers(0, grid.N, size=(5, grid.n))
    weights = rng.random(5)
    density = np.zeros(grid.shape)
    np.add.at(density, tuple(cells.T), weights / grid.cell_volume)
    atoms = Measure.from_atoms(grid.axis()[cells], weights)
    u, grad = riesz_potential_and_gradient_measure(atoms, S, grid)
    u_f, grad_f = riesz_potential_and_gradient_field(GridField(grid, density), S)
    _assert_follows("representation", u.values, u_f.values, float(np.max(u.values)))
    scale = max(float(np.max(np.abs(c.values))) for c in grad.components)
    for want, got in zip(grad.components, grad_f.components):
        _assert_follows("representation", want.values, got.values, scale)


SOLVER_BOUND = 1e-13
# off-centre balls on dyadic boxes: (grid, centre, radius)
BALLS = [
    (Grid(2, 8.0, 64), (0.5, 0.25), 1.0),  # centre (2h, h)
    (Grid(3, 4.0, 16), (0.5, 0.25, 0.0), 0.4),  # centre (h, h/2, 0)
]


def _solve_ball(grid: Grid, centre, radius: float, checks=()):
    params = Parameters(grid.n, S, 2.0)
    ball = Measure.uniform_ball(np.array(centre), radius)
    t, _ = scale_measure_admissible(ball, 0.5, params, grid)
    return picard_solve(ball.scaled(t), params, grid, theta=0.5, checks=checks)


BALL_IDS = [f"n{g.n}-N{g.N}" for g, *_ in BALLS]


def _map_point(name: str, centre, grid: Grid) -> tuple:
    return tuple(_map_atoms(name, np.array([centre], dtype=float), grid)[0])


@pytest.mark.parametrize("grid, centre, radius", BALLS, ids=BALL_IDS)
@pytest.mark.parametrize("name, scalar_map, vector_map", MAPS[:2], ids=MAP_IDS[:2])
def test_picard_solution_follows_the_grid_symmetries(grid, centre, radius, name, scalar_map,
                                                      vector_map):
    u, grad, report = _solve_ball(grid, centre, radius)
    u_m, grad_m, report_m = _solve_ball(grid, _map_point(name, centre, grid), radius)
    assert report.converged and report_m.converged
    _assert_follows(name, scalar_map(u.values), u_m.values, np.max(np.abs(u.values)), SOLVER_BOUND)
    comps = [c.values for c in grad.components]
    scale = max(float(np.max(np.abs(c))) for c in comps)
    for want, got in zip(vector_map(comps), grad_m.components):
        _assert_follows(name, want, got.values, scale, SOLVER_BOUND)


@pytest.mark.parametrize("grid, centre, radius", BALLS, ids=BALL_IDS)
def test_weak_residuals_follow_a_reflection(grid, centre, radius):
    # each test function along axis 0 has its mirror image in the family
    *_, report = _solve_ball(grid, centre, radius, checks=("weak",))
    *_, report_m = _solve_ball(grid, _map_point("reflection", centre, grid), radius, checks=("weak",))
    got = np.sort(report_m.checks["weak"]["residuals"])
    want = np.sort(report.checks["weak"]["residuals"])
    assert np.max(np.abs(got - want) / want) <= 1e-12


def test_capacity_of_a_reflected_ball_is_the_same():
    grid, alpha, p = Grid(2, 4.0, 32), 0.5, 2.0
    mask = ball_mask(grid, (0.5, 0.25), 1.0)
    est = estimate_capacity(mask, alpha, p, grid)
    est_m = estimate_capacity(_reflect(mask), alpha, p, grid)
    assert abs(est_m.value - est.value) <= 1e-12 * est.value
    candidate = est.candidate.values
    assert np.max(np.abs(est_m.candidate.values - _reflect(candidate))) <= 1e-12 * np.max(candidate)
