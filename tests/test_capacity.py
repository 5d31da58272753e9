"""Capacity bounds, candidate densities, and the admissibility ratio."""

from dataclasses import fields, replace

import numpy as np
import pytest

import fracpot.capacity as capacity
from fracpot import (
    Grid,
    GridField,
    Measure,
    Parameters,
    ball_capacity_upper,
    ball_mask,
    estimate_ball_capacity,
    estimate_capacity,
    riesz_potential_field,
    scale_measure_admissible,
    sphere_surface,
    wolff_ratio,
)
from fracpot.errors import (
    AlphaOutOfRange,
    ConfigError,
    EmptySet,
    NotConverged,
    ThetaOutOfRange,
    ZeroMeasure,
)
from oracles import capacity_qp_oracle, paper_ball_candidate

PARAMS = Parameters(2, 0.75, 2.0)


def test_ball_bound_pinned_value():
    # (2^1.5 / c(2, 1/2))^2 / (2 pi), worked out once by hand
    assert ball_capacity_upper(2, 0.5, 2.0, 1.0) == pytest.approx(
        220.005946176652, rel=1e-12
    )


def test_ball_bound_scaling_law():
    # r^(n - alpha p) exactly; exponent 1 for this parameter point
    base = ball_capacity_upper(2, 0.5, 2.0, 1.0)
    for r in (0.25, 0.5, 2.0, 8.0):
        assert ball_capacity_upper(2, 0.5, 2.0, r) == pytest.approx(
            r * base, rel=1e-13
        )


def test_ball_bound_degenerate_radius():
    assert ball_capacity_upper(2, 0.5, 2.0, 0.0) == 0.0


def test_ball_bound_rejects_alpha_outside_range():
    with pytest.raises(AlphaOutOfRange):
        ball_capacity_upper(2, 2.0, 2.0, 1.0)


def test_candidate_norm_is_bound_over_n():
    # the flat candidate of height 2^(n-a) / (c omega_(n-1) r^a) on B_r has
    #   ||g||_p^p = height^p * v_n r^n = bound / n
    # because the bound carries the surface constant while the norm carries
    # the volume; the factor n = surface / volume survives in exact
    # arithmetic and the test keeps the convention from drifting
    n, alpha, p, r = 2, 0.5, 2.0, 1.0
    g = Grid(2, 4.0, 64)
    cand = paper_ball_candidate(np.zeros(2), r, alpha, g)
    height = float(cand.max())
    from fracpot import ball_volume, riesz_constant

    ref_height = 2.0 ** (n - alpha) / (
        riesz_constant(n, alpha) * sphere_surface(n) * r**alpha
    )
    assert height == pytest.approx(ref_height, rel=1e-13)
    analytic_norm = ref_height**p * ball_volume(n) * r**n
    bound = ball_capacity_upper(n, alpha, p, r)
    assert analytic_norm == pytest.approx(bound / n, rel=1e-10)


def test_candidate_is_feasible_on_the_ball():
    g = Grid(2, 8.0, 256)
    cand = GridField(g, paper_ball_candidate(np.zeros(2), 1.0, 0.5, g))
    pot = riesz_potential_field(cand, 0.5).values
    E = ball_mask(g, np.zeros(2), 1.0)
    assert pot[E].min() >= 1.0 - 1e-3


def test_ball_mask_counts_cells():
    g = Grid(2, 4.0, 128)
    E = ball_mask(g, np.zeros(2), 1.0)
    area = E.sum() * g.cell_volume
    assert area == pytest.approx(np.pi, abs=4.0 * g.h)
    assert not ball_mask(g, np.zeros(2), 0.0).any()


@pytest.fixture(scope="module")
def unit_ball_estimate():
    return estimate_ball_capacity(np.zeros(2), 1.0, 0.5, 2.0, Grid(2, 4.0, 64))


def test_estimate_certified_by_feasible_candidate(unit_ball_estimate):
    est = unit_ball_estimate
    pot = riesz_potential_field(est.candidate, 0.5).values
    E = ball_mask(est.candidate.grid, np.zeros(2), 1.0)
    assert pot[E].min() >= 1.0 - 1e-6
    assert est.feasibility_gap <= 1e-6
    # the reported value is the certified candidate's objective
    g = est.candidate.grid
    assert est.value == pytest.approx(
        g.cell_volume * float(np.sum(est.candidate.values**2)), rel=1e-12
    )


def test_estimate_stays_below_analytic_bound(unit_ball_estimate):
    est = unit_ball_estimate
    assert est.analytic_ball_bound == pytest.approx(
        ball_capacity_upper(2, 0.5, 2.0, 1.0), rel=1e-14
    )
    assert est.value <= est.analytic_ball_bound * (1.0 + 1e-6)
    assert est.value <= est.upper_bound * (1.0 + 1e-12)


def test_estimate_bracket_is_as_narrow_as_the_stopping_test(unit_ball_estimate):
    # upper_bound is the feasible objective the loop stopped on; the flat
    # starting candidate's objective left a bracket 79% wide here
    est = unit_ball_estimate
    assert est.lower_bound <= est.value <= est.upper_bound
    assert est.upper_bound - est.lower_bound <= 1e-6 * (1.0 + 1e-9) * est.upper_bound


def test_estimate_reference_band(unit_ball_estimate):
    # converged value at this resolution, pinned loosely for regressions
    assert 4.2 <= unit_ball_estimate.value <= 4.7


def test_nested_balls_monotone(unit_ball_estimate):
    inner = estimate_ball_capacity(np.zeros(2), 0.5, 0.5, 2.0, Grid(2, 4.0, 64))
    assert inner.value <= unit_ball_estimate.value * (1.0 + 1e-3)


def test_estimator_never_evaluates_the_same_array_twice_in_a_row(monkeypatch):
    # the accepted trial's potential is carried into the next iteration, and
    # a trial equal to one already rejected is not evaluated again
    seen = []

    def recording(f, alpha):
        seen.append(f.values.copy())
        return riesz_potential_field(f, alpha)

    monkeypatch.setattr(capacity, "riesz_potential_field", recording)
    capacity._unit_solve.cache_clear()
    est = estimate_ball_capacity(np.zeros(2), 1.0, 0.5, 2.0, Grid(2, 4.0, 32))
    assert est.iterations > 1
    assert not any(np.array_equal(a, b) for a, b in zip(seen, seen[1:]))


def test_estimate_brackets_the_quadratic_programme_oracle():
    # p = 2 makes the discrete capacity a QP; the oracle solves its dual by
    # nonnegative least squares with the direct-sum kernel
    g = Grid(2, 4.0, 32)
    for x0, r in (((0.0, 0.0), 1.0), ((0.3, 0.3), 0.9)):
        mask = ball_mask(g, x0, r)
        est = estimate_capacity(mask, 0.5, 2.0, g)
        oracle = capacity_qp_oracle(mask, g.h, 0.5)
        assert est.lower_bound <= oracle * (1.0 + 1e-9)
        assert oracle <= est.value
        assert est.value - oracle <= 1e-6 * est.value


def test_estimate_exactly_scale_equivariant_on_self_similar_grids():
    # L = 4r with N fixed gives the same mask on every grid, and the
    # estimator iterates in unit-spacing units, so value / r is one number;
    # the memo is cleared so that each radius runs its own loop
    values = []
    for r in (0.25, 0.5, 1.0, 2.0):
        g = Grid(2, 4.0 * r, 64)
        mask = ball_mask(g, np.zeros(2), r)
        capacity._unit_solve.cache_clear()
        est = estimate_capacity(mask, 0.5, 2.0, g)
        assert est.lower_bound <= est.value <= est.upper_bound
        pot = riesz_potential_field(est.candidate, 0.5).values
        assert 1.0 - pot[mask].min() <= 1e-12
        assert est.feasibility_gap <= 1e-12
        values.append(est.value / r)
    assert max(values) - min(values) <= 1e-8 * min(values)


def _grids_convolved_on(monkeypatch) -> list:
    """The grid of every riesz_potential_field call the estimator makes from now on."""
    grids = []

    def recording(f, alpha):
        grids.append(f.grid)
        return riesz_potential_field(f, alpha)

    monkeypatch.setattr(capacity, "riesz_potential_field", recording)
    return grids


def _assert_same_estimate(a, b):
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name == "candidate":
            assert x.grid == y.grid and np.array_equal(x.values, y.values)
        else:
            assert x == y, f.name


def test_self_similar_estimate_reuses_the_loop_and_runs_only_the_polish(monkeypatch):
    capacity._unit_solve.cache_clear()
    first = estimate_ball_capacity(np.zeros(2), 1.0, 0.5, 2.0, Grid(2, 4.0, 32))
    grids = _grids_convolved_on(monkeypatch)
    g = Grid(2, 2.0, 32)
    hit = estimate_ball_capacity(np.zeros(2), 0.5, 0.5, 2.0, g)
    # one measurement of the mapped candidate, and one more if it is rescaled
    assert 1 <= len(grids) <= 2 and set(grids) == {g}
    assert hit.iterations == first.iterations
    capacity._unit_solve.cache_clear()
    cold = estimate_ball_capacity(np.zeros(2), 0.5, 0.5, 2.0, g)
    assert len(grids) > 2 + cold.iterations
    _assert_same_estimate(hit, cold)


def _flip_one_cell(mask):
    flipped = mask.copy()
    flipped[tuple(np.argwhere(mask)[0])] = False
    return flipped


@pytest.mark.parametrize(
    "change",
    [
        lambda a: a | {"mask": _flip_one_cell(a["mask"])},
        lambda a: a | {"tol": 2e-6},
        lambda a: a | {"max_iter": 4999},
        lambda a: a | {"alpha": 0.6},
        lambda a: a | {"p": 2.2},
    ],
    ids=["mask-cell", "tol", "max_iter", "alpha", "p"],
)
def test_estimate_with_any_other_input_runs_its_own_loop(monkeypatch, change):
    g = Grid(2, 4.0, 32)
    base = {"mask": ball_mask(g, np.zeros(2), 1.0), "alpha": 0.5, "p": 2.0, "grid": g}
    capacity._unit_solve.cache_clear()
    estimate_capacity(**base)
    grids = _grids_convolved_on(monkeypatch)
    est = estimate_capacity(**change(base))
    unit = Grid(2, 16.0, 32)
    assert grids.count(unit) > est.iterations


def test_a_budget_that_runs_out_is_not_remembered(monkeypatch):
    g = Grid(2, 4.0, 32)
    mask = ball_mask(g, np.zeros(2), 1.0)
    capacity._unit_solve.cache_clear()
    messages = []
    for _ in range(2):
        grids = _grids_convolved_on(monkeypatch)
        with pytest.raises(NotConverged, match=r"after 3 iterations") as exc:
            estimate_capacity(mask, 0.5, 2.0, g, max_iter=3)
        assert grids.count(Grid(2, 16.0, 32)) > 3
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


def test_mutating_a_returned_candidate_leaves_later_estimates_alone():
    g = Grid(2, 4.0, 32)
    mask = ball_mask(g, np.zeros(2), 1.0)
    est = estimate_capacity(mask, 0.5, 2.0, g)
    kept = est.candidate.values.copy()
    est.candidate.values[...] = 0.0
    again = estimate_capacity(mask, 0.5, 2.0, g)
    assert np.array_equal(again.candidate.values, kept)
    assert again.value == est.value


def test_estimate_rejects_a_lower_bound_above_its_value(unit_ball_estimate):
    est = unit_ball_estimate
    with pytest.raises(ValueError):
        replace(est, lower_bound=est.value * (1.0 + 1e-9))


def test_estimate_raises_when_the_budget_runs_out():
    g = Grid(2, 4.0, 32)
    with pytest.raises(NotConverged, match=r"after 3 iterations; capacity in \["):
        estimate_capacity(ball_mask(g, np.zeros(2), 1.0), 0.5, 2.0, g, max_iter=3)


def test_estimate_rejects_empty_or_mismatched_mask():
    g = Grid(2, 4.0, 32)
    with pytest.raises(EmptySet):
        estimate_capacity(np.zeros(g.shape, dtype=bool), 0.5, 2.0, g)
    with pytest.raises(ConfigError):
        estimate_capacity(np.zeros((4, 4), dtype=bool), 0.5, 2.0, g)


@pytest.mark.parametrize("p", [1.0, 0.5, -2.0, np.nan, np.inf])
def test_estimate_refuses_an_exponent_outside_one_to_infinity(p):
    # p = 1 used to die dividing by p - 1, p = 0.5 to report a dual bound
    # above its estimate and p = -2 a non-finite candidate
    g = Grid(2, 4.0, 16)
    for estimate in (
        lambda: estimate_capacity(ball_mask(g, np.zeros(2), 1.0), 0.5, p, g),
        lambda: estimate_ball_capacity(np.zeros(2), 1.0, 0.5, p, g),
        lambda: ball_capacity_upper(2, 0.5, p, 1.0),
    ):
        with pytest.raises(ValueError, match=rf"1 < p < inf, got p={p}$"):
            estimate()


def test_admissibility_ratio_exactly_homogeneous():
    # V and W both scale by powers of t, so the reported ratio obeys
    # c1_hat(t omega) = t^(q-1) c1_hat(omega) with no quadrature error at all
    g = Grid(2, 8.0, 128)
    om = Measure.uniform_ball(np.zeros(2), 1.0, 1.0)
    base = wolff_ratio(om, PARAMS, g).c1_hat
    for t in (0.5, 2.0):
        scaled = wolff_ratio(om.scaled(t), PARAMS, g).c1_hat
        assert abs(scaled - t ** (PARAMS.q - 1.0) * base) <= 1e-8 * base


def test_admissibility_ratio_reference_value():
    g = Grid(2, 8.0, 128)
    om = Measure.uniform_ball(np.zeros(2), 1.0, 1.0)
    rep = wolff_ratio(om, PARAMS, g)
    assert rep.c1_hat == pytest.approx(0.8799748840027056, rel=1e-12)
    assert rep.c1_threshold == pytest.approx(0.05220004448205612, rel=1e-12)


def test_admissibility_ratio_stable_under_refinement_for_spread_mass():
    om = Measure.uniform_ball(np.zeros(2), 1.0, 1.0)
    a = wolff_ratio(om, PARAMS, Grid(2, 8.0, 128)).c1_hat
    b = wolff_ratio(om, PARAMS, Grid(2, 8.0, 256)).c1_hat
    assert abs(b - a) / a <= 0.05


def test_admissibility_ratio_diverges_for_atoms():
    # V^q ~ r^(-3) around an atom at these parameters is not locally
    # integrable, so the discrete ratio grows like 1/h; each refinement
    # doubles it.  No admissible scaling of a Dirac exists here, and the
    # diagnostic must show that rather than quietly stabilise
    om = Measure.from_atoms(np.zeros((1, 2)), np.ones(1))
    vals = [wolff_ratio(om, PARAMS, Grid(2, 8.0, N)).c1_hat for N in (64, 128, 256)]
    for a, b in zip(vals, vals[1:]):
        assert 1.9 <= b / a <= 2.1


def test_admissibility_rejects_zero_measure_and_tight_box():
    g = Grid(2, 8.0, 128)
    with pytest.raises(ZeroMeasure):
        wolff_ratio(Measure.from_atoms(np.zeros((0, 2)), np.zeros(0)), PARAMS, g)
    wide = Measure.uniform_ball(np.zeros(2), 2.5, 1.0)
    with pytest.raises(ConfigError):
        # support radius 2.5 needs L >= 10
        wolff_ratio(wide, PARAMS, g)


def test_scaling_onto_admissible_range_hits_theta():
    g = Grid(2, 8.0, 128)
    om = Measure.uniform_ball(np.zeros(2), 1.0, 1.0)
    t, rep = scale_measure_admissible(om, 0.5, PARAMS, g)
    assert rep.scale_factor == pytest.approx(t, rel=1e-15)
    assert rep.c1_hat / rep.c1_threshold == pytest.approx(0.5, abs=1e-12)
    # q = 2 makes the scale explicit: t = theta * threshold / c1_hat
    assert t == pytest.approx(0.5 * rep.c1_threshold / 0.8799748840027056, rel=1e-10)
    # the report is inferred by (q-1)-homogeneity; measuring t omega agrees
    for params, grid in ((PARAMS, g), (Parameters(3, 0.75, 2.0), Grid(3, 4.0, 32))):
        om = Measure.uniform_ball(np.zeros(grid.n), 1.0, 1.0)
        t, rep = scale_measure_admissible(om, 0.5, params, grid)
        measured = wolff_ratio(om.scaled(t), params, grid).c1_hat
        assert rep.c1_hat == pytest.approx(measured, rel=1e-12)


def test_scaling_rejects_theta_outside_unit_interval():
    g = Grid(2, 8.0, 128)
    om = Measure.uniform_ball(np.zeros(2), 1.0, 1.0)
    for theta in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ThetaOutOfRange):
            scale_measure_admissible(om, theta, PARAMS, g)
