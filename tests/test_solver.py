"""Constants ledger identities and the successive-approximation solver."""

import re
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from fracpot import (
    Grid,
    Measure,
    Parameters,
    VectorGridField,
    constants_ledger,
    gradient_comparison_constant,
    picard_solve,
    representation_residual,
    riesz_potential_measure,
    sandwich_check,
    scale_measure_admissible,
)
from fracpot import riesz, solver
from fracpot.errors import ConfigError, NotAdmissible
from fracpot.riesz import clear_plan_cache, fft_workers

PARAMS = Parameters(2, 0.75, 2.0)


def test_ledger_pinned_values():
    led = constants_ledger(PARAMS, 0.5)
    assert led.c_grad == pytest.approx(2.188439615226477, rel=1e-12)
    assert led.c1_threshold == pytest.approx(0.05220004448205612, rel=1e-12)
    assert led.c1 == pytest.approx(0.02610002224102806, rel=1e-12)
    assert led.c_grad_uniform == pytest.approx(4.376879230452954, rel=1e-12)
    assert led.c_grad_step == pytest.approx(1.0942198076132386, rel=1e-12)
    assert led.c_step == pytest.approx(9.578535898985223, rel=1e-12)
    assert led.a_limit == pytest.approx(2.5639164923300415, rel=1e-12)


def test_ledger_contraction_equals_theta():
    # the contraction factor collapses to theta itself: the threshold is
    # defined as exactly the largest c1 making the factor theta
    for q in (1.5, 2.0, 3.0):
        for theta in (0.25, 0.5, 0.75):
            led = constants_ledger(Parameters(2, 0.75, q), theta)
            assert abs(led.contraction - theta) <= 1e-12


def test_ledger_gradient_limit_closed_form_at_q_two():
    # q = 2 turns the fixed-point equation a = c0 (a^2 c1 + 1) into a
    # quadratic with root a = 2 c0 (1 - sqrt(1 - theta)) / theta
    c0 = gradient_comparison_constant(2, 0.75)
    for theta in (0.25, 0.5, 0.75):
        led = constants_ledger(PARAMS, theta)
        ref = 2.0 * c0 * (1.0 - np.sqrt(1.0 - theta)) / theta
        assert led.a_limit == pytest.approx(ref, rel=1e-12)
    assert constants_ledger(PARAMS, 0.75).a_limit == pytest.approx(
        4.0 * c0 / 3.0, abs=1e-10
    )


def test_ledger_gradient_limit_approaches_two_c0():
    c0 = gradient_comparison_constant(2, 0.75)
    led = constants_ledger(PARAMS, 1.0 - 1e-9)
    assert led.a_limit == pytest.approx(2.0 * c0, rel=1e-4)


def test_ledger_rejects_theta_outside_unit_interval():
    for theta in (0.0, 1.0, -1.0, 1.5):
        with pytest.raises(ConfigError, match=r"^theta .* outside \(0, 1\)$"):
            constants_ledger(PARAMS, theta)


@pytest.mark.parametrize("q", [900.0, 1e5, 1e308],
                         ids=["product-overflows", "power-raises", "q-1e308"])
def test_ledger_that_overflows_a_float_is_refused_naming_q(q):
    # at q = 900 every power is finite and c_step overflows to inf; above, c2**q raises
    message = re.escape(f"the constants ledger overflows a float at q={q}")
    with pytest.raises(ConfigError, match=f"^{message}$"):
        constants_ledger(Parameters(2, 0.75, q), 0.5)


def test_ledger_serialises():
    d = asdict(constants_ledger(PARAMS, 0.5))
    assert d["theta"] == 0.5
    assert set(d) >= {"c_grad", "c1_threshold", "c1", "contraction", "a_limit"}


def test_solve_zero_measure_returns_zero():
    g = Grid(2, 8.0, 64)
    om = Measure.from_atoms(np.zeros((1, 2)), np.zeros(1))
    u, grad, rep = picard_solve(om, PARAMS, g)
    assert rep.converged
    assert np.all(u.values == 0.0)
    assert np.all(grad.magnitude().values == 0.0)
    # the shortcut skips the loop, not the checks: one run_checks pass
    assert set(rep.checks) == {"weak", "representation", "sandwich"}
    assert rep.checks["weak"]["residuals"] == [0.0] * 5
    assert rep.checks["representation"]["residual"] == 0.0
    assert rep.checks["sandwich"]["lower_ok"] is True
    assert rep.checks["sandwich"]["upper"] == 1.0
    assert rep.gradient_bound_ratio == 0.0
    assert rep.checks_ok


def test_solve_rejects_inadmissible_measure():
    g = Grid(2, 8.0, 128)
    om = Measure.uniform_ball(np.zeros(2), 1.0, 1.0)
    # c1_hat = 0.88 for the unit-amplitude ball, far above the threshold
    with pytest.raises(NotAdmissible):
        picard_solve(om, PARAMS, g)


def test_reference_solve_converges_fast(reference_run):
    rep = reference_run["report"]
    assert rep.converged
    assert rep.iterations <= 60
    # after the transients, increments contract well below the guaranteed
    # factor theta = 0.5
    assert all(r <= 0.55 for r in rep.increment_ratios[2:])


def test_reference_solve_representation_identity(reference_run):
    # u = I_2s(|grad u|^q) + I_2s(omega) holds to solver tolerance
    assert reference_run["report"].checks["representation"]["residual"] <= 1e-6
    params = reference_run["params"]
    u0 = riesz_potential_measure(
        reference_run["omega"], 2.0 * params.s, reference_run["grid"]
    )
    res = representation_residual(
        reference_run["u"], reference_run["grad"], u0, params
    )
    assert res <= 1e-6


def test_reference_solve_sandwich(reference_run):
    sandwich = reference_run["report"].checks["sandwich"]
    assert sandwich["lower_ok"]
    assert 1.0 <= sandwich["upper"] <= 1.05
    u0 = riesz_potential_measure(
        reference_run["omega"], 2.0 * reference_run["params"].s, reference_run["grid"]
    )
    lower_ok, upper = sandwich_check(reference_run["u"], u0)
    assert lower_ok and upper == pytest.approx(sandwich["upper"], rel=1e-12)


def test_reference_solve_gradient_uniformly_bounded(reference_run):
    rep = reference_run["report"]
    led = constants_ledger(reference_run["params"], 0.5)
    assert rep.gradient_bound_ratio <= led.a_limit * (1.0 + 1e-10)


def test_reference_solve_weak_residuals(reference_run):
    residuals = reference_run["report"].checks["weak"]["residuals"]
    assert len(residuals) == 5
    assert all(w <= 1e-2 for w in residuals)


def test_reference_solve_admissibility_recorded(reference_run):
    adm = reference_run["report"].admissibility
    assert adm["c1_hat"] <= adm["c1_threshold"] * 0.5 * (1.0 + 1e-9)


def test_solve_is_deterministic(reference_run):
    u2, grad2, rep2 = picard_solve(
        reference_run["omega"],
        reference_run["params"],
        reference_run["grid"],
        theta=0.5,
        tol=1e-8,
    )
    assert np.array_equal(u2.values, reference_run["u"].values)
    assert rep2.iterations == reference_run["report"].iterations


def test_representation_residual_zero_for_pure_potential():
    g = Grid(2, 8.0, 64)
    om = Measure.from_atoms(np.zeros((1, 2)), np.ones(1))
    u0 = riesz_potential_measure(om, 1.5, g)
    no_grad = VectorGridField(g, (g.zeros(), g.zeros()))
    assert representation_residual(u0, no_grad, u0, PARAMS) <= 1e-14


def test_sandwich_of_bare_potential_is_tight():
    g = Grid(2, 8.0, 64)
    om = Measure.from_atoms(np.zeros((1, 2)), np.ones(1))
    u0 = riesz_potential_measure(om, 1.5, g)
    lower_ok, upper = sandwich_check(u0, u0)
    assert lower_ok
    assert upper == pytest.approx(1.0, abs=1e-12)


def test_picard_steps_allocate_no_grid_array(monkeypatch):
    # marks at the start and the end of each convolution split steps 2..K
    # into the convolution, which may hold its k = 3 half-size spectra and
    # each worker's scratch of two slabs (2 x budget) and 64 KiB, and the
    # rest of the step, which may hold nothing; either way less than one
    # array of N^2 float64 values over that, and nothing is left behind
    params, workers, budget = PARAMS, 2, 2**16
    g = Grid(2, 8.0, 256)
    monkeypatch.setattr(riesz, "_PARALLEL_MIN_POINTS", 1)
    monkeypatch.setattr(riesz, "_SLAB_BYTES", budget)
    omega = Measure.uniform_ball(np.zeros(2), 1.0, 1.0)
    omega = omega.scaled(scale_measure_admissible(omega, 0.5, params, g)[0])
    k, N = 3, g.N
    half, field = 16 * N * (N + 1), 8 * N * N
    marks = []
    convolve = riesz._convolve

    def mark():
        marks.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()

    def spy(*args, **kwargs):
        mark()
        try:
            return convolve(*args, **kwargs)
        finally:
            mark()

    monkeypatch.setattr(riesz, "_convolve", spy)
    report = solver.SolveReport()
    clear_plan_cache()
    with fft_workers(workers):
        tracemalloc.start()
        try:
            # kept, so that the last mark still counts the fields it returns
            fields = solver._iterate(omega, params, g, constants_ledger(params, 0.5), 1e-8, 200,
                                     report)
            mark()
        finally:
            tracemalloc.stop()
    clear_plan_cache()
    del fields
    K = report.iterations
    assert K >= 3
    # the last 2K + 1 marks bound the steps' convolutions and what follows each
    steps = marks[-2 * K - 1 :]
    for start, end, after in zip(steps[2:-1:2], steps[3::2], steps[4::2]):
        inside, outside = end[1] - start[0], after[1] - end[0]
        assert k * half <= inside <= k * half + workers * (2 * budget + 2**16)
        assert inside < k * half + field and outside < field
        assert end[0] - start[0] < 2**16 and after[0] - end[0] < 2**16
