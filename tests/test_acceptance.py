"""Acceptance gate: one quantitative criterion per test, one line per verdict.

Each test prints a single PASS/FAIL line at the stated tolerance and then
asserts it.  The criteria are fixed; nothing here adapts tolerances to make
a red bar green.  One criterion is expected to fail at its stated
tolerance on this discretisation:

* criterion 2: the inner Riesz potential decays like r^(-3/2), the box
  truncates that tail before the outer convolution integrates it, and the
  resulting relative L2 mismatch saturates near 0.11 for every grid this
  side of a much larger box.  Refinement in N does not move it.

That mechanism is a discretisation floor of the stated grid, not an
implementation defect; the module tests pin the measured value so any
regression from the floor is still caught.

Criterion 3 used to fail the same way: midpoint quadrature of the weak
identity under-integrated the atom potential's blow-up in the cells around
the atom by 5.7 percent of their mass, a floor near 1.4e-2.  weak_residual
now integrates those cells with exact kernel cell averages, which leaves the
periodisation and box-tail terms, about 4e-3 against the stated 5e-3.
"""

import json
import time

import numpy as np
import pytest

from fracpot import (
    Grid,
    GridField,
    Measure,
    Parameters,
    constants_ledger,
    decay_fit,
    default_test_functions,
    diagnostics_report,
    distribution_slope,
    estimate_ball_capacity,
    gamma,
    gradient_comparison_constant,
    picard_solve,
    riesz_constant,
    riesz_gradient_measure,
    riesz_potential_field,
    riesz_potential_measure,
    scale_measure_admissible,
    weak_residual,
    wolff_ratio,
)
from fracpot.cli import main

from oracles import atom_level_window, gamma_series

CRITERIA_LINES: list[str] = []


def _verdict(num: int, ok: bool, text: str) -> bool:
    line = f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {text}"
    CRITERIA_LINES.append(line)
    print(line)
    return ok


def test_criterion_01_kernel_constants_and_gamma_oracle():
    t0 = time.monotonic()
    err_c = max(
        abs(riesz_constant(3, 2.0) - 1.0 / (4.0 * np.pi)) * 4.0 * np.pi,
        abs(riesz_constant(2, 1.0) - 1.0 / (2.0 * np.pi)) * 2.0 * np.pi,
    )
    xs = np.linspace(0.01, 10.0, 1000)
    err_g = 0.0
    for x in xs:
        ref = gamma_series(float(x))
        err_g = max(err_g, abs(gamma(float(x)) - ref) / abs(ref))
    elapsed = time.monotonic() - t0
    ok = err_c <= 1e-12 and err_g <= 1e-12 and elapsed < 1.0
    assert _verdict(
        1,
        ok,
        f"kernel constants rel err {err_c:.2e}, gamma vs series oracle "
        f"{err_g:.2e} (tol 1e-12), runtime {elapsed:.2f} s < 1 s",
    )


def test_criterion_02_semigroup_identity():
    t0 = time.monotonic()
    g = Grid(2, 8.0, 256)
    X, Y = g.coords()
    f = GridField(g, np.exp(-0.5 * (X**2 + Y**2)))
    left = riesz_potential_field(riesz_potential_field(f, 0.5), 0.5).values
    right = riesz_potential_field(f, 1.0).values
    rel = float(np.linalg.norm(left - right) / np.linalg.norm(right))
    elapsed = time.monotonic() - t0
    ok = rel <= 2e-2 and elapsed < 30.0
    assert _verdict(
        2,
        ok,
        f"semigroup I_0.5(I_0.5 f) vs I_1 f rel L2 err {rel:.4e} "
        f"(tol 2e-2), runtime {elapsed:.1f} s < 30 s",
    )


def test_criterion_03_weak_solution_identity():
    t0 = time.monotonic()
    params = Parameters(2, 0.75, 2.0)
    g = Grid(2, 10.0, 256)
    om = Measure.from_atoms(np.zeros((1, 2)), np.ones(1))
    u0 = riesz_potential_measure(om, 2.0 * params.s, g)
    residuals = weak_residual(u0, None, om, params, default_test_functions(g))
    worst = max(residuals)
    elapsed = time.monotonic() - t0
    ok = worst <= 5e-3 and elapsed < 60.0
    assert _verdict(
        3,
        ok,
        f"weak residual of atom potential, 5 test functions, max "
        f"{worst:.4e} (tol 5e-3 each), runtime {elapsed:.1f} s < 60 s",
    )


def test_criterion_04_gradient_bound():
    params = Parameters(2, 0.75, 2.0)
    c0 = gradient_comparison_constant(2, 0.75)
    g = Grid(2, 8.0, 64)
    rng = np.random.default_rng(0)
    worst = -np.inf
    for _ in range(10):
        atoms = rng.uniform(-1.5, 1.5, size=(5, 2))
        weights = rng.uniform(0.2, 1.0, size=5)
        om = Measure.from_atoms(atoms, weights)
        mag = riesz_gradient_measure(om, params.s, g).magnitude().values
        dom = c0 * riesz_potential_measure(om, 2.0 * params.s - 1.0, g).values
        worst = max(worst, float(np.max(mag / dom)))
    ok = worst <= 1.0 + 1e-10
    assert _verdict(
        4,
        ok,
        f"|grad I_2s| <= c_grad I_(2s-1) for 10 random atomic measures, "
        f"max ratio {worst:.12f} (slack 1e-10)",
    )


def test_criterion_05_capacity_scaling():
    t0 = time.monotonic()
    radii = (0.25, 0.5, 1.0, 2.0)
    values = []
    for r in radii:
        est = estimate_ball_capacity(
            np.zeros(2), r, 0.5, 2.0, Grid(2, 4.0 * r, 128)
        )
        assert est.value <= est.analytic_ball_bound * (1.0 + 1e-6)
        values.append(est.value)
    slope = float(
        np.polyfit(np.log(np.array(radii)), np.log(np.array(values)), 1)[0]
    )
    elapsed = time.monotonic() - t0
    ok = abs(slope - 1.0) <= 0.05 and elapsed < 300.0
    assert _verdict(
        5,
        ok,
        f"capacity log-log slope {slope:.4f} vs 1 (tol 5%), all estimates "
        f"below the candidate bound, runtime {elapsed:.0f} s < 300 s",
    )


def test_criterion_06_ledger_identities():
    worst_delta = 0.0
    for q in (1.5, 2.0, 3.0):
        for theta in (0.25, 0.5, 0.75):
            led = constants_ledger(Parameters(2, 0.75, q), theta)
            worst_delta = max(worst_delta, abs(led.contraction - theta))
    c0 = gradient_comparison_constant(2, 0.75)
    led = constants_ledger(Parameters(2, 0.75, 2.0), 0.75)
    err_a = abs(led.a_limit - 4.0 * c0 / 3.0)
    ok = worst_delta <= 1e-12 and err_a <= 1e-10
    assert _verdict(
        6,
        ok,
        f"delta = theta across 9 (q, theta) pairs, worst {worst_delta:.1e} "
        f"(tol 1e-12); aLimit - (4/3) c_grad = {err_a:.1e} (tol 1e-10)",
    )


def test_criterion_07_picard_reference_scenario():
    t0 = time.monotonic()
    params = Parameters(2, 0.75, 2.0)
    grid = Grid(2, 8.0, 128)
    base = Measure.uniform_ball(np.zeros(2), 1.0, 1.0)
    t, _ = scale_measure_admissible(base, 0.5, params, grid)
    u, grad, rep = picard_solve(base.scaled(t), params, grid, theta=0.5, tol=1e-8)
    elapsed = time.monotonic() - t0
    late_ratios = rep.increment_ratios[2:]
    worst_ratio = max(late_ratios) if late_ratios else 0.0
    worst_weak = max(rep.checks["weak"]["residuals"])
    residual = rep.checks["representation"]["residual"]
    lower_ok = rep.checks["sandwich"]["lower_ok"]
    ok = (
        rep.converged
        and rep.iterations <= 60
        and worst_ratio <= 0.55
        and residual <= 1e-6
        and lower_ok
        and worst_weak <= 1e-2
        and elapsed < 600.0
    )
    assert _verdict(
        7,
        ok,
        f"reference scenario: {rep.iterations} iterations (<= 60), late "
        f"increment ratio {worst_ratio:.3f} (<= 0.55), representation "
        f"residual {residual:.1e} (<= 1e-6), sandwich "
        f"lower ok={lower_ok}, weak residual {worst_weak:.2e} "
        f"(<= 1e-2), runtime {elapsed:.0f} s < 600 s",
    )


def test_criterion_08_wolff_homogeneity():
    params = Parameters(2, 0.75, 2.0)
    g = Grid(2, 8.0, 128)
    om = Measure.uniform_ball(np.zeros(2), 1.0, 1.0)
    base = wolff_ratio(om, params, g).c1_hat
    worst = 0.0
    for t in (0.5, 2.0):
        scaled = wolff_ratio(om.scaled(t), params, g).c1_hat
        worst = max(worst, abs(scaled - t ** (params.q - 1.0) * base) / (t * base))
    ok = worst <= 1e-8
    assert _verdict(
        8,
        ok,
        f"c1_hat(t omega) = t^(q-1) c1_hat(omega) for t in {{0.5, 2}}, "
        f"worst rel err {worst:.1e} (tol 1e-8)",
    )


def test_criterion_09_decay_slopes(reference_run):
    fit_ref = decay_fit(
        reference_run["u"], reference_run["omega"], reference_run["params"]
    )
    g = Grid(2, 8.0, 256)
    om = Measure.from_atoms(np.zeros((1, 2)), np.ones(1))
    u0 = riesz_potential_measure(om, 1.5, g)
    fit_atom = decay_fit(u0, om, reference_run["params"])
    err_ref = abs(fit_ref.slope - (-0.5))
    err_atom = abs(fit_atom.slope - (-0.5))
    ok = err_ref <= 0.1 and err_atom <= 1e-3
    assert _verdict(
        9,
        ok,
        f"decay slope: solved field {fit_ref.slope:.4f} (tol 0.1 around "
        f"-0.5), atom potential {fit_atom.slope:.7f} (tol 1e-3)",
    )


def test_criterion_10_distribution_slope_documented():
    params = Parameters(2, 0.75, 2.0)
    g = Grid(2, 8.0, 256)
    om = Measure.from_atoms(np.zeros((1, 2)), np.ones(1))
    u0 = riesz_potential_measure(om, 1.5, g)
    lo, hi = atom_level_window(u0, params)
    slope = distribution_slope(u0, lo, hi)
    report = diagnostics_report(u0, None, om, params)
    dist = report.get("distribution", {})
    documented = (
        dist.get("weak_type_exponent") == pytest.approx(-4.0)
        and "m*" in dist.get("note", "")
    )
    ok = abs(slope - (-4.0)) <= 0.03 * 4.0 and documented
    assert _verdict(
        10,
        ok,
        f"superlevel slope {slope:.4f} vs -4 (tol 3%), conjugate-exponent "
        f"discrepancy documented in report: {documented}",
    )


def test_criterion_11_byte_identical_reports(tmp_path):
    cfg = {
        "version": 1,
        "params": {"n": 2, "s": 0.75, "q": 2.0},
        "grid": {"L": 8.0, "N": 128},
        "measure": {
            "kind": "uniform_ball",
            "ball": {"center": [0.0, 0.0], "radius": 1.0},
            "amplitude": 1.0,
            "support_radius": 1.0,
        },
        "theta": 0.5,
        "tol": 1e-8,
        "max_iter": 200,
        "checks": ["weak", "representation", "sandwich", "decay", "positivity"],
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    blobs = []
    for tag, extra in (
        ("a", []),
        ("b", []),
        ("t1", ["--threads", "1"]),
        ("t4", ["--threads", "4"]),
    ):
        out = tmp_path / tag
        rc = main(
            extra
            + ["solve", "--config", str(cfg_path), "--out", str(out), "--auto-scale"]
        )
        assert rc == 0
        blobs.append((out / "report.json").read_bytes())
    ok = all(b == blobs[0] for b in blobs[1:])
    assert _verdict(
        11,
        ok,
        f"report.json byte-identical across 2 runs and --threads {{1, 4}}: "
        f"{ok} ({len(blobs[0])} bytes)",
    )
