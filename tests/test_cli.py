"""Command-line interface: configs, artifacts, exit codes, determinism."""

import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fracpot
from fracpot import riesz, solver
from fracpot.cli import load_config, load_scenario, main
from fracpot.io import read_field, write_field
from fracpot.riesz import available_cpus

REFERENCE_CONFIG = {
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
    "outputs": "out",
    "checks": ["weak", "representation", "sandwich", "decay", "positivity"],
}


def _write_config(path: Path, **overrides) -> Path:
    cfg = json.loads(json.dumps(REFERENCE_CONFIG))
    for key, val in overrides.items():
        if val is None:
            cfg.pop(key, None)
        else:
            cfg[key] = val
    path.write_text(json.dumps(cfg, indent=2))
    return path


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli_ref")
    cfg = _write_config(base / "run.json")
    out = base / "out"
    rc = main(["solve", "--config", str(cfg), "--out", str(out), "--auto-scale"])
    assert rc == 0
    return cfg, out


def test_constants_prints_ledger(capsys):
    rc = main(["constants", "--n", "2", "--s", "0.75", "--q", "2.0", "--theta", "0.5"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["contraction"] == pytest.approx(0.5, abs=1e-12)
    assert payload["a_limit"] == pytest.approx(2.5639164923300415, rel=1e-12)


def test_constants_theta_defaults_to_one_half(capsys):
    argv = ["constants", "--n", "2", "--s", "0.75", "--q", "2.0"]
    assert main(argv) == 0
    default = capsys.readouterr().out
    assert main([*argv, "--theta", "0.5"]) == 0
    assert capsys.readouterr().out == default


def test_constants_rejects_subcritical_exponent(capsys):
    rc = main(["constants", "--n", "2", "--s", "0.75", "--q", "1.2"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_constants_rejects_bad_theta(capsys):
    rc = main(["constants", "--n", "2", "--s", "0.75", "--q", "2.0", "--theta", "1.0"])
    assert rc == 1


def test_solve_writes_expected_artifacts(solved):
    _, out = solved
    for name in (
        "u.field",
        "u.field.json",
        "grad_u0.field",
        "grad_u1.field",
        "measure.json",
        "report.json",
        "run_meta.json",
    ):
        assert (out / name).exists()
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True
    assert report["iterations"] <= 60
    assert all(c["pass"] for c in report["checks"].values())
    # the persisted measure is the effective, rescaled one
    measure = json.loads((out / "measure.json").read_text())
    assert measure["amplitude"] == pytest.approx(report["scale_factor"], rel=1e-12)


def test_solve_is_byte_deterministic(solved, tmp_path):
    cfg, out = solved
    ref_bytes = (out / "report.json").read_bytes()
    for extra in ([], ["--threads", "1"], ["--threads", "4"]):
        rerun = tmp_path / f"again{len(extra)}"
        rc = main(
            extra
            + ["solve", "--config", str(cfg), "--out", str(rerun), "--auto-scale"]
        )
        assert rc == 0
        assert (rerun / "report.json").read_bytes() == ref_bytes
        assert (rerun / "u.field").read_bytes() == (out / "u.field").read_bytes()


def test_run_meta_records_fft_backend_and_workers(solved):
    _, out = solved
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["fft_backend"].startswith("numpy.fft")
    assert meta["fft_workers"] == available_cpus()
    # the most hats held at once: those of I_2s and of grad I_2s in the
    # Picard loop, each one real float64 octant of (N+1)^n values
    N = REFERENCE_CONFIG["grid"]["N"]
    assert meta["plan_cache_bytes"] == 2 * (N + 1) ** 2 * 8
    assert meta["peak_rss_mb"] > 0.0
    # the wall time of each Picard step, kept out of report.json
    report = json.loads((out / "report.json").read_text())
    steps = meta["picard_step_s"]
    assert len(steps) == report["iterations"] and all(t > 0.0 for t in steps)
    assert "picard_step_s" not in report


def test_cli_import_does_not_load_scipy(golden_run):
    # importing scipy costs about 0.3 s of each process's start-up, and
    # fracpot uses none of it: the interpreter that ran every command at the
    # golden sizes ends with no scipy module loaded
    assert golden_run[1] == []


def _count_calls(monkeypatch, *names):
    """Wrap each named fracpot (or fracpot.riesz) function wherever a fracpot module binds it."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(fracpot, name, None) or getattr(riesz, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] != "fracpot":
                continue
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


def test_solve_runs_each_check_once(tmp_path, monkeypatch):
    counts = _count_calls(
        monkeypatch,
        "weak_residual",
        "representation_residual",
        "sandwich_check",
        "wolff_ratio",
        "riesz_potential_measure",
        "_convolve",
    )
    cfg = _write_config(tmp_path / "run.json")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out), "--auto-scale"]) == 0
    # one weak check over the five default test functions, one of each other check.
    # The Wolff ratio is measured twice: by the scaling through wolff_ratio,
    # and by the guard through wolff_ratio_and_potential, which keeps its
    # I_{2s-1}(omega) for the gradient bound.  Those are the only
    # riesz_potential_measure calls, since I_2s(omega) and its gradient
    # share one transform.  Convolutions: two per Wolff ratio, one for u0
    # and its gradient, one per Picard step (6 here) and one for the
    # representation residual
    assert counts == {
        "weak_residual": 1,
        "representation_residual": 1,
        "sandwich_check": 1,
        "wolff_ratio": 1,
        "riesz_potential_measure": 2,
        "_convolve": 12,
    }
    report = json.loads((out / "report.json").read_text())
    for key in (
        "representation_residual",
        "sandwich_lower_ok",
        "sandwich_upper",
        "weak_residuals",
    ):
        assert key not in report
    # verify recomputes the checks on the stored fields through the same
    # path, from one I_2s(omega): that and the representation residual are
    # its two convolutions
    counts.update(dict.fromkeys(counts, 0))
    assert main(["verify", "--config", str(cfg), "--fields", str(out)]) == 0
    assert counts == {
        "weak_residual": 1,
        "representation_residual": 1,
        "sandwich_check": 1,
        "wolff_ratio": 0,
        "riesz_potential_measure": 1,
        "_convolve": 2,
    }
    verify = json.loads((out / "verify_report.json").read_text())
    assert report["checks"] == verify["checks"]


def test_solve_with_an_atomic_datum_writes_its_report(tmp_path):
    # weak residuals of an atomic datum are numpy floats; the pass flags
    # must still be plain JSON booleans
    cfg = _write_config(
        tmp_path / "atom.json",
        grid={"L": 8.0, "N": 64},
        measure={
            "kind": "atomic",
            "atoms": [{"x": [0.0, 0.0], "w": 0.001}],
            "support_radius": 0.5,
        },
        checks=["weak", "sandwich"],
    )
    out = tmp_path / "out"
    main(["solve", "--config", str(cfg), "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    assert isinstance(report["checks"]["weak"]["pass"], bool)
    assert report["checks"]["sandwich"]["pass"] is True


def test_threads_below_one_is_a_config_error(capsys):
    # exit 1 (validation), not argparse's 2, which means "inadmissible" here
    rc = main(["--threads", "0", "constants", "--n", "2", "--s", "0.75", "--q", "2"])
    assert rc == 1
    assert "worker count" in capsys.readouterr().err


_CAPACITY = ["capacity", "--alpha", "0.5", "--p", "2", "--N", "16"]


@pytest.mark.parametrize(
    "argv, code",
    [
        (["capacity", "--alpha", "abc", "--p", "2", "--ball", "0,0,1"], 1),
        (["solve"], 1),
        (["frobnicate"], 1),
        ([], 1),
        (["--threads", "two", "constants", "--n", "2", "--s", "0.75", "--q", "2"], 1),
        ([*_CAPACITY, "--ball", "0,0,x"], 1),
        ([*_CAPACITY, "--sweep", "a,b"], 1),
        (_CAPACITY, 1),
        ([*_CAPACITY, "--ball", "0,0,1", "--sweep", "0.5,1"], 1),
        (["constants", "--n", "2", "--s", "0.75", "--q", "1.2"], 1),
        (["--threads", "0", "constants", "--n", "2", "--s", "0.75", "--q", "2"], 1),
        (["constants", "--n", "2", "--s", "0.75", "--q", "nan"], 1),
        (["constants", "--n", "2", "--s", "0.75", "--q", "inf"], 1),
        (["constants", "--n", "2", "--s", "nan", "--q", "2"], 1),
        (["constants", "--n", "2", "--s", "0.75", "--q", "2", "--theta", "-inf"], 1),
        (["constants", "--n", "400", "--s", "0.75", "--q", "2"], 1),
        ([*_CAPACITY, "--ball", "0,0,inf"], 1),
        ([*_CAPACITY, "--ball", "0,nan,1"], 1),
        ([*_CAPACITY, "--L", "inf", "--ball", "0,0,1"], 1),
        ([*_CAPACITY, "--sweep", "1,inf"], 1),
        ([*_CAPACITY, "--sweep", "1,-1"], 1),
        ([*_CAPACITY, "--sweep", "0,1"], 1),
        ([*_CAPACITY, "--sweep", "1,1e308"], 1),
        ([*_CAPACITY, "--ball", "0,0,1", "--L", "0.5"], 1),
        (["capacity", "--alpha", "nan", "--p", "2", "--ball", "0,0,1"], 1),
        (["capacity", "--alpha", "0.5", "--p", "1e400", "--ball", "0,0,1"], 1),
        ([*_CAPACITY, "--ball", "0,0,1e308"], 1),
        ([*_CAPACITY, "--L", "1e300", "--ball", "0,0,1"], 1),
        (["constants", "--n", "2", "--s", "0.75", "--q", "1e308"], 1),
        (["constants", "--n", "2", "--s", "0.75", "--q", "1e5"], 1),
        (["solve", "--config", "{huge_q}", "--out", "{tmp}/o"], 1),
        ([*_CAPACITY, "--p", "1e300", "--ball", "0,0,1"], 1),
        ([*_CAPACITY, "--p", "1e300", "--mask-file", "{cells}"], 1),
        ([*_CAPACITY, "--p", "1e300", "--L", "64", "--mask-file", "{cells}"], 1),
        ([*_CAPACITY, "--p", "1e6", "--L", "8", "--mask-file", "{cells}"], 1),
        ([*_CAPACITY, "--p", "1e300", "--L", "8", "--ball", "0,0,1"], 1),
        ([*_CAPACITY, "--ball", "1e200,0,1"], 1),
        ([*_CAPACITY, "--mask-file", "{far_ball}"], 1),
        (["wolff", "--config", "{cfg}", "--theta", "5"], 1),
        (["solve", "--config", "{coarse}", "--out", "{tmp}/o", "--auto-scale"], 1),
        (["wolff", "--config", "{coarse}"], 1),
        (["solve", "--config", "{raw}", "--out", "{tmp}/o"], 2),
        (["wolff", "--config", "{tmp}/missing.json"], 4),
        (["verify", "--config", "{cfg}", "--fields", "{truncated}"], 5),
    ],
    ids=["bad-float", "no-config", "unknown-command", "no-command", "bad-int", "ball-not-numbers",
         "sweep-not-numbers", "no-target", "two-targets", "subcritical-q", "no-threads",
         "q-nan", "q-inf", "s-nan", "theta-minus-inf", "constant-overflows", "ball-radius-inf",
         "ball-centre-nan", "L-inf", "sweep-inf", "sweep-radius-negative", "sweep-radius-zero",
         "sweep-box-overflows", "ball-sticks-out-of-box", "alpha-nan", "p-overflows-to-inf",
         "ball-bound-overflows", "L-squared-overflows", "q-1e308-ledger-overflows",
         "q-1e5-ledger-overflows", "solve-q-1e5-ledger-overflows", "p-scale-overflows",
         "mask-p-scale-overflows", "mask-p-scale-underflows", "mask-p-estimate-overflows",
         "ball-p-bound-before-estimate", "ball-centre-far-away", "mask-ball-centre-far-away",
         "wolff-theta-without-auto-scale", "solve-ball-between-cell-centers",
         "wolff-ball-between-cell-centers", "inadmissible",
         "missing-config", "truncated-field"],
)
def test_refused_input_exits_with_its_code_and_one_error_line(solved, tmp_path, capsys,
                                                               argv, code):
    # usage errors included: argparse's own exit 2 is the code of a datum
    # that is not admissible.  No refusal prints a traceback or a usage text
    cfg, out = solved
    truncated = tmp_path / "truncated"
    truncated.mkdir()
    for path in out.glob("*.field*"):
        (truncated / path.name).write_bytes(path.read_bytes())
    (truncated / "u.field").write_bytes((out / "u.field").read_bytes()[:1001])
    raw = _write_config(tmp_path / "raw.json")
    huge_q = _write_config(tmp_path / "huge_q.json",
                           params={**REFERENCE_CONFIG["params"], "q": 1e5})
    cells = tmp_path / "cells.json"
    cells.write_text("[[8, 8], [8, 9]]")
    far_ball = tmp_path / "far_ball.json"
    far_ball.write_text('{"ball": {"center": [1e200, 0], "radius": 1}}')
    coarse = _write_config(tmp_path / "coarse.json", grid={"L": 8.0, "N": 8})
    argv = [a.format(cfg=cfg, raw=raw, tmp=tmp_path, truncated=truncated, huge_q=huge_q,
                     cells=cells, far_ball=far_ball, coarse=coarse) for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "option, argv",
    [
        ("--q", ["constants", "--n", "2", "--s", "0.75", "--q", "nan"]),
        ("--theta", ["constants", "--n", "2", "--s", "0.75", "--q", "2", "--theta", "inf"]),
        ("--L", [*_CAPACITY, "--L", "inf", "--ball", "0,0,1"]),
        ("--ball", [*_CAPACITY, "--ball", "0,0,inf"]),
        ("--sweep", [*_CAPACITY, "--sweep", "1,inf"]),
    ],
)
def test_a_non_finite_number_is_refused_naming_its_option(capsys, option, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: argument {option}: ") and "finite" in err


def test_solve_without_scaling_is_inadmissible(tmp_path, capsys):
    cfg = _write_config(tmp_path / "raw.json")
    rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_solve_unwritable_output_is_io_error(solved, tmp_path):
    cfg, _ = solved
    blocker = tmp_path / "blocker"
    blocker.write_text("plain file, not a directory")
    rc = main(
        ["solve", "--config", str(cfg), "--out", str(blocker / "sub"), "--auto-scale"]
    )
    assert rc == 4


def test_config_rejects_unknown_keys(tmp_path):
    cfg = _write_config(tmp_path / "bad.json", typo_key=1)
    assert main(["solve", "--config", str(cfg), "--auto-scale"]) == 1


def test_config_rejects_unknown_version(tmp_path):
    cfg = _write_config(tmp_path / "bad.json", version=2)
    assert main(["solve", "--config", str(cfg), "--auto-scale"]) == 1


def test_config_rejects_non_power_of_two_grid(tmp_path):
    cfg = _write_config(tmp_path / "bad.json", grid={"L": 8.0, "N": 100})
    assert main(["solve", "--config", str(cfg), "--auto-scale"]) == 1


def test_config_rejects_unknown_check_name(tmp_path):
    cfg = _write_config(tmp_path / "bad.json", checks=["weak", "vibes"])
    assert main(["solve", "--config", str(cfg), "--auto-scale"]) == 1


@pytest.mark.parametrize(
    "measure",
    [
        {"kind": "uniform_ball", "ball": {"center": [0.0, 0.0, 0.0], "radius": 1.0}},
        {"kind": "atomic", "atoms": [{"x": [0.0, 0.0, 0.0], "w": 1.0}]},
        {"kind": "atomic", "atoms": [{"x": [0.5], "w": 1.0}]},
    ],
)
def test_config_rejects_measure_of_another_dimension(tmp_path, capsys, measure):
    # params.n is 2: a third coordinate must not be dropped silently, and a
    # missing one must not reach the grid
    cfg = _write_config(tmp_path / "bad.json", measure=measure)
    assert main(["wolff", "--config", str(cfg)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "atoms",
    [
        5,
        [{"x": [0.0, 0.0]}],
        [{"w": 1.0}],
        [{"x": [0.0, 0.0], "w": 1.0}, {"x": [0.5], "w": 1.0}],
        [{"x": 0.5, "w": 1.0}],
        [{"x": ["0", "0"], "w": 1.0}],
        [{"x": [0.0, 0.0], "w": "0.001"}],
    ],
    ids=["not-a-list", "no-weight", "no-coordinates", "ragged", "scalar-coordinates",
         "string-coordinates", "string-weight"],
)
def test_config_rejects_malformed_atoms(tmp_path, capsys, atoms):
    measure = {"kind": "atomic", "atoms": atoms, "support_radius": 1.0}
    cfg = _write_config(tmp_path / "bad.json", measure=measure)
    assert main(["wolff", "--config", str(cfg)]) == 1
    assert "error:" in capsys.readouterr().err


def test_config_loader_round_trip(tmp_path):
    cfg = _write_config(tmp_path / "ok.json")
    loaded = load_config(cfg)
    assert loaded["grid"]["N"] == 128


def test_scenario_defaults_and_theta_override(tmp_path):
    cfg = _write_config(
        tmp_path / "ok.json", theta=None, tol=None, max_iter=None, outputs=None, checks=None
    )
    sc = load_scenario(cfg)
    assert (sc.theta, sc.tol, sc.max_iter, sc.outputs) == (0.5, 1e-8, 200, "out")
    assert sorted(sc.checks) == sorted(REFERENCE_CONFIG["checks"])
    assert (sc.grid.n, sc.grid.L, sc.grid.N) == (2, 8.0, 128)
    assert sc.config == load_config(cfg)
    assert load_scenario(cfg, theta=0.25).theta == 0.25


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"params": 5}, "params"),
        ({"grid": 7}, "grid"),
        ({"checks": 3}, "checks"),
        ({"checks": [["weak"]]}, "check"),
        ({"tol": [1]}, "tol"),
        ({"theta": "0.5"}, "theta"),
        ({"max_iter": 200.5}, "max_iter"),
        ({"outputs": 5}, "outputs"),
        ({"params": {"n": 2.5, "s": 0.75, "q": 2.0}}, "params.n"),
        ({"grid": {"L": 8.0, "N": 128.0}}, "grid.N"),
        ({"measure": {"kind": "atomic", "atoms": [{"x": [0.0, 0.0], "w": 1.0}],
                      "support_radius": "0.5"}}, "support_radius"),
        ({"measure": {"kind": "uniform_ball", "ball": {"center": [0.0, 0.0], "radius": "1"}}},
         "ball.radius"),
        ({"measure": {"kind": "uniform_ball", "ball": {"center": [0.0, 0.0], "radius": 1.0},
                      "amplitude": True}}, "amplitude"),
        # json.loads reads NaN and Infinity; no float key takes them
        ({"measure": {"kind": "uniform_ball", "ball": {"center": [0.0, 0.0],
                                                        "radius": float("nan")}}},
         "ball.radius"),
        ({"measure": {"kind": "uniform_ball", "ball": {"center": [0.0, 0.0], "radius": 1.0},
                      "amplitude": float("nan")}}, "amplitude"),
        ({"measure": {"kind": "atomic", "atoms": [{"x": [float("-inf"), 0.0], "w": 1.0}]}},
         "x[0]"),
        ({"theta": float("nan")}, "theta"),
        ({"tol": float("inf")}, "tol"),
        # not a type error, but the same silent acceptance: a declared support
        # radius that does not contain the ball
        ({"measure": {"kind": "uniform_ball", "ball": {"center": [0.0, 0.0], "radius": 1.0},
                      "support_radius": 0.1}}, "support ball"),
    ],
    ids=lambda v: json.dumps(v) if isinstance(v, dict) else v,
)
def test_config_value_of_the_wrong_type_is_a_config_error(tmp_path, capsys, overrides, key):
    # refused with an error line, neither a traceback nor a truncated value
    cfg = _write_config(tmp_path / "bad.json", **overrides)
    assert main(["wolff", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err


@pytest.mark.parametrize(
    "overrides, message",
    [({"tol": -1e-8}, "config.tol must be at least 0"),
     ({"max_iter": 0}, "config.max_iter must be at least 1")],
    ids=["negative-tol", "no-iterations"],
)
def test_config_refuses_a_solve_that_cannot_converge(tmp_path, capsys, overrides, message):
    # refused before any work, not run to max_iter or to zero iterations and
    # then reported unconverged
    cfg = _write_config(tmp_path / "bad.json", grid={"L": 8.0, "N": 64}, **overrides)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out), "--auto-scale"]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def _scripted_solve(tmp_path, monkeypatch, increments, max_iter):
    """solve --auto-scale on N=32 with no checks, each Picard step reporting the next increment."""
    script = iter(increments)
    monkeypatch.setattr(solver, "_picard_step", lambda *args: (next(script), 1.0, 1.0))
    cfg = _write_config(tmp_path / "run.json", grid={"L": 8.0, "N": 32}, max_iter=max_iter,
                        checks=[])
    out = tmp_path / "out"
    return main(["solve", "--config", str(cfg), "--out", str(out), "--auto-scale"]), out


def test_solve_that_diverges_exits_3_with_one_error_line(tmp_path, monkeypatch, capsys):
    rc, out = _scripted_solve(tmp_path, monkeypatch, [2.0**k for k in range(10)], 200)
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: increment ratio above 1 for 5 consecutive steps\n"
    assert not (out / "report.json").exists()


def test_solve_that_exhausts_its_budget_exits_1_and_writes_its_report(tmp_path, monkeypatch,
                                                                      capsys):
    rc, out = _scripted_solve(tmp_path, monkeypatch, [1.0, 0.5, 0.25, 0.125], 3)
    assert rc == 1
    assert capsys.readouterr().out.startswith("converged=False iterations=3\n")
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is False and report["iterations"] == 3
    assert report["sup_increment"] == [1.0, 0.5, 0.25]
    assert (out / "u.field").exists() and (out / "measure.json").exists()


def test_config_tol_zero_still_converges(tmp_path, capsys):
    # the increments reach exactly zero; the exit code is the checks', which
    # the N=64 grid is too coarse to pass
    cfg = _write_config(tmp_path / "run.json", grid={"L": 8.0, "N": 64}, tol=0.0)
    out = tmp_path / "out"
    main(["solve", "--config", str(cfg), "--out", str(out), "--auto-scale"])
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True and report["iterations"] == 24


def test_verify_passes_after_solve(solved, capsys):
    cfg, out = solved
    rc = main(["verify", "--config", str(cfg), "--fields", str(out)])
    assert rc == 0
    assert "pass" in capsys.readouterr().out
    verify = json.loads((out / "verify_report.json").read_text())
    assert verify["all_pass"] is True


def test_verify_rejects_wrong_field(solved, tmp_path):
    # substituting the bare potential I_2s(omega) for u breaks the
    # representation identity by the gradient term
    cfg, out = solved
    import numpy as _np

    from fracpot import Measure, riesz_potential_measure
    from fracpot.io import read_measure

    forged = tmp_path / "forged"
    forged.mkdir()
    for name in ("grad_u0.field", "grad_u1.field", "measure.json"):
        (forged / name).write_bytes((out / name).read_bytes())
        side = out / f"{name}.json"
        if side.exists():
            (forged / f"{name}.json").write_bytes(side.read_bytes())
    u = read_field(out / "u.field")
    omega = read_measure(out / "measure.json")
    u0 = riesz_potential_measure(omega, 1.5, u.grid)
    write_field(u0, forged / "u.field")
    rc = main(["verify", "--config", str(cfg), "--fields", str(forged)])
    assert rc == 1


def test_verify_grid_mismatch(solved, tmp_path):
    cfg, out = solved
    other = _write_config(tmp_path / "other.json", grid={"L": 8.0, "N": 64})
    rc = main(["verify", "--config", str(other), "--fields", str(out)])
    assert rc == 5


@pytest.mark.parametrize(
    "ball",
    [
        {"center": [0.0, 0.0, 0.0], "radius": 1.0},  # 3-D centre, 2-D run
        {"center": [0.0, 0.0], "radius": 3.0},  # support radius above L / 4
    ],
)
def test_verify_and_diagnostics_check_the_stored_measure(solved, tmp_path, capsys, ball):
    cfg, out = solved
    fields = tmp_path / "fields"
    fields.mkdir()
    for path in out.glob("*.field*"):
        (fields / path.name).write_bytes(path.read_bytes())
    spec = {"kind": "uniform_ball", "ball": ball, "amplitude": 0.03}
    (fields / "measure.json").write_text(json.dumps(spec))
    for command in ("verify", "diagnostics"):
        rc = main([command, "--config", str(cfg), "--fields", str(fields)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
    assert not (fields / "verify_report.json").exists()
    assert not (fields / "diagnostics.json").exists()


def test_verify_rejects_a_stored_atom_without_a_weight(solved, tmp_path, capsys):
    cfg, out = solved
    fields = tmp_path / "fields"
    fields.mkdir()
    for path in out.glob("*.field*"):
        (fields / path.name).write_bytes(path.read_bytes())
    spec = {"kind": "atomic", "atoms": [{"x": [0.0, 0.0]}], "support_radius": 1.0}
    (fields / "measure.json").write_text(json.dumps(spec))
    assert main(["verify", "--config", str(cfg), "--fields", str(fields)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (fields / "verify_report.json").exists()


@pytest.mark.parametrize(
    "name, content, code",
    [
        ("measure.json", {"kind": "uniform_ball", "ball": {"center": [0.0, 0.0], "radius": 1.0},
                          "amplitude": "0.001", "support_radius": 1.0}, 1),
        ("u.field.json", {"n": 2, "N": "128", "L": 8.0}, 5),
        ("u.field.json", {"n": 2.0, "N": 128, "L": 8.0}, 5),
        ("u.field.json", {"n": 2, "N": 128, "L": "8"}, 5),
        ("u.field.json", 5, 5),
        ("u.field.json", {"n": 2, "N": 1, "L": 8.0}, 5),
        ("u.field.json", {"n": 2, "N": 128, "L": -8.0}, 5),
        ("u.field.json", {"n": 0, "N": 128, "L": 8.0}, 5),
        ("u.field.json", '{"n": 2, "N": 128', 5),
        ("measure.json", {"kind": "uniform_ball", "ball": {"center": [0.0, 0.0], "radius": 1.0},
                          "amplitude": float("nan"), "support_radius": 1.0}, 1),
        ("u.field.json", {"n": 2, "N": 128, "L": float("inf")}, 5),
        ("u.field.json", {"n": 2, "N": 128, "L": float("nan")}, 5),
        ("u.field", bytes(1000), 5),
        ("u.field", bytes(1001), 5),
    ],
    ids=["string-amplitude", "string-N", "float-n", "string-L", "bare-number",
         "one-cell", "negative-L", "zero-n", "not-json", "nan-amplitude", "infinite-L",
         "nan-L", "short-field", "truncated-field"],
)
def test_verify_rejects_a_malformed_stored_input(solved, tmp_path, capsys, name, content, code):
    # neither parsed from a string, truncated, nor a traceback; a bad
    # sidecar, impossible grids and text that is not JSON included, is
    # named in the message.  A str content is the file's text as it stands,
    # a bytes content its bytes: a field file whose size does not match its
    # sidecar, a multiple of 8 bytes or not
    cfg, out = solved
    fields = tmp_path / "fields"
    fields.mkdir()
    for path in out.glob("*.field*"):
        (fields / path.name).write_bytes(path.read_bytes())
    (fields / "measure.json").write_bytes((out / "measure.json").read_bytes())
    if isinstance(content, bytes):
        (fields / name).write_bytes(content)
    else:
        (fields / name).write_text(content if isinstance(content, str) else json.dumps(content))
    assert main(["verify", "--config", str(cfg), "--fields", str(fields)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert code != 5 or str(fields / name) in err
    assert not (fields / "verify_report.json").exists()


_DENSITY = {"kind": "density", "density_file": "omega.density.field", "support_radius": 1.0}


@pytest.mark.parametrize(
    "missing, measure",
    [("grad_u1.field", None), ("u.field.json", None), ("omega.density.field.json", _DENSITY)],
    ids=["field", "sidecar", "density-file"],
)
def test_verify_a_missing_stored_input_is_an_io_error(solved, tmp_path, capsys, missing, measure):
    # exit 4, the code of a missing config, and the message names the file;
    # a measure of None is the stored measure.json
    cfg, out = solved
    fields = tmp_path / "fields"
    fields.mkdir()
    for path in out.glob("*.field*"):
        if path.name != missing:
            (fields / path.name).write_bytes(path.read_bytes())
    stored = (out / "measure.json").read_text()
    (fields / "measure.json").write_text(stored if measure is None else json.dumps(measure))
    assert main(["verify", "--config", str(cfg), "--fields", str(fields)]) == 4
    assert str(fields / missing) in capsys.readouterr().err
    assert not (fields / "verify_report.json").exists()


def test_diagnostics_writes_report(solved):
    cfg, out = solved
    rc = main(["diagnostics", "--config", str(cfg), "--fields", str(out)])
    assert rc == 0
    report = json.loads((out / "diagnostics.json").read_text())
    assert report["marcinkiewicz"]["u"] > 0.0
    assert report["positivity"]["lower_bound_ok"] is True
    assert (out / "annulus.csv").read_text().startswith("radius,u")


def test_annulus_csv_has_the_bytes_of_per_row_formatting(tmp_path):
    # off-centre, so that cells at one radius carry different values of u
    cfg = _write_config(tmp_path / "run.json", grid={"L": 8.0, "N": 32}, measure={
        "kind": "uniform_ball", "ball": {"center": [0.3, -0.2], "radius": 1.0},
        "support_radius": 1.5})
    out = tmp_path / "out"
    main(["solve", "--config", str(cfg), "--out", str(out), "--auto-scale"])
    assert main(["diagnostics", "--config", str(cfg), "--fields", str(out)]) == 0
    u = read_field(out / "u.field")
    radii = u.grid.radii()
    ring = (radii >= 0.6 * u.grid.L) & (radii <= 0.8 * u.grid.L)
    rows = zip(radii[ring].tolist(), u.values[ring].tolist())
    expected = "\n".join(["radius,u"] + [f"{r},{v}" for r, v in rows]) + "\n"
    assert (out / "annulus.csv").read_text() == expected


def test_wolff_reports_pinned_ratio(solved, capsys):
    cfg, _ = solved
    rc = main(["wolff", "--config", str(cfg)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["c1_hat"] == pytest.approx(0.8799748840027056, rel=1e-10)
    # reported theta is the measured ratio c1_hat / threshold; above one
    # means inadmissible as given
    assert payload["theta"] > 1.0
    assert payload["scale_factor"] == 1.0


def test_wolff_auto_scale_reports_scale(solved, capsys):
    cfg, _ = solved
    rc = main(["wolff", "--config", str(cfg), "--auto-scale"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["scale_factor"] == pytest.approx(0.029659962705194446, rel=1e-10)


@pytest.mark.parametrize(
    "argv, written",
    [
        (["solve", "--config", "{cfg}", "--auto-scale"], "report.json"),
        (["verify", "--config", "{cfg}", "--fields", "{fields}"], "verify_report.json"),
        (["diagnostics", "--config", "{cfg}", "--fields", "{fields}"], "diagnostics.json"),
        (["capacity", "--alpha", "0.5", "--p", "2.0", "--N", "16", "--ball", "0,0,1"],
         "capacity.json"),
        (["capacity", "--alpha", "0.5", "--p", "2.0", "--N", "16", "--sweep", "0.5,1"],
         "capacity_sweep.csv"),
    ],
    ids=["solve", "verify", "diagnostics", "capacity-ball", "capacity-sweep"],
)
def test_every_out_option_writes_into_its_directory(solved, tmp_path, capsys, argv, written):
    cfg, fields = solved
    out = tmp_path / "elsewhere"
    argv = [a.format(cfg=cfg, fields=fields) for a in argv] + ["--out", str(out)]
    assert main(argv) == 0
    assert (out / written).exists()
    if written == "capacity.json":
        # the file holds the payload the command prints
        printed = capsys.readouterr().out
        assert (out / written).read_text() == printed


def test_capacity_ball_payload(capsys):
    rc = main(
        ["capacity", "--alpha", "0.5", "--p", "2.0", "--ball", "0,0,1",
         "--L", "4.0", "--N", "64"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] <= payload["analytic_ball_bound"]
    assert payload["feasibility_gap"] <= 1e-6
    assert payload["lower_bound"] <= payload["value"] <= payload["upper_bound"]


def test_capacity_requires_a_target(capsys):
    rc = main(["capacity", "--alpha", "0.5", "--p", "2.0"])
    assert rc == 1


@pytest.mark.parametrize(
    "extra",
    [
        ["--sweep", "0.5,1", "--L", "4"],
        ["--sweep", "0.5,1", "--ball", "0,0,1"],
        ["--sweep", "0.5,1", "--mask-file", "mask.json"],
        ["--ball", "0,0,1", "--mask-file", "mask.json"],
    ],
    ids=["sweep-L", "sweep-ball", "sweep-mask", "ball-mask"],
)
def test_capacity_rejects_options_its_target_would_ignore(capsys, extra):
    rc = main(["capacity", "--alpha", "0.5", "--p", "2.0", "--N", "16", *extra])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # refused before any estimate ran
    assert "error:" in captured.err


def test_capacity_rejects_malformed_ball(capsys):
    rc = main(["capacity", "--alpha", "0.5", "--p", "2.0", "--ball", "1.0"])
    assert rc == 1


@pytest.mark.parametrize("ball", ["0,1", "0,0,0,1", "0,0,x"])
def test_capacity_ball_needs_n_coordinates_and_a_radius(capsys, ball):
    rc = main(["capacity", "--alpha", "0.5", "--p", "2.0", "--N", "16", "--ball", ball])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec", [[[7, 7], [7, 8], [8, 7], [8, 8]], {"ball": {"center": [0, 0], "radius": 1}}]
)
def test_capacity_mask_file_payload(tmp_path, capsys, spec):
    mask = tmp_path / "mask.json"
    mask.write_text(json.dumps(spec))
    rc = main(
        ["capacity", "--alpha", "0.5", "--p", "2.0", "--N", "16", "--mask-file", str(mask)]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lower_bound"] <= payload["value"] <= payload["upper_bound"]


@pytest.mark.parametrize(
    "spec",
    [
        {"ball": {"radius": 1}},
        {"ball": {"center": [0, 0]}},
        {"ball": [0, 0, 1]},
        {"ball": {"center": ["0", "0"], "radius": 1}},
        {"ball": {"center": [True, 0], "radius": 1}},
        {"ball": {"center": [0, 0], "radius": 1, "weight": 2}},
        {"ball": {"center": [0, 0], "radius": 1}, "cells": []},
        {"ball": {"center": [0, 0], "radius": float("nan")}},
        {"ball": {"center": [float("inf"), 0], "radius": 1}},
    ],
)
def test_capacity_mask_file_ball_needs_a_center_and_a_radius(tmp_path, capsys, spec):
    mask = tmp_path / "mask.json"
    mask.write_text(json.dumps(spec))
    rc = main(
        ["capacity", "--alpha", "0.5", "--p", "2.0", "--N", "16", "--mask-file", str(mask)]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("p", ["1", "0.5", "-2"])
@pytest.mark.parametrize("target", [["--ball", "0,0,1"], ["--mask-file", "mask.json"],
                                    ["--sweep", "0.5,1"]], ids=["ball", "mask", "sweep"])
def test_capacity_refuses_an_exponent_outside_one_to_infinity(tmp_path, capsys, p, target):
    (tmp_path / "mask.json").write_text('{"ball": {"center": [0, 0], "radius": 1}}')
    target = [str(tmp_path / t) if t == "mask.json" else t for t in target]
    rc = main(["capacity", "--alpha", "0.5", f"--p={p}", "--N", "16", *target])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: capacity exponent p must satisfy 1 < p < inf, got p={float(p)}\n"


@pytest.mark.parametrize("radii", ["1", "1,1.0"])
def test_capacity_sweep_needs_two_distinct_radii(capsys, radii):
    rc = main(["capacity", "--alpha", "0.5", "--p", "2.0", "--N", "16", "--sweep", radii])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # refused before any estimate ran
    assert "two distinct radii" in captured.err


@pytest.mark.parametrize("cell", [[-1, -1], [16, 0], [True, 2]])
def test_capacity_mask_cells_must_lie_on_the_grid(tmp_path, capsys, cell):
    # neither wrapped around (-1 is not cell 15), out of range, nor a bool
    # read as an index
    mask = tmp_path / "mask.json"
    mask.write_text(json.dumps([cell]))
    rc = main(
        ["capacity", "--alpha", "0.5", "--p", "2.0", "--N", "16", "--mask-file", str(mask)]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [("[[1, 2], [3]]", "mask entries must be 2 integers in [0, 16)"),
     ("[[7, 7],", "error: {mask} is not valid JSON")],
    ids=["ragged", "not-json"],
)
def test_capacity_mask_file_error_says_what_is_wrong(tmp_path, capsys, text, message):
    mask = tmp_path / "mask.json"
    mask.write_text(text)
    rc = main(
        ["capacity", "--alpha", "0.5", "--p", "2.0", "--N", "16", "--mask-file", str(mask)]
    )
    assert rc == 1
    assert message.format(mask=mask) in capsys.readouterr().err
