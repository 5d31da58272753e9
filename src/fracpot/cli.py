"""Command-line scenario runner.

Subcommands: constants, solve, capacity, wolff, verify, diagnostics.
load_scenario reads a JSON config (mandatory "version") once into a frozen
Scenario, rejecting unknown keys and values of the wrong JSON type, so a
misspelled or mistyped option fails loudly instead of silently using a
default or a truncated value.  verify and diagnostics read a stored solution
through _load_solution; each option shared by subcommands is declared once.
Exit codes are part of the interface: 0 success, 1 refused input (usage
errors included) or a failed check, 2 inadmissible measure, 3 diverged
iteration, 4 I/O trouble, 5 metadata mismatch between stored fields and the
config.  Only fracpot's own errors and OSError are turned into an exit code;
any other exception is a bug and keeps its traceback.
"""

from __future__ import annotations

import argparse
import datetime
import math
import resource
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .capacity import (
    estimate_ball_capacity,
    estimate_capacity,
    scale_measure_admissible,
    wolff_ratio,
)
from .core import Grid, GridField, Measure, Parameters, VectorGridField, check_box
from .diagnostics import DECAY_RING, diagnostics_report
from .errors import (
    ConfigError,
    Diverged,
    FracpotError,
    GridMismatch,
    NotAdmissible,
)
from .io import (
    dump_report,
    json_text,
    measure_from_dict,
    read_field,
    read_json,
    read_measure,
    read_object,
    write_field,
    write_measure,
)
from .riesz import (
    FFT_BACKEND,
    available_cpus,
    clear_plan_cache,
    fft_worker_count,
    fft_workers,
    plan_cache_peak_bytes,
    riesz_potential_measure,
)
from .solver import CHECK_NAMES, constants_ledger, picard_solve, run_checks

# a config as io.read_object reads it; the measure has a schema per kind
_CONFIG = {
    "version": int,
    "params": {"n": int, "s": float, "q": float},
    "grid": {"L": float, "N": int},
    "measure": dict,
    "theta": (float, 0.5),
    "tol": (float, 1e-8),
    "max_iter": (int, 200),
    "outputs": (str, "out"),
    "checks": (list, sorted(CHECK_NAMES)),
}
_MASK_BALL = {"ball": {"center": [float], "radius": float}}
# exit code per error; the first match wins.  Besides a refused input, exit 1
# is a computation that failed its own test (NotConverged, AnnulusEmpty)
_EXIT_CODES = ((NotAdmissible, 2), (Diverged, 3), (GridMismatch, 5), (OSError, 4),
               (ConfigError, 1), (FracpotError, 1))


def _read_config(path: Path | str) -> tuple[dict, dict]:
    """A config file's JSON object as written, and as read against _CONFIG."""
    raw = read_json(path)
    config = read_object(raw, _CONFIG, "config")
    if config["version"] != 1:
        raise ConfigError("config version must be 1")
    return raw, config


def load_config(path: Path | str) -> dict:
    """The JSON object of a config file, checked against the config schema."""
    return _read_config(path)[0]


@dataclass(frozen=True)
class Scenario:
    """A validated config: all that solve, wolff, verify and diagnostics read of it."""

    params: Parameters
    grid: Grid
    measure: Measure
    theta: float
    tol: float
    max_iter: int
    outputs: str
    checks: tuple[str, ...]
    config: dict  # as read, for report.json's config_echo


def load_scenario(path: Path | str, theta: float | None = None) -> Scenario:
    """Read and validate a config once; theta, if given, overrides the config's."""
    raw, c = _read_config(path)
    params = Parameters(**c["params"])
    N = c["grid"]["N"]
    if N <= 0 or N & (N - 1) != 0:
        raise ConfigError(f"N={N} is not a power of two")
    if c["tol"] < 0.0:
        raise ConfigError(f"config.tol must be at least 0, not {c['tol']}")
    if c["max_iter"] < 1:
        raise ConfigError(f"config.max_iter must be at least 1, not {c['max_iter']}")
    grid = Grid(n=params.n, **c["grid"])
    measure = measure_from_dict(c["measure"], base_dir=Path(path).parent)
    _check_measure(measure, params, grid)
    for name in c["checks"]:
        if not isinstance(name, str) or name not in CHECK_NAMES:
            raise ConfigError(f"unknown check {name!r}")
    return Scenario(params, grid, measure, c["theta"] if theta is None else theta, c["tol"],
                    c["max_iter"], c["outputs"], tuple(c["checks"]), config=raw)


def _check_measure(measure: Measure, params: Parameters, grid: Grid) -> None:
    """Reject a measure of another dimension than params.n or too wide for the box."""
    if measure.dimension != params.n:
        raise ConfigError(f"measure is {measure.dimension}-dimensional, params.n is {params.n}")
    check_box(measure, grid)


def _load_solution(args) -> tuple[Scenario, GridField, VectorGridField, Measure]:
    """The scenario, the stored u and grad u, and the measure they solve.

    That is the measure.json beside the fields, else the config's, checked as the config's is.
    """
    sc = load_scenario(args.config)
    fields_dir = Path(args.fields)

    def read(name: str) -> GridField:
        f = read_field(fields_dir / f"{name}.field")
        if f.grid != sc.grid:
            raise GridMismatch(f"stored {name} is on {f.grid}, the config on {sc.grid}")
        return f

    u = read("u")
    grad = VectorGridField(sc.grid, tuple(read(f"grad_u{i}") for i in range(sc.grid.n)))
    stored = fields_dir / "measure.json"
    omega = read_measure(stored) if stored.exists() else sc.measure
    _check_measure(omega, sc.params, sc.grid)
    return sc, u, grad, omega


def _outdir(path: Path | str) -> Path:
    outdir = Path(path)
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def _write_run_meta(outdir: Path, args_threads: int | None,
                    picard_step_s: list | None = None) -> None:
    meta = {
        "package_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "threads_requested": args_threads,
        "fft_backend": FFT_BACKEND,
        "fft_workers": fft_worker_count(),
        "plan_cache_bytes": plan_cache_peak_bytes(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if picard_step_s is not None:
        meta["picard_step_s"] = picard_step_s
    dump_report(meta, outdir / "run_meta.json")


def cmd_constants(args) -> int:
    params = Parameters(n=args.n, s=args.s, q=args.q)
    theta = _CONFIG["theta"][1] if args.theta is None else args.theta
    print(json_text(asdict(constants_ledger(params, theta))), end="")
    return 0


def cmd_solve(args) -> int:
    sc = load_scenario(args.config, args.theta)
    outdir = _outdir(args.out or sc.outputs)
    omega, scale_factor = sc.measure, 1.0
    if args.auto_scale:
        scale_factor, _ = scale_measure_admissible(omega, sc.theta, sc.params, sc.grid)
        omega = omega.scaled(scale_factor)
    u, grad, report = picard_solve(omega, sc.params, sc.grid, theta=sc.theta, tol=sc.tol,
                                   max_iter=sc.max_iter, checks=sc.checks)

    write_field(u, outdir / "u.field")
    for i, comp in enumerate(grad.components):
        write_field(comp, outdir / f"grad_u{i}.field")
    # the fields solve the effective (possibly rescaled) measure; persist it
    # so verify and diagnostics check against the actual datum
    write_measure(omega, outdir / "measure.json")
    out = report.to_dict() | {"scale_factor": scale_factor, "config_echo": sc.config}
    dump_report(out, outdir / "report.json")
    _write_run_meta(outdir, args.threads, picard_step_s=report.picard_step_s)
    print(f"converged={report.converged} iterations={report.iterations}")
    print(f"report: {outdir / 'report.json'}")
    return 0 if report.converged and report.checks_ok else 1


def cmd_wolff(args) -> int:
    if args.theta is not None and not args.auto_scale:
        raise ConfigError("wolff reads --theta only as the target of --auto-scale; drop --theta")
    sc = load_scenario(args.config, args.theta)
    if args.auto_scale:
        _, report = scale_measure_admissible(sc.measure, sc.theta, sc.params, sc.grid)
    else:
        report = wolff_ratio(sc.measure, sc.params, sc.grid)
    print(json_text(asdict(report)), end="")
    return 0


def cmd_capacity(args) -> int:
    if args.sweep is not None:
        if args.L is not None:
            raise ConfigError("--sweep puts each radius r on its own box, L = 4r; drop --L")
        radii = args.sweep
        if len(set(radii)) < 2:
            raise ConfigError("--sweep needs at least two distinct radii to fit a slope")
        rows = []
        for r in radii:
            # one grid per radius: equal relative resolution keeps the
            # discrete problems similar, so the fitted exponent is clean
            grid = Grid(n=args.n, L=4.0 * r, N=args.N)
            est = estimate_ball_capacity((0.0,) * args.n, r, args.alpha, args.p, grid)
            rows.append((r, est.value))
            print(f"{r},{est.value}")
        logs = np.log(np.array(rows))
        slope = float(np.polyfit(logs[:, 0], logs[:, 1], 1)[0])
        print(f"slope,{slope}")
        if args.out:
            lines = ["r,estimate"] + [f"{r},{v}" for r, v in rows] + [f"slope,{slope}"]
            (_outdir(args.out) / "capacity_sweep.csv").write_text("\n".join(lines) + "\n")
        return 0

    grid = Grid(n=args.n, L=4.0 if args.L is None else args.L, N=args.N)
    spec = None if args.mask_file is None else read_json(args.mask_file)
    if isinstance(spec, list):
        cells = read_object(spec, [[int]], "mask file")
        if any(len(cell) != grid.n or not all(0 <= i < grid.N for i in cell) for cell in cells):
            raise ConfigError(f"mask entries must be {grid.n} integers in [0, {grid.N})")
        mask = np.zeros(grid.shape, dtype=bool)
        mask[tuple(np.array(cells).T)] = True
        est = estimate_capacity(mask, args.alpha, args.p, grid)
    else:
        if spec is None:
            *center, radius = args.ball
        else:
            ball = read_object(spec, _MASK_BALL, "mask file")["ball"]
            center, radius = ball["center"], ball["radius"]
        if len(center) != grid.n:
            raise ConfigError(f"a ball needs {grid.n} center coordinates and a radius")
        est = estimate_ball_capacity(tuple(center), radius, args.alpha, args.p, grid)
    payload = {f.name: getattr(est, f.name) for f in fields(est) if f.name != "candidate"}
    print(json_text(payload), end="")
    if args.out:
        dump_report(payload, _outdir(args.out) / "capacity.json")
    return 0


def cmd_verify(args) -> int:
    sc, u, grad, omega = _load_solution(args)
    u0 = riesz_potential_measure(omega, 2.0 * sc.params.s, sc.grid)
    results, ok = run_checks(u, grad, omega, u0, sc.params, sc.checks)
    path = _outdir(args.out or args.fields) / "verify_report.json"
    dump_report({"checks": results, "all_pass": ok}, path)
    print(f"verify: {'pass' if ok else 'FAIL'} ({path})")
    return 0 if ok else 1


def cmd_diagnostics(args) -> int:
    sc, u, grad, omega = _load_solution(args)
    report = diagnostics_report(u, grad.magnitude(), omega, sc.params)
    outdir = _outdir(args.out or args.fields)
    dump_report(report, outdir / "diagnostics.json")
    radii = sc.grid.radii()
    inner, outer = (f * sc.grid.L for f in DECAY_RING)
    ring = (radii >= inner) & (radii <= outer)
    # the ring's rows share few radii (15,577 of 230,612 at n=2, N=1024), so
    # each distinct radius is formatted once
    radius, which = np.unique(radii[ring], return_inverse=True)
    text = [str(r) for r in radius.tolist()]
    rows = zip(which.tolist(), u.values[ring].tolist())
    lines = ["radius,u"] + [f"{text[i]},{v}" for i, v in rows]
    (outdir / "annulus.csv").write_text("\n".join(lines) + "\n")
    print(f"diagnostics: {outdir / 'diagnostics.json'}")
    return 0


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors are ConfigErrors: exit 1, one error line.

    argparse exits 2 itself, the code of a datum that is not admissible.
    The subparsers are made of the parser's class, so they raise it too.
    """

    def error(self, message: str):
        raise ConfigError(message)


def _number(text: str) -> float:
    """A finite number; float() alone also reads nan and inf."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, not {text!r}")
    return value


def _numbers(text: str) -> list[float]:
    """The value of --ball or --sweep: comma-separated finite numbers."""
    return [_number(x) for x in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fracpot",
        description="Riesz potentials, capacities, and the Picard solver "
        "for (-Delta)^s u = |grad u|^q + omega",
    )
    parser.add_argument("--threads", type=int, default=None,
                        help="FFT workers for large transforms (default: the CPUs "
                        "available; results are independent of this)")
    sub = parser.add_subparsers(dest="command", required=True)
    # the options several subcommands share, each declared once
    config, fields_in, out, theta, scale = (
        argparse.ArgumentParser(add_help=False) for _ in range(5))
    config.add_argument("--config", required=True)
    fields_in.add_argument("--fields", required=True)
    out.add_argument("--out", default=None)
    theta.add_argument("--theta", type=_number, default=None,
                       help="default: the config's theta if it has one, else 0.5")
    scale.add_argument("--auto-scale", action="store_true")

    p = sub.add_parser("constants", parents=[theta], help="print the constants ledger")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=_number, required=True)
    p.add_argument("--q", type=_number, required=True)
    p.set_defaults(func=cmd_constants)
    sub.add_parser("solve", parents=[config, out, theta, scale],
                   help="run the Picard iteration from a config").set_defaults(func=cmd_solve)
    sub.add_parser("wolff", parents=[config, theta, scale],
                   help="measure the admissibility ratio").set_defaults(func=cmd_wolff)

    p = sub.add_parser("capacity", parents=[out], help="estimate a Riesz capacity")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--alpha", type=_number, required=True)
    p.add_argument("--p", type=_number, required=True)
    p.add_argument("--L", type=_number, default=None,
                   help="box half-width for --ball and --mask-file (default: 4)")
    p.add_argument("--N", type=int, default=128)
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--ball", type=_numbers, default=None, help="cx,cy,...,r")
    target.add_argument("--mask-file", default=None)
    target.add_argument("--sweep", type=_numbers, default=None,
                        help="comma-separated radii, each on L = 4r: one scale-free problem, "
                        "solved once and mapped to each radius, so the slope checks that "
                        "mapping, not the discretisation")
    p.set_defaults(func=cmd_capacity)
    sub.add_parser("verify", parents=[config, fields_in, out],
                   help="re-check stored solution fields").set_defaults(func=cmd_verify)
    sub.add_parser("diagnostics", parents=[config, fields_in, out],
                   help="norms, decay, and positivity report").set_defaults(func=cmd_diagnostics)
    return parser


def main(argv: list[str] | None = None) -> int:
    # run_meta.json's plan_cache_bytes is this run's high-water mark of kernel hats
    clear_plan_cache()
    try:
        args = build_parser().parse_args(argv)
        threads = available_cpus() if args.threads is None else args.threads
        with fft_workers(threads):
            return args.func(args)
    except (FracpotError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
