"""Command-line scenario runner.

Subcommands: constants, solve, capacity, wolff, verify, diagnostics.
Configs are JSON with a mandatory "version"; unknown keys are rejected so a
misspelled option fails loudly instead of silently using a default.  Exit
codes are part of the interface: 0 success, 1 validation or check failure,
2 inadmissible measure, 3 diverged iteration, 4 I/O trouble, 5 metadata
mismatch between stored fields and the config.
"""

from __future__ import annotations

import argparse
import datetime
import json
import resource
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .capacity import (
    estimate_ball_capacity,
    estimate_capacity,
    scale_measure_admissible,
    wolff_ratio,
)
from .core import Grid, GridField, Measure, Parameters, VectorGridField
from .diagnostics import diagnostics_report
from .errors import (
    ConfigError,
    Diverged,
    FracpotError,
    GridMismatch,
    NotAdmissible,
)
from .io import (
    dump_report,
    measure_from_dict,
    read_field,
    read_measure,
    write_field,
    write_measure,
)
from .riesz import (
    FFT_BACKEND,
    available_cpus,
    fft_worker_count,
    fft_workers,
    plan_cache_bytes,
    riesz_potential_measure,
)
from .solver import CHECK_NAMES, constants_ledger, picard_solve, run_checks

_CONFIG_KEYS = {
    "version",
    "params",
    "grid",
    "measure",
    "theta",
    "tol",
    "max_iter",
    "outputs",
    "checks",
}
_PARAM_KEYS = {"n", "s", "q"}
_GRID_KEYS = {"L", "N"}
# exit code per error; the first match wins, so the catch-all comes last
_EXIT_CODES = ((NotAdmissible, 2), (Diverged, 3), (GridMismatch, 5), (OSError, 4), (Exception, 1))


def _reject_unknown(d: dict, allowed: set, where: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def load_config(path: Path | str) -> dict:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    if raw.get("version") != 1:
        raise ConfigError("config version must be 1")
    _reject_unknown(raw, _CONFIG_KEYS, "config")
    _reject_unknown(raw.get("params", {}), _PARAM_KEYS, "config.params")
    _reject_unknown(raw.get("grid", {}), _GRID_KEYS, "config.grid")
    for name in raw.get("checks", []):
        if name not in CHECK_NAMES:
            raise ConfigError(f"unknown check {name!r}")
    return raw


def _build(config: dict, base_dir: Path) -> tuple[Parameters, Grid, Measure]:
    try:
        p = config["params"]
        g = config["grid"]
        params = Parameters(n=int(p["n"]), s=float(p["s"]), q=float(p["q"]))
        N = int(g["N"])
        if N <= 0 or N & (N - 1) != 0:
            raise ConfigError(f"N={N} is not a power of two")
        grid = Grid(n=params.n, L=float(g["L"]), N=N)
        measure = measure_from_dict(config["measure"], base_dir=base_dir)
    except KeyError as exc:
        raise ConfigError(f"config is missing {exc}") from exc
    _check_measure(measure, params, grid)
    return params, grid, measure


def _check_measure(measure: Measure, params: Parameters, grid: Grid) -> None:
    """Reject a measure of another dimension than params.n or too wide for the box."""
    if measure.dimension != params.n:
        raise ConfigError(f"measure is {measure.dimension}-dimensional, params.n is {params.n}")
    if grid.L < 4.0 * measure.support_radius:
        raise ConfigError(
            f"box half-width {grid.L} below 4 x support radius "
            f"{measure.support_radius}"
        )


def _write_run_meta(outdir: Path, args_threads: int | None) -> None:
    meta = {
        "package_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "threads_requested": args_threads,
        "fft_backend": FFT_BACKEND,
        "fft_workers": fft_worker_count(),
        "plan_cache_bytes": plan_cache_bytes(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    (outdir / "run_meta.json").write_text(json.dumps(meta, indent=2) + "\n")


def cmd_constants(args) -> int:
    params = Parameters(n=args.n, s=args.s, q=args.q)
    ledger = constants_ledger(params, args.theta)
    print(json.dumps(asdict(ledger), indent=2, sort_keys=True))
    return 0


def cmd_solve(args) -> int:
    config = load_config(args.config)
    params, grid, omega = _build(config, Path(args.config).parent)
    theta = args.theta if args.theta is not None else float(config.get("theta", 0.5))
    tol = float(config.get("tol", 1e-8))
    max_iter = int(config.get("max_iter", 200))
    outdir = Path(args.out or config.get("outputs", "out"))
    outdir.mkdir(parents=True, exist_ok=True)

    scale_factor = 1.0
    if args.auto_scale:
        scale_factor, _ = scale_measure_admissible(omega, theta, params, grid)
        omega = omega.scaled(scale_factor)

    checks = list(config.get("checks", sorted(CHECK_NAMES)))
    u, grad, report = picard_solve(
        omega, params, grid, theta=theta, tol=tol, max_iter=max_iter, checks=checks
    )

    write_field(u, outdir / "u.field")
    for i, comp in enumerate(grad.components):
        write_field(comp, outdir / f"grad_u{i}.field")
    # the fields solve the effective (possibly rescaled) measure; persist it
    # so verify and diagnostics check against the actual datum
    write_measure(omega, outdir / "measure.json")

    out = report.to_dict()
    out["scale_factor"] = scale_factor
    out["config_echo"] = config
    dump_report(out, outdir / "report.json")
    _write_run_meta(outdir, args.threads)
    print(f"converged={report.converged} iterations={report.iterations}")
    print(f"report: {outdir / 'report.json'}")
    return 0 if report.converged and report.checks_ok else 1


def cmd_wolff(args) -> int:
    config = load_config(args.config)
    params, grid, omega = _build(config, Path(args.config).parent)
    theta = args.theta if args.theta is not None else float(config.get("theta", 0.5))
    if args.auto_scale:
        _, report = scale_measure_admissible(omega, theta, params, grid)
    else:
        report = wolff_ratio(omega, params, grid)
    print(json.dumps(asdict(report), indent=2, sort_keys=True))
    return 0


def _parse_ball(numbers, n: int) -> tuple[tuple[float, ...], float]:
    parts = [float(x) for x in numbers]
    if len(parts) != n + 1:
        raise ConfigError(f"a ball needs {n} center coordinates and a radius")
    return tuple(parts[:-1]), parts[-1]


def cmd_capacity(args) -> int:
    if args.sweep:
        radii = [float(r) for r in args.sweep.split(",")]
        if len(set(radii)) < 2:
            raise ConfigError("--sweep needs at least two distinct radii to fit a slope")
        rows = []
        for r in radii:
            # one grid per radius: equal relative resolution keeps the
            # discrete problems similar, so the fitted exponent is clean
            grid = Grid(n=args.n, L=4.0 * r, N=args.N)
            est = estimate_ball_capacity(
                (0.0,) * args.n, r, args.alpha, args.p, grid
            )
            rows.append((r, est.value))
            print(f"{r},{est.value}")
        logs = np.log(np.array(rows))
        slope = float(np.polyfit(logs[:, 0], logs[:, 1], 1)[0])
        print(f"slope,{slope}")
        if args.out:
            outdir = Path(args.out)
            outdir.mkdir(parents=True, exist_ok=True)
            lines = ["r,estimate"] + [f"{r},{v}" for r, v in rows]
            lines.append(f"slope,{slope}")
            (outdir / "capacity_sweep.csv").write_text("\n".join(lines) + "\n")
        return 0

    grid = Grid(n=args.n, L=args.L, N=args.N)
    if args.ball:
        center, radius = _parse_ball(args.ball.split(","), grid.n)
        est = estimate_ball_capacity(center, radius, args.alpha, args.p, grid)
    elif args.mask_file:
        spec = json.loads(Path(args.mask_file).read_text())
        if isinstance(spec, dict) and "ball" in spec:
            ball = spec["ball"]
            try:
                center, radius = _parse_ball([*ball["center"], ball["radius"]], grid.n)
            except (KeyError, TypeError) as exc:
                raise ConfigError('a mask ball is {"center": [...], "radius": r}') from exc
            est = estimate_ball_capacity(center, radius, args.alpha, args.p, grid)
        else:
            cells = np.asarray(spec)
            ok = cells.ndim == 2 and cells.shape[1] == grid.n and cells.dtype.kind == "i"
            if not (ok and cells.min() >= 0 and cells.max() < grid.N):
                raise ConfigError(f"mask entries must be {grid.n} integers in [0, {grid.N})")
            mask = np.zeros(grid.shape, dtype=bool)
            mask[tuple(cells.T)] = True
            est = estimate_capacity(mask, args.alpha, args.p, grid)
    else:
        raise ConfigError("capacity needs --ball, --mask-file, or --sweep")
    payload = {f.name: getattr(est, f.name) for f in fields(est) if f.name != "candidate"}
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _read_solution(fields_dir: Path, grid: Grid) -> tuple[GridField, VectorGridField]:
    u = read_field(fields_dir / "u.field")
    if (u.grid.n, u.grid.N) != (grid.n, grid.N) or u.grid.L != grid.L:
        raise GridMismatch(
            f"stored field grid (n={u.grid.n}, N={u.grid.N}, L={u.grid.L}) "
            f"does not match config grid (n={grid.n}, N={grid.N}, L={grid.L})"
        )
    comps = []
    for i in range(grid.n):
        comp = read_field(fields_dir / f"grad_u{i}.field")
        if comp.grid != u.grid:
            raise GridMismatch(f"gradient component {i} grid differs from u")
        comps.append(comp)
    return u, VectorGridField(u.grid, tuple(comps))


def _effective_measure(
    fields_dir: Path, omega: Measure, params: Parameters, grid: Grid
) -> Measure:
    """The measure stored beside the fields, else the config's; checked as _build does."""
    stored = fields_dir / "measure.json"
    measure = read_measure(stored) if stored.exists() else omega
    _check_measure(measure, params, grid)
    return measure


def cmd_verify(args) -> int:
    config = load_config(args.config)
    params, grid, omega = _build(config, Path(args.config).parent)
    fields_dir = Path(args.fields)
    u, grad = _read_solution(fields_dir, grid)
    omega = _effective_measure(fields_dir, omega, params, grid)
    checks = list(config.get("checks", sorted(CHECK_NAMES)))
    u0 = riesz_potential_measure(omega, 2.0 * params.s, grid)
    results, ok = run_checks(u, grad, omega, u0, params, checks)
    outdir = Path(args.out or fields_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    dump_report({"checks": results, "all_pass": ok}, outdir / "verify_report.json")
    print(f"verify: {'pass' if ok else 'FAIL'} ({outdir / 'verify_report.json'})")
    return 0 if ok else 1


def cmd_diagnostics(args) -> int:
    config = load_config(args.config)
    params, grid, omega = _build(config, Path(args.config).parent)
    fields_dir = Path(args.fields)
    u, grad = _read_solution(fields_dir, grid)
    omega = _effective_measure(fields_dir, omega, params, grid)
    report = diagnostics_report(u, grad.magnitude(), omega, params)
    outdir = Path(args.out or fields_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    dump_report(report, outdir / "diagnostics.json")
    radii = grid.radii()
    ring = (radii >= 0.6 * grid.L) & (radii <= 0.8 * grid.L)
    lines = ["radius,u"] + [
        f"{r},{v}" for r, v in zip(radii[ring].tolist(), u.values[ring].tolist())
    ]
    (outdir / "annulus.csv").write_text("\n".join(lines) + "\n")
    print(f"diagnostics: {outdir / 'diagnostics.json'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracpot",
        description="Riesz potentials, capacities, and the Picard solver "
        "for (-Delta)^s u = |grad u|^q + omega",
    )
    parser.add_argument("--threads", type=int, default=None,
                        help="FFT workers for large transforms (default: the CPUs "
                        "available; results are independent of this)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="print the constants ledger")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--theta", type=float, default=0.5)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("solve", help="run the Picard iteration from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--auto-scale", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("wolff", help="measure the admissibility ratio")
    p.add_argument("--config", required=True)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--auto-scale", action="store_true")
    p.set_defaults(func=cmd_wolff)

    p = sub.add_parser("capacity", help="estimate a Riesz capacity")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--L", type=float, default=4.0)
    p.add_argument("--N", type=int, default=128)
    p.add_argument("--ball", default=None, help="cx,cy,...,r")
    p.add_argument("--mask-file", default=None)
    p.add_argument("--sweep", default=None, help="comma-separated radii")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("verify", help="re-check stored solution fields")
    p.add_argument("--config", required=True)
    p.add_argument("--fields", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("diagnostics", help="norms, decay, and positivity report")
    p.add_argument("--config", required=True)
    p.add_argument("--fields", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_diagnostics)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    threads = available_cpus() if args.threads is None else args.threads
    try:
        with fft_workers(threads):
            return args.func(args)
    except (FracpotError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
