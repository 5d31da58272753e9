"""Layered benchmark for fracpot.

    python3 perfbench/run.py --workload solve-2d --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The program is imported from the
checkout's ``src`` directory; without it the benchmark exits with code 2
and prints no result.

Load model: a closed loop with one client.  Operations run one after
another until ``--seconds`` have passed; every CLI command of an operation
runs in a fresh interpreter (perfbench/worker.py), so each starts with a
cold plan cache and pays the import, as a batch user of the CLI does.

Workloads (see perfbench/README.md for why each was chosen):

* ``solve-2d``: ``solve --auto-scale``, ``verify``, ``diagnostics`` at n=2,
  s=0.75, q=2, unit-ball datum, L=8, N=1024;
* ``solve-3d``: the same at n=3, N=64;
* ``capacity-sweep``: ``capacity --alpha 0.5 --p 2 --sweep 0.25,0.5,1,2
  --N 64``.

On the solve workloads the seed only moves the ball centre within one cell;
operation i of a run uses the offset drawn from (workload, seed, i).  It
never changes a problem size.  The capacity sweep runs the CLI's own
origin-centred balls whatever the seed: the estimator's iteration count is
chaotic in a sub-cell shift of the centre (perfbench/README.md), so a
shifted sweep would time the seed rather than the code.

With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` operations alternate traced and untraced, and it carries the
per-layer metrics of the traced ones plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

# the whole run, builds included, must end well inside 180 s
DEADLINE_S = 170.0
# set-up samples per run: CLI processes of the loop, topped up by probes
MIN_SETUP_SAMPLES = 6

WORKLOADS = {
    "solve-2d": {"kind": "solve", "n": 2, "L": 8.0, "N": 1024},
    "solve-3d": {"kind": "solve", "n": 3, "L": 8.0, "N": 64},
    "capacity-sweep": {"kind": "capacity", "n": 2, "N": 64, "alpha": 0.5, "p": 2.0,
                       "sweep": (0.25, 0.5, 1.0, 2.0)},
}

END_TO_END = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "riesz.fft_forward": "count",
    "riesz.fft_inverse": "count",
    "riesz.fft_s": "s",
    "riesz.fft_flop_computed": "flop",
    "riesz.potential_field_s": "s",
    "riesz.gradient_field_s": "s",
    "riesz.potential_measure_s": "s",
    "riesz.gradient_measure_s": "s",
    "riesz.plan_build_s": "s",
    "capacity.wolff_ratio_calls": "count",
    "capacity.wolff_ratio_s": "s",
    "capacity.scale_measure_admissible_s": "s",
    "capacity.estimate_s": "s",
    "capacity.iterations": "count",
    "capacity.potential_calls": "count",
    "capacity.iter_s": "s",
    "capacity.budget_exhausted": "count",
    "capacity.feasibility_gap_max": "ratio",
    "capacity.scale_spread": "ratio",
    "solver.picard_solve_s": "s",
    "solver.iterations": "count",
    "solver.picard_step_s": "s",
    "solver.checks_s": "s",
    "cli.solve_s": "s",
    "cli.verify_s": "s",
    "cli.diagnostics_s": "s",
    "cli.capacity_s": "s",
    "cli.check_results_s": "s",
    "cli.diagnostics_self_s": "s",
    "cli.nonzero_exits": "count",
    "fraclap.weak_residual_calls": "count",
    "fraclap.weak_residual_s": "s",
    "fraclap.weak_residual_max": "ratio",
    "diagnostics.report_s": "s",
    "diagnostics.quasinorm_s": "s",
    "diagnostics.sensitivity_s": "s",
    "diagnostics.decay_fit_s": "s",
    "io.write_field_s": "s",
    "io.read_field_s": "s",
    "io.bytes_written": "bytes",
    "io.bytes_read": "bytes",
    "core.as_density_calls": "count",
    "core.as_density_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
}

# acceptance thresholds of the fracpot CLI, restated so the gate does not
# trust the program's own pass flags alone
REPRESENTATION_TOL = 1e-6
WEAK_TOL = 1e-2


class Setup(Exception):
    """The program cannot be run from this directory."""


# ---------------------------------------------------------------------------
# workers


def _env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def _remaining(t_start: float) -> float:
    return DEADLINE_S - (time.perf_counter() - t_start)


def spawn(spec: dict, opdir: Path, tag: str, t_start: float) -> dict:
    """Run one CLI command in a fresh worker; the result dict, or an error."""
    spec_path = opdir / f"{tag}.spec.json"
    result_path = opdir / f"{tag}.result.json"
    spec_path.write_text(json.dumps(spec))
    timeout = max(_remaining(t_start), 1.0)
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), str(spec_path), str(result_path)],
            env=_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"{tag}: timed out after {timeout:.0f} s"}
    if proc.returncode != 0 or not result_path.exists():
        return {"error": f"{tag}: worker exited {proc.returncode}: {proc.stderr[-2000:]}"}
    return json.loads(result_path.read_text())


def _merge(a: dict, b: dict) -> dict:
    """Sum two trace summaries key by key (nested dicts, numbers, lists)."""
    out = dict(a)
    for key, value in b.items():
        if isinstance(value, dict):
            out[key] = _merge(out.get(key, {}), value)
        elif isinstance(value, list):
            out[key] = sorted(set(out.get(key, [])) | set(value))
        else:
            out[key] = out.get(key, 0) + value
    return out


def _new_op(index: int, traced: bool) -> dict:
    return {"index": index, "traced": traced, "problems": [], "times": {},
            "exit_codes": {}, "setup_s": [], "rss": [], "trace": {},
            "fft_per_command": {}}


def _record(op: dict, tag: str, res: dict) -> None:
    """Add one command's worker result to its operation."""
    op["setup_s"].append(res["setup_s"])
    op["times"][tag] = res["command_s"]
    op["exit_codes"][tag] = res["exit_code"]
    op["rss"].append(res["peak_rss_mb"])
    trace = res.get("trace")
    if trace is not None:
        op["trace"] = _merge(op["trace"], trace)
        op["fft_per_command"][tag] = (
            f"{trace.get('fft.forward', 0)} forward + {trace.get('fft.inverse', 0)} inverse, "
            f"{trace.get('fft.s', 0.0):.3f} s of {res['command_s']:.3f} s"
        )


# ---------------------------------------------------------------------------
# operations


def _offset(workload: str, seed: int, index: int, n: int) -> list[float]:
    rng = random.Random(f"{workload}:{seed}:{index}")
    return [rng.uniform(-0.5, 0.5) for _ in range(n)]


def _solve_config(w: dict, offset: list[float]) -> dict:
    h = 2.0 * w["L"] / w["N"]
    center = [d * h for d in offset]
    return {
        "version": 1,
        "params": {"n": w["n"], "s": 0.75, "q": 2.0},
        "grid": {"L": w["L"], "N": w["N"]},
        "measure": {
            "kind": "uniform_ball",
            "ball": {"center": center, "radius": 1.0},
            "amplitude": 1.0,
            "support_radius": 1.0 + math.hypot(*center),
        },
        "theta": 0.5,
        "tol": 1e-8,
        "max_iter": 200,
        "outputs": "out",
        "checks": ["weak", "representation", "sandwich", "decay", "positivity"],
    }


def _lookup(d, *paths):
    """The first value found along one of the key paths, else None."""
    for path in paths:
        node = d
        for key in path:
            if not isinstance(node, dict) or key not in node:
                break
            node = node[key]
        else:
            return node
    return None


def _gate_checks(where: str, doc: dict, problems: list) -> bool:
    """Representation, sandwich, decay and positivity; True if all pass."""
    rep = _lookup(doc, ("checks", "representation", "residual"), ("representation_residual",))
    lower = _lookup(doc, ("checks", "sandwich", "lower_ok"), ("sandwich_lower_ok",))
    decay = _lookup(doc, ("checks", "decay", "pass"))
    positive = _lookup(doc, ("checks", "positivity", "lower_bound_ok"))
    before = len(problems)
    if rep is None or not rep <= REPRESENTATION_TOL:
        problems.append(f"{where}: representation residual {rep} above {REPRESENTATION_TOL}")
    if lower is not True:
        problems.append(f"{where}: sandwich lower bound fails ({lower})")
    if decay is not True:
        problems.append(f"{where}: decay check fails ({decay})")
    if positive is not True:
        problems.append(f"{where}: positivity check fails ({positive})")
    return len(problems) == before


def _weak_max(doc: dict) -> float | None:
    lists = [
        _lookup(doc, ("checks", "weak", "residuals")),
        _lookup(doc, ("weak_residuals",)),
    ]
    values = [v for lst in lists if lst for v in lst]
    return max(values) if values else None


def _read_json(path: Path, problems: list) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        problems.append(f"cannot read {path.name}: {exc}")
        return {}


def run_solve_op(w: dict, name: str, seed: int, index: int, traced: bool,
                 workdir: Path, t_start: float) -> dict:
    import numpy as np

    opdir = workdir / f"op{index}"
    opdir.mkdir(parents=True)
    offset = _offset(name, seed, index, w["n"])
    config = opdir / "config.json"
    config.write_text(json.dumps(_solve_config(w, offset)))
    out = opdir / "out"
    commands = {
        "solve": ["solve", "--config", str(config), "--out", str(out), "--auto-scale"],
        "verify": ["verify", "--config", str(config), "--fields", str(out)],
        "diagnostics": ["diagnostics", "--config", str(config), "--fields", str(out)],
    }
    op = _new_op(index, traced)
    problems = op["problems"]
    allowed_exit = {"solve": (0, 1), "verify": (0, 1), "diagnostics": (0,)}
    for tag, argv in commands.items():
        spec = {"argv": argv, "src": str(SRC), "config": str(config), "trace": traced}
        res = spawn(spec, opdir, tag, t_start)
        if "error" in res:
            problems.append(res["error"])
            break
        _record(op, tag, res)
        if res["exit_code"] not in allowed_exit[tag]:
            problems.append(f"{tag}: exit code {res['exit_code']} {res.get('error', '')}")
            break

    if not problems:
        report = _read_json(out / "report.json", problems)
        if report.get("converged") is not True:
            problems.append(f"solve: not converged ({report.get('converged')})")
        solve_ok = _gate_checks("solve", report, problems)
        weak = _weak_max(report)
        op["weak_residual_max"] = weak
        if weak is None:
            problems.append("solve: no weak residuals in report.json")
        elif solve_ok and op["exit_codes"]["solve"] != (0 if weak <= WEAK_TOL else 1):
            problems.append(f"solve: exit code {op['exit_codes']['solve']} "
                            f"disagrees with weak residual {weak:.3g}")
        vrep = _read_json(out / "verify_report.json", problems)
        _gate_checks("verify", vrep, problems)
        if vrep.get("all_pass") is not (op["exit_codes"]["verify"] == 0):
            problems.append("verify: all_pass disagrees with its exit code")
        diag = _read_json(out / "diagnostics.json", problems)
        if _lookup(diag, ("positivity", "lower_bound_ok")) is not True:
            problems.append("diagnostics: positivity lower bound fails")
        if not (out / "annulus.csv").is_file():
            problems.append("diagnostics: annulus.csv missing")
        # independent of every flag the program sets: the stored solution
        # has the grid's size and is finite and strictly positive
        try:
            u = np.fromfile(out / "u.field", dtype="<f8")
        except OSError as exc:
            problems.append(f"cannot read u.field: {exc}")
        else:
            if u.size != w["N"] ** w["n"] or not np.all(np.isfinite(u)) or u.min() <= 0.0:
                problems.append("u.field is not a finite positive field of the grid's size")
    shutil.rmtree(opdir, ignore_errors=True)
    return op


def run_capacity_op(w: dict, name: str, seed: int, index: int, traced: bool,
                    workdir: Path, t_start: float) -> dict:
    opdir = workdir / f"op{index}"
    opdir.mkdir(parents=True)
    argv = ["capacity", "--n", str(w["n"]), "--alpha", str(w["alpha"]), "--p", str(w["p"]),
            "--sweep", ",".join(str(r) for r in w["sweep"]), "--N", str(w["N"])]
    spec = {"argv": argv, "src": str(SRC), "config": None, "trace": traced,
            "capture_capacity": True}
    op = _new_op(index, traced)
    problems = op["problems"]
    res = spawn(spec, opdir, "capacity", t_start)
    shutil.rmtree(opdir, ignore_errors=True)
    if "error" in res:
        problems.append(res["error"])
        return op
    _record(op, "capacity", res)
    if res["exit_code"] != 0:
        problems.append(f"capacity: exit code {res['exit_code']} {res.get('error', '')}")
        return op
    if not res.get("hooked"):
        problems.append("capacity: estimate_ball_capacity not found; no certificates")

    printed = {}
    for line in res["stdout"].splitlines():
        key, _, value = line.partition(",")
        try:
            printed[float(key)] = float(value)
        except ValueError:
            continue
    estimates = res.get("estimates", [])
    if sorted(e["r"] for e in estimates) != sorted(w["sweep"]):
        problems.append(f"capacity: estimates for radii {[e['r'] for e in estimates]}")
    for est in estimates:
        if est["certificate"] != "ok":
            problems.append(f"capacity r={est['r']}: certificate: {est['certificate']}")
        if printed.get(est["r"]) != est["value"]:
            problems.append(f"capacity r={est['r']}: printed {printed.get(est['r'])} "
                            f"!= estimate {est['value']}")
    if estimates:
        scaled = [e["value"] / e["r"] for e in estimates]
        op["capacity_scale_spread"] = (max(scaled) - min(scaled)) / statistics.median(scaled)
        op["value_over_r"] = scaled
        op["iterations"] = [e["iterations"] for e in estimates]
        op["budget_exhausted"] = sum(bool(e["budget_exhausted"]) for e in estimates)
        op["feasibility_gap_max"] = max(e["feasibility_gap"] or 0.0 for e in estimates)
    return op


# ---------------------------------------------------------------------------
# metrics


def layer_metrics(op: dict) -> dict:
    t = op["trace"]
    calls = t.get("calls", {})
    inc = t.get("inclusive_s", {})
    own = t.get("self_s", {})
    iterations = t.get("solver.iterations", 0)
    cap_iters = sum(op.get("iterations", []))
    return {
        "riesz.fft_forward": t.get("fft.forward", 0),
        "riesz.fft_inverse": t.get("fft.inverse", 0),
        "riesz.fft_s": t.get("fft.s", 0.0),
        "riesz.fft_flop_computed": t.get("fft.flop", 0.0),
        "riesz.potential_field_s": inc.get("riesz.potential_field", 0.0),
        "riesz.gradient_field_s": inc.get("riesz.gradient_field", 0.0),
        "riesz.potential_measure_s": inc.get("riesz.potential_measure", 0.0),
        "riesz.gradient_measure_s": inc.get("riesz.gradient_measure", 0.0),
        "riesz.plan_build_s": t.get("plan_build_s", 0.0),
        "capacity.wolff_ratio_calls": calls.get("capacity.wolff_ratio", 0),
        "capacity.wolff_ratio_s": inc.get("capacity.wolff_ratio", 0.0),
        "capacity.scale_measure_admissible_s": inc.get("capacity.scale_measure_admissible", 0.0),
        "capacity.estimate_s": inc.get("capacity.estimate", 0.0),
        "capacity.iterations": cap_iters,
        "capacity.potential_calls": t.get("capacity_potential_calls", 0),
        "capacity.iter_s": inc.get("capacity.estimate", 0.0) / cap_iters if cap_iters else 0.0,
        "capacity.budget_exhausted": op.get("budget_exhausted", 0),
        "capacity.feasibility_gap_max": op.get("feasibility_gap_max", 0.0),
        "capacity.scale_spread": op.get("capacity_scale_spread", 0.0),
        "solver.picard_solve_s": inc.get("solver.picard_solve", 0.0),
        "solver.iterations": iterations,
        "solver.picard_step_s": t.get("picard_step_total_s", 0.0) / iterations if iterations else 0.0,
        "solver.checks_s": t.get("picard_checks_s", 0.0),
        "cli.solve_s": inc.get("cli.solve", 0.0),
        "cli.verify_s": inc.get("cli.verify", 0.0),
        "cli.diagnostics_s": inc.get("cli.diagnostics", 0.0),
        "cli.capacity_s": inc.get("cli.capacity", 0.0),
        "cli.check_results_s": inc.get("cli.check_results", 0.0),
        "cli.diagnostics_self_s": own.get("cli.diagnostics", 0.0),
        "cli.nonzero_exits": sum(1 for c in op["exit_codes"].values() if c != 0),
        "fraclap.weak_residual_calls": calls.get("fraclap.weak_residual", 0),
        "fraclap.weak_residual_s": inc.get("fraclap.weak_residual", 0.0),
        "fraclap.weak_residual_max": op.get("weak_residual_max") or 0.0,
        "diagnostics.report_s": inc.get("diagnostics.report", 0.0),
        "diagnostics.quasinorm_s": inc.get("diagnostics.quasinorm", 0.0),
        "diagnostics.sensitivity_s": inc.get("diagnostics.sensitivity", 0.0),
        "diagnostics.decay_fit_s": inc.get("diagnostics.decay_fit", 0.0),
        "io.write_field_s": inc.get("io.write_field", 0.0),
        "io.read_field_s": inc.get("io.read_field", 0.0),
        "io.bytes_written": t.get("io.bytes_written", 0),
        "io.bytes_read": t.get("io.bytes_read", 0),
        "core.as_density_calls": calls.get("core.as_density", 0),
        "core.as_density_s": inc.get("core.as_density", 0.0),
        "trace.spans": t.get("spans", 0),
    }


def tail(values: list[float]) -> tuple[str, float] | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    p = math.floor(100.0 * (1.0 - 10.0 / n))
    return f"p{p}", statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def machine_facts() -> dict:
    import numpy
    import scipy

    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        # traced runs count the calls fracpot makes into each of the two
        "fft_backend": {
            "numpy.fft": f"pocketfft, numpy {numpy.__version__}",
            "scipy.fft": f"pocketfft, scipy {scipy.__version__}",
        },
        "thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")},
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    facts["caches_per_core"] = caches
    return facts


def _print_op(name: str, op: dict) -> None:
    times = " ".join(f"{k}_s={v:.3f}" for k, v in op["times"].items())
    extra = ""
    if "weak_residual_max" in op:
        extra += f" weak_residual_max={op['weak_residual_max']:.4g}"
    if "capacity_scale_spread" in op:
        extra += (f" capacity_scale_spread={op['capacity_scale_spread']:.4g}"
                  f" iterations={op['iterations']}")
    verdict = "ok" if not op["problems"] else "FAIL: " + " | ".join(op["problems"])
    rss = max(op["rss"]) if op["rss"] else float("nan")
    print(f"op {op['index']} {'traced' if op['traced'] else 'untraced'} {name} "
          f"{times} peak_rss_mb={rss:.1f} exit={op['exit_codes']}{extra} -> {verdict}")
    for tag, text in op["fft_per_command"].items():
        print(f"  real FFTs in {tag}: {text}")


def _print_table(ops: list[dict], setup: list[float]) -> None:
    """Every end-to-end figure by name and unit, n/a where the workload has none."""
    def series(fn):
        return [v for v in (fn(op) for op in ops) if v is not None]

    rows = [
        ("setup_s", "s", setup),
        ("op_s", "s", series(lambda op: sum(op["times"].values()) if not op["problems"] else None)),
        ("solve_s", "s", series(lambda op: op["times"].get("solve"))),
        ("verify_s", "s", series(lambda op: op["times"].get("verify"))),
        ("diagnostics_s", "s", series(lambda op: op["times"].get("diagnostics"))),
        ("capacity_s", "s", series(lambda op: op["times"].get("capacity"))),
        ("peak_rss_mb", "MB", series(lambda op: max(op["rss"]) if op["rss"] else None)),
        ("weak_residual_max", "ratio", series(lambda op: op.get("weak_residual_max"))),
        ("capacity_scale_spread", "ratio", series(lambda op: op.get("capacity_scale_spread"))),
    ]
    print(f"{'metric':<24}{'median':>14}{'tail':>20}{'n':>5}  unit")
    for metric, unit, values in rows:
        if not values:
            print(f"{metric:<24}{'n/a':>14}{'':>20}{0:>5}  {unit}")
            continue
        t = tail(values)
        tail_txt = f"{t[0]}={t[1]:.6g}" if t else f"max={max(values):.6g} (n<11)"
        print(f"{metric:<24}{statistics.median(values):>14.6g}{tail_txt:>20}{len(values):>5}  {unit}")
    failed = sum(1 for op in ops if op["problems"])
    print(f"{'ops_failed_frac':<24}{failed / len(ops):>14.6g}{'':>20}{len(ops):>5}  ratio")


def setup_probes(w: dict, workload: str, seed: int, count: int, workdir: Path,
                 t_start: float) -> list[float]:
    """Set-up times of `count` fresh interpreters that run no command.

    A capacity sweep runs one process per operation, too few for a steady
    median of set-up time, so the run tops its samples up with these.
    """
    samples: list[float] = []
    if count <= 0:
        return samples
    workdir.mkdir(parents=True, exist_ok=True)
    config = None
    if w["kind"] == "solve":
        config = workdir / "probe-config.json"
        config.write_text(json.dumps(_solve_config(w, _offset(workload, seed, -1, w["n"]))))
    spec = {"argv": None, "src": str(SRC), "config": config and str(config)}
    while len(samples) < count and _remaining(t_start) > 10.0:
        res = spawn(spec, workdir, f"probe{len(samples)}", t_start)
        if "error" in res:
            break
        samples.append(res["setup_s"])
    return samples


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    t_start = time.perf_counter()
    w = WORKLOADS[workload]
    if not (SRC / "fracpot" / "cli.py").is_file():
        raise Setup(f"no fracpot sources under {SRC}")
    warm = subprocess.run([sys.executable, "-c", "import fracpot.cli"], env=_env(),
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if warm.returncode != 0:
        raise Setup(f"cannot import fracpot.cli: {warm.stderr[-2000:]}")

    workdir = HERE / "_work" / f"{workload}-{os.getpid()}"
    op_fn = run_solve_op if w["kind"] == "solve" else run_capacity_op
    ops: list[dict] = []
    try:
        t_loop = time.perf_counter()
        longest = 0.0
        min_ops = 2 if trace else 1
        while len(ops) < min_ops or time.perf_counter() - t_loop < seconds:
            if ops and _remaining(t_start) < 1.5 * longest:
                break
            t_op = time.perf_counter()
            traced = trace and len(ops) % 2 == 0
            op = op_fn(w, workload, seed, len(ops), traced, workdir, t_start)
            longest = max(longest, time.perf_counter() - t_op)
            ops.append(op)
            _print_op(workload, op)
        setup = [x for op in ops if not op["traced"] for x in op["setup_s"]]
        if not trace:
            setup += setup_probes(w, workload, seed, MIN_SETUP_SAMPLES - len(setup),
                                  workdir, t_start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    _print_table([op for op in ops if not op["traced"]] or ops, setup)
    print("machine " + json.dumps(machine_facts(), sort_keys=True))

    failed = sum(1 for op in ops if op["problems"])
    good = [op for op in ops if not op["problems"]]
    metrics: dict = {}
    if not trace:
        # a 3-D solve peaks at either about 336 or 354 MB from one operation
        # to the next, so the run reports its highest peak, not a median
        values = {
            "setup_s": statistics.median(setup) if setup else None,
            "op_s": statistics.median(sum(op["times"].values()) for op in good) if good else None,
            "peak_rss_mb": max(max(op["rss"]) for op in good) if good else None,
        }
        for name, unit in END_TO_END.items():
            if values[name] is not None:
                metrics[name] = {"value": values[name], "unit": unit}
    else:
        traced = [op for op in good if op["traced"]]
        plain = [op for op in good if not op["traced"]]
        missing = sorted({m for op in ops for m in op["trace"].get("missing", [])})
        if missing:
            print("missing trace targets (their metrics read 0): " + ", ".join(missing))
        backends = {k: v for op in traced[:1] for k, v in op["trace"].items()
                    if k.startswith("fft.calls.")}
        print("fft calls per backend, first traced op: " + json.dumps(backends))
        per_op = [layer_metrics(op) for op in traced]
        for name, unit in PER_LAYER.items():
            if name == "trace.overhead_frac":
                if traced and plain:
                    t_med = statistics.median(sum(op["times"].values()) for op in traced)
                    p_med = statistics.median(sum(op["times"].values()) for op in plain)
                    metrics[name] = {"value": t_med / p_med - 1.0, "unit": unit}
                continue
            if per_op:
                metrics[name] = {"value": statistics.median(m[name] for m in per_op),
                                 "unit": unit}
    return {
        "correct": failed == 0 and bool(ops),
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Setup as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
