"""Run one fracpot CLI command in a fresh interpreter and report on it.

    python3 perfbench/worker.py SPEC.json RESULT.json

SPEC holds ``argv`` (the CLI arguments, or null to measure set-up only), ``src`` (the checkout's ``src``
directory, which must provide the imported fracpot), ``config`` (a config
to load as part of set-up, or null), ``trace`` (install the tracer) and
``capture_capacity`` (keep the estimates of a capacity sweep, whose printed
output lacks their feasibility certificates).

RESULT receives the set-up time (importing ``fracpot.cli`` and loading the
config), the command's wall time and exit code, the peak RSS of this
process, the captured capacity estimates with their certificate check, and
the trace summary.  A fresh process per command gives each command a cold
plan cache, as every ``fracpot`` invocation has.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import inspect  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer as tracing  # noqa: E402

# feasibility tolerance of the capacity estimator's certificate
CAPACITY_FEAS_TOL = 1e-6


def _capture_estimates(captured: list) -> bool:
    """Keep every estimate estimate_ball_capacity returns, with its inputs."""

    def make(fn):
        signature = inspect.signature(fn)

        def capturing(*args, **kwargs):
            est = fn(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            x0, r, alpha, p = list(bound.arguments.values())[:4]
            captured.append({"x0": tuple(x0), "r": float(r), "alpha": float(alpha),
                             "p": float(p), "est": est})
            return est

        return capturing

    return tracing.replace_everywhere("fracpot.capacity", "estimate_ball_capacity", make)


def _certify(item: dict, riesz_potential_field, max_iter: int | None) -> dict:
    """Check an estimate's feasible density independently of its own report.

    The certificate is the candidate density u: I_alpha(u) >= 1 - tol on the
    cells strictly inside the ball, h^n sum u^p equal to the reported value,
    and value no larger than the reported upper bound.
    """
    import numpy as np

    est = item["est"]
    row = {
        "r": item["r"],
        "value": float(est.value),
        "iterations": int(getattr(est, "iterations", 0)),
        "feasibility_gap": getattr(est, "feasibility_gap", None),
        "budget_exhausted": max_iter is not None and est.iterations >= max_iter,
    }
    candidate = getattr(est, "candidate", None)
    if candidate is None:
        row["certificate"] = "missing candidate density"
        return row
    grid = candidate.grid
    axis = -grid.L + (np.arange(grid.N) + 0.5) * grid.h
    d2 = sum(
        (np.reshape(axis, [-1 if k == i else 1 for k in range(grid.n)]) - c) ** 2
        for i, c in enumerate(item["x0"])
    )
    mask = d2 < item["r"] ** 2
    if not mask.any():
        row["certificate"] = "empty ball mask"
        return row
    u = np.asarray(candidate.values)
    potential = riesz_potential_field(candidate, item["alpha"]).values
    gap = 1.0 - float(np.min(potential[mask]))
    objective = float(grid.cell_volume * np.sum(u ** item["p"]))
    problems = []
    if np.any(u < 0.0) or not np.all(np.isfinite(u)):
        problems.append("candidate not a finite nonnegative density")
    if gap > CAPACITY_FEAS_TOL:
        problems.append(f"candidate infeasible: gap {gap:.3e}")
    if abs(objective - row["value"]) > 1e-9 * abs(objective):
        problems.append(f"value {row['value']!r} != candidate objective {objective!r}")
    if row["value"] > est.upper_bound * (1.0 + 1e-12):
        problems.append("value above its own upper bound")
    if row["feasibility_gap"] is None or row["feasibility_gap"] > CAPACITY_FEAS_TOL:
        problems.append("reported feasibility gap missing or above tolerance")
    row["certificate_gap"] = gap
    row["certificate"] = "; ".join(problems) or "ok"
    return row


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    result: dict = {"argv": spec["argv"]}
    tracer = tracing.Tracer() if spec.get("trace") else None
    if tracer is not None:
        tracer.count_ffts()

    import fracpot
    import fracpot.cli as cli

    src = Path(spec["src"]).resolve()
    if src not in Path(fracpot.__file__).resolve().parents:
        raise SystemExit(f"fracpot imported from {fracpot.__file__}, not from {src}")
    if spec.get("config"):
        cli.load_config(spec["config"])
    result["setup_s"] = time.perf_counter() - _T0
    if spec["argv"] is None:
        Path(result_path).write_text(json.dumps(result))
        return 0

    captured: list = []
    if spec.get("capture_capacity"):
        result["hooked"] = _capture_estimates(captured)
    if tracer is not None:
        tracer.install()

    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            result["exit_code"] = cli.main(list(spec["argv"]))
    except (Exception, SystemExit):
        result["exit_code"] = None
        result["error"] = traceback.format_exc(limit=8)
    result["command_s"] = time.perf_counter() - t0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["stdout"] = out.getvalue()[-4000:]
    if tracer is not None:
        result["trace"] = tracer.summary()

    if captured:
        import fracpot.capacity as capacity
        import fracpot.riesz as riesz

        est_fn = getattr(capacity, "estimate_capacity", None)
        max_iter = None
        if est_fn is not None:
            param = inspect.signature(est_fn).parameters.get("max_iter")
            max_iter = param.default if param is not None else None
        result["max_iter"] = max_iter
        result["estimates"] = [
            _certify(item, riesz.riesz_potential_field, max_iter) for item in captured
        ]
    Path(result_path).write_text(json.dumps(result, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
