import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Repeat the acceptance-criteria lines where capture cannot hide them."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "CRITERIA_LINES", None)
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)

from fracpot import Grid, Measure, Parameters, picard_solve, scale_measure_admissible


@pytest.fixture(scope="session")
def reference_run():
    """Solved reference scenario, shared by solver, diagnostics, and gate tests.

    Unit-amplitude disk of radius one, scaled onto the admissible range with
    theta = 1/2, solved on the 128^2 box of half-width 8.
    """
    params = Parameters(2, 0.75, 2.0)
    grid = Grid(2, 8.0, 128)
    base = Measure.uniform_ball(np.zeros(2), 1.0, 1.0)
    t, _ = scale_measure_admissible(base, 0.5, params, grid)
    omega = base.scaled(t)
    u, grad, report = picard_solve(omega, params, grid, theta=0.5, tol=1e-8)
    return {
        "params": params,
        "grid": grid,
        "omega": omega,
        "scale": t,
        "u": u,
        "grad": grad,
        "report": report,
    }


@pytest.fixture(scope="session")
def golden_run(tmp_path_factory):
    """Every command at the golden sizes, run by one fresh interpreter.

    Returns the directory make_golden.run_all wrote, and the scipy modules
    that interpreter had loaded when the last command returned.
    """
    out = tmp_path_factory.mktemp("golden")
    code = (
        "import json, sys\n"
        "import make_golden\n"
        "make_golden.run_all(sys.argv[1])\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    )
    golden = Path(__file__).parent / "golden"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(golden), *sys.path]))
    done = subprocess.run([sys.executable, "-c", code, str(out)], env=env,
                          capture_output=True, text=True, check=True)
    return out, json.loads(done.stdout)
