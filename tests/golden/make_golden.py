"""Golden outputs of every fracpot command at small sizes.

Run from the repository root to regenerate the files beside this script:

    PYTHONPATH=src python tests/golden/make_golden.py

Each case runs one command through fracpot.cli.main, in one interpreter,
inside a scratch working directory with relative paths, so no output
names a machine's directories.  For each case the files it leaves in its
output directory and its stdout are stored under <case>/; run_meta.json,
which carries a timestamp and the peak RSS, is left out, and each .field
binary is stored as its sha256 digest.  manifest.json records the exit
codes, the stderr text, and the numpy version and CPU features the files
were made with: tests/test_golden.py compares byte for byte where those match, and
within a relative 1e-12 on floats elsewhere.

A regeneration that moves any byte is a change of behaviour: name every
moved key in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np

from fracpot.cli import main

HERE = Path(__file__).resolve().parent


def _config(n: int, N: int) -> dict:
    """The reference scenario (unit ball, s=0.75, q=2, all five checks) at n, N."""
    return {
        "version": 1,
        "params": {"n": n, "s": 0.75, "q": 2.0},
        "grid": {"L": 8.0, "N": N},
        "measure": {
            "kind": "uniform_ball",
            "ball": {"center": [0.0] * n, "radius": 1.0},
            "amplitude": 1.0,
            "support_radius": 1.0,
        },
        "theta": 0.5,
        "tol": 1e-8,
        "max_iter": 200,
        "outputs": "out",
        "checks": ["weak", "representation", "sandwich", "decay", "positivity"],
    }


CONFIGS = {"n2.json": _config(2, 64), "n3.json": _config(3, 16)}


def _scenario_cases(tag: str, config: str) -> list[tuple[str, list[str]]]:
    solve = f"solve-{tag}"
    return [
        (solve, ["solve", "--config", config, "--auto-scale", "--out", solve]),
        (f"verify-{tag}", ["verify", "--config", config, "--fields", solve,
                           "--out", f"verify-{tag}"]),
        (f"diagnostics-{tag}", ["diagnostics", "--config", config, "--fields", solve,
                                "--out", f"diagnostics-{tag}"]),
        (f"wolff-{tag}", ["wolff", "--config", config, "--auto-scale"]),
    ]


# (name, argv); a case's output directory, if it has one, is its name
CASES = [
    ("constants", ["constants", "--n", "2", "--s", "0.75", "--q", "2"]),
    *_scenario_cases("2d", "n2.json"),
    *_scenario_cases("3d", "n3.json"),
    ("capacity-ball", ["capacity", "--alpha", "0.5", "--p", "2", "--ball", "0,0,1",
                       "--N", "32", "--out", "capacity-ball"]),
    ("capacity-sweep", ["capacity", "--alpha", "0.5", "--p", "2", "--sweep",
                        "0.25,0.5,1,2", "--N", "32", "--out", "capacity-sweep"]),
]


def environment() -> dict:
    """What the bytes of a float result may depend on beyond the code."""
    from numpy._core._multiarray_umath import __cpu_features__

    return {
        "numpy": np.__version__,
        "cpu_features": sorted(name for name, on in __cpu_features__.items() if on),
    }


def run_all(out: Path | str) -> None:
    """Run every case and write its golden files and manifest.json into out."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    cases = []
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name, config in CONFIGS.items():
                Path(name).write_text(json.dumps(config, indent=2) + "\n")
            for name, argv in CASES:
                cases.append(_run_case(name, argv, out / name))
        finally:
            os.chdir(home)
    manifest = {"environment": environment(), "cases": cases}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _run_case(name: str, argv: list[str], dest: Path) -> dict:
    stdout, stderr = StringIO(), StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(argv)
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir()
    (dest / "stdout.txt").write_text(stdout.getvalue())
    files, digests = ["stdout.txt"], {}
    made = Path(name)
    for path in sorted(made.iterdir()) if made.is_dir() else []:
        if path.name == "run_meta.json":
            continue
        if path.suffix == ".field":
            digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        else:
            shutil.copyfile(path, dest / path.name)
            files.append(path.name)
    return {"name": name, "argv": argv, "exit": code, "stderr": stderr.getvalue(),
            "files": files, "digests": digests}


if __name__ == "__main__":
    run_all(sys.argv[1] if len(sys.argv) > 1 else HERE)
