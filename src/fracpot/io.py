"""File formats: field binaries with JSON sidecars, measure files and reports.

A field file is raw little-endian float64 in row-major order; its sidecar
(<name>.json) records {"n", "N", "L"}.  Reports are serialised with sorted
keys and no timestamps so repeated runs produce byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .core import Grid, GridField, Measure
from .errors import ConfigError, GridMismatch


def sidecar_path(path: Path | str) -> Path:
    path = Path(path)
    return path.with_name(path.name + ".json")


def write_field(field: GridField, path: Path | str) -> None:
    path = Path(path)
    path.write_bytes(field.values.astype("<f8").tobytes(order="C"))
    meta = {"n": field.grid.n, "N": field.grid.N, "L": field.grid.L}
    sidecar_path(path).write_text(json.dumps(meta, sort_keys=True) + "\n")


def read_field(path: Path | str) -> GridField:
    path = Path(path)
    try:
        meta = json.loads(sidecar_path(path).read_text())
        raw = path.read_bytes()
    except FileNotFoundError as exc:
        raise ConfigError(f"missing field file or sidecar: {exc}") from exc
    for key in ("n", "N", "L"):
        if key not in meta:
            raise GridMismatch(f"sidecar {sidecar_path(path)} lacks key {key!r}")
    grid = Grid(n=int(meta["n"]), L=float(meta["L"]), N=int(meta["N"]))
    values = np.frombuffer(raw, dtype="<f8")
    if values.size != grid.size:
        raise GridMismatch(
            f"field file holds {values.size} values, sidecar promises {grid.size}"
        )
    return GridField(grid, values.reshape(grid.shape).copy())


def measure_to_dict(measure: Measure, density_file: str | None = None) -> dict:
    if measure.kind == "atomic":
        return {
            "kind": "atomic",
            "atoms": [
                {"x": [float(v) for v in pt], "w": float(w)}
                for pt, w in zip(measure.atoms, measure.weights)
            ],
            "support_radius": measure.support_radius,
        }
    if measure.kind == "density":
        if density_file is None:
            raise ConfigError("serialising a density measure needs a density_file name")
        return {
            "kind": "density",
            "density_file": density_file,
            "support_radius": measure.support_radius,
        }
    return {
        "kind": "uniform_ball",
        "ball": {
            "center": [float(v) for v in measure.ball_center],
            "radius": measure.ball_radius,
        },
        "amplitude": measure.ball_amplitude,
        "support_radius": measure.support_radius,
    }


def measure_from_dict(spec: dict, base_dir: Path | str = ".") -> Measure:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("measure spec must be an object with a 'kind' key")
    kind = spec["kind"]
    known = {
        "atomic": {"kind", "atoms", "support_radius"},
        "density": {"kind", "density_file", "support_radius"},
        "uniform_ball": {"kind", "ball", "amplitude", "support_radius"},
    }
    if kind not in known:
        raise ConfigError(f"unknown measure kind {kind!r}")
    extra = set(spec) - known[kind]
    if extra:
        raise ConfigError(f"unknown keys in measure spec: {sorted(extra)}")
    radius = spec.get("support_radius")
    if kind == "atomic":
        atoms = spec.get("atoms")
        if not isinstance(atoms, list) or not atoms:
            raise ConfigError("atomic measure needs a non-empty list of atoms")
        try:
            pts = np.array([a["x"] for a in atoms], dtype=float)
            w = np.array([a["w"] for a in atoms], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"each atom needs coordinates 'x' and a weight 'w': {exc!r}") from exc
        if pts.ndim != 2 or w.ndim != 1:
            raise ConfigError("each atom needs a list of coordinates 'x' and a number 'w'")
        return Measure.from_atoms(pts, w, support_radius=radius)
    if kind == "density":
        if "density_file" not in spec:
            raise ConfigError("density measure needs 'density_file'")
        fld = read_field(Path(base_dir) / spec["density_file"])
        return Measure.from_density(fld, support_radius=radius)
    ball = spec.get("ball")
    if not isinstance(ball, dict) or "center" not in ball or "radius" not in ball:
        raise ConfigError("uniform_ball measure needs ball.center and ball.radius")
    return Measure.uniform_ball(
        np.asarray(ball["center"], dtype=float),
        float(ball["radius"]),
        amplitude=float(spec.get("amplitude", 1.0)),
    )


def write_measure(measure: Measure, path: Path | str) -> None:
    path = Path(path)
    density_file = None
    if measure.kind == "density":
        density_file = path.stem + ".density.field"
        write_field(measure.density, path.parent / density_file)
    path.write_text(json.dumps(measure_to_dict(measure, density_file), sort_keys=True, indent=2) + "\n")


def read_measure(path: Path | str) -> Measure:
    path = Path(path)
    try:
        spec = json.loads(path.read_text())
    except FileNotFoundError as exc:
        raise ConfigError(str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"measure file {path} is not valid JSON: {exc}") from exc
    return measure_from_dict(spec, base_dir=path.parent)


def dump_report(report: dict, path: Path | str) -> None:
    """Deterministic JSON: sorted keys, fixed separators, trailing newline."""
    Path(path).write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
