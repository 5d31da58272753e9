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


_JSON_TYPES = {int: "integer", float: "number", str: "string", list: "list", dict: "object"}


def read_object(value, schema: dict, where: str, error: type = ConfigError) -> dict:
    """A JSON object from outside the program, checked against schema, with defaults filled in.

    schema maps each allowed key to the spec of its value: float (any JSON
    number, returned as a float), int, str, list or dict (that JSON type;
    a bool is never a number), a schema dict (a nested object), or [spec]
    (a non-empty list of values of that spec).  A (spec, default) pair makes
    the key optional.  A non-object, an unknown or missing key and a value
    of another type raise error, naming where the value sits.
    """
    if not isinstance(value, dict):
        raise error(f"{where} must be a JSON object, not {value!r}")
    unknown = set(value) - set(schema)
    if unknown:
        raise error(f"unknown keys in {where}: {sorted(unknown)}")
    out = {}
    for key, spec in schema.items():
        optional = isinstance(spec, tuple)
        if key in value:
            out[key] = _read_value(value[key], spec[0] if optional else spec, f"{where}.{key}", error)
        elif optional:
            out[key] = spec[1]
        else:
            raise error(f"{where} is missing {key!r}")
    return out


def _read_value(value, spec, where: str, error: type):
    if isinstance(spec, dict):
        return read_object(value, spec, where, error)
    if isinstance(spec, list):
        if not isinstance(value, list) or not value:
            raise error(f"{where} must be a non-empty JSON list, not {value!r}")
        return [_read_value(v, spec[0], f"{where}[{i}]", error) for i, v in enumerate(value)]
    if isinstance(value, bool) or not isinstance(value, (int, float) if spec is float else spec):
        raise error(f"{where} must be a JSON {_JSON_TYPES[spec]}, not {value!r}")
    return float(value) if spec is float else value


_SIDECAR = {"n": int, "N": int, "L": float}


def read_field(path: Path | str) -> GridField:
    path = Path(path)
    try:
        meta = json.loads(sidecar_path(path).read_text())
        raw = path.read_bytes()
    except FileNotFoundError as exc:
        raise ConfigError(f"missing field file or sidecar: {exc}") from exc
    where = f"sidecar {sidecar_path(path)}"
    try:
        grid = Grid(**read_object(meta, _SIDECAR, where, GridMismatch))
    except ValueError as exc:
        raise GridMismatch(f"{where}: {exc}") from exc
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


_COORDINATES = [float]
_SUPPORT = (float, None)
_MEASURES = {
    "atomic": {"kind": str, "atoms": [{"x": _COORDINATES, "w": float}], "support_radius": _SUPPORT},
    "density": {"kind": str, "density_file": str, "support_radius": _SUPPORT},
    "uniform_ball": {"kind": str, "ball": {"center": _COORDINATES, "radius": float},
                     "amplitude": (float, 1.0), "support_radius": _SUPPORT},
}


def measure_from_dict(spec: dict, base_dir: Path | str = ".") -> Measure:
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if not isinstance(kind, str) or kind not in _MEASURES:
        raise ConfigError(f"measure kind must be one of {sorted(_MEASURES)}, not {kind!r}")
    m = read_object(spec, _MEASURES[kind], "measure")
    if kind == "atomic":
        points = [atom["x"] for atom in m["atoms"]]
        if len({len(x) for x in points}) > 1:
            raise ConfigError("the atoms of a measure differ in dimension")
        weights = [atom["w"] for atom in m["atoms"]]
        return Measure.from_atoms(points, weights, support_radius=m["support_radius"])
    if kind == "density":
        fld = read_field(Path(base_dir) / m["density_file"])
        return Measure.from_density(fld, support_radius=m["support_radius"])
    return Measure.uniform_ball(m["ball"]["center"], m["ball"]["radius"], m["amplitude"],
                                support_radius=m["support_radius"])


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
