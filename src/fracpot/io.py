"""File formats: field binaries with JSON sidecars, measure files and reports.

A field file is raw little-endian float64 in row-major order; its sidecar
(<name>.json) records {"n", "N", "L"}.  Every JSON document the program
writes, file or standard output, is formatted by json_text: sorted keys,
so repeated runs produce byte-identical reports (run_meta.json, with its
timestamp, aside), and never NaN or Infinity, which are not JSON.  Every
JSON file the program reads is parsed by read_json and checked by read_object.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import numpy as np

from .core import Grid, GridField, Measure
from .errors import ConfigError, GridMismatch


def sidecar_path(path: Path | str) -> Path:
    path = Path(path)
    return path.with_name(path.name + ".json")


def json_text(document, indent: int | None = 2) -> str:
    """document as JSON with sorted keys and a trailing newline; NaN and infinities raise ValueError."""
    return json.dumps(document, sort_keys=True, indent=indent, allow_nan=False) + "\n"


def write_field(field: GridField, path: Path | str) -> None:
    path = Path(path)
    path.write_bytes(field.values.astype("<f8").tobytes(order="C"))
    meta = {"n": field.grid.n, "N": field.grid.N, "L": field.grid.L}
    sidecar_path(path).write_text(json_text(meta, indent=None))


_JSON_TYPES = {int: "integer", float: "number", str: "string", list: "list", dict: "object"}


def read_json(path: Path | str, error: type = ConfigError):
    """The JSON document in a file.

    Text that is not JSON raises error, naming the file; a file that cannot
    be read raises its OSError, so every unreadable input meets one rule.
    """
    try:
        return json.loads(Path(path).read_text())
    except ValueError as exc:  # not UTF-8, or not JSON
        raise error(f"{path} is not valid JSON: {exc}") from exc


def read_object(value, schema: dict | list, where: str, error: type = ConfigError):
    """A JSON value from outside the program, checked against schema, with defaults filled in.

    schema is a spec: float (any finite JSON number, returned as a float;
    json.loads also reads NaN and Infinity, which are refused), int, str,
    list or dict (that JSON type; a bool is never a number), a dict of key
    -> spec (a JSON object with those keys), or [spec] (a non-empty list of
    values of that spec).  In an object, a (spec, default) pair makes the
    key optional.  A value of another type and an unknown or missing key
    raise error, naming where the value sits.
    """
    if isinstance(schema, list):
        if not isinstance(value, list) or not value:
            raise error(f"{where} must be a non-empty JSON list, not {value!r}")
        return [read_object(v, schema[0], f"{where}[{i}]", error) for i, v in enumerate(value)]
    if not isinstance(schema, dict):
        kind = (int, float) if schema is float else schema
        if isinstance(value, bool) or not isinstance(value, kind):
            raise error(f"{where} must be a JSON {_JSON_TYPES[schema]}, not {value!r}")
        if schema is not float:
            return value
        # false for NaN, the infinities and an integer no float can hold
        if not abs(value) <= sys.float_info.max:
            raise error(f"{where} must be a finite JSON number, not {value!r}")
        return float(value)
    if not isinstance(value, dict):
        raise error(f"{where} must be a JSON object, not {value!r}")
    unknown = set(value) - set(schema)
    if unknown:
        raise error(f"unknown keys in {where}: {sorted(unknown)}")
    out = {}
    for key, spec in schema.items():
        optional = isinstance(spec, tuple)
        if key in value:
            out[key] = read_object(value[key], spec[0] if optional else spec, f"{where}.{key}", error)
        elif optional:
            out[key] = spec[1]
        else:
            raise error(f"{where} is missing {key!r}")
    return out


_SIDECAR = {"n": int, "N": int, "L": float}


def read_field(path: Path | str) -> GridField:
    path = Path(path)
    sidecar = sidecar_path(path)
    where = f"sidecar {sidecar}"
    try:
        grid = Grid(**read_object(read_json(sidecar, GridMismatch), _SIDECAR, where, GridMismatch))
    except ConfigError as exc:
        raise GridMismatch(f"{where}: {exc}") from exc
    # the file is read straight into the field's array, never into a copy,
    # and only once its size is known to fit
    with path.open("rb") as stream:
        size = os.fstat(stream.fileno()).st_size
        if size == 8 * grid.size:
            values = np.empty(grid.shape, dtype="<f8")
            # a file cut short while it is read counts the bytes read
            size = stream.readinto(values)
    if size != 8 * grid.size:
        raise GridMismatch(f"{path} holds {size} bytes, its sidecar promises "
                           f"{grid.size} float64 values ({8 * grid.size} bytes)")
    return GridField(grid, values)


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
    dump_report(measure_to_dict(measure, density_file), path)


def read_measure(path: Path | str) -> Measure:
    path = Path(path)
    return measure_from_dict(read_json(path), base_dir=path.parent)


def dump_report(report: dict, path: Path | str) -> None:
    """report as json_text: deterministic JSON, indented by 2."""
    Path(path).write_text(json_text(report))
