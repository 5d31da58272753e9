"""Field and measure serialization round-trips."""

import json
import re
import tracemalloc

import numpy as np
import pytest

from fracpot import Grid, GridField, Measure
from fracpot.errors import ConfigError, GridMismatch
from fracpot.io import (
    measure_from_dict,
    measure_to_dict,
    read_field,
    read_json,
    read_measure,
    read_object,
    write_field,
    write_measure,
)


@pytest.fixture
def grid():
    return Grid(2, 4.0, 32)


def test_field_round_trip_is_bitwise(tmp_path, grid):
    rng = np.random.default_rng(3)
    f = GridField(grid, rng.standard_normal(grid.shape))
    path = tmp_path / "u.field"
    write_field(f, path)
    g = read_field(path)
    assert g.grid == grid
    assert np.array_equal(g.values, f.values)


def test_field_is_read_into_its_array_without_a_copy(tmp_path):
    # a 128^2 field is 128 KiB: the read holds it once, not once as bytes
    # and once as the array
    grid = Grid(2, 4.0, 128)
    f = GridField(grid, np.random.default_rng(4).standard_normal(grid.shape))
    write_field(f, tmp_path / "u.field")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        g = read_field(tmp_path / "u.field")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert g.values.tobytes() == f.values.tobytes()
    # the finiteness check's mask is an eighth of the field
    assert peak < 1.25 * f.values.nbytes


def test_field_is_written_without_a_copy(tmp_path):
    # a 128^2 field is 128 KiB: the write reads the field's own buffer, not
    # a converted array and its bytes
    grid = Grid(2, 4.0, 128)
    f = GridField(grid, np.random.default_rng(5).standard_normal(grid.shape))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        write_field(f, tmp_path / "u.field")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert (tmp_path / "u.field").read_bytes() == f.values.tobytes()
    assert peak < 1.25 * f.values.nbytes


def test_non_contiguous_fields_round_trip_in_c_order(tmp_path, grid):
    rng = np.random.default_rng(6)
    wide = rng.standard_normal((grid.N, 2 * grid.N))
    layouts = {
        "transposed": rng.standard_normal(grid.shape).T,
        "fortran": np.asfortranarray(rng.standard_normal(grid.shape)),
        "strided": wide[:, ::2],
    }
    for name, values in layouts.items():
        assert not values.flags.c_contiguous, name
        path = tmp_path / f"{name}.field"
        write_field(GridField(grid, values), path)
        assert path.read_bytes() == values.tobytes(order="C"), name
        assert np.array_equal(read_field(path).values, values), name


def test_field_sidecar_records_grid(tmp_path, grid):
    write_field(grid.zeros(), tmp_path / "u.field")
    sidecar = json.loads((tmp_path / "u.field.json").read_text())
    assert sidecar == {"n": 2, "N": 32, "L": 4.0}


def test_field_read_rejects_tampered_sidecar(tmp_path, grid):
    write_field(grid.zeros(), tmp_path / "u.field")
    side = tmp_path / "u.field.json"
    meta = json.loads(side.read_text())
    meta["N"] = 64
    side.write_text(json.dumps(meta))
    with pytest.raises(GridMismatch):
        read_field(tmp_path / "u.field")


def test_atomic_measure_round_trip(tmp_path):
    om = Measure.from_atoms(
        np.array([[0.5, -0.25], [0.0, 0.0]]), np.array([1.0, 2.5])
    )
    back = measure_from_dict(measure_to_dict(om))
    assert back.kind == "atomic"
    assert np.array_equal(back.atoms, om.atoms)
    assert np.array_equal(back.weights, om.weights)
    assert back.support_radius == om.support_radius
    path = tmp_path / "omega.json"
    write_measure(om, path)
    again = read_measure(path)
    assert again.total_mass() == pytest.approx(om.total_mass(), rel=1e-15)


def test_uniform_ball_measure_round_trip():
    om = Measure.uniform_ball(np.array([0.5, 0.0]), 1.5, 0.25)
    back = measure_from_dict(measure_to_dict(om))
    assert back.kind == "uniform_ball"
    assert back.ball_radius == om.ball_radius
    assert back.ball_amplitude == om.ball_amplitude
    assert back.total_mass() == pytest.approx(om.total_mass(), rel=1e-14)


def test_density_measure_round_trip(tmp_path, grid):
    X, Y = grid.coords()
    vals = np.exp(-(X**2 + Y**2))
    vals[X**2 + Y**2 > 9.0] = 0.0
    om = Measure.from_density(GridField(grid, vals), support_radius=3.0)
    write_field(om.density, tmp_path / "dens.field")
    d = measure_to_dict(om, density_file="dens.field")
    back = measure_from_dict(d, base_dir=tmp_path)
    assert np.array_equal(back.density.values, om.density.values)
    assert back.support_radius == om.support_radius


def test_density_measure_serialisation_needs_file_name():
    g = Grid(2, 2.0, 16)
    om = Measure.from_density(g.zeros(), support_radius=1.0)
    with pytest.raises(ConfigError):
        measure_to_dict(om)


def test_measure_dict_rejects_unknown_keys():
    om = Measure.from_atoms(np.zeros((1, 2)), np.ones(1))
    d = measure_to_dict(om)
    d["mystery"] = 1
    with pytest.raises(ConfigError):
        measure_from_dict(d)


def test_measure_dict_rejects_unknown_kind():
    with pytest.raises(ConfigError):
        measure_from_dict({"kind": "fractal", "support_radius": 1.0})


def test_read_json_names_a_file_that_is_not_json(tmp_path):
    path = tmp_path / "doc.json"
    for data in (b"{", b"\xff"):  # not JSON, and not even UTF-8
        path.write_bytes(data)
        with pytest.raises(GridMismatch, match=re.escape(f"{path} is not valid JSON")):
            read_json(path, GridMismatch)
    # an unreadable file is left to its OSError
    with pytest.raises(FileNotFoundError):
        read_json(tmp_path / "absent.json")


def test_read_object_takes_a_list_spec_at_the_top_level():
    assert read_object([[1, 2], [3]], [[int]], "cells") == [[1, 2], [3]]
    for value, where in (([[1, True]], "cells[0][1]"), ([], "cells"), ([[]], "cells[0]")):
        with pytest.raises(ConfigError, match=f"^{re.escape(where)} must be"):
            read_object(value, [[int]], "cells")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 10**400])
def test_read_object_refuses_a_number_no_finite_float_holds(value):
    # json.loads reads NaN and Infinity, and an integer of any size
    with pytest.raises(GridMismatch, match=r"^sidecar\.L must be a finite JSON number"):
        read_object({"L": value}, {"L": float}, "sidecar", GridMismatch)
    assert read_object({"L": 10**300}, {"L": float}, "sidecar") == {"L": 1e300}
