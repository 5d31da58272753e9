"""Riesz potentials: kernel constants, quadrature, and gradient comparison.

The Gaussian comparisons are pinned by the Hankel-transform oracle in
oracles.py, which shares nothing with the convolution code.  The pruned
numpy.fft engine is held bit for bit to scipy.fft's transforms, and to an
unpruned numpy.fft convolution with the same kernels and to the direct sum,
both also in oracles.py.
"""

import threading
import tracemalloc

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from fracpot import (
    Grid,
    GridField,
    Measure,
    Parameters,
    gradient_comparison_constant,
    riesz_constant,
    riesz_gradient_measure,
    riesz_potential_field,
    riesz_potential_measure,
)
from fracpot import riesz, solver
from fracpot.errors import ConfigError, GridMismatch
from fracpot.riesz import (
    _cell_averages,
    _gradient_kernels,
    _scalar_kernels,
    _zero_offset_n_slots,
    atom_quadrature_correction,
    clear_plan_cache,
    fft_workers,
    riesz_potential_and_gradient_measure,
    singular_cell_average,
)

from oracles import (
    padded_fft_convolution,
    padded_offsets,
    picard_step_whole_arrays,
    riesz_cell_average_quad,
    riesz_potential_and_gradient_field,
    riesz_direct_sum,
    riesz_gaussian_radial,
    stage_cuts,
)


def test_constant_closed_forms():
    # Newtonian cases: alpha = 2 in n = 3 and alpha = 1 in n = 2
    assert abs(riesz_constant(3, 2.0) - 1.0 / (4.0 * np.pi)) <= 1e-12
    assert abs(riesz_constant(2, 1.0) - 1.0 / (2.0 * np.pi)) <= 1e-12


def test_constant_rejects_alpha_outside_zero_n():
    for n, alpha in ((2, 0.0), (2, 2.0), (3, 3.0), (2, -0.5)):
        with pytest.raises(ConfigError, match=r"^alpha must lie in \(0, "):
            riesz_constant(n, alpha)
    riesz_constant(3, 2.5)


def test_constant_that_overflows_a_float_is_refused():
    with pytest.raises(ConfigError, match=r"^c\(n, alpha\) overflows a float at n=400, alpha=1\.5$"):
        riesz_constant(400, 1.5)


def test_gradient_comparison_constant_is_kernel_ratio():
    for n, s in ((2, 0.75), (3, 0.8), (2, 0.6)):
        ref = (n - 2.0 * s) * riesz_constant(n, 2.0 * s) / riesz_constant(n, 2.0 * s - 1.0)
        assert gradient_comparison_constant(n, s) == pytest.approx(ref, rel=1e-15)


def test_atom_potential_is_exact_kernel_sum():
    g = Grid(2, 8.0, 64)
    om = Measure.from_atoms(np.zeros((1, 2)), np.ones(1))
    u = riesz_potential_measure(om, 1.5, g).values
    r = g.radii()
    ref = riesz_constant(2, 1.5) * r**-0.5
    # every sample is off-atom (the origin is a cell corner), so the sum
    # is exact everywhere
    assert np.max(np.abs(u - ref) / ref) <= 1e-13


def test_singular_cell_average_closed_form():
    g = Grid(2, 8.0, 64)
    alpha = 1.5
    rho = g.h / np.sqrt(np.pi)
    ref = riesz_constant(2, alpha) * (2.0 / alpha) * rho ** (alpha - 2.0)
    assert singular_cell_average(g, alpha) == pytest.approx(ref, rel=1e-14)


# the rule's range of log t depends on alpha, so alpha varies too, at n = 2
# only: a tplquad oracle cell takes about 2 s
@pytest.mark.parametrize(
    "n, alpha", [(2, 1.5), (3, 1.5), (2, 1.1), (2, 1.9)], ids=["2", "3", "2-alpha1.1", "2-alpha1.9"]
)
@pytest.mark.parametrize(
    "offset",
    [
        (4.0, -2.0, 1.0),  # far cell
        (0.5, 0.5, 0.5),  # touches the singularity at a corner
        (0.0, 0.0, 0.0),  # centred on the singularity
        (0.3, -0.17, 0.21),  # contains an off-grid singularity
    ],
    ids=["far", "corner", "centre", "off-grid"],
)
def test_cell_average_matches_quadrature_oracle(n, alpha, offset):
    got = _cell_averages(n, alpha, [[o - 0.5, o + 0.5] for o in offset[:n]]).item()
    ref = riesz_cell_average_quad(n, alpha, offset[:n])
    assert abs(got - ref) <= 1e-10 * abs(ref)


def test_atom_stencil_cells_match_quadrature_oracle():
    # an atom frac cells off the centre of stencil cell (K, K): cell j holds
    # offset j - K - frac from it, so a sign or edge slip moves every cell
    alpha, frac = 1.5, (0.3, -0.17)
    K = riesz._ATOM_STENCIL_HALF_WIDTH
    table = riesz._atom_stencil_averages(2, alpha, frac)
    assert table.shape == (2 * K + 1,) * 2
    for j in ((K, K), (K - 1, K), (K + 1, K), (K, K + 1), (0, 2 * K), (2 * K, 1)):
        ref = riesz_cell_average_quad(2, alpha, np.array(j) - K - np.array(frac))
        assert abs(table[j] - ref) <= 1e-10 * abs(ref)


def test_atom_correction_block_is_clipped_to_the_box():
    g = Grid(2, 1.0, 16)
    for atom in ((0.0, 0.0), (0.97, -0.99), (5.0, 0.0)):
        block, delta = atom_quadrature_correction(g, np.array(atom), 1.5)
        assert delta.shape == g.zeros().values[block].shape
        assert np.all(np.isfinite(delta))
    # the full 7 x 7 block fits around the centre atom; none is left far outside
    assert atom_quadrature_correction(g, np.zeros(2), 1.5)[1].shape == (7, 7)
    assert atom_quadrature_correction(g, np.array([5.0, 0.0]), 1.5)[1].size == 0


def test_point_mass_consistency_atom_vs_cell_indicator():
    # one cell of mass 1 rasterised as a density vs the atom at its center;
    # the two potentials agree away from that cell
    g = Grid(2, 4.0, 64)
    X, Y = np.broadcast_arrays(*g.coords())
    i, j = 40, 33
    center = np.array([X[i, j], Y[i, j]])
    dens = np.zeros(g.shape)
    dens[i, j] = 1.0 / g.cell_volume
    om_cell = Measure.from_density(GridField(g, dens), support_radius=float(np.linalg.norm(center)))
    om_atom = Measure.from_atoms(center[None, :], np.ones(1))
    u_cell = riesz_potential_measure(om_cell, 1.5, g).values
    u_atom = riesz_potential_measure(om_atom, 1.5, g).values
    far = np.hypot(X - center[0], Y - center[1]) > 0.0
    far[i, j] = False
    assert np.max(np.abs(u_cell[far] - u_atom[far])) <= 1e-10


def test_gaussian_potential_matches_hankel_oracle():
    g = Grid(2, 12.0, 256)
    X, Y = g.coords()
    f = GridField(g, np.exp(-0.5 * (X**2 + Y**2)))
    rr = np.hypot(X, Y)
    samples = [0.1, 0.5, 1.0, 2.0, 3.9]
    for alpha, tol in ((1.5, 1e-3), (0.5, 2e-2)):
        u = riesz_potential_field(f, alpha).values
        for target in samples:
            idx = np.unravel_index(np.argmin(np.abs(rr - target)), rr.shape)
            ref = riesz_gaussian_radial(np.array([rr[idx]]), 2, alpha)[0]
            assert abs(u[idx] - ref) <= tol * ref


def test_gaussian_potential_error_shrinks_under_refinement():
    samples = [0.5, 2.0]

    def worst(N):
        g = Grid(2, 12.0, N)
        X, Y = g.coords()
        f = GridField(g, np.exp(-0.5 * (X**2 + Y**2)))
        u = riesz_potential_field(f, 1.5).values
        rr = np.hypot(X, Y)
        err = 0.0
        for target in samples:
            idx = np.unravel_index(np.argmin(np.abs(rr - target)), rr.shape)
            ref = riesz_gaussian_radial(np.array([rr[idx]]), 2, 1.5)[0]
            err = max(err, abs(u[idx] - ref) / ref)
        return err

    assert worst(512) < 0.6 * worst(256)


def test_direct_and_fft_paths_agree():
    g = Grid(2, 6.0, 48)
    X, Y = g.coords()
    f = GridField(g, np.exp(-0.5 * (X**2 + Y**2)))
    ud = riesz_direct_sum(f.values, g.h, 1.5)
    uf = riesz_potential_field(f, 1.5).values
    assert np.max(np.abs(ud - uf)) <= 1e-13 * np.max(ud)


def _smooth_density(g: Grid) -> GridField:
    coords = g.coords()
    r2 = sum(c**2 for c in coords)
    return GridField(g, np.exp(-r2) * (1.0 + 0.5 * np.cos(3.0 * coords[0])))


def _padded_kernels(g: Grid, *families) -> list[np.ndarray]:
    """The kernels of the (order, family) pairs on the padded offsets, as the engine holds them."""
    offsets = padded_offsets(g.n, g.N, g.h)
    return [
        _zero_offset_n_slots(k, g.N)
        for order, family in families
        for k in family(g, order, offsets)
    ]


def _numpy_reference(f: GridField, s: float) -> list[np.ndarray]:
    """I_2s f and the gradient components through unpruned numpy.fft."""
    g = f.grid
    kernels = _padded_kernels(g, (2.0 * s, _scalar_kernels), (s, _gradient_kernels))
    return [padded_fft_convolution(f.values, k, g.cell_volume) for k in kernels]


def _engine(f: GridField, s: float) -> list[np.ndarray]:
    u = riesz_potential_field(f, 2.0 * s).values
    grad = riesz_gradient_measure(Measure.from_density(f), s, f.grid)
    return [u, *(c.values for c in grad.components)]


@pytest.mark.parametrize("N", [64, 128])
def test_engine_matches_numpy_reference_in_the_plane(N):
    # the hats come from DCT-I/DST-I of the octant, not from rfftn of the
    # padded kernel, so the two agree to rounding only
    f = _smooth_density(Grid(2, 8.0, N))
    for got, ref in zip(_engine(f, 0.75), _numpy_reference(f, 0.75)):
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_engine_matches_numpy_reference_in_space():
    f = _smooth_density(Grid(3, 8.0, 32))
    for got, ref in zip(_engine(f, 0.8), _numpy_reference(f, 0.8)):
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


def _fold(n: int, N: int):
    """Frequency m of a leading axis reads the octant at min(m, 2N - m), as an index."""
    m = np.arange(2 * N)
    return np.ix_(*[np.minimum(m, 2 * N - m)] * (n - 1), np.arange(N + 1))


def _odd_factor(n: int, N: int, odd: int) -> np.ndarray:
    """The hat of a kernel odd in axis odd is -i times the octant, +i where that axis is read backwards."""
    m = np.arange(2 * N if odd < n - 1 else N + 1)
    backwards = (m > N).reshape((-1,) + (1,) * (n - 1 - odd))
    return np.where(backwards, 1j, -1j)


def _filtered(values: np.ndarray, products: list, scale: float) -> list[np.ndarray]:
    """riesz._filtered of an array padded to twice its points per axis, into new scaled results."""
    lines, results = values.reshape(-1, values.shape[-1]), []
    riesz._filtered(values.shape, tuple(2 * m for m in values.shape), products,
                    lambda a, b: lines[a:b], riesz._new_results(values.shape, scale, results))
    return results


def _split(monkeypatch, budget: int, n: int, N: int) -> list[int]:
    """Cut each stage of a convolution on N^n points into budget-byte chunks; its slab widths."""
    monkeypatch.setattr(riesz, "_SLAB_BYTES", budget)
    ones = np.ones((N,) * n)
    counts, widths = stage_cuts(monkeypatch, lambda: _filtered(ones, [lambda *_: None], 1.0))
    # the forward rows, the slabs and the inverse row blocks all go over the workers
    assert len(counts) == 3 and min(counts) > 1
    return widths


def _slabs(monkeypatch, n: int, N: int) -> None:
    """_split, with the slabs leaving a ragged last one."""
    monkeypatch.setattr(riesz, "_SLAB_MIN_COLUMNS", 1)
    *full, last = _split(monkeypatch, 16 * (2 * N) ** (n - 1) * (5 if n == 2 else 2), n, N)
    assert full and len(set(full)) == 1 and 0 < last < full[0]


def test_slabs_are_never_narrower_than_eight_columns(monkeypatch):
    # a budget of 2 columns at n=3 still gives 8, so that the hat products
    # run over two cache lines per slab row; 13 columns leave a ragged 5
    n, N = 3, 12
    assert _split(monkeypatch, 16 * (2 * N) ** (n - 1) * 2, n, N) == [8, 5]


@pytest.mark.parametrize("n, N", [(2, 16), (3, 8)])
def test_octant_hats_are_the_transforms_of_the_padded_kernels(n, N):
    g = Grid(n, 4.0, N)
    clear_plan_cache()
    families = ((1.5, _scalar_kernels, [None]), (0.75, _gradient_kernels, range(n)))
    for order, family, odd_axes in families:
        hats = riesz._kernel_hats(g, order, family)
        assert [odd for _, odd in hats] == list(odd_axes)
        for (hat, odd), kern in zip(hats, _padded_kernels(g, (order, family))):
            full = np.fft.rfftn(kern)
            mirrored = hat[_fold(n, N)].astype(complex)
            if odd is not None:
                mirrored *= _odd_factor(n, N, odd)
            assert np.max(np.abs(mirrored - full)) <= 1e-15 * np.max(np.abs(full))
    # one octant per family: the n gradient components share theirs
    held = list(riesz._PLAN_CACHE.values())
    assert len(held) == 2
    assert all(h.dtype == np.float64 and h.shape == (N + 1,) * n for h in held)
    assert riesz.plan_cache_bytes() == 2 * (N + 1) ** n * 8
    clear_plan_cache()


@pytest.mark.parametrize("n, N", [(2, 64), (3, 16)])
def test_engine_bitwise_independent_of_worker_count(monkeypatch, n, N):
    # a small budget cuts these small transforms, so that they really use both workers
    _split(monkeypatch, 2**15, n, N)
    f = _smooth_density(Grid(n, 8.0, N))
    results = []
    for count in (1, 2):
        clear_plan_cache()
        with fft_workers(count):
            results.append(_engine(f, 0.75))
    clear_plan_cache()
    for a, b in zip(*results):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n, N", [(2, 64), (2, 100), (3, 16), (3, 12)])
def test_hats_equal_scipy_dct1_and_dst1_bitwise(monkeypatch, n, N, workers):
    # the reference: the octant kernels through scipy.fft.dctn/dst type 1,
    # compared as bytes, so signed zeros count too; a small budget cuts
    # every line transform, so that two workers really share each
    monkeypatch.setattr(riesz, "_SLAB_BYTES", 2**14)
    g = Grid(n, 4.0, N)
    octant = np.meshgrid(*[np.arange(N + 1) * g.h] * n, indexing="ij", sparse=True)
    clear_plan_cache()
    counts, _ = stage_cuts(monkeypatch, lambda: riesz._kernel_hats(g, 0.75, _gradient_kernels))
    assert len(counts) == n and min(counts) > 1
    clear_plan_cache()
    with fft_workers(workers):
        for order, family in ((1.5, _scalar_kernels), (0.75, _gradient_kernels)):
            hats = riesz._kernel_hats(g, order, family)
            # the scalar kernel, or the gradient component odd in axis 0
            kern = _zero_offset_n_slots(next(family(g, order, octant)), N)
            odd = hats[0][1]
            ref = scipy.fft.dctn(kern, type=1, axes=[ax for ax in range(n) if ax != odd])
            if odd is not None:
                ref[1:N] = scipy.fft.dst(ref[1:N], type=1, axis=0)
            assert hats[0][0].tobytes() == ref.tobytes()
            # component i reads component 0's octant with axes 0 and i swapped
            for hat, odd in hats[1:]:
                assert hat.tobytes() == np.swapaxes(ref, 0, odd).tobytes()
    clear_plan_cache()


@pytest.mark.parametrize("n, N", [(2, 16), (3, 8)])
def test_cache_holds_one_octant_per_family_of_the_running_convolution(n, N):
    g = Grid(n, 4.0, N)
    octant = (N + 1) ** n * 8
    f = _smooth_density(g)
    clear_plan_cache()
    riesz_potential_and_gradient_field(f, 0.75)
    assert len(riesz._PLAN_CACHE) == 2 and riesz.plan_cache_bytes() == 2 * octant
    grad = riesz._kernel_hats(g, 0.75, _gradient_kernels)
    assert all(np.shares_memory(hat, grad[0][0]) for hat, _ in grad[1:])
    # another order releases both before its own hat is built
    riesz_potential_field(f, 0.5)
    assert riesz.plan_cache_bytes() == octant
    assert riesz.plan_cache_peak_bytes() == 2 * octant
    clear_plan_cache()
    assert riesz.plan_cache_peak_bytes() == 0


@pytest.mark.parametrize("n, N", [(2, 48), (3, 12)])
def test_pruned_transforms_equal_scipy_bitwise(monkeypatch, n, N):
    # two random real multipliers, as every multiplier of the engine is, so
    # that the first goes through the spare slab and the second through the
    # slab itself
    _slabs(monkeypatch, n, N)
    rng = np.random.default_rng(N)
    x = rng.standard_normal((N,) * n)
    forward = scipy.fft.rfftn(x, s=(2 * N,) * n)
    symbols = [rng.standard_normal(forward.shape) for _ in range(2)]
    products = [lambda slab, cols, out, m=m: np.multiply(slab, m[..., cols], out=out)
                for m in symbols]
    for got, m in zip(_filtered(x, products, 0.5), symbols):
        ref = m * forward
        for ax in range(n - 1):
            ref = scipy.fft.ifft(ref, axis=ax)[(slice(None),) * ax + (slice(0, N),)]
        ref = scipy.fft.irfft(ref, n=2 * N, axis=-1)[..., :N] * 0.5
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("n, N", [(2, 48), (3, 12)])
def test_convolution_equals_the_whole_array_route_bitwise(monkeypatch, n, N, workers):
    # the reference holds the padded spectrum, each product with a mirrored
    # hat and each full-width inverse whole, through scipy.fft
    _slabs(monkeypatch, n, N)
    g = Grid(n, 8.0, N)
    f = _smooth_density(g)
    families = ((1.5, _scalar_kernels), (0.75, _gradient_kernels))
    clear_plan_cache()
    with fft_workers(workers):
        got = riesz._convolve_field(f, *families)
    spectrum = scipy.fft.rfftn(f.values, s=(2 * N,) * n)
    hats = [pair for order, family in families for pair in riesz._kernel_hats(g, order, family)]
    assert len(got) == len(hats) == 1 + n
    for field, (hat, odd) in zip(got, hats):
        ref = spectrum * hat[_fold(n, N)]
        if odd is not None:
            ref *= _odd_factor(n, N, odd)
        for ax in range(n - 1):
            ref = scipy.fft.ifft(ref, axis=ax)[(slice(None),) * ax + (slice(0, N),)]
        ref = scipy.fft.irfft(ref, n=2 * N, axis=-1)[..., :N] * g.cell_volume
        assert field.values.tobytes() == ref.tobytes()
    clear_plan_cache()


def test_convolution_holds_no_padded_spectrum(monkeypatch):
    # I_2s and its gradient on the plane: k = 3 half-size spectra, one result
    # and each worker's scratch, against the padded half spectrum and one
    # product with a hat that a whole-array convolution holds
    g, workers, budget = Grid(2, 8.0, 256), 2, 2**16
    _split(monkeypatch, budget, g.n, g.N)
    f = _smooth_density(g)
    k, N = 3, g.N
    half, result = 16 * N * (N + 1), 8 * N * N
    padded = 16 * 2 * N * (N + 1)
    clear_plan_cache()
    with fft_workers(workers):
        riesz_potential_and_gradient_field(f, 0.75)  # builds and caches the hats
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            riesz_potential_and_gradient_field(f, 0.75)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    clear_plan_cache()
    # 64 KiB covers the Python objects and the small temporaries
    assert k * half <= peak <= k * half + result + workers * 2 * budget + 2**16
    assert peak < 2 * padded


@pytest.mark.parametrize("q", [2.0, 1.7])
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("n, N", [(2, 48), (3, 12)])
def test_streamed_picard_step_equals_the_whole_array_step_bitwise(monkeypatch, n, N, workers, q):
    # |grad u|^q formed per forward row block, and the datum terms, the sups
    # and the new iterate per inverse row block, over u and grad u in place
    _slabs(monkeypatch, n, N)
    g = Grid(n, 8.0, N)
    params = Parameters(n, 0.75, q)
    f = _smooth_density(g)
    clear_plan_cache()
    u0, g0 = riesz_potential_and_gradient_field(f, 0.75)
    u0, g0 = u0.values, [c.values for c in g0.components]
    # an iterate that is not the datum's potential, so that every sup is nonzero
    u_k, grad_k = riesz_potential_and_gradient_field(GridField(g, f.values**2), 0.75)
    u = u_k.values + u0
    grad = [c.values + d for c, d in zip(grad_k.components, g0)]
    ref = picard_step_whole_arrays(params, g, u0, g0, u, grad)
    with fft_workers(workers):
        sups = solver._picard_step(params, g, u0, g0, u, grad)
    clear_plan_cache()
    assert u.tobytes() == ref[0].tobytes()
    assert [c.tobytes() for c in grad] == [c.tobytes() for c in ref[1]]
    assert np.array(sups).tobytes() == np.array(ref[2:]).tobytes()
    assert min(sups) > 0.0


def test_a_stage_uses_one_worker_per_chunk_up_to_the_worker_count():
    # one chunk runs on the calling thread; k chunks go to min(k, workers)
    # workers, one contiguous run each, all of them at once (the barrier
    # holds each run until the others have started)
    def runs(count, step, workers):
        seen, barrier = [], threading.Barrier(min(-(-count // step), workers))

        def work(run):
            barrier.wait(timeout=10)
            seen.append((threading.get_ident(), run))

        with fft_workers(workers):
            riesz._in_chunks(work, count, step)
        return seen

    caller = threading.get_ident()
    assert runs(5, 5, 2) == [(caller, [(0, 5)])]
    assert runs(5, 2, 1) == [(caller, [(0, 2), (2, 4), (4, 5)])]
    for count, workers, expected in [
        (3, 2, [[(0, 1)], [(1, 2), (2, 3)]]),
        (2, 3, [[(0, 1)], [(1, 2)]]),
        (5, 3, [[(0, 1)], [(1, 2), (2, 3)], [(3, 4), (4, 5)]]),
    ]:
        seen = runs(count, 1, workers)
        assert sorted(run for _, run in seen) == expected
        threads = {thread for thread, _ in seen}
        assert len(threads) == len(expected) and caller not in threads
    with pytest.raises(ConfigError):
        with fft_workers(0):
            pass


@pytest.mark.parametrize("n, N", [(2, 64), (3, 16)])
def test_fused_potential_and_gradient_equal_separate_calls(n, N):
    f = _smooth_density(Grid(n, 8.0, N))
    u, grad = riesz_potential_and_gradient_field(f, 0.75)
    fused = [u.values, *(c.values for c in grad.components)]
    for a, b in zip(fused, _engine(f, 0.75)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "omega",
    [
        Measure.from_atoms(np.array([[0.3, -0.2], [-1.0, 0.5]]), np.array([1.0, 0.4])),
        Measure.uniform_ball(np.array([0.2, 0.0]), 1.0),
    ],
)
def test_fused_measure_path_equals_separate_calls(omega):
    # atoms keep their exact sums; a rasterised datum shares one transform
    g = Grid(2, 8.0, 64)
    u, grad = riesz_potential_and_gradient_measure(omega, 0.75, g)
    assert np.array_equal(u.values, riesz_potential_measure(omega, 1.5, g).values)
    separate = riesz_gradient_measure(omega, 0.75, g).components
    for a, b in zip(grad.components, separate):
        assert np.array_equal(a.values, b.values)


def test_atom_sums_sample_the_padded_fft_kernels_bitwise():
    # on a dyadic grid the displacements from an atom at a cell centre are
    # exactly the padded offsets, and one kernel definition serves both
    g = Grid(2, 4.0, 16)
    centre = (5, 11)
    om = Measure.from_atoms(g.axis()[list(centre)][None, :], np.ones(1))
    at_offsets = np.ix_(*[(np.arange(g.N) - i) % (2 * g.N) for i in centre])
    (scalar,) = _padded_kernels(g, (1.5, _scalar_kernels))
    assert np.array_equal(riesz_potential_measure(om, 1.5, g).values, scalar[at_offsets])
    grad = riesz_gradient_measure(om, 0.75, g).components
    for got, kern in zip(grad, _padded_kernels(g, (0.75, _gradient_kernels))):
        assert np.array_equal(got.values, kern[at_offsets])


def test_measure_without_atoms_has_zero_potentials():
    g = Grid(2, 4.0, 16)
    om = Measure.from_atoms(np.zeros((0, 2)), np.zeros(0))
    u, grad = riesz_potential_and_gradient_measure(om, 0.75, g)
    for field in (u, *grad.components):
        assert np.array_equal(field.values, np.zeros(g.shape))
    with pytest.raises(ConfigError, match=r"^alpha must lie in \(0, 2\), got 2\.5$"):
        riesz_potential_measure(om, 2.5, g)


@pytest.mark.parametrize(
    "omega",
    [
        Measure.from_atoms(np.array([[0.3, -0.2, 0.1]]), np.ones(1)),
        Measure.from_atoms(np.array([[0.3]]), np.ones(1)),
        Measure.uniform_ball(np.zeros(3), 1.0),
    ],
    ids=["atom-3d", "atom-1d", "ball-3d"],
)
def test_measure_of_another_dimension_is_a_grid_mismatch(omega):
    g = Grid(2, 4.0, 16)
    with pytest.raises(GridMismatch):
        riesz_potential_and_gradient_measure(omega, 0.75, g)


def test_potential_rejects_negative_density():
    g = Grid(2, 4.0, 32)
    f = GridField(g, -np.ones(g.shape))
    with pytest.raises(ConfigError, match="^potential of a signed density is not defined here$"):
        riesz_potential_field(f, 1.5)


def test_atom_gradient_is_radial_derivative():
    g = Grid(2, 8.0, 64)
    om = Measure.from_atoms(np.zeros((1, 2)), np.ones(1))
    s = 0.75
    grad = riesz_gradient_measure(om, s, g)
    mag = grad.magnitude().values
    r = g.radii()
    # |grad c r^(2s-n)| = (n - 2s) c r^(2s-n-1)
    ref = (2.0 - 2.0 * s) * riesz_constant(2, 2.0 * s) * r ** (2.0 * s - 3.0)
    assert np.max(np.abs(mag - ref) / ref) <= 1e-13
    # direction is -x/|x| (potential decreases outward)
    X, Y = g.coords()
    gx = grad.components[0].values
    gy = grad.components[1].values
    dot = gx * X + gy * Y
    assert np.all(dot < 0.0)


def test_gradient_dominated_by_lower_order_potential():
    # |grad I_2s(omega)| <= c_grad I_(2s-1)(omega) pointwise, here for a
    # couple of random atomic measures
    params = Parameters(2, 0.75, 2.0)
    c0 = gradient_comparison_constant(2, 0.75)
    g = Grid(2, 8.0, 64)
    rng = np.random.default_rng(11)
    for _ in range(3):
        atoms = rng.uniform(-1.5, 1.5, size=(5, 2))
        weights = rng.uniform(0.2, 1.0, size=5)
        om = Measure.from_atoms(atoms, weights)
        mag = riesz_gradient_measure(om, params.s, g).magnitude().values
        low = riesz_potential_measure(om, 2.0 * params.s - 1.0, g).values
        assert np.all(mag <= c0 * low * (1.0 + 1e-10))


def test_gradient_field_matches_measure_path_for_smooth_density():
    g = Grid(2, 8.0, 128)
    X, Y = g.coords()
    vals = np.exp(-(X**2 + Y**2))
    vals[X**2 + Y**2 > 9.0] = 0.0
    f = GridField(g, vals)
    om = Measure.from_density(f, support_radius=3.0)
    a = riesz_potential_and_gradient_field(f, 0.75)[1].magnitude().values
    b = riesz_gradient_measure(om, 0.75, g).magnitude().values
    assert np.max(np.abs(a - b)) <= 1e-12 * np.max(b)


def test_semigroup_composition_within_truncation_band():
    # I_0.5(I_0.5 f) vs I_1 f on a box: exact in the continuum, but the
    # inner potential decays only like r^(-3/2), the box cuts off that tail
    # before the outer convolution sees it, and refining the grid cannot
    # recover mass that was never inside the box.  The mismatch saturates
    # near 0.11 for this setup (and stays above 0.09 out to L = 32,
    # N = 2048), so the band below tracks the truncation floor, not the
    # quadrature error
    g = Grid(2, 8.0, 256)
    X, Y = g.coords()
    f = GridField(g, np.exp(-0.5 * (X**2 + Y**2)))
    left = riesz_potential_field(riesz_potential_field(f, 0.5), 0.5).values
    right = riesz_potential_field(f, 1.0).values
    rel = np.linalg.norm(left - right) / np.linalg.norm(right)
    assert 0.05 <= rel <= 0.15


@given(t=st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=20, deadline=None)
def test_potential_is_homogeneous_in_the_density(t):
    g = Grid(2, 4.0, 32)
    X, Y = g.coords()
    f = np.exp(-(X**2 + Y**2))
    u1 = riesz_potential_field(GridField(g, f), 1.5).values
    ut = riesz_potential_field(GridField(g, t * f), 1.5).values
    assert np.max(np.abs(ut - t * u1)) <= 1e-12 * t * np.max(u1)
