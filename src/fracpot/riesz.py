"""Riesz potentials I_alpha and the gradient of I_2s on grids and measures.

Kernel normalisation:

    I_alpha(omega)(x) = c(n, alpha) * integral |x - y|^(alpha - n) d omega(y),
    c(n, alpha) = pi^(-n/2) 2^(-alpha) Gamma((n - alpha)/2) / Gamma(alpha/2).

Each kernel is defined once, as a function of the displacements y from the
source.  A singular sample (|y| < 1e-12 h, so y = 0 on cell-center offsets)
is replaced by the exact average of the kernel over the ball of the same
volume as one cell, which keeps the quadrature integrable-singularity aware
without any tuning knob: for the scalar kernel

    (1/h^n) * c * omega_n * rho^alpha / alpha,   rho = h * v_n^(-1/n),

and 0 for the odd gradient kernel.  The same definition gives the padded
kernels of the grid convolution, the exact kernel sums of atomic measures,
which never touch the grid, and the samples atom_quadrature_correction
trades for exact cell averages; those come from one formula, a product of
per-axis erf differences under one integral (_cell_averages).  Where the
displacements are exact multiples of h (a dyadic grid), a unit atom at a
cell center reproduces the convolution kernel bit for bit.

Every other measure is rasterised and convolved, in one free-space
convolution on the grid padded to 2N points per axis, by numpy.fft
transforms, one axis per pass, pruned of the all-zero input lines and the
cropped output lines (Hockney-Eastwood).  Each padded kernel is even or odd
in every axis, so its transform is real or imaginary and is fixed by its
values on the octant of frequencies 0..N: it is built there by a DCT-I (a
DST-I along the odd axis of a gradient component), cached as one real
(N+1)^n array, and mirrored over the spectrum when it multiplies.  The n
gradient components share one such array, each reading it with two axes
swapped, and the cache keeps only the hats of the convolution that runs.
I_2s and its gradient share one forward transform, or one pass over the
atoms.  The padded spectrum is never held whole: after the last-axis rfft, its
columns stream in cache-sized slabs, never narrower than 8 columns, through
the leading-axis transforms, the products with the hats and the inverses,
and only half-size spectra, one per kernel, wait for the last-axis irfft.
One pipeline, _filtered, runs every convolution, and each of its transforms
equals scipy.fft's bit for bit.  It reads the density a block of rows at a
time from its caller and hands each block of rows of the results back, so a
caller may form the density as the rfft reads it and consume the results
as the irfft writes them, holding neither whole (the Picard step does, see
riesz_potential_and_gradient_rows); the field functions read an array and
write new ones.  Every stage is cut into chunks of about 1 MiB of scratch,
and one of more than one chunk spreads them over the available CPUs
(fft_workers changes the count), which never changes a result.

Differentiating |x - y|^(2s - n) gives the vector kernel

    grad I_2s(omega)(x)_i = -(n - 2s) c(n, 2s) *
                            integral (x_i - y_i) |x - y|^(2s - n - 2)  d omega(y);

note the factor (n - 2s): it comes from d/dr r^(2s - n) and is part of the
comparison constant c_grad = (n - 2s) c(n, 2s) / c(n, 2s - 1) used by the
solver.  Dropping it (a tempting simplification, since some derivations
display the kernel without it) changes every downstream constant.
"""

from __future__ import annotations

import itertools
import math
import os
from contextlib import contextmanager
from contextvars import ContextVar
from functools import lru_cache

import numpy as np

from .core import Grid, GridField, Measure, VectorGridField, squared_norm
from .errors import ConfigError, GridMismatch
from .special import ball_volume, gamma, sphere_surface


def riesz_constant(n: int, alpha: float) -> float:
    """Normalisation c(n, alpha) of the Riesz kernel; requires 0 < alpha < n."""
    if not 0.0 < alpha < n:
        raise ConfigError(f"alpha must lie in (0, {n}), got {alpha}")
    try:
        return math.pi ** (-n / 2.0) * 2.0**-alpha * gamma((n - alpha) / 2.0) / gamma(alpha / 2.0)
    except OverflowError:
        raise ConfigError(f"c(n, alpha) overflows a float at n={n}, alpha={alpha}") from None


def gradient_comparison_constant(n: int, s: float) -> float:
    """c_grad = (n - 2s) c(n, 2s) / c(n, 2s - 1).

    Pointwise, |grad I_2s(omega)| <= c_grad * I_(2s-1)(omega); the two kernels
    differ exactly by this ratio in magnitude.
    """
    return (n - 2.0 * s) * riesz_constant(n, 2.0 * s) / riesz_constant(n, 2.0 * s - 1.0)


def singular_cell_average(grid: Grid, alpha: float) -> float:
    """Average of the kernel over one cell, via the equal-volume ball.

    rho is chosen so the ball has the volume of a cell; the kernel average
    over that ball is exact, which is the whole point: the substitute keeps
    the discrete operator an upper-and-lower faithful quadrature near the
    singularity.
    """
    c = riesz_constant(grid.n, alpha)
    rho = grid.h * ball_volume(grid.n) ** (-1.0 / grid.n)
    return c * sphere_surface(grid.n) * rho**alpha / (alpha * grid.cell_volume)


# ---------------------------------------------------------------------------
# Exact cell averages of the kernel.  With a = (n - alpha)/2, |y|^(-2a) =
# Gamma(a)^-1 integral_0^inf t^(a-1) e^(-t|y|^2) dt, and the Gaussian's
# integral over a box is a product over the axes of
# sqrt(pi) / (2 sqrt t) (erf(sqrt t hi) - erf(sqrt t lo)).  On a unit cell the
# product tends to 1 as t -> 0; subtracting e^(-t), whose integral is
# Gamma(a), leaves an integrand that decays like t^(a+1) there and like
# t^(-alpha/2) as t -> inf, wherever the singularity sits.  In tau = log t it
# is analytic in the strip |Im tau| < pi/2, so the trapezoidal rule in tau
# integrates it to rounding (Trefethen and Weideman, SIAM Rev. 56, 2014).

_erf = np.frompyfunc(math.erf, 1, 1)  # numpy has no erf


def _cell_averages(n: int, alpha: float, edges) -> np.ndarray:
    """Averages of c(n, alpha) |y|^(alpha - n) over the unit cells between consecutive edges.

    edges holds one increasing array per axis, consecutive entries 1 apart;
    the result has one entry per cell, len(edges[i]) - 1 along axis i.
    """
    c = riesz_constant(n, alpha)
    a = (n - alpha) / 2.0
    step = 0.25
    tau = np.arange(-40.0, 90.0 / alpha, step)
    t = np.exp(tau)
    # the product times t^(a-1) dt = e^(a tau) d tau, with t^(n/2) moved into
    # the erf differences so that no factor overflows
    total = step * np.exp(-0.5 * alpha * tau)
    for i, e in enumerate(edges):
        erfs = _erf(np.sqrt(t)[:, None] * np.asarray(e, dtype=float)).astype(float)
        factor = 0.5 * math.sqrt(math.pi) * np.diff(erfs, axis=1)
        total = total[..., None] * factor.reshape(t.shape + (1,) * i + (-1,))
    total -= (step * np.exp(a * tau - t)).reshape(t.shape + (1,) * n)
    return c * (1.0 + total.sum(axis=0) / gamma(a))


# Half-width, in cells, of the block around an atom on which stored point
# samples of the kernel are compared with exact cell averages.
_ATOM_STENCIL_HALF_WIDTH = 3


@lru_cache(maxsize=256)
def _atom_stencil_averages(n: int, alpha: float, frac: tuple[float, ...]) -> np.ndarray:
    """Kernel cell averages over the stencil j in [-K, K]^n at offsets j - frac."""
    K = _ATOM_STENCIL_HALF_WIDTH
    table = _cell_averages(n, alpha, [np.arange(-K - 0.5, K + 1.0) - f for f in frac])
    table.setflags(write=False)
    return table


def atom_quadrature_correction(
    grid: Grid, atom: np.ndarray, alpha: float
) -> tuple[tuple[slice, ...], np.ndarray]:
    """Exact cell averages minus stored samples of the kernel near one atom.

    Returns the grid block around the atom (clipped to the box) and, on it,
    the cell average of c |x - atom|^(alpha - n) minus the value that
    riesz_potential_measure stores for a unit atom there.  Adding
    sum(correction * f[block]) h^n to the midpoint sum of a unit-atom
    potential times a smooth f gives the cell-averaged quadrature, which
    integrates the singularity on the block exactly.
    """
    n, K = grid.n, _ATOM_STENCIL_HALF_WIDTH
    atom = np.asarray(atom, dtype=float).reshape(n)
    pos = (atom + grid.L) / grid.h - 0.5  # atom in cell-index units
    centre = np.floor(pos + 0.5)
    frac = tuple(float(f) for f in pos - centre)
    averages = _atom_stencil_averages(n, float(alpha), frac)
    block, crop = [], []
    for i in range(n):
        start = int(centre[i]) - K
        lo = min(max(start, 0), grid.N)
        hi = max(min(start + 2 * K + 1, grid.N), lo)
        block.append(slice(lo, hi))
        crop.append(slice(lo - start, hi - start))
    block = tuple(block)
    samples = next(_scalar_kernels(grid, alpha, grid.offsets(atom, block)))
    return block, averages[tuple(crop)] * grid.h ** (alpha - n) - samples


# ---------------------------------------------------------------------------
# The convolution engine.  Free-space (non-periodic) convolutions on the
# 2N-padded grid through numpy.fft, one axis per pass; kernel transforms are
# cached per (grid, alpha/s, kind).  numpy >= 2.0 runs the pocketfft library
# that scipy.fft runs, and every pass below hands it the lines, the axis
# order and the scaling scipy.fft would, so each result equals scipy.fft's
# bit for bit.  One pipeline, _filtered, runs every convolution: the rfft of
# the data rows its caller forms, then slabs of last-axis frequency columns
# through per-worker scratch, then the irfft in row blocks its caller takes.

# The bytes of one chunk of a stage: a block of data or result rows, a slab
# of spectrum columns, or a run of hat lines with their extensions, sized so
# that each worker's scratch stays in cache.  A slab is never narrower than
# _SLAB_MIN_COLUMNS: the hat products run along its columns, and 8 complex
# values are two 64-byte cache lines per slab row.
_SLAB_BYTES = 2**20
_SLAB_MIN_COLUMNS = 8

FFT_BACKEND = f"numpy.fft (pocketfft), numpy {np.__version__}"


def available_cpus() -> int:
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_FFT_WORKERS = ContextVar("fft_workers", default=available_cpus())


def fft_worker_count() -> int:
    """Workers the engine spreads the chunks of a stage over."""
    return _FFT_WORKERS.get()


@contextmanager
def fft_workers(count: int):
    """Run the engine's stages on count workers inside the block; results do not change."""
    if count < 1:
        raise ConfigError(f"FFT worker count must be at least 1, got {count}")
    token = _FFT_WORKERS.set(count)
    try:
        yield
    finally:
        _FFT_WORKERS.reset(token)


@lru_cache(maxsize=None)
def _thread_pool(workers: int):
    """The threads that share a stage's chunks, started by the first stage of several chunks."""
    # imported on first use, so that start-up and runs of one-chunk stages never load it
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=workers, thread_name_prefix="fracpot-fft")


def _step(count: int, item_bytes: int, least: int = 1) -> int:
    """Items of item_bytes per chunk: as many as fit _SLAB_BYTES, at least least, at most count."""
    return min(count, max(least, _SLAB_BYTES // item_bytes))


def _in_chunks(work, count: int, step: int) -> None:
    """work(run) for runs of the chunks [a, b) of range(count), each step long but the last.

    One chunk runs on the calling thread.  k of them go to min(k, workers)
    workers, one contiguous run each, and numpy.fft and numpy's arithmetic
    release the GIL, so the runs go in parallel.  Each line is transformed
    whole either way, so the split never changes a bit.
    """
    chunks = [(a, min(a + step, count)) for a in range(0, count, step)]
    w = min(_FFT_WORKERS.get(), len(chunks))
    if w == 1:
        work(chunks)
        return
    runs = [chunks[len(chunks) * k // w : len(chunks) * (k + 1) // w] for k in range(w)]
    for done in [_thread_pool(w).submit(work, run) for run in runs]:
        done.result()


def _pad_forward(src: np.ndarray, slab: np.ndarray, crop: tuple[int, ...]) -> None:
    """slab = the transform along the leading axes of src, zero-padded to slab's shape.

    src lands in the zeroed slab and each pass runs in place on the lines
    that hold data only, in pocketfft's n-D order: increasing axis order
    after the last axis.  (Padding in the fft call itself, with n=, took
    about 1.5 times as long in a micro-benchmark.)
    """
    data = tuple(slice(0, m) for m in crop[:-1])
    for ax in range(slab.ndim - 1):
        slab[data[:ax] + (slice(crop[ax], None),)] = 0.0
    slab[data] = src
    for ax in range(slab.ndim - 1):
        live = slab[(slice(None),) * (ax + 1) + data[ax + 1 :]]
        np.fft.fft(live, axis=ax, out=live)


def _inverse_crop(slab: np.ndarray, crop: tuple[int, ...]) -> np.ndarray:
    """The first crop points of slab's inverse transform along each leading axis.

    Each axis is cropped right after its inverse, so later passes skip the
    lines the result discards.  slab is overwritten.
    """
    for ax in range(slab.ndim - 1):
        np.fft.ifft(slab, axis=ax, out=slab)
        slab = slab[(slice(None),) * ax + (slice(0, crop[ax]),)]
    return slab


def _filtered(crop: tuple[int, ...], padded: tuple[int, ...], products: list, read, sinks) -> None:
    """Per product, irfftn(product(rfftn(data, s=padded)), s=padded), cropped to crop, row by row.

    The rows are the lines of the data and of each result along the last
    axis, in C order.  read(a, b) returns rows a..b-1 of the data, a
    (b - a, crop[-1]) float64 array.  product(slab, cols, out) writes into
    out the slab, which holds the spectrum's last-axis frequencies cols,
    times the multiplier's columns cols; out may be the slab itself.  sinks
    yields (count, write) pairs, each taking the next count products, and
    write(a, b, lines) receives rows a..b-1 of their results, unscaled, as
    count (b - a, crop[-1]) views of scratch, which it may overwrite.  read
    and write run on the workers, on disjoint rows at once.

    The rfft of the data rows fills a half-size spectrum of crop[:-1] +
    (padded[-1] // 2 + 1,) points.  Its columns then pass in slabs through
    scratch: padded and transformed along the leading axes, multiplied by
    each product, transformed back and cropped into one half-size spectrum
    per product, the last of which overwrites the input's.  Last, each
    sink's spectra pass the irfft in row blocks, every block of every one of
    them going to write together, and are freed once they have.  Each line
    goes through the numpy.fft call and the axis order of irfftn(rfftn), so
    the slabs and blocks change no bit.  A block of data rows holds about
    _SLAB_BYTES of spectrum, a slab too but never fewer than
    _SLAB_MIN_COLUMNS columns, and a block of result rows that much in all
    over its sink's products; each is at most the whole stage.
    """
    lead, cols = padded[:-1], padded[-1] // 2 + 1
    rows = math.prod(crop[:-1])
    spectra = [np.empty(crop[:-1] + (cols,), dtype=complex) for _ in products]
    source = spectra[-1]
    source_rows = source.reshape(rows, cols)

    def forward(run):
        for a, b in run:
            np.fft.rfft(read(a, b), n=padded[-1], axis=-1, out=source_rows[a:b])

    _in_chunks(forward, rows, _step(rows, 16 * cols))
    width = _step(cols, 16 * math.prod(lead), _SLAB_MIN_COLUMNS)

    def slabs(run):
        scratch = np.empty(lead + (width,), dtype=complex)
        spare = np.empty_like(scratch) if len(products) > 1 else None
        for a, b in run:
            slab = scratch[..., : b - a]
            _pad_forward(source[..., a:b], slab, crop)
            for product, spectrum in zip(products, spectra):
                dst = slab if spectrum is source else spare[..., : b - a]
                product(slab, slice(a, b), dst)
                spectrum[..., a:b] = _inverse_crop(dst, crop)

    _in_chunks(slabs, cols, width)
    # from here only spectra holds them, so each goes once its sink has its rows
    del source, source_rows
    spectra = [spectrum.reshape(rows, cols) for spectrum in spectra]
    while spectra:
        count, write = next(sinks)
        group, spectra = spectra[:count], spectra[count:]
        block = _step(rows, 8 * padded[-1] * count)

        def inverse(run):
            scratch = [np.empty((block, padded[-1])) for _ in group]
            for a, b in run:
                lines = []
                for spectrum, buffer in zip(group, scratch):
                    line = buffer[: b - a]
                    np.fft.irfft(spectrum[a:b], n=padded[-1], axis=-1, out=line)
                    lines.append(line[:, : crop[-1]])
                write(a, b, lines)

        _in_chunks(inverse, rows, block)
        # before the next sink allocates anything
        del group


def _new_results(shape: tuple[int, ...], scale: float, results: list):
    """Sinks for _filtered that write scale times each product's result into a new array.

    Each array is appended to results when its product's pass starts, so
    that none is held while the spectra of the products before it are.
    """
    while True:
        result = np.empty(shape)
        results.append(result)
        result_rows = result.reshape(-1, shape[-1])
        yield 1, lambda a, b, lines, rows=result_rows: np.multiply(lines[0], scale, out=rows[a:b])


def _real_line_transform(hat: np.ndarray, axis: int, odd: bool) -> None:
    """DCT-I of every line of hat along axis, or with odd its DST-I on points 1..N-1, in place.

    pocketfft's own route (scipy.fft.dct/dst type 1): the real FFT of the
    line's even extension to 2N points has the DCT-I as its real part; that
    of its odd extension has minus the DST-I as its imaginary part.  Each
    worker takes as many lines at a time as fit their extensions and spectra
    in _SLAB_BYTES, through scratch it allocates once.
    """
    N = hat.shape[axis] - 1
    # the trailing unit axis gives a 1-D hat an axis to cut across
    h = np.moveaxis(hat, axis, 0)[..., None]
    step = _step(h.shape[1], (8 * 2 * N + 16 * (N + 1)) * math.prod(h.shape[2:]))

    def work(run):
        ext = np.empty((2 * N, step) + h.shape[2:])
        spec = np.empty((N + 1, step) + h.shape[2:], dtype=complex)
        for a, b in run:
            chunk = h[:, a:b]
            e, s = ext[:, : b - a], spec[:, : b - a]
            if odd:
                e[0] = e[N] = 0.0
                e[1:N] = chunk[1:N]
                np.negative(chunk[N - 1 : 0 : -1], out=e[N + 1 :])
            else:
                e[: N + 1] = chunk
                e[N + 1 :] = chunk[N - 1 : 0 : -1]
            np.fft.rfft(e, axis=0, out=s)
            if odd:
                np.negative(s[1:N].imag, out=chunk[1:N])
            else:
                chunk[...] = s.real

    _in_chunks(work, h.shape[1], step)


def _regularised_r2(grid: Grid, offsets: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """|y|^2 at the displacements y, 1 where y is singular, and the mask of singular y."""
    r2 = squared_norm(offsets)
    hit = r2 < (1e-12 * grid.h) ** 2
    r2[hit] = 1.0
    return r2, hit


def _scalar_kernels(grid: Grid, alpha: float, offsets: list[np.ndarray]):
    """c |y|^(alpha - n) at the displacements y, as a family of one."""
    c = riesz_constant(grid.n, alpha)
    kern, hit = _regularised_r2(grid, offsets)
    kern **= (alpha - grid.n) / 2.0
    kern *= c
    kern[hit] = singular_cell_average(grid, alpha)
    yield kern


def _gradient_kernels(grid: Grid, s: float, offsets: list[np.ndarray]):
    """The n components of -(n - 2s) c y |y|^(2s - n - 2) at the displacements y, in turn."""
    n = grid.n
    c = riesz_constant(n, 2.0 * s)
    radial, hit = _regularised_r2(grid, offsets)
    radial **= (2.0 * s - n - 2.0) / 2.0
    radial *= -(n - 2.0 * s) * c
    for y in offsets:
        comp = radial * y
        comp[hit] = 0.0
        yield comp


def _zero_offset_n_slots(kern: np.ndarray, N: int) -> np.ndarray:
    # keeps the unused slot at offset N on each axis inert and finite
    for ax in range(kern.ndim):
        kern[(slice(None),) * ax + (N,)] = 0.0
    return kern


# One real octant per grid, order and family, held while the convolutions
# that read it run (_convolve drops the others), and the most bytes the
# cache has held at one time since it was last cleared.
_PLAN_CACHE: dict[tuple, np.ndarray] = {}
_plan_cache_peak = 0


def _hat_key(grid: Grid, order: float, family) -> tuple:
    return (grid.n, grid.N, float(grid.L).hex(), float(order).hex(), family.__name__)


def _kernel_hats(grid: Grid, order: float, family) -> list[tuple[np.ndarray, int | None]]:
    """Transforms of family(grid, order) on the padded grid, as (real octant, odd axis) pairs.

    On the grid padded to 2N points per axis the offsets run circularly,
    0..N, -N+1..-1 times h, and the slot at offset N is never read by the
    linear convolution restricted to the first N samples.  A kernel even in
    every axis has a real transform, the DCT-I of its samples on the octant
    of offsets 0..N; a kernel odd in axis i has -i times the DST-I along
    axis i (0 at frequencies 0 and N) of the DCT-I along the others.  So each
    hat is cached as that one real (N+1)^n array, per grid, order and
    family, and _hat_product mirrors it over the rest of the spectrum.
    Gradient component i is component 0 with axes 0 and i swapped, on the
    octant and so in its transform: one octant, odd in axis 0, stands for
    all n, each read through a swapped view.
    """
    global _plan_cache_peak
    n, N = grid.n, grid.N
    # the scalar kernel is even; the gradient's stored component is odd in axis 0
    odd = 0 if family is _gradient_kernels else None
    key = _hat_key(grid, order, family)
    if key not in _PLAN_CACHE:
        axis = np.arange(0, N + 1) * grid.h
        offsets = np.meshgrid(*[axis] * n, indexing="ij", sparse=True)
        hat = _zero_offset_n_slots(next(family(grid, order, offsets)), N)
        # scipy.fft.dctn's axis order, then the DST-I
        even = [ax for ax in range(n) if ax != odd]
        for ax in even if odd is None else even + [odd]:
            _real_line_transform(hat, ax, ax == odd)
        _PLAN_CACHE[key] = hat
        _plan_cache_peak = max(_plan_cache_peak, plan_cache_bytes())
    hat = _PLAN_CACHE[key]
    if odd is None:
        return [(hat, None)]
    return [(np.swapaxes(hat, 0, i), i) for i in range(n)]


def clear_plan_cache() -> None:
    global _plan_cache_peak
    _PLAN_CACHE.clear()
    _plan_cache_peak = 0


def plan_cache_bytes() -> int:
    """Bytes held by the cached kernel hats now, each octant once."""
    return sum(hat.nbytes for hat in _PLAN_CACHE.values())


def plan_cache_peak_bytes() -> int:
    """The most bytes the cached kernel hats held at one time since clear_plan_cache."""
    return _plan_cache_peak


@lru_cache(maxsize=8)
def _spectrum_blocks(n: int, N: int) -> tuple[tuple, ...]:
    """The blocks of a slab of the padded spectrum, the octant view each reads, and the axes it mirrors.

    Along a leading axis, frequencies 0..N read the octant as it is and
    N+1..2N-1 read it backwards from N-1 to 1, as views; a slab's columns
    read the octant's own columns of the last axis.
    """
    blocks = []
    for mirrored in itertools.product((False, True), repeat=n - 1):
        spec = tuple(slice(N + 1, 2 * N) if m else slice(0, N + 1) for m in mirrored)
        octant = tuple(slice(N - 1, 0, -1) if m else slice(None) for m in mirrored)
        blocks.append((spec, octant, mirrored + (False,)))
    return tuple(blocks)


def _hat_product(hat: np.ndarray, odd, N: int):
    """The slab product with the full transform the octant hat, odd in axis odd, stands for."""
    blocks = _spectrum_blocks(hat.ndim, N)

    def product(slab, cols, out):
        for spec, octant, mirrored in blocks:
            dst = out[spec]
            np.multiply(slab[spec], hat[octant + (cols,)], out=dst)
            if odd is not None:
                # an odd kernel's hat is -i times the octant, +i where its odd axis is mirrored
                dst *= 1j if mirrored[odd] else -1j

    return product


def _convolve(grid: Grid, read, sinks, *families: tuple[float, object]) -> None:
    """The density whose rows read gives, convolved with each kernel of the (order, family) pairs.

    One transform of the density serves every kernel, and the results go to
    sinks row block by row block, unscaled (see _filtered).  For k kernels on
    an n-D grid of N points per axis this allocates, besides one cached
    (N+1)^n hat per family and what read and the sinks allocate, k half-size
    spectra of N^(n-1) (N+1) complex points, one of them the density's
    transform, those of a sink freed once it has all their rows.  Each
    worker adds scratch, none of it more than its whole stage: two slabs (one
    for a single kernel) of _SLAB_BYTES or _SLAB_MIN_COLUMNS columns, then
    one block of rows per kernel of a sink, _SLAB_BYTES in all or a row each.
    """
    # hats this call does not read go before any it lacks is built, so that
    # the cache holds no more than one call's kernels
    for key in _PLAN_CACHE.keys() - {_hat_key(grid, order, family) for order, family in families}:
        del _PLAN_CACHE[key]
    products = [
        _hat_product(hat, odd, grid.N)
        for order, family in families
        for hat, odd in _kernel_hats(grid, order, family)
    ]
    _filtered(grid.shape, (2 * grid.N,) * grid.n, products, read, sinks)


def _convolve_field(f: GridField, *families: tuple[float, object]) -> list[GridField]:
    """f convolved with each kernel of the (order, family) pairs, from one transform of f.

    The results are new arrays of the grid's shape, written one at a time,
    each once the spectra of those before it are freed.
    """
    if f.values.min() < 0.0:  # a GridField holds no NaN
        raise ConfigError("potential of a signed density is not defined here")
    g, results = f.grid, []
    lines = f.values.reshape(-1, g.N)
    _convolve(g, lambda a, b: lines[a:b], _new_results(g.shape, g.cell_volume, results), *families)
    return [GridField(g, v) for v in results]


def riesz_potential_field(f: GridField, alpha: float) -> GridField:
    """I_alpha of a nonnegative gridded density, by zero-padded FFT convolution."""
    return _convolve_field(f, (alpha, _scalar_kernels))[0]


def riesz_potential_and_gradient_rows(grid: Grid, s: float, read, write) -> None:
    """I_2s and grad I_2s of a density formed row block by row block, handed on the same way.

    The rows are the grid's lines along its last axis, in C order, and the
    density must be nonnegative, which is not checked.  read(a, b) returns
    rows a..b-1 of the density as a (b - a, N) array; write(a, b, blocks)
    receives rows a..b-1 of I_2s and of each gradient component, 1 + n
    (b - a, N) views of scratch, which it may overwrite.  Both run on
    the workers, on disjoint rows at once.  The blocks are bitwise those of
    the density's convolution with each kernel alone, and no result is ever
    held whole.
    """
    scale = grid.cell_volume

    def scaled(a, b, lines):
        for line in lines:
            np.multiply(line, scale, out=line)
        write(a, b, lines)

    _convolve(grid, read, iter([(1 + grid.n, scaled)]),
              (2.0 * s, _scalar_kernels), (s, _gradient_kernels))


def _measure_potentials(measure: Measure, grid: Grid, *families) -> list[GridField]:
    """The potentials of measure under each kernel of the (order, family) pairs.

    Atoms are summed exactly, all families in one pass per atom; every other
    kind is rasterised and goes through one convolution.
    """
    if measure.dimension != grid.n:
        raise GridMismatch(f"{measure.dimension}-D measure on a {grid.n}-D grid")
    if measure.kind != "atomic":
        return _convolve_field(measure.as_density(grid), *families)

    def kernels(offsets):
        return (k for order, family in families for k in family(grid, order, offsets))

    # an empty mesh counts the kernels, so a measure without atoms gives zeros
    sums = [np.zeros(grid.shape) for _ in kernels([np.empty(0)] * grid.n)]
    for atom, w in zip(measure.atoms, measure.weights):
        for acc, k in zip(sums, kernels(grid.offsets(atom))):
            acc += w * k
    return [GridField(grid, v) for v in sums]


def riesz_potential_measure(measure: Measure, alpha: float, grid: Grid) -> GridField:
    """I_alpha(omega) at the cell centers: exact kernel sums for atoms, else one convolution."""
    return _measure_potentials(measure, grid, (alpha, _scalar_kernels))[0]


def riesz_gradient_measure(measure: Measure, s: float, grid: Grid) -> VectorGridField:
    """Gradient of I_2s(omega): exact kernel sums for atoms, else one convolution."""
    return VectorGridField(grid, tuple(_measure_potentials(measure, grid, (s, _gradient_kernels))))


def riesz_potential_and_gradient_measure(
    measure: Measure, s: float, grid: Grid
) -> tuple[GridField, VectorGridField]:
    """I_2s(omega) and its gradient, from one pass over the atoms or one transform.

    Bitwise equal to riesz_potential_measure(measure, 2s, grid) and
    riesz_gradient_measure(measure, s, grid).
    """
    u, *grad = _measure_potentials(
        measure, grid, (2.0 * s, _scalar_kernels), (s, _gradient_kernels)
    )
    return u, VectorGridField(grid, tuple(grad))
