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
trades for cell averages.  Where the displacements are exact multiples of h
(a dyadic grid), a unit atom at a cell center reproduces the convolution
kernel bit for bit.

Every other measure is rasterised and convolved, in one free-space
convolution on the grid padded to 2N points per axis, by numpy.fft
transforms, one axis per pass, pruned of the all-zero input lines and the
cropped output lines (Hockney-Eastwood).  Each padded kernel is even or odd
in every axis, so its transform is real or imaginary and is fixed by its
values on the octant of frequencies 0..N: it is built there by a DCT-I (a
DST-I along the odd axis of a gradient component), cached as one real
(N+1)^n array, and mirrored over the spectrum when it multiplies.  I_2s and
its gradient share one forward transform, or one pass over the atoms.
Every transform equals scipy.fft's bit for bit.  Large transforms split
their lines over every available CPU (fft_workers changes the count), which
never changes a result.

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
from .errors import AlphaOutOfRange, ConfigError, GridMismatch, NegativeDensity
from .special import ball_volume, gamma, sphere_surface


def riesz_constant(n: int, alpha: float) -> float:
    """Normalisation c(n, alpha) of the Riesz kernel; requires 0 < alpha < n."""
    if not 0.0 < alpha < n:
        raise AlphaOutOfRange(f"alpha must lie in (0, {n}), got {alpha}")
    return (
        math.pi ** (-n / 2.0)
        * 2.0**-alpha
        * gamma((n - alpha) / 2.0)
        / gamma(alpha / 2.0)
    )


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
# Exact cell averages of the kernel near its singularity.  The integral of
# |y|^(alpha - n) over a box [0, A_1] x ... x [0, A_n] with the singularity at
# a corner splits into n pyramids with apex at the origin, one per far face
# {y_k = A_k}.  Duffy's substitution y = t p, p on that face, turns each into
#
#     (A_k / alpha) * integral_face |p|^(alpha - n) dS(p),
#
# which has no singularity left; the face integrand is only near-singular at
# the corner closest to the origin, on the scale A_k, so each face axis gets
# composite Gauss-Legendre graded geometrically away from that corner.  Any
# other box is a signed sum over its 2^n corners of such corner boxes (the
# integrand is even in every coordinate), which amounts to splitting a cell
# at the singularity.  Boxes at least one side length away from the
# singularity take plain tensor Gauss-Legendre instead, where the corner sum
# would cancel.

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
_GRADING_RATIO = 4.0


def _graded_rule(length: float, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre on [0, length], panels [0, scale], [scale, 4 scale], ..."""
    breaks = [0.0]
    b = scale
    while b < length:
        breaks.append(b)
        b *= _GRADING_RATIO
    breaks.append(length)
    lo = np.array(breaks[:-1])[:, None]
    half = 0.5 * np.diff(breaks)[:, None]
    return (lo + half * (_GL_NODES + 1.0)).ravel(), (half * _GL_WEIGHTS).ravel()


def _tensor_sum(rules: list[tuple[np.ndarray, np.ndarray]], integrand) -> float:
    """Tensor-product quadrature: rules[j] holds the nodes and weights of axis j."""
    nodes = np.meshgrid(*[r[0] for r in rules], indexing="ij", sparse=True)
    weights = np.ones(())
    for _, w in rules:
        weights = np.multiply.outer(weights, w)
    return float(np.sum(weights * integrand(nodes)))


def _corner_box_integral(extent: np.ndarray, alpha: float) -> float:
    """Integral of |y|^(alpha - n) over [0, extent_1] x ... x [0, extent_n]."""
    n = extent.size
    if np.min(extent) <= 0.0:
        return 0.0
    total = 0.0
    for k in range(n):
        ak = float(extent[k])
        rules = [_graded_rule(float(extent[j]), ak) for j in range(n) if j != k]
        face = _tensor_sum(
            rules, lambda p: (ak * ak + sum(x * x for x in p)) ** ((alpha - n) / 2.0)
        )
        total += ak / alpha * face
    return total


def _box_integral(lo: np.ndarray, hi: np.ndarray, alpha: float) -> float:
    """Integral of |y|^(alpha - n) over the box [lo, hi]."""
    n = lo.size
    gap = np.sqrt(np.sum(np.maximum(np.maximum(lo, -hi), 0.0) ** 2))
    if gap >= np.max(hi - lo):
        half = 0.5 * (hi - lo)
        rules = [
            (lo[j] + half[j] * (_GL_NODES + 1.0), half[j] * _GL_WEIGHTS) for j in range(n)
        ]
        return _tensor_sum(rules, lambda y: sum(x * x for x in y) ** ((alpha - n) / 2.0))
    total = 0.0
    for upper in np.ndindex(*(2,) * n):
        corner = np.where(upper, hi, lo)
        sign = np.prod(np.where(upper, 1.0, -1.0) * np.sign(corner))
        if sign != 0.0:
            total += sign * _corner_box_integral(np.abs(corner), alpha)
    return total


def riesz_cell_average(n: int, alpha: float, offset) -> float:
    """Exact average of c(n, alpha) |y|^(alpha - n) over the unit cube at offset.

    The cube is [offset - 1/2, offset + 1/2]^n in units of the cell side, the
    singularity sits at the origin and may lie anywhere, inside the cube, on
    its boundary or outside.  For cells of side h the average scales by
    homogeneity: multiply by h^(alpha - n).
    """
    c = riesz_constant(n, alpha)
    centre = np.asarray(offset, dtype=float).reshape(n)
    return c * _box_integral(centre - 0.5, centre + 0.5, alpha)


# Half-width, in cells, of the block around an atom on which stored point
# samples of the kernel are compared with exact cell averages.
_ATOM_STENCIL_HALF_WIDTH = 3


@lru_cache(maxsize=256)
def _atom_stencil_averages(n: int, alpha: float, frac: tuple[float, ...]) -> np.ndarray:
    """riesz_cell_average over the stencil j in [-K, K]^n at offsets j - frac."""
    K = _ATOM_STENCIL_HALF_WIDTH
    table = np.empty((2 * K + 1,) * n)
    for idx in np.ndindex(*table.shape):
        table[idx] = riesz_cell_average(n, alpha, np.array(idx) - K - np.array(frac))
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
# bit for bit.

# Transforms of at least this many padded points split their lines over
# every worker; smaller ones run on one, where handing out work costs more
# than it saves.
_PARALLEL_MIN_POINTS = 2**20

FFT_BACKEND = f"numpy.fft (pocketfft), numpy {np.__version__}"


def available_cpus() -> int:
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_FFT_WORKERS = ContextVar("fft_workers", default=available_cpus())


def fft_worker_count() -> int:
    """Workers the engine gives to a large transform."""
    return _FFT_WORKERS.get()


@contextmanager
def fft_workers(count: int):
    """Run large transforms on count workers inside the block; results do not change."""
    if count < 1:
        raise ConfigError(f"FFT worker count must be at least 1, got {count}")
    token = _FFT_WORKERS.set(count)
    try:
        yield
    finally:
        _FFT_WORKERS.reset(token)


def _workers(points: int) -> int:
    return _FFT_WORKERS.get() if points >= _PARALLEL_MIN_POINTS else 1


@lru_cache(maxsize=None)
def _thread_pool(workers: int):
    """The threads that share the large transforms, started by the first of them."""
    # imported on first use, so that start-up and runs of small transforms never load it
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=workers, thread_name_prefix="fracpot-fft")


def _over_lines(task, shape: tuple[int, ...], axis: int, points: int) -> None:
    """task(block) over the lines along axis of an array of shape, in blocks.

    The lines of a transform of fewer than _PARALLEL_MIN_POINTS (padded)
    points are one block; a larger transform is cut across another axis into
    one block per worker, and numpy.fft releases the GIL, so the blocks run
    in parallel.  Each line is transformed whole either way, so the cut
    never changes a bit.
    """
    across = 1 if axis == 0 else 0
    w = min(_workers(points), shape[across]) if len(shape) > 1 else 1
    if w == 1:
        task(...)
        return
    cuts = [shape[across] * k // w for k in range(w + 1)]
    blocks = [(slice(None),) * across + (slice(a, b),) for a, b in zip(cuts, cuts[1:])]
    for done in [_thread_pool(w).submit(task, block) for block in blocks]:
        done.result()


def _transform(fn, a: np.ndarray, out: np.ndarray, axis: int, points: int, **kw) -> None:
    """The numpy.fft pass fn(a, axis=axis, **kw), written into out (which may be a)."""
    _over_lines(lambda b: fn(a[b], axis=axis, out=out[b], **kw), a.shape, axis, points)


def _rfftn_padded(values: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """rfftn of values zero-padded to shape.

    The rfft rows land in a zeroed padded buffer and each further axis is
    transformed in place on the lines that hold data only, so no all-zero
    line is transformed.  The passes run in pocketfft's n-D order: the last
    axis first, the others in increasing order.
    """
    n, points = values.ndim, math.prod(shape)
    data = tuple(slice(0, m) for m in values.shape)
    out = np.zeros(shape[:-1] + (shape[-1] // 2 + 1,), dtype=complex)
    _transform(np.fft.rfft, values, out[data[:-1]], n - 1, points, n=shape[-1])
    for ax in range(n - 1):
        live = out[(slice(None),) * (ax + 1) + data[ax + 1 : -1]]
        _transform(np.fft.fft, live, live, ax, points)
    return out


def _irfftn_cropped(spec: np.ndarray, shape: tuple[int, ...], crop: tuple[int, ...],
                    norm: str | None = None) -> np.ndarray:
    """The first crop points per axis of irfftn(spec, s=shape, norm=norm).

    Each leading axis is cropped right after its inverse transform, so later
    transforms skip the lines the result discards; the last axis goes last,
    as in pocketfft.  spec is overwritten.
    """
    n, points = spec.ndim, math.prod(shape)
    for ax in range(n - 1):
        _transform(np.fft.ifft, spec, spec, ax, points, norm=norm)
        spec = spec[(slice(None),) * ax + (slice(0, crop[ax]),)]
    out = np.empty(spec.shape[:-1] + (shape[-1],))
    _transform(np.fft.irfft, spec, out, n - 1, points, n=shape[-1], norm=norm)
    return out[..., : crop[-1]]


def fourier_multiplier(values: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    """Periodic Fourier multiplier on the grid itself: irfftn(symbol * rfftn(values)).

    The 1/size of the inverse is applied once, at the end, as a factor
    rounded from long double, as pocketfft applies it to an n-D transform;
    numpy's rfftn/irfftn order and scale the axes otherwise.
    """
    spec = _rfftn_padded(values, values.shape)
    spec *= symbol
    out = _irfftn_cropped(spec, values.shape, values.shape, norm="forward")
    out *= float(1 / np.longdouble(values.size))
    return out


# Lines a hat transform extends and transforms at a time, so that its
# scratch stays in cache.
_HAT_CHUNK_LINES = 64


def _real_line_transform(hat: np.ndarray, axis: int, odd: bool, points: int) -> None:
    """DCT-I of every line of hat along axis, or with odd its DST-I on points 1..N-1, in place.

    pocketfft's own route (scipy.fft.dct/dst type 1): the real FFT of the
    line's even extension to 2N points has the DCT-I as its real part; that
    of its odd extension has minus the DST-I as its imaginary part.  Each
    worker takes about _HAT_CHUNK_LINES lines at a time through scratch it
    allocates once.
    """
    N = hat.shape[axis] - 1
    # the trailing unit axis gives a 1-D hat an axis to cut across
    h = np.moveaxis(hat, axis, 0)[..., None]
    step = max(1, _HAT_CHUNK_LINES // math.prod(h.shape[2:]))

    def task(block):
        lines = h[block]
        ext = np.empty((2 * N, step) + h.shape[2:])
        spec = np.empty((N + 1, step) + h.shape[2:], dtype=complex)
        for j in range(0, lines.shape[1], step):
            chunk = lines[:, j : j + step]
            e, s = ext[:, : chunk.shape[1]], spec[:, : chunk.shape[1]]
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

    _over_lines(task, h.shape, 0, points)


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


_PLAN_CACHE: dict[tuple, list[np.ndarray]] = {}


def _kernel_hats(grid: Grid, order: float, family) -> list[tuple[np.ndarray, int | None]]:
    """Transforms of family(grid, order) on the padded grid, as (real octant, odd axis) pairs.

    On the grid padded to 2N points per axis the offsets run circularly,
    0..N, -N+1..-1 times h, and the slot at offset N is never read by the
    linear convolution restricted to the first N samples.  A kernel even in
    every axis has a real transform, the DCT-I of its samples on the octant
    of offsets 0..N; a kernel odd in axis i has -i times the DST-I along
    axis i (0 at frequencies 0 and N) of the DCT-I along the others.  So each
    hat is cached as that one real (N+1)^n array, per grid, order and
    family, and _apply_hat mirrors it over the rest of the spectrum.
    """
    n, N = grid.n, grid.N
    # component i of the gradient is odd in axis i, the scalar kernel is even
    odd_axes = range(n) if family is _gradient_kernels else [None]
    key = (n, N, float(grid.L).hex(), float(order).hex(), family.__name__)
    if key not in _PLAN_CACHE:
        points = (2 * N) ** n
        axis = np.arange(0, N + 1) * grid.h
        offsets = np.meshgrid(*[axis] * n, indexing="ij", sparse=True)
        hats = []
        for kern, odd in zip(family(grid, order, offsets), odd_axes):
            hat = _zero_offset_n_slots(kern, N)
            # scipy.fft.dctn's axis order, then the DST-I
            even = [ax for ax in range(n) if ax != odd]
            for ax in even if odd is None else even + [odd]:
                _real_line_transform(hat, ax, ax == odd, points)
            hats.append(hat)
        _PLAN_CACHE[key] = hats
    return list(zip(_PLAN_CACHE[key], odd_axes))


def clear_plan_cache() -> None:
    _PLAN_CACHE.clear()


def plan_cache_bytes() -> int:
    """Bytes held by the cached kernel hats."""
    return sum(hat.nbytes for hats in _PLAN_CACHE.values() for hat in hats)


@lru_cache(maxsize=8)
def _spectrum_blocks(n: int, N: int) -> tuple[tuple, ...]:
    """The blocks of the padded half spectrum, the octant view each reads, and the axes it mirrors.

    Frequencies 0..N of a leading axis read the octant as it is, N+1..2N-1
    read it backwards from N-1 to 1, as views; the last axis holds 0..N only.
    """
    blocks = []
    for mirrored in itertools.product((False, True), repeat=n - 1):
        mirrored += (False,)
        spec = tuple(slice(N + 1, 2 * N) if m else slice(0, N + 1) for m in mirrored)
        octant = tuple(slice(N - 1, 0, -1) if m else slice(None) for m in mirrored)
        blocks.append((spec, octant, mirrored))
    return tuple(blocks)


def _apply_hat(f_hat: np.ndarray, hat: np.ndarray, odd, N: int, out: np.ndarray) -> np.ndarray:
    """out = f_hat times the full transform the octant hat, odd in axis odd, stands for.

    out may be f_hat itself.
    """
    for spec, octant, mirrored in _spectrum_blocks(f_hat.ndim, N):
        dst = out[spec]
        np.multiply(f_hat[spec], hat[octant], out=dst)
        if odd is not None:
            # an odd kernel's hat is -i times the octant, +i where its odd axis is mirrored
            dst *= 1j if mirrored[odd] else -1j
    return out


def _convolve(f: GridField, *families: tuple[float, object]) -> list[GridField]:
    """f convolved with each kernel of the (order, family) pairs, from one transform of f."""
    if np.any(f.values < 0.0):
        raise NegativeDensity("potential of a signed density is not defined here")
    g = f.grid
    hats = [pair for order, family in families for pair in _kernel_hats(g, order, family)]
    padded = (2 * g.N,) * g.n
    f_hat = _rfftn_padded(f.values, padded)
    fields = []
    for k, (hat, odd) in enumerate(hats):
        # each product lives only through its own inverse transform (no name
        # holds it into the next one), and the last one takes the place of
        # f_hat, which nothing reads after it
        out = f_hat if k == len(hats) - 1 else np.empty_like(f_hat)
        spec = _apply_hat(f_hat, hat, odd, g.N, out)
        del out
        fields.append(GridField(g, _irfftn_cropped(spec, padded, g.shape) * g.cell_volume))
        del spec
    return fields


def riesz_potential_field(f: GridField, alpha: float) -> GridField:
    """I_alpha of a nonnegative gridded density, by zero-padded FFT convolution."""
    return _convolve(f, (alpha, _scalar_kernels))[0]


def riesz_potential_and_gradient_field(
    f: GridField, s: float
) -> tuple[GridField, VectorGridField]:
    """I_2s f and grad I_2s f from one forward transform of f.

    Each output is bitwise equal to a convolution of f with its kernel alone.
    """
    u, *grad = _convolve(f, (2.0 * s, _scalar_kernels), (s, _gradient_kernels))
    return u, VectorGridField(f.grid, tuple(grad))


def _measure_potentials(measure: Measure, grid: Grid, *families) -> list[GridField]:
    """The potentials of measure under each kernel of the (order, family) pairs.

    Atoms are summed exactly, all families in one pass per atom; every other
    kind is rasterised and goes through one convolution.
    """
    if measure.dimension != grid.n:
        raise GridMismatch(f"{measure.dimension}-D measure on a {grid.n}-D grid")
    if measure.kind != "atomic":
        return _convolve(measure.as_density(grid), *families)

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
