"""Independent reference computations used to pin test expectations.

Everything here is built from textbook identities and generic quadrature,
deliberately avoiding the package's own code paths so the two sides of each
comparison share nothing but the mathematics.  The two exceptions are
picard_step_whole_arrays, the whole-array form of a Picard step, which holds
the streamed solver step to the engine's own convolution byte for byte, and
stage_cuts, which shows that a test's budget really cuts the engine's stages.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.fft
from scipy.integrate import dblquad, tplquad
from scipy.linalg import cholesky, solve_triangular
from scipy.optimize import nnls
from scipy.signal import convolve
from scipy.special import gamma, hyp1f1, j0, jv, zeta

from fracpot import riesz
from fracpot.core import GridField, VectorGridField, squared_norm


def lngamma_series(x: float, terms: int = 50) -> float:
    """ln Gamma(x) from the Taylor series of ln Gamma(2+z) at z = 0.

    ln Gamma(2+z) = z(1 - gamma) + sum_{k>=2} (-1)^k (zeta(k) - 1) z^k / k,
    convergent for |z| < 2; arguments are shifted into [2, 3) by the
    recurrence Gamma(x+1) = x Gamma(x) first.
    """
    if x <= 0.0:
        raise ValueError("series oracle only covers positive arguments")
    shift = 0.0
    while x < 2.0:
        shift -= np.log(x)
        x += 1.0
    while x >= 3.0:
        x -= 1.0
        shift += np.log(x)
    z = x - 2.0
    total = z * (1.0 - np.euler_gamma)
    zk = z
    for k in range(2, terms + 2):
        zk *= z
        total += (-1.0) ** k * (zeta(k) - 1.0) / k * zk
    return shift + total


def gamma_series(x: float, terms: int = 50) -> float:
    return float(np.exp(lngamma_series(x, terms)))


def fraclap_gaussian_radial(
    r: np.ndarray, s: float, sigma: float = 1.0
) -> np.ndarray:
    """(-Delta)^s of exp(-|x|^2 / (2 sigma^2)) in the plane, radially.

    Hankel form: f(r) = sigma^(-2s) int_0^inf rho^(2s+1) e^(-rho^2/2)
    J_0(rho r / sigma) d rho, evaluated by plain trapezoid on [0, 40], once
    per distinct radius.
    """
    rho = np.linspace(0.0, 40.0, 20001)
    base = rho ** (2.0 * s + 1.0) * np.exp(-0.5 * rho**2)
    r = np.atleast_1d(np.asarray(r, dtype=float))
    distinct, which = np.unique(r, return_inverse=True)
    out = np.array([np.trapezoid(base * j0(rho * ri / sigma), rho) for ri in distinct])
    return sigma ** (-2.0 * s) * out[which].reshape(r.shape)


def fraclap_gaussian_closed_form(
    r: np.ndarray, n: int, s: float, sigma: float = 1.0
) -> np.ndarray:
    """(-Delta)^s of exp(-|x|^2 / (2 sigma^2)) in R^n, radially, in closed form.

    (2/sigma^2)^s Gamma(n/2 + s)/Gamma(n/2) 1F1(n/2 + s; n/2; -r^2/(2 sigma^2))
    (Dyda, Fract. Calc. Appl. Anal. 15, 2012), by scipy.special.hyp1f1.
    """
    r = np.asarray(r, dtype=float)
    scale = (2.0 / sigma**2) ** s * gamma(n / 2.0 + s) / gamma(n / 2.0)
    return scale * hyp1f1(n / 2.0 + s, n / 2.0, -0.5 * r**2 / sigma**2)


def fraclap_gaussian_periodized(
    x: np.ndarray, y: np.ndarray, s: float, L: float, sigma: float = 1.0, images: int = 3
) -> np.ndarray:
    """Periodization of the free-space closed form in the plane over the 2L-periodic lattice."""
    shifts = 2.0 * L * np.arange(-images, images + 1)
    return sum(
        fraclap_gaussian_closed_form(np.hypot(x - sx, y - sy), 2, s, sigma)
        for sx in shifts
        for sy in shifts
    )


def weak_residual_per_test_function(u, grad_u, omega, params, family) -> list[float]:
    """The weak residuals, with (-Delta)^s moved onto each test function.

    Each phi on the grid gets its own periodic (-Delta)^s from scipy.fft,
    with the symbol |xi|^(2s), xi_k = pi k / L, on the full spectrum; the
    a-term is u dotted against that transform, plus each atom's quadrature
    correction dotted against it on the correction's block.  The b- and
    c-terms and the relative defect are those fraclap.weak_residual
    documents.
    """
    from fracpot.riesz import atom_quadrature_correction

    g = u.grid
    xi = np.pi * scipy.fft.fftfreq(g.N, d=1.0 / g.N) / g.L
    symbol = sum(m**2 for m in np.meshgrid(*[xi] * g.n, indexing="ij")) ** params.s
    corrections = []
    if omega.kind == "atomic":
        corrections = [
            (w, *atom_quadrature_correction(g, atom, 2.0 * params.s))
            for atom, w in zip(omega.atoms, omega.weights)
        ]
    else:
        density = omega.as_density(g).values
    grad_q = None if grad_u is None else grad_u.magnitude().values ** params.q
    residuals = []
    for phi in family:
        phig = phi.on_grid(g).values
        lap_phi = scipy.fft.ifftn(symbol * scipy.fft.fftn(phig)).real
        a_term = np.sum(u.values * lap_phi) * g.cell_volume
        for w, block, delta in corrections:
            a_term += w * np.sum(delta * lap_phi[block]) * g.cell_volume
        if omega.kind == "atomic":
            c_term = np.sum(omega.weights * phi.evaluate(omega.atoms))
        else:
            c_term = np.sum(density * phig) * g.cell_volume
        b_term = 0.0 if grad_q is None else np.sum(grad_q * phig) * g.cell_volume
        denom = max(abs(a_term), abs(b_term) + abs(c_term))
        defect = abs(a_term - b_term - c_term)
        residuals.append(float(defect / denom if denom else defect))
    return residuals


def riesz_gaussian_radial(r: np.ndarray, n: int, alpha: float) -> np.ndarray:
    """I_alpha of the unit-width Gaussian, for n = 2 via the Hankel transform.

    I_alpha has Fourier symbol |xi|^(-alpha), so the potential of
    exp(-|x|^2/2) is int_0^inf rho^(1-alpha) e^(-rho^2/2) J_0(rho r) d rho.
    The integrand has an algebraic endpoint singularity, so adaptive
    quadrature is split at rho = 1.
    """
    if n != 2:
        raise ValueError("oracle implemented for the plane only")
    from scipy.integrate import quad

    def integrand(rho: float, ri: float) -> float:
        return rho ** (1.0 - alpha) * np.exp(-0.5 * rho**2) * j0(rho * ri)

    r = np.atleast_1d(np.asarray(r, dtype=float))
    out = np.empty_like(r)
    for i, ri in enumerate(r.ravel()):
        head, _ = quad(integrand, 0.0, 1.0, args=(ri,), limit=200)
        tail, _ = quad(integrand, 1.0, 40.0, args=(ri,), limit=200)
        out.ravel()[i] = head + tail
    return out


def riesz_cell_average_quad(n: int, alpha: float, offset) -> float:
    """Average of c(n, alpha) |y|^(alpha - n) over the unit cube at offset.

    The cube is cut at the singularity (the origin) along every axis that it
    straddles, so each piece has the singularity at most at a corner.  On a
    piece, reflected into the positive orthant, the substitution y_i = u_i^2
    (Jacobian prod 2 u_i) leaves a bounded integrand that dblquad (n = 2) or
    tplquad (n = 3) integrate to near machine precision.  The constant is
    taken from scipy.special.gamma.
    """
    if n not in (2, 3):
        raise ValueError("oracle implemented for n = 2 and n = 3 only")
    c = np.pi ** (-n / 2.0) * 2.0**-alpha * gamma((n - alpha) / 2.0) / gamma(alpha / 2.0)
    power = (alpha - n) / 2.0
    axis_pieces = []
    for o in np.asarray(offset, dtype=float):
        lo, hi = o - 0.5, o + 0.5
        cuts = [lo, 0.0, hi] if lo < 0.0 < hi else [lo, hi]
        axis_pieces.append(
            [tuple(np.sqrt(sorted((abs(a), abs(b))))) for a, b in zip(cuts[:-1], cuts[1:])]
        )
    total = 0.0
    for piece in itertools.product(*axis_pieces):
        limits = [v for lim in piece for v in lim]
        if n == 2:
            val, _ = dblquad(
                lambda v, u: (u**4 + v**4) ** power * 4.0 * u * v,
                *limits, epsabs=0.0, epsrel=1e-12,
            )
        else:
            val, _ = tplquad(
                lambda w, v, u: (u**4 + v**4 + w**4) ** power * 8.0 * u * v * w,
                *limits, epsabs=0.0, epsrel=1e-12,
            )
        total += val
    return c * total


def _direct_kernel(n: int, N: int, h: float, alpha: float) -> np.ndarray:
    """The kernel c |x|^(alpha - n) at the offsets -(N-1)..N-1 per axis.

    The singular offset-zero cell takes the kernel's average over the ball
    with the volume of one cell.
    """
    c = np.pi ** (-n / 2.0) * 2.0**-alpha * gamma((n - alpha) / 2.0) / gamma(alpha / 2.0)
    off = np.arange(-(N - 1), N) * h
    mesh = np.meshgrid(*([off] * n), indexing="ij", sparse=True)
    r2 = sum(m**2 for m in mesh)
    centre = (N - 1,) * n
    r2[centre] = 1.0
    kern = c * r2 ** ((alpha - n) / 2.0)
    ball_volume = np.pi ** (n / 2.0) / gamma(n / 2.0 + 1.0)
    sphere_surface = 2.0 * np.pi ** (n / 2.0) / gamma(n / 2.0)
    rho = h * ball_volume ** (-1.0 / n)
    kern[centre] = c * sphere_surface * rho**alpha / (alpha * h**n)
    return kern


def riesz_direct_sum(values: np.ndarray, h: float, alpha: float) -> np.ndarray:
    """I_alpha of a gridded density by explicit summation over all cell pairs.

    O(N^(2n)) work, so only for small grids.
    """
    n, N = values.ndim, values.shape[0]
    kern = _direct_kernel(n, N, h, alpha)
    return convolve(values, kern, mode="same", method="direct") * h**n


def paper_ball_candidate(x0, r: float, alpha: float, grid) -> np.ndarray:
    """The flat ball candidate certifying the capacity upper bound.

    Height 2^(n - alpha) / (c(n, alpha) omega_n r^alpha), omega_n the surface
    2 pi^(n/2) / Gamma(n/2) of the unit sphere, on the cell centres strictly
    inside B_r(x0), zero elsewhere.
    """
    n = grid.n
    c = np.pi ** (-n / 2.0) * 2.0**-alpha * gamma((n - alpha) / 2.0) / gamma(alpha / 2.0)
    surface = 2.0 * np.pi ** (n / 2.0) / gamma(n / 2.0)
    dist2 = sum((x - y) ** 2 for x, y in zip(grid.coords(), x0))
    return np.where(dist2 < r * r, 2.0 ** (n - alpha) / (c * surface * r**alpha), 0.0)


def capacity_qp_oracle(mask: np.ndarray, h: float, alpha: float) -> float:
    """cap_{alpha,2} of the cells in mask as a quadratic programme.

    The rows of A are I_alpha e_j for the cells j of E, by the direct-sum
    kernel.  The minimiser of h^n |u|^2 subject to A u >= 1 is
    u = A^T mu / (2 h^n), where mu >= 0 maximises 1.mu - mu.G mu with
    G = A A^T / (4 h^n); with G = R^T R that is the nonnegative least-squares
    problem min |R mu - R^(-T) 1 / 2|, solved by scipy.optimize.nnls.
    """
    n, N = mask.ndim, mask.shape[0]
    hn = h**n
    kern = _direct_kernel(n, N, h, alpha)
    rows = [
        kern[tuple(slice(N - 1 - k, 2 * N - 1 - k) for k in j)].ravel() * hn
        for j in np.argwhere(mask)
    ]
    a = np.stack(rows)
    r = cholesky(a @ a.T / (4.0 * hn), lower=False)
    mu, _ = nnls(r, 0.5 * solve_triangular(r, np.ones(len(rows)), trans="T"))
    u = a.T @ mu / (2.0 * hn)
    return float(hn * np.sum(u**2))


def padded_fft_convolution(
    values: np.ndarray, kernel: np.ndarray, cell_volume: float
) -> np.ndarray:
    """Free-space convolution by unpruned numpy.fft transforms.

    kernel holds the kernel on the grid padded to 2N points per axis, offsets
    laid out circularly; both operands are transformed at full padded size
    and the result is cropped to the first N points per axis.
    """
    n, N = values.ndim, values.shape[0]
    shape, axes = (2 * N,) * n, tuple(range(n))
    prod = np.fft.rfftn(values, s=shape, axes=axes) * np.fft.rfftn(kernel, s=shape, axes=axes)
    return np.fft.irfftn(prod, s=shape, axes=axes)[(slice(0, N),) * n] * cell_volume


def riesz_potential_and_gradient_field(f, s):
    """I_2s f and grad I_2s f as new fields, from one forward transform of f.

    The engine's array path with the Picard step's two kernel families,
    each output bitwise equal to a convolution of f with its kernel alone.
    """
    u, *grad = riesz._convolve_field(
        f, (2.0 * s, riesz._scalar_kernels), (s, riesz._gradient_kernels)
    )
    return u, VectorGridField(f.grid, tuple(grad))


def picard_step_whole_arrays(params, grid, u0, g0, u, grad):
    """One Picard step on whole arrays, out of place.

    |grad u|^q is formed whole, I_2s of it and its gradient come from
    riesz_potential_and_gradient_field above, and the datum's u0 and g0 are added
    to new arrays.  Returns u_{k+1}, grad u_{k+1}, sup |u_{k+1} - u|,
    sup |grad u - grad u_{k+1}| and sup |u_{k+1}|.
    """
    gq = GridField(grid, np.sqrt(squared_norm(grad)) ** params.q)
    pot, pot_grad = riesz_potential_and_gradient_field(gq, params.s)
    u_next = pot.values + u0
    g_next = [c.values + d for c, d in zip(pot_grad.components, g0)]
    inc = float(np.max(np.abs(u_next - u)))
    ginc = float(np.max(np.sqrt(squared_norm([g - gn for g, gn in zip(grad, g_next)]))))
    return u_next, g_next, inc, ginc, float(np.max(np.abs(u_next)))


def stage_cuts(monkeypatch, run) -> tuple[list[int], list[int]]:
    """The chunk count of each engine stage run() goes through, and its slab widths, in order.

    run() goes on one worker, so that the counts come in the stages' order.
    """
    counts, widths = [], []
    in_chunks, pad_forward = riesz._in_chunks, riesz._pad_forward

    def count_spy(work, count, step):
        counts.append(-(-count // step))
        in_chunks(work, count, step)

    def width_spy(src, slab, crop):
        widths.append(slab.shape[-1])
        pad_forward(src, slab, crop)

    with monkeypatch.context() as m:
        m.setattr(riesz, "_in_chunks", count_spy)
        m.setattr(riesz, "_pad_forward", width_spy)
        with riesz.fft_workers(1):
            run()
    return counts, widths


def padded_offsets(n: int, N: int, h: float) -> list[np.ndarray]:
    """Open meshgrid of the offsets k h on the grid padded to 2N points per axis.

    Laid out circularly as padded_fft_convolution expects: k = 0..N, -N+1..-1.
    """
    axis = np.concatenate([np.arange(0, N + 1), np.arange(-N + 1, 0)]) * h
    return np.meshgrid(*[axis] * n, indexing="ij", sparse=True)


def bessel_j(nu: float, x: np.ndarray) -> np.ndarray:
    return jv(nu, x)


def quasinorm_grid_value(v, kappa: float, weight_s: float, levels: int = 64) -> float:
    """Weak-type quasinorm sup_lambda lambda mu(|v| > lambda)^(1/kappa), with
    lambda restricted to a log grid around the median of |v|.

    mu is dx / (1 + |x|^(n + 2 weight_s)).  The exact supremum is attained
    just below a data value, which a fixed grid can miss, so this value can
    only undershoot the exact one.
    """
    g = v.grid
    mags = np.abs(v.values)
    pivot = float(np.median(mags)) or float(np.max(mags))
    if pivot == 0.0:
        return 0.0
    w = g.cell_volume / (1.0 + g.radii() ** (g.n + 2.0 * weight_s))
    lams = pivot * np.logspace(-6.0, 6.0, levels)
    return max(lam * float(np.sum(w[mags > lam])) ** (1.0 / kappa) for lam in lams)


def atom_level_window(u, params) -> tuple[float, float]:
    """Levels lambda at which {I_2s(delta_0) > lambda} is a ball of radius L/2 and 10h.

    The superlevel sets of c(n, 2s) |x|^(2s-n) are balls; between these two
    levels they are resolved by the grid and lie well inside the box.  The
    Riesz constant c(n, 2s) is the textbook Gamma-function formula.
    """
    n, alpha = u.grid.n, 2.0 * params.s
    c = math.pi ** (-n / 2.0) * 2.0**-alpha * math.gamma((n - alpha) / 2.0) / math.gamma(alpha / 2.0)
    expo = alpha - n
    return c * (0.5 * u.grid.L) ** expo, c * (10.0 * u.grid.h) ** expo
