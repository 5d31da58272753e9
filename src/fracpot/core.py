"""Model parameters, grids, fields and measures.

The model lives on R^n with a fractional order s in (1/2, 1) and a gradient
exponent q above the critical value n/(n - 2s + 1).  All discrete objects sit
on a cell-centered uniform grid over the box [-L, L]^n; densities are
piecewise constant on cells and atoms are exact points.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, GridMismatch
from .special import ball_volume


@dataclass(frozen=True)
class Parameters:
    """Validated model parameters.

    p is the conjugate exponent q/(q-1) and p_star the critical exponent
    n/(n - 2s + 1); q must exceed p_star for the smallness machinery to have
    any admissible measure at all.
    """

    n: int
    s: float
    q: float
    p: float = field(init=False)
    p_star: float = field(init=False)

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise ConfigError(f"dimension must be an integer >= 2, got {self.n!r}")
        if not 0.5 < self.s < 1.0:
            raise ConfigError(f"s must lie in (1/2, 1), got {self.s}")
        if self.n < 2 or self.n <= 2.0 * self.s:
            raise ConfigError(f"need n > 2s with n >= 2, got n={self.n}, s={self.s}")
        p_star = self.n / (self.n - 2.0 * self.s + 1.0)
        if not p_star < self.q < np.inf:
            raise ConfigError(
                f"q must exceed n/(n-2s+1) = {p_star:.6g} and be finite, got q={self.q}"
            )
        object.__setattr__(self, "p", self.q / (self.q - 1.0))
        object.__setattr__(self, "p_star", p_star)


def squared_norm(offsets: list[np.ndarray]) -> np.ndarray:
    """|y|^2 over an open meshgrid of displacements y, summed axis by axis.

    The one place distances on the grid are computed: the same y gives the same bits.
    """
    out = np.empty(np.broadcast_shapes(*[y.shape for y in offsets]))
    np.square(offsets[0], out=out)
    for y in offsets[1:]:
        out += y**2
    return out


def sup_ratio(num: np.ndarray, den: np.ndarray, empty: float) -> float:
    """max num / den over the cells where den exceeds 1e-14 of its maximum; empty if none does.

    The floor is relative, so scaling the datum does not move the set of cells kept.
    """
    keep = den > 1e-14 * np.max(den)
    return float(np.max(num[keep] / den[keep])) if keep.any() else empty


@dataclass(frozen=True)
class Grid:
    """Cell-centered uniform grid on [-L, L]^n with N cells per axis."""

    n: int
    L: float
    N: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigError("grid dimension must be positive")
        if self.N < 2:
            raise ConfigError("need at least two cells per axis")
        if not self.L > 0.0:
            raise ConfigError("box half-width must be positive")
        if not self.L < np.inf:
            raise ConfigError(f"box half-width must be finite, got {self.L}")
        if not 4.0 * self.n * self.L * self.L < np.inf:
            raise ConfigError(f"box half-width {self.L} is too large: squared distances overflow")

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.N

    @property
    def cell_volume(self) -> float:
        return self.h**self.n

    @property
    def size(self) -> int:
        return self.N**self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * self.n

    def axis(self) -> np.ndarray:
        """Cell centers along one axis: -L + (i + 1/2) h."""
        return -self.L + (np.arange(self.N) + 0.5) * self.h

    def coords(self, block: tuple[slice, ...] | None = None) -> list[np.ndarray]:
        """Open (broadcastable) meshgrid of cell-center coordinates, or of a block."""
        axis = self.axis()
        block = block or (slice(None),) * self.n
        return list(np.meshgrid(*[axis[b] for b in block], indexing="ij", sparse=True))

    def offsets(self, x0, block: tuple[slice, ...] | None = None) -> list[np.ndarray]:
        """Open meshgrid of the displacements x - x0 of the cell centers, or of a block's.

        A point x0 of another dimension than the grid is a GridMismatch.
        """
        x0 = np.asarray(x0, dtype=float).ravel()
        if x0.size != self.n:
            raise GridMismatch(f"{x0.size}-D point on a {self.n}-D grid")
        reach = float(np.hypot.reduce(np.abs(x0) + self.L))  # bounds |x - x0| on the box
        if not reach * reach < np.inf:
            raise ConfigError(f"point {tuple(x0.tolist())} is too far from the box: "
                              "squared distances overflow")
        return [c - x0[i] for i, c in enumerate(self.coords(block))]

    def dist2(self, x0) -> np.ndarray:
        """Squared distance from x0 of every cell center."""
        return squared_norm(self.offsets(x0))

    def radii(self) -> np.ndarray:
        """Distance of every cell center from the origin, grid-shaped."""
        return np.sqrt(self.dist2(np.zeros(self.n)))

    def zeros(self) -> "GridField":
        return GridField(self, np.zeros(self.shape))


@dataclass
class GridField:
    """Scalar field sampled at cell centers; float64, row-major."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != self.grid.shape:
            raise GridMismatch(
                f"field shape {self.values.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ConfigError("field contains non-finite entries")


@dataclass
class VectorGridField:
    """One GridField per component, all on the same grid."""

    grid: Grid
    components: tuple[GridField, ...]

    def __post_init__(self) -> None:
        if len(self.components) != self.grid.n:
            raise GridMismatch("component count must equal the grid dimension")
        for comp in self.components:
            if comp.grid != self.grid:
                raise GridMismatch("vector components live on different grids")

    def magnitude(self) -> GridField:
        return GridField(self.grid, np.sqrt(squared_norm([c.values for c in self.components])))


def check_box(measure: "Measure", grid: Grid) -> None:
    """Refuse a box with L below 4 R: the admissibility sup is near-field only from there."""
    if grid.L < 4.0 * measure.support_radius:
        raise ConfigError(f"box half-width {grid.L} below 4 x support radius "
                          f"{measure.support_radius}")


@dataclass
class Measure:
    """Nonnegative finite measure: atoms, a gridded density, or a uniform ball.

    support_radius is the radius R of a ball around the origin containing the
    support; several admissibility checks compare it against the box size.
    """

    kind: str
    support_radius: float
    atoms: np.ndarray | None = None
    weights: np.ndarray | None = None
    density: GridField | None = None
    ball_center: np.ndarray | None = None
    ball_radius: float | None = None
    ball_amplitude: float | None = None

    @classmethod
    def from_atoms(
        cls, points: np.ndarray, weights: np.ndarray, support_radius: float | None = None
    ) -> "Measure":
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        w = np.asarray(weights, dtype=float).ravel()
        if pts.shape[0] != w.shape[0]:
            raise ConfigError("one weight per atom required")
        if np.any(w < 0.0):
            raise ConfigError("atom weights must be nonnegative")
        norms = np.linalg.norm(pts, axis=1)
        radius = float(np.max(norms)) if pts.size else 0.0
        if support_radius is None:
            support_radius = radius
        elif radius > support_radius * (1.0 + 1e-12) + 1e-300:
            raise ConfigError("an atom lies outside the declared support ball")
        return cls(kind="atomic", support_radius=float(support_radius), atoms=pts, weights=w)

    @classmethod
    def from_density(cls, density: GridField, support_radius: float | None = None) -> "Measure":
        if np.any(density.values < 0.0):
            raise ConfigError("density must be nonnegative")
        radii = density.grid.radii()
        nonzero = density.values > 0.0
        reach = float(np.max(radii[nonzero])) if np.any(nonzero) else 0.0
        if support_radius is None:
            support_radius = reach
        elif reach > support_radius * (1.0 + 1e-12) + 1e-300:
            raise ConfigError("density has mass outside the declared support ball")
        return cls(kind="density", support_radius=float(support_radius), density=density)

    @classmethod
    def uniform_ball(
        cls, center: np.ndarray, radius: float, amplitude: float = 1.0,
        support_radius: float | None = None,
    ) -> "Measure":
        """support_radius is |center| + radius; a declared one must contain the ball."""
        center = np.asarray(center, dtype=float).ravel()
        if radius <= 0.0:
            raise ConfigError("ball radius must be positive")
        if amplitude < 0.0:
            raise ConfigError("ball density must be nonnegative")
        reach = float(np.linalg.norm(center) + radius)
        if support_radius is not None and reach > support_radius * (1.0 + 1e-12) + 1e-300:
            raise ConfigError("the ball lies outside the declared support ball")
        return cls(
            kind="uniform_ball",
            support_radius=reach,
            ball_center=center,
            ball_radius=float(radius),
            ball_amplitude=float(amplitude),
        )

    @property
    def dimension(self) -> int:
        if self.kind == "atomic":
            return int(self.atoms.shape[1])
        if self.kind == "density":
            return self.density.grid.n
        return int(self.ball_center.shape[0])

    def total_mass(self) -> float:
        if self.kind == "atomic":
            return float(np.sum(self.weights))
        if self.kind == "density":
            g = self.density.grid
            return float(np.sum(self.density.values) * g.cell_volume)
        n = self.dimension
        return self.ball_amplitude * ball_volume(n) * self.ball_radius**n

    def scaled(self, t: float) -> "Measure":
        """The measure t * omega (same support, weights multiplied by t)."""
        if t < 0.0:
            raise ConfigError("scaling factor must be nonnegative")
        if self.kind == "atomic":
            return replace(self, weights=self.weights * t)
        if self.kind == "density":
            scaled = GridField(self.density.grid, self.density.values * t)
            return replace(self, density=scaled)
        return replace(self, ball_amplitude=self.ball_amplitude * t)

    def as_density(self, grid: Grid) -> GridField:
        """Piecewise-constant density of this measure on the given grid.

        Atomic measures have no density representation; callers evaluate
        their potentials analytically instead.  A measure of another
        dimension than the grid is a GridMismatch, and a ball that holds no
        cell center is refused: its density would be zero, its mass not.
        """
        if self.kind == "density":
            if self.density.grid != grid:
                raise GridMismatch("density measure lives on a different grid")
            return self.density
        if self.kind == "uniform_ball":
            # dist2 stays alive until the density is made: freed before it, it
            # lifts glibc's mmap threshold, the density lands on the heap and a
            # solve's peak RSS rises (n=2, N=1024: 159.6 -> 165.7 MB)
            dist2 = grid.dist2(self.ball_center)
            inside = dist2 < self.ball_radius**2
            if not inside.any():
                raise ConfigError(
                    f"the ball of radius {self.ball_radius} at {tuple(self.ball_center.tolist())} "
                    f"holds no cell center of the grid with h = {grid.h}; refine the grid")
            return GridField(grid, np.where(inside, self.ball_amplitude, 0.0))
        raise ConfigError("atomic measures are evaluated analytically, not rasterised")
