"""Uniform-grid function states and plain vector states.

Functions f: R^d -> R^m (d in {1, 2}) are represented by their values on a
uniform grid over a centered box [-X_max, X_max]^d.  Outside the box a
function is either extended by zero (the stand-in for functions vanishing at
infinity) or by clamping to the boundary value (the stand-in for functions
with polynomial growth, measured in a weighted norm).  All norms and
distances are evaluated on grid nodes only.

Grids always have an odd number of nodes per axis so that the origin is a
node; node coordinates are computed as (2j - (n-1)) * X_max / (n-1), which
makes the node set exactly symmetric and places 0.0 exactly on the grid.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "GridFunction",
    "NonFiniteValuesError",
    "NormSpec",
    "VectorState",
    "grid_create",
    "sample_function",
    "distance",
    "lipschitz_constant_estimate",
    "interp_eval",
    "interior_mask",
    "ball_mask",
    "negate",
    "scale_values",
    "with_values",
    "write_csv",
    "read_csv_table",
    "PRESET_NAMES",
]


class NonFiniteValuesError(ValueError):
    """Raised by the state constructors when given NaN or infinite values."""


def _as_axis_tuple(value, dim):
    if np.ndim(value) == 0:
        return (value,) * dim
    out = tuple(value)
    if len(out) != dim:
        raise ValueError(f"expected {dim} per-axis entries, got {len(out)}")
    return out


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_dim(dim):
    if not (_is_integer(dim) and dim in (1, 2)):
        raise ValueError(f"dim must be the integer 1 or 2, got {dim!r}")


@dataclass(frozen=True)
class Grid:
    """Uniform grid over the box prod_a [-x_max[a], x_max[a]]."""

    dim: int
    x_max: tuple[float, ...]
    n_points: tuple[int, ...]

    def __post_init__(self):
        _check_dim(self.dim)
        for X in self.x_max:
            if not (X > 0):
                raise ValueError("x_max must be positive")
        for n in self.n_points:
            if not (_is_integer(n) and n >= 3 and n % 2 == 1):
                raise ValueError("n_points must be odd integers >= 3 so that 0"
                                 f" is a node, got {n!r}")

    @property
    def h(self) -> tuple[float, ...]:
        return tuple(2.0 * X / (n - 1) for X, n in zip(self.x_max, self.n_points))

    def axis(self, a: int) -> np.ndarray:
        n = self.n_points[a]
        j = np.arange(n, dtype=np.float64)
        # exact symmetry: node (n-1)/2 is exactly 0, node n-1-j is exactly -node j
        return (2.0 * j - (n - 1)) * (self.x_max[a] / (n - 1))

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.n_points))

    def node_coords(self) -> np.ndarray:
        """All node coordinates, shape (n_nodes, dim), row-major order."""
        if self.dim == 1:
            return self.axis(0)[:, None]
        g0, g1 = np.meshgrid(self.axis(0), self.axis(1), indexing="ij")
        return np.stack([g0.ravel(), g1.ravel()], axis=1)


def grid_create(dim: int, x_max, n_points) -> Grid:
    """Create a uniform grid; x_max and n_points may be scalar or per-axis."""
    _check_dim(dim)  # before the per-axis tuples are built from it
    return Grid(
        dim=int(dim),
        x_max=tuple(map(float, _as_axis_tuple(x_max, dim))),
        n_points=_as_axis_tuple(n_points, dim),
    )


@dataclass(frozen=True)
class GridFunction:
    """Node values of a function on a Grid.

    values has shape (n_nodes, m) in row-major node order.  extension_mode
    governs evaluation outside the box: 'zero' or 'clamp'.
    """

    grid: Grid
    codomain_dim: int
    values: np.ndarray
    extension_mode: str = "zero"

    def __post_init__(self):
        if self.extension_mode not in ("zero", "clamp"):
            raise ValueError("extension_mode must be 'zero' or 'clamp'")
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.shape != (self.grid.n_nodes, self.codomain_dim):
            raise ValueError(
                f"values shape {vals.shape} does not match "
                f"({self.grid.n_nodes}, {self.codomain_dim})"
            )
        if not np.all(np.isfinite(vals)):
            raise NonFiniteValuesError("values must be finite")
        vals = np.ascontiguousarray(vals)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def as_mesh(self) -> np.ndarray:
        """Values reshaped to (*n_points, m)."""
        return self.values.reshape(*self.grid.n_points, self.codomain_dim)


@dataclass(frozen=True)
class NormSpec:
    """Sup norm or the weighted norm with weight 1/(1+|x|^p)."""

    kind: str = "sup"
    p: float = 3.0

    def __post_init__(self):
        if self.kind not in ("sup", "weighted"):
            raise ValueError("kind must be 'sup' or 'weighted'")
        if self.kind == "weighted" and not self.p > 1:
            raise ValueError("weight exponent p must be > 1")

    def weights(self, grid: Grid) -> np.ndarray:
        """Node weights kappa(x); all ones for the sup norm."""
        if self.kind == "sup":
            return np.ones(grid.n_nodes)
        r = np.linalg.norm(grid.node_coords(), axis=1)
        return 1.0 / (1.0 + r**self.p)


@dataclass(frozen=True)
class VectorState:
    """A point of R^d, the state for the explicit-Euler ODE family."""

    coordinates: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coordinates, dtype=np.float64).ravel()
        if not np.all(np.isfinite(c)):
            raise NonFiniteValuesError("coordinates must be finite")
        c = np.ascontiguousarray(c)
        c.flags.writeable = False
        object.__setattr__(self, "coordinates", c)

    @property
    def dim(self) -> int:
        return self.coordinates.size


# ---------------------------------------------------------------------------
# sampling presets
# ---------------------------------------------------------------------------

def _preset_gaussian(coords):
    return np.exp(-np.sum(coords**2, axis=1))[:, None]


def _preset_cauchy(coords):
    return (1.0 / (1.0 + np.sum(coords**2, axis=1)))[:, None]


def _preset_hat(coords):
    return np.maximum(0.0, 1.0 - np.linalg.norm(coords, axis=1))[:, None]


def _preset_identity(coords):
    return coords.copy()


def _preset_zero(coords):
    return np.zeros((coords.shape[0], 1))


_PRESETS = {
    "gaussian_bump": (_preset_gaussian, "zero"),
    "cauchy_bump": (_preset_cauchy, "zero"),
    "hat": (_preset_hat, "zero"),
    "identity": (_preset_identity, "clamp"),
    "zero": (_preset_zero, "zero"),
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def sample_function(preset_or_table, grid: Grid) -> GridFunction:
    """Sample a named preset, or wrap an explicit node-value table.

    Presets default to zero extension; 'identity' and explicit tables default
    to clamp extension.
    """
    if isinstance(preset_or_table, str):
        try:
            fn, ext = _PRESETS[preset_or_table]
        except KeyError:
            raise ValueError(f"unknown preset {preset_or_table!r}") from None
        vals = fn(grid.node_coords())
        return GridFunction(grid, vals.shape[1], vals, extension_mode=ext)
    table = np.asarray(preset_or_table, dtype=np.float64)
    if table.ndim == 1:
        table = table[:, None]
    if table.shape[0] != grid.n_nodes:
        raise ValueError(
            f"table has {table.shape[0]} rows, grid has {grid.n_nodes} nodes"
        )
    return GridFunction(grid, table.shape[1], table, extension_mode="clamp")


# ---------------------------------------------------------------------------
# metric
# ---------------------------------------------------------------------------

def _check_compatible(f: GridFunction, g: GridFunction):
    if f.grid != g.grid or f.codomain_dim != g.codomain_dim:
        raise ValueError("grid functions live on different grids or codomains")


def distance(f: GridFunction, g: GridFunction, norm: NormSpec,
             mask: np.ndarray | None = None) -> float:
    """Node-evaluated distance: sup kind is the max Euclidean gap over nodes,
    weighted kind multiplies the gap by kappa(x) = 1/(1+|x|^p) first."""
    _check_compatible(f, g)
    gap = np.linalg.norm(f.values - g.values, axis=1)
    gap = gap * norm.weights(f.grid)
    if mask is not None:
        gap = gap[mask]
    return float(np.max(gap)) if gap.size else 0.0


def lipschitz_constant_estimate(f: GridFunction) -> float:
    """Axis-wise maximum of forward difference quotients over adjacent nodes."""
    mesh = f.as_mesh()
    best = 0.0
    for a in range(f.grid.dim):
        d = np.diff(mesh, axis=a)
        slopes = np.linalg.norm(d, axis=-1) / f.grid.h[a]
        if slopes.size:
            best = max(best, float(np.max(slopes)))
    return best


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------

def interp_eval(f: GridFunction, points) -> np.ndarray:
    """Multilinear interpolation at points of shape (..., dim).

    Outside the box the result is 0 (zero mode) or the value at the nearest
    box point (clamp mode).  For dim = 1, bare scalars or shape (...) arrays
    are also accepted.
    """
    pts = np.asarray(points, dtype=np.float64)
    scalar_in = False
    if f.grid.dim == 1 and (pts.ndim == 0 or pts.shape[-1:] != (1,)):
        pts = pts[..., None]
        scalar_in = pts.ndim == 1
    lead = pts.shape[:-1]
    pts = pts.reshape(-1, f.grid.dim)

    outside = np.zeros(pts.shape[0], dtype=bool)
    idx = []
    frac = []
    for a in range(f.grid.dim):
        axis = f.grid.axis(a)
        n = f.grid.n_points[a]
        outside |= (pts[:, a] < axis[0]) | (pts[:, a] > axis[-1])
        p = np.clip(pts[:, a], axis[0], axis[-1])
        j = np.clip(np.searchsorted(axis, p, side="right") - 1, 0, n - 2)
        # fraction from the actual cell endpoints: exact 0 at a node hit
        w = (p - axis[j]) / (axis[j + 1] - axis[j])
        idx.append(j)
        frac.append(w)

    mesh = f.as_mesh()
    if f.grid.dim == 1:
        j = idx[0]
        w = frac[0][:, None]
        out = (1.0 - w) * mesh[j] + w * mesh[j + 1]
    else:
        j0, j1 = idx
        w0 = frac[0][:, None]
        w1 = frac[1][:, None]
        out = ((1 - w0) * (1 - w1) * mesh[j0, j1]
               + (1 - w0) * w1 * mesh[j0, j1 + 1]
               + w0 * (1 - w1) * mesh[j0 + 1, j1]
               + w0 * w1 * mesh[j0 + 1, j1 + 1])
    if f.extension_mode == "zero":
        out[outside] = 0.0
    out = out.reshape(*lead, f.codomain_dim)
    if scalar_in and out.shape == (1, f.codomain_dim):
        out = out[0]
    return out


# ---------------------------------------------------------------------------
# node masks
# ---------------------------------------------------------------------------

def interior_mask(grid: Grid, margin: float) -> np.ndarray:
    """Boolean node mask keeping nodes at least `margin` inside every face."""
    coords = grid.node_coords()
    keep = np.ones(grid.n_nodes, dtype=bool)
    for a in range(grid.dim):
        keep &= np.abs(coords[:, a]) <= grid.x_max[a] - margin
    return keep


def ball_mask(grid: Grid, radius: float) -> np.ndarray:
    """Boolean node mask keeping nodes with |x| <= radius."""
    return np.linalg.norm(grid.node_coords(), axis=1) <= radius


# ---------------------------------------------------------------------------
# small functional helpers
# ---------------------------------------------------------------------------

def with_values(f: GridFunction, values: np.ndarray) -> GridFunction:
    return GridFunction(f.grid, f.codomain_dim, values, f.extension_mode)


def negate(f: GridFunction) -> GridFunction:
    return with_values(f, -f.values)


def scale_values(f: GridFunction, a: float) -> GridFunction:
    return with_values(f, a * f.values)


# ---------------------------------------------------------------------------
# CSV serialization: header x[,y],v1[,v2...], one row per node (row-major),
# 17 significant digits so a round trip is value-exact.  The rows are
# formatted in blocks, so only one block's text is held at a time.
# ---------------------------------------------------------------------------

_CSV_BLOCK_ROWS = 4096


def _csv_blocks(f: GridFunction):
    coord_names = ["x", "y"][: f.grid.dim]
    yield ",".join(coord_names + [f"v{i + 1}" for i in range(f.codomain_dim)]) + "\n"
    table = np.concatenate([f.grid.node_coords(), f.values], axis=1)
    row_fmt = ",".join(["%.17g"] * table.shape[1]) + "\n"
    for start in range(0, table.shape[0], _CSV_BLOCK_ROWS):
        block = table[start:start + _CSV_BLOCK_ROWS]
        yield (row_fmt * block.shape[0]) % tuple(block.ravel().tolist())


def serialize_csv(f: GridFunction) -> str:
    return "".join(_csv_blocks(f))


def write_csv(f: GridFunction, path) -> None:
    with open(path, "w") as fh:
        fh.writelines(_csv_blocks(f))


def read_csv_table(path) -> tuple[list[str], np.ndarray]:
    """Read a serialized grid function; returns (column names, data matrix).

    np.loadtxt parses the rows straight from the file, so no copy of the
    whole text is held.
    """
    with open(path) as fh:
        lines = (ln for ln in fh if ln.strip())
        header = next(lines, None)
        if header is None:
            raise ValueError(f"{path}: empty CSV")
        names = header.strip().split(",")
        first = next(lines, None)
        if first is None:
            raise ValueError(f"{path}: malformed CSV")
        try:
            data = np.loadtxt(itertools.chain([first], fh), delimiter=",",
                              ndmin=2)
        except ValueError:
            raise ValueError(f"{path}: malformed CSV") from None
    if data.shape[1] != len(names):
        raise ValueError(f"{path}: malformed CSV")
    return names, data
