"""Uniform-grid function states and plain vector states.

Functions f: R^d -> R^m (d in {1, 2}) are represented by their values on a
uniform grid over a centered box [-X_max, X_max]^d.  Outside the box a
function is either extended by zero (the stand-in for functions vanishing at
infinity) or by clamping to the boundary value (the stand-in for functions
with polynomial growth, measured in a weighted norm).  Their norms and
distances are evaluated on grid nodes only; vector states are measured by
their Euclidean distance.  `distance` and `with_values` serve both kinds.

Grids always have an odd number of nodes per axis so that the origin is a
node; node coordinates are computed as (2j - (n-1)) * X_max / (n-1), which
makes the node set exactly symmetric and places 0.0 exactly on the grid.
"""

from __future__ import annotations

import functools
import itertools
import numbers
import sys
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
    "interior_mask",
    "ball_mask",
    "negate",
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


def _is_finite_number(value) -> bool:
    """A real number, not a bool, within the float range: the comparisons
    are exact for integers of any size and false for NaN."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and -sys.float_info.max <= value <= sys.float_info.max)


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
            if not (_is_finite_number(X) and X > 0):
                raise ValueError(f"x_max must be finite positive numbers, got {X!r}")
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
        x_max=_as_axis_tuple(x_max, dim),
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
        if not _is_finite_number(self.p) or (self.kind == "weighted" and not self.p > 1):
            raise ValueError("weight exponent p must be a finite number, > 1 for the"
                             f" weighted norm, got {self.p!r}")

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
    def values(self) -> np.ndarray:
        return self.coordinates

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

def distance(f, g, norm: NormSpec | None,
             mask: np.ndarray | None = None) -> float:
    """Euclidean for vector states (norm None); node-evaluated for grid
    functions: sup kind is the max Euclidean gap over nodes, weighted kind
    multiplies the gap by kappa(x) = 1/(1+|x|^p) first."""
    if type(f) is not type(g) or f.values.shape != g.values.shape or (
            getattr(f, "grid", None) != getattr(g, "grid", None)):
        raise ValueError("states live on different grids, codomains or spaces")
    if isinstance(f, VectorState):
        return float(np.linalg.norm(f.values - g.values))
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

def with_values(x, values: np.ndarray):
    if isinstance(x, VectorState):
        return VectorState(values)
    return GridFunction(x.grid, x.codomain_dim, values, x.extension_mode)


def negate(f: GridFunction) -> GridFunction:
    return with_values(f, -f.values)


# ---------------------------------------------------------------------------
# CSV serialization: header x[,y],v1[,v2...], one row per node (row-major),
# 17 significant digits so a round trip is value-exact.  The coordinate text
# of a grid never changes, so it is formatted once into a template of
# blocks of rows with one %.17g field per value; a write formats only the
# values, one block at a time.
# ---------------------------------------------------------------------------

_CSV_BLOCK_ROWS = 4096


@functools.lru_cache(maxsize=1)
def _csv_template(grid: Grid, codomain_dim: int) -> tuple[str, int, tuple[str, ...]]:
    """(header, rows per block, row blocks) of the CSV text of the grid with
    codomain_dim value columns; the last grid's only.

    The rows of the last axis end in the value fields.  In 2D the block of
    axis-0 node x is those rows, each led by the text of x.
    """
    names = ["x", "y"][:grid.dim] + [f"v{i + 1}" for i in range(codomain_dim)]
    fields = ",%.17g" * codomain_dim + "\n"
    rows = ["%.17g" % y + fields for y in grid.axis(grid.dim - 1).tolist()]
    if grid.dim == 1:
        per = _CSV_BLOCK_ROWS
        blocks = tuple("".join(rows[i:i + per]) for i in range(0, len(rows), per))
    else:
        per = len(rows)
        blocks = tuple(p + p.join(rows) for p in
                       ("%.17g," % x for x in grid.axis(0).tolist()))
    return ",".join(names) + "\n", per, blocks


def write_csv(f: GridFunction, path) -> None:
    header, per, blocks = _csv_template(f.grid, f.codomain_dim)
    with open(path, "w") as fh:
        fh.write(header)
        for k, block in enumerate(blocks):
            fh.write(block % tuple(f.values[k * per:(k + 1) * per].ravel().tolist()))


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
