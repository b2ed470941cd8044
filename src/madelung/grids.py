"""Uniform grids, quadrature, and discrete differential operators.

Everything downstream (eigensolves, energy ledgers, streamlines) works on
the field types defined here.  Natural units hbar = m = 1 throughout;
energies are reported in units of hbar^2/(m L^2) with L the unit length.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Grid1D:
    """Uniformly spaced samples of [x_min, x_max] with n points (n >= 3)."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"grid needs at least 3 points, got n={self.n}")
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n - 1)

    @functools.cached_property
    def x(self) -> np.ndarray:
        # computed once per grid and read-only, so every caller shares it
        x = np.linspace(self.x_min, self.x_max, self.n)
        x.flags.writeable = False
        return x

    @property
    def shape(self) -> tuple:
        return (self.n,)

    @property
    def axes(self) -> tuple:
        return (self,)

    @property
    def ndim(self) -> int:
        return 1


@dataclass(frozen=True)
class Grid2D:
    """Tensor product of two 1D grids; values are indexed [ix, iy]."""

    grid_x: Grid1D
    grid_y: Grid1D

    @property
    def shape(self) -> tuple:
        return (self.grid_x.n, self.grid_y.n)

    @property
    def axes(self) -> tuple:
        return (self.grid_x, self.grid_y)

    def mesh(self) -> tuple:
        return np.meshgrid(self.grid_x.x, self.grid_y.x, indexing="ij")

    @property
    def ndim(self) -> int:
        return 2


def _check_values(grid, values: np.ndarray, mask: np.ndarray):
    shape = grid.shape
    if values.shape != shape:
        raise ValueError(f"values shape {values.shape} does not match grid {shape}")
    if mask.shape != shape:
        raise ValueError("mask shape does not match grid")
    if not np.isfinite(values[mask]).all():
        bad = np.argwhere(~np.isfinite(np.where(mask, values, 0.0)))
        raise ValueError(f"non-finite value at unmasked index {tuple(bad[0])}")


@dataclass
class ScalarField:
    """Real values sampled on a grid with a per-point validity mask."""

    grid: object
    values: np.ndarray
    mask: np.ndarray = field(default=None)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.mask is None:
            self.mask = np.ones(self.values.shape, dtype=bool)
        self.mask = np.asarray(self.mask, dtype=bool)
        _check_values(self.grid, self.values, self.mask)


@dataclass
class ComplexField:
    """Complex values sampled on a grid with a per-point validity mask."""

    grid: object
    values: np.ndarray
    mask: np.ndarray = field(default=None)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.mask is None:
            self.mask = np.ones(self.values.shape, dtype=bool)
        self.mask = np.asarray(self.mask, dtype=bool)
        _check_values(self.grid, self.values, self.mask)


def trapezoid_weights(n: int, h: float) -> np.ndarray:
    """Composite trapezoid weights on n uniform points of spacing h; all
    zero below two points, where the rule spans no interval."""
    w = np.full(n, h if n > 1 else 0.0)
    if n > 1:
        w[0] = w[-1] = h / 2.0
    return w


def _quad_weights(n: int, h: float) -> np.ndarray:
    # Composite Simpson for odd n, trapezoid otherwise.
    if n % 2 == 1:
        w = np.ones(n)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return w * (h / 3.0)
    return trapezoid_weights(n, h)


def quadrature(grid, vals: np.ndarray):
    """Raw Simpson/trapezoid sum; works on real or complex arrays."""
    return np.sum(_grid_weights(grid, _quad_weights) * vals)


def _grid_weights(grid, rule=trapezoid_weights) -> np.ndarray:
    """Weights of a 1D rule(n, h), multiplied out over the grid's axes."""
    return functools.reduce(np.multiply.outer, (rule(g.n, g.h) for g in grid.axes))


# Second-order one-sided first-derivative edge stencil.
_GRAD_EDGE = np.array([-1.5, 2.0, -0.5])
# Third-order one-sided second-derivative edge stencil.  The extra order
# keeps the integral of the Laplacian of rho telescoping to the boundary flux
# closely enough that integral identities hold at 1e-8 on refined grids;
# a second-order edge leaves an O(h^3) boundary artifact an order of
# magnitude larger for hard-wall states.
_LAP_EDGE = np.array([35.0 / 12.0, -26.0 / 3.0, 19.0 / 2.0, -14.0 / 3.0, 11.0 / 12.0])


def _same_kind(f, values, mask):
    cls = ComplexField if np.iscomplexobj(f.values) else ScalarField
    return cls(f.grid, values, mask)


# The stencils act along axis 0 of arrays of any rank; _along moves the
# axis it differentiates to the front.  Each edge row is a sum taken left
# to right over the leading axis, elementwise, so a frame of a stack
# rounds as it does alone.
def _stencil_mask(mask: np.ndarray) -> np.ndarray:
    # valid where the first-derivative stencil touches only valid points
    out = np.empty_like(mask)
    out[1:-1] = mask[1:-1] & mask[2:] & mask[:-2]
    out[0] = mask[:3].all(axis=0)
    out[-1] = mask[-3:].all(axis=0)
    return out


def _edge(coeffs: np.ndarray, rows: np.ndarray) -> np.ndarray:
    # c0 rows[0] + c1 rows[1] + ... in that order
    total = coeffs[0] * rows[0]
    for c, row in zip(coeffs[1:], rows[1:]):
        total = total + c * row
    return total


def _d1(v: np.ndarray, h: float) -> np.ndarray:
    g = np.empty_like(v)
    g[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    g[0] = _edge(_GRAD_EDGE, v[:3]) / h
    g[-1] = -_edge(_GRAD_EDGE, v[-1:-4:-1]) / h
    return g


def _d2(v: np.ndarray, h: float) -> np.ndarray:
    L = np.empty_like(v)
    L[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h**2
    L[0] = _edge(_LAP_EDGE, v[:5]) / h**2
    L[-1] = _edge(_LAP_EDGE, v[-1:-6:-1]) / h**2
    return L


def _along(v: np.ndarray, axis: int, stencil, h: float) -> np.ndarray:
    """stencil(v, h) applied along one axis of v."""
    return np.moveaxis(stencil(np.moveaxis(v, axis, 0), h), 0, axis)


def partials(f) -> tuple:
    """First derivatives of f along each grid axis, one field per axis:
    central interior, one-sided second-order edges.

    Masked points poison every output point whose stencil touches them.
    """
    out = []
    for axis, g in enumerate(f.grid.axes):
        vals = _along(f.values, axis, _d1, g.h)
        mask = np.moveaxis(_stencil_mask(np.moveaxis(f.mask, axis, 0)), 0, axis)
        vals[~mask] = 0.0
        out.append(_same_kind(f, vals, mask))
    return tuple(out)


# rows formatted per write.  Every cell of a block is a live string until
# the block is written: a whole 161 x 161 ledger at once is tens of MB, and
# over repeated vortex_2d runs 2048-row blocks still raised peak RSS by
# 4.8 MB where 64-row blocks raised it by 0.2 MB, at the same speed
_BLOCK_ROWS = 64


def write_columns(path, names, columns):
    """Write equal-length columns as a table: a header row of names, then
    one comma-separated row per index, floats as format(v, ".17g"), bool
    columns as 0/1, LF line endings.  Columns are flattened in C order, so
    a 2D field is written x-outer.  read_columns reads it back exactly."""
    cols = [np.ravel(c) for c in columns]
    if len(cols) != len(names):
        raise ValueError(f"{len(names)} names for {len(cols)} columns")
    n = cols[0].size if cols else 0
    if any(c.size != n for c in cols):
        raise ValueError("columns differ in length")
    with open(path, "w", newline="") as fh:
        fh.write(",".join(names) + "\n")
        for a in range(0, n, _BLOCK_ROWS):
            cells = [_format_cells(c[a:a + _BLOCK_ROWS]) for c in cols]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def write_json(path, doc):
    """Write a JSON document as the package's .json files are written:
    one-space indents, sorted keys and a final LF."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _format_cells(c: np.ndarray) -> list:
    if c.dtype == bool:
        return ["1" if v else "0" for v in c.tolist()]
    return [format(v, ".17g") for v in c.tolist()]


def read_columns(path) -> dict:
    """Read a table written by write_columns: {name: float64 array} in
    header order; a header-only table gives empty columns."""
    with open(path) as fh:
        names = fh.readline().rstrip("\n").split(",")
        empty = not fh.readline()
    if empty:
        return {name: np.empty(0) for name in names}
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != len(names):
        raise ValueError(f"{path}: rows of {data.shape[1]} values under {len(names)} names")
    return dict(zip(names, np.ascontiguousarray(data.T)))


def coordinate_columns(grid) -> tuple:
    """Names and per-point arrays of a grid's coordinates, x-outer in 2D."""
    axes = grid.axes
    return ("x", "y")[:len(axes)], tuple(np.meshgrid(*(g.x for g in axes), indexing="ij"))


def field_to_csv(f, path: str):
    """Write a field as CSV with columns x[,y],re[,im],mask."""
    names, coords = coordinate_columns(f.grid)
    names, cols = names + ("re",), coords + (f.values.real,)
    if np.iscomplexobj(f.values):
        names, cols = names + ("im",), cols + (f.values.imag,)
    write_columns(path, names + ("mask",), cols + (f.mask,))
