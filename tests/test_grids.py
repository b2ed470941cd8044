"""Grid, quadrature, and stencil tests against analytic oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from madelung.grids import (
    ComplexField,
    Grid1D,
    Grid2D,
    ScalarField,
    _along,
    _d1,
    _d2,
    field_to_csv,
    partials,
    quadrature,
    read_columns,
    write_columns,
    write_json,
)
from madelung.energy import _laplacian


def field_from_csv(path):
    """Read a field written by field_to_csv, rebuilding its grid."""
    cols = read_columns(path)
    if "y" not in cols:
        x = cols["x"]
        grid = Grid1D(x[0], x[-1], len(x))
        shape = (grid.n,)
    else:
        ux, uy = np.unique(cols["x"]), np.unique(cols["y"])
        grid = Grid2D(Grid1D(ux[0], ux[-1], len(ux)), Grid1D(uy[0], uy[-1], len(uy)))
        shape = grid.shape
    values = cols["re"].reshape(shape)
    mask = (cols["mask"] == 1.0).reshape(shape)
    if "im" in cols:
        return ComplexField(grid, values + 1j * cols["im"].reshape(shape), mask)
    return ScalarField(grid, values, mask)


def make_field(fn, grid):
    return ScalarField(grid, fn(grid.x))


def lap(f):
    """The ledger's Laplacian of one field's values."""
    return _laplacian(f.grid, f.values[None])[0]


class TestGrid:
    def test_spacing(self):
        g = Grid1D(-1.0, 1.0, 201)
        assert g.h == pytest.approx(0.01)
        assert len(g.x) == 201
        assert g.x[0] == -1.0 and g.x[-1] == 1.0

    def test_positions_computed_once_and_read_only(self):
        g = Grid1D(-1.0, 1.0, 2001)
        x = g.x
        assert g.x is x
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0.0
        assert np.array_equal(x, np.linspace(-1.0, 1.0, 2001))

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            Grid1D(0.0, 1.0, 2)

    def test_reversed_bounds(self):
        with pytest.raises(ValueError):
            Grid1D(1.0, 0.0, 11)

    def test_nonfinite_unmasked_rejected(self):
        g = Grid1D(0.0, 1.0, 11)
        vals = np.zeros(11)
        vals[4] = np.nan
        with pytest.raises(ValueError, match="index"):
            ScalarField(g, vals)

    def test_nonfinite_masked_allowed(self):
        g = Grid1D(0.0, 1.0, 11)
        vals = np.zeros(11)
        vals[4] = np.inf
        mask = np.ones(11, bool)
        mask[4] = False
        ScalarField(g, vals, mask)  # no raise


class TestIntegrate:
    def test_constant_exact(self):
        # f = 1 on [0,1] integrates to exactly 1 for any rule.
        g = Grid1D(0.0, 1.0, 101)
        assert quadrature(g, np.ones(101)) == pytest.approx(1.0, abs=1e-15)

    def test_sin_squared(self):
        # Analytic antiderivative: int sin^2(pi x) dx over [0,1] = 1/2.
        g = Grid1D(0.0, 1.0, 101)
        assert quadrature(g, np.sin(np.pi * g.x) ** 2) == pytest.approx(0.5, abs=1e-8)

    def test_even_point_count_trapezoid(self):
        g = Grid1D(0.0, 1.0, 100)
        assert quadrature(g, g.x) == pytest.approx(0.5, abs=1e-12)

    def test_normalized_mode(self):
        g = Grid1D(-1.0, 1.0, 2001)
        rho = np.sin(np.pi * (g.x + 1.0)) ** 2  # |psi_2|^2
        assert quadrature(g, rho) == pytest.approx(1.0, abs=1e-10)

    def test_2d_separable(self):
        gx = Grid1D(0.0, 1.0, 101)
        g2 = Grid2D(gx, gx)
        X, Y = g2.mesh()
        rho = np.sin(np.pi * X) ** 2 * np.sin(np.pi * Y) ** 2
        assert quadrature(g2, rho) == pytest.approx(0.25, abs=1e-8)


class TestGradient:
    def test_quadratic_exact_interior(self):
        g = Grid1D(-1.0, 1.0, 201)
        out = partials(make_field(lambda x: x**2, g))[0]
        assert np.allclose(out.values[1:-1], 2.0 * g.x[1:-1], atol=1e-12)
        # one-sided edges are exact for quadratics too
        assert out.values[0] == pytest.approx(-2.0, abs=1e-10)
        assert out.values[-1] == pytest.approx(2.0, abs=1e-10)

    def test_constant_zero(self):
        g = Grid1D(0.0, 2.0, 51)
        out = partials(make_field(np.ones_like, g))[0]
        assert np.allclose(out.values, 0.0, atol=1e-13)

    def test_convergence_order(self):
        # halving h must quarter the max error for sin(5x)
        errs = []
        for n in (201, 401):
            g = Grid1D(0.0, 2.0, n)
            out = partials(make_field(lambda x: np.sin(5.0 * x), g))[0]
            errs.append(np.abs(out.values - 5.0 * np.cos(5.0 * g.x)).max())
        ratio = errs[0] / errs[1]
        assert 3.3 < ratio < 4.7

    def test_complex_field(self):
        g = Grid1D(0.0, 1.0, 801)
        k = 7.0
        f = ComplexField(g, np.exp(1j * k * g.x))
        out = partials(f)[0]
        assert np.allclose(out.values, 1j * k * f.values, atol=3e-4)

    def test_mask_propagates_to_neighbors(self):
        g = Grid1D(0.0, 1.0, 21)
        mask = np.ones(21, bool)
        mask[10] = False
        out = partials(ScalarField(g, np.zeros(21), mask))[0]
        assert not out.mask[9] and not out.mask[10] and not out.mask[11]
        assert out.mask[8] and out.mask[12]


class TestLaplacian:
    def test_quadratic_exact(self):
        g = Grid1D(-1.0, 1.0, 201)
        out = lap(make_field(lambda x: x**2, g))
        assert np.allclose(out[1:-1], 2.0, atol=1e-9)
        # edge stencil exact through cubics
        assert out[0] == pytest.approx(2.0, abs=1e-7)

    def test_constant_zero(self):
        g = Grid1D(0.0, 1.0, 33)
        out = lap(make_field(np.ones_like, g))
        assert np.allclose(out, 0.0, atol=1e-10)

    def test_convergence_order(self):
        errs = []
        for n in (201, 401):
            g = Grid1D(0.0, 2.0, n)
            out = lap(make_field(lambda x: np.sin(5.0 * x), g))
            errs.append(np.abs(out + 25.0 * np.sin(5.0 * g.x)).max())
        ratio = errs[0] / errs[1]
        assert 3.3 < ratio < 4.7

    def test_2d_separable_mode(self):
        gx = Grid1D(0.0, 1.0, 201)
        g2 = Grid2D(gx, gx)
        X, Y = g2.mesh()
        f = ScalarField(g2, np.sin(np.pi * X) * np.sin(2.0 * np.pi * Y))
        expect = -5.0 * np.pi**2 * f.values
        err = np.abs(lap(f) - expect).max()
        assert err < 5e-3 * np.abs(expect).max()


class TestPerAxis:
    """The 2D operators against the 1D ones run along every row and column,
    on a complex field with one masked interior point and one masked edge
    point."""

    def _field(self):
        gx, gy = Grid1D(-1.0, 1.0, 13), Grid1D(0.0, 2.0, 17)
        g2 = Grid2D(gx, gy)
        X, Y = g2.mesh()
        vals = (1.0 + X * Y**2) * np.exp(1j * (3.0 * X - 2.0 * Y))
        mask = np.ones(g2.shape, bool)
        mask[6, 8] = False
        mask[0, 5] = False
        return ComplexField(g2, vals, mask)

    def _lines(self, f, axis):
        """1D fields along the given axis, with the index of each line."""
        g = f.grid.axes[axis]
        for k in range(f.grid.shape[1 - axis]):
            sel = (slice(None), k) if axis == 0 else (k, slice(None))
            yield sel, ComplexField(g, f.values[sel], f.mask[sel])

    def _assert_same(self, got, want, mask_got, mask_want):
        # interior exactly, the two one-sided edge points to rounding
        assert np.array_equal(mask_got, mask_want)
        assert np.array_equal(got[1:-1], want[1:-1])
        np.testing.assert_allclose(got[[0, -1]], want[[0, -1]], rtol=1e-13,
                                   atol=1e-13 * np.abs(want).max())

    def test_grid_axes(self):
        g = Grid1D(0.0, 1.0, 11)
        assert g.shape == (11,) and g.axes == (g,)
        g2 = self._field().grid
        assert g2.axes == (g2.grid_x, g2.grid_y)

    def test_partials_2d_are_1d_partials_per_line(self):
        f = self._field()
        parts = partials(f)
        for axis in (0, 1):
            for sel, line in self._lines(f, axis):
                (ref,) = partials(line)
                got = parts[axis]
                self._assert_same(got.values[sel], ref.values, got.mask[sel], ref.mask)
        # the masked points poison their stencil neighbours along each axis
        assert not parts[0].mask[5, 8] and not parts[0].mask[7, 8] and parts[0].mask[6, 7]
        assert not parts[1].mask[6, 7] and not parts[1].mask[6, 9] and parts[1].mask[5, 8]
        assert not parts[0].mask[:2, 5].any() and parts[0].mask[2, 5]

    def test_laplacian_is_sum_of_1d_second_derivatives(self):
        f = self._field()
        dxx, dyy = np.zeros((2,) + f.grid.shape, complex)
        for d, axis in ((dxx, 0), (dyy, 1)):
            for sel, line in self._lines(f, axis):
                d[sel] = lap(line)
        want = dxx + dyy
        out = lap(f)
        inner = (slice(1, -1), slice(1, -1))
        assert np.array_equal(out[inner], want[inner])
        np.testing.assert_allclose(out, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())


class TestStackedStencils:
    """The stencils on stacks of frames: a frame's derivative is the same
    alone as in its stack, bit for bit, for grid and stack axes of length 3
    and 5 too (the lengths an edge row written as a matrix product would
    contract over)."""

    @pytest.mark.parametrize("stencil", [_d1, _d2])
    def test_frame_alone_equals_its_slice(self, stencil):
        rng = np.random.default_rng(7)
        for frames, shape in ((3, (11,)), (5, (7,)), (4, (5,)), (3, (5, 3)), (5, (3, 5)),
                              (3, (7, 11)), (5, (5, 5))):
            re, im = rng.standard_normal((2, frames, *shape))
            for v in (re, re + 1j * im):
                for axis in range(len(shape)):
                    stacked = _along(v, 1 + axis, stencil, 0.1)
                    assert stacked.shape == v.shape
                    for i in range(frames):
                        alone = _along(v[i].copy(), axis, stencil, 0.1)
                        assert stacked[i].tobytes() == alone.tobytes(), (shape, axis, i)

    @pytest.mark.parametrize("stencil, coeffs", [
        (_d1, [-1.5, 2.0, -0.5]),
        (_d2, [35.0 / 12.0, -26.0 / 3.0, 19.0 / 2.0, -14.0 / 3.0, 11.0 / 12.0]),
    ])
    def test_rank3_edge_rows(self, stencil, coeffs):
        # axis 0 is differentiated; every line along it gives the 1D result,
        # and the edge rows are the one-sided stencils, whatever the other
        # axes' lengths
        rng = np.random.default_rng(3)
        h = 0.25
        for shape in ((9, 3, 5), (9, 5, 3), (9, 5, 5), (9, 3, 3)):
            v = rng.standard_normal(shape)
            out = stencil(v, h)
            scale = h if stencil is _d1 else h**2
            first = sum(c * v[k] for k, c in enumerate(coeffs)) / scale
            last = sum(c * v[-1 - k] for k, c in enumerate(coeffs)) / scale
            np.testing.assert_allclose(out[0], first, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(out[-1], -last if stencil is _d1 else last,
                                       rtol=1e-12, atol=1e-12)
            for j in range(shape[1]):
                for k in range(shape[2]):
                    assert out[:, j, k].tobytes() == stencil(v[:, j, k].copy(), h).tobytes()


class TestIdentities:
    def test_fundamental_theorem(self):
        # the quadrature of partials(f)[0] is f(b) - f(a) within O(h^2)
        for n in (401, 801):
            g = Grid1D(0.0, 1.5, n)
            f = make_field(lambda x: np.exp(x) * np.sin(3.0 * x), g)
            got = quadrature(g, partials(f)[0].values)
            expect = f.values[-1] - f.values[0]
            assert got == pytest.approx(expect, abs=20.0 * g.h**2)

    def test_product_rule_residual_order(self):
        # lap(R^2) vs 2 R lap(R) + 2 |grad R|^2 converges O(h^2)
        errs = []
        for n in (201, 401):
            g = Grid1D(0.0, 2.0, n)
            R = make_field(lambda x: 1.5 + np.sin(4.0 * x), g)
            lhs = lap(ScalarField(g, R.values**2))
            gr = partials(R)[0]
            rhs = 2.0 * R.values * lap(R) + 2.0 * gr.values**2
            errs.append(np.abs(lhs - rhs).max())
        assert errs[0] / errs[1] > 3.0

    @given(
        a=st.floats(-2.0, 2.0),
        b=st.floats(-3.0, 3.0),
        k=st.floats(0.5, 6.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, a, b, k):
        g = Grid1D(0.0, 1.0, 101)
        f1 = make_field(lambda x: np.sin(k * x), g)
        f2 = make_field(lambda x: np.cos(2.0 * x), g)
        combo = ScalarField(g, a * f1.values + b * f2.values)
        direct = partials(combo)[0].values
        parts = a * partials(f1)[0].values + b * partials(f2)[0].values
        assert np.allclose(direct, parts, atol=1e-9 * (1 + abs(a) + abs(b)))


class TestCsvRoundTrip:
    def test_columns_round_trip(self, tmp_path):
        edge = np.array([-0.0, 5e-324, 1.7976931348623157e308, 0.1 + 0.2, -1.0 / 3.0])
        flags = np.array([True, False, False, True, True])
        g2 = Grid2D(Grid1D(0.0, 1.0, 3), Grid1D(-1.0, 1.0, 4))
        X, Y = g2.mesh()
        p = tmp_path / "t.csv"
        write_columns(str(p), ("v", "flag"), (edge, flags))
        back = read_columns(str(p))
        assert list(back) == ["v", "flag"]
        assert back["v"].dtype == np.float64
        assert np.array_equal(back["v"].view(np.uint64), edge.view(np.uint64))
        assert np.array_equal(back["flag"], flags.astype(float))
        raw = p.read_bytes()
        assert b"\r" not in raw
        assert raw.startswith(b"v,flag\n-0,1\n") and raw.endswith(b"\n")

        write_columns(str(p), ("x", "y", "v"), (X, Y, X + 10.0 * Y))
        back = read_columns(str(p))
        assert np.array_equal(back["x"], np.repeat(g2.grid_x.x, 4))
        assert np.array_equal(back["y"], np.tile(g2.grid_y.x, 3))
        assert np.array_equal(back["v"].reshape(g2.shape), X + 10.0 * Y)

        # longer than one formatting block of rows
        rng = np.random.default_rng(3)
        long = rng.standard_normal(5000) * 10.0 ** rng.integers(-300, 300, 5000)
        write_columns(str(p), ("v",), (long,))
        assert p.read_text().count("\n") == 5001
        assert np.array_equal(read_columns(str(p))["v"].view(np.uint64), long.view(np.uint64))

        write_columns(str(p), ("a", "b"), (np.empty(0), np.empty(0, bool)))
        assert p.read_text() == "a,b\n"
        back = read_columns(str(p))
        assert list(back) == ["a", "b"]
        assert all(c.shape == (0,) and c.dtype == np.float64 for c in back.values())

    def test_json_layout(self, tmp_path):
        # the bytes json.dump(doc, fh, indent=1, sort_keys=True) plus a final
        # LF gave at each of the four .json writers before they shared one
        doc = {"b": [1.5, {"z": None, "a": True}], "a": 0.1 + 0.2, "c": "x"}
        p = tmp_path / "d.json"
        write_json(p, doc)
        assert p.read_text() == (
            '{\n "a": 0.30000000000000004,\n "b": [\n  1.5,\n  {\n   "a": true,\n'
            '   "z": null\n  }\n ],\n "c": "x"\n}\n')

    def test_1d_complex(self, tmp_path):
        g = Grid1D(-1.0, 1.0, 51)
        mask = np.ones(51, bool)
        mask[7] = False
        f = ComplexField(g, np.exp(1j * 3.0 * g.x), mask)
        p = tmp_path / "f.csv"
        field_to_csv(f, str(p))
        back = field_from_csv(str(p))
        assert np.array_equal(back.mask, f.mask)
        assert np.allclose(back.values, f.values, atol=0, rtol=0)
        assert back.grid.n == 51

    def test_2d_real(self, tmp_path):
        g2 = Grid2D(Grid1D(0.0, 1.0, 11), Grid1D(0.0, 2.0, 13))
        X, Y = g2.mesh()
        f = ScalarField(g2, X + 2.0 * Y)
        p = tmp_path / "f2.csv"
        field_to_csv(f, str(p))
        back = field_from_csv(str(p))
        assert back.grid.shape == (11, 13)
        assert np.allclose(back.values, f.values, atol=0, rtol=0)
