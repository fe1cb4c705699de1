import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiflow import state_space
from semiflow.state_space import (
    GridFunction,
    NormSpec,
    VectorState,
    distance,
    grid_create,
    lipschitz_constant_estimate,
    read_csv_table,
    sample_function,
    with_values,
    write_csv,
)


def interp_eval(f, points):
    """Multilinear interpolation at points of shape (..., dim), a reference
    reconstruction of grid functions between their nodes.

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


def serialize_csv(f):
    """The CSV text of f, row by row: the reference of write_csv."""
    header = ",".join(["x", "y"][:f.grid.dim]
                      + [f"v{i + 1}" for i in range(f.codomain_dim)])
    rows = [header] + [",".join("%.17g" % v for v in (*c, *v))
                       for c, v in zip(f.grid.node_coords(), f.values)]
    return "\n".join(rows) + "\n"


class TestGridCreate:
    def test_three_point_grid(self):
        g = grid_create(1, 1.0, 3)
        assert np.array_equal(g.axis(0), [-1.0, 0.0, 1.0])
        assert g.h == (1.0,)

    def test_fine_grid_spacing(self):
        g = grid_create(1, 12.0, 2401)
        assert g.h[0] == pytest.approx(0.01, abs=1e-15)

    def test_2d_grid(self):
        g = grid_create(2, 4.0, 81)
        assert g.n_nodes == 81 * 81
        assert g.h == (0.1, 0.1)

    def test_zero_is_exact_node(self):
        for n in (3, 11, 801, 2401):
            g = grid_create(1, 12.0, n)
            assert 0.0 in g.axis(0)

    def test_nodes_symmetric(self):
        g = grid_create(1, 7.3, 101)
        ax = g.axis(0)
        assert np.array_equal(ax, -ax[::-1])

    def test_rejects_even_points(self):
        with pytest.raises(ValueError):
            grid_create(1, 1.0, 4)

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            grid_create(1, 0.0, 5)

    @pytest.mark.parametrize("x_max", [10**400, -10**400, math.inf, math.nan, "6"])
    def test_rejects_x_max_that_is_no_finite_number(self, x_max):
        with pytest.raises(ValueError, match="x_max must be finite positive numbers"):
            grid_create(1, x_max, 5)

    @pytest.mark.parametrize("dim,n_points", [(1, 241.9), (1, 241.0), (1, None),
                                              (2, (61, 41.5)), (1, True)])
    def test_rejects_non_integer_points(self, dim, n_points):
        with pytest.raises(ValueError, match="n_points must be odd integers"):
            grid_create(dim, 6.0, n_points)

    @pytest.mark.parametrize("dim", [1.0, 1.5, "1", None, True, 3])
    def test_rejects_bad_dim_before_axis_tuples(self, dim):
        with pytest.raises(ValueError, match="dim must be the integer 1 or 2"):
            grid_create(dim, 6.0, 241)


class TestSampleFunction:
    def test_zero_preset(self):
        f = sample_function("zero", grid_create(1, 2.0, 5))
        assert np.all(f.values == 0.0)

    def test_gaussian_bump_center(self):
        g = grid_create(1, 2.0, 5)
        f = sample_function("gaussian_bump", g)
        assert f.values[2, 0] == 1.0  # exp(0)
        assert f.extension_mode == "zero"

    def test_hat_values(self):
        g = grid_create(1, 2.0, 9)  # h = 0.5
        f = sample_function("hat", g)
        assert list(f.values[:, 0]) == [0, 0, 0.5, 1.0, 0.5, 0, 0, 0, 0][::-1] or \
            list(f.values[:, 0]) == [0.0, 0.0, 0.0, 0.5, 1.0, 0.5, 0.0, 0.0, 0.0]

    def test_identity_defaults_clamp(self):
        g = grid_create(1, 2.0, 5)
        f = sample_function("identity", g)
        assert f.extension_mode == "clamp"
        assert np.array_equal(f.values[:, 0], g.axis(0))

    def test_identity_2d_has_two_components(self):
        g = grid_create(2, 1.0, 3)
        f = sample_function("identity", g)
        assert f.codomain_dim == 2

    def test_table_length_mismatch(self):
        g = grid_create(1, 2.0, 5)
        with pytest.raises(ValueError):
            sample_function(np.zeros(4), g)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            sample_function("heet", grid_create(1, 1.0, 3))


class TestDistance:
    def test_identity_of_indiscernibles(self):
        g = grid_create(1, 2.0, 41)
        f = sample_function("gaussian_bump", g)
        assert distance(f, f, NormSpec("sup")) == 0.0

    def test_bump_to_zero_sup(self):
        g = grid_create(1, 2.0, 41)
        f = sample_function("gaussian_bump", g)
        z = sample_function("zero", g)
        assert distance(f, z, NormSpec("sup")) == 1.0

    def test_weighted_identity_vs_zero(self):
        # brute-force node scan is the oracle for max |x| / (1 + |x|^3)
        g = grid_create(1, 10.0, 2001)
        f = sample_function("identity", g)
        z = GridFunction(g, 1, np.zeros((g.n_nodes, 1)), "clamp")
        x = g.axis(0)
        expected = np.max(np.abs(x) / (1.0 + np.abs(x) ** 3))
        assert distance(f, z, NormSpec("weighted", p=3.0)) == pytest.approx(
            expected, abs=0.0)

    def test_grid_mismatch_rejected(self):
        f = sample_function("zero", grid_create(1, 2.0, 5))
        g = sample_function("zero", grid_create(1, 2.0, 7))
        with pytest.raises(ValueError):
            distance(f, g, NormSpec("sup"))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_metric_properties(self, seed):
        rng = np.random.default_rng(seed)
        g = grid_create(1, 3.0, 31)
        fs = [sample_function(rng.standard_normal(g.n_nodes), g)
              for _ in range(3)]
        norm = NormSpec("weighted", p=2.5) if seed % 2 else NormSpec("sup")
        d01 = distance(fs[0], fs[1], norm)
        d10 = distance(fs[1], fs[0], norm)
        d02 = distance(fs[0], fs[2], norm)
        d12 = distance(fs[1], fs[2], norm)
        assert d01 == d10
        assert d02 <= d01 + d12 + 1e-12
        assert distance(fs[0], fs[0], norm) == 0.0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_weighted_below_sup(self, seed):
        rng = np.random.default_rng(seed)
        g = grid_create(1, 5.0, 51)
        f = sample_function(rng.standard_normal(g.n_nodes), g)
        h = sample_function(rng.standard_normal(g.n_nodes), g)
        assert distance(f, h, NormSpec("weighted", p=3.0)) <= \
            distance(f, h, NormSpec("sup")) + 1e-15

    def test_norm_spec_requires_p_above_one(self):
        with pytest.raises(ValueError):
            NormSpec("weighted", p=1.0)

    @pytest.mark.parametrize("kind", ["sup", "weighted"])
    @pytest.mark.parametrize("p", [10**400, math.nan, "3"])
    def test_norm_spec_requires_a_finite_p(self, kind, p):
        with pytest.raises(ValueError, match="weight exponent p must be a finite number"):
            NormSpec(kind, p=p)


class TestStateKinds:
    """One metric and one rebuild for vector states and grid functions."""

    def test_vector_distance_is_euclidean(self):
        assert distance(VectorState([3.0, 4.0]), VectorState([0.0, 0.0]),
                        None) == 5.0

    def test_with_values_keeps_the_kind(self):
        x = VectorState([1.0, 2.0])
        y = with_values(x, np.array([3.0, 4.0]))
        assert isinstance(y, VectorState)
        assert y.values is y.coordinates
        assert list(y.values) == [3.0, 4.0]
        f = sample_function("identity", grid_create(1, 2.0, 5))
        g = with_values(f, 2.0 * f.values)
        assert isinstance(g, GridFunction)
        assert (g.grid, g.codomain_dim, g.extension_mode) == (f.grid, 1, "clamp")

    @pytest.mark.parametrize("pair", ["vector-grid", "grid-vector", "shapes"])
    def test_mixed_or_mismatched_states_rejected(self, pair):
        f = sample_function("zero", grid_create(1, 2.0, 5))
        x, y = {"vector-grid": (VectorState([0.0]), f),
                "grid-vector": (f, VectorState([0.0])),
                "shapes": (VectorState([1.0, 2.0]), VectorState([1.0]))}[pair]
        with pytest.raises(ValueError):
            distance(x, y, None)


class TestLipschitzEstimate:
    def test_zero(self):
        f = sample_function("zero", grid_create(1, 2.0, 21))
        assert lipschitz_constant_estimate(f) == 0.0

    def test_hat_slope(self):
        g = grid_create(1, 2.0, 9)  # h = 0.5
        assert lipschitz_constant_estimate(sample_function("hat", g)) == \
            pytest.approx(1.0, abs=1e-12)

    def test_gaussian_bump_analytic(self):
        # max |f'| = sqrt(2) e^{-1/2} at x = 1/sqrt(2); sampling only lowers it
        g = grid_create(1, 4.0, 8001)
        c = math.sqrt(2.0) * math.exp(-0.5)
        est = lipschitz_constant_estimate(sample_function("gaussian_bump", g))
        assert est <= c + 1e-12
        assert est == pytest.approx(c, abs=1e-3)

    @pytest.mark.parametrize("preset,c", [
        ("hat", 1.0),
        ("identity", 1.0),
        ("cauchy_bump", 3.0 * math.sqrt(3.0) / 8.0),
        ("gaussian_bump", math.sqrt(2.0) * math.exp(-0.5)),
    ])
    def test_sampled_estimate_below_true_constant(self, preset, c):
        g = grid_create(1, 5.0, 1001)
        assert lipschitz_constant_estimate(sample_function(preset, g)) <= c + 1e-12


class TestInterpEval:
    def test_node_values_exact(self):
        g = grid_create(1, 2.0, 21)
        f = sample_function("gaussian_bump", g)
        out = interp_eval(f, g.axis(0))
        assert np.array_equal(out[:, 0], f.values[:, 0])

    def test_midpoint_mean(self):
        g = grid_create(1, 2.0, 5)
        f = sample_function("gaussian_bump", g)
        mid = 0.5 * (g.axis(0)[1] + g.axis(0)[2])
        assert interp_eval(f, mid)[0] == pytest.approx(
            0.5 * (f.values[1, 0] + f.values[2, 0]), abs=1e-15)

    def test_outside_zero_mode(self):
        g = grid_create(1, 2.0, 5)
        f = sample_function("gaussian_bump", g)
        assert interp_eval(f, 3.5)[0] == 0.0

    def test_outside_clamp_mode(self):
        g = grid_create(1, 2.0, 5)
        f = sample_function("identity", g)
        assert interp_eval(f, 3.5)[0] == 2.0
        assert interp_eval(f, -7.0)[0] == -2.0

    @settings(max_examples=25, deadline=None)
    @given(st.floats(-3, 3), st.floats(-2, 2), st.integers(0, 10**6))
    def test_linear_reproduction(self, a, b, seed):
        g = grid_create(1, 4.0, 41)
        f = sample_function(a * g.axis(0) + b, g)
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-4, 4, size=16)
        out = interp_eval(f, pts)[:, 0]
        assert np.allclose(out, a * pts + b, atol=1e-12, rtol=0)

    def test_2d_bilinear(self):
        g = grid_create(2, 1.0, 3)
        f = sample_function("gaussian_bump", g)
        out = interp_eval(f, np.array([[0.5, 0.5]]))
        corners = [math.exp(-r2) for r2 in (0.0, 1.0, 1.0, 2.0)]
        assert out[0, 0] == pytest.approx(sum(corners) / 4.0, abs=1e-15)


class TestCsvRoundTrip:
    def test_header_and_rows(self, tmp_path):
        g = grid_create(1, 1.0, 3)
        f = sample_function("gaussian_bump", g)
        path = tmp_path / "f.csv"
        write_csv(f, path)
        text = path.read_text()
        lines = text.strip().splitlines()
        assert lines[0] == "x,v1"
        assert len(lines) == 4

    def test_round_trip_exact(self, tmp_path):
        g = grid_create(1, 3.0, 41)
        rng = np.random.default_rng(3)
        f = sample_function(rng.standard_normal(g.n_nodes), g)
        path = tmp_path / "f.csv"
        write_csv(f, path)
        names, data = read_csv_table(path)
        assert names == ["x", "v1"]
        assert np.array_equal(data[:, 0], g.axis(0))
        assert np.array_equal(data[:, 1], f.values[:, 0])

    def test_2d_header(self, tmp_path):
        g = grid_create(2, 1.0, 3)
        f = sample_function("identity", g)
        path = tmp_path / "f.csv"
        write_csv(f, path)
        names, data = read_csv_table(path)
        assert names == ["x", "y", "v1", "v2"]
        assert data.shape == (9, 4)

    def test_malformed_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,v1\n1.0\n")
        with pytest.raises(ValueError):
            read_csv_table(path)

    @pytest.mark.parametrize("text", [
        "",                       # empty
        "\n\n",                   # blank lines only
        "x,v1\n",                 # header only
        "x,v1\n1.0,2.0\n3.0\n",   # ragged rows
        "x,v1\n1.0,2.0,3.0\n",    # more columns than names
        "x,v1\n1.0,abc\n",        # not a number
    ])
    def test_malformed_csv_kinds(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError):
            read_csv_table(path)

    # (1, 4097, 1) and (2, 81, 2): more than one block of rows
    @pytest.mark.parametrize("dim,n,m", [(1, 41, 1), (1, 3, 2), (2, 21, 3),
                                         (2, 81, 2), (1, 4097, 1)])
    def test_serialize_matches_row_loop(self, tmp_path, dim, n, m):
        g = grid_create(dim, 3.0, n)
        rng = np.random.default_rng(11)
        vals = (rng.standard_normal((g.n_nodes, m))
                * 10.0 ** rng.integers(-300, 300, (g.n_nodes, m)))
        vals[0, 0] = -0.0
        f = GridFunction(g, m, vals, "clamp")
        path = tmp_path / "f.csv"
        write_csv(f, path)
        text = path.read_text()
        assert text == serialize_csv(f)
        names, data = read_csv_table(path)
        assert names == text.partition("\n")[0].split(",")
        assert np.array_equal(data, np.concatenate([g.node_coords(), f.values], 1))


    def test_write_csv_matches_serialize(self, tmp_path):
        g = grid_create(2, 3.0, 101)
        f = sample_function(np.random.default_rng(5).standard_normal(g.n_nodes), g)
        path = tmp_path / "f.csv"
        write_csv(f, path)
        assert path.read_bytes() == serialize_csv(f).encode()

    def test_write_csv_alternating_grids(self, tmp_path):
        # the row template is cached for the last grid and codomain only;
        # each write on another one builds its own
        g1, g2 = grid_create(1, 6.0, 1201), grid_create(2, 6.0, 241)
        rng = np.random.default_rng(13)
        path = tmp_path / "f.csv"
        for g, m in [(g1, 1), (g2, 1), (g1, 2), (g2, 1)]:
            f = GridFunction(g, m, rng.standard_normal((g.n_nodes, m)))
            write_csv(f, path)
            assert path.read_bytes() == serialize_csv(f).encode()
        assert state_space._csv_template.cache_info().currsize == 1


class TestImmutability:
    def test_values_read_only(self):
        f = sample_function("zero", grid_create(1, 1.0, 3))
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0

    def test_nonfinite_rejected(self):
        g = grid_create(1, 1.0, 3)
        with pytest.raises(ValueError):
            GridFunction(g, 1, np.array([[1.0], [np.nan], [0.0]]))
