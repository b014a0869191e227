"""Grid construction and bracket-average behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phonon_inverse.grid import GridConfig, PhaseGrid, build_grid


def baseline_config(**overrides) -> GridConfig:
    base = dict(
        dt=0.005, dx=0.02, domega=0.4, n_mu=64,
        t_end=1.5, omega_min=0.4, omega_max=4.0,
    )
    base.update(overrides)
    return GridConfig(**base)


@pytest.fixture(scope="module")
def grid() -> PhaseGrid:
    return build_grid(baseline_config())


class TestBuildGrid:
    def test_baseline_node_counts(self, grid):
        assert grid.n_x == 51
        assert grid.n_t == 301
        assert grid.n_omega == 10
        assert grid.n_mu == 64

    def test_two_point_gauss_legendre_closed_form(self):
        g = build_grid(baseline_config(n_mu=2))
        assert g.mu_nodes == pytest.approx([-1 / np.sqrt(3), 1 / np.sqrt(3)], abs=1e-15)
        assert g.mu_weights == pytest.approx([1.0, 1.0], abs=1e-15)

    def test_mu_weights_sum_to_two(self, grid):
        assert grid.mu_weights.sum() == pytest.approx(2.0, rel=1e-12)

    def test_mu_nodes_symmetric_and_nonzero(self, grid):
        assert np.all(grid.mu_nodes[::-1] == -grid.mu_nodes)
        assert np.all(grid.mu_nodes != 0.0)

    def test_quadrature_of_mu_squared(self, grid):
        # Gauss-Legendre integrates mu^2 exactly; the raw integral over
        # (-1, 1) is 2/3.
        value = grid.mu_weights @ grid.mu_nodes**2
        assert value == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_quadrature_exactness_high_order(self):
        # n nodes are exact through degree 2n - 1: check odd and even powers
        # up to mu^9 with 8 nodes against the closed form 2/(k+1) or 0.
        g = build_grid(baseline_config(n_mu=8))
        for k in range(10):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            value = g.mu_weights @ g.mu_nodes**k
            assert value == pytest.approx(exact, rel=1e-12, abs=1e-14)

    def test_node_spacing_matches_config(self, grid):
        assert grid.dt == pytest.approx(0.005)
        assert grid.dx == pytest.approx(0.02)
        assert grid.domega == pytest.approx(0.4)
        assert grid.omega_nodes[0] == pytest.approx(0.4)
        assert grid.omega_nodes[-1] == pytest.approx(4.0)

    def test_rejects_odd_n_mu(self):
        with pytest.raises(ValueError, match="even"):
            build_grid(baseline_config(n_mu=63))

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(ValueError, match="dt"):
            build_grid(baseline_config(dt=0.0))

    def test_rejects_nonpositive_omega_min(self):
        with pytest.raises(ValueError, match="omega_min"):
            build_grid(baseline_config(omega_min=0.0))

    def test_nodes_are_immutable(self, grid):
        with pytest.raises(ValueError):
            grid.mu_nodes[0] = 0.0


class TestAverage:
    def test_constant_field_any_axes(self, grid):
        values = np.full((grid.n_x, grid.n_mu, grid.n_omega), 3.25)
        for over in ("x", "mu", "omega", ("mu", "omega"), ("x", "mu", "omega")):
            result = grid.average(values, ("x", "mu", "omega"), over)
            assert np.allclose(result, 3.25, rtol=1e-12)

    def test_odd_function_of_mu(self, grid):
        values = np.tile(grid.mu_nodes, (grid.n_x, 1))
        result = grid.average(values, ("x", "mu"), "mu")
        assert np.allclose(result, 0.0, atol=1e-15)

    def test_mu_squared_times_omega(self, grid):
        # Normalized mean of mu^2 * omega over (mu, omega): mean(mu^2) is
        # exactly 1/3 under Gauss-Legendre and the channel mean of omega over
        # the uniform band is the midpoint 2.2, so the closed form is 11/15.
        values = grid.mu_nodes[:, None] ** 2 * grid.omega_nodes[None, :]
        result = grid.average(values, ("mu", "omega"), ("mu", "omega"))
        assert result == pytest.approx(11.0 / 15.0, rel=1e-12)

    def test_half_range_normalization(self, grid):
        # The mean of 1 over mu > 0 is 1 when normalized by the half measure.
        ones = np.ones(grid.n_mu)
        assert grid.average(ones, ("mu",), "mu", mu_range="positive") == pytest.approx(1.0, rel=1e-12)
        # mean of mu over mu > 0 is int_0^1 mu dmu = 1/2, but only up to the
        # half-range restriction error of the full-range Gauss-Legendre rule
        # (exactness holds on (-1, 1), not on the half interval).
        assert grid.average(grid.mu_nodes.copy(), ("mu",), "mu", mu_range="positive") == pytest.approx(
            0.5, rel=1e-3
        )

    def test_half_ranges_partition_full_range(self, grid):
        rng = np.random.default_rng(7)
        values = rng.normal(size=(grid.n_mu, grid.n_omega))
        pos = grid.average(values, ("mu", "omega"), "mu", mu_range="positive")
        neg = grid.average(values, ("mu", "omega"), "mu", mu_range="negative")
        full = grid.average(values, ("mu", "omega"), "mu")
        # Each half-range mean is normalized by measure 1; the full range by 2.
        assert np.allclose(0.5 * (pos + neg), full, rtol=1e-12, atol=1e-14)

    def test_time_average_trapezoid(self, grid):
        # <t>_t over [0, 1.5] is 0.75; linear functions are exact under trapezoid.
        assert grid.average(grid.t_nodes.copy(), ("t",), "t") == pytest.approx(0.75, rel=1e-12)

    def test_scalar_return_type(self, grid):
        values = np.ones((grid.n_mu, grid.n_omega))
        out = grid.average(values, ("mu", "omega"), ("mu", "omega"))
        assert isinstance(out, float)

    def test_axis_mismatch_rejected(self, grid):
        values = np.ones((grid.n_mu, grid.n_omega))
        with pytest.raises(ValueError, match="not among axes"):
            grid.average(values, ("mu", "omega"), "x")
        with pytest.raises(ValueError, match="shape"):
            grid.average(values, ("x", "mu", "omega"), "mu")

    def test_batch_axis_untouched(self, grid):
        values = np.arange(3)[:, None, None] * np.ones((3, grid.n_mu, grid.n_omega))
        out = grid.average(values, ("pair", "mu", "omega"), ("mu", "omega"))
        assert out == pytest.approx([0.0, 1.0, 2.0])

    @settings(max_examples=25, deadline=None)
    @given(
        a=st.floats(-10, 10, allow_nan=False),
        b=st.floats(-10, 10, allow_nan=False),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_linearity(self, a, b, seed):
        g = build_grid(baseline_config(n_mu=8, dt=0.05, dx=0.1))
        rng = np.random.default_rng(seed)
        f1 = rng.normal(size=(g.n_mu, g.n_omega))
        f2 = rng.normal(size=(g.n_mu, g.n_omega))
        lhs = g.average(a * f1 + b * f2, ("mu", "omega"), ("mu", "omega"))
        rhs = a * g.average(f1, ("mu", "omega"), ("mu", "omega")) + b * g.average(
            f2, ("mu", "omega"), ("mu", "omega")
        )
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
