"""Tests for the collision operators: conservation, symmetry, kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phonon_inverse.collision import (
    apply_collision,
    mean_mu_omega,
    mean_omega,
    temperature_of,
)
from phonon_inverse.grid import GridConfig, PhaseGrid, build_grid
from phonon_inverse.material import (
    build_material,
    constant_g_star,
    constant_tau,
    default_g_star,
    ground_truth_tau,
)
from diagnostics_reference import weighted_inner


@pytest.fixture(scope="module")
def grid():
    return build_grid(
        GridConfig(
            dt=0.005, dx=0.02, domega=0.4, n_mu=64, t_end=1.5,
            omega_min=0.4, omega_max=4.0,
        )
    )


@pytest.fixture(scope="module")
def material(grid):
    return build_material(ground_truth_tau(), default_g_star(), grid.omega_nodes)


def random_field(grid, rng, leading=()):
    return rng.standard_normal((*leading, grid.n_mu, grid.n_omega))


def kernel_component(field, material, grid):
    """The span{h*} part T[h] h* of a field; relax[h] removes the rest."""
    temperature = np.asarray(temperature_of(field, material, grid))
    return temperature[..., np.newaxis, np.newaxis] * material.h_star


def two_node_setup():
    """Two mu nodes, one omega node, tau = g* = h* = 1."""
    grid = build_grid(
        GridConfig(
            dt=0.05, dx=0.1, domega=1.0, n_mu=2, t_end=1.0,
            omega_min=1.0, omega_max=1.5,
        )
    )
    assert grid.n_omega == 1
    material = build_material(constant_tau(1.0), constant_g_star(1.0), grid.omega_nodes)
    return grid, material


class TestApplyCollision:
    def test_two_node_hand_example(self):
        # mu = -1/sqrt(3), +1/sqrt(3) with weights (1, 1); h* = 1.
        # h = (2, 0): mean over (mu, omega) is 1, so the result is 1 - h.
        grid, material = two_node_setup()
        h = np.array([[2.0], [0.0]])
        out = apply_collision(h, material, grid)
        np.testing.assert_allclose(out, [[-1.0], [1.0]], rtol=1e-15)

    def test_kernel_annihilated(self, grid, material):
        # mu-independent multiples of h* are equilibria.
        h = 3.7 * np.broadcast_to(material.h_star, (grid.n_mu, grid.n_omega))
        out = apply_collision(h, material, grid)
        np.testing.assert_allclose(out, 0.0, atol=1e-14)

    def test_kernel_annihilated_per_x_slice(self, grid, material):
        c = np.linspace(-2.0, 5.0, grid.n_x)
        h = np.broadcast_to(
            c[:, None, None] * material.h_star, (grid.n_x, grid.n_mu, grid.n_omega)
        ).copy()
        out = apply_collision(h, material, grid)
        np.testing.assert_allclose(out, 0.0, atol=1e-13)

    def test_conservation_on_random_fields(self, grid, material):
        rng = np.random.default_rng(1234)
        for _ in range(100):
            h = random_field(grid, rng)
            out = apply_collision(h, material, grid)
            scale = np.abs(mean_mu_omega(np.abs(h), grid))
            assert abs(mean_mu_omega(out, grid)) <= 1e-12 * scale

    def test_self_adjoint_in_weighted_product(self, grid, material):
        rng = np.random.default_rng(99)
        for _ in range(20):
            a = random_field(grid, rng)
            b = random_field(grid, rng)
            left = weighted_inner(apply_collision(a, material, grid), b, material, grid)
            right = weighted_inner(a, apply_collision(b, material, grid), material, grid)
            scale = max(abs(left), abs(right), 1e-30)
            assert abs(left - right) <= 1e-12 * scale

    def test_negative_semidefinite(self, grid, material):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = random_field(grid, rng)
            quad = weighted_inner(apply_collision(a, material, grid), a, material, grid)
            assert quad <= 1e-12

    def test_acts_as_minus_identity_off_kernel(self, grid, material):
        rng = np.random.default_rng(5)
        a = random_field(grid, rng)
        off_kernel = a - kernel_component(a, material, grid)
        out = apply_collision(off_kernel, material, grid)
        np.testing.assert_allclose(out, -off_kernel, rtol=1e-12, atol=1e-13)

    def test_range_lies_in_kernel_complement_shifted(self, grid, material):
        # L[L[a]] + L[a] must have no component outside span{h*}.
        rng = np.random.default_rng(11)
        a = random_field(grid, rng)
        la = apply_collision(a, material, grid)
        combo = apply_collision(la, material, grid) + la
        residual = combo - kernel_component(combo, material, grid)
        np.testing.assert_allclose(residual, 0.0, atol=1e-13)

    @settings(max_examples=25, deadline=None)
    @given(
        alpha=st.floats(-10, 10, allow_nan=False),
        beta=st.floats(-10, 10, allow_nan=False),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_linearity(self, alpha, beta, seed):
        grid = build_grid(
            GridConfig(
                dt=0.005, dx=0.02, domega=0.4, n_mu=8, t_end=0.05,
                omega_min=0.4, omega_max=4.0,
            )
        )
        material = build_material(ground_truth_tau(), default_g_star(), grid.omega_nodes)
        rng = np.random.default_rng(seed)
        a = random_field(grid, rng)
        b = random_field(grid, rng)
        lhs = apply_collision(alpha * a + beta * b, material, grid)
        rhs = alpha * apply_collision(a, material, grid) + beta * apply_collision(
            b, material, grid
        )
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


class TestTemperatureOf:
    def test_equilibrium_multiple(self, grid, material):
        h = -1.5 * np.broadcast_to(material.h_star, (grid.n_mu, grid.n_omega))
        assert temperature_of(h, material, grid) == pytest.approx(-1.5, rel=1e-13)

    def test_zero_field(self, grid, material):
        h = np.zeros((grid.n_mu, grid.n_omega))
        assert temperature_of(h, material, grid) == 0.0

    def test_per_x_values(self, grid, material):
        c = np.linspace(0.0, 1.0, grid.n_x)
        h = c[:, None, None] * np.broadcast_to(
            material.h_star, (grid.n_mu, grid.n_omega)
        )
        out = temperature_of(h, material, grid)
        assert out.shape == (grid.n_x,)
        np.testing.assert_allclose(out, c, rtol=1e-13, atol=1e-15)

    def test_trajectory_shape(self, grid, material):
        rng = np.random.default_rng(2)
        h = rng.standard_normal((4, grid.n_x, grid.n_mu, grid.n_omega))
        out = temperature_of(h, material, grid)
        assert out.shape == (4, grid.n_x)


class TestMeans:
    def test_mean_mu_omega_constant(self, grid):
        field = np.full((grid.n_mu, grid.n_omega), 3.25)
        assert mean_mu_omega(field, grid) == pytest.approx(3.25, rel=1e-14)

    def test_mean_omega_constant(self, grid):
        assert mean_omega(np.full(grid.n_omega, 1.5), grid) == pytest.approx(
            1.5, rel=1e-14
        )

    @staticmethod
    def reference(field, grid):
        """The (mu, omega) mean as an einsum over the raw weights."""
        return np.einsum(
            "...mo,m,o->...", field, grid.mu_weights, grid.omega_weights
        ) / (grid.mu_weights.sum() * grid.omega_weights.sum())

    def test_agrees_with_grid_average(self, grid):
        rng = np.random.default_rng(17)
        field = rng.standard_normal((grid.n_mu, grid.n_omega))
        assert mean_mu_omega(field, grid) == pytest.approx(
            self.reference(field, grid), rel=1e-13
        )

    def test_non_contiguous_input(self, grid):
        rng = np.random.default_rng(19)
        stored = rng.standard_normal((grid.n_x, grid.n_omega, grid.n_mu))
        field = stored.transpose(0, 2, 1)[::2]
        assert not field.flags.c_contiguous
        np.testing.assert_array_equal(
            mean_mu_omega(field, grid), mean_mu_omega(field.copy(), grid)
        )
        np.testing.assert_allclose(
            mean_mu_omega(field, grid), self.reference(field, grid), rtol=1e-12, atol=1e-15
        )
