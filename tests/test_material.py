"""Tests for the material coefficient module."""

import numpy as np
import pytest

from phonon_inverse.grid import GridConfig, build_grid
from phonon_inverse.material import (
    GStarProfile,
    MaterialModel,
    TauProfile,
    build_material,
    constant_g_star,
    constant_tau,
    default_g_star,
    eval_g_star,
    eval_tau,
    eval_velocity,
    ground_truth_tau,
    initial_guess_tau,
)

OMEGA_NODES = np.arange(10) * 0.4 + 0.4  # 0.4, 0.8, ..., 4.0

# Normalized Bose-Einstein weight omega^2 e^omega / (e^omega - 1)^2 on the
# ten production nodes, frozen from a direct standalone evaluation.
G_STAR_TABLE = np.array(
    [
        1.0,
        0.9610429829661166,
        0.900075662163597,
        0.8223056513169616,
        0.7337674526478739,
        0.6404738258415854,
        0.5477312801136901,
        0.45971422382417615,
        0.3793072208343085,
        0.3081635028235919,
    ]
)


class TestEvalTau:
    def test_ground_truth_closed_form(self):
        values = eval_tau(ground_truth_tau(), OMEGA_NODES)
        assert values[0] == pytest.approx(1.0 / np.sqrt(2.0) + 1.0, rel=1e-15)
        assert values[0] == pytest.approx(1.7071067811865475, rel=1e-12)
        assert values[-1] == pytest.approx(1.0 / np.sqrt(20.0) + 1.0, rel=1e-15)

    def test_ground_truth_strictly_decreasing(self):
        values = eval_tau(ground_truth_tau(), OMEGA_NODES)
        assert np.all(np.diff(values) < 0.0)

    def test_initial_guess_endpoints(self):
        values = eval_tau(initial_guess_tau(), OMEGA_NODES)
        assert values[-1] == pytest.approx(1.4, rel=1e-14)
        assert values[0] == pytest.approx(1.94, rel=1e-14)

    def test_constant(self):
        values = eval_tau(constant_tau(2.5), OMEGA_NODES)
        np.testing.assert_array_equal(values, 2.5)

    def test_nonpositive_rejected_with_node(self):
        # The initial guess crosses 0 at omega = 4 + 1.4 / 0.15 = 13.33.
        with pytest.raises(ValueError, match="omega = 14"):
            eval_tau(initial_guess_tau(), np.array([10.0, 14.0, 15.0]))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            eval_tau(TauProfile(kind="quadratic"), OMEGA_NODES)


class TestEvalVelocity:
    def test_default_linear_form(self):
        values = eval_velocity(OMEGA_NODES)
        assert values[0] == pytest.approx(2.42, rel=1e-14)
        assert values[-1] == pytest.approx(1.7, rel=1e-14)
        assert eval_velocity(np.array([2.0]))[0] == pytest.approx(2.1, rel=1e-14)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="nonpositive"):
            eval_velocity(np.array([13.0]))


class TestEvalGStar:
    def test_default_matches_frozen_table(self):
        values = eval_g_star(default_g_star(), OMEGA_NODES)
        np.testing.assert_allclose(values, G_STAR_TABLE, rtol=1e-12)

    def test_default_normalized_to_unit_max(self):
        values = eval_g_star(default_g_star(), OMEGA_NODES)
        assert values.max() == pytest.approx(1.0, abs=1e-15)

    def test_default_strictly_decreasing_on_grid(self):
        values = eval_g_star(default_g_star(), OMEGA_NODES)
        assert np.all(np.diff(values) < 0.0)

    def test_constant(self):
        values = eval_g_star(constant_g_star(0.5), OMEGA_NODES)
        np.testing.assert_array_equal(values, 0.5)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="nonpositive"):
            eval_g_star(constant_g_star(0.0), OMEGA_NODES)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            eval_g_star(GStarProfile(kind="lorentzian"), OMEGA_NODES)


class TestBuildMaterial:
    def test_identity_coefficients(self):
        material = build_material(constant_tau(1.0), constant_g_star(1.0), OMEGA_NODES)
        np.testing.assert_array_equal(material.h_star, 1.0)

    def test_h_star_is_definitional(self):
        material = build_material(ground_truth_tau(), default_g_star(), OMEGA_NODES)
        np.testing.assert_allclose(
            material.h_star, material.g_star / material.tau, rtol=1e-15
        )

    def test_with_tau_recomputes_h_star(self):
        material = build_material(ground_truth_tau(), default_g_star(), OMEGA_NODES)
        new_tau = eval_tau(initial_guess_tau(), OMEGA_NODES)
        updated = material.with_tau(new_tau)
        np.testing.assert_allclose(updated.h_star, material.g_star / new_tau, rtol=1e-15)
        # original untouched
        np.testing.assert_allclose(
            material.h_star, material.g_star / material.tau, rtol=1e-15
        )

    def test_with_tau_rejects_wrong_length(self):
        material = build_material(ground_truth_tau(), default_g_star(), OMEGA_NODES)
        with pytest.raises(ValueError, match="length"):
            material.with_tau(np.ones(3))

    def test_tau_bounds_enforced(self):
        with pytest.raises(ValueError, match="bounds"):
            build_material(constant_tau(50.0), default_g_star(), OMEGA_NODES)
        with pytest.raises(ValueError, match="bounds"):
            build_material(constant_tau(0.01), default_g_star(), OMEGA_NODES)

    def test_custom_bounds(self):
        material = build_material(
            constant_tau(50.0), default_g_star(), OMEGA_NODES, tau_bounds=(0.1, 100.0)
        )
        assert material.tau_bounds == (0.1, 100.0)

    def test_arrays_immutable(self):
        material = build_material(ground_truth_tau(), default_g_star(), OMEGA_NODES)
        with pytest.raises(ValueError):
            material.tau[0] = 2.0
        with pytest.raises(ValueError):
            material.h_star[0] = 2.0

    def test_max_characteristic_speed(self):
        grid = build_grid(
            GridConfig(
                dt=0.005, dx=0.02, domega=0.4, n_mu=64, t_end=1.5,
                omega_min=0.4, omega_max=4.0,
            )
        )
        material = build_material(ground_truth_tau(), default_g_star(), grid.omega_nodes)
        speed = material.max_characteristic_speed(grid.mu_nodes)
        assert speed == pytest.approx(np.max(np.abs(grid.mu_nodes)) * 2.42, rel=1e-14)
        assert speed < 2.42

    @pytest.mark.parametrize("name", ["omega_nodes", "tau", "velocity", "g_star"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_coefficient_names_the_node(self, name, bad):
        # NaN passes both tau bound comparisons; it must not reach a solve.
        tables = dict(
            omega_nodes=[1.0, 2.0, 3.0], tau=[1.0, 1.5, 2.0],
            velocity=[2.0, 1.8, 1.6], g_star=[1.0, 0.8, 0.6],
        )
        tables[name][1] = bad
        with pytest.raises(ValueError, match=rf"{name} = {bad} at omega node 1 is not finite"):
            MaterialModel(**tables)

    def test_with_tau_refuses_nan(self):
        material = build_material(ground_truth_tau(), default_g_star(), OMEGA_NODES)
        tau = material.tau.copy()
        tau[4] = np.nan
        with pytest.raises(ValueError, match="tau = nan at omega node 4"):
            material.with_tau(tau)

    def test_direct_construction_coerces_lists(self):
        material = MaterialModel(
            omega_nodes=[1.0, 2.0],
            tau=[1.0, 2.0],
            velocity=[1.0, 1.0],
            g_star=[1.0, 0.5],
        )
        np.testing.assert_allclose(material.h_star, [1.0, 0.25], rtol=1e-15)
