"""Tests for macroscopic observables and diffusion-limit diagnostics."""

import csv
import math

import numpy as np
import pytest

from phonon_inverse.collision import temperature_of
from phonon_inverse.diagnostics import (
    _CSV_BLOCK_ROWS,
    MacroTrace,
    bulk_kappa,
    chapman_enskog_residual,
    compute_macro_trace,
    settled_kappa,
    to_g,
    write_macro_trace_csv,
)
from phonon_inverse.grid import GridConfig, build_grid
from phonon_inverse.material import (
    build_material,
    default_g_star,
    ground_truth_tau,
)
from phonon_inverse.transport import BoundarySource, solve_forward
from diagnostics_reference import heat_flux, macro_trace_from_values, solve_heat_reference

BEAM = BoundarySource(t0=0.04, mu0=0.96, omega0=2.0, widths=(0.01, 0.01, 0.1))

# Frozen reference values for the ground-truth relaxation-time profile on the
# baseline band (10 nodes over [0.4, 4.0], 64 mu nodes), recorded from direct
# evaluation of the corresponding quadratures and solver runs.
BULK_KAPPA = 1.481892675707624
G_STAR_MEAN = 0.6752581802531902
DIFFUSIVITY = 2.194557162050201  # BULK_KAPPA / G_STAR_MEAN
SETTLED_KAPPA_EPS01 = 1.445960401180301  # station x=0.5, horizon t=0.5
SETTLED_DRIFT_EPS01 = 0.016111294090283317
HEAT_MISMATCH_DX002 = 0.00513424046188333
HEAT_MISMATCH_DX004 = 0.025242249648089847
CE_RESIDUALS = {
    1.0: 1.2964431990381426,
    0.1: 0.06660624048104306,
    0.05: 0.024236467535065098,
}
CONSTRUCTED_RESIDUAL = 0.001013456294401171


def baseline_grid(**overrides):
    kwargs = dict(
        dt=0.005, dx=0.02, domega=0.4, n_mu=64, t_end=1.5,
        omega_min=0.4, omega_max=4.0,
    )
    kwargs.update(overrides)
    return build_grid(GridConfig(**kwargs))


@pytest.fixture(scope="module")
def grid():
    return baseline_grid(t_end=0.5)


@pytest.fixture(scope="module")
def material(grid):
    return build_material(ground_truth_tau(), default_g_star(), grid.omega_nodes)


@pytest.fixture(scope="module")
def short_run(material):
    """Ballistic states at every time node, (t, x, mu, omega), for moment cross-checks."""
    g = baseline_grid(t_end=0.3)
    return g, solve_forward(material, g, BEAM, snapshot_times=g.t_nodes).snapshots


@pytest.fixture(scope="module")
def diffusive_grid():
    return baseline_grid(dt=0.0005, t_end=0.5, epsilon=0.1)


@pytest.fixture(scope="module")
def diffusive_macro(diffusive_grid, material):
    return compute_macro_trace(material, diffusive_grid, BEAM)


class TestHeatFlux:
    def test_isotropic_field_carries_no_flux(self, grid, material):
        rng = np.random.default_rng(3)
        spectral = rng.normal(size=(5, 1, grid.n_omega))
        values_g = np.broadcast_to(spectral, (5, grid.n_mu, grid.n_omega))
        flux = heat_flux(values_g, material, grid)
        assert np.abs(flux).max() < 1e-15

    def test_antisymmetric_under_mu_reversal(self, grid, material):
        rng = np.random.default_rng(4)
        values_g = rng.normal(size=(7, grid.n_mu, grid.n_omega))
        forward = heat_flux(values_g, material, grid)
        reversed_ = heat_flux(values_g[:, ::-1, :], material, grid)
        np.testing.assert_allclose(reversed_, -forward, rtol=1e-13, atol=1e-16)

    def test_linear_in_mu_matches_quadrature_identity(self, grid, material):
        # mean(mu^2) = 1/3 exactly under Gauss-Legendre, and the channel
        # mean of omega over the uniform band [0.4, 4.0] is 2.2.
        values_g = np.broadcast_to(
            grid.mu_nodes[:, None], (grid.n_mu, grid.n_omega)
        )
        expected = (2.5 - 0.2 * 2.2) / 3.0
        assert heat_flux(values_g, material, grid) == pytest.approx(
            expected, rel=1e-13
        )

    def test_first_order_shape_reproduces_bulk_conductivity(self, grid, material):
        # g = mu v tau g* is the first-order diffusive correction per unit
        # temperature gradient; its flux is exactly the bulk conductivity.
        values_g = grid.mu_nodes[:, None] * (
            material.velocity * material.tau * material.g_star
        )
        flux = heat_flux(values_g, material, grid)
        assert flux == pytest.approx(bulk_kappa(material, grid), rel=1e-13)

    def test_flux_scales_inversely_with_grid_epsilon(self, grid, material):
        rng = np.random.default_rng(5)
        values_g = rng.normal(size=(grid.n_mu, grid.n_omega))
        base = heat_flux(values_g, material, baseline_grid(t_end=0.5, epsilon=1.0))
        half = heat_flux(values_g, material, baseline_grid(t_end=0.5, epsilon=0.5))
        assert half == pytest.approx(2.0 * base, rel=1e-13)

    def test_single_slice_returns_scalar(self, grid, material):
        values_g = np.ones((grid.n_mu, grid.n_omega))
        assert isinstance(heat_flux(values_g, material, grid), float)


class TestMacroTrace:
    def test_to_g_scales_by_tau(self, grid, material):
        rng = np.random.default_rng(6)
        values_h = rng.normal(size=(grid.n_mu, grid.n_omega))
        np.testing.assert_array_equal(
            to_g(values_h, material), values_h * material.tau
        )

    def test_streaming_matches_from_values(self, short_run, material):
        g, states = short_run
        streamed = compute_macro_trace(material, g, BEAM)
        stored = macro_trace_from_values(states, material, g)
        np.testing.assert_allclose(
            streamed.temperature, stored.temperature, rtol=1e-13, atol=1e-18
        )
        np.testing.assert_allclose(streamed.q, stored.q, rtol=1e-13, atol=1e-18)
        np.testing.assert_allclose(
            streamed.kappa, stored.kappa, rtol=1e-10, atol=1e-18, equal_nan=True
        )
        np.testing.assert_array_equal(
            streamed.kappa_defined, stored.kappa_defined
        )
        np.testing.assert_array_equal(streamed.final_h, states[-1])

    def test_temperature_matches_collision_moment(self, short_run, material):
        g, states = short_run
        macro = macro_trace_from_values(states, material, g)
        slice_index = g.n_t // 2
        np.testing.assert_allclose(
            macro.temperature[slice_index],
            temperature_of(states[slice_index], material, g),
            rtol=1e-13,
            atol=1e-18,
        )

    def test_flux_matches_heat_flux_helper(self, short_run, material):
        g, states = short_run
        macro = macro_trace_from_values(states, material, g)
        slice_index = g.n_t // 2
        np.testing.assert_allclose(
            macro.q[slice_index],
            heat_flux(to_g(states[slice_index], material), material, g),
            rtol=1e-13,
            atol=1e-18,
        )

    def test_gradient_column(self, short_run, material):
        g, states = short_run
        macro = macro_trace_from_values(states, material, g)
        np.testing.assert_array_equal(
            macro.dT_dx,
            np.gradient(macro.temperature, g.dx, axis=1, edge_order=2),
        )

    def test_kappa_equals_flux_gradient_ratio(self, short_run, material):
        g, states = short_run
        macro = macro_trace_from_values(states, material, g)
        defined = macro.kappa_defined
        assert defined.any()
        np.testing.assert_allclose(
            macro.kappa[defined], -macro.q[defined] / macro.dT_dx[defined]
        )
        assert np.isnan(macro.kappa[~defined]).all()


class TestPointwiseKappa:
    def _macro_from_profile(self, profile, grid, material, n_t=3):
        values = np.broadcast_to(
            profile[None, :, None, None] * material.h_star,
            (n_t, grid.n_x, grid.n_mu, grid.n_omega),
        )
        return macro_trace_from_values(
            values, material, grid, t_nodes=grid.t_nodes[:n_t]
        )

    def test_isotropic_field_gives_zero_kappa(self, grid, material):
        macro = self._macro_from_profile(
            1.0 + 0.5 * np.sin(np.pi * grid.x_nodes), grid, material
        )
        assert macro.kappa_defined.any()
        assert np.abs(macro.q).max() < 1e-15
        assert np.abs(macro.kappa[macro.kappa_defined]).max() < 1e-12

    def test_flat_temperature_is_undefined(self, grid, material):
        macro = self._macro_from_profile(
            np.full(grid.n_x, 0.7), grid, material
        )
        assert not macro.kappa_defined.any()
        assert np.isnan(macro.kappa).all()

    def test_zero_field_is_undefined(self, grid, material):
        values = np.zeros((2, grid.n_x, grid.n_mu, grid.n_omega))
        macro = macro_trace_from_values(
            values, material, grid, t_nodes=grid.t_nodes[:2]
        )
        assert not macro.kappa_defined.any()
        with pytest.raises(ValueError, match="undefined"):
            settled_kappa(macro, settle_time=grid.t_nodes[0])

    def test_rejects_mismatched_time_labels(self, grid, material):
        values = np.zeros((2, grid.n_x, grid.n_mu, grid.n_omega))
        with pytest.raises(ValueError, match="t_nodes"):
            macro_trace_from_values(values, material, grid)

    def test_settled_requires_late_nodes(self, grid, material):
        macro = self._macro_from_profile(grid.x_nodes, grid, material)
        with pytest.raises(ValueError, match="no time nodes"):
            settled_kappa(macro, settle_time=macro.t_nodes[-1] + 1.0)


class TestSettledKappa:
    def test_matches_frozen_value(self, diffusive_macro):
        settled, drift = settled_kappa(diffusive_macro)
        assert settled == pytest.approx(SETTLED_KAPPA_EPS01, rel=1e-12)
        assert drift == pytest.approx(SETTLED_DRIFT_EPS01, rel=1e-9)

    def test_settles_near_bulk(self, diffusive_macro, diffusive_grid, material):
        settled, drift = settled_kappa(diffusive_macro)
        bulk = bulk_kappa(material, diffusive_grid)
        assert drift < 0.05
        assert abs(settled - bulk) / bulk < 0.10


class TestBulkAndAccumulation:
    def test_frozen_value(self, grid, material):
        assert bulk_kappa(material, grid) == pytest.approx(
            BULK_KAPPA, rel=1e-12
        )

    def test_grey_medium_identity(self, grid):
        # Frequency-independent tau and v: the integral collapses to
        # (1/3) v^2 tau times the mean equilibrium density of states.
        grey = build_material(
            ground_truth_tau(), default_g_star(), grid.omega_nodes,
            velocity_coeffs=(1.8, 0.0),
        )
        grey = grey.with_tau(np.full(grid.n_omega, 1.3))
        weights = grid.omega_weights / grid.omega_weights.sum()
        expected = 1.8**2 * 1.3 / 3.0 * (weights @ grey.g_star)
        assert bulk_kappa(grey, grid) == pytest.approx(expected, rel=1e-14)

    def test_linear_in_tau(self, grid, material):
        doubled = material.with_tau(2.0 * material.tau)
        assert bulk_kappa(doubled, grid) == pytest.approx(
            2.0 * bulk_kappa(material, grid), rel=1e-14
        )


def heat_grid(**overrides):
    kwargs = dict(
        dt=0.01, dx=0.05, domega=0.4, n_mu=2, t_end=1.0,
        omega_min=0.4, omega_max=4.0,
    )
    kwargs.update(overrides)
    return build_grid(GridConfig(**kwargs))


class TestSolveHeatReference:
    def test_constant_profile_is_a_fixed_point(self):
        g = heat_grid()
        u = solve_heat_reference(0.3, np.full(g.n_x, 0.7), g)
        np.testing.assert_array_equal(u, np.full((g.n_t, g.n_x), 0.7))

    def test_conserves_trapezoid_mass(self):
        g = heat_grid()
        initial = np.random.default_rng(7).normal(size=g.n_x)
        u = solve_heat_reference(0.3, initial, g)
        mass = u @ g.x_weights
        np.testing.assert_allclose(mass, mass[0], rtol=1e-12)

    def test_cosine_eigenmode_decays_at_exact_rate(self):
        # cos(pi x) is an exact eigenvector of the discrete flux-form
        # operator with the half-width end cells, so the whole run reduces
        # to a scalar power: u_N = lambda^N cos(pi x).
        g = heat_grid()
        diffusivity = 0.3
        substeps = math.ceil(g.dt / (g.dx**2 / (2 * diffusivity)) * (1 + 1e-12))
        ratio = diffusivity * (g.dt / substeps) / g.dx**2
        lam = 1.0 + 2.0 * ratio * (math.cos(math.pi * g.dx) - 1.0)
        profile = np.cos(np.pi * g.x_nodes)
        u = solve_heat_reference(diffusivity, profile, g)
        total = (g.n_t - 1) * substeps
        np.testing.assert_allclose(
            u[-1], lam**total * profile, rtol=1e-10, atol=1e-13
        )

    def test_dirichlet_trace_is_honored(self):
        g = heat_grid()
        trace = 1.0 + 0.5 * np.sin(2 * np.pi * g.t_nodes)
        initial = np.zeros(g.n_x)
        u = solve_heat_reference(0.3, initial, g, left_trace=trace)
        assert u[0, 0] == trace[0]
        np.testing.assert_array_equal(u[0, 1:], initial[1:])
        np.testing.assert_allclose(u[:, 0], trace, rtol=1e-12, atol=1e-14)

    def test_relaxes_to_conserved_mean(self):
        g = heat_grid(t_end=5.0, dt=0.05)
        initial = np.random.default_rng(8).normal(size=g.n_x)
        u = solve_heat_reference(0.3, initial, g)
        mean = (initial @ g.x_weights) / g.x_weights.sum()
        np.testing.assert_allclose(u[-1], mean, atol=1e-5)

    def test_refuses_unstable_explicit_substeps(self):
        g = heat_grid()
        with pytest.raises(ValueError, match="diffusion CFL"):
            solve_heat_reference(0.3, np.zeros(g.n_x), g, substeps=1)

    def test_rejects_bad_inputs(self):
        g = heat_grid()
        with pytest.raises(ValueError, match="positive"):
            solve_heat_reference(0.0, np.zeros(g.n_x), g)
        with pytest.raises(ValueError, match="initial_u"):
            solve_heat_reference(0.3, np.zeros(g.n_x + 1), g)
        with pytest.raises(ValueError, match="left_trace"):
            solve_heat_reference(
                0.3, np.zeros(g.n_x), g, left_trace=np.zeros(g.n_t - 1)
            )


class TestKineticVsHeatReference:
    """Seed the heat reference with a kinetic temperature snapshot at an
    interior station and compare the later evolution.

    The first-order upwind scheme adds O(dx/epsilon) numerical diffusion on
    top of the physical conductivity, so the kinetic-vs-heat gap at fixed
    resolution is dominated by dx, not epsilon; the assertions below pin the
    small measured mismatch and its decrease under spatial refinement.
    """

    def _mismatch(self, g, macro, material):
        diffusivity = bulk_kappa(material, g) / (
            (g.omega_weights / g.omega_weights.sum()) @ material.g_star
        )
        i0 = int(round((0.125 - g.t_nodes[0]) / g.dt))
        jx = int(round(0.2 / g.dx))
        seed_grid = build_grid(
            GridConfig(
                dt=g.dt, dx=g.dx, domega=0.4, n_mu=64, t_start=0.125,
                t_end=0.5, x_start=0.2, omega_min=0.4, omega_max=4.0,
                epsilon=g.epsilon,
            )
        )
        u_ref = solve_heat_reference(
            diffusivity,
            macro.temperature[i0, jx:],
            seed_grid,
            left_trace=macro.temperature[i0:, jx],
        )
        late = seed_grid.t_nodes >= 0.25
        kinetic = macro.temperature[i0:, jx:][late]
        return float(
            np.sqrt(np.mean((u_ref[late] - kinetic) ** 2))
            / np.sqrt(np.mean(kinetic**2))
        )

    def test_agrees_with_heat_limit(
        self, diffusive_grid, diffusive_macro, material
    ):
        mismatch = self._mismatch(diffusive_grid, diffusive_macro, material)
        assert mismatch == pytest.approx(HEAT_MISMATCH_DX002, rel=1e-10)
        assert mismatch < 0.03

    def test_spatial_refinement_tightens_agreement(
        self, diffusive_grid, diffusive_macro, material
    ):
        coarse_grid = baseline_grid(dt=0.001, dx=0.04, t_end=0.5, epsilon=0.1)
        coarse = self._mismatch(
            coarse_grid,
            compute_macro_trace(material, coarse_grid, BEAM),
            material,
        )
        fine = self._mismatch(diffusive_grid, diffusive_macro, material)
        assert coarse == pytest.approx(HEAT_MISMATCH_DX004, rel=1e-10)
        assert coarse > 2.0 * fine


class TestChapmanEnskogResidual:
    def test_rejects_wrong_shape(self, grid, material):
        with pytest.raises(ValueError, match="single-time slice"):
            chapman_enskog_residual(
                np.zeros((grid.n_mu, grid.n_omega)), material, grid
            )

    def test_equilibrium_field_has_zero_residual(self, grid, material):
        slice_g = np.broadcast_to(
            0.7 * material.g_star, (grid.n_x, grid.n_mu, grid.n_omega)
        )
        assert chapman_enskog_residual(slice_g, material, grid) < 1e-14

    def test_quadratic_temperature_is_resolved_exactly(self, grid, material):
        # The second-order finite-difference gradient reproduces a quadratic
        # temperature profile exactly, so the constructed first-order field
        # has no defect beyond rounding.
        x = grid.x_nodes
        u = 1.0 + 0.3 * x + 0.2 * x**2
        du = 0.3 + 0.4 * x
        eps = 0.1
        slice_g = material.g_star * u[:, None, None] - eps * grid.mu_nodes[
            :, None
        ] * (material.velocity * material.tau * material.g_star) * du[
            :, None, None
        ]
        eps_grid = baseline_grid(t_end=0.5, epsilon=eps)
        assert chapman_enskog_residual(slice_g, material, eps_grid) < 1e-12

    def test_constructed_sine_field_matches_gradient_error(self, grid, material):
        # For an exact first-order field the only defect is the difference
        # between the discrete and analytic temperature gradients, which the
        # test reproduces independently through the grid quadrature.
        x = grid.x_nodes
        eps = 0.1
        u = 2.0 + np.sin(2 * np.pi * x)
        du = 2 * np.pi * np.cos(2 * np.pi * x)
        shape = material.velocity * material.tau * material.g_star
        slice_g = (
            material.g_star * u[:, None, None]
            - eps * grid.mu_nodes[:, None] * shape * du[:, None, None]
        )
        eps_grid = baseline_grid(t_end=0.5, epsilon=eps)
        residual = chapman_enskog_residual(slice_g, material, eps_grid)
        assert residual == pytest.approx(CONSTRUCTED_RESIDUAL, rel=1e-10)

        gradient_error = np.gradient(u, grid.dx, edge_order=2) - du
        defect = (
            eps
            * grid.mu_nodes[:, None]
            * shape
            * gradient_error[:, None, None]
        )
        weights = (grid.x_weights, grid.mu_weights, grid.omega_weights)
        expected = np.sqrt(
            np.einsum("xmo,x,m,o->", defect**2, *weights)
            / np.einsum("xmo,x,m,o->", slice_g**2, *weights)
        )
        assert residual == pytest.approx(float(expected), rel=1e-10)
        # central-difference error scale for this profile
        assert residual < eps * (2 * np.pi) ** 3 * grid.dx**2 / 6.0

    def test_regime_ordering(self, material):
        # Ballistic (epsilon = 1) snapshots are order one away from the
        # diffusive ansatz; diffusive snapshots approach it as epsilon drops.
        measured = {}
        for eps, dt in ((1.0, 0.005), (0.1, 0.0005), (0.05, 0.00025)):
            g = baseline_grid(dt=dt, t_end=0.3, epsilon=eps)
            traj = solve_forward(material, g, BEAM, snapshot_times=[0.3])
            measured[eps] = chapman_enskog_residual(
                to_g(traj.snapshots[0], material), material, g
            )
            assert measured[eps] == pytest.approx(CE_RESIDUALS[eps], rel=1e-10)
        assert measured[0.05] < measured[0.1] < measured[1.0]
        assert measured[1.0] > 1.0


class TestCsvWriter:
    def test_round_trip(self, short_run, material, tmp_path):
        g, states = short_run
        macro = macro_trace_from_values(
            states[:4], material, g, t_nodes=g.t_nodes[:4]
        )
        path = tmp_path / "macro.csv"
        write_macro_trace_csv(macro, path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["t", "x", "q", "T", "dT_dx", "kappa", "kappa_defined"]
        assert len(rows) == 1 + 4 * g.n_x
        for index, row in enumerate(rows[1:]):
            i, j = divmod(index, g.n_x)
            assert float(row[0]) == macro.t_nodes[i]
            assert float(row[1]) == macro.x_nodes[j]
            assert float(row[2]) == macro.q[i, j]
            assert float(row[3]) == macro.temperature[i, j]
            assert float(row[4]) == macro.dT_dx[i, j]
            kappa = float(row[5])
            if macro.kappa_defined[i, j]:
                assert kappa == macro.kappa[i, j]
            else:
                assert np.isnan(kappa)
            assert row[6] == str(int(macro.kappa_defined[i, j]))

    @pytest.mark.parametrize("n_t", [0, 1, 2 * _CSV_BLOCK_ROWS + 3])
    def test_bytes_match_csv_writer(self, n_t, tmp_path):
        # Two full blocks and a partial one, a single row, and header only.
        n_x = 7
        rng = np.random.default_rng(8)

        def extreme_field():
            field = rng.standard_normal((n_t, n_x)) * 10.0 ** rng.integers(
                -300, 301, (n_t, n_x)
            )
            specials = [-0.0, 0.0, 1e-300, -1e-300, 1e300, -1e300, 5e-324, np.inf, 1.0 / 3.0]
            field.ravel()[: min(field.size, len(specials))] = specials[: field.size]
            return field

        defined = rng.random((n_t, n_x)) < 0.7
        defined[:, 0] = False
        kappa = np.where(defined, extreme_field(), np.nan)
        macro = MacroTrace(
            t_nodes=np.linspace(0.0, 0.5, n_t) + 1.0 / 3.0,
            x_nodes=np.linspace(0.0, 1.0, n_x),
            q=extreme_field(),
            temperature=extreme_field(),
            dT_dx=extreme_field(),
            kappa=kappa,
            kappa_defined=defined,
            final_h=np.zeros((n_x, 1, 1)),
        )
        path = tmp_path / "macro.csv"
        write_macro_trace_csv(macro, path)

        expected = tmp_path / "expected.csv"
        with open(expected, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["t", "x", "q", "T", "dT_dx", "kappa", "kappa_defined"])
            for i, t in enumerate(macro.t_nodes):
                for j, x in enumerate(macro.x_nodes):
                    writer.writerow(
                        [
                            format(t, ".17g"),
                            format(x, ".17g"),
                            format(macro.q[i, j], ".17g"),
                            format(macro.temperature[i, j], ".17g"),
                            format(macro.dT_dx[i, j], ".17g"),
                            format(macro.kappa[i, j], ".17g"),
                            int(macro.kappa_defined[i, j]),
                        ]
                    )
        assert path.read_bytes() == expected.read_bytes()
