"""Tests for the forward and adjoint transport solvers."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phonon_inverse.collision import mean_omega, temperature_of
from phonon_inverse.diagnostics import compute_macro_trace
from phonon_inverse.grid import GridConfig, build_grid
from phonon_inverse.material import (
    build_material,
    constant_g_star,
    constant_tau,
    default_g_star,
    ground_truth_tau,
)
from phonon_inverse import transport
from phonon_inverse.transport import (
    BoundarySource,
    _fold,
    _integrate,
    _step,
    _step_tables,
    _transposed_step,
    boundary_response,
    gaussian_bump,
    gaussian_source,
    solve_adjoint,
    solve_forward,
    solve_forward_batch,
)
from transport_reference import (
    einsum_outer,
    einsum_transposed_step,
    fold,
    reference_inflow,
    reference_march,
    reference_step,
    unfold,
)

BEAM = BoundarySource(t0=0.04, mu0=0.96, omega0=2.0, widths=(0.01, 0.01, 0.1))
BEAM_ARRIVAL = 0.04 + 2.0 / (0.96 * 2.1)  # return time of the reflected pulse


def traced_peak(call):
    """(result, peak bytes allocated above the start) of a call, after one warm-up call."""
    call()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return result, peak


def inflow_block_bytes(grid):
    return transport._INFLOW_BLOCK_STEPS * (grid.n_mu // 2) * grid.n_omega * 8


def baseline_grid(**overrides):
    kwargs = dict(
        dt=0.005, dx=0.02, domega=0.4, n_mu=64, t_end=1.5,
        omega_min=0.4, omega_max=4.0,
    )
    kwargs.update(overrides)
    return build_grid(GridConfig(**kwargs))


@pytest.fixture(scope="module")
def grid():
    return baseline_grid()


@pytest.fixture(scope="module")
def material(grid):
    return build_material(ground_truth_tau(), default_g_star(), grid.omega_nodes)


def every_state(material, grid, source):
    """A forward solve with a snapshot at every time node: (t, x, mu, omega) states."""
    return solve_forward(material, grid, source, snapshot_times=grid.t_nodes)


@pytest.fixture(scope="module")
def beam_trajectory(grid, material):
    return every_state(material, grid, BEAM)


@pytest.fixture(scope="module")
def beam_states(beam_trajectory):
    """The beam's state at every time node, in (t, x, mu, omega) layout."""
    return beam_trajectory.snapshots


# Every march, as a call on (material, grid, source).  Each builds the step's
# coefficients, and with them runs the stability check, before it steps; the
# refusal tests loop over all of them.
MARCHES = {
    "solve_forward": lambda material, grid, source: solve_forward(material, grid, source),
    "solve_forward_batch": lambda material, grid, source: solve_forward_batch(
        material, grid, [source]
    ),
    "boundary_response": lambda material, grid, source: boundary_response(material, grid),
    "solve_adjoint": lambda material, grid, source: solve_adjoint(
        material, grid, 1.0, np.zeros((grid.n_t - 1, grid.n_mu // 2, grid.n_omega))
    ),
}


class TestBoundarySource:
    def test_rejects_mu0_outside_open_interval(self):
        for mu0 in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="mu0"):
                BoundarySource(t0=0.1, mu0=mu0, omega0=2.0, widths=(0.01, 0.01, 0.1))

    def test_rejects_bad_widths(self):
        with pytest.raises(ValueError, match="widths"):
            BoundarySource(t0=0.1, mu0=0.9, omega0=2.0, widths=(0.01, -0.01, 0.1))
        with pytest.raises(ValueError, match="widths"):
            BoundarySource(t0=0.1, mu0=0.9, omega0=2.0, widths=(0.01, 0.1))

    @pytest.mark.parametrize("field", ["t0", "mu0", "omega0"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_center(self, field, value):
        fields = dict(t0=0.1, mu0=0.9, omega0=2.0, widths=(0.01, 0.01, 0.1))
        fields[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            BoundarySource(**fields)

    @pytest.mark.parametrize("axis", range(3))
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_nonfinite_width(self, axis, value):
        # A NaN width is not <= 0, and an infinite one gives a flat pulse.
        widths = [0.01, 0.01, 0.1]
        widths[axis] = value
        with pytest.raises(ValueError, match="widths must be three finite positive"):
            BoundarySource(t0=0.1, mu0=0.9, omega0=2.0, widths=tuple(widths))

    def test_unit_peak_at_center(self):
        phi = gaussian_source(BEAM)
        assert phi(BEAM.t0, BEAM.mu0, BEAM.omega0) == pytest.approx(1.0, rel=1e-15)

    def test_three_sigma_time_offset(self):
        phi = gaussian_source(BEAM)
        value = phi(BEAM.t0 + 3 * BEAM.widths[0], BEAM.mu0, BEAM.omega0)
        assert value == pytest.approx(np.exp(-4.5), rel=1e-14)
        assert value == pytest.approx(0.011108996538242306, rel=1e-12)

    def test_separable_product(self):
        phi = gaussian_source(BEAM)
        t, mu, omega = 0.07, 0.91, 2.3
        expected = (
            gaussian_bump(t - BEAM.t0, 0.01)
            * gaussian_bump(mu - BEAM.mu0, 0.01)
            * gaussian_bump(omega - BEAM.omega0, 0.1)
        )
        assert phi(t, mu, omega) == pytest.approx(expected, rel=1e-15)


class TestSolveForward:
    def test_zero_source_stays_zero(self, material):
        grid = baseline_grid(t_end=0.1, n_mu=8)
        traj = every_state(
            material, grid, lambda t, mu, omega: np.zeros(np.broadcast_shapes(
                np.shape(t), np.shape(mu), np.shape(omega)))
        )
        assert np.all(traj.snapshots == 0.0)
        assert np.all(traj.left_trace == 0.0)

    def test_first_slice_is_initial_condition_exactly(self, beam_states):
        assert np.all(beam_states[0] == 0.0)

    def test_inflow_rows_match_source(self, grid, material, beam_states):
        # Every state after the first, across the march's inflow blocks,
        # carries phi / tau of its own time node bit for bit.
        half = grid.n_mu // 2
        phi = gaussian_source(BEAM)
        expected = (
            phi(grid.t_nodes[1:, None, None], grid.mu_nodes[half:, None], grid.omega_nodes)
            / material.tau
        )
        np.testing.assert_array_equal(beam_states[1:, 0, half:, :], expected)

    def test_reflection_rows_are_mirror_images(self, grid, beam_states):
        half = grid.n_mu // 2
        slab = beam_states[:, -1]
        np.testing.assert_array_equal(slab[:, :half], slab[:, half:][:, ::-1])

    def test_outflow_rows_copy_interior(self, grid, beam_states):
        half = grid.n_mu // 2
        np.testing.assert_array_equal(beam_states[1:, 0, :half], beam_states[1:, 1, :half])

    def test_boundary_traces_match_trajectory(self, beam_trajectory, beam_states):
        np.testing.assert_array_equal(beam_trajectory.left_trace, beam_states[:, 0])

    def test_traces_only_solve_matches_full(self, grid, material, beam_trajectory):
        lean = solve_forward(material, grid, BEAM)
        assert lean.snapshots is None
        np.testing.assert_array_equal(lean.left_trace, beam_trajectory.left_trace)

    def test_snapshots_fill_every_requested_slot(self, grid, material, beam_states):
        # 0.2004 rounds to the same node as 0.2, so three slots share node 40.
        lean = solve_forward(material, grid, BEAM, snapshot_times=(0.2, 0.1, 0.2, 0.2004))
        nodes = [40, 20, 40, 40]
        assert lean.snapshot_times == tuple(float(grid.t_nodes[n]) for n in nodes)
        assert np.abs(lean.snapshots[0]).max() > 0.0
        for slot, n in zip(lean.snapshots, nodes):
            np.testing.assert_array_equal(slot, beam_states[n])

    def test_batch_matches_single_solves(self, material):
        grid = baseline_grid(t_end=0.5, n_mu=16)
        sources = [
            BEAM,
            BoundarySource(t0=0.1, mu0=0.93, omega0=1.2, widths=(0.01, 0.01, 0.1)),
        ]
        batch = solve_forward_batch(material, grid, sources)
        for i, src in enumerate(sources):
            single = solve_forward(material, grid, src)
            np.testing.assert_array_equal(batch[i], single.left_trace)

    def test_reflected_temperature_peak_near_arrival_time(
        self, grid, material, beam_trajectory
    ):
        temp = temperature_of(beam_trajectory.left_trace, material, grid)
        window = (grid.t_nodes > BEAM_ARRIVAL - 0.25) & (grid.t_nodes < BEAM_ARRIVAL + 0.25)
        peak_t = grid.t_nodes[window][np.argmax(temp[window])]
        assert abs(peak_t - BEAM_ARRIVAL) <= 0.05
        assert abs(peak_t - 1.0321) <= 0.05

    def test_causality_discrete_domain_of_influence(self, grid, beam_states):
        # The scheme moves information at most one cell per step, so the x=1
        # trace must be *bitwise* zero until the inflow has had n_x - 1 steps
        # to cross the slab.
        n_cross = grid.n_x - 1
        assert np.all(beam_states[: n_cross + 1, -1] == 0.0)

    def test_causality_front_amplitude(self, grid, beam_states):
        # The continuous front arrives at x=1 at t0 + 1/(mu0 v(omega0)) ~ 0.536;
        # the first-order scheme smears it, but well before the smeared foot
        # (t <= 0.30, measured margin) the trace is negligible relative to the
        # global solution scale.
        scale = np.abs(beam_states).max()
        early = grid.t_nodes <= 0.30
        assert np.abs(beam_states[early, -1]).max() <= 1e-9 * scale

    def test_reflection_conserves_flux(self, grid, material, beam_states):
        half = grid.n_mu // 2
        w, mu = grid.mu_weights, grid.mu_nodes
        right = beam_states[:, -1]
        incoming = np.einsum(
            "tmo,m,m,o->t", right[:, half:], w[half:], mu[half:], material.velocity,
        )
        outgoing = np.einsum(
            "tmo,m,m,o->t", right[:, :half], w[:half], mu[:half], material.velocity,
        )
        assert np.abs(incoming + outgoing).max() <= 1e-10 * np.abs(incoming).max()

    def test_linearity_in_source(self, material):
        grid = baseline_grid(t_end=0.5, n_mu=16)
        phi_a = gaussian_source(BEAM)
        phi_b = gaussian_source(
            BoundarySource(t0=0.1, mu0=0.5, omega0=1.0, widths=(0.02, 0.05, 0.2))
        )
        combo = lambda t, mu, omega: 2.0 * phi_a(t, mu, omega) - 3.0 * phi_b(t, mu, omega)
        states_a = every_state(material, grid, phi_a).snapshots
        states_b = every_state(material, grid, phi_b).snapshots
        states_c = every_state(material, grid, combo).snapshots
        recombined = 2.0 * states_a - 3.0 * states_b
        scale = np.abs(states_c).max()
        np.testing.assert_allclose(states_c, recombined, atol=1e-12 * scale)

    def test_refinement_converges_monotonically(self):
        def boundary_trace(dx, dt):
            grid = baseline_grid(dx=dx, dt=dt, n_mu=32)
            material = build_material(
                ground_truth_tau(), default_g_star(), grid.omega_nodes
            )
            traj = solve_forward(material, grid, BEAM)
            return grid, temperature_of(traj.left_trace, material, grid)

        _, finest = boundary_trace(0.005, 0.00125)
        errors = []
        for dx, dt in [(0.04, 0.01), (0.02, 0.005), (0.01, 0.0025)]:
            _, trace = boundary_trace(dx, dt)
            stride = int(round(dt / 0.00125))
            errors.append(np.abs(trace - finest[::stride]).max())
        assert errors[0] > errors[1] > errors[2]

    def test_near_equilibrium_frequency_profile_at_small_epsilon(self, material):
        grid = baseline_grid(dt=0.0005, t_end=0.12, epsilon=0.1)
        traj = every_state(material, grid, BEAM)
        ix = int(np.argmin(np.abs(grid.x_nodes - 0.5)))
        imu = int(np.argmin(np.abs(grid.mu_nodes - 0.9675)))
        slice_omega = traj.snapshots[-1][ix, imu, :]
        h_star = material.h_star
        coef = (slice_omega @ h_star) / (h_star @ h_star)
        deviation = np.linalg.norm(slice_omega - coef * h_star) / np.linalg.norm(
            slice_omega
        )
        assert deviation < 0.10

    @pytest.mark.parametrize(
        "refused, accepted, match",
        [
            # dt = 0.005 is far above 0.1 * 0.02 / 2.42 but fine at epsilon = 1
            (dict(epsilon=0.1), dict(), "CFL"),
            # the message names the max speed max|mu| * 2.42 of the 64-node grid
            (dict(dt=0.02), dict(), r"max characteristic speed 2\.418"),
            # the limit scales with epsilon: a tenfold smaller dt passes again
            (dict(epsilon=0.1), dict(epsilon=0.1, dt=0.0005), "CFL"),
        ],
        ids=["epsilon", "names_max_speed", "scales_with_epsilon"],
    )
    def test_cfl_violation_refused(self, material, refused, accepted, match):
        for march in MARCHES.values():
            with pytest.raises(ValueError, match=match):
                march(material, baseline_grid(t_end=0.05, **refused), BEAM)
            march(material, baseline_grid(t_end=0.05, **accepted), BEAM)

    def test_integrate_itself_refuses_an_unstable_grid(self, material):
        # The check lives where the step's coefficients are built, so a march
        # started without any public entry point is refused too.
        grid = baseline_grid(t_end=0.05, epsilon=0.1)
        with pytest.raises(ValueError, match="CFL"):
            _integrate(material, grid, lambda start, stop, out: out.fill(0.0), label="bare")

    def test_relaxation_violation_refused(self):
        grid = build_grid(
            GridConfig(
                dt=0.1, dx=0.5, domega=0.5, n_mu=2, t_end=1.0,
                omega_min=1.0, omega_max=1.5,
            )
        )
        sluggish = build_material(constant_tau(0.1), constant_g_star(1.0), grid.omega_nodes)
        for march in MARCHES.values():
            with pytest.raises(ValueError, match="relaxation"):
                march(sluggish, grid, BoundarySource(0.1, 0.5, 1.2, (0.05, 0.05, 0.2)))

    @staticmethod
    def joint_case(dt_scale):
        """A grid with c = 1.00 and r = 0.33 at dt_scale = 1 (the advective limit)."""
        def grid_at(dt):
            return build_grid(GridConfig(
                dt=dt, dx=0.02, domega=0.4, n_mu=16, t_end=0.2,
                omega_min=0.4, omega_max=4.0, epsilon=0.05,
            ))

        probe = grid_at(1e-4)
        material = build_material(constant_tau(0.5), default_g_star(), probe.omega_nodes)
        advective_limit = 0.05 * 0.02 / material.max_characteristic_speed(probe.mu_nodes)
        return grid_at(dt_scale * advective_limit), material

    def test_joint_stability_violation_refused(self):
        # c <= 1 and r <= 1/2 both hold here, but c + r = 1.33, and the
        # unchecked reference march of this grid diverges.
        grid, material = self.joint_case(1.0)
        pulse = BoundarySource(0.02, 0.9, 2.0, (0.005, 0.05, 0.2))
        inflow = reference_inflow(pulse, material, grid)
        assert np.abs(reference_march(material, grid, inflow)[-1]).max() > 1e20
        for march in MARCHES.values():
            with pytest.raises(
                ValueError,
                match=r"c \+ r = 1\.334.*\|mu\| = 0\.989401, omega = 0\.4 "
                      r"\(Courant number c = 1, relaxation number r = 0\.33412\); "
                      r"the largest admissible dt is 0\.000313053",
            ):
                march(material, grid, pulse)

    def test_inside_joint_bound_obeys_maximum_principle(self):
        # At 0.7 of the advective limit, c + r = 0.93: every update of
        # u = h / h* is a convex combination, so max|u| never exceeds the
        # inflow's.
        grid, material = self.joint_case(0.7)
        pulse = BoundarySource(0.02, 0.9, 2.0, (0.005, 0.05, 0.2))
        traj = every_state(material, grid, pulse)
        inflow_max = (reference_inflow(pulse, material, grid) / material.h_star).max()
        u = traj.snapshots / material.h_star
        assert u.min() >= 0.0
        assert u.max() <= inflow_max * (1 + 1e-12)

    @settings(max_examples=15, deadline=None)
    @given(
        dt_fraction=st.floats(0.05, 1.0),
        epsilon=st.floats(0.05, 1.0),
        tau=st.floats(0.1, 2.0),
        n_mu=st.sampled_from([2, 4, 8]),
    )
    def test_march_inside_joint_bound_stays_bounded(self, dt_fraction, epsilon, tau, n_mu):
        dx = 0.1
        probe = build_grid(GridConfig(
            dt=1.0, dx=dx, domega=1.0, n_mu=n_mu, t_end=2.0,
            omega_min=1.0, omega_max=3.0, epsilon=epsilon,
        ))
        material = build_material(constant_tau(tau), default_g_star(), probe.omega_nodes)
        # Largest dt meeting c + r <= 1 and r <= 1/2 in every cell.
        rates = (
            np.abs(probe.mu_nodes)[:, None] * material.velocity / (epsilon * dx)
            + 1.0 / (epsilon**2 * material.tau)
        )
        dt = dt_fraction * min(1.0 / rates.max(), 0.5 * epsilon**2 * tau)
        grid = build_grid(GridConfig(
            dt=dt, dx=dx, domega=1.0, n_mu=n_mu, t_end=200 * dt,
            omega_min=1.0, omega_max=3.0, epsilon=epsilon,
        ))
        pulse = BoundarySource(20 * dt, 0.5, 2.0, (5 * dt, 0.5, 0.5))
        traj = every_state(material, grid, pulse)
        u = traj.snapshots / material.h_star
        inflow_max = (reference_inflow(pulse, material, grid) / material.h_star).max()
        assert u.min() >= 0.0
        assert u.max() <= inflow_max * (1 + 1e-12)

    def test_nonfinite_aborts_with_step_index(self, material):
        grid = baseline_grid(t_end=0.1, n_mu=8)
        poisoned = lambda t, mu, omega: np.full(
            np.broadcast_shapes(np.shape(t), np.shape(mu), np.shape(omega)), np.inf
        )
        with pytest.raises(RuntimeError, match="step 1"):
            solve_forward(material, grid, poisoned)


def assert_close_to_reference(actual, expected, rtol=1e-14):
    assert actual.shape == expected.shape
    assert np.abs(expected).max() > 0.0
    assert np.abs(actual - expected).max() <= rtol * np.abs(expected).max()


class TestAgainstReferenceMarch:
    """The unfolded march against a plain (x, mu, omega) step, in every readout."""

    @pytest.fixture(scope="class")
    def small(self):
        # Non-constant tau and v; the pulse reflects and returns within t_end.
        grid = build_grid(GridConfig(
            dt=0.005, dx=0.05, domega=0.8, n_mu=8, t_end=1.2,
            omega_min=0.4, omega_max=4.0,
        ))
        material = build_material(ground_truth_tau(), default_g_star(), grid.omega_nodes)
        return grid, material

    @pytest.fixture(scope="class")
    def reference(self, small):
        grid, material = small
        return reference_march(material, grid, reference_inflow(BEAM, material, grid))

    def test_left_trace(self, small, reference):
        grid, material = small
        traj = solve_forward(material, grid, BEAM)
        assert_close_to_reference(traj.left_trace, reference[:, 0])

    def test_every_state(self, small, reference):
        grid, material = small
        assert_close_to_reference(every_state(material, grid, BEAM).snapshots, reference)

    def test_moments(self, small, reference):
        grid, material = small
        weights = np.stack([
            grid.mu_omega_mean,
            grid.mu_nodes[:, None] * material.velocity * grid.mu_omega_mean,
        ])
        traj = solve_forward(material, grid, BEAM, moment_weights=weights)
        expected = np.einsum("txmo,kmo->txk", reference, weights)
        for k in range(weights.shape[0]):
            assert_close_to_reference(traj.moments[..., k], expected[..., k])

    def test_snapshots(self, small, reference):
        grid, material = small
        traj = solve_forward(material, grid, BEAM, snapshot_times=(0.9, 0.3, 0.9))
        for snapshot, n in zip(traj.snapshots, (180, 60, 180)):
            assert_close_to_reference(snapshot, reference[n])

    def test_adjoint_on_step_slices(self, small):
        # The adjoint is a forward-form march whose inflow at step n is the
        # lagged inflow at lag N - n, times the mismatch: on_step's
        # lambda_{k+1} is the reference march's state at step N - 1 - k, and
        # the returned lambda_0 its last state.
        grid, material = small
        half, steps = grid.n_mu // 2, grid.n_t - 1
        lagged = np.random.default_rng(3).random((steps, half, grid.n_omega))
        mismatch = 1.5
        inflow = np.zeros((grid.n_t, half, grid.n_omega))
        inflow[1:] = mismatch * lagged[::-1]
        expected = reference_march(material, grid, inflow)
        seen = {}
        final = solve_adjoint(
            material, grid, mismatch, lagged,
            on_step=lambda k, lam, density: seen.setdefault(k, lam.copy()),
        )
        assert sorted(seen) == list(range(steps - 1))
        lags = np.arange(steps - 1)
        assert_close_to_reference(
            fold(np.stack([seen[k] for k in lags])), expected[steps - 1 - lags]
        )
        assert_close_to_reference(fold(final), expected[-1])

    def test_peak_memory_of_traces_only_march(self, grid, material):
        # The march keeps the left trace, n_t slices long, one block of
        # inflow rows and a fixed number of state-sized arrays: never an
        # inflow table or a per-step stack.  Five are live through the march
        # (two step tables, two states, the upwind difference); the rest is
        # phi's block and numpy's ufunc buffers while a block is filled.
        traj, peak = traced_peak(lambda: solve_forward(material, grid, BEAM))
        state_bytes = grid.n_x * grid.n_mu * grid.n_omega * 8
        assert peak <= traj.left_trace.nbytes + inflow_block_bytes(grid) + 7 * state_bytes

    def test_peak_memory_of_moments_march_grows_by_its_rows(self, material):
        # With no left trace, doubling the horizon adds only moment rows.
        def march(t_end):
            grid = baseline_grid(t_end=t_end, n_mu=16)
            weights = np.stack([grid.mu_omega_mean, grid.mu_omega_mean])
            return traced_peak(lambda: solve_forward(
                material, grid, BEAM, keep_left_trace=False,
                moment_weights=weights, snapshot_times=[grid.t_nodes[-1]],
            ))

        short, short_peak = march(1.0)
        long, long_peak = march(2.0)
        assert short.left_trace is None and long.left_trace is None
        added_rows = long.moments.nbytes - short.moments.nbytes
        block = inflow_block_bytes(baseline_grid(t_end=1.0, n_mu=16))
        assert long_peak - short_peak <= added_rows + block


class TestEinsumReference:
    """Both steps' K = 2 outer products against their einsum form, bit for bit."""

    @staticmethod
    def outputs(material, grid, monkeypatch):
        weights = np.stack([grid.mu_omega_mean, grid.mu_omega_mean * grid.mu_nodes[:, None]])
        traces = solve_forward(material, grid, BEAM)
        moments = solve_forward(
            material, grid, BEAM, keep_left_trace=False, moment_weights=weights,
        )
        monkeypatch.setattr(transport, "_last_response", None)
        bare = boundary_response(material, grid).g
        stacked = boundary_response(material, grid, keep_stack=True)
        final = solve_adjoint(material, grid, 0.7, TestSolveAdjoint.lagged(grid, material))
        return {
            "left trace": traces.left_trace, "moments": moments.moments,
            "response": bare, "stacked response": stacked.g,
            "stack": stacked.stack.copy(), "lambda_0": final,
        }

    @pytest.mark.parametrize("overrides", [
        dict(t_end=0.5, epsilon=0.8),
        dict(t_end=1.65),
        dict(dx=1.0, t_end=0.5, n_mu=8),
    ], ids=["short", "sec52", "two-x-nodes"])
    def test_marches_match_the_einsum_steps(self, material, monkeypatch, overrides):
        grid = baseline_grid(**overrides)
        with monkeypatch.context() as patched:
            patched.setattr(transport, "_outer_into", einsum_outer)
            patched.setattr(transport, "_transposed_step", einsum_transposed_step)
            expected = self.outputs(material, grid, patched)
        actual = self.outputs(material, grid, monkeypatch)
        for name, value in expected.items():
            assert np.abs(value).max() > 0.0, name
            assert np.array_equal(actual[name], value), name


class TestSolveAdjoint:
    """The reverse-mode march, whose states pair with a response's kept stack."""

    @pytest.fixture(scope="class")
    def short(self, material):
        return baseline_grid(t_end=0.5, n_mu=16)

    @staticmethod
    def lagged(grid, material, center=0.2, width=0.05):
        """A positive window-weighted inflow, one (mu, omega) slice per lag."""
        lags = grid.dt * np.arange(grid.n_t - 1)
        profile = material.h_star / grid.mu_nodes[grid.n_mu // 2 :, None]
        return gaussian_bump(lags - center, width)[:, None, None] * profile

    @staticmethod
    def states(material, grid, mismatch, lagged):
        """lambda_{k+1} for every lag k that on_step sees, indexed by k."""
        seen = {}
        solve_adjoint(
            material, grid, mismatch, lagged,
            on_step=lambda k, lam, density: seen.setdefault(k, lam.copy()),
        )
        return np.stack([seen[k] for k in range(len(seen))])

    def test_zero_mismatch_gives_zero_field(self, short, material):
        lagged = self.lagged(short, material)
        assert np.all(self.states(material, short, 0.0, lagged) == 0.0)
        assert np.all(solve_adjoint(material, short, 0.0, lagged) == 0.0)

    def test_boundary_rows_match_prescription(self, short, material):
        # Row 0 of lambda_{k+1} is the inflow written there: the mismatch
        # times the lagged inflow at lag k + 1.
        mismatch = 1.5
        lagged = self.lagged(short, material)
        states = self.states(material, short, mismatch, lagged)
        np.testing.assert_array_equal(states[:, 0], mismatch * lagged[1:])

    def test_reflection_symmetry_at_right_wall(self, short, material):
        states = self.states(material, short, 1.0, self.lagged(short, material))
        field = fold(states)[:, -1]
        np.testing.assert_array_equal(field[:, ::-1, :], field)

    def test_domain_of_influence_backward(self, short, material):
        # An inflow supported only on the last five lags enters the march in
        # its first five steps; lambda_{k+1}, marched N - 1 - k steps, can
        # reach at most N - 1 - k cells from x = 0, bitwise.
        steps = short.n_t - 1
        lagged = self.lagged(short, material)
        lagged[:-5] = 0.0
        field = fold(self.states(material, short, 1.0, lagged))
        for k in (steps - 20, steps - 40, steps - 50):
            reach = steps - 1 - k
            assert reach < short.n_x
            assert np.all(field[k, reach:] == 0.0)
            assert np.abs(field[k, reach - 1]).max() > 0.0

    def test_linearity_in_mismatch(self, short, material):
        lagged = self.lagged(short, material, center=0.3)
        base = self.states(material, short, 1.0, lagged)
        scaled = self.states(material, short, -3.5, lagged)
        np.testing.assert_allclose(
            scaled, -3.5 * base, rtol=0, atol=1e-12 * np.abs(scaled).max()
        )

    def test_on_step_sees_each_stored_slice(self, short, material):
        # Lags arrive from N - 2 down to 0, the slots of a response's stack
        # that they pair with.  A slot holds B^T q_k: the rows the step's
        # boundary rules overwrite are zero in it.
        seen = []
        solve_adjoint(
            material, short, 1.0, self.lagged(short, material),
            on_step=lambda k, lam, density: seen.append(k),
        )
        assert seen == list(range(short.n_t - 3, -1, -1))
        stack = boundary_response(material, short, keep_stack=True).stack
        n_x = short.n_x
        for k in seen:
            assert np.all(stack[k][[0, n_x, 2 * n_x - 1]] == 0.0)
            assert np.abs(stack[k]).max() > 0.0

    def test_on_step_hands_over_the_marched_density(self, short, material):
        # The density is lambda's folded density over mean_omega h*, bit for
        # bit as the march computes it, on both rows of each x node; it is
        # also the normalized mean of the folded state.
        tables = _step_tables(material, short)
        rows, n_x = 2 * short.n_x, short.n_x
        seen = []
        solve_adjoint(
            material, short, 1.5, self.lagged(short, material),
            on_step=lambda k, lam, density: seen.append((lam.copy(), density.copy())),
        )
        assert len(seen) == short.n_t - 2
        for lam, density in seen:
            row_sums = lam.reshape(rows, -1) @ tables.density_weights
            folded = row_sums[:n_x] + row_sums[: n_x - 1 : -1]
            expected = np.concatenate((folded, folded[::-1])) / tables.h_star_mean
            assert np.array_equal(density, expected)
            mean = np.einsum("xmo,mo->x", fold(lam), short.mu_omega_mean)
            np.testing.assert_allclose(
                density[:n_x], mean / tables.h_star_mean, rtol=1e-13, atol=0.0
            )
        assert np.abs(seen[0][1]).max() > 0.0

    def test_marches_without_the_response(self, short, material, monkeypatch):
        lagged = self.lagged(short, material)
        expected = solve_adjoint(material, short, 1.5, lagged)

        def refuse(*args, **kwargs):
            raise AssertionError("solve_adjoint asked for the boundary response")

        monkeypatch.setattr(transport, "boundary_response", refuse)
        np.testing.assert_array_equal(solve_adjoint(material, short, 1.5, lagged), expected)

    def test_peak_memory_holds_no_n_t_long_array(self, material):
        # Beyond its inputs the adjoint holds a few sheets and one block of
        # inflow rows (plus numpy's copy of the reversed rows while it is
        # filled): no inflow table and no left trace.
        grid = baseline_grid(t_end=3.0, dx=0.1, n_mu=16)
        lagged = self.lagged(grid, material)
        _, peak = traced_peak(lambda: solve_adjoint(material, grid, 1.0, lagged))
        sheet_bytes = 2 * grid.n_x * lagged[0].nbytes
        assert peak <= 2 * inflow_block_bytes(grid) + 7 * sheet_bytes < lagged.nbytes

    def test_lagged_inflow_shape_checked(self, short, material):
        with pytest.raises(ValueError, match="time lag"):
            solve_adjoint(material, short, 1.0, np.ones((7, short.n_mu // 2, short.n_omega)))


class TestStreamedInflow:
    """The march reads its inflow one block of steps at a time."""

    # n_t - 1 = 40 (under one block), 100 (not a multiple) and 128 (two);
    # a block of 10,000 steps is one whole-horizon table.
    @pytest.mark.parametrize("t_end", (0.2, 0.5, 0.64))
    @pytest.mark.parametrize("block", (1, 7, 10_000))
    def test_any_block_gives_the_same_marches(self, monkeypatch, material, t_end, block):
        grid = baseline_grid(t_end=t_end, n_mu=8)
        weights = np.stack([grid.mu_omega_mean])
        lagged = TestSolveAdjoint.lagged(grid, material, center=0.1)

        def outputs():
            traj = solve_forward(
                material, grid, BEAM, moment_weights=weights, snapshot_times=grid.t_nodes
            )
            states = TestSolveAdjoint.states(material, grid, 1.5, lagged)
            final = solve_adjoint(material, grid, 1.5, lagged)
            return traj.left_trace, traj.moments, traj.snapshots, states, final

        default = outputs()
        monkeypatch.setattr(transport, "_INFLOW_BLOCK_STEPS", block)
        for expected, actual in zip(default, outputs()):
            np.testing.assert_array_equal(actual, expected)

    def test_nonfinite_past_the_first_block_names_its_step(self, material):
        grid = baseline_grid(t_end=0.8, n_mu=8)
        step = 100
        assert step > transport._INFLOW_BLOCK_STEPS + 1

        def poisoned(t, mu, omega):
            t = np.asarray(t)
            shape = np.broadcast_shapes(t.shape, np.shape(mu), np.shape(omega))
            return np.broadcast_to(np.where(t >= grid.t_nodes[step], np.inf, 0.0), shape)

        with pytest.raises(RuntimeError, match=f"step {step} "):
            solve_forward(material, grid, poisoned)

    def test_callable_source_is_evaluated_on_time_slices(self, material):
        # n_t - 1 = 140 steps: two full blocks and a partial one.
        grid = baseline_grid(t_end=0.7, n_mu=8)
        beam = gaussian_source(BEAM)
        seen = []

        def phi(t, mu, omega):
            seen.append(np.asarray(t).ravel().copy())
            return beam(t, mu, omega)

        solve_forward(material, grid, phi)
        assert [len(t) for t in seen] == [64, 64, 12]
        np.testing.assert_array_equal(np.concatenate(seen), grid.t_nodes[1:])

    def test_debug_line_reports_the_kept_bytes(self, caplog, material):
        grid = baseline_grid(t_end=0.2, n_mu=8)
        weights = np.stack([grid.mu_omega_mean])
        with caplog.at_level("DEBUG", logger="phonon_inverse.transport"):
            traces = solve_forward(material, grid, BEAM)
            streamed = solve_forward(
                material, grid, BEAM, moment_weights=weights, snapshot_times=(0.1,)
            )
            compute_macro_trace(material, grid, BEAM)
            solve_adjoint(material, grid, 1.0, TestSolveAdjoint.lagged(grid, material))
        lines = [r.getMessage() for r in caplog.records if " solve: " in r.getMessage()]
        head = f" solve: {grid.n_t - 1} steps, epsilon=1; kept bytes: left trace "
        left, moments = traces.left_trace.nbytes, streamed.moments.nbytes
        snapshot = streamed.snapshots.nbytes
        assert lines == [
            f"forward{head}{left}, moments 0, snapshots 0",
            f"forward{head}{left}, moments {moments}, snapshots {snapshot}",
            f"forward{head}0, moments {2 * moments}, snapshots {snapshot}",
            f"adjoint{head}0, moments 0, snapshots 0",
        ]


def test_plain_marches_store_into_cache_line_aligned_sheets(monkeypatch, material):
    # numpy stores whole SIMD vectors, and into a sheet that starts mid cache
    # line every store splits a line (see _aligned_empty).
    grid = baseline_grid(t_end=0.2, n_mu=8)
    offsets = set()
    solve_adjoint(
        material, grid, 1.0, TestSolveAdjoint.lagged(grid, material),
        on_step=lambda k, lam, density: offsets.add(lam.ctypes.data % 64),
    )
    step, transposed_step = transport._step, transport._transposed_step

    def recording_step(state, density_column, inflow_row, new, tables, scratch):
        arrays = (state, new, scratch, tables.keep, tables.courant)
        offsets.update(a.ctypes.data % 64 for a in arrays)
        step(state, density_column, inflow_row, new, tables, scratch)

    def recording_transposed_step(q, out, tables, scratch):
        arrays = (q, out, scratch, tables.keep, tables.courant)
        offsets.update(a.ctypes.data % 64 for a in arrays)
        transposed_step(q, out, tables, scratch)

    monkeypatch.setattr(transport, "_step", recording_step)
    monkeypatch.setattr(transport, "_transposed_step", recording_transposed_step)
    solve_forward(material, grid, BEAM)
    monkeypatch.setattr(transport, "_last_response", None)
    boundary_response(material, grid)
    assert offsets == {0}


class TestBoundaryResponse:
    """The transposed march behind every readout."""

    @pytest.fixture(scope="class")
    def small(self):
        # Non-constant tau and v.
        grid = build_grid(GridConfig(
            dt=0.005, dx=0.05, domega=0.8, n_mu=8, t_end=0.5,
            omega_min=0.4, omega_max=4.0,
        ))
        material = build_material(ground_truth_tau(), default_g_star(), grid.omega_nodes)
        return grid, material

    def test_unfold_inverts_fold(self, small):
        grid, _ = small
        state = np.random.default_rng(1).random((grid.n_x, grid.n_mu, grid.n_omega))
        folded = np.empty_like(state)
        _fold(unfold(state), folded)
        np.testing.assert_array_equal(folded, state)
        np.testing.assert_array_equal(fold(unfold(state)), state)

    @pytest.mark.parametrize("dx", [0.05, 0.5, 1.0])
    def test_one_step_transpose_identity(self, small, dx):
        # <A d, l> = <d, A^T l> for one step with zero inflow, with arbitrary
        # nonnegative d and l; dx = 1.0 leaves two x nodes, where the outflow
        # copy reads the row the reflection wrote.
        _, material = small
        grid = build_grid(GridConfig(
            dt=0.005, dx=dx, domega=0.8, n_mu=8, t_end=0.5,
            omega_min=0.4, omega_max=4.0,
        ))
        rng = np.random.default_rng(7)
        half = grid.n_mu // 2
        shape = (grid.n_x, grid.n_mu, grid.n_omega)
        tables = _step_tables(material, grid)
        for _ in range(5):
            delta, cotangent = rng.random(shape), rng.random(shape)
            stepped = reference_step(delta, material, grid, np.zeros((half, grid.n_omega)))
            transposed = np.empty((2 * grid.n_x, half, grid.n_omega))
            _transposed_step(unfold(cotangent), transposed, tables, np.empty_like(transposed))
            pulled = np.empty(shape)
            _fold(transposed, pulled)
            lhs = float(np.vdot(stepped, cotangent))
            rhs = float(np.vdot(delta, pulled))
            assert abs(lhs - rhs) <= 1e-13 * abs(lhs)

    @pytest.mark.parametrize("dx", [0.05, 0.5, 1.0])
    def test_solver_steps_are_transposes(self, small, dx):
        # The same identity with the march's own forward step, which reads
        # the tables the transposed step reads; its density is computed here
        # from the folded state.
        _, material = small
        grid = build_grid(GridConfig(
            dt=0.005, dx=dx, domega=0.8, n_mu=8, t_end=0.5,
            omega_min=0.4, omega_max=4.0,
        ))
        rng = np.random.default_rng(11)
        half = grid.n_mu // 2
        shape = (grid.n_x, grid.n_mu, grid.n_omega)
        sheet_shape = (2 * grid.n_x, half, grid.n_omega)
        tables = _step_tables(material, grid)
        for _ in range(5):
            delta, cotangent = rng.random(shape), rng.random(shape)
            density = np.einsum("xmo,mo->x", delta, grid.mu_omega_mean) / tables.h_star_mean
            density_column = np.zeros((sheet_shape[0], 2))
            density_column[:, 0] = np.concatenate((density, density[::-1]))
            stepped = np.empty(sheet_shape)
            _step(
                unfold(delta), density_column, np.zeros((half, grid.n_omega)), stepped,
                tables, np.empty(sheet_shape),
            )
            transposed = np.empty(sheet_shape)
            _transposed_step(unfold(cotangent), transposed, tables, np.empty(sheet_shape))
            lhs = float(np.vdot(stepped, unfold(cotangent)))
            rhs = float(np.vdot(unfold(delta), transposed))
            assert abs(lhs - rhs) <= 1e-13 * abs(lhs)

    def test_first_lag_is_the_readout_weight(self, small):
        grid, material = small
        response = boundary_response(material, grid).g
        half = grid.n_mu // 2
        assert response.shape == (grid.n_t - 1, half, grid.n_omega)
        np.testing.assert_array_equal(
            response[0], grid.mu_omega_mean[half:] / mean_omega(material.h_star, grid)
        )

    def test_lags_match_the_march_of_a_single_kick(self, small):
        # An inflow of one cell at step 1 only: the temperature at step 1 + k
        # is that cell of g[k].
        grid, material = small
        half = grid.n_mu // 2
        cell = (3, 2)
        kick = np.zeros((grid.n_t, half, grid.n_omega))
        kick[1][cell] = 1.0
        states = reference_march(material, grid, kick)
        temperature = temperature_of(states[:, 0], material, grid)
        response = boundary_response(material, grid).g
        assert_close_to_reference(response[:, cell[0], cell[1]], temperature[1:], rtol=1e-13)

    def test_memo_returns_the_same_array_for_an_equal_material(self, small):
        grid, material = small
        first = boundary_response(material, grid)
        twin = build_material(ground_truth_tau(), default_g_star(), grid.omega_nodes)
        assert twin is not material
        assert boundary_response(twin, grid) is first

    def test_memo_recomputes_for_another_tau_or_grid(self, small):
        grid, material = small
        first = boundary_response(material, grid)
        other_tau = boundary_response(material.with_tau(material.tau * 1.01), grid)
        assert other_tau is not first
        assert not np.array_equal(other_tau.g, first.g)
        twin_grid = build_grid(GridConfig(
            dt=0.005, dx=0.05, domega=0.8, n_mu=8, t_end=0.5,
            omega_min=0.4, omega_max=4.0,
        ))
        again = boundary_response(material, twin_grid)
        assert again is not first
        np.testing.assert_array_equal(again.g, first.g)

    def test_stack_is_kept_only_when_asked(self, small):
        grid, material = small
        other = material.with_tau(material.tau * 1.02)
        bare = boundary_response(other, grid)
        assert bare.stack is None
        # A request for the stack re-marches a bare entry; the response it
        # returns is a new array with the same bits.
        stacked = boundary_response(other, grid, keep_stack=True)
        assert stacked.g is not bare.g
        np.testing.assert_array_equal(stacked.g, bare.g)
        shape = (grid.n_t - 1, 2 * grid.n_x, grid.n_mu // 2, grid.n_omega)
        assert stacked.stack.shape == shape
        # A bare request hits the stacked entry, stack and all.
        assert boundary_response(other, grid) is stacked

    def test_new_march_reuses_or_drops_the_stack(self, small):
        grid, material = small
        other = material.with_tau(material.tau * 1.01)
        stack = boundary_response(material, grid, keep_stack=True).stack
        # A stacked march at another material writes into the same buffer.
        assert boundary_response(other, grid, keep_stack=True).stack is stack
        # A bare march drops it, so the next stacked march takes a new one.
        assert boundary_response(material, grid).stack is None
        assert boundary_response(other, grid, keep_stack=True).stack is not stack

    def test_result_is_read_only(self, small):
        grid, material = small
        response = boundary_response(material, grid)
        assert not response.g.flags.writeable
        with pytest.raises(ValueError):
            response.g[0, 0, 0] = 1.0
        with pytest.raises(AttributeError):
            response.g = np.zeros(1)

    def test_stability_checked(self, material):
        with pytest.raises(ValueError, match="CFL"):
            boundary_response(material, baseline_grid(dt=0.05, t_end=0.5, n_mu=8))

    def test_memo_hit_skips_the_stability_check(self, small, monkeypatch):
        # The memo's key pins the material, so a hit needs no second check.
        grid, material = small
        first = boundary_response(material, grid)
        calls = []
        monkeypatch.setattr(transport, "_validate_stability", lambda *a: calls.append(a))
        assert boundary_response(material, grid) is first
        assert calls == []
