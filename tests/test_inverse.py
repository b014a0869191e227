"""Tests for the measurement model and the relaxation-time gradient.

The reconstruction experiment used throughout: ten boundary pulses sharing the
injection geometry (t0 = 0.1, mu0 = 0.93), one per frequency node, each read
out by a Gaussian window at its round-trip arrival time on the horizon
T = 1.65.  Synthetic data come from the ground-truth relaxation profile; the
gradient is probed at the linear initial guess.

Frozen values below were measured once from this implementation at the stated
settings and pinned as regressions.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phonon_inverse import inverse, transport
from phonon_inverse.collision import mean_omega
from phonon_inverse.grid import GridConfig, build_grid
from phonon_inverse.inverse import (
    SourceTestPair,
    _support_rows,
    arrival_time,
    build_pair,
    central_difference,
    fd_gradient_oracle,
    forward_map,
    frechet_gradient,
    frequency_sweep_pairs,
    generate_data,
    gradient_aligned_directions,
    loss,
    loss_and_gradient,
    omega_inner,
    omega_norm,
    total_loss,
)
from phonon_inverse.material import (
    build_material,
    constant_tau,
    default_g_star,
    ground_truth_tau,
    initial_guess_tau,
)
from phonon_inverse.transport import (
    BoundarySource,
    boundary_response,
    solve_adjoint,
    solve_forward,
    source_values,
)
from transport_reference import windowed_trace_average

DIRECTION_SEED = 20260825

# Round-trip arrivals t0 + 2/(mu0 v(omega0)).
ARRIVAL_REFERENCE = 1.0320634920634921  # (0.04, 0.96, 2.0)
ARRIVAL_SWEEP_FIRST = 0.9886519150448769  # (0.1, 0.93, 0.4)

# Synthetic measurements from the ground-truth profile on the sweep pairs.
SWEEP_DATA = np.array([
    1.3235833931326974e-05,
    1.3700656013575784e-05,
    1.3620245996925997e-05,
    1.333517598966249e-05,
    1.293635748992383e-05,
    1.2459166121571798e-05,
    1.1920353478262278e-05,
    1.1329371077197318e-05,
    1.06928788292118e-05,
    1.0013455289057149e-05,
])

TOTAL_LOSS_AT_GUESS = 7.791386135607649e-13

# Gradient of the pair-0 loss at the initial guess (one value per node): the
# exact gradient of the discrete loss, by reverse mode.
PAIR0_GRADIENT = np.array([
    -1.3911046855477241e-11,
    3.457721484660907e-12,
    3.460683924268415e-12,
    3.3836069670359885e-12,
    3.2404746342608727e-12,
    3.043417387969073e-12,
    2.8068397765056768e-12,
    2.5458316768719954e-12,
    2.2746932516648813e-12,
    2.0057522331524163e-12,
])


def reconstruction_grid(dt=0.005, dx=0.02, t_end=1.65, n_mu=64, epsilon=1.0):
    return build_grid(GridConfig(
        dt=dt, dx=dx, domega=0.4, n_mu=n_mu, t_end=t_end,
        omega_min=0.4, omega_max=4.0, epsilon=epsilon,
    ))


def aligned_directions(gradient, grid, count=3, seed=DIRECTION_SEED, min_cos=0.2):
    """Probe directions conditioned to have a real projection onto the gradient.

    The plain ratio |predicted - fd| / |fd| is unbounded when the true
    directional derivative vanishes, regardless of gradient accuracy, so the
    agreement check conditions its directions on a minimum projection.
    """
    return gradient_aligned_directions(gradient, grid, count, seed, min_cos)


@pytest.fixture(scope="module")
def grid():
    return reconstruction_grid()


@pytest.fixture(scope="module")
def material_star(grid):
    return build_material(ground_truth_tau(), default_g_star(), grid.omega_nodes)


@pytest.fixture(scope="module")
def material_guess(grid):
    return build_material(initial_guess_tau(), default_g_star(), grid.omega_nodes)


@pytest.fixture(scope="module")
def sweep_pairs(material_star, grid):
    return generate_data(material_star, grid, frequency_sweep_pairs(material_star))


@pytest.fixture(scope="module")
def gradients_at_guess(material_guess, grid, sweep_pairs):
    return np.stack([frechet_gradient(material_guess, grid, p) for p in sweep_pairs])


# Short-horizon setup for the cheaper probes: the readout window is placed
# inside the horizon by hand instead of at a physical arrival time.
@pytest.fixture(scope="module")
def short_grid():
    return reconstruction_grid(t_end=0.5, epsilon=0.8)


@pytest.fixture(scope="module")
def short_pair(short_grid):
    star = build_material(ground_truth_tau(), default_g_star(), short_grid.omega_nodes)
    pair = SourceTestPair(
        source=BoundarySource(0.05, 0.9, 2.0, (0.02, 0.05, 0.3)),
        test_center=0.30,
        test_width=0.05,
    )
    return generate_data(star, short_grid, [pair])[0]


class TestArrivalTime:
    def test_reference_pulse(self, material_star):
        t_r = arrival_time(0.04, 0.96, 2.0, material_star)
        assert t_r == pytest.approx(ARRIVAL_REFERENCE, rel=1e-15)
        assert t_r == pytest.approx(1.0321, abs=1e-4)

    def test_unit_speed_round_trip(self, grid):
        grey = build_material(
            ground_truth_tau(), default_g_star(), grid.omega_nodes,
            velocity_coeffs=(2.0, 0.0),
        )
        assert arrival_time(0.0, 1.0, 2.0, grey) == 1.0

    def test_sweep_first_node(self, material_star):
        assert arrival_time(0.1, 0.93, 0.4, material_star) == pytest.approx(
            ARRIVAL_SWEEP_FIRST, rel=1e-15
        )

    def test_slower_frequencies_arrive_later(self, sweep_pairs):
        centers = [pair.test_center for pair in sweep_pairs]
        assert np.all(np.diff(centers) > 0)

    @pytest.mark.parametrize("mu0", [0.0, -0.5])
    def test_rejects_nonpositive_direction(self, material_star, mu0):
        with pytest.raises(ValueError, match="mu0"):
            arrival_time(0.1, mu0, 2.0, material_star)

    def test_rejects_frequency_outside_band(self, material_star):
        with pytest.raises(ValueError, match="band"):
            arrival_time(0.1, 0.9, 5.0, material_star)


class TestSourceTestPair:
    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError, match="test_width"):
            SourceTestPair(BoundarySource(0.1, 0.9, 2.0, (0.01, 0.01, 0.1)), 1.0, 0.0)

    @pytest.mark.parametrize("field", ["test_center", "test_width"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_window(self, field, value):
        # A NaN width is not <= 0, and a NaN window reads NaN for every datum.
        fields = dict(test_center=1.0, test_width=0.08)
        fields[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SourceTestPair(BoundarySource(0.1, 0.9, 2.0, (0.01, 0.01, 0.1)), **fields)

    def test_window_peaks_at_center(self, sweep_pairs):
        pair = sweep_pairs[0]
        assert pair.window(pair.test_center) == 1.0
        assert pair.window(pair.test_center + pair.test_width) == pytest.approx(
            np.exp(-0.5)
        )

    def test_build_pair_centers_window_at_arrival(self, material_star):
        pair = build_pair(material_star, 0.04, 0.96, 2.0)
        assert pair.test_center == ARRIVAL_REFERENCE
        assert pair.datum is None

    def test_sweep_covers_every_node(self, material_star, grid, sweep_pairs):
        assert len(sweep_pairs) == grid.n_omega
        centers = [pair.source.omega0 for pair in sweep_pairs]
        np.testing.assert_array_equal(centers, grid.omega_nodes)

    def test_window_past_horizon_rejected(self, material_guess, grid):
        pair = SourceTestPair(
            BoundarySource(0.1, 0.9, 2.0, (0.01, 0.01, 0.1)), 1.62, 0.08, datum=0.0
        )
        with pytest.raises(ValueError, match="horizon"):
            forward_map(material_guess, grid, pair)
        with pytest.raises(ValueError, match="horizon"):
            loss_and_gradient(material_guess, grid, pair)


class TestForwardMap:
    def test_zero_source_measures_zero(self, material_guess, short_grid):
        pair = SourceTestPair(
            source=lambda t, mu, omega: np.zeros(np.broadcast_shapes(
                np.shape(t), np.shape(mu), np.shape(omega)
            )),
            test_center=0.3,
            test_width=0.05,
        )
        assert forward_map(material_guess, short_grid, pair) == 0.0

    def test_linearity_in_source(self, material_guess, short_grid, short_pair):
        base = forward_map(material_guess, short_grid, short_pair)
        source = short_pair.source
        from phonon_inverse.transport import gaussian_source

        phi = gaussian_source(source)
        doubled = SourceTestPair(
            source=lambda t, mu, omega: 2.0 * phi(t, mu, omega),
            test_center=short_pair.test_center,
            test_width=short_pair.test_width,
        )
        assert forward_map(material_guess, short_grid, doubled) == pytest.approx(
            2.0 * base, rel=1e-12
        )

    def test_batch_matches_single(self, material_guess, grid, sweep_pairs):
        batch = [p.datum for p in generate_data(material_guess, grid, sweep_pairs)]
        singles = [forward_map(material_guess, grid, p) for p in sweep_pairs]
        np.testing.assert_array_equal(batch, singles)


def march_readout(material, grid, pair):
    """The measurement read off a forward march's x = 0 trace."""
    trace = solve_forward(material, grid, pair.source).left_trace
    return windowed_trace_average(trace, pair.window(grid.t_nodes), material, grid)


def assert_readouts_match_march(material, grid, pairs, rtol=1e-13):
    for pair in pairs:
        value = forward_map(material, grid, pair)
        expected = march_readout(material, grid, pair)
        assert expected != 0.0
        assert abs(value - expected) <= rtol * abs(expected)


class TestReadoutAgainstMarch:
    """Readouts from the boundary response against the march's left trace."""

    def test_sweep_pairs(self, material_guess, grid, sweep_pairs):
        assert_readouts_match_march(material_guess, grid, sweep_pairs)

    def test_short_grid(self, material_guess, short_grid, short_pair):
        assert short_grid.epsilon == 0.8
        assert_readouts_match_march(material_guess, short_grid, [short_pair])

    def test_small_epsilon_grid(self):
        grid = reconstruction_grid(dt=0.0005, t_end=0.4, n_mu=16, epsilon=0.1)
        assert grid.n_t == 801
        material = build_material(ground_truth_tau(), default_g_star(), grid.omega_nodes)
        pairs = [
            SourceTestPair(BoundarySource(0.05, mu0, 2.0, (0.02, 0.1, 0.4)), center, 0.04)
            for mu0, center in ((0.9, 0.2), (0.5, 0.25))
        ]
        assert_readouts_match_march(material, grid, pairs)

    @settings(max_examples=20, deadline=None)
    @given(
        dx=st.sampled_from([1.0, 0.5, 0.25, 0.1]),
        n_mu=st.sampled_from([2, 4, 8]),
        epsilon=st.floats(0.3, 1.0),
        tau=st.floats(0.5, 2.0),
        slope=st.floats(-0.5, 0.5),
        center=st.floats(0.3, 0.6),
        width=st.floats(0.02, 0.1),
    )
    def test_small_grids_with_callable_sources(
        self, dx, n_mu, epsilon, tau, slope, center, width
    ):
        # center and width are fractions of the horizon, the last time node.
        # 2.3 is the largest group speed on the band; c + r stays below 1.
        dt = 0.4 * min(epsilon * dx / 2.3, 0.5 * epsilon**2 * tau)
        grid = build_grid(GridConfig(
            dt=dt, dx=dx, domega=1.0, n_mu=n_mu, t_end=0.9,
            omega_min=1.0, omega_max=3.0, epsilon=epsilon,
        ))
        material = build_material(constant_tau(tau), default_g_star(), grid.omega_nodes)
        material = material.with_tau(tau * (1.0 + 0.2 * slope * (grid.omega_nodes - 2.0)))

        def phi(t, mu, omega):
            return np.exp(-((t - 0.1) / 0.05) ** 2) * (1.0 + slope * mu) * (1.0 + 0.1 * omega)

        horizon = grid.t_nodes[-1]
        pair = SourceTestPair(source=phi, test_center=center * horizon, test_width=width * horizon)
        assert_readouts_match_march(material, grid, [pair])

    def test_nonfinite_inflow_names_the_step(self, material_guess, short_grid):
        def poisoned(t, mu, omega):
            shape = np.broadcast_shapes(np.shape(t), np.shape(mu), np.shape(omega))
            return np.broadcast_to(np.where(np.asarray(t) >= 0.1, np.inf, 1.0), shape)

        pair = SourceTestPair(source=poisoned, test_center=0.3, test_width=0.05, datum=0.0)
        step = int(np.argmax(short_grid.t_nodes >= 0.1))
        for fn in (forward_map, loss):
            with pytest.raises(RuntimeError, match=f"step {step} "):
                fn(material_guess, short_grid, pair)
        with pytest.raises(RuntimeError, match=f"step {step} "):
            solve_forward(material_guess, short_grid, poisoned)


def full_hankel_readout(response, pair, material, grid):
    """The readout over every inflow row, as it was before the support cut."""
    inflow = source_values(pair.source, grid)[1:] / material.tau
    steps = grid.n_t - 1
    weights = np.zeros(2 * steps)
    weights[:steps] = (pair.window(grid.t_nodes) * grid.t_mean)[1:]
    hankel = np.lib.stride_tricks.sliding_window_view(weights, steps)[:steps].copy()
    lagged = hankel @ response.reshape(steps, -1)
    return float(lagged.ravel() @ inflow.ravel())


class TestReadoutSupport:
    """Readouts over the pulse's time support against the full Hankel sum."""

    def assert_matches_full(self, material, grid, pair, rtol=1e-14):
        response = boundary_response(material, grid).g
        expected = full_hankel_readout(response, pair, material, grid)
        assert expected != 0.0
        assert abs(forward_map(material, grid, pair) - expected) <= rtol * abs(expected)

    def test_sweep_pairs(self, material_guess, grid, sweep_pairs):
        # Each sec52 pulse's inflow is exactly zero outside 97 of 330 rows.
        support = np.flatnonzero(source_values(sweep_pairs[0].source, grid)[1:].any(axis=(1, 2)))
        assert support.size == 97
        for pair in sweep_pairs:
            self.assert_matches_full(material_guess, grid, pair)

    def test_callable_source_with_full_support(self, material_guess, short_grid):
        pair = SourceTestPair(
            source=lambda t, mu, omega: (1.0 + t) * (1.0 + 0.5 * mu) / omega,
            test_center=0.3,
            test_width=0.05,
        )
        self.assert_matches_full(material_guess, short_grid, pair)

    def test_all_zero_source_reads_zero(self, material_guess, grid):
        pair = SourceTestPair(
            source=lambda t, mu, omega: 0.0 * t * mu * omega, test_center=1.0, test_width=0.08,
        )
        response = boundary_response(material_guess, grid).g
        assert forward_map(material_guess, grid, pair) == 0.0
        assert full_hankel_readout(response, pair, material_guess, grid) == 0.0


class TestRankOneReadout:
    """A Gaussian pulse's readout as one row, against the full Hankel sum."""

    @staticmethod
    def assert_matches_full(material, grid, pair, rtol=1e-13):
        response = boundary_response(material, grid).g
        lag_weights, inflow = inverse._readout_rows(pair, material, grid)
        assert lag_weights.shape == (1, grid.n_t - 1)
        expected = full_hankel_readout(response, pair, material, grid)
        assert expected > 0.0
        assert abs(forward_map(material, grid, pair) - expected) <= rtol * expected
        # The gradient's lagged inflow, lag_weights^T inflow, against the
        # Hankel transpose times the whole inflow table.
        steps = grid.n_t - 1
        table = (source_values(pair.source, grid)[1:] / material.tau).reshape(steps, -1)
        hankel = inverse._hankel_rows(pair, grid, np.arange(steps))
        np.testing.assert_allclose(
            lag_weights.T @ inflow.reshape(1, -1), hankel.T @ table, rtol=rtol, atol=1e-300
        )

    def test_sweep_pairs(self, material_guess, grid, sweep_pairs):
        for pair in sweep_pairs:
            self.assert_matches_full(material_guess, grid, pair)

    @settings(max_examples=25, deadline=None)
    @given(
        t0=st.floats(0.0, 0.3),
        mu0=st.floats(0.05, 0.99),
        omega0=st.floats(0.4, 4.0),
        width_t=st.floats(0.005, 0.1),
        width_mu=st.floats(0.005, 0.5),
        width_omega=st.floats(0.05, 2.0),
    )
    def test_drawn_pulses(
        self, material_guess, short_grid, t0, mu0, omega0, width_t, width_mu, width_omega
    ):
        source = BoundarySource(t0, mu0, omega0, (width_t, width_mu, width_omega))
        pair = SourceTestPair(source, test_center=0.3, test_width=0.05)
        self.assert_matches_full(material_guess, short_grid, pair)

    def test_callable_pairs_take_the_hankel_path(self, material_guess, short_grid, monkeypatch):
        calls = []

        def recording(pair, material, grid):
            calls.append(pair)
            return _support_rows(pair, material, grid)

        monkeypatch.setattr(inverse, "_support_rows", recording)
        pulse = BoundarySource(0.05, 0.9, 2.0, (0.02, 0.05, 0.3))
        phi = transport.gaussian_source(pulse)
        callable_pair = SourceTestPair(phi, test_center=0.3, test_width=0.05)
        pulse_pair = SourceTestPair(pulse, test_center=0.3, test_width=0.05)
        by_hankel = forward_map(material_guess, short_grid, callable_pair)
        assert calls == [callable_pair]
        by_rank_one = forward_map(material_guess, short_grid, pulse_pair)
        assert calls == [callable_pair]
        assert abs(by_rank_one - by_hankel) <= 1e-13 * by_hankel


def fd_disagreements(material, grid, pair, gradient, directions, steps=(1e-3, 1e-4)):
    """Worst relative gap between the gradient pairing and central differences, per step."""
    worst = []
    for step in steps:
        gaps = [
            abs(omega_inner(gradient, d, grid) - fd) / abs(fd)
            for d in directions
            for fd in [fd_gradient_oracle(material, grid, pair, d, step=step)]
        ]
        worst.append(max(gaps))
    return worst


def assert_exact_to_truncation(material, grid, pair, bound=1e-4):
    """The gap is the central difference's O(step^2) truncation: below
    ``bound`` at step 1e-3, and about 100x smaller per 10x smaller step."""
    gradient = frechet_gradient(material, grid, pair)
    directions = aligned_directions(gradient, grid, count=2)
    coarse, fine = fd_disagreements(material, grid, pair, gradient, directions)
    assert coarse <= bound
    assert fine <= coarse / 50.0 + 1e-10, (coarse, fine)


def test_rows_the_division_zeroes_are_dropped(short_grid):
    # The smallest subnormal divided by tau > 2 rounds to 0: such rows leave
    # the support, as they did when the divided table was searched.
    material = build_material(constant_tau(2.5), default_g_star(), short_grid.omega_nodes)

    def phi(t, mu, omega):
        t = np.asarray(t)
        row = np.where(t < 0.05, 5e-324, np.where(np.abs(t - 0.2) < 0.02, 1.0, 0.0))
        return np.broadcast_to(row, np.broadcast_shapes(t.shape, np.shape(mu), np.shape(omega)))

    pair = SourceTestPair(source=phi, test_center=0.3, test_width=0.05)
    _, inflow = _support_rows(pair, material, short_grid)
    expected = (source_values(phi, short_grid)[1:] / material.tau).any(axis=(1, 2)).sum()
    assert 0 < len(inflow) == expected
    assert inflow.any(axis=(1, 2)).all()


class TestExactGradient:
    """Reverse mode through the response march against central differences."""

    def test_sec52_pair(self, material_guess, grid, sweep_pairs, gradients_at_guess):
        assert (grid.n_t, grid.n_x, grid.n_mu, grid.n_omega) == (331, 51, 64, 10)
        for index, (pair, gradient) in enumerate(zip(sweep_pairs, gradients_at_guess)):
            directions = aligned_directions(gradient, grid, count=2, seed=DIRECTION_SEED + index)
            coarse, fine = fd_disagreements(material_guess, grid, pair, gradient, directions)
            assert coarse <= 5e-5, index
            assert fine <= coarse / 50.0, index

    def test_coarse_grid(self):
        # dt = 0.01, dx = 0.1, 16 mu nodes: the continuous adjoint this
        # replaced was 16% off here.
        grid = reconstruction_grid(dt=0.01, dx=0.1, n_mu=16)
        star = build_material(ground_truth_tau(), default_g_star(), grid.omega_nodes)
        guess = build_material(initial_guess_tau(), default_g_star(), grid.omega_nodes)
        pairs = generate_data(star, grid, frequency_sweep_pairs(star))
        for pair in pairs[::3]:
            assert_exact_to_truncation(guess, grid, pair)

    def test_two_x_nodes(self, material_guess):
        # dx = 1.0: the outflow copy reads the row the reflection wrote.
        grid = reconstruction_grid(dx=1.0, t_end=0.5, n_mu=8)
        assert grid.n_x == 2
        star = build_material(ground_truth_tau(), default_g_star(), grid.omega_nodes)
        guess = build_material(initial_guess_tau(), default_g_star(), grid.omega_nodes)
        pair = SourceTestPair(BoundarySource(0.05, 0.9, 2.0, (0.02, 0.05, 0.3)), 0.3, 0.05)
        assert_exact_to_truncation(guess, grid, generate_data(star, grid, [pair])[0])

    @settings(max_examples=15, deadline=None)
    @given(
        dx=st.sampled_from([1.0, 0.5, 0.25, 0.1]),
        n_mu=st.sampled_from([2, 4, 8]),
        epsilon=st.floats(0.3, 1.0),
        tau=st.floats(0.5, 2.0),
        slope=st.floats(-0.5, 0.5),
        center=st.floats(0.3, 0.6),
    )
    def test_small_grids(self, dx, n_mu, epsilon, tau, slope, center):
        # 2.3 is the largest group speed on the band; c + r stays below 1
        # for tau down to 0.9 of its value, where the data are made.
        dt = 0.35 * min(epsilon * dx / 2.3, 0.5 * epsilon**2 * tau)
        grid = build_grid(GridConfig(
            dt=dt, dx=dx, domega=1.0, n_mu=n_mu, t_end=0.9,
            omega_min=1.0, omega_max=3.0, epsilon=epsilon,
        ))
        material = build_material(constant_tau(tau), default_g_star(), grid.omega_nodes)
        material = material.with_tau(tau * (1.0 + 0.2 * slope * (grid.omega_nodes - 2.0)))
        truth = material.with_tau(material.tau * (0.9 + 0.05 * grid.omega_nodes / 3.0))

        def phi(t, mu, omega):
            return np.exp(-((t - 0.1) / 0.05) ** 2) * (1.0 + slope * mu) * (1.0 + 0.1 * omega)

        horizon = grid.t_nodes[-1]
        pair = SourceTestPair(source=phi, test_center=center * horizon, test_width=0.1 * horizon)
        # tau as small as 0.5 makes the loss more curved in tau, and the
        # truncation at step 1e-3 larger; its scaling with the step is what
        # shows the gradient exact.
        assert_exact_to_truncation(
            material, grid, generate_data(truth, grid, [pair])[0], bound=1e-2
        )

    def test_loss_is_the_readout_loss_bit_for_bit(self, material_guess, grid, sweep_pairs):
        for pair in sweep_pairs:
            value, mismatch, _ = loss_and_gradient(material_guess, grid, pair)
            assert (value, mismatch) == loss(material_guess, grid, pair)

    def test_adjoint_march_ties_to_the_readout(self, material_guess, grid, sweep_pairs):
        # <lambda_0, q_0> = sum_k c_k . g[k] = y: the adjoint march and the
        # response march are transposes of each other.
        half = grid.n_mu // 2
        readout = grid.mu_omega_mean[half:] / mean_omega(material_guess.h_star, grid)
        response = boundary_response(material_guess, grid).g
        for pair in sweep_pairs[::4]:
            hankel, inflow = _support_rows(pair, material_guess, grid)
            lagged = (hankel.T @ inflow.reshape(len(inflow), -1)).reshape(response.shape)
            final = solve_adjoint(material_guess, grid, 1.0, lagged)
            tied = float(np.vdot(readout, final[0] + final[-1]))
            measured = forward_map(material_guess, grid, pair)
            assert abs(tied - measured) <= 1e-13 * abs(measured)


class TestObservability:
    @staticmethod
    def record_marches(monkeypatch):
        calls = []

        def recording(name, original):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(inverse, "solve_adjoint", recording("adjoint", solve_adjoint))
        monkeypatch.setattr(transport, "solve_forward", recording("forward", solve_forward))
        monkeypatch.setattr(transport, "_integrate", recording("march", transport._integrate))
        monkeypatch.setattr(
            transport, "_transposed_step", recording("transposed", transport._transposed_step)
        )
        return calls

    def test_one_adjoint_march_per_gradient(
        self, material_guess, short_grid, short_pair, monkeypatch
    ):
        # perfbench times the gradient path by wrapping solve_adjoint in
        # inverse.  At a memo hit a gradient is that one march and nothing
        # else; at a miss the response is marched first, with its stack.
        loss(material_guess, short_grid, short_pair)
        calls = self.record_marches(monkeypatch)
        loss_and_gradient(material_guess, short_grid, short_pair)
        assert calls == ["adjoint", "march"]

        calls.clear()
        other = material_guess.with_tau(material_guess.tau * 1.01)
        loss_and_gradient(other, short_grid, short_pair)
        assert calls == ["transposed"] * (short_grid.n_t - 2) + ["adjoint", "march"]
        assert boundary_response(other, short_grid).stack is not None

    def test_measurements_keep_no_stack_and_losses_do(
        self, material_star, material_guess, short_grid, short_pair, monkeypatch
    ):
        generate_data(material_guess, short_grid, [short_pair])
        assert boundary_response(material_guess, short_grid).stack is None
        calls = self.record_marches(monkeypatch)
        # A loss re-marches the bare entry with its stack; a readout then
        # hits it, and a total loss at another tau marches once, reusing
        # the stack's buffer.
        loss(material_guess, short_grid, short_pair)
        assert calls == ["transposed"] * (short_grid.n_t - 2)
        stack = boundary_response(material_guess, short_grid).stack
        assert stack is not None
        forward_map(material_guess, short_grid, short_pair)
        assert len(calls) == short_grid.n_t - 2
        total_loss(material_star, short_grid, [short_pair] * 3)
        assert len(calls) == 2 * (short_grid.n_t - 2)
        assert boundary_response(material_star, short_grid).stack is stack

    def test_total_loss_fetches_one_response(
        self, material_guess, short_grid, short_pair, monkeypatch
    ):
        fetched = []

        def counting(*args, **kwargs):
            fetched.append(kwargs)
            return boundary_response(*args, **kwargs)

        monkeypatch.setattr(inverse, "boundary_response", counting)
        total_loss(material_guess, short_grid, [short_pair] * 4)
        assert len(fetched) == 1

    def test_peak_memory_of_a_gradient_at_a_memo_hit(self, material_guess, grid, sweep_pairs):
        # Beyond the kept response, a gradient holds its lagged inflow, the
        # adjoint's block of inflow rows (plus numpy's copy of the reversed
        # rows while it is filled) and a few sheets: no second n_t-long
        # array and no copy of the stack.
        def gradient():
            return loss_and_gradient(material_guess, grid, sweep_pairs[3])

        gradient()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            gradient()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        slice_bytes = (grid.n_mu // 2) * grid.n_omega * 8
        lagged_bytes = (grid.n_t - 1) * slice_bytes
        block_bytes = transport._INFLOW_BLOCK_STEPS * slice_bytes
        sheet_bytes = 2 * grid.n_x * slice_bytes
        assert peak <= lagged_bytes + 2 * block_bytes + 7 * sheet_bytes


class TestGenerateData:
    def test_frozen_sweep_data(self, sweep_pairs):
        data = np.array([pair.datum for pair in sweep_pairs])
        np.testing.assert_allclose(data, SWEEP_DATA, rtol=1e-12)

    def test_data_positive_and_finite(self, sweep_pairs):
        data = np.array([pair.datum for pair in sweep_pairs])
        assert np.all(np.isfinite(data))
        assert np.all(data > 0)

    def test_deterministic(self, material_star, grid, sweep_pairs):
        again = generate_data(material_star, grid, frequency_sweep_pairs(material_star))
        assert all(a.datum == b.datum for a, b in zip(sweep_pairs, again))

    def test_originals_untouched(self, material_star, grid):
        bare = frequency_sweep_pairs(material_star)[:2]
        generate_data(material_star, grid, bare)
        assert all(pair.datum is None for pair in bare)


class TestLoss:
    def test_requires_datum(self, material_guess, grid, material_star):
        pair = frequency_sweep_pairs(material_star)[0]
        with pytest.raises(ValueError, match="datum"):
            loss(material_guess, grid, pair)
        with pytest.raises(ValueError, match="datum"):
            total_loss(material_guess, grid, [pair])

    def test_total_of_no_pairs_refused_before_any_march(
        self, material_guess, short_grid, monkeypatch
    ):
        monkeypatch.setattr(inverse, "boundary_response", None)
        with pytest.raises(ValueError, match="at least one pair"):
            total_loss(material_guess, short_grid, [])

    def test_half_squared_mismatch(self, material_guess, short_grid, short_pair):
        import dataclasses

        measured = forward_map(material_guess, short_grid, short_pair)
        shifted = dataclasses.replace(short_pair, datum=measured - 0.2)
        value, mismatch = loss(material_guess, short_grid, shifted)
        assert mismatch == pytest.approx(0.2, rel=1e-12)
        assert value == pytest.approx(0.02, rel=1e-12)

    def test_zero_at_ground_truth(self, material_star, grid, sweep_pairs):
        assert total_loss(material_star, grid, sweep_pairs) == 0.0

    def test_single_path_round_trip(self, material_star, short_grid, short_pair):
        import dataclasses

        datum = forward_map(material_star, short_grid, short_pair)
        pair = dataclasses.replace(short_pair, datum=datum)
        assert loss(material_star, short_grid, pair) == (0.0, 0.0)

    def test_frozen_total_at_guess(self, material_guess, grid, sweep_pairs):
        assert total_loss(material_guess, grid, sweep_pairs) == pytest.approx(
            TOTAL_LOSS_AT_GUESS, rel=1e-12
        )

    def test_total_is_mean_of_pairs(self, material_guess, grid, sweep_pairs):
        values = [loss(material_guess, grid, p)[0] for p in sweep_pairs[:4]]
        total = total_loss(material_guess, grid, sweep_pairs[:4])
        assert total == pytest.approx(np.mean(values), rel=1e-10)


class TestFrechetGradient:
    def test_stationary_at_ground_truth(self, material_star, grid, sweep_pairs):
        value, mismatch, gradient = loss_and_gradient(material_star, grid, sweep_pairs[3])
        assert value == 0.0
        assert mismatch == 0.0
        np.testing.assert_array_equal(gradient, np.zeros(grid.n_omega))

    def test_frozen_pair0_gradient(self, gradients_at_guess):
        np.testing.assert_allclose(gradients_at_guess[0], PAIR0_GRADIENT, rtol=1e-10)

    def test_peak_aligns_with_pulse_node(self, gradients_at_guess):
        peaks = np.argmax(np.abs(gradients_at_guess), axis=1)
        np.testing.assert_array_equal(peaks, np.arange(10))

    def test_negative_at_probed_node(self, gradients_at_guess):
        # The guess overestimates tau wherever the data probe it, so each
        # pair pushes its own node down.
        diagonal = np.diagonal(gradients_at_guess)
        assert np.all(diagonal < 0)


class TestCentralDifference:
    def test_exact_for_quadratic(self, grid):
        anchor = np.linspace(1.0, 2.0, grid.n_omega)
        tau = np.full(grid.n_omega, 1.4)

        def quadratic(values):
            return 0.5 * omega_inner(values - anchor, values - anchor, grid)

        rng = np.random.default_rng(3)
        direction = rng.standard_normal(grid.n_omega)
        fd = central_difference(quadratic, tau, direction, step=1e-3)
        assert fd == pytest.approx(omega_inner(tau - anchor, direction, grid), rel=1e-9)

    def test_error_shrinks_quadratically_in_step(self, grid):
        tau = np.full(grid.n_omega, 1.4)
        direction = np.ones(grid.n_omega)

        def cubic(values):
            return float(np.sum(values**3))

        exact = float(np.sum(3 * tau**2 * direction))
        coarse = abs(central_difference(cubic, tau, direction, step=2e-2) - exact)
        fine = abs(central_difference(cubic, tau, direction, step=1e-2) - exact)
        assert coarse / fine == pytest.approx(4.0, rel=1e-6)

    def test_rejects_nonpositive_step(self, grid):
        with pytest.raises(ValueError, match="step"):
            central_difference(lambda v: 0.0, np.ones(10), np.ones(10), step=0.0)

    def test_oracle_rejects_out_of_bounds_perturbation(self, short_grid, short_pair):
        near_floor = build_material(
            constant_tau(0.105), default_g_star(), short_grid.omega_nodes
        )
        with pytest.raises(ValueError, match="bounds"):
            fd_gradient_oracle(
                near_floor, short_grid, short_pair, np.ones(short_grid.n_omega),
                step=1e-2,
            )


class TestFiniteDifferenceAgreement:
    @pytest.mark.parametrize("index", [0, 4, 8])
    def test_adjoint_matches_fd(
        self, material_guess, grid, sweep_pairs, gradients_at_guess, index
    ):
        gradient = gradients_at_guess[index]
        for direction in aligned_directions(gradient, grid):
            predicted = omega_inner(gradient, direction, grid)
            fd = fd_gradient_oracle(material_guess, grid, sweep_pairs[index], direction)
            assert abs(predicted - fd) <= 0.05 * abs(fd)

    def test_scale_robust_agreement_any_direction(
        self, material_guess, grid, sweep_pairs, gradients_at_guess
    ):
        # Raw random directions may be near-orthogonal to the gradient; the
        # absolute discrepancy still stays far below the gradient scale.
        gradient = gradients_at_guess[8]
        rng = np.random.default_rng(DIRECTION_SEED)
        for _ in range(3):
            direction = rng.standard_normal(grid.n_omega)
            predicted = omega_inner(gradient, direction, grid)
            fd = fd_gradient_oracle(material_guess, grid, sweep_pairs[8], direction)
            scale = omega_norm(gradient, grid) * omega_norm(direction, grid)
            assert abs(predicted - fd) <= 0.05 * scale

    def test_agreement_off_unit_scaling(self, short_grid, short_pair):
        # epsilon = 0.8 exercises the scaling of every gradient term.
        guess = build_material(initial_guess_tau(), default_g_star(), short_grid.omega_nodes)
        gradient = frechet_gradient(guess, short_grid, short_pair)
        for direction in aligned_directions(gradient, short_grid, count=2):
            predicted = omega_inner(gradient, direction, short_grid)
            fd = fd_gradient_oracle(guess, short_grid, short_pair, direction)
            assert abs(predicted - fd) <= 0.02 * abs(fd)


class TestAlignedDirections:
    def test_every_direction_clears_threshold(self, gradients_at_guess, grid):
        gradient = gradients_at_guess[8]
        unit = gradient / omega_norm(gradient, grid)
        for d in gradient_aligned_directions(gradient, grid, count=5, seed=1):
            cosine = omega_inner(d, unit, grid) / omega_norm(d, grid)
            assert abs(cosine) >= 0.2

    def test_zero_gradient_rejected(self, grid):
        with pytest.raises(ValueError, match="zero gradient"):
            gradient_aligned_directions(np.zeros(grid.n_omega), grid)

    def test_validates_arguments(self, grid):
        gradient = np.ones(grid.n_omega)
        with pytest.raises(ValueError, match="count"):
            gradient_aligned_directions(gradient, grid, count=0)
        with pytest.raises(ValueError, match="min_cos"):
            gradient_aligned_directions(gradient, grid, min_cos=1.0)

    def test_unreachable_min_cos_raises_instead_of_hanging(self, grid, monkeypatch):
        # On the 10-node band a cosine of 0.99 is too rare to find three of;
        # the capped draw loop gives up after its last draw, with a message.
        default_rng = np.random.default_rng
        generators = []

        class CountingGenerator:
            def __init__(self, seed):
                self.rng, self.draws = default_rng(seed), 0
                generators.append(self)

            def standard_normal(self, size):
                self.draws += 1
                return self.rng.standard_normal(size)

        monkeypatch.setattr(np.random, "default_rng", CountingGenerator)
        with pytest.raises(ValueError, match="min_cos"):
            gradient_aligned_directions(np.ones(grid.n_omega), grid, min_cos=0.99)
        assert [g.draws for g in generators] == [inverse._MAX_DIRECTION_DRAWS]

