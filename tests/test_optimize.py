"""Tests for the stochastic descent loops and gradient-bundle diagnostics.

The step rules are exercised against tiny synthetic objectives where every
update is analytic (quadratic losses with known anchors), and against the
kinetic solver on a short horizon to replay the recorded sufficient-decrease
inequalities.
"""

import math

import numpy as np
import pytest

from phonon_inverse.grid import GridConfig, build_grid
from phonon_inverse.inverse import (
    SourceTestPair,
    generate_data,
    loss as pair_loss,
    loss_and_gradient,
    total_loss,
)
from phonon_inverse.material import (
    build_material,
    default_g_star,
    ground_truth_tau,
    initial_guess_tau,
)
from phonon_inverse.optimize import (
    OptimizerState,
    PairObjective,
    gradient_geometry,
    initial_state,
    min_pairwise_cosine,
    norm_ratio_spread,
    recombine_gradients,
    reconstruction_error,
    run_sgd,
    sgd_step_adagrad,
    sgd_step_armijo,
)
from phonon_inverse.transport import BoundarySource

GROUND_TRUTH_ERROR_AT_GUESS = 0.32499498845423785


class QuadraticObjective:
    """Mean of half-squared distances to per-term anchors, box-clamped."""

    def __init__(self, anchors, bounds=(-100.0, 100.0)):
        self.anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
        self.bounds = bounds

    @property
    def n_terms(self):
        return self.anchors.shape[0]

    def loss(self, tau, index):
        d = tau - self.anchors[index]
        return 0.5 * float(d @ d)

    def loss_and_gradient(self, tau, index):
        return self.loss(tau, index), tau - self.anchors[index]

    def total_loss(self, tau):
        return float(np.mean([self.loss(tau, i) for i in range(self.n_terms)]))

    def clamp(self, tau):
        return np.clip(tau, *self.bounds)


class BrokenGradientObjective(QuadraticObjective):
    """Reports the negated gradient, so descent along it always increases loss."""

    def loss_and_gradient(self, tau, index):
        value, gradient = super().loss_and_gradient(tau, index)
        return value, -gradient


class NonfiniteGradientObjective(QuadraticObjective):
    def loss_and_gradient(self, tau, index):
        value, gradient = super().loss_and_gradient(tau, index)
        return value, gradient + np.inf


def fresh_state(tau0, seed=0, objective=None, reference=None):
    return initial_state(
        np.asarray(tau0, dtype=float), seed=seed, objective=objective,
        reference_tau=reference,
    )


class TestArmijoStep:
    def test_quadratic_accepts_full_step(self):
        anchor = np.array([2.0, -1.0, 0.5])
        objective = QuadraticObjective([anchor])
        tau0 = np.zeros(3)
        state = sgd_step_armijo(fresh_state(tau0, objective=objective), objective,
                                c=0.5, alpha_max=1.0)
        np.testing.assert_array_equal(state.tau, anchor)
        row = state.history[-1]
        assert row.step_size == 1.0
        assert row.sample == 0
        assert row.loss_sampled == pytest.approx(0.5 * float(anchor @ anchor))
        assert row.gradient_norm == pytest.approx(float(np.linalg.norm(anchor)))
        assert row.loss_total == 0.0

    def test_halves_until_sufficient_decrease(self):
        anchor = np.array([1.0, 1.0])
        objective = QuadraticObjective([anchor])
        state = sgd_step_armijo(fresh_state(np.zeros(2), objective=objective),
                                objective, c=0.5, alpha_max=4.0)
        # alpha = 4 and 2 overshoot; the first step satisfying the decrease
        # condition is alpha = 1, which lands exactly on the anchor.
        assert state.history[-1].step_size == 1.0
        np.testing.assert_array_equal(state.tau, anchor)

    def test_inconsistent_gradient_skips_step(self, caplog):
        objective = BrokenGradientObjective([np.array([1.0, 2.0])])
        with caplog.at_level("WARNING", logger="phonon_inverse.optimize"):
            state = sgd_step_armijo(fresh_state(np.zeros(2), objective=objective),
                                    objective, c=1e-4, alpha_max=1.0)
        assert state.skipped_steps == 1
        assert state.history[-1].step_size == 0.0
        np.testing.assert_array_equal(state.tau, np.zeros(2))
        assert any("skipped" in record.message for record in caplog.records)

    def test_zero_gradient_keeps_iterate(self):
        tau0 = np.array([1.0, 2.0])
        objective = QuadraticObjective([tau0])
        state = sgd_step_armijo(fresh_state(tau0, objective=objective), objective,
                                c=1e-4, alpha_max=3.0)
        np.testing.assert_array_equal(state.tau, tau0)
        assert state.history[-1].step_size == 3.0
        assert state.skipped_steps == 0

    def test_clamped_candidate_is_the_evaluated_one(self):
        objective = QuadraticObjective([np.array([5.0])], bounds=(0.0, 2.0))
        state = sgd_step_armijo(fresh_state(np.array([1.5]), objective=objective),
                                objective, c=1e-4, alpha_max=1.0)
        np.testing.assert_array_equal(state.tau, [2.0])
        assert state.clamp_events == 1

    def test_nan_gradient_aborts_before_the_line_search(self):
        class NanGradientObjective(QuadraticObjective):
            candidates = 0

            def loss_and_gradient(self, tau, index):
                value, gradient = super().loss_and_gradient(tau, index)
                return value, gradient * np.nan

            def clamp(self, tau):
                self.candidates += 1
                return super().clamp(tau)

        objective = NanGradientObjective([np.ones(2)])
        with pytest.raises(RuntimeError, match="nonfinite gradient for sample 0 at iteration 1"):
            sgd_step_armijo(fresh_state(np.zeros(2), objective=objective), objective)
        assert objective.candidates == 0

    @pytest.mark.parametrize("bad", [
        dict(c=0.0), dict(alpha_max=-1.0), dict(alpha_max=math.inf), dict(c=math.nan),
    ])
    def test_rejects_nonpositive_constants(self, bad):
        objective = QuadraticObjective([np.ones(2)])
        with pytest.raises(ValueError, match="positive"):
            sgd_step_armijo(fresh_state(np.zeros(2), objective=objective),
                            objective, **bad)


class TestAdagradStep:
    def test_first_step_closed_form(self):
        anchor = np.array([2.0, 0.0, -1.0])
        objective = QuadraticObjective([anchor])
        tau0 = np.zeros(3)
        alpha, delta = 0.5, 1e-8
        state = sgd_step_adagrad(
            fresh_state(tau0, objective=objective),
            objective, alpha=alpha, delta=delta,
        )
        gradient = tau0 - anchor
        expected = tau0 - alpha * gradient / np.sqrt(delta + float(gradient @ gradient))
        np.testing.assert_allclose(state.tau, expected, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(
            state.adagrad_matrix, np.outer(gradient, gradient), rtol=1e-15
        )

    def test_accumulation_matrix_eigenvalues_nondecreasing(self):
        rng = np.random.default_rng(4)
        objective = QuadraticObjective(rng.standard_normal((4, 3)))
        state = fresh_state(rng.standard_normal(3), seed=2, objective=objective)
        previous = np.zeros(3)
        for _ in range(5):
            state = sgd_step_adagrad(state, objective, alpha=0.3, delta=1e-8)
            eigenvalues = np.linalg.eigvalsh(state.adagrad_matrix)
            assert eigenvalues.min() >= -1e-10
            assert np.all(eigenvalues - previous >= -1e-10)
            previous = eigenvalues

    def test_zero_gradient_leaves_matrix_and_iterate(self):
        tau0 = np.array([1.0, -1.0])
        objective = QuadraticObjective([tau0])
        before = fresh_state(tau0, objective=objective)
        state = sgd_step_adagrad(before, objective)
        np.testing.assert_array_equal(state.tau, tau0)
        np.testing.assert_array_equal(state.adagrad_matrix, np.zeros((2, 2)))

    def test_nonfinite_gradient_aborts(self):
        objective = NonfiniteGradientObjective([np.ones(2)])
        with pytest.raises(RuntimeError, match="nonfinite"):
            sgd_step_adagrad(fresh_state(np.zeros(2), objective=objective), objective)

    @pytest.mark.parametrize("bad", [
        dict(alpha=0.0), dict(delta=-1e-8), dict(alpha=math.inf), dict(delta=math.nan),
    ])
    def test_rejects_nonpositive_constants(self, bad):
        objective = QuadraticObjective([np.ones(2)])
        with pytest.raises(ValueError, match="positive"):
            sgd_step_adagrad(fresh_state(np.zeros(2), objective=objective),
                            objective, **bad)


class TestRunSgd:
    def test_zero_budget_records_only_start(self):
        objective = QuadraticObjective([np.ones(3)])
        tau0 = np.zeros(3)
        state, snapshots = run_sgd(tau0, objective, budget=0,
                                   reference_tau=np.ones(3),
                                   snapshot_iterations=[0])
        assert state.iteration == 0
        assert len(state.history) == 1
        row = state.history[0]
        assert row.loss_total == objective.total_loss(tau0)
        assert row.error == reconstruction_error(tau0, np.ones(3))
        assert math.isnan(row.step_size)
        assert list(snapshots) == [0]
        np.testing.assert_array_equal(snapshots[0], tau0)

    def test_rejects_bad_arguments(self):
        objective = QuadraticObjective([np.ones(2)])
        with pytest.raises(ValueError, match="method"):
            run_sgd(np.zeros(2), objective, method="newton")
        with pytest.raises(ValueError, match="budget"):
            run_sgd(np.zeros(2), objective, budget=-1)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(0)
        objective = QuadraticObjective(rng.standard_normal((5, 4)))
        first, _ = run_sgd(np.zeros(4), objective, budget=8, seed=5, alpha_max=0.7)
        second, _ = run_sgd(np.zeros(4), objective, budget=8, seed=5, alpha_max=0.7)
        assert first.history == second.history
        np.testing.assert_array_equal(first.tau, second.tau)

    def test_history_and_snapshots_are_coherent(self):
        rng = np.random.default_rng(1)
        objective = QuadraticObjective(rng.standard_normal((3, 2)))
        reference = np.zeros(2)
        state, snapshots = run_sgd(np.full(2, 2.0), objective, budget=4, seed=3,
                                   alpha_max=0.5, reference_tau=reference,
                                   snapshot_iterations=[0, 2, 4])
        assert [row.iteration for row in state.history] == [0, 1, 2, 3, 4]
        assert all(0 <= row.sample < 3 for row in state.history[1:])
        assert sorted(snapshots) == [0, 2, 4]
        np.testing.assert_array_equal(snapshots[4], state.tau)
        last = state.history[-1]
        assert last.loss_total == objective.total_loss(state.tau)
        assert last.error == reconstruction_error(state.tau, reference)

    def test_stops_on_small_gradient(self):
        anchor = np.array([1.0, 2.0])
        objective = QuadraticObjective([anchor])
        state, _ = run_sgd(np.zeros(2), objective, budget=10, c=0.5, alpha_max=1.0,
                           stop_gradient_norm=1e-12)
        # The first step lands exactly on the anchor; the second draws a zero
        # gradient, which trips the stopping rule before the budget runs out.
        assert state.iteration == 2
        np.testing.assert_array_equal(state.tau, anchor)

    def test_adagrad_run_carries_matrix(self):
        objective = QuadraticObjective(np.eye(3))
        state, _ = run_sgd(np.zeros(3), objective, method="adagrad", budget=3,
                           alpha=0.2, delta=1e-8)
        assert state.adagrad_matrix is not None
        assert state.adagrad_matrix.shape == (3, 3)

    def test_sampled_gradients_average_to_total_gradient(self):
        rng = np.random.default_rng(7)
        objective = QuadraticObjective(rng.standard_normal((6, 4)))
        tau = rng.standard_normal(4)
        sampled = np.mean(
            [objective.loss_and_gradient(tau, i)[1] for i in range(6)], axis=0
        )
        analytic = tau - objective.anchors.mean(axis=0)
        np.testing.assert_allclose(sampled, analytic, atol=1e-12)


@pytest.fixture(scope="module")
def short_grid():
    return build_grid(GridConfig(dt=0.005, dx=0.02, domega=0.4, n_mu=64,
                                 t_end=0.5, omega_min=0.4, omega_max=4.0,
                                 epsilon=0.8))


@pytest.fixture(scope="module")
def short_pairs(short_grid):
    star = build_material(ground_truth_tau(), default_g_star(), short_grid.omega_nodes)
    bare = [
        SourceTestPair(BoundarySource(0.05, 0.9, 2.0, (0.02, 0.05, 0.3)), 0.30, 0.05),
        SourceTestPair(BoundarySource(0.05, 0.9, 3.2, (0.02, 0.05, 0.3)), 0.32, 0.05),
    ]
    return generate_data(star, short_grid, bare)


@pytest.fixture(scope="module")
def short_objective(short_grid, short_pairs):
    guess = build_material(initial_guess_tau(), default_g_star(), short_grid.omega_nodes)
    return PairObjective(short_pairs, guess.with_tau, short_grid,
                         tau_bounds=guess.tau_bounds)


class TestPairObjective:
    def test_requires_pairs(self, short_grid):
        guess = build_material(initial_guess_tau(), default_g_star(), short_grid.omega_nodes)
        with pytest.raises(ValueError, match="pair"):
            PairObjective([], guess.with_tau, short_grid)

    def test_matches_inverse_functions(self, short_objective, short_grid, short_pairs):
        guess = build_material(initial_guess_tau(), default_g_star(), short_grid.omega_nodes)
        tau = guess.tau
        value, gradient = short_objective.loss_and_gradient(tau, 1)
        direct_value, _, direct_gradient = loss_and_gradient(guess, short_grid, short_pairs[1])
        assert value == direct_value
        np.testing.assert_array_equal(gradient, direct_gradient)
        assert short_objective.loss(tau, 0) == pair_loss(guess, short_grid, short_pairs[0])[0]
        assert short_objective.total_loss(tau) == total_loss(guess, short_grid, short_pairs)

    def test_clamp_projects_into_bounds(self, short_objective):
        lo, hi = short_objective.tau_bounds
        clamped = short_objective.clamp(np.array([lo - 1.0, 0.5 * (lo + hi), hi + 1.0]))
        np.testing.assert_array_equal(clamped, [lo, 0.5 * (lo + hi), hi])

    def test_accepted_steps_satisfy_recorded_decrease(self, short_objective):
        guess_tau = np.asarray(
            build_material(
                initial_guess_tau(), default_g_star(),
                short_objective.grid.omega_nodes,
            ).tau
        )
        c, alpha_max = 1e-4, 1e7
        state = fresh_state(guess_tau, seed=9, objective=short_objective)
        previous_tau = state.tau
        accepted = 0
        for _ in range(6):
            state = sgd_step_armijo(state, short_objective, c=c, alpha_max=alpha_max,
                                    track_total_loss=False)
            row = state.history[-1]
            if row.step_size > 0.0 and row.gradient_norm > 0.0:
                accepted += 1
                recomputed = short_objective.loss(state.tau, row.sample)
                bound = row.loss_sampled - c * row.step_size * row.gradient_norm**2
                assert recomputed <= bound * (1.0 + 1e-12) + 1e-30
            previous_tau = state.tau
        assert accepted > 0
        assert state.clamp_events == 0

    def test_armijo_step_at_a_memo_hit_marches_one_stacked_response(
        self, short_objective, caplog
    ):
        # The step's gradient hits the stack the start's total loss kept; its
        # one line-search loss marches the candidate's response with its
        # stack, which the total-loss tracking then hits.
        grid = short_objective.grid
        guess = build_material(initial_guess_tau(), default_g_star(), grid.omega_nodes)
        state = fresh_state(guess.tau, seed=9, objective=short_objective)
        with caplog.at_level("DEBUG", logger="phonon_inverse.transport"):
            state = sgd_step_armijo(state, short_objective, alpha_max=1e7)
        assert state.history[-1].step_size == 1e7
        lines = [r.getMessage() for r in caplog.records]
        assert [line for line in lines if line.startswith("boundary response")] == [
            f"boundary response: {grid.n_t - 2} transposed steps, stack kept"
        ]
        assert len([line for line in lines if line.startswith("adjoint solve")]) == 1


class TestReconstructionError:
    def test_zero_for_identical_profiles(self):
        tau = np.linspace(1.0, 2.0, 10)
        assert reconstruction_error(tau, tau) == 0.0

    def test_uniform_offset(self):
        tau = np.full(10, 1.4)
        assert reconstruction_error(tau + 0.3, tau) == pytest.approx(0.3, rel=1e-14)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            reconstruction_error(np.ones(10), np.ones(9))

    def test_guess_to_ground_truth_distance(self):
        grid = build_grid(GridConfig(dt=0.005, dx=0.02, domega=0.4, n_mu=4,
                                     t_end=0.1, omega_min=0.4, omega_max=4.0))
        star = build_material(ground_truth_tau(), default_g_star(), grid.omega_nodes)
        guess = build_material(initial_guess_tau(), default_g_star(), grid.omega_nodes)
        assert reconstruction_error(guess.tau, star.tau) == pytest.approx(
            GROUND_TRUTH_ERROR_AT_GUESS, rel=1e-15
        )


@pytest.fixture(scope="module")
def geometry_grid():
    return build_grid(GridConfig(dt=0.01, dx=0.1, domega=0.4, n_mu=4,
                                 t_end=0.1, omega_min=0.4, omega_max=4.0))


class TestGradientGeometry:
    def test_identical_bundle_fully_aligned(self, geometry_grid):
        g = np.linspace(1.0, 2.0, geometry_grid.n_omega)
        norms, cosines = gradient_geometry([g, g, g], geometry_grid)
        np.testing.assert_allclose(norms, norms[0])
        np.testing.assert_allclose(cosines, np.ones((3, 3)), rtol=1e-14)
        assert norm_ratio_spread(norms) == pytest.approx(1.0)

    def test_disjoint_bumps_are_orthogonal(self, geometry_grid):
        a = np.zeros(geometry_grid.n_omega)
        b = np.zeros(geometry_grid.n_omega)
        a[2] = 1.0
        b[5] = 2.0
        norms, cosines = gradient_geometry([a, b], geometry_grid)
        assert norms[0] == pytest.approx(np.sqrt(geometry_grid.omega_weights[2]))
        assert norms[1] == pytest.approx(2 * np.sqrt(geometry_grid.omega_weights[5]))
        assert cosines[0, 1] == 0.0
        assert cosines[0, 0] == pytest.approx(1.0)
        assert min_pairwise_cosine(cosines) == 0.0

    def test_zero_gradient_masked(self, geometry_grid):
        a = np.zeros(geometry_grid.n_omega)
        a[2] = 1.0
        norms, cosines = gradient_geometry([a, np.zeros_like(a)], geometry_grid)
        assert norms[1] == 0.0
        assert np.isnan(cosines[1]).all()
        assert np.isnan(cosines[:, 1]).all()
        assert cosines[0, 0] == pytest.approx(1.0)

    def test_spread_requires_positive_norms(self):
        with pytest.raises(ValueError, match="positive"):
            norm_ratio_spread(np.array([1.0, 0.0]))


class TestRecombination:
    def test_seeded_and_deterministic(self):
        bundle = np.eye(3)
        first = recombine_gradients(bundle, rng_seed=12)
        second = recombine_gradients(bundle, rng_seed=12)
        np.testing.assert_array_equal(first, second)
        assert not np.array_equal(first, recombine_gradients(bundle, rng_seed=13))

    def test_mixture_weights_are_positive(self):
        bundle = np.eye(4)
        mixed = recombine_gradients(bundle, rng_seed=5)
        # Each output row holds one mixing column of A; uniform(0, 1) draws
        # are strictly positive.
        assert np.all(mixed > 0.0)
