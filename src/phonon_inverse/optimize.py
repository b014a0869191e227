"""Stochastic descent loops for the relaxation-time reconstruction.

The total loss is the mean of the per-experiment losses; each iteration draws
one experiment uniformly at random (with replacement) and steps along its
gradient.  Two step rules are provided: a backtracking line search that halves
the step until the sampled loss shows sufficient decrease, and a full-matrix
adaptive rule that scales the gradient by the inverse square root of the
accumulated outer-product matrix.  Iterates are clamped to the relaxation-time
box after every update; clamping and skipped steps are counted on the state so
a nominal run can assert they never happened.

Steps act on an *objective* object so the same loops run against the kinetic
solver (:class:`PairObjective`) and against cheap synthetic losses in tests.
An objective provides::

    n_terms                         -> int
    loss(tau, index)                -> float
    loss_and_gradient(tau, index)   -> (float, gradient array)
    total_loss(tau)                 -> float
    clamp(tau)                      -> clamped copy
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from phonon_inverse import inverse
from phonon_inverse.grid import FloatArray, PhaseGrid
from phonon_inverse.material import DEFAULT_TAU_BOUNDS, MaterialModel

logger = logging.getLogger(__name__)

# The line search gives up after this many halvings of the initial step; a
# step that small signals an inconsistent gradient/loss pair, not progress.
MAX_HALVINGS = 30


@dataclass(frozen=True)
class HistoryRow:
    """One optimizer iteration: the sample, the step, and the new iterate's stats.

    ``loss_sampled`` and ``gradient_norm`` describe the drawn experiment at
    the pre-step iterate (the quantities the step rule actually used);
    ``loss_total`` and ``error`` describe the post-step iterate.  The initial
    row (iteration 0) has no sample or step and records NaN for them.
    """

    iteration: int
    sample: int
    step_size: float
    loss_total: float
    loss_sampled: float
    error: float
    gradient_norm: float


@dataclass(frozen=True)
class OptimizerState:
    """Iterate, RNG stream, accumulated history, and step-rule bookkeeping.

    The generator object carries the stream position, so resuming from a
    state continues the same sample sequence.  ``adagrad_matrix`` is the
    running sum of gradient outer products; it is None until the first
    adaptive step and stays None under the line-search rule.
    """

    tau: FloatArray
    iteration: int
    rng: np.random.Generator
    history: tuple[HistoryRow, ...]
    adagrad_matrix: FloatArray | None = None
    clamp_events: int = 0
    skipped_steps: int = 0


class PairObjective:
    """Sampled reconstruction loss backed by the kinetic solver.

    ``material_builder`` maps a nodal tau profile to the material the solves
    use; every pair must already carry a datum.  ``tau_bounds`` is the box
    :meth:`clamp` projects onto — pass the material's own bounds so clamped
    iterates remain buildable.
    """

    def __init__(
        self,
        pairs: Sequence[inverse.SourceTestPair],
        material_builder: Callable[[FloatArray], MaterialModel],
        grid: PhaseGrid,
        tau_bounds: tuple[float, float] = DEFAULT_TAU_BOUNDS,
    ) -> None:
        if not pairs:
            raise ValueError("objective needs at least one experiment pair")
        self.pairs = list(pairs)
        self.material_builder = material_builder
        self.grid = grid
        self.tau_bounds = tau_bounds

    @property
    def n_terms(self) -> int:
        return len(self.pairs)

    def loss(self, tau: FloatArray, index: int) -> float:
        material = self.material_builder(tau)
        return inverse.loss(material, self.grid, self.pairs[index])[0]

    def loss_and_gradient(self, tau: FloatArray, index: int) -> tuple[float, FloatArray]:
        material = self.material_builder(tau)
        value, _, gradient = inverse.loss_and_gradient(material, self.grid, self.pairs[index])
        return value, gradient

    def total_loss(self, tau: FloatArray) -> float:
        material = self.material_builder(tau)
        return inverse.total_loss(material, self.grid, self.pairs)

    def clamp(self, tau: FloatArray) -> FloatArray:
        lo, hi = self.tau_bounds
        return np.clip(tau, lo, hi)


def initial_state(
    tau0: FloatArray,
    seed: int = 0,
    objective=None,
    reference_tau: FloatArray | None = None,
    track_total_loss: bool = True,
) -> OptimizerState:
    """A fresh state at tau0, with the iteration-0 history row filled in."""
    tau0 = np.array(tau0, dtype=float)
    row = HistoryRow(
        iteration=0,
        sample=-1,
        step_size=math.nan,
        loss_total=(
            objective.total_loss(tau0) if (objective is not None and track_total_loss)
            else math.nan
        ),
        loss_sampled=math.nan,
        error=_error_against(tau0, reference_tau),
        gradient_norm=math.nan,
    )
    return OptimizerState(
        tau=tau0,
        iteration=0,
        rng=np.random.default_rng(seed),
        history=(row,),
    )


def _error_against(tau: FloatArray, reference_tau: FloatArray | None) -> float:
    if reference_tau is None:
        return math.nan
    return reconstruction_error(tau, reference_tau)


def _draw_sample(state: OptimizerState, objective) -> int:
    return int(state.rng.integers(objective.n_terms))


def _finish_step(
    state: OptimizerState,
    objective,
    new_tau: FloatArray,
    *,
    sample: int,
    step_size: float,
    loss_sampled: float,
    gradient_norm: float,
    reference_tau: FloatArray | None,
    track_total_loss: bool,
    **state_updates,
) -> OptimizerState:
    row = HistoryRow(
        iteration=state.iteration + 1,
        sample=sample,
        step_size=step_size,
        loss_total=objective.total_loss(new_tau) if track_total_loss else math.nan,
        loss_sampled=loss_sampled,
        error=_error_against(new_tau, reference_tau),
        gradient_norm=gradient_norm,
    )
    return replace(
        state,
        tau=new_tau,
        iteration=state.iteration + 1,
        history=state.history + (row,),
        **state_updates,
    )


def _require_finite_gradient(gradient: FloatArray, index: int, state: OptimizerState) -> None:
    if not np.all(np.isfinite(gradient)):
        raise RuntimeError(
            f"nonfinite gradient for sample {index} at iteration {state.iteration + 1}; "
            "aborting instead of stepping along it"
        )


def sgd_step_armijo(
    state: OptimizerState,
    objective,
    c: float = 1e-4,
    alpha_max: float = 1.0,
    reference_tau: FloatArray | None = None,
    track_total_loss: bool = True,
) -> OptimizerState:
    """One sampled step with a halving line search for sufficient decrease.

    Starting from alpha_max, the step is halved until the sampled loss at the
    clamped candidate drops by at least c * alpha * ||g||^2 (Euclidean norm).
    If no step above alpha_max / 2^30 qualifies, the iterate is left unchanged
    and the skip is counted and logged.
    """
    if not (0.0 < c < math.inf and 0.0 < alpha_max < math.inf):
        raise ValueError(f"c and alpha_max must be finite and positive, got {c}, {alpha_max}")
    index = _draw_sample(state, objective)
    current_loss, gradient = objective.loss_and_gradient(state.tau, index)
    _require_finite_gradient(gradient, index, state)
    gradient_norm_sq = float(gradient @ gradient)
    gradient_norm = math.sqrt(gradient_norm_sq)

    new_tau = state.tau
    clamp_events = state.clamp_events
    skipped_steps = state.skipped_steps
    if gradient_norm == 0.0:
        # The candidate equals the iterate, so sufficient decrease holds with
        # equality at the full step.
        accepted = alpha_max
    else:
        accepted = 0.0
        alpha = alpha_max
        floor = alpha_max * 2.0**-MAX_HALVINGS
        while alpha >= floor:
            raw = state.tau - alpha * gradient
            candidate = objective.clamp(raw)
            if objective.loss(candidate, index) <= current_loss - c * alpha * gradient_norm_sq:
                accepted = alpha
                new_tau = candidate
                clamp_events += int(not np.array_equal(candidate, raw))
                break
            alpha *= 0.5
        if accepted == 0.0:
            skipped_steps += 1
            logger.warning(
                "line search at iteration %d found no sufficient decrease above "
                "alpha = %g; step skipped (gradient/loss inconsistency?)",
                state.iteration + 1,
                floor,
            )
    return _finish_step(
        state,
        objective,
        new_tau,
        sample=index,
        step_size=accepted,
        loss_sampled=current_loss,
        gradient_norm=gradient_norm,
        reference_tau=reference_tau,
        track_total_loss=track_total_loss,
        clamp_events=clamp_events,
        skipped_steps=skipped_steps,
    )


def sgd_step_adagrad(
    state: OptimizerState,
    objective,
    alpha: float = 0.5,
    delta: float = 1e-8,
    reference_tau: FloatArray | None = None,
    track_total_loss: bool = True,
) -> OptimizerState:
    """One sampled step preconditioned by the accumulated gradient geometry.

    The outer product of the drawn gradient joins the running matrix first;
    the update then follows (delta I + G)^(-1/2) g, computed by symmetric
    eigendecomposition with negative eigenvalues (roundoff) clamped to zero.
    """
    if not (0.0 < alpha < math.inf and 0.0 < delta < math.inf):
        raise ValueError(f"alpha and delta must be finite and positive, got {alpha}, {delta}")
    index = _draw_sample(state, objective)
    current_loss, gradient = objective.loss_and_gradient(state.tau, index)
    _require_finite_gradient(gradient, index, state)
    matrix = state.adagrad_matrix
    if matrix is None:
        matrix = np.zeros((state.tau.size, state.tau.size))
    matrix = matrix + np.outer(gradient, gradient)

    eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    eigenvalues = np.maximum(eigenvalues, 0.0)
    direction = eigenvectors @ ((eigenvectors.T @ gradient) / np.sqrt(eigenvalues + delta))
    raw = state.tau - alpha * direction
    candidate = objective.clamp(raw)
    return _finish_step(
        state,
        objective,
        candidate,
        sample=index,
        step_size=alpha,
        loss_sampled=current_loss,
        gradient_norm=float(np.linalg.norm(gradient)),
        reference_tau=reference_tau,
        track_total_loss=track_total_loss,
        clamp_events=state.clamp_events + int(not np.array_equal(candidate, raw)),
        adagrad_matrix=matrix,
    )


def run_sgd(
    tau0: FloatArray,
    objective,
    method: str = "armijo",
    budget: int = 500,
    seed: int = 0,
    reference_tau: FloatArray | None = None,
    c: float = 1e-4,
    alpha_max: float = 1.0,
    alpha: float = 0.5,
    delta: float = 1e-8,
    stop_gradient_norm: float = 0.0,
    snapshot_iterations: Sequence[int] = (),
    track_total_loss: bool = True,
) -> tuple[OptimizerState, dict[int, FloatArray]]:
    """Drive one of the step rules for a full run.

    Stops after ``budget`` iterations, or earlier once the sampled gradient
    norm falls to ``stop_gradient_norm`` (0 disables the early exit).
    ``snapshot_iterations`` collects copies of the iterate at those counts;
    the run returns the final state and the snapshot dictionary.
    """
    if method not in ("armijo", "adagrad"):
        raise ValueError(f"unknown method {method!r}; expected 'armijo' or 'adagrad'")
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    wanted = {int(n) for n in snapshot_iterations}
    state = initial_state(
        tau0,
        seed=seed,
        objective=objective,
        reference_tau=reference_tau,
        track_total_loss=track_total_loss,
    )
    snapshots: dict[int, FloatArray] = {}
    if 0 in wanted:
        snapshots[0] = state.tau.copy()
    while state.iteration < budget:
        if method == "armijo":
            state = sgd_step_armijo(
                state, objective, c=c, alpha_max=alpha_max,
                reference_tau=reference_tau, track_total_loss=track_total_loss,
            )
        else:
            state = sgd_step_adagrad(
                state, objective, alpha=alpha, delta=delta,
                reference_tau=reference_tau, track_total_loss=track_total_loss,
            )
        if state.iteration in wanted:
            snapshots[state.iteration] = state.tau.copy()
        if stop_gradient_norm > 0.0 and state.history[-1].gradient_norm <= stop_gradient_norm:
            logger.info(
                "sampled gradient norm %g reached the stopping threshold %g at iteration %d",
                state.history[-1].gradient_norm, stop_gradient_norm, state.iteration,
            )
            break
    return state, snapshots


def reconstruction_error(tau: FloatArray, reference_tau: FloatArray) -> float:
    """Root-mean-square nodal distance ||tau - reference|| / sqrt(n_nodes)."""
    tau = np.asarray(tau, dtype=float)
    reference_tau = np.asarray(reference_tau, dtype=float)
    if tau.shape != reference_tau.shape:
        raise ValueError(
            f"profile shapes {tau.shape} and {reference_tau.shape} do not match"
        )
    return float(np.linalg.norm(tau - reference_tau) / np.sqrt(tau.size))


def gradient_geometry(
    gradients: Sequence[FloatArray], grid: PhaseGrid
) -> tuple[FloatArray, FloatArray]:
    """Norms and pairwise cosines of a gradient bundle on the frequency grid.

    Uses the frequency-grid inner product throughout.  Zero gradients have no
    direction: their rows and columns of the cosine matrix are NaN.
    """
    stack = np.atleast_2d(np.asarray(gradients, dtype=float))
    norms = np.array([inverse.omega_norm(g, grid) for g in stack])
    n = stack.shape[0]
    cosines = np.full((n, n), np.nan)
    live = np.flatnonzero(norms)
    for i in live:
        for j in live:
            cosines[i, j] = inverse.omega_inner(stack[i], stack[j], grid) / (norms[i] * norms[j])
    return norms, cosines


def norm_ratio_spread(norms: FloatArray) -> float:
    """Largest-to-smallest norm ratio of a bundle (its scale imbalance)."""
    norms = np.asarray(norms, dtype=float)
    if np.any(norms <= 0.0):
        raise ValueError("norm-ratio spread needs strictly positive norms")
    return float(norms.max() / norms.min())


def min_pairwise_cosine(cosines: FloatArray) -> float:
    """Smallest off-diagonal cosine (the bundle's worst mutual alignment)."""
    cosines = np.asarray(cosines, dtype=float)
    off = cosines[~np.eye(cosines.shape[0], dtype=bool)]
    return float(np.nanmin(off))


def recombine_gradients(
    gradients: Sequence[FloatArray],
    rng_seed: int = 0,
) -> FloatArray:
    """Random positive mixtures of a gradient bundle.

    Stacks the gradients as columns G and returns the columns of G A (as
    rows, matching the input layout) with A drawn entrywise uniform on
    (0, 1).
    """
    stack = np.atleast_2d(np.asarray(gradients, dtype=float))
    n = stack.shape[0]
    matrix = np.random.default_rng(rng_seed).uniform(size=(n, n))
    return (stack.T @ matrix).T
