"""Measurement model and relaxation-time gradient for the reconstruction problem.

Each experiment pairs a boundary heat pulse with a timed readout of the
boundary temperature: the pulse phi enters at x = 0, crosses the slab, bounces
off the reflecting face at x = 1, and returns to x = 0, where a Gaussian time
window psi centered on the predicted round-trip arrival integrates the
temperature trace into a single scalar measurement.  The misfit between that
scalar and a recorded datum defines a half-squared loss per experiment.

Every measurement (data, losses, the total loss and the mismatch that seeds
the gradient) is read from the material's boundary response: one transposed
march gives the x = 0 temperature's sensitivity to the inflow at every time
lag, and each experiment's readout is then one dense sum of its inflow
against the windowed lags.  A Gaussian pulse's inflow is one time profile
times one (mu, omega) table, so its readout is two matrix-vector products;
any other source's is a matrix product over the time nodes where its
inflow is nonzero.  No forward march is needed for a loss.

The loss gradient with respect to the relaxation-time profile tau(omega) is
reverse mode through that same computation, so it is the exact gradient of
the discrete loss.  tau enters in three places: the inflow phi/tau, the
readout's normalization by mean_omega h*, and the step itself through the
relaxation number r = dt / (epsilon^2 tau) and h* = g*/tau.  The first two
are closed-form; the step's share pairs each state of one adjoint march
with the response's kept cotangent sheet for that lag.  The result
is a nodal gradient vector g such that the directional derivative of the
loss along a tau-perturbation d equals the frequency-grid pairing
``omega_inner(g, d)``; a centered finite-difference oracle cross-checks that
pairing to its own O(step^2) truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from phonon_inverse.grid import FloatArray, PhaseGrid
from phonon_inverse.material import MaterialModel
from phonon_inverse.transport import (
    BoundarySource,
    SourceFunction,
    _aligned_empty,
    _step_tables,
    boundary_response,
    gaussian_bump,
    solve_adjoint,
    source_values,
)

# Draws gradient_aligned_directions makes before it gives up on min_cos.
_MAX_DIRECTION_DRAWS = 10_000


@dataclass(frozen=True)
class SourceTestPair:
    """One experiment: an injection pulse plus a timed boundary readout.

    ``test_center`` and ``test_width`` place the unit-peak Gaussian window
    that weights the boundary-temperature trace; ``datum`` is the recorded
    measurement the loss compares against (None until data are attached).
    """

    source: BoundarySource | SourceFunction
    test_center: float
    test_width: float
    datum: float | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.test_center):
            raise ValueError(f"test_center must be finite, got {self.test_center}")
        if not 0.0 < self.test_width < math.inf:
            raise ValueError(f"test_width must be finite and positive, got {self.test_width}")

    def window(self, t: FloatArray) -> FloatArray:
        """The readout window psi(t), a unit-peak Gaussian at test_center."""
        return gaussian_bump(np.asarray(t, dtype=float) - self.test_center, self.test_width)


def _require_window_fit(pair: SourceTestPair, grid: PhaseGrid) -> None:
    horizon = float(grid.t_nodes[-1])
    tail = pair.test_center + 3.0 * pair.test_width
    if tail > horizon * (1.0 + 1e-12) + 1e-12:
        raise ValueError(
            f"test window centered at {pair.test_center} with width {pair.test_width} "
            f"extends to {tail:.6g}, past the time horizon {horizon:.6g}; "
            "the readout needs center + 3*width <= horizon"
        )


def arrival_time(t0: float, mu0: float, omega0: float, material: MaterialModel) -> float:
    """Round-trip arrival t0 + 2 / (mu0 v(omega0)) of a pulse at the x = 0 face.

    The pulse travels distance 2 (to the reflecting face and back) at axial
    speed mu0 v(omega0).  Only rightward pulses (mu0 > 0) ever return.
    """
    if mu0 <= 0.0:
        raise ValueError(f"mu0 must be positive for a round trip, got {mu0}")
    omega_lo = float(material.omega_nodes[0])
    omega_hi = float(material.omega_nodes[-1])
    if not omega_lo <= omega0 <= omega_hi:
        raise ValueError(
            f"omega0 = {omega0} lies outside the material band [{omega_lo}, {omega_hi}]"
        )
    speed = float(np.interp(omega0, material.omega_nodes, material.velocity))
    return float(t0) + 2.0 / (float(mu0) * speed)


def build_pair(
    material: MaterialModel,
    t0: float,
    mu0: float,
    omega_center: float,
    source_widths: tuple[float, float, float] = (0.01, 0.01, 0.1),
    test_width: float = 0.08,
) -> SourceTestPair:
    """A pulse at (t0, mu0, omega_center) with its readout at the arrival time."""
    source = BoundarySource(t0, mu0, omega_center, source_widths)
    return SourceTestPair(
        source=source,
        test_center=arrival_time(t0, mu0, omega_center, material),
        test_width=test_width,
    )


def frequency_sweep_pairs(
    material: MaterialModel,
    omega_centers: Sequence[float] | None = None,
    t0: float = 0.1,
    mu0: float = 0.93,
    source_widths: tuple[float, float, float] = (0.01, 0.01, 0.1),
    test_width: float = 0.08,
) -> list[SourceTestPair]:
    """One experiment per pulse frequency, sharing the injection geometry.

    By default the pulse centers run over the material's frequency nodes, so
    each experiment interrogates the relaxation time near one node.
    """
    if omega_centers is None:
        omega_centers = material.omega_nodes
    return [
        build_pair(material, t0, mu0, float(center), source_widths, test_width)
        for center in omega_centers
    ]


def _hankel_rows(pair: SourceTestPair, grid: PhaseGrid, support: np.ndarray) -> FloatArray:
    """Rows ``support`` of the window's Hankel matrix, shape (len(support), N).

    With N = n_t - 1 and weights w_n = window(t_n) * t_mean_n, row m holds
    w_{m + k} for the lags k = 0 .. N - 1 (zero past the horizon).
    """
    steps = grid.n_t - 1
    weights = np.zeros(2 * steps)
    weights[:steps] = (pair.window(grid.t_nodes) * grid.t_mean)[1:]
    return np.lib.stride_tricks.sliding_window_view(weights, steps)[support]


def _readout_rows(
    pair: SourceTestPair, material: MaterialModel, grid: PhaseGrid
) -> tuple[FloatArray, FloatArray]:
    """(lag weights, inflow rows) such that the readout is sum (lag weights @ g) * inflow.

    A :class:`BoundarySource`'s inflow is rank 1: u_m = a_m v with a its
    time factor on the steps 1 .. N and v = b c / tau its (mu, omega)
    factors over tau.  So sum_m w_{m+k} u_m = alpha_k v with
    alpha = a @ hankel, over the steps where a is nonzero, and the pair is
    one row, (alpha, v).  Any other source takes :func:`_support_rows`.
    """
    source = pair.source
    if not isinstance(source, BoundarySource):
        return _support_rows(pair, material, grid)
    in_t, in_mu, in_omega = source.factors(
        grid.t_nodes[1:], grid.mu_nodes[grid.n_mu // 2 :], grid.omega_nodes
    )
    support = np.flatnonzero(in_t)
    lag_weights = in_t[support] @ _hankel_rows(pair, grid, support)
    inflow = in_mu[:, None] * in_omega / material.tau
    return lag_weights[None], inflow[None]


def _support_rows(
    pair: SourceTestPair, material: MaterialModel, grid: PhaseGrid
) -> tuple[FloatArray, FloatArray]:
    """The Hankel rows and the inflow rows over the source's time support.

    With inflow u_m = phi_m / tau written at step m, only the steps where
    u_m has a nonzero entry are kept; the others contribute exactly 0.
    phi's table is read as a view, neither copied nor written, and only the
    kept rows are divided by tau.  A nonfinite entry is nonzero, so the
    check on the kept rows covers the whole table.
    """
    table = source_values(pair.source, grid)[1:]
    support = np.flatnonzero(table.any(axis=(1, 2)))
    inflow = table[support] / material.tau
    nonfinite = ~np.isfinite(inflow).all(axis=(1, 2))
    if nonfinite.any():
        n = int(support[np.argmax(nonfinite)]) + 1
        raise RuntimeError(
            f"forward readout met a nonfinite inflow at step {n} "
            f"(t = {grid.t_nodes[n]:.6g})"
        )
    # A subnormal phi can divide to zero; such a row contributes nothing.
    kept = inflow.any(axis=(1, 2))
    if not kept.all():
        support, inflow = support[kept], inflow[kept]
    return _hankel_rows(pair, grid, support), inflow


def _readout(
    response: FloatArray, lag_weights: FloatArray, inflow: FloatArray
) -> tuple[float, FloatArray]:
    """Time average of window * boundary temperature, from the boundary response.

    The measurement is sum_m u_m . sum_k w_{m+k} g[k], read from the rows of
    :func:`_readout_rows`: (lag weights) @ (N x n_mu/2 n_omega), then one dot
    product with the inflow rows.  Every measurement goes through this one
    reduction, so synthetic data and the losses that recompute them agree
    bit for bit.  Returns the measurement and the windowed response rows,
    which the gradient reuses.
    """
    windowed = lag_weights @ response.reshape(response.shape[0], -1)
    return float(windowed.ravel() @ inflow.ravel()), windowed


def _measure(
    material: MaterialModel,
    grid: PhaseGrid,
    pairs: Sequence[SourceTestPair],
    keep_stack: bool = False,
) -> list[float]:
    """Readouts from one response; losses keep its stack for the gradient that follows."""
    for pair in pairs:
        _require_window_fit(pair, grid)
    g = boundary_response(material, grid, keep_stack).g
    return [_readout(g, *_readout_rows(pair, material, grid))[0] for pair in pairs]


def forward_map(
    material: MaterialModel,
    grid: PhaseGrid,
    pair: SourceTestPair,
) -> float:
    """The scalar measurement: window-averaged boundary temperature at x = 0."""
    return _measure(material, grid, [pair])[0]


def generate_data(
    material: MaterialModel,
    grid: PhaseGrid,
    pairs: Sequence[SourceTestPair],
) -> list[SourceTestPair]:
    """Attach noise-free synthetic measurements computed from this material."""
    return [replace(pair, datum=forward_map(material, grid, pair)) for pair in pairs]


def _require_datum(pair: SourceTestPair) -> float:
    if pair.datum is None:
        raise ValueError(
            "pair has no datum; attach measurements with generate_data (or set datum) first"
        )
    return float(pair.datum)


def loss(
    material: MaterialModel,
    grid: PhaseGrid,
    pair: SourceTestPair,
) -> tuple[float, float]:
    """Half-squared misfit and its signed mismatch: (l^2 / 2, l)."""
    datum = _require_datum(pair)
    mismatch = _measure(material, grid, [pair], keep_stack=True)[0] - datum
    return 0.5 * mismatch * mismatch, mismatch


def total_loss(
    material: MaterialModel,
    grid: PhaseGrid,
    pairs: Sequence[SourceTestPair],
) -> float:
    """Mean of the per-experiment losses over the whole collection."""
    if not pairs:
        raise ValueError("total loss needs at least one pair")
    data = np.array([_require_datum(pair) for pair in pairs])
    mismatches = np.array(_measure(material, grid, pairs, keep_stack=True)) - data
    return float(np.mean(0.5 * mismatches**2))


def omega_inner(a: FloatArray, b: FloatArray, grid: PhaseGrid) -> float:
    """Frequency-grid inner product integral(a * b domega), grid channel weights."""
    return float(grid.omega_weights @ (np.asarray(a) * np.asarray(b)))


def omega_norm(a: FloatArray, grid: PhaseGrid) -> float:
    """Frequency-grid L2 norm sqrt(integral(a^2 domega))."""
    return float(np.sqrt(omega_inner(a, a, grid)))


def loss_and_gradient(
    material: MaterialModel,
    grid: PhaseGrid,
    pair: SourceTestPair,
) -> tuple[float, float, FloatArray]:
    """(loss, mismatch, gradient), the gradient exact for the discrete loss.

    The mismatch is read as every measurement is, so the loss equals
    :func:`loss` bit for bit.  The readout is y = sum_k c_k . g[k], with
    c_k = sum_m w_{m+k} u_m the window-weighted inflow at lag k and g the
    boundary response.  The states lambda_{k+1} of one adjoint march
    (:func:`solve_adjoint`) pair with slot k of the response's stack, B^T q_k:

        T1 = sum lambda B^T q,   T2 = sum_rows D(lambda) sum_mu B^T q,

    per omega, D being lambda's folded density before the division by
    mean_omega h* (the march hands over the quotient).  With
    r = dt / (epsilon^2 tau), K = r h* / mean_omega h* and
    s = omega_mean h* / (tau mean_omega h*), the derivative of the loss is

        (r/tau) T1 - (2K/tau) T2 + s (K . T2)
            + mismatch (y s - sum_k c_k . g[k] / tau):

    the step's relaxation strength, its equilibrium h*, the equilibrium's
    normalization, the readout's normalization and the inflow phi/tau.  The
    gradient lives on the frequency nodes; pairing it with a nodal
    tau-perturbation through :func:`omega_inner` gives the directional
    derivative of the loss.
    """
    _require_window_fit(pair, grid)
    datum = _require_datum(pair)
    response = boundary_response(material, grid, keep_stack=True)
    lag_weights, inflow = _readout_rows(pair, material, grid)
    measured, windowed = _readout(response.g, lag_weights, inflow)
    mismatch = measured - datum

    _, half, n_omega = response.g.shape
    cells, rows = half * n_omega, 2 * grid.n_x
    inflow = inflow.reshape(-1, cells)
    lagged = (lag_weights.T @ inflow).reshape(response.g.shape)
    tables = _step_tables(material, grid)
    # T1's and T2's row sums are one matrix-vector product each per lag,
    # accumulated per (mu, omega) cell and summed over mu after the march.
    ones = np.ones(rows)
    product = _aligned_empty((rows, cells))
    row_total = np.empty(cells)
    sums = np.zeros((2, cells))

    def pair_sheets(k: int, lam: FloatArray, density: FloatArray) -> None:
        cotangent = response.stack[k].reshape(rows, -1)
        np.multiply(lam.reshape(rows, -1), cotangent, out=product)
        np.matmul(ones, product, out=row_total)
        sums[0] += row_total
        np.matmul(density, cotangent, out=row_total)
        sums[1] += row_total

    solve_adjoint(material, grid, mismatch, lagged, on_step=pair_sheets)

    tau, h_star, h_star_mean = material.tau, tables.h_star, tables.h_star_mean
    kernel = tables.relaxation * h_star / h_star_mean
    shift = grid.omega_mean * h_star / (tau * h_star_mean)
    collision_sum, equilibrium_sum = sums.reshape(2, half, n_omega).sum(axis=1)
    equilibrium_sum *= h_star_mean
    # sum_k c_k . g[k] per omega, with c = lag_weights^T inflow, is the
    # windowed response rows against the inflow rows.
    inflow_sum = (windowed * inflow).reshape(-1, n_omega).sum(axis=0)
    derivative = (
        (tables.relaxation / tau) * collision_sum
        - (2.0 * kernel / tau) * equilibrium_sum
        + shift * float(kernel @ equilibrium_sum)
        + mismatch * (measured * shift - inflow_sum / tau)
    )
    return 0.5 * mismatch * mismatch, mismatch, derivative / grid.omega_weights


def frechet_gradient(
    material: MaterialModel,
    grid: PhaseGrid,
    pair: SourceTestPair,
) -> FloatArray:
    """Nodal loss gradient with respect to tau for one experiment."""
    return loss_and_gradient(material, grid, pair)[2]


def central_difference(
    loss_fn: Callable[[FloatArray], float],
    tau: FloatArray,
    direction: FloatArray,
    step: float = 1e-3,
) -> float:
    """Centered difference (f(tau + s d) - f(tau - s d)) / (2 s)."""
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    tau = np.asarray(tau, dtype=float)
    direction = np.asarray(direction, dtype=float)
    plus = loss_fn(tau + step * direction)
    minus = loss_fn(tau - step * direction)
    return (plus - minus) / (2.0 * step)


def fd_gradient_oracle(
    material: MaterialModel,
    grid: PhaseGrid,
    pair: SourceTestPair,
    direction: FloatArray,
    step: float = 1e-3,
) -> float:
    """Directional loss derivative along a tau-perturbation, by centered differences.

    Independent of the adjoint machinery: two perturbed forward solves only.
    Raises if either perturbed profile leaves the material's tau bounds.
    """

    def loss_at(tau: FloatArray) -> float:
        return loss(material.with_tau(tau), grid, pair)[0]

    return central_difference(loss_at, material.tau, direction, step)


def gradient_aligned_directions(
    gradient: FloatArray,
    grid: PhaseGrid,
    count: int = 3,
    seed: int = 0,
    min_cos: float = 0.2,
) -> list[FloatArray]:
    """Seeded random directions that are not near-orthogonal to a gradient.

    Draws standard-normal nodal vectors and keeps those whose angle cosine
    with the gradient clears ``min_cos`` in magnitude.  Relative agreement
    between the adjoint pairing and finite differences is only meaningful in
    such directions: when the true directional derivative is near zero the
    ratio amplifies discretization dust regardless of gradient accuracy.
    Raises if ``count`` directions do not clear ``min_cos`` within
    ``_MAX_DIRECTION_DRAWS`` draws.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    if not 0.0 <= min_cos < 1.0:
        raise ValueError(f"min_cos must lie in [0, 1), got {min_cos}")
    scale = omega_norm(gradient, grid)
    if scale == 0.0:
        raise ValueError("cannot align directions with a zero gradient")
    rng = np.random.default_rng(seed)
    unit = np.asarray(gradient, dtype=float) / scale
    directions: list[FloatArray] = []
    for _ in range(_MAX_DIRECTION_DRAWS):
        draw = rng.standard_normal(unit.size)
        if abs(omega_inner(draw, unit, grid)) >= min_cos * omega_norm(draw, grid):
            directions.append(draw)
            if len(directions) == count:
                return directions
    raise ValueError(
        f"only {len(directions)} of {count} directions cleared min_cos = {min_cos} "
        f"in {_MAX_DIRECTION_DRAWS} draws; lower min_cos"
    )

