"""Measurement model and relaxation-time gradient for the reconstruction problem.

Each experiment pairs a boundary heat pulse with a timed readout of the
boundary temperature: the pulse phi enters at x = 0, crosses the slab, bounces
off the reflecting face at x = 1, and returns to x = 0, where a Gaussian time
window psi centered on the predicted round-trip arrival integrates the
temperature trace into a single scalar measurement.  The misfit between that
scalar and a recorded datum defines a half-squared loss per experiment.

Every measurement (data, losses, the total loss and the mismatch that seeds
the adjoint) is read from the material's boundary response: one transposed
march gives the x = 0 temperature's sensitivity to the inflow at every time
lag, and each experiment's readout is then one dense sum of its inflow
table against the windowed lags, over the time nodes where the pulse's
inflow is nonzero.  No forward march is needed for a loss.

The loss gradient with respect to the relaxation-time profile tau(omega) is
assembled from one forward solve and one adjoint solve.  Perturbing tau moves
the solution through three routes — the inflow boundary value phi/tau, the
collision strength 1/tau, and the equilibrium direction h* = g*/tau — and each
route contributes paired terms below (boundary, interior-collision, and
equilibrium-shift).  The interior terms are summed on the marches' own
unfolded sheets, so neither solve reorders its states.  The result is a
nodal gradient vector g such that the directional derivative of the loss
along a tau-perturbation d equals the frequency-grid pairing
``omega_inner(g, d)``; a centered finite-difference oracle cross-checks that
pairing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from phonon_inverse.collision import mean_mu_omega, mean_omega
from phonon_inverse.grid import FloatArray, PhaseGrid
from phonon_inverse.material import MaterialModel
from phonon_inverse.transport import (
    BoundarySource,
    SourceFunction,
    boundary_response,
    gaussian_bump,
    solve_adjoint,
    solve_forward,
    source_table,
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
        if self.test_width <= 0.0:
            raise ValueError(f"test_width must be positive, got {self.test_width}")

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


def _readout(
    response: FloatArray,
    pair: SourceTestPair,
    material: MaterialModel,
    grid: PhaseGrid,
) -> float:
    """Time average of window * boundary temperature, from the boundary response.

    With N = n_t - 1, inflow u_m written at step m and weights
    w_n = window(t_n) * t_mean_n, the measurement is

        sum_{m=1..N} u_m . sum_{k=0..N-m} w_{m+k} g[k],

    one (N x N Hankel) @ (N x n_mu/2 n_omega) product.  Only the rows m
    where the inflow table has a nonzero entry are formed: the others
    contribute exactly 0 (97 of 330 rows remain for a sec52 pulse).  Every
    measurement goes through this one reduction, so synthetic data and the
    losses that recompute them agree bit for bit.
    """
    inflow = source_table(pair.source, grid)[1:] / material.tau
    nonfinite = ~np.isfinite(inflow).all(axis=(1, 2))
    if nonfinite.any():
        n = int(np.argmax(nonfinite)) + 1
        raise RuntimeError(
            f"forward readout met a nonfinite inflow at step {n} "
            f"(t = {grid.t_nodes[n]:.6g})"
        )
    steps = grid.n_t - 1
    support = np.flatnonzero(inflow.any(axis=(1, 2)))
    weights = np.zeros(2 * steps)
    weights[:steps] = (pair.window(grid.t_nodes) * grid.t_mean)[1:]
    hankel = np.lib.stride_tricks.sliding_window_view(weights, steps)[support]
    lagged = hankel @ response.reshape(steps, -1)
    return float(lagged.ravel() @ inflow[support].ravel())


def forward_map(
    material: MaterialModel,
    grid: PhaseGrid,
    pair: SourceTestPair,
) -> float:
    """The scalar measurement: window-averaged boundary temperature at x = 0."""
    _require_window_fit(pair, grid)
    return _readout(boundary_response(material, grid), pair, material, grid)


def forward_map_batch(
    material: MaterialModel,
    grid: PhaseGrid,
    pairs: Sequence[SourceTestPair],
) -> FloatArray:
    """Measurements for several experiments; each equals :func:`forward_map` bit for bit."""
    for pair in pairs:
        _require_window_fit(pair, grid)
    response = boundary_response(material, grid)
    return np.array([_readout(response, pair, material, grid) for pair in pairs])


def generate_data(
    material: MaterialModel,
    grid: PhaseGrid,
    pairs: Sequence[SourceTestPair],
) -> list[SourceTestPair]:
    """Attach noise-free synthetic measurements computed from this material."""
    data = forward_map_batch(material, grid, pairs)
    return [replace(pair, datum=float(value)) for pair, value in zip(pairs, data)]


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
    mismatch = forward_map(material, grid, pair) - datum
    return 0.5 * mismatch * mismatch, mismatch


def total_loss(
    material: MaterialModel,
    grid: PhaseGrid,
    pairs: Sequence[SourceTestPair],
) -> float:
    """Mean of the per-experiment losses over the whole collection."""
    data = np.array([_require_datum(pair) for pair in pairs])
    mismatches = forward_map_batch(material, grid, pairs) - data
    return float(np.mean(0.5 * mismatches**2))


def omega_inner(a: FloatArray, b: FloatArray, grid: PhaseGrid) -> float:
    """Frequency-grid inner product integral(a * b domega), grid channel weights."""
    return float(grid.omega_weights @ (np.asarray(a) * np.asarray(b)))


def omega_norm(a: FloatArray, grid: PhaseGrid) -> float:
    """Frequency-grid L2 norm sqrt(integral(a^2 domega))."""
    return float(np.sqrt(omega_inner(a, a, grid)))


class _InteriorSums:
    """Per-time-node (x, mu) sums of the interior gradient terms, on sheets.

    The backward adjoint march hands its raw sheet at t_n to :meth:`add`,
    which pairs it with the forward stack's slot n; the adjoint field is
    never stored.  The adjoint sheet reversed along its rows lines up cell
    for cell with the forward sheet, and the weight W[r, c] =
    x_mean[x(r)] mu_mean[|mu_c|] and the per-row (mu, omega) mean of h are
    both palindromic in the row index, so only the product h p needs the
    reversal.  Row n of each table is one time node; the terminal row stays
    zero because p vanishes at the final time.
    """

    def __init__(self, material: MaterialModel, grid: PhaseGrid, h_sheets: FloatArray):
        half = grid.n_mu // 2
        self.h_sheets = h_sheets
        self.density_weights = grid.mu_omega_mean[half:].ravel()
        x_rows = np.concatenate((grid.x_mean, grid.x_mean[::-1]))
        self.weights = np.outer(x_rows, grid.mu_mean[half:])
        self.scaled_h_star = material.h_star / mean_omega(material.h_star, grid)
        self.product = np.empty(h_sheets.shape[1:])
        self.collision = np.zeros((grid.n_t, grid.n_omega))
        self.equilibrium = np.zeros((grid.n_t, grid.n_omega))

    def add(self, n: int, sheet: FloatArray) -> None:
        h = self.h_sheets[n]
        rows, n_omega = h.shape[0], h.shape[-1]
        n_x = rows // 2
        # The (mu, omega) mean of h per x node, as the march's density sums
        # it, spread back over both rows of each node.
        row_sums = h.reshape(rows, -1) @ self.density_weights
        h_mean = row_sums[:n_x] + row_sums[: n_x - 1 : -1]
        weighted = self.weights * np.concatenate((h_mean, h_mean[::-1]))[:, None]
        # relax[h] * p summed with W is (h* / mean_omega h*) times the
        # equilibrium sum, minus the W-sum of h p.
        self.equilibrium[n] = weighted.ravel() @ sheet.reshape(-1, n_omega)
        np.multiply(h[::-1], sheet, out=self.product)
        self.collision[n] = self.scaled_h_star * self.equilibrium[n] - (
            self.weights.ravel() @ self.product.reshape(-1, n_omega)
        )


def _assemble_gradient(
    material: MaterialModel,
    grid: PhaseGrid,
    phi_pos: FloatArray,
    window_values: FloatArray,
    mismatch: float,
    h_left: FloatArray,
    p_left: FloatArray,
    interior: _InteriorSums,
) -> FloatArray:
    """Combine the boundary traces and the interior sums into the nodal gradient.

    Boundary terms (inflow sensitivity): the readout's direct dependence on
    phi/tau, the equilibrium normalization's shift of the temperature trace,
    and the adjoint-weighted inflow flux, from the x = 0 traces ``h_left``
    and ``p_left``.  Interior terms: the collision operator's 1/tau strength
    and the two-sided shift of the equilibrium direction h* = g*/tau.
    """
    half = grid.n_mu // 2
    tau = material.tau
    h_star = material.h_star
    h_star_mean = float(mean_omega(h_star, grid))
    epsilon = grid.epsilon

    w_t = grid.t_mean
    w_mu_pos = grid.mu_weights[half:]
    mu_pos = grid.mu_nodes[half:]

    # Readout sensitivity through the boundary data and the temperature
    # normalization (no adjoint needed for these two).
    inflow_avg = np.einsum("t,tmo,m->o", w_t * window_values, phi_pos, w_mu_pos)
    trace_mean = mean_mu_omega(h_left, grid) @ (w_t * window_values)

    # Adjoint-weighted inflow flux at x = 0 over the rightward directions.
    adjoint_flux = material.velocity * np.einsum(
        "t,tmo,tmo,m->o", w_t, phi_pos, p_left[:, half:, :], w_mu_pos * mu_pos
    )

    collision_term = w_t @ interior.collision
    equilibrium_term = w_t @ interior.equilibrium
    # The (mu, omega) mean of p paired with mean h, summed over (t, x), is the
    # omega mean of the equilibrium term.
    normalization_term = float(mean_omega(equilibrium_term, grid))

    gradient = (
        -(mismatch / (2.0 * tau**2 * h_star_mean)) * inflow_avg
        + (mismatch * trace_mean / (tau * h_star_mean**2)) * h_star
        + adjoint_flux / (2.0 * epsilon * tau * h_star)
        + collision_term / (epsilon**2 * tau * h_star)
        + equilibrium_term / (epsilon**2 * tau * h_star_mean)
        - (normalization_term / (epsilon**2 * tau * h_star_mean**2)) * h_star
    )
    # The gradient is a density against the raw channel weights: pairing it
    # with a perturbation through omega_inner must reproduce the loss
    # derivative, so the global prefactor is one over the discrete band
    # measure (the weight sum), not the geometric span.
    return gradient / grid.omega_weights.sum()


def loss_and_gradient(
    material: MaterialModel,
    grid: PhaseGrid,
    pair: SourceTestPair,
) -> tuple[float, float, FloatArray]:
    """One forward and one adjoint solve: (loss, mismatch, gradient).

    The mismatch is read as every measurement is, from the boundary
    response, before the forward trajectory is allocated.  The forward
    trajectory is stored as the march's stack of sheets; the adjoint is
    reduced against it sheet by sheet as it is marched, so only one
    trajectory is held.  The gradient lives on the frequency nodes; pairing
    it with a nodal tau-perturbation through :func:`omega_inner` gives the
    directional derivative of the loss.
    """
    _require_window_fit(pair, grid)
    datum = _require_datum(pair)

    mismatch = forward_map(material, grid, pair) - datum
    forward = solve_forward(material, grid, pair.source)
    window_values = pair.window(grid.t_nodes)
    interior = _InteriorSums(material, grid, forward.values)
    adjoint = solve_adjoint(
        material, grid, mismatch, window_values,
        store_trajectory=False, on_step=interior.add,
    )
    phi_pos = source_table(pair.source, grid)
    gradient = _assemble_gradient(
        material, grid, phi_pos, window_values, mismatch,
        forward.left_trace, adjoint.left_trace, interior,
    )
    return 0.5 * mismatch * mismatch, mismatch, gradient


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

