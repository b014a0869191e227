"""Time integration of the kinetic transport systems.

Forward problem: in the scaled variables h = g/tau,

    dh/dt + (mu v / epsilon) dh/dx = relax[h] / (epsilon^2 tau),

on x in [0, 1], starting from h = 0, with Dirichlet inflow h = phi/tau at
x = 0 for mu > 0, specular reflection at x = 1, and free outflow at x = 0 for
mu < 0.  The march holds the slab unfolded at its specular face.

Measurements read only the x = 0 temperature.  The march is linear in its
inflow, its coefficients do not change in time and it starts from zero, so
the temperature at step n is a sum over lags k of g[k] . inflow[n - k].
:func:`boundary_response` computes g with one march of the step's exact
transpose (the second kernel, sharing the first one's coefficient tables),
and every readout of every source becomes a small dense sum.

Gradients are reverse mode through that transposed march.  A readout is
sum_k c_k . g[k] with c_k the window-weighted inflow at lag k; its adjoint
is a plain forward march with inflow c, run by :func:`solve_adjoint`,
whose states pair with the cotangent sheets the response march kept in the
:class:`Response` it returned.  The gradient is therefore that of the
discrete measurement, exact to rounding.

Scheme: first-order upwind in x, forward Euler in t, explicit collision.
Per (mu, omega) cell, with the Courant number c = dt |mu| v / (epsilon dx)
and the relaxation number r = dt / (epsilon^2 tau), one step is

    h_new = (1 - r - c) h + c h_upwind + r T[h] h*.

In u = h / h*, T[h] is a convex combination of the u values at the same x
(weights proportional to the quadrature weights times h*), so when
c + r <= 1 every update is a convex combination and max|u| cannot grow: a
discrete maximum principle, which the copy-type boundary rules keep.  The
von Neumann condition on the x-checkerboard mode, c + r/2 <= 1, is only
necessary.  The solver checks the advective bound c <= 1, the relaxation
bound r <= 1/2 and the joint bound c + r <= 1 against the actual material
whenever it builds a step's coefficients, so no march runs unchecked.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from phonon_inverse.collision import mean_omega
from phonon_inverse.grid import FloatArray, PhaseGrid
from phonon_inverse.material import MaterialModel

logger = logging.getLogger(__name__)

SourceFunction = Callable[[FloatArray, FloatArray, FloatArray], FloatArray]


@dataclass(frozen=True)
class BoundarySource:
    """Gaussian injection pulse concentrated at (t0, mu0, omega0).

    ``widths`` are the standard deviations of the three unit-peak factors in
    (t, mu, omega) order.  mu0 must lie in (0, 1): the pulse enters through
    the x = 0 face, so only rightward directions are admissible.
    """

    t0: float
    mu0: float
    omega0: float
    widths: tuple[float, float, float]

    def __post_init__(self) -> None:
        for name in ("t0", "mu0", "omega0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 < self.mu0 < 1.0:
            raise ValueError(f"mu0 must lie in (0, 1), got {self.mu0}")
        if len(self.widths) != 3 or not all(0.0 < w < math.inf for w in self.widths):
            raise ValueError(
                f"widths must be three finite positive values, got {self.widths}"
            )

    def factors(
        self, t: FloatArray, mu: FloatArray, omega: FloatArray
    ) -> tuple[FloatArray, FloatArray, FloatArray]:
        """The pulse's unit-peak factors in t, mu and omega; phi is their product."""
        return (
            gaussian_bump(np.asarray(t) - self.t0, self.widths[0]),
            gaussian_bump(np.asarray(mu) - self.mu0, self.widths[1]),
            gaussian_bump(np.asarray(omega) - self.omega0, self.widths[2]),
        )


def gaussian_bump(z: FloatArray, width: float) -> FloatArray:
    """Unit-peak Gaussian factor exp(-z^2 / (2 width^2))."""
    return np.exp(-0.5 * (np.asarray(z, dtype=float) / width) ** 2)


def gaussian_source(params: BoundarySource) -> SourceFunction:
    """Separable boundary pulse phi(t, mu, omega); broadcasts over arrays."""

    def phi(t: FloatArray, mu: FloatArray, omega: FloatArray) -> FloatArray:
        in_t, in_mu, in_omega = params.factors(t, mu, omega)
        return in_t * in_mu * in_omega

    return phi


# The march takes its inflow this many steps at a time (see _integrate).
_INFLOW_BLOCK_STEPS = 64


@dataclass(frozen=True)
class Trajectory:
    """What a forward solve kept: the x = 0 trace, moments, snapshots.

    Each field is None unless the solve asked for it, and only the fields
    asked for grow with the number of time steps; the march itself works in
    a fixed number of sheets and one block of inflow rows.

    ``left_trace`` is the x = 0 slice in (t, mu, omega) layout, shape
    (n_t, n_mu, n_omega).  The first time slice is the initial condition
    exactly (no boundary overwrite is applied at the starting instant).

    ``moments`` holds streamed (mu, omega)-weighted reductions of the field,
    shape (n_t, n_x, K) for K requested weight tables — the memory-friendly
    way to extract macroscopic traces from long runs.  ``snapshots`` stacks
    full phase-space states at the requested times (nearest time nodes,
    recorded in ``snapshot_times``).
    """

    left_trace: FloatArray | None
    moments: FloatArray | None = None
    snapshots: FloatArray | None = None
    snapshot_times: tuple[float, ...] | None = None


def _validate_stability(
    material: MaterialModel, grid: PhaseGrid, courant: FloatArray, relaxation: FloatArray
) -> None:
    epsilon = grid.epsilon
    max_speed = material.max_characteristic_speed(grid.mu_nodes)
    advective_limit = epsilon * grid.dx / max_speed
    if grid.dt > advective_limit * (1.0 + 1e-12):
        raise ValueError(
            f"CFL violation: dt = {grid.dt} exceeds epsilon * dx / max|mu v| = "
            f"{advective_limit:.6g} (max characteristic speed {max_speed:.6g})"
        )
    relaxation_limit = 0.5 * epsilon**2 * float(material.tau.min())
    if grid.dt > relaxation_limit * (1.0 + 1e-12):
        raise ValueError(
            f"relaxation-stability violation: dt = {grid.dt} exceeds "
            f"0.5 * epsilon^2 * min(tau) = {relaxation_limit:.6g}"
        )
    # The joint bound c + r <= 1 per (mu, omega) cell; both numbers scale
    # with dt, so dt / max(c + r) is the largest step that meets it.
    joint = courant + relaxation
    worst = np.unravel_index(np.argmax(joint), joint.shape)
    if joint[worst] > 1.0 + 1e-12:
        raise ValueError(
            f"joint stability violation: c + r = {joint[worst]:.6g} exceeds 1 at "
            f"|mu| = {grid.mu_nodes[grid.n_mu // 2 + worst[0]]:.6g}, "
            f"omega = {material.omega_nodes[worst[1]]:.6g} "
            f"(Courant number c = {courant[worst]:.6g}, relaxation number "
            f"r = {relaxation[worst[1]]:.6g}); the largest admissible dt is "
            f"{grid.dt / joint[worst]:.6g}"
        )


def source_values(
    source: BoundarySource | SourceFunction, grid: PhaseGrid, nodes: slice = slice(None)
) -> FloatArray:
    """phi on the inflow nodes (t_nodes[nodes], mu > 0, omega), shape (len, n_mu/2, n_omega).

    The march reads it one block of time nodes at a time.  The result is a
    read-only view that may share memory with the array a callable source
    returned.
    """
    phi = gaussian_source(source) if isinstance(source, BoundarySource) else source
    t = grid.t_nodes[nodes]
    mu_pos = grid.mu_nodes[grid.n_mu // 2 :]
    values = phi(t[:, None, None], mu_pos[None, :, None], grid.omega_nodes[None, None, :])
    return np.broadcast_to(
        np.asarray(values, dtype=float), (t.size, mu_pos.size, grid.n_omega)
    )


def _inflow_from_source(
    source: BoundarySource | SourceFunction, material: MaterialModel, grid: PhaseGrid
) -> Callable[[int, int, FloatArray], None]:
    """The march's inflow rows h = phi/tau, evaluated one block of steps at a time."""

    def fill_inflow(start: int, stop: int, out: FloatArray) -> None:
        np.divide(source_values(source, grid, slice(start, stop)), material.tau, out=out)

    return fill_inflow


@dataclass(frozen=True)
class _StepTables:
    """Coefficients of one step on the unfolded sheet, shared by both marches.

    ``courant_cells`` (n_mu/2, n_omega) holds the mu > 0 cells' Courant
    numbers, which the mu < 0 half mirrors exactly (the nodes are
    symmetrized), and ``relaxation`` (n_omega) the relaxation numbers.  The
    density multiplies ``h_star`` (n_omega) and divides by ``h_star_mean``;
    the (mu, omega) weights are symmetric in mu, so ``density_weights``, the
    mu > 0 half's table in the sheet's column order, weights both halves.
    A gradient reads only these fields.  The steps' tables are built on
    first use, and :func:`_step` and its transpose read the same ones;
    ``keep`` and ``courant`` cover the sheet, so each update is one pass.
    """

    rows: int
    courant_cells: FloatArray
    relaxation: FloatArray
    h_star: FloatArray
    h_star_mean: float
    density_weights: FloatArray

    def _spread(self, table: FloatArray, rows: int) -> FloatArray:
        spread = _aligned_empty((rows, *self.courant_cells.shape))
        spread[...] = table
        return spread

    @functools.cached_property
    def courant(self) -> FloatArray:
        """|c| on sheet rows 1 .. rows - 1, the rows that take an upwind difference."""
        return self._spread(self.courant_cells, self.rows - 1)

    @functools.cached_property
    def keep(self) -> FloatArray:
        """1 - r - c over the whole sheet."""
        return self._spread(1.0 - self.relaxation - self.courant_cells, self.rows)

    @functools.cached_property
    def relax_h_star(self) -> FloatArray:
        """r h* per cell in row 0, in the sheet's column order: :func:`_outer_into`'s operand."""
        relax_h_star = np.broadcast_to(self.relaxation * self.h_star, self.courant_cells.shape)
        return _outer_rows(relax_h_star)

    # The transposed step's own tables.
    @functools.cached_property
    def readout(self) -> FloatArray:
        """w / mean_omega h*, the temperature's weight per cell, in ``relax_h_star``'s form."""
        return _outer_rows(self.density_weights / self.h_star_mean)

    @functools.cached_property
    def folded(self) -> FloatArray:
        """(rows, 2), zero but for the folded sums the transposed step writes in column 0."""
        return np.zeros((self.rows, 2))


def _step_tables(material: MaterialModel, grid: PhaseGrid) -> _StepTables:
    """The step's coefficients for this material and grid, checked for stability."""
    half, epsilon = grid.n_mu // 2, grid.epsilon
    courant = (grid.dt / (epsilon * grid.dx)) * grid.mu_nodes[half:, None] * material.velocity
    relaxation = grid.dt / (epsilon**2 * material.tau)
    _validate_stability(material, grid, courant, relaxation)
    return _StepTables(
        rows=2 * grid.n_x,
        courant_cells=courant,
        relaxation=relaxation,
        h_star=material.h_star,
        h_star_mean=mean_omega(material.h_star, grid),
        density_weights=grid.mu_omega_mean[half:].ravel(),
    )


def _outer_rows(table: FloatArray) -> FloatArray:
    """(2, table.size): ``table`` flattened into row 0, zeros in row 1."""
    rows = np.zeros((2, table.size))
    rows[0] = table.ravel()
    return rows


def _outer_into(column: FloatArray, rows: FloatArray, out: FloatArray) -> None:
    """Write column[:, 0] (outer) rows[0] into the contiguous sheet ``out``.

    Both steps' collision terms are such an outer product: a per-row factor
    times a (mu, omega) table.  ``column`` (n, 2) and ``rows`` (2, cells)
    are zero in their second column and row, so each entry of the K = 2
    matrix product is the one rounded product plus +0.0: bit for bit the
    outer product, but for a -0.0 that becomes +0.0.  numpy hands it to BLAS
    GEMM.  On a sec52 sheet (102 x 320) it took 7.5-8.5 us, against
    19-27 us for ``np.einsum``, 24 us for ``np.dot`` with K = 1 (which
    allocates its result), 27-35 us for a broadcast multiply and 75-96 us
    for ``np.matmul`` with K = 1 into ``out``.
    """
    np.matmul(column, rows, out=out.reshape(column.shape[0], -1))


def _aligned_empty(shape: tuple[int, ...]) -> FloatArray:
    """An uninitialized float array of ``shape`` whose data starts on a cache line.

    The marches store into these.  numpy's elementwise loops store whole SIMD
    vectors, and into an array that starts mid cache line every store splits
    a line; on a 2-core Xeon with AVX-512 that made the transposed step's
    multiplications 2-2.5x slower.  malloc aligns to 16 bytes only, so
    without this the marches' speed would depend on unrelated allocations.
    """
    size = math.prod(shape)
    raw = np.empty(size + 7)
    start = (-raw.ctypes.data % 64) // raw.itemsize
    return raw[start : start + size].reshape(shape)


def _fold(sheet: FloatArray, out: FloatArray) -> None:
    """Write an unfolded (2 n_x, n_mu/2, n_omega) sheet into (x, mu, omega) layout."""
    n_x, half = out.shape[0], out.shape[1] // 2
    out[:, half:] = sheet[:n_x]
    out[:, :half] = sheet[: n_x - 1 : -1, ::-1]


def _step(
    state: FloatArray, density_column: FloatArray, inflow_row: FloatArray,
    new: FloatArray, tables: _StepTables, scratch: FloatArray,
) -> None:
    """Write into ``new`` the step from ``state``: r h* T[h] + (1 - r - c) h + c h_upwind.

    Column 0 of ``density_column`` holds T[h]; ``scratch`` is overwritten.
    """
    n_x = new.shape[0] // 2
    _outer_into(density_column, tables.relax_h_star, new)
    np.multiply(tables.keep, state, out=scratch)
    new += scratch
    np.multiply(tables.courant, state[:-1], out=scratch[:-1])
    new[1:] += scratch[:-1]
    # Boundary rules, in dependency order: inflow, reflection, outflow.
    new[0] = inflow_row
    new[n_x] = new[n_x - 1]
    new[-1] = new[-2]


def _integrate(
    material: MaterialModel,
    grid: PhaseGrid,
    fill_inflow: Callable[[int, int, FloatArray], None],
    label: str,
    keep_left_trace: bool = False,
    moment_weights: FloatArray | None = None,
    snapshot_steps: Sequence[int] = (),
    on_step: Callable[[int, FloatArray, FloatArray], None] | None = None,
) -> tuple[FloatArray | None, FloatArray | None, FloatArray | None, FloatArray]:
    """March the forward-form system for one source from a zero state.

    The state is the slab unfolded at its specular face: one contiguous
    sheet of shape (2 n_x, n_mu/2, n_omega) whose rows 0 .. n_x-1 hold the
    mu > 0 half at x_0 .. x_{n_x-1}, and whose rows n_x .. 2 n_x-1 hold the
    mu < 0 half with both x and mu reversed, so that column j of either half
    carries the same |mu_j|.  Along the sheet every direction is upwinded from
    the previous row; inflow writes row 0, specular reflection copies row
    n_x-1 into row n_x, and outflow copies row 2 n_x-2 into row 2 n_x-1.

    ``fill_inflow(start, stop, out)`` writes into ``out``, shape
    (stop - start, n_mu/2, n_omega), the x = 0 boundary values for the
    mu > 0 rows at steps start .. stop - 1; row n is written after the step
    that lands on t_nodes[n].  It is asked for blocks of
    :data:`_INFLOW_BLOCK_STEPS` steps from step 1 on, all into one buffer,
    so no (n_t, n_mu/2, n_omega) table is ever held.  ``keep_left_trace``
    keeps the x = 0 slice of every state; ``moment_weights`` (K, n_mu,
    n_omega) requests streamed per-step reductions; ``snapshot_steps``
    requests full state copies at those step indices (a step may be asked
    for more than once); ``on_step(n, sheet, density)``, if given, sees
    each new unfolded sheet, which the march overwrites two steps later (the
    last one, never), and its T[h] on every row, overwritten at the next
    step.  Returns (left trace, moments, snapshots, last sheet), the first
    three None unless asked for; the left trace is in (t, mu, omega) layout
    and the snapshots in (x, mu, omega) layout.
    """
    tables = _step_tables(material, grid)
    n_t, n_x, n_mu, n_omega = grid.n_t, grid.n_x, grid.n_mu, grid.n_omega
    half = n_mu // 2
    rows = 2 * n_x
    sheet_shape = (rows, half, n_omega)

    sheets = [_aligned_empty(sheet_shape), _aligned_empty(sheet_shape)]
    sheets[0].fill(0.0)
    scratch = _aligned_empty(sheet_shape)
    row_sums = np.empty(rows)
    # The density lives in column 0 of _outer_into's left operand.
    density_column = np.zeros((rows, 2))
    density = density_column[:, 0]
    left = np.zeros((n_t, n_mu, n_omega)) if keep_left_trace else None
    inflow = np.empty((min(_INFLOW_BLOCK_STEPS, n_t - 1), half, n_omega))

    moments = None
    if moment_weights is not None:
        n_moments = moment_weights.shape[0]
        moments = np.zeros((n_t, n_x, n_moments))
        rightward_weights = moment_weights[:, half:].reshape(n_moments, -1).T.copy()
        leftward_weights = moment_weights[:, half - 1 :: -1].reshape(n_moments, -1).T.copy()
    snapshot_slots: dict[int, list[int]] = {}
    for j, step in enumerate(snapshot_steps):
        snapshot_slots.setdefault(int(step), []).append(j)
    snapshots = (
        np.zeros((len(snapshot_steps), n_x, n_mu, n_omega)) if snapshot_steps else None
    )

    state = sheets[0]
    block_start = block_stop = 1
    for n in range(1, n_t):
        if n == block_stop:
            block_start, block_stop = n, min(n + _INFLOW_BLOCK_STEPS, n_t)
            fill_inflow(block_start, block_stop, inflow[: block_stop - block_start])
        new = sheets[n % 2]
        _step(state, density_column, inflow[n - block_start], new, tables, scratch)
        # Each half's density is one matrix-vector product; folding the
        # reversed second half onto the first sums them per x node.  The
        # weights are positive, so the density is nonfinite whenever any
        # cell is.
        np.matmul(new.reshape(rows, -1), tables.density_weights, out=row_sums)
        np.add(row_sums[:n_x], row_sums[: n_x - 1 : -1], out=density[:n_x])
        density[:n_x] /= tables.h_star_mean
        if not np.isfinite(density[:n_x]).all():
            raise RuntimeError(
                f"{label} solve produced a nonfinite value at step {n} "
                f"(t = {grid.t_nodes[n]:.6g})"
            )
        density[n_x:] = density[n_x - 1 :: -1]
        if left is not None:
            left[n, half:] = new[0]
            left[n, :half] = new[-1, ::-1]
        if moments is not None:
            moments[n] = new[:n_x].reshape(n_x, -1) @ rightward_weights
            moments[n] += (new[n_x:].reshape(n_x, -1) @ leftward_weights)[::-1]
        for j in snapshot_slots.get(n, ()):
            _fold(new, snapshots[j])
        if on_step is not None:
            on_step(n, new, density)
        state = new

    kept = [0 if a is None else a.nbytes for a in (left, moments, snapshots)]
    logger.debug(
        "%s solve: %d steps, epsilon=%g; kept bytes: left trace %d, moments %d, "
        "snapshots %d",
        label, n_t - 1, grid.epsilon, *kept,
    )
    return left, moments, snapshots, state


def _transposed_step(
    q: FloatArray, out: FloatArray, tables: _StepTables, scratch: FloatArray
) -> None:
    """Write into ``out`` the exact transpose of :func:`_step`, applied to q.

    The step is taken with zero inflow, so it is linear; ``q`` is a cotangent
    on the unfolded sheet, and it and ``scratch`` (same shape) are
    overwritten.  The forward step's boundary rules are transposed first, in
    reverse order: the outflow copy and the reflection copy add the copied
    row's cotangent into its source row, and the overwritten rows are
    zeroed.  The interior transpose is w / mean_omega h* times sum(r h* q)
    folded over the two rows that share an x node (the density), plus
    (1 - r - c) q, plus c q from the next row (the upwind difference).
    """
    rows = q.shape[0]
    n_x = rows // 2
    q[-2] += q[-1]
    q[-1] = 0.0
    q[n_x - 1] += q[n_x]
    q[n_x] = 0.0
    q[0] = 0.0
    row_sums = q.reshape(rows, -1) @ tables.relax_h_star[0]
    folded = tables.folded
    np.add(row_sums[:n_x], row_sums[: n_x - 1 : -1], out=folded[:n_x, 0])
    folded[n_x:, 0] = folded[n_x - 1 :: -1, 0]
    _outer_into(folded, tables.readout, out)
    np.multiply(tables.keep, q, out=scratch)
    out += scratch
    np.multiply(tables.courant, q[1:], out=scratch[:-1])
    out[:-1] += scratch[:-1]


def _snapshot_steps(grid: PhaseGrid, snapshot_times: Sequence[float]) -> list[int]:
    steps = []
    for t in snapshot_times:
        n = int(round((t - grid.t_nodes[0]) / grid.dt))
        if not 0 <= n < grid.n_t or abs(grid.t_nodes[n] - t) > 0.5 * grid.dt * (1 + 1e-9):
            raise ValueError(
                f"snapshot time {t} lies outside the time grid "
                f"[{grid.t_nodes[0]}, {grid.t_nodes[-1]}]"
            )
        steps.append(n)
    return steps


def solve_forward(
    material: MaterialModel,
    grid: PhaseGrid,
    source: BoundarySource | SourceFunction,
    moment_weights: FloatArray | None = None,
    snapshot_times: Sequence[float] = (),
    keep_left_trace: bool = True,
) -> Trajectory:
    """Integrate the forward system for one boundary pulse.

    ``source`` is either a :class:`BoundarySource` or any callable
    phi(t, mu, omega) that is elementwise in t: it is called on blocks of
    consecutive time nodes, never on the whole grid at once, and its value
    at a node must not depend on which other nodes share the call.  The
    inflow rows are set to phi/tau.

    The march keeps only what is asked for (see :class:`Trajectory`): the
    x = 0 trace with ``keep_left_trace``, streamed ``moment_weights``
    reductions and full-state ``snapshot_times`` copies.  Its memory is
    those outputs plus a few sheets and one block of inflow rows, whatever
    the number of steps.
    """
    steps = _snapshot_steps(grid, snapshot_times)
    left, moments, snapshots, _ = _integrate(
        material, grid, _inflow_from_source(source, material, grid), label="forward",
        keep_left_trace=keep_left_trace, moment_weights=moment_weights,
        snapshot_steps=steps,
    )
    return Trajectory(
        left_trace=left,
        moments=moments,
        snapshots=snapshots,
        snapshot_times=tuple(float(grid.t_nodes[n]) for n in steps) or None,
    )


def solve_forward_batch(
    material: MaterialModel,
    grid: PhaseGrid,
    sources: Sequence[BoundarySource | SourceFunction],
) -> FloatArray:
    """Left boundary traces for several pulses, one march per pulse.

    Returns shape (len(sources), n_t, n_mu, n_omega); row i is bitwise equal
    to ``solve_forward(...).left_trace`` for ``sources[i]``.
    """
    return np.stack([
        _integrate(
            material, grid, _inflow_from_source(source, material, grid),
            label="forward-batch", keep_left_trace=True,
        )[0]
        for source in sources
    ])


@dataclass(frozen=True)
class Response:
    """A :func:`boundary_response`: ``g`` and, if kept, the march's cotangent stack."""

    g: FloatArray
    stack: FloatArray | None


# (grid, material key, response) of the last march; only boundary_response uses it.
_last_response: tuple[PhaseGrid, tuple[bytes, ...], Response] | None = None


def boundary_response(
    material: MaterialModel, grid: PhaseGrid, keep_stack: bool = False
) -> Response:
    """Sensitivity of the x = 0 temperature to the inflow at every time lag.

    The read-only ``g`` has shape (n_t - 1, n_mu/2, n_omega): the temperature
    at step n is sum_k g[k] . inflow[n - k] over the inflow rows written at
    steps 1 .. n, exactly as :func:`solve_forward` marches it.  The march is
    linear in its inflow, its coefficients do not change in time and it
    starts from zero, so ``g[k]`` is row 0 of the cotangent
    q_k = (A^T)^k q_0, where A is one step with zero inflow and q_0 holds
    the readout weights on the two x = 0 rows; one march serves every
    source and window.  With ``keep_stack`` the march steps through the
    slots of an (n_t - 1, 2 n_x, n_mu/2, n_omega) stack, which the response
    keeps for the gradient: slot k ends up holding B^T q_k, the
    cotangent with the step's boundary rules transposed, which is what the
    transposed step leaves in its input (the last slot holds q_k itself).

    The last result is kept: a call with the same grid object and a
    material with equal tau, velocity, g* and frequency nodes returns the
    same :class:`Response`, without a second stability check.  An entry
    without a stack is marched again when one is asked for; one with a
    stack serves every call.  A new march drops the kept response, and a
    stacked one reuses the dropped stack's buffer when the shape matches.
    So a response's stack is valid until the next stacked march at another
    material or grid.
    """
    global _last_response
    key = tuple(
        a.tobytes()
        for a in (material.tau, material.velocity, material.g_star, material.omega_nodes)
    )
    kept = None
    if _last_response is not None:
        kept_grid, kept_key, kept = _last_response
        if kept_grid is grid and kept_key == key and (kept.stack is not None or not keep_stack):
            return kept

    tables = _step_tables(material, grid)
    readout = tables.readout[0].reshape(tables.courant_cells.shape)
    steps, sheet_shape = grid.n_t - 1, (tables.rows, *readout.shape)
    g = np.empty((steps, *readout.shape))
    scratch = _aligned_empty(sheet_shape)
    # The kept entry goes; a stacked march writes into its stack's buffer.
    stack = kept.stack if keep_stack and kept is not None else None
    _last_response = kept = None
    if keep_stack:
        if stack is None or stack.shape != (steps, *sheet_shape):
            stack = np.empty((steps, *sheet_shape))
        stack[0] = 0.0
        sheets = stack
    else:
        sheets = [_aligned_empty(sheet_shape), _aligned_empty(sheet_shape)]
        sheets[0].fill(0.0)
    cotangent = sheets[0]
    cotangent[0] = readout
    cotangent[-1] = readout
    g[0] = readout
    for k in range(1, steps):
        new = sheets[k] if keep_stack else sheets[k % 2]
        _transposed_step(cotangent, new, tables, scratch)
        g[k] = new[0]
        cotangent = new
    g.setflags(write=False)
    response = Response(g, stack)
    _last_response = (grid, key, response)
    logger.debug(
        "boundary response: %d transposed steps, stack %s",
        steps - 1, "kept" if keep_stack else "not kept",
    )
    return response


def solve_adjoint(
    material: MaterialModel,
    grid: PhaseGrid,
    mismatch_value: float,
    lagged_inflow: FloatArray,
    on_step: Callable[[int, FloatArray, FloatArray], None] | None = None,
) -> FloatArray:
    """Reverse mode through the response march, seeded with the mismatch.

    A readout is y = sum_k c_k . g[k] over the lags k = 0 .. N - 1, with
    N = n_t - 1 and c_k, ``lagged_inflow`` of shape (N, n_mu/2, n_omega),
    the window-weighted inflow at lag k (see :func:`boundary_response`).
    Writing E for the step's inflow write, y = <q_0, lambda_0> with

        lambda_k = A lambda_{k+1} + E c_k,   lambda_N = 0,

    a plain forward march from zero whose inflow at step n is c_{N - n}.
    This march carries ``mismatch_value`` times that inflow, so its states
    are the loss's cotangents.  ``on_step(k, lam, density)`` sees
    lambda_{k + 1} and its T[lambda], for k from N - 2 down to 0 (lambda_N
    is zero); the derivative of A lambda_{k+1} pairs them with slot k of a
    response's stack.  Both are valid during the call only.  Returns lambda_0.
    """
    half, n_omega = grid.n_mu // 2, grid.n_omega
    steps = grid.n_t - 1
    if lagged_inflow.shape != (steps, half, n_omega):
        raise ValueError(
            f"lagged inflow must have one (mu, omega) slice per time lag, shape "
            f"{(steps, half, n_omega)}, got {lagged_inflow.shape}"
        )
    reversed_lags = lagged_inflow[::-1]

    def fill_inflow(start: int, stop: int, out: FloatArray) -> None:
        np.multiply(mismatch_value, reversed_lags[start - 1 : stop - 1], out=out)

    def by_lag(n: int, sheet: FloatArray, density: FloatArray) -> None:
        if n < steps and on_step is not None:
            on_step(steps - 1 - n, sheet, density)

    return _integrate(material, grid, fill_inflow, label="adjoint", on_step=by_lag)[3]
