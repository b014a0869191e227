"""Phase-space discretization and the normalized bracket weights.

The computational phase space is (t, x, mu, omega): time, position in [0, 1],
direction cosine in (-1, 1), and phonon frequency on a truncated band
[omega_min, omega_max].  All averaging conventions used by the solvers and
diagnostics live here: Gauss-Legendre quadrature in mu, trapezoid rule in
t and x, uniform per-channel weights in omega.  :class:`PhaseGrid` carries
each axis's weights normalized by their sum (``t_mean``, ``x_mean``,
``mu_mean``, ``omega_mean``, and the (mu, omega) table ``mu_omega_mean``),
so that a mean is one product with them and the mean of a constant is that
constant.

The omega axis is a set of discrete frequency channels rather than samples
of a smooth integrand, so each node carries one full cell weight domega.
Trapezoid weights in omega would halve the band-edge channels in every
frequency average — including the temperature normalization — which makes
the edge relaxation times disproportionately cheap levers for the inverse
problem and measurably biases gradient-descent reconstructions at the band
edge.  Equal weights keep all channels on the same footing.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)

FloatArray = np.ndarray

# Tolerance for "does the step divide the span" when counting nodes; guards
# against float dust such as 3.6 / 0.4 = 8.999999999999998.
_COUNT_EPS = 1e-9


def _node_count(start: float, end: float, step: float) -> int:
    return int(np.floor((end - start) / step + _COUNT_EPS)) + 1


def _trapezoid_weights(nodes: FloatArray) -> FloatArray:
    """Trapezoid quadrature weights for a uniform 1-D grid of at least two nodes."""
    step = float(nodes[1] - nodes[0])
    weights = np.full(nodes.size, step)
    weights[0] = 0.5 * step
    weights[-1] = 0.5 * step
    return weights


@functools.lru_cache(maxsize=16)
def _gauss_legendre(n_mu: int) -> tuple[FloatArray, FloatArray]:
    """Symmetrized Gauss-Legendre nodes and weights on (-1, 1), read-only.

    Cached per node count: computing the rule costs milliseconds, which
    dominates building a grid.  Callers copy before handing them out.
    """
    mu_nodes, mu_weights = np.polynomial.legendre.leggauss(n_mu)
    # Symmetrize so that the reflection pairing mu[i] == -mu[-1 - i] is exact
    # in floating point, not merely up to the quadrature solver's rounding.
    mu_nodes = 0.5 * (mu_nodes - mu_nodes[::-1])
    mu_weights = 0.5 * (mu_weights + mu_weights[::-1])
    mu_nodes.setflags(write=False)
    mu_weights.setflags(write=False)
    return mu_nodes, mu_weights


def _channel_weights(nodes: FloatArray) -> FloatArray:
    """Equal per-node cell weights for a discrete-channel axis (omega).

    Every node carries one full cell of measure; see the module docstring for
    why the band edges must not be half-weighted.
    """
    n = nodes.size
    if n == 1:
        return np.ones(1)
    step = float(nodes[1] - nodes[0])
    return np.full(n, step)


@dataclass(frozen=True)
class GridConfig:
    """Parameters from which :func:`build_grid` constructs a :class:`PhaseGrid`.

    Stability bounds depend on the material as well as the grid, so they are
    checked by the transport solvers, not here.
    """

    dt: float
    dx: float
    domega: float
    n_mu: int
    t_end: float
    omega_min: float
    omega_max: float
    t_start: float = 0.0
    x_start: float = 0.0
    x_end: float = 1.0
    epsilon: float = 1.0


@dataclass(frozen=True)
class PhaseGrid:
    """Immutable discretization of (t, x, mu, omega) with quadrature weights.

    ``mu_weights`` sum to 2 (the full measure of (-1, 1)); ``t_weights`` and
    ``x_weights`` are raw trapezoid weights summing to the spans of their
    axes; ``omega_weights`` are equal per-channel weights of one cell domega
    each (summing to n_omega * domega).  They stay raw for unnormalized
    integrals (the Frechet pairing in omega needs them so).

    ``t_mean``, ``x_mean``, ``mu_mean`` and ``omega_mean`` are those weights
    divided by their sums, and ``mu_omega_mean`` is the outer product of the
    mu and omega means; every normalized mean in the package reads them.
    All arrays are read-only.
    """

    t_nodes: FloatArray
    x_nodes: FloatArray
    mu_nodes: FloatArray
    mu_weights: FloatArray
    omega_nodes: FloatArray
    t_weights: FloatArray
    x_weights: FloatArray
    omega_weights: FloatArray
    epsilon: float
    t_mean: FloatArray = field(init=False)
    x_mean: FloatArray = field(init=False)
    mu_mean: FloatArray = field(init=False)
    omega_mean: FloatArray = field(init=False)
    mu_omega_mean: FloatArray = field(init=False)

    def __post_init__(self) -> None:
        for axis in ("t", "x", "mu", "omega"):
            weights = getattr(self, f"{axis}_weights")
            object.__setattr__(self, f"{axis}_mean", weights / weights.sum())
        object.__setattr__(self, "mu_omega_mean", np.outer(self.mu_mean, self.omega_mean))
        for name in ("t_nodes", "x_nodes", "mu_nodes", "mu_weights", "omega_nodes",
                     "t_weights", "x_weights", "omega_weights", "t_mean", "x_mean",
                     "mu_mean", "omega_mean", "mu_omega_mean"):
            getattr(self, name).setflags(write=False)

    # -- sizes and spacings ------------------------------------------------
    @property
    def n_t(self) -> int:
        return self.t_nodes.size

    @property
    def n_x(self) -> int:
        return self.x_nodes.size

    @property
    def n_mu(self) -> int:
        return self.mu_nodes.size

    @property
    def n_omega(self) -> int:
        return self.omega_nodes.size

    @property
    def dt(self) -> float:
        return float(self.t_nodes[1] - self.t_nodes[0])

    @property
    def dx(self) -> float:
        return float(self.x_nodes[1] - self.x_nodes[0])

    @property
    def domega(self) -> float:
        if self.n_omega == 1:
            return 0.0
        return float(self.omega_nodes[1] - self.omega_nodes[0])


def build_grid(config: GridConfig) -> PhaseGrid:
    """Construct the phase-space grid, validating its parameters.

    Raises ``ValueError`` for a nonfinite parameter, nonpositive spacings, an
    odd number of mu nodes (a mu = 0 node would break both upwinding and the
    specular-reflection pairing), omega_min <= 0, an empty horizon or domain,
    a dt or dx that would leave its axis a single node, and epsilon <= 0.
    """
    for name, value in vars(config).items():
        if name != "n_mu" and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    for label, value in (("dt", config.dt), ("dx", config.dx), ("domega", config.domega)):
        if not value > 0.0:
            raise ValueError(f"{label} must be positive, got {value}")
    if config.omega_min <= 0.0:
        raise ValueError(f"omega_min must be positive, got {config.omega_min}")
    if config.omega_max <= config.omega_min:
        raise ValueError(
            f"omega_max must exceed omega_min, got [{config.omega_min}, {config.omega_max}]"
        )
    if config.t_end <= config.t_start:
        raise ValueError(f"empty time horizon [{config.t_start}, {config.t_end}]")
    if config.x_end <= config.x_start:
        raise ValueError(f"empty spatial domain [{config.x_start}, {config.x_end}]")
    if config.n_mu < 2 or config.n_mu % 2 != 0:
        raise ValueError(
            f"n_mu must be even and >= 2, got {config.n_mu}; an odd count places a node "
            "at mu = 0, which has no upwind direction and no reflection partner"
        )
    if not config.epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {config.epsilon}")

    t_nodes = config.t_start + config.dt * np.arange(
        _node_count(config.t_start, config.t_end, config.dt), dtype=float
    )
    x_nodes = config.x_start + config.dx * np.arange(
        _node_count(config.x_start, config.x_end, config.dx), dtype=float
    )
    for label, nodes in (("dt", t_nodes), ("dx", x_nodes)):
        if nodes.size < 2:
            raise ValueError(f"{label} = {getattr(config, label)} is wider than its span")
    omega_nodes = config.omega_min + config.domega * np.arange(
        _node_count(config.omega_min, config.omega_max, config.domega), dtype=float
    )

    mu_nodes, mu_weights = (a.copy() for a in _gauss_legendre(config.n_mu))

    grid = PhaseGrid(
        t_nodes=t_nodes,
        x_nodes=x_nodes,
        mu_nodes=mu_nodes,
        mu_weights=mu_weights,
        omega_nodes=omega_nodes,
        t_weights=_trapezoid_weights(t_nodes),
        x_weights=_trapezoid_weights(x_nodes),
        omega_weights=_channel_weights(omega_nodes),
        epsilon=float(config.epsilon),
    )
    logger.debug(
        "built grid: %d t-nodes, %d x-nodes, %d mu-nodes, %d omega-nodes, epsilon=%g",
        grid.n_t, grid.n_x, grid.n_mu, grid.n_omega, grid.epsilon,
    )
    return grid
