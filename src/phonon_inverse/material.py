"""Material coefficients sampled on the frequency grid.

Holds the relaxation time tau(omega), the group speed v(omega), the linearized
equilibrium weight g*(omega), and the derived h*(omega) = g*(omega)/tau(omega).
Profiles are small closed-form families selected by kind.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from phonon_inverse.grid import FloatArray

logger = logging.getLogger(__name__)

# Default clamp bounds for tau during optimization; the convergence theory
# for the stochastic solvers assumes tau bounded away from 0 and infinity.
DEFAULT_TAU_BOUNDS = (0.1, 10.0)

# v(omega) = 2.5 - 0.2 * omega, positive for omega < 12.5.
DEFAULT_VELOCITY_COEFFS = (2.5, -0.2)


@dataclass(frozen=True)
class TauProfile:
    """A closed-form relaxation-time profile.

    kinds:
      - "ground_truth": 1/sqrt(5 omega) + 1
      - "initial_guess": -0.15 (omega - 4) + 1.4
      - "constant": params (value,)
    """

    kind: str
    params: tuple[float, ...] = ()


def ground_truth_tau() -> TauProfile:
    return TauProfile(kind="ground_truth")


def initial_guess_tau() -> TauProfile:
    return TauProfile(kind="initial_guess")


def constant_tau(value: float) -> TauProfile:
    return TauProfile(kind="constant", params=(float(value),))


def eval_tau(profile: TauProfile, omega_nodes: FloatArray) -> FloatArray:
    """Evaluate a relaxation-time profile on the given frequency nodes.

    Rejects any nonpositive value, reporting the offending node.
    """
    omega = np.asarray(omega_nodes, dtype=float)
    if profile.kind == "ground_truth":
        values = 1.0 / np.sqrt(5.0 * omega) + 1.0
    elif profile.kind == "initial_guess":
        values = -0.15 * (omega - 4.0) + 1.4
    elif profile.kind == "constant":
        values = np.full_like(omega, profile.params[0])
    else:
        raise ValueError(f"unknown tau profile kind {profile.kind!r}")
    bad = np.flatnonzero(values <= 0.0)
    if bad.size:
        raise ValueError(
            f"tau profile {profile.kind!r} is nonpositive at omega = {omega[bad[0]]}: "
            f"{values[bad[0]]}"
        )
    return values


def eval_velocity(
    omega_nodes: FloatArray, coeffs: tuple[float, float] = DEFAULT_VELOCITY_COEFFS
) -> FloatArray:
    """Group speed a + b * omega on the nodes; rejects nonpositive speeds."""
    omega = np.asarray(omega_nodes, dtype=float)
    a, b = coeffs
    values = a + b * omega
    bad = np.flatnonzero(values <= 0.0)
    if bad.size:
        raise ValueError(
            f"group speed {a} + ({b}) * omega is nonpositive at omega = {omega[bad[0]]}"
        )
    return values


@dataclass(frozen=True)
class GStarProfile:
    """Equilibrium-weight profile g*(omega).

    kinds:
      - "bose_einstein": omega^2 e^omega / (e^omega - 1)^2, normalized so the
        maximum over the evaluation nodes is 1 (the derivative of the
        Bose-Einstein occupation against temperature, times a quadratic
        density of states, in dimensionless form)
      - "constant": params (value,)
    """

    kind: str = "bose_einstein"
    params: tuple[float, ...] = ()


def default_g_star() -> GStarProfile:
    return GStarProfile(kind="bose_einstein")


def constant_g_star(value: float) -> GStarProfile:
    return GStarProfile(kind="constant", params=(float(value),))


def eval_g_star(profile: GStarProfile, omega_nodes: FloatArray) -> FloatArray:
    omega = np.asarray(omega_nodes, dtype=float)
    if profile.kind == "bose_einstein":
        values = omega**2 * np.exp(omega) / np.expm1(omega) ** 2
        values = values / values.max()
    elif profile.kind == "constant":
        values = np.full_like(omega, profile.params[0])
    else:
        raise ValueError(f"unknown g* profile kind {profile.kind!r}")
    bad = np.flatnonzero(values <= 0.0)
    if bad.size:
        raise ValueError(
            f"g* profile {profile.kind!r} is nonpositive at omega = {omega[bad[0]]}"
        )
    return values


@dataclass(frozen=True)
class MaterialModel:
    """Coefficient functions sampled per frequency node.

    ``h_star`` is always recomputed from g*/tau (never stored independently),
    so the consistency invariant holds under any tau update.
    ``tau_bounds`` records the box the optimizer clamps tau into.
    """

    omega_nodes: FloatArray
    tau: FloatArray
    velocity: FloatArray
    g_star: FloatArray
    tau_bounds: tuple[float, float] = DEFAULT_TAU_BOUNDS
    h_star: FloatArray = field(init=False)

    def __post_init__(self) -> None:
        names = ("omega_nodes", "tau", "velocity", "g_star")
        for name in names:
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        # NaN passes every bound comparison below, so nonfinite values are
        # refused first, with one check over all four tables; past it, the
        # extremes decide each bound.
        if not np.isfinite(
            np.concatenate((self.omega_nodes, self.tau, self.velocity, self.g_star))
        ).all():
            for name in names:
                bad = np.flatnonzero(~np.isfinite(getattr(self, name)))
                if bad.size:
                    raise ValueError(
                        f"{name} = {getattr(self, name)[bad[0]]} at omega node {bad[0]} "
                        "is not finite"
                    )
        lo, hi = self.tau_bounds
        if self.tau.min() < lo or self.tau.max() > hi:
            i = int(np.argmax((self.tau < lo) | (self.tau > hi)))
            raise ValueError(
                f"tau = {self.tau[i]} at omega = {self.omega_nodes[i]} violates the "
                f"bounds [{lo}, {hi}]"
            )
        if self.g_star.min() <= 0.0:
            i = int(np.argmax(self.g_star <= 0.0))
            raise ValueError(
                f"g* = {self.g_star[i]} at omega = {self.omega_nodes[i]} must be positive"
            )
        if self.velocity.min() <= 0.0:
            i = int(np.argmax(self.velocity <= 0.0))
            raise ValueError(
                f"group speed {self.velocity[i]} at omega = {self.omega_nodes[i]} must be positive"
            )
        object.__setattr__(self, "h_star", self.g_star / self.tau)
        for name in ("omega_nodes", "tau", "velocity", "g_star", "h_star"):
            getattr(self, name).setflags(write=False)

    def with_tau(self, new_tau: FloatArray) -> "MaterialModel":
        """A new material with updated tau; h* is recomputed in __post_init__."""
        new_tau = np.array(new_tau, dtype=float)
        if new_tau.shape != self.tau.shape:
            raise ValueError(
                f"tau length {new_tau.shape} does not match the material's "
                f"{self.tau.shape} frequency nodes"
            )
        return replace(self, tau=new_tau)

    def max_characteristic_speed(self, mu_nodes: FloatArray) -> float:
        return float(np.max(np.abs(mu_nodes)) * np.max(self.velocity))


def build_material(
    tau_profile: TauProfile,
    g_star_profile: GStarProfile,
    omega_nodes: FloatArray,
    velocity_coeffs: tuple[float, float] = DEFAULT_VELOCITY_COEFFS,
    tau_bounds: tuple[float, float] = DEFAULT_TAU_BOUNDS,
) -> MaterialModel:
    """Sample the profiles on the frequency nodes and validate bounds."""
    omega = np.asarray(omega_nodes, dtype=float)
    return MaterialModel(
        omega_nodes=omega.copy(),
        tau=eval_tau(tau_profile, omega),
        velocity=eval_velocity(omega, velocity_coeffs),
        g_star=eval_g_star(g_star_profile, omega),
        tau_bounds=tau_bounds,
    )
