"""Closed-form classical dynamics of the constrained double oscillator.

Serves as the oracle for every classical-limit check: trajectories in
proper time, the amplitude constraint, gauge-invariant reduced
coordinates, and the position-clock readout of one oscillator against the
other.
"""

import cmath
import math
from dataclasses import dataclass

from .errors import ChartSingularityError, ClockRangeError

#: relative tolerance for declaring a configuration on-shell
ON_SHELL_RTOL = 1e-10


@dataclass(frozen=True)
class ClassicalConfig:
    """Amplitudes, initial phases, frequency and total energy.

    Natural units hbar = omega = 1 are the defaults throughout the
    package; both are explicit parameters everywhere they matter.
    """

    A: float
    B: float
    phi: float
    phi_prime: float
    omega: float = 1.0
    E: float = 1.0

    def __post_init__(self):
        if self.A < 0 or self.B < 0:
            raise ValueError("amplitudes must be nonnegative")
        if self.omega <= 0:
            raise ValueError("omega must be positive")

    @property
    def delta_phi(self) -> float:
        """Gauge-invariant phase difference phi - phi'."""
        return self.phi - self.phi_prime

    def is_on_shell(self) -> bool:
        return abs(constraint_residual(self)) <= ON_SHELL_RTOL * max(abs(self.E), 1.0)


def trajectory(cfg: ClassicalConfig, tau: float) -> tuple[float, float, float, float]:
    """Positions and momenta (q1, p1, q2, p2) at proper time tau."""
    w = cfg.omega
    return (
        cfg.A * math.cos(w * tau + cfg.phi),
        cfg.A * w * math.sin(w * tau + cfg.phi),
        cfg.B * math.cos(w * tau + cfg.phi_prime),
        cfg.B * w * math.sin(w * tau + cfg.phi_prime),
    )


def constraint_residual(cfg: ClassicalConfig) -> float:
    """(A w)^2 + (B w)^2 - E; zero exactly on shell."""
    w = cfg.omega
    return (cfg.A * w) ** 2 + (cfg.B * w) ** 2 - cfg.E


def reduced_coordinate(cfg: ClassicalConfig) -> complex:
    """Gauge-invariant chart coordinate xi = (A/B) e^{i(phi - phi')}.

    Undefined at B = 0 (chart pole); use the antipodal chart there.
    """
    if cfg.B == 0:
        raise ChartSingularityError("xi is singular at B = 0 (chart pole)")
    return (cfg.A / cfg.B) * cmath.exp(1j * cfg.delta_phi)


def classical_clock_readout(cfg: ClassicalConfig, q2: float) -> float:
    """Position of oscillator 1 conditioned on oscillator 2 reading q2.

    Uses the principal branch of arccos, so the result is the q1 on the
    half-period where q2 decreases; a position clock is inherently
    two-to-one per period.
    """
    if cfg.B == 0:
        raise ChartSingularityError("clock undefined for B = 0")
    if abs(q2) > cfg.B:
        raise ClockRangeError(f"clock reading {q2} outside amplitude range [-B, B]")
    return cfg.A * math.cos(math.acos(q2 / cfg.B) - cfg.phi_prime + cfg.phi)


def energy(cfg: ClassicalConfig, tau: float) -> float:
    """Total mechanical energy along the trajectory (tau-independent)."""
    q1, p1, q2, p2 = trajectory(cfg, tau)
    w2 = cfg.omega**2
    return 0.5 * (p1**2 + w2 * q1**2) + 0.5 * (p2**2 + w2 * q2**2)
