"""Closed-form classical dynamics of the constrained double oscillator.

Serves as the oracle for every classical-limit check: trajectories in
proper time, the amplitude constraint, gauge-invariant reduced
coordinates, and the position-clock readout of one oscillator against the
other.

Each oscillator has H = (p^2 + omega^2 q^2)/2, so amplitudes A and B carry
the energy E = omega^2 (A^2 + B^2)/2.  amplitude_energy is the one
statement of that relation: constraint_residual holds it against E, and
clock.classical_amplitude inverts it at E = hbar omega (m+1).
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


def amplitude_energy(amp2: float, omega: float) -> float:
    """omega^2 (A^2 + B^2)/2: the energy of amplitudes A, B with A^2 + B^2 = amp2."""
    return 0.5 * omega**2 * amp2


def constraint_residual(cfg: ClassicalConfig) -> float:
    """omega^2 (A^2 + B^2)/2 - E; zero exactly on shell."""
    return amplitude_energy(cfg.A * cfg.A + cfg.B * cfg.B, cfg.omega) - cfg.E


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
    """Total mechanical energy along the trajectory: tau-independent, and E on shell."""
    q1, p1, q2, p2 = trajectory(cfg, tau)
    w2 = cfg.omega**2
    return 0.5 * (p1**2 + w2 * q1**2) + 0.5 * (p2**2 + w2 * q2**2)
