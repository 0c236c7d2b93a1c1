import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from spinclock import classical
from spinclock.errors import ChartSingularityError, ClockRangeError


def test_trajectory_at_origin():
    cfg = classical.ClassicalConfig(A=1, B=0, phi=0, phi_prime=0, omega=1, E=0.5)
    q1, p1, _, _ = classical.trajectory(cfg, 0.0)
    assert q1 == 1.0
    assert p1 == 0.0


def test_trajectory_quarter_period():
    cfg = classical.ClassicalConfig(A=1, B=1, phi=0, phi_prime=math.pi / 2,
                                    omega=1, E=1)
    q1, _, q2, _ = classical.trajectory(cfg, math.pi / 2)
    assert q1 == pytest.approx(0.0, abs=1e-15)
    assert q2 == pytest.approx(-1.0, abs=1e-15)


def test_trajectory_generic_point():
    A, B, phi, phip, w, tau = 0.6, 0.8, 0.3, 0.1, 2.0, 0.7
    cfg = classical.ClassicalConfig(A=A, B=B, phi=phi, phi_prime=phip, omega=w, E=2.0)
    q1, p1, q2, p2 = classical.trajectory(cfg, tau)
    assert q1 == pytest.approx(A * math.cos(w * tau + phi), abs=1e-15)
    assert p1 == pytest.approx(A * w * math.sin(w * tau + phi), abs=1e-15)
    assert q2 == pytest.approx(B * math.cos(w * tau + phip), abs=1e-15)
    assert p2 == pytest.approx(B * w * math.sin(w * tau + phip), abs=1e-15)


@pytest.mark.parametrize("A,B,w,E,expected", [
    (1, 0, 1, 0.5, 0.0),
    (3, 4, 1, 12.5, 0.0),
    (1, 1, 2, 5, -1.0),
])
def test_constraint_residual(A, B, w, E, expected):
    cfg = classical.ClassicalConfig(A=A, B=B, phi=0, phi_prime=0, omega=w, E=E)
    assert classical.constraint_residual(cfg) == pytest.approx(expected, abs=1e-12)
    assert cfg.is_on_shell() == (expected == 0.0)


def test_reduced_coordinate_values():
    zero = classical.ClassicalConfig(A=0, B=1, phi=0.7, phi_prime=1.1, E=0.5)
    assert classical.reduced_coordinate(zero) == 0
    one = classical.ClassicalConfig(A=1, B=1, phi=0.4, phi_prime=0.4, E=1)
    assert classical.reduced_coordinate(one) == pytest.approx(1.0)
    third = classical.ClassicalConfig(A=1, B=2, phi=math.pi / 3, phi_prime=0.0, E=2.5)
    assert classical.reduced_coordinate(third) == pytest.approx(
        0.5 * complex(math.cos(math.pi / 3), math.sin(math.pi / 3)))


def test_reduced_coordinate_pole():
    cfg = classical.ClassicalConfig(A=1, B=0, phi=0, phi_prime=0, E=0.5)
    with pytest.raises(ChartSingularityError):
        classical.reduced_coordinate(cfg)


@given(st.floats(-10, 10), st.floats(-10, 10), st.floats(-5, 5))
def test_reduced_coordinate_gauge_invariance(phi, phi_prime, shift):
    cfg = classical.ClassicalConfig(A=0.7, B=1.3, phi=phi, phi_prime=phi_prime, E=1)
    moved = classical.ClassicalConfig(A=0.7, B=1.3, phi=phi + shift,
                                      phi_prime=phi_prime + shift, E=1)
    # float addition of the shift perturbs the phase difference by ~1 ulp,
    # so exact bit identity is not attainable; the chart point moves by
    # at most a few ulps of |xi|
    assert abs(classical.reduced_coordinate(moved)
               - classical.reduced_coordinate(cfg)) < 1e-13


def test_clock_readout_trivial_cases():
    cfg = classical.ClassicalConfig(A=1, B=1, phi=0.3, phi_prime=0.3, E=1)
    assert classical.classical_clock_readout(cfg, 1.0) == pytest.approx(1.0)
    half = classical.ClassicalConfig(A=0.5, B=1, phi=0.2, phi_prime=0.2, E=0.625)
    assert classical.classical_clock_readout(half, 0.6) == pytest.approx(0.3)


def test_clock_readout_branch_against_root_find():
    # locate tau with q2(tau) = 0 on the decreasing branch, then compare
    cfg = classical.ClassicalConfig(A=1, B=1, phi=math.pi / 2, phi_prime=0, E=1)
    tau0 = float(mpmath.findroot(lambda t: classical.trajectory(cfg, float(t))[2],
                                 (1e-6, math.pi - 1e-6), solver="illinois"))
    q1_true = classical.trajectory(cfg, tau0)[0]
    assert classical.classical_clock_readout(cfg, 0.0) == pytest.approx(q1_true,
                                                                       abs=1e-12)
    assert q1_true == pytest.approx(-1.0, abs=1e-9)


def test_clock_readout_undefined_without_clock_amplitude():
    cfg = classical.ClassicalConfig(A=1, B=0, phi=0, phi_prime=0, E=0.5)
    with pytest.raises(ChartSingularityError, match="B = 0"):
        classical.classical_clock_readout(cfg, 0.0)


def test_clock_readout_range_error():
    cfg = classical.ClassicalConfig(A=1, B=0.5, phi=0, phi_prime=0, E=0.625)
    with pytest.raises(ClockRangeError):
        classical.classical_clock_readout(cfg, 0.6)


def test_clock_branch_consistency_on_monotone_half_period():
    cfg = classical.ClassicalConfig(A=0.6, B=0.8, phi=0.9, phi_prime=0.2, E=0.5)
    for t in np.linspace(0.01, math.pi - 0.01, 40):
        tau = t - cfg.phi_prime
        q1, _, q2, _ = classical.trajectory(cfg, tau)
        assert classical.classical_clock_readout(cfg, q2) == pytest.approx(
            q1, abs=1e-12)


def test_energy_conserved_over_ten_periods():
    cfg = classical.ClassicalConfig(A=0.6, B=0.8, phi=0.4, phi_prime=1.3,
                                    omega=2.0, E=2.0)
    vals = [classical.energy(cfg, t) for t in np.linspace(0, 10 * math.pi, 400)]
    assert max(vals) - min(vals) < 1e-12


@pytest.mark.parametrize("A,B,w", [(0.6, 0.8, 1.0), (1.5, 0.2, 2.0), (0.0, 3.0, 0.7)])
def test_on_shell_config_has_energy_E(A, B, w):
    # H = (p^2 + w^2 q^2)/2 on the trajectory equals the E that the constraint puts on shell
    E = 0.5 * w**2 * (A**2 + B**2)
    cfg = classical.ClassicalConfig(A=A, B=B, phi=0.4, phi_prime=1.3, omega=w, E=E)
    assert cfg.is_on_shell()
    for tau in np.linspace(0, 10 * math.pi, 50):
        assert classical.energy(cfg, tau) == pytest.approx(E, rel=1e-14)


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        classical.ClassicalConfig(A=-1, B=0, phi=0, phi_prime=0, E=1)
    with pytest.raises(ValueError):
        classical.ClassicalConfig(A=1, B=0, phi=0, phi_prime=0, omega=0, E=1)
