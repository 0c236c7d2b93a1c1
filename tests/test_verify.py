import pytest

from spinclock import classical, clock, verify
from spinclock.grids import sphere_grid


def _by_name(results):
    return {r.name: r for r in results}


@pytest.mark.parametrize("j", [1.0, 5.0])
def test_assembly_checks_pass(j):
    checks = _by_name(verify.run_checks(j))
    for name in ("symbols.berezin_eigenvalue", "clock.operator_covariance"):
        assert checks[name].passed, checks[name].line()


def test_clock_covariance_needs_spin_one():
    checks = _by_name(verify.run_checks(0.5))
    assert "symbols.berezin_eigenvalue" in checks
    assert "clock.operator_covariance" not in checks
    assert checks["clock.operator_quadrature"].passed


def test_clock_quadrature_check_fails_on_a_wrong_constant(monkeypatch):
    # the covariance check cannot see a wrong constant; the quadrature one must
    exact = clock.clock_operator
    monkeypatch.setattr(clock, "clock_operator", lambda *a, **kw: (1 + 1e-4) * exact(*a, **kw))
    checks = _by_name(verify.run_checks(5.0))
    assert checks["clock.operator_covariance"].passed
    assert not checks["clock.operator_quadrature"].passed
    assert checks["clock.operator_quadrature"].measured > 9e-5


def test_on_shell_energy_check_fails_without_the_half(monkeypatch):
    # H = (p^2 + omega^2 q^2)/2, so a residual of omega^2 (A^2 + B^2) - E puts verify's
    # config (A^2 + B^2 = 1, E = 1/2) off shell
    checks = _by_name(verify.run_checks(5.0))
    assert checks["classical.on_shell_energy"].passed
    monkeypatch.setattr(classical, "constraint_residual",
                        lambda cfg: (cfg.A * cfg.omega) ** 2 + (cfg.B * cfg.omega) ** 2 - cfg.E)
    assert not _by_name(verify.run_checks(5.0))["classical.on_shell_energy"].passed


def test_berezin_check_fails_on_under_resolved_grid():
    # two polar nodes cannot integrate cos(Theta) |xi><xi| at j = 5
    check = _by_name(verify.run_checks(5.0, quad_order=2))["symbols.berezin_eigenvalue"]
    assert not check.passed
    assert check.measured > 0.1


@pytest.mark.parametrize("j,low,high", [(300, 0.06, 0.25), (500, 0.1, 0.4)])
def test_berezin_error_is_rounding_of_size_2j_plus_1_eps(j, low, high):
    # 2.0 and 3.2 (2j+1) eps against a tolerance of 16 (2j+1) eps; at j = 700 the
    # error is 1.5e-12, so a constant 1e-12 fails on correct code
    check = verify._berezin_check(j, sphere_grid(j))
    assert check.tol == 16 * verify.EPS * (2 * j + 1)
    assert low < check.measured / check.tol < high, check.line()
