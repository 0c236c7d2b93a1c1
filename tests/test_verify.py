import pytest

from spinclock import clock, verify


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


def test_berezin_check_fails_on_under_resolved_grid():
    # two polar nodes cannot integrate cos(Theta) |xi><xi| at j = 5
    check = _by_name(verify.run_checks(5.0, quad_order=2))["symbols.berezin_eigenvalue"]
    assert not check.passed
    assert check.measured > 0.1
