import pytest

from spinclock import verify


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


def test_berezin_check_fails_on_under_resolved_grid():
    # two polar nodes cannot integrate cos(Theta) |xi><xi| at j = 5
    check = _by_name(verify.run_checks(5.0, quad_order=2))["symbols.berezin_eigenvalue"]
    assert not check.passed
    assert check.measured > 0.1
