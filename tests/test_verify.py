import json
import math
import subprocess
import sys

import pytest

from spinclock import classical, clock, grids, verify
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


@pytest.mark.parametrize("j", [300, 500])
def test_berezin_error_is_rounding_of_about_sqrt_2j_plus_1_eps(j):
    # the worst case of the ring sums' rounding is 16 (2j+1) eps; on ring amplitudes
    # accurate to a few eps the error measures 2.0 and 29.5 eps here (8, 15 and 14.5 eps
    # at j = 30, 100 and 700), about sqrt(2j+1) eps, and the tolerance is 4 sqrt(n_polar)
    # eps.  Amplitudes off by O(j eps) put it at 1211 and 3172 eps, 2.0 and 3.2 (2j+1) eps
    grid = sphere_grid(j)
    check = verify._berezin_check(j, grid)
    assert check.tol == 4 * verify.EPS * math.sqrt(len(grid.rho)) < 16 * verify.EPS * (2 * j + 1)
    assert check.measured <= 4 * math.sqrt(2 * j + 1) * verify.EPS, check.line()


def test_berezin_check_fails_when_the_ring_weights_are_off_by_1e_12(monkeypatch):
    # weights 1 + 1e-12 times too large scale the operator, and move its symbol at the
    # label 0 by about 1e-12: half the worst case 16 (2j+1) eps = 2.1e-12 at j = 300,
    # 46 times the tolerance 4 sqrt(602) eps = 2.2e-14
    assert verify._berezin_check(300, sphere_grid(300)).passed
    rule = grids._gauss_legendre
    monkeypatch.setattr(grids, "_gauss_legendre",
                        lambda n: (rule(n)[0], rule(n)[1] * (1.0 + 1e-12)))
    check = verify._berezin_check(300, sphere_grid(300))
    assert not check.passed
    assert 0.9e-12 < check.measured < 16 * verify.EPS * 601


def test_no_command_imports_numpy_random():
    # numpy.random adds 6 MiB of RSS and about 12 ms of import to a cold process
    code = ("import json, os, runpy, sys\n"
            "from spinclock import verify\n"
            "loaded = {}\n"
            "for argv in (['verify', '--j', '5'], ['figure', '1', '--j', '50'],\n"
            "             ['figure', '2', '--j', '50'], ['overlap', '--j', '10'],\n"
            "             ['clock-trace', '--m', '100'], ['symbols', '--j', '20']):\n"
            "    sys.argv = ['spinclock', *argv, '--out', os.devnull]\n"
            "    try:\n"
            "        runpy.run_module('spinclock', run_name='__main__')\n"
            "    except SystemExit as exc:\n"
            "        assert exc.code == 0, argv\n"
            "    loaded[' '.join(argv)] = 'numpy.random' in sys.modules\n"
            "verify.run_checks(5, seed=3)\n"
            "loaded['run_checks'] = 'numpy.random' in sys.modules\n"
            "print(json.dumps(loaded))\n")
    proc = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                          text=True)
    loaded = json.loads(proc.stdout)
    assert len(loaded) == 7
    assert not any(loaded.values()), loaded


def test_same_seed_gives_the_same_checks():
    assert verify.run_checks(5.0, seed=7) == verify.run_checks(5.0, seed=7)


def test_seeds_draw_different_labels():
    overlap = [_by_name(verify.run_checks(5.0, seed=seed))["coherent.overlap_closed_form"]
               for seed in (0, 1)]
    assert overlap[0].measured != overlap[1].measured


@pytest.mark.parametrize("quad_order", [None, 9])
def test_run_checks_builds_the_grids_grid_shapes_names(quad_order, monkeypatch):
    # the memory budget of `spinclock verify` reads the same shapes
    built = []

    def recording(j, n_polar=None, n_azimuthal=None):
        built.append((n_polar, n_azimuthal))
        return sphere_grid(j, n_polar, n_azimuthal)

    monkeypatch.setattr(verify, "sphere_grid", recording)
    verify.run_checks(2.0, quad_order=quad_order)
    assert built == list(verify._grid_shapes(4, quad_order))
