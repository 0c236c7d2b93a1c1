import cmath
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from spinclock import classical, clock, coherent, fock, grids, verify
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
    assert checks["clock.beta_band_exact"].passed
    assert checks["clock.operator_band"].passed


@pytest.mark.parametrize("error", [1e-4, 1e-12])
def test_operator_band_check_fails_on_a_wrong_constant(error, monkeypatch):
    # the covariance check cannot see a wrong constant; the band check must, down to
    # 1e-12, 1100 times its tolerance 4 eps
    exact = clock.clock_operator
    monkeypatch.setattr(clock, "clock_operator", lambda *a, **kw: (1 + error) * exact(*a, **kw))
    checks = _by_name(verify.run_checks(5.0))
    assert checks["clock.operator_covariance"].passed
    assert checks["clock.beta_band_exact"].passed
    assert not checks["clock.operator_band"].passed
    assert checks["clock.operator_band"].measured > 0.9 * error


def test_operator_band_check_fails_on_one_entry_off_by_1e_6(monkeypatch):
    # at j = 5 every entry of the band is within a factor 2.1 of the largest
    exact = clock.clock_operator

    def off(*args, **kwargs):
        op = exact(*args, **kwargs)
        op[3, 4] *= 1 + 1e-6
        return op

    monkeypatch.setattr(clock, "clock_operator", off)
    check = _by_name(verify.run_checks(5.0))["clock.operator_band"]
    assert not check.passed
    assert check.measured > 1e-7


def test_operator_band_check_fails_on_the_transposed_band(monkeypatch):
    # the conjugate band on the upper diagonal: the clock's phase turned the other way
    exact = clock.clock_operator
    monkeypatch.setattr(clock, "clock_operator", lambda *a, **kw: exact(*a, **kw).T)
    assert not _by_name(verify.run_checks(5.0))["clock.operator_band"].passed


def test_beta_band_check_fails_when_the_beta_argument_is_off_by_1e_9(monkeypatch):
    # B(n+2, m-n+k) moves by (psi(m-n+k) - psi(m+k+2)) 1e-9 relative, up to 3e-9 at j = 5,
    # a million times the tolerance 4 sqrt(12) eps = 3.1e-15
    band = clock._beta_band
    monkeypatch.setattr(clock, "_beta_band", lambda two_j, k: band(two_j, k + 1e-9))
    check = verify._beta_band_check(5.0, sphere_grid(5.0))
    assert not check.passed
    assert check.measured > 1e-9


def test_beta_band_check_fails_when_the_ring_weights_are_off_by_1e_12(monkeypatch):
    # weights 1 + 1e-12 times too large scale the operator by as much: 1e-12 relative,
    # 46 times the tolerance 4 sqrt(602) eps = 2.2e-14 at j = 300
    assert verify._beta_band_check(300, sphere_grid(300)).passed
    rule = grids._gauss_legendre
    monkeypatch.setattr(grids, "_gauss_legendre",
                        lambda n: (rule(n)[0], rule(n)[1] * (1.0 + 1e-12)))
    check = verify._beta_band_check(300, sphere_grid(300))
    assert not check.passed
    assert 0.9e-12 < check.measured < 1.1e-12


def test_gauge_phase_factoring_check_fails_on_a_label_off_by_1e_9(monkeypatch):
    # xi (1 + 1e-9) moves amplitude n of |xi> by about (n - 2j |xi|^2/(1+|xi|^2)) 1e-9
    factor = coherent.factor_gauge_phase
    monkeypatch.setattr(coherent, "factor_gauge_phase",
                        lambda a, b: (factor(a, b)[0], factor(a, b)[1] * (1.0 + 1e-9)))
    check = _by_name(verify.run_checks(5.0))["coherent.gauge_phase_factoring"]
    assert not check.passed
    assert check.measured > 1e-10


def test_su2_checks_fail_on_an_s3_with_one_off_diagonal_entry(monkeypatch):
    # run_checks takes S3's products and spectrum from its diagonal; an off-diagonal
    # entry of 1e-9 must still fail the commutators (tolerance 16 eps j^2 = 8.9e-14 at
    # j = 5) and the spectrum (1e-10)
    exact = fock.spin_operators

    def off(m_prime):
        s1, s2, s3 = exact(m_prime)
        s3[2, 5] = 1e-9
        return s1, s2, s3

    checks = _by_name(verify.run_checks(5.0))
    assert checks["fock.su2_commutators"].passed and checks["fock.spin_spectrum"].passed
    monkeypatch.setattr(fock, "spin_operators", off)
    checks = _by_name(verify.run_checks(5.0))
    for name in ("fock.su2_commutators", "fock.spin_spectrum"):
        assert not checks[name].passed
        assert checks[name].measured >= 1e-9


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
    # one grid, with or without quad_order; the memory budget of `spinclock verify` reads
    # the same shape
    built = []

    def recording(j, n_polar=None, n_azimuthal=None):
        built.append((n_polar, n_azimuthal))
        return sphere_grid(j, n_polar, n_azimuthal)

    monkeypatch.setattr(verify, "sphere_grid", recording)
    verify.run_checks(2.0, quad_order=quad_order)
    assert built == [verify._grid_shapes(4, quad_order)]


def test_gauge_covariance_check_fails_when_n_arg_alpha_is_off_by_1e_9(monkeypatch):
    # a phase 1e-9 n arg alpha that the gauge rotation moves by 1e-9 n theta_0: up to
    # 6e-8 of the largest amplitude at j = 5, against the tolerance 16 (2j+1) eps = 3.9e-14
    project = coherent.project_coherent

    def off(alpha, beta, m_prime):
        amps, norm_sq = project(alpha, beta, m_prime)
        return amps * np.exp(1e-9j * np.arange(m_prime + 1) * cmath.phase(alpha)), norm_sq

    monkeypatch.setattr(coherent, "project_coherent", off)
    check = _by_name(verify.run_checks(5.0))["coherent.gauge_covariance"]
    assert not check.passed
    assert check.measured > 1e-10
