"""Acceptance gate: twelve numbered criteria, one PASS/FAIL line each.

Each test prints a single line of the form

    PASS  criterion-07 constraint-peaking  measured=3.1e-16 tol=1e-12

directly to the terminal (bypassing capture) and then asserts, so a failing
criterion is both visible in the summary line and red in pytest.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from spinclock import clock, coherent, fock, symbols
from spinclock.cli import main as cli_main

DATA = Path(__file__).parent / "data"


@pytest.fixture
def report(capsys):
    def _report(name, passed, measured, tol):
        with capsys.disabled():
            verdict = "PASS" if passed else "FAIL"
            print(f"{verdict}  {name}  measured={measured:.3e} tol={tol:g}")
        assert passed, f"{name}: measured={measured} tol={tol}"
    return _report


def test_criterion_01_resolution_of_unity(report):
    worst = 0.0
    slowest = 0.0
    for j in (0.5, 1.0, 2.0, 5.0, 10.0):
        t0 = time.perf_counter()
        res = coherent.resolution_of_unity(j)
        slowest = max(slowest, time.perf_counter() - t0)
        dim = int(round(2 * j)) + 1
        worst = max(worst, float(np.max(np.abs(res - np.eye(dim)))))
    report("criterion-01 resolution-of-unity",
           worst < 1e-10 and slowest < 1.0, worst, 1e-10)


def test_criterion_02_overlap_closed_form(report):
    rng = np.random.default_rng(2)
    worst = 0.0
    for j in (1.0, 10.0, 25.0):
        x1 = rng.normal(size=1000) + 1j * rng.normal(size=1000)
        x2 = rng.normal(size=1000) + 1j * rng.normal(size=1000)
        closed = coherent.overlap(x1, x2, j)
        explicit = np.einsum("kn,kn->k", coherent.su2_coherent(x1, j).conj(),
                             coherent.su2_coherent(x2, j))
        worst = max(worst, float(np.max(np.abs(closed - explicit))))
    report("criterion-02 overlap-closed-form", worst < 1e-12, worst, 1e-12)


def test_criterion_03_projection_gauge_covariance(report):
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(500):
        m_prime = int(rng.integers(0, 51))
        alpha = complex(rng.normal(), rng.normal())
        beta = complex(rng.normal(), rng.normal())
        if abs(beta) < 1e-3:
            beta += 1.0
        amps, _ = coherent.project_coherent(alpha, beta, m_prime)
        direction = amps / np.linalg.norm(amps)
        theta, xi = coherent.factor_gauge_phase(alpha, beta)
        rebuilt = (np.exp(1j * m_prime * theta)
                   * coherent.su2_coherent(xi, m_prime / 2.0))
        worst = max(worst, float(np.max(np.abs(direction - rebuilt))))
    report("criterion-03 projection-gauge-covariance", worst < 1e-12,
           worst, 1e-12)


def test_criterion_04_spin_symbols(report):
    rng = np.random.default_rng(4)
    worst_match = 0.0
    worst_sphere = 0.0
    for j in (0.5, 1.0, 2.0, 7.5):
        mats = fock.spin_operators(int(round(2 * j)))
        # complex(normal, normal) per label, in the order of scalar draws
        xi = rng.normal(size=(50, 2)).view(complex)[:, 0]
        cf = symbols.spin_symbols_closed_form(xi, j)
        for val, mat in zip(cf, mats):
            worst_match = max(worst_match,
                              float(np.max(np.abs(symbols.upper_symbol(mat, xi, j) - val))))
        worst_sphere = max(worst_sphere,
                           float(np.max(np.abs(cf[0]**2 + cf[1]**2 + cf[2]**2 - j * j))))
    passed = worst_match < 1e-12 and worst_sphere < 1e-10
    report("criterion-04 spin-upper-symbols", passed,
           max(worst_match, worst_sphere), 1e-12)


def test_criterion_05_su2_structure(report):
    worst = 0.0
    for m_prime in (1, 2, 20, 200):
        s1, s2, s3 = fock.spin_operators(m_prime)
        j = m_prime / 2.0
        eye = np.eye(m_prime + 1)
        for a, b, c in ((s1, s2, s3), (s2, s3, s1), (s3, s1, s2)):
            # the commutator subtracts products with entries ~ j^2/4
            # (2.5e3 at m' = 200); the error floor is a few ulps of that
            prod_scale = max(1.0, float(np.max(np.abs(a @ b))))
            err = float(np.max(np.abs(a @ b - b @ a - 1j * c)))
            worst = max(worst, err / prod_scale)
        cas = s1 @ s1 + s2 @ s2 + s3 @ s3
        # Casimir entries are j(j+1) ~ 1e4 at m' = 200, where one ulp is
        # already 2e-12; the tolerance is relative to that scale
        scale = max(1.0, j * (j + 1))
        worst = max(worst,
                    float(np.max(np.abs(cas - j * (j + 1) * eye))) / scale)
    report("criterion-05 su2-structure-casimir", worst < 1e-12, worst, 1e-12)


def test_criterion_06_gauge_averaged_position(report):
    rng = np.random.default_rng(6)
    worst = 0.0
    for m in (5, 50):
        reduced = symbols.project_lower_symbol(symbols.q2_position_symbol, m)
        for _ in range(100):
            xi = complex(rng.normal(), rng.normal())
            worst = max(worst, abs(reduced(xi)))
    report("criterion-06 gauge-averaged-q2", worst < 1e-14, worst, 1e-14)


def test_criterion_07_constraint_peaking(report):
    worst = 0.0
    for m in (10, 100, 1000):
        reduced = symbols.project_lower_symbol(lambda xi, r, th: r, m)
        rel = abs(reduced(0.6 + 0.2j) - (m + 1)) / (m + 1)
        worst = max(worst, abs(rel - 1.0 / (m + 1)))
    report("criterion-07 constraint-peaking", worst < 1e-12, worst, 1e-12)


def test_criterion_08_clock_classical_limit(report):
    xi = complex(math.cos(1.1), math.sin(1.1)) * 0.9
    taus = np.linspace(0, 6 * math.pi, 240)
    rep = clock.classical_limit_check(xi, [10, 100, 1000], taus)
    # phase_residual is the relative residual of the single-sinusoid fit with
    # the phase pinned to omega*tau + phi' + arg(xi): it certifies both the
    # pure-sinusoid claim and the exact phase at once
    fit_res = max(rep["phase_residual"])
    devs = [abs(r - rep["limit_ratio"]) for r in rep["amplitude_ratio"]]
    # deviation ~ c/m: each decade in m shrinks it tenfold
    decade = devs[0] / devs[1]
    decade2 = devs[1] / devs[2]
    passed = (fit_res < 1e-12
              and abs(decade - 10.0) < 2.0 and abs(decade2 - 10.0) < 2.0)
    report("criterion-08 clock-classical-limit", passed, fit_res, 1e-12)


def test_criterion_09_figure1_width_scaling(report, tmp_path):
    worst = 0.0
    theta = math.pi / 4
    for j in (10.0, 50.0, 100.0):
        sweep = np.linspace(theta - 0.75, theta + 0.75, 201)
        trace = clock.amplitude_correlation(theta, j, sweep)
        worst = max(worst, abs(trace.sigma2_fit * 2 * j - 1.0))
    out = tmp_path / "fig1.csv"
    assert cli_main(["figure", "1", "--j", "50", "--out", str(out)]) == 0
    baseline_ok = (out.read_bytes()
                   == (DATA / "figure1_j50_baseline.csv").read_bytes())
    report("criterion-09 figure1-width-and-baseline",
           worst < 0.01 and baseline_ok, worst, 0.01)


def test_criterion_10_figure2_width_scaling(report):
    worst = 0.0
    for j in (20.0, 50.0, 100.0):
        trace = clock.phase_correlation(1.0, j, np.linspace(-2, 2, 801))
        worst = max(worst, abs(trace.sigma2_fit / trace.sigma2_pred - 1.0))
    for mag in (0.5, 2.0):
        trace = clock.phase_correlation(mag, 30.0,
                                        np.linspace(-2.5, 2.5, 801))
        worst = max(worst, abs(trace.sigma2_fit / trace.sigma2_pred - 1.0))
    report("criterion-10 figure2-phase-width", worst < 0.01, worst, 0.01)


def test_criterion_11_lower_vs_upper_symbol(report):
    worst = 0.0
    separated = True
    for j in (0.5, 1.0, 5.0):
        m_prime = int(round(2 * j))
        _, _, s3 = fock.spin_operators(m_prime)
        lower = symbols.reconstruct_operator(
            lambda xi, j=j: -(j + 1) * (1 - abs(xi)**2) / (1 + abs(xi)**2), j)
        upper = symbols.reconstruct_operator(
            lambda xi, j=j: -j * (1 - abs(xi)**2) / (1 + abs(xi)**2), j)
        worst = max(worst, float(np.max(np.abs(lower - s3))))
        separated &= (np.linalg.norm(upper - s3)
                      > 0.1 * np.linalg.norm(s3))
    report("criterion-11 lower-vs-upper-symbol",
           worst < 1e-10 and separated, worst, 1e-10)


def test_criterion_12_determinism(report, tmp_path):
    commands = [
        ["verify", "--j", "2", "--format", "json"],
        ["figure", "1", "--j", "10"],
        ["figure", "2", "--j", "20"],
    ]
    identical = True
    for i, argv in enumerate(commands):
        outputs = []
        for threads in ("1", "4"):
            path = tmp_path / f"c{i}_t{threads}"
            env = dict(os.environ, OMP_NUM_THREADS=threads,
                       NUMBA_NUM_THREADS=threads,
                       OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            # two runs per thread setting: repeatability and thread invariance
            for rep in ("a", "b"):
                target = path.with_suffix(f".{rep}")
                subprocess.run(
                    [sys.executable, "-m", "spinclock", *argv,
                     "--out", str(target)],
                    check=True, env=env, capture_output=True)
                outputs.append(target.read_bytes())
        identical &= all(o == outputs[0] for o in outputs[1:])
    report("criterion-12 end-to-end-determinism", identical,
           0.0 if identical else 1.0, 0)
