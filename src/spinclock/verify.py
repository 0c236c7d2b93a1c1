"""Property suite: every structural invariant of the library, runnable
from the CLI (`spinclock verify`) with a machine-readable report.
"""

import math
import random
from dataclasses import dataclass

import numpy as np

from . import classical, clock, coherent, fock, symbols
from .grids import SphereGrid, _check_two_j, sphere_grid

EPS = np.finfo(float).eps


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    tol: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name} measured={self.measured:.3e} tol={self.tol:.3e}"


def _check(name: str, measured: float, tol: float) -> CheckResult:
    return CheckResult(name=name, passed=bool(measured < tol), measured=float(measured), tol=tol)


def _berezin_check(j: float, grid: SphereGrid) -> CheckResult:
    """The upper symbol of the operator of cos(Theta) is (j/(j+1)) cos(Theta),
    up to the error of the grid's quadrature and rounding.

    Each entry (n, n') of the operator rounds to a few eps times
    ((2j+1)/pi) sum_k w_k a_n a_n', the a_n >= 0 being the ring amplitudes.
    Against a label's unit amplitude vector c these bounds sum, by
    Cauchy-Schwarz over each ring's sum_n a_n^2 = 1, to a few eps (2j+1).
    Measured on the default grids: 0.04-5.0 (2j+1) eps for j = 0.5-820, so
    the tolerance 16 (2j+1) eps leaves a factor 3.2 over the largest.
    """
    cos_theta = lambda xi: (1.0 - np.abs(xi) ** 2) / (1.0 + np.abs(xi) ** 2)
    x = np.array([0.0, 0.3 - 0.8j, 1.0, -2.5 + 1.1j])
    upper = symbols.upper_symbol(symbols.reconstruct_operator(cos_theta, j, grid), x)
    return _check("symbols.berezin_eigenvalue",
                  np.max(np.abs(upper - j / (j + 1) * cos_theta(x))), 16 * EPS * (2 * j + 1))


def _labels(rand: random.Random, count: int) -> np.ndarray:
    """count complex labels, each complex(gauss, gauss) from rand in turn."""
    return np.array([complex(rand.gauss(0.0, 1.0), rand.gauss(0.0, 1.0))
                     for _ in range(count)])


def run_checks(j: float = 5.0, seed: int = 0,
               quad_order: int | None = None) -> list[CheckResult]:
    """Run the full invariant suite at spin j; returns one result per check."""
    two_j = _check_two_j(j)
    # the standard library's generator: numpy.random would cost the process 6 MiB of RSS
    rand = random.Random(seed)
    grid = sphere_grid(j, n_polar=quad_order)
    results: list[CheckResult] = []

    # classical oracle
    cfg = classical.ClassicalConfig(A=0.6, B=0.8, phi=0.4, phi_prime=0.1, omega=1.0, E=0.5)
    taus = np.linspace(0.0, 10 * 2 * math.pi, 101)
    energies = np.array([classical.energy(cfg, t) for t in taus])
    results.append(_check("classical.energy_conservation",
                          np.max(energies) - np.min(energies), 1e-12))
    # a config the constraint puts on shell carries the energy E along its trajectory
    results.append(_check("classical.on_shell_energy",
                          np.max(np.abs(energies - cfg.E)) if cfg.is_on_shell() else math.inf,
                          1e-12))
    xi0 = classical.reduced_coordinate(cfg)
    shifted = classical.ClassicalConfig(A=cfg.A, B=cfg.B, phi=cfg.phi + 0.37,
                                        phi_prime=cfg.phi_prime + 0.37,
                                        omega=cfg.omega, E=cfg.E)
    results.append(_check("classical.gauge_invariant_xi",
                          abs(classical.reduced_coordinate(shifted) - xi0), 1e-15))
    # branch consistency on a half-period where q2 is monotone
    branch_err = 0.0
    for t in np.linspace(0.05, math.pi - 0.05, 25):
        tau = t - cfg.phi_prime
        q1, _, q2, _ = classical.trajectory(cfg, tau)
        branch_err = max(branch_err, abs(classical.classical_clock_readout(cfg, q2) - q1))
    results.append(_check("classical.clock_branch_consistency", branch_err, 1e-12))

    # su(2) structure; products of entries up to about j round to about eps j^2
    if two_j >= 1:
        s1, s2, s3 = fock.spin_operators(two_j)
        comm = max(np.max(np.abs(s1 @ s2 - s2 @ s1 - 1j * s3)),
                   np.max(np.abs(s2 @ s3 - s3 @ s2 - 1j * s1)),
                   np.max(np.abs(s3 @ s1 - s1 @ s3 - 1j * s2)))
        results.append(_check("fock.su2_commutators", comm, 16 * EPS * j * j))
        cas_err = np.max(np.abs(fock.casimir(two_j) - j * (j + 1) * np.eye(two_j + 1)))
        results.append(_check("fock.casimir", cas_err, 64 * EPS * j * (j + 1)))
        expect = np.arange(-j, j + 1)
        spec_err = max(np.max(np.abs(np.sort(np.linalg.eigvalsh(s)) - expect))
                       for s in (s1, s2, s3))
        results.append(_check("fock.spin_spectrum", spec_err, 1e-10))

    # projection and gauge covariance on r = 2j+1, where e^{-r} r^{2j} / (2j)! stays in range
    gauge_err = 0.0
    factor_err = 0.0
    for _ in range(50):
        alpha, beta = _labels(rand, 2).tolist()
        if abs(beta) < 1e-3:
            continue
        scale = math.sqrt((two_j + 1) / (abs(alpha) ** 2 + abs(beta) ** 2))
        alpha, beta = scale * alpha, scale * beta
        amps, _ = coherent.project_coherent(alpha, beta, two_j)
        th0 = rand.uniform(0, 2 * math.pi)
        amps_rot, _ = coherent.project_coherent(alpha * np.exp(1j * th0),
                                                beta * np.exp(1j * th0), two_j)
        gauge_err = max(gauge_err,
                        np.max(np.abs(amps_rot - np.exp(1j * two_j * th0) * amps)))
        theta, xi = coherent.factor_gauge_phase(alpha, beta)
        direction = amps / np.linalg.norm(amps)
        rebuilt = np.exp(1j * two_j * theta) * coherent.su2_coherent(xi, j)
        factor_err = max(factor_err, np.max(np.abs(direction - rebuilt)))
    results.append(_check("coherent.gauge_covariance", gauge_err, 1e-13))
    results.append(_check("coherent.gauge_phase_factoring", factor_err, 1e-12))

    # overlap closed form vs explicit inner products
    x1, x2 = _labels(rand, 400).reshape(2, 200)
    explicit = np.einsum("kn,kn->k", coherent.su2_coherent(x1, j).conj(),
                         coherent.su2_coherent(x2, j))
    closed = coherent.overlap(x1, x2, j)
    ov_err = np.max(np.abs(closed - explicit))
    bound_err = max(0.0, np.max(np.abs(closed)) - 1.0)
    results.append(_check("coherent.overlap_closed_form", ov_err, 1e-12))
    results.append(_check("coherent.overlap_bound", bound_err, 1e-12))

    # resolution of unity
    res = coherent.resolution_of_unity(j, grid)
    results.append(_check("coherent.resolution_of_unity",
                          np.max(np.abs(res - np.eye(two_j + 1))), 1e-10))

    # radial weight normalization by composite Simpson on 200000 intervals (the
    # quadrature rule itself would be circular), in blocks of 8192 nodes: arrays
    # below glibc's 128 KiB mmap threshold reuse the heap
    for m in (0, 5, 50):
        h = (m + 1 + 40 * math.sqrt(m + 1.0)) / 200000
        mass = 0.0
        for lo in range(0, 200001, 8192):
            i = np.arange(lo, min(lo + 8192, 200001))
            w = np.where(i % 2, 4.0, np.where(i % 200000, 2.0, 1.0))
            mass += np.sum(w * coherent.radial_weight(i * h, m))
        results.append(_check(f"coherent.radial_weight_norm_m{m}", abs(h / 3 * mass - 1), 1e-8))

    # symbol transport
    reduced_one = symbols.project_lower_symbol(lambda xi, r, th: 1.0, two_j)
    results.append(_check("symbols.project_unit_symbol",
                          abs(reduced_one(0.3 + 0.4j) - 1.0), 1e-12))
    ident = symbols.reconstruct_operator(lambda xi: 1.0, j, grid)
    results.append(_check("symbols.reconstruct_unit_symbol",
                          np.max(np.abs(ident - np.eye(two_j + 1))), 1e-10))
    # gauge-average null for cos(theta + c) factors: c runs along axis 0,
    # five labels per c along axis 1
    c = np.array([0.0, 0.7, 2.4])[:, None, None]
    reduced = symbols.project_lower_symbol(lambda xi, r, th: np.sqrt(r) * np.cos(th + c), two_j)
    null_err = np.max(np.abs(reduced(_labels(rand, 15).reshape(3, 5))))
    results.append(_check("symbols.gauge_average_null", null_err, 1e-14))
    # constraint peaking for o = r
    peak_err = 0.0
    for mm in (10, 100, 1000):
        reduced_r = symbols.project_lower_symbol(lambda xi, r, th: r, mm)
        rel = abs(reduced_r(0.5 + 0j) - (mm + 1)) / (mm + 1)
        peak_err = max(peak_err, abs(rel - 1.0 / (mm + 1)))
    results.append(_check("symbols.constraint_peaking", peak_err, 1e-12))
    # spin symbols closed form vs matrix expectations
    if two_j >= 1:
        x = _labels(rand, 20)
        cf = symbols.spin_symbols_closed_form(x, j)
        sym_err = max(np.max(np.abs(symbols.upper_symbol(mat, x) - val))
                      for val, mat in zip(cf, (s1, s2, s3)))
        sphere_err = np.max(np.abs(sum(v * v for v in cf) - j * j))
        # symbols of size j from amplitudes good to about (2j+1) eps
        results.append(_check("symbols.spin_upper_symbols", sym_err, 32 * EPS * j * (two_j + 1)))
        results.append(_check("symbols.spin_symbol_sphere", sphere_err, 32 * EPS * j * j))
    results.append(_berezin_check(j, grid))

    # clock
    xi_c = 0.8 * np.exp(1j * math.pi / 5)
    taus = np.linspace(0.0, 4 * math.pi, 64)
    vals = clock.clock_symbol_q1(xi_c, two_j, taus, phi_prime=0.2)
    model = np.cos(taus + 0.2 + np.angle(xi_c))
    amp = float(vals @ model) / float(model @ model)
    results.append(_check("clock.sinusoid_fit",
                          np.max(np.abs(vals - amp * model)), 1e-12))
    depar = clock.deparameterize(
        lambda xi, r, th: symbols.q1_position_symbol(xi, r, th), two_j, 0.0, phi_prime=0.2)
    x = np.array([xi_c, 1.5 - 0.3j, 0.2 + 0.9j])
    cs = clock.clock_symbol_q1(x, two_j, 0.0, phi_prime=0.2)
    keep = np.abs(cs) > 1e-12
    ratios = depar(x[keep]) / cs[keep]
    results.append(_check("clock.deparameterize_constant_ratio",
                          np.ptp(ratios) / abs(np.mean(ratios)), 1e-10))
    if two_j >= 1:
        # the closed form against the symbol quantized on 8 (2j+6) rings: within 2.7e-6
        # (worst at j = 2), converging like n_polar^-3; 2j+2 azimuths are exact here
        cop = clock.clock_operator(j, 0.7, phi_prime=0.2)
        quad = symbols.reconstruct_operator(
            lambda xi: clock.clock_symbol_q1(xi, two_j, 0.7, phi_prime=0.2), j,
            sphere_grid(j, n_polar=8 * (two_j + 6), n_azimuthal=two_j + 2))
        results.append(_check("clock.operator_quadrature",
                              np.max(np.abs(quad - cop)) / np.max(np.abs(cop)), 1e-5))
    if j >= 1:
        # covariance: C(tau + delta) = e^{-i delta N} C(tau) e^{i delta N}, N = diag(n)
        rot = np.exp(-1.3j * np.arange(two_j + 1))
        shifted = clock.clock_operator(j, 0.7 + 1.3, phi_prime=0.2)
        # the phases n * 1.3 round to about (2j+1) eps
        results.append(_check("clock.operator_covariance",
                              np.max(np.abs(shifted - rot[:, None] * cop * rot.conj())),
                              16 * EPS * (two_j + 1) * np.max(np.abs(cop))))
    if j >= 5:
        sweep = np.linspace(-1.2, 1.2, 801) + math.pi / 4
        tr = clock.amplitude_correlation(math.pi / 4, j, sweep)
        results.append(_check("clock.amplitude_width_scaling",
                              abs(tr.sigma2_fit / tr.sigma2_pred - 1.0), 0.05))
        trp = clock.phase_correlation(1.0, j, np.linspace(-2.0, 2.0, 801))
        results.append(_check("clock.phase_width_scaling",
                              abs(trp.sigma2_fit / trp.sigma2_pred - 1.0), 0.05))
        i_pk = int(np.argmax(tr.overlap))
        results.append(_check("clock.peak_location",
                              abs(tr.sweep[i_pk] - math.pi / 4), 1e-12))

    return results
