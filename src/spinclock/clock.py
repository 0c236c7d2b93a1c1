"""The deparameterized quantum clock and its correlation analysis.

One oscillator's position is read against the other's: the gauge angle
theta is the phase of oscillator 2, so conditioning on a clock reading
fixes theta = omega*tau + phi' (one root per period; the second root of
the position clock is excluded, as for the classical arccos branch).
The conditioned symbol of q1 then has the closed form

    q1'(xi; tau) = (Gamma(m+5/2)/(m+1)!) *
                   (xi e^{i(omega tau+phi')} + c.c.) / sqrt(1+|xi|^2)

which tends to the classical sinusoid A cos(omega tau + phi' + arg xi)
as m grows.  Correlation functions between spin coherent states measure
how sharp the clock is: a Gaussian of width 1/(2j) in the amplitude
angle and 2j/(E1 E2) in the relative phase.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .coherent import _check_two_j, su2_coherent
from .errors import ChartSingularityError
from .grids import RadialGrid, SphereGrid, radial_grid, sphere_grid
from .symbols import FullLowerSymbol, ReducedLowerSymbol, _radial_mean


@dataclass
class CorrelationTrace:
    """Overlap magnitudes over a sweep, with the fitted Gaussian width."""

    sweep: np.ndarray
    overlap: np.ndarray
    gaussian: np.ndarray
    sigma2_fit: float
    sigma2_pred: float
    meta: dict = field(default_factory=dict)


def deparameterize(sym: FullLowerSymbol, m: int, tau: float,
                   phi_prime: float = 0.0, omega: float = 1.0,
                   rgrid: RadialGrid | None = None) -> ReducedLowerSymbol:
    """Condition a full lower symbol on the clock slice theta = omega*tau + phi'.

    Returns the reduced symbol xi -> int sym(xi, r, theta_slice) against
    the normalized radial weight r^{m+1} e^{-r} / (m+1)!; it takes a
    scalar or an array of xi.
    """
    if rgrid is None or rgrid.m != m:
        rgrid = radial_grid(m)
    theta = np.array([math.fmod(omega * tau + phi_prime, 2.0 * math.pi)])

    def at_slice(xi):
        return _radial_mean(sym, xi, rgrid, theta)

    return at_slice


def gamma_half_ratio(m: int) -> float:
    """Gamma(m+5/2)/(m+1)! via log-Gamma (overflows directly for m ~ 170)."""
    return math.exp(math.lgamma(m + 2.5) - math.lgamma(m + 2.0))


def clock_symbol_q1(xi: complex, m: int, tau, phi_prime: float = 0.0,
                    omega: float = 1.0):
    """Closed form of the conditioned clock symbol q1'(xi; tau).

    Real for any xi; a single sinusoid in tau with phase
    omega*tau + phi' + arg xi.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    tau = np.asarray(tau, dtype=float)
    num, den = _modulus_over_norm(xi)
    amp = gamma_half_ratio(m) * 2.0 * num / den
    phase = omega * tau + phi_prime + math.atan2(xi.imag, xi.real)
    out = amp * np.cos(phase)
    if out.ndim == 0:
        return float(out)
    return out


def classical_amplitude(m: int, xi: complex, omega: float = 1.0,
                        hbar: float = 1.0) -> float:
    """Amplitude A of oscillator 1 for energy E = (m+1) hbar omega and ratio |xi|."""
    e_tot = (m + 1) * hbar * omega
    num, den = _modulus_over_norm(xi)
    return math.sqrt(e_tot / omega**2) * num / den


def _modulus_over_norm(xi: complex) -> tuple[float, float]:
    """|xi| / sqrt(1+|xi|^2) as (numerator, denominator).

    Where |xi|^2 overflows the ratio comes from the antipodal label 1/xi
    as 1 / sqrt(1+|1/xi|^2).
    """
    try:
        return abs(xi), math.sqrt(1.0 + abs(xi) ** 2)
    except OverflowError:
        return 1.0, math.sqrt(1.0 + abs(1.0 / xi) ** 2)


def classical_limit_check(xi: complex, m_list, tau_grid,
                          phi_prime: float = 0.0, omega: float = 1.0) -> dict:
    """Compare the clock symbol against the classical trajectory as m grows.

    For each m the clock symbol is a sinusoid with the classical phase;
    the amplitude ratio to A approaches a constant with O(1/m) deviation.
    """
    if abs(xi) == 0:
        raise ValueError("xi = 0 carries no oscillator-1 signal")
    tau_grid = np.asarray(tau_grid, dtype=float)
    delta_phi = math.atan2(xi.imag, xi.real)
    # lim_m 2 Gamma(m+5/2) / ((m+1)! sqrt(m+1)) = 2
    report = {"m": list(m_list), "amplitude_ratio": [], "phase_residual": [],
              "limit_ratio": 2.0}
    for m in m_list:
        vals = clock_symbol_q1(xi, m, tau_grid, phi_prime, omega)
        # fit a single sinusoid amp*cos(omega tau + phi' + dphi)
        model = np.cos(omega * tau_grid + phi_prime + delta_phi)
        amp = float(vals @ model) / float(model @ model)
        resid = float(np.max(np.abs(vals - amp * model)))
        a_cl = classical_amplitude(m, xi, omega)
        report["amplitude_ratio"].append(amp / a_cl)
        report["phase_residual"].append(resid / max(abs(amp), 1e-300))
    return report


def clock_operator(j: float, tau: float, phi_prime: float = 0.0,
                   omega: float = 1.0, grid: SphereGrid | None = None) -> np.ndarray:
    """Operator of the clock symbol: ((2j+1)/pi) int q1'(xi;tau) |xi><xi| dmu."""
    two_j = _check_two_j(j)
    if grid is None:
        grid = sphere_grid(j, n_polar=two_j + 6)
    vals = clock_symbol_q1_batch(grid.xi, two_j, tau, phi_prime, omega)
    # on a ring the symbol is one harmonic cos(phi + ...): columns +-1 only
    return ((two_j + 1) / np.pi) * kernels.ring_projector_sum(grid, grid.weights * vals, two_j,
                                                              band={1, -1})


def clock_symbol_q1_batch(xis: np.ndarray, m: int, tau: float,
                          phi_prime: float = 0.0, omega: float = 1.0) -> np.ndarray:
    """clock_symbol_q1 over an array of labels at fixed tau."""
    xis = np.asarray(xis, dtype=np.complex128)
    g = gamma_half_ratio(m)
    phase = omega * tau + phi_prime
    rot = xis * np.exp(1j * phase)
    return g * 2.0 * rot.real / np.sqrt(1.0 + np.abs(xis) ** 2)


def fit_gaussian_width(x: np.ndarray, y: np.ndarray,
                       floor: float = math.exp(-2.0)) -> tuple[float, np.ndarray]:
    """Width of an approximately Gaussian peak from a log-polynomial fit.

    Fits log(y) by a quartic polynomial (centered on the peak sample) on
    the window y > floor * max(y) and reads sigma^2 = -1/(2 c2) from the
    quadratic coefficient.  The quartic terms absorb the leading
    non-Gaussian correction, which a plain quadratic fit does not.
    Returns (sigma^2, fitted curve over all of x).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    i_peak = int(np.argmax(y))
    mask = y > floor * y[i_peak]
    if mask.sum() < 7:
        raise ValueError("sweep too coarse to resolve the peak")
    dx = x[mask] - x[i_peak]
    logy = np.log(y[mask])
    coeffs = np.polynomial.polynomial.polyfit(dx, logy, 4)
    c2 = coeffs[2]
    if c2 >= 0:
        raise ValueError("no concave peak found")
    sigma2 = -1.0 / (2.0 * c2)
    fitted = np.exp(np.polynomial.polynomial.polyval(x - x[i_peak], coeffs))
    return float(sigma2), fitted


def amplitude_correlation(theta_ref: float, j: float,
                          theta_sweep: np.ndarray) -> CorrelationTrace:
    """Overlap of |xi'> with |xi> across amplitude-ratio angles.

    xi = tan(theta_ref), xi' = tan(theta') real; the magnitude is
    cos^{2j}(theta' - theta_ref), a Gaussian of width 1/(2j) near the
    peak.
    """
    two_j = _check_two_j(j)
    if j < 0.5:
        raise ValueError("need j >= 1/2")
    theta_sweep = np.asarray(theta_sweep, dtype=float)
    pole = math.pi / 2.0
    if min(abs(theta_ref - pole), abs(theta_ref + pole)) < 1e-6:
        raise ChartSingularityError(
            "theta_ref at the chart pole; parametrize from the antipodal chart "
            "(swap the oscillators, theta -> pi/2 - theta)")
    ov = np.abs(np.cos(theta_sweep - theta_ref)) ** two_j
    sigma2_pred = 1.0 / (2.0 * j)
    sigma2_fit, fitted = fit_gaussian_width(theta_sweep, ov)
    return CorrelationTrace(sweep=theta_sweep, overlap=ov, gaussian=fitted,
                            sigma2_fit=sigma2_fit, sigma2_pred=sigma2_pred,
                            meta={"kind": "amplitude", "j": j,
                                  "theta_ref": theta_ref})


def phase_correlation(xi_mag: float, j: float,
                      dphi_sweep: np.ndarray) -> CorrelationTrace:
    """Overlap of |xi e^{i dphi}> with |xi> across relative phases.

    The predicted width is 2j/(E1 E2) with oscillator energies in quanta
    E1 = 2j |xi|^2/(1+|xi|^2) and E2 = 2j/(1+|xi|^2); sharp when the
    energy is shared.
    """
    two_j = _check_two_j(j)
    if xi_mag <= 0:
        raise ValueError("|xi| = 0 carries no phase information")
    dphi_sweep = np.asarray(dphi_sweep, dtype=float)
    t = xi_mag**2
    ov = (np.abs(1.0 + t * np.exp(1j * dphi_sweep)) / (1.0 + t)) ** two_j
    e1 = two_j * t / (1.0 + t)
    e2 = two_j / (1.0 + t)
    sigma2_pred = two_j / (e1 * e2)
    sigma2_fit, fitted = fit_gaussian_width(dphi_sweep, ov)
    return CorrelationTrace(sweep=dphi_sweep, overlap=ov, gaussian=fitted,
                            sigma2_fit=sigma2_fit, sigma2_pred=sigma2_pred,
                            meta={"kind": "phase", "j": j, "xi_mag": xi_mag})


def overlap_inner_product_batch(xi_ref: complex, xis: np.ndarray, j: float
                                ) -> np.ndarray:
    """|<xi'|xi_ref>| via explicit amplitude vectors (oracle for the closed form)."""
    return np.abs(su2_coherent(xis, j).conj() @ su2_coherent(xi_ref, j))
