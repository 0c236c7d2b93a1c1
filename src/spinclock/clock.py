"""The deparameterized quantum clock and its correlation analysis.

One oscillator's position is read against the other's: the gauge angle
theta is the phase of oscillator 2, so conditioning on a clock reading
fixes theta = omega*tau + phi' (one root per period; the second root of
the position clock is excluded, as for the classical arccos branch).
deparameterize and clock_operator read this slice angle from _slice_angle,
as it is: it is not reduced mod 2 pi, whose rounded value would move the
angle by about tau eps, and a non-finite one, from a non-finite tau, omega
or phi' or an omega*tau that overflows, raises a ValueError naming all three.
With q = sqrt(hbar/2 omega)(a + a^dagger) the lower symbol of q1 is
sqrt(2 hbar/omega) |alpha| cos(theta + arg xi), and its radial mean on the
slice has the closed form

    q1'(xi; tau) = sqrt(hbar/2 omega) G(m) *
                   (xi e^{i(omega tau+phi')} + c.c.) / sqrt(1+|xi|^2),

G(m) = Gamma(m+5/2)/(m+1)!.  The classical amplitude at E = hbar omega
(m+1) is A = sqrt(2E)/omega |xi|/sqrt(1+|xi|^2), so q1' tends to the
classical sinusoid A cos(omega tau + phi' + arg xi) with the amplitude
ratio G(m)/sqrt(m+1) -> 1.  slice_amplitude is the one statement of
sqrt(2) G(m), for the symbol and the operator alike.

clock_symbol_q1 is the one form of this symbol, for the printed trace and
the operator: it broadcasts xi, tau and phi' against each other, and
takes arg xi from np.angle, as the classical column of clock-trace and
classical_limit_check do.  Where |xi|^2 overflows, |xi| / sqrt(1+|xi|^2)
comes from the antipodal label 1/xi, by the rule spin_symbols_closed_form
uses too.

clock_operator quantizes this symbol at hbar = 1 exactly, by a Beta function
(Berezin, Commun. Math. Phys. 40, 153, 1975), and needs no grid.  Its 2j
magnitudes depend on j alone: a bounded LRU cache keeps them per 2j as a
read-only array, so each call only applies the scale sqrt(1/omega) and
the phase e^{i(omega tau+phi')} and writes the two off-diagonals of a new
matrix.

Correlation functions between spin coherent states measure how sharp the
clock is: a Gaussian of width 1/(2j) in the amplitude angle and
2j/(E1 E2) in the relative phase.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import classical, kernels
from .errors import ChartSingularityError
from .grids import _check_m, _check_two_j
from .symbols import FullLowerSymbol, ReducedLowerSymbol, _reduction


@dataclass
class CorrelationTrace:
    """Overlap magnitudes over a sweep, with the fitted Gaussian width."""

    sweep: np.ndarray
    overlap: np.ndarray
    gaussian: np.ndarray
    sigma2_fit: float
    sigma2_pred: float


def deparameterize(sym: FullLowerSymbol, m: int, tau: float,
                   phi_prime: float = 0.0, omega: float = 1.0) -> ReducedLowerSymbol:
    """Condition a full lower symbol on the clock slice theta = omega*tau + phi'.

    Returns the reduced symbol xi -> int sym(xi, r, theta_slice) against
    the normalized radial weight r^{m+1} e^{-r} / (m+1)!, integrated by the
    rule radial_grid(m); it takes a scalar or an array of xi.  ValueError
    where the slice angle is not finite (see _slice_angle).
    """
    return _reduction(sym, m, np.array([_slice_angle(tau, phi_prime, omega)]))


def _slice_angle(tau: float, phi_prime: float, omega: float) -> float:
    """The gauge angle omega*tau + phi' that the clock reading tau fixes, not reduced mod 2 pi.

    ValueError where it is not finite: a non-finite tau, omega or phi', or
    an omega*tau that overflows.
    """
    theta = float(omega) * float(tau) + float(phi_prime)
    if not math.isfinite(theta):
        raise ValueError(f"the clock slice angle omega*tau + phi' is not finite at "
                         f"tau={tau!r}, omega={omega!r}, phi_prime={phi_prime!r}")
    return theta


def slice_amplitude(m: int) -> float:
    """sqrt(2) G(m), G(m) = Gamma(m+5/2)/(m+1)!: the amplitude of q1' at |xi| -> inf,
    in units of sqrt(hbar/omega); via log-Gamma (G overflows directly for m ~ 170)."""
    return math.sqrt(2.0) * math.exp(math.lgamma(m + 2.5) - math.lgamma(m + 2.0))


def clock_symbol_q1(xi, m: int, tau, phi_prime=0.0, omega: float = 1.0, hbar: float = 1.0):
    """Closed form of the conditioned clock symbol q1'(xi; tau).

    Real for any xi; a single sinusoid in tau with phase
    omega*tau + phi' + arg xi and amplitude
    sqrt(hbar/omega) slice_amplitude(m) |xi|/sqrt(1+|xi|^2).  xi, tau and
    phi_prime broadcast against each other, and a 0-d result is a scalar.
    Each element has the bits of a call with scalar arguments as long as
    np.angle takes the same arctan2 loop for 0-d, contiguous and strided
    labels, as it does on the numpy in use where
    test_clock_symbol_broadcast_equals_scalar_calls passes.
    """
    _check_m(m)
    xi = np.asarray(xi, dtype=np.complex128)
    num, den = _modulus_over_norm(xi)
    phase = omega * np.asarray(tau, dtype=float) + phi_prime + np.angle(xi)
    return (math.sqrt(hbar / omega) * slice_amplitude(m) * num / den * np.cos(phase))[()]


def classical_amplitude(m: int, xi, omega: float = 1.0, hbar: float = 1.0):
    """Amplitude A of oscillator 1 for energy E = (m+1) hbar omega and ratio |xi|.

    A = R |xi|/sqrt(1+|xi|^2), where R^2 = A^2 + B^2 is the squared
    amplitude whose classical.amplitude_energy is E.  xi is a scalar or an array of labels;
    the result has its shape.  Raises ValueError where R leaves the float
    range, as for omega = 1e200 or 1e-200, whose square overflows or
    underflows.
    """
    e_tot = (m + 1) * hbar * omega
    try:
        scale = math.sqrt(e_tot / classical.amplitude_energy(1.0, omega))
    except (OverflowError, ZeroDivisionError):
        scale = math.inf
    if not math.isfinite(scale):
        raise ValueError(f"the classical amplitude sqrt(2E)/omega leaves the float range "
                         f"at omega={omega!r}, hbar={hbar!r}")
    num, den = _modulus_over_norm(xi)
    return (scale * num / den)[()]


def _modulus_over_norm(xi) -> tuple[np.ndarray, np.ndarray]:
    """|xi| / sqrt(1+|xi|^2) as (numerator, denominator), elementwise.

    Where |xi|^2 overflows the ratio comes from the antipodal label 1/xi
    as 1 / sqrt(1+|1/xi|^2).
    """
    _, far, a, a_sq = kernels.antipodal_where_far(xi)
    return np.where(far, 1.0, a), np.sqrt(1.0 + a_sq)


def classical_limit_check(xi: complex, m_list, tau_grid,
                          phi_prime: float = 0.0, omega: float = 1.0) -> dict:
    """Compare the clock symbol against the classical trajectory as m grows.

    For each m the clock symbol is a sinusoid with the classical phase;
    its amplitude over A is G(m)/sqrt(m+1), which tends to limit_ratio = 1
    with O(1/m) deviation.
    """
    if abs(xi) == 0:
        raise ValueError("xi = 0 carries no oscillator-1 signal")
    tau_grid = np.asarray(tau_grid, dtype=float)
    # in units of sqrt(hbar/omega) the slice amplitude is sqrt(2) G(m) and A's radius
    # sqrt((m+1) / amplitude_energy(1, 1)); G(m)/sqrt(m+1) -> 1
    report = {"m": list(m_list), "amplitude_ratio": [], "phase_residual": [],
              "limit_ratio": math.sqrt(2.0 * classical.amplitude_energy(1.0, 1.0))}
    model = np.cos(omega * tau_grid + phi_prime + np.angle(xi))
    for m in m_list:
        amp, resid = fit_sinusoid(clock_symbol_q1(xi, m, tau_grid, phi_prime, omega), model)
        report["amplitude_ratio"].append(amp / classical_amplitude(m, xi, omega))
        report["phase_residual"].append(resid / max(abs(amp), 1e-300))
    return report


def fit_sinusoid(vals: np.ndarray, model: np.ndarray) -> tuple[float, float]:
    """The least-squares amplitude amp of vals on the sinusoid model, and max |vals - amp model|."""
    amp = float(vals @ model) / float(model @ model)
    return amp, float(np.max(np.abs(vals - amp * model)))


def clock_operator(j: float, tau: float, phi_prime: float = 0.0,
                   omega: float = 1.0) -> np.ndarray:
    """Operator of the clock symbol: ((2j+1)/pi) int q1'(xi;tau) |xi><xi| dmu, exactly.

    q1' is clock_symbol_q1 at hbar = 1.  With m = 2j,
    G = slice_amplitude(m)/sqrt(2) and psi = omega*tau + phi', the term
    G xi e^{i psi} / sqrt(2 omega (1+|xi|^2)) of q1' pairs only with
    <n|xi><xi|n+1>, and its radial integral in |xi|^2 is a Beta function:

        C[n, n+1] = (2j+1) G sqrt(C(m,n) C(m,n+1)) B(n+2, m-n+1/2) e^{i psi} / sqrt(2 omega),

    C[n+1, n] its conjugate and every other entry exactly 0.  ValueError
    where psi is not finite (see _slice_angle).
    """
    two_j = _check_two_j(j)
    psi = _slice_angle(tau, phi_prime, omega)
    dim = two_j + 1
    out = np.zeros((dim, dim), dtype=np.complex128)
    # flat views: entry (n, n') of out is element n * dim + n'
    above, below = out.reshape(-1)[1::dim + 1], out.reshape(-1)[dim::dim + 1]
    above[:] = _clock_magnitudes(two_j) * (math.sqrt(1.0 / omega) * np.exp(1j * psi))
    below[:] = above.conj()
    return out


@functools.lru_cache(maxsize=16)
def _clock_magnitudes(two_j: int) -> np.ndarray:
    """|C[n, n+1]| of clock_operator at omega = 1 for n = 0..2j-1; cached per 2j, read-only."""
    # log B(n+2, m-n+1/2) = log (n+1)! + log Gamma(m-n+1/2) - log Gamma(m+5/2)
    log_beta = kernels._log_factorials(two_j)[1:] \
        + np.array([math.lgamma(two_j - k + 0.5) for k in range(two_j)]) - math.lgamma(two_j + 2.5)
    half = kernels._log_binomial_halves(two_j)
    out = (two_j + 1) * (0.5 * slice_amplitude(two_j)) * np.exp(half[:-1] + half[1:] + log_beta)
    out.flags.writeable = False
    return out


def fit_gaussian_width(x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Width of an approximately Gaussian peak from a log-polynomial fit.

    Fits log(y) by a quartic polynomial (centered on the peak sample) on
    the window y > e^{-2} max(y) and reads sigma^2 = -1/(2 c2) from the
    quadratic coefficient.  The quartic terms absorb the leading
    non-Gaussian correction, which a plain quadratic fit does not.
    Returns (sigma^2, fitted curve over all of x).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    i_peak = int(np.argmax(y))
    mask = y > math.exp(-2.0) * y[i_peak]
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
    two_j = _correlation_two_j(j)
    theta_sweep = np.asarray(theta_sweep, dtype=float)
    pole = math.pi / 2.0
    if min(abs(theta_ref - pole), abs(theta_ref + pole)) < 1e-6:
        raise ChartSingularityError(
            "theta_ref at the chart pole; parametrize from the other chart (swap the "
            "oscillators, theta -> pi/2 - theta, which toggling --antipodal does)")
    ov = np.abs(np.cos(theta_sweep - theta_ref)) ** two_j
    return _fitted_trace(theta_sweep, ov, 1.0 / (2.0 * j))


def phase_correlation(xi_mag: float, j: float,
                      dphi_sweep: np.ndarray) -> CorrelationTrace:
    """Overlap of |xi e^{i dphi}> with |xi> across relative phases.

    The predicted width is 2j/(E1 E2) with oscillator energies in quanta
    E1 = 2j |xi|^2/(1+|xi|^2) and E2 = 2j/(1+|xi|^2); sharp when the
    energy is shared.
    """
    two_j = _correlation_two_j(j)
    if xi_mag <= 0:
        raise ValueError("|xi| = 0 carries no phase information")
    t = float(kernels.abs_and_square(xi_mag)[1])
    # at |xi|^2 = 0 or inf one oscillator holds every quantum and E1 E2 = 0
    if not 0.0 < t < math.inf:
        raise ValueError(f"|xi|^2 leaves the float range at xi_mag={xi_mag!r}")
    dphi_sweep = np.asarray(dphi_sweep, dtype=float)
    # np.abs: 1 + t e^{i dphi} is not a chart label, and tests/data pins figure 2's bits
    ov = (np.abs(1.0 + t * np.exp(1j * dphi_sweep)) / (1.0 + t)) ** two_j
    e1 = two_j * t / (1.0 + t)
    e2 = two_j / (1.0 + t)
    return _fitted_trace(dphi_sweep, ov, two_j / (e1 * e2))


def _correlation_two_j(j: float) -> int:
    """The integer 2j of a correlation trace's spin; ValueError unless 2j is an integer >= 1."""
    two_j = _check_two_j(j)
    if j < 0.5:
        raise ValueError("need j >= 1/2")
    return two_j


def _fitted_trace(sweep: np.ndarray, ov: np.ndarray, sigma2_pred: float) -> CorrelationTrace:
    """The CorrelationTrace of the overlaps ov over sweep, with their fitted Gaussian width."""
    sigma2_fit, fitted = fit_gaussian_width(sweep, ov)
    return CorrelationTrace(sweep=sweep, overlap=ov, gaussian=fitted, sigma2_fit=sigma2_fit,
                            sigma2_pred=sigma2_pred)

