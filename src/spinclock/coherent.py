"""Coherent states: two-mode labels, projection onto a number sector,
gauge-phase factoring, spin coherent states, overlaps, and the
resolution of unity.

The projector onto the physical subspace is the exact orthogonal
projector onto the a'a + b'b = m' eigenspace; the two-mode Gaussian
prefactor follows the e^{-(|alpha|^2+|beta|^2)/2} normalization, which is
what makes the projected norm equal e^{-r} r^{m'} / m'!.

The spin-coherent functions take their labels the numpy way: su2_coherent
and overlap accept a scalar or an array of xi and return one result per
label, so a whole sweep is one call.
"""

import cmath
import math

import numpy as np

from . import kernels
from .errors import ChartSingularityError
from .grids import SphereGrid, _check_m, _check_two_j, sphere_grid


def su2_coherent(xi, j: float) -> np.ndarray:
    """Normalized spin coherent states |xi> for spin j, one per label.

    Coefficients c_n = (1+|xi|^2)^{-j} sqrt(C(2j,n)) xi^n on the basis
    |n, 2j-n>, n ascending.  xi is a scalar or an array of labels; the
    result has shape xi.shape + (2j+1,), so a scalar label gives one
    vector.  The labels go to kernels.coherent_amplitudes as one batch.
    """
    two_j = _check_two_j(j)
    xi = np.asarray(xi, dtype=np.complex128)
    return kernels.coherent_amplitudes(xi.ravel(), two_j).reshape(xi.shape + (two_j + 1,))


def project_coherent(alpha: complex, beta: complex, m_prime: int
                     ) -> tuple[np.ndarray, float]:
    """Project the two-mode coherent state |alpha, beta> onto sector m'.

    Returns (amplitudes, norm_sq) where amplitudes[n] is the
    (unnormalized) coefficient of |n, m'-n> and norm_sq is the projected
    weight e^{-r} r^{m'} / m'! with r = |alpha|^2 + |beta|^2.  ValueError
    for m' < 0.
    """
    _check_m(m_prime)
    r = abs(alpha) ** 2 + abs(beta) ** 2
    n = np.arange(m_prime + 1)
    log_fact = kernels._log_factorials(m_prime)
    # in the log domain, where the linear powers over- and underflow; 0^0 = 1
    with np.errstate(divide="ignore", invalid="ignore"):
        log_mag = -0.5 * (r + log_fact + log_fact[::-1]) \
            + np.where(n > 0, n * np.log(abs(alpha)), 0.0) \
            + np.where(n < m_prime, (m_prime - n) * np.log(abs(beta)), 0.0)
    amps = np.exp(log_mag + 1j * (n * cmath.phase(alpha) + (m_prime - n) * cmath.phase(beta)))
    norm_sq = math.exp(-r + m_prime * math.log(r) - log_fact[-1]) \
        if r > 0 else (1.0 if m_prime == 0 else 0.0)
    return amps, norm_sq


def factor_gauge_phase(alpha: complex, beta: complex) -> tuple[float, complex]:
    """Split a projected label into (gauge angle theta, chart coordinate xi).

    The normalized projection of |alpha, beta> onto any sector m' equals
    e^{i m' theta} |xi> with theta = arg(beta) and xi = alpha/beta.
    """
    if beta == 0:
        raise ChartSingularityError("gauge factoring undefined at beta = 0")
    return cmath.phase(beta), alpha / beta


def overlap(xi1, xi2, j: float):
    """<xi1 | xi2> from the closed form, evaluated in the log domain.

    (1+|xi1|^2)^{-j} (1+|xi2|^2)^{-j} (1 + conj(xi1) xi2)^{2j}

    xi1 and xi2 broadcast against each other; labels with
    1 + conj(xi1) xi2 = 0 are orthogonal and give exactly 0.
    """
    two_j = _check_two_j(j)
    xi1 = np.asarray(xi1, dtype=np.complex128)
    xi2 = np.asarray(xi2, dtype=np.complex128)
    # conj(xi1) xi2 by components: numpy's complex array multiply fuses
    # multiply-adds and so rounds differently from scalar complex arithmetic
    with np.errstate(over="ignore", invalid="ignore"):
        inner = (1.0 + (xi1.real * xi2.real + xi1.imag * xi2.imag)) \
            + 1j * (xi1.real * xi2.imag - xi1.imag * xi2.real)
    orthogonal = inner == 0
    # where conj(xi1) xi2 overflows its modulus exceeds 1e308, and
    # log(inner) = log(conj(xi1)) + log(xi2) + log1p(1/(conj(xi1) xi2)) drops
    # a last term below 1e-308
    far = ~np.isfinite(inner)
    log_inner = np.where(
        far, np.log(np.where(far, xi1, 1.0).conj()) + np.log(np.where(far, xi2, 1.0)),
        np.log(np.where(orthogonal | far, 1.0, inner)))
    log_norms = [kernels.log1p_square(*kernels.abs_and_square(x)) for x in (xi1, xi2)]
    log_ov = two_j * log_inner - 0.5 * two_j * (log_norms[0] + log_norms[1])
    return np.where(orthogonal, 0.0, np.exp(log_ov))[()]


def resolution_of_unity(j: float, grid: SphereGrid | None = None) -> np.ndarray:
    """((2j+1)/pi) * sum_k w_k |xi_k><xi_k|; identity on the sector."""
    # the coefficients are the ring weights, one per ring: column 0 only
    return _diagonal_operator(j, grid, lambda grid: grid.ring_weights)


def _diagonal_operator(j: float, grid: SphereGrid | None, coefficients) -> np.ndarray:
    """((2j+1)/pi) * sum_k c_k |xi_k><xi_k| over grid, the default grid of spin j when None.

    coefficients(grid) returns the c_k w_k, one per node, or one per ring
    where they are constant on each ring; whatever it builds on the way is
    freed before the ring sum runs.  One value per ring, which per-node
    coefficients on a grid of one azimuth also are, goes to
    kernels.per_ring_sum times (2j+1)/pi, so only the diagonals it reaches
    are scaled; per-node ones go to kernels.ring_projector_sum, whose
    result is scaled as a whole.
    """
    two_j = _check_two_j(j)
    if grid is None:
        grid = sphere_grid(j)
    coeff = coefficients(grid)
    scale = (two_j + 1) / np.pi
    if np.size(coeff) == len(grid.rho):
        return kernels.per_ring_sum(grid, scale * np.ravel(coeff), two_j)
    out = kernels.ring_projector_sum(grid, coeff, two_j)
    out *= scale
    return out


def radial_weight(r, m: int):
    """Normalized constraint-direction weight e^{-r} r^{m+1} / (m+1)!.

    Integrates to 1 over r in [0, inf) and peaks at r = m+1, the quantum
    image of the classical constraint surface.  ValueError for m < 0.
    """
    _check_m(m)
    r = np.asarray(r, dtype=float)
    lg = math.lgamma(m + 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(r > 0, np.exp((m + 1) * np.log(np.where(r > 0, r, 1.0)) - r - lg), 0.0)
    if out.ndim == 0:
        return float(out)
    return out
