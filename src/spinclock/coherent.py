"""Coherent states: two-mode labels, projection onto a number sector,
gauge-phase factoring, spin coherent states, overlaps, and the
resolution of unity.

The projector onto the physical subspace is the exact orthogonal
projector onto the a'a + b'b = m' eigenspace; the two-mode Gaussian
prefactor follows the e^{-(|alpha|^2+|beta|^2)/2} normalization, which is
what makes the projected norm equal e^{-r} r^{m'} / m'!.
"""

import cmath
import math

import numpy as np

from . import kernels
from .errors import ChartSingularityError
from .grids import SphereGrid, sphere_grid


def su2_coherent(xi: complex, j: float) -> np.ndarray:
    """Normalized spin coherent state |xi> for spin j.

    Coefficients c_n = (1+|xi|^2)^{-j} sqrt(C(2j,n)) xi^n on the basis
    |n, 2j-n>, n ascending.
    """
    two_j = _check_two_j(j)
    return kernels.coherent_amplitudes(np.array([xi]), two_j)[0]


def su2_coherent_batch(xis, j: float) -> np.ndarray:
    """Rows of su2_coherent for an array of labels."""
    two_j = _check_two_j(j)
    return kernels.coherent_amplitudes(xis, two_j)


def project_coherent(alpha: complex, beta: complex, m_prime: int
                     ) -> tuple[np.ndarray, float]:
    """Project the two-mode coherent state |alpha, beta> onto sector m'.

    Returns (amplitudes, norm_sq) where amplitudes[n] is the
    (unnormalized) coefficient of |n, m'-n> and norm_sq is the projected
    weight e^{-r} r^{m'} / m'! with r = |alpha|^2 + |beta|^2.
    """
    if m_prime < 0:
        raise ValueError("m_prime must be nonnegative")
    r = abs(alpha) ** 2 + abs(beta) ** 2
    n = np.arange(m_prime + 1)
    log_fact = np.array([math.lgamma(k + 1) for k in n])
    pref = math.exp(-0.5 * r)
    amps = pref * np.power(alpha, n) * np.power(beta, m_prime - n) \
        * np.exp(-0.5 * (log_fact + log_fact[::-1]))
    norm_sq = math.exp(-r + m_prime * math.log(r) - math.lgamma(m_prime + 1)) \
        if r > 0 else (1.0 if m_prime == 0 else 0.0)
    return amps.astype(np.complex128), norm_sq


def factor_gauge_phase(alpha: complex, beta: complex, m_prime: int
                       ) -> tuple[float, complex]:
    """Split a projected label into (gauge angle theta, chart coordinate xi).

    The normalized projection of |alpha, beta> equals
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
    inner = (1.0 + (xi1.real * xi2.real + xi1.imag * xi2.imag)) \
        + 1j * (xi1.real * xi2.imag - xi1.imag * xi2.real)
    orthogonal = inner == 0
    log_ov = two_j * np.log(np.where(orthogonal, 1.0, inner)) \
        - 0.5 * two_j * (np.log1p(_abs_sq(xi1)) + np.log1p(_abs_sq(xi2)))
    return np.where(orthogonal, 0.0, np.exp(log_ov))[()]


def _abs_sq(z: np.ndarray) -> np.ndarray:
    """|z|^2 rounded as Python's abs(z) ** 2 rounds it.

    np.hypot rounds |z| as abs does, and float_power calls the C pow that
    ** calls; np.abs and ** 2 (np.square) on arrays each differ from them
    in the last ulp for some z.
    """
    return np.float_power(np.hypot(z.real, z.imag), 2)


def resolution_of_unity(j: float, grid: SphereGrid | None = None) -> np.ndarray:
    """((2j+1)/pi) * sum_k w_k |xi_k><xi_k|; identity on the sector."""
    two_j = _check_two_j(j)
    if grid is None:
        grid = sphere_grid(j)
    vecs = kernels.coherent_amplitudes(grid.xi, two_j)
    return ((two_j + 1) / np.pi) * kernels.accumulate_projectors(vecs, grid.weights)


def radial_weight(r, m: int):
    """Normalized constraint-direction weight e^{-r} r^{m+1} / (m+1)!.

    Integrates to 1 over r in [0, inf) and peaks at r = m+1, the quantum
    image of the classical constraint surface.
    """
    r = np.asarray(r, dtype=float)
    lg = math.lgamma(m + 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(r > 0, np.exp((m + 1) * np.log(np.where(r > 0, r, 1.0)) - r - lg), 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def _check_two_j(j: float) -> int:
    two_j = round(2 * j)
    if two_j < 0 or abs(2 * j - two_j) > 1e-12:
        raise ValueError(f"2j must be a nonnegative integer, got j={j}")
    return two_j
